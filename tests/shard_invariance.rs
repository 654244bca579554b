//! Shard-count invariance: the sharded engine must produce bit-identical
//! results for any shard count.
//!
//! The full-stack CellBricks world (real SAP crypto, MPTCP transfer,
//! fault injection) is partitioned by bTelco region — UE/internet/broker/
//! server in region 0, eNB₁/AGW₁ in region 1, eNB₂/AGW₂ in region 2 —
//! and run under the conservative-lookahead barrier at 1, 2 and 4
//! shards. Per-direction RNG streams plus canonical cross-shard arrival
//! ordering make every endpoint see identical inputs in identical order
//! regardless of the partition, so attach counters, attach-latency bits,
//! transferred bytes and link counters must all match exactly. A lossy
//! scenario exercises the per-direction loss streams on a cross-shard
//! link, and an unsplit world must equal the one-shard split that
//! shares its stream seed.

mod common;

use cellbricks::core::brokerd::Brokerd;
use cellbricks::core::btelco::BTelcoGateway;
use cellbricks::core::ue::UeDevice;
use cellbricks::epc::enb::Enb;
use cellbricks::net::{
    make_cells, merged_link_stats, run_sharded, BurstLoss, Endpoint, EndpointAddr, FaultPlan,
    LinkId, NetWorld, NodeId, Packet, Router, ShardCell, ShardPlan,
};
use cellbricks::sim::{SimDuration, SimRng, SimTime};
use cellbricks::transport::Host;
use common::{CellBricksWorld, AGW1_SIG, SERVER_IP, TELCO1};
use rand::RngCore;

const SECS: fn(u64) -> SimTime = SimTime::from_secs;

/// The world RNG seed an unsplit world is built from.
const WORLD_RNG_SEED: u64 = 0xCB5E_ED00;

/// One common stream seed for every split run — the one an unsplit world
/// draws from [`WORLD_RNG_SEED`]. The per-link-direction RNG streams
/// derive from it identically in every shard, which is what makes
/// different shard counts comparable at all.
fn stream_seed() -> u64 {
    SimRng::new(WORLD_RNG_SEED).next_u64()
}

/// The CellBricks world rehosted on shard cells. The endpoints stay
/// plain owned values; each `run_to` re-partitions `&mut` views of them
/// by owning shard.
struct ShardedCb {
    cells: Vec<ShardCell>,
    plan: ShardPlan,
    lookahead: SimDuration,
    ue: UeDevice,
    enb1: Enb,
    enb2: Enb,
    telco1: BTelcoGateway,
    telco2: BTelcoGateway,
    brokerd: Brokerd,
    internet: Router,
    server: Host,
    radio1: LinkId,
    agw1_node: NodeId,
    cursor: SimTime,
}

struct ServerEp<'a>(&'a mut Host);
impl Endpoint for ServerEp<'_> {
    fn node(&self) -> NodeId {
        self.0.node()
    }
    fn handle_packet(&mut self, now: SimTime, pkt: Packet, out: &mut Vec<Packet>) {
        self.0.handle_packet(now, pkt);
        self.0.drain_out(out);
    }
    fn poll_at(&self) -> Option<SimTime> {
        self.0.poll_at()
    }
    fn poll(&mut self, now: SimTime, out: &mut Vec<Packet>) {
        self.0.poll(now);
        self.0.drain_out(out);
    }
}

/// Partition the two-bTelco world by region and split it into `shards`
/// cells.
fn sharded(w: CellBricksWorld, shards: usize) -> ShardedCb {
    rehost(w, shards, |world, plan| {
        make_cells(world, plan, stream_seed())
    })
}

/// The same world left unsplit: the one-shard world `NetWorld::new`
/// builds from [`WORLD_RNG_SEED`], in a single cell.
fn unsplit(w: CellBricksWorld) -> ShardedCb {
    rehost(w, 1, |world, _| {
        let world = NetWorld::new(world.topology().clone(), SimRng::new(WORLD_RNG_SEED));
        vec![ShardCell::new(world)]
    })
}

/// Partition the world by region into `shards` and host it on the cells
/// `cells` builds. The lookahead is pinned to 5 ms — the AGW↔internet
/// latency, the smallest link that can cross shards under this
/// partition — for every shard count, so all runs step through
/// identical windows.
fn rehost(
    mut w: CellBricksWorld,
    shards: usize,
    cells: impl FnOnce(NetWorld, &ShardPlan) -> Vec<ShardCell>,
) -> ShardedCb {
    let enb1_node = Endpoint::node(&w.enb1);
    let enb2_node = Endpoint::node(&w.enb2);
    let t = w.world.topology_mut();
    t.set_region(enb1_node, 1);
    t.set_region(w.agw1_node, 1);
    t.set_region(enb2_node, 2);
    t.set_region(w.agw2_node, 2);
    let plan = ShardPlan::by_region(w.world.topology(), shards);
    let lookahead = SimDuration::from_millis(5);
    if let Some(l) = plan.lookahead(w.world.topology()) {
        assert!(lookahead <= l, "pinned lookahead must stay conservative");
    }
    let cells = cells(w.world, &plan);
    ShardedCb {
        cells,
        plan,
        lookahead,
        ue: w.ue,
        enb1: w.enb1,
        enb2: w.enb2,
        telco1: w.telco1,
        telco2: w.telco2,
        brokerd: w.brokerd,
        internet: w.internet,
        server: w.server,
        radio1: w.radio1,
        agw1_node: w.agw1_node,
        cursor: SimTime::ZERO,
    }
}

impl ShardedCb {
    fn run_to(&mut self, until: SimTime) {
        let mut server = ServerEp(&mut self.server);
        let mut buckets: Vec<Vec<&mut (dyn Endpoint + Send)>> =
            (0..self.cells.len()).map(|_| Vec::new()).collect();
        macro_rules! put {
            ($e:expr) => {{
                let node = Endpoint::node($e);
                buckets[self.plan.shard_of(node)].push($e);
            }};
        }
        put!(&mut self.ue);
        put!(&mut self.enb1);
        put!(&mut self.enb2);
        put!(&mut self.telco1);
        put!(&mut self.telco2);
        put!(&mut self.brokerd);
        put!(&mut self.internet);
        put!(&mut server);
        run_sharded(&mut self.cells, &mut buckets, until, self.lookahead);
        self.cursor = until;
    }

    /// Script faults: the plan is partitioned so each shard's driver
    /// applies exactly the actions touching state it owns (link faults
    /// land on both end-owning shards).
    fn set_faults(&mut self, plan: FaultPlan) {
        let parts = self
            .plan
            .partition_faults(plan, self.cells[0].world.topology());
        for (cell, part) in self.cells.iter_mut().zip(parts) {
            cell.driver.set_fault_plan(part);
        }
    }

    fn radio1_stats(&self) -> [u64; 6] {
        let s = merged_link_stats(&self.cells, self.radio1);
        [
            s.ab_delivered,
            s.ab_dropped,
            s.ba_delivered,
            s.ba_dropped,
            s.ab_policer_hits,
            s.ba_policer_hits,
        ]
    }
}

/// Fig. 7-shaped local scenario: one SAP attach, everything measured to
/// the bit.
fn attach_outcome(seed: u64, shards: usize) -> (u64, u64, Option<u64>, u64, [u64; 6]) {
    let w = CellBricksWorld::build(seed);
    let mut s = sharded(w, shards);
    if shards > 1 {
        assert_ne!(
            s.plan.shard_of(Endpoint::node(&s.ue)),
            s.plan.shard_of(s.agw1_node),
            "partition actually splits the SAP path"
        );
    }
    s.ue.start_attach(SimTime::ZERO, TELCO1, AGW1_SIG);
    s.run_to(SECS(2));
    assert!(s.ue.is_attached(), "attach converged at {shards} shards");
    (
        s.ue.attaches,
        s.ue.failures,
        s.ue.last_attach_latency.map(|d| d.as_nanos()),
        s.ue.proc_time.as_nanos(),
        s.radio1_stats(),
    )
}

#[test]
fn attach_is_shard_count_invariant() {
    let one = attach_outcome(31, 1);
    let two = attach_outcome(31, 2);
    let four = attach_outcome(31, 4);
    assert_eq!(one, two, "1 vs 2 shards");
    assert_eq!(one, four, "1 vs 4 shards");
    assert_eq!(one.0, 1, "exactly one attach");
}

/// Multi-bTelco chaos scenario: bulk MPTCP downlink, a radio flap train
/// on the cross-shard radio link, then a bTelco crash+restart that the
/// UE's inactivity watchdog must recover from — all bit-identical for
/// any shard count, with recovery proven (the `fault.unrecovered = 0`
/// analogue: the UE ends re-attached and the transfer moving).
fn chaos_outcome(seed: u64, shards: usize) -> (u64, u64, u64, u64, bool, u64, [u64; 6]) {
    let w = CellBricksWorld::build_chaos(seed);
    let mut s = sharded(w, shards);
    s.ue.start_attach(SimTime::ZERO, TELCO1, AGW1_SIG);
    s.run_to(SECS(1));
    assert!(s.ue.is_attached());
    s.server.mp_listen(5001);
    let conn =
        s.ue.host
            .mp_connect(s.cursor, EndpointAddr::new(SERVER_IP, 5001));
    s.run_to(SECS(2));
    let sc = s.server.take_accepted_mp()[0];
    s.server.mp_set_bulk(s.cursor, sc);
    s.run_to(SECS(5));
    let before = s.ue.host.mp(conn).data_received();
    assert!(before > 100_000, "flowing before faults: {before}");

    // Three 400 ms flaps on the serving radio from 5 s, then the serving
    // bTelco crashes at 10 s and restarts at 11 s with its sessions gone.
    let mut plan = FaultPlan::new();
    plan.link_flaps(
        s.radio1,
        SECS(5),
        3,
        SimDuration::from_millis(400),
        SimDuration::from_millis(600),
    );
    plan.crash_restart(s.agw1_node, SECS(10), SimDuration::from_secs(1));
    s.set_faults(plan);
    s.run_to(SECS(25));

    // Recovered: watchdog fired, UE re-attached, transfer moving again.
    assert!(s.ue.watchdog_reattaches >= 1, "watchdog fired");
    assert!(s.ue.is_attached(), "re-attached after the crash");
    let after = s.ue.host.mp(conn).data_received();
    assert!(
        after > before,
        "transfer advanced through the fault train: {before} -> {after}"
    );
    (
        s.ue.attaches,
        s.ue.failures,
        s.ue.attach_retries,
        s.ue.watchdog_reattaches,
        s.ue.is_attached(),
        after,
        s.radio1_stats(),
    )
}

#[test]
fn chaos_is_shard_count_invariant() {
    let one = chaos_outcome(37, 1);
    let two = chaos_outcome(37, 2);
    let four = chaos_outcome(37, 4);
    assert_eq!(one, two, "1 vs 2 shards");
    assert_eq!(one, four, "1 vs 4 shards");
}

/// Lossy scenario: 2% uniform loss on both radios — the UE↔eNB radio
/// crosses shards at 2 and 4 shards — plus a Gilbert–Elliott burst
/// window on the serving radio mid-transfer. Every loss and burst draw
/// comes from a per-direction stream, so the same packets drop at any
/// shard count.
fn lossy_outcome(mut s: ShardedCb) -> (u64, u64, u64, u64, [u64; 6]) {
    s.ue.start_attach(SimTime::ZERO, TELCO1, AGW1_SIG);
    s.run_to(SECS(3));
    assert!(s.ue.is_attached());
    s.server.mp_listen(5001);
    let conn =
        s.ue.host
            .mp_connect(s.cursor, EndpointAddr::new(SERVER_IP, 5001));
    s.run_to(SECS(4));
    let sc = s.server.take_accepted_mp()[0];
    s.server.mp_set_bulk(s.cursor, sc);
    let mut plan = FaultPlan::new();
    plan.burst_loss_window(s.radio1, SECS(6), SECS(8), BurstLoss::flaky_cell());
    s.set_faults(plan);
    s.run_to(SECS(10));
    let stats = s.radio1_stats();
    assert!(
        stats[1] > 0 && stats[3] > 0,
        "loss bites both ways: {stats:?}"
    );
    let received = s.ue.host.mp(conn).data_received();
    assert!(received > 100_000, "transfer moved: {received}");
    (
        s.ue.attaches,
        s.ue.failures,
        s.ue.attach_retries,
        received,
        stats,
    )
}

#[test]
fn lossy_links_are_shard_count_invariant() {
    let lossy = || CellBricksWorld::build_lossy(41, 0.02);
    let one = lossy_outcome(sharded(lossy(), 1));
    assert_eq!(lossy_outcome(sharded(lossy(), 2)), one, "1 vs 2 shards");
    assert_eq!(lossy_outcome(sharded(lossy(), 4)), one, "1 vs 4 shards");
    assert_eq!(lossy_outcome(unsplit(lossy())), one, "unsplit vs 1 shard");
}
