//! `sim_city`: a full-stack simulated city in the sharded engine model at
//! one shard: `make_cells` builds the single shard cell, and that cell's
//! driver runs on the calling thread (what `run_sharded` does for each
//! shard, without the thread and the barrier it needs only for several),
//! so the thread's CPU clock times each phase exactly.
//!
//! Real `UeDevice`s spread over a few bTelco regions (eNB + `BTelcoGateway`
//! each) attach through one `Brokerd`; every SAP message crosses the
//! simulated network and all cryptography is real. Phases:
//!
//! * **A — attach storm**: every UE attaches to its home region at t = 0.
//!   SAP and crypto dominate. Reported as attaches per host-second.
//! * **B — steady state**: a fixed handover churn (each handover settles
//!   one billing cycle through the broker's report path) over per-region
//!   background flows through the eNBs. The engine does most of the work.
//! * **C — single attaches**: one UE at a time detaches, then attaches in
//!   the neighbouring region with nothing else in flight; the host time
//!   of each attach is its latency.
//!
//! Every endpoint sits behind a delegating adapter that counts the
//! engine's calls into it and, in the traced run, times `handle_packet`
//! and `poll`; engine self time is the phase's wall time minus the summed
//! endpoint time.

use crate::alloc;
use crate::ledger::{self, CounterWindow};
use crate::stream::Builder;
use crate::util::{peak_rss_mb, sorted, thread_cpu_ns, Json, Params};
use bytes::Bytes;
use cellbricks_core::broker_server::{self, Population};
use cellbricks_core::brokerd::{Brokerd, BrokerdConfig};
use cellbricks_core::btelco::{BTelcoGateway, BTelcoGatewayConfig, BrokerContact};
use cellbricks_core::principal::{BrokerKeys, Identity, TelcoKeys, UeKeys};
use cellbricks_core::sap::QosCap;
use cellbricks_core::ue::{RecoveryConfig, UeDevice, UeDeviceConfig};
use cellbricks_crypto::cert::CertificateAuthority;
use cellbricks_epc::enb::Enb;
use cellbricks_net::{
    make_cells, merged_link_stats, Endpoint, LinkConfig, LinkId, NetWorld, NodeId, Packet, Router,
    ShardCell, ShardPlan, Topology,
};
use cellbricks_sim::{SimDuration, SimRng, SimTime};
use cellbricks_telemetry as telemetry;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::time::{Duration, Instant};

const BROKER_IP: Ipv4Addr = Ipv4Addr::new(172, 16, 0, 1);

fn agw_sig(region: usize) -> Ipv4Addr {
    Ipv4Addr::new(172, 16, region as u8 + 1, 1)
}

fn sink_ip(region: usize) -> Ipv4Addr {
    Ipv4Addr::new(192, 168, region as u8 + 1, 2)
}

fn tick_ip(region: usize) -> Ipv4Addr {
    Ipv4Addr::new(192, 168, region as u8 + 1, 1)
}

fn ue_sig(i: usize) -> Ipv4Addr {
    Ipv4Addr::new(169, 254, (i / 250) as u8 + 1, (i % 250) as u8 + 1)
}

/// Region `r`'s bTelco name; region 0 is the wire service's `TELCO_NAME`.
fn telco_name(region: usize) -> String {
    format!("tower-{}.example", region + 1)
}

/// `sim_city`'s fixed protocol (from `protocol.json`).
pub struct CityCfg {
    regions: usize,
    ues: usize,
    storm_sim_s: f64,
    steady_sim_s_per_s: f64,
    tick_us: u64,
    handovers_per_tick: usize,
    tick_ms: u64,
    settle_sim_s: f64,
    probe_attaches: usize,
    probe_window_ms: u64,
}

impl CityCfg {
    pub fn from_params(p: &Params) -> Result<Self, String> {
        let cfg = Self {
            regions: p.usize("regions")?,
            ues: p.usize("ues")?,
            storm_sim_s: p.f64("storm_sim_s")?,
            steady_sim_s_per_s: p.f64("steady_sim_s_per_measured_s")?,
            tick_us: p.usize("flow_interval_us")? as u64,
            handovers_per_tick: p.usize("handovers_per_churn_tick")?,
            tick_ms: p.usize("churn_tick_ms")? as u64,
            settle_sim_s: p.f64("settle_sim_s")?,
            probe_attaches: p.usize("single_attaches")?,
            probe_window_ms: p.usize("single_attach_window_ms")? as u64,
        };
        if !(2..=8).contains(&cfg.regions) || cfg.ues == 0 || cfg.ues > 250 * 250 {
            return Err("sim_city: regions must be 2..=8 and ues 1..=62500".into());
        }
        Ok(cfg)
    }
}

/// The busy flow of one region: one small packet to `dst` every
/// `interval` while `next < stop`.
struct Ticker {
    node: NodeId,
    src: Ipv4Addr,
    dst: Ipv4Addr,
    next: SimTime,
    stop: SimTime,
    interval: SimDuration,
    sent: u64,
}

impl Endpoint for Ticker {
    fn node(&self) -> NodeId {
        self.node
    }
    fn handle_packet(&mut self, _now: SimTime, _pkt: Packet, _out: &mut Vec<Packet>) {}
    fn poll_at(&self) -> Option<SimTime> {
        (self.next < self.stop).then_some(self.next)
    }
    fn poll(&mut self, now: SimTime, out: &mut Vec<Packet>) {
        while self.next <= now && self.next < self.stop {
            out.push(Packet::control(
                self.src,
                self.dst,
                Bytes::from_static(b"bg"),
            ));
            self.next += self.interval;
            self.sent += 1;
        }
    }
}

/// The far end of a flow: counts receptions, never wakes itself.
struct Sink {
    node: NodeId,
    received: u64,
}

impl Endpoint for Sink {
    fn node(&self) -> NodeId {
        self.node
    }
    fn handle_packet(&mut self, _now: SimTime, _pkt: Packet, _out: &mut Vec<Packet>) {
        self.received += 1;
    }
    fn poll_at(&self) -> Option<SimTime> {
        None
    }
    fn poll(&mut self, _now: SimTime, _out: &mut Vec<Packet>) {}
}

/// A delegating endpoint that counts the engine's calls into `inner`
/// and, when `timed`, the host time they take.
struct Timed<E> {
    inner: E,
    timed: bool,
    calls: u64,
    busy: Duration,
}

impl<E> Timed<E> {
    fn new(inner: E, timed: bool) -> Self {
        Self {
            inner,
            timed,
            calls: 0,
            busy: Duration::ZERO,
        }
    }
}

impl<E: Endpoint> Endpoint for Timed<E> {
    fn node(&self) -> NodeId {
        self.inner.node()
    }
    fn handle_packet(&mut self, now: SimTime, pkt: Packet, out: &mut Vec<Packet>) {
        self.calls += 1;
        if self.timed {
            let t0 = Instant::now();
            self.inner.handle_packet(now, pkt, out);
            self.busy += t0.elapsed();
        } else {
            self.inner.handle_packet(now, pkt, out);
        }
    }
    fn poll_at(&self) -> Option<SimTime> {
        self.inner.poll_at()
    }
    fn poll(&mut self, now: SimTime, out: &mut Vec<Packet>) {
        self.calls += 1;
        if self.timed {
            let t0 = Instant::now();
            self.inner.poll(now, out);
            self.busy += t0.elapsed();
        } else {
            self.inner.poll(now, out);
        }
    }
}

/// Endpoint roles, for the per-layer split.
#[derive(Clone, Copy)]
enum Role {
    Ue,
    Telco,
    Broker,
    Enb,
    Other,
}

/// Calls and busy time per role at one instant.
#[derive(Clone, Copy, Default)]
struct RoleClock {
    calls: [u64; 5],
    busy: [Duration; 5],
}

impl RoleClock {
    fn since(&self, earlier: &RoleClock) -> RoleClock {
        let mut d = RoleClock::default();
        for r in 0..5 {
            d.calls[r] = self.calls[r] - earlier.calls[r];
            d.busy[r] = self.busy[r] - earlier.busy[r];
        }
        d
    }
    fn events(&self) -> u64 {
        self.calls.iter().sum()
    }
    fn busy_total(&self) -> Duration {
        self.busy.iter().sum()
    }
}

struct Ue {
    dev: Timed<UeDevice>,
    home: usize,
    /// Radio links to the home region's eNB and the neighbour's.
    radios: [LinkId; 2],
    /// Which of `radios` is in use.
    on: usize,
}

struct City {
    cells: Vec<ShardCell>,
    broker: Timed<Brokerd>,
    telcos: Vec<Timed<BTelcoGateway>>,
    enbs: Vec<Timed<Enb>>,
    inet: Timed<Router>,
    tickers: Vec<Timed<Ticker>>,
    sinks: Vec<Timed<Sink>>,
    ues: Vec<Ue>,
    links: Vec<LinkId>,
    clock: SimTime,
    /// Key material, kept for the traced ledger.
    pop: Population,
}

impl City {
    fn build(cfg: &CityCfg, seed: u64, timed: bool) -> Self {
        let mut rng = SimRng::new(seed);
        let ca = CertificateAuthority::from_seed([0xCA; 32]);
        let broker_keys = BrokerKeys::generate(broker_server::BROKER_NAME, &ca, &mut rng);
        let telco_keys: Vec<TelcoKeys> = (0..cfg.regions)
            .map(|r| TelcoKeys::generate(&telco_name(r), &ca, &mut rng))
            .collect();

        let ms = SimDuration::from_millis;
        let us = SimDuration::from_micros;
        let mut t = Topology::new();
        let mut links = Vec::new();
        let mut link = |t: &mut Topology, a, b, d| {
            let l = t.add_symmetric_link(a, b, LinkConfig::delay_only(d));
            links.push(l);
            l
        };
        let inet = t.add_node("inet");
        let broker_node = t.add_node("broker");
        let cloud = link(&mut t, inet, broker_node, ms(4));
        t.add_route(inet, BROKER_IP, 32, cloud);
        t.add_default_route(broker_node, cloud);
        let mut enb_nodes = Vec::new();
        let mut agw_nodes = Vec::new();
        let mut backs = Vec::new();
        let mut tick_nodes = Vec::new();
        let mut sink_nodes = Vec::new();
        for r in 0..cfg.regions {
            let enb = t.add_node(&format!("enb{r}"));
            let agw = t.add_node(&format!("agw{r}"));
            let back = link(&mut t, enb, agw, ms(2));
            let core = link(&mut t, agw, inet, ms(5));
            t.add_default_route(enb, back);
            t.add_default_route(agw, core);
            t.add_route(inet, agw_sig(r), 32, core);
            t.add_route(inet, Ipv4Addr::new(10, r as u8 + 1, 0, 0), 16, core);
            // The background flow: ticker → eNB → sink, all in-region.
            let tick = t.add_node(&format!("tick{r}"));
            let sink = t.add_node(&format!("sink{r}"));
            let up = link(&mut t, tick, enb, us(100));
            let down = link(&mut t, enb, sink, us(100));
            t.add_default_route(tick, up);
            t.add_default_route(sink, down);
            t.add_route(enb, sink_ip(r), 32, down);
            t.add_route(enb, tick_ip(r), 32, up);
            enb_nodes.push(enb);
            agw_nodes.push(agw);
            backs.push(back);
            tick_nodes.push(tick);
            sink_nodes.push(sink);
        }

        let mut brokerd = Brokerd::new(
            broker_node,
            BrokerdConfig {
                ip: BROKER_IP,
                keys: broker_keys.clone(),
                ca: ca.public_key(),
                proc_delay: ms(2),
                epsilon: 0.01,
                session_retention: SimDuration::from_secs(86_400),
            },
            rng.fork(),
        );
        let mut brokers = HashMap::new();
        brokers.insert(
            broker_server::BROKER_NAME.to_string(),
            BrokerContact {
                ctrl_ip: BROKER_IP,
                encrypt_pk: broker_keys.encrypt.public_key(),
            },
        );
        let telcos: Vec<Timed<BTelcoGateway>> = telco_keys
            .iter()
            .enumerate()
            .map(|(r, keys)| {
                let gw = BTelcoGateway::new(
                    agw_nodes[r],
                    BTelcoGatewayConfig {
                        sig_ip: agw_sig(r),
                        pool_base: Ipv4Addr::new(10, r as u8 + 1, 0, 0),
                        keys: keys.clone(),
                        ca: ca.public_key(),
                        brokers: brokers.clone(),
                        qos_cap: QosCap {
                            max_mbr_bps: 100_000_000,
                            qci_supported: vec![9],
                            li_capable: true,
                        },
                        proc_delay: us(500),
                        report_interval: SimDuration::from_secs(3_600),
                        overcount_factor: 1.0,
                    },
                    rng.fork(),
                );
                Timed::new(gw, timed)
            })
            .collect();

        let mut ues = Vec::with_capacity(cfg.ues);
        let mut ue_keys = Vec::with_capacity(cfg.ues);
        for i in 0..cfg.ues {
            let home = i % cfg.regions;
            let alt = (home + 1) % cfg.regions;
            let node = t.add_node(&format!("ue{i}"));
            let sig = ue_sig(i);
            let mut radios = [LinkId(0); 2];
            for (k, r) in [home, alt].into_iter().enumerate() {
                let radio = link(&mut t, node, enb_nodes[r], ms(4));
                t.add_route(enb_nodes[r], sig, 32, radio);
                t.add_route(agw_nodes[r], sig, 32, backs[r]);
                radios[k] = radio;
            }
            t.add_default_route(node, radios[0]);
            let keys = UeKeys::generate(&mut rng);
            let (sign_pk, encrypt_pk) = keys.public();
            brokerd.provision(keys.identity(), sign_pk, encrypt_pk, 50_000_000);
            ue_keys.push(keys.clone());
            let dev = UeDevice::new(
                node,
                UeDeviceConfig {
                    ue_sig: sig,
                    keys,
                    broker_name: broker_server::BROKER_NAME.to_string(),
                    broker_sign_pk: broker_keys.sign.verifying_key(),
                    broker_encrypt_pk: broker_keys.encrypt.public_key(),
                    broker_ctrl_ip: BROKER_IP,
                    proc_delay: ms(1),
                    verify_delay: ms(1),
                    report_interval: SimDuration::from_secs(3_600),
                    attach_retry_after: SimDuration::from_secs(600),
                    attach_max_tries: 3,
                    recovery: RecoveryConfig::default(),
                    plane: None,
                },
                rng.fork(),
            );
            ues.push(Ue {
                dev: Timed::new(dev, timed),
                home,
                radios,
                on: 0,
            });
        }

        let enbs = enb_nodes
            .iter()
            .map(|&n| Timed::new(Enb::new(n, us(50)), timed))
            .collect();
        let tickers = (0..cfg.regions)
            .map(|r| {
                let ticker = Ticker {
                    node: tick_nodes[r],
                    src: tick_ip(r),
                    dst: sink_ip(r),
                    next: SimTime::ZERO,
                    stop: SimTime::ZERO,
                    interval: us(cfg.tick_us),
                    sent: 0,
                };
                Timed::new(ticker, timed)
            })
            .collect();
        let sinks = sink_nodes
            .iter()
            .map(|&node| Timed::new(Sink { node, received: 0 }, timed))
            .collect();

        let world = NetWorld::new(t, rng.fork());
        let plan = ShardPlan::by_region(world.topology(), 1);
        let cells = make_cells(world, &plan, seed ^ 0x6369_7479);
        let pop = Population {
            ca,
            broker: broker_keys,
            telco: telco_keys[0].clone(),
            ues: ue_keys,
        };
        Self {
            cells,
            broker: Timed::new(brokerd, timed),
            telcos,
            enbs,
            inet: Timed::new(Router::new(inet, SimDuration::ZERO), timed),
            tickers,
            sinks,
            ues,
            links,
            clock: SimTime::ZERO,
            pop,
        }
    }

    /// Drive every endpoint to `until` on the shard cell's engine.
    fn run_to(&mut self, until: SimTime) {
        let mut eps: Vec<&mut dyn Endpoint> = Vec::with_capacity(self.ues.len() + 16);
        eps.push(&mut self.broker);
        eps.push(&mut self.inet);
        for e in &mut self.telcos {
            eps.push(e);
        }
        for e in &mut self.enbs {
            eps.push(e);
        }
        for e in &mut self.tickers {
            eps.push(e);
        }
        for e in &mut self.sinks {
            eps.push(e);
        }
        for ue in &mut self.ues {
            eps.push(&mut ue.dev);
        }
        let cell = &mut self.cells[0];
        cell.driver.run_to(&mut cell.world, &mut eps, until);
        self.clock = until;
    }

    fn roles(&self) -> RoleClock {
        let mut c = RoleClock::default();
        let mut add = |role: Role, calls: u64, busy: Duration| {
            c.calls[role as usize] += calls;
            c.busy[role as usize] += busy;
        };
        add(Role::Broker, self.broker.calls, self.broker.busy);
        add(Role::Other, self.inet.calls, self.inet.busy);
        for e in &self.telcos {
            add(Role::Telco, e.calls, e.busy);
        }
        for e in &self.enbs {
            add(Role::Enb, e.calls, e.busy);
        }
        for e in &self.tickers {
            add(Role::Other, e.calls, e.busy);
        }
        for e in &self.sinks {
            add(Role::Other, e.calls, e.busy);
        }
        for ue in &self.ues {
            add(Role::Ue, ue.dev.calls, ue.dev.busy);
        }
        c
    }

    /// Point UE `i` at the other of its two regions and return that
    /// region.
    fn switch_radio(&mut self, i: usize) -> usize {
        let regions = self.telcos.len();
        let ue = &mut self.ues[i];
        ue.on ^= 1;
        let node = ue.dev.inner.node();
        self.cells[0]
            .world
            .topology_mut()
            .replace_default_route(node, ue.radios[ue.on]);
        (ue.home + ue.on) % regions
    }

    fn handover(&mut self, i: usize, now: SimTime) {
        let r = self.switch_radio(i);
        self.ues[i]
            .dev
            .inner
            .handover(now, &telco_name(r), agw_sig(r));
    }

    fn attached(&self) -> usize {
        self.ues
            .iter()
            .filter(|u| u.dev.inner.is_attached())
            .count()
    }

    fn attaches(&self) -> u64 {
        self.ues.iter().map(|u| u.dev.inner.attaches).sum()
    }

    fn delivered(&self) -> u64 {
        self.links
            .iter()
            .map(|&l| {
                let s = merged_link_stats(&self.cells, l);
                s.ab_delivered + s.ba_delivered
            })
            .sum()
    }

    fn mismatches(&self) -> u64 {
        let rep = self.broker.inner.reputation();
        (0..self.telcos.len())
            .map(|r| rep.mismatches(Identity::of_name(&telco_name(r))))
            .sum()
    }
}

/// Cities built per session; set-up reports the median build.
const SETUP_REPEATS: usize = 5;
/// The traced ledger: single-request batches (the sim broker's depth),
/// then single requests.
const LEDGER_BATCHES: usize = 64;
const LEDGER_SINGLES: usize = 64;

fn secs(s: f64) -> SimDuration {
    SimDuration::from_secs_f64(s)
}

/// Run one `sim_city` session.
pub fn run(
    cfg: &CityCfg,
    seed: u64,
    seconds: f64,
    trace: bool,
    counts_only: bool,
) -> Result<Json, String> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    // The traced run and the count probe read the program's counters.
    if trace || counts_only {
        telemetry::enable();
    }
    let events = || {
        telemetry::counter("sim.scheduler.events.arrival").get()
            + telemetry::counter("sim.scheduler.events.poll").get()
    };

    // --- Set-up: keys, topology, endpoints, shard cell (CPU and wall) ---
    // The city is built `SETUP_REPEATS` times (each dropped before the
    // next) and the median build reported; the last one is used.
    let mut builds = Vec::with_capacity(SETUP_REPEATS);
    let mut city = None;
    for _ in 0..SETUP_REPEATS {
        drop(city.take());
        let (t0, cpu0) = (Instant::now(), thread_cpu_ns());
        city = Some(City::build(cfg, seed, trace));
        builds.push((thread_cpu_ns() - cpu0, t0.elapsed()));
    }
    let mut city = city.expect("at least one build");
    builds.sort();
    let (setup_cpu, setup) = builds[builds.len() / 2];

    // --- A: attach storm ---
    let roles0 = city.roles();
    let window = CounterWindow::open();
    let alloc_a = alloc::calls();
    let ta = Instant::now();
    for ue in &mut city.ues {
        let r = ue.home;
        ue.dev
            .inner
            .start_attach(SimTime::ZERO, &telco_name(r), agw_sig(r));
    }
    city.run_to(SimTime::ZERO + secs(cfg.storm_sim_s));
    let storm_wall = ta.elapsed();
    let storm = city.roles().since(&roles0);
    let storm_allocs = alloc::calls() - alloc_a;
    let per_attach = |name: &'static str| window.delta(name) / cfg.ues as f64;
    // Whole-stack crypto and allocation per attach in the storm (UE,
    // bTelco and broker together); hit ratios of the process-wide caches.
    let storm_counts = [
        ("crypto.sign_per_auth", per_attach("crypto.sign")),
        ("crypto.seal_per_auth", per_attach("crypto.seal")),
        (
            "crypto.verify_batch.items_per_auth",
            per_attach("crypto.verify_batch.items"),
        ),
        (
            "crypto.verify_batch.items_per_call",
            window.delta("crypto.verify_batch.items")
                / window.delta("crypto.verify_batch").max(1.0),
        ),
        (
            "crypto.keycache.hit_ratio",
            window.ratio("crypto.keycache.hit", "crypto.keycache.miss"),
        ),
        (
            "crypto.dhcache.hit_ratio",
            window.ratio("crypto.dhcache.hit", "crypto.dhcache.miss"),
        ),
        (
            "crypto.sigmemo.hit_ratio",
            window.ratio("crypto.sigmemo.hit", "crypto.sigmemo.miss"),
        ),
        ("alloc.per_auth", storm_allocs as f64 / cfg.ues as f64),
    ];
    let attached_a = city.attached();

    // --- B: steady state with handover churn and background flows ---
    let steady_sim = secs(seconds * cfg.steady_sim_s_per_s);
    let b_start = city.clock;
    let b_end = b_start + steady_sim;
    for tk in &mut city.tickers {
        tk.inner.next = b_start;
        tk.inner.stop = b_end;
    }
    let roles_b = city.roles();
    let (ev_b, alloc_b) = (events(), alloc::calls());
    let packets_b = telemetry::counter("net.world.packets_sent").get();
    let tb = Instant::now();
    let tick = SimDuration::from_millis(cfg.tick_ms);
    let mut next_ue = 0usize;
    let mut handovers = 0u64;
    let mut now = b_start;
    // CPU ns per engine event of each churn tick: many cost samples.
    let mut tick_costs = Vec::new();
    while now + tick <= b_end {
        for _ in 0..cfg.handovers_per_tick {
            city.handover(next_ue % cfg.ues, now);
            next_ue += 1;
            handovers += 1;
        }
        now += tick;
        let (cpu, calls) = (thread_cpu_ns(), city.roles().events());
        city.run_to(now);
        let ran = city.roles().events() - calls;
        if ran > 0 {
            tick_costs.push((thread_cpu_ns() - cpu) as f64 / ran as f64);
        }
    }
    city.run_to(b_end + secs(cfg.settle_sim_s));
    let steady_wall = tb.elapsed();
    let steady = city.roles().since(&roles_b);
    let steady_events = events() - ev_b;
    let steady_allocs = alloc::calls() - alloc_b;
    let steady_packets = telemetry::counter("net.world.packets_sent").get() - packets_b;
    let attached_b = city.attached();
    let attaches_b = city.attaches();

    // --- C: single attaches, one at a time ---
    let probe_window = SimDuration::from_millis(cfg.probe_window_ms);
    let mut single_us = Vec::with_capacity(cfg.probe_attaches);
    let mut single_cpu_us = Vec::with_capacity(cfg.probe_attaches);
    let mut single_missed = 0u64;
    for k in 0..cfg.probe_attaches {
        let i = (next_ue + k) % cfg.ues;
        let now = city.clock;
        // Detach and let the final billing reports settle (not timed).
        city.ues[i].dev.inner.detach(now);
        city.run_to(now + probe_window);
        let now = city.clock;
        let r = city.switch_radio(i);
        city.ues[i]
            .dev
            .inner
            .start_attach(now, &telco_name(r), agw_sig(r));
        let (t, cpu) = (Instant::now(), thread_cpu_ns());
        city.run_to(now + probe_window);
        let (wall, cpu) = (t.elapsed(), thread_cpu_ns() - cpu);
        if city.ues[i].dev.inner.is_attached() {
            single_us.push(wall.as_secs_f64() * 1e6);
            single_cpu_us.push(cpu as f64 / 1e3);
        } else {
            single_missed += 1;
        }
    }
    let single_us = sorted(single_us);

    // --- Checks ---
    let n = cfg.ues as u64;
    let probes = cfg.probe_attaches as u64;
    let cycles = city.broker.inner.cycles_checked;
    let mismatched = city.mismatches();
    let attaches = city.attaches();
    let sent: u64 = city.tickers.iter().map(|t| t.inner.sent).sum();
    let received: u64 = city.sinks.iter().map(|s| s.inner.received).sum();
    let checks = [
        ("check.storm_all_attached", attached_a == cfg.ues),
        (
            "check.handovers_reattached",
            attached_b == cfg.ues && attaches_b == n + handovers,
        ),
        (
            "check.single_attaches",
            single_missed == 0 && attaches == n + handovers + probes,
        ),
        ("check.billing_settled", cycles == handovers + probes),
        ("check.billing_no_mismatch", mismatched == 0),
        ("check.no_refusals", city.broker.inner.auth_err == 0),
        ("check.flows_delivered", sent == received && sent > 0),
    ];
    let failed = (n - attached_a.min(cfg.ues) as u64)
        + (n + handovers).saturating_sub(attaches_b)
        + single_missed;

    let mut json = Json::default();
    for (k, ok) in checks {
        json.boolean(k, ok);
    }
    // Outcomes that must repeat exactly for a seed: run.py compares them
    // across sessions.
    let fingerprint = format!(
        "attaches={attaches} handovers={handovers} cycles={cycles} auth_ok={} \
         delivered={} flow_packets={sent} calls_storm={} calls_steady={}",
        city.broker.inner.auth_ok,
        city.delivered(),
        storm.events(),
        steady.events(),
    );
    json.string("fingerprint", &fingerprint);
    let attempted = n + handovers + probes;
    json.int("attempted", attempted).int("failed", failed);
    json.int("engine.calls_steady", steady.events());
    json.num(
        "alloc.per_event",
        steady_allocs as f64 / steady.events().max(1) as f64,
    );
    if counts_only || trace {
        for (k, v) in storm_counts {
            json.num(k, v);
        }
    }
    if counts_only {
        return Ok(json);
    }

    json.nums("latencies_us", &single_us)
        .num("setup_s", setup_cpu as f64 / 1e9)
        .num("setup.wall_s", setup.as_secs_f64())
        .num("peak_rss_mb", peak_rss_mb())
        .int("sat.served", n)
        .num("sat.window_s", storm_wall.as_secs_f64())
        .nums("cost.slices_us", &single_cpu_us)
        .nums("steady.slices_ns", &tick_costs);
    if trace {
        let per = |d: Duration, k: u64| d.as_secs_f64() * 1e6 / k.max(1) as f64;
        let endpoint_busy = steady.busy_total();
        let self_time = steady_wall.saturating_sub(endpoint_busy);
        json.num("ue.us_per_attach", per(storm.busy[Role::Ue as usize], n))
            .num(
                "btelco.us_per_attach",
                per(storm.busy[Role::Telco as usize], n),
            )
            .num(
                "brokerd.us_per_attach",
                per(storm.busy[Role::Broker as usize], n),
            )
            .num(
                "enb.us_per_event",
                per(
                    steady.busy[Role::Enb as usize],
                    steady.calls[Role::Enb as usize],
                ),
            )
            .int(
                "billing.claims_verified",
                telemetry::counter("core.billing.claims_verified").get(),
            )
            .int(
                "billing.claims_mismatched",
                telemetry::counter("core.billing.claims_mismatched").get(),
            )
            .int(
                "brokerd.sessions_live",
                city.broker.inner.sessions_live() as u64,
            )
            .int("engine.events", steady_events)
            .int("engine.packets_sent", steady_packets)
            .num(
                "engine.self_ns_per_event",
                self_time.as_secs_f64() * 1e9 / steady_events.max(1) as f64,
            )
            .num(
                "engine.events_per_s",
                steady_events as f64 / steady_wall.as_secs_f64().max(1e-9),
            )
            // Self time is the phase's wall time minus the endpoint time, so
            // the two add up to the wall time by definition; what can fail
            // is the adapters missing an engine call.
            .boolean("check.engine_calls_match", steady.events() == steady_events);
        // The SAP ledger over this city's own keys, at the sim broker's
        // depth (it authorizes one request at a time).
        let builder = Builder {
            pop: &city.pop,
            strangers: &[],
            seed,
        };
        let mut cursor = 0usize;
        let l = ledger::run(&builder, &mut cursor, 1, LEDGER_BATCHES, LEDGER_SINGLES)?;
        for (k, v) in &l.metrics {
            json.num(k, *v);
        }
        json.boolean(
            "check.stage_sum",
            (l.stage_sum_ratio - 1.0).abs() <= ledger::STAGE_SUM_TOLERANCE,
        );
        telemetry::disable();
    }
    json.int("stamp.nproc", threads as u64)
        .int("stamp.shards", 1)
        .int("stamp.regions", cfg.regions as u64)
        .int("stamp.subscribers", n)
        .num("stamp.steady_sim_s", steady_sim.as_secs_f64())
        .int("stamp.handovers", handovers);
    Ok(json)
}
