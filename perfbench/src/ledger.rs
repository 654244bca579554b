//! The traced per-layer ledger of the broker's request path, and the
//! deterministic count probe.
//!
//! The ledger replays one stream of fresh requests through
//! `BrokerServer::process_batch` and a second one, of the same shape,
//! through the public stage functions `process_batch` is built from
//! (decode → pre_open → open_batch → post_open → verify_batch → grant →
//! encode), each at the same batch depth, and checks that the stages add
//! up to the whole. The replies of the first stream are then verified the
//! way a bTelco and a UE verify them, which times those two steps too.

use crate::alloc;
use crate::stream::{Builder, Hostile, Item};
use cellbricks_core::broker_server::Population;
use cellbricks_core::brokerd::BrokerWire;
use cellbricks_core::principal::Identity;
use cellbricks_core::sap::{self, AuthReqT, BrokerReply, SubscriberEntry};
use cellbricks_crypto::{open_batch, verify_batch};
use cellbricks_net::wire::{frame, unframe};
use cellbricks_sim::SimRng;
use cellbricks_telemetry as telemetry;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Stream phases the ledger and the probe build under (request ids of
/// different phases never collide).
const PHASE_BATCHED: u32 = 4;
const PHASE_SINGLE: u32 = 5;
const PHASE_STAGES: u32 = 6;
const PHASE_PROBE: u32 = 7;

/// How far the stages may stray from `process_batch` per auth.
pub const STAGE_SUM_TOLERANCE: f64 = 0.15;

fn us_per(d: Duration, n: usize) -> f64 {
    d.as_secs_f64() * 1e6 / n.max(1) as f64
}

/// Feed `items` to `server` in batches of `depth`, appending the replies
/// to `out`; returns the time spent inside `process_batch`.
fn replay(
    server: &mut cellbricks_core::BrokerServer,
    items: &[Item],
    depth: usize,
    out: &mut Vec<(usize, Vec<u8>)>,
) -> Duration {
    let mut spent = Duration::ZERO;
    for chunk in items.chunks(depth) {
        let dgrams: Vec<(usize, &[u8])> = chunk.iter().map(|it| (0, &it.dgram[..])).collect();
        let t0 = Instant::now();
        server.process_batch(&dgrams, out);
        spent += t0.elapsed();
    }
    spent
}

/// Verify one `AuthOk` datagram as the bTelco and then the UE would.
/// Returns the time of each step, or `None` if any check fails.
pub fn verify_reply(pop: &Population, item: &Item, dgram: &[u8]) -> Option<(Duration, Duration)> {
    let payload = unframe(dgram).ok()?;
    let Some(BrokerWire::AuthOk { reply, .. }) = BrokerWire::decode(payload) else {
        return None;
    };
    let reply = BrokerReply::decode(&reply)?;
    let t0 = Instant::now();
    let body_t = sap::telco_verify_reply(&pop.telco, &pop.ca.public_key(), &reply).ok()?;
    let t1 = Instant::now();
    let ue = &pop.ues[item.ue];
    let body_u = sap::ue_verify_response(
        ue,
        &pop.broker.sign.verifying_key(),
        &item.nonce,
        pop.telco.identity(),
        &reply.resp_u,
    )
    .ok()?;
    let t2 = Instant::now();
    let consistent = body_t.session_id == body_u.session_id
        && body_t.ss == body_u.ss
        && body_u.id_u == ue.identity()
        && body_t.id_t == pop.telco.identity();
    consistent.then_some((t1 - t0, t2 - t1))
}

/// The ledger's results, by metric name.
pub struct Ledger {
    pub metrics: Vec<(&'static str, f64)>,
    /// Stage sum over `process_batch`, per auth.
    pub stage_sum_ratio: f64,
}

/// Run the ledger at batch depth `depth` over `batches` batches, plus
/// `singles` one-request batches, against a fresh inline server (no
/// worker pool, so `process_batch` and the stages run on one thread, as
/// `crates/core/tests/phase_timing.rs` does). Whole batches and staged
/// batches interleave, so both see the same machine. Fails if any
/// request is refused or any reply fails verification.
pub fn run(
    builder: &Builder<'_>,
    cursor: &mut usize,
    depth: usize,
    batches: usize,
    singles: usize,
) -> Result<Ledger, String> {
    let pop = builder.pop;
    let depth = depth.max(1);
    let n = depth * batches;
    // Both streams come from the same subscribers in the same order, and
    // which of the two sees a subscriber first alternates by batch, so
    // neither side is favoured by what the other left in the caches.
    let mut same = *cursor;
    let (batched, cost) = builder.stream(PHASE_BATCHED, n, cursor, Hostile::default(), 0, 1);
    let (staged, _) = builder.stream(PHASE_STAGES, n, &mut same, Hostile::default(), 0, 1);
    let (single, _) = builder.stream(PHASE_SINGLE, singles, cursor, Hostile::default(), 0, 1);
    let mut server = pop.server(SimRng::new(builder.seed ^ 0x6c65_6467));
    let mut stages = Stages::new(pop, builder.seed);

    let mut replies = Vec::with_capacity(n);
    let mut whole = Duration::ZERO;
    for (i, (b, s)) in batched.chunks(depth).zip(staged.chunks(depth)).enumerate() {
        if i % 2 == 1 {
            stages.batch(s)?;
        }
        whole += replay(&mut server, b, depth, &mut replies);
        if i % 2 == 0 {
            stages.batch(s)?;
        }
    }
    let alone = replay(&mut server, &single, 1, &mut Vec::new());
    if server.counters.served_auths != (n + singles) as u64 {
        return Err(format!(
            "ledger: {} of {} replayed requests served",
            server.counters.served_auths,
            n + singles
        ));
    }
    let mut telco_verify = Duration::ZERO;
    let mut ue_verify = Duration::ZERO;
    for (item, (_, dgram)) in batched.iter().zip(&replies) {
        let (t, u) = verify_reply(pop, item, dgram)
            .ok_or("ledger: a replayed reply failed bTelco/UE verification")?;
        telco_verify += t;
        ue_verify += u;
    }

    let per_auth = us_per(whole, n);
    let stage = |i: usize| us_per(stages.spent[i], n);
    let stage_sum: f64 = (0..STAGES).map(stage).sum();
    let stage_sum_ratio = stage_sum / per_auth;
    let metrics = vec![
        ("broker_server.process_batch_us_per_auth", per_auth),
        (
            "broker_server.process_batch_us_single",
            us_per(alone, singles),
        ),
        ("broker_server.stage_sum_ratio", stage_sum_ratio),
        ("sap.decode_us", stage(DECODE)),
        ("sap.pre_open_us", stage(PRE_OPEN)),
        ("sap.post_open_us", stage(POST_OPEN)),
        ("sap.grant_us", stage(GRANT)),
        ("sap.encode_us", stage(ENCODE)),
        (
            "sap.ue_build_us",
            us_per(cost.ue_build, cost.built as usize),
        ),
        (
            "sap.telco_wrap_us",
            us_per(cost.telco_wrap, cost.built as usize),
        ),
        ("sap.telco_verify_us", us_per(telco_verify, n)),
        ("sap.ue_verify_us", us_per(ue_verify, n)),
        ("crypto.open_batch_us_per_item", stage(OPEN_BATCH)),
        ("crypto.verify_batch_us_per_sig", stage(VERIFY_BATCH) / 3.0),
    ];
    Ok(Ledger {
        metrics,
        stage_sum_ratio,
    })
}

/// The stages `process_batch` is built from, in order.
const DECODE: usize = 0;
const PRE_OPEN: usize = 1;
const OPEN_BATCH: usize = 2;
const POST_OPEN: usize = 3;
const VERIFY_BATCH: usize = 4;
const GRANT: usize = 5;
const ENCODE: usize = 6;
const STAGES: usize = 7;

/// Replays batches through the public stage functions on the calling
/// thread, accumulating the time of each stage.
struct Stages<'a> {
    pop: &'a Population,
    entries: HashMap<Identity, SubscriberEntry>,
    grant_rng: SimRng,
    spent: [Duration; STAGES],
}

impl<'a> Stages<'a> {
    fn new(pop: &'a Population, seed: u64) -> Self {
        let entries = pop
            .ues
            .iter()
            .map(|ue| {
                let (sign_pk, encrypt_pk) = ue.public();
                let entry = SubscriberEntry {
                    sign_pk,
                    encrypt_pk,
                    plan_mbr_bps: 50_000_000,
                    suspect: false,
                    alias: 1,
                    lawful_intercept: false,
                };
                (ue.identity(), entry)
            })
            .collect();
        Self {
            pop,
            entries,
            grant_rng: SimRng::new(seed ^ 0x6772_616e),
            spent: [Duration::ZERO; STAGES],
        }
    }

    fn batch(&mut self, chunk: &[Item]) -> Result<(), String> {
        let keys = &self.pop.broker;
        let ca = self.pop.ca.public_key();
        let entries = &self.entries;
        let lookup = |id| entries.get(&id).cloned();
        let telco_ok = |_| true;
        let t0 = Instant::now();
        let reqs: Vec<(u64, AuthReqT)> = chunk
            .iter()
            .filter_map(|it| match BrokerWire::decode(unframe(&it.dgram).ok()?) {
                Some(BrokerWire::AuthReq { req_id, req_t }) => {
                    Some((req_id, AuthReqT::decode(&req_t)?))
                }
                _ => None,
            })
            .collect();
        let t1 = Instant::now();
        let pre: Vec<Identity> = reqs
            .iter()
            .filter_map(|(_, r)| sap::broker_precheck_pre_open(keys, r))
            .collect();
        let t2 = Instant::now();
        let boxes: Vec<_> = reqs.iter().map(|(_, r)| &r.req_u.sealed_vec).collect();
        let opened = open_batch(&keys.encrypt, &boxes);
        let t3 = Instant::now();
        let checked: Vec<_> = reqs
            .iter()
            .zip(&pre)
            .zip(&opened)
            .filter_map(|(((_, r), id_t), bytes)| {
                sap::broker_precheck_post_open(
                    keys.identity(),
                    &ca,
                    r,
                    *id_t,
                    bytes.as_ref().ok()?,
                    &lookup,
                    &telco_ok,
                )
            })
            .collect();
        let t4 = Instant::now();
        let sigs: Vec<_> = checked.iter().flat_map(|(_, _, m)| m.items()).collect();
        let verified = verify_batch(&sigs);
        let t5 = Instant::now();
        let jobs: Vec<sap::GrantJob<'_>> = reqs
            .iter()
            .zip(&checked)
            .enumerate()
            .map(|(i, ((_, req), (vec, entry, _)))| sap::GrantJob {
                req,
                vec,
                entry,
                session_id: i as u64 + 1,
            })
            .collect();
        let granted = sap::broker_grant_batch(keys, &jobs, &mut self.grant_rng);
        let t6 = Instant::now();
        let encoded: Vec<Vec<u8>> = reqs
            .iter()
            .zip(&granted)
            .map(|((req_id, _), (reply, _, _))| {
                frame(
                    &BrokerWire::AuthOk {
                        req_id: *req_id,
                        reply: reply.encode(),
                    }
                    .encode(),
                )
            })
            .collect();
        let t7 = Instant::now();
        if !verified || encoded.len() != chunk.len() || checked.len() != chunk.len() {
            return Err("ledger: a stage refused a valid request".into());
        }
        let marks = [t0, t1, t2, t3, t4, t5, t6, t7];
        for (i, spent) in self.spent.iter_mut().enumerate() {
            *spent += marks[i + 1] - marks[i];
        }
        Ok(())
    }
}

/// Counter deltas over a traced window.
pub struct CounterWindow(Vec<(&'static str, u64)>);

const TRACED_COUNTERS: [&str; 10] = [
    "crypto.sign",
    "crypto.seal",
    "crypto.keycache.hit",
    "crypto.keycache.miss",
    "crypto.dhcache.hit",
    "crypto.dhcache.miss",
    "crypto.sigmemo.hit",
    "crypto.sigmemo.miss",
    "crypto.verify_batch",
    "crypto.verify_batch.items",
];

impl CounterWindow {
    pub fn open() -> Self {
        Self(
            TRACED_COUNTERS
                .iter()
                .map(|&n| (n, telemetry::counter(n).get()))
                .collect(),
        )
    }

    pub fn delta(&self, name: &'static str) -> f64 {
        let (_, v0) = self
            .0
            .iter()
            .find(|(n, _)| *n == name)
            .expect("tracked counter");
        (telemetry::counter(name).get() - v0) as f64
    }

    pub fn ratio(&self, hit: &'static str, miss: &'static str) -> f64 {
        let (h, m) = (self.delta(hit), self.delta(miss));
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }
}

/// The count probe's requests, and the batch depth they are fed at.
const PROBE_REQUESTS: usize = 256;
const PROBE_DEPTH: usize = 16;

/// Deterministic counts per served auth: Ed25519 signs, sealed-box seals,
/// verify-batch items, and allocator calls, over `PROBE_REQUESTS` fresh
/// requests fed to a fresh server in batches of `PROBE_DEPTH`. Nothing
/// else may run while the probe does, since the allocator and the
/// telemetry counters are process-wide.
pub fn probe_counts(
    builder: &Builder<'_>,
    cursor: &mut usize,
    workers: usize,
) -> Result<Vec<(&'static str, f64)>, String> {
    let n = PROBE_REQUESTS;
    let (items, _) = builder.stream(PHASE_PROBE, n, cursor, Hostile::default(), 0, 1);
    let mut server = builder
        .pop
        .server_with_workers(SimRng::new(builder.seed ^ 0x7072_6f62), workers);
    let was_enabled = telemetry::is_enabled();
    telemetry::enable();
    let count = |name: &'static str| telemetry::counter(name).get();
    let names = [
        "crypto.sign",
        "crypto.seal",
        "crypto.verify_batch.items",
        "crypto.verify_batch",
    ];
    let before: Vec<u64> = names.iter().map(|s| count(s)).collect();
    let alloc0 = alloc::calls();
    replay(&mut server, &items, PROBE_DEPTH, &mut Vec::new());
    let allocs = alloc::calls() - alloc0;
    let delta: Vec<f64> = names
        .iter()
        .zip(&before)
        .map(|(s, b)| (count(s) - b) as f64)
        .collect();
    if !was_enabled {
        telemetry::disable();
    }
    let served = server.counters.served_auths as f64;
    if served as usize != n {
        return Err(format!("count probe: {served} of {n} requests served"));
    }
    Ok(vec![
        ("crypto.sign_per_auth", delta[0] / served),
        ("crypto.seal_per_auth", delta[1] / served),
        ("crypto.verify_batch.items_per_auth", delta[2] / served),
        ("alloc.per_auth", allocs as f64 / served),
    ])
}
