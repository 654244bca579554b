//! The brokerd wire workloads: `broker_server::serve` on loopback UDP at
//! the daemon's default worker count, loaded from this process.
//!
//! One session: set up (keys, provisioning, server start, warm-up), then
//! an open Poisson phase at a fixed light rate (latency, timed from each
//! request's due time), then a closed phase with a fixed number of
//! requests in flight (capacity). Every reply is checked against the
//! outcome its request must get; a sample of `AuthOk` replies is verified
//! the way the bTelco and the UE verify them.

use crate::ledger::{self, CounterWindow};
use crate::stream::{
    poisson_dues, pump, Builder, Hostile, Item, Kind, Mode, PumpOut, Slicer, VERIFY_EVERY,
};
use crate::util::{peak_rss_mb, percentile, sorted, threads_cpu_ns, Json, Params};
use cellbricks_core::broker_server::{self, population, ServeConfig};
use cellbricks_core::principal::UeKeys;
use cellbricks_sim::SimRng;
use cellbricks_telemetry as telemetry;
use std::net::UdpSocket;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Stream phase numbers (they become the high half of request ids).
const PHASE_WARM: u32 = 0;
const PHASE_OPEN: u32 = 1;
const PHASE_CLOSED: u32 = 2;

/// A replayed request repeats the nonce of the request this many before it.
const REPLAY_LAG: usize = 400;
/// Closed-loop requests pre-built per second of window: a ceiling above
/// any throughput this service reaches, so the window never runs dry.
const CLOSED_BUILD_PER_S: f64 = 5000.0;
/// One cost sample per slice of the send window.
const SLICE: Duration = Duration::from_millis(250);
/// The traced ledger: batches at the observed depth, then single requests.
const LEDGER_BATCHES: usize = 32;
const LEDGER_SINGLES: usize = 64;

/// A wire workload's fixed protocol (from `protocol.json`).
pub struct WireCfg {
    ues: usize,
    strangers: usize,
    warmup: usize,
    rate: f64,
    open_share: f64,
    inflight: usize,
    hostile: Hostile,
}

impl WireCfg {
    pub fn from_params(p: &Params) -> Result<Self, String> {
        Ok(Self {
            ues: p.usize("ues")?,
            strangers: p.usize("strangers")?,
            warmup: p.usize("warmup_requests")?,
            rate: p.f64("open_rate_per_s")?,
            open_share: p.f64("open_share")?,
            inflight: p.usize("closed_inflight")?,
            hostile: Hostile {
                replay: p.usize("hostile_replay_permille")? as u32,
                bad_ue_sig: p.usize("hostile_bad_ue_sig_permille")? as u32,
                bad_telco_sig: p.usize("hostile_bad_telco_sig_permille")? as u32,
                unknown: p.usize("hostile_unknown_user_permille")? as u32,
                garbage: p.usize("hostile_garbage_permille")? as u32,
            },
        })
    }
}

/// Outcome tally of one generator pass.
#[derive(Default)]
struct Tally {
    attempted: u64,
    /// Valid requests unanswered by the deadline.
    unanswered: u64,
    /// Requests that got a reply other than the one they must get, and
    /// hostile requests refused with no reply at all.
    wrong: u64,
    garbage_sent: u64,
    verified: u64,
    verify_failed: u64,
}

impl Tally {
    fn add(&mut self, pop: &broker_server::Population, items: &[Item], out: &PumpOut) {
        for (i, item) in items.iter().enumerate() {
            if out.sent[i].is_none() && out.due[i].is_none() {
                continue; // never issued: past the closed window
            }
            self.attempted += 1;
            let answer = out.answers[i].as_ref().map(|a| &a.result);
            match (item.kind, answer) {
                (Kind::Garbage, None) => self.garbage_sent += u64::from(out.sent[i].is_some()),
                (Kind::Garbage, Some(_)) => self.wrong += 1,
                (Kind::Valid, None) => self.unanswered += 1,
                (_, None) => self.wrong += 1,
                (Kind::Valid, Some(Ok(dgram))) => {
                    if i % VERIFY_EVERY == 0 {
                        if ledger::verify_reply(pop, item, dgram).is_some() {
                            self.verified += 1;
                        } else {
                            self.verify_failed += 1;
                        }
                    }
                }
                (kind, Some(Err(code))) if kind.expected_code() == Some(*code) => {}
                (_, Some(_)) => self.wrong += 1,
            }
        }
    }
}

/// Latency of each answered valid open-loop request, from its due time, µs.
fn open_latencies(items: &[Item], out: &PumpOut) -> Vec<f64> {
    items
        .iter()
        .enumerate()
        .filter(|(_, it)| it.kind == Kind::Valid)
        .filter_map(|(i, _)| match (&out.answers[i], out.due[i]) {
            (Some(a), Some(due)) if a.result.is_ok() => Some((a.at - due).as_secs_f64() * 1e6),
            _ => None,
        })
        .collect()
}

/// Valid requests answered `AuthOk` between the first send and the end of
/// the send window, and that window in seconds.
fn closed_served(items: &[Item], out: &PumpOut) -> (usize, f64) {
    let end = out.stop;
    let ok = items
        .iter()
        .zip(&out.answers)
        .filter(|(it, a)| {
            it.kind == Kind::Valid && a.as_ref().is_some_and(|a| a.result.is_ok() && a.at <= end)
        })
        .count();
    (ok, (end - out.start).as_secs_f64())
}

/// Mean crypto-worker utilization over a window, from the server's
/// cumulative per-worker `util_permille` gauges (busy share since the
/// pool started) read at both ends.
struct UtilWindow {
    at: Instant,
    permille: Vec<i64>,
}

impl UtilWindow {
    fn read(workers: usize) -> Vec<i64> {
        (0..workers)
            .map(|i| telemetry::gauge(format!("brokerd.worker{i}.util_permille")).get())
            .collect()
    }

    fn open(workers: usize) -> Self {
        Self {
            at: Instant::now(),
            permille: Self::read(workers),
        }
    }

    /// Busy permille per worker over the window, averaged over workers.
    fn close(&self, pool_born: Instant) -> f64 {
        let now = Instant::now();
        let (t0, t1) = (
            (self.at - pool_born).as_secs_f64(),
            (now - pool_born).as_secs_f64(),
        );
        let end = Self::read(self.permille.len());
        let busy: f64 = end
            .iter()
            .zip(&self.permille)
            .map(|(&g1, &g0)| (g1 as f64 * t1 - g0 as f64 * t0) / (t1 - t0).max(1e-9))
            .sum();
        busy / self.permille.len().max(1) as f64
    }
}

/// The server's threads: the serve loop and its crypto workers.
const SERVER_THREADS: [&str; 2] = ["perfbench-serve", "brokerd-crypto-"];

/// Per-slice cost, `scale` × CPU ns per reply, over slices with replies.
fn slice_costs(out: &PumpOut, scale: f64) -> Vec<f64> {
    out.slices
        .iter()
        .filter(|(_, replies)| *replies > 0)
        .map(|&(cpu, replies)| scale * cpu as f64 / replies as f64)
        .collect()
}

/// Run one wire session. `trace` adds the traced phases and the ledger.
pub fn run(
    cfg: &WireCfg,
    seed: u64,
    seconds: f64,
    trace: bool,
    counts_only: bool,
) -> Result<Json, String> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = broker_server::default_workers();
    let io = |e: std::io::Error| e.to_string();

    // --- Set-up: keys, provisioning, server start (timed) ---
    // Set-up is charged in CPU time of every thread of the process (see
    // protocol.json); its wall time is reported alongside.
    let t0 = Instant::now();
    let cpu0 = threads_cpu_ns(&[""]);
    let pop = population(seed, cfg.ues);
    let mut srng = SimRng::new(seed ^ 0x7374_7261);
    let strangers: Vec<UeKeys> = (0..cfg.strangers)
        .map(|_| UeKeys::generate(&mut srng))
        .collect();
    let pool_born = Instant::now();
    let server = pop.server_with_workers(SimRng::new(seed ^ 0x7365_7276), workers);
    let sock = UdpSocket::bind(("127.0.0.1", 0)).map_err(io)?;
    let addr = sock.local_addr().map_err(io)?;
    let stop = Arc::new(AtomicBool::new(false));
    let serve_thread = {
        let stop = Arc::clone(&stop);
        let mut server = server;
        std::thread::Builder::new()
            .name("perfbench-serve".into())
            .spawn(move || {
                broker_server::serve(&mut server, &sock, &stop, &ServeConfig::default())
                    .map(|()| server)
            })
            .map_err(io)?
    };
    let mut setup = t0.elapsed();
    let mut setup_cpu = threads_cpu_ns(&[""]) - cpu0;
    let result = (|| {
        let builder = Builder {
            pop: &pop,
            strangers: &strangers,
            seed,
        };
        let mut cursor = 0usize;
        let server_cpu = || threads_cpu_ns(&SERVER_THREADS);
        let slicer = Slicer {
            every: SLICE,
            cpu_ns: &server_cpu,
        };

        // --- Warm-up (timed into set-up; its pre-build is not) ---
        let tb = Instant::now();
        let (warm, _) = builder.stream(
            PHASE_WARM,
            cfg.warmup,
            &mut cursor,
            Hostile::default(),
            0,
            threads,
        );
        let mut build = tb.elapsed();
        let tw = Instant::now();
        let cpu_w = threads_cpu_ns(&[""]);
        let closed = |inflight, window| Mode::Closed { inflight, window };
        let w = pump(
            addr,
            &warm,
            &closed(cfg.inflight, Duration::from_secs(120)),
            &slicer,
        )
        .map_err(io)?;
        setup += tw.elapsed();
        setup_cpu += threads_cpu_ns(&[""]) - cpu_w;
        let warm_ok = w
            .answers
            .iter()
            .filter(|a| a.as_ref().is_some_and(|a| a.result.is_ok()))
            .count();
        if warm_ok != warm.len() {
            return Err(format!(
                "warm-up: {warm_ok} of {} requests served",
                warm.len()
            ));
        }

        let mut json = Json::default();
        if trace || counts_only {
            for (k, v) in ledger::probe_counts(&builder, &mut cursor, workers)? {
                json.num(k, v);
            }
            if counts_only {
                return Ok((json, Tally::default(), true));
            }
        }

        // --- Pre-build the measured streams (not timed) ---
        let open_window = Duration::from_secs_f64(seconds * cfg.open_share);
        let closed_window = Duration::from_secs_f64(seconds * (1.0 - cfg.open_share));
        let dues = poisson_dues(cfg.rate, open_window, seed);
        let tb = Instant::now();
        let (open_items, _) = builder.stream(
            PHASE_OPEN,
            dues.len(),
            &mut cursor,
            cfg.hostile,
            REPLAY_LAG,
            threads,
        );
        let closed_n = (closed_window.as_secs_f64() * CLOSED_BUILD_PER_S).ceil() as usize;
        let (closed_items, _) = builder.stream(
            PHASE_CLOSED,
            closed_n,
            &mut cursor,
            cfg.hostile,
            REPLAY_LAG,
            threads,
        );
        build += tb.elapsed();

        // --- Open loop at a fixed rate ---
        // The traced run turns the program's telemetry on for both phases.
        if trace {
            telemetry::enable();
        }
        let open = pump(addr, &open_items, &Mode::Open { due: dues }, &slicer).map_err(io)?;
        // Memory after a fixed amount of work: how much the closed loop
        // gets through, and so how full it leaves the caches, depends on
        // throughput.
        let rss = peak_rss_mb();

        // --- Closed loop with a fixed number in flight ---
        let traced = trace.then(|| {
            let util = UtilWindow::open(workers);
            telemetry::global().reset();
            (util, CounterWindow::open())
        });
        let closed_out = pump(
            addr,
            &closed_items,
            &closed(cfg.inflight, closed_window),
            &slicer,
        )
        .map_err(io)?;
        let snap =
            |name: &'static str| telemetry::HistSummary::of(&telemetry::histogram(name).snapshot());
        let traced = traced.map(|(util, window)| {
            let closed = (
                util.close(pool_born),
                snap("brokerd.batch_size"),
                snap("brokerd.batch_wait_ns"),
            );
            telemetry::disable();
            (closed, window)
        });

        let mut tally = Tally::default();
        tally.add(&pop, &open_items, &open);
        tally.add(&pop, &closed_items, &closed_out);
        let lat = sorted(open_latencies(&open_items, &open));
        let (served, window_s) = closed_served(&closed_items, &closed_out);
        let retransmits = open.retransmits + closed_out.retransmits;

        // Cost samples, one per slice; run.py takes the median over the
        // run's sessions.
        json.num("peak_rss_mb", rss)
            .nums("latencies_us", &lat)
            .int("sat.served", served as u64)
            .num("sat.window_s", window_s)
            .nums("cost.slices_us", &slice_costs(&closed_out, 1e-3))
            .nums("steady.slices_ns", &slice_costs(&open, 1.0));
        if let Some(((util, batch, wait), window)) = traced {
            let lag = sorted(open.lag_us.clone());
            let calls = window.delta("crypto.verify_batch");
            json.num("loadgen.lag_us_p99", percentile(&lag, 99.0))
                .num("loadgen.build_s", build.as_secs_f64())
                .int("loadgen.retransmits", retransmits)
                .int("broker_server.batch_size_p50", batch.p50)
                .int("broker_server.batch_size_p99", batch.p99)
                .num("broker_server.batch_wait_us_p99", wait.p99 as f64 / 1e3)
                .num("broker_server.worker_util_permille", util)
                .num(
                    "crypto.keycache.hit_ratio",
                    window.ratio("crypto.keycache.hit", "crypto.keycache.miss"),
                )
                .num(
                    "crypto.dhcache.hit_ratio",
                    window.ratio("crypto.dhcache.hit", "crypto.dhcache.miss"),
                )
                .num(
                    "crypto.sigmemo.hit_ratio",
                    window.ratio("crypto.sigmemo.hit", "crypto.sigmemo.miss"),
                )
                .num(
                    "crypto.verify_batch.items_per_call",
                    window.delta("crypto.verify_batch.items") / calls.max(1.0),
                );
            let depth = batch.p50.max(1) as usize;
            let l = ledger::run(&builder, &mut cursor, depth, LEDGER_BATCHES, LEDGER_SINGLES)?;
            for (k, v) in &l.metrics {
                json.num(k, *v);
            }
            json.boolean(
                "check.stage_sum",
                (l.stage_sum_ratio - 1.0).abs() <= ledger::STAGE_SUM_TOLERANCE,
            );
            json.int("ledger.depth", depth as u64);
        }
        json.int("loadgen.retransmits_timed", retransmits);
        Ok((json, tally, false))
    })();

    stop.store(true, Ordering::SeqCst);
    let server = serve_thread
        .join()
        .map_err(|_| "serve thread panicked".to_string())?
        .map_err(io)?;
    let (mut json, tally, counts_only_done) = result?;
    if counts_only_done {
        return Ok(json);
    }
    let bad_frames = server.counters.bad_frames;
    let failed = tally.unanswered + tally.wrong + tally.verify_failed;
    json.num("setup_s", setup_cpu as f64 / 1e9)
        .num("setup.wall_s", setup.as_secs_f64())
        .int("attempted", tally.attempted)
        .int("failed", failed)
        .boolean("check.outcomes", tally.wrong == 0)
        .boolean(
            "check.replies_verified",
            tally.verify_failed == 0 && tally.verified > 0,
        )
        .boolean("check.bad_frames", bad_frames == tally.garbage_sent)
        .int("broker_server.bad_frames", bad_frames)
        .int("broker_server.refused", server.counters.auth_errs)
        .int("stamp.workers", workers as u64)
        .int("stamp.nproc", threads as u64)
        .int("stamp.subscribers", cfg.ues as u64)
        .num("stamp.open_rate_per_s", cfg.rate)
        .int("stamp.closed_inflight", cfg.inflight as u64)
        .num("stamp.open_window_s", seconds * cfg.open_share)
        .num("stamp.closed_window_s", seconds * (1.0 - cfg.open_share))
        .int("verified_replies", tally.verified);
    Ok(json)
}
