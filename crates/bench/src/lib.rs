//! Shared helpers for the experiment binaries that regenerate the paper's
//! tables and figures. One binary per table/figure:
//!
//! | binary | reproduces |
//! |--------|------------|
//! | `exp_fig7` | Fig. 7 — attach latency breakdown, BL vs CB |
//! | `exp_table1` | Table 1 — application performance matrix |
//! | `exp_fig8` | Fig. 8 — throughput timeseries across a handover |
//! | `exp_fig9` | Fig. 9 — attach-latency factor analysis |
//! | `exp_fig10` | Fig. 10 — day vs night rate policing |
//! | `exp_reputation` | §4.3 extension — cheating-bTelco detection |
//!
//! Run with `--release`; the Table 1 matrix simulates hours of drive time.

// `deny` rather than the workspace-wide `forbid`: the alloc-counting
// global allocator below is the one sanctioned unsafe block in the
// benchmark harness (GlobalAlloc is an unsafe trait by definition).
#![deny(unsafe_code)]
#![warn(missing_docs)]

use cellbricks_apps::emulation::{run, Arch, DriveOutcome, EmulationConfig, Workload};
use cellbricks_core::BrokerServer;
use cellbricks_net::TimeOfDay;
use cellbricks_ran::RouteKind;
use cellbricks_sim::{SimDuration, SimRng};
use cellbricks_telemetry as telemetry;

pub mod alloc_count;

/// Every binary and bench in this crate allocates through the counting
/// allocator, so any experiment can report `alloc.count` / `alloc.bytes`
/// per phase (see [`alloc_count`]). Overhead is two relaxed atomic adds
/// per allocation — invisible next to the allocation itself.
#[global_allocator]
static GLOBAL_ALLOC: alloc_count::CountingAllocator = alloc_count::CountingAllocator;

/// Parse a `--duration <secs>` style flag from argv, with a default.
#[must_use]
pub fn arg_secs(flag: &str, default: u64) -> u64 {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Parse a `--seed <n>` style flag.
#[must_use]
pub fn arg_u64(flag: &str, default: u64) -> u64 {
    arg_secs(flag, default)
}

/// Parse a `--listen <addr>` style flag with a string value.
#[must_use]
pub fn arg_str(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// True when a bare `--flag` is present in argv.
#[must_use]
pub fn arg_flag(flag: &str) -> bool {
    std::env::args().any(|a| a == flag)
}

/// The `CELLBRICKS_SHARDS` engine knob: how many shards the scale
/// experiments split the topology into. Defaults to 1. Results do not
/// depend on it — every shard count runs the same determinism class —
/// only the wall-clock speed does.
#[must_use]
pub fn env_shards() -> usize {
    std::env::var("CELLBRICKS_SHARDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1)
}

/// Render one horizontal rule matching a header width.
#[must_use]
pub fn rule(width: usize) -> String {
    "-".repeat(width)
}

/// Switch the global telemetry registry on for an experiment binary.
///
/// Every `exp_*` binary calls this first: recording is enabled unless the
/// environment sets `CELLBRICKS_TELEMETRY=off` (the knob used to measure
/// the instrumentation's disabled-mode overhead). Returns whether
/// recording is on.
pub fn telemetry_init() -> bool {
    let off = std::env::var("CELLBRICKS_TELEMETRY")
        .map(|v| v.eq_ignore_ascii_case("off") || v == "0")
        .unwrap_or(false);
    if !off {
        cellbricks_telemetry::enable();
    }
    cellbricks_telemetry::is_enabled()
}

/// Export the experiment's telemetry: `results/<exp>.metrics.json` (flat
/// counters/gauges/histogram summaries) and `results/<exp>.trace.json`
/// (chrome://tracing). No-op when recording is disabled. Paths may be
/// redirected with `CELLBRICKS_RESULTS_DIR`.
pub fn telemetry_finish(exp: &str) {
    if !cellbricks_telemetry::is_enabled() {
        return;
    }
    let dir = std::env::var("CELLBRICKS_RESULTS_DIR").unwrap_or_else(|_| "results".into());
    let reg = cellbricks_telemetry::global();
    let metrics = format!("{dir}/{exp}.metrics.json");
    let trace = format!("{dir}/{exp}.trace.json");
    match reg.write_metrics_json(&metrics) {
        Ok(()) => eprintln!("{exp}: wrote {metrics}"),
        Err(e) => eprintln!("{exp}: failed to write {metrics}: {e}"),
    }
    match reg.write_chrome_trace(&trace) {
        Ok(()) => eprintln!("{exp}: wrote {trace}"),
        Err(e) => eprintln!("{exp}: failed to write {trace}: {e}"),
    }
}

/// The grant RNG of the wire server that `brokerd` runs and
/// `exp_brokerd` measures. Key material comes from the seed's population
/// (`broker_server::population`); this stream draws only the grants.
#[must_use]
pub fn grant_rng(seed: u64) -> SimRng {
    SimRng::new(seed ^ 0x6b72_6f6b)
}

/// Print a wire server's statistics after its serve loop returns: its
/// counters; the batch window and worker pool behind them, where a
/// scaling regression reads as starved workers or a collapsed window;
/// and the process-global crypto caches the server shares across
/// connections, whose hit rates explain served-auth/s.
pub fn print_server_stats(server: &BrokerServer) {
    let c = server.counters;
    println!(
        "server: {} served · {} refused · {} bad frames · {} reports · {} batches",
        c.served_auths, c.auth_errs, c.bad_frames, c.wire_reports, c.batches
    );
    let [batch, wait, depth] = ["batch_size", "batch_wait_ns", "queue_depth"]
        .map(|name| telemetry::histogram(format!("brokerd.{name}")).snapshot());
    println!(
        "pipeline: batch size p50 {} p99 {} max {} · batch wait p50 {} us p99 {} us · \
         window {} us · queue depth p50 {} max {}",
        batch.value_at_quantile(0.50),
        batch.value_at_quantile(0.99),
        batch.max(),
        wait.value_at_quantile(0.50) / 1000,
        wait.value_at_quantile(0.99) / 1000,
        telemetry::gauge("brokerd.batch_window_ns").get() / 1000,
        depth.value_at_quantile(0.50),
        depth.max(),
    );
    println!(
        "workers: {} · utilization (permille of wall clock) {:?}",
        server.workers(),
        server.worker_utilization_permille()
    );
    let cache = |name: &str| telemetry::counter(format!("crypto.{name}")).get();
    println!(
        "caches: keycache {}/{} hit/miss · sigmemo {}/{} · dhcache {}/{} \
         ({} built, {} promoted)",
        cache("keycache.hit"),
        cache("keycache.miss"),
        cache("sigmemo.hit"),
        cache("sigmemo.miss"),
        cache("dhcache.hit"),
        cache("dhcache.miss"),
        cache("dhcache.build"),
        cache("dhcache.promote"),
    );
}

/// One fully-specified Table 1 cell runner.
#[must_use]
pub fn table1_cell(
    route: RouteKind,
    tod: TimeOfDay,
    arch: Arch,
    workload: Workload,
    duration_s: u64,
    seed: u64,
) -> DriveOutcome {
    let mut cfg = EmulationConfig::new(route, tod, arch, workload);
    cfg.duration = SimDuration::from_secs(duration_s);
    cfg.seed = seed;
    run(&cfg)
}

/// Fig. 9 variant description.
#[derive(Clone, Copy, Debug)]
pub struct Fig9Variant {
    /// Display label matching the paper's legend.
    pub label: &'static str,
    /// Attach latency `d`, milliseconds.
    pub attach_ms: u64,
    /// MPTCP address-worker wait, milliseconds.
    pub wait_ms: u64,
}

/// The paper's Fig. 9 variants: modified MPTCP (no wait) at three attach
/// latencies, plus unmodified (500 ms wait).
pub const FIG9_VARIANTS: [Fig9Variant; 4] = [
    Fig9Variant {
        label: "mod. 32ms",
        attach_ms: 32,
        wait_ms: 0,
    },
    Fig9Variant {
        label: "mod. 64ms",
        attach_ms: 64,
        wait_ms: 0,
    },
    Fig9Variant {
        label: "mod. 128ms",
        attach_ms: 128,
        wait_ms: 0,
    },
    Fig9Variant {
        label: "unmod.",
        attach_ms: 32,
        wait_ms: 500,
    },
];

/// Post-handover relative performance: for each window length `n` in
/// `1..=max_n` seconds, the mean over handovers of
/// `Σ bytes_cb[h..h+n] / Σ bytes_tcp[h..h+n]`, in percent.
#[must_use]
pub fn relative_after_handover(
    cb: &cellbricks_sim::TimeSeries,
    tcp: &cellbricks_sim::TimeSeries,
    handovers_s: &[f64],
    max_n: usize,
) -> Vec<f64> {
    let cb_sums = cb.sums();
    let tcp_sums = tcp.sums();
    let mut out = Vec::with_capacity(max_n);
    for n in 1..=max_n {
        let mut ratios = Vec::new();
        for &h in handovers_s {
            let start = h as usize;
            let end = start + n;
            if end > cb_sums.len() || end > tcp_sums.len() {
                continue;
            }
            let cb_bytes: f64 = cb_sums[start..end].iter().sum();
            let tcp_bytes: f64 = tcp_sums[start..end].iter().sum();
            if tcp_bytes > 0.0 {
                ratios.push(cb_bytes / tcp_bytes * 100.0);
            }
        }
        out.push(if ratios.is_empty() {
            f64::NAN
        } else {
            ratios.iter().sum::<f64>() / ratios.len() as f64
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellbricks_sim::{SimTime, TimeSeries};

    #[test]
    fn relative_windows_compute() {
        let mut cb = TimeSeries::new(SimDuration::from_secs(1));
        let mut tcp = TimeSeries::new(SimDuration::from_secs(1));
        for i in 0..20 {
            tcp.record(SimTime::from_secs(i), 100.0);
            cb.record(SimTime::from_secs(i), if i == 10 { 50.0 } else { 120.0 });
        }
        let rel = relative_after_handover(&cb, &tcp, &[10.0], 3);
        assert!((rel[0] - 50.0).abs() < 1e-9);
        assert!((rel[1] - 85.0).abs() < 1e-9);
        assert!(rel[2] > rel[0]);
    }

    #[test]
    fn arg_parser_defaults() {
        assert_eq!(arg_secs("--nope", 77), 77);
    }
}
