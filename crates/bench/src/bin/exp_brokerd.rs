//! `exp_brokerd` — served-auth/s of the real `brokerd` wire service.
//!
//! Unlike the simulated-time experiments (fig7–10, `exp_broker`), this
//! one measures the **wall clock**: a real server thread runs the staged
//! pipeline of [`cellbricks_core::broker_server`] — adaptive batch
//! window on the I/O stage, `--workers` crypto threads (default:
//! cores − 1) — on a loopback UDP socket while C load-generator
//! clients pump pre-built `AuthReq` frames at it. The
//! quantity under test is the cross-connection batch-verify fast path:
//! at C=1 the client runs strict ping-pong (window 1), so every batch
//! holds one request and verification is per-request; at higher C the
//! batch window accumulates requests from many clients per wakeup and
//! one pooled Ed25519 batch spans all of them. Served-auth/s should
//! therefore *rise* with C on the same I/O thread.
//!
//! Protocol (EXPERIMENTS.md `exp_brokerd`): reps are **rep-major** —
//! every rep visits every concurrency level, then each level reports its
//! best rep over fresh nonces. Best-of-reps gates the machine's
//! capability rather than its worst scheduling accident, and rep-major
//! ordering keeps slow minutes on a shared box from landing on a single
//! level. Latency histograms accumulate across reps. A TCP smoke phase
//! then drives the stream transport, including a Report frame far larger
//! than any UDP datagram.
//!
//! Multi-process runs: start the daemon with `brokerd --listen A`, then
//! `--client-only --connect A` runs just the measurement protocol against
//! it (its metrics land under `exp_brokerd_client` so the gated
//! combined-run file is never clobbered). `brokerd`'s default population
//! is a superset of this binary's, from the same seed and grant RNG, so
//! the daemon serves exactly what the combined run's server thread does.
//!
//! Gauges land in `results/exp_brokerd.metrics.json`:
//! `exp_brokerd.c<C>.served_per_sec`, `.p50_us`, `.p99_us`,
//! `exp_brokerd.batch_win_x100` (highest-C rate over C=1 rate, ×100),
//! `exp_brokerd.bad_frames`, `exp_brokerd.lost` (both CI-gated to 0),
//! `exp_brokerd.workers`, `exp_brokerd.tcp_smoke_served`.
//!
//! Usage: `cargo run --release -p cellbricks-bench --bin exp_brokerd
//!         [--seed S] [--burst B] [--reps R] [--smoke] [--workers W]
//!         [--client-only --connect ADDR]`

use cellbricks_bench::{arg_flag, arg_str, arg_u64};
use cellbricks_core::broker_server::{
    self, build_requests, population, run_client, run_client_tcp, send_report_tcp, ClientConfig,
    ClientOutcome, Population, ServeConfig,
};
use cellbricks_core::brokerd::BrokerWire;
use cellbricks_net::wire::read_frame;
use cellbricks_sim::SimRng;
use cellbricks_telemetry as telemetry;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

#[derive(Default)]
struct Level {
    window: usize,
    best_rate: f64,
    refused: u64,
    retransmits: u64,
}

/// Pre-build `burst` requests for each of `clients` load generators
/// (outside the timed window), client `c` over its own UE identities
/// with nonces from `nonce_seed ^ (c << 8)`; then pump each list through
/// `run` on its own thread, latencies into `rtt_hist(c)`. Every request
/// must be answered. Returns the summed outcome and the wall time of the
/// slowest client.
fn run_clients(
    pop: &Population,
    server: SocketAddr,
    (clients, burst, window): (usize, usize, usize),
    nonce_seed: u64,
    rtt_hist: impl Fn(usize) -> String,
    run: fn(&ClientConfig, &[Vec<u8>]) -> std::io::Result<ClientOutcome>,
) -> (ClientOutcome, f64) {
    let built: Vec<Vec<Vec<u8>>> = (0..clients)
        .map(|c| {
            let ues: Vec<usize> = (c..pop.ues.len()).step_by(clients).collect();
            let mut rng = SimRng::new(nonce_seed ^ ((c as u64) << 8));
            build_requests(pop, &ues, burst, &mut rng)
        })
        .collect();
    let start = Instant::now();
    let runners: Vec<_> = built
        .into_iter()
        .enumerate()
        .map(|(c, requests)| {
            let cfg = ClientConfig {
                server,
                window,
                rtt_hist: rtt_hist(c),
            };
            std::thread::spawn(move || run(&cfg, &requests).expect("client socket"))
        })
        .collect();
    let mut sum = ClientOutcome::default();
    for r in runners {
        let o = r.join().expect("client thread");
        assert_eq!(o.lost, 0, "every request must be answered");
        sum.ok += o.ok;
        sum.refused += o.refused;
        sum.retransmits += o.retransmits;
    }
    let secs = start.elapsed().as_secs_f64();
    assert_eq!((sum.ok + sum.refused) as usize, clients * burst);
    (sum, secs)
}

/// The rep-major measurement protocol against a serving address: prints
/// the per-level table and sets the `exp_brokerd.c<C>.*` gauges. Returns
/// the batching win (highest-C rate over C=1 rate).
fn measure(
    pop: &Population,
    addr: SocketAddr,
    levels: &[usize],
    reps: usize,
    burst: usize,
    seed: u64,
) -> f64 {
    println!(
        "brokerd wire service — served-auth/s vs client concurrency \
         (burst {burst}/client, best of {reps})"
    );
    println!("{}", cellbricks_bench::rule(78));
    println!(
        "{:<9} {:>7} {:>13} {:>10} {:>10} {:>9} {:>8}",
        "clients", "window", "served/s", "p50 us", "p99 us", "refused", "rexmit"
    );
    println!("{}", cellbricks_bench::rule(78));
    // Rep-major: every rep visits every level, so slow minutes on a
    // shared box penalize all levels alike instead of whichever level
    // happened to run then; best-of-reps per level then compares like
    // with like.
    let mut rows: Vec<Level> = levels.iter().map(|_| Level::default()).collect();
    for rep in 0..reps {
        for (&clients, row) in levels.iter().zip(rows.iter_mut()) {
            // C=1 is the single-request-per-batch baseline the batching
            // win is measured against: strict ping-pong, one request per
            // readiness batch.
            row.window = if clients == 1 { 1 } else { 8 };
            // Mix in the level and rep: the server's anti-replay window
            // spans the whole experiment, so every build must draw a
            // nonce stream no other (level, rep, client) drew.
            let nonces = seed ^ ((clients as u64) << 48) ^ ((rep as u64) << 40) ^ 0xb0;
            let (o, secs) = run_clients(
                pop,
                addr,
                (clients, burst, row.window),
                nonces,
                |_| format!("exp_brokerd.rtt_us.c{clients}"),
                run_client,
            );
            row.refused += o.refused;
            row.retransmits += o.retransmits;
            row.best_rate = row.best_rate.max((o.ok + o.refused) as f64 / secs);
        }
    }
    let mut base = 0.0_f64;
    let mut top = 0.0_f64;
    for (&clients, row) in levels.iter().zip(&rows) {
        let h = telemetry::histogram(format!("exp_brokerd.rtt_us.c{clients}")).snapshot();
        let (p50, p99) = (h.value_at_quantile(0.50), h.value_at_quantile(0.99));
        if clients == 1 {
            base = row.best_rate;
        }
        top = row.best_rate; // last level = highest concurrency
        telemetry::gauge(format!("exp_brokerd.c{clients}.served_per_sec"))
            .set(row.best_rate as i64);
        telemetry::gauge(format!("exp_brokerd.c{clients}.p50_us")).set(p50 as i64);
        telemetry::gauge(format!("exp_brokerd.c{clients}.p99_us")).set(p99 as i64);
        println!(
            "{:<9} {:>7} {:>13.0} {:>10} {:>10} {:>9} {:>8}",
            clients, row.window, row.best_rate, p50, p99, row.refused, row.retransmits
        );
    }
    println!("{}", cellbricks_bench::rule(78));
    let win = top / base.max(1e-9);
    println!(
        "cross-connection batching win: {win:.2}x over the \
         single-request-per-batch baseline"
    );
    telemetry::gauge("exp_brokerd.batch_win_x100").set((win * 100.0) as i64);
    win
}

/// The TCP stream-transport smoke: a fresh pooled server on a loopback
/// listener, two windowed clients, and one Report frame far larger than
/// the UDP receive buffer — the frame a datagram transport cannot carry.
fn tcp_smoke(pop: &Population, seed: u64, workers: usize, burst: usize) {
    let mut server = pop.server_with_workers(SimRng::new(seed ^ 0x7c97), workers);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind tcp");
    let addr = listener.local_addr().expect("local addr");
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let handle = std::thread::spawn(move || {
        broker_server::serve_tcp(&mut server, &listener, &stop2, &ServeConfig::default())
            .expect("serve_tcp");
        server
    });

    // 32 KiB sealed report — 4x the UDP per-datagram receive buffer.
    // It draws no reply; one reader thread keeps a connection's frames
    // in order, so the answer to a request sent after it on the same
    // connection proves the report was handled.
    let report_len = 32 * 1024;
    let mut reporter = TcpStream::connect(addr).expect("connect reporter");
    send_report_tcp(&mut reporter, 1, &vec![0x5a_u8; report_len]).expect("report");
    let probe = build_requests(pop, &[0], 1, &mut SimRng::new(seed ^ 0x7cc1));
    reporter.write_all(&probe[0]).expect("probe request");
    let answer = read_frame(&mut reporter).expect("probe reply");
    assert!(
        matches!(BrokerWire::decode(&answer), Some(BrokerWire::AuthOk { .. })),
        "tcp: the request behind the report must be served"
    );

    let (o, _) = run_clients(
        pop,
        addr,
        (2, burst, 8),
        seed ^ 0x7cc0,
        |c| format!("exp_brokerd.tcp_rtt_us.c{c}"),
        run_client_tcp,
    );
    let served = o.ok + o.refused;
    stop.store(true, Ordering::Relaxed);
    let server = handle.join().expect("tcp server thread");
    assert_eq!(
        server.counters.bad_frames, 0,
        "tcp smoke sends valid frames"
    );
    assert_eq!(
        server.counters.wire_reports, 1,
        "the {report_len}-byte report frame must stream through intact"
    );
    println!(
        "tcp smoke: {served} served over the stream transport · \
         {report_len}-byte report frame delivered (impossible in one datagram)"
    );
    telemetry::gauge("exp_brokerd.tcp_smoke_served").set(served as i64);
}

fn main() {
    cellbricks_bench::telemetry_init();
    let seed = arg_u64("--seed", 42);
    let smoke = arg_flag("--smoke");
    let reps = arg_u64("--reps", if smoke { 1 } else { 3 }) as usize;
    let burst = arg_u64("--burst", if smoke { 24 } else { 96 }) as usize;
    let levels: &[usize] = if smoke { &[1, 4] } else { &[1, 4, 16] };
    let n_ues = levels.iter().copied().max().unwrap_or(1) * 4;
    let workers = arg_u64("--workers", broker_server::default_workers() as u64) as usize;
    telemetry::gauge("exp_brokerd.workers").set(workers as i64);

    if arg_flag("--client-only") {
        let addr: SocketAddr = arg_str("--connect")
            .expect("--client-only needs --connect ADDR")
            .parse()
            .expect("server address");
        let pop = population(seed, n_ues);
        measure(&pop, addr, levels, reps, burst, seed);
        // A separate metrics file: the CI-gated one holds combined runs.
        cellbricks_bench::telemetry_finish("exp_brokerd_client");
        return;
    }

    // Combined mode: one server thread for the whole experiment, like a
    // real daemon — the verifier-key caches and nonce window stay warm
    // across levels.
    let pop = population(seed, n_ues);
    let mut server = pop.server_with_workers(cellbricks_bench::grant_rng(seed), workers);
    let sock = UdpSocket::bind("127.0.0.1:0").expect("bind loopback");
    let addr = sock.local_addr().expect("local addr");
    let stop = Arc::new(AtomicBool::new(false));
    let stop_server = Arc::clone(&stop);
    let server_thread = std::thread::spawn(move || {
        broker_server::serve(&mut server, &sock, &stop_server, &ServeConfig::default())
            .expect("serve loop");
        server
    });

    let _win = measure(&pop, addr, levels, reps, burst, seed);

    stop.store(true, Ordering::Relaxed);
    let server = server_thread.join().expect("server thread");
    cellbricks_bench::print_server_stats(&server);
    let c = server.counters;
    telemetry::gauge("exp_brokerd.bad_frames").set(c.bad_frames as i64);
    telemetry::gauge("exp_brokerd.served_total").set(c.served_auths as i64);
    telemetry::gauge("exp_brokerd.lost").set(0);
    assert_eq!(c.bad_frames, 0, "load generator sends only valid frames");

    // Stream transport smoke: same state machine behind TCP.
    tcp_smoke(&pop, seed, workers, if smoke { 16 } else { 32 });

    cellbricks_bench::telemetry_finish("exp_brokerd");
}
