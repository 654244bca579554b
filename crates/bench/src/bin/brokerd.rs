//! `brokerd` — the CellBricks broker as a real wire service.
//!
//! The paper's broker is "an ordinary online service" (§3): no cellular
//! infrastructure, just a daemon behind a socket. This binary binds
//! `--listen`, provisions the deterministic `--seed`/`--n` population,
//! and runs the [`cellbricks_core::broker_server`] pipeline — adaptive
//! batch window on the I/O stage, `--workers` crypto threads (default:
//! cores − 1) — with length-prefixed [`BrokerWire`] frames over UDP
//! (default) or TCP (`--tcp`), for `--duration` seconds (0 = forever).
//! Counters print on exit, and the metrics land in
//! `results/brokerd.metrics.json`.
//!
//! Server and load generator derive every key from the seed, and the
//! default `--n 64` population is a superset of the one `exp_brokerd`
//! uses, so no state is exchanged out of band — start the daemon in one
//! terminal and point the load generator at it from another:
//!
//! ```text
//! brokerd --listen 127.0.0.1:7701 --duration 60 --workers 4
//! exp_brokerd --client-only --connect 127.0.0.1:7701
//! ```
//!
//! Usage: `brokerd [--listen ADDR] [--tcp] [--seed S] [--n N]
//!         [--workers W] [--duration SECS]`
//!
//! [`BrokerWire`]: cellbricks_core::brokerd::BrokerWire

use cellbricks_bench::{arg_flag, arg_str, arg_u64};
use cellbricks_core::broker_server::{self, population, ServeConfig};
use std::net::{TcpListener, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    cellbricks_bench::telemetry_init();
    let seed = arg_u64("--seed", 42);
    let n_ues = arg_u64("--n", 64) as usize;
    let tcp = arg_flag("--tcp");
    let listen = arg_str("--listen").unwrap_or_else(|| "127.0.0.1:7701".to_string());
    let duration_s = arg_u64("--duration", 0);
    let workers = arg_u64("--workers", broker_server::default_workers() as u64) as usize;

    let pop = population(seed, n_ues);
    let mut server = pop.server_with_workers(cellbricks_bench::grant_rng(seed), workers);
    let stop = Arc::new(AtomicBool::new(false));
    if duration_s > 0 {
        let stop_timer = Arc::clone(&stop);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_secs(duration_s));
            stop_timer.store(true, Ordering::Relaxed);
        });
    }
    let serving = format!(
        "brokerd: serving {} subscribers (seed {seed}, {} workers) on",
        server.subscriber_count(),
        server.workers()
    );
    if tcp {
        let listener = TcpListener::bind(&listen).expect("bind listen address");
        println!(
            "{serving} tcp {}",
            listener.local_addr().expect("local addr")
        );
        broker_server::serve_tcp(&mut server, &listener, &stop, &ServeConfig::default())
            .expect("serve loop");
    } else {
        let sock = UdpSocket::bind(&listen).expect("bind listen address");
        println!("{serving} udp {}", sock.local_addr().expect("local addr"));
        broker_server::serve(&mut server, &sock, &stop, &ServeConfig::default())
            .expect("serve loop");
    }
    cellbricks_bench::print_server_stats(&server);
    cellbricks_bench::telemetry_finish("brokerd");
}
