//! Determinism and drain guarantees of the multi-worker `brokerd`
//! pipeline.
//!
//! The parallel crypto stage is only allowed to change *when* work
//! happens, never *what* comes out: every grant's randomness is drawn by
//! the sequential decision phase (in arrival order) before the work is
//! scattered, and chunks gather back by index. So the replies must be
//! byte-identical across worker counts — including `W = 0`, the inline
//! path that is the PR 9 single-threaded server — and across how the
//! same request stream happens to be sliced into batches. These tests
//! pin both properties, plus the shutdown contract: stopping the serve
//! loop mid-stream loses no reply the server claims to have sent and
//! duplicates none.

use cellbricks_core::broker_server::{
    self, build_requests, population, BrokerServer, Population, ServeConfig, WireCounters,
};
use cellbricks_core::brokerd::BrokerWire;
use cellbricks_net::wire::{frame, read_frame, unframe};
use cellbricks_sim::SimRng;
use std::collections::{BTreeMap, HashSet};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

const SEED: u64 = 20231;

fn request_stream(pop: &Population, n: usize) -> Vec<Vec<u8>> {
    let ues: Vec<usize> = (0..pop.ues.len()).collect();
    let mut rng = SimRng::new(77);
    build_requests(pop, &ues, n, &mut rng)
}

/// Feed `reqs` to a fresh server with `workers` crypto threads, split
/// into batches by `splits` (each entry = one `process_batch` call), and
/// return every (slot, reply-bytes) pair in emission order.
fn replies_for(
    pop: &Population,
    workers: usize,
    reqs: &[Vec<u8>],
    splits: &[usize],
) -> Vec<(usize, Vec<u8>)> {
    assert_eq!(splits.iter().sum::<usize>(), reqs.len());
    let mut server = pop.server_with_workers(SimRng::new(SEED), workers);
    let mut all = Vec::new();
    let mut cursor = 0;
    for &len in splits {
        let batch: Vec<(usize, &[u8])> = reqs[cursor..cursor + len]
            .iter()
            .enumerate()
            .map(|(i, r)| (cursor + i, r.as_slice()))
            .collect();
        cursor += len;
        let mut out = Vec::new();
        server.process_batch(&batch, &mut out);
        all.extend(out);
    }
    assert_eq!(server.counters.served_auths, reqs.len() as u64);
    all
}

/// W = 0 (inline, the PR 9 code path), W = 1, and W = 4 must produce
/// byte-identical reply streams for the same requests and grant rng:
/// parallelism may only move work across threads, never change bytes.
#[test]
fn worker_count_never_changes_reply_bytes() {
    let pop = population(SEED, 6);
    let reqs = request_stream(&pop, 36);
    let splits = [12usize, 12, 12];
    let inline = replies_for(&pop, 0, &reqs, &splits);
    assert_eq!(inline.len(), reqs.len());
    for workers in [1usize, 4] {
        let pooled = replies_for(&pop, workers, &reqs, &splits);
        assert_eq!(
            inline, pooled,
            "W={workers} replies diverged from the inline server"
        );
    }
}

/// How the stream is sliced into batches is an I/O-stage accident (the
/// adaptive window closes wherever load says it should) and must not
/// leak into reply bytes: same arrival order, same replies.
#[test]
fn batch_split_never_changes_reply_bytes() {
    let pop = population(SEED, 6);
    let reqs = request_stream(&pop, 30);
    let whole = replies_for(&pop, 4, &reqs, &[30]);
    let single = replies_for(&pop, 4, &reqs, &vec![1; 30]);
    let ragged = replies_for(&pop, 4, &reqs, &[7, 1, 13, 9]);
    assert_eq!(whole, single, "per-request batches diverged");
    assert_eq!(whole, ragged, "ragged batches diverged");
}

/// The two serve loops: [`broker_server::serve`] and
/// [`broker_server::serve_tcp`].
#[derive(Clone, Copy, Debug, PartialEq)]
enum Wire {
    Udp,
    Tcp,
}

/// Run `server`'s serve loop for `wire` on a loopback port, on its own
/// thread. Set the flag to stop it; joining returns the server.
fn start(
    wire: Wire,
    mut server: BrokerServer,
) -> (SocketAddr, Arc<AtomicBool>, JoinHandle<BrokerServer>) {
    let stop = Arc::new(AtomicBool::new(false));
    let stop_server = Arc::clone(&stop);
    let cfg = ServeConfig::default();
    let (addr, handle) = match wire {
        Wire::Udp => {
            let sock = UdpSocket::bind("127.0.0.1:0").expect("bind server");
            let addr = sock.local_addr().expect("local addr");
            let handle = std::thread::spawn(move || {
                broker_server::serve(&mut server, &sock, &stop_server, &cfg).expect("serve");
                server
            });
            (addr, handle)
        }
        Wire::Tcp => {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind server");
            let addr = listener.local_addr().expect("local addr");
            let handle = std::thread::spawn(move || {
                broker_server::serve_tcp(&mut server, &listener, &stop_server, &cfg)
                    .expect("serve_tcp");
                server
            });
            (addr, handle)
        }
    };
    (addr, stop, handle)
}

/// One client connection: a connected UDP socket or a TCP stream.
enum Conn {
    Udp(UdpSocket),
    Tcp(TcpStream),
}

impl Conn {
    /// Connect to `addr`; a read gives up after `quiet` without data.
    fn open(wire: Wire, addr: SocketAddr, quiet: Duration) -> Self {
        match wire {
            Wire::Udp => {
                let client = UdpSocket::bind("127.0.0.1:0").expect("bind client");
                client.connect(addr).expect("connect");
                client.set_read_timeout(Some(quiet)).expect("read timeout");
                Conn::Udp(client)
            }
            Wire::Tcp => {
                let client = TcpStream::connect(addr).expect("connect");
                client.set_read_timeout(Some(quiet)).expect("read timeout");
                Conn::Tcp(client)
            }
        }
    }

    fn send(&mut self, frame: &[u8]) {
        match self {
            Conn::Udp(client) => client.send(frame).map(drop),
            Conn::Tcp(client) => client.write_all(frame),
        }
        .expect("send");
    }

    /// The next reply, decoded; `None` once the line stays quiet for
    /// longer than the read timeout, or closes.
    fn recv(&mut self) -> Option<BrokerWire> {
        let payload = match self {
            Conn::Udp(client) => {
                let mut buf = vec![0u8; 8 * 1024];
                let n = client.recv(&mut buf).ok()?;
                unframe(&buf[..n]).expect("framed reply").to_vec()
            }
            Conn::Tcp(client) => read_frame(client).ok()?,
        };
        Some(BrokerWire::decode(&payload).expect("decodable reply"))
    }
}

/// Stop the serve loop while a W = 4 pipeline is mid-stream and account
/// for every reply: the client receives exactly as many replies as the
/// server counts served (a gathered batch is always fully processed and
/// flushed before the stop flag is honored — nothing is lost in the
/// pool), and no `req_id` is ever answered twice (nothing is duplicated).
/// The drain lives in the batch loop both transports share, so both are
/// checked.
#[test]
fn stop_mid_stream_loses_and_duplicates_nothing() {
    for wire in [Wire::Udp, Wire::Tcp] {
        let pop = population(SEED, 8);
        let server = pop.server_with_workers(SimRng::new(SEED ^ 0xd0), 4);
        let (addr, stop, handle) = start(wire, server);
        // Collect replies until the line goes quiet for longer than any
        // in-flight batch could take to flush.
        let mut client = Conn::open(wire, addr, Duration::from_millis(500));
        let reqs = request_stream(&pop, 128);
        let mut answered: Vec<u64> = Vec::new();
        let mut reply_id = |reply| match reply {
            BrokerWire::AuthOk { req_id, .. } | BrokerWire::AuthErr { req_id, .. } => {
                answered.push(req_id);
            }
            other => panic!("non-reply frame: {other:?}"),
        };
        let blast = if wire == Wire::Tcp {
            // The TCP loop accepts new connections between waits for
            // frames, so an idle server may take a whole wait slice to
            // accept. One answered request proves the connection is
            // being served before the stop can land.
            client.send(&reqs[0]);
            reply_id(client.recv().expect("first reply"));
            &reqs[1..]
        } else {
            &reqs[..]
        };

        // Blast the whole burst (no client-side window) so batches pile
        // up, then pull the plug while the pipeline is still chewing.
        for r in blast {
            client.send(r);
        }
        std::thread::sleep(Duration::from_millis(2));
        stop.store(true, Ordering::Relaxed);
        while let Some(reply) = client.recv() {
            reply_id(reply);
        }
        let server = handle.join().expect("server thread");

        let served = server.counters.served_auths + server.counters.auth_errs;
        assert!(
            served >= 1,
            "{wire:?}: the pipeline served nothing before the stop"
        );
        assert_eq!(
            answered.len() as u64,
            served,
            "{wire:?}: replies on the wire must match replies the server \
             counted — a stopped pipeline may strand requests, never replies"
        );
        let distinct: HashSet<u64> = answered.iter().copied().collect();
        assert_eq!(
            distinct.len(),
            answered.len(),
            "{wire:?}: a req_id was answered twice"
        );
        assert_eq!(server.counters.bad_frames, 0);
    }
}

/// `serve` and `serve_tcp` differ only in where frames come from and how
/// replies leave. One seeded stream — clean requests, requests from an
/// unprovisioned UE, a flipped UE signature, an exact replay, and a
/// well-framed garbage payload — sent in order on one connection must
/// draw the same replies per `req_id` over either transport, and leave
/// the same counters except for how the stream happened to split into
/// batches.
#[test]
fn udp_and_tcp_serve_loops_give_the_same_replies() {
    let pop = population(SEED, 6);
    // Request i comes from UE i % 6; the server provisions UEs 0..5 only
    // (same seed, so the same keys), so requests 5 and 11 are from an
    // unknown user.
    let provisioned = population(SEED, 5);
    let mut stream = request_stream(&pop, 16);
    // A flipped byte past the headers breaks the UE signature of request
    // 7; the frame still decodes.
    let idx = stream[7].len() - 100;
    stream[7][idx] ^= 0x40;
    stream.push(stream[2].clone());
    stream.push(frame(
        b"a well-framed payload that is not a BrokerWire message",
    ));
    let expected_replies = stream.len() - 1;

    for workers in [0usize, 4] {
        let mut per_wire = Vec::new();
        for wire in [Wire::Udp, Wire::Tcp] {
            let server = provisioned.server_with_workers(SimRng::new(SEED ^ 0xe9), workers);
            let (addr, stop, handle) = start(wire, server);
            let mut client = Conn::open(wire, addr, Duration::from_secs(10));
            for f in &stream {
                client.send(f);
            }
            let mut replies: BTreeMap<u64, Vec<BrokerWire>> = BTreeMap::new();
            for _ in 0..expected_replies {
                let reply = client.recv().expect("a reply for every request");
                let (BrokerWire::AuthOk { req_id, .. } | BrokerWire::AuthErr { req_id, .. }) =
                    reply
                else {
                    panic!("non-reply frame: {reply:?}");
                };
                replies.entry(req_id).or_default().push(reply);
            }
            stop.store(true, Ordering::Relaxed);
            let server = handle.join().expect("server thread");
            let c = server.counters;
            assert_eq!(
                (c.served_auths, c.auth_errs, c.bad_frames),
                (13, 4, 1),
                "W={workers} {wire:?}: every case of the stream must be exercised"
            );
            per_wire.push((replies, WireCounters { batches: 0, ..c }));
        }
        assert_eq!(
            per_wire[0], per_wire[1],
            "W={workers}: UDP and TCP replies or counters diverged"
        );
    }
}
