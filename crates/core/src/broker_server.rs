//! `brokerd` as a real wire service: the reusable server behind the
//! `brokerd` daemon binary.
//!
//! The paper's central deployment claim (§3, §5) is that the broker
//! "needs no cellular infrastructure" — it is an ordinary online service
//! behind a socket, deployed like Magma's Orc8r in the cloud, and it
//! scales like one: across cores first, then across machines. This
//! module is the socket adapter over the broker core
//! ([`crate::broker_core`]), structured as a **staged pipeline** so the
//! crypto bill spreads over a pool of worker threads while the protocol
//! semantics stay strictly sequential:
//!
//! * **I/O stage** ([`serve`] over UDP, [`serve_tcp`] over TCP): one
//!   batch loop over two frame sources — gather frames, decode them, and
//!   flush replies. Batch boundaries come from an adaptive batch-window
//!   controller: a batch closes when it reaches `BATCH_TARGET` requests
//!   or when its age exceeds a window that is continuously re-derived
//!   from the measured per-batch service time against a reply-latency
//!   SLO — continuous-batching style, so the window widens when the
//!   server is fast (buying bigger batches) and collapses when service
//!   time already eats the SLO.
//! * **Decision** ([`BrokerCore::decide`] over the whole batch): its pure
//!   check and grant phases scatter over a pool of W `std::thread`
//!   crypto workers (bounded channels, no tokio) in contiguous chunks
//!   gathered back in arrival order; its decision phase — reputation
//!   policy, anti-replay, session ids, RNG draws — runs sequentially on
//!   the caller's thread. With W = 0 the same scatter runs inline.
//!
//! **Determinism.** Every grant draw happens sequentially before the
//! grant phase scatters, batch field inversions compute the same
//! (value-unique) inverses under any sub-batching, and Ed25519 signing is
//! deterministic — so W=0, W=1 and W=4 produce byte-identical replies.
//!
//! **What is and is not shared with the simulator's
//! [`crate::brokerd::Brokerd`].** Shared, one implementation: the wire
//! format ([`BrokerWire`]), the subscriber table and alias allocator, the
//! anti-replay window, the session-id allocator, reputation policy, and
//! the decision itself. A fresh wire server's reputation admits every
//! bTelco and suspects no one; nothing on the wire feeds it. Wire-only:
//! framing, the serve loop and the crypto pool. Sim-only: event timing,
//! fault windows, and billing. Traffic reports arriving on the wire are
//! counted and dropped, for a security reason: settlement marks a
//! session's user suspect on any unverifiable UE report, and session ids
//! are sequential, so on an open socket one forged datagram would let
//! any peer deny service to any subscriber (DESIGN §13).

use crate::broker_core::{BrokerCore, BrokerState, Scatter};
use crate::brokerd::BrokerWire;
use crate::principal::{BrokerKeys, Identity, TelcoKeys, UeKeys};
use crate::sap::{self, QosCap};
use bytes::Bytes;
use cellbricks_crypto::cert::CertificateAuthority;
use cellbricks_crypto::ed25519::VerifyingKey;
use cellbricks_crypto::x25519::X25519PublicKey;
use cellbricks_net::wire::{frame, read_frame, unframe, write_frame};
use cellbricks_sim::SimRng;
use cellbricks_telemetry as telemetry;
use polling::Poller;
use std::collections::HashMap;
use std::io;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// The canonical broker name every helper in this module provisions
/// under — the same name `exp_broker` uses, so the deterministic seed
/// path produces interoperable key material.
pub const BROKER_NAME: &str = "broker.example";

/// The bTelco identity the load generator forwards requests as.
pub const TELCO_NAME: &str = "tower-1.example";

/// Wire-server configuration.
pub struct BrokerServerConfig {
    /// Broker keys + certificate.
    pub keys: BrokerKeys,
    /// The CA all certificates chain to.
    pub ca: VerifyingKey,
}

/// Plain mirrors of the server-loop telemetry, cheap to read in tests
/// and printed by the daemon on shutdown. Decisions are also counted in
/// the telemetry registry as `core.brokerd.auth_granted`/`auth_rejected`
/// (by the broker core, for both adapters), frames as
/// `core.brokerd.bad_frames` and `brokerd.*`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WireCounters {
    /// Authorizations granted and answered with `AuthOk`.
    pub served_auths: u64,
    /// Requests answered with `AuthErr` (bad signature, policy, replay…).
    pub auth_errs: u64,
    /// Datagrams that failed framing or `BrokerWire` decoding.
    pub bad_frames: u64,
    /// Well-formed `Report` frames (counted, then dropped — billing
    /// settles only in the simulator).
    pub wire_reports: u64,
    /// Well-formed frames that are not requests (`AuthOk`/`AuthErr`
    /// arriving at the server).
    pub unexpected_frames: u64,
    /// Readiness batches processed (including request-free ones).
    pub batches: u64,
    /// TCP connections shut down at accept because no reader thread
    /// could be started for them.
    pub tcp_refused: u64,
}

/// Pick the worker count: `available_parallelism - 1` (one core reserved
/// for the I/O stage), clamped to 1..=8. On a single-core box this is 1
/// — the byte-identical baseline — so deterministic results never
/// depend on the machine.
#[must_use]
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get().saturating_sub(1).clamp(1, 8))
        .unwrap_or(1)
}

/// The `brokerd` wire server: the broker core and its state, the crypto
/// worker pool its pure phases scatter over, and the frame counters.
pub struct BrokerServer {
    core: BrokerCore,
    state: BrokerState,
    pool: CryptoPool,
    bad_frames: telemetry::Counter,
    wire_reports: telemetry::Counter,
    unexpected_frames: telemetry::Counter,
    tcp_refused: telemetry::Counter,
    batch_size: telemetry::Histogram,
    /// Server-loop counters (also exported as telemetry).
    pub counters: WireCounters,
}

/// Never split a batch below this many requests per chunk: tiny chunks
/// pay scatter overhead without amortizing anything. With W=1 the chunk
/// length is always ≥ the whole batch, so a single-worker pipeline runs
/// the exact same pooled calls as the inline path.
const MIN_CHUNK: usize = 4;

/// Per-worker job-queue bound. A scatter sends at most one chunk per
/// worker, so a small bound suffices; it exists to make any future
/// misuse (flooding the pool without gathering) fail loudly by blocking.
const POOL_QUEUE_BOUND: usize = 8;

/// One chunk of a scatter, run to completion on a worker.
type PoolJob = Box<dyn FnOnce() + Send>;

/// The crypto worker pool: W persistent threads, one bounded job channel
/// each. Chunk i of a scatter goes to worker i, results are gathered by
/// chunk index — arrival order is preserved by construction. W = 0 runs
/// every scatter inline on the calling thread.
struct CryptoPool {
    txs: Vec<mpsc::SyncSender<PoolJob>>,
    handles: Vec<std::thread::JoinHandle<()>>,
    busy_ns: Vec<Arc<AtomicU64>>,
    util_gauges: Vec<telemetry::Gauge>,
    queue_depth: telemetry::Histogram,
    queued: Arc<AtomicUsize>,
    started: Instant,
}

impl CryptoPool {
    fn new(workers: usize) -> Self {
        let queued = Arc::new(AtomicUsize::new(0));
        let mut txs = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        let mut busy_ns = Vec::with_capacity(workers);
        let mut util_gauges = Vec::with_capacity(workers);
        for i in 0..workers {
            let (tx, rx) = mpsc::sync_channel::<PoolJob>(POOL_QUEUE_BOUND);
            let busy = Arc::new(AtomicU64::new(0));
            let busy2 = Arc::clone(&busy);
            let queued2 = Arc::clone(&queued);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("brokerd-crypto-{i}"))
                    .spawn(move || crypto_worker(&rx, &busy2, &queued2))
                    .expect("spawn crypto worker"),
            );
            txs.push(tx);
            busy_ns.push(busy);
            util_gauges.push(telemetry::gauge(format!("brokerd.worker{i}.util_permille")));
        }
        Self {
            txs,
            handles,
            busy_ns,
            util_gauges,
            queue_depth: telemetry::histogram("brokerd.queue_depth"),
            queued,
            started: Instant::now(),
        }
    }

    fn workers(&self) -> usize {
        self.txs.len()
    }

    /// Busy-time share of each worker since pool start, in permille.
    fn utilization_permille(&self) -> Vec<u64> {
        let wall = (self.started.elapsed().as_nanos() as u64).max(1);
        self.busy_ns
            .iter()
            .map(|b| b.load(Ordering::Relaxed) * 1000 / wall)
            .collect()
    }
}

impl Scatter for CryptoPool {
    /// Contiguous chunks of `ceil(n/W)` (at least [`MIN_CHUNK`]), chunk i
    /// to worker i, gathered back by chunk index.
    fn scatter<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send + 'static,
        F: Fn(Range<usize>) -> Vec<R> + Send + Sync + 'static,
    {
        let w = self.workers();
        if w == 0 {
            return f(0..n);
        }
        let f = Arc::new(f);
        let chunk_len = n.div_ceil(w).max(MIN_CHUNK);
        let (tx, rx) = mpsc::channel();
        let mut sent = 0usize;
        for start in (0..n).step_by(chunk_len) {
            let (chunk, range) = (sent, start..n.min(start + chunk_len));
            let (f, tx) = (Arc::clone(&f), tx.clone());
            self.queued.fetch_add(1, Ordering::Relaxed);
            self.txs[chunk % w]
                .send(Box::new(move || {
                    let _ = tx.send((chunk, f(range)));
                }))
                .expect("crypto worker alive");
            sent += 1;
        }
        drop(tx);
        self.queue_depth
            .record(self.queued.load(Ordering::Relaxed) as u64);
        let mut parts: Vec<Vec<R>> = (0..sent).map(|_| Vec::new()).collect();
        for _ in 0..sent {
            let (chunk, out) = rx.recv().expect("crypto worker reply");
            parts[chunk] = out;
        }
        for (util, gauge) in self.utilization_permille().iter().zip(&self.util_gauges) {
            gauge.set(*util as i64);
        }
        parts.into_iter().flatten().collect()
    }
}

impl Drop for CryptoPool {
    fn drop(&mut self) {
        // Closing the job channels ends each worker's recv loop.
        self.txs.clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn crypto_worker(rx: &mpsc::Receiver<PoolJob>, busy: &AtomicU64, queued: &AtomicUsize) {
    while let Ok(job) = rx.recv() {
        let t0 = Instant::now();
        job();
        busy.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        queued.fetch_sub(1, Ordering::Relaxed);
    }
}

impl BrokerServer {
    /// A fresh server with an empty subscriber DB and no worker pool:
    /// every phase runs inline on the calling thread.
    #[must_use]
    pub fn new(cfg: BrokerServerConfig, rng: SimRng) -> Self {
        Self::with_workers(cfg, rng, 0)
    }

    /// A fresh server backed by a pool of `workers` crypto threads
    /// (0 = inline). Replies are byte-identical at any worker count —
    /// parallelism changes only where the pure phases execute.
    #[must_use]
    pub fn with_workers(cfg: BrokerServerConfig, rng: SimRng, workers: usize) -> Self {
        Self {
            core: BrokerCore::new(cfg.keys, cfg.ca, rng),
            state: BrokerState::new(1),
            pool: CryptoPool::new(workers),
            bad_frames: telemetry::counter("core.brokerd.bad_frames"),
            wire_reports: telemetry::counter("brokerd.wire_reports"),
            unexpected_frames: telemetry::counter("brokerd.unexpected_frames"),
            tcp_refused: telemetry::counter("core.brokerd.tcp_refused"),
            batch_size: telemetry::histogram("brokerd.batch_size"),
            counters: WireCounters::default(),
        }
    }

    /// Number of crypto workers (0 = inline processing).
    #[must_use]
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// Busy-share of each crypto worker since startup, in permille of
    /// wall time. Empty for an inline server.
    #[must_use]
    pub fn worker_utilization_permille(&self) -> Vec<u64> {
        self.pool.utilization_permille()
    }

    /// Provision a subscriber (same contract as the simulated broker).
    pub fn provision(
        &mut self,
        id: Identity,
        sign_pk: VerifyingKey,
        encrypt_pk: X25519PublicKey,
        plan_mbr_bps: u64,
    ) {
        self.state.provision(id, sign_pk, encrypt_pk, plan_mbr_bps);
    }

    /// Number of provisioned subscribers.
    #[must_use]
    pub fn subscriber_count(&self) -> usize {
        self.state.subscriber_count()
    }

    /// The authorization state the broker core decides against.
    pub fn state_mut(&mut self) -> &mut BrokerState {
        &mut self.state
    }

    fn bad_frame(&mut self) {
        self.counters.bad_frames += 1;
        self.bad_frames.inc();
    }

    /// Process one readiness batch of raw datagrams. Each entry is
    /// `(client slot, datagram bytes)`; replies are appended to `out` as
    /// `(client slot, framed reply bytes)`, in arrival order, for the
    /// caller's flush pass.
    ///
    /// Frame and wire decode happen here; every `AuthReq` of the batch
    /// then goes through one [`BrokerCore::decide`] whose pure phases
    /// scatter over the worker pool. The call is synchronous — when it
    /// returns, every reply for the batch is in `out`, which is what makes
    /// shutdown drain-safe by construction.
    pub fn process_batch(&mut self, datagrams: &[(usize, &[u8])], out: &mut Vec<(usize, Vec<u8>)>) {
        self.counters.batches += 1;
        let mut reqs: Vec<(usize, u64, Bytes)> = Vec::new();
        for &(slot, dgram) in datagrams {
            let Ok(payload) = unframe(dgram) else {
                self.bad_frame();
                continue;
            };
            match BrokerWire::decode(payload) {
                Some(BrokerWire::AuthReq { req_id, req_t }) => reqs.push((slot, req_id, req_t)),
                Some(BrokerWire::Report { .. }) => {
                    self.counters.wire_reports += 1;
                    self.wire_reports.inc();
                }
                Some(_) => {
                    self.counters.unexpected_frames += 1;
                    self.unexpected_frames.inc();
                }
                None => self.bad_frame(),
            }
        }
        self.batch_size.record(reqs.len() as u64);

        let req_ts: Vec<&[u8]> = reqs.iter().map(|(_, _, req_t)| &req_t[..]).collect();
        let decisions = self.core.decide(&mut self.state, &req_ts, &self.pool);
        for ((slot, req_id, _), decision) in reqs.iter().zip(decisions) {
            let (slot, req_id) = (*slot, *req_id);
            let msg = match decision {
                Ok(grant) => {
                    self.counters.served_auths += 1;
                    let reply = grant.reply.encode();
                    BrokerWire::AuthOk { req_id, reply }
                }
                Err(e) => {
                    self.counters.auth_errs += 1;
                    let code = e as u8;
                    BrokerWire::AuthErr { req_id, code }
                }
            };
            out.push((slot, frame(&msg.encode())));
        }
    }
}

/// Serve-loop configuration. It has no settable values: the batch
/// window's bounds and SLO are module constants, the same for every
/// deployment. The type stays so that existing `serve(…,
/// &ServeConfig::default())` callers compile unchanged.
#[derive(Default)]
pub struct ServeConfig {}

/// Readiness-wait slice between checks of the stop flag.
const WAIT_TIMEOUT: Duration = Duration::from_millis(20);

/// Hard cap on frames per batch.
const MAX_BATCH: usize = 1024;

/// Close the batch early once it holds this many frames.
const BATCH_TARGET: usize = 64;

/// Reply-latency budget the window controller works against.
const SLO: Duration = Duration::from_micros(600);

/// Window floor: never adapt below this.
const WINDOW_MIN: Duration = Duration::from_micros(20);

/// Window ceiling: never hold a batch open longer than this.
const WINDOW_MAX: Duration = Duration::from_micros(250);

/// EWMA smoothing for the measured per-batch service time.
const SERVICE_EWMA_ALPHA: f64 = 0.25;

/// Consecutive dry gather passes (each separated by a `yield_now`) after
/// which the loop closes the batch before the window expires. A source
/// that stays dry across several yields means nothing is in flight —
/// holding the batch open buys no amortization, only latency (continuous
/// batching dispatches when the queue empties). The yields matter on a
/// single core: they are what hand peers the CPU to enqueue the next
/// frame before the verdict is final.
const DRY_SPINS: u32 = 4;

/// The adaptive batch window. A batch closes when it reaches
/// `BATCH_TARGET` frames or when its age exceeds the current window. The
/// window is re-derived after every batch as
/// `clamp(SLO − service_ewma, WINDOW_MIN, WINDOW_MAX)` — the slack the
/// SLO leaves after the (smoothed) measured service time. When the
/// server is fast the window widens, buying bigger batches per wakeup
/// (better verify amortization); when batches already take the whole
/// SLO to serve, the window collapses to `WINDOW_MIN` and the loop
/// degenerates to drain-and-go.
struct BatchWindow {
    service_ewma_ns: f64,
    window: Duration,
    gauge: telemetry::Gauge,
}

impl BatchWindow {
    fn new() -> Self {
        Self {
            service_ewma_ns: 0.0,
            window: WINDOW_MAX,
            gauge: telemetry::gauge("brokerd.batch_window_ns"),
        }
    }

    /// Fold one measured batch service time into the EWMA and re-derive
    /// the window from the SLO slack.
    fn observe(&mut self, service: Duration) {
        let s = service.as_nanos() as f64;
        self.service_ewma_ns = if self.service_ewma_ns == 0.0 {
            s
        } else {
            SERVICE_EWMA_ALPHA * s + (1.0 - SERVICE_EWMA_ALPHA) * self.service_ewma_ns
        };
        let slack = (SLO.as_nanos() as f64 - self.service_ewma_ns).max(0.0);
        self.window = Duration::from_nanos(slack as u64).clamp(WINDOW_MIN, WINDOW_MAX);
        self.gauge.set(self.window.as_nanos() as i64);
    }
}

/// Per-datagram receive-buffer size. Any legitimate control-plane frame
/// fits with a wide margin; a larger datagram is truncated by the kernel
/// and then rejected by [`unframe`] as a bad frame. (The TCP transport
/// has no such cap — frames up to `MAX_FRAME_LEN` stream through
/// [`read_frame`].)
const RECV_BUF_LEN: usize = 8 * 1024;

/// One gathered batch: `(client slot, frame bytes)` in arrival order.
type Batch = Vec<(usize, Vec<u8>)>;

/// A frame source and reply sink behind the shared batch loop: the two
/// places where UDP and TCP differ.
trait Transport {
    /// Wait up to `WAIT_TIMEOUT` for traffic (a source may already move
    /// the first frame into `batch`); `false` when none came.
    fn wait(&mut self, server: &mut BrokerServer, batch: &mut Batch) -> io::Result<bool>;

    /// Move every frame that is already waiting into `batch`, up to
    /// `MAX_BATCH`.
    fn drain(&mut self, server: &mut BrokerServer, batch: &mut Batch) -> io::Result<()>;

    /// Send one framed reply to the client in `slot`.
    fn send(&mut self, slot: usize, bytes: &[u8]) -> io::Result<()>;
}

/// The I/O stage both transports run: wait for the first frame, gather a
/// batch under the adaptive window (drain until dry, then yield-spin for
/// the window remainder, closing early after [`DRY_SPINS`] consecutive
/// empty passes), process the whole batch through
/// [`BrokerServer::process_batch`], then send every reply in a single
/// flush pass. Runs until `stop` is set; a gathered batch is always fully
/// processed and flushed before the flag is honored.
///
/// The in-window wait is a spin rather than a timed kernel wait:
/// `SO_RCVTIMEO` rounds sub-millisecond timeouts up to a scheduler tick
/// (≈4 ms at HZ=250) — an order of magnitude longer than the whole
/// window, which would serialize ping-pong clients at tick granularity.
fn batch_loop(
    server: &mut BrokerServer,
    transport: &mut impl Transport,
    stop: &AtomicBool,
) -> io::Result<()> {
    let mut batch = Batch::new();
    let mut replies: Vec<(usize, Vec<u8>)> = Vec::new();
    let mut win = BatchWindow::new();
    let wait_hist = telemetry::histogram("brokerd.batch_wait_ns");

    while !stop.load(Ordering::Relaxed) {
        batch.clear();
        if !transport.wait(server, &mut batch)? {
            continue;
        }
        let opened = Instant::now();
        let mut dry_spins = 0u32;
        loop {
            let before = batch.len();
            transport.drain(server, &mut batch)?;
            // `drain` stops at MAX_BATCH, which is above BATCH_TARGET.
            if batch.len() >= BATCH_TARGET || opened.elapsed() >= win.window {
                break;
            }
            if batch.len() > before {
                dry_spins = 0; // still arriving — keep gathering
                continue;
            }
            dry_spins += 1;
            if dry_spins >= DRY_SPINS {
                break; // nothing in flight: dispatch what we have
            }
            std::thread::yield_now();
        }
        if batch.is_empty() {
            continue; // spurious wakeup, or only closed connections
        }
        wait_hist.record(opened.elapsed().as_nanos() as u64);
        let t0 = Instant::now();
        replies.clear();
        let frames: Vec<(usize, &[u8])> = batch.iter().map(|(slot, f)| (*slot, &f[..])).collect();
        server.process_batch(&frames, &mut replies);
        for (slot, bytes) in &replies {
            transport.send(*slot, bytes)?;
        }
        win.observe(t0.elapsed());
    }
    Ok(())
}

/// UDP frames: nonblocking `recv_from` into one receive buffer, one
/// client slot per source address.
struct UdpFrames<'a> {
    sock: &'a UdpSocket,
    poller: Poller,
    buf: Vec<u8>,
    peers: Vec<SocketAddr>,
    peer_index: HashMap<SocketAddr, usize>,
}

impl Transport for UdpFrames<'_> {
    fn wait(&mut self, _: &mut BrokerServer, _: &mut Batch) -> io::Result<bool> {
        self.poller.wait_readable(self.sock, Some(WAIT_TIMEOUT))
    }

    fn drain(&mut self, _: &mut BrokerServer, batch: &mut Batch) -> io::Result<()> {
        while batch.len() < MAX_BATCH {
            match self.sock.recv_from(&mut self.buf) {
                Ok((len, addr)) => {
                    let next_slot = self.peers.len();
                    let slot = *self.peer_index.entry(addr).or_insert(next_slot);
                    if slot == next_slot {
                        self.peers.push(addr);
                    }
                    batch.push((slot, self.buf[..len].to_vec()));
                }
                Err(e) if polling::is_not_ready(&e) => break,
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// `send_to` with a retry on transient tx-queue pressure (rare on
    /// loopback; UDP never blocks on the receiver).
    fn send(&mut self, slot: usize, bytes: &[u8]) -> io::Result<()> {
        loop {
            match self.sock.send_to(bytes, self.peers[slot]) {
                Ok(_) => return Ok(()),
                Err(e) if polling::is_not_ready(&e) => std::thread::yield_now(),
                Err(e) => return Err(e),
            }
        }
    }
}

/// Serve over UDP: the shared batch loop over datagrams from a
/// nonblocking socket, replies sent back to each datagram's source
/// address.
///
/// # Errors
/// Any socket error other than the would-block/timed-out family.
pub fn serve(
    server: &mut BrokerServer,
    sock: &UdpSocket,
    stop: &AtomicBool,
    _cfg: &ServeConfig,
) -> io::Result<()> {
    sock.set_nonblocking(true)?;
    let mut udp = UdpFrames {
        sock,
        poller: Poller::new()?,
        buf: vec![0u8; RECV_BUF_LEN],
        peers: Vec::new(),
        peer_index: HashMap::new(),
    };
    batch_loop(server, &mut udp, stop)
}

// ----- TCP stream transport -----

/// What a TCP connection's reader thread reports to the serve loop:
/// the connection's slot and one complete frame, re-framed to the same
/// bytes a datagram would carry (so [`BrokerServer::process_batch`] runs
/// one decode path), or the read error that ended the connection. An
/// `InvalidData` error is an oversized length prefix — a protocol
/// error, counted against `bad_frames`.
type TcpEvent = (usize, io::Result<Vec<u8>>);

/// Bound on buffered frames between the reader threads and the serve
/// loop — backpressure: readers stop pulling from their sockets when the
/// serve loop falls this far behind.
const TCP_EVENT_BOUND: usize = 4096;

/// TCP frames: one blocking reader thread per accepted connection feeds
/// a bounded channel; the client slot is the connection's index.
struct TcpFrames<'a> {
    listener: &'a TcpListener,
    tx: mpsc::SyncSender<TcpEvent>,
    rx: mpsc::Receiver<TcpEvent>,
    conns: Vec<Option<TcpStream>>,
    readers: Vec<std::thread::JoinHandle<()>>,
}

impl TcpFrames<'_> {
    /// Accept every connection currently queued on the (nonblocking)
    /// listener, starting a blocking reader thread per connection. A
    /// connection whose reader cannot be started is shut down and
    /// counted as refused; the server keeps serving.
    fn accept_pending(&mut self, server: &mut BrokerServer) -> io::Result<()> {
        loop {
            let stream = match self.listener.accept() {
                Ok((stream, _addr)) => stream,
                Err(e) if polling::is_not_ready(&e) => return Ok(()),
                Err(e) => return Err(e),
            };
            let id = self.conns.len();
            stream.set_nodelay(true).ok();
            let tx = self.tx.clone();
            let reader = stream.try_clone().and_then(|mut read_half| {
                std::thread::Builder::new()
                    .name(format!("brokerd-tcp-{id}"))
                    .spawn(move || loop {
                        let read = read_frame(&mut read_half).map(|payload| frame(&payload));
                        let last = read.is_err();
                        if tx.send((id, read)).is_err() || last {
                            break;
                        }
                    })
            });
            match reader {
                Ok(handle) => {
                    self.readers.push(handle);
                    self.conns.push(Some(stream));
                }
                Err(_) => {
                    let _ = stream.shutdown(Shutdown::Both);
                    server.counters.tcp_refused += 1;
                    server.tcp_refused.inc();
                }
            }
        }
    }

    /// Batch a frame, or drop a connection whose reader has ended — the
    /// stream cannot be resynchronized after a framing violation.
    fn handle(&mut self, (id, read): TcpEvent, server: &mut BrokerServer, batch: &mut Batch) {
        match read {
            Ok(bytes) => batch.push((id, bytes)),
            Err(e) => {
                if e.kind() == io::ErrorKind::InvalidData {
                    server.bad_frame();
                }
                if let Some(conn) = self.conns[id].take() {
                    let _ = conn.shutdown(Shutdown::Both);
                }
            }
        }
    }
}

impl Transport for TcpFrames<'_> {
    fn wait(&mut self, server: &mut BrokerServer, batch: &mut Batch) -> io::Result<bool> {
        self.accept_pending(server)?;
        // `self.tx` keeps the channel connected, so the only error is
        // the timeout.
        let Ok(ev) = self.rx.recv_timeout(WAIT_TIMEOUT) else {
            return Ok(false);
        };
        self.handle(ev, server, batch);
        Ok(true)
    }

    fn drain(&mut self, server: &mut BrokerServer, batch: &mut Batch) -> io::Result<()> {
        while batch.len() < MAX_BATCH {
            let Ok(ev) = self.rx.try_recv() else { break };
            self.handle(ev, server, batch);
        }
        Ok(())
    }

    /// Reply bytes are already length-prefixed frames (the exact bytes
    /// `write_frame` would emit — one framing for datagram and stream
    /// transports). A failed write drops the connection, not the server.
    fn send(&mut self, slot: usize, bytes: &[u8]) -> io::Result<()> {
        let ok = self.conns[slot]
            .as_mut()
            .is_some_and(|stream| stream.write_all(bytes).is_ok());
        if !ok {
            self.conns[slot] = None;
        }
        Ok(())
    }
}

/// Serve over TCP: the shared batch loop over frames from every accepted
/// connection. One blocking reader thread per connection turns the byte
/// stream into frames via [`read_frame`] (so requests bigger than any
/// UDP datagram work end-to-end — the stream transport's whole point),
/// and replies are written back on the serving thread in arrival order.
///
/// An oversized length prefix surfaces as `InvalidData` in the reader,
/// counts one bad frame, and drops the connection — the stream cannot be
/// resynchronized after a framing violation.
///
/// # Errors
/// Listener errors other than the would-block family.
pub fn serve_tcp(
    server: &mut BrokerServer,
    listener: &TcpListener,
    stop: &AtomicBool,
    _cfg: &ServeConfig,
) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let (tx, rx) = mpsc::sync_channel(TCP_EVENT_BOUND);
    let mut tcp = TcpFrames {
        listener,
        tx,
        rx,
        conns: Vec::new(),
        readers: Vec::new(),
    };
    let result = batch_loop(server, &mut tcp, stop);
    // Send FIN behind the flushed replies and unblock the reader threads
    // (they sit in blocking reads or on a full channel), then reap them.
    for conn in tcp.conns.iter().flatten() {
        let _ = conn.shutdown(Shutdown::Both);
    }
    drop(tcp.rx);
    for h in tcp.readers {
        let _ = h.join();
    }
    // Closing a socket with unread data resets the connection, and the
    // reset discards replies the kernel has not sent yet. Read the
    // receive queue dry first (after the read-side shutdown an empty
    // queue reads as EOF, so this never blocks).
    let mut sink = [0u8; 4096];
    for mut conn in tcp.conns.into_iter().flatten() {
        while matches!(conn.read(&mut sink), Ok(n) if n > 0) {}
    }
    result
}

// ----- Deterministic population + load generator -----

/// The deterministic key population shared by the server and every load
/// generator: the same seed path as `exp_broker` (CA from `[0xCA; 32]`,
/// broker keys, telco keys, then one `UeKeys` per subscriber off one
/// `SimRng`), so a server and a client started with the same `--seed`
/// and `--n` agree on every identity without exchanging state.
pub struct Population {
    /// The certificate authority.
    pub ca: CertificateAuthority,
    /// Broker keys (name [`BROKER_NAME`]).
    pub broker: BrokerKeys,
    /// The forwarding bTelco's keys (name [`TELCO_NAME`]).
    pub telco: TelcoKeys,
    /// Subscriber UE keys, in provisioning order.
    pub ues: Vec<UeKeys>,
}

/// Build the deterministic population for `seed` with `n_ues` subscribers.
#[must_use]
pub fn population(seed: u64, n_ues: usize) -> Population {
    let mut rng = SimRng::new(seed);
    let ca = CertificateAuthority::from_seed([0xCA; 32]);
    let broker = BrokerKeys::generate(BROKER_NAME, &ca, &mut rng);
    let telco = TelcoKeys::generate(TELCO_NAME, &ca, &mut rng);
    let ues = (0..n_ues).map(|_| UeKeys::generate(&mut rng)).collect();
    Population {
        ca,
        broker,
        telco,
        ues,
    }
}

impl Population {
    /// An inline (pool-less) server over this population, with every UE
    /// provisioned.
    #[must_use]
    pub fn server(&self, rng: SimRng) -> BrokerServer {
        self.server_with_workers(rng, 0)
    }

    /// A server over this population backed by `workers` crypto threads
    /// (0 = inline), with every UE provisioned.
    #[must_use]
    pub fn server_with_workers(&self, rng: SimRng, workers: usize) -> BrokerServer {
        let mut server = BrokerServer::with_workers(
            BrokerServerConfig {
                keys: self.broker.clone(),
                ca: self.ca.public_key(),
            },
            rng,
            workers,
        );
        for ue in &self.ues {
            let (sign_pk, encrypt_pk) = ue.public();
            server.provision(ue.identity(), sign_pk, encrypt_pk, 50_000_000);
        }
        server
    }
}

/// Pre-build `burst` framed `AuthReq` datagrams round-robining over the
/// given UEs (each request carries a fresh nonce, so every one is
/// accepted exactly once). Building costs real crypto (a UE seal+sign
/// and a bTelco sign per request), which is why the load generator
/// builds *before* the timed window opens.
#[must_use]
pub fn build_requests(
    pop: &Population,
    ues: &[usize],
    burst: usize,
    rng: &mut SimRng,
) -> Vec<Vec<u8>> {
    let broker_epk = pop.broker.encrypt.public_key();
    (0..burst)
        .map(|i| {
            let ue = &pop.ues[ues[i % ues.len()]];
            let (req_u, _nonce) =
                sap::ue_build_request(ue, BROKER_NAME, &broker_epk, pop.telco.identity(), rng);
            let req_t = sap::telco_wrap_request(
                &pop.telco,
                req_u,
                QosCap {
                    max_mbr_bps: 100_000_000,
                    qci_supported: vec![9],
                    li_capable: true,
                },
            );
            frame(
                &BrokerWire::AuthReq {
                    req_id: i as u64,
                    req_t: req_t.encode(),
                }
                .encode(),
            )
        })
        .collect()
}

/// Load-generator client configuration.
pub struct ClientConfig {
    /// Server address.
    pub server: SocketAddr,
    /// Maximum requests in flight. `1` is strict ping-pong — the
    /// single-request-per-batch baseline the batching win is measured
    /// against.
    pub window: usize,
    /// Telemetry histogram receiving per-request latency, microseconds.
    pub rtt_hist: String,
}

/// A UDP client re-sends a request with no reply after this long (the
/// stream transport is reliable and never retransmits).
const RETRANSMIT_AFTER: Duration = Duration::from_millis(500);

/// A client gives up on every unanswered request after this long.
const CLIENT_DEADLINE: Duration = Duration::from_secs(120);

/// What one load-generator client observed.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClientOutcome {
    /// Requests answered `AuthOk`.
    pub ok: u64,
    /// Requests answered `AuthErr` (e.g. a retransmit racing its own
    /// original reply gets refused as a replay — the auth was served).
    pub refused: u64,
    /// Datagrams re-sent after the retransmit timeout.
    pub retransmits: u64,
    /// Requests still unanswered at the deadline.
    pub lost: u64,
}

/// The windowed client both transports run: pump `requests` through a
/// bounded window with `send`, match the replies `recv` decodes to
/// requests by `req_id`, and re-send stale requests if `retransmit`,
/// until every request is answered or `CLIENT_DEADLINE` passes. `recv`
/// yields `None` for a reply that does not decode; a not-ready error is
/// a read timeout.
fn client_loop(
    cfg: &ClientConfig,
    requests: &[Vec<u8>],
    retransmit: bool,
    send: impl Fn(&[u8]) -> io::Result<()>,
    mut recv: impl FnMut() -> io::Result<Option<BrokerWire>>,
) -> io::Result<ClientOutcome> {
    let hist = telemetry::histogram(cfg.rtt_hist.clone());
    let mut outcome = ClientOutcome::default();
    // req_id (= index into `requests`) -> last send time.
    let mut outstanding: HashMap<u64, Instant> = HashMap::new();
    let mut next = 0usize;
    let mut done = 0usize;
    let start = Instant::now();
    while done < requests.len() {
        if start.elapsed() >= CLIENT_DEADLINE {
            outcome.lost = (requests.len() - done) as u64;
            break;
        }
        // Top up the window.
        while outstanding.len() < cfg.window && next < requests.len() {
            send(&requests[next])?;
            outstanding.insert(next as u64, Instant::now());
            next += 1;
        }
        let answer = match recv() {
            Ok(Some(BrokerWire::AuthOk { req_id, .. })) => Some((req_id, true)),
            Ok(Some(BrokerWire::AuthErr { req_id, .. })) => Some((req_id, false)),
            Ok(_) => None,
            Err(e) if polling::is_not_ready(&e) => None,
            Err(e) => return Err(e),
        };
        let answered = answer.and_then(|(req_id, ok)| Some((outstanding.remove(&req_id)?, ok)));
        if let Some((sent, ok)) = answered {
            hist.record(sent.elapsed().as_micros() as u64);
            if ok {
                outcome.ok += 1;
            } else {
                outcome.refused += 1;
            }
            done += 1;
        }
        if retransmit {
            let now = Instant::now();
            for (&req_id, sent) in &mut outstanding {
                if now.duration_since(*sent) >= RETRANSMIT_AFTER {
                    send(&requests[req_id as usize])?;
                    *sent = now;
                    outcome.retransmits += 1;
                }
            }
        }
    }
    Ok(outcome)
}

/// Drive one client over its own UDP socket, retransmitting requests
/// with no reply after 500 ms, for at most 120 s.
///
/// # Errors
/// Socket setup or I/O errors other than the would-block family.
pub fn run_client(cfg: &ClientConfig, requests: &[Vec<u8>]) -> io::Result<ClientOutcome> {
    let sock = UdpSocket::bind(("127.0.0.1", 0))?;
    sock.connect(cfg.server)?;
    // The read timeout bounds how stale the retransmit scan can get.
    sock.set_read_timeout(Some(Duration::from_millis(5)))?;
    let mut buf = vec![0u8; RECV_BUF_LEN];
    client_loop(
        cfg,
        requests,
        true,
        |frame| sock.send(frame).map(drop),
        || {
            let n = sock.recv(&mut buf)?;
            Ok(unframe(&buf[..n]).ok().and_then(BrokerWire::decode))
        },
    )
}

/// Drive one client over a TCP stream, for at most 120 s. The transport
/// is reliable, so nothing is retransmitted — an unanswered request past
/// the deadline counts as lost.
///
/// # Errors
/// Connection setup or I/O errors other than the timeout family.
pub fn run_client_tcp(cfg: &ClientConfig, requests: &[Vec<u8>]) -> io::Result<ClientOutcome> {
    let stream = TcpStream::connect(cfg.server)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(CLIENT_DEADLINE))?;
    // The pre-built requests are already length-prefixed frames — the
    // same bytes `write_frame` emits.
    client_loop(
        cfg,
        requests,
        false,
        |frame| (&stream).write_all(frame),
        || Ok(BrokerWire::decode(&read_frame(&mut &stream)?)),
    )
}

/// Send one `Report` frame over an existing framed byte stream — used by
/// the TCP smoke test to prove frames far larger than any UDP datagram
/// survive the stream transport end-to-end.
///
/// # Errors
/// Underlying stream write errors.
pub fn send_report_tcp(stream: &mut TcpStream, session_id: u64, sealed: &[u8]) -> io::Result<()> {
    let payload = BrokerWire::Report {
        session_id,
        from_ue: true,
        sealed: Bytes::copy_from_slice(sealed),
    }
    .encode();
    write_frame(stream, &payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn served_world(n_ues: usize) -> (Population, BrokerServer) {
        let pop = population(7, n_ues);
        let server = pop.server(SimRng::new(99));
        (pop, server)
    }

    #[test]
    fn single_request_roundtrips_through_process_batch() {
        let (pop, mut server) = served_world(1);
        let mut rng = SimRng::new(11);
        let reqs = build_requests(&pop, &[0], 1, &mut rng);
        let mut out = Vec::new();
        server.process_batch(&[(0, &reqs[0])], &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(server.counters.served_auths, 1);
        let payload = unframe(&out[0].1).expect("framed reply");
        let Some(BrokerWire::AuthOk { req_id: 0, reply }) = BrokerWire::decode(payload) else {
            panic!("expected AuthOk");
        };
        let reply = sap::BrokerReply::decode(&reply).expect("reply decodes");
        let t_body = sap::telco_verify_reply(&pop.telco, &pop.ca.public_key(), &reply)
            .expect("telco verifies");
        assert_eq!(t_body.session_id, 1);
    }

    #[test]
    fn cross_connection_batch_serves_every_client() {
        let (pop, mut server) = served_world(8);
        let mut rng = SimRng::new(12);
        // 4 "connections", 2 requests each, pooled into one batch.
        let per_client: Vec<Vec<Vec<u8>>> = (0..4)
            .map(|c| build_requests(&pop, &[2 * c, 2 * c + 1], 2, &mut rng))
            .collect();
        let mut datagrams = Vec::new();
        for (c, reqs) in per_client.iter().enumerate() {
            for r in reqs {
                datagrams.push((c, r.as_slice()));
            }
        }
        let mut out = Vec::new();
        server.process_batch(&datagrams, &mut out);
        assert_eq!(server.counters.served_auths, 8);
        assert_eq!(server.counters.auth_errs, 0);
        assert_eq!(out.len(), 8);
        // Replies are routed back to the right client slots.
        let mut per_slot = [0u32; 4];
        for (slot, _) in &out {
            per_slot[*slot] += 1;
        }
        assert_eq!(per_slot, [2, 2, 2, 2]);
    }

    #[test]
    fn replayed_datagram_refused_with_nonce_mismatch() {
        let (pop, mut server) = served_world(1);
        let mut rng = SimRng::new(13);
        let reqs = build_requests(&pop, &[0], 1, &mut rng);
        let mut out = Vec::new();
        server.process_batch(&[(0, &reqs[0]), (0, &reqs[0])], &mut out);
        assert_eq!(server.counters.served_auths, 1);
        assert_eq!(server.counters.auth_errs, 1);
        let payload = unframe(&out[1].1).unwrap();
        let Some(BrokerWire::AuthErr { code, .. }) = BrokerWire::decode(payload) else {
            panic!("replay must be refused");
        };
        assert_eq!(code, sap::SapError::NonceMismatch as u8);
    }

    #[test]
    fn one_bad_signature_does_not_poison_the_pooled_batch() {
        let (pop, mut server) = served_world(3);
        let mut rng = SimRng::new(14);
        let good = build_requests(&pop, &[0, 1], 2, &mut rng);
        // Corrupt the UE signature inside a third request: flip a byte
        // in the framed bytes past the headers. Decode still succeeds,
        // signature verification must not.
        let mut evil = build_requests(&pop, &[2], 1, &mut rng).remove(0);
        let idx = evil.len() - 100;
        evil[idx] ^= 0x40;
        let mut out = Vec::new();
        server.process_batch(&[(0, &good[0]), (1, &evil), (2, &good[1])], &mut out);
        // The two good requests are served despite the pooled batch
        // failing; the bad one gets an attributed error.
        assert_eq!(server.counters.served_auths, 2);
        assert_eq!(server.counters.auth_errs, 1);
    }

    #[test]
    fn unknown_subscriber_attributed_exactly() {
        let (pop, server) = served_world(2);
        // Provision only UE 0 on a fresh server: requests from UE 1 are
        // structurally fine but unknown.
        let mut server2 = {
            let mut s = BrokerServer::new(
                BrokerServerConfig {
                    keys: pop.broker.clone(),
                    ca: pop.ca.public_key(),
                },
                SimRng::new(98),
            );
            let (spk, epk) = pop.ues[0].public();
            s.provision(pop.ues[0].identity(), spk, epk, 50_000_000);
            s
        };
        let mut rng = SimRng::new(15);
        let reqs = build_requests(&pop, &[1], 1, &mut rng);
        let mut out = Vec::new();
        server2.process_batch(&[(0, &reqs[0])], &mut out);
        let payload = unframe(&out[0].1).unwrap();
        let Some(BrokerWire::AuthErr { code, .. }) = BrokerWire::decode(payload) else {
            panic!("unknown subscriber must be refused");
        };
        assert_eq!(code, sap::SapError::UnknownUser as u8);
        drop(server);
    }

    #[test]
    fn garbage_and_reports_counted_not_served() {
        let (pop, mut server) = served_world(1);
        let report = frame(
            &BrokerWire::Report {
                session_id: 1,
                from_ue: true,
                sealed: Bytes::from_static(b"sealed"),
            }
            .encode(),
        );
        let mut out = Vec::new();
        server.process_batch(&[(0, b"not a frame".as_slice()), (0, &report)], &mut out);
        assert!(out.is_empty());
        assert_eq!(server.counters.bad_frames, 1);
        assert_eq!(server.counters.wire_reports, 1);
        drop(pop);
    }

    /// End-to-end over a real loopback UDP socket: serve loop thread +
    /// one pipelined client.
    #[test]
    fn serve_loop_end_to_end_over_loopback() {
        let pop = population(21, 4);
        let mut server = pop.server(SimRng::new(97));
        let sock = UdpSocket::bind("127.0.0.1:0").expect("bind");
        let addr = sock.local_addr().unwrap();
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let stop2 = std::sync::Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            serve(&mut server, &sock, &stop2, &ServeConfig::default()).expect("serve");
            server
        });

        let mut rng = SimRng::new(22);
        let requests = build_requests(&pop, &[0, 1, 2, 3], 24, &mut rng);
        let outcome = run_client(
            &ClientConfig {
                server: addr,
                window: 8,
                rtt_hist: "test.brokerd.rtt_us".to_string(),
            },
            &requests,
        )
        .expect("client");
        stop.store(true, Ordering::Relaxed);
        let server = handle.join().expect("server thread");
        assert_eq!(outcome.lost, 0, "no request may go unanswered");
        assert_eq!(outcome.ok + outcome.refused, 24);
        assert!(outcome.ok >= 1);
        assert_eq!(server.counters.bad_frames, 0);
        assert_eq!(
            server.counters.served_auths, 24,
            "every distinct nonce authorizes exactly once"
        );
    }

    /// End-to-end over a real loopback TCP stream with a pooled server:
    /// windowed client, plus a Report frame far larger than the UDP
    /// receive buffer to prove the stream transport's point.
    #[test]
    fn serve_tcp_end_to_end_over_loopback() {
        let pop = population(23, 4);
        let mut server = pop.server_with_workers(SimRng::new(96), 2);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            serve_tcp(&mut server, &listener, &stop2, &ServeConfig::default()).expect("serve_tcp");
            server
        });

        // A huge Report first: 3x the UDP receive buffer, impossible to
        // carry in one datagram of the UDP transport.
        let mut reporter = TcpStream::connect(addr).expect("connect");
        let big = vec![0x5a_u8; 3 * RECV_BUF_LEN];
        send_report_tcp(&mut reporter, 1, &big).expect("report");

        let mut rng = SimRng::new(24);
        let mut requests = build_requests(&pop, &[0, 1, 2, 3], 25, &mut rng);
        // The report draws no reply. One reader thread keeps a
        // connection's frames in order, so once a request sent after it
        // on the same connection is answered, the report was handled.
        let probe = requests.pop().expect("probe request");
        reporter.write_all(&probe).expect("probe");
        let answer = read_frame(&mut reporter).expect("probe reply");
        assert!(matches!(
            BrokerWire::decode(&answer),
            Some(BrokerWire::AuthOk { .. })
        ));
        let outcome = run_client_tcp(
            &ClientConfig {
                server: addr,
                window: 8,
                rtt_hist: "test.brokerd.tcp_rtt_us".to_string(),
            },
            &requests,
        )
        .expect("tcp client");
        stop.store(true, Ordering::Relaxed);
        let server = handle.join().expect("server thread");
        assert_eq!(outcome.lost, 0, "no request may go unanswered");
        assert_eq!(outcome.ok, 24, "fresh nonces all authorize over TCP");
        assert_eq!(server.counters.bad_frames, 0);
        assert_eq!(server.counters.served_auths, 25);
        assert_eq!(
            server.counters.wire_reports, 1,
            "the oversized-for-UDP report frame must arrive intact"
        );
    }

    /// An oversized length prefix on a TCP stream counts one bad frame
    /// and drops only that connection; the server keeps serving.
    #[test]
    fn tcp_oversized_prefix_drops_connection_not_server() {
        let pop = population(25, 1);
        let mut server = pop.server(SimRng::new(95));
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            serve_tcp(&mut server, &listener, &stop2, &ServeConfig::default()).expect("serve_tcp");
            server
        });

        let mut evil = TcpStream::connect(addr).expect("connect");
        evil.write_all(&u32::MAX.to_be_bytes())
            .expect("evil prefix");
        // A well-behaved client on its own connection is unaffected.
        let mut rng = SimRng::new(26);
        let requests = build_requests(&pop, &[0], 4, &mut rng);
        let outcome = run_client_tcp(
            &ClientConfig {
                server: addr,
                window: 2,
                rtt_hist: "test.brokerd.tcp_evil_rtt_us".to_string(),
            },
            &requests,
        )
        .expect("tcp client");
        stop.store(true, Ordering::Relaxed);
        let server = handle.join().expect("server thread");
        assert_eq!(outcome.ok, 4);
        assert_eq!(outcome.lost, 0);
        assert_eq!(server.counters.bad_frames, 1, "hostile prefix counted");
        drop(evil);
    }
}
