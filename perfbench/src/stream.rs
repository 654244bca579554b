//! Request streams for the wire workloads and the load generator that
//! drives them over loopback UDP.
//!
//! A stream is built before any timed window opens. Every item carries the
//! outcome it must get, so the generator's results can be checked exactly:
//! valid requests expect `AuthOk`, each hostile kind expects its own
//! refusal code, and garbage datagrams expect no reply at all.

use cellbricks_core::broker_server::{Population, BROKER_NAME};
use cellbricks_core::brokerd::BrokerWire;
use cellbricks_core::principal::UeKeys;
use cellbricks_core::sap::{self, QosCap, SapError};
use cellbricks_net::wire::{frame, unframe};
use cellbricks_sim::SimRng;
use std::collections::{HashSet, VecDeque};
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// What a stream item is, and therefore which outcome it must get.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A fresh, well-formed request from a provisioned UE.
    Valid,
    /// A byte-for-byte copy of an earlier answered valid request (new
    /// request id, same nonce).
    Replay,
    /// A provisioned UE's request whose UE signature has one bit flipped
    /// (the bTelco signs over the flipped request).
    BadUeSig,
    /// A valid request whose bTelco signature has one bit flipped.
    BadTelcoSig,
    /// A well-formed request from a UE the broker never provisioned.
    Unknown,
    /// A datagram whose length prefix disagrees with its body.
    Garbage,
}

impl Kind {
    /// The refusal code this kind must draw (`None` for valid requests
    /// and garbage).
    pub fn expected_code(self) -> Option<u8> {
        match self {
            Kind::Replay => Some(SapError::NonceMismatch as u8),
            Kind::BadUeSig => Some(SapError::BadUeSig as u8),
            Kind::BadTelcoSig => Some(SapError::BadTelcoSig as u8),
            Kind::Unknown => Some(SapError::UnknownUser as u8),
            Kind::Valid | Kind::Garbage => None,
        }
    }
}

/// One pre-built datagram and what it must produce.
pub struct Item {
    pub kind: Kind,
    pub dgram: Vec<u8>,
    /// Valid items: the population index of the sending UE.
    pub ue: usize,
    /// Valid items: the nonce the UE will check in the reply.
    pub nonce: [u8; 16],
    /// Replay items: the stream index of the copied request.
    pub orig: usize,
}

/// The hostile slice of a stream, in items per thousand.
#[derive(Clone, Copy, Default)]
pub struct Hostile {
    pub replay: u32,
    pub bad_ue_sig: u32,
    pub bad_telco_sig: u32,
    pub unknown: u32,
    pub garbage: u32,
}

/// Everything needed to build requests for one population.
pub struct Builder<'a> {
    pub pop: &'a Population,
    /// Keys the broker never provisioned (source of `Unknown` items).
    pub strangers: &'a [UeKeys],
    pub seed: u64,
}

/// The request id of stream item `idx` in phase `phase`.
pub fn req_id(phase: u32, idx: usize) -> u64 {
    (u64::from(phase) << 32) | idx as u64
}

fn qos() -> QosCap {
    QosCap {
        max_mbr_bps: 100_000_000,
        qci_supported: vec![9],
        li_capable: true,
    }
}

/// Time spent inside the SAP request-building calls.
#[derive(Clone, Copy, Default)]
pub struct BuildCost {
    pub ue_build: Duration,
    pub telco_wrap: Duration,
    pub built: u64,
}

impl Builder<'_> {
    /// Build one `AuthReq` datagram from `ue` through the bTelco, with
    /// optional corruption of either signature.
    fn request(
        &self,
        ue: &UeKeys,
        id: u64,
        rng: &mut SimRng,
        kind: Kind,
        cost: &mut BuildCost,
    ) -> (Vec<u8>, [u8; 16]) {
        let pop = self.pop;
        let t0 = Instant::now();
        let (mut req_u, nonce) = sap::ue_build_request(
            ue,
            BROKER_NAME,
            &pop.broker.encrypt.public_key(),
            pop.telco.identity(),
            rng,
        );
        let t1 = Instant::now();
        if kind == Kind::BadUeSig {
            req_u.sig.0[7] ^= 0x10;
        }
        let mut req_t = sap::telco_wrap_request(&pop.telco, req_u, qos());
        let t2 = Instant::now();
        if kind == Kind::BadTelcoSig {
            req_t.sig.0[7] ^= 0x10;
        }
        cost.ue_build += t1 - t0;
        cost.telco_wrap += t2 - t1;
        cost.built += 1;
        let dgram = frame(
            &BrokerWire::AuthReq {
                req_id: id,
                req_t: req_t.encode(),
            }
            .encode(),
        );
        (dgram, nonce)
    }

    /// Build `n` items of phase `phase`: valid requests round-robin over
    /// population indices starting at `*cursor` (which advances), with
    /// `hostile` mixed in. Construction runs on `threads` threads; every
    /// item draws from its own seed-derived RNG, so the bytes do not
    /// depend on the thread count.
    pub fn stream(
        &self,
        phase: u32,
        n: usize,
        cursor: &mut usize,
        hostile: Hostile,
        replay_lag: usize,
        threads: usize,
    ) -> (Vec<Item>, BuildCost) {
        // Plan the kinds sequentially (one RNG), then build in parallel.
        let mut plan_rng = SimRng::new(self.seed ^ 0x706c_616e ^ (u64::from(phase) << 40));
        let ues = self.pop.ues.len();
        let mut plan: Vec<(Kind, usize)> = Vec::with_capacity(n);
        let mut stranger = 0usize;
        for i in 0..n {
            let u = (plan_rng.unit() * 1000.0) as u32;
            let cuts = [
                (hostile.replay, Kind::Replay),
                (hostile.bad_ue_sig, Kind::BadUeSig),
                (hostile.bad_telco_sig, Kind::BadTelcoSig),
                (hostile.unknown, Kind::Unknown),
                (hostile.garbage, Kind::Garbage),
            ];
            let mut kind = Kind::Valid;
            let mut edge = 0;
            for (permille, k) in cuts {
                edge += permille;
                if u < edge {
                    kind = k;
                    break;
                }
            }
            // A replay needs a valid original `replay_lag` items back.
            if kind == Kind::Replay && (i < replay_lag || plan[i - replay_lag].0 != Kind::Valid) {
                kind = Kind::Valid;
            }
            let who = match kind {
                Kind::Valid | Kind::BadUeSig | Kind::BadTelcoSig => {
                    let ue = *cursor % ues;
                    *cursor += 1;
                    ue
                }
                Kind::Unknown => {
                    stranger += 1;
                    (stranger - 1) % self.strangers.len().max(1)
                }
                Kind::Replay => i - replay_lag,
                Kind::Garbage => 0,
            };
            plan.push((kind, who));
        }

        let chunk = n.div_ceil(threads.max(1)).max(1);
        let parts: Vec<(Vec<Item>, BuildCost)> = std::thread::scope(|s| {
            let handles: Vec<_> = plan
                .chunks(chunk)
                .enumerate()
                .map(|(ci, slice)| {
                    s.spawn(move || {
                        let mut cost = BuildCost::default();
                        let items = slice
                            .iter()
                            .enumerate()
                            .map(|(j, &(kind, who))| {
                                let idx = ci * chunk + j;
                                self.item(phase, idx, kind, who, &mut cost)
                            })
                            .collect();
                        (items, cost)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("stream builder thread"))
                .collect()
        });
        let mut items = Vec::with_capacity(n);
        let mut cost = BuildCost::default();
        for (part, c) in parts {
            items.extend(part);
            cost.ue_build += c.ue_build;
            cost.telco_wrap += c.telco_wrap;
            cost.built += c.built;
        }
        // Replays re-frame their original's authReqT under a new id.
        for i in 0..items.len() {
            if items[i].kind == Kind::Replay {
                let orig = items[i].orig;
                items[i].dgram = reframe(&items[orig].dgram, req_id(phase, i));
                items[i].nonce = items[orig].nonce;
            }
        }
        (items, cost)
    }

    fn item(&self, phase: u32, idx: usize, kind: Kind, who: usize, cost: &mut BuildCost) -> Item {
        let id = req_id(phase, idx);
        let mut rng = SimRng::new(
            self.seed ^ (u64::from(phase) << 48) ^ (idx as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        );
        let (dgram, nonce, ue, orig) = match kind {
            Kind::Valid | Kind::BadUeSig | Kind::BadTelcoSig => {
                let (d, nonce) = self.request(&self.pop.ues[who], id, &mut rng, kind, cost);
                (d, nonce, who, 0)
            }
            Kind::Unknown => {
                let (d, nonce) = self.request(&self.strangers[who], id, &mut rng, kind, cost);
                (d, nonce, 0, 0)
            }
            Kind::Replay => (Vec::new(), [0; 16], 0, who),
            Kind::Garbage => {
                let mut body = vec![0u8; 24 + (idx % 40)];
                rng.fill_bytes(&mut body);
                // The prefix claims one byte more than follows: always a
                // truncated frame, never a decodable one.
                let mut d = ((body.len() + 1) as u32).to_be_bytes().to_vec();
                d.extend_from_slice(&body);
                (d, [0; 16], 0, 0)
            }
        };
        Item {
            kind,
            dgram,
            ue,
            nonce,
            orig,
        }
    }
}

/// The same `authReqT` under a different request id.
fn reframe(dgram: &[u8], id: u64) -> Vec<u8> {
    let payload = unframe(dgram).expect("built frames are well-formed");
    match BrokerWire::decode(payload) {
        Some(BrokerWire::AuthReq { req_t, .. }) => {
            frame(&BrokerWire::AuthReq { req_id: id, req_t }.encode())
        }
        _ => unreachable!("replays copy AuthReq frames"),
    }
}

/// Poisson due times (offsets from the phase start) at `rate` per second
/// over `window`.
pub fn poisson_dues(rate: f64, window: Duration, seed: u64) -> Vec<Duration> {
    let mut rng = SimRng::new(seed ^ 0x706f_6973);
    let mut t = 0.0_f64;
    let mut dues = Vec::new();
    loop {
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= window.as_secs_f64() {
            return dues;
        }
        dues.push(Duration::from_secs_f64(t));
    }
}

/// How the generator paces a stream.
pub enum Mode {
    /// Send item i at `due[i]` after the start, whatever the replies.
    Open { due: Vec<Duration> },
    /// Keep `inflight` requests outstanding until `window` has passed.
    Closed { inflight: usize, window: Duration },
}

/// One reply as the receiver saw it.
pub struct Answer {
    pub at: Instant,
    /// `Ok(reply datagram)` for `AuthOk`, `Err(code)` for `AuthErr`.
    pub result: Result<Vec<u8>, u8>,
}

/// What one pass of the generator observed.
pub struct PumpOut {
    pub start: Instant,
    /// When the generator stopped issuing new items.
    pub stop: Instant,
    /// Per item: the first reply, if any. Reply bytes are kept only for
    /// every `VERIFY_EVERY`-th item (the verification sample).
    pub answers: Vec<Option<Answer>>,
    /// Per item: when it was first sent (`None`: never sent).
    pub sent: Vec<Option<Instant>>,
    /// Per item (open loop): the instant it was due.
    pub due: Vec<Option<Instant>>,
    pub retransmits: u64,
    /// Open loop: how late each send was against its due time, µs.
    pub lag_us: Vec<f64>,
    /// Consecutive slices of the send window: (server CPU ns, replies).
    pub slices: Vec<(u64, u64)>,
}

/// Cuts the send window into slices of `every`, reading the server's CPU
/// time at each cut, so a run yields many cost samples instead of one.
pub struct Slicer<'a> {
    pub every: Duration,
    pub cpu_ns: &'a dyn Fn() -> u64,
}

/// Reply bytes are kept, and verified, for every `VERIFY_EVERY`-th item.
pub const VERIFY_EVERY: usize = 16;
/// An unanswered request is re-sent after this long, like `run_client`.
const RETRANSMIT: Duration = Duration::from_millis(500);
/// How long after the send window outstanding requests may be answered.
const DRAIN: Duration = Duration::from_secs(3);

/// Drive `items` at `server` from one UDP socket (see [`Replies`] for
/// how replies are read). A replay is held until its original has been
/// answered. Unanswered requests are re-sent after `RETRANSMIT` and keep
/// their original due time. After the send window closes, outstanding
/// requests get `DRAIN` to be answered.
pub fn pump(
    server: SocketAddr,
    items: &[Item],
    mode: &Mode,
    slicer: &Slicer<'_>,
) -> std::io::Result<PumpOut> {
    let sock = UdpSocket::bind(("127.0.0.1", 0))?;
    sock.connect(server)?;
    let mut replies = Replies::start(&sock, matches!(mode, Mode::Open { .. }))?;

    let n = items.len();
    let mut out = PumpOut {
        start: Instant::now(),
        stop: Instant::now(),
        answers: (0..n).map(|_| None).collect(),
        sent: vec![None; n],
        due: vec![None; n],
        retransmits: 0,
        lag_us: Vec::new(),
        slices: Vec::new(),
    };
    let start = out.start;
    let (window, inflight) = match mode {
        Mode::Open { due } => (due.last().copied().unwrap_or_default(), usize::MAX),
        Mode::Closed { inflight, window } => (*window, *inflight),
    };
    let stop = start + window;
    let mut last_sent: Vec<Option<Instant>> = vec![None; n];
    let mut outstanding: HashSet<usize> = HashSet::new();
    let mut held: VecDeque<usize> = VecDeque::new();
    let mut next = 0usize;
    let mut next_scan = start + Duration::from_millis(5);
    let mut sending_ended: Option<Instant> = None;
    let mut slice_end = start + slicer.every;
    let mut slice_from = ((slicer.cpu_ns)(), 0u64);
    let result = loop {
        let now = Instant::now();
        let mut to_send: Vec<usize> = Vec::new();
        // Held replays whose original has been answered go out first.
        while let Some(&i) = held.front() {
            if out.answers[items[i].orig].is_none() {
                break;
            }
            held.pop_front();
            to_send.push(i);
        }
        // New items.
        match mode {
            Mode::Open { due } => {
                while next < n && start + due[next] <= now {
                    let due_at = start + due[next];
                    out.due[next] = Some(due_at);
                    out.lag_us.push((now - due_at).as_secs_f64() * 1e6);
                    to_send.push(next);
                    next += 1;
                }
            }
            Mode::Closed { .. } => {
                while next < n
                    && now < stop
                    && outstanding.len() + held.len() + to_send.len() < inflight
                {
                    to_send.push(next);
                    next += 1;
                }
            }
        }
        let mut sent_ok = Ok(());
        for i in to_send {
            if items[i].kind == Kind::Replay && out.answers[items[i].orig].is_none() {
                held.push_back(i);
                continue;
            }
            sent_ok = sock.send(&items[i].dgram).map(|_| ());
            if sent_ok.is_err() {
                break;
            }
            out.sent[i] = Some(now);
            if items[i].kind != Kind::Garbage {
                last_sent[i] = Some(now);
                outstanding.insert(i);
            }
        }
        if let Err(e) = sent_ok {
            break Err(e);
        }
        // Retransmit anything stale; it keeps its original due time.
        if now >= next_scan {
            let stale: Vec<usize> = outstanding
                .iter()
                .copied()
                .filter(|&i| last_sent[i].is_some_and(|t| now - t >= RETRANSMIT))
                .collect();
            for i in stale {
                sent_ok = sock.send(&items[i].dgram).map(|_| ());
                if sent_ok.is_err() {
                    break;
                }
                last_sent[i] = Some(now);
                out.retransmits += 1;
            }
            next_scan = now + Duration::from_millis(5);
        }
        if let Err(e) = sent_ok {
            break Err(e);
        }
        if sending_ended.is_none() && now >= slice_end {
            let mark = ((slicer.cpu_ns)(), answered(&out));
            out.slices
                .push((mark.0 - slice_from.0, mark.1 - slice_from.1));
            slice_from = mark;
            slice_end = now + slicer.every;
        }
        let sending_over = match mode {
            Mode::Open { .. } => next >= n,
            Mode::Closed { .. } => next >= n || now >= stop,
        };
        if sending_over && sending_ended.is_none() {
            sending_ended = Some(now);
            out.stop = now;
        }
        if sending_over && held.is_empty() && outstanding.is_empty() {
            break Ok(());
        }
        let deadline = sending_ended.map(|t| t + DRAIN);
        if deadline.is_some_and(|d| now >= d) {
            break Ok(());
        }
        // Sleep until the next due send, the next scan, or a reply.
        let mut wake = next_scan;
        if let Some(d) = deadline {
            wake = wake.min(d);
        }
        if sending_ended.is_none() {
            wake = wake.min(slice_end);
        }
        match mode {
            Mode::Open { due } if next < n => wake = wake.min(start + due[next]),
            Mode::Closed { .. } if !sending_over => wake = wake.min(stop),
            _ => {}
        }
        let wait = wake.saturating_duration_since(Instant::now());
        match replies.wait(wait) {
            Ok(got) => {
                for msg in got {
                    record(items, msg, &mut out, &mut outstanding);
                }
            }
            Err(e) => break Err(e),
        }
    };
    // Replies that landed between the last check and the receiver's exit.
    for msg in replies.finish()? {
        record(items, msg, &mut out, &mut outstanding);
    }
    result.map(|()| out)
}

/// Replies recorded so far.
fn answered(out: &PumpOut) -> u64 {
    out.answers.iter().filter(|a| a.is_some()).count() as u64
}

/// One reply: request id, arrival instant, `AuthOk` bytes or `AuthErr` code.
type Reply = (u64, Instant, Result<Vec<u8>, u8>);

/// Where the generator's replies come from. The open loop reads them on
/// a polling receiver thread, so a reply is timestamped when it lands
/// rather than when a sleeping thread is woken (on a VM that wake-up can
/// cost milliseconds), while the generator thread sleeps until the next
/// due time. The closed loop sends only in reaction to replies, so one
/// thread blocks on the socket and leaves every other core to the server.
enum Replies {
    Polled {
        rx: mpsc::Receiver<Reply>,
        done: Arc<AtomicBool>,
        thread: std::thread::JoinHandle<std::io::Result<()>>,
    },
    Direct {
        sock: UdpSocket,
        buf: Vec<u8>,
    },
}

impl Replies {
    fn start(sock: &UdpSocket, polled: bool) -> std::io::Result<Self> {
        let rsock = sock.try_clone()?;
        if !polled {
            rsock.set_read_timeout(Some(Duration::from_millis(2)))?;
            return Ok(Replies::Direct {
                sock: rsock,
                buf: vec![0u8; 8 * 1024],
            });
        }
        rsock.set_nonblocking(true)?;
        let done = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::channel();
        let thread = {
            let done = Arc::clone(&done);
            std::thread::Builder::new()
                .name("perfbench-rx".into())
                .spawn(move || receive(&rsock, &done, &tx))?
        };
        Ok(Replies::Polled { rx, done, thread })
    }

    /// Replies that arrive within `wait` (at least one, unless it passes).
    fn wait(&mut self, wait: Duration) -> std::io::Result<Vec<Reply>> {
        match self {
            Replies::Polled { rx, .. } => match rx.recv_timeout(wait) {
                Ok(first) => Ok(std::iter::once(first).chain(rx.try_iter()).collect()),
                Err(mpsc::RecvTimeoutError::Timeout) => Ok(Vec::new()),
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    Err(std::io::Error::other("receiver thread ended early"))
                }
            },
            Replies::Direct { sock, buf } => match sock.recv(buf) {
                Ok(len) => Ok(decode_reply(&buf[..len], Instant::now())
                    .into_iter()
                    .collect()),
                Err(e) if not_ready(&e) => Ok(Vec::new()),
                Err(e) => Err(e),
            },
        }
    }

    /// Stop the receiver (if any) and return what it still held.
    fn finish(self) -> std::io::Result<Vec<Reply>> {
        match self {
            Replies::Polled { rx, done, thread } => {
                done.store(true, Ordering::SeqCst);
                thread
                    .join()
                    .map_err(|_| std::io::Error::other("receiver thread panicked"))??;
                Ok(rx.try_iter().collect())
            }
            Replies::Direct { .. } => Ok(Vec::new()),
        }
    }
}

fn not_ready(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Decode one reply datagram; anything but `AuthOk`/`AuthErr` is ignored.
fn decode_reply(dgram: &[u8], at: Instant) -> Option<Reply> {
    match BrokerWire::decode(unframe(dgram).ok()?)? {
        BrokerWire::AuthOk { req_id, .. } => Some((req_id, at, Ok(dgram.to_vec()))),
        BrokerWire::AuthErr { req_id, code } => Some((req_id, at, Err(code))),
        _ => None,
    }
}

fn record(
    items: &[Item],
    (id, at, mut result): Reply,
    out: &mut PumpOut,
    outstanding: &mut HashSet<usize>,
) {
    let i = (id & 0xffff_ffff) as usize;
    if i >= items.len() || out.sent[i].is_none() || out.answers[i].is_some() {
        return; // another phase's straggler, or a duplicate reply
    }
    if !i.is_multiple_of(VERIFY_EVERY) {
        if let Ok(bytes) = &mut result {
            *bytes = Vec::new(); // not sampled for verification
        }
    }
    out.answers[i] = Some(Answer { at, result });
    outstanding.remove(&i);
}

/// The polling receiver: timestamp each reply the moment it is read.
fn receive(sock: &UdpSocket, done: &AtomicBool, tx: &mpsc::Sender<Reply>) -> std::io::Result<()> {
    let mut buf = vec![0u8; 8 * 1024];
    while !done.load(Ordering::SeqCst) {
        match sock.recv(&mut buf) {
            Ok(len) => {
                if let Some(reply) = decode_reply(&buf[..len], Instant::now()) {
                    if tx.send(reply).is_err() {
                        return Ok(());
                    }
                }
            }
            Err(e) if not_ready(&e) => std::thread::yield_now(),
            Err(e) => return Err(e),
        }
    }
    Ok(())
}
