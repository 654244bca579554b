//! The broker core: the one SAP authorization state machine behind both
//! broker adapters.
//!
//! The paper's broker is a single cloud service that authorizes every
//! SAP request (§3, §5). This module is that service with the I/O taken
//! out: bytes of `authReqT` in, grants or refusals out. Two adapters
//! drive it:
//!
//! * [`crate::brokerd::Brokerd`], the simulator endpoint, adds event
//!   timing (`proc_delay` queueing), fault windows, and billing
//!   sessions. It decides a batch of one per arriving packet — the
//!   sequential case.
//! * [`crate::broker_server::BrokerServer`], the wire service, adds
//!   framing, the serve loops, and a crypto worker pool. It decides a
//!   whole readiness batch at once.
//!
//! [`BrokerState`] is the durable half: the subscriber table and its
//! alias allocator, reputation, the FIFO-capped anti-replay window and
//! the session-id allocator. [`BrokerCore`] is the per-process half: the
//! broker's keys, the CA, and the grant RNG. [`BrokerCore::decide`] runs
//! one batch through four phases:
//!
//! 1. **decode** every `authReqT` (undecodable → [`SapError::Malformed`]);
//! 2. **check** (pure, scattered): structural prechecks around one pooled
//!    `open_batch`, one pooled `verify_batch`, and exact error
//!    attribution through the seed-order sequential checks when anything
//!    fails. This phase reads only an `Arc` snapshot of the subscriber
//!    table and applies no reputation policy, so it can run on any
//!    thread;
//! 3. **decide** (sequential, arrival order): reputation policy (suspect
//!    user, bTelco admission), then nonce admission, then session ids.
//!    Policy is checked after every signature and structural check — the
//!    order `sap::broker_authenticate_sequential` checks it in — so the
//!    refusal code is exactly the one the sequential checks name;
//! 4. **grant** (pure, scattered): RNG draws are taken sequentially for
//!    the granted requests only, then `broker_grant_batch_prepared` seals
//!    and signs against the pre-drawn material.
//!
//! Where phases 2 and 4 run is the caller's [`Scatter`]: [`Inline`] runs
//! them on the calling thread; the wire server's pool splits them into
//! contiguous chunks across worker threads. Chunking never changes bytes
//! (batch inversions compute the same unique inverses, Ed25519 signing is
//! deterministic, and every draw happens before the scatter), so a batch
//! of n decides exactly like n batches of one.

use crate::principal::{BrokerKeys, Identity};
use crate::reputation::ReputationSystem;
use crate::sap::{self, AuthReqT, AuthVec, BrokerReply, QosInfo, SapError, SubscriberEntry};
use cellbricks_crypto::ed25519::{verify_batch, BatchItem, VerifyingKey};
use cellbricks_crypto::sealed::open_batch;
use cellbricks_crypto::x25519::X25519PublicKey;
use cellbricks_sim::SimRng;
use cellbricks_telemetry as telemetry;
use std::collections::{HashMap, HashSet, VecDeque};
use std::ops::Range;
use std::sync::Arc;

/// FIFO cap on the anti-replay nonce window, mirroring the crypto-layer
/// key caches: a replayed `authReqT` is only useful to an attacker while
/// the original authorization is recent, so the window holds the most
/// recent authorizations and evicts the oldest past the cap. 64 Ki
/// nonces (1 MiB) is orders of magnitude more than any in-flight attach
/// horizon; without the cap, million-UE attach churn grows the set
/// forever.
pub const NONCE_WINDOW_CAP: usize = 1 << 16;

/// A subscriber record in the broker's database.
#[derive(Clone)]
pub struct SubscriberRecord {
    /// UE signing public key.
    pub sign_pk: VerifyingKey,
    /// UE encryption public key.
    pub encrypt_pk: X25519PublicKey,
    /// Plan cap on MBR, bits/s.
    pub plan_mbr_bps: u64,
    /// Billing alias handed to bTelcos.
    pub alias: u64,
}

/// The durable authorization state of one broker: everything a decision
/// reads or writes. The simulator's replicas of a shard share one (inside
/// their `BrokerStore`); the wire server owns one.
pub struct BrokerState {
    subscribers: Arc<HashMap<Identity, SubscriberRecord>>,
    next_alias: u64,
    reputation: ReputationSystem,
    /// Nonces seen in authorized requests: a replayed `authReqT`
    /// (captured on the wire and re-submitted, e.g. by a bTelco trying
    /// to open ghost billing sessions) is rejected — the UE nonce in
    /// `authVec` is the anti-replay anchor the paper describes (§4.1).
    seen_nonces: HashSet<[u8; 16]>,
    /// FIFO order of `seen_nonces` for bounded eviction.
    nonce_order: VecDeque<[u8; 16]>,
    next_session: u64,
}

impl BrokerState {
    /// An empty state whose session ids start at `session_base` — shards
    /// of a broker plane carve the id space so sessions stay globally
    /// unique.
    #[must_use]
    pub fn new(session_base: u64) -> Self {
        Self {
            subscribers: Arc::new(HashMap::new()),
            next_alias: 1,
            reputation: ReputationSystem::new(),
            seen_nonces: HashSet::new(),
            nonce_order: VecDeque::new(),
            next_session: session_base,
        }
    }

    /// Provision a subscriber (keys issued out of band; the broker stores
    /// the publics) under the next billing alias.
    pub fn provision(
        &mut self,
        id: Identity,
        sign_pk: VerifyingKey,
        encrypt_pk: X25519PublicKey,
        plan_mbr_bps: u64,
    ) {
        let alias = self.next_alias;
        self.next_alias += 1;
        Arc::make_mut(&mut self.subscribers).insert(
            id,
            SubscriberRecord {
                sign_pk,
                encrypt_pk,
                plan_mbr_bps,
                alias,
            },
        );
    }

    /// Number of provisioned subscribers.
    #[must_use]
    pub fn subscriber_count(&self) -> usize {
        self.subscribers.len()
    }

    /// A provisioned subscriber's record.
    #[must_use]
    pub fn subscriber(&self, id: Identity) -> Option<&SubscriberRecord> {
        self.subscribers.get(&id)
    }

    /// The reputation system gating admissions.
    #[must_use]
    pub fn reputation(&self) -> &ReputationSystem {
        &self.reputation
    }

    /// Mutable access to the reputation system (billing feeds it).
    pub fn reputation_mut(&mut self) -> &mut ReputationSystem {
        &mut self.reputation
    }

    /// Record a nonce; `false` means it was already in the window (a
    /// replay). Past [`NONCE_WINDOW_CAP`] the oldest nonce is evicted.
    fn insert_nonce(&mut self, nonce: [u8; 16]) -> bool {
        if !self.seen_nonces.insert(nonce) {
            return false;
        }
        self.nonce_order.push_back(nonce);
        if self.nonce_order.len() > NONCE_WINDOW_CAP {
            if let Some(oldest) = self.nonce_order.pop_front() {
                self.seen_nonces.remove(&oldest);
            }
        }
        true
    }

    /// The sequential decision for a request whose signatures and
    /// structure all checked out: reputation policy, then anti-replay,
    /// then a session id.
    fn admit(&mut self, vec: &AuthVec) -> Result<u64, SapError> {
        // Suspect users and disreputable bTelcos are refused (§4.3).
        if self.reputation.is_suspect(vec.id_u) || !self.reputation.admit(vec.id_t) {
            return Err(SapError::PolicyRefused);
        }
        // Each authVec nonce authorizes once.
        if !self.insert_nonce(vec.nonce) {
            return Err(SapError::NonceMismatch);
        }
        let session_id = self.next_session;
        self.next_session += 1;
        Ok(session_id)
    }
}

/// One authorization the core granted.
pub struct Grant {
    /// The reply to send back to the bTelco.
    pub reply: BrokerReply,
    /// The QoS the broker granted.
    pub qos: QosInfo,
    /// The billing session the grant opened.
    pub session_id: u64,
    /// The authenticated authentication vector.
    pub vec: AuthVec,
    /// The forwarding bTelco's signing key (its traffic reports verify
    /// under it).
    pub telco_pk: VerifyingKey,
}

/// Where the pure phases of a decision run.
pub trait Scatter {
    /// Map `f` over `0..n` — whole, or split into contiguous sub-ranges
    /// on other threads — and concatenate the results in range order.
    fn scatter<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send + 'static,
        F: Fn(Range<usize>) -> Vec<R> + Send + Sync + 'static;
}

/// Runs every phase on the calling thread.
pub struct Inline;

impl Scatter for Inline {
    fn scatter<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send + 'static,
        F: Fn(Range<usize>) -> Vec<R> + Send + Sync + 'static,
    {
        f(0..n)
    }
}

/// The broker's identity material, shared read-only with worker threads.
struct Authority {
    keys: BrokerKeys,
    ca: VerifyingKey,
}

/// One checked-and-admitted request between the decision and its grant.
struct Admitted {
    idx: usize,
    vec: AuthVec,
    entry: SubscriberEntry,
    session_id: u64,
}

/// The per-process half of the broker: keys, CA, and the grant RNG.
pub struct BrokerCore {
    authority: Arc<Authority>,
    rng: SimRng,
    granted: telemetry::Counter,
    rejected: telemetry::Counter,
}

impl BrokerCore {
    /// A core serving as `keys`, trusting certificates chained to `ca`,
    /// drawing grant randomness from `rng`.
    #[must_use]
    pub fn new(keys: BrokerKeys, ca: VerifyingKey, rng: SimRng) -> Self {
        Self {
            authority: Arc::new(Authority { keys, ca }),
            rng,
            granted: telemetry::counter("core.brokerd.auth_granted"),
            rejected: telemetry::counter("core.brokerd.auth_rejected"),
        }
    }

    /// Decide a batch of encoded `authReqT`s against `state`, running the
    /// pure phases through `exec`. Returns one verdict per request, in
    /// batch order. A batch of one is the sequential case; any batch
    /// decides exactly as its requests would one at a time.
    pub fn decide<B, S>(
        &mut self,
        state: &mut BrokerState,
        batch: &[B],
        exec: &S,
    ) -> Vec<Result<Grant, SapError>>
    where
        B: AsRef<[u8]>,
        S: Scatter,
    {
        let mut decodable = Vec::with_capacity(batch.len());
        let mut reqs = Vec::with_capacity(batch.len());
        for bytes in batch {
            let req = AuthReqT::decode(bytes.as_ref());
            decodable.push(req.is_some());
            reqs.extend(req);
        }
        let reqs: Arc<[AuthReqT]> = reqs.into();

        let checked = if reqs.is_empty() {
            Vec::new()
        } else {
            let (authority, subs, reqs) = (
                Arc::clone(&self.authority),
                Arc::clone(&state.subscribers),
                Arc::clone(&reqs),
            );
            exec.scatter(reqs.len(), move |r| {
                check_chunk(&authority, &subs, &reqs[r])
            })
        };

        let mut admitted = Vec::new();
        let mut checked = checked.into_iter().enumerate();
        let verdicts: Vec<Result<(), SapError>> = decodable
            .into_iter()
            .map(|ok| {
                if !ok {
                    return Err(SapError::Malformed);
                }
                let (idx, checked) = checked.next().expect("one check per decoded request");
                let (vec, entry) = checked?;
                let session_id = state.admit(&vec)?;
                admitted.push(Admitted {
                    idx,
                    vec,
                    entry,
                    session_id,
                });
                Ok(())
            })
            .collect();

        // Every grant's randomness is drawn here, sequentially, in
        // arrival order; the grant phase itself is pure.
        let draws: Arc<[sap::GrantDraws]> = sap::grant_draws(&mut self.rng, admitted.len()).into();
        let admitted: Arc<[Admitted]> = admitted.into();
        let replies = if admitted.is_empty() {
            Vec::new()
        } else {
            let (authority, reqs, admitted) = (
                Arc::clone(&self.authority),
                Arc::clone(&reqs),
                Arc::clone(&admitted),
            );
            exec.scatter(admitted.len(), move |r| {
                let jobs: Vec<sap::GrantJob<'_>> = admitted[r.clone()]
                    .iter()
                    .map(|a| sap::GrantJob {
                        req: &reqs[a.idx],
                        vec: &a.vec,
                        entry: &a.entry,
                        session_id: a.session_id,
                    })
                    .collect();
                sap::broker_grant_batch_prepared(&authority.keys, &jobs, &draws[r])
            })
        };

        self.granted.add(admitted.len() as u64);
        self.rejected.add((verdicts.len() - admitted.len()) as u64);
        let mut grants = admitted.iter().zip(replies);
        verdicts
            .into_iter()
            .map(|verdict| {
                verdict.map(|()| {
                    let (a, (reply, qos, _ss)) = grants.next().expect("one reply per grant");
                    Grant {
                        reply,
                        qos,
                        session_id: a.session_id,
                        vec: a.vec,
                        telco_pk: reqs[a.idx].t_cert.key,
                    }
                })
            })
            .collect()
    }
}

fn lookup_in(subs: &HashMap<Identity, SubscriberRecord>, id: Identity) -> Option<SubscriberEntry> {
    subs.get(&id).map(|rec| SubscriberEntry {
        sign_pk: rec.sign_pk,
        encrypt_pk: rec.encrypt_pk,
        plan_mbr_bps: rec.plan_mbr_bps,
        suspect: false,
        alias: rec.alias,
        lawful_intercept: false,
    })
}

/// Exact error attribution via the seed-order sequential checks.
fn attribute_failure(
    authority: &Authority,
    subs: &HashMap<Identity, SubscriberRecord>,
    req: &AuthReqT,
) -> SapError {
    match sap::broker_authenticate_sequential(
        &authority.keys,
        &authority.ca,
        req,
        &|id| lookup_in(subs, id),
        &|_| true,
    ) {
        // Unreachable in practice (precheck/verify failed), but if the
        // sequential path accepts, refusing would be wrong — report the
        // one error that cannot mint a session here.
        Ok(_) => SapError::PolicyRefused,
        Err(e) => e,
    }
}

/// The pure check phase over one chunk of decoded requests: structural
/// prechecks with the expensive unseals pooled into one [`open_batch`],
/// then one pooled [`verify_batch`] spanning the chunk, with per-request
/// fallback and exact attribution on failure. Reputation policy is left
/// to the sequential decision, so no broker state is read or written —
/// chunks of one batch can run on any threads in any order and gather to
/// the same verdicts.
fn check_chunk(
    authority: &Authority,
    subs: &HashMap<Identity, SubscriberRecord>,
    reqs: &[AuthReqT],
) -> Vec<Result<(AuthVec, SubscriberEntry), SapError>> {
    let keys = &authority.keys;
    let pre: Vec<Option<Identity>> = reqs
        .iter()
        .map(|r| sap::broker_precheck_pre_open(keys, r))
        .collect();
    let boxes: Vec<&cellbricks_crypto::SealedBox> = reqs
        .iter()
        .zip(&pre)
        .filter(|(_, id_t)| id_t.is_some())
        .map(|(r, _)| &r.req_u.sealed_vec)
        .collect();
    let mut opened = open_batch(&keys.encrypt, &boxes).into_iter();
    let self_id = keys.identity();
    let prechecked: Vec<Option<(AuthVec, SubscriberEntry, sap::AuthBatchMaterial)>> = reqs
        .iter()
        .zip(&pre)
        .map(|(r, pre_id)| {
            let id_t = (*pre_id)?;
            let vec_bytes = opened.next().expect("one open per precheck").ok()?;
            sap::broker_precheck_post_open(
                self_id,
                &authority.ca,
                r,
                id_t,
                &vec_bytes,
                &|id| lookup_in(subs, id),
                &|_| true,
            )
        })
        .collect();

    // One pooled verify across the whole chunk; a failed pool degrades
    // per-request (batch-of-3, then sequential attribution), preserving
    // exact error codes.
    let pooled_ok = {
        let items: Vec<BatchItem<'_>> = prechecked
            .iter()
            .flatten()
            .flat_map(|(_, _, material)| material.items())
            .collect();
        verify_batch(&items)
    };
    reqs.iter()
        .zip(prechecked)
        .map(|(r, checked)| match checked {
            Some((vec, entry, material)) if pooled_ok || verify_batch(&material.items()) => {
                Ok((vec, entry))
            }
            _ => Err(attribute_failure(authority, subs, r)),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The anti-replay window is bounded (FIFO eviction past the cap)
    /// while replays inside the window are still rejected.
    #[test]
    fn nonce_window_bounded_with_fifo_eviction() {
        let mut state = BrokerState::new(1);
        let nonce_of = |i: u64| -> [u8; 16] {
            let mut n = [0u8; 16];
            n[..8].copy_from_slice(&i.to_le_bytes());
            n
        };
        for i in 0..(NONCE_WINDOW_CAP as u64 + 1_000) {
            assert!(state.insert_nonce(nonce_of(i)), "fresh nonce {i} accepted");
        }
        assert_eq!(
            state.seen_nonces.len(),
            NONCE_WINDOW_CAP,
            "window bounded at the cap"
        );
        assert_eq!(state.nonce_order.len(), NONCE_WINDOW_CAP);
        // A replay inside the window is still caught...
        let recent = nonce_of(NONCE_WINDOW_CAP as u64 + 999);
        assert!(!state.insert_nonce(recent), "recent replay rejected");
        // ...while the oldest entries were evicted (the replay horizon
        // the cap trades away).
        assert!(!state.seen_nonces.contains(&nonce_of(0)));
        assert!(!state.seen_nonces.contains(&nonce_of(999)));
        assert!(state.seen_nonces.contains(&nonce_of(1_000)));
    }
}
