//! Differential test: the simulator's broker and the wire server are two
//! adapters over one broker core, so the same seeded request stream must
//! get the same replies from both — byte for byte, refusal codes
//! included.
//!
//! The simulated `Brokerd` sees the stream one control packet at a time
//! (the sequential case); the wire server sees it as one readiness batch
//! at W ∈ {0, 1, 4} crypto workers. The stream mixes clean requests with
//! every refusal the decision can make: an exact replay, a flipped UE
//! signature, a flipped bTelco signature, an unknown user, an undecodable
//! `authReqT`, and a subscriber the reputation system suspects. Clean
//! requests after the refusals pin that a refusal consumes no grant
//! randomness and no session id on either side.

use bytes::Bytes;
use cellbricks_core::broker_server::{population, Population, BROKER_NAME};
use cellbricks_core::brokerd::{BrokerWire, Brokerd, BrokerdConfig};
use cellbricks_core::principal::{Identity, UeKeys};
use cellbricks_core::sap::{self, AuthReqT, QosCap, SapError};
use cellbricks_net::wire::{frame, unframe};
use cellbricks_net::{Endpoint, NodeId, Packet, PacketKind};
use cellbricks_sim::{SimDuration, SimRng, SimTime};
use std::net::Ipv4Addr;

const SEED: u64 = 0xd1ff;
const GRANT_SEED: u64 = 0x6772;
const PLAN_MBR_BPS: u64 = 50_000_000;
const BROKER_IP: Ipv4Addr = Ipv4Addr::new(172, 16, 0, 1);
const TELCO_IP: Ipv4Addr = Ipv4Addr::new(172, 16, 1, 1);

/// The population's UE that the reputation system suspects.
const SUSPECT: usize = 3;

fn qos() -> QosCap {
    QosCap {
        max_mbr_bps: 100_000_000,
        qci_supported: vec![9],
        li_capable: true,
    }
}

fn request(pop: &Population, ue: &UeKeys, rng: &mut SimRng) -> AuthReqT {
    let broker_epk = pop.broker.encrypt.public_key();
    let (req_u, _) = sap::ue_build_request(ue, BROKER_NAME, &broker_epk, pop.telco.identity(), rng);
    sap::telco_wrap_request(&pop.telco, req_u, qos())
}

/// The seeded stream of encoded `authReqT`s, each with the refusal the
/// broker must answer it with (`None` = granted).
fn stream(pop: &Population) -> Vec<(Bytes, Option<SapError>)> {
    let mut rng = SimRng::new(SEED ^ 0x5eed);
    let clean = |i: usize, rng: &mut SimRng| request(pop, &pop.ues[i], rng).encode();
    let first = clean(0, &mut rng);

    // A UE signature that fails while everything around it verifies:
    // the bTelco signs the forged request.
    let mut forged_ue = request(pop, &pop.ues[2], &mut rng);
    forged_ue.req_u.sig.0[0] ^= 1;
    let forged_ue = sap::telco_wrap_request(&pop.telco, forged_ue.req_u, qos());

    let mut forged_telco = request(pop, &pop.ues[1], &mut rng);
    forged_telco.sig.0[0] ^= 1;

    let stranger = UeKeys::generate(&mut rng);
    vec![
        (first.clone(), None),
        (clean(1, &mut rng), None),
        (first, Some(SapError::NonceMismatch)),
        (forged_ue.encode(), Some(SapError::BadUeSig)),
        (forged_telco.encode(), Some(SapError::BadTelcoSig)),
        (
            request(pop, &stranger, &mut rng).encode(),
            Some(SapError::UnknownUser),
        ),
        (
            Bytes::from_static(b"not an authReqT"),
            Some(SapError::Malformed),
        ),
        (clean(SUSPECT, &mut rng), Some(SapError::PolicyRefused)),
        (clean(2, &mut rng), None),
        (clean(0, &mut rng), None),
    ]
}

fn auth_req(req_id: usize, req_t: &Bytes) -> Bytes {
    BrokerWire::AuthReq {
        req_id: req_id as u64,
        req_t: req_t.clone(),
    }
    .encode()
}

fn suspect_id(pop: &Population) -> Identity {
    pop.ues[SUSPECT].identity()
}

/// The stream through the simulated broker, one control packet at a
/// time.
fn sim_replies(pop: &Population, reqs: &[(Bytes, Option<SapError>)]) -> Vec<BrokerWire> {
    let mut brokerd = Brokerd::new(
        NodeId(0),
        BrokerdConfig {
            ip: BROKER_IP,
            keys: pop.broker.clone(),
            ca: pop.ca.public_key(),
            proc_delay: SimDuration::ZERO,
            epsilon: 0.01,
            session_retention: SimDuration::from_secs(86_400),
        },
        SimRng::new(GRANT_SEED),
    );
    for ue in &pop.ues {
        let (sign_pk, encrypt_pk) = ue.public();
        brokerd.provision(ue.identity(), sign_pk, encrypt_pk, PLAN_MBR_BPS);
    }
    brokerd
        .store()
        .lock()
        .expect("store")
        .state_mut()
        .reputation_mut()
        .mark_suspect(suspect_id(pop));

    let mut replies = Vec::new();
    for (req_id, (req_t, _)) in reqs.iter().enumerate() {
        let now = SimTime::from_millis(req_id as u64);
        let pkt = Packet::control(TELCO_IP, BROKER_IP, auth_req(req_id, req_t));
        brokerd.handle_packet(now, pkt, &mut Vec::new());
        let mut out = Vec::new();
        brokerd.poll(now, &mut out);
        for pkt in out {
            let PacketKind::Control(bytes) = &pkt.kind else {
                panic!("broker sent a non-control packet");
            };
            replies.push(BrokerWire::decode(bytes).expect("reply decodes"));
        }
    }
    replies
}

/// The stream through the wire server as one readiness batch.
fn wire_replies(
    pop: &Population,
    reqs: &[(Bytes, Option<SapError>)],
    workers: usize,
) -> Vec<BrokerWire> {
    let mut server = pop.server_with_workers(SimRng::new(GRANT_SEED), workers);
    server
        .state_mut()
        .reputation_mut()
        .mark_suspect(suspect_id(pop));
    let datagrams: Vec<Vec<u8>> = reqs
        .iter()
        .enumerate()
        .map(|(req_id, (req_t, _))| frame(&auth_req(req_id, req_t)))
        .collect();
    let batch: Vec<(usize, &[u8])> = datagrams.iter().map(|d| (0, d.as_slice())).collect();
    let mut out = Vec::new();
    server.process_batch(&batch, &mut out);
    out.iter()
        .map(|(_, bytes)| {
            BrokerWire::decode(unframe(bytes).expect("framed reply")).expect("reply decodes")
        })
        .collect()
}

#[test]
fn sim_and_wire_brokers_reply_identically() {
    let pop = population(SEED, 4);
    let reqs = stream(&pop);
    let sim = sim_replies(&pop, &reqs);

    // The stream exercises what it claims to, on the sim side...
    assert_eq!(sim.len(), reqs.len(), "one reply per request");
    for (req_id, (reply, (_, want))) in sim.iter().zip(&reqs).enumerate() {
        let req_id = req_id as u64;
        match (reply, want) {
            (BrokerWire::AuthOk { req_id: r, .. }, None) => assert_eq!(*r, req_id),
            (BrokerWire::AuthErr { req_id: r, code }, Some(e)) => {
                assert_eq!((*r, *code), (req_id, *e as u8), "refusal code");
            }
            (got, want) => panic!("request {req_id}: got {got:?}, want {want:?}"),
        }
    }

    // ...and the wire server answers it byte-identically at any W.
    for workers in [0usize, 1, 4] {
        assert_eq!(
            wire_replies(&pop, &reqs, workers),
            sim,
            "wire server at W={workers} diverged from the simulated broker"
        );
    }
}
