//! `brokerd` as a real network service: the same broker core the
//! simulator drives, served over an actual TCP socket on localhost.
//!
//! A broker thread runs `serve_tcp` over a deterministic subscriber
//! population. A "bTelco" (with an in-process UE) connects, relays a
//! genuine sealed+signed `authReqT`, and verifies the authorization it
//! gets back; replaying the same bytes is refused. A load generator then
//! pushes a pipelined burst through the same server. This demonstrates
//! that the protocol layer is transport-agnostic — the paper deploys
//! brokerd on AWS behind Magma's Orc8r the same way.
//!
//! Run with: `cargo run --example broker_server`

use cellbricks::core::broker_server::{
    build_requests, population, run_client_tcp, serve_tcp, ClientConfig, ServeConfig, BROKER_NAME,
};
use cellbricks::core::brokerd::BrokerWire;
use cellbricks::core::sap::{self, QosCap, SapError};
use cellbricks::net::wire::{read_frame, write_frame};
use cellbricks::sim::SimRng;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn main() {
    // Server and clients derive the same keys from one seed, so no
    // provisioning protocol is needed.
    let pop = population(7, 4);
    let mut server = pop.server(SimRng::new(99));

    // --- The broker service thread. ---
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    println!(
        "brokerd listening on {addr} ({} subscribers)",
        server.subscriber_count()
    );
    let stop = Arc::new(AtomicBool::new(false));
    let stop_server = Arc::clone(&stop);
    let handle = std::thread::spawn(move || {
        serve_tcp(
            &mut server,
            &listener,
            &stop_server,
            &ServeConfig::default(),
        )
        .expect("serve_tcp");
        server
    });

    // --- The bTelco (with UE 0) on the main thread. ---
    let (ue, telco) = (&pop.ues[0], &pop.telco);
    let mut rng = SimRng::new(11);
    let (req_u, nonce) = sap::ue_build_request(
        ue,
        BROKER_NAME,
        &pop.broker.encrypt.public_key(),
        telco.identity(),
        &mut rng,
    );
    let req_t = sap::telco_wrap_request(
        telco,
        req_u,
        QosCap {
            max_mbr_bps: 100_000_000,
            qci_supported: vec![9],
            li_capable: true,
        },
    );
    let request = BrokerWire::AuthReq {
        req_id: 1,
        req_t: req_t.encode(),
    }
    .encode();
    let mut stream = TcpStream::connect(addr).expect("connect");
    println!("bTelco: forwarding authReqT over TCP...");
    write_frame(&mut stream, &request).expect("send");
    match BrokerWire::decode(&read_frame(&mut stream).expect("reply")) {
        Some(BrokerWire::AuthOk { reply, .. }) => {
            let reply = sap::BrokerReply::decode(&reply).expect("reply");
            let t_body = sap::telco_verify_reply(telco, &pop.ca.public_key(), &reply)
                .expect("bTelco verifies");
            println!(
                "bTelco: authorization verified — UE alias #{}, session #{}, {} Mbps",
                t_body.ue_alias,
                t_body.session_id,
                t_body.qos.mbr_bps / 1_000_000
            );
            let u_body = sap::ue_verify_response(
                ue,
                &pop.broker.sign.verifying_key(),
                &nonce,
                telco.identity(),
                &reply.resp_u,
            )
            .expect("UE verifies");
            assert_eq!(u_body.ss, t_body.ss);
            println!("UE: response verified — shared secret established over real TCP.");
        }
        other => panic!("unexpected reply: {other:?}"),
    }

    // A captured request replayed verbatim authorizes nothing.
    write_frame(&mut stream, &request).expect("replay");
    match BrokerWire::decode(&read_frame(&mut stream).expect("reply")) {
        Some(BrokerWire::AuthErr { code, .. }) => {
            assert_eq!(code, SapError::NonceMismatch as u8);
            println!("bTelco: the replayed request was refused (code {code}, nonce reuse).");
        }
        other => panic!("replay must be refused, got {other:?}"),
    }

    // --- A pipelined burst from every subscriber, batched server-side. ---
    let requests = build_requests(&pop, &[0, 1, 2, 3], 32, &mut rng);
    let outcome = run_client_tcp(
        &ClientConfig {
            server: addr,
            window: 8,
            rtt_hist: "example.broker_server.rtt_us".to_string(),
        },
        &requests,
    )
    .expect("load generator");
    println!(
        "load generator: {} authorized, {} refused, {} lost",
        outcome.ok, outcome.refused, outcome.lost
    );

    stop.store(true, Ordering::Relaxed);
    let server = handle.join().expect("server thread");
    let c = server.counters;
    println!(
        "brokerd: {} served, {} refused, {} bad frames over {} batches",
        c.served_auths, c.auth_errs, c.bad_frames, c.batches
    );
    assert_eq!(outcome.ok, 32);
    println!("done.");
}
