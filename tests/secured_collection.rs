//! Integration: end-to-end payload protection across the wireless
//! collection stack — origins protect their readings with the network
//! key (iiot-security) before handing them to the DODAG (iiot-routing)
//! over CSMA (iiot-mac) in the simulator (iiot-sim); the border router
//! verifies, decrypts and replay-checks them.

use iiot::mac::csma::CsmaMac;
use iiot::routing::dodag::{DodagConfig, DodagNode};
use iiot::security::{protect, unprotect, Key, ReplayGuard, SecLevel};
use iiot::sim::prelude::*;

type Node = DodagNode<CsmaMac>;

const NETWORK_KEY: Key = Key(*b"factory-net-key1");
const LEVEL: SecLevel = SecLevel::EncMic64;

fn build(n: usize, seed: u64) -> (Sim, Vec<NodeId>) {
    let w = SimBuilder::new()
        .seed(seed)
        .nodes(Topology::line(n, 20.0), |i| {
            Box::new(DodagNode::new(
                CsmaMac::default(),
                DodagConfig::default(),
                i == 0,
            )) as Box<dyn Proto>
        })
        .build();
    let ids = (0..n as u32).map(NodeId).collect();
    (w, ids)
}

/// Origin `node` sends `reading` protected under the network key.
fn send_secured(w: &mut Sim, node: NodeId, counter: u32, reading: &[u8]) {
    let frame = protect(&NETWORK_KEY, LEVEL, node.0, counter, reading);
    let queued = w.with(node, |n: &mut Node, ctx| n.send_datum(ctx, frame));
    assert!(queued, "buffer accepts the datum");
}

#[test]
fn protected_readings_survive_multihop_collection() {
    let (mut w, ids) = build(4, 1);
    w.run_for(SimDuration::from_secs(15)); // DODAG formation

    for (k, &origin) in ids[1..].iter().enumerate() {
        send_secured(&mut w, origin, 1, format!("temp={k}").as_bytes());
    }
    w.run_for(SimDuration::from_secs(10));

    let root = w.proto::<Node>(ids[0]);
    assert_eq!(root.collected().len(), 3, "all origins delivered");

    let mut guard = ReplayGuard::new();
    for c in root.collected() {
        let clear = unprotect(&NETWORK_KEY, LEVEL, c.origin.0, &c.payload, &mut guard)
            .expect("authentic frame decrypts at the border router");
        assert!(clear.starts_with(b"temp="), "payload intact: {clear:?}");
        // Confidentiality: ciphertext on the air differed from cleartext.
        assert_ne!(c.payload, clear);
    }
}

#[test]
fn border_router_rejects_forgeries_and_replays() {
    let (mut w, ids) = build(3, 2);
    w.run_for(SimDuration::from_secs(15));
    send_secured(&mut w, ids[2], 7, b"rpm=1200");
    w.run_for(SimDuration::from_secs(10));

    let root = w.proto::<Node>(ids[0]);
    let c = &root.collected()[0];
    let mut guard = ReplayGuard::new();

    // A forged frame under the wrong key fails authentication.
    let mut forged = c.payload.clone();
    let k = forged.len() - 2;
    forged[k] ^= 0x55;
    assert!(
        unprotect(&NETWORK_KEY, LEVEL, c.origin.0, &forged, &mut guard).is_err(),
        "tampered payload must be rejected"
    );

    // The authentic frame verifies once...
    assert!(unprotect(&NETWORK_KEY, LEVEL, c.origin.0, &c.payload, &mut guard).is_ok());
    // ...and is rejected when replayed.
    assert!(
        unprotect(&NETWORK_KEY, LEVEL, c.origin.0, &c.payload, &mut guard).is_err(),
        "replay must be rejected"
    );
}

#[test]
fn policy_floor_rejects_unprotected_traffic() {
    let (mut w, ids) = build(3, 3);
    w.run_for(SimDuration::from_secs(15));
    // A mis-configured origin sends an unprotected reading.
    let naked = protect(&NETWORK_KEY, SecLevel::None, ids[2].0, 1, b"temp=9");
    w.with(ids[2], |n: &mut Node, ctx| n.send_datum(ctx, naked));
    w.run_for(SimDuration::from_secs(10));
    let root = w.proto::<Node>(ids[0]);
    let c = &root.collected()[0];
    let mut guard = ReplayGuard::new();
    // The border router's incoming-security policy floor refuses it.
    assert!(
        unprotect(&NETWORK_KEY, LEVEL, c.origin.0, &c.payload, &mut guard).is_err(),
        "below-policy frames must be rejected at the border"
    );
}
