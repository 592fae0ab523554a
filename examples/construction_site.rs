//! Construction site: administrative scalability and dependability.
//!
//! The paper's §IV-C scenario: several contractors operate independent
//! sensor networks in the same physical space, competing for the
//! wireless channel. We deploy three co-located tenant networks,
//! compare shared-channel vs. per-tenant channel plans, then subject
//! one network to crash-recovery churn and watch it self-heal — while
//! an RNFD sentinel quorum guards the border router.
//!
//! Run with: `cargo run --example construction_site`

use iiot::mac::coex::{ChannelPlan, TenantId};
use iiot::mac::csma::CsmaMac;
use iiot::mac::driver::MacDriver;
use iiot::routing::rnfd::{RnfdConfig, RnfdNode};
use iiot::sim::prelude::*;
use iiot::sim::{Fault, FaultPlan};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Three tenants, each a small cluster of chatty nodes, dropped into
/// the same 60x60 m site. Returns per-tenant delivery counts.
fn run_tenants(plan: ChannelPlan, seed: u64) -> Vec<(usize, usize)> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xC0E);
    let tenants = 3usize;
    let per_tenant = 6usize;
    let mut b = SimBuilder::new().seed(seed);
    let mut ids: Vec<Vec<NodeId>> = Vec::new();
    let mut next_id = 0u32;

    for _ in 0..tenants {
        let topo = Topology::clustered(1, per_tenant, 60.0, 60.0, 8.0, &mut rng);
        let batch: Vec<NodeId> = (0..topo.len())
            .map(|i| NodeId(next_id + i as u32))
            .collect();
        next_id += topo.len() as u32;
        b = b.nodes(topo, |_| Box::new(MacDriver::new(CsmaMac::default())));
        ids.push(batch);
    }
    let mut w = b.build();
    for (t, batch) in ids.iter().enumerate() {
        let channel = plan.channel_for(TenantId(t as u16), 0);
        for &node in batch {
            w.schedule_at(SimTime::from_millis(1), move |w2| {
                w2.with(node, |_: &mut MacDriver<CsmaMac>, ctx| {
                    ctx.set_channel(channel).expect("channel")
                });
            });
        }
    }

    // Every node broadcasts forty frames per second: a saturated site
    // (offered load > 1 erlang when everyone shares one channel).
    for batch in &ids {
        for (k, &node) in batch.iter().enumerate() {
            for s in 1..1200u64 {
                let at = SimTime::from_millis(s * 25 + k as u64 * 7);
                w.proto_mut::<MacDriver<CsmaMac>>(node).push_send(
                    at,
                    Dst::Broadcast,
                    9,
                    vec![k as u8; 40],
                );
            }
        }
    }
    w.run_for(SimDuration::from_secs(35));

    ids.iter()
        .map(|batch| {
            // Count only deliveries whose sender belongs to the same
            // tenant; frames overheard from other tenants are leakage,
            // not useful traffic.
            let intra: usize = batch
                .iter()
                .map(|&n| {
                    w.proto::<MacDriver<CsmaMac>>(n)
                        .delivered
                        .iter()
                        .filter(|d| batch.contains(&d.src))
                        .count()
                })
                .sum();
            // Each of 1199 broadcasts should reach the tenant's other
            // nodes (all within the cluster's radio range).
            let expected = batch.len() * 1199 * (batch.len() - 1);
            (intra, expected)
        })
        .collect()
}

fn main() {
    println!("== administrative scalability (three tenants, one site) ==");
    for (name, plan) in [
        ("shared channel", ChannelPlan::Shared { channel: 11 }),
        (
            "per-tenant channels",
            ChannelPlan::PerTenant {
                base: 11,
                num_channels: 16,
            },
        ),
    ] {
        let results = run_tenants(plan, 7);
        let (got, want): (usize, usize) =
            results.iter().fold((0, 0), |(g, w), (a, b)| (g + a, w + b));
        println!(
            "  {name:>20}: {got}/{want} intra-tenant deliveries ({:.1}%)",
            got as f64 / want as f64 * 100.0
        );
    }

    println!("\n== dependability under churn (RNFD guarding the router) ==");
    // A star of six sentinels around the border router; random churn
    // kills and revives sentinels, but only the router's real crash
    // must produce a verdict.
    let mut topo = Topology::new();
    topo.push(Pos::new(0.0, 0.0));
    for k in 0..6 {
        let ang = k as f64 / 6.0 * std::f64::consts::TAU;
        topo.push(Pos::new(12.0 * ang.cos(), 12.0 * ang.sin()));
    }
    let config = RnfdConfig {
        miss_threshold: 2,
        sentinels: (1..=6).map(NodeId).collect(),
    };
    let ids: Vec<NodeId> = (0..topo.len() as u32).map(NodeId).collect();
    let mut w = SimBuilder::new()
        .seed(9)
        .nodes(topo, move |_| {
            Box::new(RnfdNode::new(CsmaMac::default(), config.clone())) as Box<dyn Proto>
        })
        .build();

    // Churn on the sentinels only (the router is excluded), then the
    // router genuinely dies at t=90s.
    let mut rng = SmallRng::seed_from_u64(1);
    let plan = FaultPlan::random_churn(
        &mut rng,
        &ids[1..],
        SimDuration::from_secs(60),
        SimDuration::from_secs(5),
        SimTime::ZERO,
        SimTime::from_secs(80),
    );
    println!(
        "  churn plan: {} crash/recovery events on sentinels",
        plan.len()
    );
    plan.apply(&mut w).expect("fault plan fits the sim");
    let mut killer = FaultPlan::new();
    killer.push(Fault::Crash {
        node: ids[0],
        at: SimTime::from_secs(90),
    });
    killer.apply(&mut w).expect("fault plan fits the sim");
    w.run_for(SimDuration::from_secs(150));

    let mut detections = 0;
    for &s in &ids[1..] {
        if let Some(at) = w.proto::<RnfdNode<CsmaMac>>(s).verdict_at() {
            let latency = at.duration_since(SimTime::from_secs(90));
            println!("  sentinel {s}: router-dead verdict after {latency}");
            assert!(
                at >= SimTime::from_secs(90),
                "no false alarm before the real crash"
            );
            detections += 1;
        }
    }
    println!("  {detections}/6 sentinels reached the collective verdict");
    assert!(detections >= 4, "quorum detection failed");
}
