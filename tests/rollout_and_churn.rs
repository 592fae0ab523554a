//! Integration: the paper's deployment lifecycle (§IV intro) across
//! iiot-core, iiot-routing, iiot-mac, iiot-dependability — a pilot
//! stage, a rollout stage that grows the network 3x, crash-recovery
//! churn, and a final collection report.

use iiot::sim::prelude::*;
use iiot::sim::FaultPlan;
use iiot::{Deployment, MacChoice};
use rand::rngs::SmallRng;
use rand::SeedableRng;

#[test]
fn staged_rollout_with_churn_keeps_collecting() {
    // Stage 1: a pilot of 4 nodes.
    let mut d = Deployment::builder(Topology::line(4, 20.0))
        .mac(MacChoice::Csma)
        .seed(0x5AFE)
        .traffic(SimDuration::from_secs(10), 10, SimDuration::from_secs(15))
        .build();
    d.run_for(SimDuration::from_secs(60));
    let pilot = d.report();
    assert!(
        pilot.delivery_ratio > 0.95,
        "pilot delivery {}",
        pilot.delivery_ratio
    );

    // Stage 2: rollout — the line grows to 12 nodes while running.
    let extra: Topology = (4..12).map(|i| Pos::new(i as f64 * 20.0, 0.0)).collect();
    let added = d.extend(&extra);
    assert_eq!(added.len(), 8);
    d.run_for(SimDuration::from_secs(120));
    for &n in &added {
        assert!(d.has_route(n), "rollout node {n} joined the DODAG");
    }

    // Stage 3: production churn on the middle of the line.
    let victims: Vec<NodeId> = d.nodes[2..10].to_vec();
    let mut rng = SmallRng::seed_from_u64(0xC0FFEE);
    let plan = FaultPlan::random_churn(
        &mut rng,
        &victims,
        SimDuration::from_secs(300),
        SimDuration::from_secs(20),
        d.sim.now(),
        d.sim.now() + SimDuration::from_secs(250),
    );
    plan.apply(&mut d.sim).expect("fault plan fits the sim");
    let before = d.report();
    d.run_for(SimDuration::from_secs(300));
    let after = d.report();

    // New data kept flowing during churn.
    assert!(
        after.delivered > before.delivered + 50,
        "collection stalled under churn: {} -> {}",
        before.delivered,
        after.delivered
    );
    // A line has no alternate routes: every crash partitions the tail
    // for its MTTR and wipes the victim's forwarding buffer, so some
    // loss is physically inevitable. The bar is "keeps collecting".
    assert!(
        after.delivery_ratio > 0.7,
        "delivery {}",
        after.delivery_ratio
    );

    // The report reflects the deployment's current health.
    assert_eq!(d.nodes.len(), 12);
    assert!(d.report().alive_fraction > 0.7);
}

#[test]
fn orders_of_magnitude_growth_pilot_to_plant() {
    // §IV-A: "the system has to tolerate a growth even by several
    // orders of magnitude". 3 nodes -> 48 nodes through four rollout
    // stages, same software, no redesign.
    let mut d = Deployment::builder(Topology::grid(3, 1, 20.0))
        .mac(MacChoice::Csma)
        .seed(0x960)
        .traffic(SimDuration::from_secs(20), 8, SimDuration::from_secs(15))
        .build();
    d.run_for(SimDuration::from_secs(40));

    for stage in 1..4 {
        // Each stage adds another block of rows below the existing grid.
        let mut extra = Topology::new();
        for row in 0..4 {
            for col in 0..4 {
                extra.push(Pos::new(
                    col as f64 * 20.0,
                    (stage * 4 + row) as f64 * 20.0 - 60.0,
                ));
            }
        }
        // Positions must be fresh (not colliding with existing nodes).
        d.extend(&extra);
        d.run_for(SimDuration::from_secs(120));
    }
    assert_eq!(d.nodes.len(), 3 + 3 * 16);
    let r = d.report();
    let joined = d.nodes.iter().filter(|&&n| d.has_route(n)).count();
    assert!(
        joined as f64 / d.nodes.len() as f64 > 0.95,
        "only {joined}/{} joined",
        d.nodes.len()
    );
    assert!(r.delivery_ratio > 0.9, "delivery {}", r.delivery_ratio);
}
