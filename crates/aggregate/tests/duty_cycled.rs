//! Cross-layer integration: the aggregation protocol is generic over
//! the MAC, so the same query code runs over a duty-cycled link layer.
//! Epoch slots (seconds) dwarf LPL wake intervals (hundreds of ms), so
//! partials still arrive within their epoch.

use iiot_aggregate::tree::{AggConfig, AggregationNode, Mode};
use iiot_mac::lpl::{LplConfig, LplMac};
use iiot_sim::prelude::*;

type Node = AggregationNode<LplMac>;

#[test]
fn aggregation_over_lpl_delivers_and_sleeps() {
    let n = 5usize;
    let parents: Vec<Option<NodeId>> = (0..n)
        .map(|i| {
            if i == 0 {
                None
            } else {
                Some(NodeId(i as u32 - 1))
            }
        })
        .collect();
    let cfg = AggConfig::new(parents, Mode::Aggregate, 20_000, 5);
    let ids: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
    let mut w = SimBuilder::new()
        .seed(0xA99)
        .nodes(Topology::line(n, 20.0), move |_| {
            let mac = LplMac::new(LplConfig {
                wake_interval: SimDuration::from_millis(256),
                ..LplConfig::default()
            });
            Box::new(AggregationNode::new(mac, cfg.clone()))
        })
        .build();
    w.run_for(SimDuration::from_secs(130));

    let root = w.proto::<Node>(ids[0]);
    let complete = root
        .results()
        .iter()
        .filter(|r| r.count == n as u32)
        .count();
    assert!(
        root.results().len() >= 4,
        "epochs finalized: {}",
        root.results().len()
    );
    assert!(
        complete >= 3,
        "most epochs hear every node over LPL: {:?}",
        root.results()
    );
    // And the network actually sleeps between epochs.
    let mean_duty: f64 = ids[1..]
        .iter()
        .map(|&i| w.energy(i).duty_cycle())
        .sum::<f64>()
        / (n - 1) as f64;
    assert!(mean_duty < 0.35, "duty cycle {mean_duty}");
}
