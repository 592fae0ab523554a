//! Collection over a deployment-time configured tree, for MACs whose
//! schedule already encodes the topology (pipelined TDMA in the style
//! of Dozer/Koala, where the slot schedule *is* the routing state).
//!
//! Unlike the self-organizing [`DodagNode`](crate::dodag::DodagNode),
//! this protocol exchanges no control traffic at all: parents are fixed
//! at construction. That is exactly the trade the paper's scalability
//! discussion surfaces — tight synchronous coordination buys latency
//! and energy, but the resulting design must be re-derived when the
//! deployment grows (see `Deployment::extend` in `iiot-core`).

use crate::collect::{Collected, DataPlane, Traffic, PORT_DATA, TAG_PUMP, TAG_TRAFFIC};
use iiot_mac::{Mac, SendHandle, Service, Stack};
use iiot_sim::{Ctx, Frame, NodeId, Proto, RxInfo, Timer, TxOutcome};

/// Configuration of a [`StaticCollection`] node.
#[derive(Clone, Debug)]
pub struct StaticConfig {
    /// The fixed tree: `parents[i]` is node `i`'s parent, `None` for
    /// the root.
    pub parents: Vec<Option<NodeId>>,
    /// Optional periodic traffic generator.
    pub traffic: Option<Traffic>,
}

impl StaticConfig {
    /// A config over `parents` with no traffic.
    pub fn new(parents: Vec<Option<NodeId>>) -> Self {
        StaticConfig {
            parents,
            traffic: None,
        }
    }
}

/// A collection node over a fixed tree; see the [module docs](self).
pub struct StaticCollection<M: Mac> {
    stack: Stack<M>,
    tree: StaticTree,
}

/// The service: the configured tree and the data plane it feeds.
struct StaticTree {
    config: StaticConfig,
    data: DataPlane,
}

impl<M: Mac> StaticCollection<M> {
    /// Creates a node; the node whose parent entry is `None` is the
    /// root.
    pub fn new(mac: M, config: StaticConfig) -> Self {
        let data = DataPlane::new("static");
        StaticCollection {
            stack: Stack::new(mac),
            tree: StaticTree { config, data },
        }
    }

    /// Data collected so far (meaningful at the root).
    pub fn collected(&self) -> &[Collected] {
        self.tree.data.collected()
    }

    /// Whether this node has a path to the root (statically always
    /// true; present for API parity with the DODAG).
    pub fn has_route(&self) -> bool {
        true
    }

    /// Injects one application datum originating here.
    pub fn send_datum(&mut self, ctx: &mut Ctx<'_>, payload: Vec<u8>) -> bool {
        self.tree.send_datum(self.stack.mac_mut(), ctx, payload)
    }
}

impl StaticTree {
    fn parent(&self, me: NodeId) -> Option<NodeId> {
        self.config.parents[me.index()]
    }

    fn send_datum<M: Mac>(&mut self, mac: &mut M, ctx: &mut Ctx<'_>, payload: Vec<u8>) -> bool {
        let parent = self.parent(ctx.id());
        self.data.originate(mac, ctx, parent, payload)
    }
}

impl<M: Mac> Service<M> for StaticTree {
    fn start(&mut self, _mac: &mut M, ctx: &mut Ctx<'_>) {
        let root = self.parent(ctx.id()).is_none();
        if let Some(tr) = self.config.traffic.filter(|_| !root) {
            tr.arm_first(ctx);
        }
    }

    fn delivered(&mut self, mac: &mut M, ctx: &mut Ctx<'_>, src: NodeId, port: u8, payload: &[u8]) {
        if port == PORT_DATA {
            let parent = self.parent(ctx.id());
            self.data
                .on_data(mac, ctx, parent, parent.is_none(), src, payload);
        }
    }

    /// The tree is fixed: a failed unicast changes nothing but the
    /// datum's attempt count.
    fn send_done(&mut self, mac: &mut M, ctx: &mut Ctx<'_>, handle: SendHandle, acked: bool) {
        if self.data.settle(ctx, handle, acked) {
            let parent = self.parent(ctx.id());
            self.data.pump(mac, ctx, parent);
        }
    }

    fn timer(&mut self, mac: &mut M, ctx: &mut Ctx<'_>, timer: Timer) {
        match timer.tag {
            TAG_TRAFFIC => {
                if let Some(tr) = self.config.traffic {
                    self.send_datum(mac, ctx, vec![0xAB; tr.payload_len]);
                    tr.arm_next(ctx);
                }
            }
            TAG_PUMP => {
                let parent = self.parent(ctx.id());
                self.data.pump(mac, ctx, parent);
            }
            _ => {}
        }
    }

    fn crashed(&mut self) {
        self.data.crashed();
    }
}

impl<M: Mac> Proto for StaticCollection<M> {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        self.stack.start(&mut self.tree, ctx);
    }

    fn timer(&mut self, ctx: &mut Ctx<'_>, timer: Timer) {
        self.stack.timer(&mut self.tree, ctx, timer);
    }

    fn frame(&mut self, ctx: &mut Ctx<'_>, frame: &Frame, info: RxInfo) {
        self.stack.frame(&mut self.tree, ctx, frame, info);
    }

    fn tx_done(&mut self, ctx: &mut Ctx<'_>, outcome: TxOutcome) {
        self.stack.tx_done(&mut self.tree, ctx, outcome);
    }

    fn crashed(&mut self) {
        self.stack.crashed(&mut self.tree);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iiot_mac::tdma::{TdmaMac, TdmaSchedule};
    use iiot_sim::prelude::*;

    type Node = StaticCollection<TdmaMac>;

    #[test]
    fn oversized_datum_is_dropped_not_retried_forever() {
        use iiot_mac::csma::CsmaMac;
        type Csma = StaticCollection<CsmaMac>;
        let cfg = StaticConfig::new(vec![None, Some(NodeId(0))]);
        let mut w = SimBuilder::new()
            .nodes(Topology::line(2, 10.0), move |_| {
                Box::new(Csma::new(CsmaMac::default(), cfg.clone()))
            })
            .build();
        w.run_for(SimDuration::from_millis(100));
        let before = w.events_dispatched();
        w.with(NodeId(1), |n: &mut Csma, ctx| {
            // One byte past what a frame carries after the MAC and
            // collection headers, then a datum that fits.
            assert!(n.send_datum(ctx, vec![0; 93]));
            assert!(n.send_datum(ctx, vec![1; 8]));
        });
        w.run_for(SimDuration::from_secs(10));
        assert_eq!(w.stats().get_node(NodeId(1), "data_drop_size"), 1.0);
        let root = w.proto::<Csma>(NodeId(0));
        assert_eq!(root.collected().len(), 1, "the datum behind it arrives");
        assert_eq!(root.collected()[0].payload, vec![1; 8]);
        let spent = w.events_dispatched() - before;
        assert!(spent < 20, "{spent} events: the pump timer is spinning");
    }

    #[test]
    fn tdma_collection_over_static_tree() {
        let n = 5;
        let parents: Vec<Option<NodeId>> = (0..n)
            .map(|i| {
                if i == 0 {
                    None
                } else {
                    Some(NodeId(i as u32 - 1))
                }
            })
            .collect();
        let sched = TdmaSchedule::pipeline_to_root(&parents, SimDuration::from_millis(20));
        let mut cfg = StaticConfig::new(parents);
        cfg.traffic = Some(Traffic {
            period: SimDuration::from_secs(5),
            payload_len: 8,
            start_after: SimDuration::from_secs(2),
        });
        let mut w = SimBuilder::new()
            .seed(8)
            .nodes(Topology::line(n, 20.0), move |_| {
                Box::new(StaticCollection::new(
                    TdmaMac::new(sched.clone()),
                    cfg.clone(),
                ))
            })
            .build();
        w.run_for(SimDuration::from_secs(60));
        let generated = w.stats().node_total("data_origin");
        let delivered = w.proto::<Node>(NodeId(0)).collected().len() as f64;
        assert!(generated >= 40.0, "generated {generated}");
        assert!(
            delivered / generated > 0.9,
            "tdma static-tree delivery {delivered}/{generated}"
        );
        // Pipelined latency: hops complete within about one frame each.
        let collected = w.proto::<Node>(NodeId(0)).collected();
        let lat = collected
            .iter()
            .map(|c| c.received_at.duration_since(c.sent_at).as_secs_f64())
            .sum::<f64>()
            / collected.len() as f64;
        assert!(lat < 0.3, "mean latency {lat}");
    }
}
