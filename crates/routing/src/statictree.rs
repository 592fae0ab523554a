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

use crate::dodag::{decode_data, encode_data, Collected, Datum, Traffic, PORT_DATA};
use iiot_mac::{Mac, MacEvent, SendHandle};
use iiot_sim::{Ctx, Dst, Frame, NodeId, Proto, RxInfo, SimDuration, Timer, TxOutcome};
use rand::Rng;
use std::collections::VecDeque;

const TAG_TRAFFIC: u64 = 0x180;
const TAG_PUMP: u64 = 0x181;

/// Configuration of a [`StaticCollection`] node.
#[derive(Clone, Debug)]
pub struct StaticConfig {
    /// The fixed tree: `parents[i]` is node `i`'s parent, `None` for
    /// the root.
    pub parents: Vec<Option<NodeId>>,
    /// Optional periodic traffic generator.
    pub traffic: Option<Traffic>,
    /// Forwarding queue capacity.
    pub queue_cap: usize,
    /// Retry pacing when the MAC reports a full queue.
    pub pump_period: SimDuration,
}

impl StaticConfig {
    /// A config over `parents` with no traffic.
    pub fn new(parents: Vec<Option<NodeId>>) -> Self {
        StaticConfig {
            parents,
            traffic: None,
            queue_cap: 32,
            pump_period: SimDuration::from_millis(200),
        }
    }
}

/// A collection node over a fixed tree; see the [module docs](self).
pub struct StaticCollection<M: Mac> {
    mac: M,
    config: StaticConfig,
    queue: VecDeque<Datum>,
    inflight: Option<SendHandle>,
    seq: u16,
    seen: VecDeque<(NodeId, u16)>,
    collected: Vec<Collected>,
}

impl<M: Mac> StaticCollection<M> {
    /// Creates a node; the node whose parent entry is `None` is the
    /// root.
    pub fn new(mac: M, config: StaticConfig) -> Self {
        StaticCollection {
            mac,
            config,
            queue: VecDeque::new(),
            inflight: None,
            seq: 0,
            seen: VecDeque::new(),
            collected: Vec::new(),
        }
    }

    /// Data collected so far (meaningful at the root).
    pub fn collected(&self) -> &[Collected] {
        &self.collected
    }

    /// Whether this node has a path to the root (statically always
    /// true; present for API parity with the DODAG).
    pub fn has_route(&self) -> bool {
        true
    }

    fn parent(&self, me: NodeId) -> Option<NodeId> {
        self.config.parents[me.index()]
    }

    /// Injects one application datum originating here.
    pub fn send_datum(&mut self, ctx: &mut Ctx<'_>, payload: Vec<u8>) -> bool {
        self.seq = self.seq.wrapping_add(1);
        let d = Datum {
            origin: ctx.id(),
            seq: self.seq,
            hops: 0,
            sent_at: ctx.now(),
            payload,
            attempts: 0,
        };
        ctx.count_node("data_origin", 1.0);
        self.enqueue(ctx, d)
    }

    fn enqueue(&mut self, ctx: &mut Ctx<'_>, d: Datum) -> bool {
        if self.queue.len() >= self.config.queue_cap {
            ctx.count_node("data_drop_queue", 1.0);
            return false;
        }
        self.queue.push_back(d);
        self.pump(ctx);
        true
    }

    fn pump(&mut self, ctx: &mut Ctx<'_>) {
        if self.inflight.is_some() || self.queue.is_empty() {
            return;
        }
        let Some(parent) = self.parent(ctx.id()) else {
            return;
        };
        let head = self.queue.front().expect("nonempty");
        let bytes = encode_data(head);
        match self.mac.send(ctx, Dst::Unicast(parent), PORT_DATA, bytes) {
            Ok(h) => self.inflight = Some(h),
            Err(_) => {
                ctx.set_timer(self.config.pump_period, TAG_PUMP);
            }
        }
    }

    fn already_seen(&mut self, origin: NodeId, seq: u16) -> bool {
        if self.seen.iter().any(|&(o, s)| o == origin && s == seq) {
            return true;
        }
        if self.seen.len() >= 256 {
            self.seen.pop_front();
        }
        self.seen.push_back((origin, seq));
        false
    }

    fn handle_mac_events(&mut self, ctx: &mut Ctx<'_>, events: Vec<MacEvent>) {
        for ev in events {
            match ev {
                MacEvent::Delivered {
                    upper_port,
                    payload,
                    ..
                } if upper_port == PORT_DATA => {
                    let Some(mut d) = decode_data(&payload) else {
                        continue;
                    };
                    if self.already_seen(d.origin, d.seq) {
                        ctx.count_node("data_dup", 1.0);
                        continue;
                    }
                    if self.parent(ctx.id()).is_none() {
                        ctx.count("data_rx_root", 1.0);
                        ctx.record(
                            "collect_latency_s",
                            ctx.now().duration_since(d.sent_at).as_secs_f64(),
                        );
                        ctx.record("collect_hops", d.hops as f64 + 1.0);
                        self.collected.push(Collected {
                            origin: d.origin,
                            seq: d.seq,
                            hops: d.hops + 1,
                            sent_at: d.sent_at,
                            received_at: ctx.now(),
                            payload: d.payload,
                        });
                    } else {
                        d.hops = d.hops.saturating_add(1);
                        ctx.count_node("data_fwd", 1.0);
                        self.enqueue(ctx, d);
                    }
                }
                MacEvent::Delivered { .. } => {}
                MacEvent::SendDone { handle, acked } => {
                    if self.inflight == Some(handle) {
                        self.inflight = None;
                        if acked {
                            self.queue.pop_front();
                        } else if let Some(head) = self.queue.front_mut() {
                            head.attempts += 1;
                            if head.attempts >= 5 {
                                self.queue.pop_front();
                                ctx.count_node("data_drop_retries", 1.0);
                            }
                        }
                        self.pump(ctx);
                    }
                }
            }
        }
    }
}

impl<M: Mac> Proto for StaticCollection<M> {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        self.mac.start(ctx);
        if let Some(tr) = self.config.traffic {
            if self.parent(ctx.id()).is_some() {
                let jitter = ctx.rng().gen_range(0..tr.period.as_micros().max(1));
                ctx.set_timer(
                    tr.start_after + SimDuration::from_micros(jitter),
                    TAG_TRAFFIC,
                );
            }
        }
    }

    fn timer(&mut self, ctx: &mut Ctx<'_>, timer: Timer) {
        let mut out = Vec::new();
        if self.mac.on_timer(ctx, timer, &mut out) {
            self.handle_mac_events(ctx, out);
            return;
        }
        match timer.tag {
            TAG_TRAFFIC => {
                if let Some(tr) = self.config.traffic {
                    self.send_datum(ctx, vec![0xAB; tr.payload_len]);
                    let p = tr.period.as_micros();
                    let jittered = p * 9 / 10 + ctx.rng().gen_range(0..=(p / 5).max(1));
                    ctx.set_timer(SimDuration::from_micros(jittered), TAG_TRAFFIC);
                }
            }
            TAG_PUMP => self.pump(ctx),
            _ => {}
        }
    }

    fn frame(&mut self, ctx: &mut Ctx<'_>, frame: &Frame, info: RxInfo) {
        let mut out = Vec::new();
        self.mac.on_frame(ctx, frame, info, &mut out);
        self.handle_mac_events(ctx, out);
    }

    fn tx_done(&mut self, ctx: &mut Ctx<'_>, outcome: TxOutcome) {
        let mut out = Vec::new();
        self.mac.on_tx_done(ctx, outcome, &mut out);
        self.handle_mac_events(ctx, out);
    }

    fn crashed(&mut self) {
        self.mac.crashed();
        self.queue.clear();
        self.inflight = None;
        self.seen.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iiot_mac::tdma::{TdmaConfig, TdmaMac, TdmaSchedule};
    use iiot_sim::prelude::*;

    type Node = StaticCollection<TdmaMac>;

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
                    TdmaMac::new(TdmaConfig::default(), sched.clone()),
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
        let lat = w.stats().summary("collect_latency_s");
        assert!(lat.mean < 0.3, "mean latency {}", lat.mean);
    }
}
