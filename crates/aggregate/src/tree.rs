//! The in-network aggregation protocol: TAG/TinyDB-style epoch-based
//! collection over a static tree, with a raw-forwarding baseline.
//!
//! Each epoch is divided into depth slots, deepest first: a node merges
//! its own sample with the partials received from its children, then
//! transmits one partial to its parent in its slot. The traffic near
//! the border router is therefore O(children) per epoch instead of
//! O(subtree) — the mechanism the paper credits with alleviating the
//! heavy load in the vicinity of border routers (§IV-B).
//!
//! In [`Mode::Raw`], the same schedule carries every individual reading
//! hop-by-hop to the root — the baseline whose funneling load the
//! experiment (E3) measures.
//!
//! Epoch boundaries are computed from the global clock (the real
//! systems piggyback time sync on the query dissemination; the paper's
//! claims do not hinge on sync error).

use crate::partial::Partial;
use crate::query::{Agg, Query};
use iiot_mac::{Mac, SendHandle, Service, Stack};
use iiot_sim::obs::EventKind;
use iiot_sim::{Ctx, Dst, Frame, NodeId, Proto, RxInfo, SimDuration, SimTime, Timer, TxOutcome};
use std::collections::VecDeque;

/// Upper-layer port of query dissemination floods.
pub const PORT_QUERY: u8 = 30;
/// Upper-layer port of aggregated partials.
pub const PORT_PARTIAL: u8 = 31;
/// Upper-layer port of raw readings (baseline).
pub const PORT_RAW: u8 = 32;

const TAG_DISSEMINATE: u64 = 0x300;
const TAG_SAMPLE: u64 = 0x301;
const TAG_SEND: u64 = 0x302;
const TAG_EPOCH_END: u64 = 0x303;
const TAG_PUMP: u64 = 0x304;

/// How far past a node's clock a flooded query may place epoch 0. The
/// root's is one dissemination delay ahead; anything beyond this is
/// forged, and would overflow the epoch arithmetic.
const EPOCH0_HORIZON: SimDuration = SimDuration::from_secs(3600);

/// Collection mode.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// In-network aggregation: one partial per node per epoch.
    Aggregate,
    /// Raw collection: every reading forwarded hop-by-hop (baseline).
    Raw,
}

/// When the root starts disseminating its query, and how long after
/// that the first epoch begins.
pub const DISSEMINATION_DELAY: SimDuration = SimDuration::from_secs(1);

/// The synthetic sensor every node samples: the value of `attr` at
/// `node` at time `t`, a node-specific offset plus a slow diurnal-ish
/// oscillation.
pub fn sensor(node: NodeId, t: SimTime, _attr: u8) -> f64 {
    20.0 + node.0 as f64 * 0.1 + (t.as_secs_f64() / 300.0).sin() * 2.0
}

/// Configuration of an [`AggregationNode`].
#[derive(Clone, Debug)]
pub struct AggConfig {
    /// Static collection tree: `parents[i]` is node `i`'s parent
    /// (`None` for the root). Derived at deployment time, e.g. from
    /// [`iiot_routing::graph::parents_bfs`].
    pub parents: Vec<Option<NodeId>>,
    /// Aggregate or raw baseline.
    pub mode: Mode,
    /// The query the root will disseminate.
    pub query: Query,
}

impl AggConfig {
    /// A config over `parents` with a default AVG query of `rounds`
    /// epochs of `epoch_ms` milliseconds.
    pub fn new(parents: Vec<Option<NodeId>>, mode: Mode, epoch_ms: u32, rounds: u16) -> Self {
        let max_depth = Self::depth_table(&parents).into_iter().max().unwrap_or(0);
        AggConfig {
            parents,
            mode,
            query: Query {
                id: 1,
                agg: Agg::Avg,
                attr: 0,
                epoch_ms,
                rounds,
                max_depth,
            },
        }
    }

    fn depth_table(parents: &[Option<NodeId>]) -> Vec<u8> {
        (0..parents.len())
            .map(|mut i| {
                let mut d = 0u8;
                let mut steps = 0;
                while let Some(p) = parents[i] {
                    i = p.index();
                    d += 1;
                    steps += 1;
                    assert!(steps <= parents.len(), "cycle in parent vector");
                }
                d
            })
            .collect()
    }
}

/// One finalized epoch at the root.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct EpochResult {
    /// Epoch index.
    pub epoch: u16,
    /// The aggregate value (`None` if nothing was heard).
    pub value: Option<f64>,
    /// Number of readings contributing.
    pub count: u32,
}

/// One node of the epoch-based collection protocol.
pub struct AggregationNode<M: Mac> {
    stack: Stack<M>,
    agg: Aggregation,
}

/// The service: one node's share of the query and its epochs.
struct Aggregation {
    config: AggConfig,
    depth: u8,
    query: Option<Query>,
    /// Absolute start of epoch 0.
    epoch0: SimTime,
    /// Accumulator of the current epoch (aggregate mode).
    acc: Partial,
    acc_epoch: u16,
    /// Raw values received this epoch (root, raw mode).
    raw_acc: Partial,
    /// Relay queue (raw mode).
    relay: VecDeque<Vec<u8>>,
    inflight: Option<SendHandle>,
    results: Vec<EpochResult>,
    seen_query: bool,
}

impl<M: Mac> AggregationNode<M> {
    /// Creates a node; the node whose parent entry is `None` acts as
    /// the root (border router).
    pub fn new(mac: M, config: AggConfig) -> Self {
        AggregationNode {
            stack: Stack::new(mac),
            agg: Aggregation {
                config,
                depth: 0,
                query: None,
                epoch0: SimTime::ZERO,
                acc: Partial::EMPTY,
                acc_epoch: 0,
                raw_acc: Partial::EMPTY,
                relay: VecDeque::new(),
                inflight: None,
                results: Vec::new(),
                seen_query: false,
            },
        }
    }

    /// Epoch results finalized so far (meaningful at the root).
    pub fn results(&self) -> &[EpochResult] {
        &self.agg.results
    }

    /// The underlying MAC.
    pub fn mac(&self) -> &M {
        self.stack.mac()
    }
}

impl Aggregation {
    fn is_root(&self, me: NodeId) -> bool {
        self.config.parents[me.index()].is_none()
    }

    fn parent(&self, me: NodeId) -> Option<NodeId> {
        self.config.parents[me.index()]
    }

    fn slot(&self, q: &Query) -> SimDuration {
        SimDuration::from_millis(q.epoch_ms as u64) / (q.max_depth as u64 + 2)
    }

    fn epoch_start(&self, q: &Query, epoch: u64) -> SimTime {
        self.epoch0 + SimDuration::from_millis(q.epoch_ms as u64) * epoch
    }

    fn adopt_query<M: Mac>(&mut self, mac: &mut M, ctx: &mut Ctx<'_>, q: Query, epoch0: SimTime) {
        if self.seen_query {
            return;
        }
        self.seen_query = true;
        self.query = Some(q);
        self.epoch0 = epoch0;
        // Re-flood once (except the root, which already broadcast it).
        if !self.is_root(ctx.id()) {
            let mut payload = q.encode();
            payload.extend_from_slice(&epoch0.as_micros().to_be_bytes());
            let _ = mac.send(ctx, Dst::Broadcast, PORT_QUERY, payload);
            ctx.emit(EventKind::AggSend { msg: "query" });
        }
        // First epoch at or after now.
        let behind = ctx.now().as_micros().saturating_sub(epoch0.as_micros());
        let first = behind.div_ceil(q.epoch_ms as u64 * 1000);
        if q.rounds == 0 || first < q.rounds as u64 {
            let at = self.epoch_start(&q, first);
            ctx.set_timer_at(at, TAG_SAMPLE);
        }
    }

    fn on_sample(&mut self, ctx: &mut Ctx<'_>) {
        let Some(q) = self.query else { return };
        let now = ctx.now();
        let epoch_ms = SimDuration::from_millis(q.epoch_ms as u64);
        let epoch = now.duration_since(self.epoch0).as_micros() / epoch_ms.as_micros();
        let me = ctx.id();
        let value = sensor(me, now, q.attr);

        self.acc = Partial::of(value);
        // The wire carries sixteen bits of it.
        self.acc_epoch = epoch as u16;
        if self.is_root(me) {
            self.raw_acc = Partial::of(value);
            // Finalize just before the next epoch boundary.
            ctx.set_timer_at(
                self.epoch_start(&q, epoch + 1) - SimDuration::from_millis(1),
                TAG_EPOCH_END,
            );
        } else {
            // `max_depth` is off the wire and may understate our depth.
            let slots = (q.max_depth as u64 + 1).saturating_sub(self.depth as u64);
            let send_at = self.epoch_start(&q, epoch) + self.slot(&q) * slots;
            ctx.set_timer_at(send_at, TAG_SEND);
            if self.config.mode == Mode::Raw {
                // The raw reading leaves immediately at the send slot;
                // encode now.
                let mut payload = vec![q.id];
                payload.extend_from_slice(&self.acc_epoch.to_be_bytes());
                payload.extend_from_slice(&me.0.to_be_bytes());
                payload.extend_from_slice(&value.to_be_bytes());
                self.relay.push_back(payload);
            }
        }
        // Next epoch.
        let next = epoch + 1;
        if q.rounds == 0 || next < q.rounds as u64 {
            ctx.set_timer_at(self.epoch_start(&q, next), TAG_SAMPLE);
        }
    }

    fn on_send_slot<M: Mac>(&mut self, mac: &mut M, ctx: &mut Ctx<'_>) {
        let Some(q) = self.query else { return };
        let me = ctx.id();
        let Some(parent) = self.parent(me) else {
            return;
        };
        match self.config.mode {
            Mode::Aggregate => {
                let mut payload = vec![q.id];
                payload.extend_from_slice(&self.acc_epoch.to_be_bytes());
                payload.extend_from_slice(&self.acc.encode());
                let _ = mac.send(ctx, Dst::Unicast(parent), PORT_PARTIAL, payload);
                ctx.emit(EventKind::AggSend { msg: "partial" });
            }
            Mode::Raw => self.pump(mac, ctx),
        }
    }

    fn pump<M: Mac>(&mut self, mac: &mut M, ctx: &mut Ctx<'_>) {
        if self.inflight.is_some() || self.relay.is_empty() {
            return;
        }
        let me = ctx.id();
        let Some(parent) = self.parent(me) else {
            return;
        };
        let head = self.relay.front().expect("nonempty").clone();
        match mac.send(ctx, Dst::Unicast(parent), PORT_RAW, head) {
            Ok(h) => {
                self.inflight = Some(h);
                ctx.emit(EventKind::AggSend { msg: "raw" });
            }
            Err(_) => {
                ctx.set_timer(SimDuration::from_millis(50), TAG_PUMP);
            }
        }
    }

    fn on_epoch_end(&mut self) {
        let Some(q) = self.query else { return };
        let acc = match self.config.mode {
            Mode::Aggregate => self.acc,
            Mode::Raw => self.raw_acc,
        };
        self.results.push(EpochResult {
            epoch: self.acc_epoch,
            value: acc.finalize(q.agg),
            count: acc.count,
        });
    }
}

impl<M: Mac> Service<M> for Aggregation {
    fn start(&mut self, _mac: &mut M, ctx: &mut Ctx<'_>) {
        let me = ctx.id();
        self.depth = AggConfig::depth_table(&self.config.parents)[me.index()];
        if self.is_root(me) {
            ctx.set_timer(DISSEMINATION_DELAY, TAG_DISSEMINATE);
        }
    }

    fn delivered(
        &mut self,
        mac: &mut M,
        ctx: &mut Ctx<'_>,
        _src: NodeId,
        port: u8,
        payload: &[u8],
    ) {
        match port {
            PORT_QUERY if payload.len() >= Query::WIRE_LEN + 8 => {
                if let Some(q) = Query::decode(payload) {
                    let e0 = u64::from_be_bytes(
                        payload[Query::WIRE_LEN..Query::WIRE_LEN + 8]
                            .try_into()
                            .expect("checked len"),
                    );
                    // Both come off the wire: a zero period divides by
                    // zero, a far-future epoch 0 overflows `SimTime`.
                    let horizon = (ctx.now() + EPOCH0_HORIZON).as_micros();
                    if q.epoch_ms == 0 || e0 > horizon {
                        ctx.emit(EventKind::BadInput { msg: "query" });
                        return;
                    }
                    // The root originates the query: one it hears is its
                    // own echo or forged. Adopting a forged one before its
                    // own flood would leave that query's sample timer
                    // armed against the epoch 0 its own flood sets later.
                    if !self.is_root(ctx.id()) {
                        self.adopt_query(mac, ctx, q, SimTime::from_micros(e0));
                    }
                }
            }
            PORT_PARTIAL if payload.len() >= 3 + Partial::WIRE_LEN => {
                let epoch = u16::from_be_bytes([payload[1], payload[2]]);
                if let Some(p) = Partial::decode(&payload[3..]) {
                    if epoch == self.acc_epoch {
                        self.acc.merge(&p);
                    }
                }
            }
            PORT_RAW => {
                let me = ctx.id();
                if self.is_root(me) {
                    if payload.len() >= 15 {
                        let epoch = u16::from_be_bytes([payload[1], payload[2]]);
                        let value =
                            f64::from_be_bytes(payload[7..15].try_into().expect("checked len"));
                        if epoch == self.acc_epoch {
                            self.raw_acc.merge(&Partial::of(value));
                        }
                    }
                } else {
                    if self.relay.len() < 64 {
                        self.relay.push_back(payload.to_vec());
                    }
                    self.pump(mac, ctx);
                }
            }
            _ => {}
        }
    }

    fn send_done(&mut self, mac: &mut M, ctx: &mut Ctx<'_>, handle: SendHandle, _acked: bool) {
        if self.inflight == Some(handle) {
            self.inflight = None;
            self.relay.pop_front();
            self.pump(mac, ctx);
        }
    }

    fn timer(&mut self, mac: &mut M, ctx: &mut Ctx<'_>, timer: Timer) {
        match timer.tag {
            TAG_DISSEMINATE => {
                let q = self.config.query;
                // First epoch starts one dissemination delay after the
                // flood, giving it time to reach the whole network.
                let epoch0 = ctx.now() + DISSEMINATION_DELAY;
                self.seen_query = false; // adopt ourselves
                let mut payload = q.encode();
                payload.extend_from_slice(&epoch0.as_micros().to_be_bytes());
                let _ = mac.send(ctx, Dst::Broadcast, PORT_QUERY, payload);
                self.adopt_query(mac, ctx, q, epoch0);
            }
            TAG_SAMPLE => self.on_sample(ctx),
            TAG_SEND => self.on_send_slot(mac, ctx),
            TAG_EPOCH_END => self.on_epoch_end(),
            TAG_PUMP => self.pump(mac, ctx),
            _ => {}
        }
    }

    fn crashed(&mut self) {
        self.query = None;
        self.seen_query = false;
        self.acc = Partial::EMPTY;
        self.raw_acc = Partial::EMPTY;
        self.relay.clear();
        self.inflight = None;
    }
}

impl<M: Mac> Proto for AggregationNode<M> {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        self.stack.start(&mut self.agg, ctx);
    }

    fn timer(&mut self, ctx: &mut Ctx<'_>, timer: Timer) {
        self.stack.timer(&mut self.agg, ctx, timer);
    }

    fn frame(&mut self, ctx: &mut Ctx<'_>, frame: &Frame, info: RxInfo) {
        self.stack.frame(&mut self.agg, ctx, frame, info);
    }

    fn tx_done(&mut self, ctx: &mut Ctx<'_>, outcome: TxOutcome) {
        self.stack.tx_done(&mut self.agg, ctx, outcome);
    }

    fn crashed(&mut self) {
        self.stack.crashed(&mut self.agg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iiot_mac::csma::CsmaMac;
    use iiot_sim::obs::RingRecorder;
    use iiot_sim::prelude::*;
    use iiot_sim::{Fault, FaultPlan};
    use std::collections::BTreeMap;

    type Node = AggregationNode<CsmaMac>;

    fn line_parents(n: usize) -> Vec<Option<NodeId>> {
        (0..n)
            .map(|i| {
                if i == 0 {
                    None
                } else {
                    Some(NodeId(i as u32 - 1))
                }
            })
            .collect()
    }

    /// CSMA aggregation nodes on a 20 m line; ids in position order.
    fn line_sim(seed: u64, cfg: AggConfig) -> (Sim, Vec<NodeId>) {
        recorded_line_sim(seed, cfg, false)
    }

    /// [`line_sim`], with a ring recorder if `record`.
    fn recorded_line_sim(seed: u64, cfg: AggConfig, record: bool) -> (Sim, Vec<NodeId>) {
        let n = cfg.parents.len();
        let mut b = SimBuilder::new()
            .seed(seed)
            .nodes(Topology::line(n, 20.0), move |_| {
                Box::new(AggregationNode::new(CsmaMac::default(), cfg.clone()))
            });
        if record {
            b = b.recorder(Box::new(RingRecorder::new(1 << 16)));
        }
        (b.build(), (0..n as u32).map(NodeId).collect())
    }

    fn run(n: usize, mode: Mode, epoch_ms: u32, rounds: u16, seed: u64) -> (Sim, Vec<NodeId>) {
        let cfg = AggConfig::new(line_parents(n), mode, epoch_ms, rounds);
        let (mut w, ids) = line_sim(seed, cfg);
        let horizon = 2_000 + epoch_ms as u64 * (rounds as u64 + 2);
        w.run_for(SimDuration::from_millis(horizon));
        (w, ids)
    }

    /// Flat-computed expectation for the sensor at a given
    /// sampling time is hard to pin exactly (nodes sample at the same
    /// epoch start), so compute it from the same function.
    fn expected_avg(n: usize, at: SimTime) -> f64 {
        let sum: f64 = (0..n).map(|i| sensor(NodeId(i as u32), at, 0)).sum();
        sum / n as f64
    }

    #[test]
    fn aggregate_avg_matches_flat_computation() {
        let (w, ids) = run(5, Mode::Aggregate, 4_000, 3, 1);
        let root = w.proto::<Node>(ids[0]);
        assert_eq!(root.results().len(), 3, "all epochs finalized");
        for r in root.results() {
            assert_eq!(r.count, 5, "every node contributed in epoch {}", r.epoch);
            let at = SimTime::from_millis(2_000 + r.epoch as u64 * 4_000);
            let expect = expected_avg(5, at);
            let got = r.value.expect("value");
            assert!(
                (got - expect).abs() < 1e-9,
                "epoch {}: got {got}, expect {expect}",
                r.epoch
            );
        }
    }

    #[test]
    fn raw_mode_collects_every_reading() {
        let (w, ids) = run(5, Mode::Raw, 4_000, 3, 2);
        let root = w.proto::<Node>(ids[0]);
        assert_eq!(root.results().len(), 3);
        for r in root.results() {
            assert_eq!(r.count, 5, "epoch {} readings", r.epoch);
        }
    }

    #[test]
    fn aggregation_removes_funneling() {
        // 8-node line: in raw mode node 1 (next to the root) forwards
        // all 7 readings; in aggregate mode it sends exactly 1 partial
        // per epoch.
        let rounds = 4u16;
        let (wr, ids) = run(8, Mode::Raw, 4_000, rounds, 3);
        let raw_tx_n1 = wr.stats().get_node(ids[1], "raw_tx");
        assert!(
            raw_tx_n1 >= (rounds as f64) * 6.0,
            "raw funnel at node 1: {raw_tx_n1} transmissions"
        );

        let (wa, ids) = run(8, Mode::Aggregate, 4_000, rounds, 3);
        let agg_tx_n1 = wa.stats().get_node(ids[1], "agg_tx");
        assert_eq!(agg_tx_n1, rounds as f64, "one partial per epoch");
        assert!(raw_tx_n1 > 5.0 * agg_tx_n1, "funneling factor");
    }

    #[test]
    fn min_max_sum_count_operators() {
        for (agg, check) in [
            (Agg::Min, 0usize),
            (Agg::Max, 1),
            (Agg::Sum, 2),
            (Agg::Count, 3),
        ] {
            let mut cfg = AggConfig::new(line_parents(4), Mode::Aggregate, 4_000, 2);
            cfg.query.agg = agg;
            let (mut w, ids) = line_sim(10 + check as u64, cfg);
            w.run_for(SimDuration::from_secs(12));
            let root = w.proto::<Node>(ids[0]);
            assert!(!root.results().is_empty());
            let r = root.results()[0];
            assert_eq!(r.count, 4);
            let at = SimTime::from_millis(2_000);
            let vals: Vec<f64> = (0..4).map(|i| sensor(NodeId(i), at, 0)).collect();
            let expect = match agg {
                Agg::Min => vals.iter().cloned().fold(f64::INFINITY, f64::min),
                Agg::Max => vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
                Agg::Sum => vals.iter().sum(),
                Agg::Count => 4.0,
                Agg::Avg => unreachable!(),
            };
            let got = r.value.expect("value");
            assert!((got - expect).abs() < 1e-9, "{agg:?}: {got} vs {expect}");
        }
    }

    #[test]
    fn dead_subtree_undercounts_gracefully() {
        let cfg = AggConfig::new(line_parents(5), Mode::Aggregate, 4_000, 4);
        let (mut w, ids) = line_sim(20, cfg);
        // Kill node 3 after the first epoch: nodes 3 and 4 disappear
        // from subsequent epochs (static tree, no repair — by design).
        FaultPlan::new()
            .push(Fault::Crash {
                node: NodeId(3),
                at: SimTime::from_secs(7),
            })
            .apply(&mut w)
            .expect("fault plan fits the sim");
        w.run_for(SimDuration::from_secs(20));
        let root = w.proto::<Node>(ids[0]);
        let counts: Vec<u32> = root.results().iter().map(|r| r.count).collect();
        assert_eq!(counts[0], 5);
        assert!(
            counts.last().copied() == Some(3),
            "later epochs count only the live subtree: {counts:?}"
        );
    }

    #[test]
    fn pull_once_query_runs_single_round() {
        // Koala-style on-demand pull: a one-round query.
        let (w, ids) = run(4, Mode::Aggregate, 3_000, 1, 30);
        let root = w.proto::<Node>(ids[0]);
        assert_eq!(root.results().len(), 1);
        assert_eq!(root.results()[0].count, 4);
        // No further traffic after the round: total partials == 3.
        assert_eq!(w.stats().node_total("agg_tx"), 3.0);
    }

    /// Hands node 1 of a two-node line a QUERY flood `query` with epoch
    /// 0 at `epoch0`, as its MAC would, half a [`DISSEMINATION_DELAY`]
    /// into the run: before the root's own flood, so the forged one is
    /// the first node 1 hears. Returns the sim right after.
    fn forged_query(query: Query, epoch0: SimTime) -> Sim {
        recorded_forged_query(query, epoch0, false)
    }

    /// [`forged_query`], with a ring recorder if `record`.
    fn recorded_forged_query(query: Query, epoch0: SimTime, record: bool) -> Sim {
        let cfg = AggConfig::new(line_parents(2), Mode::Aggregate, 4_000, 0);
        let (mut w, ids) = recorded_line_sim(3, cfg, record);
        w.run_for(DISSEMINATION_DELAY / 2);
        w.with(ids[1], |n: &mut Node, ctx| {
            let mut payload = query.encode();
            payload.extend_from_slice(&epoch0.as_micros().to_be_bytes());
            n.agg
                .delivered(n.stack.mac_mut(), ctx, NodeId(0), PORT_QUERY, &payload);
        });
        w
    }

    fn query(epoch_ms: u32) -> Query {
        Query {
            epoch_ms,
            rounds: 0,
            ..AggConfig::new(line_parents(2), Mode::Aggregate, 1, 0).query
        }
    }

    #[test]
    fn forged_query_with_a_zero_epoch_is_rejected() {
        let w = forged_query(query(0), SimTime::from_secs(1));
        assert_eq!(w.stats().get_node(NodeId(1), "query_bad"), 1.0);
        assert_eq!(w.stats().get_node(NodeId(1), "query_fwd"), 0.0);
    }

    #[test]
    fn forged_query_with_a_far_future_epoch0_is_rejected() {
        let w = forged_query(query(4_000), SimTime::MAX);
        assert_eq!(w.stats().get_node(NodeId(1), "query_bad"), 1.0);
        let w = forged_query(query(4_000), SimTime::from_secs(3_000));
        assert_eq!(w.stats().get_node(NodeId(1), "query_bad"), 0.0);
    }

    #[test]
    fn forged_query_far_in_the_past_starts_at_the_next_epoch_without_spinning() {
        // Five hundred 1 ms epochs have passed when node 1 hears it:
        // the first epoch it runs is computed, not stepped to.
        let mut w = forged_query(query(1), SimTime::ZERO);
        w.run_for(SimDuration::from_secs(10));
        assert_eq!(w.stats().get_node(NodeId(1), "query_fwd"), 1.0);
        let sent = w.stats().get_node(NodeId(1), "agg_tx");
        assert!((9_000.0..=10_000.0).contains(&sent), "{sent} partials");
    }

    /// Each aggregation counter equals its kind's trace count per node,
    /// and recording changes none of them: raw and aggregate rounds
    /// for the three sends, a forged query for `query_bad`.
    #[test]
    fn counters_equal_their_trace_recorder_on_or_off() {
        let round = |mode| {
            move |record| {
                let cfg = AggConfig::new(line_parents(4), mode, 4_000, 2);
                let (mut w, _) = recorded_line_sim(5, cfg, record);
                w.run_for(SimDuration::from_secs(14));
                w
            }
        };
        let forged = |record| recorded_forged_query(query(0), SimTime::from_secs(1), record);
        let worlds: [(&dyn Fn(bool) -> Sim, &str); 4] = [
            (&round(Mode::Raw), "raw_tx"),
            (&round(Mode::Aggregate), "agg_tx"),
            (&round(Mode::Raw), "query_fwd"),
            (&forged, "query_bad"),
        ];
        for (world, counter) in worlds {
            let (plain, traced) = (world(false), world(true));
            let ring = traced.recorder_as::<RingRecorder>().expect("ring");
            assert_eq!(ring.dropped(), 0);
            let mut events = BTreeMap::new();
            for e in ring.events().filter(|e| e.kind.counter() == Some(counter)) {
                *events.entry(e.node).or_insert(0.0) += 1.0;
            }
            let values = traced.stats().node_values(counter);
            assert!(!values.is_empty(), "{counter} never happened");
            assert_eq!(values, events.into_iter().collect::<Vec<_>>(), "{counter}");
            assert_eq!(plain.stats().node_values(counter), values, "{counter}");
        }
    }
}
