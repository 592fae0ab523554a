//! An RPL-flavoured DODAG collection protocol.
//!
//! Nodes self-organize into a destination-oriented DAG rooted at the
//! border router: the root advertises itself in DIO beacons paced by a
//! [`Trickle`] timer; nodes pick the neighbour with the lowest rank as
//! their parent, derive their own rank, and forward application data
//! hop-by-hop toward the root. The protocol repairs itself locally
//! (parent eviction after link-layer failures, poisoning with the
//! infinite rank, solicitation via DIS) and globally (root-initiated
//! version bump), and buffers data while partitioned from the root —
//! the routing-layer side of the paper's §V-C partition-tolerance
//! discussion.
//!
//! The implementation is generic over the [`Mac`], so the same routing
//! code runs over always-on CSMA, duty-cycled LPL/RI-MAC or pipelined
//! TDMA — exactly the layering §IV-B's latency analysis compares.

use crate::collect::{DataPlane, TAG_PUMP, TAG_TRAFFIC};
use crate::trickle::{Trickle, TrickleConfig};
use iiot_mac::{Mac, SendHandle, Service, Stack};
use iiot_sim::obs::EventKind;
use iiot_sim::{
    Ctx, Dst, Frame, NodeId, Proto, RxInfo, SimDuration, SimTime, Timer, TimerId, TxOutcome,
};
use rand::Rng;
use std::collections::BTreeMap;

pub use crate::collect::{Collected, Traffic, PORT_DATA};

/// Upper-layer port of DIO beacons.
pub const PORT_DIO: u8 = 10;
/// Upper-layer port of DIS solicitations.
pub const PORT_DIS: u8 = 11;

/// Rank of the DODAG root.
pub const ROOT_RANK: u16 = 256;
/// Rank increase per hop (unit-disk metric: one hop, one increment).
pub const RANK_INCREASE: u16 = 256;
/// The poison rank: "I have no route".
pub const INFINITE_RANK: u16 = u16::MAX;
/// A node following its parent's rank updates detaches once its rank
/// exceeds the rank it attached at by more than this (RPL's
/// MaxRankIncrease: the count-to-infinity bound).
pub const MAX_RANK_STRETCH: u16 = 3 * RANK_INCREASE;

const TAG_TRICKLE_T: u64 = 0x100;
const TAG_TRICKLE_END: u64 = 0x101;
const TAG_DIS: u64 = 0x102;
const TAG_SWEEP: u64 = 0x103;

/// Configuration of a [`DodagNode`].
#[derive(Clone, Debug)]
pub struct DodagConfig {
    /// Trickle parameters for DIO beaconing.
    pub trickle: TrickleConfig,
    /// Evict neighbours not heard for this long.
    pub neighbor_timeout: SimDuration,
    /// Solicitation period while orphaned.
    pub dis_period: SimDuration,
    /// Consecutive link-layer failures before evicting the parent.
    pub max_parent_failures: u32,
    /// Total transmission attempts per datum before dropping it.
    pub max_data_attempts: u32,
    /// Forwarding queue capacity (store-and-forward buffer while
    /// partitioned).
    pub queue_cap: usize,
    /// Retry pacing when the MAC reports a full queue.
    pub pump_period: SimDuration,
    /// After losing a parent, ignore candidates at or below our old
    /// depth for this long: their low ranks are likely stale state
    /// derived from us (our own descendants), and re-attaching to them
    /// starts a count-to-infinity storm. The window gives our poison
    /// DIO time to cascade through the sub-DODAG.
    pub reattach_quarantine: SimDuration,
    /// Optional periodic traffic generator.
    pub traffic: Option<Traffic>,
}

impl Default for DodagConfig {
    fn default() -> Self {
        DodagConfig {
            trickle: TrickleConfig {
                imin: SimDuration::from_millis(500),
                doublings: 6,
                k: 3,
            },
            neighbor_timeout: SimDuration::from_secs(100),
            dis_period: SimDuration::from_secs(2),
            max_parent_failures: 3,
            max_data_attempts: 5,
            queue_cap: 32,
            pump_period: SimDuration::from_millis(200),
            reattach_quarantine: SimDuration::from_secs(2),
            traffic: None,
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Neighbor {
    rank: u16,
    version: u8,
    last_heard: SimTime,
}

/// `a` is a strictly newer version than `b` (serial-number arithmetic).
fn version_newer(a: u8, b: u8) -> bool {
    a != b && a.wrapping_sub(b) < 128
}

/// An RPL-style collection node: a [`Dodag`] hosted alone on a MAC;
/// see the [module docs](self).
pub struct DodagNode<M: Mac> {
    stack: Stack<M>,
    dodag: Dodag,
}

/// The DODAG protocol as a [`Service`]: one node's routing state and
/// collection data plane, lent a MAC per call.
pub struct Dodag {
    config: DodagConfig,
    is_root: bool,
    version: u8,
    rank: u16,
    parent: Option<NodeId>,
    parent_failures: u32,
    /// Rank at the moment the current parent was adopted.
    rank_at_attach: u16,
    /// While `now < quarantine_until`, candidates with rank at or above
    /// `quarantine_rank` are ignored (suspected descendants).
    quarantine_until: SimTime,
    quarantine_rank: u16,
    neighbors: BTreeMap<NodeId, Neighbor>,
    trickle: Trickle,
    trickle_t: TimerId,
    trickle_end: TimerId,
    data: DataPlane,
    /// Count of parent switches (diagnostics for E11).
    parent_switches: u64,
}

impl<M: Mac> DodagNode<M> {
    /// Creates a node. Exactly one node per DODAG should be the root
    /// (the border router).
    pub fn new(mac: M, config: DodagConfig, is_root: bool) -> Self {
        DodagNode {
            stack: Stack::new(mac),
            dodag: Dodag::new(config, is_root),
        }
    }

    /// The node's current rank ([`INFINITE_RANK`] when orphaned).
    pub fn rank(&self) -> u16 {
        self.dodag.rank
    }

    /// The current preferred parent.
    pub fn parent(&self) -> Option<NodeId> {
        self.dodag.parent
    }

    /// Whether the node currently has a route to the root.
    pub fn has_route(&self) -> bool {
        self.dodag.is_root || self.dodag.parent.is_some()
    }

    /// The DODAG version this node is on.
    pub fn version(&self) -> u8 {
        self.dodag.version
    }

    /// Data collected so far (meaningful at the root).
    pub fn collected(&self) -> &[Collected] {
        self.dodag.collected()
    }

    /// Number of data items buffered locally (store-and-forward).
    pub fn buffered(&self) -> usize {
        self.dodag.data.buffered()
    }

    /// Number of parent switches performed (repair diagnostics).
    pub fn parent_switches(&self) -> u64 {
        self.dodag.parent_switches
    }

    /// The underlying MAC.
    pub fn mac(&self) -> &M {
        self.stack.mac()
    }

    /// Injects one application datum originating here, for manual use
    /// via [`Sim::with`](iiot_sim::Sim::with). Returns `false` if the
    /// buffer is full.
    pub fn send_datum(&mut self, ctx: &mut Ctx<'_>, payload: Vec<u8>) -> bool {
        self.dodag.send_datum(self.stack.mac_mut(), ctx, payload)
    }

    /// Root-only: starts a global repair by bumping the DODAG version.
    ///
    /// # Panics
    ///
    /// Panics if called on a non-root node.
    pub fn trigger_global_repair(&mut self, ctx: &mut Ctx<'_>) {
        self.dodag.trigger_global_repair(ctx);
    }
}

impl Dodag {
    /// Creates the service. Exactly one node per DODAG should be the
    /// root (the border router).
    pub fn new(config: DodagConfig, is_root: bool) -> Self {
        let imax = config.trickle.imin * (1 << config.trickle.doublings);
        assert!(
            config.neighbor_timeout > imax * 2,
            "neighbor_timeout must exceed 2x the trickle Imax ({imax}), or \
             suppressed beacons get mistaken for dead neighbours"
        );
        let trickle = Trickle::new(config.trickle);
        let data = DataPlane::new(
            "dodag",
            config.queue_cap,
            config.pump_period,
            config.max_data_attempts,
        );
        Dodag {
            config,
            is_root,
            version: 0,
            rank: if is_root { ROOT_RANK } else { INFINITE_RANK },
            parent: None,
            parent_failures: 0,
            rank_at_attach: INFINITE_RANK,
            quarantine_until: SimTime::ZERO,
            quarantine_rank: INFINITE_RANK,
            neighbors: BTreeMap::new(),
            trickle,
            trickle_t: TimerId::NONE,
            trickle_end: TimerId::NONE,
            data,
            parent_switches: 0,
        }
    }

    /// Data collected so far (meaningful at the root).
    pub fn collected(&self) -> &[Collected] {
        self.data.collected()
    }

    fn send_datum<M: Mac>(&mut self, mac: &mut M, ctx: &mut Ctx<'_>, payload: Vec<u8>) -> bool {
        self.data.originate(mac, ctx, self.parent, payload)
    }

    fn trigger_global_repair(&mut self, ctx: &mut Ctx<'_>) {
        assert!(self.is_root, "global repair starts at the root");
        self.version = self.version.wrapping_add(1);
        ctx.count("global_repairs", 1.0);
        self.trickle_reset(ctx, "repair");
    }

    // ------------------------------------------------------------------
    // Trickle plumbing
    // ------------------------------------------------------------------

    fn trickle_begin(&mut self, ctx: &mut Ctx<'_>) {
        ctx.cancel_timer(self.trickle_t);
        ctx.cancel_timer(self.trickle_end);
        let iv = self.trickle.begin_interval(ctx.rng());
        self.trickle_t = ctx.set_timer(iv.t, TAG_TRICKLE_T);
        self.trickle_end = ctx.set_timer(iv.end, TAG_TRICKLE_END);
    }

    fn trickle_reset(&mut self, ctx: &mut Ctx<'_>, cause: &'static str) {
        ctx.emit(EventKind::TrickleReset { cause });
        self.trickle.inconsistent();
        self.trickle_begin(ctx);
    }

    fn send_dio<M: Mac>(&mut self, mac: &mut M, ctx: &mut Ctx<'_>, rank: u16) {
        let payload = vec![self.version, (rank >> 8) as u8, (rank & 0xFF) as u8];
        if mac.send(ctx, Dst::Broadcast, PORT_DIO, payload).is_ok() {
            ctx.emit(EventKind::DioSent { rank });
            ctx.count_node("dio_tx", 1.0);
        }
    }

    // ------------------------------------------------------------------
    // Parent selection and repair
    // ------------------------------------------------------------------

    fn best_candidate(&self, now: SimTime) -> Option<(NodeId, u16)> {
        let quarantine = now < self.quarantine_until;
        self.neighbors
            .iter()
            .filter(|(_, n)| n.version == self.version && n.rank < INFINITE_RANK)
            .filter(|(_, n)| !quarantine || n.rank < self.quarantine_rank)
            .map(|(&id, n)| (n.rank, id))
            .min()
            .map(|(rank, id)| (id, rank))
    }

    fn reselect_parent<M: Mac>(&mut self, mac: &mut M, ctx: &mut Ctx<'_>) {
        if self.is_root {
            return;
        }
        let old = self.parent;
        let old_rank = self.rank;
        // The current parent's fresh advertisement, if still usable.
        let parent_rank = old
            .and_then(|p| self.neighbors.get(&p))
            .filter(|n| n.version == self.version && n.rank < INFINITE_RANK)
            .map(|n| n.rank);
        match self.best_candidate(ctx.now()) {
            Some((id, rank)) if rank.saturating_add(RANK_INCREASE) < INFINITE_RANK => {
                let switch_rank = rank + RANK_INCREASE;
                // Hysteresis: keep the current parent unless the best
                // candidate is strictly better (or the parent is gone).
                let keep =
                    parent_rank.is_some_and(|pr| switch_rank >= pr.saturating_add(RANK_INCREASE));
                if keep {
                    // Follow the parent's *current* rank: never freeze a
                    // stale rank, or two nodes can parent each other
                    // forever. If following drags us too far below the
                    // point we attached at, the subtree is chasing its
                    // own tail (count-to-infinity): break the loop.
                    let follow = parent_rank
                        .expect("keep implies parent")
                        .saturating_add(RANK_INCREASE);
                    if follow > self.rank_at_attach.saturating_add(MAX_RANK_STRETCH) {
                        ctx.count_node("rank_stretch_break", 1.0);
                        self.parent_lost(mac, ctx);
                        return;
                    }
                    self.rank = follow;
                } else {
                    self.parent = Some(id);
                    self.rank = switch_rank;
                    self.rank_at_attach = switch_rank;
                    self.parent_failures = 0;
                }
            }
            _ => {
                self.parent = None;
                self.rank = INFINITE_RANK;
            }
        }
        if self.parent != old || self.rank != old_rank {
            ctx.emit(EventKind::RankChange {
                old: old_rank,
                new: self.rank,
                parent: self.parent,
            });
        }
        if self.parent != old {
            self.parent_switches += 1;
            ctx.count_node("parent_switch", 1.0);
            if self.parent.is_none() {
                // Freshly orphaned: poison our sub-DODAG and solicit.
                ctx.count_node("orphaned", 1.0);
                self.send_dio(mac, ctx, INFINITE_RANK);
                ctx.set_timer(self.config.dis_period, TAG_DIS);
                self.trickle_reset(ctx, "parent_lost");
            } else {
                self.pump(mac, ctx);
                self.trickle_reset(ctx, "inconsistent");
            }
        } else if self.rank != old_rank {
            self.trickle_reset(ctx, "inconsistent");
        }
    }

    fn parent_lost<M: Mac>(&mut self, mac: &mut M, ctx: &mut Ctx<'_>) {
        if let Some(p) = self.parent.take() {
            self.neighbors.remove(&p);
        }
        // Quarantine: anything advertising a depth at or below ours is
        // suspected of deriving its rank from us.
        if self.rank < INFINITE_RANK {
            self.quarantine_rank = self.rank;
            self.quarantine_until = ctx.now() + self.config.reattach_quarantine;
        }
        self.rank = INFINITE_RANK;
        self.reselect_parent(mac, ctx);
        if self.parent.is_none() {
            // reselect_parent only emits orphan actions on a parent
            // *change*; entering here we already cleared it, so make
            // sure solicitation is armed.
            ctx.set_timer(self.config.dis_period, TAG_DIS);
        }
    }

    /// Offers the head of the data queue to the current parent.
    fn pump<M: Mac>(&mut self, mac: &mut M, ctx: &mut Ctx<'_>) {
        self.data.pump(mac, ctx, self.parent);
    }

    // ------------------------------------------------------------------
    // Control plane handlers
    // ------------------------------------------------------------------

    fn on_dio<M: Mac>(&mut self, mac: &mut M, ctx: &mut Ctx<'_>, from: NodeId, payload: &[u8]) {
        if payload.len() < 3 {
            return;
        }
        let version = payload[0];
        let rank = u16::from_be_bytes([payload[1], payload[2]]);

        if version_newer(version, self.version) && !self.is_root {
            // Global repair sweeping through: move to the new version.
            self.version = version;
            self.parent = None;
            self.rank = INFINITE_RANK;
            self.trickle_reset(ctx, "new_version");
        }

        self.neighbors.insert(
            from,
            Neighbor {
                rank,
                version,
                last_heard: ctx.now(),
            },
        );

        if rank == INFINITE_RANK {
            // Poison: our parent lost its route.
            if self.parent == Some(from) {
                self.parent_lost(mac, ctx);
            }
            return;
        }

        if !self.is_root {
            let had_route = self.parent.is_some();
            let old_rank = self.rank;
            // Adopt a strictly better parent.
            if rank.saturating_add(RANK_INCREASE) < self.rank
                || self.parent.is_none()
                || self.parent == Some(from)
            {
                self.reselect_parent(mac, ctx);
            }
            if self.rank == old_rank && had_route {
                self.trickle.heard_consistent();
            }
            if !had_route && self.parent.is_some() {
                self.pump(mac, ctx);
            }
        } else {
            self.trickle.heard_consistent();
        }
    }

    fn on_dis(&mut self, ctx: &mut Ctx<'_>) {
        // A neighbour needs the DODAG: beacon again soon.
        if self.rank != INFINITE_RANK {
            self.trickle_reset(ctx, "inconsistent");
        }
    }
}

impl<M: Mac> Service<M> for Dodag {
    fn start(&mut self, _mac: &mut M, ctx: &mut Ctx<'_>) {
        if self.is_root {
            self.rank = ROOT_RANK;
        } else {
            self.rank = INFINITE_RANK;
            self.parent = None;
            let jitter = ctx
                .rng()
                .gen_range(0..self.config.dis_period.as_micros().max(1));
            ctx.set_timer(SimDuration::from_micros(jitter), TAG_DIS);
        }
        self.trickle_begin(ctx);
        ctx.set_timer(self.config.neighbor_timeout / 4, TAG_SWEEP);
        if let Some(tr) = self.config.traffic.filter(|_| !self.is_root) {
            tr.arm_first(ctx);
        }
    }

    fn delivered(&mut self, mac: &mut M, ctx: &mut Ctx<'_>, src: NodeId, port: u8, payload: &[u8]) {
        match port {
            PORT_DIO => self.on_dio(mac, ctx, src, payload),
            PORT_DIS => self.on_dis(ctx),
            PORT_DATA => {
                let (up, root) = (self.parent, self.is_root);
                self.data.on_data(mac, ctx, up, root, src, payload);
            }
            _ => {}
        }
    }

    fn send_done(&mut self, mac: &mut M, ctx: &mut Ctx<'_>, handle: SendHandle, acked: bool) {
        if !self.data.settle(ctx, handle, acked) {
            return;
        }
        // A failed unicast is evidence against the parent.
        self.parent_failures = if acked { 0 } else { self.parent_failures + 1 };
        if !acked && self.parent_failures >= self.config.max_parent_failures {
            ctx.count_node("parent_evict", 1.0);
            self.parent_lost(mac, ctx);
        } else {
            self.pump(mac, ctx);
        }
    }

    fn timer(&mut self, mac: &mut M, ctx: &mut Ctx<'_>, timer: Timer) {
        match timer.tag {
            TAG_TRICKLE_T
                if timer.id == self.trickle_t
                    && self.trickle.should_transmit()
                    && self.rank != INFINITE_RANK =>
            {
                let rank = self.rank;
                self.send_dio(mac, ctx, rank);
            }
            TAG_TRICKLE_END if timer.id == self.trickle_end => {
                self.trickle.interval_expired();
                self.trickle_begin(ctx);
            }
            TAG_DIS if !self.is_root && self.parent.is_none() => {
                if mac.send(ctx, Dst::Broadcast, PORT_DIS, vec![]).is_ok() {
                    ctx.count_node("dis_tx", 1.0);
                }
                ctx.set_timer(self.config.dis_period, TAG_DIS);
            }
            TAG_SWEEP => {
                let cutoff = ctx.now();
                let timeout = self.config.neighbor_timeout;
                let expired: Vec<NodeId> = self
                    .neighbors
                    .iter()
                    .filter(|(_, n)| cutoff.duration_since(n.last_heard) > timeout)
                    .map(|(&id, _)| id)
                    .collect();
                let lost_parent = expired.iter().any(|&id| self.parent == Some(id));
                for id in expired {
                    self.neighbors.remove(&id);
                }
                if lost_parent {
                    self.parent_lost(mac, ctx);
                }
                ctx.set_timer(self.config.neighbor_timeout / 4, TAG_SWEEP);
            }
            TAG_TRAFFIC => {
                if let Some(tr) = self.config.traffic {
                    self.send_datum(mac, ctx, vec![0xAB; tr.payload_len]);
                    tr.arm_next(ctx);
                }
            }
            TAG_PUMP => self.pump(mac, ctx),
            _ => {}
        }
    }

    fn crashed(&mut self) {
        // RAM state is lost; the node rejoins from scratch on revive.
        self.version = 0;
        self.rank = if self.is_root {
            ROOT_RANK
        } else {
            INFINITE_RANK
        };
        self.parent = None;
        self.parent_failures = 0;
        self.rank_at_attach = INFINITE_RANK;
        self.quarantine_until = SimTime::ZERO;
        self.quarantine_rank = INFINITE_RANK;
        self.neighbors.clear();
        self.data.crashed();
        self.trickle = Trickle::new(self.config.trickle);
        self.trickle_t = TimerId::NONE;
        self.trickle_end = TimerId::NONE;
    }
}

impl<M: Mac> Proto for DodagNode<M> {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        self.stack.start(&mut self.dodag, ctx);
    }

    fn timer(&mut self, ctx: &mut Ctx<'_>, timer: Timer) {
        self.stack.timer(&mut self.dodag, ctx, timer);
    }

    fn frame(&mut self, ctx: &mut Ctx<'_>, frame: &Frame, info: RxInfo) {
        self.stack.frame(&mut self.dodag, ctx, frame, info);
    }

    fn tx_done(&mut self, ctx: &mut Ctx<'_>, outcome: TxOutcome) {
        self.stack.tx_done(&mut self.dodag, ctx, outcome);
    }

    fn crashed(&mut self) {
        self.stack.crashed(&mut self.dodag);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::{decode_data, encode_data, Datum};
    use iiot_mac::csma::CsmaMac;
    use iiot_sim::prelude::*;
    use proptest::prelude::*;

    type Node = DodagNode<CsmaMac>;

    fn build(topo: &Topology, seed: u64, config: DodagConfig) -> (Sim, Vec<NodeId>) {
        let w = SimBuilder::new()
            .seed(seed)
            .nodes(topo.clone(), move |i| {
                Box::new(DodagNode::new(CsmaMac::default(), config.clone(), i == 0))
            })
            .build();
        (w, (0..topo.len() as u32).map(NodeId).collect())
    }

    #[test]
    fn data_codec_round_trip() {
        let d = Datum {
            origin: NodeId(7),
            seq: 513,
            hops: 3,
            sent_at: SimTime::from_micros(123_456_789),
            payload: vec![1, 2, 3],
            attempts: 0,
        };
        let dec = decode_data(&encode_data(&d)).expect("decodes");
        assert_eq!(dec.origin, d.origin);
        assert_eq!(dec.seq, d.seq);
        assert_eq!(dec.hops, d.hops);
        assert_eq!(dec.sent_at, d.sent_at);
        assert_eq!(dec.payload, d.payload);
        assert!(decode_data(&[0; 10]).is_none());
    }

    /// Hands `payload` to `to` as a DATA frame from a neighbour that
    /// is not its parent, below the MAC (which carries any payload).
    fn deliver_data(w: &mut Sim, to: NodeId, payload: Vec<u8>) {
        w.with(to, |n: &mut Node, ctx| {
            n.dodag
                .delivered(n.stack.mac_mut(), ctx, NodeId(2), PORT_DATA, &payload);
        });
    }

    proptest! {
        /// `cargo test` is a debug build, so integer overflow and
        /// `duration_since`'s ordering assert are live: a forged
        /// `hops = 255` or a `sent_at` in the future must never panic.
        /// The root collects what is stamped in the past, counting hops
        /// saturating; a relay forwards it only under the TTL.
        #[test]
        fn data_off_the_wire_never_panics_and_valid_frames_are_collected(
            raw in proptest::collection::vec(any::<u8>(), 0..64),
            hops in prop_oneof![Just(63u8), Just(64u8), Just(255u8), any::<u8>()],
            sent_at_us in prop_oneof![0u64..5_000_000, any::<u64>()],
            seq in any::<u16>(),
        ) {
            let (mut w, ids) = build(&Topology::line(3, 20.0), 9, DodagConfig::default());
            w.run_for(SimDuration::from_secs(5));
            let (root, relay) = (ids[0], ids[1]);
            prop_assert_eq!(w.proto::<Node>(relay).parent(), Some(root));
            let d = Datum {
                origin: NodeId(77),
                seq,
                hops,
                sent_at: SimTime::from_micros(sent_at_us),
                payload: raw.clone(),
                attempts: 0,
            };
            let in_past = d.sent_at <= w.now();
            deliver_data(&mut w, root, raw.clone());
            deliver_data(&mut w, relay, raw);
            let before = w.proto::<Node>(root).collected().len();
            deliver_data(&mut w, root, encode_data(&d));
            let got = &w.proto::<Node>(root).collected()[before..];
            if in_past {
                prop_assert_eq!(got.len(), 1);
                prop_assert_eq!(
                    (got[0].origin, got[0].seq, got[0].hops, got[0].sent_at, &got[0].payload),
                    (d.origin, seq, hops.saturating_add(1), d.sent_at, &d.payload)
                );
            } else {
                prop_assert!(got.is_empty(), "frame from the future collected: {got:?}");
            }
            // The relay's copy (one more seq, so the root has not seen
            // it) goes over the air and arrives one hop older.
            let fwd = Datum { seq: seq.wrapping_add(1), ..d };
            deliver_data(&mut w, relay, encode_data(&fwd));
            w.run_for(SimDuration::from_secs(2));
            let at_root = w.proto::<Node>(root).collected().iter().find(|c| c.seq == fwd.seq);
            prop_assert_eq!(at_root.map(|c| c.hops), (in_past && hops < 64).then(|| hops + 2));
        }
    }

    #[test]
    fn version_arithmetic() {
        assert!(version_newer(1, 0));
        assert!(!version_newer(0, 1));
        assert!(version_newer(0, 255)); // wrap
        assert!(!version_newer(5, 5));
    }

    #[test]
    fn line_converges_with_sequential_ranks() {
        let (mut w, ids) = build(&Topology::line(5, 20.0), 1, DodagConfig::default());
        w.run_for(SimDuration::from_secs(20));
        for (i, &id) in ids.iter().enumerate() {
            let n = w.proto::<Node>(id);
            assert_eq!(
                n.rank(),
                ROOT_RANK + RANK_INCREASE * i as u16,
                "node {i} rank"
            );
            if i > 0 {
                assert_eq!(n.parent(), Some(ids[i - 1]), "node {i} parent");
            }
            assert!(n.has_route());
        }
    }

    #[test]
    fn grid_converges_to_bfs_depths() {
        // Dense 16-node cluster: raise the redundancy constant so
        // rank-improvement DIOs are not suppressed for long stretches.
        let mut cfg = DodagConfig::default();
        cfg.trickle.k = 6;
        let topo = Topology::grid(4, 4, 20.0);
        let (mut w, ids) = build(&topo, 2, cfg);
        w.run_for(SimDuration::from_secs(90));
        let hops = crate::graph::hops_from(&topo, &RadioConfig::default(), |_| true, ids[0]);
        for (i, &id) in ids.iter().enumerate() {
            let n = w.proto::<Node>(id);
            let expect = ROOT_RANK + RANK_INCREASE * hops[i].expect("connected") as u16;
            assert_eq!(n.rank(), expect, "node {i} should sit at BFS depth");
        }
    }

    #[test]
    fn collection_delivers_periodic_traffic() {
        let cfg = DodagConfig {
            traffic: Some(Traffic {
                period: SimDuration::from_secs(5),
                payload_len: 8,
                start_after: SimDuration::from_secs(15),
            }),
            ..DodagConfig::default()
        };
        let (mut w, ids) = build(&Topology::line(4, 20.0), 3, cfg);
        w.run_for(SimDuration::from_secs(60));
        let generated = w.stats().node_total("data_origin");
        let root = w.proto::<Node>(ids[0]);
        let received = root.collected().len() as f64;
        assert!(generated >= 20.0, "generated {generated}");
        assert!(
            received / generated > 0.95,
            "delivery ratio {received}/{generated}"
        );
        // Hops recorded match the line topology.
        let from3 = root
            .collected()
            .iter()
            .find(|c| c.origin == ids[3])
            .expect("datum from the far node");
        assert_eq!(from3.hops, 3);
        assert!(from3.latency() < SimDuration::from_secs(1));
    }

    #[test]
    fn local_repair_reroutes_around_dead_relay() {
        // Diamond: 0 (root) - {1,2} - 3; node 3 initially picks one
        // relay; killing it must reroute via the other.
        let topo: Topology = [
            Pos::new(0.0, 0.0),
            Pos::new(20.0, 10.0),
            Pos::new(20.0, -10.0),
            Pos::new(40.0, 0.0),
        ]
        .into_iter()
        .collect();
        let (mut w, ids) = build(&topo, 4, DodagConfig::default());
        w.run_for(SimDuration::from_secs(20));
        let first_parent = w.proto::<Node>(ids[3]).parent().expect("attached");
        assert!(first_parent == ids[1] || first_parent == ids[2]);
        w.kill(first_parent);
        // Generate traffic so the failure is noticed quickly.
        for k in 1..20u64 {
            let at = w.now() + SimDuration::from_secs(k);
            let ids3 = NodeId(3);
            w.schedule_at(at, move |w2| {
                w2.with(ids3, |n: &mut Node, ctx| n.send_datum(ctx, vec![9]));
            });
        }
        w.run_for(SimDuration::from_secs(40));
        let n3 = w.proto::<Node>(ids[3]);
        let other = if first_parent == ids[1] {
            ids[2]
        } else {
            ids[1]
        };
        assert_eq!(n3.parent(), Some(other), "rerouted around the dead relay");
        let root = w.proto::<Node>(ids[0]);
        assert!(
            root.collected()
                .iter()
                .filter(|c| c.origin == ids[3])
                .count()
                >= 10,
            "data flows again after repair"
        );
    }

    #[test]
    fn partition_buffers_then_flushes_on_heal() {
        // Orphaning is driven by link-layer send failures (the node
        // keeps generating data), not by neighbour expiry.
        let (mut w, ids) = build(&Topology::line(3, 20.0), 5, DodagConfig::default());
        w.run_for(SimDuration::from_secs(10));
        assert!(w.proto::<Node>(ids[2]).has_route());

        // Sever 1<->2: node 2 is partitioned from the root.
        w.block_link(ids[1], ids[2]);
        // It generates data while partitioned.
        for k in 0..5u64 {
            let at = w.now() + SimDuration::from_secs(2 + k * 2);
            w.schedule_at(at, move |w2| {
                w2.with(NodeId(2), |n: &mut Node, ctx| {
                    n.send_datum(ctx, vec![k as u8])
                });
            });
        }
        w.run_for(SimDuration::from_secs(40));
        let n2 = w.proto::<Node>(ids[2]);
        assert!(!n2.has_route(), "should be orphaned during partition");
        assert!(n2.buffered() >= 4, "buffered {} items", n2.buffered());
        let before = w.proto::<Node>(ids[0]).collected().len();

        // Heal and let solicitation + trickle re-attach the node.
        w.unblock_link(ids[1], ids[2]);
        w.run_for(SimDuration::from_secs(40));
        let n2 = w.proto::<Node>(ids[2]);
        assert!(n2.has_route(), "reattached after heal");
        assert_eq!(n2.buffered(), 0, "buffer flushed");
        let after = w.proto::<Node>(ids[0]).collected().len();
        assert!(after >= before + 5, "buffered data arrived after heal");
    }

    #[test]
    fn global_repair_moves_everyone_to_new_version() {
        let (mut w, ids) = build(&Topology::line(4, 20.0), 6, DodagConfig::default());
        w.run_for(SimDuration::from_secs(15));
        w.with(ids[0], |n: &mut Node, ctx| n.trigger_global_repair(ctx));
        w.run_for(SimDuration::from_secs(30));
        for &id in &ids {
            let n = w.proto::<Node>(id);
            assert_eq!(n.version(), 1, "node {id} on new version");
            assert!(n.has_route(), "node {id} re-attached");
        }
    }

    #[test]
    fn crash_recovery_rejoins() {
        let (mut w, ids) = build(&Topology::line(3, 20.0), 7, DodagConfig::default());
        w.run_for(SimDuration::from_secs(15));
        w.kill(ids[1]);
        w.run_for(SimDuration::from_secs(5));
        w.revive(ids[1]);
        w.run_for(SimDuration::from_secs(30));
        let n1 = w.proto::<Node>(ids[1]);
        assert!(n1.has_route(), "rejoined after crash-recovery");
        assert_eq!(n1.rank(), ROOT_RANK + RANK_INCREASE);
    }

    #[test]
    fn trickle_suppression_bounds_control_overhead() {
        // In a dense single-hop cluster, trickle suppression (k=3)
        // keeps total DIO traffic well below one-DIO-per-node-per-Imin.
        let (mut w, _ids) = build(&Topology::grid(4, 4, 5.0), 8, DodagConfig::default());
        let secs = 60;
        w.run_for(SimDuration::from_secs(secs));
        let dios = w.stats().node_total("dio_tx");
        // Upper bound without suppression: 16 nodes * 2 per second * 60.
        assert!(dios > 10.0, "some DIOs must flow: {dios}");
        assert!(
            dios < 16.0 * secs as f64,
            "suppression failed: {dios} DIOs in {secs}s"
        );
    }
}
