//! Conservative-lookahead sharded execution.
//!
//! The world is partitioned into spatial shards — contiguous x-stripes
//! over the deployment's bounding box, i.e. contiguous blocks of the
//! medium's uniform grid cells — and each shard advances its own event
//! heap inside lookahead windows. The window bound is
//! `min(segment_end, m + L)` where `m` is the globally earliest pending
//! event and `L` the lookahead, so empty simulated time is skipped
//! automatically. `L` is the minimum cross-shard event delay,
//! `min(minimum frame airtime, wire latency)`: every event a
//! shard can address to another shard lands at least `L` after the
//! moment it is created, hence always at or beyond the current window
//! edge — delivering staged events at the barrier can never violate
//! timestamp order inside a window.
//!
//! At each barrier shards exchange three things, all produced and
//! routed in deterministic order (origin shard ascending, staging order
//! within an origin):
//!
//! 1. **Radio-state snapshots** of own nodes whose remotely visible
//!    state changed ([`crate::radio::NodeStateSnap`]): candidate
//!    filtering and CCA in other shards read them.
//! 2. **Echoed transmission records** ([`crate::radio::EchoTx`]) for
//!    border transmissions audible across the stripe boundary; the
//!    receiving shard adopts them into its slab so its collision and
//!    CCA scans see the foreign traffic, and evaluates its own nodes'
//!    receptions against the origin's PRR draws.
//! 3. **Cross-shard events** (receptions and backhaul messages)
//!    captured by the kernel's routing hook.
//!
//! # Semantics
//!
//! A sharded run is *not* event-for-event identical to the serial
//! kernel: zero-delay couplings (CCA during an ongoing foreign
//! transmission, collision with a transmission started mid-window in
//! another shard) are only visible from the next barrier on. Instead,
//! `shards = k` defines its own deterministic model: the outcome is a
//! pure function of (workload, seed, k), independent of how many OS
//! threads execute it — the serial and threaded drivers perform
//! byte-identical world operations, which the equivalence proptests
//! assert. Topologies whose radio clusters never straddle a shard
//! border reproduce the serial kernel exactly, up to the interleaving
//! of same-timestamp events from independent clusters in the merged
//! trace (the serial kernel orders those by global queue insertion,
//! the merge by shard).

use crate::ids::NodeId;
use crate::node::{Proto, StateLoss};
use crate::obs::{self, Event, Recorder};
use crate::radio::{EchoTx, MediumStats, NodeStateSnap, TxId};
use crate::time::{SimDuration, SimTime};
use crate::topology::Topology;
use crate::trace::Stats;
use crate::world::{FaultOp, SimConfig, StagedEv, World};
use std::cell::OnceCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};

/// Constructor for the protocol stack of a group's node `i`. Shard
/// replicas instantiate every node (foreign ones stay inert), so the
/// factory must be pure: same `i`, same protocol.
pub(crate) type ProtoFactory = Box<dyn Fn(usize) -> Box<dyn Proto> + Send + Sync>;

/// Most shards an engine supports (shard audibility masks are `u64`).
pub(crate) const MAX_SHARDS: usize = 64;

/// A deferred engine-level operation, applied between windows.
pub(crate) enum EngineOp {
    /// Run a closure against the owning shard's replica.
    Closure(NodeId, Box<dyn FnOnce(&mut World) + Send>),
    /// Inject a fault (full semantics in one replica, mirrored to the
    /// rest — see [`ShardEngine::apply_fault`]).
    Fault(FaultOp),
}

/// Per-shard buffer for structured events, merged deterministically
/// into the engine-level recorder at each barrier.
#[derive(Debug, Default)]
pub(crate) struct ShardBuf {
    events: Vec<Event>,
}

impl Recorder for ShardBuf {
    fn record(&mut self, ev: &Event) {
        self.events.push(*ev);
    }
}

/// Everything one shard sends at a barrier, pre-routed per target.
#[derive(Default)]
struct TargetBatch {
    snaps: Vec<NodeStateSnap>,
    /// `(origin tx id, record)`.
    adopts: Vec<(TxId, EchoTx)>,
    events: Vec<StagedEv>,
}

impl TargetBatch {
    fn is_empty(&self) -> bool {
        self.snaps.is_empty() && self.adopts.is_empty() && self.events.is_empty()
    }
}

struct Outbox {
    per_target: Vec<TargetBatch>,
    obs: Vec<Event>,
}

/// The sharded engine: `k` world replicas plus the barrier scaffolding
/// that keeps them exchanging border traffic in deterministic order.
pub(crate) struct ShardEngine {
    worlds: Vec<World>,
    shard_of: Vec<u8>,
    /// The closed x-interval of each shard's stripe.
    stripes: Vec<(f64, f64)>,
    /// The medium's maximum audible range (infinite without a cutoff).
    reach: f64,
    lookahead: SimDuration,
    /// Run windows inline on the calling thread instead of spawning one
    /// worker per shard. Same world operations in the same order — the
    /// equivalence proptests compare the two drivers byte for byte.
    serial: bool,
    now: SimTime,
    /// Engine-level structured-event sink; the per-replica [`ShardBuf`]s
    /// drain into it at barriers, globally ordered by
    /// `(time, shard, buffer position)`.
    recorder: Option<Box<dyn Recorder>>,
    actions: BTreeMap<(SimTime, u64), EngineOp>,
    action_seq: u64,
    /// [`ShardEngine::stats`]' merge of the replicas' statistics, built
    /// on demand and dropped by every entry point that can run
    /// protocol code.
    merged_stats: OnceCell<Stats>,
}

/// Assigns each node to an x-stripe shard and computes the stripe
/// intervals. Falls back to index chunks when every node shares one x
/// coordinate (stripes would be zero-width); audibility masks then
/// treat all shards as mutually audible, which is exactly right for
/// co-located nodes.
fn partition_x(xs: &[f64], k: usize) -> (Vec<u8>, Vec<(f64, f64)>) {
    let (min_x, max_x) = xs
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        });
    let span = max_x - min_x;
    let stripes: Vec<(f64, f64)> = (0..k)
        .map(|i| {
            let w = if span > 0.0 { span / k as f64 } else { 0.0 };
            (min_x + i as f64 * w, min_x + (i + 1) as f64 * w)
        })
        .collect();
    let shard_of = if span > 0.0 {
        xs.iter()
            .map(|&x| {
                let idx = ((x - min_x) / span * k as f64).floor() as usize;
                idx.min(k - 1) as u8
            })
            .collect()
    } else {
        // Degenerate bounding box: chunk by index for balance.
        let n = xs.len().max(1);
        let chunk = n.div_ceil(k);
        (0..xs.len())
            .map(|i| ((i / chunk).min(k - 1)) as u8)
            .collect()
    };
    (shard_of, stripes)
}

/// Distance from `x` to the closed interval `[lo, hi]`.
fn dist_to_stripe(x: f64, (lo, hi): (f64, f64)) -> f64 {
    if x < lo {
        lo - x
    } else if x > hi {
        x - hi
    } else {
        0.0
    }
}

impl ShardEngine {
    /// Builds `shards` replicas of the configured world. Each replica
    /// holds *every* node (identical seeds, positions, clocks by
    /// construction) but only schedules protocol activity for its own;
    /// foreign nodes are inert mirrors refreshed at barriers.
    pub(crate) fn new(
        config: SimConfig,
        groups: &[(Topology, ProtoFactory)],
        shards: usize,
        serial: bool,
    ) -> Self {
        assert!(
            (2..=MAX_SHARDS).contains(&shards),
            "shard count must be in 2..={MAX_SHARDS} (1 runs the serial kernel)"
        );
        let lookahead = config.radio.airtime(0).min(config.wire_latency);
        assert!(
            lookahead >= SimDuration::from_micros(1),
            "sharded execution needs a nonzero minimum frame airtime and wire latency"
        );

        let xs: Vec<f64> = groups
            .iter()
            .flat_map(|(topo, _)| (0..topo.len()).map(move |i| topo.pos(i).x))
            .collect();
        let (shard_of, stripes) = partition_x(&xs, shards);

        let recorder = obs::scope_capture(config.seed);
        let worlds = (0..shards)
            .map(|_| {
                let mut w = World::new_uncaptured(config.clone());
                w.medium_mut().enable_dirty_tracking();
                w.set_shard_route(Some(Box::default()));
                if recorder.is_some() {
                    w.set_recorder(Box::new(ShardBuf::default()));
                }
                w
            })
            .collect();
        let mut engine = ShardEngine {
            worlds,
            shard_of,
            stripes,
            reach: config.radio.max_range().unwrap_or(f64::INFINITY),
            lookahead,
            serial,
            now: SimTime::ZERO,
            recorder,
            actions: BTreeMap::new(),
            action_seq: 0,
            merged_stats: OnceCell::new(),
        };
        // Replica by replica rather than node by node: construction is
        // dominated by each medium's own bookkeeping, which stays in
        // cache this way (12 % of setup time at 6,400 nodes).
        for s in 0..shards {
            let mut i = 0;
            for (topo, make) in groups {
                engine.worlds[s].reserve_nodes(topo.len());
                for g in 0..topo.len() {
                    let own = engine.shard_of[i] as usize;
                    let mask = engine.echo_mask(topo.pos(g).x, own);
                    engine.worlds[s].add_shard_node(topo.pos(g), make(g), s == own, mask);
                    i += 1;
                }
            }
        }
        engine
    }

    /// Conservative audibility of a node at `x` owned by shard `own`:
    /// it is audible in shard `t` when its x distance to stripe `t` is
    /// within the medium's maximum range (y is ignored — a superset
    /// mask is always safe).
    fn echo_mask(&self, x: f64, own: usize) -> u64 {
        let mut mask = 0u64;
        for (t, &stripe) in self.stripes.iter().enumerate() {
            if t != own && dist_to_stripe(x, stripe) <= self.reach {
                mask |= 1 << t;
            }
        }
        mask
    }

    /// Grows a running engine by one node per position in `topo`. Each
    /// joins the stripe its x falls in; one beyond the build-time
    /// bounding box joins the nearest edge stripe, which keeps every
    /// audibility mask a superset (stripes are closed x-intervals and
    /// the newcomer lies on the far side of its own).
    pub(crate) fn add_nodes(
        &mut self,
        topo: &Topology,
        make: impl Fn(usize) -> Box<dyn Proto>,
    ) -> Vec<NodeId> {
        let last = self.stripes.len() - 1;
        (0..topo.len())
            .map(|g| {
                let pos = topo.pos(g);
                let own = self.stripes.iter().position(|&(_, hi)| pos.x <= hi);
                let own = own.unwrap_or(last);
                let mask = self.echo_mask(pos.x, own);
                self.shard_of.push(own as u8);
                let replicas = self.worlds.iter_mut().enumerate();
                replicas
                    .map(|(s, w)| w.add_shard_node(pos, make(g), s == own, mask))
                    .last()
                    .expect("at least two shards")
            })
            .collect()
    }

    /// Current simulation time (the last barrier or deadline).
    pub(crate) fn now(&self) -> SimTime {
        self.now
    }

    /// Number of shards.
    pub(crate) fn shard_count(&self) -> usize {
        self.worlds.len()
    }

    /// Total nodes across all shards.
    pub(crate) fn node_count(&self) -> usize {
        self.shard_of.len()
    }

    /// The shard owning `node`.
    pub(crate) fn owner(&self, node: NodeId) -> usize {
        self.shard_of[node.index()] as usize
    }

    /// The owning replica of `node` (authoritative for its protocol,
    /// energy meter and clock).
    pub(crate) fn owner_world(&self, node: NodeId) -> &World {
        &self.worlds[self.owner(node)]
    }

    /// Mutable owning replica of `node`. Callers mutating shared medium
    /// state must follow up with [`ShardEngine::sync`].
    pub(crate) fn owner_world_mut(&mut self, node: NodeId) -> &mut World {
        self.merged_stats.take();
        let s = self.owner(node);
        &mut self.worlds[s]
    }

    /// Flushes staged cross-shard traffic and buffered observability
    /// events after out-of-band world access.
    pub(crate) fn sync(&mut self) {
        self.exchange();
    }

    /// Runs every replica up to `deadline` (inclusive), honouring
    /// scheduled engine operations along the way.
    pub(crate) fn run_until(&mut self, deadline: SimTime) {
        assert!(deadline >= self.now, "cannot run backwards");
        self.merged_stats.take();
        loop {
            let next_at = self
                .actions
                .keys()
                .next()
                .map(|&(t, _)| t)
                .filter(|&t| t <= deadline);
            let Some(at) = next_at else { break };
            if at > self.now {
                self.run_windows(at, false);
            }
            while let Some((&key, _)) = self.actions.first_key_value() {
                if key.0 != at {
                    break;
                }
                let op = self.actions.remove(&key).expect("present");
                self.apply_op(op);
            }
            self.exchange();
        }
        self.run_windows(deadline, true);
    }

    /// Schedules `f` to run against `node`'s replica at `at`. The
    /// closure sees *one shard's* world; mutations that other shards
    /// must observe (kills, link faults, partitions) should use the
    /// dedicated engine operations instead.
    pub(crate) fn schedule_closure(
        &mut self,
        at: SimTime,
        node: NodeId,
        f: Box<dyn FnOnce(&mut World) + Send>,
    ) {
        self.schedule_op(at, EngineOp::Closure(node, f));
    }

    /// Schedules an engine operation at `at`.
    pub(crate) fn schedule_op(&mut self, at: SimTime, op: EngineOp) {
        assert!(at >= self.now, "cannot schedule into the past");
        let seq = self.action_seq;
        self.action_seq += 1;
        self.actions.insert((at, seq), op);
    }

    fn apply_op(&mut self, op: EngineOp) {
        match op {
            EngineOp::Closure(node, f) => {
                let s = self.owner(node);
                f(&mut self.worlds[s]);
            }
            EngineOp::Fault(op) => self.apply_fault(&op),
        }
    }

    /// Applies `op` in every replica. One replica is primary — it emits
    /// the fault event and runs the protocol callbacks: the owner of the
    /// (first) node the fault names, shard 0 for the global partition,
    /// whose event is attributed to node 0.
    pub(crate) fn apply_fault(&mut self, op: &FaultOp) {
        self.merged_stats.take();
        let primary = match *op {
            FaultOp::Kill(n)
            | FaultOp::Revive(n)
            | FaultOp::BlockLink(n, _)
            | FaultOp::UnblockLink(n, _)
            | FaultOp::SetGroup(n, _) => self.owner(n),
            FaultOp::Partition(_) | FaultOp::Heal => 0,
        };
        for (s, w) in self.worlds.iter_mut().enumerate() {
            w.apply_fault(op, s == primary);
        }
    }

    /// Sets the crash state-loss policy in every replica.
    pub(crate) fn set_state_loss(&mut self, loss: StateLoss) {
        for w in &mut self.worlds {
            w.set_state_loss(loss);
        }
    }

    /// Statistics merged across shards, in shard order.
    pub(crate) fn stats(&self) -> &Stats {
        self.merged_stats.get_or_init(|| {
            let mut merged = Stats::new();
            for w in &self.worlds {
                merged.merge(w.stats());
            }
            merged
        })
    }

    /// Medium statistics summed across shards. Each counter increments
    /// only in the shard where the event evaluates, so the sum is the
    /// global count without double counting.
    pub(crate) fn medium_stats(&self) -> MediumStats {
        let mut total = MediumStats::default();
        for w in &self.worlds {
            let s = w.medium().stats();
            total.tx_started += s.tx_started;
            total.delivered += s.delivered;
            total.lost_prr += s.lost_prr;
            total.lost_collision += s.lost_collision;
            total.lost_radio_moved += s.lost_radio_moved;
            total.filtered += s.filtered;
            total.lost_expired += s.lost_expired;
        }
        total
    }

    /// Events dispatched, summed across shards.
    pub(crate) fn events_dispatched(&self) -> u64 {
        self.worlds.iter().map(World::events_dispatched).sum()
    }

    /// Transmission records examined, summed across the replicas'
    /// media.
    pub(crate) fn air_visits(&self) -> u64 {
        self.worlds.iter().map(|w| w.medium().air_visits()).sum()
    }

    /// Event-heap pushes, summed across the replicas.
    pub(crate) fn queue_pushes(&self) -> u64 {
        self.worlds.iter().map(World::queue_pushes).sum()
    }

    /// Installs an engine-level recorder (and per-shard buffers).
    pub(crate) fn set_recorder(&mut self, recorder: Box<dyn Recorder>) {
        self.flush_obs();
        self.recorder = Some(recorder);
        for w in &mut self.worlds {
            if w.recorder_as::<ShardBuf>().is_none() {
                w.set_recorder(Box::new(ShardBuf::default()));
            }
        }
    }

    /// Removes and returns the engine-level recorder after flushing
    /// buffered events; per-shard buffers are removed too.
    pub(crate) fn take_recorder(&mut self) -> Option<Box<dyn Recorder>> {
        self.flush_obs();
        for w in &mut self.worlds {
            w.take_recorder();
        }
        self.recorder.take()
    }

    /// The engine recorder downcast to `T`.
    pub(crate) fn recorder_as<T: Recorder>(&self) -> Option<&T> {
        self.recorder
            .as_deref()
            .and_then(|r| r.as_any().downcast_ref::<T>())
    }

    /// Drains per-shard observability buffers into the engine recorder
    /// without exchanging simulation state.
    fn flush_obs(&mut self) {
        let mut outs: Vec<Outbox> = Vec::with_capacity(self.worlds.len());
        for w in &mut self.worlds {
            let obs = w
                .recorder_as_mut::<ShardBuf>()
                .map(|b| std::mem::take(&mut b.events))
                .unwrap_or_default();
            outs.push(Outbox {
                per_target: Vec::new(),
                obs,
            });
        }
        merge_obs(&mut self.recorder, &mut outs);
    }

    /// Advances all shards in lookahead windows until `end`. The final
    /// pass is inclusive of events at `end` when `inclusive` (matching
    /// [`World::run_until`]'s deadline semantics) and exclusive when the
    /// stop is an action boundary.
    fn run_windows(&mut self, end: SimTime, inclusive: bool) {
        if self.serial {
            loop {
                let m = self.worlds.iter().filter_map(World::next_event_time).min();
                let Some(m) = m.filter(|&m| m < end) else {
                    break;
                };
                let w_end = end.min(m + self.lookahead);
                for w in &mut self.worlds {
                    w.run_until_before(w_end);
                }
                self.exchange();
            }
            for w in &mut self.worlds {
                if inclusive {
                    w.run_until(end);
                } else {
                    w.run_until_before(end);
                }
            }
            self.exchange();
        } else {
            self.run_windows_threaded(end, inclusive);
        }
        self.now = end;
    }

    /// The threaded window driver: one persistent worker per shard, the
    /// calling thread coordinating. Performs exactly the same world
    /// operations in the same order as the serial driver.
    fn run_windows_threaded(&mut self, end: SimTime, inclusive: bool) {
        #[derive(Clone, Copy, PartialEq)]
        enum Cmd {
            /// Run strictly before the bound (one lookahead window).
            Window(SimTime),
            /// Final pass up to `end` (inclusive or not per the outer call).
            Final,
            Stop,
        }

        let k = self.worlds.len();
        let shard_of = &self.shard_of;
        let lookahead = self.lookahead;
        let recorder = &mut self.recorder;
        let barrier = Barrier::new(k + 1);
        let cmd = Mutex::new(Cmd::Final);
        let next_ev: Vec<AtomicU64> = self
            .worlds
            .iter()
            .map(|w| AtomicU64::new(w.next_event_time().map_or(u64::MAX, |t| t.as_micros())))
            .collect();
        let outboxes: Vec<Mutex<Option<Outbox>>> = (0..k).map(|_| Mutex::new(None)).collect();
        let inboxes: Vec<Mutex<Vec<TargetBatch>>> =
            (0..k).map(|_| Mutex::new(Vec::new())).collect();

        std::thread::scope(|scope| {
            for (i, w) in self.worlds.iter_mut().enumerate() {
                let barrier = &barrier;
                let cmd = &cmd;
                let next_ev = &next_ev;
                let outboxes = &outboxes;
                let inboxes = &inboxes;
                scope.spawn(move || loop {
                    barrier.wait(); // (a) command published
                    let c = *cmd.lock().expect("cmd");
                    match c {
                        Cmd::Stop => break,
                        Cmd::Window(w_end) => w.run_until_before(w_end),
                        Cmd::Final => {
                            if inclusive {
                                w.run_until(end);
                            } else {
                                w.run_until_before(end);
                            }
                        }
                    }
                    *outboxes[i].lock().expect("outbox") = Some(drain_outbox(w, i, shard_of, k));
                    barrier.wait(); // (b) outboxes ready
                    barrier.wait(); // (c) inboxes routed
                    let batches = std::mem::take(&mut *inboxes[i].lock().expect("inbox"));
                    apply_inbox(w, batches);
                    next_ev[i].store(
                        w.next_event_time().map_or(u64::MAX, |t| t.as_micros()),
                        Ordering::Relaxed,
                    );
                    barrier.wait(); // (d) window applied
                });
            }

            loop {
                let m = next_ev
                    .iter()
                    .map(|a| a.load(Ordering::Relaxed))
                    .min()
                    .unwrap_or(u64::MAX);
                let c = if m != u64::MAX && SimTime::from_micros(m) < end {
                    Cmd::Window(end.min(SimTime::from_micros(m) + lookahead))
                } else {
                    Cmd::Final
                };
                *cmd.lock().expect("cmd") = c;
                barrier.wait(); // (a)
                barrier.wait(); // (b)
                let mut outs: Vec<Outbox> = outboxes
                    .iter()
                    .map(|m| m.lock().expect("outbox").take().expect("drained"))
                    .collect();
                merge_obs(recorder, &mut outs);
                for (i, out) in outs.into_iter().enumerate() {
                    for (j, batch) in out.per_target.into_iter().enumerate() {
                        if i != j && !batch.is_empty() {
                            inboxes[j].lock().expect("inbox").push(batch);
                        }
                    }
                }
                barrier.wait(); // (c)
                barrier.wait(); // (d)
                if c == Cmd::Final {
                    *cmd.lock().expect("cmd") = Cmd::Stop;
                    barrier.wait(); // (a) — workers observe Stop and exit
                    break;
                }
            }
        });
    }

    /// One barrier exchange driven serially (window loop in serial
    /// mode, and all out-of-band flushes).
    fn exchange(&mut self) {
        let k = self.worlds.len();
        let mut outs: Vec<Outbox> = Vec::with_capacity(k);
        for (i, w) in self.worlds.iter_mut().enumerate() {
            outs.push(drain_outbox(w, i, &self.shard_of, k));
        }
        merge_obs(&mut self.recorder, &mut outs);
        let mut inboxes: Vec<Vec<TargetBatch>> = (0..k).map(|_| Vec::new()).collect();
        for (i, out) in outs.into_iter().enumerate() {
            for (j, batch) in out.per_target.into_iter().enumerate() {
                if i != j && !batch.is_empty() {
                    inboxes[j].push(batch);
                }
            }
        }
        for (j, inbox) in inboxes.into_iter().enumerate() {
            apply_inbox(&mut self.worlds[j], inbox);
        }
    }
}

/// Drains shard `i`'s staged cross-shard traffic into per-target
/// batches, plus its buffered observability events.
fn drain_outbox(w: &mut World, i: usize, shard_of: &[u8], k: usize) -> Outbox {
    let (events, echo_notes) = w.take_staged();
    let dirty = w.medium_mut().drain_dirty();
    let mut per_target: Vec<TargetBatch> = (0..k).map(|_| TargetBatch::default()).collect();

    // State snapshots of own nodes, broadcast to every other shard.
    for &n in &dirty {
        if shard_of[n as usize] as usize != i {
            continue; // a mirror changed; its owner broadcasts the truth
        }
        let snap = w.medium().snap(n);
        for (j, tb) in per_target.iter_mut().enumerate() {
            if j != i {
                tb.snaps.push(snap);
            }
        }
    }

    // Echo records for border transmissions.
    for (tx, mask) in echo_notes {
        let Some(echo) = w.medium().export_echo(tx) else {
            continue; // structurally unreachable: records outlive their window
        };
        for (j, tb) in per_target.iter_mut().enumerate() {
            if j != i && mask & (1 << j) != 0 {
                tb.adopts.push((tx, echo.clone()));
            }
        }
    }

    // Events in staging order (relative order fixes queue tie-breaks).
    for ev in events {
        let j = match &ev {
            StagedEv::RxEnd { node, .. } => shard_of[node.index()],
            StagedEv::Wire { to, .. } => shard_of[to.index()],
        } as usize;
        let batch = &mut per_target[j].events;
        // The receptions one frame has in one shard are staged back to
        // back and evaluated there from one queue entry, which takes the
        // place of the first: the rest need not travel.
        let again = matches!(
            (&ev, batch.last()),
            (StagedEv::RxEnd { tx, .. }, Some(StagedEv::RxEnd { tx: prev, .. })) if tx == prev
        );
        if !again {
            batch.push(ev);
        }
    }

    let obs = w
        .recorder_as_mut::<ShardBuf>()
        .map(|b| std::mem::take(&mut b.events))
        .unwrap_or_default();
    Outbox { per_target, obs }
}

/// Applies inbound batches (origins ascending): snapshots, then record
/// adoption, then event injection with transmission ids rewritten to
/// the adopted copies.
fn apply_inbox(w: &mut World, batches: Vec<TargetBatch>) {
    for b in batches {
        for s in &b.snaps {
            w.apply_foreign_snap(s);
        }
        let mut map: Vec<(TxId, TxId)> = Vec::with_capacity(b.adopts.len());
        for (otx, echo) in &b.adopts {
            let ltx = w.medium_mut().adopt_echo(echo);
            map.push((*otx, ltx));
        }
        for ev in b.events {
            match ev {
                StagedEv::RxEnd { time, tx, .. } => {
                    let ltx = map
                        .iter()
                        .find(|(o, _)| *o == tx)
                        .map(|(_, l)| *l)
                        .expect("staged reception without an adopted record");
                    w.inject_rx_end(time, ltx);
                }
                StagedEv::Wire {
                    time,
                    to,
                    from,
                    payload,
                } => w.inject_wire(time, to, from, payload),
            }
        }
    }
}

/// Merges per-shard observability buffers into the engine recorder,
/// stably ordered by `(time, shard, buffer position)`.
fn merge_obs(recorder: &mut Option<Box<dyn Recorder>>, outs: &mut [Outbox]) {
    let Some(rec) = recorder.as_deref_mut() else {
        return;
    };
    let total: usize = outs.iter().map(|o| o.obs.len()).sum();
    if total == 0 {
        return;
    }
    let mut merged: Vec<(SimTime, usize, usize, Event)> = Vec::with_capacity(total);
    for (i, out) in outs.iter_mut().enumerate() {
        for (p, ev) in out.obs.drain(..).enumerate() {
            merged.push((ev.t, i, p, ev));
        }
    }
    merged.sort_unstable_by_key(|&(t, i, p, _)| (t, i, p));
    for (_, _, _, ev) in &merged {
        rec.record(ev);
    }
}
