//! Synchronous, pipelined TDMA in the style of Dozer/Koala: the "highly
//! synchronous end-to-end communication involving tight coordination of
//! multiple devices" that minimizes end-to-end latency (paper §IV-B).
//!
//! A global schedule assigns each slot a `(sender, receiver)` pair.
//! With slots ordered deepest-node-first along a collection tree, a
//! reading generated anywhere traverses the whole path to the border
//! router within a single schedule frame — per-hop latency is one slot
//! (milliseconds) instead of one wake interval (hundreds of ms).
//!
//! Slot boundaries are tracked on each node's **local oscillator**
//! ([`Ctx::local_time`]): under the simulator's default ideal clock
//! model that is indistinguishable from a global clock, but under a
//! drifting [`ClockModel`](iiot_sim::ClockModel) the schedule only
//! holds together if something keeps the nodes synchronized. The MAC
//! offers three operating points:
//!
//! * [`TdmaMac::new`] — the classic perfect-sync idealization;
//! * [`TdmaMac::with_local_clock`] — free-running oscillators, no sync:
//!   slots drift apart and delivery collapses (the strawman);
//! * [`TdmaMac::with_sync`] — FTSP-style flooding synchronization
//!   (crate `iiot-timesync`) embedded into dedicated sync slots at the
//!   head of each frame; the guard time buys margin against the
//!   *residual* sync error.
//!
//! The guard time is therefore not a hand-wave but a measurable sync
//! tax: experiment E13 sweeps drift and guard to price it.

use crate::header::{decode, encode, MacHeader, MacKind, SeqCache};
use crate::{admit, mac_tag, Mac, MacError, MacEvent, SendHandle};
use iiot_sim::obs::EventKind;
use iiot_sim::{Ctx, Dst, Frame, NodeId, RxInfo, SimDuration, SimTime, Timer, TimerId, TxOutcome};
use iiot_timesync::{FtspConfig, FtspEngine, SyncedClock};
use std::collections::VecDeque;

const TAG_SLOT: u64 = mac_tag(0x40);
const TAG_TX_GO: u64 = mac_tag(0x41);
const TAG_SLOT_END: u64 = mac_tag(0x42);
const TAG_SYNC_SLOT: u64 = mac_tag(0x43);
const TAG_SYNC_TX: u64 = mac_tag(0x44);
const TAG_SYNC_END: u64 = mac_tag(0x45);

/// One slot of the global schedule: `sender` may transmit to `receiver`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Slot {
    /// The node allowed to transmit in this slot.
    pub sender: NodeId,
    /// The node listening in this slot.
    pub receiver: NodeId,
}

/// A global, repeating TDMA schedule shared by all nodes.
///
/// # Examples
///
/// ```
/// use iiot_mac::tdma::TdmaSchedule;
/// use iiot_sim::{NodeId, SimDuration};
///
/// // A 4-node line 3->2->1->0: data cascades to node 0 in one frame.
/// let parents = vec![None, Some(NodeId(0)), Some(NodeId(1)), Some(NodeId(2))];
/// let sched = TdmaSchedule::pipeline_to_root(&parents, SimDuration::from_millis(10))
///     .with_guard(SimDuration::from_micros(500));
/// assert_eq!(sched.num_slots(), 3);
/// assert_eq!(sched.frame_len(), SimDuration::from_millis(30));
/// ```
#[derive(Clone, Debug)]
pub struct TdmaSchedule {
    slot_len: SimDuration,
    guard: SimDuration,
    slots: Vec<Slot>,
    /// Trailing slots each frame in which everyone sleeps (superframe
    /// padding: the duty-cycle knob of synchronous MACs).
    idle_slots: usize,
    /// Leading slots each frame reserved for time-sync beacons.
    sync_slots: usize,
}

impl TdmaSchedule {
    /// Creates a schedule from explicit slots.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is empty or `slot_len` is zero.
    pub fn new(slots: Vec<Slot>, slot_len: SimDuration) -> Self {
        assert!(!slots.is_empty(), "schedule needs at least one slot");
        assert!(!slot_len.is_zero(), "slot length must be positive");
        TdmaSchedule {
            slot_len,
            guard: SimDuration::from_micros(500),
            slots,
            idle_slots: 0,
            sync_slots: 0,
        }
    }

    /// Appends `idle_slots` sleep slots to every frame: all nodes sleep
    /// through them, trading latency for duty cycle exactly as the
    /// beacon-interval knob of Dozer/Koala does.
    pub fn with_idle(mut self, idle_slots: usize) -> Self {
        self.idle_slots = idle_slots;
        self
    }

    /// Sets the guard time: a sender holds back this long after its
    /// slot boundary before transmitting, buying margin against the
    /// residual clock error between it and its receiver.
    pub fn with_guard(mut self, guard: SimDuration) -> Self {
        self.guard = guard;
        self
    }

    /// Prepends `sync_slots` synchronization slots to every frame (slot
    /// indices of data slots are unaffected; sync slots sit before slot
    /// 0). Nodes built with [`TdmaMac::with_sync`] exchange FTSP
    /// beacons there; everyone else sleeps through them.
    pub fn with_sync_slots(mut self, sync_slots: usize) -> Self {
        self.sync_slots = sync_slots;
        self
    }

    /// Builds a pipelined collection schedule from a parent vector
    /// (`parents[i]` is the parent of node `i`, `None` for roots):
    /// slots are ordered deepest-first so one packet can traverse its
    /// entire path to the root within one frame.
    ///
    /// # Panics
    ///
    /// Panics if the parent vector contains a cycle.
    pub fn pipeline_to_root(parents: &[Option<NodeId>], slot_len: SimDuration) -> Self {
        let depth_of = |mut i: usize| -> usize {
            let mut d = 0;
            let mut steps = 0;
            while let Some(p) = parents[i] {
                i = p.index();
                d += 1;
                steps += 1;
                assert!(steps <= parents.len(), "cycle in parent vector");
            }
            d
        };
        let mut nodes: Vec<usize> = (0..parents.len())
            .filter(|&i| parents[i].is_some())
            .collect();
        // Deepest first; ties broken by id for determinism.
        nodes.sort_by_key(|&i| (std::cmp::Reverse(depth_of(i)), i));
        let slots = nodes
            .into_iter()
            .map(|i| Slot {
                sender: NodeId(i as u32),
                receiver: parents[i].expect("filtered"),
            })
            .collect();
        TdmaSchedule::new(slots, slot_len)
    }

    /// Builds a bidirectional tree schedule from a parent vector: one
    /// slot per *direction* of every tree edge. Upward slots
    /// (child→parent) come first, ordered deepest-first so collection
    /// still pipelines to the root in one frame; downward slots
    /// (parent→child) follow, ordered shallowest-first so a
    /// dissemination page cascades root→leaf within the same frame.
    ///
    /// Use this instead of
    /// [`pipeline_to_root`](TdmaSchedule::pipeline_to_root) when
    /// traffic also flows *down* the tree (bulk reprogramming,
    /// actuation): the MAC transmits a queued unicast only in a slot
    /// whose designated receiver matches the packet's destination, so
    /// both directions coexist without misrouting. A unicast to a node
    /// that is never this sender's slot receiver stays queued
    /// indefinitely.
    ///
    /// # Panics
    ///
    /// Panics if the parent vector contains a cycle or describes no
    /// edges.
    pub fn tree_edges(parents: &[Option<NodeId>], slot_len: SimDuration) -> Self {
        let depth_of = |mut i: usize| -> usize {
            let mut d = 0;
            let mut steps = 0;
            while let Some(p) = parents[i] {
                i = p.index();
                d += 1;
                steps += 1;
                assert!(steps <= parents.len(), "cycle in parent vector");
            }
            d
        };
        let mut up: Vec<usize> = (0..parents.len())
            .filter(|&i| parents[i].is_some())
            .collect();
        up.sort_by_key(|&i| (std::cmp::Reverse(depth_of(i)), i));
        let mut down = up.clone();
        down.sort_by_key(|&i| (depth_of(i), i));
        let slots = up
            .into_iter()
            .map(|i| Slot {
                sender: NodeId(i as u32),
                receiver: parents[i].expect("filtered"),
            })
            .chain(down.into_iter().map(|i| Slot {
                sender: parents[i].expect("filtered"),
                receiver: NodeId(i as u32),
            }))
            .collect();
        TdmaSchedule::new(slots, slot_len)
    }

    /// Number of active (sender/receiver) slots per frame.
    pub fn num_slots(&self) -> usize {
        self.slots.len()
    }

    /// Total slots per frame including sync and idle padding.
    pub fn total_slots(&self) -> usize {
        self.sync_slots + self.slots.len() + self.idle_slots
    }

    /// Duration of one whole frame (sync + active + idle slots).
    pub fn frame_len(&self) -> SimDuration {
        self.slot_len * self.total_slots() as u64
    }

    /// Duration of one slot.
    pub fn slot_len(&self) -> SimDuration {
        self.slot_len
    }

    /// The configured guard time.
    pub fn guard(&self) -> SimDuration {
        self.guard
    }

    /// Sync slots at the head of each frame.
    pub fn sync_slots(&self) -> usize {
        self.sync_slots
    }

    /// The slot definitions.
    pub fn slots(&self) -> &[Slot] {
        &self.slots
    }

    /// Slot indices in which `node` participates, with its role.
    fn roles_of(&self, node: NodeId) -> Vec<(usize, Role)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| {
                if s.sender == node {
                    Some((i, Role::Tx))
                } else if s.receiver == node {
                    Some((i, Role::Rx))
                } else {
                    None
                }
            })
            .collect()
    }

    /// The next absolute start time of data slot `idx` at or after
    /// `now`, on the schedule's time base.
    fn next_occurrence(&self, idx: usize, now: SimTime) -> SimTime {
        let frame = self.frame_len().as_micros();
        let offset = self.slot_len.as_micros() * (self.sync_slots + idx) as u64;
        let now_us = now.as_micros();
        let base = now_us.saturating_sub(offset) / frame * frame + offset;
        if base >= now_us {
            SimTime::from_micros(base)
        } else {
            SimTime::from_micros(base + frame)
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Role {
    Tx,
    Rx,
}

#[derive(Debug)]
struct Pending {
    handle: SendHandle,
    dst: Dst,
    upper_port: u8,
    payload: Vec<u8>,
    seq: u8,
    attempts: u32,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
enum TxKind {
    #[default]
    None,
    Data,
    Ack,
    Beacon,
}

/// Configuration of [`TdmaMac`].
#[derive(Clone, Debug)]
pub struct TdmaConfig {
    /// Radio demux port claimed by this MAC instance.
    pub radio_port: u8,
    /// Frame (re)transmissions before giving up on a unicast.
    pub max_retries: u32,
    /// Transmit queue capacity.
    pub queue_cap: usize,
}

impl Default for TdmaConfig {
    fn default() -> Self {
        TdmaConfig {
            radio_port: 4,
            max_retries: 3,
            queue_cap: 16,
        }
    }
}

/// Configuration of the embedded FTSP synchronization
/// ([`TdmaMac::with_sync`]).
#[derive(Clone, Debug)]
pub struct TdmaSync {
    /// The FTSP engine configuration. Pin the reference
    /// ([`FtspConfig::with_reference`]) for a fixed sync root, or leave
    /// election on and let the lowest live id win.
    pub ftsp: FtspConfig,
    /// Beacon in the sync slot of every `every`-th frame only; the
    /// other frames' sync slots are slept through. This is the sync
    /// duty-cycle knob: larger values cut the beacon tax but let more
    /// drift accumulate between resyncs.
    pub every: u32,
    /// Intra-slot beacon stagger: a node at hop depth `d` beacons
    /// `stride * (d + 1)` into the sync slot, so the flood cascades
    /// down the tree collision-free within one slot. Must exceed one
    /// beacon airtime.
    pub stride: SimDuration,
}

impl Default for TdmaSync {
    fn default() -> Self {
        TdmaSync {
            ftsp: FtspConfig::default(),
            every: 1,
            stride: SimDuration::from_micros(1200),
        }
    }
}

/// Runtime state of the embedded synchronization.
#[derive(Debug)]
struct SyncState {
    engine: FtspEngine,
    every: u32,
    stride: SimDuration,
}

/// Synchronous pipelined TDMA MAC.
///
/// All nodes share one [`TdmaSchedule`]; each wakes only for the slots
/// it participates in, giving duty cycles of
/// `participating_slots / total_slots` and per-hop latency of one slot.
///
/// All slot timing runs on the node's local oscillator, mapped onto the
/// schedule's global time base through a [`SyncedClock`] — an identity
/// mapping unless [`TdmaMac::with_sync`] keeps it estimated.
#[derive(Debug)]
pub struct TdmaMac {
    config: TdmaConfig,
    schedule: TdmaSchedule,
    my_roles: Vec<(usize, Role)>,
    queue: VecDeque<Pending>,
    tx: TxKind,
    /// The slot currently active for this node, if any.
    active_slot: Option<(usize, Role)>,
    /// Whether the head frame was acked in the current slot.
    head_acked: bool,
    /// Whether the head frame went on the air in the current slot.
    head_sent: bool,
    seq: u8,
    next_handle: u64,
    dedup: SeqCache,
    /// Local-to-global mapping (identity until synced).
    clock: SyncedClock,
    /// Enables drift instrumentation (guard-violation events/counters);
    /// false for the perfect-sync idealization so its traces and stats
    /// stay byte-identical to the historical behaviour.
    clock_aware: bool,
    sync: Option<SyncState>,
    /// Whether this node is on the slot schedule yet (false while a
    /// cold-starting synced node listens for its first beacon).
    joined: bool,
    /// Outstanding slot wake timer and the slot it targets
    /// `(idx, role, slot start on the schedule time base)`.
    slot_timer: TimerId,
    pending_slot: Option<(usize, Role, SimTime)>,
    /// Outstanding slot-end timer and the slot end it targets.
    end_timer: TimerId,
    active_end: SimTime,
    /// Outstanding sync-slot wake timer and its frame start.
    sync_timer: TimerId,
    pending_sync: SimTime,
    in_sync_slot: bool,
}

impl TdmaMac {
    /// Creates a TDMA MAC following `schedule`.
    pub fn new(config: TdmaConfig, schedule: TdmaSchedule) -> Self {
        TdmaMac {
            config,
            schedule,
            my_roles: Vec::new(),
            queue: VecDeque::new(),
            tx: TxKind::None,
            active_slot: None,
            head_acked: false,
            head_sent: false,
            seq: 0,
            next_handle: 0,
            dedup: SeqCache::new(),
            clock: SyncedClock::new(),
            clock_aware: false,
            sync: None,
            joined: true,
            slot_timer: TimerId::NONE,
            pending_slot: None,
            end_timer: TimerId::NONE,
            active_end: SimTime::ZERO,
            sync_timer: TimerId::NONE,
            pending_sync: SimTime::ZERO,
            in_sync_slot: false,
        }
    }

    /// Runs the schedule on the free-running local oscillator with no
    /// synchronization at all: each node treats its own clock as the
    /// schedule time base. Under an ideal clock model this changes
    /// nothing; under drift the slots slide apart and delivery
    /// collapses — the strawman experiment E13 measures.
    #[must_use]
    pub fn with_local_clock(mut self) -> Self {
        self.clock_aware = true;
        self
    }

    /// Embeds FTSP-style synchronization: beacons flood through the
    /// schedule's sync slots and every node maps its oscillator onto
    /// the reference's time base through the estimated [`SyncedClock`].
    ///
    /// # Panics
    ///
    /// Panics if the schedule has no sync slots
    /// ([`TdmaSchedule::with_sync_slots`]).
    #[must_use]
    pub fn with_sync(mut self, sync: TdmaSync) -> Self {
        assert!(
            self.schedule.sync_slots() >= 1,
            "with_sync requires a schedule with sync slots"
        );
        let engine = FtspEngine::new(sync.ftsp);
        self.clock = engine.clock();
        self.sync = Some(SyncState {
            engine,
            every: sync.every.max(1),
            stride: sync.stride,
        });
        self.clock_aware = true;
        self
    }

    /// The schedule this MAC follows.
    pub fn schedule(&self) -> &TdmaSchedule {
        &self.schedule
    }

    /// The embedded sync engine, when running [`TdmaMac::with_sync`].
    pub fn sync_engine(&self) -> Option<&FtspEngine> {
        self.sync.as_ref().map(|s| &s.engine)
    }

    /// This node's estimate of the schedule time base "now".
    fn global_now(&self, ctx: &mut Ctx<'_>) -> SimTime {
        self.clock.global(ctx.local_time())
    }

    /// Arms a timer at schedule-time `at` by converting it to a local
    /// oscillator delay (exactly `at - now` under ideal clocks).
    fn set_timer_global(&self, ctx: &mut Ctx<'_>, at: SimTime, tag: u64) -> TimerId {
        let target = self.clock.local(at);
        let lnow = ctx.local_time();
        let delay = if target > lnow {
            target - lnow
        } else {
            SimDuration::ZERO
        };
        ctx.set_timer_local(delay, tag)
    }

    fn sync_len(&self) -> SimDuration {
        self.schedule.slot_len * self.schedule.sync_slots as u64
    }

    /// Arms the timer for the earliest participating slot starting at
    /// or after `after` (schedule time). A slot beginning exactly when
    /// the previous one ends must not be skipped, so `after` is
    /// inclusive. Receivers of a synced MAC wake one guard time early
    /// to cover residual clock error in either direction.
    fn arm_next_slot(&mut self, ctx: &mut Ctx<'_>, after: SimTime) {
        let next = self
            .my_roles
            .iter()
            .map(|&(idx, role)| (self.schedule.next_occurrence(idx, after), idx, role))
            .min();
        if let Some((s, idx, role)) = next {
            let wake = if self.sync.is_some() && role == Role::Rx {
                SimTime::from_micros(
                    s.as_micros()
                        .saturating_sub(self.schedule.guard.as_micros()),
                )
            } else {
                s
            };
            self.slot_timer = self.set_timer_global(ctx, wake, TAG_SLOT);
            self.pending_slot = Some((idx, role, s));
        }
    }

    /// Arms the wake for the next *beaconing* sync slot at or after
    /// `after` (frames whose index is a multiple of `every`).
    fn arm_next_sync(&mut self, ctx: &mut Ctx<'_>, after: SimTime) {
        let Some(st) = &self.sync else { return };
        let period = self.schedule.frame_len().as_micros() * st.every as u64;
        let t =
            SimTime::from_micros(after.as_micros().saturating_add(period - 1) / period * period);
        self.sync_timer = self.set_timer_global(ctx, t, TAG_SYNC_SLOT);
        self.pending_sync = t;
    }

    fn guard_violation(&mut self, ctx: &mut Ctx<'_>, cause: &'static str) {
        if self.clock_aware {
            ctx.emit(EventKind::GuardViolation { cause });
            ctx.count_node("tdma_guard_violation", 1.0);
        }
    }
}

impl Mac for TdmaMac {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        self.my_roles = self.schedule.roles_of(ctx.id());
        self.active_slot = None;
        self.slot_timer = TimerId::NONE;
        self.pending_slot = None;
        self.end_timer = TimerId::NONE;
        self.sync_timer = TimerId::NONE;
        self.in_sync_slot = false;
        if let Some(st) = &mut self.sync {
            st.engine.start(ctx.id());
            if !st.engine.is_reference() {
                // Cold start: keep the radio listening until the first
                // sync flood provides a time base; only then join the
                // slot schedule and start duty cycling.
                self.joined = false;
                ctx.radio_on().expect("tdma: radio on (cold start)");
                return;
            }
        }
        self.joined = true;
        let g = self.global_now(ctx);
        self.arm_next_slot(ctx, g);
        if self.sync.is_some() {
            self.arm_next_sync(ctx, g);
        }
    }

    fn send(
        &mut self,
        ctx: &mut Ctx<'_>,
        dst: Dst,
        upper_port: u8,
        payload: Vec<u8>,
    ) -> Result<SendHandle, MacError> {
        admit(
            ctx,
            &mut self.queue,
            self.config.queue_cap,
            &mut self.next_handle,
            &mut self.seq,
            payload.len(),
            |handle, seq| Pending {
                handle,
                dst,
                upper_port,
                payload,
                seq,
                attempts: 0,
            },
        )
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: Timer, out: &mut Vec<MacEvent>) -> bool {
        match timer.tag {
            TAG_SLOT => {
                let pend = if timer.id == self.slot_timer {
                    self.slot_timer = TimerId::NONE;
                    self.pending_slot.take()
                } else {
                    None
                };
                let (idx, role, s) = match pend {
                    Some(p) => p,
                    None => {
                        // A stale slot timer (e.g. from before a
                        // crash-restart): re-derive the slot from the
                        // schedule lattice, or re-arm strictly later if
                        // this instant is not ours.
                        let g = self.global_now(ctx);
                        let slot_us = self.schedule.slot_len.as_micros();
                        let pos = (g.as_micros() / slot_us) as usize % self.schedule.total_slots();
                        let owned = pos.checked_sub(self.schedule.sync_slots).and_then(|i| {
                            self.my_roles
                                .iter()
                                .find(|&&(j, _)| j == i)
                                .map(|&(_, r)| (i, r))
                        });
                        match owned {
                            Some((i, r)) => (
                                i,
                                r,
                                SimTime::from_micros(g.as_micros() / slot_us * slot_us),
                            ),
                            None => {
                                let after = g + SimDuration::from_micros(1);
                                self.arm_next_slot(ctx, after);
                                return true;
                            }
                        }
                    }
                };
                self.active_slot = Some((idx, role));
                self.head_acked = false;
                self.head_sent = false;
                ctx.emit(EventKind::MacState {
                    mac: "tdma",
                    state: match role {
                        Role::Tx => "slot_tx",
                        Role::Rx => "slot_rx",
                    },
                });
                ctx.radio_on().expect("tdma: radio on for slot");
                if role == Role::Tx {
                    self.set_timer_global(ctx, s + self.schedule.guard, TAG_TX_GO);
                }
                self.active_end = s + self.schedule.slot_len;
                self.end_timer = self.set_timer_global(ctx, self.active_end, TAG_SLOT_END);
                true
            }
            TAG_TX_GO => {
                if let Some((idx, Role::Tx)) = self.active_slot {
                    if self.tx != TxKind::None {
                        // The previous transmission is still on the
                        // air past the guard point: the guard is too
                        // small for the drift in play.
                        self.guard_violation(ctx, "tx_busy");
                    }
                    // Pick the first queued packet this slot can carry:
                    // broadcasts go in any slot, unicasts only where
                    // the slot receiver matches (tree_edges schedules
                    // mix up- and down-slots, so the head may belong
                    // to a later slot). Move it to the front so the
                    // per-head ack/retry bookkeeping applies to it.
                    let receiver = self.schedule.slots()[idx].receiver;
                    if let Some(j) = self.queue.iter().position(|p| match p.dst {
                        Dst::Broadcast => true,
                        Dst::Unicast(d) => d == receiver,
                    }) {
                        if j != 0 {
                            let p = self.queue.remove(j).expect("indexed");
                            self.queue.push_front(p);
                        }
                    }
                    if let Some(head) = self.queue.front() {
                        let eligible = match head.dst {
                            Dst::Broadcast => true,
                            Dst::Unicast(d) => d == receiver,
                        };
                        if !eligible {
                            return true;
                        }
                        let mut bytes = ctx.frame_buf();
                        encode(
                            MacHeader {
                                kind: MacKind::Data,
                                seq: head.seq,
                                upper_port: head.upper_port,
                            },
                            &head.payload,
                            &mut bytes,
                        );
                        // The schedule fixes the receiver; the head's
                        // logical dst rides along for address filtering.
                        let dst = match head.dst {
                            Dst::Broadcast => Dst::Broadcast,
                            Dst::Unicast(_) => Dst::Unicast(self.schedule.slots()[idx].receiver),
                        };
                        if ctx.transmit(dst, self.config.radio_port, bytes).is_ok() {
                            self.tx = TxKind::Data;
                            self.head_sent = true;
                            ctx.count_node("mac_tx_data", 1.0);
                        }
                    }
                }
                true
            }
            TAG_SLOT_END => {
                let matched = timer.id == self.end_timer;
                if matched {
                    self.end_timer = TimerId::NONE;
                }
                if let Some((_, role)) = self.active_slot.take() {
                    if role == Role::Tx && self.head_sent && !self.head_acked {
                        if let Some(head) = self.queue.front_mut() {
                            if matches!(head.dst, Dst::Broadcast) {
                                let head = self.queue.pop_front().expect("head");
                                out.push(MacEvent::SendDone {
                                    handle: head.handle,
                                    acked: true,
                                });
                            } else {
                                head.attempts += 1;
                                if head.attempts > self.config.max_retries {
                                    let head = self.queue.pop_front().expect("head");
                                    ctx.count_node("mac_tx_fail", 1.0);
                                    out.push(MacEvent::SendDone {
                                        handle: head.handle,
                                        acked: false,
                                    });
                                }
                            }
                        }
                    }
                    if self.tx == TxKind::None && !self.in_sync_slot {
                        ctx.emit(EventKind::MacState {
                            mac: "tdma",
                            state: "sleep",
                        });
                        let _ = ctx.radio_off();
                    }
                }
                // Inclusive of a slot starting exactly now (back-to-back
                // participation); our own slot's next occurrence is a
                // full frame away, so no self-loop. The matched timer
                // re-arms from the exact lattice point, keeping the
                // schedule phase free of local-clock rounding.
                let after = if matched {
                    self.active_end
                } else {
                    self.global_now(ctx)
                };
                self.arm_next_slot(ctx, after);
                true
            }
            TAG_SYNC_SLOT => {
                if timer.id != self.sync_timer {
                    return true;
                }
                self.sync_timer = TimerId::NONE;
                let s0 = self.pending_sync;
                self.in_sync_slot = true;
                ctx.radio_on().expect("tdma: radio on for sync slot");
                let beat_at = self.sync.as_ref().and_then(|st| {
                    if st.engine.is_synced() {
                        Some(s0 + st.stride * (st.engine.depth() as u64 + 1))
                    } else {
                        None
                    }
                });
                if let Some(at) = beat_at {
                    self.set_timer_global(ctx, at, TAG_SYNC_TX);
                }
                let end = s0 + self.sync_len();
                self.set_timer_global(ctx, end, TAG_SYNC_END);
                true
            }
            TAG_SYNC_TX => {
                if self.in_sync_slot && self.tx == TxKind::None {
                    let payload = self.sync.as_mut().and_then(|st| st.engine.beat(ctx));
                    if let Some(p) = payload {
                        let mut bytes = ctx.frame_buf();
                        encode(
                            MacHeader {
                                kind: MacKind::Probe,
                                seq: 0,
                                upper_port: 0,
                            },
                            &p,
                            &mut bytes,
                        );
                        if ctx
                            .transmit(Dst::Broadcast, self.config.radio_port, bytes)
                            .is_ok()
                        {
                            self.tx = TxKind::Beacon;
                        }
                    }
                }
                true
            }
            TAG_SYNC_END => {
                if self.in_sync_slot {
                    self.in_sync_slot = false;
                    if self.tx == TxKind::None && self.active_slot.is_none() {
                        let _ = ctx.radio_off();
                    }
                }
                let after = self.global_now(ctx);
                self.arm_next_sync(ctx, after);
                true
            }
            _ => false,
        }
    }

    fn on_frame(
        &mut self,
        ctx: &mut Ctx<'_>,
        frame: &Frame,
        info: RxInfo,
        out: &mut Vec<MacEvent>,
    ) {
        if frame.port != self.config.radio_port {
            return;
        }
        let Some((header, payload)) = decode(&frame.payload) else {
            return;
        };
        match header.kind {
            MacKind::Data => {
                if !matches!(self.active_slot, Some((_, Role::Rx))) {
                    // A data frame heard outside any receive slot of
                    // ours: the sender's clock has slid off the
                    // schedule (or ours has).
                    self.guard_violation(ctx, "late_frame");
                }
                if frame.dst == Dst::Unicast(ctx.id()) && self.tx == TxKind::None {
                    let mut bytes = ctx.frame_buf();
                    encode(
                        MacHeader {
                            kind: MacKind::Ack,
                            seq: header.seq,
                            upper_port: 0,
                        },
                        &[],
                        &mut bytes,
                    );
                    if ctx
                        .transmit(Dst::Unicast(frame.src), self.config.radio_port, bytes)
                        .is_ok()
                    {
                        self.tx = TxKind::Ack;
                    }
                }
                if !self.dedup.check_and_insert(frame.src.0, header.seq) {
                    out.push(MacEvent::Delivered {
                        src: frame.src,
                        upper_port: header.upper_port,
                        payload: payload.to_vec(),
                        info,
                    });
                }
            }
            MacKind::Ack => {
                if let Some((_, Role::Tx)) = self.active_slot {
                    if self.queue.front().map(|p| p.seq) == Some(header.seq) {
                        self.head_acked = true;
                        let head = self.queue.pop_front().expect("head");
                        out.push(MacEvent::SendDone {
                            handle: head.handle,
                            acked: true,
                        });
                    }
                }
            }
            MacKind::Probe => {
                let Some(st) = &mut self.sync else { return };
                let accepted = st.engine.on_beacon(ctx, payload, frame.payload.len());
                let (synced, depth, stride) = (st.engine.is_synced(), st.engine.depth(), st.stride);
                if accepted && !self.joined && synced {
                    // First fix: join the schedule mid-flood. If the
                    // sync slot is still running, re-broadcast our
                    // fresh estimate one stagger step further out so
                    // the flood keeps cascading this very slot.
                    self.joined = true;
                    let g = self.global_now(ctx);
                    let frame_us = self.schedule.frame_len().as_micros();
                    let s0 = SimTime::from_micros(g.as_micros() / frame_us * frame_us);
                    if g < s0 + self.sync_len() {
                        self.in_sync_slot = true;
                        let at = s0 + stride * (depth as u64 + 1);
                        let at = if at > g { at } else { g };
                        self.set_timer_global(ctx, at, TAG_SYNC_TX);
                        // The sync-end handler arms the recurring chain.
                        self.set_timer_global(ctx, s0 + self.sync_len(), TAG_SYNC_END);
                    } else {
                        self.arm_next_sync(ctx, g);
                        let _ = ctx.radio_off();
                    }
                    self.arm_next_slot(ctx, g);
                }
            }
        }
    }

    fn on_tx_done(&mut self, ctx: &mut Ctx<'_>, _outcome: TxOutcome, _out: &mut Vec<MacEvent>) {
        let was = self.tx;
        self.tx = TxKind::None;
        if was == TxKind::Data && self.active_slot.is_none() {
            // The data frame was still on the air when the slot ended.
            self.guard_violation(ctx, "tx_overrun");
        }
        // If the slot already ended while we were transmitting, sleep.
        if self.active_slot.is_none() && !self.in_sync_slot {
            let _ = ctx.radio_off();
        }
    }

    fn crashed(&mut self) {
        self.queue.clear();
        self.tx = TxKind::None;
        self.active_slot = None;
        self.dedup.clear();
        self.pending_slot = None;
        self.slot_timer = TimerId::NONE;
        self.end_timer = TimerId::NONE;
        self.sync_timer = TimerId::NONE;
        self.in_sync_slot = false;
        if let Some(st) = &mut self.sync {
            st.engine.crashed();
        }
    }

    fn name(&self) -> &'static str {
        "tdma"
    }

    fn radio_port(&self) -> u8 {
        self.config.radio_port
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{driver_sim, MacDriver};
    use iiot_sim::prelude::*;

    type Drv = MacDriver<TdmaMac>;

    /// Line 0<-1<-2<-...: schedule pipelines toward node 0.
    fn line_world(n: usize, slot_ms: u64, seed: u64) -> (Sim, Vec<NodeId>, TdmaSchedule) {
        let parents: Vec<Option<NodeId>> = (0..n)
            .map(|i| {
                if i == 0 {
                    None
                } else {
                    Some(NodeId(i as u32 - 1))
                }
            })
            .collect();
        let sched = TdmaSchedule::pipeline_to_root(&parents, SimDuration::from_millis(slot_ms));
        let cfg = SimConfig::default().seed(seed);
        let s2 = sched.clone();
        let (w, ids) = driver_sim(cfg, Topology::line(n, 10.0), move || {
            TdmaMac::new(TdmaConfig::default(), s2.clone())
        });
        (w, ids, sched)
    }

    #[test]
    fn schedule_construction() {
        let parents = vec![None, Some(NodeId(0)), Some(NodeId(1)), Some(NodeId(2))];
        let s = TdmaSchedule::pipeline_to_root(&parents, SimDuration::from_millis(10));
        // Deepest first: 3 -> 2, then 2 -> 1, then 1 -> 0.
        assert_eq!(
            s.slots(),
            &[
                Slot {
                    sender: NodeId(3),
                    receiver: NodeId(2)
                },
                Slot {
                    sender: NodeId(2),
                    receiver: NodeId(1)
                },
                Slot {
                    sender: NodeId(1),
                    receiver: NodeId(0)
                },
            ]
        );
    }

    #[test]
    fn tree_edges_schedule_construction() {
        let parents = vec![None, Some(NodeId(0)), Some(NodeId(1))];
        let s = TdmaSchedule::tree_edges(&parents, SimDuration::from_millis(10));
        // Up-slots deepest-first (collection pipelines to the root),
        // then down-slots shallowest-first (a page cascades to leaves).
        assert_eq!(
            s.slots(),
            &[
                Slot {
                    sender: NodeId(2),
                    receiver: NodeId(1)
                },
                Slot {
                    sender: NodeId(1),
                    receiver: NodeId(0)
                },
                Slot {
                    sender: NodeId(0),
                    receiver: NodeId(1)
                },
                Slot {
                    sender: NodeId(1),
                    receiver: NodeId(2)
                },
            ]
        );
    }

    #[test]
    fn tree_edges_carries_traffic_both_ways() {
        let parents: Vec<Option<NodeId>> = vec![None, Some(NodeId(0)), Some(NodeId(1))];
        let sched = TdmaSchedule::tree_edges(&parents, SimDuration::from_millis(10));
        let cfg = SimConfig::default().seed(31);
        let (mut w, ids) = driver_sim(cfg, Topology::line(3, 10.0), move || {
            TdmaMac::new(TdmaConfig::default(), sched.clone())
        });
        // The relay queues an upward packet first, then a downward one:
        // slot-aware selection must dispatch each in its matching slot
        // even though the head doesn't fit the first-owned slot.
        w.proto_mut::<Drv>(ids[1]).push_send(
            SimTime::from_millis(5),
            Dst::Unicast(ids[0]),
            6,
            b"up".to_vec(),
        );
        w.proto_mut::<Drv>(ids[1]).push_send(
            SimTime::from_millis(6),
            Dst::Unicast(ids[2]),
            6,
            b"down".to_vec(),
        );
        w.run_for(SimDuration::from_secs(2));
        let up = &w.proto::<Drv>(ids[0]).delivered;
        assert_eq!(up.len(), 1, "parent missed the upward unicast");
        let down = &w.proto::<Drv>(ids[2]).delivered;
        assert_eq!(down.len(), 1, "child missed the downward unicast");
        assert_eq!(
            w.proto::<Drv>(ids[1]).send_done,
            vec![(SendHandle(0), true), (SendHandle(1), true)]
        );
    }

    #[test]
    fn next_occurrence_math() {
        let s = TdmaSchedule::new(
            vec![
                Slot {
                    sender: NodeId(0),
                    receiver: NodeId(1),
                },
                Slot {
                    sender: NodeId(1),
                    receiver: NodeId(0),
                },
            ],
            SimDuration::from_millis(10),
        );
        assert_eq!(s.next_occurrence(0, SimTime::ZERO), SimTime::ZERO);
        assert_eq!(
            s.next_occurrence(1, SimTime::ZERO),
            SimTime::from_millis(10)
        );
        assert_eq!(
            s.next_occurrence(0, SimTime::from_millis(1)),
            SimTime::from_millis(20)
        );
        assert_eq!(
            s.next_occurrence(1, SimTime::from_millis(15)),
            SimTime::from_millis(30)
        );
    }

    #[test]
    fn sync_slots_shift_the_frame() {
        let s = TdmaSchedule::new(
            vec![
                Slot {
                    sender: NodeId(0),
                    receiver: NodeId(1),
                },
                Slot {
                    sender: NodeId(1),
                    receiver: NodeId(0),
                },
            ],
            SimDuration::from_millis(10),
        )
        .with_sync_slots(1);
        assert_eq!(s.total_slots(), 3);
        assert_eq!(s.frame_len(), SimDuration::from_millis(30));
        // Data slot 0 now starts one slot into the frame.
        assert_eq!(
            s.next_occurrence(0, SimTime::ZERO),
            SimTime::from_millis(10)
        );
        assert_eq!(
            s.next_occurrence(1, SimTime::from_millis(21)),
            SimTime::from_millis(50)
        );
    }

    #[test]
    fn single_hop_delivery_in_own_slot() {
        let (mut w, ids, _s) = line_world(2, 10, 21);
        w.proto_mut::<Drv>(ids[1]).push_send(
            SimTime::from_millis(25),
            Dst::Unicast(ids[0]),
            6,
            b"v".to_vec(),
        );
        w.run_for(SimDuration::from_secs(1));
        let d = &w.proto::<Drv>(ids[0]).delivered;
        assert_eq!(d.len(), 1);
        assert_eq!(
            w.proto::<Drv>(ids[1]).send_done,
            vec![(SendHandle(0), true)]
        );
    }

    #[test]
    fn per_hop_latency_bounded_by_schedule() {
        // 5 nodes, 4 slots of 10ms -> frame = 40ms. Each hop's latency
        // is bounded by one frame (waiting for the sender's slot) plus a
        // slot; the end-to-end pipelining across hops is exercised by
        // the routing layer's collection protocol.
        let (mut w, ids, sched) = line_world(5, 10, 22);
        let t0 = SimTime::from_millis(5);
        w.proto_mut::<Drv>(ids[4])
            .push_send(t0, Dst::Unicast(ids[3]), 0, vec![42]);
        let mut sent_at = t0;
        for hop in (0..4).rev() {
            w.run_for(SimDuration::from_secs(1));
            let d = w.proto::<Drv>(ids[hop]).delivered.clone();
            assert_eq!(d.len(), 1, "hop to node {hop} missing delivery");
            let lat = d[0].at.duration_since(sent_at);
            assert!(
                lat <= sched.frame_len() + sched.slot_len() * 2,
                "hop latency {lat} exceeds one frame + guard"
            );
            if hop > 0 {
                let next = ids[hop - 1];
                sent_at = w.now();
                w.with(ids[hop], |drv: &mut Drv, ctx| {
                    drv.send_now(ctx, Dst::Unicast(next), 0, vec![42])
                        .expect("send");
                });
            }
        }
    }

    #[test]
    fn duty_cycle_proportional_to_slots() {
        let (mut w, ids, sched) = line_world(6, 10, 23);
        w.run_for(SimDuration::from_secs(20));
        // Node 0 only listens in 1 of 5 slots -> ~20% duty cycle.
        let dc0 = w.energy(ids[0]).duty_cycle();
        let expected = 1.0 / sched.num_slots() as f64;
        assert!(
            (dc0 - expected).abs() < 0.1,
            "dc {dc0} vs expected {expected}"
        );
        // A middle node participates in 2 slots (tx + rx).
        let dc3 = w.energy(ids[3]).duty_cycle();
        assert!(dc3 > dc0, "middle node must be on more than the root");
    }

    #[test]
    fn unacked_unicast_retries_then_fails() {
        let (mut w, ids, _s) = line_world(2, 10, 24);
        w.kill(ids[0]);
        w.proto_mut::<Drv>(ids[1]).push_send(
            SimTime::from_millis(5),
            Dst::Unicast(ids[0]),
            0,
            vec![1],
        );
        w.run_for(SimDuration::from_secs(2));
        assert_eq!(
            w.proto::<Drv>(ids[1]).send_done,
            vec![(SendHandle(0), false)]
        );
        // 1 + max_retries attempts.
        assert_eq!(w.stats().get_node(ids[1], "mac_tx_data"), 4.0);
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn cyclic_parents_rejected() {
        let parents = vec![Some(NodeId(1)), Some(NodeId(0))];
        let _ = TdmaSchedule::pipeline_to_root(&parents, SimDuration::from_millis(10));
    }

    /// Shared setup for the drift arms: an n-node line under drifting
    /// clocks, one unicast pushed per second from the line's far end.
    fn drifting_world(
        n: usize,
        ppm: f64,
        seed: u64,
        sends: u64,
        build: impl Fn(TdmaSchedule) -> TdmaMac + 'static,
    ) -> (Sim, Vec<NodeId>) {
        let parents: Vec<Option<NodeId>> = (0..n)
            .map(|i| {
                if i == 0 {
                    None
                } else {
                    Some(NodeId(i as u32 - 1))
                }
            })
            .collect();
        let sched = TdmaSchedule::pipeline_to_root(&parents, SimDuration::from_millis(10))
            .with_sync_slots(1)
            .with_guard(SimDuration::from_micros(500));
        let cfg = SimConfig::default()
            .seed(seed)
            .clock(ClockModel::drifting(ppm));
        let (mut w, ids) = driver_sim(cfg, Topology::line(n, 10.0), move || build(sched.clone()));
        for k in 0..sends {
            w.proto_mut::<Drv>(ids[1]).push_send(
                SimTime::from_secs(10 + k),
                Dst::Unicast(ids[0]),
                0,
                vec![k as u8],
            );
        }
        (w, ids)
    }

    #[test]
    fn unsynced_drift_collapses_delivery() {
        // Badly drifting free-running clocks slide a 10 ms slot apart
        // within tens of seconds; later unicasts miss their receiver.
        let (mut w, ids) = drifting_world(3, 500.0, 31, 60, |s| {
            TdmaMac::new(TdmaConfig::default(), s).with_local_clock()
        });
        w.run_for(SimDuration::from_secs(80));
        let got = w.proto::<Drv>(ids[0]).delivered.len();
        assert!(got < 30, "drifted TDMA still delivered {got}/60");
    }

    #[test]
    fn ftsp_synced_tdma_survives_drift() {
        let (mut w, ids) = drifting_world(3, 200.0, 31, 20, |s| {
            TdmaMac::new(TdmaConfig::default(), s).with_sync(TdmaSync {
                ftsp: FtspConfig::default().with_reference(NodeId(0)),
                ..TdmaSync::default()
            })
        });
        w.run_for(SimDuration::from_secs(40));
        for &id in &ids[1..] {
            let drv = w.proto::<Drv>(id);
            let eng = drv.mac().sync_engine().expect("sync engine");
            assert!(eng.is_synced(), "node {id} never synced");
            assert_eq!(eng.root(), ids[0]);
        }
        let got = w.proto::<Drv>(ids[0]).delivered.len();
        assert_eq!(got, 20, "synced TDMA dropped {} of 20", 20 - got);
    }

    #[test]
    fn ideal_clocks_ignore_sync_machinery_costs() {
        // A synced MAC under ideal clocks still delivers everything and
        // reports zero guard violations.
        let (mut w, ids) = drifting_world(3, 0.0, 33, 10, |s| {
            TdmaMac::new(TdmaConfig::default(), s).with_sync(TdmaSync {
                ftsp: FtspConfig::default().with_reference(NodeId(0)),
                ..TdmaSync::default()
            })
        });
        w.run_for(SimDuration::from_secs(25));
        assert_eq!(w.proto::<Drv>(ids[0]).delivered.len(), 10);
        let viol: f64 = ids
            .iter()
            .map(|&id| w.stats().get_node(id, "tdma_guard_violation"))
            .sum();
        assert_eq!(viol, 0.0, "guard violations under ideal clocks");
    }
}
