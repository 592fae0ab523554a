//! The simulation engine: event queue, node lifecycle, fault injection.

use crate::clock::{ClockModel, LocalClock};
use crate::energy::{EnergyMeter, EnergyUsage};
use crate::ids::{NodeId, TimerId};
use crate::node::{Proto, StateLoss, Timer};
use crate::obs::{self, Event, EventKind, Recorder, SpanId};
use crate::queue::{Calendar, Timed};
use crate::radio::{
    Dst, Frame, Medium, RadioConfig, RadioError, RadioState, RxEval, TxId, TxOutcome,
};
use crate::time::{SimDuration, SimTime};
use crate::topology::{Pos, Topology};
use crate::trace::Stats;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// One-way latency of the backhaul "wire" between nodes (models the IP
/// network between border routers and servers).
pub const WIRE_LATENCY: SimDuration = SimDuration::from_millis(20);

/// Static world parameters.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Master seed; everything random derives from it.
    pub seed: u64,
    /// Radio configuration shared by all nodes.
    pub radio: RadioConfig,
    /// Oscillator fault model shared by all nodes (each node draws its
    /// own parameters from it). Ideal by default.
    pub clock: ClockModel,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0xD15C0,
            radio: RadioConfig::default(),
            clock: ClockModel::default(),
        }
    }
}

/// A queued event. Sixteen bytes: the hot variants hold two ids, a
/// timer's tag waits in its [`TimerSlab`] slot, and the cold variants
/// are boxed so they do not set the size of every entry.
enum Ev {
    Start {
        node: NodeId,
    },
    Timer {
        node: NodeId,
        id: TimerId,
    },
    /// The end of a frame: the sender's `tx_done`, then every candidate
    /// reception, in candidate order.
    TxEnd {
        node: NodeId,
        tx: TxId,
    },
    Wire(Box<WireMsg>),
    Action(Box<Action>),
}

/// A backhaul message in flight (see [`Ctx::wire_send`]).
struct WireMsg {
    to: NodeId,
    from: NodeId,
    payload: Vec<u8>,
}

/// A closure scheduled on the world (see [`World::schedule`]).
type Action = Box<dyn FnOnce(&mut World)>;

struct QEntry {
    time: SimTime,
    seq: u64,
    ev: Ev,
}

impl PartialEq for QEntry {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for QEntry {}
impl PartialOrd for QEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}
impl Timed for QEntry {
    fn at(&self) -> SimTime {
        self.time
    }
}

/// The kernel's timers: a slab of slots, each reused by one pending
/// timer after another. A [`TimerId`] is `generation << 32 | slot`, so
/// arming, cancelling and firing are array accesses, an id outlives
/// its timer harmlessly (the slot's generation has moved on), and the
/// slab never holds more slots than timers were pending at once. A
/// slot also keeps its timer's tag, which the queue entry therefore
/// need not carry: the slot is freed only when that entry is popped.
/// [`TimerId::NONE`] would need slot `u32::MAX` and is never issued.
#[derive(Default)]
struct TimerSlab {
    slots: Vec<TimerSlot>,
    free: Vec<u32>,
}

#[derive(Default)]
struct TimerSlot {
    /// Bumped every time the slot's timer leaves the queue.
    generation: u32,
    /// Whether the pending timer still fires when it is popped.
    armed: bool,
    /// The pending timer's tag.
    tag: u64,
}

impl TimerSlab {
    /// Claims a slot for a timer about to be queued, carrying `tag`.
    fn arm(&mut self, tag: u64) -> TimerId {
        let slot = self.free.pop().unwrap_or_else(|| {
            assert!(self.slots.len() < u32::MAX as usize, "timer slab full");
            self.slots.push(TimerSlot::default());
            self.slots.len() as u32 - 1
        });
        let s = &mut self.slots[slot as usize];
        s.armed = true;
        s.tag = tag;
        TimerId::compose(slot, s.generation)
    }

    /// The slot `id` names, while `id` is still its current tenant.
    fn tenant(&mut self, id: TimerId) -> Option<&mut TimerSlot> {
        let s = self.slots.get_mut(id.slot())?;
        (s.generation == id.generation()).then_some(s)
    }

    /// Disarms `id` if it is still pending; anything else — fired,
    /// cancelled before, [`TimerId::NONE`] — is a no-op.
    fn cancel(&mut self, id: TimerId) {
        if let Some(s) = self.tenant(id) {
            s.armed = false;
        }
    }

    /// Retires `id` as its event leaves the queue, freeing the slot;
    /// returns its tag if the timer fires (it was not cancelled).
    fn pop(&mut self, id: TimerId) -> Option<u64> {
        let s = self.tenant(id).expect("a queued timer holds its slot");
        s.generation = s.generation.wrapping_add(1);
        let fires = std::mem::take(&mut s.armed).then_some(s.tag);
        self.free.push(id.slot() as u32);
        fires
    }
}

/// Everything the engine owns besides the protocol objects. Split out so
/// a node's protocol can be borrowed mutably at the same time as the
/// kernel (via [`Ctx`]).
// `repr(C)` pins the field order so `obs_on` shares a cache line with
// `now` and `seq`, which every dispatched event touches anyway: the
// per-event "is a recorder installed?" test must never miss in L1.
#[repr(C)]
pub(crate) struct Kernel {
    now: SimTime,
    seq: u64,
    /// Mirror of `recorder.is_some()`, kept hot; the recorder box
    /// itself lives with the cold fields below.
    obs_on: bool,
    queue: Calendar<QEntry>,
    medium: Medium,
    meters: Vec<EnergyMeter>,
    rngs: Vec<SmallRng>,
    stats: Stats,
    timers: TimerSlab,
    seed: u64,
    /// Master seed of the oscillators' own stream, derived once.
    clock_seed: u64,
    clock_model: ClockModel,
    /// Per-node oscillators. Clock state survives crashes: hardware
    /// oscillators keep ticking while the MCU reboots.
    clocks: Vec<LocalClock>,
    /// Structured-event sink; `None` (the default) makes every
    /// emission a single branch on `obs_on`.
    recorder: Option<Box<dyn Recorder>>,
    /// Total events dispatched since construction (the simulator's
    /// natural unit of work, reported by perf harnesses): see
    /// [`World::events_dispatched`].
    dispatched: u64,
}

impl Kernel {
    fn push(&mut self, time: SimTime, ev: Ev) {
        debug_assert!(time >= self.now, "scheduling into the past");
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(QEntry { time, seq, ev });
    }

    fn sync_meter(&mut self, node: NodeId) {
        let state = self.medium.state(node);
        self.meters[node.index()].transition(self.now, state);
    }

    /// Hot-path wrapper: a pointer test when no recorder is installed,
    /// with all event construction kept out of line so instrumented
    /// loops stay tight in the common (disabled) case. A kind that owns
    /// a counter comes through [`Ctx::emit`], which bumps it first.
    #[inline]
    fn emit(&mut self, node: NodeId, span: SpanId, kind: EventKind) {
        if self.obs_on {
            self.emit_slow(node, span, kind);
        }
    }

    #[cold]
    #[inline(never)]
    fn emit_slow(&mut self, node: NodeId, span: SpanId, kind: EventKind) {
        if let Some(r) = self.recorder.as_deref_mut() {
            r.record(&Event {
                t: self.now,
                node,
                span,
                kind,
            });
        }
    }
}

/// The serial kernel: a set of nodes with protocol stacks, a shared
/// radio medium, an event queue and fault-injection hooks.
///
/// Built and driven only through [`SimBuilder`](crate::sim::SimBuilder)
/// and [`Sim`](crate::sim::Sim), which owns one `World`. The type is
/// public as the *in-run handle*: a closure
/// passed to [`Sim::schedule_at`](crate::sim::Sim::schedule_at) runs
/// against it from inside the event loop, where it may read the clock
/// and the roster, act on a node through [`World::with`] and
/// [`World::schedule`] a follow-up — nothing else. Faults belong to a
/// [`FaultPlan`](crate::fault::FaultPlan), recorders and the run loop
/// to `Sim`.
///
/// # Examples
///
/// ```
/// use iiot_sim::prelude::*;
///
/// /// Counts the pokes it gets.
/// struct Poked(u32);
/// impl Proto for Poked {
///     fn start(&mut self, _ctx: &mut Ctx<'_>) {}
/// }
///
/// let mut sim = SimBuilder::new()
///     .nodes(Topology::line(2, 10.0), |_| Box::new(Poked(0)))
///     .build();
/// sim.schedule_at(SimTime::from_secs(1), |world| {
///     assert_eq!(world.now(), SimTime::from_secs(1));
///     world.with(NodeId(1), |p: &mut Poked, _ctx| p.0 += 1);
/// });
/// sim.run(SimDuration::from_secs(2));
/// assert_eq!(sim.proto::<Poked>(NodeId(1)).0, 1);
/// ```
pub struct World {
    kernel: Kernel,
    protos: Vec<Box<dyn Proto>>,
    /// Outages per node: a node is down while it has any.
    outages: Vec<u32>,
}

impl World {
    /// Creates an empty world.
    pub(crate) fn new(config: SimConfig) -> Self {
        // Under `--trace` (global capture enabled + an active worker
        // scope on this thread) new worlds record into the global sink;
        // otherwise emission stays disabled.
        let recorder = obs::scope_capture(config.seed);
        let mut w = World {
            kernel: Kernel {
                now: SimTime::ZERO,
                queue: Calendar::new(),
                seq: 0,
                medium: Medium::new(config.radio),
                meters: Vec::new(),
                rngs: Vec::new(),
                stats: Stats::default(),
                timers: TimerSlab::default(),
                seed: config.seed,
                // The oscillators draw from their own seed stream so
                // enabling drift never perturbs protocol RNG sequences
                // (and an ideal model reproduces pre-clock-model runs
                // bit for bit).
                clock_seed: crate::seed::derive_labeled(config.seed, "clock"),
                clock_model: config.clock,
                clocks: Vec::new(),
                recorder,
                obs_on: false, // synced below from `recorder`
                dispatched: 0,
            },
            protos: Vec::new(),
            outages: Vec::new(),
        };
        w.kernel.obs_on = w.kernel.recorder.is_some();
        w
    }

    /// Adds a node at `pos` running `proto`. Its [`Proto::start`] runs at
    /// the current simulation time, before any later event.
    pub(crate) fn add_node(&mut self, pos: Pos, proto: Box<dyn Proto>) -> NodeId {
        let id = self.kernel.medium.add_node(pos);
        debug_assert_eq!(id.index(), self.protos.len());
        self.protos.push(proto);
        self.outages.push(0);
        let mut meter = EnergyMeter::new();
        meter.transition(self.kernel.now, RadioState::Off);
        self.kernel.meters.push(meter);
        let node_seed = self
            .kernel
            .seed
            .wrapping_add((id.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        self.kernel.rngs.push(SmallRng::seed_from_u64(node_seed));
        let clock_seed = crate::seed::derive(self.kernel.clock_seed, id.0 as u64);
        let born_at = self.kernel.now;
        self.kernel.clocks.push(LocalClock::new(
            &self.kernel.clock_model,
            clock_seed,
            born_at,
        ));
        self.kernel.push(born_at, Ev::Start { node: id });
        id
    }

    /// Adds one node per position in `topo`, all running protocols
    /// produced by `make`. Returns the ids in order.
    pub(crate) fn add_nodes(
        &mut self,
        topo: &Topology,
        make: impl Fn(usize) -> Box<dyn Proto>,
    ) -> Vec<NodeId> {
        self.reserve_nodes(topo.len());
        (0..topo.len())
            .map(|i| self.add_node(topo.pos(i), make(i)))
            .collect()
    }

    /// Makes room for `additional` more nodes in every per-node table
    /// and for their `Start` events, so adding a group grows each once.
    fn reserve_nodes(&mut self, additional: usize) {
        self.protos.reserve(additional);
        self.outages.reserve(additional);
        let k = &mut self.kernel;
        k.medium.reserve_nodes(additional);
        k.meters.reserve(additional);
        k.rngs.reserve(additional);
        k.clocks.reserve(additional);
        k.queue.reserve(additional);
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.kernel.now
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.protos.len()
    }

    /// Total events dispatched so far — the simulator's natural unit of
    /// work: one per node start, timer, wire message, scheduled action
    /// and frame end, plus one per candidate reception evaluated (a
    /// frame's receptions share its queue entry, so this is not one per
    /// queue pop). Deterministic per seed and workload, independent of
    /// wall clock, which makes it the right quantity for perf *gates*
    /// (the count must not drift) as opposed to perf *tracking*
    /// (timings).
    pub(crate) fn events_dispatched(&self) -> u64 {
        self.kernel.dispatched
    }

    /// Entries pushed onto the event queue so far (see
    /// [`Sim::queue_pushes`](crate::sim::Sim::queue_pushes)).
    pub(crate) fn queue_pushes(&self) -> u64 {
        self.kernel.seq
    }

    /// Pushes filed beyond the event queue's horizon (see
    /// [`Sim::queue_spills`](crate::sim::Sim::queue_spills)).
    pub(crate) fn queue_spills(&self) -> u64 {
        self.kernel.queue.spills()
    }

    /// Shared medium (read access: stats, radio states, positions).
    pub(crate) fn medium(&self) -> &Medium {
        &self.kernel.medium
    }

    /// Mutable medium access, for tests that reshape the medium.
    #[cfg(test)]
    pub(crate) fn medium_mut(&mut self) -> &mut Medium {
        &mut self.kernel.medium
    }

    /// Collected statistics.
    pub(crate) fn stats(&self) -> &Stats {
        &self.kernel.stats
    }

    /// Installs `recorder` as the structured-event sink. Replaces any
    /// previous recorder (the old one is dropped).
    pub(crate) fn set_recorder(&mut self, recorder: Box<dyn Recorder>) {
        self.kernel.recorder = Some(recorder);
        self.kernel.obs_on = true;
    }

    /// Removes and returns the installed recorder, disabling emission.
    pub(crate) fn take_recorder(&mut self) -> Option<Box<dyn Recorder>> {
        self.kernel.obs_on = false;
        self.kernel.recorder.take()
    }

    /// The installed recorder downcast to `T`, if its type matches.
    pub(crate) fn recorder_as<T: Recorder>(&self) -> Option<&T> {
        self.kernel
            .recorder
            .as_deref()
            .and_then(|r| r.as_any().downcast_ref::<T>())
    }

    /// Energy usage of `node` as of the current time.
    pub(crate) fn energy(&self, node: NodeId) -> EnergyUsage {
        self.kernel.meters[node.index()].snapshot(self.kernel.now)
    }

    /// Whether `node` is currently alive.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.outages[node.index()] == 0
    }

    /// Immutable access to a node's protocol, downcast to `T`.
    ///
    /// # Panics
    ///
    /// Panics, naming `T`, if the protocol of `node` is not a `T`.
    pub fn proto<T: Proto>(&self, node: NodeId) -> &T {
        let p = self.protos[node.index()].as_any().downcast_ref::<T>();
        p.unwrap_or_else(|| wrong_type::<T>(node))
    }

    /// Mutable access to a node's protocol, downcast to `T`.
    ///
    /// # Panics
    ///
    /// Panics, naming `T`, if the protocol of `node` is not a `T`.
    pub(crate) fn proto_mut<T: Proto>(&mut self, node: NodeId) -> &mut T {
        let p = self.protos[node.index()].as_any_mut().downcast_mut::<T>();
        p.unwrap_or_else(|| wrong_type::<T>(node))
    }

    /// The local (drifting) clock reading of `node` at the current
    /// simulation time — the oracle view of what [`Ctx::local_time`]
    /// would return, for measuring synchronization error from outside.
    pub(crate) fn local_time_of(&mut self, node: NodeId) -> SimTime {
        let now = self.kernel.now;
        self.kernel.clocks[node.index()].read(now)
    }

    /// Runs `f` with `node`'s protocol, downcast to `T`, and a live
    /// [`Ctx`], outside any event dispatch: the way to inject an
    /// application-level request (`w.with(gw, |n: &mut Node, ctx|
    /// n.install(ctx, &img))`).
    ///
    /// # Panics
    ///
    /// Panics, naming `T`, if the protocol of `node` is not a `T`.
    pub fn with<T: Proto, R>(
        &mut self,
        node: NodeId,
        f: impl FnOnce(&mut T, &mut Ctx<'_>) -> R,
    ) -> R {
        let kernel = &mut self.kernel;
        let proto = self.protos[node.index()].as_any_mut().downcast_mut::<T>();
        let proto = proto.unwrap_or_else(|| wrong_type::<T>(node));
        f(proto, &mut Ctx { kernel, node })
    }

    /// Schedules `f` to run on the world at time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn schedule(&mut self, at: SimTime, f: impl FnOnce(&mut World) + 'static) {
        assert!(at >= self.kernel.now, "cannot schedule into the past");
        self.kernel.push(at, Ev::Action(Box::new(Box::new(f))));
    }

    /// Starts one outage of `node`; it is down while it has any. The
    /// first takes its radio down and loses what `loss` says: RAM via
    /// [`Proto::crashed`], or RAM and flash via [`Proto::wiped`], traced
    /// as `crash` or `crash_wipe`. A later one that wipes flash wipes it
    /// then (traced too); one that loses RAM only changes nothing more.
    pub(crate) fn kill(&mut self, node: NodeId, loss: StateLoss) {
        let outages = &mut self.outages[node.index()];
        *outages += 1;
        let first = *outages == 1;
        if !first && loss == StateLoss::Ram {
            return;
        }
        let kind = match loss {
            StateLoss::Ram => "crash",
            StateLoss::Full => "crash_wipe",
        };
        self.emit_fault(node, kind, None);
        if first {
            self.kernel.medium.set_alive(node, false);
            self.kernel.sync_meter(node);
        }
        match loss {
            StateLoss::Ram => self.protos[node.index()].crashed(),
            StateLoss::Full => self.protos[node.index()].wiped(),
        }
    }

    /// Ends one outage of `node`, if it has any. Ending the last boots
    /// it again through [`Proto::start`].
    pub(crate) fn revive(&mut self, node: NodeId) {
        let outages = &mut self.outages[node.index()];
        if *outages != 1 {
            *outages = outages.saturating_sub(1);
            return;
        }
        *outages = 0;
        self.emit_fault(node, "recover", None);
        self.kernel.medium.set_alive(node, true);
        self.kernel.sync_meter(node);
        let now = self.kernel.now;
        self.kernel.push(now, Ev::Start { node });
    }

    /// Severs the link between `a` and `b` (both ways) once more; it
    /// stays severed until every cut is undone. Going down emits a
    /// `link_down` fault event.
    pub(crate) fn block_link(&mut self, a: NodeId, b: NodeId) {
        if self.kernel.medium.block_link(a, b) {
            self.emit_fault(a, "link_down", Some(b));
        }
    }

    /// Undoes one cut of the link between `a` and `b`. Coming back up
    /// emits a `link_up` fault event.
    pub(crate) fn unblock_link(&mut self, a: NodeId, b: NodeId) {
        if self.kernel.medium.unblock_link(a, b) {
            self.emit_fault(a, "link_up", Some(b));
        }
    }

    /// Starts a network partition: node `i` joins `groups[i]`, nodes
    /// past the list join group 0, and nodes in different groups cannot
    /// hear each other until it heals. Partitions stack: two nodes are
    /// cut off while any active partition separates them. Emits a
    /// `partition` fault event, attributed to node 0 because a
    /// partition is a global condition.
    pub(crate) fn partition(&mut self, groups: Vec<u16>) {
        self.emit_fault(NodeId(0), "partition", None);
        self.kernel.medium.partition(groups);
    }

    /// Ends one active partition with these `groups`, emitting a `heal`
    /// fault event.
    pub(crate) fn heal(&mut self, groups: &[u16]) {
        self.emit_fault(NodeId(0), "heal", None);
        self.kernel.medium.heal(groups);
    }

    /// Counts, against its sender, a transmission whose record aged out
    /// (out of line: the frame-end path stays as tight as without it).
    #[cold]
    #[inline(never)]
    fn tx_expired(&mut self, node: NodeId) {
        let kernel = &mut self.kernel;
        Ctx { kernel, node }.emit(EventKind::TxExpired {});
    }

    fn emit_fault(&mut self, node: NodeId, kind: &'static str, peer: Option<NodeId>) {
        let kind = EventKind::Fault { kind, peer };
        self.kernel.emit(node, SpanId::NONE, kind);
    }

    /// Runs the simulation until `deadline` (inclusive of events at the
    /// deadline); afterwards `now() == deadline`. A deadline before
    /// `now()` is a no-op instead: the clock never runs backwards.
    pub(crate) fn run_until(&mut self, deadline: SimTime) {
        if deadline < self.kernel.now {
            return;
        }
        while let Some(entry) = self.kernel.queue.pop_until(deadline) {
            debug_assert!(entry.time >= self.kernel.now);
            self.kernel.now = entry.time;
            self.dispatch(entry.ev);
        }
        self.kernel.now = deadline;
    }

    /// Runs the simulation for `d` more simulated time.
    #[cfg(test)]
    pub(crate) fn run_for(&mut self, d: SimDuration) {
        let deadline = self.kernel.now + d;
        self.run_until(deadline);
    }

    fn dispatch(&mut self, ev: Ev) {
        self.kernel.dispatched += 1;
        match ev {
            Ev::Action(f) => f(self),
            Ev::Start { node } => {
                if self.is_alive(node) {
                    self.call(node, |p, ctx| p.start(ctx));
                }
            }
            Ev::Timer { node, id } => {
                if let Some(tag) = self.kernel.timers.pop(id) {
                    if self.is_alive(node) {
                        self.call(node, |p, ctx| p.timer(ctx, Timer { id, tag }));
                    }
                }
            }
            Ev::TxEnd { node, tx } => {
                let outcome = self.kernel.medium.end_tx(tx, self.kernel.now);
                let outcome = outcome.unwrap_or_else(|| {
                    // The record was pruned before its own TxEnd — the
                    // global `lost_expired` bump alone cannot say *whose*
                    // transmission aged out.
                    self.tx_expired(node);
                    TxOutcome {
                        oracle_receivers: 0,
                    }
                });
                self.kernel.sync_meter(node);
                self.kernel.emit(
                    node,
                    SpanId::NONE,
                    EventKind::TxEnd {
                        receivers: outcome.oracle_receivers as u32,
                    },
                );
                if self.is_alive(node) {
                    self.call(node, |p, ctx| p.tx_done(ctx, outcome));
                }
                self.receptions(tx);
            }
            Ev::Wire(msg) => {
                let WireMsg { to, from, payload } = *msg;
                if self.is_alive(to) {
                    self.call(to, |p, ctx| p.wire(ctx, from, &payload));
                }
            }
        }
    }

    /// Evaluates the receptions of `tx` at its candidates, in candidate
    /// order, each one a dispatched event. They all
    /// happen at the frame's end and nothing can be queued between
    /// them, so they run from the frame's one queue entry.
    fn receptions(&mut self, tx: TxId) {
        // The record is looked up by id at every step, never held: a
        // `frame` callback may transmit, which can move the slab.
        for i in 0.. {
            let Some(&(node, ..)) = self.kernel.medium.candidates(tx).get(i) else {
                break;
            };
            self.kernel.dispatched += 1;
            match self.kernel.medium.eval_rx(tx, i) {
                RxEval::Deliver(frame, info) => {
                    self.kernel.emit(
                        node,
                        SpanId::NONE,
                        EventKind::RxDeliver {
                            src: frame.src,
                            port: frame.port,
                        },
                    );
                    if self.is_alive(node) {
                        self.call(node, |p, ctx| p.frame(ctx, &frame, info));
                    }
                    // The delivered clone is dead now; hand its
                    // payload buffer back to the medium's pool.
                    self.kernel.medium.recycle_payload(frame.payload);
                }
                RxEval::Dropped(reason, src) => {
                    self.kernel.emit(
                        node,
                        SpanId::NONE,
                        EventKind::RxDrop {
                            cause: reason.name(),
                            src,
                        },
                    );
                }
            }
        }
        self.kernel.medium.unpin(tx);
    }

    fn call(&mut self, node: NodeId, f: impl FnOnce(&mut dyn Proto, &mut Ctx<'_>)) {
        let kernel = &mut self.kernel;
        let proto = &mut self.protos[node.index()];
        let mut ctx = Ctx { kernel, node };
        f(proto.as_mut(), &mut ctx);
    }
}

/// The panic behind [`World::proto`] and [`World::with`] on a node that
/// runs something other than a `T`.
fn wrong_type<T>(node: NodeId) -> ! {
    panic!(
        "node {node}'s protocol is not a {}",
        std::any::type_name::<T>()
    )
}

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("now", &self.kernel.now)
            .field("nodes", &self.protos.len())
            .field("queued_events", &self.kernel.queue.len())
            .finish()
    }
}

/// The per-callback handle through which protocols act on the world.
///
/// A `Ctx` is only valid during one callback; all its operations are
/// attributed to the node the callback was delivered to.
pub struct Ctx<'a> {
    kernel: &'a mut Kernel,
    node: NodeId,
}

impl Ctx<'_> {
    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.kernel.now
    }

    /// The node this callback belongs to.
    pub fn id(&self) -> NodeId {
        self.node
    }

    /// This node's position.
    pub fn pos(&self) -> Pos {
        self.kernel.medium.pos(self.node)
    }

    /// Total number of nodes in the world (deployment-time knowledge).
    pub fn node_count(&self) -> usize {
        self.kernel.medium.node_count()
    }

    /// The shared radio configuration: the link model.
    pub fn radio(&self) -> &RadioConfig {
        self.kernel.medium.config()
    }

    /// This node's deterministic random source.
    pub fn rng(&mut self) -> &mut SmallRng {
        &mut self.kernel.rngs[self.node.index()]
    }

    /// This node's local clock reading: what the node's own (possibly
    /// drifting) oscillator shows right now. Under the default ideal
    /// [`crate::clock::ClockModel`] this equals [`Ctx::now`] exactly.
    ///
    /// Protocols that claim realistic timing must schedule off this
    /// clock (via [`Ctx::set_timer_local`]), never off [`Ctx::now`] —
    /// real motes have no access to perfect global time.
    pub fn local_time(&mut self) -> SimTime {
        let now = self.kernel.now;
        self.kernel.clocks[self.node.index()].read(now)
    }

    /// Arms a one-shot timer that fires after `delay` *as measured by
    /// this node's local clock*, like a hardware timer counting local
    /// oscillator ticks. Under an ideal clock model this is exactly
    /// [`Ctx::set_timer`].
    pub fn set_timer_local(&mut self, delay: SimDuration, tag: u64) -> TimerId {
        let now = self.kernel.now;
        let world_delay = self.kernel.clocks[self.node.index()].world_delay(now, delay);
        self.set_timer(world_delay, tag)
    }

    /// Arms a one-shot timer firing after `delay`, carrying `tag`.
    pub fn set_timer(&mut self, delay: SimDuration, tag: u64) -> TimerId {
        self.set_timer_at(self.kernel.now + delay, tag)
    }

    /// Arms a one-shot timer firing at absolute time `at`, carrying `tag`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn set_timer_at(&mut self, at: SimTime, tag: u64) -> TimerId {
        assert!(at >= self.kernel.now, "timer in the past");
        let id = self.kernel.timers.arm(tag);
        let node = self.node;
        self.kernel.push(at, Ev::Timer { node, id });
        id
    }

    /// Cancels a pending timer. Cancelling an already-fired, already
    /// cancelled or [`TimerId::NONE`] timer is a no-op.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.kernel.timers.cancel(id);
    }

    /// Powers the radio on (listening).
    ///
    /// # Errors
    ///
    /// Fails only if the node is dead (cannot happen from a live callback).
    pub fn radio_on(&mut self) -> Result<(), RadioError> {
        self.kernel.medium.radio_on(self.node, self.kernel.now)?;
        self.kernel.sync_meter(self.node);
        Ok(())
    }

    /// Powers the radio off (sleep).
    ///
    /// # Errors
    ///
    /// Fails with [`RadioError::Busy`] while transmitting.
    pub fn radio_off(&mut self) -> Result<(), RadioError> {
        self.kernel.medium.radio_off(self.node)?;
        self.kernel.sync_meter(self.node);
        Ok(())
    }

    /// Retunes the radio to `channel`.
    ///
    /// # Errors
    ///
    /// Fails with [`RadioError::Busy`] while transmitting.
    pub fn set_channel(&mut self, channel: u8) -> Result<(), RadioError> {
        self.kernel
            .medium
            .set_channel(self.node, channel, self.kernel.now)
    }

    /// The radio's current channel.
    pub fn channel(&self) -> u8 {
        self.kernel.medium.channel(self.node)
    }

    /// Clear channel assessment: `true` if an audible transmission is in
    /// the air right now.
    pub fn cca_busy(&self) -> bool {
        self.kernel.medium.cca_busy(self.node, self.kernel.now)
    }

    /// Starts transmitting `payload` to `dst` on the demux `port`.
    /// Completion is signalled via [`Proto::tx_done`].
    ///
    /// # Errors
    ///
    /// Returns [`RadioError::Off`] if the radio is off, [`RadioError::Busy`]
    /// if a transmission is in progress, or [`RadioError::FrameTooLarge`].
    pub fn transmit(&mut self, dst: Dst, port: u8, payload: Vec<u8>) -> Result<(), RadioError> {
        let bytes = payload.len() as u32;
        let frame = Frame::new(self.node, dst, port, payload);
        let node = self.node;
        let (tx, end) = {
            // Borrow dance: rng and medium are both in the kernel.
            let Kernel {
                medium, rngs, now, ..
            } = &mut *self.kernel;
            medium.start_tx_into(frame, *now, &mut rngs[node.index()])?
        };
        self.kernel.sync_meter(node);
        self.kernel.emit(
            node,
            SpanId::NONE,
            EventKind::TxStart {
                dst: match dst {
                    Dst::Unicast(n) => Some(n),
                    Dst::Broadcast => None,
                },
                port,
                bytes,
            },
        );
        // The frame's one queue entry: its receptions are evaluated
        // from it, in candidate order (see `World::receptions`).
        self.kernel.push(end, Ev::TxEnd { node, tx });
        Ok(())
    }

    /// An empty buffer to build a frame in for [`Ctx::transmit`], lent
    /// from the medium's pool of recycled payloads: frames that left
    /// the air hand their memory to the next ones, so a steady stream
    /// of transmissions allocates nothing.
    pub fn frame_buf(&mut self) -> Vec<u8> {
        self.kernel.medium.frame_buf()
    }

    /// Sends `payload` over the backhaul wire to `to`, arriving after
    /// [`WIRE_LATENCY`]. Only meaningful between nodes that are
    /// conceptually wired (border routers, servers); the medium does not
    /// check this.
    pub fn wire_send(&mut self, to: NodeId, payload: Vec<u8>) {
        let at = self.kernel.now + WIRE_LATENCY;
        let from = self.node;
        let msg = WireMsg { to, from, payload };
        self.kernel.push(at, Ev::Wire(Box::new(msg)));
    }

    /// Whether a structured-event recorder is installed. Protocols may
    /// use this to skip *computing* expensive event payloads; plain
    /// [`Ctx::emit`] calls are already a single branch when disabled.
    #[inline]
    pub fn obs_enabled(&self) -> bool {
        self.kernel.obs_on
    }

    /// Emits a structured event attributed to this node, outside any
    /// span: bumps the counter the kind owns, if any, and records the
    /// event if a recorder is installed.
    #[inline(always)]
    pub fn emit(&mut self, kind: EventKind) {
        self.emit_span(SpanId::NONE, kind);
    }

    /// Emits a structured event stitched into `span` (see [`SpanId`]).
    /// Always inlined, so an emitter's constant kind folds the counter
    /// lookup to its one name.
    #[inline(always)]
    pub fn emit_span(&mut self, span: SpanId, kind: EventKind) {
        if let Some(counter) = kind.counter() {
            self.kernel.stats.inc_node(self.node, counter, 1.0);
        }
        self.kernel.emit(self.node, span, kind);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Idle;
    use crate::radio::RxInfo;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Ping-pong: node A unicasts to B, B replies, A records latency.
    struct Ping {
        peer: NodeId,
        initiator: bool,
        rtts: Vec<f64>,
        sent_at: SimTime,
    }

    impl Ping {
        fn new(peer: NodeId, initiator: bool) -> Self {
            Ping {
                peer,
                initiator,
                rtts: Vec::new(),
                sent_at: SimTime::ZERO,
            }
        }
    }

    impl Proto for Ping {
        fn start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.radio_on().expect("radio");
            if self.initiator {
                ctx.set_timer(SimDuration::from_millis(10), 1);
            }
        }
        fn timer(&mut self, ctx: &mut Ctx<'_>, _t: Timer) {
            self.sent_at = ctx.now();
            ctx.transmit(Dst::Unicast(self.peer), 1, vec![b'p'])
                .expect("tx");
        }
        fn frame(&mut self, ctx: &mut Ctx<'_>, frame: &Frame, _info: RxInfo) {
            if frame.payload == [b'p'] {
                ctx.transmit(Dst::Unicast(frame.src), 1, vec![b'r'])
                    .expect("tx reply");
            } else {
                let rtt = ctx.now().duration_since(self.sent_at).as_secs_f64();
                self.rtts.push(rtt);
            }
        }
    }

    #[test]
    fn ping_pong_round_trip() {
        let mut w = World::new(SimConfig::default());
        let a = w.add_node(Pos::new(0.0, 0.0), Box::new(Ping::new(NodeId(1), true)));
        let b = w.add_node(Pos::new(10.0, 0.0), Box::new(Ping::new(NodeId(0), false)));
        assert_eq!((a, b), (NodeId(0), NodeId(1)));
        w.run_for(SimDuration::from_secs(1));
        let ping = w.proto::<Ping>(a);
        assert_eq!(ping.rtts.len(), 1);
        // Two 18-byte frames at 250kb/s: 2 * 576 us = 1.152 ms.
        assert!(
            (ping.rtts[0] - 0.001152).abs() < 1e-6,
            "rtt {}",
            ping.rtts[0]
        );
    }

    #[test]
    fn determinism_same_seed_same_outcome() {
        let run = |seed: u64| {
            let cfg = SimConfig {
                seed,
                ..SimConfig::default()
            };
            let mut w = World::new(cfg);
            let a = w.add_node(Pos::new(0.0, 0.0), Box::new(Ping::new(NodeId(1), true)));
            w.add_node(Pos::new(10.0, 0.0), Box::new(Ping::new(NodeId(0), false)));
            w.run_for(SimDuration::from_secs(1));
            (w.medium().stats(), w.proto::<Ping>(a).rtts.clone())
        };
        assert_eq!(run(1), run(1));
    }

    #[test]
    fn absent_recorder_is_a_no_op() {
        // The same simulation with and without a recorder: identical
        // protocol outcomes and identical Stats — what a kind's counter
        // reads must not hang on whether anyone records the event.
        let run = |record: bool| {
            let mut w = World::new(SimConfig {
                seed: 3,
                ..SimConfig::default()
            });
            let a = w.add_node(Pos::new(0.0, 0.0), Box::new(Ping::new(NodeId(1), true)));
            w.add_node(Pos::new(10.0, 0.0), Box::new(Ping::new(NodeId(0), false)));
            if record {
                w.set_recorder(Box::new(obs::RingRecorder::new(256)));
            }
            w.schedule(SimTime::from_millis(500), move |w| {
                w.kill(NodeId(1), StateLoss::Ram)
            });
            w.run_for(SimDuration::from_secs(1));
            let events = w
                .take_recorder()
                .map(|r| {
                    r.as_any()
                        .downcast_ref::<obs::RingRecorder>()
                        .expect("ring")
                        .len()
                })
                .unwrap_or(0);
            let counters = format!("{:?}", w.stats());
            (w.proto::<Ping>(a).rtts.clone(), counters, events)
        };
        let (rtts_off, counters_off, events_off) = run(false);
        let (rtts_on, counters_on, events_on) = run(true);
        assert_eq!(events_off, 0, "no recorder, no events");
        assert!(events_on > 0, "recorder sees tx/rx/fault events");
        assert_eq!(rtts_off, rtts_on, "recording must not change the run");
        assert_eq!(counters_off, counters_on, "counters ignore recording");
    }

    #[test]
    fn kill_stops_timers_and_revive_restarts() {
        struct Beacons {
            fired: u32,
        }
        impl Proto for Beacons {
            fn start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(SimDuration::from_millis(100), 0);
            }
            fn timer(&mut self, ctx: &mut Ctx<'_>, _t: Timer) {
                self.fired += 1;
                ctx.set_timer(SimDuration::from_millis(100), 0);
            }
            fn crashed(&mut self) {
                self.fired = 0; // volatile state lost
            }
        }
        let mut w = World::new(SimConfig::default());
        let n = w.add_node(Pos::new(0.0, 0.0), Box::new(Beacons { fired: 0 }));
        w.schedule(SimTime::from_millis(550), move |w| {
            w.kill(n, StateLoss::Ram)
        });
        w.schedule(SimTime::from_secs(2), move |w| w.revive(n));
        w.run_until(SimTime::from_millis(1900));
        // 5 fires before the kill, none after, reset on crash.
        assert_eq!(w.proto::<Beacons>(n).fired, 0);
        assert!(!w.is_alive(n));
        w.run_until(SimTime::from_secs(3));
        assert!(w.is_alive(n));
        let fired = w.proto::<Beacons>(n).fired;
        assert!((9..=11).contains(&fired), "fired {fired} after revive");
    }

    #[test]
    fn kill_loss_selects_crashed_or_wiped() {
        /// Keeps a volatile counter and a "flash" checkpoint of it.
        struct Flashy {
            ram: u32,
            flash: u32,
        }
        impl Proto for Flashy {
            fn start(&mut self, _ctx: &mut Ctx<'_>) {
                self.ram = self.flash; // resume from the checkpoint
                self.ram += 1;
                self.flash = self.ram;
            }
            fn crashed(&mut self) {
                self.ram = 0; // RAM lost, flash kept
            }
            fn wiped(&mut self) {
                self.ram = 0;
                self.flash = 0; // flash lost too
            }
        }
        let mk = |loss: StateLoss| {
            let mut w = World::new(SimConfig::default());
            let n = w.add_node(Pos::new(0.0, 0.0), Box::new(Flashy { ram: 0, flash: 0 }));
            w.schedule(SimTime::from_millis(100), move |w| w.kill(n, loss));
            w.schedule(SimTime::from_millis(200), move |w| w.revive(n));
            w.run_for(SimDuration::from_secs(1));
            w.proto::<Flashy>(n).flash
        };
        // RAM-only loss: the flash checkpoint survives the reboot, so
        // the second boot increments it to 2.
        assert_eq!(mk(StateLoss::Ram), 2);
        // Full wipe: the second boot starts from zero again.
        assert_eq!(mk(StateLoss::Full), 1);
    }

    #[test]
    fn cancelled_timer_does_not_fire() {
        struct C {
            fired: bool,
        }
        impl Proto for C {
            fn start(&mut self, ctx: &mut Ctx<'_>) {
                let t = ctx.set_timer(SimDuration::from_millis(10), 0);
                ctx.cancel_timer(t);
                ctx.cancel_timer(TimerId::NONE); // no-op
            }
            fn timer(&mut self, _ctx: &mut Ctx<'_>, _t: Timer) {
                self.fired = true;
            }
        }
        let mut w = World::new(SimConfig::default());
        let n = w.add_node(Pos::new(0.0, 0.0), Box::new(C { fired: false }));
        w.run_for(SimDuration::from_secs(1));
        assert!(!w.proto::<C>(n).fired);
    }

    #[test]
    fn timer_ids_outlive_their_timers_harmlessly() {
        let mut slab = TimerSlab::default();
        let a = slab.arm(1);
        assert_eq!(slab.pop(a), Some(1), "an armed timer fires");
        // Cancel-after-fire is a no-op, and the slot's next tenant is a
        // different id that the stale one cannot touch.
        slab.cancel(a);
        let b = slab.arm(2);
        assert_eq!((a.slot(), a.generation() + 1), (b.slot(), b.generation()));
        slab.cancel(a);
        assert_eq!(
            slab.pop(b),
            Some(2),
            "a stale id must not cancel the slot's next tenant"
        );
        // Cancel-twice is one cancel; the pop still frees the slot.
        let c = slab.arm(3);
        slab.cancel(c);
        slab.cancel(c);
        assert_eq!(slab.pop(c), None, "a cancelled timer does not fire");
        slab.cancel(TimerId::NONE);
        assert_eq!((slab.slots.len(), slab.free.len()), (1, 1));
    }

    #[test]
    fn a_queue_entry_is_32_bytes() {
        assert!(std::mem::size_of::<Ev>() <= 16);
        assert!(std::mem::size_of::<QEntry>() <= 32);
    }

    #[test]
    fn a_reused_timer_slot_fires_with_its_own_tag() {
        /// Arms tag 7 and cancels it at start; a later action arms tag
        /// 9, into the slot the cancelled timer's pop freed.
        #[derive(Default)]
        struct Reuse {
            cancelled: TimerId,
            rearmed: TimerId,
            fired: Vec<u64>,
        }
        impl Proto for Reuse {
            fn start(&mut self, ctx: &mut Ctx<'_>) {
                self.cancelled = ctx.set_timer(SimDuration::from_millis(10), 7);
                ctx.cancel_timer(self.cancelled);
            }
            fn timer(&mut self, _ctx: &mut Ctx<'_>, t: Timer) {
                self.fired.push(t.tag);
            }
        }
        let mut w = World::new(SimConfig::default());
        let n = w.add_node(Pos::new(0.0, 0.0), Box::new(Reuse::default()));
        w.schedule(SimTime::from_millis(20), move |w| {
            w.with(n, |r: &mut Reuse, ctx| {
                r.rearmed = ctx.set_timer(SimDuration::from_millis(10), 9);
            });
        });
        w.run_for(SimDuration::from_secs(1));
        let r = w.proto::<Reuse>(n);
        assert_eq!(r.rearmed.slot(), r.cancelled.slot(), "the slot was reused");
        assert_eq!(r.fired, vec![9]);
    }

    #[test]
    fn timer_slab_stays_at_peak_concurrent_size() {
        // 10^5 arm/fire/cancel cycles with at most eight timers
        // pending: a set of cancelled ids would hold an entry per
        // cancel-after-fire by now; the slab holds eight slots.
        let mut slab = TimerSlab::default();
        let mut pending = std::collections::VecDeque::new();
        for i in 0..100_000u32 {
            let id = slab.arm(i.into());
            assert!(!id.is_none(), "NONE is never issued");
            if i % 3 == 0 {
                slab.cancel(id);
            }
            pending.push_back((id, (i % 3 != 0).then_some(u64::from(i))));
            if pending.len() == 8 {
                let (old, fires) = pending.pop_front().expect("eight pending");
                assert_eq!(slab.pop(old), fires);
                slab.cancel(old); // what Trickle does every interval
            }
        }
        assert_eq!(slab.slots.len(), 8);
    }

    #[test]
    fn wire_messages_arrive_after_latency() {
        struct W {
            got: Vec<(NodeId, Vec<u8>, SimTime)>,
            send_to: Option<NodeId>,
        }
        impl Proto for W {
            fn start(&mut self, ctx: &mut Ctx<'_>) {
                if let Some(to) = self.send_to {
                    ctx.wire_send(to, vec![9, 9]);
                }
            }
            fn wire(&mut self, ctx: &mut Ctx<'_>, from: NodeId, payload: &[u8]) {
                self.got.push((from, payload.to_vec(), ctx.now()));
            }
        }
        let mut w = World::new(SimConfig::default());
        let a = w.add_node(
            Pos::new(0.0, 0.0),
            Box::new(W {
                got: vec![],
                send_to: Some(NodeId(1)),
            }),
        );
        let b = w.add_node(
            Pos::new(1000.0, 0.0), // far out of radio range: wire still works
            Box::new(W {
                got: vec![],
                send_to: None,
            }),
        );
        w.run_for(SimDuration::from_secs(1));
        let got = &w.proto::<W>(b).got;
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, a);
        assert_eq!(got[0].1, vec![9, 9]);
        assert_eq!(got[0].2, SimTime::from_millis(20));
    }

    #[test]
    fn energy_accounting_through_ctx() {
        struct E;
        impl Proto for E {
            fn start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.radio_on().expect("on");
                ctx.set_timer(SimDuration::from_secs(1), 0);
            }
            fn timer(&mut self, ctx: &mut Ctx<'_>, _t: Timer) {
                ctx.radio_off().expect("off");
            }
        }
        let mut w = World::new(SimConfig::default());
        let n = w.add_node(Pos::new(0.0, 0.0), Box::new(E));
        w.run_for(SimDuration::from_secs(10));
        let u = w.energy(n);
        assert_eq!(u.listen, SimDuration::from_secs(1));
        assert_eq!(u.sleep, SimDuration::from_secs(9));
    }

    #[test]
    fn scheduled_actions_run_in_order() {
        let mut w = World::new(SimConfig::default());
        w.add_node(Pos::new(0.0, 0.0), Box::new(Idle));
        let log: Rc<RefCell<Vec<f64>>> = Rc::default();
        for (secs, v) in [(1, 1.0), (2, 2.0), (1, 1.5)] {
            let log = Rc::clone(&log);
            w.schedule(SimTime::from_secs(secs), move |_| log.borrow_mut().push(v));
        }
        w.run_for(SimDuration::from_secs(3));
        assert_eq!(*log.borrow(), [1.0, 1.5, 2.0]);
    }

    /// Logs every callback into the log all nodes share: `tx_done` as
    /// 1, `frame` as 2 at node 1 and 3 elsewhere, timers by their tag.
    /// Node 0 transmits at 10 ms and arms timer 4 for the frame's end
    /// right after; node 1 arms the zero-delay timer 5 from `frame`.
    struct Ordered(Rc<RefCell<Vec<f64>>>);

    impl Proto for Ordered {
        fn start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.radio_on().expect("radio");
            if ctx.id() == NodeId(0) {
                ctx.set_timer(SimDuration::from_millis(10), 0);
            }
        }
        fn timer(&mut self, ctx: &mut Ctx<'_>, t: Timer) {
            if t.tag == 0 {
                ctx.transmit(Dst::Broadcast, 0, vec![1]).expect("tx");
                ctx.set_timer(ctx.radio().airtime(1), 4);
            } else {
                self.0.borrow_mut().push(t.tag as f64);
            }
        }
        fn tx_done(&mut self, _ctx: &mut Ctx<'_>, _outcome: crate::radio::TxOutcome) {
            self.0.borrow_mut().push(1.0);
        }
        fn frame(&mut self, ctx: &mut Ctx<'_>, _frame: &Frame, _info: RxInfo) {
            if ctx.id() == NodeId(1) {
                self.0.borrow_mut().push(2.0);
                ctx.set_timer(SimDuration::ZERO, 5);
            } else {
                self.0.borrow_mut().push(3.0);
            }
        }
    }

    #[test]
    fn a_frames_end_runs_in_queue_order_from_one_entry() {
        // What evaluating receptions from their TxEnd relies on: at the
        // frame's end, events queued for that instant before the
        // transmission run first, then the sender's tx_done and the
        // receptions in candidate order, then whatever was queued for
        // that instant after the transmission — a timer the sender
        // armed, one a receiver armed from inside `frame` — in arming
        // order.
        let run = |kill_c: bool| {
            let mut w = World::new(SimConfig::default());
            w.set_recorder(Box::new(obs::RingRecorder::new(64)));
            let order: Rc<RefCell<Vec<f64>>> = Rc::default();
            for x in [0.0, 10.0, 20.0] {
                w.add_node(Pos::new(x, 0.0), Box::new(Ordered(Rc::clone(&order))));
            }
            let end = SimTime::from_millis(10) + w.medium().config().airtime(1);
            if kill_c {
                // Queued long before the transmission: first at `end`.
                w.schedule(end, move |w| w.kill(NodeId(2), StateLoss::Ram));
            }
            w.run_for(SimDuration::from_secs(1));
            let ring = w.take_recorder().expect("installed");
            let ring = ring.as_any().downcast_ref::<obs::RingRecorder>();
            let drops: Vec<(NodeId, &'static str)> = ring
                .expect("ring")
                .events()
                .filter_map(|e| match e.kind {
                    EventKind::RxDrop { cause, .. } => Some((e.node, cause)),
                    _ => None,
                })
                .collect();
            let order = order.borrow().clone();
            (order, drops)
        };
        assert_eq!(run(false), (vec![1.0, 2.0, 3.0, 4.0, 5.0], vec![]));
        assert_eq!(
            run(true),
            (vec![1.0, 2.0, 4.0, 5.0], vec![(NodeId(2), "dead")])
        );
    }

    #[test]
    fn a_frame_is_one_queue_entry_and_one_event_per_reception() {
        let mut w = World::new(SimConfig::default());
        for x in [0.0, 10.0, 20.0, -10.0] {
            w.add_node(Pos::new(x, 0.0), Box::new(Ordered(Rc::default())));
        }
        w.run_for(SimDuration::from_millis(1)); // radios on
        let (pushes, events) = (w.queue_pushes(), w.events_dispatched());
        w.with(NodeId(0), |_: &mut Ordered, ctx| {
            ctx.transmit(Dst::Broadcast, 0, vec![1]).expect("tx");
        });
        assert_eq!(w.queue_pushes(), pushes + 1, "the TxEnd, no reception");
        w.run_for(SimDuration::from_millis(1));
        // The TxEnd, three receptions, and node 1's zero-delay timer.
        assert_eq!(w.medium().stats().delivered, 3);
        assert_eq!(w.events_dispatched(), events + 1 + 3 + 1);
        assert_eq!(w.queue_pushes(), pushes + 2);
    }

    #[test]
    fn a_frame_built_in_a_recycled_buffer_carries_only_its_own_bytes() {
        /// Listens and keeps every payload it hears.
        struct Keep(Vec<Vec<u8>>);
        impl Proto for Keep {
            fn start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.radio_on().expect("radio");
            }
            fn frame(&mut self, _ctx: &mut Ctx<'_>, frame: &Frame, _info: RxInfo) {
                self.0.push(frame.payload.clone());
            }
        }
        let mut w = World::new(SimConfig::default());
        for x in [0.0, 10.0] {
            w.add_node(Pos::new(x, 0.0), Box::new(Keep(Vec::new())));
        }
        w.run_for(SimDuration::from_millis(1));
        let long = vec![0xAA; 100];
        let sent = long.clone();
        w.with(NodeId(0), |_: &mut Keep, ctx| {
            ctx.transmit(Dst::Broadcast, 0, sent).expect("tx");
        });
        w.run_for(SimDuration::from_secs(1));
        w.with(NodeId(0), |_: &mut Keep, ctx| {
            let mut buf = ctx.frame_buf();
            assert!(buf.is_empty(), "a lent buffer starts empty");
            assert!(buf.capacity() >= 100, "the long frame's buffer was lent");
            buf.extend_from_slice(&[1, 2]);
            ctx.transmit(Dst::Broadcast, 0, buf).expect("tx");
        });
        w.run_for(SimDuration::from_secs(1));
        assert_eq!(w.proto::<Keep>(NodeId(1)).0, vec![long, vec![1, 2]]);
    }

    #[test]
    fn a_refused_frame_hands_its_buffer_back_to_the_pool() {
        /// Asks for `len` bytes to be sent, expects `err`, and then
        /// expects the refused payload's buffer as the next one lent.
        fn refused(ctx: &mut Ctx<'_>, len: usize, err: RadioError) {
            assert_eq!(ctx.transmit(Dst::Broadcast, 0, vec![0; len]), Err(err));
            let buf = ctx.frame_buf();
            assert!(buf.capacity() >= len, "{err:?}: lent {buf:?}");
        }
        let mut w = World::new(SimConfig::default());
        let n = w.add_node(Pos::new(0.0, 0.0), Box::new(Idle));
        w.run_for(SimDuration::from_millis(1));
        w.with(n, |_: &mut Idle, ctx| {
            refused(ctx, 8, RadioError::Off);
            ctx.radio_on().expect("radio");
            refused(ctx, 200, RadioError::FrameTooLarge);
            ctx.transmit(Dst::Broadcast, 0, vec![1]).expect("tx");
            refused(ctx, 8, RadioError::Busy);
        });
        w.kill(n, StateLoss::Ram);
        w.with(n, |_: &mut Idle, ctx| refused(ctx, 8, RadioError::NodeDead));
    }

    #[test]
    fn expired_txid_drop_counts_per_node() {
        // A frame end whose transmission record aged out of the slab
        // is counted — the global medium stat says how many, the
        // per-node counter and its `tx_expired` event say whose — and
        // finds no reception to evaluate, recorder or not.
        for record in [false, true] {
            let mut w = World::new(SimConfig::default());
            if record {
                w.set_recorder(Box::new(crate::obs::RingRecorder::new(8)));
            }
            let _a = w.add_node(Pos::new(0.0, 0.0), Box::new(Idle));
            let b = w.add_node(Pos::new(10.0, 0.0), Box::new(Idle));
            w.run_for(SimDuration::from_millis(1));
            // A TxId no slab record ever matched (generation 7 of slot 0).
            let stale = crate::radio::TxId(7u64 << 32);
            let at = w.now() + SimDuration::from_millis(1);
            w.kernel.push(at, Ev::TxEnd { node: b, tx: stale });
            let before = w.events_dispatched();
            w.run_for(SimDuration::from_millis(2));
            assert_eq!(w.events_dispatched(), before + 1, "the TxEnd alone");
            assert_eq!(w.medium().stats().lost_expired, 1);
            assert_eq!(w.stats().get_node(b, "expired_txid"), 1.0);
            if let Some(r) = w.kernel.recorder.as_deref() {
                let ring = r.as_any().downcast_ref::<crate::obs::RingRecorder>();
                let events = ring
                    .expect("ring")
                    .events()
                    .map(|e| (e.node, e.kind.name()));
                let expired: Vec<_> = events.filter(|&(_, k)| k == "tx_expired").collect();
                assert_eq!(expired, [(b, "tx_expired")]);
            }
        }
    }
}
