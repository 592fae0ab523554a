//! The composable front door of the simulator: [`SimBuilder`] → [`Sim`].
//!
//! [`SimBuilder`] is the one place a simulation is described —
//! topology, radio, clocks and observability — and
//! [`SimBuilder::build`] yields a [`Sim`], the one handle that runs,
//! inspects and grows it; a [`FaultPlan`](crate::fault::FaultPlan)
//! faults it. A `Sim` drives one serial kernel, a
//! [`World`], on the calling thread.
//!
//! There is one way to act on a node from outside its callbacks:
//! [`Sim::with`] hands a closure the node's protocol, already downcast
//! to the type the caller names, and a live [`Ctx`]. To act *later*,
//! [`Sim::schedule_at`] queues a closure over the in-run handle
//! [`World`], whose own [`World::with`] is the same call.
//!
//! # Examples
//!
//! ```
//! use iiot_sim::prelude::*;
//! use iiot_sim::sim::SimBuilder;
//!
//! /// Broadcast one hello and count how many neighbours answer.
//! struct Hello { replies: u32 }
//!
//! impl Proto for Hello {
//!     fn start(&mut self, ctx: &mut Ctx<'_>) {
//!         ctx.radio_on().expect("radio");
//!         if ctx.id() == NodeId(0) {
//!             ctx.set_timer(SimDuration::from_millis(10), 0);
//!         }
//!     }
//!     fn timer(&mut self, ctx: &mut Ctx<'_>, _t: Timer) {
//!         ctx.transmit(Dst::Broadcast, 0, b"hi".to_vec()).expect("tx");
//!     }
//!     fn frame(&mut self, ctx: &mut Ctx<'_>, frame: &Frame, _info: RxInfo) {
//!         if frame.payload == b"hi" {
//!             ctx.transmit(Dst::Unicast(frame.src), 0, b"yo".to_vec()).ok();
//!         } else {
//!             self.replies += 1;
//!         }
//!     }
//! }
//!
//! let mut sim = SimBuilder::new()
//!     .seed(7)
//!     .nodes(Topology::line(3, 20.0), |_| Box::new(Hello { replies: 0 }))
//!     .build();
//! sim.run(SimDuration::from_secs(1));
//! // Only the immediate neighbour is in the 30 m unit-disk range.
//! assert_eq!(sim.proto::<Hello>(NodeId(0)).replies, 1);
//! ```

use crate::clock::ClockModel;
use crate::energy::EnergyUsage;
use crate::ids::NodeId;
use crate::node::{Proto, StateLoss};
use crate::obs::Recorder;
use crate::radio::{LinkModel, MediumStats};
use crate::time::{SimDuration, SimTime};
use crate::topology::Topology;
use crate::trace::Stats;
use crate::world::{Ctx, SimConfig, World};

/// Accepted and ignored: there is one kernel, the serial one.
///
/// This type and [`SimBuilder::sharding`] exist only because the
/// standalone `benchmark/` package, which is frozen, still names them;
/// the change that unfreezes it deletes both. Nothing else may call
/// them.
#[derive(Clone, Copy, Debug)]
pub struct ShardConfig(());

impl ShardConfig {
    /// The serial kernel, whatever `shards` says.
    pub fn threaded(shards: usize) -> Self {
        let _ = shards;
        ShardConfig(())
    }

    /// The serial kernel, whatever `shards` says.
    pub fn serial(shards: usize) -> Self {
        let _ = shards;
        ShardConfig(())
    }
}

/// Constructor for the protocol stack of a group's node `i`.
type ProtoFactory = Box<dyn Fn(usize) -> Box<dyn Proto>>;

/// Builder for a [`Sim`]: one composable surface for topology, radio,
/// clocks and observability. See the
/// [module docs](self) for a quickstart.
pub struct SimBuilder {
    config: SimConfig,
    groups: Vec<(Topology, ProtoFactory)>,
    recorder: Option<Box<dyn Recorder>>,
}

impl Default for SimBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl SimBuilder {
    /// A builder with the default [`SimConfig`] and no nodes.
    pub fn new() -> Self {
        SimBuilder {
            config: SimConfig::default(),
            groups: Vec::new(),
            recorder: None,
        }
    }

    /// Replaces the whole kernel configuration at once.
    pub fn config(mut self, config: SimConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the master seed; everything random derives from it.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Replaces the link model.
    pub fn link(mut self, link: LinkModel) -> Self {
        self.config.radio.link = link;
        self
    }

    /// Replaces the oscillator fault model (ideal by default).
    pub fn clock(mut self, clock: ClockModel) -> Self {
        self.config.clock = clock;
        self
    }

    /// Adds a group of nodes: one per position in `topo`, with `make(i)`
    /// building the protocol stack of the group's `i`-th node. Node ids
    /// are assigned in position order, groups in the order added.
    pub fn nodes<F>(mut self, topo: Topology, make: F) -> Self
    where
        F: Fn(usize) -> Box<dyn Proto> + 'static,
    {
        self.groups.push((topo, Box::new(make)));
        self
    }

    /// Accepts and ignores `shard`: see [`ShardConfig`], which exists
    /// only for the frozen `benchmark/` package and goes with it.
    pub fn sharding(self, shard: ShardConfig) -> Self {
        let _ = shard;
        self
    }

    /// Installs a structured-event recorder on the built sim.
    pub fn recorder(mut self, recorder: Box<dyn Recorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Builds the [`Sim`].
    pub fn build(self) -> Sim {
        let mut world = World::new(self.config);
        for (topo, make) in &self.groups {
            world.add_nodes(topo, make);
        }
        if let Some(r) = self.recorder {
            world.set_recorder(r);
        }
        Sim {
            world: Box::new(world),
        }
    }
}

/// A running simulation built by [`SimBuilder`]: control and
/// inspection over one serial kernel.
pub struct Sim {
    // Boxed: a `World` is large, and a `Sim` moves by value through
    // builders and fan-out closures.
    world: Box<World>,
}

impl Sim {
    /// Advances the simulation by `d`.
    pub fn run(&mut self, d: SimDuration) {
        self.run_until(self.now() + d);
    }

    /// Alias of [`run`](Self::run).
    pub fn run_for(&mut self, d: SimDuration) {
        self.run(d);
    }

    /// Advances the simulation to `deadline`, inclusive of events at
    /// `deadline`; afterwards `now() == deadline`. A deadline before
    /// `now()` is a no-op instead, leaving `now()` where it was: the
    /// clock never runs backwards.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.world.run_until(deadline);
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.world.now()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.world.node_count()
    }

    /// Events dispatched so far: one per node start, timer, wire
    /// message, scheduled action and frame end, plus one per candidate
    /// reception evaluated — the simulator's unit of work, not its queue
    /// pops (see [`Sim::queue_pushes`]).
    pub fn events_dispatched(&self) -> u64 {
        self.world.events_dispatched()
    }

    /// How many transmission records the radio medium has examined so
    /// far — retiring old ones, sensing carriers, checking receptions
    /// for collisions. A deterministic measure of what the medium
    /// *costs*, where [`Sim::medium_stats`] says what it *did*: per
    /// transmission it should depend on how many nodes are in radio
    /// range, not on how many the deployment holds.
    pub fn air_visits(&self) -> u64 {
        self.world.medium().air_visits()
    }

    /// How many entries the kernel has pushed onto its event queue so
    /// far. The deterministic measure of what the *queue* costs, as
    /// [`Sim::air_visits`] is of the medium: a frame is one entry
    /// however many receptions [`Sim::events_dispatched`] counts for it.
    pub fn queue_pushes(&self) -> u64 {
        self.world.queue_pushes()
    }

    /// How many of [`Sim::queue_pushes`] landed beyond the event queue's
    /// horizon. The queue is a calendar (see the [`queue`](crate::queue)
    /// module docs for its bucket width and horizon): a push due within
    /// the horizon is filed in its bucket's list at constant cost, and
    /// one due later *spills* into an overflow heap, paying a heap push
    /// and pop and a move into the ring when the horizon reaches it.
    /// Spills per push is the deterministic measure of how well the
    /// buckets fit the workload's timer delays.
    pub fn queue_spills(&self) -> u64 {
        self.world.queue_spills()
    }

    /// Experiment statistics.
    pub fn stats(&self) -> &Stats {
        self.world.stats()
    }

    /// Medium-level delivery statistics.
    pub fn medium_stats(&self) -> MediumStats {
        self.world.medium().stats()
    }

    /// Energy usage of `node` so far.
    pub fn energy(&self, node: NodeId) -> EnergyUsage {
        self.world.energy(node)
    }

    /// Whether `node` is currently alive.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.world.is_alive(node)
    }

    /// `node`'s protocol downcast to `T`; panics on a type mismatch.
    pub fn proto<T: Proto>(&self, node: NodeId) -> &T {
        self.world.proto(node)
    }

    /// `node`'s protocol downcast to a mutable `T`, for state that
    /// needs no [`Ctx`] (queueing work a protocol picks up on its next
    /// callback); panics on a type mismatch.
    pub fn proto_mut<T: Proto>(&mut self, node: NodeId) -> &mut T {
        self.world.proto_mut(node)
    }

    /// `node`'s drifting local clock reading at the current time.
    pub fn local_time_of(&mut self, node: NodeId) -> SimTime {
        self.world.local_time_of(node)
    }

    /// Runs `f` with `node`'s protocol, downcast to `T`, and a live
    /// [`Ctx`], outside any event dispatch: `sim.with(gw, |n: &mut Node,
    /// ctx| n.install(ctx, &img))`.
    ///
    /// # Panics
    ///
    /// Panics, naming `T`, if the protocol of `node` is not a `T`.
    pub fn with<T: Proto, R>(
        &mut self,
        node: NodeId,
        f: impl FnOnce(&mut T, &mut Ctx<'_>) -> R,
    ) -> R {
        self.world.with(node, f)
    }

    /// Schedules `f` to run against the [`World`] at `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn schedule_at(&mut self, at: SimTime, f: impl FnOnce(&mut World) + 'static) {
        self.world.schedule(at, f);
    }

    /// Adds one node per position in `topo` to the running simulation,
    /// `make(i)` building the protocol stack of the `i`-th; each boots
    /// through [`Proto::start`] at the current time. Returns the new
    /// ids, which continue the existing numbering.
    pub fn add_nodes<F>(&mut self, topo: Topology, make: F) -> Vec<NodeId>
    where
        F: Fn(usize) -> Box<dyn Proto> + 'static,
    {
        self.world.add_nodes(&topo, make)
    }

    /// Crashes `node` immediately, between two runs, unless it is down
    /// already: radio off, pending behaviour stops, volatile protocol
    /// state is cleared via [`Proto::crashed`]. To crash at a time, or
    /// to wipe flash too, apply a [`FaultPlan`](crate::fault::FaultPlan).
    pub fn kill(&mut self, node: NodeId) {
        if self.is_alive(node) {
            self.world.kill(node, StateLoss::Ram);
        }
    }

    /// Revives a dead `node` immediately, ending every outage it has,
    /// planned ones included: it boots again through [`Proto::start`].
    pub fn revive(&mut self, node: NodeId) {
        while !self.is_alive(node) {
            self.world.revive(node);
        }
    }

    /// Installs a structured-event recorder.
    pub fn set_recorder(&mut self, recorder: Box<dyn Recorder>) {
        self.world.set_recorder(recorder);
    }

    /// Removes and returns the recorder.
    pub fn take_recorder(&mut self) -> Option<Box<dyn Recorder>> {
        self.world.take_recorder()
    }

    /// The recorder downcast to `T`.
    pub fn recorder_as<T: Recorder>(&self) -> Option<&T> {
        self.world.recorder_as::<T>()
    }
}
