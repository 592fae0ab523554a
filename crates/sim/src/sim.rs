//! The composable front door of the simulator: [`SimBuilder`] → [`Sim`].
//!
//! [`SimBuilder`] is the one place a simulation is described —
//! topology, radio, clocks, crash policy, observability and
//! [`ShardConfig`] — and [`SimBuilder::build`] yields a [`Sim`], the one
//! handle that runs, inspects, grows and faults it, whether the kernel
//! executes on one thread or on one worker per shard.
//!
//! With `shards = 1` (the default) a [`Sim`] drives the classic serial
//! kernel — byte-identical schedules, RNG streams and traces. With
//! `shards = k ≥ 2` the nodes are partitioned into `k` spatial stripes
//! advanced by the conservative-lookahead engine (see the `shard`
//! module's docs for the synchronization protocol and its semantics).
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
use crate::energy::{EnergyModel, EnergyUsage};
use crate::ids::NodeId;
use crate::node::{Proto, StateLoss};
use crate::obs::Recorder;
use crate::radio::{LinkModel, MediumStats, RadioConfig};
use crate::shard::{EngineOp, ProtoFactory, ShardEngine, MAX_SHARDS};
use crate::time::{SimDuration, SimTime};
use crate::topology::Topology;
use crate::trace::Stats;
use crate::world::{Ctx, FaultOp, SimConfig, World};

/// How a [`Sim`] is split across worker threads.
///
/// `shards = 1` (the default) runs the classic serial kernel,
/// byte-identical to pre-sharding builds. `shards = k ≥ 2` partitions
/// the deployment into `k` spatial stripes synchronized at
/// conservative-lookahead barriers; the result is deterministic in
/// `(workload, seed, k)` and independent of `serial`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardConfig {
    /// Number of shards (1 = serial kernel, max 64).
    pub shards: usize,
    /// Drive shard windows from the calling thread instead of one
    /// worker thread per shard. Same results either way; useful for
    /// debugging, for the equivalence tests, and on single-core
    /// machines, where extra threads would only add scheduling
    /// overhead.
    pub serial: bool,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            shards: 1,
            serial: false,
        }
    }
}

impl ShardConfig {
    /// A config running `shards` threaded shards.
    pub fn threaded(shards: usize) -> Self {
        ShardConfig {
            shards,
            serial: false,
        }
    }

    /// A config running `shards` shards serially on the calling thread.
    pub fn serial(shards: usize) -> Self {
        ShardConfig {
            shards,
            serial: true,
        }
    }
}

/// One node group: a topology plus the factory that builds each node's
/// protocol stack.
type Group = (Topology, ProtoFactory);

/// Builder for a [`Sim`]: one composable surface for topology, radio,
/// clocks, energy, faults, observability and sharding. See the
/// [module docs](self) for a quickstart.
pub struct SimBuilder {
    config: SimConfig,
    groups: Vec<Group>,
    shard: ShardConfig,
    state_loss: Option<StateLoss>,
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
            shard: ShardConfig::default(),
            state_loss: None,
            recorder: None,
        }
    }

    /// Replaces the whole kernel configuration at once.
    pub fn config(mut self, config: SimConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the master seed (see [`SimConfig::seed`]).
    pub fn seed(mut self, seed: u64) -> Self {
        self.config = self.config.seed(seed);
        self
    }

    /// Sets a unit-disk radio range in meters (see [`SimConfig::radius`]).
    pub fn radius(mut self, range: f64) -> Self {
        self.config = self.config.radius(range);
        self
    }

    /// Sets the link model (see [`SimConfig::link`]).
    pub fn link(mut self, link: LinkModel) -> Self {
        self.config = self.config.link(link);
        self
    }

    /// Replaces the radio configuration (see [`SimConfig::radio`]).
    pub fn radio(mut self, radio: RadioConfig) -> Self {
        self.config = self.config.radio(radio);
        self
    }

    /// Replaces the energy model (see [`SimConfig::energy`]).
    pub fn energy(mut self, energy: EnergyModel) -> Self {
        self.config = self.config.energy(energy);
        self
    }

    /// Sets the backhaul latency (see [`SimConfig::wire_latency`]).
    pub fn wire_latency(mut self, latency: SimDuration) -> Self {
        self.config = self.config.wire_latency(latency);
        self
    }

    /// Sets the oscillator model (see [`SimConfig::clock`]).
    pub fn clock(mut self, clock: ClockModel) -> Self {
        self.config = self.config.clock(clock);
        self
    }

    /// Adds a group of nodes: one per position in `topo`, with `make(i)`
    /// building the protocol stack of the group's `i`-th node. Node ids
    /// are assigned in position order, groups in the order added.
    ///
    /// The factory must be pure (same `i` → same protocol): sharded
    /// builds call it once per shard replica.
    pub fn nodes<F>(mut self, topo: Topology, make: F) -> Self
    where
        F: Fn(usize) -> Box<dyn Proto> + Send + Sync + 'static,
    {
        self.groups.push((topo, Box::new(make)));
        self
    }

    /// Configures sharded execution (see [`ShardConfig`]).
    pub fn sharding(mut self, shard: ShardConfig) -> Self {
        self.shard = shard;
        self
    }

    /// Shorthand for [`sharding`](Self::sharding) with `shards` threaded
    /// shards.
    pub fn shards(self, shards: usize) -> Self {
        self.sharding(ShardConfig::threaded(shards))
    }

    /// Sets what crashed nodes lose (see [`StateLoss`]).
    pub fn state_loss(mut self, loss: StateLoss) -> Self {
        self.state_loss = Some(loss);
        self
    }

    /// Installs a structured-event recorder on the built sim.
    pub fn recorder(mut self, recorder: Box<dyn Recorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Builds the [`Sim`].
    ///
    /// # Panics
    ///
    /// Panics when `shards` is 0 or exceeds 64, or when a sharded build
    /// has a zero minimum frame airtime or wire latency (the lookahead
    /// would be empty).
    pub fn build(self) -> Sim {
        let SimBuilder {
            config,
            groups,
            shard,
            state_loss,
            recorder,
        } = self;
        assert!(
            (1..=MAX_SHARDS).contains(&shard.shards),
            "shard count must be in 1..={MAX_SHARDS}"
        );
        let mut inner = if shard.shards == 1 {
            let mut world = World::new(config);
            for (topo, make) in &groups {
                world.add_nodes(topo, make);
            }
            Inner::Single(Box::new(world))
        } else {
            Inner::Sharded(Box::new(ShardEngine::new(
                config,
                &groups,
                shard.shards,
                shard.serial,
            )))
        };
        if let Some(loss) = state_loss {
            match &mut inner {
                Inner::Single(w) => w.set_state_loss(loss),
                Inner::Sharded(e) => e.set_state_loss(loss),
            }
        }
        let mut sim = Sim { inner };
        if let Some(r) = recorder {
            sim.set_recorder(r);
        }
        sim
    }
}

enum Inner {
    // Both variants boxed: a serial World is ~1 kB and the shard
    // engine a few hundred bytes, while Sim moves by value through
    // builders and fan-out closures.
    Single(Box<World>),
    Sharded(Box<ShardEngine>),
}

/// A running simulation built by [`SimBuilder`]: the same control,
/// inspection and fault-injection API over the serial kernel
/// (`shards = 1`) and the sharded engine (`shards ≥ 2`).
pub struct Sim {
    inner: Inner,
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
    /// `deadline`; afterwards `now() == deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        match &mut self.inner {
            Inner::Single(w) => w.run_until(deadline),
            Inner::Sharded(e) => e.run_until(deadline),
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        match &self.inner {
            Inner::Single(w) => w.now(),
            Inner::Sharded(e) => e.now(),
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        match &self.inner {
            Inner::Single(w) => w.node_count(),
            Inner::Sharded(e) => e.node_count(),
        }
    }

    /// Number of shards (1 for the serial kernel).
    pub fn shards(&self) -> usize {
        match &self.inner {
            Inner::Single(_) => 1,
            Inner::Sharded(e) => e.shard_count(),
        }
    }

    /// Events dispatched so far, summed across shards: one per node
    /// start, timer, wire message, scheduled action and frame end, plus
    /// one per candidate reception evaluated — the simulator's unit of
    /// work, not its heap pops (see [`Sim::queue_pushes`]).
    pub fn events_dispatched(&self) -> u64 {
        match &self.inner {
            Inner::Single(w) => w.events_dispatched(),
            Inner::Sharded(e) => e.events_dispatched(),
        }
    }

    /// How many transmission records the radio medium has examined so
    /// far — retiring old ones, sensing carriers, checking receptions
    /// for collisions — summed across shards. A deterministic measure
    /// of what the medium *costs*, where [`Sim::medium_stats`] says what
    /// it *did*: per transmission it should depend on how many nodes
    /// are in radio range, not on how many the deployment holds.
    pub fn air_visits(&self) -> u64 {
        match &self.inner {
            Inner::Single(w) => w.medium().air_visits(),
            Inner::Sharded(e) => e.air_visits(),
        }
    }

    /// How many entries the kernel has pushed onto its event heap so
    /// far, summed across shards (an event staged for another shard
    /// counts where it is queued, not where it is staged). The
    /// deterministic measure of what the *queue* costs, as
    /// [`Sim::air_visits`] is of the medium: a frame is one entry
    /// however many receptions [`Sim::events_dispatched`] counts for it.
    pub fn queue_pushes(&self) -> u64 {
        match &self.inner {
            Inner::Single(w) => w.queue_pushes(),
            Inner::Sharded(e) => e.queue_pushes(),
        }
    }

    /// Experiment statistics (merged across shards in shard order).
    pub fn stats(&self) -> &Stats {
        match &self.inner {
            Inner::Single(w) => w.stats(),
            Inner::Sharded(e) => e.stats(),
        }
    }

    /// Medium-level delivery statistics (summed across shards).
    pub fn medium_stats(&self) -> MediumStats {
        match &self.inner {
            Inner::Single(w) => w.medium().stats(),
            Inner::Sharded(e) => e.medium_stats(),
        }
    }

    /// Energy usage of `node` so far.
    pub fn energy(&self, node: NodeId) -> EnergyUsage {
        match &self.inner {
            Inner::Single(w) => w.energy(node),
            Inner::Sharded(e) => e.owner_world(node).energy(node),
        }
    }

    /// The energy model in force.
    pub fn energy_model(&self) -> &EnergyModel {
        match &self.inner {
            Inner::Single(w) => w.energy_model(),
            Inner::Sharded(e) => e.owner_world(NodeId(0)).energy_model(),
        }
    }

    /// Whether `node` is currently alive.
    pub fn is_alive(&self, node: NodeId) -> bool {
        match &self.inner {
            Inner::Single(w) => w.is_alive(node),
            Inner::Sharded(e) => e.owner_world(node).is_alive(node),
        }
    }

    /// `node`'s protocol downcast to `T`; panics on a type mismatch.
    pub fn proto<T: Proto>(&self, node: NodeId) -> &T {
        match &self.inner {
            Inner::Single(w) => w.proto(node),
            Inner::Sharded(e) => e.owner_world(node).proto(node),
        }
    }

    /// `node`'s protocol downcast to a mutable `T`, for state that
    /// needs no [`Ctx`] (queueing work a protocol picks up on its next
    /// callback); panics on a type mismatch.
    pub fn proto_mut<T: Proto>(&mut self, node: NodeId) -> &mut T {
        match &mut self.inner {
            Inner::Single(w) => w.proto_mut(node),
            Inner::Sharded(e) => e.owner_world_mut(node).proto_mut(node),
        }
    }

    /// `node`'s drifting local clock reading at the current time.
    pub fn local_time_of(&mut self, node: NodeId) -> SimTime {
        match &mut self.inner {
            Inner::Single(w) => w.local_time_of(node),
            Inner::Sharded(e) => e.owner_world_mut(node).local_time_of(node),
        }
    }

    /// Runs `f` with `node`'s protocol, downcast to `T`, and a live
    /// [`Ctx`], outside any event dispatch: `sim.with(gw, |n: &mut Node,
    /// ctx| n.install(ctx, &img))`. On a sharded sim the owning replica
    /// runs it and whatever it sent is exchanged before `with` returns.
    ///
    /// # Panics
    ///
    /// Panics, naming `T`, if the protocol of `node` is not a `T`.
    pub fn with<T: Proto, R>(
        &mut self,
        node: NodeId,
        f: impl FnOnce(&mut T, &mut Ctx<'_>) -> R,
    ) -> R {
        match &mut self.inner {
            Inner::Single(w) => w.with(node, f),
            Inner::Sharded(e) => {
                let r = e.owner_world_mut(node).with(node, f);
                e.sync();
                r
            }
        }
    }

    /// Schedules `f` to run against `node`'s [`World`] at `at`. Under
    /// sharding the closure sees the owning shard's replica.
    pub fn schedule_at(
        &mut self,
        at: SimTime,
        node: NodeId,
        f: impl FnOnce(&mut World) + Send + 'static,
    ) {
        match &mut self.inner {
            Inner::Single(w) => w.schedule(at, f),
            Inner::Sharded(e) => e.schedule_closure(at, node, Box::new(f)),
        }
    }

    /// Adds one node per position in `topo` to the running simulation,
    /// `make(i)` building the protocol stack of the `i`-th; each boots
    /// through [`Proto::start`] at the current time. Returns the new
    /// ids, which continue the existing numbering. The factory must be
    /// pure, as for [`SimBuilder::nodes`].
    pub fn add_nodes<F>(&mut self, topo: Topology, make: F) -> Vec<NodeId>
    where
        F: Fn(usize) -> Box<dyn Proto> + Send + Sync + 'static,
    {
        match &mut self.inner {
            Inner::Single(w) => w.add_nodes(&topo, make),
            Inner::Sharded(e) => e.add_nodes(&topo, make),
        }
    }

    fn fault(&mut self, op: FaultOp) {
        match &mut self.inner {
            Inner::Single(w) => w.apply_fault(&op, true),
            Inner::Sharded(e) => e.apply_fault(&op),
        }
    }

    fn fault_at(&mut self, at: SimTime, op: FaultOp) {
        match &mut self.inner {
            Inner::Single(w) => w.schedule_fault(at, op),
            Inner::Sharded(e) => e.schedule_op(at, EngineOp::Fault(op)),
        }
    }

    /// Crashes `node` immediately: radio off, pending behaviour stops,
    /// volatile protocol state is cleared via [`Proto::crashed`] (or,
    /// under [`StateLoss::Full`], everything via [`Proto::wiped`]).
    pub fn kill(&mut self, node: NodeId) {
        self.fault(FaultOp::Kill(node));
    }

    /// Revives a dead `node` immediately: it boots again through
    /// [`Proto::start`].
    pub fn revive(&mut self, node: NodeId) {
        self.fault(FaultOp::Revive(node));
    }

    /// Schedules a crash of `node` at `at`.
    pub fn kill_at(&mut self, at: SimTime, node: NodeId) {
        self.fault_at(at, FaultOp::Kill(node));
    }

    /// Schedules a revival of `node` at `at`.
    pub fn revive_at(&mut self, at: SimTime, node: NodeId) {
        self.fault_at(at, FaultOp::Revive(node));
    }

    /// Severs the bidirectional `a`–`b` link.
    pub fn block_link(&mut self, a: NodeId, b: NodeId) {
        self.fault(FaultOp::BlockLink(a, b));
    }

    /// Restores the `a`–`b` link.
    pub fn unblock_link(&mut self, a: NodeId, b: NodeId) {
        self.fault(FaultOp::UnblockLink(a, b));
    }

    /// Schedules the `a`–`b` link to fail at `at`.
    pub fn block_link_at(&mut self, at: SimTime, a: NodeId, b: NodeId) {
        self.fault_at(at, FaultOp::BlockLink(a, b));
    }

    /// Schedules the `a`–`b` link to heal at `at`.
    pub fn unblock_link_at(&mut self, at: SimTime, a: NodeId, b: NodeId) {
        self.fault_at(at, FaultOp::UnblockLink(a, b));
    }

    /// Enables or disables the administrative partition: while enabled,
    /// nodes in different groups cannot hear each other.
    pub fn set_partitioned(&mut self, on: bool) {
        self.fault(if on {
            FaultOp::Partition(Vec::new())
        } else {
            FaultOp::Heal
        });
    }

    /// Assigns `node` to partition `group`.
    pub fn set_group(&mut self, node: NodeId, group: u16) {
        self.fault(FaultOp::SetGroup(node, group));
    }

    /// Schedules a partition at `at`: node `i` joins `groups[i]` (nodes
    /// beyond the list keep their group) and cross-group communication
    /// stops until [`heal_at`](Self::heal_at).
    pub fn partition_at(&mut self, at: SimTime, groups: Vec<u16>) {
        self.fault_at(at, FaultOp::Partition(groups));
    }

    /// Schedules the partition to heal at `at`.
    pub fn heal_at(&mut self, at: SimTime) {
        self.fault_at(at, FaultOp::Heal);
    }

    /// Sets what crashed nodes lose (see [`StateLoss`]).
    pub fn set_state_loss(&mut self, loss: StateLoss) {
        match &mut self.inner {
            Inner::Single(w) => w.set_state_loss(loss),
            Inner::Sharded(e) => e.set_state_loss(loss),
        }
    }

    /// Installs a structured-event recorder.
    pub fn set_recorder(&mut self, recorder: Box<dyn Recorder>) {
        match &mut self.inner {
            Inner::Single(w) => w.set_recorder(recorder),
            Inner::Sharded(e) => e.set_recorder(recorder),
        }
    }

    /// Removes and returns the recorder, flushing buffered events.
    pub fn take_recorder(&mut self) -> Option<Box<dyn Recorder>> {
        match &mut self.inner {
            Inner::Single(w) => w.take_recorder(),
            Inner::Sharded(e) => e.take_recorder(),
        }
    }

    /// The recorder downcast to `T`.
    pub fn recorder_as<T: Recorder>(&self) -> Option<&T> {
        match &self.inner {
            Inner::Single(w) => w.recorder_as::<T>(),
            Inner::Sharded(e) => e.recorder_as::<T>(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shards_replaces_the_whole_shard_config() {
        let b = SimBuilder::new().sharding(ShardConfig::serial(2)).shards(3);
        assert_eq!(b.shard, ShardConfig::threaded(3));
    }
}
