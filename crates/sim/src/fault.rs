//! Fault injection plans: declarative schedules of crashes, recoveries,
//! link failures and partitions applied to a [`Sim`].
//!
//! A [`FaultPlan`] is the one way to schedule a fault:
//! [`FaultPlan::apply`] queues each of its faults on the world's own
//! fault operations, and each shows up once as a structured `Fault`
//! event in traces. Only [`Sim::kill`] and [`Sim::revive`] act outside
//! a plan, immediately, between two runs.
//!
//! Faults that overlap nest: a node is down while any of its outages
//! lasts, a link is cut while any of its cuts lasts, and two nodes are
//! partitioned while any active partition separates them.
//!
//! # Examples
//!
//! One plan crashes node 1 keeping its flash and wipes node 2:
//!
//! ```
//! use iiot_sim::prelude::*;
//! use iiot_sim::{Fault, FaultPlan};
//!
//! let mut sim = SimBuilder::new()
//!     .nodes(Topology::line(3, 10.0), |_| Box::new(Idle))
//!     .build();
//! let mut plan = FaultPlan::new();
//! for (node, loss) in [(NodeId(1), StateLoss::Ram), (NodeId(2), StateLoss::Full)] {
//!     plan.push(Fault::CrashRecover {
//!         node,
//!         at: SimTime::from_secs(1),
//!         down_for: SimDuration::from_secs(2),
//!         loss,
//!     });
//! }
//! plan.apply(&mut sim).expect("both nodes exist");
//! sim.run_until(SimTime::from_secs(2));
//! assert!(!sim.is_alive(NodeId(1)) && !sim.is_alive(NodeId(2)));
//! sim.run_until(SimTime::from_secs(3));
//! assert!(sim.is_alive(NodeId(1)) && sim.is_alive(NodeId(2)));
//! ```

use crate::ids::NodeId;
use crate::node::StateLoss;
use crate::sim::Sim;
use crate::time::{SimDuration, SimTime};
use rand::Rng;
use std::fmt;

/// One scheduled fault.
#[derive(Clone, Debug, PartialEq)]
pub enum Fault {
    /// Node crashes permanently at `at`, losing its RAM
    /// ([`Proto::crashed`](crate::Proto::crashed)).
    Crash {
        /// Victim.
        node: NodeId,
        /// Crash time.
        at: SimTime,
    },
    /// Node crashes at `at`, losing what `loss` says, and recovers
    /// `down_for` later. The trace labels the crash `crash` under
    /// [`StateLoss::Ram`] and `crash_wipe` under [`StateLoss::Full`].
    CrashRecover {
        /// Victim.
        node: NodeId,
        /// Crash time.
        at: SimTime,
        /// Outage duration.
        down_for: SimDuration,
        /// What the crash loses: RAM only, or flash too.
        loss: StateLoss,
    },
    /// The link between two nodes fails at `at` (optionally healing).
    LinkDown {
        /// One endpoint.
        a: NodeId,
        /// Other endpoint.
        b: NodeId,
        /// Failure time.
        at: SimTime,
        /// Heal time, if any.
        heal_at: Option<SimTime>,
    },
    /// A network partition: node `i` joins `groups[i]` (nodes beyond
    /// the list join group 0) and cross-group communication stops
    /// between `at` and `heal_at`.
    Partition {
        /// Group of each node (by node index).
        groups: Vec<u16>,
        /// Partition start.
        at: SimTime,
        /// Partition end.
        heal_at: SimTime,
    },
}

/// Why [`FaultPlan::apply`] refused a plan.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultError {
    /// A fault names a node the sim does not hold.
    NoSuchNode {
        /// The node named.
        node: NodeId,
        /// Nodes the sim holds.
        nodes: usize,
    },
    /// A partition assigns groups to more nodes than the sim holds.
    TooManyGroups {
        /// Length of the group list.
        groups: usize,
        /// Nodes the sim holds.
        nodes: usize,
    },
    /// A fault starts before the sim's current time.
    InThePast {
        /// The instant.
        at: SimTime,
        /// The sim's current time.
        now: SimTime,
    },
    /// A fault heals before it starts.
    HealsBeforeStart {
        /// Start.
        at: SimTime,
        /// Heal.
        heal_at: SimTime,
    },
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::NoSuchNode { node, nodes } => {
                write!(f, "fault names {node}, but the sim holds {nodes} nodes")
            }
            FaultError::TooManyGroups { groups, nodes } => {
                write!(
                    f,
                    "partition groups {groups} nodes, but the sim holds {nodes}"
                )
            }
            FaultError::InThePast { at, now } => {
                write!(f, "fault at {at:?} is before the current time {now:?}")
            }
            FaultError::HealsBeforeStart { at, heal_at } => {
                write!(f, "fault starting at {at:?} heals at {heal_at:?}")
            }
        }
    }
}

impl std::error::Error for FaultError {}

/// An ordered set of faults to apply to a [`Sim`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a fault.
    pub fn push(&mut self, fault: Fault) -> &mut Self {
        self.faults.push(fault);
        self
    }

    /// The scheduled faults.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Generates random crash-recovery churn: each of `nodes`
    /// independently crashes with exponential inter-arrival times of
    /// mean `mtbf` and recovers after `mttr`, within `[start, horizon]`.
    /// Each crash loses RAM only.
    pub fn random_churn<R: Rng>(
        rng: &mut R,
        nodes: &[NodeId],
        mtbf: SimDuration,
        mttr: SimDuration,
        start: SimTime,
        horizon: SimTime,
    ) -> Self {
        let mut plan = FaultPlan::new();
        for &node in nodes {
            let mut t = start;
            loop {
                // Exponential(mean = mtbf) inter-arrival.
                let u: f64 = rng.gen_range(1e-12..1.0);
                let gap = SimDuration::from_secs_f64(-u.ln() * mtbf.as_secs_f64());
                t = t.saturating_add(gap);
                if t >= horizon {
                    break;
                }
                plan.push(Fault::CrashRecover {
                    node,
                    at: t,
                    down_for: mttr,
                    loss: StateLoss::Ram,
                });
                t = t.saturating_add(mttr);
            }
        }
        plan
    }

    /// Number of scheduled fault events.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Schedules every fault on `sim`, in plan order, through the
    /// world's fault operations: each shows up once as a structured
    /// `Fault` event in traces.
    ///
    /// # Errors
    ///
    /// Refuses the whole plan, queuing nothing, if a fault names a node
    /// the sim does not hold, groups more nodes than it holds, starts
    /// or ends before its current time, or heals before it starts.
    pub fn apply(&self, sim: &mut Sim) -> Result<(), FaultError> {
        for f in &self.faults {
            check(f, sim)?;
        }
        for f in &self.faults {
            match f.clone() {
                Fault::Crash { node, at } => {
                    sim.schedule_at(at, move |w| w.kill(node, StateLoss::Ram));
                }
                Fault::CrashRecover {
                    node,
                    at,
                    down_for,
                    loss,
                } => {
                    sim.schedule_at(at, move |w| w.kill(node, loss));
                    sim.schedule_at(at + down_for, move |w| w.revive(node));
                }
                Fault::LinkDown { a, b, at, heal_at } => {
                    sim.schedule_at(at, move |w| w.block_link(a, b));
                    if let Some(h) = heal_at {
                        sim.schedule_at(h, move |w| w.unblock_link(a, b));
                    }
                }
                Fault::Partition {
                    groups,
                    at,
                    heal_at,
                } => {
                    let healed = groups.clone();
                    sim.schedule_at(at, move |w| w.partition(groups));
                    sim.schedule_at(heal_at, move |w| w.heal(&healed));
                }
            }
        }
        Ok(())
    }
}

/// Checks one fault's targets and instants against `sim`.
fn check(fault: &Fault, sim: &Sim) -> Result<(), FaultError> {
    let nodes = sim.node_count();
    let (named, at, heal_at): (&[NodeId], SimTime, Option<SimTime>) = match fault {
        Fault::Crash { node, at } => (std::slice::from_ref(node), *at, None),
        Fault::CrashRecover {
            node, at, down_for, ..
        } => (std::slice::from_ref(node), *at, Some(*at + *down_for)),
        Fault::LinkDown { a, b, at, heal_at } => (&[*a, *b], *at, *heal_at),
        Fault::Partition {
            groups,
            at,
            heal_at,
        } => {
            if groups.len() > nodes {
                return Err(FaultError::TooManyGroups {
                    groups: groups.len(),
                    nodes,
                });
            }
            (&[], *at, Some(*heal_at))
        }
    };
    if let Some(&node) = named.iter().find(|n| n.index() >= nodes) {
        return Err(FaultError::NoSuchNode { node, nodes });
    }
    let now = sim.now();
    if at < now {
        return Err(FaultError::InThePast { at, now });
    }
    match heal_at {
        Some(heal_at) if heal_at < at => Err(FaultError::HealsBeforeStart { at, heal_at }),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::{JsonlRecorder, RingRecorder};
    use crate::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn idle_world(n: usize) -> Sim {
        SimBuilder::new()
            .nodes(Topology::line(n, 10.0), |_| Box::new(Idle))
            .build()
    }

    #[test]
    fn crash_and_recover_applied() {
        let mut w = idle_world(2);
        let mut plan = FaultPlan::new();
        plan.push(Fault::CrashRecover {
            node: NodeId(1),
            at: SimTime::from_secs(1),
            down_for: SimDuration::from_secs(2),
            loss: StateLoss::Ram,
        });
        plan.apply(&mut w).expect("fault plan fits the sim");
        w.run_until(SimTime::from_secs(2));
        assert!(!w.is_alive(NodeId(1)));
        w.run_until(SimTime::from_secs(4));
        assert!(w.is_alive(NodeId(1)));
    }

    /// Records which crash callback ran.
    #[derive(Default)]
    struct Probe {
        crashes: u32,
        wipes: u32,
    }
    impl Proto for Probe {
        fn start(&mut self, _ctx: &mut Ctx<'_>) {}
        fn crashed(&mut self) {
            self.crashes += 1;
        }
        fn wiped(&mut self) {
            self.wipes += 1;
        }
    }

    fn probes(n: usize) -> Sim {
        SimBuilder::new()
            .nodes(Topology::line(n, 10.0), |_| Box::new(Probe::default()))
            .build()
    }

    fn bounce(node: NodeId, loss: StateLoss) -> Fault {
        Fault::CrashRecover {
            node,
            at: SimTime::from_secs(1),
            down_for: SimDuration::from_secs(1),
            loss,
        }
    }

    #[test]
    fn state_loss_policy_reaches_the_protocol() {
        let run = |loss| {
            let mut w = probes(1);
            let n = NodeId(0);
            FaultPlan::new()
                .push(bounce(n, loss))
                .apply(&mut w)
                .expect("fault plan fits the sim");
            w.run_until(SimTime::from_secs(3));
            let p = w.proto::<Probe>(n);
            (p.crashes, p.wipes)
        };
        assert_eq!(run(StateLoss::Ram), (1, 0));
        assert_eq!(run(StateLoss::Full), (0, 1));
    }

    #[test]
    fn one_plan_crashes_one_node_and_wipes_another() {
        let mut w = probes(2);
        w.set_recorder(Box::new(RingRecorder::new(8)));
        let mut plan = FaultPlan::new();
        plan.push(bounce(NodeId(0), StateLoss::Ram));
        plan.push(bounce(NodeId(1), StateLoss::Full));
        plan.apply(&mut w).expect("fault plan fits the sim");
        w.run_until(SimTime::from_secs(3));
        let calls = |n| {
            let p = w.proto::<Probe>(NodeId(n));
            (p.crashes, p.wipes)
        };
        assert_eq!(calls(0), (1, 0), "node 0 crashed, flash kept");
        assert_eq!(calls(1), (0, 1), "node 1 wiped");
        let faults: Vec<_> = w
            .recorder_as::<RingRecorder>()
            .expect("ring")
            .events()
            .filter_map(|e| match e.kind {
                EventKind::Fault { kind, .. } => Some((e.node, kind)),
                _ => None,
            })
            .collect();
        assert_eq!(
            faults,
            [
                (NodeId(0), "crash"),
                (NodeId(1), "crash_wipe"),
                (NodeId(0), "recover"),
                (NodeId(1), "recover"),
            ]
        );
    }

    #[test]
    fn permanent_crash() {
        let mut w = idle_world(1);
        let mut plan = FaultPlan::new();
        plan.push(Fault::Crash {
            node: NodeId(0),
            at: SimTime::from_secs(1),
        });
        plan.apply(&mut w).expect("fault plan fits the sim");
        w.run_until(SimTime::from_secs(10));
        assert!(!w.is_alive(NodeId(0)));
    }

    #[test]
    fn partition_window() {
        let mut w = idle_world(4);
        w.set_recorder(Box::new(RingRecorder::new(8)));
        let mut plan = FaultPlan::new();
        plan.push(Fault::Partition {
            groups: vec![0, 0, 1, 1],
            at: SimTime::from_secs(1),
            heal_at: SimTime::from_secs(5),
        });
        plan.apply(&mut w).expect("fault plan fits the sim");
        w.run_until(SimTime::from_secs(6));
        let faults: Vec<_> = w
            .recorder_as::<RingRecorder>()
            .expect("ring")
            .events()
            .filter_map(|e| match e.kind {
                EventKind::Fault { kind, .. } => Some((e.t, kind)),
                _ => None,
            })
            .collect();
        assert_eq!(
            faults,
            [
                (SimTime::from_secs(1), "partition"),
                (SimTime::from_secs(5), "heal")
            ]
        );
    }

    /// Every node beacons ten times a second and logs who it heard when.
    #[derive(Default)]
    struct Beacon {
        heard: Vec<(SimTime, NodeId)>,
    }
    impl Proto for Beacon {
        fn start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.radio_on().expect("radio");
            ctx.set_timer(SimDuration::from_millis(10 + 20 * ctx.id().0 as u64), 0);
        }
        fn timer(&mut self, ctx: &mut Ctx<'_>, _t: Timer) {
            ctx.transmit(Dst::Broadcast, 0, vec![0; 8]).ok();
            ctx.set_timer(SimDuration::from_millis(100), 0);
        }
        fn frame(&mut self, ctx: &mut Ctx<'_>, frame: &Frame, _info: RxInfo) {
            self.heard.push((ctx.now(), frame.src));
        }
        fn crashed(&mut self) {}
    }

    /// Nodes 0, 1, 2, 3 on a 20 m line: each hears its neighbours only.
    fn beacon_line() -> Sim {
        SimBuilder::new()
            .seed(11)
            .nodes(Topology::line(4, 20.0), |_| Box::new(Beacon::default()))
            .recorder(Box::new(JsonlRecorder::new(Vec::new())))
            .build()
    }

    /// LinkDown on the middle link over [1 s, 2 s), node 3 down over
    /// [1.5 s, 2.5 s), a 0,1 | 2,3 partition over [3 s, 4 s).
    fn border_plan() -> FaultPlan {
        let mut plan = FaultPlan::new();
        plan.push(Fault::LinkDown {
            a: NodeId(1),
            b: NodeId(2),
            at: SimTime::from_secs(1),
            heal_at: Some(SimTime::from_secs(2)),
        });
        plan.push(Fault::CrashRecover {
            node: NodeId(3),
            at: SimTime::from_millis(1500),
            down_for: SimDuration::from_secs(1),
            loss: StateLoss::Ram,
        });
        plan.push(Fault::Partition {
            groups: vec![0, 0, 1, 1],
            at: SimTime::from_secs(3),
            heal_at: SimTime::from_secs(4),
        });
        plan
    }

    fn trace_bytes(sim: &mut Sim) -> Vec<u8> {
        let mut rec = sim.take_recorder().expect("recorder");
        // Through the deref: on the box itself `AsAny` would answer.
        let jsonl = (*rec)
            .as_any_mut()
            .downcast_mut::<JsonlRecorder<Vec<u8>>>()
            .expect("jsonl");
        std::mem::replace(jsonl, JsonlRecorder::new(Vec::new())).into_inner()
    }

    #[test]
    fn plan_blocks_both_sides_and_heals() {
        let mut sim = beacon_line();
        border_plan()
            .apply(&mut sim)
            .expect("fault plan fits the sim");
        sim.run_until(SimTime::from_secs(5));

        // How often `at` heard `from` within [lo, hi) milliseconds.
        let heard = |sim: &Sim, at: u32, from: u32, lo: u64, hi: u64| {
            let log = &sim.proto::<Beacon>(NodeId(at)).heard;
            log.iter()
                .filter(|&&(t, src)| {
                    src == NodeId(from)
                        && t >= SimTime::from_millis(lo)
                        && t < SimTime::from_millis(hi)
                })
                .count()
        };
        for (at, from) in [(1, 2), (2, 1)] {
            assert!(heard(&sim, at, from, 0, 1000) > 0, "{at}<-{from} up");
            assert_eq!(heard(&sim, at, from, 1000, 2000), 0, "{at}<-{from} down");
            assert!(heard(&sim, at, from, 2000, 3000) > 0, "{at}<-{from} healed");
            assert_eq!(heard(&sim, at, from, 3000, 4000), 0, "{at}<-{from} split");
            assert!(heard(&sim, at, from, 4000, 5000) > 0, "{at}<-{from} merged");
        }
        // Inside a group the partition changes nothing; the crash does.
        assert!(heard(&sim, 0, 1, 3000, 4000) > 0);
        assert_eq!(heard(&sim, 2, 3, 1600, 2500), 0, "node 3 is down");
        assert!(heard(&sim, 2, 3, 2600, 3000) > 0, "node 3 is back");
    }

    /// The golden is the trace of this plan at the commit where `apply`
    /// was last checked against closures calling `World::kill`,
    /// `block_link` and `set_partitioned` by hand (the in-run handle no
    /// longer offers them): first line the events dispatched, then the
    /// JSONL.
    #[test]
    fn plan_on_the_serial_kernel_matches_hand_scheduled_closures() {
        let mut planned = beacon_line();
        border_plan()
            .apply(&mut planned)
            .expect("fault plan fits the sim");
        planned.run_until(SimTime::from_secs(5));
        let golden = include_str!("../tests/golden/border_plan_serial.jsonl");
        let (events, trace) = golden.split_once('\n').expect("count line");
        assert_eq!(planned.events_dispatched().to_string(), events);
        let bytes = trace_bytes(&mut planned);
        assert_eq!(String::from_utf8(bytes).expect("utf8"), trace);
    }

    #[test]
    fn churn_respects_horizon_and_node_list() {
        let mut rng = SmallRng::seed_from_u64(3);
        // Node 0 is left out of the list, so it never crashes.
        let nodes: Vec<NodeId> = (1..10).map(NodeId).collect();
        let plan = FaultPlan::random_churn(
            &mut rng,
            &nodes,
            SimDuration::from_secs(100),
            SimDuration::from_secs(10),
            SimTime::ZERO,
            SimTime::from_secs(1000),
        );
        assert!(!plan.is_empty(), "1000s at 100s MTBF should crash someone");
        for f in plan.faults() {
            match f {
                Fault::CrashRecover { node, at, loss, .. } => {
                    assert_ne!(*node, NodeId(0), "unlisted node crashed");
                    assert!(*at < SimTime::from_secs(1000));
                    assert_eq!(*loss, StateLoss::Ram);
                }
                other => panic!("unexpected fault {other:?}"),
            }
        }
    }

    #[test]
    fn churn_deterministic_per_seed() {
        let nodes: Vec<NodeId> = (0..5).map(NodeId).collect();
        let mk = |seed| {
            FaultPlan::random_churn(
                &mut SmallRng::seed_from_u64(seed),
                &nodes,
                SimDuration::from_secs(50),
                SimDuration::from_secs(5),
                SimTime::ZERO,
                SimTime::from_secs(500),
            )
        };
        assert_eq!(mk(1), mk(1));
        assert_ne!(mk(1), mk(2));
    }
}
