//! Fault injection plans: declarative schedules of crashes, recoveries,
//! link failures and partitions applied to a simulation.

use iiot_sim::{NodeId, Sim, SimDuration, SimTime, StateLoss};
use rand::Rng;

/// One scheduled fault.
#[derive(Clone, Debug, PartialEq)]
pub enum Fault {
    /// Node crashes permanently at `at`.
    Crash {
        /// Victim.
        node: NodeId,
        /// Crash time.
        at: SimTime,
    },
    /// Node crashes at `at` and recovers `down_for` later.
    CrashRecover {
        /// Victim.
        node: NodeId,
        /// Crash time.
        at: SimTime,
        /// Outage duration.
        down_for: SimDuration,
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
    /// A network partition: nodes get the given groups and cross-group
    /// communication stops between `at` and `heal_at`.
    Partition {
        /// Group of each node (by node index).
        groups: Vec<u16>,
        /// Partition start.
        at: SimTime,
        /// Partition end.
        heal_at: SimTime,
    },
}

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

    /// Generates random crash-recovery churn: each non-excluded node
    /// independently crashes with exponential inter-arrival times of
    /// mean `mtbf` and recovers after `mttr`, within `[start, horizon]`.
    pub fn random_churn<R: Rng>(
        rng: &mut R,
        nodes: &[NodeId],
        mtbf: SimDuration,
        mttr: SimDuration,
        start: SimTime,
        horizon: SimTime,
        exclude: &[NodeId],
    ) -> Self {
        let mut plan = FaultPlan::new();
        for &node in nodes {
            if exclude.contains(&node) {
                continue;
            }
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

    /// Like [`apply`](FaultPlan::apply), but first sets the sim's
    /// crash [`StateLoss`] policy: `StateLoss::Ram` (the default) means
    /// a [`Fault::CrashRecover`]'d node keeps whatever its protocol
    /// treats as flash-persisted; `StateLoss::Full` makes every crash
    /// in this plan a full reimage ([`iiot_sim::Proto::wiped`]).
    ///
    /// # Panics
    ///
    /// Panics if any fault is scheduled before the sim's current time.
    pub fn apply_with_state_loss(&self, sim: &mut Sim, loss: StateLoss) {
        sim.set_state_loss(loss);
        self.apply(sim);
    }

    /// Schedules every fault on `sim` through its fault operations:
    /// each shows up once as a structured `Fault` event in traces.
    ///
    /// # Panics
    ///
    /// Panics if any fault is scheduled before the sim's current time.
    pub fn apply(&self, sim: &mut Sim) {
        for f in &self.faults {
            match f.clone() {
                Fault::Crash { node, at } => sim.kill_at(at, node),
                Fault::CrashRecover { node, at, down_for } => {
                    sim.kill_at(at, node);
                    sim.revive_at(at + down_for, node);
                }
                Fault::LinkDown { a, b, at, heal_at } => {
                    sim.block_link_at(at, a, b);
                    if let Some(h) = heal_at {
                        sim.unblock_link_at(h, a, b);
                    }
                }
                Fault::Partition {
                    groups,
                    at,
                    heal_at,
                } => {
                    sim.partition_at(at, groups);
                    sim.heal_at(heal_at);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iiot_sim::obs::{JsonlRecorder, RingRecorder};
    use iiot_sim::prelude::*;
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
        });
        plan.apply(&mut w);
        w.run_until(SimTime::from_secs(2));
        assert!(!w.is_alive(NodeId(1)));
        w.run_until(SimTime::from_secs(4));
        assert!(w.is_alive(NodeId(1)));
    }

    #[test]
    fn state_loss_policy_reaches_the_protocol() {
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
        let run = |loss| {
            let mut w = SimBuilder::new()
                .nodes(Topology::line(1, 10.0), |_| Box::new(Probe::default()))
                .build();
            let n = NodeId(0);
            let mut plan = FaultPlan::new();
            plan.push(Fault::CrashRecover {
                node: n,
                at: SimTime::from_secs(1),
                down_for: SimDuration::from_secs(1),
            });
            plan.apply_with_state_loss(&mut w, loss);
            w.run_until(SimTime::from_secs(3));
            let p = w.proto::<Probe>(n);
            (p.crashes, p.wipes)
        };
        assert_eq!(run(StateLoss::Ram), (1, 0));
        assert_eq!(run(StateLoss::Full), (0, 1));
    }

    #[test]
    fn permanent_crash() {
        let mut w = idle_world(1);
        let mut plan = FaultPlan::new();
        plan.push(Fault::Crash {
            node: NodeId(0),
            at: SimTime::from_secs(1),
        });
        plan.apply(&mut w);
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
        plan.apply(&mut w);
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
        border_plan().apply(&mut sim);
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
        border_plan().apply(&mut planned);
        planned.run_until(SimTime::from_secs(5));
        let golden = include_str!("../tests/golden/border_plan_serial.jsonl");
        let (events, trace) = golden.split_once('\n').expect("count line");
        assert_eq!(planned.events_dispatched().to_string(), events);
        let bytes = trace_bytes(&mut planned);
        assert_eq!(String::from_utf8(bytes).expect("utf8"), trace);
    }

    #[test]
    fn churn_respects_horizon_and_exclusions() {
        let mut rng = SmallRng::seed_from_u64(3);
        let nodes: Vec<NodeId> = (0..10).map(NodeId).collect();
        let plan = FaultPlan::random_churn(
            &mut rng,
            &nodes,
            SimDuration::from_secs(100),
            SimDuration::from_secs(10),
            SimTime::ZERO,
            SimTime::from_secs(1000),
            &[NodeId(0)],
        );
        assert!(!plan.is_empty(), "1000s at 100s MTBF should crash someone");
        for f in plan.faults() {
            match f {
                Fault::CrashRecover { node, at, .. } => {
                    assert_ne!(*node, NodeId(0), "excluded node crashed");
                    assert!(*at < SimTime::from_secs(1000));
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
                &[],
            )
        };
        assert_eq!(mk(1), mk(1));
        assert_ne!(mk(1), mk(2));
    }
}
