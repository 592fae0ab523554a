//! Generated fault plans on small worlds.
//!
//! - Whatever mix of crash-recoveries (keeping flash or wiping it),
//!   healing link cuts and healing partitions a [`FaultPlan`] holds, a
//!   CSMA run does not panic, the trace takes each node down and back
//!   up in turn, and every node is alive at the horizon. Five nodes
//!   15 m apart on a line run CSMA under a scripted send schedule
//!   (broadcasts and unicasts to the next node), so faults land
//!   mid-backoff, mid-frame and mid-ACK-wait. Every fault heals before
//!   the horizon.
//! - Overlapping faults nest: at every probe instant a node is down
//!   exactly while one of its outages lasts, and a frame crosses
//!   between two nodes exactly while no cut of their link and no active
//!   partition separates them.
//! - A plan naming a node the world does not hold, grouping more nodes
//!   than it holds, or healing before it starts is refused whole, with
//!   the error that says so, and nothing of it happens.

use iiot_mac::csma::CsmaMac;
use iiot_mac::driver::MacDriver;
use iiot_sim::prelude::*;
use iiot_sim::{Fault, FaultError, FaultPlan};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

const NODES: u32 = 5;
/// Faults start before this many milliseconds…
const LAST_FAULT_MS: u64 = 6_000;
/// …last at most this long…
const MAX_OUTAGE_MS: u64 = 3_000;
/// …and so have all healed by the horizon.
const HORIZON: SimTime = SimTime::from_secs(10);

/// The `Fault` events of a run, in order: `(node, kind)`.
#[derive(Default)]
struct FaultLog(Vec<(NodeId, &'static str)>);

impl Recorder for FaultLog {
    fn record(&mut self, ev: &Event) {
        if let EventKind::Fault { kind, .. } = ev.kind {
            self.0.push((ev.node, kind));
        }
    }
}

/// One fault from a kind selector and random bits, healed by
/// `LAST_FAULT_MS + MAX_OUTAGE_MS`.
fn fault() -> impl Strategy<Value = Fault> {
    (0..3u8, 0..LAST_FAULT_MS, 1..=MAX_OUTAGE_MS, any::<u64>()).prop_map(
        |(kind, at_ms, outage_ms, r)| {
            let at = SimTime::from_millis(at_ms);
            let heal_at = at + SimDuration::from_millis(outage_ms);
            let node = |bits: u32| NodeId((r >> bits) as u32 % NODES);
            match kind {
                0 => Fault::CrashRecover {
                    node: node(0),
                    at,
                    down_for: SimDuration::from_millis(outage_ms),
                    loss: if r >> 32 & 1 == 0 {
                        StateLoss::Ram
                    } else {
                        StateLoss::Full
                    },
                },
                1 => {
                    let a = node(0);
                    // Any other node: a link to oneself is no link.
                    let b = NodeId((a.0 + 1 + (r >> 8) as u32 % (NODES - 1)) % NODES);
                    Fault::LinkDown {
                        a,
                        b,
                        at,
                        heal_at: Some(heal_at),
                    }
                }
                _ => Fault::Partition {
                    groups: (0..NODES).map(|i| (r >> (16 + 2 * i) & 1) as u16).collect(),
                    at,
                    heal_at,
                },
            }
        },
    )
}

/// Runs `plan` on the CSMA line to the horizon and returns the world
/// with its fault log.
fn run(seed: u64, plan: &FaultPlan) -> Sim {
    let mut sim = SimBuilder::new()
        .seed(seed)
        .nodes(Topology::line(NODES as usize, 15.0), |_| {
            Box::new(MacDriver::new(CsmaMac::default()))
        })
        .recorder(Box::new(FaultLog::default()))
        .build();
    for i in 0..NODES {
        let me = NodeId(i);
        let next = NodeId((i + 1) % NODES);
        let driver = sim.proto_mut::<MacDriver<CsmaMac>>(me);
        for k in 0..HORIZON.as_micros() / 100_000 {
            let at = SimTime::from_millis(20 * i as u64 + 100 * k);
            let dst = if k % 2 == 0 {
                Dst::Broadcast
            } else {
                Dst::Unicast(next)
            };
            driver.push_send(at, dst, 1, vec![i as u8; 12]);
        }
    }
    plan.apply(&mut sim).expect("generated plans fit the line");
    sim.run_until(HORIZON);
    sim
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn generated_plans_heal_every_node(
        seed in any::<u64>(),
        faults in proptest::collection::vec(fault(), 0..10),
    ) {
        let mut plan = FaultPlan::new();
        for f in faults {
            plan.push(f);
        }
        let sim = catch_unwind(AssertUnwindSafe(|| run(seed, &plan)))
            .unwrap_or_else(|_| panic!("seed {seed} panicked under {plan:?}"));
        let log = &sim.recorder_as::<FaultLog>().expect("fault log").0;
        for i in 0..NODES {
            let node = NodeId(i);
            let mut down = false;
            for &(_, kind) in log.iter().filter(|(n, _)| *n == node) {
                match kind {
                    // A wipe may land on a node already down.
                    "crash_wipe" => down = true,
                    "crash" => {
                        prop_assert!(!down, "{node} crashed twice without recovering");
                        down = true;
                    }
                    "recover" => {
                        prop_assert!(down, "{node} recovered without a crash");
                        down = false;
                    }
                    _ => {}
                }
            }
            prop_assert!(!down, "{node}'s last crash has no recovery: {plan:?}");
            prop_assert!(sim.is_alive(node), "{node} dead at the horizon: {plan:?}");
        }
    }
}

/// Probe instants are `PROBE_MS` apart; faults start and heal on the
/// same grid, and node `i` broadcasts `PROBE_OFFSET_MS + i × 5` ms past
/// each probe instant, so no frame is on the air when a fault acts.
const PROBE_MS: u64 = 100;
const PROBE_OFFSET_MS: u64 = 50;
/// Probe instants per run: 6 s, by when every fault that heals has.
const PROBES: u64 = 60;

/// Keeps its radio on and logs every frame it hears; crashes lose
/// nothing, wipes are counted.
#[derive(Default)]
struct Probe {
    heard: Vec<(SimTime, NodeId)>,
    wipes: u32,
}

impl Proto for Probe {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.radio_on().expect("alive at start");
    }
    fn frame(&mut self, ctx: &mut Ctx<'_>, frame: &Frame, _info: RxInfo) {
        self.heard.push((ctx.now(), frame.src));
    }
    fn crashed(&mut self) {}
    fn wiped(&mut self) {
        self.wipes += 1;
    }
}

/// Five probes 5 m apart, every pair in range, each broadcasting once
/// per probe instant.
fn probe_world() -> Sim {
    let mut sim = SimBuilder::new()
        .link(LinkModel::UnitDisk {
            range_m: 100.0,
            interference_range_m: 100.0,
        })
        .nodes(Topology::line(NODES as usize, 5.0), |_| {
            Box::new(Probe::default())
        })
        .recorder(Box::new(FaultLog::default()))
        .build();
    for k in 0..PROBES {
        for i in 0..NODES {
            let at = SimTime::from_millis(k * PROBE_MS + PROBE_OFFSET_MS + 5 * i as u64);
            sim.schedule_at(at, move |w| {
                w.with(NodeId(i), |_: &mut Probe, ctx| {
                    ctx.transmit(Dst::Broadcast, 0, vec![0; 8]).ok();
                });
            });
        }
    }
    sim
}

/// One fault on the probe grid, overlapping others often: five nodes,
/// ten links, starts in the first 3 s, outages of up to 2 s, and one
/// fault in eight a permanent crash.
fn grid_fault() -> impl Strategy<Value = Fault> {
    (0..8u8, 0..30u64, 1..=20u64, any::<u64>()).prop_map(|(kind, at, outage, r)| {
        let at_ms = at * PROBE_MS;
        let at = SimTime::from_millis(at_ms);
        let heal_at = SimTime::from_millis(at_ms + outage * PROBE_MS);
        let node = NodeId(r as u32 % NODES);
        match kind {
            0 => Fault::Crash { node, at },
            1 | 2 => Fault::CrashRecover {
                node,
                at,
                down_for: heal_at - at,
                loss: if r >> 8 & 1 == 0 {
                    StateLoss::Ram
                } else {
                    StateLoss::Full
                },
            },
            3 | 4 => Fault::LinkDown {
                a: node,
                b: NodeId((node.0 + 1 + (r >> 8) as u32 % (NODES - 1)) % NODES),
                at,
                heal_at: (r >> 16 & 3 != 0).then_some(heal_at),
            },
            _ => Fault::Partition {
                groups: (0..(r >> 24) as u32 % (NODES + 1))
                    .map(|i| (r >> (32 + 2 * i) & 3) as u16)
                    .collect(),
                at,
                heal_at,
            },
        }
    })
}

/// What `plan` says holds at `t`: the outages of each node, the cuts of
/// each link and the group of each node in each active partition.
struct Expected {
    outages: Vec<u32>,
    cuts: Vec<Vec<u32>>,
    partitions: Vec<Vec<u16>>,
}

impl Expected {
    fn at(plan: &FaultPlan, t: SimTime) -> Self {
        let n = NODES as usize;
        let mut e = Expected {
            outages: vec![0; n],
            cuts: vec![vec![0; n]; n],
            partitions: Vec::new(),
        };
        let within = |at: SimTime, heal: Option<SimTime>| at <= t && heal.is_none_or(|h| t < h);
        for f in plan.faults() {
            match f {
                Fault::Crash { node, at } if within(*at, None) => e.outages[node.index()] += 1,
                Fault::CrashRecover {
                    node, at, down_for, ..
                } if within(*at, Some(*at + *down_for)) => e.outages[node.index()] += 1,
                Fault::LinkDown { a, b, at, heal_at } if within(*at, *heal_at) => {
                    e.cuts[a.index()][b.index()] += 1;
                    e.cuts[b.index()][a.index()] += 1;
                }
                Fault::Partition {
                    groups,
                    at,
                    heal_at,
                } if within(*at, Some(*heal_at)) => {
                    let group = |i| groups.get(i).copied().unwrap_or(0);
                    e.partitions.push((0..n).map(group).collect());
                }
                _ => {}
            }
        }
        e
    }

    fn up(&self, node: usize) -> bool {
        self.outages[node] == 0
    }

    /// Whether a frame from `from` reaches `to`.
    fn crosses(&self, from: usize, to: usize) -> bool {
        from != to
            && self.up(from)
            && self.up(to)
            && self.cuts[from][to] == 0
            && self.partitions.iter().all(|g| g[from] == g[to])
    }
}

/// The probe instants of a run.
fn probes() -> impl Iterator<Item = SimTime> {
    (0..PROBES).map(|k| SimTime::from_millis(k * PROBE_MS + PROBE_OFFSET_MS))
}

/// Whether `to` heard `from` in the round of broadcasts after `probe`.
fn heard(sim: &Sim, to: usize, from: usize, probe: SimTime) -> bool {
    let round = probe..probe + SimDuration::from_millis(PROBE_MS - PROBE_OFFSET_MS);
    let log = &sim.proto::<Probe>(NodeId(to as u32)).heard;
    log.iter()
        .any(|&(t, src)| src.index() == from && round.contains(&t))
}

/// One fault that does not fit `probe_world`, and the error it earns:
/// `pick` chooses the kind, `r` the stranger and the group count.
fn bad_fault(pick: u8, r: u32) -> (Fault, FaultError) {
    let nodes = NODES as usize;
    let at = SimTime::from_millis(PROBE_MS);
    let heal_at = SimTime::from_millis(3 * PROBE_MS);
    let node = NodeId(NODES + r % 1000);
    let stranger = FaultError::NoSuchNode { node, nodes };
    match pick {
        0 => (Fault::Crash { node, at }, stranger),
        1 => {
            let down_for = heal_at - at;
            let loss = StateLoss::Ram;
            let fault = Fault::CrashRecover {
                node,
                at,
                down_for,
                loss,
            };
            (fault, stranger)
        }
        2 => {
            let a = NodeId(r % NODES);
            let heal_at = Some(heal_at);
            let fault = Fault::LinkDown {
                a,
                b: node,
                at,
                heal_at,
            };
            (fault, stranger)
        }
        3 => {
            let groups = nodes + 1 + r as usize % 10;
            let fault = Fault::Partition {
                groups: vec![1; groups],
                at,
                heal_at,
            };
            (fault, FaultError::TooManyGroups { groups, nodes })
        }
        _ => {
            let (a, b) = (NodeId(0), NodeId(1));
            let fault = Fault::LinkDown {
                a,
                b,
                at: heal_at,
                heal_at: Some(at),
            };
            (
                fault,
                FaultError::HealsBeforeStart {
                    at: heal_at,
                    heal_at: at,
                },
            )
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn overlapping_faults_nest_at_every_probe(
        faults in proptest::collection::vec(grid_fault(), 0..12),
    ) {
        let mut plan = FaultPlan::new();
        for f in faults {
            plan.push(f);
        }
        let mut sim = probe_world();
        plan.apply(&mut sim).expect("grid plans fit the probes");
        for probe in probes() {
            sim.run_until(probe);
            let want = Expected::at(&plan, probe);
            for i in 0..NODES as usize {
                let alive = sim.is_alive(NodeId(i as u32));
                prop_assert_eq!(alive, want.up(i), "n{} at {:?}: {:?}", i, probe, plan);
            }
        }
        sim.run_until(SimTime::from_millis(PROBES * PROBE_MS));
        for to in 0..NODES as usize {
            for probe in probes() {
                let want = Expected::at(&plan, probe);
                for from in 0..NODES as usize {
                    let got = heard(&sim, to, from, probe);
                    prop_assert_eq!(got, want.crosses(from, to), "n{}->n{} at {:?}: {:?}", from, to, probe, plan);
                }
            }
            let wipes = plan.faults().iter().filter(|f| {
                matches!(f, Fault::CrashRecover { node, loss: StateLoss::Full, .. } if node.index() == to)
            });
            let got = sim.proto::<Probe>(NodeId(to as u32)).wipes as usize;
            prop_assert_eq!(got, wipes.count(), "n{} wipes: {:?}", to, plan);
        }
    }

    #[test]
    fn a_plan_with_a_bad_fault_is_refused_whole(
        faults in proptest::collection::vec(grid_fault(), 0..6),
        pick in 0..5u8,
        slot in any::<u64>(),
        r in any::<u32>(),
    ) {
        let (fault, want) = bad_fault(pick, r);
        let mut faults = faults;
        let slot = slot as usize % (faults.len() + 1);
        faults.insert(slot, fault);
        let mut plan = FaultPlan::new();
        for f in faults {
            plan.push(f);
        }
        let mut sim = probe_world();
        prop_assert_eq!(plan.apply(&mut sim), Err(want));
        sim.run_until(SimTime::from_millis(PROBES * PROBE_MS));
        let log = &sim.recorder_as::<FaultLog>().expect("fault log").0;
        prop_assert!(log.is_empty(), "{:?} queued {:?}", plan, log);
    }
}

#[test]
fn a_fault_before_the_current_time_is_refused() {
    let mut sim = probe_world();
    sim.run_until(SimTime::from_secs(1));
    let at = SimTime::from_millis(500);
    let mut plan = FaultPlan::new();
    plan.push(Fault::Crash {
        node: NodeId(0),
        at,
    });
    let now = SimTime::from_secs(1);
    assert_eq!(plan.apply(&mut sim), Err(FaultError::InThePast { at, now }));
    sim.run_until(SimTime::from_secs(2));
    assert!(sim.is_alive(NodeId(0)));
}
