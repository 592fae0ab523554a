//! Generated fault plans on a small CSMA world: whatever mix of
//! crash-recoveries (keeping flash or wiping it), healing link cuts and
//! healing partitions a [`FaultPlan`] holds, the run does not panic,
//! every crash of a node is followed by its recovery in the trace, and
//! every node is alive at the horizon.
//!
//! Five nodes 15 m apart on a line run CSMA under a scripted send
//! schedule (broadcasts and unicasts to the next node), so faults land
//! mid-backoff, mid-frame and mid-ACK-wait. Every fault heals before
//! the horizon.

use iiot_mac::csma::CsmaMac;
use iiot_mac::driver::MacDriver;
use iiot_sim::prelude::*;
use iiot_sim::{Fault, FaultPlan};
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
    plan.apply(&mut sim);
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
                    "crash" | "crash_wipe" => {
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
