//! Cross-type convergence: a gossiping fleet of replicas, each holding
//! one of every CRDT, must converge to identical state under any
//! gossip schedule that eventually connects everyone.

use iiot_crdt::{Crdt, GCounter, LwwMap, LwwRegister, OrSet, ReplicaId, VClock};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The whole application state of one replica, merged member-wise.
#[derive(Clone, PartialEq, Debug)]
struct PlantState {
    events: GCounter,
    devices: OrSet<u8>,
    mode: LwwRegister<u8>,
    telemetry: LwwMap<u8, i64>,
    clock: VClock,
}

impl PlantState {
    fn new() -> Self {
        PlantState {
            events: GCounter::new(),
            devices: OrSet::new(),
            mode: LwwRegister::new(0, ReplicaId(0), 0),
            telemetry: LwwMap::new(),
            clock: VClock::new(),
        }
    }

    fn merge(&mut self, other: &PlantState) {
        self.events.merge(&other.events);
        self.devices.merge(&other.devices);
        self.mode.merge(&other.mode);
        self.telemetry.merge(&other.telemetry);
        self.clock.merge(&other.clock);
    }

    /// One random local operation at logical time `t`.
    fn op(&mut self, me: ReplicaId, t: u64, rng: &mut SmallRng) {
        match rng.gen_range(0..5) {
            0 => {
                self.events.inc(me, 1);
            }
            1 => self.devices.insert(me, rng.gen_range(0..10)),
            2 => {
                self.devices.remove(&rng.gen_range(0..10));
            }
            3 => {
                self.mode.set(t, me, rng.gen_range(0..4));
            }
            _ => {
                self.telemetry.insert(t, me, rng.gen_range(0..6), t as i64);
            }
        }
        self.clock.increment(me);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn fleet_converges_under_random_gossip(seed in 0u64..500) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = 4usize;
        let mut fleet: Vec<PlantState> = (0..n).map(|_| PlantState::new()).collect();
        // 60 rounds of random ops + random gossip pairs.
        for t in 1..=60u64 {
            for (i, item) in fleet.iter_mut().enumerate() {
                if rng.gen::<f64>() < 0.7 {
                    item.op(ReplicaId(i as u64), t, &mut rng);
                }
            }
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(0..n);
            if a != b {
                let src = fleet[b].clone();
                fleet[a].merge(&src);
            }
        }
        // Final full anti-entropy (two sweeps guarantee all-pairs
        // information flow).
        for _ in 0..2 {
            for a in 0..n {
                for b in 0..n {
                    if a != b {
                        let src = fleet[b].clone();
                        fleet[a].merge(&src);
                    }
                }
            }
        }
        for w in fleet.windows(2) {
            prop_assert_eq!(&w[0], &w[1], "replicas diverged (seed {})", seed);
        }
        // Sanity: the merged clock saw at least as many events as any
        // single component counter (ops of kind 0 only bump `events`).
        prop_assert!(fleet[0].clock.total_events() >= fleet[0].events.value());
    }
}

#[test]
fn merge_is_idempotent_for_the_composite() {
    let mut rng = SmallRng::seed_from_u64(7);
    let mut a = PlantState::new();
    for t in 1..=30 {
        a.op(ReplicaId(1), t, &mut rng);
    }
    let snapshot = a.clone();
    a.merge(&snapshot);
    assert_eq!(a, snapshot);
}
