//! A replicated-store availability simulator: the CAP experiment (E7)
//! engine comparing an AP design (CRDT anti-entropy) against a CP
//! design (majority-quorum writes) under a partition schedule (§V-C).
//!
//! The model is round-based: each round, a client co-located with each
//! replica attempts one write; replicas in the same partition group
//! exchange state once per round (anti-entropy). The CP store accepts a
//! write only when the writer's group holds a strict majority of
//! replicas; the AP store always accepts locally and converges later.

use iiot_crdt::{Crdt, LwwMap, ReplicaId};
use iiot_sim::obs::{Event, EventKind, Recorder, SpanId};
use iiot_sim::{NodeId, SimTime};

/// Which consistency design the store runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Design {
    /// Always-available CRDT store with anti-entropy.
    Ap,
    /// Majority-quorum (CP) store: minority partitions refuse writes.
    Cp,
}

/// A partition schedule over rounds: `groups[i]` is replica `i`'s group
/// during `start..end`.
#[derive(Clone, Debug)]
pub struct PartitionWindow {
    /// First round of the partition (inclusive).
    pub start: u64,
    /// First round after the partition (exclusive).
    pub end: u64,
    /// Group of each replica.
    pub groups: Vec<u16>,
}

/// Result of one simulation.
#[derive(Clone, Debug, PartialEq)]
pub struct AvailabilityReport {
    /// Writes attempted.
    pub attempted: u64,
    /// Writes accepted.
    pub accepted: u64,
    /// Writes rejected (unavailability).
    pub rejected: u64,
    /// Rounds after the last partition healed until all replicas held
    /// identical state (`None` if never converged within the horizon).
    pub convergence_rounds: Option<u64>,
    /// Maximum number of distinct values simultaneously held for one
    /// key during the run (divergence width).
    pub max_divergence: usize,
}

impl AvailabilityReport {
    /// Fraction of writes accepted.
    pub fn availability(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.accepted as f64 / self.attempted as f64
        }
    }
}

/// Simulates `replicas` replicas for `rounds` rounds with one write per
/// replica per round, under the given partitions.
///
/// # Panics
///
/// Panics if any partition window names fewer groups than replicas.
pub fn simulate(
    design: Design,
    replicas: usize,
    rounds: u64,
    partitions: &[PartitionWindow],
    keys: u8,
) -> AvailabilityReport {
    simulate_with(design, replicas, rounds, partitions, keys, None)
}

/// Like [`simulate`], but streams a [`CrdtMerge`](EventKind::CrdtMerge)
/// event per anti-entropy merge into `recorder` (rounds map to
/// milliseconds of synthetic sim-time, replica indices to node ids).
pub fn simulate_with(
    design: Design,
    replicas: usize,
    rounds: u64,
    partitions: &[PartitionWindow],
    keys: u8,
    mut recorder: Option<&mut dyn Recorder>,
) -> AvailabilityReport {
    assert!(replicas > 0);
    for p in partitions {
        assert_eq!(p.groups.len(), replicas, "groups must cover replicas");
    }
    let mut stores: Vec<LwwMap<u8, u64>> = (0..replicas).map(|_| LwwMap::new()).collect();
    let mut attempted = 0;
    let mut accepted = 0;
    let mut max_divergence = 0usize;
    let heal_round = partitions.iter().map(|p| p.end).max().unwrap_or(0);
    let mut convergence_rounds = None;

    let group_of = |round: u64, r: usize| -> u16 {
        partitions
            .iter()
            .find(|p| (p.start..p.end).contains(&round))
            .map(|p| p.groups[r])
            .unwrap_or(0)
    };

    for round in 0..rounds {
        // Writes.
        for (r, store) in stores.iter_mut().enumerate() {
            attempted += 1;
            let my_group = group_of(round, r);
            let group_size = (0..replicas)
                .filter(|&x| group_of(round, x) == my_group)
                .count();
            let can_write = match design {
                Design::Ap => true,
                Design::Cp => group_size * 2 > replicas,
            };
            if can_write {
                accepted += 1;
                let key = (round % keys as u64) as u8;
                // Timestamp = round, writer breaks ties: the LWW
                // precondition holds (one write per replica per round).
                store.insert(round, ReplicaId(r as u64), key, round * 1000 + r as u64);
            }
        }
        // Anti-entropy within groups (full mesh per group, one round).
        for a in 0..replicas {
            for b in 0..replicas {
                if a != b && group_of(round, a) == group_of(round, b) {
                    let src = stores[b].clone();
                    stores[a].merge(&src);
                    if let Some(r) = recorder.as_deref_mut() {
                        r.record(&Event {
                            t: SimTime::from_millis(round),
                            node: NodeId(a as u32),
                            span: SpanId::episode(NodeId(b as u32), round as u32),
                            kind: EventKind::CrdtMerge {
                                keys: src.len() as u32,
                            },
                        });
                    }
                }
            }
        }
        // Divergence: distinct values of key 0 across replicas.
        let mut vals: Vec<Option<&u64>> = stores.iter().map(|s| s.get(&0)).collect();
        vals.sort();
        vals.dedup();
        max_divergence = max_divergence.max(vals.len());
        // Convergence detection after heal.
        if convergence_rounds.is_none() && round >= heal_round {
            let all_equal = stores.windows(2).all(|w| w[0] == w[1]);
            if all_equal {
                convergence_rounds = Some(round - heal_round);
            }
        }
    }
    AvailabilityReport {
        attempted,
        accepted,
        rejected: attempted - accepted,
        convergence_rounds,
        max_divergence,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn split_2_3() -> Vec<PartitionWindow> {
        vec![PartitionWindow {
            start: 10,
            end: 30,
            groups: vec![0, 0, 1, 1, 1],
        }]
    }

    #[test]
    fn simulate_with_streams_merge_events() {
        use iiot_sim::obs::CountingRecorder;
        let mut rec = CountingRecorder::new();
        let r = simulate_with(Design::Ap, 3, 5, &[], 2, Some(&mut rec));
        assert_eq!(r.availability(), 1.0);
        // Full mesh of 3 replicas = 6 ordered pairs, over 5 rounds.
        assert_eq!(rec.count("crdt_merge"), 30);
    }

    #[test]
    fn no_partition_both_designs_fully_available() {
        for design in [Design::Ap, Design::Cp] {
            let r = simulate(design, 5, 20, &[], 4);
            assert_eq!(r.availability(), 1.0, "{design:?}");
            assert_eq!(r.convergence_rounds, Some(0));
        }
    }

    #[test]
    fn ap_stays_available_under_partition() {
        let r = simulate(Design::Ap, 5, 50, &split_2_3(), 4);
        assert_eq!(r.availability(), 1.0);
        assert!(r.max_divergence > 1, "partition causes divergence");
        assert!(
            r.convergence_rounds.is_some(),
            "anti-entropy converges after heal"
        );
        assert!(r.convergence_rounds.expect("some") <= 2);
    }

    #[test]
    fn cp_rejects_minority_writes() {
        let r = simulate(Design::Cp, 5, 50, &split_2_3(), 4);
        // 20 rounds x 2 minority replicas = 40 rejections.
        assert_eq!(r.rejected, 40);
        assert!(r.availability() < 1.0);
        assert!((r.availability() - (250.0 - 40.0) / 250.0).abs() < 1e-9);
    }

    #[test]
    fn cp_never_diverges() {
        let r = simulate(Design::Cp, 5, 50, &split_2_3(), 1);
        // Majority side keeps writing; minority holds stale-but-not-
        // conflicting state: at most 2 distinct values for a key
        // (current + stale), never a write-write conflict... the LWW
        // tags still converge afterwards.
        assert!(r.convergence_rounds.is_some());
    }

    #[test]
    fn total_partition_blocks_cp_entirely() {
        // Five singleton groups: no majority anywhere.
        let windows = vec![PartitionWindow {
            start: 0,
            end: 10,
            groups: vec![0, 1, 2, 3, 4],
        }];
        let r = simulate(Design::Cp, 5, 10, &windows, 2);
        assert_eq!(r.accepted, 0, "CAP: no availability without a majority");
        let r_ap = simulate(Design::Ap, 5, 10, &windows, 2);
        assert_eq!(r_ap.availability(), 1.0);
    }

    #[test]
    fn longer_partition_more_divergence_same_convergence() {
        let short = simulate(
            Design::Ap,
            4,
            40,
            &[PartitionWindow {
                start: 5,
                end: 10,
                groups: vec![0, 0, 1, 1],
            }],
            2,
        );
        let long = simulate(
            Design::Ap,
            4,
            40,
            &[PartitionWindow {
                start: 5,
                end: 30,
                groups: vec![0, 0, 1, 1],
            }],
            2,
        );
        assert!(long.max_divergence >= short.max_divergence);
        assert!(long.convergence_rounds.expect("heals") <= 2);
    }
}
