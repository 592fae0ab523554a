//! Fleet-management experiments: E17 prices the device-management
//! plane (`iiot-fleet`) — the paper's closing claim that industrial
//! IoT at scale is *fleet* operation, not single-network operation.
//!
//! Four questions, each one table:
//!
//! * **blast radius** — a poisoned build under a staged fleet campaign
//!   (canary network first) versus flat fleet-wide activation, across
//!   fleet sizes;
//! * **time-to-converge** — how long a staged campaign takes to walk
//!   the whole fleet as it grows (stage count, not fleet size, sets
//!   the clock — networks inside a wave roll in parallel), and what a
//!   per-network crash/wipe fault costs: flash resume absorbs the
//!   outage, a wipe stretches every stage by a full redownload;
//! * **twin convergence** — how far behind the cloud's CRDT twins run
//!   when half the fleet's backhaul partitions mid-campaign, and that
//!   they converge after the heal;
//! * **drift round trip** — a fleet-wide desired-config change:
//!   detection on the converged twin state, remediation through the
//!   CoAP downlink, and how a backhaul partition stretches (but never
//!   breaks) the loop.
//!
//! Each configuration point is one [`Trial`] on the worker pool;
//! tables are byte-identical for any `--jobs`.

use crate::runner::{Cell, Trial};
use crate::table::Table;
use crate::RunConfig;
use iiot_fleet::{run_fleet, FaultArm, FleetConfig, PartitionSpec};
use iiot_sim::{SimDuration, SimTime};

const SEED: u64 = 0xE17;

/// E17a over fleet sizes (networks): a poisoned build, staged vs flat.
pub fn e17_blast(rc: &RunConfig, sizes: &[u32]) -> Table {
    rc.table(
        "E17a: poisoned build blast radius — staged fleet campaign (canary network first) vs flat fleet-wide activation",
        &["networks", "rollout", "nets activated", "poisoned nodes", "% of fleet", "outcome"],
        sizes
            .iter()
            .flat_map(|&networks| {
                [
                    ("staged (canary net)", true),
                    ("flat (all networks)", false),
                ]
                .into_iter()
                .map(move |(name, staged)| {
                    Trial::new(format!("e17/blast/{networks}/{name}"), SEED, move |seed| {
                        let cfg = FleetConfig {
                            networks,
                            staged,
                            poisoned: true,
                            ..FleetConfig::default()
                        };
                        let o = run_fleet(&cfg, seed);
                        let share = f64::from(o.nodes_poisoned) / f64::from(o.fleet_nodes);
                        let outcome = if share < 0.5 {
                            "halted at canary net"
                        } else {
                            "fleet-wide"
                        };
                        vec![vec![
                            Cell::int(f64::from(networks)),
                            Cell::label(name),
                            Cell::int(f64::from(o.networks_activated)),
                            Cell::int(f64::from(o.nodes_poisoned)),
                            Cell::pct(share),
                            Cell::label(outcome),
                        ]]
                    })
                })
            }),
    )
}

/// E17b over fleet sizes and per-network fault arms: a staged campaign's
/// time-to-converge.
pub fn e17_converge(rc: &RunConfig, sizes: &[u32], faults: &[FaultArm]) -> Table {
    rc.table(
        "E17b: staged fleet campaign time-to-converge vs fleet size, with a crash/wipe fault per network during the rollout",
        &["networks", "fleet nodes", "fault", "fleet done (s)", "coverage"],
        sizes
            .iter()
            .flat_map(|&networks| {
                faults.iter().map(move |&fault| {
                    Trial::new(
                        format!("e17/converge/{networks}/{}", fault.name()),
                        SEED,
                        move |seed| {
                            let cfg = FleetConfig {
                                networks,
                                fault,
                                ..FleetConfig::default()
                            };
                            let o = run_fleet(&cfg, seed);
                            vec![vec![
                                Cell::int(f64::from(networks)),
                                Cell::int(f64::from(o.fleet_nodes)),
                                Cell::label(fault.name()),
                                Cell::f1(o.done_at_s),
                                Cell::pct(o.coverage),
                            ]]
                        },
                    )
                })
            }),
    )
}

/// E17c: twin lag of a `networks`-network flat campaign whose first
/// half loses its backhaul over `[part_from_s, part_until_s)`.
pub fn e17_twins(rc: &RunConfig, networks: u32, part_from_s: u64, part_until_s: u64) -> Table {
    rc.table(
        "E17c: CRDT twin convergence lag — half the fleet's backhaul partitioned mid-campaign, cloud catches up at the heal",
        &[
            "arm",
            "fleet done (s)",
            "twin lag clean nets (s)",
            "twin lag part. nets (s)",
            "cloud twins",
            "twin writes",
        ],
        [("backhaul up", false), ("half fleet partitioned", true)]
            .into_iter()
            .map(|(name, partitioned)| {
                Trial::new(format!("e17/twins/{name}"), SEED, move |seed| {
                    let partition = partitioned.then(|| PartitionSpec {
                        from: SimTime::from_secs(part_from_s),
                        until: SimTime::from_secs(part_until_s),
                        networks: (0..networks / 2).collect(),
                    });
                    let cfg = FleetConfig {
                        networks,
                        staged: false,
                        partition,
                        ..FleetConfig::default()
                    };
                    let o = run_fleet(&cfg, seed);
                    let half = (networks / 2) as usize;
                    let mean = |s: &[f64]| {
                        if s.is_empty() {
                            0.0
                        } else {
                            s.iter().sum::<f64>() / s.len() as f64
                        }
                    };
                    vec![vec![
                        Cell::label(name),
                        Cell::f1(o.done_at_s),
                        Cell::f1(mean(&o.twin_lag_s[half..])),
                        Cell::f1(mean(&o.twin_lag_s[..half])),
                        Cell::int(o.cloud_twins as f64),
                        Cell::int(o.twin_events as f64),
                    ]]
                })
            }),
    )
}

/// E17d: a fleet-wide desired-config change at 60 s on `networks`
/// networks whose first half loses its backhaul over `[part_from_s,
/// part_until_s)`.
pub fn e17_drift(rc: &RunConfig, networks: u32, part_from_s: u64, part_until_s: u64) -> Table {
    rc.table(
        "E17d: config drift round trip — fleet-wide desired change, detection on converged twins, CoAP remediation push",
        &["arm", "drifted devices", "remediations ok", "failed", "drift cleared (s)"],
        [("backhaul up", false), ("half fleet partitioned", true)]
            .into_iter()
            .map(|(name, partitioned)| {
                Trial::new(format!("e17/drift/{name}"), SEED, move |seed| {
                    let partition = partitioned.then(|| PartitionSpec {
                        from: SimTime::from_secs(part_from_s),
                        until: SimTime::from_secs(part_until_s),
                        networks: (0..networks / 2).collect(),
                    });
                    let cfg = FleetConfig {
                        networks,
                        partition,
                        desired_change: Some((SimTime::from_secs(60), 10.0)),
                        horizon: SimDuration::from_secs(900),
                        ..FleetConfig::default()
                    };
                    let o = run_fleet(&cfg, seed);
                    vec![vec![
                        Cell::label(name),
                        Cell::int(f64::from(o.drift_detected)),
                        Cell::int(f64::from(o.remediations_ok)),
                        Cell::int(f64::from(o.remediations_failed)),
                        Cell::f1(o.drift_cleared_at_s),
                    ]]
                })
            }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Runner;

    fn rc(jobs: usize) -> RunConfig {
        RunConfig {
            runner: Runner::new(jobs),
            trials: 1,
        }
    }

    fn num(t: &Table, row: usize, col: usize) -> f64 {
        t.rows()[row][col].parse().expect("numeric cell")
    }

    #[test]
    fn e17a_staged_bounds_the_blast_radius() {
        let t = e17_blast(&rc(1), &[4]);
        assert_eq!(t.rows().len(), 2);
        let staged = num(&t, 0, 3);
        let flat = num(&t, 1, 3);
        assert!(
            staged < flat,
            "staged must poison fewer nodes ({staged} vs {flat})"
        );
    }

    #[test]
    fn e17b_wipe_costs_a_redownload_but_resume_is_free() {
        let t = e17_converge(
            &rc(1),
            &[4],
            &[FaultArm::None, FaultArm::Crash, FaultArm::Wipe],
        );
        let none = num(&t, 0, 3);
        let crash = num(&t, 1, 3);
        let wipe = num(&t, 2, 3);
        assert!(crash <= none + 10.0, "flash resume absorbs the outage");
        assert!(wipe > none, "a wiped victim stretches the campaign");
        for row in 0..3 {
            assert_eq!(t.rows()[row][4], "100.0%", "every arm converges");
        }
    }

    #[test]
    fn e17_tables_are_jobs_invariant() {
        let a = e17_twins(&rc(1), 4, 5, 90);
        let b = e17_twins(&rc(2), 4, 5, 90);
        assert_eq!(a.rows(), b.rows());
        let a = e17_drift(&rc(1), 2, 30, 90);
        let b = e17_drift(&rc(2), 2, 30, 90);
        assert_eq!(a.rows(), b.rows());
    }

    #[test]
    fn e17c_partition_shows_up_as_twin_lag() {
        let t = e17_twins(&rc(2), 4, 5, 90);
        // Row 0 = backhaul up, row 1 = half fleet partitioned. Clean
        // networks stay near-live on both arms; partitioned networks
        // only converge at the heal, so their lag dominates.
        let clean_arm_lag = num(&t, 0, 3);
        let part_arm_lag = num(&t, 1, 3);
        assert!(
            part_arm_lag > clean_arm_lag + 30.0,
            "partitioned nets must lag well past the clean baseline \
             ({part_arm_lag} vs {clean_arm_lag})"
        );
        assert_eq!(num(&t, 0, 4), num(&t, 1, 4), "cloud converges on both arms");
    }

    #[test]
    fn e17d_partition_stretches_but_never_breaks_the_loop() {
        // The partition window must already be open when the desired
        // change lands at t=60 s, or remediation sneaks out before it.
        let t = e17_drift(&rc(2), 2, 30, 150);
        let clean_cleared = num(&t, 0, 4);
        let part_cleared = num(&t, 1, 4);
        assert!(part_cleared > clean_cleared, "partition delays clearing");
        assert!(num(&t, 1, 2) > 0.0, "remediation completes after the heal");
    }
}
