//! The runner's core contract: tables are byte-identical for any
//! worker count, and replica seeds are stable, distinct splits of the
//! trial seed.

use iiot_bench::exp_scale::e5_size_scaling;
use iiot_bench::{RunConfig, Runner};
use iiot_sim::seed;

/// A small E5 sweep must produce byte-identical tables at `--jobs 1`
/// and `--jobs 4` (and its JSON dumps too).
#[test]
fn e5_jobs1_and_jobs4_tables_are_identical() {
    let run = |jobs: usize| {
        let rc = RunConfig {
            runner: Runner::new(jobs),
            trials: 1,
        };
        e5_size_scaling(&rc, &[2, 3], 60)
    };
    let seq = run(1);
    let par = run(4);
    assert_eq!(seq, par);
    assert_eq!(seq.to_json(), par.to_json());
    assert_eq!(seq.rows().len(), 2);
}

/// Replication must also be scheduling-independent: aggregated
/// `mean (p95 x)` cells match between worker counts.
#[test]
fn e5_replicated_tables_are_identical_across_jobs() {
    let run = |jobs: usize| {
        let rc = RunConfig {
            runner: Runner::new(jobs),
            trials: 3,
        };
        e5_size_scaling(&rc, &[2], 40)
    };
    let seq = run(1);
    let par = run(4);
    assert_eq!(seq, par);
    assert!(
        seq.rows()[0].iter().any(|c| c.contains("(p95 ")),
        "replicated numeric cells must aggregate: {:?}",
        seq.rows()
    );
}

/// E13's tables — whose trials themselves step worlds mid-run to
/// sample sync error — must also be byte-identical at `--jobs 1` and
/// `--jobs 2`.
#[test]
fn e13_jobs1_and_jobs2_tables_are_identical() {
    let run = |jobs: usize| {
        let rc = RunConfig {
            runner: Runner::new(jobs),
            trials: 1,
        };
        (
            iiot_bench::exp_sync::e13_drift_sweep(&rc, &[0, 300], 60),
            iiot_bench::exp_sync::e13_sync_error(&rc, 4, 60),
            iiot_bench::exp_sync::e13_guard_ablation(&rc, &[0, 2000], 60),
        )
    };
    let seq = run(1);
    let par = run(2);
    assert_eq!(seq, par);
    assert_eq!(seq.0.to_json(), par.0.to_json());
    assert_eq!(seq.1.to_json(), par.1.to_json());
    assert_eq!(seq.2.to_json(), par.2.to_json());
}

/// E14's tables — whose trials interleave world stepping with oracle
/// sampling (mid-campaign flash inspection, rollout polling) — must be
/// byte-identical at `--jobs 1` and `--jobs 2`.
#[test]
fn e14_jobs1_and_jobs2_tables_are_identical() {
    let run = |jobs: usize| {
        let rc = RunConfig {
            runner: Runner::new(jobs),
            trials: 1,
        };
        (
            iiot_bench::exp_dissem::e14_completion(&rc, &[3], 600),
            iiot_bench::exp_dissem::e14_resume(&rc, 3, 4800, 3, 240),
            iiot_bench::exp_dissem::e14_rollout(&rc, 3, 240),
        )
    };
    let seq = run(1);
    let par = run(2);
    assert_eq!(seq, par);
    assert_eq!(seq.0.to_json(), par.0.to_json());
    assert_eq!(seq.1.to_json(), par.1.to_json());
    assert_eq!(seq.2.to_json(), par.2.to_json());
}

/// E15's tables — whose trials run duty-cycled LPL stars with
/// per-node RNG poll jitter and read energy/cache/verify counters
/// back through in-trial asserts — must be byte-identical at
/// `--jobs 1` and `--jobs 2`, tables and JSON both.
#[test]
fn e15_jobs1_and_jobs2_tables_are_identical() {
    let run = |jobs: usize| {
        let rc = RunConfig {
            runner: Runner::new(jobs),
            trials: 1,
        };
        (
            iiot_bench::exp_icn::e15_arch(&rc, &[1, 4], 30),
            iiot_bench::exp_icn::e15_cache(&rc, &[8], 4, 32),
            iiot_bench::exp_icn::e15_poison(&rc),
            iiot_bench::exp_icn::e15_partition(&rc, 2, 10, 20, 30),
        )
    };
    let seq = run(1);
    let par = run(2);
    assert_eq!(seq, par);
    assert_eq!(seq.0.to_json(), par.0.to_json());
    assert_eq!(seq.1.to_json(), par.1.to_json());
    assert_eq!(seq.2.to_json(), par.2.to_json());
    assert_eq!(seq.3.to_json(), par.3.to_json());
}

/// E16's tables — whose trials run the cloud pipeline's threaded
/// per-shard drain *inside* runner worker threads — must be
/// byte-identical at `--jobs 1` and `--jobs 2`, tables and JSON both.
#[test]
fn e16_jobs1_and_jobs2_tables_are_identical() {
    let run = |jobs: usize| {
        let rc = RunConfig {
            runner: Runner::new(jobs),
            trials: 1,
        };
        (
            iiot_bench::exp_cloud::e16_ingest(&rc, &[50, 150]),
            iiot_bench::exp_cloud::e16_fairness(&rc, &[1, 16], 150),
            iiot_bench::exp_cloud::e16_overload(&rc, &[0.5, 2.0], 250),
            iiot_bench::exp_cloud::e16_bridge(&rc),
        )
    };
    let seq = run(1);
    let par = run(2);
    assert_eq!(seq, par);
    assert_eq!(seq.0.to_json(), par.0.to_json());
    assert_eq!(seq.1.to_json(), par.1.to_json());
    assert_eq!(seq.2.to_json(), par.2.to_json());
    assert_eq!(seq.3.to_json(), par.3.to_json());
}

/// E18's tables — whose trials append to in-memory event logs, replay
/// them through fresh pipelines, and close event-time windows — must be
/// byte-identical at `--jobs 1` and `--jobs 2`, tables and JSON both.
/// The replay and recovery arms assert byte-identity *inside* the
/// trial, so this doubles as a crash-recovery determinism gate.
#[test]
fn e18_jobs1_and_jobs2_tables_are_identical() {
    let run = |jobs: usize| {
        let rc = RunConfig {
            runner: Runner::new(jobs),
            trials: 1,
        };
        (
            iiot_bench::exp_stream::e18_tax(&rc, &[250]),
            iiot_bench::exp_stream::e18_replay(&rc, 125),
            iiot_bench::exp_stream::e18_recovery(&rc, 100),
            iiot_bench::exp_stream::e18_admission(&rc, &[16], 500),
            iiot_bench::exp_stream::e18_windows(&rc),
        )
    };
    let seq = run(1);
    let par = run(2);
    assert_eq!(seq, par);
    assert_eq!(seq.0.to_json(), par.0.to_json());
    assert_eq!(seq.1.to_json(), par.1.to_json());
    assert_eq!(seq.2.to_json(), par.2.to_json());
    assert_eq!(seq.3.to_json(), par.3.to_json());
    assert_eq!(seq.4.to_json(), par.4.to_json());
}

/// Pinned pre-optimization goldens: these exact bytes were captured
/// from the exhaustive-scan, linear-lookup radio medium before the
/// spatial index / slab / buffer-reuse rework. The reworked kernel
/// must reproduce them bit for bit, at any worker count — the rework
/// is an optimization, not a behaviour change.
#[test]
fn e2_e5_e14_tables_match_pre_optimization_goldens() {
    const GOLDEN_E2: &str = "\
== E2: mean collection latency (s) vs hop distance, per MAC ==
hops |   csma | lpl-512ms | rimac-512ms | tdma-20ms
-----+--------+-----------+-------------+----------
   2 |  0.006 |     4.451 |       0.921 |     0.701
   4 |  0.013 |    12.255 |       1.841 |     0.371
   8 |  0.026 |     7.519 |       2.268 |     0.324
  12 |  0.037 |     9.146 |       3.859 |     0.950
duty | 100.0% |     29.3% |       16.2% |      4.0%
";
    const GOLDEN_E5: &str = "\
== E5: delivery vs deployment size (20 m grid), decentralized DODAG vs direct-to-sink ==
nodes | dodag delivery | dodag lat p95 (s) | dio/node/min | direct delivery
------+----------------+-------------------+--------------+----------------
    4 |         100.0% |             0.000 |          5.2 |          100.0%
    9 |         100.0% |             0.000 |          5.1 |          100.0%
";
    const GOLDEN_E14: &str = "\
== E14: image dissemination vs network size (960 B image, 3 pages, 20 m grid), CSMA vs LPL vs TDMA tree schedule ==
nodes |  mac | completion (s) | coverage | energy (mJ/node) | data tx
------+------+----------------+----------+------------------+--------
    9 | csma |            2.1 |   100.0% |            281.9 |      80
    9 |  lpl |          199.7 |   100.0% |           4467.8 |     465
    9 | tdma |           14.6 |   100.0% |            187.8 |     448
";
    for jobs in [1, 2] {
        let rc = RunConfig {
            runner: Runner::new(jobs),
            trials: 1,
        };
        let e2 = iiot_bench::exp_scale::e2_latency_vs_hops(&rc, 160);
        let e5 = e5_size_scaling(&rc, &[2, 3], 60);
        let e14 = iiot_bench::exp_dissem::e14_completion(&rc, &[3], 600);
        assert_eq!(format!("{e2}"), GOLDEN_E2, "E2 drifted at jobs={jobs}");
        assert_eq!(format!("{e5}"), GOLDEN_E5, "E5 drifted at jobs={jobs}");
        assert_eq!(format!("{e14}"), GOLDEN_E14, "E14 drifted at jobs={jobs}");
    }
}

/// Distinct trials (streams) get distinct seeds, and derivation is a
/// pure function — stable across calls and processes.
#[test]
fn trial_seeds_are_distinct_and_stable() {
    let master = 0xE5;
    let seeds: Vec<u64> = (0..64).map(|s| seed::derive(master, s)).collect();
    let mut uniq = seeds.clone();
    uniq.sort_unstable();
    uniq.dedup();
    assert_eq!(uniq.len(), seeds.len(), "stream seeds collide");
    assert_eq!(
        seeds,
        (0..64).map(|s| seed::derive(master, s)).collect::<Vec<_>>()
    );

    // Replica splits keep the base seed for replica 0, so `--trials 1`
    // reproduces the sequential single-run tables exactly.
    let reps = seed::replica_seeds(master, 4);
    assert_eq!(reps[0], master);
    let mut uniq = reps.clone();
    uniq.sort_unstable();
    uniq.dedup();
    assert_eq!(uniq.len(), 4);
}
