//! # iiot-bench — the experiment harness
//!
//! One function per experiment of DESIGN.md §2 (E1-E18), each returning
//! a [`Table`] that the `experiments` binary prints (and EXPERIMENTS.md
//! records). Every sweep has one shape: it builds its configuration
//! points as [`Trial`]s and hands them to [`RunConfig::table`], which
//! fans them out over the [`runner`] worker pool (`--jobs`), replicates
//! them (`--trials`) and appends every row in submission order, so the
//! table is byte-identical for any worker count. The axes each
//! experiment runs at, full scale and `--quick`, live in one registry,
//! [`all_experiments`]. `cargo bench` (see `benches/`) measures the
//! substrate kernels the experiments rely on.
//!
//! # Examples
//!
//! Trials in, one table out, whatever the worker count:
//!
//! ```
//! use iiot_bench::{Cell, RunConfig, Runner, Trial};
//!
//! let table = |jobs| {
//!     let rc = RunConfig { runner: Runner::new(jobs), trials: 1 };
//!     let trials = (0..4).map(|i| {
//!         Trial::new(format!("t{i}"), 100 + i, |seed| vec![vec![Cell::int(seed as f64)]])
//!     });
//!     rc.table("demo", &["seed"], trials)
//! };
//! assert_eq!(table(1).rows().len(), 4);
//! assert_eq!(table(1), table(4));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod exp_cloud;
pub mod exp_depend;
pub mod exp_dissem;
pub mod exp_fleet;
pub mod exp_icn;
pub mod exp_interop;
pub mod exp_perf;
pub mod exp_scale;
pub mod exp_stream;
pub mod exp_sync;
pub mod report;
pub mod runner;
pub mod table;

use iiot_fleet::FaultArm;
use table::Table;

pub use runner::{Cell, MetricRows, Runner, Trial, Unit};

/// How the harness executes experiments: the worker pool and the
/// replication factor (`--trials`).
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// The trial scheduler.
    pub runner: Runner,
    /// Replicas per trial; values above 1 aggregate numeric cells as
    /// `mean (p95 x)` over seeds split from each trial's base seed.
    pub trials: u32,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            runner: Runner::sequential(),
            trials: 1,
        }
    }
}

impl RunConfig {
    /// Runs `trials` in one [`Runner::run`] batch — so under `--trace`
    /// they share one trace section — and returns the table of every row
    /// of every trial, in submission order.
    ///
    /// # Panics
    ///
    /// Panics if a row's width differs from the header count, or where
    /// [`Runner::run`] does.
    pub fn table(
        &self,
        title: impl Into<String>,
        headers: &[&str],
        trials: impl IntoIterator<Item = Trial>,
    ) -> Table {
        let mut t = Table::new(title, headers);
        for row in self
            .runner
            .run(trials.into_iter().collect(), self.trials)
            .into_iter()
            .flatten()
        {
            t.row(row);
        }
        t
    }
}

/// An experiment registry entry: the experiment id and the function
/// that produces its tables under a given [`RunConfig`], at full scale
/// or, when the flag is `true`, at `--quick` scale.
pub type Experiment = (&'static str, fn(&RunConfig, bool) -> Vec<Table>);

/// Every experiment, in DESIGN.md order: `(id, runner)`.
///
/// Each entry holds the axes its experiment runs at. The heavyweight
/// ones — E5, E14, E15, E16, E17 and E18 — hold a reduced `--quick`
/// matrix beside the full one: the same code paths (trial fan-out,
/// oracle sampling mid-campaign, trace capture) so CI's smoke runs
/// exercise the determinism contract end to end, while the full-scale
/// tables (and their multi-gigabyte traces) stay out of CI. Every other
/// experiment ignores the flag.
pub fn all_experiments() -> Vec<Experiment> {
    vec![
        ("e1", |_, _| vec![exp_interop::e1_layering()]),
        ("e2", |rc, _| {
            vec![
                exp_scale::e2_latency_vs_hops(rc, 460),
                exp_scale::e2_wake_ablation(rc),
            ]
        }),
        ("e3", |rc, _| {
            vec![
                exp_scale::e3_funneling(rc),
                exp_scale::e3_epoch_ablation(rc),
            ]
        }),
        ("e4", |rc, _| vec![exp_depend::e4_rnfd(rc)]),
        ("e5", |rc, quick| {
            vec![if quick {
                exp_scale::e5_size_scaling(rc, &[2, 3], 60)
            } else {
                exp_scale::e5_size_scaling(rc, &[3, 5, 8, 12, 17], 400)
            }]
        }),
        ("e6", |rc, _| vec![exp_scale::e6_admin_scaling(rc)]),
        ("e7", |rc, _| {
            vec![
                exp_depend::e7_partition(rc),
                exp_depend::e7_delta_ablation(),
            ]
        }),
        ("e8", |rc, _| vec![exp_depend::e8_redundancy(rc)]),
        ("e9", |_, _| vec![exp_depend::e9_safety_hvac()]),
        ("e10", |_, _| vec![exp_interop::e10_security_overhead()]),
        ("e11", |rc, _| {
            vec![
                exp_depend::e11_maintainability(rc),
                exp_scale::e11_trickle_ablation(rc),
                exp_depend::e11_diagnosis(),
            ]
        }),
        ("e12", |_, _| vec![exp_interop::e12_interop()]),
        ("e13", |rc, _| {
            // Drift up to 200 ppm, 12 hops of sync error over 300 s.
            vec![
                exp_sync::e13_drift_sweep(rc, &[0, 10, 50, 100, 200], 240),
                exp_sync::e13_sync_error(rc, 13, 300),
                exp_sync::e13_guard_ablation(rc, &[0, 100, 500, 1000, 4000], 240),
            ]
        }),
        ("e14", |rc, quick| {
            if quick {
                vec![
                    exp_dissem::e14_completion(rc, &[3], 600),
                    exp_dissem::e14_resume(rc, 4, 1920, 6, 300),
                    exp_dissem::e14_rollout(rc, 4, 300),
                ]
            } else {
                // 4x4 to 6x6 grids; then a 7x7 grid whose far corner
                // crashes 6 s into a 5120 B (16-page) image — mid-download.
                vec![
                    exp_dissem::e14_completion(rc, &[4, 5, 6], 1800),
                    exp_dissem::e14_resume(rc, 7, 5120, 6, 600),
                    exp_dissem::e14_rollout(rc, 7, 600),
                ]
            }
        }),
        ("e15", |rc, quick| {
            if quick {
                vec![
                    exp_icn::e15_arch(rc, &[1, 4], 30),
                    exp_icn::e15_cache(rc, &[8], 4, 32),
                    exp_icn::e15_poison(rc),
                    exp_icn::e15_partition(rc, 2, 10, 20, 30),
                ]
            } else {
                // 1 to 16 consumers over 60 s; 4 s to 16 s republish to 8
                // consumers over 64 s; a 20 s outage in a 60 s run.
                vec![
                    exp_icn::e15_arch(rc, &[1, 2, 4, 8, 16], 60),
                    exp_icn::e15_cache(rc, &[4, 8, 16], 8, 64),
                    exp_icn::e15_poison(rc),
                    exp_icn::e15_partition(rc, 4, 20, 40, 60),
                ]
            }
        }),
        ("e16", |rc, quick| {
            if quick {
                vec![
                    exp_cloud::e16_ingest(rc, &[125, 500]),
                    exp_cloud::e16_fairness(rc, &[1, 16], 200),
                    exp_cloud::e16_overload(rc, &[0.5, 2.0], 250),
                    exp_cloud::e16_bridge(rc),
                ]
            } else {
                // 25k, 100k and 250k sessions (100k-1M messages) through
                // one pipeline; a noisy tenant at 1-64x among 8k sessions;
                // utilization 0.5 -> 2.0 over 10k sessions.
                vec![
                    exp_cloud::e16_ingest(rc, &[6_250, 25_000, 62_500]),
                    exp_cloud::e16_fairness(rc, &[1, 4, 16, 64], 2_000),
                    exp_cloud::e16_overload(rc, &[0.5, 0.9, 1.2, 2.0], 2_500),
                    exp_cloud::e16_bridge(rc),
                ]
            }
        }),
        ("e17", |rc, quick| {
            if quick {
                vec![
                    exp_fleet::e17_blast(rc, &[4]),
                    exp_fleet::e17_converge(rc, &[4], &[FaultArm::None, FaultArm::Crash]),
                    exp_fleet::e17_twins(rc, 4, 5, 90),
                    exp_fleet::e17_drift(rc, 2, 30, 90),
                ]
            } else {
                // The twin partition opens at the activation tick, before
                // any node finishes its download, so every partitioned
                // network's reports queue at the gateway replica until the
                // heal; a later window would miss the campaign (flat
                // activation converges in seconds) and measure zero lag.
                vec![
                    exp_fleet::e17_blast(rc, &[4, 16, 32]),
                    exp_fleet::e17_converge(
                        rc,
                        &[4, 16, 32],
                        &[FaultArm::None, FaultArm::Crash, FaultArm::Wipe],
                    ),
                    exp_fleet::e17_twins(rc, 8, 5, 160),
                    exp_fleet::e17_drift(rc, 4, 50, 200),
                ]
            }
        }),
        ("e18", |rc, quick| {
            if quick {
                vec![
                    exp_stream::e18_tax(rc, &[250]),
                    exp_stream::e18_replay(rc, 125),
                    exp_stream::e18_recovery(rc, 100),
                    exp_stream::e18_admission(rc, &[16], 500),
                    exp_stream::e18_windows(rc),
                ]
            } else {
                // 10k and 50k sessions; 32k messages with a 16x noisy
                // neighbour; a 4k-record log (144 KiB, ~36 sealed
                // segments); E16b's 8k-session scale at 4x and 64x.
                vec![
                    exp_stream::e18_tax(rc, &[2_500, 12_500]),
                    exp_stream::e18_replay(rc, 500),
                    exp_stream::e18_recovery(rc, 250),
                    exp_stream::e18_admission(rc, &[4, 64], 2_000),
                    exp_stream::e18_windows(rc),
                ]
            }
        }),
    ]
}
