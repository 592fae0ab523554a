//! # iiot-bench — the experiment harness
//!
//! One function per experiment of DESIGN.md §2 (E1-E18), each returning
//! [`Table`]s that the `experiments` binary prints (and EXPERIMENTS.md
//! records). The hot experiments fan their trials out over the
//! [`runner`] worker pool; every experiment takes the shared
//! [`RunConfig`] (worker count + replication factor) and produces
//! byte-identical tables for any worker count. `cargo bench` (see
//! `benches/`) measures the substrate kernels the experiments rely on.
//!
//! # Examples
//!
//! The [`Runner`] contract: trials fan out over workers, results come
//! back in submission order regardless of the worker count.
//!
//! ```
//! use iiot_bench::{Cell, Runner, Trial};
//!
//! let mk = || (0..4).map(|i| {
//!     Trial::new(format!("t{i}"), 100 + i, |seed| vec![vec![Cell::int(seed as f64)]])
//! }).collect();
//! let seq = Runner::new(1).run(mk(), 1);
//! let par = Runner::new(4).run(mk(), 1);
//! assert_eq!(seq.len(), 4);
//! for (a, b) in seq.iter().zip(&par) {
//!     assert_eq!((&a.label, &a.rows), (&b.label, &b.rows));
//! }
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

use table::Table;

pub use runner::{Cell, MetricRows, Runner, Trial, TrialOutcome, Unit};
pub use table::Table as ResultTable;

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

/// An experiment registry entry: the experiment id and the function
/// that produces its tables under a given [`RunConfig`].
pub type Experiment = (&'static str, fn(&RunConfig) -> Vec<Table>);

/// Every experiment, in DESIGN.md order: `(id, runner)`.
pub fn all_experiments() -> Vec<Experiment> {
    vec![
        ("e1", |_| vec![exp_interop::e1_layering()]),
        ("e2", |rc| {
            vec![
                exp_scale::e2_latency_vs_hops(rc),
                exp_scale::e2_wake_ablation(rc),
            ]
        }),
        ("e3", |rc| {
            vec![
                exp_scale::e3_funneling(rc),
                exp_scale::e3_epoch_ablation(rc),
            ]
        }),
        ("e4", |rc| vec![exp_depend::e4_rnfd(rc)]),
        ("e5", |rc| vec![exp_scale::e5_size_scaling(rc)]),
        ("e6", |rc| vec![exp_scale::e6_admin_scaling(rc)]),
        ("e7", |rc| {
            vec![
                exp_depend::e7_partition(rc),
                exp_depend::e7_delta_ablation(),
            ]
        }),
        ("e8", |rc| vec![exp_depend::e8_redundancy(rc)]),
        ("e9", |_| vec![exp_depend::e9_safety_hvac()]),
        ("e10", |_| vec![exp_interop::e10_security_overhead()]),
        ("e11", |rc| {
            vec![
                exp_depend::e11_maintainability(rc),
                exp_scale::e11_trickle_ablation(rc),
                exp_depend::e11_diagnosis(),
            ]
        }),
        ("e12", |_| vec![exp_interop::e12_interop()]),
        ("e13", |rc| {
            vec![
                exp_sync::e13_drift_sweep(rc),
                exp_sync::e13_sync_error(rc),
                exp_sync::e13_guard_ablation(rc),
            ]
        }),
        ("e14", |rc| {
            vec![
                exp_dissem::e14_completion(rc),
                exp_dissem::e14_resume(rc),
                exp_dissem::e14_rollout(rc),
            ]
        }),
        ("e15", |rc| {
            vec![
                exp_icn::e15_arch(rc),
                exp_icn::e15_cache(rc),
                exp_icn::e15_poison(rc),
                exp_icn::e15_partition(rc),
            ]
        }),
        ("e16", |rc| {
            vec![
                exp_cloud::e16_ingest(rc),
                exp_cloud::e16_fairness(rc),
                exp_cloud::e16_overload(rc),
                exp_cloud::e16_bridge(rc),
            ]
        }),
        ("e17", |rc| {
            vec![
                exp_fleet::e17_blast(rc),
                exp_fleet::e17_converge(rc),
                exp_fleet::e17_twins(rc),
                exp_fleet::e17_drift(rc),
            ]
        }),
        ("e18", |rc| {
            vec![
                exp_stream::e18_tax(rc),
                exp_stream::e18_replay(rc),
                exp_stream::e18_recovery(rc),
                exp_stream::e18_admission(rc),
                exp_stream::e18_windows(rc),
            ]
        }),
    ]
}

/// Reduced-scale registry for smoke runs (`experiments --quick`): the
/// heavyweight experiments (E5, E14, E15, E16, E18) run shrunken matrices through the
/// same code paths — trial fan-out, oracle sampling mid-campaign,
/// trace capture — so the determinism contract is exercised end to end
/// while the full-scale tables (and their multi-gigabyte traces) stay
/// out of CI. Every other experiment is unchanged.
pub fn quick_experiments() -> Vec<Experiment> {
    all_experiments()
        .into_iter()
        .map(|(id, run)| match id {
            "e5" => (
                id,
                (|rc| vec![exp_scale::e5_size_scaling_with(rc, &[2, 3], 60)])
                    as fn(&RunConfig) -> Vec<Table>,
            ),
            "e14" => (
                id,
                (|rc| {
                    vec![
                        exp_dissem::e14_completion_with(rc, &[3], 600),
                        exp_dissem::e14_resume_with(rc, 4, 1920, 6, 300),
                        exp_dissem::e14_rollout_with(rc, 4, 300),
                    ]
                }) as fn(&RunConfig) -> Vec<Table>,
            ),
            "e15" => (
                id,
                (|rc| {
                    vec![
                        exp_icn::e15_arch_with(rc, &[1, 4], 30),
                        exp_icn::e15_cache_with(rc, &[8], 4, 32),
                        exp_icn::e15_poison(rc),
                        exp_icn::e15_partition_with(rc, 2, 10, 20, 30),
                    ]
                }) as fn(&RunConfig) -> Vec<Table>,
            ),
            "e16" => (
                id,
                (|rc| {
                    vec![
                        exp_cloud::e16_ingest_with(rc, &[125, 500]),
                        exp_cloud::e16_fairness_with(rc, &[1, 16], 200),
                        exp_cloud::e16_overload_with(rc, &[0.5, 2.0], 250),
                        exp_cloud::e16_bridge(rc),
                    ]
                }) as fn(&RunConfig) -> Vec<Table>,
            ),
            "e17" => (
                id,
                (|rc| {
                    use iiot_fleet::FaultArm;
                    vec![
                        exp_fleet::e17_blast_with(rc, &[4]),
                        exp_fleet::e17_converge_with(rc, &[4], &[FaultArm::None, FaultArm::Crash]),
                        exp_fleet::e17_twins_with(rc, 4, 5, 90),
                        exp_fleet::e17_drift_with(rc, 2, 30, 90),
                    ]
                }) as fn(&RunConfig) -> Vec<Table>,
            ),
            "e18" => (
                id,
                (|rc| {
                    vec![
                        exp_stream::e18_tax_with(rc, &[250]),
                        exp_stream::e18_replay_with(rc, 125),
                        exp_stream::e18_recovery_with(rc, 100),
                        exp_stream::e18_admission_with(rc, &[16], 500),
                        exp_stream::e18_windows(rc),
                    ]
                }) as fn(&RunConfig) -> Vec<Table>,
            ),
            _ => (id, run),
        })
        .collect()
}
