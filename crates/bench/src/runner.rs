//! Parallel deterministic trial execution.
//!
//! Every experiment in this harness is a set of *trials* — independent
//! `(configuration, seed)` simulation runs whose outputs become table
//! rows. Trials share nothing, so they parallelize embarrassingly; the
//! only thing that must not change with the worker count is the
//! *output*. The [`Runner`] guarantees that by construction:
//!
//! * each trial's seed is fixed before anything runs (derived from the
//!   experiment's master seed via [`iiot_sim::seed`], never from
//!   execution order);
//! * workers pull trials from a shared queue, but results are collected
//!   by submission index, so the assembled tables are byte-identical
//!   whether `--jobs` is 1 or 64;
//! * replicated runs (`--trials N`) aggregate numeric cells across
//!   replicas positionally (mean and p95), with replica seeds split
//!   from the trial seed.
//!
//! Experiments reach the runner through [`RunConfig::table`](crate::RunConfig::table),
//! which turns one batch of trials into one table.

use crate::table::{f1, f3, pct};
use iiot_sim::seed::replica_seeds;
use std::sync::atomic::{AtomicUsize, Ordering};

/// How a [`Cell::Value`] renders in a table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Unit {
    /// One decimal place (`table::f1`).
    F1,
    /// Three decimal places (`table::f3`).
    F3,
    /// Percentage with one decimal (`table::pct`).
    Pct,
    /// Integer count (renders the mean with one decimal when
    /// aggregated over replicas).
    Int,
}

impl Unit {
    fn format(self, v: f64) -> String {
        match self {
            Unit::F1 => f1(v),
            Unit::F3 => f3(v),
            Unit::Pct => pct(v),
            Unit::Int => format!("{}", v.round() as i64),
        }
    }

    fn format_mean(self, v: f64) -> String {
        match self {
            Unit::Int => f1(v),
            u => u.format(v),
        }
    }
}

/// One cell of a trial's metric rows: either a fixed label (config
/// names, axis values) or a measured number with its display unit.
/// Labels must agree across replicas of a trial; values aggregate.
#[derive(Clone, Debug, PartialEq)]
pub enum Cell {
    /// Fixed text, identical across replicas.
    Label(String),
    /// A measurement and how to format it.
    Value(f64, Unit),
}

impl Cell {
    /// A fixed-text cell.
    pub fn label(s: impl Into<String>) -> Self {
        Cell::Label(s.into())
    }

    /// A one-decimal value.
    pub fn f1(v: f64) -> Self {
        Cell::Value(v, Unit::F1)
    }

    /// A three-decimal value.
    pub fn f3(v: f64) -> Self {
        Cell::Value(v, Unit::F3)
    }

    /// A ratio rendered as a percentage.
    pub fn pct(v: f64) -> Self {
        Cell::Value(v, Unit::Pct)
    }

    /// An integer count.
    pub fn int(v: f64) -> Self {
        Cell::Value(v, Unit::Int)
    }
}

/// The metric rows one trial produces (cells, not yet formatted).
pub type MetricRows = Vec<Vec<Cell>>;

/// One schedulable unit: a label, the trial's base seed, and the
/// simulation closure. The closure receives the seed to run with —
/// the base seed itself, or a replica seed split from it — and must be
/// a pure function of that seed.
pub struct Trial {
    label: String,
    seed: u64,
    run: Box<dyn Fn(u64) -> MetricRows + Send + Sync>,
}

impl Trial {
    /// Creates a trial. `run` is called once per replica with the seed
    /// to simulate under.
    pub fn new(
        label: impl Into<String>,
        seed: u64,
        run: impl Fn(u64) -> MetricRows + Send + Sync + 'static,
    ) -> Self {
        Trial {
            label: label.into(),
            seed,
            run: Box::new(run),
        }
    }
}

/// Fans trials out over a scoped worker pool and collects results in
/// deterministic submission order.
#[derive(Clone, Copy, Debug)]
pub struct Runner {
    jobs: usize,
}

impl Default for Runner {
    fn default() -> Self {
        Runner::sequential()
    }
}

impl Runner {
    /// A runner with `jobs` workers (clamped to at least 1).
    pub fn new(jobs: usize) -> Self {
        Runner { jobs: jobs.max(1) }
    }

    /// A single-worker runner: trials run one after another on one
    /// thread, in submission order.
    pub fn sequential() -> Self {
        Runner::new(1)
    }

    /// A runner with one worker per available core.
    pub fn available_parallelism() -> Self {
        Runner::new(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }

    /// The worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Runs every trial `replicas` times and returns each trial's rows,
    /// formatted and aggregated over its replicas, in the order the
    /// trials were passed in.
    ///
    /// Replica seeds are split from each trial's base seed with
    /// [`iiot_sim::seed::replica_seeds`], so the work plan is fixed
    /// before any worker starts; the output is independent of the
    /// worker count and of scheduling.
    ///
    /// # Panics
    ///
    /// Panics if a trial's replicas disagree on row shape or label
    /// cells (a trial closure that is not a pure function of its seed),
    /// or if a trial closure panics.
    pub fn run(&self, trials: Vec<Trial>, replicas: u32) -> Vec<Vec<Vec<String>>> {
        let replicas = replicas.max(1);
        // Section ids are allocated here, in submission order, before
        // any worker runs: trace scope keys depend only on the call
        // sequence, never on scheduling.
        let section = iiot_sim::obs::begin_section();
        // The full work plan, fixed up front: one job per (trial,
        // replica), each with its pre-derived seed.
        let jobs: Vec<(usize, u32, u64)> = trials
            .iter()
            .enumerate()
            .flat_map(|(t, trial)| {
                replica_seeds(trial.seed, replicas)
                    .into_iter()
                    .enumerate()
                    .map(move |(r, seed)| (t, r as u32, seed))
            })
            .collect();

        let next = AtomicUsize::new(0);
        let (tx, rx) = std::sync::mpsc::channel();
        let trials_ref: &[Trial] = &trials;
        let jobs_ref: &[(usize, u32, u64)] = &jobs;
        let workers = self.jobs.min(jobs.len().max(1));
        std::thread::scope(|s| {
            for _ in 0..workers {
                let tx = tx.clone();
                let next = &next;
                s.spawn(move || {
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&(t, r, seed)) = jobs_ref.get(i) else {
                            break;
                        };
                        // Tag the worker thread so any worlds the trial
                        // builds record into the trace sink under a
                        // deterministic (section, trial, replica) key.
                        if iiot_sim::obs::tracing_enabled() {
                            iiot_sim::obs::set_scope(section, t as u32, r, &trials_ref[t].label);
                        }
                        let rows = (trials_ref[t].run)(seed);
                        iiot_sim::obs::clear_scope();
                        tx.send((t, r, rows)).expect("collector alive");
                    }
                });
            }
            drop(tx);
            // Collect by (trial, replica) index: arrival order is
            // scheduling-dependent, the slots are not.
            let mut slots: Vec<Vec<Option<MetricRows>>> = (0..trials.len())
                .map(|_| (0..replicas as usize).map(|_| None).collect())
                .collect();
            for (t, r, rows) in rx.iter() {
                slots[t][r as usize] = Some(rows);
            }
            slots
        })
        .into_iter()
        .zip(&trials)
        .map(|(reps, trial)| {
            let reps: Vec<MetricRows> = reps.into_iter().map(|r| r.expect("job ran")).collect();
            aggregate(trial, &reps)
        })
        .collect()
    }
}

/// Folds a trial's replicas into its formatted rows.
fn aggregate(trial: &Trial, reps: &[MetricRows]) -> Vec<Vec<String>> {
    reps[0]
        .iter()
        .enumerate()
        .map(|(i, row)| {
            row.iter()
                .enumerate()
                .map(|(j, cell)| match cell {
                    Cell::Label(s) => {
                        for other in &reps[1..] {
                            assert_eq!(
                                Some(cell),
                                other.get(i).and_then(|r| r.get(j)),
                                "trial '{}': label cell differs across replicas",
                                trial.label
                            );
                        }
                        s.clone()
                    }
                    Cell::Value(_, unit) => {
                        let vals: Vec<f64> = reps
                            .iter()
                            .map(|rows| match rows.get(i).and_then(|r| r.get(j)) {
                                Some(Cell::Value(v, u)) if u == unit => *v,
                                other => panic!(
                                    "trial '{}': replica value cell mismatch at \
                                     ({i},{j}): {other:?}",
                                    trial.label
                                ),
                            })
                            .collect();
                        if reps.len() == 1 {
                            unit.format(vals[0])
                        } else {
                            let s = iiot_sim::trace::summarize(&vals);
                            format!("{} (p95 {})", unit.format_mean(s.mean), unit.format(s.p95))
                        }
                    }
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_trials(n: usize) -> Vec<Trial> {
        (0..n)
            .map(|i| {
                Trial::new(format!("t{i}"), 100 + i as u64, move |seed| {
                    vec![vec![
                        Cell::label(format!("t{i}")),
                        Cell::Value(seed as f64, Unit::F1),
                    ]]
                })
            })
            .collect()
    }

    #[test]
    fn order_is_submission_order_regardless_of_jobs() {
        let seq = Runner::new(1).run(toy_trials(9), 1);
        let par = Runner::new(4).run(toy_trials(9), 1);
        assert_eq!(seq.len(), 9);
        assert_eq!(seq, par);
    }

    #[test]
    fn single_replica_formats_plainly() {
        let out = Runner::sequential().run(toy_trials(1), 1);
        assert_eq!(out[0], vec![vec!["t0".to_string(), "100.0".into()]]);
    }

    #[test]
    fn replicas_aggregate_mean_and_p95() {
        // Value = seed, seeds = [10, derive(10,1), derive(10,2)]: the
        // aggregate must be the mean/p95 of exactly those, independent
        // of jobs.
        let mk = || {
            vec![Trial::new("x", 10, |seed| {
                vec![vec![Cell::Value((seed % 7) as f64, Unit::F1)]]
            })]
        };
        let a = Runner::new(1).run(mk(), 3);
        let b = Runner::new(3).run(mk(), 3);
        assert_eq!(a, b);
        assert!(a[0][0][0].contains("(p95 "), "{a:?}");
    }

    #[test]
    #[should_panic(expected = "label cell differs")]
    fn impure_labels_are_caught() {
        let t = Trial::new("bad", 1, |seed| vec![vec![Cell::label(format!("{seed}"))]]);
        Runner::sequential().run(vec![t], 2);
    }

    #[test]
    fn more_jobs_than_trials_is_fine() {
        let out = Runner::new(64).run(toy_trials(2), 1);
        assert_eq!(out.len(), 2);
    }
}
