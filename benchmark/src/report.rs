//! What one pass over one workload produces, and the loop that repeats a
//! timed region for a fixed number of host seconds.

use crate::metric;
use crate::trace::{CallStat, Tracer};
use std::collections::BTreeMap;
use std::time::Instant;

/// The result of one pass (untraced or traced) over one workload.
#[derive(Default)]
pub struct Outcome {
    /// One line per failed correctness check, naming workload and
    /// invariant. Empty means correct.
    pub failures: Vec<String>,
    /// Context for the human report (sizes, iteration counts, modes).
    pub notes: Vec<String>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Metric values by name. A per-layer metric a workload does not set
    /// reads 0: that layer did no work.
    pub values: BTreeMap<&'static str, f64>,
    /// Per-`(layer, callback)` totals of the last traced iteration.
    pub aggregates: Vec<(String, CallStat)>,
    /// Spans of the last traced iteration.
    pub tracer: Option<Tracer>,
}

impl Outcome {
    /// Records metric `name`.
    ///
    /// # Panics
    ///
    /// Panics when `name` is not in [`metric::END_TO_END`] or
    /// [`metric::PER_LAYER`]: a misspelt name would otherwise vanish.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(metric::find(name).is_some(), "unknown metric {name}");
        // Adding 0.0 turns the -0.0 an empty float sum yields into 0.0.
        self.values.insert(name, value + 0.0);
    }

    /// Records the `trace.*` metrics every traced pass shares, from the
    /// fastest untraced and the fastest traced iteration, and keeps the
    /// latter's spans for the trace file. What the root span's children
    /// leave uncovered is harness glue no layer is charged for.
    pub fn set_trace(
        &mut self,
        plain_wall: f64,
        traced_wall: f64,
        traced_n: usize,
        tracer: &Tracer,
    ) {
        self.set("trace.overhead_x", traced_wall / plain_wall);
        self.set("trace.iterations", traced_n as f64);
        self.set("trace.iter_s", traced_wall);
        self.set("trace.untraced_iter_s", plain_wall);
        self.set(
            "trace.accounted_share",
            1.0 - tracer.self_s(0) / traced_wall,
        );
        self.tracer = Some(tracer.clone());
    }

    /// Records a failed correctness check.
    pub fn fail(&mut self, what: String) {
        self.failures.push(what);
    }

    /// Records a line of context.
    pub fn note(&mut self, what: String) {
        self.notes.push(what);
    }
}

/// Calls `f(i)` for `i = 0, 1, ...` until at least `min` calls were made
/// and `seconds` of host time have passed since the first began.
pub fn repeat<T>(seconds: f64, min: usize, mut f: impl FnMut(usize) -> T) -> Vec<T> {
    let started = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || started.elapsed().as_secs_f64() < seconds {
        out.push(f(out.len()));
    }
    out
}

/// Host seconds of each of 15 calls of `set_up`, after 8 untimed ones
/// (what it builds is dropped outside the timing). The sim workloads take
/// their `setup_s` samples this way, first thing in the process, so every
/// run times its set-ups from the same allocator state. The untimed calls
/// matter when a set-up is a few milliseconds of allocation: the first
/// five or six in a fresh process fault their memory in and run 1.5x
/// slower, and a median taken over both regimes flips between them.
pub fn setup_samples<T>(mut set_up: impl FnMut() -> T) -> Vec<f64> {
    let mut timed = || {
        let started = Instant::now();
        let built = set_up();
        let s = started.elapsed().as_secs_f64();
        drop(built);
        s
    };
    for _ in 0..8 {
        timed();
    }
    (0..15).map(|_| timed()).collect()
}

/// The iteration with the smallest `key`: the fastest one.
///
/// Host times are reported from the fastest iteration, not the median.
/// Iterations of one seed do identical work, and what differs between
/// them is interference, which only ever adds time: on the shared
/// machines this runs on, neighbours' memory traffic slows a
/// cache-missing simulation by 10-20 % for tens of seconds at a time.
/// Over one recorded series of 103 `field_dense` iterations cut into
/// runs of six, the run medians spread (interquartile range over median)
/// 7.1 %, the run minima 3.3 %.
///
/// # Panics
///
/// Panics when `iters` is empty.
pub fn fastest<T>(iters: &[T], key: impl Fn(&T) -> f64) -> &T {
    iters
        .iter()
        .min_by(|a, b| key(a).total_cmp(&key(b)))
        .expect("at least one iteration")
}

/// Peak resident set size of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeat_honours_both_the_minimum_and_the_clock() {
        assert_eq!(repeat(0.0, 3, |i| i), vec![0, 1, 2]);
        let started = Instant::now();
        let n = repeat(0.02, 1, |_| {
            std::thread::sleep(std::time::Duration::from_millis(5))
        })
        .len();
        assert!(started.elapsed().as_secs_f64() >= 0.02);
        assert!(n >= 1);
    }

    #[test]
    fn fastest_picks_the_smallest_key() {
        assert_eq!(*fastest(&[3.0, 1.5, 2.0], |v| *v), 1.5);
    }

    #[test]
    fn peak_rss_is_read_from_proc() {
        assert!(peak_rss_mib() > 1.0);
    }
}
