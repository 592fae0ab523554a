//! Metric collection: counters and sample series for experiments.

use crate::ids::NodeId;
use std::collections::BTreeMap;

/// Summary statistics over one sample series.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean (0 if empty).
    pub mean: f64,
    /// Minimum (0 if empty).
    pub min: f64,
    /// Maximum (0 if empty).
    pub max: f64,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

/// Counters and sample series collected during a simulation.
///
/// Counters are keyed by name (and optionally node); series accumulate
/// raw samples, e.g. per-packet latencies, and can be summarized. Names
/// are written as `&'static str` (every writer passes a literal, so a
/// bump allocates nothing) and read back by any `&str`.
///
/// # Examples
///
/// ```
/// use iiot_sim::trace::Stats;
/// use iiot_sim::NodeId;
///
/// let mut s = Stats::new();
/// s.inc("tx", 1.0);
/// s.inc_node(NodeId(3), "tx", 1.0);
/// s.record("latency_s", 0.25);
/// assert_eq!(s.get("tx"), 1.0);
/// assert_eq!(s.get_node(NodeId(3), "tx"), 1.0);
/// assert_eq!(s.summary("latency_s").count, 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Stats {
    counters: BTreeMap<&'static str, f64>,
    node_counters: BTreeMap<(&'static str, NodeId), f64>,
    series: BTreeMap<&'static str, Vec<f64>>,
}

impl Stats {
    /// An empty collection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `v` to the global counter `name`.
    pub fn inc(&mut self, name: &'static str, v: f64) {
        *self.counters.entry(name).or_insert(0.0) += v;
    }

    /// Adds `v` to the per-node counter `name` for `node`.
    pub fn inc_node(&mut self, node: NodeId, name: &'static str, v: f64) {
        *self.node_counters.entry((name, node)).or_insert(0.0) += v;
    }

    /// Value of the global counter `name`, or 0 if never touched.
    pub fn get(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Value of the per-node counter, or 0 if never touched.
    pub fn get_node(&self, node: NodeId, name: &str) -> f64 {
        self.node_counters
            .get(&(name, node))
            .copied()
            .unwrap_or(0.0)
    }

    /// The entries of per-node counter `name`, in node-id order.
    fn per_node<'a>(&'a self, name: &'a str) -> impl Iterator<Item = (NodeId, f64)> + 'a {
        self.node_counters
            .range((name, NodeId(0))..=(name, NodeId(u32::MAX)))
            .map(|((_, id), v)| (*id, *v))
    }

    /// Sum of the per-node counter `name` over all nodes.
    pub fn node_total(&self, name: &str) -> f64 {
        self.per_node(name).map(|(_, v)| v).sum()
    }

    /// Per-node values of counter `name`, in node-id order.
    pub fn node_values(&self, name: &str) -> Vec<(NodeId, f64)> {
        self.per_node(name).collect()
    }

    /// Appends a raw sample to the series `name`.
    pub fn record(&mut self, name: &'static str, v: f64) {
        self.series.entry(name).or_default().push(v);
    }

    /// The raw samples of series `name` (empty slice if absent).
    pub fn samples(&self, name: &str) -> &[f64] {
        self.series.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Summary statistics of series `name`.
    pub fn summary(&self, name: &str) -> Summary {
        summarize(self.samples(name))
    }

    /// All global counters as `(name, value)` pairs, in name order.
    /// The stable export surface used by trial runners and JSON dumps.
    ///
    /// # Examples
    ///
    /// ```
    /// use iiot_sim::trace::Stats;
    ///
    /// let mut s = Stats::new();
    /// s.inc("rx", 2.0);
    /// s.inc("tx", 5.0);
    /// let all: Vec<_> = s.counters().collect();
    /// assert_eq!(all, vec![("rx", 2.0), ("tx", 5.0)]);
    /// ```
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.counters.iter().map(|(k, v)| (*k, *v))
    }

    /// Merges another `Stats` into this one (counters add, series append).
    pub fn merge(&mut self, other: &Stats) {
        for (k, v) in &other.counters {
            *self.counters.entry(k).or_insert(0.0) += v;
        }
        for (k, v) in &other.node_counters {
            *self.node_counters.entry(*k).or_insert(0.0) += v;
        }
        for (k, v) in &other.series {
            self.series.entry(k).or_default().extend(v);
        }
    }
}

/// Summarizes an arbitrary sample slice.
pub fn summarize(samples: &[f64]) -> Summary {
    if samples.is_empty() {
        return Summary::default();
    }
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let pct = |p: f64| -> f64 {
        let idx = ((sorted.len() as f64 - 1.0) * p).floor() as usize;
        sorted[idx]
    };
    Summary {
        count: sorted.len(),
        mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
        min: sorted[0],
        max: *sorted.last().expect("non-empty"),
        p50: pct(0.50),
        p95: pct(0.95),
        p99: pct(0.99),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut s = Stats::new();
        s.inc("a", 1.0);
        s.inc("a", 2.0);
        assert_eq!(s.get("a"), 3.0);
        assert_eq!(s.get("missing"), 0.0);
    }

    #[test]
    fn node_counters() {
        let mut s = Stats::new();
        s.inc_node(NodeId(0), "fwd", 2.0);
        s.inc_node(NodeId(1), "fwd", 3.0);
        s.inc_node(NodeId(1), "other", 9.0);
        assert_eq!(s.get_node(NodeId(1), "fwd"), 3.0);
        assert_eq!(s.node_total("fwd"), 5.0);
        // Writers pass literals; readers may hold any `&str`.
        let built = ["f", "wd"].concat();
        assert_eq!(s.get_node(NodeId(1), &built), 3.0);
        assert_eq!(s.node_total(&built), 5.0);
        assert_eq!(s.node_values(&built).len(), 2);
        assert_eq!(
            s.node_values("fwd"),
            vec![(NodeId(0), 2.0), (NodeId(1), 3.0)]
        );
    }

    #[test]
    fn series_summary() {
        let mut s = Stats::new();
        for i in 1..=100 {
            s.record("lat", i as f64);
        }
        let sum = s.summary("lat");
        assert_eq!(sum.count, 100);
        assert_eq!(sum.min, 1.0);
        assert_eq!(sum.max, 100.0);
        assert!((sum.mean - 50.5).abs() < 1e-9);
        assert_eq!(sum.p50, 50.0);
        assert_eq!(sum.p95, 95.0);
        assert_eq!(sum.p99, 99.0);
    }

    #[test]
    fn empty_summary_is_zeroed() {
        assert_eq!(summarize(&[]), Summary::default());
        let s = Stats::new();
        assert_eq!(s.summary("none").count, 0);
        assert!(s.samples("none").is_empty());
    }

    #[test]
    fn merge_combines() {
        let mut a = Stats::new();
        a.inc("x", 1.0);
        a.record("r", 1.0);
        let mut b = Stats::new();
        b.inc("x", 2.0);
        b.record("r", 2.0);
        b.inc_node(NodeId(0), "n", 1.0);
        a.merge(&b);
        assert_eq!(a.get("x"), 3.0);
        assert_eq!(a.samples("r"), &[1.0, 2.0]);
        assert_eq!(a.get_node(NodeId(0), "n"), 1.0);
    }
}
