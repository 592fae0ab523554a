//! Metric collection: per-node counters, and summaries of sample slices.

use crate::ids::NodeId;

/// Summary statistics over one sample slice.
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

/// Counters collected during a simulation.
///
/// Every counter is per node, keyed by name: a total over nodes is
/// [`Stats::node_total`]. Every counter is owned by an event kind
/// ([`EventKind::COUNTERS`](crate::obs::EventKind::COUNTERS)) and
/// written only by emitting it, so a counter equals its kind's trace
/// count. Names are `&'static str` (a bump allocates nothing) and are
/// read back by any `&str`.
///
/// Counters are stored as one column per name, indexed by node id, so
/// a bump finds its name in a short list and its node by index; a
/// column's memory grows with the highest node id that touched it.
///
/// # Examples
///
/// ```
/// use iiot_sim::prelude::*;
///
/// let mut sim = SimBuilder::new().nodes(Topology::line(3, 10.0), |_| Box::new(Idle)).build();
/// let late = EventKind::MacTx { outcome: "timeout" };
/// sim.schedule_at(SimTime::ZERO, move |w| w.with(NodeId(1), |_: &mut Idle, ctx| ctx.emit(late)));
/// sim.run(SimDuration::from_millis(1));
/// assert_eq!(sim.stats().get_node(NodeId(1), "mac_ack_timeout"), 1.0);
/// assert_eq!(sim.stats().node_total("mac_ack_timeout"), 1.0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Stats {
    node_counters: NodeCounters,
}

/// The per-node counters, one column per name in first-touch order.
#[derive(Clone, Default)]
struct NodeCounters(Vec<NodeColumn>);

/// The per-node counter `name`: `values[i]` is node `i`'s value, `None`
/// until that node first touches it.
#[derive(Clone)]
struct NodeColumn {
    name: &'static str,
    values: Vec<Option<f64>>,
}

impl NodeCounters {
    /// The column of counter `name`, if any node touched it.
    fn column(&self, name: &str) -> Option<&[Option<f64>]> {
        let col = self.0.iter().find(|c| c.name == name)?;
        Some(&col.values)
    }

    /// The column of counter `name`, created empty if absent.
    fn column_mut(&mut self, name: &'static str) -> &mut Vec<Option<f64>> {
        let i = match self.0.iter().position(|c| c.name == name) {
            Some(i) => i,
            None => {
                let values = Vec::new();
                self.0.push(NodeColumn { name, values });
                self.0.len() - 1
            }
        };
        &mut self.0[i].values
    }
}

/// Prints the map the columns model, keyed `(name, node)` in that
/// order, so a `{:?}` dump of [`Stats`] reads as it always has.
impl std::fmt::Debug for NodeCounters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut cols: Vec<&NodeColumn> = self.0.iter().collect();
        cols.sort_by_key(|c| c.name);
        let entries = cols.into_iter().flat_map(|c| {
            let values = c.values.iter().enumerate();
            values.filter_map(|(i, v)| Some(((c.name, NodeId(i as u32)), (*v)?)))
        });
        f.debug_map().entries(entries).finish()
    }
}

impl Stats {
    /// Adds `v` to the per-node counter `name` for `node`.
    pub(crate) fn inc_node(&mut self, node: NodeId, name: &'static str, v: f64) {
        let values = self.node_counters.column_mut(name);
        let i = node.index();
        if i >= values.len() {
            values.resize(i + 1, None);
        }
        *values[i].get_or_insert(0.0) += v;
    }

    /// Value of the per-node counter, or 0 if never touched.
    pub fn get_node(&self, node: NodeId, name: &str) -> f64 {
        let column = self.node_counters.column(name).unwrap_or_default();
        column.get(node.index()).copied().flatten().unwrap_or(0.0)
    }

    /// The entries of per-node counter `name`, in node-id order.
    fn per_node(&self, name: &str) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        let values = self.node_counters.column(name).unwrap_or_default().iter();
        let entries = values.enumerate();
        entries.filter_map(|(i, v)| Some((NodeId(i as u32), (*v)?)))
    }

    /// Sum of the per-node counter `name` over all nodes, or 0 if never
    /// touched (`+0.0`: an absent counter never prints as `-0`).
    pub fn node_total(&self, name: &str) -> f64 {
        self.per_node(name).fold(0.0, |sum, (_, v)| sum + v)
    }

    /// Per-node values of counter `name`, in node-id order: the export
    /// surface for one counter, as trial runners and tables read it.
    ///
    /// # Examples
    ///
    /// ```
    /// # use iiot_sim::prelude::*;
    /// let mut sim = SimBuilder::new().nodes(Topology::line(3, 10.0), |_| Box::new(Idle)).build();
    /// let late = EventKind::MacTx { outcome: "timeout" };
    /// sim.schedule_at(SimTime::ZERO, move |w| w.with(NodeId(2), |_: &mut Idle, ctx| ctx.emit(late)));
    /// sim.run(SimDuration::from_millis(1));
    /// assert_eq!(sim.stats().node_values("mac_ack_timeout"), [(NodeId(2), 1.0)]);
    /// assert!(sim.stats().node_values("mac_tx_fail").is_empty());
    /// ```
    pub fn node_values(&self, name: &str) -> Vec<(NodeId, f64)> {
        self.per_node(name).collect()
    }
}

/// Summarizes an arbitrary sample slice.
pub fn summarize(samples: &[f64]) -> Summary {
    if samples.is_empty() {
        return Summary::default();
    }
    let mut sorted: Vec<f64> = samples.to_vec();
    // A total order with every NaN last, whatever its sign: a NaN
    // sample sorts instead of panicking.
    sorted.sort_by(|a, b| a.is_nan().cmp(&b.is_nan()).then(a.total_cmp(b)));
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
        let mut s = Stats::default();
        s.inc_node(NodeId(2), "a", 1.0);
        s.inc_node(NodeId(2), "a", 2.0);
        assert_eq!(s.get_node(NodeId(2), "a"), 3.0);
        assert_eq!(s.node_total("a"), 3.0);
        assert_eq!(s.get_node(NodeId(7), "a"), 0.0);
        assert_eq!(s.get_node(NodeId(2), "missing"), 0.0);
        assert_eq!(s.node_total("missing").to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn node_counters() {
        let mut s = Stats::default();
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
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let sum = summarize(&samples);
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
    }

    #[test]
    fn nan_samples_sort_last_instead_of_panicking() {
        let neg_nan = -f64::NAN;
        let sum = summarize(&[3.0, f64::NAN, 1.0, neg_nan, 2.0]);
        assert_eq!(sum.count, 5);
        assert_eq!((sum.min, sum.p50), (1.0, 3.0));
        assert!(sum.max.is_nan() && sum.p99.is_nan() && sum.mean.is_nan());
        assert!(summarize(&[f64::NAN]).p50.is_nan());
    }

    mod columns_against_a_map {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeMap;

        /// What `Stats` kept per-node counters in before they became
        /// columns, and what they must still behave like.
        type Model = BTreeMap<(&'static str, NodeId), f64>;

        const NAMES: [&str; 4] = ["fwd", "mac_tx_data", "mac_tx_fail", "x"];

        fn node() -> impl Strategy<Value = NodeId> {
            // Dense low ids and sparse high ones.
            prop_oneof![0u32..8, 1_000u32..5_000].prop_map(NodeId)
        }

        fn value() -> impl Strategy<Value = f64> {
            prop_oneof![
                Just(0.0),
                Just(-0.0),
                Just(1.0),
                Just(0.1),
                Just(-2.5),
                Just(1e300),
                -1e6f64..1e6,
            ]
        }

        fn bumps() -> impl Strategy<Value = Vec<(usize, NodeId, f64)>> {
            proptest::collection::vec((0..NAMES.len(), node(), value()), 0..40)
        }

        fn apply(bumps: &[(usize, NodeId, f64)]) -> (Stats, Model) {
            let (mut stats, mut model) = (Stats::default(), Model::new());
            for &(name, node, v) in bumps {
                stats.inc_node(node, NAMES[name], v);
                *model.entry((NAMES[name], node)).or_insert(0.0) += v;
            }
            (stats, model)
        }

        /// Compares every reader, by a name built at runtime and by the
        /// literal, bit for bit.
        fn same(stats: &Stats, model: &Model) {
            for name in NAMES {
                let built = String::from_utf8(name.as_bytes().to_vec()).expect("utf-8");
                let want: Vec<(NodeId, u64)> = model
                    .range((name, NodeId(0))..=(name, NodeId(u32::MAX)))
                    .map(|(&(_, n), v)| (n, v.to_bits()))
                    .collect();
                let total = want.iter().fold(0.0, |t, &(_, v)| t + f64::from_bits(v));
                for key in [name, built.as_str()] {
                    let got = stats.node_values(key);
                    let got: Vec<(NodeId, u64)> =
                        got.into_iter().map(|(n, v)| (n, v.to_bits())).collect();
                    prop_assert_eq!(&got, &want);
                    prop_assert_eq!(stats.node_total(key).to_bits(), total.to_bits());
                    for &(n, v) in &want {
                        prop_assert_eq!(stats.get_node(n, key).to_bits(), v);
                    }
                    for n in [NodeId(3), NodeId(4_999), NodeId(u32::MAX)] {
                        let v = model.get(&(name, n)).copied().unwrap_or(0.0);
                        prop_assert_eq!(stats.get_node(n, key).to_bits(), v.to_bits());
                    }
                }
            }
            let dump = format!("{:?}", stats.node_counters);
            prop_assert_eq!(dump, format!("{model:?}"));
            prop_assert_eq!(stats.node_total("absent").to_bits(), 0.0f64.to_bits());
            prop_assert!(stats.node_values("absent").is_empty());
        }

        proptest! {
            #[test]
            fn bumps_read_as_the_map_did(a in bumps()) {
                let (stats, model) = apply(&a);
                same(&stats, &model);
            }
        }
    }
}
