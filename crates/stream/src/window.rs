//! Tumbling aggregation windows over uplinks, driven by virtual-time
//! watermarks.
//!
//! A [`WindowAggregator`] folds a stream of `(tenant, metric, value,
//! event-time)` observations into per-window statistics — count, sum,
//! min, max and an approximate p99 (the workspace's log-scale
//! [`Histogram`]) — keyed by tenant × metric. Windows are tumbling:
//! aligned to multiples of the width, so each observation belongs to
//! exactly one window.
//!
//! # Watermarks and lateness
//!
//! Event time and arrival time differ the moment a gateway buffers
//! uplinks through a backhaul partition. The aggregator therefore
//! closes windows on a **watermark** — the caller advances it with
//! arrival virtual time — and a window `[s, s+width)` stays open until
//! `watermark ≥ s + width + allowed_lateness`. An observation whose
//! event time lands in a still-open window is attributed normally no
//! matter how late it arrives; one that lands in a closed window is
//! counted as *late-dropped* for its key, never silently lost. Both
//! the attribution and the drop decision are pure functions of the
//! observation/watermark sequence, so partition-delayed uplinks land
//! deterministically: replaying the same stream yields byte-identical
//! window results.
//!
//! # Store
//!
//! The windows that share a start form one group, kept as the
//! `(key, value)` pairs it accepted, in arrival order: an observation
//! is one push, and no key is hashed. Closing a group sorts it by key
//! with a stable LSD radix sort, in linear time, and folds each key's
//! run once: count, sum, min and max by [`Moments::observe`] (what
//! `Histogram::observe` runs) in arrival order, and p99 as an order
//! statistic of the run's bucket indices ([`Moments::quantile_of`]).
//! Every field is what one histogram per window would have reported,
//! bit for bit, and the results come out in key order.

use iiot_sim::obs::{Histogram, Moments};
use iiot_sim::{SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet};

/// Window geometry and lateness tolerance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WindowSpec {
    /// Window width; windows start at its multiples.
    pub width: SimDuration,
    /// How far the watermark may pass a window's end before it closes.
    pub allowed_lateness: SimDuration,
}

impl WindowSpec {
    /// Non-overlapping windows of `width`, no lateness allowance.
    pub fn tumbling(width: SimDuration) -> Self {
        WindowSpec {
            width,
            allowed_lateness: SimDuration::ZERO,
        }
    }

    /// Same geometry with an allowed-lateness budget.
    pub fn with_lateness(mut self, lateness: SimDuration) -> Self {
        self.allowed_lateness = lateness;
        self
    }
}

/// A window's key: which tenant and which metric the statistics cover.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WindowKey {
    /// The owning tenant (cloud tenant id).
    pub tenant: u16,
    /// Caller-defined metric id (the cloud tier uses the device's
    /// metric index; the twin backhaul uses the device id).
    pub metric: u32,
}

/// One closed window's statistics.
#[derive(Clone, Debug, PartialEq)]
pub struct WindowResult {
    /// Tenant × metric.
    pub key: WindowKey,
    /// Window start (inclusive).
    pub start: SimTime,
    /// Window end (exclusive; saturates at the end of representable
    /// time).
    pub end: SimTime,
    /// Observations attributed.
    pub count: u64,
    /// Sum of values.
    pub sum: f64,
    /// Smallest value.
    pub min: f64,
    /// Largest value.
    pub max: f64,
    /// Approximate 99th percentile (quarter-decade log buckets).
    pub p99: f64,
}

/// The watermark-driven aggregator; see the [module docs](self).
#[derive(Clone, Debug)]
pub struct WindowAggregator {
    spec: WindowSpec,
    watermark: SimTime,
    /// Open windows grouped by start µs, so closing is one pop from the
    /// front. A group is its accepted observations in arrival order;
    /// closing it radix-sorts them by key.
    open: BTreeMap<u64, Vec<(WindowKey, f64)>>,
    /// Window-attributions dropped for arriving after their window
    /// closed, per key.
    late: BTreeMap<WindowKey, u64>,
    observed: u64,
}

impl WindowAggregator {
    /// An empty aggregator with the watermark at virtual time zero.
    ///
    /// # Panics
    ///
    /// Panics when `spec.width` is zero: `observe` divides by it.
    pub fn new(spec: WindowSpec) -> Self {
        assert!(spec.width.as_micros() > 0, "WindowSpec::width is zero");
        WindowAggregator {
            spec,
            watermark: SimTime::ZERO,
            open: BTreeMap::new(),
            late: BTreeMap::new(),
            observed: 0,
        }
    }

    /// The aggregator's window geometry.
    pub fn spec(&self) -> WindowSpec {
        self.spec
    }

    /// The current watermark.
    pub fn watermark(&self) -> SimTime {
        self.watermark
    }

    /// Observations accepted so far (late-dropped attributions not
    /// included).
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// Late-dropped window attributions for `key`.
    pub fn late_count(&self, key: WindowKey) -> u64 {
        self.late.get(&key).copied().unwrap_or(0)
    }

    /// Total late-dropped window attributions.
    pub fn late_total(&self) -> u64 {
        self.late.values().sum()
    }

    /// Open (not yet closed) windows: distinct keys per open start.
    pub fn open_windows(&self) -> usize {
        self.open
            .values()
            .map(|group| {
                group
                    .iter()
                    .map(|&(key, _)| key)
                    .collect::<BTreeSet<_>>()
                    .len()
            })
            .sum()
    }

    /// Whether the window starting at `start_us` has already closed
    /// under the current watermark. The close instant saturates, so a
    /// window that would close past the end of representable time
    /// closes only at it.
    fn closed(&self, start_us: u64) -> bool {
        let close_at = start_us
            .saturating_add(self.spec.width.as_micros())
            .saturating_add(self.spec.allowed_lateness.as_micros());
        close_at <= self.watermark.as_micros()
    }

    /// Attributes one observation with event time `event_t` to the
    /// window containing it. Attribution to an already-closed window is
    /// counted late-dropped instead. The watermark is *not* advanced —
    /// event time may run ahead of or behind arrival time; call
    /// [`advance_watermark`](Self::advance_watermark) with arrival time.
    pub fn observe(&mut self, key: WindowKey, value: f64, event_t: SimTime) {
        let width = self.spec.width.as_micros();
        let start = event_t.as_micros() / width * width;
        if self.closed(start) {
            *self.late.entry(key).or_insert(0) += 1;
        } else {
            self.open.entry(start).or_default().push((key, value));
            self.observed += 1;
        }
    }

    /// Advances the watermark to `arrival_t` (never backwards) and
    /// closes every window whose `end + allowed_lateness` the new
    /// watermark has passed. Closed windows come back sorted by
    /// `(start, key)` — a deterministic emission order.
    pub fn advance_watermark(&mut self, arrival_t: SimTime) -> Vec<WindowResult> {
        self.watermark = self.watermark.max(arrival_t);
        let mut out = Vec::new();
        while let Some((&start, _)) = self.open.first_key_value() {
            if !self.closed(start) {
                break;
            }
            let (_, group) = self.open.pop_first().expect("start just seen");
            self.close_group(start, group, &mut out);
        }
        out
    }

    /// Closes and returns every remaining window, in `(start, key)`
    /// order (end-of-stream flush).
    pub fn flush(&mut self) -> Vec<WindowResult> {
        let mut out = Vec::new();
        for (start, group) in std::mem::take(&mut self.open) {
            self.close_group(start, group, &mut out);
        }
        out
    }

    /// Appends the results of every window starting at `start_us`, in
    /// key order. The sort is stable, so each key's run is folded in
    /// arrival order.
    fn close_group(
        &self,
        start_us: u64,
        group: Vec<(WindowKey, f64)>,
        out: &mut Vec<WindowResult>,
    ) {
        let group = radix_sort(group);
        let start = SimTime::from_micros(start_us);
        let end = SimTime::from_micros(start_us.saturating_add(self.spec.width.as_micros()));
        let mut buckets = Vec::new();
        for run in group.chunk_by(|a, b| a.0 == b.0) {
            let mut exact = Moments::EMPTY;
            buckets.clear();
            for &(_, value) in run {
                exact.observe(value);
                buckets.push(Histogram::bucket(value) as u8);
            }
            out.push(WindowResult {
                key: run[0].0,
                start,
                end,
                count: exact.count,
                sum: exact.sum,
                min: exact.min,
                max: exact.max,
                p99: exact.quantile_of(&mut buckets, 0.99),
            });
        }
    }
}

/// Sorts a group by key, stably: an LSD radix sort over the six bytes of
/// `(tenant, metric)` packed into one integer, counted in one pass, that
/// scatters only on the bytes in which the keys differ.
fn radix_sort(mut group: Vec<(WindowKey, f64)>) -> Vec<(WindowKey, f64)> {
    let packed = |key: WindowKey| (u64::from(key.tenant) << 32) | u64::from(key.metric);
    let mut counts = [[0usize; 256]; 6];
    for &(key, _) in &group {
        for (digit, c) in counts.iter_mut().enumerate() {
            c[(packed(key) >> (8 * digit)) as usize & 0xFF] += 1;
        }
    }
    let mut scratch = Vec::new();
    for (digit, c) in counts.iter_mut().enumerate() {
        let byte = |key| (packed(key) >> (8 * digit)) as usize & 0xFF;
        // A group holds at least the reading that opened it.
        if c[byte(group[0].0)] == group.len() {
            continue; // every key shares this byte
        }
        let mut next = 0; // each byte's first slot: an exclusive prefix sum
        for slot in c.iter_mut() {
            (*slot, next) = (next, next + *slot);
        }
        scratch.resize(group.len(), group[0]);
        for &item in &group {
            let slot = &mut c[byte(item.0)];
            scratch[*slot] = item;
            *slot += 1;
        }
        std::mem::swap(&mut group, &mut scratch);
    }
    group
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(tenant: u16, metric: u32) -> WindowKey {
        WindowKey { tenant, metric }
    }

    fn secs(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    fn at(s: f64) -> SimTime {
        SimTime::from_micros((s * 1e6) as u64)
    }

    #[test]
    fn far_future_event_times_are_attributed_not_overflowed() {
        // Windows near `u64::MAX` would close past the end of
        // representable time: their close instant and `end` saturate,
        // and nothing is late-dropped by a wrapped close instant.
        for spec in [
            WindowSpec::tumbling(secs(10)),
            WindowSpec::tumbling(secs(10)).with_lateness(secs(5)),
        ] {
            let mut w = WindowAggregator::new(spec);
            let t = SimTime::from_micros(u64::MAX - 5);
            w.observe(k(0, 0), 1.5, t);
            assert_eq!((w.observed(), w.late_total()), (1, 0));
            assert!(w.advance_watermark(t).is_empty(), "still open at {t:?}");
            let closed = w.flush();
            assert!(!closed.is_empty());
            for r in &closed {
                assert!(r.start <= t && t < r.end, "{r:?} covers {t:?}");
                assert_eq!((r.count, r.sum), (1, 1.5));
            }
        }
    }

    #[test]
    fn tumbling_windows_partition_the_stream() {
        let mut w = WindowAggregator::new(WindowSpec::tumbling(secs(10)));
        for i in 0..30 {
            w.observe(k(0, 0), i as f64, at(i as f64));
        }
        let mut closed = w.advance_watermark(at(30.0));
        closed.extend(w.flush());
        assert_eq!(closed.len(), 3);
        assert_eq!(closed[0].count, 10);
        assert_eq!(closed[0].sum, (0..10).sum::<u64>() as f64);
        assert_eq!((closed[1].start, closed[1].end), (at(10.0), at(20.0)));
        assert_eq!(w.late_total(), 0);
        assert_eq!(w.observed(), 30);
    }

    #[test]
    fn lateness_budget_decides_attribution_vs_drop() {
        let spec = WindowSpec::tumbling(secs(10)).with_lateness(secs(5));
        let mut w = WindowAggregator::new(spec);
        w.observe(k(0, 0), 1.0, at(2.0));
        // Watermark at 14: [0,10) closes at 15, still open — a late
        // event with event-time 9 is attributed.
        assert!(w.advance_watermark(at(14.0)).is_empty());
        w.observe(k(0, 0), 1.0, at(9.0));
        // Watermark at 15 closes [0,10); a later replay of event-time 9
        // is late-dropped.
        let closed = w.advance_watermark(at(15.0));
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].count, 2);
        w.observe(k(0, 0), 1.0, at(9.0));
        assert_eq!(w.late_count(k(0, 0)), 1);
    }

    #[test]
    fn results_are_deterministic_and_key_ordered() {
        let run = || {
            let mut w = WindowAggregator::new(WindowSpec::tumbling(secs(1)));
            for i in 0..200u64 {
                let key = k((i % 3) as u16, (i % 5) as u32);
                w.observe(key, (i % 17) as f64, at(i as f64 * 0.1));
            }
            let mut out = w.advance_watermark(at(30.0));
            out.extend(w.flush());
            out
        };
        let a = run();
        assert_eq!(a, run());
        for pair in a.windows(2) {
            assert!(
                (pair[0].start, pair[0].key) <= (pair[1].start, pair[1].key),
                "flush order must be (start, key)-sorted within each batch"
            );
        }
    }

    #[test]
    fn p99_tracks_the_tail() {
        let mut w = WindowAggregator::new(WindowSpec::tumbling(secs(100)));
        for i in 0..100 {
            let v = if i < 98 { 1.0 } else { 1000.0 };
            w.observe(k(0, 0), v, at(i as f64));
        }
        let r = &w.flush()[0];
        assert_eq!(r.max, 1000.0);
        assert!(
            r.p99 >= 100.0,
            "p99 {} must reach into the tail decade",
            r.p99
        );
        assert_eq!(r.count, 100);
    }

    #[test]
    #[should_panic(expected = "WindowSpec::width is zero")]
    fn zero_width_tumbling_spec_is_rejected() {
        WindowAggregator::new(WindowSpec::tumbling(SimDuration::ZERO));
    }
}
