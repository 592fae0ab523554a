//! Property tests for the window aggregator's store: for *any*
//! interleaving of observations and watermark advances, over tumbling
//! geometries with and without a lateness allowance, the aggregator (open windows
//! grouped by start in hash maps, the first observations held inline)
//! emits exactly what a reference that keeps one full `Histogram` per
//! `(start, key)` in a `BTreeMap` emits — every field bit for bit, in
//! the same order — and agrees on `late_count`, `observed` and
//! `open_windows` at every step.

use iiot_sim::obs::Histogram;
use iiot_sim::{SimDuration, SimTime};
use iiot_stream::{WindowAggregator, WindowKey, WindowResult, WindowSpec};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The straightforward aggregator the store must be indistinguishable
/// from.
struct Reference {
    spec: WindowSpec,
    watermark: u64,
    open: BTreeMap<(u64, WindowKey), Histogram>,
    late: BTreeMap<WindowKey, u64>,
    observed: u64,
}

impl Reference {
    fn new(spec: WindowSpec) -> Self {
        Reference {
            spec,
            watermark: 0,
            open: BTreeMap::new(),
            late: BTreeMap::new(),
            observed: 0,
        }
    }

    fn closed(&self, start: u64) -> bool {
        start + self.spec.width.as_micros() + self.spec.allowed_lateness.as_micros()
            <= self.watermark
    }

    fn observe(&mut self, key: WindowKey, value: f64, event_t: SimTime) {
        let width = self.spec.width.as_micros();
        let start = event_t.as_micros() / width * width;
        if self.closed(start) {
            *self.late.entry(key).or_insert(0) += 1;
        } else {
            self.open.entry((start, key)).or_default().observe(value);
            self.observed += 1;
        }
    }

    fn result(&self, start: u64, key: WindowKey, hist: &Histogram) -> WindowResult {
        WindowResult {
            key,
            start: SimTime::from_micros(start),
            end: SimTime::from_micros(start + self.spec.width.as_micros()),
            count: hist.count(),
            sum: hist.sum(),
            min: hist.min(),
            max: hist.max(),
            p99: hist.quantile(0.99),
        }
    }

    fn advance_watermark(&mut self, arrival_t: SimTime) -> Vec<WindowResult> {
        self.watermark = self.watermark.max(arrival_t.as_micros());
        let mut out = Vec::new();
        while let Some((&(start, key), _)) = self.open.first_key_value() {
            if !self.closed(start) {
                break;
            }
            let hist = self.open.remove(&(start, key)).expect("key just seen");
            out.push(self.result(start, key, &hist));
        }
        out
    }

    fn flush(&mut self) -> Vec<WindowResult> {
        std::mem::take(&mut self.open)
            .into_iter()
            .map(|((start, key), hist)| self.result(start, key, &hist))
            .collect()
    }
}

/// `WindowResult`'s `PartialEq` compares floats by value (NaN ≠ NaN,
/// 0.0 == -0.0); the claim is bit-identity.
fn bits(r: &WindowResult) -> (WindowKey, SimTime, SimTime, u64, [u64; 4]) {
    (
        r.key,
        r.start,
        r.end,
        r.count,
        [r.sum, r.min, r.max, r.p99].map(f64::to_bits),
    )
}

fn assert_same(got: &[WindowResult], want: &[WindowResult], what: &str) {
    assert_eq!(
        got.iter().map(bits).collect::<Vec<_>>(),
        want.iter().map(bits).collect::<Vec<_>>(),
        "{what}"
    );
}

fn ms(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}

/// Tumbling windows, with or without an allowed-lateness budget.
fn specs() -> impl Strategy<Value = WindowSpec> {
    (500u64..20_000, prop_oneof![Just(0u64), 0u64..6_000])
        .prop_map(|(width, late)| WindowSpec::tumbling(ms(width)).with_lateness(ms(late)))
}

/// Values across the histogram's range, with the awkward ones mixed in.
fn values() -> impl Strategy<Value = f64> {
    prop_oneof![
        -50.0f64..50.0,
        0.0f64..1e6,
        1e-9f64..1e-3,
        Just(0.0),
        Just(-0.0),
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
    ]
}

/// One step of the stream: `(advance?, tenant, metric, value, clock
/// step ms, event-time lag ms)`. The arrival clock only moves forward;
/// event time trails it by the lag, so some observations land in open
/// windows, some within the lateness budget and some past it.
type Step = (bool, u16, u32, f64, u64, u64);

fn steps() -> impl Strategy<Value = Vec<Step>> {
    let step = (
        (0u8..10).prop_map(|k| k >= 8),
        0u16..2,
        0u32..3,
        values(),
        0u64..200,
        prop_oneof![Just(0u64), 0u64..2_000, 0u64..30_000],
    );
    proptest::collection::vec(step, 0..600)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Six keys over up to a minute of arrivals: windows hold anything
    /// from one observation to a few dozen, so both sides of the
    /// inline/spill boundary and the boundary itself are exercised.
    #[test]
    fn store_is_indistinguishable_from_one_histogram_per_window(spec in specs(), steps in steps()) {
        let mut agg = WindowAggregator::new(spec);
        let mut reference = Reference::new(spec);
        let mut clock = 0u64;
        for (advance, tenant, metric, value, step_ms, lag_ms) in steps {
            clock += step_ms;
            if advance {
                let t = SimTime::from_micros(clock * 1000);
                assert_same(&agg.advance_watermark(t), &reference.advance_watermark(t), "advance");
            } else {
                let key = WindowKey { tenant, metric };
                let t = SimTime::from_micros(clock.saturating_sub(lag_ms) * 1000);
                agg.observe(key, value, t);
                reference.observe(key, value, t);
            }
            prop_assert_eq!(agg.open_windows(), reference.open.len());
            prop_assert_eq!(agg.observed(), reference.observed);
            prop_assert_eq!(agg.late_total(), reference.late.values().sum::<u64>());
        }
        for tenant in 0..2 {
            for metric in 0..3 {
                let key = WindowKey { tenant, metric };
                prop_assert_eq!(
                    agg.late_count(key),
                    reference.late.get(&key).copied().unwrap_or(0)
                );
            }
        }
        assert_same(&agg.flush(), &reference.flush(), "flush");
        prop_assert_eq!(agg.open_windows(), 0);
    }
}

/// Every per-window count from 1 to 20 — below, at (8) and just past
/// (9) the inline capacity — on many keys at once, so a closing group
/// is also large enough for hash order to differ from key order.
#[test]
fn every_count_around_the_spill_boundary_matches() {
    let spec = WindowSpec::tumbling(SimDuration::from_secs(10));
    let mut agg = WindowAggregator::new(spec);
    let mut reference = Reference::new(spec);
    for n in 1..=20u32 {
        for metric in (0..50).map(|m| m * 20 + n) {
            let key = WindowKey {
                tenant: (metric % 3) as u16,
                metric,
            };
            for i in 0..n {
                let value = (i as f64 - 3.5) * 10f64.powi((metric % 9) as i32 - 4);
                let t = SimTime::from_micros((i as u64 * 7 + metric as u64) * 1000);
                agg.observe(key, value, t);
                reference.observe(key, value, t);
            }
        }
    }
    assert_eq!(agg.open_windows(), reference.open.len());
    let t = SimTime::from_micros(10_000_000);
    let got = agg.advance_watermark(t);
    assert_eq!(got.len(), 1000);
    for n in 1..=20 {
        assert_eq!(got.iter().filter(|r| r.count == n).count(), 50);
    }
    assert_same(&got, &reference.advance_watermark(t), "advance");
    assert_same(&agg.flush(), &reference.flush(), "flush");
}
