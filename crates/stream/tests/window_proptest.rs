//! Property tests for the window aggregator's store: for *any*
//! interleaving of observations and watermark advances, over tumbling
//! geometries with and without a lateness allowance, the aggregator (open windows
//! grouped by start, each group its observations in arrival order,
//! radix-sorted by key when it closes and folded once per key) emits exactly what a reference that keeps one full `Histogram` per
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
    /// from one observation to a few dozen, their keys interleaved in
    /// arrival order.
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

/// Every per-window count from 1 to 20 on 1,000 keys sharing one
/// start: a closing group whose keys arrived out of key order.
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

/// Feeds `obs` (key, value, event time in ms) to both stores and
/// compares every result at one mid-stream advance and at the flush.
fn check_against_reference(obs: impl IntoIterator<Item = (WindowKey, f64, u64)>) {
    let spec = WindowSpec::tumbling(SimDuration::from_secs(10));
    let mut agg = WindowAggregator::new(spec);
    let mut reference = Reference::new(spec);
    for (key, value, ms) in obs {
        let t = SimTime::from_micros(ms * 1000);
        agg.observe(key, value, t);
        reference.observe(key, value, t);
    }
    assert_eq!(agg.open_windows(), reference.open.len());
    let t = SimTime::from_micros(10_000_000);
    assert_same(
        &agg.advance_watermark(t),
        &reference.advance_watermark(t),
        "advance",
    );
    assert_same(&agg.flush(), &reference.flush(), "flush");
}

/// Keys at both ends of each field's range, mixed with small ones: a
/// sort key that lets a large tenant overlap the metric bits, orders by
/// metric first or narrows either field emits in the wrong order.
#[test]
fn keys_at_the_ends_of_their_ranges_close_in_key_order() {
    let tenants = [0, 1, 2, 0x7fff, 0x8000, u16::MAX - 1, u16::MAX];
    let metrics = [
        0,
        1,
        2,
        0xffff,
        0x1_0000,
        0x8000_0000,
        u32::MAX - 1,
        u32::MAX,
    ];
    let keys: Vec<WindowKey> = tenants
        .iter()
        .flat_map(|&tenant| {
            metrics
                .iter()
                .map(move |&metric| WindowKey { tenant, metric })
        })
        .collect();
    // A stride coprime to the key count scrambles arrival order; event
    // times span two windows.
    let n = keys.len();
    check_against_reference((0..4 * n).map(|i| {
        let key = keys[i * 13 % n];
        (key, i as f64 * 0.75 - 20.0, (i as u64 * 37) % 20_000)
    }));
}

/// Thousands of observations on one key over nine windows, interleaved
/// with a few other keys and laced with NaN, ±inf and −0.0. The windows
/// without NaN or ±inf have a float sum that depends on the order of
/// their values, so an unstable sort shows.
#[test]
fn thousands_of_awkward_values_on_one_key_match_bit_for_bit() {
    let hot = WindowKey {
        tenant: 3,
        metric: 7,
    };
    check_against_reference((0..5_000u64).map(|i| {
        let ms = i * 17 % 90_000;
        let value = match (i % 97, ms / 10_000) {
            (13, 1) => f64::NAN,
            (29, 2 | 4) => f64::INFINITY,
            (31, 3 | 4) => f64::NEG_INFINITY,
            (41 | 42, _) => -0.0,
            (43, _) => 0.0,
            (r, _) => (r as f64 - 48.0) * 10f64.powi((i % 11) as i32 - 5),
        };
        let key = if i % 5 == 4 {
            WindowKey {
                tenant: (i % 3) as u16,
                metric: (i % 4) as u32 * 5,
            }
        } else {
            hot
        };
        (key, value, ms)
    }));
}

/// For each of the packed key's six bytes, keys that differ in that
/// byte alone, arriving scrambled: a radix pass skipped on the one
/// byte that varies leaves them in arrival order.
#[test]
fn keys_that_differ_in_one_byte_close_in_key_order() {
    for byte in 0..6 {
        let base = 0x0102_0304_0506u64 & !(0xFF << (8 * byte));
        let keys: Vec<WindowKey> = (0..=255u64)
            .map(|b| {
                let packed = base | b << (8 * byte);
                WindowKey {
                    tenant: (packed >> 32) as u16,
                    metric: packed as u32,
                }
            })
            .collect();
        check_against_reference((0..3 * 256).map(|i| {
            let key = keys[i * 97 % 256];
            (key, i as f64 - 100.0, (i as u64 * 41) % 20_000)
        }));
    }
}

/// A window group of one reading, and one of a single key seen many
/// times: the sort has nothing to move, the fold one run.
#[test]
fn a_lone_reading_and_a_lone_key_match() {
    let key = WindowKey {
        tenant: 9,
        metric: 0x00ab_cdef,
    };
    check_against_reference([(key, 2.5, 1234)]);
    check_against_reference((0..1_000u64).map(|i| {
        let value = [f64::NAN, -0.0, 1e-310, 7.0][(i % 4) as usize] * (i as f64 - 500.0);
        (key, value, i * 9)
    }));
}

/// Finite values spread over fourteen decades of either sign, with
/// subnormals and the powers 10^(k/5) on which bucket boundaries fall:
/// a run of them seldom has its top two in one bucket.
fn finite_values() -> impl Strategy<Value = f64> {
    prop_oneof![
        (-1.0f64..1.0, -8.0f64..6.0).prop_map(|(m, e)| m * 10f64.powf(e)),
        (-45i32..35).prop_map(|k| 10f64.powf(k as f64 / 5.0)),
        (1u64..1 << 52).prop_map(f64::from_bits),
    ]
}

/// The same with NaN, ±inf and ±0.0, which `Histogram::observe` files
/// and sums in ways the fold must copy exactly.
fn awkward_values() -> impl Strategy<Value = f64> {
    prop_oneof![
        finite_values(),
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(0.0),
        Just(-0.0),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Two keys' runs in one window equal, each bit for bit, a
    /// `Histogram` that observed the run and its getters. From 100
    /// readings on, ⌈0.99·n⌉ < n, so p99 need not be the top bucket.
    #[test]
    fn each_run_folds_to_what_one_histogram_reports(
        runs in proptest::collection::vec(
            prop_oneof![
                proptest::collection::vec(finite_values(), 1..=300),
                proptest::collection::vec(awkward_values(), 1..=300),
            ],
            2,
        )
    ) {
        // The higher key arrives first, and the two runs interleave.
        let keys = [WindowKey { tenant: 1, metric: 5 }, WindowKey { tenant: 1, metric: 3 }];
        let mut agg = WindowAggregator::new(WindowSpec::tumbling(SimDuration::from_secs(10)));
        for i in 0..300 {
            for (key, values) in keys.iter().zip(&runs) {
                if let Some(&v) = values.get(i) {
                    agg.observe(*key, v, SimTime::from_micros(i as u64));
                }
            }
        }
        let got: Vec<_> = agg
            .flush()
            .iter()
            .map(|r| (r.key, r.count, [r.sum, r.min, r.max, r.p99].map(f64::to_bits)))
            .collect();
        let want: Vec<_> = keys
            .iter()
            .zip(&runs)
            .rev()
            .map(|(key, values)| {
                let mut h = Histogram::new();
                for &v in values {
                    h.observe(v);
                }
                (*key, h.count(), [h.sum(), h.min(), h.max(), h.quantile(0.99)].map(f64::to_bits))
            })
            .collect();
        prop_assert_eq!(got, want);
    }
}
