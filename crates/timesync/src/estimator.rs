//! Sliding-window linear-regression drift estimation, FTSP-style.
//!
//! Each accepted sync beacon yields one `(local, global)` timestamp
//! pair. The estimator keeps the most recent `window` pairs and fits
//! `global - local` against `local` by ordinary least squares, which
//! recovers both the clock *offset* and the clock *skew* (relative
//! rate). Regressing the offset instead of raw global time keeps the
//! fit numerically benign: offsets are microseconds to milliseconds
//! while absolute timestamps are ~1e9 µs.

use crate::clock::ClockEstimate;
use iiot_sim::SimTime;
use std::collections::VecDeque;

/// Sliding-window offset/skew estimator.
///
/// # Examples
///
/// ```
/// use iiot_sim::SimTime;
/// use iiot_timesync::DriftEstimator;
///
/// // A local clock running 100 ppm fast, sampled every 10 s.
/// let mut est = DriftEstimator::new(8);
/// for k in 0..6u64 {
///     let global = SimTime::from_secs(10 * k);
///     let local = SimTime::from_micros(global.as_micros() * 1_000_100 / 1_000_000);
///     est.add_sample(local, global);
/// }
/// let e = est.estimate().expect("enough samples");
/// // Rate of global per local tick ~ 1/(1 + 100e-6): about -100 ppm.
/// assert!((e.skew_ppm() + 100.0).abs() < 1.0);
/// ```
#[derive(Clone, Debug)]
pub struct DriftEstimator {
    window: usize,
    /// `(local_us, global_us)` pairs, oldest first.
    samples: VecDeque<(i64, i64)>,
}

impl DriftEstimator {
    /// Creates an estimator keeping the latest `window` samples.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "estimator window must be positive");
        DriftEstimator {
            window,
            samples: VecDeque::with_capacity(window),
        }
    }

    /// Number of samples currently held.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples are held.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Forgets all samples (crash recovery, reference change).
    pub fn clear(&mut self) {
        self.samples.clear();
    }

    /// Records one `(local, global)` timestamp pair, evicting the
    /// oldest sample once the window is full. Times past `i64::MAX` µs
    /// are held at `i64::MAX`.
    pub fn add_sample(&mut self, local: SimTime, global: SimTime) {
        if self.samples.len() == self.window {
            self.samples.pop_front();
        }
        let us = |t: SimTime| i64::try_from(t.as_micros()).unwrap_or(i64::MAX);
        self.samples.push_back((us(local), us(global)));
    }

    /// The current linear fit, or `None` without samples. One sample
    /// gives an offset-only estimate (rate 1.0); two or more also
    /// estimate skew.
    pub fn estimate(&self) -> Option<ClockEstimate> {
        let (l0, _) = *self.samples.front()?;
        let n = self.samples.len() as f64;
        // x: local time relative to the first sample; y: global-local
        // offset. Both stay small, so f64 sums keep full precision.
        let mut sx = 0.0;
        let mut sy = 0.0;
        for &(l, g) in &self.samples {
            sx += (l - l0) as f64;
            sy += (g - l) as f64;
        }
        let (mx, my) = (sx / n, sy / n);
        let mut sxx = 0.0;
        let mut sxy = 0.0;
        for &(l, g) in &self.samples {
            let dx = (l - l0) as f64 - mx;
            let dy = (g - l) as f64 - my;
            sxx += dx * dx;
            sxy += dx * dy;
        }
        // Offset-only fallback: a single sample, or duplicate x values.
        let slope = if sxx > 0.0 { sxy / sxx } else { 0.0 };
        // Samples lie in [0, i64::MAX], so the differences above cannot
        // overflow; these sums can, by a rounding, at the very top.
        let base_local = l0.saturating_add(mx.round() as i64);
        let base_global = base_local.saturating_add(my.round() as i64);
        Some(ClockEstimate {
            base_local: SimTime::from_micros(base_local.max(0) as u64),
            base_global: SimTime::from_micros(base_global.max(0) as u64),
            rate: 1.0 + slope,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feeds samples from a synthetic clock `local = global * (1+ppm) +
    /// phase` and returns the estimate.
    fn fit(ppm: f64, phase_us: i64, n: usize, spacing_s: u64) -> ClockEstimate {
        let mut est = DriftEstimator::new(8);
        for k in 0..n as u64 {
            let g = (spacing_s * 1_000_000 * k) as i64;
            let l = (g as f64 * (1.0 + ppm * 1e-6)).round() as i64 + phase_us;
            est.add_sample(
                SimTime::from_micros(l as u64),
                SimTime::from_micros(g.max(0) as u64),
            );
        }
        est.estimate().expect("samples")
    }

    #[test]
    fn recovers_synthetic_skew_within_tolerance() {
        for ppm in [-200.0, -50.0, -1.0, 1.0, 40.0, 150.0] {
            let e = fit(ppm, 12_345, 8, 10);
            // global per local tick = 1/(1+ppm) => skew ~ -ppm.
            assert!(
                (e.skew_ppm() + ppm).abs() < 0.5,
                "ppm {ppm}: estimated {}",
                e.skew_ppm()
            );
        }
    }

    #[test]
    fn recovers_offset_and_predicts_forward() {
        let ppm = 80.0;
        let e = fit(ppm, 5_000, 8, 10);
        // Predict global time from a local reading 30 s past the last
        // sample; compare against the synthetic ground truth.
        let g_true = 100_000_000i64; // 100 s
        let l = (g_true as f64 * (1.0 + ppm * 1e-6)).round() as i64 + 5_000;
        let g_est = e.global(SimTime::from_micros(l as u64)).as_micros() as i64;
        assert!(
            (g_est - g_true).abs() <= 2,
            "extrapolation error {} us",
            g_est - g_true
        );
    }

    #[test]
    fn single_sample_is_offset_only() {
        let mut est = DriftEstimator::new(4);
        assert!(est.estimate().is_none());
        est.add_sample(SimTime::from_micros(1_000), SimTime::from_micros(3_500));
        let e = est.estimate().expect("one sample");
        assert_eq!(e.rate, 1.0);
        assert_eq!(e.offset_us(SimTime::from_micros(1_000)), 2_500);
    }

    #[test]
    fn window_slides() {
        let mut est = DriftEstimator::new(3);
        for k in 0..10u64 {
            est.add_sample(SimTime::from_secs(k), SimTime::from_secs(k));
            assert!(est.len() <= 3);
        }
        assert_eq!(est.len(), 3);
        est.clear();
        assert!(est.is_empty());
    }

    #[test]
    fn duplicate_sample_times_fall_back_to_offset() {
        let mut est = DriftEstimator::new(4);
        est.add_sample(SimTime::from_secs(1), SimTime::from_secs(2));
        est.add_sample(SimTime::from_secs(1), SimTime::from_secs(2));
        let e = est.estimate().expect("estimate");
        assert_eq!(e.rate, 1.0);
        assert_eq!(e.global(SimTime::from_secs(1)), SimTime::from_secs(2));
    }
}
