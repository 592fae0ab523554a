//! Order statistics for the report: median of repeated timings, and the
//! percentile rule for latency samples.

/// Median (mean of the two middle values for an even count); 0 if empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The percentiles a latency report may quote, lowest first.
pub const PERCENTILES: [f64; 6] = [0.5, 0.9, 0.95, 0.99, 0.999, 0.9999];

/// The highest of [`PERCENTILES`] that still has at least ten of `n`
/// samples beyond it, or `None` when even the median has fewer: a
/// percentile resting on a handful of samples is an outlier report, not
/// a statistic.
pub fn top_percentile(n: usize) -> Option<f64> {
    PERCENTILES.iter().copied().rfind(|p| beyond(n, *p) >= 10)
}

/// How many of `n` samples lie strictly beyond the nearest-rank `p`.
fn beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// Nearest-rank index (1-based) of percentile `p` among `n` samples.
/// `p` is taken to four decimals and the rank computed in integers, so
/// `0.9999 * 100_000` cannot round up past the sample it names.
fn rank(n: usize, p: f64) -> usize {
    let per_myriad = (p * 10_000.0).round() as usize;
    (n * per_myriad).div_ceil(10_000).clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` of `sorted` (ascending); 0 if empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(top_percentile(0), None);
        assert_eq!(top_percentile(19), None, "9 beyond the median");
        assert_eq!(top_percentile(20), Some(0.5));
        assert_eq!(top_percentile(99), Some(0.5), "9 beyond p90");
        assert_eq!(top_percentile(100), Some(0.9));
        assert_eq!(top_percentile(200), Some(0.95));
        assert_eq!(top_percentile(999), Some(0.95), "9 beyond p99");
        assert_eq!(top_percentile(1000), Some(0.99));
        assert_eq!(top_percentile(17_000), Some(0.999));
        assert_eq!(top_percentile(100_000), Some(0.9999));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
