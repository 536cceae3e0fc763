//! Exact-sample statistics: no histogram buckets anywhere.
//!
//! Latencies are client-side nanosecond samples, pooled and sorted, so a
//! percentile is an element of the sample. Spread is the distance between
//! the quartiles of a metric's per-slice values as a share of their median,
//! with the quartiles Python's `statistics.quantiles(values, n=4)` gives.

/// Fewest samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The tail percentiles tried, highest first.
const TAIL_LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// Nearest-rank percentile `p` (0–100] of an ascending sample.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest ladder percentile that leaves at least [`TAIL_MIN_BEYOND`]
/// of `len` samples strictly beyond its rank. Falls back to the median
/// when even p75 does not qualify.
pub fn tail_percentile(len: usize) -> f64 {
    let beyond = |p: f64| len.saturating_sub((p / 100.0 * len as f64).ceil() as usize);
    TAIL_LADDER.into_iter().find(|&p| beyond(p) >= TAIL_MIN_BEYOND).unwrap_or(50.0)
}

/// Median of an unsorted sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile, Python's `statistics.quantiles(v, n=4)`
/// (exclusive method). `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |i: usize| {
        // i-th of 4 cut points: position i(n+1)/4, clamped into the sample.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

/// IQR / median of a metric's per-slice values; 0 for fewer than two
/// values or a zero median.
pub fn spread(values: &[f64]) -> f64 {
    let Some((q1, q3)) = quartiles(values) else { return 0.0 };
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// Median of a nanosecond sample, sorting it in place.
pub fn median_ns(samples: &mut [u64]) -> u64 {
    samples.sort_unstable();
    percentile(samples, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 50.0), 50);
        assert_eq!(percentile(&s, 99.0), 99);
        assert_eq!(percentile(&s, 100.0), 100);
        assert_eq!(percentile(&[7], 99.0), 7);
        assert_eq!(percentile(&[1, 2, 3, 4], 50.0), 2);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1000 samples: p99 (rank 990) has exactly 10 beyond it.
        assert_eq!(tail_percentile(1000), 99.0);
        // 999 samples: only 9 beyond p99, so p95 is reported.
        assert_eq!(tail_percentile(999), 95.0);
        // 100 samples: p90 has 10 beyond.
        assert_eq!(tail_percentile(100), 90.0);
        // 12 samples: nothing above the median qualifies.
        assert_eq!(tail_percentile(12), 50.0);
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), Some((1.5, 4.5)));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), Some((7.5, 22.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        assert_eq!(spread(&[1.0, 2.0, 3.0, 4.0, 5.0]), 1.0);
        assert_eq!(spread(&[5.0, 5.0, 5.0]), 0.0);
        assert_eq!(spread(&[5.0]), 0.0);
    }
}
