//! Order statistics used by every reported number.
//!
//! All estimators work on a sorted copy and never interpolate beyond the
//! sample: a percentile is the nearest-rank order statistic, so a reported
//! latency is always one that was actually observed.

/// Median of `values` (mean of the two middle order statistics when the
/// count is even). Panics on an empty slice: a metric without a sample is a
/// bug in the workload, not a number to report.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile: the smallest observed value with at least
/// `p` percent of the sample at or below it (`p` in `(0, 100]`).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of range");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Largest observed value.
pub fn max(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "max of an empty sample");
    values.iter().copied().fold(f64::MIN, f64::max)
}

/// The tail estimator for batched latency samples: each batch's own p99,
/// then the median over batches. With 2 000 samples per batch every p99 has
/// 20 samples beyond it, and one stalled batch moves the result by at most
/// one rank instead of dragging a pooled p99 with it.
pub fn median_of_batch_p99(batches: &[Vec<f64>]) -> f64 {
    let p99s: Vec<f64> = batches.iter().map(|b| percentile(b, 99.0)).collect();
    median(&p99s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.5), 1.0);
        // 2 000 samples: p99 is rank 1 980, leaving 20 samples beyond it.
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), 1980.0);
        // A tiny sample degrades to its maximum, never past it.
        assert_eq!(percentile(&[5.0, 9.0], 99.0), 9.0);
    }

    #[test]
    fn batch_p99_ignores_one_stalled_batch() {
        let calm: Vec<f64> = (1..=100).map(f64::from).collect();
        let mut stalled = calm.clone();
        stalled[98] = 1e6;
        stalled[99] = 1e6;
        let batches = vec![calm.clone(), stalled, calm.clone()];
        assert_eq!(median_of_batch_p99(&batches), 99.0);
        // Pooled, the stall would own the p99.
        let pooled: Vec<f64> = batches.concat();
        assert!(percentile(&pooled, 99.5) >= 1e6);
    }
}
