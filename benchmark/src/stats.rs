//! Order statistics for the reported numbers.

/// First quartile, median and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the default exclusive
/// method) so a spread printed here is the spread the driver computes.
/// A single value is its own three quartiles.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of no values");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    if n == 1 {
        return [data[0]; 3];
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, slot) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// The median of `values`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

/// How many samples must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `q`-quantile of an ascending `sorted` sample and how
/// many samples lie beyond it; `None` for an empty sample.
fn nearest_rank(sorted: &[u64], q: f64) -> Option<(u64, usize)> {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "sample not sorted");
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    sorted.get(rank - 1).map(|v| (*v, n - rank))
}

/// The `q`-quantile of an ascending `sorted` sample, or `None` when fewer
/// than [`MIN_BEYOND`] samples lie beyond it: a tail percentile resting on
/// a handful of samples is not reported.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    nearest_rank(sorted, q)
        .filter(|(_, beyond)| *beyond >= MIN_BEYOND)
        .map(|(v, _)| v)
}

/// The median of an ascending `sorted` sample however small it is (a
/// churn plan has 15 joins), or `None` when it is empty.
pub fn small_median(sorted: &[u64]) -> Option<u64> {
    nearest_rank(sorted, 0.5).map(|(v, _)| v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([8.3, 10.1, 8.6], n=4) == [8.3, 8.6, 10.1]
        assert_eq!(quartiles(&[8.3, 10.1, 8.6]), [8.3, 8.6, 10.1]);
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), [0.5, 2.0, 3.5]);
        assert_eq!(quartiles(&[7.0]), [7.0, 7.0, 7.0]);
        assert_eq!(median(&[4.0, 1.0, 9.0, 2.0]), 3.0);
    }

    #[test]
    fn percentile_uses_the_nearest_rank() {
        let sample: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&sample, 0.5), Some(500));
        assert_eq!(percentile(&sample, 0.99), Some(990));
        assert_eq!(percentile(&sample, 0.001), Some(1));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        // p99.9 of 10 000 samples has exactly ten beyond it.
        let enough: Vec<u64> = (1..=10_000).collect();
        assert_eq!(percentile(&enough, 0.999), Some(9_990));
        let short: Vec<u64> = (1..=9_999).collect();
        assert_eq!(percentile(&short, 0.999), None, "only nine beyond");
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(small_median(&[3, 5, 9]), Some(5));
        assert_eq!(small_median(&[3, 5]), Some(3));
        assert_eq!(small_median(&[]), None);
    }
}
