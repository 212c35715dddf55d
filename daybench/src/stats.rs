//! Order statistics for the benchmark's reports.
//!
//! Timings are reported as a median plus the highest tail percentile
//! that still has at least [`MIN_BEYOND`] samples ranked above it, so
//! a tail figure is never read off a handful of points.

/// Samples that must rank above a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Samples ranked strictly above the nearest-rank `p` percentile of
/// `n` samples (`p` in `[0, 1]`).
pub fn beyond(n: usize, p: f64) -> usize {
    let rank = (p * n as f64).ceil() as usize;
    n.saturating_sub(rank.max(1))
}

/// Whether the `p` percentile of `n` samples has at least
/// [`MIN_BEYOND`] samples beyond it.
pub fn supported(n: usize, p: f64) -> bool {
    beyond(n, p) >= MIN_BEYOND
}

/// Nearest-rank percentile of unsorted `values` (`p` in `[0, 1]`);
/// `None` for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    })
}

/// First and third quartiles by the "exclusive" method (what Python's
/// `statistics.quantiles(values, n=4)` returns). Needs two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        // Python's integer arithmetic: position i * (n + 1) / 4, with
        // the index clamped into the data but the weight not, so two
        // or three values extrapolate exactly as Python does.
        let m = (n + 1) * i;
        let j = (m / 4).clamp(1, n - 1);
        let delta = m as f64 - (4 * j) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_288_round_day_supports_p95_but_not_p99() {
        assert_eq!(beyond(288, 0.95), 14);
        assert!(supported(288, 0.95));
        assert_eq!(beyond(288, 0.99), 2);
        assert!(!supported(288, 0.99));
        // The highest supported percentile leaves exactly ten beyond.
        assert_eq!(beyond(288, 278.0 / 288.0), 10);
        assert!(!supported(288, 279.0 / 288.0));
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert!(!supported(999, 0.99));
        assert!(supported(1000, 0.99));
        assert!(!supported(0, 0.5));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.95), Some(95.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
        assert_eq!(quartiles(&[5.0, 7.0]), Some((4.5, 7.5)));
    }
}
