//! Sample statistics: medians, nearest-rank percentiles, and the quartile
//! spread the acceptance rule is stated in.

use telemetry::percentile;

/// Middle value (mean of the two middle values for an even count); 0 for an
/// empty sample, like [`telemetry::percentile`].
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The highest percentile of 50/75/90/95/99 that still has at least ten
/// samples beyond it, with its value; `None` when even the median does not
/// (fewer than 20 samples).
pub fn highest_supported_percentile(values: &[f64]) -> Option<(f64, f64)> {
    [99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|p| values.len() as f64 * (1.0 - p / 100.0) >= 10.0)
        .map(|p| (p, percentile(values, p)))
}

/// First, second and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` does (exclusive method) — the
/// definition the acceptance rule uses. `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let len = values.len();
    if len < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Distance between the first and third quartile as a share of the median;
/// 0 when there are too few values or the median is 0.
pub fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some((q1, q2, q3)) if q2 != 0.0 => ((q3 - q1) / q2).abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    /// Reference values from CPython 3.11 `statistics.quantiles(x, n=4)`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 5.5, 8.25)));
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), Some((1.0, 3.0, 5.0)));
        assert_eq!(quartiles(&[7.0]), None);
        assert!((spread(&ten) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[2.0, 2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn percentile_support_needs_ten_samples_beyond() {
        let v = |n: usize| (0..n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(highest_supported_percentile(&v(19)), None);
        assert_eq!(
            highest_supported_percentile(&v(20)).map(|p| p.0),
            Some(50.0)
        );
        assert_eq!(
            highest_supported_percentile(&v(48)).map(|p| p.0),
            Some(75.0)
        );
        assert_eq!(
            highest_supported_percentile(&v(336)).map(|p| p.0),
            Some(95.0)
        );
        assert_eq!(
            highest_supported_percentile(&v(1000)).map(|p| p.0),
            Some(99.0)
        );
    }
}
