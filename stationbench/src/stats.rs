//! Order statistics over timing samples.

/// A percentile is reported only when at least this many samples lie
/// beyond it, so p90 needs 100 samples and p50 needs 20.
pub const MIN_BEYOND: usize = 10;

/// The `pct`-th percentile (0..=100) of `samples`, interpolated linearly
/// between closest ranks. `None` when fewer than [`MIN_BEYOND`] samples
/// lie beyond it.
pub fn percentile(samples: &[f64], pct: u32) -> Option<f64> {
    let n = samples.len();
    let beyond = n * (100 - pct.min(100) as usize) / 100;
    if n == 0 || beyond < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = f64::from(pct) / 100.0 * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// First quartile, median and third quartile of `values`, by the
/// exclusive method (Python's `statistics.quantiles(values, n=4)`).
/// `None` for an empty slice.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        1 => Some([sorted[0]; 3]),
        _ => {
            let m = n + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m).saturating_sub(j * 4).min(4) as f64;
                (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
            };
            Some([q(1), q(2), q(3)])
        }
    }
}

/// Median of `values`; 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).map_or(0.0, |q| q[1])
}

/// A distribution-free 95% confidence interval for the median of
/// `values`: the order statistics whose ranks lie 1.96 standard
/// deviations of a Binomial(n, ½) count either side of n/2. `None` for an
/// empty slice; the whole range for very few values.
pub fn median_interval(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n == 0 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let half_width = 0.98 * (n as f64).sqrt();
    let lo = (n as f64 / 2.0 - half_width).floor().max(1.0) as usize;
    let hi = (n as f64 / 2.0 + half_width).ceil().min(n as f64) as usize;
    Some((sorted[lo - 1], sorted[hi - 1]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let ninety_nine: Vec<f64> = (0..99).map(f64::from).collect();
        assert_eq!(percentile(&ninety_nine, 90), None);
        let hundred: Vec<f64> = (0..100).map(f64::from).collect();
        let p90 = percentile(&hundred, 90).expect("100 samples carry a p90");
        assert!((p90 - 89.1).abs() < 1e-9, "p90 = {p90}");
        assert_eq!(percentile(&hundred[..19], 50), None);
        assert_eq!(percentile(&hundred[..20], 50), Some(9.5));
        assert_eq!(percentile(&[], 50), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut shuffled: Vec<f64> = (0..200).map(|i| f64::from((i * 37) % 200)).collect();
        let sorted_p = percentile(&(0..200).map(f64::from).collect::<Vec<_>>(), 90);
        assert_eq!(percentile(&shuffled, 90), sorted_p);
        shuffled.reverse();
        assert_eq!(percentile(&shuffled, 90), sorted_p);
    }

    #[test]
    fn quartiles_match_the_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 4.0]), Some([1.25, 2.5, 3.75]));
        assert_eq!(quartiles(&[7.0]), Some([7.0; 3]));
        assert_eq!(quartiles(&[]), None);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn median_interval_narrows_with_more_values() {
        assert_eq!(median_interval(&[]), None);
        assert_eq!(median_interval(&[2.0, 1.0, 3.0]), Some((1.0, 3.0)));
        // n = 100: ranks 40 and 60 (50 ∓ 9.8, rounded outwards).
        let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(median_interval(&hundred), Some((40.0, 60.0)));
    }
}
