//! Estimators: the floor, nearest-rank percentiles, and the quartile
//! spread the acceptance rule is written in.

/// The smallest value. Interference on a shared host only ever adds
/// time, so the minimum is the estimator of a series with so many samples
/// that lucky ones are common (single compiles: 20 000 a window); a series
/// of a few hundred samples takes [`low`].
pub fn floor(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The robust floor of a host-wall series: its 5th percentile.
///
/// The plain minimum follows the luckiest sample. On the 2-vCPU host most
/// samples of the memory-heavy loops are somewhat contended and a few
/// (1 to 3 % of a window) are not: `lbm64_d2` steps cluster at 110 ms with
/// rare ones at 89. Whether a window catches such a dip decided its
/// minimum (88.97 to 100.5 ms over ten runs, 12 %); the 5th percentile
/// skips dips rarer than one sample in twenty and still sits below every
/// slow phase that covers less than 95 % of the window. With fewer than 21
/// samples it is the minimum.
pub fn low(values: &[f64]) -> f64 {
    percentile(&sorted(values), 0.05)
}

/// `values` sorted ascending (total order; NaN never enters a series).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of an ascending slice, `p` in `[0, 1]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty series");
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Quartiles `(q1, median, q3)` as Python's
/// `statistics.quantiles(values, n=4)` gives them (the default
/// "exclusive" method), which is what the acceptance rule uses. Needs at
/// least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let data = sorted(values);
    let n = data.len();
    assert!(n >= 2, "quartiles need at least two values");
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Inter-quartile distance as a share of the median: the run-to-run spread
/// the acceptance rule bounds.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    (q3 - q1) / q2.abs()
}

/// Share of `values` within `frac` of their floor: how much of the window
/// the host was quiet.
pub fn quiet_frac(values: &[f64], frac: f64) -> f64 {
    let lo = floor(values);
    values.iter().filter(|&&v| v <= lo * (1.0 + frac)).count() as f64 / values.len() as f64
}

/// How much worse `new` is than `old`, as a share of `old`, for a metric
/// where `lower_is_better` or not. Negative when `new` is better.
pub fn worsening(old: f64, new: f64, lower_is_better: bool) -> f64 {
    let change = (new - old) / old.abs();
    if lower_is_better {
        change
    } else {
        -change
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floor_and_percentiles() {
        let v = [5.0, 3.0, 9.0, 3.5, 100.0];
        assert_eq!(floor(&v), 3.0);
        let s = sorted(&v);
        assert_eq!(percentile(&s, 0.5), 5.0);
        assert_eq!(percentile(&s, 0.95), 100.0);
        assert_eq!(percentile(&s, 0.0), 3.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.95), 95.0);
    }

    #[test]
    fn low_skips_rare_dips_but_not_the_quiet_cluster() {
        // 100 samples: two lucky dips, a quiet cluster, a slow phase.
        let mut v = vec![89.0, 90.0];
        v.extend(std::iter::repeat_n(108.0, 58));
        v.extend(std::iter::repeat_n(170.0, 40));
        assert_eq!(floor(&v), 89.0);
        assert_eq!(low(&v), 108.0);
        // Few samples: the minimum.
        assert_eq!(low(&[5.0, 3.0, 9.0]), 3.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 15.0, 22.5));
        // statistics.quantiles([1, 2, 4, 8, 16, 32, 64], n=4) == [2.0, 8.0, 32.0]
        assert_eq!(
            quartiles(&[64.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0]),
            (2.0, 8.0, 32.0)
        );
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&ten) - 1.0).abs() < 1e-15);
        assert_eq!(spread(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn quiet_share_counts_samples_near_the_floor() {
        let v = [10.0, 10.4, 10.6, 15.0];
        assert_eq!(quiet_frac(&v, 0.05), 0.5);
    }

    #[test]
    fn worsening_respects_direction() {
        assert!((worsening(100.0, 110.0, true) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, false) + 0.10).abs() < 1e-12);
        assert!((worsening(0.8, 0.72, false) - 0.10).abs() < 1e-12);
    }
}
