//! Order statistics the metrics are built from.

/// The `p`-th percentile (0..=100) of `samples`, linearly interpolated
/// between the two nearest ranks (the numpy default). `None` when empty.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(s[lo] + (s[hi] - s[lo]) * (rank - lo as f64))
}

/// Median, or 0 when there are no samples (a metric that does not
/// apply to the workload reads 0).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).unwrap_or(0.0)
}

/// Which percentile of an op's times stands for the op on an
/// undisturbed machine. The sandbox's neighbours slow a varying share
/// of the samples by a varying amount, which moves the median and
/// everything above it from run to run; the low end of the
/// distribution is what the program itself costs. Not the minimum: one
/// in a few hundred samples lands in a brief spell of a faster clock.
pub const QUIET_PERCENTILE: f64 = 10.0;

/// The [`QUIET_PERCENTILE`]-th percentile, or 0 without samples.
pub fn quiet(samples: &[f64]) -> f64 {
    percentile(samples, QUIET_PERCENTILE).unwrap_or(0.0)
}

/// Geometric mean of strictly positive values; `None` when empty or
/// when any value is not positive.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0 || v.is_nan()) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// First quartile, median and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` gives them (the "exclusive"
/// method), so `--compare` judges spread the way the driver does.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&s, 50.0), Some(2.5));
        assert_eq!(percentile(&s, 100.0), Some(4.0));
        let p90 = percentile(&s, 90.0).unwrap();
        assert!((p90 - 3.7).abs() < 1e-12, "{p90}");
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7.0], 90.0), Some(7.0));
    }

    #[test]
    fn geomean_weighs_ratios_not_differences() {
        let g = geomean(&[0.2, 20.0]).unwrap();
        assert!((g - 2.0).abs() < 1e-12, "{g}");
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        let q = quartiles(&[1., 2., 3., 4., 5., 6., 7., 8., 9., 10.]).unwrap();
        assert_eq!(q, [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40., 10., 20.]).unwrap(), [10., 20., 40.]);
        assert_eq!(quartiles(&[1.0]), None);
    }
}
