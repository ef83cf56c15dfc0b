//! Order statistics for the benchmark's own reporting rules: a latency
//! is a median plus the highest percentile that still has ten samples
//! beyond it, and a run-to-run spread is the inter-quartile distance
//! over the median.

use simkit::stats::{percentile, percentile_of_sorted};

/// Samples that must lie beyond a percentile before it is reported.
const TAIL_SAMPLES: usize = 10;

/// The percentile ladder a latency may be reported at, lowest first.
const LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Ascending copy of `samples`.
///
/// # Panics
///
/// On a NaN sample: every value here is a measured duration or count.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in a measured sample"));
    v
}

/// Median of `samples`, or 0 when there are none (a metric that does
/// not apply to the workload reads 0 with `n = 0`).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).unwrap_or(0.0)
}

/// The highest ladder percentile not above `wanted` that leaves at
/// least [`TAIL_SAMPLES`] of `n` samples beyond it; 50 when none does.
pub fn supported_percentile(n: usize, wanted: f64) -> f64 {
    LADDER
        .iter()
        .copied()
        .filter(|&p| p <= wanted && (n as f64) * (1.0 - p / 100.0) >= TAIL_SAMPLES as f64)
        .fold(50.0, f64::max)
}

/// `wanted`-th percentile of `samples`, lowered to the highest
/// supported one (see [`supported_percentile`]). Returns the value and
/// the percentile actually used; `(0, wanted)` on no samples.
pub fn tail(samples: &[f64], wanted: f64) -> (f64, f64) {
    if samples.is_empty() {
        return (0.0, wanted);
    }
    let p = supported_percentile(samples.len(), wanted);
    (percentile_of_sorted(&sorted(samples), p), p)
}

/// Quartiles by the exclusive method — the values Python's
/// `statistics.quantiles(values, n=4)` returns — so the spread printed
/// here is the spread the acceptance check computes.
///
/// # Panics
///
/// With fewer than two samples.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    assert!(samples.len() >= 2, "quartiles need two samples");
    let s = sorted(samples);
    let n = s.len();
    let q = |i: usize| {
        let pos = i as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * frac
    };
    [q(1), q(2), q(3)]
}

/// Inter-quartile distance as a share of the median; 0 for a zero
/// median (a metric that does not apply).
pub fn iqr_spread(samples: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(samples);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_is_the_middle_not_the_mean() {
        // One stalled sample must not drag the number.
        let samples = [100.0, 101.0, 99.0, 100.5, 12.0, 100.2, 99.8, 100.1];
        let m = median(&samples);
        assert!((m - 100.05).abs() < 1e-9, "{m}");
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p99 of 999 samples leaves 9.99 beyond: not enough.
        assert_eq!(supported_percentile(999, 99.0), 90.0);
        assert_eq!(supported_percentile(1000, 99.0), 99.0);
        // Never above what was asked for.
        assert_eq!(supported_percentile(1_000_000, 99.0), 99.0);
        assert_eq!(supported_percentile(1_000_000, 99.99), 99.99);
        // 150 replayed days support p90, 20 restores only the median.
        assert_eq!(supported_percentile(150, 99.0), 90.0);
        assert_eq!(supported_percentile(20, 99.0), 50.0);
        assert_eq!(supported_percentile(19, 50.0), 50.0);
    }

    #[test]
    fn tail_falls_back_and_says_so() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        let (v, p) = tail(&xs, 99.0);
        assert_eq!(p, 90.0);
        assert!((v - 180.1).abs() < 1e-9, "{v}");
        assert_eq!(tail(&[], 99.0), (0.0, 99.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&xs);
        assert!((q[0] - 2.75).abs() < 1e-12);
        assert!((q[1] - 5.5).abs() < 1e-12);
        assert!((q[2] - 8.25).abs() < 1e-12);
        assert!((iqr_spread(&xs) - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        let q = quartiles(&[3.0, 1.0]);
        assert_eq!(q, [0.5, 2.0, 3.5]);
        assert_eq!(iqr_spread(&[0.0, 0.0, 0.0]), 0.0);
    }
}
