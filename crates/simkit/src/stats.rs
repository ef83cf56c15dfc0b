//! Percentiles and summary statistics.
//!
//! Used in two places that matter for fidelity to the paper:
//!
//! * Policies pick carbon thresholds as *percentiles of the intensity
//!   trace* (30th percentile for ML training, 33rd for BLAST — §5.1.1).
//! * The evaluation reports 95th-percentile latency and mean/stddev of
//!   carbon and runtime across repeated runs.

/// Linear-interpolated percentile of a sample set, `p` in `[0, 100]`.
///
/// Uses the same convention as NumPy's default (`linear` interpolation on
/// sorted order statistics). Returns `None` on an empty slice.
///
/// # Example
///
/// ```
/// let xs = [1.0, 2.0, 3.0, 4.0];
/// assert_eq!(simkit::stats::percentile(&xs, 50.0), Some(2.5));
/// ```
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let p = p.clamp(0.0, 100.0);
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    Some(percentile_of_sorted(&sorted, p))
}

/// Percentile of an already-sorted slice (ascending). See [`percentile`].
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn percentile_of_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty slice");
    let p = p.clamp(0.0, 100.0);
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Arithmetic mean; `None` on empty input.
pub fn mean(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        None
    } else {
        Some(samples.iter().sum::<f64>() / samples.len() as f64)
    }
}

/// Population standard deviation; `None` on empty input.
fn std_dev(samples: &[f64]) -> Option<f64> {
    let m = mean(samples)?;
    let var = samples.iter().map(|x| (x - m).powi(2)).sum::<f64>() / samples.len() as f64;
    Some(var.sqrt())
}

/// Summary statistics over a sample set.
///
/// Produced by [`Summary::of`]; used by the experiment harness to report
/// mean ± stddev rows matching the paper's error bars.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub(crate) count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Minimum sample.
    pub min: f64,
    /// Maximum sample.
    pub max: f64,
    /// Median (50th percentile).
    median: f64,
    /// 95th percentile.
    p95: f64,
}

impl Summary {
    /// Computes a summary; `None` on empty input.
    pub fn of(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted: Vec<f64> = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in summary input"));
        Some(Self {
            count: sorted.len(),
            mean: mean(samples).expect("non-empty"),
            std_dev: std_dev(samples).expect("non-empty"),
            min: sorted[0],
            max: *sorted.last().expect("non-empty"),
            median: percentile_of_sorted(&sorted, 50.0),
            p95: percentile_of_sorted(&sorted, 95.0),
        })
    }
}

/// Relative change `(new - old) / old`, as a signed fraction.
///
/// Used to express "carbon reduced by 24.5%" style comparisons. Returns 0
/// when `old` is 0 to keep report tables finite.
pub fn relative_change(old: f64, new: f64) -> f64 {
    if old == 0.0 {
        0.0
    } else {
        (new - old) / old
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let xs = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&xs, 0.0), Some(10.0));
        assert_eq!(percentile(&xs, 100.0), Some(50.0));
        assert_eq!(percentile(&xs, 50.0), Some(30.0));
        assert_eq!(percentile(&xs, 25.0), Some(20.0));
        assert_eq!(percentile(&xs, 30.0), Some(22.0));
    }

    #[test]
    fn percentile_handles_unsorted_input() {
        let xs = [50.0, 10.0, 40.0, 30.0, 20.0];
        assert_eq!(percentile(&xs, 50.0), Some(30.0));
    }

    #[test]
    fn percentile_empty_and_singleton() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
    }

    #[test]
    fn percentile_clamps_p() {
        let xs = [1.0, 2.0];
        assert_eq!(percentile(&xs, -10.0), Some(1.0));
        assert_eq!(percentile(&xs, 200.0), Some(2.0));
    }

    #[test]
    fn mean_and_std() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&xs), Some(5.0));
        assert_eq!(std_dev(&xs), Some(2.0));
        assert_eq!(mean(&[]), None);
        assert_eq!(std_dev(&[]), None);
    }

    #[test]
    fn summary_fields() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let s = Summary::of(&xs).expect("non-empty");
        assert_eq!(s.count, 5);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.median, 3.0);
        assert!((s.p95 - 4.8).abs() < 1e-12);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn relative_change_signs() {
        assert!((relative_change(100.0, 75.0) + 0.25).abs() < 1e-12);
        assert!((relative_change(100.0, 130.0) - 0.30).abs() < 1e-12);
        assert_eq!(relative_change(0.0, 5.0), 0.0);
    }
}
