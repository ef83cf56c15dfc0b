//! Percentile threshold selection for carbon-aware policies.
//!
//! The paper's suspend-resume and Wait&Scale policies pick their carbon
//! threshold as a percentile of the intensity distribution over a lookback
//! window: "We set the carbon threshold based on the 30th %ile of
//! carbon-intensity over a 48 hour window in each run" (§5.1.1) and the
//! 33rd percentile over the trace duration for BLAST.

use simkit::stats::percentile;
use simkit::time::{SimDuration, SimTime};
use simkit::trace::Trace;
use simkit::units::CarbonIntensity;

/// `trace` sampled every `step` over `[from, from + window)`: empty for a
/// zero-length window or a zero step.
fn window_samples(
    trace: &Trace,
    from: SimTime,
    window: SimDuration,
    step: SimDuration,
) -> Vec<f64> {
    let mut out = Vec::new();
    if step.is_zero() {
        return out;
    }
    let to = from + window;
    let mut t = from;
    while t < to {
        out.push(trace.sample(t));
        t += step;
    }
    out
}

/// Computes the `p`-th percentile of the intensity in `trace` over the
/// window `[from, from + window)`, sampled every `step`.
///
/// Returns `None` when the window contains no samples (zero-length window
/// or zero step).
pub fn percentile_threshold(
    trace: &Trace,
    from: SimTime,
    window: SimDuration,
    step: SimDuration,
    p: f64,
) -> Option<CarbonIntensity> {
    percentile(&window_samples(trace, from, window, step), p).map(CarbonIntensity::new)
}

/// Fraction of time within `[from, from + window)` that intensity is at or
/// below `threshold` — i.e. how often a threshold policy would run.
pub fn fraction_below(
    trace: &Trace,
    from: SimTime,
    window: SimDuration,
    step: SimDuration,
    threshold: CarbonIntensity,
) -> f64 {
    let samples = window_samples(trace, from, window, step);
    if samples.is_empty() {
        return 0.0;
    }
    let below = samples
        .iter()
        .filter(|&&v| v <= threshold.grams_per_kwh())
        .count();
    below as f64 / samples.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::CarbonTraceBuilder;
    use crate::regions;
    use simkit::trace::Trace;

    fn five_min() -> SimDuration {
        SimDuration::from_minutes(5)
    }

    #[test]
    fn threshold_on_known_trace() {
        // 10 equally likely values 10..=100.
        let samples: Vec<f64> = (1..=10).map(|i| (i * 10) as f64).collect();
        let trace = Trace::from_samples(samples, SimDuration::from_minutes(5));
        let th = percentile_threshold(
            &trace,
            SimTime::EPOCH,
            SimDuration::from_minutes(50),
            five_min(),
            0.0,
        )
        .expect("non-empty");
        assert_eq!(th.grams_per_kwh(), 10.0);
        let th50 = percentile_threshold(
            &trace,
            SimTime::EPOCH,
            SimDuration::from_minutes(50),
            five_min(),
            50.0,
        )
        .expect("non-empty");
        assert_eq!(th50.grams_per_kwh(), 55.0);
    }

    #[test]
    fn empty_window_returns_none() {
        let trace = Trace::constant(5.0);
        assert!(
            percentile_threshold(&trace, SimTime::EPOCH, SimDuration::ZERO, five_min(), 30.0)
                .is_none()
        );
        assert!(percentile_threshold(
            &trace,
            SimTime::EPOCH,
            SimDuration::from_hours(1),
            SimDuration::ZERO,
            30.0
        )
        .is_none());
    }

    #[test]
    fn fraction_below_matches_percentile() {
        // By construction, ~30% of samples lie at/below the 30th %ile.
        let trace = CarbonTraceBuilder::new(regions::california())
            .days(2)
            .seed(17)
            .build();
        let window = SimDuration::from_hours(48);
        let th = percentile_threshold(&trace, SimTime::EPOCH, window, five_min(), 30.0)
            .expect("non-empty");
        let frac = fraction_below(&trace, SimTime::EPOCH, window, five_min(), th);
        assert!(
            (frac - 0.30).abs() < 0.03,
            "fraction below 30th %ile was {frac}"
        );
    }

    #[test]
    fn fraction_below_extremes() {
        let trace = Trace::constant(100.0);
        let w = SimDuration::from_hours(1);
        assert_eq!(
            fraction_below(
                &trace,
                SimTime::EPOCH,
                w,
                five_min(),
                CarbonIntensity::new(99.0)
            ),
            0.0
        );
        assert_eq!(
            fraction_below(
                &trace,
                SimTime::EPOCH,
                w,
                five_min(),
                CarbonIntensity::new(100.0)
            ),
            1.0
        );
    }
}
