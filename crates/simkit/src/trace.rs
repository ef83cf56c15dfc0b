//! Time-indexed signal traces with step or linear sampling.
//!
//! Traces stand in for the external signals the real ecovisor consumes:
//! solar-array output (Chroma SAE replay), grid carbon intensity
//! (electricityMap), and request-rate workloads (the Wikipedia trace).
//! A [`Trace`] stores equally-spaced samples starting at a given instant
//! and can be sampled at any [`SimTime`], cyclically if desired.

use serde::{Deserialize, Serialize};

use crate::time::{SimDuration, SimTime};

/// How values between stored samples are produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Sampling {
    /// Piecewise-constant: each sample holds until the next one.
    ///
    /// Matches how carbon-intensity services report (a value per 5-minute
    /// window) and how the ecovisor discretizes per tick.
    #[default]
    Step,
    /// Linear interpolation between neighbouring samples.
    Linear,
}

/// What happens when sampling beyond the last stored sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Extend {
    /// Hold the final value forever.
    #[default]
    Hold,
    /// Wrap around to the beginning (periodic replay, e.g. repeat a day of
    /// solar data).
    Cycle,
}

/// An equally-spaced, time-indexed sequence of `f64` samples.
///
/// # Example
///
/// ```
/// use simkit::trace::{Trace, Sampling, Extend};
/// use simkit::time::{SimDuration, SimTime};
///
/// let t = Trace::from_samples(vec![0.0, 10.0], SimDuration::from_minutes(60))
///     .with_sampling(Sampling::Linear);
/// assert_eq!(t.sample(SimTime::from_secs(1800)), 5.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    samples: Vec<f64>,
    step: SimDuration,
    start: SimTime,
    sampling: Sampling,
    extend: Extend,
}

impl Trace {
    /// Builds a trace from samples spaced `step` apart, starting at the
    /// epoch.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or `step` is zero.
    pub fn from_samples(samples: Vec<f64>, step: SimDuration) -> Self {
        assert!(!samples.is_empty(), "trace must have at least one sample");
        assert!(!step.is_zero(), "trace step must be non-zero");
        Self {
            samples,
            step,
            start: SimTime::EPOCH,
            sampling: Sampling::Step,
            extend: Extend::Hold,
        }
    }

    /// Builds a constant-valued trace (one sample, held forever).
    pub fn constant(value: f64) -> Self {
        Self::from_samples(vec![value], SimDuration::from_secs(1))
    }

    /// Builds a trace by evaluating `f(t)` every `step` over `span`.
    ///
    /// # Panics
    ///
    /// Panics if `step` is zero or `span` shorter than `step`.
    pub fn from_fn(
        span: SimDuration,
        step: SimDuration,
        mut f: impl FnMut(SimTime) -> f64,
    ) -> Self {
        assert!(!step.is_zero(), "trace step must be non-zero");
        let n = span.as_secs() / step.as_secs();
        assert!(n >= 1, "span must cover at least one step");
        let samples = (0..n)
            .map(|i| f(SimTime::from_secs(i * step.as_secs())))
            .collect();
        Self::from_samples(samples, step)
    }

    /// Sets the sampling mode (builder-style).
    pub fn with_sampling(mut self, sampling: Sampling) -> Self {
        self.sampling = sampling;
        self
    }

    /// Sets the out-of-range extension mode (builder-style).
    pub fn with_extend(mut self, extend: Extend) -> Self {
        self.extend = extend;
        self
    }

    /// Sets the trace's start instant (builder-style).
    pub fn with_start(mut self, start: SimTime) -> Self {
        self.start = start;
        self
    }

    /// The spacing between stored samples.
    pub fn step(&self) -> SimDuration {
        self.step
    }

    /// Number of stored samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when only one sample is stored.
    pub fn is_empty(&self) -> bool {
        false // construction guarantees >= 1 sample
    }

    /// Total duration covered by the stored samples.
    fn span(&self) -> SimDuration {
        SimDuration::from_secs(self.samples.len() as u64 * self.step.as_secs())
    }

    /// Raw sample slice.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Samples the trace at instant `at`.
    ///
    /// Instants before the start clamp to the first sample. Instants past
    /// the end follow the [`Extend`] mode.
    pub fn sample(&self, at: SimTime) -> f64 {
        let offset_secs = at.as_secs().saturating_sub(self.start.as_secs());
        let span_secs = self.span().as_secs();
        let offset_secs = match self.extend {
            Extend::Hold => offset_secs,
            Extend::Cycle => offset_secs % span_secs,
        };
        let pos = offset_secs as f64 / self.step.as_secs() as f64;
        match self.sampling {
            Sampling::Step => {
                let idx = (pos.floor() as usize).min(self.samples.len() - 1);
                self.samples[idx]
            }
            Sampling::Linear => {
                let lo = pos.floor() as usize;
                if lo + 1 >= self.samples.len() {
                    match self.extend {
                        Extend::Hold => *self.samples.last().expect("non-empty"),
                        Extend::Cycle => {
                            // Interpolate between last and (wrapped) first.
                            let frac = pos - lo as f64;
                            let a = self.samples[lo.min(self.samples.len() - 1)];
                            let b = self.samples[0];
                            a * (1.0 - frac) + b * frac
                        }
                    }
                } else {
                    let frac = pos - lo as f64;
                    self.samples[lo] * (1.0 - frac) + self.samples[lo + 1] * frac
                }
            }
        }
    }

    /// Mean sample value over the window `[from, to)` sampled every `step`
    /// of the trace.
    pub fn window_mean(&self, from: SimTime, to: SimTime) -> f64 {
        if to <= from {
            return self.sample(from);
        }
        let step = self.step.as_secs();
        let mut sum = 0.0;
        let mut n = 0u64;
        let mut t = from.as_secs();
        while t < to.as_secs() {
            sum += self.sample(SimTime::from_secs(t));
            n += 1;
            t += step;
        }
        if n == 0 {
            self.sample(from)
        } else {
            sum / n as f64
        }
    }

    /// Applies `f` to every sample, producing a new trace with the same
    /// timing parameters.
    fn map(&self, f: impl Fn(f64) -> f64) -> Trace {
        Trace {
            samples: self.samples.iter().copied().map(f).collect(),
            ..self.clone()
        }
    }

    /// Scales every sample by `factor` (used for the renewable-power
    /// sweeps in Figs. 10–11).
    pub fn scaled(&self, factor: f64) -> Trace {
        self.map(|v| v * factor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minutes(m: u64) -> SimDuration {
        SimDuration::from_minutes(m)
    }

    #[test]
    fn step_sampling_holds_value() {
        let t = Trace::from_samples(vec![1.0, 2.0, 3.0], minutes(10));
        assert_eq!(t.sample(SimTime::from_secs(0)), 1.0);
        assert_eq!(t.sample(SimTime::from_secs(599)), 1.0);
        assert_eq!(t.sample(SimTime::from_secs(600)), 2.0);
        assert_eq!(t.sample(SimTime::from_secs(1800)), 3.0); // held past end
    }

    #[test]
    fn linear_sampling_interpolates() {
        let t = Trace::from_samples(vec![0.0, 100.0], minutes(10)).with_sampling(Sampling::Linear);
        assert_eq!(t.sample(SimTime::from_secs(300)), 50.0);
        assert_eq!(t.sample(SimTime::from_secs(600)), 100.0);
    }

    #[test]
    fn cycle_wraps_around() {
        let t = Trace::from_samples(vec![1.0, 2.0], minutes(1)).with_extend(Extend::Cycle);
        assert_eq!(t.sample(SimTime::from_secs(120)), 1.0);
        assert_eq!(t.sample(SimTime::from_secs(180)), 2.0);
        assert_eq!(t.sample(SimTime::from_secs(100 * 60)), 1.0);
    }

    #[test]
    fn start_offset_clamps_before() {
        let t = Trace::from_samples(vec![5.0, 6.0], minutes(1)).with_start(SimTime::from_secs(600));
        assert_eq!(t.sample(SimTime::from_secs(0)), 5.0);
        assert_eq!(t.sample(SimTime::from_secs(660)), 6.0);
    }

    #[test]
    fn from_fn_evaluates_at_steps() {
        let t = Trace::from_fn(minutes(3), minutes(1), |at| at.as_secs() as f64);
        assert_eq!(t.samples(), &[0.0, 60.0, 120.0]);
        assert_eq!(t.span(), minutes(3));
    }

    #[test]
    fn window_mean_averages() {
        let t = Trace::from_samples(vec![1.0, 3.0], minutes(1));
        let m = t.window_mean(SimTime::from_secs(0), SimTime::from_secs(120));
        assert_eq!(m, 2.0);
        // Degenerate window falls back to point sample.
        assert_eq!(
            t.window_mean(SimTime::from_secs(0), SimTime::from_secs(0)),
            1.0
        );
    }

    #[test]
    fn map_and_scale() {
        let t = Trace::from_samples(vec![1.0, 2.0], minutes(1));
        assert_eq!(t.scaled(2.5).samples(), &[2.5, 5.0]);
        assert_eq!(t.map(|v| v + 1.0).samples(), &[2.0, 3.0]);
    }

    #[test]
    fn constant_trace() {
        let t = Trace::constant(42.0);
        assert_eq!(t.sample(SimTime::from_secs(1_000_000)), 42.0);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn empty_trace_rejected() {
        Trace::from_samples(vec![], minutes(1));
    }
}
