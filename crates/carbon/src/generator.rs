//! Synthetic carbon-intensity trace generation.
//!
//! [`CarbonTraceBuilder`] turns a [`RegionProfile`] into a concrete
//! [`Trace`] sampled every 5 minutes (the granularity at which the paper's
//! ecovisor polls electricityMap, §2). Generation is fully deterministic
//! given a seed: the noise is a mean-reverting Ornstein–Uhlenbeck process
//! and excursions (multi-hour generation-mix shifts) are sampled from the
//! profile's excursion parameters.
//!
//! The long high-carbon excursions matter for fidelity: the paper's
//! suspend-resume experiments see 5–7× runtime inflation precisely because
//! "jobs that happen to start executing during a long high-carbon period
//! are forced to stop and wait" (§5.1.2).

use simkit::rng::SimRng;
use simkit::time::{SimDuration, SimTime};
use simkit::trace::{Extend, Sampling, Trace};

use crate::regions::RegionProfile;

/// Default sample spacing: electricityMap-style 5-minute estimates.
pub const DEFAULT_STEP: SimDuration = SimDuration::from_secs(300);

/// Builder producing deterministic carbon-intensity traces for a region.
///
/// # Example
///
/// ```
/// use carbon_intel::{regions, CarbonTraceBuilder};
///
/// let trace = CarbonTraceBuilder::new(regions::ontario())
///     .days(1)
///     .seed(7)
///     .build();
/// assert_eq!(trace.len(), 288); // one day of 5-minute samples
/// ```
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CarbonTraceBuilder {
    profile: RegionProfile,
    days: u64,
    step: SimDuration,
    seed: u64,
}

impl CarbonTraceBuilder {
    /// Starts a builder for the given region profile with 2 days of data,
    /// 5-minute steps, and seed 0.
    pub fn new(profile: RegionProfile) -> Self {
        Self {
            profile,
            days: 2,
            step: DEFAULT_STEP,
            seed: 0,
        }
    }

    /// Sets the number of days to generate.
    pub fn days(mut self, days: u64) -> Self {
        self.days = days;
        self
    }

    /// Sets the sample spacing.
    pub fn step(mut self, step: SimDuration) -> Self {
        self.step = step;
        self
    }

    /// Sets the generation seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Generates the intensity trace (g·CO2/kWh per sample).
    ///
    /// # Panics
    ///
    /// Panics if configured for zero days or a zero step.
    pub fn build(&self) -> Trace {
        assert!(self.days > 0, "trace must cover at least one day");
        assert!(!self.step.is_zero(), "step must be non-zero");
        let p = &self.profile;
        let mut rng = SimRng::from_seed(self.seed).fork(&format!("carbon/{}", p.name));
        let step_hours = self.step.as_hours();
        let n = (self.days * simkit::time::SECS_PER_DAY) / self.step.as_secs();

        // Ornstein–Uhlenbeck noise state (relative, mean 0).
        let mut noise = 0.0_f64;
        // Active excursion: (remaining_hours, relative_magnitude).
        let mut excursion: Option<(f64, f64)> = None;

        let mut samples = Vec::with_capacity(n as usize);
        for i in 0..n {
            let at = SimTime::from_secs(i * self.step.as_secs());
            let hour = at.hour_of_day();
            let day = at.day_index();
            let weekend = day % 7 >= 5;

            // Evolve OU noise.
            let theta = p.noise_reversion;
            let sigma = p.noise_std;
            noise += -theta * noise * step_hours
                + sigma * (2.0 * theta * step_hours).sqrt() * rng.normal(0.0, 1.0);

            // Excursion lifecycle.
            match &mut excursion {
                Some((remaining, _)) => {
                    *remaining -= step_hours;
                    if *remaining <= 0.0 {
                        excursion = None;
                    }
                }
                None => {
                    if rng.chance(p.excursion_prob_per_hour * step_hours) {
                        let hours = rng.uniform(p.excursion_hours.0, p.excursion_hours.1);
                        let mag = rng.uniform(p.excursion_magnitude.0, p.excursion_magnitude.1);
                        let sign = if rng.chance(0.65) { 1.0 } else { -1.0 };
                        excursion = Some((hours, sign * mag));
                    }
                }
            }
            let excursion_mult = 1.0 + excursion.map(|(_, m)| m).unwrap_or(0.0);

            let diurnal = p.diurnal_multiplier(hour);
            let weekly = if weekend { p.weekend_factor } else { 1.0 };
            let value = (p.base_intensity * diurnal * weekly * excursion_mult * (1.0 + noise))
                .clamp(p.floor, p.ceiling);
            samples.push(value);
        }
        Trace::from_samples(samples, self.step)
            .with_sampling(Sampling::Step)
            .with_extend(Extend::Cycle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regions;
    use simkit::stats;

    fn day_samples(profile: RegionProfile, days: u64, seed: u64) -> Vec<f64> {
        CarbonTraceBuilder::new(profile)
            .days(days)
            .seed(seed)
            .build()
            .samples()
            .to_vec()
    }

    #[test]
    fn deterministic_given_seed() {
        let a = day_samples(regions::california(), 2, 11);
        let b = day_samples(regions::california(), 2, 11);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = day_samples(regions::california(), 2, 1);
        let b = day_samples(regions::california(), 2, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn respects_floor_and_ceiling() {
        for seed in 0..5 {
            let p = regions::california();
            for v in day_samples(p.clone(), 4, seed) {
                assert!(v >= p.floor && v <= p.ceiling, "sample {v} out of bounds");
            }
        }
    }

    #[test]
    fn california_more_volatile_than_ontario() {
        let ca = day_samples(regions::california(), 7, 3);
        let on = day_samples(regions::ontario(), 7, 3);
        let rel_std = |xs: &[f64]| {
            let s = stats::Summary::of(xs).expect("non-empty");
            s.std_dev / s.mean
        };
        assert!(
            rel_std(&ca) > 1.5 * rel_std(&on),
            "CA rel-std {} should exceed ON rel-std {}",
            rel_std(&ca),
            rel_std(&on)
        );
    }

    #[test]
    fn mean_levels_match_figure1_ordering() {
        let mean = |p: RegionProfile| {
            let xs = day_samples(p, 7, 9);
            stats::mean(&xs).expect("non-empty")
        };
        let (on, uy, ca) = (
            mean(regions::ontario()),
            mean(regions::uruguay()),
            mean(regions::california()),
        );
        assert!(on < uy && uy < ca, "ordering violated: {on} {uy} {ca}");
        // Fig. 1 levels: Ontario tens, California low hundreds.
        assert!((20.0..60.0).contains(&on), "Ontario mean {on}");
        assert!((120.0..330.0).contains(&ca), "California mean {ca}");
    }

    #[test]
    fn midday_dip_visible_in_california() {
        let trace = CarbonTraceBuilder::new(regions::california())
            .days(6)
            .seed(5)
            .build();
        // Average across days at 12:00 vs 20:00.
        let mut midday = 0.0;
        let mut evening = 0.0;
        for d in 0..6 {
            midday += trace.sample(SimTime::from_hours(d * 24 + 12));
            evening += trace.sample(SimTime::from_hours(d * 24 + 20));
        }
        assert!(
            evening > 1.4 * midday,
            "evening {evening} should exceed midday {midday} by >1.4x"
        );
    }

    #[test]
    fn sample_count_matches_days_and_step() {
        let t = CarbonTraceBuilder::new(regions::uruguay())
            .days(3)
            .step(SimDuration::from_minutes(10))
            .build();
        assert_eq!(t.len(), 3 * 144);
    }

    #[test]
    #[should_panic(expected = "at least one day")]
    fn zero_days_rejected() {
        CarbonTraceBuilder::new(regions::ontario()).days(0).build();
    }
}
