//! Solar array emulator.
//!
//! The paper's prototype uses a Chroma 62020H-150S solar-array emulator —
//! "a programmable power supply that mimics the electrical response of a
//! solar module's IV curve" replaying irradiance traces (§4). What the
//! ecovisor observes is simply the array's power output over time, so the
//! model here generates exactly that: a clear-sky bell curve over daylight
//! hours scaled by the array rating, attenuated by a stochastic weather
//! process (slow cloud-cover fronts plus fast scatter).

use serde::{Deserialize, Serialize};

use simkit::rng::SimRng;
use simkit::time::{SimDuration, SimTime};
use simkit::trace::{Extend, Sampling, Trace};
use simkit::units::Watts;

/// What a solar power trace delivers over the tick window `[from, to)`:
/// its sample at the window's midpoint (at `from` for an empty window),
/// never negative.
pub fn power_over(trace: &Trace, from: SimTime, to: SimTime) -> Watts {
    let at = if to <= from {
        from
    } else {
        SimTime::from_secs(from.as_secs() + (to.as_secs() - from.as_secs()) / 2)
    };
    Watts::new(trace.sample(at).max(0.0))
}

/// Weather regime controlling cloud attenuation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Weather {
    /// Cloudless days: pure clear-sky bell curve.
    Clear,
    /// Mixed conditions: slow cloud fronts plus fast scatter (default).
    #[default]
    Mixed,
    /// Heavily overcast: strong persistent attenuation.
    Overcast,
}

impl Weather {
    /// `(front_probability_per_hour, attenuation_range, scatter_std)`.
    fn parameters(self) -> (f64, (f64, f64), f64) {
        match self {
            Weather::Clear => (0.0, (0.0, 0.0), 0.01),
            Weather::Mixed => (0.12, (0.2, 0.7), 0.05),
            Weather::Overcast => (0.5, (0.5, 0.9), 0.08),
        }
    }
}

/// Builder for deterministic solar output traces.
///
/// # Example
///
/// ```
/// use energy_system::solar::{SolarArrayBuilder, Weather};
/// use simkit::time::SimTime;
///
/// let array = SolarArrayBuilder::new(400.0) // 400 W rated
///     .days(1)
///     .weather(Weather::Clear)
///     .seed(1)
///     .build();
/// assert!(array.sample(SimTime::from_hours(12)) > 300.0);
/// assert_eq!(array.sample(SimTime::from_hours(0)), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SolarArrayBuilder {
    rated_watts: f64,
    days: u64,
    step: SimDuration,
    seed: u64,
    weather: Weather,
    sunrise_hour: f64,
    sunset_hour: f64,
}

impl SolarArrayBuilder {
    /// Starts a builder for an array with the given rated output (watts at
    /// peak clear-sky irradiance).
    ///
    /// # Panics
    ///
    /// Panics if `rated_watts` is not positive.
    pub fn new(rated_watts: f64) -> Self {
        assert!(rated_watts > 0.0, "rated power must be positive");
        Self {
            rated_watts,
            days: 2,
            step: SimDuration::from_minutes(5),
            seed: 0,
            weather: Weather::Mixed,
            sunrise_hour: 6.0,
            sunset_hour: 19.0,
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

    /// Sets the weather regime.
    pub fn weather(mut self, weather: Weather) -> Self {
        self.weather = weather;
        self
    }

    /// Sets daylight hours (defaults 6:00–19:00).
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= sunrise < sunset <= 24`.
    pub fn daylight(mut self, sunrise_hour: f64, sunset_hour: f64) -> Self {
        assert!(
            0.0 <= sunrise_hour && sunrise_hour < sunset_hour && sunset_hour <= 24.0,
            "daylight window must satisfy 0 <= sunrise < sunset <= 24"
        );
        self.sunrise_hour = sunrise_hour;
        self.sunset_hour = sunset_hour;
        self
    }

    /// Clear-sky output fraction at an hour-of-day: a sine bell between
    /// sunrise and sunset, zero at night.
    fn clear_sky_fraction(&self, hour: f64) -> f64 {
        let h = hour.rem_euclid(24.0);
        if h <= self.sunrise_hour || h >= self.sunset_hour {
            return 0.0;
        }
        let x = (h - self.sunrise_hour) / (self.sunset_hour - self.sunrise_hour);
        (std::f64::consts::PI * x).sin().powf(1.2)
    }

    /// What [`build`](Self::build) asserts, as a value — for a builder
    /// decoded from bytes, which never ran the setters.
    ///
    /// # Errors
    ///
    /// Zero days, a zero step, or a span whose seconds overflow.
    pub fn check(&self) -> Result<(), &'static str> {
        if self.days == 0 {
            return Err("trace must cover at least one day");
        }
        if self.step.is_zero() {
            return Err("step must be non-zero");
        }
        let span = self.days.checked_mul(simkit::time::SECS_PER_DAY);
        span.map(drop).ok_or("span overflows the clock")
    }

    /// Generates the output power trace (watts per sample).
    ///
    /// # Panics
    ///
    /// Panics where [`check`](Self::check) refuses.
    pub fn build(&self) -> Trace {
        if let Err(e) = self.check() {
            panic!("{e}");
        }
        let mut rng = SimRng::from_seed(self.seed).fork("solar");
        let (front_prob, atten_range, scatter_std) = self.weather.parameters();
        let step_hours = self.step.as_hours();
        let n = (self.days * simkit::time::SECS_PER_DAY) / self.step.as_secs();

        // Active cloud front: (remaining_hours, attenuation in [0,1]).
        let mut front: Option<(f64, f64)> = None;
        let mut samples = Vec::with_capacity(n as usize);
        for i in 0..n {
            let at = SimTime::from_secs(i * self.step.as_secs());
            let clear = self.clear_sky_fraction(at.hour_of_day());

            match &mut front {
                Some((remaining, _)) => {
                    *remaining -= step_hours;
                    if *remaining <= 0.0 {
                        front = None;
                    }
                }
                None => {
                    if front_prob > 0.0 && rng.chance(front_prob * step_hours) {
                        let hours = rng.uniform(0.5, 4.0);
                        let atten = rng.uniform(atten_range.0, atten_range.1);
                        front = Some((hours, atten));
                    }
                }
            }
            let attenuation = 1.0 - front.map(|(_, a)| a).unwrap_or(0.0);
            let scatter = (1.0 + rng.normal(0.0, scatter_std)).clamp(0.0, 1.15);
            let power = (self.rated_watts * clear * attenuation * scatter).max(0.0);
            samples.push(power);
        }
        Trace::from_samples(samples, self.step)
            .with_sampling(Sampling::Step)
            .with_extend(Extend::Cycle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn night_output_is_zero() {
        let src = SolarArrayBuilder::new(400.0).days(2).seed(3).build();
        for h in [0u64, 3, 5, 20, 23] {
            assert_eq!(src.sample(SimTime::from_hours(h)), 0.0, "hour {h}");
        }
    }

    #[test]
    fn clear_noon_near_rated() {
        let src = SolarArrayBuilder::new(400.0)
            .days(1)
            .weather(Weather::Clear)
            .seed(1)
            .build();
        let noon = src.sample(SimTime::from_hours(12));
        assert!((350.0..=440.0).contains(&noon), "noon output {noon}");
    }

    #[test]
    fn overcast_dimmer_than_clear() {
        let daily_energy = |w: Weather| {
            let src = SolarArrayBuilder::new(400.0)
                .days(3)
                .weather(w)
                .seed(7)
                .build();
            let mut total = 0.0;
            for m in (0..(3 * 24 * 60)).step_by(5) {
                total += src.sample(SimTime::from_secs(m * 60)) / 12.0;
            }
            total
        };
        let clear = daily_energy(Weather::Clear);
        let overcast = daily_energy(Weather::Overcast);
        assert!(
            overcast < 0.7 * clear,
            "overcast {overcast} should be well below clear {clear}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = SolarArrayBuilder::new(300.0).days(2).seed(9).build();
        let b = SolarArrayBuilder::new(300.0).days(2).seed(9).build();
        assert_eq!(a.samples(), b.samples());
    }

    #[test]
    fn never_negative_never_wildly_above_rated() {
        let src = SolarArrayBuilder::new(250.0).days(4).seed(11).build();
        for m in (0..(4 * 24 * 60)).step_by(7) {
            let p = src.sample(SimTime::from_secs(m * 60));
            assert!(p >= 0.0, "negative output at minute {m}");
            assert!(p <= 250.0 * 1.15 + 1e-9, "output {p} above scatter ceiling");
        }
    }

    #[test]
    fn clear_sky_fraction_shape() {
        let b = SolarArrayBuilder::new(100.0);
        assert_eq!(b.clear_sky_fraction(6.0), 0.0);
        assert_eq!(b.clear_sky_fraction(19.0), 0.0);
        let mid = b.clear_sky_fraction(12.5);
        assert!(mid > 0.95, "midday fraction {mid}");
        assert!(b.clear_sky_fraction(8.0) < mid);
    }

    #[test]
    fn mean_power_over_window() {
        let src = SolarArrayBuilder::new(400.0)
            .days(1)
            .weather(Weather::Clear)
            .seed(2)
            .build();
        let m = power_over(&src, SimTime::from_hours(11), SimTime::from_hours(13));
        assert!(m.watts() > 300.0);
        // Degenerate window falls back to a point sample.
        let p = power_over(&src, SimTime::from_hours(12), SimTime::from_hours(12));
        assert!(p.watts() > 300.0);
        // A window at the end of the clock has a midpoint, not an overflow.
        let late = SimTime::from_secs(u64::MAX - 60);
        let w = power_over(&src, late, SimTime::from_secs(u64::MAX));
        assert_eq!(w.watts(), src.sample(SimTime::from_secs(u64::MAX - 30)));
    }

    #[test]
    fn custom_daylight_window() {
        let src = SolarArrayBuilder::new(100.0)
            .daylight(8.0, 16.0)
            .weather(Weather::Clear)
            .days(1)
            .build();
        assert_eq!(src.sample(SimTime::from_hours(7)), 0.0);
        assert!(src.sample(SimTime::from_hours(12)) > 80.0);
        assert_eq!(src.sample(SimTime::from_hours(17)), 0.0);
    }

    #[test]
    #[should_panic(expected = "rated power must be positive")]
    fn zero_rating_rejected() {
        SolarArrayBuilder::new(0.0);
    }
}
