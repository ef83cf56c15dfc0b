//! Simulated time: instants, durations, and the tick clock.
//!
//! The ecovisor discretizes power, energy, and carbon accounting over a
//! small tick interval Δt (paper §3.1, "e.g. every minute"). [`TickClock`]
//! drives that discretization; [`SimTime`] / [`SimDuration`] are plain
//! second-resolution time types with calendar helpers (hour-of-day etc.)
//! used by the diurnal trace generators.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// Number of seconds in one hour.
const SECS_PER_HOUR: u64 = 3_600;
/// Number of seconds in one day.
pub const SECS_PER_DAY: u64 = 86_400;

/// An instant in simulated time, measured in whole seconds since the
/// simulation epoch (midnight of day 0).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation epoch (t = 0, midnight of day 0).
    pub const EPOCH: Self = Self(0);

    /// Constructs an instant from seconds since the epoch.
    #[inline]
    pub const fn from_secs(secs: u64) -> Self {
        Self(secs)
    }

    /// Constructs an instant from whole hours since the epoch.
    #[inline]
    pub fn from_hours(hours: u64) -> Self {
        Self(hours * SECS_PER_HOUR)
    }

    /// Seconds since the epoch.
    #[inline]
    pub fn as_secs(self) -> u64 {
        self.0
    }

    /// Zero-based day index (how many whole days have elapsed).
    #[inline]
    pub fn day_index(self) -> u64 {
        self.0 / SECS_PER_DAY
    }

    /// Seconds elapsed since the most recent midnight.
    #[inline]
    fn seconds_into_day(self) -> u64 {
        self.0 % SECS_PER_DAY
    }

    /// Fractional hour of day in `[0, 24)`, used by diurnal models.
    #[inline]
    pub fn hour_of_day(self) -> f64 {
        self.seconds_into_day() as f64 / SECS_PER_HOUR as f64
    }

    /// Saturating subtraction of a duration.
    #[inline]
    pub fn saturating_sub(self, d: SimDuration) -> Self {
        Self(self.0.saturating_sub(d.0))
    }

    /// Duration elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is after `self`.
    #[inline]
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        assert!(
            earlier.0 <= self.0,
            "duration_since called with a later instant"
        );
        SimDuration(self.0 - earlier.0)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let day = self.day_index();
        let rem = self.seconds_into_day();
        let (h, m, s) = (rem / 3600, (rem % 3600) / 60, rem % 60);
        write!(f, "d{day} {h:02}:{m:02}:{s:02}")
    }
}

/// A span of simulated time, measured in whole seconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: Self = Self(0);

    /// Constructs a duration from seconds.
    #[inline]
    pub const fn from_secs(secs: u64) -> Self {
        Self(secs)
    }

    /// Constructs a duration from minutes.
    #[inline]
    pub fn from_minutes(minutes: u64) -> Self {
        Self(minutes * 60)
    }

    /// Constructs a duration from hours.
    #[inline]
    pub fn from_hours(hours: u64) -> Self {
        Self(hours * SECS_PER_HOUR)
    }

    /// Duration in whole seconds.
    #[inline]
    pub fn as_secs(self) -> u64 {
        self.0
    }

    /// Duration in seconds as a float.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64
    }

    /// Duration in fractional hours.
    #[inline]
    pub fn as_hours(self) -> f64 {
        self.0 as f64 / SECS_PER_HOUR as f64
    }

    /// `true` when the duration is zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for SimDuration {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Self(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: u64) -> Self {
        Self(self.0 * rhs)
    }
}

impl Div<SimDuration> for SimDuration {
    type Output = f64;
    #[inline]
    fn div(self, rhs: SimDuration) -> f64 {
        self.0 as f64 / rhs.0 as f64
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        Self(iter.map(|d| d.0).sum())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (h, m, s) = (self.0 / 3600, (self.0 % 3600) / 60, self.0 % 60);
        write!(f, "{h:02}:{m:02}:{s:02}")
    }
}

/// The tick clock driving the ecovisor's discretized accounting.
///
/// Paper §3.1: "our ecovisor discretizes and accounts for these values over
/// a small discrete time (or tick) interval Δt, e.g., every minute". The
/// clock hands out consecutive tick indices; each tick covers
/// `[now, now + interval)`.
///
/// # Example
///
/// ```
/// use simkit::time::{SimDuration, TickClock};
///
/// let mut clock = TickClock::new(SimDuration::from_minutes(1));
/// assert_eq!(clock.tick_index(), 0);
/// clock.advance();
/// assert_eq!(clock.tick_index(), 1);
/// assert_eq!(clock.now().as_secs(), 60);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TickClock {
    interval: SimDuration,
    tick: u64,
}

impl TickClock {
    /// Creates a clock at the epoch with the given tick interval.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn new(interval: SimDuration) -> Self {
        assert!(!interval.is_zero(), "tick interval must be non-zero");
        Self { interval, tick: 0 }
    }

    /// The tick interval Δt.
    #[inline]
    pub fn interval(&self) -> SimDuration {
        self.interval
    }

    /// Index of the current tick (0-based).
    #[inline]
    pub fn tick_index(&self) -> u64 {
        self.tick
    }

    /// Start instant of the current tick.
    #[inline]
    pub fn now(&self) -> SimTime {
        SimTime::from_secs(self.tick * self.interval.as_secs())
    }

    /// End instant of the current tick (`now + Δt`).
    #[inline]
    pub fn tick_end(&self) -> SimTime {
        self.now() + self.interval
    }

    /// Advances to the next tick and returns its start instant.
    pub fn advance(&mut self) -> SimTime {
        self.tick += 1;
        self.now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_of_day_helpers() {
        let t = SimTime::from_secs(SECS_PER_DAY * 2 + 6 * SECS_PER_HOUR + 1800);
        assert_eq!(t.day_index(), 2);
        assert!((t.hour_of_day() - 6.5).abs() < 1e-12);
        assert_eq!(t.seconds_into_day(), 6 * SECS_PER_HOUR + 1800);
    }

    #[test]
    fn duration_conversions() {
        assert_eq!(SimDuration::from_minutes(90).as_secs(), 5400);
        assert!((SimDuration::from_minutes(90).as_hours() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn instant_arithmetic() {
        let a = SimTime::from_secs(100);
        let b = a + SimDuration::from_secs(50);
        assert_eq!(b.as_secs(), 150);
        assert_eq!((b - a).as_secs(), 50);
        assert_eq!(b.duration_since(a).as_secs(), 50);
        assert_eq!(
            a.saturating_sub(SimDuration::from_secs(1000)),
            SimTime::EPOCH
        );
    }

    #[test]
    #[should_panic(expected = "later instant")]
    fn duration_since_panics_when_reversed() {
        SimTime::from_secs(1).duration_since(SimTime::from_secs(2));
    }

    #[test]
    fn tick_clock_advances() {
        let mut c = TickClock::new(SimDuration::from_minutes(5));
        assert_eq!(c.now(), SimTime::EPOCH);
        assert_eq!(c.tick_end().as_secs(), 300);
        c.advance();
        c.advance();
        assert_eq!(c.tick_index(), 2);
        assert_eq!(c.now().as_secs(), 600);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_interval_rejected() {
        TickClock::new(SimDuration::ZERO);
    }

    #[test]
    fn display_formats() {
        let t = SimTime::from_secs(SECS_PER_DAY + 3 * SECS_PER_HOUR + 62);
        assert_eq!(format!("{t}"), "d1 03:01:02");
        assert_eq!(format!("{}", SimDuration::from_secs(3723)), "01:02:03");
    }
}
