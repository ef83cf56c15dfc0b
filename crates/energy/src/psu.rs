//! Programmable power supply.
//!
//! The paper validated its software power caps by feeding the cluster
//! from "a programmable power supply that was capable of accurately
//! monitoring grid power consumption ... to verify that our system's power
//! usage never exceeded the limit dictated by the container power caps"
//! (§4, "Grid Power"). [`ProgrammablePsu`] plays that role: it meters
//! every draw and records violations of a configured limit, which the
//! integration tests assert to be empty.

use serde::{Deserialize, Serialize};

use simkit::time::{SimDuration, SimTime};
use simkit::units::{WattHours, Watts};

/// A recorded over-limit event.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Violation {
    /// When the violation occurred.
    at: SimTime,
    /// Power drawn at that instant.
    drawn: Watts,
    /// Limit in force at that instant.
    limit: Watts,
}

/// A metering power supply with an optional programmable limit.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ProgrammablePsu {
    limit: Option<Watts>,
    total_energy: WattHours,
    peak: Watts,
    violations: Vec<Violation>,
    samples: u64,
}

impl ProgrammablePsu {
    /// Creates an unlimited metering supply.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the power limit used for violation detection.
    pub fn set_limit(&mut self, limit: Option<Watts>) {
        self.limit = limit;
    }

    /// Records a draw of `power` for `dt` starting at `at`.
    ///
    /// Unlike a breaker, the PSU does not clip the draw — it *records*
    /// violations so tests can verify software capping kept demand legal.
    pub fn record_draw(&mut self, at: SimTime, power: Watts, dt: SimDuration) {
        let p = power.max_zero();
        self.total_energy += p * dt;
        self.peak = self.peak.max(p);
        self.samples += 1;
        if let Some(limit) = self.limit {
            // Tolerate floating-point residue from settlement arithmetic.
            if p.watts() > limit.watts() + 1e-6 {
                self.violations.push(Violation {
                    at,
                    drawn: p,
                    limit,
                });
            }
        }
    }

    /// Total energy delivered.
    pub fn total_energy(&self) -> WattHours {
        self.total_energy
    }

    /// Peak instantaneous power observed.
    pub fn peak(&self) -> Watts {
        self.peak
    }

    /// Number of draw samples recorded.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// All recorded over-limit events.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// `true` when no draw ever exceeded the limit.
    pub fn limit_respected(&self) -> bool {
        self.violations.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minute() -> SimDuration {
        SimDuration::from_minutes(1)
    }

    #[test]
    fn meters_energy_and_peak() {
        let mut psu = ProgrammablePsu::new();
        psu.record_draw(SimTime::from_secs(0), Watts::new(60.0), minute());
        psu.record_draw(SimTime::from_secs(60), Watts::new(120.0), minute());
        assert!((psu.total_energy().watt_hours() - 3.0).abs() < 1e-9);
        assert_eq!(psu.peak(), Watts::new(120.0));
        assert_eq!(psu.samples(), 2);
        assert!(psu.limit_respected());
    }

    #[test]
    fn detects_violations() {
        let mut psu = ProgrammablePsu::new();
        psu.set_limit(Some(Watts::new(100.0)));
        psu.record_draw(SimTime::from_secs(0), Watts::new(99.9), minute());
        psu.record_draw(SimTime::from_secs(60), Watts::new(100.5), minute());
        assert_eq!(psu.violations().len(), 1);
        assert!(!psu.limit_respected());
        assert_eq!(psu.violations()[0].drawn, Watts::new(100.5));
        assert_eq!(psu.violations()[0].at, SimTime::from_secs(60));
    }

    #[test]
    fn tolerates_floating_point_residue() {
        let mut psu = ProgrammablePsu::new();
        psu.set_limit(Some(Watts::new(100.0)));
        psu.record_draw(SimTime::from_secs(0), Watts::new(100.0 + 1e-9), minute());
        assert!(psu.limit_respected());
    }

    #[test]
    fn negative_draws_clamped() {
        let mut psu = ProgrammablePsu::new();
        psu.record_draw(SimTime::from_secs(0), Watts::new(-5.0), minute());
        assert_eq!(psu.total_energy(), WattHours::ZERO);
        assert_eq!(psu.peak(), Watts::ZERO);
    }
}
