//! Battery bank model.
//!
//! Reproduces the paper's prototype battery (§4, "Battery Power"): a
//! 1,440 Wh lithium-ion bank whose charge controller only discharges to
//! 70 % depth (30 % state-of-charge counts as *empty*, since deep
//! discharges shorten cycle life), charges at up to 0.25C, and discharges
//! at up to 1C. The model integrates state of charge over tick intervals,
//! enforces rate and capacity limits, and counts equivalent full cycles
//! for the battery-wear extension.

use serde::{Deserialize, Serialize};

use simkit::time::SimDuration;
use simkit::units::{WattHours, Watts};

/// Static parameters of a battery bank.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BatterySpec {
    /// Nameplate energy capacity.
    pub capacity: WattHours,
    /// Fraction of capacity below which the bank reports empty
    /// (0.30 in the paper: 70 % usable depth of discharge).
    pub min_soc_fraction: f64,
    /// Maximum charging power (0.25C in the paper).
    pub max_charge_rate: Watts,
    /// Maximum discharging power (1C in the paper).
    pub max_discharge_rate: Watts,
    /// One-way charge efficiency in `(0, 1]`; energy drawn from a source
    /// is multiplied by this before being stored. The paper does not
    /// model losses, so the default is 1.0.
    pub charge_efficiency: f64,
}

impl BatterySpec {
    /// The paper's prototype bank: 1,440 Wh, 30 % floor, 0.25C / 1C.
    pub fn paper_prototype() -> Self {
        let capacity = WattHours::new(1440.0);
        Self {
            capacity,
            min_soc_fraction: 0.30,
            max_charge_rate: Watts::new(1440.0 * 0.25),
            max_discharge_rate: Watts::new(1440.0),
            charge_efficiency: 1.0,
        }
    }

    /// A bank scaled to `capacity`, keeping the paper's C-rates and floor.
    pub fn with_capacity(capacity: WattHours) -> Self {
        Self {
            capacity,
            min_soc_fraction: 0.30,
            max_charge_rate: Watts::new(capacity.watt_hours() * 0.25),
            max_discharge_rate: Watts::new(capacity.watt_hours()),
            charge_efficiency: 1.0,
        }
    }

    /// Energy level regarded as empty.
    pub fn floor_energy(&self) -> WattHours {
        self.capacity * self.min_soc_fraction
    }

    /// Validates invariants.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    fn validate(&self) -> Result<(), String> {
        if self.capacity.watt_hours() <= 0.0 {
            return Err("capacity must be positive".into());
        }
        if !(0.0..1.0).contains(&self.min_soc_fraction) {
            return Err("min_soc_fraction must be in [0, 1)".into());
        }
        if self.max_charge_rate.watts() < 0.0 || self.max_discharge_rate.watts() < 0.0 {
            return Err("rates must be non-negative".into());
        }
        if !(0.0 < self.charge_efficiency && self.charge_efficiency <= 1.0) {
            return Err("charge efficiency must be in (0, 1]".into());
        }
        Ok(())
    }
}

/// A battery bank with integrated state of charge.
///
/// # Example
///
/// ```
/// use energy_system::battery::{Battery, BatterySpec};
/// use simkit::time::SimDuration;
/// use simkit::units::Watts;
///
/// let mut bank = Battery::new_full(BatterySpec::paper_prototype());
/// let dt = SimDuration::from_minutes(60);
/// let delivered = bank.discharge(Watts::new(144.0), dt);
/// assert!((delivered.watts() - 144.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Battery {
    spec: BatterySpec,
    soc: WattHours,
    /// Total energy ever charged into the bank (for cycle counting).
    charged_total: WattHours,
    /// Total energy ever discharged from the bank.
    discharged_total: WattHours,
}

impl Battery {
    /// Creates a bank at full charge.
    ///
    /// # Panics
    ///
    /// Panics if the spec is invalid.
    pub fn new_full(spec: BatterySpec) -> Self {
        Self::new_at(spec, 1.0)
    }

    /// Creates a bank at the given state-of-charge fraction (clamped to
    /// `[min_soc_fraction, 1]`).
    ///
    /// # Panics
    ///
    /// Panics if the spec is invalid.
    pub fn new_at(spec: BatterySpec, soc_fraction: f64) -> Self {
        spec.validate().expect("invalid battery spec");
        let frac = soc_fraction.clamp(spec.min_soc_fraction, 1.0);
        Self {
            soc: spec.capacity * frac,
            spec,
            charged_total: WattHours::ZERO,
            discharged_total: WattHours::ZERO,
        }
    }

    /// The static spec.
    pub fn spec(&self) -> &BatterySpec {
        &self.spec
    }

    /// Current stored energy (absolute, including the unusable floor).
    pub fn charge_level(&self) -> WattHours {
        self.soc
    }

    /// State of charge as a fraction of nameplate capacity in `[0, 1]`.
    pub fn soc_fraction(&self) -> f64 {
        self.soc / self.spec.capacity
    }

    /// Energy available above the empty floor.
    pub fn usable_energy(&self) -> WattHours {
        (self.soc - self.spec.floor_energy()).max_zero()
    }

    /// Energy that can still be stored before the bank is full.
    fn headroom(&self) -> WattHours {
        (self.spec.capacity - self.soc).max_zero()
    }

    /// `true` when at (or within rounding of) full capacity.
    pub fn is_full(&self) -> bool {
        self.headroom().watt_hours() < 1e-9
    }

    /// `true` when at (or below) the configured empty floor.
    pub fn is_empty(&self) -> bool {
        self.usable_energy().watt_hours() < 1e-9
    }

    /// Equivalent full cycles so far (discharge throughput / capacity).
    pub fn equivalent_cycles(&self) -> f64 {
        self.discharged_total / self.spec.capacity
    }

    /// Maximum power the bank can accept for the next `dt`, considering
    /// both the charge-rate limit and remaining headroom.
    pub fn max_charge_power(&self, dt: SimDuration) -> Watts {
        if dt.is_zero() {
            return Watts::ZERO;
        }
        let headroom_limited = self.headroom() / self.spec.charge_efficiency / dt;
        self.spec.max_charge_rate.min(headroom_limited)
    }

    /// Maximum power the bank can deliver for the next `dt`, considering
    /// both the discharge-rate limit and usable energy above the floor.
    pub fn max_discharge_power(&self, dt: SimDuration) -> Watts {
        if dt.is_zero() {
            return Watts::ZERO;
        }
        let energy_limited = self.usable_energy() / dt;
        self.spec.max_discharge_rate.min(energy_limited)
    }

    /// Charges at up to `power` for `dt`; returns the power actually
    /// accepted (post rate/headroom limiting, pre-efficiency).
    ///
    /// Negative requests are treated as zero.
    pub fn charge(&mut self, power: Watts, dt: SimDuration) -> Watts {
        let accepted = power.max_zero().min(self.max_charge_power(dt));
        let stored = accepted * dt * self.spec.charge_efficiency;
        self.soc = (self.soc + stored).min(self.spec.capacity);
        self.charged_total += stored;
        accepted
    }

    /// Discharges at up to `power` for `dt`; returns the power actually
    /// delivered (post rate/floor limiting).
    ///
    /// Negative requests are treated as zero.
    pub fn discharge(&mut self, power: Watts, dt: SimDuration) -> Watts {
        let delivered = power.max_zero().min(self.max_discharge_power(dt));
        let drawn = delivered * dt;
        self.soc = (self.soc - drawn).max(self.spec.floor_energy());
        self.discharged_total += drawn;
        delivered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hour() -> SimDuration {
        SimDuration::from_minutes(60)
    }

    #[test]
    fn paper_prototype_constants() {
        let spec = BatterySpec::paper_prototype();
        assert_eq!(spec.capacity, WattHours::new(1440.0));
        assert_eq!(spec.max_charge_rate, Watts::new(360.0)); // 0.25C
        assert_eq!(spec.max_discharge_rate, Watts::new(1440.0)); // 1C
        assert_eq!(spec.floor_energy(), WattHours::new(432.0)); // 30%
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn charge_rate_limited_to_quarter_c() {
        let mut b = Battery::new_at(BatterySpec::paper_prototype(), 0.30);
        // Ask for far more than 0.25C.
        let accepted = b.charge(Watts::new(10_000.0), hour());
        assert_eq!(accepted, Watts::new(360.0));
        assert!((b.charge_level().watt_hours() - (432.0 + 360.0)).abs() < 1e-9);
    }

    #[test]
    fn charges_to_full_in_four_hours_from_empty() {
        // Paper: "the battery charges to full capacity in 4 hours" from
        // empty (30% SoC) at 0.25C — 1008 Wh gap at 360 W = 2.8 h; the
        // paper's 4 h figure is from 0% SoC; verify both interpretations.
        let mut b = Battery::new_at(BatterySpec::paper_prototype(), 0.30);
        for _ in 0..3 {
            b.charge(Watts::new(360.0), hour());
        }
        assert!(b.is_full(), "should be full after 3h from the 30% floor");
        assert!((b.spec().capacity.watt_hours() / 360.0 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn discharge_stops_at_floor() {
        let mut b = Battery::new_full(BatterySpec::paper_prototype());
        // 1008 Wh usable; draw 600 W for 1 h twice.
        let d1 = b.discharge(Watts::new(600.0), hour());
        assert_eq!(d1, Watts::new(600.0));
        let d2 = b.discharge(Watts::new(600.0), hour());
        assert!((d2.watts() - 408.0).abs() < 1e-9, "only 408 Wh remained");
        assert!(b.is_empty());
        assert_eq!(b.usable_energy(), WattHours::ZERO);
        // Further discharge yields nothing.
        assert_eq!(b.discharge(Watts::new(100.0), hour()), Watts::ZERO);
    }

    #[test]
    fn headroom_limits_charging_near_full() {
        let mut b = Battery::new_at(BatterySpec::paper_prototype(), 0.999);
        let headroom = b.headroom();
        let accepted = b.charge(Watts::new(360.0), hour());
        assert!((accepted * hour()).abs_diff(headroom) < 1e-6);
        assert!(b.is_full());
    }

    #[test]
    fn negative_requests_are_noops() {
        let mut b = Battery::new_at(BatterySpec::paper_prototype(), 0.5);
        let before = b.charge_level();
        assert_eq!(b.charge(Watts::new(-5.0), hour()), Watts::ZERO);
        assert_eq!(b.discharge(Watts::new(-5.0), hour()), Watts::ZERO);
        assert_eq!(b.charge_level(), before);
    }

    #[test]
    fn zero_duration_is_noop() {
        let mut b = Battery::new_at(BatterySpec::paper_prototype(), 0.5);
        assert_eq!(b.charge(Watts::new(100.0), SimDuration::ZERO), Watts::ZERO);
        assert_eq!(
            b.discharge(Watts::new(100.0), SimDuration::ZERO),
            Watts::ZERO
        );
    }

    #[test]
    fn cycle_counting() {
        let spec = BatterySpec::with_capacity(WattHours::new(100.0));
        let mut b = Battery::new_full(spec);
        // Discharge 70 Wh (to floor), charge back, twice: 140 Wh
        // throughput = 1.4 equivalent cycles.
        for _ in 0..2 {
            b.discharge(Watts::new(70.0), hour());
            b.charge(Watts::new(25.0), SimDuration::from_hours(3));
        }
        assert!((b.equivalent_cycles() - 1.4).abs() < 1e-9);
    }

    #[test]
    fn charge_efficiency_loses_energy() {
        let spec = BatterySpec {
            charge_efficiency: 0.9,
            ..BatterySpec::with_capacity(WattHours::new(100.0))
        };
        let mut b = Battery::new_at(spec, 0.30);
        let accepted = b.charge(Watts::new(10.0), hour());
        assert_eq!(accepted, Watts::new(10.0));
        // 10 Wh drawn, 9 Wh stored.
        assert!((b.charge_level().watt_hours() - 39.0).abs() < 1e-9);
    }

    #[test]
    fn soc_fraction_round_trip() {
        let b = Battery::new_at(BatterySpec::paper_prototype(), 0.65);
        assert!((b.soc_fraction() - 0.65).abs() < 1e-12);
        // Clamps below the floor.
        let low = Battery::new_at(BatterySpec::paper_prototype(), 0.05);
        assert!((low.soc_fraction() - 0.30).abs() < 1e-12);
    }

    #[test]
    fn invalid_specs_rejected() {
        let mut s = BatterySpec::paper_prototype();
        s.min_soc_fraction = 1.5;
        assert!(s.validate().is_err());
        s = BatterySpec::paper_prototype();
        s.charge_efficiency = 0.0;
        assert!(s.validate().is_err());
        s = BatterySpec::paper_prototype();
        s.capacity = WattHours::new(-1.0);
        assert!(s.validate().is_err());
    }
}
