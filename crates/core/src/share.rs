//! Per-application energy shares.
//!
//! Paper §3.3: "We assume an exogenous policy determines each
//! application's share of grid power, the physical solar array's variable
//! power output, and the physical battery's energy and power capacity."
//! [`EnergyShare`] is that exogenous allocation; the ecovisor validates at
//! registration time that the physical system is not oversubscribed.

use serde::{Deserialize, Serialize};

use energy_system::battery::BatterySpec;
use simkit::units::{WattHours, Watts};

/// One application's slice of the physical energy system.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyShare {
    /// Fraction of the physical solar array's output in `[0, 1]`.
    pub solar_fraction: f64,
    /// Virtual battery capacity carved out of the physical bank.
    pub battery_capacity: WattHours,
    /// Initial virtual-battery state of charge as a fraction of its
    /// capacity (clamped to the battery floor at construction).
    pub(crate) battery_initial_soc: f64,
    /// Optional per-application cap on grid power draw.
    pub grid_power_cap: Option<Watts>,
}

impl EnergyShare {
    /// A share with no solar and no battery: grid-only applications
    /// (the §5.1/§5.2 experiments).
    pub fn grid_only() -> Self {
        Self {
            solar_fraction: 0.0,
            battery_capacity: WattHours::ZERO,
            battery_initial_soc: 1.0,
            grid_power_cap: None,
        }
    }

    /// Builder-style: sets the solar fraction.
    pub fn with_solar_fraction(mut self, fraction: f64) -> Self {
        self.solar_fraction = fraction;
        self
    }

    /// Builder-style: sets the battery capacity share.
    pub fn with_battery(mut self, capacity: WattHours) -> Self {
        self.battery_capacity = capacity;
        self
    }

    /// Builder-style: sets the initial state of charge.
    pub fn with_initial_soc(mut self, soc: f64) -> Self {
        self.battery_initial_soc = soc;
        self
    }

    /// Builder-style: caps grid power.
    pub fn with_grid_cap(mut self, cap: Watts) -> Self {
        self.grid_power_cap = Some(cap);
        self
    }

    /// Whether this share includes any battery capacity.
    pub fn has_battery(&self) -> bool {
        self.battery_capacity > WattHours::ZERO
    }

    /// The virtual battery spec for this share: capacity scaled, same
    /// C-rates and floor as the physical prototype bank.
    pub(crate) fn virtual_battery_spec(&self) -> BatterySpec {
        BatterySpec::with_capacity(self.battery_capacity)
    }

    /// Validates invariants.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.solar_fraction) {
            return Err(format!(
                "solar fraction {} outside [0, 1]",
                self.solar_fraction
            ));
        }
        if self.battery_capacity < WattHours::ZERO {
            return Err("battery capacity must be non-negative".into());
        }
        if !(0.0..=1.0).contains(&self.battery_initial_soc) {
            return Err("initial SoC must be in [0, 1]".into());
        }
        if let Some(cap) = self.grid_power_cap {
            if cap < Watts::ZERO {
                return Err("grid power cap must be non-negative".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_only_share() {
        let s = EnergyShare::grid_only();
        assert!(s.validate().is_ok());
        assert!(!s.has_battery());
        assert_eq!(s.solar_fraction, 0.0);
    }

    #[test]
    fn virtual_battery_inherits_c_rates() {
        let s = EnergyShare::grid_only().with_battery(WattHours::new(400.0));
        let spec = s.virtual_battery_spec();
        assert_eq!(spec.capacity, WattHours::new(400.0));
        assert_eq!(spec.max_charge_rate, Watts::new(100.0)); // 0.25C
        assert_eq!(spec.max_discharge_rate, Watts::new(400.0)); // 1C
        assert!((spec.min_soc_fraction - 0.30).abs() < 1e-12);
    }

    #[test]
    fn builders_compose() {
        let s = EnergyShare::grid_only()
            .with_solar_fraction(0.4)
            .with_battery(WattHours::new(100.0))
            .with_initial_soc(0.5)
            .with_grid_cap(Watts::new(50.0));
        assert!(s.validate().is_ok());
        assert_eq!(s.solar_fraction, 0.4);
        assert_eq!(s.grid_power_cap, Some(Watts::new(50.0)));
    }

    #[test]
    fn invalid_shares_rejected() {
        assert!(EnergyShare::grid_only()
            .with_solar_fraction(1.5)
            .validate()
            .is_err());
        assert!(EnergyShare::grid_only()
            .with_initial_soc(2.0)
            .validate()
            .is_err());
        assert!(EnergyShare::grid_only()
            .with_grid_cap(Watts::new(-1.0))
            .validate()
            .is_err());
    }
}
