//! Well-known metric names recorded by the ecovisor.
//!
//! Subjects are free-form strings: container ids (`"c3"`), app ids
//! (`"app1"`), or the pseudo-subject [`SYSTEM`].

/// Pseudo-subject for system-wide series.
pub const SYSTEM: &str = "system";

/// Per-container attributed power, watts.
pub const CONTAINER_POWER: &str = "container_power_w";
/// Per-app attributed power, watts.
pub const APP_POWER: &str = "app_power_w";
/// Physical solar power (`SYSTEM`), watts.
pub const SOLAR_POWER: &str = "solar_power_w";
/// Per-app virtual battery discharge, watts (positive = discharging).
pub const BATTERY_DISCHARGE: &str = "battery_discharge_w";
/// Per-app virtual battery charge, watts (positive = charging).
pub const BATTERY_CHARGE: &str = "battery_charge_w";
/// Per-app virtual battery state of charge, fraction.
pub const BATTERY_SOC: &str = "battery_soc";
/// Grid carbon intensity, g·CO2/kWh.
pub const GRID_CARBON_INTENSITY: &str = "grid_carbon_gpkwh";
/// Per-app carbon emission rate, g·CO2/s.
pub const CARBON_RATE: &str = "carbon_rate_gps";
/// Per-app running container count.
pub const CONTAINER_COUNT: &str = "container_count";

#[cfg(test)]
mod tests {
    #[test]
    fn names_are_distinct() {
        let names = [
            super::CONTAINER_POWER,
            super::APP_POWER,
            super::SOLAR_POWER,
            super::BATTERY_DISCHARGE,
            super::BATTERY_CHARGE,
            super::BATTERY_SOC,
            super::GRID_CARBON_INTENSITY,
            super::CARBON_RATE,
            super::CONTAINER_COUNT,
        ];
        let mut sorted = names.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
    }
}
