//! Strongly-typed physical quantities used throughout the workspace.
//!
//! The ecovisor API (paper Table 1) trades in power (kW), energy (kWh) and
//! carbon (g·CO2, g·CO2/kWh). Our prototype targets a microserver cluster,
//! so the canonical internal units are **watts** and **watt-hours**; all
//! types expose kilowatt conversions for API parity with the paper.
//!
//! Dimensional arithmetic is enforced by the type system:
//!
//! * [`Watts`] × [`SimDuration`] → [`WattHours`]
//! * [`WattHours`] ÷ [`SimDuration`] → [`Watts`]
//! * [`WattHours`] × [`CarbonIntensity`] → [`Co2Grams`]

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

use serde::{Deserialize, Serialize};

use crate::time::SimDuration;

macro_rules! unit_common {
    ($name:ident, $unit:expr) => {
        impl $name {
            /// Zero quantity.
            pub const ZERO: Self = Self(0.0);

            /// Raw numeric value in the canonical unit.
            #[inline]
            pub fn value(self) -> f64 {
                self.0
            }

            /// Returns the smaller of `self` and `other`.
            #[inline]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Returns the larger of `self` and `other`.
            #[inline]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Clamps into `[lo, hi]`.
            #[inline]
            pub fn clamp(self, lo: Self, hi: Self) -> Self {
                Self(self.0.clamp(lo.0, hi.0))
            }

            /// Clamps negative values (e.g. from floating-point residue) to zero.
            ///
            /// Implemented with a comparison rather than `f64::max`
            /// because `fmax(-0.0, 0.0)` may return either zero
            /// depending on how the compiler lowers it — an opt-level
            /// nondeterminism that leaks into serialized state (the
            /// two zeros encode differently). Non-positive inputs,
            /// including `-0.0`, always yield `+0.0` here.
            #[inline]
            pub fn max_zero(self) -> Self {
                if self.0 > 0.0 {
                    self
                } else {
                    Self(0.0)
                }
            }

            /// Absolute difference, useful in tests.
            #[inline]
            pub fn abs_diff(self, other: Self) -> f64 {
                (self.0 - other.0).abs()
            }
        }

        impl Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            #[inline]
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Div<$name> for $name {
            type Output = f64;
            #[inline]
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|v| v.0).sum())
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                if let Some(prec) = f.precision() {
                    write!(f, "{:.*} {}", prec, self.0, $unit)
                } else {
                    write!(f, "{:.3} {}", self.0, $unit)
                }
            }
        }
    };
}

/// Electrical power in watts.
///
/// The paper's API uses kW; at microserver scale (1.35 W idle, 5 W busy)
/// watts are the natural canonical unit. Use [`Watts::kilowatts`] at API
/// boundaries that mirror the paper.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Watts(f64);

unit_common!(Watts, "W");

impl Watts {
    /// Constructs a power value from watts.
    #[inline]
    pub fn new(watts: f64) -> Self {
        Self(watts)
    }

    /// Constructs a power value from kilowatts.
    #[inline]
    pub fn from_kilowatts(kw: f64) -> Self {
        Self(kw * 1000.0)
    }

    /// Power in watts.
    #[inline]
    pub fn watts(self) -> f64 {
        self.0
    }

    /// Power in kilowatts (the paper's Table 1 unit).
    #[inline]
    pub fn kilowatts(self) -> f64 {
        self.0 / 1000.0
    }
}

impl Mul<SimDuration> for Watts {
    type Output = WattHours;
    #[inline]
    fn mul(self, rhs: SimDuration) -> WattHours {
        WattHours(self.0 * rhs.as_hours())
    }
}

impl Mul<Watts> for SimDuration {
    type Output = WattHours;
    #[inline]
    fn mul(self, rhs: Watts) -> WattHours {
        rhs * self
    }
}

/// Electrical energy in watt-hours.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct WattHours(f64);

unit_common!(WattHours, "Wh");

impl WattHours {
    /// Constructs an energy value from watt-hours.
    #[inline]
    pub fn new(wh: f64) -> Self {
        Self(wh)
    }

    /// Constructs an energy value from kilowatt-hours.
    #[inline]
    pub fn from_kilowatt_hours(kwh: f64) -> Self {
        Self(kwh * 1000.0)
    }

    /// Energy in watt-hours.
    #[inline]
    pub fn watt_hours(self) -> f64 {
        self.0
    }

    /// Energy in kilowatt-hours (the paper's Table 1 unit).
    #[inline]
    fn kilowatt_hours(self) -> f64 {
        self.0 / 1000.0
    }

    /// Energy in joules.
    #[inline]
    pub fn joules(self) -> f64 {
        self.0 * 3600.0
    }
}

impl Div<SimDuration> for WattHours {
    type Output = Watts;
    #[inline]
    fn div(self, rhs: SimDuration) -> Watts {
        Watts(self.0 / rhs.as_hours())
    }
}

impl Mul<CarbonIntensity> for WattHours {
    type Output = Co2Grams;
    #[inline]
    fn mul(self, rhs: CarbonIntensity) -> Co2Grams {
        Co2Grams(self.kilowatt_hours() * rhs.0)
    }
}

impl Mul<WattHours> for CarbonIntensity {
    type Output = Co2Grams;
    #[inline]
    fn mul(self, rhs: WattHours) -> Co2Grams {
        rhs * self
    }
}

/// Mass of emitted carbon dioxide (and equivalents) in grams.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Co2Grams(f64);

unit_common!(Co2Grams, "gCO2e");

impl Co2Grams {
    /// Constructs a carbon mass from grams.
    #[inline]
    pub fn new(grams: f64) -> Self {
        Self(grams)
    }

    /// Carbon mass in grams.
    #[inline]
    pub fn grams(self) -> f64 {
        self.0
    }
}

impl Div<SimDuration> for Co2Grams {
    type Output = CarbonRate;
    #[inline]
    fn div(self, rhs: SimDuration) -> CarbonRate {
        CarbonRate(self.0 / rhs.as_secs_f64())
    }
}

/// Rate of carbon emission in grams of CO2 per second.
///
/// The paper's carbon rate-limiting policies (Fig. 6/7) are expressed in
/// mg·CO2 per second; see [`CarbonRate::from_milligrams_per_sec`].
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct CarbonRate(f64);

unit_common!(CarbonRate, "gCO2/s");

impl CarbonRate {
    /// Constructs a rate from grams per second.
    #[inline]
    pub fn new(grams_per_sec: f64) -> Self {
        Self(grams_per_sec)
    }

    /// Constructs a rate from milligrams per second (paper Fig. 6 unit).
    #[inline]
    pub fn from_milligrams_per_sec(mg_per_sec: f64) -> Self {
        Self(mg_per_sec / 1000.0)
    }

    /// Rate in grams per second.
    #[inline]
    pub fn grams_per_sec(self) -> f64 {
        self.0
    }

    /// Rate in milligrams per second.
    #[inline]
    pub fn milligrams_per_sec(self) -> f64 {
        self.0 * 1000.0
    }
}

impl Mul<SimDuration> for CarbonRate {
    type Output = Co2Grams;
    #[inline]
    fn mul(self, rhs: SimDuration) -> Co2Grams {
        Co2Grams(self.0 * rhs.as_secs_f64())
    }
}

/// Carbon intensity of delivered energy in g·CO2 per kWh.
///
/// This is the unit used by electricityMap/WattTime and by the paper's
/// Figure 1 (y-axis "gCO2/kWh"). Table 1's `get_grid_carbon` returns this.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct CarbonIntensity(f64);

unit_common!(CarbonIntensity, "gCO2/kWh");

impl CarbonIntensity {
    /// Constructs an intensity from g·CO2 per kWh.
    #[inline]
    pub fn new(grams_per_kwh: f64) -> Self {
        Self(grams_per_kwh)
    }

    /// Intensity in g·CO2 per kWh.
    #[inline]
    pub fn grams_per_kwh(self) -> f64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn power_times_duration_is_energy() {
        let e = Watts::new(100.0) * SimDuration::from_minutes(30);
        assert!((e.watt_hours() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn energy_divided_by_duration_is_power() {
        let p = WattHours::new(50.0) / SimDuration::from_minutes(30);
        assert!((p.watts() - 100.0).abs() < 1e-12);
    }

    #[test]
    fn energy_times_intensity_is_carbon() {
        // 2 kWh at 150 g/kWh = 300 g
        let c = WattHours::from_kilowatt_hours(2.0) * CarbonIntensity::new(150.0);
        assert!((c.grams() - 300.0).abs() < 1e-12);
    }

    #[test]
    fn carbon_rate_round_trips_through_duration() {
        let rate = CarbonRate::from_milligrams_per_sec(20.0);
        let emitted = rate * SimDuration::from_secs(3600);
        assert!((emitted.grams() - 72.0).abs() < 1e-9);
        let back = emitted / SimDuration::from_secs(3600);
        assert!((back.grams_per_sec() - 0.02).abs() < 1e-12);
    }

    #[test]
    fn kilowatt_conversions() {
        assert!((Watts::from_kilowatts(1.5).watts() - 1500.0).abs() < 1e-12);
        assert!((Watts::new(250.0).kilowatts() - 0.25).abs() < 1e-12);
        assert!((WattHours::from_kilowatt_hours(1.44).watt_hours() - 1440.0).abs() < 1e-12);
    }

    #[test]
    fn arithmetic_and_ordering() {
        let a = Watts::new(5.0);
        let b = Watts::new(3.0);
        assert_eq!((a + b).watts(), 8.0);
        assert_eq!((a - b).watts(), 2.0);
        assert_eq!((a * 2.0).watts(), 10.0);
        assert_eq!((a / 2.0).watts(), 2.5);
        assert!((a / b - 5.0 / 3.0).abs() < 1e-12);
        assert!(a > b);
        assert_eq!(a.min(b), b);
        assert_eq!(a.max(b), a);
        assert_eq!((-a).watts(), -5.0);
        assert_eq!((-a).max_zero(), Watts::ZERO);
    }

    #[test]
    fn sum_of_iterator() {
        let total: Watts = (1..=4).map(|i| Watts::new(i as f64)).sum();
        assert_eq!(total.watts(), 10.0);
    }

    #[test]
    fn display_formats_with_unit() {
        assert_eq!(format!("{:.1}", Watts::new(2.25)), "2.2 W");
        assert_eq!(format!("{}", Co2Grams::new(1.0)), "1.000 gCO2e");
        assert_eq!(
            format!("{:.0}", CarbonIntensity::new(250.0)),
            "250 gCO2/kWh"
        );
    }

    #[test]
    fn joules_conversion() {
        assert!((WattHours::new(1.0).joules() - 3600.0).abs() < 1e-9);
    }

    #[test]
    fn clamp_behaviour() {
        let x = Watts::new(7.0);
        assert_eq!(x.clamp(Watts::ZERO, Watts::new(5.0)), Watts::new(5.0));
        assert_eq!(x.clamp(Watts::new(8.0), Watts::new(9.0)), Watts::new(8.0));
    }
}
