//! # simkit — deterministic discrete-time simulation kernel
//!
//! Shared substrate for the ecovisor reproduction. Every other crate in the
//! workspace builds on the primitives here:
//!
//! * [`units`] — strongly-typed physical quantities ([`Watts`](units::Watts),
//!   [`WattHours`](units::WattHours), [`Co2Grams`](units::Co2Grams),
//!   [`CarbonIntensity`](units::CarbonIntensity)) with dimension-aware arithmetic, so
//!   power/energy/carbon bookkeeping mistakes become type errors.
//! * [`time`] — simulated wall-clock time ([`SimTime`](time::SimTime),
//!   [`SimDuration`](time::SimDuration)) and
//!   the tick discretization the ecovisor paper builds its API around.
//! * [`rng`] — seeded, forkable random streams so every experiment is exactly
//!   replayable from a single `u64` seed.
//! * [`trace`] — step/interpolated replay of time-indexed signals (solar
//!   output, carbon intensity, request rates).
//! * [`series`] — an append-only time series used for recording simulation
//!   outputs.
//! * [`IdMap`] — an id-keyed table held as id-sorted vectors, for the
//!   per-tenant and per-container tables walked every tick.
//! * [`stats`] — percentiles and summary statistics used by both policies
//!   (threshold selection) and the experiment harness.
//!
//! # Example
//!
//! ```
//! use simkit::units::{Watts, CarbonIntensity};
//! use simkit::time::SimDuration;
//!
//! let power = Watts::new(50.0);
//! let energy = power * SimDuration::from_minutes(60); // 50 Wh
//! let intensity = CarbonIntensity::new(200.0);        // gCO2 / kWh
//! let carbon = energy * intensity;
//! assert!((carbon.grams() - 10.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod idmap;
pub mod rng;
pub mod series;
pub mod stats;
pub mod time;
pub mod trace;
pub mod units;

pub use idmap::IdMap;
