//! # energy-system — physical energy system substrate
//!
//! Software model of the hardware the ecovisor prototype virtualizes
//! (paper §4): a grid connection behind a programmable power supply, a
//! battery bank, and a solar array emulator.
//!
//! The paper's hardware constants are the defaults here:
//!
//! * Battery bank: 1,440 Wh, discharged only to 70 % depth (30 %
//!   state-of-charge is "empty"), 0.25C max charge (full in 4 h),
//!   1C max discharge (1,440 W).
//! * Solar: a Chroma 62020H-150S solar-array emulator replaying
//!   irradiance traces — reproduced by [`solar::SolarArrayBuilder`], a
//!   clear-sky bell curve modulated by stochastic weather.
//! * Grid: effectively unlimited supply, metered by the programmable PSU.
//!
//! This crate models the components only. Composing them — the paper's
//! §3.3 solar → battery → grid supply priority, settled every tick and
//! multiplexed across applications' virtual energy systems — happens in
//! one place, crate `ecovisor` (`ves.rs` and the one settlement routine
//! behind `Ecovisor::tick` and `Ecovisor::settle_tick`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod battery;
pub mod grid;
pub mod psu;
pub mod solar;
