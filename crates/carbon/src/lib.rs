//! # carbon-intel — carbon information service substrate
//!
//! Stand-in for third-party carbon information services (electricityMap,
//! WattTime) that the ecovisor polls for real-time, location-specific grid
//! carbon intensity (paper §2, "Monitoring Carbon").
//!
//! The real services are network APIs over proprietary grid data; here the
//! signal is a plain [`Trace`](simkit::trace::Trace) of g·CO2/kWh samples,
//! generated from regional profiles fitted to the paper's Figure 1:
//!
//! * **Ontario** — low (~25–45 g/kWh), flat: nuclear-dominated.
//! * **Uruguay** — slightly higher (~40–110 g/kWh): hydro with wind swings.
//! * **California (CAISO)** — highest and most volatile (~90–350 g/kWh):
//!   fossil base with deep midday solar dips ("duck curve") and evening
//!   peaks. §5.1 drives its experiments from CAISO 2020 data; our
//!   [`regions::california`] profile reproduces its shape and volatility.
//!
//! # Example
//!
//! ```
//! use carbon_intel::generator::CarbonTraceBuilder;
//! use carbon_intel::regions;
//! use simkit::time::SimTime;
//!
//! let trace = CarbonTraceBuilder::new(regions::california())
//!     .days(2)
//!     .seed(42)
//!     .build();
//! let grams_per_kwh = trace.sample(SimTime::from_hours(12));
//! assert!(grams_per_kwh > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod generator;
pub mod regions;
pub mod threshold;
