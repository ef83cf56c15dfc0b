//! # carbon-intel — carbon information service substrate
//!
//! Stand-in for third-party carbon information services (electricityMap,
//! WattTime) that the ecovisor polls for real-time, location-specific grid
//! carbon intensity (paper §2, "Monitoring Carbon").
//!
//! The real services are network APIs over proprietary grid data; here the
//! same query surface ([`CarbonService`]) is backed by synthetic traces
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
//! use carbon_intel::{regions, CarbonTraceBuilder, CarbonService};
//! use simkit::time::SimTime;
//!
//! let service = CarbonTraceBuilder::new(regions::california())
//!     .days(2)
//!     .seed(42)
//!     .build_service();
//! let now = SimTime::from_hours(12);
//! let intensity = service.current_intensity(now);
//! assert!(intensity.grams_per_kwh() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod generator;
pub mod regions;
pub mod service;
pub mod threshold;

pub use generator::CarbonTraceBuilder;
pub use regions::{RegionKind, RegionProfile};
pub use service::{CarbonService, TraceCarbonService};
pub use threshold::percentile_threshold;
