//! # power-telemetry — runtime metering and series export
//!
//! Stand-in for the edges of the paper's monitoring stack (§4). There,
//! PowerAPI ("a middleware toolkit for building software-defined power
//! meters") feeds InfluxDB, "a time-series database, which enables
//! queries over different time intervals". Here that store is the
//! tenant-owned `TimeSeries` slots the `ecovisor` crate keeps: settlement
//! writes them, Table 2's interval calls (`get_container_energy(t1,t2)`
//! etc.) are answered from them, and `Ecovisor::for_each_series` walks
//! them. This crate holds what surrounds that store:
//!
//! * [`ops`] — operational observability for the serving runtime
//!   itself: sharded counters, gauges, log2-bucket latency histograms,
//!   a name-addressed registry, and a structured leveled logging
//!   facade (see `docs/OBSERVABILITY.md`).
//! * [`csv`] — plain-text export of series, used by the experiment
//!   harness.
//!
//! # Example
//!
//! ```
//! use power_telemetry::csv;
//! use simkit::series::TimeSeries;
//! use simkit::time::SimTime;
//!
//! let power: TimeSeries = [(SimTime::from_secs(0), 3.0), (SimTime::from_secs(60), 5.0)]
//!     .into_iter()
//!     .collect();
//! assert_eq!(csv::series_to_csv("power_w", &power), "time_s,power_w\n0,3\n60,5\n");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csv;
pub mod ops;
