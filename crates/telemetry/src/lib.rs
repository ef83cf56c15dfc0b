//! # power-telemetry — software-defined power metering and storage
//!
//! Stand-in for the paper's monitoring stack (§4): PowerAPI, "a middleware
//! toolkit for building software-defined power meters", feeding InfluxDB,
//! "a time-series database, which enables queries over different time
//! intervals".
//!
//! * [`Tsdb`] — an in-memory, tag-addressed time-series store with range
//!   queries (mean, sum, percentile, step integration). Table 2's
//!   interval functions (`get_container_energy(t1,t2)` etc.) are direct
//!   queries against it. Samples enter by name ([`Tsdb::record`]), whole
//!   series by [`Tsdb::insert`]. The ecovisor keeps each tenant's live
//!   series in that tenant's own state, writes them at rest without
//!   names, and names them into a store only to show them.
//! * [`metrics`] — well-known metric names shared across crates.
//! * [`ops`] — operational observability for the serving runtime
//!   itself: sharded counters, gauges, log2-bucket latency histograms,
//!   a name-addressed registry, and a structured leveled logging
//!   facade (see `docs/OBSERVABILITY.md`).
//! * [`csv`] — plain-text export used by the experiment harness.
//!
//! # Example
//!
//! ```
//! use power_telemetry::{Tsdb, metrics};
//! use simkit::time::SimTime;
//!
//! let mut db = Tsdb::new();
//! db.record(metrics::CONTAINER_POWER, "c1", SimTime::from_secs(0), 3.0);
//! db.record(metrics::CONTAINER_POWER, "c1", SimTime::from_secs(60), 5.0);
//! let mean = db
//!     .mean(metrics::CONTAINER_POWER, "c1", SimTime::from_secs(0), SimTime::from_secs(120))
//!     .unwrap();
//! assert_eq!(mean, 4.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csv;
pub mod metrics;
pub mod ops;
pub mod tsdb;

pub use tsdb::Tsdb;
