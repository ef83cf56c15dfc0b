//! # carbon-policies — the ecovisor paper's §5 policy suite
//!
//! Every policy/application pair evaluated in the paper, implemented as
//! [`ecovisor::Application`]s that exercise the Table 1/Table 2 APIs:
//!
//! * [`BatchApp`] (`batch`) — §5.1 *Reducing Carbon*: carbon-agnostic execution, the
//!   system-level suspend-resume policy (WaitAWhile), and the
//!   application-specific **Wait&Scale** policy at configurable scale
//!   factors.
//! * [`WebApp`] (`web`) — §5.2 *Budgeting Carbon*: the system-level static
//!   carbon-rate-limiting policy versus application-specific dynamic
//!   carbon budgeting with an SLO-driven autoscaler and accumulated
//!   "carbon credits".
//! * [`SparkApp`] and [`SolarWebApp`] (`battery`) — §5.3 *Leveraging Virtual Batteries*: zero-carbon
//!   Spark with overnight checkpointing (static minimum-guaranteed-power
//!   vs. dynamic excess-solar scale-up) and the solar-monitoring web
//!   service (fixed workers vs. SLO-driven dynamic scaling).
//! * [`ParallelSolarApp`] (`solar`) — §5.4 *Directly Exploiting Solar*: static vs. dynamic
//!   per-container power caps for a barrier-synchronized parallel job,
//!   plus replica-based straggler mitigation soaking up excess solar.
//! * [`ArbitrageApp`] (`arbitrage`) — a carbon-arbitrage battery policy (charge when the
//!   grid is clean, discharge when dirty), the §3.1 use-case the paper
//!   describes but never evaluates; the `caiso-arbitrage` corpus day
//!   runs it.
//! * [`Shared`] (`shared`) — interior-mutable stat handles experiments use to pull
//!   per-app results (runtime, SLO violations) out of the simulation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arbitrage;
mod batch;
mod battery;
mod shared;
mod solar;
mod web;

pub use arbitrage::ArbitrageApp;
pub use batch::{BatchApp, BatchMode, BatchStats};
pub use battery::{SolarWebApp, SolarWebMode, SolarWebStats, SparkApp, SparkMode, SparkStats};
pub use shared::{shared, Shared};
pub use solar::{ParallelSolarApp, ParallelStats, SolarCapMode};
pub use web::{WebApp, WebAppStats, WebPolicy};
