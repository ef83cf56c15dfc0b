//! # carbon-policies — the ecovisor paper's §5 policy suite
//!
//! Every policy/application pair evaluated in the paper, implemented as
//! [`ecovisor::Application`]s that exercise the Table 1/Table 2 APIs:
//!
//! * [`batch`] — §5.1 *Reducing Carbon*: carbon-agnostic execution, the
//!   system-level suspend-resume policy (WaitAWhile), and the
//!   application-specific **Wait&Scale** policy at configurable scale
//!   factors.
//! * [`web`] — §5.2 *Budgeting Carbon*: the system-level static
//!   carbon-rate-limiting policy versus application-specific dynamic
//!   carbon budgeting with an SLO-driven autoscaler and accumulated
//!   "carbon credits".
//! * [`battery`] — §5.3 *Leveraging Virtual Batteries*: zero-carbon
//!   Spark with overnight checkpointing (static minimum-guaranteed-power
//!   vs. dynamic excess-solar scale-up) and the solar-monitoring web
//!   service (fixed workers vs. SLO-driven dynamic scaling).
//! * [`solar`] — §5.4 *Directly Exploiting Solar*: static vs. dynamic
//!   per-container power caps for a barrier-synchronized parallel job,
//!   plus replica-based straggler mitigation soaking up excess solar.
//! * [`arbitrage`] — a carbon-arbitrage battery policy (charge when the
//!   grid is clean, discharge when dirty), the §3.1 use-case the paper
//!   describes but never evaluates; the `caiso-arbitrage` corpus day
//!   runs it.
//! * [`mod@shared`] — interior-mutable stat handles experiments use to pull
//!   per-app results (runtime, SLO violations) out of the simulation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arbitrage;
pub mod batch;
pub mod battery;
pub mod shared;
pub mod solar;
pub mod web;

pub use batch::{BatchApp, BatchMode};
pub use battery::{SolarWebApp, SolarWebMode, SparkApp, SparkMode};
pub use shared::{shared, Shared};
pub use solar::{ParallelSolarApp, SolarCapMode};
pub use web::{WebApp, WebPolicy};
