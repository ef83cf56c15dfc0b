//! # container-cop — container orchestration platform substrate
//!
//! A software stand-in for LXD, the container orchestration platform (COP)
//! the ecovisor prototype extends (paper §3–4). It provides exactly the
//! COP features the paper relies on:
//!
//! * **Containers as the unit of allocation** — each with a core count and
//!   memory reservation, owned by an application ([`AppId`]).
//! * **Horizontal scaling** — launching/stopping containers, plus
//!   suspend/resume (the basis of WaitAWhile-style policies).
//! * **Vertical scaling via cgroup-style CPU quotas** — the mechanism by
//!   which power caps are enforced: "our prototype ... caps container
//!   power by limiting the utilization per core" (§2, following
//!   Thunderbolt).
//! * **Container placement** — LXD's default rule, and the only one:
//!   "allocates a container to the server with the fewest container
//!   instances" (§4), ties by lowest server id
//!   ([`scheduler::fewest_containers`]).
//! * **A utilization→power model** for the paper's ARM microservers
//!   (quad-core, 1.35 W idle, 5 W at 100 % CPU, 10 W with GPU — §4),
//!   giving per-container power attribution and cap-to-quota conversion.
//!
//! # Example
//!
//! ```
//! use container_cop::{AppId, ContainerSpec, Cop, CopConfig};
//! use simkit::units::Watts;
//!
//! let mut cop = Cop::new(CopConfig::microserver_cluster(4));
//! let app = AppId::new(1);
//! let c = cop.launch(app, ContainerSpec::quad_core()).unwrap();
//! cop.set_demand(c, 1.0);
//! let power = cop.container_power(c).unwrap();
//! assert!(power > Watts::new(3.0)); // ~3.65 W dynamic at full utilization
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod container;
pub mod cop;
pub mod error;
pub mod power;
pub mod scheduler;
pub mod server;

pub use container::{AppId, Container, ContainerId, ContainerSpec, ContainerState};
pub use cop::{Cop, CopConfig, CopSnapshot};
pub use error::CopError;
pub use power::PowerModel;
pub use server::{Server, ServerId, ServerSpec};
