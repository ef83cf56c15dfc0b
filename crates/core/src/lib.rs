//! # ecovisor — a virtual energy system for carbon-efficient applications
//!
//! Reproduction of the core contribution of *"Ecovisor: A Virtual Energy
//! System for Carbon-Efficient Applications"* (ASPLOS 2023): a software
//! layer that virtualizes a physical energy system — grid connection,
//! solar array, battery bank — and exposes **software-defined visibility
//! and control of it directly to applications**, so each application can
//! handle clean energy's unreliability according to its own requirements.
//!
//! ## Protocol-first architecture
//!
//! The application-facing API is a **versioned, wire-serializable
//! command/query protocol** ([`proto`]): every Table 1 setter/getter,
//! §3.1 container-management call, and Table 2 library function is an
//! [`EnergyRequest`](proto::EnergyRequest) variant answered by an
//! [`EnergyResponse`](proto::EnergyResponse), carried in
//! [`RequestBatch`](proto::RequestBatch) envelopes tagged with the
//! protocol version and the issuing application's [`AppId`] scope.
//! There is **one way in**:
//! [`Ecovisor::dispatch_batch`]. Two surfaces sit on it:
//!
//! * [`EnergyClient`] (`client.rs`) — the typed method surface, carrying
//!   the paper's method names. [`EcovisorClient`] is the in-process
//!   handle applications receive in their `tick()` upcall
//!   ([`Ecovisor::client`]); [`RemoteEcovisorClient`] speaks the same
//!   trait over TCP. Both batch fire-and-forget commands and flush them
//!   at tick boundaries (or before any read).
//! * Raw batches — [`Ecovisor::dispatch_batch`] accepts a
//!   [`RequestBatch`](proto::RequestBatch) directly.
//!
//! Because every typed call is a dispatched batch, enabling
//! [`Ecovisor::enable_protocol_trace`] records a run's *complete* API
//! traffic, which [`Ecovisor::replay_trace_from`] re-executes
//! bit-identically.
//!
//! Scope enforcement lives in the dispatcher (`dispatch.rs`), in one
//! place for both surfaces: a request that names another tenant's
//! container comes back as an
//! [`EnergyResponse::Err`](proto::EnergyResponse::Err) carrying
//! [`ProtoError::Scope`](proto::ProtoError::Scope) — an error value on
//! the wire, never a panic.
//!
//! ## Architecture
//!
//! (The full picture — crate map, data-flow diagram, locking
//! invariants — is in `docs/ARCHITECTURE.md`; the wire format is in
//! `docs/PROTOCOL.md`.)
//!
//! * [`Ecovisor`] owns the physical components (from `energy_system`),
//!   the container orchestration platform (from `container_cop`), the
//!   carbon-intensity trace, and the `SYSTEM` telemetry series; each
//!   tenant's series live in its own state, and
//!   [`Ecovisor::for_each_series`] walks them all. Per-app state is **sharded** behind
//!   per-app locks, so dispatch takes `&self` and tenants execute in
//!   parallel; [`ShardedEcovisor`] (`shard.rs`) is the concurrent
//!   deployment wrapper, with tick settlement as the sole cross-app
//!   barrier. The TCP transport ([`transport`]) serves every connection
//!   against one shared [`ShardedEcovisor`].
//! * Each registered application receives a [`VirtualEnergySystem`] —
//!   virtual grid + virtual battery + virtual solar share — settled every
//!   tick with the paper's supply priority (solar → battery → grid) and
//!   per-tick carbon attribution.
//! * Applications interact through the protocol, receive the periodic
//!   `tick()` upcall via [`Application::on_tick`], and asynchronous
//!   notifications via [`Application::on_event`].
//! * [`Simulation`] drives the tick protocol deterministically and
//!   flushes each application's request batch at the tick boundary.
//!
//! ## Example
//!
//! ```
//! use container_cop::ContainerSpec;
//! use ecovisor::{
//!     Application, EcovisorBuilder, EcovisorClient, EnergyClient, EnergyShare, Simulation,
//! };
//!
//! struct Busy;
//! impl Application for Busy {
//!     fn on_start(&mut self, api: &mut EcovisorClient<'_>) {
//!         let c = api.launch_container(ContainerSpec::quad_core()).unwrap();
//!         api.set_container_demand(c, 1.0).unwrap();
//!     }
//!     fn on_tick(&mut self, api: &mut EcovisorClient<'_>) {
//!         // React to carbon intensity here (the paper's tick() upcall).
//!         let _intensity = api.get_grid_carbon();
//!     }
//! }
//!
//! let mut sim = Simulation::new(EcovisorBuilder::new().build());
//! let app = sim.add_app("busy", EnergyShare::grid_only(), Box::new(Busy)).unwrap();
//! sim.run_ticks(10);
//! assert!(sim.eco().app_totals(app).unwrap().carbon.grams() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod admission;
mod app;
mod client;
mod config;
mod dispatch;
mod ecovisor;
mod error;
mod event;
mod federation;
mod lock;
pub mod obs;
pub mod proto;
mod replay;
mod series;
mod shard;
mod share;
mod sim;
mod snapshot;
pub mod transport;
mod ves;

pub use app::Application;
pub use client::{EcovisorClient, EnergyClient};
pub use config::{EcovisorBuilder, ExcessPolicy};
pub use dispatch::{ProtocolTrace, TraceEntry};
pub use ecovisor::{Ecovisor, SystemFlows};
pub use error::{EcovisorError, Result};
pub use event::{EventFilter, Notification, NotifyConfig, OutboxPolicy};
pub use federation::{FedAppView, TenantSnapshot};
pub use replay::{digest, ReplayReport};
pub use series::{Metric, Subject};
pub use shard::ShardedEcovisor;
pub use share::EnergyShare;
pub use sim::Simulation;
pub use snapshot::{AppSnapshot, Snapshot, SnapshotError, TenantRecord, SNAPSHOT_FORMAT};
pub use transport::client::RemoteEcovisorClient;
pub use transport::codec::WireCodec;
pub use transport::hello::{ClientHelloV2, CredentialRegistry, ServerHello};
pub use transport::server::{EcovisorServer, ServerHandle, ServerStats, SharedEcovisor};
pub use ves::{DesiredFlows, VesFlows, VesTotals, VirtualEnergySystem};

// Re-export the identifier every request batch is scoped by.
pub use container_cop::AppId;

/// The protocol version, and the only one served: the transport hello,
/// the batch envelope and a snapshot's protocol era all carry it. v2
/// adds the duplex [`Frame`](proto::Frame) layer, server-push
/// [`EventFrame`](proto::EventFrame)s, `SubscribeEvents`, and per-app
/// credentials in the transport hello. Bump on any wire-visible change
/// to [`EnergyRequest`](proto::EnergyRequest) /
/// [`EnergyResponse`](proto::EnergyResponse); the dispatcher answers
/// every request of a batch stamped otherwise with
/// [`ProtoError::Version`](proto::ProtoError::Version).
pub const PROTOCOL_VERSION: u16 = 2;
