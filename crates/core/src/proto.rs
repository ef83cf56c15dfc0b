//! The versioned, wire-serializable command/query protocol.
//!
//! This is the ecovisor's *primary* application-facing API: every Table 1
//! setter/getter, every §3.1 container-management call, and every Table 2
//! library function is a variant of [`EnergyRequest`], answered by an
//! [`EnergyResponse`]. Requests travel in a [`RequestBatch`] envelope
//! tagged with the [`PROTOCOL_VERSION`] and the calling application's
//! [`AppId`] scope; the ecovisor validates both before executing anything
//! (see [`crate::ecovisor::Ecovisor::dispatch_batch`]).
//!
//! Three properties fall out of the message encoding:
//!
//! * **Remotable** — every type here round-trips through
//!   [`serde::json`], so a batch can cross a process or network boundary
//!   unchanged.
//! * **Batchable** — a `Vec<EnergyRequest>` settles in one dispatch call,
//!   the seam all future sharding/async/remote work builds on.
//! * **Recordable** — a run's API traffic is a tick-stamped sequence of
//!   `RequestBatch`es that can be persisted and replayed (see
//!   [`crate::ecovisor::Ecovisor::replay_trace_from`]).
//!
//! Failures are **values, not panics**: scope violations, unknown
//! containers, and capacity exhaustion come back as
//! [`EnergyResponse::Err`] carrying a [`ProtoError`], and one failed
//! request never aborts the rest of its batch.
//!
//! The typed method surface over these messages is
//! [`crate::client::EnergyClient`]: each of its methods builds exactly
//! one of these requests and sends it as (part of) a batch.
//!
//! The wire format is specified in `docs/PROTOCOL.md`.
//!
//! ## Example
//!
//! Speak the protocol directly — build a batch, dispatch it, match on
//! the typed responses:
//!
//! ```
//! use ecovisor::proto::{EnergyRequest, EnergyResponse, ProtoError, RequestBatch};
//! use ecovisor::{EcovisorBuilder, EnergyShare};
//! use simkit::units::Watts;
//!
//! let mut eco = EcovisorBuilder::new().build();
//! let app = eco.register_app("tenant", EnergyShare::grid_only()).unwrap();
//!
//! let batch = RequestBatch::new(
//!     app,
//!     vec![
//!         EnergyRequest::SetBatteryChargeRate { rate: Watts::new(50.0) },
//!         EnergyRequest::GetGridPower,
//!     ],
//! );
//! let reply = eco.dispatch_batch(&batch);
//!
//! // One response per request, in order; failures would be Err values.
//! assert_eq!(reply.responses.len(), 2);
//! assert_eq!(reply.responses[0], EnergyResponse::Ok);
//! assert!(matches!(reply.responses[1], EnergyResponse::Power(_)));
//!
//! // Scope is enforced in the dispatcher: an unknown app's batch is
//! // answered, not panicked on.
//! let foreign = RequestBatch::new(ecovisor::AppId::new(99), vec![EnergyRequest::GetGridPower]);
//! assert!(matches!(
//!     eco.dispatch_batch(&foreign).responses[0],
//!     EnergyResponse::Err(ProtoError::UnknownApp(_))
//! ));
//! ```

use container_cop::{AppId, ContainerId, ContainerSpec};
use power_telemetry::ops::MetricsSnapshot;
use serde::{Deserialize, Serialize};
use simkit::time::{SimDuration, SimTime};
use simkit::units::{CarbonIntensity, CarbonRate, Co2Grams, WattHours, Watts};

use crate::error::EcovisorError;
use crate::event::{EventFilter, Notification};
use crate::federation::FedAppView;
use crate::PROTOCOL_VERSION;

/// One application-issued command or query.
///
/// Variants mirror the paper's API surface one-to-one; the doc comment on
/// each names the Table 1 / Table 2 function it encodes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EnergyRequest {
    // -- Table 1 setters ------------------------------------------------
    /// `set_container_powercap(c, l)`.
    SetContainerPowercap {
        /// Target container.
        container: ContainerId,
        /// Power cap to enforce.
        cap: Watts,
    },
    /// Clears a container's power cap.
    ClearContainerPowercap {
        /// Target container.
        container: ContainerId,
    },
    /// `set_battery_charge_rate(r)`.
    SetBatteryChargeRate {
        /// Grid-charging rate, applied until full.
        rate: Watts,
    },
    /// `set_battery_max_discharge(r)`.
    SetBatteryMaxDischarge {
        /// Maximum discharge rate serving this app's deficit.
        rate: Watts,
    },

    // -- Table 1 getters ------------------------------------------------
    /// `get_solar_power()`.
    GetSolarPower,
    /// `get_grid_power()`.
    GetGridPower,
    /// `get_grid_carbon()`.
    GetGridCarbon,
    /// `get_battery_discharge_rate()`.
    GetBatteryDischargeRate,
    /// `get_battery_charge_level()`.
    GetBatteryChargeLevel,
    /// `get_container_powercap(c)`.
    GetContainerPowercap {
        /// Target container.
        container: ContainerId,
    },
    /// `get_container_power(c)`.
    GetContainerPower {
        /// Target container.
        container: ContainerId,
    },

    // -- Container & resource management (§3.1) -------------------------
    /// Launches a container (horizontal scale-up).
    LaunchContainer {
        /// Requested shape.
        spec: ContainerSpec,
    },
    /// Destroys a container (horizontal scale-down).
    StopContainer {
        /// Target container.
        container: ContainerId,
    },
    /// Freezes a running container.
    SuspendContainer {
        /// Target container.
        container: ContainerId,
    },
    /// Thaws a suspended container.
    ResumeContainer {
        /// Target container.
        container: ContainerId,
    },
    /// Sets a container's CPU demand for this tick.
    SetContainerDemand {
        /// Target container.
        container: ContainerId,
        /// Fraction of allocated cores the workload wants.
        demand: f64,
    },
    /// Ids of the app's live containers.
    ListContainers,
    /// Number of running (not suspended) containers.
    CountRunningContainers,
    /// Effective compute capacity this tick, in core-equivalents.
    GetEffectiveCores,
    /// One container's effective cores this tick.
    GetContainerEffectiveCores {
        /// Target container.
        container: ContainerId,
    },

    // -- Clock ----------------------------------------------------------
    /// Start instant of the current tick.
    GetTime,
    /// The tick interval Δt.
    GetTickInterval,
    /// The calling application's id.
    GetAppId,

    // -- Table 2 library functions --------------------------------------
    /// `get_container_energy(c, t1, t2)`.
    GetContainerEnergy {
        /// Target container.
        container: ContainerId,
        /// Window start (inclusive).
        from: SimTime,
        /// Window end (exclusive).
        to: SimTime,
    },
    /// `get_container_carbon(c, t1, t2)`.
    GetContainerCarbon {
        /// Target container.
        container: ContainerId,
        /// Window start (inclusive).
        from: SimTime,
        /// Window end (exclusive).
        to: SimTime,
    },
    /// `get_app_power()`.
    GetAppPower,
    /// `get_app_energy(t1, t2)`.
    GetAppEnergy {
        /// Window start (inclusive).
        from: SimTime,
        /// Window end (exclusive).
        to: SimTime,
    },
    /// `get_app_carbon()` (cumulative).
    GetAppCarbon,
    /// App carbon over a window.
    GetAppCarbonBetween {
        /// Window start (inclusive).
        from: SimTime,
        /// Window end (exclusive).
        to: SimTime,
    },
    /// `set_carbon_rate(r)`; `None` clears the limit.
    SetCarbonRate {
        /// Rate limit, or `None` to clear.
        rate: Option<CarbonRate>,
    },
    /// The active carbon rate limit.
    GetCarbonRateLimit,
    /// `set_carbon_budget(b)`; `None` clears the budget.
    SetCarbonBudget {
        /// Budget, or `None` to clear.
        budget: Option<Co2Grams>,
    },
    /// The configured carbon budget.
    GetCarbonBudget,
    /// Budget remaining (budget − cumulative carbon), if set.
    GetRemainingCarbonBudget,

    // -- Table 2 asynchronous notifications ------------------------------
    /// Drains the app's pending [`Notification`]s (Table 2 `notify_*`
    /// upcalls as pull): a remote client that does not subscribe gets
    /// event parity by polling each tick, exactly what a local
    /// `drain_events` call observes.
    PollEvents,
    /// Subscribes this *connection* to server-push [`EventFrame`]s after
    /// every settlement, delivery-filtered by `filter` (v2 only: push
    /// needs the duplex frame layer). In-process dispatch acknowledges it
    /// as a no-op — the in-process client drains via `PollEvents`.
    SubscribeEvents {
        /// Which event categories to deliver.
        filter: EventFilter,
    },

    // -- v2 admin surface (operator checkpointing) -----------------------
    /// Requests one chunk of a whole-ecovisor checkpoint (v2 only,
    /// credential-gated). `chunk: 0` captures a fresh
    /// [`Snapshot`](crate::snapshot::Snapshot) under the settlement
    /// barrier and caches its binary encoding on the *connection*; every
    /// chunk (including 0) is answered with
    /// [`EnergyResponse::SnapshotChunk`]. In-process dispatch
    /// acknowledges it as a no-op — in process you call
    /// [`Ecovisor::snapshot`](crate::Ecovisor::snapshot) directly.
    Snapshot {
        /// 0-based index of the chunk to fetch.
        chunk: u32,
    },
    /// Delivers one chunk of a serialized snapshot to restore (v2 only,
    /// credential-gated). Chunks accumulate per-connection, in order;
    /// the final chunk (`index == total - 1`) decodes the assembly and
    /// applies it under the settlement barrier. In-process dispatch
    /// acknowledges it as a no-op.
    Restore {
        /// 0-based index of this chunk.
        index: u32,
        /// Total number of chunks in the transfer.
        total: u32,
        /// This chunk's bytes (a slice of [`Snapshot::to_bytes`](crate::snapshot::Snapshot::to_bytes) output).
        data: Vec<u8>,
    },

    // -- v2 federation surface (migration + cross-node settlement) ------
    /// Requests one chunk of a single tenant's capture (v2 only,
    /// credential-gated). `chunk: 0` runs
    /// [`Ecovisor::extract_app`](crate::Ecovisor::extract_app) under the
    /// settlement barrier — **without removing the tenant** — and caches
    /// the encoding on the connection; every chunk is answered with
    /// [`EnergyResponse::SnapshotChunk`]. The migration choreography is
    /// `MigrateOut`* → `MigrateIn`* → [`EnergyRequest::MigrateCommit`]
    /// (see `docs/FEDERATION.md`). In-process dispatch acknowledges it as
    /// a no-op.
    MigrateOut {
        /// The tenant to capture.
        app: AppId,
        /// 0-based index of the chunk to fetch.
        chunk: u32,
    },
    /// Delivers one chunk of a [`TenantSnapshot`](crate::TenantSnapshot)
    /// to graft (v2 only, credential-gated). Chunks accumulate
    /// per-connection, in order; the final chunk decodes the assembly
    /// and grafts it under the settlement barrier — a rejected graft
    /// (tampered bytes, environment mismatch, colliding id) leaves this
    /// node untouched. In-process dispatch acknowledges it as a no-op.
    MigrateIn {
        /// 0-based index of this chunk.
        index: u32,
        /// Total number of chunks in the transfer.
        total: u32,
        /// This chunk's bytes (a slice of `TenantSnapshot::to_bytes` output).
        data: Vec<u8>,
    },
    /// Commits a migration on the **source** node: evicts the tenant
    /// (shard, containers, telemetry) under the settlement barrier (v2
    /// only, credential-gated). Send only after the destination accepted
    /// the final `MigrateIn` chunk. In-process dispatch acknowledges it
    /// as a no-op.
    MigrateCommit {
        /// The tenant to evict.
        app: AppId,
    },
    /// Federated tick, phase one: begins the tick and returns this
    /// node's demand views ([`EnergyResponse::Demands`]); v2 only,
    /// credential-gated, coordinator-driven. In-process dispatch
    /// acknowledges it as a no-op.
    FedCollect,
    /// Federated tick, phase two: settles the globally merged view list
    /// on this node's substrate replica and advances its clock (v2 only,
    /// credential-gated). In-process dispatch acknowledges it as a
    /// no-op.
    FedSettle {
        /// Every federated app's view, strictly ascending by app id.
        views: Vec<FedAppView>,
    },
    /// Aligns this node's container-id cursor to the coordinator's
    /// global cursor (v2 only, credential-gated): launches dispatched to
    /// this node next will allocate ids starting at `next_container`.
    /// Refused if the cursor would move backwards. In-process dispatch
    /// acknowledges it as a no-op.
    FedAlign {
        /// The next container id this node should allocate.
        next_container: u64,
    },
    /// Reads this node's container-id cursor ([`EnergyResponse::Count`]);
    /// v2 only, credential-gated. The coordinator reads it back after
    /// routing a launch-bearing batch, since failed launches consume no
    /// ids. In-process dispatch acknowledges it as a no-op.
    FedCursor,

    // -- v2 observability surface ----------------------------------------
    /// Reads the server's operational statistics: the
    /// [`ServerStats`](crate::ServerStats) gauges plus a full
    /// dump of the observability registry ([`EnergyResponse::Stats`]
    /// carrying a [`StatsReport`]); v2 only, credential-gated, answered
    /// by the transport layer. In-process dispatch acknowledges it as a
    /// no-op — in process you read the hub you attached with
    /// [`Ecovisor::attach_obs`](crate::Ecovisor::attach_obs).
    Stats,
}

/// What the dispatcher and the transport need to know about one request
/// kind: one row of [`KINDS`].
#[derive(Debug, Clone, Copy)]
pub struct KindFacts {
    /// Stable method name, for logs, metrics and benchmarks.
    pub name: &'static str,
    /// Read-only (the *query* half); `false` is the *command* half.
    pub query: bool,
    /// Operator admin surface: a remote server honors it only on a
    /// credential-authenticated connection.
    pub admin: bool,
    /// Touches the shared container platform: a query reads it under
    /// the COP read guard, a command mutates it under the write guard.
    cop: bool,
}

/// One row per [`EnergyRequest`] variant, in declaration order — the
/// order the binary codec tags variants in — indexed by
/// [`EnergyRequest::kind_index`]. This table is the only per-kind list:
/// every predicate on `EnergyRequest` reads its row, and the dispatcher's
/// "guard is held" expectation rests on the `cop` column.
///
/// A row spells only what differs from its class: `COMMAND` (tenant, no
/// shared guard), `QUERY` (the same, read-only) or `ADMIN` (a command
/// behind the credential gate, answered by the transport).
#[rustfmt::skip] // a table: one row per line
pub const KINDS: [KindFacts; 46] = {
    const COMMAND: KindFacts = KindFacts { name: "", query: false, admin: false, cop: false };
    const QUERY: KindFacts = KindFacts { query: true, ..COMMAND };
    const ADMIN: KindFacts = KindFacts { admin: true, ..COMMAND };
    [
        KindFacts { name: "set_container_powercap", cop: true, ..COMMAND },
        KindFacts { name: "clear_container_powercap", cop: true, ..COMMAND },
        KindFacts { name: "set_battery_charge_rate", ..COMMAND },
        KindFacts { name: "set_battery_max_discharge", ..COMMAND },
        KindFacts { name: "get_solar_power", ..QUERY },
        KindFacts { name: "get_grid_power", ..QUERY },
        KindFacts { name: "get_grid_carbon", ..QUERY },
        KindFacts { name: "get_battery_discharge_rate", ..QUERY },
        KindFacts { name: "get_battery_charge_level", ..QUERY },
        KindFacts { name: "get_container_powercap", cop: true, ..QUERY },
        KindFacts { name: "get_container_power", cop: true, ..QUERY },
        KindFacts { name: "launch_container", cop: true, ..COMMAND },
        KindFacts { name: "stop_container", cop: true, ..COMMAND },
        KindFacts { name: "suspend_container", cop: true, ..COMMAND },
        KindFacts { name: "resume_container", cop: true, ..COMMAND },
        KindFacts { name: "set_container_demand", cop: true, ..COMMAND },
        KindFacts { name: "container_ids", cop: true, ..QUERY },
        KindFacts { name: "running_containers", cop: true, ..QUERY },
        KindFacts { name: "effective_cores", cop: true, ..QUERY },
        KindFacts { name: "container_effective_cores", cop: true, ..QUERY },
        KindFacts { name: "now", ..QUERY },
        KindFacts { name: "tick_interval", ..QUERY },
        KindFacts { name: "app_id", ..QUERY },
        KindFacts { name: "get_container_energy", cop: true, ..QUERY },
        KindFacts { name: "get_container_carbon", cop: true, ..QUERY },
        KindFacts { name: "get_app_power", cop: true, ..QUERY },
        KindFacts { name: "get_app_energy", ..QUERY },
        KindFacts { name: "get_app_carbon", ..QUERY },
        KindFacts { name: "get_app_carbon_between", ..QUERY },
        KindFacts { name: "set_carbon_rate", ..COMMAND },
        KindFacts { name: "carbon_rate_limit", ..QUERY },
        KindFacts { name: "set_carbon_budget", ..COMMAND },
        KindFacts { name: "carbon_budget", ..QUERY },
        KindFacts { name: "remaining_carbon_budget", ..QUERY },
        KindFacts { name: "poll_events", ..COMMAND },
        KindFacts { name: "subscribe_events", ..COMMAND },
        KindFacts { name: "snapshot", ..ADMIN },
        KindFacts { name: "restore", ..ADMIN },
        KindFacts { name: "migrate_out", ..ADMIN },
        KindFacts { name: "migrate_in", ..ADMIN },
        KindFacts { name: "migrate_commit", ..ADMIN },
        KindFacts { name: "fed_collect", ..ADMIN },
        KindFacts { name: "fed_settle", ..ADMIN },
        KindFacts { name: "fed_align", ..ADMIN },
        KindFacts { name: "fed_cursor", ..ADMIN },
        KindFacts { name: "stats", ..ADMIN },
    ]
};

impl EnergyRequest {
    /// `true` for read-only requests (the *query* half of the protocol):
    /// they never mutate ecovisor state and may execute against `&self`.
    pub fn is_query(&self) -> bool {
        KINDS[self.kind_index()].query
    }

    /// `true` for state-mutating requests (the *command* half).
    /// `PollEvents` counts as a command: draining the outbox mutates the
    /// shard, so it takes the write path and two pollers never see the
    /// same event twice.
    pub fn is_command(&self) -> bool {
        !self.is_query()
    }

    /// `true` for the operator admin surface — requests a remote server
    /// only honors on a credential-authenticated connection.
    pub fn is_admin(&self) -> bool {
        KINDS[self.kind_index()].admin
    }

    /// `true` for commands that mutate the shared container platform.
    /// The dispatcher holds the COP write lock for the whole batch when
    /// any request matches, so cross-app container-id allocation and
    /// placement order is fixed at the batch's trace position.
    pub(crate) fn mutates_containers(&self) -> bool {
        KINDS[self.kind_index()].cop && !self.is_query()
    }

    /// `true` for queries that read the shared container platform (the
    /// dispatcher acquires the COP read guard only when needed).
    pub(crate) fn reads_containers(&self) -> bool {
        KINDS[self.kind_index()].cop && self.is_query()
    }

    /// Stable method name, for logs and benchmarks.
    pub fn name(&self) -> &'static str {
        KINDS[self.kind_index()].name
    }

    /// Number of request kinds (one per enum variant); the length of
    /// [`KINDS`] and [`EnergyRequest::KIND_NAMES`] and the bound on
    /// [`EnergyRequest::kind_index`].
    pub const KIND_COUNT: usize = KINDS.len();

    /// Every kind's [`name`](EnergyRequest::name), indexed by
    /// [`kind_index`](EnergyRequest::kind_index). The observability layer
    /// uses this to pre-register one `dispatch.requests.{kind}_total`
    /// counter per kind.
    pub const KIND_NAMES: [&'static str; EnergyRequest::KIND_COUNT] = {
        let mut names = [""; EnergyRequest::KIND_COUNT];
        let mut i = 0;
        while i < names.len() {
            names[i] = KINDS[i].name;
            i += 1;
        }
        names
    };

    /// A dense index for this request's kind (declaration order, the
    /// same order the binary codec tags variants in). Stable across a
    /// process; indexes [`KINDS`], [`EnergyRequest::KIND_NAMES`] and the
    /// observability layer's per-kind counters. The one exhaustive match
    /// over the variants: a new variant fails to compile here, and its
    /// row goes at this index in [`KINDS`].
    pub fn kind_index(&self) -> usize {
        use EnergyRequest::*;
        match self {
            SetContainerPowercap { .. } => 0,
            ClearContainerPowercap { .. } => 1,
            SetBatteryChargeRate { .. } => 2,
            SetBatteryMaxDischarge { .. } => 3,
            GetSolarPower => 4,
            GetGridPower => 5,
            GetGridCarbon => 6,
            GetBatteryDischargeRate => 7,
            GetBatteryChargeLevel => 8,
            GetContainerPowercap { .. } => 9,
            GetContainerPower { .. } => 10,
            LaunchContainer { .. } => 11,
            StopContainer { .. } => 12,
            SuspendContainer { .. } => 13,
            ResumeContainer { .. } => 14,
            SetContainerDemand { .. } => 15,
            ListContainers => 16,
            CountRunningContainers => 17,
            GetEffectiveCores => 18,
            GetContainerEffectiveCores { .. } => 19,
            GetTime => 20,
            GetTickInterval => 21,
            GetAppId => 22,
            GetContainerEnergy { .. } => 23,
            GetContainerCarbon { .. } => 24,
            GetAppPower => 25,
            GetAppEnergy { .. } => 26,
            GetAppCarbon => 27,
            GetAppCarbonBetween { .. } => 28,
            SetCarbonRate { .. } => 29,
            GetCarbonRateLimit => 30,
            SetCarbonBudget { .. } => 31,
            GetCarbonBudget => 32,
            GetRemainingCarbonBudget => 33,
            PollEvents => 34,
            SubscribeEvents { .. } => 35,
            Snapshot { .. } => 36,
            Restore { .. } => 37,
            MigrateOut { .. } => 38,
            MigrateIn { .. } => 39,
            MigrateCommit { .. } => 40,
            FedCollect => 41,
            FedSettle { .. } => 42,
            FedAlign { .. } => 43,
            FedCursor => 44,
            Stats => 45,
        }
    }
}

/// The answer to one [`EnergyRequest`].
///
/// Exactly one response is produced per request, in batch order. Failures
/// are the [`EnergyResponse::Err`] variant — a value on the wire, never a
/// panic in the dispatcher.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EnergyResponse {
    /// Command acknowledged, no payload.
    Ok,
    /// A power reading.
    Power(Watts),
    /// An optional power cap.
    PowerCap(Option<Watts>),
    /// An energy quantity.
    Energy(WattHours),
    /// A carbon mass.
    Carbon(Co2Grams),
    /// A grid carbon intensity.
    Intensity(CarbonIntensity),
    /// An optional carbon-rate limit.
    RateLimit(Option<CarbonRate>),
    /// An optional carbon budget (or remainder).
    Budget(Option<Co2Grams>),
    /// A core-equivalent capacity.
    Cores(f64),
    /// A count.
    Count(usize),
    /// A newly launched container.
    Container(ContainerId),
    /// Container ids, in id order.
    Containers(Vec<ContainerId>),
    /// A simulation instant.
    Time(SimTime),
    /// A simulation duration.
    Interval(SimDuration),
    /// An application id.
    App(AppId),
    /// Drained notifications, in generation order (`PollEvents`).
    Events(Vec<Notification>),
    /// One chunk of a serialized whole-ecovisor snapshot (the answer to
    /// [`EnergyRequest::Snapshot`] on a credentialed v2 connection).
    SnapshotChunk {
        /// 0-based index of this chunk.
        index: u32,
        /// Total number of chunks in the transfer.
        total: u32,
        /// This chunk's bytes (a slice of the snapshot's binary encoding).
        data: Vec<u8>,
    },
    /// The request failed; the error is data.
    Err(ProtoError),
    /// A node's demand views for a federated tick (the answer to
    /// [`EnergyRequest::FedCollect`] on a credentialed v2 connection).
    /// Appended after `Err` so existing variant tags — and therefore
    /// recorded corpus artifacts — stay stable.
    Demands(Vec<FedAppView>),
    /// The server's operational statistics (the answer to
    /// [`EnergyRequest::Stats`] on a credentialed v2 connection).
    /// Appended last so existing variant tags stay stable.
    Stats(StatsReport),
}

/// The payload of [`EnergyResponse::Stats`]: the transport-level gauges
/// every server tracks plus a full dump of the observability registry
/// (empty when the server was built without a hub attached).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct StatsReport {
    /// Connections currently in any serving phase.
    pub active_connections: u64,
    /// Frames queued or parked across every connection's outbox.
    pub subscriber_backlog: u64,
    /// Bytes held in per-connection receive buffers.
    pub recv_buffer_bytes: u64,
    /// Every registered metric, sorted by name.
    pub metrics: MetricsSnapshot,
}

/// A protocol-level failure, serializable like everything else.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ProtoError {
    /// The batch's protocol version does not match the dispatcher's.
    Version {
        /// Version the dispatcher speaks.
        expected: u16,
        /// Version the batch carried.
        got: u16,
    },
    /// The batch's `app` scope is not a registered application.
    UnknownApp(AppId),
    /// The request referenced a container owned by another application —
    /// the isolation boundary held and the denial is reported as data.
    Scope {
        /// Container that was targeted.
        container: ContainerId,
        /// Application that attempted the operation.
        app: AppId,
    },
    /// The referenced container does not exist (or was destroyed).
    UnknownContainer(ContainerId),
    /// No server can host the requested container.
    InsufficientCapacity {
        /// Cores requested.
        cores: u32,
        /// Memory requested in MiB.
        memory_mib: u64,
    },
    /// The operation is invalid in the container's current state.
    InvalidState {
        /// Container the operation targeted.
        container: ContainerId,
        /// Description of the conflict.
        reason: String,
    },
    /// A command was sent down the read-only query path. No dispatcher
    /// produces this any more; the variant is kept because removing it
    /// changes what a v2 decoder accepts, and retires with the next
    /// `PROTOCOL_VERSION` bump (`docs/PROTOCOL.md` §6 rule 7).
    NotAQuery,
    /// The connection is not authorized for the operator admin surface
    /// (snapshot/restore require a verified per-app credential).
    Denied(String),
    /// Any other failure, as a message.
    Other(String),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Version { expected, got } => {
                write!(
                    f,
                    "protocol version mismatch: expected v{expected}, got v{got}"
                )
            }
            ProtoError::UnknownApp(app) => write!(f, "unknown application {app}"),
            ProtoError::Scope { container, app } => {
                write!(f, "application {app} does not own container {container}")
            }
            ProtoError::UnknownContainer(c) => write!(f, "unknown container {c}"),
            ProtoError::InsufficientCapacity { cores, memory_mib } => write!(
                f,
                "no server can host a container with {cores} cores and {memory_mib} MiB"
            ),
            ProtoError::InvalidState { container, reason } => {
                write!(f, "container {container}: {reason}")
            }
            ProtoError::NotAQuery => write!(f, "command sent down the query path"),
            ProtoError::Denied(msg) => write!(f, "admin request denied: {msg}"),
            ProtoError::Other(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<EcovisorError> for ProtoError {
    fn from(e: EcovisorError) -> Self {
        match e {
            EcovisorError::UnknownApp(app) => ProtoError::UnknownApp(app),
            EcovisorError::NotOwner { container, app } => ProtoError::Scope { container, app },
            EcovisorError::Cop(cop) => cop.into(),
            other => ProtoError::Other(other.to_string()),
        }
    }
}

impl From<container_cop::CopError> for ProtoError {
    fn from(e: container_cop::CopError) -> Self {
        match e {
            container_cop::CopError::UnknownContainer(c) => ProtoError::UnknownContainer(c),
            container_cop::CopError::InsufficientCapacity { cores, memory_mib } => {
                ProtoError::InsufficientCapacity { cores, memory_mib }
            }
            container_cop::CopError::InvalidState { container, reason } => {
                ProtoError::InvalidState { container, reason }
            }
        }
    }
}

impl From<ProtoError> for EcovisorError {
    fn from(e: ProtoError) -> Self {
        match e {
            ProtoError::UnknownApp(app) => EcovisorError::UnknownApp(app),
            ProtoError::Scope { container, app } => EcovisorError::NotOwner { container, app },
            ProtoError::UnknownContainer(c) => {
                EcovisorError::Cop(container_cop::CopError::UnknownContainer(c))
            }
            ProtoError::InsufficientCapacity { cores, memory_mib } => {
                EcovisorError::Cop(container_cop::CopError::InsufficientCapacity {
                    cores,
                    memory_mib,
                })
            }
            ProtoError::InvalidState { container, reason } => {
                EcovisorError::Cop(container_cop::CopError::InvalidState { container, reason })
            }
            other => EcovisorError::Protocol(other.to_string()),
        }
    }
}

/// A batch of requests from one application, tagged with the protocol
/// version and the issuing application's scope.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestBatch {
    /// Protocol version the sender speaks.
    pub version: u16,
    /// Scope every request executes under. The dispatcher enforces that
    /// no request can touch state outside this application.
    pub app: AppId,
    /// Requests, executed in order.
    pub requests: Vec<EnergyRequest>,
}

impl RequestBatch {
    /// A current-version batch for `app`.
    pub fn new(app: AppId, requests: Vec<EnergyRequest>) -> Self {
        Self {
            version: PROTOCOL_VERSION,
            app,
            requests,
        }
    }
}

/// The responses to a [`RequestBatch`], one per request, in order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResponseBatch {
    /// Protocol version the dispatcher speaks.
    pub version: u16,
    /// Scope the batch executed under.
    pub app: AppId,
    /// Per-request responses, in request order.
    pub responses: Vec<EnergyResponse>,
}

// ----------------------------------------------------------------------
// The v2 frame layer: a duplex wire.
// ----------------------------------------------------------------------

/// A batch of asynchronous notifications pushed (or recorded) for one
/// application, stamped with the settlement tick that produced them.
///
/// This is the paper's Table 2 `notify_*` upcall surface made
/// wire-visible: on a v2 connection the server pushes one `EventFrame`
/// per app per settlement (when events fired), so a remote application
/// observes solar/carbon swings and battery edges without polling.
/// Pushed frames are recorded in
/// [`ProtocolTrace`](crate::dispatch::ProtocolTrace), so a replayed run
/// reproduces its push traffic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventFrame {
    /// Protocol version of the frame layer that carried this.
    pub version: u16,
    /// The application the notifications belong to.
    pub app: AppId,
    /// Index of the settlement tick that generated the events.
    pub tick: u64,
    /// The notifications, in generation order.
    pub events: Vec<Notification>,
}

impl EventFrame {
    /// A copy containing only the events `filter` selects (delivery
    /// filtering for one subscriber; other subscribers keep their own
    /// view of the same frame).
    pub(crate) fn filtered(&self, filter: &EventFilter) -> EventFrame {
        EventFrame {
            version: self.version,
            app: self.app,
            tick: self.tick,
            events: self
                .events
                .iter()
                .filter(|e| filter.matches(e))
                .copied()
                .collect(),
        }
    }
}

/// Connection-level control traffic on the v2 wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ControlFrame {
    /// Liveness probe; the peer answers [`ControlFrame::Pong`].
    Ping,
    /// Answer to a [`ControlFrame::Ping`].
    Pong,
}

/// One message on the duplex wire.
///
/// Protocol v1 put bare [`RequestBatch`]/[`ResponseBatch`] payloads in
/// its transport frames, which fixes the direction of every message:
/// the client speaks, the server answers. v2 wraps every payload in this
/// enum, so the *kind* travels with the message and the server gains the
/// right to speak first — pushing [`Frame::Event`] to subscribed
/// connections after each settlement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Frame {
    /// Client → server: a request batch to dispatch.
    Request(RequestBatch),
    /// Server → client: the answer to exactly one [`Frame::Request`].
    Response(ResponseBatch),
    /// Server → client: pushed notifications (requires `SubscribeEvents`).
    Event(EventFrame),
    /// Either direction: connection-level control traffic.
    Control(ControlFrame),
}

impl Frame {
    /// Appends the binary encoding of `Frame::Request(batch)` to `out`,
    /// for a sender that holds its batch by reference.
    pub(crate) fn encode_request(batch: &RequestBatch, out: &mut Vec<u8>) {
        serde::binary::write_variant(out, "Request");
        batch.encode(out);
    }
}

// ----------------------------------------------------------------------
// Typed extractors: the client handles use these to turn a wire response
// back into the Table 1 / Table 2 method signatures.
// ----------------------------------------------------------------------

/// Panics with a uniform message on a request/response type mismatch —
/// only reachable through a dispatcher bug, never through bad input.
/// A fallible extractor maps [`EnergyResponse::Err`] back to an error; an
/// infallible one is for getters that cannot fail.
macro_rules! extractors {
    (
        fallible { $( $(#[$fdoc:meta])* $fvis:vis $fallible:ident => $fvariant:ident ( $fty:ty ) ),* $(,)? }
        infallible { $( $(#[$idoc:meta])* $ivis:vis $infallible:ident => $ivariant:ident ( $ity:ty ) ),* $(,)? }
    ) => {
        impl EnergyResponse {
            $(
                $(#[$fdoc])*
                ///
                /// # Errors
                ///
                /// Maps [`EnergyResponse::Err`] back to [`EcovisorError`].
                ///
                /// # Panics
                ///
                /// On a response of any other variant (dispatcher bug).
                $fvis fn $fallible(self) -> crate::error::Result<$fty> {
                    match self {
                        EnergyResponse::$fvariant(v) => Ok(v),
                        EnergyResponse::Err(e) => Err(e.into()),
                        other => panic!(
                            concat!("protocol violation: expected ", stringify!($fvariant), ", got {:?}"),
                            other
                        ),
                    }
                }
            )*
            $(
                $(#[$idoc])*
                ///
                /// # Panics
                ///
                /// On [`EnergyResponse::Err`] or any other variant.
                $ivis fn $infallible(self) -> $ity {
                    match self {
                        EnergyResponse::$ivariant(v) => v,
                        other => panic!(
                            concat!("protocol violation: expected ", stringify!($ivariant), ", got {:?}"),
                            other
                        ),
                    }
                }
            )*
        }
    };
}

extractors! {
    fallible {
        /// Extracts a power reading.
        pub(crate) power => Power(Watts),
        /// Extracts an optional power cap.
        pub(crate) power_cap => PowerCap(Option<Watts>),
        /// Extracts an energy quantity.
        pub(crate) energy => Energy(WattHours),
        /// Extracts a carbon mass.
        pub(crate) carbon => Carbon(Co2Grams),
        /// Extracts a core-equivalent capacity.
        pub(crate) cores => Cores(f64),
        /// Extracts a container id.
        pub(crate) container => Container(ContainerId),
        /// Extracts drained notifications.
        pub(crate) events => Events(Vec<Notification>),
    }
    infallible {
        /// Extracts a power reading.
        pub(crate) expect_power => Power(Watts),
        /// Extracts an energy quantity.
        pub(crate) expect_energy => Energy(WattHours),
        /// Extracts a carbon mass.
        pub(crate) expect_carbon => Carbon(Co2Grams),
        /// Extracts a carbon intensity.
        pub expect_intensity => Intensity(CarbonIntensity),
        /// Extracts an optional rate limit.
        pub(crate) expect_rate_limit => RateLimit(Option<CarbonRate>),
        /// Extracts an optional budget.
        pub(crate) expect_budget => Budget(Option<Co2Grams>),
        /// Extracts a core-equivalent capacity.
        pub(crate) expect_cores => Cores(f64),
        /// Extracts a count.
        pub(crate) expect_count => Count(usize),
        /// Extracts a container id.
        pub expect_container => Container(ContainerId),
        /// Extracts container ids.
        pub(crate) expect_containers => Containers(Vec<ContainerId>),
        /// Extracts an instant.
        pub(crate) expect_time => Time(SimTime),
        /// Extracts a duration.
        pub(crate) expect_interval => Interval(SimDuration),
    }
}

impl EnergyResponse {
    /// Extracts a command acknowledgement.
    ///
    /// # Errors
    ///
    /// Maps [`EnergyResponse::Err`] back to [`EcovisorError`].
    ///
    /// # Panics
    ///
    /// On a response of any other variant (dispatcher bug).
    pub(crate) fn unit(self) -> crate::error::Result<()> {
        match self {
            EnergyResponse::Ok => Ok(()),
            EnergyResponse::Err(e) => Err(e.into()),
            other => panic!("protocol violation: expected Ok, got {other:?}"),
        }
    }

    /// `true` when the request failed.
    pub fn is_err(&self) -> bool {
        matches!(self, EnergyResponse::Err(_))
    }
}
