//! Versioned checkpoint/restore of complete ecovisor state.
//!
//! The ecovisor virtualizes the energy system *in software*, which means
//! all of its state — per-app shards, COP container/power-cap state,
//! telemetry, outboxes, battery charge, clock position — is in-memory
//! and lost on restart. A [`Snapshot`] captures every bit of that
//! dynamic state so it can be written to disk, shipped over the wire
//! (see the v2 `Snapshot`/`Restore` admin requests in [`crate::proto`]),
//! or embedded in a harness artifact as a mid-day checkpoint.
//!
//! ## Equivalence contract
//!
//! A restored ecovisor is **bit-identical going forward**: driven with
//! the same subsequent traffic it produces the same [`VesTotals`], the
//! same event frames, and the same replay digests as the original. The
//! harness enforces this for every corpus day (restore from each
//! embedded checkpoint, replay the remainder, compare against the
//! uninterrupted run).
//!
//! ## What is and is not captured
//!
//! Captured: the tick clock (whose position *is* the solar/carbon trace
//! cursor — both services are pure functions of simulated time), and a
//! system record — the physical battery, grid meter and PSU, the
//! `SYSTEM` telemetry and the two id cursors — beside one
//! [`TenantRecord`] per tenant: its shard, including undelivered outbox
//! events (carried so a subscriber sees each edge event exactly once
//! across a checkpoint/restore boundary), its containers and its
//! telemetry. A tenant record is what a migration ships
//! ([`TenantSnapshot`](crate::federation::TenantSnapshot)), byte for
//! byte, and both are installed by one path, `Ecovisor::install`.
//!
//! Derived, and not written: each server's occupancy (the sum of what the
//! live containers placed on it reserve) and the carbon intensity of the
//! current and the previous tick (re-sampled from the restored clock, so
//! a snapshot cannot set what tenants are told).
//!
//! Not captured: the solar/carbon *traces* themselves, the placement
//! policy, the server specs and the power models (all static
//! configuration the restoring process must supply via its
//! [`EcovisorBuilder`](crate::EcovisorBuilder) — guarded by an
//! environment fingerprint), plus the protocol trace recorder (a restore
//! never adopts the source's recording state).
//!
//! ## Versioning rules
//!
//! [`SNAPSHOT_FORMAT`] names the layout of the `Snapshot` structure
//! itself and is bumped on any incompatible change; restore rejects
//! every other format outright, and no reader of an older one is kept.
//! The embedded protocol version records which protocol era wrote the
//! snapshot; restore accepts exactly [`PROTOCOL_VERSION`]. See
//! `docs/SNAPSHOT.md` for the full rules.

use std::sync::RwLock;

use container_cop::{AppId, Container, ContainerId, Cop, CopConfig, ServerSpec};
use energy_system::battery::{Battery, BatterySpec};
use energy_system::grid::GridConnection;
use energy_system::psu::ProgrammablePsu;
use simkit::time::{SimDuration, SimTime, TickClock};
use simkit::units::{CarbonRate, Co2Grams, WattHours};
use simkit::IdMap;

use crate::config::ExcessPolicy;
use crate::ecovisor::{AppState, Ecovisor, SystemFlows};
use crate::error::EcovisorError;
use crate::event::{Notification, NotifyConfig, OutboxPolicy};
use crate::lock;
use crate::proto::PROTOCOL_VERSION;
use crate::replay::digest;
use crate::series::{check_stamps, SystemSeries, TenantSeries};
use crate::ves::{VesTotals, VirtualEnergySystem};

/// Version of the [`Snapshot`] layout itself. Bumped on any change that
/// an older reader could misinterpret; [`Ecovisor::apply_snapshot`]
/// rejects snapshots whose format it does not know.
pub const SNAPSHOT_FORMAT: u32 = 2;

/// Complete dynamic state of one application shard.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct AppSnapshot {
    /// The application's id.
    pub app: AppId,
    /// Display name.
    pub(crate) name: String,
    /// The virtual energy system, including cumulative totals and
    /// edge-trigger state.
    pub ves: VirtualEnergySystem,
    /// Notification thresholds.
    pub(crate) notify: NotifyConfig,
    /// Bounded-outbox policy.
    pub(crate) outbox: OutboxPolicy,
    /// Undelivered notifications at capture time. Restoring reinstates
    /// them verbatim, so each event is still delivered exactly once.
    pub pending_events: Vec<Notification>,
    /// Carbon-rate limit (Table 2 `set_carbon_rate`), if set.
    pub(crate) carbon_rate_limit: Option<CarbonRate>,
    /// Carbon budget (Table 2 `set_carbon_budget`), if set.
    pub(crate) carbon_budget: Option<Co2Grams>,
    /// Containers carrying an ecovisor-installed carbon cap, so
    /// enforcement can clear exactly what it installed when the rate
    /// limit lifts (or re-spread it as the container set changes).
    pub(crate) carbon_capped: Vec<ContainerId>,
    /// Edge-trigger state for [`Notification::BudgetExhausted`].
    pub(crate) budget_exhausted: bool,
}

/// What a tenant is, at rest and in transit: its shard, its containers
/// and its telemetry. A checkpoint holds one per tenant and a migration
/// ships one ([`TenantSnapshot`](crate::federation::TenantSnapshot)),
/// and the two are the same bytes.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct TenantRecord {
    /// The tenant's shard, including undelivered outbox events (carried
    /// verbatim so each is still delivered exactly once — by whichever
    /// process holds the tenant when they drain).
    pub app: AppSnapshot,
    /// Every container the tenant ever launched, stopped history
    /// included (accounting queries keep answering after a move), in id
    /// order.
    pub containers: Vec<Container>,
    /// The tenant's series in their slots, with no names.
    series: TenantSeries,
}

/// What a checkpoint holds beside its tenants: the physical side of the
/// energy system, its `SYSTEM` telemetry and the two id cursors.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
struct SystemRecord {
    /// System flows from the most recent settlement.
    last_system_flows: SystemFlows,
    /// The physical battery bank.
    physical_battery: Battery,
    /// The grid meter.
    grid: GridConnection,
    /// The validation PSU.
    psu: ProgrammablePsu,
    /// The `SYSTEM` series in their slots.
    series: SystemSeries,
    /// Next application id to allocate.
    next_app: u32,
    /// Next container id to allocate.
    next_container: u64,
}

/// A versioned, serializable checkpoint of a whole ecovisor.
///
/// Produced by [`Ecovisor::snapshot`] (inside the settlement barrier),
/// reinstated by [`Ecovisor::apply_snapshot`] on a freshly built
/// ecovisor. Its one stored and transmitted
/// form is binary ([`Snapshot::to_bytes`] / [`Snapshot::from_bytes`]).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Snapshot {
    /// Snapshot layout version ([`SNAPSHOT_FORMAT`]).
    pub format: u32,
    /// Protocol version of the writing process.
    pub protocol_version: u16,
    /// Number of fully settled ticks at capture time (equals the
    /// embedded clock's tick index).
    pub tick: u64,
    /// The tick clock. Restoring it repositions the solar and carbon
    /// trace cursors, which are pure functions of simulated time.
    pub clock: TickClock,
    /// Fingerprint of the *static* environment (tick interval, battery
    /// spec, server specs, excess policy). Restore refuses a snapshot
    /// whose fingerprint differs from the receiving process's.
    pub env_digest: u64,
    /// Everything that is not a tenant's.
    system: SystemRecord,
    /// Every registered tenant, in id order.
    pub tenants: Vec<TenantRecord>,
}

impl Snapshot {
    /// FNV-1a digest over the binary encoding — a cheap equality check
    /// for two snapshots (the structure holds floats, so digest equality
    /// means bit-identical state).
    pub fn digest(&self) -> u64 {
        digest(self)
    }

    /// Encodes with the compact binary codec (the canonical at-rest and
    /// on-wire form).
    pub fn to_bytes(&self) -> Vec<u8> {
        serde::binary::to_bytes(self)
    }

    /// Renders as JSON for a human to read. A dump only:
    /// [`from_bytes`](Self::from_bytes) does not read it back.
    pub fn to_json(&self) -> String {
        serde::json::to_string(self)
    }

    /// Decodes the binary form [`to_bytes`](Self::to_bytes) writes.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Decode`] when the bytes are not that.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        serde::binary::from_bytes(bytes).map_err(|e| SnapshotError::Decode(e.to_string()))
    }

    /// Per-app cumulative totals embedded in the snapshot, in id order
    /// (convenience for equivalence checks).
    pub fn app_totals(&self) -> Vec<(AppId, VesTotals)> {
        self.tenants
            .iter()
            .map(|t| (t.app.app, *t.app.ves.totals()))
            .collect()
    }
}

/// Why a snapshot could not be restored (or decoded).
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotError {
    /// The snapshot layout version is not understood.
    Format {
        /// The format this build understands.
        expected: u32,
        /// The format the snapshot declares.
        got: u32,
    },
    /// The snapshot was written under a protocol version this build does
    /// not support.
    Protocol(u16),
    /// The receiving process's static environment (tick interval,
    /// battery spec, cluster composition, excess policy) differs from
    /// the writer's.
    Environment(String),
    /// The snapshot is internally inconsistent.
    Structure(String),
    /// The bytes failed to decode as a binary snapshot.
    Decode(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Format { expected, got } => {
                write!(
                    f,
                    "unknown snapshot format {got} (this build reads {expected})"
                )
            }
            SnapshotError::Protocol(v) => {
                write!(f, "snapshot written under unsupported protocol version {v}")
            }
            SnapshotError::Environment(msg) => write!(f, "environment mismatch: {msg}"),
            SnapshotError::Structure(msg) => write!(f, "malformed snapshot: {msg}"),
            SnapshotError::Decode(msg) => write!(f, "snapshot decode failed: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<SnapshotError> for EcovisorError {
    fn from(e: SnapshotError) -> Self {
        EcovisorError::Protocol(e.to_string())
    }
}

/// The static configuration a snapshot does *not* carry, digested into
/// [`Snapshot::env_digest`] so restore can refuse a mismatched host.
#[derive(serde::Serialize)]
struct EnvFingerprint {
    tick_interval: SimDuration,
    battery: BatterySpec,
    servers: Vec<ServerSpec>,
    excess: ExcessPolicy,
}

/// What a [`Snapshot`] and a
/// [`TenantSnapshot`](crate::federation::TenantSnapshot) both declare
/// about themselves ([`Ecovisor::check_header`]).
pub(crate) struct TransferHeader {
    pub(crate) format: u32,
    pub(crate) protocol_version: u16,
    pub(crate) tick: u64,
    pub(crate) env_digest: u64,
}

impl Ecovisor {
    /// The one check of a transfer's header, whole-ecovisor or
    /// per-tenant: the layout this build reads and exactly
    /// [`PROTOCOL_VERSION`] as its protocol era, the
    /// writer's static environment equal to this process's — tick
    /// interval included, for `under` is the clock the state would run
    /// under (the snapshot's own, or this process's for a tenant) — and
    /// the declared tick that clock's. Returns the clock's instant.
    pub(crate) fn check_header(
        &self,
        header: &TransferHeader,
        under: &TickClock,
    ) -> Result<SimTime, SnapshotError> {
        if header.format != SNAPSHOT_FORMAT {
            return Err(SnapshotError::Format {
                expected: SNAPSHOT_FORMAT,
                got: header.format,
            });
        }
        if header.protocol_version != PROTOCOL_VERSION {
            return Err(SnapshotError::Protocol(header.protocol_version));
        }
        if header.env_digest != self.env_fingerprint() || under.interval() != self.clock.interval()
        {
            return Err(SnapshotError::Environment(
                "tick interval, battery spec, cluster composition, or excess policy \
                 differs from the capturing process"
                    .into(),
            ));
        }
        if header.tick != under.tick_index() {
            return Err(SnapshotError::Structure(format!(
                "captured at tick {} but the clock it would run under is at tick {}",
                header.tick,
                under.tick_index()
            )));
        }
        header
            .tick
            .checked_mul(under.interval().as_secs())
            .map(SimTime::from_secs)
            .ok_or_else(|| {
                SnapshotError::Structure(format!(
                    "tick {} is past the end of simulated time",
                    header.tick
                ))
            })
    }

    /// Digest of the static environment (see [`EnvFingerprint`]).
    pub(crate) fn env_fingerprint(&self) -> u64 {
        digest(&EnvFingerprint {
            tick_interval: self.clock.interval(),
            battery: *self.physical_battery.spec(),
            servers: self.server_specs(),
            excess: self.excess,
        })
    }

    /// The cluster's server specs, in id order.
    fn server_specs(&self) -> Vec<ServerSpec> {
        lock::read(&self.cop)
            .servers()
            .iter()
            .map(|s| *s.spec())
            .collect()
    }

    /// Captures the complete dynamic state of this ecovisor.
    ///
    /// Takes `&mut self` deliberately: exclusive access *is* the
    /// settlement barrier, so a snapshot can never observe a
    /// half-settled tick, and the shard and COP locks cost next to nothing. On a deployed instance call it inside
    /// [`crate::shard::ShardedEcovisor::with`], which takes the barrier
    /// for you.
    ///
    /// Undelivered outbox events are captured verbatim (not consumed):
    /// the original keeps delivering them, and a process restored from
    /// the snapshot delivers the same events exactly once.
    pub fn snapshot(&mut self) -> Snapshot {
        let obs_start = std::time::Instant::now();
        let env_digest = self.env_fingerprint();
        let cop = lock::get_mut(&mut self.cop);
        let next_container = cop.next_container_id();
        let tenants = self
            .apps
            .values_mut()
            .map(|shard| lock::get_mut(shard).record(cop))
            .collect();
        let snap = Snapshot {
            format: SNAPSHOT_FORMAT,
            protocol_version: PROTOCOL_VERSION,
            tick: self.clock.tick_index(),
            clock: self.clock.clone(),
            env_digest,
            system: SystemRecord {
                last_system_flows: self.last_system_flows,
                physical_battery: self.physical_battery.clone(),
                grid: self.grid.clone(),
                psu: self.psu.clone(),
                series: self.system_series.clone(),
                next_app: self.next_app,
                next_container,
            },
            tenants,
        };
        if let Some(hub) = &self.obs {
            hub.core
                .snapshot_capture
                .record_duration(obs_start.elapsed());
        }
        snap
    }

    /// Reinstates a snapshot into this ecovisor, replacing all dynamic
    /// state. The receiving instance must have been built from the same
    /// static configuration (same tick interval, battery spec, cluster
    /// composition, excess policy, and solar/carbon traces) — the first
    /// four are enforced via the environment fingerprint; the traces
    /// cannot be fingerprinted (they are behind trait objects) and are
    /// the caller's responsibility.
    ///
    /// Protocol tracing state is left untouched: a restore never adopts
    /// the source's recording.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Format`] / [`SnapshotError::Protocol`] on
    /// version mismatch, [`SnapshotError::Environment`] when the static
    /// configuration differs — by the digest, or by an embedded tick
    /// interval, battery spec or grid terms that are not this
    /// process's — [`SnapshotError::Structure`] when the snapshot is
    /// inconsistent: clock/tick disagreement, a physical bank charged
    /// outside its capacity, PSU draws that are not the ticks, id
    /// cursors not above every carried id, a `SYSTEM` sample stamped
    /// after the clock, or a tenant record the one install path
    /// refuses. Nothing is modified unless all of it passes
    /// (`docs/SNAPSHOT.md` §3).
    pub fn apply_snapshot(&mut self, snap: &Snapshot) -> Result<(), SnapshotError> {
        let obs_start = std::time::Instant::now();
        // Everything is checked before any state is touched, so a bad
        // snapshot never leaves the ecovisor half-restored.
        let header = TransferHeader {
            format: snap.format,
            protocol_version: snap.protocol_version,
            tick: snap.tick,
            env_digest: snap.env_digest,
        };
        let now = self.check_header(&header, &snap.clock)?;
        let system = &snap.system;
        // The digest is the writer's claim; the embedded spec and terms
        // are what would be installed.
        if system.physical_battery.spec() != self.physical_battery.spec() {
            return Err(SnapshotError::Environment(
                "embedded physical battery spec differs from this process's".into(),
            ));
        }
        if system.grid.terms() != self.grid.terms() {
            return Err(SnapshotError::Environment(
                "embedded grid capacity or net metering differs from this process's".into(),
            ));
        }
        let bank = &system.physical_battery;
        if !(WattHours::ZERO..=bank.spec().capacity).contains(&bank.charge_level()) {
            return Err(SnapshotError::Structure(
                "the physical battery is charged outside its capacity".into(),
            ));
        }
        // The supply meters one draw per settled tick.
        if system.psu.samples() != snap.tick {
            return Err(SnapshotError::Structure(format!(
                "the PSU metered {} draws in {} ticks",
                system.psu.samples(),
                snap.tick
            )));
        }
        check_stamps(&system.series, now, &power_telemetry::metrics::SYSTEM)?;
        let above_apps = snap.tenants.iter().map(|t| t.app.app.value()).max();
        if above_apps.is_some_and(|id| id >= system.next_app) || system.next_app == 0 {
            return Err(SnapshotError::Structure(format!(
                "next_app {} is not above every app id (and 0)",
                system.next_app
            )));
        }
        let containers = snap.tenants.iter().flat_map(|t| &t.containers);
        if let Some(c) = containers
            .map(Container::id)
            .find(|id| id.value() >= system.next_container)
        {
            return Err(SnapshotError::Structure(format!(
                "container {c} is not below the next container id {}",
                system.next_container
            )));
        }
        let mut cop = Cop::new(CopConfig {
            servers: self.server_specs(),
        });
        cop.align_container_id(system.next_container)
            .expect("a fresh platform's cursor is 0");
        let shares = self.install(&snap.tenants, Some(cop), now)?;

        self.system_series = system.series.clone();
        self.clock = snap.clock.clone();
        // Derived from the clock, never installed: a snapshot cannot set
        // what tenants are told.
        self.sample_carbon();
        self.last_system_flows = system.last_system_flows;
        self.physical_battery = system.physical_battery.clone();
        self.grid = system.grid.clone();
        self.psu = system.psu.clone();
        self.next_app = system.next_app;
        self.resident_shares = Some(shares);
        // The hub survives a restore (it is runtime state, not snapshot
        // state), so timings from before and after a restore land in the
        // same series.
        if let Some(hub) = &self.obs {
            hub.core
                .snapshot_restore
                .record_duration(obs_start.elapsed());
        }
        Ok(())
    }

    /// The one way tenant records get in, for a restore and a graft
    /// alike: checks every record, then installs them all. Beside the
    /// residents, on this ecovisor's platform, when `fresh` is `None`;
    /// in place of every resident, on `fresh` (swapped in), otherwise.
    /// Returns the admitted share sums ([`Ecovisor::admit`]).
    ///
    /// The checks, in order: every container a record carries is owned
    /// by its tenant, and no id arrives twice; [`admit`](Self::admit),
    /// once over all records;
    /// each record's container slots name its own carried containers,
    /// ascending and unrepeated, and no sample is stamped after `now`;
    /// and [`Cop::adopt_containers`], once over all containers, which
    /// inserts nothing unless every container fits.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Structure`] on the first check that fails;
    /// nothing has been modified then.
    pub(crate) fn install(
        &mut self,
        records: &[TenantRecord],
        mut fresh: Option<Cop>,
        now: SimTime,
    ) -> Result<(f64, WattHours), SnapshotError> {
        let mut carried = Vec::new();
        for record in records {
            let id = record.app.app;
            if let Some(c) = record.containers.iter().find(|c| c.owner() != id) {
                return Err(SnapshotError::Structure(format!(
                    "container {} belongs to app {}, not to app {id}'s record",
                    c.id(),
                    c.owner()
                )));
            }
            carried.extend(record.containers.iter().map(|c| (c.id(), id)));
        }
        let arrived = carried.len();
        let carried: IdMap<ContainerId, AppId> = carried.into_iter().collect();
        if carried.len() < arrived {
            return Err(SnapshotError::Structure(
                "a container id arrives twice".into(),
            ));
        }
        let shares = self.admit(records.iter().map(|r| &r.app), fresh.is_none(), &carried)?;
        for record in records {
            record.series.check(record.app.app, &carried, now)?;
        }
        let cop = match &mut fresh {
            Some(cop) => cop,
            None => lock::get_mut(&mut self.cop),
        };
        cop.adopt_containers(records.iter().flat_map(|r| &r.containers))
            .map_err(SnapshotError::Structure)?;

        if let Some(cop) = fresh {
            *lock::get_mut(&mut self.cop) = cop;
            self.apps = IdMap::new();
        }
        self.apps.extend(records.iter().map(|r| {
            let state = AppState::install(r.app.clone(), r.series.clone());
            (r.app.app, RwLock::new(state))
        }));
        Ok(shares)
    }
}

impl AppState {
    /// This tenant's record, its containers read from `cop`.
    pub(crate) fn record(&self, cop: &Cop) -> TenantRecord {
        TenantRecord {
            app: self.rec.clone(),
            containers: cop.owned_by(self.rec.app).cloned().collect(),
            series: (*self.series).clone(),
        }
    }
}
