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
//! cursor — both services are pure functions of simulated time), the
//! physical battery, grid meter and PSU, the full COP
//! ([`CopSnapshot`]), the telemetry store, and every per-app shard
//! including undelivered outbox events (drained into the snapshot so a
//! subscriber sees each edge event exactly once across a
//! checkpoint/restore boundary).
//!
//! Written but derived: the carbon intensity of the current and the
//! previous tick. Restore re-samples both from the restored clock, so a
//! snapshot cannot set what tenants are told.
//!
//! Not captured: the solar/carbon *traces* themselves, the placement
//! policy, and the power models (all static configuration the restoring
//! process must supply via its [`EcovisorBuilder`](crate::EcovisorBuilder) — guarded by an
//! environment fingerprint), plus the protocol trace recorder (a restore
//! never adopts the source's recording state).
//!
//! ## Versioning rules
//!
//! [`SNAPSHOT_FORMAT`] names the layout of the `Snapshot` structure
//! itself and is bumped on any incompatible change; restore rejects
//! unknown formats outright. The embedded protocol version records which
//! protocol era wrote the snapshot; restore accepts exactly
//! [`PROTOCOL_VERSION`]. See `docs/SNAPSHOT.md` for the full rules.

use std::collections::BTreeMap;
use std::sync::RwLock;

use container_cop::{AppId, ContainerId, CopSnapshot, ServerSpec};
use energy_system::battery::{Battery, BatterySpec};
use energy_system::grid::GridConnection;
use energy_system::psu::ProgrammablePsu;
use power_telemetry::Tsdb;
use simkit::time::{SimDuration, SimTime, TickClock};
use simkit::units::{CarbonIntensity, CarbonRate, Co2Grams};

use crate::config::ExcessPolicy;
use crate::ecovisor::{AppState, Ecovisor, SystemFlows};
use crate::error::EcovisorError;
use crate::event::{Notification, NotifyConfig, OutboxPolicy};
use crate::lock;
use crate::proto::PROTOCOL_VERSION;
use crate::replay::digest;
use crate::ves::{VesTotals, VirtualEnergySystem};

/// Version of the [`Snapshot`] layout itself. Bumped on any change that
/// an older reader could misinterpret; [`Ecovisor::apply_snapshot`]
/// rejects snapshots whose format it does not know.
pub const SNAPSHOT_FORMAT: u32 = 1;

/// Complete dynamic state of one application shard.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct AppSnapshot {
    /// The application's id.
    pub app: AppId,
    /// Display name.
    pub name: String,
    /// The virtual energy system, including cumulative totals and
    /// edge-trigger state.
    pub ves: VirtualEnergySystem,
    /// Notification thresholds.
    pub notify: NotifyConfig,
    /// Bounded-outbox policy.
    pub outbox: OutboxPolicy,
    /// Undelivered notifications at capture time. Restoring reinstates
    /// them verbatim, so each event is still delivered exactly once.
    pub pending_events: Vec<Notification>,
    /// Carbon-rate limit (Table 2 `set_carbon_rate`), if set.
    pub carbon_rate_limit: Option<CarbonRate>,
    /// Carbon budget (Table 2 `set_carbon_budget`), if set.
    pub carbon_budget: Option<Co2Grams>,
    /// Containers carrying an ecovisor-installed carbon cap, so
    /// enforcement can clear exactly what it installed when the rate
    /// limit lifts (or re-spread it as the container set changes).
    pub carbon_capped: Vec<ContainerId>,
    /// Edge-trigger state for [`Notification::BudgetExhausted`].
    pub budget_exhausted: bool,
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
    /// Carbon intensity of the current tick, as the writer sampled it.
    /// Written for the reader's information only: restore re-samples the
    /// carbon trace at the embedded clock and ignores this value.
    pub intensity: CarbonIntensity,
    /// The previous tick's intensity (the edge state of carbon
    /// notifications), as the writer sampled it. Ignored on restore,
    /// like [`intensity`](Self::intensity).
    pub prev_intensity: CarbonIntensity,
    /// System flows from the most recent settlement.
    pub last_system_flows: SystemFlows,
    /// The physical battery bank.
    pub physical_battery: Battery,
    /// The grid meter.
    pub grid: GridConnection,
    /// The validation PSU.
    pub psu: ProgrammablePsu,
    /// The container orchestration platform's dynamic state.
    pub cop: CopSnapshot,
    /// The full telemetry store.
    pub tsdb: Tsdb,
    /// Every registered application's shard, in id order.
    pub apps: Vec<AppSnapshot>,
    /// Next application id to allocate.
    pub next_app: u32,
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
        self.apps.iter().map(|a| (a.app, *a.ves.totals())).collect()
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

/// Refuses a store holding a sample later than `now`, the instant of the
/// clock it would be installed under: the next settlement appends at
/// that instant and a series only grows forwards (an equal stamp
/// overwrites, which [`TimeSeries::push`](simkit::series::TimeSeries::push)
/// allows). A scan of the series that names only an offender, so a
/// restore never pays for a sorted walk of the store.
pub(crate) fn telemetry_within(tsdb: &Tsdb, now: SimTime) -> Result<(), SnapshotError> {
    match tsdb.find(|series| series.last().is_some_and(|s| s.at > now)) {
        Some((metric, subject, _)) => Err(SnapshotError::Structure(format!(
            "series ({metric}, {subject}) holds a sample later than the clock, at {now}"
        ))),
        None => Ok(()),
    }
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
        let servers: Vec<ServerSpec> = lock::read(&self.cop)
            .servers()
            .iter()
            .map(|s| *s.spec())
            .collect();
        digest(&EnvFingerprint {
            tick_interval: self.clock.interval(),
            battery: *self.physical_battery.spec(),
            servers,
            excess: self.excess,
        })
    }

    /// Captures the complete dynamic state of this ecovisor.
    ///
    /// Takes `&mut self` deliberately: exclusive access *is* the
    /// settlement barrier, so a snapshot can never observe a
    /// half-settled tick, and the shard/COP/TSDB locks cost nothing
    /// (`RwLock::get_mut`). On a deployed instance call it inside
    /// [`crate::shard::ShardedEcovisor::with`], which takes the barrier
    /// for you.
    ///
    /// Undelivered outbox events are captured verbatim (not consumed):
    /// the original keeps delivering them, and a process restored from
    /// the snapshot delivers the same events exactly once.
    pub fn snapshot(&mut self) -> Snapshot {
        let obs_start = std::time::Instant::now();
        let env_digest = self.env_fingerprint();
        let cop = lock::get_mut(&mut self.cop).snapshot();
        let tsdb = lock::get_mut(&mut self.tsdb).clone();
        let apps = self
            .apps
            .values_mut()
            .map(|shard| lock::get_mut(shard).rec.clone())
            .collect();
        let snap = Snapshot {
            format: SNAPSHOT_FORMAT,
            protocol_version: PROTOCOL_VERSION,
            tick: self.clock.tick_index(),
            clock: self.clock.clone(),
            env_digest,
            intensity: self.intensity,
            prev_intensity: self.prev_intensity,
            last_system_flows: self.last_system_flows,
            physical_battery: self.physical_battery.clone(),
            grid: self.grid.clone(),
            psu: self.psu.clone(),
            cop,
            tsdb,
            apps,
            next_app: self.next_app,
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
    /// interval or battery spec that is not this process's —
    /// [`SnapshotError::Structure`] when the snapshot is inconsistent
    /// (clock/tick disagreement, a record the admission rule refuses,
    /// out-of-range ids, telemetry stamped after the clock). Nothing is
    /// modified unless all of it passes (`docs/SNAPSHOT.md` §3).
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
        // The digest is the writer's claim; the embedded spec is what
        // would be installed.
        if snap.physical_battery.spec() != self.physical_battery.spec() {
            return Err(SnapshotError::Environment(
                "embedded physical battery spec differs from this process's".into(),
            ));
        }
        let carried: BTreeMap<ContainerId, AppId> = snap
            .cop
            .containers
            .iter()
            .map(|c| (c.id(), c.owner()))
            .collect();
        self.admit(&snap.apps, false, &carried)?;
        // Admitted ids ascend and stop short of `u32::MAX`.
        let above_all = snap.apps.last().map_or(1, |a| a.app.value() + 1);
        if snap.next_app < above_all {
            return Err(SnapshotError::Structure(format!(
                "next_app {} is not above every app id (and 0)",
                snap.next_app
            )));
        }
        telemetry_within(&snap.tsdb, now)?;

        lock::get_mut(&mut self.cop)
            .restore(&snap.cop)
            .map_err(SnapshotError::Structure)?;
        *lock::get_mut(&mut self.tsdb) = snap.tsdb.clone();
        self.clock = snap.clock.clone();
        // Derived from the clock, never installed: a snapshot cannot set
        // what tenants are told.
        self.sample_carbon();
        self.last_system_flows = snap.last_system_flows;
        self.physical_battery = snap.physical_battery.clone();
        self.grid = snap.grid.clone();
        self.psu = snap.psu.clone();
        self.apps = snap
            .apps
            .iter()
            .map(|rec| (rec.app, RwLock::new(AppState::install(rec.clone()))))
            .collect();
        self.next_app = snap.next_app;
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
}
