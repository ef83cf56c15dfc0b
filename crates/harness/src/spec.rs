//! The serializable scenario vocabulary.
//!
//! A [`ScenarioSpec`] is a complete, seeded description of one simulated
//! multi-tenant day: the physical world (solar array, battery bank,
//! cluster, excess-solar policy), the carbon signal (a region profile or
//! an explicit trace), and N tenants, each pairing an energy share with
//! a [`DriverSpec`] — the workload/policy pair that generates its API
//! traffic. Everything is a plain serde value, so a spec travels inside
//! a [`ScenarioArtifact`](crate::artifact::ScenarioArtifact) and the
//! verifier can rebuild the exact ecovisor a recording ran against.
//!
//! Specs compose *existing* pieces rather than inventing new models:
//! carbon comes from [`carbon_intel`] region profiles or raw
//! [`simkit::trace::Trace`]s, solar from the [`energy_system`] array
//! builder, workload shapes from [`workloads`] builders, and tenant
//! behaviour from the [`carbon_policies`] §5 policy suite (plus one
//! harness-native scripted driver for hand-authored days).

use std::collections::BTreeSet;

use carbon_intel::regions::RegionKind;
use ecovisor::{EnergyShare, ExcessPolicy, NotifyConfig};
use energy_system::solar::SolarArrayBuilder;
use serde::{Deserialize, Serialize};
use simkit::time::SECS_PER_DAY;
use simkit::trace::Trace;
use workloads::traces::WorkloadTraceBuilder;

/// Version of the spec schema itself, stored in every artifact so a
/// future incompatible change can be detected instead of misread.
pub const SPEC_FORMAT: u32 = 1;

/// A complete, seeded description of one simulated multi-tenant day.
///
/// The three plan fields added after the corpus was first recorded —
/// `credentials`, `restore` and `migration` — are `#[serde(default)]`:
/// left out while empty and defaulted when absent, so every artifact
/// older than they are stays byte-identical and readable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Spec schema version ([`SPEC_FORMAT`]).
    pub format: u32,
    /// Stable scenario name (also the artifact file stem).
    pub name: String,
    /// What the scenario exercises and why it is in the corpus.
    pub description: String,
    /// Master seed the component seeds were derived from when the day
    /// was generated. Builders inside the spec carry their own seeds,
    /// and the world is built from those; this one is a label that
    /// `ecoharness diff` compares.
    pub seed: u64,
    /// Settlement ticks to run.
    pub ticks: u64,
    /// Tick interval Δt in minutes.
    pub tick_minutes: u64,
    /// Number of microservers in the cluster.
    pub servers: u32,
    /// Excess-solar policy.
    pub excess: ExcessPolicy,
    /// The grid carbon signal.
    pub carbon: CarbonSpec,
    /// The physical solar array.
    pub solar: SolarSpec,
    /// The physical battery bank capacity in watt-hours (the paper's
    /// 1,440 Wh bank when `None`).
    pub battery_capacity_wh: Option<f64>,
    /// The tenants, registered in order (so app ids are 1..=N).
    pub tenants: Vec<TenantSpec>,
    /// Per-tenant wire credentials for transport verification. Empty
    /// means the scenario runs against an uncredentialed server (every
    /// pre-existing corpus day). When non-empty, `verify --transport`
    /// spawns the server with a [`ecovisor::CredentialRegistry`], each
    /// tenant connects with its token, and any
    /// [`rotation`](CredentialSpec::rotation) entries are exercised
    /// mid-day against live connections.
    #[serde(default)]
    pub credentials: Vec<CredentialSpec>,
    /// A mid-day checkpoint-restore exercised during transport
    /// verification (restore raced with active dispatch). Requires the
    /// artifact to carry a checkpoint at exactly
    /// [`RestorePlan::tick`].
    #[serde(default)]
    pub restore: Option<RestorePlan>,
    /// A mid-day live tenant migration exercised during **federated**
    /// verification (`verify --federated`, or automatically under
    /// `verify --transport` when present): the recorded day is replayed
    /// split across two ecovisor processes joined by the two-phase
    /// settlement barrier, and at [`MigrationPlan::tick`] the named
    /// tenant moves between them over the v2 wire
    /// (`MigrateOut` → `MigrateIn` → `MigrateCommit`). The rest of the
    /// day must still replay bit-identically.
    #[serde(default)]
    pub migration: Option<MigrationPlan>,
}

/// One tenant's wire credential (and optional mid-day rotation) for
/// credentialed transport verification.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CredentialSpec {
    /// Which tenant (must match a [`TenantSpec::name`]).
    pub tenant: String,
    /// The token presented in the client hello.
    pub token: String,
    /// Rotate to a new token mid-day, while the connection is live.
    pub rotation: Option<CredentialRotation>,
}

/// A mid-day credential rotation: at the start of tick `tick` the
/// server's registry is updated to `token`; the harness then proves the
/// old token is rejected and reconnects with the new one.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CredentialRotation {
    /// Tick (0-based) at whose start the rotation happens; must be
    /// `< ticks`.
    pub tick: u64,
    /// The replacement token.
    pub(crate) token: String,
}

/// A mid-day live tenant migration between two federated ecovisor
/// processes: at the start of tick `tick` the tenant is captured on its
/// source node (which keeps serving it until the commit), grafted onto
/// the peer node, and evicted from the source — all over credentialed
/// admin connections, while the tenant's own connection re-homes to the
/// destination.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MigrationPlan {
    /// Which tenant moves (must match a [`TenantSpec::name`]).
    pub(crate) tenant: String,
    /// Tick (0-based) at whose start the migration happens; must lie
    /// strictly inside `(0, ticks)` so state accumulates on both sides
    /// of the move.
    pub tick: u64,
}

/// A mid-day snapshot restore raced with active dispatch during
/// transport verification: at the start of tick `tick`, an operator
/// connection pushes the artifact's checkpoint for that very tick back
/// into the live server (a state-idempotent restore), so the rest of
/// the day must still replay bit-identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RestorePlan {
    /// Tick (0-based) at whose start the restore happens; the artifact
    /// must carry a checkpoint recorded at this tick.
    pub tick: u64,
    /// Also push a corrupted snapshot first and require the server to
    /// reject it while preserving state.
    pub(crate) tamper: bool,
}

impl ScenarioSpec {
    /// Convenience: the tick interval as a [`simkit::time::SimDuration`].
    pub fn tick_interval(&self) -> simkit::time::SimDuration {
        simkit::time::SimDuration::from_minutes(self.tick_minutes)
    }

    /// Rough sanity validation (names non-empty and tenant names unique,
    /// at least one tenant, at least one tick, at most one credential a
    /// tenant), plus everything a spec read from a file needs for its
    /// world to build without a panic: a day whose clock fits in `u64`,
    /// at least one server, a positive finite battery, and carbon and
    /// solar signals with at least one sample and a non-zero step. The
    /// deep validation is registration itself: building the scenario
    /// surfaces share oversubscription etc.
    ///
    /// # Errors
    ///
    /// A description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.format != SPEC_FORMAT {
            return Err(format!(
                "spec format {} (this build reads {SPEC_FORMAT})",
                self.format
            ));
        }
        if self.name.is_empty() {
            return Err("scenario name must be non-empty".into());
        }
        if self.ticks == 0 {
            return Err("scenario must run at least one tick".into());
        }
        if self.tick_minutes == 0 {
            return Err("tick interval must be non-zero".into());
        }
        if u128::from(self.ticks) * u128::from(self.tick_minutes) * 60 > u128::from(u64::MAX) {
            return Err("tick_minutes × ticks overflows the clock".into());
        }
        if self.servers == 0 {
            return Err("servers must be at least one".into());
        }
        match self.battery_capacity_wh {
            Some(wh) if !(wh > 0.0 && wh.is_finite()) => {
                return Err("battery_capacity_wh must be positive and finite".into());
            }
            _ => {}
        }
        match &self.carbon {
            CarbonSpec::Region { days, .. } if !(1..=u64::MAX / SECS_PER_DAY).contains(days) => {
                return Err("carbon region must cover at least one day".into());
            }
            CarbonSpec::Trace(trace) if !spans(trace) => {
                return Err("carbon trace needs a sample and a non-zero step".into());
            }
            _ => {}
        }
        match &self.solar {
            SolarSpec::Array(array) => array.check().map_err(|e| format!("solar array: {e}"))?,
            SolarSpec::Trace(trace) if !spans(trace) => {
                return Err("solar trace needs a sample and a non-zero step".into());
            }
            _ => {}
        }
        if self.tenants.is_empty() {
            return Err("scenario needs at least one tenant".into());
        }
        // Credentials and plans pick their tenant by name, so a repeated
        // name (or a second credential for one tenant) is ambiguous.
        let mut names = BTreeSet::new();
        for t in &self.tenants {
            if t.name.is_empty() {
                return Err("tenant names must be non-empty".into());
            }
            if !names.insert(t.name.as_str()) {
                return Err(format!("duplicate tenant name {:?}", t.name));
            }
        }
        if !self.credentials.is_empty() {
            let mut credentialed = BTreeSet::new();
            for c in &self.credentials {
                if !credentialed.insert(c.tenant.as_str()) {
                    return Err(format!("duplicate credential for tenant {:?}", c.tenant));
                }
                if !self.tenants.iter().any(|t| t.name == c.tenant) {
                    return Err(format!("credential for unknown tenant {:?}", c.tenant));
                }
                if c.token.is_empty() {
                    return Err(format!("empty credential token for tenant {:?}", c.tenant));
                }
                if let Some(rot) = &c.rotation {
                    if rot.tick >= self.ticks {
                        return Err(format!(
                            "credential rotation for {:?} at tick {} is past the day ({} ticks)",
                            c.tenant, rot.tick, self.ticks
                        ));
                    }
                    if rot.token.is_empty() {
                        return Err(format!("empty rotation token for tenant {:?}", c.tenant));
                    }
                }
            }
            // A credentialed server rejects any tenant without a token,
            // so a partial credential set could never verify.
            for t in &self.tenants {
                if !self.credentials.iter().any(|c| c.tenant == t.name) {
                    return Err(format!(
                        "credentialed scenario is missing a token for tenant {:?}",
                        t.name
                    ));
                }
            }
        }
        if let Some(restore) = &self.restore {
            if restore.tick == 0 || restore.tick >= self.ticks {
                return Err(format!(
                    "restore plan tick {} outside (0, {})",
                    restore.tick, self.ticks
                ));
            }
            // The wire snapshot/restore surface only opens on a
            // credentialed server, so an uncredentialed restore plan
            // could never verify.
            if self.credentials.is_empty() {
                return Err("a restore plan requires credentials".into());
            }
        }
        if let Some(plan) = &self.migration {
            if !self.tenants.iter().any(|t| t.name == plan.tenant) {
                return Err(format!(
                    "migration plan for unknown tenant {:?}",
                    plan.tenant
                ));
            }
            if plan.tick == 0 || plan.tick >= self.ticks {
                return Err(format!(
                    "migration plan tick {} outside (0, {})",
                    plan.tick, self.ticks
                ));
            }
        }
        Ok(())
    }
}

/// Whether a decoded trace — which never ran `Trace::from_samples` —
/// covers a non-empty span the clock can hold.
fn spans(trace: &Trace) -> bool {
    (trace.len() as u64)
        .checked_mul(trace.step().as_secs())
        .is_some_and(|span| span > 0)
}

/// The grid carbon-intensity signal driving a scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CarbonSpec {
    /// A flat signal (g/kWh) — the quiet control case.
    Constant {
        /// Intensity in g·CO₂/kWh.
        grams_per_kwh: f64,
    },
    /// A named built-in region profile run through the synthetic trace
    /// generator.
    Region {
        /// Which built-in profile.
        region: RegionKind,
        /// Days of signal to generate (sampling past the end holds).
        days: u64,
        /// Generator seed.
        seed: u64,
    },
    /// An explicit sample trace (g/kWh).
    Trace(Trace),
}

/// The physical solar array driving a scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SolarSpec {
    /// No array: grid/battery only.
    None,
    /// The deterministic clear-sky/weather array generator.
    Array(SolarArrayBuilder),
    /// An explicit output trace (watts).
    Trace(Trace),
}

/// One tenant: an energy share plus the driver that generates its API
/// traffic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantSpec {
    /// Display/registration name.
    pub name: String,
    /// Exogenous share of the physical energy system.
    pub share: EnergyShare,
    /// Notification thresholds, when the scenario wants non-default
    /// event generation.
    pub(crate) notify: Option<NotifyConfig>,
    /// Level-event outbox cap, when the scenario exercises the bounded
    /// outbox ([`ecovisor::OutboxPolicy`]).
    pub outbox_cap: Option<usize>,
    /// The workload/policy pair.
    pub(crate) driver: DriverSpec,
}

impl TenantSpec {
    /// A tenant with default notification/outbox configuration.
    pub fn new(name: impl Into<String>, share: EnergyShare, driver: DriverSpec) -> Self {
        Self {
            name: name.into(),
            share,
            notify: None,
            outbox_cap: None,
            driver,
        }
    }
}

/// The batch job a [`DriverSpec::Batch`] tenant runs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum JobSpec {
    /// The §5.1 ResNet-34 training job (sync-overhead scaling).
    MlTraining,
    /// The §5.1 BLAST-470 job (queue-bottleneck scaling).
    Blast,
    /// A linearly scaling job of the given size.
    Linear {
        /// Total work in core-hours.
        total_core_hours: f64,
    },
}

/// One deterministic phase of a [`DriverSpec::Scripted`] tenant.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScriptPhase {
    /// How many ticks this phase lasts.
    pub ticks: u64,
    /// Per-container CPU demand in `[0, 1]` (`0` suspends the fleet).
    pub demand: f64,
    /// Battery grid-charge rate during the phase (watts).
    pub charge_watts: f64,
    /// Battery max discharge during the phase (watts).
    pub max_discharge_watts: f64,
}

/// The workload/policy pair generating one tenant's API traffic.
///
/// Except for `Scripted`, each variant constructs the corresponding
/// [`carbon_policies`] application — the same §5 policy code the
/// experiments run — wired to a [`workloads`] model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DriverSpec {
    /// A §5.1 batch job ([`carbon_policies::BatchApp`]) under a carbon
    /// policy.
    Batch {
        /// Which job model.
        job: JobSpec,
        /// Which §5.1 policy (serialized [`carbon_policies::BatchMode`]).
        mode: carbon_policies::BatchMode,
        /// Baseline container count.
        baseline_containers: u32,
        /// Cores per container.
        container_cores: u32,
        /// Arrival delay in hours from the scenario start.
        arrival_hours: f64,
    },
    /// A §5.2 web service ([`carbon_policies::WebApp`]) over a diurnal
    /// request-rate trace.
    Web {
        /// Per-worker service rate (requests/second).
        service_rate: f64,
        /// The request-rate trace generator.
        workload: WorkloadTraceBuilder,
        /// Which §5.2 policy (serialized [`carbon_policies::WebPolicy`]).
        policy: carbon_policies::WebPolicy,
        /// p95 latency SLO in milliseconds.
        slo_ms: f64,
        /// Minimum worker pool size.
        min_workers: u32,
        /// Maximum worker pool size.
        max_workers: u32,
    },
    /// A §5.3 delay-tolerant Spark job with checkpointing
    /// ([`carbon_policies::SparkApp`]).
    Spark {
        /// Total work in core-hours.
        work_core_hours: f64,
        /// Checkpoint interval in minutes.
        checkpoint_minutes: u64,
        /// Which §5.3 policy (serialized [`carbon_policies::SparkMode`]).
        mode: carbon_policies::SparkMode,
        /// Minimum battery-guaranteed power (watts).
        guaranteed_watts: f64,
    },
    /// The §3.1 carbon-arbitrage battery policy
    /// ([`carbon_policies::ArbitrageApp`]).
    Arbitrage {
        /// Steady container count.
        containers: u32,
        /// Charge when intensity ≤ this (g/kWh).
        low_g_per_kwh: f64,
        /// Discharge when intensity ≥ this (g/kWh).
        high_g_per_kwh: f64,
        /// Grid charge rate in the clean band (watts).
        charge_watts: f64,
    },
    /// A harness-native deterministic driver: a container fleet cycling
    /// through scripted demand/battery phases, optionally arming a
    /// carbon budget mid-run. Exists for hand-authored days the policy
    /// suite doesn't express (e.g. the budget-exhaustion scenario).
    Scripted {
        /// Fleet size (quad-core containers, launched at start).
        containers: u32,
        /// The phase cycle (wraps around for the whole scenario).
        phases: Vec<ScriptPhase>,
        /// Arm `Some(grams)` as the carbon budget at the given tick.
        budget_grams: Option<f64>,
        /// Tick at which the budget is armed.
        budget_at_tick: u64,
    },
}
