//! Generative scenario fuzzing with shrinking, plus leak-gating soak
//! days over the live evented server.
//!
//! Three entry points, all seeded and fully deterministic:
//!
//! * [`run`] — the fuzzer proper. [`generate`] draws random
//!   [`ScenarioSpec`]s from the whole spec space (tenant counts,
//!   workload/policy mixes, carbon regions, solar regimes, battery
//!   sizes, outbox caps, credential sets with mid-day rotations,
//!   checkpoint cadences, restore plans, mid-day federated migration
//!   plans) and drives each candidate
//!   through the full record → verify matrix — a replay from the start
//!   and from every embedded checkpoint, and (unless disabled) the live
//!   evented transport. A candidate that fails is handed to
//!   [`shrink`], which greedily simplifies it to a minimal spec that
//!   *still* fails and writes the minimized recording as a normal
//!   `.scn.json` artifact — a reproducer any build can replay with
//!   `ecoharness verify --transport <path>`.
//! * [`soak`] — a thousands-of-tick day driven through real TCP
//!   connections against [`EcovisorServer::spawn`]'s serving threads, with
//!   periodic connection churn. The report gates on the server's
//!   [`ServerStats`] returning to the all-zero baseline after the
//!   clients disconnect: any leaked connection slot, undelivered
//!   subscriber frame, or unreturned receive-buffer byte fails
//!   [`SoakReport::leak_free`].
//! * [`promote`] — re-records the most *interesting* surviving
//!   candidates (event-rich, multi-tenant, adversarially planned) into
//!   a corpus directory, so a fuzz campaign's best days can join the
//!   standing regression net.
//!
//! Determinism contract: `generate(seed, i)` is a pure function (every
//! draw comes from [`SimRng::fork_indexed`]), specs are pure functions
//! of their seeds, and verification is exact — so one `(seed, count)`
//! pair names an entire campaign, and a failure report is reproducible
//! from the two numbers alone.

use std::path::{Path, PathBuf};

use carbon_intel::RegionKind;
use carbon_policies::{BatchMode, SparkMode, WebPolicy};
use ecovisor::{
    ContainerSpec, EcovisorServer, EnergyClient, EnergyShare, EventFilter, ExcessPolicy,
    NotifyConfig, RemoteEcovisorClient, ServerStats, WireCodec,
};
use energy_system::solar::{SolarArrayBuilder, Weather};
use simkit::units::{CarbonIntensity, CarbonRate, Watts};
use simkit::SimRng;
use workloads::traces::WorkloadTraceBuilder;

use crate::artifact::ScenarioArtifact;
use crate::error::HarnessError;
use crate::record::record_with_checkpoints;
use crate::scenario::build_ecovisor;
use crate::spec::{
    CarbonSpec, CredentialRotation, CredentialSpec, DriverSpec, JobSpec, MigrationPlan,
    RestorePlan, ScenarioSpec, ScriptPhase, SolarSpec, TenantSpec, SPEC_FORMAT,
};
use crate::verify::{verify, verify_federated, verify_transport};

/// One fuzz candidate: a generated spec plus the checkpoint cadence its
/// recording embeds (`None` = no checkpoints).
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// The generated scenario.
    pub spec: ScenarioSpec,
    /// `record --checkpoint-every` equivalent, in ticks.
    pub checkpoint_every: Option<u64>,
}

/// A deterministic bug injection for exercising the fuzzer itself:
/// `perturb` corrupts the recorded artifact of any candidate `matches`
/// accepts, so the verify matrix must catch it and [`shrink`] must
/// minimize toward the smallest spec the predicate still accepts.
pub struct Fault {
    /// Label for reports.
    pub name: &'static str,
    /// Which specs the injected bug "affects".
    pub matches: fn(&ScenarioSpec) -> bool,
    /// How the bug corrupts an affected recording.
    pub perturb: fn(&mut ScenarioArtifact),
}

impl std::fmt::Debug for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fault").field("name", &self.name).finish()
    }
}

/// Knobs for one fuzz campaign.
#[derive(Debug, Clone)]
pub struct FuzzOptions {
    /// Master seed; `generate(seed, i)` derives every candidate.
    pub seed: u64,
    /// How many candidates to generate and check.
    pub count: u64,
    /// Also run each candidate over the live evented transport
    /// (one TCP connection per tenant).
    pub transport: bool,
    /// Where minimized reproducers are written (`None` = don't write).
    pub out: Option<PathBuf>,
    /// Re-check budget for each failure's shrink loop.
    pub max_shrink_checks: usize,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions {
            seed: 0x5EED_F072,
            count: 100,
            transport: true,
            out: None,
            max_shrink_checks: 200,
        }
    }
}

/// One fuzz failure, after shrinking.
#[derive(Debug)]
pub struct FuzzFailure {
    /// Candidate index within the campaign (`generate(seed, index)`).
    pub index: u64,
    /// The generated scenario's name (before shrinking).
    pub scenario: String,
    /// The minimized candidate's failing check, `label: detail`.
    pub detail: String,
    /// The minimal candidate that still fails.
    pub minimized: Candidate,
    /// Accepted shrink transformations.
    pub shrink_steps: usize,
    /// Record+verify runs the shrink loop spent.
    pub shrink_checks: usize,
    /// The minimized reproducer artifact, when `FuzzOptions::out` was
    /// set. Replay with `ecoharness verify --transport <path>`.
    pub artifact: Option<PathBuf>,
}

/// A whole campaign's outcome.
#[derive(Debug)]
pub struct FuzzReport {
    /// The campaign's master seed.
    pub seed: u64,
    /// Candidates generated.
    pub generated: u64,
    /// Candidates that verified clean.
    pub passed: u64,
    /// Shrunk failures, in candidate order.
    pub failures: Vec<FuzzFailure>,
}

impl FuzzReport {
    /// `true` when every candidate verified clean.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

// ----------------------------------------------------------------------
// Generation
// ----------------------------------------------------------------------

/// Draws candidate `index` of the campaign seeded `seed` — a pure
/// function of the two numbers (every decision comes from an
/// independently forked [`SimRng`] stream).
///
/// The generator covers the whole spec vocabulary while staying inside
/// the validity envelope ([`ScenarioSpec::validate`]): solar fractions
/// are budgeted to at most 1.0 across tenants, credentialed scenarios
/// token every tenant, rotations land inside the horizon, and a restore
/// plan is only drawn when a checkpoint will exist at its tick on a
/// credentialed server.
pub fn generate(seed: u64, index: u64) -> Candidate {
    let mut rng = SimRng::from_seed(seed).fork_indexed("fuzz-spec", index);

    let ticks = rng.uniform_u64(8, 37);
    let tick_minutes = [15, 30, 60][rng.uniform_u64(0, 3) as usize];
    let servers = rng.uniform_u64(4, 17) as u32;
    let excess = if rng.chance(0.3) {
        ExcessPolicy::Redistribute
    } else {
        ExcessPolicy::Curtail
    };

    let carbon = match rng.uniform_u64(0, 4) {
        0 => CarbonSpec::Constant {
            grams_per_kwh: rng.uniform(80.0, 400.0),
        },
        1 => CarbonSpec::Region {
            region: RegionKind::Ontario,
            days: 2,
            seed: rng.next_u64(),
        },
        2 => CarbonSpec::Region {
            region: RegionKind::Uruguay,
            days: 2,
            seed: rng.next_u64(),
        },
        _ => CarbonSpec::Region {
            region: RegionKind::California,
            days: 2,
            seed: rng.next_u64(),
        },
    };

    let solar = if rng.chance(0.7) {
        let weather = match rng.uniform_u64(0, 3) {
            0 => Weather::Clear,
            1 => Weather::Overcast,
            _ => Weather::Mixed,
        };
        SolarSpec::Array(
            SolarArrayBuilder::new(rng.uniform(40.0, 200.0))
                .days(2)
                .weather(weather)
                .seed(rng.next_u64()),
        )
    } else {
        SolarSpec::None
    };
    let has_solar = !matches!(solar, SolarSpec::None);

    let battery_capacity_wh = rng.chance(0.4).then(|| rng.uniform(300.0, 2000.0));

    let tenant_count = rng.uniform_u64(1, 6) as usize;
    let mut solar_budget = 1.0_f64;
    let mut tenants = Vec::with_capacity(tenant_count);
    for i in 0..tenant_count {
        let mut share = EnergyShare::grid_only();
        if has_solar && solar_budget > 0.05 && rng.chance(0.6) {
            let fraction = rng.uniform(0.05, solar_budget.min(0.6));
            solar_budget -= fraction;
            share = share.with_solar_fraction(fraction);
        }
        if rng.chance(0.5) {
            share = share
                .with_battery(simkit::units::WattHours::new(rng.uniform(2.0, 40.0)))
                .with_initial_soc(rng.uniform(0.2, 0.8));
        }
        let mut tenant = TenantSpec::new(format!("t{i}"), share, gen_driver(&mut rng, ticks));
        if rng.chance(0.4) {
            tenant.notify = Some(NotifyConfig {
                solar_change_fraction: rng.uniform(0.05, 0.3),
                solar_change_floor: Watts::new(rng.uniform(0.2, 2.0)),
                carbon_change_fraction: rng.uniform(0.05, 0.3),
            });
        }
        if rng.chance(0.2) {
            tenant.outbox_cap = Some(rng.uniform_u64(1, 4) as usize);
        }
        tenants.push(tenant);
    }

    let credentials = if rng.chance(0.35) {
        (0..tenant_count)
            .map(|i| CredentialSpec {
                tenant: format!("t{i}"),
                token: format!("tok-{index}-{i}"),
                rotation: rng.chance(0.3).then(|| CredentialRotation {
                    tick: rng.uniform_u64(1, ticks),
                    token: format!("tok-{index}-{i}-rotated"),
                }),
            })
            .collect()
    } else {
        Vec::new()
    };

    // A cadence in [2, ticks-1] guarantees at least one embedded
    // checkpoint (recorded checkpoints land at every, 2·every, …,
    // strictly before the horizon).
    let checkpoint_every = (ticks > 3 && rng.chance(0.45))
        .then(|| rng.uniform_u64(2, (ticks / 2).max(3)))
        .filter(|&e| e < ticks);

    // The wire snapshot/restore surface only opens on a credentialed
    // server, and the plan needs a checkpoint at exactly its tick.
    let restore = match (checkpoint_every, credentials.is_empty()) {
        (Some(every), false) if rng.chance(0.5) => {
            let multiples = (ticks - 1) / every;
            let tick = every * rng.uniform_u64(1, multiples + 1);
            Some(RestorePlan {
                tick,
                tamper: rng.chance(0.5),
            })
        }
        _ => None,
    };

    // A mid-day live migration: the candidate also replays split across
    // two federated processes, moving this tenant between them at the
    // drawn tick. The cluster is widened so capacity never binds — the
    // recorded (single-process) day and the federated replay must make
    // identical launch decisions, and shared-capacity contention is the
    // one thing a partitioned cluster cannot reproduce.
    let migration = (ticks > 2 && rng.chance(0.3)).then(|| MigrationPlan {
        tenant: format!("t{}", rng.uniform_u64(0, tenant_count as u64)),
        tick: rng.uniform_u64(1, ticks),
    });
    let servers = if migration.is_some() {
        servers.max(64)
    } else {
        servers
    };

    let spec = ScenarioSpec {
        format: SPEC_FORMAT,
        name: format!("fuzz-{seed:016x}-{index}"),
        description: format!(
            "generated candidate #{index} of the fuzz campaign seeded {seed:#018x}"
        ),
        seed: rng.next_u64(),
        ticks,
        tick_minutes,
        servers,
        excess,
        carbon,
        solar,
        battery_capacity_wh,
        tenants,
        credentials,
        restore,
        migration,
    };
    Candidate {
        spec,
        checkpoint_every,
    }
}

/// Draws one tenant's workload/policy driver, covering all five
/// [`DriverSpec`] families.
fn gen_driver(rng: &mut SimRng, ticks: u64) -> DriverSpec {
    match rng.uniform_u64(0, 5) {
        0 => DriverSpec::Batch {
            job: JobSpec::Linear {
                total_core_hours: rng.uniform(20.0, 120.0),
            },
            mode: match rng.uniform_u64(0, 3) {
                0 => BatchMode::CarbonAgnostic,
                1 => BatchMode::SuspendResume {
                    threshold: CarbonIntensity::new(rng.uniform(100.0, 260.0)),
                },
                _ => BatchMode::WaitAndScale {
                    threshold: CarbonIntensity::new(rng.uniform(40.0, 200.0)),
                    scale: rng.uniform_u64(2, 5) as u32,
                },
            },
            baseline_containers: rng.uniform_u64(1, 3) as u32,
            container_cores: if rng.chance(0.5) { 2 } else { 4 },
            arrival_hours: rng.uniform(0.0, 2.0),
        },
        1 => DriverSpec::Web {
            service_rate: rng.uniform(30.0, 50.0),
            workload: WorkloadTraceBuilder::new(rng.uniform(10.0, 30.0), rng.uniform(60.0, 150.0))
                .days(2)
                .seed(rng.next_u64()),
            policy: if rng.chance(0.5) {
                WebPolicy::StaticRateLimit {
                    rate: CarbonRate::new(rng.uniform(0.0005, 0.0015)),
                }
            } else {
                WebPolicy::DynamicBudget {
                    target_rate: CarbonRate::new(rng.uniform(0.0005, 0.0015)),
                    slo_ms: 300.0,
                }
            },
            slo_ms: rng.uniform(200.0, 400.0),
            min_workers: 1,
            max_workers: rng.uniform_u64(4, 10) as u32,
        },
        2 => DriverSpec::Spark {
            work_core_hours: rng.uniform(60.0, 300.0),
            checkpoint_minutes: if rng.chance(0.5) { 30 } else { 60 },
            mode: if rng.chance(0.5) {
                SparkMode::StaticWorkers {
                    workers: rng.uniform_u64(1, 4) as u32,
                }
            } else {
                SparkMode::DynamicSolar {
                    base_workers: 1,
                    max_workers: rng.uniform_u64(3, 7) as u32,
                }
            },
            guaranteed_watts: rng.uniform(4.0, 12.0),
        },
        3 => {
            let low = rng.uniform(100.0, 180.0);
            DriverSpec::Arbitrage {
                containers: rng.uniform_u64(1, 4) as u32,
                low_g_per_kwh: low,
                high_g_per_kwh: low + rng.uniform(40.0, 120.0),
                charge_watts: rng.uniform(10.0, 50.0),
            }
        }
        _ => {
            let phase_count = rng.uniform_u64(1, 4);
            let phases = (0..phase_count)
                .map(|_| ScriptPhase {
                    ticks: rng.uniform_u64(1, 6),
                    demand: rng.uniform(0.0, 1.0),
                    charge_watts: if rng.chance(0.4) {
                        rng.uniform(0.0, 30.0)
                    } else {
                        0.0
                    },
                    max_discharge_watts: if rng.chance(0.4) {
                        rng.uniform(0.0, 20.0)
                    } else {
                        0.0
                    },
                })
                .collect();
            DriverSpec::Scripted {
                containers: rng.uniform_u64(1, 4) as u32,
                phases,
                budget_grams: rng.chance(0.15).then(|| rng.uniform(5.0, 40.0)),
                budget_at_tick: rng.uniform_u64(0, ticks),
            }
        }
    }
}

// ----------------------------------------------------------------------
// Checking
// ----------------------------------------------------------------------

/// Records a candidate (with its checkpoint cadence), applying `fault`'s
/// perturbation when the candidate matches.
///
/// # Errors
///
/// Everything [`record_with_checkpoints`] can fail with.
pub fn record_candidate(
    candidate: &Candidate,
    fault: Option<&Fault>,
) -> Result<ScenarioArtifact, HarnessError> {
    let mut artifact = record_with_checkpoints(&candidate.spec, candidate.checkpoint_every)?;
    if let Some(fault) = fault {
        if (fault.matches)(&candidate.spec) {
            (fault.perturb)(&mut artifact);
        }
    }
    Ok(artifact)
}

/// Runs one candidate through the record → verify matrix. Returns
/// `None` when every check held, or the first failing check's
/// `label: detail`.
///
/// The in-process replays (start + every checkpoint) run first; the
/// live-transport replay only runs when they came back clean, so an
/// already-failing candidate short-circuits cheaply.
///
/// # Errors
///
/// [`HarnessError`] for environmental failures only (the spec cannot be
/// built); verification mismatches are the `Some` return, not errors.
pub fn check(
    candidate: &Candidate,
    fault: Option<&Fault>,
    transport: bool,
) -> Result<Option<String>, HarnessError> {
    let artifact = record_candidate(candidate, fault)?;
    let report = verify(&artifact)?;
    if let Some(c) = report.checks.iter().find(|c| !c.ok) {
        return Ok(Some(format!("{}: {}", c.label, c.detail)));
    }
    if transport {
        let report = verify_transport(&artifact)?;
        if let Some(c) = report.checks.iter().find(|c| !c.ok) {
            return Ok(Some(format!("{}: {}", c.label, c.detail)));
        }
        if candidate.spec.migration.is_some() {
            let report = verify_federated(&artifact)?;
            if let Some(c) = report.checks.iter().find(|c| !c.ok) {
                return Ok(Some(format!("{}: {}", c.label, c.detail)));
            }
        }
    }
    Ok(None)
}

// ----------------------------------------------------------------------
// Shrinking
// ----------------------------------------------------------------------

/// A shrink run's result: the minimal still-failing candidate.
#[derive(Debug)]
pub struct ShrinkOutcome {
    /// The minimized candidate.
    pub candidate: Candidate,
    /// Its failing check, `label: detail`.
    pub detail: String,
    /// Accepted transformations.
    pub steps: usize,
    /// Record+verify runs spent.
    pub checks: usize,
}

/// Greedily shrinks a failing candidate: propose simplifications
/// (drop a tenant, halve the horizon, flatten the carbon signal, remove
/// solar/battery/notify/outbox, canonicalize drivers, clear adversarial
/// plans …), accept any that still fails, and repeat to a fixpoint or
/// until `max_checks` re-verifications are spent. Every accepted
/// intermediate is a valid spec, so the final candidate records and
/// replays like any corpus day.
///
/// # Errors
///
/// [`HarnessError`] for environmental failures during re-checking.
pub fn shrink(
    original: &Candidate,
    detail: String,
    fault: Option<&Fault>,
    transport: bool,
    max_checks: usize,
) -> Result<ShrinkOutcome, HarnessError> {
    let mut current = original.clone();
    let mut detail = detail;
    let mut steps = 0_usize;
    let mut checks = 0_usize;
    'outer: loop {
        let mut advanced = false;
        for candidate in transformations(&current) {
            if checks >= max_checks {
                break 'outer;
            }
            if candidate.spec.validate().is_err() || !consistent(&candidate) {
                continue;
            }
            checks += 1;
            if let Some(d) = check(&candidate, fault, transport)? {
                current = candidate;
                detail = d;
                steps += 1;
                advanced = true;
                break;
            }
        }
        if !advanced {
            break;
        }
    }
    Ok(ShrinkOutcome {
        candidate: current,
        detail,
        steps,
        checks,
    })
}

/// `true` when the candidate's restore plan (if any) will have a
/// checkpoint at its tick — the cross-field invariant
/// [`ScenarioSpec::validate`] cannot see (the cadence lives on the
/// candidate, not the spec).
fn consistent(candidate: &Candidate) -> bool {
    match (candidate.spec.restore, candidate.checkpoint_every) {
        (None, _) => true,
        (Some(_), None) => false,
        (Some(plan), Some(every)) => {
            plan.tick.is_multiple_of(every) && plan.tick < candidate.spec.ticks
        }
    }
}

/// The canonical minimal driver shrinking converges tenants toward.
fn minimal_driver() -> DriverSpec {
    DriverSpec::Scripted {
        containers: 1,
        phases: vec![ScriptPhase {
            ticks: 1,
            demand: 0.5,
            charge_watts: 0.0,
            max_discharge_watts: 0.0,
        }],
        budget_grams: None,
        budget_at_tick: 0,
    }
}

/// All single-step simplifications of a candidate, most aggressive
/// first. Invalid proposals are cheap — the shrink loop filters them
/// through [`ScenarioSpec::validate`] before spending a re-check.
fn transformations(current: &Candidate) -> Vec<Candidate> {
    let mut out = Vec::new();
    let spec = &current.spec;
    let mut push = |f: &dyn Fn(&mut Candidate)| {
        let mut next = current.clone();
        f(&mut next);
        if next != *current {
            out.push(next);
        }
    };

    // Drop one tenant (and its credential) at a time.
    if spec.tenants.len() > 1 {
        for i in 0..spec.tenants.len() {
            push(&|c: &mut Candidate| {
                let name = c.spec.tenants.remove(i).name;
                c.spec.credentials.retain(|cred| cred.tenant != name);
            });
        }
    }
    // Shorten the horizon: halve, then decrement.
    if spec.ticks > 1 {
        let half = (spec.ticks / 2).max(1);
        if half < spec.ticks {
            push(&|c: &mut Candidate| c.spec.ticks = half);
        }
        push(&|c: &mut Candidate| c.spec.ticks -= 1);
    }
    // Clear the adversarial plans (restore before cadence/credentials —
    // validate() insists a plan keeps both).
    if spec.restore.is_some_and(|p| p.tamper) {
        push(&|c: &mut Candidate| {
            c.spec.restore = c.spec.restore.map(|p| RestorePlan { tamper: false, ..p });
        });
    }
    if spec.restore.is_some() {
        push(&|c: &mut Candidate| c.spec.restore = None);
    }
    if spec.migration.is_some() {
        push(&|c: &mut Candidate| c.spec.migration = None);
    }
    if current.checkpoint_every.is_some() {
        push(&|c: &mut Candidate| c.checkpoint_every = None);
    }
    if spec.credentials.iter().any(|c| c.rotation.is_some()) {
        push(&|c: &mut Candidate| {
            for cred in &mut c.spec.credentials {
                cred.rotation = None;
            }
        });
    }
    if !spec.credentials.is_empty() {
        push(&|c: &mut Candidate| c.spec.credentials.clear());
    }
    // Flatten the physical world.
    let flat = CarbonSpec::Constant {
        grams_per_kwh: 200.0,
    };
    if spec.carbon != flat {
        push(&|c: &mut Candidate| {
            c.spec.carbon = CarbonSpec::Constant {
                grams_per_kwh: 200.0,
            };
        });
    }
    if spec.solar != SolarSpec::None {
        push(&|c: &mut Candidate| c.spec.solar = SolarSpec::None);
    }
    if spec.battery_capacity_wh.is_some() {
        push(&|c: &mut Candidate| c.spec.battery_capacity_wh = None);
    }
    if spec.excess != ExcessPolicy::Curtail {
        push(&|c: &mut Candidate| c.spec.excess = ExcessPolicy::Curtail);
    }
    if spec.tick_minutes != 30 {
        push(&|c: &mut Candidate| c.spec.tick_minutes = 30);
    }
    if spec.servers > 4 {
        push(&|c: &mut Candidate| c.spec.servers = 4);
    }
    // Simplify each tenant in place.
    for i in 0..spec.tenants.len() {
        if spec.tenants[i].notify.is_some() {
            push(&|c: &mut Candidate| c.spec.tenants[i].notify = None);
        }
        if spec.tenants[i].outbox_cap.is_some() {
            push(&|c: &mut Candidate| c.spec.tenants[i].outbox_cap = None);
        }
        if spec.tenants[i].share != EnergyShare::grid_only() {
            push(&|c: &mut Candidate| c.spec.tenants[i].share = EnergyShare::grid_only());
        }
        if spec.tenants[i].driver != minimal_driver() {
            push(&|c: &mut Candidate| c.spec.tenants[i].driver = minimal_driver());
        }
    }
    out
}

// ----------------------------------------------------------------------
// Campaign driver
// ----------------------------------------------------------------------

/// Writes a candidate's recording (fault applied when matching) into
/// `dir` as a JSON artifact under the candidate's spec name.
///
/// # Errors
///
/// Recording and filesystem failures.
pub fn write_reproducer(
    candidate: &Candidate,
    fault: Option<&Fault>,
    dir: &Path,
) -> Result<PathBuf, HarnessError> {
    let artifact = record_candidate(candidate, fault)?;
    artifact.write_to_dir(dir, WireCodec::Json)
}

/// Runs a whole campaign: generate, check, shrink failures, write
/// reproducers.
///
/// # Errors
///
/// [`HarnessError`] for environmental failures; verification mismatches
/// land in the report's `failures`.
pub fn run(opts: &FuzzOptions, fault: Option<&Fault>) -> Result<FuzzReport, HarnessError> {
    let mut report = FuzzReport {
        seed: opts.seed,
        generated: opts.count,
        passed: 0,
        failures: Vec::new(),
    };
    for index in 0..opts.count {
        let candidate = generate(opts.seed, index);
        match check(&candidate, fault, opts.transport)? {
            None => report.passed += 1,
            Some(detail) => {
                let scenario = candidate.spec.name.clone();
                let mut shrunk = shrink(
                    &candidate,
                    detail,
                    fault,
                    opts.transport,
                    opts.max_shrink_checks,
                )?;
                shrunk.candidate.spec.name = format!("{scenario}-min");
                let artifact = match &opts.out {
                    Some(dir) => Some(write_reproducer(&shrunk.candidate, fault, dir)?),
                    None => None,
                };
                report.failures.push(FuzzFailure {
                    index,
                    scenario,
                    detail: shrunk.detail,
                    minimized: shrunk.candidate,
                    shrink_steps: shrunk.steps,
                    shrink_checks: shrunk.checks,
                    artifact,
                });
            }
        }
    }
    Ok(report)
}

// ----------------------------------------------------------------------
// Soak
// ----------------------------------------------------------------------

/// Knobs for a soak day.
#[derive(Debug, Clone, Copy)]
pub struct SoakOptions {
    /// Seed for the world and the per-tick demand stream.
    pub seed: u64,
    /// Settlement ticks to drive.
    pub ticks: u64,
    /// Live tenant connections.
    pub tenants: usize,
    /// Reconnect one tenant every this many ticks (0 = never).
    pub churn_every: u64,
}

impl Default for SoakOptions {
    fn default() -> Self {
        SoakOptions {
            seed: 0x5EED_50AC,
            ticks: 5000,
            tenants: 6,
            churn_every: 97,
        }
    }
}

/// A soak day's outcome. The headline gate is [`SoakReport::leak_free`].
#[derive(Debug)]
pub struct SoakReport {
    /// Ticks driven.
    pub ticks: u64,
    /// Connections cycled by churn.
    pub reconnects: usize,
    /// Requests round-tripped (approximate; counts issued commands).
    pub requests: u64,
    /// Event frames delivered to the subscribed connections.
    pub frames: usize,
    /// High-water [`ServerStats`] observed mid-run.
    pub peak: ServerStats,
    /// [`ServerStats`] after every client disconnected and the serving
    /// threads reaped the connections.
    pub final_stats: ServerStats,
}

impl SoakReport {
    /// `true` when the server's counters all returned to the zero
    /// baseline: no leaked connection slots, no stranded subscriber
    /// frames, no unreturned receive-buffer bytes.
    pub fn leak_free(&self) -> bool {
        self.final_stats.active_connections == 0
            && self.final_stats.subscriber_backlog == 0
            && self.final_stats.recv_buffer_bytes == 0
    }
}

/// The world a soak day runs against: chatty notification thresholds
/// and per-tenant batteries over mixed solar and volatile carbon at
/// one-minute ticks, so event frames keep flowing to the subscribers
/// for the whole run.
fn soak_spec(seed: u64, ticks: u64, tenants: usize) -> ScenarioSpec {
    ScenarioSpec {
        format: SPEC_FORMAT,
        name: format!("soak-{seed:016x}"),
        description: "fuzz --soak world (drivers unused; tenants are driven over live \
                      connections)"
            .into(),
        seed,
        ticks,
        tick_minutes: 1,
        servers: tenants.max(1) as u32,
        excess: ExcessPolicy::Curtail,
        carbon: CarbonSpec::Region {
            region: RegionKind::California,
            days: 4,
            seed: seed ^ 0x0CA1_2B04,
        },
        solar: SolarSpec::Array(
            SolarArrayBuilder::new(30.0 * tenants as f64)
                .days(4)
                .weather(Weather::Mixed)
                .seed(seed ^ 0x0050_1A12),
        ),
        battery_capacity_wh: None,
        tenants: (0..tenants)
            .map(|i| {
                let mut tenant = TenantSpec::new(
                    format!("soak-{i}"),
                    EnergyShare::grid_only()
                        .with_solar_fraction(0.9 / tenants.max(1) as f64)
                        .with_battery(simkit::units::WattHours::new(5.0))
                        .with_initial_soc(0.5),
                    minimal_driver(),
                );
                tenant.notify = Some(NotifyConfig {
                    solar_change_fraction: 0.1,
                    solar_change_floor: Watts::new(0.3),
                    carbon_change_fraction: 0.1,
                });
                tenant
            })
            .collect(),
        credentials: Vec::new(),
        restore: None,
        migration: None,
    }
}

/// Drives a long day through the live evented server: per-tenant TCP
/// connections (subscribed to event push) issue demand/battery commands
/// every tick, connections churn periodically, and settlement runs
/// between batches. After the clients disconnect, the server's
/// [`ServerStats`] must return to the all-zero baseline — the leak gate
/// CI's soak smoke enforces.
///
/// # Errors
///
/// Connection failures surface as [`HarnessError::Io`].
pub fn soak(opts: &SoakOptions) -> Result<SoakReport, HarnessError> {
    let spec = soak_spec(opts.seed, opts.ticks.max(1), opts.tenants.max(1));
    let (eco, ids) = build_ecovisor(&spec)?;
    // Port 0 only: fuzz workers and CI shards run servers concurrently,
    // so a fixed port would flake with EADDRINUSE.
    let server = EcovisorServer::bind("127.0.0.1:0", eco)?;
    let addr = server.local_addr()?;
    let handle = server.spawn()?;
    let shared = handle.ecovisor();

    let connect = |i: usize| -> Result<RemoteEcovisorClient, HarnessError> {
        let mut client = RemoteEcovisorClient::connect(addr, ids[i])?;
        client.subscribe_events(EventFilter::all())?;
        Ok(client)
    };

    let mut rng = SimRng::from_seed(opts.seed).fork("soak-demand");
    let mut requests = 0_u64;
    let mut frames = 0_usize;
    let mut reconnects = 0_usize;

    let mut clients: Vec<(RemoteEcovisorClient, Vec<ecovisor::ContainerId>)> =
        Vec::with_capacity(ids.len());
    for i in 0..ids.len() {
        let mut client = connect(i)?;
        let container = client
            .launch_container(ContainerSpec::quad_core())
            .map_err(|e| HarnessError::Spec(format!("soak launch: {e}")))?;
        requests += 1;
        clients.push((client, vec![container]));
    }

    let mut peak = handle.stats();
    let observe = |stats: ServerStats, peak: &mut ServerStats| {
        peak.active_connections = peak.active_connections.max(stats.active_connections);
        peak.subscriber_backlog = peak.subscriber_backlog.max(stats.subscriber_backlog);
        peak.recv_buffer_bytes = peak.recv_buffer_bytes.max(stats.recv_buffer_bytes);
    };

    for tick in 0..opts.ticks {
        if opts.churn_every > 0 && tick % opts.churn_every == opts.churn_every - 1 {
            let i = (tick / opts.churn_every) as usize % clients.len();
            // Drain the retiring connection's pushes, then replace it.
            // The server-side fleet survives — containers belong to the
            // app, not the connection.
            clients[i].0.poll_events()?;
            frames += clients[i].0.take_event_frames().len();
            clients[i].0 = connect(i)?;
            reconnects += 1;
        }
        for (client, fleet) in &mut clients {
            let demand = rng.uniform(0.05, 1.0);
            for &container in fleet.iter() {
                let _ = client.set_container_demand(container, demand);
            }
            client.set_battery_charge_rate(Watts::new(if rng.chance(0.5) { 3.0 } else { 0.0 }));
            // A read forces the queued commands onto the wire this tick.
            let _ = client.get_solar_power();
            requests += fleet.len() as u64 + 2;
        }
        shared.tick();
        if tick.is_multiple_of(16) {
            for (client, _) in &mut clients {
                client.poll_events()?;
                frames += client.take_event_frames().len();
            }
        }
        if tick.is_multiple_of(64) {
            observe(handle.stats(), &mut peak);
        }
    }

    for (client, _) in &mut clients {
        client.poll_events()?;
        frames += client.take_event_frames().len();
    }
    observe(handle.stats(), &mut peak);
    drop(clients);

    // The serving threads reap disconnected peers asynchronously; give
    // them a bounded window to return every counter to baseline.
    let mut final_stats = handle.stats();
    for _ in 0..1000 {
        if final_stats.active_connections == 0
            && final_stats.subscriber_backlog == 0
            && final_stats.recv_buffer_bytes == 0
        {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
        final_stats = handle.stats();
    }
    handle.shutdown();

    Ok(SoakReport {
        ticks: opts.ticks,
        reconnects,
        requests,
        frames,
        peak,
        final_stats,
    })
}

// ----------------------------------------------------------------------
// Promotion
// ----------------------------------------------------------------------

/// Knobs for promoting a campaign's survivors into a corpus directory.
#[derive(Debug, Clone)]
pub struct PromoteOptions {
    /// The campaign to re-generate.
    pub seed: u64,
    /// Candidates to consider.
    pub count: u64,
    /// How many survivors to write (best-scoring first).
    pub top: usize,
    /// Where the promoted artifacts go.
    pub out: PathBuf,
}

/// A candidate's "interestingness" for promotion: event-rich recordings
/// with many tenants and adversarial plans make the best standing
/// regression artifacts.
fn promotion_score(candidate: &Candidate, artifact: &ScenarioArtifact) -> u64 {
    let spec = &candidate.spec;
    let mut score = artifact.trace.events.len() as u64 * 4 + artifact.expected.event_count as u64;
    score += spec.tenants.len() as u64 * 8;
    score += artifact.checkpoints.len() as u64 * 2;
    if !spec.credentials.is_empty() {
        score += 16;
    }
    if spec.restore.is_some() {
        score += 32;
    }
    if spec.migration.is_some() {
        score += 32;
    }
    score
}

/// Re-records a campaign's most interesting *surviving* candidates into
/// `out`, alternating codecs so both loaders stay covered. Returns the
/// written paths, best-scoring first.
///
/// # Errors
///
/// Recording and filesystem failures.
pub fn promote(opts: &PromoteOptions) -> Result<Vec<PathBuf>, HarnessError> {
    let mut survivors: Vec<(u64, Candidate, ScenarioArtifact)> = Vec::new();
    for index in 0..opts.count {
        let candidate = generate(opts.seed, index);
        let artifact = record_candidate(&candidate, None)?;
        if !verify(&artifact)?.passed() {
            continue;
        }
        let score = promotion_score(&candidate, &artifact);
        survivors.push((score, candidate, artifact));
    }
    survivors.sort_by_key(|(score, c, _)| (std::cmp::Reverse(*score), c.spec.name.clone()));
    let mut written = Vec::new();
    for (rank, (_, _, artifact)) in survivors.into_iter().take(opts.top).enumerate() {
        let codec = if rank % 2 == 0 {
            WireCodec::Json
        } else {
            WireCodec::Binary
        };
        written.push(artifact.write_to_dir(&opts.out, codec)?);
    }
    Ok(written)
}
