//! The builtin scenario corpus: a dozen diverse recorded days.
//!
//! Each builtin is a deterministic [`ScenarioSpec`] chosen to exercise a
//! distinct slice of the system — solar regimes (clear vs. overcast),
//! carbon regions (flat Ontario vs. volatile CAISO), the §5 policy
//! families (batch suspend/scale, web autoscaling, checkpointing,
//! arbitrage), genuinely mixed multi-tenant days, and the
//! budget-exhaustion enforcement edge. `ecoharness record` serializes
//! them into the committed `corpus/` directory; `ecoharness verify`
//! replays those artifacts on every CI push.
//!
//! Builtins are parameterized by a master seed (the committed corpus
//! uses each scenario's default), with per-builder seeds derived from
//! it, so tests can re-roll a whole scenario from one knob.

use carbon_intel::RegionKind;
use carbon_policies::{BatchMode, SparkMode, WebPolicy};
use ecovisor::{EnergyShare, ExcessPolicy, NotifyConfig, WireCodec};
use energy_system::solar::{SolarArrayBuilder, Weather};
use simkit::units::{CarbonIntensity, CarbonRate, WattHours, Watts};
use workloads::traces::WorkloadTraceBuilder;

use crate::spec::{
    CarbonSpec, DriverSpec, JobSpec, ScenarioSpec, ScriptPhase, SolarSpec, TenantSpec, SPEC_FORMAT,
};

/// Everything the catalogue knows about one builtin by name.
struct Builtin {
    name: &'static str,
    /// The default (committed-corpus) master seed.
    seed: u64,
    build: fn(u64) -> ScenarioSpec,
    /// Checkpoint cadence, in ticks, of the committed artifact.
    checkpoint_ticks: Option<u64>,
    /// Encoding of the committed artifact: mixed, so both loaders stay
    /// covered by the corpus.
    codec: WireCodec,
}

/// The catalogue, in catalogue order — the only per-name list: the
/// lookups below read their row, and `ecoharness record` with no
/// arguments reproduces `corpus/` from these rows alone. The two
/// cadences: `batch-checkpoint` every 12 hours, so the day embeds the
/// checkpoint at tick 24 that `batch-checkpoint-resumed` starts from;
/// `restore-under-load` every 12 ticks, which puts one at exactly its
/// restore plan's tick (and more around it).
#[rustfmt::skip] // a table: one row per line
const CATALOGUE: [Builtin; 11] = {
    use WireCodec::{Binary, Json};
    [
        Builtin { name: "sunny-batch",        seed: 0x5EED_0001, build: sunny_batch,        checkpoint_ticks: None,     codec: Json },
        Builtin { name: "cloudy-web",         seed: 0x5EED_0002, build: cloudy_web,         checkpoint_ticks: None,     codec: Binary },
        Builtin { name: "caiso-arbitrage",    seed: 0x5EED_0003, build: caiso_arbitrage,    checkpoint_ticks: None,     codec: Json },
        Builtin { name: "batch-checkpoint",   seed: 0x5EED_0004, build: batch_checkpoint,   checkpoint_ticks: Some(24), codec: Binary },
        Builtin { name: "web-autoscale",      seed: 0x5EED_0005, build: web_autoscale,      checkpoint_ticks: None,     codec: Binary },
        Builtin { name: "mixed-tenants",      seed: 0x5EED_0006, build: mixed_tenants,      checkpoint_ticks: None,     codec: Binary },
        Builtin { name: "budget-exhaustion",  seed: 0x5EED_0007, build: budget_exhaustion,  checkpoint_ticks: None,     codec: Json },
        Builtin { name: "thousand-tenants",   seed: 0x5EED_0008, build: thousand_tenants,   checkpoint_ticks: None,     codec: Binary },
        Builtin { name: "credential-churn",   seed: 0x5EED_0009, build: credential_churn,   checkpoint_ticks: None,     codec: Json },
        Builtin { name: "restore-under-load", seed: 0x5EED_000A, build: restore_under_load, checkpoint_ticks: Some(12), codec: Binary },
        Builtin { name: "split-brain",        seed: 0x5EED_000B, build: split_brain,        checkpoint_ticks: None,     codec: Json },
    ]
};

fn row(name: &str) -> Option<&'static Builtin> {
    CATALOGUE.iter().find(|b| b.name == name)
}

/// Names of every builtin scenario, in catalogue order.
pub fn names() -> Vec<&'static str> {
    CATALOGUE.iter().map(|b| b.name).collect()
}

/// Every builtin scenario at its default seed, in catalogue order.
pub fn all() -> Vec<ScenarioSpec> {
    CATALOGUE.iter().map(|b| (b.build)(b.seed)).collect()
}

/// A builtin scenario by name, at its default seed.
pub fn builtin(name: &str) -> Option<ScenarioSpec> {
    builtin_with_seed(name, default_seed(name)?)
}

/// The default (committed-corpus) master seed of a builtin.
pub fn default_seed(name: &str) -> Option<u64> {
    row(name).map(|b| b.seed)
}

/// The checkpoint cadence (in ticks) a builtin's committed artifact is
/// recorded with, when it embeds checkpoints. `ecoharness record`
/// applies this unless `--checkpoint-every` overrides it.
pub fn default_checkpoint_ticks(name: &str) -> Option<u64> {
    row(name)?.checkpoint_ticks
}

/// The encoding a builtin's committed artifact is written in.
/// `ecoharness record` applies this unless `--codec` overrides it.
pub fn default_codec(name: &str) -> Option<WireCodec> {
    row(name).map(|b| b.codec)
}

/// A builtin scenario re-rolled from an explicit master seed (tests use
/// this to cover many seeds of the same shape).
pub fn builtin_with_seed(name: &str, seed: u64) -> Option<ScenarioSpec> {
    row(name).map(|b| (b.build)(seed))
}

/// Derives a sub-seed for one component from the master seed
/// (SplitMix64 step keyed by a component index).
fn sub_seed(master: u64, index: u64) -> u64 {
    let mut z = master.wrapping_add(0x9E37_79B9_7F4A_7C15_u64.wrapping_mul(index.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn base(name: &str, description: &str, seed: u64, ticks: u64) -> ScenarioSpec {
    ScenarioSpec {
        format: SPEC_FORMAT,
        name: name.into(),
        description: description.into(),
        seed,
        ticks,
        tick_minutes: 30,
        servers: 8,
        excess: ExcessPolicy::Curtail,
        carbon: CarbonSpec::Constant {
            grams_per_kwh: 200.0,
        },
        solar: SolarSpec::None,
        battery_capacity_wh: None,
        tenants: Vec::new(),
        credentials: Vec::new(),
        restore: None,
        migration: None,
    }
}

/// Clear-sky solar over a flat low-carbon grid (Ontario): two batch
/// tenants, Wait&Scale vs. carbon-agnostic, splitting the array.
fn sunny_batch(seed: u64) -> ScenarioSpec {
    let mut spec = base(
        "sunny-batch",
        "Clear-sky solar day over the flat Ontario grid: Wait&Scale vs. carbon-agnostic \
         batch tenants splitting one array",
        seed,
        48,
    );
    spec.carbon = CarbonSpec::Region {
        region: RegionKind::Ontario,
        days: 2,
        seed: sub_seed(seed, 0),
    };
    spec.solar = SolarSpec::Array(
        SolarArrayBuilder::new(120.0)
            .days(2)
            .weather(Weather::Clear)
            .seed(sub_seed(seed, 1)),
    );
    spec.tenants = vec![
        TenantSpec::new(
            "waitscale",
            EnergyShare::grid_only()
                .with_solar_fraction(0.5)
                .with_battery(WattHours::new(12.0))
                .with_initial_soc(0.5),
            DriverSpec::Batch {
                // Sized to fill most of the day at the baseline
                // allocation (the paper's ML/BLAST jobs finish in 0.3-2.5
                // baseline-hours -- too short to pin a whole day).
                job: JobSpec::Linear {
                    total_core_hours: 56.0,
                },
                mode: BatchMode::WaitAndScale {
                    threshold: CarbonIntensity::new(36.0),
                    scale: 2,
                },
                baseline_containers: 1,
                container_cores: 4,
                arrival_hours: 1.0,
            },
        ),
        TenantSpec::new(
            "agnostic",
            EnergyShare::grid_only().with_solar_fraction(0.3),
            DriverSpec::Batch {
                job: JobSpec::Linear {
                    total_core_hours: 120.0,
                },
                mode: BatchMode::CarbonAgnostic,
                baseline_containers: 2,
                container_cores: 4,
                arrival_hours: 0.5,
            },
        ),
    ];
    spec
}

/// Overcast solar over the hydro/wind Uruguay grid: one web service on
/// a dynamic carbon budget, riding a small battery through cloud cover.
fn cloudy_web(seed: u64) -> ScenarioSpec {
    let mut spec = base(
        "cloudy-web",
        "Heavily overcast solar over the Uruguay grid: a diurnal web service on a \
         dynamic carbon budget with a small battery",
        seed,
        48,
    );
    spec.carbon = CarbonSpec::Region {
        region: RegionKind::Uruguay,
        days: 2,
        seed: sub_seed(seed, 0),
    };
    spec.solar = SolarSpec::Array(
        SolarArrayBuilder::new(200.0)
            .days(2)
            .weather(Weather::Overcast)
            .seed(sub_seed(seed, 1)),
    );
    let mut tenant = TenantSpec::new(
        "webshop",
        EnergyShare::grid_only()
            .with_solar_fraction(0.6)
            .with_battery(WattHours::new(20.0))
            .with_initial_soc(0.6),
        DriverSpec::Web {
            service_rate: 40.0,
            workload: WorkloadTraceBuilder::new(20.0, 120.0)
                .days(2)
                .seed(sub_seed(seed, 2))
                .spikes(0.05, 0.6),
            policy: WebPolicy::DynamicBudget {
                target_rate: CarbonRate::new(0.0008),
                slo_ms: 250.0,
            },
            slo_ms: 250.0,
            min_workers: 1,
            max_workers: 8,
        },
    );
    // Low thresholds: overcast scatter should generate plenty of solar
    // events for the replay to reproduce.
    tenant.notify = Some(NotifyConfig {
        solar_change_fraction: 0.10,
        solar_change_floor: Watts::new(0.5),
        carbon_change_fraction: 0.10,
    });
    spec.tenants = vec![tenant];
    spec
}

/// No solar, the volatile CAISO signal: a carbon-arbitrage battery
/// tenant against a scripted steady tenant.
fn caiso_arbitrage(seed: u64) -> ScenarioSpec {
    let mut spec = base(
        "caiso-arbitrage",
        "Volatile CAISO carbon, no solar: battery arbitrage (charge clean, discharge \
         dirty) next to a steady scripted tenant",
        seed,
        64,
    );
    spec.carbon = CarbonSpec::Region {
        region: RegionKind::California,
        days: 2,
        seed: sub_seed(seed, 0),
    };
    spec.tenants = vec![
        TenantSpec::new(
            "arbitrage",
            EnergyShare::grid_only()
                .with_battery(WattHours::new(60.0))
                .with_initial_soc(0.35),
            DriverSpec::Arbitrage {
                containers: 3,
                low_g_per_kwh: 140.0,
                high_g_per_kwh: 240.0,
                charge_watts: 40.0,
            },
        ),
        TenantSpec::new(
            "steady",
            EnergyShare::grid_only(),
            DriverSpec::Scripted {
                containers: 2,
                phases: vec![ScriptPhase {
                    ticks: 1,
                    demand: 0.7,
                    charge_watts: 0.0,
                    max_discharge_watts: 0.0,
                }],
                budget_grams: None,
                budget_at_tick: 0,
            },
        ),
    ];
    spec
}

/// Two mixed-weather days: a delay-tolerant Spark job with HDFS-style
/// checkpointing scaling into excess solar (§5.3).
fn batch_checkpoint(seed: u64) -> ScenarioSpec {
    let mut spec = base(
        "batch-checkpoint",
        "Two mixed-weather days: a checkpointing Spark job on dynamic solar scale-up, \
         riding its battery overnight",
        seed,
        96,
    );
    spec.carbon = CarbonSpec::Constant {
        grams_per_kwh: 250.0,
    };
    spec.solar = SolarSpec::Array(
        SolarArrayBuilder::new(90.0)
            .days(3)
            .weather(Weather::Mixed)
            .seed(sub_seed(seed, 1)),
    );
    spec.tenants = vec![TenantSpec::new(
        "spark",
        EnergyShare::grid_only()
            .with_solar_fraction(0.8)
            .with_battery(WattHours::new(40.0))
            .with_initial_soc(0.5),
        DriverSpec::Spark {
            work_core_hours: 300.0,
            checkpoint_minutes: 60,
            mode: SparkMode::DynamicSolar {
                base_workers: 1,
                max_workers: 6,
            },
            guaranteed_watts: 8.0,
        },
    )];
    spec
}

/// The §5.2 comparison day: static rate-limiting vs. dynamic budgeting
/// web tenants over the same diurnal workload shape on CAISO carbon.
fn web_autoscale(seed: u64) -> ScenarioSpec {
    let mut spec = base(
        "web-autoscale",
        "CAISO carbon, no solar: static carbon-rate-limited web service vs. the \
         SLO-driven dynamic-budget autoscaler over one diurnal workload day",
        seed,
        48,
    );
    spec.servers = 12;
    spec.carbon = CarbonSpec::Region {
        region: RegionKind::California,
        days: 2,
        seed: sub_seed(seed, 0),
    };
    let workload = |s: u64| {
        WorkloadTraceBuilder::new(30.0, 150.0)
            .days(2)
            .seed(s)
            .peak_hour(13.0)
    };
    spec.tenants = vec![
        TenantSpec::new(
            "static-rate",
            EnergyShare::grid_only(),
            DriverSpec::Web {
                service_rate: 40.0,
                workload: workload(sub_seed(seed, 2)),
                policy: WebPolicy::StaticRateLimit {
                    rate: CarbonRate::new(0.0010),
                },
                slo_ms: 300.0,
                min_workers: 1,
                max_workers: 10,
            },
        ),
        TenantSpec::new(
            "dynamic-budget",
            EnergyShare::grid_only(),
            DriverSpec::Web {
                service_rate: 40.0,
                workload: workload(sub_seed(seed, 3)),
                policy: WebPolicy::DynamicBudget {
                    target_rate: CarbonRate::new(0.0010),
                    slo_ms: 300.0,
                },
                slo_ms: 300.0,
                min_workers: 1,
                max_workers: 10,
            },
        ),
    ];
    spec
}

/// The kitchen-sink day: four tenants across all policy families on a
/// mixed-weather array and CAISO carbon — the closest thing in the
/// corpus to a production multi-tenant deployment.
fn mixed_tenants(seed: u64) -> ScenarioSpec {
    let mut spec = base(
        "mixed-tenants",
        "Four tenants (suspend/resume batch, dynamic web, arbitrage, scripted with a \
         tiny bounded outbox) sharing mixed-weather solar on CAISO carbon",
        seed,
        48,
    );
    spec.servers = 12;
    spec.excess = ExcessPolicy::Redistribute;
    spec.carbon = CarbonSpec::Region {
        region: RegionKind::California,
        days: 2,
        seed: sub_seed(seed, 0),
    };
    spec.solar = SolarSpec::Array(
        SolarArrayBuilder::new(150.0)
            .days(2)
            .weather(Weather::Mixed)
            .seed(sub_seed(seed, 1)),
    );
    let mut scripted = TenantSpec::new(
        "scripted",
        EnergyShare::grid_only()
            .with_solar_fraction(0.2)
            .with_battery(WattHours::new(10.0))
            .with_initial_soc(0.4),
        DriverSpec::Scripted {
            containers: 2,
            phases: vec![
                ScriptPhase {
                    ticks: 6,
                    demand: 0.1,
                    charge_watts: 50.0,
                    max_discharge_watts: 0.0,
                },
                ScriptPhase {
                    ticks: 6,
                    demand: 1.0,
                    charge_watts: 0.0,
                    max_discharge_watts: 40.0,
                },
            ],
            budget_grams: None,
            budget_at_tick: 0,
        },
    );
    // Exercise the bounded outbox inside the corpus: a tiny cap with
    // low notify thresholds, so coalescing actually fires and replay
    // must reproduce the coalesced stream.
    scripted.notify = Some(NotifyConfig {
        solar_change_fraction: 0.05,
        solar_change_floor: Watts::new(0.2),
        carbon_change_fraction: 0.05,
    });
    scripted.outbox_cap = Some(2);
    spec.tenants = vec![
        TenantSpec::new(
            "suspend-batch",
            EnergyShare::grid_only().with_solar_fraction(0.3),
            DriverSpec::Batch {
                job: JobSpec::Linear {
                    total_core_hours: 90.0,
                },
                mode: BatchMode::SuspendResume {
                    threshold: CarbonIntensity::new(180.0),
                },
                baseline_containers: 2,
                container_cores: 4,
                arrival_hours: 0.0,
            },
        ),
        TenantSpec::new(
            "web",
            EnergyShare::grid_only().with_solar_fraction(0.2),
            DriverSpec::Web {
                service_rate: 35.0,
                workload: WorkloadTraceBuilder::new(15.0, 90.0)
                    .days(2)
                    .seed(sub_seed(seed, 2)),
                policy: WebPolicy::DynamicBudget {
                    target_rate: CarbonRate::new(0.0008),
                    slo_ms: 300.0,
                },
                slo_ms: 300.0,
                min_workers: 1,
                max_workers: 6,
            },
        ),
        TenantSpec::new(
            "arbitrage",
            EnergyShare::grid_only()
                .with_battery(WattHours::new(40.0))
                .with_initial_soc(0.35),
            DriverSpec::Arbitrage {
                containers: 2,
                low_g_per_kwh: 150.0,
                high_g_per_kwh: 260.0,
                charge_watts: 30.0,
            },
        ),
        scripted,
    ];
    spec
}

/// The scale day: a thousand scripted tenants on the volatile CAISO
/// signal — the corpus artifact that exercises the evented transport's
/// multiplexing (one recorded day replayed over a thousand live
/// connections by `ecoharness verify --transport`).
///
/// Event volume is bounded by design: most tenants run with
/// effectively-mute notification thresholds, while a small "chatty"
/// cohort keeps low thresholds and a tiny battery it cycles through
/// full/empty edges, so the recorded push traffic stays diverse
/// without swamping the artifact.
fn thousand_tenants(seed: u64) -> ScenarioSpec {
    const TENANTS: u64 = 1000;
    let mut spec = base(
        "thousand-tenants",
        "The scale day: 1000 scripted tenants on volatile CAISO carbon, a chatty \
         battery-cycling cohort among a muted crowd — the evented-transport \
         multiplexing artifact",
        seed,
        12,
    );
    // A full day in 2-hour ticks: long enough for carbon swings and
    // battery cycles, short enough to keep 1000 tenants' wire traffic
    // committable.
    spec.tick_minutes = 120;
    // One quad-core container per tenant; each fills one microserver.
    spec.servers = TENANTS as u32;
    spec.carbon = CarbonSpec::Region {
        region: RegionKind::California,
        days: 2,
        seed: sub_seed(seed, 0),
    };
    // Mute thresholds: relative swings this large never happen, so the
    // crowd generates no level events (edge events still fire).
    let muted = NotifyConfig {
        solar_change_fraction: 0.95,
        solar_change_floor: Watts::new(1e9),
        carbon_change_fraction: 0.95,
    };
    let chatty_notify = NotifyConfig {
        solar_change_fraction: 0.10,
        solar_change_floor: Watts::new(0.5),
        carbon_change_fraction: 0.08,
    };
    spec.tenants = (0..TENANTS)
        .map(|i| {
            let roll = sub_seed(seed, 100 + i);
            let byte = |k: u64| (roll >> (8 * k)) & 0xFF;
            let frac = |k: u64| byte(k) as f64 / 255.0;
            // One in forty tenants is chatty: low notify thresholds and
            // a tiny battery cycled hard enough (at 2-hour ticks) to
            // cross both the full and empty edges.
            let chatty = i % 40 == 0;
            let mut share = EnergyShare::grid_only();
            if chatty {
                share = share
                    .with_battery(WattHours::new(2.0))
                    .with_initial_soc(0.5);
            }
            let phases = vec![
                ScriptPhase {
                    ticks: 1 + byte(0) % 3,
                    demand: 0.2 + frac(1) * 0.7,
                    charge_watts: if chatty { 5.0 } else { 0.0 },
                    max_discharge_watts: 0.0,
                },
                ScriptPhase {
                    ticks: 1 + byte(2) % 3,
                    demand: 0.1 + frac(3) * 0.5,
                    charge_watts: 0.0,
                    max_discharge_watts: if chatty { 5.0 } else { 0.0 },
                },
            ];
            let mut tenant = TenantSpec::new(
                format!("t{i:03}"),
                share,
                DriverSpec::Scripted {
                    containers: 1,
                    phases,
                    // Two tenants arm budgets sized to exhaust mid-day,
                    // so the BudgetExhausted edge is pinned at scale.
                    budget_grams: (i % 500 == 7).then_some(15.0),
                    budget_at_tick: 3,
                },
            );
            tenant.notify = Some(if chatty { chatty_notify } else { muted });
            tenant
        })
        .collect();
    spec
}

/// The credentialed-adversarial day: every tenant authenticates on the
/// wire, and two of them rotate their tokens mid-day *while their
/// connections are live*. Transport verification proves rotation never
/// perturbs an authenticated connection (the day stays bit-identical),
/// that the retired token is rejected on reconnect, and that the new
/// token is accepted — the operational token-cycling story.
fn credential_churn(seed: u64) -> ScenarioSpec {
    let mut spec = base(
        "credential-churn",
        "Credentialed tenants on volatile CAISO carbon; two tokens rotated mid-day \
         under live connections — rotation must not perturb authenticated traffic",
        seed,
        32,
    );
    spec.carbon = CarbonSpec::Region {
        region: RegionKind::California,
        days: 1,
        seed: sub_seed(seed, 0),
    };
    spec.solar = SolarSpec::Array(
        SolarArrayBuilder::new(100.0)
            .days(1)
            .weather(Weather::Mixed)
            .seed(sub_seed(seed, 1)),
    );
    let mut chatty = TenantSpec::new(
        "rotating-web",
        EnergyShare::grid_only()
            .with_solar_fraction(0.5)
            .with_battery(WattHours::new(15.0))
            .with_initial_soc(0.5),
        DriverSpec::Web {
            service_rate: 40.0,
            workload: WorkloadTraceBuilder::new(20.0, 110.0)
                .days(1)
                .seed(sub_seed(seed, 2)),
            policy: WebPolicy::DynamicBudget {
                target_rate: CarbonRate::new(0.0008),
                slo_ms: 300.0,
            },
            slo_ms: 300.0,
            min_workers: 1,
            max_workers: 8,
        },
    );
    // Low thresholds so push frames straddle both rotation points: the
    // reconnected subscriber must pick the stream up without loss.
    chatty.notify = Some(NotifyConfig {
        solar_change_fraction: 0.08,
        solar_change_floor: Watts::new(0.4),
        carbon_change_fraction: 0.08,
    });
    spec.tenants = vec![
        chatty,
        TenantSpec::new(
            "rotating-batch",
            EnergyShare::grid_only().with_solar_fraction(0.3),
            DriverSpec::Batch {
                job: JobSpec::Linear {
                    total_core_hours: 60.0,
                },
                mode: BatchMode::SuspendResume {
                    threshold: CarbonIntensity::new(200.0),
                },
                baseline_containers: 2,
                container_cores: 4,
                arrival_hours: 0.5,
            },
        ),
        TenantSpec::new(
            "stable",
            EnergyShare::grid_only(),
            DriverSpec::Scripted {
                containers: 2,
                phases: vec![ScriptPhase {
                    ticks: 1,
                    demand: 0.6,
                    charge_watts: 0.0,
                    max_discharge_watts: 0.0,
                }],
                budget_grams: None,
                budget_at_tick: 0,
            },
        ),
    ];
    spec.credentials = vec![
        crate::spec::CredentialSpec {
            tenant: "rotating-web".into(),
            token: "web-day-one".into(),
            rotation: Some(crate::spec::CredentialRotation {
                tick: 10,
                token: "web-day-two".into(),
            }),
        },
        crate::spec::CredentialSpec {
            tenant: "rotating-batch".into(),
            token: "batch-day-one".into(),
            rotation: Some(crate::spec::CredentialRotation {
                tick: 21,
                token: "batch-day-two".into(),
            }),
        },
        crate::spec::CredentialSpec {
            tenant: "stable".into(),
            token: "stable-token".into(),
            rotation: None,
        },
    ];
    spec
}

/// The restore-raced-with-dispatch day: the artifact embeds checkpoints
/// (every 12 ticks) and its restore plan pushes the tick-12 checkpoint
/// back into the live server at the start of tick 12 — a
/// state-idempotent restore raced against active dispatch, after first
/// proving a tampered snapshot is rejected with state preserved.
fn restore_under_load(seed: u64) -> ScenarioSpec {
    let mut spec = base(
        "restore-under-load",
        "Checkpointing day whose transport replay pushes the tick-12 snapshot back \
         into the live server mid-dispatch (after a rejected tampered push): restore \
         raced with load must leave the day bit-identical",
        seed,
        36,
    );
    spec.carbon = CarbonSpec::Region {
        region: RegionKind::Ontario,
        days: 1,
        seed: sub_seed(seed, 0),
    };
    spec.solar = SolarSpec::Array(
        SolarArrayBuilder::new(80.0)
            .days(1)
            .weather(Weather::Mixed)
            .seed(sub_seed(seed, 1)),
    );
    let mut spark = TenantSpec::new(
        "spark",
        EnergyShare::grid_only()
            .with_solar_fraction(0.7)
            .with_battery(WattHours::new(25.0))
            .with_initial_soc(0.5),
        DriverSpec::Spark {
            work_core_hours: 120.0,
            checkpoint_minutes: 60,
            mode: SparkMode::DynamicSolar {
                base_workers: 1,
                max_workers: 4,
            },
            guaranteed_watts: 6.0,
        },
    );
    spark.notify = Some(NotifyConfig {
        solar_change_fraction: 0.10,
        solar_change_floor: Watts::new(0.5),
        carbon_change_fraction: 0.10,
    });
    spec.tenants = vec![
        spark,
        TenantSpec::new(
            "churner",
            EnergyShare::grid_only()
                .with_battery(WattHours::new(8.0))
                .with_initial_soc(0.6),
            DriverSpec::Scripted {
                containers: 3,
                phases: vec![
                    ScriptPhase {
                        ticks: 3,
                        demand: 0.9,
                        charge_watts: 0.0,
                        max_discharge_watts: 10.0,
                    },
                    ScriptPhase {
                        ticks: 3,
                        demand: 0.3,
                        charge_watts: 12.0,
                        max_discharge_watts: 0.0,
                    },
                ],
                budget_grams: None,
                budget_at_tick: 0,
            },
        ),
    ];
    // The snapshot/restore admin surface only opens on a credentialed
    // server, so the restore day authenticates everyone (no rotations —
    // that is credential-churn's job).
    spec.credentials = vec![
        crate::spec::CredentialSpec {
            tenant: "spark".into(),
            token: "spark-token".into(),
            rotation: None,
        },
        crate::spec::CredentialSpec {
            tenant: "churner".into(),
            token: "churner-token".into(),
            rotation: None,
        },
    ];
    spec.restore = Some(crate::spec::RestorePlan {
        tick: 12,
        tamper: true,
    });
    spec
}

/// The federation day: three credentialed tenants whose recorded day is
/// replayed split across **two live ecovisor processes**, with the
/// battery-cycling "wanderer" tenant live-migrated between them at tick
/// 16 — mid-day, under live subscribed connections. Servers are
/// generous (16 microservers for ≤7 containers) so capacity never binds
/// on either partial replica, and the low notify thresholds put push
/// frames on both sides of the move: the migration must not lose,
/// duplicate, or reorder a single one.
fn split_brain(seed: u64) -> ScenarioSpec {
    let mut spec = base(
        "split-brain",
        "Federation day on volatile CAISO carbon: the battery-cycling wanderer tenant \
         live-migrates between two ecovisor processes at tick 16, under live \
         connections — the split day must stay bit-identical to one process",
        seed,
        32,
    );
    spec.servers = 16;
    spec.carbon = CarbonSpec::Region {
        region: RegionKind::California,
        days: 1,
        seed: sub_seed(seed, 0),
    };
    spec.solar = SolarSpec::Array(
        SolarArrayBuilder::new(110.0)
            .days(1)
            .weather(Weather::Mixed)
            .seed(sub_seed(seed, 1)),
    );
    let mut wanderer = TenantSpec::new(
        "wanderer",
        EnergyShare::grid_only()
            .with_solar_fraction(0.5)
            .with_battery(WattHours::new(10.0))
            .with_initial_soc(0.5),
        DriverSpec::Scripted {
            containers: 2,
            phases: vec![
                ScriptPhase {
                    ticks: 4,
                    demand: 0.9,
                    charge_watts: 0.0,
                    max_discharge_watts: 12.0,
                },
                ScriptPhase {
                    ticks: 4,
                    demand: 0.3,
                    charge_watts: 15.0,
                    max_discharge_watts: 0.0,
                },
            ],
            budget_grams: None,
            budget_at_tick: 0,
        },
    );
    // Low thresholds: the battery cycle plus mixed-weather solar keeps
    // the wanderer's outbox busy right across the migration tick, so
    // the capture carries pending sequencing state worth preserving.
    wanderer.notify = Some(NotifyConfig {
        solar_change_fraction: 0.08,
        solar_change_floor: Watts::new(0.4),
        carbon_change_fraction: 0.08,
    });
    spec.tenants = vec![
        wanderer,
        TenantSpec::new(
            "anchor-web",
            EnergyShare::grid_only().with_solar_fraction(0.4),
            DriverSpec::Web {
                service_rate: 40.0,
                workload: WorkloadTraceBuilder::new(20.0, 100.0)
                    .days(1)
                    .seed(sub_seed(seed, 2)),
                policy: WebPolicy::DynamicBudget {
                    target_rate: CarbonRate::new(0.0008),
                    slo_ms: 300.0,
                },
                slo_ms: 300.0,
                min_workers: 1,
                max_workers: 4,
            },
        ),
        TenantSpec::new(
            "anchor-batch",
            EnergyShare::grid_only().with_solar_fraction(0.1),
            DriverSpec::Batch {
                job: JobSpec::Linear {
                    total_core_hours: 50.0,
                },
                mode: BatchMode::SuspendResume {
                    threshold: CarbonIntensity::new(220.0),
                },
                baseline_containers: 1,
                container_cores: 4,
                arrival_hours: 0.5,
            },
        ),
    ];
    // The transport cell exercises the spec's own credentials; the
    // federated cell always gates its migration surface behind a
    // synthetic registry, so both replays run authenticated.
    spec.credentials = vec![
        crate::spec::CredentialSpec {
            tenant: "wanderer".into(),
            token: "wanderer-token".into(),
            rotation: None,
        },
        crate::spec::CredentialSpec {
            tenant: "anchor-web".into(),
            token: "anchor-web-token".into(),
            rotation: None,
        },
        crate::spec::CredentialSpec {
            tenant: "anchor-batch".into(),
            token: "anchor-batch-token".into(),
            rotation: None,
        },
    ];
    spec.migration = Some(crate::spec::MigrationPlan {
        tenant: "wanderer".into(),
        tick: 16,
    });
    spec
}

/// The enforcement-edge day: a scripted tenant arms a carbon budget
/// sized to exhaust mid-run, so the artifact pins the
/// `BudgetExhausted` edge, the grid clamp, and post-clamp accounting.
fn budget_exhaustion(seed: u64) -> ScenarioSpec {
    let mut spec = base(
        "budget-exhaustion",
        "A scripted tenant arms a mid-day carbon budget sized to exhaust: pins the \
         BudgetExhausted edge, the grid clamp, and post-clamp solar-only accounting",
        seed,
        36,
    );
    spec.carbon = CarbonSpec::Constant {
        grams_per_kwh: 300.0,
    };
    spec.solar = SolarSpec::Array(
        SolarArrayBuilder::new(60.0)
            .days(2)
            .weather(Weather::Clear)
            .seed(sub_seed(seed, 1)),
    );
    spec.tenants = vec![
        TenantSpec::new(
            "budgeted",
            EnergyShare::grid_only().with_solar_fraction(0.5),
            DriverSpec::Scripted {
                containers: 4,
                phases: vec![ScriptPhase {
                    ticks: 1,
                    demand: 1.0,
                    charge_watts: 0.0,
                    max_discharge_watts: 0.0,
                }],
                budget_grams: Some(20.0),
                budget_at_tick: 6,
            },
        ),
        TenantSpec::new(
            "bystander",
            EnergyShare::grid_only().with_solar_fraction(0.3),
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
            },
        ),
    ];
    spec
}
