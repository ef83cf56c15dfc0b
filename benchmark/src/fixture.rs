//! The seeded world the wire workloads run against, and the request
//! frames each workload sends.
//!
//! Everything here is derived from `--seed` through `simkit`'s RNG and
//! handed to the ecovisor as request batches: the server child and the
//! in-process reference build the same world from the same seed, and
//! the program never sees the seed itself.

use container_cop::{AppId, ContainerId, ContainerSpec};
use ecoharness::{
    build_ecovisor, CarbonSpec, DriverSpec, ScenarioSpec, ScriptPhase, SolarSpec, TenantSpec,
    SPEC_FORMAT,
};
use ecovisor::proto::{EnergyRequest, EnergyResponse, Frame, RequestBatch};
use ecovisor::{Ecovisor, EnergyShare, EventFilter, ExcessPolicy, ShardedEcovisor, WireCodec};
use simkit::rng::SimRng;
use simkit::time::{SimDuration, SimTime};
use simkit::trace::{Extend, Trace};
use simkit::units::{CarbonRate, WattHours, Watts};

use crate::Workload;

pub const TENANTS: usize = 64;
pub const CONTAINERS_PER_TENANT: usize = 4;
/// Frames written before the first response is read (closed loop,
/// depth 16).
pub const BURST: usize = 16;
/// `wire-control` setter values repeat with this period, so a round's
/// frames are a function of `round % CONTROL_PHASES`.
pub const CONTROL_PHASES: usize = 8;
/// Ticks settled while the world is built, so telemetry queries
/// integrate over recorded samples instead of an empty store.
const WARM_TICKS: u64 = 8;
const TICK_MINUTES: u64 = 1;
const SOLAR_WATTS: f64 = 2_000.0;
const BATTERY_WH: f64 = 6_400.0;

/// One registered tenant and the containers it launched.
#[derive(Debug, Clone, PartialEq)]
pub struct Tenant {
    pub app: AppId,
    pub containers: Vec<ContainerId>,
}

/// The scenario every wire workload serves: 64 tenants with seeded
/// solar and battery shares on a 256-microserver cluster, under a grid
/// carbon signal that alternates clean/dirty each tick so that every
/// settlement raises a `CarbonChange` for every tenant.
pub fn spec(seed: u64) -> ScenarioSpec {
    let mut rng = SimRng::from_seed(seed).fork("shares");
    let weights: Vec<f64> = (0..TENANTS).map(|_| rng.uniform(0.5, 1.5)).collect();
    let total: f64 = weights.iter().sum();
    let dt = SimDuration::from_minutes(TICK_MINUTES);
    let tenants = weights
        .iter()
        .enumerate()
        .map(|(i, w)| {
            // Shares sum to 0.9 of the physical system: never
            // oversubscribed, whatever the seed.
            let part = 0.9 * w / total;
            TenantSpec::new(
                format!("tenant-{i}"),
                EnergyShare::grid_only()
                    .with_solar_fraction(part)
                    .with_battery(WattHours::new(BATTERY_WH * part))
                    .with_initial_soc(0.6),
                // `build_ecovisor` only registers tenants; the driver
                // is never instantiated.
                DriverSpec::Scripted {
                    containers: CONTAINERS_PER_TENANT as u32,
                    phases: vec![ScriptPhase {
                        ticks: 1,
                        demand: 1.0,
                        charge_watts: 0.0,
                        max_discharge_watts: 0.0,
                    }],
                    budget_grams: None,
                    budget_at_tick: 0,
                },
            )
        })
        .collect();
    ScenarioSpec {
        format: SPEC_FORMAT,
        name: "bench-wire".into(),
        description: "64 tenants x 4 quad-core containers, alternating carbon".into(),
        seed,
        ticks: 1,
        tick_minutes: TICK_MINUTES,
        servers: (TENANTS * CONTAINERS_PER_TENANT) as u32,
        excess: ExcessPolicy::Curtail,
        carbon: CarbonSpec::Trace(
            Trace::from_samples(vec![100.0, 400.0], dt).with_extend(Extend::Cycle),
        ),
        solar: SolarSpec::Trace(Trace::constant(SOLAR_WATTS)),
        battery_capacity_wh: Some(BATTERY_WH),
        tenants,
        credentials: Vec::new(),
        restore: None,
        migration: None,
    }
}

/// Settles one tick on an exclusively held ecovisor.
pub fn settle(eco: &mut Ecovisor) {
    eco.begin_tick();
    eco.settle_tick();
    eco.advance_clock();
}

/// Builds the world: registers the tenants, launches and loads their
/// containers through ordinary request batches, and settles
/// [`WARM_TICKS`] ticks.
///
/// # Panics
///
/// When the world cannot be built: the spec is generated, so that is a
/// bug in this file, not an input error.
pub fn build(seed: u64) -> (Ecovisor, Vec<Tenant>) {
    let (mut eco, apps) = build_ecovisor(&spec(seed)).expect("generated spec builds");
    let mut rng = SimRng::from_seed(seed).fork("demand");
    let tenants: Vec<Tenant> = apps
        .into_iter()
        .map(|app| {
            let launch = vec![
                EnergyRequest::LaunchContainer {
                    spec: ContainerSpec::quad_core(),
                };
                CONTAINERS_PER_TENANT
            ];
            let containers: Vec<ContainerId> = eco
                .dispatch_batch(&RequestBatch::new(app, launch))
                .responses
                .into_iter()
                .map(EnergyResponse::expect_container)
                .collect();
            let mut load: Vec<EnergyRequest> = containers
                .iter()
                .map(|&container| EnergyRequest::SetContainerDemand {
                    container,
                    demand: rng.uniform(0.3, 1.0),
                })
                .collect();
            load.push(EnergyRequest::SetBatteryChargeRate {
                rate: Watts::new(rng.uniform(0.0, 10.0)),
            });
            load.push(EnergyRequest::SetBatteryMaxDischarge {
                rate: Watts::new(rng.uniform(5.0, 50.0)),
            });
            let acks = eco.dispatch_batch(&RequestBatch::new(app, load));
            assert!(acks.responses.iter().all(|r| !r.is_err()), "{acks:?}");
            Tenant { app, containers }
        })
        .collect();
    for _ in 0..WARM_TICKS {
        settle(&mut eco);
    }
    (eco, tenants)
}

/// [`ecovisor::digest`] of every tenant's cumulative totals, in app-id
/// order: the one integer the server child and the reference compare.
pub fn totals_digest(eco: &Ecovisor) -> u64 {
    let totals: Vec<_> = eco
        .app_ids()
        .into_iter()
        .map(|app| (app, eco.app_totals(app).expect("listed app is registered")))
        .collect();
    ecovisor::digest(&totals)
}

/// One connection's traffic: `phases[p]` is the burst (of [`BURST`]
/// batches) it repeats during phase `p`. Query workloads have a single
/// phase; `wire-control` has [`CONTROL_PHASES`].
#[derive(Debug, Clone)]
pub struct ConnPlan {
    pub tenant: Tenant,
    pub phases: Vec<Vec<RequestBatch>>,
}

/// The query kinds `wire-poll` cycles through, one per frame.
fn poll_pool(t: &Tenant) -> Vec<EnergyRequest> {
    use EnergyRequest::*;
    vec![
        GetGridCarbon,
        GetSolarPower,
        GetGridPower,
        GetBatteryChargeLevel,
        GetBatteryDischargeRate,
        GetAppPower,
        GetEffectiveCores,
        GetAppCarbon,
        GetTime,
        GetContainerPower {
            container: t.containers[0],
        },
    ]
}

/// A seeded query over the telemetry the warm ticks recorded.
fn bulk_query(rng: &mut SimRng, t: &Tenant) -> EnergyRequest {
    use EnergyRequest::*;
    let container = t.containers[rng.uniform_u64(0, CONTAINERS_PER_TENANT as u64) as usize];
    let from = SimTime::from_secs(60 * rng.uniform_u64(0, WARM_TICKS / 2));
    let to = SimTime::from_secs(60 * rng.uniform_u64(WARM_TICKS / 2, WARM_TICKS + 1));
    match rng.uniform_u64(0, 12) {
        0 => GetContainerPower { container },
        1 => GetContainerEnergy {
            container,
            from,
            to,
        },
        2 => GetContainerCarbon {
            container,
            from,
            to,
        },
        3 => GetContainerEffectiveCores { container },
        4 => GetContainerPowercap { container },
        5 => GetAppPower,
        6 => GetAppEnergy { from, to },
        7 => GetAppCarbon,
        8 => GetAppCarbonBetween { from, to },
        9 => GetEffectiveCores,
        10 => GetSolarPower,
        _ => GetBatteryChargeLevel,
    }
}

/// Six idempotent setters, then two getters that read two of them back:
/// the responses are a function of the phase alone, whatever tick the
/// batch lands in.
fn control_batch(rng: &mut SimRng, t: &Tenant, phase: usize) -> Vec<EnergyRequest> {
    use EnergyRequest::*;
    let level = (phase + 1) as f64 / CONTROL_PHASES as f64;
    let pick =
        |rng: &mut SimRng| t.containers[rng.uniform_u64(0, CONTAINERS_PER_TENANT as u64) as usize];
    let capped = pick(rng);
    vec![
        SetBatteryChargeRate {
            rate: Watts::new(rng.uniform(0.0, 20.0) * level),
        },
        SetBatteryMaxDischarge {
            rate: Watts::new(5.0 + rng.uniform(0.0, 40.0) * level),
        },
        SetContainerPowercap {
            container: capped,
            cap: Watts::new(2.0 + 3.0 * level + rng.uniform(0.0, 1.0)),
        },
        SetContainerDemand {
            container: pick(rng),
            demand: rng.uniform(0.2, 1.0),
        },
        SetContainerDemand {
            container: pick(rng),
            demand: rng.uniform(0.2, 1.0),
        },
        SetCarbonRate {
            rate: Some(CarbonRate::from_milligrams_per_sec(
                5.0 + rng.uniform(0.0, 20.0) * level,
            )),
        },
        GetContainerPowercap { container: capped },
        GetCarbonRateLimit,
    ]
}

/// Requests per batch of a workload.
pub fn batch_len(workload: Workload) -> usize {
    match workload {
        Workload::WirePoll => 1,
        Workload::WireBulk => 128,
        Workload::WireControl => 8,
        Workload::SimDay => 0,
    }
}

/// The frames each of `conns` connections sends, connection `i` pinned
/// to a seeded tenant of its own.
pub fn plan(workload: Workload, seed: u64, tenants: &[Tenant], conns: usize) -> Vec<ConnPlan> {
    let root = SimRng::from_seed(seed).fork(workload.name());
    // A seeded choice of distinct tenants: a stride walk from a seeded
    // start (64 is a power of two, so any odd stride visits all).
    let mut pick = root.fork("tenants");
    let start = pick.uniform_u64(0, TENANTS as u64) as usize;
    let stride = 2 * pick.uniform_u64(0, TENANTS as u64 / 2) as usize + 1;
    (0..conns)
        .map(|i| {
            let tenant = tenants[(start + i * stride) % TENANTS].clone();
            let mut rng = root.fork_indexed("conn", i as u64);
            let phases = match workload {
                Workload::WirePoll => {
                    let pool = poll_pool(&tenant);
                    let offset = rng.uniform_u64(0, pool.len() as u64) as usize;
                    vec![(0..BURST)
                        .map(|f| vec![pool[(offset + f) % pool.len()].clone()])
                        .collect::<Vec<_>>()]
                }
                Workload::WireBulk => vec![(0..BURST)
                    .map(|_| {
                        (0..batch_len(workload))
                            .map(|_| bulk_query(&mut rng, &tenant))
                            .collect()
                    })
                    .collect()],
                Workload::WireControl => (0..CONTROL_PHASES)
                    .map(|p| {
                        (0..BURST)
                            .map(|_| control_batch(&mut rng, &tenant, p))
                            .collect()
                    })
                    .collect(),
                Workload::SimDay => Vec::new(),
            };
            ConnPlan {
                phases: phases
                    .into_iter()
                    .map(|burst: Vec<Vec<EnergyRequest>>| {
                        burst
                            .into_iter()
                            .map(|requests| RequestBatch::new(tenant.app, requests))
                            .collect()
                    })
                    .collect(),
                tenant,
            }
        })
        .collect()
}

/// Prefixes a payload with its `u32` little-endian length (the
/// transport frame of `docs/PROTOCOL.md`).
pub fn framed(payload: &[u8]) -> Vec<u8> {
    let len = u32::try_from(payload.len()).expect("frame fits the u32 length prefix");
    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(payload);
    out
}

pub fn encode_request(batch: &RequestBatch) -> Vec<u8> {
    WireCodec::Binary.encode(&Frame::Request(batch.clone()))
}

/// One burst as the generator's hot loop uses it: the request frames
/// concatenated, and the payload each response must equal.
#[derive(Debug, Clone)]
pub struct EncodedBurst {
    pub wire: Vec<u8>,
    pub responses: Vec<Vec<u8>>,
    pub requests: usize,
}

/// A connection's phases, pre-encoded before any window opens.
#[derive(Debug, Clone)]
pub struct EncodedConn {
    pub app: AppId,
    pub phases: Vec<EncodedBurst>,
}

/// The subscription frame a `wire-control` connection opens with.
pub fn subscribe_batch(app: AppId) -> RequestBatch {
    RequestBatch::new(
        app,
        vec![EnergyRequest::SubscribeEvents {
            filter: EventFilter::all(),
        }],
    )
}

/// Encodes every burst and computes its reference responses by
/// dispatching the same batches in process on `eco`, a world built as
/// the server child builds its own: one round (phase burst, then a
/// tick) per phase.
pub fn encode(plans: &[ConnPlan], eco: Ecovisor) -> Vec<EncodedConn> {
    let shared = ShardedEcovisor::new(eco);
    let phase_count = plans.first().map_or(0, |p| p.phases.len());
    let mut out: Vec<EncodedConn> = plans
        .iter()
        .map(|p| EncodedConn {
            app: p.tenant.app,
            phases: Vec::with_capacity(phase_count),
        })
        .collect();
    for phase in 0..phase_count {
        for (plan, enc) in plans.iter().zip(out.iter_mut()) {
            let burst = &plan.phases[phase];
            let mut wire = Vec::new();
            let mut responses = Vec::with_capacity(burst.len());
            for batch in burst {
                wire.extend_from_slice(&framed(&encode_request(batch)));
                let response = shared.dispatch_batch(batch);
                assert!(
                    response.responses.iter().all(|r| !r.is_err()),
                    "workloads are chosen so that no operation fails: {response:?}"
                );
                responses.push(WireCodec::Binary.encode(&Frame::Response(response)));
            }
            enc.phases.push(EncodedBurst {
                wire,
                responses,
                requests: burst.iter().map(|b| b.requests.len()).sum(),
            });
        }
        if phase_count > 1 {
            shared.tick();
        }
    }
    out
}
