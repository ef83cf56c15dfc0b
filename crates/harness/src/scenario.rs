//! Materializing a [`ScenarioSpec`] into a live ecovisor and tenants.
//!
//! Two halves, deliberately separable:
//!
//! * [`build_ecovisor`] constructs the physical world and **registers**
//!   every tenant (ids are assigned in spec order, so a fresh build
//!   always yields the same [`AppId`]s as the recording run did). The
//!   verifier uses this half alone — replay re-executes recorded
//!   traffic, not drivers.
//! * `build_drivers` constructs the tenants' [`Application`] drivers
//!   (the [`carbon_policies`] §5 suite plus the scripted driver). Only
//!   the recorder needs these.

use carbon_policies::{ArbitrageApp, BatchApp, SparkApp, WebApp};
use container_cop::{AppId, ContainerId, ContainerSpec, CopConfig};
use ecovisor::{
    Application, Ecovisor, EcovisorBuilder, EcovisorClient, EnergyClient, OutboxPolicy,
};
use energy_system::battery::{Battery, BatterySpec};
use simkit::time::{SimDuration, SimTime};
use simkit::trace::Trace;
use simkit::units::{CarbonIntensity, Co2Grams, WattHours, Watts};
use workloads::batch::BatchJob;
use workloads::scaling::LinearScaling;
use workloads::spark::SparkJob;
use workloads::web::WebService;

use crate::error::HarnessError;
use crate::spec::{CarbonSpec, DriverSpec, JobSpec, ScenarioSpec, ScriptPhase, SolarSpec};

/// Builds the physical world a spec describes and registers its tenants.
/// Returns the ecovisor and the tenants' app ids, in spec order.
///
/// # Errors
///
/// [`HarnessError::Spec`] on validation failure,
/// [`HarnessError::Ecovisor`] when registration fails (e.g. the shares
/// oversubscribe the physical system).
pub fn build_ecovisor(spec: &ScenarioSpec) -> Result<(Ecovisor, Vec<AppId>), HarnessError> {
    spec.validate().map_err(HarnessError::Spec)?;

    let mut builder = EcovisorBuilder::new()
        .tick_interval(spec.tick_interval())
        .cluster(CopConfig::microserver_cluster(spec.servers))
        .excess(spec.excess);

    builder = match &spec.carbon {
        CarbonSpec::Constant { grams_per_kwh } => builder.carbon(Trace::constant(*grams_per_kwh)),
        CarbonSpec::Region { region, days, seed } => builder.carbon(
            carbon_intel::generator::CarbonTraceBuilder::new(region.profile())
                .days(*days)
                .seed(*seed)
                .build(),
        ),
        CarbonSpec::Trace(trace) => builder.carbon(trace.clone()),
    };

    builder = match &spec.solar {
        SolarSpec::None => builder,
        SolarSpec::Array(array) => builder.solar(array.build()),
        SolarSpec::Trace(trace) => builder.solar(trace.clone()),
    };

    if let Some(wh) = spec.battery_capacity_wh {
        builder = builder.battery(Battery::new_full(BatterySpec::with_capacity(
            WattHours::new(wh),
        )));
    }

    let mut eco = builder.build();
    // `ECOVISOR_OBS=1` attaches an observability hub to everything the
    // harness builds — recorder, verifier, fuzz days — so the CI
    // obs-smoke job replays the whole corpus with instrumentation live.
    // Metrics are write-only side channels, so attaching one must not
    // change a single artifact byte (`tests/obs_determinism.rs` holds
    // that line).
    if ecovisor::obs::env_enabled() {
        eco.attach_obs(ecovisor::obs::ObsHub::new());
    }
    let mut ids = Vec::with_capacity(spec.tenants.len());
    for tenant in &spec.tenants {
        let id = eco.register_app(&tenant.name, tenant.share)?;
        if let Some(notify) = tenant.notify {
            eco.set_notify_config(id, notify)?;
        }
        if let Some(cap) = tenant.outbox_cap {
            eco.set_outbox_policy(id, OutboxPolicy::with_cap(cap))?;
        }
        ids.push(id);
    }
    Ok((eco, ids))
}

/// Builds the per-tenant drivers, in spec order. The recorder pairs the
/// result of [`build_ecovisor`] with these and drives them lock-step.
///
/// # Errors
///
/// [`HarnessError::Spec`] when a driver configuration is unbuildable.
pub(crate) fn build_drivers(
    spec: &ScenarioSpec,
) -> Result<Vec<Box<dyn Application>>, HarnessError> {
    spec.tenants
        .iter()
        .map(|t| build_driver(&t.name, &t.driver, spec))
        .collect()
}

fn build_driver(
    name: &str,
    driver: &DriverSpec,
    spec: &ScenarioSpec,
) -> Result<Box<dyn Application>, HarnessError> {
    Ok(match driver {
        DriverSpec::Batch {
            job,
            mode,
            baseline_containers,
            container_cores,
            arrival_hours,
        } => {
            let job = match job {
                JobSpec::MlTraining => workloads::mltrain::ml_training_job(),
                JobSpec::Blast => workloads::blast::blast_job(),
                JobSpec::Linear { total_core_hours } => {
                    if *total_core_hours <= 0.0 {
                        return Err(HarnessError::Spec(format!(
                            "tenant `{name}`: linear job needs positive work"
                        )));
                    }
                    BatchJob::new(*total_core_hours, Box::new(LinearScaling))
                }
            };
            Box::new(
                BatchApp::new(name, job, *mode, *baseline_containers, *container_cores)
                    .with_arrival(SimTime::from_secs((arrival_hours * 3600.0) as u64)),
            )
        }
        DriverSpec::Web {
            service_rate,
            workload,
            policy,
            slo_ms,
            min_workers,
            max_workers,
        } => Box::new(
            WebApp::new(
                name,
                WebService::new(*service_rate),
                workload.build(),
                *policy,
                *slo_ms,
            )
            .with_worker_bounds(*min_workers, *max_workers),
        ),
        DriverSpec::Spark {
            work_core_hours,
            checkpoint_minutes,
            mode,
            guaranteed_watts,
        } => {
            if *work_core_hours <= 0.0 || *checkpoint_minutes == 0 {
                return Err(HarnessError::Spec(format!(
                    "tenant `{name}`: spark job needs positive work and checkpoint interval"
                )));
            }
            Box::new(SparkApp::new(
                name,
                SparkJob::new(
                    *work_core_hours,
                    SimDuration::from_minutes(*checkpoint_minutes),
                ),
                *mode,
                Watts::new(*guaranteed_watts),
            ))
        }
        DriverSpec::Arbitrage {
            containers,
            low_g_per_kwh,
            high_g_per_kwh,
            charge_watts,
        } => {
            if low_g_per_kwh >= high_g_per_kwh {
                return Err(HarnessError::Spec(format!(
                    "tenant `{name}`: arbitrage thresholds must be ordered low < high"
                )));
            }
            Box::new(ArbitrageApp::new(
                name,
                *containers,
                CarbonIntensity::new(*low_g_per_kwh),
                CarbonIntensity::new(*high_g_per_kwh),
                Watts::new(*charge_watts),
            ))
        }
        DriverSpec::Scripted {
            containers,
            phases,
            budget_grams,
            budget_at_tick,
        } => {
            if phases.is_empty() {
                return Err(HarnessError::Spec(format!(
                    "tenant `{name}`: scripted driver needs at least one phase"
                )));
            }
            if phases.iter().any(|p| p.ticks == 0) {
                return Err(HarnessError::Spec(format!(
                    "tenant `{name}`: scripted phases need non-zero duration"
                )));
            }
            let _ = spec;
            Box::new(ScriptedApp {
                label: name.to_string(),
                containers: *containers,
                phases: phases.clone(),
                budget_grams: *budget_grams,
                budget_at_tick: *budget_at_tick,
                fleet: Vec::new(),
                tick: 0,
            })
        }
    })
}

/// The harness-native deterministic driver: a fixed fleet cycling
/// through scripted demand/battery phases (see
/// [`DriverSpec::Scripted`]).
struct ScriptedApp {
    label: String,
    containers: u32,
    phases: Vec<ScriptPhase>,
    budget_grams: Option<f64>,
    budget_at_tick: u64,
    fleet: Vec<ContainerId>,
    tick: u64,
}

impl ScriptedApp {
    /// The phase active at `tick` (the cycle wraps).
    fn phase_at(&self, tick: u64) -> &ScriptPhase {
        let cycle: u64 = self.phases.iter().map(|p| p.ticks).sum();
        let mut offset = tick % cycle.max(1);
        for phase in &self.phases {
            if offset < phase.ticks {
                return phase;
            }
            offset -= phase.ticks;
        }
        self.phases.last().expect("validated non-empty")
    }
}

impl Application for ScriptedApp {
    fn label(&self) -> &str {
        &self.label
    }

    fn on_start(&mut self, api: &mut EcovisorClient<'_>) {
        for _ in 0..self.containers {
            if let Ok(id) = api.launch_container(ContainerSpec::quad_core()) {
                self.fleet.push(id);
            }
        }
    }

    fn on_tick(&mut self, api: &mut EcovisorClient<'_>) {
        let tick = self.tick;
        self.tick += 1;
        if let Some(grams) = self.budget_grams {
            if tick == self.budget_at_tick {
                api.set_carbon_budget(Some(Co2Grams::new(grams)));
            }
        }
        let phase = *self.phase_at(tick);
        api.set_battery_charge_rate(Watts::new(phase.charge_watts));
        api.set_battery_max_discharge(Watts::new(phase.max_discharge_watts));
        for &c in &self.fleet {
            let _ = api.set_container_demand(c, phase.demand.clamp(0.0, 1.0));
        }
    }
}
