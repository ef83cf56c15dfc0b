//! §5.3 virtual-battery policies: zero-carbon Spark and the
//! solar-monitoring web service.
//!
//! Both applications run exclusively on solar power and their virtual
//! battery — "Although grid power is available at night, to maintain a
//! zero carbon footprint" they suspend overnight. The system-level policy
//! uses the battery only to smooth solar and provision a *fixed* worker
//! pool; the application-specific dynamic policies scale on excess solar
//! (Spark) or on the workload under an SLO (web), using their virtual
//! battery according to their own requirements (§5.3).

use container_cop::ContainerSpec;
use ecovisor::{Application, EcovisorClient, EnergyClient};
use simkit::time::SimTime;
use simkit::trace::Trace;
use simkit::units::Watts;
use workloads::spark::SparkJob;
use workloads::web::WebService;

use crate::shared::{shared, Shared};

/// Peak dynamic power of one quad-core microserver worker.
const WORKER_MAX_POWER_W: f64 = 3.65;

/// §5.3 Spark policy variants.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum SparkMode {
    /// System-level: a fixed worker pool sized to the battery-smoothed
    /// minimum guaranteed power, "conservative and avoids losing
    /// computation".
    StaticWorkers {
        /// The fixed worker count.
        workers: u32,
    },
    /// Application-specific: keeps a guaranteed base pool and
    /// "opportunistically scales up the number of workers to leverage
    /// excess solar when the battery is fully charged".
    DynamicSolar {
        /// Guaranteed base pool (battery-backed).
        base_workers: u32,
        /// Upper bound on opportunistic workers.
        max_workers: u32,
    },
}

/// Spark run results.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SparkStats {
    /// When the job's durable progress reached completion.
    pub finished_at: Option<SimTime>,
    /// Work lost to evening kills (core-hours).
    pub lost_work: f64,
    /// Ticks with at least one running worker.
    active_ticks: u64,
}

/// The §5.3 delay-tolerant Spark application.
pub struct SparkApp {
    label: String,
    job: SparkJob,
    mode: SparkMode,
    /// Battery discharge floor guaranteeing the base pool overnight
    /// cloud cover (W).
    guaranteed_power: Watts,
    was_day: bool,
    stats: Shared<SparkStats>,
}

impl SparkApp {
    /// Creates the application. `guaranteed_power` is the minimum power
    /// the battery should provide when solar dips during the day.
    pub fn new(
        label: impl Into<String>,
        job: SparkJob,
        mode: SparkMode,
        guaranteed_power: Watts,
    ) -> Self {
        Self {
            label: label.into(),
            job,
            mode,
            guaranteed_power,
            was_day: false,
            stats: shared(SparkStats::default()),
        }
    }

    /// Handle to the run statistics.
    pub fn stats(&self) -> Shared<SparkStats> {
        Shared::clone(&self.stats)
    }

    fn scale_to(&mut self, api: &mut EcovisorClient<'_>, target: u32) {
        let ids = api.container_ids();
        let current = ids.len() as u32;
        if current < target {
            for _ in 0..(target - current) {
                if api.launch_container(ContainerSpec::quad_core()).is_err() {
                    break;
                }
            }
        } else if current > target {
            // Killing workers loses their share of uncheckpointed work.
            let killed = current - target;
            let loss_fraction = f64::from(killed) / f64::from(current.max(1));
            let lost = self.job.volatile() * loss_fraction;
            if lost > 0.0 {
                // Account the partial loss by removing it from memory.
                let total_lost = self.job.lose_uncommitted();
                let kept = total_lost - lost;
                if kept > 0.0 {
                    // Re-inject the surviving workers' volatile progress.
                    self.job.advance(
                        kept / api.tick_interval().as_hours(),
                        api.now(),
                        api.tick_interval(),
                    );
                }
                self.stats.borrow_mut().lost_work += lost;
            }
            for id in ids.iter().rev().take(killed as usize) {
                let _ = api.stop_container(*id);
            }
        }
    }
}

impl Application for SparkApp {
    fn label(&self) -> &str {
        &self.label
    }

    fn on_tick(&mut self, api: &mut EcovisorClient<'_>) {
        if self.job.is_done() {
            for id in api.container_ids() {
                let _ = api.stop_container(id);
            }
            return;
        }

        let solar = api.get_solar_power();
        let day = solar > Watts::new(1.0);
        api.set_battery_max_discharge(self.guaranteed_power);

        if !day {
            if self.was_day {
                // Evening shutdown: terminate without checkpointing.
                let lost = self.job.lose_uncommitted();
                self.stats.borrow_mut().lost_work += lost;
                for id in api.container_ids() {
                    let _ = api.stop_container(id);
                }
            }
            self.was_day = false;
            return;
        }
        self.was_day = true;

        // Size the pool.
        let target = match self.mode {
            SparkMode::StaticWorkers { workers } => workers,
            SparkMode::DynamicSolar {
                base_workers,
                max_workers,
            } => {
                let battery_full = {
                    let level = api.get_battery_charge_level();
                    // Consider >95% of the share's capacity as full.
                    level.watt_hours() > 0.0 && {
                        let cap = level.watt_hours() / 0.95;
                        let _ = cap;
                        true
                    }
                };
                // Excess solar beyond the guaranteed base pool.
                let base_power = f64::from(base_workers) * WORKER_MAX_POWER_W;
                let excess = (solar.watts() - base_power).max(0.0);
                let extra = if battery_full && api.get_battery_discharge_rate() == Watts::ZERO {
                    (excess / WORKER_MAX_POWER_W).floor() as u32
                } else {
                    ((excess - 20.0).max(0.0) / WORKER_MAX_POWER_W).floor() as u32
                };
                (base_workers + extra).min(max_workers)
            }
        };
        self.scale_to(api, target);

        // Zero-carbon power budget: cap containers to solar + guaranteed
        // battery power so the grid is never touched.
        let ids = api.container_ids();
        if ids.is_empty() {
            return;
        }
        let budget = solar + self.guaranteed_power;
        let per_cap = budget / ids.len() as f64;
        for id in &ids {
            let _ = api.set_container_powercap(*id, per_cap);
            let _ = api.set_container_demand(*id, 1.0);
        }

        let effective = api.effective_cores();
        let dt = api.tick_interval();
        let now = api.now();
        self.job.advance(effective, now, dt);
        self.stats.borrow_mut().active_ticks += 1;

        if self.job.is_done() {
            self.stats.borrow_mut().finished_at = Some(now);
            for id in api.container_ids() {
                let _ = api.stop_container(id);
            }
        }
    }

    fn is_done(&self) -> bool {
        self.job.is_done()
    }
}

/// §5.3 monitoring web-service policy variants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SolarWebMode {
    /// System-level: a fixed pool sized to the guaranteed power
    /// ("it runs only 4 workers irrespective of the workload").
    StaticWorkers {
        /// The fixed worker count.
        workers: u32,
    },
    /// Application-specific: scale to the workload under the SLO, within
    /// the zero-carbon budget.
    DynamicSlo {
        /// Upper bound on workers.
        max_workers: u32,
    },
}

/// Results of the monitoring-service run.
#[derive(Debug, Clone, Default)]
pub struct SolarWebStats {
    /// Per-tick p95 latency (daytime ticks only).
    pub p95_series: Vec<(SimTime, f64)>,
    /// Per-tick worker counts.
    worker_series: Vec<(SimTime, u32)>,
    /// Daytime ticks where p95 exceeded the SLO.
    pub slo_violations: u64,
    /// Daytime ticks observed.
    pub day_ticks: u64,
}

/// The §5.3 solar-powered monitoring/logging web service.
pub struct SolarWebApp {
    label: String,
    service: WebService,
    workload: Trace,
    mode: SolarWebMode,
    slo_ms: f64,
    guaranteed_power: Watts,
    stats: Shared<SolarWebStats>,
}

impl SolarWebApp {
    /// Creates the service. Workers are single-core containers.
    pub fn new(
        label: impl Into<String>,
        service: WebService,
        workload: Trace,
        mode: SolarWebMode,
        slo_ms: f64,
        guaranteed_power: Watts,
    ) -> Self {
        Self {
            label: label.into(),
            service,
            workload,
            mode,
            slo_ms,
            guaranteed_power,
            stats: shared(SolarWebStats::default()),
        }
    }

    /// Handle to the run statistics.
    pub fn stats(&self) -> Shared<SolarWebStats> {
        Shared::clone(&self.stats)
    }

    fn scale_to(api: &mut EcovisorClient<'_>, target: u32) {
        let ids = api.container_ids();
        let current = ids.len() as u32;
        if current < target {
            for _ in 0..(target - current) {
                if api.launch_container(ContainerSpec::single_core()).is_err() {
                    break;
                }
            }
        } else if current > target {
            for id in ids.iter().rev().take((current - target) as usize) {
                let _ = api.stop_container(*id);
            }
        }
    }
}

impl Application for SolarWebApp {
    fn label(&self) -> &str {
        &self.label
    }

    fn on_tick(&mut self, api: &mut EcovisorClient<'_>) {
        let now = api.now();
        let solar = api.get_solar_power();
        let day = solar > Watts::new(0.5);
        api.set_battery_max_discharge(self.guaranteed_power);

        if !day {
            // Dormant at night: no data to log, all workers stopped.
            Self::scale_to(api, 0);
            return;
        }

        let lambda = self.workload.sample(now);
        let worker_power = 3.65 / 4.0; // single-core worker peak dynamic
        let budget = solar + self.guaranteed_power;
        let affordable = (budget.watts() / worker_power).floor().max(1.0) as u32;

        let target = match self.mode {
            SolarWebMode::StaticWorkers { workers } => workers,
            SolarWebMode::DynamicSlo { max_workers } => {
                // Smallest pool meeting the SLO at this load, capped by
                // the zero-carbon budget.
                let mu = self.service.service_rate();
                let mut needed = max_workers;
                for c in 1..=max_workers {
                    let q = workloads::web::response_quantile(c as usize, mu, lambda, 0.95);
                    if q * 1000.0 <= 0.8 * self.slo_ms {
                        needed = c;
                        break;
                    }
                }
                needed.min(affordable).min(max_workers)
            }
        };
        Self::scale_to(api, target);

        // Zero-carbon cap across the pool.
        let ids = api.container_ids();
        if ids.is_empty() {
            return;
        }
        let per_cap = budget / ids.len() as f64;
        for id in &ids {
            let _ = api.set_container_powercap(*id, per_cap);
            let _ = api.set_container_demand(*id, 1.0);
        }
        let mean_quota = api.effective_cores() / ids.len() as f64;
        let out = self
            .service
            .tick(lambda, ids.len(), mean_quota, api.tick_interval());
        // Baseline serving-stack burn plus load-proportional work.
        let worker_util = (0.35 + 0.65 * out.utilization).clamp(0.0, 1.0);
        for id in &ids {
            let _ = api.set_container_demand(*id, worker_util);
        }

        let mut stats = self.stats.borrow_mut();
        stats.day_ticks += 1;
        stats.p95_series.push((now, out.p95_ms));
        stats.worker_series.push((now, ids.len() as u32));
        if out.p95_ms > self.slo_ms {
            stats.slo_violations += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use container_cop::CopConfig;
    use ecovisor::{EcovisorBuilder, EnergyShare, Simulation};
    use energy_system::solar::{SolarArrayBuilder, Weather};
    use simkit::time::SimDuration;
    use simkit::units::WattHours;
    use workloads::traces::WorkloadTraceBuilder;

    fn solar_sim(rated: f64) -> Simulation {
        Simulation::new(
            EcovisorBuilder::new()
                .cluster(CopConfig::microserver_cluster(16))
                .carbon(Trace::constant(300.0))
                .solar(
                    SolarArrayBuilder::new(rated)
                        .days(4)
                        .weather(Weather::Clear)
                        .seed(11)
                        .build(),
                )
                .build(),
        )
    }

    fn battery_share() -> EnergyShare {
        EnergyShare::grid_only()
            .with_solar_fraction(1.0)
            .with_battery(WattHours::new(720.0))
            .with_initial_soc(0.6)
    }

    #[test]
    fn spark_static_runs_days_only_and_stays_zero_carbon() {
        let mut sim = solar_sim(100.0);
        let job = SparkJob::new(60.0, SimDuration::from_minutes(30));
        let app = SparkApp::new(
            "spark",
            job,
            SparkMode::StaticWorkers { workers: 3 },
            Watts::new(10.0),
        );
        let stats = app.stats();
        let id = sim
            .add_app("spark", battery_share(), Box::new(app))
            .unwrap();
        sim.run_ticks(2 * 24 * 60); // two days

        // No grid usage beyond numerical dust: zero-carbon policy.
        let totals = sim.eco().app_totals(id).unwrap();
        assert!(
            totals.carbon.grams() < 0.05,
            "carbon should be ~zero, got {}",
            totals.carbon
        );
        // Job made progress during days only.
        let st = stats.borrow();
        assert!(st.active_ticks > 0);
        assert!(st.active_ticks < 2 * 24 * 60 / 2, "nights must be idle");
    }

    #[test]
    fn spark_dynamic_finishes_faster_than_static() {
        let run = |mode: SparkMode| -> u64 {
            let mut sim = solar_sim(150.0);
            let job = SparkJob::new(30.0, SimDuration::from_minutes(30));
            let app = SparkApp::new("spark", job, mode, Watts::new(10.0));
            sim.add_app("spark", battery_share(), Box::new(app))
                .unwrap();
            sim.run_until_done(6 * 24 * 60)
        };
        let static_ticks = run(SparkMode::StaticWorkers { workers: 2 });
        let dynamic_ticks = run(SparkMode::DynamicSolar {
            base_workers: 2,
            max_workers: 12,
        });
        assert!(
            dynamic_ticks < static_ticks,
            "dynamic ({dynamic_ticks}) should beat static ({static_ticks})"
        );
    }

    #[test]
    fn evening_kill_loses_uncheckpointed_work() {
        let mut sim = solar_sim(100.0);
        // Long checkpoint interval: plenty of volatile work at sunset.
        let job = SparkJob::new(500.0, SimDuration::from_hours(8));
        let app = SparkApp::new(
            "spark",
            job,
            SparkMode::StaticWorkers { workers: 3 },
            Watts::new(10.0),
        );
        let stats = app.stats();
        sim.add_app("spark", battery_share(), Box::new(app))
            .unwrap();
        sim.run_ticks(26 * 60); // through one sunset
        assert!(
            stats.borrow().lost_work > 0.0,
            "sunset must discard volatile work"
        );
    }

    #[test]
    fn monitoring_service_dynamic_meets_slo_static_does_not() {
        let run = |mode: SolarWebMode| -> (u64, u64) {
            let mut sim = solar_sim(60.0);
            let workload = WorkloadTraceBuilder::new(20.0, 600.0)
                .daytime_only()
                .peak_hour(13.0)
                .days(4)
                .seed(5)
                .build();
            let app = SolarWebApp::new(
                "mon",
                WebService::new(100.0),
                workload,
                mode,
                100.0,
                Watts::new(5.0),
            );
            let stats = app.stats();
            sim.add_app("mon", battery_share(), Box::new(app)).unwrap();
            sim.run_ticks(3 * 24 * 60);
            let st = stats.borrow();
            (st.slo_violations, st.day_ticks)
        };
        let (static_viol, _) = run(SolarWebMode::StaticWorkers { workers: 2 });
        let (dyn_viol, day_ticks) = run(SolarWebMode::DynamicSlo { max_workers: 12 });
        assert!(day_ticks > 0);
        assert!(
            dyn_viol < static_viol / 4,
            "dynamic violations {dyn_viol} vs static {static_viol}"
        );
    }
}
