//! §5.4 solar-direct policies: static vs. dynamic per-container power
//! caps, and replica-based straggler mitigation.
//!
//! The job runs on solar power alone ("without any battery capacity");
//! the application "explicitly allocate\[s\] their limited solar power
//! across a set of containers, e.g., such that the sum of containers'
//! power caps does not exceed the supply of solar power". The system
//! policy splits the budget evenly; the dynamic policy gives each node
//! only what it can use ("100% resource utilization"), shifting power
//! away from nodes doing I/O or waiting at barriers. The third policy
//! turns *excess* solar into replicas for straggling tasks (Fig. 11).

use container_cop::{ContainerId, ContainerSpec};
use ecovisor::{Application, EcovisorClient, EnergyClient};
use simkit::time::SimTime;
use simkit::units::Watts;
use workloads::parallel::SyntheticParallelJob;

use crate::shared::{shared, Shared};

/// Peak dynamic power of a quad-core container (watts).
const WORKER_MAX_W: f64 = 3.65;

/// §5.4 power-cap policy variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolarCapMode {
    /// System-level: equal static caps (`solar / n` each).
    StaticCaps,
    /// Application-specific: caps proportional to each node's demand so
    /// every node uses ~100 % of its allocation.
    DynamicCaps,
    /// Dynamic caps plus replica tasks for stragglers, consuming excess
    /// solar (Fig. 11).
    StragglerReplicas,
}

/// Run results.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ParallelStats {
    /// Completion time.
    finished_at: Option<SimTime>,
    /// Replica containers launched in total.
    pub replicas_launched: u64,
}

/// The §5.4 synthetic parallel application under a power-cap policy.
pub struct ParallelSolarApp {
    label: String,
    job: SyntheticParallelJob,
    mode: SolarCapMode,
    workers: Vec<ContainerId>,
    replicas: Vec<ContainerId>,
    last_phase: usize,
    stats: Shared<ParallelStats>,
}

impl ParallelSolarApp {
    /// Creates the application.
    pub fn new(label: impl Into<String>, job: SyntheticParallelJob, mode: SolarCapMode) -> Self {
        Self {
            label: label.into(),
            job,
            mode,
            workers: Vec::new(),
            replicas: Vec::new(),
            last_phase: 0,
            stats: shared(ParallelStats::default()),
        }
    }

    /// Handle to the run statistics.
    pub fn stats(&self) -> Shared<ParallelStats> {
        Shared::clone(&self.stats)
    }
}

impl Application for ParallelSolarApp {
    fn label(&self) -> &str {
        &self.label
    }

    fn on_start(&mut self, api: &mut EcovisorClient<'_>) {
        for _ in 0..self.job.config().workers {
            match api.launch_container(ContainerSpec::quad_core()) {
                Ok(id) => self.workers.push(id),
                Err(_) => break,
            }
        }
    }

    fn on_tick(&mut self, api: &mut EcovisorClient<'_>) {
        if self.job.is_done() {
            for id in api.container_ids() {
                let _ = api.stop_container(id);
            }
            return;
        }

        // Phase boundary: replicas from the previous phase retire.
        if self.job.phase() != self.last_phase {
            for id in self.replicas.drain(..) {
                let _ = api.stop_container(id);
            }
            self.last_phase = self.job.phase();
        }

        let solar = api.get_solar_power();
        let n = self.workers.len();
        if n == 0 {
            return;
        }
        let demands = self.job.demands();

        // Set demands first so caps act on real usage.
        for (i, id) in self.workers.iter().enumerate() {
            let _ = api.set_container_demand(*id, demands[i]);
        }

        // Allocate the solar budget as power caps.
        let budget = solar.watts();
        match self.mode {
            SolarCapMode::StaticCaps => {
                let per = budget / n as f64;
                for id in &self.workers {
                    let _ = api.set_container_powercap(*id, Watts::new(per));
                }
            }
            SolarCapMode::DynamicCaps | SolarCapMode::StragglerReplicas => {
                // Each node's desired power at its current demand.
                let desired: Vec<f64> = demands.iter().map(|d| WORKER_MAX_W * d).collect();
                let total_desired: f64 = desired.iter().sum();
                let scale = if total_desired > 0.0 {
                    (budget / total_desired).min(1.0)
                } else {
                    0.0
                };
                for (id, want) in self.workers.iter().zip(&desired) {
                    let _ = api.set_container_powercap(*id, Watts::new(want * scale));
                }

                if self.mode == SolarCapMode::StragglerReplicas {
                    // Spend genuinely excess solar on replicas for
                    // stragglers: one replica costs one worker's power.
                    // With abundant excess, additional replicas go to
                    // already-replicated slow tasks — "at most one
                    // replica task will finish" (§5.4), so the extras
                    // only consume the otherwise-wasted energy
                    // (Fig. 11's declining efficiency).
                    let mut excess = (budget - total_desired).max(0.0);
                    let stragglers = self.job.active_stragglers();
                    for pass in 0..3u32 {
                        let targets: Vec<usize> = if pass == 0 {
                            stragglers.clone()
                        } else {
                            // Extra passes re-replicate slow tasks.
                            (0..self.job.config().workers)
                                .filter(|w| self.job.replicas_of(*w) == pass)
                                .collect()
                        };
                        for straggler in targets {
                            if excess < WORKER_MAX_W {
                                break;
                            }
                            if let Ok(id) = api.launch_container(ContainerSpec::quad_core()) {
                                let _ = api.set_container_demand(id, 1.0);
                                let _ = api.set_container_powercap(id, Watts::new(WORKER_MAX_W));
                                self.replicas.push(id);
                                self.job.add_replica(straggler);
                                self.stats.borrow_mut().replicas_launched += 1;
                                excess -= WORKER_MAX_W;
                            } else {
                                break;
                            }
                        }
                        if excess < WORKER_MAX_W {
                            break;
                        }
                    }
                }
            }
        }

        // Advance with the per-worker grants the caps produced.
        let grants: Vec<f64> = self
            .workers
            .iter()
            .map(|id| api.container_effective_cores(*id).unwrap_or(0.0))
            .collect();
        let dt = api.tick_interval();
        self.job.advance(&grants, dt);

        if self.job.is_done() {
            self.stats.borrow_mut().finished_at = Some(api.now());
            for id in api.container_ids() {
                let _ = api.stop_container(id);
            }
        }
    }

    fn is_done(&self) -> bool {
        self.job.is_done()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use container_cop::CopConfig;
    use ecovisor::{EcovisorBuilder, EnergyShare, Simulation};
    use simkit::trace::Trace;
    use workloads::parallel::ParallelConfig;

    fn sim_with_solar(watts: f64) -> Simulation {
        Simulation::new(
            EcovisorBuilder::new()
                .cluster(CopConfig::microserver_cluster(24))
                .carbon(Trace::constant(200.0))
                .solar(Trace::constant(watts))
                .build(),
        )
    }

    fn small_job(straggler_prob: f64, seed: u64) -> SyntheticParallelJob {
        // Phases must be long relative to the 1-minute tick for the
        // cap policies to differentiate (as in the paper's hour-scale
        // phases); short phases drown the effect in quantization.
        let cfg = ParallelConfig {
            workers: 4,
            phases: 2,
            work_per_phase: 1.0,
            io_time: simkit::time::SimDuration::from_minutes(4),
            io_utilization: 0.1,
            straggler_prob,
            straggler_slowdown: 0.35,
            work_jitter: 0.4,
        };
        SyntheticParallelJob::new(cfg, seed)
    }

    fn run(mode: SolarCapMode, solar_w: f64, straggler_prob: f64) -> u64 {
        let mut sim = sim_with_solar(solar_w);
        let app = ParallelSolarApp::new("par", small_job(straggler_prob, 3), mode);
        sim.add_app(
            "par",
            EnergyShare::grid_only().with_solar_fraction(1.0),
            Box::new(app),
        )
        .unwrap();
        sim.run_until_done(100_000)
    }

    #[test]
    fn dynamic_caps_beat_static_when_power_scarce() {
        // 4 workers want up to 20 W; give only 10 W.
        let static_ticks = run(SolarCapMode::StaticCaps, 10.0, 0.0);
        let dynamic_ticks = run(SolarCapMode::DynamicCaps, 10.0, 0.0);
        assert!(
            dynamic_ticks < static_ticks,
            "dynamic {dynamic_ticks} vs static {static_ticks}"
        );
    }

    #[test]
    fn policies_tie_when_power_abundant() {
        let static_ticks = run(SolarCapMode::StaticCaps, 60.0, 0.0);
        let dynamic_ticks = run(SolarCapMode::DynamicCaps, 60.0, 0.0);
        let diff = static_ticks.abs_diff(dynamic_ticks);
        assert!(
            diff <= 2,
            "static {static_ticks} vs dynamic {dynamic_ticks}"
        );
    }

    #[test]
    fn replicas_cut_straggler_runtime_given_excess_power() {
        // Abundant power (2x need): replicas are affordable.
        let without = run(SolarCapMode::DynamicCaps, 30.0, 0.9);
        let with = run(SolarCapMode::StragglerReplicas, 30.0, 0.9);
        assert!(
            with < without,
            "replicas {with} should beat no-mitigation {without}"
        );
    }

    #[test]
    fn replica_containers_retire_at_phase_end() {
        let mut sim = sim_with_solar(45.0);
        let app = ParallelSolarApp::new("par", small_job(1.0, 9), SolarCapMode::StragglerReplicas);
        let stats = app.stats();
        let id = sim
            .add_app(
                "par",
                EnergyShare::grid_only().with_solar_fraction(1.0),
                Box::new(app),
            )
            .unwrap();
        sim.run_until_done(100_000);
        assert!(stats.borrow().replicas_launched > 0);
        assert!(
            sim.eco().cop().container_ids_of(id).is_empty(),
            "all containers stopped at completion"
        );
    }

    #[test]
    fn zero_solar_stalls_compute_but_not_io() {
        let ticks = run(SolarCapMode::DynamicCaps, 0.0, 0.0);
        // Never finishes within the bound (0 solar = no compute power);
        // run_until_done returns the cap.
        assert_eq!(ticks, 100_000);
    }
}
