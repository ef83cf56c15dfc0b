//! §5.1 batch-job policies: carbon-agnostic, suspend-resume
//! (WaitAWhile), and Wait&Scale.
//!
//! "We compare this suspend-resume policy to a new Wait&Scale (W&S)
//! policy we developed, which suspends execution above a threshold and
//! opportunistically scales up resource (and energy) usage when carbon
//! emissions are below the threshold. Wait&Scale is an
//! application-specific policy, as different applications have different
//! optimal scale-up factors, which the system may not know." (§5.1)

use container_cop::ContainerSpec;
use ecovisor::{Application, EcovisorClient, EnergyClient};
use simkit::time::SimTime;
use simkit::units::CarbonIntensity;
use workloads::batch::BatchJob;

use crate::shared::{shared, Shared};

/// Which §5.1 policy drives the job.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum BatchMode {
    /// Run at the baseline allocation regardless of carbon intensity.
    CarbonAgnostic,
    /// System-level WaitAWhile: suspend above the threshold, resume at
    /// baseline below it.
    SuspendResume {
        /// Carbon threshold (a percentile of the intensity trace).
        threshold: CarbonIntensity,
    },
    /// Application-specific Wait&Scale: suspend above the threshold,
    /// scale out to `scale × baseline` containers below it.
    WaitAndScale {
        /// Carbon threshold (a percentile of the intensity trace).
        threshold: CarbonIntensity,
        /// Scale-up factor (2, 3, or 4 in the paper).
        scale: u32,
    },
}

/// Per-run results an experiment can read out.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BatchStats {
    /// Tick-start time of the first tick at/after arrival.
    pub started_at: Option<SimTime>,
    /// Tick-start time of the tick in which the job completed.
    pub finished_at: Option<SimTime>,
    /// Number of ticks the job spent suspended/waiting after arrival.
    pub waiting_ticks: u64,
    /// Number of ticks the job spent running.
    pub running_ticks: u64,
}

impl BatchStats {
    /// Wall-clock runtime in hours (arrival to completion), if finished.
    pub fn runtime_hours(&self) -> Option<f64> {
        match (self.started_at, self.finished_at) {
            (Some(s), Some(f)) => Some((f.as_secs() - s.as_secs()) as f64 / 3600.0),
            _ => None,
        }
    }
}

/// A batch application (ML training or BLAST) under a §5.1 policy.
pub struct BatchApp {
    label: String,
    job: BatchJob,
    mode: BatchMode,
    /// Number of quad-core containers at the baseline allocation.
    baseline_containers: u32,
    /// Cores per container.
    container_cores: u32,
    arrival: SimTime,
    stats: Shared<BatchStats>,
}

impl BatchApp {
    /// Creates a batch application.
    ///
    /// `baseline_containers` × `container_cores` is the baseline
    /// allocation (ML: 1 × 4 cores; BLAST: 2 × 4 cores).
    pub fn new(
        label: impl Into<String>,
        job: BatchJob,
        mode: BatchMode,
        baseline_containers: u32,
        container_cores: u32,
    ) -> Self {
        Self {
            label: label.into(),
            job,
            mode,
            baseline_containers,
            container_cores,
            arrival: SimTime::EPOCH,
            stats: shared(BatchStats::default()),
        }
    }

    /// Delays the job's arrival (the paper randomizes arrivals across
    /// ten runs).
    pub fn with_arrival(mut self, arrival: SimTime) -> Self {
        self.arrival = arrival;
        self
    }

    /// Handle to the run statistics.
    pub fn stats(&self) -> Shared<BatchStats> {
        Shared::clone(&self.stats)
    }

    /// The containers this mode wants while running.
    fn target_containers(&self, below_threshold: bool) -> u32 {
        match self.mode {
            BatchMode::CarbonAgnostic => self.baseline_containers,
            BatchMode::SuspendResume { .. } => {
                if below_threshold {
                    self.baseline_containers
                } else {
                    0
                }
            }
            BatchMode::WaitAndScale { scale, .. } => {
                if below_threshold {
                    self.baseline_containers * scale
                } else {
                    0
                }
            }
        }
    }

    fn below_threshold(&self, api: &mut EcovisorClient<'_>) -> bool {
        match self.mode {
            BatchMode::CarbonAgnostic => true,
            BatchMode::SuspendResume { threshold } | BatchMode::WaitAndScale { threshold, .. } => {
                api.get_grid_carbon() <= threshold
            }
        }
    }

    /// Adjusts the running container count to `target` by launching or
    /// stopping (horizontal scaling).
    fn scale_to(&mut self, api: &mut EcovisorClient<'_>, target: u32) {
        let ids = api.container_ids();
        let current = ids.len() as u32;
        if current < target {
            for _ in 0..(target - current) {
                let spec = ContainerSpec::with_cores(self.container_cores);
                // Capacity exhaustion is surfaced as simply not scaling
                // further — the COP is the authority.
                if api.launch_container(spec).is_err() {
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

impl Application for BatchApp {
    fn label(&self) -> &str {
        &self.label
    }

    fn on_tick(&mut self, api: &mut EcovisorClient<'_>) {
        if self.job.is_done() {
            return;
        }
        let now = api.now();
        if now < self.arrival {
            return;
        }
        let mut stats = self.stats.borrow_mut();
        if stats.started_at.is_none() {
            stats.started_at = Some(now);
        }

        let below = self.below_threshold(api);
        let target = self.target_containers(below);
        drop(stats);
        self.scale_to(api, target);

        let ids = api.container_ids();
        let allocated_cores: f64 = ids.len() as f64 * f64::from(self.container_cores);
        if ids.is_empty() {
            self.stats.borrow_mut().waiting_ticks += 1;
            return;
        }

        // Demand reflects the scaling curve's busy fraction: sync/queue
        // overhead shows up as idle CPU, not as busy-spinning.
        let utilization = self.job.target_utilization(allocated_cores);
        for id in &ids {
            let _ = api.set_container_demand(*id, utilization);
        }

        let effective = api.effective_cores();
        let dt = api.tick_interval();
        self.job.advance(allocated_cores, effective, dt);
        self.stats.borrow_mut().running_ticks += 1;

        if self.job.is_done() {
            for id in api.container_ids() {
                let _ = api.stop_container(id);
            }
            self.stats.borrow_mut().finished_at = Some(now);
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
    use simkit::time::SimDuration;
    use simkit::trace::Trace;
    use workloads::scaling::LinearScaling;

    fn square_wave_carbon(low: f64, high: f64, period_min: u64) -> Trace {
        let half = (period_min / 2) as usize;
        let mut samples = vec![low; half];
        samples.extend(vec![high; half]);
        Trace::from_samples(samples, SimDuration::from_minutes(1))
            .with_extend(simkit::trace::Extend::Cycle)
    }

    fn sim_with(carbon: Trace) -> Simulation {
        Simulation::new(
            EcovisorBuilder::new()
                .cluster(CopConfig::microserver_cluster(16))
                .carbon(carbon)
                .build(),
        )
    }

    #[test]
    fn carbon_agnostic_runs_straight_through() {
        let mut sim = sim_with(Trace::constant(300.0));
        // 1 core-hour on 4 cores = 15 minutes.
        let job = BatchJob::new(1.0, Box::new(LinearScaling));
        let app = BatchApp::new("agnostic", job, BatchMode::CarbonAgnostic, 1, 4);
        let stats = app.stats();
        sim.add_app("a", EnergyShare::grid_only(), Box::new(app))
            .unwrap();
        let ticks = sim.run_until_done(10_000);
        assert_eq!(ticks, 15);
        let s = stats.borrow();
        assert_eq!(s.running_ticks, 15);
        assert_eq!(s.waiting_ticks, 0);
        assert!((s.runtime_hours().unwrap() - 14.0 / 60.0).abs() < 1e-9);
    }

    #[test]
    fn suspend_resume_waits_out_high_carbon() {
        // Carbon alternates 100 (30 min) / 400 (30 min); threshold 200.
        let mut sim = sim_with(square_wave_carbon(100.0, 400.0, 60));
        let job = BatchJob::new(4.0, Box::new(LinearScaling)); // 1 h at 4 cores
        let app = BatchApp::new(
            "sr",
            job,
            BatchMode::SuspendResume {
                threshold: CarbonIntensity::new(200.0),
            },
            1,
            4,
        );
        let stats = app.stats();
        sim.add_app("a", EnergyShare::grid_only(), Box::new(app))
            .unwrap();
        let ticks = sim.run_until_done(10_000);
        // 60 running minutes at a 50% duty cycle ≈ 90 total (first window
        // is low-carbon).
        assert!((85..=95).contains(&ticks), "took {ticks} ticks");
        let s = stats.borrow();
        assert_eq!(s.running_ticks, 60);
        assert!(s.waiting_ticks >= 25);
    }

    #[test]
    fn wait_and_scale_runs_faster_than_suspend_resume() {
        let run = |mode: BatchMode| -> u64 {
            let mut sim = sim_with(square_wave_carbon(100.0, 400.0, 60));
            let job = BatchJob::new(4.0, Box::new(LinearScaling));
            let app = BatchApp::new("b", job, mode, 1, 4);
            sim.add_app("a", EnergyShare::grid_only(), Box::new(app))
                .unwrap();
            sim.run_until_done(10_000)
        };
        let threshold = CarbonIntensity::new(200.0);
        let sr = run(BatchMode::SuspendResume { threshold });
        let ws2 = run(BatchMode::WaitAndScale {
            threshold,
            scale: 2,
        });
        assert!(
            ws2 < sr,
            "W&S 2x ({ws2} ticks) should beat suspend-resume ({sr} ticks)"
        );
    }

    #[test]
    fn arrival_delays_start() {
        let mut sim = sim_with(Trace::constant(100.0));
        let job = BatchJob::new(0.5, Box::new(LinearScaling));
        let app = BatchApp::new("d", job, BatchMode::CarbonAgnostic, 1, 4)
            .with_arrival(SimTime::from_secs(600));
        let stats = app.stats();
        sim.add_app("a", EnergyShare::grid_only(), Box::new(app))
            .unwrap();
        sim.run_until_done(10_000);
        assert_eq!(stats.borrow().started_at, Some(SimTime::from_secs(600)));
    }

    #[test]
    fn containers_released_after_completion() {
        let mut sim = sim_with(Trace::constant(100.0));
        let job = BatchJob::new(0.25, Box::new(LinearScaling));
        let app = BatchApp::new("r", job, BatchMode::CarbonAgnostic, 2, 4);
        let ids = {
            let a = sim
                .add_app("a", EnergyShare::grid_only(), Box::new(app))
                .unwrap();
            sim.run_until_done(1000);
            sim.eco().cop().container_ids_of(a)
        };
        assert!(ids.is_empty(), "containers should be stopped after the job");
    }
}
