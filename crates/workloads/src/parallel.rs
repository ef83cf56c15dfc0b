//! Synthetic parallel job with barrier phases, I/O idleness, and
//! stragglers (§5.4).
//!
//! The paper's last case study deploys "a synthetic parallel job \[that\]
//! periodically synchronizes across tasks and performs I/O", plus a
//! configuration that "perform\[s\] straggler mitigation by tracking the
//! progress of each task, issuing a new replica for any slow task" with
//! stragglers injected randomly. This model captures the structure those
//! experiments depend on:
//!
//! * workers advance through compute→I/O→barrier phases; a phase ends
//!   only when *all* workers reach the barrier (stragglers gate
//!   everyone);
//! * compute speed is proportional to the effective cores the ecovisor
//!   grants (power caps slow compute); I/O time is cap-independent;
//! * waiting at a barrier and doing I/O use little CPU — power budget
//!   given to such workers is wasted, which is why the paper's dynamic
//!   cap policy wins;
//! * replicas restore a straggler to full speed (at most one replica can
//!   "win", so extra replicas only burn energy — Fig. 11's diminishing
//!   returns).

use serde::{Deserialize, Serialize};

use simkit::rng::SimRng;
use simkit::time::SimDuration;

/// Configuration of the synthetic parallel job.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ParallelConfig {
    /// Number of workers (the paper uses 10 nodes).
    pub workers: usize,
    /// Number of barrier-separated phases.
    pub phases: usize,
    /// Compute work per worker per phase, in core-hours.
    pub work_per_phase: f64,
    /// Fixed I/O time per phase (independent of CPU caps).
    pub io_time: SimDuration,
    /// CPU demand during I/O (a small residual).
    pub io_utilization: f64,
    /// Probability a worker is a straggler in a given phase.
    pub straggler_prob: f64,
    /// Compute-rate multiplier for stragglers (e.g. 0.35 = 2.9× slower).
    pub straggler_slowdown: f64,
    /// Relative jitter on per-worker phase work in `[0, 1)`: workers draw
    /// `work_per_phase × (1 ± jitter)`. Non-zero jitter desynchronizes
    /// compute and I/O phases across workers — the heterogeneity the
    /// §5.4 dynamic power-cap policy exploits.
    pub work_jitter: f64,
}

impl ParallelConfig {
    /// The §5.4 configuration: 10 workers, periodic sync + I/O.
    pub fn paper_default() -> Self {
        Self {
            workers: 10,
            phases: 12,
            work_per_phase: 0.5,
            io_time: SimDuration::from_minutes(6),
            io_utilization: 0.10,
            straggler_prob: 0.0,
            straggler_slowdown: 0.35,
            work_jitter: 0.35,
        }
    }

    /// The straggler-mitigation configuration of Fig. 11.
    pub fn with_stragglers(mut self, prob: f64) -> Self {
        self.straggler_prob = prob.clamp(0.0, 1.0);
        self
    }

    /// Total useful work across all workers and phases, core-hours.
    pub fn total_work(&self) -> f64 {
        self.work_per_phase * self.workers as f64 * self.phases as f64
    }

    /// Validates invariants.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    fn validate(&self) -> Result<(), String> {
        if self.workers == 0 || self.phases == 0 {
            return Err("workers and phases must be positive".into());
        }
        if self.work_per_phase <= 0.0 {
            return Err("work per phase must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.straggler_prob) {
            return Err("straggler probability must be in [0, 1]".into());
        }
        if !(0.0 < self.straggler_slowdown && self.straggler_slowdown <= 1.0) {
            return Err("slowdown must be in (0, 1]".into());
        }
        if !(0.0..1.0).contains(&self.work_jitter) {
            return Err("work jitter must be in [0, 1)".into());
        }
        Ok(())
    }
}

/// What a worker is doing right now.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
enum WorkerStage {
    /// Computing; `remaining` core-hours in this phase.
    Compute {
        /// Remaining compute work in core-hours.
        remaining: f64,
    },
    /// Performing I/O; remaining seconds.
    Io {
        /// Remaining I/O seconds.
        remaining_secs: f64,
    },
    /// Waiting at the barrier for slower workers.
    AtBarrier,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Worker {
    stage: WorkerStage,
    straggler: bool,
    replicas: u32,
}

/// The synthetic parallel job.
#[derive(Debug, Clone)]
pub struct SyntheticParallelJob {
    cfg: ParallelConfig,
    workers: Vec<Worker>,
    phase: usize,
    rng: SimRng,
    completed_work: f64,
}

impl SyntheticParallelJob {
    /// Creates the job and rolls phase-0 stragglers.
    ///
    /// # Panics
    ///
    /// Panics if the config is invalid.
    pub fn new(cfg: ParallelConfig, seed: u64) -> Self {
        cfg.validate().expect("invalid parallel config");
        let mut job = Self {
            cfg,
            workers: Vec::new(),
            phase: 0,
            rng: SimRng::from_seed(seed).fork("parallel-job"),
            completed_work: 0.0,
        };
        job.workers = (0..cfg.workers).map(|_| job.fresh_worker()).collect();
        job
    }

    fn fresh_worker(&mut self) -> Worker {
        let jitter = if self.cfg.work_jitter > 0.0 {
            1.0 + self
                .rng
                .uniform(-self.cfg.work_jitter, self.cfg.work_jitter)
        } else {
            1.0
        };
        Worker {
            stage: WorkerStage::Compute {
                remaining: self.cfg.work_per_phase * jitter,
            },
            straggler: self.rng.chance(self.cfg.straggler_prob),
            replicas: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &ParallelConfig {
        &self.cfg
    }

    /// Current phase index (== `phases` when done).
    pub fn phase(&self) -> usize {
        self.phase
    }

    /// `true` once all phases are complete.
    pub fn is_done(&self) -> bool {
        self.phase >= self.cfg.phases
    }

    /// Useful work completed so far, core-hours.
    pub fn completed_work(&self) -> f64 {
        self.completed_work
    }

    /// Completion fraction.
    pub fn progress(&self) -> f64 {
        (self.completed_work / self.cfg.total_work()).min(1.0)
    }

    /// Per-worker CPU demand for the current tick (drives power).
    pub fn demands(&self) -> Vec<f64> {
        self.workers
            .iter()
            .map(|w| match w.stage {
                WorkerStage::Compute { .. } => 1.0,
                WorkerStage::Io { .. } => self.cfg.io_utilization,
                WorkerStage::AtBarrier => 0.05,
            })
            .collect()
    }

    /// Indices of workers currently computing as unmitigated stragglers —
    /// what a progress-tracking policy would flag for replication.
    pub fn active_stragglers(&self) -> Vec<usize> {
        self.workers
            .iter()
            .enumerate()
            .filter(|(_, w)| {
                w.straggler && w.replicas == 0 && matches!(w.stage, WorkerStage::Compute { .. })
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// Launches a replica for a worker: the task now also runs at full
    /// speed elsewhere, so its completion rate is restored. Additional
    /// replicas have no effect on speed ("at most one replica task will
    /// finish") but the caller pays their energy.
    pub fn add_replica(&mut self, worker: usize) {
        if let Some(w) = self.workers.get_mut(worker) {
            w.replicas += 1;
        }
    }

    /// Number of replicas launched for a worker in the current phase.
    pub fn replicas_of(&self, worker: usize) -> u32 {
        self.workers.get(worker).map(|w| w.replicas).unwrap_or(0)
    }

    /// Advances one tick. `granted_cores[i]` is the effective cores the
    /// ecovisor granted worker `i` (demand clipped by quota). Returns the
    /// useful work done this tick.
    ///
    /// # Panics
    ///
    /// Panics if `granted_cores` has the wrong length.
    pub fn advance(&mut self, granted_cores: &[f64], dt: SimDuration) -> f64 {
        assert_eq!(
            granted_cores.len(),
            self.workers.len(),
            "one grant per worker"
        );
        if self.is_done() {
            return 0.0;
        }
        let hours = dt.as_hours();
        let mut done_this_tick = 0.0;
        for (w, &granted) in self.workers.iter_mut().zip(granted_cores) {
            match &mut w.stage {
                WorkerStage::Compute { remaining } => {
                    let speed_factor = if w.straggler && w.replicas == 0 {
                        self.cfg.straggler_slowdown
                    } else {
                        1.0
                    };
                    let rate = granted.max(0.0) * speed_factor;
                    let work = (rate * hours).min(*remaining);
                    *remaining -= work;
                    done_this_tick += work;
                    if *remaining <= 1e-12 {
                        w.stage = WorkerStage::Io {
                            remaining_secs: self.cfg.io_time.as_secs_f64(),
                        };
                    }
                }
                WorkerStage::Io { remaining_secs } => {
                    *remaining_secs -= dt.as_secs_f64();
                    if *remaining_secs <= 0.0 {
                        w.stage = WorkerStage::AtBarrier;
                    }
                }
                WorkerStage::AtBarrier => {}
            }
        }
        self.completed_work += done_this_tick;

        // Barrier: advance the phase only when everyone has arrived.
        if self
            .workers
            .iter()
            .all(|w| matches!(w.stage, WorkerStage::AtBarrier))
        {
            self.phase += 1;
            if !self.is_done() {
                self.workers = (0..self.cfg.workers).map(|_| self.fresh_worker()).collect();
            }
        }
        done_this_tick
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minute() -> SimDuration {
        SimDuration::from_minutes(1)
    }

    fn small_cfg() -> ParallelConfig {
        ParallelConfig {
            workers: 4,
            phases: 2,
            work_per_phase: 0.1, // 6 core-minutes
            io_time: SimDuration::from_minutes(2),
            io_utilization: 0.1,
            straggler_prob: 0.0,
            straggler_slowdown: 0.35,
            work_jitter: 0.0,
        }
    }

    fn run_to_completion(job: &mut SyntheticParallelJob, grant: f64) -> u64 {
        let mut ticks = 0;
        while !job.is_done() {
            let grants = vec![grant; job.config().workers];
            job.advance(&grants, minute());
            ticks += 1;
            assert!(ticks < 100_000, "runaway");
        }
        ticks
    }

    #[test]
    fn phases_complete_in_lockstep() {
        let mut job = SyntheticParallelJob::new(small_cfg(), 1);
        // 0.1 core-hours at 1 core = 6 min compute + 2 min I/O = 8 min per
        // phase; two phases = 16 ticks.
        let ticks = run_to_completion(&mut job, 1.0);
        assert_eq!(ticks, 16);
        assert!((job.progress() - 1.0).abs() < 1e-9);
        assert!((job.completed_work() - small_cfg().total_work()).abs() < 1e-9);
    }

    #[test]
    fn power_caps_slow_compute_but_not_io() {
        let mut capped = SyntheticParallelJob::new(small_cfg(), 1);
        let full = run_to_completion(&mut SyntheticParallelJob::new(small_cfg(), 1), 1.0);
        let half = run_to_completion(&mut capped, 0.5);
        // Compute doubles (12 min), I/O stays 2 min: 28 ticks.
        assert_eq!(full, 16);
        assert_eq!(half, 28);
    }

    #[test]
    fn stragglers_gate_the_barrier() {
        let cfg = small_cfg().with_stragglers(1.0); // everyone straggles
        let mut slow = SyntheticParallelJob::new(cfg, 2);
        let baseline = run_to_completion(&mut SyntheticParallelJob::new(small_cfg(), 2), 1.0);
        let straggled = run_to_completion(&mut slow, 1.0);
        assert!(
            straggled > baseline + 10,
            "stragglers {straggled} vs baseline {baseline}"
        );
    }

    #[test]
    fn replicas_restore_full_speed() {
        let cfg = small_cfg().with_stragglers(1.0);
        let mut mitigated = SyntheticParallelJob::new(cfg, 3);
        let mut ticks = 0;
        while !mitigated.is_done() {
            for s in mitigated.active_stragglers() {
                mitigated.add_replica(s);
            }
            let grants = vec![1.0; 4];
            mitigated.advance(&grants, minute());
            ticks += 1;
            assert!(ticks < 10_000);
        }
        let baseline = run_to_completion(&mut SyntheticParallelJob::new(small_cfg(), 3), 1.0);
        assert_eq!(
            ticks, baseline,
            "full replication should match the no-straggler runtime"
        );
    }

    #[test]
    fn demands_reflect_stage() {
        let mut job = SyntheticParallelJob::new(small_cfg(), 4);
        assert_eq!(job.demands(), vec![1.0; 4], "all computing initially");
        // Run 6 minutes: everyone enters I/O.
        for _ in 0..6 {
            job.advance(&[1.0; 4], minute());
        }
        assert_eq!(job.demands(), vec![0.1; 4], "all in I/O");
    }

    #[test]
    fn straggler_detection_deterministic_per_seed() {
        let cfg = small_cfg().with_stragglers(0.5);
        let a = SyntheticParallelJob::new(cfg, 7).active_stragglers();
        let b = SyntheticParallelJob::new(cfg, 7).active_stragglers();
        assert_eq!(a, b);
    }

    #[test]
    fn extra_replicas_add_no_speed() {
        let cfg = small_cfg().with_stragglers(1.0);
        let mut one = SyntheticParallelJob::new(cfg, 5);
        let mut many = SyntheticParallelJob::new(cfg, 5);
        for i in 0..4 {
            one.add_replica(i);
            for _ in 0..3 {
                many.add_replica(i);
            }
        }
        let t1 = run_to_completion(&mut one, 1.0);
        let t3 = {
            let mut ticks = 0;
            while !many.is_done() {
                many.advance(&[1.0; 4], minute());
                ticks += 1;
            }
            ticks
        };
        assert_eq!(t1, t3);
        assert_eq!(many.replicas_of(0), 0, "replicas reset at phase boundaries");
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut c = small_cfg();
        c.workers = 0;
        assert!(c.validate().is_err());
        let mut c2 = small_cfg();
        c2.straggler_slowdown = 0.0;
        assert!(c2.validate().is_err());
        let mut c3 = small_cfg();
        c3.straggler_prob = 1.5;
        assert!(c3.validate().is_err());
    }
}
