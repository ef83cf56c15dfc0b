//! A generic elastic batch job.
//!
//! [`BatchJob`] tracks remaining work in *core-hours of useful
//! computation* and advances each tick according to the effective compute
//! its containers deliver. The workload model's responsibilities per tick:
//!
//! 1. compute the target per-worker utilization from its scaling curve
//!    (sync/queue overhead = idle time);
//! 2. set that demand on every running container (so power attribution
//!    reflects real busyness);
//! 3. advance progress by the *effective* cores the ecovisor granted
//!    (demand clipped by power-cap quotas).

use simkit::time::SimDuration;

use crate::scaling::ScalingModel;

/// An elastic batch job with a scaling curve.
pub struct BatchJob {
    total_work: f64,
    completed: f64,
    scaling: Box<dyn ScalingModel>,
    /// Fraction of *non-useful* worker time spent busy-spinning on
    /// coordination (allreduce polling, RPC waits) rather than idle.
    /// Real frameworks burn CPU while synchronizing, so scaled-out jobs
    /// draw extra dynamic power even when speedup stalls — the source of
    /// Wait&Scale's carbon growth at large scale factors (§5.1.2).
    spin: f64,
}

impl std::fmt::Debug for BatchJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchJob")
            .field("total_work", &self.total_work)
            .field("completed", &self.completed)
            .finish_non_exhaustive()
    }
}

impl BatchJob {
    /// Creates a job with `total_work` core-hours of useful computation.
    ///
    /// # Panics
    ///
    /// Panics if `total_work` is not positive.
    pub fn new(total_work: f64, scaling: Box<dyn ScalingModel>) -> Self {
        assert!(total_work > 0.0, "work must be positive");
        Self {
            total_work,
            completed: 0.0,
            scaling,
            spin: 0.0,
        }
    }

    /// Sets the coordination busy-spin fraction (builder-style).
    ///
    /// # Panics
    ///
    /// Panics unless `spin` is in `[0, 1]`.
    pub(crate) fn with_spin(mut self, spin: f64) -> Self {
        assert!((0.0..=1.0).contains(&spin), "spin must be in [0, 1]");
        self.spin = spin;
        self
    }

    /// Remaining work in core-hours.
    fn remaining(&self) -> f64 {
        (self.total_work - self.completed).max(0.0)
    }

    /// Completion fraction in `[0, 1]`.
    pub fn progress(&self) -> f64 {
        (self.completed / self.total_work).min(1.0)
    }

    /// `true` once all work is done.
    pub fn is_done(&self) -> bool {
        self.completed >= self.total_work - 1e-9
    }

    /// Useful-work fraction per worker when `allocated_cores` are
    /// allocated: the busy fraction implied by the scaling curve.
    fn useful_utilization(&self, allocated_cores: f64) -> f64 {
        self.scaling.utilization(allocated_cores)
    }

    /// Observable CPU demand per worker: useful work plus coordination
    /// spin during the non-useful remainder. This is what drives power
    /// attribution; only the useful share advances the job.
    pub fn target_utilization(&self, allocated_cores: f64) -> f64 {
        let useful = self.useful_utilization(allocated_cores);
        (useful + (1.0 - useful) * self.spin).clamp(0.0, 1.0)
    }

    /// Converts granted effective cores (which include spin overhead)
    /// into useful cores.
    fn useful_share(&self, allocated_cores: f64) -> f64 {
        let demand = self.target_utilization(allocated_cores);
        if demand <= 0.0 {
            0.0
        } else {
            self.useful_utilization(allocated_cores) / demand
        }
    }

    /// Useful throughput in core-equivalents given the cores the
    /// ecovisor actually granted (`effective_cores` = Σ cores × min(demand,
    /// quota)) out of `allocated_cores`. Spin overhead in the grant is
    /// discounted, and the scaling curve caps the result: quota headroom
    /// beyond the curve's speedup cannot become useful work.
    fn throughput(&self, allocated_cores: f64, effective_cores: f64) -> f64 {
        (effective_cores.max(0.0) * self.useful_share(allocated_cores))
            .min(self.scaling.speedup(allocated_cores))
    }

    /// Advances the job by one tick. Returns the work done (core-hours).
    pub fn advance(&mut self, allocated_cores: f64, effective_cores: f64, dt: SimDuration) -> f64 {
        if self.is_done() {
            return 0.0;
        }
        let rate = self.throughput(allocated_cores, effective_cores);
        let done = (rate * dt.as_hours()).min(self.remaining());
        self.completed += done;
        done
    }

    /// Estimated runtime in hours at a constant allocation with no
    /// waiting (used to size experiments).
    pub fn ideal_runtime_hours(&self, allocated_cores: f64) -> f64 {
        let rate = self.scaling.speedup(allocated_cores);
        if rate <= 0.0 {
            f64::INFINITY
        } else {
            self.total_work / rate
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scaling::{LinearScaling, QueueBottleneck, SyncOverhead};

    fn minute() -> SimDuration {
        SimDuration::from_minutes(1)
    }

    #[test]
    fn linear_job_finishes_on_schedule() {
        // 8 core-hours on 4 cores = 2 hours = 120 ticks.
        let mut job = BatchJob::new(8.0, Box::new(LinearScaling));
        let mut ticks = 0;
        while !job.is_done() {
            job.advance(4.0, 4.0, minute());
            ticks += 1;
            assert!(ticks < 10_000, "runaway");
        }
        assert_eq!(ticks, 120);
        assert!((job.progress() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sync_overhead_slows_scaled_job() {
        let sigma = 0.15;
        let job = BatchJob::new(10.0, Box::new(SyncOverhead::new(sigma)));
        let t4 = job.ideal_runtime_hours(4.0);
        let t8 = job.ideal_runtime_hours(8.0);
        let t12 = job.ideal_runtime_hours(12.0);
        assert!(t8 < t4 && t12 < t8);
        // Far from linear: 2x cores gives < 1.5x speedup at σ=0.15.
        assert!(t4 / t8 < 1.5, "speedup 2x was {}", t4 / t8);
        // 3x adds little over 2x.
        assert!(t8 / t12 < 1.25, "3x/2x gain was {}", t8 / t12);
    }

    #[test]
    fn bottleneck_caps_effective_cores() {
        let job = BatchJob::new(10.0, Box::new(QueueBottleneck::new(24.0)));
        // 32 allocated cores yield only 24 effective.
        assert_eq!(job.throughput(32.0, 32.0), 24.0);
        assert_eq!(job.ideal_runtime_hours(32.0), job.ideal_runtime_hours(24.0));
    }

    #[test]
    fn quota_limits_throughput() {
        let mut job = BatchJob::new(10.0, Box::new(LinearScaling));
        // 8 allocated but quota restricts to 2 effective cores.
        let done = job.advance(8.0, 2.0, SimDuration::from_hours(1));
        assert!((done - 2.0).abs() < 1e-12);
    }

    #[test]
    fn target_utilization_reflects_idleness() {
        let job = BatchJob::new(10.0, Box::new(SyncOverhead::new(0.15)));
        let u4 = job.target_utilization(4.0);
        let u12 = job.target_utilization(12.0);
        assert!(u4 > u12, "more workers, more sync idling");
        let blast = BatchJob::new(10.0, Box::new(QueueBottleneck::new(24.0)));
        assert_eq!(blast.target_utilization(16.0), 1.0);
        assert!((blast.target_utilization(32.0) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn spin_raises_demand_without_raising_throughput() {
        let no_spin = BatchJob::new(10.0, Box::new(SyncOverhead::new(0.15)));
        let spun = BatchJob::new(10.0, Box::new(SyncOverhead::new(0.15))).with_spin(0.5);
        // Demand (power) rises with spin...
        assert!(spun.target_utilization(12.0) > no_spin.target_utilization(12.0));
        // ...but useful throughput at the granted demand is identical.
        let granted_no_spin = 12.0 * no_spin.target_utilization(12.0);
        let granted_spun = 12.0 * spun.target_utilization(12.0);
        let t_a = no_spin.throughput(12.0, granted_no_spin);
        let t_b = spun.throughput(12.0, granted_spun);
        assert!((t_a - t_b).abs() < 1e-9, "{t_a} vs {t_b}");
    }

    #[test]
    #[should_panic(expected = "spin must be in [0, 1]")]
    fn invalid_spin_rejected() {
        BatchJob::new(1.0, Box::new(LinearScaling)).with_spin(1.5);
    }

    #[test]
    fn advance_clamps_at_completion() {
        let mut job = BatchJob::new(0.5, Box::new(LinearScaling));
        let done = job.advance(4.0, 4.0, SimDuration::from_hours(1));
        assert!((done - 0.5).abs() < 1e-12, "only remaining work is done");
        assert!(job.is_done());
        assert_eq!(job.advance(4.0, 4.0, minute()), 0.0);
    }

    #[test]
    fn zero_cores_makes_no_progress() {
        let mut job = BatchJob::new(1.0, Box::new(LinearScaling));
        assert_eq!(job.advance(0.0, 0.0, minute()), 0.0);
        assert_eq!(job.ideal_runtime_hours(0.0), f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_work_rejected() {
        BatchJob::new(0.0, Box::new(LinearScaling));
    }
}
