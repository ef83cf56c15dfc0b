//! The §5.1 machine-learning training application.
//!
//! Stands in for "PyTorch ... train\[ing\] a Resnet34 model on the CIFAR100
//! dataset for five epochs". What Fig. 4a depends on is the job's scaling
//! behaviour: synchronization delays make scaling past 2× barely
//! worthwhile ("Wait&Scale (3×) increases carbon emissions by 14.94% ...
//! while reducing the runtime by only 12.3%", §5.1.2). The σ here is
//! calibrated so the 4→8→12-core speedup ratios land in that regime.

use crate::batch::BatchJob;
use crate::scaling::SyncOverhead;

/// Synchronization overhead calibrated to the paper's ResNet-34 scaling.
const ML_SYNC_SIGMA: f64 = 0.15;

/// Fraction of synchronization wait time burned as busy-spin CPU
/// (allreduce polling). Drives the extra energy Wait&Scale 3× pays.
const ML_SPIN: f64 = 0.30;

/// Baseline allocation: the paper runs the carbon-agnostic and
/// suspend-resume configurations on 4 cores.
const ML_BASELINE_CORES: u32 = 4;

/// Ideal baseline runtime of the five-epoch training job on 4 cores, in
/// hours (Fig. 4a's carbon-agnostic configuration completes in ~2.5 h).
const ML_BASELINE_HOURS: f64 = 2.5;

/// Builds the ML training job.
pub fn ml_training_job() -> BatchJob {
    let scaling = SyncOverhead::new(ML_SYNC_SIGMA);
    // Size the work so the baseline allocation finishes in
    // ML_BASELINE_HOURS of uninterrupted execution.
    let speedup_at_baseline = {
        use crate::scaling::ScalingModel;
        scaling.speedup(f64::from(ML_BASELINE_CORES))
    };
    BatchJob::new(ML_BASELINE_HOURS * speedup_at_baseline, Box::new(scaling)).with_spin(ML_SPIN)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_runtime_matches_calibration() {
        let job = ml_training_job();
        let t = job.ideal_runtime_hours(4.0);
        assert!((t - ML_BASELINE_HOURS).abs() < 1e-9, "baseline {t} h");
    }

    #[test]
    fn scaling_lands_in_paper_regime() {
        let job = ml_training_job();
        let t4 = job.ideal_runtime_hours(4.0);
        let t8 = job.ideal_runtime_hours(8.0);
        let t12 = job.ideal_runtime_hours(12.0);
        // 2x helps substantially but sub-linearly.
        let gain_2x = t4 / t8;
        assert!((1.2..1.8).contains(&gain_2x), "2x speedup {gain_2x}");
        // 3x over 2x adds only a modest improvement (paper: ~12%).
        let gain_3x_over_2x = (t8 - t12) / t8;
        assert!(
            (0.05..0.30).contains(&gain_3x_over_2x),
            "3x marginal gain {gain_3x_over_2x}"
        );
    }
}
