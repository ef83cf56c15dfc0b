//! The §5.1 BLAST application.
//!
//! Stands in for "an elastic version of BLAST-470, which can horizontally
//! scale the number of containers it uses at runtime". BLAST "is
//! embarrassingly parallel, and thus scales up much more efficiently" —
//! until "BLAST's central queue server becomes a bottleneck when serving
//! tasks to more than 3× workers" (§5.1.2). The baseline is 8 cores, so
//! the queue saturates at 24 cores: W&S 4× (32 cores) buys no runtime but
//! costs extra idle power — exactly Fig. 4b's right edge.

use crate::batch::BatchJob;
use crate::scaling::QueueBottleneck;

/// Baseline allocation (the paper runs BLAST on 8 cores).
const BLAST_BASELINE_CORES: u32 = 8;

/// The central queue server saturates at 3× the baseline.
const BLAST_SATURATION_CORES: f64 = 24.0;

/// Ideal baseline runtime on 8 cores, in hours (Fig. 4b's carbon-agnostic
/// configuration completes in ~20 minutes).
const BLAST_BASELINE_HOURS: f64 = 1.0 / 3.0;

/// Busy-spin fraction while waiting on the central queue server —
/// workers poll for tasks, so 4× pays extra energy for no speedup.
const BLAST_SPIN: f64 = 0.20;

/// Builds the BLAST job.
pub fn blast_job() -> BatchJob {
    BatchJob::new(
        BLAST_BASELINE_HOURS * f64::from(BLAST_BASELINE_CORES),
        Box::new(QueueBottleneck::new(BLAST_SATURATION_CORES)),
    )
    .with_spin(BLAST_SPIN)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_runtime_matches_calibration() {
        let job = blast_job();
        let t = job.ideal_runtime_hours(8.0);
        assert!((t - BLAST_BASELINE_HOURS).abs() < 1e-9);
    }

    #[test]
    fn linear_until_3x_flat_at_4x() {
        let job = blast_job();
        let t8 = job.ideal_runtime_hours(8.0);
        let t16 = job.ideal_runtime_hours(16.0);
        let t24 = job.ideal_runtime_hours(24.0);
        let t32 = job.ideal_runtime_hours(32.0);
        assert!((t8 / t16 - 2.0).abs() < 1e-9, "2x is linear");
        assert!((t8 / t24 - 3.0).abs() < 1e-9, "3x is linear");
        assert!((t32 - t24).abs() < 1e-9, "4x adds nothing");
    }
}
