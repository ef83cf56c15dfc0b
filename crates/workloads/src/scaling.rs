//! Speedup curves: how effective throughput grows with allocated cores.
//!
//! A [`ScalingModel`] maps allocated cores to *effective parallel cores*
//! (throughput in core-equivalents of useful work). The ratio
//! `speedup(c)/c` is the workers' busy fraction — the paper's
//! synchronization delays and queue bottlenecks appear as worker idleness,
//! which in turn decides how much *extra idle power* scaling up costs.

use serde::{Deserialize, Serialize};

/// Maps allocated cores to effective throughput (in core-equivalents).
pub trait ScalingModel: Send + Sync {
    /// Effective parallel cores when `cores` are allocated.
    ///
    /// Must satisfy `0 <= speedup(c) <= c`, be monotonically
    /// non-decreasing, and have `speedup(0) = 0`.
    fn speedup(&self, cores: f64) -> f64;

    /// Busy fraction of allocated workers: `speedup(c) / c` (1 when no
    /// cores are allocated, by convention).
    fn utilization(&self, cores: f64) -> f64 {
        if cores <= 0.0 {
            1.0
        } else {
            (self.speedup(cores) / cores).clamp(0.0, 1.0)
        }
    }
}

/// Perfect linear scaling: `speedup(c) = c`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct LinearScaling;

impl ScalingModel for LinearScaling {
    fn speedup(&self, cores: f64) -> f64 {
        cores.max(0.0)
    }
}

/// Synchronization-overhead scaling (iterative ML training):
/// `speedup(c) = c / (1 + σ·(c − 1))`.
///
/// σ is the per-worker coordination cost; as the paper observes for
/// ResNet training, "scaling up requires more coordination among nodes,
/// which causes synchronization delays that limit speed-up and decrease
/// energy-efficiency" (§5.1.2).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct SyncOverhead {
    /// Per-worker synchronization cost σ ≥ 0.
    sigma: f64,
}

impl SyncOverhead {
    /// Creates the model.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative.
    pub(crate) fn new(sigma: f64) -> Self {
        assert!(sigma >= 0.0, "sync overhead must be non-negative");
        Self { sigma }
    }
}

impl ScalingModel for SyncOverhead {
    fn speedup(&self, cores: f64) -> f64 {
        if cores <= 0.0 {
            return 0.0;
        }
        cores / (1.0 + self.sigma * (cores - 1.0).max(0.0))
    }
}

/// Central-queue bottleneck scaling (BLAST-470): linear up to
/// `saturation_cores`, flat beyond — "BLAST's central queue server
/// becomes a bottleneck when serving tasks to more than 3× workers"
/// (§5.1.2).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct QueueBottleneck {
    /// Cores beyond which added workers contribute nothing.
    saturation_cores: f64,
}

impl QueueBottleneck {
    /// Creates the model.
    ///
    /// # Panics
    ///
    /// Panics if `saturation_cores` is not positive.
    pub(crate) fn new(saturation_cores: f64) -> Self {
        assert!(saturation_cores > 0.0, "saturation must be positive");
        Self { saturation_cores }
    }
}

impl ScalingModel for QueueBottleneck {
    fn speedup(&self, cores: f64) -> f64 {
        cores.max(0.0).min(self.saturation_cores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_is_identity() {
        let m = LinearScaling;
        assert_eq!(m.speedup(8.0), 8.0);
        assert_eq!(m.speedup(-1.0), 0.0);
        assert_eq!(m.utilization(8.0), 1.0);
    }

    #[test]
    fn sync_overhead_diminishes() {
        let m = SyncOverhead::new(0.15);
        let s4 = m.speedup(4.0);
        let s8 = m.speedup(8.0);
        let s12 = m.speedup(12.0);
        assert!(s4 < 4.0);
        assert!(s8 > s4 && s12 > s8, "monotone");
        // Diminishing returns: each doubling helps less.
        let gain_2x = s8 / s4;
        let gain_3x = s12 / s8;
        assert!(gain_2x < 2.0);
        assert!(gain_3x < gain_2x);
        // Utilization falls with scale (more sync idling).
        assert!(m.utilization(12.0) < m.utilization(4.0));
    }

    #[test]
    fn sync_overhead_zero_sigma_is_linear() {
        let m = SyncOverhead::new(0.0);
        assert_eq!(m.speedup(10.0), 10.0);
    }

    #[test]
    fn bottleneck_flat_after_saturation() {
        let m = QueueBottleneck::new(24.0);
        assert_eq!(m.speedup(8.0), 8.0);
        assert_eq!(m.speedup(24.0), 24.0);
        assert_eq!(m.speedup(32.0), 24.0);
        // Beyond saturation workers idle: utilization drops.
        assert!(m.utilization(32.0) < 1.0);
        assert_eq!(m.utilization(16.0), 1.0);
    }

    #[test]
    fn speedup_never_exceeds_cores() {
        let models: Vec<Box<dyn ScalingModel>> = vec![
            Box::new(LinearScaling),
            Box::new(SyncOverhead::new(0.2)),
            Box::new(QueueBottleneck::new(12.0)),
        ];
        for m in &models {
            for c in [0.0, 1.0, 4.0, 7.5, 16.0, 64.0] {
                assert!(m.speedup(c) <= c + 1e-12);
                assert!(m.speedup(c) >= 0.0);
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_sigma_rejected() {
        SyncOverhead::new(-0.1);
    }
}
