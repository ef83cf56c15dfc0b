//! The utilization→power model and cap→quota conversion.
//!
//! Following the paper's monitoring stack (PowerAPI software-defined
//! power meters, §4), **container power is the dynamic, utilization-
//! proportional share only**:
//!
//! ```text
//! P(container) = per_core_dynamic × cores × utilization
//!              (+ gpu_dynamic × utilization, when the GPU is attached)
//! ```
//!
//! The host's idle power is *not* attributed to containers — it is the
//! system baseline ("the system-wide power also shows a small amount
//! baseline power required to run the ecovisor", Fig. 5d) and appears
//! only in [`crate::cop::Cop::total_power`]. Power caps are enforced by
//! "limiting the utilization per core" via cgroup-style quotas (§2,
//! following Thunderbolt): a cap constrains the container's dynamic
//! power, so any positive cap yields some progress — which is what makes
//! the paper's low-solar vertical-scaling experiments (§5.4) feasible.
//!
//! Servers are not energy-proportional (§5.4): the un-attributed idle
//! floor is exactly why operating nodes near 100 % utilization is the
//! most energy-efficient point.

use serde::{Deserialize, Serialize};

use simkit::units::Watts;

use crate::container::{Container, ContainerState};
use crate::server::ServerSpec;

/// Power model for a server type.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerModel {
    spec: ServerSpec,
}

impl PowerModel {
    /// Builds a model from a server spec.
    pub fn new(spec: ServerSpec) -> Self {
        Self { spec }
    }

    /// Host idle power apportioned to `cores` cores (used for cluster
    /// baseline accounting, not for container attribution).
    pub fn idle_share(&self, cores: u32) -> Watts {
        self.spec.idle_power * (f64::from(cores) / f64::from(self.spec.cores))
    }

    /// Dynamic power attributed to a container at the given utilization
    /// (fraction of its allocated cores, `[0, 1]`), including optional
    /// GPU dynamic power.
    pub fn container_power(&self, cores: u32, utilization: f64, gpu: bool) -> Watts {
        let u = utilization.clamp(0.0, 1.0);
        let dynamic = self.spec.per_core_dynamic_power() * f64::from(cores) * u;
        let gpu_dynamic = if gpu {
            self.spec.gpu_dynamic_power() * u
        } else {
            Watts::ZERO
        };
        dynamic + gpu_dynamic
    }

    /// Maximum dynamic power a container can draw (utilization 1.0).
    pub fn container_max_power(&self, cores: u32, gpu: bool) -> Watts {
        self.container_power(cores, 1.0, gpu)
    }

    /// Converts a power cap into the CPU quota (utilization ceiling) that
    /// enforces it — the cgroup mechanism from the paper. Caps at or
    /// above the container's maximum dynamic power yield quota 1;
    /// non-positive caps yield quota 0.
    pub fn quota_for_cap(&self, cores: u32, gpu: bool, cap: Watts) -> f64 {
        let denom = self.container_max_power(cores, gpu);
        if denom <= Watts::ZERO {
            return if cap >= Watts::ZERO { 1.0 } else { 0.0 };
        }
        (cap / denom).clamp(0.0, 1.0)
    }

    /// Power attributed to a [`Container`] given its current effective
    /// utilization and lifecycle state. Suspended and stopped containers
    /// draw nothing (the freezer releases their cycles).
    pub(crate) fn power_of(&self, container: &Container) -> Watts {
        match container.state() {
            ContainerState::Running => self.container_power(
                container.spec().cores,
                container.effective_utilization(),
                container.spec().gpu,
            ),
            _ => Watts::ZERO,
        }
    }

    /// Whole-server power at a given total utilization in `[0, 1]`
    /// (idle floor plus dynamic span).
    pub fn server_power(&self, utilization: f64) -> Watts {
        let u = utilization.clamp(0.0, 1.0);
        self.spec.idle_power + self.spec.cpu_dynamic_power() * u
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::{AppId, ContainerId, ContainerSpec};
    use crate::server::{ServerId, ServerSpec};

    fn model() -> PowerModel {
        PowerModel::new(ServerSpec::microserver())
    }

    #[test]
    fn full_server_container_draws_dynamic_span() {
        // Microserver: 5 W busy − 1.35 W idle = 3.65 W dynamic.
        let p = model().container_power(4, 1.0, false);
        assert!((p.watts() - 3.65).abs() < 1e-9);
    }

    #[test]
    fn idle_container_draws_nothing() {
        assert_eq!(model().container_power(4, 0.0, false), Watts::ZERO);
        assert_eq!(model().container_power(2, 0.0, false), Watts::ZERO);
    }

    #[test]
    fn idle_share_still_apportions_host_floor() {
        assert!((model().idle_share(4).watts() - 1.35).abs() < 1e-9);
        assert!((model().idle_share(1).watts() - 0.3375).abs() < 1e-9);
    }

    #[test]
    fn gpu_container_adds_gpu_dynamic_power() {
        let m = PowerModel::new(ServerSpec::microserver_with_gpu());
        // CPU dynamic 3.65 + GPU dynamic 5.0 = 8.65 W at peak.
        let p = m.container_power(4, 1.0, true);
        assert!((p.watts() - 8.65).abs() < 1e-9);
    }

    #[test]
    fn quota_for_cap_is_exact() {
        let m = model();
        for cap_w in [0.5, 1.0, 2.0, 3.65] {
            let quota = m.quota_for_cap(4, false, Watts::new(cap_w));
            let power = m.container_power(4, quota, false);
            assert!(
                (power.watts() - cap_w).abs() < 1e-9,
                "cap {cap_w}: power {power}"
            );
        }
    }

    #[test]
    fn small_caps_still_allow_progress() {
        // Sub-idle caps used to starve containers; dynamic-only caps
        // always grant proportional utilization.
        let q = model().quota_for_cap(4, false, Watts::new(0.5));
        assert!(q > 0.1, "quota {q}");
    }

    #[test]
    fn cap_extremes() {
        assert_eq!(model().quota_for_cap(4, false, Watts::new(100.0)), 1.0);
        assert_eq!(model().quota_for_cap(4, false, Watts::ZERO), 0.0);
        assert_eq!(model().quota_for_cap(4, false, Watts::new(-1.0)), 0.0);
    }

    #[test]
    fn power_of_respects_state() {
        let m = model();
        let mut c = Container::new(
            ContainerId::new(1),
            AppId::new(1),
            ContainerSpec::quad_core(),
            ServerId::new(0),
        );
        c.set_demand(1.0);
        assert!((m.power_of(&c).watts() - 3.65).abs() < 1e-9);
        c.set_state(ContainerState::Suspended);
        assert_eq!(m.power_of(&c), Watts::ZERO);
    }

    #[test]
    fn server_power_interpolates() {
        let m = model();
        assert!((m.server_power(0.0).watts() - 1.35).abs() < 1e-9);
        assert!((m.server_power(1.0).watts() - 5.0).abs() < 1e-9);
        assert!((m.server_power(0.5).watts() - (1.35 + 3.65 / 2.0)).abs() < 1e-9);
    }

    #[test]
    fn utilization_clamped() {
        let m = model();
        assert_eq!(
            m.container_power(4, 2.0, false),
            m.container_power(4, 1.0, false)
        );
        assert_eq!(m.container_power(4, -1.0, false), Watts::ZERO);
    }
}
