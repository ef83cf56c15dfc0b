//! Containers: the unit of resource allocation and energy management.

use std::fmt;

use serde::{Deserialize, Serialize};

use simkit::units::Watts;

use crate::server::ServerId;

/// Identifies an application (tenant) owning containers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct AppId(u32);

impl AppId {
    /// Creates an application id from a raw integer.
    pub const fn new(id: u32) -> Self {
        Self(id)
    }

    /// Raw integer value.
    pub const fn value(self) -> u32 {
        self.0
    }
}

impl fmt::Display for AppId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "app{}", self.0)
    }
}

/// Identifies a container instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ContainerId(u64);

impl ContainerId {
    /// Creates a container id from a raw integer.
    pub const fn new(id: u64) -> Self {
        Self(id)
    }

    /// Raw integer value.
    pub const fn value(self) -> u64 {
        self.0
    }
}

impl fmt::Display for ContainerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// Requested resources for a container.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ContainerSpec {
    /// CPU cores allocated.
    pub cores: u32,
    /// Memory reservation in MiB.
    pub memory_mib: u64,
    /// Whether the container uses the host's GPU (Jetson Nano in the
    /// prototype; doubles max power draw).
    pub(crate) gpu: bool,
}

impl ContainerSpec {
    /// A container filling one whole microserver (4 cores, 4 GiB).
    pub fn quad_core() -> Self {
        Self {
            cores: 4,
            memory_mib: 4096,
            gpu: false,
        }
    }

    /// A single-core container with 1 GiB.
    pub fn single_core() -> Self {
        Self {
            cores: 1,
            memory_mib: 1024,
            gpu: false,
        }
    }

    /// Builder-style: request `cores` cores (1 GiB per core).
    pub fn with_cores(cores: u32) -> Self {
        Self {
            cores,
            memory_mib: 1024 * u64::from(cores),
            gpu: false,
        }
    }

    /// Builder-style: attach the GPU.
    pub fn with_gpu(mut self) -> Self {
        self.gpu = true;
        self
    }
}

/// Lifecycle state of a container.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ContainerState {
    /// Scheduled and executing; consumes idle + dynamic power.
    #[default]
    Running,
    /// Frozen (cgroup freezer): retains placement and memory but runs no
    /// cycles and draws no attributed power in our model. Basis of
    /// suspend-resume policies.
    Suspended,
    /// Destroyed; retained only for accounting history.
    Stopped,
}

/// A container instance with its cgroup-style runtime controls.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Container {
    id: ContainerId,
    owner: AppId,
    spec: ContainerSpec,
    server: ServerId,
    state: ContainerState,
    /// cgroup cpu-quota analogue: fraction of the *allocated cores* the
    /// container may use, in `[0, 1]`.
    cpu_quota: f64,
    /// Workload CPU demand as a fraction of allocated cores, in `[0, 1]`.
    demand: f64,
    /// Application-set power cap, if any (Table 1
    /// `get_container_powercap` reports exactly what the app set).
    power_cap: Option<Watts>,
    /// Ecovisor-installed cap component (carbon-rate enforcement). Kept
    /// separate from `power_cap` so enforcement never clobbers the
    /// app's own setting; the quota enforces `min` of the two.
    carbon_cap: Option<Watts>,
}

impl Container {
    /// Creates a running container (used by the COP).
    pub(crate) fn new(
        id: ContainerId,
        owner: AppId,
        spec: ContainerSpec,
        server: ServerId,
    ) -> Self {
        Self {
            id,
            owner,
            spec,
            server,
            state: ContainerState::Running,
            cpu_quota: 1.0,
            demand: 0.0,
            power_cap: None,
            carbon_cap: None,
        }
    }

    /// Container id.
    pub fn id(&self) -> ContainerId {
        self.id
    }

    /// Owning application.
    pub fn owner(&self) -> AppId {
        self.owner
    }

    /// Resource spec.
    pub fn spec(&self) -> ContainerSpec {
        self.spec
    }

    /// Hosting server.
    pub fn server(&self) -> ServerId {
        self.server
    }

    /// Lifecycle state.
    pub fn state(&self) -> ContainerState {
        self.state
    }

    pub(crate) fn set_state(&mut self, state: ContainerState) {
        self.state = state;
    }

    /// Current CPU quota in `[0, 1]` (fraction of allocated cores).
    pub fn cpu_quota(&self) -> f64 {
        self.cpu_quota
    }

    pub(crate) fn set_cpu_quota(&mut self, quota: f64) {
        self.cpu_quota = quota.clamp(0.0, 1.0);
    }

    /// Current workload demand in `[0, 1]`.
    pub fn demand(&self) -> f64 {
        self.demand
    }

    pub(crate) fn set_demand(&mut self, demand: f64) {
        self.demand = demand.clamp(0.0, 1.0);
    }

    /// The application-set power cap, if one is set.
    pub fn power_cap(&self) -> Option<Watts> {
        self.power_cap
    }

    pub(crate) fn set_power_cap(&mut self, cap: Option<Watts>) {
        self.power_cap = cap;
    }

    pub(crate) fn set_carbon_cap(&mut self, cap: Option<Watts>) {
        self.carbon_cap = cap;
    }

    /// The cap the quota actually enforces: `min` of the app-set cap and
    /// the ecovisor's carbon cap, `None` when neither is active.
    pub(crate) fn effective_power_cap(&self) -> Option<Watts> {
        match (self.power_cap, self.carbon_cap) {
            (Some(user), Some(carbon)) => Some(user.min(carbon)),
            (one, other) => one.or(other),
        }
    }

    /// Effective utilization this tick: demand clipped by quota, zero
    /// unless running.
    pub(crate) fn effective_utilization(&self) -> f64 {
        match self.state {
            ContainerState::Running => self.demand.min(self.cpu_quota),
            _ => 0.0,
        }
    }

    /// Effective compute capacity in core-equivalents
    /// (`cores × effective_utilization`) — what workload models consume.
    pub fn effective_cores(&self) -> f64 {
        f64::from(self.spec.cores) * self.effective_utilization()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn container() -> Container {
        Container::new(
            ContainerId::new(1),
            AppId::new(9),
            ContainerSpec::quad_core(),
            ServerId::new(0),
        )
    }

    #[test]
    fn ids_display() {
        assert_eq!(AppId::new(3).to_string(), "app3");
        assert_eq!(ContainerId::new(12).to_string(), "c12");
    }

    #[test]
    fn effective_utilization_clips_demand_by_quota() {
        let mut c = container();
        c.set_demand(0.9);
        c.set_cpu_quota(0.5);
        assert_eq!(c.effective_utilization(), 0.5);
        assert_eq!(c.effective_cores(), 2.0);
        c.set_cpu_quota(1.0);
        assert_eq!(c.effective_utilization(), 0.9);
    }

    #[test]
    fn suspended_containers_have_no_utilization() {
        let mut c = container();
        c.set_demand(1.0);
        c.set_state(ContainerState::Suspended);
        assert_eq!(c.effective_utilization(), 0.0);
        c.set_state(ContainerState::Running);
        assert_eq!(c.effective_utilization(), 1.0);
    }

    #[test]
    fn quota_and_demand_clamped() {
        let mut c = container();
        c.set_cpu_quota(7.0);
        assert_eq!(c.cpu_quota(), 1.0);
        c.set_cpu_quota(-1.0);
        assert_eq!(c.cpu_quota(), 0.0);
        c.set_demand(2.0);
        assert_eq!(c.demand(), 1.0);
    }

    #[test]
    fn spec_builders() {
        let s = ContainerSpec::with_cores(3);
        assert_eq!(s.cores, 3);
        assert_eq!(s.memory_mib, 3072);
        assert!(!s.gpu);
        assert!(ContainerSpec::quad_core().with_gpu().gpu);
    }
}
