//! Physical servers hosting containers.
//!
//! Models the paper's prototype hardware (§4): ARM microservers with a
//! quad-core Cortex A53 and 4 GiB of memory, drawing 1.35 W at idle, 5 W
//! at 100 % CPU, and 10 W with the Jetson Nano GPU also saturated. A
//! conventional-server spec (the Dell PowerEdge R430 cluster the paper
//! used for larger simulated runs) is provided as well.

use std::fmt;

use serde::{Deserialize, Serialize};

use simkit::units::Watts;

/// Identifies a server in the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ServerId(u32);

impl ServerId {
    /// Creates a server id from a raw integer.
    pub(crate) const fn new(id: u32) -> Self {
        Self(id)
    }

    /// Raw integer value.
    pub const fn value(self) -> u32 {
        self.0
    }
}

impl fmt::Display for ServerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "srv{}", self.0)
    }
}

/// Static description of one server model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServerSpec {
    /// CPU cores.
    pub(crate) cores: u32,
    /// Memory in MiB.
    pub(crate) memory_mib: u64,
    /// Power drawn with zero utilization.
    pub(crate) idle_power: Watts,
    /// Power drawn at 100 % CPU utilization (all cores busy, no GPU).
    max_cpu_power: Watts,
    /// Power drawn at 100 % CPU + GPU utilization, when a GPU is present.
    max_gpu_power: Option<Watts>,
}

impl ServerSpec {
    /// The paper's ARM microserver: 4 cores, 4 GiB, 1.35/5 W, optional
    /// Jetson Nano GPU reaching 10 W.
    pub(crate) fn microserver() -> Self {
        Self {
            cores: 4,
            memory_mib: 4096,
            idle_power: Watts::new(1.35),
            max_cpu_power: Watts::new(5.0),
            max_gpu_power: None,
        }
    }

    /// A microserver with the Jetson Nano GPU attached.
    pub fn microserver_with_gpu() -> Self {
        Self {
            max_gpu_power: Some(Watts::new(10.0)),
            ..Self::microserver()
        }
    }

    /// `true` when a GPU is attached.
    pub(crate) fn has_gpu(&self) -> bool {
        self.max_gpu_power.is_some()
    }

    /// Dynamic power span of the CPU (max − idle).
    pub(crate) fn cpu_dynamic_power(&self) -> Watts {
        self.max_cpu_power - self.idle_power
    }

    /// Dynamic power of one core at 100 % utilization.
    pub(crate) fn per_core_dynamic_power(&self) -> Watts {
        self.cpu_dynamic_power() / f64::from(self.cores.max(1))
    }

    /// Extra dynamic power of the GPU at full utilization (0 without one).
    pub(crate) fn gpu_dynamic_power(&self) -> Watts {
        match self.max_gpu_power {
            Some(max) => max - self.max_cpu_power,
            None => Watts::ZERO,
        }
    }

    /// Validates invariants.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    fn validate(&self) -> Result<(), String> {
        if self.cores == 0 {
            return Err("server must have at least one core".into());
        }
        if self.idle_power.watts() < 0.0 {
            return Err("idle power must be non-negative".into());
        }
        if self.max_cpu_power < self.idle_power {
            return Err("max CPU power must be at least idle power".into());
        }
        if let Some(g) = self.max_gpu_power {
            if g < self.max_cpu_power {
                return Err("max GPU power must be at least max CPU power".into());
            }
        }
        Ok(())
    }
}

/// Runtime placement bookkeeping for one server.
#[derive(Debug, Clone, PartialEq)]
pub struct Server {
    id: ServerId,
    spec: ServerSpec,
    cores_used: u32,
    memory_used_mib: u64,
    container_count: usize,
}

impl Server {
    /// Creates an empty server.
    ///
    /// # Panics
    ///
    /// Panics if the spec is invalid.
    pub(crate) fn new(id: ServerId, spec: ServerSpec) -> Self {
        spec.validate().expect("invalid server spec");
        Self {
            id,
            spec,
            cores_used: 0,
            memory_used_mib: 0,
            container_count: 0,
        }
    }

    /// Server id.
    pub(crate) fn id(&self) -> ServerId {
        self.id
    }

    /// Static spec.
    pub fn spec(&self) -> &ServerSpec {
        &self.spec
    }

    /// Number of containers currently placed here.
    pub fn container_count(&self) -> usize {
        self.container_count
    }

    /// Cores not yet reserved.
    pub(crate) fn free_cores(&self) -> u32 {
        self.spec.cores - self.cores_used
    }

    /// Memory not yet reserved, in MiB.
    pub(crate) fn free_memory_mib(&self) -> u64 {
        self.spec.memory_mib - self.memory_used_mib
    }

    /// `true` when a container with the given requirements fits.
    pub(crate) fn fits(&self, cores: u32, memory_mib: u64, needs_gpu: bool) -> bool {
        self.free_cores() >= cores
            && self.free_memory_mib() >= memory_mib
            && (!needs_gpu || self.spec.has_gpu())
    }

    /// Reserves resources for a placed container.
    ///
    /// # Panics
    ///
    /// Panics if the container does not fit (callers must check
    /// [`fits`](Self::fits) first).
    pub(crate) fn reserve(&mut self, cores: u32, memory_mib: u64) {
        assert!(
            self.free_cores() >= cores && self.free_memory_mib() >= memory_mib,
            "reserve called without capacity"
        );
        self.cores_used += cores;
        self.memory_used_mib += memory_mib;
        self.container_count += 1;
    }

    /// Releases resources of a removed container.
    pub(crate) fn release(&mut self, cores: u32, memory_mib: u64) {
        self.cores_used = self.cores_used.saturating_sub(cores);
        self.memory_used_mib = self.memory_used_mib.saturating_sub(memory_mib);
        self.container_count = self.container_count.saturating_sub(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn microserver_constants_match_paper() {
        let s = ServerSpec::microserver();
        assert_eq!(s.cores, 4);
        assert_eq!(s.idle_power, Watts::new(1.35));
        assert_eq!(s.max_cpu_power, Watts::new(5.0));
        assert!(s.validate().is_ok());
        let g = ServerSpec::microserver_with_gpu();
        assert_eq!(g.max_gpu_power, Some(Watts::new(10.0)));
        assert_eq!(g.gpu_dynamic_power(), Watts::new(5.0));
    }

    #[test]
    fn per_core_dynamic_power() {
        let s = ServerSpec::microserver();
        assert!((s.per_core_dynamic_power().watts() - (5.0 - 1.35) / 4.0).abs() < 1e-12);
    }

    #[test]
    fn reserve_and_release() {
        let mut s = Server::new(ServerId::new(0), ServerSpec::microserver());
        assert!(s.fits(4, 4096, false));
        s.reserve(2, 1024);
        assert_eq!(s.free_cores(), 2);
        assert_eq!(s.container_count(), 1);
        assert!(!s.fits(4, 1, false));
        s.release(2, 1024);
        assert_eq!(s.free_cores(), 4);
        assert_eq!(s.container_count(), 0);
    }

    #[test]
    fn gpu_requirement_respected() {
        let s = Server::new(ServerId::new(0), ServerSpec::microserver());
        assert!(!s.fits(1, 256, true));
        let g = Server::new(ServerId::new(1), ServerSpec::microserver_with_gpu());
        assert!(g.fits(1, 256, true));
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn reserve_without_capacity_panics() {
        let mut s = Server::new(ServerId::new(0), ServerSpec::microserver());
        s.reserve(5, 1);
    }

    #[test]
    fn invalid_specs_rejected() {
        let mut s = ServerSpec::microserver();
        s.cores = 0;
        assert!(s.validate().is_err());
        let mut s2 = ServerSpec::microserver();
        s2.max_cpu_power = Watts::new(1.0);
        assert!(s2.validate().is_err());
        let mut s3 = ServerSpec::microserver_with_gpu();
        s3.max_gpu_power = Some(Watts::new(2.0));
        assert!(s3.validate().is_err());
    }
}
