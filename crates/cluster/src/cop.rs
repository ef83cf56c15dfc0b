//! The container orchestration platform (COP) API.
//!
//! [`Cop`] provides the LXD-like management surface the ecovisor wraps
//! (§3.1, §4): launching and destroying containers (horizontal scaling),
//! suspend/resume, cgroup-style CPU quotas (vertical scaling), power-cap
//! enforcement through quotas, and per-container/app/cluster power
//! attribution.

use std::collections::BTreeMap;

use simkit::units::Watts;

use crate::container::{AppId, Container, ContainerId, ContainerSpec, ContainerState};
use crate::error::CopError;
use crate::power::PowerModel;
use crate::scheduler::fewest_containers;
use crate::server::{Server, ServerId, ServerSpec};

/// Cluster composition for a [`Cop`].
#[derive(Debug, Clone)]
pub struct CopConfig {
    /// Spec of each server in the cluster.
    pub servers: Vec<ServerSpec>,
}

impl CopConfig {
    /// A cluster of `n` ARM microservers (the paper's prototype).
    pub fn microserver_cluster(n: u32) -> Self {
        Self {
            servers: (0..n).map(|_| ServerSpec::microserver()).collect(),
        }
    }

    /// A microserver cluster where the first `gpus` nodes carry a GPU
    /// ("some of which have an attached NVIDIA Jetson Nano GPU", §4).
    pub fn microserver_cluster_with_gpus(n: u32, gpus: u32) -> Self {
        Self {
            servers: (0..n)
                .map(|i| {
                    if i < gpus {
                        ServerSpec::microserver_with_gpu()
                    } else {
                        ServerSpec::microserver()
                    }
                })
                .collect(),
        }
    }

    /// A cluster of `n` Dell PowerEdge R430s (the paper's conventional
    /// testbed for simulated power sources).
    pub fn poweredge_cluster(n: u32) -> Self {
        Self {
            servers: (0..n).map(|_| ServerSpec::poweredge_r430()).collect(),
        }
    }
}

/// The container orchestration platform.
pub struct Cop {
    servers: Vec<Server>,
    models: Vec<PowerModel>,
    containers: BTreeMap<ContainerId, Container>,
    /// Every owner's container ids (stopped history included), ascending.
    /// Derived from `containers` and kept in step with it by `launch`,
    /// `remove_app_containers`, `adopt_containers` and `restore`, so the
    /// per-owner accessors cost the owner's containers, not the
    /// platform's. Not part of [`CopSnapshot`].
    by_owner: BTreeMap<AppId, Vec<ContainerId>>,
    next_id: u64,
}

impl std::fmt::Debug for Cop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cop")
            .field("servers", &self.servers.len())
            .field("containers", &self.containers.len())
            .finish_non_exhaustive()
    }
}

impl Cop {
    /// Creates a COP over the given cluster.
    ///
    /// # Panics
    ///
    /// Panics if the config has no servers or any server spec is invalid.
    pub fn new(config: CopConfig) -> Self {
        assert!(!config.servers.is_empty(), "cluster must have servers");
        let servers: Vec<Server> = config
            .servers
            .iter()
            .enumerate()
            .map(|(i, spec)| Server::new(ServerId::new(i as u32), *spec))
            .collect();
        let models = config.servers.iter().map(|s| PowerModel::new(*s)).collect();
        Self {
            servers,
            models,
            containers: BTreeMap::new(),
            by_owner: BTreeMap::new(),
            next_id: 0,
        }
    }

    /// Launches a container for `owner` on the server
    /// [`fewest_containers`] picks.
    ///
    /// # Errors
    ///
    /// [`CopError::InsufficientCapacity`] when no server fits the spec.
    pub fn launch(&mut self, owner: AppId, spec: ContainerSpec) -> Result<ContainerId, CopError> {
        let sid =
            fewest_containers(&self.servers, &spec).ok_or(CopError::InsufficientCapacity {
                cores: spec.cores,
                memory_mib: spec.memory_mib,
            })?;
        let server = self
            .servers
            .iter_mut()
            .find(|s| s.id() == sid)
            .expect("placement returned a valid id");
        server.reserve(spec.cores, spec.memory_mib);
        let id = ContainerId::new(self.next_id);
        self.next_id += 1;
        self.containers
            .insert(id, Container::new(id, owner, spec, sid));
        // `next_id` is above every id ever inserted, so pushing keeps
        // the owner's list ascending.
        self.by_owner.entry(owner).or_default().push(id);
        Ok(id)
    }

    /// Destroys a container, releasing its resources. The container is
    /// retained in `Stopped` state for accounting history.
    ///
    /// # Errors
    ///
    /// [`CopError::UnknownContainer`] if absent; [`CopError::InvalidState`]
    /// if already stopped.
    pub fn stop(&mut self, id: ContainerId) -> Result<(), CopError> {
        let container = self
            .containers
            .get_mut(&id)
            .ok_or(CopError::UnknownContainer(id))?;
        if container.state() == ContainerState::Stopped {
            return Err(CopError::InvalidState {
                container: id,
                reason: "already stopped".into(),
            });
        }
        let (cores, mem, sid) = (
            container.spec().cores,
            container.spec().memory_mib,
            container.server(),
        );
        container.set_state(ContainerState::Stopped);
        self.server_mut(sid).release(cores, mem);
        Ok(())
    }

    /// Freezes a running container (retains placement, zero utilization).
    ///
    /// # Errors
    ///
    /// [`CopError::UnknownContainer`] / [`CopError::InvalidState`].
    pub fn suspend(&mut self, id: ContainerId) -> Result<(), CopError> {
        let c = self
            .containers
            .get_mut(&id)
            .ok_or(CopError::UnknownContainer(id))?;
        match c.state() {
            ContainerState::Running => {
                c.set_state(ContainerState::Suspended);
                Ok(())
            }
            _ => Err(CopError::InvalidState {
                container: id,
                reason: "only running containers can be suspended".into(),
            }),
        }
    }

    /// Thaws a suspended container.
    ///
    /// # Errors
    ///
    /// [`CopError::UnknownContainer`] / [`CopError::InvalidState`].
    pub fn resume(&mut self, id: ContainerId) -> Result<(), CopError> {
        let c = self
            .containers
            .get_mut(&id)
            .ok_or(CopError::UnknownContainer(id))?;
        match c.state() {
            ContainerState::Suspended => {
                c.set_state(ContainerState::Running);
                Ok(())
            }
            _ => Err(CopError::InvalidState {
                container: id,
                reason: "only suspended containers can be resumed".into(),
            }),
        }
    }

    /// Sets (or clears) a container's application-visible power cap —
    /// the Table 1 `set_container_powercap` mechanism. Enforcement goes
    /// through the CPU quota (§2/§4 cgroups); the quota honors the
    /// tighter of this cap and any ecovisor-installed
    /// [carbon cap](Self::set_carbon_cap).
    ///
    /// # Errors
    ///
    /// [`CopError::UnknownContainer`] if absent.
    pub fn set_power_cap(&mut self, id: ContainerId, cap: Option<Watts>) -> Result<(), CopError> {
        self.containers
            .get_mut(&id)
            .ok_or(CopError::UnknownContainer(id))?
            .set_power_cap(cap);
        self.refresh_quota(id);
        Ok(())
    }

    /// Sets (or clears) the ecovisor's carbon-enforcement cap component.
    /// Kept separate from the app's [`Self::set_power_cap`] so
    /// carbon-rate enforcement never clobbers (and is never clobbered
    /// by) the application's own setting; the quota enforces
    /// `min(user cap, carbon cap)`.
    ///
    /// # Errors
    ///
    /// [`CopError::UnknownContainer`] if absent.
    pub fn set_carbon_cap(&mut self, id: ContainerId, cap: Option<Watts>) -> Result<(), CopError> {
        self.containers
            .get_mut(&id)
            .ok_or(CopError::UnknownContainer(id))?
            .set_carbon_cap(cap);
        self.refresh_quota(id);
        Ok(())
    }

    /// Recomputes a container's CPU quota from its effective power cap,
    /// via the host server's power model.
    fn refresh_quota(&mut self, id: ContainerId) {
        let c = self.containers.get_mut(&id).expect("caller verified");
        let model = self.models[c.server().value() as usize];
        match c.effective_power_cap() {
            Some(cap) => {
                let quota = model.quota_for_cap(c.spec().cores, c.spec().gpu, cap);
                c.set_cpu_quota(quota);
            }
            None => c.set_cpu_quota(1.0),
        }
    }

    /// Sets a container's CPU quota directly (vertical scaling).
    ///
    /// # Errors
    ///
    /// [`CopError::UnknownContainer`] if absent.
    pub fn set_cpu_quota(&mut self, id: ContainerId, quota: f64) -> Result<(), CopError> {
        let c = self
            .containers
            .get_mut(&id)
            .ok_or(CopError::UnknownContainer(id))?;
        c.set_cpu_quota(quota);
        Ok(())
    }

    /// Sets a container's workload CPU demand for the current tick.
    ///
    /// # Errors
    ///
    /// [`CopError::UnknownContainer`] if absent.
    pub fn set_demand(&mut self, id: ContainerId, demand: f64) -> Result<(), CopError> {
        let c = self
            .containers
            .get_mut(&id)
            .ok_or(CopError::UnknownContainer(id))?;
        c.set_demand(demand);
        Ok(())
    }

    /// Looks up a container.
    pub fn container(&self, id: ContainerId) -> Option<&Container> {
        self.containers.get(&id)
    }

    /// Every container of an app — stopped ones included, since they are
    /// retained for accounting history — in id order, through the
    /// per-owner index: the cost is the owner's containers, whatever the
    /// platform holds.
    pub fn owned_by(&self, owner: AppId) -> impl Iterator<Item = &Container> + '_ {
        self.by_owner
            .get(&owner)
            .into_iter()
            .flatten()
            .map(|id| &self.containers[id])
    }

    /// All live (running or suspended) containers of an app, in id order.
    pub fn containers_of(&self, owner: AppId) -> Vec<&Container> {
        self.owned_by(owner)
            .filter(|c| c.state() != ContainerState::Stopped)
            .collect()
    }

    /// Ids of an app's live containers, in id order.
    pub fn container_ids_of(&self, owner: AppId) -> Vec<ContainerId> {
        self.owned_by(owner)
            .filter(|c| c.state() != ContainerState::Stopped)
            .map(|c| c.id())
            .collect()
    }

    /// Number of running containers for an app.
    pub fn running_count(&self, owner: AppId) -> usize {
        self.owned_by(owner)
            .filter(|c| c.state() == ContainerState::Running)
            .count()
    }

    /// Power attributed to `container`, which must be one of this
    /// platform's (its server picks the power model).
    pub fn power_of(&self, container: &Container) -> Watts {
        self.models[container.server().value() as usize].power_of(container)
    }

    /// Power attributed to one container.
    ///
    /// # Errors
    ///
    /// [`CopError::UnknownContainer`] if absent.
    pub fn container_power(&self, id: ContainerId) -> Result<Watts, CopError> {
        self.containers
            .get(&id)
            .map(|c| self.power_of(c))
            .ok_or(CopError::UnknownContainer(id))
    }

    /// Power attributed to all of an app's containers.
    pub fn app_power(&self, owner: AppId) -> Watts {
        self.owned_by(owner).map(|c| self.power_of(c)).sum()
    }

    /// Effective compute capacity of an app in core-equivalents.
    pub fn app_effective_cores(&self, owner: AppId) -> f64 {
        self.owned_by(owner).map(Container::effective_cores).sum()
    }

    /// Total cluster power: every server's idle power (the unattributed
    /// "baseline power" visible in the paper's Fig. 5d) plus the dynamic
    /// power of all running containers.
    pub fn total_power(&self) -> Watts {
        let idle: Watts = self.servers.iter().map(|s| s.spec().idle_power).sum();
        let dynamic: Watts = self.containers.values().map(|c| self.power_of(c)).sum();
        idle + dynamic
    }

    /// Immutable view of the servers.
    pub fn servers(&self) -> &[Server] {
        &self.servers
    }

    /// The next container id this COP would allocate. Together with
    /// [`align_container_id`](Self::align_container_id) this is the
    /// federation coordinator's cursor surface: ids are allocated from a
    /// node-local counter, so a coordinator that partitions tenants over
    /// several COPs aligns each node's counter to a global cursor before
    /// dispatching launches, keeping allocation identical to a
    /// single-node run.
    pub fn next_container_id(&self) -> u64 {
        self.next_id
    }

    /// Advances the container-id counter to `next`.
    ///
    /// # Errors
    ///
    /// Moving the counter backwards would let a future launch reuse a
    /// live id; such a request is refused with a description.
    pub fn align_container_id(&mut self, next: u64) -> Result<(), String> {
        if next < self.next_id {
            return Err(format!(
                "container-id cursor cannot move backwards ({next} < {})",
                self.next_id
            ));
        }
        self.next_id = next;
        Ok(())
    }

    /// Removes every container owned by `owner` (stopped history
    /// included), releasing the server reservations of live ones.
    /// Returns the removed containers in id order.
    pub fn remove_app_containers(&mut self, owner: AppId) -> Vec<Container> {
        let ids = self.by_owner.remove(&owner).unwrap_or_default();
        let mut removed = Vec::with_capacity(ids.len());
        for id in ids {
            let c = self.containers.remove(&id).expect("indexed ids exist");
            if c.state() != ContainerState::Stopped {
                let (cores, mem, sid) = (c.spec().cores, c.spec().memory_mib, c.server());
                self.server_mut(sid).release(cores, mem);
            }
            removed.push(c);
        }
        removed
    }

    /// Adopts containers captured on another COP (a migrating tenant's),
    /// preserving their ids, placement, caps, and state. All-or-nothing:
    /// every container is validated — and live ones checked against the
    /// target servers' free capacity — before anything is inserted.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem: an id collision, a
    /// duplicate in the input, an out-of-range server reference, a GPU
    /// container on a GPU-less server, or insufficient capacity.
    pub fn adopt_containers(&mut self, adopted: &[Container]) -> Result<(), String> {
        let mut seen = std::collections::BTreeSet::new();
        let mut required: BTreeMap<ServerId, (u32, u64)> = BTreeMap::new();
        for c in adopted {
            if self.containers.contains_key(&c.id()) {
                return Err(format!("container id {} already exists here", c.id()));
            }
            if !seen.insert(c.id()) {
                return Err(format!("duplicate container id {} in transfer", c.id()));
            }
            let sid = c.server();
            let Some(server) = self.servers.iter().find(|s| s.id() == sid) else {
                return Err(format!(
                    "container {} references unknown server {sid}",
                    c.id()
                ));
            };
            if c.spec().gpu && !server.spec().has_gpu() {
                return Err(format!(
                    "container {} needs a GPU but server {sid} has none",
                    c.id()
                ));
            }
            if c.state() != ContainerState::Stopped {
                let need = required.entry(sid).or_insert((0, 0));
                need.0 += c.spec().cores;
                need.1 += c.spec().memory_mib;
            }
        }
        for (&sid, &(cores, mem)) in &required {
            let server = self
                .servers
                .iter()
                .find(|s| s.id() == sid)
                .expect("checked");
            if server.free_cores() < cores || server.free_memory_mib() < mem {
                return Err(format!(
                    "server {sid} lacks capacity for migrating containers \
                     ({cores} cores / {mem} MiB needed)"
                ));
            }
        }
        let mut max_id = self.next_id;
        for c in adopted {
            if c.state() != ContainerState::Stopped {
                let (cores, mem, sid) = (c.spec().cores, c.spec().memory_mib, c.server());
                self.server_mut(sid).reserve(cores, mem);
            }
            max_id = max_id.max(c.id().value() + 1);
            self.containers.insert(c.id(), c.clone());
            // Adopted ids arrive in any order and may sit below ids the
            // owner already holds here.
            let ids = self.by_owner.entry(c.owner()).or_default();
            let at = ids.partition_point(|&held| held < c.id());
            ids.insert(at, c.id());
        }
        self.next_id = max_id;
        Ok(())
    }

    /// Power model of the server hosting `id`, if the container exists.
    pub fn model_for(&self, id: ContainerId) -> Option<&PowerModel> {
        self.containers
            .get(&id)
            .map(|c| &self.models[c.server().value() as usize])
    }

    fn server_mut(&mut self, id: ServerId) -> &mut Server {
        self.servers
            .iter_mut()
            .find(|s| s.id() == id)
            .expect("server ids are stable")
    }

    /// Captures the COP's dynamic state for checkpointing.
    ///
    /// The power models are *not* captured: they are rebuilt
    /// deterministically from the server specs. There is no placement
    /// state to capture — where the next container goes is a pure
    /// function of the restored server occupancy.
    pub fn snapshot(&self) -> CopSnapshot {
        CopSnapshot {
            servers: self.servers.clone(),
            containers: self.containers.values().cloned().collect(),
            next_id: self.next_id,
        }
    }

    /// Restores dynamic state captured by [`Cop::snapshot`].
    ///
    /// The receiving COP must have been built over the *same cluster
    /// composition* (server count and specs). Power models are rebuilt
    /// from the restored specs.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural mismatch: server
    /// count or spec divergence, a container referencing an out-of-range
    /// server, a duplicate container id, or an id at or above `next_id`.
    pub fn restore(&mut self, snap: &CopSnapshot) -> Result<(), String> {
        if snap.servers.len() != self.servers.len() {
            return Err(format!(
                "snapshot has {} servers, cluster has {}",
                snap.servers.len(),
                self.servers.len()
            ));
        }
        for (have, want) in self.servers.iter().zip(&snap.servers) {
            if have.id() != want.id() {
                return Err(format!(
                    "snapshot server id {} does not match cluster server id {}",
                    want.id(),
                    have.id()
                ));
            }
            if have.spec() != want.spec() {
                return Err(format!("server {} spec differs from snapshot", have.id()));
            }
        }
        let mut containers = BTreeMap::new();
        for c in &snap.containers {
            if c.server().value() as usize >= snap.servers.len() {
                return Err(format!(
                    "container {} references unknown server {}",
                    c.id(),
                    c.server()
                ));
            }
            if c.id().value() >= snap.next_id {
                return Err(format!(
                    "container id {} is at or above next_id {}",
                    c.id(),
                    snap.next_id
                ));
            }
            if containers.insert(c.id(), c.clone()).is_some() {
                return Err(format!("duplicate container id {} in snapshot", c.id()));
            }
        }
        self.servers = snap.servers.clone();
        self.models = snap
            .servers
            .iter()
            .map(|s| PowerModel::new(*s.spec()))
            .collect();
        self.by_owner = BTreeMap::new();
        for c in containers.values() {
            self.by_owner.entry(c.owner()).or_default().push(c.id());
        }
        self.containers = containers;
        self.next_id = snap.next_id;
        Ok(())
    }
}

/// Serializable dynamic state of a [`Cop`], captured by [`Cop::snapshot`]
/// and reinstated by [`Cop::restore`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CopSnapshot {
    /// Per-server occupancy bookkeeping, in id order (specs included so
    /// restore can verify the cluster composition matches).
    pub servers: Vec<Server>,
    /// Every container ever launched — stopped ones included, since they
    /// are retained for accounting history — in id order.
    pub containers: Vec<Container>,
    /// Next container id to allocate.
    pub next_id: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cop() -> Cop {
        Cop::new(CopConfig::microserver_cluster(4))
    }

    #[test]
    fn launch_and_stop_lifecycle() {
        let mut cop = cop();
        let app = AppId::new(1);
        let id = cop.launch(app, ContainerSpec::quad_core()).expect("fits");
        assert_eq!(cop.running_count(app), 1);
        cop.stop(id).expect("stoppable");
        assert_eq!(cop.running_count(app), 0);
        assert_eq!(
            cop.container(id).expect("retained").state(),
            ContainerState::Stopped
        );
        // Double stop is an error.
        assert!(matches!(cop.stop(id), Err(CopError::InvalidState { .. })));
    }

    #[test]
    fn capacity_exhaustion() {
        let mut cop = Cop::new(CopConfig::microserver_cluster(2));
        let app = AppId::new(1);
        cop.launch(app, ContainerSpec::quad_core())
            .expect("first fits");
        cop.launch(app, ContainerSpec::quad_core())
            .expect("second fits");
        let err = cop.launch(app, ContainerSpec::quad_core()).unwrap_err();
        assert!(matches!(
            err,
            CopError::InsufficientCapacity { cores: 4, .. }
        ));
        // Stopping frees capacity.
        let ids = cop.container_ids_of(app);
        cop.stop(ids[0]).expect("stoppable");
        assert!(cop.launch(app, ContainerSpec::quad_core()).is_ok());
    }

    #[test]
    fn suspend_resume_round_trip() {
        let mut cop = cop();
        let app = AppId::new(1);
        let id = cop.launch(app, ContainerSpec::quad_core()).expect("fits");
        cop.set_demand(id, 1.0).expect("exists");
        cop.suspend(id).expect("running");
        assert_eq!(cop.container_power(id).expect("exists"), Watts::ZERO);
        assert!(matches!(
            cop.suspend(id),
            Err(CopError::InvalidState { .. })
        ));
        cop.resume(id).expect("suspended");
        assert!(cop.container_power(id).expect("exists") > Watts::ZERO);
    }

    #[test]
    fn power_cap_converts_to_quota() {
        let mut cop = cop();
        let app = AppId::new(1);
        let id = cop.launch(app, ContainerSpec::quad_core()).expect("fits");
        cop.set_demand(id, 1.0).expect("exists");
        cop.set_power_cap(id, Some(Watts::new(3.0)))
            .expect("exists");
        let c = cop.container(id).expect("exists");
        assert_eq!(c.power_cap(), Some(Watts::new(3.0)));
        let p = cop.container_power(id).expect("exists");
        assert!(
            (p.watts() - 3.0).abs() < 1e-9,
            "power {p} should sit at the cap"
        );
        // Clearing the cap restores full quota.
        cop.set_power_cap(id, None).expect("exists");
        assert_eq!(cop.container(id).expect("exists").cpu_quota(), 1.0);
    }

    #[test]
    fn carbon_cap_composes_with_user_cap() {
        let mut cop = cop();
        let app = AppId::new(1);
        let id = cop.launch(app, ContainerSpec::quad_core()).expect("fits");
        cop.set_demand(id, 1.0).expect("exists");
        cop.set_power_cap(id, Some(Watts::new(3.0)))
            .expect("exists");
        cop.set_carbon_cap(id, Some(Watts::new(2.0)))
            .expect("exists");
        // Effective = min(3, 2) = 2; the app-visible cap stays 3.
        assert_eq!(
            cop.container(id).expect("exists").power_cap(),
            Some(Watts::new(3.0))
        );
        let p = cop.container_power(id).expect("exists");
        assert!((p.watts() - 2.0).abs() < 1e-9, "capped power {p}");
        // Clearing the carbon component restores the user cap.
        cop.set_carbon_cap(id, None).expect("exists");
        let p = cop.container_power(id).expect("exists");
        assert!((p.watts() - 3.0).abs() < 1e-9, "user-capped power {p}");
        // A carbon cap looser than the user cap does not tighten it.
        cop.set_carbon_cap(id, Some(Watts::new(10.0)))
            .expect("exists");
        let p = cop.container_power(id).expect("exists");
        assert!((p.watts() - 3.0).abs() < 1e-9, "loose carbon cap {p}");
        // Clearing both restores full quota.
        cop.set_carbon_cap(id, None).expect("exists");
        cop.set_power_cap(id, None).expect("exists");
        assert_eq!(cop.container(id).expect("exists").cpu_quota(), 1.0);
    }

    #[test]
    fn app_power_and_effective_cores() {
        let mut cop = cop();
        let app = AppId::new(1);
        let other = AppId::new(2);
        let a = cop.launch(app, ContainerSpec::quad_core()).expect("fits");
        let b = cop.launch(app, ContainerSpec::quad_core()).expect("fits");
        let c = cop.launch(other, ContainerSpec::quad_core()).expect("fits");
        for id in [a, b, c] {
            cop.set_demand(id, 1.0).expect("exists");
        }
        assert!((cop.app_power(app).watts() - 7.3).abs() < 1e-9);
        assert!((cop.app_effective_cores(app) - 8.0).abs() < 1e-12);
        assert!((cop.app_power(other).watts() - 3.65).abs() < 1e-9);
    }

    #[test]
    fn total_power_includes_unallocated_idle() {
        let mut cop = Cop::new(CopConfig::microserver_cluster(4));
        // Empty cluster: 4 × 1.35 W idle.
        assert!((cop.total_power().watts() - 5.4).abs() < 1e-9);
        let app = AppId::new(1);
        let id = cop.launch(app, ContainerSpec::quad_core()).expect("fits");
        cop.set_demand(id, 1.0).expect("exists");
        // One saturated server adds 3.65 W of dynamic power.
        assert!((cop.total_power().watts() - (5.4 + 3.65)).abs() < 1e-9);
    }

    #[test]
    fn placement_spreads_across_servers() {
        let mut cop = Cop::new(CopConfig::microserver_cluster(3));
        let app = AppId::new(1);
        let ids: Vec<ContainerId> = (0..3)
            .map(|_| cop.launch(app, ContainerSpec::single_core()).expect("fits"))
            .collect();
        let mut hosts: Vec<ServerId> = ids
            .iter()
            .map(|id| cop.container(*id).expect("exists").server())
            .collect();
        hosts.sort();
        hosts.dedup();
        assert_eq!(hosts.len(), 3);
    }

    #[test]
    fn gpu_containers_need_gpu_servers() {
        let mut cop = Cop::new(CopConfig::microserver_cluster_with_gpus(3, 1));
        let app = AppId::new(1);
        let spec = ContainerSpec::quad_core().with_gpu();
        let id = cop.launch(app, spec).expect("one gpu server");
        assert_eq!(
            cop.container(id).expect("exists").server(),
            ServerId::new(0)
        );
        // Second GPU container cannot fit.
        assert!(cop.launch(app, spec).is_err());
    }

    #[test]
    fn unknown_container_errors() {
        let mut cop = cop();
        let ghost = ContainerId::new(999);
        assert!(matches!(
            cop.stop(ghost),
            Err(CopError::UnknownContainer(_))
        ));
        assert!(matches!(
            cop.set_demand(ghost, 1.0),
            Err(CopError::UnknownContainer(_))
        ));
        assert!(matches!(
            cop.set_power_cap(ghost, None),
            Err(CopError::UnknownContainer(_))
        ));
        assert!(cop.container_power(ghost).is_err());
    }
}
