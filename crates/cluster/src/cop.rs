//! The container orchestration platform (COP) API.
//!
//! [`Cop`] provides the LXD-like management surface the ecovisor wraps
//! (§3.1, §4): launching and destroying containers (horizontal scaling),
//! suspend/resume, cgroup-style CPU quotas (vertical scaling), power-cap
//! enforcement through quotas, and per-container/app/cluster power
//! attribution.

use simkit::units::Watts;
use simkit::IdMap;

use crate::container::{AppId, Container, ContainerId, ContainerSpec, ContainerState};
use crate::error::CopError;
use crate::power::PowerModel;
use crate::scheduler::LoadIndex;
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
}

/// The container orchestration platform.
pub struct Cop {
    servers: Vec<Server>,
    models: Vec<PowerModel>,
    containers: IdMap<ContainerId, Container>,
    /// Every owner's container ids (stopped history included), ascending.
    /// Derived from `containers` and kept in step with it by `launch`,
    /// `remove_app_containers` and `adopt_containers`, so the per-owner
    /// accessors cost the owner's containers, not the platform's.
    by_owner: IdMap<AppId, Vec<ContainerId>>,
    /// The servers in placement order, derived from `servers` and kept in
    /// step with them by `reserve` and `release` (and rebuilt by
    /// `adopt_containers`), so a launch walks to its pick instead of
    /// scanning the cluster.
    load: LoadIndex,
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
            load: LoadIndex::new(&servers),
            servers,
            models,
            containers: IdMap::new(),
            by_owner: IdMap::new(),
            next_id: 0,
        }
    }

    /// Launches a container for `owner` on the server LXD's rule picks:
    /// the one with the fewest containers that fits `spec`, ties by lowest
    /// id. The pick is the first server in the load index that fits, so a
    /// launch costs O(log servers) while the least-loaded servers fit, and
    /// at worst (every server with fewer containers lacks the capacity or
    /// the GPU) as much as a scan of every server.
    ///
    /// # Errors
    ///
    /// [`CopError::InsufficientCapacity`] when no server fits the spec.
    pub fn launch(&mut self, owner: AppId, spec: ContainerSpec) -> Result<ContainerId, CopError> {
        let (pick, _) = self.load.place(&self.servers, &spec);
        let sid = pick.ok_or(CopError::InsufficientCapacity {
            cores: spec.cores,
            memory_mib: spec.memory_mib,
        })?;
        self.reserve(sid, spec);
        let id = ContainerId::new(self.next_id);
        self.next_id += 1;
        self.containers
            .insert(id, Container::new(id, owner, spec, sid));
        // `next_id` is above every id ever inserted, so pushing keeps
        // the owner's list ascending.
        if let Some(ids) = self.by_owner.get_mut(&owner) {
            ids.push(id);
        } else {
            self.by_owner.insert(owner, vec![id]);
        }
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
        let (spec, sid) = (container.spec(), container.server());
        container.set_state(ContainerState::Stopped);
        self.release(sid, spec);
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
    /// [`CopError::UnknownContainer`] if absent; [`CopError::InvalidState`]
    /// if `cap` is NaN, which gives no quota.
    pub fn set_power_cap(&mut self, id: ContainerId, cap: Option<Watts>) -> Result<(), CopError> {
        let c = self
            .containers
            .get_mut(&id)
            .ok_or(CopError::UnknownContainer(id))?;
        refuse_nan_cap(id, cap)?;
        c.set_power_cap(cap);
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
    /// [`CopError::UnknownContainer`] if absent; [`CopError::InvalidState`]
    /// if `cap` is NaN, which gives no quota.
    pub fn set_carbon_cap(&mut self, id: ContainerId, cap: Option<Watts>) -> Result<(), CopError> {
        let c = self
            .containers
            .get_mut(&id)
            .ok_or(CopError::UnknownContainer(id))?;
        refuse_nan_cap(id, cap)?;
        c.set_carbon_cap(cap);
        self.refresh_quota(id);
        Ok(())
    }

    /// Recomputes a container's CPU quota from its effective power cap.
    fn refresh_quota(&mut self, id: ContainerId) {
        let quota = self.quota_of(self.containers.get(&id).expect("caller verified"));
        let c = self.containers.get_mut(&id).expect("caller verified");
        c.set_cpu_quota(quota);
    }

    /// The CPU quota `c`'s effective power cap gives it on its server,
    /// which must be one of this platform's.
    fn quota_of(&self, c: &Container) -> f64 {
        let model = self.models[c.server().value() as usize];
        c.effective_power_cap().map_or(1.0, |cap| {
            model.quota_for_cap(c.spec().cores, c.spec().gpu, cap)
        })
    }

    /// Sets a container's workload CPU demand for the current tick,
    /// clamped to `[0, 1]`.
    ///
    /// # Errors
    ///
    /// [`CopError::UnknownContainer`] if absent; [`CopError::InvalidState`]
    /// if `demand` is NaN, which no clamp brings into `[0, 1]`.
    pub fn set_demand(&mut self, id: ContainerId, demand: f64) -> Result<(), CopError> {
        let c = self
            .containers
            .get_mut(&id)
            .ok_or(CopError::UnknownContainer(id))?;
        if demand.is_nan() {
            return Err(CopError::InvalidState {
                container: id,
                reason: "demand is not a number".into(),
            });
        }
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
            .map(|id| self.containers.get(id).expect("indexed ids exist"))
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
        if self.by_owner.remove(&owner).is_none() {
            return Vec::new();
        }
        let removed = self.containers.remove_where(|c| c.owner() == owner);
        for c in removed
            .iter()
            .filter(|c| c.state() != ContainerState::Stopped)
        {
            self.release(c.server(), c.spec());
        }
        removed
    }

    /// Adopts containers captured on another COP (a migrating tenant's,
    /// or every tenant's of a checkpoint), preserving their ids,
    /// placement, caps, and state. All-or-nothing: every container is
    /// validated — and live ones checked against the target servers'
    /// free capacity — before anything is inserted. Linear in the
    /// containers held and adopted, plus one sort of them and one of the
    /// servers.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem: an id collision, a
    /// duplicate in the input, an out-of-range server reference, a GPU
    /// container on a GPU-less server, a demand outside [0, 1], a CPU
    /// quota its power caps do not give, or insufficient capacity.
    pub fn adopt_containers<'a, I>(&mut self, adopted: I) -> Result<(), String>
    where
        I: IntoIterator<Item = &'a Container>,
        I::IntoIter: Clone,
    {
        let adopted = adopted.into_iter();
        let mut seen = std::collections::BTreeSet::new();
        // By server id: server ids are their places, `0..n`. Summed in
        // `u64`: a transfer's cores may add past `u32::MAX`.
        let mut required = vec![(0u64, 0u64); self.servers.len()];
        for c in adopted.clone() {
            if self.containers.contains_key(&c.id()) {
                return Err(format!("container id {} already exists here", c.id()));
            }
            if !seen.insert(c.id()) {
                return Err(format!("duplicate container id {} in transfer", c.id()));
            }
            let sid = c.server();
            let Some(server) = self.servers.get(sid.value() as usize) else {
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
            // What a launch and the setters keep: a demand within
            // [0, 1] (`set_demand` clamps and refuses NaN), caps that
            // are numbers (the cap setters refuse NaN), and the quota
            // the caps give.
            if !(0.0..=1.0).contains(&c.demand()) {
                return Err(format!("container {} has a demand outside [0, 1]", c.id()));
            }
            if [c.power_cap(), c.carbon_cap()]
                .into_iter()
                .flatten()
                .any(|cap| cap.watts().is_nan())
            {
                return Err(format!(
                    "container {} carries a cap that is not a number",
                    c.id()
                ));
            }
            if c.cpu_quota().to_bits() != self.quota_of(c).to_bits() {
                return Err(format!(
                    "container {} runs at a CPU quota its power caps do not give it",
                    c.id()
                ));
            }
            if c.state() != ContainerState::Stopped {
                let need = &mut required[sid.value() as usize];
                let cores = need.0.checked_add(c.spec().cores.into());
                let mem = need.1.checked_add(c.spec().memory_mib);
                let (Some(cores), Some(mem)) = (cores, mem) else {
                    return Err(format!(
                        "migrating containers on server {sid} overflow a 64-bit sum"
                    ));
                };
                *need = (cores, mem);
            }
        }
        for (server, &(cores, mem)) in self.servers.iter().zip(&required) {
            if u64::from(server.free_cores()) < cores || server.free_memory_mib() < mem {
                return Err(format!(
                    "server {} lacks capacity for migrating containers \
                     ({cores} cores / {mem} MiB needed)",
                    server.id()
                ));
            }
        }
        let mut max_id = self.next_id;
        for c in adopted.clone() {
            if c.state() != ContainerState::Stopped {
                let server = &mut self.servers[c.server().value() as usize];
                server.reserve(c.spec().cores, c.spec().memory_mib);
            }
            max_id = max_id.max(c.id().value() + 1);
        }
        // One rebuild after every reservation, not a re-key per container.
        self.load = LoadIndex::new(&self.servers);
        // Adopted ids arrive in any order and may sit below ids held
        // here: one sort places them all, and the owner index is rebuilt.
        self.containers.extend(adopted.map(|c| (c.id(), c.clone())));
        self.by_owner = index_owners(&self.containers);
        self.next_id = max_id;
        Ok(())
    }

    /// Reserves a `spec` container on server `sid` (server ids are their
    /// places, `0..n`) and re-keys the server in the load index: with
    /// `release`, the one way a launch or a removal moves occupancy.
    fn reserve(&mut self, sid: ServerId, spec: ContainerSpec) {
        let server = &mut self.servers[sid.value() as usize];
        let from = server.container_count();
        server.reserve(spec.cores, spec.memory_mib);
        self.load.moved(from, server);
    }

    /// Releases a `spec` container's reservation on server `sid` and
    /// re-keys the server in the load index.
    fn release(&mut self, sid: ServerId, spec: ContainerSpec) {
        let server = &mut self.servers[sid.value() as usize];
        let from = server.container_count();
        server.release(spec.cores, spec.memory_mib);
        self.load.moved(from, server);
    }
}

/// Refuses a NaN cap: it gives no quota, and settlement would read it
/// as no cap at all.
fn refuse_nan_cap(id: ContainerId, cap: Option<Watts>) -> Result<(), CopError> {
    if cap.is_some_and(|cap| cap.watts().is_nan()) {
        return Err(CopError::InvalidState {
            container: id,
            reason: "cap is not a number".into(),
        });
    }
    Ok(())
}

/// Every owner's container ids, ascending: one sort of the owners, then
/// one walk of the table in id order.
fn index_owners(containers: &IdMap<ContainerId, Container>) -> IdMap<AppId, Vec<ContainerId>> {
    let mut owners: IdMap<_, Vec<_>> = containers.values().map(|c| (c.owner(), vec![])).collect();
    for c in containers.values() {
        owners.get_mut(&c.owner()).expect("collected").push(c.id());
    }
    owners
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
        let mut cop = Cop::new(CopConfig {
            servers: vec![
                ServerSpec::microserver_with_gpu(),
                ServerSpec::microserver(),
                ServerSpec::microserver(),
            ],
        });
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

#[cfg(test)]
mod properties {
    //! Randomized property tests of the COP: capacity accounting, cap→quota
    //! round-trips, and placement feasibility under arbitrary launch/stop
    //! sequences.
    //!
    //! Cases are generated from a fixed-seed [`SimRng`] stream (the offline
    //! replacement for proptest), so failures are exactly reproducible.

    use crate::power::PowerModel;
    use crate::scheduler::{fewest_containers, LoadIndex};
    use crate::server::Server;
    use crate::{
        AppId, Container, ContainerId, ContainerSpec, ContainerState, Cop, CopConfig, ServerSpec,
    };
    use simkit::rng::SimRng;
    use simkit::units::Watts;
    use std::collections::BTreeMap;

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Launch(u32),
        StopOldest,
        SuspendNewest,
        Cap(f64),
    }

    fn arb_op(rng: &mut SimRng) -> Op {
        match rng.uniform_u64(0, 4) {
            0 => Op::Launch(rng.uniform_u64(1, 5) as u32),
            1 => Op::StopOldest,
            2 => Op::SuspendNewest,
            _ => Op::Cap(rng.uniform(0.0, 6.0)),
        }
    }

    /// Server reservations never go negative or exceed capacity, across
    /// arbitrary operation sequences, and placement never double-books.
    #[test]
    fn capacity_accounting_holds() {
        let mut rng = SimRng::from_seed(4004).fork("capacity_accounting_holds");
        for _ in 0..128 {
            let servers = rng.uniform_u64(1, 8) as u32;
            let ops: Vec<Op> = (0..rng.uniform_u64(1, 60))
                .map(|_| arb_op(&mut rng))
                .collect();
            let mut cop = Cop::new(CopConfig::microserver_cluster(servers));
            let app = AppId::new(1);
            let mut live: Vec<ContainerId> = Vec::new();
            for op in ops {
                match op {
                    Op::Launch(cores) => {
                        if let Ok(id) = cop.launch(app, ContainerSpec::with_cores(cores)) {
                            live.push(id);
                        }
                    }
                    Op::StopOldest => {
                        if !live.is_empty() {
                            let id = live.remove(0);
                            let _ = cop.stop(id);
                        }
                    }
                    Op::SuspendNewest => {
                        if let Some(id) = live.last() {
                            let _ = cop.suspend(*id);
                        }
                    }
                    Op::Cap(w) => {
                        if let Some(id) = live.last() {
                            let _ = cop.set_power_cap(*id, Some(Watts::new(w)));
                        }
                    }
                }
                for s in cop.servers() {
                    assert!(s.free_cores() <= s.spec().cores);
                    assert!(s.free_memory_mib() <= s.spec().memory_mib);
                }
                // Sum of live containers' cores never exceeds cluster cores.
                let used: u32 = live
                    .iter()
                    .filter_map(|id| cop.container(*id))
                    .map(|c| c.spec().cores)
                    .sum();
                assert!(used <= servers * 4);
            }
        }
    }

    /// For any cap, the enforced container power never exceeds the cap, and
    /// caps at/above max dynamic power leave the quota at 1.
    #[test]
    fn cap_quota_roundtrip() {
        let mut rng = SimRng::from_seed(4004).fork("cap_quota_roundtrip");
        for _ in 0..128 {
            let cores = rng.uniform_u64(1, 5) as u32;
            let cap_w = rng.uniform(0.0, 10.0);
            let demand = rng.unit();
            let model = PowerModel::new(ServerSpec::microserver());
            let quota = model.quota_for_cap(cores, false, Watts::new(cap_w));
            let u = demand.min(quota);
            let power = model.container_power(cores, u, false);
            assert!(
                power.watts() <= cap_w + 1e-9,
                "power {power} exceeds cap {cap_w}"
            );
            if cap_w >= model.container_max_power(cores, false).watts() {
                assert_eq!(quota, 1.0);
            }
        }
    }

    /// Cluster power is the idle floor plus attributed dynamic power — total
    /// power minus idle equals the sum over container powers.
    #[test]
    fn total_power_decomposes() {
        let mut rng = SimRng::from_seed(4004).fork("total_power_decomposes");
        for _ in 0..128 {
            let n = rng.uniform_u64(1, 6) as u32;
            let demands: Vec<f64> = (0..rng.uniform_u64(1, 6)).map(|_| rng.unit()).collect();
            let mut cop = Cop::new(CopConfig::microserver_cluster(n * 2));
            let app = AppId::new(1);
            let mut ids = Vec::new();
            for d in &demands {
                if let Ok(id) = cop.launch(app, ContainerSpec::quad_core()) {
                    cop.set_demand(id, *d).unwrap();
                    ids.push(id);
                }
            }
            let idle: f64 = cop
                .servers()
                .iter()
                .map(|s| s.spec().idle_power.watts())
                .sum();
            let attributed: f64 = ids
                .iter()
                .map(|id| cop.container_power(*id).unwrap().watts())
                .sum();
            let total = cop.total_power().watts();
            assert!(
                (total - idle - attributed).abs() < 1e-9,
                "total {total} != idle {idle} + attributed {attributed}"
            );
        }
    }

    /// Every container the platform holds, in id order, probed id by id
    /// below its cursor (every id is allocated from it).
    fn all_containers(cop: &Cop) -> Vec<Container> {
        (0..cop.next_container_id())
            .filter_map(|id| cop.container(ContainerId::new(id)).cloned())
            .collect()
    }

    /// Everything a refused call must leave as it was: the containers, each
    /// server's occupancy, the load index and the id cursor.
    fn state(cop: &Cop) -> (Vec<Container>, Vec<Server>, LoadIndex, u64) {
        (
            all_containers(cop),
            cop.servers().to_vec(),
            cop.load.clone(),
            cop.next_container_id(),
        )
    }

    /// Asserts that every per-owner accessor agrees with its definition as a
    /// scan of the whole platform in id order — floats bit for bit, since
    /// settlement sums them in that order.
    fn assert_owner_index_matches_scan(cop: &Cop, owners: &[AppId]) {
        let all = all_containers(cop);
        for &owner in owners {
            let owned: Vec<&Container> = all.iter().filter(|c| c.owner() == owner).collect();
            let live: Vec<ContainerId> = owned
                .iter()
                .filter(|c| c.state() != ContainerState::Stopped)
                .map(|c| c.id())
                .collect();
            let ids = |cs: Vec<&Container>| cs.iter().map(|c| c.id()).collect::<Vec<_>>();
            assert_eq!(ids(cop.owned_by(owner).collect()), ids(owned.clone()));
            assert_eq!(cop.container_ids_of(owner), live);
            assert_eq!(
                cop.running_count(owner),
                owned
                    .iter()
                    .filter(|c| c.state() == ContainerState::Running)
                    .count()
            );
            let power: Watts = owned
                .iter()
                .map(|c| cop.container_power(c.id()).expect("scanned"))
                .sum();
            assert_eq!(
                cop.app_power(owner).watts().to_bits(),
                power.watts().to_bits()
            );
            let cores: f64 = owned.iter().map(|c| c.effective_cores()).sum();
            assert_eq!(cop.app_effective_cores(owner).to_bits(), cores.to_bits());
        }
    }

    /// The table answers `container(id)` as `model` (every
    /// container launched or adopted and not since evicted, with its owner
    /// and state) does; an evicted id and the next one to allocate are
    /// absent.
    fn assert_table_matches_model(
        cop: &Cop,
        model: &BTreeMap<ContainerId, (AppId, ContainerState)>,
        gone: &[ContainerId],
    ) {
        let listed = all_containers(cop);
        assert!(listed.iter().map(|c| c.id()).eq(model.keys().copied()));
        for (&id, &(owner, state)) in model {
            let c = cop.container(id).expect("modelled containers are held");
            assert_eq!((c.id(), c.owner(), c.state()), (id, owner, state));
        }
        let next = ContainerId::new(cop.next_container_id());
        for id in gone.iter().chain([&next]) {
            assert!(cop.container(*id).is_none(), "{id} is not held");
        }
    }

    /// The per-owner index stays equal to a full scan, the table to a
    /// `BTreeMap` model, the load index to one rebuilt from the servers, and
    /// every launch lands where a scan of the servers says, through every
    /// way the container map changes: launch, state changes, eviction of an
    /// owner, adoption (in any id order, below ids already held) and a
    /// fresh platform adopting them all. Some clusters mix GPU servers in
    /// and some launches want four cores or a GPU, so the walk must pass
    /// servers with fewer containers that do not fit.
    #[test]
    fn owner_index_matches_full_scan() {
        let mut rng = SimRng::from_seed(4004).fork("owner_index_matches_full_scan");
        // The last owner never launches: the accessors must answer for it too.
        let owners: Vec<AppId> = (1..=5).map(AppId::new).collect();
        let (mut adopted_below_held, mut refused, mut passed) = (0, 0, 0);
        for _ in 0..48 {
            let config = match rng.uniform_u64(0, 3) {
                0 => CopConfig::microserver_cluster(12),
                _ => CopConfig {
                    servers: (0..12)
                        .map(|_| match rng.uniform_u64(0, 3) {
                            0 => ServerSpec::microserver_with_gpu(),
                            _ => ServerSpec::microserver(),
                        })
                        .collect(),
                },
            };
            let mut cop = Cop::new(config.clone());
            let mut evicted: Vec<Vec<Container>> = Vec::new();
            let mut model = BTreeMap::new();
            for _ in 0..rng.uniform_u64(20, 90) {
                let owner = owners[rng.uniform_u64(0, 4) as usize];
                let known = all_containers(&cop);
                let pick = (!known.is_empty())
                    .then(|| known[rng.uniform_u64(0, known.len() as u64) as usize].id());
                match (rng.uniform_u64(0, 9), pick) {
                    (0..=2, _) => {
                        let spec = match rng.uniform_u64(0, 4) {
                            0 => ContainerSpec::with_cores(4),
                            1 => ContainerSpec::with_cores(1).with_gpu(),
                            2 => ContainerSpec::with_cores(4).with_gpu(),
                            _ => ContainerSpec::with_cores(1),
                        };
                        let want = fewest_containers(cop.servers(), &spec);
                        let (_, examined) = cop.load.place(cop.servers(), &spec);
                        passed += (want.is_some() && examined > 1) as u32;
                        match cop.launch(owner, spec) {
                            Ok(id) => {
                                let c = cop.container(id).expect("just launched");
                                assert_eq!(Some(c.server()), want, "{spec:?}");
                                cop.set_demand(id, rng.unit()).expect("just launched");
                                model.insert(id, (owner, ContainerState::Running));
                            }
                            Err(_) => assert_eq!(want, None, "{spec:?}"),
                        }
                    }
                    (3..=5, Some(id)) => {
                        let (done, state) = match rng.uniform_u64(0, 3) {
                            0 => (cop.stop(id), ContainerState::Stopped),
                            1 => (cop.suspend(id), ContainerState::Suspended),
                            _ => (cop.resume(id), ContainerState::Running),
                        };
                        if done.is_ok() {
                            model.get_mut(&id).expect("picked from the table").1 = state;
                        }
                    }
                    (6, _) => {
                        let out = cop.remove_app_containers(owner);
                        assert!(out.iter().all(|c| c.owner() == owner));
                        assert!(out.windows(2).all(|w| w[0].id() < w[1].id()));
                        model.retain(|_, &mut (o, _)| o != owner);
                        evicted.push(out);
                    }
                    (7, _) => {
                        if let Some(mut back) = evicted.pop() {
                            // Reversed: adoption must sort, not append.
                            back.reverse();
                            let before = state(&cop);
                            match cop.adopt_containers(&back) {
                                // What the owner launched since its eviction
                                // carries higher ids than what comes back.
                                Ok(()) => {
                                    adopted_below_held += back.first().is_some_and(|c| {
                                        before.0.iter().any(|b| b.owner() == c.owner())
                                    })
                                        as u32;
                                    for c in &back {
                                        model.insert(c.id(), (c.owner(), c.state()));
                                    }
                                }
                                Err(_) => {
                                    refused += 1;
                                    assert_eq!(state(&cop), before, "refused: unchanged");
                                }
                            }
                        }
                    }
                    (8, _) => {
                        // Occupancy is derived: a fresh platform that adopts
                        // every container matches the one they came from.
                        let mut twin = Cop::new(config.clone());
                        twin.align_container_id(cop.next_container_id())
                            .expect("a fresh cursor is 0");
                        twin.adopt_containers(&all_containers(&cop))
                            .expect("every container fits where it was");
                        assert_eq!(state(&twin), state(&cop));
                        cop = twin;
                    }
                    _ => {}
                }
                assert_owner_index_matches_scan(&cop, &owners);
                let gone: Vec<ContainerId> = evicted.iter().flatten().map(|c| c.id()).collect();
                assert_table_matches_model(&cop, &model, &gone);
                assert_eq!(cop.load, LoadIndex::new(cop.servers()));
            }
        }
        assert!(adopted_below_held > 0, "the sorted-insert case never ran");
        assert!(refused > 0, "no adoption was refused");
        assert!(passed > 0, "no launch passed a server that did not fit");
    }

    /// Placement's law, held by a count the host cannot move: n quad-core
    /// launches on n microservers examine about one server each (the first
    /// in the load index fits), where a scan of the cluster examines n per
    /// launch — n² in all.
    #[test]
    fn placement_examines_a_constant_per_launch() {
        for n in [1_000, 4_000] {
            let mut cop = Cop::new(CopConfig::microserver_cluster(n));
            let spec = ContainerSpec::quad_core();
            let mut examined = 0;
            for _ in 0..n {
                examined += cop.load.place(cop.servers(), &spec).1;
                cop.launch(AppId::new(1), spec).expect("a server is empty");
            }
            assert!(
                examined <= 2 * n as usize,
                "{n} launches examined {examined} servers"
            );
        }
    }
}
