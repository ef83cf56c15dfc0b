//! The sharded deployment wrapper: parallel dispatch, exclusive
//! settlement.
//!
//! [`ShardedEcovisor`] is the shape an [`Ecovisor`] takes when several
//! threads drive it at once — the transport's serving threads,
//! multi-tenant simulations, and the multithreaded benches all
//! share one through an `Arc`. It layers two levels of locking:
//!
//! 1. an **outer** `RwLock<Ecovisor>`: every dispatch holds the *read*
//!    side (so any number of tenant batches execute concurrently), while
//!    the driver's settlement path ([`ShardedEcovisor::with`] /
//!    [`ShardedEcovisor::tick`]) takes the *write* side — a brief
//!    stop-the-world quiesce that is **the only cross-app barrier**;
//! 2. the **inner** per-app shard locks (see [`crate::ecovisor`]): under
//!    the outer read guard, a batch locks only the shard of the app it
//!    addresses, so traffic from different tenants never contends, and
//!    query-only traffic takes shard *read* locks so even same-app
//!    queries run in parallel.
//!
//! The resulting invariants (spelled out in `docs/ARCHITECTURE.md`):
//!
//! * between settlements, state from different apps is updated
//!   independently and concurrently — no dispatch observes another
//!   shard's lock;
//! * a settlement observes no in-flight batches (outer write lock) and
//!   pays nothing for the inner locks (`&mut` access);
//! * replaying the recorded [`ProtocolTrace`](crate::dispatch::ProtocolTrace)
//!   of a concurrent run single-threaded settles identical totals,
//!   because batches from different apps commute between barriers.
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use ecovisor::proto::{EnergyRequest, RequestBatch};
//! use ecovisor::{EcovisorBuilder, EnergyShare, ShardedEcovisor};
//!
//! let mut eco = EcovisorBuilder::new().build();
//! let app = eco.register_app("tenant", EnergyShare::grid_only()).unwrap();
//! let shared = Arc::new(ShardedEcovisor::new(eco));
//!
//! // Any number of threads may dispatch concurrently…
//! let worker = {
//!     let shared = Arc::clone(&shared);
//!     std::thread::spawn(move || {
//!         let batch = RequestBatch::new(app, vec![EnergyRequest::GetSolarPower]);
//!         shared.dispatch_batch(&batch)
//!     })
//! };
//! // …while the driver ticks settlement between batches.
//! shared.tick();
//! assert!(!worker.join().unwrap().responses.is_empty());
//! ```

use std::sync::{Mutex, RwLock};

use container_cop::AppId;

use crate::ecovisor::{Ecovisor, SystemFlows};
use crate::lock;
use crate::proto::{RequestBatch, ResponseBatch};

/// A post-settlement broadcast hook (see
/// [`ShardedEcovisor::on_settlement`]).
type SettlementHook = Box<dyn Fn(&Ecovisor) + Send + Sync>;

/// An [`Ecovisor`] wrapped for concurrent multi-tenant dispatch.
///
/// [`dispatch_batch`](Self::dispatch_batch) takes `&self` and runs under
/// the outer read lock; [`with`](Self::with) grants the exclusive access
/// settlement and registration need. Share between threads with `Arc`
/// (the transport's [`SharedEcovisor`](crate::transport::SharedEcovisor)
/// alias).
pub struct ShardedEcovisor {
    inner: RwLock<Ecovisor>,
    /// Hooks run by [`tick`](Self::tick) after settlement, still inside
    /// the barrier — the server-push fan-out point.
    hooks: Mutex<Vec<SettlementHook>>,
}

impl std::fmt::Debug for ShardedEcovisor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedEcovisor").finish_non_exhaustive()
    }
}

impl ShardedEcovisor {
    /// Wraps an ecovisor for shared use.
    pub fn new(eco: Ecovisor) -> Self {
        Self {
            inner: RwLock::new(eco),
            hooks: Mutex::new(Vec::new()),
        }
    }

    /// Registers a **post-settlement broadcast hook**: [`tick`](Self::tick)
    /// runs every hook after `settle_tick`, *before* the clock advances
    /// and while still holding the settlement barrier. That placement is
    /// the push-path contract:
    ///
    /// * events a hook takes ([`Ecovisor::take_event_frame`]) are
    ///   stamped with the settlement tick that produced them, and
    /// * no dispatch (e.g. a racing `PollEvents`) can drain an outbox
    ///   between settlement and broadcast, so a subscriber observes the
    ///   exact per-settlement event sequence.
    ///
    /// Hooks must confine themselves to the `&Ecovisor` they are given —
    /// calling back into this wrapper's dispatch surface from a hook
    /// would self-deadlock on the outer lock. The TCP transport installs
    /// one hook per server to fan event frames out to subscribed
    /// connections (see [`crate::transport`]).
    pub fn on_settlement(&self, hook: impl Fn(&Ecovisor) + Send + Sync + 'static) {
        lock::lock(&self.hooks).push(Box::new(hook));
    }

    /// Executes a request batch under the outer read lock: concurrent
    /// with every other dispatch, excluded only by settlement. See
    /// [`Ecovisor::dispatch_batch`] for the per-shard locking.
    pub fn dispatch_batch(&self, batch: &RequestBatch) -> ResponseBatch {
        lock::read(&self.inner).dispatch_batch(batch)
    }

    /// Runs `f` with exclusive access — the **settlement barrier**. The
    /// driver loop uses this for `begin_tick`/`settle_tick`/
    /// `advance_clock`, registration, and trace extraction; all dispatch
    /// quiesces for the duration.
    pub fn with<R>(&self, f: impl FnOnce(&mut Ecovisor) -> R) -> R {
        f(&mut lock::write(&self.inner))
    }

    /// Runs `f` with shared access, concurrent with dispatch (e.g. for
    /// telemetry reads mid-run).
    pub fn read<R>(&self, f: impl FnOnce(&Ecovisor) -> R) -> R {
        f(&lock::read(&self.inner))
    }

    /// Advances one full tick — `begin_tick`, `settle_tick`, broadcast
    /// hooks, `advance_clock` — under the settlement barrier, returning
    /// the settled system flows.
    pub fn tick(&self) -> SystemFlows {
        // Two observability series bracket the barrier: how long the
        // driver waited for dispatch to quiesce (`settle.barrier_wait_ns`)
        // and how long settlement held everyone up (`settle.duration_ns`).
        // Readings go only into the hub — never into settlement inputs.
        let barrier_start = std::time::Instant::now();
        let mut eco = lock::write(&self.inner);
        let obs = eco.obs_hub();
        if let Some(hub) = &obs {
            hub.core
                .barrier_wait
                .record_duration(barrier_start.elapsed());
        }
        let settle_start = std::time::Instant::now();
        eco.begin_tick();
        let flows = eco.settle_tick();
        for hook in lock::lock(&self.hooks).iter() {
            hook(&eco);
        }
        eco.advance_clock();
        if let Some(hub) = &obs {
            hub.core
                .settle_duration
                .record_duration(settle_start.elapsed());
            hub.core.tick.set(eco.tick_index() as i64);
        }
        flows
    }

    /// Phase one of a **federated** tick: samples the tick inputs and
    /// captures the local tenants' demand views under the settlement
    /// barrier (see [`Ecovisor::collect_demand`]).
    ///
    /// The coordinator contract: between this call and the matching
    /// [`fed_settle`](Self::fed_settle) no dispatch may be allowed to
    /// mutate tenant state — on a deployed node that means the
    /// coordinator drives both phases back-to-back and tenants' writes
    /// in between are their own lookout only if the operator breaks the
    /// choreography. `docs/FEDERATION.md` spells this out.
    pub fn fed_collect(&self) -> Vec<crate::federation::FedAppView> {
        let barrier_start = std::time::Instant::now();
        let mut eco = lock::write(&self.inner);
        let obs = eco.obs_hub();
        if let Some(hub) = &obs {
            hub.core
                .barrier_wait
                .record_duration(barrier_start.elapsed());
        }
        let start = std::time::Instant::now();
        eco.begin_tick();
        let views = eco.collect_demand();
        if let Some(hub) = &obs {
            hub.core.fed_collect.record_duration(start.elapsed());
        }
        views
    }

    /// Phase two of a federated tick: settles the globally merged view
    /// list, runs the broadcast hooks, and advances the clock — the
    /// cross-node extension of [`tick`](Self::tick).
    ///
    /// # Errors
    ///
    /// Everything [`Ecovisor::settle_with_views`] rejects; on error the
    /// hooks do not run and the clock does not advance, so a node that
    /// received a malformed view list stays at the unsettled tick.
    pub fn fed_settle(
        &self,
        views: &[crate::federation::FedAppView],
    ) -> crate::error::Result<SystemFlows> {
        let barrier_start = std::time::Instant::now();
        let mut eco = lock::write(&self.inner);
        let obs = eco.obs_hub();
        if let Some(hub) = &obs {
            hub.core
                .barrier_wait
                .record_duration(barrier_start.elapsed());
        }
        let start = std::time::Instant::now();
        let flows = eco.settle_with_views(views)?;
        for hook in lock::lock(&self.hooks).iter() {
            hook(&eco);
        }
        eco.advance_clock();
        if let Some(hub) = &obs {
            hub.core.fed_settle.record_duration(start.elapsed());
            hub.core.tick.set(eco.tick_index() as i64);
        }
        Ok(flows)
    }

    /// Captures one tenant under the settlement barrier (see
    /// [`Ecovisor::extract_app`]); the tenant keeps running here until
    /// [`remove_app`](Self::remove_app) commits the migration.
    ///
    /// # Errors
    ///
    /// [`crate::EcovisorError::UnknownApp`] when not registered.
    pub fn extract_app(
        &self,
        app: AppId,
    ) -> crate::error::Result<crate::federation::TenantSnapshot> {
        self.with(|eco| eco.extract_app(app))
    }

    /// Grafts a migrated tenant under the settlement barrier (see
    /// [`Ecovisor::graft_app`] for validation; on error nothing
    /// changes).
    ///
    /// # Errors
    ///
    /// Everything [`Ecovisor::graft_app`] rejects.
    pub fn graft_app(
        &self,
        snap: &crate::federation::TenantSnapshot,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        self.with(|eco| eco.graft_app(snap))
    }

    /// Evicts a tenant under the settlement barrier (see
    /// [`Ecovisor::remove_app`]) — the migration commit on the source
    /// node.
    ///
    /// # Errors
    ///
    /// [`crate::EcovisorError::UnknownApp`] when not registered.
    pub fn remove_app(&self, app: AppId) -> crate::error::Result<()> {
        self.with(|eco| eco.remove_app(app))
    }

    /// Captures a [`Snapshot`](crate::snapshot::Snapshot) under the
    /// settlement barrier: all dispatch quiesces, so the checkpoint can
    /// never observe a half-settled tick or a half-applied batch.
    pub fn snapshot(&self) -> crate::snapshot::Snapshot {
        self.with(|eco| eco.snapshot())
    }

    /// Reinstates a snapshot under the settlement barrier (see
    /// [`Ecovisor::apply_snapshot`] for validation and error semantics).
    ///
    /// # Errors
    ///
    /// Everything [`Ecovisor::apply_snapshot`] rejects; on error the
    /// running state is untouched.
    pub fn apply_snapshot(
        &self,
        snap: &crate::snapshot::Snapshot,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        self.with(|eco| eco.apply_snapshot(snap))
    }

    /// Unwraps the inner ecovisor.
    pub fn into_inner(self) -> Ecovisor {
        self.inner.into_inner().unwrap_or_else(|p| p.into_inner())
    }
}
