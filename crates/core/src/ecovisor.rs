//! The ecovisor: multiplexing the physical energy system across
//! applications' virtual energy systems.
//!
//! "An ecovisor is akin to a hypervisor but virtualizes the energy system
//! of computing infrastructure" (§1). [`Ecovisor`] owns the physical
//! components (solar array, battery bank, grid, PSU), the container
//! orchestration platform, the carbon-intensity trace, and the
//! `SYSTEM` telemetry; each registered application reaches its own
//! [`VirtualEnergySystem`] through the Table 1 and Table 2 protocol,
//! scoped to its [`AppId`] by [`Ecovisor::dispatch_batch`] (typed handle:
//! [`Ecovisor::client`]).
//!
//! Multiplexing (§3.3) "simply requires computing the limit on the
//! maximum battery discharge rates and charging rates across all
//! applications": each tick the ecovisor collects the desired flows of
//! every app, computes per-direction throttle factors against the
//! physical battery's limits, commits the scaled flows, and mirrors the
//! aggregate onto the physical bank, the grid meter, and the PSU.
//!
//! ## Sharded state
//!
//! Per-application state (`AppState`), the tenant's telemetry included,
//! lives in its own **shard** — a `RwLock<AppState>` keyed by [`AppId`] —
//! while the container platform sits behind its own lock. Dispatch
//! ([`Ecovisor::dispatch_batch`]) therefore needs only `&self`: queries
//! take shard-local *read* locks, so concurrent queries from different
//! tenants (and even from the same tenant) never contend; commands take
//! the owning shard's *write* lock plus the container-platform lock when
//! they touch containers. Settlement keeps `&mut self` — exclusive
//! access is the stop-the-world barrier, and the only cross-app one (see
//! [`crate::shard::ShardedEcovisor`] for the multi-threaded deployment
//! shape).

use std::sync::atomic::AtomicBool;
use std::sync::{Mutex, RwLock, RwLockReadGuard};

use container_cop::{AppId, ContainerId, ContainerState, Cop};
use energy_system::battery::Battery;
use energy_system::grid::GridConnection;
use energy_system::psu::ProgrammablePsu;
use power_telemetry::Tsdb;
use simkit::time::{SimDuration, SimTime, TickClock};
use simkit::trace::Trace;
use simkit::units::{CarbonIntensity, WattHours, Watts};
use simkit::IdMap;

use crate::config::{EcovisorBuilder, ExcessPolicy};
use crate::error::{EcovisorError, Result};
use crate::event::{Notification, NotifyConfig, OutboxPolicy};
use crate::federation::FedAppView;
use crate::lock;
use crate::series::{self, SystemSeries, TenantSeries};
use crate::share::EnergyShare;
use crate::snapshot::AppSnapshot;
use crate::ves::{DesiredFlows, VesFlows, VesTotals, VirtualEnergySystem};

/// One application's shard: its state behind its own lock, so traffic
/// from different tenants executes in parallel.
pub(crate) type Shard = RwLock<AppState>;

/// Per-application state held by the ecovisor: the tenant's record and
/// its telemetry.
pub(crate) struct AppState {
    /// Everything about the tenant that persists — what a snapshot
    /// carries and a migration moves. Capture is a clone of this, and
    /// the only way one gets here is past `Ecovisor::admit`.
    pub(crate) rec: AppSnapshot,
    /// The tenant's series: settlement appends to them, dispatch
    /// integrates them, capture copies them into the tenant's record. Boxed:
    /// inline, their slots would double the shard, and `sim-day`'s peak
    /// RSS read 0.5 MiB higher.
    pub(crate) series: Box<TenantSeries>,
}

impl AppState {
    /// Installs an admitted record and its series.
    pub(crate) fn install(rec: AppSnapshot, series: TenantSeries) -> Self {
        Self {
            rec,
            series: Box::new(series),
        }
    }
}

/// System-wide flows settled in one tick (diagnostics/telemetry).
#[derive(Debug, Clone, Copy, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct SystemFlows {
    /// Physical solar output during the tick (buffered for next tick).
    physical_solar: Watts,
    /// Total grid import across apps.
    grid_import: Watts,
    /// Total battery charging across apps.
    pub battery_charge: Watts,
    /// Total battery discharge across apps.
    pub battery_discharge: Watts,
    /// Excess solar redistributed between apps.
    pub redistributed: Watts,
    /// Excess solar exported via net metering.
    pub exported: Watts,
    /// Excess solar curtailed.
    pub curtailed: Watts,
}

/// The ecovisor.
///
/// Fields fall into three locking domains (the invariants are spelled
/// out in `docs/ARCHITECTURE.md`):
///
/// * **per-app shards** (`apps`) — one `RwLock<AppState>` per tenant;
/// * **shared substrates** (`cop`, `proto_trace`) — their own locks,
///   read-mostly on the dispatch path;
/// * **settlement-only state** (clock, physical components, intensity) —
///   plain fields, read freely from `&self` dispatch and mutated only
///   under `&mut self`, which the deployment wrapper
///   ([`crate::shard::ShardedEcovisor`]) grants exclusively.
pub struct Ecovisor {
    pub(crate) clock: TickClock,
    pub(crate) cop: RwLock<Cop>,
    /// Solar array output in watts.
    solar: Trace,
    pub(crate) physical_battery: Battery,
    pub(crate) grid: GridConnection,
    pub(crate) psu: ProgrammablePsu,
    /// Grid carbon intensity in g·CO2/kWh.
    carbon: Trace,
    pub(crate) excess: ExcessPolicy,
    /// The `SYSTEM` series: a plain field, for only settlement writes
    /// them. Each tenant's series live in its shard.
    pub(crate) system_series: SystemSeries,
    pub(crate) apps: IdMap<AppId, Shard>,
    pub(crate) next_app: u32,
    /// The residents' solar fractions and battery capacities summed in
    /// id order, as [`Ecovisor::admit`] folds them. A registration and a
    /// restore keep what their admission summed; a graft (whose id may
    /// sort below a resident's) and an eviction drop them, and the next
    /// admission folds again.
    pub(crate) resident_shares: Option<(f64, WattHours)>,
    pub(crate) intensity: CarbonIntensity,
    pub(crate) prev_intensity: CarbonIntensity,
    pub(crate) last_system_flows: SystemFlows,
    /// Fast-path flag mirroring `proto_trace.is_some()`, so untraced
    /// dispatch never touches the trace mutex.
    pub(crate) tracing: AtomicBool,
    /// Recorded protocol traffic, when tracing is enabled (see
    /// [`Ecovisor::enable_protocol_trace`]).
    pub(crate) proto_trace: Mutex<Option<crate::dispatch::ProtocolTrace>>,
    /// Observability hub, when one is attached (see
    /// [`Ecovisor::attach_obs`]). Write-only from the dispatch and
    /// settlement paths; never read back into protocol state.
    pub(crate) obs: Option<std::sync::Arc<crate::obs::ObsHub>>,
}

impl std::fmt::Debug for Ecovisor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ecovisor")
            .field("tick", &self.clock.tick_index())
            .field("apps", &self.apps.len())
            .field("battery_soc", &self.physical_battery.soc_fraction())
            .finish_non_exhaustive()
    }
}

impl Ecovisor {
    /// Builds from an [`EcovisorBuilder`] (what [`EcovisorBuilder::build`]
    /// calls).
    pub(crate) fn from_builder(b: EcovisorBuilder) -> Self {
        let grid = match b.excess {
            ExcessPolicy::NetMeter => GridConnection::new().with_net_metering(),
            ExcessPolicy::Curtail | ExcessPolicy::Redistribute => GridConnection::new(),
        };
        let mut eco = Self {
            clock: TickClock::new(b.tick_interval),
            cop: RwLock::new(Cop::new(b.cop)),
            solar: b.solar,
            physical_battery: b.battery,
            grid,
            psu: ProgrammablePsu::new(),
            carbon: b.carbon,
            excess: b.excess,
            system_series: SystemSeries::default(),
            apps: IdMap::new(),
            next_app: 1,
            resident_shares: None,
            intensity: CarbonIntensity::ZERO,
            prev_intensity: CarbonIntensity::ZERO,
            last_system_flows: SystemFlows::default(),
            tracing: AtomicBool::new(false),
            proto_trace: Mutex::new(None),
            obs: None,
        };
        eco.sample_carbon();
        eco
    }

    // ------------------------------------------------------------------
    // Observability
    // ------------------------------------------------------------------

    /// Attaches an observability hub: dispatch, settlement, snapshot,
    /// and federation paths record into it from now on.
    pub fn attach_obs(&mut self, hub: std::sync::Arc<crate::obs::ObsHub>) {
        self.obs = Some(hub);
    }

    /// The attached observability hub, if any.
    pub(crate) fn obs_hub(&self) -> Option<std::sync::Arc<crate::obs::ObsHub>> {
        self.obs.clone()
    }

    // ------------------------------------------------------------------
    // Registration & lookup
    // ------------------------------------------------------------------

    /// Registers an application with its exogenous energy share (§3.3).
    ///
    /// # Errors
    ///
    /// [`EcovisorError::InvalidShare`] when the share fails validation;
    /// [`EcovisorError::ShareExceeded`] when accepting it would
    /// oversubscribe the physical solar array or battery.
    pub fn register_app(&mut self, name: impl Into<String>, share: EnergyShare) -> Result<AppId> {
        let rec = AppSnapshot {
            app: AppId::new(self.next_app),
            name: name.into(),
            ves: VirtualEnergySystem::for_share(share),
            notify: NotifyConfig::default(),
            outbox: OutboxPolicy::default(),
            pending_events: Vec::new(),
            carbon_rate_limit: None,
            carbon_budget: None,
            carbon_capped: Vec::new(),
            budget_exhausted: false,
        };
        // Its id is above every resident's, so the sums over all of them
        // are the id-order fold the next admission starts from.
        self.resident_shares = Some(self.admit([&rec], true, &IdMap::new())?);
        let id = rec.app;
        self.next_app += 1;
        let state = AppState::install(rec, TenantSeries::default());
        self.apps.insert(id, RwLock::new(state));
        Ok(id)
    }

    /// Registered application ids, in registration order.
    pub fn app_ids(&self) -> Vec<AppId> {
        self.apps.keys().copied().collect()
    }

    /// An application's display name.
    ///
    /// # Errors
    ///
    /// [`EcovisorError::UnknownApp`] when not registered.
    pub fn app_name(&self, app: AppId) -> Result<String> {
        Ok(lock::read(self.shard(app)?).rec.name.clone())
    }

    /// Overrides an application's notification thresholds.
    ///
    /// # Errors
    ///
    /// [`EcovisorError::UnknownApp`] when not registered.
    pub fn set_notify_config(&mut self, app: AppId, cfg: NotifyConfig) -> Result<()> {
        self.rec_mut(app)?.notify = cfg;
        Ok(())
    }

    /// Overrides an application's bounded-outbox policy (see
    /// [`OutboxPolicy`] for the coalescing/eviction semantics).
    ///
    /// # Errors
    ///
    /// [`EcovisorError::UnknownApp`] when not registered.
    pub fn set_outbox_policy(&mut self, app: AppId, policy: OutboxPolicy) -> Result<()> {
        self.rec_mut(app)?.outbox = policy;
        Ok(())
    }

    /// An application's bounded-outbox policy.
    ///
    /// # Errors
    ///
    /// [`EcovisorError::UnknownApp`] when not registered.
    pub(crate) fn outbox_policy(&self, app: AppId) -> Result<OutboxPolicy> {
        Ok(lock::read(self.shard(app)?).rec.outbox)
    }

    /// A batching protocol client for one application — the primary API
    /// handle (see [`crate::client::EcovisorClient`]).
    ///
    /// # Errors
    ///
    /// [`EcovisorError::UnknownApp`] when not registered.
    pub fn client(&mut self, app: AppId) -> Result<crate::client::EcovisorClient<'_>> {
        if !self.apps.contains_key(&app) {
            return Err(EcovisorError::UnknownApp(app));
        }
        Ok(crate::client::EcovisorClient::new(self, app))
    }

    // ------------------------------------------------------------------
    // Tick protocol
    // ------------------------------------------------------------------

    /// Re-samples the carbon trace at the current instant. A no-op on
    /// state: the clock already sampled it when it moved (see
    /// [`advance_clock`](Self::advance_clock)). No driver calls it; it
    /// stays public for the benchmark's stage walk.
    pub fn begin_tick(&mut self) {
        self.sample_carbon();
    }

    /// The one carbon sample: `intensity` is the trace's value at the
    /// clock's instant, `prev_intensity` its value one tick earlier (or
    /// the same at tick 0), so both are functions of the clock. Taken
    /// wherever the clock is set — at build, on
    /// [`advance_clock`](Self::advance_clock) and on restore — so what
    /// dispatch answers between settlements is the intensity the next
    /// settlement charges.
    pub(crate) fn sample_carbon(&mut self) {
        let now = self.clock.now();
        self.intensity = CarbonIntensity::new(self.carbon.sample(now));
        self.prev_intensity = match self.clock.tick_index() {
            0 => self.intensity,
            _ => CarbonIntensity::new(self.carbon.sample(now - self.clock.interval())),
        };
    }

    /// Runs one tick: settles it (see [`settle_tick`](Self::settle_tick))
    /// at the intensity its tenants were told, runs `between` on the
    /// settled state, then advances the clock, which samples the next
    /// tick's intensity. `between` sees the settled tick's index, so
    /// event frames taken there
    /// ([`take_event_frame`](Self::take_event_frame)) carry the stamp of
    /// the settlement that produced them.
    ///
    /// The tick order is written once, for both doors: every driver —
    /// [`Simulation`](crate::sim::Simulation) (which the recorder runs),
    /// replay and [`ShardedEcovisor`](crate::shard::ShardedEcovisor) —
    /// calls it, and a federated node's second half
    /// ([`ShardedEcovisor::fed_settle`](crate::shard::ShardedEcovisor::fed_settle))
    /// runs the same order over the merged view list. A local tick
    /// builds no demand views.
    pub fn tick<R>(&mut self, between: impl FnOnce(&Ecovisor) -> R) -> (SystemFlows, R) {
        self.tick_over(None, between)
    }

    /// The second half of a **federated** tick, over a view list a
    /// coordinator merged from every node's
    /// [`collect_demand`](Self::collect_demand): checks the list, then
    /// runs [`tick`](Self::tick) with the views as the demand.
    ///
    /// # Errors
    ///
    /// [`EcovisorError::Protocol`] when the views are not strictly
    /// ascending by app id or a locally registered app is missing;
    /// nothing is settled, `between` does not run and the clock stays at
    /// the unsettled tick.
    pub(crate) fn finish_tick<R>(
        &mut self,
        views: &[FedAppView],
        between: impl FnOnce(&Ecovisor) -> R,
    ) -> Result<(SystemFlows, R)> {
        if let Some(w) = views.windows(2).find(|w| w[1].app <= w[0].app) {
            return Err(EcovisorError::Protocol(format!(
                "demand views must be strictly ascending by app id \
                 (saw {} after {})",
                w[1].app, w[0].app
            )));
        }
        // Both lists ascend, so one pass finds every local app among the
        // views; what sorts below the next local id is a remote app.
        let mut shipped = views.iter().map(|v| v.app).peekable();
        for &id in self.apps.keys() {
            while shipped.next_if(|&v| v < id).is_some() {}
            if shipped.next_if_eq(&id).is_none() {
                return Err(EcovisorError::Protocol(format!(
                    "demand views are missing local app {id}"
                )));
            }
        }
        Ok(self.tick_over(Some(views), between))
    }

    /// Settles, runs `between`, advances the clock: the tick order of
    /// [`tick`](Self::tick), over `views` when federated.
    fn tick_over<R>(
        &mut self,
        views: Option<&[FedAppView]>,
        between: impl FnOnce(&Ecovisor) -> R,
    ) -> (SystemFlows, R) {
        let flows = self.settle(views);
        let out = between(self);
        self.advance_clock();
        (flows, out)
    }

    /// Drains the notifications queued for an application, unframed: the
    /// pull form of [`take_event_frame`](Self::take_event_frame). The
    /// [`Simulation`](crate::sim::Simulation) loop takes frames, not
    /// this.
    ///
    /// Takes `&self`: the outbox lives in the app's shard, so draining
    /// joins the dispatch surface — any holder of a shared ecovisor
    /// (including the wire, via `PollEvents`) can consume events, not
    /// just the exclusive driver. Delivery is destructive and
    /// exactly-once: concurrent drains split the stream, they never
    /// duplicate it.
    pub fn drain_events(&self, app: AppId) -> Vec<Notification> {
        self.apps
            .get(&app)
            .map(|s| std::mem::take(&mut lock::write(s).rec.pending_events))
            .unwrap_or_default()
    }

    /// Drains an application's outbox into a push-ready
    /// [`EventFrame`](crate::proto::EventFrame), stamped with the
    /// current (settlement) tick. `None` when no events are pending, so
    /// subscribers only ever receive non-empty frames.
    ///
    /// When protocol tracing is enabled the frame is recorded into
    /// [`ProtocolTrace::events`](crate::dispatch::ProtocolTrace), making
    /// push traffic part of the replayable record of a run. The
    /// transport's post-settlement broadcast hook is the canonical
    /// caller (see `ShardedEcovisor::on_settlement`).
    pub fn take_event_frame(&self, app: AppId) -> Option<crate::proto::EventFrame> {
        self.take_event_frame_matching(app, &crate::event::EventFilter::all())
    }

    /// Like [`take_event_frame`](Self::take_event_frame), but consumes
    /// **only** the events `filter` selects — the rest stay pending for
    /// other consumers (`drain_events` / `PollEvents`). The broadcast
    /// path calls this with the *union* of an app's subscriber filters,
    /// so an event no subscriber wants is never destroyed undelivered.
    pub(crate) fn take_event_frame_matching(
        &self,
        app: AppId,
        filter: &crate::event::EventFilter,
    ) -> Option<crate::proto::EventFrame> {
        let shard = self.apps.get(&app)?;
        let events = {
            let pending = &mut lock::write(shard).rec.pending_events;
            let (taken, kept): (Vec<Notification>, Vec<Notification>) =
                pending.drain(..).partition(|e| filter.matches(e));
            *pending = kept;
            taken
        };
        if events.is_empty() {
            return None;
        }
        let frame = crate::proto::EventFrame {
            version: crate::PROTOCOL_VERSION,
            app,
            tick: self.clock.tick_index(),
            events,
        };
        if self.tracing.load(std::sync::atomic::Ordering::Relaxed) {
            if let Some(trace) = lock::lock(&self.proto_trace).as_mut() {
                trace.events.push(frame.clone());
            }
        }
        Some(frame)
    }

    /// Settles the current tick at the intensity the clock sampled for
    /// it, over this node's own tenants: enforces carbon-rate caps, runs
    /// the two-phase virtual settlement, multiplexes the battery, handles
    /// excess solar, mirrors aggregates onto the physical components,
    /// records telemetry, and buffers next-tick solar. It walks the
    /// tenants three times in app-id order — demand, apply, local tail —
    /// with a scan over per-tenant rows of scalars between each two,
    /// reads each tenant's containers once (twice under a carbon-rate
    /// limit) and clones no tenant state. A driver calls
    /// [`tick`](Self::tick), which settles with this and then advances
    /// the clock.
    ///
    /// Settlement is the **sole cross-app barrier**: it takes `&mut
    /// self`, so no dispatch (which needs `&self`) can overlap it, and
    /// the per-shard locks cost nothing here (`RwLock::get_mut`).
    pub fn settle_tick(&mut self) -> SystemFlows {
        self.settle(None)
    }

    /// Phase one of a **federated** tick (a local tick builds no views):
    /// installs every local tenant's carbon caps, as a local settlement
    /// does first, and captures one [`FedAppView`] per local tenant — a
    /// clone of its virtual energy system and its post-cap container
    /// power — in app-id order.
    ///
    /// A federation coordinator merges every node's views into one
    /// global list and hands it to each node's
    /// [`finish_tick`](Self::finish_tick). Between the two phases no
    /// dispatch may run (the deployment wrapper's
    /// `fed_collect`/`fed_settle` hold that contract); the settlement
    /// reads demand from the views, not from the live state.
    pub(crate) fn collect_demand(&mut self) -> Vec<FedAppView> {
        let (intensity, dt) = (self.intensity, self.clock.interval());
        let cop = lock::get_mut(&mut self.cop);
        self.apps
            .values_mut()
            .map(|shard| {
                let rec = &mut lock::get_mut(shard).rec;
                install_carbon_caps(cop, rec, intensity, dt);
                FedAppView {
                    app: rec.app,
                    ves: rec.ves.clone(),
                    power: cop.app_power(rec.app),
                }
            })
            .collect()
    }

    /// The settlement arithmetic of one tick, for a local tick (`views`
    /// is `None`) and for a federated one (the merged list
    /// [`finish_tick`](Self::finish_tick) checked): three maps over the
    /// tenants around two scans over per-tenant rows of scalars, each
    /// step in app-id order.
    ///
    /// 1. **Demand (map).** A local tick first installs each tenant's
    ///    carbon caps. Each local tenant's containers are read once,
    ///    through the COP's owner index, into a per-tick buffer; their
    ///    power is summed as [`Cop::app_power`] sums it. A tenant's
    ///    desired flows come from the live state on a local tick and from
    ///    its view on a federated one: the captured views stay
    ///    authoritative, so a write a coordinator lets in between its two
    ///    phases cannot make replicas diverge.
    /// 2. **[`throttle`] (scan)** over the desired rows: the two scales.
    /// 3. **Apply (map).** Each tenant's flows under the scales, its edge
    ///    events and its budget crossing: an [`Applied`] row. A remote
    ///    tenant's row comes from a shadow copy of its view, cloned and
    ///    dropped within the row; its events, solar buffer and telemetry
    ///    happen on its owning node.
    /// 4. **[`pool`] (scan)** over the applied rows: the aggregate flows
    ///    and what redistribution hands each tenant. Then the excess-solar
    ///    policy and the grid/PSU mirror.
    /// 5. **Local tail (map).** Each local tenant takes what it was
    ///    handed, then next tick's solar buffer, the solar and carbon
    ///    change notifications, and its telemetry — six appends to its
    ///    own series and two per live container from step 1's buffer: no
    ///    lookup by name, and no allocation but a new series' first.
    ///
    /// Tenants meet only in the two scans, which see scalars, in the same
    /// order on every node: every replica's substrate, and every app's
    /// flows, are bit-identical to a single-process run.
    fn settle(&mut self, views: Option<&[FedAppView]>) -> SystemFlows {
        let now = self.clock.now();
        let dt = self.clock.interval();
        let intensity = self.intensity;
        let cop = lock::get_mut(&mut self.cop);

        // 1. Demand: one row per tenant of the list, and the live
        //    containers of the local ones. Every live container holds a
        //    reservation on its server, so the buffer is sized once and
        //    never regrows (regrowing it every tick fragments the heap).
        let placed = cop.servers().iter().map(|s| s.container_count()).sum();
        let mut live = Vec::with_capacity(placed);
        let mut desired = Vec::with_capacity(views.map_or(self.apps.len(), <[_]>::len));
        let mut locals = Vec::with_capacity(self.apps.len());
        match views {
            None => {
                for (&id, shard) in self.apps.iter_mut() {
                    let state = lock::get_mut(shard);
                    install_carbon_caps(cop, &mut state.rec, intensity, dt);
                    let power = read_live(cop, id, &mut live);
                    desired.push(state.rec.ves.desired_flows(power, dt));
                    let (row, end) = (locals.len(), live.len());
                    locals.push(Local { row, state, end });
                }
            }
            Some(views) => {
                let mut mine = self.apps.iter_mut().peekable();
                for (row, view) in views.iter().enumerate() {
                    if let Some((&id, shard)) = mine.next_if(|(&id, _)| id == view.app) {
                        read_live(cop, id, &mut live);
                        let (state, end) = (lock::get_mut(shard), live.len());
                        locals.push(Local { row, state, end });
                    }
                    desired.push(view.ves.desired_flows(view.power, dt));
                }
            }
        }

        // 2. Throttle scales against the physical bank's rate limits.
        let bank = self.physical_battery.spec();
        let (charge_scale, discharge_scale) =
            throttle(&desired, bank.max_charge_rate, bank.max_discharge_rate);

        // 3. Apply: one row per tenant, with the room its battery has
        //    left for redistributed solar when the policy walks the rooms.
        let redistribute = self.excess == ExcessPolicy::Redistribute;
        let remote = views.unwrap_or_default();
        let mut mine = locals.iter_mut().peekable();
        let mut applied = Vec::with_capacity(desired.len());
        for (row, d) in desired.iter().enumerate() {
            let shadow;
            let (flows, ves) = match mine.next_if(|local| local.row == row) {
                Some(local) => {
                    let rec = &mut local.state.rec;
                    let (flows, events) =
                        rec.ves
                            .apply_flows(d, charge_scale, discharge_scale, intensity, dt);
                    let outbox = rec.outbox;
                    for event in events {
                        outbox.push(&mut rec.pending_events, event);
                    }
                    // Carbon-budget enforcement (Table 2
                    // set_carbon_budget): edge-triggered like battery
                    // full/empty — notify once at the crossing and clamp
                    // grid allowance to zero until the budget is cleared
                    // or raised.
                    if let Some(budget) = rec.carbon_budget {
                        let carbon = rec.ves.totals().carbon;
                        if carbon >= budget && !rec.budget_exhausted {
                            rec.budget_exhausted = true;
                            rec.ves.set_grid_clamp(true);
                            outbox.push(
                                &mut rec.pending_events,
                                Notification::BudgetExhausted { budget, carbon },
                            );
                        }
                    }
                    (flows, &rec.ves)
                }
                // A remote tenant: the same arithmetic on a copy of its
                // view, for the scans only, dropped with this row.
                None => {
                    let mut ves = remote[row].ves.clone();
                    let (flows, _) =
                        ves.apply_flows(d, charge_scale, discharge_scale, intensity, dt);
                    shadow = ves;
                    (flows, &shadow)
                }
            };
            let room = redistribute.then(|| ves.redistribution_room(dt));
            applied.push(Applied {
                flows,
                room: room.unwrap_or_default(),
            });
        }

        // 4. The aggregate flows and the redistribution walk; what
        //    surplus is left is exported under net metering, curtailed
        //    otherwise.
        let (mut system, handed) = pool(&applied, bank.max_charge_rate, redistribute);
        if self.excess == ExcessPolicy::NetMeter {
            system.exported = self.grid.export(system.curtailed, dt);
            system.curtailed -= system.exported;
        }

        // Mirror aggregates onto the physical meters. The bank's state
        // of charge is *derived* from the virtual batteries (see
        // [`Self::physical_battery_level`]); only the grid meter and PSU
        // carry independent physical state.
        self.grid.import(system.grid_import, dt);
        self.psu.record_draw(now, system.grid_import, dt);
        let physical_solar = energy_system::solar::power_over(&self.solar, now, now + dt);
        system.physical_solar = physical_solar;
        self.last_system_flows = system;

        // 5. Local tail. The SYSTEM-subject row derived from local state
        //    (app power) is node-local under federation; see
        //    docs/FEDERATION.md.
        let prev_intensity = self.prev_intensity;
        let mut start = 0;
        for Local { row, state, end } in locals {
            let AppState { rec, series } = state;
            if let Some(&accepted) = handed.get(row) {
                rec.ves.accept_redistribution(accepted, dt);
            }
            // Physical solar this tick, buffered for next tick; the
            // solar-change notification compares old vs new availability,
            // the carbon-change one this tick vs the previous.
            let outbox = rec.outbox;
            let new_buffer = physical_solar * rec.ves.share().solar_fraction;
            let old_buffer = rec.ves.solar_available();
            if rec.notify.solar_significant(old_buffer, new_buffer) {
                outbox.push(
                    &mut rec.pending_events,
                    Notification::SolarChange {
                        previous: old_buffer,
                        current: new_buffer,
                    },
                );
            }
            rec.ves.buffer_solar(new_buffer);
            if rec.notify.carbon_significant(prev_intensity, intensity) {
                outbox.push(
                    &mut rec.pending_events,
                    Notification::CarbonChange {
                        previous: prev_intensity,
                        current: intensity,
                    },
                );
            }

            // The flows as applied, before redistribution moved the VES's
            // own. APP_POWER records *served* power (demand minus load
            // shed by the grid cap), so its integral — get_app_energy —
            // agrees with VesTotals::energy, which accumulates served
            // power. Demand stays the denominator for the proportional
            // carbon attribution below (container powers sum to demand).
            let f = &applied[row].flows;
            let served = (f.demand - f.unmet_demand).max_zero();
            let charge = f.solar_to_battery + f.grid_to_battery + f.redistributed_in;
            let mine = &live[start..end];
            start = end;
            let running = mine.iter().filter(|&&(_, _, running)| running).count();
            let carbon_rate = f.carbon_rate.grams_per_sec();
            let own = [served, f.battery_to_load, charge].map(Watts::watts);
            let soc = rec.ves.battery_soc();
            series.record(
                None,
                now,
                &[own[0], own[1], own[2], soc, carbon_rate, running as f64],
            );

            // Containers: power + proportional carbon attribution.
            for &(id, power, _) in mine {
                let share = if f.demand > Watts::ZERO {
                    power / f.demand
                } else {
                    0.0
                };
                series.record(Some(id), now, &[power.watts(), carbon_rate * share]);
            }
        }

        let values = [
            intensity.grams_per_kwh(),
            physical_solar.watts(),
            cop.total_power().watts(),
        ];
        series::record(&mut self.system_series, now, &values);
        system
    }

    /// Advances the tick clock and samples the carbon trace for the
    /// new tick: the last step of [`tick`](Self::tick), after
    /// settlement and its `between`.
    pub fn advance_clock(&mut self) {
        self.clock.advance();
        self.sample_carbon();
    }

    // ------------------------------------------------------------------
    // Observers
    // ------------------------------------------------------------------

    /// Start of the current tick.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// The tick interval Δt.
    pub fn tick_interval(&self) -> SimDuration {
        self.clock.interval()
    }

    /// Index of the current tick.
    pub fn tick_index(&self) -> u64 {
        self.clock.tick_index()
    }

    /// The carbon intensity of the current tick, sampled when the clock
    /// moved to it: what `GetGridCarbon` answers, and what the tick's
    /// settlement charges.
    pub fn grid_carbon_intensity(&self) -> CarbonIntensity {
        self.intensity
    }

    /// The historical telemetry, every series named into one store: the
    /// `SYSTEM` series and each tenant's, one shard read lock at a time.
    /// A copy — settlement goes on writing the tenants' own.
    pub fn telemetry(&self) -> Tsdb {
        let mut store = Tsdb::new();
        series::name_system_into(&self.system_series, &mut store);
        for (&app, shard) in self.apps.iter() {
            lock::read(shard).series.name_into(app, &mut store);
        }
        store
    }

    /// The container orchestration platform (shared read guard — hold
    /// briefly; container commands take the write side).
    pub fn cop(&self) -> RwLockReadGuard<'_, Cop> {
        lock::read(&self.cop)
    }

    /// The validation PSU (read-only).
    pub fn psu(&self) -> &ProgrammablePsu {
        &self.psu
    }

    /// Sets the PSU validation limit.
    pub fn set_psu_limit(&mut self, limit: Option<Watts>) {
        self.psu.set_limit(limit);
    }

    /// The physical battery bank (spec carrier; see
    /// [`Self::physical_battery_level`] for the live state).
    pub fn physical_battery(&self) -> &Battery {
        &self.physical_battery
    }

    /// Live energy stored in the physical bank: the sum of the virtual
    /// batteries' levels (unallocated capacity is inert).
    pub fn physical_battery_level(&self) -> WattHours {
        self.virtual_battery_total()
    }

    /// The grid connection (read-only).
    pub fn grid(&self) -> &GridConnection {
        &self.grid
    }

    /// System flows from the most recent settlement.
    pub fn last_system_flows(&self) -> &SystemFlows {
        &self.last_system_flows
    }

    /// An app's flows from the most recent settlement.
    ///
    /// # Errors
    ///
    /// [`EcovisorError::UnknownApp`] when not registered.
    pub fn app_flows(&self, app: AppId) -> Result<VesFlows> {
        Ok(*lock::read(self.shard(app)?).rec.ves.last_flows())
    }

    /// An app's cumulative energy/carbon totals.
    ///
    /// # Errors
    ///
    /// [`EcovisorError::UnknownApp`] when not registered.
    pub fn app_totals(&self, app: AppId) -> Result<VesTotals> {
        Ok(*lock::read(self.shard(app)?).rec.ves.totals())
    }

    /// A snapshot of an app's virtual energy system.
    ///
    /// # Errors
    ///
    /// [`EcovisorError::UnknownApp`] when not registered.
    pub fn app_ves(&self, app: AppId) -> Result<VirtualEnergySystem> {
        Ok(lock::read(self.shard(app)?).rec.ves.clone())
    }

    /// Sum of all apps' virtual battery charge levels (invariant checks).
    pub fn virtual_battery_total(&self) -> WattHours {
        self.apps
            .values()
            .map(|s| lock::read(s).rec.ves.battery_charge_level())
            .sum()
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    pub(crate) fn shard(&self, app: AppId) -> Result<&Shard> {
        self.apps.get(&app).ok_or(EcovisorError::UnknownApp(app))
    }

    fn rec_mut(&mut self, app: AppId) -> Result<&mut AppSnapshot> {
        self.apps
            .get_mut(&app)
            .map(|s| &mut lock::get_mut(s).rec)
            .ok_or(EcovisorError::UnknownApp(app))
    }
}

/// One of this node's tenants in a tick: its row in the tick's lists,
/// its state, and the end of its containers in the tick's live buffer.
struct Local<'a> {
    row: usize,
    state: &'a mut AppState,
    end: usize,
}

/// A tenant's committed flows in a tick, and the redistributed solar its
/// battery could still take (zero unless the policy redistributes).
struct Applied {
    flows: VesFlows,
    room: Watts,
}

/// The first scan: §3.3's multiplexing "simply requires computing the
/// limit on the maximum battery discharge rates and charging rates across
/// all applications". Sums the desired charge and discharge in row order
/// and returns the (charge, discharge) scales: the share of each sum the
/// physical bank's rate allows, 1 when it fits. SoC feasibility is
/// enforced per virtual battery; Σ virtual capacity ≤ physical capacity
/// guarantees the bank can honor whatever the virtual batteries accept.
fn throttle(desired: &[DesiredFlows], max_charge: Watts, max_discharge: Watts) -> (f64, f64) {
    let charge: Watts = desired.iter().map(DesiredFlows::total_charge).sum();
    let discharge: Watts = desired.iter().map(|d| d.discharge).sum();
    let scale = |total: Watts, allow: Watts| if total > allow { allow / total } else { 1.0 };
    (scale(charge, max_charge), scale(discharge, max_discharge))
}

/// The second scan, over the applied rows in row order: the aggregate
/// charge, discharge and grid import, and the surplus pool; then, if
/// `redistribute` and there is surplus, the walk that hands each row the
/// least of the pool left, the bank's charge headroom left and the row's
/// room, until the pool or the headroom runs out. Returns the tick's
/// flows with the whole pool left `curtailed` (no physical solar, no
/// export) and what each walked row was handed, by row.
fn pool(rows: &[Applied], max_charge: Watts, redistribute: bool) -> (SystemFlows, Vec<Watts>) {
    let mut sums = SystemFlows::default();
    for Applied { flows: f, .. } in rows {
        sums.curtailed += f.solar_surplus;
        sums.battery_charge += f.solar_to_battery + f.grid_to_battery;
        sums.battery_discharge += f.battery_to_load;
        sums.grid_import += f.grid_import();
    }
    let mut handed = Vec::new();
    if redistribute && sums.curtailed > Watts::ZERO {
        let mut headroom = (max_charge - sums.battery_charge).max_zero();
        for row in rows {
            if sums.curtailed <= Watts::ZERO || headroom <= Watts::ZERO {
                break;
            }
            let accepted = sums.curtailed.min(headroom).min(row.room);
            sums.curtailed -= accepted;
            headroom -= accepted;
            sums.redistributed += accepted;
            sums.battery_charge += accepted;
            handed.push(accepted);
        }
    }
    (sums, handed)
}

/// Reads `owner`'s containers once, through the COP's owner index:
/// pushes the live ones onto `live` as (id, power, running) and returns
/// their power summed as [`Cop::app_power`] sums it (stopped ones add
/// their zero in turn).
fn read_live(cop: &Cop, owner: AppId, live: &mut Vec<(ContainerId, Watts, bool)>) -> Watts {
    cop.owned_by(owner)
        .map(|c| {
            let power = cop.power_of(c);
            if c.state() != ContainerState::Stopped {
                live.push((c.id(), power, c.state() == ContainerState::Running));
            }
            power
        })
        .sum()
}

/// Converts a tenant's carbon-rate limit into per-container **carbon
/// caps** under this tick's intensity. Zero-carbon supply (available
/// solar plus allowed battery discharge) is exempt from the cap.
///
/// Carbon caps are a separate component from the caps applications set
/// through `set_container_powercap` — the COP enforces the `min` of the
/// two — and are cleared and re-installed every settlement, so lifting
/// the rate limit (`set_carbon_rate(None)`) restores the containers' own
/// caps on the next tick, and the per-container spread tracks the live
/// container set. A cap changes only its own container's power.
fn install_carbon_caps(
    cop: &mut Cop,
    rec: &mut AppSnapshot,
    intensity: CarbonIntensity,
    dt: SimDuration,
) {
    // Clear last tick's installation (containers may have stopped; the
    // rate limit may be gone; intensity changed).
    for c in std::mem::take(&mut rec.carbon_capped) {
        let _ = cop.set_carbon_cap(c, None);
    }
    let Some(rate) = rec.carbon_rate_limit else {
        return;
    };
    let battery_ok = rec
        .ves
        .battery()
        .map(|b| b.max_discharge_power(dt).min(rec.ves.max_discharge()))
        .unwrap_or(Watts::ZERO);
    let zero_carbon = rec.ves.solar_available() + battery_ok;
    // rate (g/s) allows P watts of grid power where
    // P × intensity / 3.6e6 = rate  =>  P = rate × 3.6e6 / intensity.
    let grid_allowance =
        Watts::new(rate.grams_per_sec() * 3.6e6 / intensity.grams_per_kwh().max(1e-9));
    let total_allowed = zero_carbon + grid_allowance;
    let running: Vec<ContainerId> = cop
        .owned_by(rec.app)
        .filter(|c| c.state() == ContainerState::Running)
        .map(|c| c.id())
        .collect();
    if running.is_empty() {
        return;
    }
    let per_container = total_allowed / running.len() as f64;
    for &c in &running {
        let _ = cop.set_carbon_cap(c, Some(per_container));
    }
    rec.carbon_capped = running;
}
