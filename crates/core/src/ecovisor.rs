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
use simkit::series::TimeSeries;
use simkit::time::{SimDuration, SimTime, TickClock};
use simkit::trace::Trace;
use simkit::units::{CarbonIntensity, WattHours, Watts};
use simkit::IdMap;

use crate::config::{EcovisorBuilder, ExcessPolicy};
use crate::error::{EcovisorError, Result};
use crate::event::{Notification, NotifyConfig, OutboxPolicy};
use crate::federation::FedAppView;
use crate::lock;
use crate::series::{self, Metric, Subject, SystemSeries, TenantSeries};
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
    /// The local tenants whose outbox held events when the last
    /// settlement left them, in app-id order: what
    /// [`take_settled_frames`](Self::take_settled_frames) walks. Cleared
    /// at the start of every settlement and filled by its local tail.
    with_events: Vec<AppId>,
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
            with_events: Vec::new(),
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
    /// the settlement that produced them. The whole-world drivers,
    /// [`Simulation`](crate::sim::Simulation) and replay, take them there
    /// from the tenants settlement left holding events, not by asking
    /// every tenant; the transport's broadcast hook takes them for the
    /// subscribed tenants, through each one's subscription filters.
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

    /// Takes an event frame, as [`take_event_frame`](Self::take_event_frame)
    /// does, from each tenant the last settlement left holding events
    /// that `wanted` selects, in app-id order. Run in a tick's `between`,
    /// where that list is exactly the tenants with pending events:
    /// settlement's local tail records every local tenant whose outbox is
    /// non-empty (events a restore or a graft carried in and events a
    /// filtered broadcast left pending included), dispatch only ever
    /// drains an outbox, and `between` follows settlement under the
    /// barrier. So a driver asks the few tenants with something to say,
    /// not all of them.
    pub(crate) fn take_settled_frames<'a>(
        &'a self,
        mut wanted: impl FnMut(AppId) -> bool + 'a,
    ) -> impl Iterator<Item = crate::proto::EventFrame> + 'a {
        self.with_events
            .iter()
            .filter(move |&&app| wanted(app))
            .filter_map(|&app| self.take_event_frame(app))
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
    ///    change notifications, a place in the list of tenants holding
    ///    events when its outbox is non-empty (what
    ///    [`take_settled_frames`](Self::take_settled_frames) walks), and
    ///    its telemetry — six appends to its
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
        self.with_events.clear();
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
            if !rec.pending_events.is_empty() {
                self.with_events.push(rec.app);
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

    /// Hands `visit` every telemetry series where it is held: the
    /// `SYSTEM` series, then each tenant in id order — its own series,
    /// then its containers' ascending by id — each metric in its owner's
    /// slot order. One shard read lock is held at a time, and nothing is
    /// copied or sorted. `visit` must not call back into the ecovisor: a
    /// tenant's shard is read-locked while its series are visited.
    pub fn for_each_series(&self, mut visit: impl FnMut(Subject, Metric, &TimeSeries)) {
        series::visit_system(&self.system_series, &mut visit);
        for (&app, shard) in self.apps.iter() {
            lock::read(shard).series.visit(app, &mut visit);
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::EnergyClient;
    use crate::event::EventFilter;
    use crate::proto::{EnergyRequest, EventFrame, RequestBatch};
    use container_cop::{ContainerSpec, CopConfig};
    use simkit::rng::SimRng;
    use simkit::units::Co2Grams;

    const DT_MINUTES: u64 = 30;

    /// How drivers took frames before settlement kept its list: every
    /// tenant asked, in id order.
    fn ask_every_tenant(eco: &Ecovisor) -> Vec<EventFrame> {
        eco.app_ids()
            .into_iter()
            .filter_map(|app| eco.take_event_frame(app))
            .collect()
    }

    /// What a transport's broadcast takes when every subscriber wants
    /// battery edges only: the other events stay pending.
    fn broadcast_battery_edges(eco: &Ecovisor) -> Vec<EventFrame> {
        let mut battery = EventFilter::none();
        battery.battery = true;
        eco.app_ids()
            .into_iter()
            .filter_map(|app| eco.take_event_frame_matching(app, &battery))
            .collect()
    }

    fn holds_events(eco: &Ecovisor) -> bool {
        eco.apps
            .values()
            .any(|s| !lock::read(s).rec.pending_events.is_empty())
    }

    /// A world's static environment: seeded solar and carbon traces, so
    /// every build (and every restore into one) sees the same physics.
    struct Env {
        solar: Vec<f64>,
        carbon: Vec<f64>,
    }

    impl Env {
        fn new(seed: u64, ticks: usize) -> Self {
            let mut rng = SimRng::from_seed(seed);
            let solar = (0..ticks + 2).map(|_| rng.uniform(0.0, 260.0)).collect();
            let carbon = (0..ticks + 2).map(|_| rng.uniform(60.0, 450.0)).collect();
            Self { solar, carbon }
        }

        fn build(&self) -> Ecovisor {
            let dt = SimDuration::from_minutes(DT_MINUTES);
            EcovisorBuilder::new()
                .tick_interval(dt)
                .cluster(CopConfig::microserver_cluster(8))
                .solar(Trace::from_samples(self.solar.clone(), dt))
                .carbon(Trace::from_samples(self.carbon.clone(), dt))
                .build()
        }

        /// A fresh build holding `from`'s state, pending events included.
        fn restore(&self, from: &mut Ecovisor) -> Ecovisor {
            let mut eco = self.build();
            eco.apply_snapshot(&from.snapshot()).expect("restores");
            eco
        }

        /// Six tenants: two whose only events are battery edges and a
        /// budget crossing (both pushed in the apply step), two that hear
        /// every solar and carbon swing, one that hears the defaults and
        /// one that never hears anything.
        fn populate(&self, eco: &mut Ecovisor) -> Vec<AppId> {
            let deaf = NotifyConfig {
                solar_change_fraction: 10.0,
                solar_change_floor: Watts::new(1e6),
                carbon_change_fraction: 10.0,
            };
            let keen = NotifyConfig {
                solar_change_fraction: 0.10,
                solar_change_floor: Watts::new(2.0),
                carbon_change_fraction: 0.08,
            };
            let battery = |soc| {
                EnergyShare::grid_only()
                    .with_battery(WattHours::new(8.0))
                    .with_initial_soc(soc)
            };
            let tenants = [
                ("edges", battery(0.6), Some(deaf)),
                ("budget", EnergyShare::grid_only(), Some(deaf)),
                (
                    "keen",
                    EnergyShare::grid_only().with_solar_fraction(0.4),
                    Some(keen),
                ),
                ("quiet", EnergyShare::grid_only(), Some(deaf)),
                (
                    "default",
                    EnergyShare::grid_only().with_solar_fraction(0.3),
                    None,
                ),
                (
                    "edges-keen",
                    battery(0.3).with_solar_fraction(0.2),
                    Some(keen),
                ),
            ];
            let mut ids = Vec::new();
            for (name, share, notify) in tenants {
                let app = eco.register_app(name, share).expect("register");
                if let Some(cfg) = notify {
                    eco.set_notify_config(app, cfg).expect("config");
                }
                let mut api = eco.client(app).expect("client");
                let c = api.launch_container(ContainerSpec::quad_core()).unwrap();
                api.set_container_demand(c, 0.5).unwrap();
                ids.push(app);
            }
            ids
        }
    }

    /// The tenants' knobs before tick `t`, on whichever node holds them:
    /// the two battery tenants charge and drain in opposite five-tick
    /// phases, and the budget tenant gets a budget a few ticks from
    /// exhaustion at ticks 0 and 14.
    fn steer(eco: &mut Ecovisor, ids: &[AppId], t: u64) {
        for (i, &app) in ids.iter().enumerate() {
            if !eco.apps.contains_key(&app) {
                continue;
            }
            let mut api = eco.client(app).expect("client");
            let charging = (t / 5 + i as u64).is_multiple_of(2);
            match i {
                0 | 5 if charging => {
                    api.set_battery_charge_rate(Watts::new(40.0));
                    api.set_battery_max_discharge(Watts::ZERO);
                }
                0 | 5 => {
                    api.set_battery_charge_rate(Watts::ZERO);
                    api.set_battery_max_discharge(Watts::new(40.0));
                }
                1 if t == 0 || t == 14 => {
                    let spent = api.get_app_carbon().grams();
                    api.set_carbon_budget(Some(Co2Grams::new(spent + 1.0)));
                }
                _ => {}
            }
        }
    }

    /// One settlement on a twin pair, locally or as one node of a
    /// federation: `a` takes frames through the walk, `b` by asking
    /// every tenant, unless both broadcast battery edges instead.
    /// Returns what `a` took after checking that `b` took the same bytes.
    fn settle_pair(
        a: &mut Ecovisor,
        b: &mut Ecovisor,
        views: Option<(&[FedAppView], &[FedAppView])>,
        broadcast: bool,
        what: &str,
    ) -> Vec<EventFrame> {
        let walk = |eco: &Ecovisor| {
            if broadcast {
                broadcast_battery_edges(eco)
            } else {
                eco.take_settled_frames(|_| true).collect()
            }
        };
        let ask = |eco: &Ecovisor| {
            if broadcast {
                broadcast_battery_edges(eco)
            } else {
                ask_every_tenant(eco)
            }
        };
        let (walked, asked) = match views {
            None => (a.tick(walk).1, b.tick(ask).1),
            Some((va, vb)) => (
                a.finish_tick(va, walk).expect("views").1,
                b.finish_tick(vb, ask).expect("views").1,
            ),
        };
        assert_eq!(
            serde::binary::to_bytes(&walked),
            serde::binary::to_bytes(&asked),
            "{what}: the walk took other frames than asking every tenant"
        );
        walked
    }

    /// The frames a tick takes from the tenants settlement left holding
    /// events are, byte for byte, the frames asking every tenant takes:
    /// through battery edges and budget crossings (pushed in the apply
    /// step), events a battery-only broadcast left pending, a tenant
    /// drained by `PollEvents`, a restore and a graft that carry events
    /// in, and the local tenants of a federated node.
    #[test]
    fn the_settled_walk_takes_the_frames_asking_every_tenant_takes() {
        const TICKS: u64 = 30;
        let env = Env::new(0xF7A3E, TICKS as usize);
        let (mut a, mut b) = (env.build(), env.build());
        let ids = env.populate(&mut a);
        assert_eq!(env.populate(&mut b), ids);

        let mut nodes: Vec<(Ecovisor, Ecovisor)> = vec![(a, b)];
        let (mut frames, mut edges, mut budgets, mut carried) = (0, 0, 0, 0);
        let mut partial = 0;
        for t in 0..TICKS {
            for (a, b) in &mut nodes {
                steer(a, &ids, t);
                steer(b, &ids, t);
            }
            // Every fourth tick a broadcast takes battery edges only.
            let broadcast = t % 4 == 1;
            let what = format!("tick {t}");
            let taken: Vec<EventFrame> = if let [(a, b)] = nodes.as_mut_slice() {
                settle_pair(a, b, None, broadcast, &what)
            } else {
                let mut views = (Vec::new(), Vec::new());
                for (a, b) in &mut nodes {
                    views.0.extend(a.collect_demand());
                    views.1.extend(b.collect_demand());
                }
                views.0.sort_by_key(|v| v.app);
                views.1.sort_by_key(|v| v.app);
                let views = (views.0.as_slice(), views.1.as_slice());
                let mut taken = Vec::new();
                for (node, (a, b)) in nodes.iter_mut().enumerate() {
                    let what = format!("{what}, node {node}");
                    taken.extend(settle_pair(a, b, Some(views), broadcast, &what));
                }
                taken
            };
            frames += taken.len();
            for e in taken.iter().flat_map(|f| &f.events) {
                edges += usize::from(matches!(
                    e,
                    Notification::BatteryFull | Notification::BatteryEmpty
                ));
                budgets += usize::from(matches!(e, Notification::BudgetExhausted { .. }));
            }
            if broadcast {
                partial += usize::from(nodes.iter().any(|(a, _)| holds_events(a)));
            }

            // Between ticks, after a broadcast left events pending.
            match t {
                // The keen tenant polls what the broadcast left it.
                5 => {
                    let (a, b) = &mut nodes[0];
                    let poll = RequestBatch::new(ids[2], vec![EnergyRequest::PollEvents]);
                    carried += usize::from(holds_events(a));
                    assert_eq!(a.dispatch_batch(&poll), b.dispatch_batch(&poll));
                    assert!(a.drain_events(ids[2]).is_empty(), "PollEvents drained it");
                }
                // A restore carries the pending events into fresh builds.
                9 => {
                    let (a, b) = &mut nodes[0];
                    carried += usize::from(holds_events(a));
                    nodes[0] = (env.restore(a), env.restore(b));
                }
                // So do grafts of the two keen tenants, out and back.
                13 => {
                    let (a, b) = &mut nodes[0];
                    for eco in [a, b] {
                        for app in [ids[2], ids[5]] {
                            let snap = eco.extract_app(app).expect("registered");
                            let pending = &snap.record.app.pending_events;
                            carried += usize::from(!pending.is_empty());
                            eco.remove_app(app).expect("registered");
                            eco.graft_app(&snap).expect("grafts back");
                        }
                    }
                }
                // Two nodes from here on, each with half the tenants.
                17 => {
                    let (a, b) = &mut nodes[0];
                    carried += usize::from(holds_events(a));
                    let split = |eco: &mut Ecovisor| {
                        let [mut left, mut right] = [env.restore(eco), env.restore(eco)];
                        for (i, &app) in ids.iter().enumerate() {
                            let shed = if i % 2 == 0 { &mut right } else { &mut left };
                            shed.remove_app(app).expect("registered");
                        }
                        (left, right)
                    };
                    let ((left_a, right_a), (left_b, right_b)) = (split(a), split(b));
                    nodes = vec![(left_a, left_b), (right_a, right_b)];
                }
                _ => {}
            }
        }
        for (a, b) in &mut nodes {
            assert_eq!(a.snapshot().digest(), b.snapshot().digest());
        }
        // Not vacuous: frames every few ticks, battery edges and budget
        // crossings among them, and events a broadcast left pending for
        // the poll, the restore, the grafts and the split.
        assert!(frames >= TICKS as usize, "only {frames} frames");
        assert!(edges >= 4, "only {edges} battery edges");
        assert!(budgets >= 2, "only {budgets} budget crossings");
        assert!(
            partial >= 5,
            "broadcasts left events pending {partial} times"
        );
        assert!(carried >= 4, "events left pending {carried} times");
    }

    /// ROADMAP 21's method, a count the host cannot move: at 1,000
    /// tenants with k holding events, the walk visits exactly k — and
    /// none on a tick after, when no tenant holds any.
    #[test]
    fn the_settled_walk_visits_only_the_tenants_holding_events() {
        // Constant solar and carbon: no change notifications, so a tenant
        // holds events only when its budget runs out.
        let mut eco = EcovisorBuilder::new().build();
        let ids: Vec<AppId> = (0..1000)
            .map(|i| eco.register_app(format!("t{i}"), EnergyShare::grid_only()))
            .collect::<Result<_>>()
            .expect("register");
        // A budget of nothing is exhausted at the next settlement.
        let exhaust = |eco: &mut Ecovisor, apps: &[AppId], step: usize| {
            for &app in apps.iter().step_by(step) {
                let mut api = eco.client(app).expect("client");
                api.set_carbon_budget(Some(Co2Grams::new(0.0)));
            }
        };
        let mut counts = Vec::new();
        for t in 0..4 {
            match t {
                0 => exhaust(&mut eco, &ids, 47),
                2 => exhaust(&mut eco, &ids[1..], 40),
                _ => {}
            }
            let mut visits = 0;
            let (_, taken) = eco.tick(|eco| {
                eco.take_settled_frames(|_| {
                    visits += 1;
                    true
                })
                .count()
            });
            counts.push((visits, taken));
        }
        assert_eq!(counts, [(22, 22), (0, 0), (25, 25), (0, 0)]);
    }

    // Notification edge semantics, the paper's Table 2 `notify_*`
    // surface, as seeded property loops: battery full/empty fire once
    // per crossing, and `NotifyConfig` thresholds gate solar and carbon
    // changes.

    /// Battery edge property: over hundreds of randomized charge/discharge
    /// ticks, a full/empty notification appears exactly when the
    /// post-settlement battery state *transitions* into full/empty — and
    /// never again while the state persists.
    #[test]
    fn battery_edges_fire_once_per_crossing() {
        for seed in [1u64, 42, 0xB417] {
            let dt = SimDuration::from_minutes(DT_MINUTES);
            let mut eco = EcovisorBuilder::new()
                .tick_interval(dt)
                .cluster(CopConfig::microserver_cluster(4))
                // No solar: the battery moves only under the randomized
                // charge/discharge knobs below, so the model is exact.
                .solar(Trace::constant(0.0))
                .carbon(Trace::constant(250.0))
                .build();
            let app = eco
                .register_app(
                    "edges",
                    EnergyShare::grid_only()
                        .with_battery(WattHours::new(8.0))
                        .with_initial_soc(0.6),
                )
                .expect("register");
            let container: ContainerId = {
                let mut client = eco.client(app).expect("client");
                let c = client
                    .launch_container(ContainerSpec::quad_core())
                    .expect("launch");
                client.set_container_demand(c, 1.0).expect("demand");
                c
            };

            let mut rng = SimRng::from_seed(seed);
            let battery_state = |eco: &Ecovisor| {
                let ves = eco.app_ves(app).expect("ves");
                let b = ves.battery().expect("share has a battery");
                (b.is_full(), b.is_empty())
            };
            let (mut was_full, mut was_empty) = battery_state(&eco);
            let mut full_seen = 0usize;
            let mut empty_seen = 0usize;

            // Seeded random-length charge/drain phases: long enough streaks
            // to cross both edges repeatedly (the 8 Wh battery charges at
            // its 0.25C limit, ~1 Wh per 30-minute tick), with per-tick
            // randomized demand so the walk between edges varies.
            let mut charging = rng.unit() < 0.5;
            let mut phase_left = rng.uniform_u64(4, 12);
            for tick in 0..300u64 {
                if phase_left == 0 {
                    charging = !charging;
                    phase_left = rng.uniform_u64(4, 12);
                }
                phase_left -= 1;
                {
                    let mut client = eco.client(app).expect("client");
                    if charging {
                        client.set_battery_charge_rate(Watts::new(rng.uniform(20.0, 60.0)));
                        client.set_battery_max_discharge(Watts::ZERO);
                        client
                            .set_container_demand(container, rng.uniform(0.1, 0.3))
                            .expect("demand");
                    } else {
                        client.set_battery_charge_rate(Watts::ZERO);
                        client.set_battery_max_discharge(Watts::new(rng.uniform(10.0, 50.0)));
                        client
                            .set_container_demand(container, rng.uniform(0.7, 1.0))
                            .expect("demand");
                    }
                }
                let (_, ((full, empty), events)) =
                    eco.tick(|eco| (battery_state(eco), eco.drain_events(app)));

                let full_events = events
                    .iter()
                    .filter(|e| matches!(e, Notification::BatteryFull))
                    .count();
                let empty_events = events
                    .iter()
                    .filter(|e| matches!(e, Notification::BatteryEmpty))
                    .count();
                let expect_full = usize::from(full && !was_full);
                let expect_empty = usize::from(empty && !was_empty);
                assert_eq!(
                    full_events, expect_full,
                    "seed {seed} tick {tick}: full {was_full}→{full} must fire {expect_full} (got {full_events})"
                );
                assert_eq!(
                    empty_events, expect_empty,
                    "seed {seed} tick {tick}: empty {was_empty}→{empty} must fire {expect_empty} (got {empty_events})"
                );
                full_seen += full_events;
                empty_seen += empty_events;
                (was_full, was_empty) = (full, empty);
            }
            // The property must not have held vacuously: the randomized run
            // actually crossed both edges, multiple times.
            assert!(full_seen >= 2, "seed {seed}: only {full_seen} full edges");
            assert!(
                empty_seen >= 2,
                "seed {seed}: only {empty_seen} empty edges"
            );
        }
    }

    /// Threshold property: `SolarChange`/`CarbonChange` delivery tracks
    /// `NotifyConfig`'s significance tests exactly — tick by tick, payloads
    /// included — and an impossible threshold silences the categories.
    #[test]
    fn notify_config_thresholds_gate_solar_and_carbon_delivery() {
        for seed in [3u64, 99, 0x501A] {
            run_threshold_property(seed);
        }
    }

    fn run_threshold_property(seed: u64) {
        let dt = SimDuration::from_minutes(DT_MINUTES);
        let mut rng = SimRng::from_seed(seed);
        let ticks = 200u64;
        let solar: Vec<f64> = (0..ticks + 2).map(|_| rng.uniform(0.0, 260.0)).collect();
        let carbon: Vec<f64> = (0..ticks + 2).map(|_| rng.uniform(60.0, 450.0)).collect();
        let build = |cfg: NotifyConfig| {
            let mut eco = EcovisorBuilder::new()
                .tick_interval(dt)
                .cluster(CopConfig::microserver_cluster(4))
                .solar(Trace::from_samples(solar.clone(), dt))
                .carbon(Trace::from_samples(carbon.clone(), dt))
                .build();
            let app = eco
                .register_app(
                    "thresholds",
                    EnergyShare::grid_only().with_solar_fraction(0.5),
                )
                .expect("register");
            eco.set_notify_config(app, cfg).expect("config");
            (eco, app)
        };

        // --- A sensitive config: delivery must match the significance test
        // tick by tick, with exact previous/current payloads. ---
        let cfg = NotifyConfig {
            solar_change_fraction: 0.10,
            solar_change_floor: Watts::new(2.0),
            carbon_change_fraction: 0.08,
        };
        let (mut eco, app) = build(cfg);
        let mut prev_buffer = Watts::ZERO;
        let mut prev_intensity = eco.grid_carbon_intensity();
        let mut solar_fired = 0usize;
        let mut carbon_fired = 0usize;
        for tick in 0..ticks {
            let (_, (intensity, buffer, events)) = eco.tick(|eco| {
                (
                    eco.grid_carbon_intensity(),
                    eco.app_ves(app).expect("ves").solar_available(),
                    eco.drain_events(app),
                )
            });

            let solar_events: Vec<&Notification> = events
                .iter()
                .filter(|e| matches!(e, Notification::SolarChange { .. }))
                .collect();
            let carbon_events: Vec<&Notification> = events
                .iter()
                .filter(|e| matches!(e, Notification::CarbonChange { .. }))
                .collect();

            if cfg.solar_significant(prev_buffer, buffer) {
                assert_eq!(
                    solar_events,
                    vec![&Notification::SolarChange {
                        previous: prev_buffer,
                        current: buffer,
                    }],
                    "seed {seed} tick {tick}: significant solar swing must deliver exactly once"
                );
                solar_fired += 1;
            } else {
                assert!(
                    solar_events.is_empty(),
                    "seed {seed} tick {tick}: insignificant solar swing delivered {solar_events:?}"
                );
            }
            if cfg.carbon_significant(prev_intensity, intensity) {
                assert_eq!(
                    carbon_events,
                    vec![&Notification::CarbonChange {
                        previous: prev_intensity,
                        current: intensity,
                    }],
                    "seed {seed} tick {tick}: significant carbon swing must deliver exactly once"
                );
                carbon_fired += 1;
            } else {
                assert!(
                    carbon_events.is_empty(),
                    "seed {seed} tick {tick}: insignificant carbon swing delivered {carbon_events:?}"
                );
            }
            prev_buffer = buffer;
            prev_intensity = intensity;
        }
        // Non-vacuous on both sides: the seeded traces produced swings that
        // fired and swings that were gated.
        assert!(solar_fired > 10, "seed {seed}: solar fired {solar_fired}");
        assert!(
            carbon_fired > 10,
            "seed {seed}: carbon fired {carbon_fired}"
        );
        assert!(
            (solar_fired as u64) < ticks,
            "seed {seed}: every tick fired solar — gating untested"
        );

        // --- An impossible threshold silences both categories over the
        // same physics. ---
        let deaf = NotifyConfig {
            solar_change_fraction: 10.0,
            solar_change_floor: Watts::new(1e6),
            carbon_change_fraction: 10.0,
        };
        let (mut eco, app) = build(deaf);
        for _ in 0..ticks {
            let (_, events) = eco.tick(|eco| eco.drain_events(app));
            assert!(
                events.iter().all(|e| !matches!(
                    e,
                    Notification::SolarChange { .. } | Notification::CarbonChange { .. }
                )),
                "impossible thresholds must deliver nothing, got {events:?}"
            );
        }
    }

    /// Every `(subject, metric)` the series walk visits, in its order.
    fn walked(eco: &Ecovisor) -> Vec<(Subject, Metric)> {
        let mut seen = Vec::new();
        eco.for_each_series(|subject, metric, series| {
            assert!(!series.is_empty(), "{subject:?} {metric:?}");
            seen.push((subject, metric));
        });
        seen
    }

    /// The walk's order, spelled out: the three `SYSTEM` series, then
    /// each tenant ascending by id — its six own series, then each of
    /// its containers' two, ascending by id.
    fn expected_walk(fleets: &[(AppId, Vec<ContainerId>)]) -> Vec<(Subject, Metric)> {
        let mut order: Vec<(Subject, Metric)> = [
            Metric::GridCarbonIntensity,
            Metric::SolarPower,
            Metric::AppPower,
        ]
        .map(|metric| (Subject::System, metric))
        .into();
        for (app, fleet) in fleets {
            order.extend(
                [
                    Metric::AppPower,
                    Metric::BatteryDischarge,
                    Metric::BatteryCharge,
                    Metric::BatterySoc,
                    Metric::CarbonRate,
                    Metric::ContainerCount,
                ]
                .map(|metric| (Subject::App(*app), metric)),
            );
            for &c in fleet {
                let of = Subject::Container(c);
                order.extend([(of, Metric::ContainerPower), (of, Metric::CarbonRate)]);
            }
        }
        order
    }

    /// The series walk goes by id, not by name: the middle tenant's
    /// containers are `c1`, `c4`, `c7` and `c10`, which a name order
    /// would visit as `c1`, `c10`, `c4`, `c7`. When that tenant leaves
    /// and is grafted back, it is visited in its id's place again.
    #[test]
    fn the_series_walk_visits_system_then_tenants_and_containers_by_id() {
        let mut eco = Env::new(0x5E41, 4).build();
        let mut fleets: Vec<(AppId, Vec<ContainerId>)> = ["a", "b", "c"]
            .into_iter()
            .map(|name| {
                let share = EnergyShare::grid_only().with_solar_fraction(0.3);
                (eco.register_app(name, share).expect("register"), Vec::new())
            })
            .collect();
        for _ in 0..4 {
            for (app, fleet) in &mut fleets {
                let mut api = eco.client(*app).expect("client");
                let c = api.launch_container(ContainerSpec::single_core());
                fleet.push(c.expect("launch"));
            }
        }
        let middle: Vec<u64> = fleets[1].1.iter().map(|c| c.value()).collect();
        assert_eq!(middle, [1, 4, 7, 10]);
        for _ in 0..3 {
            eco.tick(|_| ());
        }
        let expected = expected_walk(&fleets);
        assert_eq!(walked(&eco), expected);

        let middle = fleets[1].0;
        let capture = eco.extract_app(middle).expect("registered");
        eco.remove_app(middle).expect("registered");
        let mut without = fleets.clone();
        without.remove(1);
        assert_eq!(walked(&eco), expected_walk(&without));
        eco.graft_app(&capture).expect("grafts back");
        assert_eq!(walked(&eco), expected);
    }
}
