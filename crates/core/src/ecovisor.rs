//! The ecovisor: multiplexing the physical energy system across
//! applications' virtual energy systems.
//!
//! "An ecovisor is akin to a hypervisor but virtualizes the energy system
//! of computing infrastructure" (§1). [`Ecovisor`] owns the physical
//! components (solar array, battery bank, grid, PSU), the container
//! orchestration platform, the carbon-intensity trace, and the
//! telemetry store; each registered application reaches its own
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
//! Per-application state (`AppState`) lives in its own **shard** — a
//! `RwLock<AppState>` keyed by [`AppId`] — while the container platform
//! and telemetry store sit behind their own locks. Dispatch
//! ([`Ecovisor::dispatch_batch`]) therefore needs only `&self`: queries
//! take shard-local *read* locks, so concurrent queries from different
//! tenants (and even from the same tenant) never contend; commands take
//! the owning shard's *write* lock plus the container-platform lock when
//! they touch containers. Settlement keeps `&mut self` — exclusive
//! access is the stop-the-world barrier, and the only cross-app one (see
//! [`crate::shard::ShardedEcovisor`] for the multi-threaded deployment
//! shape).

use std::collections::BTreeMap;
use std::sync::atomic::AtomicBool;
use std::sync::{Mutex, RwLock, RwLockReadGuard};

use container_cop::{AppId, ContainerId, ContainerState, Cop};
use energy_system::battery::Battery;
use energy_system::grid::GridConnection;
use energy_system::psu::ProgrammablePsu;
use power_telemetry::{metrics, SeriesId, Tsdb};
use simkit::time::{SimDuration, SimTime, TickClock};
use simkit::trace::Trace;
use simkit::units::{CarbonIntensity, WattHours, Watts};

use crate::config::{EcovisorBuilder, ExcessPolicy};
use crate::error::{EcovisorError, Result};
use crate::event::{Notification, NotifyConfig, OutboxPolicy};
use crate::federation::FedAppView;
use crate::lock;
use crate::share::EnergyShare;
use crate::snapshot::AppSnapshot;
use crate::ves::{DesiredFlows, VesFlows, VesTotals, VirtualEnergySystem};

/// One application's shard: its state behind its own lock, so traffic
/// from different tenants executes in parallel.
pub(crate) type Shard = RwLock<AppState>;

/// Per-application state held by the ecovisor: the tenant's record and
/// what is derived from it.
pub(crate) struct AppState {
    /// Everything about the tenant that persists — what a snapshot
    /// carries and a migration moves. Capture is a clone of this, and
    /// the only way one gets here is past `Ecovisor::admit`.
    pub(crate) rec: AppSnapshot,
    /// Handles of the series telemetry appends to for this tenant each
    /// tick: resolved by the first recording that finds none, and set
    /// back to `None` whenever the store is replaced or renumbered
    /// (restore, a tenant's eviction). Never captured in a snapshot.
    pub(crate) series: Option<SeriesHandles>,
}

impl AppState {
    /// Installs an admitted record. Handles into whatever store was
    /// there before mean nothing to it, so there are none.
    pub(crate) fn install(rec: AppSnapshot) -> Self {
        Self { rec, series: None }
    }

    /// The cached handles of one of this tenant's containers, if it was
    /// live at the last recording.
    pub(crate) fn container_series(&self, id: ContainerId) -> Option<&ContainerSeries> {
        let cached = &self.series.as_ref()?.containers;
        let at = cached.binary_search_by_key(&id, |c| c.id).ok()?;
        Some(&cached[at])
    }
}

/// One tenant's telemetry series by handle (see [`AppState::series`]).
pub(crate) struct SeriesHandles {
    pub(crate) app_power: SeriesId,
    grid_power: SeriesId,
    solar_power: SeriesId,
    battery_discharge: SeriesId,
    battery_charge: SeriesId,
    battery_level: SeriesId,
    battery_soc: SeriesId,
    pub(crate) carbon_rate: SeriesId,
    carbon_total: SeriesId,
    container_count: SeriesId,
    /// The containers that were live at the last recording, ascending by
    /// id. Each recording walks the live set beside this list and
    /// re-resolves from the first difference on.
    containers: Vec<ContainerSeries>,
}

/// The two series recorded per live container.
#[derive(Clone, Copy)]
pub(crate) struct ContainerSeries {
    id: ContainerId,
    pub(crate) power: SeriesId,
    pub(crate) carbon_rate: SeriesId,
}

impl SeriesHandles {
    fn resolve(tsdb: &mut Tsdb, app: AppId) -> Self {
        let subject = app.to_string();
        let mut id = |metric| tsdb.series_id(metric, &subject);
        Self {
            app_power: id(metrics::APP_POWER),
            grid_power: id(metrics::GRID_POWER),
            solar_power: id(metrics::SOLAR_POWER),
            battery_discharge: id(metrics::BATTERY_DISCHARGE),
            battery_charge: id(metrics::BATTERY_CHARGE),
            battery_level: id(metrics::BATTERY_LEVEL),
            battery_soc: id(metrics::BATTERY_SOC),
            carbon_rate: id(metrics::CARBON_RATE),
            carbon_total: id(metrics::CARBON_TOTAL),
            container_count: id(metrics::CONTAINER_COUNT),
            containers: Vec::new(),
        }
    }
}

/// System-wide flows settled in one tick (diagnostics/telemetry).
#[derive(Debug, Clone, Copy, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct SystemFlows {
    /// Physical solar output during the tick (buffered for next tick).
    pub physical_solar: Watts,
    /// Total grid import across apps.
    pub grid_import: Watts,
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
/// * **shared substrates** (`cop`, `tsdb`, `proto_trace`) — their own
///   locks, read-mostly on the dispatch path;
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
    pub(crate) tsdb: RwLock<Tsdb>,
    pub(crate) apps: BTreeMap<AppId, Shard>,
    pub(crate) next_app: u32,
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
            tsdb: RwLock::new(Tsdb::new()),
            apps: BTreeMap::new(),
            next_app: 1,
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
    pub fn obs_hub(&self) -> Option<std::sync::Arc<crate::obs::ObsHub>> {
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
        self.admit(std::slice::from_ref(&rec), true, &BTreeMap::new())?;
        let id = rec.app;
        self.next_app += 1;
        self.apps.insert(id, RwLock::new(AppState::install(rec)));
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
    pub fn outbox_policy(&self, app: AppId) -> Result<OutboxPolicy> {
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
    /// This is the only place the tick order is written: every driver
    /// — [`Simulation`](crate::sim::Simulation) (which the recorder
    /// runs), replay and [`ShardedEcovisor`](crate::shard::ShardedEcovisor)
    /// — calls it.
    pub fn tick<R>(&mut self, between: impl FnOnce(&Ecovisor) -> R) -> (SystemFlows, R) {
        let views = self.collect_demand();
        self.finish_tick(&views, between)
            .expect("own demand views are complete and ordered")
    }

    /// The second half of [`tick`](Self::tick), over a view list a
    /// federation coordinator merged: settles `views`, runs `between`,
    /// advances the clock.
    ///
    /// # Errors
    ///
    /// Everything [`Self::settle_with_views`] rejects; `between` does not
    /// run and the clock stays at the unsettled tick.
    pub(crate) fn finish_tick<R>(
        &mut self,
        views: &[FedAppView],
        between: impl FnOnce(&Ecovisor) -> R,
    ) -> Result<(SystemFlows, R)> {
        let flows = self.settle_with_views(views)?;
        let out = between(self);
        self.advance_clock();
        Ok((flows, out))
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
    /// caller (see [`crate::shard::ShardedEcovisor::on_settlement`]).
    pub fn take_event_frame(&self, app: AppId) -> Option<crate::proto::EventFrame> {
        self.take_event_frame_matching(app, &crate::event::EventFilter::all())
    }

    /// Like [`take_event_frame`](Self::take_event_frame), but consumes
    /// **only** the events `filter` selects — the rest stay pending for
    /// other consumers (`drain_events` / `PollEvents`). The broadcast
    /// path calls this with the *union* of an app's subscriber filters,
    /// so an event no subscriber wants is never destroyed undelivered.
    pub fn take_event_frame_matching(
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
            version: crate::proto::PROTOCOL_VERSION,
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
    /// it: enforces carbon-rate caps, runs the two-phase virtual settlement,
    /// multiplexes the battery, handles excess solar, mirrors aggregates
    /// onto the physical components, records telemetry, and buffers
    /// next-tick solar. A driver calls [`tick`](Self::tick), which
    /// settles with this and then advances the clock.
    ///
    /// Settlement is the **sole cross-app barrier**: it takes `&mut
    /// self`, so no dispatch (which needs `&self`) can overlap it, and
    /// the per-shard locks cost nothing here (`RwLock::get_mut`).
    pub fn settle_tick(&mut self) -> SystemFlows {
        let views = self.collect_demand();
        self.settle_with_views(&views)
            .expect("own demand views are complete and ordered")
    }

    /// Phase one of a settlement tick: enforces carbon-rate caps (they
    /// change container power under the intensity the clock sampled for
    /// this tick) and captures one [`FedAppView`] per local tenant — its
    /// virtual energy system and post-cap container power, in app-id
    /// order.
    ///
    /// [`Self::tick`] feeds the views straight back into
    /// [`Self::finish_tick`]; a federation coordinator instead merges
    /// every node's views into one global list first. Between the two
    /// phases no dispatch may run (the deployment wrapper's
    /// `fed_collect`/`fed_settle` hold that contract), so the captured
    /// views stay equal to the live state they were cloned from.
    pub(crate) fn collect_demand(&mut self) -> Vec<FedAppView> {
        let dt = self.clock.interval();

        // 1. Enforce carbon-rate limits by converting them to container
        //    power caps under the current intensity (Table 2
        //    set_carbon_rate semantics).
        self.enforce_carbon_rates(dt);

        let cop = lock::get_mut(&mut self.cop);
        let mut views = Vec::with_capacity(self.apps.len());
        for (&id, shard) in self.apps.iter_mut() {
            let state = lock::get_mut(shard);
            views.push(FedAppView {
                app: id,
                ves: state.rec.ves.clone(),
                power: cop.app_power(id),
            });
        }
        views
    }

    /// Phase two of a settlement tick: runs the global settlement
    /// arithmetic over `views` — local tenants against their live
    /// shards, remote tenants against **shadow** copies of the shipped
    /// state that are discarded when the tick ends.
    ///
    /// Every federated node receives the same app-id-ordered view list
    /// and applies the identical sums, throttle scales, and
    /// redistribution loop, so each replica's substrate state (grid
    /// meter, PSU, battery aggregates) stays bit-identical to a
    /// single-process run. Shadow apps contribute their flow numbers to
    /// the shared accumulators but skip notification, budget-edge,
    /// solar-buffer, and telemetry work — that happens on their owning
    /// node.
    ///
    /// # Errors
    ///
    /// [`EcovisorError::Protocol`] when the views are not strictly
    /// ascending by app id or a locally registered app is missing; the
    /// tick is left unsettled and no state is modified.
    pub(crate) fn settle_with_views(&mut self, views: &[FedAppView]) -> Result<SystemFlows> {
        let now = self.clock.now();
        let dt = self.clock.interval();
        let intensity = self.intensity;

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

        // 2. Desired flows per app, from post-cap container power. The
        //    captured views are authoritative for *both* local and
        //    remote apps — for locals they are clones of live state
        //    taken in [`Self::collect_demand`] with nothing allowed to
        //    run in between.
        let desired: Vec<DesiredFlows> = views
            .iter()
            .map(|v| v.ves.desired_flows(v.power, dt))
            .collect();

        // 3. Aggregate throttle factors against the physical bank's rate
        //    limits (§3.3: "computing the limit on the maximum battery
        //    discharge rates and charging rates across all applications").
        //    SoC feasibility is enforced per virtual battery; Σ virtual
        //    capacity ≤ physical capacity guarantees the bank can honor
        //    whatever the virtual batteries accept.
        let total_charge: Watts = desired.iter().map(|d| d.total_charge()).sum();
        let total_discharge: Watts = desired.iter().map(|d| d.discharge).sum();
        let charge_allow = self.physical_battery.spec().max_charge_rate;
        let discharge_allow = self.physical_battery.spec().max_discharge_rate;
        let charge_scale = if total_charge > charge_allow {
            charge_allow / total_charge
        } else {
            1.0
        };
        let discharge_scale = if total_discharge > discharge_allow {
            discharge_allow / total_discharge
        } else {
            1.0
        };

        // 4. Commit per-app flows. Local flows are kept, in app-id order
        //    (the order of `self.apps`), for telemetry.
        let mut shadows: BTreeMap<AppId, VirtualEnergySystem> = BTreeMap::new();
        let mut local_flows = Vec::with_capacity(self.apps.len());
        let mut surplus_pool = Watts::ZERO;
        let mut charge_applied = Watts::ZERO;
        let mut discharge_applied = Watts::ZERO;
        let mut grid_total = Watts::ZERO;
        for (view, d) in views.iter().zip(&desired) {
            let f = match self.apps.get_mut(&view.app) {
                // Shadow of a remote app: its shipped state runs through
                // the same arithmetic with no side effects and is
                // discarded when this call ends. Events and budget edges
                // fire on the owning node; only the flow numbers feed
                // the shared accumulators here.
                None => {
                    let ves = shadows.entry(view.app).or_insert_with(|| view.ves.clone());
                    ves.apply_flows(d, charge_scale, discharge_scale, intensity, dt)
                        .0
                }
                Some(shard) => {
                    let rec = &mut lock::get_mut(shard).rec;
                    let (f, events) =
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
                    local_flows.push(f);
                    f
                }
            };
            surplus_pool += f.solar_surplus;
            charge_applied += f.solar_to_battery + f.grid_to_battery;
            discharge_applied += f.battery_to_load;
            grid_total += f.grid_import();
        }

        // 5. Excess-solar policy.
        let mut redistributed = Watts::ZERO;
        let mut remaining_pool = surplus_pool;
        if self.excess == ExcessPolicy::Redistribute && remaining_pool > Watts::ZERO {
            let mut headroom = (charge_allow - charge_applied).max_zero();
            for view in views {
                if remaining_pool <= Watts::ZERO || headroom <= Watts::ZERO {
                    break;
                }
                let offer = remaining_pool.min(headroom);
                let accepted = match self.apps.get_mut(&view.app) {
                    Some(shard) => lock::get_mut(shard)
                        .rec
                        .ves
                        .accept_redistribution(offer, dt),
                    None => shadows
                        .get_mut(&view.app)
                        .expect("shadow built")
                        .accept_redistribution(offer, dt),
                };
                remaining_pool -= accepted;
                headroom -= accepted;
                redistributed += accepted;
                charge_applied += accepted;
            }
        }
        let exported = if self.excess == ExcessPolicy::NetMeter {
            self.grid.export(remaining_pool, dt)
        } else {
            Watts::ZERO
        };
        let curtailed = remaining_pool - exported;

        // 6. Mirror aggregates onto the physical meters. The bank's
        //    state of charge is *derived* from the virtual batteries
        //    (see [`Self::physical_battery_level`]); only the grid meter
        //    and PSU carry independent physical state.
        self.grid.import(grid_total, dt);
        self.psu.record_draw(now, grid_total, dt);

        // 7. Physical solar this tick, buffered per app for next tick;
        //    solar-change notifications compare old vs new availability.
        // 8. Carbon-change notifications (this tick vs previous tick).
        //    Local apps only: a remote app's owning node buffers its
        //    solar and notifies it.
        let physical_solar = energy_system::solar::power_over(&self.solar, now, now + dt);
        let prev_intensity = self.prev_intensity;
        for shard in self.apps.values_mut() {
            let rec = &mut lock::get_mut(shard).rec;
            let outbox = rec.outbox;
            let share = rec.ves.share().solar_fraction;
            let new_buffer = physical_solar * share;
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
        }

        let system = SystemFlows {
            physical_solar,
            grid_import: grid_total,
            battery_charge: charge_applied,
            battery_discharge: discharge_applied,
            redistributed,
            exported,
            curtailed,
        };
        self.last_system_flows = system;

        // 9. Telemetry — local tenants only; remote apps' rows are
        //    recorded by their owning node. Note the SYSTEM-subject
        //    rows derived from local state (app power, battery SoC) are
        //    node-local under federation; see docs/FEDERATION.md.
        self.record_telemetry(now, &local_flows, &system);

        Ok(system)
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

    /// The historical telemetry store (shared read guard — hold briefly;
    /// settlement writes telemetry under exclusive access).
    pub fn tsdb(&self) -> RwLockReadGuard<'_, Tsdb> {
        lock::read(&self.tsdb)
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

    /// Converts each app's carbon-rate limit into per-container **carbon
    /// caps** under the current intensity. Zero-carbon supply (available
    /// solar plus allowed battery discharge) is exempt from the cap.
    ///
    /// Carbon caps are a separate component from the caps applications
    /// set through `set_container_powercap` — the COP enforces the `min`
    /// of the two — and are cleared and re-installed every settlement,
    /// so lifting the rate limit (`set_carbon_rate(None)`) restores the
    /// containers' own caps on the next tick, and the per-container
    /// spread tracks the live container set.
    fn enforce_carbon_rates(&mut self, dt: SimDuration) {
        let intensity = self.intensity.grams_per_kwh().max(1e-9);
        let cop = lock::get_mut(&mut self.cop);
        for (&id, shard) in self.apps.iter_mut() {
            let rec = &mut lock::get_mut(shard).rec;
            // Clear last tick's installation (containers may have
            // stopped; the rate limit may be gone; intensity changed).
            for c in std::mem::take(&mut rec.carbon_capped) {
                let _ = cop.set_carbon_cap(c, None);
            }
            let Some(rate) = rec.carbon_rate_limit else {
                continue;
            };
            let battery_ok = rec
                .ves
                .battery()
                .map(|b| b.max_discharge_power(dt).min(rec.ves.max_discharge()))
                .unwrap_or(Watts::ZERO);
            let zero_carbon = rec.ves.solar_available() + battery_ok;
            // rate (g/s) allows P watts of grid power where
            // P × intensity / 3.6e6 = rate  =>  P = rate × 3.6e6 / intensity.
            let grid_allowance = Watts::new(rate.grams_per_sec() * 3.6e6 / intensity);
            let total_allowed = zero_carbon + grid_allowance;
            let running: Vec<ContainerId> = cop
                .owned_by(id)
                .filter(|c| c.state() == ContainerState::Running)
                .map(|c| c.id())
                .collect();
            if running.is_empty() {
                continue;
            }
            let per_container = total_allowed / running.len() as f64;
            for &c in &running {
                let _ = cop.set_carbon_cap(c, Some(per_container));
            }
            rec.carbon_capped = running;
        }
    }

    /// Records the tick's telemetry; `flows` holds the local apps'
    /// committed flows in the order of `self.apps`.
    ///
    /// Per tenant this is ten appends through its cached handles plus one
    /// walk of its containers in the COP's owner index, two appends per
    /// live one: no lookup by name, no allocation, unless the handles
    /// were dropped or the tenant's live container set changed since the
    /// last tick.
    fn record_telemetry(&mut self, now: SimTime, flows: &[VesFlows], system: &SystemFlows) {
        debug_assert_eq!(flows.len(), self.apps.len());
        let phys_capacity = self.physical_battery.spec().capacity;
        let intensity = self.intensity;
        let tsdb = lock::get_mut(&mut self.tsdb);
        let cop = lock::get_mut(&mut self.cop);
        let battery_total: WattHours = self
            .apps
            .values_mut()
            .map(|s| lock::get_mut(s).rec.ves.battery_charge_level())
            .sum();

        // System-wide series.
        for (metric, value) in [
            (metrics::GRID_CARBON_INTENSITY, intensity.grams_per_kwh()),
            (metrics::SOLAR_POWER, system.physical_solar.watts()),
            (metrics::GRID_POWER, system.grid_import.watts()),
            (metrics::APP_POWER, cop.total_power().watts()),
            (metrics::BATTERY_SOC, battery_total / phys_capacity),
            (metrics::SOLAR_CURTAILED, system.curtailed.watts()),
        ] {
            tsdb.record(metric, metrics::SYSTEM, now, value);
        }

        // Per-app and per-container series.
        for ((&id, shard), f) in self.apps.iter_mut().zip(flows) {
            let AppState { rec, series } = lock::get_mut(shard);
            let series = series.get_or_insert_with(|| SeriesHandles::resolve(tsdb, id));
            let app_power = f.demand;
            // APP_POWER records *served* power (demand minus load shed by
            // the grid cap), so its TSDB integral — get_app_energy —
            // agrees with VesTotals::energy, which accumulates served
            // power. Demand stays the denominator for the proportional
            // carbon attribution below (container powers sum to demand).
            let served = (f.demand - f.unmet_demand).max_zero();
            let charge = f.solar_to_battery + f.grid_to_battery + f.redistributed_in;
            for (handle, value) in [
                (series.app_power, served.watts()),
                (series.grid_power, f.grid_import().watts()),
                (series.solar_power, f.solar_available.watts()),
                (series.battery_discharge, f.battery_to_load.watts()),
                (series.battery_charge, charge.watts()),
                (
                    series.battery_level,
                    rec.ves.battery_charge_level().watt_hours(),
                ),
                (series.battery_soc, rec.ves.battery_soc()),
                (series.carbon_rate, f.carbon_rate.grams_per_sec()),
                (series.carbon_total, rec.ves.totals().carbon.grams()),
            ] {
                tsdb.append(handle, now, value);
            }

            // Containers: power + proportional carbon attribution.
            let mut running = 0u32;
            let mut live = 0;
            for c in cop.owned_by(id) {
                match c.state() {
                    ContainerState::Stopped => continue,
                    ContainerState::Running => running += 1,
                    ContainerState::Suspended => {}
                }
                if series.containers.get(live).map(|h| h.id) != Some(c.id()) {
                    let subject = c.id().to_string();
                    series.containers.truncate(live);
                    series.containers.push(ContainerSeries {
                        id: c.id(),
                        power: tsdb.series_id(metrics::CONTAINER_POWER, &subject),
                        carbon_rate: tsdb.series_id(metrics::CARBON_RATE, &subject),
                    });
                }
                let handles = series.containers[live];
                live += 1;
                let power = cop.power_of(c);
                let share = if app_power > Watts::ZERO {
                    power / app_power
                } else {
                    0.0
                };
                tsdb.append(handles.power, now, power.watts());
                tsdb.append(
                    handles.carbon_rate,
                    now,
                    f.carbon_rate.grams_per_sec() * share,
                );
            }
            series.containers.truncate(live);
            tsdb.append(series.container_count, now, f64::from(running));
        }
    }
}
