//! The protocol dispatcher: the one hot path for all API traffic.
//!
//! Every application-facing operation — whether it arrives through an
//! [`EnergyClient`](crate::client::EnergyClient) handle (in-process or
//! remote), off the wire, or as a raw replayed [`RequestBatch`] — is a
//! batch executed by [`Ecovisor::dispatch_batch`], the only entry point
//! that reaches tenant state. The dispatcher:
//!
//! 1. validates the batch envelope (stamped with exactly
//!    [`PROTOCOL_VERSION`], registered app) — a batch stamped otherwise
//!    is refused wholesale, every request answered
//!    [`ProtoError::Version`];
//! 2. enforces **scope**: a request can only observe or mutate state
//!    belonging to the envelope's [`AppId`] — cross-tenant container
//!    references come back as [`ProtoError::Scope`] *values*, they never
//!    panic and never leak another tenant's state;
//! 3. executes each request against the app's shard (its virtual energy
//!    system and its telemetry) and the shared substrates (COP, clock,
//!    carbon trace);
//! 4. optionally records the batch into a protocol trace for replay.
//!    Since every state change is a dispatched batch, a trace taken with
//!    [`Ecovisor::enable_protocol_trace`] is the complete record of a
//!    run's API traffic.
//!
//! ## Locking
//!
//! Dispatch takes `&self` and locks only what a batch touches, so
//! traffic from different tenants executes in parallel (the transport
//! dispatches from several serving threads; see [`crate::shard`]):
//!
//! * a **query-only batch** holds its app's shard *read* lock for the
//!   whole batch — concurrent queries, even to the same app, never
//!   block each other, and a multi-request batch observes one
//!   consistent shard snapshot;
//! * a batch containing **commands** holds the shard *write* lock for
//!   the whole batch, so its effects become visible atomically to
//!   readers of that shard;
//! * container operations additionally take the shared COP lock
//!   (read for queries, write for commands) — always *after* the shard
//!   lock, which makes the lock order (shard → COP) acyclic. Telemetry
//!   integrals read the tenant's own series under the shard lock.
//!
//! Settlement needs `&mut self` and is thereby the only cross-app
//! barrier.

use std::sync::atomic::Ordering;

use container_cop::{AppId, ContainerId, Cop};
use simkit::units::{Co2Grams, WattHours};

use crate::ecovisor::{AppState, Ecovisor};
use crate::obs::{CoreMetrics, Histogram};
use crate::proto::{
    EnergyRequest, EnergyResponse, EventFrame, ProtoError, RequestBatch, ResponseBatch,
};
use crate::series::Metric;
use crate::{lock, PROTOCOL_VERSION};

/// Acquires a guard, timing the wait into one of the sampled lock-wait
/// histograms when this batch is an observability sample (`obs` is
/// `Some` only on the 1-in-`DISPATCH_SAMPLE` slow path).
#[inline]
fn timed_lock<G>(
    obs: Option<&CoreMetrics>,
    hist: impl FnOnce(&CoreMetrics) -> &Histogram,
    acquire: impl FnOnce() -> G,
) -> G {
    match obs {
        Some(core) => {
            let start = std::time::Instant::now();
            let guard = acquire();
            hist(core).record_duration(start.elapsed());
            guard
        }
        None => acquire(),
    }
}

/// One recorded dispatch, stamped with the tick it executed in.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TraceEntry {
    /// Tick index at dispatch time.
    pub tick: u64,
    /// The batch as received.
    pub batch: RequestBatch,
}

/// A recorded protocol trace: the ordered batch traffic of a run — every
/// [`EnergyClient`](crate::client::EnergyClient) call and raw batch,
/// which is every way tenant state can change between settlements.
///
/// Serializable, so a trace taken from one process can be
/// [`replayed`](Ecovisor::replay_trace_from) against another ecovisor. Under
/// concurrent dispatch, batches are recorded while their shard guard is
/// held, so per app the trace order is the execution order (even with
/// several connections speaking for one app); across apps, any recorded
/// interleaving replays to the same settlement totals because batches
/// from different apps touch disjoint shards between settlements.
#[derive(Debug, Clone, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct ProtocolTrace {
    /// Entries in dispatch order.
    pub entries: Vec<TraceEntry>,
    /// Event frames taken for push delivery
    /// ([`Ecovisor::take_event_frame`]), in settlement order — the
    /// *output* side of the duplex wire. Replay re-executes `entries`
    /// only; a replaying driver that takes event frames at the same tick
    /// cadence regenerates this sequence, so recorded push traffic is
    /// reproducible (tested in `crates/core/tests/protocol_v2.rs`).
    pub events: Vec<EventFrame>,
}

impl ProtocolTrace {
    /// Total number of requests across all entries.
    pub fn request_count(&self) -> usize {
        self.entries.iter().map(|e| e.batch.requests.len()).sum()
    }

    /// Total number of notifications across all recorded event frames.
    pub fn event_count(&self) -> usize {
        self.events.iter().map(|f| f.events.len()).sum()
    }
}

impl Ecovisor {
    /// Executes a request batch: validates the envelope, then answers
    /// each request in order. One response per request, always — errors
    /// are [`EnergyResponse::Err`] values and never abort the batch.
    ///
    /// Takes `&self`: the batch locks only the shard it addresses (read
    /// for query-only batches, write otherwise), so batches from
    /// different applications dispatch in parallel.
    pub fn dispatch_batch(&self, batch: &RequestBatch) -> ResponseBatch {
        // Observability rides the batch as a write-only side channel.
        // Unsampled cost is a single thread-local tally (countdown +
        // pending request count — no atomics); one batch in
        // `DISPATCH_SAMPLE` per thread takes the full-timing path:
        // flush the pending count, whole-batch latency, lock waits, and
        // per-kind counts scaled back up by the sampling factor. With
        // no hub attached this is one branch.
        let Some(core) = self.obs.as_ref().map(|hub| &hub.core) else {
            return self.dispatch_batch_inner(batch, None);
        };
        let Some(pending) = core.tally(batch.requests.len() as u64) else {
            return self.dispatch_batch_inner(batch, None);
        };
        core.requests.add(pending);
        let scale = crate::obs::DISPATCH_SAMPLE as u64;
        core.batches.add(scale);
        // Aggregate per-kind locally first: a batch usually repeats a
        // few kinds, so this turns up to `len` striped-counter RMWs
        // into one per distinct kind.
        let mut kinds = [0u32; EnergyRequest::KIND_COUNT];
        for req in &batch.requests {
            kinds[req.kind_index()] += 1;
        }
        for (kind, &n) in kinds.iter().enumerate() {
            if n > 0 {
                core.by_kind[kind].add(u64::from(n) * scale);
            }
        }
        let start = std::time::Instant::now();
        let reply = self.dispatch_batch_inner(batch, Some(core));
        core.batch_latency.record_duration(start.elapsed());
        reply
    }

    fn dispatch_batch_inner(
        &self,
        batch: &RequestBatch,
        obs: Option<&crate::obs::CoreMetrics>,
    ) -> ResponseBatch {
        let responses = if batch.version != PROTOCOL_VERSION {
            self.record_trace(batch);
            vec![
                EnergyResponse::Err(ProtoError::Version {
                    expected: PROTOCOL_VERSION,
                    got: batch.version,
                });
                batch.requests.len()
            ]
        } else {
            match self.apps.get(&batch.app) {
                None => {
                    self.record_trace(batch);
                    vec![
                        EnergyResponse::Err(ProtoError::UnknownApp(batch.app));
                        batch.requests.len()
                    ]
                }
                Some(shard) if batch.requests.iter().all(EnergyRequest::is_query) => {
                    // One guard per lock for the whole batch (shard →
                    // COP): a consistent snapshot, zero contention with
                    // other readers, and no per-request re-acquisition.
                    // The COP guard is only taken when some request
                    // actually reads it, so a pure-shard batch never
                    // delays container commands.
                    let state = timed_lock(obs, |c| &c.shard_lock_wait, || lock::read(shard));
                    let cop = batch
                        .requests
                        .iter()
                        .any(EnergyRequest::reads_containers)
                        .then(|| timed_lock(obs, |c| &c.cop_lock_wait, || lock::read(&self.cop)));
                    self.record_trace(batch);
                    batch
                        .requests
                        .iter()
                        .map(|req| self.query_locked(&state, cop.as_deref(), batch.app, req))
                        .collect()
                }
                Some(shard) => {
                    let mut state = timed_lock(obs, |c| &c.shard_lock_wait, || lock::write(shard));
                    // A batch that mutates the container platform holds
                    // the COP write lock for its whole duration and
                    // records its trace entry under it: cross-app
                    // container-id allocation and placement order is
                    // thereby fixed at the batch's trace position, so
                    // replaying the trace reassigns identical ids.
                    let mut cop = batch
                        .requests
                        .iter()
                        .any(EnergyRequest::mutates_containers)
                        .then(|| timed_lock(obs, |c| &c.cop_lock_wait, || lock::write(&self.cop)));
                    self.record_trace(batch);
                    batch
                        .requests
                        .iter()
                        .map(|req| {
                            self.request_locked(&mut state, cop.as_deref_mut(), batch.app, req)
                        })
                        .collect()
                }
            }
        };
        // Answered in the served version whatever the batch carried (a
        // refusal's payload names both).
        ResponseBatch {
            version: PROTOCOL_VERSION,
            app: batch.app,
            responses,
        }
    }

    /// Appends `batch` to the protocol trace, if tracing is on.
    ///
    /// Called while holding the batch's shard guard, so for any one app
    /// the trace order **is** the execution order even when several
    /// connections speak for the same app concurrently — a command
    /// batch's trace position is fixed under the same write guard its
    /// effects land under. (Envelope-rejected batches record without a
    /// shard guard; they have no effects to order.)
    fn record_trace(&self, batch: &RequestBatch) {
        if self.tracing.load(Ordering::Relaxed) {
            if let Some(trace) = lock::lock(&self.proto_trace).as_mut() {
                trace.entries.push(TraceEntry {
                    tick: self.clock.tick_index(),
                    batch: batch.clone(),
                });
            }
        }
    }

    /// Dispatches one request of a write-locked batch. `cop` is the
    /// batch-wide COP write guard, present iff the batch mutates the
    /// container platform (see [`EnergyRequest::mutates_containers`]):
    /// container commands use it, queries reborrow it (or take a fresh
    /// read guard when the batch holds none).
    fn request_locked(
        &self,
        state: &mut AppState,
        cop: Option<&mut Cop>,
        app: AppId,
        req: &EnergyRequest,
    ) -> EnergyResponse {
        use EnergyRequest::*;
        /// The COP guard, which `dispatch_batch` acquires for every
        /// batch that `mutates_containers`.
        fn held(cop: Option<&mut Cop>) -> &mut Cop {
            cop.expect("container command dispatched without the COP guard")
        }
        if req.is_query() {
            let fresh_cop =
                (cop.is_none() && req.reads_containers()).then(|| lock::read(&self.cop));
            let cop_ro = cop.as_deref().or(fresh_cop.as_deref());
            return self.query_locked(state, cop_ro, app, req);
        }
        let rec = &mut state.rec;
        match req {
            SetContainerPowercap { container, cap } => {
                Self::with_owned(held(cop), app, *container, |cop, c| {
                    cop.set_power_cap(c, Some(*cap)).map_err(ProtoError::from)?;
                    Ok(EnergyResponse::Ok)
                })
            }
            ClearContainerPowercap { container } => {
                Self::with_owned(held(cop), app, *container, |cop, c| {
                    cop.set_power_cap(c, None).map_err(ProtoError::from)?;
                    Ok(EnergyResponse::Ok)
                })
            }
            SetBatteryChargeRate { rate } => {
                rec.ves.set_charge_rate(*rate);
                EnergyResponse::Ok
            }
            SetBatteryMaxDischarge { rate } => {
                rec.ves.set_max_discharge(*rate);
                EnergyResponse::Ok
            }
            LaunchContainer { spec } => match held(cop).launch(app, *spec) {
                Ok(id) => EnergyResponse::Container(id),
                Err(e) => EnergyResponse::Err(e.into()),
            },
            StopContainer { container } => {
                Self::with_owned(held(cop), app, *container, |cop, c| {
                    cop.stop(c).map_err(ProtoError::from)?;
                    Ok(EnergyResponse::Ok)
                })
            }
            SuspendContainer { container } => {
                Self::with_owned(held(cop), app, *container, |cop, c| {
                    cop.suspend(c).map_err(ProtoError::from)?;
                    Ok(EnergyResponse::Ok)
                })
            }
            ResumeContainer { container } => {
                Self::with_owned(held(cop), app, *container, |cop, c| {
                    cop.resume(c).map_err(ProtoError::from)?;
                    Ok(EnergyResponse::Ok)
                })
            }
            SetContainerDemand { container, demand } => {
                Self::with_owned(held(cop), app, *container, |cop, c| {
                    cop.set_demand(c, *demand).map_err(ProtoError::from)?;
                    Ok(EnergyResponse::Ok)
                })
            }
            SetCarbonRate { rate } => {
                rec.carbon_rate_limit = *rate;
                EnergyResponse::Ok
            }
            // The pull half of the Table 2 notification surface: drain
            // the app's outbox under the shard write guard the batch
            // already holds. Works in every protocol version.
            PollEvents => EnergyResponse::Events(std::mem::take(&mut rec.pending_events)),
            // Subscription is a *connection* property: the transport
            // layer interprets this request for the connection that sent
            // it (see `crate::transport`); dispatch just acknowledges,
            // so in-process and replayed batches stay arity-correct.
            SubscribeEvents { .. } => EnergyResponse::Ok,
            // The admin checkpoint surface works the same way: the
            // transport intercepts these per-connection (chunk caching
            // and assembly live there, behind the credential gate);
            // dispatch just acknowledges, so recorded traces replay
            // arity-correct without re-running a restore.
            Snapshot { .. }
            | Restore { .. }
            | MigrateOut { .. }
            | MigrateIn { .. }
            | MigrateCommit { .. }
            | FedCollect
            | FedSettle { .. }
            | FedAlign { .. }
            | FedCursor
            | Stats => EnergyResponse::Ok,
            SetCarbonBudget { budget } => {
                rec.carbon_budget = *budget;
                // Clearing the budget or raising it above the carbon
                // already attributed lifts the grid clamp and re-arms
                // the exhaustion edge. A budget at or below current
                // cumulative carbon stays clamped (and fires no new
                // edge) — otherwise re-setting the same exhausted
                // budget every tick would buy a tick of grid draw each
                // time and defeat enforcement entirely.
                let still_exhausted =
                    budget.is_some_and(|b| rec.ves.totals().carbon >= b && rec.budget_exhausted);
                rec.budget_exhausted = still_exhausted;
                rec.ves.set_grid_clamp(still_exhausted);
                EnergyResponse::Ok
            }
            // Queries returned above, so no query variant reaches here.
            _ => unreachable!("non-command request in command dispatch"),
        }
    }

    /// Executes one query against a read-locked shard, with the COP
    /// locked by the caller (one guard per batch, acquired after the shard
    /// lock, present iff some request
    /// [`reads_containers`](EnergyRequest::reads_containers)).
    fn query_locked(
        &self,
        state: &AppState,
        cop: Option<&Cop>,
        app: AppId,
        request: &EnergyRequest,
    ) -> EnergyResponse {
        use EnergyRequest::*;
        /// The COP guard, which callers acquire for every batch with a
        /// `reads_containers` request.
        fn cop_held(cop: Option<&Cop>) -> &Cop {
            cop.expect("container query dispatched without the COP guard")
        }
        let rec = &state.rec;
        match request {
            GetSolarPower => EnergyResponse::Power(rec.ves.solar_available()),
            GetGridPower => EnergyResponse::Power(rec.ves.grid_power()),
            GetGridCarbon => EnergyResponse::Intensity(self.intensity),
            GetBatteryDischargeRate => EnergyResponse::Power(rec.ves.battery_discharge_rate()),
            GetBatteryChargeLevel => EnergyResponse::Energy(rec.ves.battery_charge_level()),
            GetContainerPowercap { container } => {
                let cop = cop_held(cop);
                match Self::scope_in(cop, app, *container) {
                    Err(e) => EnergyResponse::Err(e),
                    Ok(()) => EnergyResponse::PowerCap(
                        cop.container(*container).expect("verified").power_cap(),
                    ),
                }
            }
            GetContainerPower { container } => {
                let cop = cop_held(cop);
                match Self::scope_in(cop, app, *container) {
                    Err(e) => EnergyResponse::Err(e),
                    Ok(()) => match cop.container_power(*container) {
                        Ok(p) => EnergyResponse::Power(p),
                        Err(e) => EnergyResponse::Err(e.into()),
                    },
                }
            }
            ListContainers => EnergyResponse::Containers(cop_held(cop).container_ids_of(app)),
            CountRunningContainers => EnergyResponse::Count(cop_held(cop).running_count(app)),
            GetEffectiveCores => EnergyResponse::Cores(cop_held(cop).app_effective_cores(app)),
            GetContainerEffectiveCores { container } => {
                let cop = cop_held(cop);
                match Self::scope_in(cop, app, *container) {
                    Err(e) => EnergyResponse::Err(e),
                    Ok(()) => EnergyResponse::Cores(
                        cop.container(*container)
                            .expect("verified")
                            .effective_cores(),
                    ),
                }
            }
            GetTime => EnergyResponse::Time(self.clock.now()),
            GetTickInterval => EnergyResponse::Interval(self.clock.interval()),
            GetAppId => EnergyResponse::App(app),
            GetContainerEnergy {
                container,
                from,
                to,
            } => match Self::scope_in(cop_held(cop), app, *container) {
                Err(e) => EnergyResponse::Err(e),
                Ok(()) => {
                    let ws = state.series.integrate(
                        Metric::ContainerPower,
                        Some(*container),
                        *from,
                        *to,
                    );
                    EnergyResponse::Energy(WattHours::new(ws / 3600.0))
                }
            },
            GetContainerCarbon {
                container,
                from,
                to,
            } => match Self::scope_in(cop_held(cop), app, *container) {
                Err(e) => EnergyResponse::Err(e),
                Ok(()) => {
                    let grams =
                        state
                            .series
                            .integrate(Metric::CarbonRate, Some(*container), *from, *to);
                    EnergyResponse::Carbon(Co2Grams::new(grams))
                }
            },
            // Instantaneous draw the containers present *this* tick
            // (pre-settlement). Under grid-cap shedding the served power
            // can be lower — energy/carbon integrals (GetAppEnergy,
            // VesTotals) count served power, so integrate those rather
            // than sampling this reading.
            GetAppPower => EnergyResponse::Power(cop_held(cop).app_power(app)),
            GetAppEnergy { from, to } => {
                let ws = state.series.integrate(Metric::AppPower, None, *from, *to);
                EnergyResponse::Energy(WattHours::new(ws / 3600.0))
            }
            GetAppCarbon => EnergyResponse::Carbon(rec.ves.totals().carbon),
            GetAppCarbonBetween { from, to } => {
                let grams = state.series.integrate(Metric::CarbonRate, None, *from, *to);
                EnergyResponse::Carbon(Co2Grams::new(grams))
            }
            GetCarbonRateLimit => EnergyResponse::RateLimit(rec.carbon_rate_limit),
            GetCarbonBudget => EnergyResponse::Budget(rec.carbon_budget),
            GetRemainingCarbonBudget => EnergyResponse::Budget(
                rec.carbon_budget
                    .map(|b| (b - rec.ves.totals().carbon).max(Co2Grams::ZERO)),
            ),
            // is_query() returned true, so no command variant reaches here.
            _ => unreachable!("non-query request in query dispatch"),
        }
    }

    /// Starts recording all dispatched batches into a protocol trace
    /// (see [`ProtocolTrace`]).
    pub fn enable_protocol_trace(&mut self) {
        let mut trace = lock::lock(&self.proto_trace);
        if trace.is_none() {
            *trace = Some(ProtocolTrace::default());
        }
        drop(trace);
        *self.tracing.get_mut() = true;
    }

    /// Stops recording and returns the trace captured so far, if any.
    pub fn take_protocol_trace(&mut self) -> Option<ProtocolTrace> {
        *self.tracing.get_mut() = false;
        lock::lock(&self.proto_trace).take()
    }

    // ------------------------------------------------------------------
    // Scope enforcement
    // ------------------------------------------------------------------

    /// Scope check as a value, against an already-locked COP: callers
    /// act on the result under the same guard, so there is no window for
    /// the container to change hands between check and use.
    /// `Err(ProtoError::Scope)` when `container` belongs to another
    /// application, `Err(UnknownContainer)` when it does not exist.
    fn scope_in(cop: &Cop, app: AppId, container: ContainerId) -> Result<(), ProtoError> {
        match cop.container(container) {
            Some(c) if c.owner() == app => Ok(()),
            Some(_) => Err(ProtoError::Scope { container, app }),
            None => Err(ProtoError::UnknownContainer(container)),
        }
    }

    /// Runs `op` only if `container` is owned by `app`, folding scope
    /// denials and operation failures into an error response. Scope is
    /// checked against the same COP guard `op` runs under.
    fn with_owned(
        cop: &mut Cop,
        app: AppId,
        container: ContainerId,
        op: impl FnOnce(&mut Cop, ContainerId) -> Result<EnergyResponse, ProtoError>,
    ) -> EnergyResponse {
        match Self::scope_in(cop, app, container) {
            Ok(()) => match op(cop, container) {
                Ok(resp) => resp,
                Err(e) => EnergyResponse::Err(e),
            },
            Err(e) => EnergyResponse::Err(e),
        }
    }
}
