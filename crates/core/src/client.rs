//! The application-side protocol clients.
//!
//! [`EnergyClient`] is the Table 1 / Table 2 method surface, expressed
//! once as a trait whose provided methods build [`EnergyRequest`]s and
//! route them through a transport hook. Two transports implement it:
//!
//! * [`EcovisorClient`] — the in-process handle applications hold during
//!   their `tick()` upcall; its transport is a direct call into
//!   [`Ecovisor::dispatch_batch`].
//! * [`RemoteEcovisorClient`](crate::transport::RemoteEcovisorClient) —
//!   the out-of-process handle; its transport frames the batch onto a TCP
//!   connection (see [`crate::transport`]).
//!
//! Application code reads identically against either: the method names
//! match the paper's API, and every call travels as an [`EnergyRequest`].
//!
//! ## Batching
//!
//! Infallible fire-and-forget setters (`set_battery_charge_rate`,
//! `set_battery_max_discharge`, `set_carbon_rate`, `set_carbon_budget`)
//! are **queued** rather than dispatched immediately. The queue flushes
//! as one [`RequestBatch`]:
//!
//! * before any query or fallible command executes (so a read always
//!   observes writes issued earlier in the same tick — semantics are
//!   identical to the old synchronous downcalls), and
//! * at the tick boundary ([`crate::sim::Simulation`] flushes after every
//!   upcall; both clients also flush on drop).
//!
//! A policy that only writes therefore settles its whole tick in a single
//! dispatch — and over a remote transport, a single network round trip.

use container_cop::{AppId, ContainerId, ContainerSpec};
use simkit::time::{SimDuration, SimTime};
use simkit::units::{CarbonIntensity, CarbonRate, Co2Grams, WattHours, Watts};

use crate::ecovisor::Ecovisor;
use crate::error::Result;
use crate::event::{EventFilter, Notification};
use crate::proto::{EnergyRequest, EnergyResponse, RequestBatch, ResponseBatch};

/// The shared Table 1 / Table 2 method surface over any batch transport.
///
/// Implementors supply three hooks — the scoped [`AppId`], the
/// fire-and-forget queue, and [`transport`](Self::transport) — and
/// receive the entire paper API as provided methods. All operations
/// execute under the application's scope, so one tenant can never observe
/// or control another tenant's containers or virtual energy system,
/// whichever transport carries the batch.
pub trait EnergyClient {
    /// The application this client is scoped to (answered locally; the
    /// wire form is [`EnergyRequest::GetAppId`]).
    fn app_id(&self) -> AppId;

    /// The queue of fire-and-forget commands awaiting the next flush.
    #[doc(hidden)]
    fn pending(&self) -> &Vec<EnergyRequest>;

    /// Mutable access to the fire-and-forget queue.
    #[doc(hidden)]
    fn pending_mut(&mut self) -> &mut Vec<EnergyRequest>;

    /// Carries one request batch to the dispatcher and returns its
    /// response batch — the only transport-specific operation.
    #[doc(hidden)]
    fn transport(&mut self, batch: RequestBatch) -> ResponseBatch;

    /// Builds the envelope for a batch of requests.
    #[doc(hidden)]
    fn envelope(&self, requests: Vec<EnergyRequest>) -> RequestBatch {
        RequestBatch {
            version: crate::PROTOCOL_VERSION,
            app: self.app_id(),
            requests,
        }
    }

    // ------------------------------------------------------------------
    // Batch plumbing
    // ------------------------------------------------------------------

    /// Number of requests waiting for the next flush.
    fn queued(&self) -> usize {
        self.pending().len()
    }

    /// Sends a raw request batch (queued requests flush first so ordering
    /// is preserved). The escape hatch for callers that want to speak the
    /// protocol directly.
    fn send(&mut self, requests: Vec<EnergyRequest>) -> Vec<EnergyResponse> {
        self.flush();
        let batch = self.envelope(requests);
        self.transport(batch).responses
    }

    /// Flushes queued fire-and-forget commands as one batch. Returns the
    /// number of requests flushed.
    ///
    /// Queued commands are infallible *at the dispatcher*; over a remote
    /// transport the flush itself can still fail, in which case the
    /// error values are dropped here (fire-and-forget) and the next
    /// query or fallible command surfaces the broken transport.
    fn flush(&mut self) -> usize {
        if self.pending().is_empty() {
            return 0;
        }
        let requests = std::mem::take(self.pending_mut());
        let n = requests.len();
        let batch = self.envelope(requests);
        let _ = self.transport(batch);
        n
    }

    /// Queues an infallible command for the next flush.
    #[doc(hidden)]
    fn enqueue(&mut self, request: EnergyRequest) {
        debug_assert!(request.is_command(), "only commands may be queued");
        self.pending_mut().push(request);
    }

    /// Flushes the queue, then executes `request` in the same batch —
    /// reads always observe earlier writes.
    #[doc(hidden)]
    fn exec(&mut self, request: EnergyRequest) -> EnergyResponse {
        self.pending_mut().push(request);
        let requests = std::mem::take(self.pending_mut());
        let batch = self.envelope(requests);
        let mut responses = self.transport(batch).responses;
        responses.pop().expect("one response per request")
    }

    // ------------------------------------------------------------------
    // Table 1 setters
    // ------------------------------------------------------------------

    /// Sets a container's power cap (`set_container_powercap`).
    ///
    /// # Errors
    ///
    /// Fails if the container does not exist or belongs to another app.
    fn set_container_powercap(&mut self, container: ContainerId, cap: Watts) -> Result<()> {
        self.exec(EnergyRequest::SetContainerPowercap { container, cap })
            .unit()
    }

    /// Removes a container's power cap.
    ///
    /// # Errors
    ///
    /// Fails if the container does not exist or belongs to another app.
    fn clear_container_powercap(&mut self, container: ContainerId) -> Result<()> {
        self.exec(EnergyRequest::ClearContainerPowercap { container })
            .unit()
    }

    /// Sets the virtual battery's grid-charging rate (queued until the
    /// next flush).
    fn set_battery_charge_rate(&mut self, rate: Watts) {
        self.enqueue(EnergyRequest::SetBatteryChargeRate { rate });
    }

    /// Sets the virtual battery's maximum discharge rate (queued until
    /// the next flush).
    fn set_battery_max_discharge(&mut self, rate: Watts) {
        self.enqueue(EnergyRequest::SetBatteryMaxDischarge { rate });
    }

    // ------------------------------------------------------------------
    // Table 1 getters
    // ------------------------------------------------------------------

    /// Virtual solar power available this tick (`get_solar_power`).
    fn get_solar_power(&mut self) -> Watts {
        self.exec(EnergyRequest::GetSolarPower).expect_power()
    }

    /// Current virtual grid power usage (`get_grid_power`).
    fn get_grid_power(&mut self) -> Watts {
        self.exec(EnergyRequest::GetGridPower).expect_power()
    }

    /// Current grid carbon intensity (`get_grid_carbon`).
    fn get_grid_carbon(&mut self) -> CarbonIntensity {
        self.exec(EnergyRequest::GetGridCarbon).expect_intensity()
    }

    /// Current battery discharge rate (`get_battery_discharge_rate`).
    fn get_battery_discharge_rate(&mut self) -> Watts {
        self.exec(EnergyRequest::GetBatteryDischargeRate)
            .expect_power()
    }

    /// Energy stored in the virtual battery (`get_battery_charge_level`).
    fn get_battery_charge_level(&mut self) -> WattHours {
        self.exec(EnergyRequest::GetBatteryChargeLevel)
            .expect_energy()
    }

    /// A container's power cap, if set (`get_container_powercap`).
    ///
    /// # Errors
    ///
    /// Fails if the container does not exist or belongs to another app.
    fn get_container_powercap(&mut self, container: ContainerId) -> Result<Option<Watts>> {
        self.exec(EnergyRequest::GetContainerPowercap { container })
            .power_cap()
    }

    /// A container's current power usage (`get_container_power`).
    ///
    /// # Errors
    ///
    /// Fails if the container does not exist or belongs to another app.
    fn get_container_power(&mut self, container: ContainerId) -> Result<Watts> {
        self.exec(EnergyRequest::GetContainerPower { container })
            .power()
    }

    // ------------------------------------------------------------------
    // Container & resource management (§3.1)
    // ------------------------------------------------------------------

    /// Launches a container in this app's virtual cluster.
    ///
    /// # Errors
    ///
    /// Fails when no server has capacity for the spec.
    fn launch_container(&mut self, spec: ContainerSpec) -> Result<ContainerId> {
        self.exec(EnergyRequest::LaunchContainer { spec })
            .container()
    }

    /// Destroys a container.
    ///
    /// # Errors
    ///
    /// Fails if the container does not exist, is already stopped, or
    /// belongs to another app.
    fn stop_container(&mut self, container: ContainerId) -> Result<()> {
        self.exec(EnergyRequest::StopContainer { container }).unit()
    }

    /// Freezes a running container.
    ///
    /// # Errors
    ///
    /// Fails if the container is not running or belongs to another app.
    fn suspend_container(&mut self, container: ContainerId) -> Result<()> {
        self.exec(EnergyRequest::SuspendContainer { container })
            .unit()
    }

    /// Thaws a suspended container.
    ///
    /// # Errors
    ///
    /// Fails if the container is not suspended or belongs to another app.
    fn resume_container(&mut self, container: ContainerId) -> Result<()> {
        self.exec(EnergyRequest::ResumeContainer { container })
            .unit()
    }

    /// Sets a container's CPU demand for this tick.
    ///
    /// # Errors
    ///
    /// Fails if the container does not exist or belongs to another app.
    fn set_container_demand(&mut self, container: ContainerId, demand: f64) -> Result<()> {
        self.exec(EnergyRequest::SetContainerDemand { container, demand })
            .unit()
    }

    /// Ids of this app's live containers, in id order.
    fn container_ids(&mut self) -> Vec<ContainerId> {
        self.exec(EnergyRequest::ListContainers).expect_containers()
    }

    /// Number of this app's running (not suspended) containers.
    fn running_containers(&mut self) -> usize {
        self.exec(EnergyRequest::CountRunningContainers)
            .expect_count()
    }

    /// Effective compute capacity this tick, in core-equivalents.
    fn effective_cores(&mut self) -> f64 {
        self.exec(EnergyRequest::GetEffectiveCores).expect_cores()
    }

    /// One container's effective cores this tick.
    ///
    /// # Errors
    ///
    /// Fails if the container does not exist or belongs to another app.
    fn container_effective_cores(&mut self, container: ContainerId) -> Result<f64> {
        self.exec(EnergyRequest::GetContainerEffectiveCores { container })
            .cores()
    }

    // ------------------------------------------------------------------
    // Clock
    // ------------------------------------------------------------------

    /// Start instant of the current tick.
    fn now(&mut self) -> SimTime {
        self.exec(EnergyRequest::GetTime).expect_time()
    }

    /// The tick interval Δt.
    fn tick_interval(&mut self) -> SimDuration {
        self.exec(EnergyRequest::GetTickInterval).expect_interval()
    }

    // ------------------------------------------------------------------
    // Table 2 library functions
    // ------------------------------------------------------------------

    /// Energy used by a container over `[from, to)`.
    ///
    /// # Errors
    ///
    /// Fails if the container does not exist or belongs to another app.
    fn get_container_energy(
        &mut self,
        container: ContainerId,
        from: SimTime,
        to: SimTime,
    ) -> Result<WattHours> {
        self.exec(EnergyRequest::GetContainerEnergy {
            container,
            from,
            to,
        })
        .energy()
    }

    /// Carbon attributed to a container over `[from, to)`.
    ///
    /// # Errors
    ///
    /// Fails if the container does not exist or belongs to another app.
    fn get_container_carbon(
        &mut self,
        container: ContainerId,
        from: SimTime,
        to: SimTime,
    ) -> Result<Co2Grams> {
        self.exec(EnergyRequest::GetContainerCarbon {
            container,
            from,
            to,
        })
        .carbon()
    }

    /// Current power usage across the app's containers (`get_app_power`).
    fn get_app_power(&mut self) -> Watts {
        self.exec(EnergyRequest::GetAppPower).expect_power()
    }

    /// Energy used by the app over `[from, to)` (`get_app_energy`).
    fn get_app_energy(&mut self, from: SimTime, to: SimTime) -> WattHours {
        self.exec(EnergyRequest::GetAppEnergy { from, to })
            .expect_energy()
    }

    /// Cumulative carbon attributed to the app (`get_app_carbon`).
    fn get_app_carbon(&mut self) -> Co2Grams {
        self.exec(EnergyRequest::GetAppCarbon).expect_carbon()
    }

    /// Carbon attributed to the app over `[from, to)`.
    fn get_app_carbon_between(&mut self, from: SimTime, to: SimTime) -> Co2Grams {
        self.exec(EnergyRequest::GetAppCarbonBetween { from, to })
            .expect_carbon()
    }

    /// Sets a carbon rate limit (queued until the next flush); `None`
    /// clears the limit.
    fn set_carbon_rate(&mut self, rate: Option<CarbonRate>) {
        self.enqueue(EnergyRequest::SetCarbonRate { rate });
    }

    /// The active carbon rate limit, if any.
    fn carbon_rate_limit(&mut self) -> Option<CarbonRate> {
        self.exec(EnergyRequest::GetCarbonRateLimit)
            .expect_rate_limit()
    }

    /// Sets a total carbon budget (queued until the next flush); `None`
    /// clears the budget.
    fn set_carbon_budget(&mut self, budget: Option<Co2Grams>) {
        self.enqueue(EnergyRequest::SetCarbonBudget { budget });
    }

    /// The configured carbon budget, if any.
    fn carbon_budget(&mut self) -> Option<Co2Grams> {
        self.exec(EnergyRequest::GetCarbonBudget).expect_budget()
    }

    /// Budget remaining (budget − cumulative carbon), if one is set.
    fn remaining_carbon_budget(&mut self) -> Option<Co2Grams> {
        self.exec(EnergyRequest::GetRemainingCarbonBudget)
            .expect_budget()
    }

    // ------------------------------------------------------------------
    // Table 2 asynchronous notifications
    // ------------------------------------------------------------------

    /// Drains the app's pending notifications through the protocol
    /// (`PollEvents`). The pull half of the event surface, available on
    /// every transport and protocol version.
    ///
    /// # Errors
    ///
    /// Surfaces transport failures (a dead remote connection) as error
    /// values, like every other protocol call.
    fn poll_events(&mut self) -> Result<Vec<Notification>> {
        self.exec(EnergyRequest::PollEvents).events()
    }

    /// Subscribes this client's *connection* to server-push event frames
    /// filtered by `filter` (protocol v2). Over the in-process transport
    /// this is acknowledged but delivery stays pull-based — call
    /// [`events`](Self::events) each tick on either transport and the
    /// observed notification sequence is identical.
    ///
    /// # Errors
    ///
    /// Transport failures, as error values.
    fn subscribe_events(&mut self, filter: EventFilter) -> Result<()> {
        self.exec(EnergyRequest::SubscribeEvents { filter }).unit()
    }

    /// Drains every notification delivered or deliverable so far:
    /// pushed frames already received (remote, subscribed) followed by a
    /// poll of the server-side outbox. Infallible by design — on a dead
    /// transport it returns what was already delivered — so policy loops
    /// can call it unconditionally each tick.
    fn events(&mut self) -> Vec<Notification> {
        self.poll_events().unwrap_or_default()
    }
}

/// The in-process batching protocol handle scoped to one application.
///
/// Obtained from [`Ecovisor::client`]; its transport is a direct call
/// into [`Ecovisor::dispatch_batch`]. The method surface comes from
/// [`EnergyClient`].
pub struct EcovisorClient<'a> {
    eco: &'a mut Ecovisor,
    app: AppId,
    queue: Vec<EnergyRequest>,
}

impl std::fmt::Debug for EcovisorClient<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EcovisorClient")
            .field("app", &self.app)
            .field("queued", &self.queue.len())
            .finish()
    }
}

impl<'a> EcovisorClient<'a> {
    pub(crate) fn new(eco: &'a mut Ecovisor, app: AppId) -> Self {
        Self {
            eco,
            app,
            queue: Vec::new(),
        }
    }
}

impl EnergyClient for EcovisorClient<'_> {
    fn app_id(&self) -> AppId {
        self.app
    }

    fn pending(&self) -> &Vec<EnergyRequest> {
        &self.queue
    }

    fn pending_mut(&mut self) -> &mut Vec<EnergyRequest> {
        &mut self.queue
    }

    fn transport(&mut self, batch: RequestBatch) -> ResponseBatch {
        self.eco.dispatch_batch(&batch)
    }
}

impl Drop for EcovisorClient<'_> {
    fn drop(&mut self) {
        // Tick-boundary safety net: whatever is still queued reaches the
        // ecovisor before the handle disappears.
        self.flush();
    }
}
