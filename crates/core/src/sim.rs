//! The simulation runner: drives the ecovisor tick protocol.
//!
//! [`Simulation`] owns an [`Ecovisor`] and the registered
//! [`Application`]s and advances them in lock-step. It is the one driver
//! loop: examples, the figures and the scenario recorder all run it.
//! Each tick it:
//!
//! 1. delivers each application the event frame taken at the previous
//!    settlement (`on_event`), then its `tick()` upcall, in registration
//!    order, through an [`EcovisorClient`] protocol handle so
//!    applications can only touch their own virtual energy system and
//!    their fire-and-forget commands coalesce into per-tick request
//!    batches;
//! 2. flushes each application's outstanding batch at the tick boundary;
//! 3. runs [`Ecovisor::tick`]: settles energy and carbon, takes an event
//!    frame from each application the settlement left holding events,
//!    in app-id order, between settlement and the clock's advance —
//!    where the transport's push hook runs, so a traced run records its
//!    push traffic — and advances the clock, which samples the next
//!    tick's carbon intensity.
//!
//! So an upcall reads the intensity of the tick it acts in, as every
//! other surface's tenant does.
//!
//! [`EcovisorClient`]: crate::client::EcovisorClient

use container_cop::AppId;

use crate::app::Application;
use crate::client::EnergyClient;
use crate::ecovisor::Ecovisor;
use crate::error::Result;
use crate::proto::EventFrame;
use crate::share::EnergyShare;

struct Entry {
    id: AppId,
    app: Box<dyn Application>,
    /// The frame taken at the last settlement, delivered next step.
    frame: Option<EventFrame>,
}

/// Lock-step driver for an ecovisor and its applications.
pub struct Simulation {
    eco: Ecovisor,
    entries: Vec<Entry>,
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("apps", &self.entries.len())
            .field("tick", &self.eco.tick_index())
            .finish()
    }
}

impl Simulation {
    /// Wraps an ecovisor.
    pub fn new(eco: Ecovisor) -> Self {
        Self {
            eco,
            entries: Vec::new(),
        }
    }

    /// Registers an application with its energy share and runs its
    /// `on_start` hook.
    ///
    /// # Errors
    ///
    /// Propagates registration failures (invalid or oversubscribed
    /// shares).
    pub fn add_app(
        &mut self,
        name: &str,
        share: EnergyShare,
        app: Box<dyn Application>,
    ) -> Result<AppId> {
        let id = self.eco.register_app(name, share)?;
        self.adopt(id, app)?;
        Ok(id)
    }

    /// Drives an application the ecovisor already registers as `id`
    /// (built with it, or restored into it) and runs its `on_start`
    /// hook.
    ///
    /// # Errors
    ///
    /// [`EcovisorError::UnknownApp`](crate::EcovisorError::UnknownApp)
    /// when `id` is not registered.
    pub fn adopt(&mut self, id: AppId, mut app: Box<dyn Application>) -> Result<()> {
        // The client drops with the statement, flushing anything queued.
        app.on_start(&mut self.eco.client(id)?);
        self.entries.push(Entry {
            id,
            app,
            frame: None,
        });
        Ok(())
    }

    /// Runs one tick of the protocol.
    pub fn step(&mut self) {
        for entry in &mut self.entries {
            let mut api = self.eco.client(entry.id).expect("registered app");
            for event in entry.frame.take().iter().flat_map(|f| &f.events) {
                entry.app.on_event(event, &mut api);
            }
            entry.app.on_tick(&mut api);
            // Tick boundary: whatever the app queued settles as one batch.
            api.flush();
        }
        // Every entry's frame was taken above; the tick takes the next
        // ones from the driven tenants the settlement left holding events.
        // A tenant the ecovisor holds but no entry drives keeps its events
        // for `drain_events` / `PollEvents`.
        let mut frames = Vec::new();
        let entries = &self.entries;
        self.eco.tick(|eco| {
            let driven = |id| entries.iter().any(|e| e.id == id);
            frames.extend(eco.take_settled_frames(driven));
        });
        for frame in frames {
            let entry = self.entries.iter_mut().find(|e| e.id == frame.app);
            entry.expect("a driven tenant").frame = Some(frame);
        }
    }

    /// Runs `n` ticks.
    pub fn run_ticks(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Runs until every application reports done, or `max_ticks` elapse.
    /// Returns the number of ticks executed.
    pub fn run_until_done(&mut self, max_ticks: u64) -> u64 {
        let mut executed = 0;
        while executed < max_ticks && !self.all_done() {
            self.step();
            executed += 1;
        }
        executed
    }

    /// `true` when every registered application is done.
    pub fn all_done(&self) -> bool {
        !self.entries.is_empty() && self.entries.iter().all(|e| e.app.is_done())
    }

    /// The underlying ecovisor.
    pub fn eco(&self) -> &Ecovisor {
        &self.eco
    }

    /// Mutable access to the ecovisor (experiment harness hooks).
    pub fn eco_mut(&mut self) -> &mut Ecovisor {
        &mut self.eco
    }

    /// Registered app ids in registration order.
    pub fn app_ids(&self) -> Vec<AppId> {
        self.entries.iter().map(|e| e.id).collect()
    }

    /// Access a registered application by id (for post-run inspection).
    pub fn app(&self, id: AppId) -> Option<&dyn Application> {
        self.entries
            .iter()
            .find(|e| e.id == id)
            .map(|e| e.app.as_ref())
    }
}
