//! The simulation runner: drives the ecovisor tick protocol.
//!
//! [`Simulation`] owns an [`Ecovisor`] and the registered
//! [`Application`]s and advances them in lock-step. Each tick it:
//!
//! 1. samples the carbon service ([`Ecovisor::begin_tick`]), so the
//!    upcalls read the intensity of the tick they act in;
//! 2. delivers pending notifications and the `tick()` upcall to every
//!    application, in registration order, through an [`EcovisorClient`]
//!    protocol handle so applications can only touch their own virtual
//!    energy system and their fire-and-forget commands coalesce into
//!    per-tick request batches;
//! 3. flushes each application's outstanding batch at the tick boundary;
//! 4. runs [`Ecovisor::tick`]: settles energy and carbon, then advances
//!    the clock.
//!
//! Step 1 is the one way this loop differs from every other driver's:
//! the recorder, replay and the wire sample only at settlement, so
//! their tenants read the previous tick's intensity.
//!
//! [`EcovisorClient`]: crate::client::EcovisorClient

use container_cop::AppId;
use simkit::time::SimDuration;

use crate::app::Application;
use crate::client::EnergyClient;
use crate::ecovisor::Ecovisor;
use crate::error::Result;
use crate::share::EnergyShare;

struct Entry {
    id: AppId,
    app: Box<dyn Application>,
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
        mut app: Box<dyn Application>,
    ) -> Result<AppId> {
        let id = self.eco.register_app(name, share)?;
        {
            let mut api = self.eco.client(id)?;
            app.on_start(&mut api);
            // `api` drops here, flushing anything still queued.
        }
        self.entries.push(Entry { id, app });
        Ok(id)
    }

    /// Runs one tick of the protocol.
    pub fn step(&mut self) {
        self.eco.begin_tick();
        for entry in &mut self.entries {
            let events = self.eco.drain_events(entry.id);
            let mut api = self.eco.client(entry.id).expect("registered app");
            for event in &events {
                entry.app.on_event(event, &mut api);
            }
            entry.app.on_tick(&mut api);
            // Tick boundary: whatever the app queued settles as one batch.
            api.flush();
        }
        self.eco.tick(|_| ());
    }

    /// Runs `n` ticks.
    pub fn run_ticks(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Runs for a span of simulated time (rounded up to whole ticks).
    pub fn run_for(&mut self, span: SimDuration) {
        let dt = self.eco.tick_interval().as_secs();
        let n = span.as_secs().div_ceil(dt);
        self.run_ticks(n);
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

    /// Whether one application is done.
    pub fn is_done(&self, id: AppId) -> bool {
        self.entries
            .iter()
            .find(|e| e.id == id)
            .map(|e| e.app.is_done())
            .unwrap_or(false)
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
