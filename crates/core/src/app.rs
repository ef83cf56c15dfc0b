//! The application abstraction.
//!
//! Paper §3.1: "Applications register their `tick()` method with the
//! ecovisor as a callback function at startup. Within their `tick()`
//! method, applications can examine the characteristics of their power
//! supply ... and make adjustments to their power supply and demand."
//!
//! [`Application`] is that callback interface. [`Application::on_tick`]
//! is the periodic `tick()` upcall; [`Application::on_event`] receives
//! the asynchronous notifications of Table 2 (`notify_solar_change`,
//! `notify_carbon_change`, `notify_battery_full/empty`).
//!
//! Upcalls receive an [`EcovisorClient`] — the batching protocol handle.
//! Its methods carry the paper's names (`launch_container`,
//! `get_grid_carbon`, …; see [`crate::client::EnergyClient`]), every call
//! travels as a wire-serializable [`crate::proto::EnergyRequest`], and
//! fire-and-forget setters coalesce into per-tick batches.

use crate::client::EcovisorClient;
use crate::event::Notification;

/// An application running on the ecovisor: typically a workload model
/// plus a carbon-management policy.
pub trait Application {
    /// Human-readable label used in experiment reports.
    fn label(&self) -> &str {
        "app"
    }

    /// Called once at registration, before the first tick. Launch the
    /// initial virtual cluster here.
    fn on_start(&mut self, _api: &mut EcovisorClient<'_>) {}

    /// The paper's `tick()` upcall, invoked every Δt.
    fn on_tick(&mut self, api: &mut EcovisorClient<'_>);

    /// Asynchronous notification upcall, delivered before `on_tick`.
    fn on_event(&mut self, _event: &Notification, _api: &mut EcovisorClient<'_>) {}

    /// `true` once the application has finished its work (batch jobs).
    /// Services that run forever keep the default `false`.
    fn is_done(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Noop;
    impl Application for Noop {
        fn on_tick(&mut self, _api: &mut EcovisorClient<'_>) {}
    }

    #[test]
    fn defaults_are_sensible() {
        let app = Noop;
        assert_eq!(app.label(), "app");
        assert!(!app.is_done());
    }

    #[test]
    fn trait_is_object_safe() {
        let _boxed: Box<dyn Application> = Box::new(Noop);
    }
}
