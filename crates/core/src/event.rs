//! Asynchronous upcall notifications.
//!
//! Beyond the periodic `tick()` upcall, the paper describes event
//! notifications an ecovisor "could also expose to applications via
//! asynchronous upcalls": significant changes in solar output or grid
//! carbon, and the virtual battery reaching full or empty (§3.1, Table 2
//! `notify_*` functions). The ecovisor computes these at each settlement
//! and delivers them at the start of the next tick, before `tick()`.

use serde::{Deserialize, Serialize};

use simkit::units::{CarbonIntensity, Co2Grams, Watts};

/// An asynchronous notification delivered to an application.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Notification {
    /// Virtual solar availability changed significantly
    /// (Table 2 `notify_solar_change`).
    SolarChange {
        /// Availability during the previous tick.
        previous: Watts,
        /// Availability during the current tick.
        current: Watts,
    },
    /// Grid carbon intensity changed significantly
    /// (Table 2 `notify_carbon_change`).
    CarbonChange {
        /// Intensity during the previous tick.
        previous: CarbonIntensity,
        /// Intensity during the current tick.
        current: CarbonIntensity,
    },
    /// The virtual battery just reached full capacity
    /// (Table 2 `notify_battery_full`).
    BatteryFull,
    /// The virtual battery just drained to its empty floor
    /// (Table 2 `notify_battery_empty`).
    BatteryEmpty,
    /// Cumulative attributed carbon just reached the configured budget
    /// (Table 2 `set_carbon_budget` semantics). Edge-triggered like the
    /// battery events: delivered once per crossing, and the ecovisor
    /// clamps the app's grid allowance to zero until the budget is
    /// cleared or raised.
    BudgetExhausted {
        /// The budget that was exhausted.
        budget: Co2Grams,
        /// Cumulative attributed carbon at the crossing.
        carbon: Co2Grams,
    },
}

impl Notification {
    /// The event category this notification belongs to, as a stable
    /// lowercase name — the vocabulary [`EventFilter`] selects over.
    fn category(&self) -> &'static str {
        match self {
            Notification::SolarChange { .. } => "solar",
            Notification::CarbonChange { .. } => "carbon",
            Notification::BatteryFull | Notification::BatteryEmpty => "battery",
            Notification::BudgetExhausted { .. } => "budget",
        }
    }

    /// `true` for **edge-triggered** notifications: battery full/empty
    /// and budget exhaustion fire once per crossing, so dropping or
    /// coalescing one would lose a semantic transition an application
    /// can never re-observe. Solar/carbon changes are **level**
    /// observations — a newer one supersedes a stale one — and are the
    /// only categories [`OutboxPolicy`] will coalesce.
    pub fn is_edge_triggered(&self) -> bool {
        matches!(
            self,
            Notification::BatteryFull
                | Notification::BatteryEmpty
                | Notification::BudgetExhausted { .. }
        )
    }

    /// Coalesces a newer level-triggered observation of the same
    /// category into `self` (keep-latest: `self` keeps its original
    /// `previous`, adopts `newer`'s `current`). Returns `false` — and
    /// leaves `self` untouched — when the two are not the same
    /// level-triggered category.
    fn coalesce_from(&mut self, newer: &Notification) -> bool {
        match (self, newer) {
            (
                Notification::SolarChange { current, .. },
                Notification::SolarChange {
                    current: newest, ..
                },
            ) => {
                *current = *newest;
                true
            }
            (
                Notification::CarbonChange { current, .. },
                Notification::CarbonChange {
                    current: newest, ..
                },
            ) => {
                *current = *newest;
                true
            }
            _ => false,
        }
    }
}

/// Bounded-outbox push policy: the first slice of event backpressure.
///
/// Every notification an application has not yet drained sits in its
/// per-app outbox. A tenant that stops draining (a wedged remote poller,
/// an application that ignores events for days) must not grow that
/// queue without bound — but the two notification *kinds* tolerate
/// different loss policies:
///
/// * **Level** events ([`Notification::SolarChange`] /
///   [`Notification::CarbonChange`]) report an observable that the next
///   event of the same category supersedes. They are bounded by `cap`:
///   once `cap` level events are pending, a new one **coalesces** into
///   the most recent pending event of its category (which keeps its
///   original `previous` and adopts the new `current` — keep-latest,
///   with the full swing still visible across the pair), or, when no
///   same-category event is pending, **evicts the oldest pending level
///   event** to make room.
/// * **Edge** events (battery full/empty, budget exhausted) fire once
///   per crossing and are never coalesced, evicted, or dropped; they do
///   not count against `cap`. Their rate is bounded by physics — one
///   per threshold crossing — so they cannot grow the queue unboundedly
///   on their own.
///
/// The default cap (64) is far above anything a draining consumer ever
/// observes (settlement produces at most a handful of events per tick
/// and every consumer drains per tick), so enabling the bound does not
/// change behaviour for live applications — it only caps abandonment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OutboxPolicy {
    /// Maximum number of *level-triggered* notifications kept pending.
    /// `0` means level events are not queued at all (edge events still
    /// are).
    cap: usize,
}

impl Default for OutboxPolicy {
    fn default() -> Self {
        Self { cap: 64 }
    }
}

impl OutboxPolicy {
    /// A policy with the given level-event cap.
    pub fn with_cap(cap: usize) -> Self {
        Self { cap }
    }

    /// Pushes `event` into `pending` under this policy. See the type
    /// docs for the exact coalescing/eviction semantics.
    pub fn push(&self, pending: &mut Vec<Notification>, event: Notification) {
        if event.is_edge_triggered() {
            pending.push(event);
            return;
        }
        let level_pending = pending.iter().filter(|e| !e.is_edge_triggered()).count();
        if level_pending < self.cap {
            pending.push(event);
            return;
        }
        // At capacity: coalesce into the most recent same-category
        // entry if one exists …
        if let Some(slot) = pending
            .iter_mut()
            .rev()
            .find(|e| e.category() == event.category())
        {
            if slot.coalesce_from(&event) {
                return;
            }
        }
        // … otherwise evict the oldest level event to make room. (With
        // `cap == 0` there is nothing to evict and the level event is
        // simply not queued.)
        if let Some(oldest) = pending.iter().position(|e| !e.is_edge_triggered()) {
            pending.remove(oldest);
            pending.push(event);
        }
    }
}

/// A delivery filter over [`Notification`] categories, carried by
/// `SubscribeEvents` (protocol v2) to say which upcalls a subscriber
/// wants pushed. The default subscribes to everything.
///
/// A filter selects *delivery*, not *generation*: events are produced by
/// settlement regardless (gated only by [`NotifyConfig`]); a category a
/// subscriber opted out of is simply not sent to that subscriber.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventFilter {
    /// Deliver [`Notification::SolarChange`].
    solar: bool,
    /// Deliver [`Notification::CarbonChange`].
    pub carbon: bool,
    /// Deliver [`Notification::BatteryFull`] / [`Notification::BatteryEmpty`].
    pub battery: bool,
    /// Deliver [`Notification::BudgetExhausted`].
    budget: bool,
}

impl Default for EventFilter {
    fn default() -> Self {
        Self::all()
    }
}

impl EventFilter {
    /// Subscribes to every event category.
    pub fn all() -> Self {
        Self {
            solar: true,
            carbon: true,
            battery: true,
            budget: true,
        }
    }

    /// Subscribes to nothing (useful as a base for builder-style opt-in).
    pub fn none() -> Self {
        Self {
            solar: false,
            carbon: false,
            battery: false,
            budget: false,
        }
    }

    /// The union of two filters: a category is delivered if either side
    /// wants it. The broadcast path drains an app's outbox under the
    /// union of its subscribers' filters, so an event no subscriber
    /// wants is never consumed — it stays pending for polling/draining.
    #[must_use]
    pub(crate) fn union(&self, other: &EventFilter) -> EventFilter {
        EventFilter {
            solar: self.solar || other.solar,
            carbon: self.carbon || other.carbon,
            battery: self.battery || other.battery,
            budget: self.budget || other.budget,
        }
    }

    /// Whether `event` passes this filter.
    pub(crate) fn matches(&self, event: &Notification) -> bool {
        match event {
            Notification::SolarChange { .. } => self.solar,
            Notification::CarbonChange { .. } => self.carbon,
            Notification::BatteryFull | Notification::BatteryEmpty => self.battery,
            Notification::BudgetExhausted { .. } => self.budget,
        }
    }
}

/// Per-application thresholds controlling event generation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NotifyConfig {
    /// Relative change in solar availability that triggers
    /// [`Notification::SolarChange`] (e.g. 0.2 = 20 %).
    pub solar_change_fraction: f64,
    /// Absolute floor for solar change detection, so noise around zero
    /// watts does not spam events.
    pub solar_change_floor: Watts,
    /// Relative change in carbon intensity that triggers
    /// [`Notification::CarbonChange`].
    pub carbon_change_fraction: f64,
}

impl Default for NotifyConfig {
    fn default() -> Self {
        Self {
            solar_change_fraction: 0.20,
            solar_change_floor: Watts::new(1.0),
            carbon_change_fraction: 0.15,
        }
    }
}

impl NotifyConfig {
    /// Whether a solar swing from `previous` to `current` is significant.
    pub(crate) fn solar_significant(&self, previous: Watts, current: Watts) -> bool {
        let delta = previous.abs_diff(current);
        if delta < self.solar_change_floor.watts() {
            return false;
        }
        let base = previous.max(current).watts().max(1e-9);
        delta / base >= self.solar_change_fraction
    }

    /// Whether a carbon-intensity swing is significant.
    pub(crate) fn carbon_significant(
        &self,
        previous: CarbonIntensity,
        current: CarbonIntensity,
    ) -> bool {
        let delta = previous.abs_diff(current);
        let base = previous.grams_per_kwh().max(1e-9);
        delta / base >= self.carbon_change_fraction
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solar_threshold_behaviour() {
        let cfg = NotifyConfig::default();
        assert!(cfg.solar_significant(Watts::new(100.0), Watts::new(70.0)));
        assert!(!cfg.solar_significant(Watts::new(100.0), Watts::new(95.0)));
        // Below the absolute floor: insignificant even though 100% change.
        assert!(!cfg.solar_significant(Watts::new(0.4), Watts::new(0.0)));
    }

    #[test]
    fn carbon_threshold_behaviour() {
        let cfg = NotifyConfig::default();
        assert!(cfg.carbon_significant(CarbonIntensity::new(200.0), CarbonIntensity::new(260.0)));
        assert!(!cfg.carbon_significant(CarbonIntensity::new(200.0), CarbonIntensity::new(210.0)));
    }

    #[test]
    fn notifications_compare() {
        assert_eq!(Notification::BatteryFull, Notification::BatteryFull);
        assert_ne!(Notification::BatteryFull, Notification::BatteryEmpty);
    }

    #[test]
    fn filter_selects_by_category() {
        let solar = Notification::SolarChange {
            previous: Watts::new(10.0),
            current: Watts::new(50.0),
        };
        assert!(EventFilter::all().matches(&solar));
        assert!(!EventFilter::none().matches(&solar));
        let mut battery_only = EventFilter::none();
        battery_only.battery = true;
        assert!(battery_only.matches(&Notification::BatteryFull));
        assert!(battery_only.matches(&Notification::BatteryEmpty));
        assert!(!battery_only.matches(&solar));
        assert_eq!(solar.category(), "solar");
        assert_eq!(Notification::BatteryEmpty.category(), "battery");
    }
}
