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
    pub(crate) fn is_edge_triggered(&self) -> bool {
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
    pub(crate) fn push(&self, pending: &mut Vec<Notification>, event: Notification) {
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
    use crate::client::EnergyClient;
    use crate::config::EcovisorBuilder;
    use crate::ecovisor::Ecovisor;
    use crate::share::EnergyShare;
    use container_cop::{AppId, ContainerSpec};
    use simkit::rng::SimRng;
    use simkit::time::SimDuration;
    use simkit::trace::Trace;
    use simkit::units::WattHours;

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

    // Bounded per-app outbox: coalescing and edge-preservation semantics.
    // An application that stops draining its outbox must not grow it
    // without bound, but the bound may only ever cost *stale level
    // observations* (solar/carbon changes, superseded by newer ones) —
    // never an edge-triggered battery or budget notification, which fires
    // once per crossing and cannot be re-observed.

    fn solar_change(prev: f64, cur: f64) -> Notification {
        Notification::SolarChange {
            previous: Watts::new(prev),
            current: Watts::new(cur),
        }
    }

    fn carbon_change(prev: f64, cur: f64) -> Notification {
        Notification::CarbonChange {
            previous: CarbonIntensity::new(prev),
            current: CarbonIntensity::new(cur),
        }
    }

    fn level_count(pending: &[Notification]) -> usize {
        pending.iter().filter(|e| !e.is_edge_triggered()).count()
    }

    /// Seeded property loop over the push policy itself: for random event
    /// streams and random small caps, the level-event population never
    /// exceeds the cap, every edge event survives in order, and the newest
    /// solar/carbon observation is always visible.
    #[test]
    fn seeded_pushes_bound_levels_and_preserve_edges() {
        let mut rng = SimRng::from_seed(0x0B07);
        for round in 0..200 {
            let cap = (rng.next_u64() % 5) as usize; // 0..=4
            let policy = OutboxPolicy::with_cap(cap);
            let mut pending = Vec::new();
            let mut edges_pushed = Vec::new();
            let mut last_solar_current = None;
            let mut last_carbon_current = None;
            let n = 10 + (rng.next_u64() % 60);
            for i in 0..n {
                let event = match rng.next_u64() % 6 {
                    0 => solar_change(rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)),
                    1 => carbon_change(rng.uniform(50.0, 400.0), rng.uniform(50.0, 400.0)),
                    2 => Notification::BatteryFull,
                    3 => Notification::BatteryEmpty,
                    4 => Notification::BudgetExhausted {
                        budget: Co2Grams::new(rng.uniform(0.1, 5.0)),
                        carbon: Co2Grams::new(rng.uniform(0.1, 5.0)),
                    },
                    _ => solar_change(i as f64, (i + 1) as f64),
                };
                match &event {
                    Notification::SolarChange { current, .. } => {
                        last_solar_current = Some(*current)
                    }
                    Notification::CarbonChange { current, .. } => {
                        last_carbon_current = Some(*current)
                    }
                    edge => edges_pushed.push(*edge),
                }
                policy.push(&mut pending, event);
                assert!(
                    level_count(&pending) <= cap,
                    "round {round}: level events {} exceed cap {cap}",
                    level_count(&pending)
                );
            }
            // Every edge event survives, in push order.
            let edges_kept: Vec<Notification> = pending
                .iter()
                .filter(|e| e.is_edge_triggered())
                .copied()
                .collect();
            assert_eq!(
                edges_kept, edges_pushed,
                "round {round}: edges must survive"
            );
            // Keep-latest: a stale observation never shadows a fresh one.
            // Whenever a category is still represented in the queue, its
            // newest entry carries the most recently pushed `current` (an
            // entry may be *evicted* by the other category at tiny caps,
            // but it can never be out of date).
            let newest_solar = pending.iter().rev().find_map(|e| match e {
                Notification::SolarChange { current, .. } => Some(*current),
                _ => None,
            });
            if let Some(newest) = newest_solar {
                assert_eq!(
                    Some(newest),
                    last_solar_current,
                    "round {round}: stale solar observation shadows the newest"
                );
            }
            let newest_carbon = pending.iter().rev().find_map(|e| match e {
                Notification::CarbonChange { current, .. } => Some(*current),
                _ => None,
            });
            if let Some(newest) = newest_carbon {
                assert_eq!(
                    Some(newest),
                    last_carbon_current,
                    "round {round}: stale carbon observation shadows the newest"
                );
            }
            // And the most recently pushed level event is always visible.
            if cap > 0 {
                let last_level = pending.iter().rev().find(|e| !e.is_edge_triggered());
                match (last_solar_current, last_carbon_current) {
                    (None, None) => {}
                    _ => assert!(
                        last_level.is_some(),
                        "round {round}: all level events vanished despite cap {cap}"
                    ),
                }
            }
        }
    }

    /// Coalescing keeps the *span* of a swing visible: the surviving entry
    /// pairs the oldest un-delivered `previous` with the newest `current`.
    #[test]
    fn coalescing_spans_previous_to_latest_current() {
        let policy = OutboxPolicy::with_cap(1);
        let mut pending = Vec::new();
        policy.push(&mut pending, solar_change(10.0, 50.0));
        policy.push(&mut pending, solar_change(50.0, 90.0));
        policy.push(&mut pending, solar_change(90.0, 20.0));
        assert_eq!(pending, vec![solar_change(10.0, 20.0)]);

        // A different level category at cap evicts the oldest level event.
        policy.push(&mut pending, carbon_change(100.0, 300.0));
        assert_eq!(pending, vec![carbon_change(100.0, 300.0)]);

        // Edges pass through untouched and don't count against the cap.
        policy.push(&mut pending, Notification::BatteryFull);
        policy.push(&mut pending, Notification::BatteryEmpty);
        assert_eq!(pending.len(), 3);
        assert_eq!(level_count(&pending), 1);

        // cap = 0: level events are not queued at all, edges still are.
        let drop_all = OutboxPolicy::with_cap(0);
        let mut pending = Vec::new();
        drop_all.push(&mut pending, solar_change(1.0, 2.0));
        drop_all.push(&mut pending, Notification::BatteryFull);
        assert_eq!(pending, vec![Notification::BatteryFull]);
    }

    /// A seeded eventful day with swinging solar, alternating carbon, and a
    /// small cycling battery, with **nobody draining**. Builds the same day
    /// twice — unbounded vs. a tiny cap — and checks the bound holds, the
    /// edge sequences agree exactly, and the undrained queue stays bounded.
    #[test]
    fn undrained_app_outbox_stays_bounded_through_settlement() {
        const TICKS: u64 = 96;

        fn build(seed: u64) -> (Ecovisor, AppId) {
            let mut rng = SimRng::from_seed(seed);
            let dt = SimDuration::from_minutes(30);
            let solar: Vec<f64> = (0..TICKS + 2)
                .map(|_| {
                    if rng.unit() < 0.5 {
                        rng.uniform(0.0, 20.0)
                    } else {
                        rng.uniform(150.0, 300.0)
                    }
                })
                .collect();
            let mut eco = EcovisorBuilder::new()
                .tick_interval(dt)
                .solar(Trace::from_samples(solar, dt))
                .build();
            let app = eco
                .register_app(
                    "undrained",
                    EnergyShare::grid_only()
                        .with_solar_fraction(0.5)
                        .with_battery(WattHours::new(6.0))
                        .with_initial_soc(0.4),
                )
                .expect("register");
            eco.set_notify_config(
                app,
                NotifyConfig {
                    solar_change_fraction: 0.05,
                    solar_change_floor: Watts::new(0.5),
                    carbon_change_fraction: 0.05,
                },
            )
            .expect("notify");
            (eco, app)
        }

        fn run(seed: u64, policy: Option<OutboxPolicy>) -> Vec<Notification> {
            let (mut eco, app) = build(seed);
            if let Some(p) = policy {
                eco.set_outbox_policy(app, p).expect("policy");
            }
            // Drive a charge/discharge cycle so battery edges fire, and
            // never drain the outbox until the end of the day.
            let fleet: Vec<_> = {
                let mut client = eco.client(app).expect("client");
                (0..4)
                    .map(|_| {
                        client
                            .launch_container(ContainerSpec::quad_core())
                            .expect("launch")
                    })
                    .collect()
            };
            for tick in 0..TICKS {
                let mut client = eco.client(app).expect("client");
                if tick % 12 < 6 {
                    client.set_battery_charge_rate(Watts::new(80.0));
                    client.set_battery_max_discharge(Watts::ZERO);
                    for &c in &fleet {
                        let _ = client.set_container_demand(c, 0.05);
                    }
                } else {
                    client.set_battery_charge_rate(Watts::ZERO);
                    client.set_battery_max_discharge(Watts::new(60.0));
                    for &c in &fleet {
                        let _ = client.set_container_demand(c, 1.0);
                    }
                }
                client.flush();
                drop(client);
                eco.tick(|_| ());
            }
            eco.drain_events(app)
        }

        let seed = 0xDA7;
        let unbounded = run(seed, None); // default cap 64 ≫ anything generated per tick
        let bounded = run(seed, Some(OutboxPolicy::with_cap(3)));

        let edges = |events: &[Notification]| -> Vec<Notification> {
            events
                .iter()
                .filter(|e| e.is_edge_triggered())
                .copied()
                .collect()
        };
        // The eventful day produced real edges, and the bound lost none.
        assert!(
            edges(&unbounded)
                .iter()
                .any(|e| matches!(e, Notification::BatteryFull)),
            "day should fill the battery"
        );
        assert!(
            edges(&unbounded)
                .iter()
                .any(|e| matches!(e, Notification::BatteryEmpty)),
            "day should drain the battery"
        );
        assert_eq!(
            edges(&unbounded),
            edges(&bounded),
            "cap must not cost an edge event"
        );
        // The bound held: at most 3 level events pending after 96 undrained
        // ticks (the unbounded run accumulates far more).
        assert!(level_count(&bounded) <= 3, "level bound violated");
        assert!(
            level_count(&unbounded) > 3,
            "seeded day was eventful enough to exercise the bound"
        );
        // Keep-latest: the newest level observation in the bounded queue
        // matches the newest in the unbounded queue.
        let last_level = |events: &[Notification]| {
            events
                .iter()
                .rev()
                .find(|e| matches!(e, Notification::SolarChange { .. }))
                .copied()
        };
        if let (
            Some(Notification::SolarChange { current: a, .. }),
            Some(Notification::SolarChange { current: bc, .. }),
        ) = (last_level(&unbounded), last_level(&bounded))
        {
            assert_eq!(a, bc, "newest solar observation must survive the bound");
        }
    }
}
