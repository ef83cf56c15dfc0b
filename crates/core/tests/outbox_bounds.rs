//! Bounded per-app outbox: coalescing and edge-preservation semantics.
//!
//! The first slice of the event-backpressure roadmap item: an
//! application that stops draining its outbox must not grow it without
//! bound, but the bound may only ever cost *stale level observations*
//! (solar/carbon changes, superseded by newer ones) — never an
//! edge-triggered battery or budget notification, which fires once per
//! crossing and cannot be re-observed.

use container_cop::ContainerSpec;
use ecovisor::{
    AppId, Ecovisor, EcovisorBuilder, EnergyClient, EnergyShare, Notification, NotifyConfig,
    OutboxPolicy,
};
use energy_system::solar::TraceSolarSource;
use simkit::rng::SimRng;
use simkit::time::SimDuration;
use simkit::trace::Trace;
use simkit::units::{CarbonIntensity, Co2Grams, WattHours, Watts};

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
                Notification::SolarChange { current, .. } => last_solar_current = Some(*current),
                Notification::CarbonChange { current, .. } => last_carbon_current = Some(*current),
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
            .solar(Box::new(TraceSolarSource::new(Trace::from_samples(
                solar, dt,
            ))))
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
