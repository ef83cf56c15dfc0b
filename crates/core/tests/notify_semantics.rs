//! Notification edge semantics, property-tested on seeded loops.
//!
//! Two contracts from the paper's Table 2 `notify_*` surface:
//!
//! * `BatteryFull` / `BatteryEmpty` are **edge-triggered**: delivered
//!   exactly once per crossing, never re-delivered on ticks where the
//!   state merely persists;
//! * `NotifyConfig` thresholds **gate** `SolarChange` / `CarbonChange`
//!   delivery — an event fires iff the configured significance test
//!   passes for that tick's swing, and the event payload carries the
//!   exact previous/current readings.
//!
//! Each property runs as a seeded loop (the repo's stand-in for
//! proptest — no network deps): randomized per-tick control inputs, an
//! independently tracked model of the expected events, and exact
//! assertions every tick.

use container_cop::{ContainerId, ContainerSpec, CopConfig};
use ecovisor::{Ecovisor, EcovisorBuilder, EnergyClient, EnergyShare, Notification, NotifyConfig};
use simkit::rng::SimRng;
use simkit::time::SimDuration;
use simkit::trace::Trace;
use simkit::units::{WattHours, Watts};

const DT_MINUTES: u64 = 30;

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
