//! Cached telemetry handles never outlive the store they index.
//!
//! Settlement appends each tenant's samples through handles its shard
//! caches (`AppState::series`); a handle is an index into the store, so
//! it dies whenever the store is replaced (`apply_snapshot`) or renumbered
//! (`remove_app`, the commit half of a migration), and the per-container
//! part of the cache must follow the tenant's live container set. This
//! suite drives a day through every one of those events and requires the
//! telemetry store — and the whole ecovisor — to end bit-identical to a
//! twin that was never interrupted, and the interval queries that read
//! through the same handles to agree with lookups by name.

use std::collections::BTreeMap;

use container_cop::{AppId, ContainerId, ContainerSpec};
use ecovisor::{
    Ecovisor, EcovisorBuilder, EnergyClient, EnergyShare, Snapshot, TenantSnapshot, WireCodec,
};
use power_telemetry::metrics;
use simkit::rng::SimRng;
use simkit::time::{SimDuration, SimTime};
use simkit::trace::Trace;
use simkit::units::{WattHours, Watts};

const TICKS: u64 = 48;
const LAUNCH_AT: u64 = 9;
const STOP_AT: u64 = 17;
const RESTORE_AT: u64 = 13;
const MIGRATE_AT: u64 = 29;

type Fleets = BTreeMap<AppId, Vec<ContainerId>>;

/// Three tenants over seeded solar and carbon traces, two containers
/// each; tenant ids ascend in registration order.
fn world(seed: u64) -> (Ecovisor, Fleets) {
    let mut rng = SimRng::from_seed(seed);
    let dt = SimDuration::from_minutes(30);
    let solar: Vec<f64> = (0..TICKS + 2).map(|_| rng.uniform(0.0, 20.0)).collect();
    let carbon: Vec<f64> = (0..TICKS + 2).map(|_| rng.uniform(80.0, 420.0)).collect();
    let mut eco = EcovisorBuilder::new()
        .tick_interval(dt)
        .solar(Trace::from_samples(solar, dt))
        .carbon(Trace::from_samples(carbon, dt))
        .build();
    let mut fleets = Fleets::new();
    for name in ["a", "b", "c"] {
        let share = EnergyShare::grid_only()
            .with_solar_fraction(0.3)
            .with_battery(WattHours::new(40.0))
            .with_initial_soc(0.5);
        let app = eco.register_app(name, share).expect("register");
        let mut client = eco.client(app).expect("registered");
        let fleet = (0..2)
            .map(|_| client.launch_container(ContainerSpec::quad_core()))
            .collect::<ecovisor::Result<Vec<_>>>()
            .expect("launch");
        fleets.insert(app, fleet);
    }
    (eco, fleets)
}

/// One tick of traffic and its settlement. The middle tenant's container
/// set changes mid-day: a third container launches, is suspended for two
/// ticks, and the tenant's *first* container stops later — so the cached
/// per-container handles see an append, a state change, and a removal
/// ahead of entries that stay.
fn tick(eco: &mut Ecovisor, fleets: &mut Fleets, t: u64) {
    let middle = *fleets.keys().nth(1).expect("three tenants");
    for (&app, fleet) in fleets.iter_mut() {
        let mut client = eco.client(app).expect("registered");
        if app == middle {
            match t {
                LAUNCH_AT => fleet.push(
                    client
                        .launch_container(ContainerSpec::quad_core())
                        .expect("launch"),
                ),
                STOP_AT => client.stop_container(fleet.remove(0)).expect("stop"),
                _ => {}
            }
            if t == LAUNCH_AT + 2 {
                client.suspend_container(fleet[2]).expect("suspend");
            }
            if t == LAUNCH_AT + 4 {
                client.resume_container(fleet[2]).expect("resume");
            }
        }
        client.set_battery_charge_rate(Watts::new(if t.is_multiple_of(3) { 15.0 } else { 0.0 }));
        for (i, &c) in fleet.iter().enumerate() {
            let demand = ((t + i as u64 + u64::from(app.value())) % 5) as f64 / 4.0;
            let _ = client.set_container_demand(c, demand);
        }
        client.flush();
    }
    eco.tick(|_| ());
}

fn tsdb_bytes(eco: &Ecovisor) -> Vec<u8> {
    WireCodec::Binary.encode(&*eco.tsdb())
}

#[test]
fn interrupted_day_ends_with_the_uninterrupted_twins_telemetry() {
    let (mut twin, mut twin_fleets) = world(77);
    let (mut eco, mut fleets) = world(77);
    let middle = *fleets.keys().nth(1).expect("three tenants");

    for t in 0..TICKS {
        tick(&mut twin, &mut twin_fleets, t);
        tick(&mut eco, &mut fleets, t);
        if t == RESTORE_AT {
            // The store is replaced by its decoded copy, whose handles
            // number the series in key order, not creation order.
            let bytes = eco.snapshot().to_bytes();
            let snap = Snapshot::from_bytes(&bytes).expect("own snapshot decodes");
            eco.apply_snapshot(&snap).expect("own snapshot applies");
        }
        if t == MIGRATE_AT {
            // Out and back in: the eviction renumbers the series of the
            // tenants that stay, the graft appends the mover's.
            let bytes = eco.extract_app(middle).expect("registered").to_bytes();
            eco.remove_app(middle).expect("registered");
            let tenant = TenantSnapshot::from_bytes(&bytes).expect("own capture decodes");
            eco.graft_app(&tenant).expect("grafts back");
        }
        assert_eq!(tsdb_bytes(&eco), tsdb_bytes(&twin), "after tick {t}");
    }
    assert_eq!(eco.snapshot().digest(), twin.snapshot().digest());
}

#[test]
fn interval_queries_through_handles_agree_with_lookups_by_name() {
    let (mut eco, mut fleets) = world(78);
    let middle = *fleets.keys().nth(1).expect("three tenants");
    let first_of_middle = fleets[&middle][0];
    for t in 0..TICKS {
        tick(&mut eco, &mut fleets, t);
    }
    assert!(!fleets[&middle].contains(&first_of_middle), "it stopped");

    let (from, to) = (SimTime::from_secs(3 * 1800), SimTime::from_secs(40 * 1800));
    let by_name = |eco: &Ecovisor, metric: &str, subject: String| {
        eco.tsdb().integrate(metric, &subject, from, to)
    };
    let mut checked = 0;
    for (&app, fleet) in &fleets {
        let energy = by_name(&eco, metrics::APP_POWER, app.to_string()) / 3600.0;
        let carbon = by_name(&eco, metrics::CARBON_RATE, app.to_string());
        // Live containers answer through the cache, the stopped one (no
        // longer cached) by name.
        let mut containers = fleet.clone();
        if app == middle {
            containers.push(first_of_middle);
        }
        let expected: Vec<(f64, f64)> = containers
            .iter()
            .map(|c| {
                (
                    by_name(&eco, metrics::CONTAINER_POWER, c.to_string()) / 3600.0,
                    by_name(&eco, metrics::CARBON_RATE, c.to_string()),
                )
            })
            .collect();

        let mut client = eco.client(app).expect("registered");
        assert_eq!(client.get_app_energy(from, to).watt_hours(), energy);
        assert_eq!(client.get_app_carbon_between(from, to).grams(), carbon);
        assert!(energy > 0.0 && carbon > 0.0);
        for (&c, (energy, carbon)) in containers.iter().zip(expected) {
            let got = client.get_container_energy(c, from, to).expect("own");
            assert_eq!(got.watt_hours(), energy);
            let got = client.get_container_carbon(c, from, to).expect("own");
            assert_eq!(got.grams(), carbon);
            checked += 1;
        }
    }
    assert_eq!(checked, 2 + 3 + 2);
}
