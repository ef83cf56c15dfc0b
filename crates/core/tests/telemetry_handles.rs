//! A tenant's telemetry lives in its own shard, and leaves and comes back
//! with it.
//!
//! Settlement appends each tenant's samples to series its shard holds —
//! six of its own and two per live container, a stopped container's kept
//! for the accounting queries — and the `SYSTEM` series to three slots of
//! the ecovisor. A capture writes each tenant's slots in its record and a
//! restore (`apply_snapshot`) or a graft installs them with it, no name
//! written or read; an eviction (`remove_app`, the commit half of a
//! migration) drops the tenant's with its shard; `Ecovisor::for_each_series`
//! walks them all where they are held. This suite drives a day through a
//! mid-day launch, suspend and stop, an in-place restore and a
//! migrate-out/migrate-in, and requires the walk — and the whole
//! ecovisor — to end bit-identical to a twin that was never interrupted,
//! and each tenant's interval answers to agree with the series the walk
//! shows.

use std::collections::BTreeMap;

use container_cop::{AppId, ContainerId, ContainerSpec};
use ecovisor::{
    Ecovisor, EcovisorBuilder, EnergyClient, EnergyShare, Metric, Snapshot, Subject, TenantSnapshot,
};
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
/// ticks, and the tenant's *first* container stops later — so its
/// per-container series see one added, a state change, and one that stops
/// growing ahead of series that go on.
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

/// Every series and sample the ecovisor holds, in the walk's order.
fn walked(eco: &Ecovisor) -> String {
    let mut out = String::new();
    eco.for_each_series(|subject, metric, series| {
        out += &format!("{subject:?} {metric:?} {series:?}\n");
    });
    out
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
            // Every tenant's slots are installed from its decoded
            // record into a new shard.
            let bytes = eco.snapshot().to_bytes();
            let snap = Snapshot::from_bytes(&bytes).expect("own snapshot decodes");
            eco.apply_snapshot(&snap).expect("own snapshot applies");
        }
        if t == MIGRATE_AT {
            // Out and back in: the eviction drops the mover's series with
            // its shard, the graft installs them into a new one.
            let bytes = eco.extract_app(middle).expect("registered").to_bytes();
            eco.remove_app(middle).expect("registered");
            let tenant = TenantSnapshot::from_bytes(&bytes).expect("own capture decodes");
            eco.graft_app(&tenant).expect("grafts back");
        }
        assert_eq!(walked(&eco), walked(&twin), "after tick {t}");
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
    let mut integrals = BTreeMap::new();
    eco.for_each_series(|subject, metric, series| {
        integrals.insert((subject, metric), series.integrate_step(from, to));
    });
    let integral = |subject, metric| integrals[&(subject, metric)];
    let mut checked = 0;
    for (&app, fleet) in &fleets {
        let energy = integral(Subject::App(app), Metric::AppPower) / 3600.0;
        let carbon = integral(Subject::App(app), Metric::CarbonRate);
        // Live containers and the stopped one alike answer from the
        // tenant's own series.
        let mut containers = fleet.clone();
        if app == middle {
            containers.push(first_of_middle);
        }
        let expected: Vec<(f64, f64)> = containers
            .iter()
            .map(|c| {
                (
                    integral(Subject::Container(*c), Metric::ContainerPower) / 3600.0,
                    integral(Subject::Container(*c), Metric::CarbonRate),
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
