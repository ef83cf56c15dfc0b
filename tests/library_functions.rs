//! Table 2 conformance: the library layer's interval queries, carbon
//! rates/budgets, and notification upcalls, end to end.

use container_cop::{ContainerSpec, CopConfig};
use ecovisor::{
    Application, EcovisorBuilder, EcovisorClient, EnergyClient, EnergyShare, Notification,
    Simulation,
};
use simkit::time::{SimDuration, SimTime};
use simkit::trace::Trace;
use simkit::units::{CarbonRate, Co2Grams, WattHours, Watts};

struct TwoContainers;
impl Application for TwoContainers {
    fn on_start(&mut self, api: &mut EcovisorClient<'_>) {
        for demand in [1.0, 0.5] {
            let c = api.launch_container(ContainerSpec::quad_core()).unwrap();
            api.set_container_demand(c, demand).unwrap();
        }
    }
    fn on_tick(&mut self, _api: &mut EcovisorClient<'_>) {}
}

#[test]
fn interval_energy_and_carbon_queries() {
    let eco = EcovisorBuilder::new()
        .cluster(CopConfig::microserver_cluster(8))
        .carbon(Trace::constant(1000.0))
        .build();
    let mut s = Simulation::new(eco);
    let app = s
        .add_app("q", EnergyShare::grid_only(), Box::new(TwoContainers))
        .unwrap();
    s.run_ticks(60);

    let (from, to) = (SimTime::EPOCH, s.eco().now());
    let mut api = s.eco_mut().client(app).unwrap();

    // get_app_power: 3.65 + 1.825 = 5.475 W.
    assert!((api.get_app_power().watts() - 5.475).abs() < 1e-9);

    // get_app_energy over the hour.
    let energy = api.get_app_energy(from, to);
    assert!(
        (energy.watt_hours() - 5.475).abs() < 0.01,
        "energy {energy}"
    );

    // get_app_carbon == interval carbon over the whole run.
    let carbon = api.get_app_carbon();
    assert!((carbon.grams() - 5.475).abs() < 0.01, "carbon {carbon}");
    let between = api.get_app_carbon_between(from, to);
    assert!(carbon.abs_diff(between) < 0.01);

    // Container-level queries partition the app totals (2:1 demand).
    let ids = api.container_ids();
    let e0 = api.get_container_energy(ids[0], from, to).unwrap();
    let e1 = api.get_container_energy(ids[1], from, to).unwrap();
    assert!((e0.watt_hours() / e1.watt_hours() - 2.0).abs() < 0.01);
    let c0 = api.get_container_carbon(ids[0], from, to).unwrap();
    let c1 = api.get_container_carbon(ids[1], from, to).unwrap();
    assert!(((c0 + c1).grams() - carbon.grams()).abs() < 0.01);
}

#[test]
fn carbon_rate_and_budget_tracking() {
    let eco = EcovisorBuilder::new()
        .cluster(CopConfig::microserver_cluster(4))
        .carbon(Trace::constant(500.0))
        .build();
    let mut s = Simulation::new(eco);
    let app = s
        .add_app("rb", EnergyShare::grid_only(), Box::new(TwoContainers))
        .unwrap();
    {
        let mut api = s.eco_mut().client(app).unwrap();
        api.set_carbon_rate(Some(CarbonRate::from_milligrams_per_sec(0.2)));
        api.set_carbon_budget(Some(Co2Grams::new(2.0)));
        assert_eq!(
            api.carbon_rate_limit(),
            Some(CarbonRate::from_milligrams_per_sec(0.2))
        );
        assert_eq!(api.carbon_budget(), Some(Co2Grams::new(2.0)));
    }
    s.run_ticks(120);
    {
        let mut api = s.eco_mut().client(app).unwrap();
        // Rate enforced: 0.2 mg/s at 500 g/kWh allows 1.44 W.
        let flows_power = api.get_app_power();
        assert!(
            flows_power.watts() <= 1.44 + 1e-6,
            "rate cap violated: {flows_power}"
        );
        let remaining = api.remaining_carbon_budget().unwrap();
        assert!(remaining < Co2Grams::new(2.0));
        assert!(remaining >= Co2Grams::ZERO);
    }
}

#[test]
fn notify_upcalls_fire() {
    #[derive(Default)]
    struct Collector {
        solar_changes: u64,
        carbon_changes: u64,
        battery_empty: u64,
    }
    struct EventApp(carbon_policies::Shared<Collector>);
    impl Application for EventApp {
        fn on_start(&mut self, api: &mut EcovisorClient<'_>) {
            let c = api.launch_container(ContainerSpec::quad_core()).unwrap();
            api.set_container_demand(c, 1.0).unwrap();
            api.set_battery_max_discharge(Watts::new(1000.0));
        }
        fn on_tick(&mut self, _api: &mut EcovisorClient<'_>) {}
        fn on_event(&mut self, event: &Notification, _api: &mut EcovisorClient<'_>) {
            let mut c = self.0.borrow_mut();
            match event {
                Notification::SolarChange { .. } => c.solar_changes += 1,
                Notification::CarbonChange { .. } => c.carbon_changes += 1,
                Notification::BatteryEmpty => c.battery_empty += 1,
                Notification::BatteryFull | Notification::BudgetExhausted { .. } => {}
            }
        }
    }

    // Solar square wave and a carbon step change trigger notifications; a
    // small battery drains to empty under load.
    let solar = Trace::from_samples(vec![0.0, 100.0], SimDuration::from_minutes(5))
        .with_extend(simkit::trace::Extend::Cycle);
    let carbon = Trace::from_samples(vec![100.0, 400.0], SimDuration::from_minutes(30))
        .with_extend(simkit::trace::Extend::Cycle);
    let eco = EcovisorBuilder::new()
        .cluster(CopConfig::microserver_cluster(4))
        .solar(solar)
        .carbon(carbon)
        .build();
    let mut s = Simulation::new(eco);
    let collector = carbon_policies::shared(Collector::default());
    let share = EnergyShare::grid_only()
        .with_solar_fraction(0.2)
        .with_battery(WattHours::new(3.0))
        .with_initial_soc(1.0);
    s.add_app("events", share, Box::new(EventApp(collector.clone())))
        .unwrap();
    s.run_ticks(120);

    let c = collector.borrow();
    assert!(c.solar_changes > 5, "solar changes: {}", c.solar_changes);
    assert!(
        c.carbon_changes >= 2,
        "carbon changes: {}",
        c.carbon_changes
    );
    // The tiny battery drains, partially recharges on the solar wave,
    // and can drain again — at least one empty edge must fire, and each
    // firing must be a genuine full→empty transition (no spam).
    assert!(
        c.battery_empty >= 1,
        "battery empty events: {}",
        c.battery_empty
    );
    assert!(
        c.battery_empty <= 10,
        "battery empty spam: {}",
        c.battery_empty
    );
}
