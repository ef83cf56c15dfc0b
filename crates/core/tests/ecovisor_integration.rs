//! Integration tests of the ecovisor's tick protocol, settlement,
//! multiplexing, and API scoping.

use std::cell::RefCell;
use std::rc::Rc;

use container_cop::{AppId, ContainerSpec, CopConfig};
use ecovisor::proto::{EnergyRequest, RequestBatch};
use ecovisor::{
    Application, Ecovisor, EcovisorBuilder, EcovisorClient, EcovisorError, EcovisorServer,
    EnergyClient, EnergyShare, ExcessPolicy, Metric, Notification, RemoteEcovisorClient,
    ShardedEcovisor, Simulation, Subject, VesTotals,
};
use energy_system::battery::{Battery, BatterySpec};
use simkit::time::{SimDuration, SimTime};
use simkit::trace::Trace;
use simkit::units::{CarbonIntensity, Co2Grams, WattHours, Watts};

/// An application that launches n full-server containers at start and
/// keeps them saturated.
struct Saturated {
    containers: u32,
    done_after: Option<u64>,
    ticks: u64,
}

impl Saturated {
    fn new(containers: u32) -> Self {
        Self {
            containers,
            done_after: None,
            ticks: 0,
        }
    }

    fn with_deadline(mut self, ticks: u64) -> Self {
        self.done_after = Some(ticks);
        self
    }
}

impl Application for Saturated {
    fn label(&self) -> &str {
        "saturated"
    }

    fn on_start(&mut self, api: &mut EcovisorClient<'_>) {
        for _ in 0..self.containers {
            let c = api.launch_container(ContainerSpec::quad_core()).unwrap();
            api.set_container_demand(c, 1.0).unwrap();
        }
    }

    fn on_tick(&mut self, _api: &mut EcovisorClient<'_>) {
        self.ticks += 1;
    }

    fn is_done(&self) -> bool {
        self.done_after.is_some_and(|d| self.ticks >= d)
    }
}

#[test]
fn grid_only_app_accumulates_carbon_proportionally() {
    let eco = EcovisorBuilder::new()
        .cluster(CopConfig::microserver_cluster(2))
        .carbon(Trace::constant(1000.0))
        .build();
    let mut sim = Simulation::new(eco);
    let app = sim
        .add_app("job", EnergyShare::grid_only(), Box::new(Saturated::new(1)))
        .unwrap();
    sim.run_ticks(60); // one hour at 1-minute ticks

    let totals = sim.eco().app_totals(app).unwrap();
    // 3.65 W dynamic for 1 h = 3.65 Wh; at 1000 g/kWh that is 3.65 g.
    assert!((totals.energy.watt_hours() - 3.65).abs() < 1e-6);
    assert!((totals.carbon.grams() - 3.65).abs() < 1e-6);
    assert!((totals.grid_energy.watt_hours() - 3.65).abs() < 1e-6);
}

#[test]
fn solar_share_displaces_grid_power() {
    // 100 W constant solar, app gets 100% of it; the 3.65 W demand is
    // fully solar-covered after the first tick's buffering delay.
    let eco = EcovisorBuilder::new()
        .cluster(CopConfig::microserver_cluster(2))
        .carbon(Trace::constant(1000.0))
        .solar(Trace::constant(100.0))
        .build();
    let mut sim = Simulation::new(eco);
    let share = EnergyShare::grid_only().with_solar_fraction(1.0);
    let app = sim
        .add_app("job", share, Box::new(Saturated::new(1)))
        .unwrap();
    sim.run_ticks(61);

    let totals = sim.eco().app_totals(app).unwrap();
    // Only the first tick (before any solar was buffered) hits the grid:
    // 3.65 W × 1 min ≈ 0.061 Wh.
    assert!(
        totals.grid_energy.watt_hours() < 0.1,
        "grid energy {} should be one tick's worth",
        totals.grid_energy.watt_hours()
    );
    assert!(totals.solar_energy.watt_hours() > 3.3);
}

#[test]
fn battery_bridges_solar_gaps_with_zero_carbon() {
    // Solar: 200 W for the first 2 hours, then zero. Battery carries the
    // 3.65 W load afterwards; carbon stays zero.
    let solar_trace = Trace::from_samples(vec![200.0, 200.0, 0.0, 0.0], SimDuration::from_hours(1));
    let eco = EcovisorBuilder::new()
        .cluster(CopConfig::microserver_cluster(2))
        .carbon(Trace::constant(500.0))
        .solar(solar_trace)
        .build();
    let mut sim = Simulation::new(eco);
    let share = EnergyShare::grid_only()
        .with_solar_fraction(1.0)
        .with_battery(WattHours::new(720.0))
        .with_initial_soc(0.30); // start empty: solar must fill it
    let app = sim
        .add_app("job", share, Box::new(Saturated::new(1)))
        .unwrap();
    sim.run_ticks(4 * 60);

    let totals = sim.eco().app_totals(app).unwrap();
    let first_tick_grid = 3.65 / 60.0;
    assert!(
        totals.grid_energy.watt_hours() <= first_tick_grid + 1e-6,
        "grid energy {} Wh — battery should carry the night",
        totals.grid_energy.watt_hours()
    );
    let ves = sim.eco().app_ves(app).unwrap();
    assert!(
        ves.battery_charge_level() > WattHours::new(216.0),
        "battery should have stored solar energy"
    );
}

#[test]
fn multiplexing_isolates_tenants_and_conserves_energy() {
    let eco = EcovisorBuilder::new()
        .cluster(CopConfig::microserver_cluster(8))
        .carbon(Trace::constant(300.0))
        .solar(Trace::constant(40.0))
        .build();
    let mut sim = Simulation::new(eco);
    let share_a = EnergyShare::grid_only()
        .with_solar_fraction(0.5)
        .with_battery(WattHours::new(700.0));
    let share_b = EnergyShare::grid_only()
        .with_solar_fraction(0.5)
        .with_battery(WattHours::new(700.0));
    let a = sim
        .add_app("a", share_a, Box::new(Saturated::new(2)))
        .unwrap();
    let b = sim
        .add_app("b", share_b, Box::new(Saturated::new(1)))
        .unwrap();
    sim.run_ticks(120);

    let fa = sim.eco().app_flows(a).unwrap();
    let fb = sim.eco().app_flows(b).unwrap();
    assert!(fa.is_conserved(), "app A conservation: {fa:?}");
    assert!(fb.is_conserved(), "app B conservation: {fb:?}");
    // A runs 2 containers (7.3 W dynamic), B runs 1 (3.65 W).
    assert!((fa.demand.watts() - 7.3).abs() < 1e-9);
    assert!((fb.demand.watts() - 3.65).abs() < 1e-9);
    // Both get 20 W of solar; the virtual batteries stay within their own
    // capacity shares and their sum never exceeds the physical bank.
    let virt = sim.eco().virtual_battery_total();
    let capacity = sim.eco().physical_battery().spec().capacity;
    assert!(
        virt <= capacity,
        "virtual total {virt} exceeds physical capacity {capacity}"
    );
    assert_eq!(sim.eco().physical_battery_level(), virt);
    for id in [a, b] {
        let soc = sim.eco().app_ves(id).unwrap().battery_soc();
        assert!((0.30..=1.0).contains(&soc), "app {id} soc {soc}");
    }
}

#[test]
fn oversubscribed_shares_are_rejected() {
    let mut eco = EcovisorBuilder::new().build();
    eco.register_app("a", EnergyShare::grid_only().with_solar_fraction(0.7))
        .unwrap();
    let err = eco
        .register_app("b", EnergyShare::grid_only().with_solar_fraction(0.5))
        .unwrap_err();
    assert!(matches!(err, EcovisorError::ShareExceeded(_)));

    let err = eco
        .register_app(
            "c",
            EnergyShare::grid_only().with_battery(WattHours::new(2000.0)),
        )
        .unwrap_err();
    assert!(matches!(err, EcovisorError::ShareExceeded(_)));
}

#[test]
fn cross_tenant_container_access_denied() {
    let eco = EcovisorBuilder::new()
        .cluster(CopConfig::microserver_cluster(4))
        .build();
    let mut sim = Simulation::new(eco);
    let a = sim
        .add_app("a", EnergyShare::grid_only(), Box::new(Saturated::new(1)))
        .unwrap();
    let b = sim
        .add_app("b", EnergyShare::grid_only(), Box::new(Saturated::new(1)))
        .unwrap();
    sim.run_ticks(1);

    let a_containers = sim.eco().cop().container_ids_of(a);
    let mut api_b = sim.eco_mut().client(b).unwrap();
    let err = api_b
        .set_container_powercap(a_containers[0], Watts::new(1.0))
        .unwrap_err();
    assert!(matches!(err, EcovisorError::NotOwner { .. }));
    let err = api_b.get_container_power(a_containers[0]).unwrap_err();
    assert!(matches!(err, EcovisorError::NotOwner { .. }));
    let err = api_b.stop_container(a_containers[0]).unwrap_err();
    assert!(matches!(err, EcovisorError::NotOwner { .. }));
}

#[test]
fn carbon_rate_limit_caps_power() {
    // At 360 g/kWh, a rate of 0.5 mg/s allows exactly
    // 0.0005 g/s × 3.6e6 / 360 = 5 W of grid power.
    let eco = EcovisorBuilder::new()
        .cluster(CopConfig::microserver_cluster(4))
        .carbon(Trace::constant(360.0))
        .build();
    let mut sim = Simulation::new(eco);
    let app = sim
        .add_app("svc", EnergyShare::grid_only(), Box::new(Saturated::new(2)))
        .unwrap();
    {
        let mut api = sim.eco_mut().client(app).unwrap();
        api.set_carbon_rate(Some(simkit::units::CarbonRate::from_milligrams_per_sec(
            0.5,
        )));
    }
    sim.run_ticks(30);
    let flows = sim.eco().app_flows(app).unwrap();
    assert!(
        flows.demand.watts() <= 5.0 + 1e-6,
        "demand {} should be capped at 5 W",
        flows.demand
    );
    let rate = flows.carbon_rate.milligrams_per_sec();
    assert!(
        rate <= 0.5 + 1e-6,
        "carbon rate {rate} mg/s exceeds the limit"
    );
}

#[test]
fn carbon_budget_is_tracked() {
    let eco = EcovisorBuilder::new()
        .cluster(CopConfig::microserver_cluster(2))
        .carbon(Trace::constant(1000.0))
        .build();
    let mut sim = Simulation::new(eco);
    let app = sim
        .add_app("svc", EnergyShare::grid_only(), Box::new(Saturated::new(1)))
        .unwrap();
    {
        let mut api = sim.eco_mut().client(app).unwrap();
        api.set_carbon_budget(Some(Co2Grams::new(3.0)));
        assert_eq!(api.carbon_budget(), Some(Co2Grams::new(3.0)));
    }
    sim.run_ticks(30); // 1.825 Wh → 1.825 g
    {
        let mut api = sim.eco_mut().client(app).unwrap();
        let remaining = api.remaining_carbon_budget().unwrap();
        assert!(
            (remaining.grams() - (3.0 - 1.825)).abs() < 1e-6,
            "remaining {remaining}"
        );
    }
    sim.run_ticks(60);
    {
        let mut api = sim.eco_mut().client(app).unwrap();
        assert_eq!(api.remaining_carbon_budget(), Some(Co2Grams::ZERO));
    }
}

#[test]
fn battery_events_are_delivered() {
    struct EventCollector {
        seen: Vec<&'static str>,
        container: Option<container_cop::ContainerId>,
    }
    impl Application for EventCollector {
        fn on_start(&mut self, api: &mut EcovisorClient<'_>) {
            let c = api.launch_container(ContainerSpec::quad_core()).unwrap();
            api.set_container_demand(c, 1.0).unwrap();
            api.set_battery_max_discharge(Watts::new(1000.0));
            self.container = Some(c);
        }
        fn on_tick(&mut self, _api: &mut EcovisorClient<'_>) {}
        fn on_event(&mut self, event: &Notification, _api: &mut EcovisorClient<'_>) {
            match event {
                Notification::BatteryEmpty => self.seen.push("empty"),
                Notification::BatteryFull => self.seen.push("full"),
                Notification::SolarChange { .. } => self.seen.push("solar"),
                Notification::CarbonChange { .. } => self.seen.push("carbon"),
                Notification::BudgetExhausted { .. } => self.seen.push("budget"),
            }
        }
    }

    // Small battery drains quickly under a 5 W load with no solar.
    let eco = EcovisorBuilder::new()
        .cluster(CopConfig::microserver_cluster(2))
        .battery(Battery::new_full(BatterySpec::with_capacity(
            WattHours::new(2.0),
        )))
        .build();
    let mut sim = Simulation::new(eco);
    let share = EnergyShare::grid_only()
        .with_battery(WattHours::new(2.0))
        .with_initial_soc(1.0);
    let app = sim
        .add_app(
            "ev",
            share,
            Box::new(EventCollector {
                seen: Vec::new(),
                container: None,
            }),
        )
        .unwrap();
    sim.run_ticks(60);
    let _ = app;
    // Recover the collector to inspect events.
    let ids = sim.app_ids();
    let app_ref = sim.app(ids[0]).unwrap();
    let _ = app_ref;
    // The virtual battery must be empty now.
    let ves = sim.eco().app_ves(ids[0]).unwrap();
    assert!(ves.battery().unwrap().is_empty());
}

#[test]
fn psu_validates_software_power_caps() {
    // Cap both containers to 2 W each; the PSU checks the aggregate draw
    // never exceeds 4 W (+ tolerance) — the §4 grid-power validation.
    let eco = EcovisorBuilder::new()
        .cluster(CopConfig::microserver_cluster(4))
        .carbon(Trace::constant(200.0))
        .build();
    let mut sim = Simulation::new(eco);
    let app = sim
        .add_app(
            "caps",
            EnergyShare::grid_only(),
            Box::new(Saturated::new(2)),
        )
        .unwrap();
    sim.eco_mut().set_psu_limit(Some(Watts::new(4.0)));
    {
        let mut api = sim.eco_mut().client(app).unwrap();
        let ids = api.container_ids();
        for id in ids {
            api.set_container_powercap(id, Watts::new(2.0)).unwrap();
        }
    }
    sim.run_ticks(60);
    assert!(
        sim.eco().psu().limit_respected(),
        "violations: {:?}",
        sim.eco().psu().violations()
    );
    assert!(sim.eco().psu().peak() > Watts::ZERO);
}

#[test]
fn redistribution_moves_excess_solar_between_apps() {
    // App A has a full battery (can't store its surplus); app B has an
    // empty one. Under Redistribute, B's battery should soak up A's
    // excess.
    let eco = EcovisorBuilder::new()
        .cluster(CopConfig::microserver_cluster(4))
        .solar(Trace::constant(200.0))
        .excess(ExcessPolicy::Redistribute)
        .carbon(Trace::constant(100.0))
        .build();
    let mut sim = Simulation::new(eco);
    let share_a = EnergyShare::grid_only()
        .with_solar_fraction(1.0)
        .with_battery(WattHours::new(100.0))
        .with_initial_soc(1.0);
    let share_b = EnergyShare::grid_only()
        .with_battery(WattHours::new(600.0))
        .with_initial_soc(0.30);
    let _a = sim
        .add_app("a", share_a, Box::new(Saturated::new(1)))
        .unwrap();
    let b = sim
        .add_app("b", share_b, Box::new(Saturated::new(1)))
        .unwrap();
    sim.run_ticks(120);

    let ves_b = sim.eco().app_ves(b).unwrap();
    assert!(
        ves_b.battery_charge_level() > WattHours::new(300.0),
        "B's battery should have charged from A's surplus, got {}",
        ves_b.battery_charge_level()
    );
    // B's stored energy must be zero-carbon (solar), so its carbon totals
    // reflect only its first-tick grid usage.
    let totals_b = sim.eco().app_totals(b).unwrap();
    assert!(totals_b.carbon.grams() < 0.2);
}

#[test]
fn table2_interval_queries_match_totals() {
    let eco = EcovisorBuilder::new()
        .cluster(CopConfig::microserver_cluster(2))
        .carbon(Trace::constant(500.0))
        .build();
    let mut sim = Simulation::new(eco);
    let app = sim
        .add_app("q", EnergyShare::grid_only(), Box::new(Saturated::new(1)))
        .unwrap();
    sim.run_ticks(120);

    let from = SimTime::EPOCH;
    let to = sim.eco().now();
    let mut api = sim.eco_mut().client(app).unwrap();
    let energy = api.get_app_energy(from, to);
    let carbon = api.get_app_carbon_between(from, to);
    let total_carbon = api.get_app_carbon();
    // 3.65 W × 2 h = 7.3 Wh; 7.3 Wh at 500 g/kWh = 3.65 g.
    assert!((energy.watt_hours() - 7.3).abs() < 0.1, "energy {energy}");
    assert!((carbon.grams() - 3.65).abs() < 0.1, "carbon {carbon}");
    assert!(carbon.abs_diff(total_carbon) < 0.1);

    // Per-container queries: single container owns all of it.
    let ids = api.container_ids();
    let c_energy = api.get_container_energy(ids[0], from, to).unwrap();
    let c_carbon = api.get_container_carbon(ids[0], from, to).unwrap();
    assert!(
        c_energy.abs_diff(energy) < 0.1,
        "container energy {c_energy}"
    );
    assert!(
        c_carbon.abs_diff(carbon) < 0.1,
        "container carbon {c_carbon}"
    );
}

#[test]
fn aggregate_discharge_throttled_to_physical_limit() {
    // Two apps, each with a full 50 Wh virtual battery, each want their
    // 3.65 W load from it: 7.3 W together.
    let run = |bank: BatterySpec| {
        let eco = EcovisorBuilder::new()
            .cluster(CopConfig::microserver_cluster(4))
            .battery(Battery::new_full(bank))
            .carbon(Trace::constant(100.0))
            .build();
        let mut sim = Simulation::new(eco);
        for name in ["a", "b"] {
            let share = EnergyShare::grid_only()
                .with_battery(WattHours::new(50.0))
                .with_initial_soc(1.0);
            sim.add_app(name, share, Box::new(Saturated::new(1)))
                .unwrap();
        }
        sim.run_ticks(30);
        sim
    };

    // A 100 Wh bank discharges at up to 100 W (1C): 7.3 W fits, so no
    // throttling, and demand is fully battery-served (no grid).
    let sim = run(BatterySpec::with_capacity(WattHours::new(100.0)));
    for id in sim.app_ids() {
        let flows = sim.eco().app_flows(id).unwrap();
        assert_eq!(flows.grid_to_load, Watts::ZERO, "app {id}: {flows:?}");
        assert!((flows.battery_to_load.watts() - 3.65).abs() < 1e-9);
    }
    let virt = sim.eco().virtual_battery_total();
    // 7.3 W aggregate for 30 min = 3.65 Wh drained from a 100 Wh start.
    assert!((virt.watt_hours() - 96.35).abs() < 1e-6, "virt {virt}");

    // The same bank rated for 5 W of discharge: the bank delivers its
    // whole rate, split by one scale (5 / 7.3) over both apps, and the
    // grid serves the rest of each load.
    let sim = run(BatterySpec {
        max_discharge_rate: Watts::new(5.0),
        ..BatterySpec::with_capacity(WattHours::new(100.0))
    });
    let flows: Vec<_> = sim
        .app_ids()
        .into_iter()
        .map(|id| sim.eco().app_flows(id).unwrap())
        .collect();
    let discharge: Watts = flows.iter().map(|f| f.battery_to_load).sum();
    assert!((discharge.watts() - 5.0).abs() < 1e-9, "{discharge}");
    assert_eq!(sim.eco().last_system_flows().battery_discharge, discharge);
    assert_eq!(flows[0].battery_to_load, flows[1].battery_to_load);
    for f in &flows {
        assert!((f.battery_to_load.watts() - 2.5).abs() < 1e-9, "{f:?}");
        assert!((f.grid_to_load.watts() - 1.15).abs() < 1e-9, "{f:?}");
        assert_eq!(f.unmet_demand, Watts::ZERO);
        assert!(f.is_conserved(), "{f:?}");
    }
}

#[test]
fn simulation_run_until_done_stops_early() {
    let eco = EcovisorBuilder::new()
        .cluster(CopConfig::microserver_cluster(2))
        .build();
    let mut sim = Simulation::new(eco);
    sim.add_app(
        "short",
        EnergyShare::grid_only(),
        Box::new(Saturated::new(1).with_deadline(10)),
    )
    .unwrap();
    let executed = sim.run_until_done(1000);
    assert_eq!(executed, 10);
    assert!(sim.all_done());
}

#[test]
fn tick_zero_has_no_solar_then_buffer_fills() {
    let eco = EcovisorBuilder::new()
        .cluster(CopConfig::microserver_cluster(2))
        .solar(Trace::constant(80.0))
        .build();
    let mut sim = Simulation::new(eco);
    let app = sim
        .add_app(
            "s",
            EnergyShare::grid_only().with_solar_fraction(0.5),
            Box::new(Saturated::new(1)),
        )
        .unwrap();
    {
        let mut api = sim.eco_mut().client(app).unwrap();
        assert_eq!(api.get_solar_power(), Watts::ZERO, "nothing buffered yet");
    }
    sim.run_ticks(1);
    {
        let mut api = sim.eco_mut().client(app).unwrap();
        assert_eq!(
            api.get_solar_power(),
            Watts::new(40.0),
            "half of 80 W buffered after one tick"
        );
    }
}

#[test]
fn get_grid_carbon_tracks_service() {
    let trace = Trace::from_samples(vec![100.0, 250.0], SimDuration::from_minutes(1));
    let eco = EcovisorBuilder::new()
        .cluster(CopConfig::microserver_cluster(2))
        .carbon(trace)
        .build();
    let mut sim = Simulation::new(eco);
    let app = sim
        .add_app("c", EnergyShare::grid_only(), Box::new(Saturated::new(1)))
        .unwrap();
    {
        let mut api = sim.eco_mut().client(app).unwrap();
        assert_eq!(api.get_grid_carbon(), CarbonIntensity::new(100.0));
    }
    sim.run_ticks(1);
    {
        let mut api = sim.eco_mut().client(app).unwrap();
        assert_eq!(api.get_grid_carbon(), CarbonIntensity::new(250.0));
    }
}

/// Tick `t`'s grid carbon intensity in [`moving_carbon_world`]: a
/// different value every tick.
fn moving_sample(t: u64) -> f64 {
    100.0 + 37.0 * t as f64
}

const MOVING_TICKS: u64 = 6;

/// One saturated grid-only tenant under [`moving_sample`]'s signal
/// (sampled one tick past [`MOVING_TICKS`], where the last tick's clock
/// stops).
fn moving_carbon_world() -> (Ecovisor, AppId) {
    let dt = SimDuration::from_minutes(1);
    let samples = (0..=MOVING_TICKS).map(moving_sample).collect();
    let mut eco = EcovisorBuilder::new()
        .tick_interval(dt)
        .cluster(CopConfig::microserver_cluster(2))
        .carbon(Trace::from_samples(samples, dt))
        .build();
    let app = eco.register_app("c", EnergyShare::grid_only()).unwrap();
    let mut api = eco.client(app).unwrap();
    let c = api.launch_container(ContainerSpec::quad_core()).unwrap();
    api.set_container_demand(c, 1.0).unwrap();
    drop(api);
    (eco, app)
}

/// The carbon tick `t`'s settlement charged per grid kWh, from the
/// totals before and after it.
fn charged(before: VesTotals, after: VesTotals, t: u64) -> f64 {
    let grid_kwh = (after.grid_energy - before.grid_energy).watt_hours() / 1000.0;
    assert!(grid_kwh > 0.0, "tick {t} drew from the grid");
    (after.carbon - before.carbon).grams() / grid_kwh
}

/// Whether `charged` is tick `t`'s intensity.
fn is_tick(charged: f64, t: u64) -> bool {
    (charged - moving_sample(t)).abs() < 1e-9 * moving_sample(t)
}

/// After tick `t` (which began at `at`) settled and the clock moved on,
/// the intensity recorded and the one charged are tick `t`'s, and the
/// one read back is already tick `t + 1`'s.
fn assert_settled_at(eco: &Ecovisor, app: AppId, at: SimTime, before: VesTotals, t: u64) {
    let charged = charged(before, eco.app_totals(app).unwrap(), t);
    let mut recorded = None;
    eco.for_each_series(|subject, metric, series| {
        if (subject, metric) == (Subject::System, Metric::GridCarbonIntensity) {
            recorded = series.value_at(at);
        }
    });
    assert_eq!(
        eco.grid_carbon_intensity().grams_per_kwh(),
        moving_sample(t + 1),
        "tick {t}"
    );
    assert_eq!(recorded, Some(moving_sample(t)), "tick {t}");
    assert!(is_tick(charged, t), "tick {t}: charged {charged}");
}

#[test]
fn settlement_charges_the_intensity_of_the_tick_it_settles() {
    // The stages, with no sample taken ahead of settlement.
    let (mut eco, app) = moving_carbon_world();
    for t in 0..MOVING_TICKS {
        let (at, before) = (eco.now(), eco.app_totals(app).unwrap());
        eco.settle_tick();
        eco.advance_clock();
        assert_settled_at(&eco, app, at, before, t);
    }
    // The two federated phases of a deployed node.
    let (eco, app) = moving_carbon_world();
    let node = ShardedEcovisor::new(eco);
    for t in 0..MOVING_TICKS {
        let (at, before) = node.read(|eco| (eco.now(), eco.app_totals(app).unwrap()));
        let views = node.fed_collect();
        node.fed_settle(&views).expect("its own views");
        node.read(|eco| assert_settled_at(eco, app, at, before, t));
    }
}

/// An application that reads the carbon signal in every `tick()` upcall.
struct CarbonReader(Rc<RefCell<Vec<CarbonIntensity>>>);

impl Application for CarbonReader {
    fn on_tick(&mut self, api: &mut EcovisorClient<'_>) {
        self.0.borrow_mut().push(api.get_grid_carbon());
    }
}

/// The read-side law: the intensity `GetGridCarbon` tells a tenant
/// acting in tick `t` is the one tick `t`'s settlement charges it — in
/// process, under the [`Simulation`] loop, over the wire and federated.
/// (`ecoharness`' `corpus_regression` holds it on a recorded and
/// replayed day.)
#[test]
fn get_grid_carbon_tells_the_intensity_the_tick_charges() {
    let law = |surface: &str, t: u64, told: CarbonIntensity, charged: f64| {
        assert_eq!(
            told.grams_per_kwh(),
            moving_sample(t),
            "{surface}, tick {t}: told"
        );
        assert!(
            is_tick(charged, t),
            "{surface}, tick {t}: charged {charged}"
        );
    };

    // In process, driven through `Ecovisor::tick`.
    let (mut eco, app) = moving_carbon_world();
    for t in 0..MOVING_TICKS {
        let told = eco.client(app).unwrap().get_grid_carbon();
        let before = eco.app_totals(app).unwrap();
        eco.tick(|_| ());
        law(
            "tick",
            t,
            told,
            charged(before, eco.app_totals(app).unwrap(), t),
        );
    }

    // An upcall of the `Simulation` loop.
    let (eco, app) = moving_carbon_world();
    let mut sim = Simulation::new(eco);
    let told = Rc::new(RefCell::new(Vec::new()));
    sim.adopt(app, Box::new(CarbonReader(Rc::clone(&told))))
        .unwrap();
    for t in 0..MOVING_TICKS {
        let before = sim.eco().app_totals(app).unwrap();
        sim.step();
        let charged = charged(before, sim.eco().app_totals(app).unwrap(), t);
        law("simulation", t, told.borrow()[t as usize], charged);
    }

    // Over the wire, with the server's driver ticking.
    let (eco, app) = moving_carbon_world();
    let server = EcovisorServer::bind("127.0.0.1:0", eco)
        .unwrap()
        .spawn()
        .unwrap();
    let mut remote = RemoteEcovisorClient::connect(server.addr(), app).unwrap();
    let shared = server.ecovisor();
    for t in 0..MOVING_TICKS {
        let told = remote.get_grid_carbon();
        let before = shared.read(|eco| eco.app_totals(app).unwrap());
        shared.tick();
        let charged = charged(before, shared.read(|eco| eco.app_totals(app).unwrap()), t);
        law("wire", t, told, charged);
    }
    drop(remote);
    server.shutdown();

    // A federated node, settling through its two phases.
    let (eco, app) = moving_carbon_world();
    let node = ShardedEcovisor::new(eco);
    let ask = RequestBatch::new(app, vec![EnergyRequest::GetGridCarbon]);
    for t in 0..MOVING_TICKS {
        let told = node.dispatch_batch(&ask).responses[0]
            .clone()
            .expect_intensity();
        let before = node.read(|eco| eco.app_totals(app).unwrap());
        let views = node.fed_collect();
        node.fed_settle(&views).expect("its own views");
        let charged = charged(before, node.read(|eco| eco.app_totals(app).unwrap()), t);
        law("federated", t, told, charged);
    }
}

#[test]
fn unmet_demand_recorded_under_grid_cap() {
    let eco = EcovisorBuilder::new()
        .cluster(CopConfig::microserver_cluster(2))
        .carbon(Trace::constant(100.0))
        .build();
    let mut sim = Simulation::new(eco);
    let share = EnergyShare::grid_only().with_grid_cap(Watts::new(3.0));
    let app = sim
        .add_app("capped", share, Box::new(Saturated::new(1)))
        .unwrap();
    sim.run_ticks(5);
    let flows = sim.eco().app_flows(app).unwrap();
    assert!((flows.grid_to_load.watts() - 3.0).abs() < 1e-9);
    assert!((flows.unmet_demand.watts() - 0.65).abs() < 1e-9);
    assert!(flows.is_conserved());
}

#[test]
fn grid_export_with_net_metering_policy() {
    let eco = EcovisorBuilder::new()
        .cluster(CopConfig::microserver_cluster(2))
        .solar(Trace::constant(100.0))
        .excess(ExcessPolicy::NetMeter)
        .build();
    let mut sim = Simulation::new(eco);
    // App with full battery (nothing to charge) and tiny demand: most
    // solar becomes surplus and should be exported.
    let share = EnergyShare::grid_only()
        .with_solar_fraction(1.0)
        .with_battery(WattHours::new(50.0))
        .with_initial_soc(1.0);
    sim.add_app("exporter", share, Box::new(Saturated::new(1)))
        .unwrap();
    sim.run_ticks(30);
    assert!(
        sim.eco().grid().total_exported() > WattHours::new(10.0),
        "exported {}",
        sim.eco().grid().total_exported()
    );
    let flows = sim.eco().last_system_flows();
    assert!(flows.exported > Watts::ZERO);
    assert_eq!(flows.curtailed, Watts::ZERO);
}

#[test]
fn cleared_carbon_rate_restores_container_power() {
    // Regression: carbon-rate enforcement used to install per-container
    // power caps it never removed, so clearing the limit left containers
    // throttled forever.
    let eco = EcovisorBuilder::new()
        .cluster(CopConfig::microserver_cluster(4))
        .carbon(Trace::constant(360.0))
        .build();
    let mut sim = Simulation::new(eco);
    let app = sim
        .add_app("svc", EnergyShare::grid_only(), Box::new(Saturated::new(2)))
        .unwrap();

    // Unconstrained baseline: two saturated quad-core containers.
    sim.run_ticks(3);
    let free_demand = sim.eco().app_flows(app).unwrap().demand;
    assert!((free_demand.watts() - 7.3).abs() < 1e-9);

    // 0.5 mg/s at 360 g/kWh allows exactly 5 W of grid power.
    {
        let mut api = sim.eco_mut().client(app).unwrap();
        api.set_carbon_rate(Some(simkit::units::CarbonRate::from_milligrams_per_sec(
            0.5,
        )));
    }
    sim.run_ticks(5);
    let limited = sim.eco().app_flows(app).unwrap().demand;
    assert!(
        limited.watts() <= 5.0 + 1e-6,
        "rate limit should cap demand, got {limited}"
    );

    // Clearing the limit restores full power on the next settlement.
    {
        let mut api = sim.eco_mut().client(app).unwrap();
        api.set_carbon_rate(None);
    }
    sim.run_ticks(2);
    let restored = sim.eco().app_flows(app).unwrap().demand;
    assert!(
        restored.abs_diff(free_demand) < 1e-9,
        "power should recover after clearing the rate limit: {restored} vs {free_demand}"
    );
}

#[test]
fn user_power_cap_survives_carbon_enforcement() {
    // Regression: enforcement used to overwrite the cap the application
    // set through set_container_powercap.
    let eco = EcovisorBuilder::new()
        .cluster(CopConfig::microserver_cluster(4))
        .carbon(Trace::constant(360.0))
        .build();
    let mut sim = Simulation::new(eco);
    let app = sim
        .add_app("svc", EnergyShare::grid_only(), Box::new(Saturated::new(2)))
        .unwrap();
    sim.run_ticks(1);

    let (first, user_cap) = {
        let mut api = sim.eco_mut().client(app).unwrap();
        let ids = api.container_ids();
        let cap = Watts::new(3.0);
        api.set_container_powercap(ids[0], cap).unwrap();
        // Tight rate limit: 0.2 mg/s at 360 g/kWh = 2 W total, 1 W per
        // container — tighter than the user cap.
        api.set_carbon_rate(Some(simkit::units::CarbonRate::from_milligrams_per_sec(
            0.2,
        )));
        (ids[0], cap)
    };
    sim.run_ticks(5);

    // The app-visible cap is untouched while enforcement runs.
    {
        let mut api = sim.eco_mut().client(app).unwrap();
        assert_eq!(api.get_container_powercap(first).unwrap(), Some(user_cap));
        let power = api.get_container_power(first).unwrap();
        assert!(
            power.watts() <= 1.0 + 1e-6,
            "carbon cap (1 W) should bind below the user cap, got {power}"
        );
        api.set_carbon_rate(None);
    }
    sim.run_ticks(2);

    // With the limit lifted only the user's own cap remains in force.
    {
        let mut api = sim.eco_mut().client(app).unwrap();
        assert_eq!(api.get_container_powercap(first).unwrap(), Some(user_cap));
        let power = api.get_container_power(first).unwrap();
        assert!(
            (power.watts() - user_cap.watts()).abs() < 1e-9,
            "user cap should bind again after enforcement ends, got {power}"
        );
    }
}

#[test]
fn carbon_budget_exhaustion_notifies_and_clamps_grid() {
    // Regression: the budget was settable and readable but exhaustion
    // never did anything.
    struct Witness {
        exhausted_events: std::rc::Rc<std::cell::RefCell<usize>>,
    }
    impl Application for Witness {
        fn on_start(&mut self, api: &mut EcovisorClient<'_>) {
            let c = api.launch_container(ContainerSpec::quad_core()).unwrap();
            api.set_container_demand(c, 1.0).unwrap();
            // 3.65 W at 1000 g/kWh emits ~0.0608 g per 1-minute tick, so
            // a 0.15 g budget exhausts on the third settlement.
            api.set_carbon_budget(Some(Co2Grams::new(0.15)));
        }
        fn on_tick(&mut self, _api: &mut EcovisorClient<'_>) {}
        fn on_event(&mut self, event: &Notification, _api: &mut EcovisorClient<'_>) {
            if let Notification::BudgetExhausted { budget, carbon } = event {
                *self.exhausted_events.borrow_mut() += 1;
                assert_eq!(*budget, Co2Grams::new(0.15));
                assert!(carbon >= budget, "edge fires at or past the budget");
            }
        }
    }

    let eco = EcovisorBuilder::new()
        .cluster(CopConfig::microserver_cluster(2))
        .carbon(Trace::constant(1000.0))
        .build();
    let mut sim = Simulation::new(eco);
    let exhausted_events = std::rc::Rc::new(std::cell::RefCell::new(0usize));
    let app = sim
        .add_app(
            "budgeted",
            EnergyShare::grid_only(),
            Box::new(Witness {
                exhausted_events: std::rc::Rc::clone(&exhausted_events),
            }),
        )
        .unwrap();
    sim.run_ticks(30);

    // The notification is edge-triggered: exactly once despite staying
    // exhausted for ~27 ticks.
    assert_eq!(
        *exhausted_events.borrow(),
        1,
        "BudgetExhausted must fire exactly once"
    );

    // Enforcement: grid allowance clamped to zero, demand goes unmet
    // (no solar, no battery), carbon stops accumulating at ~the budget.
    let flows = sim.eco().app_flows(app).unwrap();
    assert_eq!(flows.grid_import(), Watts::ZERO);
    assert!(flows.unmet_demand > Watts::ZERO);
    let totals = sim.eco().app_totals(app).unwrap();
    assert!(
        totals.carbon.grams() <= 0.15 + 0.07,
        "carbon {} should stop at most one tick past the budget",
        totals.carbon
    );
    {
        let mut api = sim.eco_mut().client(app).unwrap();
        assert_eq!(api.remaining_carbon_budget(), Some(Co2Grams::ZERO));
    }

    // Re-setting the same exhausted budget must NOT lift the clamp —
    // otherwise a tenant could buy a tick of grid draw per re-set and
    // defeat enforcement entirely.
    let carbon_before = sim.eco().app_totals(app).unwrap().carbon;
    for _ in 0..5 {
        {
            let mut api = sim.eco_mut().client(app).unwrap();
            api.set_carbon_budget(Some(Co2Grams::new(0.15)));
        }
        sim.run_ticks(1);
    }
    let flows = sim.eco().app_flows(app).unwrap();
    assert_eq!(flows.grid_import(), Watts::ZERO, "clamp must hold");
    assert_eq!(
        sim.eco().app_totals(app).unwrap().carbon,
        carbon_before,
        "no carbon may accrue past the budget via re-sets"
    );

    // Raising the budget lifts the clamp and re-arms the edge.
    {
        let mut api = sim.eco_mut().client(app).unwrap();
        api.set_carbon_budget(Some(Co2Grams::new(100.0)));
    }
    sim.run_ticks(3);
    let flows = sim.eco().app_flows(app).unwrap();
    assert!(
        flows.grid_import() > Watts::ZERO,
        "grid should resume once the budget is raised"
    );
}

#[test]
fn app_energy_matches_ves_totals_under_grid_cap() {
    // Regression: APP_POWER telemetry used to record demanded power, so
    // the get_app_energy integral disagreed with VesTotals::energy (which
    // counts served power) whenever a grid cap shed load.
    let eco = EcovisorBuilder::new()
        .cluster(CopConfig::microserver_cluster(2))
        .carbon(Trace::constant(100.0))
        .build();
    let mut sim = Simulation::new(eco);
    // 3.65 W demand against a 3 W grid cap: 0.65 W shed every tick.
    let share = EnergyShare::grid_only().with_grid_cap(Watts::new(3.0));
    let app = sim
        .add_app("capped", share, Box::new(Saturated::new(1)))
        .unwrap();
    sim.run_ticks(60);

    let flows = sim.eco().app_flows(app).unwrap();
    assert!(flows.unmet_demand > Watts::ZERO, "cap must actually shed");

    let from = SimTime::EPOCH;
    let to = sim.eco().now();
    let tsdb_energy = sim.eco_mut().client(app).unwrap().get_app_energy(from, to);
    let ves_energy = sim.eco().app_totals(app).unwrap().energy;
    assert!(
        tsdb_energy.abs_diff(ves_energy) < 1e-6,
        "telemetry integral {tsdb_energy} must match settlement totals {ves_energy}"
    );
    // And both equal served power × time: 3 W × 1 h.
    assert!((ves_energy.watt_hours() - 3.0).abs() < 1e-6);
}
