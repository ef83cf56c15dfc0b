//! Randomized property tests of the virtual-energy-system settlement
//! invariants: energy conservation, SoC bounds, carbon attribution, and
//! aggregate rate limits, under randomized demands, solar availability,
//! and battery configurations.
//!
//! Cases are generated from a fixed-seed [`SimRng`] stream (the offline
//! replacement for proptest), so failures are exactly reproducible.

use ecovisor::{EnergyShare, VirtualEnergySystem};
use simkit::rng::SimRng;
use simkit::time::SimDuration;
use simkit::units::{CarbonIntensity, WattHours, Watts};

fn dt() -> SimDuration {
    SimDuration::from_minutes(1)
}

fn arb_share(rng: &mut SimRng) -> EnergyShare {
    let solar_fraction = rng.unit();
    let battery_wh = if rng.chance(0.5) {
        0.0
    } else {
        rng.uniform(10.0, 1440.0)
    };
    let initial_soc = rng.uniform(0.30, 1.0);
    let grid_cap = if rng.chance(0.5) {
        None
    } else {
        Some(Watts::new(rng.uniform(1.0, 200.0)))
    };
    let mut share = EnergyShare::grid_only()
        .with_solar_fraction(solar_fraction)
        .with_battery(WattHours::new(battery_wh))
        .with_initial_soc(initial_soc);
    share.grid_power_cap = grid_cap;
    share
}

/// Every committed tick conserves energy on both the demand side and the
/// solar side of the ledger.
#[test]
fn settlement_conserves_energy() {
    let mut rng = SimRng::from_seed(5005).fork("settlement_conserves_energy");
    for _ in 0..256 {
        let share = arb_share(&mut rng);
        let demand = rng.uniform(0.0, 200.0);
        let solar = rng.uniform(0.0, 400.0);
        let charge_rate = rng.uniform(0.0, 400.0);
        let max_discharge = rng.uniform(0.0, 2000.0);
        let intensity = rng.uniform(0.0, 500.0);
        let charge_scale = rng.unit();
        let discharge_scale = rng.unit();
        let mut ves = VirtualEnergySystem::new(share);
        ves.set_charge_rate(Watts::new(charge_rate));
        ves.set_max_discharge(Watts::new(max_discharge));
        ves.buffer_solar(Watts::new(solar));
        let desired = ves.desired_flows(Watts::new(demand), dt());
        let (flows, _) = ves.apply_flows(
            &desired,
            charge_scale,
            discharge_scale,
            CarbonIntensity::new(intensity),
            dt(),
        );
        assert!(
            flows.is_conserved(),
            "conservation error {} for {flows:?}",
            flows.conservation_error()
        );
    }
}

/// The virtual battery never leaves its [floor, capacity] band, no
/// matter the sequence of operations.
#[test]
fn soc_stays_in_bounds() {
    let mut rng = SimRng::from_seed(5005).fork("soc_stays_in_bounds");
    let mut cases = 0;
    while cases < 256 {
        let share = arb_share(&mut rng);
        let steps: Vec<(f64, f64, f64, f64)> = (0..rng.uniform_u64(1, 50))
            .map(|_| {
                (
                    rng.uniform(0.0, 100.0),
                    rng.uniform(0.0, 300.0),
                    rng.uniform(0.0, 400.0),
                    rng.uniform(0.0, 2000.0),
                )
            })
            .collect();
        if !share.has_battery() {
            continue;
        }
        cases += 1;
        let capacity = share.battery_capacity;
        let mut ves = VirtualEnergySystem::new(share);
        for (demand, solar, charge_rate, max_discharge) in steps {
            ves.set_charge_rate(Watts::new(charge_rate));
            ves.set_max_discharge(Watts::new(max_discharge));
            ves.buffer_solar(Watts::new(solar));
            let desired = ves.desired_flows(Watts::new(demand), dt());
            ves.apply_flows(&desired, 1.0, 1.0, CarbonIntensity::new(100.0), dt());
            let level = ves.battery_charge_level();
            let floor = capacity * 0.30;
            assert!(
                level.watt_hours() >= floor.watt_hours() - 1e-6,
                "level {level} below floor {floor}"
            );
            assert!(
                level.watt_hours() <= capacity.watt_hours() + 1e-6,
                "level {level} above capacity {capacity}"
            );
        }
    }
}

/// Carbon equals grid energy times intensity, exactly, every tick.
#[test]
fn carbon_is_grid_energy_times_intensity() {
    let mut rng = SimRng::from_seed(5005).fork("carbon_is_grid_energy_times_intensity");
    for _ in 0..256 {
        let share = arb_share(&mut rng);
        let demand = rng.uniform(0.0, 200.0);
        let solar = rng.uniform(0.0, 400.0);
        let intensity = rng.uniform(0.0, 500.0);
        let mut ves = VirtualEnergySystem::new(share);
        ves.buffer_solar(Watts::new(solar));
        let desired = ves.desired_flows(Watts::new(demand), dt());
        let (flows, _) = ves.apply_flows(&desired, 1.0, 1.0, CarbonIntensity::new(intensity), dt());
        let expected = flows.grid_import() * dt() * CarbonIntensity::new(intensity);
        assert!(
            flows.carbon.abs_diff(expected) < 1e-9,
            "carbon {} != grid {} x intensity",
            flows.carbon,
            flows.grid_import()
        );
    }
}

/// Zero-carbon supply (solar + battery) never incurs carbon: when demand
/// is fully covered without the grid, carbon is exactly zero.
#[test]
fn no_grid_no_carbon() {
    let mut rng = SimRng::from_seed(5005).fork("no_grid_no_carbon");
    for _ in 0..256 {
        let battery_wh = rng.uniform(100.0, 1440.0);
        let demand = rng.uniform(0.0, 50.0);
        let intensity = rng.uniform(1.0, 500.0);
        let share = EnergyShare::grid_only()
            .with_solar_fraction(1.0)
            .with_battery(WattHours::new(battery_wh))
            .with_initial_soc(1.0);
        let mut ves = VirtualEnergySystem::new(share);
        ves.set_max_discharge(Watts::new(10_000.0));
        // Plenty of solar: demand is covered without the grid.
        ves.buffer_solar(Watts::new(100.0));
        let desired = ves.desired_flows(Watts::new(demand), dt());
        let (flows, _) = ves.apply_flows(&desired, 1.0, 1.0, CarbonIntensity::new(intensity), dt());
        assert_eq!(flows.grid_import(), Watts::ZERO);
        assert_eq!(flows.carbon.grams(), 0.0);
    }
}

/// Battery discharge never exceeds the software cap, the 1C physical
/// limit, or the usable energy above the floor.
#[test]
fn discharge_respects_all_limits() {
    let mut rng = SimRng::from_seed(5005).fork("discharge_respects_all_limits");
    for _ in 0..256 {
        let battery_wh = rng.uniform(10.0, 1440.0);
        let initial_soc = rng.uniform(0.30, 1.0);
        let demand = rng.uniform(0.0, 3000.0);
        let max_discharge = rng.uniform(0.0, 3000.0);
        let share = EnergyShare::grid_only()
            .with_battery(WattHours::new(battery_wh))
            .with_initial_soc(initial_soc);
        let mut ves = VirtualEnergySystem::new(share);
        ves.set_max_discharge(Watts::new(max_discharge));
        let usable_before = ves.battery().unwrap().usable_energy();
        let desired = ves.desired_flows(Watts::new(demand), dt());
        let (flows, _) = ves.apply_flows(&desired, 1.0, 1.0, CarbonIntensity::new(100.0), dt());
        let d = flows.battery_to_load.watts();
        assert!(d <= max_discharge + 1e-9, "exceeds software cap");
        assert!(d <= battery_wh + 1e-9, "exceeds 1C");
        assert!(
            d <= usable_before.watt_hours() * 60.0 + 1e-6,
            "exceeds usable energy for one minute"
        );
    }
}

/// Cumulative totals are consistent: app energy equals the sum of
/// solar-to-load, battery-to-load and grid-to-load energies.
#[test]
fn totals_are_consistent() {
    let mut rng = SimRng::from_seed(5005).fork("totals_are_consistent");
    for _ in 0..256 {
        let share = arb_share(&mut rng);
        let steps: Vec<(f64, f64)> = (0..rng.uniform_u64(1, 40))
            .map(|_| (rng.uniform(0.0, 100.0), rng.uniform(0.0, 300.0)))
            .collect();
        let mut ves = VirtualEnergySystem::new(share);
        let mut supplied = WattHours::ZERO;
        for (demand, solar) in steps {
            ves.buffer_solar(Watts::new(solar));
            let desired = ves.desired_flows(Watts::new(demand), dt());
            let (flows, _) = ves.apply_flows(&desired, 1.0, 1.0, CarbonIntensity::new(50.0), dt());
            supplied += (flows.solar_to_load + flows.battery_to_load + flows.grid_to_load) * dt();
        }
        assert!(
            ves.totals().energy.abs_diff(supplied) < 1e-6,
            "energy total {} vs supplied {}",
            ves.totals().energy,
            supplied
        );
    }
}

/// The laws of the excess-solar pool under `Redistribute`, tick by tick,
/// over seeded worlds of a few tenants sharing a physical bank with a
/// random charge-rate limit: what the tenants took adds up, bit for bit
/// in app-id order, to what the tick reports redistributed; the bank is
/// never charged beyond its rate; the pool is redistributed or curtailed
/// and nothing else; and every tenant's ledger balances.
#[test]
fn redistribution_laws() {
    use container_cop::ContainerSpec;
    use ecovisor::{EcovisorBuilder, EnergyClient, ExcessPolicy};
    use energy_system::battery::{Battery, BatterySpec};
    use simkit::trace::Trace;

    let mut rng = SimRng::from_seed(5005).fork("redistribution_laws");
    let mut redistributed_ticks = 0;
    for _ in 0..24 {
        let tenants = rng.uniform_u64(2, 7) as usize;
        let bank = BatterySpec {
            max_charge_rate: Watts::new(rng.uniform(5.0, 360.0)),
            ..BatterySpec::paper_prototype()
        };
        let solar: Vec<f64> = (0..16).map(|_| rng.uniform(0.0, 600.0)).collect();
        let mut eco = EcovisorBuilder::new()
            .battery(Battery::new_full(bank))
            .solar(Trace::from_samples(solar, dt()))
            .excess(ExcessPolicy::Redistribute)
            .build();
        let mut containers = Vec::new();
        for i in 0..tenants {
            let mut share = arb_share(&mut rng);
            share.solar_fraction /= tenants as f64;
            share.battery_capacity = share.battery_capacity / tenants as f64;
            let app = eco.register_app(format!("t{i}"), share).expect("fits");
            let mut api = eco.client(app).expect("registered");
            api.set_battery_charge_rate(Watts::new(rng.uniform(0.0, 100.0)));
            for _ in 0..rng.uniform_u64(1, 4) {
                containers.push((
                    app,
                    api.launch_container(ContainerSpec::quad_core()).unwrap(),
                ));
            }
        }
        for _ in 0..16 {
            for &(app, c) in &containers {
                let mut api = eco.client(app).expect("registered");
                api.set_container_demand(c, rng.unit()).unwrap();
            }
            let (system, ()) = eco.tick(|_| ());
            let mut taken = Watts::ZERO;
            let mut pool = Watts::ZERO;
            for app in eco.app_ids() {
                let flows = eco.app_flows(app).unwrap();
                assert!(flows.is_conserved(), "{flows:?}");
                taken += flows.redistributed_in;
                pool += flows.solar_surplus;
            }
            assert_eq!(taken, system.redistributed, "{system:?}");
            assert!(
                system.battery_charge <= bank.max_charge_rate + Watts::new(1e-9),
                "{system:?} over {}",
                bank.max_charge_rate
            );
            let spent = system.redistributed + system.exported + system.curtailed;
            assert!((spent - pool).watts().abs() < 1e-9, "{system:?} of {pool}");
            if system.redistributed > Watts::ZERO {
                redistributed_ticks += 1;
            }
        }
    }
    assert!(redistributed_ticks > 0, "the walk handed out surplus");
}
