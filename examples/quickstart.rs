//! Quickstart: build an ecovisor, register an application, watch it react
//! to carbon intensity through the Table 1 API.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use carbon_intel::generator::CarbonTraceBuilder;
use carbon_intel::regions;
use container_cop::{ContainerSpec, CopConfig};
use ecovisor::{
    Application, EcovisorBuilder, EcovisorClient, EnergyClient, EnergyShare, Simulation,
};
use simkit::units::CarbonIntensity;

/// A tiny carbon-aware job: runs one container flat out when the grid is
/// clean, throttles it to half power when the grid is dirty.
struct ThrottleOnDirtyGrid {
    threshold: CarbonIntensity,
}

impl Application for ThrottleOnDirtyGrid {
    fn label(&self) -> &str {
        "throttle-demo"
    }

    fn on_start(&mut self, api: &mut EcovisorClient<'_>) {
        let c = api.launch_container(ContainerSpec::quad_core()).unwrap();
        api.set_container_demand(c, 1.0).unwrap();
    }

    fn on_tick(&mut self, api: &mut EcovisorClient<'_>) {
        // The paper's tick() upcall: inspect the virtual energy system…
        let intensity = api.get_grid_carbon();
        let ids = api.container_ids();
        // …and adjust power demand in response (Table 1 setters).
        for id in ids {
            let cap = if intensity > self.threshold {
                simkit::units::Watts::new(1.8) // throttle: half dynamic power
            } else {
                simkit::units::Watts::new(10.0) // effectively uncapped
            };
            api.set_container_powercap(id, cap).unwrap();
        }
    }
}

fn main() {
    // A CAISO-like grid signal and the paper's 16-microserver cluster.
    let carbon = CarbonTraceBuilder::new(regions::california())
        .days(2)
        .seed(42)
        .build();
    let eco = EcovisorBuilder::new()
        .cluster(CopConfig::microserver_cluster(16))
        .carbon(carbon)
        .build();
    let mut sim = Simulation::new(eco);

    let app = sim
        .add_app(
            "demo",
            EnergyShare::grid_only(),
            Box::new(ThrottleOnDirtyGrid {
                threshold: CarbonIntensity::new(200.0),
            }),
        )
        .expect("register");

    // Run one simulated day at one-minute ticks.
    sim.run_ticks(24 * 60);

    let totals = sim.eco().app_totals(app).unwrap();
    println!("after one day:");
    println!("  energy used : {:.1} Wh", totals.energy.watt_hours());
    println!("  grid energy : {:.1} Wh", totals.grid_energy.watt_hours());
    println!("  carbon      : {:.2} gCO2e", totals.carbon.grams());
    println!(
        "  carbon-efficiency: {:.2} Wh/g",
        totals.energy.watt_hours() / totals.carbon.grams().max(1e-9)
    );
}
