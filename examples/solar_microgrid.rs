//! Zero-carbon microgrid: a delay-tolerant Spark job and a monitoring
//! web service share a solar array and battery (§5.3), each driving its
//! own virtual battery policy — no grid carbon at all.
//!
//! ```text
//! cargo run --release --example solar_microgrid
//! ```

use carbon_policies::{SolarWebApp, SolarWebMode, SparkApp, SparkMode};
use container_cop::CopConfig;
use ecovisor::{EcovisorBuilder, EnergyShare, Simulation};
use energy_system::solar::{SolarArrayBuilder, Weather};
use simkit::time::SimDuration;
use simkit::trace::Trace;
use simkit::units::{WattHours, Watts};
use workloads::spark::SparkJob;
use workloads::traces::WorkloadTraceBuilder;
use workloads::web::WebService;

fn main() {
    let solar = SolarArrayBuilder::new(120.0)
        .days(4)
        .weather(Weather::Mixed)
        .seed(5)
        .build();
    let eco = EcovisorBuilder::new()
        .cluster(CopConfig::microserver_cluster(24))
        .carbon(Trace::constant(300.0))
        .solar(solar)
        .build();
    let mut sim = Simulation::new(eco);

    // Each tenant gets half the array and half the bank.
    let spark_share = EnergyShare::grid_only()
        .with_solar_fraction(0.5)
        .with_battery(WattHours::new(720.0))
        .with_initial_soc(0.6);
    let web_share = EnergyShare::grid_only()
        .with_solar_fraction(0.5)
        .with_battery(WattHours::new(720.0))
        .with_initial_soc(0.6);

    let spark = SparkApp::new(
        "spark",
        SparkJob::new(120.0, SimDuration::from_minutes(30)),
        SparkMode::DynamicSolar {
            base_workers: 2,
            max_workers: 12,
        },
        Watts::new(10.0),
    );
    let spark_stats = spark.stats();
    let web = SolarWebApp::new(
        "monitor",
        WebService::new(100.0),
        WorkloadTraceBuilder::new(30.0, 500.0)
            .daytime_only()
            .days(4)
            .seed(8)
            .build(),
        SolarWebMode::DynamicSlo { max_workers: 10 },
        100.0,
        Watts::new(4.0),
    );
    let web_stats = web.stats();

    let spark_id = sim.add_app("spark", spark_share, Box::new(spark)).unwrap();
    let web_id = sim.add_app("monitor", web_share, Box::new(web)).unwrap();

    sim.run_ticks(3 * 24 * 60);

    let spark_totals = sim.eco().app_totals(spark_id).unwrap();
    let web_totals = sim.eco().app_totals(web_id).unwrap();
    println!("after three days on solar + batteries:");
    println!(
        "  spark : finished {:?}, lost work {:.1} ch, carbon {:.3} g",
        spark_stats.borrow().finished_at.map(|t| format!("at {t}")),
        spark_stats.borrow().lost_work,
        spark_totals.carbon.grams()
    );
    println!(
        "  web   : SLO violations {} / {} day-ticks, carbon {:.3} g",
        web_stats.borrow().slo_violations,
        web_stats.borrow().day_ticks,
        web_totals.carbon.grams()
    );
    println!(
        "  physical bank level: {:.0} Wh of {:.0} Wh",
        sim.eco().physical_battery_level().watt_hours(),
        sim.eco().physical_battery().spec().capacity.watt_hours()
    );
}
