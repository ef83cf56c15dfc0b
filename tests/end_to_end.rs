//! Cross-crate end-to-end scenarios: concurrent heterogeneous tenants on
//! one ecovisor, exercising every substrate at once.

use carbon_intel::generator::CarbonTraceBuilder;
use carbon_intel::regions;
use carbon_policies::{BatchApp, BatchMode, SparkApp, SparkMode, WebApp, WebPolicy};
use container_cop::CopConfig;
use ecovisor::{EcovisorBuilder, EnergyShare, ExcessPolicy, Simulation};
use energy_system::solar::{SolarArrayBuilder, Weather};
use simkit::time::SimDuration;
use simkit::units::{CarbonRate, WattHours, Watts};
use workloads::blast::blast_job;
use workloads::spark::SparkJob;
use workloads::traces::WorkloadTraceBuilder;
use workloads::web::WebService;

/// Three very different tenants — a W&S batch job, a carbon-budgeted web
/// service, and a solar+battery Spark job — run concurrently for two
/// simulated days. Verifies isolation, conservation, and that the PSU
/// never observes the cluster exceeding its physical envelope.
#[test]
fn heterogeneous_multi_tenant_day() {
    let carbon = CarbonTraceBuilder::new(regions::california())
        .days(3)
        .seed(99)
        .build();
    let solar = SolarArrayBuilder::new(100.0)
        .days(3)
        .weather(Weather::Mixed)
        .seed(99)
        .build();
    let eco = EcovisorBuilder::new()
        .cluster(CopConfig::microserver_cluster(32))
        .carbon(carbon)
        .solar(solar)
        .excess(ExcessPolicy::Redistribute)
        .build();
    let mut sim = Simulation::new(eco);

    // Tenant 1: BLAST under Wait&Scale.
    let blast = BatchApp::new(
        "blast",
        blast_job(),
        BatchMode::WaitAndScale {
            threshold: simkit::units::CarbonIntensity::new(200.0),
            scale: 3,
        },
        2,
        4,
    );
    let blast_id = sim
        .add_app("blast", EnergyShare::grid_only(), Box::new(blast))
        .unwrap();

    // Tenant 2: web service with a dynamic carbon budget.
    let web = WebApp::new(
        "web",
        WebService::new(100.0),
        WorkloadTraceBuilder::new(50.0, 400.0)
            .days(3)
            .seed(4)
            .build(),
        WebPolicy::DynamicBudget {
            target_rate: CarbonRate::from_milligrams_per_sec(0.3),
            slo_ms: 60.0,
        },
        60.0,
    );
    let web_stats = web.stats();
    let web_id = sim
        .add_app("web", EnergyShare::grid_only(), Box::new(web))
        .unwrap();

    // Tenant 3: zero-carbon Spark on solar + battery.
    let spark = SparkApp::new(
        "spark",
        SparkJob::new(80.0, SimDuration::from_minutes(30)),
        SparkMode::DynamicSolar {
            base_workers: 2,
            max_workers: 10,
        },
        Watts::new(8.0),
    );
    let spark_id = sim
        .add_app(
            "spark",
            EnergyShare::grid_only()
                .with_solar_fraction(1.0)
                .with_battery(WattHours::new(1000.0))
                .with_initial_soc(0.6),
            Box::new(spark),
        )
        .unwrap();

    sim.eco_mut().set_psu_limit(Some(Watts::new(200.0)));
    sim.run_ticks(2 * 24 * 60);

    // Conservation per tenant, every tenant.
    for id in [blast_id, web_id, spark_id] {
        let flows = sim.eco().app_flows(id).unwrap();
        assert!(flows.is_conserved(), "app {id}: {flows:?}");
    }

    // The Spark tenant used solar/battery, not the grid.
    let spark_totals = sim.eco().app_totals(spark_id).unwrap();
    assert!(
        spark_totals.carbon.grams() < 0.5,
        "spark carbon {}",
        spark_totals.carbon
    );
    assert!(spark_totals.solar_energy > WattHours::new(50.0));

    // The web tenant respected its budget pace within slack.
    let web_totals = sim.eco().app_totals(web_id).unwrap();
    let allowance = 0.0003 * (2 * 24 * 3600) as f64;
    assert!(
        web_totals.carbon.grams() < allowance * 1.5,
        "web carbon {} vs allowance {allowance}",
        web_totals.carbon
    );
    assert!(web_stats.borrow().ticks > 0);

    // The grid-facing draw never exceeded the physical envelope.
    assert!(
        sim.eco().psu().limit_respected(),
        "violations: {:?}",
        sim.eco().psu().violations()
    );

    // Virtual batteries stayed within the physical bank.
    assert!(sim.eco().virtual_battery_total() <= sim.eco().physical_battery().spec().capacity);
}

/// Determinism: the same seed produces bit-identical accounting.
#[test]
fn end_to_end_determinism() {
    let run = || {
        let carbon = CarbonTraceBuilder::new(regions::california())
            .days(2)
            .seed(5)
            .build();
        let eco = EcovisorBuilder::new()
            .cluster(CopConfig::microserver_cluster(8))
            .carbon(carbon)
            .build();
        let mut sim = Simulation::new(eco);
        let web = WebApp::new(
            "web",
            WebService::new(100.0),
            WorkloadTraceBuilder::new(50.0, 300.0)
                .days(2)
                .seed(6)
                .build(),
            WebPolicy::DynamicBudget {
                target_rate: CarbonRate::from_milligrams_per_sec(0.3),
                slo_ms: 60.0,
            },
            60.0,
        );
        let id = sim
            .add_app("web", EnergyShare::grid_only(), Box::new(web))
            .unwrap();
        sim.run_ticks(12 * 60);
        sim.eco().app_totals(id).unwrap().carbon.grams()
    };
    assert_eq!(run().to_bits(), run().to_bits());
}
