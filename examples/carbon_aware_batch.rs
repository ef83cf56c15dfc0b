//! Carbon-aware batch training: compares the paper's §5.1 policies
//! (carbon-agnostic, suspend-resume, Wait&Scale) on the ML training job.
//!
//! ```text
//! cargo run --release --example carbon_aware_batch
//! ```

use carbon_intel::generator::CarbonTraceBuilder;
use carbon_intel::regions;
use carbon_intel::threshold::percentile_threshold;
use carbon_policies::{BatchApp, BatchMode};
use container_cop::CopConfig;
use ecovisor::{EcovisorBuilder, EnergyShare, Simulation};
use simkit::time::{SimDuration, SimTime};
use workloads::mltrain::ml_training_job;

fn main() {
    // Threshold: 30th percentile of intensity over a 48 h window (§5.1.1).
    let carbon = CarbonTraceBuilder::new(regions::california())
        .days(8)
        .seed(7)
        .build();
    let threshold = percentile_threshold(
        &carbon,
        SimTime::EPOCH,
        SimDuration::from_hours(48),
        SimDuration::from_minutes(5),
        30.0,
    )
    .unwrap();
    println!("carbon threshold (30th %ile): {threshold}");

    for (name, mode) in [
        ("carbon-agnostic", BatchMode::CarbonAgnostic),
        ("suspend-resume", BatchMode::SuspendResume { threshold }),
        (
            "wait&scale 2x",
            BatchMode::WaitAndScale {
                threshold,
                scale: 2,
            },
        ),
        (
            "wait&scale 3x",
            BatchMode::WaitAndScale {
                threshold,
                scale: 3,
            },
        ),
    ] {
        let carbon = CarbonTraceBuilder::new(regions::california())
            .days(8)
            .seed(7)
            .build();
        let eco = EcovisorBuilder::new()
            .cluster(CopConfig::microserver_cluster(16))
            .carbon(carbon)
            .build();
        let mut sim = Simulation::new(eco);
        let app = BatchApp::new("ml", ml_training_job(), mode, 1, 4);
        let stats = app.stats();
        let id = sim
            .add_app("ml", EnergyShare::grid_only(), Box::new(app))
            .expect("register");
        sim.run_until_done(8 * 24 * 60);

        let totals = sim.eco().app_totals(id).unwrap();
        let runtime = stats
            .borrow()
            .runtime_hours()
            .map(|h| format!("{h:.2} h"))
            .unwrap_or_else(|| "did not finish".into());
        println!(
            "{name:<16} carbon {:.2} gCO2e  runtime {runtime}",
            totals.carbon.grams()
        );
    }
}
