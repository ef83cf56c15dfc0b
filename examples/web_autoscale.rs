//! Carbon-budgeted web service: the §5.2 dynamic budgeting policy keeps
//! a p95 latency SLO while staying under a long-run carbon rate, by
//! banking "carbon credits" during clean/quiet periods.
//!
//! ```text
//! cargo run --release --example web_autoscale
//! ```

use carbon_intel::generator::CarbonTraceBuilder;
use carbon_intel::regions;
use carbon_policies::{WebApp, WebPolicy};
use container_cop::CopConfig;
use ecovisor::{EcovisorBuilder, EnergyShare, Simulation};
use simkit::units::CarbonRate;
use workloads::traces::WorkloadTraceBuilder;
use workloads::web::WebService;

fn main() {
    let slo_ms = 60.0;
    let target = CarbonRate::from_milligrams_per_sec(0.30);

    for (name, policy) in [
        (
            "static rate-limit",
            WebPolicy::StaticRateLimit { rate: target },
        ),
        (
            "dynamic budget",
            WebPolicy::DynamicBudget {
                target_rate: target,
                slo_ms,
            },
        ),
    ] {
        let carbon = CarbonTraceBuilder::new(regions::california())
            .days(2)
            .seed(19)
            .build();
        let eco = EcovisorBuilder::new()
            .cluster(CopConfig::microserver_cluster(16))
            .carbon(carbon)
            .build();
        let mut sim = Simulation::new(eco);

        // Evening-peaking diurnal workload, misaligned with clean hours.
        let workload = WorkloadTraceBuilder::new(60.0, 500.0)
            .peak_hour(19.0)
            .days(2)
            .seed(3)
            .build();
        let app = WebApp::new("web", WebService::new(100.0), workload, policy, slo_ms)
            .with_worker_bounds(1, 12);
        let stats = app.stats();
        let id = sim
            .add_app("web", EnergyShare::grid_only(), Box::new(app))
            .expect("register");
        sim.run_ticks(48 * 60);

        let st = stats.borrow();
        let carbon_g = sim.eco().app_totals(id).unwrap().carbon.grams();
        println!(
            "{name:<18} SLO violations {:>4} / {} ticks ({:>5.1}%)  carbon {:.2} g",
            st.slo_violations,
            st.ticks,
            100.0 * st.violation_fraction(),
            carbon_g
        );
    }
}
