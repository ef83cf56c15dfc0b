//! Figures 6 and 7: §5.2 *Budgeting Carbon*.
//!
//! Two web applications serve diurnal workloads for 48 hours against a
//! CAISO-like carbon trace whose peaks are *not* aligned with the load
//! peaks. Each app is run under (i) the system-level static
//! carbon-rate-limiting policy and (ii) the application-specific dynamic
//! carbon-budgeting policy with the same long-run target rate. The paper
//! reports: the static policy violates the latency SLO during periods of
//! simultaneously high carbon and high load, while dynamic budgeting
//! always meets the SLO *and* emits ~23 % less carbon (Fig. 6); Fig. 7
//! shows the corresponding carbon-rate and worker time series.

use carbon_intel::generator::CarbonTraceBuilder;
use carbon_intel::regions;
use carbon_policies::{WebApp, WebPolicy};
use container_cop::CopConfig;
use ecovisor::{EcovisorBuilder, EnergyShare, Metric, Simulation, Subject};
use power_telemetry::csv;
use simkit::series::TimeSeries;
use simkit::time::SimTime;
use simkit::trace::Trace;
use simkit::units::CarbonRate;
use workloads::traces::WorkloadTraceBuilder;
use workloads::web::WebService;

use crate::common;

/// Configuration for the Fig. 6/7 experiments.
#[derive(Debug, Clone, Copy)]
pub struct Fig6Config {
    /// Trace length in hours (the paper uses a 48 h workload trace).
    hours: u64,
    /// Root seed.
    seed: u64,
    /// Target carbon rate for web app 1 (g/s).
    target_rate_1: CarbonRate,
    /// Target carbon rate for web app 2 (g/s).
    target_rate_2: CarbonRate,
    /// p95 SLOs in ms (60 and 70 in the paper).
    slo_ms: (f64, f64),
}

impl Default for Fig6Config {
    fn default() -> Self {
        Self {
            hours: 48,
            seed: 97,
            // At our microserver scale a handful of workers ≈ 4–5 W;
            // 0.30 mg/s at ~230 g/kWh affords ~4.7 W.
            target_rate_1: CarbonRate::from_milligrams_per_sec(0.30),
            target_rate_2: CarbonRate::from_milligrams_per_sec(0.26),
            slo_ms: (60.0, 70.0),
        }
    }
}

/// Outcome of one app under one policy.
#[derive(Debug, Clone)]
struct WebOutcome {
    /// `"app1"` / `"app2"`.
    app: &'static str,
    /// Policy label.
    policy: &'static str,
    /// p95 latency series (ms).
    p95: TimeSeries,
    /// Worker-count series.
    workers: TimeSeries,
    /// Carbon-rate series (g/s).
    carbon_rate: TimeSeries,
    /// SLO-violation tick count.
    violations: u64,
    /// Ticks observed.
    ticks: u64,
    /// Total carbon (g).
    carbon_g: f64,
}

/// Fig. 6/7 result: four outcomes (2 apps × 2 policies) plus the traces.
#[derive(Debug, Clone)]
pub struct Fig6Result {
    /// Carbon intensity over the run.
    intensity: TimeSeries,
    /// Workload request rates (req/s) per app.
    workloads: (TimeSeries, TimeSeries),
    /// All four outcomes.
    outcomes: Vec<WebOutcome>,
}

fn workload_traces(cfg: &Fig6Config) -> (Trace, Trace) {
    // App 1 peaks in the evening (overlapping the CAISO carbon peak);
    // app 2 peaks mid-morning. Neither aligns with the carbon valley.
    let w1 = WorkloadTraceBuilder::new(60.0, 520.0)
        .peak_hour(19.0)
        .days(cfg.hours.div_ceil(24))
        .seed(cfg.seed ^ 0x11)
        .spikes(0.03, 0.4)
        .build();
    let w2 = WorkloadTraceBuilder::new(40.0, 380.0)
        .peak_hour(10.0)
        .days(cfg.hours.div_ceil(24))
        .seed(cfg.seed ^ 0x22)
        .spikes(0.03, 0.4)
        .build();
    (w1, w2)
}

fn run_policy(cfg: &Fig6Config, static_policy: bool) -> Vec<WebOutcome> {
    let carbon = CarbonTraceBuilder::new(regions::california())
        .days(cfg.hours.div_ceil(24).max(2))
        .seed(cfg.seed)
        .build();
    let eco = EcovisorBuilder::new()
        .cluster(CopConfig::microserver_cluster(16))
        .carbon(carbon)
        .build();
    let mut sim = Simulation::new(eco);
    let (w1, w2) = workload_traces(cfg);

    let mk_policy = |rate: CarbonRate, slo: f64| -> WebPolicy {
        if static_policy {
            WebPolicy::StaticRateLimit { rate }
        } else {
            WebPolicy::DynamicBudget {
                target_rate: rate,
                slo_ms: slo,
            }
        }
    };
    let app1 = WebApp::new(
        "web1",
        WebService::new(100.0),
        w1,
        mk_policy(cfg.target_rate_1, cfg.slo_ms.0),
        cfg.slo_ms.0,
    )
    .with_worker_bounds(1, 12);
    let app2 = WebApp::new(
        "web2",
        WebService::new(100.0),
        w2,
        mk_policy(cfg.target_rate_2, cfg.slo_ms.1),
        cfg.slo_ms.1,
    )
    .with_worker_bounds(1, 12);
    let stats1 = app1.stats();
    let stats2 = app2.stats();
    let id1 = sim
        .add_app("web1", EnergyShare::grid_only(), Box::new(app1))
        .expect("registration");
    let id2 = sim
        .add_app("web2", EnergyShare::grid_only(), Box::new(app2))
        .expect("registration");

    sim.run_ticks(cfg.hours * 60);

    let policy_label: &'static str = if static_policy {
        "System Policy (static rate)"
    } else {
        "Dynamic Budget"
    };
    let mut outcomes = Vec::new();
    for (app_label, id, stats) in [("app1", id1, stats1), ("app2", id2, stats2)] {
        let st = stats.borrow();
        let p95: TimeSeries = st
            .p95_series
            .iter()
            .map(|(t, v)| (*t, v.min(1e6)))
            .collect();
        let workers: TimeSeries = st
            .worker_series
            .iter()
            .map(|(t, v)| (*t, f64::from(*v)))
            .collect();
        let carbon_rate = common::grab(sim.eco(), Subject::App(id), Metric::CarbonRate);
        outcomes.push(WebOutcome {
            app: app_label,
            policy: policy_label,
            p95,
            workers,
            carbon_rate,
            violations: st.slo_violations,
            ticks: st.ticks,
            carbon_g: sim.eco().app_totals(id).expect("registered").carbon.grams(),
        });
    }
    outcomes
}

/// Runs both policies for both apps.
pub fn run(cfg: Fig6Config) -> Fig6Result {
    let mut outcomes = run_policy(&cfg, true);
    outcomes.extend(run_policy(&cfg, false));

    // The intensity/workload context series (identical across policies).
    let carbon = CarbonTraceBuilder::new(regions::california())
        .days(cfg.hours.div_ceil(24).max(2))
        .seed(cfg.seed)
        .build();
    let (w1, w2) = workload_traces(&cfg);
    let to_series = |trace: &Trace| -> TimeSeries {
        (0..cfg.hours * 12)
            .map(|i| {
                let at = SimTime::from_secs(i * 300);
                (at, trace.sample(at))
            })
            .collect()
    };

    Fig6Result {
        intensity: to_series(&carbon),
        workloads: (to_series(&w1), to_series(&w2)),
        outcomes,
    }
}

/// Prints the Fig. 6/7 report and writes CSVs.
pub fn report(result: &Fig6Result) {
    println!("\n### Figure 6: carbon budgeting for web services");
    common::sparkline("carbon intensity", &result.intensity, 48);
    common::sparkline("workload app1 (req/s)", &result.workloads.0, 48);
    common::sparkline("workload app2 (req/s)", &result.workloads.1, 48);

    let rows: Vec<Vec<String>> = result
        .outcomes
        .iter()
        .map(|o| {
            vec![
                o.app.to_string(),
                o.policy.to_string(),
                format!("{}", o.violations),
                format!(
                    "{:.1}%",
                    100.0 * o.violations as f64 / o.ticks.max(1) as f64
                ),
                format!("{:.2}", o.carbon_g),
            ]
        })
        .collect();
    common::print_table(
        "Fig. 6 — SLO violations and carbon per policy",
        &["app", "policy", "violations", "violation %", "CO2 (g)"],
        &rows,
    );

    for o in &result.outcomes {
        common::sparkline(&format!("p95 {} / {}", o.app, o.policy), &o.p95, 48);
    }
    println!("\n### Figure 7: carbon rate and workers (multi-tenancy)");
    for o in &result.outcomes {
        common::sparkline(&format!("workers {} / {}", o.app, o.policy), &o.workers, 48);
    }

    let mut cols: Vec<(String, &TimeSeries)> = vec![
        ("carbon_gpkwh".to_string(), &result.intensity),
        ("workload1_rps".to_string(), &result.workloads.0),
        ("workload2_rps".to_string(), &result.workloads.1),
    ];
    for o in &result.outcomes {
        let tag = if o.policy.starts_with("System") {
            "static"
        } else {
            "dynamic"
        };
        cols.push((format!("p95_{}_{}", o.app, tag), &o.p95));
        cols.push((format!("workers_{}_{}", o.app, tag), &o.workers));
        cols.push((format!("carbonrate_{}_{}", o.app, tag), &o.carbon_rate));
    }
    let col_refs: Vec<(&str, &TimeSeries)> = cols.iter().map(|(n, s)| (n.as_str(), *s)).collect();
    common::write_result("fig6_fig7.csv", &csv::aligned_csv(&col_refs));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Fig6Config {
        Fig6Config {
            hours: 24,
            seed: 3,
            ..Fig6Config::default()
        }
    }

    #[test]
    fn dynamic_meets_slo_where_static_fails() {
        let result = run(quick());
        let get = |app: &str, static_p: bool| {
            result
                .outcomes
                .iter()
                .find(|o| o.app == app && o.policy.starts_with("System") == static_p)
                .expect("present")
        };
        for app in ["app1", "app2"] {
            let st = get(app, true);
            let dy = get(app, false);
            assert!(
                dy.violations * 10 <= st.violations.max(1) * 2 || dy.violations == 0,
                "{app}: dynamic {} vs static {} violations",
                dy.violations,
                st.violations
            );
            assert!(
                dy.carbon_g < st.carbon_g,
                "{app}: dynamic carbon {} should undercut static {}",
                dy.carbon_g,
                st.carbon_g
            );
        }
    }

    #[test]
    fn static_policy_has_violations_under_misaligned_peaks() {
        let result = run(quick());
        let total_static: u64 = result
            .outcomes
            .iter()
            .filter(|o| o.policy.starts_with("System"))
            .map(|o| o.violations)
            .sum();
        assert!(
            total_static > 0,
            "the static rate policy should violate during high-carbon+high-load"
        );
    }
}
