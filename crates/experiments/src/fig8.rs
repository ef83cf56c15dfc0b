//! Figures 8 and 9: §5.3 *Leveraging Virtual Batteries*.
//!
//! A delay-tolerant Spark job and a solar-monitoring web service share a
//! solar array and physical battery (half each), running zero-carbon:
//! daytime on solar + virtual battery, suspended overnight. Each runs
//! under a static system-level policy (fixed workers sized to the
//! battery-smoothed minimum power) and its application-specific dynamic
//! policy (Spark: opportunistic scale-up on excess solar; web: SLO-driven
//! scaling). Fig. 9 shows each app's virtual-battery state of charge and
//! charge/discharge patterns under the dynamic policies.

use carbon_policies::{SolarWebApp, SolarWebMode, SparkApp, SparkMode};
use container_cop::CopConfig;
use ecovisor::{EcovisorBuilder, EnergyShare, Simulation};
use energy_system::solar::{SolarArrayBuilder, Weather};
use power_telemetry::{csv, metrics};
use simkit::series::TimeSeries;
use simkit::time::SimDuration;
use simkit::trace::Trace;
use simkit::units::{WattHours, Watts};
use workloads::spark::SparkJob;
use workloads::traces::WorkloadTraceBuilder;
use workloads::web::WebService;

use crate::common;

/// Configuration for the Fig. 8/9 experiments.
#[derive(Debug, Clone, Copy)]
pub struct Fig8Config {
    /// Days simulated (the paper plots 3).
    days: u64,
    /// Root seed.
    seed: u64,
    /// Solar array rating (W).
    solar_rated: f64,
    /// Spark job size in core-hours.
    spark_work: f64,
    /// Web p95 SLO (100 ms in the paper).
    slo_ms: f64,
}

impl Default for Fig8Config {
    fn default() -> Self {
        Self {
            days: 3,
            seed: 77,
            solar_rated: 120.0,
            spark_work: 150.0,
            slo_ms: 100.0,
        }
    }
}

/// One policy-pair run's series.
#[derive(Debug, Clone)]
struct Fig8Run {
    /// `"static"` or `"dynamic"`.
    policy: &'static str,
    /// Spark worker counts.
    spark_workers: TimeSeries,
    /// Web worker counts.
    web_workers: TimeSeries,
    /// Web p95 latency (ms, daytime samples).
    web_p95: TimeSeries,
    /// Web SLO violations (daytime ticks).
    web_violations: u64,
    /// Spark completion tick, if it finished.
    spark_finish_ticks: Option<u64>,
    /// Spark work lost to evening kills (core-hours).
    spark_lost_work: f64,
    /// Spark SoC series (fraction).
    spark_soc: TimeSeries,
    /// Web SoC series (fraction).
    web_soc: TimeSeries,
    /// Spark battery charge − discharge (W, positive = charging).
    spark_battery_rate: TimeSeries,
    /// Web battery charge − discharge (W).
    web_battery_rate: TimeSeries,
    /// Total carbon across both apps (should be ~0: zero-carbon policies).
    total_carbon_g: f64,
}

/// Fig. 8/9 result.
#[derive(Debug, Clone)]
pub struct Fig8Result {
    /// Physical solar output (W).
    solar: TimeSeries,
    /// Web workload (req/s).
    workload: TimeSeries,
    /// Static-policy run.
    static_run: Fig8Run,
    /// Dynamic-policy run.
    dynamic_run: Fig8Run,
}

fn run_policy(cfg: &Fig8Config, dynamic: bool) -> (Fig8Run, TimeSeries, TimeSeries) {
    let solar = SolarArrayBuilder::new(cfg.solar_rated)
        .days(cfg.days + 1)
        .weather(Weather::Mixed)
        .seed(cfg.seed)
        .build();
    let eco = EcovisorBuilder::new()
        .cluster(CopConfig::microserver_cluster(24))
        .carbon(Trace::constant(300.0))
        .solar(solar)
        .build();
    let mut sim = Simulation::new(eco);

    let spark_share = EnergyShare::grid_only()
        .with_solar_fraction(0.5)
        .with_battery(WattHours::new(720.0))
        .with_initial_soc(0.65);
    let web_share = EnergyShare::grid_only()
        .with_solar_fraction(0.5)
        .with_battery(WattHours::new(720.0))
        .with_initial_soc(0.65);

    let spark_mode = if dynamic {
        SparkMode::DynamicSolar {
            base_workers: 2,
            max_workers: 14,
        }
    } else {
        SparkMode::StaticWorkers { workers: 3 }
    };
    let web_mode = if dynamic {
        SolarWebMode::DynamicSlo { max_workers: 12 }
    } else {
        SolarWebMode::StaticWorkers { workers: 4 }
    };

    let spark = SparkApp::new(
        "spark",
        SparkJob::new(cfg.spark_work, SimDuration::from_minutes(30)),
        spark_mode,
        Watts::new(10.0),
    );
    let workload = WorkloadTraceBuilder::new(30.0, 650.0)
        .daytime_only()
        .peak_hour(13.0)
        .days(cfg.days + 1)
        .seed(cfg.seed ^ 0x5)
        .build();
    let web = SolarWebApp::new(
        "monitor",
        WebService::new(100.0),
        workload.clone(),
        web_mode,
        cfg.slo_ms,
        Watts::new(4.0),
    );

    let spark_stats = spark.stats();
    let web_stats = web.stats();
    let spark_id = sim
        .add_app("spark", spark_share, Box::new(spark))
        .expect("registration");
    let web_id = sim
        .add_app("monitor", web_share, Box::new(web))
        .expect("registration");

    let total_ticks = cfg.days * 24 * 60;
    sim.run_ticks(total_ticks);

    let db = sim.eco().telemetry();
    let grab = |metric: &str, subject: &str| -> TimeSeries {
        db.series(metric, subject).cloned().unwrap_or_default()
    };
    let battery_rate = |id: container_cop::AppId| -> TimeSeries {
        let charge = grab(metrics::BATTERY_CHARGE, &id.to_string());
        let discharge = grab(metrics::BATTERY_DISCHARGE, &id.to_string());
        charge
            .iter()
            .zip(discharge.iter())
            .map(|((t, c), (_, d))| (t, c - d))
            .collect()
    };

    let spark_st = spark_stats.borrow();
    let web_st = web_stats.borrow();
    let run = Fig8Run {
        policy: if dynamic { "dynamic" } else { "static" },
        spark_workers: grab(metrics::CONTAINER_COUNT, &spark_id.to_string()),
        web_workers: grab(metrics::CONTAINER_COUNT, &web_id.to_string()),
        web_p95: web_st
            .p95_series
            .iter()
            .map(|(t, v)| (*t, v.min(1e6)))
            .collect(),
        web_violations: web_st.slo_violations,
        spark_finish_ticks: spark_st.finished_at.map(|t| t.as_secs() / 60),
        spark_lost_work: spark_st.lost_work,
        spark_soc: grab(metrics::BATTERY_SOC, &spark_id.to_string()),
        web_soc: grab(metrics::BATTERY_SOC, &web_id.to_string()),
        spark_battery_rate: battery_rate(spark_id),
        web_battery_rate: battery_rate(web_id),
        total_carbon_g: sim
            .eco()
            .app_totals(spark_id)
            .expect("registered")
            .carbon
            .grams()
            + sim
                .eco()
                .app_totals(web_id)
                .expect("registered")
                .carbon
                .grams(),
    };
    let solar_series = grab(metrics::SOLAR_POWER, metrics::SYSTEM);
    let workload_series: TimeSeries = (0..total_ticks)
        .step_by(5)
        .map(|i| {
            let at = simkit::time::SimTime::from_secs(i * 60);
            (at, workload.sample(at))
        })
        .collect();
    (run, solar_series, workload_series)
}

/// Runs both policy configurations.
pub fn run(cfg: Fig8Config) -> Fig8Result {
    let (static_run, solar, workload) = run_policy(&cfg, false);
    let (dynamic_run, _, _) = run_policy(&cfg, true);
    Fig8Result {
        solar,
        workload,
        static_run,
        dynamic_run,
    }
}

/// Prints the Fig. 8/9 report and writes CSVs.
pub fn report(result: &Fig8Result) {
    println!("\n### Figure 8: virtual-battery policies (zero-carbon Spark + web)");
    common::sparkline("solar output (W)", &result.solar, 48);
    common::sparkline("web workload (req/s)", &result.workload, 48);
    for run in [&result.static_run, &result.dynamic_run] {
        common::sparkline(
            &format!("spark workers ({})", run.policy),
            &run.spark_workers,
            48,
        );
        common::sparkline(
            &format!("web workers ({})", run.policy),
            &run.web_workers,
            48,
        );
    }
    let rows = vec![
        vec![
            "static".to_string(),
            result
                .static_run
                .spark_finish_ticks
                .map(|t| format!("{:.1} h", t as f64 / 60.0))
                .unwrap_or_else(|| "unfinished".into()),
            format!("{:.1}", result.static_run.spark_lost_work),
            format!("{}", result.static_run.web_violations),
            format!("{:.3}", result.static_run.total_carbon_g),
        ],
        vec![
            "dynamic".to_string(),
            result
                .dynamic_run
                .spark_finish_ticks
                .map(|t| format!("{:.1} h", t as f64 / 60.0))
                .unwrap_or_else(|| "unfinished".into()),
            format!("{:.1}", result.dynamic_run.spark_lost_work),
            format!("{}", result.dynamic_run.web_violations),
            format!("{:.3}", result.dynamic_run.total_carbon_g),
        ],
    ];
    common::print_table(
        "Fig. 8 — policy outcomes",
        &[
            "policy",
            "spark finish",
            "lost work (ch)",
            "web SLO violations",
            "CO2 (g)",
        ],
        &rows,
    );

    println!("\n### Figure 9: virtual-battery usage (dynamic policies)");
    common::sparkline("spark SoC", &result.dynamic_run.spark_soc, 48);
    common::sparkline("web SoC", &result.dynamic_run.web_soc, 48);
    common::sparkline(
        "spark batt rate (W)",
        &result.dynamic_run.spark_battery_rate,
        48,
    );
    common::sparkline(
        "web batt rate (W)",
        &result.dynamic_run.web_battery_rate,
        48,
    );

    common::write_result(
        "fig8.csv",
        &csv::aligned_csv(&[
            ("solar_w", &result.solar),
            ("workload_rps", &result.workload),
            ("spark_workers_static", &result.static_run.spark_workers),
            ("spark_workers_dynamic", &result.dynamic_run.spark_workers),
            ("web_workers_static", &result.static_run.web_workers),
            ("web_workers_dynamic", &result.dynamic_run.web_workers),
            ("web_p95_static", &result.static_run.web_p95),
            ("web_p95_dynamic", &result.dynamic_run.web_p95),
        ]),
    );
    common::write_result(
        "fig9.csv",
        &csv::aligned_csv(&[
            ("spark_soc", &result.dynamic_run.spark_soc),
            ("web_soc", &result.dynamic_run.web_soc),
            ("spark_batt_w", &result.dynamic_run.spark_battery_rate),
            ("web_batt_w", &result.dynamic_run.web_battery_rate),
        ]),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Fig8Config {
        Fig8Config {
            days: 2,
            seed: 9,
            solar_rated: 120.0,
            spark_work: 60.0,
            slo_ms: 100.0,
        }
    }

    #[test]
    fn zero_carbon_policies_touch_no_grid() {
        let r = run(quick());
        assert!(
            r.static_run.total_carbon_g < 0.5,
            "static carbon {}",
            r.static_run.total_carbon_g
        );
        assert!(
            r.dynamic_run.total_carbon_g < 0.5,
            "dynamic carbon {}",
            r.dynamic_run.total_carbon_g
        );
    }

    #[test]
    fn dynamic_spark_scales_higher_and_finishes_sooner() {
        let r = run(quick());
        let max_static = r.static_run.spark_workers.summary().expect("n").max;
        let max_dynamic = r.dynamic_run.spark_workers.summary().expect("n").max;
        assert!(
            max_dynamic > max_static,
            "dynamic peak {max_dynamic} vs static {max_static}"
        );
        match (
            r.static_run.spark_finish_ticks,
            r.dynamic_run.spark_finish_ticks,
        ) {
            (Some(s), Some(d)) => assert!(d < s, "dynamic {d} vs static {s} ticks"),
            (None, Some(_)) => {} // dynamic finished where static did not
            (s, d) => panic!("unexpected finishes: static {s:?}, dynamic {d:?}"),
        }
    }

    #[test]
    fn dynamic_web_violates_less() {
        let r = run(quick());
        assert!(
            r.dynamic_run.web_violations <= r.static_run.web_violations / 2,
            "dynamic {} vs static {}",
            r.dynamic_run.web_violations,
            r.static_run.web_violations
        );
    }

    #[test]
    fn batteries_cycle_daily() {
        let r = run(quick());
        let soc = &r.dynamic_run.spark_soc;
        let s = soc.summary().expect("non-empty");
        assert!(s.max > s.min + 0.05, "SoC should visibly cycle: {s:?}");
        // SoC bounded by the battery floor and capacity.
        assert!(s.min >= 0.30 - 1e-9 && s.max <= 1.0 + 1e-9);
    }
}
