//! Figure 1: "Grid carbon emissions for three different regions showing
//! spatial and temporal variations" — Ontario, California, Uruguay over
//! four days, 5-minute samples.

use carbon_intel::generator::CarbonTraceBuilder;
use carbon_intel::regions;
use power_telemetry::csv;
use simkit::series::TimeSeries;
use simkit::stats::Summary;
use simkit::time::SimTime;
use simkit::trace::Trace;

use crate::common;

/// Configuration for the Fig. 1 regeneration.
#[derive(Debug, Clone, Copy)]
pub struct Fig1Config {
    /// Days of data (the paper plots 4).
    days: u64,
    /// Generation seed.
    seed: u64,
}

impl Default for Fig1Config {
    fn default() -> Self {
        Self {
            days: 4,
            seed: 2023,
        }
    }
}

/// One region's generated trace plus its summary statistics.
#[derive(Debug, Clone)]
struct RegionSeries {
    /// Region name.
    region: String,
    /// Intensity series, g·CO2/kWh.
    series: TimeSeries,
    /// Summary over the run.
    summary: Summary,
}

/// Fig. 1 result: one series per region.
#[derive(Debug, Clone)]
pub struct Fig1Result {
    /// Series in the paper's legend order (Ontario, California, Uruguay).
    regions: Vec<RegionSeries>,
}

fn to_series(trace: &Trace, days: u64) -> TimeSeries {
    let step = trace.step();
    let n = (days * simkit::time::SECS_PER_DAY) / step.as_secs();
    (0..n)
        .map(|i| {
            let at = SimTime::from_secs(i * step.as_secs());
            (at, trace.sample(at))
        })
        .collect()
}

/// Runs the experiment.
pub fn run(cfg: Fig1Config) -> Fig1Result {
    let regions = regions::figure1_regions()
        .into_iter()
        .map(|profile| {
            let trace = CarbonTraceBuilder::new(profile.clone())
                .days(cfg.days)
                .seed(cfg.seed)
                .build();
            let series = to_series(&trace, cfg.days);
            let summary = series.summary().expect("non-empty trace");
            RegionSeries {
                region: profile.name,
                series,
                summary,
            }
        })
        .collect();
    Fig1Result { regions }
}

/// Prints the figure's series and summary rows; writes `fig1.csv`.
pub fn report(result: &Fig1Result) {
    println!("\n### Figure 1: grid carbon intensity by region (gCO2/kWh)");
    for r in &result.regions {
        common::sparkline(&r.region, &r.series, 48);
    }
    let rows: Vec<Vec<String>> = result
        .regions
        .iter()
        .map(|r| {
            vec![
                r.region.clone(),
                format!("{:.1}", r.summary.mean),
                format!("{:.1}", r.summary.min),
                format!("{:.1}", r.summary.max),
                format!("{:.1}", r.summary.std_dev),
            ]
        })
        .collect();
    common::print_table(
        "Fig. 1 summary",
        &["region", "mean", "min", "max", "std"],
        &rows,
    );
    let cols: Vec<(&str, &TimeSeries)> = result
        .regions
        .iter()
        .map(|r| (r.region.as_str(), &r.series))
        .collect();
    common::write_result("fig1.csv", &csv::aligned_csv(&cols));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_matches_figure1() {
        let result = run(Fig1Config { days: 4, seed: 7 });
        assert_eq!(result.regions.len(), 3);
        let by_name = |n: &str| {
            result
                .regions
                .iter()
                .find(|r| r.region == n)
                .expect("region present")
        };
        let on = by_name("Ontario");
        let ca = by_name("California");
        let uy = by_name("Uruguay");
        // Level ordering and volatility ordering from the paper's figure.
        assert!(on.summary.mean < uy.summary.mean);
        assert!(uy.summary.mean < ca.summary.mean);
        assert!(ca.summary.std_dev > on.summary.std_dev * 3.0);
        // 4 days of 5-minute samples.
        assert_eq!(on.series.len(), 4 * 288);
    }

    #[test]
    fn deterministic() {
        let a = run(Fig1Config { days: 1, seed: 3 });
        let b = run(Fig1Config { days: 1, seed: 3 });
        assert_eq!(a.regions[1].series, b.regions[1].series);
    }
}
