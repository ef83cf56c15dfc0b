//! Figures 4 and 5: §5.1 *Reducing Carbon*.
//!
//! Fig. 4 compares carbon emissions and completion time for ML training
//! (a) and BLAST (b) under: carbon-agnostic execution, the system-level
//! suspend-resume policy (WaitAWhile), and Wait&Scale at several scale
//! factors. As in the paper, each configuration is run several times with
//! random job arrivals against a CAISO-like carbon trace, thresholds set
//! at the 30th (ML) / 33rd (BLAST) percentile of intensity over a 48-hour
//! window.
//!
//! Fig. 5 runs the two winning application-specific configurations
//! *concurrently* on the shared cluster and records the multi-tenancy
//! time series (intensity + thresholds, per-app container counts, total
//! cluster power).

use carbon_intel::{percentile_threshold, regions, CarbonTraceBuilder};
use ecovisor::{EcovisorBuilder, EnergyShare, Simulation};
use power_telemetry::{csv, metrics};
use simkit::series::TimeSeries;
use simkit::stats::Summary;
use simkit::time::{SimDuration, SimTime};
use simkit::units::CarbonIntensity;

use carbon_policies::{BatchApp, BatchMode};
use container_cop::CopConfig;
use simkit::rng::SimRng;
use workloads::blast::blast_job;
use workloads::mltrain::ml_training_job;

use crate::common;

/// Which §5.1 application to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// ResNet-34/CIFAR-100 training (Fig. 4a).
    MlTraining,
    /// BLAST-470 sequence search (Fig. 4b).
    Blast,
}

impl JobKind {
    fn label(self) -> &'static str {
        match self {
            JobKind::MlTraining => "PyTorch ML Training",
            JobKind::Blast => "BLAST",
        }
    }

    fn threshold_percentile(self) -> f64 {
        match self {
            JobKind::MlTraining => 30.0, // §5.1.1
            JobKind::Blast => 33.0,
        }
    }

    fn baseline_containers(self) -> u32 {
        match self {
            JobKind::MlTraining => 1, // 4 cores
            JobKind::Blast => 2,      // 8 cores
        }
    }

    fn build_job(self) -> workloads::batch::BatchJob {
        match self {
            JobKind::MlTraining => ml_training_job(),
            JobKind::Blast => blast_job(),
        }
    }

    fn scale_factors(self) -> &'static [u32] {
        match self {
            JobKind::MlTraining => &[2, 3],
            JobKind::Blast => &[2, 3, 4],
        }
    }
}

/// Configuration for the Fig. 4 experiments.
#[derive(Debug, Clone, Copy)]
pub struct Fig4Config {
    /// Repetitions with random arrivals (the paper uses 10).
    runs: u32,
    /// Root seed.
    seed: u64,
    /// Jobs arrive uniformly within this many hours from the epoch.
    arrival_window_hours: u64,
}

impl Default for Fig4Config {
    fn default() -> Self {
        Self {
            runs: 10,
            seed: 42,
            arrival_window_hours: 24,
        }
    }
}

/// One policy's aggregated outcome across runs.
#[derive(Debug, Clone)]
struct PolicyRow {
    /// Policy label as in the figure legend.
    label: String,
    /// Carbon emitted (grams) across runs.
    carbon_g: Summary,
    /// Completion time (hours, arrival → finish) across runs.
    runtime_h: Summary,
}

/// Fig. 4 result: one row per policy.
#[derive(Debug, Clone)]
pub struct Fig4Result {
    /// Which application.
    job: &'static str,
    /// Rows in legend order.
    rows: Vec<PolicyRow>,
}

fn policy_label(mode: &BatchMode) -> String {
    match mode {
        BatchMode::CarbonAgnostic => "CO2-agnostic".to_string(),
        BatchMode::SuspendResume { .. } => "System Policy (suspend-resume)".to_string(),
        BatchMode::WaitAndScale { scale, .. } => format!("W&S ({scale}x)"),
    }
}

/// Runs one configuration once; returns (carbon grams, runtime hours).
fn run_once(kind: JobKind, mode: BatchMode, arrival: SimTime, seed: u64) -> (f64, f64) {
    let carbon = CarbonTraceBuilder::new(regions::california())
        .days(10)
        .seed(seed)
        .build();
    let eco = EcovisorBuilder::new()
        .cluster(CopConfig::microserver_cluster(16))
        .carbon(carbon)
        .build();
    let mut sim = Simulation::new(eco);

    let app = BatchApp::new(
        kind.label(),
        kind.build_job(),
        mode,
        kind.baseline_containers(),
        4,
    )
    .with_arrival(arrival);
    let stats = app.stats();
    let id = sim
        .add_app(kind.label(), EnergyShare::grid_only(), Box::new(app))
        .expect("registration");

    let max_ticks = 10 * 24 * 60;
    sim.run_until_done(max_ticks);

    let carbon_g = sim.eco().app_totals(id).expect("registered").carbon.grams();
    let runtime_h = stats
        .borrow()
        .runtime_hours()
        .unwrap_or((max_ticks * 60) as f64 / 3600.0);
    (carbon_g, runtime_h)
}

/// Threshold for a run's trace (percentile over the paper's 48 h window).
fn threshold_for(kind: JobKind, seed: u64) -> CarbonIntensity {
    let carbon = CarbonTraceBuilder::new(regions::california())
        .days(10)
        .seed(seed)
        .build();
    percentile_threshold(
        &carbon,
        SimTime::EPOCH,
        SimDuration::from_hours(48),
        SimDuration::from_minutes(5),
        kind.threshold_percentile(),
    )
    .expect("non-empty window")
}

/// A labelled policy constructor parameterized by the carbon threshold.
type ModeFactory = Box<dyn Fn(CarbonIntensity) -> BatchMode>;

/// Runs Fig. 4a or 4b.
pub fn run(kind: JobKind, cfg: Fig4Config) -> Fig4Result {
    let mut modes: Vec<(String, ModeFactory)> = vec![
        (
            policy_label(&BatchMode::CarbonAgnostic),
            Box::new(|_| BatchMode::CarbonAgnostic),
        ),
        (
            policy_label(&BatchMode::SuspendResume {
                threshold: CarbonIntensity::ZERO,
            }),
            Box::new(|t| BatchMode::SuspendResume { threshold: t }),
        ),
    ];
    for &scale in kind.scale_factors() {
        modes.push((
            format!("W&S ({scale}x)"),
            Box::new(move |t| BatchMode::WaitAndScale {
                threshold: t,
                scale,
            }),
        ));
    }

    let root = SimRng::from_seed(cfg.seed);
    let mut rows = Vec::new();
    for (label, make_mode) in &modes {
        let mut carbons = Vec::new();
        let mut runtimes = Vec::new();
        for run_idx in 0..cfg.runs {
            let mut rng = root.fork_indexed("fig4-run", u64::from(run_idx));
            let trace_seed = cfg.seed ^ (u64::from(run_idx) << 8);
            let arrival_secs = rng.uniform_u64(0, cfg.arrival_window_hours.max(1) * 3600);
            let arrival = SimTime::from_secs((arrival_secs / 60) * 60);
            let threshold = threshold_for(kind, trace_seed);
            let mode = make_mode(threshold);
            let (c, r) = run_once(kind, mode, arrival, trace_seed);
            carbons.push(c);
            runtimes.push(r);
        }
        rows.push(PolicyRow {
            label: label.clone(),
            carbon_g: Summary::of(&carbons).expect("runs > 0"),
            runtime_h: Summary::of(&runtimes).expect("runs > 0"),
        });
    }
    Fig4Result {
        job: kind.label(),
        rows,
    }
}

/// Prints the figure's rows and writes a CSV.
pub fn report(result: &Fig4Result, file: &str) {
    let rows: Vec<Vec<String>> = result
        .rows
        .iter()
        .map(|r| {
            vec![
                r.label.clone(),
                common::mean_std(&r.carbon_g, 2),
                common::mean_std(&r.runtime_h, 2),
            ]
        })
        .collect();
    common::print_table(
        &format!("{} — carbon & runtime per policy", result.job),
        &["policy", "CO2 (g)", "runtime (h)"],
        &rows,
    );
    let mut csv = String::from("policy,carbon_mean_g,carbon_std_g,runtime_mean_h,runtime_std_h\n");
    for r in &result.rows {
        csv.push_str(&format!(
            "{},{:.4},{:.4},{:.4},{:.4}\n",
            r.label, r.carbon_g.mean, r.carbon_g.std_dev, r.runtime_h.mean, r.runtime_h.std_dev
        ));
    }
    common::write_result(file, &csv);
}

// ---------------------------------------------------------------------
// Figure 5: multi-tenancy of the application-specific policies.
// ---------------------------------------------------------------------

/// Fig. 5 result: the multi-tenant time series.
#[derive(Debug, Clone)]
pub struct Fig5Result {
    /// Grid carbon intensity over the run.
    intensity: TimeSeries,
    /// ML-training threshold (30th percentile).
    ml_threshold: f64,
    /// BLAST threshold (33rd percentile).
    blast_threshold: f64,
    /// Running containers of the ML app (W&S 2×).
    ml_containers: TimeSeries,
    /// Running containers of the BLAST app (W&S 3×).
    blast_containers: TimeSeries,
    /// Total cluster power (including the idle baseline).
    cluster_power: TimeSeries,
}

/// Runs the Fig. 5 multi-tenant experiment.
pub fn run_fig5(seed: u64) -> Fig5Result {
    let carbon = CarbonTraceBuilder::new(regions::california())
        .days(4)
        .seed(seed)
        .build();
    let ml_threshold = percentile_threshold(
        &carbon,
        SimTime::EPOCH,
        SimDuration::from_hours(48),
        SimDuration::from_minutes(5),
        30.0,
    )
    .expect("window");
    let blast_threshold = percentile_threshold(
        &carbon,
        SimTime::EPOCH,
        SimDuration::from_hours(48),
        SimDuration::from_minutes(5),
        33.0,
    )
    .expect("window");

    let eco = EcovisorBuilder::new()
        .cluster(CopConfig::microserver_cluster(16))
        .carbon(carbon)
        .build();
    let mut sim = Simulation::new(eco);

    let ml = BatchApp::new(
        "ml",
        ml_training_job(),
        BatchMode::WaitAndScale {
            threshold: ml_threshold,
            scale: 2,
        },
        1,
        4,
    );
    let blast = BatchApp::new(
        "blast",
        blast_job(),
        BatchMode::WaitAndScale {
            threshold: blast_threshold,
            scale: 3,
        },
        2,
        4,
    );
    let ml_id = sim
        .add_app("ml", EnergyShare::grid_only(), Box::new(ml))
        .expect("registration");
    let blast_id = sim
        .add_app("blast", EnergyShare::grid_only(), Box::new(blast))
        .expect("registration");

    sim.run_until_done(4 * 24 * 60);

    let db = sim.eco().telemetry();
    let grab = |metric: &str, subject: &str| -> TimeSeries {
        db.series(metric, subject).cloned().unwrap_or_default()
    };
    Fig5Result {
        intensity: grab(metrics::GRID_CARBON_INTENSITY, metrics::SYSTEM),
        ml_threshold: ml_threshold.grams_per_kwh(),
        blast_threshold: blast_threshold.grams_per_kwh(),
        ml_containers: grab(metrics::CONTAINER_COUNT, &ml_id.to_string()),
        blast_containers: grab(metrics::CONTAINER_COUNT, &blast_id.to_string()),
        cluster_power: grab(metrics::APP_POWER, metrics::SYSTEM),
    }
}

/// Prints Fig. 5's series and writes `fig5.csv`.
pub fn report_fig5(result: &Fig5Result) {
    println!(
        "\n### Figure 5: multi-tenant Wait&Scale (thresholds: ML {:.0}, BLAST {:.0} gCO2/kWh)",
        result.ml_threshold, result.blast_threshold
    );
    common::sparkline("carbon intensity", &result.intensity, 48);
    common::sparkline("ML containers (W&S 2x)", &result.ml_containers, 48);
    common::sparkline("BLAST containers (W&S 3x)", &result.blast_containers, 48);
    common::sparkline("cluster power (W)", &result.cluster_power, 48);
    common::write_result(
        "fig5.csv",
        &csv::aligned_csv(&[
            ("carbon_gpkwh", &result.intensity),
            ("ml_containers", &result.ml_containers),
            ("blast_containers", &result.blast_containers),
            ("cluster_power_w", &result.cluster_power),
        ]),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> Fig4Config {
        Fig4Config {
            runs: 2,
            seed: 11,
            arrival_window_hours: 12,
        }
    }

    #[test]
    fn fig4a_policy_shape() {
        let result = run(JobKind::MlTraining, quick_cfg());
        let by = |label: &str| {
            result
                .rows
                .iter()
                .find(|r| r.label.contains(label))
                .expect("row present")
        };
        let agnostic = by("agnostic");
        let sr = by("suspend");
        let ws2 = by("(2x)");
        let ws3 = by("(3x)");
        // Suspend-resume cuts carbon vs agnostic but takes much longer.
        assert!(sr.carbon_g.mean < agnostic.carbon_g.mean);
        assert!(sr.runtime_h.mean > 2.0 * agnostic.runtime_h.mean);
        // W&S 2x roughly matches SR carbon at far lower runtime.
        assert!(ws2.runtime_h.mean < sr.runtime_h.mean);
        assert!(ws2.carbon_g.mean < agnostic.carbon_g.mean);
        // 3x: more carbon than 2x, only modest runtime gain.
        assert!(ws3.carbon_g.mean > ws2.carbon_g.mean);
        assert!(ws3.runtime_h.mean <= ws2.runtime_h.mean * 1.05);
    }

    #[test]
    fn fig4b_policy_shape() {
        let result = run(JobKind::Blast, quick_cfg());
        let by = |label: &str| {
            result
                .rows
                .iter()
                .find(|r| r.label.contains(label))
                .expect("row present")
        };
        let sr = by("suspend");
        let ws2 = by("(2x)");
        let ws3 = by("(3x)");
        let ws4 = by("(4x)");
        // Scaling keeps helping through 3x...
        assert!(ws2.runtime_h.mean < sr.runtime_h.mean);
        assert!(ws3.runtime_h.mean < ws2.runtime_h.mean);
        // ...but 4x buys no further runtime and emits more carbon.
        assert!(ws4.runtime_h.mean >= ws3.runtime_h.mean * 0.95);
        assert!(ws4.carbon_g.mean > ws3.carbon_g.mean);
    }

    #[test]
    fn fig5_produces_concurrent_series() {
        let r = run_fig5(5);
        assert!(!r.intensity.is_empty());
        assert!(!r.ml_containers.is_empty());
        assert!(!r.blast_containers.is_empty());
        // Both apps actually scaled beyond zero at some point.
        assert!(r.ml_containers.summary().expect("n").max >= 2.0);
        assert!(r.blast_containers.summary().expect("n").max >= 6.0);
        // Thresholds differ (different percentiles).
        assert!(r.blast_threshold >= r.ml_threshold);
    }
}
