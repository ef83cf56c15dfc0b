//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro [fig1|fig4a|fig4b|fig5|fig6|fig8|fig10|fig11|all]
//! ```
//!
//! Results print to stdout (tables + ASCII sparklines) and CSVs land in
//! `results/`.

use experiments::{common, fig1, fig10, fig4, fig6, fig8};

fn main() {
    let what = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());

    println!("ecovisor reproduction — experiment '{what}'");
    println!("results directory: {}", common::results_dir().display());

    let run_fig4 = |kind: fig4::JobKind, file: &str| {
        let result = fig4::run(kind, fig4::Fig4Config::default());
        fig4::report(&result, file);
    };

    match what.as_str() {
        "fig1" => fig1::report(&fig1::run(fig1::Fig1Config::default())),
        "fig4a" => run_fig4(fig4::JobKind::MlTraining, "fig4a.csv"),
        "fig4b" => run_fig4(fig4::JobKind::Blast, "fig4b.csv"),
        "fig5" => fig4::report_fig5(&fig4::run_fig5(2023)),
        "fig6" | "fig7" => fig6::report(&fig6::run(fig6::Fig6Config::default())),
        "fig8" | "fig9" => fig8::report(&fig8::run(fig8::Fig8Config::default())),
        "fig10" => fig10::report(&fig10::run(fig10::Fig10Config::default())),
        "fig11" => fig10::report_fig11(&fig10::run_fig11(fig10::Fig10Config::default(), 0.4)),
        "all" => {
            fig1::report(&fig1::run(fig1::Fig1Config::default()));
            run_fig4(fig4::JobKind::MlTraining, "fig4a.csv");
            run_fig4(fig4::JobKind::Blast, "fig4b.csv");
            fig4::report_fig5(&fig4::run_fig5(2023));
            fig6::report(&fig6::run(fig6::Fig6Config::default()));
            fig8::report(&fig8::run(fig8::Fig8Config::default()));
            let cfg10 = fig10::Fig10Config::default();
            fig10::report(&fig10::run(cfg10));
            fig10::report_fig11(&fig10::run_fig11(cfg10, 0.4));
        }
        other => {
            eprintln!("unknown experiment '{other}'");
            eprintln!("usage: repro [fig1|fig4a|fig4b|fig5|fig6|fig8|fig10|fig11|all]");
            std::process::exit(2);
        }
    }
}
