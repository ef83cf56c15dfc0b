//! Settlement stores what a door reads: a ledger of every telemetry
//! series a tick writes, each with the door that reads it back.
//!
//! A tenant's live values (`GetGridPower`, `GetSolarPower`,
//! `GetBatteryChargeLevel`, `GetAppCarbon`, …) are answered from its
//! virtual energy system; the store exists for the interval requests,
//! the figures and the tests that read history. A series written every
//! tick that no door reads still costs every tick an append, every
//! snapshot its bytes and every restore its name. So every recorded day
//! is replayed in process, and each `(metric, subject kind)` pair left in
//! the final store must be one of the ledger's rows — and each row must
//! be written on some day, so the ledger cannot keep a row for a series
//! that is gone. A series comes back only with a reader and a row here.

use std::collections::BTreeSet;
use std::path::PathBuf;

use ecoharness::artifact::artifacts_in_dir;
use ecoharness::{build_ecovisor, ScenarioArtifact};
use power_telemetry::metrics;

/// What a series is about: the substrate, a tenant or a container.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Subject {
    System,
    App,
    Container,
}

/// Every series settlement writes, and the door that reads it.
const LEDGER: [(&str, Subject, &str); 11] = [
    (
        metrics::GRID_CARBON_INTENSITY,
        Subject::System,
        "fig. 4/5 (fig4.rs); recorded_tenants_are_told_the_intensity_their_tick_charges",
    ),
    (metrics::SOLAR_POWER, Subject::System, "fig. 8/9 (fig8.rs)"),
    (metrics::APP_POWER, Subject::System, "fig. 4/5 (fig4.rs)"),
    (metrics::APP_POWER, Subject::App, "GetAppEnergy"),
    (
        metrics::BATTERY_DISCHARGE,
        Subject::App,
        "fig. 8/9 (fig8.rs)",
    ),
    (metrics::BATTERY_CHARGE, Subject::App, "fig. 8/9 (fig8.rs)"),
    (metrics::BATTERY_SOC, Subject::App, "fig. 8/9 (fig8.rs)"),
    (
        metrics::CARBON_RATE,
        Subject::App,
        "GetAppCarbonBetween; fig. 6/7 (fig6.rs)",
    ),
    (
        metrics::CONTAINER_COUNT,
        Subject::App,
        "fig. 4/5 (fig4.rs), fig. 8/9 (fig8.rs)",
    ),
    (
        metrics::CONTAINER_POWER,
        Subject::Container,
        "GetContainerEnergy; fig. 10/11 (fig10.rs)",
    ),
    (
        metrics::CARBON_RATE,
        Subject::Container,
        "GetContainerCarbon",
    ),
];

/// `subject`'s kind, by the form settlement names it in (`system`,
/// `app7`, `c12`); `None` for any other form.
fn kind(subject: &str) -> Option<Subject> {
    let numbered = |prefix| {
        subject
            .strip_prefix(prefix)
            .is_some_and(|n: &str| !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit()))
    };
    if subject == metrics::SYSTEM {
        Some(Subject::System)
    } else if numbered("app") {
        Some(Subject::App)
    } else if numbered("c") {
        Some(Subject::Container)
    } else {
        None
    }
}

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../corpus")
}

#[test]
fn every_series_a_day_stores_has_a_reader() {
    let ledger: BTreeSet<(&str, Subject)> = LEDGER.iter().map(|&(m, s, _)| (m, s)).collect();
    assert_eq!(ledger.len(), LEDGER.len(), "a ledger row is listed twice");
    let mut written = BTreeSet::new();
    for path in artifacts_in_dir(&corpus_dir()).expect("corpus directory exists") {
        let (artifact, _) =
            ScenarioArtifact::load(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let (mut eco, _) = build_ecovisor(&artifact.spec).expect("the spec builds");
        let start = match &artifact.base {
            Some(base) => {
                let snap = base.decode().expect("the base checkpoint decodes");
                eco.apply_snapshot(&snap)
                    .expect("the base checkpoint restores");
                base.tick
            }
            None => 0,
        };
        eco.replay_trace_from(&artifact.trace, start, artifact.spec.ticks);
        for (metric, subject, _) in eco.telemetry().iter() {
            let kind = kind(subject);
            let row = LEDGER
                .iter()
                .find(|&&(m, s, _)| m == metric && Some(s) == kind);
            let &(metric, subject, _) = row.unwrap_or_else(|| {
                panic!(
                    "{}: `{metric}` of `{subject}` is stored, but no ledger row names a door \
                     that reads it",
                    path.display()
                )
            });
            written.insert((metric, subject));
        }
    }
    let unwritten: Vec<_> = ledger.difference(&written).collect();
    assert!(
        unwritten.is_empty(),
        "ledger rows no recorded day writes: {unwritten:?}"
    );
}
