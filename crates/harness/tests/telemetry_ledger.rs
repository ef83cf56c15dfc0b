//! Settlement stores what a door reads: a ledger of every telemetry
//! series a tick writes, each with the door that reads it back.
//!
//! A tenant's live values (`GetGridPower`, `GetSolarPower`,
//! `GetBatteryChargeLevel`, `GetAppCarbon`, …) are answered from its
//! virtual energy system; the series exist for the interval requests,
//! the figures and the tests that read history. A series written every
//! tick that no door reads still costs every tick an append and every
//! snapshot, capture and restore its bytes. So every recorded day is
//! replayed in process, and each `(metric, subject kind)` pair the
//! ecovisor holds at the end must be one of the ledger's rows — and each
//! row must be written on some day, so the ledger cannot keep a row for a
//! series that is gone. A series comes back only with a reader and a row
//! here.

use std::collections::BTreeSet;
use std::path::PathBuf;

use ecoharness::{artifacts_in_dir, build_ecovisor, ScenarioArtifact};
use ecovisor::{Metric, Subject};

/// What a series is about: the substrate, a tenant or a container.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    System,
    App,
    Container,
}

/// Every series settlement writes, and the door that reads it.
const LEDGER: [(Metric, Kind, &str); 11] = [
    (
        Metric::GridCarbonIntensity,
        Kind::System,
        "fig. 4/5 (fig4.rs); recorded_tenants_are_told_the_intensity_their_tick_charges",
    ),
    (Metric::SolarPower, Kind::System, "fig. 8/9 (fig8.rs)"),
    (Metric::AppPower, Kind::System, "fig. 4/5 (fig4.rs)"),
    (Metric::AppPower, Kind::App, "GetAppEnergy"),
    (Metric::BatteryDischarge, Kind::App, "fig. 8/9 (fig8.rs)"),
    (Metric::BatteryCharge, Kind::App, "fig. 8/9 (fig8.rs)"),
    (Metric::BatterySoc, Kind::App, "fig. 8/9 (fig8.rs)"),
    (
        Metric::CarbonRate,
        Kind::App,
        "GetAppCarbonBetween; fig. 6/7 (fig6.rs)",
    ),
    (
        Metric::ContainerCount,
        Kind::App,
        "fig. 4/5 (fig4.rs), fig. 8/9 (fig8.rs)",
    ),
    (
        Metric::ContainerPower,
        Kind::Container,
        "GetContainerEnergy; fig. 10/11 (fig10.rs)",
    ),
    (Metric::CarbonRate, Kind::Container, "GetContainerCarbon"),
];

/// `subject`'s kind.
fn kind(subject: Subject) -> Kind {
    match subject {
        Subject::System => Kind::System,
        Subject::App(_) => Kind::App,
        Subject::Container(_) => Kind::Container,
    }
}

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../corpus")
}

#[test]
fn every_series_a_day_stores_has_a_reader() {
    let ledger: BTreeSet<(Metric, Kind)> = LEDGER.iter().map(|&(m, s, _)| (m, s)).collect();
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
        eco.for_each_series(|subject, metric, _| {
            let key = (metric, kind(subject));
            assert!(
                ledger.contains(&key),
                "{}: {metric:?} of {subject:?} is stored, but no ledger row names a door \
                 that reads it",
                path.display()
            );
            written.insert(key);
        });
    }
    let unwritten: Vec<_> = ledger.difference(&written).collect();
    assert!(
        unwritten.is_empty(),
        "ledger rows no recorded day writes: {unwritten:?}"
    );
}
