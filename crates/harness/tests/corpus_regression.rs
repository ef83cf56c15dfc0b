//! The committed corpus is the regression net: every artifact under
//! `corpus/` must load, be one of the twelve days named below, and
//! verify green — bit-identical replay, lossless in both file encodings.
//! Any change to settlement arithmetic, dispatch semantics, event
//! generation, or either encoding that perturbs a recorded day fails here
//! (and in the CI `ecoharness verify corpus/` job, which runs the same
//! checks through the CLI).

use ecoharness::artifact::artifacts_in_dir;
use ecoharness::{build_ecovisor, verify, ScenarioArtifact};
use ecovisor::proto::EnergyRequest;
use ecovisor::WireCodec;
use power_telemetry::metrics;
use simkit::time::SimTime;

mod common;

use common::corpus_dir;

/// The corpus, by file name. Adding or removing a day is an edit here.
const DAYS: [&str; 12] = [
    "batch-checkpoint-resumed.scn.bin",
    "batch-checkpoint.scn.bin",
    "budget-exhaustion.scn.json",
    "caiso-arbitrage.scn.json",
    "cloudy-web.scn.bin",
    "credential-churn.scn.json",
    "mixed-tenants.scn.bin",
    "restore-under-load.scn.bin",
    "split-brain.scn.json",
    "sunny-batch.scn.json",
    "thousand-tenants.scn.bin",
    "web-autoscale.scn.bin",
];

#[test]
fn committed_corpus_replays_bit_identically() {
    let paths = artifacts_in_dir(&corpus_dir()).expect("corpus directory exists");
    let names: Vec<&str> = paths
        .iter()
        .map(|p| p.file_name().and_then(|n| n.to_str()).expect("utf-8 name"))
        .collect();
    assert_eq!(names, DAYS, "the corpus's days");
    let mut seen_json = false;
    let mut seen_binary = false;
    let mut seen_checkpoints = false;
    let mut seen_resumed = false;
    for (path, name) in paths.iter().zip(names) {
        let (artifact, codec) =
            ScenarioArtifact::load(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        match codec {
            WireCodec::Json => seen_json = true,
            WireCodec::Binary => seen_binary = true,
        }
        seen_checkpoints |= !artifact.checkpoints.is_empty();
        seen_resumed |= artifact.base.is_some();
        // `record` writes a day under its spec's name.
        assert_eq!(
            name,
            artifact.file_name(codec),
            "{}: file stem is not the spec's name `{}`",
            path.display(),
            artifact.spec.name
        );
        let report = verify(&artifact).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(
            report.passed(),
            "{} failed verification: {:#?}",
            path.display(),
            report.failures()
        );
    }
    assert!(
        seen_json && seen_binary,
        "corpus should keep both codecs' loaders regression-covered"
    );
    assert!(
        seen_checkpoints,
        "corpus should keep the checkpoint restore-replay matrix regression-covered"
    );
    assert!(
        seen_resumed,
        "corpus should keep resumed-artifact (mid-day start) replay regression-covered"
    );
}

/// The committed artifacts are exactly what their specs record today:
/// re-recording each day from the spec it embeds, at the cadence its
/// checkpoints show, reproduces the file byte for byte in the encoding
/// it is stored in — what `ecoharness record` would write. A resumed
/// day re-records from its own base checkpoint, and its spec must be
/// its parent's, renamed by `resumed_spec`.
#[test]
fn committed_corpus_matches_reseeded_builtins() {
    for path in artifacts_in_dir(&corpus_dir()).expect("corpus directory exists") {
        let (artifact, codec) =
            ScenarioArtifact::load(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let fresh = match &artifact.base {
            Some(base) => {
                let parent = artifact
                    .spec
                    .name
                    .strip_suffix("-resumed")
                    .unwrap_or_else(|| panic!("{}: resumed artifact misnamed", path.display()));
                assert_eq!(
                    artifact.spec,
                    ecoharness::resumed_spec(&common::spec(parent), base.tick),
                    "{}: stored spec drifted from its parent's",
                    path.display()
                );
                ecoharness::record_resumed(&artifact.spec, base)
                    .unwrap_or_else(|e| panic!("{}: re-record resumed: {e}", path.display()))
            }
            None => {
                let every = artifact
                    .checkpoint_cadence()
                    .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
                ecoharness::record_with_checkpoints(&artifact.spec, every)
                    .unwrap_or_else(|e| panic!("{}: re-record: {e}", path.display()))
            }
        };
        assert_eq!(
            fresh.expected.totals_digest,
            artifact.expected.totals_digest,
            "{}: re-recording the spec no longer reproduces the committed totals",
            path.display()
        );
        assert_eq!(
            fresh.expected.events_digest,
            artifact.expected.events_digest,
            "{}: re-recording the spec no longer reproduces the committed events",
            path.display()
        );
        let fresh_cps: Vec<(u64, u64)> = fresh
            .checkpoints
            .iter()
            .map(|c| (c.tick, c.digest))
            .collect();
        let stored_cps: Vec<(u64, u64)> = artifact
            .checkpoints
            .iter()
            .map(|c| (c.tick, c.digest))
            .collect();
        assert_eq!(
            fresh_cps,
            stored_cps,
            "{}: re-recording no longer reproduces the committed checkpoints",
            path.display()
        );
        assert!(
            fresh.to_bytes(codec) == std::fs::read(&path).expect("committed bytes"),
            "{}: re-recording differs from the committed bytes (run `ecoharness diff`)",
            path.display()
        );
    }
}

/// The read-side law on a recorded day: every `GetGridCarbon` answer a
/// carbon-reading tenant of `caiso-arbitrage` gets, replayed from the
/// committed recording, is the intensity the `SYSTEM` telemetry row
/// records — the one settlement charged — for the tick it was asked in.
#[test]
fn recorded_tenants_are_told_the_intensity_their_tick_charges() {
    let path = corpus_dir().join("caiso-arbitrage.scn.json");
    let (artifact, _) = ScenarioArtifact::load(&path).expect("committed day");
    let spec = &artifact.spec;
    let (mut eco, _) = build_ecovisor(spec).expect("world");
    let report = eco.replay_trace_from(&artifact.trace, 0, spec.ticks);
    let dt = spec.tick_interval().as_secs();
    let telemetry = eco.telemetry();
    let row = |tick: u64| {
        telemetry
            .value_at(
                metrics::GRID_CARBON_INTENSITY,
                metrics::SYSTEM,
                SimTime::from_secs(tick * dt),
            )
            .expect("settled tick")
    };
    let (mut answers, mut moved) = (0, 0);
    for (entry, batch) in artifact.trace.entries.iter().zip(&report.responses) {
        if entry.tick >= spec.ticks {
            continue; // asked after the last settlement: nothing charged
        }
        for (request, response) in entry.batch.requests.iter().zip(&batch.responses) {
            if *request != EnergyRequest::GetGridCarbon {
                continue;
            }
            let told = response.clone().expect_intensity().grams_per_kwh();
            assert_eq!(
                told,
                row(entry.tick),
                "{} at tick {}",
                entry.batch.app,
                entry.tick
            );
            answers += 1;
            moved += usize::from(entry.tick > 0 && row(entry.tick - 1) != told);
        }
    }
    assert!(
        moved > 0,
        "{answers} answers, none where the signal had moved"
    );
}
