//! The committed corpus is the regression net: every artifact under
//! `corpus/` must load, carry a catalogued scenario, and verify green —
//! bit-identical replay, lossless in both file encodings. Any
//! change to settlement arithmetic, dispatch semantics, event
//! generation, or either encoding that perturbs a recorded day fails here
//! (and in the CI `ecoharness verify corpus/` job, which runs the same
//! checks through the CLI).

use std::path::PathBuf;

use ecoharness::artifact::artifacts_in_dir;
use ecoharness::{build_ecovisor, corpus, verify, ScenarioArtifact};
use ecovisor::proto::EnergyRequest;
use ecovisor::WireCodec;
use power_telemetry::metrics;
use simkit::time::SimTime;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../corpus")
}

#[test]
fn committed_corpus_replays_bit_identically() {
    let paths = artifacts_in_dir(&corpus_dir()).expect("corpus directory exists");
    assert!(
        paths.len() >= 6,
        "corpus should hold the full catalogue, found {}",
        paths.len()
    );
    let mut seen_json = false;
    let mut seen_binary = false;
    let mut seen_checkpoints = false;
    let mut seen_resumed = false;
    for path in &paths {
        let (artifact, codec) =
            ScenarioArtifact::load(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        match codec {
            WireCodec::Json => seen_json = true,
            WireCodec::Binary => seen_binary = true,
        }
        seen_checkpoints |= !artifact.checkpoints.is_empty();
        seen_resumed |= artifact.base.is_some();
        // Resumed artifacts carry their parent's name plus a `-resumed`
        // suffix; everything else must be catalogued directly.
        let catalogued = match artifact.spec.name.strip_suffix("-resumed") {
            Some(parent) if artifact.base.is_some() => corpus::names().contains(&parent),
            _ => corpus::names().contains(&artifact.spec.name.as_str()),
        };
        assert!(
            catalogued,
            "{}: scenario `{}` is not in the catalogue",
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
/// re-recording each spec in-process reproduces the stored expected
/// outcome (totals digests), so the corpus can't silently drift from
/// the builtins that generated it.
#[test]
fn committed_corpus_matches_reseeded_builtins() {
    for path in artifacts_in_dir(&corpus_dir()).expect("corpus directory exists") {
        let (artifact, codec) =
            ScenarioArtifact::load(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let fresh = match &artifact.base {
            // A resumed artifact re-records from its own embedded base
            // checkpoint; its spec must be exactly the parent builtin's,
            // renamed by `resumed_spec`.
            Some(base) => {
                let parent_name = artifact
                    .spec
                    .name
                    .strip_suffix("-resumed")
                    .unwrap_or_else(|| panic!("{}: resumed artifact misnamed", path.display()));
                let parent = corpus::builtin(parent_name)
                    .unwrap_or_else(|| panic!("{}: unknown parent builtin", path.display()));
                assert_eq!(
                    artifact.spec,
                    ecoharness::resumed_spec(&parent, base.tick),
                    "{}: stored spec drifted from the parent builtin",
                    path.display()
                );
                ecoharness::record_resumed(&artifact.spec, base)
                    .unwrap_or_else(|e| panic!("{}: re-record resumed: {e}", path.display()))
            }
            None => {
                let spec = corpus::builtin(&artifact.spec.name)
                    .unwrap_or_else(|| panic!("{}: unknown builtin", path.display()));
                assert_eq!(
                    artifact.spec,
                    spec,
                    "{}: stored spec drifted from the builtin",
                    path.display()
                );
                // Cadence and encoding come from the catalogue row, as
                // they do for a bare `ecoharness record`: a row that
                // disagrees with the committed file fails here.
                assert_eq!(
                    corpus::default_codec(&spec.name),
                    Some(codec),
                    "{}: committed in another encoding than its catalogue row's",
                    path.display()
                );
                let every = corpus::default_checkpoint_ticks(&spec.name);
                ecoharness::record_with_checkpoints(&spec, every)
                    .unwrap_or_else(|e| panic!("{}: re-record: {e}", path.display()))
            }
        };
        assert_eq!(
            fresh.expected.totals_digest,
            artifact.expected.totals_digest,
            "{}: re-recording the builtin no longer reproduces the committed totals",
            path.display()
        );
        assert_eq!(
            fresh.expected.events_digest,
            artifact.expected.events_digest,
            "{}: re-recording the builtin no longer reproduces the committed events",
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
    let row = |tick: u64| {
        eco.tsdb()
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
