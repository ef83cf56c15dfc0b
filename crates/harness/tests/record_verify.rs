//! Record → verify round trip, and the verifier's teeth.
//!
//! A verifier that cannot fail is decoration. These tests prove the
//! pipeline passes on faithful artifacts and — just as important —
//! *fails* on every kind of corruption it exists to catch: dropped
//! event frames, mutated request traffic, and tampered expectations.

use ecoharness::{corpus, record, verify};
use ecovisor::proto::EnergyRequest;
use simkit::units::Watts;

/// A shrunk builtin: small enough for test time, eventful enough to
/// carry event frames worth corrupting.
fn small_artifact() -> ecoharness::ScenarioArtifact {
    let mut spec = corpus::builtin("mixed-tenants").expect("builtin");
    spec.ticks = 12;
    record(&spec).expect("record")
}

#[test]
fn faithful_artifact_verifies_green() {
    let artifact = small_artifact();
    assert!(artifact.trace.request_count() > 0, "day generated traffic");
    assert!(
        !artifact.trace.events.is_empty(),
        "day generated event frames"
    );
    let report = verify(&artifact).expect("verify");
    assert!(report.passed(), "failures: {:#?}", report.failures());
    // The replay ran: totals per app + totals digest + frames + frames
    // digest, next to the structural and file-encoding checks.
    let replayed = |c: &&ecoharness::Check| c.label.starts_with("replay ");
    assert_eq!(
        report.checks.iter().filter(replayed).count(),
        artifact.spec.tenants.len() + 3
    );
    for codec in ["json", "binary"] {
        let label = format!("codec[{codec}] round-trip");
        assert!(report.checks.iter().any(|c| c.label == label), "{label}");
    }
}

#[test]
fn dropped_event_frame_fails_verification() {
    let mut artifact = small_artifact();
    let removed = artifact.trace.events.pop().expect("has frames");
    // Keep the counts self-consistent so only the replay comparison can
    // catch it — the strictest possible test of the event-frame check.
    artifact.expected.event_count -= removed.events.len();
    artifact.expected.events_digest = ecovisor::digest(&artifact.trace.events);
    let report = verify(&artifact).expect("verify");
    assert!(!report.passed(), "dropped frame must fail");
    assert!(
        report
            .failures()
            .iter()
            .any(|c| c.label.contains("event frames")),
        "the frame comparison specifically must catch it: {:#?}",
        report.failures()
    );
}

#[test]
fn mutated_request_traffic_fails_verification() {
    let mut artifact = small_artifact();
    // Find a command batch and perturb one request: replaying different
    // traffic must not settle to the recorded totals.
    let entry = artifact
        .trace
        .entries
        .iter_mut()
        .find(|e| {
            e.batch
                .requests
                .iter()
                .any(|r| matches!(r, EnergyRequest::SetBatteryChargeRate { .. }))
        })
        .expect("a charge-rate command exists in the mixed day");
    for req in &mut entry.batch.requests {
        if let EnergyRequest::SetBatteryChargeRate { rate } = req {
            *rate += Watts::new(500.0);
        }
    }
    let report = verify(&artifact).expect("verify");
    assert!(!report.passed(), "mutated traffic must fail");
}

#[test]
fn tampered_expected_totals_fail_verification() {
    let mut artifact = small_artifact();
    artifact.expected.apps[0].totals.carbon += simkit::units::Co2Grams::new(1.0);
    let report = verify(&artifact).expect("verify");
    assert!(!report.passed(), "tampered totals must fail");
    assert!(
        report.failures().iter().any(|c| c.label.contains("totals")),
        "{:#?}",
        report.failures()
    );
}

#[test]
fn truncated_expected_outcome_fails_verification() {
    let mut artifact = small_artifact();
    assert!(artifact.expected.apps.len() > 1, "multi-tenant day");
    // Drop the last tenant's outcome and keep the digest
    // self-consistent: every check that compares against what is
    // *left* still holds, so only a coverage check can object.
    let dropped = artifact.expected.apps.pop().expect("has tenants");
    artifact.expected.totals_digest = ecovisor::digest(&artifact.expected.apps);
    let report = verify(&artifact).expect("verify");
    let failed: Vec<&str> = report.failures().iter().map(|c| c.label.as_str()).collect();
    assert!(
        failed.contains(&"expected outcome covers every tenant, in id order"),
        "the structural check must name it: {failed:#?}"
    );
    // And the replay cells verify the dropped tenant instead of
    // skipping it.
    let per_tenant = format!("replay totals[{}]", dropped.name);
    assert!(failed.contains(&per_tenant.as_str()), "{failed:#?}");
    assert!(failed.contains(&"replay totals digest"));
}

#[test]
fn recording_is_deterministic() {
    let mut spec = corpus::builtin("budget-exhaustion").expect("builtin");
    spec.ticks = 10;
    let a = record(&spec).expect("record a");
    let b = record(&spec).expect("record b");
    assert_eq!(a, b, "same spec must record identical artifacts");
    // And the serialized forms are byte-identical in both encodings.
    assert_eq!(
        a.to_bytes(ecovisor::WireCodec::Json),
        b.to_bytes(ecovisor::WireCodec::Json)
    );
    assert_eq!(
        a.to_bytes(ecovisor::WireCodec::Binary),
        b.to_bytes(ecovisor::WireCodec::Binary)
    );
}

#[test]
fn checkpointed_recording_verifies_and_does_not_perturb_the_run() {
    let mut spec = corpus::builtin("mixed-tenants").expect("builtin");
    spec.ticks = 12;
    let plain = record(&spec).expect("record");
    let checkpointed =
        ecoharness::record_with_checkpoints(&spec, Some(4)).expect("record with checkpoints");
    // Captures at ticks 4 and 8 — never at the horizon (no remainder).
    assert_eq!(
        checkpointed
            .checkpoints
            .iter()
            .map(|c| c.tick)
            .collect::<Vec<_>>(),
        vec![4, 8]
    );
    // Capturing is invisible to the run itself.
    assert_eq!(plain.trace, checkpointed.trace);
    assert_eq!(plain.expected, checkpointed.expected);
    // And the verifier's restore-replays pass for every cell: the full
    // replay + 2 checkpoint restores.
    let report = verify(&checkpointed).expect("verify");
    assert!(report.passed(), "failures: {:#?}", report.failures());
    assert!(
        report
            .checks
            .iter()
            .filter(|c| c.label.starts_with("restore@"))
            .count()
            > report
                .checks
                .iter()
                .filter(|c| c.label.starts_with("replay "))
                .count(),
        "the checkpoint matrix should dominate the check list"
    );
}

#[test]
fn tampered_checkpoint_fails_verification() {
    let mut spec = corpus::builtin("mixed-tenants").expect("builtin");
    spec.ticks = 12;
    let mut artifact =
        ecoharness::record_with_checkpoints(&spec, Some(4)).expect("record with checkpoints");
    // Flip one byte of the embedded snapshot; the stored digest no
    // longer matches, so integrity (and restore) must go red.
    artifact.checkpoints[0].snapshot[10] ^= 0xFF;
    let report = verify(&artifact).expect("verify");
    assert!(!report.passed(), "tampered checkpoint must fail");
    assert!(
        report
            .failures()
            .iter()
            .any(|c| c.label.contains("checkpoint@4")),
        "{:#?}",
        report.failures()
    );
}

#[test]
fn resumed_recording_is_deterministic_and_verifies() {
    let mut spec = corpus::builtin("mixed-tenants").expect("builtin");
    spec.ticks = 12;
    let parent =
        ecoharness::record_with_checkpoints(&spec, Some(4)).expect("record with checkpoints");
    let a = ecoharness::resume(&parent, 8).expect("resume a");
    let b = ecoharness::resume(&parent, 8).expect("resume b");
    assert_eq!(a, b, "resume must be deterministic in (spec, base)");
    assert_eq!(a.spec.name, "mixed-tenants-resumed");
    assert_eq!(a.base.as_ref().map(|c| c.tick), Some(8));
    // The resumed trace starts at the base tick — nothing earlier.
    assert!(a.trace.entries.iter().all(|e| e.tick >= 8));
    assert!(a.trace.events.iter().all(|f| f.tick >= 8));
    // And it verifies: replay restores the base, then runs tick 8..12.
    let report = verify(&a).expect("verify");
    assert!(report.passed(), "failures: {:#?}", report.failures());
    // Resuming from a tick with no checkpoint is a spec error naming
    // what *is* available.
    let err = ecoharness::resume(&parent, 5).expect_err("no checkpoint at 5");
    assert!(err.to_string().contains("[4, 8]"), "{err}");
}

#[test]
fn every_builtin_records_and_verifies_when_shrunk() {
    for name in corpus::names() {
        let mut spec = corpus::builtin(name).expect("builtin");
        spec.ticks = spec.ticks.min(8);
        // Shrinking the horizon can strand mid-day choreography: drop
        // rotations and restore plans that now fall past the day.
        for cred in &mut spec.credentials {
            if cred.rotation.as_ref().is_some_and(|r| r.tick >= spec.ticks) {
                cred.rotation = None;
            }
        }
        if spec.restore.as_ref().is_some_and(|r| r.tick >= spec.ticks) {
            spec.restore = None;
        }
        if spec
            .migration
            .as_ref()
            .is_some_and(|m| m.tick >= spec.ticks)
        {
            spec.migration = None;
        }
        let artifact = record(&spec).unwrap_or_else(|e| panic!("record {name}: {e}"));
        let report = verify(&artifact).unwrap_or_else(|e| panic!("verify {name}: {e}"));
        assert!(report.passed(), "{name} failed: {:#?}", report.failures());
    }
}
