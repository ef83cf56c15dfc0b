//! The transport verifier: recorded days replayed over the live
//! evented server must be bit-indistinguishable from in-process
//! dispatch — and the check must actually be able to fail.

use ecoharness::{corpus, record, verify_transport};

/// A shrunk builtin: small enough for debug-build test time, eventful
/// enough (batteries, coalescing outbox, budget edge) to make the
/// pushed-frame comparison meaningful.
fn small_artifact() -> ecoharness::ScenarioArtifact {
    let mut spec = corpus::builtin("mixed-tenants").expect("builtin");
    spec.ticks = 12;
    record(&spec).expect("record")
}

#[test]
fn faithful_artifact_verifies_over_the_wire() {
    let artifact = small_artifact();
    assert!(
        !artifact.trace.events.is_empty(),
        "day generated event frames"
    );
    let report = verify_transport(&artifact).expect("verify");
    assert!(report.passed(), "failures: {:#?}", report.failures());
    // A full cell ran: liveness + trace exhausted + totals per app +
    // totals digest + frames + frames digest.
    assert_eq!(report.checks.len(), artifact.spec.tenants.len() + 5);
}

#[test]
fn tampered_totals_fail_over_the_wire() {
    let mut artifact = small_artifact();
    let outcome = artifact.expected.apps.first_mut().expect("has tenants");
    outcome.totals.grid_energy += simkit::units::WattHours::new(1.0);
    let report = verify_transport(&artifact).expect("verify");
    assert!(!report.passed(), "tampered totals must fail");
    assert!(
        report.failures().iter().any(|c| c.label.contains("totals")),
        "the totals comparison specifically must catch it: {:#?}",
        report.failures()
    );
}

#[test]
fn dropped_event_frame_fails_over_the_wire() {
    let mut artifact = small_artifact();
    let removed = artifact.trace.events.pop().expect("has frames");
    artifact.expected.event_count -= removed.events.len();
    artifact.expected.events_digest = ecovisor::digest(&artifact.trace.events);
    let report = verify_transport(&artifact).expect("verify");
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

/// A scaled-down slice of the thousand-tenants scale day: the same
/// tenant shapes (chatty battery-cyclers among a muted crowd), with the
/// population truncated so a debug build drives sixty live connections
/// rather than a thousand.
#[test]
fn truncated_scale_day_verifies_over_the_wire() {
    let mut spec = corpus::builtin("thousand-tenants").expect("builtin");
    spec.tenants.truncate(60);
    spec.servers = 60;
    spec.ticks = 6;
    let artifact = record(&spec).expect("record");
    assert!(
        !artifact.trace.events.is_empty(),
        "the chatty cohort generated event frames"
    );
    let report = verify_transport(&artifact).expect("verify");
    assert!(report.passed(), "failures: {:#?}", report.failures());
}
