//! The live verifiers: recorded days replayed over one evented server
//! and across a two-node federation must be bit-indistinguishable from
//! in-process dispatch — and the checks must actually be able to fail.

use ecoharness::{
    record, verify_federated, verify_transport, HarnessError, ScenarioArtifact, VerifyReport,
};

mod common;

/// A live verifier's signature.
type Cell = fn(&ScenarioArtifact) -> Result<VerifyReport, HarnessError>;

/// Both live cells: one server, and two nodes joined by the federated
/// tick.
const CELLS: [Cell; 2] = [verify_transport, verify_federated];

/// A shrunk committed day: small enough for debug-build test time, eventful
/// enough (batteries, coalescing outbox, budget edge) to make the
/// pushed-frame comparison meaningful.
fn small_artifact() -> ecoharness::ScenarioArtifact {
    let mut spec = common::spec("mixed-tenants");
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
    for verify in CELLS {
        let report = verify(&artifact).expect("verify");
        assert!(report.passed(), "failures: {:#?}", report.failures());
        // A full cell ran: liveness + trace exhausted + totals per app +
        // totals digest + frames + frames digest + the leak gate, last.
        assert_eq!(report.checks.len(), artifact.spec.tenants.len() + 6);
        let last = report.checks.last().expect("checks").label.as_str();
        assert!(last.ends_with(" leak-free"), "{}: {last}", report.scenario);
    }
}

#[test]
fn tampered_totals_fail_over_the_wire() {
    let mut artifact = small_artifact();
    let outcome = artifact.expected.apps.first_mut().expect("has tenants");
    outcome.totals.grid_energy += simkit::units::WattHours::new(1.0);
    for verify in CELLS {
        let report = verify(&artifact).expect("verify");
        assert!(
            !report.passed(),
            "{}: tampered totals must fail",
            report.scenario
        );
        assert!(
            report.failures().iter().any(|c| c.label.contains("totals")),
            "the totals comparison specifically must catch it: {:#?}",
            report.failures()
        );
    }
}

#[test]
fn dropped_event_frame_fails_over_the_wire() {
    let mut artifact = small_artifact();
    let removed = artifact.trace.events.pop().expect("has frames");
    artifact.expected.event_count -= removed.events.len();
    artifact.expected.events_digest = ecovisor::digest(&artifact.trace.events);
    for verify in CELLS {
        let report = verify(&artifact).expect("verify");
        assert!(
            !report.passed(),
            "{}: dropped frame must fail",
            report.scenario
        );
        assert!(
            report
                .failures()
                .iter()
                .any(|c| c.label.contains("event frames")),
            "the frame comparison specifically must catch it: {:#?}",
            report.failures()
        );
    }
}

/// The committed days that carry adversarial plans: each cell runs the
/// plans it owns (credential rotations and the restore on one server,
/// the migration on two) and checks each step by name, on top of the
/// `tenants + 6` checks every live cell makes.
#[test]
fn planned_days_run_their_plans_in_both_cells() {
    let corpus = common::corpus_dir();
    let days = [
        ("credential-churn.scn.json", [15, 9]),
        ("restore-under-load.scn.bin", [10, 8]),
        ("split-brain.scn.json", [9, 10]),
    ];
    let mut labels = Vec::new();
    for (file, counts) in days {
        let (artifact, _) = ScenarioArtifact::load(&corpus.join(file)).expect("committed day");
        for (verify, count) in CELLS.into_iter().zip(counts) {
            let report = verify(&artifact).expect("verify");
            assert!(report.passed(), "{file}: {:#?}", report.failures());
            assert_eq!(report.checks.len(), count, "{}", report.scenario);
            let last = report.checks.last().expect("checks").label.as_str();
            assert!(last.ends_with(" leak-free"), "{}: {last}", report.scenario);
            labels.extend(report.checks.into_iter().map(|c| c.label));
        }
    }
    let mut plan_checks: Vec<&str> = labels
        .iter()
        .map(String::as_str)
        .filter(|l| l.contains('@'))
        .collect();
    plan_checks.sort_unstable();
    assert_eq!(
        plan_checks,
        [
            "federated migration@16 applied",
            "transport restore@12 accepted",
            "transport restore@12 tamper rejected",
            "transport rotation@10[app1] applied",
            "transport rotation@10[app1] drain",
            "transport rotation@10[app1] retired token rejected",
            "transport rotation@21[app2] applied",
            "transport rotation@21[app2] drain",
            "transport rotation@21[app2] retired token rejected",
        ]
    );
}

/// A scaled-down slice of the thousand-tenants scale day: the same
/// tenant shapes (chatty battery-cyclers among a muted crowd), with the
/// population truncated so a debug build drives sixty live connections
/// rather than a thousand.
#[test]
fn truncated_scale_day_verifies_over_the_wire() {
    let mut spec = common::spec("thousand-tenants");
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
