//! Record → verify round trip, and the verifier's teeth.
//!
//! A verifier that cannot fail is decoration. These tests prove the
//! pipeline passes on faithful artifacts and — just as important —
//! *fails* on every kind of corruption it exists to catch: dropped
//! event frames, mutated request traffic, and tampered expectations.

use ecoharness::artifact::artifacts_in_dir;
use ecoharness::{
    build_ecovisor, record, verify, CarbonSpec, HarnessError, ScenarioArtifact, ScenarioSpec,
    SolarSpec,
};
use ecovisor::proto::EnergyRequest;
use energy_system::solar::SolarArrayBuilder;
use serde::{Deserialize, Serialize, Value};
use simkit::time::SimDuration;
use simkit::trace::Trace;
use simkit::units::Watts;

mod common;

/// A shrunk committed day: small enough for test time, eventful enough to
/// carry event frames worth corrupting.
fn small_artifact() -> ecoharness::ScenarioArtifact {
    let mut spec = common::spec("mixed-tenants");
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

/// Credentials and plans pick their tenant by name, so a repeated name
/// is ambiguous: the credentialed day below would record and replay in
/// process, then fail over the wire with the first tenant's token
/// handed to the second. `validate` refuses it up front, and refuses a
/// tenant credentialed twice.
#[test]
fn ambiguous_tenant_names_and_credentials_are_rejected() {
    let spec = common::spec("credential-churn");
    assert_eq!(spec.validate(), Ok(()));

    let mut renamed = spec.clone();
    renamed.tenants[1].name = spec.tenants[0].name.clone();
    renamed
        .credentials
        .retain(|c| c.tenant != spec.tenants[1].name);
    let err = renamed.validate().expect_err("duplicate tenant name");
    assert!(err.contains("duplicate tenant name"), "{err}");
    assert!(
        record(&renamed).is_err(),
        "an ambiguous day must not record"
    );

    let mut doubled = spec.clone();
    let mut second = doubled.credentials[2].clone();
    second.token = "another-token".into();
    doubled.credentials.push(second);
    let err = doubled.validate().expect_err("duplicate credential");
    assert!(err.contains("duplicate credential"), "{err}");
}

/// A trace as a file could carry it: `samples` and `step` are whatever
/// the bytes say, since a decoded trace never ran `Trace::from_samples`.
fn decoded_trace(samples: &[f64], step: SimDuration) -> Trace {
    let mut tree = Trace::constant(1.0).to_value();
    if let Value::Map(fields) = &mut tree {
        for (key, value) in fields {
            match key.as_str() {
                "samples" => {
                    *value = Value::Seq(samples.iter().map(|s| Value::Float(*s)).collect())
                }
                "step" => *value = step.to_value(),
                _ => {}
            }
        }
    }
    Trace::from_value(&tree).expect("the edited tree decodes")
}

/// `verify` builds an artifact's spec before any check runs, so a spec
/// from a file that the world cannot be built from must be refused as a
/// spec error naming the field — never a panic, which would make the
/// CLI exit 101 instead of 2.
#[test]
fn unbuildable_specs_are_refused_not_panicked_on() {
    fn array() -> SolarArrayBuilder {
        SolarArrayBuilder::new(120.0).days(2)
    }
    type Edit = fn(&mut ScenarioSpec);
    let cases: [(&str, Edit); 11] = [
        ("carbon", |s| {
            if let CarbonSpec::Region { days, .. } = &mut s.carbon {
                *days = 0;
            }
        }),
        ("carbon", |s| {
            s.carbon = CarbonSpec::Trace(decoded_trace(&[], SimDuration::from_minutes(5)))
        }),
        ("carbon", |s| {
            s.carbon = CarbonSpec::Trace(decoded_trace(&[50.0], SimDuration::ZERO))
        }),
        ("solar", |s| s.solar = SolarSpec::Array(array().days(0))),
        ("solar", |s| {
            s.solar = SolarSpec::Array(array().step(SimDuration::ZERO))
        }),
        ("solar", |s| {
            s.solar = SolarSpec::Trace(decoded_trace(&[], SimDuration::from_minutes(5)))
        }),
        ("solar", |s| {
            s.solar = SolarSpec::Trace(decoded_trace(&[50.0], SimDuration::ZERO))
        }),
        ("servers", |s| s.servers = 0),
        ("battery_capacity_wh", |s| {
            s.battery_capacity_wh = Some(-5.0)
        }),
        ("battery_capacity_wh", |s| {
            s.battery_capacity_wh = Some(f64::NAN)
        }),
        ("tick_minutes", |s| s.tick_minutes = u64::MAX / 2),
    ];
    let base = common::spec("sunny-batch");
    assert!(matches!(base.carbon, CarbonSpec::Region { .. }));
    for (i, (field, edit)) in cases.iter().enumerate() {
        let mut spec = base.clone();
        edit(&mut spec);
        let built = std::panic::catch_unwind(|| build_ecovisor(&spec).map(|_| ()));
        match built {
            Ok(Err(HarnessError::Spec(msg))) => {
                assert!(
                    msg.contains(field),
                    "case {i}: `{msg}` does not name {field}"
                )
            }
            Ok(other) => panic!("case {i} ({field}): built as {other:?}"),
            Err(_) => panic!("case {i} ({field}): panicked"),
        }
    }
}

#[test]
fn recording_is_deterministic() {
    let mut spec = common::spec("budget-exhaustion");
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
    let mut spec = common::spec("mixed-tenants");
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
    let mut spec = common::spec("mixed-tenants");
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
    let mut spec = common::spec("mixed-tenants");
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

/// Every committed day's spec, shrunk, records and verifies. A resumed
/// day is skipped: its spec is its parent's, renamed.
#[test]
fn every_builtin_records_and_verifies_when_shrunk() {
    for path in artifacts_in_dir(&common::corpus_dir()).expect("corpus directory exists") {
        let (day, _) = ScenarioArtifact::load(&path).expect("committed day");
        if day.base.is_some() {
            continue;
        }
        let name = day.spec.name.clone();
        let mut shrunk = day.spec;
        shrunk.ticks = shrunk.ticks.min(8);
        let day = shrunk.ticks;
        // A late clock: the second tick starts past 2^63 s, so a tick
        // window's midpoint must not be taken as `(from + to) / 2`.
        let mut late = shrunk.clone();
        late.ticks = 2;
        late.tick_minutes = u64::MAX / 120;
        for (case, mut spec, horizon) in [("shrunk", shrunk, day), ("late", late, 0)] {
            // Shrinking the horizon can strand mid-day choreography: drop
            // rotations and restore plans that now fall past it (on the
            // late clock, all of them).
            let past = |tick: u64| tick >= horizon;
            for cred in &mut spec.credentials {
                if cred.rotation.as_ref().is_some_and(|r| past(r.tick)) {
                    cred.rotation = None;
                }
            }
            if spec.restore.as_ref().is_some_and(|r| past(r.tick)) {
                spec.restore = None;
            }
            if spec.migration.as_ref().is_some_and(|m| past(m.tick)) {
                spec.migration = None;
            }
            let artifact = record(&spec).unwrap_or_else(|e| panic!("record {name} {case}: {e}"));
            let report = verify(&artifact).unwrap_or_else(|e| panic!("verify {name} {case}: {e}"));
            assert!(
                report.passed(),
                "{name} {case} failed: {:#?}",
                report.failures()
            );
        }
    }
}
