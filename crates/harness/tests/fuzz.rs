//! The fuzzer fuzzes itself: determinism of generation, the injected
//! bug the shrinker must find and minimize, tamper rejection on written
//! reproducers, and the soak day replayed live.

use ecoharness::fuzz::{
    self, check, generate, record_candidate, shrink, Fault, FuzzOptions, SoakOptions,
};
use ecoharness::{verify, CarbonSpec, ScenarioArtifact, SolarSpec};

const SEED: u64 = 0x5EED_F055;

#[test]
fn generation_is_deterministic_and_valid() {
    for index in 0..40 {
        let a = generate(SEED, index);
        let b = generate(SEED, index);
        assert_eq!(a, b, "candidate #{index} differs across calls");
        a.spec
            .validate()
            .unwrap_or_else(|e| panic!("candidate #{index} invalid: {e}"));
        if let Some(every) = a.checkpoint_every {
            assert!(every >= 2 && every < a.spec.ticks, "candidate #{index}");
        }
        if let Some(plan) = a.spec.restore {
            let every = a
                .checkpoint_every
                .expect("restore plans require a checkpoint cadence");
            assert!(plan.tick.is_multiple_of(every), "candidate #{index}");
        }
    }
    // Different seeds draw different worlds.
    assert_ne!(generate(SEED, 0).spec, generate(SEED ^ 1, 0).spec);
}

#[test]
fn generation_covers_the_adversarial_corners() {
    let candidates: Vec<_> = (0..60).map(|i| generate(SEED, i)).collect();
    assert!(
        candidates.iter().any(|c| !c.spec.credentials.is_empty()),
        "no credentialed candidate in 60 draws"
    );
    assert!(
        candidates
            .iter()
            .any(|c| c.spec.credentials.iter().any(|cr| cr.rotation.is_some())),
        "no mid-day rotation in 60 draws"
    );
    assert!(
        candidates.iter().any(|c| c.checkpoint_every.is_some()),
        "no checkpointed candidate in 60 draws"
    );
    assert!(
        candidates.iter().any(|c| c.spec.restore.is_some()),
        "no restore plan in 60 draws"
    );
    assert!(
        candidates
            .iter()
            .any(|c| c.spec.battery_capacity_wh.is_some()),
        "no custom battery bank in 60 draws"
    );
    assert!(
        candidates
            .iter()
            .any(|c| c.spec.tenants.iter().any(|t| t.outbox_cap.is_some())),
        "no bounded outbox in 60 draws"
    );
}

#[test]
fn healthy_tree_survives_a_small_campaign() {
    let opts = FuzzOptions {
        seed: SEED,
        count: 8,
        out: None,
        ..Default::default()
    };
    let report = fuzz::run(&opts, None).expect("campaign runs");
    assert!(report.passed(), "failures: {:?}", report.failures);
    assert_eq!(report.passed, 8);
}

#[test]
fn transport_cells_hold_for_an_adversarial_candidate() {
    // Pick the first candidate carrying credentials (rotation/restore
    // when the draw provides them) and run it over the live transport.
    let candidate = (0..60)
        .map(|i| generate(SEED, i))
        .find(|c| !c.spec.credentials.is_empty())
        .expect("a credentialed candidate exists in 60 draws");
    assert_eq!(
        check(&candidate, None).expect("checkable"),
        None,
        "adversarial candidate failed the live transport"
    );
}

/// The injected determinism bug of the acceptance test: corrupt the
/// recorded totals digest of any multi-tenant day at least six ticks
/// long.
const INJECTED: Fault = Fault {
    name: "totals-digest-flip",
    matches: |spec| spec.tenants.len() >= 2 && spec.ticks >= 6,
    perturb: |artifact| artifact.expected.totals_digest ^= 1,
};

#[test]
fn injected_bug_is_found_and_shrunk_to_the_minimal_spec() {
    let index = (0..200)
        .find(|&i| {
            let c = generate(SEED, i);
            (INJECTED.matches)(&c.spec)
        })
        .expect("a matching candidate exists");
    let candidate = generate(SEED, index);
    let detail = check(&candidate, Some(&INJECTED))
        .expect("checkable")
        .expect("the injected bug must be caught");
    assert!(
        detail.contains("totals digest"),
        "unexpected detail: {detail}"
    );

    let outcome = shrink(&candidate, detail, Some(&INJECTED), 300).expect("shrinkable");
    let min = &outcome.candidate.spec;
    // The fault predicate's exact boundary: one fewer tenant or tick
    // and the bug no longer fires, so the shrinker must stop here.
    assert_eq!(min.tenants.len(), 2, "minimized: {min:?}");
    assert_eq!(min.ticks, 6, "minimized: {min:?}");
    // Everything orthogonal to the predicate shrinks away entirely.
    assert_eq!(
        min.carbon,
        CarbonSpec::Constant {
            grams_per_kwh: 200.0
        }
    );
    assert_eq!(min.solar, SolarSpec::None);
    assert_eq!(min.battery_capacity_wh, None);
    assert!(min.credentials.is_empty());
    assert_eq!(min.restore, None);
    assert_eq!(outcome.candidate.checkpoint_every, None);
    assert!(outcome.steps > 0);
    assert!(outcome.checks <= 300);
}

#[test]
fn campaign_writes_a_replayable_reproducer_for_the_injected_bug() {
    let index = (0..200)
        .find(|&i| (INJECTED.matches)(&generate(SEED, i).spec))
        .expect("a matching candidate exists");
    let dir = std::env::temp_dir().join(format!("ecoharness-fuzz-{SEED:x}-{index}"));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = FuzzOptions {
        seed: SEED,
        count: index + 1,
        out: Some(dir.clone()),
        max_shrink_checks: 300,
    };
    let report = fuzz::run(&opts, Some(&INJECTED)).expect("campaign runs");
    assert!(!report.passed(), "the injected bug must surface");
    let failure = &report.failures[0];
    assert_eq!(failure.index, index);
    let path = failure.artifact.as_ref().expect("reproducer written");

    // The written reproducer is a normal artifact that fails standalone
    // verification — any build can replay the bug from the file alone.
    let (artifact, _) = ScenarioArtifact::load(path).expect("reproducer loads");
    assert_eq!(artifact.spec.name, format!("{}-min", failure.scenario));
    let replay = verify(&artifact).expect("verifiable");
    assert!(!replay.passed(), "reproducer must still fail verification");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tampered_reproducers_are_rejected_by_verification() {
    let candidate = generate(SEED, 0);
    let clean = record_candidate(&candidate, None).expect("recordable");
    assert!(verify(&clean).expect("verifiable").passed());

    let mut tampered = clean.clone();
    tampered.expected.totals_digest ^= 1;
    let report = verify(&tampered).expect("verifiable");
    assert!(!report.passed(), "flipped totals digest must be caught");

    let mut tampered = clean.clone();
    tampered.expected.events_digest ^= 1;
    let report = verify(&tampered).expect("verifiable");
    assert!(!report.passed(), "flipped events digest must be caught");

    let mut tampered = clean.clone();
    tampered.expected.apps[0].totals.grid_energy =
        simkit::units::WattHours::new(tampered.expected.apps[0].totals.grid_energy.value() + 1.0);
    let report = verify(&tampered).expect("verifiable");
    assert!(!report.passed(), "perturbed totals must be caught");
}

#[test]
fn soak_day_returns_every_counter_to_baseline() {
    let report = fuzz::soak(&SoakOptions {
        seed: SEED,
        ticks: 200,
        tenants: 3,
    })
    .expect("soak runs");
    let verify = &report.verify;
    // The day replays bit-identically through two rotations and ends
    // with the server's counters back at zero.
    assert!(verify.passed(), "failures: {:#?}", verify.failures());
    assert!(report.frames > 0, "soak generated no event frames");
    // One launch, then three scripted writes a tenant a tick.
    assert_eq!(report.requests, 3 * (1 + 3 * 200));
    // Tenant `i` rotates at tick 97 (i + 1): the third falls past the day.
    let labels: Vec<&str> = verify.checks.iter().map(|c| c.label.as_str()).collect();
    for rotated in ["rotation@97[app1]", "rotation@194[app2]"] {
        for step in ["drain", "applied", "retired token rejected"] {
            let label = format!("transport {rotated} {step}");
            assert!(labels.contains(&label.as_str()), "missing `{label}`");
        }
    }
    assert!(!labels.iter().any(|l| l.contains("[app3]")), "{labels:?}");
    assert_eq!(labels.last(), Some(&"transport leak-free"));
    assert_eq!(verify.checks.len(), 3 + 6 + 2 * 3);
}

#[test]
fn soak_day_admits_more_tenants_than_the_prototype_bank_holds() {
    // 5 Wh a tenant: the 1,440 Wh prototype bank holds 288 shares, so
    // the soak world must size its bank to the tenant count.
    let tenants = 300;
    let report = fuzz::soak(&SoakOptions {
        seed: SEED,
        ticks: 4,
        tenants,
    })
    .expect("soak runs");
    let verify = &report.verify;
    assert!(verify.passed(), "failures: {:#?}", verify.failures());
    assert_eq!(verify.checks.len(), tenants + 6);
}
