//! Randomized property tests of the carbon-intensity generator: bounds,
//! determinism, and percentile-threshold coherence across arbitrary
//! regions and seeds.
//!
//! Cases are generated from a fixed-seed [`SimRng`] stream (the offline
//! replacement for proptest), so failures are exactly reproducible.

use carbon_intel::generator::CarbonTraceBuilder;
use carbon_intel::regions::{RegionKind, RegionProfile};
use carbon_intel::threshold::percentile_threshold;
use simkit::rng::SimRng;
use simkit::time::{SimDuration, SimTime};

fn arb_region(rng: &mut SimRng) -> RegionProfile {
    match rng.uniform_u64(0, 3) {
        0 => RegionKind::Ontario.profile(),
        1 => RegionKind::California.profile(),
        _ => RegionKind::Uruguay.profile(),
    }
}

/// Generated intensity always respects the profile's floor/ceiling.
#[test]
fn intensity_within_profile_bounds() {
    let mut rng = SimRng::from_seed(3003).fork("intensity_within_profile_bounds");
    for _ in 0..64 {
        let profile = arb_region(&mut rng);
        let seed = rng.uniform_u64(0, 1000);
        let days = rng.uniform_u64(1, 5);
        let trace = CarbonTraceBuilder::new(profile.clone())
            .days(days)
            .seed(seed)
            .build();
        for &v in trace.samples() {
            assert!(v >= profile.floor - 1e-9, "{v} below floor");
            assert!(v <= profile.ceiling + 1e-9, "{v} above ceiling");
        }
    }
}

/// Generation is a pure function of (profile, days, seed).
#[test]
fn generation_is_deterministic() {
    let mut rng = SimRng::from_seed(3003).fork("generation_is_deterministic");
    for _ in 0..64 {
        let profile = arb_region(&mut rng);
        let seed = rng.uniform_u64(0, 1000);
        let a = CarbonTraceBuilder::new(profile.clone())
            .days(2)
            .seed(seed)
            .build();
        let b = CarbonTraceBuilder::new(profile).days(2).seed(seed).build();
        assert_eq!(a.samples(), b.samples());
    }
}

/// A percentile threshold splits the window as advertised: the fraction
/// of samples at/below the p-th percentile is ≈ p.
#[test]
fn threshold_splits_window() {
    let mut rng = SimRng::from_seed(3003).fork("threshold_splits_window");
    for _ in 0..64 {
        let profile = arb_region(&mut rng);
        let seed = rng.uniform_u64(0, 200);
        let p = rng.uniform(10.0, 90.0);
        let trace = CarbonTraceBuilder::new(profile).days(3).seed(seed).build();
        let window = SimDuration::from_hours(48);
        let step = SimDuration::from_minutes(5);
        let th = percentile_threshold(&trace, SimTime::EPOCH, window, step, p)
            .expect("non-empty window");
        let below =
            carbon_intel::threshold::fraction_below(&trace, SimTime::EPOCH, window, step, th);
        assert!(
            (below - p / 100.0).abs() < 0.05,
            "p={p}: fraction below was {below}"
        );
    }
}

/// The diurnal multiplier is bounded and wraps every 24 hours.
#[test]
fn diurnal_multiplier_is_bounded() {
    let mut rng = SimRng::from_seed(3003).fork("diurnal_multiplier_is_bounded");
    for _ in 0..64 {
        let profile = arb_region(&mut rng);
        let hour = rng.uniform(0.0, 24.0);
        let m = profile.diurnal_multiplier(hour);
        assert!((0.1..5.0).contains(&m), "multiplier {m} at hour {hour}");
        // Wrap coherence.
        let wrapped = profile.diurnal_multiplier(hour + 24.0);
        assert!((m - wrapped).abs() < 1e-9);
    }
}
