//! Randomized property tests of the TSDB: query/window coherence,
//! integration linearity, and name lookups against a by-name map.
//!
//! Cases are generated from a fixed-seed [`SimRng`] stream (the offline
//! replacement for proptest), so failures are exactly reproducible.

use std::collections::BTreeMap;

use power_telemetry::Tsdb;
use simkit::rng::SimRng;
use simkit::series::TimeSeries;
use simkit::time::SimTime;

fn arb_series(rng: &mut SimRng) -> Vec<(u64, f64)> {
    let len = rng.uniform_u64(1, 80) as usize;
    (0..len)
        .map(|i| (i as u64 * 60, rng.uniform(-100.0, 100.0)))
        .collect()
}

fn db_from(samples: &[(u64, f64)]) -> Tsdb {
    let mut db = Tsdb::new();
    for (secs, v) in samples {
        db.record("m", "s", SimTime::from_secs(*secs), *v);
    }
    db
}

/// The mean over the full window equals the arithmetic mean of all
/// samples, and sub-window sums add up to the full-window sum.
#[test]
fn windows_compose() {
    let mut rng = SimRng::from_seed(1001).fork("windows_compose");
    for _ in 0..128 {
        let samples = arb_series(&mut rng);
        let split = rng.uniform_u64(0, 80) as usize;
        let db = db_from(&samples);
        let end = SimTime::from_secs(samples.len() as u64 * 60);
        let expected_mean = samples.iter().map(|(_, v)| v).sum::<f64>() / samples.len() as f64;
        let mean = db.mean("m", "s", SimTime::EPOCH, end).expect("non-empty");
        assert!((mean - expected_mean).abs() < 1e-9);

        let mid = SimTime::from_secs((split.min(samples.len()) as u64) * 60);
        let left = db.sum("m", "s", SimTime::EPOCH, mid).unwrap_or(0.0);
        let right = db.sum("m", "s", mid, end).unwrap_or(0.0);
        let total = db.sum("m", "s", SimTime::EPOCH, end).expect("non-empty");
        assert!((left + right - total).abs() < 1e-9);
    }
}

/// Step integration is additive over adjacent windows.
#[test]
fn integration_is_additive() {
    let mut rng = SimRng::from_seed(1001).fork("integration_is_additive");
    for _ in 0..128 {
        let samples = arb_series(&mut rng);
        let split = rng.uniform_u64(1, 79) as usize;
        let db = db_from(&samples);
        let end = SimTime::from_secs(samples.len() as u64 * 60);
        let mid = SimTime::from_secs((split.min(samples.len()) as u64) * 60);
        let whole = db.integrate("m", "s", SimTime::EPOCH, end);
        let parts = db.integrate("m", "s", SimTime::EPOCH, mid) + db.integrate("m", "s", mid, end);
        assert!((whole - parts).abs() < 1e-6, "{whole} vs {parts}");
    }
}

/// `value_at` returns the most recent sample at or before the query
/// instant (step semantics).
#[test]
fn value_at_is_step() {
    let mut rng = SimRng::from_seed(1001).fork("value_at_is_step");
    for _ in 0..128 {
        let samples = arb_series(&mut rng);
        let probe = rng.uniform_u64(0, 80 * 60);
        let db = db_from(&samples);
        let expected = samples
            .iter()
            .rev()
            .find(|(secs, _)| *secs <= probe)
            .map(|(_, v)| *v);
        assert_eq!(db.value_at("m", "s", SimTime::from_secs(probe)), expected);
    }
}

/// Percentiles over the window are bounded by the window's min/max.
#[test]
fn percentile_bounded() {
    let mut rng = SimRng::from_seed(1001).fork("percentile_bounded");
    for _ in 0..128 {
        let samples = arb_series(&mut rng);
        let p = rng.uniform(0.0, 100.0);
        let db = db_from(&samples);
        let end = SimTime::from_secs(samples.len() as u64 * 60);
        let q = db
            .percentile("m", "s", SimTime::EPOCH, end, p)
            .expect("non-empty");
        let lo = samples.iter().map(|(_, v)| *v).fold(f64::MAX, f64::min);
        let hi = samples.iter().map(|(_, v)| *v).fold(f64::MIN, f64::max);
        assert!(q >= lo - 1e-12 && q <= hi + 1e-12);
    }
}

const METRICS: [&str; 4] = ["power_w", "carbon_g_per_s", "soc", "b"];

fn arb_name(rng: &mut SimRng) -> (&'static str, String) {
    // Subjects whose string order differs from their numeric order
    // ("c10" < "c2"), created in random order.
    let metric = METRICS[rng.uniform_u64(0, METRICS.len() as u64) as usize];
    let kind = ["app", "c", ""][rng.uniform_u64(0, 3) as usize];
    (metric, format!("{kind}{}", rng.uniform_u64(0, 24)))
}

/// Seeded record sequences written by name, and the same sequences kept
/// apart and then inserted whole in the order each series was first
/// written (as `Ecovisor::telemetry` assembles its view), resolve every
/// name to the series a by-name map holds, list each metric's subjects
/// and walk every series in that map's string order.
#[test]
fn lookups_are_the_reference_maps() {
    let mut rng = SimRng::from_seed(1001).fork("lookups_are_the_reference_maps");
    for _ in 0..64 {
        let mut reference: BTreeMap<(&str, String), TimeSeries> = BTreeMap::new();
        let mut by_name = Tsdb::new();
        let mut kept: Vec<((&str, String), TimeSeries)> = Vec::new();
        for tick in 0..rng.uniform_u64(1, 30) {
            let at = SimTime::from_secs(tick * 60);
            for _ in 0..rng.uniform_u64(0, 12) {
                let (metric, subject) = arb_name(&mut rng);
                let value = rng.uniform(-5.0, 5.0);
                reference
                    .entry((metric, subject.clone()))
                    .or_default()
                    .push(at, value);
                by_name.record(metric, &subject, at, value);
                let name = (metric, subject);
                match kept.iter_mut().find(|(kept, _)| *kept == name) {
                    Some((_, series)) => series.push(at, value),
                    None => kept.push((name, [(at, value)].into_iter().collect())),
                }
            }
        }
        let mut assembled = Tsdb::new();
        for ((metric, subject), series) in kept {
            assembled.insert(metric, &subject, series);
        }
        let walk: Vec<(&str, &str, &TimeSeries)> = reference
            .iter()
            .map(|((metric, subject), series)| (*metric, subject.as_str(), series))
            .collect();
        for db in [&by_name, &assembled] {
            assert_eq!(db.series_count(), reference.len());
            for ((metric, subject), series) in &reference {
                assert_eq!(db.series(metric, subject), Some(series));
            }
            for metric in METRICS {
                let subjects: Vec<&str> = reference
                    .keys()
                    .filter(|(of, _)| *of == metric)
                    .map(|(_, subject)| subject.as_str())
                    .collect();
                assert_eq!(db.subjects_of(metric), subjects);
            }
            assert_eq!(db.iter().collect::<Vec<_>>(), walk);
        }
    }
}
