//! Randomized property tests of the TSDB: query/window coherence,
//! integration linearity, and the at-rest form of the handle store against
//! the by-name map it replaced.
//!
//! Cases are generated from a fixed-seed [`SimRng`] stream (the offline
//! replacement for proptest), so failures are exactly reproducible.

use std::collections::{BTreeMap, BTreeSet};

use power_telemetry::{SeriesKey, Tsdb};
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

/// What `Tsdb` was before it stored series behind handles, and still is
/// at rest: a map from key to series, serialized as a struct with that
/// one field.
#[derive(Default, serde::Serialize)]
struct Reference {
    series: BTreeMap<SeriesKey, TimeSeries>,
}

impl Reference {
    fn record(&mut self, metric: &str, subject: &str, at: SimTime, value: f64) {
        self.series
            .entry(SeriesKey::new(metric, subject))
            .or_default()
            .push(at, value);
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

/// Seeded record sequences written by name, and the same sequences
/// written through cached handles, encode byte for byte as the reference
/// map does; decoding those bytes gives a store that encodes to them
/// again and answers the same queries.
#[test]
fn at_rest_form_is_the_reference_maps() {
    let mut rng = SimRng::from_seed(1001).fork("at_rest_form_is_the_reference_maps");
    for _ in 0..64 {
        let mut reference = Reference::default();
        let mut by_name = Tsdb::new();
        let mut by_handle = Tsdb::new();
        let mut handles = BTreeMap::new();
        for tick in 0..rng.uniform_u64(1, 30) {
            let at = SimTime::from_secs(tick * 60);
            for _ in 0..rng.uniform_u64(0, 12) {
                let (metric, subject) = arb_name(&mut rng);
                let value = rng.uniform(-5.0, 5.0);
                reference.record(metric, &subject, at, value);
                by_name.record(metric, &subject, at, value);
                let id = *handles
                    .entry((metric, subject.clone()))
                    .or_insert_with(|| by_handle.series_id(metric, &subject));
                assert_eq!(
                    id,
                    by_handle.series_id(metric, &subject),
                    "handles are stable"
                );
                by_handle.append(id, at, value);
            }
        }
        let bytes = serde::binary::to_bytes(&reference);
        assert_eq!(serde::binary::to_bytes(&by_name), bytes);
        assert_eq!(serde::binary::to_bytes(&by_handle), bytes);
        assert_eq!(
            serde::json::to_string(&by_handle),
            serde::json::to_string(&reference)
        );

        let decoded: Tsdb = serde::binary::from_bytes(&bytes).expect("own encoding decodes");
        assert_eq!(serde::binary::to_bytes(&decoded), bytes);
        assert_eq!(decoded.series_count(), reference.series.len());
        for (key, series) in &reference.series {
            assert_eq!(decoded.series(&key.metric, &key.subject), Some(series));
            assert_eq!(by_handle.series(&key.metric, &key.subject), Some(series));
        }
        for metric in METRICS {
            let subjects: Vec<&str> = reference
                .series
                .keys()
                .filter(|k| k.metric == metric)
                .map(|k| k.subject.as_str())
                .collect();
            assert_eq!(by_handle.subjects_of(metric), subjects);
        }
    }
}

/// Extracting a set of subjects, removing them and merging them back
/// round-trips to the same bytes; what is left after the removal is the
/// reference minus those subjects, still writable by name; and a merge
/// that would overwrite a series is refused before anything moves.
#[test]
fn extract_remove_merge_round_trip() {
    let mut rng = SimRng::from_seed(1001).fork("extract_remove_merge_round_trip");
    for _ in 0..64 {
        let mut reference = Reference::default();
        let mut db = Tsdb::new();
        for tick in 0..10 {
            for _ in 0..rng.uniform_u64(1, 12) {
                let (metric, subject) = arb_name(&mut rng);
                let at = SimTime::from_secs(tick * 60);
                reference.record(metric, &subject, at, tick as f64);
                db.record(metric, &subject, at, tick as f64);
            }
        }
        let whole = serde::binary::to_bytes(&db);
        let moving: BTreeSet<String> = db
            .all_subjects()
            .into_iter()
            .filter(|_| rng.chance(0.4))
            .collect();

        let extracted = db.extract_subjects(&moving);
        assert_eq!(serde::binary::to_bytes(&db), whole, "extraction copies");
        assert_eq!(extracted.all_subjects(), moving);

        let collision = db.merge_from(extracted.clone());
        if moving.is_empty() {
            assert_eq!(collision, Ok(()));
        } else {
            let err = collision.expect_err("every extracted series is still here");
            assert!(err.contains("exists on both sides of the merge"), "{err}");
        }
        assert_eq!(serde::binary::to_bytes(&db), whole, "refused: unchanged");

        db.remove_subjects(&moving);
        reference.series.retain(|k, _| !moving.contains(&k.subject));
        assert_eq!(
            serde::binary::to_bytes(&db),
            serde::binary::to_bytes(&reference)
        );
        assert_eq!(db.series_count(), reference.series.len());
        let mut back = db.clone();
        back.merge_from(extracted).expect("disjoint now");
        assert_eq!(serde::binary::to_bytes(&back), whole, "the round trip");

        // Removal renumbered the handles; names still reach the series.
        let at = SimTime::from_secs(600);
        for key in reference.series.keys().cloned().collect::<Vec<_>>() {
            reference.record(&key.metric, &key.subject, at, 1.5);
            db.record(&key.metric, &key.subject, at, 1.5);
        }
        assert_eq!(
            serde::binary::to_bytes(&db),
            serde::binary::to_bytes(&reference)
        );
    }
}
