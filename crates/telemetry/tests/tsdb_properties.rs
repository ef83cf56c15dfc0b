//! Randomized property tests of the TSDB: query/window coherence,
//! integration linearity, and the at-rest form of the interned store
//! against the by-name map it replaced.
//!
//! Cases are generated from a fixed-seed [`SimRng`] stream (the offline
//! replacement for proptest), so failures are exactly reproducible.

use std::collections::BTreeMap;

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

/// What `Tsdb` was before it stored series densely under interned names,
/// and still is at rest: a map from key to series, serialized as a struct
/// with that one field.
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

/// Seeded record sequences written by name, and the same sequences kept
/// apart and then inserted whole in the order each series was first
/// written (as a capture names the series each tenant keeps), encode byte
/// for byte as the reference map does; decoding those bytes gives a store
/// that encodes to them again and answers the same queries.
#[test]
fn at_rest_form_is_the_reference_maps() {
    let mut rng = SimRng::from_seed(1001).fork("at_rest_form_is_the_reference_maps");
    for _ in 0..64 {
        let mut reference = Reference::default();
        let mut by_name = Tsdb::new();
        let mut kept: Vec<((&str, String), TimeSeries)> = Vec::new();
        for tick in 0..rng.uniform_u64(1, 30) {
            let at = SimTime::from_secs(tick * 60);
            for _ in 0..rng.uniform_u64(0, 12) {
                let (metric, subject) = arb_name(&mut rng);
                let value = rng.uniform(-5.0, 5.0);
                reference.record(metric, &subject, at, value);
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
        let bytes = serde::binary::to_bytes(&reference);
        assert_eq!(serde::binary::to_bytes(&by_name), bytes);
        assert_eq!(serde::binary::to_bytes(&assembled), bytes);
        assert_eq!(
            serde::json::to_string(&assembled),
            serde::json::to_string(&reference)
        );

        let decoded: Tsdb = serde::binary::from_bytes(&bytes).expect("own encoding decodes");
        assert_eq!(serde::binary::to_bytes(&decoded), bytes);
        assert_eq!(decoded.series_count(), reference.series.len());
        for (key, series) in &reference.series {
            assert_eq!(decoded.series(&key.metric, &key.subject), Some(series));
            assert_eq!(assembled.series(&key.metric, &key.subject), Some(series));
        }
        for metric in METRICS {
            let subjects: Vec<&str> = reference
                .series
                .keys()
                .filter(|k| k.metric == metric)
                .map(|k| k.subject.as_str())
                .collect();
            assert_eq!(assembled.subjects_of(metric), subjects);
        }
    }
}

/// `pairs` in the at-rest form, in the order given: what a writer that
/// did not sort its keys would send.
fn at_rest_bytes(pairs: &[(&SeriesKey, &TimeSeries)]) -> Vec<u8> {
    use serde::{binary, Serialize};
    let mut out = Vec::new();
    binary::write_map(&mut out, 1);
    binary::write_key(&mut out, "series");
    binary::write_seq(&mut out, pairs.len());
    for (key, series) in pairs {
        binary::write_seq(&mut out, 2);
        key.encode(&mut out);
        series.encode(&mut out);
    }
    out
}

/// The decode contract of the at-rest form: like the map it is named
/// after, pairs may arrive in any order and a repeated key keeps its last
/// series. Shuffled pairs with one key sent twice decode to the store the
/// sorted bytes do, whichever of the two copies comes later winning.
#[test]
fn shuffled_pairs_and_a_repeated_key_decode_as_the_map_would() {
    let mut rng = SimRng::from_seed(1001).fork("shuffled_pairs_and_a_repeated_key");
    let decode = |pairs: &[(&SeriesKey, &TimeSeries)]| -> Tsdb {
        serde::binary::from_bytes(&at_rest_bytes(pairs)).expect("pairs in any order decode")
    };
    for _ in 0..64 {
        let mut reference = Reference::default();
        for tick in 0..rng.uniform_u64(1, 10) {
            let at = SimTime::from_secs(tick * 60);
            for _ in 0..rng.uniform_u64(1, 12) {
                let (metric, subject) = arb_name(&mut rng);
                reference.record(metric, &subject, at, rng.uniform(-5.0, 5.0));
            }
        }
        let sorted = serde::binary::to_bytes(&reference);
        let mut pairs: Vec<(&SeriesKey, &TimeSeries)> = reference.series.iter().collect();
        assert_eq!(
            at_rest_bytes(&pairs),
            sorted,
            "the hand encoding is the map's"
        );
        for i in (1..pairs.len()).rev() {
            pairs.swap(i, rng.uniform_u64(0, i as u64 + 1) as usize);
        }
        let shuffled = decode(&pairs);
        assert_eq!(serde::binary::to_bytes(&shuffled), sorted);
        assert_eq!(shuffled.series_count(), reference.series.len());

        let pick = rng.uniform_u64(0, pairs.len() as u64) as usize;
        let (key, series) = pairs[pick];
        let stale: TimeSeries = [(SimTime::EPOCH, 1e6)].into_iter().collect();
        let mut earlier = pairs.clone();
        earlier.insert(rng.uniform_u64(0, pick as u64 + 1) as usize, (key, &stale));
        let kept = decode(&earlier);
        assert_eq!(
            serde::binary::to_bytes(&kept),
            sorted,
            "the later copy wins"
        );
        assert_eq!(kept.series(&key.metric, &key.subject), Some(series));

        let mut later = pairs.clone();
        let after = rng.uniform_u64(pick as u64 + 1, pairs.len() as u64 + 1) as usize;
        later.insert(after, (key, &stale));
        let overwritten = decode(&later);
        let mut expected = Reference {
            series: reference.series.clone(),
        };
        expected.series.insert(key.clone(), stale.clone());
        assert_eq!(
            serde::binary::to_bytes(&overwritten),
            serde::binary::to_bytes(&expected),
            "the later copy wins"
        );
        assert_eq!(overwritten.series_count(), reference.series.len());
    }
}

/// The decoder interns a metric once per run of pairs that name it; a
/// run that is broken and taken up again names the same metric. Pairs
/// `(m1, s1)`, `(m2, s1)`, `(m1, s2)`, with `(m1, s1)` sent again last,
/// decode to the store the sorted bytes decode to, the later copy winning.
#[test]
fn an_interrupted_metric_run_decodes_as_the_sorted_bytes_do() {
    let series = |first: f64| -> TimeSeries {
        [
            (SimTime::EPOCH, first),
            (SimTime::from_secs(60), first + 1.0),
        ]
        .into_iter()
        .collect()
    };
    let (m1s1, m2s1, m1s2) = (
        SeriesKey::new("m1", "s1"),
        SeriesKey::new("m2", "s1"),
        SeriesKey::new("m1", "s2"),
    );
    let mut reference = Reference::default();
    for (key, first) in [(&m1s1, 1.0), (&m2s1, 2.0), (&m1s2, 3.0)] {
        reference.series.insert(key.clone(), series(first));
    }
    let sorted = serde::binary::to_bytes(&reference);
    let stale = series(9.0);
    let interrupted = at_rest_bytes(&[
        (&m1s1, &stale),
        (&m2s1, &reference.series[&m2s1]),
        (&m1s2, &reference.series[&m1s2]),
        (&m1s1, &reference.series[&m1s1]),
    ]);
    let decoded: Tsdb = serde::binary::from_bytes(&interrupted).expect("pairs in any order");
    let mut from_sorted: Tsdb = serde::binary::from_bytes(&sorted).expect("own encoding");
    assert_eq!(serde::binary::to_bytes(&decoded), sorted);
    assert_eq!(format!("{decoded:?}"), format!("{from_sorted:?}"));
    assert_eq!(decoded.series_count(), 3);
    for (key, series) in &reference.series {
        assert_eq!(decoded.series(&key.metric, &key.subject), Some(series));
    }
    assert_eq!(decoded.subjects_of("m1"), ["s1", "s2"]);
    assert_eq!(decoded.subjects_of("m2"), ["s1"]);
    // Both stores go on naming alike: a new pair of old names, and a
    // write to an old series.
    let mut decoded = decoded;
    for db in [&mut decoded, &mut from_sorted] {
        db.record("m2", "s2", SimTime::EPOCH, 4.0);
        db.record("m1", "s2", SimTime::from_secs(120), 5.0);
    }
    assert_eq!(
        serde::binary::to_bytes(&decoded),
        serde::binary::to_bytes(&from_sorted)
    );
}
