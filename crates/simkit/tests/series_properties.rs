//! `TimeSeries` against the layout it replaced.
//!
//! The series keeps its time axis as runs of equal spacing; before, it
//! kept a `Vec` of `(time, value)` samples and answered every query by
//! searching or walking that. The old layout is the reference here: over
//! seeded regular, irregular, bursty and overwritten series and seeded
//! windows, every query answers the same to the bit — `integrate_step`
//! included, which now starts at the window instead of at sample 0 — and
//! the series still serializes to the bytes the derived
//! `{samples: [{at, value}, …]}` form has.

use serde::{Deserialize, Serialize};
use simkit::rng::SimRng;
use simkit::series::{Sample, TimeSeries};
use simkit::time::SimTime;

/// The previous implementation, query for query.
#[derive(Default)]
struct Reference {
    samples: Vec<(SimTime, f64)>,
}

impl Reference {
    fn push(&mut self, at: SimTime, value: f64) {
        if let Some(last) = self.samples.last_mut() {
            assert!(at >= last.0, "the generators only move forward");
            if at == last.0 {
                last.1 = value;
                return;
            }
        }
        self.samples.push((at, value));
    }

    fn value_at(&self, at: SimTime) -> Option<f64> {
        match self.samples.binary_search_by(|s| s.0.cmp(&at)) {
            Ok(idx) => Some(self.samples[idx].1),
            Err(0) => None,
            Err(idx) => Some(self.samples[idx - 1].1),
        }
    }

    fn window(&self, from: SimTime, to: SimTime) -> &[(SimTime, f64)] {
        let lo = self.samples.partition_point(|s| s.0 < from);
        let hi = self.samples.partition_point(|s| s.0 < to);
        &self.samples[lo..hi.max(lo)]
    }

    fn integrate_step(&self, from: SimTime, to: SimTime) -> f64 {
        if self.samples.is_empty() || to <= from {
            return 0.0;
        }
        let mut total = 0.0;
        for (i, &(seg_start, value)) in self.samples.iter().enumerate() {
            let seg_end = self
                .samples
                .get(i + 1)
                .map(|n| n.0)
                .unwrap_or(to.max(seg_start));
            let clip_start = seg_start.max(from);
            let clip_end = seg_end.min(to);
            if clip_end > clip_start {
                total += value * (clip_end - clip_start).as_secs_f64();
            }
        }
        total
    }

    /// What the series serialized as when it *was* this.
    fn derived(&self) -> Derived {
        Derived {
            samples: self
                .samples
                .iter()
                .map(|&(at, value)| Sample { at, value })
                .collect(),
        }
    }
}

#[derive(Serialize, Deserialize)]
struct Derived {
    samples: Vec<Sample>,
}

/// Timestamps of one seeded series, by kind. All kinds repeat some
/// timestamps (an overwrite) when `overwrites` is set.
fn timestamps(rng: &mut SimRng, kind: u64, overwrites: bool) -> Vec<u64> {
    let len = rng.uniform_u64(0, 200);
    let mut at = rng.uniform_u64(0, 100_000);
    let step = rng.uniform_u64(1, 900);
    let mut out = Vec::new();
    for _ in 0..len {
        out.push(at);
        if overwrites && rng.chance(0.1) {
            out.push(at);
        }
        at += match kind {
            // Every tick, as `record_telemetry` writes.
            0 => step,
            // No two gaps alike.
            1 => rng.uniform_u64(1, 2_000),
            // A cadence with holes in it (a suspended container) and the
            // odd late sample.
            2 if rng.chance(0.1) => step * rng.uniform_u64(2, 20),
            2 if rng.chance(0.05) => step + 1,
            2 => step,
            // Two cadences alternating: no run longer than two samples.
            _ => step * (1 + out.len() as u64 % 2),
        };
    }
    out
}

fn build(times: &[u64], rng: &mut SimRng) -> (TimeSeries, Reference) {
    let (mut series, mut reference) = (TimeSeries::new(), Reference::default());
    for &t in times {
        let value = rng.normal(100.0, 50.0);
        series.push(SimTime::from_secs(t), value);
        reference.push(SimTime::from_secs(t), value);
    }
    (series, reference)
}

fn bits(v: Option<f64>) -> Option<u64> {
    v.map(f64::to_bits)
}

/// An instant around the series: before it, after it, on a sample, one
/// second off a sample, or anywhere.
fn instant(rng: &mut SimRng, reference: &Reference) -> SimTime {
    let (first, last) = match (reference.samples.first(), reference.samples.last()) {
        (Some(f), Some(l)) => (f.0.as_secs(), l.0.as_secs()),
        _ => (0, 0),
    };
    let on_a_sample = |rng: &mut SimRng| match reference.samples.len() {
        0 => 0,
        n => reference.samples[rng.uniform_u64(0, n as u64) as usize]
            .0
            .as_secs(),
    };
    SimTime::from_secs(match rng.uniform_u64(0, 6) {
        0 => first.saturating_sub(rng.uniform_u64(0, 1_000)),
        1 => last.saturating_add(rng.uniform_u64(0, 1_000)),
        2 => on_a_sample(rng),
        3 => on_a_sample(rng).saturating_add(1),
        4 => on_a_sample(rng).saturating_sub(1),
        _ => rng.uniform_u64(first, last.saturating_add(2)),
    })
}

fn check_queries(series: &TimeSeries, reference: &Reference, rng: &mut SimRng) {
    assert_eq!(series.len(), reference.samples.len());
    assert_eq!(series.is_empty(), reference.samples.is_empty());
    let pairs: Vec<(SimTime, u64)> = series.iter().map(|(t, v)| (t, v.to_bits())).collect();
    let expect: Vec<(SimTime, u64)> = reference
        .samples
        .iter()
        .map(|&(t, v)| (t, v.to_bits()))
        .collect();
    assert_eq!(pairs, expect);
    assert_eq!(series.samples().len(), reference.samples.len());
    assert_eq!(
        series.last().map(|s| (s.at, s.value.to_bits())),
        expect.last().copied()
    );
    for _ in 0..40 {
        let (from, to) = (instant(rng, reference), instant(rng, reference));
        assert_eq!(
            bits(series.value_at(from)),
            bits(reference.value_at(from)),
            "value_at {from}"
        );
        let window = reference.window(from, to);
        let got: Vec<(SimTime, u64)> = series
            .window(from, to)
            .map(|s| (s.at, s.value.to_bits()))
            .collect();
        let want: Vec<(SimTime, u64)> = window.iter().map(|&(t, v)| (t, v.to_bits())).collect();
        assert_eq!(got, want, "window [{from}, {to})");
        let sum: f64 = window.iter().map(|s| s.1).sum();
        assert_eq!(series.sum_over(from, to).to_bits(), sum.to_bits());
        let mean = (!window.is_empty()).then(|| sum / window.len() as f64);
        assert_eq!(bits(series.mean_over(from, to)), bits(mean));
        let max = window.iter().map(|s| s.1).reduce(f64::max);
        assert_eq!(bits(series.max_over(from, to)), bits(max));
        assert_eq!(series.values_over(from, to).len(), window.len());
        assert_eq!(
            series.integrate_step(from, to).to_bits(),
            reference.integrate_step(from, to).to_bits(),
            "integrate_step [{from}, {to})"
        );
    }
}

fn check_encoding(series: &TimeSeries, reference: &Reference) {
    let derived = reference.derived();
    let bytes = serde::binary::to_bytes(series);
    assert_eq!(bytes, serde::binary::to_bytes(&derived));
    assert_eq!(
        serde::json::to_string(series),
        serde::json::to_string(&derived)
    );
    // Either syntax rebuilds the same series, runs and all.
    let streamed: TimeSeries = serde::binary::from_bytes(&bytes).expect("own encoding");
    let text: TimeSeries =
        serde::json::from_str(&serde::json::to_string(series)).expect("own encoding");
    assert_eq!(&streamed, series);
    assert_eq!(&text, series);
}

#[test]
fn every_query_and_the_encoding_match_the_sample_vector() {
    let root = SimRng::from_seed(17);
    for case in 0..400 {
        let mut rng = root.fork_indexed("series", case);
        let times = timestamps(&mut rng, case % 4, case % 8 >= 4);
        let (series, reference) = build(&times, &mut rng);
        check_queries(&series, &reference, &mut rng);
        check_encoding(&series, &reference);
    }
}

#[test]
fn timestamps_at_the_edge_of_the_clock_neither_overflow_nor_misplace() {
    // `start + k·step` must never be computed past u64::MAX — these come
    // from `decode`, so from outside the program.
    let edge = [0, u64::MAX / 2 + 1, u64::MAX - 1, u64::MAX];
    let (mut series, mut reference) = (TimeSeries::new(), Reference::default());
    for (i, &t) in edge.iter().enumerate() {
        series
            .try_push(SimTime::from_secs(t), i as f64)
            .expect("ascending");
        reference.push(SimTime::from_secs(t), i as f64);
    }
    let mut rng = SimRng::from_seed(3);
    check_queries(&series, &reference, &mut rng);
    check_encoding(&series, &reference);
    for &t in &edge {
        let at = SimTime::from_secs(t);
        assert_eq!(bits(series.value_at(at)), bits(reference.value_at(at)));
    }
}

#[test]
fn decode_refuses_what_push_would_panic_on() {
    // In either syntax.
    let both = |times: &[u64]| {
        let written = Derived {
            samples: times
                .iter()
                .map(|&t| Sample {
                    at: SimTime::from_secs(t),
                    value: t as f64,
                })
                .collect(),
        };
        let streamed = serde::binary::from_bytes::<TimeSeries>(&serde::binary::to_bytes(&written));
        let text = serde::json::from_str::<TimeSeries>(&serde::json::to_string(&written));
        assert_eq!(streamed, text);
        streamed
    };
    assert_eq!(both(&[0, 60, 120]).expect("ordered").len(), 3);
    // A repeated timestamp is an overwrite, as it is for `push`.
    assert_eq!(both(&[0, 60, 60]).expect("overwrite").len(), 2);
    // Going back in time is an error value, in either position.
    assert!(both(&[0, 60, 59]).is_err());
    assert!(both(&[60, 0]).is_err());
}
