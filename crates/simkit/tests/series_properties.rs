//! `TimeSeries` against the layout it replaced.
//!
//! The series keeps its time axis as runs of equal spacing and its values
//! as entries that stand for one sample or for a stretch of equal ones;
//! before, it kept a `Vec` of `(time, value)` samples and answered every
//! query by searching or walking that. The old layout is the reference
//! here: over seeded regular, irregular, bursty and overwritten time axes,
//! values that move, repeat, alternate and stand still, and seeded
//! windows, every query answers the same to the bit — `integrate_step`
//! included, which now starts at the window instead of at sample 0 — and
//! the series still serializes to the bytes the derived
//! `{samples: [{at, value}, …]}` form has. What the new layout is *for* is
//! held too: a series that says nothing retains next to nothing, and one
//! that never repeats retains what it did.

use serde::{Deserialize, Serialize};
use simkit::rng::SimRng;
use simkit::series::{Sample, TimeSeries};
use simkit::stats::{percentile, Summary};
use simkit::time::SimTime;

#[path = "../../../vendor/serde/tests/common/counting_alloc.rs"]
mod counting_alloc;

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

/// Kinds of value sequence [`values`] knows.
const VALUE_KINDS: u64 = 9;

/// The series' own threshold: this many equal samples in a row are one
/// entry, one fewer are that many entries.
const STRETCH: usize = 8;

/// `len` values of one seeded sequence, by kind. Equality in the series is
/// equality of bits, so the kinds that repeat do so to the bit, and two of
/// them repeat things `==` gets wrong.
fn values(rng: &mut SimRng, kind: u64, len: usize) -> Vec<f64> {
    let noise = |rng: &mut SimRng| rng.normal(100.0, 50.0);
    // Two quiet NaNs that differ in payload alone.
    let nans = [f64::NAN, f64::from_bits(f64::NAN.to_bits() | 1)];
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        match kind {
            // No two alike.
            0 => out.push(noise(rng)),
            // One value, however long.
            1 => out.push(42.5),
            // Runs one short of a stretch, exactly one and one over, a
            // different value each: the first stays entries, the others
            // collapse.
            2 => {
                let value = noise(rng);
                let run = STRETCH - 1 + out.len() % 3;
                out.extend(std::iter::repeat_n(value, run));
            }
            // a-b-a-b: equal values, never consecutive.
            3 => out.push([7.0, 9.0][out.len() % 2]),
            // Equal to `==`, different bits.
            4 => out.push(if rng.chance(0.5) { 0.0 } else { -0.0 }),
            // Unequal to `==`, and to each other's bits.
            5 => out.push(nans[usize::from(rng.chance(0.3))]),
            // A long constant, then noise (and back).
            6 => {
                let quiet = rng.uniform_u64(3, 60) as usize;
                out.extend(std::iter::repeat_n(0.0, quiet));
                for _ in 0..rng.uniform_u64(1, 10) {
                    out.push(noise(rng));
                }
            }
            // A few levels held for a while each, so that an overwrite
            // lands in, next to and between stretches.
            7 => {
                let value = rng.uniform_u64(0, 3) as f64;
                let held = rng.uniform_u64(1, 2 * STRETCH as u64) as usize;
                out.extend(std::iter::repeat_n(value, held));
            }
            // Everything above, spliced.
            _ => {
                let piece = rng.uniform_u64(1, 12) as usize;
                let kind = rng.uniform_u64(0, VALUE_KINDS - 1);
                out.extend(values(rng, kind, piece));
            }
        }
    }
    out.truncate(len);
    out
}

fn build(times: &[u64], values: &[f64]) -> (TimeSeries, Reference) {
    let (mut series, mut reference) = (TimeSeries::new(), Reference::default());
    for (&t, &value) in times.iter().zip(values) {
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
    let flat: Vec<f64> = reference.samples.iter().map(|s| s.1).collect();
    let all: Vec<u64> = series.values().map(f64::to_bits).collect();
    assert_eq!(all, flat.iter().map(|v| v.to_bits()).collect::<Vec<_>>());
    // `percentile` and `Summary` sort, and refuse to sort a NaN.
    let sortable = !flat.iter().any(|v| v.is_nan());
    if sortable {
        assert_eq!(series.summary(), Summary::of(&flat));
    }
    for _ in 0..40 {
        let (from, to) = (instant(rng, reference), instant(rng, reference));
        assert_eq!(
            bits(series.value_at(from)),
            bits(reference.value_at(from)),
            "value_at {from}"
        );
        let window = reference.window(from, to);
        let want: Vec<(SimTime, u64)> = window.iter().map(|&(t, v)| (t, v.to_bits())).collect();
        // A step at a time, a run at a time, and some of each.
        let mut walk = series.window(from, to);
        let mut stepped = Vec::new();
        for s in walk
            .by_ref()
            .take(rng.uniform_u64(0, 1 + window.len() as u64) as usize)
        {
            stepped.push((s.at, s.value.to_bits()));
        }
        walk.for_each(|s| stepped.push((s.at, s.value.to_bits())));
        assert_eq!(stepped, want, "window [{from}, {to}), stepped then walked");
        let mut walked = Vec::new();
        series
            .window(from, to)
            .for_each(|s| walked.push((s.at, s.value.to_bits())));
        assert_eq!(walked, want, "window [{from}, {to}), walked");
        let mut stepped = Vec::new();
        for v in series.values_over(from, to) {
            stepped.push(v.to_bits());
        }
        assert!(stepped.iter().eq(want.iter().map(|(_, bits)| bits)));
        let sum: f64 = window.iter().map(|s| s.1).sum();
        assert_eq!(series.sum_over(from, to).to_bits(), sum.to_bits());
        let mean = (!window.is_empty()).then(|| sum / window.len() as f64);
        assert_eq!(bits(series.mean_over(from, to)), bits(mean));
        let max = window.iter().map(|s| s.1).reduce(f64::max);
        assert_eq!(bits(series.max_over(from, to)), bits(max));
        assert_eq!(series.values_over(from, to).len(), window.len());
        if sortable {
            let p = rng.uniform(0.0, 100.0);
            let flat: Vec<f64> = window.iter().map(|s| s.1).collect();
            assert_eq!(
                bits(series.percentile_over(from, to, p)),
                bits(percentile(&flat, p))
            );
        }
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
    // Either syntax rebuilds the same series, runs, stretches and all —
    // `==` is the derived one, over the layout — and what it rebuilt
    // encodes to the same bytes again.
    let streamed: TimeSeries = serde::binary::from_bytes(&bytes).expect("own encoding");
    assert_same_layout(&streamed, series);
    assert_eq!(serde::binary::to_bytes(&streamed), bytes);
    // JSON writes a NaN as `null`, which is not a number coming back.
    if !reference.samples.iter().any(|s| s.1.is_nan()) {
        let text: TimeSeries =
            serde::json::from_str(&serde::json::to_string(series)).expect("own encoding");
        assert_same_layout(&text, series);
    }
}

/// `==` on the layout — which a NaN fails against itself, so where there
/// is one the layout is compared as printed (entries, stretches, runs)
/// and the samples by their bits.
fn assert_same_layout(a: &TimeSeries, b: &TimeSeries) {
    if a.values().any(f64::is_nan) {
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert!(a
            .values()
            .map(f64::to_bits)
            .eq(b.values().map(f64::to_bits)));
    } else {
        assert_eq!(a, b);
    }
}

#[test]
fn every_query_and_the_encoding_match_the_sample_vector() {
    let root = SimRng::from_seed(17);
    // Every kind of time axis against every kind of value sequence, with
    // and without overwrites, four seeds each.
    for case in 0..4 * 2 * VALUE_KINDS * 4 {
        let mut rng = root.fork_indexed("series", case);
        let times = timestamps(&mut rng, case % 4, case % 8 >= 4);
        let values = values(&mut rng, case / 8 % VALUE_KINDS, times.len());
        let (series, reference) = build(&times, &values);
        check_queries(&series, &reference, &mut rng);
        check_encoding(&series, &reference);
    }
}

#[test]
fn an_overwrite_leaves_the_layout_the_samples_alone_would() {
    // `run` samples of `value` a minute apart from `from` on, and the
    // instant after them.
    let held = |from: u64, run: usize, value: f64| -> (Vec<(u64, f64)>, u64) {
        let samples = (0..run as u64).map(|i| (from + i * 60, value)).collect();
        (samples, from + run as u64 * 60)
    };
    // Pushed with the overwrite, and pushed as what the overwrite left.
    let both = |with: Vec<(u64, f64)>, without: Vec<(u64, f64)>| {
        let push = |samples: &[(u64, f64)]| -> TimeSeries {
            samples
                .iter()
                .map(|&(t, v)| (SimTime::from_secs(t), v))
                .collect()
        };
        let (series, direct) = (push(&with), push(&without));
        assert_eq!(series, direct, "{with:?}");
        let mut reference = Reference::default();
        for &(t, v) in &with {
            reference.push(SimTime::from_secs(t), v);
        }
        check_queries(&series, &reference, &mut SimRng::from_seed(5));
        check_encoding(&series, &reference);
    };
    let (a, b) = (1.5, 2.5);
    // Out of a stretch of exactly `STRETCH`: entries again, all of them.
    let (stretch, end) = held(0, STRETCH, a);
    let (short, _) = held(0, STRETCH - 1, a);
    both(
        [&stretch[..], &[(end - 60, b)]].concat(),
        [&short[..], &[(end - 60, b)]].concat(),
    );
    // Into one: the sample that makes the stretch arrives as an overwrite.
    both(
        [&short[..], &[(end - 60, b), (end - 60, a)]].concat(),
        stretch.clone(),
    );
    // Out of a longer one (it stays a stretch) and on.
    let (long, after) = held(0, STRETCH + 1, a);
    both(
        [&long[..], &[(after - 60, b), (after, b)]].concat(),
        [&stretch[..], &[(after - 60, b), (after, b)]].concat(),
    );
    // With itself: nothing moves, in a stretch or out of one.
    both(
        [&stretch[..], &[(end - 60, a), (end, a)]].concat(),
        long.clone(),
    );
    both(vec![(0, a), (60, b), (60, b)], vec![(0, a), (60, b)]);
    // The sample after a stretch overwritten with the stretch's own value
    // (the listed stretch is the latest again, and grows), and with a
    // third (it stays listed).
    both([&stretch[..], &[(end, b), (end, a)]].concat(), long.clone());
    both(
        [&stretch[..], &[(end, b), (end, 3.5)]].concat(),
        [&stretch[..], &[(end, 3.5)]].concat(),
    );
    // The stretch behind a shortened one is not disturbed.
    let (second, _) = held(end, STRETCH, b);
    let (second_short, last) = held(end, STRETCH - 1, b);
    both(
        [&stretch[..], &second[..], &[(last, a)]].concat(),
        [&stretch[..], &second_short[..], &[(last, a)]].concat(),
    );
    // Back into a run of entries short of a stretch: the count of them is
    // found again.
    both(
        [&short[..], &[(end - 60, b), (end - 60, a)]].concat(),
        stretch.clone(),
    );
    // Equal to `==` is not equal: the zeros differ in a bit.
    let (zeros, after) = held(0, STRETCH - 1, 0.0);
    let (more_zeros, _) = held(0, STRETCH, 0.0);
    both(
        [&zeros[..], &[(after, -0.0), (after, 0.0)]].concat(),
        more_zeros,
    );
}

/// What building a series of `samples` values retains, in bytes.
fn retained(samples: u64, value: impl Fn(u64) -> f64) -> (TimeSeries, i64) {
    let before = counting_alloc::live_bytes();
    let mut series = TimeSeries::new();
    for i in 0..samples {
        series.push(SimTime::from_secs(i * 60), value(i));
    }
    let held = counting_alloc::live_bytes() - before;
    (series, held)
}

#[test]
fn a_series_retains_what_its_samples_say_and_never_more_than_eight_bytes_each() {
    const SAMPLES: u64 = 10_000;
    // Nothing to say: the few values it held before they made a stretch
    // have left room for eight, and that is all, for any number of
    // samples (measured: 64 bytes).
    let (constant, held) = retained(SAMPLES, |_| 0.25);
    assert_eq!(constant.len(), SAMPLES as usize);
    assert!(held < 200, "a constant series retains {held} bytes");
    // Something new every sample: 8 bytes each, and the quarter a series
    // past 512 samples may hold ahead of itself.
    let (moving, held) = retained(SAMPLES, |i| i as f64);
    let flat = 8 * SAMPLES as i64;
    assert!(
        (flat..=flat + flat / 4).contains(&held),
        "a series that never repeats retains {held} bytes for {SAMPLES} samples"
    );
    // The most bookkeeping a sample can carry — every stretch the
    // shortest there is, listed with 16 bytes beside its value — is three
    // words for eight samples.
    let (shortest, held) = retained(SAMPLES, |i| (i / STRETCH as u64) as f64);
    let stretches = SAMPLES as i64 / STRETCH as i64;
    assert!(
        held <= (24 * stretches) * 5 / 4 + 64,
        "stretches of {STRETCH} retain {held} bytes for {SAMPLES} samples"
    );
    // A decoded series holds no more than the one that was encoded: the
    // count on the wire reserves nothing.
    for series in [&constant, &moving, &shortest] {
        let bytes = serde::binary::to_bytes(series);
        let before = counting_alloc::live_bytes();
        let pushed: TimeSeries = series.iter().collect();
        let built = counting_alloc::live_bytes() - before;
        assert_eq!(&pushed, series);
        let before = counting_alloc::live_bytes();
        let decoded: TimeSeries = serde::binary::from_bytes(&bytes).expect("own encoding");
        let held = counting_alloc::live_bytes() - before;
        assert_same_layout(&decoded, series);
        assert!(held <= built, "decoded holds {held} bytes, pushed {built}");
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
