//! Append-only time series for recording simulation outputs.
//!
//! [`TimeSeries`] is the building block the telemetry crate's TSDB stores;
//! the experiment harness also uses it directly to collect the per-tick
//! signals plotted in the paper's figures.
//!
//! ## Layout
//!
//! The ecovisor samples on a fixed Δt, so a series' timestamps are almost
//! always an arithmetic progression. The series therefore keeps its
//! values in a bare `Vec<f64>` and its time axis as **runs of equal
//! spacing** — `(start, step, index of first sample)` — with the run
//! still being extended held inline. A series sampled every tick is one
//! run, one allocation and 8 bytes per sample; an irregular one simply
//! has more runs (at worst one per two samples). The layout is derived:
//! serialized, a series is still the sequence of `{at, value}` samples it
//! always was, and two series holding the same samples hold the same runs
//! (a run is closed only when a timestamp breaks its spacing, which
//! depends on the timestamps alone).

use serde::{binary, Deserialize, Serialize, Value};

use crate::stats::{percentile, Summary};
use crate::time::SimTime;

/// A single timestamped observation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    /// Instant the observation was taken.
    pub at: SimTime,
    /// Observed value.
    pub value: f64,
}

/// Consecutive samples `step` seconds apart: sample `first + k` of the
/// series was taken at `start + k * step`. A run ends where the next one
/// begins; a run of one sample has `step == 0`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Run {
    start: u64,
    step: u64,
    first: usize,
}

/// An append-only, time-ordered series of `f64` observations.
///
/// # Example
///
/// ```
/// use simkit::series::TimeSeries;
/// use simkit::time::SimTime;
///
/// let mut s = TimeSeries::new();
/// s.push(SimTime::from_secs(0), 1.0);
/// s.push(SimTime::from_secs(60), 3.0);
/// assert_eq!(s.mean_over(SimTime::from_secs(0), SimTime::from_secs(120)), Some(2.0));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimeSeries {
    values: Vec<f64>,
    /// Runs that can no longer grow, oldest first.
    closed: Vec<Run>,
    /// The run the latest sample belongs to (meaningless while the series
    /// is empty).
    open: Run,
    /// The timestamp that would extend `open`: one `step` past the latest
    /// sample (the latest sample's own while `open` holds just it).
    next: u64,
}

/// Length up to which the values grow by doubling, as any `Vec` does;
/// past it they grow by a quarter. Doubling holds up to twice what a
/// series needs, and on a long-lived server the series are most of what
/// is held; a quarter bounds that slack at 25 % for four copies of each
/// value over its lifetime instead of one.
const DOUBLING_LIMIT: usize = 512;

/// Why a sample cannot join a series: it is older than the latest one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfOrder;

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an observation.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the last appended sample (series are
    /// strictly time-ordered; equal timestamps are allowed and overwrite).
    #[inline]
    pub fn push(&mut self, at: SimTime, value: f64) {
        self.try_push(at, value)
            .expect("samples must be appended in time order");
    }

    /// [`push`](Self::push) for samples from outside the program.
    ///
    /// # Errors
    ///
    /// [`OutOfOrder`] where `push` would panic; the series is unchanged.
    #[inline]
    pub fn try_push(&mut self, at: SimTime, value: f64) -> Result<(), OutOfOrder> {
        let at = at.as_secs();
        // In cadence — every push but a series' first two, while Δt holds.
        if at == self.next && self.open.step != 0 {
            if let Some(next) = at.checked_add(self.open.step) {
                self.next = next;
                self.push_value(value);
                return Ok(());
            }
        }
        self.push_off_cadence(at, value)
    }

    fn push_off_cadence(&mut self, at: u64, value: f64) -> Result<(), OutOfOrder> {
        if let Some(latest) = self.values.last_mut() {
            let latest_at = self.next - self.open.step;
            if at < latest_at {
                return Err(OutOfOrder);
            }
            if at == latest_at {
                *latest = value;
                return Ok(());
            }
            // A run's second sample sets its spacing — if the timestamp
            // one more step on can be written down at all.
            let step = at - latest_at;
            if let (0, Some(next)) = (self.open.step, at.checked_add(step)) {
                self.open.step = step;
                self.next = next;
                self.push_value(value);
                return Ok(());
            }
            self.closed.push(self.open);
        }
        self.open = Run {
            start: at,
            step: 0,
            first: self.values.len(),
        };
        self.next = at;
        self.push_value(value);
        Ok(())
    }

    #[inline]
    fn push_value(&mut self, value: f64) {
        let len = self.values.len();
        if len == self.values.capacity() && len >= DOUBLING_LIMIT {
            self.values.reserve_exact(len / 4);
        }
        self.values.push(value);
    }

    /// Number of stored samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// All values in time order, without their timestamps.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Run `i` of the series (the open run is the last) and the index one
    /// past its last sample.
    fn run(&self, i: usize) -> (Run, usize) {
        match self.closed.get(i) {
            Some(&run) => {
                let end = self.closed.get(i + 1).map_or(self.open.first, |n| n.first);
                (run, end)
            }
            None => (self.open, self.values.len()),
        }
    }

    /// The samples at indices `from..to`, in time order.
    fn range(&self, from: usize, to: usize) -> Samples<'_> {
        // The run holding `from`: the last that starts at or before it.
        let closed = self.closed.partition_point(|r| r.first <= from);
        let i = if closed == self.closed.len() && self.open.first <= from {
            closed
        } else {
            closed - 1
        };
        let (run, run_end) = self.run(i);
        Samples {
            series: self,
            index: from,
            end: to.max(from),
            at: run.start + (from - run.first) as u64 * run.step,
            step: run.step,
            run: i,
            run_end,
        }
    }

    /// All samples in time order.
    pub fn samples(&self) -> Samples<'_> {
        self.range(0, self.len())
    }

    /// Iterator over `(time, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.samples().map(|s| (s.at, s.value))
    }

    /// Latest observation, if any.
    pub fn last(&self) -> Option<Sample> {
        self.values.last().map(|&value| Sample {
            at: SimTime::from_secs(self.next - self.open.step),
            value,
        })
    }

    /// How many samples were taken before `t` — or at or before it, when
    /// `through` — which is also the index of the first one that was not.
    /// A search over the runs, then arithmetic inside one.
    fn rank(&self, t: SimTime, through: bool) -> usize {
        let t = t.as_secs();
        // The run `t` falls in: the last that starts at or before it.
        let (run, end) = if !self.is_empty() && self.open.start <= t {
            (self.open, self.len())
        } else {
            match self.closed.partition_point(|r| r.start <= t) {
                0 => return 0,
                n => self.run(n - 1),
            }
        };
        let elapsed = t - run.start;
        let within = match (through, run.step) {
            (true, 0) => 1,
            (true, step) => (elapsed / step).saturating_add(1),
            (false, 0) => u64::from(elapsed > 0),
            (false, step) => elapsed.div_ceil(step),
        };
        // Past the run's last sample (in the gap before the next run, or
        // after the series' end) every sample of the run counts.
        run.first + usize::try_from(within).map_or(end - run.first, |w| w.min(end - run.first))
    }

    /// Value at or immediately before `at` (step semantics), if any sample
    /// exists at or before that instant.
    pub fn value_at(&self, at: SimTime) -> Option<f64> {
        match self.rank(at, true) {
            0 => None,
            n => Some(self.values[n - 1]),
        }
    }

    /// Samples within the half-open window `[from, to)`.
    pub fn window(&self, from: SimTime, to: SimTime) -> Samples<'_> {
        self.range(self.rank(from, false), self.rank(to, false))
    }

    /// Values within `[from, to)`.
    pub fn values_over(&self, from: SimTime, to: SimTime) -> &[f64] {
        let (lo, hi) = (self.rank(from, false), self.rank(to, false));
        &self.values[lo..hi.max(lo)]
    }

    /// Mean of values within `[from, to)`; `None` when the window is empty.
    pub fn mean_over(&self, from: SimTime, to: SimTime) -> Option<f64> {
        let w = self.values_over(from, to);
        if w.is_empty() {
            None
        } else {
            Some(w.iter().sum::<f64>() / w.len() as f64)
        }
    }

    /// Sum of values within `[from, to)`.
    pub fn sum_over(&self, from: SimTime, to: SimTime) -> f64 {
        self.values_over(from, to).iter().sum()
    }

    /// Percentile of values within `[from, to)`; `None` when empty.
    pub fn percentile_over(&self, from: SimTime, to: SimTime, p: f64) -> Option<f64> {
        percentile(self.values_over(from, to), p)
    }

    /// Maximum value within `[from, to)`; `None` when empty.
    pub fn max_over(&self, from: SimTime, to: SimTime) -> Option<f64> {
        self.values_over(from, to).iter().copied().reduce(f64::max)
    }

    /// Summary statistics over all recorded values.
    pub fn summary(&self) -> Option<Summary> {
        Summary::of(&self.values)
    }

    /// Integrates the series over `[from, to)` treating each value as a
    /// *rate per second* held until the next sample (step integration).
    ///
    /// Used to turn power series (watts) into energy (joule-seconds →
    /// watt-seconds) and carbon-rate series into totals.
    ///
    /// Costs the samples the window covers, not the series' history: the
    /// walk starts at the segment `from` falls in and stops at `to`.
    pub fn integrate_step(&self, from: SimTime, to: SimTime) -> f64 {
        if to <= from {
            return 0.0;
        }
        let mut total = 0.0;
        // Segments [s_i.at, s_{i+1}.at) clipped to [from, to), in order;
        // the last sample's segment runs on to `to`.
        let first = self.rank(from, true).saturating_sub(1);
        let mut segments = self.range(first, self.len()).peekable();
        while let Some(s) = segments.next() {
            if s.at >= to {
                break;
            }
            let seg_end = segments.peek().map_or(to, |n| n.at);
            let clip_start = s.at.max(from);
            let clip_end = seg_end.min(to);
            if clip_end > clip_start {
                total += s.value * (clip_end - clip_start).as_secs_f64();
            }
        }
        total
    }
}

/// Samples of a [`TimeSeries`] in time order, their timestamps computed
/// from the runs as the iterator walks.
#[derive(Debug, Clone)]
pub struct Samples<'a> {
    series: &'a TimeSeries,
    /// Index of the next sample, and one past the last.
    index: usize,
    end: usize,
    /// Timestamp of the next sample and the spacing of the run it is in.
    at: u64,
    step: u64,
    /// That run, and the index at which the one after it begins.
    run: usize,
    run_end: usize,
}

impl Iterator for Samples<'_> {
    type Item = Sample;

    fn next(&mut self) -> Option<Sample> {
        if self.index == self.end {
            return None;
        }
        if self.index == self.run_end {
            self.run += 1;
            let (run, run_end) = self.series.run(self.run);
            (self.at, self.step, self.run_end) = (run.start, run.step, run_end);
        }
        let sample = Sample {
            at: SimTime::from_secs(self.at),
            value: self.series.values[self.index],
        };
        self.index += 1;
        self.at += self.step;
        Some(sample)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.end - self.index;
        (left, Some(left))
    }
}

impl ExactSizeIterator for Samples<'_> {}

// Serialized, a series is what `struct { samples: Vec<Sample> }` derives
// — the form every snapshot, checkpoint and corpus file already holds —
// whatever the layout in memory.
impl Serialize for TimeSeries {
    fn to_value(&self) -> Value {
        serde::to_value(self)
    }

    fn encode(&self, out: &mut Vec<u8>) {
        binary::write_map(out, 1);
        binary::write_key(out, "samples");
        binary::write_seq(out, self.len());
        for sample in self.samples() {
            sample.encode(out);
        }
    }
}

/// The value of the `samples` field: a sequence of samples, pushed onto a
/// series in the order read. A sample older than its predecessor is an
/// error value, where `push` would panic.
struct Pushed(TimeSeries);

impl Pushed {
    fn push(&mut self, Sample { at, value }: Sample) -> Result<(), serde::Error> {
        self.0
            .try_push(at, value)
            .map_err(|_| serde::Error::custom("samples are not in time order"))
    }
}

impl Deserialize for Pushed {
    fn decode(r: &mut binary::Reader<'_>) -> Result<Self, serde::Error> {
        let mut pushed = Pushed(TimeSeries::new());
        let (len, capacity) = r.seq_of::<f64>()?;
        pushed.0.values.reserve_exact(capacity);
        for _ in 0..len {
            pushed.push(Sample::decode(r)?)?;
        }
        r.end();
        Ok(pushed)
    }
}

/// The struct around them, left to the derive.
#[derive(Deserialize)]
struct AtRest {
    samples: Pushed,
}

impl Deserialize for TimeSeries {
    fn decode(r: &mut binary::Reader<'_>) -> Result<Self, serde::Error> {
        AtRest::decode(r).map(|at_rest| at_rest.samples.0)
    }
}

impl FromIterator<(SimTime, f64)> for TimeSeries {
    fn from_iter<I: IntoIterator<Item = (SimTime, f64)>>(iter: I) -> Self {
        let mut s = TimeSeries::new();
        for (at, v) in iter {
            s.push(at, v);
        }
        s
    }
}

impl Extend<(SimTime, f64)> for TimeSeries {
    fn extend<I: IntoIterator<Item = (SimTime, f64)>>(&mut self, iter: I) {
        for (at, v) in iter {
            self.push(at, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn series(pairs: &[(u64, f64)]) -> TimeSeries {
        pairs.iter().map(|&(s, v)| (t(s), v)).collect()
    }

    #[test]
    fn push_and_query() {
        let s = series(&[(0, 1.0), (60, 2.0), (120, 3.0)]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.value_at(t(0)), Some(1.0));
        assert_eq!(s.value_at(t(59)), Some(1.0));
        assert_eq!(s.value_at(t(60)), Some(2.0));
        assert_eq!(s.value_at(t(10_000)), Some(3.0));
    }

    #[test]
    fn value_before_first_sample_is_none() {
        let s = series(&[(60, 2.0)]);
        assert_eq!(s.value_at(t(0)), None);
    }

    #[test]
    fn equal_timestamp_overwrites() {
        let mut s = series(&[(0, 1.0)]);
        s.push(t(0), 9.0);
        assert_eq!(s.len(), 1);
        assert_eq!(s.value_at(t(0)), Some(9.0));
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn out_of_order_push_panics() {
        let mut s = series(&[(60, 1.0)]);
        s.push(t(0), 2.0);
    }

    #[test]
    fn a_fixed_cadence_is_one_run_however_long() {
        let mut s: TimeSeries = (0..1_000).map(|i| (t(i * 300), i as f64)).collect();
        assert!(s.closed.is_empty(), "nothing but the values grows");
        // A late sample closes the run; the cadence resuming is one more.
        s.push(t(1_000 * 300 + 7), 0.0);
        s.push(t(1_001 * 300 + 7), 0.0);
        s.push(t(1_002 * 300 + 7), 0.0);
        assert_eq!(s.closed.len(), 1);
        assert_eq!(s.last().map(|s| s.at), Some(t(1_002 * 300 + 7)));
    }

    #[test]
    fn a_long_series_holds_at_most_a_quarter_more_than_it_needs() {
        let mut s = TimeSeries::new();
        let mut regrowths = 0;
        for i in 0..100_000 {
            let before = s.values.capacity();
            s.push(t(i * 60), 0.0);
            regrowths += usize::from(s.values.capacity() != before);
            let (len, held) = (s.values.len(), s.values.capacity());
            assert!(held <= (len * 2).max(4), "{held} held for {len}");
            assert!(
                len <= DOUBLING_LIMIT || held <= len + len / 4,
                "{held} held for {len}"
            );
        }
        // Still geometric: 8 doublings to 512, then log₁.₂₅(100,000 / 512).
        assert!(regrowths <= 8 + 24, "{regrowths} regrowths");
    }

    #[test]
    fn window_half_open() {
        let s = series(&[(0, 1.0), (60, 2.0), (120, 3.0)]);
        let w = s.window(t(0), t(120));
        assert_eq!(w.len(), 2);
        assert_eq!(s.values_over(t(60), t(121)), vec![2.0, 3.0]);
    }

    #[test]
    fn aggregations() {
        let s = series(&[(0, 1.0), (60, 2.0), (120, 3.0), (180, 4.0)]);
        assert_eq!(s.mean_over(t(0), t(240)), Some(2.5));
        assert_eq!(s.sum_over(t(0), t(240)), 10.0);
        assert_eq!(s.max_over(t(0), t(240)), Some(4.0));
        assert_eq!(s.percentile_over(t(0), t(240), 50.0), Some(2.5));
        assert_eq!(s.mean_over(t(500), t(600)), None);
    }

    #[test]
    fn summary_over_all() {
        let s = series(&[(0, 1.0), (60, 3.0)]);
        let sum = s.summary().expect("non-empty");
        assert_eq!(sum.mean, 2.0);
        assert_eq!(sum.count, 2);
    }

    #[test]
    fn step_integration() {
        // 1 unit/s for 60 s, then 2 units/s for 60 s.
        let s = series(&[(0, 1.0), (60, 2.0)]);
        assert_eq!(s.integrate_step(t(0), t(120)), 60.0 + 120.0);
        // Clipped to a sub-window.
        assert_eq!(s.integrate_step(t(30), t(90)), 30.0 + 60.0);
        // Empty or inverted windows integrate to zero.
        assert_eq!(s.integrate_step(t(90), t(30)), 0.0);
        assert_eq!(TimeSeries::new().integrate_step(t(0), t(60)), 0.0);
    }
}
