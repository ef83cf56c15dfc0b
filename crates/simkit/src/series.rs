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
//!
//! The values are stored the same way, because most of them say nothing
//! new: an idle container's power, a full battery's level, a carbon rate
//! while solar covers demand. `values` holds one entry per sample **or per
//! stretch** of eight or more bit-equal consecutive samples. The
//! stretch a series ends in is a count held inline, so a series that
//! stands still writes one counter per push and nothing else; a sparse
//! list names the entries that stand for an earlier stretch — `(entry,
//! how many more samples than entries there are up to and including it)`.
//! A listed stretch costs 16 bytes and one value where its samples cost 8
//! bytes each, so no series holds more than 8 bytes a sample. This too is
//! derived from the sample sequence alone — a stretch is every maximal run
//! of eight or more — and every query still walks samples one at a
//! time, so it adds the floats the flat layout added, in the same order.

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

/// Entry `at` of the values stands for a stretch of bit-equal samples.
/// Every other entry is one sample, so what places a stretch is how far
/// the samples have run ahead of the entries by the time it is over:
/// `ahead` more samples than entries, up to and including this one. Entry
/// `e` after it (and before the next stretch) is sample `e + ahead`, and
/// the stretch holds as many samples as `ahead` grew by, and one.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Stretch {
    at: usize,
    ahead: usize,
}

impl Stretch {
    /// The index one past its last sample.
    fn end(self) -> usize {
        self.at + self.ahead + 1
    }
}

/// How many bit-equal samples in a row become one entry. A shorter run
/// stays samples: as a stretch it would save a few words at most, and
/// once it is over it costs a list entry — for a series' first, two
/// allocations. Where series are young (a recorded day is a dozen samples
/// in each of eight thousand) that is dearer than what it saves; where
/// they are old, what stands still does so for longer than this.
const STRETCH: usize = 8;

/// What most series never have, and so keep behind one pointer: a series
/// on one cadence has no closed run, and one that moves every tick (or
/// never) no stretch but the one it ends in. A store holds its series by
/// the thousand, most of them a dozen samples old for as long as a
/// recorded day lasts, and there what a series weighs before it holds
/// anything is most of what telemetry weighs.
#[derive(Debug, Clone, Default, PartialEq)]
struct Earlier {
    /// Runs that can no longer grow, oldest first.
    runs: Vec<Run>,
    /// The entries that stand for a stretch the series no longer ends in,
    /// oldest first.
    stretches: Vec<Stretch>,
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
    /// One entry per sample, or per stretch of equal samples.
    values: Vec<f64>,
    /// The bits of the latest value (0 while there is none), here as well
    /// as in `values` so that a push compares against them without
    /// waiting on the line of the heap it is about to write to.
    latest: u64,
    /// How many of the latest samples hold that value (0 only while there
    /// are none). From [`STRETCH`] up they are one entry, the latest — the
    /// stretch that can still grow, and growing it touches nothing but
    /// this.
    tail: usize,
    /// The run the latest sample belongs to (meaningless while the series
    /// is empty).
    open: Run,
    /// The timestamp that would extend `open`: one `step` past the latest
    /// sample (the latest sample's own while `open` holds just it).
    next: u64,
    /// `None` rather than empty, so that series holding the same samples
    /// hold the same however they came to.
    earlier: Option<Box<Earlier>>,
}

/// Length up to which a list of a series grows by doubling, as any `Vec`
/// does; past it, by a quarter. Doubling holds up to twice what a series
/// needs, and on a long-lived server the series are most of what is held;
/// a quarter bounds that slack at 25 % for four copies of each entry over
/// its lifetime instead of one.
const DOUBLING_LIMIT: usize = 512;

#[inline]
fn push_entry<T>(entries: &mut Vec<T>, entry: T) {
    let len = entries.len();
    if len == entries.capacity() && len >= DOUBLING_LIMIT {
        entries.reserve_exact(len / 4);
    }
    entries.push(entry);
}

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
        if !self.is_empty() {
            let latest_at = self.next - self.open.step;
            if at < latest_at {
                return Err(OutOfOrder);
            }
            if at == latest_at {
                // Pop, then push: the layout stays what the samples alone
                // say, out of a stretch or into one.
                self.pop_value();
                self.push_value(value);
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
            let closed = self.open;
            push_entry(&mut self.earlier_mut().runs, closed);
        }
        self.open = Run {
            start: at,
            step: 0,
            first: self.len(),
        };
        self.next = at;
        self.push_value(value);
        Ok(())
    }

    #[inline]
    fn push_value(&mut self, value: f64) {
        // Equal means the same bits: `-0.0` is not `+0.0`, a NaN is
        // itself.
        let bits = value.to_bits();
        let same = self.tail != 0 && bits == self.latest;
        if self.tail < STRETCH - 1 {
            // Short of a stretch whatever this one says: an entry. (No
            // branch on what it says — a store's series are young
            // together, and then this is all a push does.)
            self.tail = if same { self.tail + 1 } else { 1 };
            self.latest = bits;
            push_entry(&mut self.values, value);
        } else if same && self.tail >= STRETCH {
            // A stretch takes it by counting it.
            self.tail += 1;
        } else {
            self.push_by_stretch(value, same);
        }
    }

    /// Pushes the value that makes the latest entries a stretch, or one
    /// that differs from them when they are a stretch or one short of it.
    /// Out of line: a push in cadence is inlined where it is called from,
    /// and stays small enough to be.
    #[inline(never)]
    fn push_by_stretch(&mut self, value: f64, same: bool) {
        if same {
            // All the run's entries but one go; this sample never is one.
            self.values.truncate(self.values.len() - (STRETCH - 2));
            self.tail = STRETCH;
            return;
        }
        // A stretch that can no longer grow is listed.
        if let Some(over) = self.stretch(self.stretches().len()) {
            push_entry(&mut self.earlier_mut().stretches, over);
        }
        (self.latest, self.tail) = (value.to_bits(), 1);
        push_entry(&mut self.values, value);
    }

    /// Takes the latest sample back (there is one).
    fn pop_value(&mut self) {
        self.tail -= 1;
        if self.tail >= STRETCH {
            return;
        }
        if self.tail == STRETCH - 1 {
            // One short of a stretch: its samples are entries again.
            let value = f64::from_bits(self.latest);
            for _ in 0..STRETCH - 2 {
                push_entry(&mut self.values, value);
            }
            return;
        }
        self.values.pop();
        if self.tail != 0 {
            return;
        }
        // The run before is the latest again: a listed stretch, or however
        // many entries hold its value (short of a stretch, or they would
        // be one).
        let Some(&latest) = self.values.last() else {
            self.latest = 0;
            return;
        };
        self.latest = latest.to_bits();
        self.tail = match self.stretches() {
            [before @ .., last] if last.at + 1 == self.values.len() => {
                let samples = last.ahead - before.last().map_or(0, |s| s.ahead) + 1;
                self.pop_listed_stretch();
                samples
            }
            _ => {
                let same = |held: &&f64| held.to_bits() == self.latest;
                self.values.iter().rev().take_while(same).count()
            }
        };
    }

    fn earlier_mut(&mut self) -> &mut Earlier {
        self.earlier.get_or_insert_with(Box::default)
    }

    fn pop_listed_stretch(&mut self) {
        if let Some(earlier) = &mut self.earlier {
            earlier.stretches.pop();
            if **earlier == Earlier::default() {
                self.earlier = None;
            }
        }
    }

    /// Runs that can no longer grow, oldest first.
    fn closed(&self) -> &[Run] {
        self.earlier.as_deref().map_or(&[], |e| &e.runs)
    }

    /// The stretches the series no longer ends in, oldest first.
    fn stretches(&self) -> &[Stretch] {
        self.earlier.as_deref().map_or(&[], |e| &e.stretches)
    }

    /// Stretch `i` of the series (the one it ends in, if it does, is the
    /// last), if there are that many.
    fn stretch(&self, i: usize) -> Option<Stretch> {
        let listed = self.stretches();
        match listed.get(i) {
            Some(&stretch) => Some(stretch),
            None if i == listed.len() && self.tail >= STRETCH => Some(Stretch {
                at: self.values.len() - 1,
                ahead: listed.last().map_or(0, |s| s.ahead) + self.tail - 1,
            }),
            None => None,
        }
    }

    /// Number of stored samples.
    pub fn len(&self) -> usize {
        let listed = self.stretches().last().map_or(0, |s| s.ahead);
        let ending = if self.tail >= STRETCH {
            self.tail - 1
        } else {
            0
        };
        self.values.len() + listed + ending
    }

    /// `true` when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.tail == 0
    }

    /// All values in time order, without their timestamps.
    pub fn values(&self) -> Values<'_> {
        self.values_in(0, self.len())
    }

    /// The values of the samples at indices `from..to`, in time order.
    fn values_in(&self, from: usize, to: usize) -> Values<'_> {
        // The stretches that are over by `from`, and how far they have put
        // the samples ahead of the entries: `from` is in the next stretch,
        // or that far ahead of its entry.
        let listed = self.stretches();
        let over = listed.partition_point(|s| s.end() <= from);
        let ahead = over.checked_sub(1).map_or(0, |i| listed[i].ahead);
        let next = self.stretch(over);
        let mut values = Values {
            series: self,
            index: from,
            end: to.max(from),
            entry: from - ahead,
            hold: 0,
            stretch: over,
            stretch_at: next.map_or(usize::MAX, |s| s.at),
        };
        match next {
            Some(stretch) if stretch.at + ahead <= from => values.enter(stretch),
            _ => {}
        }
        values
    }

    /// Run `i` of the series (the open run is the last) and the index one
    /// past its last sample.
    fn run(&self, i: usize) -> (Run, usize) {
        let closed = self.closed();
        match closed.get(i) {
            Some(&run) => {
                let end = closed.get(i + 1).map_or(self.open.first, |n| n.first);
                (run, end)
            }
            None => (self.open, self.len()),
        }
    }

    /// The samples at indices `from..to`, in time order.
    fn range(&self, from: usize, to: usize) -> Samples<'_> {
        // The run holding `from`: the last that starts at or before it.
        let closed = self.closed().partition_point(|r| r.first <= from);
        let i = if closed == self.closed().len() && self.open.first <= from {
            closed
        } else {
            closed - 1
        };
        let (run, run_end) = self.run(i);
        Samples {
            values: self.values_in(from, to),
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
            match self.closed().partition_point(|r| r.start <= t) {
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
            n => self.values_in(n - 1, n).next(),
        }
    }

    /// Samples within the half-open window `[from, to)`.
    pub fn window(&self, from: SimTime, to: SimTime) -> Samples<'_> {
        self.range(self.rank(from, false), self.rank(to, false))
    }

    /// Values within `[from, to)`.
    pub fn values_over(&self, from: SimTime, to: SimTime) -> Values<'_> {
        self.values_in(self.rank(from, false), self.rank(to, false))
    }

    /// Mean of values within `[from, to)`; `None` when the window is empty.
    pub fn mean_over(&self, from: SimTime, to: SimTime) -> Option<f64> {
        let w = self.values_over(from, to);
        match w.len() {
            0 => None,
            n => Some(w.sum::<f64>() / n as f64),
        }
    }

    /// Sum of values within `[from, to)`.
    pub fn sum_over(&self, from: SimTime, to: SimTime) -> f64 {
        self.values_over(from, to).sum()
    }

    /// Percentile of values within `[from, to)`; `None` when empty.
    pub fn percentile_over(&self, from: SimTime, to: SimTime, p: f64) -> Option<f64> {
        percentile(&self.values_over(from, to).collect::<Vec<_>>(), p)
    }

    /// Maximum value within `[from, to)`; `None` when empty.
    pub fn max_over(&self, from: SimTime, to: SimTime) -> Option<f64> {
        self.values_over(from, to).reduce(f64::max)
    }

    /// Summary statistics over all recorded values.
    pub fn summary(&self) -> Option<Summary> {
        Summary::of(&self.values().collect::<Vec<_>>())
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
        // Segments [s_i.at, s_{i+1}.at) clipped to [from, to), in order,
        // from the one `from` falls in to the last that starts before
        // `to`, which runs on to `to`.
        let first = self.rank(from, true).saturating_sub(1);
        let mut total = 0.0;
        let mut segment = |s: Sample, seg_end: SimTime| {
            let clip_start = s.at.max(from);
            let clip_end = seg_end.min(to);
            if clip_end > clip_start {
                total += s.value * (clip_end - clip_start).as_secs_f64();
            }
        };
        let mut open: Option<Sample> = None;
        self.range(first, self.rank(to, false)).for_each(|next| {
            if let Some(s) = open.replace(next) {
                segment(s, next.at);
            }
        });
        if let Some(last) = open {
            segment(last, to);
        }
        total
    }
}

/// Values of a [`TimeSeries`] in time order, one per sample: a stretch's
/// value comes round once for each sample it stands for.
#[derive(Debug, Clone)]
pub struct Values<'a> {
    series: &'a TimeSeries,
    /// Index of the next sample, and one past the last.
    index: usize,
    end: usize,
    /// The entry holding the next sample, and the sample index up to which
    /// it keeps holding them (anything not past `index` for an entry that
    /// is one sample).
    entry: usize,
    hold: usize,
    /// The next stretch at or after that entry, and the entry it is (none
    /// a series has, when there is no such stretch): all a step looks at
    /// until it gets there.
    stretch: usize,
    stretch_at: usize,
}

impl Values<'_> {
    /// The walk is at its next stretch, `stretch`: that entry holds to the
    /// stretch's end.
    fn enter(&mut self, stretch: Stretch) {
        self.entry = stretch.at;
        self.hold = stretch.end();
        self.stretch += 1;
        let next = self.series.stretch(self.stretch);
        self.stretch_at = next.map_or(usize::MAX, |s| s.at);
    }

    /// Folds the next `samples` values (there are that many) into `acc`:
    /// what stepping with [`next`](Iterator::next) would, a stretch or a
    /// run of entries at a time.
    #[inline]
    fn walk<B>(&mut self, mut samples: usize, mut acc: B, mut f: impl FnMut(B, f64) -> B) -> B {
        while samples > 0 {
            if self.index < self.hold {
                let here = samples.min(self.hold - self.index);
                let value = self.series.values[self.entry];
                acc = (0..here).fold(acc, |acc, _| f(acc, value));
                self.index += here;
                samples -= here;
                if self.index < self.hold {
                    break;
                }
                self.entry += 1;
            } else {
                // Entries that are one sample each, up to the next stretch.
                let entries = &self.series.values[self.entry..];
                let here = samples.min(self.stretch_at.min(self.series.values.len()) - self.entry);
                acc = entries[..here]
                    .iter()
                    .fold(acc, |acc, &value| f(acc, value));
                self.index += here;
                self.entry += here;
                samples -= here;
            }
            if self.entry == self.stretch_at {
                let stretch = self.series.stretch(self.stretch).expect("it is at one");
                self.enter(stretch);
            }
        }
        acc
    }
}

impl Iterator for Values<'_> {
    type Item = f64;

    #[inline]
    fn next(&mut self) -> Option<f64> {
        if self.index == self.end {
            return None;
        }
        let value = self.series.values[self.entry];
        self.index += 1;
        if self.index >= self.hold {
            self.entry += 1;
            if self.entry == self.stretch_at {
                let stretch = self.series.stretch(self.stretch).expect("it is at one");
                self.enter(stretch);
            }
        }
        Some(value)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.end - self.index;
        (left, Some(left))
    }

    /// What `sum`, `reduce` and `for_each` run on.
    #[inline]
    fn fold<B, F: FnMut(B, f64) -> B>(mut self, init: B, f: F) -> B {
        self.walk(self.end - self.index, init, f)
    }
}

impl ExactSizeIterator for Values<'_> {}

/// Samples of a [`TimeSeries`] in time order, their timestamps computed
/// from the runs as the iterator walks.
#[derive(Debug, Clone)]
pub struct Samples<'a> {
    values: Values<'a>,
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
        let index = self.values.index;
        let value = self.values.next()?;
        if index == self.run_end {
            self.run += 1;
            let (run, run_end) = self.values.series.run(self.run);
            (self.at, self.step, self.run_end) = (run.start, run.step, run_end);
        }
        let sample = Sample {
            at: SimTime::from_secs(self.at),
            value,
        };
        self.at += self.step;
        Some(sample)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.values.size_hint()
    }

    /// A run at a time, for whoever walks a whole window.
    #[inline]
    fn fold<B, F: FnMut(B, Sample) -> B>(mut self, init: B, mut f: F) -> B {
        let mut acc = init;
        while self.values.index < self.values.end {
            if self.values.index == self.run_end {
                self.run += 1;
                let (run, run_end) = self.values.series.run(self.run);
                (self.at, self.step, self.run_end) = (run.start, run.step, run_end);
            }
            let (mut at, step) = (self.at, self.step);
            let in_run = self.run_end.min(self.values.end) - self.values.index;
            acc = self.values.walk(in_run, acc, |acc, value| {
                let sample = Sample {
                    at: SimTime::from_secs(at),
                    value,
                };
                at += step;
                f(acc, sample)
            });
        }
        acc
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

/// What `Sample::encode` writes before a sample's timestamp — a map of two
/// entries, key `at`, the `INT` tag — and between the timestamp's zigzag
/// varint and the value's eight little-endian bytes: key `value`, the
/// `FLOAT` tag.
const BEFORE_AT: [u8; 6] = [0x08, 0x02, 0x02, b'a', b't', 0x03];
const BEFORE_VALUE: [u8; 7] = [0x05, b'v', b'a', b'l', b'u', b'e', 0x05];

/// A sample in exactly the form `Sample::encode` writes, and how many
/// bytes it took. Anything else — keys reordered, repeated or unknown,
/// `at` as `UINT` or as a float, a negative timestamp, a varint longer
/// than nine bytes, a truncation — is `None`, left to `Sample::decode`.
fn sample_as_written(bytes: &[u8]) -> Option<(Sample, usize)> {
    let rest = bytes.strip_prefix(&BEFORE_AT)?;
    // Nine varint bytes hold 63 bits: none of them can overflow.
    let mut zigzag = 0u64;
    let mut len = 0;
    loop {
        let byte = *rest.get(len)?;
        zigzag |= u64::from(byte & 0x7f) << (7 * len);
        len += 1;
        if byte & 0x80 == 0 {
            break;
        }
        if len == 9 {
            return None;
        }
    }
    if zigzag & 1 != 0 {
        return None;
    }
    let rest = rest[len..].strip_prefix(&BEFORE_VALUE)?;
    let value = f64::from_le_bytes(rest.get(..8)?.try_into().ok()?);
    let sample = Sample {
        at: SimTime::from_secs(zigzag >> 1),
        value,
    };
    Some((sample, BEFORE_AT.len() + len + BEFORE_VALUE.len() + 8))
}

/// The value of the `samples` field: a sequence of samples, pushed onto a
/// series in the order read. A sample older than its predecessor is an
/// error value, where `push` would panic.
///
/// Each sample is first read in the form `Sample::encode` writes it, byte
/// for byte ([`binary::Reader::exact`]), and by the general route from the
/// same byte where that fails: every sample this program wrote takes the
/// first, another writer's forms and damage the second. Either way it is
/// pushed, so the order check is the same.
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
            let sample = match r.exact(sample_as_written) {
                Some(sample) => sample,
                None => Sample::decode(r)?,
            };
            pushed.push(sample)?;
        }
        r.end();
        // The count reserved for says how many samples, not how much they
        // say: a restored world holds what they say.
        pushed.0.values.shrink_to_fit();
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
        assert!(s.earlier.is_none(), "nothing but the values grows");
        // A late sample closes the run; the cadence resuming is one more.
        s.push(t(1_000 * 300 + 7), 0.0);
        s.push(t(1_001 * 300 + 7), 0.0);
        s.push(t(1_002 * 300 + 7), 0.0);
        assert_eq!(s.closed().len(), 1);
        assert_eq!(s.last().map(|s| s.at), Some(t(1_002 * 300 + 7)));
    }

    #[test]
    fn a_series_is_ten_words_before_it_holds_anything() {
        // A recorded day is a dozen samples in each of eight thousand
        // series: there, this is most of what telemetry weighs (and what
        // it weighed before the values were stretches).
        assert_eq!(std::mem::size_of::<TimeSeries>(), 80);
    }

    #[test]
    fn a_long_series_holds_at_most_a_quarter_more_than_it_needs() {
        let mut s = TimeSeries::new();
        let mut regrowths = 0;
        for i in 0..100_000 {
            let before = s.values.capacity();
            // No two alike: every sample is an entry.
            s.push(t(i * 60), i as f64);
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
    fn the_form_read_first_is_what_encode_writes() {
        // Timestamps of one to nine varint bytes, and values whose bytes
        // spell the tags and keys around them.
        let ats = [0, 1, 63, 64, 300, 86_400, 1 << 40, (1 << 62) - 1];
        let values = [0.0, -0.0, 1.5, f64::NAN, f64::from_le_bytes([0x05; 8])];
        for (at, value) in ats.into_iter().zip(values.into_iter().cycle()) {
            let sample = Sample { at: t(at), value };
            let bytes = binary::to_bytes(&sample);
            let (read, len) = sample_as_written(&bytes).expect("the encoder's form");
            assert_eq!(len, bytes.len());
            assert_eq!(
                (read.at, read.value.to_bits()),
                (sample.at, value.to_bits())
            );
        }
        // Past nine varint bytes, the general route reads it.
        let late = binary::to_bytes(&Sample {
            at: t(1 << 62),
            value: 0.0,
        });
        assert_eq!(sample_as_written(&late), None);
    }

    #[test]
    fn window_half_open() {
        let s = series(&[(0, 1.0), (60, 2.0), (120, 3.0)]);
        let w = s.window(t(0), t(120));
        assert_eq!(w.len(), 2);
        assert_eq!(
            s.values_over(t(60), t(121)).collect::<Vec<_>>(),
            vec![2.0, 3.0]
        );
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
