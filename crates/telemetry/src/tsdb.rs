//! In-memory time-series database with interval queries.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use simkit::series::TimeSeries;
use simkit::time::SimTime;

/// The time-series store.
///
/// All queries take half-open windows `[from, to)`. Writes must be
/// time-ordered per series (enforced by [`TimeSeries`]).
///
/// Series are held densely, numbered in the order they were first named.
/// Names are interned: each metric and each subject string is stored
/// once, so naming a series allocates nothing on a hit and one string for
/// a new name, not one per series. Nothing is ever walked in hash order:
/// a walk deals the series by the sorted places of their names, so
/// [`Tsdb::iter`] and `Debug` show the series in `(metric, subject)`
/// string order, whatever order they were created in.
#[derive(Clone, Default)]
pub struct Tsdb {
    series: Vec<TimeSeries>,
    index: Index,
}

/// The names of a store's series, by number and number by name.
///
/// Metrics and subjects are numbered apart, and a series is the pair of
/// its two numbers: naming is three hash lookups whatever the names are
/// (how many metrics one subject has, or subjects one metric), and the
/// index holds a constant per series and per name (a table of metrics by
/// subjects would hold their product, which a store of distinct names
/// makes quadratic).
#[derive(Clone, Default)]
struct Index {
    /// By series: each series' metric and subject number.
    keys: Vec<(u32, u32)>,
    /// The series of each `(metric, subject)` number pair.
    ids: HashMap<(u32, u32), u32>,
    /// Every metric that has a series.
    metrics: Names,
    /// Every subject that has a series.
    subjects: Names,
}

/// Strings numbered densely in the order first seen, each stored once
/// and shared by the number → name and name → number sides.
#[derive(Clone, Default)]
struct Names {
    by_name: HashMap<Arc<str>, u32>,
    by_number: Vec<Arc<str>>,
}

impl Names {
    fn number(&self, name: &str) -> Option<u32> {
        self.by_name.get(name).copied()
    }

    /// `name`'s number, the next one if it is new.
    fn intern(&mut self, name: &str) -> u32 {
        if let Some(number) = self.number(name) {
            return number;
        }
        // Every name has a series, so there are fewer than 2^32.
        let number = self.by_number.len() as u32;
        let name: Arc<str> = Arc::from(name);
        self.by_number.push(Arc::clone(&name));
        self.by_name.insert(name, number);
        number
    }

    fn name(&self, number: u32) -> &str {
        &self.by_number[number as usize]
    }

    /// By number: each name's place in string order.
    fn ranks(&self) -> Vec<u32> {
        let mut names: Vec<(&str, u32)> =
            self.by_number.iter().map(|name| &**name).zip(0..).collect();
        names.sort_unstable();
        let mut ranks = vec![0; names.len()];
        for (rank, (_, number)) in names.into_iter().enumerate() {
            ranks[number as usize] = rank as u32;
        }
        ranks
    }
}

impl Index {
    fn lookup(&self, metric: &str, subject: &str) -> Option<u32> {
        let key = (self.metrics.number(metric)?, self.subjects.number(subject)?);
        self.ids.get(&key).copied()
    }

    /// The number of `(metric, subject)`; a name not seen before is given
    /// the next one, one past the last series.
    fn name(&mut self, metric: &str, subject: &str) -> u32 {
        let key = (self.metrics.intern(metric), self.subjects.intern(subject));
        let next = u32::try_from(self.keys.len()).expect("fewer than 2^32 series");
        let id = *self.ids.entry(key).or_insert(next);
        if id == next {
            self.keys.push(key);
        }
        id
    }

    /// The name of series `id`.
    fn name_of(&self, id: u32) -> (&str, &str) {
        let (metric, subject) = self.keys[id as usize];
        (self.metrics.name(metric), self.subjects.name(subject))
    }

    /// Every `(metric, subject, series number)`, in `(metric, subject)`
    /// string order: the names sorted once each, then the numbers dealt by
    /// the place of their subject and, keeping that order, of their metric.
    fn walk(&self) -> impl Iterator<Item = (&str, &str, u32)> {
        let key = |id: u32| self.keys[id as usize];
        let all = 0..self.keys.len() as u32;
        let subjects = self.subjects.ranks();
        let by_subject = deal(all, subjects.len(), |id| subjects[key(id).1 as usize]);
        let metrics = self.metrics.ranks();
        deal(by_subject.iter().copied(), metrics.len(), |id| {
            metrics[key(id).0 as usize]
        })
        .into_iter()
        .map(|id| {
            let (metric, subject) = self.name_of(id);
            (metric, subject, id)
        })
    }
}

/// `ids` in the order of their `place`s, each below `places`, those that
/// share one kept in the order given: a counting sort, so a walk costs
/// the sorting of the names and no more than a constant per series.
fn deal(
    ids: impl ExactSizeIterator<Item = u32> + Clone,
    places: usize,
    place: impl Fn(u32) -> u32,
) -> Vec<u32> {
    let mut next = vec![0; places + 1];
    for id in ids.clone() {
        next[place(id) as usize + 1] += 1;
    }
    for at in 1..=places {
        next[at] += next[at - 1];
    }
    let mut dealt = vec![0; ids.len()];
    for id in ids {
        let at = &mut next[place(id) as usize];
        dealt[*at] = id;
        *at += 1;
    }
    dealt
}

impl Tsdb {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores `series` as `(metric, subject)`, over any series already
    /// there. Naming an existing series allocates nothing; a new name
    /// allocates its one string.
    /// A new series is pushed as it is, not pushed empty and then replaced.
    pub fn insert(&mut self, metric: &str, subject: &str, series: TimeSeries) {
        let id = self.index.name(metric, subject) as usize;
        match self.series.get_mut(id) {
            Some(held) => *held = series,
            None => self.series.push(series),
        }
    }

    /// Appends a sample to `(metric, subject)`, creating the series if the
    /// store does not have it.
    pub fn record(&mut self, metric: &str, subject: &str, at: SimTime, value: f64) {
        let id = self.index.name(metric, subject) as usize;
        if id == self.series.len() {
            self.series.push(TimeSeries::new());
        }
        self.series[id].push(at, value);
    }

    /// The series for `(metric, subject)`, if the store has it.
    pub fn series(&self, metric: &str, subject: &str) -> Option<&TimeSeries> {
        self.index
            .lookup(metric, subject)
            .map(|id| &self.series[id as usize])
    }

    /// Latest value of `(metric, subject)`.
    pub fn latest(&self, metric: &str, subject: &str) -> Option<f64> {
        self.series(metric, subject)?.last().map(|s| s.value)
    }

    /// Value at or before `at`.
    pub fn value_at(&self, metric: &str, subject: &str, at: SimTime) -> Option<f64> {
        self.series(metric, subject)?.value_at(at)
    }

    /// Mean over `[from, to)`.
    pub fn mean(&self, metric: &str, subject: &str, from: SimTime, to: SimTime) -> Option<f64> {
        self.series(metric, subject)?.mean_over(from, to)
    }

    /// Sum of samples over `[from, to)`.
    pub fn sum(&self, metric: &str, subject: &str, from: SimTime, to: SimTime) -> Option<f64> {
        self.series(metric, subject).map(|s| s.sum_over(from, to))
    }

    /// Percentile over `[from, to)`.
    pub fn percentile(
        &self,
        metric: &str,
        subject: &str,
        from: SimTime,
        to: SimTime,
        p: f64,
    ) -> Option<f64> {
        self.series(metric, subject)?.percentile_over(from, to, p)
    }

    /// Step-integrates a *rate-per-second* series over `[from, to)`.
    ///
    /// For a power series in watts this yields watt-seconds (divide by
    /// 3600 for Wh); for a g/s carbon-rate series it yields grams.
    pub fn integrate(&self, metric: &str, subject: &str, from: SimTime, to: SimTime) -> f64 {
        self.series(metric, subject)
            .map(|s| s.integrate_step(from, to))
            .unwrap_or(0.0)
    }

    /// All subjects that have a series for `metric`, in order.
    pub fn subjects_of(&self, metric: &str) -> Vec<&str> {
        let Some(number) = self.index.metrics.number(metric) else {
            return Vec::new();
        };
        let mut subjects: Vec<&str> = self
            .index
            .keys
            .iter()
            .filter(|&&(of, _)| of == number)
            .map(|&(_, subject)| self.index.subjects.name(subject))
            .collect();
        subjects.sort_unstable();
        subjects
    }

    /// Number of stored series.
    pub fn series_count(&self) -> usize {
        self.series.len()
    }

    /// Iterates over all `(metric, subject, series)` in `(metric, subject)`
    /// string order, whatever order they were created in: the order
    /// `Debug` uses.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str, &TimeSeries)> {
        self.index
            .walk()
            .map(|(metric, subject, id)| (metric, subject, &self.series[id as usize]))
    }
}

impl fmt::Debug for Tsdb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(
                self.iter()
                    .map(|(metric, subject, series)| ((metric, subject), series)),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn sample_db() -> Tsdb {
        let mut db = Tsdb::new();
        for (i, v) in [1.0, 2.0, 3.0, 4.0].iter().enumerate() {
            db.record("power", "c1", t(i as u64 * 60), *v);
        }
        db.record("power", "c2", t(0), 10.0);
        db.record("carbon", "app1", t(0), 0.5);
        db
    }

    #[test]
    fn record_and_query() {
        let db = sample_db();
        assert_eq!(db.latest("power", "c1"), Some(4.0));
        assert_eq!(db.value_at("power", "c1", t(90)), Some(2.0));
        assert_eq!(db.mean("power", "c1", t(0), t(240)), Some(2.5));
        assert_eq!(db.sum("power", "c1", t(0), t(240)), Some(10.0));
        assert_eq!(db.percentile("power", "c1", t(0), t(240), 50.0), Some(2.5));
    }

    #[test]
    fn missing_series_queries() {
        let db = sample_db();
        assert_eq!(db.latest("power", "ghost"), None);
        assert_eq!(db.mean("ghost", "c1", t(0), t(100)), None);
        assert_eq!(db.integrate("ghost", "c1", t(0), t(100)), 0.0);
    }

    #[test]
    fn integrate_power_series() {
        let mut db = Tsdb::new();
        db.record("power", "c1", t(0), 60.0); // 60 W for 60 s
        db.record("power", "c1", t(60), 0.0);
        let ws = db.integrate("power", "c1", t(0), t(120));
        assert_eq!(ws, 3600.0); // 1 Wh in watt-seconds
    }

    #[test]
    fn subjects_listing() {
        let db = sample_db();
        assert_eq!(db.subjects_of("power"), vec!["c1", "c2"]);
        assert_eq!(db.subjects_of("carbon"), vec!["app1"]);
        assert!(db.subjects_of("nothing").is_empty());
    }

    #[test]
    fn counts() {
        let db = sample_db();
        assert_eq!(db.series_count(), 3);
    }

    #[test]
    fn debug_shows_the_series_in_name_order() {
        let mut reversed = Tsdb::new();
        reversed.record("carbon", "app1", t(0), 0.5);
        reversed.record("power", "c2", t(0), 10.0);
        for (i, v) in [1.0, 2.0, 3.0, 4.0].iter().enumerate() {
            reversed.record("power", "c1", t(i as u64 * 60), *v);
        }
        let shown = format!("{:?}", sample_db());
        assert_eq!(format!("{reversed:?}"), shown);
        assert!(shown.starts_with(r#"{("carbon", "app1"): "#), "{shown}");
    }

    #[test]
    fn iter_visits_all_series() {
        let db = sample_db();
        assert_eq!(db.iter().count(), 3);
    }
}
