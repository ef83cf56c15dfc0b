//! In-memory time-series database with interval queries.

use std::collections::{BTreeMap, BTreeSet};

use serde::{binary, Deserialize, Serialize, Value};

use simkit::series::TimeSeries;
use simkit::time::SimTime;

/// Addresses one series: a metric name plus a subject (container, app, or
/// system). The key type of the at-rest form (see [`Tsdb`]).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SeriesKey {
    /// Metric name (see [`crate::metrics`]).
    pub metric: String,
    /// Subject identifier, e.g. `"c3"`, `"app1"`, `"system"`.
    pub subject: String,
}

impl SeriesKey {
    /// Builds a key.
    pub fn new(metric: impl Into<String>, subject: impl Into<String>) -> Self {
        Self {
            metric: metric.into(),
            subject: subject.into(),
        }
    }
}

/// Handle of one stored series: an index into the store, found or made by
/// [`Tsdb::series_id`]. It stays valid while the store only gains series
/// ([`Tsdb::record`], [`Tsdb::merge_from`]); [`Tsdb::remove_subjects`]
/// renumbers what is left, and a store that replaces this one numbers its
/// own, so a holder drops its handles at either.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeriesId(u32);

/// The time-series store.
///
/// All queries take half-open windows `[from, to)`. Writes must be
/// time-ordered per series (enforced by [`TimeSeries`]).
///
/// Series are held densely behind [`SeriesId`] handles, so a writer that
/// keeps its handles appends with an indexed push; names are resolved
/// through a `metric → subject → handle` index without allocating.
/// Serialized, the store is what a `BTreeMap<SeriesKey, TimeSeries>`
/// field named `series` would be — a sequence of `[SeriesKey,
/// TimeSeries]` pairs in `(metric, subject)` string order — whatever
/// order the series were created in.
#[derive(Debug, Clone, Default)]
pub struct Tsdb {
    series: Vec<TimeSeries>,
    index: BTreeMap<String, BTreeMap<String, SeriesId>>,
}

impl Tsdb {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    fn lookup(&self, metric: &str, subject: &str) -> Option<SeriesId> {
        self.index.get(metric)?.get(subject).copied()
    }

    /// The handle of `(metric, subject)`, creating the (empty) series if
    /// the store does not have it. A hit allocates nothing.
    pub fn series_id(&mut self, metric: &str, subject: &str) -> SeriesId {
        if !self.index.contains_key(metric) {
            self.index.insert(metric.to_owned(), BTreeMap::new());
        }
        let by_subject = self
            .index
            .get_mut(metric)
            .expect("present or just inserted");
        if let Some(&id) = by_subject.get(subject) {
            return id;
        }
        let id = SeriesId(u32::try_from(self.series.len()).expect("fewer than 2^32 series"));
        by_subject.insert(subject.to_owned(), id);
        self.series.push(TimeSeries::new());
        id
    }

    /// Stores `series` as `(metric, subject)`, over any series already
    /// there.
    fn put(&mut self, metric: &str, subject: &str, series: TimeSeries) {
        let id = self.series_id(metric, subject);
        self.series[id.0 as usize] = series;
    }

    /// Appends a sample to the series behind `id`, which must be a live
    /// handle of this store: a dead one names some other series, or
    /// panics.
    pub fn append(&mut self, id: SeriesId, at: SimTime, value: f64) {
        self.series[id.0 as usize].push(at, value);
    }

    /// Appends a sample to `(metric, subject)`.
    pub fn record(&mut self, metric: &str, subject: &str, at: SimTime, value: f64) {
        let id = self.series_id(metric, subject);
        self.append(id, at, value);
    }

    /// The series behind `id`, which must be a live handle of this store.
    pub fn get(&self, id: SeriesId) -> &TimeSeries {
        &self.series[id.0 as usize]
    }

    /// The series for `(metric, subject)`, if the store has it.
    pub fn series(&self, metric: &str, subject: &str) -> Option<&TimeSeries> {
        self.lookup(metric, subject).map(|id| self.get(id))
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
        self.index
            .get(metric)
            .map(|by_subject| by_subject.keys().map(String::as_str).collect())
            .unwrap_or_default()
    }

    /// Number of stored series.
    pub fn series_count(&self) -> usize {
        self.series.len()
    }

    /// Total number of stored samples across all series.
    pub fn sample_count(&self) -> usize {
        self.series.iter().map(TimeSeries::len).sum()
    }

    /// Iterates over all `(metric, subject, series)` in `(metric,
    /// subject)` string order (the order CSV export and the at-rest form
    /// use).
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str, &TimeSeries)> {
        self.index.iter().flat_map(move |(metric, by_subject)| {
            by_subject
                .iter()
                .map(move |(subject, &id)| (metric.as_str(), subject.as_str(), self.get(id)))
        })
    }

    /// A copy of every series whose subject is in `subjects` (a migrating
    /// tenant's app and container series, for example).
    pub fn extract_subjects(&self, subjects: &BTreeSet<String>) -> Tsdb {
        let mut out = Tsdb::new();
        for (metric, subject, series) in self.iter() {
            if subjects.contains(subject) {
                out.put(metric, subject, series.clone());
            }
        }
        out
    }

    /// Removes every series whose subject is in `subjects`. The series
    /// that stay are renumbered: every [`SeriesId`] taken before this call
    /// is dead.
    pub fn remove_subjects(&mut self, subjects: &BTreeSet<String>) {
        let mut old = std::mem::take(&mut self.series);
        for by_subject in self.index.values_mut() {
            by_subject.retain(|subject, id| {
                if subjects.contains(subject) {
                    return false;
                }
                let kept = std::mem::take(&mut old[id.0 as usize]);
                *id = SeriesId(self.series.len() as u32);
                self.series.push(kept);
                true
            });
        }
        self.index.retain(|_, by_subject| !by_subject.is_empty());
    }

    /// Subjects that have at least one series, in order.
    pub fn all_subjects(&self) -> BTreeSet<String> {
        self.iter()
            .map(|(_, subject, _)| subject.to_owned())
            .collect()
    }

    /// Moves every series of `other` into this store. Handles into this
    /// store stay valid.
    ///
    /// # Errors
    ///
    /// A `(metric, subject)` collision aborts the merge with a
    /// description before anything is moved — callers separate subject
    /// namespaces (per-app and per-container ids), so a collision means
    /// the same entity exists on both sides.
    pub fn merge_from(&mut self, mut other: Tsdb) -> Result<(), String> {
        if let Some((metric, subject, _)) = other
            .iter()
            .find(|(metric, subject, _)| self.lookup(metric, subject).is_some())
        {
            return Err(format!(
                "series ({metric}, {subject}) exists on both sides of the merge"
            ));
        }
        for (metric, by_subject) in &other.index {
            for (subject, id) in by_subject {
                let moved = std::mem::take(&mut other.series[id.0 as usize]);
                self.put(metric, subject, moved);
            }
        }
        Ok(())
    }
}

impl Serialize for Tsdb {
    fn to_value(&self) -> Value {
        serde::to_value(self)
    }

    fn encode(&self, out: &mut Vec<u8>) {
        binary::write_map(out, 1);
        binary::write_key(out, "series");
        binary::write_seq(out, self.series.len());
        for (metric, subject, series) in self.iter() {
            binary::write_seq(out, 2);
            binary::write_map(out, 2);
            binary::write_key(out, "metric");
            binary::write_str(out, metric);
            binary::write_key(out, "subject");
            binary::write_str(out, subject);
            series.encode(out);
        }
    }
}

/// Reads one pair's `SeriesKey`, borrowed from the input: a restore reads
/// twelve thousand of these and keeps none (the store owns its names).
fn decode_key<'a>(r: &mut binary::Reader<'a>) -> Result<(&'a str, &'a str), serde::Error> {
    let (mut metric, mut subject) = (None, None);
    for _ in 0..r.map()? {
        match r.key()? {
            b"metric" if metric.is_none() => metric = Some(r.str()?),
            b"subject" if subject.is_none() => subject = Some(r.str()?),
            key => r.skip_entry(key)?,
        }
    }
    r.end();
    Ok((
        metric.ok_or_else(|| binary::missing_field("metric"))?,
        subject.ok_or_else(|| binary::missing_field("subject"))?,
    ))
}

/// The value of the `series` field: a sequence of `[SeriesKey,
/// TimeSeries]` pairs. Like the map this form is named after, pairs may
/// arrive in any order and a repeated key keeps its last series.
struct Pairs(Tsdb);

impl Deserialize for Pairs {
    fn decode(r: &mut binary::Reader<'_>) -> Result<Self, serde::Error> {
        let mut db = Tsdb::new();
        for _ in 0..r.seq()? {
            r.tuple(2)?;
            let (metric, subject) = decode_key(r)?;
            db.put(metric, subject, TimeSeries::decode(r)?);
            r.end();
        }
        r.end();
        Ok(Pairs(db))
    }
}

/// The struct around them, left to the derive.
#[derive(Deserialize)]
struct AtRest {
    series: Pairs,
}

impl Deserialize for Tsdb {
    fn decode(r: &mut binary::Reader<'_>) -> Result<Self, serde::Error> {
        AtRest::decode(r).map(|at_rest| at_rest.series.0)
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
        assert_eq!(db.sample_count(), 6);
    }

    #[test]
    fn iter_visits_all_series() {
        let db = sample_db();
        assert_eq!(db.iter().count(), 3);
    }
}
