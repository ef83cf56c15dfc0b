//! Operational observability primitives: metrics and structured logging.
//!
//! The rest of this crate measures the *simulated* energy system; this
//! module measures the *serving runtime itself* — counters, gauges, and
//! latency histograms cheap enough for the dispatch hot path, plus a
//! structured leveled logging facade replacing bare `eprintln!`.
//!
//! Two rules keep observability out of the determinism contract (see
//! `docs/OBSERVABILITY.md`):
//!
//! 1. **Metrics are a write-only side channel.** Nothing read from a
//!    counter, gauge, or histogram ever flows into protocol responses,
//!    trace bytes, or settlement arithmetic.
//! 2. **Wall-clock readings stay inside the registry.** Histograms store
//!    durations (and never absolute timestamps); simulation-side series
//!    are labeled by tick, not by host time.
//!
//! # Example
//!
//! ```
//! use power_telemetry::ops::Registry;
//!
//! let registry = Registry::new();
//! let frames = registry.counter("transport.frames_in_total");
//! frames.add(3);
//! let latency = registry.histogram("transport.serve_latency_ns");
//! latency.record(1_500);
//! let snap = registry.snapshot();
//! assert_eq!(snap.metrics.len(), 2);
//! ```

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

// ----------------------------------------------------------------------
// Metric primitives
// ----------------------------------------------------------------------

/// Number of cells a [`Counter`] stripes its increments across. Each
/// cell sits on its own cache line, so threads hammering the same
/// counter (worker pools, concurrent dispatch) do not bounce one line.
const COUNTER_SHARDS: usize = 8;

/// Number of log2 buckets a [`Histogram`] carries. Bucket `i` counts
/// values in `[2^i, 2^(i+1))` (bucket 0 also takes zero); bucket 31 is
/// the overflow bucket. In nanoseconds that spans 1 ns to ~2 s, which
/// covers every latency this runtime produces.
const HISTOGRAM_BUCKETS: usize = 32;

/// One cache-line-padded counter cell.
#[derive(Default)]
#[repr(align(64))]
struct Cell(AtomicU64);

/// Monotonically increasing sharded counter.
///
/// `add` is one relaxed atomic RMW on a thread-striped cell — cheap
/// enough for per-batch accounting on the dispatch hot path. `value`
/// sums the cells (reads are rare; writes are the hot side).
pub struct Counter {
    cells: [Cell; COUNTER_SHARDS],
}

/// Process-wide source of thread stripe indices.
static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's counter stripe, assigned once on first use.
    static STRIPE: usize = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % COUNTER_SHARDS;
}

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Counter {
        Counter {
            cells: Default::default(),
        }
    }

    /// Adds `n` to this thread's stripe.
    #[inline]
    pub fn add(&self, n: u64) {
        let stripe = STRIPE.with(|s| *s);
        self.cells[stripe].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current total (sum over stripes).
    pub fn value(&self) -> u64 {
        self.cells.iter().map(|c| c.0.load(Ordering::Relaxed)).sum()
    }
}

impl Default for Counter {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Counter").field(&self.value()).finish()
    }
}

/// An instantaneous signed level (queue depths, backlog sizes).
///
/// Unlike a [`Counter`] it can go down; unlike the leak-gated
/// [`crate::Tsdb`] series it is not tick-addressed — it is whatever the
/// level is *now*.
#[derive(Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A zeroed gauge.
    fn new() -> Gauge {
        Gauge(AtomicI64::new(0))
    }

    /// Sets the level outright.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Moves the level up by `n`.
    #[inline]
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Moves the level down by `n`.
    #[inline]
    pub fn sub(&self, n: i64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current level.
    fn value(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Gauge").field(&self.value()).finish()
    }
}

/// Fixed log2-bucket latency histogram.
///
/// Values are dimensionless `u64`s by convention recorded in
/// nanoseconds (`*_ns` metric names). Recording is one bucket index
/// computation plus three relaxed atomic adds — no allocation, no lock,
/// no floating point.
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

/// The log2 bucket for `v`: `[2^i, 2^(i+1))`, clamped into the overflow
/// bucket. Zero lands in bucket 0.
#[inline]
fn bucket_index(v: u64) -> usize {
    ((64 - v.leading_zeros()) as usize)
        .saturating_sub(1)
        .min(HISTOGRAM_BUCKETS - 1)
}

impl Histogram {
    /// A zeroed histogram.
    fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Records a wall-clock duration in nanoseconds (saturating: a
    /// >580-year observation would be a clock bug, not a latency).
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Number of observations so far.
    fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations so far.
    fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// A serializable copy of the current state (sparse: only non-empty
    /// buckets).
    fn snapshot(&self) -> HistogramSnapshot {
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then_some((u32::try_from(i).unwrap_or(u32::MAX), n))
            })
            .collect();
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            buckets,
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .finish_non_exhaustive()
    }
}

// ----------------------------------------------------------------------
// Registry + serializable snapshots
// ----------------------------------------------------------------------

/// A handle held inside the registry map.
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// Name-addressed metric registry.
///
/// `counter`/`gauge`/`histogram` get-or-register: callers hold the
/// returned `Arc` and record through it lock-free; the registry's mutex
/// is touched only at registration and snapshot time. Registering a
/// name twice returns the same instrument; registering it as a
/// *different kind* returns a fresh unregistered instrument (the first
/// kind wins the name) rather than panicking — a naming bug must never
/// take down the serving runtime.
#[derive(Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Get-or-register the counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut metrics = lock(&self.metrics);
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::new())))
        {
            Metric::Counter(c) => Arc::clone(c),
            _ => Arc::new(Counter::new()),
        }
    }

    /// Get-or-register the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut metrics = lock(&self.metrics);
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::new())))
        {
            Metric::Gauge(g) => Arc::clone(g),
            _ => Arc::new(Gauge::new()),
        }
    }

    /// Get-or-register the histogram `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut metrics = lock(&self.metrics);
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new())))
        {
            Metric::Histogram(h) => Arc::clone(h),
            _ => Arc::new(Histogram::new()),
        }
    }

    /// A serializable point-in-time dump of every registered metric, in
    /// name order. Each value is read atomically; the set is not a
    /// transaction (same contract as the transport's `ServerStats`).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let metrics = lock(&self.metrics);
        MetricsSnapshot {
            metrics: metrics
                .iter()
                .map(|(name, m)| MetricEntry {
                    name: name.clone(),
                    value: match m {
                        Metric::Counter(c) => MetricValue::Counter(c.value()),
                        Metric::Gauge(g) => MetricValue::Gauge(g.value()),
                        Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                    },
                })
                .collect(),
        }
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("metrics", &lock(&self.metrics).len())
            .finish()
    }
}

/// Poison-tolerant lock helper (metrics must survive a panicking peer).
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Serializable state of one [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// `(bucket index, count)` for each non-empty log2 bucket; bucket
    /// `i` counts values in `[2^i, 2^(i+1))`.
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSnapshot {
    /// Mean observation, zero when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Serializable value of one registered metric.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum MetricValue {
    /// A monotonic counter's total.
    Counter(u64),
    /// A gauge's instantaneous level.
    Gauge(i64),
    /// A histogram's buckets.
    Histogram(HistogramSnapshot),
}

/// One named metric inside a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MetricEntry {
    /// Registered name (see the catalogue in `docs/OBSERVABILITY.md`).
    pub name: String,
    /// The value at snapshot time.
    pub value: MetricValue,
}

/// A point-in-time dump of a whole [`Registry`], ordered by name. This
/// is the payload the v2 `Stats` admin request returns over the wire.
#[derive(Debug, Clone, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct MetricsSnapshot {
    /// Every registered metric, in name order.
    pub metrics: Vec<MetricEntry>,
}

impl MetricsSnapshot {
    /// Looks up a metric by exact name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.metrics
            .iter()
            .find(|e| e.name == name)
            .map(|e| &e.value)
    }

    /// A counter's value, `None` when absent or not a counter.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name)? {
            MetricValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// A histogram's snapshot, `None` when absent or not a histogram.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.get(name)? {
            MetricValue::Histogram(h) => Some(h),
            _ => None,
        }
    }
}

// ----------------------------------------------------------------------
// Structured leveled logging
// ----------------------------------------------------------------------

/// Log severity, most severe first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// The runtime is dropping work or state.
    Error = 1,
    /// Something unexpected the runtime recovered from.
    Warn = 2,
    /// Coarse lifecycle events.
    Info = 3,
    /// Per-connection noise.
    Debug = 4,
    /// Everything, including per-frame events (max verbosity).
    Trace = 5,
}

impl Level {
    /// Stable lowercase name.
    fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }

    fn from_u8(v: u8) -> Option<Level> {
        match v {
            1 => Some(Level::Error),
            2 => Some(Level::Warn),
            3 => Some(Level::Info),
            4 => Some(Level::Debug),
            5 => Some(Level::Trace),
            _ => None,
        }
    }

    /// Parses `"error" | "warn" | "info" | "debug" | "trace" | "off"`
    /// (the `ECOVISOR_LOG` grammar). `None` for `"off"` or anything
    /// unrecognized.
    fn parse(s: &str) -> Option<Level> {
        match s.trim().to_ascii_lowercase().as_str() {
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            "trace" => Some(Level::Trace),
            _ => None,
        }
    }
}

/// Level filter: 0 = uninitialized (read `ECOVISOR_LOG` lazily),
/// 6 = off, else a [`Level`] discriminant.
static MAX_LEVEL: AtomicU8 = AtomicU8::new(0);
const LEVEL_OFF: u8 = 6;

/// The active level filter. Initialized from `ECOVISOR_LOG` on first
/// use (default: `warn`); override with [`set_max_level`].
pub fn max_level() -> Option<Level> {
    let raw = MAX_LEVEL.load(Ordering::Relaxed);
    if raw != 0 {
        return Level::from_u8(raw);
    }
    let level = match std::env::var("ECOVISOR_LOG") {
        Ok(s) => Level::parse(&s),
        Err(_) => Some(Level::Warn),
    };
    MAX_LEVEL.store(level.map_or(LEVEL_OFF, |l| l as u8), Ordering::Relaxed);
    level
}

/// Overrides the level filter (`None` = off). Takes precedence over
/// `ECOVISOR_LOG` from this point on.
pub fn set_max_level(level: Option<Level>) {
    MAX_LEVEL.store(level.map_or(LEVEL_OFF, |l| l as u8), Ordering::Relaxed);
}

/// `true` when a record at `level` would be kept.
#[inline]
pub fn enabled(level: Level) -> bool {
    max_level().is_some_and(|max| level <= max)
}

/// Emits one structured record to stderr as one line,
/// `[level] target: message k=v …`. Prefer the leveled wrappers
/// ([`warn`], [`info`], …).
pub fn log(level: Level, target: &str, message: &str, fields: &[(&str, String)]) {
    if !enabled(level) {
        return;
    }
    let mut line = format!("[{:5}] {target}: {message}", level.as_str());
    for (k, v) in fields {
        line.push_str(&format!(" {k}={v}"));
    }
    // One write call per record so concurrent emitters do not
    // interleave mid-line.
    line.push('\n');
    let _ = std::io::stderr().write_all(line.as_bytes());
}

/// Emits at [`Level::Error`].
pub fn error(target: &str, message: &str, fields: &[(&str, String)]) {
    log(Level::Error, target, message, fields);
}

/// Emits at [`Level::Warn`].
pub fn warn(target: &str, message: &str, fields: &[(&str, String)]) {
    log(Level::Warn, target, message, fields);
}

/// Emits at [`Level::Info`].
pub fn info(target: &str, message: &str, fields: &[(&str, String)]) {
    log(Level::Info, target, message, fields);
}

/// Emits at [`Level::Debug`].
pub fn debug(target: &str, message: &str, fields: &[(&str, String)]) {
    log(Level::Debug, target, message, fields);
}

/// Emits at [`Level::Trace`].
pub fn trace(target: &str, message: &str, fields: &[(&str, String)]) {
    log(Level::Trace, target, message, fields);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates_across_threads() {
        let c = Arc::new(Counter::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.value(), 4000);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let g = Gauge::new();
        g.add(5);
        g.sub(2);
        assert_eq!(g.value(), 3);
        g.set(-1);
        assert_eq!(g.value(), -1);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(1023), 9);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn histogram_snapshot_is_sparse_and_consistent() {
        let h = Histogram::new();
        h.record(1);
        h.record(1);
        h.record(100);
        let snap = h.snapshot();
        assert_eq!(snap.count, 3);
        assert_eq!(snap.sum, 102);
        assert_eq!(snap.buckets, vec![(0, 2), (6, 1)]);
        assert!((snap.mean() - 34.0).abs() < 1e-9);
    }

    #[test]
    fn registry_returns_shared_instruments() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.inc();
        b.inc();
        assert_eq!(r.snapshot().counter("x"), Some(2));
        // A kind collision yields a detached instrument, not a panic,
        // and the original keeps the name.
        let g = r.gauge("x");
        g.set(9);
        assert_eq!(r.snapshot().counter("x"), Some(2));
    }

    #[test]
    fn snapshot_round_trips_both_codecs() {
        let r = Registry::new();
        r.counter("a").add(7);
        r.gauge("b").set(-3);
        r.histogram("c").record(1000);
        let snap = r.snapshot();
        let json = serde::json::to_string(&snap);
        let back: MetricsSnapshot = serde::json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        let bin = serde::binary::to_bytes(&snap);
        let back: MetricsSnapshot = serde::binary::from_bytes(&bin).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn level_parse_and_order() {
        assert_eq!(Level::parse("TRACE"), Some(Level::Trace));
        assert_eq!(Level::parse("off"), None);
        assert!(Level::Error < Level::Trace);
    }
}
