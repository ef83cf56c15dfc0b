//! Naming a series costs its subject, not its name: gates on the
//! telemetry store's index.
//!
//! Every tenant adds about a dozen series and two or three subjects to the
//! store, and every one of them is named whenever the ecovisor's
//! telemetry is read by name. The store interns names, so naming
//! `M` metrics × `S` subjects allocates a small constant per subject (its
//! string) plus the regrowth of a few vectors and tables; it used to
//! allocate a string per series, `M × S` of them. And the index costs a
//! constant per name whatever the names are: a store of `N` distinct
//! metrics and `N` distinct subjects must not cost `N²`. The series here
//! are empty, so nothing is counted but the index.
//!
//! CI runs this suite in `--release` as well; the counts are the same in
//! both.

use power_telemetry::{metrics, Tsdb};
use simkit::series::TimeSeries;

#[path = "../../../vendor/serde/tests/common/counting_alloc.rs"]
mod counting_alloc;

/// Ten names of the kind a store holds; the index, not which metrics
/// settlement writes, is what is measured here.
const METRICS: [&str; 10] = [
    metrics::APP_POWER,
    "grid_power_w",
    metrics::SOLAR_POWER,
    metrics::BATTERY_DISCHARGE,
    metrics::BATTERY_CHARGE,
    "battery_level_wh",
    metrics::BATTERY_SOC,
    metrics::CARBON_RATE,
    "carbon_total_g",
    metrics::CONTAINER_COUNT,
];
const SUBJECTS: usize = 1_000;

/// One string per subject, and the regrowth of the tables and vectors of
/// names and series numbers. Measured: 1,074; a string per series was
/// 11,574.
const BOUND: usize = SUBJECTS * 5 / 4;

/// `f`'s result and the allocations it made on this thread.
fn allocations_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = counting_alloc::allocations();
    let out = f();
    (out, (counting_alloc::allocations() - before) as usize)
}

#[test]
fn naming_allocates_per_subject_not_per_series() {
    let subjects: Vec<String> = (0..SUBJECTS).map(|i| format!("app{i}")).collect();
    let name_all = |db: &mut Tsdb| {
        for subject in &subjects {
            for metric in METRICS {
                db.insert(metric, subject, TimeSeries::new());
            }
        }
    };
    let (mut db, naming) = allocations_of(|| {
        let mut db = Tsdb::new();
        name_all(&mut db);
        db
    });
    assert_eq!(db.series_count(), METRICS.len() * SUBJECTS);
    assert!(
        naming <= BOUND,
        "naming {} metrics x {SUBJECTS} subjects made {naming} allocations: \
         a string per series would be {}",
        METRICS.len(),
        METRICS.len() * SUBJECTS
    );
    let ((), hits) = allocations_of(|| name_all(&mut db));
    assert_eq!(hits, 0, "a hit allocates nothing");
}

/// What naming `PAIRS` pairs, each with a metric and a subject of its
/// own, may ask the allocator for per pair: two short strings, a slot in
/// each table and a series, each vector and table counted with its
/// regrowth. Measured: 551. A dense table of metrics by subjects
/// would ask for over `PAIRS × 4` bytes per pair.
const BYTES_PER_DISTINCT_PAIR: u64 = 1024;

#[test]
fn distinct_names_cost_a_constant_each_not_a_table_of_both() {
    const PAIRS: usize = 4_000;
    let names: Vec<(String, String)> = (0..PAIRS)
        .map(|i| (format!("m{i}"), format!("s{i}")))
        .collect();
    let before = counting_alloc::requested_bytes();
    let mut db = Tsdb::new();
    for (metric, subject) in &names {
        db.insert(metric, subject, TimeSeries::new());
    }
    let requested = counting_alloc::requested_bytes() - before;
    assert_eq!(db.series_count(), PAIRS);
    assert!(
        requested <= BYTES_PER_DISTINCT_PAIR * PAIRS as u64,
        "naming {PAIRS} pairs of distinct names asked for {requested} bytes, \
         {} a pair",
        requested / PAIRS as u64
    );
}
