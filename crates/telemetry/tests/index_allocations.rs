//! Naming a series costs its subject, not its name: gates on the
//! telemetry store's index.
//!
//! Every tenant adds about a dozen series and two or three subjects to the
//! store, and every one of them is named once in a fresh world's first
//! tick and again by every restore. The store interns names, so naming
//! `M` metrics × `S` subjects allocates a small constant per subject (its
//! string) plus the regrowth of a few vectors and tables; it used to
//! allocate a string per series, `M × S` of them. And the index costs a
//! constant per name whatever the names are, in memory and in time: a
//! store of `N` distinct metrics and `N` distinct subjects, or one subject
//! with `N` metrics, which a snapshot can carry, must not cost `N²`. The
//! series here are empty, so nothing is counted but the index.
//!
//! CI runs this suite in `--release` as well; the counts are the same in
//! both, and the one timed test compares two shapes within one run.

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
/// names and series numbers. Measured: 1,074 naming, 1,052 decoding (1,074
/// while decoding named each series like a writer and regrew from
/// empty); a string per series was 11,574.
const BOUND: usize = SUBJECTS * 5 / 4;

/// `f`'s result and the allocations it made on this thread.
fn allocations_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = counting_alloc::allocations();
    let out = f();
    (out, (counting_alloc::allocations() - before) as usize)
}

#[test]
fn naming_and_decoding_allocate_per_subject_not_per_series() {
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

    let bytes = serde::binary::to_bytes(&db);
    let (decoded, decoding) =
        allocations_of(|| serde::binary::from_bytes::<Tsdb>(&bytes).expect("own encoding decodes"));
    assert_eq!(serde::binary::to_bytes(&decoded), bytes);
    assert!(
        decoding <= BOUND,
        "decoding {} series of {SUBJECTS} subjects made {decoding} allocations",
        METRICS.len() * SUBJECTS
    );
}

/// What decoding a store of `pairs` pairs, each with a metric and a
/// subject of its own, may ask the allocator for per pair: two short
/// strings, a slot in each table and a series, each vector and table
/// counted with its regrowth. Measured: 537. A dense table of metrics
/// by subjects would ask for over `pairs × 4` bytes per pair.
const BYTES_PER_DISTINCT_PAIR: u64 = 1024;

#[test]
fn distinct_names_cost_a_constant_each_not_a_table_of_both() {
    const PAIRS: usize = 4_000;
    let mut db = Tsdb::new();
    for i in 0..PAIRS {
        db.insert(&format!("m{i}"), &format!("s{i}"), TimeSeries::new());
    }
    let bytes = serde::binary::to_bytes(&db);
    let before = counting_alloc::requested_bytes();
    let decoded: Tsdb = serde::binary::from_bytes(&bytes).expect("own encoding decodes");
    let requested = counting_alloc::requested_bytes() - before;
    assert_eq!(decoded.series_count(), PAIRS);
    assert!(
        requested <= BYTES_PER_DISTINCT_PAIR * PAIRS as u64,
        "decoding {PAIRS} pairs of distinct names asked for {requested} bytes"
    );
}

/// The bytes of a store of `pairs` empty series named by `name(i)`.
fn store_bytes(pairs: usize, name: impl Fn(usize) -> (String, String)) -> Vec<u8> {
    let mut db = Tsdb::new();
    for i in 0..pairs {
        let (metric, subject) = name(i);
        db.insert(&metric, &subject, TimeSeries::new());
    }
    serde::binary::to_bytes(&db)
}

/// The fastest of three decodes of `bytes`.
fn best_decode(bytes: &[u8]) -> std::time::Duration {
    (0..3)
        .map(|_| {
            let start = std::time::Instant::now();
            let db: Tsdb = serde::binary::from_bytes(bytes).expect("own encoding decodes");
            let took = start.elapsed();
            drop(db);
            took
        })
        .min()
        .expect("three runs")
}

/// A snapshot can give one subject as many metrics as it likes (a
/// migrating tenant's own subject, for one): naming must not walk what a
/// subject or a metric already has. Decoding one subject with `PAIRS`
/// metrics costs what decoding `PAIRS` subjects of one metric does, which
/// is the same work with the two names swapped (measured: within 1 %).
/// An index that walked a subject's series to name a new one makes the
/// first shape quadratic: 52 times the second in debug, 89 in release. A
/// map of maps, metric then subject, reads 1.4 and 1.9. The comparison is
/// within one process, so only the host's noise between the two shapes
/// counts against it.
#[test]
fn one_subject_with_many_metrics_decodes_like_many_subjects_with_one() {
    const PAIRS: usize = 16_000;
    let deep = store_bytes(PAIRS, |i| (format!("m{i}"), "s".to_owned()));
    let wide = store_bytes(PAIRS, |i| ("m".to_owned(), format!("s{i}")));
    let (deep, wide) = (best_decode(&deep), best_decode(&wide));
    assert!(
        deep <= wide * 4,
        "one subject x {PAIRS} metrics decoded in {deep:?}, \
         {PAIRS} subjects x one metric in {wide:?}"
    );
}
