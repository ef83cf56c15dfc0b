//! Fuzz-pipeline throughput: how many generated specs per minute the
//! `ecoharness fuzz` campaign can push through its stages — the number
//! that sizes a fuzz budget (CI smoke count, overnight campaign width).
//!
//! Rows, in pipeline order:
//!
//! * `generate` — drawing one candidate from the seeded spec space
//!   (pure, no I/O): the cost floor of enumerating the campaign;
//! * `record/<i>` — recording a candidate into a full artifact
//!   (drivers + trace + expected outcome + checkpoints);
//! * `check_in_process/<i>` — the full per-candidate verdict without
//!   the live transport: record plus the in-process verify matrix
//!   (one replay from the start plus one per checkpoint);
//! * `check_with_transport` — one candidate through the whole matrix
//!   including the live evented server cells (loopback, port 0).
//!
//! The harness asserts the benched candidates actually pass before any
//! number is recorded — a bench run on a build that broke replay
//! panics instead of publishing a throughput figure.
//! `BENCH_fuzz_throughput.json` in the crate root holds the committed
//! baseline.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};

use ecoharness::fuzz::{check, generate, record_candidate};

/// The CI smoke campaign's seed: the benched candidates are the exact
/// specs `fuzz --seed 0x5EEDF072` draws first.
const SEED: u64 = 0x5EED_F072;

fn bench_fuzz_throughput(c: &mut Criterion) {
    ecovisor_bench::host::print_banner("fuzz_throughput");

    // Correctness gate: every benched candidate must hold a clean
    // verdict before its cost is worth reporting.
    for i in 0..3 {
        let candidate = generate(SEED, i);
        assert_eq!(
            check(&candidate, None, false).expect("checkable"),
            None,
            "candidate #{i} fails the in-process matrix — fix correctness before benching"
        );
    }

    let mut group = c.benchmark_group("fuzz_throughput");

    group.bench_function("generate", |b| {
        let mut index = 0u64;
        b.iter(|| {
            index = (index + 1) % 256;
            generate(SEED, index)
        });
    });

    for i in 0..3u64 {
        let candidate = generate(SEED, i);
        group.bench_with_input(BenchmarkId::new("record", i), &candidate, |b, candidate| {
            b.iter_batched(
                || (),
                |()| record_candidate(candidate, None).expect("recordable"),
                BatchSize::PerIteration,
            );
        });
        group.bench_with_input(
            BenchmarkId::new("check_in_process", i),
            &candidate,
            |b, candidate| {
                b.iter_batched(
                    || (),
                    |()| check(candidate, None, false).expect("checkable"),
                    BatchSize::PerIteration,
                );
            },
        );
    }

    // One full-matrix cell including the live evented transport. Binds
    // 127.0.0.1:0 per iteration, so parallel bench shards can't collide.
    let candidate = generate(SEED, 0);
    group.bench_function("check_with_transport", |b| {
        b.iter_batched(
            || (),
            |()| check(&candidate, None, true).expect("checkable"),
            BatchSize::PerIteration,
        );
    });

    group.finish();
}

criterion_group!(benches, bench_fuzz_throughput);
criterion_main!(benches);
