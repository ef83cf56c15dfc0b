//! Corpus-driven replay throughput: the regression benchmark every perf
//! PR (async dispatch, borrowed decode, …) measures itself against.
//!
//! One iteration = one full recorded multi-tenant day replayed at its
//! recorded tick cadence: dispatch every recorded batch into the tick
//! it was recorded in, settle, regenerate event frames. Resumed
//! artifacts restore their base checkpoint first and replay the
//! remainder of the day, exactly as the verifier does. One row per
//! scenario, `replay_plain/<scenario>` —
//! [`Ecovisor::replay_trace_from`](ecovisor::Ecovisor::replay_trace_from),
//! the one replay loop (the row keeps the name its committed baseline
//! was recorded under).
//!
//! The harness asserts once per scenario that the replay settles the
//! recorded totals digest — a bench run on a build that broke
//! bit-identical replay panics instead of publishing a number.
//! `BENCH_corpus_replay.json` in the crate root holds the committed
//! baseline (with machine-readable `host` metadata).

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};

use ecoharness::artifact::artifacts_in_dir;
use ecoharness::{build_ecovisor, ScenarioArtifact};
use ecovisor::digest;

fn corpus() -> Vec<ScenarioArtifact> {
    let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../corpus");
    artifacts_in_dir(&dir)
        .expect("corpus directory exists")
        .iter()
        .map(|p| {
            ScenarioArtifact::load(p)
                .unwrap_or_else(|e| panic!("{}: {e}", p.display()))
                .0
        })
        .collect()
}

/// Builds the ecovisor a replay starts from. A resumed artifact
/// (non-empty `base`) records only the ticks after its base
/// checkpoint, so the replay — like the verifier's — must restore that
/// snapshot first and start from its tick; everything else starts
/// fresh at tick 0.
fn seed(artifact: &ScenarioArtifact) -> (ecovisor::Ecovisor, Vec<ecovisor::AppId>, u64) {
    let (mut eco, ids) = build_ecovisor(&artifact.spec).expect("build");
    let start = match &artifact.base {
        None => 0,
        Some(base) => {
            let snap = base.decode().expect("base checkpoint decodes");
            eco.apply_snapshot(&snap).expect("base checkpoint restores");
            base.tick
        }
    };
    (eco, ids, start)
}

/// Replays the artifact, returning the totals digest.
fn replay_plain(artifact: &ScenarioArtifact) -> u64 {
    let (mut eco, ids, start) = seed(artifact);
    eco.replay_trace_from(&artifact.trace, start, artifact.spec.ticks);
    let apps: Vec<ecoharness::AppOutcome> = ids
        .iter()
        .map(|&app| ecoharness::AppOutcome::read(&eco, app).expect("registered"))
        .collect();
    digest(&apps)
}

fn bench_corpus_replay(c: &mut Criterion) {
    ecovisor_bench::host::print_banner("corpus_replay");
    let artifacts = corpus();
    assert!(
        artifacts.len() >= 6,
        "committed corpus missing scenarios ({})",
        artifacts.len()
    );

    // Replay must still be bit-identical before any number is recorded.
    for artifact in &artifacts {
        let expected = artifact.expected.totals_digest;
        assert_eq!(
            replay_plain(artifact),
            expected,
            "{}: replay diverged — fix correctness before benching",
            artifact.spec.name
        );
    }

    let mut group = c.benchmark_group("corpus_replay");
    for artifact in &artifacts {
        group.bench_with_input(
            BenchmarkId::new("replay_plain", &artifact.spec.name),
            artifact,
            |b, artifact| {
                b.iter_batched(|| (), |()| replay_plain(artifact), BatchSize::PerIteration);
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_corpus_replay);
criterion_main!(benches);
