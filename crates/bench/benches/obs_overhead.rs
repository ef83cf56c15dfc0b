//! Instrumentation overhead: what attaching an [`ObsHub`] costs the
//! paths it watches. Two surfaces, two rows each:
//!
//! * `dispatch_hot_path/batch32/{detached,attached}` — the pure
//!   dispatch loop: one tenant hammering 32-request query batches.
//!   `detached` has no hub (the instrumentation folds to a single
//!   `None` branch per batch); `attached` pays the full price: the
//!   requests counter on every batch, and per-kind counts + batch
//!   latency + lock-wait timing on the 1-in-64 sampled batches.
//! * `corpus_replay/mixed-tenants/{detached,attached}` — one full
//!   recorded multi-tenant day replayed end to end (dispatch +
//!   settlement + event regeneration), the macro view of the same
//!   delta.
//!
//! The acceptance bar (ISSUE 10, `BENCH_obs_overhead.json`): attached
//! dispatch overhead **< 2%** at batch size 32. The bench asserts
//! bit-identical replay totals for both modes before timing anything —
//! the observability layer must be a pure side channel even while
//! being measured.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};

use carbon_intel::service::TraceCarbonService;
use container_cop::{AppId, ContainerId, ContainerSpec, CopConfig};
use ecoharness::{build_ecovisor, ScenarioArtifact};
use ecovisor::obs::ObsHub;
use ecovisor::proto::{EnergyRequest, RequestBatch};
use ecovisor::{digest, Ecovisor, EcovisorBuilder, EnergyClient, EnergyShare};
use simkit::time::SimTime;
use simkit::trace::Trace;

const QUERIES_PER_BATCH: usize = 32;
const BATCHES_PER_ITER: usize = 64;

/// One busy tenant on a small cluster.
fn fixture(attach: bool) -> (Ecovisor, AppId, ContainerId) {
    let mut eco = EcovisorBuilder::new()
        .cluster(CopConfig::microserver_cluster(4))
        .carbon(Box::new(TraceCarbonService::new(
            "flat",
            Trace::constant(250.0),
        )))
        .build();
    if attach {
        eco.attach_obs(ObsHub::new());
    }
    let app = eco
        .register_app("tenant", EnergyShare::grid_only())
        .expect("register");
    let mut client = eco.client(app).expect("client");
    let container = client
        .launch_container(ContainerSpec::quad_core())
        .expect("launch");
    client.set_container_demand(container, 1.0).expect("demand");
    drop(client);
    (eco, app, container)
}

/// The read-mostly batch shape shared with the `protocol` bench.
fn query_batch(app: AppId, container: ContainerId) -> RequestBatch {
    use EnergyRequest::*;
    let pattern = [
        GetSolarPower,
        GetGridPower,
        GetGridCarbon,
        GetBatteryChargeLevel,
        GetAppPower,
        GetEffectiveCores,
        GetContainerPower { container },
        GetAppCarbonBetween {
            from: SimTime::EPOCH,
            to: SimTime::from_secs(600),
        },
    ];
    RequestBatch::new(
        app,
        pattern
            .iter()
            .cloned()
            .cycle()
            .take(QUERIES_PER_BATCH)
            .collect(),
    )
}

fn mixed_tenants() -> ScenarioArtifact {
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../corpus/mixed-tenants.scn.bin");
    ScenarioArtifact::load(&path).expect("committed corpus").0
}

/// Replays the day, optionally instrumented, returning the totals
/// digest for the bit-identity assertion. The hub is shared across
/// iterations — a deployed server builds its registry once at bind, so
/// hub construction is setup cost, not steady-state overhead.
fn replay(artifact: &ScenarioArtifact, hub: Option<&std::sync::Arc<ObsHub>>) -> u64 {
    let (mut eco, ids) = build_ecovisor(&artifact.spec).expect("build");
    if let Some(hub) = hub {
        eco.attach_obs(std::sync::Arc::clone(hub));
    }
    eco.replay_trace(&artifact.trace, artifact.spec.ticks);
    let apps: Vec<ecoharness::AppOutcome> = artifact
        .expected
        .apps
        .iter()
        .zip(&ids)
        .map(|(o, &app)| ecoharness::AppOutcome {
            app,
            name: o.name.clone(),
            totals: eco.app_totals(app).expect("registered"),
        })
        .collect();
    digest(&apps)
}

fn bench_obs_overhead(c: &mut Criterion) {
    ecovisor_bench::host::print_banner("obs_overhead");

    // Side-channel check before any timing: instrumented replay settles
    // the recorded digest bit for bit.
    let artifact = mixed_tenants();
    let hub = ObsHub::new();
    for attach in [None, Some(&hub)] {
        assert_eq!(
            replay(&artifact, attach),
            artifact.expected.totals_digest,
            "replay (attached={}) diverged — fix correctness before benching",
            attach.is_some()
        );
    }

    let mut group = c.benchmark_group("obs_overhead");
    for (label, attach) in [("detached", false), ("attached", true)] {
        let (eco, app, container) = fixture(attach);
        let batch = query_batch(app, container);
        group.bench_with_input(
            BenchmarkId::new("dispatch_hot_path/batch32", label),
            &(),
            |b, ()| {
                b.iter(|| {
                    for _ in 0..BATCHES_PER_ITER {
                        std::hint::black_box(eco.dispatch_batch(std::hint::black_box(&batch)));
                    }
                });
            },
        );
    }
    for (label, attach) in [("detached", None), ("attached", Some(&hub))] {
        group.bench_with_input(
            BenchmarkId::new("corpus_replay/mixed-tenants", label),
            &(),
            |b, ()| {
                b.iter_batched(
                    || (),
                    |()| replay(&artifact, attach),
                    BatchSize::PerIteration,
                );
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_obs_overhead);
criterion_main!(benches);
