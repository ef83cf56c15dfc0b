//! Multi-tenant dispatch throughput: N tenant threads hammering query
//! batches during a simulated day against one shared
//! [`ShardedEcovisor`], where query batches take only shard-local read
//! locks and settlement is the sole barrier.
//!
//! One iteration = `TICKS` simulated ticks; in each tick every tenant
//! thread dispatches `BATCHES_PER_TICK` query batches of
//! `QUERIES_PER_BATCH` requests against its own app, then the driver
//! settles the tick. `dispatch_sharded_day/{1,2,4}` is the
//! thread-scaling series; `BENCH_dispatch_sharded.json` in the crate
//! root holds the committed baseline. (That concurrent dispatch settles
//! the same totals as a sequential run is a test, not a bench:
//! `crates/core/tests/shard_parallel.rs`.)

use std::sync::Barrier;

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};

use carbon_intel::service::TraceCarbonService;
use container_cop::{AppId, ContainerId, ContainerSpec, CopConfig};
use ecovisor::proto::{EnergyRequest, RequestBatch};
use ecovisor::{Ecovisor, EcovisorBuilder, EnergyClient, EnergyShare, ShardedEcovisor};
use simkit::time::SimTime;
use simkit::trace::Trace;
use simkit::units::WattHours;

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];
const TICKS: usize = 4;
const BATCHES_PER_TICK: usize = 100;
const QUERIES_PER_BATCH: usize = 32;

/// An ecovisor with one registered (busy) app per tenant thread.
fn fixture(tenants: usize) -> (Ecovisor, Vec<(AppId, ContainerId)>) {
    let mut eco = EcovisorBuilder::new()
        .cluster(CopConfig::microserver_cluster(16))
        .carbon(Box::new(TraceCarbonService::new(
            "flat",
            Trace::constant(250.0),
        )))
        .build();
    let apps = (0..tenants)
        .map(|i| {
            let app = eco
                .register_app(
                    format!("tenant-{i}"),
                    EnergyShare::grid_only()
                        .with_solar_fraction(1.0 / tenants as f64)
                        .with_battery(WattHours::new(1440.0 / tenants as f64)),
                )
                .expect("register");
            let mut client = eco.client(app).expect("client");
            let c = client
                .launch_container(ContainerSpec::quad_core())
                .expect("launch");
            client.set_container_demand(c, 1.0).expect("demand");
            drop(client);
            (app, c)
        })
        .collect();
    (eco, apps)
}

/// The same read-mostly batch shape as the `protocol` bench: telemetry
/// polling a policy loop would issue every tick.
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

/// Runs one simulated day: tenant threads hammer `dispatch_batch`
/// between the barrier-fenced ticks, the driver settles at each
/// boundary.
fn run_day(shared: &ShardedEcovisor, tenants: &[(AppId, ContainerId)]) {
    let gate = Barrier::new(tenants.len() + 1);
    std::thread::scope(|scope| {
        for &(app, container) in tenants {
            let gate = &gate;
            scope.spawn(move || {
                let batch = query_batch(app, container);
                for _ in 0..TICKS {
                    gate.wait(); // tick open
                    for _ in 0..BATCHES_PER_TICK {
                        std::hint::black_box(shared.dispatch_batch(std::hint::black_box(&batch)));
                    }
                    gate.wait(); // tick closed
                }
            });
        }
        for _ in 0..TICKS {
            gate.wait();
            gate.wait();
            shared.tick();
        }
    });
}

fn bench_sharded(c: &mut Criterion) {
    ecovisor_bench::host::print_banner("dispatch_sharded");
    let mut group = c.benchmark_group("dispatch_sharded_day");
    for &n in &THREAD_COUNTS {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            // Fresh state per iteration (setup untimed): settlement
            // telemetry accumulates across ticks, so reusing one
            // ecovisor would make later iterations integrate ever-longer
            // series and drown the locking cost being measured.
            b.iter_batched(
                || {
                    let (eco, tenants) = fixture(n);
                    (ShardedEcovisor::new(eco), tenants)
                },
                |(shared, tenants)| run_day(&shared, &tenants),
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

criterion_group!(dispatch_sharded, bench_sharded);
criterion_main!(dispatch_sharded);
