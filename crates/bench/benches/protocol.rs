//! Batch-dispatch throughput baseline: requests/second through
//! [`Ecovisor::dispatch_batch`] at batch sizes 1, 32, and 256, for a
//! query-only workload, a command-heavy workload, and the serialized
//! wire path in the binary encoding frames are served in
//! (`dispatch_wire_binary`). The wire path measures the **v2 duplex
//! framing**: decode a `Frame::Request`, dispatch, encode a
//! `Frame::Response` — exactly what the server pays per round trip. Future perf PRs regress against
//! these numbers; `BENCH_protocol.json` in the crate root holds the
//! committed baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use carbon_intel::service::TraceCarbonService;
use container_cop::{AppId, ContainerId, ContainerSpec, CopConfig};
use ecovisor::proto::{EnergyRequest, Frame, RequestBatch};
use ecovisor::{Ecovisor, EcovisorBuilder, EnergyClient, EnergyShare};
use simkit::time::SimTime;
use simkit::trace::Trace;
use simkit::units::{WattHours, Watts};

const BATCH_SIZES: [usize; 3] = [1, 32, 256];

/// An ecovisor with one registered app holding four busy containers.
fn dispatch_fixture() -> (Ecovisor, AppId, ContainerId) {
    let mut eco = EcovisorBuilder::new()
        .cluster(CopConfig::microserver_cluster(16))
        .carbon(Box::new(TraceCarbonService::new(
            "flat",
            Trace::constant(250.0),
        )))
        .build();
    let app = eco
        .register_app(
            "bench",
            EnergyShare::grid_only()
                .with_solar_fraction(0.5)
                .with_battery(WattHours::new(720.0)),
        )
        .expect("register");
    let mut client = eco.client(app).expect("client");
    let mut first = None;
    for _ in 0..4 {
        let c = client
            .launch_container(ContainerSpec::quad_core())
            .expect("launch");
        client.set_container_demand(c, 1.0).expect("demand");
        first.get_or_insert(c);
    }
    drop(client);
    let container = first.expect("at least one container");
    (eco, app, container)
}

/// A read-mostly batch shaped like a telemetry-polling policy tick.
fn query_batch(app: AppId, container: ContainerId, n: usize) -> RequestBatch {
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
    RequestBatch::new(app, pattern.iter().cloned().cycle().take(n).collect())
}

/// A write-heavy batch shaped like a power-capping control tick.
fn command_batch(app: AppId, container: ContainerId, n: usize) -> RequestBatch {
    use EnergyRequest::*;
    let pattern = [
        SetBatteryChargeRate {
            rate: Watts::new(80.0),
        },
        SetBatteryMaxDischarge {
            rate: Watts::new(40.0),
        },
        SetContainerPowercap {
            container,
            cap: Watts::new(2.5),
        },
        SetContainerDemand {
            container,
            demand: 0.75,
        },
        ClearContainerPowercap { container },
    ];
    RequestBatch::new(app, pattern.iter().cloned().cycle().take(n).collect())
}

fn bench_query_dispatch(c: &mut Criterion) {
    ecovisor_bench::host::print_banner("protocol");
    let mut group = c.benchmark_group("dispatch_query_batch");
    for &n in &BATCH_SIZES {
        let (eco, app, container) = dispatch_fixture();
        let batch = query_batch(app, container, n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| std::hint::black_box(eco.dispatch_batch(&batch)))
        });
    }
    group.finish();
}

fn bench_command_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("dispatch_command_batch");
    for &n in &BATCH_SIZES {
        let (eco, app, container) = dispatch_fixture();
        let batch = command_batch(app, container, n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| std::hint::black_box(eco.dispatch_batch(&batch)))
        });
    }
    group.finish();
}

/// The full wire path under v2 framing, in the binary encoding every
/// served frame uses: parse the `Frame::Request`, dispatch, serialize the
/// `Frame::Response` — what the server pays per round trip.
fn bench_wire_binary(c: &mut Criterion) {
    let mut group = c.benchmark_group("dispatch_wire_binary");
    for &n in &BATCH_SIZES {
        let (eco, app, container) = dispatch_fixture();
        let wire = serde::binary::to_bytes(&Frame::Request(query_batch(app, container, n)));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let frame: Frame = serde::binary::from_bytes(&wire).expect("parse");
                let Frame::Request(batch) = frame else {
                    unreachable!("encoded a request frame")
                };
                let resp = eco.dispatch_batch(&batch);
                std::hint::black_box(serde::binary::to_bytes(&Frame::Response(resp)))
            })
        });
    }
    group.finish();
}

criterion_group!(
    protocol,
    bench_query_dispatch,
    bench_command_dispatch,
    bench_wire_binary,
);
criterion_main!(protocol);
