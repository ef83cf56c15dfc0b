//! Snapshot subsystem cost: capture, encode, and restore latency (and
//! serialized size) as tenant count grows.
//!
//! For 1 / 4 / 16 tenants the harness drives a populated half-day —
//! containers launched, batteries cycling, telemetry series filling —
//! then measures, on the warm state:
//!
//! * `capture`: [`Ecovisor::snapshot`] (state walk → `Snapshot` value),
//! * `encode_binary` / `encode_json`: [`Snapshot::to_bytes`] (the
//!   wire/at-rest form) / [`Snapshot::to_json`] (the debug dump),
//! * `restore_binary`: decode **plus**
//!   [`Ecovisor::apply_snapshot`] into an already-built ecovisor — the
//!   full warm-start path a `Restore` admin request or an `ecoharness
//!   record --from` resume pays.
//!
//! Serialized sizes per tenant count are printed at startup (they are
//! state-dependent, not time-dependent, so they belong in the committed
//! baseline's notes rather than in `ns_per_iter` rows).
//!
//! Committed baseline: `BENCH_snapshot.json` in the crate root.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use carbon_intel::service::TraceCarbonService;
use container_cop::{ContainerSpec, CopConfig};
use ecovisor::{Ecovisor, EcovisorBuilder, EnergyClient, EnergyShare, Snapshot};
use energy_system::solar::TraceSolarSource;
use simkit::rng::SimRng;
use simkit::time::SimDuration;
use simkit::trace::{Extend, Trace};
use simkit::units::{WattHours, Watts};

const TENANTS: [usize; 3] = [1, 4, 16];
const WARMUP_TICKS: u64 = 24; // half a simulated day at 30-minute ticks

/// The shared static configuration: seeded swinging solar/carbon
/// traces, a cluster wide enough for 16 tenants' fleets.
fn builder(seed: u64) -> EcovisorBuilder {
    let mut rng = SimRng::from_seed(seed);
    let dt = SimDuration::from_minutes(30);
    let solar: Vec<f64> = (0..WARMUP_TICKS + 2)
        .map(|_| rng.uniform(0.0, 300.0))
        .collect();
    let carbon: Vec<f64> = (0..WARMUP_TICKS + 2)
        .map(|_| rng.uniform(80.0, 420.0))
        .collect();
    EcovisorBuilder::new()
        .tick_interval(dt)
        .cluster(CopConfig::microserver_cluster(64))
        .solar(Box::new(TraceSolarSource::new(
            Trace::from_samples(solar, dt).with_extend(Extend::Cycle),
        )))
        .carbon(Box::new(TraceCarbonService::new(
            "seeded",
            Trace::from_samples(carbon, dt).with_extend(Extend::Cycle),
        )))
}

/// Builds `n` tenants and drives a populated half-day: every tenant
/// owns two containers with varying demand and a cycling battery, so
/// the captured state (VES ledgers, outboxes, telemetry series) is
/// realistically warm rather than empty.
fn populated(n: usize) -> Ecovisor {
    let mut eco = builder(0x5EED_BE0C).build();
    let apps: Vec<_> = (0..n)
        .map(|i| {
            eco.register_app(
                format!("tenant{i}"),
                EnergyShare::grid_only()
                    .with_solar_fraction(1.0 / n as f64)
                    .with_battery(WattHours::new(20.0))
                    .with_initial_soc(0.5),
            )
            .expect("register")
        })
        .collect();
    let fleets: Vec<Vec<_>> = apps
        .iter()
        .map(|&app| {
            let mut client = eco.client(app).expect("client");
            let fleet = (0..2)
                .map(|_| {
                    client
                        .launch_container(ContainerSpec::quad_core())
                        .expect("launch")
                })
                .collect();
            client.flush();
            fleet
        })
        .collect();
    for tick in 0..WARMUP_TICKS {
        for (i, (&app, fleet)) in apps.iter().zip(fleets.iter()).enumerate() {
            let mut client = eco.client(app).expect("client");
            let charging = (tick as usize + i) % 4 < 2;
            client.set_battery_charge_rate(Watts::new(if charging { 40.0 } else { 0.0 }));
            client.set_battery_max_discharge(Watts::new(if charging { 0.0 } else { 30.0 }));
            for (j, &c) in fleet.iter().enumerate() {
                let _ = client
                    .set_container_demand(c, 0.2 + 0.6 * ((tick as usize + j) % 3) as f64 / 2.0);
            }
            client.flush();
        }
        eco.begin_tick();
        eco.settle_tick();
        eco.advance_clock();
    }
    eco
}

fn bench_snapshot(c: &mut Criterion) {
    ecovisor_bench::host::print_banner("snapshot");
    let mut group = c.benchmark_group("snapshot");
    for &n in &TENANTS {
        let mut eco = populated(n);
        let snap = eco.snapshot();
        let binary = snap.to_bytes();
        let json = snap.to_json();
        println!(
            "snapshot size at {n} tenant(s): {} bytes binary, {} bytes json",
            binary.len(),
            json.len()
        );

        group.bench_with_input(BenchmarkId::new("capture", n), &n, |b, _| {
            b.iter(|| std::hint::black_box(eco.snapshot()))
        });
        group.bench_with_input(BenchmarkId::new("encode_binary", n), &n, |b, _| {
            b.iter(|| std::hint::black_box(snap.to_bytes()))
        });
        group.bench_with_input(BenchmarkId::new("encode_json", n), &n, |b, _| {
            b.iter(|| std::hint::black_box(snap.to_json()))
        });

        // Restore = decode + apply into an already-built twin: the warm
        // start path. Applying repeatedly onto the same twin is
        // idempotent — each iteration overwrites the same state.
        let mut twin = populated(n);
        group.bench_with_input(BenchmarkId::new("restore_binary", n), &n, |b, _| {
            b.iter(|| {
                let decoded = Snapshot::from_bytes(&binary).expect("decode");
                twin.apply_snapshot(&decoded).expect("apply");
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_snapshot);
criterion_main!(benches);
