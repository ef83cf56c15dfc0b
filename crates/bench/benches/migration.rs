//! Live-migration cost: per-tenant capture, codec, graft, and full
//! wire-shuttle latency as the node's tenant count grows.
//!
//! For 1 / 4 / 16 tenants the harness drives a populated half-day —
//! containers launched, batteries cycling, telemetry series filling —
//! then measures, on the warm state:
//!
//! * `extract`: [`Ecovisor::extract_app`] (one tenant's shard +
//!   containers + telemetry cloned into a [`TenantSnapshot`], source
//!   untouched),
//! * `encode_binary` / `decode_binary`: [`TenantSnapshot::to_bytes`] /
//!   [`TenantSnapshot::from_bytes`] — the `MigrateOut`/`MigrateIn`
//!   chunk payload form,
//! * `graft_evict`: [`Ecovisor::graft_app`] onto a twin node that does
//!   not hold the tenant, plus [`Ecovisor::remove_app`] to put the
//!   state back — the destination-side cost of one accepted move,
//! * `wire_shuttle`: a full round trip between **two live credentialed
//!   servers** — fetch on the source, push onto the destination, commit
//!   the removal, then migrate straight back — i.e. two complete
//!   migrations over real loopback TCP per iteration.
//!
//! The tenant snapshot's serialized size per tenant count is printed at
//! startup (state-dependent, so it lives in the committed baseline's
//! notes rather than in `ns_per_iter` rows).
//!
//! Committed baseline: `BENCH_migration.json` in the crate root.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use carbon_intel::service::TraceCarbonService;
use container_cop::{AppId, ContainerSpec, CopConfig};
use ecovisor::{
    CredentialRegistry, Ecovisor, EcovisorBuilder, EcovisorServer, EnergyClient, EnergyShare,
    RemoteEcovisorClient, TenantSnapshot,
};
use energy_system::solar::TraceSolarSource;
use simkit::rng::SimRng;
use simkit::time::SimDuration;
use simkit::trace::{Extend, Trace};
use simkit::units::{WattHours, Watts};

const TENANTS: [usize; 3] = [1, 4, 16];
const WARMUP_TICKS: u64 = 24; // half a simulated day at 30-minute ticks

/// The shared static configuration: seeded swinging solar/carbon
/// traces, a cluster wide enough for 16 tenants' fleets. Every node is
/// built from this same spec, so environment fingerprints agree and
/// grafts are accepted.
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
/// the migrated state (VES ledger, outbox, telemetry series) is
/// realistically warm rather than empty. Identical calls produce
/// bit-identical nodes — the twin/peer nodes below rely on that.
fn populated(n: usize) -> (Ecovisor, Vec<AppId>) {
    let mut eco = builder(0x5EED_F00D).build();
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
    (eco, apps)
}

fn bench_migration(c: &mut Criterion) {
    ecovisor_bench::host::print_banner("migration");
    let mut group = c.benchmark_group("migration");
    for &n in &TENANTS {
        let (mut eco, apps) = populated(n);
        let mover = apps[0];
        let snap = eco.extract_app(mover).expect("extract");
        let binary = snap.to_bytes();
        println!(
            "tenant snapshot size at {n} tenant(s): {} bytes binary",
            binary.len()
        );

        group.bench_with_input(BenchmarkId::new("extract", n), &n, |b, _| {
            b.iter(|| std::hint::black_box(eco.extract_app(mover).expect("extract")))
        });
        group.bench_with_input(BenchmarkId::new("encode_binary", n), &n, |b, _| {
            b.iter(|| std::hint::black_box(snap.to_bytes()))
        });
        group.bench_with_input(BenchmarkId::new("decode_binary", n), &n, |b, _| {
            b.iter(|| std::hint::black_box(TenantSnapshot::from_bytes(&binary).expect("decode")))
        });

        // Destination-side cost of one accepted move: graft onto a twin
        // that does not hold the tenant, then evict to restore the
        // starting state. The twin is a bit-identical build, so the
        // tenant's recorded placement always fits its freed slots.
        let (mut twin, _) = populated(n);
        twin.remove_app(mover).expect("evict");
        group.bench_with_input(BenchmarkId::new("graft_evict", n), &n, |b, _| {
            b.iter(|| {
                twin.graft_app(&snap).expect("graft");
                twin.remove_app(mover).expect("evict");
            })
        });

        // The full choreography over real loopback TCP between two live
        // credentialed servers: fetch → push → commit moves the tenant
        // to the peer, then the mirrored calls move it straight back —
        // two complete migrations per iteration, ending where it began.
        // No settlements run, so both nodes stay on the same tick and
        // every graft validates.
        let (source, _) = populated(n);
        let (mut peer, _) = populated(n);
        peer.remove_app(mover).expect("evict");
        let serve = |eco: Ecovisor| {
            let mut registry = CredentialRegistry::new();
            registry.insert(mover, "bench-token".as_bytes());
            let server = EcovisorServer::bind("127.0.0.1:0", eco)
                .expect("bind")
                .with_credentials(registry);
            let addr = server.local_addr().expect("addr");
            (server.spawn().expect("spawn"), addr)
        };
        let (h_src, addr_src) = serve(source);
        let (h_dst, addr_dst) = serve(peer);
        let connect = |addr| {
            RemoteEcovisorClient::connect_with_credential(addr, mover, "bench-token")
                .expect("connect")
        };
        let mut op_src = connect(addr_src);
        let mut op_dst = connect(addr_dst);
        group.bench_with_input(BenchmarkId::new("wire_shuttle", n), &n, |b, _| {
            b.iter(|| {
                let out = op_src.fetch_tenant(mover).expect("fetch");
                op_dst.push_tenant(&out).expect("push");
                op_src.commit_migration(mover).expect("commit");
                let back = op_dst.fetch_tenant(mover).expect("fetch back");
                op_src.push_tenant(&back).expect("push back");
                op_dst.commit_migration(mover).expect("commit back");
            })
        });
        drop(op_src);
        drop(op_dst);
        h_src.shutdown();
        h_dst.shutdown();
    }
    group.finish();
}

criterion_group!(benches, bench_migration);
criterion_main!(benches);
