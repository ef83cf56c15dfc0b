//! Federation over the v2 wire: live tenant migration and the two-node
//! cross-process settlement barrier.
//!
//! The acceptance surface this file proves:
//!
//! * a **corpus-style day split across two federated processes** —
//!   coordinator-driven `FedCollect`/`FedSettle` ticks over the wire —
//!   settles per-app `VesTotals`, polled event streams, and per-tenant
//!   capture digests **bit-identical** to the same day on one process,
//!   including a **mid-day live migration** of a tenant between the
//!   nodes (`MigrateOut` → `MigrateIn` → `MigrateCommit`);
//! * a **tampered transfer is rejected and leaves both nodes
//!   untouched** — the destination refuses the graft, the source still
//!   runs the tenant because nothing was committed;
//! * a **hostile tenant** — an honest capture edited in its encoded tree
//!   — is refused as an error value, the destination untouched and
//!   still serving;
//! * after the commit the **source answers `UnknownApp`
//!   deterministically** and a still-subscribed connection receives no
//!   further frames for the evicted tenant;
//! * the **container-id cursor surface** (`FedAlign`/`FedCursor`)
//!   aligns forward, refuses to move backwards, and makes an aligned
//!   node allocate from the coordinator's cursor;
//! * the whole surface is **credential-gated**: a server without a
//!   registry denies migration and federation requests outright.

use container_cop::{AppId, ContainerId, ContainerSpec, CopConfig};
use ecovisor::{
    CredentialRegistry, Ecovisor, EcovisorBuilder, EcovisorServer, EnergyClient, EnergyShare,
    EventFilter, FedAppView, RemoteEcovisorClient, SharedEcovisor, SnapshotError,
};
use simkit::rng::SimRng;
use simkit::time::SimDuration;
use simkit::trace::Trace;
use simkit::units::{Co2Grams, WattHours, Watts};
use std::io;

#[path = "common/hostile.rs"]
mod hostile;

const TICKS: u64 = 32; // a simulated day at 45-minute ticks

/// The static configuration every process in the federation shares:
/// seeded solar/carbon traces with deliberate swings, an 8-microserver
/// cluster, 45-minute ticks.
fn builder(seed: u64) -> EcovisorBuilder {
    let mut rng = SimRng::from_seed(seed);
    let solar: Vec<f64> = (0..TICKS + 2)
        .map(|_| {
            if rng.unit() < 0.5 {
                rng.uniform(0.0, 30.0)
            } else {
                rng.uniform(120.0, 300.0)
            }
        })
        .collect();
    let carbon: Vec<f64> = (0..TICKS + 2)
        .enumerate()
        .map(|(i, _)| {
            if i % 2 == 0 {
                rng.uniform(80.0, 120.0)
            } else {
                rng.uniform(300.0, 420.0)
            }
        })
        .collect();
    let dt = SimDuration::from_minutes(45);
    EcovisorBuilder::new()
        .tick_interval(dt)
        .cluster(CopConfig::microserver_cluster(8))
        .solar(Trace::from_samples(solar, dt))
        .carbon(Trace::from_samples(carbon, dt))
}

/// Registers the full deployment's tenant set — every federated node
/// registers ALL tenants from the same spec (so ids match the
/// single-process run) and then evicts the ones it does not own.
fn register_all(eco: &mut Ecovisor) -> (AppId, AppId) {
    let a = eco
        .register_app(
            "tenant-a",
            EnergyShare::grid_only()
                .with_solar_fraction(0.3)
                .with_battery(WattHours::new(8.0))
                .with_initial_soc(0.5),
        )
        .expect("register a");
    let b = eco
        .register_app(
            "tenant-b",
            EnergyShare::grid_only().with_battery(WattHours::new(60.0)),
        )
        .expect("register b");
    (a, b)
}

fn creds(a: AppId, b: AppId) -> CredentialRegistry {
    CredentialRegistry::new().with(a, "alpha").with(b, "beta")
}

fn connect(addr: std::net::SocketAddr, app: AppId, token: &str) -> RemoteEcovisorClient {
    RemoteEcovisorClient::connect_full(addr, app, Some(token.into())).expect("connect")
}

/// Tenant A's control loop: alternating charge/discharge phases with a
/// mid-day carbon budget small enough to exhaust (edge events).
fn tick_traffic_a(client: &mut impl EnergyClient, tick: u64, containers: &[ContainerId]) {
    if tick % 16 < 8 {
        client.set_battery_charge_rate(Watts::new(60.0));
        client.set_battery_max_discharge(Watts::ZERO);
        for &c in containers {
            let _ = client.set_container_demand(c, 0.1);
        }
    } else {
        client.set_battery_charge_rate(Watts::ZERO);
        client.set_battery_max_discharge(Watts::new(50.0));
        for &c in containers {
            let _ = client.set_container_demand(c, 1.0);
        }
    }
    if tick == TICKS / 2 {
        client.set_carbon_budget(Some(Co2Grams::new(0.5)));
    }
    client.flush();
}

fn tick_traffic_b(client: &mut impl EnergyClient, tick: u64, container: ContainerId) {
    client.set_battery_charge_rate(Watts::new(if tick.is_multiple_of(3) { 20.0 } else { 0.0 }));
    let _ = client.set_container_demand(container, 0.5 + 0.5 * ((tick % 4) as f64 / 4.0));
    client.flush();
}

/// One coordinator-driven federated tick over the wire: collect every
/// node's demand views, merge them in global app-id order, and have
/// every node settle the same merged list.
fn fed_tick(ops: &mut [&mut RemoteEcovisorClient]) {
    let mut merged: Vec<FedAppView> = Vec::new();
    for op in ops.iter_mut() {
        merged.extend(op.fed_collect().expect("fed-collect"));
    }
    merged.sort_by_key(|v| v.app);
    for op in ops.iter_mut() {
        op.fed_settle(&merged).expect("fed-settle");
    }
}

/// What one run of the day produces for comparison: per-tick typed
/// query answers and polled event streams for both tenants.
type Observation = (
    Watts,
    WattHours,
    Watts,
    Vec<ecovisor::Notification>,
    Watts,
    Vec<ecovisor::Notification>,
);

/// The tentpole equivalence test: the same day, same traffic, once on a
/// single process and once split across two federated processes with
/// tenant A live-migrating between them mid-day. Totals, event streams,
/// and per-tenant capture digests must be bit-identical.
#[test]
fn split_day_with_mid_day_migration_matches_single_process() {
    let seed = 0xFED_5EED;
    let half = TICKS / 2;

    // --- Reference: the whole day on one process. ---------------------
    let mut eco = builder(seed).build();
    let (a, b) = register_all(&mut eco);
    let server = EcovisorServer::bind("127.0.0.1:0", eco)
        .expect("bind ref")
        .with_credentials(creds(a, b));
    let handle = server.spawn().expect("spawn ref");
    let shared_ref: SharedEcovisor = handle.ecovisor();
    let mut ref_a = connect(handle.addr(), a, "alpha");
    let mut ref_b = connect(handle.addr(), b, "beta");
    let fleet: Vec<ContainerId> = (0..4)
        .map(|_| {
            ref_a
                .launch_container(ContainerSpec::quad_core())
                .expect("launch")
        })
        .collect();
    let noise = ref_b
        .launch_container(ContainerSpec::quad_core())
        .expect("launch noise");

    let mut ref_seen: Vec<Observation> = Vec::new();
    for tick in 0..TICKS {
        tick_traffic_a(&mut ref_a, tick, &fleet);
        tick_traffic_b(&mut ref_b, tick, noise);
        shared_ref.tick();
        ref_seen.push((
            ref_a.get_grid_power(),
            ref_a.get_battery_charge_level(),
            ref_a.get_app_power(),
            ref_a.poll_events().expect("poll a"),
            ref_b.get_grid_power(),
            ref_b.poll_events().expect("poll b"),
        ));
    }

    // --- Federated: node 1 owns both tenants, node 2 starts empty. ----
    let mut eco1 = builder(seed).build();
    let (a1, b1) = register_all(&mut eco1);
    assert_eq!((a1, b1), (a, b));
    let mut eco2 = builder(seed).build();
    register_all(&mut eco2);
    eco2.remove_app(a).expect("shed a");
    eco2.remove_app(b).expect("shed b");

    let server1 = EcovisorServer::bind("127.0.0.1:0", eco1)
        .expect("bind n1")
        .with_credentials(creds(a, b));
    let server2 = EcovisorServer::bind("127.0.0.1:0", eco2)
        .expect("bind n2")
        .with_credentials(creds(a, b));
    let h1 = server1.spawn().expect("spawn n1");
    let h2 = server2.spawn().expect("spawn n2");

    // Operator connections drive migration and the two-phase barrier.
    let mut op1 = connect(h1.addr(), a, "alpha");
    let mut op2 = connect(h2.addr(), a, "alpha");

    let mut fed_a = connect(h1.addr(), a, "alpha");
    let mut fed_b = connect(h1.addr(), b, "beta");
    let fed_fleet: Vec<ContainerId> = (0..4)
        .map(|_| {
            fed_a
                .launch_container(ContainerSpec::quad_core())
                .expect("launch")
        })
        .collect();
    assert_eq!(fed_fleet, fleet, "same launch order, same container ids");
    let fed_noise = fed_b
        .launch_container(ContainerSpec::quad_core())
        .expect("launch noise");
    assert_eq!(fed_noise, noise);

    let mut fed_seen: Vec<Observation> = Vec::new();
    for tick in 0..TICKS {
        if tick == half {
            // Live migration at the settlement boundary: capture on the
            // source (tenant keeps running), graft onto the
            // destination, then commit the eviction. The tenant's
            // client re-homes to node 2.
            let snap = op1.fetch_tenant(a).expect("migrate out");
            op2.push_tenant(&snap).expect("migrate in");
            op1.commit_migration(a).expect("commit");
            fed_a = connect(h2.addr(), a, "alpha");
        }
        tick_traffic_a(&mut fed_a, tick, &fed_fleet);
        tick_traffic_b(&mut fed_b, tick, fed_noise);
        fed_tick(&mut [&mut op1, &mut op2]);
        fed_seen.push((
            fed_a.get_grid_power(),
            fed_a.get_battery_charge_level(),
            fed_a.get_app_power(),
            fed_a.poll_events().expect("poll a"),
            fed_b.get_grid_power(),
            fed_b.poll_events().expect("poll b"),
        ));
    }

    assert_eq!(
        ref_seen, fed_seen,
        "federated split day must answer bit-identically to the single process"
    );

    // Per-tenant capture digests: tenant state, containers, and
    // telemetry history are bit-identical wherever the tenant ended up.
    let shared1 = h1.ecovisor();
    let shared2 = h2.ecovisor();
    let ref_cap_a = shared_ref.with(|eco| eco.extract_app(a)).expect("ref a");
    let ref_cap_b = shared_ref.with(|eco| eco.extract_app(b)).expect("ref b");
    let fed_cap_a = shared2
        .with(|eco| eco.extract_app(a))
        .expect("node2 owns a");
    let fed_cap_b = shared1
        .with(|eco| eco.extract_app(b))
        .expect("node1 owns b");
    assert_eq!(ref_cap_a.digest(), fed_cap_a.digest(), "tenant a digest");
    assert_eq!(ref_cap_b.digest(), fed_cap_b.digest(), "tenant b digest");
    assert_eq!(
        ref_cap_a.record.app.ves.totals(),
        fed_cap_a.record.app.ves.totals(),
        "tenant a day totals"
    );

    // The source no longer knows the migrated tenant.
    assert!(shared1.with(|eco| eco.extract_app(a)).is_err());
    h1.shutdown();
    h2.shutdown();
    handle.shutdown();
}

/// A tampered transfer is rejected at the final chunk and leaves BOTH
/// nodes exactly as they were: the destination refuses the graft, the
/// source never evicted anything.
#[test]
fn tampered_migration_leaves_both_nodes_untouched() {
    let seed = 0xBAD_F00D;
    let mut eco1 = builder(seed).build();
    let (a, b) = register_all(&mut eco1);
    let mut eco2 = builder(seed).build();
    register_all(&mut eco2);
    eco2.remove_app(a).expect("shed a");
    eco2.remove_app(b).expect("shed b");

    let h1 = EcovisorServer::bind("127.0.0.1:0", eco1)
        .expect("bind")
        .with_credentials(creds(a, b))
        .spawn()
        .expect("spawn");
    let h2 = EcovisorServer::bind("127.0.0.1:0", eco2)
        .expect("bind")
        .with_credentials(creds(a, b))
        .spawn()
        .expect("spawn");
    let mut op1 = connect(h1.addr(), a, "alpha");
    let mut op2 = connect(h2.addr(), a, "alpha");

    for _ in 0..3 {
        let merged = op1.fed_collect().expect("collect 1");
        op2.fed_collect().expect("collect 2");
        op1.fed_settle(&merged).expect("settle 1");
        op2.fed_settle(&merged).expect("settle 2");
    }

    let before1 = h1.ecovisor().with(|eco| eco.snapshot()).digest();
    let before2 = h2.ecovisor().with(|eco| eco.snapshot()).digest();

    let mut snap = op1.fetch_tenant(a).expect("capture");
    snap.env_digest ^= 0x05EE_DBAD;
    let err = op2
        .push_tenant(&snap)
        .expect_err("tampered graft must fail");
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);

    // Neither node changed: no commit ran on the source, the rejected
    // graft mutated nothing on the destination.
    assert_eq!(
        h1.ecovisor().with(|eco| eco.snapshot()).digest(),
        before1,
        "source untouched"
    );
    assert_eq!(
        h2.ecovisor().with(|eco| eco.snapshot()).digest(),
        before2,
        "destination untouched"
    );

    // A colliding graft (tenant still registered here) is refused too.
    let good = op1.fetch_tenant(a).expect("capture again");
    assert!(op1.push_tenant(&good).is_err(), "self-graft collides");
    assert_eq!(h1.ecovisor().with(|eco| eco.snapshot()).digest(), before1);
    h1.shutdown();
    h2.shutdown();
}

/// `graft_app`'s hostile-input table over the wire: each `push_tenant`
/// comes back as an error *value*, the destination's state is untouched
/// and its connection keeps serving; then the honest capture migrates,
/// the federation ticks on, and the destination's counters return to
/// baseline once the operators hang up.
#[test]
fn hostile_tenants_are_refused_over_the_wire_and_the_node_keeps_serving() {
    let seed = 0xBAD_7E4A;
    let mut eco1 = builder(seed).build();
    let (a, b) = register_all(&mut eco1);
    // B's container takes id 0 on the source, so A's below takes 1.
    eco1.client(b)
        .expect("client b")
        .launch_container(ContainerSpec::quad_core())
        .expect("launch b");
    let mut eco2 = builder(seed).build();
    register_all(&mut eco2);
    eco2.remove_app(a).expect("shed a");
    eco2.remove_app(b).expect("shed b");
    // A resident of the destination only, holding container id 0 there.
    let c = eco2
        .register_app("tenant-c", EnergyShare::grid_only())
        .expect("register c");
    let held = eco2
        .client(c)
        .expect("client c")
        .launch_container(ContainerSpec::quad_core())
        .expect("launch c");
    let serve = |eco: Ecovisor| {
        EcovisorServer::bind("127.0.0.1:0", eco)
            .expect("bind")
            .with_credentials(creds(a, b))
            .spawn()
            .expect("spawn")
    };
    let (h1, h2) = (serve(eco1), serve(eco2));
    let mut op1 = connect(h1.addr(), a, "alpha");
    let mut op2 = connect(h2.addr(), a, "alpha");
    // Settled below, so the capture carries the series of both.
    let own: Vec<ContainerId> = (0..2)
        .map(|_| {
            op1.launch_container(ContainerSpec::quad_core())
                .expect("launch a")
        })
        .collect();
    for _ in 0..3 {
        fed_tick(&mut [&mut op1, &mut op2]);
    }

    let good = op1.fetch_tenant(a).expect("capture");
    assert_eq!(good.record.containers.len(), 2, "A carries {own:?}");
    let before = h2.ecovisor().with(|eco| eco.snapshot()).digest();
    let tree = serde::Serialize::to_value(&good);
    let receiver = hostile::Receiver {
        now: h2.ecovisor().read(|eco| eco.now().as_secs()) as i64,
        unborn: own[1].value() + 1,
        other_app: b.value(),
    };
    let mut cases = hostile::record_edits(&tree, "record", &receiver);
    let container = serde::Serialize::to_value(&good.record.containers[0]);
    let server = serde::Value::Int(good.record.containers[0].server().value().into());
    // Two live containers of 2^31 cores and no memory, on one server:
    // their cores sum past `u32::MAX`.
    let mut huge = vec![("record.containers.1.server".to_string(), server)];
    for i in 0..2 {
        let at = |field: &str| format!("record.containers.{i}.spec.{field}");
        huge.push((at("cores"), serde::Value::Int(1 << 31)));
        huge.push((at("memory_mib"), serde::Value::Int(0)));
    }
    let held = serde::Value::Int(held.value() as i64);
    cases.extend([
        ("two live 2^31-core, 0-MiB containers on one server", huge),
        (
            "a container whose id a resident holds",
            vec![
                ("record.containers.0.id".into(), held.clone()),
                ("record.series.containers.0.0".into(), held),
            ],
        ),
        (
            "one container id twice in the transfer",
            vec![(
                "record.containers".into(),
                serde::Value::Seq(vec![container.clone(), container]),
            )],
        ),
    ]);
    for (name, edits) in cases {
        let err = op2
            .push_tenant(&hostile::edited(&good, &edits))
            .expect_err(name);
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{name}: {err}");
        assert_eq!(
            h2.ecovisor().with(|eco| eco.snapshot()).digest(),
            before,
            "{name}: touched"
        );
        op2.fed_cursor()
            .unwrap_or_else(|e| panic!("{name}: stopped serving: {e}"));
    }

    // The layout before this one, refused by its header.
    let old = hostile::edited(&good, &[("format".into(), serde::Value::Int(1))]);
    let err = op2.push_tenant(&old).expect_err("format 1");
    let refusal = SnapshotError::Format {
        expected: 2,
        got: 1,
    };
    assert!(err.to_string().contains(&refusal.to_string()), "{err}");

    op2.push_tenant(&good).expect("the honest capture");
    op1.commit_migration(a).expect("commit");
    fed_tick(&mut [&mut op1, &mut op2]);

    drop((op1, op2));
    let idle = || {
        let s = h2.stats();
        s.active_connections == 0 && s.subscriber_backlog == 0 && s.recv_buffer_bytes == 0
    };
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while !idle() && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert!(idle(), "counters back to baseline: {:?}", h2.stats());
    h1.shutdown();
    h2.shutdown();
}

/// After `MigrateCommit` the source answers `UnknownApp` for the evicted
/// tenant — deterministically, from the next batch on — and a
/// still-subscribed connection stops receiving frames (the settlement
/// broadcast simply has no shard to drain).
#[test]
fn evicted_tenant_answers_unknown_and_stops_receiving_frames() {
    let seed = 0x0DD_0DD;
    let mut eco1 = builder(seed).build();
    let (a, b) = register_all(&mut eco1);
    let mut eco2 = builder(seed).build();
    register_all(&mut eco2);
    eco2.remove_app(a).expect("shed a");
    eco2.remove_app(b).expect("shed b");

    let h1 = EcovisorServer::bind("127.0.0.1:0", eco1)
        .expect("bind")
        .with_credentials(creds(a, b))
        .spawn()
        .expect("spawn");
    let h2 = EcovisorServer::bind("127.0.0.1:0", eco2)
        .expect("bind")
        .with_credentials(creds(a, b))
        .spawn()
        .expect("spawn");
    let mut op1 = connect(h1.addr(), a, "alpha");
    let mut op2 = connect(h2.addr(), a, "alpha");

    // Tenant A subscribes on the source with an any-change filter so
    // every settlement pushes a frame while it is still resident.
    let mut sub = connect(h1.addr(), a, "alpha");
    sub.subscribe_events(EventFilter::all()).expect("subscribe");
    let c = sub
        .launch_container(ContainerSpec::quad_core())
        .expect("launch");
    sub.set_container_demand(c, 1.0).expect("demand");
    sub.flush();

    let settle_both = |op1: &mut RemoteEcovisorClient, op2: &mut RemoteEcovisorClient| {
        let mut merged = op1.fed_collect().expect("collect 1");
        merged.extend(op2.fed_collect().expect("collect 2"));
        merged.sort_by_key(|v| v.app);
        op1.fed_settle(&merged).expect("settle 1");
        op2.fed_settle(&merged).expect("settle 2");
    };
    for _ in 0..4 {
        settle_both(&mut op1, &mut op2);
    }

    // Migrate A to node 2.
    let snap = op1.fetch_tenant(a).expect("capture");
    op2.push_tenant(&snap).expect("graft");
    op1.commit_migration(a).expect("commit");

    // Deterministic rejection: every request for the evicted tenant
    // answers UnknownApp from the next batch on.
    match sub.poll_events() {
        Err(e) => assert!(
            matches!(e, ecovisor::EcovisorError::UnknownApp(app) if app == a),
            "expected UnknownApp, got {e:?}"
        ),
        Ok(events) => panic!("evicted tenant still answered: {events:?}"),
    }

    // The stale subscription receives nothing further: settlements keep
    // running, but there is no shard to drain frames from.
    sub.take_event_frames();
    for _ in 0..4 {
        settle_both(&mut op1, &mut op2);
    }
    std::thread::sleep(std::time::Duration::from_millis(50));
    assert!(
        sub.take_event_frames().is_empty(),
        "no frames for an evicted tenant"
    );

    // The tenant lives on — and keeps eventing — on the destination.
    let mut sub2 = connect(h2.addr(), a, "alpha");
    assert!(sub2.poll_events().is_ok(), "destination serves the tenant");
    h1.shutdown();
    h2.shutdown();
}

/// The container-id cursor surface: `FedCursor` reads the node's next
/// id, `FedAlign` moves it forward (never backwards), and an aligned
/// node allocates exactly from the coordinator's cursor — the mechanism
/// that keeps launch responses bit-identical across a federation.
#[test]
fn container_cursor_aligns_forward_only() {
    let mut eco = builder(1).build();
    let (a, b) = register_all(&mut eco);
    let h = EcovisorServer::bind("127.0.0.1:0", eco)
        .expect("bind")
        .with_credentials(creds(a, b))
        .spawn()
        .expect("spawn");
    let mut op = connect(h.addr(), a, "alpha");

    let cursor = op.fed_cursor().expect("cursor");
    op.fed_align(cursor + 7).expect("align forward");
    assert_eq!(op.fed_cursor().expect("cursor"), cursor + 7);

    // Backwards alignment is refused and changes nothing.
    assert!(
        op.fed_align(cursor).is_err(),
        "cursor cannot move backwards"
    );
    assert_eq!(op.fed_cursor().expect("cursor"), cursor + 7);

    // The next launch allocates from the aligned cursor.
    let c = op
        .launch_container(ContainerSpec::quad_core())
        .expect("launch");
    assert_eq!(c.value(), cursor + 7);
    assert_eq!(op.fed_cursor().expect("cursor"), cursor + 8);
    h.shutdown();
}

/// Without a credential registry the entire migration/federation surface
/// is closed — same hardening rule as snapshot/restore.
#[test]
fn federation_surface_requires_credentials() {
    let mut eco = builder(2).build();
    let (a, _b) = register_all(&mut eco);
    let h = EcovisorServer::bind("127.0.0.1:0", eco)
        .expect("bind")
        .spawn()
        .expect("spawn");
    let mut cli = RemoteEcovisorClient::connect(h.addr(), a).expect("connect");

    for result in [
        cli.fetch_tenant(a).map(|_| ()),
        cli.fed_collect().map(|_| ()),
        cli.fed_cursor().map(|_| ()),
        cli.commit_migration(a),
        cli.fed_align(99),
        cli.fed_settle(&[]),
    ] {
        let err = result.expect_err("unauthenticated admin must be denied");
        assert_eq!(err.kind(), io::ErrorKind::PermissionDenied, "{err}");
    }
    // The tenant itself is untouched by the denied commit.
    assert!(cli.poll_events().is_ok());
    h.shutdown();
}
