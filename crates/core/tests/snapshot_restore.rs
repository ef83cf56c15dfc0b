//! Snapshot subsystem integration: checkpoint/restore equivalence.
//!
//! Covers the snapshot acceptance surface:
//!
//! * a snapshot **round-trips bit-identically through its bytes** and
//!   a restored ecovisor re-snapshots to the same digest; its JSON
//!   rendering is well-formed JSON and is not a payload;
//! * the **restore determinism property loop**: over seeded
//!   mixed-tenant days, snapshot at a pseudo-random tick, restore from
//!   the bytes, replay the remainder, and get identical
//!   `VesTotals`, event frames, and FNV digests as the uninterrupted run;
//! * **exactly-once edge events**: undelivered outbox notifications
//!   captured in a snapshot are delivered once by the restored process —
//!   never dropped, never redelivered alongside pre-snapshot drains;
//! * a **remote process is seeded over the wire**: the v2 `Snapshot`
//!   request checkpoints a live server and `Restore` reinstates it into
//!   a second server whose subsequent responses are bit-identical;
//! * the admin surface is **credential- and version-gated**, and a
//!   rejected restore reports the reason as a value;
//! * **hostile snapshots** — honest captures edited in their encoded
//!   tree — are refused with a typed error before any state is touched,
//!   in process and over the wire, and a tenant cannot store a value
//!   (a NaN demand) that would make its own honest capture one.
//!
//! Every wire test runs twice: once on the default auto-sized serving
//! threads and once with an explicit count pinned via
//! [`EcovisorServer::with_workers`], so the snapshot surface is proven
//! across thread counts.

use container_cop::{
    AppId, Container, ContainerId, ContainerSpec, ContainerState, CopConfig, CopError,
};
use ecovisor::proto::EventFrame;
use ecovisor::{
    digest, CredentialRegistry, Ecovisor, EcovisorBuilder, EcovisorError, EcovisorServer,
    EnergyClient, EnergyShare, Metric, Notification, ProtocolTrace, RemoteEcovisorClient,
    ShardedEcovisor, Snapshot, SnapshotError, Subject, TenantSnapshot, VesTotals, SNAPSHOT_FORMAT,
};
use simkit::rng::SimRng;
use simkit::time::SimDuration;
use simkit::trace::Trace;
use simkit::units::{CarbonIntensity, CarbonRate, Co2Grams, WattHours, Watts};

#[path = "common/hostile.rs"]
mod hostile;

const TICKS: u64 = 48; // a simulated day at 30-minute ticks
const SERVERS: u32 = 8;

/// The static configuration both the snapshotting and the restoring
/// process must share: seeded solar/carbon traces with deliberate
/// swings, an 8-microserver cluster, 30-minute ticks.
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
    let dt = SimDuration::from_minutes(30);
    EcovisorBuilder::new()
        .tick_interval(dt)
        .cluster(CopConfig::microserver_cluster(SERVERS))
        .solar(Trace::from_samples(solar, dt))
        .carbon(Trace::from_samples(carbon, dt))
}

/// Two tenants: A with a small battery share that fills and drains under
/// the traffic below (edge events), B as background noise.
fn build_eco(seed: u64) -> (Ecovisor, AppId, AppId) {
    let mut eco = builder(seed).build();
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
    (eco, a, b)
}

fn launch_fleet(client: &mut impl EnergyClient) -> Vec<ContainerId> {
    (0..4)
        .map(|_| {
            client
                .launch_container(ContainerSpec::quad_core())
                .expect("launch")
        })
        .collect()
}

/// Tenant A's control loop: 8 ticks charging at light load (BatteryFull)
/// then 8 ticks of heavy load on battery power (BatteryEmpty), with a
/// mid-day carbon budget small enough to exhaust.
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

/// Everything the uninterrupted original run produced: the recorded
/// trace, a mid-run snapshot, per-app finals, and the event frames taken
/// after every settlement (apps in id order — replay order).
struct OriginalRun {
    trace: ProtocolTrace,
    snap: Snapshot,
    snap_tick: u64,
    totals_a: VesTotals,
    totals_b: VesTotals,
    frames: Vec<EventFrame>,
}

/// Drives the seeded day start to finish on one `Ecovisor`, capturing a
/// snapshot after `snap_tick` ticks have fully settled.
fn run_original(seed: u64, snap_tick: u64) -> (OriginalRun, AppId, AppId) {
    let (mut eco, a, b) = build_eco(seed);
    eco.enable_protocol_trace();
    let ca = launch_fleet(&mut eco.client(a).expect("client a"));
    let cb = eco
        .client(b)
        .expect("client b")
        .launch_container(ContainerSpec::quad_core())
        .expect("launch b");
    let mut frames = Vec::new();
    let mut snap = None;
    for tick in 0..TICKS {
        tick_traffic_a(&mut eco.client(a).expect("client a"), tick, &ca);
        tick_traffic_b(&mut eco.client(b).expect("client b"), tick, cb);
        eco.tick(|eco| {
            for app in [a, b] {
                frames.extend(eco.take_event_frame(app));
            }
        });
        if tick + 1 == snap_tick {
            snap = Some(eco.snapshot());
        }
    }
    let run = OriginalRun {
        trace: eco.take_protocol_trace().expect("tracing"),
        snap: snap.expect("snapshot tick within the run"),
        snap_tick,
        totals_a: eco.app_totals(a).expect("totals a"),
        totals_b: eco.app_totals(b).expect("totals b"),
        frames,
    };
    (run, a, b)
}

/// The equivalence contract, checked for one restored replay.
fn assert_equivalent(
    run: &OriginalRun,
    totals_a: VesTotals,
    totals_b: VesTotals,
    tail: &[EventFrame],
) {
    let expected_tail: Vec<&EventFrame> = run
        .frames
        .iter()
        .filter(|f| f.tick >= run.snap_tick)
        .collect();
    assert_eq!(totals_a, run.totals_a, "tenant A totals diverged");
    assert_eq!(totals_b, run.totals_b, "tenant B totals diverged");
    let tail_refs: Vec<&EventFrame> = tail.iter().collect();
    assert_eq!(
        tail_refs, expected_tail,
        "restored replay must regenerate the original's remaining event frames"
    );
    assert_eq!(
        digest(&tail_refs),
        digest(&expected_tail),
        "frame digests diverged"
    );
    assert_eq!(
        digest(&(totals_a, totals_b)),
        digest(&(run.totals_a, run.totals_b)),
        "totals digests diverged"
    );
}

/// Basic round trip: the bytes decode back to the same digest, a
/// restored twin re-snapshots bit-identically, and the JSON rendering is
/// a dump — well-formed, but `from_bytes` reads binary only.
#[test]
fn snapshot_round_trips_and_restores_losslessly() {
    let (run, _a, _b) = run_original(0xC0DE_C0DE, 20);
    let snap = &run.snap;
    assert_eq!(snap.format, SNAPSHOT_FORMAT);
    assert_eq!(snap.tick, 20);
    assert_eq!(snap.clock.tick_index(), 20);

    let from_binary = Snapshot::from_bytes(&snap.to_bytes()).expect("binary decode");
    assert_eq!(from_binary.digest(), snap.digest(), "binary round trip");
    let dump = snap.to_json();
    assert!(serde::json::parse(&dump).is_ok(), "to_json renders JSON");
    assert!(matches!(
        Snapshot::from_bytes(dump.as_bytes()),
        Err(SnapshotError::Decode(_))
    ));

    let mut twin = builder(0xC0DE_C0DE).build();
    twin.apply_snapshot(snap).expect("restore");
    assert_eq!(
        twin.snapshot().digest(),
        snap.digest(),
        "a restored ecovisor re-snapshots to the identical state"
    );
    assert_eq!(twin.app_totals(_a).expect("totals"), snap.app_totals()[0].1);
}

/// Restore validates before mutating: unknown formats, unsupported
/// protocol versions, clock/tick disagreement, and a mismatched static
/// environment are all rejected as typed errors.
#[test]
fn apply_snapshot_rejects_malformed_and_mismatched_snapshots() {
    let (run, _a, _b) = run_original(0xBAD_5EED, 12);
    let good = &run.snap;

    // A later layout, and the one before this: no reader of format 1 is
    // kept.
    let mut twin = builder(0xBAD_5EED).build();
    for got in [SNAPSHOT_FORMAT + 1, 1] {
        let mut bad = good.clone();
        bad.format = got;
        assert_eq!(
            twin.apply_snapshot(&bad),
            Err(SnapshotError::Format { expected: 2, got })
        );
    }

    // The retired era and a future one alike.
    for era in [1, 99] {
        let mut bad = good.clone();
        bad.protocol_version = era;
        assert!(matches!(
            twin.apply_snapshot(&bad),
            Err(SnapshotError::Protocol(got)) if got == era
        ));
    }

    let mut bad = good.clone();
    bad.tick += 1;
    assert!(matches!(
        twin.apply_snapshot(&bad),
        Err(SnapshotError::Structure(_))
    ));

    // A default-built host has a different cluster and tick interval.
    let mut other_host = EcovisorBuilder::new().build();
    assert!(matches!(
        other_host.apply_snapshot(good),
        Err(SnapshotError::Environment(_))
    ));

    // The validation failures above left the twin untouched: the good
    // snapshot still applies cleanly afterwards.
    twin.apply_snapshot(good).expect("good snapshot applies");
    assert_eq!(twin.snapshot().digest(), good.digest());
}

/// How restore must refuse a hostile snapshot.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Refusal {
    Environment,
    Structure,
}

fn refusal_of(e: &SnapshotError) -> Option<Refusal> {
    match e {
        SnapshotError::Environment(_) => Some(Refusal::Environment),
        SnapshotError::Structure(_) => Some(Refusal::Structure),
        _ => None,
    }
}

/// The path of the latest stamp in the first tenant's first series.
const LATEST_STAMP: &str = "tenants.0.series.app.0.samples.last.at";

/// Every hostile edit of `good` — whose first tenant holds a battery
/// share and series of two containers or more, and whose second holds a
/// container — with the refusal restore owes it. The header (format,
/// era, digest, tick) stays honest throughout: what is edited is what
/// would be *installed*.
fn hostile_snapshots(good: &Snapshot) -> Vec<(&'static str, Snapshot, Refusal)> {
    use serde::Value;
    let tree = serde::Serialize::to_value(good);
    let next_container = match hostile::at(&tree, "system.next_container") {
        Value::Int(n) => n as u64,
        other => panic!("a container id: {other:?}"),
    };
    let receiver = hostile::Receiver {
        now: good.clock.now().as_secs() as i64,
        unborn: next_container,
        other_app: good.tenants[1].app.app.value(),
    };
    let neighbours = good.tenants[1].containers[0].id();
    let first_container = good.tenants[0].containers[0].id().value() as i64;
    // Every live container, with the path of its record.
    let live: Vec<(String, &Container)> = good
        .tenants
        .iter()
        .enumerate()
        .flat_map(|(t, tenant)| {
            tenant
                .containers
                .iter()
                .enumerate()
                .map(move |(i, c)| (format!("tenants.{t}.containers.{i}"), c))
        })
        .filter(|(_, c)| c.state() != ContainerState::Stopped)
        .collect();
    let (_, host) = &live[0];
    let (moved, _) = live
        .iter()
        .find(|(_, c)| c.server() != host.server())
        .expect("live containers on two servers");
    let mut cases: Vec<(&'static str, Vec<hostile::Edit>, Refusal)> =
        hostile::record_edits(&tree, "tenants.0", &receiver)
            .into_iter()
            .chain(hostile::checkpoint_edits(&tree))
            .map(|(name, edits)| (name, edits, Refusal::Structure))
            .collect();
    let one = |path: &str, to: Value| vec![(path.to_string(), to)];
    cases.extend([
        (
            "an embedded 1 GWh bank under an honest digest",
            one("system.physical_battery.spec.capacity", Value::Float(1e9)),
            Refusal::Environment,
        ),
        (
            "an embedded tick interval of 1 s under an honest digest",
            one("clock.interval", Value::Int(1)),
            Refusal::Environment,
        ),
        (
            "a net-metered grid under an honest digest of curtailment",
            one("system.grid.net_metering", Value::Bool(true)),
            Refusal::Environment,
        ),
        (
            "a carbon cap on a neighbour's container",
            one(
                "tenants.0.app.carbon_capped",
                Value::Seq(vec![Value::Int(neighbours.value() as i64)]),
            ),
            Refusal::Structure,
        ),
        (
            "two containers with one id",
            one("tenants.1.containers.0.id", Value::Int(first_container)),
            Refusal::Structure,
        ),
        (
            "a container on a server the cluster lacks",
            one("tenants.0.containers.0.server", Value::Int(SERVERS.into())),
            Refusal::Structure,
        ),
        (
            "two live quad-core containers on one quad-core server",
            one(
                &format!("{moved}.server"),
                Value::Int(host.server().value().into()),
            ),
            Refusal::Structure,
        ),
    ]);
    cases
        .into_iter()
        .map(|(name, edits, want)| (name, hostile::edited(good, &edits), want))
        .collect()
}

fn settle_one_tick(eco: &mut Ecovisor) {
    eco.tick(|_| ());
}

/// Restore checks what it would install, not what the snapshot says of
/// itself: each hostile edit is refused with its typed error while the
/// receiver still holds every bit of its own state, the honest capture
/// applies afterwards, and the tick after that settles.
#[test]
fn restore_refuses_hostile_snapshots_before_touching_state() {
    let seed = 0x0BAD_C0DE;
    let (run, _a, _b) = run_original(seed, 12);
    let good = &run.snap;
    for (name, hostile, want) in hostile_snapshots(good) {
        // A receiver with state of its own to lose.
        let (mut receiver, _, _) = build_eco(seed);
        settle_one_tick(&mut receiver);
        let before = receiver.snapshot().digest();

        let err = receiver
            .apply_snapshot(&hostile)
            .expect_err(&format!("{name}: accepted"));
        assert_eq!(refusal_of(&err), Some(want), "{name}: {err}");
        assert_eq!(receiver.snapshot().digest(), before, "{name}: touched");

        receiver.apply_snapshot(good).expect("the honest capture");
        assert_eq!(receiver.snapshot().digest(), good.digest(), "{name}");
        settle_one_tick(&mut receiver);
    }

    // Containers listed in any order restore to the honest capture.
    let mut descending = good.clone();
    descending.tenants[0].containers.reverse();
    let mut receiver = builder(seed).build();
    receiver.apply_snapshot(&descending).expect("admitted");
    assert_eq!(
        receiver.snapshot().digest(),
        good.digest(),
        "descending ids"
    );
    settle_one_tick(&mut receiver);

    // The boundary: a stamp *equal* to the clock is one the next
    // settlement overwrites, which a series allows.
    let now = good.clock.now().as_secs() as i64;
    let at_the_clock = hostile::edited(good, &[(LATEST_STAMP.into(), serde::Value::Int(now))]);
    let mut receiver = builder(seed).build();
    receiver.apply_snapshot(&at_the_clock).expect("admitted");
    settle_one_tick(&mut receiver);
}

/// A tenant cannot store a demand restore would refuse: a NaN demand is
/// answered with an error and the container keeps the demand it had, so
/// a checkpoint of that world still restores, and the tenant still moves
/// out and back in.
#[test]
fn a_nan_demand_is_refused_so_the_world_still_restores_and_grafts() {
    let seed = 0x0A0A_0A0A;
    let (mut eco, a, _b) = build_eco(seed);
    let fleet = launch_fleet(&mut eco.client(a).expect("client a"));
    {
        let mut client = eco.client(a).expect("client a");
        client
            .set_container_demand(fleet[0], 0.25)
            .expect("a number");
        assert!(matches!(
            client.set_container_demand(fleet[0], f64::NAN),
            Err(EcovisorError::Cop(CopError::InvalidState { .. }))
        ));
        client.flush();
    }
    let demand = |eco: &Ecovisor| eco.cop().container(fleet[0]).expect("live").demand();
    assert_eq!(demand(&eco), 0.25);
    settle_one_tick(&mut eco);

    let snap = Snapshot::from_bytes(&eco.snapshot().to_bytes()).expect("own capture decodes");
    let mut twin = builder(seed).build();
    twin.apply_snapshot(&snap).expect("restores");
    assert_eq!(twin.snapshot().digest(), snap.digest());

    let tenant = TenantSnapshot::from_bytes(&eco.extract_app(a).expect("registered").to_bytes())
        .expect("own capture decodes");
    eco.remove_app(a).expect("registered");
    eco.graft_app(&tenant).expect("grafts back");
    assert_eq!(demand(&eco), 0.25);
    settle_one_tick(&mut eco);
}

/// A NaN cap is refused as a NaN demand is: a NaN or −NaN
/// `SetContainerPowercap` answers an error and keeps the cap and the
/// quota it gives, and a NaN carbon-rate limit installs no carbon cap,
/// so every quota stays a number and the world still restores to its
/// own digest and its tenant extracts and grafts back.
#[test]
fn a_nan_cap_is_refused_so_the_world_still_restores_and_grafts() {
    let seed = 0x0B0B_0B0B;
    let (mut eco, a, _b) = build_eco(seed);
    let fleet = launch_fleet(&mut eco.client(a).expect("client a"));
    let capped = |eco: &Ecovisor| {
        let cop = eco.cop();
        let c = cop.container(fleet[0]).expect("live");
        (c.power_cap(), c.cpu_quota())
    };
    {
        let mut client = eco.client(a).expect("client a");
        for &c in &fleet {
            client.set_container_demand(c, 1.0).expect("a number");
        }
        client
            .set_container_powercap(fleet[0], Watts::new(2.0))
            .expect("a number");
    }
    let kept = capped(&eco);
    assert_eq!(kept.0, Some(Watts::new(2.0)));
    assert!(kept.1 < 1.0, "a 2 W cap gives a quota under 1");
    {
        let mut client = eco.client(a).expect("client a");
        for nan in [f64::NAN, -f64::NAN] {
            assert!(matches!(
                client.set_container_powercap(fleet[0], Watts::new(nan)),
                Err(EcovisorError::Cop(CopError::InvalidState { .. }))
            ));
        }
        client.set_carbon_rate(Some(CarbonRate::new(f64::NAN)));
        client.flush();
    }
    assert_eq!(capped(&eco), kept);
    settle_one_tick(&mut eco);
    assert_eq!(capped(&eco), kept);
    assert!(eco.cop().owned_by(a).all(|c| c.cpu_quota().is_finite()));

    let snap = Snapshot::from_bytes(&eco.snapshot().to_bytes()).expect("own capture decodes");
    let mut twin = builder(seed).build();
    twin.apply_snapshot(&snap).expect("restores");
    assert_eq!(twin.snapshot().digest(), snap.digest());

    let tenant = TenantSnapshot::from_bytes(&eco.extract_app(a).expect("registered").to_bytes())
        .expect("own capture decodes");
    eco.remove_app(a).expect("registered");
    eco.graft_app(&tenant).expect("grafts back");
    assert_eq!(capped(&eco), kept);
    settle_one_tick(&mut eco);
}

/// A snapshot cannot set what tenants are told. It carries no carbon
/// intensity — restore samples the carbon trace at the restored clock —
/// so `GetGridCarbon` on the restored twin answers the trace's value, and
/// the next settlement's `CarbonChange` compares the trace's values.
#[test]
fn restore_derives_the_carbon_intensity_from_the_clock() {
    let seed = 0xCA2B_0001;
    let (mut eco, a, _b) = build_eco(seed);
    for _ in 0..5 {
        settle_one_tick(&mut eco);
    }
    eco.drain_events(a);
    let honest = eco.snapshot();
    assert_eq!(honest.format, SNAPSHOT_FORMAT);

    let mut twin = builder(seed).build();
    twin.apply_snapshot(&honest).expect("restores");
    assert_eq!(
        twin.snapshot().digest(),
        honest.digest(),
        "re-derived, not installed"
    );

    let told = twin.client(a).expect("client").get_grid_carbon();
    assert_eq!(told, eco.client(a).expect("client").get_grid_carbon());

    let (at, dt) = (twin.now(), twin.tick_interval());
    for e in [&mut eco, &mut twin] {
        settle_one_tick(e);
    }
    let recorded = |t| {
        let mut recorded = None;
        twin.for_each_series(|subject, metric, series| {
            if (subject, metric) == (Subject::System, Metric::GridCarbonIntensity) {
                recorded = series.value_at(t);
            }
        });
        CarbonIntensity::new(recorded.expect("settled"))
    };
    assert_eq!(recorded(at), told, "charged what it told");
    let changes: Vec<Notification> = twin
        .drain_events(a)
        .into_iter()
        .filter(|e| matches!(e, Notification::CarbonChange { .. }))
        .collect();
    assert_eq!(
        changes,
        [Notification::CarbonChange {
            previous: recorded(at - dt),
            current: told,
        }]
    );
}

/// The restore determinism property loop (seeded, not random): over
/// seeded mixed-tenant days, snapshot at a pseudo-random tick, restore
/// from the encoded bytes, replay the remainder, and require identical
/// `VesTotals`, event frames, and FNV digests as the uninterrupted run.
#[test]
fn seeded_days_restore_equivalently() {
    for seed in [0x51AB_0001_u64, 0xD00D_0002, 0xFACE_0003] {
        // Seeded LCG pick of the snapshot tick, well inside the day.
        let lcg = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let snap_tick = 8 + (lcg >> 33) % (TICKS - 16);
        let (run, a, b) = run_original(seed, snap_tick);
        let tail_events: usize = run
            .frames
            .iter()
            .filter(|f| f.tick >= snap_tick)
            .map(|f| f.events.len())
            .sum();
        assert!(
            tail_events > 0,
            "seed {seed:#x}: the post-snapshot remainder must be eventful"
        );

        let decoded = Snapshot::from_bytes(&run.snap.to_bytes())
            .unwrap_or_else(|e| panic!("seed {seed:#x} decode: {e}"));
        assert_eq!(decoded.digest(), run.snap.digest(), "round trip");

        // Through the deployment wrapper: restore and the replay of
        // the remainder each run under its settlement barrier.
        let sharded = ShardedEcovisor::new(builder(seed).build());
        sharded
            .with(|eco| eco.apply_snapshot(&decoded))
            .expect("restore sharded");
        let report = sharded.replay_trace_from(&run.trace, snap_tick, TICKS);
        assert_eq!(report.ticks, TICKS - snap_tick);
        assert_equivalent(
            &run,
            sharded.read(|e| e.app_totals(a).expect("sharded a")),
            sharded.read(|e| e.app_totals(b).expect("sharded b")),
            &report.frames,
        );
    }
}

/// Exactly-once edge events across the checkpoint/restore boundary:
/// notifications drained before the snapshot are never redelivered, and
/// notifications still in the outbox at capture time are delivered once
/// by the restored process — the same sequence the original delivers.
#[test]
fn pending_edge_events_survive_restore_exactly_once() {
    let seed = 0xED6E_0001;
    let (mut eco, a, _b) = build_eco(seed);
    let ca = launch_fleet(&mut eco.client(a).expect("client a"));

    let is_edge = |e: &Notification| {
        matches!(
            e,
            Notification::BatteryFull
                | Notification::BatteryEmpty
                | Notification::BudgetExhausted { .. }
        )
    };

    // Charge phase, draining every tick: these deliveries are *done* and
    // must not reappear after a restore.
    let mut pre = Vec::new();
    for tick in 0..8 {
        tick_traffic_a(&mut eco.client(a).expect("client a"), tick, &ca);
        eco.tick(|_| ());
        pre.extend(eco.drain_events(a));
    }
    assert!(
        pre.iter().any(|e| matches!(e, Notification::BatteryFull)),
        "charge phase delivered BatteryFull before the snapshot"
    );

    // Discharge phase, *not* draining: edges accumulate undelivered in
    // the outbox until the snapshot captures them in flight.
    let mut tick = 8;
    let snap = loop {
        tick_traffic_a(&mut eco.client(a).expect("client a"), tick, &ca);
        eco.tick(|_| ());
        tick += 1;
        let snap = eco.snapshot();
        let pending = &snap
            .tenants
            .iter()
            .find(|t| t.app.app == a)
            .expect("tenant a in snapshot")
            .app
            .pending_events;
        if pending.iter().any(is_edge) {
            break snap;
        }
        assert!(
            tick < TICKS,
            "discharge phase never produced an in-flight edge"
        );
    };

    // The restored twin delivers exactly the undelivered set: identical
    // to the original's drain (once — not zero, not doubled) and free of
    // every pre-snapshot delivery.
    let mut twin = builder(seed).build();
    twin.apply_snapshot(&snap).expect("restore");
    let original_drain = eco.drain_events(a);
    let twin_drain = twin.drain_events(a);
    assert!(twin_drain.iter().any(is_edge), "in-flight edge delivered");
    assert_eq!(
        twin_drain, original_drain,
        "restored process delivers the captured outbox exactly once"
    );
    assert!(
        !twin_drain
            .iter()
            .any(|e| matches!(e, Notification::BatteryFull)),
        "pre-snapshot deliveries must not be redelivered"
    );

    // Driven onward with identical traffic, the two processes keep
    // delivering identical per-tick sequences.
    for t in tick..tick + 8 {
        for e in [&mut eco, &mut twin] {
            tick_traffic_a(&mut e.client(a).expect("client"), t, &ca);
            e.tick(|_| ());
        }
        assert_eq!(eco.drain_events(a), twin.drain_events(a), "tick {t}");
    }
    assert_eq!(
        eco.app_totals(a).expect("eco"),
        twin.app_totals(a).expect("twin")
    );
}

/// Applies an optional serving-thread count to a server under
/// construction: `None` keeps the auto-sized count, `Some(n)` pins `n`
/// threads. The wire tests below run under both so the snapshot/restore
/// surface is proven across thread counts.
fn with_pool(server: EcovisorServer, workers: Option<usize>) -> EcovisorServer {
    match workers {
        Some(n) => server.with_workers(n),
        None => server,
    }
}

/// The wire acceptance test: checkpoint a live credentialed server via
/// the v2 `Snapshot` request, seed a second server through `Restore`,
/// then drive both with identical traffic — every subsequent response is
/// bit-identical, and so are the servers' final states.
fn remote_seed_over_the_wire(workers: Option<usize>) {
    let seed = 0x5EED_CAFE;
    let half = TICKS / 2;

    let (eco_a, a, b) = build_eco(seed);
    let server_a = with_pool(
        EcovisorServer::bind("127.0.0.1:0", eco_a).expect("bind a"),
        workers,
    )
    .with_credentials(CredentialRegistry::new().with(a, "alpha").with(b, "beta"));
    let handle_a = server_a.spawn().expect("spawn a");
    let shared_a = handle_a.ecovisor();

    let mut cli_a = RemoteEcovisorClient::connect_full(handle_a.addr(), a, Some("alpha".into()))
        .expect("connect a");
    let mut cli_b = RemoteEcovisorClient::connect_full(handle_a.addr(), b, Some("beta".into()))
        .expect("connect b");
    let fleet = launch_fleet(&mut cli_a);
    let noise = cli_b
        .launch_container(ContainerSpec::quad_core())
        .expect("launch b");
    for tick in 0..half {
        tick_traffic_a(&mut cli_a, tick, &fleet);
        tick_traffic_b(&mut cli_b, tick, noise);
        shared_a.tick();
    }

    // Checkpoint over the wire …
    let snap = cli_a.fetch_snapshot().expect("fetch snapshot");
    assert_eq!(snap.tick, half);

    // … and seed a second process from it, also over the wire.
    let (eco_b, a2, b2) = build_eco(seed);
    assert_eq!((a2, b2), (a, b), "same registration order, same ids");
    let server_b = with_pool(
        EcovisorServer::bind("127.0.0.1:0", eco_b).expect("bind b"),
        workers,
    )
    .with_credentials(CredentialRegistry::new().with(a, "alpha").with(b, "beta"));
    let handle_b = server_b.spawn().expect("spawn b");
    let shared_b = handle_b.ecovisor();
    let mut cli_a2 = RemoteEcovisorClient::connect_full(handle_b.addr(), a, Some("alpha".into()))
        .expect("connect a2");
    cli_a2.push_restore(&snap).expect("push restore");
    assert_eq!(
        shared_b.with(|eco| eco.snapshot()).digest(),
        snap.digest(),
        "the seeded server holds exactly the checkpointed state"
    );
    let mut cli_b2 = RemoteEcovisorClient::connect_full(handle_b.addr(), b, Some("beta".into()))
        .expect("connect b2");

    // Identical subsequent traffic → bit-identical responses, observed
    // through typed queries and polled event streams on both tenants.
    let mut seen_a = Vec::new();
    let mut seen_b = Vec::new();
    for tick in half..TICKS {
        tick_traffic_a(&mut cli_a, tick, &fleet);
        tick_traffic_b(&mut cli_b, tick, noise);
        tick_traffic_a(&mut cli_a2, tick, &fleet);
        tick_traffic_b(&mut cli_b2, tick, noise);
        shared_a.tick();
        shared_b.tick();
        for (cli, noise_cli, out) in [
            (&mut cli_a, &mut cli_b, &mut seen_a),
            (&mut cli_a2, &mut cli_b2, &mut seen_b),
        ] {
            out.push((
                cli.get_grid_power(),
                cli.get_grid_carbon(),
                cli.get_battery_charge_level(),
                cli.get_app_power(),
                cli.poll_events().expect("poll"),
                noise_cli.get_grid_power(),
            ));
        }
    }
    assert_eq!(seen_a, seen_b, "subsequent responses must be bit-identical");
    assert!(
        seen_a
            .iter()
            .any(|(_, _, _, _, events, _)| !events.is_empty()),
        "the second half of the day was eventful"
    );

    let final_a = shared_a.with(|eco| eco.snapshot());
    let final_b = shared_b.with(|eco| eco.snapshot());
    assert_eq!(
        final_a.digest(),
        final_b.digest(),
        "both processes end the day in bit-identical state"
    );
    handle_a.shutdown();
    handle_b.shutdown();
}

#[test]
fn remote_process_seeded_over_the_wire_responds_bit_identically() {
    remote_seed_over_the_wire(None);
}

#[test]
fn remote_process_seeded_over_the_wire_with_pinned_worker_pool() {
    remote_seed_over_the_wire(Some(2));
}

/// The admin surface stays closed without authentication: a server with
/// no credential registry answers `Snapshot`/`Restore` with a denial the
/// client surfaces as `PermissionDenied`, and the connection survives the
/// refusal.
fn credential_gate_holds(workers: Option<usize>) {
    let (mut eco, a, _b) = build_eco(0xACCE55);
    let sample = eco.snapshot();
    let server = with_pool(
        EcovisorServer::bind("127.0.0.1:0", eco).expect("bind"),
        workers,
    );
    let handle = server.spawn().expect("spawn");

    let mut cli = RemoteEcovisorClient::connect(handle.addr(), a).expect("connect");
    let err = cli.fetch_snapshot().expect_err("unauthenticated fetch");
    assert_eq!(err.kind(), std::io::ErrorKind::PermissionDenied);
    assert!(
        err.to_string().contains("credential"),
        "denial names the gate: {err}"
    );
    let err = cli
        .push_restore(&sample)
        .expect_err("unauthenticated restore");
    assert_eq!(err.kind(), std::io::ErrorKind::PermissionDenied);
    // The refusal is a value, not a connection failure: the same
    // connection keeps serving ordinary traffic.
    assert_eq!(cli.get_grid_power(), Watts::ZERO);
    handle.shutdown();
}

#[test]
fn snapshot_surface_requires_credentialed_v2_connection() {
    credential_gate_holds(None);
}

#[test]
fn snapshot_surface_stays_gated_under_pinned_worker_pool() {
    credential_gate_holds(Some(4));
}

/// A restore the ecovisor rejects (here: environment mismatch) comes
/// back over the wire as a typed error, mapped to `InvalidData` — and
/// leaves the server's state untouched.
fn restore_rejection_is_a_value(workers: Option<usize>) {
    let (eco, a, _b) = build_eco(0xDEAD_10CC);
    let server = with_pool(
        EcovisorServer::bind("127.0.0.1:0", eco).expect("bind"),
        workers,
    )
    .with_credentials(CredentialRegistry::new().with(a, "alpha"));
    let handle = server.spawn().expect("spawn");
    let shared = handle.ecovisor();
    let before = shared.with(|eco| eco.snapshot()).digest();

    // A snapshot from a default-built host: wrong cluster, wrong tick
    // interval — apply_snapshot must refuse it.
    let mismatched = EcovisorBuilder::new().build().snapshot();
    let mut cli = RemoteEcovisorClient::connect_full(handle.addr(), a, Some("alpha".into()))
        .expect("connect");
    let err = cli
        .push_restore(&mismatched)
        .expect_err("mismatched restore");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(
        err.to_string().contains("restore rejected"),
        "error carries the rejection reason: {err}"
    );
    assert_eq!(
        shared.with(|eco| eco.snapshot()).digest(),
        before,
        "a rejected restore leaves the server untouched"
    );
    handle.shutdown();
}

#[test]
fn wire_restore_rejection_reports_reason_and_preserves_state() {
    restore_rejection_is_a_value(None);
}

#[test]
fn wire_restore_rejection_holds_under_pinned_worker_pool() {
    restore_rejection_is_a_value(Some(2));
}

/// The same hostile snapshots over the wire: each `push_restore` comes
/// back as an error *value* naming the rejection, the server's state is
/// untouched, the connection keeps serving, the honest capture is still
/// accepted, and the server's counters return to baseline.
#[test]
fn wire_restore_refuses_hostile_snapshots_and_keeps_serving() {
    let seed = 0x0BAD_C0DE;
    let (run, a, _b) = run_original(seed, 12);
    let (eco, _, _) = build_eco(seed);
    let handle = EcovisorServer::bind("127.0.0.1:0", eco)
        .expect("bind")
        .with_credentials(CredentialRegistry::new().with(a, "alpha"))
        .spawn()
        .expect("spawn");
    let shared = handle.ecovisor();
    let before = shared.with(|eco| eco.snapshot()).digest();

    let mut cli = RemoteEcovisorClient::connect_full(handle.addr(), a, Some("alpha".into()))
        .expect("connect");
    for (name, hostile, _) in hostile_snapshots(&run.snap) {
        let err = cli
            .push_restore(&hostile)
            .expect_err(&format!("{name}: accepted"));
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{name}: {err}");
        assert!(
            err.to_string().contains("restore rejected"),
            "{name}: {err}"
        );
        assert_eq!(
            shared.with(|eco| eco.snapshot()).digest(),
            before,
            "{name}: touched"
        );
        assert_eq!(cli.get_grid_power(), Watts::ZERO, "{name}: still serving");
    }
    cli.push_restore(&run.snap).expect("the honest capture");
    assert_eq!(
        shared.with(|eco| eco.snapshot()).digest(),
        run.snap.digest()
    );
    shared.tick();

    drop(cli);
    let idle = || {
        let s = handle.stats();
        s.active_connections == 0 && s.subscriber_backlog == 0 && s.recv_buffer_bytes == 0
    };
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while !idle() && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert!(idle(), "counters back to baseline: {:?}", handle.stats());
    handle.shutdown();
}
