//! Protocol v2 integration: the duplex wire end to end.
//!
//! Covers the redesign's acceptance surface:
//!
//! * the **retired v1 wire has a specified outcome**: a hello that does
//!   not offer the served wire version is rejected with a reason, the
//!   socket closes, nothing reaches the dispatcher, nothing leaks — and a
//!   v1-stamped batch on an accepted connection is refused wholesale;
//! * `PollEvents` gives unsubscribed remotes Table 2 event parity with a
//!   local `drain_events` twin;
//! * a **remote v2 subscriber receives the bit-identical notification
//!   sequence** a local drain twin observes over a seeded multi-tenant
//!   simulated day, and the recorded `ProtocolTrace` (event frames
//!   included) **replays to identical `VesTotals`** while regenerating
//!   the same push traffic;
//! * per-app **credentials** gate hellos before any batch is served;
//! * delivery **filters** select event categories per subscriber;
//! * the event **callback** surface behaves identically in-process and
//!   remote.

use container_cop::{AppId, ContainerId, ContainerSpec, CopConfig};
use ecovisor::proto::{EnergyRequest, RequestBatch};
use ecovisor::{
    ClientHelloV2, CredentialRegistry, Ecovisor, EcovisorBuilder, EcovisorServer, EnergyClient,
    EnergyShare, EventFilter, Notification, RemoteEcovisorClient, ServerHello, VesTotals,
    WireCodec, PROTOCOL_VERSION,
};
use simkit::rng::SimRng;
use simkit::time::SimDuration;
use simkit::trace::Trace;
use simkit::units::{Co2Grams, WattHours, Watts};

const TICKS: u64 = 48; // a simulated day at 30-minute ticks

/// The retired first version, of the wire and of the batch envelope.
const V1: u16 = 1;

/// `payloads` as length-prefixed frames, back to back.
fn raw_frames<'a>(payloads: impl IntoIterator<Item = &'a [u8]>) -> Vec<u8> {
    let mut wire = Vec::new();
    for payload in payloads {
        wire.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        wire.extend_from_slice(payload);
    }
    wire
}

/// Reads one length-prefixed frame off a raw socket.
fn read_raw_frame(stream: &mut std::net::TcpStream) -> Vec<u8> {
    use std::io::Read;
    let mut len = [0u8; 4];
    stream.read_exact(&mut len).expect("frame length");
    let mut payload = vec![0u8; u32::from_le_bytes(len) as usize];
    stream.read_exact(&mut payload).expect("frame payload");
    payload
}

/// Tenant A runs four containers: at full demand their draw outweighs
/// A's solar share on overcast ticks, so discharge phases reach the
/// battery's empty floor.
fn launch_fleet(client: &mut impl EnergyClient) -> Vec<ContainerId> {
    (0..4)
        .map(|_| {
            client
                .launch_container(ContainerSpec::quad_core())
                .expect("launch")
        })
        .collect()
}

/// A seeded day with deliberately eventful physics: solar swinging
/// between overcast and bright (SolarChange), carbon alternating
/// clean/dirty (CarbonChange), and a small virtual battery that fills
/// and drains under the per-tick traffic below (BatteryFull/Empty).
fn build_eco(seed: u64) -> (Ecovisor, AppId, AppId) {
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
    let mut eco = EcovisorBuilder::new()
        .tick_interval(dt)
        .cluster(CopConfig::microserver_cluster(8))
        .solar(Trace::from_samples(solar, dt))
        .carbon(Trace::from_samples(carbon, dt))
        .build();
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

/// Tenant A's deterministic per-tick control loop: 8 ticks of charging
/// at light load (fills the 8 Wh battery → BatteryFull), then 8 ticks of
/// heavy load on battery power (drains to the floor → BatteryEmpty).
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
        // A budget small enough to have been crossed by mid-day grid
        // draw on most seeds; parity must hold whether or not the
        // BudgetExhausted edge fires.
        client.set_carbon_budget(Some(Co2Grams::new(0.5)));
    }
    client.flush();
}

/// Tenant B's background noise: enough traffic to keep the run genuinely
/// multi-tenant.
fn tick_traffic_b(client: &mut impl EnergyClient, tick: u64, container: ContainerId) {
    client.set_battery_charge_rate(Watts::new(if tick.is_multiple_of(3) { 20.0 } else { 0.0 }));
    let _ = client.set_container_demand(container, 0.5 + 0.5 * ((tick % 4) as f64 / 4.0));
    client.flush();
}

/// Drives the seeded day **locally**: same registrations, same per-tick
/// traffic through in-process clients, draining tenant A's events after
/// every settlement. Returns (A's notification sequence, A totals, B
/// totals).
fn run_local_twin(seed: u64) -> (Vec<Notification>, VesTotals, VesTotals) {
    let (mut eco, a, b) = build_eco(seed);
    let ca = launch_fleet(&mut eco.client(a).expect("client a"));
    let cb = eco
        .client(b)
        .expect("client b")
        .launch_container(ContainerSpec::quad_core())
        .expect("launch b");
    let mut events = Vec::new();
    for tick in 0..TICKS {
        tick_traffic_a(&mut eco.client(a).expect("client a"), tick, &ca);
        tick_traffic_b(&mut eco.client(b).expect("client b"), tick, cb);
        eco.tick(|eco| events.extend(eco.drain_events(a)));
    }
    let ta = eco.app_totals(a).expect("totals a");
    let tb = eco.app_totals(b).expect("totals b");
    (events, ta, tb)
}

/// The tentpole acceptance test: over a seeded multi-tenant day, a
/// remote v2 subscriber's pushed notification stream is bit-identical to
/// a local `drain_events` twin, totals agree, and the recorded trace —
/// event frames included — replays to identical `VesTotals` while
/// regenerating the same push traffic.
#[test]
fn remote_subscriber_matches_local_drain_twin_and_trace_replays() {
    let seed = 0xEC02;

    // --- Remote run: server + two tenants, A subscribed ---
    let (mut eco, a, b) = build_eco(seed);
    eco.enable_protocol_trace();
    let server = EcovisorServer::bind("127.0.0.1:0", eco).expect("bind");
    let handle = server.spawn().expect("spawn");
    let shared = handle.ecovisor();

    let (remote_events, ta_remote, tb_remote) = {
        let mut client_a = RemoteEcovisorClient::connect(handle.addr(), a).expect("connect a");
        let mut client_b = RemoteEcovisorClient::connect(handle.addr(), b).expect("connect b");
        client_a
            .subscribe_events(EventFilter::all())
            .expect("subscribe");
        let ca = launch_fleet(&mut client_a);
        let cb = client_b
            .launch_container(ContainerSpec::quad_core())
            .expect("launch b");

        let mut events = Vec::new();
        for tick in 0..TICKS {
            tick_traffic_a(&mut client_a, tick, &ca);
            tick_traffic_b(&mut client_b, tick, cb);
            shared.tick();
            // Push-exclusivity: the broadcast drained the outbox inside
            // the settlement barrier, so polling finds nothing …
            let polled = client_a.poll_events().expect("poll");
            assert!(polled.is_empty(), "subscribed outbox drained by push");
            // … and the pushed frames (ingested during that round trip)
            // carry the settlement tick.
            for frame in client_a.take_event_frames() {
                assert_eq!(frame.tick, tick, "event frames carry the settlement tick");
                assert_eq!(frame.app, a);
                events.extend(frame.events);
            }
        }
        (events, (), ())
    };
    let shared = handle.shutdown();
    let (ta_remote, tb_remote, trace) = {
        let _ = (ta_remote, tb_remote);
        shared.with(|eco| {
            (
                eco.app_totals(a).expect("totals a"),
                eco.app_totals(b).expect("totals b"),
                eco.take_protocol_trace().expect("tracing"),
            )
        })
    };

    // The seeded day is genuinely eventful.
    let has = |pred: fn(&Notification) -> bool| remote_events.iter().any(pred);
    assert!(
        has(|e| matches!(e, Notification::SolarChange { .. })),
        "seeded day produced solar swings"
    );
    assert!(
        has(|e| matches!(e, Notification::CarbonChange { .. })),
        "seeded day produced carbon swings"
    );
    assert!(
        has(|e| matches!(e, Notification::BatteryFull)),
        "charge phases filled the battery"
    );
    assert!(
        has(|e| matches!(e, Notification::BatteryEmpty)),
        "discharge phases drained the battery"
    );

    // --- Local drain twin: bit-identical sequence and totals ---
    let (local_events, ta_local, tb_local) = run_local_twin(seed);
    assert_eq!(
        remote_events, local_events,
        "pushed sequence must equal the local drain sequence"
    );
    assert_eq!(ta_remote, ta_local);
    assert_eq!(tb_remote, tb_local);

    // --- Trace replay ---
    assert!(
        !trace.events.is_empty(),
        "push traffic was recorded in the trace"
    );
    assert!(trace.event_count() > 0);

    // Replay regenerates the recorded push traffic: only tenant A was
    // subscribed, so the recorded event frames are exactly A's.
    let (mut twin, pa, pb) = build_eco(seed);
    let report = twin.replay_trace_from(&trace, 0, TICKS);
    assert_eq!(
        report
            .frames
            .iter()
            .filter(|f| f.app == a)
            .collect::<Vec<_>>(),
        trace.events.iter().collect::<Vec<_>>(),
        "replayed event frames must match the recorded push traffic"
    );
    assert_eq!(twin.app_totals(pa).expect("replayed a"), ta_remote);
    assert_eq!(twin.app_totals(pb).expect("replayed b"), tb_remote);
}

/// Polling is the push-free way to Table 2 parity: a remote client that
/// never subscribes sees, through `PollEvents`, exactly what a local
/// `drain_events` twin sees.
#[test]
fn unsubscribed_remote_poll_matches_local_drain_twin() {
    let seed = 0xBEEF;
    let (eco, a, b) = build_eco(seed);
    let server = EcovisorServer::bind("127.0.0.1:0", eco).expect("bind");
    let handle = server.spawn().expect("spawn");
    let shared = handle.ecovisor();

    let remote_events = {
        let mut client_a = RemoteEcovisorClient::connect(handle.addr(), a).expect("connect a");
        let mut client_b = RemoteEcovisorClient::connect(handle.addr(), b).expect("connect b");
        let ca = launch_fleet(&mut client_a);
        let cb = client_b
            .launch_container(ContainerSpec::quad_core())
            .expect("launch b");
        let mut events = Vec::new();
        for tick in 0..TICKS {
            tick_traffic_a(&mut client_a, tick, &ca);
            tick_traffic_b(&mut client_b, tick, cb);
            shared.tick();
            events.extend(client_a.poll_events().expect("poll"));
            assert!(
                client_a.take_event_frames().is_empty(),
                "nothing is pushed to a connection that never subscribed"
            );
        }
        events
    };
    handle.shutdown();

    let (local_events, _, _) = run_local_twin(seed);
    assert!(!remote_events.is_empty(), "seeded day produced events");
    assert_eq!(
        remote_events, local_events,
        "polling must observe the drain sequence"
    );
}

/// One wire version and one frame encoding are served, and what a hello
/// offering neither gets is specified: the retired v1 hello shape, a
/// `ClientHelloV2` listing only v1, and a `ClientHelloV2` whose `codecs`
/// is `[Json]` or empty are each answered with `ServerHello::Reject` and
/// a reason naming what was missing, then the socket reads EOF. A batch
/// sent right behind the hello is never dispatched, and the server's
/// resource counters return to all-zero. A hello whose list contains
/// `Binary` — alone or next to `Json`, in either order — is accepted, and
/// the accept always names `Binary`.
#[test]
fn hellos_not_offering_the_served_wire_are_rejected_and_leave_no_trace() {
    use std::io::{Read, Write};

    let (mut eco, a, _b) = build_eco(7);
    eco.enable_protocol_trace();
    let server = EcovisorServer::bind("127.0.0.1:0", eco).expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.spawn().expect("spawn");

    let v1_shaped = format!(
        r#"{{"version":{V1},"app":{},"codecs":{}}}"#,
        serde::json::to_string(&a),
        serde::json::to_string(&vec![WireCodec::Json]),
    )
    .into_bytes();
    let v1_only = WireCodec::Json.encode(&ClientHelloV2 {
        versions: vec![V1],
        ..ClientHelloV2::new(a, vec![WireCodec::Binary], None)
    });
    let offering = |codecs| WireCodec::Json.encode(&ClientHelloV2::new(a, codecs, None));
    // What such a client would have sent next: a batch in the encoding
    // it believed it had (v1: bare, un-framed).
    let bare_batch = WireCodec::Json.encode(&RequestBatch {
        version: V1,
        app: a,
        requests: vec![EnergyRequest::GetGridPower],
    });
    // Sends `hello` (and `then` right behind it) and reads the reply. One
    // write carries both frames: the server closes as soon as it has
    // rejected the hello, and a second write would race that close.
    let exchange = |hello: &[u8], then: Option<&[u8]>| {
        let mut raw = std::net::TcpStream::connect(addr).expect("raw connect");
        raw.write_all(&raw_frames(std::iter::once(hello).chain(then)))
            .expect("send");
        let reply = WireCodec::Json
            .decode::<ServerHello>(&read_raw_frame(&mut raw))
            .expect("hello");
        (raw, reply)
    };

    for (what, hello, names) in [
        ("v1-shaped hello", v1_shaped, ""),
        ("v2 hello offering [1]", v1_only, "version"),
        ("codecs: [Json]", offering(vec![WireCodec::Json]), "codec"),
        ("codecs: []", offering(vec![]), "codec"),
    ] {
        let (mut raw, reply) = exchange(&hello, Some(&bare_batch));
        match reply {
            ServerHello::Reject { reason } => assert!(
                !reason.is_empty() && reason.contains(names),
                "{what}: a reject names what was missing, got {reason:?}"
            ),
            accept => panic!("{what}: must be rejected, got {accept:?}"),
        }
        let mut rest = Vec::new();
        assert_eq!(
            raw.read_to_end(&mut rest).expect("EOF after the reject"),
            0,
            "{what}: nothing follows the reject"
        );
    }

    for codecs in [
        vec![WireCodec::Binary],
        vec![WireCodec::Json, WireCodec::Binary],
        vec![WireCodec::Binary, WireCodec::Json],
    ] {
        let (_raw, reply) = exchange(&offering(codecs.clone()), None);
        assert_eq!(
            reply,
            ServerHello::Accept {
                version: 2,
                codec: WireCodec::Binary
            },
            "offered {codecs:?}"
        );
    }

    let drained = (0..1000).any(|_| {
        std::thread::sleep(std::time::Duration::from_millis(5));
        let s = handle.stats();
        s.active_connections == 0 && s.subscriber_backlog == 0 && s.recv_buffer_bytes == 0
    });
    assert!(
        drained,
        "counters back to all-zero, got {:?}",
        handle.stats()
    );
    let trace = handle
        .shutdown()
        .with(|eco| eco.take_protocol_trace())
        .expect("tracing");
    assert_eq!(
        trace.request_count(),
        0,
        "no rejected peer reached dispatch"
    );
}

/// The client checks the accept against what it offered: a server that
/// names another frame encoding (or wire version) is a connect error,
/// not a stream the client goes on to mis-decode.
#[test]
fn an_accept_naming_what_the_client_did_not_offer_is_a_connect_error() {
    use std::io::Write;

    for accept in [
        ServerHello::Accept {
            version: PROTOCOL_VERSION,
            codec: WireCodec::Json,
        },
        ServerHello::Accept {
            version: PROTOCOL_VERSION + 1,
            codec: WireCodec::Binary,
        },
    ] {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let reply = WireCodec::Json.encode(&accept);
        let impostor = std::thread::spawn(move || {
            let (mut peer, _) = listener.accept().expect("accept");
            let hello = read_raw_frame(&mut peer);
            peer.write_all(&raw_frames([reply.as_slice()]))
                .expect("reply");
            WireCodec::Json
                .decode::<ClientHelloV2>(&hello)
                .expect("the client's hello is JSON")
        });
        let err = RemoteEcovisorClient::connect(addr, AppId::new(1))
            .expect_err("an unoffered accept must not connect");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{accept:?}");
        let hello = impostor.join().expect("impostor");
        assert_eq!(hello.versions, vec![PROTOCOL_VERSION]);
        assert_eq!(hello.codecs, vec![WireCodec::Binary]);
    }
}

/// Credentials gate the hello: wrong/missing tokens are rejected before
/// any batch reaches the dispatcher.
#[test]
fn credentials_are_verified_before_any_batch() {
    let (mut eco, a, b) = build_eco(11);
    eco.enable_protocol_trace();
    let creds = CredentialRegistry::new()
        .with(a, "alpha-token")
        .with(b, "beta-token");
    let server = EcovisorServer::bind("127.0.0.1:0", eco)
        .expect("bind")
        .with_credentials(creds);
    let addr = server.local_addr().expect("addr");
    let handle = server.spawn().expect("spawn");

    // Wrong token, someone else's token, no token: all rejected at
    // hello.
    for attempt in [
        RemoteEcovisorClient::connect_full(addr, a, Some("wrong".into())),
        RemoteEcovisorClient::connect_full(addr, a, Some("beta-token".into())),
        RemoteEcovisorClient::connect(addr, a),
    ] {
        let err = attempt.expect_err("must be rejected");
        assert_eq!(err.kind(), std::io::ErrorKind::ConnectionRefused);
        assert!(
            err.to_string().contains("credential"),
            "rejection names the credential gate: {err}"
        );
    }

    // The right token is served normally, push included.
    let mut ok = RemoteEcovisorClient::connect_full(addr, a, Some("alpha-token".into()))
        .expect("authenticated connect");
    ok.subscribe_events(EventFilter::all()).expect("subscribe");
    assert_eq!(ok.get_grid_power(), Watts::ZERO);
    drop(ok);

    // "Before any batch is served", verified against the record: the
    // trace captured only the authenticated connection's traffic
    // (subscribe + the query), nothing from the rejected attempts.
    let shared = handle.shutdown();
    let trace = shared
        .with(|eco| eco.take_protocol_trace())
        .expect("tracing");
    assert_eq!(trace.request_count(), 2);
    assert!(trace
        .entries
        .iter()
        .all(|e| e.batch.app == a && e.batch.version == PROTOCOL_VERSION));
}

/// A v1-stamped batch is refused wholesale over the wire, even on a
/// credentialed connection: every request answers `Version`, the budget
/// it carried never takes effect, the subscription is never applied and
/// the admin request is never served.
#[test]
fn a_v1_envelope_is_refused_over_the_wire() {
    use ecovisor::proto::{EnergyResponse, ProtoError};

    let (eco, a, _b) = build_eco(13);
    let server = EcovisorServer::bind("127.0.0.1:0", eco)
        .expect("bind")
        .with_credentials(CredentialRegistry::new().with(a, "alpha-token"));
    let handle = server.spawn().expect("spawn");
    let shared = handle.ecovisor();
    let mut client =
        RemoteEcovisorClient::connect_full(handle.addr(), a, Some("alpha-token".into()))
            .expect("authenticated connect");

    let reply = client.transport(RequestBatch {
        version: V1,
        app: a,
        requests: vec![
            EnergyRequest::SetCarbonBudget {
                budget: Some(Co2Grams::new(1.0)),
            },
            EnergyRequest::SubscribeEvents {
                filter: EventFilter::all(),
            },
            EnergyRequest::Stats,
        ],
    });
    let refused = EnergyResponse::Err(ProtoError::Version {
        expected: PROTOCOL_VERSION,
        got: V1,
    });
    assert_eq!(reply.version, PROTOCOL_VERSION);
    assert_eq!(reply.responses, vec![refused; 3]);
    assert_eq!(client.carbon_budget(), None, "the budget never landed");

    shared.tick();
    shared.tick();
    let _ = client.get_grid_power(); // ingests anything pushed
    assert!(
        client.take_event_frames().is_empty(),
        "the subscription was never applied"
    );
    assert!(
        !client.poll_events().expect("poll").is_empty(),
        "the tick raised events, which stayed pending"
    );
    drop(client);
    handle.shutdown();
}

/// Delivery filters: a subscriber that opted into carbon events only
/// never receives solar/battery notifications, while a full subscriber
/// on the same app is unaffected — same frame, per-subscriber view.
#[test]
fn push_filters_select_categories_per_subscriber() {
    let (eco, a, _b) = build_eco(23);
    let server = EcovisorServer::bind("127.0.0.1:0", eco).expect("bind");
    let handle = server.spawn().expect("spawn");
    let shared = handle.ecovisor();

    let mut carbon_only = RemoteEcovisorClient::connect(handle.addr(), a).expect("connect");
    let mut everything = RemoteEcovisorClient::connect(handle.addr(), a).expect("connect");
    let mut filter = EventFilter::none();
    filter.carbon = true;
    carbon_only.subscribe_events(filter).expect("subscribe");
    everything
        .subscribe_events(EventFilter::all())
        .expect("subscribe");
    let fleet = launch_fleet(&mut carbon_only);

    let mut narrow = Vec::new();
    let mut full = Vec::new();
    for tick in 0..16 {
        tick_traffic_a(&mut carbon_only, tick, &fleet);
        shared.tick();
        narrow.extend(carbon_only.events());
        full.extend(everything.events());
    }
    handle.shutdown();

    assert!(!narrow.is_empty(), "carbon swings were delivered");
    assert!(
        narrow
            .iter()
            .all(|e| matches!(e, Notification::CarbonChange { .. })),
        "filter must suppress non-carbon events, got {narrow:?}"
    );
    let full_carbon: Vec<&Notification> = full
        .iter()
        .filter(|e| matches!(e, Notification::CarbonChange { .. }))
        .collect();
    assert_eq!(
        narrow.iter().collect::<Vec<_>>(),
        full_carbon,
        "the filtered stream is the full stream's carbon sub-sequence"
    );
    assert!(
        full.iter()
            .any(|e| !matches!(e, Notification::CarbonChange { .. })),
        "the unfiltered subscriber saw other categories"
    );
}

/// A narrow subscription must not destroy the events it filters out:
/// the broadcast drains only the union of subscriber filters, so a
/// poller on the same app still receives everything the subscriber
/// opted out of.
#[test]
fn filtered_out_events_stay_pollable() {
    let (eco, a, _b) = build_eco(31);
    let server = EcovisorServer::bind("127.0.0.1:0", eco).expect("bind");
    let handle = server.spawn().expect("spawn");
    let shared = handle.ecovisor();

    let mut battery_only = RemoteEcovisorClient::connect(handle.addr(), a).expect("connect");
    let mut poller = RemoteEcovisorClient::connect(handle.addr(), a).expect("connect");
    let mut filter = EventFilter::none();
    filter.battery = true;
    battery_only.subscribe_events(filter).expect("subscribe");
    let fleet = launch_fleet(&mut battery_only);

    let mut pushed = Vec::new();
    let mut polled = Vec::new();
    for tick in 0..16 {
        tick_traffic_a(&mut battery_only, tick, &fleet);
        shared.tick();
        // Ingest pushed frames via a plain round trip (not `events()`,
        // which would also poll and race the dedicated poller for the
        // leftovers).
        let _ = battery_only.get_grid_power();
        pushed.extend(
            battery_only
                .take_event_frames()
                .into_iter()
                .flat_map(|f| f.events),
        );
        polled.extend(poller.poll_events().expect("poll"));
    }
    handle.shutdown();

    assert!(
        pushed
            .iter()
            .all(|e| matches!(e, Notification::BatteryFull | Notification::BatteryEmpty)),
        "subscriber receives only its categories, got {pushed:?}"
    );
    assert!(
        polled
            .iter()
            .any(|e| matches!(e, Notification::CarbonChange { .. })),
        "carbon events the subscriber opted out of reach the poller"
    );
    assert!(
        polled
            .iter()
            .all(|e| !matches!(e, Notification::BatteryFull | Notification::BatteryEmpty)),
        "battery events were consumed by the subscriber, not re-delivered"
    );
}

/// Both clients' `events()` drain the same notification sequence for
/// the same seeded scenario: pushed frames off the wire, polls in
/// process.
#[test]
fn events_drain_the_same_sequence_on_both_transports() {
    let seed = 0x5EED;

    let remote_drained = {
        let (eco, a, _b) = build_eco(seed);
        let server = EcovisorServer::bind("127.0.0.1:0", eco).expect("bind");
        let handle = server.spawn().expect("spawn");
        let shared = handle.ecovisor();
        let mut client = RemoteEcovisorClient::connect(handle.addr(), a).expect("connect");
        client
            .subscribe_events(EventFilter::all())
            .expect("subscribe");
        let fleet = launch_fleet(&mut client);
        let mut drained = Vec::new();
        for tick in 0..16 {
            tick_traffic_a(&mut client, tick, &fleet);
            shared.tick();
            drained.extend(client.events());
        }
        handle.shutdown();
        drained
    };
    assert!(!remote_drained.is_empty());

    let local_drained = {
        let (mut eco, a, _b) = build_eco(seed);
        let fleet = launch_fleet(&mut eco.client(a).expect("client"));
        let mut drained = Vec::new();
        for tick in 0..16 {
            {
                let mut client = eco.client(a).expect("client");
                tick_traffic_a(&mut client, tick, &fleet);
            }
            eco.tick(|_| ());
            drained.extend(eco.client(a).expect("client").events());
        }
        drained
    };
    assert_eq!(
        local_drained, remote_drained,
        "transports deliver the same sequence"
    );
}
