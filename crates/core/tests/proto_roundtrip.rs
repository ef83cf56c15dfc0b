//! Wire-format round-trip coverage: every [`EnergyRequest`],
//! [`EnergyResponse`], and [`ProtoError`] variant serializes to JSON and
//! parses back to an identical value, so any protocol peer speaking the
//! JSON wire form interoperates with the dispatcher.

use container_cop::{AppId, ContainerId, ContainerSpec};
use ecovisor::proto::{
    EnergyRequest, EnergyResponse, EventFrame, ProtoError, RequestBatch, ResponseBatch,
    StatsReport, KINDS,
};
use ecovisor::{
    EnergyShare, EventFilter, FedAppView, Notification, ProtocolTrace, TraceEntry,
    VirtualEnergySystem, PROTOCOL_VERSION,
};
use simkit::time::{SimDuration, SimTime};
use simkit::units::{CarbonIntensity, CarbonRate, Co2Grams, WattHours, Watts};

fn round_trip_request(req: &EnergyRequest) {
    let wire = serde::json::to_string(req);
    let back: EnergyRequest = serde::json::from_str(&wire).expect("parse back");
    assert_eq!(&back, req, "wire form was {wire}");
}

fn round_trip_response(resp: &EnergyResponse) {
    let wire = serde::json::to_string(resp);
    let back: EnergyResponse = serde::json::from_str(&wire).expect("parse back");
    assert_eq!(&back, resp, "wire form was {wire}");
}

/// One exemplar per request variant — a compile-time-checked exhaustive
/// list (the `match` below fails to compile if a variant is added
/// without a round-trip exemplar).
fn all_requests() -> Vec<EnergyRequest> {
    requests_on(ContainerId::new(7))
}

/// [`all_requests`] with every container-addressed exemplar aimed at `c`.
fn requests_on(c: ContainerId) -> Vec<EnergyRequest> {
    let from = SimTime::from_secs(60);
    let to = SimTime::from_secs(360);
    vec![
        EnergyRequest::SetContainerPowercap {
            container: c,
            cap: Watts::new(3.5),
        },
        EnergyRequest::ClearContainerPowercap { container: c },
        EnergyRequest::SetBatteryChargeRate {
            rate: Watts::new(120.0),
        },
        EnergyRequest::SetBatteryMaxDischarge {
            rate: Watts::new(75.25),
        },
        EnergyRequest::GetSolarPower,
        EnergyRequest::GetGridPower,
        EnergyRequest::GetGridCarbon,
        EnergyRequest::GetBatteryDischargeRate,
        EnergyRequest::GetBatteryChargeLevel,
        EnergyRequest::GetContainerPowercap { container: c },
        EnergyRequest::GetContainerPower { container: c },
        EnergyRequest::LaunchContainer {
            spec: ContainerSpec::quad_core(),
        },
        EnergyRequest::StopContainer { container: c },
        EnergyRequest::SuspendContainer { container: c },
        EnergyRequest::ResumeContainer { container: c },
        EnergyRequest::SetContainerDemand {
            container: c,
            demand: 0.625,
        },
        EnergyRequest::ListContainers,
        EnergyRequest::CountRunningContainers,
        EnergyRequest::GetEffectiveCores,
        EnergyRequest::GetContainerEffectiveCores { container: c },
        EnergyRequest::GetTime,
        EnergyRequest::GetTickInterval,
        EnergyRequest::GetAppId,
        EnergyRequest::GetContainerEnergy {
            container: c,
            from,
            to,
        },
        EnergyRequest::GetContainerCarbon {
            container: c,
            from,
            to,
        },
        EnergyRequest::GetAppPower,
        EnergyRequest::GetAppEnergy { from, to },
        EnergyRequest::GetAppCarbon,
        EnergyRequest::GetAppCarbonBetween { from, to },
        EnergyRequest::SetCarbonRate {
            rate: Some(CarbonRate::new(0.004)),
        },
        EnergyRequest::SetCarbonRate { rate: None },
        EnergyRequest::GetCarbonRateLimit,
        EnergyRequest::SetCarbonBudget {
            budget: Some(Co2Grams::new(1500.0)),
        },
        EnergyRequest::SetCarbonBudget { budget: None },
        EnergyRequest::GetCarbonBudget,
        EnergyRequest::GetRemainingCarbonBudget,
        EnergyRequest::PollEvents,
        EnergyRequest::SubscribeEvents {
            filter: EventFilter::all(),
        },
        EnergyRequest::Snapshot { chunk: 1 },
        EnergyRequest::Restore {
            index: 0,
            total: 2,
            data: vec![0x13, 0x37, 0x00],
        },
        EnergyRequest::MigrateOut {
            app: AppId::new(4),
            chunk: 1,
        },
        EnergyRequest::MigrateIn {
            index: 0,
            total: 3,
            data: vec![0xFE, 0xED],
        },
        EnergyRequest::MigrateCommit { app: AppId::new(4) },
        EnergyRequest::FedCollect,
        EnergyRequest::FedSettle {
            views: vec![FedAppView {
                app: AppId::new(2),
                ves: VirtualEnergySystem::new(EnergyShare::grid_only().with_solar_fraction(0.25)),
                power: Watts::new(17.5),
            }],
        },
        EnergyRequest::FedSettle { views: vec![] },
        EnergyRequest::FedAlign { next_container: 42 },
        EnergyRequest::FedCursor,
        EnergyRequest::Stats,
    ]
}

fn all_responses() -> Vec<EnergyResponse> {
    vec![
        EnergyResponse::Ok,
        EnergyResponse::Power(Watts::new(42.5)),
        EnergyResponse::PowerCap(Some(Watts::new(2.0))),
        EnergyResponse::PowerCap(None),
        EnergyResponse::Energy(WattHours::new(576.5)),
        EnergyResponse::Carbon(Co2Grams::new(12.75)),
        EnergyResponse::Intensity(CarbonIntensity::new(250.0)),
        EnergyResponse::RateLimit(Some(CarbonRate::new(0.01))),
        EnergyResponse::RateLimit(None),
        EnergyResponse::Budget(Some(Co2Grams::new(900.0))),
        EnergyResponse::Budget(None),
        EnergyResponse::Cores(3.5),
        EnergyResponse::Count(4),
        EnergyResponse::Container(ContainerId::new(9)),
        EnergyResponse::Containers(vec![ContainerId::new(1), ContainerId::new(2)]),
        EnergyResponse::Time(SimTime::from_secs(7200)),
        EnergyResponse::Interval(SimDuration::from_secs(60)),
        EnergyResponse::App(AppId::new(3)),
        EnergyResponse::Events(vec![
            Notification::BatteryFull,
            Notification::SolarChange {
                previous: Watts::new(120.0),
                current: Watts::new(40.0),
            },
            Notification::BudgetExhausted {
                budget: Co2Grams::new(100.0),
                carbon: Co2Grams::new(101.5),
            },
        ]),
        EnergyResponse::Events(vec![]),
        EnergyResponse::SnapshotChunk {
            index: 2,
            total: 5,
            data: vec![0xAB, 0xCD],
        },
        EnergyResponse::SnapshotChunk {
            index: 0,
            total: 1,
            data: vec![],
        },
        EnergyResponse::Err(ProtoError::Denied("admin surface is closed".into())),
        EnergyResponse::Err(ProtoError::Version {
            expected: PROTOCOL_VERSION,
            got: 99,
        }),
        EnergyResponse::Err(ProtoError::UnknownApp(AppId::new(8))),
        EnergyResponse::Err(ProtoError::Scope {
            container: ContainerId::new(5),
            app: AppId::new(2),
        }),
        EnergyResponse::Err(ProtoError::UnknownContainer(ContainerId::new(11))),
        EnergyResponse::Err(ProtoError::InsufficientCapacity {
            cores: 64,
            memory_mib: 1 << 40,
        }),
        EnergyResponse::Err(ProtoError::InvalidState {
            container: ContainerId::new(6),
            reason: "already stopped".into(),
        }),
        EnergyResponse::Err(ProtoError::NotAQuery),
        EnergyResponse::Err(ProtoError::Other("share \"exceeded\"\n".into())),
        EnergyResponse::Demands(vec![FedAppView {
            app: AppId::new(1),
            ves: VirtualEnergySystem::new(EnergyShare::grid_only()),
            power: Watts::new(3.75),
        }]),
        EnergyResponse::Demands(vec![]),
        EnergyResponse::Stats(StatsReport::default()),
        EnergyResponse::Stats(StatsReport {
            active_connections: 3,
            subscriber_backlog: 7,
            recv_buffer_bytes: 4096,
            metrics: {
                let registry = power_telemetry::ops::Registry::new();
                registry.counter("dispatch.requests_total").add(11);
                registry.gauge("core.tick").set(-2);
                let hist = registry.histogram("dispatch.batch_latency_ns");
                hist.record(900);
                hist.record(1024);
                registry.snapshot()
            },
        }),
    ]
}

#[test]
fn every_request_variant_round_trips() {
    let requests = all_requests();
    // Compile-time exhaustiveness: adding a variant without extending
    // `all_requests` breaks this match.
    for r in &requests {
        use EnergyRequest::*;
        match r {
            SetContainerPowercap { .. }
            | ClearContainerPowercap { .. }
            | SetBatteryChargeRate { .. }
            | SetBatteryMaxDischarge { .. }
            | GetSolarPower
            | GetGridPower
            | GetGridCarbon
            | GetBatteryDischargeRate
            | GetBatteryChargeLevel
            | GetContainerPowercap { .. }
            | GetContainerPower { .. }
            | LaunchContainer { .. }
            | StopContainer { .. }
            | SuspendContainer { .. }
            | ResumeContainer { .. }
            | SetContainerDemand { .. }
            | ListContainers
            | CountRunningContainers
            | GetEffectiveCores
            | GetContainerEffectiveCores { .. }
            | GetTime
            | GetTickInterval
            | GetAppId
            | GetContainerEnergy { .. }
            | GetContainerCarbon { .. }
            | GetAppPower
            | GetAppEnergy { .. }
            | GetAppCarbon
            | GetAppCarbonBetween { .. }
            | SetCarbonRate { .. }
            | GetCarbonRateLimit
            | SetCarbonBudget { .. }
            | GetCarbonBudget
            | GetRemainingCarbonBudget
            | PollEvents
            | SubscribeEvents { .. }
            | Snapshot { .. }
            | Restore { .. }
            | MigrateOut { .. }
            | MigrateIn { .. }
            | MigrateCommit { .. }
            | FedCollect
            | FedSettle { .. }
            | FedAlign { .. }
            | FedCursor
            | Stats => {}
        }
        round_trip_request(r);
    }
    // Every variant name appears exactly once in the exemplar list
    // (modulo the deliberate Some/None doubles).
    let names: std::collections::BTreeSet<&str> = requests.iter().map(|r| r.name()).collect();
    assert_eq!(names.len(), 46);
}

#[test]
fn every_response_variant_round_trips() {
    for resp in &all_responses() {
        use EnergyResponse::*;
        match resp {
            Ok
            | Power(_)
            | PowerCap(_)
            | Energy(_)
            | Carbon(_)
            | Intensity(_)
            | RateLimit(_)
            | Budget(_)
            | Cores(_)
            | Count(_)
            | Container(_)
            | Containers(_)
            | Time(_)
            | Interval(_)
            | App(_)
            | Events(_)
            | SnapshotChunk { .. }
            | Err(_)
            | Demands(_)
            | Stats(_) => {}
        }
        round_trip_response(resp);
    }
}

#[test]
fn batches_round_trip_as_envelopes() {
    let batch = RequestBatch::new(AppId::new(2), all_requests());
    assert_eq!(batch.version, PROTOCOL_VERSION);
    let wire = serde::json::to_string(&batch);
    let back: RequestBatch = serde::json::from_str(&wire).expect("parse back");
    assert_eq!(back, batch);

    let resp = ResponseBatch {
        version: PROTOCOL_VERSION,
        app: AppId::new(2),
        responses: all_responses(),
    };
    let wire = serde::json::to_string(&resp);
    let back: ResponseBatch = serde::json::from_str(&wire).expect("parse back");
    assert_eq!(back, resp);
}

/// The worked example of `docs/PROTOCOL.md` §5: the §5.1 batch encodes
/// to the §5.1 JSON text and to the 83 bytes annotated in §5.2.
#[test]
fn the_protocol_doc_example_batch_encodes_as_documented() {
    let batch = RequestBatch::new(
        AppId::new(7),
        vec![
            EnergyRequest::GetSolarPower,
            EnergyRequest::SetBatteryChargeRate {
                rate: Watts::new(80.0),
            },
        ],
    );
    assert_eq!(
        serde::json::to_string(&batch),
        r#"{"version":2,"app":7,"requests":["GetSolarPower",{"SetBatteryChargeRate":{"rate":80.0}}]}"#
    );
    #[rustfmt::skip] // the §5.2 annotation, one line of it per row
    let annotated: [&[u8]; 13] = [
        &[0x08, 0x03],
        b"\x07version",
        &[0x03, 0x04],
        b"\x03app",
        &[0x03, 0x0e],
        b"\x08requests",
        &[0x07, 0x02],
        b"\x06\x0dGetSolarPower",
        &[0x08, 0x01],
        b"\x14SetBatteryChargeRate",
        &[0x08, 0x01],
        b"\x04rate",
        &[0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x54, 0x40],
    ];
    let expected = annotated.concat();
    assert_eq!(expected.len(), 83);
    assert_eq!(serde::binary::to_bytes(&batch), expected);
}

#[test]
fn protocol_traces_round_trip() {
    let trace = ProtocolTrace {
        entries: vec![
            TraceEntry {
                tick: 0,
                batch: RequestBatch::new(AppId::new(1), all_requests()),
            },
            TraceEntry {
                tick: 1,
                batch: RequestBatch::new(AppId::new(2), vec![EnergyRequest::GetAppPower]),
            },
        ],
        events: vec![EventFrame {
            version: PROTOCOL_VERSION,
            app: AppId::new(1),
            tick: 1,
            events: vec![
                Notification::BatteryEmpty,
                Notification::CarbonChange {
                    previous: CarbonIntensity::new(210.0),
                    current: CarbonIntensity::new(420.0),
                },
            ],
        }],
    };
    // 49 exemplar requests (46 variants + the two `None` doubles + the
    // empty `FedSettle` double) + 1.
    assert_eq!(trace.request_count(), 50);
    assert_eq!(trace.event_count(), 2);
    let wire = serde::json::to_string(&trace);
    let back: ProtocolTrace = serde::json::from_str(&wire).expect("parse back");
    assert_eq!(back, trace);
}

#[test]
fn command_query_split_is_total() {
    for r in &all_requests() {
        assert_ne!(
            r.is_query(),
            r.is_command(),
            "{} must be exactly one",
            r.name()
        );
    }
}

/// Every predicate on a request reads its [`KINDS`] row, so the rows must
/// line up with the variants and agree with each other.
#[test]
fn kind_table_rows_are_consistent() {
    assert_eq!(KINDS.len(), EnergyRequest::KIND_COUNT);
    let mut covered = std::collections::BTreeSet::new();
    for r in &all_requests() {
        let row = &KINDS[r.kind_index()];
        covered.insert(r.kind_index());
        assert_eq!(r.name(), row.name);
        assert_eq!(r.is_query(), row.query, "{}", row.name);
        assert_eq!(r.is_admin(), row.admin, "{}", row.name);
    }
    assert_eq!(covered.len(), KINDS.len(), "an exemplar for every row");
    let mut names = std::collections::BTreeSet::new();
    for (i, row) in KINDS.iter().enumerate() {
        assert_eq!(row.name, EnergyRequest::KIND_NAMES[i]);
        assert!(names.insert(row.name), "{} names two kinds", row.name);
        if row.admin {
            assert!(!row.query, "{}: the admin surface is commands", row.name);
        }
    }
}

/// The dispatcher `expect`s a COP guard wherever a row's `cop` column
/// says the batch took one. Each kind goes *alone* in its
/// batch — in a mixed batch a neighbour's guard hides a cleared column —
/// against a tenant whose one container the exemplars address, so scope
/// checks pass and every arm runs to its guard. Stamped with any version
/// but the served one — the retired v1 or a future one — every kind is
/// refused in a served-version envelope and changes nothing.
#[test]
fn every_kind_dispatches_alone_at_the_served_envelope_version_only() {
    use container_cop::CopConfig;
    use ecovisor::EcovisorBuilder;

    // The id a fresh platform gives its first container.
    let c = ContainerId::new(0);
    for version in [1, PROTOCOL_VERSION, PROTOCOL_VERSION + 1] {
        for req in requests_on(c) {
            // A fresh world per request: `StopContainer` and friends
            // must not change what the next kind finds.
            let mut eco = EcovisorBuilder::new()
                .cluster(CopConfig::microserver_cluster(2))
                .build();
            let app = eco
                .register_app("tenant", EnergyShare::grid_only())
                .expect("register");
            let launch = EnergyRequest::LaunchContainer {
                spec: ContainerSpec::single_core(),
            };
            let launched = eco.dispatch_batch(&RequestBatch::new(app, vec![launch]));
            assert_eq!(launched.responses, [EnergyResponse::Container(c)]);

            let mut batch = RequestBatch::new(app, vec![req.clone()]);
            batch.version = version;
            let before = eco.snapshot().digest();
            let reply = eco.dispatch_batch(&batch);
            assert_eq!(
                reply.version,
                PROTOCOL_VERSION,
                "{} at v{version}",
                req.name()
            );
            assert_eq!(reply.responses.len(), 1, "{} at v{version}", req.name());
            let refused = matches!(
                reply.responses[0],
                EnergyResponse::Err(ProtoError::Version { expected, got })
                    if expected == PROTOCOL_VERSION && got == version
            );
            assert_eq!(
                refused,
                version != PROTOCOL_VERSION,
                "{} at v{version} answered {:?}",
                req.name(),
                reply.responses[0]
            );
            if refused {
                assert_eq!(
                    eco.snapshot().digest(),
                    before,
                    "{} at v{version} changed state",
                    req.name()
                );
            }
        }
    }
}

/// End-to-end record/replay: the API traffic of a live run, captured by
/// the dispatcher, can be serialized, parsed back, and replayed against
/// a fresh twin ecovisor — which then ends up in the same state.
#[test]
fn recorded_traffic_replays_onto_a_twin() {
    use container_cop::CopConfig;
    use ecovisor::{
        Application, EcovisorBuilder, EcovisorClient, EnergyClient, EnergyShare, Simulation,
    };

    struct Busy;
    impl Application for Busy {
        fn on_start(&mut self, api: &mut EcovisorClient<'_>) {
            let c = api.launch_container(ContainerSpec::quad_core()).unwrap();
            api.set_container_demand(c, 1.0).unwrap();
        }
        fn on_tick(&mut self, api: &mut EcovisorClient<'_>) {
            // Mixed traffic: queued setters + an immediate query per tick.
            api.set_battery_charge_rate(Watts::new(50.0));
            let _ = api.get_grid_carbon();
        }
    }

    let build = || {
        EcovisorBuilder::new()
            .cluster(CopConfig::microserver_cluster(8))
            .build()
    };

    // Live run with tracing on.
    let mut eco = build();
    eco.enable_protocol_trace();
    let mut sim = Simulation::new(eco);
    let share = EnergyShare::grid_only().with_battery(WattHours::new(360.0));
    let app = sim.add_app("busy", share, Box::new(Busy)).unwrap();
    sim.run_ticks(8);
    let live_totals = sim.eco().app_totals(app).unwrap();
    let trace = sim.eco_mut().take_protocol_trace().expect("recording");
    assert!(trace.request_count() > 0);

    // Cross the wire.
    let wire = serde::json::to_string(&trace);
    let parsed: ProtocolTrace = serde::json::from_str(&wire).expect("parse");

    // Twin: same registration, but upcalls replayed from the trace
    // instead of a live application, with the same tick cadence.
    let mut twin = build();
    let share = EnergyShare::grid_only().with_battery(WattHours::new(360.0));
    let twin_app = twin.register_app("busy", share).unwrap();
    assert_eq!(twin_app, app, "twin must assign the same app id");
    let mut entries = parsed.entries.iter().peekable();
    for tick in 0..8 {
        while let Some(e) = entries.peek() {
            if e.tick != tick {
                break;
            }
            twin.dispatch_batch(&e.batch);
            entries.next();
        }
        twin.tick(|_| ());
    }
    // Registration-time traffic (tick 0) plus per-tick batches all landed:
    assert!(entries.next().is_none(), "all recorded batches consumed");
    assert_eq!(twin.app_totals(app).unwrap(), live_totals);
}

// ----------------------------------------------------------------------
// Binary form: every payload the JSON tests cover must round-trip the
// compact encoding too — it is the one every served frame uses.
// ----------------------------------------------------------------------

#[test]
fn every_request_and_response_round_trips_in_binary() {
    for req in &all_requests() {
        let wire = serde::binary::to_bytes(req);
        let back: EnergyRequest = serde::binary::from_bytes(&wire).expect("parse back");
        assert_eq!(&back, req, "binary wire form was {wire:?}");
    }
    for resp in &all_responses() {
        let wire = serde::binary::to_bytes(resp);
        let back: EnergyResponse = serde::binary::from_bytes(&wire).expect("parse back");
        assert_eq!(&back, resp, "binary wire form was {wire:?}");
    }
}

#[test]
fn traces_round_trip_identically_in_both_codecs() {
    let trace = ProtocolTrace {
        entries: vec![TraceEntry {
            tick: 3,
            batch: RequestBatch::new(AppId::new(1), all_requests()),
        }],
        events: vec![EventFrame {
            version: PROTOCOL_VERSION,
            app: AppId::new(1),
            tick: 3,
            events: vec![Notification::BatteryFull],
        }],
    };
    let json: ProtocolTrace = serde::json::from_str(&serde::json::to_string(&trace)).expect("json");
    let binary: ProtocolTrace =
        serde::binary::from_bytes(&serde::binary::to_bytes(&trace)).expect("binary");
    assert_eq!(json, trace);
    assert_eq!(binary, trace);
    // Binary earns its place: the same trace costs fewer wire bytes.
    assert!(
        serde::binary::to_bytes(&trace).len() < serde::json::to_string(&trace).len(),
        "binary encoding should be smaller than JSON"
    );
}

// ----------------------------------------------------------------------
// Remote transport round trip: a server on an ephemeral loopback port, a
// multi-tenant scenario driven through RemoteEcovisorClient, and the
// recorded trace (stored in either encoding) replayed onto a local twin.
// ----------------------------------------------------------------------

mod transport {
    use super::*;
    use container_cop::CopConfig;
    use ecovisor::{
        Ecovisor, EcovisorBuilder, EcovisorServer, EnergyClient, EnergyShare, RemoteEcovisorClient,
        WireCodec,
    };
    use simkit::units::Co2Grams;

    fn build_eco() -> (Ecovisor, AppId, AppId) {
        let mut eco = EcovisorBuilder::new()
            .cluster(CopConfig::microserver_cluster(8))
            .build();
        let share = || EnergyShare::grid_only().with_battery(WattHours::new(360.0));
        let a = eco.register_app("tenant-a", share()).expect("register a");
        let b = eco.register_app("tenant-b", share()).expect("register b");
        (eco, a, b)
    }

    /// Drives two tenants through remote clients for `ticks` ticks and
    /// returns their cumulative totals plus the recorded trace.
    fn drive_remote(
        ticks: u64,
    ) -> (
        ecovisor::VesTotals,
        ecovisor::VesTotals,
        ecovisor::ProtocolTrace,
    ) {
        let (mut eco, a, b) = build_eco();
        eco.enable_protocol_trace();
        let server = EcovisorServer::bind("127.0.0.1:0", eco).expect("bind loopback");
        let handle = server.spawn().expect("spawn");
        let shared = handle.ecovisor();

        {
            let mut client_a = RemoteEcovisorClient::connect(handle.addr(), a).expect("connect a");
            let mut client_b = RemoteEcovisorClient::connect(handle.addr(), b).expect("connect b");

            // Tenant A: one saturated container + queued setters.
            let ca = client_a
                .launch_container(ContainerSpec::quad_core())
                .expect("launch a");
            client_a.set_container_demand(ca, 1.0).expect("demand a");
            // Tenant B: two containers, half demand.
            for _ in 0..2 {
                let cb = client_b
                    .launch_container(ContainerSpec::quad_core())
                    .expect("launch b");
                client_b.set_container_demand(cb, 0.5).expect("demand b");
            }

            // Scope isolation holds over the wire: B cannot touch A's
            // container.
            assert!(client_b.get_container_power(ca).is_err());

            for _ in 0..ticks {
                // Per-tick client traffic (mixed queued + immediate).
                client_a.set_battery_charge_rate(Watts::new(50.0));
                let _ = client_a.get_grid_carbon();
                client_b.set_carbon_budget(Some(Co2Grams::new(1000.0)));
                let _ = client_b.get_app_power();
                client_a.flush();
                client_b.flush();
                // The driver loop ticks settlement between batches
                // (the settlement barrier quiesces both connections).
                shared.tick();
            }
            // Clients drop here, flushing anything queued.
        }

        let shared = handle.shutdown();
        shared.with(|eco| {
            let ta = eco.app_totals(a).expect("totals a");
            let tb = eco.app_totals(b).expect("totals b");
            let trace = eco.take_protocol_trace().expect("recording");
            (ta, tb, trace)
        })
    }

    #[test]
    fn remote_multi_tenant_run_replays_onto_a_local_twin() {
        let ticks = 6;
        let (ta, tb, trace) = drive_remote(ticks);
        assert!(trace.request_count() > 0, "trace captured traffic");
        // (Carbon stays zero: the full virtual battery carries the
        // load. Energy proves real flows settled.)
        assert!(ta.energy > WattHours::ZERO, "tenant A settled real flows");

        for codec in [WireCodec::Binary, WireCodec::Json] {
            // Store the trace in the encoding under test, bit-for-bit.
            let wire = codec.encode(&trace);
            let parsed: ecovisor::ProtocolTrace = codec.decode(&wire).expect("parse");
            assert_eq!(parsed, trace);
            assert_eq!(wire, codec.encode(&parsed), "re-encoding is stable");

            // Local twin: same registrations, upcalls replayed from the
            // trace with the same tick cadence.
            let (mut twin, a, b) = build_eco();
            let mut entries = parsed.entries.iter().peekable();
            for tick in 0..ticks {
                while let Some(e) = entries.peek() {
                    if e.tick != tick {
                        break;
                    }
                    twin.dispatch_batch(&e.batch);
                    entries.next();
                }
                twin.tick(|_| ());
            }
            assert!(entries.next().is_none(), "all recorded batches consumed");
            assert_eq!(twin.app_totals(a).expect("twin a"), ta, "{codec:?}");
            assert_eq!(twin.app_totals(b).expect("twin b"), tb, "{codec:?}");
        }
    }

    #[test]
    fn version_mismatch_is_rejected_at_hello() {
        use ecovisor::{ClientHelloV2, ServerHello, PROTOCOL_VERSION};
        use std::io::{Read, Write};

        let (eco, _, _) = build_eco();
        let server = EcovisorServer::bind("127.0.0.1:0", eco).expect("bind");
        let addr = server.local_addr().expect("addr");
        let handle = server.spawn().expect("spawn");

        let mut stream = std::net::TcpStream::connect(addr).expect("connect");
        let hello = ClientHelloV2 {
            versions: vec![PROTOCOL_VERSION + 1],
            ..ClientHelloV2::new(AppId::new(1), vec![WireCodec::Binary], None)
        };
        let payload = WireCodec::Json.encode(&hello);
        stream
            .write_all(&(payload.len() as u32).to_le_bytes())
            .expect("len");
        stream.write_all(&payload).expect("payload");
        let mut len = [0u8; 4];
        stream.read_exact(&mut len).expect("reply len");
        let mut reply = vec![0u8; u32::from_le_bytes(len) as usize];
        stream.read_exact(&mut reply).expect("reply");
        let reply: ServerHello = WireCodec::Json.decode(&reply).expect("decode");
        assert!(
            matches!(reply, ServerHello::Reject { ref reason } if reason.contains("version")),
            "expected version reject, got {reply:?}"
        );
        handle.shutdown();
    }

    #[test]
    fn spoofed_app_scope_is_denied_by_connection_pinning() {
        // A remote tenant is untrusted: a batch claiming another
        // tenant's AppId must be denied even though the dispatcher
        // itself would have trusted the envelope.
        let (eco, a, b) = build_eco();
        let server = EcovisorServer::bind("127.0.0.1:0", eco).expect("bind");
        let handle = server.spawn().expect("spawn");
        let mut client_b = RemoteEcovisorClient::connect(handle.addr(), b).expect("connect");

        // Victim state to protect: tenant A's container, launched through
        // A's own pinned connection.
        let victim = {
            let mut client_a = RemoteEcovisorClient::connect(handle.addr(), a).expect("connect a");
            client_a
                .launch_container(ContainerSpec::quad_core())
                .expect("launch")
        };

        // B forges a batch under A's scope through B's connection.
        let forged = RequestBatch::new(a, vec![EnergyRequest::StopContainer { container: victim }]);
        let responses = client_b.transport(forged).responses;
        assert_eq!(responses.len(), 1);
        assert!(
            matches!(&responses[0], EnergyResponse::Err(ProtoError::Other(msg)) if msg.contains("pinned")),
            "spoofed scope must be denied, got {responses:?}"
        );

        // The victim's container is untouched.
        let shared = handle.shutdown();
        shared.read(|eco| {
            assert_eq!(eco.cop().running_count(a), 1, "victim container survives");
        });
    }

    #[test]
    fn undecodable_batch_closes_the_connection_with_correct_arity() {
        // The server cannot know how many requests a corrupt frame
        // held, so it closes instead of answering with a mis-shaped
        // batch; the client then reports one failure value per request.
        let (eco, a, _) = build_eco();
        let server = EcovisorServer::bind("127.0.0.1:0", eco).expect("bind");
        let handle = server.spawn().expect("spawn");
        let mut client = RemoteEcovisorClient::connect(handle.addr(), a).expect("connect");
        let _ = client.get_app_power(); // proven live

        // Inject a garbage frame behind the client's back.
        {
            use std::io::Write;
            let mut raw = std::net::TcpStream::connect(handle.addr()).expect("raw");
            // A valid hello, then a frame that is not a `Frame`.
            let hello = WireCodec::Json.encode(&ecovisor::ClientHelloV2::new(
                a,
                vec![WireCodec::Binary],
                None,
            ));
            raw.write_all(&(hello.len() as u32).to_le_bytes()).unwrap();
            raw.write_all(&hello).unwrap();
            let garbage = b"\xff\xfe\xfd";
            raw.write_all(&(garbage.len() as u32).to_le_bytes())
                .unwrap();
            raw.write_all(garbage).unwrap();
            // Server must close without replying to the garbage frame:
            // first frame back is the hello accept, then EOF.
            use std::io::Read;
            let mut len = [0u8; 4];
            raw.read_exact(&mut len).expect("hello reply");
            let mut reply = vec![0u8; u32::from_le_bytes(len) as usize];
            raw.read_exact(&mut reply).expect("hello payload");
            assert!(
                raw.read_exact(&mut len).is_err(),
                "no batch reply may follow a corrupt frame"
            );
        }

        // The well-behaved client on its own connection is unaffected,
        // and batch arithmetic holds: three requests, three responses.
        let responses = client.send(vec![
            EnergyRequest::GetAppPower,
            EnergyRequest::GetSolarPower,
            EnergyRequest::GetTime,
        ]);
        assert_eq!(responses.len(), 3);
        assert!(responses.iter().all(|r| !r.is_err()), "{responses:?}");
        handle.shutdown();
    }

    #[test]
    fn transport_failure_is_an_error_value_not_a_panic() {
        let (eco, a, _) = build_eco();
        let server = EcovisorServer::bind("127.0.0.1:0", eco).expect("bind");
        let handle = server.spawn().expect("spawn");
        let mut client = RemoteEcovisorClient::connect(handle.addr(), a).expect("connect");
        let _ = client.get_app_power(); // proven live
        handle.shutdown();
        // The server is gone: requests answer with ProtoError::Other
        // values, and the client marks itself broken.
        let responses = client.send(vec![EnergyRequest::GetAppPower]);
        assert_eq!(responses.len(), 1);
        assert!(responses[0].is_err(), "got {responses:?}");
        assert!(client.is_broken());
    }
}
