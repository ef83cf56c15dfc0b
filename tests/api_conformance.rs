//! Table 1 conformance: every function of the paper's narrow API exists
//! with the documented semantics, end to end across all crates — and the
//! typed [`EnergyClient`] method surface is *provably equivalent* to raw
//! protocol batch dispatch: the same call sequence produces identical
//! responses and identical end state through either path, and every
//! state change a typed call makes is in the protocol trace.

use ecovisor_suite::carbon_intel::service::TraceCarbonService;
use ecovisor_suite::container_cop::{ContainerSpec, CopConfig};
use ecovisor_suite::ecovisor::proto::{EnergyRequest, EnergyResponse, ProtoError, RequestBatch};
use ecovisor_suite::ecovisor::{
    Application, EcovisorBuilder, EcovisorClient, EcovisorError, EnergyClient, EnergyShare,
    Simulation,
};
use ecovisor_suite::energy_system::solar::TraceSolarSource;
use ecovisor_suite::simkit::time::SimTime;
use ecovisor_suite::simkit::trace::Trace;
use ecovisor_suite::simkit::units::{WattHours, Watts};

struct Idle;
impl Application for Idle {
    fn on_tick(&mut self, _api: &mut EcovisorClient<'_>) {}
}

fn sim() -> Simulation {
    let eco = EcovisorBuilder::new()
        .cluster(CopConfig::microserver_cluster(8))
        .carbon(Box::new(TraceCarbonService::new(
            "flat",
            Trace::constant(250.0),
        )))
        .solar(Box::new(TraceSolarSource::new(Trace::constant(60.0))))
        .build();
    Simulation::new(eco)
}

#[test]
fn table1_setters_and_getters() {
    let mut s = sim();
    let share = EnergyShare::grid_only()
        .with_solar_fraction(0.5)
        .with_battery(WattHours::new(720.0))
        .with_initial_soc(0.8);
    let app = s.add_app("t1", share, Box::new(Idle)).unwrap();
    // Run two ticks so solar buffers and flows settle.
    s.run_ticks(2);

    let mut api = s.eco_mut().client(app).unwrap();

    // set_container_powercap / get_container_powercap / get_container_power
    let c = api.launch_container(ContainerSpec::quad_core()).unwrap();
    api.set_container_demand(c, 1.0).unwrap();
    api.set_container_powercap(c, Watts::new(2.0)).unwrap();
    assert_eq!(
        api.get_container_powercap(c).unwrap(),
        Some(Watts::new(2.0))
    );
    let p = api.get_container_power(c).unwrap();
    assert!(
        (p.watts() - 2.0).abs() < 1e-9,
        "power {p} should sit at the cap"
    );

    // set_battery_charge_rate / set_battery_max_discharge (values are
    // clamped to the virtual bank's physical limits).
    api.set_battery_charge_rate(Watts::new(100.0));
    api.set_battery_max_discharge(Watts::new(50.0));

    // get_solar_power: half of the 60 W array, buffered one tick.
    assert!((api.get_solar_power().watts() - 30.0).abs() < 1e-9);

    // get_grid_carbon reflects the carbon service.
    assert_eq!(api.get_grid_carbon().grams_per_kwh(), 250.0);

    // get_battery_charge_level: 80 % of 720 Wh, plus the excess solar
    // the idle tenant's battery soaked up during the two warm-up ticks.
    let level = api.get_battery_charge_level().watt_hours();
    assert!((576.0..578.0).contains(&level), "level {level}");

    // get_grid_power / get_battery_discharge_rate are flow observations.
    let _ = api.get_grid_power();
    let _ = api.get_battery_discharge_rate();
}

#[test]
fn tick_upcall_period_matches_interval() {
    struct CountTicks(u64);
    impl Application for CountTicks {
        fn on_tick(&mut self, _api: &mut EcovisorClient<'_>) {
            self.0 += 1;
        }
        fn is_done(&self) -> bool {
            self.0 >= 30
        }
    }
    let mut s = sim();
    s.add_app("ticker", EnergyShare::grid_only(), Box::new(CountTicks(0)))
        .unwrap();
    let executed = s.run_until_done(100);
    assert_eq!(executed, 30, "tick() fires exactly once per interval");
    assert_eq!(s.eco().now().as_secs(), 30 * 60);
}

#[test]
fn solar_is_known_one_tick_ahead() {
    // §3.1: "applications always know the solar power available to them
    // in the next tick interval" — the buffer equals last tick's output.
    let solar = Trace::from_samples(
        vec![0.0, 120.0, 40.0, 0.0],
        ecovisor_suite::simkit::time::SimDuration::from_minutes(1),
    );
    let eco = EcovisorBuilder::new()
        .cluster(CopConfig::microserver_cluster(4))
        .solar(Box::new(TraceSolarSource::new(solar)))
        .build();
    let mut s = Simulation::new(eco);
    let app = s
        .add_app(
            "s",
            EnergyShare::grid_only().with_solar_fraction(1.0),
            Box::new(Idle),
        )
        .unwrap();
    let expect = [0.0, 0.0, 120.0, 40.0]; // buffered with one tick of lag
    for e in expect {
        {
            let got = s.eco_mut().client(app).unwrap().get_solar_power();
            assert!(
                (got.watts() - e).abs() < 1e-9,
                "expected buffer {e}, got {got}"
            );
        }
        s.run_ticks(1);
    }
}

// ======================================================================
// Protocol conformance: typed client ≡ batch dispatch
// ======================================================================

/// Executes one request through the *typed method* of [`EnergyClient`]
/// that stands for it and wraps the typed result back into a wire
/// response, covering every request shape the sequence below uses.
fn via_typed_client(api: &mut impl EnergyClient, req: &EnergyRequest) -> EnergyResponse {
    fn wrap<T>(r: Result<T, EcovisorError>, f: impl FnOnce(T) -> EnergyResponse) -> EnergyResponse {
        match r {
            Ok(v) => f(v),
            Err(e) => EnergyResponse::Err(ProtoError::from(e)),
        }
    }
    match req {
        EnergyRequest::LaunchContainer { spec } => {
            wrap(api.launch_container(*spec), EnergyResponse::Container)
        }
        EnergyRequest::SetContainerDemand { container, demand } => {
            wrap(api.set_container_demand(*container, *demand), |()| {
                EnergyResponse::Ok
            })
        }
        EnergyRequest::SetContainerPowercap { container, cap } => {
            wrap(api.set_container_powercap(*container, *cap), |()| {
                EnergyResponse::Ok
            })
        }
        EnergyRequest::GetContainerPowercap { container } => wrap(
            api.get_container_powercap(*container),
            EnergyResponse::PowerCap,
        ),
        EnergyRequest::ClearContainerPowercap { container } => {
            wrap(api.clear_container_powercap(*container), |()| {
                EnergyResponse::Ok
            })
        }
        EnergyRequest::GetContainerPower { container } => {
            wrap(api.get_container_power(*container), EnergyResponse::Power)
        }
        EnergyRequest::SuspendContainer { container } => {
            wrap(api.suspend_container(*container), |()| EnergyResponse::Ok)
        }
        EnergyRequest::ResumeContainer { container } => {
            wrap(api.resume_container(*container), |()| EnergyResponse::Ok)
        }
        EnergyRequest::StopContainer { container } => {
            wrap(api.stop_container(*container), |()| EnergyResponse::Ok)
        }
        EnergyRequest::SetBatteryChargeRate { rate } => {
            api.set_battery_charge_rate(*rate);
            EnergyResponse::Ok
        }
        EnergyRequest::SetBatteryMaxDischarge { rate } => {
            api.set_battery_max_discharge(*rate);
            EnergyResponse::Ok
        }
        EnergyRequest::GetSolarPower => EnergyResponse::Power(api.get_solar_power()),
        EnergyRequest::GetGridPower => EnergyResponse::Power(api.get_grid_power()),
        EnergyRequest::GetGridCarbon => EnergyResponse::Intensity(api.get_grid_carbon()),
        EnergyRequest::GetBatteryDischargeRate => {
            EnergyResponse::Power(api.get_battery_discharge_rate())
        }
        EnergyRequest::GetBatteryChargeLevel => {
            EnergyResponse::Energy(api.get_battery_charge_level())
        }
        EnergyRequest::ListContainers => EnergyResponse::Containers(api.container_ids()),
        EnergyRequest::CountRunningContainers => EnergyResponse::Count(api.running_containers()),
        EnergyRequest::GetEffectiveCores => EnergyResponse::Cores(api.effective_cores()),
        EnergyRequest::GetContainerEffectiveCores { container } => wrap(
            api.container_effective_cores(*container),
            EnergyResponse::Cores,
        ),
        EnergyRequest::GetTime => EnergyResponse::Time(api.now()),
        EnergyRequest::GetTickInterval => EnergyResponse::Interval(api.tick_interval()),
        EnergyRequest::GetAppId => EnergyResponse::App(api.app_id()),
        EnergyRequest::GetAppPower => EnergyResponse::Power(api.get_app_power()),
        EnergyRequest::GetAppEnergy { from, to } => {
            EnergyResponse::Energy(api.get_app_energy(*from, *to))
        }
        EnergyRequest::GetAppCarbon => EnergyResponse::Carbon(api.get_app_carbon()),
        EnergyRequest::GetAppCarbonBetween { from, to } => {
            EnergyResponse::Carbon(api.get_app_carbon_between(*from, *to))
        }
        EnergyRequest::GetContainerEnergy {
            container,
            from,
            to,
        } => wrap(
            api.get_container_energy(*container, *from, *to),
            EnergyResponse::Energy,
        ),
        EnergyRequest::GetContainerCarbon {
            container,
            from,
            to,
        } => wrap(
            api.get_container_carbon(*container, *from, *to),
            EnergyResponse::Carbon,
        ),
        EnergyRequest::SetCarbonRate { rate } => {
            api.set_carbon_rate(*rate);
            EnergyResponse::Ok
        }
        EnergyRequest::GetCarbonRateLimit => EnergyResponse::RateLimit(api.carbon_rate_limit()),
        EnergyRequest::SetCarbonBudget { budget } => {
            api.set_carbon_budget(*budget);
            EnergyResponse::Ok
        }
        EnergyRequest::GetCarbonBudget => EnergyResponse::Budget(api.carbon_budget()),
        EnergyRequest::GetRemainingCarbonBudget => {
            EnergyResponse::Budget(api.remaining_carbon_budget())
        }
        // The event surface is conformance-tested between the
        // in-process and remote clients in
        // crates/core/tests/protocol_v2.rs; the snapshot admin surface in
        // crates/core/tests/snapshot_restore.rs; the observability stats
        // export in crates/core/tests/server_stats.rs.
        EnergyRequest::PollEvents
        | EnergyRequest::SubscribeEvents { .. }
        | EnergyRequest::Snapshot { .. }
        | EnergyRequest::Restore { .. }
        | EnergyRequest::MigrateOut { .. }
        | EnergyRequest::MigrateIn { .. }
        | EnergyRequest::MigrateCommit { .. }
        | EnergyRequest::FedCollect
        | EnergyRequest::FedSettle { .. }
        | EnergyRequest::FedAlign { .. }
        | EnergyRequest::FedCursor
        | EnergyRequest::Stats => {
            unreachable!("admin/event requests are not part of the conformance sequence")
        }
    }
}

/// A call sequence touching every corner of the API: container lifecycle,
/// power caps, battery knobs, clock, and Table 2 accounting — including
/// deliberate failures (an unknown container id).
fn conformance_sequence(bogus: ecovisor_suite::container_cop::ContainerId) -> Vec<EnergyRequest> {
    use EnergyRequest::*;
    let from = SimTime::EPOCH;
    let to = SimTime::from_secs(120);
    vec![
        LaunchContainer {
            spec: ContainerSpec::quad_core(),
        },
        ListContainers,
        GetTime,
        GetTickInterval,
        GetAppId,
        GetSolarPower,
        GetGridPower,
        GetGridCarbon,
        GetBatteryDischargeRate,
        GetBatteryChargeLevel,
        GetEffectiveCores,
        CountRunningContainers,
        GetAppPower,
        GetAppCarbon,
        GetAppEnergy { from, to },
        GetAppCarbonBetween { from, to },
        SetBatteryChargeRate {
            rate: Watts::new(80.0),
        },
        SetBatteryMaxDischarge {
            rate: Watts::new(40.0),
        },
        SetCarbonRate { rate: None },
        GetCarbonRateLimit,
        SetCarbonBudget {
            budget: Some(ecovisor_suite::simkit::units::Co2Grams::new(50.0)),
        },
        GetCarbonBudget,
        GetRemainingCarbonBudget,
        // Failures as values: bogus container id.
        GetContainerPower { container: bogus },
        StopContainer { container: bogus },
    ]
}

/// Per-container follow-up once the launched id is known.
fn per_container_sequence(c: ecovisor_suite::container_cop::ContainerId) -> Vec<EnergyRequest> {
    use EnergyRequest::*;
    let from = SimTime::EPOCH;
    let to = SimTime::from_secs(120);
    vec![
        SetContainerDemand {
            container: c,
            demand: 0.75,
        },
        SetContainerPowercap {
            container: c,
            cap: Watts::new(2.5),
        },
        GetContainerPowercap { container: c },
        GetContainerPower { container: c },
        GetContainerEffectiveCores { container: c },
        GetContainerEnergy {
            container: c,
            from,
            to,
        },
        GetContainerCarbon {
            container: c,
            from,
            to,
        },
        ClearContainerPowercap { container: c },
        SuspendContainer { container: c },
        ResumeContainer { container: c },
        // Double-resume is an InvalidState failure — also a value.
        ResumeContainer { container: c },
    ]
}

fn conformance_sim() -> (Simulation, ecovisor_suite::container_cop::AppId) {
    let mut s = sim();
    let share = EnergyShare::grid_only()
        .with_solar_fraction(0.5)
        .with_battery(WattHours::new(720.0))
        .with_initial_soc(0.8);
    let app = s.add_app("conf", share, Box::new(Idle)).unwrap();
    s.run_ticks(2);
    (s, app)
}

/// The same call sequence produces byte-identical responses and
/// identical end state whether it travels through the typed client's
/// methods or through raw batch dispatch — and the protocol trace of the
/// typed run is complete: replaying it on a fresh twin reproduces the
/// responses and the end state.
#[test]
fn typed_client_and_batch_dispatch_are_equivalent() {
    let bogus = ecovisor_suite::container_cop::ContainerId::new(999_999);

    // Path A: typed client methods, one call at a time, traced.
    let (mut sim_a, app_a) = conformance_sim();
    let start_tick = sim_a.eco().tick_index();
    sim_a.eco_mut().enable_protocol_trace();
    let mut responses_a = Vec::new();
    {
        let mut api = sim_a.eco_mut().client(app_a).unwrap();
        for req in conformance_sequence(bogus) {
            responses_a.push(via_typed_client(&mut api, &req));
        }
        let c = match &responses_a[0] {
            EnergyResponse::Container(c) => *c,
            other => panic!("launch failed: {other:?}"),
        };
        for req in per_container_sequence(c) {
            responses_a.push(via_typed_client(&mut api, &req));
        }
    }

    // Path B: raw protocol batches against an identical twin.
    let (mut sim_b, app_b) = conformance_sim();
    let eco = sim_b.eco_mut();
    let first = eco.dispatch_batch(&RequestBatch::new(app_b, conformance_sequence(bogus)));
    let c = match &first.responses[0] {
        EnergyResponse::Container(c) => *c,
        other => panic!("launch failed: {other:?}"),
    };
    let second = eco.dispatch_batch(&RequestBatch::new(app_b, per_container_sequence(c)));
    let responses_b: Vec<EnergyResponse> = first
        .responses
        .into_iter()
        .chain(second.responses)
        .collect();

    assert_eq!(responses_a.len(), responses_b.len());
    for (i, (a, b)) in responses_a.iter().zip(&responses_b).enumerate() {
        assert_eq!(a, b, "call #{i} diverged between typed client and dispatch");
    }

    // And the two ecovisors evolved identically: run on and compare state.
    sim_a.run_ticks(5);
    sim_b.run_ticks(5);
    assert_eq!(
        sim_a.eco().app_totals(app_a).unwrap(),
        sim_b.eco().app_totals(app_b).unwrap()
    );
    assert_eq!(
        sim_a.eco().app_flows(app_a).unwrap(),
        sim_b.eco().app_flows(app_b).unwrap()
    );

    // Path C: every state change a typed call made is in the trace —
    // replaying it on a third twin, at the same tick cadence, yields the
    // same per-request responses and the same end state.
    let trace = sim_a.eco_mut().take_protocol_trace().expect("tracing on");
    // (`app_id()` is answered by the handle itself — it reads no tenant
    // state — so it is the one typed call with no request on the wire.)
    let traced_a: Vec<&EnergyResponse> = responses_a
        .iter()
        .filter(|r| !matches!(r, EnergyResponse::App(_)))
        .collect();
    assert_eq!(trace.request_count(), traced_a.len());
    let (mut sim_c, app_c) = conformance_sim();
    let report = sim_c
        .eco_mut()
        .replay_trace_from(&trace, start_tick, start_tick + 5);
    let responses_c: Vec<&EnergyResponse> =
        report.responses.iter().flat_map(|b| &b.responses).collect();
    assert_eq!(responses_c, traced_a);
    assert_eq!(
        sim_c.eco().app_totals(app_c).unwrap(),
        sim_a.eco().app_totals(app_a).unwrap()
    );
    assert_eq!(
        sim_c.eco().app_flows(app_c).unwrap(),
        sim_a.eco().app_flows(app_a).unwrap()
    );
}

/// Serialized round-trip does not change dispatch results: a batch that
/// crosses the JSON wire behaves exactly like the in-memory one.
#[test]
fn wire_serialized_batch_dispatches_identically() {
    let bogus = ecovisor_suite::container_cop::ContainerId::new(999_999);
    let (mut sim_a, app) = conformance_sim();
    let batch = RequestBatch::new(app, conformance_sequence(bogus));

    let wire = serde::json::to_string(&batch);
    let parsed: RequestBatch = serde::json::from_str(&wire).expect("parse");
    assert_eq!(parsed, batch);

    let (mut sim_b, app_b) = conformance_sim();
    let direct = sim_a.eco_mut().dispatch_batch(&batch);
    let via_wire = sim_b
        .eco_mut()
        .dispatch_batch(&RequestBatch::new(app_b, parsed.requests));
    assert_eq!(direct.responses, via_wire.responses);
}

// ======================================================================
// Cross-tenant scoping: denials are values, not panics
// ======================================================================

/// Two registered apps; app B addressing app A's container gets a
/// `Scope` error *value* on every container-addressed request, through
/// both the raw protocol and the typed client, and app A's state is
/// untouched.
#[test]
fn cross_tenant_requests_denied_as_values() {
    let mut s = sim();
    let a = s
        .add_app("tenant-a", EnergyShare::grid_only(), Box::new(Idle))
        .unwrap();
    let b = s
        .add_app("tenant-b", EnergyShare::grid_only(), Box::new(Idle))
        .unwrap();

    // App A launches a container and sets a demand.
    let victim = {
        let mut api = s.eco_mut().client(a).unwrap();
        let c = api.launch_container(ContainerSpec::quad_core()).unwrap();
        api.set_container_demand(c, 1.0).unwrap();
        c
    };

    // Raw protocol: every container-addressed request from B is denied
    // with a Scope error value; the batch keeps going (no abort).
    use EnergyRequest::*;
    let hostile = vec![
        SetContainerPowercap {
            container: victim,
            cap: Watts::new(0.0),
        },
        ClearContainerPowercap { container: victim },
        GetContainerPowercap { container: victim },
        GetContainerPower { container: victim },
        StopContainer { container: victim },
        SuspendContainer { container: victim },
        ResumeContainer { container: victim },
        SetContainerDemand {
            container: victim,
            demand: 0.0,
        },
        GetContainerEffectiveCores { container: victim },
        GetContainerEnergy {
            container: victim,
            from: SimTime::EPOCH,
            to: SimTime::from_secs(60),
        },
        GetContainerCarbon {
            container: victim,
            from: SimTime::EPOCH,
            to: SimTime::from_secs(60),
        },
        // A request of B's own still succeeds after all those denials.
        ListContainers,
    ];
    let n_hostile = hostile.len();
    let out = s.eco_mut().dispatch_batch(&RequestBatch::new(b, hostile));
    assert_eq!(out.responses.len(), n_hostile);
    for resp in &out.responses[..n_hostile - 1] {
        assert_eq!(
            resp,
            &EnergyResponse::Err(ProtoError::Scope {
                container: victim,
                app: b
            }),
            "cross-tenant request must be denied as a Scope value"
        );
    }
    assert_eq!(
        out.responses[n_hostile - 1],
        EnergyResponse::Containers(vec![])
    );

    // Client handle: the denial surfaces as the classic NotOwner error,
    // on lifecycle calls and setters alike.
    {
        let mut api = s.eco_mut().client(b).unwrap();
        let err = api.stop_container(victim).unwrap_err();
        assert!(matches!(err, EcovisorError::NotOwner { container, app }
            if container == victim && app == b));
        let err = api
            .set_container_powercap(victim, Watts::new(0.0))
            .unwrap_err();
        assert!(matches!(err, EcovisorError::NotOwner { .. }));
    }

    // App A's container survived the assault untouched.
    let mut api = s.eco_mut().client(a).unwrap();
    assert_eq!(api.container_ids(), vec![victim]);
    assert_eq!(api.get_container_powercap(victim).unwrap(), None);
}
