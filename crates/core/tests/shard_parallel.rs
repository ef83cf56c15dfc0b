//! Cross-shard isolation and determinism under concurrent dispatch.
//!
//! The sharded dispatch path ([`ShardedEcovisor`]) promises:
//!
//! * a command batch's effects become visible **atomically** — a query
//!   batch against the same shard never observes a half-applied batch;
//! * traffic from one tenant never perturbs another tenant's view
//!   between settlements (shards are independent; the COP enforces
//!   scope);
//! * a seeded multi-threaded run settles **bit-identical** totals to
//!   the same traffic dispatched single-threaded, and its recorded
//!   [`ProtocolTrace`] replays bit-identically on both the plain and
//!   the sharded dispatch paths.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use container_cop::{AppId, ContainerSpec, CopConfig};
use ecovisor::proto::{EnergyRequest, EnergyResponse, RequestBatch};
use ecovisor::{
    Ecovisor, EcovisorBuilder, EnergyClient, EnergyShare, ProtocolTrace, ShardedEcovisor,
};
use simkit::rng::SimRng;
use simkit::trace::Trace;
use simkit::units::{CarbonRate, Co2Grams, WattHours, Watts};

fn build_eco(apps: usize) -> (Ecovisor, Vec<AppId>) {
    let mut eco = EcovisorBuilder::new()
        .cluster(CopConfig::microserver_cluster(16))
        .carbon(Trace::constant(250.0))
        .build();
    let ids = (0..apps)
        .map(|i| {
            eco.register_app(
                format!("tenant-{i}"),
                EnergyShare::grid_only()
                    .with_solar_fraction(1.0 / apps as f64)
                    .with_battery(WattHours::new(1440.0 / apps as f64)),
            )
            .expect("register")
        })
        .collect();
    (eco, ids)
}

/// A command batch writes a correlated pair (carbon rate r, budget
/// 1000·r); a query batch reads the pair back. The shard write lock is
/// held for the whole command batch, so readers must never see a torn
/// pair.
#[test]
fn query_batches_never_observe_torn_command_batches() {
    let (eco, ids) = build_eco(1);
    let app = ids[0];
    let shared = Arc::new(ShardedEcovisor::new(eco));
    let stop = Arc::new(AtomicBool::new(false));

    let writer = {
        let shared = Arc::clone(&shared);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut i = 1u64;
            while !stop.load(Ordering::Relaxed) {
                let r = i as f64;
                let batch = RequestBatch::new(
                    app,
                    vec![
                        EnergyRequest::SetCarbonRate {
                            rate: Some(CarbonRate::new(r)),
                        },
                        EnergyRequest::SetCarbonBudget {
                            budget: Some(Co2Grams::new(1000.0 * r)),
                        },
                    ],
                );
                shared.dispatch_batch(&batch);
                i += 1;
            }
        })
    };

    let readers: Vec<_> = (0..3)
        .map(|_| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                let batch = RequestBatch::new(
                    app,
                    vec![
                        EnergyRequest::GetCarbonRateLimit,
                        EnergyRequest::GetCarbonBudget,
                    ],
                );
                for _ in 0..2_000 {
                    let resp = shared.dispatch_batch(&batch).responses;
                    let (rate, budget) = match (&resp[0], &resp[1]) {
                        (EnergyResponse::RateLimit(r), EnergyResponse::Budget(b)) => (*r, *b),
                        other => panic!("unexpected responses: {other:?}"),
                    };
                    match (rate, budget) {
                        (None, None) => {} // before the first write
                        (Some(r), Some(b)) => assert_eq!(
                            b.grams(),
                            1000.0 * r.grams_per_sec(),
                            "torn read: rate and budget written atomically must be read atomically"
                        ),
                        other => panic!("torn read across the pair: {other:?}"),
                    }
                }
            })
        })
        .collect();

    for r in readers {
        r.join().expect("reader");
    }
    stop.store(true, Ordering::Relaxed);
    writer.join().expect("writer");
}

/// Tenant A's view of its own containers stays exact while tenant B
/// churns launches/stops as fast as it can: shards are independent and
/// the COP enforces scope, so A's query batches always see A's two
/// containers and nothing else.
#[test]
fn cross_shard_queries_are_isolated_from_command_bursts() {
    let (mut eco, ids) = build_eco(2);
    let (a, b) = (ids[0], ids[1]);
    let a_containers: Vec<_> = {
        let mut client = eco.client(a).expect("client");
        (0..2)
            .map(|_| {
                let c = client
                    .launch_container(ContainerSpec::quad_core())
                    .expect("launch");
                client.set_container_demand(c, 1.0).expect("demand");
                c
            })
            .collect()
    };
    let shared = Arc::new(ShardedEcovisor::new(eco));
    let stop = Arc::new(AtomicBool::new(false));

    // Tenant B: a command burst against its own shard and containers.
    // Lifecycle churn runs on one persistent container (suspend/resume/
    // demand) plus a *bounded* number of launch→stop cycles — the COP
    // retains stopped containers for accounting history, so unbounded
    // launch/stop would grow every scan and quadratically slow the test
    // without exercising anything new.
    let burst = {
        let shared = Arc::clone(&shared);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let launch = RequestBatch::new(
                b,
                vec![EnergyRequest::LaunchContainer {
                    spec: ContainerSpec::quad_core(),
                }],
            );
            let resp = shared.dispatch_batch(&launch).responses;
            let EnergyResponse::Container(persistent) = resp[0] else {
                panic!("launch failed: {resp:?}");
            };
            let mut launch_stop_cycles = 64u32;
            while !stop.load(Ordering::Relaxed) {
                let churn = RequestBatch::new(
                    b,
                    vec![
                        EnergyRequest::SuspendContainer {
                            container: persistent,
                        },
                        EnergyRequest::ResumeContainer {
                            container: persistent,
                        },
                        EnergyRequest::SetContainerDemand {
                            container: persistent,
                            demand: 0.5,
                        },
                    ],
                );
                shared.dispatch_batch(&churn);
                if launch_stop_cycles > 0 {
                    launch_stop_cycles -= 1;
                    let resp = shared.dispatch_batch(&launch).responses;
                    if let EnergyResponse::Container(c) = resp[0] {
                        let stop_batch = RequestBatch::new(
                            b,
                            vec![EnergyRequest::StopContainer { container: c }],
                        );
                        shared.dispatch_batch(&stop_batch);
                    }
                }
            }
        })
    };

    // Tenant A: consistent snapshots throughout the burst.
    let observe = RequestBatch::new(
        a,
        vec![
            EnergyRequest::ListContainers,
            EnergyRequest::CountRunningContainers,
        ],
    );
    for _ in 0..2_000 {
        let resp = shared.dispatch_batch(&observe).responses;
        match (&resp[0], &resp[1]) {
            (EnergyResponse::Containers(list), EnergyResponse::Count(n)) => {
                assert_eq!(list, &a_containers, "A sees exactly its own containers");
                assert_eq!(*n, 2, "A's running count undisturbed by B's churn");
            }
            other => panic!("unexpected responses: {other:?}"),
        }
    }
    stop.store(true, Ordering::Relaxed);
    burst.join().expect("burst thread");
}

/// Seeded per-tenant traffic for one tick: a mix of battery setters,
/// carbon controls, and container-demand writes (all commute across
/// tenants — each touches only the issuer's shard and containers).
fn tick_traffic(
    rng: &mut SimRng,
    app: AppId,
    container: container_cop::ContainerId,
) -> RequestBatch {
    let mut requests = vec![
        EnergyRequest::SetBatteryChargeRate {
            rate: Watts::new(rng.uniform(0.0, 120.0)),
        },
        EnergyRequest::SetBatteryMaxDischarge {
            rate: Watts::new(rng.uniform(0.0, 80.0)),
        },
        EnergyRequest::SetContainerDemand {
            container,
            demand: rng.uniform(0.1, 1.0),
        },
    ];
    if rng.chance(0.3) {
        requests.push(EnergyRequest::SetCarbonRate {
            rate: Some(CarbonRate::new(rng.uniform(0.001, 0.05))),
        });
    }
    if rng.chance(0.2) {
        requests.push(EnergyRequest::SetCarbonRate { rate: None });
    }
    requests.push(EnergyRequest::GetSolarPower);
    requests.push(EnergyRequest::GetAppCarbon);
    RequestBatch::new(app, requests)
}

/// Builds the per-tick, per-tenant batches for a whole seeded day.
fn seeded_day(
    eco: &mut Ecovisor,
    ids: &[AppId],
    seed: u64,
    ticks: usize,
) -> Vec<Vec<RequestBatch>> {
    let containers: Vec<_> = ids
        .iter()
        .map(|&id| {
            let mut client = eco.client(id).expect("client");
            client
                .launch_container(ContainerSpec::quad_core())
                .expect("launch")
        })
        .collect();
    let mut rngs: Vec<_> = (0..ids.len())
        .map(|i| SimRng::from_seed(seed).fork_indexed("tenant", i as u64))
        .collect();
    (0..ticks)
        .map(|_| {
            ids.iter()
                .zip(containers.iter())
                .zip(rngs.iter_mut())
                .map(|((&id, &c), rng)| tick_traffic(rng, id, c))
                .collect()
        })
        .collect()
}

fn totals_of(eco: &Ecovisor, ids: &[AppId]) -> Vec<ecovisor::VesTotals> {
    ids.iter().map(|&id| eco.app_totals(id).unwrap()).collect()
}

/// The single-lock semantics: all batches dispatched from one thread,
/// in tenant order, settling each tick.
fn run_sequential(seed: u64, ticks: usize, tenants: usize) -> Vec<ecovisor::VesTotals> {
    let (mut eco, ids) = build_eco(tenants);
    let day = seeded_day(&mut eco, &ids, seed, ticks);
    for tick in day {
        for batch in &tick {
            eco.dispatch_batch(batch);
        }
        eco.tick(|_| ());
    }
    totals_of(&eco, &ids)
}

/// The sharded run: each tenant's batch dispatched from its own thread,
/// racing within the tick, with settlement as the only barrier.
fn run_sharded(
    seed: u64,
    ticks: usize,
    tenants: usize,
    trace: bool,
) -> (Vec<ecovisor::VesTotals>, Option<ProtocolTrace>) {
    let (mut eco, ids) = build_eco(tenants);
    let day = seeded_day(&mut eco, &ids, seed, ticks);
    if trace {
        eco.enable_protocol_trace();
    }
    let shared = Arc::new(ShardedEcovisor::new(eco));
    for tick in day {
        let gate = Arc::new(Barrier::new(tick.len()));
        let threads: Vec<_> = tick
            .into_iter()
            .map(|batch| {
                let shared = Arc::clone(&shared);
                let gate = Arc::clone(&gate);
                std::thread::spawn(move || {
                    gate.wait(); // maximize real interleaving
                    shared.dispatch_batch(&batch);
                })
            })
            .collect();
        for t in threads {
            t.join().expect("tenant thread");
        }
        shared.tick();
    }
    shared.with(|eco| {
        let totals = totals_of(eco, &ids);
        let trace = eco.take_protocol_trace();
        (totals, trace)
    })
}

/// Same seed, same traffic: racing tenant threads must settle totals
/// bit-identical to the sequential single-lock run. Cross-tenant
/// batches commute because they touch disjoint shards (and disjoint
/// containers), and settlement is the only barrier in both runs.
#[test]
fn sharded_settlement_totals_match_single_lock_run() {
    for seed in [7, 42, 1312] {
        let sequential = run_sequential(seed, 24, 4);
        let (sharded, _) = run_sharded(seed, 24, 4, false);
        // Bit-level comparison via the canonical wire encoding: stricter
        // than PartialEq on floats (rules out -0.0/0.0 drift too).
        assert_eq!(
            serde::binary::to_bytes(&sequential),
            serde::binary::to_bytes(&sharded),
            "seed {seed}: sharded settlement diverged from single-lock settlement"
        );
    }
}

/// A trace recorded under racing tenant threads replays bit-identically
/// — same per-request responses, same settled totals — on the plain
/// (pre-shard, single-threaded) dispatch path and on the sharded path.
#[test]
fn concurrent_trace_replays_bit_identical_on_both_paths() {
    let seed = 99;
    let ticks = 12usize;
    let (live_totals, trace) = run_sharded(seed, ticks, 4, true);
    let trace = trace.expect("trace recorded");
    assert!(trace.request_count() > 0);

    // Twin 1: plain Ecovisor, batches replayed in trace order.
    let replay_on_plain = |mut eco: Ecovisor, ids: &[AppId]| {
        // Replaying the recorded launches would double-launch; the twin
        // ran seeded_day too, so skip its setup and replay only the
        // per-tick traffic, tick-aligned.
        let mut entries = trace.entries.iter().peekable();
        let mut responses = Vec::new();
        for tick in 0..ticks as u64 {
            while let Some(e) = entries.peek() {
                if e.tick != tick {
                    break;
                }
                responses.push(eco.dispatch_batch(&e.batch));
                entries.next();
            }
            eco.tick(|_| ());
        }
        assert!(entries.next().is_none(), "all batches consumed");
        (totals_of(&eco, ids), responses)
    };

    let (mut plain, plain_ids) = build_eco(4);
    let _ = seeded_day(&mut plain, &plain_ids, seed, ticks); // same setup, traffic from trace
    let (plain_totals, plain_responses) = replay_on_plain(plain, &plain_ids);

    // Twin 2: the same replay driven through the sharded wrapper.
    let (mut sharded_twin, twin_ids) = build_eco(4);
    let _ = seeded_day(&mut sharded_twin, &twin_ids, seed, ticks);
    let shared = ShardedEcovisor::new(sharded_twin);
    let mut entries = trace.entries.iter().peekable();
    let mut sharded_responses = Vec::new();
    for tick in 0..ticks as u64 {
        while let Some(e) = entries.peek() {
            if e.tick != tick {
                break;
            }
            sharded_responses.push(shared.dispatch_batch(&e.batch));
            entries.next();
        }
        shared.tick();
    }
    let sharded_totals = shared.with(|eco| totals_of(eco, &twin_ids));

    assert_eq!(
        plain_responses, sharded_responses,
        "plain and sharded replay answered identically"
    );
    assert_eq!(
        serde::binary::to_bytes(&plain_totals),
        serde::binary::to_bytes(&sharded_totals),
        "replay totals bit-identical across dispatch paths"
    );
    assert_eq!(
        serde::binary::to_bytes(&plain_totals),
        serde::binary::to_bytes(&live_totals),
        "replay reproduces the live concurrent run bit-for-bit"
    );
}

/// Container ids are allocated by the shared COP, so their cross-app
/// order is a race — the dispatcher pins it by holding the COP write
/// guard for any container-mutating batch *while recording its trace
/// entry*. Tenants here launch (and address) containers from racing
/// threads; replaying the trace must allocate identical ids, answer
/// every per-app response sequence identically (launch ids included),
/// and settle bit-identical totals.
#[test]
fn concurrent_launches_replay_with_identical_container_ids() {
    let seed = 2024u64;
    let ticks = 10usize;
    let (mut eco, ids) = build_eco(4);
    eco.enable_protocol_trace();
    let shared = Arc::new(ShardedEcovisor::new(eco));

    let open = Arc::new(Barrier::new(ids.len() + 1));
    let close = Arc::new(Barrier::new(ids.len() + 1));
    let threads: Vec<_> = ids
        .iter()
        .enumerate()
        .map(|(i, &app)| {
            let shared = Arc::clone(&shared);
            let open = Arc::clone(&open);
            let close = Arc::clone(&close);
            std::thread::spawn(move || {
                let mut rng = SimRng::from_seed(seed).fork_indexed("launcher", i as u64);
                let mut mine = Vec::new();
                let mut responses = Vec::new();
                for _ in 0..ticks {
                    open.wait();
                    // Race the other tenants for COP allocation. Late in
                    // the run the cluster fills up: InsufficientCapacity
                    // errors are values and must replay identically too.
                    let launch = RequestBatch::new(
                        app,
                        vec![EnergyRequest::LaunchContainer {
                            spec: ContainerSpec::quad_core(),
                        }],
                    );
                    let resp = shared.dispatch_batch(&launch);
                    if let EnergyResponse::Container(c) = resp.responses[0] {
                        mine.push(c);
                    }
                    responses.push(resp);
                    if !mine.is_empty() {
                        let c = mine[rng.uniform_u64(0, mine.len() as u64) as usize];
                        let follow = RequestBatch::new(
                            app,
                            vec![
                                EnergyRequest::SetContainerDemand {
                                    container: c,
                                    demand: rng.uniform(0.1, 1.0),
                                },
                                EnergyRequest::ListContainers,
                            ],
                        );
                        responses.push(shared.dispatch_batch(&follow));
                    }
                    close.wait();
                }
                (app, responses)
            })
        })
        .collect();
    for _ in 0..ticks {
        open.wait();
        close.wait();
        shared.tick();
    }
    let live: Vec<_> = threads
        .into_iter()
        .map(|t| t.join().expect("tenant thread"))
        .collect();
    let (live_totals, trace) = shared.with(|eco| {
        (
            totals_of(eco, &ids),
            eco.take_protocol_trace().expect("recording"),
        )
    });

    // Twin: every launch is in the trace, so a bare ecovisor replays the
    // whole run.
    let (mut twin, twin_ids) = build_eco(4);
    let mut entries = trace.entries.iter().peekable();
    let mut replayed: Vec<ecovisor::proto::ResponseBatch> = Vec::new();
    for tick in 0..ticks as u64 {
        while let Some(e) = entries.peek() {
            if e.tick != tick {
                break;
            }
            replayed.push(twin.dispatch_batch(&e.batch));
            entries.next();
        }
        twin.tick(|_| ());
    }
    assert!(entries.next().is_none(), "all batches consumed");

    // Per-app response sequences — launch ids included — are identical.
    for (app, live_responses) in &live {
        let replayed_for_app: Vec<_> = replayed.iter().filter(|r| r.app == *app).collect();
        let live_refs: Vec<_> = live_responses.iter().collect();
        assert_eq!(
            replayed_for_app, live_refs,
            "replay diverged for {app} (container-id allocation must be trace-ordered)"
        );
    }
    assert_eq!(
        serde::binary::to_bytes(&totals_of(&twin, &twin_ids)),
        serde::binary::to_bytes(&live_totals),
        "replay settles bit-identical totals"
    );
}
