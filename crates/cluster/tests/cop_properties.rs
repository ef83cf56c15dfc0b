//! Randomized property tests of the COP: capacity accounting, cap→quota
//! round-trips, and placement feasibility under arbitrary launch/stop
//! sequences.
//!
//! Cases are generated from a fixed-seed [`SimRng`] stream (the offline
//! replacement for proptest), so failures are exactly reproducible.

use container_cop::server::Server;
use container_cop::{
    AppId, Container, ContainerId, ContainerSpec, ContainerState, Cop, CopConfig, PowerModel,
    ServerSpec,
};
use simkit::rng::SimRng;
use simkit::units::Watts;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy)]
enum Op {
    Launch(u32),
    StopOldest,
    SuspendNewest,
    Cap(f64),
}

fn arb_op(rng: &mut SimRng) -> Op {
    match rng.uniform_u64(0, 4) {
        0 => Op::Launch(rng.uniform_u64(1, 5) as u32),
        1 => Op::StopOldest,
        2 => Op::SuspendNewest,
        _ => Op::Cap(rng.uniform(0.0, 6.0)),
    }
}

/// Server reservations never go negative or exceed capacity, across
/// arbitrary operation sequences, and placement never double-books.
#[test]
fn capacity_accounting_holds() {
    let mut rng = SimRng::from_seed(4004).fork("capacity_accounting_holds");
    for _ in 0..128 {
        let servers = rng.uniform_u64(1, 8) as u32;
        let ops: Vec<Op> = (0..rng.uniform_u64(1, 60))
            .map(|_| arb_op(&mut rng))
            .collect();
        let mut cop = Cop::new(CopConfig::microserver_cluster(servers));
        let app = AppId::new(1);
        let mut live: Vec<ContainerId> = Vec::new();
        for op in ops {
            match op {
                Op::Launch(cores) => {
                    if let Ok(id) = cop.launch(app, ContainerSpec::with_cores(cores)) {
                        live.push(id);
                    }
                }
                Op::StopOldest => {
                    if !live.is_empty() {
                        let id = live.remove(0);
                        let _ = cop.stop(id);
                    }
                }
                Op::SuspendNewest => {
                    if let Some(id) = live.last() {
                        let _ = cop.suspend(*id);
                    }
                }
                Op::Cap(w) => {
                    if let Some(id) = live.last() {
                        let _ = cop.set_power_cap(*id, Some(Watts::new(w)));
                    }
                }
            }
            for s in cop.servers() {
                assert!(s.free_cores() <= s.spec().cores);
                assert!(s.free_memory_mib() <= s.spec().memory_mib);
            }
            // Sum of live containers' cores never exceeds cluster cores.
            let used: u32 = live
                .iter()
                .filter_map(|id| cop.container(*id))
                .map(|c| c.spec().cores)
                .sum();
            assert!(used <= servers * 4);
        }
    }
}

/// For any cap, the enforced container power never exceeds the cap, and
/// caps at/above max dynamic power leave the quota at 1.
#[test]
fn cap_quota_roundtrip() {
    let mut rng = SimRng::from_seed(4004).fork("cap_quota_roundtrip");
    for _ in 0..128 {
        let cores = rng.uniform_u64(1, 5) as u32;
        let cap_w = rng.uniform(0.0, 10.0);
        let demand = rng.unit();
        let model = PowerModel::new(ServerSpec::microserver());
        let quota = model.quota_for_cap(cores, false, Watts::new(cap_w));
        let u = demand.min(quota);
        let power = model.container_power(cores, u, false);
        assert!(
            power.watts() <= cap_w + 1e-9,
            "power {power} exceeds cap {cap_w}"
        );
        if cap_w >= model.container_max_power(cores, false).watts() {
            assert_eq!(quota, 1.0);
        }
    }
}

/// Cluster power is the idle floor plus attributed dynamic power — total
/// power minus idle equals the sum over container powers.
#[test]
fn total_power_decomposes() {
    let mut rng = SimRng::from_seed(4004).fork("total_power_decomposes");
    for _ in 0..128 {
        let n = rng.uniform_u64(1, 6) as u32;
        let demands: Vec<f64> = (0..rng.uniform_u64(1, 6)).map(|_| rng.unit()).collect();
        let mut cop = Cop::new(CopConfig::microserver_cluster(n * 2));
        let app = AppId::new(1);
        let mut ids = Vec::new();
        for d in &demands {
            if let Ok(id) = cop.launch(app, ContainerSpec::quad_core()) {
                cop.set_demand(id, *d).unwrap();
                ids.push(id);
            }
        }
        let idle: f64 = cop
            .servers()
            .iter()
            .map(|s| s.spec().idle_power.watts())
            .sum();
        let attributed: f64 = ids
            .iter()
            .map(|id| cop.container_power(*id).unwrap().watts())
            .sum();
        let total = cop.total_power().watts();
        assert!(
            (total - idle - attributed).abs() < 1e-9,
            "total {total} != idle {idle} + attributed {attributed}"
        );
    }
}

/// Every container the platform holds, in id order, probed id by id
/// below its cursor (every id is allocated from it).
fn all_containers(cop: &Cop) -> Vec<Container> {
    (0..cop.next_container_id())
        .filter_map(|id| cop.container(ContainerId::new(id)).cloned())
        .collect()
}

/// Everything a refused call must leave as it was: the containers, each
/// server's occupancy and the id cursor.
fn state(cop: &Cop) -> (Vec<Container>, Vec<Server>, u64) {
    (
        all_containers(cop),
        cop.servers().to_vec(),
        cop.next_container_id(),
    )
}

/// Asserts that every per-owner accessor agrees with its definition as a
/// scan of the whole platform in id order — floats bit for bit, since
/// settlement sums them in that order.
fn assert_owner_index_matches_scan(cop: &Cop, owners: &[AppId]) {
    let all = all_containers(cop);
    for &owner in owners {
        let owned: Vec<&Container> = all.iter().filter(|c| c.owner() == owner).collect();
        let live: Vec<ContainerId> = owned
            .iter()
            .filter(|c| c.state() != ContainerState::Stopped)
            .map(|c| c.id())
            .collect();
        let ids = |cs: Vec<&Container>| cs.iter().map(|c| c.id()).collect::<Vec<_>>();
        assert_eq!(ids(cop.owned_by(owner).collect()), ids(owned.clone()));
        assert_eq!(cop.container_ids_of(owner), live);
        assert_eq!(
            cop.running_count(owner),
            owned
                .iter()
                .filter(|c| c.state() == ContainerState::Running)
                .count()
        );
        let power: Watts = owned
            .iter()
            .map(|c| cop.container_power(c.id()).expect("scanned"))
            .sum();
        assert_eq!(
            cop.app_power(owner).watts().to_bits(),
            power.watts().to_bits()
        );
        let cores: f64 = owned.iter().map(|c| c.effective_cores()).sum();
        assert_eq!(cop.app_effective_cores(owner).to_bits(), cores.to_bits());
    }
}

/// The table answers `container(id)` as `model` (every
/// container launched or adopted and not since evicted, with its owner
/// and state) does; an evicted id and the next one to allocate are
/// absent.
fn assert_table_matches_model(
    cop: &Cop,
    model: &BTreeMap<ContainerId, (AppId, ContainerState)>,
    gone: &[ContainerId],
) {
    let listed = all_containers(cop);
    assert!(listed.iter().map(|c| c.id()).eq(model.keys().copied()));
    for (&id, &(owner, state)) in model {
        let c = cop.container(id).expect("modelled containers are held");
        assert_eq!((c.id(), c.owner(), c.state()), (id, owner, state));
    }
    let next = ContainerId::new(cop.next_container_id());
    for id in gone.iter().chain([&next]) {
        assert!(cop.container(*id).is_none(), "{id} is not held");
    }
}

/// The per-owner index stays equal to a full scan, and the table to a
/// `BTreeMap` model, through every way the container map changes:
/// launch, state changes, eviction of an owner, adoption (in any id
/// order, below ids already held) and a fresh platform adopting them all.
#[test]
fn owner_index_matches_full_scan() {
    let mut rng = SimRng::from_seed(4004).fork("owner_index_matches_full_scan");
    // The last owner never launches: the accessors must answer for it too.
    let owners: Vec<AppId> = (1..=5).map(AppId::new).collect();
    let mut adopted_below_held = 0;
    for _ in 0..48 {
        let mut cop = Cop::new(CopConfig::microserver_cluster(12));
        let mut evicted: Vec<Vec<Container>> = Vec::new();
        let mut model = BTreeMap::new();
        for _ in 0..rng.uniform_u64(20, 90) {
            let owner = owners[rng.uniform_u64(0, 4) as usize];
            let known = all_containers(&cop);
            let pick = (!known.is_empty())
                .then(|| known[rng.uniform_u64(0, known.len() as u64) as usize].id());
            match (rng.uniform_u64(0, 9), pick) {
                (0..=2, _) => {
                    if let Ok(id) = cop.launch(owner, ContainerSpec::with_cores(1)) {
                        cop.set_demand(id, rng.unit()).expect("just launched");
                        model.insert(id, (owner, ContainerState::Running));
                    }
                }
                (3..=5, Some(id)) => {
                    let (done, state) = match rng.uniform_u64(0, 3) {
                        0 => (cop.stop(id), ContainerState::Stopped),
                        1 => (cop.suspend(id), ContainerState::Suspended),
                        _ => (cop.resume(id), ContainerState::Running),
                    };
                    if done.is_ok() {
                        model.get_mut(&id).expect("picked from the table").1 = state;
                    }
                }
                (6, _) => {
                    let out = cop.remove_app_containers(owner);
                    assert!(out.iter().all(|c| c.owner() == owner));
                    assert!(out.windows(2).all(|w| w[0].id() < w[1].id()));
                    model.retain(|_, &mut (o, _)| o != owner);
                    evicted.push(out);
                }
                (7, _) => {
                    if let Some(mut back) = evicted.pop() {
                        // Reversed: adoption must sort, not append.
                        back.reverse();
                        let before = state(&cop);
                        match cop.adopt_containers(&back) {
                            // What the owner launched since its eviction
                            // carries higher ids than what comes back.
                            Ok(()) => {
                                adopted_below_held += back.first().is_some_and(|c| {
                                    before.0.iter().any(|b| b.owner() == c.owner())
                                }) as u32;
                                for c in &back {
                                    model.insert(c.id(), (c.owner(), c.state()));
                                }
                            }
                            Err(_) => assert_eq!(state(&cop), before, "refused: unchanged"),
                        }
                    }
                }
                (8, _) => {
                    // Occupancy is derived: a fresh platform that adopts
                    // every container matches the one they came from.
                    let mut twin = Cop::new(CopConfig::microserver_cluster(12));
                    twin.align_container_id(cop.next_container_id())
                        .expect("a fresh cursor is 0");
                    twin.adopt_containers(&all_containers(&cop))
                        .expect("every container fits where it was");
                    assert_eq!(state(&twin), state(&cop));
                    cop = twin;
                }
                _ => {}
            }
            assert_owner_index_matches_scan(&cop, &owners);
            let gone: Vec<ContainerId> = evicted.iter().flatten().map(|c| c.id()).collect();
            assert_table_matches_model(&cop, &model, &gone);
        }
    }
    assert!(adopted_below_held > 0, "the sorted-insert case never ran");
}
