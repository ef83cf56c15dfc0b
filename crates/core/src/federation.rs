//! Federation: per-tenant state transfer and the cross-node settlement
//! views that let N ecovisor processes share one energy substrate.
//!
//! PR 6's [`Snapshot`](crate::snapshot::Snapshot) moves a *whole*
//! ecovisor; this module moves **one tenant**. A [`TenantSnapshot`]
//! carries everything that belongs to a single application — its shard,
//! its containers (stopped history included), and its telemetry series —
//! as one [`TenantRecord`], the bytes a checkpoint holds for the same
//! tenant, through the same header check and the same install path the
//! whole-ecovisor restore uses. Three primitives compose into live
//! migration:
//!
//! * [`Ecovisor::extract_app`] captures a tenant **without removing
//!   it** — the source keeps running it until the transfer is known
//!   good;
//! * [`Ecovisor::graft_app`] validates everything before touching any
//!   state, so a rejected graft leaves the destination untouched;
//! * [`Ecovisor::remove_app`] evicts a tenant (shard, containers,
//!   telemetry) — the migration *commit*, and also how a federated node
//!   built from a full deployment spec sheds the tenants it does not
//!   own.
//!
//! Capture-then-commit makes the flow tamper-safe: a transfer that dies
//! or is rejected mid-chunk changes **neither** node, and because no
//! settlement runs between capture and commit, the pending outbox
//! events carried in the snapshot are delivered exactly once — by the
//! destination.
//!
//! ## Cross-node settlement views
//!
//! Tenants meet in settlement only in two id-ordered scans over a few
//! scalars each (the throttle scales; the pool sums and redistribution
//! walk), so any design that scans the same rows in the same order on
//! every node reproduces a single-process run bit-identically. The rows
//! could travel as scalars; today the wire ships each tenant's whole
//! virtual energy system, so every node holds a full replica of the
//! shared substrate and applies the **global** settlement each tick,
//! in two phases:
//! [`fed_collect`](crate::shard::ShardedEcovisor::fed_collect) captures
//! one [`FedAppView`] per local tenant (its virtual energy system and
//! post-cap container power); the coordinator merges all nodes' views
//! into one app-id-ordered list and hands it back to
//! [`fed_settle`](crate::shard::ShardedEcovisor::fed_settle), which runs
//! the settlement a local [`Ecovisor::tick`] runs — one routine, over
//! the list instead of the node's own tenants — with local tenants
//! against live state and each remote tenant against a shadow copy
//! that lives only while its row is applied, then advances the clock.
//! Identical inputs in identical order make every replica's substrate —
//! and every app's flows — bit-identical to the single-process run. The choreography, its contract (no dispatch
//! between collect and settle), and the failure semantics are documented
//! in `docs/FEDERATION.md`.

use container_cop::AppId;
use simkit::units::Watts;

use crate::ecovisor::Ecovisor;
use crate::error::{EcovisorError, Result};
use crate::replay::digest;
use crate::snapshot::{SnapshotError, TenantRecord, TransferHeader, SNAPSHOT_FORMAT};
use crate::ves::VirtualEnergySystem;
use crate::{lock, PROTOCOL_VERSION};

/// One application's contribution to a federated settlement tick: the
/// state a *remote* node needs to run the global settlement arithmetic
/// with this app in it.
///
/// The virtual energy system travels whole (its flows depend on mutable
/// per-tick state: buffered solar, battery level, clamp edges), plus the
/// post-cap container power the owning node measured after carbon-rate
/// enforcement. Receivers treat the embedded VES as a **shadow**: they
/// mutate a copy through the tick's arithmetic for the tenant's row and
/// drop it with the row — the owning node's live state is
/// authoritative.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FedAppView {
    /// The application this view describes.
    pub app: AppId,
    /// Its virtual energy system as of collect time (post carbon-rate
    /// enforcement, pre settlement).
    pub ves: VirtualEnergySystem,
    /// Its container power as of collect time (post carbon caps).
    pub power: Watts,
}

/// A versioned, serializable capture of **one tenant**: the unit of
/// migration between ecovisor processes.
///
/// Its header is checked by the function that checks a
/// [`Snapshot`](crate::snapshot::Snapshot)'s: the format and protocol
/// era must be understood, the environment fingerprint must match the
/// receiver, and the capture tick must equal the receiver's tick (both
/// sides of a migration sit at the same settlement boundary). Its
/// record is installed by the path a restore installs every record by.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct TenantSnapshot {
    /// Snapshot layout version (shares [`SNAPSHOT_FORMAT`] — the
    /// record is the one a checkpoint holds for the tenant).
    format: u32,
    /// Protocol version of the writing process.
    protocol_version: u16,
    /// Number of fully settled ticks at capture time.
    tick: u64,
    /// Fingerprint of the writer's static environment; grafting refuses
    /// a snapshot whose fingerprint differs from the receiver's.
    pub env_digest: u64,
    /// The tenant.
    pub record: TenantRecord,
}

impl TenantSnapshot {
    /// FNV-1a digest over the binary encoding (float bit patterns are
    /// exact, so equal digests mean bit-identical tenant state).
    pub fn digest(&self) -> u64 {
        digest(self)
    }

    /// Encodes with the compact binary codec (the on-wire form of
    /// `MigrateOut`/`MigrateIn` chunks).
    pub fn to_bytes(&self) -> Vec<u8> {
        serde::binary::to_bytes(self)
    }

    /// Decodes the binary form [`to_bytes`](Self::to_bytes) writes.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Decode`] when the bytes are not that.
    pub fn from_bytes(bytes: &[u8]) -> std::result::Result<Self, SnapshotError> {
        serde::binary::from_bytes(bytes).map_err(|e| SnapshotError::Decode(e.to_string()))
    }
}

impl Ecovisor {
    /// Captures one tenant as a [`TenantSnapshot`] **without removing
    /// it** — the migration flow commits the removal separately
    /// ([`Self::remove_app`]) once the destination has accepted the
    /// graft, so a failed transfer changes nothing on either side.
    ///
    /// Like [`Ecovisor::snapshot`], takes `&mut self` because exclusive
    /// access *is* the settlement barrier; on a deployed instance call it
    /// inside [`crate::shard::ShardedEcovisor::with`].
    ///
    /// # Errors
    ///
    /// [`EcovisorError::UnknownApp`] when not registered.
    pub fn extract_app(&mut self, app: AppId) -> Result<TenantSnapshot> {
        let env_digest = self.env_fingerprint();
        let shard = self
            .apps
            .get_mut(&app)
            .ok_or(EcovisorError::UnknownApp(app))?;
        let record = lock::get_mut(shard).record(lock::get_mut(&mut self.cop));
        Ok(TenantSnapshot {
            format: SNAPSHOT_FORMAT,
            protocol_version: PROTOCOL_VERSION,
            tick: self.clock.tick_index(),
            env_digest,
            record,
        })
    }

    /// Grafts a tenant captured elsewhere into this ecovisor: inserts
    /// its shard, adopts its containers (preserving ids, placement, and
    /// caps), and installs its telemetry. All-or-nothing — every check
    /// of the install path a restore uses runs before any state is
    /// touched, so a rejected graft leaves this process exactly as it
    /// was.
    ///
    /// The tenant's id is preserved. A **fresh** id (not registered
    /// here) is adopted and `next_app` advances past it; a **colliding**
    /// id is refused — two live tenants must never share an id, and the
    /// caller (the migration choreography) resolves ownership by
    /// committing the removal on the source first when re-homing onto
    /// it.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Format`] / [`SnapshotError::Protocol`] on
    /// version mismatch, [`SnapshotError::Environment`] when the static
    /// configuration differs, [`SnapshotError::Structure`] on a tick
    /// disagreement, a record the admission rule refuses (an id
    /// collision, an invalid or oversubscribing share, a virtual battery
    /// its share does not imply, a carbon cap on a container not
    /// carried), a container of another owner or one that collides or
    /// does not fit, or telemetry of a container it does not carry or
    /// stamped after this clock.
    pub fn graft_app(&mut self, snap: &TenantSnapshot) -> std::result::Result<(), SnapshotError> {
        let header = TransferHeader {
            format: snap.format,
            protocol_version: snap.protocol_version,
            tick: snap.tick,
            env_digest: snap.env_digest,
        };
        // The tenant runs under this process's clock: both sides of a
        // migration sit at the same settlement boundary.
        let now = self.check_header(&header, &self.clock)?;
        self.install(std::slice::from_ref(&snap.record), None, now)?;
        let id = snap.record.app.app;
        self.next_app = self.next_app.max(id.value() + 1);
        // The id may sort below a resident's: the sums fold again.
        self.resident_shares = None;
        Ok(())
    }

    /// Evicts a tenant: removes its shard, its containers (releasing
    /// their server reservations), and its telemetry series. This is the
    /// migration **commit** on the source — run it only after the
    /// destination has accepted the graft — and the federation
    /// deployment step that sheds non-local tenants from a node built
    /// from the full deployment spec.
    ///
    /// `next_app` is left alone, so the id is never reallocated to a
    /// different tenant. Dispatch for the evicted app answers
    /// [`ProtoError::UnknownApp`](crate::proto::ProtoError::UnknownApp)
    /// from the next batch on; a still-subscribed connection simply
    /// receives no further frames.
    ///
    /// # Errors
    ///
    /// [`EcovisorError::UnknownApp`] when not registered.
    pub fn remove_app(&mut self, app: AppId) -> Result<()> {
        if self.apps.remove(&app).is_none() {
            return Err(EcovisorError::UnknownApp(app));
        }
        self.resident_shares = None;
        lock::get_mut(&mut self.cop).remove_app_containers(app);
        Ok(())
    }
}

#[cfg(test)]
#[path = "../tests/common/hostile.rs"]
mod hostile;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EcovisorBuilder;
    use crate::event::Notification;
    use crate::proto::{EnergyRequest, RequestBatch};
    use crate::series::{Metric, Subject};
    use crate::share::EnergyShare;
    use container_cop::ContainerSpec;

    fn solar_share(fraction: f64) -> EnergyShare {
        EnergyShare::grid_only().with_solar_fraction(fraction)
    }

    fn eco_with_two_tenants() -> (Ecovisor, AppId, AppId) {
        let mut eco = EcovisorBuilder::new().build();
        let a = eco
            .register_app("alpha", solar_share(0.4))
            .expect("valid share");
        let b = eco
            .register_app("beta", EnergyShare::grid_only())
            .expect("valid share");
        (eco, a, b)
    }

    fn settle(eco: &mut Ecovisor, ticks: u32) {
        for _ in 0..ticks {
            eco.tick(|_| ());
        }
    }

    #[test]
    fn extract_does_not_disturb_the_source() {
        let (mut eco, a, _) = eco_with_two_tenants();
        settle(&mut eco, 3);
        let before = eco.snapshot();
        let snap = eco.extract_app(a).expect("registered");
        assert_eq!(snap.record.app.app, a);
        assert_eq!(snap.tick, 3);
        assert_eq!(before.digest(), eco.snapshot().digest());
    }

    #[test]
    fn extract_graft_round_trip_preserves_tenant_state() {
        let (mut eco, a, _b) = eco_with_two_tenants();
        let c = {
            let mut api = eco.client(a).expect("registered");
            use crate::client::EnergyClient;
            let c = api.launch_container(ContainerSpec::quad_core()).unwrap();
            api.set_container_demand(c, 1.0).unwrap();
            c
        };
        settle(&mut eco, 4);
        let snap = eco.extract_app(a).expect("registered");
        let totals_before = eco.app_totals(a).expect("registered");

        // A fresh process with the same static environment but only the
        // *other* tenant registered (ids preserved by registering both
        // and evicting).
        let mut dest = EcovisorBuilder::new().build();
        dest.register_app("alpha", solar_share(0.4)).unwrap();
        dest.register_app("beta", EnergyShare::grid_only()).unwrap();
        dest.remove_app(a).unwrap();
        settle(&mut dest, 4);
        dest.graft_app(&snap).expect("valid graft");

        let totals_after = dest.app_totals(a).expect("grafted");
        assert_eq!(totals_before, totals_after);
        assert_eq!(dest.app_name(a).expect("grafted"), "alpha");
        let cop = dest.cop();
        assert_eq!(cop.container_ids_of(a), vec![c]);
        drop(cop);
        // Telemetry came along: the app has series history.
        let mut history = false;
        dest.for_each_series(|subject, metric, series| {
            history |=
                (subject, metric) == (Subject::App(a), Metric::AppPower) && series.last().is_some();
        });
        assert!(history);
    }

    #[test]
    fn graft_rejects_colliding_app_id() {
        let (mut eco, a, _) = eco_with_two_tenants();
        let snap = eco.extract_app(a).expect("registered");
        let err = eco.graft_app(&snap).expect_err("id collides");
        assert!(matches!(err, SnapshotError::Structure(_)));
    }

    #[test]
    fn graft_rejects_tick_and_environment_mismatch() {
        let (mut eco, a, _) = eco_with_two_tenants();
        settle(&mut eco, 2);
        let snap = eco.extract_app(a).expect("registered");
        eco.remove_app(a).expect("registered");

        // Wrong tick: the receiver has settled one more tick.
        settle(&mut eco, 1);
        assert!(matches!(
            eco.graft_app(&snap),
            Err(SnapshotError::Structure(_))
        ));

        // Wrong environment digest.
        let mut bad = snap.clone();
        bad.env_digest ^= 0x05EE_DBAD;
        assert!(matches!(
            eco.graft_app(&bad),
            Err(SnapshotError::Environment(_))
        ));

        // A later layout, and the one before this.
        for got in [SNAPSHOT_FORMAT + 1, 1] {
            let mut bad = snap.clone();
            bad.format = got;
            assert_eq!(
                eco.graft_app(&bad),
                Err(SnapshotError::Format { expected: 2, got })
            );
        }
    }

    #[test]
    fn graft_rejects_oversubscribed_solar() {
        let (mut eco, a, _) = eco_with_two_tenants();
        let snap = eco.extract_app(a).expect("registered");
        let mut dest = EcovisorBuilder::new().build();
        dest.register_app("hog", solar_share(0.8)).unwrap();
        let err = dest.graft_app(&snap).expect_err("0.8 + 0.4 oversubscribes");
        assert!(matches!(err, SnapshotError::Structure(_)));
        // The failed graft left the destination untouched.
        assert_eq!(dest.app_ids().len(), 1);
    }

    /// A tenant holding a battery share and two containers, captured after
    /// three ticks, and a destination at the same tick with room for it.
    fn migrating_tenant() -> (TenantSnapshot, Ecovisor) {
        let share = solar_share(0.4).with_battery(simkit::units::WattHours::new(100.0));
        let build = || {
            let mut eco = EcovisorBuilder::new().build();
            let a = eco.register_app("alpha", share).expect("valid share");
            eco.register_app("beta", solar_share(0.5)).expect("fits");
            (eco, a)
        };
        let (mut source, a) = build();
        {
            use crate::client::EnergyClient;
            let mut api = source.client(a).expect("registered");
            for _ in 0..2 {
                let c = api.launch_container(ContainerSpec::quad_core()).unwrap();
                api.set_container_demand(c, 1.0).unwrap();
            }
        }
        settle(&mut source, 3);
        let (mut dest, _) = build();
        dest.remove_app(a).expect("registered");
        settle(&mut dest, 3);
        (source.extract_app(a).expect("registered"), dest)
    }

    /// The tenant twin of `snapshot_restore.rs`'s table: a graft checks
    /// the record it would install by the rule registration and restore
    /// use, and its telemetry against the clock it would run under.
    #[test]
    fn graft_refuses_hostile_tenants_before_touching_state() {
        let (good, dest) = migrating_tenant();
        let receiver = hostile::Receiver {
            now: dest.now().as_secs() as i64,
            // The record's containers take ids 0 and 1.
            unborn: 2,
            other_app: good.record.app.app.value() + 1,
        };
        let tree = serde::Serialize::to_value(&good);
        let cases = hostile::record_edits(&tree, "record", &receiver);
        for (name, edits) in cases {
            let (_, mut dest) = migrating_tenant();
            let before = dest.snapshot().digest();
            let err = dest
                .graft_app(&hostile::edited(&good, &edits))
                .expect_err(name);
            assert!(matches!(err, SnapshotError::Structure(_)), "{name}: {err}");
            assert_eq!(dest.snapshot().digest(), before, "{name}: touched");

            dest.graft_app(&good).expect("the honest capture");
            settle(&mut dest, 1);
        }
    }

    #[test]
    fn pending_outbox_events_move_exactly_once() {
        let (mut eco, a, _) = eco_with_two_tenants();
        // Fire a notification on *any* solar swing so the outbox is
        // guaranteed non-empty after a couple of settlements.
        eco.set_notify_config(
            a,
            crate::event::NotifyConfig {
                solar_change_fraction: 0.0,
                solar_change_floor: Watts::new(0.0),
                carbon_change_fraction: 0.0,
            },
        )
        .unwrap();
        settle(&mut eco, 2);
        let snap = eco.extract_app(a).expect("registered");
        let pending: Vec<Notification> = snap.record.app.pending_events.clone();
        assert!(!pending.is_empty(), "expected undelivered events");

        let mut dest = EcovisorBuilder::new().build();
        dest.register_app("alpha", solar_share(0.4)).unwrap();
        dest.register_app("beta", EnergyShare::grid_only()).unwrap();
        dest.remove_app(a).unwrap();
        settle(&mut dest, 2);
        dest.graft_app(&snap).expect("valid graft");
        // Source commits the migration: its copy of the events is gone.
        eco.remove_app(a).expect("registered");
        assert!(eco.drain_events(a).is_empty());
        // Destination delivers them exactly once.
        assert_eq!(dest.drain_events(a), pending);
        assert!(dest.drain_events(a).is_empty());
    }

    fn protocol_message(err: EcovisorError) -> String {
        match err {
            EcovisorError::Protocol(message) => message,
            other => panic!("expected a protocol error, got {other:?}"),
        }
    }

    #[test]
    fn bad_view_lists_are_refused_and_the_tick_stays_unsettled() {
        let (mut eco, a, b) = eco_with_two_tenants();
        settle(&mut eco, 2);
        let views = eco.collect_demand();
        let before = eco.snapshot().digest();
        let mut calls = 0;

        for missing in [a, b] {
            let partial: Vec<FedAppView> =
                views.iter().filter(|v| v.app != missing).cloned().collect();
            let err = eco
                .finish_tick(&partial, |_| calls += 1)
                .expect_err("a local app is absent");
            assert_eq!(
                protocol_message(err),
                format!("demand views are missing local app {missing}")
            );
        }
        let reversed: Vec<FedAppView> = views.iter().rev().cloned().collect();
        let repeated = vec![views[0].clone(), views[0].clone(), views[1].clone()];
        for (bad, saw) in [(reversed, (a, b)), (repeated, (a, a))] {
            let err = eco
                .finish_tick(&bad, |_| calls += 1)
                .expect_err("not strictly ascending");
            assert_eq!(
                protocol_message(err),
                format!(
                    "demand views must be strictly ascending by app id (saw {} after {})",
                    saw.0, saw.1
                )
            );
        }
        assert_eq!(eco.snapshot().digest(), before, "nothing was settled");
        assert_eq!(eco.tick_index(), 2);
        assert_eq!(calls, 0, "a refused list runs no callback");

        let (_, settled) = eco
            .finish_tick(&views, |eco| {
                calls += 1;
                eco.tick_index()
            })
            .expect("the complete list settles");
        assert_eq!((calls, settled), (1, 2), "once, on the settled tick");
        assert_eq!(eco.tick_index(), 3);
    }

    #[test]
    fn local_apps_are_found_among_remote_views_on_every_side() {
        // One node holds all five tenants; the other sheds the first,
        // middle and last, so its two local ids sit between remote ones.
        let build = || {
            let mut eco = EcovisorBuilder::new().build();
            let ids: Vec<AppId> = (0..5)
                .map(|i| eco.register_app(format!("t{i}"), solar_share(0.1)).unwrap())
                .collect();
            (eco, ids)
        };
        let (mut whole, ids) = build();
        let (mut node, _) = build();
        for i in [0, 2, 4] {
            node.remove_app(ids[i]).unwrap();
        }
        let views = whole.collect_demand();
        assert_eq!(node.collect_demand().len(), 2);
        let (flows, ()) = whole.finish_tick(&views, |_| ()).expect("all local");
        let (node_flows, ()) = node.finish_tick(&views, |_| ()).expect("two local");
        assert_eq!(node_flows, flows);
        for local in [ids[1], ids[3]] {
            assert_eq!(
                node.app_flows(local).unwrap(),
                whole.app_flows(local).unwrap()
            );
        }
    }

    /// Five tenants under `excess`: a full battery with spare solar, a
    /// carbon-rate-limited one, a small carbon budget, an empty battery
    /// that takes redistributed solar, and a small one. Every tenant
    /// starts with two containers. The physical bank's rates (20 W in,
    /// 12 W out) are below what the virtual batteries want together on
    /// some ticks, so both throttle scales fall below 1.
    fn twin_world(excess: crate::config::ExcessPolicy) -> (Ecovisor, Vec<AppId>) {
        use energy_system::battery::{Battery, BatterySpec};
        use simkit::time::SimDuration;
        use simkit::trace::Trace;
        use simkit::units::{CarbonRate, Co2Grams, WattHours};
        let solar = [
            0.0, 40.0, 90.0, 140.0, 60.0, 10.0, 120.0, 150.0, 30.0, 0.0, 80.0, 110.0,
        ];
        let carbon = [200.0, 420.0, 180.0, 390.0, 210.0, 450.0];
        let mut eco = EcovisorBuilder::new()
            .solar(Trace::from_samples(
                solar.to_vec(),
                SimDuration::from_minutes(1),
            ))
            .carbon(Trace::from_samples(
                carbon.to_vec(),
                SimDuration::from_minutes(1),
            ))
            .excess(excess)
            .battery(Battery::new_full(BatterySpec {
                max_charge_rate: Watts::new(20.0),
                max_discharge_rate: Watts::new(12.0),
                ..BatterySpec::with_capacity(WattHours::new(400.0))
            }))
            .build();
        let shares = [
            solar_share(0.3)
                .with_battery(WattHours::new(100.0))
                .with_initial_soc(1.0),
            solar_share(0.2),
            EnergyShare::grid_only(),
            solar_share(0.2)
                .with_battery(WattHours::new(200.0))
                .with_initial_soc(0.1),
            solar_share(0.1)
                .with_battery(WattHours::new(50.0))
                .with_initial_soc(0.5),
        ];
        let ids: Vec<AppId> = shares
            .into_iter()
            .enumerate()
            .map(|(i, s)| eco.register_app(format!("t{i}"), s).expect("fits"))
            .collect();
        use crate::client::EnergyClient;
        for (i, &app) in ids.iter().enumerate() {
            let mut api = eco.client(app).expect("registered");
            for demand in [1.0, 0.25 * i as f64] {
                let c = api.launch_container(ContainerSpec::quad_core()).unwrap();
                api.set_container_demand(c, demand).unwrap();
            }
            match i {
                1 => api.set_carbon_rate(Some(CarbonRate::new(1e-5))),
                2 => api.set_carbon_budget(Some(Co2Grams::new(0.08))),
                _ => {}
            }
        }
        (eco, ids)
    }

    /// What tenants do with their containers before tick `t`: launches,
    /// suspensions, resumptions and stops, so the live set a settlement
    /// reads changes under it. Every world holding `app` does the same,
    /// from the same container-id cursor as `whole`.
    fn churn(t: usize, ids: &[AppId], whole: &mut Ecovisor, others: &mut [&mut Ecovisor]) {
        use crate::client::EnergyClient;
        let (app, verb) = match t {
            0 | 3 | 6 | 9 => (ids[t % 5], "launch"),
            2 => (ids[0], "suspend"),
            5 => (ids[0], "resume"),
            4 | 8 => (ids[t / 2 - 1], "stop"),
            _ => return,
        };
        let act = |eco: &mut Ecovisor, app| {
            let first = eco.cop().container_ids_of(app)[0];
            let mut api = eco.client(app).unwrap();
            match verb {
                "launch" => {
                    let c = api.launch_container(ContainerSpec::quad_core()).unwrap();
                    api.set_container_demand(c, 0.6).unwrap();
                }
                "suspend" => api.suspend_container(first).unwrap(),
                "resume" => api.resume_container(first).unwrap(),
                _ => api.stop_container(first).unwrap(),
            }
        };
        let cursor = whole.cop().next_container_id();
        act(whole, app);
        for eco in others.iter_mut().filter(|eco| eco.apps.contains_key(&app)) {
            lock::get_mut(&mut eco.cop)
                .align_container_id(cursor)
                .unwrap();
            act(eco, app);
        }
    }

    /// A tick settles the same through both doors: `tick` on one world,
    /// `collect_demand` + `finish_tick` on its twin, and the same two
    /// halves on a two-node split over the merged view list.
    #[test]
    fn one_settlement_through_both_doors() {
        use crate::config::ExcessPolicy;
        for excess in [
            ExcessPolicy::Curtail,
            ExcessPolicy::NetMeter,
            ExcessPolicy::Redistribute,
        ] {
            let (mut whole, ids) = twin_world(excess);
            let (mut single, _) = twin_world(excess);
            let (mut left, _) = twin_world(excess);
            let (mut right, _) = twin_world(excess);
            for (i, &app) in ids.iter().enumerate() {
                let shed = if i % 2 == 0 { &mut right } else { &mut left };
                shed.remove_app(app).unwrap();
            }
            let mut redistributed = Watts::ZERO;
            let (mut charge_throttled, mut discharge_throttled) = (0, 0);
            for t in 0..12 {
                churn(
                    t,
                    &ids,
                    &mut whole,
                    &mut [&mut single, &mut left, &mut right],
                );
                let (flows, ()) = whole.tick(|_| ());
                redistributed += flows.redistributed;

                let views = single.collect_demand();
                // §3.3's scales, from the desired flows summed in app-id
                // order: each tenant's battery flows are its desired ones
                // times the scale, bit for bit.
                let dt = single.tick_interval();
                let rows: Vec<_> = views
                    .iter()
                    .map(|v| v.ves.desired_flows(v.power, dt))
                    .collect();
                let (mut charge, mut discharge) = (Watts::ZERO, Watts::ZERO);
                for d in &rows {
                    charge += d.total_charge();
                    discharge += d.discharge;
                }
                let bank = *whole.physical_battery().spec();
                let scale = |total: Watts, allow: Watts| {
                    if total > allow {
                        allow / total
                    } else {
                        1.0
                    }
                };
                let charge_scale = scale(charge, bank.max_charge_rate);
                let discharge_scale = scale(discharge, bank.max_discharge_rate);
                charge_throttled += usize::from(charge_scale < 1.0);
                discharge_throttled += usize::from(discharge_scale < 1.0);
                for (view, d) in views.iter().zip(&rows) {
                    let f = whole.app_flows(view.app).unwrap();
                    let scaled = (d.charge_solar * charge_scale, d.discharge * discharge_scale);
                    let applied = (f.solar_to_battery, f.battery_to_load);
                    assert_eq!(applied, scaled, "{excess:?} tick {t}");
                }
                // The redistribution walk in app-id order, over each
                // tenant's room read off a copy of its view.
                let (mut pool, mut charged, mut rooms) = (Watts::ZERO, Watts::ZERO, vec![]);
                for (view, d) in views.iter().zip(&rows) {
                    let mut ves = view.ves.clone();
                    let intensity = single.grid_carbon_intensity();
                    let (f, _) = ves.apply_flows(d, charge_scale, discharge_scale, intensity, dt);
                    pool += f.solar_surplus;
                    charged += f.solar_to_battery + f.grid_to_battery;
                    rooms.push(ves.redistribution_room(dt));
                }
                let mut headroom = (bank.max_charge_rate - charged).max_zero();
                for (view, room) in views.iter().zip(rooms) {
                    let walked = excess == ExcessPolicy::Redistribute
                        && pool > Watts::ZERO
                        && headroom > Watts::ZERO;
                    let handed = if walked {
                        pool.min(headroom).min(room)
                    } else {
                        Watts::ZERO
                    };
                    let taken = whole.app_flows(view.app).unwrap().redistributed_in;
                    assert_eq!(taken, handed, "{excess:?} tick {t}");
                    pool -= handed;
                    headroom -= handed;
                }
                if discharge_scale < 1.0 {
                    let drawn = flows.battery_discharge - bank.max_discharge_rate;
                    assert!(drawn.watts().abs() < 1e-9, "{excess:?} tick {t}");
                }
                assert!(flows.battery_charge <= bank.max_charge_rate + Watts::new(1e-9));
                let (single_flows, ()) = single.finish_tick(&views, |_| ()).unwrap();
                assert_eq!(single_flows, flows, "{excess:?} tick {t}");
                assert_eq!(
                    single.snapshot().digest(),
                    whole.snapshot().digest(),
                    "{excess:?} tick {t}"
                );

                let mut merged = left.collect_demand();
                merged.extend(right.collect_demand());
                merged.sort_by_key(|v| v.app);
                for node in [&mut left, &mut right] {
                    let (node_flows, ()) = node.finish_tick(&merged, |_| ()).unwrap();
                    assert_eq!(node_flows, flows, "{excess:?} tick {t}");
                    for app in node.app_ids() {
                        assert_eq!(node.app_flows(app).unwrap(), whole.app_flows(app).unwrap());
                        assert_eq!(
                            node.app_totals(app).unwrap(),
                            whole.app_totals(app).unwrap()
                        );
                    }
                }
            }
            let budgeted = lock::read(whole.shard(ids[2]).unwrap())
                .rec
                .budget_exhausted;
            assert!(budgeted, "{excess:?}: the budget was crossed");
            let capped = !lock::read(whole.shard(ids[1]).unwrap())
                .rec
                .carbon_capped
                .is_empty();
            assert!(capped, "{excess:?}: the rate limit capped containers");
            if excess == ExcessPolicy::Redistribute {
                assert!(redistributed > Watts::ZERO, "solar was redistributed");
            }
            assert!(
                charge_throttled > 0,
                "{excess:?}: the bank throttled charge"
            );
            assert!(discharge_throttled > 0, "{excess:?}: and discharge");
        }
    }

    #[test]
    fn removed_app_answers_unknown_and_frees_shares() {
        let (mut eco, a, b) = eco_with_two_tenants();
        eco.remove_app(a).expect("registered");
        let batch = RequestBatch::new(a, vec![EnergyRequest::GetSolarPower]);
        assert!(eco.dispatch_batch(&batch).responses[0].is_err());
        assert!(matches!(
            eco.remove_app(a),
            Err(EcovisorError::UnknownApp(_))
        ));
        // The freed solar share can be re-registered…
        let c = eco
            .register_app("gamma", solar_share(1.0))
            .expect("share freed");
        // …and ids never reuse the evicted tenant's.
        assert_ne!(c, a);
        assert!(c > b);
    }
}
