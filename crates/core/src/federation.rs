//! Federation: per-tenant state transfer and the cross-node settlement
//! views that let N ecovisor processes share one energy substrate.
//!
//! PR 6's [`Snapshot`](crate::snapshot::Snapshot) moves a *whole*
//! ecovisor; this module moves **one tenant**. A [`TenantSnapshot`]
//! carries everything that belongs to a single application — its shard
//! ([`AppSnapshot`]), its containers (stopped history included), and its
//! telemetry series — through the same header check and the same
//! admission rule the whole-ecovisor path uses. Three primitives
//! compose into live migration:
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
//! Settlement arithmetic is sequential across apps (throttle-scale sums,
//! the redistribution loop), so "collect scalar demands, broadcast
//! scale factors" would *not* reproduce a single-process run
//! bit-identically. Instead every node holds a full replica of the
//! shared substrate and applies the **global** settlement each tick.
//! The tick is [`Ecovisor::tick`] cut in two:
//! [`fed_collect`](crate::shard::ShardedEcovisor::fed_collect) captures
//! one [`FedAppView`] per local tenant (its virtual energy system and
//! post-cap container power); the coordinator merges all nodes' views
//! into one app-id-ordered list and hands it back to
//! [`fed_settle`](crate::shard::ShardedEcovisor::fed_settle), which
//! settles local tenants against live state and remote tenants against
//! discarded shadow copies, then advances the clock. Identical inputs in identical order make every
//! replica's substrate — and every app's flows — bit-identical to the
//! single-process run. The choreography, its contract (no dispatch
//! between collect and settle), and the failure semantics are documented
//! in `docs/FEDERATION.md`.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::RwLock;

use container_cop::{AppId, Container};
use power_telemetry::Tsdb;
use simkit::units::Watts;

use crate::ecovisor::{AppState, Ecovisor};
use crate::error::{EcovisorError, Result};
use crate::lock;
use crate::proto::PROTOCOL_VERSION;
use crate::replay::digest;
use crate::snapshot::{
    telemetry_within, AppSnapshot, SnapshotError, TransferHeader, SNAPSHOT_FORMAT,
};
use crate::ves::VirtualEnergySystem;

/// One application's contribution to a federated settlement tick: the
/// state a *remote* node needs to run the global settlement arithmetic
/// with this app in it.
///
/// The virtual energy system travels whole (its flows depend on mutable
/// per-tick state: buffered solar, battery level, clamp edges), plus the
/// post-cap container power the owning node measured after carbon-rate
/// enforcement. Receivers treat the embedded VES as a **shadow**: they
/// mutate a copy through the tick's arithmetic and discard it — the
/// owning node's live state is authoritative.
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
/// record is admitted by the rule registration and restore use.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct TenantSnapshot {
    /// Snapshot layout version (shares [`SNAPSHOT_FORMAT`] — the
    /// per-app layout is a sub-structure of the whole-ecovisor one).
    pub format: u32,
    /// Protocol version of the writing process.
    pub protocol_version: u16,
    /// Number of fully settled ticks at capture time.
    pub tick: u64,
    /// Fingerprint of the writer's static environment; grafting refuses
    /// a snapshot whose fingerprint differs from the receiver's.
    pub env_digest: u64,
    /// The tenant's shard, including undelivered outbox events (carried
    /// verbatim so each is still delivered exactly once — by whichever
    /// process owns the tenant when they drain).
    pub app: AppSnapshot,
    /// Every container the tenant ever launched, stopped history
    /// included (accounting queries keep answering after a move).
    pub containers: Vec<Container>,
    /// The tenant's telemetry: its app-subject series and its
    /// containers' series.
    pub tsdb: Tsdb,
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

    /// The telemetry subjects this tenant owns: its app subject plus one
    /// per container it ever launched.
    pub fn subjects(&self) -> BTreeSet<String> {
        subjects_of(self.app.app, &self.containers)
    }
}

/// The telemetry subjects of `app` and the containers it ever launched.
fn subjects_of(app: AppId, containers: &[Container]) -> BTreeSet<String> {
    let mut subjects: BTreeSet<String> = containers.iter().map(|c| c.id().to_string()).collect();
    subjects.insert(app.to_string());
    subjects
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
        let rec = lock::get_mut(shard).rec.clone();
        let containers: Vec<Container> = lock::get_mut(&mut self.cop)
            .owned_by(app)
            .cloned()
            .collect();
        let tsdb = lock::get_mut(&mut self.tsdb).extract_subjects(&subjects_of(app, &containers));
        Ok(TenantSnapshot {
            format: SNAPSHOT_FORMAT,
            protocol_version: PROTOCOL_VERSION,
            tick: self.clock.tick_index(),
            env_digest,
            app: rec,
            containers,
            tsdb,
        })
    }

    /// Grafts a tenant captured elsewhere into this ecovisor: inserts
    /// its shard, adopts its containers (preserving ids, placement, and
    /// caps), and merges its telemetry. All-or-nothing — every check
    /// below runs before any state is touched, so a rejected graft
    /// leaves this process exactly as it was.
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
    /// carried), a container of another owner or one that collides, or
    /// telemetry of another subject or stamped after this clock.
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
        let id = snap.app.app;
        if let Some(c) = snap.containers.iter().find(|c| c.owner() != id) {
            return Err(SnapshotError::Structure(format!(
                "container {} belongs to app {}, not the migrating app {id}",
                c.id(),
                c.owner()
            )));
        }
        let carried: BTreeMap<_, _> = snap.containers.iter().map(|c| (c.id(), id)).collect();
        self.admit(std::slice::from_ref(&snap.app), true, &carried)?;
        let subjects = snap.subjects();
        if let Some(alien) = snap
            .tsdb
            .all_subjects()
            .iter()
            .find(|s| !subjects.contains(*s))
        {
            return Err(SnapshotError::Structure(format!(
                "telemetry subject {alien} does not belong to the migrating tenant"
            )));
        }
        telemetry_within(&snap.tsdb, now)?;

        // Adoption validates ids, placement, and capacity before
        // inserting anything; run it first since it is the remaining
        // fallible step (the telemetry merge cannot collide once the
        // container ids and the app id are known fresh).
        lock::get_mut(&mut self.cop)
            .adopt_containers(&snap.containers)
            .map_err(SnapshotError::Structure)?;
        lock::get_mut(&mut self.tsdb)
            .merge_from(snap.tsdb.clone())
            .map_err(SnapshotError::Structure)?;
        self.apps
            .insert(id, RwLock::new(AppState::install(snap.app.clone())));
        self.next_app = self.next_app.max(id.value() + 1);
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
        let removed = lock::get_mut(&mut self.cop).remove_app_containers(app);
        lock::get_mut(&mut self.tsdb).remove_subjects(&subjects_of(app, &removed));
        // Removal renumbers the series that stay: every tenant's handles
        // are dead, and the next recording resolves them again by name.
        for shard in self.apps.values_mut() {
            lock::get_mut(shard).series = None;
        }
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
        assert_eq!(snap.app.app, a);
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
        assert!(dest.tsdb().latest("app_power_w", &a.to_string()).is_some());
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

        // Wrong format.
        let mut bad = snap.clone();
        bad.format += 1;
        assert!(matches!(
            eco.graft_app(&bad),
            Err(SnapshotError::Format { .. })
        ));
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

    /// A tenant holding a battery share and a container, captured after
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
            let c = api.launch_container(ContainerSpec::quad_core()).unwrap();
            api.set_container_demand(c, 1.0).unwrap();
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
        let mut cases = hostile::record_edits("app");
        let (good, dest) = migrating_tenant();
        let after_the_clock = dest.now().as_secs() as i64 + 1;
        cases.push((
            "a sample stamped after the clock",
            vec![(
                "tsdb.series.0.1.samples.last.at".into(),
                serde::Value::Int(after_the_clock),
            )],
        ));
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
        let pending: Vec<Notification> = snap.app.pending_events.clone();
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
        let flows = whole.settle_with_views(&views).expect("all local");
        assert_eq!(node.settle_with_views(&views).expect("two local"), flows);
        for local in [ids[1], ids[3]] {
            assert_eq!(
                node.app_flows(local).unwrap(),
                whole.app_flows(local).unwrap()
            );
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
