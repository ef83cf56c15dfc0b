//! Admission: the one rule by which tenant state enters an ecovisor.
//!
//! The paper's §3.3 multiplexing sums over *every* application's share,
//! so a tenant is isolated from its neighbours exactly as far as the
//! records let in are sound. There are three doors — a registration
//! ([`Ecovisor::register_app`]), a whole-ecovisor restore
//! ([`Ecovisor::apply_snapshot`]) and a migrated tenant
//! ([`Ecovisor::graft_app`]) — and all of them present [`AppSnapshot`]
//! records to [`Ecovisor::admit`] before touching any state. A check
//! added there holds on every door; each door renders a [`Refusal`] in
//! its own error type.

use container_cop::{AppId, ContainerId};
use simkit::units::WattHours;
use simkit::IdMap;

use crate::ecovisor::Ecovisor;
use crate::error::EcovisorError;
use crate::lock;
use crate::snapshot::{AppSnapshot, SnapshotError};

/// Why [`Ecovisor::admit`] refused a record.
#[derive(Debug)]
pub(crate) enum Refusal {
    /// The record's share fails [`EnergyShare::validate`](crate::EnergyShare::validate).
    Share(String),
    /// With the record in, the shares would exceed the physical system.
    Oversubscribed(String),
    /// The record is inconsistent in itself or with what arrives beside
    /// it (ids, a virtual battery its share does not imply, carbon caps
    /// on containers that are not its own). A registration builds its
    /// record, so this reaches it only when the id space is exhausted.
    Record(String),
}

impl From<Refusal> for EcovisorError {
    fn from(r: Refusal) -> Self {
        match r {
            Refusal::Share(msg) => EcovisorError::InvalidShare(msg),
            Refusal::Oversubscribed(msg) => EcovisorError::ShareExceeded(msg),
            Refusal::Record(msg) => EcovisorError::Protocol(msg),
        }
    }
}

impl From<Refusal> for SnapshotError {
    fn from(r: Refusal) -> Self {
        let (Refusal::Share(msg) | Refusal::Oversubscribed(msg) | Refusal::Record(msg)) = r;
        SnapshotError::Structure(msg)
    }
}

impl Ecovisor {
    /// Checks that `incoming` may be installed here: beside the tenants
    /// already registered when `beside_residents`, in their place
    /// otherwise. `carried` maps every container arriving with the
    /// records to its owner. Nothing is modified.
    ///
    /// Per record: a usable id (not 0, not the last one, ascending within
    /// `incoming`, not a resident's); a valid share; the virtual battery
    /// that share implies, charged within its capacity; carbon caps only
    /// on the record's own carried containers. Over all of them, in id
    /// order, residents first: solar fractions within the array and
    /// battery capacities within **this** ecovisor's bank. Returns those
    /// two sums. The residents' are [`Ecovisor::resident_shares`] when
    /// kept, folded here when not.
    pub(crate) fn admit<'a>(
        &mut self,
        incoming: impl IntoIterator<Item = &'a AppSnapshot>,
        beside_residents: bool,
        carried: &IdMap<ContainerId, AppId>,
    ) -> Result<(f64, WattHours), Refusal> {
        let kept = self.resident_shares.filter(|_| beside_residents);
        let (mut solar_total, mut battery_total) = kept.unwrap_or((0.0, WattHours::ZERO));
        let mut hold = |share: &crate::EnergyShare| {
            solar_total += share.solar_fraction;
            battery_total += share.battery_capacity;
        };
        if beside_residents && kept.is_none() {
            for shard in self.apps.values_mut() {
                hold(lock::get_mut(shard).rec.ves.share());
            }
        }
        let mut prev = None;
        for rec in incoming {
            let id = rec.app;
            if id.value() == 0 || id.value() == u32::MAX {
                return Err(Refusal::Record(format!("app id {id} is reserved")));
            }
            if prev.is_some_and(|p| id <= p) {
                return Err(Refusal::Record("app ids must be strictly ascending".into()));
            }
            if beside_residents && self.apps.contains_key(&id) {
                return Err(Refusal::Record(format!(
                    "app id {id} is already registered here"
                )));
            }
            prev = Some(id);

            let share = rec.ves.share();
            share.validate().map_err(Refusal::Share)?;
            let implied = match rec.ves.battery() {
                None => !share.has_battery(),
                Some(b) => {
                    share.has_battery()
                        && *b.spec() == share.virtual_battery_spec()
                        && (WattHours::ZERO..=share.battery_capacity).contains(&b.charge_level())
                }
            };
            if !implied {
                return Err(Refusal::Record(format!(
                    "app {id}'s virtual battery is not the one its share implies"
                )));
            }
            if let Some(c) = rec
                .carbon_capped
                .iter()
                .find(|c| carried.get(c) != Some(&id))
            {
                return Err(Refusal::Record(format!(
                    "app {id} carbon-caps container {c}, which does not arrive as its own"
                )));
            }
            hold(share);
        }
        if solar_total > 1.0 + 1e-9 {
            return Err(Refusal::Oversubscribed(format!(
                "solar fractions would sum to {solar_total:.3}"
            )));
        }
        if battery_total > self.physical_battery.spec().capacity {
            return Err(Refusal::Oversubscribed(format!(
                "battery capacity shares would sum to {battery_total}"
            )));
        }
        Ok((solar_total, battery_total))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EcovisorBuilder, EnergyShare};

    /// The residents' sums, folded afresh in id order.
    fn fresh_fold(eco: &mut Ecovisor) -> (u64, u64) {
        let (mut solar, mut battery) = (0.0, WattHours::ZERO);
        for shard in eco.apps.values_mut() {
            let share = lock::get_mut(shard).rec.ves.share();
            solar += share.solar_fraction;
            battery += share.battery_capacity;
        }
        (solar.to_bits(), battery.watt_hours().to_bits())
    }

    fn kept(eco: &Ecovisor) -> Option<(u64, u64)> {
        eco.resident_shares
            .map(|(solar, battery)| (solar.to_bits(), battery.watt_hours().to_bits()))
    }

    /// Kept sums are the fresh fold bit for bit, whatever registrations,
    /// evictions, grafts and restores came before.
    #[test]
    fn kept_resident_sums_are_the_id_order_fold() {
        let share = |i: u32| {
            EnergyShare::grid_only()
                .with_solar_fraction(0.013 + f64::from(i % 7) * 0.0011)
                .with_battery(WattHours::new(1.3 + f64::from(i % 5) * 0.7))
        };
        let mut eco = EcovisorBuilder::new().build();
        let mut twin = EcovisorBuilder::new().build();
        let mut ids = Vec::new();
        for i in 0..40 {
            ids.push(eco.register_app(format!("t{i}"), share(i)).unwrap());
            twin.register_app(format!("t{i}"), share(i)).unwrap();
            assert_eq!(kept(&eco), Some(fresh_fold(&mut eco)), "register {i}");
            if i % 9 == 8 {
                eco.remove_app(ids[i as usize / 2]).unwrap();
                assert_eq!(kept(&eco), None, "an eviction drops the sums");
            }
        }
        // A graft below the residents' ids, then registrations beside it.
        let low = ids[4];
        let snap = twin.extract_app(low).unwrap();
        eco.graft_app(&snap).unwrap();
        assert_eq!(kept(&eco), None, "a graft drops the sums");
        for i in 40..44 {
            eco.register_app(format!("t{i}"), share(i)).unwrap();
            assert_eq!(kept(&eco), Some(fresh_fold(&mut eco)), "register {i}");
        }
        // A restore of an older world, then a registration beside it.
        let old = twin.snapshot();
        eco.apply_snapshot(&old).unwrap();
        assert_eq!(kept(&eco), Some(fresh_fold(&mut eco)), "restore");
        eco.register_app("after", share(3)).unwrap();
        assert_eq!(kept(&eco), Some(fresh_fold(&mut eco)), "after restore");
        // A refused registration leaves the kept sums as they were.
        let before = kept(&eco);
        let hog = EnergyShare::grid_only().with_solar_fraction(0.9);
        assert!(eco.register_app("hog", hog).is_err());
        assert_eq!(kept(&eco), before);
    }
}
