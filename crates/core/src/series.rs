//! Telemetry kept by its owner.
//!
//! Settlement writes each tenant's series into that tenant's shard
//! ([`TenantSeries`], in `AppState`) and the three `SYSTEM` series into
//! one plain store, so dispatch reads a tenant's telemetry under the
//! shard lock it already holds. A snapshot, a tenant capture and
//! [`Ecovisor::telemetry`](crate::Ecovisor::telemetry) name the series
//! into one [`Tsdb`], whose at-rest form writes them in `(metric,
//! subject)` string order whoever held them; a restore or a graft
//! [`route`]s a decoded store's series back to their owners.

use container_cop::{AppId, ContainerId};
use power_telemetry::{metrics, Tsdb};
use simkit::series::TimeSeries;
use simkit::time::SimTime;
use simkit::IdMap;

use crate::ecovisor::Shard;
use crate::lock;
use crate::snapshot::SnapshotError;

/// The series settlement writes for each tenant under its app subject, in
/// the order [`TenantSeries::record`] takes their values.
const APP_SERIES: [&str; 6] = [
    metrics::APP_POWER,
    metrics::BATTERY_DISCHARGE,
    metrics::BATTERY_CHARGE,
    metrics::BATTERY_SOC,
    metrics::CARBON_RATE,
    metrics::CONTAINER_COUNT,
];

/// The series settlement writes for each live container, in the order
/// [`TenantSeries::record`] takes their values.
const CONTAINER_SERIES: [&str; 2] = [metrics::CONTAINER_POWER, metrics::CARBON_RATE];

/// A series that exists or does not: a restore may carry some of a
/// tenant's series and not others, and an empty series is still written
/// at rest, so "absent" is not "empty".
type Slot = Option<TimeSeries>;

/// One tenant's telemetry: its own series, its containers' (stopped ones
/// included, for accounting queries keep answering) and any other series
/// a snapshot carried under its subjects. Each method takes the tenant's
/// own subject as `None` and container `id`'s as `Some(id)`.
#[derive(Default)]
pub(crate) struct TenantSeries {
    /// By place in [`APP_SERIES`].
    app: [Slot; 6],
    /// Ascending by container id, each by place in [`CONTAINER_SERIES`]:
    /// a tenant has a few, so ids and slots share one exactly sized
    /// allocation, which settlement finds with one search.
    containers: Vec<(ContainerId, [Slot; 2])>,
    /// Series of metrics settlement no longer writes (a format-1
    /// snapshot's retired ones), which restore inert. Boxed, so that a
    /// tenant without any holds one word.
    other: Option<Box<Tsdb>>,
}

impl TenantSeries {
    /// Appends one settled tick's values, in the order of [`APP_SERIES`]
    /// or [`CONTAINER_SERIES`], at `at`.
    pub(crate) fn record(&mut self, of: Option<ContainerId>, at: SimTime, values: &[f64]) {
        for (slot, &value) in self.slots_mut(of).iter_mut().zip(values) {
            slot.get_or_insert_with(TimeSeries::new).push(at, value);
        }
    }

    /// Step-integral of `metric` over `[from, to)`: 0 when there is no
    /// such series, as for a name a store does not hold.
    pub(crate) fn integrate(
        &self,
        metric: &str,
        of: Option<ContainerId>,
        from: SimTime,
        to: SimTime,
    ) -> f64 {
        let slots: &[Slot] = match of.map(|id| self.find(id)) {
            None => &self.app,
            Some(Ok(at)) => &self.containers[at].1,
            Some(Err(_)) => &[],
        };
        let series = place(of, metric).and_then(|at| slots.get(at)?.as_ref());
        series.map_or(0.0, |series| series.integrate_step(from, to))
    }

    /// Names every series of tenant `app` into `out`.
    pub(crate) fn name_into(&self, app: AppId, out: &mut Tsdb) {
        let own = std::iter::once((None, &self.app[..]));
        let containers = self.containers.iter().map(|(id, s)| (Some(*id), &s[..]));
        for (of, slots) in own.chain(containers) {
            let subject = of.map_or_else(|| app.to_string(), |id| id.to_string());
            for (metric, series) in metrics_of(of).iter().zip(slots) {
                if let Some(series) = series {
                    out.insert(metric, &subject, series.clone());
                }
            }
        }
        for (metric, subject, series) in self.other.iter().flat_map(|other| other.iter()) {
            out.insert(metric, subject, series.clone());
        }
    }

    /// Takes `series` as `(metric, subject)`.
    fn put(&mut self, metric: &str, subject: &str, of: Option<ContainerId>, series: TimeSeries) {
        match place(of, metric) {
            Some(at) => self.slots_mut(of)[at] = Some(series),
            None => self
                .other
                .get_or_insert_with(Default::default)
                .insert(metric, subject, series),
        }
    }

    fn find(&self, id: ContainerId) -> Result<usize, usize> {
        self.containers.binary_search_by_key(&id, |&(id, _)| id)
    }

    /// The slots of the subject, a container's made on first use.
    fn slots_mut(&mut self, of: Option<ContainerId>) -> &mut [Slot] {
        let Some(id) = of else {
            return &mut self.app;
        };
        let at = self.find(id).unwrap_or_else(|at| {
            self.containers.reserve_exact(1);
            self.containers.insert(at, (id, Default::default()));
            at
        });
        &mut self.containers[at].1
    }
}

/// The metrics settlement writes for the subject, in slot order.
fn metrics_of(of: Option<ContainerId>) -> &'static [&'static str] {
    if of.is_some() {
        &CONTAINER_SERIES
    } else {
        &APP_SERIES
    }
}

/// `metric`'s slot among them.
fn place(of: Option<ContainerId>, metric: &str) -> Option<usize> {
    metrics_of(of).iter().position(|&m| m == metric)
}

/// Where one subject's series go.
enum Owner<'a> {
    System,
    Tenant(&'a mut TenantSeries, Option<ContainerId>),
}

/// The tenant a subject names — `app<N>` itself, `c<N>` by `carried` —
/// and the container, written exactly as the ids write themselves, so
/// each series has one owner and one name.
fn owner_of(
    subject: &str,
    carried: &IdMap<ContainerId, AppId>,
) -> (Option<AppId>, Option<ContainerId>) {
    if let Some(digits) = subject.strip_prefix("app") {
        let app = decimal(digits).and_then(|n| u32::try_from(n).ok());
        return (app.map(AppId::new), None);
    }
    let id = subject
        .strip_prefix('c')
        .and_then(decimal)
        .map(ContainerId::new);
    (id.and_then(|id| carried.get(&id).copied()), id)
}

/// A decimal numeral without sign or leading zeros.
fn decimal(digits: &str) -> Option<u64> {
    let canonical =
        digits.bytes().all(|b| b.is_ascii_digit()) && (digits == "0" || !digits.starts_with('0'));
    digits.parse().ok().filter(|_| canonical)
}

/// Sends each series of `store` to its owner: `system` into `system` (a
/// tenant capture has none, and carries no `system` series), `app<N>` to
/// tenant N of `tenants` and `c<N>` to the tenant `carried` names as
/// container N's owner. The store yields its series subject by subject,
/// so each subject is read and its owner found once.
///
/// # Errors
///
/// [`SnapshotError::Structure`] for a subject that names anything else —
/// which would plant history for a tenant or container allocated later —
/// and for a series holding a sample later than `now`, the instant of the
/// clock it would be installed under: the next settlement appends at that
/// instant and a series only grows forwards (an equal stamp overwrites,
/// which [`TimeSeries::push`] allows). What was routed before an error is
/// the caller's to drop.
pub(crate) fn route(
    store: &Tsdb,
    now: SimTime,
    mut system: Option<&mut Tsdb>,
    tenants: &mut IdMap<AppId, Shard>,
    carried: &IdMap<ContainerId, AppId>,
) -> Result<(), SnapshotError> {
    // The latest subject, and where its series go.
    let mut latest: Option<(&str, Owner)> = None;
    for (metric, subject, series) in store.iter() {
        if series.last().is_some_and(|s| s.at > now) {
            return Err(SnapshotError::Structure(format!(
                "series ({metric}, {subject}) holds a sample later than the clock, at {now}"
            )));
        }
        if latest.as_ref().is_none_or(|&(named, _)| named != subject) {
            let (app, container) = owner_of(subject, carried);
            let owner = match app.and_then(|app| tenants.get_mut(&app)) {
                Some(shard) => Some(Owner::Tenant(&mut lock::get_mut(shard).series, container)),
                None => (subject == metrics::SYSTEM && system.is_some()).then_some(Owner::System),
            };
            let Some(owner) = owner else {
                return Err(SnapshotError::Structure(format!(
                    "series ({metric}, {subject}) belongs to no tenant or container \
                     the transfer carries"
                )));
            };
            latest = Some((subject, owner));
        }
        match latest.as_mut().map(|(_, owner)| owner) {
            Some(Owner::Tenant(tenant, container)) => {
                tenant.put(metric, subject, *container, series.clone());
            }
            _ => system
                .as_deref_mut()
                .expect("an owner for the system only with a store for it")
                .insert(metric, subject, series.clone()),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_subject_names_an_id_only_as_the_id_writes_it() {
        let carried: IdMap<_, _> = [(ContainerId::new(0), AppId::new(7))].into_iter().collect();
        let owner = |subject: &str| match owner_of(subject, &carried) {
            (Some(app), None) => app.to_string(),
            (Some(app), Some(id)) => format!("{id} of {app}"),
            (None, Some(id)) => format!("{id} of none"),
            (None, None) => "none".to_string(),
        };
        for (subject, named) in [
            ("app1", "app1"),
            ("app4294967295", "app4294967295"),
            ("c0", "c0 of app7"),
            ("c18446744073709551615", "c18446744073709551615 of none"),
        ] {
            assert_eq!(owner(subject), named);
        }
        for refused in [
            "",
            "app",
            "app0x1",
            "app01",
            "app+1",
            "app4294967296",
            "c",
            "c00",
            "c-1",
            "C1",
            "system",
        ] {
            assert_eq!(owner(refused), "none", "{refused}");
        }
    }
}
