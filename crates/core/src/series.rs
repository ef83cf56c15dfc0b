//! Telemetry kept by its owner, in fixed slots.
//!
//! This is the paper's InfluxDB stand-in (§4): the store Table 2's
//! interval calls (`get_container_energy(t1,t2)` and the rest) query.
//! Settlement writes each tenant's series into that tenant's shard
//! ([`TenantSeries`], in `AppState`) and the three `SYSTEM` series into
//! three slots of the ecovisor, so dispatch reads a tenant's telemetry
//! under the shard lock it already holds. A series' [`Metric`] is its
//! place among its owner's slots ([`APP_SERIES`], [`CONTAINER_SERIES`],
//! [`SYSTEM_SERIES`]) and its [`Subject`] is its owner, so a snapshot and
//! a tenant capture write the slots as they are held, with no name, and
//! [`Ecovisor::for_each_series`](crate::Ecovisor::for_each_series) shows
//! them where they are.

use container_cop::{AppId, ContainerId};
use simkit::series::TimeSeries;
use simkit::time::SimTime;
use simkit::IdMap;

use crate::snapshot::SnapshotError;

/// What a telemetry series measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Metric {
    /// A container's attributed power, watts.
    ContainerPower,
    /// Power served to a tenant, or (of [`Subject::System`]) drawn by the
    /// whole cluster, watts.
    AppPower,
    /// Physical solar power, watts.
    SolarPower,
    /// A tenant's virtual battery discharge, watts.
    BatteryDischarge,
    /// A tenant's virtual battery charge, watts.
    BatteryCharge,
    /// A tenant's virtual battery state of charge, a fraction.
    BatterySoc,
    /// Grid carbon intensity, g·CO2/kWh.
    GridCarbonIntensity,
    /// A tenant's or a container's carbon emission rate, g·CO2/s.
    CarbonRate,
    /// A tenant's running container count.
    ContainerCount,
}

/// Whom a telemetry series is about: the substrate, a tenant or one of
/// a tenant's containers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Subject {
    /// The physical system, shared by every tenant.
    System,
    /// A tenant.
    App(AppId),
    /// A container (stopped ones included).
    Container(ContainerId),
}

/// The series settlement writes for each tenant under its app subject, in
/// the order [`TenantSeries::record`] takes their values.
const APP_SERIES: [Metric; 6] = [
    Metric::AppPower,
    Metric::BatteryDischarge,
    Metric::BatteryCharge,
    Metric::BatterySoc,
    Metric::CarbonRate,
    Metric::ContainerCount,
];

/// The series settlement writes for each live container, in the order
/// [`TenantSeries::record`] takes their values.
const CONTAINER_SERIES: [Metric; 2] = [Metric::ContainerPower, Metric::CarbonRate];

/// The series settlement writes under [`Subject::System`], in the order
/// [`record`] takes their values there.
const SYSTEM_SERIES: [Metric; 3] = [
    Metric::GridCarbonIntensity,
    Metric::SolarPower,
    Metric::AppPower,
];

/// A series that exists or does not: one is made by the first sample
/// settlement appends, so a tenant registered this tick has none yet.
pub(crate) type Slot = Option<TimeSeries>;

/// The three `SYSTEM` series, by place in [`SYSTEM_SERIES`].
pub(crate) type SystemSeries = [Slot; 3];

/// One tenant's telemetry: its own series and its containers' (stopped
/// ones included, for accounting queries keep answering). Each method
/// takes the tenant's own subject as `None` and container `id`'s as
/// `Some(id)`. Written at rest as held.
#[derive(Debug, Clone, Default, serde::Serialize, serde::Deserialize)]
pub(crate) struct TenantSeries {
    /// By place in [`APP_SERIES`].
    app: [Slot; 6],
    /// Ascending by container id, each by place in [`CONTAINER_SERIES`]:
    /// a tenant has a few, so ids and slots share one exactly sized
    /// allocation, which settlement finds with one search.
    containers: Vec<(ContainerId, [Slot; 2])>,
}

impl TenantSeries {
    /// Appends one settled tick's values, in the order of [`APP_SERIES`]
    /// or [`CONTAINER_SERIES`], at `at`.
    pub(crate) fn record(&mut self, of: Option<ContainerId>, at: SimTime, values: &[f64]) {
        record(self.slots_mut(of), at, values);
    }

    /// Step-integral of `metric` over `[from, to)`: 0 when there is no
    /// such series.
    pub(crate) fn integrate(
        &self,
        metric: Metric,
        of: Option<ContainerId>,
        from: SimTime,
        to: SimTime,
    ) -> f64 {
        let (slots, metrics): (&[Slot], &[Metric]) = match of.map(|id| self.find(id)) {
            None => (&self.app, &APP_SERIES),
            Some(Ok(at)) => (&self.containers[at].1, &CONTAINER_SERIES),
            Some(Err(_)) => (&[], &[]),
        };
        let place = metrics.iter().position(|&m| m == metric);
        let series = place.and_then(|at| slots[at].as_ref());
        series.map_or(0.0, |series| series.integrate_step(from, to))
    }

    /// Visits every series of tenant `app`: its own in [`APP_SERIES`]
    /// order, then each container's, ascending by id.
    pub(crate) fn visit(&self, app: AppId, visit: &mut Visitor<'_>) {
        visit_slots(&self.app, &APP_SERIES, Subject::App(app), visit);
        for &(id, ref slots) in &self.containers {
            visit_slots(slots, &CONTAINER_SERIES, Subject::Container(id), visit);
        }
    }

    /// Checks the series a transfer carries for tenant `app`: each
    /// container slot's id one that `carried` names as `app`'s, the slots
    /// ascending by id with none repeated, and no sample later than `now`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Structure`] naming the first slot that fails.
    pub(crate) fn check(
        &self,
        app: AppId,
        carried: &IdMap<ContainerId, AppId>,
        now: SimTime,
    ) -> Result<(), SnapshotError> {
        check_stamps(&self.app, now, &app)?;
        let mut prev = None;
        for &(id, ref slots) in &self.containers {
            if carried.get(&id) != Some(&app) {
                return Err(SnapshotError::Structure(format!(
                    "app {app} carries series of container {id}, which does not arrive \
                     as its own"
                )));
            }
            if let Some(prev) = prev.filter(|&prev| id <= prev) {
                return Err(SnapshotError::Structure(format!(
                    "app {app}'s container series must be strictly ascending by id \
                     (saw {id} after {prev})"
                )));
            }
            prev = Some(id);
            check_stamps(slots, now, &id)?;
        }
        Ok(())
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

/// Appends `values` to `slots`, one each in order, at `at`.
pub(crate) fn record(slots: &mut [Slot], at: SimTime, values: &[f64]) {
    for (slot, &value) in slots.iter_mut().zip(values) {
        slot.get_or_insert_with(TimeSeries::new).push(at, value);
    }
}

/// What [`Ecovisor::for_each_series`](crate::Ecovisor::for_each_series)
/// hands each series to.
pub(crate) type Visitor<'a> = dyn FnMut(Subject, Metric, &TimeSeries) + 'a;

/// Visits the `SYSTEM` series, in [`SYSTEM_SERIES`] order.
pub(crate) fn visit_system(slots: &SystemSeries, visit: &mut Visitor<'_>) {
    visit_slots(slots, &SYSTEM_SERIES, Subject::System, visit);
}

/// Visits each held slot as its metric of `subject`.
fn visit_slots(slots: &[Slot], metrics: &[Metric], subject: Subject, visit: &mut Visitor<'_>) {
    for (&metric, series) in metrics.iter().zip(slots) {
        if let Some(series) = series {
            visit(subject, metric, series);
        }
    }
}

/// Refuses slots of `owner` holding a sample later than `now`, the
/// instant of the clock they would be installed under: the next
/// settlement appends at that instant and a series only grows forwards
/// (an equal stamp overwrites, which [`TimeSeries::push`] allows).
///
/// # Errors
///
/// [`SnapshotError::Structure`] naming the owner.
pub(crate) fn check_stamps(
    slots: &[Slot],
    now: SimTime,
    owner: &dyn std::fmt::Display,
) -> Result<(), SnapshotError> {
    let late = |series: &TimeSeries| series.last().is_some_and(|s| s.at > now);
    if slots.iter().flatten().any(late) {
        return Err(SnapshotError::Structure(format!(
            "a series of {owner} holds a sample later than the clock, at {now}"
        )));
    }
    Ok(())
}
