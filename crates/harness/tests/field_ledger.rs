//! What a restore trusts: a ledger of every field a checkpoint or a
//! tenant transfer writes, each with its class.
//!
//! A snapshot's bytes come from outside the process, so each field it
//! writes is one of:
//!
//! * **primary** — installed as read; the row names the check that
//!   bounds it wherever a bad value could panic or wrap, or why nothing
//!   can;
//! * **derived** — recomputed at restore and compared; the row names
//!   where;
//! * **environment** — held to the receiver's own static configuration;
//! * **informational** — written and ignored. Format 2 writes none: such
//!   a field is dropped, not kept beside what restore derives.
//!
//! Every corpus checkpoint, one tenant capture out of each, and a
//! hand-built world that makes every `Option` and list non-empty
//! somewhere are walked to the paths of their leaves (sequence indices
//! collapsed to `*`; a capture's `record` is the checkpoint's
//! `tenants.*`, the same record). Each path must have exactly one row,
//! and each row must be seen: a new field needs a row, and a row outlives
//! its field by no more than one run.

use std::collections::BTreeSet;
use std::path::PathBuf;

use container_cop::ContainerSpec;
use ecoharness::artifact::artifacts_in_dir;
use ecoharness::{build_ecovisor, ScenarioArtifact};
use ecovisor::{Ecovisor, EcovisorBuilder, EnergyClient, EnergyShare, NotifyConfig};
use serde::{Serialize, Value};
use simkit::time::SimDuration;
use simkit::trace::Trace;
use simkit::units::{CarbonRate, Co2Grams, WattHours, Watts};

/// How restore treats a field.
#[derive(Debug, Clone, Copy)]
enum Class {
    /// Installed as read, bounded by the named check.
    Primary(&'static str),
    /// Recomputed at restore and compared, where named.
    Derived(&'static str),
    /// Held to the receiver's own, where named.
    Environment(&'static str),
    /// Written and ignored. Kept so the test can say format 2 has none.
    #[allow(dead_code)]
    Informational,
}

impl Class {
    /// What the row says restore does with the field.
    fn why(self) -> &'static str {
        match self {
            Primary(why) | Derived(why) | Environment(why) => why,
            Class::Informational => "ignored",
        }
    }
}

use Class::{Derived, Environment, Primary};

const METER: Class = Primary("a meter: summed and reported, a float cannot wrap");
const FLOW: Class = Primary("the last settlement's flows: reported, recomputed next tick");
const SETTING: Class = Primary("a tenant's or operator's setting: a float, only compared");
const EDGE: Class = Primary("edge state: one event per crossing");
const EVENT: Class = Primary("delivered verbatim, once");
const STAMP: Class = Primary("check_stamps: not after the clock it would run under");
const SAMPLE: Class = Primary("a float: integrated and reported");
const SHARE: Class = Primary("admit: EnergyShare::validate, and the sums within this system");
const VIRTUAL_SPEC: Class = Derived("admit: the virtual battery its share implies");
const BANK: Class = Environment("apply_snapshot: this process's physical battery spec");
const TERMS: Class = Environment("apply_snapshot: this process's grid terms");
const FITS: Class = Primary("adopt_containers: live ones fit their server, summed in u64");
const CAP: Class = Primary("a cap: the quota it gives is compared (cpu_quota)");

/// Every leaf a format-2 transfer writes.
const LEDGER: &[(&str, Class)] = &[
    ("format", Environment("check_header: SNAPSHOT_FORMAT")),
    (
        "protocol_version",
        Environment("check_header: PROTOCOL_VERSION"),
    ),
    (
        "env_digest",
        Environment("check_header: this process's fingerprint"),
    ),
    (
        "tick",
        Derived("check_header: the tick of the clock it would run under"),
    ),
    (
        "clock.interval",
        Environment("check_header: this process's tick interval"),
    ),
    (
        "clock.tick",
        Primary("check_header: tick × interval within simulated time"),
    ),
    ("system.last_system_flows.physical_solar", FLOW),
    ("system.last_system_flows.grid_import", FLOW),
    ("system.last_system_flows.battery_charge", FLOW),
    ("system.last_system_flows.battery_discharge", FLOW),
    ("system.last_system_flows.redistributed", FLOW),
    ("system.last_system_flows.exported", FLOW),
    ("system.last_system_flows.curtailed", FLOW),
    ("system.physical_battery.spec.capacity", BANK),
    ("system.physical_battery.spec.min_soc_fraction", BANK),
    ("system.physical_battery.spec.max_charge_rate", BANK),
    ("system.physical_battery.spec.max_discharge_rate", BANK),
    ("system.physical_battery.spec.charge_efficiency", BANK),
    (
        "system.physical_battery.soc",
        Primary("apply_snapshot: within 0..=capacity"),
    ),
    ("system.physical_battery.charged_total", METER),
    ("system.physical_battery.discharged_total", METER),
    ("system.grid.capacity", TERMS),
    ("system.grid.net_metering", TERMS),
    ("system.grid.imported", METER),
    ("system.grid.exported", METER),
    ("system.grid.peak_import", METER),
    ("system.psu.limit", SETTING),
    ("system.psu.total_energy", METER),
    ("system.psu.peak", METER),
    ("system.psu.violations.*.at", METER),
    ("system.psu.violations.*.drawn", METER),
    ("system.psu.violations.*.limit", METER),
    (
        "system.psu.samples",
        Derived("apply_snapshot: one draw per settled tick"),
    ),
    ("system.series.*.samples.*.at", STAMP),
    ("system.series.*.samples.*.value", SAMPLE),
    (
        "system.next_app",
        Primary("apply_snapshot: above every app id and 0"),
    ),
    (
        "system.next_container",
        Primary("apply_snapshot: above every carried container id"),
    ),
    (
        "tenants.*.app.app",
        Primary("admit: not 0 or u32::MAX, ascending, not a resident's"),
    ),
    ("tenants.*.app.name", Primary("a label: only reported")),
    ("tenants.*.app.ves.share.solar_fraction", SHARE),
    ("tenants.*.app.ves.share.battery_capacity", SHARE),
    ("tenants.*.app.ves.share.battery_initial_soc", SHARE),
    ("tenants.*.app.ves.share.grid_power_cap", SHARE),
    (
        "tenants.*.app.ves.battery",
        Primary("admit: present exactly when the share implies one"),
    ),
    ("tenants.*.app.ves.battery.spec.capacity", VIRTUAL_SPEC),
    (
        "tenants.*.app.ves.battery.spec.min_soc_fraction",
        VIRTUAL_SPEC,
    ),
    (
        "tenants.*.app.ves.battery.spec.max_charge_rate",
        VIRTUAL_SPEC,
    ),
    (
        "tenants.*.app.ves.battery.spec.max_discharge_rate",
        VIRTUAL_SPEC,
    ),
    (
        "tenants.*.app.ves.battery.spec.charge_efficiency",
        VIRTUAL_SPEC,
    ),
    (
        "tenants.*.app.ves.battery.soc",
        Primary("admit: within 0..=capacity"),
    ),
    ("tenants.*.app.ves.battery.charged_total", METER),
    ("tenants.*.app.ves.battery.discharged_total", METER),
    ("tenants.*.app.ves.charge_rate", SETTING),
    ("tenants.*.app.ves.max_discharge", SETTING),
    (
        "tenants.*.app.ves.solar_buffer",
        Primary("buffered solar: settled next tick, a float"),
    ),
    ("tenants.*.app.ves.grid_clamped", EDGE),
    ("tenants.*.app.ves.was_full", EDGE),
    ("tenants.*.app.ves.was_empty", EDGE),
    ("tenants.*.app.ves.last_flows.demand", FLOW),
    ("tenants.*.app.ves.last_flows.solar_available", FLOW),
    ("tenants.*.app.ves.last_flows.solar_to_load", FLOW),
    ("tenants.*.app.ves.last_flows.solar_to_battery", FLOW),
    ("tenants.*.app.ves.last_flows.solar_surplus", FLOW),
    ("tenants.*.app.ves.last_flows.redistributed_in", FLOW),
    ("tenants.*.app.ves.last_flows.battery_to_load", FLOW),
    ("tenants.*.app.ves.last_flows.grid_to_load", FLOW),
    ("tenants.*.app.ves.last_flows.grid_to_battery", FLOW),
    ("tenants.*.app.ves.last_flows.unmet_demand", FLOW),
    ("tenants.*.app.ves.last_flows.carbon_rate", FLOW),
    ("tenants.*.app.ves.last_flows.carbon", FLOW),
    ("tenants.*.app.ves.totals.energy", METER),
    ("tenants.*.app.ves.totals.solar_energy", METER),
    ("tenants.*.app.ves.totals.grid_energy", METER),
    ("tenants.*.app.ves.totals.surplus_energy", METER),
    ("tenants.*.app.ves.totals.carbon", METER),
    ("tenants.*.app.notify.solar_change_fraction", SETTING),
    ("tenants.*.app.notify.solar_change_floor", SETTING),
    ("tenants.*.app.notify.carbon_change_fraction", SETTING),
    (
        "tenants.*.app.outbox.cap",
        Primary("a bound the outbox compares its length with"),
    ),
    ("tenants.*.app.pending_events.*", EVENT),
    ("tenants.*.app.pending_events.*.SolarChange.previous", EVENT),
    ("tenants.*.app.pending_events.*.SolarChange.current", EVENT),
    (
        "tenants.*.app.pending_events.*.CarbonChange.previous",
        EVENT,
    ),
    ("tenants.*.app.pending_events.*.CarbonChange.current", EVENT),
    (
        "tenants.*.app.pending_events.*.BudgetExhausted.budget",
        EVENT,
    ),
    (
        "tenants.*.app.pending_events.*.BudgetExhausted.carbon",
        EVENT,
    ),
    ("tenants.*.app.carbon_rate_limit", SETTING),
    ("tenants.*.app.carbon_budget", SETTING),
    (
        "tenants.*.app.carbon_capped.*",
        Primary("admit: each a carried container of the tenant"),
    ),
    ("tenants.*.app.budget_exhausted", EDGE),
    (
        "tenants.*.containers.*.id",
        Primary("install: none twice, below next_container, not a resident's"),
    ),
    (
        "tenants.*.containers.*.owner",
        Primary("install: the record's tenant"),
    ),
    ("tenants.*.containers.*.spec.cores", FITS),
    ("tenants.*.containers.*.spec.memory_mib", FITS),
    (
        "tenants.*.containers.*.spec.gpu",
        Primary("adopt_containers: only on a GPU server"),
    ),
    (
        "tenants.*.containers.*.server",
        Primary("adopt_containers: a server of this cluster"),
    ),
    (
        "tenants.*.containers.*.state",
        Primary("adopt_containers: a live one reserves its server"),
    ),
    (
        "tenants.*.containers.*.demand",
        Primary("adopt_containers: within [0, 1]"),
    ),
    (
        "tenants.*.containers.*.cpu_quota",
        Derived("adopt_containers: the quota its caps give"),
    ),
    ("tenants.*.containers.*.power_cap", CAP),
    ("tenants.*.containers.*.carbon_cap", CAP),
    (
        "tenants.*.series.app.*",
        Primary("an absent slot: no series yet"),
    ),
    ("tenants.*.series.app.*.samples.*.at", STAMP),
    ("tenants.*.series.app.*.samples.*.value", SAMPLE),
    (
        "tenants.*.series.containers.*.*",
        Primary("TenantSeries::check: a carried container of the tenant, ascending, once"),
    ),
    ("tenants.*.series.containers.*.*.*.samples.*.at", STAMP),
    ("tenants.*.series.containers.*.*.*.samples.*.value", SAMPLE),
];

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../corpus")
}

/// The path of every leaf under `value` — scalars and absent options —
/// into `out`, sequence indices as `*`.
fn leaves(value: &Value, path: &str, out: &mut BTreeSet<String>) {
    let join = |step: &str| match path {
        "" => step.to_string(),
        _ => format!("{path}.{step}"),
    };
    match value {
        Value::Map(entries) => {
            for (key, v) in entries {
                leaves(v, &join(key), out);
            }
        }
        Value::Seq(items) => {
            for v in items {
                leaves(v, &join("*"), out);
            }
        }
        _ => {
            out.insert(path.to_string());
        }
    }
}

/// A tenant capture's leaves, its record written where a checkpoint
/// holds it.
fn capture_leaves(capture: &impl Serialize, out: &mut BTreeSet<String>) {
    let mut own = BTreeSet::new();
    leaves(&capture.to_value(), "", &mut own);
    out.extend(
        own.into_iter()
            .map(|path| match path.strip_prefix("record.") {
                Some(rest) => format!("tenants.*.{rest}"),
                None => path,
            }),
    );
}

/// A world whose capture fills what the corpus leaves empty: pending
/// events of every kind with payload, a carbon budget crossed, a rate
/// limit with the caps it installs, a tenant's own power cap, suspended
/// and stopped containers, a PSU limit with violations, and a tenant
/// registered after the last settlement (no series yet).
fn hand_built() -> Ecovisor {
    let hour = SimDuration::from_minutes(60);
    let solar = [0.0, 40.0, 90.0, 140.0, 60.0, 10.0, 120.0, 150.0];
    let carbon = [200.0, 420.0, 180.0, 390.0, 210.0, 450.0];
    let mut eco = EcovisorBuilder::new()
        .tick_interval(hour)
        .solar(Trace::from_samples(solar.to_vec(), hour))
        .carbon(Trace::from_samples(carbon.to_vec(), hour))
        .build();
    let share = EnergyShare::grid_only()
        .with_solar_fraction(0.5)
        .with_battery(WattHours::new(0.5))
        .with_initial_soc(0.5);
    let edgy = eco.register_app("edgy", share).expect("fits");
    let capped = eco
        .register_app("capped", EnergyShare::grid_only().with_solar_fraction(0.2))
        .expect("fits");
    let every_change = NotifyConfig {
        solar_change_fraction: 0.0,
        solar_change_floor: Watts::ZERO,
        carbon_change_fraction: 0.0,
    };
    eco.set_notify_config(edgy, every_change)
        .expect("registered");
    eco.set_psu_limit(Some(Watts::new(0.5)));
    {
        let mut api = eco.client(edgy).expect("registered");
        let busy = api
            .launch_container(ContainerSpec::quad_core())
            .expect("fits");
        api.set_container_demand(busy, 1.0).expect("launched");
        api.set_container_powercap(busy, Watts::new(3.0))
            .expect("launched");
        let idle = api
            .launch_container(ContainerSpec::quad_core())
            .expect("fits");
        api.suspend_container(idle).expect("running");
        let gone = api
            .launch_container(ContainerSpec::quad_core())
            .expect("fits");
        api.stop_container(gone).expect("running");
        api.set_carbon_budget(Some(Co2Grams::new(1e-4)));
        api.flush();
    }
    {
        let mut api = eco.client(capped).expect("registered");
        let c = api
            .launch_container(ContainerSpec::quad_core())
            .expect("fits");
        api.set_container_demand(c, 1.0).expect("launched");
        api.set_carbon_rate(Some(CarbonRate::new(1e-6)));
        api.flush();
    }
    // Charge until full, then discharge; nothing is drained.
    for t in 0..6 {
        let (charge, discharge) = if t < 3 { (100.0, 0.0) } else { (0.0, 100.0) };
        let mut api = eco.client(edgy).expect("registered");
        api.set_battery_charge_rate(Watts::new(charge));
        api.set_battery_max_discharge(Watts::new(discharge));
        api.flush();
        drop(api);
        eco.tick(|_| ());
    }
    eco.register_app("late", EnergyShare::grid_only())
        .expect("fits");
    eco
}

#[test]
fn every_field_a_transfer_writes_has_one_row() {
    let mut rows = BTreeSet::new();
    for (path, class) in LEDGER {
        assert!(rows.insert(*path), "`{path}` has two rows");
        assert!(
            !matches!(class, Class::Informational),
            "`{path}`: format 2 writes no informational field"
        );
        assert!(!class.why().is_empty(), "`{path}` names no check");
    }

    let mut written = BTreeSet::new();
    let mut checkpoints = 0;
    for path in artifacts_in_dir(&corpus_dir()).expect("corpus directory exists") {
        let (artifact, _) =
            ScenarioArtifact::load(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        for checkpoint in artifact.checkpoints.iter().chain(&artifact.base) {
            let snap = checkpoint.decode().expect("the checkpoint decodes");
            leaves(&snap.to_value(), "", &mut written);
            let (mut eco, apps) = build_ecovisor(&artifact.spec).expect("the spec builds");
            eco.apply_snapshot(&snap).expect("the checkpoint restores");
            let tenant = eco.extract_app(apps[0]).expect("registered by the spec");
            capture_leaves(&tenant, &mut written);
            checkpoints += 1;
        }
    }
    assert!(checkpoints >= 3, "the corpus checkpoints went missing");
    let mut eco = hand_built();
    leaves(&eco.snapshot().to_value(), "", &mut written);
    for app in eco.app_ids() {
        capture_leaves(&eco.extract_app(app).expect("registered"), &mut written);
    }

    let unruled: Vec<&String> = written
        .iter()
        .filter(|p| !rows.contains(p.as_str()))
        .collect();
    assert!(
        unruled.is_empty(),
        "fields a transfer writes with no ledger row: {unruled:?}"
    );
    let unseen: Vec<&&str> = rows.iter().filter(|r| !written.contains(**r)).collect();
    assert!(
        unseen.is_empty(),
        "ledger rows no capture writes: {unseen:?}"
    );
}
