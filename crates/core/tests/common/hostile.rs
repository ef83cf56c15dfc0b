//! Hostile transfers for the admission tests: an honest capture edited
//! through its encoded tree. The captured fields are private, but what
//! another writer puts on the wire is whatever it likes. Included by
//! path (`#[path = …] mod hostile;`), so it names nothing of `ecovisor`.
//!
//! One table serves every door. [`record_edits`] holds the rows of one
//! tenant record, which a checkpoint restore and a graft (in process and
//! over the wire) must each refuse; [`checkpoint_edits`] the rows only a
//! checkpoint can express.

// Each door's suite uses the rows it can express.
#![allow(dead_code)]

use serde::{Deserialize, Serialize, Value};

/// A path into an encoded tree — map keys and sequence indices (`last`
/// for the final element) joined by dots — and the value to put there.
pub type Edit = (String, Value);

/// `honest` with `edits` applied to its encoded tree.
pub fn edited<T: Serialize + Deserialize>(honest: &T, edits: &[Edit]) -> T {
    let mut tree = honest.to_value();
    for (path, to) in edits {
        *walk(&mut tree, path) = to.clone();
    }
    T::from_value(&tree).expect("the edited tree still decodes")
}

/// The value at `path` in `tree`.
pub fn at(tree: &Value, path: &str) -> Value {
    let mut at = tree;
    for step in path.split('.') {
        at = match at {
            Value::Map(entries) => entries
                .iter()
                .find_map(|(key, v)| (key == step).then_some(v))
                .unwrap_or_else(|| panic!("{path}: no key `{step}`")),
            Value::Seq(items) => &items[index(step, items.len())],
            _ => panic!("{path}: `{step}` steps into a scalar"),
        };
    }
    at.clone()
}

fn walk<'a>(tree: &'a mut Value, path: &str) -> &'a mut Value {
    let mut at = tree;
    for step in path.split('.') {
        at = match at {
            Value::Map(entries) => entries
                .iter_mut()
                .find_map(|(key, v)| (key == step).then_some(v))
                .unwrap_or_else(|| panic!("{path}: no key `{step}`")),
            Value::Seq(items) => {
                let i = index(step, items.len());
                &mut items[i]
            }
            _ => panic!("{path}: `{step}` steps into a scalar"),
        };
    }
    at
}

/// The place `step` names in a sequence of `len`.
fn index(step: &str, len: usize) -> usize {
    if step == "last" {
        len.checked_sub(1).expect("a non-empty sequence")
    } else {
        step.parse().expect("an index")
    }
}

fn items(value: Value) -> Vec<Value> {
    match value {
        Value::Seq(items) => items,
        other => panic!("not a sequence: {other:?}"),
    }
}

fn int(value: Value) -> i64 {
    match value {
        Value::Int(n) => n,
        other => panic!("not an integer: {other:?}"),
    }
}

/// What a receiver knows that a tenant record does not say.
pub struct Receiver {
    /// The instant, in seconds, of the clock the record would run under.
    pub now: i64,
    /// The container id the receiver allocates next once the record is
    /// in: a series for it would be read as that container's history.
    pub unborn: u64,
    /// The id of an app other than the record's.
    pub other_app: u32,
}

/// Edits of the tenant record found at `record` in `honest`, a tree
/// whose record holds a battery share and series for at least two
/// containers. Every door must refuse each as `Structure`.
pub fn record_edits(
    honest: &Value,
    record: &str,
    receiver: &Receiver,
) -> Vec<(&'static str, Vec<Edit>)> {
    let path = |field: &str| format!("{record}.{field}");
    let at = |field: &str, to: Value| (path(field), to);
    let slots = items(self::at(honest, &path("series.containers")));
    assert!(slots.len() >= 2, "{record}: series of two containers");
    let late = Value::Int(receiver.now + 1);
    let mut reversed = slots.clone();
    reversed.reverse();
    let mut repeated = slots.clone();
    repeated.insert(0, slots[0].clone());
    vec![
        (
            "negative solar fraction",
            vec![at("app.ves.share.solar_fraction", Value::Float(-0.5))],
        ),
        (
            "NaN solar fraction",
            vec![at("app.ves.share.solar_fraction", Value::Float(f64::NAN))],
        ),
        (
            "a 1 GWh virtual battery on a share of a few Wh",
            vec![
                at("app.ves.battery.spec.capacity", Value::Float(1e9)),
                at("app.ves.battery.soc", Value::Float(1e9)),
            ],
        ),
        (
            "virtual battery charged past its capacity",
            vec![at("app.ves.battery.soc", Value::Float(1e9))],
        ),
        (
            "virtual battery charged below nothing",
            vec![at("app.ves.battery.soc", Value::Float(-1.0))],
        ),
        (
            "a battery share without a virtual battery",
            vec![at("app.ves.battery", Value::Null)],
        ),
        (
            "carbon cap on a container that does not arrive",
            vec![at(
                "app.carbon_capped",
                Value::Seq(vec![Value::Int(999_999)]),
            )],
        ),
        (
            "a container of another app",
            vec![at(
                "containers.0.owner",
                Value::Int(receiver.other_app.into()),
            )],
        ),
        (
            "a container demand past 1",
            vec![at("containers.0.demand", Value::Float(2.0))],
        ),
        (
            "a CPU quota the container's caps do not give",
            vec![at("containers.0.cpu_quota", Value::Float(0.5))],
        ),
        (
            "series of the container the receiver allocates next",
            vec![at(
                "series.containers.last.0",
                Value::Int(receiver.unborn as i64),
            )],
        ),
        (
            "container series out of order",
            vec![at("series.containers", Value::Seq(reversed))],
        ),
        (
            "a container's series twice",
            vec![at("series.containers", Value::Seq(repeated))],
        ),
        (
            "an app sample stamped after the clock",
            vec![at("series.app.0.samples.last.at", late.clone())],
        ),
        (
            "a container sample stamped after the clock",
            vec![at("series.containers.0.1.0.samples.last.at", late)],
        ),
    ]
}

/// Edits of the checkpoint `honest` — two tenants or more, the first
/// and the second each with a container — that only a checkpoint can
/// express. Restore must refuse each as `Structure`.
pub fn checkpoint_edits(honest: &Value) -> Vec<(&'static str, Vec<Edit>)> {
    let now = int(at(honest, "clock.interval")) * int(at(honest, "clock.tick"));
    let containers = |tenant: usize| items(at(honest, &format!("tenants.{tenant}.containers")));
    let (mut first, mut second) = (containers(0), containers(1));
    first.push(second.remove(0));
    let last_id = items(at(honest, "tenants"))
        .into_iter()
        .flat_map(|tenant| items(at(&tenant, "containers")))
        .map(|c| int(at(&c, "id")))
        .max()
        .expect("a container");
    vec![
        (
            "a system sample stamped after the clock",
            vec![(
                "system.series.0.samples.last.at".into(),
                Value::Int(now + 1),
            )],
        ),
        (
            "a record carrying another app's container",
            vec![
                ("tenants.0.containers".into(), Value::Seq(first)),
                ("tenants.1.containers".into(), Value::Seq(second)),
            ],
        ),
        (
            "a next container id that is not above every carried id",
            vec![("system.next_container".into(), Value::Int(last_id))],
        ),
        (
            "the physical battery charged past its capacity",
            vec![("system.physical_battery.soc".into(), Value::Float(1e9))],
        ),
        (
            "a supply that metered more draws than ticks",
            vec![("system.psu.samples".into(), Value::Int(i64::MAX))],
        ),
    ]
}
