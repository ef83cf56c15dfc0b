//! Hostile transfers for the admission tests: an honest capture edited
//! through its encoded tree. The captured fields are private, but what
//! another writer puts on the wire is whatever it likes. Included by
//! path (`#[path = …] mod hostile;`), so it names nothing of `ecovisor`.

use serde::{Deserialize, Serialize, Value};

/// A path into an encoded tree — map keys and sequence indices (`last`
/// for the final element) joined by dots — and the value to put there.
pub type Edit = (String, Value);

/// `honest` with `edits` applied to its encoded tree.
pub fn edited<T: Serialize + Deserialize>(honest: &T, edits: &[Edit]) -> T {
    let mut tree = honest.to_value();
    for (path, to) in edits {
        let mut at = &mut tree;
        for step in path.split('.') {
            at = match at {
                Value::Map(entries) => entries
                    .iter_mut()
                    .find_map(|(key, v)| (key == step).then_some(v))
                    .unwrap_or_else(|| panic!("{path}: no key `{step}`")),
                Value::Seq(items) => {
                    let last = items.len().checked_sub(1).expect("a non-empty sequence");
                    let i = if step == "last" {
                        last
                    } else {
                        step.parse().expect("an index")
                    };
                    &mut items[i]
                }
                _ => panic!("{path}: `{step}` steps into a scalar"),
            };
        }
        *at = to.clone();
    }
    T::from_value(&tree).expect("the edited tree still decodes")
}

/// Edits of the tenant record found at `record` (an `AppSnapshot` whose
/// share holds a battery). Every door must refuse each as `Structure`.
pub fn record_edits(record: &str) -> Vec<(&'static str, Vec<Edit>)> {
    let at = |field: &str, to: Value| (format!("{record}.{field}"), to);
    vec![
        (
            "negative solar fraction",
            vec![at("ves.share.solar_fraction", Value::Float(-0.5))],
        ),
        (
            "NaN solar fraction",
            vec![at("ves.share.solar_fraction", Value::Float(f64::NAN))],
        ),
        (
            "a 1 GWh virtual battery on a share of a few Wh",
            vec![
                at("ves.battery.spec.capacity", Value::Float(1e9)),
                at("ves.battery.soc", Value::Float(1e9)),
            ],
        ),
        (
            "virtual battery charged past its capacity",
            vec![at("ves.battery.soc", Value::Float(1e9))],
        ),
        (
            "virtual battery charged below nothing",
            vec![at("ves.battery.soc", Value::Float(-1.0))],
        ),
        (
            "a battery share without a virtual battery",
            vec![at("ves.battery", Value::Null)],
        ),
        (
            "carbon cap on a container that does not arrive",
            vec![at("carbon_capped", Value::Seq(vec![Value::Int(999_999)]))],
        ),
    ]
}
