//! The metric catalogue, the result a run prints, and `compare`.
//!
//! The catalogue here and `BENCHMARK.json` at the root of the repo say
//! the same thing; a unit test holds them together.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use ecovisor::obs::MetricsSnapshot;
use serde::Value;

use crate::{stats, Workload};

/// An end-to-end metric: what a user of the system would see.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

/// Every workload reports every one of these from its untraced run.
/// What each means on each workload is tabulated in the README.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "req_per_s",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_us",
        unit: "us",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "server_cpu_us_per_batch",
        unit: "us",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "tick_p50_us",
        unit: "us",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "restore_ms",
        unit: "ms",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        higher_is_better: false,
        bound: 0.05,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
];

/// Per-layer metrics `(name, unit, higher is better)`, reported by the
/// traced run. One that does not apply to a workload reads 0 with
/// `n = 0`.
pub const PER_LAYER: [(&str, &str, bool); 45] = [
    ("serde.encode_request_ns", "ns", false),
    ("serde.decode_request_ns", "ns", false),
    ("serde.encode_response_ns", "ns", false),
    ("serde.decode_response_ns", "ns", false),
    ("serde.request_bytes", "B", false),
    ("serde.response_bytes", "B", false),
    ("transport.residual_cpu_us", "us", false),
    ("transport.serve_latency_mean_ns", "ns", false),
    ("transport.frames_in_total", "count", true),
    ("transport.frames_out_total", "count", true),
    ("transport.bytes_in_total", "B", true),
    ("transport.bytes_out_total", "B", true),
    ("transport.coalesce_drops_total", "count", false),
    ("transport.connect_us", "us", false),
    ("transport.push_us_per_tick", "us", false),
    ("dispatch.batch_ns", "ns", false),
    ("dispatch.ns_per_request", "ns", false),
    ("dispatch.shard_lock_wait_mean_ns", "ns", false),
    ("dispatch.cop_lock_wait_mean_ns", "ns", false),
    ("dispatch.day_ms", "ms", false),
    ("dispatch.batches_per_day", "count", false),
    ("dispatch.requests_per_day", "count", false),
    ("shard.barrier_wait_mean_ns", "ns", false),
    ("shard.overhead_ratio", "ratio", false),
    ("ecovisor.settle_tick_p50_us", "us", false),
    ("ecovisor.settle_day_ms", "ms", false),
    ("ecovisor.settle_us_per_tenant_tick", "us", false),
    ("ecovisor.begin_tick_ns", "ns", false),
    ("ecovisor.advance_clock_ns", "ns", false),
    ("event.take_frames_us_per_tick", "us", false),
    ("event.frames_per_day", "count", false),
    ("event.frames_pushed_total", "count", true),
    ("snapshot.capture_ms", "ms", false),
    ("snapshot.encode_ms", "ms", false),
    ("snapshot.decode_ms", "ms", false),
    ("snapshot.apply_ms", "ms", false),
    ("snapshot.bytes", "B", false),
    ("harness.artifact_load_ms", "ms", false),
    ("harness.build_ecovisor_ms", "ms", false),
    ("client.rtt_closed_p50_us", "us", false),
    ("client.rtt_closed_p99_us", "us", false),
    ("burst_p99_us", "us", false),
    ("gen.cpu_share", "ratio", false),
    ("server.cpu_util", "ratio", true),
    ("trace.overhead_ratio", "ratio", true),
];

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub value: f64,
    /// Samples behind the value.
    pub n: usize,
    /// E.g. the percentile actually used when the sample could not
    /// support the one in the metric's name.
    pub note: String,
}

/// Measured values by metric name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(BTreeMap<String, Metric>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, n: usize) {
        self.put_note(name, value, n, String::new());
    }

    pub fn put_note(&mut self, name: &str, value: f64, n: usize, note: String) {
        self.0.insert(name.to_string(), Metric { value, n, note });
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.0.get(name)
    }

    pub fn take(&mut self, name: &str) -> Option<f64> {
        self.0.remove(name).map(|m| m.value)
    }

    /// Records the mean and sample count of one histogram of the
    /// program's own registry (0 with `n = 0` when it has none).
    pub fn put_histogram_mean(&mut self, name: &str, obs: &MetricsSnapshot, histogram: &str) {
        let (mean, n) = obs
            .histogram(histogram)
            .map_or((0.0, 0), |h| (h.mean(), h.count as usize));
        self.put(name, mean, n);
    }

    /// `name=value:n` words, for a child's reply line.
    pub fn to_words(&self) -> String {
        self.0
            .iter()
            .map(|(name, m)| format!("{name}={}:{}", m.value, m.n))
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// Parses [`Metrics::to_words`].
    pub fn from_words(words: &[String]) -> Result<Metrics, String> {
        let mut out = Metrics::default();
        for word in words {
            let parsed = word.split_once('=').and_then(|(name, rest)| {
                let (value, n) = rest.split_once(':')?;
                Some((name, value.parse().ok()?, n.parse().ok()?))
            });
            let (name, value, n) = parsed.ok_or_else(|| format!("not a metric: `{word}`"))?;
            out.put(name, value, n);
        }
        Ok(out)
    }
}

/// Operations attempted and failed. An operation is one request frame,
/// one replayed batch, or one oracle check; `fail_ratio` is
/// `failed / attempted` and must be 0.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
}

impl Outcome {
    /// Counts one oracle check; a failed one is named on stderr.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED: {what}");
        }
    }
}

/// One workload's result: the untraced or the traced run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub workload: Workload,
    pub seed: u64,
    pub traced: bool,
    pub outcome: Outcome,
    pub metrics: Metrics,
}

fn map(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

impl RunResult {
    /// The catalogue rows this run must report, with their units.
    fn rows(&self) -> Vec<(&'static str, &'static str)> {
        if self.traced {
            PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect()
        } else {
            END_TO_END.iter().map(|e| (e.name, e.unit)).collect()
        }
    }

    fn value(&self, name: &str) -> Metric {
        self.metrics.get(name).cloned().unwrap_or(Metric {
            value: 0.0,
            n: 0,
            note: String::new(),
        })
    }

    /// An end-to-end metric the run did not measure is a bug in the
    /// benchmark; a per-layer one is a layer the workload does not run.
    pub fn complete(&self) -> bool {
        self.traced
            || END_TO_END
                .iter()
                .all(|e| self.metrics.get(e.name).is_some_and(|m| m.value != 0.0))
    }

    pub fn fail_ratio(&self) -> f64 {
        self.outcome.failed as f64 / self.outcome.attempted.max(1) as f64
    }

    /// One line per metric: workload, name, value, unit, sample count.
    pub fn print(&self) {
        for (name, unit) in self.rows() {
            let m = self.value(name);
            let note = if m.note.is_empty() {
                String::new()
            } else {
                format!(" ({})", m.note)
            };
            println!(
                "{:<13} {:<34} {:>16.4} {:<6} n={}{note}",
                self.workload.name(),
                name,
                m.value,
                unit,
                m.n
            );
        }
        println!(
            "{:<13} {:<34} {:>16.4} {:<6} ops_attempted={} ops_failed={}",
            self.workload.name(),
            "fail_ratio",
            self.fail_ratio(),
            "ratio",
            self.outcome.attempted,
            self.outcome.failed
        );
    }

    /// Every catalogue row of this run as `name -> {value, unit[, n]}`.
    fn metrics_value(&self, with_n: bool) -> Value {
        let rows = self.rows().into_iter().map(|(name, unit)| {
            let m = self.value(name);
            let mut entry = vec![
                ("value", Value::Float(m.value)),
                ("unit", Value::Str(unit.to_string())),
            ];
            if with_n {
                entry.push(("n", Value::UInt(m.n as u64)));
            }
            (name.to_string(), map(entry))
        });
        Value::Map(rows.collect())
    }

    /// The object the driver reads off the last line of stdout.
    pub fn driver_line(&self) -> String {
        json(&map(vec![
            (
                "correct",
                Value::Bool(self.outcome.failed == 0 && self.complete()),
            ),
            ("attempted", Value::UInt(self.outcome.attempted.max(1))),
            ("failed", Value::UInt(self.outcome.failed)),
            ("metrics", self.metrics_value(false)),
        ]))
    }

    /// This run as a `result.json` entry.
    fn to_value(&self) -> Value {
        map(vec![
            ("workload", Value::Str(self.workload.name().to_string())),
            ("seed", Value::UInt(self.seed)),
            ("traced", Value::Bool(self.traced)),
            ("ops_attempted", Value::UInt(self.outcome.attempted)),
            ("ops_failed", Value::UInt(self.outcome.failed)),
            ("fail_ratio", Value::Float(self.fail_ratio())),
            ("metrics", self.metrics_value(true)),
        ])
    }
}

/// `serde::json` renders any `Serialize`; a `Value` is one by wrapping.
struct Doc<'a>(&'a Value);

impl serde::Serialize for Doc<'_> {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

fn json(v: &Value) -> String {
    serde::json::to_string(&Doc(v))
}

/// `result.json`: the host block and every run, one run per line so
/// that a committed baseline diffs run by run.
pub fn result_json(host: &Value, runs: &[RunResult]) -> String {
    let mut out = format!("{{\"host\": {},\n \"runs\": [\n", json(host));
    for (i, run) in runs.iter().enumerate() {
        let sep = if i + 1 == runs.len() { "" } else { "," };
        let _ = writeln!(out, "  {}{sep}", json(&run.to_value()));
    }
    out.push_str(" ]}\n");
    out
}

/// Values by `(workload, end-to-end metric)`.
type Pooled = BTreeMap<(String, String), Vec<f64>>;

/// Adds the untraced value of every `(workload, end-to-end metric)` in
/// a `result.json` to `values`, runs in file order, and returns the
/// highest `fail_ratio` among them.
fn pool_end_to_end(doc: &Value, values: &mut Pooled) -> Result<f64, String> {
    let Some(Value::Seq(runs)) = doc.get("runs") else {
        return Err("no `runs` list".into());
    };
    let mut fail_ratio = 0.0f64;
    let float = |v: Option<&Value>| match v {
        Some(Value::Float(f)) => Some(*f),
        Some(Value::Int(i)) => Some(*i as f64),
        Some(Value::UInt(u)) => Some(*u as f64),
        _ => None,
    };
    for run in runs {
        if run.get("traced") != Some(&Value::Bool(false)) {
            continue;
        }
        let Some(Value::Str(workload)) = run.get("workload") else {
            return Err("run without a workload".into());
        };
        fail_ratio = fail_ratio.max(float(run.get("fail_ratio")).unwrap_or(1.0));
        for e in END_TO_END {
            let value = float(run.get("metrics").and_then(|m| m.get(e.name)?.get("value")))
                .ok_or_else(|| format!("{workload}: no value for {}", e.name))?;
            values
                .entry((workload.clone(), e.name.to_string()))
                .or_default()
                .push(value);
        }
    }
    Ok(fail_ratio)
}

/// The verdict on one `(workload, metric)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The runs of one side spread wider than the bound, and the sides
    /// overlap: the comparison cannot tell.
    Unresolved,
}

pub fn verdict(e: &EndToEnd, base: &[f64], new: &[f64]) -> Verdict {
    let (b, n) = (stats::median(base), stats::median(new));
    let worse_by = if e.higher_is_better {
        (b - n) / b
    } else {
        (n - b) / b
    };
    let spread = |xs: &[f64]| {
        if xs.len() < 2 {
            0.0
        } else {
            stats::iqr_spread(xs)
        }
    };
    // Every new run better than every base run settles it whatever
    // the spread.
    let beats = |x: f64, y: f64| if e.higher_is_better { x > y } else { x < y };
    let clean_win = new.iter().all(|&x| base.iter().all(|&y| beats(x, y)));
    if spread(base).max(spread(new)) > e.bound && !clean_win {
        Verdict::Unresolved
    } else if worse_by > e.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// `compare A.json B.json`: one row per `(workload, end-to-end metric)`.
/// Each side is the text of one or more `result.json` files; their runs
/// are pooled. Returns the table and whether B is acceptable against A:
/// nothing regressed and no higher `fail_ratio`. `unresolved` rows are
/// for the reader — more runs settle them.
pub fn compare(base: &[String], new: &[String]) -> Result<(String, bool), String> {
    let pool = |texts: &[String]| {
        let mut values = Pooled::new();
        let mut fail_ratio = 0.0f64;
        for text in texts {
            let doc = serde::json::parse(text).map_err(|e| e.to_string())?;
            fail_ratio = fail_ratio.max(pool_end_to_end(&doc, &mut values)?);
        }
        Ok::<_, String>((values, fail_ratio))
    };
    let (base, base_fail) = pool(base).map_err(|e| format!("base: {e}"))?;
    let (new, new_fail) = pool(new).map_err(|e| format!("new: {e}"))?;
    let mut table = format!(
        "{:<13} {:<26} {:>14} {:>14} {:>8} {:>6}  verdict\n",
        "workload", "metric", "base", "new", "new/base", "bound"
    );
    let mut accepted = new_fail <= base_fail;
    for w in Workload::ALL {
        for e in END_TO_END {
            let key = (w.name().to_string(), e.name.to_string());
            let (Some(b), Some(n)) = (base.get(&key), new.get(&key)) else {
                continue;
            };
            let v = verdict(&e, b, n);
            accepted &= v != Verdict::Regressed;
            let (bm, nm) = (stats::median(b), stats::median(n));
            let _ = writeln!(
                table,
                "{:<13} {:<26} {:>14.4} {:>14.4} {:>8.4} {:>6.2}  {}",
                w.name(),
                e.name,
                bm,
                nm,
                nm / bm,
                e.bound,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    let _ = writeln!(table, "fail_ratio: base {base_fail} new {new_fail}");
    Ok((table, accepted))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_round_trip() {
        let mut m = Metrics::default();
        m.put("dispatch.batch_ns", 412.5, 13_000);
        m.put("snapshot.bytes", 5_200_000.0, 1);
        let words: Vec<String> = m.to_words().split(' ').map(str::to_string).collect();
        assert_eq!(Metrics::from_words(&words).expect("parses"), m);
        assert!(Metrics::from_words(&["nonsense".to_string()]).is_err());
    }

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        let rate = EndToEnd {
            name: "rate",
            unit: "1/s",
            higher_is_better: true,
            bound: 0.10,
        };
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(
            verdict(&rate, &base, &[95.0, 96.0, 94.0, 95.5, 94.5]),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&rate, &base, &[85.0, 86.0, 84.0, 85.5, 84.5]),
            Verdict::Regressed
        );
        // A side that spreads wider than the bound cannot be judged…
        let noisy = [70.0, 130.0, 100.0, 85.0, 115.0];
        assert_eq!(verdict(&rate, &noisy, &base), Verdict::Unresolved);
        // …unless every new run beats every base run.
        assert_eq!(verdict(&rate, &noisy, &[140.0, 150.0, 160.0]), Verdict::Ok);
        let latency = EndToEnd {
            name: "latency",
            unit: "us",
            higher_is_better: false,
            bound: 0.10,
        };
        assert_eq!(verdict(&latency, &[10.0], &[11.5]), Verdict::Regressed);
        assert_eq!(verdict(&latency, &[10.0], &[9.0]), Verdict::Ok);
    }

    #[test]
    fn compare_reads_what_result_json_writes() {
        let run = |value: f64, failed: u64| {
            let mut metrics = Metrics::default();
            for e in END_TO_END {
                metrics.put(e.name, value, 8);
            }
            RunResult {
                workload: Workload::WirePoll,
                seed: 1,
                traced: false,
                outcome: Outcome {
                    attempted: 100,
                    failed,
                },
                metrics,
            }
        };
        let host = map(vec![("nproc", Value::UInt(2))]);
        // Two files pooled on the base side, one on the new side.
        let base = [
            result_json(&host, &[run(100.0, 0)]),
            result_json(&host, &[run(101.0, 0)]),
        ];
        let (table, ok) = compare(&base, &[result_json(&host, &[run(100.5, 0)])]).expect("ok");
        assert!(ok, "{table}");
        assert_eq!(table.matches(" ok\n").count(), END_TO_END.len());
        // Higher is worse for six of the seven, lower for `req_per_s`.
        let (table, ok) = compare(&base, &[result_json(&host, &[run(150.0, 0)])]).expect("ok");
        assert!(!ok);
        assert_eq!(table.matches("regressed").count(), END_TO_END.len() - 1);
        // A higher fail ratio alone is refused.
        let (_, ok) = compare(&base, &[result_json(&host, &[run(100.5, 1)])]).expect("ok");
        assert!(!ok);
        // Sides too noisy to tell are named, not refused.
        let noisy = [result_json(
            &host,
            &[run(60.0, 0), run(100.0, 0), run(140.0, 0)],
        )];
        let (table, ok) = compare(&noisy, &base).expect("ok");
        assert!(ok && table.contains("unresolved"), "{table}");
    }

    #[test]
    fn catalogue_and_benchmark_json_agree() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the root of the repo");
        let doc = serde::json::parse(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<String> {
            match doc.get(key) {
                Some(Value::Seq(items)) => items
                    .iter()
                    .map(|i| match i.get("name") {
                        Some(Value::Str(s)) => s.clone(),
                        other => panic!("{key}: entry without a name: {other:?}"),
                    })
                    .collect(),
                other => panic!("{key}: {other:?}"),
            }
        };
        let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(names("workloads"), workloads);
        let e2e: Vec<String> = END_TO_END.iter().map(|e| e.name.to_string()).collect();
        assert_eq!(names("end_to_end"), e2e);
        let layers: Vec<String> = PER_LAYER.iter().map(|l| l.0.to_string()).collect();
        assert_eq!(names("per_layer"), layers);
        let Some(Value::Seq(items)) = doc.get("end_to_end") else {
            unreachable!()
        };
        for (item, e) in items.iter().zip(END_TO_END) {
            assert_eq!(item.get("unit"), Some(&Value::Str(e.unit.to_string())));
            assert_eq!(item.get("bound"), Some(&Value::Float(e.bound)));
            let better = if e.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(item.get("better"), Some(&Value::Str(better.to_string())));
        }
    }
}
