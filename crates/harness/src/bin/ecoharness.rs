//! `ecoharness` — record, verify, fuzz, and diff scenario artifacts.
//!
//! ```text
//! ecoharness list
//! ecoharness record [--out DIR] [--codec json|binary]
//!                   [--checkpoint-every HOURS] [NAME ...]
//! ecoharness record --from ARTIFACT@TICK [--out DIR] [--codec json|binary]
//! ecoharness verify [--transport] [--federated] PATH [PATH ...]
//! ecoharness diff A B
//! ```
//!
//! `PATH` arguments may be artifact files (`*.scn.json` / `*.scn.bin`)
//! or directories containing them. Exit code 0 = success / all green,
//! 1 = verification failure, 2 = usage or I/O error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use ecoharness::artifact::{artifacts_in_dir, codec_name, is_artifact_path};
use ecoharness::{
    corpus, record_with_checkpoints, verify, verify_federated, verify_transport, ScenarioArtifact,
};
use ecovisor::proto::StatsReport;
use ecovisor::WireCodec;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((cmd, rest)) => (cmd.as_str(), rest.to_vec()),
        None => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match cmd {
        "list" => cmd_list(),
        "record" => cmd_record(rest),
        "verify" => cmd_verify(rest),
        "fuzz" => cmd_fuzz(rest),
        "stats" => cmd_stats(rest),
        "diff" => cmd_diff(rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        other => {
            eprintln!("unknown command `{other}`\n{USAGE}");
            Ok(ExitCode::from(2))
        }
    };
    result.unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        ExitCode::from(2)
    })
}

const USAGE: &str = "ecoharness — scenario corpus tooling

USAGE:
    ecoharness list
    ecoharness record [--out DIR] [--codec json|binary]
                      [--checkpoint-every HOURS] [NAME ...]
    ecoharness record --from ARTIFACT@TICK [--out DIR] [--codec json|binary]
    ecoharness verify [--transport] [--federated] PATH [PATH ...]
    ecoharness fuzz [--seed S] [--count N] [--no-transport] [--out DIR]
    ecoharness fuzz --soak [--seed S] [--ticks N] [--tenants N]
    ecoharness fuzz --promote [--seed S] [--count N] [--top K] [--out DIR]
    ecoharness stats ADDR --app ID --token TOKEN [--watch SECONDS] [--n COUNT]
    ecoharness diff A B

Paths may be artifact files (*.scn.json / *.scn.bin) or directories.
`record` with no names records the whole builtin corpus, committing
some scenarios in each file encoding (override with --codec).
`verify --transport` additionally replays each artifact over live
per-tenant TCP connections (one per app, subscribed to event push)
against the evented server — the wire path must be
bit-indistinguishable from in-process dispatch.
`verify --federated` additionally replays each artifact split across
two live ecovisor processes joined by the two-phase federated tick
(collect demand → merge → settle) — the federation must be
bit-indistinguishable from the single process. Artifacts
whose spec carries a migration plan live-migrate that tenant between
the nodes mid-day; `--transport` runs the federated pass for such
artifacts automatically. A resumed artifact (one with a base
checkpoint) has no federated warm state to start from: its federated
pass is skipped with a `SKIP federated` line, not failed.
`--checkpoint-every HOURS` embeds a full state snapshot every HOURS
simulated hours; `verify` restores each one and replays the rest of
the day against it. `--from ARTIFACT@TICK` starts a *new* recording
from the checkpoint the artifact embeds at TICK (a mid-day harness
start): fresh drivers against the restored warm state, written as
`NAME-resumed` in the parent artifact's encoding unless --codec is given.
`fuzz` generates --count seeded random scenarios and drives each one
through the full record → verify matrix (a replay from the start and
from every checkpoint, plus the live evented transport unless
--no-transport); failures are shrunk
to minimal reproducers written under --out (default fuzz-failures/) as
replayable .scn.json days.
`fuzz --soak` drives a long day (default 5000 ticks) through the live
evented server with periodic connection churn and fails unless the
server's counters return to the all-zero baseline afterwards.
`fuzz --promote` re-records the campaign's most interesting surviving
candidates into --out (default corpus/), best-scoring first.
`stats` connects to a live ecovisor server as the given (credentialed)
app and fetches its observability report over the wire — serving-level
gauges plus the full metric registry (see docs/OBSERVABILITY.md for
the catalogue). With --watch it polls every SECONDS seconds (--n
polls, default forever) and prints the delta since the previous poll
next to each counter and histogram.";

/// `list`: the builtin catalogue.
fn cmd_list() -> Result<ExitCode, String> {
    println!("builtin scenarios:");
    for spec in corpus::all() {
        println!(
            "  {:18} {:3} ticks × {:2} min, {} tenant(s) — {}",
            spec.name,
            spec.ticks,
            spec.tick_minutes,
            spec.tenants.len(),
            spec.description
        );
    }
    Ok(ExitCode::SUCCESS)
}

/// `record`: run builtins and write artifacts, or resume one from an
/// embedded checkpoint (`--from ARTIFACT@TICK`).
fn cmd_record(args: Vec<String>) -> Result<ExitCode, String> {
    let mut out = PathBuf::from("corpus");
    let mut forced_codec: Option<WireCodec> = None;
    let mut checkpoint_hours: Option<u64> = None;
    let mut from: Option<String> = None;
    let mut names: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => out = PathBuf::from(it.next().ok_or("--out needs a directory")?),
            "--codec" => {
                forced_codec = Some(parse_codec(&it.next().ok_or("--codec needs a value")?)?)
            }
            "--checkpoint-every" => {
                let hours: u64 = it
                    .next()
                    .ok_or("--checkpoint-every needs a value in hours")?
                    .parse()
                    .map_err(|e| format!("--checkpoint-every: {e}"))?;
                if hours == 0 {
                    return Err("--checkpoint-every must be at least one hour".into());
                }
                checkpoint_hours = Some(hours);
            }
            "--from" => from = Some(it.next().ok_or("--from needs ARTIFACT@TICK")?),
            name => names.push(name.to_string()),
        }
    }

    if let Some(from) = from {
        if checkpoint_hours.is_some() || !names.is_empty() {
            return Err("--from does not combine with names or --checkpoint-every".into());
        }
        return cmd_record_resumed(&from, &out, forced_codec);
    }

    if names.is_empty() {
        names = corpus::names().iter().map(|s| s.to_string()).collect();
    }
    for name in &names {
        let spec = corpus::builtin(name)
            .ok_or_else(|| format!("unknown builtin `{name}` (see `ecoharness list`)"))?;
        let every = match checkpoint_hours {
            None => corpus::default_checkpoint_ticks(name),
            Some(hours) => {
                let minutes = hours * 60;
                if !minutes.is_multiple_of(spec.tick_minutes) {
                    return Err(format!(
                        "--checkpoint-every {hours}h is not a whole number of \
                         {}-minute ticks ({name})",
                        spec.tick_minutes
                    ));
                }
                Some(minutes / spec.tick_minutes)
            }
        };
        let artifact =
            record_with_checkpoints(&spec, every).map_err(|e| format!("record {name}: {e}"))?;
        let codec = forced_codec
            .or(corpus::default_codec(name))
            .expect("a builtin has a committed encoding");
        let path = artifact
            .write_to_dir(&out, codec)
            .map_err(|e| format!("write {name}: {e}"))?;
        println!(
            "recorded {name}: {} ticks, {} batches / {} requests, {} event frames, \
             {} checkpoint(s) → {}",
            spec.ticks,
            artifact.trace.entries.len(),
            artifact.expected.request_count,
            artifact.trace.events.len(),
            artifact.checkpoints.len(),
            path.display()
        );
    }
    Ok(ExitCode::SUCCESS)
}

/// `record --from ARTIFACT@TICK`: the mid-day harness start.
fn cmd_record_resumed(
    from: &str,
    out: &Path,
    forced_codec: Option<WireCodec>,
) -> Result<ExitCode, String> {
    let (path, tick) = from
        .rsplit_once('@')
        .ok_or("--from needs ARTIFACT@TICK (e.g. corpus/batch-checkpoint.scn.bin@24)")?;
    let tick: u64 = tick
        .parse()
        .map_err(|e| format!("--from tick `{tick}`: {e}"))?;
    let (parent, parent_codec) =
        ScenarioArtifact::load(Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
    let artifact = ecoharness::resume(&parent, tick).map_err(|e| format!("resume {path}: {e}"))?;
    let codec = forced_codec.unwrap_or(parent_codec);
    let written = artifact
        .write_to_dir(out, codec)
        .map_err(|e| format!("write {}: {e}", artifact.spec.name))?;
    println!(
        "resumed {} from tick {tick}: {} remaining ticks, {} batches / {} requests, \
         {} event frames → {}",
        parent.spec.name,
        artifact.spec.ticks - tick,
        artifact.trace.entries.len(),
        artifact.expected.request_count,
        artifact.trace.events.len(),
        written.display()
    );
    Ok(ExitCode::SUCCESS)
}

/// `verify`: replay every artifact in process; with
/// `--transport`, additionally replay each one over live per-tenant
/// TCP connections against the evented server; with `--federated`,
/// additionally replay each one split across a live two-node
/// federation. `--transport` implies the federated pass for artifacts
/// carrying a migration plan (the plan only executes federated), and
/// the federated pass skips resumed artifacts, which it cannot start.
fn cmd_verify(args: Vec<String>) -> Result<ExitCode, String> {
    let mut transport = false;
    let mut federated = false;
    let mut path_args: Vec<String> = Vec::new();
    for arg in args {
        match arg.as_str() {
            "--transport" => transport = true,
            "--federated" => federated = true,
            _ => path_args.push(arg),
        }
    }
    let paths = collect_artifacts(&path_args)?;
    let mut failed = 0_usize;
    for path in &paths {
        let (artifact, codec) =
            ScenarioArtifact::load(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut report = verify(&artifact).map_err(|e| format!("{}: {e}", path.display()))?;
        if transport {
            let wire =
                verify_transport(&artifact).map_err(|e| format!("{}: {e}", path.display()))?;
            report.checks.extend(wire.checks);
        }
        let wants_federated = federated || (transport && artifact.spec.migration.is_some());
        if wants_federated && artifact.base.is_some() {
            println!("SKIP federated {}: resumed artifact", path.display());
        } else if wants_federated {
            let fed =
                verify_federated(&artifact).map_err(|e| format!("{}: {e}", path.display()))?;
            report.checks.extend(fed.checks);
        }
        let status = if report.passed() { "PASS" } else { "FAIL" };
        println!(
            "{status} {} ({} codec, {} checks)",
            path.display(),
            codec_name(codec),
            report.checks.len()
        );
        if !report.passed() {
            failed += 1;
            for check in report.failures() {
                println!("     ✗ {}: {}", check.label, check.detail);
            }
        }
    }
    println!("{} artifact(s) verified, {} failed", paths.len(), failed);
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `fuzz`: generate/check/shrink campaigns, soak days, and promotion.
fn cmd_fuzz(args: Vec<String>) -> Result<ExitCode, String> {
    let mut mode = FuzzMode::Campaign;
    let mut opts = ecoharness::FuzzOptions {
        out: Some(PathBuf::from("fuzz-failures")),
        ..Default::default()
    };
    let mut soak_opts = ecoharness::SoakOptions::default();
    let mut top = 2_usize;
    let mut out_override: Option<PathBuf> = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--soak" => mode = FuzzMode::Soak,
            "--promote" => mode = FuzzMode::Promote,
            "--no-transport" => opts.transport = false,
            "--seed" => {
                let seed = parse_num(&value("--seed")?, "--seed")?;
                opts.seed = seed;
                soak_opts.seed = seed;
            }
            "--count" => opts.count = parse_num(&value("--count")?, "--count")?,
            "--ticks" => soak_opts.ticks = parse_num(&value("--ticks")?, "--ticks")?,
            "--tenants" => {
                soak_opts.tenants = parse_num(&value("--tenants")?, "--tenants")? as usize;
            }
            "--top" => top = parse_num(&value("--top")?, "--top")? as usize,
            "--out" => out_override = Some(PathBuf::from(value("--out")?)),
            other => return Err(format!("unknown fuzz argument `{other}`")),
        }
    }
    match mode {
        FuzzMode::Campaign => {
            if let Some(out) = out_override {
                opts.out = Some(out);
            }
            let report = ecoharness::fuzz::run(&opts, None).map_err(|e| e.to_string())?;
            println!(
                "fuzz: seed {:#018x}, {} candidate(s), {} passed, {} failed",
                report.seed,
                report.generated,
                report.passed,
                report.failures.len()
            );
            for failure in &report.failures {
                println!(
                    "  FAIL #{} {} — {}",
                    failure.index, failure.scenario, failure.detail
                );
                println!(
                    "       shrunk in {} step(s) ({} re-checks) to {} tenant(s) × {} tick(s)",
                    failure.shrink_steps,
                    failure.shrink_checks,
                    failure.minimized.spec.tenants.len(),
                    failure.minimized.spec.ticks
                );
                if let Some(path) = &failure.artifact {
                    println!("       reproducer: {}", path.display());
                    println!(
                        "       replay with: ecoharness verify --transport {}",
                        path.display()
                    );
                }
            }
            Ok(if report.passed() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        FuzzMode::Soak => {
            let report = ecoharness::fuzz::soak(&soak_opts).map_err(|e| e.to_string())?;
            println!(
                "soak: {} tick(s), {} reconnect(s), {} request(s), {} event frame(s)",
                report.ticks, report.reconnects, report.requests, report.frames
            );
            println!(
                "      peak: {} connection(s), backlog {}, recv buffers {} B",
                report.peak.active_connections,
                report.peak.subscriber_backlog,
                report.peak.recv_buffer_bytes
            );
            println!(
                "      final: {} connection(s), backlog {}, recv buffers {} B — {}",
                report.final_stats.active_connections,
                report.final_stats.subscriber_backlog,
                report.final_stats.recv_buffer_bytes,
                if report.leak_free() {
                    "leak-free"
                } else {
                    "LEAKED"
                }
            );
            Ok(if report.leak_free() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        FuzzMode::Promote => {
            let promote_opts = ecoharness::PromoteOptions {
                seed: opts.seed,
                count: opts.count,
                top,
                out: out_override.unwrap_or_else(|| PathBuf::from("corpus")),
            };
            let written = ecoharness::fuzz::promote(&promote_opts).map_err(|e| e.to_string())?;
            println!(
                "promoted {} of {} candidate(s) (seed {:#018x}):",
                written.len(),
                promote_opts.count,
                promote_opts.seed
            );
            for path in &written {
                println!("  {}", path.display());
            }
            Ok(ExitCode::SUCCESS)
        }
    }
}

#[derive(Clone, Copy, PartialEq)]
enum FuzzMode {
    Campaign,
    Soak,
    Promote,
}

fn parse_num(s: &str, flag: &str) -> Result<u64, String> {
    let (digits, radix) = match s.strip_prefix("0x") {
        Some(hex) => (hex, 16),
        None => (s, 10),
    };
    u64::from_str_radix(digits, radix).map_err(|e| format!("{flag}: {e}"))
}

/// `stats`: fetch (and optionally watch) a live server's observability
/// report over the credential-gated v2 admin surface.
fn cmd_stats(args: Vec<String>) -> Result<ExitCode, String> {
    let mut addr: Option<String> = None;
    let mut app: Option<u64> = None;
    let mut token: Option<String> = None;
    let mut watch_secs: Option<u64> = None;
    let mut polls: Option<u64> = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--app" => app = Some(parse_num(&value("--app")?, "--app")?),
            "--token" => token = Some(value("--token")?),
            "--watch" => watch_secs = Some(parse_num(&value("--watch")?, "--watch")?.max(1)),
            "--n" => polls = Some(parse_num(&value("--n")?, "--n")?.max(1)),
            other if addr.is_none() && !other.starts_with("--") => addr = Some(other.to_string()),
            other => return Err(format!("unknown stats argument `{other}`")),
        }
    }
    let addr = addr.ok_or("stats needs a server address (host:port)")?;
    let app = app.ok_or("stats needs --app ID")?;
    let app = ecovisor::AppId::new(u32::try_from(app).map_err(|_| "--app: id out of range")?);
    let mut client = ecovisor::RemoteEcovisorClient::connect_full(&*addr, app, token)
        .map_err(|e| format!("{addr}: {e}"))?;

    let mut previous: Option<StatsReport> = None;
    let mut remaining = match (watch_secs, polls) {
        (None, _) => 1,
        (Some(_), Some(n)) => n,
        (Some(_), None) => u64::MAX,
    };
    while remaining > 0 {
        remaining -= 1;
        let report = client.fetch_stats().map_err(|e| format!("{addr}: {e}"))?;
        print_stats(&report, previous.as_ref());
        previous = Some(report);
        if remaining > 0 {
            std::thread::sleep(std::time::Duration::from_secs(
                watch_secs.expect("watch mode"),
            ));
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// Renders one stats report; with `previous`, counters and histograms
/// additionally show the delta since the last poll.
fn print_stats(report: &StatsReport, previous: Option<&StatsReport>) {
    use ecovisor::obs::MetricValue;
    println!(
        "server: {} connection(s), backlog {}, recv buffers {} B",
        report.active_connections, report.subscriber_backlog, report.recv_buffer_bytes
    );
    if report.metrics.metrics.is_empty() {
        println!("  (no metric registry attached)");
        return;
    }
    println!("{:40} {:>16} {:>12}", "metric", "value", "delta");
    for entry in &report.metrics.metrics {
        let prior = previous.and_then(|p| p.metrics.get(&entry.name));
        match &entry.value {
            MetricValue::Counter(v) => {
                let delta = match prior {
                    Some(MetricValue::Counter(p)) => format!("+{}", v.saturating_sub(*p)),
                    _ => String::new(),
                };
                println!("{:40} {v:>16} {delta:>12}", entry.name);
            }
            MetricValue::Gauge(v) => {
                let delta = match prior {
                    Some(MetricValue::Gauge(p)) => format!("{:+}", v - p),
                    _ => String::new(),
                };
                println!("{:40} {v:>16} {delta:>12}", entry.name);
            }
            MetricValue::Histogram(h) => {
                let delta = match prior {
                    Some(MetricValue::Histogram(p)) => {
                        format!("+{}", h.count.saturating_sub(p.count))
                    }
                    _ => String::new(),
                };
                println!(
                    "{:40} {:>16} {delta:>12}  (mean {:.0} ns)",
                    entry.name,
                    format!("n={}", h.count),
                    h.mean()
                );
                // One sub-line per occupied log2 bucket: [2^i, 2^(i+1)).
                for &(bucket, count) in &h.buckets {
                    println!("{:40}   [2^{bucket:<2} ns ..) {count:>10}", "");
                }
            }
        }
    }
}

/// `diff`: structural comparison of two artifacts.
fn cmd_diff(args: Vec<String>) -> Result<ExitCode, String> {
    let [a_path, b_path] = args.as_slice() else {
        return Err("diff needs exactly two artifact paths".into());
    };
    let (a, _) = ScenarioArtifact::load(Path::new(a_path)).map_err(|e| format!("{a_path}: {e}"))?;
    let (b, _) = ScenarioArtifact::load(Path::new(b_path)).map_err(|e| format!("{b_path}: {e}"))?;
    let mut differences = 0_usize;
    let mut diff = |label: &str, left: String, right: String| {
        if left != right {
            differences += 1;
            println!("  {label}:\n    a: {left}\n    b: {right}");
        }
    };
    println!("diff {a_path} {b_path}");
    diff("scenario", a.spec.name.clone(), b.spec.name.clone());
    diff("seed", a.spec.seed.to_string(), b.spec.seed.to_string());
    diff("ticks", a.spec.ticks.to_string(), b.spec.ticks.to_string());
    diff(
        "tenants",
        a.spec.tenants.len().to_string(),
        b.spec.tenants.len().to_string(),
    );
    diff(
        "spec (full)",
        serde::json::to_string(&a.spec),
        serde::json::to_string(&b.spec),
    );
    diff(
        "trace digest (recorded traffic)",
        format!("{:016x}", ecovisor::digest(&a.trace)),
        format!("{:016x}", ecovisor::digest(&b.trace)),
    );
    diff(
        "request count",
        a.expected.request_count.to_string(),
        b.expected.request_count.to_string(),
    );
    diff(
        "event count",
        a.expected.event_count.to_string(),
        b.expected.event_count.to_string(),
    );
    diff(
        "totals digest",
        format!("{:016x}", a.expected.totals_digest),
        format!("{:016x}", b.expected.totals_digest),
    );
    diff(
        "events digest",
        format!("{:016x}", a.expected.events_digest),
        format!("{:016x}", b.expected.events_digest),
    );
    for (oa, ob) in a.expected.apps.iter().zip(b.expected.apps.iter()) {
        diff(
            &format!("totals[{}]", oa.name),
            format!("{:?}", oa.totals),
            format!("{:?}", ob.totals),
        );
    }
    if differences == 0 {
        println!("  identical (specs, traffic shape, digests, totals)");
    }
    Ok(ExitCode::SUCCESS)
}

// ----------------------------------------------------------------------
// Shared plumbing
// ----------------------------------------------------------------------

fn parse_codec(s: &str) -> Result<WireCodec, String> {
    match s {
        "json" => Ok(WireCodec::Json),
        "binary" | "bin" => Ok(WireCodec::Binary),
        other => Err(format!("unknown codec `{other}` (json|binary)")),
    }
}

/// Expands file/directory arguments into a sorted artifact list.
fn collect_artifacts(args: &[String]) -> Result<Vec<PathBuf>, String> {
    if args.is_empty() {
        return Err("no artifact paths given".into());
    }
    let mut paths = Vec::new();
    for arg in args {
        let path = PathBuf::from(arg);
        if path.is_dir() {
            let mut found =
                artifacts_in_dir(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            if found.is_empty() {
                return Err(format!("{}: no artifacts in directory", path.display()));
            }
            paths.append(&mut found);
        } else if is_artifact_path(&path) {
            paths.push(path);
        } else {
            return Err(format!(
                "{}: not an artifact (*.scn.json / *.scn.bin) or directory",
                path.display()
            ));
        }
    }
    Ok(paths)
}
