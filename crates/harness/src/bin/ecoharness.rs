//! `ecoharness` — record, verify, fuzz, and diff scenario artifacts.
//!
//! ```text
//! ecoharness list [DIR]
//! ecoharness record [--out DIR] [--codec json|binary]
//!                   [--checkpoint-every HOURS] [PATH ...]
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

use ecoharness::artifact::{artifacts_in_dir, codec_name, is_artifact_path, BINARY_EXT, JSON_EXT};
use ecoharness::{
    record_with_checkpoints, verify, verify_federated, verify_transport, Checkpoint,
    ScenarioArtifact,
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
        "list" => cmd_list(rest),
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
    ecoharness list [DIR]
    ecoharness record [--out DIR] [--codec json|binary]
                      [--checkpoint-every HOURS] [PATH ...]
    ecoharness record --from ARTIFACT@TICK [--out DIR] [--codec json|binary]
    ecoharness verify [--transport] [--federated] PATH [PATH ...]
    ecoharness fuzz [--seed S] [--count N] [--out DIR]
    ecoharness fuzz --soak [--seed S] [--ticks N] [--tenants N]
    ecoharness stats ADDR --app ID --token TOKEN [--watch SECONDS] [--n COUNT]
    ecoharness diff A B

Paths may be artifact files (*.scn.json / *.scn.bin) or directories.
`list` prints the artifacts in DIR (default corpus/).
`record` re-records each artifact from the spec it embeds, into --out
(default corpus/), in the encoding it was stored in (override with
--codec) and at the checkpoint cadence its embedded checkpoints show
(override with --checkpoint-every); with no paths it re-records
corpus/. A resumed artifact (NAME-resumed) re-records after its
parent, resuming from the parent's fresh recording at its base tick,
or from the parent's file beside it when the parent is not named.
To author a day, copy an artifact, edit its spec, and record it.
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
from every checkpoint, then the live evented transport); failures are
shrunk to minimal reproducers written under --out (default
fuzz-failures/) as replayable .scn.json days.
`fuzz --soak` records a long generated day (default 5000 ticks) with a
credential rotation every 97 ticks while tenants last, replays it like
`verify --transport`, and fails unless the replay is bit-identical and
the server's counters return to zero afterwards.
`stats` connects to a live ecovisor server as the given (credentialed)
app and fetches its observability report over the wire — serving-level
gauges plus the full metric registry (see docs/OBSERVABILITY.md for
the catalogue). With --watch it polls every SECONDS seconds (--n
polls, default forever) and prints the delta since the previous poll
next to each counter and histogram.";

/// `list [DIR]`: the artifacts in a directory (default `corpus/`).
fn cmd_list(args: Vec<String>) -> Result<ExitCode, String> {
    if args.len() > 1 {
        return Err("list takes at most one directory".into());
    }
    let dir = args.into_iter().next().unwrap_or_else(|| "corpus".into());
    for path in collect_artifacts(&[dir])? {
        let (artifact, codec) = load(&path)?;
        let spec = &artifact.spec;
        println!(
            "  {:24} {:6} {:3} ticks × {:3} min, {:4} tenant(s) — {}",
            spec.name,
            codec_name(codec),
            spec.ticks,
            spec.tick_minutes,
            spec.tenants.len(),
            spec.description
        );
    }
    Ok(ExitCode::SUCCESS)
}

/// `record`: re-record artifacts from the specs they embed, or resume
/// one from an embedded checkpoint (`--from ARTIFACT@TICK`).
fn cmd_record(args: Vec<String>) -> Result<ExitCode, String> {
    let mut out = PathBuf::from("corpus");
    let mut forced_codec: Option<WireCodec> = None;
    let mut checkpoint_hours: Option<u64> = None;
    let mut from: Option<String> = None;
    let mut path_args: Vec<String> = Vec::new();
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
            path => path_args.push(path.to_string()),
        }
    }

    if let Some(from) = from {
        if checkpoint_hours.is_some() || !path_args.is_empty() {
            return Err("--from does not combine with paths or --checkpoint-every".into());
        }
        return cmd_record_resumed(&from, &out, forced_codec);
    }

    if path_args.is_empty() {
        path_args.push("corpus".into());
    }
    let mut days = collect_artifacts(&path_args)?
        .into_iter()
        .map(|path| load(&path).map(|(artifact, codec)| (path, artifact, codec)))
        .collect::<Result<Vec<_>, _>>()?;
    // Parents first: a resumed day re-records from its parent's fresh
    // recording.
    days.sort_by_key(|(_, artifact, _)| artifact.base.is_some());
    let mut recorded: Vec<ScenarioArtifact> = Vec::new();
    for (path, artifact, codec) in days {
        let name = artifact.spec.name.clone();
        let fresh = match &artifact.base {
            Some(base) => {
                let parent = parent_of(&path, &name, &recorded)?;
                ecoharness::resume(&parent, base.tick).map_err(|e| format!("resume {name}: {e}"))?
            }
            None => {
                let spec = &artifact.spec;
                let every = match checkpoint_hours {
                    None => artifact
                        .checkpoint_cadence()
                        .map_err(|e| format!("{}: {e}", path.display()))?,
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
                record_with_checkpoints(spec, every).map_err(|e| format!("record {name}: {e}"))?
            }
        };
        let written = fresh
            .write_to_dir(&out, forced_codec.unwrap_or(codec))
            .map_err(|e| format!("write {name}: {e}"))?;
        println!(
            "recorded {name}: {} ticks, {} batches / {} requests, {} event frames, \
             {} checkpoint(s) → {}",
            fresh.spec.ticks,
            fresh.trace.entries.len(),
            fresh.expected.request_count,
            fresh.trace.events.len(),
            fresh.checkpoints.len(),
            written.display()
        );
        recorded.push(fresh);
    }
    Ok(ExitCode::SUCCESS)
}

/// The parent a resumed day `name` (`PARENT-resumed`) continues: this
/// run's fresh recording of it, else its file beside `path`.
fn parent_of(
    path: &Path,
    name: &str,
    recorded: &[ScenarioArtifact],
) -> Result<ScenarioArtifact, String> {
    let parent = name
        .strip_suffix("-resumed")
        .ok_or_else(|| format!("{}: a resumed day is named PARENT-resumed", path.display()))?;
    if let Some(fresh) = recorded.iter().find(|a| a.spec.name == parent) {
        return Ok(fresh.clone());
    }
    [JSON_EXT, BINARY_EXT]
        .iter()
        .map(|ext| path.with_file_name(format!("{parent}.{ext}")))
        .find(|p| p.exists())
        .ok_or_else(|| format!("{}: no parent `{parent}` beside it", path.display()))
        .and_then(|p| load(&p).map(|(artifact, _)| artifact))
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
    let (parent, parent_codec) = load(Path::new(path))?;
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
        let (artifact, codec) = load(path)?;
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

/// `fuzz`: generate/check/shrink campaigns and soak days.
fn cmd_fuzz(args: Vec<String>) -> Result<ExitCode, String> {
    let mut soak = false;
    let mut opts = ecoharness::FuzzOptions {
        out: Some(PathBuf::from("fuzz-failures")),
        ..Default::default()
    };
    let mut soak_opts = ecoharness::SoakOptions::default();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--soak" => soak = true,
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
            "--out" => opts.out = Some(PathBuf::from(value("--out")?)),
            other => return Err(format!("unknown fuzz argument `{other}`")),
        }
    }
    if soak {
        let report = ecoharness::fuzz::soak(&soak_opts).map_err(|e| e.to_string())?;
        let verify = &report.verify;
        println!(
            "soak: {} tick(s) × {} tenant(s), {} request(s), {} event frame(s)",
            soak_opts.ticks, soak_opts.tenants, report.requests, report.frames
        );
        println!(
            "{} {} ({} checks)",
            if verify.passed() { "PASS" } else { "FAIL" },
            verify.scenario,
            verify.checks.len()
        );
        for check in verify.failures() {
            println!("     ✗ {}: {}", check.label, check.detail);
        }
        return Ok(if verify.passed() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }
    let started = std::time::Instant::now();
    let report = ecoharness::fuzz::run(&opts, None).map_err(|e| e.to_string())?;
    let secs = started.elapsed().as_secs_f64();
    println!(
        "fuzz: seed {:#018x}, {} candidate(s), {} passed, {} failed in {secs:.1} s \
         ({:.0} candidates/min)",
        report.seed,
        report.generated,
        report.passed,
        report.failures.len(),
        report.generated as f64 * 60.0 / secs
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
    let (a, _) = load(Path::new(a_path))?;
    let (b, _) = load(Path::new(b_path))?;
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
    // A checkpoint is named by its tick and its snapshot's digest: two
    // days can agree on every row above and still embed different state.
    let checkpoints = |cps: &[Checkpoint]| match cps {
        [] => "none".to_string(),
        _ => cps
            .iter()
            .map(|c| format!("{}@{:016x}", c.tick, c.digest))
            .collect::<Vec<_>>()
            .join(" "),
    };
    diff(
        "checkpoints (tick@digest)",
        checkpoints(&a.checkpoints),
        checkpoints(&b.checkpoints),
    );
    diff(
        "base checkpoint (tick@digest)",
        checkpoints(a.base.as_slice()),
        checkpoints(b.base.as_slice()),
    );
    if differences == 0 {
        println!("  identical (specs, traffic shape, digests, totals, checkpoints)");
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

/// Loads an artifact, naming its path in any error.
fn load(path: &Path) -> Result<(ScenarioArtifact, WireCodec), String> {
    ScenarioArtifact::load(path).map_err(|e| format!("{}: {e}", path.display()))
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
