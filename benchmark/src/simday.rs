//! `sim-day`: no sockets and no wire codec. A worker child loads the
//! recorded thousand-tenant day once and replays it over and over
//! through `ShardedEcovisor::replay_trace_from`; the parent reads the
//! child's CPU and memory from `/proc` around it.
//!
//! 1000 tenants × 12 ticks: settlement is nearly all of a replayed day,
//! so transport and codec changes must leave this workload flat while
//! settlement, telemetry and snapshot changes show here.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

use ecoharness::{build_ecovisor, AppOutcome, ScenarioArtifact};
use ecovisor::obs::ObsHub;
use ecovisor::{AppId, Ecovisor, ShardedEcovisor, Snapshot};

use crate::child::{self, arg, ChildProc};
use crate::quiet::{self, Slice};
use crate::report::{Metrics, Outcome};
use crate::trace::Tracer;
use crate::wire::MAX_WALK_SPANS;
use crate::{process, stats, Shape};

/// The recorded day, relative to the root of the checkout.
pub const ARTIFACT: &str = "corpus/thousand-tenants.scn.bin";
/// The tick whose snapshot is restored: the middle of the day.
const SNAPSHOT_TICK: u64 = 6;

fn failed(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// The loaded day and what the worker needs to replay and check it.
struct Day {
    artifact: ScenarioArtifact,
}

impl Day {
    fn ticks(&self) -> u64 {
        self.artifact.spec.ticks
    }

    fn build(&self) -> (Ecovisor, Vec<AppId>) {
        build_ecovisor(&self.artifact.spec).expect("recorded spec builds")
    }

    /// Whether `eco` settled exactly the recorded per-tenant totals.
    fn settled_as_recorded(&self, eco: &Ecovisor, ids: &[AppId]) -> bool {
        let expected = &self.artifact.expected;
        let apps: Vec<AppOutcome> = expected
            .apps
            .iter()
            .zip(ids)
            .map(|(o, &app)| AppOutcome {
                app,
                name: o.name.clone(),
                totals: eco.app_totals(app).expect("registered"),
            })
            .collect();
        ecovisor::digest(&apps) == expected.totals_digest
    }

    /// One day through the deployment wrapper; returns its wall ms and
    /// whether it settled as recorded. The build is not timed.
    fn replay_sharded(&self) -> (f64, bool) {
        let (eco, ids) = self.build();
        let shared = ShardedEcovisor::new(eco);
        let started = Instant::now();
        std::hint::black_box(shared.replay_trace_from(&self.artifact.trace, 0, self.ticks()));
        let took = ms(started);
        (took, self.settled_as_recorded(&shared.into_inner(), &ids))
    }

    /// The day replayed by hand — recorded batches, then
    /// `ShardedEcovisor::tick()` — so that each settlement can be timed
    /// from outside. Returns tick ns and whether the totals match.
    fn replay_ticking(&self, hub: Option<std::sync::Arc<ObsHub>>) -> (Vec<f64>, bool) {
        let (mut eco, ids) = self.build();
        if let Some(hub) = hub {
            eco.attach_obs(hub);
        }
        let shared = ShardedEcovisor::new(eco);
        let mut entries = self.artifact.trace.entries.iter().peekable();
        let mut tick_ns = Vec::with_capacity(self.ticks() as usize);
        for tick in 0..self.ticks() {
            while let Some(entry) = entries.next_if(|e| e.tick <= tick) {
                std::hint::black_box(shared.dispatch_batch(&entry.batch));
            }
            let started = Instant::now();
            std::hint::black_box(shared.tick());
            tick_ns.push(started.elapsed().as_nanos() as f64);
        }
        (
            tick_ns,
            self.settled_as_recorded(&shared.into_inner(), &ids),
        )
    }

    /// The snapshot of tick [`SNAPSHOT_TICK`], as bytes.
    fn midday_snapshot(&self) -> Vec<u8> {
        let (mut eco, _) = self.build();
        eco.replay_trace_from(&self.artifact.trace, 0, SNAPSHOT_TICK);
        eco.snapshot().to_bytes()
    }
}

/// Worker child: loads the day, then answers `warm SECONDS`,
/// `replay SECONDS` and `walk SECONDS TRACEFILE`.
pub fn work() -> io::Result<()> {
    let started = Instant::now();
    let (artifact, _) = ScenarioArtifact::load(Path::new(ARTIFACT))
        .map_err(|e| failed(format!("{ARTIFACT}: {e}")))?;
    let load_ms = ms(started);
    let day = Day { artifact };
    let started = Instant::now();
    std::hint::black_box(day.build());
    let build_ms = ms(started);
    let trace = &day.artifact.trace;
    println!(
        "READY {load_ms} {build_ms} {} {}",
        trace.entries.len(),
        trace.request_count()
    );

    child::command_loop(|command, args| match command {
        // `ok`: days replayed, unmeasured, for SECONDS.
        "warm" => {
            let until = Instant::now() + Duration::from_secs_f64(arg(args, 0, command)?);
            let mut ok = day.replay_sharded().1;
            while Instant::now() < until {
                ok &= day.replay_sharded().1;
            }
            Ok(u8::from(ok).to_string())
        }
        // `ok (D day_ms cpu_s | T tick_ns | R restore_ms)…`: cycles of
        // five replayed days, one day ticked by hand and two restores,
        // back to back for SECONDS — so that all three meet the same
        // mix of quiet and noisy moments. `cpu_s` is this process's
        // CPU from before the day's world build to after the day.
        "replay" => {
            let until = Instant::now() + Duration::from_secs_f64(arg(args, 0, command)?);
            let own_cpu = || process::cpu_s(std::process::id());
            let midday = day.midday_snapshot();
            let (mut reply, mut ok) = (String::new(), true);
            while reply.is_empty() || Instant::now() < until {
                for _ in 0..5 {
                    let cpu_before = own_cpu()?;
                    let (took, settled) = day.replay_sharded();
                    let _ = write!(reply, " D {took} {}", own_cpu()? - cpu_before);
                    ok &= settled;
                }
                let (tick_ns, settled) = day.replay_ticking(None);
                ok &= settled;
                for ns in tick_ns {
                    let _ = write!(reply, " T {ns}");
                }
                for _ in 0..2 {
                    let (took, mut eco) = child::timed_restore(&midday, || day.build().0)?;
                    let _ = write!(reply, " R {took}");
                    // The restored state must finish the day exactly as
                    // the recording did.
                    eco.replay_trace_from(trace, SNAPSHOT_TICK, day.ticks());
                    ok &= day.settled_as_recorded(&eco, &eco.app_ids());
                }
            }
            Ok(format!("{}{reply}", u8::from(ok)))
        }
        // `ok name=value:n…`
        "walk" => {
            let mut m = Metrics::default();
            m.put("harness.artifact_load_ms", load_ms, 1);
            m.put("harness.build_ecovisor_ms", build_ms, 1);
            let path: String = arg(args, 1, command)?;
            let ok = walk(&day, arg(args, 0, command)?, Path::new(&path), &mut m)?;
            Ok(format!("{} {}", u8::from(ok), m.to_words()))
        }
        other => Err(failed(format!("unknown command `{other}`"))),
    })
}

/// The stage walk: the day on a plain `Ecovisor`, mirroring
/// `replay_trace_from`'s loop with a span around every call, for
/// `seconds` or until `MAX_WALK_SPANS` are recorded; then the layers
/// only a traced run looks at.
fn walk(day: &Day, seconds: f64, trace_file: &Path, m: &mut Metrics) -> io::Result<bool> {
    let trace = &day.artifact.trace;
    let ticks = day.ticks();
    let mut t = Tracer::new(Instant::now());
    let mut ok = true;
    let until = Instant::now() + Duration::from_secs_f64(seconds);
    let (mut dispatch_day_ms, mut settle_day_ms, mut walked_day_ms) = (vec![], vec![], vec![]);
    let mut frames_per_day = 0;
    let mut days = 0u64;
    while days == 0 || (Instant::now() < until && t.spans().len() < MAX_WALK_SPANS) {
        let (mut eco, ids) = day.build();
        let first_span = t.spans().len();
        let started = Instant::now();
        let mut entries = trace.entries.iter().peekable();
        frames_per_day = 0;
        for tick in 0..ticks {
            while let Some(entry) = entries.next_if(|e| e.tick <= tick) {
                let root = t.begin("request", None, days);
                t.child("dispatch.batch", root, days, || {
                    std::hint::black_box(eco.dispatch_batch(&entry.batch))
                });
                t.end(root);
            }
            let root = t.begin("tick", None, days);
            t.child("ecovisor.begin_tick", root, days, || eco.begin_tick());
            t.child("ecovisor.settle_tick", root, days, || {
                std::hint::black_box(eco.settle_tick());
            });
            t.child("event.take_frames", root, days, || {
                for app in eco.app_ids() {
                    frames_per_day += usize::from(eco.take_event_frame(app).is_some());
                }
            });
            t.child("ecovisor.advance_clock", root, days, || eco.advance_clock());
            t.end(root);
        }
        for entry in entries {
            std::hint::black_box(eco.dispatch_batch(&entry.batch));
        }
        walked_day_ms.push(ms(started));
        ok &= day.settled_as_recorded(&eco, &ids);
        let day_sum_ms = |name: &str| {
            t.spans()[first_span..]
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.duration_ns() as f64 / 1e6)
                .sum::<f64>()
        };
        dispatch_day_ms.push(day_sum_ms("dispatch.batch"));
        settle_day_ms.push(day_sum_ms("ecovisor.settle_tick"));
        days += 1;
    }

    let own = t.self_times();
    let p50 = |span: &str| own.p50(span);
    let n_days = days as usize;
    let (batch_ns, n) = p50("dispatch.batch");
    m.put("dispatch.batch_ns", batch_ns, n);
    let requests = trace.request_count() as f64;
    m.put(
        "dispatch.ns_per_request",
        stats::median(&dispatch_day_ms) * 1e6 / requests,
        n_days,
    );
    m.put("dispatch.day_ms", stats::median(&dispatch_day_ms), n_days);
    m.put("dispatch.batches_per_day", trace.entries.len() as f64, 1);
    m.put("dispatch.requests_per_day", requests, 1);
    let (settle_ns, n) = p50("ecovisor.settle_tick");
    m.put("ecovisor.settle_tick_p50_us", settle_ns / 1e3, n);
    m.put(
        "ecovisor.settle_day_ms",
        stats::median(&settle_day_ms),
        n_days,
    );
    m.put(
        "ecovisor.settle_us_per_tenant_tick",
        settle_ns / 1e3 / day.artifact.spec.tenants.len() as f64,
        n,
    );
    for (metric, span) in [
        ("ecovisor.begin_tick_ns", "ecovisor.begin_tick"),
        ("ecovisor.advance_clock_ns", "ecovisor.advance_clock"),
    ] {
        let (v, n) = p50(span);
        m.put(metric, v, n);
    }
    let (take_ns, n) = p50("event.take_frames");
    m.put("event.take_frames_us_per_tick", take_ns / 1e3, n);
    m.put("event.frames_per_day", frames_per_day as f64, 1);
    m.put(
        "trace.walked_day_ms",
        quiet::fastest(&walked_day_ms),
        n_days,
    );

    // The wrapper's cost: the same day through `ShardedEcovisor` and
    // through the plain `Ecovisor`, alternating.
    let (mut sharded, mut plain) = (vec![], vec![]);
    for _ in 0..n_days.clamp(3, 9) {
        let (took, settled) = day.replay_sharded();
        sharded.push(took);
        ok &= settled;
        let (mut eco, ids) = day.build();
        let started = Instant::now();
        std::hint::black_box(eco.replay_trace_from(trace, 0, ticks));
        plain.push(ms(started));
        ok &= day.settled_as_recorded(&eco, &ids);
    }
    m.put(
        "shard.overhead_ratio",
        stats::median(&sharded) / stats::median(&plain),
        sharded.len(),
    );

    // Lock and barrier waits as the program's own registry saw one
    // hand-ticked day.
    let hub = ObsHub::new();
    ok &= day.replay_ticking(Some(hub.clone())).1;
    let obs = hub.snapshot();
    for (metric, histogram) in [
        (
            "dispatch.shard_lock_wait_mean_ns",
            "dispatch.shard_lock_wait_ns",
        ),
        (
            "dispatch.cop_lock_wait_mean_ns",
            "dispatch.cop_lock_wait_ns",
        ),
        ("shard.barrier_wait_mean_ns", "settle.barrier_wait_ns"),
    ] {
        m.put_histogram_mean(metric, &obs, histogram);
    }

    // Snapshot stages at midday, each call on its own.
    let (mut capture, mut encode, mut decode, mut apply) = (vec![], vec![], vec![], vec![]);
    let (mut source, _) = day.build();
    source.replay_trace_from(trace, 0, SNAPSHOT_TICK);
    let mut bytes = Vec::new();
    for _ in 0..5 {
        let started = Instant::now();
        let snap = source.snapshot();
        capture.push(ms(started));
        let started = Instant::now();
        bytes = snap.to_bytes();
        encode.push(ms(started));
        let started = Instant::now();
        let decoded = Snapshot::from_bytes(&bytes).map_err(|e| failed(e.to_string()))?;
        decode.push(ms(started));
        let (mut target, _) = day.build();
        let started = Instant::now();
        target
            .apply_snapshot(&decoded)
            .map_err(|e| failed(e.to_string()))?;
        apply.push(ms(started));
    }
    m.put(
        "snapshot.capture_ms",
        stats::median(&capture),
        capture.len(),
    );
    m.put("snapshot.encode_ms", stats::median(&encode), encode.len());
    m.put("snapshot.decode_ms", stats::median(&decode), decode.len());
    m.put("snapshot.apply_ms", stats::median(&apply), apply.len());
    m.put("snapshot.bytes", bytes.len() as f64, 1);

    if let Some(dir) = trace_file.parent() {
        std::fs::create_dir_all(dir)?;
    }
    t.write_json(&mut io::BufWriter::new(std::fs::File::create(trace_file)?))?;
    Ok(ok)
}

fn spawn_worker() -> io::Result<(ChildProc, Vec<f64>)> {
    let (child, ready) = ChildProc::spawn(&["--child".into(), "worker".into()])?;
    let ready = ready.iter().filter_map(|w| w.parse().ok()).collect();
    Ok((child, ready))
}

/// What a `replay` reply holds.
#[derive(Default)]
struct Replayed {
    ok: bool,
    /// One slice per replayed day. The world build before a day is not
    /// in its seconds but is in its CPU.
    days: Vec<Slice>,
    tick_ns: Vec<f64>,
    restore_ms: Vec<f64>,
}

fn parse_replay(reply: &[String], requests: u64, batches: u64) -> io::Result<Replayed> {
    let mut out = Replayed {
        ok: reply.first().is_some_and(|w| w == "1"),
        ..Replayed::default()
    };
    let mut words = reply.iter().skip(1);
    let number = |words: &mut dyn Iterator<Item = &String>| {
        words
            .next()
            .and_then(|w| w.parse::<f64>().ok())
            .ok_or_else(|| failed("malformed replay reply".into()))
    };
    while let Some(tag) = words.next() {
        match tag.as_str() {
            "D" => {
                let (day_ms, cpu_s) = (number(&mut words)?, number(&mut words)?);
                out.days.push(Slice {
                    seconds: day_ms / 1e3,
                    requests,
                    batches,
                    cpu_s,
                    op_us: vec![day_ms * 1e3],
                });
            }
            "T" => out.tick_ns.push(number(&mut words)?),
            "R" => out.restore_ms.push(number(&mut words)?),
            other => return Err(failed(format!("unknown tag `{other}` in a replay reply"))),
        }
    }
    Ok(out)
}

/// The untraced run: every end-to-end metric of `sim-day`.
pub fn run(shape: &Shape) -> io::Result<(Outcome, Metrics)> {
    let mut outcome = Outcome::default();
    let mut m = Metrics::default();

    // Set-up: worker spawned, artifact loaded, world built once, days
    // replayed unmeasured for the warm-up.
    let mut setup_s = Vec::with_capacity(shape.setups);
    let (mut child, ready) = loop {
        let started = Instant::now();
        let mut spawned = spawn_worker()?;
        spawned.0.ask(&format!("warm {}", shape.warmup_s))?;
        setup_s.push(started.elapsed().as_secs_f64());
        if setup_s.len() >= shape.setups {
            break spawned;
        }
        spawned.0.quit()?;
    };
    m.put("setup_s", stats::median(&setup_s), setup_s.len());
    let (batches, requests) = match ready[..] {
        [_, _, batches, requests] => (batches as u64, requests as u64),
        _ => return Err(failed(format!("worker announced {ready:?}"))),
    };

    let reply = child.ask(&format!("replay {}", shape.seconds))?;
    m.put("peak_rss_mb", process::peak_rss_mib(child.pid())?, 1);
    let replayed = parse_replay(&reply, requests, batches)?;
    outcome.check(
        replayed.ok,
        "every replayed, hand-ticked and restored day settled the recorded totals",
    );
    outcome.attempted += replayed.days.len() as u64 * batches;
    let q = quiet::summarise(&replayed.days);
    m.put("req_per_s", q.req_per_s, q.slices);
    m.put("op_p50_us", q.op_p50_us, q.ops);
    m.put(
        "server_cpu_us_per_batch",
        q.cpu_us_per_batch,
        q.batches as usize,
    );
    m.put(
        "tick_p50_us",
        quiet::fastest(&replayed.tick_ns) / 1e3,
        replayed.tick_ns.len(),
    );
    m.put(
        "restore_ms",
        quiet::fastest(&replayed.restore_ms),
        replayed.restore_ms.len(),
    );
    child.quit()?;
    Ok((outcome, m))
}

/// The traced run: a short untraced replay for the overhead ratio, then
/// the stage walk, in the worker; the spans go to `trace_file`.
pub fn run_traced(shape: &Shape, trace_file: &Path) -> io::Result<(Outcome, Metrics)> {
    let mut outcome = Outcome::default();
    let (mut child, ready) = spawn_worker()?;
    let (seconds, _) = shape.traced_pass();
    child.ask(&format!("warm {}", shape.warmup_s))?;
    let batches = ready.get(2).copied().unwrap_or(0.0) as u64;
    let replayed = parse_replay(&child.ask(&format!("replay {seconds}"))?, 0, batches)?;
    outcome.check(
        replayed.ok,
        "every replayed, hand-ticked and restored day settled the recorded totals",
    );
    let day_ms: Vec<f64> = replayed.days.iter().map(|d| d.seconds * 1e3).collect();
    outcome.attempted += day_ms.len() as u64 * batches;

    let mut reply = child.ask(&format!("walk {seconds} {}", trace_file.display()))?;
    let ok = !reply.is_empty() && reply.remove(0) == "1";
    outcome.check(
        ok,
        "the stage walk settled the recorded totals on every day",
    );
    let mut m = Metrics::from_words(&reply).map_err(failed)?;
    let walked = m.take("trace.walked_day_ms").unwrap_or(0.0);
    m.put(
        "trace.overhead_ratio",
        quiet::fastest(&day_ms) / walked,
        day_ms.len(),
    );
    child.quit()?;
    Ok((outcome, m))
}
