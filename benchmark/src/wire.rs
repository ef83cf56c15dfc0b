//! The three wire workloads: a live pass against a server child over
//! loopback TCP, and an in-process reference that replays what the live
//! pass did — the correctness oracle, and with tracing on the stage walk
//! that splits the server's CPU per batch into layers.
//!
//! Closed loop, depth 16: each generator thread owns one connection,
//! writes a burst of [`BURST`] pre-encoded frames, reads the [`BURST`]
//! responses, and repeats. The traffic crosses the host's loopback
//! interface, not a real link.

use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use ecovisor::obs::MetricsSnapshot;
use ecovisor::proto::{Frame, RequestBatch};
use ecovisor::{EnergyClient, RemoteEcovisorClient, ShardedEcovisor, WireCodec};

use crate::child::ChildProc;
use crate::fixture::{self, ConnPlan, EncodedBurst, EncodedConn, BURST, CONTROL_PHASES};
use crate::quiet::{self, Slice};
use crate::rawclient::RawConn;
use crate::report::{Metrics, Outcome};
use crate::trace::Tracer;
use crate::{process, stats, Shape, Workload};

/// Bursts every `wire-control` connection completes between two ticks.
const BURSTS_PER_ROUND: usize = 64;
/// Settlements of the child's private idle world between two slices of
/// a query workload.
const IDLE_TICKS_PER_SLICE: usize = 8;
/// Spans after which a stage walk stops early: enough for a steady
/// median, and a span file of tens of megabytes, not hundreds.
pub const MAX_WALK_SPANS: usize = 200_000;

fn failed(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Generator connections: one per CPU of the host, at most four.
pub fn connections() -> usize {
    crate::host_cpus().min(4)
}

/// Pushed event frames seen on one connection: how many, and an FNV-1a
/// fold of their payload bytes in arrival order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct EventTally {
    frames: u64,
    hash: u64,
}

impl EventTally {
    const EMPTY: EventTally = EventTally {
        frames: 0,
        hash: 0xcbf2_9ce4_8422_2325,
    };

    fn push(&mut self, payload: &[u8]) {
        self.frames += 1;
        for &b in payload {
            self.hash = (self.hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// One burst: every response must equal its reference bytes. A frame
/// that does not is decoded — once per tick at most — and accepted only
/// as a pushed event.
fn burst(conn: &mut RawConn, enc: &EncodedBurst, events: &mut EventTally) -> io::Result<()> {
    conn.send(&enc.wire)?;
    let mut answered = 0;
    while answered < enc.responses.len() {
        let payload = conn.next_frame()?;
        if payload == enc.responses[answered].as_slice() {
            answered += 1;
            continue;
        }
        match WireCodec::Binary.decode::<Frame>(payload) {
            Ok(Frame::Event(_)) => events.push(payload),
            other => {
                return Err(failed(format!(
                    "response {answered} differs from the in-process reference: {other:?}"
                )))
            }
        }
    }
    Ok(())
}

/// A set-up server child with its connections open and verified.
struct Live {
    workload: Workload,
    seed: u64,
    child: ChildProc,
    addr: SocketAddr,
    conns: Vec<RawConn>,
    plans: Vec<ConnPlan>,
    encoded: Vec<EncodedConn>,
    events: Vec<EventTally>,
    /// `wire-control` rounds (burst phase, then a tick) completed.
    rounds: u64,
    connect_us: Vec<f64>,
    /// Frames written after the hellos, counted by the generator.
    frames_sent: u64,
}

impl Live {
    /// Workload start → first verified response on every connection:
    /// inputs generated and encoded, reference responses computed,
    /// child spawned and serving, hellos accepted, one burst checked.
    fn set_up(workload: Workload, seed: u64) -> io::Result<Live> {
        let (eco, tenants) = fixture::build(seed);
        let plans = fixture::plan(workload, seed, &tenants, connections());
        let encoded = fixture::encode(&plans, eco);
        let (child, ready) = ChildProc::spawn(&[
            "--child".into(),
            "server".into(),
            "--seed".into(),
            seed.to_string(),
        ])?;
        let addr: SocketAddr = ready
            .first()
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| failed(format!("server child announced no address: {ready:?}")))?;
        let mut live = Live {
            workload,
            seed,
            child,
            addr,
            conns: Vec::new(),
            plans,
            events: vec![EventTally::EMPTY; encoded.len()],
            encoded,
            rounds: 0,
            connect_us: Vec::new(),
            frames_sent: 0,
        };
        for enc in &live.encoded {
            let (mut conn, took) = RawConn::connect(addr, enc.app)?;
            live.connect_us.push(took.as_secs_f64() * 1e6);
            if workload == Workload::WireControl {
                let subscribe = fixture::subscribe_batch(enc.app);
                conn.send(&fixture::framed(&fixture::encode_request(&subscribe)))?;
                live.frames_sent += 1;
                match WireCodec::Binary.decode::<Frame>(conn.next_frame()?) {
                    Ok(Frame::Response(r)) if r.responses.iter().all(|x| !x.is_err()) => {}
                    other => return Err(failed(format!("subscription refused: {other:?}"))),
                }
            }
            live.conns.push(conn);
        }
        live.burst_all(0)?;
        Ok(live)
    }

    /// One unmeasured burst of `phase` on every connection.
    fn burst_all(&mut self, phase: usize) -> io::Result<()> {
        for ((conn, enc), events) in self
            .conns
            .iter_mut()
            .zip(&self.encoded)
            .zip(&mut self.events)
        {
            burst(conn, &enc.phases[phase], events)?;
            self.frames_sent += BURST as u64;
        }
        Ok(())
    }

    fn tear_down(self) -> io::Result<()> {
        drop(self.conns);
        self.child.quit()
    }
}

/// What one measured window produced.
#[derive(Debug, Default)]
struct Window {
    wall_s: f64,
    slices: Vec<Slice>,
    /// Settlements of the served world (`wire-control` rounds), in µs.
    live_tick_us: Vec<f64>,
    /// Settlements of the child's private, idle world, in µs.
    idle_tick_us: Vec<f64>,
    restore_ms: Vec<f64>,
    batches: u64,
    server_cpu_s: f64,
    gen_cpu_s: f64,
}

struct ThreadOut {
    /// `(slice it completed in, µs)` of every burst.
    bursts: Vec<(usize, f64)>,
    live_tick_us: Vec<f64>,
    idle_tick_us: Vec<f64>,
    restore_ms: Vec<f64>,
    /// `(slice, seconds)` the load stood still while the child settled
    /// its idle world and restored: not part of the slice's load.
    paused: Vec<(usize, f64)>,
    error: Option<io::Error>,
    tracer: Tracer,
}

/// What thread 0 had the child do between two rounds.
#[derive(Default)]
struct BetweenRounds {
    live_tick_ns: Option<f64>,
    idle_tick_us: Vec<f64>,
    restore_ms: Option<f64>,
    /// Seconds the idle settlements and the restore took together.
    paused_s: f64,
}

/// Between two rounds the load is paused and the child works alone:
/// on `wire-control` it settles the served world (every round), and
/// once per slice, on every wire workload, it restores the as-built
/// snapshot — after settling its private idle world a few times on the
/// query workloads, whose served world must not move. Spread over the
/// whole window like this, settlement and restore meet the same mix of
/// quiet and noisy moments as the load does.
fn between_rounds(
    child: &mut ChildProc,
    control: bool,
    idle_done_for: &mut Option<usize>,
    slice: usize,
) -> io::Result<BetweenRounds> {
    let mut work = BetweenRounds::default();
    if control {
        work.live_tick_ns = child.ask_numbers("tick")?.first().copied();
    }
    if *idle_done_for != Some(slice) {
        *idle_done_for = Some(slice);
        let ticks = if control { 0 } else { IDLE_TICKS_PER_SLICE };
        let asked = Instant::now();
        let reply = child.ask_numbers(&format!("idle {ticks}"))?;
        work.paused_s = asked.elapsed().as_secs_f64();
        match reply.split_first().zip(reply.split_last()) {
            Some(((&ok, _), (&ms, _))) if ok == 1.0 && reply.len() == ticks + 2 => {
                work.idle_tick_us = reply[1..=ticks].iter().map(|ns| ns / 1e3).collect();
                work.restore_ms = Some(ms);
            }
            _ => {
                return Err(failed(format!(
                    "the restored world does not carry the as-built totals: {reply:?}"
                )))
            }
        }
    }
    Ok(work)
}

/// Runs the closed loop for `seconds`, cut into `slices` equal slices.
/// When `trace` is on, every burst and every tick becomes a root span.
fn run_window(
    live: &mut Live,
    seconds: f64,
    slices: usize,
    trace: &mut Tracer,
) -> io::Result<Window> {
    let control = live.workload == Workload::WireControl;
    let slice_len = seconds / slices as f64;
    let first_round = live.rounds;
    let barrier = Barrier::new(live.conns.len());
    let stop = AtomicBool::new(false);
    let server_pid = live.child.pid();
    let mut ticker = Some(&mut live.child);

    let gen_cpu_before = process::cpu_s(std::process::id())?;
    // The server's CPU clock read at every slice boundary, by this
    // thread, which otherwise sleeps through the window.
    let mut cpu_marks = vec![process::cpu_s(server_pid)?];
    let started = Instant::now();
    let end = started + Duration::from_secs_f64(seconds);
    let slice_of =
        |at: Instant| (((at - started).as_secs_f64() / slice_len) as usize).min(slices - 1);

    let outs: Vec<ThreadOut> = std::thread::scope(|scope| -> io::Result<Vec<ThreadOut>> {
        let handles: Vec<_> = live
            .conns
            .iter_mut()
            .zip(&live.encoded)
            .zip(&mut live.events)
            .enumerate()
            .map(|(i, ((conn, enc), events))| {
                let mut ticker = if i == 0 { ticker.take() } else { None };
                let (barrier, stop, slice_of) = (&barrier, &stop, &slice_of);
                let tracer = if trace.is_on() {
                    Tracer::new(started)
                } else {
                    Tracer::off()
                };
                scope.spawn(move || {
                    let mut out = ThreadOut {
                        bursts: Vec::new(),
                        live_tick_us: Vec::new(),
                        idle_tick_us: Vec::new(),
                        restore_ms: Vec::new(),
                        paused: Vec::new(),
                        error: None,
                        tracer,
                    };
                    let mut timed_burst = |out: &mut ThreadOut, phase: &EncodedBurst, req: u64| {
                        let span = out.tracer.begin("burst", None, req);
                        let sent = Instant::now();
                        let result = burst(conn, phase, events);
                        let done = Instant::now();
                        out.tracer.end(span);
                        match result {
                            Ok(()) => out
                                .bursts
                                .push((slice_of(done), (done - sent).as_secs_f64() * 1e6)),
                            Err(e) => out.error = Some(e),
                        }
                        out.error.is_none()
                    };
                    // Lock-step rounds: every thread runs its share of
                    // the round — 64 bursts on `wire-control`, bursts
                    // to the end of the slice otherwise — then thread 0
                    // has the child do the between-rounds work, and
                    // nobody starts the next round before it is done.
                    let mut idle_done_for = None;
                    for round in first_round.. {
                        let phase = &enc.phases[round as usize % enc.phases.len()];
                        let slice = slice_of(Instant::now());
                        let mut bursts = 0;
                        while if control {
                            bursts < BURSTS_PER_ROUND
                        } else {
                            Instant::now() < end && slice_of(Instant::now()) == slice
                        } {
                            if !timed_burst(&mut out, phase, round) {
                                stop.store(true, Ordering::SeqCst);
                                break;
                            }
                            bursts += 1;
                        }
                        barrier.wait();
                        if let Some(child) = ticker.as_mut() {
                            if !stop.load(Ordering::SeqCst) {
                                let work =
                                    between_rounds(child, control, &mut idle_done_for, slice);
                                match work {
                                    Ok(work) => {
                                        if let Some(ns) = work.live_tick_ns {
                                            out.live_tick_us.push(ns / 1e3);
                                            out.tracer.record_ending_now("tick", ns as u64, round);
                                        }
                                        out.idle_tick_us.extend(work.idle_tick_us);
                                        out.restore_ms.extend(work.restore_ms);
                                        out.paused.push((slice_of(Instant::now()), work.paused_s));
                                    }
                                    Err(e) => {
                                        out.error = Some(e);
                                        stop.store(true, Ordering::SeqCst);
                                    }
                                }
                            }
                            if Instant::now() >= end {
                                stop.store(true, Ordering::SeqCst);
                            }
                        }
                        barrier.wait();
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                    }
                    out
                })
            })
            .collect();
        for boundary in 1..slices {
            let at = started + Duration::from_secs_f64(slice_len * boundary as f64);
            std::thread::sleep(at.saturating_duration_since(Instant::now()));
            cpu_marks.push(process::cpu_s(server_pid)?);
        }
        Ok(handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect())
    })?;
    let wall_s = started.elapsed().as_secs_f64();
    cpu_marks.push(process::cpu_s(server_pid)?);

    let batch_len = fixture::batch_len(live.workload) as u64;
    let mut window = Window {
        wall_s,
        server_cpu_s: cpu_marks[slices] - cpu_marks[0],
        gen_cpu_s: process::cpu_s(std::process::id())? - gen_cpu_before,
        // The last slice runs to the real end of the window: a burst
        // (or a round) in flight at the nominal end completes inside it.
        slices: (0..slices)
            .map(|i| Slice {
                seconds: if i + 1 == slices {
                    wall_s - slice_len * (slices - 1) as f64
                } else {
                    slice_len
                },
                cpu_s: cpu_marks[i + 1] - cpu_marks[i],
                ..Slice::default()
            })
            .collect(),
        ..Window::default()
    };
    for (out, enc) in outs.into_iter().zip(&live.encoded) {
        if let Some(e) = out.error {
            return Err(e);
        }
        // Every phase of a connection carries the same number of requests.
        let per_burst = enc.phases[0].requests as u64;
        for (slice, us) in out.bursts {
            let s = &mut window.slices[slice];
            s.requests += per_burst;
            s.batches += per_burst / batch_len;
            s.op_us.push(us);
        }
        window.live_tick_us.extend(out.live_tick_us);
        window.idle_tick_us.extend(out.idle_tick_us);
        window.restore_ms.extend(out.restore_ms);
        // While paused the child works alone on one thread: its CPU
        // time is the wall time, and neither belongs to the load.
        for (slice, seconds) in out.paused {
            let s = &mut window.slices[slice];
            s.seconds -= seconds;
            s.cpu_s = (s.cpu_s - seconds).max(0.0);
        }
        trace.absorb(out.tracer);
    }
    live.rounds += window.live_tick_us.len() as u64;
    window.batches = window.slices.iter().map(|s| s.batches).sum();
    live.frames_sent += window.batches;
    Ok(window)
}

/// What the in-process reference says the live pass must have produced.
struct Reference {
    digest: u64,
    events: Vec<EventTally>,
    /// Responses that differed from the pre-computed ones: the hot
    /// loop's expectation would have been wrong.
    drifted: u64,
}

/// Replays the live pass in process on an identically built world —
/// the oracle, and when `t` is on the stage walk: every call into a
/// layer becomes a span.
///
/// `wire-control`: `live.rounds` rounds, each connection's phase burst
/// once (the setters are idempotent, so the live pass's 64 repetitions
/// leave the same state), then one settlement with the broadcast
/// hook's event take. Query workloads: the one burst of every
/// connection — once, or when walking over and over for `walk_s` or
/// until [`MAX_WALK_SPANS`] are recorded.
fn replay(live: &Live, walk_s: f64, t: &mut Tracer) -> Reference {
    let (eco, _) = fixture::build(live.seed);
    let shared = ShardedEcovisor::new(eco);
    let mut reference = Reference {
        digest: 0,
        events: vec![EventTally::EMPTY; live.plans.len()],
        drifted: 0,
    };
    let mut bursts = |t: &mut Tracer, phase: usize, req: u64| {
        for (plan, enc) in live.plans.iter().zip(&live.encoded) {
            for (batch, expected) in plan.phases[phase].iter().zip(&enc.phases[phase].responses) {
                reference.drifted += u64::from(&respond(t, &shared, batch, req) != expected);
            }
        }
    };
    if live.workload != Workload::WireControl {
        let until = Instant::now() + Duration::from_secs_f64(walk_s);
        bursts(t, 0, 0);
        for pass in 1.. {
            if !t.is_on() || Instant::now() >= until || t.spans().len() >= MAX_WALK_SPANS {
                break;
            }
            bursts(t, 0, pass);
        }
    }
    for round in 0..live.rounds {
        bursts(t, round as usize % CONTROL_PHASES, round);
        shared.with(|eco| {
            let root = t.begin("tick", None, round);
            t.child("ecovisor.begin_tick", root, round, || eco.begin_tick());
            t.child("ecovisor.settle_tick", root, round, || {
                std::hint::black_box(eco.settle_tick());
            });
            t.child("event.take_frames", root, round, || {
                for (plan, tally) in live.plans.iter().zip(&mut reference.events) {
                    if let Some(frame) = eco.take_event_frame(plan.tenant.app) {
                        tally.push(&WireCodec::Binary.encode(&Frame::Event(frame)));
                    }
                }
            });
            t.child("ecovisor.advance_clock", root, round, || {
                eco.advance_clock()
            });
            t.end(root);
        });
    }
    reference.digest = shared.read(fixture::totals_digest);
    reference
}

/// The encoded response to `batch`. When walking, the request takes
/// every stage the server runs for it, each a child of a `request`
/// root; otherwise it is dispatched and encoded, nothing more.
fn respond(t: &mut Tracer, shared: &ShardedEcovisor, batch: &RequestBatch, req: u64) -> Vec<u8> {
    use std::hint::black_box;
    if !t.is_on() {
        return WireCodec::Binary.encode(&Frame::Response(shared.dispatch_batch(batch)));
    }
    let root = t.begin("request", None, req);
    let wire = t.child("serde.encode_request", root, req, || {
        fixture::encode_request(black_box(batch))
    });
    let decoded = t.child("serde.decode_request", root, req, || {
        WireCodec::Binary.decode::<Frame>(black_box(&wire))
    });
    let decoded = match decoded {
        Ok(Frame::Request(b)) => b,
        other => panic!("a request frame decodes to itself, not {other:?}"),
    };
    let response = t.child("dispatch.batch", root, req, || {
        shared.dispatch_batch(black_box(&decoded))
    });
    let frame = Frame::Response(response);
    let out = t.child("serde.encode_response", root, req, || {
        WireCodec::Binary.encode(black_box(&frame))
    });
    t.child("serde.decode_response", root, req, || {
        black_box(WireCodec::Binary.decode::<Frame>(black_box(&out)).is_ok())
    });
    t.end(root);
    out
}

/// Checks the live pass against the reference and the server's own
/// gauges. Every check is one attempted operation.
fn verify(live: &mut Live, reference: &Reference, outcome: &mut Outcome) -> io::Result<()> {
    if live.workload == Workload::WireControl && live.rounds > 0 {
        // Event frames pushed by the last tick are still in the
        // sockets; one more burst of the same phase reads past them
        // without changing any state.
        live.burst_all((live.rounds - 1) as usize % CONTROL_PHASES)?;
    }
    let digest = live.child.ask("digest")?;
    outcome.check(
        digest.first().and_then(|d| d.parse().ok()) == Some(reference.digest),
        "server totals digest equals the in-process reference",
    );
    outcome.check(
        reference.drifted == 0,
        "reference responses equal the bytes the hot loop compared against",
    );
    outcome.check(
        live.events == reference.events,
        "pushed event frames equal the reference's, connection by connection",
    );
    let stats = live.child.ask_numbers("stats")?;
    outcome.check(
        stats.first() == Some(&(live.conns.len() as f64)) && stats.get(1) == Some(&0.0),
        "server holds exactly the generator's connections and no write backlog",
    );
    Ok(())
}

/// `shape.setups` full set-ups, each timed from nothing to the end of
/// its warm-up load; the last one is kept for the window.
fn set_up_repeatedly(workload: Workload, seed: u64, shape: &Shape) -> io::Result<(Live, Vec<f64>)> {
    let mut setup_s = Vec::with_capacity(shape.setups);
    loop {
        let started = Instant::now();
        let mut live = Live::set_up(workload, seed)?;
        run_window(&mut live, shape.warmup_s, 1, &mut Tracer::off())?;
        setup_s.push(started.elapsed().as_secs_f64());
        if setup_s.len() >= shape.setups {
            return Ok((live, setup_s));
        }
        live.tear_down()?;
    }
}

/// The untraced run: every end-to-end metric of one wire workload.
pub fn run(workload: Workload, seed: u64, shape: &Shape) -> io::Result<(Outcome, Metrics)> {
    let mut outcome = Outcome::default();
    let mut m = Metrics::default();
    let mut off = Tracer::off();
    let (mut live, setup_s) = set_up_repeatedly(workload, seed, shape)?;
    m.put("setup_s", stats::median(&setup_s), setup_s.len());

    let w = run_window(&mut live, shape.seconds, shape.slices, &mut off)?;
    m.put("peak_rss_mb", process::peak_rss_mib(live.child.pid())?, 1);
    let q = quiet::summarise(&w.slices);
    m.put("req_per_s", q.req_per_s, q.slices);
    m.put("op_p50_us", q.op_p50_us, q.ops);
    m.put(
        "server_cpu_us_per_batch",
        q.cpu_us_per_batch,
        q.batches as usize,
    );

    // Settlement and restore, both timed between rounds all through
    // the window. Only `wire-control` settles its served world, under
    // load; the query workloads settle the child's private idle twin.
    if workload == Workload::WireControl {
        m.put(
            "tick_p50_us",
            quiet::fastest(&w.live_tick_us),
            w.live_tick_us.len(),
        );
    } else {
        m.put(
            "tick_p50_us",
            quiet::fastest(&w.idle_tick_us),
            w.idle_tick_us.len(),
        );
    }
    m.put(
        "restore_ms",
        quiet::fastest(&w.restore_ms),
        w.restore_ms.len(),
    );

    let reference = replay(&live, 0.0, &mut off);
    verify(&mut live, &reference, &mut outcome)?;
    outcome.attempted += live.frames_sent;
    live.tear_down()?;
    Ok((outcome, m))
}

/// The traced run: a short untraced window, the same window again with
/// spans on, the server's own counters, and the stage walk. Returns the
/// spans of the live pass followed by those of the walk.
pub fn run_traced(
    workload: Workload,
    seed: u64,
    shape: &Shape,
) -> io::Result<(Outcome, Metrics, Tracer)> {
    let mut outcome = Outcome::default();
    let mut m = Metrics::default();
    let mut live = Live::set_up(workload, seed)?;
    m.put(
        "transport.connect_us",
        stats::median(&live.connect_us),
        live.connect_us.len(),
    );

    let (seconds, slices) = shape.traced_pass();
    let mut off = Tracer::off();
    let mut spans = Tracer::new(Instant::now());
    run_window(&mut live, shape.warmup_s, 1, &mut off)?;
    let plain = run_window(&mut live, seconds, slices, &mut off)?;
    let traced = run_window(&mut live, seconds, slices, &mut spans)?;
    let (quiet_plain, quiet_traced) = (
        quiet::summarise(&plain.slices),
        quiet::summarise(&traced.slices),
    );
    m.put(
        "trace.overhead_ratio",
        quiet_traced.req_per_s / quiet_plain.req_per_s,
        quiet_plain.slices + quiet_traced.slices,
    );
    // Each against the CPUs it is confined to.
    let (generator, server) = crate::affinity::split(crate::host_cpus());
    m.put(
        "gen.cpu_share",
        plain.gen_cpu_s / (plain.wall_s * generator.len() as f64),
        1,
    );
    m.put(
        "server.cpu_util",
        plain.server_cpu_s / (plain.wall_s * server.len() as f64),
        1,
    );
    let burst_us: Vec<f64> = plain
        .slices
        .iter()
        .flat_map(|s| &s.op_us)
        .copied()
        .collect();
    let (p99, used) = stats::tail(&burst_us, 99.0);
    m.put_note("burst_p99_us", p99, burst_us.len(), format!("p{used}"));

    // The run as the server's own registry saw it.
    let json = live.child.ask("obs")?.join(" ");
    let obs: MetricsSnapshot =
        serde::json::from_str(&json).map_err(|e| failed(format!("obs dump: {e}")))?;
    for name in [
        "transport.frames_in_total",
        "transport.frames_out_total",
        "transport.bytes_in_total",
        "transport.bytes_out_total",
        "transport.coalesce_drops_total",
    ] {
        m.put(name, obs.counter(name).unwrap_or(0) as f64, 1);
    }
    for (metric, histogram) in [
        (
            "transport.serve_latency_mean_ns",
            "transport.serve_latency_ns",
        ),
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
    // One hello per connection precedes the frames the generator counts.
    outcome.check(
        obs.counter("transport.frames_in_total")
            == Some(live.frames_sent + live.conns.len() as u64),
        "server counted exactly the frames the generator sent",
    );

    let mut walk = Tracer::new(Instant::now());
    let reference = replay(&live, seconds, &mut walk);
    verify(&mut live, &reference, &mut outcome)?;
    let pushed: u64 = live.events.iter().map(|e| e.frames).sum();
    m.put("event.frames_pushed_total", pushed as f64, 1);

    let own = walk.self_times();
    let p50 = |span: &str| own.p50(span);
    for (metric, span) in [
        ("serde.encode_request_ns", "serde.encode_request"),
        ("serde.decode_request_ns", "serde.decode_request"),
        ("serde.encode_response_ns", "serde.encode_response"),
        ("serde.decode_response_ns", "serde.decode_response"),
        ("dispatch.batch_ns", "dispatch.batch"),
        ("ecovisor.begin_tick_ns", "ecovisor.begin_tick"),
        ("ecovisor.advance_clock_ns", "ecovisor.advance_clock"),
    ] {
        let (v, n) = p50(span);
        m.put(metric, v, n);
    }
    let (dispatch_ns, n) = p50("dispatch.batch");
    m.put(
        "dispatch.ns_per_request",
        dispatch_ns / fixture::batch_len(workload) as f64,
        n,
    );
    let frame_bytes = |size: &dyn Fn(&EncodedBurst) -> usize| {
        let per_frame: Vec<f64> = live
            .encoded
            .iter()
            .flat_map(|c| &c.phases)
            .map(|b| size(b) as f64 / BURST as f64)
            .collect();
        (
            simkit::stats::mean(&per_frame).unwrap_or(0.0),
            per_frame.len() * BURST,
        )
    };
    let (bytes, n) = frame_bytes(&|b| b.wire.len() - 4 * BURST);
    m.put("serde.request_bytes", bytes, n);
    let (bytes, n) = frame_bytes(&|b| b.responses.iter().map(Vec::len).sum());
    m.put("serde.response_bytes", bytes, n);

    // The budget: the server's CPU per batch, split into the stages
    // walked in process and the remainder, which the transport owns.
    let staged_ns = p50("serde.decode_request").0 + dispatch_ns + p50("serde.encode_response").0;
    m.put(
        "transport.residual_cpu_us",
        quiet_plain.cpu_us_per_batch - staged_ns / 1e3,
        quiet_plain.batches as usize,
    );

    if workload == Workload::WireControl {
        let (settle_ns, n) = p50("ecovisor.settle_tick");
        m.put("ecovisor.settle_tick_p50_us", settle_ns / 1e3, n);
        m.put(
            "ecovisor.settle_us_per_tenant_tick",
            settle_ns / 1e3 / fixture::TENANTS as f64,
            n,
        );
        let (take_ns, n) = p50("event.take_frames");
        m.put("event.take_frames_us_per_tick", take_ns / 1e3, n);
        m.put(
            "transport.push_us_per_tick",
            quiet::fastest(&plain.live_tick_us) - quiet::fastest(&walk.durations("tick")) / 1e3,
            plain.live_tick_us.len(),
        );
    }
    if workload == Workload::WirePoll {
        let rtt = closed_loop_rtt(&live, seconds)?;
        m.put("client.rtt_closed_p50_us", stats::median(&rtt), rtt.len());
        let (p99, used) = stats::tail(&rtt, 99.0);
        m.put_note(
            "client.rtt_closed_p99_us",
            p99,
            rtt.len(),
            format!("p{used}"),
        );
    }
    outcome.attempted += live.frames_sent;
    live.tear_down()?;
    spans.absorb(walk);
    Ok((outcome, m, spans))
}

/// Depth-1 round trips through the library client, one thread per
/// connection. Reported, never gated: at depth 1 the number is the
/// scheduler's wake-up latency, not the program's work.
fn closed_loop_rtt(live: &Live, seconds: f64) -> io::Result<Vec<f64>> {
    let until = Instant::now() + Duration::from_secs_f64(seconds);
    let per_thread: Vec<io::Result<Vec<f64>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = live
            .plans
            .iter()
            .map(|plan| {
                scope.spawn(move || {
                    let mut client = RemoteEcovisorClient::connect(live.addr, plan.tenant.app)?;
                    let mut rtt = Vec::new();
                    for batch in plan.phases[0].iter().cycle() {
                        if Instant::now() >= until {
                            break;
                        }
                        let sent = Instant::now();
                        let response = client.transport(batch.clone());
                        rtt.push(sent.elapsed().as_secs_f64() * 1e6);
                        if response.responses.iter().any(|r| r.is_err()) {
                            return Err(failed(format!(
                                "closed-loop request failed: {response:?}"
                            )));
                        }
                    }
                    Ok(rtt)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rtt thread panicked"))
            .collect()
    });
    let mut all = Vec::new();
    for rtt in per_thread {
        all.append(&mut rtt?);
    }
    Ok(all)
}
