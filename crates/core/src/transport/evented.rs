//! The evented serving runtime: one reactor thread multiplexes every
//! connection, a small worker pool runs dispatch.
//!
//! The reactor owns all sockets non-blocking and epoll-registered (via
//! the vendored [`reactor`] shim): it accepts, reads bytes into
//! per-connection [`RecvBuf`]s, carves complete length-prefixed frames
//! out of them, and hands those frames to the worker pool. Workers
//! decode/dispatch each one through [`process_payload`]. This is the
//! only serving loop: every connection, test or production, goes through
//! it.
//!
//! ## Connection lifecycle
//!
//! ```text
//!            accept            hello frame           frames
//!  listener ───────▶ Phase::Hello ───────▶ Phase::Serving(ConnWork)
//!                        │ reject                      │ EOF / error /
//!                        ▼                             ▼ idle timeout
//!                 Phase::Draining ──reply sent──▶    closed
//! ```
//!
//! ## Scheduling invariant
//!
//! A connection's [`ConnWork`] is in the job queue **at most once**
//! (`scheduled` flips false→true exactly when it is pushed), and only
//! the worker that popped it processes its inbox — so frames on one
//! connection are served strictly in arrival order while thousands of
//! connections share a handful of workers. Workers park on
//! shard/settlement lock acquisition inside `dispatch_batch`; no thread
//! is ever pinned to a client.
//!
//! ## Write path
//!
//! A worker answers a *turn* — up to [`FRAMES_PER_TURN`] frames of one
//! connection — into its own buffer, as length-prefixed frames encoded in
//! place, and hands the connection all of them at once: one commit, one
//! `write(2)`. All outbound bytes go through the connection's
//! [`ConnShared`] committed-write queue: workers and the settlement
//! broadcast write non-blocking, and whatever the socket refuses stays
//! committed. The connection's [`WriteNotify`] then marks the token dirty
//! and wakes the reactor, which arms `EPOLLOUT` and finishes the flush
//! when the peer drains.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use reactor::{Events, Interest, Poll, Token, Waker};

use super::admin::AdminState;
use super::conn::{ConnShared, WriteNotify};
use super::framing::{
    append_frame, begin_frame, end_frame, RecvBuf, DRAIN_RETAIN_BYTES, MAX_FRAME_LEN, MAX_HELLO_LEN,
};
use super::hello::{evaluate_hello, HelloOutcome};
use super::server::{process_payload, ServeCtx, Served, ServerHandle};
use crate::obs;

/// Structured-log target for everything the serving runtime emits.
const LOG_TARGET: &str = "ecovisor::transport";

/// The listener's epoll token.
const LISTENER: Token = Token(0);
/// The waker's epoll token.
const WAKER: Token = Token(1);
/// First token handed to an accepted connection (tokens are never
/// reused, so a late wake-up for a closed connection cannot alias a new
/// one).
const FIRST_CONN: usize = 2;
/// Frames one worker serves from a connection's inbox before requeueing
/// it — fairness bound so a chatty connection cannot starve the rest.
const FRAMES_PER_TURN: usize = 8;
/// Readiness events drained per `epoll_wait`.
const EVENTS_CAPACITY: usize = 1024;

/// Where a connection is in its lifecycle.
enum Phase {
    /// Awaiting the hello frame.
    Hello,
    /// Hello accepted; inbound frames go to the worker pool.
    Serving(Arc<ConnWork>),
    /// A hello reject is draining; close once it is fully written.
    Draining { out: Vec<u8>, written: usize },
}

/// The reactor's per-connection state. The reactor thread owns this
/// exclusively; everything workers touch lives in [`ConnWork`].
struct EvConn {
    /// Shared with [`ConnShared`]'s writer half once serving begins:
    /// one fd per connection, not a `try_clone` pair.
    stream: Arc<TcpStream>,
    rbuf: RecvBuf,
    phase: Phase,
    last_read: Instant,
    /// Whether `EPOLLOUT` is currently armed (avoids a `reregister`
    /// syscall per flush).
    want_write: bool,
}

/// The worker-facing half of a served connection: the shared writer
/// (which carries the pinned app) and the inbox of complete
/// frames the reactor has carved out.
pub(super) struct ConnWork {
    shared: Arc<ConnShared>,
    inbox: Mutex<VecDeque<Vec<u8>>>,
    /// `true` while this connection is in the job queue or being
    /// served; the false→true edge is the only push point, so one
    /// connection is never served by two workers at once.
    scheduled: AtomicBool,
    admin: Mutex<AdminState>,
    /// Set by whichever side (worker or reactor) kills the connection;
    /// the other side observes it and stops.
    closed: AtomicBool,
}

/// Queue state guarded by one mutex, so `stop` and the condvar wait
/// cannot miss each other.
struct QueueState {
    jobs: VecDeque<Arc<ConnWork>>,
    stopped: bool,
}

/// The worker pool's job queue: connections with non-empty inboxes.
pub(super) struct JobQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
    /// `transport.queue_depth` — connections awaiting a worker.
    depth: Arc<obs::Gauge>,
}

impl JobQueue {
    fn new(depth: Arc<obs::Gauge>) -> JobQueue {
        JobQueue {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                stopped: false,
            }),
            ready: Condvar::new(),
            depth,
        }
    }

    fn push(&self, work: Arc<ConnWork>) {
        let mut state = crate::lock::lock(&self.state);
        if state.stopped {
            return;
        }
        state.jobs.push_back(work);
        drop(state);
        self.depth.add(1);
        self.ready.notify_one();
    }

    /// Blocks for the next job; `None` once the queue is stopped.
    /// Remaining jobs are discarded at stop — their sockets are already
    /// being closed by the reactor's teardown.
    fn pop(&self) -> Option<Arc<ConnWork>> {
        let mut state = crate::lock::lock(&self.state);
        loop {
            if state.stopped {
                return None;
            }
            if let Some(work) = state.jobs.pop_front() {
                drop(state);
                self.depth.sub(1);
                return Some(work);
            }
            state = self
                .ready
                .wait(state)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Wakes every worker into its `None` exit. Jobs still queued are
    /// abandoned, so the depth gauge is zeroed with them — the leak
    /// gate expects every gauge back at zero after shutdown.
    pub(super) fn stop(&self) {
        crate::lock::lock(&self.state).stopped = true;
        self.depth.set(0);
        self.ready.notify_all();
    }
}

/// What a worker keeps from one turn to the next, so that a turn
/// allocates nothing: the frames it took from the inbox, and the replies
/// to them as they will go on the wire.
#[derive(Default)]
struct Turn {
    frames: Vec<Vec<u8>>,
    replies: Vec<u8>,
}

/// One worker thread: serve connections' inboxes until the queue stops.
fn worker_loop(queue: &JobQueue, ctx: &ServeCtx) {
    let mut turn = Turn::default();
    while let Some(work) = queue.pop() {
        serve_inbox(&work, ctx, queue, &mut turn);
    }
}

/// Kills a connection from the worker side: the reactor observes the
/// socket shutdown as readiness (EOF) and reaps the registration; the
/// notify nudge makes that prompt even on an otherwise idle loop.
fn kill_from_worker(work: &ConnWork) {
    work.closed.store(true, Ordering::SeqCst);
    let _ = crate::lock::lock(&work.shared.writer).shutdown(std::net::Shutdown::Both);
    work.shared.notify.notify();
}

/// Hands the connection the replies produced so far — one commit and one
/// socket write for all `count` of them — and empties the buffer.
fn send_replies(work: &ConnWork, replies: &mut Vec<u8>, count: &mut usize) -> bool {
    let sent = *count == 0 || work.shared.write_frames(replies, *count).is_ok();
    replies.clear();
    *count = 0;
    sent
}

/// Serves one turn — up to [`FRAMES_PER_TURN`] frames taken from the
/// connection's inbox together, answered with one write — then yields the
/// worker (requeueing if frames remain).
fn serve_inbox(work: &Arc<ConnWork>, ctx: &ServeCtx, queue: &JobQueue, turn: &mut Turn) {
    if work.closed.load(Ordering::SeqCst) {
        work.scheduled.store(false, Ordering::SeqCst);
        return;
    }
    let Turn { frames, replies } = turn;
    {
        let mut inbox = crate::lock::lock(&work.inbox);
        let taken = inbox.len().min(FRAMES_PER_TURN);
        frames.extend(inbox.drain(..taken));
    }
    let metrics = &ctx.obs.transport;
    metrics.inbox_depth.sub(frames.len() as i64);
    // Replies wait here, not in the connection's write queue: until they
    // are written nothing is owed to a socket that would not take it, and
    // `subscriber_backlog` must not say otherwise.
    let mut count = 0;
    let mut healthy = true;
    for payload in frames.drain(..) {
        let serve_start = Instant::now();
        let start = begin_frame(replies);
        let served = {
            let mut admin = crate::lock::lock(&work.admin);
            process_payload(ctx, &work.shared, &mut admin, &payload, replies)
        };
        healthy = match served {
            Served::Reply => {
                let framed = end_frame(replies, start).is_ok();
                count += usize::from(framed);
                framed
            }
            Served::Quiet => {
                replies.truncate(start);
                true
            }
            Served::Close => {
                replies.truncate(start);
                metrics.conn_errors.inc();
                obs::warn(
                    LOG_TARGET,
                    "dropping connection",
                    &[
                        ("token", work.shared.notify.token.to_string()),
                        ("error", "undecodable or out-of-protocol frame".into()),
                    ],
                );
                false
            }
        };
        metrics.serve_latency.record_duration(serve_start.elapsed());
        // One large reply (a snapshot chunk) is as much as a turn holds
        // back: past the bound, what there is goes out now.
        if replies.len() > DRAIN_RETAIN_BYTES {
            healthy &= send_replies(work, replies, &mut count);
        }
        if !healthy {
            break;
        }
    }
    // The replies to the frames before a bad one still go out ahead of
    // the close.
    healthy &= send_replies(work, replies, &mut count);
    // A large reply may have grown the buffer; steady state keeps a
    // bounded allocation per worker.
    if replies.capacity() > DRAIN_RETAIN_BYTES {
        *replies = Vec::new();
    }
    if !healthy {
        kill_from_worker(work);
        work.scheduled.store(false, Ordering::SeqCst);
        return;
    }
    // Turn over: back of the line while frames remain (still scheduled,
    // so no second worker can pick this connection up concurrently).
    if !crate::lock::lock(&work.inbox).is_empty() {
        queue.push(Arc::clone(work));
        return;
    }
    // Inbox drained: unschedule, then re-check — a frame the reactor
    // pushed between the look and the store must not be stranded, so
    // whoever wins the swap re-enqueues.
    work.scheduled.store(false, Ordering::SeqCst);
    if !crate::lock::lock(&work.inbox).is_empty() && !work.scheduled.swap(true, Ordering::SeqCst) {
        queue.push(Arc::clone(work));
    }
}

/// Arms or disarms `EPOLLOUT` to match whether the connection owes the
/// socket bytes (readable interest is always kept).
fn set_write_interest(
    poll: &Poll,
    stream: &TcpStream,
    token: usize,
    want_write: &mut bool,
    want: bool,
) {
    if *want_write == want {
        return;
    }
    let interest = if want {
        Interest::READABLE.union(Interest::WRITABLE)
    } else {
        Interest::READABLE
    };
    if poll.reregister(stream, Token(token), interest).is_ok() {
        *want_write = want;
    }
}

/// Pushes whatever output the connection owes: the committed backlog on
/// a serving connection, the reject reply on a draining one. Returns
/// `false` when the connection should close (dead socket, worker kill,
/// or a reject fully delivered).
fn flush_conn(poll: &Poll, conn: &mut EvConn, token: usize) -> bool {
    let EvConn {
        stream,
        phase,
        want_write,
        ..
    } = conn;
    match phase {
        Phase::Hello => true,
        Phase::Serving(work) => {
            if work.closed.load(Ordering::SeqCst) {
                return false;
            }
            match work.shared.flush_for_reactor() {
                Ok(drained) => {
                    set_write_interest(poll, stream, token, want_write, !drained);
                    true
                }
                Err(_) => false,
            }
        }
        Phase::Draining { out, written } => loop {
            if *written == out.len() {
                return false;
            }
            let mut sock: &TcpStream = stream;
            match sock.write(&out[*written..]) {
                Ok(0) => return false,
                Ok(n) => *written += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    set_write_interest(poll, stream, token, want_write, true);
                    return true;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        },
    }
}

/// Routes one complete inbound frame by phase. Returns `false` to close.
/// A served connection's frame joins its inbox; [`schedule`] hands the
/// inbox to the workers once the read that delivered it is carved up.
fn handle_frame(
    conn: &mut EvConn,
    token: usize,
    ctx: &ServeCtx,
    dirty: &Arc<Mutex<Vec<usize>>>,
    waker: &Waker,
    payload: Vec<u8>,
) -> bool {
    match &conn.phase {
        Phase::Hello => begin_serving(conn, token, ctx, dirty, waker, &payload),
        Phase::Serving(work) => {
            if work.closed.load(Ordering::SeqCst) {
                return false;
            }
            crate::lock::lock(&work.inbox).push_back(payload);
            ctx.obs.transport.inbox_depth.add(1);
            true
        }
        // Bytes after a rejected hello are discarded; the connection
        // closes as soon as the reject reply drains.
        Phase::Draining { .. } => true,
    }
}

/// Queues a served connection whose inbox has frames for a worker, unless
/// it is queued or being served already (whoever serves it looks at the
/// inbox again before letting go). Called once per read, after every
/// frame the read completed is in the inbox: a pipelined burst reaches a
/// worker whole, and is one turn and one write, not a race between the
/// worker and the carving of the rest.
fn schedule(conn: &EvConn, queue: &JobQueue) {
    if let Phase::Serving(work) = &conn.phase {
        if !crate::lock::lock(&work.inbox).is_empty()
            && !work.scheduled.swap(true, Ordering::SeqCst)
        {
            queue.push(Arc::clone(work));
        }
    }
}

/// Evaluates the hello frame and transitions the connection to
/// `Serving` (accept) or `Draining` (reject). Returns `false` to close.
fn begin_serving(
    conn: &mut EvConn,
    token: usize,
    ctx: &ServeCtx,
    dirty: &Arc<Mutex<Vec<usize>>>,
    waker: &Waker,
    hello: &[u8],
) -> bool {
    let outcome = evaluate_hello(&ctx.creds, hello);
    // Either answer goes out as one frame.
    let mut out = Vec::new();
    let (HelloOutcome::Accept { reply, .. } | HelloOutcome::Reject(reply)) = &outcome;
    if append_frame(&mut out, reply).is_err() {
        return false;
    }
    match outcome {
        HelloOutcome::Accept { app, .. } => {
            let shared = Arc::new(ConnShared::new(
                app,
                Arc::clone(&conn.stream),
                WriteNotify::new(token, Arc::clone(dirty), waker.clone()),
                Arc::clone(&ctx.obs),
            ));
            crate::lock::lock(&ctx.registry).push(Arc::clone(&shared));
            conn.phase = Phase::Serving(Arc::new(ConnWork {
                shared: Arc::clone(&shared),
                inbox: Mutex::new(VecDeque::new()),
                scheduled: AtomicBool::new(false),
                admin: Mutex::new(AdminState::default()),
                closed: AtomicBool::new(false),
            }));
            // The accept reply rides the same committed-write queue as
            // every later frame, so it cannot interleave or reorder.
            shared.write_frames(&out, 1).is_ok()
        }
        HelloOutcome::Reject(_) => {
            conn.phase = Phase::Draining { out, written: 0 };
            true
        }
    }
}

/// The event loop and everything it owns.
struct Reactor {
    poll: Poll,
    listener: TcpListener,
    ctx: Arc<ServeCtx>,
    queue: Arc<JobQueue>,
    /// Tokens whose connections owe the socket bytes (fed by
    /// [`WriteNotify`] from workers and the settlement broadcast).
    dirty: Arc<Mutex<Vec<usize>>>,
    waker: Waker,
    conns: HashMap<usize, EvConn>,
    next_token: usize,
    active: Arc<AtomicUsize>,
    /// Summed [`RecvBuf`] capacity across live connections; the reactor
    /// applies a delta after every readiness pass and on close, so the
    /// driver-side counter tracks growth *and* the drain-time trim.
    recv_bytes: Arc<AtomicUsize>,
    stop: Arc<AtomicBool>,
    /// Accept failures seen so far — the rate-limit state for the
    /// accept-failure log line (the metric counts every occurrence).
    accept_fails: u64,
}

impl Reactor {
    fn run(mut self) {
        let mut events = Events::with_capacity(EVENTS_CAPACITY);
        // With an idle timeout armed the loop must wake on its own to
        // sweep, a quarter of the timeout after the last sweep; otherwise
        // it parks until readiness or the waker.
        let idle_sweep = self
            .ctx
            .read_timeout
            .map(|idle| (idle, (idle / 4).max(Duration::from_millis(10))));
        let mut swept = Instant::now();
        while !self.stop.load(Ordering::SeqCst) {
            let timeout = idle_sweep.map(|(_, every)| every.saturating_sub(swept.elapsed()));
            if self.poll.poll(&mut events, timeout).is_err() {
                break;
            }
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            let mut closed: Vec<usize> = Vec::new();
            for event in events.iter() {
                match event.token() {
                    LISTENER => self.accept_ready(),
                    WAKER => self.waker.drain(),
                    Token(token) => {
                        if !self.conn_ready(token, event.is_writable(), event.is_readable()) {
                            closed.push(token);
                        }
                    }
                }
            }
            for token in closed {
                self.close_conn(token);
            }
            self.flush_dirty();
            // The sweep walks every connection, so it runs on its own
            // clock, not once per readiness event.
            if let Some((idle, every)) = idle_sweep {
                if swept.elapsed() >= every {
                    self.sweep_idle(idle);
                    swept = Instant::now();
                }
            }
        }
        self.teardown();
    }

    /// Accepts until the listener would block. A transient accept
    /// failure (`EMFILE` under a connection storm, a peer that reset
    /// before accept) is logged and skipped — the listener stays
    /// registered and keeps serving whoever does get through.
    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    self.next_token += 1;
                    if self
                        .poll
                        .register(&stream, Token(token), Interest::READABLE)
                        .is_err()
                    {
                        continue;
                    }
                    self.conns.insert(
                        token,
                        EvConn {
                            stream: Arc::new(stream),
                            rbuf: RecvBuf::new(Arc::clone(&self.recv_bytes)),
                            phase: Phase::Hello,
                            last_read: Instant::now(),
                            want_write: false,
                        },
                    );
                    self.active.fetch_add(1, Ordering::SeqCst);
                    self.ctx.obs.transport.accepts.inc();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    // A flapping listener (fd exhaustion under a
                    // connection storm) used to spam stderr from here.
                    // Every failure lands in the metric; the log line is
                    // rate-limited to the first occurrence and every
                    // 64th after that.
                    self.accept_fails += 1;
                    self.ctx.obs.transport.accept_failures.inc();
                    if self.accept_fails == 1 || self.accept_fails.is_multiple_of(64) {
                        obs::warn(
                            LOG_TARGET,
                            "accept failed",
                            &[
                                ("error", e.to_string()),
                                ("occurrences", self.accept_fails.to_string()),
                            ],
                        );
                    }
                    // Level-triggered: the listener stays ready while the
                    // backlog holds connections we cannot accept (fd
                    // exhaustion), so without a pause this loop would
                    // spin hot. Brief sleep, then let the next poll
                    // retry — fds may have been freed by then.
                    std::thread::sleep(Duration::from_millis(5));
                    break;
                }
            }
        }
    }

    /// One connection's readiness. Returns `false` to close it.
    fn conn_ready(&mut self, token: usize, writable: bool, readable: bool) -> bool {
        let ctx = Arc::clone(&self.ctx);
        let queue = Arc::clone(&self.queue);
        let dirty = Arc::clone(&self.dirty);
        let waker = self.waker.clone();
        let Some(conn) = self.conns.get_mut(&token) else {
            return true;
        };
        // Writes first: draining the backlog may be what unblocks the
        // peer into sending more.
        if writable && !flush_conn(&self.poll, conn, token) {
            return false;
        }
        if !readable {
            return true;
        }
        loop {
            match conn.rbuf.fill(&conn.stream) {
                // EOF. Leftover buffered bytes mean the peer dropped
                // mid-frame — routine for an adversarial or crashed
                // client; either way the connection is done.
                Ok(0) => {
                    if conn.rbuf.has_partial() {
                        ctx.obs.transport.mid_frame_closes.inc();
                        obs::debug(
                            LOG_TARGET,
                            "peer closed mid-frame",
                            &[("token", token.to_string())],
                        );
                    }
                    return false;
                }
                Ok(n) => {
                    conn.last_read = Instant::now();
                    ctx.obs.transport.bytes_in.add(n as u64);
                    loop {
                        // An unauthenticated peer has earned a hello's
                        // worth of buffer, nothing more.
                        let max = match conn.phase {
                            Phase::Hello => MAX_HELLO_LEN,
                            _ => MAX_FRAME_LEN,
                        };
                        match conn.rbuf.next_frame(max) {
                            Ok(Some(payload)) => {
                                ctx.obs.transport.frames_in.inc();
                                if !handle_frame(conn, token, &ctx, &dirty, &waker, payload) {
                                    return false;
                                }
                            }
                            Ok(None) => break,
                            Err(e) => {
                                ctx.obs.transport.conn_errors.inc();
                                obs::warn(
                                    LOG_TARGET,
                                    "dropping connection",
                                    &[("token", token.to_string()), ("error", e.to_string())],
                                );
                                return false;
                            }
                        }
                    }
                    schedule(conn, &queue);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        // A hello reply (or reject) committed above goes out now rather
        // than waiting for the next dirty sweep.
        flush_conn(&self.poll, conn, token)
    }

    /// Flushes every connection a [`WriteNotify`] marked since the last
    /// sweep.
    fn flush_dirty(&mut self) {
        let tokens = std::mem::take(&mut *crate::lock::lock(&self.dirty));
        for token in tokens {
            let keep = match self.conns.get_mut(&token) {
                Some(conn) => {
                    if let Phase::Serving(work) = &conn.phase {
                        work.shared.notify.taken();
                    }
                    flush_conn(&self.poll, conn, token)
                }
                None => continue,
            };
            if !keep {
                self.close_conn(token);
            }
        }
    }

    /// Reaps connections that have sent nothing for the configured
    /// timeout.
    fn sweep_idle(&mut self, idle: Duration) {
        let expired: Vec<usize> = self
            .conns
            .iter()
            .filter(|(_, c)| c.last_read.elapsed() >= idle)
            .map(|(t, _)| *t)
            .collect();
        for token in expired {
            self.ctx.obs.transport.idle_disconnects.inc();
            obs::info(
                LOG_TARGET,
                "disconnecting idle connection",
                &[("token", token.to_string()), ("idle", format!("{idle:?}"))],
            );
            self.close_conn(token);
        }
    }

    /// Tears one connection down: epoll deregistration (explicit,
    /// because [`ConnShared`]'s writer half shares the stream `Arc` and
    /// keeps the file description — and thus the registration — alive
    /// past this drop), push-registry removal, both-ways shutdown so
    /// the peer and any worker mid-write observe the close.
    fn close_conn(&mut self, token: usize) {
        let Some(conn) = self.conns.remove(&token) else {
            return;
        };
        self.active.fetch_sub(1, Ordering::SeqCst);
        let _ = self.poll.deregister(&*conn.stream);
        if let Phase::Serving(work) = &conn.phase {
            work.closed.store(true, Ordering::SeqCst);
            crate::lock::lock(&self.ctx.registry).retain(|c| !Arc::ptr_eq(c, &work.shared));
            let _ = crate::lock::lock(&work.shared.writer).shutdown(std::net::Shutdown::Both);
            // Frames still in the inbox will never be served; settle
            // their gauge contribution so the depth returns to zero
            // after churn (the leak-gate contract for every gauge).
            let mut inbox = crate::lock::lock(&work.inbox);
            let abandoned = inbox.len();
            inbox.clear();
            drop(inbox);
            if abandoned > 0 {
                self.ctx.obs.transport.inbox_depth.sub(abandoned as i64);
            }
        }
        let _ = conn.stream.shutdown(std::net::Shutdown::Both);
    }

    /// Shutdown path: close every connection, then the listener drops
    /// with `self`. Runs on the reactor thread, so no registration can
    /// race it.
    fn teardown(&mut self) {
        let tokens: Vec<usize> = self.conns.keys().copied().collect();
        for token in tokens {
            self.close_conn(token);
        }
    }
}

/// Spawns the evented runtime: the reactor thread plus `workers`
/// dispatch threads (0 = auto-size from available parallelism, clamped
/// to 2..=8).
pub(super) fn spawn_evented(
    listener: TcpListener,
    ctx: Arc<ServeCtx>,
    workers: usize,
) -> io::Result<ServerHandle> {
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let poll = Poll::new()?;
    poll.register(&listener, LISTENER, Interest::READABLE)?;
    let waker = Waker::new(&poll, WAKER)?;
    let stop = Arc::new(AtomicBool::new(false));
    let active = Arc::clone(&ctx.active);
    let recv_bytes = Arc::clone(&ctx.recv_bytes);
    let queue = Arc::new(JobQueue::new(Arc::clone(&ctx.obs.transport.queue_depth)));
    let dirty: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));

    let worker_count = if workers == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(2)
            .clamp(2, 8)
    } else {
        workers
    };
    let mut worker_handles = Vec::with_capacity(worker_count);
    for i in 0..worker_count {
        let queue = Arc::clone(&queue);
        let ctx = Arc::clone(&ctx);
        worker_handles.push(
            std::thread::Builder::new()
                .name(format!("ecovisor-worker-{i}"))
                .spawn(move || worker_loop(&queue, &ctx))?,
        );
    }

    let reactor = Reactor {
        poll,
        listener,
        ctx: Arc::clone(&ctx),
        queue: Arc::clone(&queue),
        dirty,
        waker: waker.clone(),
        conns: HashMap::new(),
        next_token: FIRST_CONN,
        active,
        recv_bytes,
        stop: Arc::clone(&stop),
        accept_fails: 0,
    };
    let reactor_handle = std::thread::Builder::new()
        .name("ecovisor-reactor".into())
        .spawn(move || reactor.run())?;

    Ok(ServerHandle {
        addr,
        ctx,
        stop,
        waker,
        reactor: Some(reactor_handle),
        workers: worker_handles,
        queue,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{EnergyRequest, Frame, RequestBatch};
    use crate::transport::framing::read_frame;
    use crate::transport::SERVED_CODEC;
    use crate::{EcovisorBuilder, EnergyShare, ShardedEcovisor};

    /// One turn of replies each larger than a worker retains between
    /// turns: every one is handed to the connection as soon as it is
    /// encoded — the turn never holds two — and the worker's buffer is
    /// back under the bound when the turn is over.
    #[test]
    fn a_turn_of_large_replies_is_sent_as_it_goes_and_leaves_the_buffer_small() {
        let mut eco = EcovisorBuilder::new().build();
        let app = eco
            .register_app("tenant", EnergyShare::grid_only())
            .expect("register");
        let obs = obs::ObsHub::new();
        let ctx = ServeCtx {
            shared: Arc::new(ShardedEcovisor::new(eco)),
            creds: Mutex::new(None),
            read_timeout: None,
            registry: Arc::new(Mutex::new(Vec::new())),
            obs: Arc::clone(&obs),
            active: Arc::new(AtomicUsize::new(0)),
            recv_bytes: Arc::new(AtomicUsize::new(0)),
        };
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut peer = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (served, _) = listener.accept().expect("accept");
        served.set_nonblocking(true).expect("nonblocking");
        let poll = Poll::new().expect("poll");
        let notify = WriteNotify::new(
            FIRST_CONN,
            Arc::new(Mutex::new(Vec::new())),
            Waker::new(&poll, WAKER).expect("waker"),
        );
        // 4,000 answers encode to ~100 KB.
        let request = SERVED_CODEC.encode(&Frame::Request(RequestBatch::new(
            app,
            vec![EnergyRequest::GetGridPower; 4000],
        )));
        let work = Arc::new(ConnWork {
            shared: Arc::new(ConnShared::new(
                app,
                Arc::new(served),
                notify,
                Arc::clone(&obs),
            )),
            inbox: Mutex::new(vec![request; FRAMES_PER_TURN].into()),
            scheduled: AtomicBool::new(true),
            admin: Mutex::new(AdminState::default()),
            closed: AtomicBool::new(false),
        });
        obs.transport.inbox_depth.add(FRAMES_PER_TURN as i64);
        let queue = JobQueue::new(Arc::clone(&obs.transport.queue_depth));

        let mut turn = Turn::default();
        std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                (0..FRAMES_PER_TURN)
                    .map(|_| read_frame(&mut peer).expect("read").expect("a reply").len())
                    .collect::<Vec<_>>()
            });
            serve_inbox(&work, &ctx, &queue, &mut turn);
            // No reactor here: what the socket would not take at once is
            // flushed the way `EPOLLOUT` would have it flushed.
            while !work.shared.flush_for_reactor().expect("socket alive") {
                std::thread::yield_now();
            }
            let replies = reader.join().expect("reader");
            assert!(replies.iter().all(|&len| len > DRAIN_RETAIN_BYTES));
        });
        let snap = obs.snapshot();
        assert_eq!(
            snap.counter("transport.frames_out_total"),
            Some(FRAMES_PER_TURN as u64)
        );
        assert!(
            snap.counter("transport.socket_writes_total") >= Some(FRAMES_PER_TURN as u64),
            "one reply at a time: each is a write of its own at least"
        );
        assert!(
            turn.replies.capacity() <= DRAIN_RETAIN_BYTES && turn.frames.is_empty(),
            "{} bytes kept for the next turn",
            turn.replies.capacity()
        );
        assert!(!work.scheduled.load(Ordering::SeqCst), "inbox drained");
        assert_eq!(snap.gauge("transport.inbox_depth"), Some(0));
    }
}
