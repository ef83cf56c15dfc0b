//! The evented serving runtime: N identical serving threads, each
//! polling its own connections and serving a frame where it read it.
//!
//! Every thread owns a [`Poll`] (the vendored epoll-backed [`reactor`]
//! shim), a [`Waker`], its connections — sockets non-blocking and
//! registered on that poll — and one reply buffer. Thread 0 also owns the
//! listener and deals accepted sockets round-robin; a connection stays on
//! the thread it was dealt to for life. On readable, the owning thread
//! runs the whole [`turn`] itself: read into the connection's
//! [`RecvBuf`], carve complete length-prefixed frames, decode/dispatch
//! each through [`process_payload`] as a slice of that buffer, write the
//! replies. Nothing is handed from one thread to another between the
//! socket and the dispatcher. This is the only serving loop: every
//! connection, test or production, goes through it.
//!
//! ## Connection lifecycle
//!
//! ```text
//!            accept, deal       hello frame          frames
//!  listener ────────────▶ Phase::Hello ───────▶ Phase::Serving
//!                             │ reject                  │ EOF / error /
//!                             ▼                         ▼ idle timeout
//!                      Phase::Draining ──reply sent──▶ closed
//! ```
//!
//! ## Turns and fairness
//!
//! A turn keeps reading until the socket is dry, or it has answered
//! [`FRAMES_PER_TURN`] frames or read [`BYTES_PER_TURN`] bytes — checked
//! between reads, so every complete frame a read delivered is answered —
//! and then yields. The registrations are level-triggered: what a turn
//! left in the socket is reported again by the next `epoll_wait`, behind
//! every other ready socket of the thread, so a chatty connection cannot
//! starve the rest. Frames on one connection are served strictly in
//! arrival order because only one thread ever reads it. A thread parks
//! on shard/settlement lock acquisition inside `dispatch_batch`; while it
//! does it reads nothing, and TCP pushes back on its peers.
//!
//! ## Write path
//!
//! A turn's replies are encoded in place, as length-prefixed frames, into
//! the thread's buffer, and handed to the connection all at once: one
//! commit, one `write(2)`. All outbound bytes go through the connection's
//! [`ConnShared`] committed-write queue: serving threads and the
//! settlement broadcast write non-blocking, and whatever the socket
//! refuses stays committed. The connection's [`WriteNotify`] then marks
//! the token dirty and wakes the owning thread, which arms `EPOLLOUT` and
//! finishes the flush when the peer drains.

use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
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

/// The listener's epoll token (thread 0's poll only).
const LISTENER: Token = Token(0);
/// The waker's epoll token.
const WAKER: Token = Token(1);
/// First token a thread hands to a connection it adopts (tokens are
/// never reused on a thread, so a late wake-up for a closed connection
/// cannot alias a new one).
const FIRST_CONN: usize = 2;
/// Frames a turn answers before it stops reading and yields the thread —
/// fairness bound so a chatty connection cannot starve the rest.
const FRAMES_PER_TURN: usize = 8;
/// Bytes a turn reads before it yields: the same bound for a connection
/// whose bytes complete no frame yet (a 16 MiB frame on its way in).
const BYTES_PER_TURN: usize = 4 * DRAIN_RETAIN_BYTES;
/// Readiness events drained per `epoll_wait`.
const EVENTS_CAPACITY: usize = 1024;

/// Where a connection is in its lifecycle.
enum Phase {
    /// Awaiting the hello frame.
    Hello,
    /// Hello accepted: the shared writer (which carries the pinned app)
    /// and the connection's admin-transfer state.
    Serving {
        shared: Arc<ConnShared>,
        admin: AdminState,
    },
    /// A hello reject is draining; close once it is fully written.
    Draining { out: Vec<u8>, written: usize },
}

/// One connection, owned exclusively by the thread it was dealt to.
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

/// How anything outside a serving thread reaches it: sockets thread 0
/// accepted for it, tokens whose connections owe their sockets bytes (fed
/// by [`WriteNotify`] from the settlement broadcast and from the thread's
/// own writes), and the waker that gets it out of `epoll_wait` to look.
struct Mailbox {
    accepted: Mutex<Vec<TcpStream>>,
    dirty: Arc<Mutex<Vec<usize>>>,
    waker: Waker,
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
/// `false` when the connection should close (dead socket, or a reject
/// fully delivered).
fn flush_conn(poll: &Poll, conn: &mut EvConn, token: usize) -> bool {
    let EvConn {
        stream,
        phase,
        want_write,
        ..
    } = conn;
    match phase {
        Phase::Hello => true,
        Phase::Serving { shared, .. } => match shared.flush_writable() {
            Ok(drained) => {
                set_write_interest(poll, stream, token, want_write, !drained);
                true
            }
            Err(_) => false,
        },
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

/// Evaluates the hello frame and moves the connection to `Serving`
/// (accept) or `Draining` (reject). Returns `false` to close.
fn begin_serving(
    phase: &mut Phase,
    stream: &Arc<TcpStream>,
    token: usize,
    ctx: &ServeCtx,
    mailbox: &Mailbox,
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
                Arc::clone(stream),
                WriteNotify::new(token, Arc::clone(&mailbox.dirty), mailbox.waker.clone()),
                Arc::clone(&ctx.obs),
            ));
            crate::lock::lock(&ctx.registry).push(Arc::clone(&shared));
            // The accept reply rides the same committed-write queue as
            // every later frame, so it cannot interleave or reorder.
            let accepted = shared.write_frames(&out, 1).is_ok();
            *phase = Phase::Serving {
                shared,
                admin: AdminState::default(),
            };
            accepted
        }
        HelloOutcome::Reject(_) => {
            *phase = Phase::Draining { out, written: 0 };
            true
        }
    }
}

/// Hands the connection the replies produced so far — one commit and one
/// socket write for all `count` of them — and empties the buffer.
fn send_replies(shared: &ConnShared, replies: &mut Vec<u8>, count: &mut usize) -> bool {
    let sent = *count == 0 || shared.write_frames(replies, *count).is_ok();
    replies.clear();
    *count = 0;
    sent
}

/// Answers one frame of a served connection where it lies in the receive
/// buffer: the reply is encoded in place behind the `count` already in
/// `replies`. Returns `false` to close.
fn serve_frame(
    ctx: &ServeCtx,
    shared: &ConnShared,
    admin: &mut AdminState,
    payload: &[u8],
    replies: &mut Vec<u8>,
    count: &mut usize,
) -> bool {
    let metrics = &ctx.obs.transport;
    let serve_start = Instant::now();
    let start = begin_frame(replies);
    let mut healthy = match process_payload(ctx, shared, admin, payload, replies) {
        Served::Reply => {
            let framed = end_frame(replies, start).is_ok();
            *count += usize::from(framed);
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
                    ("token", shared.notify.token.to_string()),
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
        healthy &= send_replies(shared, replies, count);
    }
    healthy
}

/// One turn of a readable connection, start to finish on the thread that
/// owns it: read, carve, answer every complete frame each read delivered,
/// and write the answers together. Stops reading once the socket is dry
/// or the turn has answered [`FRAMES_PER_TURN`] frames or read
/// [`BYTES_PER_TURN`] bytes; what is left in the socket is reported again
/// (level-triggered) behind the thread's other ready connections.
/// `replies` is the thread's buffer, empty between turns. Returns `false`
/// to close the connection.
fn turn(
    conn: &mut EvConn,
    token: usize,
    ctx: &ServeCtx,
    mailbox: &Mailbox,
    replies: &mut Vec<u8>,
) -> bool {
    let EvConn {
        stream,
        rbuf,
        phase,
        last_read,
        ..
    } = conn;
    let metrics = &ctx.obs.transport;
    metrics.turns.inc();
    // Replies wait in `replies`, not in the connection's write queue:
    // until they are written nothing is owed to a socket that would not
    // take it, and `subscriber_backlog` must not say otherwise.
    let mut count = 0;
    let (mut frames, mut bytes) = (0, 0);
    let mut healthy = true;
    'turn: while frames < FRAMES_PER_TURN && bytes < BYTES_PER_TURN {
        match rbuf.fill(stream, &metrics.socket_reads) {
            // EOF. Leftover buffered bytes mean the peer dropped
            // mid-frame — routine for an adversarial or crashed
            // client; either way the connection is done.
            Ok(0) => {
                if rbuf.has_partial() {
                    metrics.mid_frame_closes.inc();
                    obs::debug(
                        LOG_TARGET,
                        "peer closed mid-frame",
                        &[("token", token.to_string())],
                    );
                }
                healthy = false;
                break;
            }
            Ok(n) => {
                *last_read = Instant::now();
                metrics.bytes_in.add(n as u64);
                bytes += n;
                loop {
                    // An unauthenticated peer has earned a hello's
                    // worth of buffer, nothing more.
                    let max = match phase {
                        Phase::Hello => MAX_HELLO_LEN,
                        _ => MAX_FRAME_LEN,
                    };
                    let payload = match rbuf.next_frame(max) {
                        Ok(Some(payload)) => payload,
                        Ok(None) => break,
                        Err(e) => {
                            metrics.conn_errors.inc();
                            obs::warn(
                                LOG_TARGET,
                                "dropping connection",
                                &[("token", token.to_string()), ("error", e.to_string())],
                            );
                            healthy = false;
                            break 'turn;
                        }
                    };
                    metrics.frames_in.inc();
                    frames += 1;
                    healthy = match phase {
                        Phase::Hello => begin_serving(phase, stream, token, ctx, mailbox, payload),
                        Phase::Serving { shared, admin } => {
                            serve_frame(ctx, shared, admin, payload, replies, &mut count)
                        }
                        // Bytes after a rejected hello are discarded; the
                        // connection closes as soon as the reject drains.
                        Phase::Draining { .. } => true,
                    };
                    if !healthy {
                        break 'turn;
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                healthy = false;
                break;
            }
        }
    }
    // The replies to the frames before a bad one (or before the peer's
    // EOF) still go out ahead of the close.
    if let Phase::Serving { shared, .. } = phase {
        healthy &= send_replies(shared, replies, &mut count);
    }
    // A large reply may have grown the buffer; steady state keeps a
    // bounded allocation per thread.
    if replies.capacity() > DRAIN_RETAIN_BYTES {
        *replies = Vec::new();
    }
    healthy
}

/// One serving thread: its event loop and everything it owns.
struct ServeThread {
    poll: Poll,
    /// Thread 0 only: the listener, registered on its poll.
    listener: Option<TcpListener>,
    ctx: Arc<ServeCtx>,
    /// Every thread's mailbox; `mailboxes[index]` is this thread's.
    mailboxes: Arc<[Mailbox]>,
    index: usize,
    /// The thread the next accepted socket is dealt to.
    next_deal: usize,
    conns: HashMap<usize, EvConn>,
    next_token: usize,
    /// The turn buffer: a turn's replies as they will go on the wire.
    replies: Vec<u8>,
    stop: Arc<AtomicBool>,
    /// Accept failures seen so far — the rate-limit state for the
    /// accept-failure log line (the metric counts every occurrence).
    accept_fails: u64,
}

impl ServeThread {
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
            for event in events.iter() {
                match event.token() {
                    LISTENER => self.accept_ready(),
                    WAKER => {
                        self.mailboxes[self.index].waker.drain();
                        self.adopt_dealt();
                    }
                    Token(token) => {
                        if !self.conn_ready(token, event.is_writable(), event.is_readable()) {
                            self.close_conn(token);
                        }
                    }
                }
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

    /// Accepts until the listener would block, dealing the sockets
    /// round-robin over the serving threads. A transient accept failure
    /// (`EMFILE` under a connection storm, a peer that reset before
    /// accept) is logged and skipped — the listener stays registered and
    /// keeps serving whoever does get through.
    fn accept_ready(&mut self) {
        loop {
            let accepted = match &self.listener {
                Some(listener) => listener.accept(),
                None => return,
            };
            match accepted {
                Ok((stream, _)) => {
                    self.ctx.obs.transport.accepts.inc();
                    let to = self.next_deal;
                    self.next_deal = (to + 1) % self.mailboxes.len();
                    if to == self.index {
                        self.adopt(stream);
                    } else {
                        let mailbox = &self.mailboxes[to];
                        crate::lock::lock(&mailbox.accepted).push(stream);
                        let _ = mailbox.waker.wake();
                    }
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

    /// Takes the sockets thread 0 dealt this thread since it last looked.
    fn adopt_dealt(&mut self) {
        let dealt = std::mem::take(&mut *crate::lock::lock(
            &self.mailboxes[self.index].accepted,
        ));
        for stream in dealt {
            self.adopt(stream);
        }
    }

    /// Makes an accepted socket this thread's connection, for life.
    fn adopt(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        let token = self.next_token;
        self.next_token += 1;
        if self
            .poll
            .register(&stream, Token(token), Interest::READABLE)
            .is_err()
        {
            return;
        }
        self.conns.insert(
            token,
            EvConn {
                stream: Arc::new(stream),
                rbuf: RecvBuf::new(Arc::clone(&self.ctx.recv_bytes)),
                phase: Phase::Hello,
                last_read: Instant::now(),
                want_write: false,
            },
        );
        self.ctx.active.fetch_add(1, Ordering::SeqCst);
    }

    /// One connection's readiness. Returns `false` to close it.
    fn conn_ready(&mut self, token: usize, writable: bool, readable: bool) -> bool {
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
        let mailbox = &self.mailboxes[self.index];
        if !turn(conn, token, &self.ctx, mailbox, &mut self.replies) {
            return false;
        }
        // A hello reject committed above goes out now; a backlog the
        // turn's write left arms `EPOLLOUT` without a trip through the
        // dirty list.
        flush_conn(&self.poll, conn, token)
    }

    /// Flushes every connection a [`WriteNotify`] marked since the last
    /// sweep.
    fn flush_dirty(&mut self) {
        let tokens = std::mem::take(&mut *crate::lock::lock(&self.mailboxes[self.index].dirty));
        for token in tokens {
            let keep = match self.conns.get_mut(&token) {
                Some(conn) => {
                    if let Phase::Serving { shared, .. } = &conn.phase {
                        shared.notify.taken();
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
    /// the peer and a broadcast mid-write observe the close.
    fn close_conn(&mut self, token: usize) {
        let Some(conn) = self.conns.remove(&token) else {
            return;
        };
        self.ctx.active.fetch_sub(1, Ordering::SeqCst);
        let _ = self.poll.deregister(&*conn.stream);
        if let Phase::Serving { shared, .. } = &conn.phase {
            crate::lock::lock(&self.ctx.registry).retain(|c| !Arc::ptr_eq(c, shared));
        }
        let _ = conn.stream.shutdown(std::net::Shutdown::Both);
    }

    /// Shutdown path: close every connection; the listener and any
    /// socket dealt but never adopted drop with the last thread. Runs on
    /// the owning thread, so no registration can race it.
    fn teardown(&mut self) {
        let tokens: Vec<usize> = self.conns.keys().copied().collect();
        for token in tokens {
            self.close_conn(token);
        }
    }
}

/// Spawns the evented runtime: `threads` identical serving threads (0 =
/// auto-size from available parallelism, clamped to 2..=8), the first of
/// which also accepts.
pub(super) fn spawn_evented(
    listener: TcpListener,
    ctx: Arc<ServeCtx>,
    threads: usize,
) -> io::Result<ServerHandle> {
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let threads = if threads == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(2)
            .clamp(2, 8)
    } else {
        threads
    };
    let polls = (0..threads)
        .map(|_| Poll::new())
        .collect::<io::Result<Vec<Poll>>>()?;
    polls[0].register(&listener, LISTENER, Interest::READABLE)?;
    let mailboxes = polls
        .iter()
        .map(|poll| {
            Ok(Mailbox {
                accepted: Mutex::new(Vec::new()),
                dirty: Arc::new(Mutex::new(Vec::new())),
                waker: Waker::new(poll, WAKER)?,
            })
        })
        .collect::<io::Result<Arc<[Mailbox]>>>()?;
    let stop = Arc::new(AtomicBool::new(false));

    // The handle first: should a spawn fail, dropping it stops and joins
    // the threads already running.
    let mut handle = ServerHandle {
        addr,
        ctx: Arc::clone(&ctx),
        stop: Arc::clone(&stop),
        wakers: mailboxes.iter().map(|m| m.waker.clone()).collect(),
        threads: Vec::with_capacity(threads),
    };
    let mut listener = Some(listener);
    for (index, poll) in polls.into_iter().enumerate() {
        let thread = ServeThread {
            poll,
            listener: listener.take(),
            ctx: Arc::clone(&ctx),
            mailboxes: Arc::clone(&mailboxes),
            index,
            next_deal: 0,
            conns: HashMap::new(),
            next_token: FIRST_CONN,
            replies: Vec::new(),
            stop: Arc::clone(&stop),
            accept_fails: 0,
        };
        handle.threads.push(
            std::thread::Builder::new()
                .name(format!("ecovisor-serve-{index}"))
                .spawn(move || thread.run())?,
        );
    }
    Ok(handle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{EnergyRequest, Frame, RequestBatch};
    use crate::transport::framing::{read_frame, socket_pair};
    use crate::transport::SERVED_CODEC;
    use crate::{EcovisorBuilder, EnergyShare, ShardedEcovisor};
    use std::sync::atomic::AtomicUsize;

    /// One turn of replies each larger than a thread retains between
    /// turns: every one is handed to the connection as soon as it is
    /// encoded — the turn never holds two — and the thread's buffer is
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
        let (mut peer, served) = socket_pair();
        let served = Arc::new(served);
        let poll = Poll::new().expect("poll");
        let mailbox = Mailbox {
            accepted: Mutex::new(Vec::new()),
            dirty: Arc::new(Mutex::new(Vec::new())),
            waker: Waker::new(&poll, WAKER).expect("waker"),
        };
        let shared = Arc::new(ConnShared::new(
            app,
            Arc::clone(&served),
            WriteNotify::new(
                FIRST_CONN,
                Arc::clone(&mailbox.dirty),
                mailbox.waker.clone(),
            ),
            Arc::clone(&obs),
        ));
        let mut conn = EvConn {
            stream: served,
            rbuf: RecvBuf::new(Arc::clone(&ctx.recv_bytes)),
            phase: Phase::Serving {
                shared: Arc::clone(&shared),
                admin: AdminState::default(),
            },
            last_read: Instant::now(),
            want_write: false,
        };
        // 4,000 answers encode to ~100 KB, and the request for them to
        // more than half of what a loopback socket holds unread: the peer
        // writes eight while the turns run, and reads the replies.
        let request = SERVED_CODEC.encode(&Frame::Request(RequestBatch::new(
            app,
            vec![EnergyRequest::GetGridPower; 4000],
        )));
        let mut burst = Vec::new();
        for _ in 0..FRAMES_PER_TURN {
            append_frame(&mut burst, &request).expect("request");
        }
        let counter = |name| obs.snapshot().counter(name).unwrap_or(0);

        let mut replies = Vec::new();
        std::thread::scope(|scope| {
            let mut writing = peer.try_clone().expect("clone");
            scope.spawn(move || writing.write_all(&burst).expect("burst"));
            let reader = scope.spawn(|| {
                (0..FRAMES_PER_TURN)
                    .map(|_| read_frame(&mut peer).expect("read").expect("a reply").len())
                    .collect::<Vec<_>>()
            });
            while counter("transport.frames_in_total") < FRAMES_PER_TURN as u64 {
                assert!(turn(&mut conn, FIRST_CONN, &ctx, &mailbox, &mut replies));
                // However many frames the turn found, each reply was
                // handed over when it was encoded, not at the turn's end.
                assert!(
                    counter("transport.socket_writes_total")
                        >= counter("transport.frames_out_total"),
                    "one reply at a time: each is a write of its own at least"
                );
                assert!(
                    replies.is_empty() && replies.capacity() <= DRAIN_RETAIN_BYTES,
                    "{} bytes kept for the next turn",
                    replies.capacity()
                );
            }
            // No event loop here: what the socket would not take at once
            // is flushed the way `EPOLLOUT` would have it flushed.
            while !shared.flush_writable().expect("socket alive") {
                std::thread::yield_now();
            }
            let lens = reader.join().expect("reader");
            assert!(lens.iter().all(|&len| len > DRAIN_RETAIN_BYTES));
        });
        let snap = obs.snapshot();
        assert!(
            snap.counter("transport.turns_total") <= snap.counter("transport.socket_reads_total"),
            "a turn reads at least once"
        );
        assert_eq!(
            snap.counter("transport.frames_out_total"),
            Some(FRAMES_PER_TURN as u64)
        );
        assert!(snap.counter("transport.socket_writes_total") >= Some(FRAMES_PER_TURN as u64));
        assert!(
            ctx.recv_bytes.load(Ordering::SeqCst) <= DRAIN_RETAIN_BYTES,
            "the requests grew the receive buffer to {} bytes",
            ctx.recv_bytes.load(Ordering::SeqCst)
        );
    }
}
