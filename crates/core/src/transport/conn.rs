//! One served connection's write side: the committed-write queue every
//! outbound byte goes through, the backpressure policy for a peer that
//! stops draining its socket, and the post-settlement event push.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use container_cop::AppId;

use super::framing::{begin_frame, end_frame, DRAIN_RETAIN_BYTES};
use super::SERVED_CODEC;
use crate::ecovisor::Ecovisor;
use crate::event::{EventFilter, Notification, OutboxPolicy};
use crate::proto::{EventFrame, Frame};
use crate::PROTOCOL_VERSION;

/// Ceiling on one connection's committed-but-unwritten wire bytes. A
/// subscriber may hang and recover (its frames queue, see
/// [`PendingWrites`]); one that also keeps *sending* while never reading
/// would grow the response backlog without bound, and is cut off here.
const MAX_PENDING_BYTES: usize = 64 * 1024 * 1024;

/// The live connections the settlement broadcast walks. A connection
/// joins when its hello is accepted and leaves when its thread reaps it.
pub(super) type Registry = Mutex<Vec<Arc<ConnShared>>>;

/// The writer half of one served connection, shared by the response
/// path (the serving thread that owns the connection) and the
/// post-settlement broadcast (the driver thread). Every write goes
/// through the `pending` lock, so the two interleave at frame
/// granularity, never mid-frame. `stream` is the *same* socket that
/// thread reads from (one fd per connection — at thousands of tenants a
/// `try_clone` per connection would double the process's fd bill).
pub(super) struct ConnShared {
    pub(super) app: AppId,
    stream: Arc<TcpStream>,
    /// `Some(filter)` once the connection subscribed to event push.
    pub(super) filter: Mutex<Option<EventFilter>>,
    /// Backpressure state: what could not be written because the peer
    /// stopped draining its socket. Held across every write to `stream`.
    pending: Mutex<PendingWrites>,
    /// How the owning thread learns this connection still owes bytes,
    /// so it arms writable interest and finishes the flush when the peer
    /// drains.
    pub(super) notify: WriteNotify,
    /// The server's observability hub, for outbound frame/byte counting
    /// and coalesce-drop accounting.
    obs: Arc<crate::obs::ObsHub>,
}

/// The side of a connection's write queue that faces the thread owning
/// it: marks the connection dirty on that thread's list and wakes its
/// event loop (see [`super::evented`]).
pub(super) struct WriteNotify {
    pub(super) token: usize,
    dirty: Arc<Mutex<Vec<usize>>>,
    waker: reactor::Waker,
    /// Whether `token` is on the dirty list already, so marking a
    /// connection costs no walk of it — a tick that backlogs every slow
    /// subscriber marks each of them inside the settlement barrier.
    listed: AtomicBool,
}

impl WriteNotify {
    pub(super) fn new(
        token: usize,
        dirty: Arc<Mutex<Vec<usize>>>,
        waker: reactor::Waker,
    ) -> WriteNotify {
        WriteNotify {
            token,
            dirty,
            waker,
            listed: AtomicBool::new(false),
        }
    }

    pub(super) fn notify(&self) {
        if !self.listed.swap(true, Ordering::SeqCst) {
            crate::lock::lock(&self.dirty).push(self.token);
        }
        let _ = self.waker.wake();
    }

    /// The owning thread has taken the dirty list and is about to flush
    /// this connection: whatever backlogs after this point lists it again.
    pub(super) fn taken(&self) {
        self.listed.store(false, Ordering::SeqCst);
    }
}

/// One connection's write backlog. A slow subscriber does not get its
/// socket shut down: writes that would block are *queued* here and
/// retried on every settlement, on every response write, and on the
/// socket's writable readiness, so a hung subscriber that recovers
/// picks up where it left off.
///
/// Two tiers, because a length-prefixed frame that has started going out
/// must finish byte-exact:
///
/// * `buf` holds frames **committed** to the wire order as encoded
///   bytes — one grow-only buffer reused across every frame on the
///   connection (no per-frame allocation); the prefix up to `written`
///   is already on the wire, a partially-written frame resumes
///   byte-exact, and committed frames are never reordered, coalesced,
///   or dropped (responses and control frames always land here);
/// * `parked` holds event notifications **displaced** by backpressure,
///   governed by the app's [`OutboxPolicy`] — exactly the per-app outbox
///   discipline, applied a second time at the connection: level events
///   coalesce keep-latest / evict-oldest at the cap, edge events
///   (battery full/empty, budget exhaustion) are never dropped. Once the
///   socket drains, the parked set is re-framed as a single recovery
///   [`EventFrame`] stamped with the newest contributing tick.
#[derive(Default)]
struct PendingWrites {
    /// Committed wire bytes, length prefixes included; `buf[written..]`
    /// awaits the socket.
    buf: Vec<u8>,
    /// Bytes of `buf` already on the wire.
    written: usize,
    /// Whole frames currently committed-but-unwritten (the
    /// `ServerStats::subscriber_backlog` diagnostic).
    queued_frames: usize,
    /// Notifications parked under the app's [`OutboxPolicy`].
    parked: Vec<Notification>,
    /// Settlement tick of the newest parked notification.
    parked_tick: u64,
}

impl PendingWrites {
    /// Committed-but-unwritten byte count.
    fn queued_bytes(&self) -> usize {
        self.buf.len() - self.written
    }

    /// Appends `count` whole frames, already length-prefixed, to the
    /// committed tail. The already-written prefix is compacted away
    /// first, so the buffer never grows past the backlog bound even on a
    /// connection that drains slowly forever.
    fn commit(&mut self, frames: &[u8], count: usize) {
        if self.written > 0 {
            self.buf.drain(..self.written);
            self.written = 0;
        }
        self.buf.extend_from_slice(frames);
        self.queued_frames += count;
    }

    /// Resets after a full drain, keeping (a bounded amount of) the
    /// allocation for the next frame.
    fn drained(&mut self) {
        self.buf.clear();
        self.written = 0;
        self.queued_frames = 0;
        if self.buf.capacity() > DRAIN_RETAIN_BYTES {
            self.buf.shrink_to(DRAIN_RETAIN_BYTES);
        }
    }

    /// `true` while committed bytes or parked notifications await the
    /// socket.
    fn has_backlog(&self) -> bool {
        self.queued_bytes() > 0 || !self.parked.is_empty()
    }
}

/// Writes as much of the committed buffer as the non-blocking socket
/// accepts. `Ok(true)` means fully drained; `Ok(false)` means
/// backpressure (the partially-written tail resumes later); `Err` means
/// the socket is dead.
fn write_committed(
    mut writer: &TcpStream,
    pending: &mut PendingWrites,
    socket_writes: &crate::obs::Counter,
) -> io::Result<bool> {
    while pending.written < pending.buf.len() {
        socket_writes.inc();
        match writer.write(&pending.buf[pending.written..]) {
            Ok(0) => {
                return Err(io::Error::new(io::ErrorKind::WriteZero, "peer closed"));
            }
            Ok(n) => pending.written += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
            Err(e) => return Err(e),
        }
    }
    pending.drained();
    Ok(true)
}

impl ConnShared {
    pub(super) fn new(
        app: AppId,
        stream: Arc<TcpStream>,
        notify: WriteNotify,
        obs: Arc<crate::obs::ObsHub>,
    ) -> ConnShared {
        ConnShared {
            app,
            stream,
            filter: Mutex::new(None),
            pending: Mutex::new(PendingWrites::default()),
            notify,
            obs,
        }
    }

    /// Commits `count` whole length-prefixed frames to the wire order
    /// and counts them.
    fn commit(&self, pending: &mut PendingWrites, frames: &[u8], count: usize) {
        pending.commit(frames, count);
        self.obs.transport.frames_out.add(count as u64);
        self.obs.transport.bytes_out.add(frames.len() as u64);
    }

    /// Frames one encoded event payload and commits it; `scratch` is
    /// overwritten with the framed bytes.
    fn commit_event(
        &self,
        pending: &mut PendingWrites,
        frame: EventFrame,
        scratch: &mut Vec<u8>,
    ) -> io::Result<()> {
        scratch.clear();
        let start = begin_frame(scratch);
        SERVED_CODEC.encode_into(&Frame::Event(frame), scratch);
        end_frame(scratch, start)?;
        self.commit(pending, scratch, 1);
        Ok(())
    }

    /// Drains the backlog: committed frames first, then the parked
    /// notifications re-framed as one recovery [`EventFrame`].
    /// `Ok(false)` = backpressure, everything unsent stays queued. Only
    /// the `pending` guard hands out a `&mut PendingWrites`, so holding
    /// one is what serializes writes to the socket.
    fn flush(&self, pending: &mut PendingWrites) -> io::Result<bool> {
        let socket_writes = &self.obs.transport.socket_writes;
        if !write_committed(&self.stream, pending, socket_writes)? {
            return Ok(false);
        }
        if pending.parked.is_empty() {
            return Ok(true);
        }
        let frame = EventFrame {
            version: PROTOCOL_VERSION,
            app: self.app,
            tick: pending.parked_tick,
            events: std::mem::take(&mut pending.parked),
        };
        self.commit_event(pending, frame, &mut Vec::new())?;
        write_committed(&self.stream, pending, socket_writes)
    }

    /// Ends a write path: a healthy connection hands any remaining
    /// backlog to the owning thread (which arms writable interest and
    /// finishes the flush once the peer drains); a failed one has its
    /// socket shut down, so that thread observes the failure and reaps
    /// it. Call with
    /// the `pending` lock held so the backlog check and the hand-off are
    /// one atomic step.
    fn settle_write(&self, pending: &PendingWrites, result: io::Result<()>) -> io::Result<()> {
        match &result {
            Ok(()) if pending.has_backlog() => self.notify.notify(),
            Ok(()) => {}
            Err(_) => {
                let _ = self.stream.shutdown(std::net::Shutdown::Both);
            }
        }
        result
    }

    /// Writes `count` response/control frames — `frames` holds them
    /// whole, length prefixes included, in order — through the backlog
    /// queue, so they can never interleave into a partially-written push
    /// frame: one commit behind whatever is queued, one flush, however
    /// many frames a turn produced. Under backpressure they stay
    /// committed in order and go out on a later flush (the peer
    /// necessarily reads before it can await these responses); the error
    /// return is reserved for a dead socket or an overflowing backlog,
    /// both of which end the connection.
    pub(super) fn write_frames(&self, frames: &[u8], count: usize) -> io::Result<()> {
        let mut pending = crate::lock::lock(&self.pending);
        let result = (|| {
            if pending.queued_bytes().saturating_add(frames.len()) > MAX_PENDING_BYTES {
                return Err(io::Error::new(
                    io::ErrorKind::OutOfMemory,
                    "write backlog overflow: peer sends but never drains",
                ));
            }
            self.commit(&mut pending, frames, count);
            self.flush(&mut pending).map(drop)
        })();
        self.settle_write(&pending, result)
    }

    /// The owning thread's writable-readiness flush: `Ok(true)` = fully
    /// drained (writable interest can be disarmed), `Ok(false)` = still
    /// backlogged, `Err` = the socket is dead and the connection should
    /// close.
    pub(super) fn flush_writable(&self) -> io::Result<bool> {
        let mut pending = crate::lock::lock(&self.pending);
        if !pending.has_backlog() {
            return Ok(true);
        }
        self.flush(&mut pending)?;
        Ok(!pending.has_backlog())
    }

    /// Delivers one event frame, queueing under `policy` when the socket
    /// is full instead of disconnecting the subscriber. `scratch` is the
    /// caller's encode buffer, overwritten.
    fn push_event(&self, frame: EventFrame, policy: OutboxPolicy, scratch: &mut Vec<u8>) {
        let mut pending = crate::lock::lock(&self.pending);
        let result = (|| {
            if pending.queued_bytes() > MAX_PENDING_BYTES {
                return Err(io::Error::new(
                    io::ErrorKind::OutOfMemory,
                    "write backlog overflow",
                ));
            }
            if self.flush(&mut pending)? {
                // Backlog clear: commit this frame to the wire order.
                self.commit_event(&mut pending, frame, scratch)?;
                self.flush(&mut pending)?;
            } else {
                // Socket still full: park the notifications under the
                // app's outbox policy rather than queueing unbounded
                // bytes — edges all survive, levels coalesce.
                pending.parked_tick = frame.tick;
                let offered = frame.events.len() + pending.parked.len();
                for event in frame.events {
                    policy.push(&mut pending.parked, event);
                }
                // Whatever the outbox policy coalesced or evicted at
                // the cap is a drop worth counting.
                let dropped = offered.saturating_sub(pending.parked.len());
                if dropped > 0 {
                    self.obs.transport.coalesce_drops.add(dropped as u64);
                }
            }
            Ok(())
        })();
        let _ = self.settle_write(&pending, result);
    }

    /// Retries the backlog without new traffic — the per-settlement
    /// recovery path for a subscriber that drained its socket again.
    fn retry_backlog(&self) {
        let mut pending = crate::lock::lock(&self.pending);
        if pending.has_backlog() {
            let result = self.flush(&mut pending).map(drop);
            let _ = self.settle_write(&pending, result);
        }
    }

    /// Committed-but-unwritten frames plus parked notifications.
    pub(super) fn backlog(&self) -> usize {
        let pending = crate::lock::lock(&self.pending);
        pending.queued_frames + pending.parked.len()
    }
}

/// Drains subscribed apps' outboxes and pushes the resulting
/// [`EventFrame`]s to every subscribed connection. Runs inside the
/// settlement barrier (see
/// [`ShardedEcovisor::on_settlement`](crate::ShardedEcovisor::on_settlement)),
/// so the pushed sequence is exactly the per-settlement event sequence.
///
/// A subscriber whose socket is full is **not** disconnected: its frame
/// is queued/parked per [`PendingWrites`], and every settlement retries
/// the backlog, so a hung subscriber that starts draining again catches
/// up (edge events intact, level events coalesced keep-latest under the
/// app's [`OutboxPolicy`]).
pub(super) fn broadcast_events(eco: &Ecovisor, registry: &Registry) {
    // Snapshot the registry, then group subscribers by app: the app's
    // outbox is drained once and every subscriber gets its own filtered
    // copy of the same frame.
    let snapshot: Vec<Arc<ConnShared>> = crate::lock::lock(registry).clone();
    let mut by_app: BTreeMap<AppId, Vec<(Arc<ConnShared>, EventFilter)>> = BTreeMap::new();
    for conn in snapshot {
        let filter = *crate::lock::lock(&conn.filter);
        if let Some(filter) = filter {
            by_app.entry(conn.app).or_default().push((conn, filter));
        }
    }
    // One encode buffer for every frame this settlement pushes.
    let mut scratch = Vec::new();
    for (app, subscribers) in by_app {
        let policy = eco.outbox_policy(app).unwrap_or_default();
        // Drain only what some subscriber actually wants: events outside
        // the union of filters stay pending for polling/draining.
        let union = subscribers
            .iter()
            .fold(EventFilter::none(), |acc, (_, f)| acc.union(f));
        let frame = eco.take_event_frame_matching(app, &union);
        for (conn, filter) in subscribers {
            let filtered = frame.as_ref().map(|f| f.filtered(&filter));
            match filtered {
                Some(filtered) if !filtered.events.is_empty() => {
                    conn.push_event(filtered, policy, &mut scratch);
                }
                // Nothing new for this subscriber — still a chance to
                // drain whatever backpressure left behind.
                _ => conn.retry_backlog(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::framing::read_frame;
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    #[test]
    fn backpressure_parks_events_and_recovers() {
        use simkit::units::Watts;

        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut subscriber = TcpStream::connect(addr).expect("connect");
        let (server_side, _) = listener.accept().expect("accept");
        // Served sockets are non-blocking: a full send buffer answers
        // `WouldBlock`, which is what turns a hung subscriber into
        // backpressure instead of an indefinitely parked broadcast.
        server_side.set_nonblocking(true).expect("nonblocking");
        // Generous read bound: only a real delivery bug should trip it.
        subscriber
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        // A real notify: every backlogged write marks the token dirty
        // and wakes the (here unpolled) event loop.
        let poll = reactor::Poll::new().expect("poll");
        let dirty = Arc::new(Mutex::new(Vec::new()));
        let notify = WriteNotify::new(
            7,
            Arc::clone(&dirty),
            reactor::Waker::new(&poll, reactor::Token(1)).expect("waker"),
        );
        let conn = Arc::new(ConnShared::new(
            AppId::new(1),
            Arc::new(server_side),
            notify,
            crate::obs::ObsHub::new(),
        ));
        let policy = OutboxPolicy::with_cap(2);
        let level = |w: f64| Notification::SolarChange {
            previous: Watts::new(0.0),
            current: Watts::new(w),
        };
        let frame = |tick: u64, events: Vec<Notification>| EventFrame {
            version: PROTOCOL_VERSION,
            app: AppId::new(1),
            tick,
            events,
        };

        // Fill the socket buffers with frames the subscriber never
        // reads, until a frame has to stay committed-but-unwritten.
        let mut tick = 0u64;
        let mut committed_frames = 0usize;
        let mut scratch = Vec::new();
        for _ in 0..10 {
            tick += 1;
            conn.push_event(frame(tick, vec![level(1.0); 200_000]), policy, &mut scratch);
            committed_frames += 1;
            if crate::lock::lock(&conn.pending).queued_bytes() > 0 {
                break;
            }
        }
        assert!(
            crate::lock::lock(&conn.pending).queued_bytes() > 0,
            "socket buffers never filled; cannot exercise backpressure"
        );
        assert_eq!(
            *crate::lock::lock(&dirty),
            vec![7],
            "a backlogged write hands the connection to its thread, once"
        );

        // Further frames park under the outbox policy: every edge
        // survives, levels coalesce at the cap — and the socket is NOT
        // shut down.
        let parked_edges = 4usize;
        for _ in 0..parked_edges {
            tick += 1;
            conn.push_event(
                frame(tick, vec![level(tick as f64), Notification::BatteryFull]),
                policy,
                &mut scratch,
            );
        }
        assert_eq!(
            *crate::lock::lock(&dirty),
            vec![7],
            "still once, however many writes backlog behind the first"
        );
        // The thread takes the list; the next backlogged write lists the
        // connection again.
        crate::lock::lock(&dirty).clear();
        conn.notify.taken();
        conn.retry_backlog();
        assert_eq!(*crate::lock::lock(&dirty), vec![7]);
        {
            let pending = crate::lock::lock(&conn.pending);
            let edges = pending
                .parked
                .iter()
                .filter(|e| e.is_edge_triggered())
                .count();
            let levels = pending.parked.len() - edges;
            assert_eq!(edges, parked_edges, "no edge event may ever be dropped");
            assert!(
                levels <= 2,
                "levels must respect the policy cap, got {levels}"
            );
        }

        // The subscriber wakes up and drains; a driver thread retries
        // the backlog the way every settlement would. Everything
        // committed arrives intact, plus one recovery frame carrying the
        // parked events.
        let stop = Arc::new(AtomicBool::new(false));
        let retrier = {
            let conn = Arc::clone(&conn);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    conn.retry_backlog();
                    std::thread::sleep(Duration::from_millis(5));
                }
            })
        };
        let mut drained: Vec<EventFrame> = Vec::new();
        for _ in 0..committed_frames + 1 {
            let payload = read_frame(&mut subscriber)
                .expect("subscriber read")
                .expect("stream stayed open");
            match SERVED_CODEC.decode::<Frame>(&payload).expect("frame") {
                Frame::Event(f) => drained.push(f),
                other => panic!("unexpected frame: {other:?}"),
            }
        }
        stop.store(true, Ordering::SeqCst);
        retrier.join().expect("retrier");
        assert_eq!(
            drained.len(),
            committed_frames + 1,
            "committed frames plus exactly one recovery frame"
        );
        let recovered = drained.last().expect("recovery frame");
        assert_eq!(recovered.tick, tick, "stamped with the newest parked tick");
        let edge_count = drained
            .iter()
            .flat_map(|f| f.events.iter())
            .filter(|e| e.is_edge_triggered())
            .count();
        assert_eq!(edge_count, parked_edges, "each edge delivered exactly once");
        let pending = crate::lock::lock(&conn.pending);
        assert!(pending.parked.is_empty());
        assert_eq!(pending.queued_bytes(), 0);
        assert_eq!(pending.queued_frames, 0);
        drop(pending);
        assert_eq!(conn.backlog(), 0);
    }
}
