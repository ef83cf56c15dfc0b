//! The server's public face and its per-frame semantics: binding and
//! hardening an [`EcovisorServer`], what one inbound payload means
//! ([`process_payload`]), and the driver-side [`ServerHandle`]. The
//! threads that move the bytes live in [`super::evented`].

use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use container_cop::AppId;

use super::admin::{serve_admin, AdminState};
use super::conn::{broadcast_events, ConnShared, Registry};
use super::evented;
use super::hello::CredentialRegistry;
use super::SERVED_CODEC;
use crate::ecovisor::Ecovisor;
use crate::proto::{
    ControlFrame, EnergyRequest, EnergyResponse, Frame, ProtoError, RequestBatch, ResponseBatch,
};
use crate::shard::ShardedEcovisor;
use crate::PROTOCOL_VERSION;

/// An ecovisor shared between the transport threads and the driver loop:
/// per-app shards dispatch in parallel, settlement quiesces them (see
/// [`ShardedEcovisor`]).
pub type SharedEcovisor = Arc<ShardedEcovisor>;

/// Everything the serving threads share.
pub(super) struct ServeCtx {
    pub(super) shared: SharedEcovisor,
    /// The credential table, behind a mutex so an operator can rotate
    /// tokens on a live server ([`ServerHandle::rotate_credential`]).
    /// Credentials gate the *hello* only: rotation affects the next
    /// handshake, never a connection that already authenticated.
    pub(super) creds: Mutex<Option<CredentialRegistry>>,
    pub(super) read_timeout: Option<Duration>,
    /// Writer halves of live connections, walked by the broadcast hook.
    pub(super) registry: Arc<Registry>,
    /// The observability hub attached to the served ecovisor. The
    /// transport layer records wall-clock series into it directly; the
    /// wire `Stats` request dumps it.
    pub(super) obs: Arc<crate::obs::ObsHub>,
    /// Connections currently in any serving phase (maintained by the
    /// serving threads; see [`ServerStats::active_connections`]).
    pub(super) active: Arc<AtomicUsize>,
    /// Summed receive-buffer capacity across live connections
    /// (maintained by the serving threads; see
    /// [`ServerStats::recv_buffer_bytes`]).
    pub(super) recv_bytes: Arc<AtomicUsize>,
}

impl ServeCtx {
    /// The resource counters, read once for both the driver side
    /// ([`ServerHandle::stats`]) and the wire `Stats` answer. Each
    /// counter is read atomically; the trio is not a transaction.
    pub(super) fn stats(&self) -> ServerStats {
        ServerStats {
            active_connections: self.active.load(Ordering::SeqCst),
            subscriber_backlog: crate::lock::lock(&self.registry)
                .iter()
                .map(|conn| conn.backlog())
                .sum(),
            recv_buffer_bytes: self.recv_bytes.load(Ordering::SeqCst),
        }
    }
}

/// What a serving thread does with the outcome of one processed inbound
/// payload.
pub(super) enum Served {
    /// The encoded answer was appended to the reply buffer: frame it and
    /// send it back to the peer.
    Reply,
    /// Nothing to send (e.g. an inbound `Pong`).
    Quiet,
    /// Protocol violation: close the connection without replying.
    Close,
}

/// One pinned-scope denial batch (the spoofed-envelope answer).
fn pinned_denial(batch: &RequestBatch, pinned: AppId) -> ResponseBatch {
    ResponseBatch {
        version: batch.version,
        app: batch.app,
        responses: vec![
            EnergyResponse::Err(ProtoError::Other(format!(
                "connection is pinned to {pinned}, batch claims {}",
                batch.app
            )));
            batch.requests.len()
        ],
    }
}

/// Processes one inbound payload — a [`Frame`]. Subscriptions and the
/// admin surface are interpreted per-connection here; `conn` is the
/// connection's writer half (its filter is flipped by
/// `SubscribeEvents`), `admin` its transfer state, `reply` the serving
/// thread's turn buffer, onto whose end exactly the encoded answer has
/// been appended when this returns [`Served::Reply`] (and nothing
/// otherwise).
pub(super) fn process_payload(
    ctx: &ServeCtx,
    conn: &ConnShared,
    admin: &mut AdminState,
    payload: &[u8],
    reply: &mut Vec<u8>,
) -> Served {
    match SERVED_CODEC.decode::<Frame>(payload) {
        Ok(Frame::Request(batch)) => {
            // Scope pinning: a remote peer is untrusted, so a batch
            // claiming a different app than the hello pinned is a spoof
            // attempt — denied as a value, per request.
            let response = if batch.app != conn.app {
                pinned_denial(&batch, conn.app)
            } else {
                // The transport gives connection-level requests their
                // meaning only in an envelope the dispatcher serves, so
                // the two never disagree about whether one took effect.
                let served = batch.version == PROTOCOL_VERSION;
                // Subscriptions: the dispatcher acknowledges
                // `SubscribeEvents`, the transport applies it to *this*
                // connection.
                for req in batch.requests.iter().filter(|_| served) {
                    if let EnergyRequest::SubscribeEvents { filter } = req {
                        *crate::lock::lock(&conn.filter) = Some(*filter);
                    }
                }
                // Sharded dispatch: no global lock — the serving thread
                // contends only with traffic to the same app's shard (and
                // with the driver's settlement barrier).
                let mut response = ctx.shared.dispatch_batch(&batch);
                // Admin surface, same shape as subscriptions: the
                // dispatcher acked the request (so recorded traces
                // replay arity-correct); the transport substitutes the
                // real per-connection answer.
                for (req, resp) in batch.requests.iter().zip(response.responses.iter_mut()) {
                    if served && req.is_admin() {
                        *resp = serve_admin(req, ctx, admin);
                    }
                }
                response
            };
            SERVED_CODEC.encode_into(&Frame::Response(response), reply);
            Served::Reply
        }
        Ok(Frame::Control(ControlFrame::Ping)) => {
            SERVED_CODEC.encode_into(&Frame::Control(ControlFrame::Pong), reply);
            Served::Reply
        }
        Ok(Frame::Control(ControlFrame::Pong)) => Served::Quiet,
        // Response/Event are server-direction frames; a client sending
        // one is out of protocol. An undecodable frame means framing may
        // be out of sync, and the server cannot know how many requests
        // it held, so any reply would break the one-response-per-request
        // contract. Close, never guess — the client surfaces the dropped
        // connection as transport-failure values with the right arity.
        Ok(Frame::Response(_)) | Ok(Frame::Event(_)) | Err(_) => Served::Close,
    }
}

/// A TCP server answering protocol batches against one shared ecovisor
/// and pushing event frames to subscribed connections.
///
/// Bind, optionally harden with
/// [`with_credentials`](Self::with_credentials) /
/// [`with_read_timeout`](Self::with_read_timeout), then
/// [`spawn`](Self::spawn) the serving runtime onto background threads,
/// keeping a [`ServerHandle`] for the driver side.
pub struct EcovisorServer {
    listener: TcpListener,
    ctx: Arc<ServeCtx>,
    /// Serving threads for [`spawn`](Self::spawn); `0` means
    /// auto-size from the host's available parallelism.
    workers: usize,
}

impl std::fmt::Debug for EcovisorServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EcovisorServer")
            .field("addr", &self.listener.local_addr().ok())
            .field(
                "credentialed",
                &crate::lock::lock(&self.ctx.creds).is_some(),
            )
            .field("read_timeout", &self.ctx.read_timeout)
            .finish_non_exhaustive()
    }
}

impl EcovisorServer {
    /// Binds a listener, takes ownership of the ecovisor, and registers
    /// the post-settlement broadcast hook that fans event frames out to
    /// subscribed connections. Use port 0 for an ephemeral port (tests).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(addr: impl ToSocketAddrs, mut eco: Ecovisor) -> io::Result<Self> {
        // A live server always carries an observability hub: dispatch
        // and settlement record into it, the transport counts frames
        // into it, and the wire `Stats` request reads it back out.
        let obs = eco.obs_hub().unwrap_or_else(|| {
            let hub = crate::obs::ObsHub::new();
            eco.attach_obs(Arc::clone(&hub));
            hub
        });
        let shared = Arc::new(ShardedEcovisor::new(eco));
        let registry: Arc<Registry> = Arc::new(Mutex::new(Vec::new()));
        let hook_registry = Arc::clone(&registry);
        shared.on_settlement(move |eco| broadcast_events(eco, &hook_registry));
        Ok(Self {
            listener: TcpListener::bind(addr)?,
            ctx: Arc::new(ServeCtx {
                shared,
                creds: Mutex::new(None),
                read_timeout: None,
                registry,
                obs,
                active: Arc::new(AtomicUsize::new(0)),
                recv_bytes: Arc::new(AtomicUsize::new(0)),
            }),
            workers: 0,
        })
    }

    /// Sets the number of serving threads [`spawn`](Self::spawn) starts.
    /// The default (`0`) auto-sizes from the host's available
    /// parallelism, clamped to `2..=8` — the threads multiplex every
    /// connection between them, so their number never needs to scale
    /// with client count.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Requires every connection to authenticate its claimed [`AppId`]
    /// with the matching token from `creds` (carried in the hello,
    /// verified constant-time, rejected before any batch is served).
    ///
    /// Tokens can be rotated later on a live server with
    /// [`ServerHandle::rotate_credential`]; the gate applies at hello
    /// time only, so established connections are unaffected.
    #[must_use]
    pub fn with_credentials(self, creds: CredentialRegistry) -> Self {
        *crate::lock::lock(&self.ctx.creds) = Some(creds);
        self
    }

    /// Arms a per-connection read/idle timeout: a connection that sends
    /// nothing for `timeout` — including a dead subscriber holding a
    /// push stream — is treated as failed, logged, and reaped by its
    /// serving thread's idle sweep, which comes round every quarter of `timeout`
    /// (and no oftener than every 10 ms): a silent connection is gone
    /// within `timeout` and a quarter. Writes need no such bound: they
    /// never block (what a socket refuses is queued), so a peer that
    /// stops draining cannot wedge the broadcast path either way.
    #[must_use]
    pub fn with_read_timeout(mut self, timeout: Duration) -> Self {
        Arc::get_mut(&mut self.ctx)
            .expect("server context not yet shared")
            .read_timeout = Some(timeout);
        self
    }

    /// The bound address (reports the ephemeral port after a `:0` bind).
    ///
    /// # Errors
    ///
    /// Propagates the lookup failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Starts serving: a few identical serving threads (see
    /// [`with_workers`](Self::with_workers)), each driving non-blocking
    /// read/dispatch/write for the connections dealt to it — the first
    /// also accepts. A connection is one thread's for life; no thread is
    /// ever tied to one connection.
    ///
    /// # Errors
    ///
    /// Propagates address-lookup and epoll-setup failures.
    pub fn spawn(self) -> io::Result<ServerHandle> {
        evented::spawn_evented(self.listener, self.ctx, self.workers)
    }
}

/// A point-in-time snapshot of the serving runtime's resource counters.
///
/// Read it with [`ServerHandle::stats`]. This is the stable surface
/// leak detection gates on (every live replay in `ecoharness verify`,
/// `fuzz --soak` included, ends with a `leak-free` check): after every
/// client has disconnected and the serving threads have reaped the
/// registrations, all three counters return to zero — a persistently
/// non-zero residue is a leak in the transport, not noise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct ServerStats {
    /// Connections currently registered with a serving thread (an
    /// accepted socket counts from the moment the thread it was dealt to
    /// adopts it — before its hello is read, let alone answered). A
    /// client that disconnects (cleanly, mid-frame, or by tripping the
    /// idle timeout) drops off this count as soon as its thread reaps the
    /// registration.
    pub active_connections: usize,
    /// Backpressure diagnostic: committed-but-unwritten wire frames plus
    /// parked notifications, summed over every live connection. Zero
    /// when all subscribers are draining; a persistently growing value
    /// points at a hung subscriber that is being queued for (see the
    /// backlog discussion in the module docs).
    pub subscriber_backlog: usize,
    /// Bytes currently held in per-connection receive buffers (summed
    /// capacity, maintained by the serving threads as buffers grow for
    /// bursts and large frames and trim back when drained).
    pub recv_buffer_bytes: usize,
}

/// Driver-side handle to a spawned server: the address clients connect
/// to, the shared ecovisor the driver ticks, and the shutdown switch.
pub struct ServerHandle {
    pub(super) addr: SocketAddr,
    pub(super) ctx: Arc<ServeCtx>,
    pub(super) stop: Arc<AtomicBool>,
    /// One per serving thread: gets it out of `poll` so it observes
    /// `stop` promptly.
    pub(super) wakers: Vec<reactor::Waker>,
    pub(super) threads: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

impl ServerHandle {
    /// Address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared ecovisor, for ticking settlement between batches.
    pub fn ecovisor(&self) -> SharedEcovisor {
        Arc::clone(&self.ctx.shared)
    }

    /// The server's observability hub ([`EcovisorServer::bind`] attaches
    /// one when the ecovisor arrives without), for metric inspection; the
    /// wire equivalent is the credential-gated `Stats` admin request.
    /// Always `Some`: the `Option` is the signature existing callers
    /// (the `benchmark/` workspace) compile against.
    pub fn obs_hub(&self) -> Option<Arc<crate::obs::ObsHub>> {
        Some(Arc::clone(&self.ctx.obs))
    }

    /// A snapshot of the runtime's resource counters — the same reading
    /// the wire `Stats` answer carries.
    pub fn stats(&self) -> ServerStats {
        self.ctx.stats()
    }

    /// Rotates (or adds) `app`'s credential token on the live server.
    /// Takes effect for the *next* hello: connections that already
    /// authenticated keep serving — exactly the semantics an operator
    /// wants when cycling tokens without a maintenance window. Returns
    /// `false` (and changes nothing) when the server was spawned
    /// without a credential registry: rotation must never be the thing
    /// that silently turns authentication on.
    pub fn rotate_credential(&self, app: AppId, token: impl Into<Vec<u8>>) -> bool {
        match crate::lock::lock(&self.ctx.creds).as_mut() {
            Some(registry) => {
                registry.insert(app, token);
                true
            }
            None => false,
        }
    }

    /// The deterministic teardown sequence, shared by
    /// [`shutdown`](Self::shutdown) and `Drop` (idempotent): flip the
    /// stop flag, wake every serving thread out of `poll` (each closes
    /// its connections on its way out, the first the listener), then
    /// join them. No step waits on a timeout — a wedged peer cannot
    /// stall teardown, because the threads close sockets rather than
    /// waiting for them.
    fn stop_serving(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for waker in &self.wakers {
            let _ = waker.wake();
        }
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }

    /// Stops accepting, disconnects any live clients, joins the serving
    /// threads, and returns the shared ecovisor (sole
    /// ownership can be reclaimed with `Arc::try_unwrap` once all
    /// clients are dropped).
    pub fn shutdown(mut self) -> SharedEcovisor {
        self.stop_serving();
        Arc::clone(&self.ctx.shared)
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_serving();
    }
}
