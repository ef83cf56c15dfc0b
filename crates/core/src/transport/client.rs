//! The remote client: the [`EnergyClient`] method surface over one framed
//! TCP connection, plus the operator-side admin calls.

use std::io;
use std::net::{TcpStream, ToSocketAddrs};

use container_cop::AppId;

use super::admin::{chunk_at, Reassembler};
use super::framing::{read_frame, read_frame_into, write_frame};
use super::hello::{ClientHelloV2, ServerHello};
use super::{WireCodec, SERVED_CODEC};
use crate::client::EnergyClient;
use crate::event::Notification;
use crate::federation::{FedAppView, TenantSnapshot};
use crate::proto::{
    ControlFrame, EnergyRequest, EnergyResponse, EventFrame, Frame, ProtoError, RequestBatch,
    ResponseBatch, StatsReport,
};
use crate::snapshot::Snapshot;
use crate::PROTOCOL_VERSION;

/// The out-of-process protocol handle: same [`EnergyClient`] surface as
/// [`crate::client::EcovisorClient`], transported over a framed TCP
/// connection.
///
/// The client also *receives*: event frames the server pushes (after
/// [`subscribe_events`](EnergyClient::subscribe_events)) are collected
/// into an inbox while responses are awaited — drain them with
/// [`EnergyClient::events`] /
/// [`take_event_frames`](Self::take_event_frames), or wait for the next
/// one with [`recv_event`](Self::recv_event).
///
/// Transport failures surface as [`EnergyResponse::Err`] values carrying
/// [`ProtoError::Other`] — the failures-are-values contract extends over
/// the network, so a policy loop sees a dead server the same way it sees
/// a scope denial.
pub struct RemoteEcovisorClient {
    stream: TcpStream,
    app: AppId,
    queue: Vec<EnergyRequest>,
    broken: bool,
    inbox: Vec<EventFrame>,
    /// Grow-only read buffer reused across frames.
    rbuf: Vec<u8>,
    /// Encode buffer reused across request frames.
    wbuf: Vec<u8>,
}

impl std::fmt::Debug for RemoteEcovisorClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteEcovisorClient")
            .field("app", &self.app)
            .field("queued", &self.queue.len())
            .field("inbox", &self.inbox.len())
            .finish_non_exhaustive()
    }
}

fn invalid_data(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn not_connected() -> io::Error {
    io::Error::new(io::ErrorKind::NotConnected, "connection already failed")
}

impl RemoteEcovisorClient {
    /// Connects without a credential (a server in trusted-network mode).
    ///
    /// # Errors
    ///
    /// On connection failure or a rejected hello.
    pub fn connect(addr: impl ToSocketAddrs, app: AppId) -> io::Result<Self> {
        Self::connect_full(addr, app, None)
    }

    /// Connects presenting `credential`, if any, as the app's token — one
    /// is required against a server built with a
    /// [`CredentialRegistry`](crate::CredentialRegistry).
    ///
    /// # Errors
    ///
    /// On connection failure, a rejected hello (a wrong token included,
    /// surfaced as
    /// [`io::ErrorKind::ConnectionRefused`] carrying the server's
    /// reason), or a server that accepted a wire version or frame
    /// encoding this client did not offer.
    pub fn connect_full(
        addr: impl ToSocketAddrs,
        app: AppId,
        credential: Option<String>,
    ) -> io::Result<Self> {
        let hello = ClientHelloV2::new(app, vec![SERVED_CODEC], credential);
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        write_frame(&mut stream, &WireCodec::Json.encode(&hello))?;
        let reply = read_frame(&mut stream)?.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::ConnectionAborted,
                "server closed during hello",
            )
        })?;
        let reply: ServerHello = WireCodec::Json
            .decode(&reply)
            .map_err(|e| invalid_data(format!("bad hello: {e}")))?;
        match reply {
            ServerHello::Accept {
                version: PROTOCOL_VERSION,
                codec: SERVED_CODEC,
            } => Ok(Self {
                stream,
                app,
                queue: Vec::new(),
                broken: false,
                inbox: Vec::new(),
                rbuf: Vec::new(),
                wbuf: Vec::new(),
            }),
            // Reading on would mis-decode every frame that follows.
            ServerHello::Accept { version, codec } => Err(invalid_data(format!(
                "server accepted wire v{version} in {codec:?} frames, which this client never offered"
            ))),
            ServerHello::Reject { reason } => {
                Err(io::Error::new(io::ErrorKind::ConnectionRefused, reason))
            }
        }
    }

    /// `true` once the transport has failed; subsequent requests answer
    /// with error values without touching the socket.
    pub fn is_broken(&self) -> bool {
        self.broken
    }

    /// Drains the pushed event frames received so far (settlement-tick
    /// stamps included). [`EnergyClient::events`] is the flattened,
    /// poll-merged form of this.
    pub fn take_event_frames(&mut self) -> Vec<EventFrame> {
        std::mem::take(&mut self.inbox)
    }

    /// Blocks until the server pushes the next event frame (or returns
    /// one already queued). Requires an active subscription to ever
    /// return; a read timeout configured on the socket surfaces as the
    /// corresponding I/O error.
    ///
    /// # Errors
    ///
    /// On a broken transport or any I/O/decode failure.
    pub fn recv_event(&mut self) -> io::Result<EventFrame> {
        if !self.inbox.is_empty() {
            return Ok(self.inbox.remove(0));
        }
        if self.broken {
            return Err(not_connected());
        }
        loop {
            match self.next_frame()? {
                Frame::Event(frame) => return Ok(frame),
                Frame::Control(_) => {}
                Frame::Response(_) | Frame::Request(_) => {
                    return Err(invalid_data("unsolicited non-event frame".into()));
                }
            }
        }
    }

    /// Reads and decodes one frame, answering pings inline.
    fn next_frame(&mut self) -> io::Result<Frame> {
        loop {
            let len = read_frame_into(&mut self.stream, &mut self.rbuf)?.ok_or_else(|| {
                io::Error::new(io::ErrorKind::ConnectionAborted, "server closed connection")
            })?;
            let frame: Frame = SERVED_CODEC
                .decode(&self.rbuf[..len])
                .map_err(|e| invalid_data(e.to_string()))?;
            if let Frame::Control(ControlFrame::Ping) = frame {
                let payload = SERVED_CODEC.encode(&Frame::Control(ControlFrame::Pong));
                write_frame(&mut self.stream, &payload)?;
                continue;
            }
            return Ok(frame);
        }
    }

    /// Sends one request frame, then reads until its response arrives —
    /// pushed event frames interleave and are buffered in order in the
    /// inbox.
    fn round_trip(&mut self, batch: &RequestBatch) -> io::Result<ResponseBatch> {
        self.wbuf.clear();
        Frame::encode_request(batch, &mut self.wbuf);
        write_frame(&mut self.stream, &self.wbuf)?;
        loop {
            match self.next_frame()? {
                Frame::Response(resp) => return Ok(resp),
                Frame::Event(frame) => self.inbox.push(frame),
                Frame::Control(_) => {}
                Frame::Request(_) => {
                    return Err(invalid_data("server sent a request frame".into()));
                }
            }
        }
    }

    /// Pulls a complete [`Snapshot`] of the server's ecovisor over the
    /// admin checkpoint surface ([`EnergyRequest::Snapshot`], chunked):
    /// chunk 0 captures it under the settlement barrier and caches the
    /// encoding on the server side of this connection; further chunks
    /// page the same point-in-time image out.
    ///
    /// Requires a server that authenticated this connection's credential
    /// (built
    /// [`with_credentials`](crate::EcovisorServer::with_credentials)); a
    /// server without a credential registry answers
    /// [`ProtoError::Denied`], surfaced here as
    /// [`io::ErrorKind::PermissionDenied`].
    ///
    /// # Errors
    ///
    /// On a broken transport, a denied admin surface, or an undecodable
    /// payload.
    pub fn fetch_snapshot(&mut self) -> io::Result<Snapshot> {
        let bytes = self.fetch_chunked("snapshot", |chunk| EnergyRequest::Snapshot { chunk })?;
        Snapshot::from_bytes(&bytes)
            .map_err(|e| invalid_data(format!("snapshot payload undecodable: {e}")))
    }

    /// Seeds the server's ecovisor from `snap` over the admin checkpoint
    /// surface ([`EnergyRequest::Restore`], chunked). On success the
    /// remote process holds exactly the captured state and continues
    /// bit-identically to the process the snapshot came from (given the
    /// same subsequent traffic and the same solar/carbon traces).
    ///
    /// # Errors
    ///
    /// Everything [`fetch_snapshot`](Self::fetch_snapshot) can fail
    /// with, plus the server-side validation failures of
    /// [`Ecovisor::apply_snapshot`](crate::Ecovisor::apply_snapshot),
    /// surfaced as refusal messages.
    pub fn push_restore(&mut self, snap: &Snapshot) -> io::Result<()> {
        self.push_chunked("restore", &snap.to_bytes(), |index, total, data| {
            EnergyRequest::Restore { index, total, data }
        })
    }

    /// Downloads one tenant's capture over the admin migration surface
    /// ([`EnergyRequest::MigrateOut`], chunked like
    /// [`fetch_snapshot`](Self::fetch_snapshot)). The tenant **keeps
    /// running on the server** — after grafting the capture onto the
    /// destination ([`push_tenant`](Self::push_tenant)), commit the move
    /// with [`commit_migration`](Self::commit_migration).
    ///
    /// # Errors
    ///
    /// On a broken transport, a denied admin surface, an unknown tenant,
    /// or an undecodable payload.
    pub fn fetch_tenant(&mut self, app: AppId) -> io::Result<TenantSnapshot> {
        let bytes = self.fetch_chunked("migrate-out", |chunk| EnergyRequest::MigrateOut {
            app,
            chunk,
        })?;
        TenantSnapshot::from_bytes(&bytes)
            .map_err(|e| invalid_data(format!("tenant capture undecodable: {e}")))
    }

    /// Grafts a tenant capture onto the server
    /// ([`EnergyRequest::MigrateIn`], chunked). A rejection — tampered
    /// bytes, environment mismatch, colliding id — leaves the server
    /// untouched.
    ///
    /// # Errors
    ///
    /// Everything [`push_restore`](Self::push_restore) can fail with,
    /// plus the server-side validation failures of
    /// [`Ecovisor::graft_app`](crate::Ecovisor::graft_app).
    pub fn push_tenant(&mut self, snap: &TenantSnapshot) -> io::Result<()> {
        self.push_chunked("migrate-in", &snap.to_bytes(), |index, total, data| {
            EnergyRequest::MigrateIn { index, total, data }
        })
    }

    /// Commits a migration on the **source** server: evicts the tenant.
    /// Send only after [`push_tenant`](Self::push_tenant) succeeded on
    /// the destination.
    ///
    /// # Errors
    ///
    /// On a broken transport, a denied admin surface, or an unknown
    /// tenant.
    pub fn commit_migration(&mut self, app: AppId) -> io::Result<()> {
        self.admin_ack("migrate-commit", EnergyRequest::MigrateCommit { app })
    }

    /// Federated tick, phase one: begins the server's tick and returns
    /// its local demand views (see `docs/FEDERATION.md` for the
    /// coordinator choreography).
    ///
    /// # Errors
    ///
    /// On a broken transport or a denied admin surface.
    pub fn fed_collect(&mut self) -> io::Result<Vec<FedAppView>> {
        self.admin_call(
            "fed-collect",
            EnergyRequest::FedCollect,
            |resp| match resp {
                EnergyResponse::Demands(views) => Ok(views),
                other => Err(other),
            },
        )
    }

    /// Federated tick, phase two: settles the globally merged view list
    /// on the server and advances its clock.
    ///
    /// # Errors
    ///
    /// Everything [`fed_collect`](Self::fed_collect) can fail with, plus
    /// the server-side validation failures of
    /// [`ShardedEcovisor::fed_settle`](crate::ShardedEcovisor::fed_settle).
    pub fn fed_settle(&mut self, views: &[FedAppView]) -> io::Result<()> {
        self.admin_ack(
            "fed-settle",
            EnergyRequest::FedSettle {
                views: views.to_vec(),
            },
        )
    }

    /// Aligns the server's container-id cursor to the coordinator's
    /// global cursor (refused if it would move backwards).
    ///
    /// # Errors
    ///
    /// On a broken transport, a denied admin surface, or a backwards
    /// cursor.
    pub fn fed_align(&mut self, next_container: u64) -> io::Result<()> {
        self.admin_ack("fed-align", EnergyRequest::FedAlign { next_container })
    }

    /// Reads the server's container-id cursor.
    ///
    /// # Errors
    ///
    /// On a broken transport or a denied admin surface.
    pub fn fed_cursor(&mut self) -> io::Result<u64> {
        self.admin_call("fed-cursor", EnergyRequest::FedCursor, |resp| match resp {
            EnergyResponse::Count(n) => Ok(n as u64),
            other => Err(other),
        })
    }

    /// Fetches the server's observability report: serving-level gauges
    /// plus a full dump of the attached metric registry (dispatch
    /// latency histograms, transport frame and syscall counters,
    /// settlement-barrier timings — see `docs/OBSERVABILITY.md` for the catalogue).
    ///
    /// # Errors
    ///
    /// On a broken transport or a denied admin surface (the `Stats`
    /// request is credential-gated like every other admin request).
    pub fn fetch_stats(&mut self) -> io::Result<StatsReport> {
        self.admin_call("stats", EnergyRequest::Stats, |resp| match resp {
            EnergyResponse::Stats(report) => Ok(report),
            other => Err(other),
        })
    }

    /// Downloads one chunked payload: requests chunks in order until the
    /// reassembler has the last one.
    fn fetch_chunked(
        &mut self,
        what: &str,
        request: impl Fn(u32) -> EnergyRequest,
    ) -> io::Result<Vec<u8>> {
        let mut assembly = Reassembler::default();
        loop {
            let (index, total, data) =
                self.admin_call(what, request(assembly.next_index()), |resp| match resp {
                    EnergyResponse::SnapshotChunk { index, total, data } => {
                        Ok((index, total, data))
                    }
                    other => Err(other),
                })?;
            let taken = assembly
                .accept(index, total, &data)
                .map_err(|e| invalid_data(format!("{what} {e}")))?;
            if let Some(bytes) = taken {
                return Ok(bytes);
            }
        }
    }

    /// Uploads one chunked payload, each chunk acknowledged before the
    /// next is sent.
    fn push_chunked(
        &mut self,
        what: &str,
        bytes: &[u8],
        request: impl Fn(u32, u32, Vec<u8>) -> EnergyRequest,
    ) -> io::Result<()> {
        let mut index = 0;
        while let Some((total, data)) = chunk_at(bytes, index) {
            self.admin_ack(what, request(index, total, data.to_vec()))?;
            index += 1;
        }
        Ok(())
    }

    /// Sends one ack-style admin request and maps its response to `()`.
    fn admin_ack(&mut self, what: &str, request: EnergyRequest) -> io::Result<()> {
        self.admin_call(what, request, |resp| match resp {
            EnergyResponse::Ok => Ok(()),
            other => Err(other),
        })
    }

    /// Sends one admin request as its own batch (queued requests are
    /// flushed first, so ordering is preserved) and maps its response:
    /// `expect` picks the answer the request should get, a refusal
    /// becomes the closest I/O error kind, anything else is a protocol
    /// violation.
    fn admin_call<T>(
        &mut self,
        what: &str,
        request: EnergyRequest,
        expect: impl FnOnce(EnergyResponse) -> Result<T, EnergyResponse>,
    ) -> io::Result<T> {
        if self.broken {
            return Err(not_connected());
        }
        self.flush();
        let batch = RequestBatch {
            version: PROTOCOL_VERSION,
            app: self.app,
            requests: vec![request],
        };
        let response = match self.round_trip(&batch) {
            Ok(mut resp) => resp.responses.pop(),
            Err(e) => {
                self.broken = true;
                return Err(e);
            }
        };
        let response = response.ok_or_else(|| invalid_data("empty admin response batch".into()))?;
        expect(response).map_err(|other| match other {
            EnergyResponse::Err(e) => {
                let kind = match e {
                    ProtoError::Denied(_) => io::ErrorKind::PermissionDenied,
                    _ => io::ErrorKind::InvalidData,
                };
                io::Error::new(kind, format!("server refused {what}: {e}"))
            }
            other => invalid_data(format!("unexpected {what} response: {other:?}")),
        })
    }

    /// One transport-failure response per request, so batch arithmetic
    /// (one response per request, in order) holds even when the wire dies.
    fn failure_batch(batch: &RequestBatch, err: &io::Error) -> ResponseBatch {
        ResponseBatch {
            version: batch.version,
            app: batch.app,
            responses: vec![
                EnergyResponse::Err(ProtoError::Other(format!("transport: {err}")));
                batch.requests.len()
            ],
        }
    }
}

impl EnergyClient for RemoteEcovisorClient {
    fn app_id(&self) -> AppId {
        self.app
    }

    fn pending(&self) -> &Vec<EnergyRequest> {
        &self.queue
    }

    fn pending_mut(&mut self) -> &mut Vec<EnergyRequest> {
        &mut self.queue
    }

    fn transport(&mut self, batch: RequestBatch) -> ResponseBatch {
        if self.broken {
            return Self::failure_batch(&batch, &not_connected());
        }
        match self.round_trip(&batch) {
            Ok(resp) => resp,
            Err(e) => {
                self.broken = true;
                Self::failure_batch(&batch, &e)
            }
        }
    }

    /// Pushed-then-polled drain: event frames already received off the
    /// wire come first (in arrival order), then whatever the server-side
    /// outbox still holds. With an active subscription the poll is
    /// empty — push drained the outbox at settlement — so the sequence
    /// is exactly the pushed one.
    fn events(&mut self) -> Vec<Notification> {
        let polled = self.poll_events().unwrap_or_default();
        let mut out: Vec<Notification> = self
            .inbox
            .drain(..)
            .flat_map(|frame| frame.events)
            .collect();
        out.extend(polled);
        out
    }
}

impl Drop for RemoteEcovisorClient {
    fn drop(&mut self) {
        if !self.broken {
            // Tick-boundary safety net, mirroring the local client.
            self.flush();
        }
    }
}
