//! Remote transport: the ecovisor protocol over TCP — one duplex wire,
//! one serving loop.
//!
//! PR 1 made every API call a wire-serializable message; this module puts
//! those messages on an actual wire, so an application binary can drive
//! an ecovisor in another process (the deployment shape of §3: tenants
//! are untrusted and live outside the energy-system virtualization
//! layer). [`EcovisorServer`](crate::EcovisorServer) owns the ecovisor and answers
//! [`RequestBatch`](crate::proto::RequestBatch) frames;
//! [`RemoteEcovisorClient`](crate::RemoteEcovisorClient) implements the same
//! [`EnergyClient`](crate::client::EnergyClient) method surface as the
//! in-process handle, so application code is transport-agnostic.
//!
//! The wire is *duplex*: the server does not only answer, it also
//! **pushes** — after every settlement, subscribed connections receive
//! the [`EventFrame`](crate::proto::EventFrame)s carrying the paper's
//! Table 2 asynchronous upcalls (`notify_solar_change`,
//! `notify_carbon_change`, `notify_battery_full/empty`, budget
//! exhaustion), so a remote application reacts to energy variability
//! without polling.
//!
//! ## Module map
//!
//! One file per decision, so each is made in exactly one place:
//!
//! | module    | owns                                                        |
//! |-----------|-------------------------------------------------------------|
//! | `framing` | the length-prefix frame format and its bounds               |
//! | `hello`   | the hello exchange (wire version, encoding) and credentials |
//! | `conn`    | a connection's committed-write queue, backpressure, push    |
//! | `admin`   | the credential-gated admin requests and the chunk flow      |
//! | `server`  | bind/harden/spawn, per-frame semantics, the driver's handle |
//! | `evented` | the serving threads that move the bytes                      |
//! | `client`  | [`RemoteEcovisorClient`](crate::RemoteEcovisorClient)                                    |
//!
//! ## Wire format
//!
//! Every message travels as a **transport frame**:
//!
//! ```text
//! +----------------+---------------------+
//! | length: u32 LE | payload (length B)  |
//! +----------------+---------------------+
//! ```
//!
//! Frames longer than [`MAX_FRAME_LEN`] are rejected (the read side never
//! allocates more than the peer has actually earned the right to send);
//! before the hello is accepted the bound is the much smaller
//! [`MAX_HELLO_LEN`]. After the hello, every payload is one
//! [`Frame`](crate::proto::Frame) (`Request` | `Response` | `Event` |
//! `Control`) in the **binary** encoding ([`serde::binary`]) — the one
//! encoding frames are served in — the kind travelling with the message
//! so the server may speak first.
//!
//! ## Hello: version, encoding, credential
//!
//! The first frame in each direction is a **hello**, always encoded as
//! JSON so it can be read before anything has been agreed. The client
//! sends a [`ClientHelloV2`](crate::ClientHelloV2) advertising the wire versions it speaks, the
//! frame encodings it accepts, and (optionally) a per-app **credential
//! token**. The server answers [`ServerHello::Accept`](crate::ServerHello::Accept) naming the wire
//! version — there is exactly one,
//! [`PROTOCOL_VERSION`](crate::PROTOCOL_VERSION) — and the frame
//! encoding — also exactly one, [`WireCodec::Binary`] — or
//! [`ServerHello::Reject`](crate::ServerHello::Reject) with a reason, after which it closes the
//! connection. A hello that does not offer the served wire version or
//! the served encoding (or is not a `ClientHelloV2` at all, like the
//! retired v1 hello shape) is rejected that way; both lists exist so a
//! later version or encoding can be introduced without a flag day. The
//! *envelope* `version` inside each batch is checked separately: the
//! dispatcher refuses a batch stamped with anything but
//! [`PROTOCOL_VERSION`](crate::PROTOCOL_VERSION) wholesale, and
//! the server applies no connection-level request such a batch carries;
//! see `docs/PROTOCOL.md`.
//!
//! The server **pins the connection to the hello's `AppId`**: any later
//! batch claiming a different app scope is denied with error values
//! without touching the dispatcher. When the server is built
//! [`with_credentials`](crate::EcovisorServer::with_credentials), pinning
//! upgrades from integrity to **authentication**: the hello must carry
//! the app's credential token (verified in constant time against the
//! server-side [`CredentialRegistry`](crate::CredentialRegistry)) before any batch is served.
//! Without a registry the listener stays open (trusted-network mode).
//!
//! ## Event push
//!
//! A connection subscribes by sending
//! [`EnergyRequest::SubscribeEvents`](crate::proto::EnergyRequest::SubscribeEvents)
//! (the transport interprets it for the connection that sent it; the
//! dispatcher just acknowledges). From then on, the server's
//! post-settlement broadcast hook (registered on the
//! [`ShardedEcovisor`](crate::ShardedEcovisor) at bind time, run inside
//! the settlement barrier — see
//! `ShardedEcovisor::on_settlement`)
//! drains each subscribed app's outbox into an `EventFrame` stamped with
//! the settlement tick and writes it, delivery-filtered per subscriber,
//! to every subscribed connection of that app. All of a connection's
//! outbound bytes — responses from its serving thread, pushes from the
//! driver thread — go through one committed write queue behind a mutex,
//! so they interleave at frame granularity, never mid-frame.
//!
//! ## Concurrency model
//!
//! [`EcovisorServer::spawn`](crate::EcovisorServer::spawn) runs the **evented runtime** (the `evented`
//! submodule): a few identical **serving threads**
//! ([`with_workers`](crate::EcovisorServer::with_workers), auto-sized by
//! default), each with its own epoll instance (the vendored [`reactor`]
//! shim) over the connections dealt to it — the first thread also
//! accepts, and deals round-robin. A thread serves a frame where it read
//! it: non-blocking read, carve, decode, dispatch, encode and write all
//! happen on the thread that owns the connection, with no queue or
//! wake-up in between — thousands of tenants multiplex onto a handful of
//! threads, and no thread is ever pinned to one client. Frames on one
//! connection are served strictly in order (a connection is one thread's
//! for life). The price is that a slow request delays the connections
//! sharing its thread; see `docs/ARCHITECTURE.md` §3a. All serving
//! threads dispatch into one shared
//! [`ShardedEcovisor`](crate::ShardedEcovisor) (the [`SharedEcovisor`](crate::SharedEcovisor)
//! alias). Per-app state is sharded behind its own lock, so batches from
//! different tenants — and query-only batches from the *same* tenant —
//! execute in parallel rather than serializing on a global mutex; a
//! serving thread simply parks on shard/settlement lock acquisition, and
//! while it does it reads nothing: TCP pushes back on its peers instead
//! of the server buffering for them. The driver
//! loop (whoever ticks the simulation) calls
//! [`ShardedEcovisor::tick`](crate::ShardedEcovisor::tick) between
//! batches; that settlement barrier is the only cross-tenant
//! synchronization, and it is where event frames are pushed.
//!
//! A connection that fails mid-frame (peer crash, network drop) is
//! counted and logged through the structured log (`ecovisor::obs`),
//! deregistered from the push registry and its thread's epoll, and dropped from
//! [`ServerStats::active_connections`](crate::ServerStats::active_connections), so a long-lived server never
//! accumulates dead connections. A server built
//! [`with_read_timeout`](crate::EcovisorServer::with_read_timeout) additionally
//! reaps **idle** connections: a dead subscriber that holds a push
//! stream without ever sending another frame trips the timeout and is
//! collected the same way. A subscriber that merely stops *reading*
//! cannot hold the settlement barrier hostage either: writes never
//! block, what its socket refuses is queued and parked.
//! [`ServerHandle::shutdown`](crate::ServerHandle::shutdown) is deterministic: it wakes every serving
//! thread (each closes its sockets, the first the listener) and joins
//! them all — no step waits on a timeout.
//!
//! ## Example
//!
//! Serve an ecovisor on loopback and drive it remotely — the client
//! speaks the same `EnergyClient` methods as the in-process handle, and
//! receives pushed events:
//!
//! ```
//! use ecovisor::{EcovisorBuilder, EcovisorServer, EnergyClient, EnergyShare,
//!                EventFilter, RemoteEcovisorClient};
//! use simkit::units::Watts;
//!
//! let mut eco = EcovisorBuilder::new().build();
//! let app = eco.register_app("tenant", EnergyShare::grid_only()).unwrap();
//!
//! let server = EcovisorServer::bind("127.0.0.1:0", eco).unwrap();
//! let handle = server.spawn().unwrap();
//!
//! let mut api = RemoteEcovisorClient::connect(handle.addr(), app).unwrap();
//! api.subscribe_events(EventFilter::all()).unwrap();
//! assert_eq!(api.get_grid_power(), Watts::ZERO);
//!
//! // The driver ticks settlement between batches; pushed event frames
//! // (if any fired) surface through `api.events()`.
//! handle.ecovisor().tick();
//! let _events = api.events();
//!
//! drop(api);
//! handle.shutdown();
//! ```

mod admin;
pub(crate) mod client;
pub(crate) mod codec;
mod conn;
mod evented;
mod framing;
pub(crate) mod hello;
pub(crate) mod server;

pub use admin::SNAPSHOT_CHUNK_LEN;
pub use framing::{MAX_FRAME_LEN, MAX_HELLO_LEN};

use codec::{WireCodec, SERVED_CODEC};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Notification;
    use crate::proto::{EnergyRequest, EventFrame, Frame, RequestBatch};
    use crate::PROTOCOL_VERSION;
    use container_cop::AppId;

    #[test]
    fn codecs_agree_on_payloads() {
        let batch = RequestBatch::new(
            AppId::new(1),
            vec![
                EnergyRequest::GetSolarPower,
                EnergyRequest::SetBatteryChargeRate {
                    rate: simkit::units::Watts::new(80.0),
                },
            ],
        );
        for codec in [WireCodec::Json, WireCodec::Binary] {
            let back: RequestBatch = codec.decode(&codec.encode(&batch)).expect("decode");
            assert_eq!(back, batch, "{codec:?}");
        }
        // The frame wrapper round-trips in both codecs too.
        let frame = Frame::Event(EventFrame {
            version: PROTOCOL_VERSION,
            app: AppId::new(1),
            tick: 42,
            events: vec![Notification::BatteryFull],
        });
        for codec in [WireCodec::Json, WireCodec::Binary] {
            let back: Frame = codec.decode(&codec.encode(&frame)).expect("decode");
            assert_eq!(back, frame, "{codec:?}");
        }
    }
}
