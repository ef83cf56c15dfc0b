//! Evented-transport integration: the readiness-driven server under
//! hostile and bursty conditions.
//!
//! The wire-semantics suites (`protocol_v2`, `transport_resilience`,
//! `proto_roundtrip`, `snapshot_restore`) all run against
//! `EcovisorServer::spawn`, the evented runtime — the only server there
//! is. This suite covers what only an event loop can get wrong:
//!
//! * **reconnect storms** — waves of clients connecting, round-tripping,
//!   and vanishing (cleanly, mid-hello, and mid-frame) while a
//!   long-lived client must stay served;
//! * **incremental reassembly** — frames dribbled a few bytes per
//!   `write(2)` must be reassembled exactly as if they arrived whole;
//! * **pre-auth allocation** — a peer that has not said hello yet can
//!   make the server buffer at most a hello's worth (`MAX_HELLO_LEN`);
//! * **post-auth decode** — the largest well-formed frame that is not a
//!   `Frame` is refused at its first byte, so it costs the one thread it
//!   lands on nothing and its neighbours no latency;
//! * **pipelined bursts** — frames that arrive together are answered
//!   together: in order, byte for byte what one at a time gets, with one
//!   socket write per turn (and never a turn's worth of large replies
//!   held back);
//! * **pipeliners** — a peer that sends faster than it is served is held
//!   by TCP, not buffered: it costs one bounded receive buffer however
//!   much it sends, and one that never reads its replies is cut off at
//!   the write-backlog bound;
//! * **serving threads** — connections are dealt over every thread, each
//!   is served in order on the thread it landed on, and a slow request
//!   delays that thread's connections only;
//! * **slow subscribers** — a peer that stops draining its socket gets
//!   `OutboxPolicy` parking (edges kept, levels coalesced) on the
//!   non-blocking writer, bit-compatible with a prompt subscriber;
//! * **deterministic shutdown** — teardown joins every serving thread
//!   promptly with clients still connected, no timeout reliance.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use ecovisor::proto::{EnergyRequest, Frame, RequestBatch};
use ecovisor::transport::MAX_HELLO_LEN;
use ecovisor::{
    ClientHelloV2, EcovisorBuilder, EcovisorServer, EnergyClient, EnergyShare, EventFilter,
    Notification, OutboxPolicy, RemoteEcovisorClient, ServerHello, WireCodec, PROTOCOL_VERSION,
};
use simkit::time::SimDuration;
use simkit::trace::{Extend, Trace};
use simkit::units::{WattHours, Watts};

#[path = "../../../vendor/serde/tests/common/mutate.rs"]
mod mutate;

fn wait_until(deadline: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    cond()
}

/// Every connection reaped, nothing owed, every receive buffer refunded.
fn assert_baseline(handle: &ecovisor::ServerHandle) {
    assert!(
        wait_until(Duration::from_secs(5), || {
            let s = handle.stats();
            s.active_connections == 0 && s.subscriber_backlog == 0 && s.recv_buffer_bytes == 0
        }),
        "counters did not return to baseline, got {:?}",
        handle.stats()
    );
}

/// Writes one length-prefixed frame.
fn send_frame(stream: &mut TcpStream, payload: &[u8]) {
    stream
        .write_all(&(payload.len() as u32).to_le_bytes())
        .expect("frame len");
    stream.write_all(payload).expect("frame payload");
}

/// Reads one length-prefixed frame; `None` on EOF at a frame boundary.
fn recv_frame(stream: &mut TcpStream) -> Option<Vec<u8>> {
    let mut len = [0u8; 4];
    match stream.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return None,
        Err(e) => panic!("frame read: {e}"),
    }
    let mut buf = vec![0u8; u32::from_le_bytes(len) as usize];
    stream.read_exact(&mut buf).expect("frame payload");
    Some(buf)
}

/// Raw v2 handshake (the hello is JSON, every later frame binary),
/// returning the connected stream.
fn raw_v2_connect(addr: std::net::SocketAddr, app: ecovisor::AppId) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let hello = ClientHelloV2::new(app, vec![WireCodec::Binary], None);
    send_frame(&mut stream, &WireCodec::Json.encode(&hello));
    let reply = recv_frame(&mut stream).expect("hello reply");
    match WireCodec::Json
        .decode::<ServerHello>(&reply)
        .expect("hello")
    {
        ServerHello::Accept { version, codec } => {
            assert_eq!(version, PROTOCOL_VERSION);
            assert_eq!(codec, WireCodec::Binary);
        }
        ServerHello::Reject { reason } => panic!("hello rejected: {reason}"),
    }
    stream
}

/// A reconnect storm with adversarial peers mixed in: clean clients,
/// droppers mid-hello, droppers mid-frame, and garbage hellos — all
/// while one long-lived client keeps round-tripping. The server must
/// reap every casualty and stay fully serviceable.
#[test]
fn reconnect_storm_with_adversarial_peers() {
    let mut eco = EcovisorBuilder::new().build();
    let app = eco
        .register_app("tenant", EnergyShare::grid_only())
        .expect("register");
    let server = EcovisorServer::bind("127.0.0.1:0", eco).expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.spawn().expect("spawn");

    let mut healthy = RemoteEcovisorClient::connect(addr, app).expect("connect healthy");
    assert_eq!(healthy.get_grid_power(), Watts::ZERO);

    for wave in 0..48u32 {
        match wave % 4 {
            // A clean client: full handshake, one round trip, drop.
            0 => {
                let mut c = RemoteEcovisorClient::connect(addr, app).expect("storm connect");
                assert_eq!(c.get_grid_power(), Watts::ZERO);
            }
            // Drop mid-hello: promise 100 bytes, deliver 7, vanish.
            1 => {
                let mut s = TcpStream::connect(addr).expect("connect");
                s.write_all(&100u32.to_le_bytes()).expect("len");
                s.write_all(b"partial").expect("partial hello");
                drop(s);
            }
            // Drop mid-frame: negotiate for real, then truncate a frame.
            2 => {
                let mut s = TcpStream::connect(addr).expect("connect");
                let hello = ClientHelloV2::new(app, vec![WireCodec::Binary], None);
                send_frame(&mut s, &WireCodec::Json.encode(&hello));
                let reply = recv_frame(&mut s).expect("hello reply");
                assert!(matches!(
                    WireCodec::Json.decode::<ServerHello>(&reply),
                    Ok(ServerHello::Accept { .. })
                ));
                s.write_all(&64u32.to_le_bytes()).expect("frame len");
                s.write_all(&[0u8; 10]).expect("truncated frame");
                drop(s);
            }
            // Garbage hello: must be answered with a reject, then EOF.
            _ => {
                let mut s = TcpStream::connect(addr).expect("connect");
                send_frame(&mut s, b"not a hello at all");
                let reply = recv_frame(&mut s).expect("reject reply");
                assert!(matches!(
                    WireCodec::Json.decode::<ServerHello>(&reply),
                    Ok(ServerHello::Reject { .. })
                ));
                assert!(recv_frame(&mut s).is_none(), "server closes after reject");
            }
        }
        // The long-lived client is served through every wave.
        if wave % 8 == 7 {
            assert_eq!(healthy.get_grid_power(), Watts::ZERO);
        }
    }

    // Every storm connection drains; only the long-lived client remains.
    assert!(
        wait_until(Duration::from_secs(10), || handle
            .stats()
            .active_connections
            == 1),
        "storm connections must all be reaped, got {}",
        handle.stats().active_connections
    );
    assert_eq!(healthy.get_grid_power(), Watts::ZERO);
    let mut late = RemoteEcovisorClient::connect(addr, app).expect("connect after storm");
    assert_eq!(late.get_grid_power(), Watts::ZERO);
    drop(late);
    drop(healthy);
    handle.shutdown();
}

/// A concurrent burst: many clients round-tripping simultaneously from
/// multiple threads, far more connections than serving threads — the
/// whole point of the multiplexed runtime.
#[test]
fn concurrent_clients_multiplex_onto_the_serving_threads() {
    let mut eco = EcovisorBuilder::new().build();
    let app = eco
        .register_app("tenant", EnergyShare::grid_only())
        .expect("register");
    let server = EcovisorServer::bind("127.0.0.1:0", eco)
        .expect("bind")
        .with_workers(2);
    let addr = server.local_addr().expect("addr");
    let handle = server.spawn().expect("spawn");

    let threads: Vec<_> = (0..8)
        .map(|_| {
            std::thread::spawn(move || {
                for _ in 0..16 {
                    let mut c = RemoteEcovisorClient::connect(addr, app).expect("connect");
                    for _ in 0..4 {
                        assert_eq!(c.get_grid_power(), Watts::ZERO);
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread");
    }
    assert!(
        wait_until(Duration::from_secs(10), || handle
            .stats()
            .active_connections
            == 0),
        "all burst connections drain"
    );
    handle.shutdown();
}

/// Frames dribbled a few bytes per write — hello included — must be
/// reassembled by the per-connection state machine exactly as if they
/// had arrived whole.
#[test]
fn frames_split_across_many_writes_are_reassembled() {
    let mut eco = EcovisorBuilder::new().build();
    let app = eco
        .register_app("tenant", EnergyShare::grid_only())
        .expect("register");
    let server = EcovisorServer::bind("127.0.0.1:0", eco).expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.spawn().expect("spawn");

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");

    let dribble = |stream: &mut TcpStream, bytes: &[u8]| {
        for chunk in bytes.chunks(3) {
            stream.write_all(chunk).expect("dribble");
            stream.flush().expect("flush");
            std::thread::sleep(Duration::from_millis(1));
        }
    };

    // The hello, three bytes at a time.
    let hello = ClientHelloV2::new(app, vec![WireCodec::Binary], None);
    let payload = WireCodec::Json.encode(&hello);
    let mut wire = (payload.len() as u32).to_le_bytes().to_vec();
    wire.extend_from_slice(&payload);
    dribble(&mut stream, &wire);
    let reply = recv_frame(&mut stream).expect("hello reply");
    assert!(matches!(
        WireCodec::Json.decode::<ServerHello>(&reply),
        Ok(ServerHello::Accept { .. })
    ));

    // Two batches in one dribbled byte stream: reassembly must find both
    // frame boundaries (no blocking read_exact to lean on).
    let batch = RequestBatch::new(
        app,
        vec![EnergyRequest::GetGridPower, EnergyRequest::GetSolarPower],
    );
    let payload = WireCodec::Binary.encode(&Frame::Request(batch));
    let mut wire = (payload.len() as u32).to_le_bytes().to_vec();
    wire.extend_from_slice(&payload);
    let copy = wire.clone();
    wire.extend_from_slice(&copy);
    dribble(&mut stream, &wire);

    for _ in 0..2 {
        let reply = recv_frame(&mut stream).expect("response frame");
        match WireCodec::Binary.decode::<Frame>(&reply).expect("frame") {
            Frame::Response(resp) => {
                assert_eq!(resp.responses.len(), 2, "one response per request");
            }
            other => panic!("unexpected frame: {other:?}"),
        }
    }
    drop(stream);
    handle.shutdown();
}

/// Before its hello is accepted a peer is unauthenticated, so the frame
/// it may announce is bounded by `MAX_HELLO_LEN`, not `MAX_FRAME_LEN`: a
/// hello announced at the limit is buffered (the receive buffer reserves
/// exactly that frame), one byte over is refused before the buffer grows
/// for it — counted as a connection error, closed without a reply.
#[test]
fn oversized_hello_is_closed_before_the_buffer_grows() {
    let eco = EcovisorBuilder::new().build();
    let server = EcovisorServer::bind("127.0.0.1:0", eco).expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.spawn().expect("spawn");
    let conn_errors = || {
        let hub = handle.obs_hub().expect("bind attaches a hub");
        hub.snapshot()
            .counter("transport.conn_errors_total")
            .unwrap_or(0)
    };
    let errors_before = conn_errors();

    // At the limit: accepted as a frame in progress, buffer reserved.
    let reserved = MAX_HELLO_LEN as usize + 4;
    let mut at_limit = TcpStream::connect(addr).expect("connect");
    at_limit
        .write_all(&MAX_HELLO_LEN.to_le_bytes())
        .expect("announce");
    at_limit.write_all(b"{").expect("first byte");
    assert!(
        wait_until(Duration::from_secs(5), || {
            handle.stats().recv_buffer_bytes == reserved
        }),
        "a hello at the limit reserves exactly its frame, got {}",
        handle.stats().recv_buffer_bytes
    );

    // One byte over: closed, while a sampler watches the buffer gauge.
    // A fresh connection's initial buffer is all it may ever add.
    let fresh_conn_allowance = 4096;
    let done = std::sync::atomic::AtomicBool::new(false);
    let peak = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut peak = 0;
            while !done.load(std::sync::atomic::Ordering::SeqCst) {
                peak = peak.max(handle.stats().recv_buffer_bytes);
                std::thread::yield_now();
            }
            peak
        });
        let mut over = TcpStream::connect(addr).expect("connect");
        over.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        over.write_all(&(MAX_HELLO_LEN + 1).to_le_bytes())
            .expect("announce");
        assert!(
            recv_frame(&mut over).is_none(),
            "an oversized hello is closed without a reply"
        );
        done.store(true, std::sync::atomic::Ordering::SeqCst);
        sampler.join().expect("sampler")
    });
    assert!(
        peak <= reserved + fresh_conn_allowance,
        "an unauthenticated peer grew the receive buffers to {peak} bytes"
    );
    assert_eq!(
        conn_errors(),
        errors_before + 1,
        "counted as a protocol error"
    );

    drop(at_limit);
    assert!(
        wait_until(Duration::from_secs(5), || handle.stats().recv_buffer_bytes
            == 0
            && handle.stats().active_connections == 0),
        "both connections reaped, buffers refunded"
    );
    handle.shutdown();
}

/// After its hello a tenant may announce up to `MAX_FRAME_LEN`, and the
/// cheapest thing to fill that with is a sequence of nulls: well-formed,
/// so the tree decoder used to build all 16 Mi of them (then print them
/// into the error) before noticing the root was never a `Frame` — seconds
/// of a thread's time. On a one-thread server that is everyone's time, so
/// a neighbour's round trips are the measure: they must not notice.
#[test]
fn a_maximal_hostile_frame_is_refused_without_stalling_the_neighbours() {
    let mut eco = EcovisorBuilder::new().build();
    let app = eco
        .register_app("tenant", EnergyShare::grid_only())
        .expect("register");
    let server = EcovisorServer::bind("127.0.0.1:0", eco)
        .expect("bind")
        .with_workers(1);
    let addr = server.local_addr().expect("addr");
    let handle = server.spawn().expect("spawn");
    let conn_errors = || {
        let hub = handle.obs_hub().expect("bind attaches a hub");
        hub.snapshot()
            .counter("transport.conn_errors_total")
            .unwrap_or(0)
    };
    let errors_before = conn_errors();

    let mut neighbour = RemoteEcovisorClient::connect(addr, app).expect("connect");
    let mut round_trip = || {
        let start = Instant::now();
        assert_eq!(neighbour.get_grid_power(), Watts::ZERO);
        start.elapsed()
    };
    let normal = (0..200).map(|_| round_trip()).max().expect("200 trips");

    let hostile = mutate::null_seq(ecovisor::transport::MAX_FRAME_LEN as usize - 5);
    assert_eq!(hostile.len(), ecovisor::transport::MAX_FRAME_LEN as usize);
    let done = std::sync::atomic::AtomicBool::new(false);
    let worst = std::thread::scope(|scope| {
        let attacker = scope.spawn(|| {
            let mut attacker = raw_v2_connect(addr, app);
            attacker
                .set_read_timeout(Some(Duration::from_secs(60)))
                .expect("read timeout");
            send_frame(&mut attacker, &hostile);
            let reply = recv_frame(&mut attacker);
            done.store(true, std::sync::atomic::Ordering::SeqCst);
            reply
        });
        let mut worst = Duration::ZERO;
        while !done.load(std::sync::atomic::Ordering::SeqCst) {
            worst = worst.max(round_trip());
        }
        assert!(
            attacker.join().expect("attacker").is_none(),
            "closed without a reply: the server cannot know how many requests it held"
        );
        worst
    });
    // "Normal" on a loaded CI host is noisy; seconds of decode are not
    // noise. The one thread still has 16 MiB to read while this runs, a
    // bounded turn at a time.
    let allowed = (normal * 20).max(Duration::from_millis(500));
    assert!(
        worst <= allowed,
        "a neighbour waited {worst:?} behind the hostile frame (normally at most {normal:?})"
    );
    assert_eq!(
        conn_errors(),
        errors_before + 1,
        "counted as a protocol error"
    );
    assert!(
        wait_until(Duration::from_secs(5), || handle.stats().active_connections
            == 1),
        "the attacker's connection is reaped, the neighbour's is not"
    );
    assert_eq!(neighbour.get_grid_power(), Watts::ZERO);
    drop(neighbour);
    handle.shutdown();
}

/// The transport counters a burst moves.
struct WriteCounters {
    frames_out: u64,
    socket_writes: u64,
}

fn write_counters(handle: &ecovisor::ServerHandle) -> WriteCounters {
    let snap = handle.obs_hub().expect("bind attaches a hub").snapshot();
    WriteCounters {
        frames_out: snap.counter("transport.frames_out_total").unwrap_or(0),
        socket_writes: snap.counter("transport.socket_writes_total").unwrap_or(0),
    }
}

/// `frames` as the bytes of one pipelined burst.
fn burst(frames: &[Vec<u8>]) -> Vec<u8> {
    let mut wire = Vec::new();
    for payload in frames {
        wire.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        wire.extend_from_slice(payload);
    }
    wire
}

/// Sixteen different request frames: reads and idempotent writes, so that
/// asking twice is answered the same twice.
fn sixteen_requests(app: ecovisor::AppId) -> Vec<Vec<u8>> {
    (0..16u32)
        .map(|i| {
            let requests = match i % 4 {
                0 => vec![EnergyRequest::GetGridPower],
                1 => vec![EnergyRequest::GetSolarPower, EnergyRequest::GetGridCarbon],
                2 => vec![EnergyRequest::SetBatteryChargeRate {
                    rate: Watts::new(f64::from(i)),
                }],
                _ => vec![EnergyRequest::GetGridPower; i as usize],
            };
            WireCodec::Binary.encode(&Frame::Request(RequestBatch::new(app, requests)))
        })
        .collect()
}

/// Sixteen frames written with one `write_all` come back as sixteen
/// replies, in order, each byte-equal to what the same frame gets sent on
/// its own — and the server writes to the socket once per turn, not
/// once per reply. A turn answers every frame its read delivered, so a
/// burst that arrives whole is one write (it was in each of 360 release
/// runs); how the kernel delivers it is not ours, so the bound leaves
/// room for it arriving in two pieces (300 debug runs held it): at most
/// two writes for sixteen frames, where one per reply would be sixteen.
fn pipelined_burst_is_answered_in_order_with_few_writes(workers: Option<usize>) {
    let mut eco = EcovisorBuilder::new().build();
    let app = eco
        .register_app(
            "tenant",
            EnergyShare::grid_only().with_battery(WattHours::new(10.0)),
        )
        .expect("register");
    let mut server = EcovisorServer::bind("127.0.0.1:0", eco).expect("bind");
    if let Some(n) = workers {
        server = server.with_workers(n);
    }
    let addr = server.local_addr().expect("addr");
    let handle = server.spawn().expect("spawn");
    let frames = sixteen_requests(app);

    // One at a time, each reply read before the next frame is sent.
    let mut lone = raw_v2_connect(addr, app);
    let one_at_a_time: Vec<Vec<u8>> = frames
        .iter()
        .map(|frame| {
            send_frame(&mut lone, frame);
            recv_frame(&mut lone).expect("reply")
        })
        .collect();

    let mut pipelined = raw_v2_connect(addr, app);
    let before = write_counters(&handle);
    pipelined.write_all(&burst(&frames)).expect("burst");
    let replies: Vec<Vec<u8>> = (0..frames.len())
        .map(|_| recv_frame(&mut pipelined).expect("reply"))
        .collect();
    assert_eq!(replies, one_at_a_time, "in order, to the byte");
    let after = write_counters(&handle);
    assert_eq!(after.frames_out - before.frames_out, 16);
    let writes = after.socket_writes - before.socket_writes;
    assert!(
        (1..=2).contains(&writes),
        "{writes} socket writes for 16 pipelined replies"
    );
    // Nothing is owed between bursts: a turn's replies wait in the
    // serving thread, not in the connection's write queue, and are
    // written whole.
    for _ in 0..8 {
        assert_eq!(handle.stats().subscriber_backlog, 0);
        pipelined.write_all(&burst(&frames)).expect("burst");
        for expected in &one_at_a_time {
            assert_eq!(&recv_frame(&mut pipelined).expect("reply"), expected);
        }
    }
    assert_eq!(handle.stats().subscriber_backlog, 0);

    drop(lone);
    drop(pipelined);
    handle.shutdown();
}

#[test]
fn pipelined_burst_is_answered_in_order_with_few_writes_auto_sized_pool() {
    pipelined_burst_is_answered_in_order_with_few_writes(None);
}

#[test]
fn pipelined_burst_is_answered_in_order_with_few_writes_two_workers() {
    pipelined_burst_is_answered_in_order_with_few_writes(Some(2));
}

#[test]
fn pipelined_burst_is_answered_in_order_with_few_writes_four_workers() {
    pipelined_burst_is_answered_in_order_with_few_writes(Some(4));
}

/// An out-of-protocol frame fifth in a burst: the four before it are
/// answered — their replies go out ahead of the close — and nothing after
/// it is.
#[test]
fn a_bad_frame_mid_burst_still_delivers_the_replies_before_it() {
    let mut eco = EcovisorBuilder::new().build();
    let app = eco
        .register_app("tenant", EnergyShare::grid_only())
        .expect("register");
    let server = EcovisorServer::bind("127.0.0.1:0", eco).expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.spawn().expect("spawn");

    let mut frames = sixteen_requests(app);
    // A server-direction frame: well-formed, and not a client's to send.
    frames[4] = WireCodec::Binary.encode(&Frame::Response(ecovisor::proto::ResponseBatch {
        version: PROTOCOL_VERSION,
        app,
        responses: Vec::new(),
    }));
    let mut stream = raw_v2_connect(addr, app);
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let before = write_counters(&handle);
    stream.write_all(&burst(&frames)).expect("burst");
    for i in 0..4 {
        let reply = recv_frame(&mut stream).unwrap_or_else(|| panic!("reply {i} before the close"));
        assert!(matches!(
            WireCodec::Binary.decode::<Frame>(&reply),
            Ok(Frame::Response(_))
        ));
    }
    assert!(
        recv_frame(&mut stream).is_none(),
        "closed at the bad frame: nothing after it is answered"
    );
    assert!(
        wait_until(Duration::from_secs(5), || handle.stats().active_connections
            == 0),
        "the connection is reaped"
    );
    let after = write_counters(&handle);
    assert_eq!(after.frames_out - before.frames_out, 4);
    handle.shutdown();
}

/// Replies far larger than a thread keeps between turns: each goes out as
/// soon as it is encoded instead of waiting for the turn to end, so the
/// turn holds one of them at a time — at least one socket write per
/// reply, and every reply whole and in order.
#[test]
fn large_replies_are_flushed_before_the_turn_ends() {
    let mut eco = EcovisorBuilder::new().build();
    let app = eco
        .register_app("tenant", EnergyShare::grid_only())
        .expect("register");
    let server = EcovisorServer::bind("127.0.0.1:0", eco)
        .expect("bind")
        .with_workers(1);
    let addr = server.local_addr().expect("addr");
    let handle = server.spawn().expect("spawn");

    // 4,000 answers are ~100 KB encoded: past the 64 KiB a thread retains.
    let big = WireCodec::Binary.encode(&Frame::Request(RequestBatch::new(
        app,
        vec![EnergyRequest::GetGridPower; 4000],
    )));
    let frames = vec![big; 8];
    let mut stream = raw_v2_connect(addr, app);
    let before = write_counters(&handle);
    // The reader runs beside the writer: eight replies do not fit a
    // socket buffer.
    let replies = std::thread::scope(|scope| {
        let mut reader = stream.try_clone().expect("clone");
        let reading = scope.spawn(move || {
            (0..8)
                .map(|_| recv_frame(&mut reader).expect("reply"))
                .collect::<Vec<_>>()
        });
        stream.write_all(&burst(&frames)).expect("burst");
        reading.join().expect("reader")
    });
    for reply in &replies {
        assert!(reply.len() > 64 * 1024, "a reply of {} bytes", reply.len());
        match WireCodec::Binary.decode::<Frame>(reply).expect("frame") {
            Frame::Response(resp) => assert_eq!(resp.responses.len(), 4000),
            other => panic!("unexpected frame: {other:?}"),
        }
    }
    assert!(
        wait_until(Duration::from_secs(5), || handle.stats().subscriber_backlog
            == 0),
        "everything committed was written"
    );
    let after = write_counters(&handle);
    assert_eq!(after.frames_out - before.frames_out, 8);
    assert!(
        after.socket_writes - before.socket_writes >= 8,
        "{} socket writes for eight replies over the retain bound",
        after.socket_writes - before.socket_writes
    );
    drop(stream);
    handle.shutdown();
}

/// A peer that pipelines far more than every socket buffer between it
/// and the server holds, and reads its replies slowly: what the server
/// has not got to yet stays in the peer's socket — a thread that is busy
/// is not reading, and TCP pushes back — so the peer costs one bounded
/// receive buffer however much it sends, gets every reply in order, and
/// a neighbour on the same (only) serving thread keeps being served
/// between its turns.
#[test]
fn a_pipeliner_is_held_by_tcp_and_costs_one_bounded_receive_buffer() {
    let mut eco = EcovisorBuilder::new().build();
    let app = eco
        .register_app(
            "tenant",
            EnergyShare::grid_only().with_battery(WattHours::new(10.0)),
        )
        .expect("register");
    let server = EcovisorServer::bind("127.0.0.1:0", eco)
        .expect("bind")
        .with_workers(1);
    let addr = server.local_addr().expect("addr");
    let handle = server.spawn().expect("spawn");

    let mut neighbour = RemoteEcovisorClient::connect(addr, app).expect("connect");
    let mut round_trip = || {
        let start = Instant::now();
        assert_eq!(neighbour.get_grid_power(), Watts::ZERO);
        start.elapsed()
    };
    let normal = (0..200).map(|_| round_trip()).max().expect("200 trips");

    // Request `i` carries `i % 50 + 1` setters, so reply `i` is known by
    // its arity; acknowledgements are smaller than what they acknowledge,
    // so the write backlog of a slow reader stays far from its own bound.
    let shapes: Vec<Vec<u8>> = (1..=50)
        .map(|n| {
            let setter = EnergyRequest::SetBatteryChargeRate {
                rate: Watts::new(1.0),
            };
            WireCodec::Binary.encode(&Frame::Request(RequestBatch::new(app, vec![setter; n])))
        })
        .collect();
    let largest = shapes.iter().map(Vec::len).max().expect("shapes") + 4;
    let mut wire = Vec::new();
    let mut sent = 0usize;
    while wire.len() < 24 * 1024 * 1024 {
        let payload = &shapes[sent % shapes.len()];
        wire.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        wire.extend_from_slice(payload);
        sent += 1;
    }

    let mut pipeliner = raw_v2_connect(addr, app);
    let mut reader = pipeliner.try_clone().expect("clone");
    reader
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    let done = std::sync::atomic::AtomicBool::new(false);
    let (peak, worst) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut peak = 0;
            while !done.load(std::sync::atomic::Ordering::SeqCst) {
                peak = peak.max(handle.stats().recv_buffer_bytes);
                std::thread::yield_now();
            }
            peak
        });
        scope.spawn(|| pipeliner.write_all(&wire).expect("pipelined requests"));
        let reading = scope.spawn(|| {
            for i in 0..sent {
                let reply = recv_frame(&mut reader).unwrap_or_else(|| panic!("reply {i}"));
                match WireCodec::Binary.decode::<Frame>(&reply).expect("frame") {
                    Frame::Response(resp) => {
                        assert_eq!(resp.responses.len(), i % 50 + 1, "reply {i} out of order")
                    }
                    other => panic!("unexpected frame: {other:?}"),
                }
                // Slowly: replies back up behind this reader.
                if i % 1024 == 0 {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        });
        let mut worst = Duration::ZERO;
        while !reading.is_finished() {
            worst = worst.max(round_trip());
        }
        reading.join().expect("every reply, in order");
        done.store(true, std::sync::atomic::Ordering::SeqCst);
        (sampler.join().expect("sampler"), worst)
    });
    // Two connections, each a buffer that read growth takes to the
    // retained bound and a frame larger than that would take to its size.
    let bound = 2 * largest.max(64 * 1024);
    assert!(
        peak <= bound,
        "{} MiB pipelined grew the receive buffers to {peak} bytes (bound {bound})",
        wire.len() >> 20
    );
    let allowed = (normal * 20).max(Duration::from_millis(500));
    assert!(
        worst <= allowed,
        "a neighbour waited {worst:?} beside the pipeliner (normally at most {normal:?})"
    );
    drop(pipeliner);
    drop(reader);
    drop(neighbour);
    assert_baseline(&handle);
    handle.shutdown();
}

/// A peer that keeps sending and never reads: its replies are queued —
/// it may yet recover — until `MAX_PENDING_BYTES` (64 MiB) of them are
/// owed, and then it is cut off. Its next write fails, its connection is
/// reaped and its queue freed; the neighbour on the same serving thread
/// is served throughout and after.
#[test]
fn a_peer_that_never_reads_is_cut_off_at_the_write_backlog_bound() {
    let mut eco = EcovisorBuilder::new().build();
    let app = eco
        .register_app("tenant", EnergyShare::grid_only())
        .expect("register");
    let server = EcovisorServer::bind("127.0.0.1:0", eco)
        .expect("bind")
        .with_workers(1);
    let addr = server.local_addr().expect("addr");
    let handle = server.spawn().expect("spawn");

    let mut neighbour = RemoteEcovisorClient::connect(addr, app).expect("connect");
    assert_eq!(neighbour.get_grid_power(), Watts::ZERO);

    // 4,000 answers are ~100 KB: about 670 of them are 64 MiB.
    let big = WireCodec::Binary.encode(&Frame::Request(RequestBatch::new(
        app,
        vec![EnergyRequest::GetGridPower; 4000],
    )));
    let mut deaf = raw_v2_connect(addr, app);
    deaf.set_write_timeout(Some(Duration::from_secs(60)))
        .expect("write timeout");
    assert!(wait_until(Duration::from_secs(5), || {
        handle.stats().active_connections == 2
    }));
    let mut header = (big.len() as u32).to_le_bytes().to_vec();
    header.extend_from_slice(&big);
    let mut accepted = 0usize;
    let mut most_owed = 0usize;
    let refused = loop {
        if let Err(e) = deaf.write_all(&header) {
            break e;
        }
        accepted += 1;
        most_owed = most_owed.max(handle.stats().subscriber_backlog);
        assert!(
            accepted < 4 * 670,
            "{accepted} requests taken and none of the replies read: never cut off"
        );
        // The neighbour is served while the backlog builds.
        if accepted.is_multiple_of(64) {
            assert_eq!(neighbour.get_grid_power(), Watts::ZERO);
        }
    };
    assert!(
        matches!(
            refused.kind(),
            std::io::ErrorKind::ConnectionReset | std::io::ErrorKind::BrokenPipe
        ),
        "the cut-off peer's write fails as a closed connection: {refused}"
    );
    assert!(
        most_owed > 100,
        "only {most_owed} frames were ever owed: that was not the backlog bound"
    );
    assert!(
        wait_until(Duration::from_secs(5), || handle.stats().active_connections
            == 1),
        "the cut-off connection is reaped, the neighbour's is not"
    );
    assert_eq!(
        handle.stats().subscriber_backlog,
        0,
        "its queue went with it"
    );
    assert_eq!(neighbour.get_grid_power(), Watts::ZERO);
    drop(neighbour);
    drop(deaf);
    assert_baseline(&handle);
    handle.shutdown();
}

/// Three serving threads, twelve connections: accepted sockets are dealt
/// round-robin, so connection `i` lives on thread `i % 3` for life. Every
/// connection is served, in order, whichever thread it landed on; a slow
/// request occupies the one thread that read it, so while it is being
/// answered the connections of the *other* two threads are served and
/// its own thread's are not — the trade for serving a frame where it was
/// read, and the proof that all three threads serve. Dropped, all twelve
/// are reaped; and shutdown is prompt with connections parked on every
/// thread.
#[test]
fn connections_are_dealt_over_every_serving_thread() {
    const THREADS: usize = 3;
    let mut eco = EcovisorBuilder::new().build();
    let app = eco
        .register_app(
            "tenant",
            EnergyShare::grid_only().with_battery(WattHours::new(10.0)),
        )
        .expect("register");
    let server = EcovisorServer::bind("127.0.0.1:0", eco)
        .expect("bind")
        .with_workers(THREADS);
    let addr = server.local_addr().expect("addr");
    let handle = server.spawn().expect("spawn");
    let frames = sixteen_requests(app);

    // One after the other, so the order of connecting is the order of
    // accepting; the first doubles as the one-at-a-time reference.
    let mut conns: Vec<TcpStream> = (0..12).map(|_| raw_v2_connect(addr, app)).collect();
    assert_eq!(handle.stats().active_connections, 12);
    let one_at_a_time: Vec<Vec<u8>> = frames
        .iter()
        .map(|frame| {
            send_frame(&mut conns[0], frame);
            recv_frame(&mut conns[0]).expect("reply")
        })
        .collect();

    // All twelve at once, each pipelining: in order on every one of them.
    std::thread::scope(|scope| {
        for conn in &mut conns {
            scope.spawn(|| {
                for _ in 0..4 {
                    conn.write_all(&burst(&frames)).expect("burst");
                    for expected in &one_at_a_time {
                        assert_eq!(&recv_frame(conn).expect("reply"), expected);
                    }
                }
            });
        }
    });

    // A request that takes its thread a while: 600,000 answers, ~15 MB.
    let slow = WireCodec::Binary.encode(&Frame::Request(RequestBatch::new(
        app,
        vec![EnergyRequest::GetGridPower; 600_000],
    )));
    let counter = |name: &str| {
        let hub = handle.obs_hub().expect("bind attaches a hub");
        hub.snapshot().counter(name).unwrap_or(0)
    };
    for busy in 0..THREADS {
        let (frames_in, frames_out) = (
            counter("transport.frames_in_total"),
            counter("transport.frames_out_total"),
        );
        send_frame(&mut conns[busy], &slow);
        // Carved: from here until its reply is counted, thread `busy` is
        // answering it and nothing else.
        assert!(wait_until(Duration::from_secs(30), || {
            counter("transport.frames_in_total") == frames_in + 1
        }));
        let mut served = 0;
        for (i, conn) in conns.iter_mut().enumerate() {
            if i % THREADS != busy {
                send_frame(conn, &frames[0]);
                assert_eq!(recv_frame(conn).expect("reply"), one_at_a_time[0]);
                served += 1;
            }
        }
        assert_eq!(
            counter("transport.frames_out_total"),
            frames_out + served,
            "the other threads' connections were all served while thread {busy} was busy"
        );
        let reply = recv_frame(&mut conns[busy]).expect("the slow reply");
        match WireCodec::Binary.decode::<Frame>(&reply).expect("frame") {
            Frame::Response(resp) => assert_eq!(resp.responses.len(), 600_000),
            other => panic!("unexpected frame: {other:?}"),
        }
        // And its own thread's connections once it is done.
        for conn in conns.iter_mut().skip(busy).step_by(THREADS) {
            send_frame(conn, &frames[0]);
            assert_eq!(recv_frame(conn).expect("reply"), one_at_a_time[0]);
        }
    }

    drop(conns);
    assert_baseline(&handle);

    // Twelve more, parked on every thread, and shutdown does not wait.
    let mut parked: Vec<TcpStream> = (0..12).map(|_| raw_v2_connect(addr, app)).collect();
    assert_eq!(handle.stats().active_connections, 12);
    let start = Instant::now();
    handle.shutdown();
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(2),
        "shutdown must be prompt, took {elapsed:?}"
    );
    for conn in &mut parked {
        assert!(
            recv_frame(conn).is_none(),
            "every parked peer sees the close"
        );
    }
}

/// Whether `event` fires once per crossing (battery full/empty, budget
/// exhausted): the events an outbox bound may never drop. Solar and
/// carbon changes are levels, which it may coalesce.
fn is_edge(event: &Notification) -> bool {
    !matches!(
        event,
        Notification::SolarChange { .. } | Notification::CarbonChange { .. }
    )
}

/// The slow-subscriber contract on the non-blocking writer, end to end:
/// a subscriber that stops draining its socket has its committed frames
/// held byte-exact and its event frames parked under `OutboxPolicy`
/// (every edge kept, levels coalesced at the cap), and on resume the
/// owning thread's writable-readiness path delivers everything — plus exactly
/// one recovery frame stamped with the newest parked tick — without the
/// driver ticking again. A prompt subscriber on the same app is the
/// coalescing oracle: both must see the identical edge sequence.
#[test]
fn slow_subscriber_parks_under_outbox_policy_and_recovers() {
    // Physics that fires level events (solar + carbon swings) every
    // tick, forever (cycling traces). Hour-long ticks so the tiny
    // battery's C-rate-limited charge (0.25C) can actually traverse
    // full↔empty within the test's ticks.
    let dt = SimDuration::from_hours(1);
    let mut eco = EcovisorBuilder::new()
        .tick_interval(dt)
        // Period-3 solar against the period-8 battery toggle below, so
        // discharge ticks land on low-solar samples too.
        .solar(Trace::from_samples(vec![0.0, 250.0, 30.0], dt).with_extend(Extend::Cycle))
        .carbon(Trace::from_samples(vec![80.0, 400.0], dt).with_extend(Extend::Cycle))
        .build();
    let app = eco
        .register_app(
            "tenant",
            EnergyShare::grid_only()
                .with_solar_fraction(0.5)
                .with_battery(WattHours::new(0.5)),
        )
        .expect("register");
    // A tight level cap makes coalescing observable with few ticks.
    eco.set_outbox_policy(app, OutboxPolicy::with_cap(4))
        .expect("policy");

    let server = EcovisorServer::bind("127.0.0.1:0", eco).expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.spawn().expect("spawn");
    let shared = handle.ecovisor();

    // Warm-up settlement: the very first tick compares solar/carbon
    // against their initial values (no change → no events), so the
    // one-recv-per-tick loop below starts from the second settlement,
    // after which the cycling traces fire notifications every tick.
    shared.tick();

    // The prompt subscriber (the oracle) and the driver of battery
    // traffic, each on their own connection.
    let mut witness = RemoteEcovisorClient::connect(addr, app).expect("witness");
    witness
        .subscribe_events(EventFilter::all())
        .expect("witness subscribe");
    let mut driver = RemoteEcovisorClient::connect(addr, app).expect("driver");
    // Real load, so discharge phases actually drain the battery (edges
    // need transitions in both directions).
    for _ in 0..2 {
        let c = driver
            .launch_container(container_cop::ContainerSpec::quad_core())
            .expect("launch");
        driver.set_container_demand(c, 1.0).expect("demand");
    }

    // The slow subscriber: raw v2 connection so the test controls
    // exactly when the socket is drained.
    let mut slow = raw_v2_connect(addr, app);
    let sub = RequestBatch::new(
        app,
        vec![EnergyRequest::SubscribeEvents {
            filter: EventFilter::all(),
        }],
    );
    send_frame(&mut slow, &WireCodec::Binary.encode(&Frame::Request(sub)));
    let reply = recv_frame(&mut slow).expect("subscribe ack");
    assert!(matches!(
        WireCodec::Binary.decode::<Frame>(&reply),
        Ok(Frame::Response(_))
    ));

    // Fill the slow subscriber's socket with pipelined query responses
    // it never reads, until the server's committed write queue backs up.
    // Responses ride the same per-connection queue as event pushes, so
    // this deterministically creates backpressure.
    let filler = RequestBatch::new(app, vec![EnergyRequest::GetGridPower; 4000]);
    let filler_payload = WireCodec::Binary.encode(&Frame::Request(filler));
    let mut filler_batches = 0usize;
    while filler_batches < 256 {
        send_frame(&mut slow, &filler_payload);
        filler_batches += 1;
        if filler_batches.is_multiple_of(8)
            && wait_until(Duration::from_millis(100), || {
                handle.stats().subscriber_backlog > 0
            })
        {
            break;
        }
    }
    assert!(
        wait_until(Duration::from_secs(10), || handle
            .stats()
            .subscriber_backlog
            > 0),
        "socket never backed up; cannot exercise the parking path"
    );

    // Eventful ticks while the slow subscriber is wedged: solar/carbon
    // levels every tick, battery full/empty edges from the toggled
    // traffic. The witness drains promptly (its frames must never park);
    // the slow connection parks everything.
    let ticks = 40u64;
    let mut witness_events: Vec<Notification> = Vec::new();
    let mut final_tick = 0u64;
    for tick in 0..ticks {
        // Six charge ticks then two discharge ticks: at 0.25C the 0.5 Wh
        // battery needs ~3 hour-ticks to refill its usable range, and at
        // 1C one tick drains it — so each period crosses full AND empty.
        if tick % 8 < 6 {
            driver.set_battery_charge_rate(Watts::new(500.0));
            driver.set_battery_max_discharge(Watts::ZERO);
        } else {
            driver.set_battery_charge_rate(Watts::ZERO);
            driver.set_battery_max_discharge(Watts::new(500.0));
        }
        driver.flush();
        shared.tick();
        let frame = witness.recv_event().expect("witness frame");
        final_tick = frame.tick;
        witness_events.extend(frame.events);
    }
    let witness_edges: Vec<Notification> = witness_events
        .iter()
        .filter(|e| is_edge(e))
        .cloned()
        .collect();
    let witness_levels = witness_events.len() - witness_edges.len();
    assert!(
        !witness_edges.is_empty(),
        "traffic must generate battery edges for the test to mean anything"
    );
    assert!(
        witness_levels > 8,
        "traffic must generate more levels than the cap, got {witness_levels}"
    );

    // Resume draining — and pointedly do NOT tick again: the owning
    // thread's EPOLLOUT path alone must deliver the whole backlog. It
    // may still be answering late filler batches, so the
    // recovery event frame (stamped with the newest parked tick) can
    // land anywhere in the response stream; read until both it and
    // every response batch have arrived.
    let mut responses = 0usize;
    let mut slow_events: Vec<Notification> = Vec::new();
    let mut last_event_tick = 0u64;
    let mut recovered = false;
    while !(recovered && responses == filler_batches) {
        let payload = recv_frame(&mut slow).expect("backlog frame");
        match WireCodec::Binary.decode::<Frame>(&payload).expect("frame") {
            Frame::Response(resp) => {
                assert_eq!(resp.responses.len(), 4000, "filler responses intact");
                responses += 1;
                assert!(
                    responses <= filler_batches,
                    "a response batch was delivered twice"
                );
            }
            Frame::Event(frame) => {
                assert!(
                    frame.tick >= last_event_tick,
                    "event frames arrive in tick order"
                );
                last_event_tick = frame.tick;
                slow_events.extend(frame.events);
                if frame.tick == final_tick {
                    recovered = true;
                }
            }
            other => panic!("unexpected frame: {other:?}"),
        }
    }
    let slow_edges: Vec<Notification> =
        slow_events.iter().filter(|e| is_edge(e)).cloned().collect();
    let slow_levels = slow_events.len() - slow_edges.len();
    assert_eq!(
        slow_edges, witness_edges,
        "no edge may be dropped or reordered by backpressure"
    );
    assert!(
        slow_levels < witness_levels,
        "parked levels must have coalesced (slow {slow_levels} < witness {witness_levels})"
    );

    drop(slow);
    drop(witness);
    drop(driver);
    handle.shutdown();
}

/// Shutdown with live (and half-open) connections must complete
/// promptly: wake every serving thread, close every socket, join all
/// threads — no idle-timeout reliance, no stalls.
#[test]
fn shutdown_is_prompt_with_live_connections() {
    let mut eco = EcovisorBuilder::new().build();
    let app = eco
        .register_app("tenant", EnergyShare::grid_only())
        .expect("register");
    // Deliberately no read timeout: teardown must not need one.
    let server = EcovisorServer::bind("127.0.0.1:0", eco).expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.spawn().expect("spawn");

    // Live clients in every lifecycle phase: served, subscribed, and one
    // that never finished its hello.
    let clients: Vec<RemoteEcovisorClient> = (0..20)
        .map(|_| {
            let mut c = RemoteEcovisorClient::connect(addr, app).expect("connect");
            assert_eq!(c.get_grid_power(), Watts::ZERO);
            c
        })
        .collect();
    let mut half_open = TcpStream::connect(addr).expect("half-open connect");
    half_open.write_all(&100u32.to_le_bytes()).expect("partial");
    assert!(
        wait_until(Duration::from_secs(5), || {
            handle.stats().active_connections == clients.len() + 1
        }),
        "all connections counted before shutdown"
    );

    let start = Instant::now();
    handle.shutdown();
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(2),
        "shutdown must be prompt, took {elapsed:?}"
    );

    // Every peer observes the close.
    let mut buf = [0u8; 16];
    assert_eq!(
        half_open.read(&mut buf).expect("EOF read"),
        0,
        "half-open peer sees EOF"
    );
    drop(clients);
}
