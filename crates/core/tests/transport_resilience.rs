//! Transport error-path regressions: clients that vanish mid-frame must
//! be logged and reaped, never left holding server resources.

use std::io::Write;
use std::time::{Duration, Instant};

use ecovisor::{
    ClientHelloV2, EcovisorBuilder, EcovisorServer, EnergyClient, EnergyShare, EventFilter,
    RemoteEcovisorClient, WireCodec,
};
use simkit::units::Watts;

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

/// A client that promises a 64-byte frame, sends 10 bytes, and drops the
/// connection: its serving thread must observe the EOF and reap the
/// connection — and the server must keep serving everyone else.
#[test]
fn disconnect_mid_frame_reaps_the_connection_thread() {
    let mut eco = EcovisorBuilder::new().build();
    let app = eco
        .register_app("tenant", EnergyShare::grid_only())
        .expect("register");
    let server = EcovisorServer::bind("127.0.0.1:0", eco).expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.spawn().expect("spawn");

    // A healthy client, connected for the whole test.
    let mut healthy = RemoteEcovisorClient::connect(addr, app).expect("connect healthy");
    assert_eq!(healthy.get_grid_power(), Watts::ZERO);
    assert!(
        wait_until(Duration::from_secs(2), || handle.stats().active_connections
            == 1),
        "healthy connection counted"
    );

    // The vanishing client: valid hello, then a truncated frame.
    let stream = {
        let mut stream = std::net::TcpStream::connect(addr).expect("connect raw");
        let hello = ClientHelloV2::new(app, vec![WireCodec::Binary], None);
        let payload = WireCodec::Json.encode(&hello);
        stream
            .write_all(&(payload.len() as u32).to_le_bytes())
            .expect("hello len");
        stream.write_all(&payload).expect("hello payload");
        // Promise 64 bytes, deliver 10, vanish.
        stream.write_all(&64u32.to_le_bytes()).expect("frame len");
        stream.write_all(&[0u8; 10]).expect("partial payload");
        stream
    };
    // Prove the connection was accepted and counted *before* asserting
    // it drains — otherwise the drain assertion could pass vacuously if
    // the server had not even accepted the socket yet.
    assert!(
        wait_until(Duration::from_secs(5), || handle.stats().active_connections
            == 2),
        "vanishing connection must be counted while still alive"
    );
    drop(stream); // closes the socket mid-frame

    // The dead connection is reaped; only the healthy connection
    // remains.
    assert!(
        wait_until(Duration::from_secs(5), || handle.stats().active_connections
            == 1),
        "mid-frame disconnect must drain from the active-connection count, got {}",
        handle.stats().active_connections
    );

    // The server is still fully serviceable: the surviving client and a
    // brand-new one both round-trip.
    assert_eq!(healthy.get_grid_power(), Watts::ZERO);
    let mut late = RemoteEcovisorClient::connect(addr, app).expect("connect after the crash");
    assert_eq!(late.get_grid_power(), Watts::ZERO);

    drop(healthy);
    drop(late);
    assert!(
        wait_until(Duration::from_secs(5), || handle.stats().active_connections
            == 0),
        "clean disconnects drain to zero"
    );
    handle.shutdown();
}

/// The idle sweep runs on its own clock — a quarter of the timeout — not
/// once per readiness event, and traffic on one connection must neither
/// starve it nor hasten it: beside a client that never stops talking, a
/// silent connection is still gone within the timeout and a quarter (and
/// not before the timeout), and the talker is never touched.
#[test]
fn idle_sweep_reaps_the_silent_and_spares_the_chatty_under_traffic() {
    const TIMEOUT: Duration = Duration::from_millis(400);
    let mut eco = EcovisorBuilder::new().build();
    let app = eco
        .register_app("tenant", EnergyShare::grid_only())
        .expect("register");
    let server = EcovisorServer::bind("127.0.0.1:0", eco)
        .expect("bind")
        .with_read_timeout(TIMEOUT);
    let addr = server.local_addr().expect("addr");
    let handle = server.spawn().expect("spawn");
    let idle_disconnects = || {
        let hub = handle.obs_hub().expect("bind attaches a hub");
        hub.snapshot()
            .counter("transport.idle_disconnects_total")
            .unwrap_or(0)
    };

    let mut chatty = RemoteEcovisorClient::connect(addr, app).expect("connect chatty");
    let mut silent = RemoteEcovisorClient::connect(addr, app).expect("connect silent");
    // The last the server hears of it (no earlier than this instant, so
    // no reaping within the timeout of it either).
    let last_heard = Instant::now();
    assert_eq!(silent.get_grid_power(), Watts::ZERO);
    assert_eq!(handle.stats().active_connections, 2);

    // Round trips back to back: a serving thread wakes for every one of
    // them.
    let mut trips = 0u32;
    while handle.stats().active_connections == 2 {
        assert_eq!(chatty.get_grid_power(), Watts::ZERO);
        trips += 1;
        assert!(
            last_heard.elapsed() < TIMEOUT * 4,
            "the silent connection outlived its timeout under traffic"
        );
    }
    let reaped_after = last_heard.elapsed();
    // Generous above (a loaded CI host stalls for longer than a sweep
    // takes to come round), exact below: nothing is reaped early.
    assert!(
        reaped_after >= TIMEOUT && reaped_after < TIMEOUT * 2,
        "reaped after {reaped_after:?}; the bound is {TIMEOUT:?} and a quarter"
    );
    assert!(
        trips > 100,
        "only {trips} round trips: that was not traffic"
    );
    assert_eq!(idle_disconnects(), 1, "the silent one, and only it");
    // The talker is served on, well past what would have been its own
    // deadline had its traffic not counted.
    while last_heard.elapsed() < TIMEOUT * 2 {
        assert_eq!(chatty.get_grid_power(), Watts::ZERO);
    }
    assert_eq!(handle.stats().active_connections, 1);
    assert_eq!(idle_disconnects(), 1);
    drop(chatty);
    drop(silent);
    handle.shutdown();
}

/// A subscriber that goes silent must not hold its push stream forever:
/// with a read/idle timeout armed, its thread's idle sweep trips, the
/// connection is reaped (deregistering it from the push registry), and
/// settlement keeps broadcasting to everyone else without blocking.
#[test]
fn hung_subscriber_is_reaped_by_the_idle_timeout() {
    let mut eco = EcovisorBuilder::new().build();
    let app = eco
        .register_app("tenant", EnergyShare::grid_only())
        .expect("register");
    let server = EcovisorServer::bind("127.0.0.1:0", eco)
        .expect("bind")
        .with_read_timeout(Duration::from_millis(200));
    let addr = server.local_addr().expect("addr");
    let handle = server.spawn().expect("spawn");
    let shared = handle.ecovisor();

    // The hung subscriber: a real v2 client that subscribes to push and
    // then never touches the socket again.
    let hung = {
        let mut client = RemoteEcovisorClient::connect(addr, app).expect("connect");
        client
            .subscribe_events(EventFilter::all())
            .expect("subscribe");
        client
    };
    assert!(
        wait_until(Duration::from_secs(2), || handle.stats().active_connections
            == 1),
        "subscriber counted while alive"
    );

    // It sends nothing further: the idle timeout trips and the server
    // reaps the connection — no client-side action at all.
    assert!(
        wait_until(Duration::from_secs(5), || handle.stats().active_connections
            == 0),
        "hung subscriber must be reaped by the idle timeout, got {}",
        handle.stats().active_connections
    );

    // The settlement/broadcast path is unaffected by the dead stream
    // (the reaped connection deregistered from the push registry), and
    // fresh clients — polling within the timeout — are served normally.
    shared.tick();
    let mut fresh = RemoteEcovisorClient::connect(addr, app).expect("connect after reap");
    assert_eq!(fresh.get_grid_power(), Watts::ZERO);
    drop(fresh);
    drop(hung);
    handle.shutdown();
}
