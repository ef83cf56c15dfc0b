//! `ServerStats` lifecycle: the leak-gate counters start at zero, rise
//! while connections are live, and return to zero once every client is
//! gone — the invariant `ecoharness fuzz --soak` gates long runs on.
//! Nothing waits between a socket and the dispatcher, so nothing can be
//! abandoned there at shutdown or churn: `recv_buffer_bytes == 0` and
//! `active_connections == 0` are the whole drain check. The
//! observability registry's counters must be monotonic across connection
//! churn and consistent with one another (frames per read, per turn, per
//! write) — checked here over the wire `Stats` surface.

use std::time::{Duration, Instant};

use ecovisor::obs::MetricValue;
use ecovisor::{
    CredentialRegistry, EcovisorBuilder, EcovisorServer, EnergyClient, EnergyShare, EventFilter,
    RemoteEcovisorClient, ServerHandle,
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

fn spawn(workers: Option<usize>) -> (ServerHandle, container_cop::AppId) {
    let mut eco = EcovisorBuilder::new().build();
    let app = eco
        .register_app("tenant", EnergyShare::grid_only())
        .expect("register");
    let mut server = EcovisorServer::bind("127.0.0.1:0", eco).expect("bind");
    if let Some(n) = workers {
        server = server.with_workers(n);
    }
    (server.spawn().expect("spawn"), app)
}

fn assert_baseline(handle: &ServerHandle, context: &str) {
    assert!(
        wait_until(Duration::from_secs(5), || {
            let s = handle.stats();
            s.active_connections == 0 && s.subscriber_backlog == 0 && s.recv_buffer_bytes == 0
        }),
        "{context}: counters did not return to baseline, got {:?}",
        handle.stats()
    );
}

/// The serving threads' counters with two threads pinned: all-zero
/// before any client, live connections and receive buffers visible
/// while clients talk, and a full return to the all-zero baseline after
/// the last disconnect.
#[test]
fn stats_rise_and_return_to_baseline_under_pinned_pool() {
    let (handle, app) = spawn(Some(2));
    assert_baseline(&handle, "fresh server");

    // Two clients; one subscribes to the push stream.
    let mut subscriber = RemoteEcovisorClient::connect(handle.addr(), app).expect("connect");
    let mut poller = RemoteEcovisorClient::connect(handle.addr(), app).expect("connect");
    subscriber
        .subscribe_events(EventFilter::all())
        .expect("subscribe");
    assert_eq!(subscriber.get_grid_power(), Watts::ZERO);
    assert_eq!(poller.get_grid_power(), Watts::ZERO);

    assert!(
        wait_until(Duration::from_secs(5), || {
            handle.stats().active_connections == 2
        }),
        "both connections counted, got {:?}",
        handle.stats()
    );
    assert!(
        handle.stats().recv_buffer_bytes > 0,
        "live connections hold receive buffers: {:?}",
        handle.stats()
    );
    // The individually-read counters and the bundled snapshot agree at
    // quiescence (nothing in flight between the reads).
    let stats = handle.stats();
    assert_eq!(stats.active_connections, handle.active_connections());
    assert_eq!(stats.subscriber_backlog, handle.subscriber_backlog());
    assert_eq!(stats.recv_buffer_bytes, handle.recv_buffer_bytes());

    drop(subscriber);
    drop(poller);
    assert_baseline(&handle, "after disconnect");
    handle.shutdown();
}

/// The same gate with the default auto-sized threads: connections are
/// counted while live and every counter drains to zero after they drop.
#[test]
fn stats_return_to_baseline_under_auto_sized_pool() {
    let (handle, app) = spawn(None);
    assert_baseline(&handle, "fresh server");

    let mut cli = RemoteEcovisorClient::connect(handle.addr(), app).expect("connect");
    assert_eq!(cli.get_grid_power(), Watts::ZERO);
    assert!(
        wait_until(Duration::from_secs(5), || {
            handle.stats().active_connections == 1
        }),
        "connection counted, got {:?}",
        handle.stats()
    );

    drop(cli);
    assert_baseline(&handle, "after disconnect");
    handle.shutdown();
}

/// Histogram lifecycle through the hub the server attaches at bind:
/// empty snapshot → observations land in the right log2 buckets →
/// count/sum/buckets only ever grow.
#[test]
fn histogram_buckets_fill_and_stay_monotonic() {
    let hub = ecovisor::obs::ObsHub::new();
    let hist = hub.registry().histogram("test.latency_ns");

    let snap = hub.snapshot();
    let empty = snap.histogram("test.latency_ns").expect("registered");
    assert_eq!(empty.count, 0);
    assert_eq!(empty.sum, 0);
    assert!(empty.buckets.is_empty());
    assert_eq!(empty.mean(), 0.0);

    // Bucket i counts values in [2^i, 2^(i+1)); 0 lands in bucket 0.
    hist.record(1);
    hist.record(3);
    hist.record(1024);
    hist.record(1500);
    let mid = hub.snapshot();
    let snap = mid.histogram("test.latency_ns").expect("registered");
    assert_eq!(snap.count, 4);
    assert_eq!(snap.sum, 1 + 3 + 1024 + 1500);
    assert_eq!(snap.buckets, vec![(0, 1), (1, 1), (10, 2)]);

    // More observations strictly extend the previous snapshot.
    hist.record(1 << 40); // beyond the last bucket edge: clamps into the top bucket
    let end = hub.snapshot();
    let later = end.histogram("test.latency_ns").expect("registered");
    assert_eq!(later.count, snap.count + 1);
    assert!(later.sum >= snap.sum);
    for (bucket, count) in &snap.buckets {
        let now = later
            .buckets
            .iter()
            .find(|(b, _)| b == bucket)
            .map(|(_, c)| *c)
            .unwrap_or(0);
        assert!(now >= *count, "bucket {bucket} shrank: {count} -> {now}");
    }
}

/// The wire `Stats` surface against a credentialed server: counters are
/// monotonic across connection churn, `ServerStats` returns to baseline
/// between rounds, and the report carries the full catalogue (dispatch
/// histograms, transport frame and syscall counters, settlement
/// timings).
#[test]
fn wire_stats_survive_connection_churn() {
    let mut eco = EcovisorBuilder::new().build();
    let app = eco
        .register_app("tenant", EnergyShare::grid_only())
        .expect("register");
    let creds = CredentialRegistry::new().with(app, "stats-token");
    let handle = EcovisorServer::bind("127.0.0.1:0", eco)
        .expect("bind")
        .with_credentials(creds)
        .with_workers(2)
        .spawn()
        .expect("spawn");

    let connect = || {
        RemoteEcovisorClient::connect_with_credential(handle.addr(), app, "stats-token")
            .expect("connect with token")
    };

    // Churn: several short-lived connections, each doing real traffic.
    let mut frames_in_seen = Vec::new();
    for _ in 0..3 {
        let mut cli = connect();
        assert_eq!(cli.get_grid_power(), Watts::ZERO);
        assert_eq!(cli.get_solar_power(), Watts::ZERO);
        let report = cli.fetch_stats().expect("stats over the wire");
        // The catalogue is present end to end.
        for name in [
            "dispatch.requests_total",
            "dispatch.batch_latency_ns",
            "settle.barrier_wait_ns",
            "transport.frames_in_total",
            "transport.frames_out_total",
            "transport.socket_reads_total",
            "transport.turns_total",
            "transport.socket_writes_total",
            "transport.serve_latency_ns",
        ] {
            assert!(
                report.metrics.get(name).is_some(),
                "wire report is missing {name}"
            );
        }
        // Transport counters reflect this connection's own traffic.
        let frames_in = report
            .metrics
            .counter("transport.frames_in_total")
            .expect("frames_in is a counter");
        assert!(frames_in > 0, "no frames counted");
        frames_in_seen.push(frames_in);
        assert!(
            report
                .metrics
                .counter("transport.accepts_total")
                .unwrap_or(0)
                >= frames_in_seen.len() as u64,
            "every churned connection was accepted"
        );
        // Every frame out went out in a socket write, and on a connection
        // that drains a write carries at least one whole frame (the
        // report in hand is neither counted yet nor written).
        let counter = |name| report.metrics.counter(name).expect("a counter");
        let (frames_out, writes) = (
            counter("transport.frames_out_total"),
            counter("transport.socket_writes_total"),
        );
        assert!(
            writes > 0 && writes <= frames_out,
            "{writes} socket writes for {frames_out} frames out"
        );
        // Every frame in came out of a socket read made in a turn. A turn
        // reads at least once, and a read finds at most the one frame a
        // one-at-a-time client is waiting on (the hello's included, and
        // the `Stats` request being answered) — though a turn may find
        // two: the hello's accept is written at once, so the first request
        // can arrive before that turn has looked whether the socket is dry.
        let (frames_in, reads, turns) = (
            counter("transport.frames_in_total"),
            counter("transport.socket_reads_total"),
            counter("transport.turns_total"),
        );
        assert!(
            frames_in <= reads && 0 < turns && turns <= reads,
            "{frames_in} frames in over {turns} turns and {reads} socket reads"
        );
        // Serve latency observed at least the frames this client sent.
        match report.metrics.get("transport.serve_latency_ns") {
            Some(MetricValue::Histogram(h)) => assert!(h.count > 0, "no serves timed"),
            other => panic!("serve_latency has wrong shape: {other:?}"),
        }
        drop(cli);
        assert_baseline(&handle, "between churn rounds");
    }
    assert!(
        frames_in_seen.windows(2).all(|w| w[0] < w[1]),
        "frames_in must be strictly monotonic across churn: {frames_in_seen:?}"
    );

    assert_baseline(&handle, "after all churn");
    handle.shutdown();
}
