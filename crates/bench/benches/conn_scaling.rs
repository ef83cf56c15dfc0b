//! Connection scaling: the evented transport's headline claim — a few
//! serving threads, each polling its share of thousands of live
//! connections — measured as request latency on a hot connection
//! while 100 / 1,000 / 10,000 idle peers stay attached.
//!
//! The server runs in a **child process** (this binary re-executed with
//! `CONN_SCALING_SERVER=1`): at the 10k row, client and server sockets
//! together would exceed this container's 20,000-fd limit in a single
//! process, and the split also keeps the measured client free of the
//! server's own epoll wakeups. The parent opens N connections (full
//! hello exchange each — the storm duration is printed per row),
//! then Criterion measures a `PollEvents` round trip on the last one.
//! On a readiness-driven server the idle 9,999 cost nothing per
//! request, so the rows should be flat; a thread-per-connection server
//! could not even hold the 10k row open.
//!
//! Committed baseline: `BENCH_conn_scaling.json` in the crate root.

use std::io::{BufRead, BufReader, Read, Write};
use std::process::{Child, Command, Stdio};
use std::time::Instant;

use criterion::{BenchmarkId, Criterion};

use ecovisor::{
    AppId, EcovisorBuilder, EcovisorServer, EnergyClient, EnergyShare, RemoteEcovisorClient,
};

const CONNECTIONS: [usize; 3] = [100, 1_000, 10_000];

/// Child mode: serve one app on an ephemeral port, announce the
/// address on stdout, then hold until the parent closes our stdin.
fn run_server() {
    let mut eco = EcovisorBuilder::new().build();
    eco.register_app("scale", EnergyShare::grid_only())
        .expect("register");
    let server = EcovisorServer::bind("127.0.0.1:0", eco).expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.spawn().expect("spawn");
    println!("ADDR {addr}");
    std::io::stdout().flush().expect("flush");
    // Parent signals teardown by closing the pipe.
    let mut buf = [0u8; 1];
    let _ = std::io::stdin().read(&mut buf);
    handle.shutdown();
}

struct ServerChild {
    child: Child,
    addr: String,
}

impl ServerChild {
    fn spawn() -> ServerChild {
        let exe = std::env::current_exe().expect("current_exe");
        let mut child = Command::new(exe)
            .env("CONN_SCALING_SERVER", "1")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn server child");
        let stdout = child.stdout.take().expect("child stdout");
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line).expect("ADDR");
        let addr = line
            .trim()
            .strip_prefix("ADDR ")
            .expect("ADDR line")
            .to_string();
        ServerChild { child, addr }
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        // Closing stdin is the shutdown signal; then reap.
        drop(self.child.stdin.take());
        let _ = self.child.wait();
    }
}

fn bench_conn_scaling(c: &mut Criterion) {
    ecovisor_bench::host::print_banner("conn_scaling");
    let app = AppId::new(1);
    let mut group = c.benchmark_group("conn_scaling");
    for &n in &CONNECTIONS {
        let server = ServerChild::spawn();
        let storm = Instant::now();
        let mut conns: Vec<RemoteEcovisorClient> = (0..n)
            .map(|_| RemoteEcovisorClient::connect(&server.addr, app).expect("connect"))
            .collect();
        println!(
            "# conn_scaling/{n} connect storm: {n} hellos in {:.1} ms",
            storm.elapsed().as_secs_f64() * 1e3
        );
        let hot = conns.last_mut().expect("at least one connection");
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| std::hint::black_box(hot.poll_events().expect("round trip")))
        });
        drop(conns);
    }
    group.finish();
}

fn main() {
    if std::env::var("CONN_SCALING_SERVER").is_ok_and(|v| v == "1") {
        run_server();
        return;
    }
    let mut c = Criterion::default();
    bench_conn_scaling(&mut c);
}
