//! The process that hosts the ecovisor, and the parent's handle to it.
//!
//! The benchmark binary re-executes itself as a child so that the
//! program's CPU time and peak memory can be read from `/proc` apart
//! from the generator's. Parent and child talk in lines: one command
//! on the child's stdin, one reply on its stdout, `TAG value value …`.

use std::io::{self, BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

use ecoharness::build_ecovisor;
use ecovisor::{EcovisorServer, ShardedEcovisor, Snapshot};

use crate::fixture;

fn protocol_error(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// The parent's end of a child process.
#[derive(Debug)]
pub struct ChildProc {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl ChildProc {
    /// Re-executes this binary with `args` and waits for its `READY`
    /// line, returning the handle and the words after `READY`.
    pub fn spawn(args: &[String]) -> io::Result<(ChildProc, Vec<String>)> {
        let mut child = Command::new(std::env::current_exe()?)
            .args(args)
            .args(["--host-cpus", &crate::host_cpus().to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut proc = ChildProc {
            child,
            stdin,
            stdout,
        };
        let ready = proc.reply("READY")?;
        Ok((proc, ready))
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    fn reply(&mut self, tag: &str) -> io::Result<Vec<String>> {
        let mut line = String::new();
        if self.stdout.read_line(&mut line)? == 0 {
            return Err(protocol_error(format!("child exited before `{tag}`")));
        }
        let mut words = line.split_ascii_whitespace().map(str::to_string);
        match words.next() {
            Some(t) if t == tag => Ok(words.collect()),
            _ => Err(protocol_error(format!(
                "expected `{tag}`, child said `{}`",
                line.trim_end()
            ))),
        }
    }

    /// Sends one command line and returns the words of the reply, whose
    /// tag is the command's first word in upper case.
    pub fn ask(&mut self, command: &str) -> io::Result<Vec<String>> {
        let stdin = self.stdin.as_mut().expect("child not yet told to quit");
        writeln!(stdin, "{command}")?;
        stdin.flush()?;
        let tag = command
            .split_ascii_whitespace()
            .next()
            .unwrap_or_default()
            .to_ascii_uppercase();
        self.reply(&tag)
    }

    /// [`ChildProc::ask`] for replies that are all numbers.
    pub fn ask_numbers(&mut self, command: &str) -> io::Result<Vec<f64>> {
        self.ask(command)?
            .iter()
            .map(|w| {
                w.parse::<f64>()
                    .map_err(|_| protocol_error(format!("`{command}`: `{w}` is not a number")))
            })
            .collect()
    }

    /// Tells the child to stop, waits for it, and reports a non-zero
    /// exit as an error.
    pub fn quit(mut self) -> io::Result<()> {
        drop(self.stdin.take());
        let status = self.child.wait()?;
        if status.success() {
            Ok(())
        } else {
            Err(protocol_error(format!("child exited with {status}")))
        }
    }
}

impl Drop for ChildProc {
    /// A handle dropped without [`ChildProc::quit`] is an error path:
    /// the child is killed and reaped so no process outlives the run.
    fn drop(&mut self) {
        if self.stdin.take().is_some() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Reads command lines until EOF, answering each through `answer`
/// (which returns the reply's words after the tag).
pub fn command_loop(mut answer: impl FnMut(&str, &[&str]) -> io::Result<String>) -> io::Result<()> {
    let stdin = io::stdin();
    let mut out = io::stdout().lock();
    for line in stdin.lock().lines() {
        let line = line?;
        let words: Vec<&str> = line.split_ascii_whitespace().collect();
        let Some((&command, args)) = words.split_first() else {
            continue;
        };
        let reply = answer(command, args)?;
        writeln!(out, "{} {reply}", command.to_ascii_uppercase())?;
        out.flush()?;
    }
    Ok(())
}

pub fn arg<T: std::str::FromStr>(args: &[&str], i: usize, command: &str) -> io::Result<T> {
    args.get(i)
        .and_then(|a| a.parse().ok())
        .ok_or_else(|| protocol_error(format!("`{command}` needs argument {i}")))
}

pub fn join(values: impl IntoIterator<Item = f64>) -> String {
    values
        .into_iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join(" ")
}

/// One restore: snapshot bytes → an ecovisor ready to dispatch
/// (`Snapshot::from_bytes`, a freshly built world, `apply_snapshot`).
/// Returns its milliseconds and the restored ecovisor.
pub fn timed_restore(
    bytes: &[u8],
    build: impl FnOnce() -> ecovisor::Ecovisor,
) -> io::Result<(f64, ecovisor::Ecovisor)> {
    let started = Instant::now();
    let snap = Snapshot::from_bytes(bytes).map_err(|e| protocol_error(e.to_string()))?;
    let mut eco = build();
    eco.apply_snapshot(&snap)
        .map_err(|e| protocol_error(e.to_string()))?;
    Ok((started.elapsed().as_secs_f64() * 1e3, eco))
}

/// Server child: serves the seeded world on an ephemeral loopback port
/// with the default worker pool until stdin closes.
///
/// Beside the served world it keeps a **private** twin nobody is
/// connected to, and the snapshot bytes of the world as built, so that
/// idle settlement and restore can be timed between two slices of load
/// without changing what the served world answers.
///
/// Commands: `tick` (one `SharedEcovisor::tick()` of the served world,
/// replies its ns), `idle N` (N ticks of the private world, then one
/// restore of the as-built snapshot; replies whether the restored world
/// carries the as-built totals, each tick's ns, the restore's ms),
/// `digest` (the served world's totals digest), `obs` (registry dump as
/// JSON), `stats` (`ServerStats`).
pub fn serve(seed: u64) -> io::Result<()> {
    let (mut eco, _) = fixture::build(seed);
    let as_built = eco.snapshot().to_bytes();
    let as_built_digest = fixture::totals_digest(&eco);
    let spec = fixture::spec(seed);
    let private = ShardedEcovisor::new(fixture::build(seed).0);
    let server = EcovisorServer::bind("127.0.0.1:0", eco)?;
    let addr = server.local_addr()?;
    let handle = server.spawn()?;
    let shared = handle.ecovisor();
    println!("READY {addr}");
    let timed_tick = |world: &ShardedEcovisor| {
        let started = Instant::now();
        std::hint::black_box(world.tick());
        started.elapsed().as_nanos() as f64
    };
    command_loop(|command, args| match command {
        "tick" => Ok(timed_tick(&shared).to_string()),
        "idle" => {
            let ticks: Vec<f64> = (0..arg::<usize>(args, 0, command)?)
                .map(|_| timed_tick(&private))
                .collect();
            let (ms, restored) = timed_restore(&as_built, || {
                build_ecovisor(&spec).expect("generated spec builds").0
            })?;
            let ok = fixture::totals_digest(&restored) == as_built_digest;
            Ok(format!("{} {} {ms}", u8::from(ok), join(ticks)))
        }
        "digest" => Ok(shared.read(fixture::totals_digest).to_string()),
        "obs" => Ok(handle
            .obs_hub()
            .map(|hub| serde::json::to_string(&hub.snapshot()))
            .unwrap_or_default()),
        "stats" => {
            let s = handle.stats();
            Ok(format!(
                "{} {} {}",
                s.active_connections, s.subscriber_backlog, s.recv_buffer_bytes
            ))
        }
        other => Err(protocol_error(format!("unknown command `{other}`"))),
    })?;
    handle.shutdown();
    Ok(())
}
