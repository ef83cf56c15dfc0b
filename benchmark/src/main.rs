//! `ecobench` — the repo's benchmark.
//!
//! Four saturation workloads (`wire-poll`, `wire-bulk`, `wire-control`,
//! `sim-day`), every layer timed from outside through its public
//! functions. See `benchmark/README.md` for the catalogue.
//!
//! ```text
//! ecobench --workload W --seed N --seconds S --trace 0|1   one workload; last stdout line is JSON
//! ecobench [--seed N] [--trace] [--smoke] [--seconds S]     every workload; writes benchmark/out/result.json
//! ecobench compare A.json[,A2.json…] B.json[,B2.json…]      exit 1 on a regression
//! ```

mod affinity;
mod child;
mod fixture;
mod process;
mod quiet;
mod rawclient;
mod report;
mod simday;
mod stats;
mod trace;
mod wire;

use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use report::RunResult;
use serde::Value;

/// Where `result.json` and the span files go, relative to the root of
/// the checkout.
const OUT_DIR: &str = "benchmark/out";
/// Seconds one run measures unless `--seconds` says otherwise; the
/// value `BENCHMARK.json` gives the driver.
const RUN_SECONDS: f64 = 20.0;
/// Length of one slice of a wire window: short enough that some slices
/// fall wholly between two bursts of a neighbour's noise, long enough
/// that the server's CPU clock (10 ms ticks) resolves a slice.
const SLICE_SECONDS: f64 = 0.25;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    WirePoll,
    WireBulk,
    WireControl,
    SimDay,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::WirePoll,
        Workload::WireBulk,
        Workload::WireControl,
        Workload::SimDay,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WirePoll => "wire-poll",
            Workload::WireBulk => "wire-bulk",
            Workload::WireControl => "wire-control",
            Workload::SimDay => "sim-day",
        }
    }

    fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How long and how often a run measures. Everything follows from
/// `--seconds`; `--smoke` is a short `--seconds` with fewer repeats.
#[derive(Debug, Clone, PartialEq)]
pub struct Shape {
    /// Length of the measured window.
    pub seconds: f64,
    /// Equal slices the window is cut into (see [`quiet`]).
    pub slices: usize,
    /// Unmeasured load that ends every set-up.
    pub warmup_s: f64,
    /// Full set-ups per run; `setup_s` is their median.
    pub setups: usize,
}

impl Shape {
    fn new(seconds: f64, smoke: bool) -> Shape {
        Shape {
            seconds,
            slices: ((seconds / SLICE_SECONDS).round() as usize).max(8),
            warmup_s: (seconds / 10.0).min(0.5),
            setups: if smoke { 2 } else { 5 },
        }
    }

    /// Window length and slice count of each pass of a traced run: a
    /// quarter of the untraced window.
    pub fn traced_pass(&self) -> (f64, usize) {
        (self.seconds / 4.0, (self.slices / 4).max(4))
    }
}

#[derive(Debug, Default)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    child: Option<String>,
    /// Passed to a child, whose own count is already restricted.
    host_cpus: Option<usize>,
    /// Each side: the `result.json` files whose runs are pooled.
    compare: Option<(Vec<PathBuf>, Vec<PathBuf>)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        ..Args::default()
    };
    let mut it = argv.iter().peekable();
    let value = |it: &mut std::iter::Peekable<std::slice::Iter<'_, String>>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => {
                let name = value(&mut it, arg)?;
                args.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => {
                args.seed = value(&mut it, arg)?
                    .parse()
                    .map_err(|_| "--seed needs a whole number")?;
            }
            "--seconds" => {
                let s: f64 = value(&mut it, arg)?
                    .parse()
                    .map_err(|_| "--seconds needs a number")?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                args.seconds = Some(s);
            }
            // The driver writes `--trace 0|1`; by hand it is a bare flag.
            "--trace" => {
                args.trace = match it.next_if(|v| matches!(v.as_str(), "0" | "1")) {
                    Some(v) => v == "1",
                    None => true,
                };
            }
            "--smoke" => args.smoke = true,
            "--child" => args.child = Some(value(&mut it, arg)?),
            "--host-cpus" => {
                args.host_cpus = Some(
                    value(&mut it, arg)?
                        .parse()
                        .map_err(|_| "--host-cpus needs a whole number")?,
                );
            }
            "compare" => {
                let mut side = || -> Result<Vec<PathBuf>, String> {
                    Ok(value(&mut it, "compare")?
                        .split(',')
                        .map(PathBuf::from)
                        .collect())
                };
                args.compare = Some((side()?, side()?));
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// The machine and the load shape, echoed into `result.json`: absolute
/// numbers mean nothing without them.
fn host_block(shape: &Shape) -> Value {
    let (generator, server) = affinity::split(host_cpus());
    let entries = vec![
        ("nproc", Value::UInt(host_cpus() as u64)),
        ("generator_cpus", Value::Str(format!("{generator:?}"))),
        ("server_cpus", Value::Str(format!("{server:?}"))),
        (
            "target",
            Value::Str(format!(
                "{}-{}",
                std::env::consts::ARCH,
                std::env::consts::OS
            )),
        ),
        ("clients", Value::UInt(wire::connections() as u64)),
        ("depth", Value::UInt(fixture::BURST as u64)),
        ("loop", Value::Str("closed".into())),
        ("link", Value::Str("loopback".into())),
        ("window_s", Value::Float(shape.seconds)),
        ("slice_s", Value::Float(shape.seconds / shape.slices as f64)),
        ("slices", Value::UInt(shape.slices as u64)),
        ("warmup_s", Value::Float(shape.warmup_s)),
    ];
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn trace_file(workload: Workload) -> PathBuf {
    Path::new(OUT_DIR).join(format!("trace-{}.json", workload.name()))
}

/// One run of one workload: untraced for the end-to-end metrics, traced
/// for the per-layer ones. Numbers never cross between the two.
fn run_one(workload: Workload, seed: u64, shape: &Shape, traced: bool) -> io::Result<RunResult> {
    place(if workload == Workload::SimDay {
        Role::Everywhere
    } else {
        Role::Generator
    })?;
    let (outcome, metrics) = match (workload, traced) {
        (Workload::SimDay, false) => simday::run(shape)?,
        (Workload::SimDay, true) => simday::run_traced(shape, &trace_file(workload))?,
        (_, false) => wire::run(workload, seed, shape)?,
        (_, true) => {
            let (outcome, metrics, spans) = wire::run_traced(workload, seed, shape)?;
            std::fs::create_dir_all(OUT_DIR)?;
            let file = std::fs::File::create(trace_file(workload))?;
            spans.write_json(&mut io::BufWriter::new(file))?;
            (outcome, metrics)
        }
    };
    Ok(RunResult {
        workload,
        seed,
        traced,
        outcome,
        metrics,
    })
}

fn run(args: &Args) -> io::Result<bool> {
    let seconds = args
        .seconds
        .unwrap_or(if args.smoke { 2.0 } else { RUN_SECONDS });
    let shape = Shape::new(seconds, args.smoke);
    if let Some(workload) = args.workload {
        let result = run_one(workload, args.seed, &shape, args.trace)?;
        result.print();
        println!("{}", result.driver_line());
        return Ok(result.outcome.failed == 0 && result.complete());
    }
    println!(
        "# closed loop, depth {}, {} connections, loopback; {} x {:.2} s slices",
        fixture::BURST,
        wire::connections(),
        shape.slices,
        shape.seconds / shape.slices as f64
    );
    let mut runs = Vec::new();
    for workload in Workload::ALL {
        for traced in [false, true] {
            if traced && !args.trace {
                continue;
            }
            let result = run_one(workload, args.seed, &shape, traced)?;
            result.print();
            runs.push(result);
        }
    }
    std::fs::create_dir_all(OUT_DIR)?;
    let path = Path::new(OUT_DIR).join("result.json");
    std::fs::write(&path, report::result_json(&host_block(&shape), &runs))?;
    println!("# wrote {}", path.display());
    Ok(runs.iter().all(|r| r.outcome.failed == 0 && r.complete()))
}

fn compare(base: &[PathBuf], new: &[PathBuf]) -> io::Result<bool> {
    let read = |paths: &[PathBuf]| -> io::Result<Vec<String>> {
        paths.iter().map(std::fs::read_to_string).collect()
    };
    let (table, ok) = report::compare(&read(base)?, &read(new)?).map_err(io::Error::other)?;
    print!("{table}");
    Ok(ok)
}

/// CPUs of the host, counted before this process restricted itself to
/// some of them (a child is told its parent's count).
static HOST_CPUS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();

pub fn host_cpus() -> usize {
    *HOST_CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Who runs where (see [`affinity`]). On a wire workload the generator
/// takes the lower half of the host's CPUs and the server child the
/// upper half. `sim-day` is one thread: it keeps every CPU, so that the
/// kernel can move it off a CPU a neighbour is leaning on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Generator,
    Server,
    Everywhere,
}

fn place(role: Role) -> io::Result<()> {
    let (generator, server) = affinity::split(host_cpus());
    affinity::pin(match role {
        Role::Generator => generator,
        Role::Server => server,
        Role::Everywhere => 0..host_cpus(),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ecobench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(n) = args.host_cpus {
        HOST_CPUS.get_or_init(|| n);
    }
    host_cpus();
    let done = match (&args.child, &args.compare) {
        (Some(role), _) => match role.as_str() {
            "server" => place(Role::Server).and_then(|()| child::serve(args.seed)),
            "worker" => place(Role::Everywhere).and_then(|()| simday::work()),
            other => Err(io::Error::other(format!("unknown child role `{other}`"))),
        }
        .map(|()| true),
        (None, Some((base, new))) => compare(base, new),
        (None, None) => run(&args),
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("ecobench: {e}");
            ExitCode::from(1)
        }
    }
}
