//! `kvbench`: the repository's benchmark. See `README.md` beside this
//! file for the workloads, the metric glossary and the rules of
//! measurement.
//!
//! ```text
//! kvbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! kvbench all [--seed <n>] [--seconds <s>] [--out <file>]
//! kvbench compare <a.json> <b.json>
//! ```

mod alloc;
mod batch;
mod compare;
mod engine;
mod gen;
mod ledger;
mod metrics;
mod oracle;
mod serve;
mod shadow;
mod stats;

use kvec_json::Json;
use kvec_obs as obs;
use kvec_tensor::{simd, SimdMode};
use metrics::Report;
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// The five workloads, in the order `all` runs them.
pub const WORKLOADS: &[&str] = &[
    "train-batch",
    "eval-batch",
    "stream-late-wide",
    "serve-closed",
    "serve-overload",
];

/// What one run was asked to do.
pub struct Plan {
    /// Drives the input generators and nothing else.
    pub seed: u64,
    /// Measuring time: laps of fixed work repeat until it has passed.
    pub seconds: f64,
    /// Fewest laps a lap loop runs, however short the time.
    pub min_laps: usize,
    /// Tiny inputs, for the in-bin smoke test.
    pub smoke: bool,
}

impl Plan {
    /// A full-size run: at least ten laps behind every rate.
    pub fn full(seed: u64, seconds: f64) -> Self {
        Self {
            seed,
            seconds,
            min_laps: 10,
            smoke: false,
        }
    }

    /// Tiny inputs, two laps, no waiting.
    pub fn smoke(seed: u64) -> Self {
        Self {
            seed,
            seconds: 0.0,
            min_laps: 2,
            smoke: true,
        }
    }

    /// Whether a lap loop that began at `started` and has finished `laps`
    /// laps may stop.
    pub fn done(&self, started: Instant, laps: usize) -> bool {
        laps >= self.min_laps && started.elapsed().as_secs_f64() >= self.seconds
    }

    /// The full-size value, or the smoke test's.
    pub fn pick<T>(&self, full: T, smoke: T) -> T {
        if self.smoke {
            smoke
        } else {
            full
        }
    }

    /// A plan for one phase of a ledger run: `share` of the time, and as
    /// few laps as the smoke test (a paced lap alone can outlast a phase).
    pub fn phase(&self, share: f64) -> Plan {
        Plan {
            seconds: self.seconds * share,
            min_laps: 2.min(self.min_laps),
            ..*self
        }
    }
}

/// Runs `setup` fifteen times (set-ups take milliseconds, and a median of
/// few is noisy) and returns the last result with the median duration in
/// seconds — `setup_s`, everything before the first timed lap.
pub fn median_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..15 {
        // The previous repetition's result (a running service, for the
        // serve workloads) is torn down outside the timed region.
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("set up at least once"), stats::median(&times))
}

/// Shards the service workloads run: one vCPU is the generator's.
pub fn shards() -> usize {
    (nproc() - 1).clamp(1, 4)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Pins everything the environment could otherwise steer: one kernel
/// thread, the automatic SIMD tier, observability off.
fn pin_environment() {
    kvec_tensor::set_num_threads(1);
    kvec_tensor::set_simd_mode(SimdMode::Auto);
    obs_off();
}

/// Switches the observability subscriber off, whatever the environment or
/// an earlier ledger phase set.
pub fn obs_off() {
    obs::configure(obs::Config {
        enabled: false,
        level: obs::Level::Info,
        sink: obs::SinkConfig::Null,
    });
}

/// Runs one workload in this process.
pub fn run_workload(name: &str, plan: &Plan, trace: bool) -> Option<Report> {
    pin_environment();
    let report = match (name, trace) {
        ("train-batch", false) => batch::run_train(plan),
        ("eval-batch", false) => batch::run_eval(plan),
        ("stream-late-wide", false) => engine::run(plan),
        ("serve-closed", false) => serve::run_closed(plan),
        ("serve-overload", false) => serve::run_overload(plan),
        ("train-batch", true) => ledger::train(plan),
        ("eval-batch", true) => ledger::eval(plan),
        ("stream-late-wide", true) => ledger::stream(plan),
        ("serve-closed", true) => ledger::serve_closed(plan),
        ("serve-overload", true) => ledger::serve_overload(plan),
        _ => return None,
    };
    if !trace {
        assert!(!obs::enabled(), "end-to-end runs measure with tracing off");
    }
    Some(report)
}

fn host_line() -> String {
    format!(
        "host: nproc {}, shards {}, kernel_path {}",
        nproc(),
        shards(),
        simd::active_path().name()
    )
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    positional: Vec<String>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
        out: None,
        positional: Vec::new(),
    };
    let mut it = raw.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => args.out = Some(value()?.clone()),
            other if other.starts_with("--") => return Err(format!("unknown option {other}")),
            other => args.positional.push(other.to_string()),
        }
    }
    Ok(args)
}

/// Prints a report: host, spread and check lines, every metric by name and
/// unit, and the contract's JSON object as the last line.
fn print_report(name: &str, trace: bool, report: &Report) {
    println!("kvbench {name} (trace {})", trace as u8);
    println!("{}", host_line());
    for line in report.lines.iter().chain(&report.metric_lines()) {
        println!("{line}");
    }
    println!("{}", report.result_json().dump());
}

/// `all`: every workload end to end and traced, one child process each,
/// gathered into one document `compare` reads.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut ok = true;
    let mut runs = Vec::new();
    for &name in WORKLOADS {
        for trace in ["0", "1"] {
            let out = std::process::Command::new(&exe)
                .args(["--workload", name, "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| format!("spawn {name}: {e}"))?;
            let text = String::from_utf8_lossy(&out.stdout);
            print!("{text}");
            ok &= out.status.success();
            let last = text.lines().last().unwrap_or("");
            let result = Json::parse(last).map_err(|e| format!("{name}: no result line: {e}"))?;
            // End-to-end runs print the lap spread behind their rate.
            let spread = text
                .lines()
                .rev()
                .find_map(|l| l.strip_prefix("lap_spread = "))
                .and_then(|s| s.parse::<f64>().ok());
            runs.push(Json::obj([
                ("workload", Json::Str(name.into())),
                ("trace", Json::Int((trace == "1") as i128)),
                ("lap_spread", spread.map_or(Json::Null, Json::Float)),
                ("result", result),
            ]));
        }
    }
    let doc = Json::obj([
        ("seed", Json::Int(args.seed as i128)),
        ("seconds", Json::Float(args.seconds)),
        ("host", Json::Str(host_line())),
        ("runs", Json::Arr(runs)),
    ]);
    if let Some(path) = &args.out {
        std::fs::write(path, doc.dump_pretty()).map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(ok)
}

fn real_main() -> Result<bool, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&raw)?;
    match (args.positional.first().map(String::as_str), &args.workload) {
        (Some("all"), None) => run_all(&args),
        (Some("compare"), None) => match &args.positional[1..] {
            [a, b] => compare::run(a, b),
            _ => Err("compare takes two result files".into()),
        },
        (None, Some(name)) => {
            let plan = Plan::full(args.seed, args.seconds);
            let report = run_workload(name, &plan, args.trace).ok_or(format!(
                "unknown workload {name}; one of {}",
                WORKLOADS.join(", ")
            ))?;
            print_report(name, args.trace, &report);
            Ok(report.correct())
        }
        _ => Err(
            "usage: kvbench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
                  | all [--seed n] [--seconds s] [--out file] | compare <a.json> <b.json>"
                .into(),
        ),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("kvbench: {msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests;
