//! `perf_bench`: the repository's benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perf_bench/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--selfcheck] [--manifest]
//! ```
//!
//! Without `--workload` every workload runs in turn. `--trace 0` (the
//! default) measures the end-to-end metrics with nothing attached;
//! `--trace 1` measures the per-layer metrics, prints the layer ladder and
//! writes one span file. The last line of standard output is one JSON object
//! per workload run; the exit code is non-zero when any check failed.
//! See `perf_bench/README.md`.

mod api;
mod calibration;
mod ladder;
mod metrics;
mod scratch;
mod spans;
mod stats;
mod workloads;

use metrics::{Better, END_TO_END, PER_LAYER};
use scratch::Scratch;
use std::process::{Command, ExitCode};
use workloads::Workload;

/// The seed used when `--seed` is not given (and by the numbers in the README).
const DEFAULT_SEED: u64 = 20_220_101;
/// `run_seconds` of `BENCHMARK.json`, and the default of `--seconds`.
const RUN_SECONDS: u64 = 25;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    selfcheck: bool,
    manifest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        selfcheck: false,
        manifest: false,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| iter.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds >= 1.0 && args.seconds <= 120.0) {
                    return Err("--seconds must be between 1 and 120".into());
                }
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--selfcheck" => args.selfcheck = true,
            "--manifest" => args.manifest = true,
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    Ok(args)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|text| !text.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The machine note every run prints: numbers from different boxes, builds
/// or commits are not comparable.
fn print_header(args: &Args) {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split(':').nth(1))
                .map(|model| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let threads = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "perf_bench: seed {} | {} s per run | trace {}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "  machine: {threads} hardware thread(s) | {cpu} | {} | release, ptycho default features | commit {}",
        command_line("rustc", &["--version"]),
        command_line("git", &["rev-parse", "--short", "HEAD"]),
    );
}

/// Relative change of `second` against `first` in the metric's bad direction.
fn worsening(better: Better, first: f64, second: f64) -> f64 {
    match better {
        Better::Lower => second / first - 1.0,
        Better::Higher => first / second - 1.0,
    }
}

struct RunOutcome {
    correct: bool,
    line: String,
    end_to_end: Option<[f64; 5]>,
}

fn run_workload(w: &Workload, args: &Args, scratch: &Scratch) -> RunOutcome {
    println!("workload {}: {}", w.name, w.why);
    let (ops, metrics, end_to_end) = if args.trace {
        let ladder = ladder::run(w, args.seed, scratch);
        let metrics: Vec<_> = PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit, ladder.values[m.name]))
            .collect();
        (ladder.ops, metrics, None)
    } else {
        let result = workloads::run_end_to_end(w, args.seed, args.seconds, scratch);
        let values = result.values();
        println!("  end-to-end metrics ({}):", w.name);
        for ((metric, value), n) in END_TO_END.iter().zip(values).zip(result.counts()) {
            println!(
                "    {:<20} {value:>18.9} {:<6} n={n:<6} bound {:>4.0}%",
                metric.name,
                metric.unit,
                100.0 * metric.bound
            );
        }
        for (name, value, unit, n) in &result.notes {
            println!("    {name:<20} {value:>18.9} {unit:<6} n={n:<6} reported, not gated");
        }
        let metrics: Vec<_> = END_TO_END
            .iter()
            .zip(values)
            .map(|(m, value)| (m.name, m.unit, value))
            .collect();
        (result.ops, metrics, Some(values))
    };
    println!(
        "  ops_attempted {} ops_failed {}",
        ops.attempted.max(1),
        ops.failed
    );
    for failure in &ops.failures {
        println!("  FAILED: {failure}");
    }
    let usable = metrics.iter().all(|(_, _, v)| v.is_finite());
    let correct = ops.failed == 0 && usable;
    // A value that is not a number cannot go into the result line.
    let metrics: Vec<_> = metrics
        .into_iter()
        .map(|(name, unit, v)| (name, unit, if v.is_finite() { v } else { 0.0 }))
        .collect();
    RunOutcome {
        correct,
        line: metrics::result_line(correct, ops.attempted.max(1), ops.failed, &metrics),
        end_to_end,
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perf_bench: {message}");
            eprintln!(
                "usage: perf_bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--selfcheck] [--manifest]"
            );
            return ExitCode::FAILURE;
        }
    };
    let all = workloads::all();
    if args.manifest {
        print!("{}", metrics::manifest(&all, RUN_SECONDS));
        return ExitCode::SUCCESS;
    }
    let selected: Vec<&Workload> = match &args.workload {
        None => all.iter().collect(),
        Some(name) => match all.iter().find(|w| w.name == name) {
            Some(w) => vec![w],
            None => {
                let names: Vec<_> = all.iter().map(|w| w.name).collect();
                eprintln!(
                    "perf_bench: unknown workload {name}; one of {}",
                    names.join(", ")
                );
                return ExitCode::FAILURE;
            }
        },
    };
    let scratch = match Scratch::fresh() {
        Ok(scratch) => scratch,
        Err(error) => {
            eprintln!("perf_bench: cannot prepare the scratch directory: {error}");
            return ExitCode::FAILURE;
        }
    };
    print_header(&args);
    // After the machine note, which counts the CPUs the process may use.
    match calibration::pin_to_one_cpu() {
        Ok(cpu) => println!(
            "  pinned to CPU {cpu}; end-to-end times are calibrated seconds (reference unit = {} s)",
            calibration::NOMINAL_UNIT_S
        ),
        Err(why) => println!("  NOT pinned to one CPU ({why}): expect noisier times"),
    }

    let mut ok = true;
    let mut lines = Vec::new();
    for w in &selected {
        let first = run_workload(w, &args, &scratch);
        ok &= first.correct;
        if args.selfcheck && !args.trace {
            // The same workload again in the same process: every end-to-end
            // metric must repeat within its own bound.
            let second = run_workload(w, &args, &scratch);
            ok &= second.correct;
            if let (Some(a), Some(b)) = (first.end_to_end, second.end_to_end) {
                for ((metric, a), b) in END_TO_END.iter().zip(a).zip(b) {
                    let change = worsening(metric.better, a, b).abs();
                    let within = change <= metric.bound;
                    println!(
                        "  selfcheck {:<20} {a:>16.6} vs {b:>16.6}  {:>6.2}% (bound {:.0}%) {}",
                        metric.name,
                        100.0 * change,
                        100.0 * metric.bound,
                        if within { "ok" } else { "DISAGREES" }
                    );
                    ok &= within;
                }
            }
        }
        lines.push(first.line);
    }
    if ok {
        if let Err(error) = scratch.remove_stores() {
            eprintln!("perf_bench: cannot remove the checkpoint stores: {error}");
            ok = false;
        }
    }
    // The result lines go last, so the final line of standard output is one.
    for line in &lines {
        println!("{line}");
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
