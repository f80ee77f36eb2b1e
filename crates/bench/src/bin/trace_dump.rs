//! Reassembles a JSONL telemetry log into per-rank stream digests with each
//! job's exact critical-path attribution (compute / comm / barrier-wait /
//! retransmit / heal per rank, summing exactly to the job's end-to-end
//! simulated time), and the causal analyses built on top of it.
//!
//! ```text
//! cargo run --release -p ptycho-bench --bin trace_dump -- trace.jsonl
//! ```
//!
//! Flags:
//!
//! * `--validate` — print the valid-record count instead of summarising.
//!   Every mode reads the trace through `TraceSummary::from_lines`, so a bad
//!   line (unknown kind, missing field or malformed number, out-of-order
//!   sequence number, non-monotonic simulated clock) exits non-zero; a
//!   truncated *final* line (a run killed mid-flush) is tolerated, matching
//!   the durable sink's prefix-consistency guarantee. Records a
//!   flight-recorder ring evicted before they became durable
//!   (`StreamSummary::lost`) are warned about per stream; `--strict` turns
//!   the warning into a non-zero exit.
//! * `--critical-path` — per job: the attribution rows without the stream
//!   digests, plus the straggler report and the anomaly scan. `--strict`
//!   exits non-zero on *integrity* violations only — lost ring records or
//!   an attribution row that fails the exact sum — never on anomalies (a
//!   fault-drill trace legitimately has retransmit bursts and kills).
//! * `--diff OTHER` — compare this trace's spans against `OTHER`'s,
//!   structurally (clocks excluded): exit 0 and print `identical` when the
//!   span sets match, exit 2 and print `DIVERGED …` localising the first
//!   divergence otherwise. A resumed run diffed against its uninterrupted
//!   twin diverges only at the resume seam, with the whole post-resume
//!   suffix reported as identical.
//! * `--job J`   — restrict to one job id.
//! * `--job-b K` — the job id in the `--diff` counterpart (defaults to
//!   `--job`'s value).
//! * `--straggler-z Z` — z-score threshold for the straggler report
//!   (default 2.0).
//!
//! The first stdout line names the FFT dispatch tier of *this* host
//! (`simd tier: avx2`). It is a fact about the machine, never about the
//! trace: every tier computes the same bits, so records carry no tier.

use ptycho_fft::SimdLevel;
use ptycho_telemetry::{analysis, CriticalPath, TraceSummary};
use std::process::ExitCode;

struct Args {
    path: String,
    validate: bool,
    critical_path: bool,
    strict: bool,
    diff: Option<String>,
    job: Option<u64>,
    job_b: Option<u64>,
    straggler_z: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut path = None;
    let mut validate = false;
    let mut critical_path = false;
    let mut strict = false;
    let mut diff = None;
    let mut job = None;
    let mut job_b = None;
    let mut straggler_z = 2.0;
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--validate" => validate = true,
            "--critical-path" => critical_path = true,
            "--strict" => strict = true,
            "--diff" => {
                diff = Some(iter.next().ok_or("--diff needs a trace file")?);
            }
            "--job" => {
                let value = iter.next().ok_or("--job needs a value")?;
                job = Some(value.parse::<u64>().map_err(|e| format!("--job: {e}"))?);
            }
            "--job-b" => {
                let value = iter.next().ok_or("--job-b needs a value")?;
                job_b = Some(value.parse::<u64>().map_err(|e| format!("--job-b: {e}"))?);
            }
            "--straggler-z" => {
                let value = iter.next().ok_or("--straggler-z needs a value")?;
                straggler_z = value
                    .parse::<f64>()
                    .map_err(|e| format!("--straggler-z: {e}"))?;
            }
            other if other.starts_with("--") => return Err(format!("unknown flag: {other}")),
            other => {
                if path.replace(other.to_string()).is_some() {
                    return Err("exactly one trace file expected".into());
                }
            }
        }
    }
    Ok(Args {
        path: path.ok_or("a trace file is required")?,
        validate,
        critical_path,
        strict,
        diff,
        job,
        job_b,
        straggler_z,
    })
}

fn format_ns(ns: u64) -> String {
    format!("{:.3} ms", ns as f64 / 1e6)
}

fn read_trace(path: &str) -> Result<TraceSummary, String> {
    let text =
        std::fs::read_to_string(path).map_err(|error| format!("cannot read {path}: {error}"))?;
    TraceSummary::from_lines(text.lines()).map_err(|error| format!("malformed {path}: {error}"))
}

/// Prints one job's attribution rows. Returns false when a row's segments
/// do not sum exactly to the job's end-to-end time.
fn print_attribution(path: &CriticalPath) -> bool {
    let mut intact = true;
    println!("  attribution (compute / comm / wait / retransmit / heal):");
    for row in &path.ranks {
        println!(
            "    rank {}: {} / {} / {} / {} / {}",
            row.rank,
            format_ns(row.compute_ns),
            format_ns(row.comm_ns),
            format_ns(row.barrier_wait_ns),
            format_ns(row.retransmit_ns),
            format_ns(row.heal_ns),
        );
        if row.total_ns() != path.end_to_end_ns {
            intact = false;
            println!(
                "    INTEGRITY: rank {} segments sum to {} ns, not the end-to-end {} ns",
                row.rank,
                row.total_ns(),
                path.end_to_end_ns
            );
        }
    }
    intact
}

/// The `--critical-path` report. Returns false when `--strict` must fail:
/// lost ring records or an attribution row whose segments do not sum
/// exactly to the job's end-to-end time.
fn report_critical_path(summary: &TraceSummary, jobs: &[u64], straggler_z: f64) -> bool {
    let mut intact = true;
    for &job in jobs {
        let path = analysis::critical_path(&summary.records, job);
        println!(
            "job {job}: end-to-end {} on critical rank {}",
            format_ns(path.end_to_end_ns),
            path.critical_rank
        );
        intact &= print_attribution(&path);
        let report = analysis::straggler_report(&path, straggler_z);
        if report.stragglers.is_empty() {
            println!(
                "  stragglers (z > {straggler_z}): none (mean wait share {:.4})",
                report.mean_wait_share
            );
        } else {
            for straggler in &report.stragglers {
                println!(
                    "  straggler rank {}: wait share {:.4} (z = {:.2} > {straggler_z})",
                    straggler.rank, straggler.wait_share, straggler.z_score
                );
            }
        }
        let scan = analysis::anomaly_scan(&summary.records, job);
        for (rank, count) in &scan.retransmit_bursts {
            println!("  anomaly: rank {rank} retransmit burst ({count} retransmits)");
        }
        for ((_, rank), stream) in summary
            .streams
            .range((job, 0)..=(job, u64::MAX))
            .filter(|(_, s)| s.lost > 0)
        {
            intact = false;
            println!(
                "  INTEGRITY: rank {rank} lost {} record(s) to ring overflow",
                stream.lost
            );
        }
    }
    intact
}

/// The `--diff` report. Returns the process exit code: 0 identical, 2
/// diverged.
fn report_diff(a: &TraceSummary, b: &TraceSummary, args: &Args) -> ExitCode {
    // Without --job, diff every job of A against the same id in B.
    let jobs_a = match args.job {
        Some(job) => vec![job],
        None => a.jobs(),
    };
    let mut diverged = false;
    for &job in &jobs_a {
        let job_b = args.job_b.unwrap_or(job);
        let diff = analysis::diff_jobs(&a.records, job, &b.records, job_b);
        if diff.identical {
            println!(
                "job {job} vs {job_b}: identical ({} iteration span(s))",
                diff.iterations_a
            );
        } else {
            diverged = true;
            println!(
                "job {job} vs {job_b}: DIVERGED at {}; common prefix {}, trailing {} \
                 iteration span(s) identical; message spans only in A: {}, only in B: {}",
                diff.first_divergence
                    .as_deref()
                    .unwrap_or("message spans only"),
                diff.common_prefix,
                diff.common_suffix,
                diff.messages_only_in_a,
                diff.messages_only_in_b,
            );
        }
    }
    if diverged {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("trace_dump: {message}");
            eprintln!(
                "usage: trace_dump <trace.jsonl> [--validate] [--critical-path] [--strict] \
                 [--diff OTHER] [--job J] [--job-b K] [--straggler-z Z]"
            );
            return ExitCode::FAILURE;
        }
    };
    let text = match std::fs::read_to_string(&args.path) {
        Ok(text) => text,
        Err(error) => {
            eprintln!("trace_dump: cannot read {}: {error}", args.path);
            return ExitCode::FAILURE;
        }
    };
    println!("trace_dump: simd tier: {}", SimdLevel::detect().label());

    let summary = match TraceSummary::from_lines(text.lines()) {
        Ok(summary) => summary,
        Err(error) if args.validate => {
            eprintln!("trace_dump: INVALID — {error}");
            return ExitCode::FAILURE;
        }
        Err(error) => {
            eprintln!("trace_dump: malformed trace: {error}");
            return ExitCode::FAILURE;
        }
    };

    if args.validate {
        println!(
            "trace_dump: {} valid record(s) in {}",
            summary.total_events(),
            args.path
        );
        let mut lost = 0u64;
        for ((job, rank), stream) in summary.streams.iter().filter(|(_, s)| s.lost > 0) {
            lost = lost.saturating_add(stream.lost);
            eprintln!(
                "trace_dump: WARNING — job {job} rank {rank} lost {} \
                 record(s) to flight-recorder ring overflow",
                stream.lost
            );
        }
        if lost > 0 && args.strict {
            eprintln!("trace_dump: {lost} lost record(s) and --strict: failing");
            return ExitCode::FAILURE;
        }
        return ExitCode::SUCCESS;
    }
    if summary.truncated_lines > 0 {
        println!(
            "trace_dump: note — final line truncated (run killed mid-flush); \
             the consistent prefix follows"
        );
    }

    if let Some(other) = &args.diff {
        let other = match read_trace(other) {
            Ok(other) => other,
            Err(message) => {
                eprintln!("trace_dump: {message}");
                return ExitCode::FAILURE;
            }
        };
        return report_diff(&summary, &other, &args);
    }

    let jobs = match args.job {
        Some(job) => vec![job],
        None => summary.jobs(),
    };

    if args.critical_path {
        let intact = report_critical_path(&summary, &jobs, args.straggler_z);
        return if intact || !args.strict {
            ExitCode::SUCCESS
        } else {
            eprintln!("trace_dump: integrity violation(s) and --strict: failing");
            ExitCode::FAILURE
        };
    }

    println!(
        "trace_dump: {} event(s), {} stream(s), {} job(s)",
        summary.total_events(),
        summary.streams.len(),
        jobs.len()
    );
    for job in jobs {
        println!("job {job}:");
        for ((_, rank), stream) in summary.streams.iter().filter(|((j, _), _)| *j == job) {
            println!(
                "  rank {rank}: {} event(s), {} iteration(s), last cost {:.6e}, sim clock {}",
                stream.events,
                stream.iterations,
                stream.last_cost,
                format_ns(stream.last_sim_ns),
            );
            let mut kinds: Vec<_> = stream.kinds.iter().collect();
            kinds.sort_by(|a, b| {
                (std::cmp::Reverse(*a.1), a.0).cmp(&(std::cmp::Reverse(*b.1), b.0))
            });
            let top: Vec<String> = kinds
                .iter()
                .take(4)
                .map(|(kind, count)| format!("{kind}={count}"))
                .collect();
            println!("    top events: {}", top.join("  "));
        }
        print_attribution(&analysis::critical_path(&summary.records, job));
    }
    ExitCode::SUCCESS
}
