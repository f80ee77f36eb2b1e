//! Load generator for the multi-tenant job engine: burst-submits a mixed
//! workload, drives it to completion, and reports throughput and latency
//! percentiles.
//!
//! ```text
//! cargo run --release -p ptycho-bench --bin load_gen -- --jobs 50 --smoke
//! ```
//!
//! Flags (all optional):
//!
//! * `--jobs N`  — burst size (default 50)
//! * `--fleet M` — fleet node count (default 16)
//! * `--seed S`  — workload seed: varies priorities, grids and the fault
//!   sites deterministically (default 0)
//! * `--smoke`   — verify the run instead of just timing it: every job must
//!   complete, the rank-death jobs must heal by shared-pool substitution,
//!   the admission log must equal the priority-sorted submission order and
//!   the fleet must stay conserved. Any violation exits non-zero, which is
//!   what CI runs.
//! * `--telemetry <path.jsonl>` — attach a flight recorder to every job and
//!   write the combined event log (all jobs, one file) to `path`. Inspect
//!   with `trace_dump`.
//! * `--metrics` — print the engine's end-of-run metrics snapshot: the
//!   Prometheus-style registry plus a retransmit/heal/queue-depth summary.
//! * `--checkpoint-dir <dir>` — durably checkpoint every job into
//!   `<dir>/job-<i>`, and print the FNV-64 volume hash of the designated
//!   *probe* job (submission index `jobs / 2`, forced to 2 iterations) for
//!   kill/resume comparison across processes.
//! * `--kill-at-barrier N` — arm a whole-process kill on the probe job at
//!   the `N`-th durable checkpoint commit (requires `--checkpoint-dir`).
//!   The burst still drains; the run then exits non-zero, exactly like the
//!   `kill -9` it simulates. Resume the killed job with `--resume`.
//! * `--resume <dir>` — standalone mode: resume one killed job from its
//!   checkpoint directory (`<dir>` is the per-job `.../job-<i>` path),
//!   wait for it, and print its FNV-64 volume hash. CI asserts this hash
//!   equals the clean run's probe hash — the cross-process bit-identity
//!   contract. Combine with `--telemetry` to record the resumed run's
//!   trace (stamped with the job id parsed from the directory name) for
//!   `trace_dump --diff` against the uninterrupted twin.
//! * `--health` — poll [`JobEngine::health_snapshot`] while the burst
//!   drains and print live per-job phase shares, straggler flags, and
//!   queue pressure.
//! * `--telemetry-capacity N` — size every job's per-rank flight-recorder
//!   rings to `N` records (`TelemetryConfig::ring_capacity`). Undersized
//!   rings lose records, which `trace_dump --validate` then reports as
//!   sequence gaps.
//!
//! The summary names the FFT dispatch tier the host resolved to
//! (`simd tier: avx2`) — on stdout only: every tier computes the same bits,
//! so traces, manifests and volume hashes are host-independent and carry
//! no tier.
//!
//! The workload mirrors the scheduler-soak suite: tiny-dataset Gradient
//! Decomposition jobs over three grid shapes and five priority levels, with
//! every 25th job losing a rank to a seeded kill so the run exercises the
//! shared spare pool under load.

use ptycho_cluster::{CommError, CrashPhase, FaultPolicy};
use ptycho_core::durability::{fnv1a64, ByteWriter, CheckpointPayload};
use ptycho_core::{JobEngine, JobError, JobSpec, JobState, ReconstructionResult, SolverConfig};
use ptycho_fft::SimdLevel;
use ptycho_sim::dataset::{Dataset, SyntheticConfig};
use ptycho_telemetry::{Telemetry, TelemetryConfig};
use std::fs::File;
use std::io::Write;
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One output file shared by every job's durable telemetry sink. Each
/// flush hands the sink a whole batch of complete lines via one
/// `write_all`, so lines from concurrent jobs interleave but never split.
#[derive(Clone)]
struct SharedWriter(Arc<Mutex<File>>);

impl Write for SharedWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let mut file = self.0.lock().expect("telemetry file poisoned");
        file.write_all(buf)?;
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.0.lock().expect("telemetry file poisoned").flush()
    }
}

struct Args {
    jobs: usize,
    fleet: usize,
    seed: u64,
    smoke: bool,
    telemetry: Option<String>,
    metrics: bool,
    checkpoint_dir: Option<String>,
    kill_at_barrier: Option<u64>,
    resume: Option<String>,
    health: bool,
    telemetry_capacity: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        jobs: 50,
        fleet: 16,
        seed: 0,
        smoke: false,
        telemetry: None,
        metrics: false,
        checkpoint_dir: None,
        kill_at_barrier: None,
        resume: None,
        health: false,
        telemetry_capacity: TelemetryConfig::default().ring_capacity,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut take = |name: &str| {
            iter.next()
                .ok_or_else(|| format!("{name} needs a value"))?
                .parse::<u64>()
                .map_err(|e| format!("{name}: {e}"))
        };
        match flag.as_str() {
            "--jobs" => args.jobs = take("--jobs")? as usize,
            "--fleet" => args.fleet = take("--fleet")? as usize,
            "--seed" => args.seed = take("--seed")?,
            "--smoke" => args.smoke = true,
            "--metrics" => args.metrics = true,
            "--health" => args.health = true,
            "--kill-at-barrier" => args.kill_at_barrier = Some(take("--kill-at-barrier")?),
            "--telemetry-capacity" => {
                args.telemetry_capacity = take("--telemetry-capacity")? as usize;
            }
            "--telemetry" => {
                args.telemetry = Some(iter.next().ok_or("--telemetry needs a path")?);
            }
            "--checkpoint-dir" => {
                args.checkpoint_dir = Some(iter.next().ok_or("--checkpoint-dir needs a path")?);
            }
            "--resume" => {
                args.resume = Some(iter.next().ok_or("--resume needs a path")?);
            }
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    if args.jobs == 0 {
        return Err("--jobs must be at least 1".into());
    }
    if args.fleet < 4 {
        return Err("--fleet must be at least 4 (the largest grid needs 4 nodes)".into());
    }
    if args.kill_at_barrier.is_some() && args.checkpoint_dir.is_none() {
        return Err("--kill-at-barrier requires --checkpoint-dir".into());
    }
    Ok(args)
}

/// The FNV-64 hash of a reconstruction's exact volume bytes — the token two
/// processes compare to prove bit-identity across a kill/resume cycle.
fn volume_hash(result: &ReconstructionResult) -> u64 {
    let mut w = ByteWriter::new();
    result.volume.encode(&mut w);
    fnv1a64(&w.into_bytes())
}

/// The deterministic burst workload: job `i` of `n` under `seed`.
fn job_spec(dataset: &Dataset, i: usize, seed: u64) -> JobSpec {
    let mix = i as u64 + 3 * seed;
    let kill = i % 25 == 7;
    // Kill jobs run on the 2-slot grid: even a minimal 4-node fleet then
    // always has a spare (or a neighbour that will release one), so the
    // healed burst completes on any accepted --fleet size.
    let (grid, iterations) = if kill {
        ((2, 1), 2)
    } else {
        ([(2, 2), (2, 1), (1, 2)][(mix % 3) as usize], 1)
    };
    let config = SolverConfig {
        iterations,
        halo_px: 20,
        ..SolverConfig::default()
    };
    let priority = ((mix * 2) % 5) as i32 - 2;
    let mut spec = JobSpec::new(dataset.clone(), config, grid).with_priority(priority);
    if kill {
        // A seeded rank death: job-local node 1 dies early in iteration 0
        // and must be healed from the shared fleet pool.
        spec = spec.with_fault_policy(
            FaultPolicy::reliable(seed.wrapping_mul(1000) + i as u64).kill_rank(1, 1),
        );
    }
    spec
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted_ms.len() as f64).ceil() as usize;
    sorted_ms[rank.clamp(1, sorted_ms.len()) - 1]
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("load_gen: {message}");
            eprintln!(
                "usage: load_gen [--jobs N] [--fleet M] [--seed S] [--smoke] \
                 [--telemetry <path.jsonl>] [--telemetry-capacity N] [--metrics] \
                 [--health] [--checkpoint-dir <dir>] [--kill-at-barrier N] \
                 [--resume <dir>/job-<i>]"
            );
            return ExitCode::FAILURE;
        }
    };

    // Standalone resume mode: bring one killed job back from its checkpoint
    // directory and report its volume hash.
    if let Some(dir) = &args.resume {
        let engine = JobEngine::new(args.fleet);
        // Telemetry is not part of the on-disk manifest; re-attach it here,
        // stamping records with the job id parsed from the `.../job-<i>`
        // directory name so `trace_dump --diff` can match the resumed trace
        // against the clean run's same job.
        let telemetry = match &args.telemetry {
            None => None,
            Some(path) => {
                let job_id: u64 = dir
                    .rsplit(|c: char| !c.is_ascii_digit())
                    .next()
                    .and_then(|digits| digits.parse().ok())
                    .unwrap_or(0);
                match File::create(path) {
                    Ok(file) => Some(Arc::new(Telemetry::with_writer(
                        TelemetryConfig {
                            ring_capacity: args.telemetry_capacity,
                            job_id,
                        },
                        Box::new(SharedWriter(Arc::new(Mutex::new(file)))),
                    ))),
                    Err(error) => {
                        eprintln!("load_gen: cannot create {path}: {error}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        };
        let handle = match engine.resume_with_telemetry(dir, telemetry) {
            Ok(handle) => handle,
            Err(error) => {
                eprintln!("load_gen: resume from {dir} refused: {error}");
                return ExitCode::FAILURE;
            }
        };
        let report = handle.wait();
        return match (report.state, report.result) {
            (JobState::Completed, Some(result)) => {
                println!("load_gen: resume OK");
                println!("  simd tier:    {}", SimdLevel::detect().label());
                println!("  volume fnv=0x{:016x}", volume_hash(&result));
                ExitCode::SUCCESS
            }
            (state, _) => {
                eprintln!(
                    "load_gen: resumed job ended {state:?}: {}",
                    report
                        .error
                        .map_or_else(|| "no error".into(), |e| e.to_string())
                );
                ExitCode::FAILURE
            }
        };
    }

    let writer = match &args.telemetry {
        Some(path) => match File::create(path) {
            Ok(file) => Some(SharedWriter(Arc::new(Mutex::new(file)))),
            Err(error) => {
                eprintln!("load_gen: cannot create {path}: {error}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };

    let dataset = Dataset::synthesize(SyntheticConfig::tiny());
    let engine = JobEngine::paused(args.fleet);

    // The probe job: the one whose volume hash the kill/resume smoke
    // compares across processes. Forced to 2 iterations and a fixed grid so
    // it crosses at least two consistency barriers and is cheap to resume.
    let probe = args.checkpoint_dir.as_ref().map(|_| args.jobs / 2);

    let mut handles = Vec::with_capacity(args.jobs);
    let mut submitted = Vec::with_capacity(args.jobs);
    let mut expected_kills = 0usize;
    for i in 0..args.jobs {
        let mut spec = job_spec(&dataset, i, args.seed);
        if probe == Some(i) {
            let config = SolverConfig {
                iterations: 2,
                halo_px: 20,
                ..SolverConfig::default()
            };
            let priority = spec.priority;
            spec = JobSpec::new(dataset.clone(), config, (2, 2)).with_priority(priority);
            if let Some(barrier) = args.kill_at_barrier {
                spec = spec.with_fault_policy(
                    FaultPolicy::reliable(args.seed)
                        .kill_process_at_barrier(barrier, CrashPhase::AfterRename),
                );
            }
        }
        if let Some(dir) = &args.checkpoint_dir {
            spec = spec.with_checkpoint_dir(format!("{dir}/job-{i}"));
        }
        if let Some(writer) = &writer {
            // One recorder per job, stamped with the submission index, all
            // draining into the shared JSONL file.
            let config = TelemetryConfig {
                ring_capacity: args.telemetry_capacity,
                job_id: i as u64,
            };
            spec = spec.with_telemetry(Arc::new(Telemetry::with_writer(
                config,
                Box::new(writer.clone()),
            )));
        }
        if spec.fault_policy.as_ref().is_some_and(|p| p.kill.is_some()) {
            expected_kills += 1;
        }
        let priority = spec.priority;
        match engine.submit(spec) {
            Ok(handle) => {
                submitted.push((handle.id(), priority));
                handles.push(handle);
            }
            Err(error) => {
                eprintln!("load_gen: job {i} rejected: {error}");
                return ExitCode::FAILURE;
            }
        }
    }

    let start = Instant::now();
    engine.start_admitting();
    if args.health {
        // Poll the live health snapshot while the burst drains. The
        // snapshot reads the progress events the service already buffers,
        // so polling never touches a rank's hot path.
        let mut polls = 0usize;
        loop {
            let health = engine.health_snapshot(2.0);
            if health.active == 0 && health.queue_depth == 0 {
                break;
            }
            polls += 1;
            let mut line = format!(
                "  health: {} running, {} queued, {} free node(s), {} waiting for spares",
                health.active, health.queue_depth, health.free_nodes, health.waiting_for_spare
            );
            for job in health.jobs.iter().take(4) {
                line.push_str(&format!(
                    "  | job {} iter {} c/w/m {:.2}/{:.2}/{:.2}{}",
                    job.job,
                    job.latest_iteration,
                    job.compute_share,
                    job.wait_share,
                    job.comm_share,
                    if job.straggler_ranks.is_empty() {
                        String::new()
                    } else {
                        format!(" stragglers {:?}", job.straggler_ranks)
                    }
                ));
            }
            println!("{line}");
            std::thread::sleep(std::time::Duration::from_millis(25));
        }
        println!("  health: idle after {polls} poll(s)");
    }
    engine.wait_idle();
    let wall = start.elapsed().as_secs_f64();

    let reports: Vec<_> = handles.iter().map(|handle| handle.wait()).collect();
    let completed = reports
        .iter()
        .filter(|r| r.state == JobState::Completed)
        .count();
    let substitutions: usize = reports
        .iter()
        .filter_map(|r| r.result.as_ref())
        .map(|result| result.recovery.substitutions)
        .sum();

    // Per-job latency: queue wait + run time, submission to completion.
    let mut latencies_ms: Vec<f64> = reports
        .iter()
        .map(|r| (r.queue_seconds + r.run_seconds) * 1e3)
        .collect();
    latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));

    println!(
        "load_gen: {} job(s) on a {}-node fleet (seed {})",
        args.jobs, args.fleet, args.seed
    );
    println!("  simd tier:    {}", SimdLevel::detect().label());
    println!(
        "  completed:    {completed}/{} ({} healed by substitution)",
        args.jobs, substitutions
    );
    println!("  makespan:     {:.3} s", wall);
    println!("  throughput:   {:.1} jobs/s", completed as f64 / wall);
    println!(
        "  latency ms:   p50 {:.1}  p90 {:.1}  p99 {:.1}  max {:.1}",
        percentile(&latencies_ms, 50.0),
        percentile(&latencies_ms, 90.0),
        percentile(&latencies_ms, 99.0),
        latencies_ms.last().copied().unwrap_or(0.0),
    );

    if let Some(path) = &args.telemetry {
        println!("  telemetry:    {path}");
    }

    if let Some(i) = probe {
        let report = &reports[i];
        if let Some(result) = &report.result {
            println!("  probe job {i}: volume fnv=0x{:016x}", volume_hash(result));
        }
        if let Some(barrier) = args.kill_at_barrier {
            // Kill mode: the probe must have died at its armed barrier with
            // the typed process-kill error; everything else must drain. The
            // run then exits non-zero, like the `kill -9` it simulates.
            let killed = matches!(
                &report.error,
                Some(JobError::Failed(failure))
                    if matches!(
                        failure.error,
                        CommError::ProcessKilled { seq, .. } if seq == barrier
                    )
            );
            if !killed {
                eprintln!(
                    "load_gen: FAILED — probe job {i} was armed to die at barrier \
                     {barrier} but ended {:?}: {}",
                    report.state,
                    report
                        .error
                        .as_ref()
                        .map_or_else(|| "no error".into(), |e| e.to_string())
                );
                return ExitCode::FAILURE;
            }
            if completed != args.jobs - 1 {
                eprintln!(
                    "load_gen: FAILED — the burst did not drain around the killed \
                     probe ({completed}/{} completed)",
                    args.jobs
                );
                return ExitCode::FAILURE;
            }
            let dir = args.checkpoint_dir.as_deref().unwrap_or(".");
            println!("load_gen: probe job {i} killed at barrier {barrier} as armed");
            println!("  resume with: load_gen --resume {dir}/job-{i}");
            return ExitCode::FAILURE;
        }
    }

    if args.metrics {
        let registry = engine.metrics_snapshot();
        let retransmits = registry.counter("comm_retransmits_total").unwrap_or(0);
        let heals = registry.counter("engine_substitutions_total").unwrap_or(0);
        let (depth_p50, depth_p99) = registry
            .histogram("queue_depth")
            .map_or((0, 0), |h| (h.quantile(0.5), h.quantile(0.99)));
        println!("  metrics:      {retransmits} retransmit(s), {heals} heal(s), queue depth p50 {depth_p50} p99 {depth_p99}");
        println!("--- metrics snapshot ---");
        print!("{}", registry.prometheus_text());
        println!("------------------------");
    }

    if !args.smoke {
        return ExitCode::SUCCESS;
    }

    // Smoke verification: the run must be correct, not just finished.
    let mut failures = Vec::new();
    if completed != args.jobs {
        for report in reports.iter().filter(|r| r.state != JobState::Completed) {
            failures.push(format!(
                "job {} ended {:?}: {}",
                report.id,
                report.state,
                report
                    .error
                    .as_ref()
                    .map_or_else(|| "no error".into(), |e| e.to_string())
            ));
        }
    }
    if substitutions != expected_kills {
        failures.push(format!(
            "expected {expected_kills} shared-pool substitution(s), saw {substitutions}"
        ));
    }
    let mut expected_order = submitted.clone();
    expected_order.sort_by_key(|&(id, priority)| (std::cmp::Reverse(priority), id));
    let expected_order: Vec<_> = expected_order.into_iter().map(|(id, _)| id).collect();
    if engine.admission_log() != expected_order {
        failures.push("admission log deviates from priority-sorted submission order".into());
    }
    if !engine.fleet_is_conserved() {
        failures.push("fleet conservation violated".into());
    }
    if engine.dead_nodes() != expected_kills {
        failures.push(format!(
            "expected {expected_kills} retired node(s), saw {}",
            engine.dead_nodes()
        ));
    }

    if failures.is_empty() {
        println!("load_gen: smoke OK");
        ExitCode::SUCCESS
    } else {
        for failure in &failures {
            eprintln!("load_gen: FAILED — {failure}");
        }
        ExitCode::FAILURE
    }
}
