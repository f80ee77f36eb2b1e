//! The workloads and their end-to-end measurement.
//!
//! Every workload is a closed loop with one client: the next job is handed
//! to the system only after the previous one returned. All inputs come from
//! `--seed` (dataset synthesis, the burst's job mix, the fault seeds). Every
//! solve runs on the lockstep backend, so one rank computes at a time, in a
//! process pinned to one CPU, and every time is calibrated against a
//! reference kernel timed right beside it (see `calibration`), so the
//! metrics measure the program, not the scheduler or the speed of a shared
//! host.

use crate::api::{self, Dataset, Engine, JobDesc, JobOutcome, Method, Shape, Solver, Transport};
use crate::calibration::Calibrator;
use crate::scratch::{self, Scratch};
use crate::stats::{median, percentile, Ops};
use std::sync::Mutex;
use std::time::Instant;

/// Global cost ≤ `TOLERANCE` × first-iteration cost counts as converged.
pub const TOLERANCE: f64 = 0.02;
/// Fleet size of every job-engine workload.
const FLEET_NODES: usize = 4;
/// Jobs per burst on `service-burst`.
const BURST_JOBS: usize = 50;
/// Sequential jobs `service-burst` submits to one idle engine before it
/// takes a fresh one: an engine keeps every finished job's volume until it
/// is dropped.
const SEQUENTIAL_JOBS_PER_ENGINE: usize = 600;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `run_job` directly on a lockstep backend, fail-fast; a job is one
    /// solve of `solver.iterations` iterations.
    DirectSolve,
    /// A job is one `resume` of a clone of a durable checkpoint store whose
    /// writer was killed at its last-but-one barrier.
    DurableResume,
    /// Paused-engine bursts of mixed short jobs, then sequential jobs on an
    /// idle engine.
    ServiceBurst,
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    pub shape: Shape,
    pub solver: Solver,
    /// Times the set-up is repeated for its median.
    pub setup_repeats: usize,
    /// Discarded jobs before timing starts.
    pub warmup_jobs: usize,
    /// The job must reach [`TOLERANCE`] within its iterations.
    pub must_converge: bool,
    /// Iterations of the solves the traced run makes on this shape.
    pub trace_iterations: usize,
}

pub fn all() -> Vec<Workload> {
    let tiny = Shape::tiny();
    vec![
        Workload {
            name: "gd-compute-1r",
            why: "plain single-rank GD baseline, 128-px window x 8 slices: fft+sim kernels are ~90% of an iteration, cluster/passes/durability/service none; kernel work must show here",
            kind: Kind::DirectSolve,
            shape: Shape {
                object_px: 320,
                slices: 8,
                scan_grid: (6, 6),
                window_px: 128,
                defocus_pm: 90_000.0,
            },
            solver: Solver {
                grid: (1, 1),
                iterations: 20,
                halo_px: 64,
                step_relaxation: 0.05,
                pass_every_probe: false,
                hve_extra_probe_rows: 1,
            },
            setup_repeats: 5,
            warmup_jobs: 1,
            must_converge: true,
            trace_iterations: 14,
        },
        Workload {
            name: "gd-pass-3x3",
            why: "3x3 GD, passes after every probe (Fig. 9 T=1), 32-px window: directional passes, tile update and send/recv are ~80% of an iteration, kernels ~20%; a kernel win should barely move it",
            kind: Kind::DirectSolve,
            shape: Shape {
                object_px: 512,
                slices: 4,
                scan_grid: (9, 9),
                window_px: 32,
                defocus_pm: 12_000.0,
            },
            solver: Solver {
                grid: (3, 3),
                iterations: 60,
                halo_px: 20,
                step_relaxation: 0.2,
                pass_every_probe: true,
                hve_extra_probe_rows: 1,
            },
            setup_repeats: 11,
            warmup_jobs: 1,
            must_converge: false,
            trace_iterations: 20,
        },
        Workload {
            name: "gd-durable-2x2",
            why: "tiny 2x2 GD job resumed from a checkpoint store killed at its last-but-one barrier: recover + spec decode + re-synthesis + restore + one persisted iteration; persist time bought at resume's cost shows",
            kind: Kind::DurableResume,
            shape: tiny,
            solver: Solver {
                grid: (2, 2),
                iterations: 100,
                halo_px: 24,
                step_relaxation: 0.1,
                pass_every_probe: false,
                hve_extra_probe_rows: 1,
            },
            setup_repeats: 401,
            warmup_jobs: 3,
            must_converge: false,
            trace_iterations: 40,
        },
        Workload {
            name: "service-burst",
            why: "50-job paused bursts of 2-iteration GD/HVE jobs (3 grids, 5 priorities, one healed rank death), then sequential jobs: admission, leasing, spec cloning and reporting dominate",
            kind: Kind::ServiceBurst,
            shape: tiny,
            solver: Solver {
                grid: (2, 2),
                iterations: 2,
                halo_px: 20,
                step_relaxation: 0.5,
                pass_every_probe: false,
                hve_extra_probe_rows: 1,
            },
            setup_repeats: 401,
            warmup_jobs: 50,
            must_converge: false,
            trace_iterations: 40,
        },
    ]
}

/// One workload's end-to-end result.
#[derive(Debug)]
pub struct EndToEnd {
    pub setup_s: f64,
    pub iter_s_p50: f64,
    pub probes_per_s: f64,
    pub peak_rank_bytes: f64,
    pub job_latency_s_p50: f64,
    /// Sample counts behind the medians: set-ups, iteration times, jobs,
    /// throughput samples (jobs, or bursts on `service-burst`).
    pub n_setup: usize,
    pub n_iter: usize,
    pub n_jobs: usize,
    pub n_rates: usize,
    /// `(name, value, unit, n)` printed under the metrics: reported, not
    /// gated (wall-clock medians, the tail, the reference unit time).
    pub notes: Vec<(&'static str, f64, &'static str, usize)>,
    pub ops: Ops,
}

impl EndToEnd {
    /// Values in the order of `metrics::END_TO_END`.
    pub fn values(&self) -> [f64; 5] {
        [
            self.setup_s,
            self.iter_s_p50,
            self.probes_per_s,
            self.peak_rank_bytes,
            self.job_latency_s_p50,
        ]
    }

    /// Sample count behind each value, same order.
    pub fn counts(&self) -> [usize; 5] {
        [
            self.n_setup,
            self.n_iter,
            self.n_rates,
            self.n_jobs,
            self.n_jobs,
        ]
    }
}

/// A wall time in seconds and the calibration factor that held while it was
/// measured (see `calibration`).
type Timed = (f64, f64);

/// Samples the timed phase collects, folded into an [`EndToEnd`] at the end.
/// Every time is kept twice: calibrated (what the metrics are made of) and as
/// the wall clock read it (printed beside them, not gated).
#[derive(Default)]
struct Samples {
    setup_s: Vec<f64>,
    iter_s: Vec<f64>,
    latency_s: Vec<f64>,
    wall_setup_s: Vec<f64>,
    wall_iter_s: Vec<f64>,
    wall_latency_s: Vec<f64>,
    /// Probe-gradient evaluations per calibrated second (probes × iterations
    /// the dataset asked for, over the time they took), one per job or burst.
    probes_per_s: Vec<f64>,
    peak_rank_bytes: usize,
    /// Numbers reported under the metrics but not gated.
    notes: Vec<(&'static str, f64, &'static str, usize)>,
    ops: Ops,
}

impl Samples {
    fn iteration(&mut self, (wall_s, factor): Timed) {
        self.iter_s.push(wall_s * factor);
        self.wall_iter_s.push(wall_s);
    }

    fn latency(&mut self, (wall_s, factor): Timed) {
        self.latency_s.push(wall_s * factor);
        self.wall_latency_s.push(wall_s);
    }

    /// Probe-gradient evaluations done in a stretch of time.
    fn throughput(&mut self, probe_iterations: f64, (wall_s, factor): Timed) {
        self.probes_per_s.push(probe_iterations / (wall_s * factor));
    }

    /// One finished job of the throughput phase: the probe-gradient
    /// evaluations it did and its client-side latency.
    fn job(&mut self, solved: &api::Solved, probe_iterations: usize, latency: Timed) {
        self.throughput(probe_iterations as f64, latency);
        self.peak_rank_bytes = self.peak_rank_bytes.max(solved.peak_rank_bytes);
        self.latency(latency);
    }

    fn finish(self, name: &str, calibrator: &Calibrator) -> EndToEnd {
        let mut ops = self.ops;
        let enough = !self.iter_s.is_empty()
            && !self.latency_s.is_empty()
            && !self.probes_per_s.is_empty()
            && self.peak_rank_bytes > 0;
        ops.check(enough, || {
            format!("{name}: no job completed, nothing to report")
        });
        let or_nan = |values: &[f64], f: fn(&[f64]) -> f64| {
            if values.is_empty() {
                f64::NAN
            } else {
                f(values)
            }
        };
        let mut notes = vec![
            (
                "setup_s.wall",
                or_nan(&self.wall_setup_s, median),
                "s",
                self.wall_setup_s.len(),
            ),
            (
                "iter_s_p50.wall",
                or_nan(&self.wall_iter_s, median),
                "s",
                self.wall_iter_s.len(),
            ),
            (
                "job_latency_s_p50.wall",
                or_nan(&self.wall_latency_s, median),
                "s",
                self.wall_latency_s.len(),
            ),
            (
                "job_latency_s_p90",
                or_nan(&self.latency_s, |v| percentile(v, 90.0)),
                "s",
                self.latency_s.len(),
            ),
            (
                "reference_unit_s",
                calibrator.median_unit_s(),
                "s",
                calibrator.slices(),
            ),
        ];
        notes.extend(self.notes);
        EndToEnd {
            setup_s: or_nan(&self.setup_s, median),
            iter_s_p50: or_nan(&self.iter_s, median),
            probes_per_s: or_nan(&self.probes_per_s, median),
            peak_rank_bytes: self.peak_rank_bytes as f64,
            job_latency_s_p50: or_nan(&self.latency_s, median),
            n_setup: self.setup_s.len(),
            n_iter: self.iter_s.len(),
            n_jobs: self.latency_s.len(),
            n_rates: self.probes_per_s.len(),
            notes,
            ops,
        }
    }
}

/// Times `work` on the wall clock and brackets it for the calibrator: the
/// factor comes from the reference slices right before and after.
fn timed<T>(calibrator: &mut Calibrator, work: impl FnOnce() -> T) -> (T, Timed) {
    calibrator.slice_if_due();
    let start_s = calibrator.now_s();
    let out = work();
    let end_s = calibrator.now_s();
    calibrator.slice_if_due();
    (out, (end_s - start_s, calibrator.factor(start_s, end_s)))
}

/// Repeats `prepare` and keeps the last product and every duration.
fn timed_setups<T>(
    repeats: usize,
    samples: &mut Samples,
    calibrator: &mut Calibrator,
    mut prepare: impl FnMut() -> T,
) -> T {
    let mut last = None;
    for _ in 0..repeats.max(1) {
        // Tearing the previous product down is not set-up time.
        drop(last.take());
        let (product, (wall_s, factor)) = timed(calibrator, &mut prepare);
        last = Some(product);
        samples.setup_s.push(wall_s * factor);
        samples.wall_setup_s.push(wall_s);
    }
    last.expect("at least one set-up ran")
}

/// Cost history finite and final < first.
pub fn check_costs(ops: &mut Ops, what: &str, costs: &[f64]) {
    let finite = !costs.is_empty() && costs.iter().all(|c| c.is_finite());
    ops.check(finite, || {
        format!("{what}: cost history empty or not finite")
    });
    if finite && costs.len() > 1 {
        ops.check(costs[costs.len() - 1] < costs[0], || {
            format!(
                "{what}: final cost {} is not below the first {}",
                costs[costs.len() - 1],
                costs[0]
            )
        });
    }
}

/// Iterations until the global cost is within [`TOLERANCE`] of the first.
pub fn iterations_to_tolerance(costs: &[f64]) -> Option<usize> {
    let first = *costs.first()?;
    costs
        .iter()
        .position(|&c| c <= TOLERANCE * first)
        .map(|index| index + 1)
}

/// One direct solve with wall time and rank-0 progress stamps (seconds
/// since the call).
pub struct TimedSolve {
    pub solved: api::Solved,
    pub started: Instant,
    pub wall_s: f64,
    pub stamps_s: Vec<f64>,
    /// Seconds each progress callback held rank 0 after its stamp (the
    /// calibrator's reference slice); not the library's time.
    pub pauses_s: Vec<f64>,
}

impl TimedSolve {
    /// Gaps between consecutive progress callbacks: per-iteration times that
    /// exclude rank start-up and the final stitch.
    pub fn gaps_s(&self) -> Vec<f64> {
        (1..self.stamps_s.len())
            .map(|i| self.stamps_s[i] - self.stamps_s[i - 1] - self.pauses_s[i - 1])
            .collect()
    }

    /// The library's seconds: wall time without the callbacks' pauses.
    pub fn library_s(&self) -> f64 {
        self.wall_s - self.pauses_s.iter().sum::<f64>()
    }
}

/// `calibrator`, when given, takes a reference slice in every progress
/// callback: between two iterations, on the thread (and CPU) doing the work.
pub fn timed_solve(
    dataset: &Dataset,
    solver: &Solver,
    method: Method,
    transport: Transport,
    recorder: Option<&api::Recorder>,
    calibrator: Option<&Mutex<Calibrator>>,
) -> Result<TimedSolve, String> {
    let stamps = Mutex::new(Vec::with_capacity(solver.iterations));
    let started = Instant::now();
    let (solved, wall_s) = api::solve(dataset, solver, method, transport, recorder, &|| {
        let stamp = started.elapsed().as_secs_f64();
        if let Some(calibrator) = calibrator {
            calibrator
                .lock()
                .expect("only this callback locks the calibrator during a solve")
                .slice_if_due();
        }
        let pause = started.elapsed().as_secs_f64() - stamp;
        stamps
            .lock()
            .expect("only this callback locks the stamps")
            .push((stamp, pause));
    })?;
    let (stamps_s, pauses_s) = stamps
        .into_inner()
        .expect("the solve has returned")
        .into_iter()
        .unzip();
    Ok(TimedSolve {
        solved,
        started,
        wall_s,
        stamps_s,
        pauses_s,
    })
}

/// A finished job's result, the seconds it ran, and the client-side seconds
/// from handing it over to holding its report.
type TimedJob = Result<(api::Solved, f64, f64), String>;

fn completed(outcome: JobOutcome, start: Instant) -> TimedJob {
    let latency = (outcome.finished - start).as_secs_f64();
    match outcome.solved {
        Some(solved) if outcome.completed => Ok((solved, outcome.run_s, latency)),
        _ => Err(outcome
            .error
            .unwrap_or_else(|| "ended without a result".to_string())),
    }
}

/// Submit → wait on an engine, timed by the client.
fn timed_job(engine: &Engine, dataset: &Dataset, desc: &JobDesc) -> TimedJob {
    let start = Instant::now();
    completed(engine.submit(dataset, desc)?.wait(), start)
}

pub fn run_end_to_end(w: &Workload, seed: u64, seconds: f64, scratch: &Scratch) -> EndToEnd {
    // Behind a mutex because a direct solve takes its reference slices from
    // rank 0's thread; nothing ever contends for it.
    let calibrator = Mutex::new(Calibrator::new());
    let whole_run = || calibrator.lock().expect("no solve is running");
    let samples = match w.kind {
        Kind::DirectSolve => direct_solve(w, seed, seconds, &calibrator),
        Kind::DurableResume => durable_resume(w, seed, seconds, scratch, &mut whole_run()),
        Kind::ServiceBurst => service_burst(w, seed, seconds, &mut whole_run()),
    };
    let calibrator = whole_run();
    samples.finish(w.name, &calibrator)
}

fn direct_solve(w: &Workload, seed: u64, seconds: f64, calibrator: &Mutex<Calibrator>) -> Samples {
    let mut s = Samples::default();
    let between_solves = || calibrator.lock().expect("no solve is running");
    let dataset = timed_setups(w.setup_repeats, &mut s, &mut between_solves(), || {
        let dataset = api::synthesize(w.shape, seed);
        api::pass_rounds_per_iteration(&dataset, &w.solver);
        dataset
    });
    // The progress callback runs on rank 0's thread and takes the reference
    // slices there, between two iterations.
    let run = |solver: &Solver| {
        timed_solve(
            &dataset,
            solver,
            Method::GradientDecomposition,
            Transport::Lockstep,
            None,
            Some(calibrator),
        )
    };
    for _ in 0..w.warmup_jobs {
        if let Err(error) = run(&w.solver.with_iterations(3)) {
            s.ops.fail(format!("{}: warm-up: {error}", w.name));
            return s;
        }
    }

    let mut first_hash = None;
    let phase = Instant::now();
    loop {
        let block = s.latency_s.len() + 1;
        let what = format!("{} job {block}", w.name);
        if let Some(job) = s.ops.attempt(&what, run(&w.solver)) {
            check_costs(&mut s.ops, &what, &job.solved.costs);
            if w.must_converge {
                s.ops
                    .check(iterations_to_tolerance(&job.solved.costs).is_some(), || {
                        format!(
                            "{what}: cost did not reach {TOLERANCE} x first within {} iterations",
                            w.solver.iterations
                        )
                    });
            }
            // Lockstep bit-identity: every job of the run solves the same
            // problem and must produce the same volume.
            let reference = *first_hash.get_or_insert(job.solved.volume_hash);
            s.ops.check(job.solved.volume_hash == reference, || {
                format!("{what}: volume hash differs from job 1")
            });

            let mut calibrator = between_solves();
            calibrator.slice_if_due();
            let started_s = calibrator.seconds_at(job.started);
            for i in 1..job.stamps_s.len() {
                // From the end of one callback to the start of the next.
                let from_s = started_s + job.stamps_s[i - 1] + job.pauses_s[i - 1];
                let to_s = started_s + job.stamps_s[i];
                s.iteration((to_s - from_s, calibrator.factor(from_s, to_s)));
            }
            let factor = calibrator.factor(started_s, started_s + job.wall_s);
            let work = w.shape.probes() * job.solved.costs.len();
            s.job(&job.solved, work, (job.library_s(), factor));
        }
        let elapsed = phase.elapsed().as_secs_f64();
        if elapsed + elapsed / block as f64 > seconds {
            break;
        }
    }
    s
}

/// Iterations a job resumed from a [`killed_store`] still has to run.
pub const ITERATIONS_AFTER_RESUME: usize = 1;

/// Leaves in `dir` the checkpoint store of one durable job killed (after the
/// rename) at its last-but-one barrier, and returns the seconds the job ran
/// until then.
pub fn killed_store(
    engine: &Engine,
    dataset: &Dataset,
    solver: &Solver,
    dir: &std::path::Path,
) -> Result<f64, String> {
    scratch::remove_dir(dir).map_err(|e| e.to_string())?;
    let mut desc = JobDesc::new(*solver);
    desc.checkpoint_dir = Some(dir.to_path_buf());
    // One epoch per iteration, sequence numbers from 0.
    let barrier = (solver.iterations - 1 - ITERATIONS_AFTER_RESUME) as u64;
    desc.kill_at_barrier = Some(barrier);
    let outcome = engine.submit(dataset, &desc)?.wait();
    if outcome.process_killed {
        Ok(outcome.run_s)
    } else {
        Err(format!(
            "the template job was armed to die at barrier {barrier} but ended {:?}",
            outcome.error
        ))
    }
}

/// Clone the killed template store, `resume`, wait. Returns the outcome and
/// the client-side resume → result latency (the clone is not timed).
pub fn timed_resume(
    engine: &Engine,
    template: &std::path::Path,
    dir: &std::path::Path,
) -> TimedJob {
    scratch::remove_dir(dir).map_err(|e| e.to_string())?;
    scratch::clone_store(template, dir).map_err(|e| e.to_string())?;
    let start = Instant::now();
    let resumed = completed(engine.resume(dir)?.wait(), start);
    scratch::remove_dir(dir).map_err(|e| e.to_string())?;
    resumed
}

fn durable_resume(
    w: &Workload,
    seed: u64,
    seconds: f64,
    scratch: &Scratch,
    calibrator: &mut Calibrator,
) -> Samples {
    let mut s = Samples::default();
    let (dataset, engine) = timed_setups(w.setup_repeats, &mut s, calibrator, || {
        (api::synthesize(w.shape, seed), Engine::new(FLEET_NODES))
    });
    // The write side. Its time is ten fsyncs per iteration on a shared
    // virtual disk, which no bound can hold on the box this was written on
    // (see the README), so it is printed here and gated nowhere.
    let template = scratch.store("resume-template");
    match killed_store(&engine, &dataset, &w.solver, &template) {
        Ok(run_s) => {
            let iterations = w.solver.iterations - ITERATIONS_AFTER_RESUME;
            s.notes
                .push(("durable_iter_s", run_s / iterations as f64, "s", iterations));
        }
        Err(error) => {
            s.ops.fail(format!("{}: template store: {error}", w.name));
            return s;
        }
    }
    // The uninterrupted twin every resumed volume must equal bit for bit.
    let reference = timed_job(&engine, &dataset, &JobDesc::new(w.solver));
    let Some((reference, _, _)) = s
        .ops
        .attempt(&format!("{} reference run", w.name), reference)
    else {
        return s;
    };
    check_costs(
        &mut s.ops,
        &format!("{} reference run", w.name),
        &reference.costs,
    );

    let dir = scratch.store("resume-live");
    for _ in 0..w.warmup_jobs {
        let _ = timed_resume(&engine, &template, &dir);
    }
    let phase = Instant::now();
    loop {
        let what = format!("{} resume {}", w.name, s.latency_s.len() + 1);
        let (resumed, (_, factor)) = timed(calibrator, || timed_resume(&engine, &template, &dir));
        if let Some((solved, run_s, latency)) = s.ops.attempt(&what, resumed) {
            s.ops
                .check(solved.volume_hash == reference.volume_hash, || {
                    format!("{what}: resumed volume differs from the uninterrupted run")
                });
            s.ops.check(solved.costs == reference.costs, || {
                format!("{what}: resumed cost history differs from the uninterrupted run")
            });
            let ran = ITERATIONS_AFTER_RESUME;
            s.iteration((run_s / ran as f64, factor));
            s.job(&solved, w.shape.probes() * ran, (latency, factor));
        }
        if phase.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    s
}

/// Job `i` of a burst under `seed`: grids 2x2/2x1/1x2 cycling, priorities
/// -2..=2, every third job Halo Voxel Exchange (rotating over the grids).
pub fn burst_job(base: &Solver, i: usize, seed: u64) -> JobDesc {
    const GRIDS: [(usize, usize); 3] = [(2, 2), (2, 1), (1, 2)];
    let mix = i as u64 + seed;
    let mut desc = JobDesc::new(base.with_grid(GRIDS[(mix % 3) as usize]));
    desc.priority = ((mix * 2) % 5) as i32 - 2;
    if (mix / 3 + mix).is_multiple_of(3) {
        desc.method = Method::HaloVoxelExchange;
    }
    desc
}

/// The burst's one armed rank death: submitted last at the lowest priority
/// so strict head-of-line admission runs it after everything else, when the
/// four-node fleet can lend its 2x1 grid a spare.
pub fn burst_kill_job(base: &Solver, i: usize, seed: u64) -> JobDesc {
    let mut desc = JobDesc::new(base.with_grid((2, 1)));
    desc.priority = -2;
    desc.kill_rank_seed = Some(seed.wrapping_mul(1000) + i as u64);
    desc
}

/// What one burst produced.
pub struct Burst {
    pub wall_s: f64,
    pub submit_s: Vec<f64>,
    pub outcomes: Vec<(JobDesc, JobOutcome)>,
}

/// Paused engine → `jobs` submissions → `start_admitting` → `wait_idle`.
/// The wall time runs from `start_admitting` to idle.
pub fn run_burst(
    ops: &mut Ops,
    name: &str,
    dataset: &Dataset,
    base: &Solver,
    jobs: usize,
    seed: u64,
) -> Burst {
    let engine = Engine::paused(FLEET_NODES);
    let mut handles = Vec::with_capacity(jobs);
    let mut submit_s = Vec::with_capacity(jobs);
    for i in 0..jobs {
        let desc = if i + 1 == jobs {
            burst_kill_job(base, i, seed)
        } else {
            burst_job(base, i, seed)
        };
        let start = Instant::now();
        let submitted = engine.submit(dataset, &desc);
        submit_s.push(start.elapsed().as_secs_f64());
        if let Some(handle) = ops.attempt(&format!("{name} burst submit {i}"), submitted) {
            handles.push((desc, handle));
        }
    }
    let start = Instant::now();
    engine.start_admitting();
    engine.wait_idle();
    let wall_s = start.elapsed().as_secs_f64();

    let outcomes: Vec<(JobDesc, JobOutcome)> = handles
        .into_iter()
        .map(|(desc, handle)| (desc, handle.wait()))
        .collect();
    let mut heals = 0;
    for (i, (_, outcome)) in outcomes.iter().enumerate() {
        ops.check(outcome.completed, || {
            format!("{name} burst job {i} did not complete: {:?}", outcome.error)
        });
        if let Some(solved) = &outcome.solved {
            check_costs(ops, &format!("{name} burst job {i}"), &solved.costs);
            heals += solved.substitutions;
        }
    }
    ops.check(heals == 1 && engine.dead_nodes() == 1, || {
        format!(
            "{name}: expected the one armed rank death healed from the shared pool, saw {heals} heal(s), {} dead node(s)",
            engine.dead_nodes()
        )
    });
    ops.check(engine.fleet_is_conserved(), || {
        format!("{name}: fleet conservation violated after the burst")
    });
    Burst {
        wall_s,
        submit_s,
        outcomes,
    }
}

fn service_burst(w: &Workload, seed: u64, seconds: f64, calibrator: &mut Calibrator) -> Samples {
    let mut s = Samples::default();
    let (dataset, mut idle_engine) = timed_setups(w.setup_repeats, &mut s, calibrator, || {
        (api::synthesize(w.shape, seed), Engine::new(FLEET_NODES))
    });
    let probes = w.shape.probes() as f64;
    let mut warm = Ops::default();
    run_burst(&mut warm, w.name, &dataset, &w.solver, w.warmup_jobs, seed);
    s.ops.check(warm.failed == 0, || {
        format!("{}: warm-up burst: {}", w.name, warm.failures.join("; "))
    });

    // Phase 1: bursts for the first half of the time, a reference slice
    // before and after each.
    let phase = Instant::now();
    loop {
        let (burst, (_, factor)) = timed(calibrator, || {
            run_burst(&mut s.ops, w.name, &dataset, &w.solver, BURST_JOBS, seed)
        });
        let mut iterations = 0;
        for (_, outcome) in &burst.outcomes {
            if let Some(solved) = &outcome.solved {
                iterations += solved.costs.len();
                s.peak_rank_bytes = s.peak_rank_bytes.max(solved.peak_rank_bytes);
            }
        }
        s.throughput(probes * iterations as f64, (burst.wall_s, factor));
        if phase.elapsed().as_secs_f64() >= 0.5 * seconds {
            break;
        }
    }

    // Phase 2: one job at a time on an idle engine, for the other half.
    let desc = JobDesc::new(w.solver);
    let mut sequential = 0;
    let phase = Instant::now();
    loop {
        let what = format!("{} sequential job {}", w.name, s.latency_s.len() + 1);
        let (job, (_, factor)) = timed(calibrator, || timed_job(&idle_engine, &dataset, &desc));
        if let Some((solved, run_s, latency)) = s.ops.attempt(&what, job) {
            s.iteration((run_s / solved.costs.len() as f64, factor));
            s.peak_rank_bytes = s.peak_rank_bytes.max(solved.peak_rank_bytes);
            s.latency((latency, factor));
        }
        if phase.elapsed().as_secs_f64() >= 0.5 * seconds {
            break;
        }
        sequential += 1;
        if sequential % SEQUENTIAL_JOBS_PER_ENGINE == 0 {
            idle_engine = Engine::new(FLEET_NODES);
        }
    }
    s
}
