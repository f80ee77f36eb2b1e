//! Scheduler-soak integration tests for the multi-tenant job engine.
//!
//! The contract under test: the service is **invisible in the numbers**.
//! Every job that runs through the engine — queued behind other tenants,
//! leased an arbitrary subset of the fleet, healed from the shared spare
//! pool mid-run — produces a reconstruction **bit-identical** to the same
//! spec run alone on a dedicated backend. On top of that the scheduler
//! itself is deterministic: admission order is always the priority-sorted
//! submission order, the fleet lease table is conserved through every
//! lease/release/retire, and cancellation never leaks nodes.

use ptycho_cluster::{CommBackend, CrashPhase, FaultInjectionBackend, FaultPolicy};
use ptycho_core::gradient_decomp::passes::tags;
use ptycho_core::{
    GradientDecompositionSolver, HaloVoxelExchangeSolver, JobContext, JobEngine, JobError,
    JobHandle, JobReport, JobSpec, JobState, ReconstructionResult, RecoveryPolicy, SolverConfig,
    SolverMethod,
};
use ptycho_sim::dataset::{Dataset, SyntheticConfig};
use ptycho_telemetry::Telemetry;
use std::sync::{mpsc, Arc};
use std::time::Duration;

mod common;
use common::{assert_bit_identical, gd_config, hve_config, lockstep, small_problem};

/// The soak workload dataset: small enough that one 2-iteration solve takes
/// milliseconds, so a 100-job burst finishes in seconds.
fn tiny() -> Dataset {
    Dataset::synthesize(SyntheticConfig::tiny())
}

fn tiny_gd_config(iterations: usize) -> SolverConfig {
    SolverConfig {
        iterations,
        halo_px: 20,
        ..SolverConfig::default()
    }
}

fn tiny_hve_config(iterations: usize) -> SolverConfig {
    SolverConfig {
        iterations,
        hve_extra_probe_rows: 1,
        ..SolverConfig::default()
    }
}

/// Kills job-local node 1 early in iteration 0 (same shape as the
/// membership suite's `early_death`, but seeded per job so no two jobs
/// share a fault stream).
fn kill_policy(seed: u64) -> FaultPolicy {
    FaultPolicy::reliable(seed).kill_rank(1, 1)
}

/// Drops the first vertical-forward pass message on a 2×2 GD grid; one
/// checkpoint restart heals it (no spare consumed).
fn drop_policy(seed: u64) -> FaultPolicy {
    FaultPolicy::reliable(seed).drop_message(0, 2, tags::VERTICAL_FORWARD, 0)
}

/// The service-equivalent recovery policy for a solo baseline run: the
/// service's restart budget, with a private spare pool standing in for its
/// shared one.
const SOLO_POLICY: RecoveryPolicy = RecoveryPolicy::Recover {
    spares: 8,
    max_iteration_restarts: 2,
};

/// Runs a job spec **alone** on its own deterministic backend — the
/// baseline every service run must match bit for bit.
fn solo_run(spec: &JobSpec) -> ReconstructionResult {
    match spec.fault_policy.clone() {
        None => solo_method(spec, &lockstep()),
        Some(policy) => solo_method(spec, &FaultInjectionBackend::new(lockstep(), policy)),
    }
}

fn solo_method<B: CommBackend>(spec: &JobSpec, backend: &B) -> ReconstructionResult {
    match spec.method {
        SolverMethod::GradientDecomposition => {
            GradientDecompositionSolver::new(&spec.dataset, spec.config, spec.grid)
                .run_job(backend, SOLO_POLICY, &JobContext::default())
                .expect("the solo baseline must heal")
        }
        SolverMethod::HaloVoxelExchange => {
            HaloVoxelExchangeSolver::new(&spec.dataset, spec.config, spec.grid)
                .expect("feasible decomposition")
                .run_job(backend, SOLO_POLICY, &JobContext::default())
                .expect("the solo baseline must heal")
        }
    }
}

/// Memoizes solo baselines by spec shape: the soaks submit ~100 jobs drawn
/// from a dozen distinct specs, and the solo run of a spec is deterministic,
/// so one baseline per shape suffices (and keeps the suite fast).
struct SoloCache(std::collections::HashMap<String, ReconstructionResult>);

impl SoloCache {
    fn new() -> Self {
        Self(std::collections::HashMap::new())
    }

    fn baseline(&mut self, spec: &JobSpec) -> &ReconstructionResult {
        let key = format!(
            "{:?}|{:?}|{}|{:?}",
            spec.method, spec.grid, spec.config.iterations, spec.fault_policy
        );
        self.0.entry(key).or_insert_with(|| solo_run(spec))
    }
}

/// Submission order sorted by (priority desc, submission asc) — what the
/// strict head-of-line scheduler must admit.
fn expected_admissions(submitted: &[(u64, i32)]) -> Vec<u64> {
    let mut order: Vec<(u64, i32)> = submitted.to_vec();
    order.sort_by_key(|&(id, priority)| (std::cmp::Reverse(priority), id));
    order.into_iter().map(|(id, _)| id).collect()
}

/// How long a test waits on the engine before calling it wedged: a tiny job
/// takes milliseconds, so this only trips on a hang.
const DEADLINE: Duration = Duration::from_secs(10);

/// Waits for `job` on a helper thread, failing the test at [`DEADLINE`]
/// instead of hanging it.
fn wait_within_deadline(job: JobHandle) -> JobReport {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(job.wait());
    });
    rx.recv_timeout(DEADLINE)
        .expect("the job must end before the deadline")
}

/// [`JobEngine::wait_idle`] on a helper thread, bounded by [`DEADLINE`].
fn idle_within_deadline(engine: &Arc<JobEngine>) {
    let (tx, rx) = mpsc::channel();
    let engine = Arc::clone(engine);
    std::thread::spawn(move || {
        engine.wait_idle();
        tx.send(())
    });
    rx.recv_timeout(DEADLINE)
        .expect("the engine must go idle before the deadline");
}

/// The JSONL line of one lifecycle event kind.
fn kind_line(kind: &str) -> Vec<u8> {
    format!("\"kind\":\"{kind}\"").into_bytes()
}

fn holds(buf: &[u8], needle: &[u8]) -> bool {
    buf.windows(needle.len()).any(|window| window == needle)
}

/// A trace writer that panics on the batch holding `needle`'s line.
struct PanicsOn(Vec<u8>);

impl std::io::Write for PanicsOn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        assert!(!holds(buf, &self.0), "the trace writer panicked");
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A recorder whose writer panics on `kind`'s line.
fn panicking_trace(kind: &str) -> Arc<Telemetry> {
    let writer = Box::new(PanicsOn(kind_line(kind)));
    Arc::new(Telemetry::with_writer(Default::default(), writer))
}

/// A trace writer that, on the batch holding `needle`'s line, reports that
/// it got there and then blocks until the test releases it.
struct BlocksOn {
    needle: Vec<u8>,
    entered: mpsc::Sender<()>,
    release: mpsc::Receiver<()>,
}

impl std::io::Write for BlocksOn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if holds(buf, &self.needle) {
            let _ = self.entered.send(());
            let _ = self.release.recv();
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The tentpole soak: a burst of 104 mixed-tenant jobs — both solvers,
/// three grid shapes, seven priority levels, four rank-death jobs healed
/// from the shared pool and four lost-message jobs healed by exactly one
/// restart — every single one bit-identical to its solo run.
#[test]
fn scheduler_soak_104_jobs_complete_bit_identical_to_solo_runs() {
    const JOBS: usize = 104;
    let dataset = tiny();
    let engine = JobEngine::paused(16);

    let mut specs = Vec::new();
    for i in 0..JOBS {
        // Fault jobs run GD on the full 2×2 grid (the fault policies pin
        // job-local rank 1 and the 0→2 vertical pass); the rest cycle
        // through grid shapes and alternate methods.
        let (grid, method, fault) = match i % 26 {
            7 => {
                let method = if i == 33 {
                    SolverMethod::HaloVoxelExchange
                } else {
                    SolverMethod::GradientDecomposition
                };
                ((2, 2), method, Some(kill_policy(i as u64)))
            }
            15 => (
                (2, 2),
                SolverMethod::GradientDecomposition,
                Some(drop_policy(i as u64)),
            ),
            k => {
                let grid = [(2, 2), (2, 1), (1, 2)][k % 3];
                let method = if i % 10 == 3 {
                    SolverMethod::HaloVoxelExchange
                } else {
                    SolverMethod::GradientDecomposition
                };
                (grid, method, None)
            }
        };
        // Fault jobs run two iterations so the healed re-run resumes from a
        // real checkpoint; the clean bulk runs one (bit-identity holds per
        // iteration, and 100 tenants of 1 iteration soak the scheduler just
        // as hard).
        let iterations = if fault.is_some() { 2 } else { 1 };
        let config = match method {
            SolverMethod::GradientDecomposition => tiny_gd_config(iterations),
            SolverMethod::HaloVoxelExchange => tiny_hve_config(iterations),
        };
        let priority = ((i * 2) % 5) as i32 - 2;
        let mut spec = JobSpec::new(dataset.clone(), config, grid)
            .with_method(method)
            .with_priority(priority);
        if let Some(policy) = fault {
            spec = spec.with_fault_policy(policy);
        }
        specs.push(spec);
    }

    let mut handles = Vec::new();
    let mut submitted = Vec::new();
    for spec in &specs {
        let handle = engine.submit(spec.clone()).expect("every spec fits");
        submitted.push((handle.id(), spec.priority));
        handles.push(handle);
    }
    engine.start_admitting();
    engine.wait_idle();

    let mut substitutions = 0;
    let mut solo = SoloCache::new();
    for (handle, spec) in handles.iter().zip(&specs) {
        let report = handle.wait();
        assert_eq!(
            report.state,
            JobState::Completed,
            "job {} must complete: {:?}",
            report.id,
            report.error
        );
        let result = report.result.expect("completed jobs carry a result");
        assert_bit_identical(solo.baseline(spec), &result);
        substitutions += result.recovery.substitutions;
        assert!(
            report.progress_events >= spec.slots() * spec.config.iterations,
            "job {} must stream at least one event per rank per iteration",
            report.id
        );
    }

    // Exactly the four rank-death jobs consumed a shared-pool spare.
    assert_eq!(substitutions, 4, "one substitution per killed rank");
    for i in [7usize, 33, 59, 85] {
        let report = handles[i].wait();
        let recovery = &report.result.as_ref().unwrap().recovery;
        assert_eq!(recovery.substitutions, 1, "job {i} healed once");
    }
    for i in [15usize, 41, 67, 93] {
        let report = handles[i].wait();
        let recovery = &report.result.as_ref().unwrap().recovery;
        assert_eq!(recovery.iteration_restarts, 1, "job {i} restarted once");
        assert_eq!(recovery.substitutions, 0, "job {i} consumed no spare");
    }

    // The scheduler's fairness witness: strict head-of-line admission means
    // the log is exactly the priority-sorted submission order.
    assert_eq!(engine.admission_log(), expected_admissions(&submitted));

    // Fleet accounting: four nodes retired by failure-detector verdicts,
    // everything else back in the free pool, nothing lost or double-counted.
    assert_eq!(engine.total_nodes(), 16);
    assert_eq!(engine.dead_nodes(), 4);
    assert_eq!(engine.free_nodes(), 12);
    assert!(engine.fleet_is_conserved());
}

/// The 16-seed sweep: the soak invariants hold for every fault seed, not
/// just a lucky one. Each seed runs its own engine, its own 8-job burst
/// and its own mid-soak rank death, and every job must match its solo run.
#[test]
fn scheduler_soak_is_bit_identical_across_all_16_seeds() {
    let dataset = tiny();
    // Shared across seeds: the clean specs repeat, only the seeded kill
    // specs differ.
    let mut solo = SoloCache::new();
    for seed in 0..16u64 {
        let engine = JobEngine::paused(8);
        let killed = (seed % 8) as usize;

        let mut specs = Vec::new();
        for j in 0..8usize {
            let grid = if j % 2 == 0 { (2, 2) } else { (2, 1) };
            let priority = ((j as u64 + seed) % 4) as i32 - 1;
            let iterations = if j == killed { 2 } else { 1 };
            let mut spec = JobSpec::new(dataset.clone(), tiny_gd_config(iterations), grid)
                .with_priority(priority);
            if j == killed {
                // Vary the death site with the seed: rank 1's first or
                // second send decision (a 2×1 rank sends once per
                // iteration, so its second falls in iteration 1).
                let after_sends = seed % 2;
                spec =
                    spec.with_fault_policy(FaultPolicy::reliable(seed).kill_rank(1, after_sends));
            }
            specs.push(spec);
        }

        let mut handles = Vec::new();
        let mut submitted = Vec::new();
        for spec in &specs {
            let handle = engine.submit(spec.clone()).expect("every spec fits");
            submitted.push((handle.id(), spec.priority));
            handles.push(handle);
        }
        engine.start_admitting();
        engine.wait_idle();

        for (j, (handle, spec)) in handles.iter().zip(&specs).enumerate() {
            let report = handle.wait();
            assert_eq!(
                report.state,
                JobState::Completed,
                "seed {seed} job {j} must complete: {:?}",
                report.error
            );
            let result = report.result.expect("completed jobs carry a result");
            assert_bit_identical(solo.baseline(spec), &result);
            assert_eq!(
                result.recovery.substitutions,
                usize::from(j == killed),
                "seed {seed} job {j}: only the killed job is healed"
            );
        }
        assert_eq!(
            engine.admission_log(),
            expected_admissions(&submitted),
            "seed {seed}: admission order must be priority-then-FIFO"
        );
        assert_eq!(engine.dead_nodes(), 1, "seed {seed}: one retired node");
        assert!(engine.fleet_is_conserved(), "seed {seed}");
    }
}

#[test]
fn admissions_follow_priority_then_fifo_order() {
    let dataset = tiny();
    let engine = JobEngine::paused(4);
    let priorities = [0, 5, 5, -1, 3, 0];
    let mut submitted = Vec::new();
    for &priority in &priorities {
        let spec = JobSpec::new(dataset.clone(), tiny_gd_config(1), (2, 1)).with_priority(priority);
        let handle = engine.submit(spec).expect("fits the fleet");
        submitted.push((handle.id(), priority));
    }
    engine.start_admitting();
    engine.wait_idle();
    assert_eq!(engine.admission_log(), expected_admissions(&submitted));
}

#[test]
fn cancelling_a_queued_job_removes_it_before_admission() {
    let dataset = tiny();
    let engine = JobEngine::paused(4);
    let submit = |priority| {
        engine.submit(
            JobSpec::new(dataset.clone(), tiny_gd_config(1), (2, 2)).with_priority(priority),
        )
    };
    let a = submit(0).expect("fits");
    let b = submit(0).expect("fits");
    let c = submit(0).expect("fits");

    b.cancel();
    assert_eq!(b.state(), JobState::Cancelled, "queued cancel is immediate");
    engine.start_admitting();
    engine.wait_idle();

    for survivor in [&a, &c] {
        assert_eq!(survivor.wait().state, JobState::Completed);
    }
    let report = b.wait();
    assert_eq!(report.state, JobState::Cancelled);
    assert!(matches!(report.error, Some(JobError::Cancelled)));
    assert!(report.result.is_none());
    assert_eq!(report.run_seconds, 0.0, "never admitted, never ran");
    assert_eq!(report.progress_events, 0);
    assert_eq!(
        engine.admission_log(),
        vec![a.id(), c.id()],
        "a cancelled queued job is never admitted"
    );
    assert_eq!(engine.free_nodes(), 4, "no lease leaked");
    assert!(engine.fleet_is_conserved());
}

#[test]
fn cancelling_the_queued_head_admits_the_job_behind_it() {
    let dataset = tiny();
    let engine = JobEngine::new(4);
    // A holds two of the four nodes for far longer than the test runs, B
    // needs all four and blocks the head of the queue, C would fit beside A.
    let a = engine
        .submit(JobSpec::new(
            dataset.clone(),
            tiny_gd_config(100_000),
            (2, 1),
        ))
        .expect("fits the fleet");
    let b = engine
        .submit(JobSpec::new(dataset.clone(), tiny_gd_config(1), (2, 2)))
        .expect("fits the fleet");
    let c = engine
        .submit(JobSpec::new(dataset, tiny_gd_config(1), (2, 1)))
        .expect("fits the fleet");
    assert_eq!(a.state(), JobState::Running);
    assert_eq!(b.state(), JobState::Queued);
    assert_eq!(c.state(), JobState::Queued, "strictly head-of-line");

    b.cancel();
    // The cancel itself must admit C: nothing else will touch the queue
    // until A finishes.
    let mut waited = Duration::ZERO;
    while c.state() != JobState::Completed {
        assert!(
            waited < Duration::from_secs(10),
            "C was stranded behind the cancelled head (state {:?})",
            c.state()
        );
        std::thread::sleep(Duration::from_millis(2));
        waited += Duration::from_millis(2);
    }
    assert_eq!(a.state(), JobState::Running, "C ran beside A, not after it");
    assert_eq!(engine.admission_log(), vec![a.id(), c.id()]);

    a.cancel();
    assert_eq!(a.wait().state, JobState::Cancelled);
    assert_eq!(engine.free_nodes(), 4, "no lease leaked");
    assert!(engine.fleet_is_conserved());
}

#[test]
fn cancelling_a_running_job_stops_it_at_an_iteration_boundary() {
    let dataset = tiny();
    let engine = JobEngine::new(4);
    // Enough iterations that the job is still running when cancel lands;
    // cooperative cancellation stops it at the next iteration boundary.
    let long_job = engine
        .submit(JobSpec::new(dataset.clone(), tiny_gd_config(2000), (2, 2)))
        .expect("fits the fleet");

    // Wait until the job demonstrably runs (first progress event), then ask
    // it to stop.
    let mut waited = Duration::ZERO;
    while long_job.progress().is_empty() {
        assert!(
            waited < Duration::from_secs(10),
            "the job never made progress"
        );
        std::thread::sleep(Duration::from_millis(2));
        waited += Duration::from_millis(2);
    }
    long_job.cancel();

    let report = long_job.wait();
    assert_eq!(report.state, JobState::Cancelled);
    assert!(matches!(report.error, Some(JobError::Cancelled)));
    assert!(report.result.is_none());
    assert!(
        report.progress_events < 2000 * 4,
        "cancellation must stop the run well before its full iteration count"
    );

    // The lease is released: a follow-up job gets the nodes and completes.
    assert_eq!(engine.free_nodes(), 4, "cancelled lease returned to pool");
    assert!(engine.fleet_is_conserved());
    let next = engine
        .submit(JobSpec::new(dataset, tiny_gd_config(1), (2, 2)))
        .expect("fits the fleet");
    assert_eq!(next.wait().state, JobState::Completed);
}

#[test]
fn impossible_specs_are_rejected_at_submission() {
    let dataset = tiny();
    let engine = JobEngine::new(16);

    // Each refusal is typed and its reason names the cause.
    fn assert_refused(engine: &JobEngine, spec: JobSpec, cause: &str) {
        match engine.submit(spec) {
            Err(JobError::Rejected { reason }) => {
                assert!(reason.contains(cause), "{reason:?} should name {cause:?}")
            }
            Err(other) => panic!("expected a rejection naming {cause:?}, got {other}"),
            Ok(_) => panic!("a spec refused for {cause:?} was admitted"),
        }
    }

    assert_refused(
        &engine,
        JobSpec::new(dataset.clone(), tiny_gd_config(1), (0, 2)),
        "tile grid is empty",
    );
    // 20 slots cannot fit a 16-node fleet.
    assert_refused(
        &engine,
        JobSpec::new(dataset.clone(), tiny_gd_config(1), (5, 4)),
        "fleet only has 16 live node(s)",
    );
    // The HVE feasibility constraint is knowable at submission: a 3×3 grid
    // on the tiny dataset makes 32 px tiles that cannot fill 48 px halos.
    assert_refused(
        &engine,
        JobSpec::new(dataset.clone(), tiny_hve_config(1), (3, 3))
            .with_method(SolverMethod::HaloVoxelExchange),
        "cannot fill 48 px halos",
    );
    // An armed process kill strikes a checkpoint commit, which a job with no
    // checkpoint directory never makes.
    assert_refused(
        &engine,
        JobSpec::new(dataset.clone(), tiny_gd_config(1), (2, 2)).with_fault_policy(
            FaultPolicy::reliable(1).kill_process_at_barrier(0, CrashPhase::AfterRename),
        ),
        "process-kill fault needs a checkpoint dir",
    );
    // One `f64` cost per iteration: a history past `isize::MAX` bytes can
    // never be allocated.
    assert_refused(
        &engine,
        JobSpec::new(dataset.clone(), tiny_gd_config(usize::MAX), (2, 2)),
        "cost history",
    );
    assert!(engine.admission_log().is_empty(), "nothing was admitted");
    assert_eq!(engine.free_nodes(), 16, "nothing was leased");

    // A 200×1 grid fits a big enough fleet but cannot tile the 96 px
    // object: the GD runner would panic, the HVE check on the submitter's
    // thread would too.
    let big = JobEngine::new(256);
    for method in [
        SolverMethod::GradientDecomposition,
        SolverMethod::HaloVoxelExchange,
    ] {
        assert_refused(
            &big,
            JobSpec::new(dataset.clone(), tiny_gd_config(1), (200, 1)).with_method(method),
            "tile grid 200x1 is larger than the 96x96 px object",
        );
    }
    // A grid whose slot count overflows `usize` is refused for its size
    // before anything multiplies it.
    for grid in [(usize::MAX, 2), (1 << 32, 1 << 32)] {
        assert_refused(
            &big,
            JobSpec::new(dataset.clone(), tiny_gd_config(1), grid),
            "is larger than the 96x96 px object",
        );
    }
    assert_eq!(big.free_nodes(), 256, "nothing was leased");
}

#[test]
fn progress_streams_one_event_per_rank_per_iteration() {
    let dataset = tiny();
    let engine = JobEngine::new(4);
    let job = engine
        .submit(JobSpec::new(dataset, tiny_gd_config(3), (2, 2)))
        .expect("fits the fleet");
    let report = job.wait();
    assert_eq!(report.state, JobState::Completed);
    let result = report.result.expect("completed");

    let mut events = job.progress();
    assert_eq!(events.len(), 4 * 3, "4 ranks x 3 iterations");
    for progress in &events {
        assert_eq!(progress.attempt, 0, "fault-free: single attempt");
        assert!(progress.peak_bytes > 0, "memory telemetry present");
    }

    // Per-rank event streams are ordered by iteration.
    for rank in 0..4 {
        let iterations: Vec<usize> = events
            .iter()
            .filter(|p| p.rank == rank)
            .map(|p| p.iteration)
            .collect();
        assert_eq!(iterations, vec![0, 1, 2], "rank {rank} event order");
    }

    // The streamed per-rank costs reassemble the final cost history bit for
    // bit (summed in rank order, exactly as the result assembly does).
    events.sort_by_key(|p| (p.iteration, p.rank));
    for (iteration, chunk) in events.chunks(4).enumerate() {
        let streamed: f64 = chunk.iter().map(|p| p.cost).sum();
        assert_eq!(
            streamed.to_bits(),
            result.cost_history.costs()[iteration].to_bits(),
            "iteration {iteration}: streamed costs must match the result"
        );
    }

    // The tailing cursor: progress_since(seen) returns exactly the rest.
    assert_eq!(job.progress_since(5).len(), 7);
    assert!(job.progress_since(12).is_empty());
}

/// Service runs equal direct solver runs for both methods on the shared
/// `small_problem` fixtures — the service adds scheduling, not numerics.
#[test]
fn service_results_match_direct_solver_runs_for_both_methods() {
    let ds = small_problem();
    common::run_both_solvers!(&ds, |solver, label| {
        let direct = solver
            .run_job(
                &lockstep(),
                RecoveryPolicy::FailFast,
                &JobContext::default(),
            )
            .expect("fault-free run completes");
        let (method, config) = if label == "gradient-decomposition" {
            (SolverMethod::GradientDecomposition, gd_config())
        } else {
            (SolverMethod::HaloVoxelExchange, hve_config())
        };
        let engine = JobEngine::new(4);
        let report = engine
            .submit(JobSpec::new(ds.clone(), config, (2, 2)).with_method(method))
            .expect("fits the fleet")
            .wait();
        assert_eq!(report.state, JobState::Completed, "{label}");
        assert_bit_identical(&direct, report.result.as_ref().unwrap());
    });
}

#[test]
fn one_tenants_rank_death_does_not_perturb_its_neighbours() {
    let dataset = tiny();
    let engine = JobEngine::paused(12);
    let clean = JobSpec::new(dataset.clone(), tiny_gd_config(2), (2, 2));
    let dying = clean.clone().with_fault_policy(kill_policy(3));

    // Three tenants run concurrently (4 + 4 + 4 = 12 nodes); the middle one
    // loses a rank and heals from the shared pool.
    let a = engine.submit(clean.clone()).expect("fits");
    let b = engine.submit(dying.clone()).expect("fits");
    let c = engine.submit(clean.clone()).expect("fits");
    engine.start_admitting();
    engine.wait_idle();

    let solo_clean = solo_run(&clean);
    for (label, neighbour) in [("first", &a), ("third", &c)] {
        let report = neighbour.wait();
        assert_eq!(report.state, JobState::Completed, "{label}");
        let result = report.result.expect("completed");
        assert_eq!(
            result.recovery.substitutions, 0,
            "{label} tenant must not observe the neighbour's death"
        );
        assert_bit_identical(&solo_clean, &result);
    }

    let healed = b.wait();
    assert_eq!(healed.state, JobState::Completed);
    let healed = healed.result.expect("completed");
    assert_eq!(healed.recovery.substitutions, 1);
    assert_bit_identical(&solo_run(&dying), &healed);

    // Fleet epoch arithmetic: 3 leases + 3 releases + 1 retire + 1 spare
    // draw, each exactly one bump.
    assert_eq!(engine.fleet_epoch(), 8);
    assert_eq!(engine.dead_nodes(), 1);
    assert_eq!(engine.free_nodes(), 11);
    assert!(engine.fleet_is_conserved());
}

/// Retirements permanently shrink the live fleet; a queued job bigger than
/// what remains can never be admitted and — with strict head-of-line
/// scheduling — would otherwise pin the queue (and `wait_idle`) forever.
#[test]
fn fleet_shrinkage_fails_queued_jobs_it_can_never_serve() {
    let dataset = tiny();
    // Paused, so both jobs are submitted against the whole fleet: on a live
    // engine the dying job could retire its node before the follower
    // arrives, and the follower would be refused at submission instead.
    let engine = Arc::new(JobEngine::paused(2));
    // The dying job takes the whole 2-node fleet; two full-width followers
    // queue behind it, the second with a trace writer that panics. When the
    // dead rank retires a node, one live node remains: neither the heal nor
    // a follower can ever be served.
    let a = engine
        .submit(
            JobSpec::new(dataset.clone(), tiny_gd_config(2), (2, 1))
                .with_fault_policy(kill_policy(9)),
        )
        .expect("fits the fleet");
    let b = engine
        .submit(JobSpec::new(dataset.clone(), tiny_gd_config(2), (2, 1)))
        .expect("feasible against the live fleet at submission");
    let d = engine
        .submit(
            JobSpec::new(dataset.clone(), tiny_gd_config(2), (2, 1))
                .with_telemetry(panicking_trace("job_submitted")),
        )
        .expect("feasible against the live fleet at submission");
    engine.start_admitting();
    idle_within_deadline(&engine);

    let a = a.wait();
    assert_eq!(a.state, JobState::Failed, "{:?}", a.error);
    assert!(
        matches!(a.error, Some(JobError::Failed(_))),
        "{:?}",
        a.error
    );

    let b = b.wait();
    assert_eq!(b.state, JobState::Failed);
    match b.error.expect("failed jobs carry an error") {
        JobError::Rejected { reason } => {
            assert!(reason.contains("live"), "self-describing: {reason}")
        }
        other => panic!("expected a shrunken-fleet rejection, got {other}"),
    }
    // Ending the doomed job flushes its trace into the panicking writer.
    let d = d.wait();
    assert_eq!(d.state, JobState::Failed);
    assert!(
        matches!(d.error, Some(JobError::Panicked { .. })),
        "{:?}",
        d.error
    );

    // A fresh full-width submission is refused outright: feasibility is
    // judged against live nodes, not the fleet's original size.
    let c = engine
        .submit(JobSpec::new(dataset, tiny_gd_config(1), (2, 1)))
        .expect_err("2 slots cannot fit 1 live node");
    match &c {
        JobError::Rejected { reason } => {
            assert!(reason.contains("live"), "self-describing: {reason}")
        }
        other => panic!("expected rejection, got {other}"),
    }

    assert_eq!(engine.dead_nodes(), 1);
    assert_eq!(engine.free_nodes(), 1);
    assert!(engine.fleet_is_conserved());
}

/// Cancelling a job that is blocked inside the spare-grant wait must wake
/// it immediately — not leave it parked until some unrelated scheduler
/// event (like a neighbour finishing) happens to signal the condvar.
#[test]
fn cancelling_a_job_blocked_on_a_spare_grant_wakes_it_promptly() {
    let dataset = tiny();
    let engine = JobEngine::paused(4);
    // The long neighbour keeps the pool fully leased, so the dying job's
    // spare grant blocks after it retires the dead node.
    let long = engine
        .submit(JobSpec::new(dataset.clone(), tiny_gd_config(60), (2, 1)))
        .expect("fits the fleet");
    let dying = engine
        .submit(JobSpec::new(dataset, tiny_gd_config(2), (2, 1)).with_fault_policy(kill_policy(7)))
        .expect("fits the fleet");
    engine.start_admitting();

    // The retirement happens on the way into the blocking wait; once it is
    // visible the job is parked (or about to park) on the spare grant.
    while engine.dead_nodes() == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    dying.cancel();
    let report = dying.wait();
    assert_eq!(report.state, JobState::Cancelled, "{:?}", report.error);
    assert_eq!(
        long.state(),
        JobState::Running,
        "the wakeup must come from the cancel itself, not from the neighbour finishing"
    );
    assert_eq!(long.wait().state, JobState::Completed);
    assert!(engine.fleet_is_conserved());
}

/// A healing job blocked on a spare grant gets first claim on freed nodes:
/// admissions are deferred while it waits, and the served waiter re-runs
/// admission for the remainder, so the queue still drains.
#[test]
fn a_blocked_heal_is_served_before_new_admissions_and_the_queue_still_drains() {
    let dataset = tiny();
    let engine = JobEngine::paused(4);
    let dying =
        JobSpec::new(dataset.clone(), tiny_gd_config(4), (2, 1)).with_fault_policy(kill_policy(5));
    // A and B fill the fleet; C waits in the queue. A's heal blocks on the
    // empty pool until B's release frees nodes, which must reach the heal
    // before C's admission can consume them.
    let a = engine.submit(dying.clone()).expect("fits the fleet");
    let b = engine
        .submit(JobSpec::new(dataset.clone(), tiny_gd_config(1), (2, 1)))
        .expect("fits the fleet");
    let c = engine
        .submit(JobSpec::new(dataset, tiny_gd_config(1), (2, 1)))
        .expect("queued behind the full fleet");
    engine.start_admitting();
    engine.wait_idle();

    let healed = a.wait();
    assert_eq!(healed.state, JobState::Completed, "{:?}", healed.error);
    let healed = healed.result.expect("completed jobs carry a result");
    assert_eq!(healed.recovery.substitutions, 1, "the heal must be served");
    assert_bit_identical(&solo_run(&dying), &healed);
    assert_eq!(b.wait().state, JobState::Completed);
    assert_eq!(c.wait().state, JobState::Completed);

    assert_eq!(engine.dead_nodes(), 1);
    assert!(engine.fleet_is_conserved());
}

/// A trace writer is caller code: one that panics on its job's
/// `job_completed` line fails that job alone. Its nodes come back, and the
/// engine serves the next tenant.
#[test]
fn a_trace_writer_panicking_on_job_completed_fails_only_its_job() {
    let engine = JobEngine::new(4);
    let job = engine
        .submit(
            JobSpec::new(tiny(), tiny_gd_config(2), (2, 2))
                .with_telemetry(panicking_trace("job_completed")),
        )
        .expect("fits the fleet");
    let report = wait_within_deadline(job);
    assert_eq!(report.state, JobState::Failed);
    match report.error {
        Some(JobError::Panicked { message }) => {
            assert!(message.contains("trace writer"), "{message}")
        }
        other => panic!("expected a panic failure, got {other:?}"),
    }
    assert_eq!(engine.free_nodes(), engine.total_nodes());
    assert!(engine.fleet_is_conserved());

    let next = engine
        .submit(JobSpec::new(tiny(), tiny_gd_config(1), (2, 2)))
        .expect("fits the fleet");
    assert_eq!(wait_within_deadline(next).state, JobState::Completed);
}

/// One job's trace writer blocking on its `job_completed` line holds up
/// nobody else: a neighbour submitted meanwhile, onto free nodes, completes
/// first. The blocked job stays running until its trace is written.
#[test]
fn a_blocked_trace_writer_does_not_hold_up_a_neighbour() {
    let engine = Arc::new(JobEngine::new(8));
    let (entered_tx, entered) = mpsc::channel();
    let (release, release_rx) = mpsc::channel();
    let writer = Box::new(BlocksOn {
        needle: kind_line("job_completed"),
        entered: entered_tx,
        release: release_rx,
    });
    let telemetry = Arc::new(Telemetry::with_writer(Default::default(), writer));
    let blocked = engine
        .submit(JobSpec::new(tiny(), tiny_gd_config(2), (2, 2)).with_telemetry(telemetry))
        .expect("fits the fleet");
    entered
        .recv_timeout(DEADLINE)
        .expect("the writer reaches the job_completed line");

    let (tx, neighbour) = mpsc::channel();
    let submitter = Arc::clone(&engine);
    std::thread::spawn(move || {
        let job = submitter
            .submit(JobSpec::new(tiny(), tiny_gd_config(1), (2, 2)))
            .expect("fits beside the blocked job");
        let _ = tx.send(job.wait());
    });
    let neighbour = neighbour.recv_timeout(DEADLINE);
    let blocked_state = neighbour.is_ok().then(|| blocked.state());
    // Released whatever happened, so a failure does not leave it wedged.
    release.send(()).expect("the writer is still waiting");
    let neighbour = neighbour.expect("the neighbour must complete while the writer blocks");
    assert_eq!(neighbour.state, JobState::Completed);
    assert_eq!(
        blocked_state,
        Some(JobState::Running),
        "a job ends only once its trace is written"
    );
    assert_eq!(wait_within_deadline(blocked).state, JobState::Completed);
    assert!(engine.fleet_is_conserved());
}

/// Cancelling a queued job whose trace writer panics on its
/// `job_cancelled` line returns, ends the job, and leaves the engine live.
#[test]
fn cancelling_a_queued_job_whose_trace_writer_panics_leaves_the_engine_live() {
    let engine = JobEngine::paused(4);
    let queued = engine
        .submit(
            JobSpec::new(tiny(), tiny_gd_config(2), (2, 2))
                .with_telemetry(panicking_trace("job_cancelled")),
        )
        .expect("fits the fleet");
    let (tx, cancelled) = mpsc::channel();
    std::thread::spawn(move || {
        queued.cancel();
        tx.send(queued)
    });
    let queued = cancelled
        .recv_timeout(DEADLINE)
        .expect("cancel() must return");
    let report = wait_within_deadline(queued);
    assert!(report.state.is_terminal(), "{:?}", report.state);
    assert!(
        matches!(report.error, Some(JobError::Panicked { .. })),
        "{:?}",
        report.error
    );

    engine.start_admitting();
    let next = engine
        .submit(JobSpec::new(tiny(), tiny_gd_config(1), (2, 2)))
        .expect("fits the fleet");
    let next_id = next.id();
    assert_eq!(wait_within_deadline(next).state, JobState::Completed);
    assert_eq!(engine.admission_log(), vec![next_id]);
    assert_eq!(engine.free_nodes(), 4);
    assert!(engine.fleet_is_conserved());
}
