//! The per-job runner: the thread admission spawns for each job. It owns the
//! job's [`JobSpec`] from admission on, and ends the job with [`end_job`].

use super::{finish, grant_spare, JobError, JobSpec, Shared, SolverMethod};
use crate::durability::{encode_spec, CheckpointStore};
use crate::engine::{
    DurabilityHook, IterationProgress, JobContext, ReconstructionResult, RecoveryPolicy,
};
use crate::gradient_decomp::solver::GradientDecompositionSolver;
use crate::halo_exchange::solver::HaloVoxelExchangeSolver;
use ptycho_cluster::{
    panic_text, ClusterTopology, CommBackend, CommError, FaultInjectionBackend, JobId,
    LockstepBackend, RankFailure,
};
use ptycho_telemetry::TelemetryEvent;
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Every job's recovery policy: up to two checkpoint restarts. `spares` is
/// unused — replacements come from the service's shared fleet pool through
/// [`JobContext::spare_grant`].
const RECOVERY: RecoveryPolicy = RecoveryPolicy::Recover {
    spares: 0,
    max_iteration_restarts: 2,
};

/// Runs admitted job `id`: builds its backend, wires the job-context hooks
/// into the shared state, runs the solver once and ends the job. `cancel`
/// is the record's flag, handed over at admission.
pub(super) fn run_job_thread(
    shared: Arc<Shared>,
    id: JobId,
    spec: JobSpec,
    cancel: Arc<AtomicBool>,
) {
    let progress = |event: IterationProgress| {
        if let Some(record) = shared.lock().jobs.get_mut(&id) {
            record.progress.push(event);
        }
    };
    let spare_grant = |dead_local: usize| grant_spare(&shared, id, &cancel, dead_local);
    // A panicking run fails the job instead of leaving it `Running` with its
    // nodes leased and every waiter blocked.
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let store = spec
            .checkpoint_dir
            .as_ref()
            .map(|dir| {
                CheckpointStore::open(dir).map_err(|error| JobError::Rejected {
                    reason: format!("checkpoint store at {}: {error}", dir.display()),
                })
            })
            .transpose()?;
        let spec_bytes = encode_spec(&spec);
        let job = JobContext {
            cancel: Some(&cancel),
            progress: Some(&progress),
            spare_grant: Some(&spare_grant),
            telemetry: spec.telemetry.as_deref(),
            durability: store.as_ref().map(|store| DurabilityHook {
                store,
                resume: spec.resume_from.as_deref(),
                kill: spec.fault_policy.as_ref().and_then(|p| p.process_kill),
                spec: &spec_bytes,
            }),
        };
        run_spec(&spec, &job).map_err(|failure| {
            if cancel.load(Ordering::Relaxed)
                || matches!(failure.error, CommError::Cancelled { .. })
            {
                JobError::Cancelled
            } else {
                JobError::Failed(failure)
            }
        })
    }))
    .unwrap_or_else(|panic| Err(panicked(panic)));
    end_job(&shared, id, &spec, outcome);
}

/// Ends job `id` with `outcome`. Whoever ends a job calls this — its runner,
/// or the caller that took it out of the queue. It first settles the trace
/// with the service lock released: it stamps the terminal lifecycle event on
/// stream 0, flushes the recorder and reads the loss counts the final flush
/// leaves. Only then does it take the lock to [`finish`] the job, so a
/// finished job's trace is written. The writer is caller code: a panic while
/// settling turns the outcome into [`JobError::Panicked`].
pub(super) fn end_job(
    shared: &Arc<Shared>,
    id: JobId,
    spec: &JobSpec,
    outcome: Result<ReconstructionResult, JobError>,
) {
    // The job's rank threads, if it ever had any, are joined and their
    // streams parked: stamping stream 0 and flushing cannot race them.
    let settled = catch_unwind(AssertUnwindSafe(|| {
        let Some(telemetry) = &spec.telemetry else {
            return Vec::new();
        };
        let mut sink = telemetry.sink(0);
        match &outcome {
            Ok(_) => sink.record(TelemetryEvent::JobCompleted {
                job: id,
                iterations: spec.config.iterations as u64,
            }),
            Err(JobError::Cancelled) => sink.record(TelemetryEvent::JobCancelled { job: id }),
            Err(_) => {}
        }
        drop(sink);
        telemetry.flush_all();
        telemetry.lost_records_by_rank()
    }));
    let (outcome, telemetry_lost) = match settled {
        Ok(lost) => (outcome, lost),
        Err(panic) => (Err(panicked(panic)), Vec::new()),
    };
    finish(&mut shared.lock(), shared, id, outcome, telemetry_lost);
}

/// The job error for a caught panic.
fn panicked(panic: Box<dyn Any + Send>) -> JobError {
    JobError::Panicked {
        message: panic_text(&*panic),
    }
}

/// Builds the job's lockstep backend, wrapped in the spec's fault
/// injection if it has any, and runs the job's solver on it.
fn run_spec(spec: &JobSpec, job: &JobContext<'_>) -> Result<ReconstructionResult, RankFailure> {
    let backend = LockstepBackend::new(ClusterTopology::summit());
    match spec.fault_policy.clone() {
        None => run_method(spec, &backend, job),
        Some(policy) => run_method(spec, &FaultInjectionBackend::new(backend, policy), job),
    }
}

fn run_method<B: CommBackend>(
    spec: &JobSpec,
    backend: &B,
    job: &JobContext<'_>,
) -> Result<ReconstructionResult, RankFailure> {
    let (dataset, config, grid) = (&spec.dataset, spec.config, spec.grid);
    match spec.method {
        SolverMethod::GradientDecomposition => {
            GradientDecompositionSolver::new(dataset, config, grid).run_job(backend, RECOVERY, job)
        }
        SolverMethod::HaloVoxelExchange => HaloVoxelExchangeSolver::new(dataset, config, grid)
            .expect("validated at submission")
            .run_job(backend, RECOVERY, job),
    }
}
