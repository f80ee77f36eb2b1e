//! Reconstruction as a service: the multi-tenant job engine.
//!
//! A beamline does not run one reconstruction — it queues them continuously
//! as scans complete. This module turns the single-run solvers into exactly
//! that serving shape: a [`JobEngine`] owns a fleet of worker nodes
//! ([`FleetView`]) and an admission queue ([`JobQueue`]), and each submitted
//! [`JobSpec`] moves through the lifecycle
//!
//! ```text
//! submit → queued → leased (admission) → running → (heal)* → complete
//!                                          │
//!                                          └─ cancel / fail
//! ```
//!
//! * **Admission** is priority-then-FIFO and strictly head-of-line: the
//!   admission log is always the priority-sorted submission order, which
//!   makes scheduler behaviour deterministic and testable.
//! * **Isolation**: each job runs on its own backend instance with
//!   *job-local* rank numbering; the engine maps local node ids to the
//!   fleet nodes it leased. No wire tag, seed, or fault decision of one job
//!   can observe another, so every job's result is **bit-identical to the
//!   same job running alone** — the scheduler-soak suite pins this.
//! * **Healing**: when a rank dies mid-job, the engine's spare-substitution
//!   machinery asks the service for a replacement through the
//!   [`JobContext::spare_grant`] hook; the service retires the dead fleet
//!   node and leases one from the shared free pool. One standby pool
//!   amortises over every tenant instead of being reserved per job. When
//!   the pool is transiently empty (every node leased out), the healing job
//!   blocks until a neighbour releases nodes; it only fails for good when
//!   no other tenant could ever free one.
//! * **Observability**: per-iteration [`JobProgress`] events (iteration,
//!   cost, per-rank simulated clock and peak memory) stream into a per-job
//!   buffer a client can tail; the final [`JobReport`] carries the full
//!   [`ReconstructionResult`] and [`RecoveryReport`] plus queue/run timing.
//!
//! [`FleetView`]: ptycho_cluster::FleetView
//! [`JobQueue`]: ptycho_cluster::JobQueue
//! [`RecoveryReport`]: crate::engine::RecoveryReport

use crate::config::{PassFrequency, SolverConfig};
use crate::durability::{ByteReader, ByteWriter, CheckpointStore, DurabilityError, RecoveredEpoch};
use crate::engine::{
    DurabilityHook, IterationProgress, JobContext, ReconstructionResult, RecoveryPolicy,
};
use crate::gradient_decomp::solver::GradientDecompositionSolver;
use crate::halo_exchange::solver::HaloVoxelExchangeSolver;
use ptycho_cluster::{
    Cluster, ClusterTopology, CommBackend, CommError, CrashPhase, FaultInjectionBackend,
    FaultPolicy, FleetView, JobId, JobQueue, LockstepBackend, NodeId, RankFailure,
};
use ptycho_sim::dataset::{Dataset, ScanFrame, SyntheticConfig};
use ptycho_telemetry::{Histogram, MetricsRegistry, Telemetry, TelemetryEvent};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Which reconstruction method a job runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolverMethod {
    /// The paper's Gradient Decomposition solver.
    GradientDecomposition,
    /// The Halo Voxel Exchange baseline.
    HaloVoxelExchange,
}

/// Which communication backend a job's ranks run on. Every job gets its own
/// backend instance, so tenants never share communication state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServiceBackend {
    /// The deterministic lockstep scheduler (default; reproducible bit for
    /// bit and deadlock-proving).
    Lockstep,
    /// One OS thread per rank, with the receive timeout that recovery needs
    /// to observe lost messages.
    Threaded {
        /// How long a receive waits before reporting the message lost.
        recv_timeout: Duration,
    },
}

/// One reconstruction request: everything the engine needs to run the job,
/// plus its admission priority.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// The measured (here: synthesized) acquisition to reconstruct.
    pub dataset: Dataset,
    /// Solver parameters.
    pub config: SolverConfig,
    /// Tile grid dimensions; the job needs `grid.0 * grid.1` fleet nodes.
    pub grid: (usize, usize),
    /// Which solver runs the job.
    pub method: SolverMethod,
    /// Admission priority: higher is served earlier; ties break FIFO.
    pub priority: i32,
    /// The engine recovery policy. Under [`RecoveryPolicy::SubstituteSpare`]
    /// the policy's own `spares` count is ignored — replacements come from
    /// the service's shared fleet pool instead.
    pub recovery: RecoveryPolicy,
    /// Optional fault injection wrapped around the job's backend
    /// (job-local: seeds and rank ids are the job's own).
    pub fault_policy: Option<FaultPolicy>,
    /// The communication backend the job runs on.
    pub backend: ServiceBackend,
    /// Optional flight recorder: comm, iteration, recovery, and job
    /// lifecycle events stream into it (and its durable sink, if any).
    pub telemetry: Option<Arc<Telemetry>>,
    /// When set, every consistency barrier durably checkpoints the job into
    /// a [`CheckpointStore`] rooted at this directory, and
    /// [`JobEngine::resume`] can rebuild the job from the directory alone
    /// after a process kill.
    pub checkpoint_dir: Option<PathBuf>,
    /// A recovered on-disk epoch to resume from (set by
    /// [`JobEngine::resume`]; the engine prefills rank state, membership,
    /// and recovery counters from it).
    pub resume_from: Option<Arc<RecoveredEpoch>>,
}

impl JobSpec {
    /// A Gradient Decomposition job on the lockstep backend at priority 0,
    /// with retransmit + checkpoint-restart + shared-pool substitution
    /// enabled (the service default).
    pub fn new(dataset: Dataset, config: SolverConfig, grid: (usize, usize)) -> Self {
        Self {
            dataset,
            config,
            grid,
            method: SolverMethod::GradientDecomposition,
            priority: 0,
            recovery: RecoveryPolicy::SubstituteSpare {
                // Ignored in service runs: the shared fleet pool (via
                // `JobContext::spare_grant`) bounds substitutions instead.
                spares: 0,
                max_iteration_restarts: 2,
            },
            fault_policy: None,
            backend: ServiceBackend::Lockstep,
            telemetry: None,
            checkpoint_dir: None,
            resume_from: None,
        }
    }

    /// Sets the solver method.
    pub fn with_method(mut self, method: SolverMethod) -> Self {
        self.method = method;
        self
    }

    /// Sets the admission priority (higher runs earlier).
    pub fn with_priority(mut self, priority: i32) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the recovery policy.
    pub fn with_recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.recovery = recovery;
        self
    }

    /// Wraps the job's backend in fault injection.
    pub fn with_fault_policy(mut self, policy: FaultPolicy) -> Self {
        self.fault_policy = Some(policy);
        self
    }

    /// Sets the communication backend.
    pub fn with_backend(mut self, backend: ServiceBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Attaches a flight recorder to the job.
    pub fn with_telemetry(mut self, telemetry: Arc<Telemetry>) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Durably checkpoints the job into a [`CheckpointStore`] rooted at
    /// `dir`, making it resumable with [`JobEngine::resume`] after a
    /// process kill. Requires a recovering [`RecoveryPolicy`] (the default)
    /// — the consistency barrier persistence rides does not exist under
    /// [`RecoveryPolicy::FailFast`].
    pub fn with_checkpoint_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.checkpoint_dir = Some(dir.into());
        self
    }

    /// How many fleet nodes the job needs.
    pub fn slots(&self) -> usize {
        self.grid.0 * self.grid.1
    }
}

/// Where a job is in its lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Waiting in the admission queue.
    Queued,
    /// Leased fleet nodes and running (possibly healing).
    Running,
    /// Finished successfully; the report carries the result.
    Completed,
    /// Finished with an unrecovered failure.
    Failed,
    /// Cancelled — before admission, or cooperatively while running.
    Cancelled,
}

impl JobState {
    /// True once the job can no longer change state.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Completed | JobState::Failed | JobState::Cancelled
        )
    }
}

/// Why a job did not complete.
#[derive(Clone, Debug)]
pub enum JobError {
    /// The spec could never run (bad grid, more slots than the fleet has,
    /// an invalid baseline decomposition) and was refused at submission.
    Rejected {
        /// Human-readable refusal reason.
        reason: String,
    },
    /// The job was cancelled (before admission or cooperatively mid-run).
    Cancelled,
    /// The run failed and recovery could not heal it.
    Failed(RankFailure),
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Rejected { reason } => write!(f, "job rejected: {reason}"),
            JobError::Cancelled => write!(f, "job cancelled"),
            JobError::Failed(failure) => write!(f, "job failed: {failure}"),
        }
    }
}

impl std::error::Error for JobError {}

/// One per-iteration progress event of one job (the engine's
/// [`IterationProgress`] stamped with the job id).
#[derive(Clone, Copy, Debug)]
pub struct JobProgress {
    /// The reporting job.
    pub job: JobId,
    /// The engine-level event (rank, iteration, attempt, cost, clock,
    /// memory).
    pub event: IterationProgress,
}

/// The final record of one job: terminal state, result or error, and
/// queue/run wall-clock timing (host time, not the simulated rank clocks —
/// those are inside the result).
#[derive(Clone, Debug)]
pub struct JobReport {
    /// The job this report describes.
    pub id: JobId,
    /// The terminal state ([`JobState::is_terminal`] always holds).
    pub state: JobState,
    /// The reconstruction (with its `RecoveryReport`), when completed.
    pub result: Option<ReconstructionResult>,
    /// Why the job did not complete, otherwise.
    pub error: Option<JobError>,
    /// Seconds spent waiting in the admission queue.
    pub queue_seconds: f64,
    /// Seconds spent running (0 if never admitted).
    pub run_seconds: f64,
    /// How many progress events the job emitted.
    pub progress_events: usize,
}

/// Everything the service tracks about one job.
struct JobRecord {
    state: JobState,
    cancel: Arc<AtomicBool>,
    /// Raised by [`JobHandle::ingest`]: asks the running job to stop at the
    /// next iteration boundary so newly arrived scan positions can be
    /// spliced in. Lowered by the runner once the splice happens.
    preempt: Arc<AtomicBool>,
    /// Scan frames queued by [`JobHandle::ingest`], consumed by the runner
    /// at the next splice point.
    ingest: Arc<Mutex<Vec<ScanFrame>>>,
    /// Job-local node id → fleet node. Indices `0..slots` are the initial
    /// lease; each drawn spare is appended in promotion order, mirroring the
    /// engine's `slots + k` numbering for the k-th promotion.
    node_map: Vec<NodeId>,
    progress: Vec<JobProgress>,
    result: Option<ReconstructionResult>,
    error: Option<JobError>,
    submitted: Instant,
    started: Option<Instant>,
    finished: Option<Instant>,
}

impl JobRecord {
    fn report(&self, id: JobId) -> JobReport {
        let end = self.finished.unwrap_or(self.submitted);
        let queue_end = self.started.unwrap_or(end);
        JobReport {
            id,
            state: self.state,
            result: self.result.clone(),
            error: self.error.clone(),
            queue_seconds: queue_end.duration_since(self.submitted).as_secs_f64(),
            run_seconds: self
                .started
                .map_or(0.0, |s| end.duration_since(s).as_secs_f64()),
            progress_events: self.progress.len(),
        }
    }
}

/// Aggregate service counters feeding [`JobEngine::metrics_snapshot`].
/// Recovery totals accumulate at job completion from each job's
/// [`RecoveryReport`](crate::engine::RecoveryReport) — the counters that
/// previously vanished silently when a healed job reported success.
#[derive(Debug, Default)]
struct EngineMetrics {
    submitted: u64,
    admitted: u64,
    completed: u64,
    cancelled: u64,
    failed: u64,
    rejected: u64,
    /// Queue depth sampled at every submission and admission.
    queue_depth: Histogram,
    iteration_restarts: u64,
    substitutions: u64,
    heartbeats_sent: u64,
    heartbeats_observed: u64,
    retransmits: u64,
    recoveries: u64,
    acks_sent: u64,
    duplicates_reacked: u64,
    /// Flight-recorder records lost to ring overflow, folded in from each
    /// job's recorder at completion. Per-rank so an undersized ring names
    /// the exact stream whose durable trace has sequence gaps.
    telemetry_lost: u64,
    telemetry_lost_by_rank: BTreeMap<u64, u64>,
}

struct ServiceState {
    fleet: FleetView,
    queue: JobQueue,
    /// Specs of queued jobs, consumed at admission.
    pending: BTreeMap<JobId, JobSpec>,
    jobs: BTreeMap<JobId, JobRecord>,
    /// Jobs in admission order — the scheduler's fairness witness.
    admissions: Vec<JobId>,
    next_id: JobId,
    /// Jobs currently running.
    active: usize,
    /// Running jobs currently blocked waiting for a shared-pool spare.
    waiting_for_spare: usize,
    /// While true, nothing is admitted (burst-submission mode).
    paused: bool,
    /// Aggregate counters across every job the engine has seen.
    metrics: EngineMetrics,
}

struct Shared {
    state: Mutex<ServiceState>,
    changed: Condvar,
}

/// The multi-tenant job engine: a shared node fleet serving an admission
/// queue of reconstruction jobs.
///
/// ```
/// use ptycho_core::service::{JobEngine, JobSpec};
/// use ptycho_core::SolverConfig;
/// use ptycho_sim::dataset::{Dataset, SyntheticConfig};
///
/// let engine = JobEngine::new(8);
/// let dataset = Dataset::synthesize(SyntheticConfig::tiny());
/// let config = SolverConfig { iterations: 2, ..SolverConfig::default() };
/// let job = engine
///     .submit(JobSpec::new(dataset, config, (2, 2)).with_priority(5))
///     .expect("fits the fleet");
/// let report = job.wait();
/// assert!(report.result.is_some());
/// ```
pub struct JobEngine {
    shared: Arc<Shared>,
}

impl JobEngine {
    /// An engine owning a fleet of `fleet_nodes` worker nodes, admitting
    /// jobs as soon as they fit.
    pub fn new(fleet_nodes: usize) -> Self {
        Self::build(fleet_nodes, false)
    }

    /// An engine that holds every submission in the queue until
    /// [`JobEngine::start_admitting`] — for deterministic burst submission
    /// (load generators, scheduler tests).
    pub fn paused(fleet_nodes: usize) -> Self {
        Self::build(fleet_nodes, true)
    }

    fn build(fleet_nodes: usize, paused: bool) -> Self {
        Self {
            shared: Arc::new(Shared {
                state: Mutex::new(ServiceState {
                    fleet: FleetView::new(fleet_nodes),
                    queue: JobQueue::new(),
                    pending: BTreeMap::new(),
                    jobs: BTreeMap::new(),
                    admissions: Vec::new(),
                    next_id: 0,
                    active: 0,
                    waiting_for_spare: 0,
                    paused,
                    metrics: EngineMetrics::default(),
                }),
                changed: Condvar::new(),
            }),
        }
    }

    /// Starts admitting queued jobs (no-op unless built with
    /// [`JobEngine::paused`]).
    pub fn start_admitting(&self) {
        let mut state = self.lock();
        state.paused = false;
        try_admit(&mut state, &self.shared);
        self.shared.changed.notify_all();
    }

    /// Resumes a killed job from its checkpoint directory.
    ///
    /// Scans the [`CheckpointStore`] rooted at `dir` for the newest epoch
    /// that verifies end to end (torn or corrupted epochs are skipped with
    /// a typed reason, never trusted), decodes the job spec embedded in its
    /// manifest, rebuilds the dataset from the synthesis recipe and the
    /// checkpointed scan length, and submits the job with every rank
    /// prefilled from the on-disk state. The resumed run continues at the
    /// checkpointed iteration and finishes **bit-identical** to the same
    /// job never having been killed.
    ///
    /// The resumed job is a fresh submission: new id, no telemetry recorder
    /// (use [`JobEngine::resume_with_telemetry`] to attach one), and the
    /// same checkpoint directory — its epochs continue the store's sequence
    /// numbering.
    pub fn resume(&self, dir: impl Into<PathBuf>) -> Result<JobHandle, JobError> {
        self.resume_with_telemetry(dir, None)
    }

    /// [`JobEngine::resume`] with a flight recorder attached to the resumed
    /// job. The recorder is not part of the on-disk manifest (a writer
    /// cannot be serialised), so resumption is the one lifecycle step where
    /// it must be re-attached explicitly — `load_gen --resume --telemetry`
    /// uses this so a resumed run's trace can be diffed against its
    /// uninterrupted twin.
    pub fn resume_with_telemetry(
        &self,
        dir: impl Into<PathBuf>,
        telemetry: Option<Arc<Telemetry>>,
    ) -> Result<JobHandle, JobError> {
        let dir = dir.into();
        let reject = |error: DurabilityError| JobError::Rejected {
            reason: format!("checkpoint recovery failed: {error}"),
        };
        let store = CheckpointStore::open(&dir).map_err(reject)?;
        let recovery = store.recover().map_err(reject)?;
        // Release the store (and its lock) before submission: the runner
        // thread re-opens the directory for the resumed run.
        drop(store);
        let Some(epoch) = recovery.epoch else {
            let rejected: Vec<String> = recovery
                .rejected
                .iter()
                .map(|(seq, reason)| format!("epoch {seq}: {reason}"))
                .collect();
            return Err(JobError::Rejected {
                reason: format!(
                    "no valid checkpoint epoch under {} ({})",
                    dir.display(),
                    if rejected.is_empty() {
                        "the store is empty".to_string()
                    } else {
                        rejected.join("; ")
                    }
                ),
            });
        };
        let mut spec = decode_spec(&epoch.manifest.spec, &dir).map_err(reject)?;
        spec.checkpoint_dir = Some(dir);
        spec.resume_from = Some(Arc::new(epoch));
        spec.telemetry = telemetry;
        self.submit(spec)
    }

    /// Submits a job. Specs that can never run — an empty grid, more slots
    /// than the fleet owns, an invalid baseline decomposition — are refused
    /// here rather than left to rot in the queue.
    pub fn submit(&self, spec: JobSpec) -> Result<JobHandle, JobError> {
        let slots = spec.slots();
        if slots == 0 {
            self.lock().metrics.rejected += 1;
            return Err(JobError::Rejected {
                reason: "the tile grid is empty (zero slots)".into(),
            });
        }
        if spec.checkpoint_dir.is_some() && spec.recovery == RecoveryPolicy::FailFast {
            // Persistence rides the consistency barrier, which the fail-fast
            // path never reaches; refuse the combination instead of letting
            // the engine assert on it mid-run.
            self.lock().metrics.rejected += 1;
            return Err(JobError::Rejected {
                reason: "durable checkpointing requires a recovering policy \
                         (the fail-fast path has no consistency barrier to persist at)"
                    .into(),
            });
        }
        if spec.method == SolverMethod::HaloVoxelExchange {
            // The baseline's decomposition constraint is knowable now;
            // refuse a spec that would only fail after admission.
            if let Err(error) = HaloVoxelExchangeSolver::new(&spec.dataset, spec.config, spec.grid)
            {
                self.lock().metrics.rejected += 1;
                return Err(JobError::Rejected {
                    reason: error.to_string(),
                });
            }
        }
        let mut state = self.lock();
        // Feasibility is judged against the *live* fleet (total minus
        // retired nodes): a dead node never returns to the free pool, so a
        // job bigger than the live fleet could never be admitted and —
        // under strict head-of-line scheduling — would pin the whole queue
        // forever.
        let live = state.fleet.total_nodes() - state.fleet.dead_count();
        if slots > live {
            state.metrics.rejected += 1;
            return Err(JobError::Rejected {
                reason: format!(
                    "job needs {slots} node(s) but the fleet only has {live} live node(s)"
                ),
            });
        }
        let id = state.next_id;
        state.next_id += 1;
        state.jobs.insert(
            id,
            JobRecord {
                state: JobState::Queued,
                cancel: Arc::new(AtomicBool::new(false)),
                preempt: Arc::new(AtomicBool::new(false)),
                ingest: Arc::new(Mutex::new(Vec::new())),
                node_map: Vec::new(),
                progress: Vec::new(),
                result: None,
                error: None,
                submitted: Instant::now(),
                started: None,
                finished: None,
            },
        );
        state.queue.push(id, spec.priority, slots);
        state.metrics.submitted += 1;
        let depth = state.queue.len() as u64;
        state.metrics.queue_depth.observe(depth);
        if let Some(telemetry) = &spec.telemetry {
            // Lifecycle events live on stream 0 of the job's recorder; they
            // all fall outside the job's run window, so they never race the
            // ranks' own recording.
            telemetry.sink(0).record(TelemetryEvent::JobSubmitted {
                job: id,
                priority: spec.priority as i64,
                slots: slots as u64,
            });
        }
        state.pending.insert(id, spec);
        try_admit(&mut state, &self.shared);
        self.shared.changed.notify_all();
        Ok(JobHandle {
            id,
            shared: Arc::clone(&self.shared),
        })
    }

    /// Blocks until no job is running or waiting.
    pub fn wait_idle(&self) {
        let mut state = self.lock();
        while state.active > 0 || !state.queue.is_empty() {
            state = self
                .shared
                .changed
                .wait(state)
                .expect("service state poisoned");
        }
    }

    /// The jobs admitted so far, in admission order. With strict
    /// head-of-line scheduling this is always the priority-sorted
    /// submission order — the fairness witness the tests pin.
    pub fn admission_log(&self) -> Vec<JobId> {
        self.lock().admissions.clone()
    }

    /// The fleet epoch (bumped once per lease, release, or retirement).
    pub fn fleet_epoch(&self) -> u64 {
        self.lock().fleet.epoch()
    }

    /// Nodes currently free (the shared spare pool).
    pub fn free_nodes(&self) -> usize {
        self.lock().fleet.free_count()
    }

    /// Nodes retired by failure-detector verdicts.
    pub fn dead_nodes(&self) -> usize {
        self.lock().fleet.dead_count()
    }

    /// Total nodes the fleet was created with.
    pub fn total_nodes(&self) -> usize {
        self.lock().fleet.total_nodes()
    }

    /// The conservation invariant: free + leased + dead covers the whole
    /// fleet.
    pub fn fleet_is_conserved(&self) -> bool {
        self.lock().fleet.is_conserved()
    }

    /// A point-in-time metrics registry: job lifecycle counters, fleet
    /// gauges, queue-depth histogram, and the recovery work (restarts,
    /// substitutions, heartbeats, reliable-layer counters) accumulated from
    /// every finished job's [`RecoveryReport`](crate::engine::RecoveryReport).
    /// Render with [`MetricsRegistry::prometheus_text`] or
    /// [`MetricsRegistry::json_snapshot`].
    pub fn metrics_snapshot(&self) -> MetricsRegistry {
        let state = self.lock();
        let m = &state.metrics;
        let mut registry = MetricsRegistry::new();
        registry.inc_counter("jobs_submitted_total", m.submitted);
        registry.inc_counter("jobs_admitted_total", m.admitted);
        registry.inc_counter("jobs_completed_total", m.completed);
        registry.inc_counter("jobs_cancelled_total", m.cancelled);
        registry.inc_counter("jobs_failed_total", m.failed);
        registry.inc_counter("jobs_rejected_total", m.rejected);
        registry.inc_counter("engine_iteration_restarts_total", m.iteration_restarts);
        registry.inc_counter("engine_substitutions_total", m.substitutions);
        registry.inc_counter("engine_heartbeats_sent_total", m.heartbeats_sent);
        registry.inc_counter("engine_heartbeats_observed_total", m.heartbeats_observed);
        registry.inc_counter("comm_retransmits_total", m.retransmits);
        registry.inc_counter("comm_recoveries_total", m.recoveries);
        registry.inc_counter("comm_acks_sent_total", m.acks_sent);
        registry.inc_counter("comm_duplicates_reacked_total", m.duplicates_reacked);
        registry.inc_counter("telemetry_lost_records_total", m.telemetry_lost);
        for (&rank, &lost) in &m.telemetry_lost_by_rank {
            registry.inc_counter(&format!("telemetry_lost_records_rank_{rank}"), lost);
        }
        registry.set_histogram("queue_depth", m.queue_depth.clone());
        registry.set_gauge("fleet_epoch", state.fleet.epoch() as f64);
        registry.set_gauge("fleet_nodes_total", state.fleet.total_nodes() as f64);
        registry.set_gauge("fleet_nodes_free", state.fleet.free_count() as f64);
        registry.set_gauge("fleet_nodes_leased", state.fleet.leased_count() as f64);
        registry.set_gauge("fleet_nodes_dead", state.fleet.dead_count() as f64);
        registry
    }

    /// Live health introspection: per-job phase shares and straggler flags
    /// for every running job, plus queue pressure — computed from the
    /// progress events already streaming into the service, so it can be
    /// polled while jobs run without touching any rank's hot path.
    ///
    /// `straggler_z` is the z-score threshold on per-rank wait shares
    /// (see [`ptycho_telemetry::analysis::straggler_report`] for the
    /// post-hoc twin of this check; both use the same scoring helper).
    pub fn health_snapshot(&self, straggler_z: f64) -> HealthSnapshot {
        let state = self.lock();
        let mut jobs = Vec::new();
        for (&id, record) in &state.jobs {
            if record.state != JobState::Running {
                continue;
            }
            // Latest progress event per rank: the rank's cumulative clocks.
            let mut latest: BTreeMap<usize, &IterationProgress> = BTreeMap::new();
            let mut latest_iteration = 0u64;
            for progress in &record.progress {
                latest.insert(progress.event.rank, &progress.event);
                latest_iteration = latest_iteration.max(progress.event.iteration as u64);
            }
            let mut compute = 0.0;
            let mut wait = 0.0;
            let mut communication = 0.0;
            let mut wait_shares = Vec::with_capacity(latest.len());
            let mut ranks = Vec::with_capacity(latest.len());
            for (&rank, event) in &latest {
                compute += event.time.compute;
                wait += event.time.wait;
                communication += event.time.communication;
                let total = event.time.total();
                wait_shares.push(if total > 0.0 {
                    event.time.wait / total
                } else {
                    0.0
                });
                ranks.push(rank);
            }
            let total = (compute + wait + communication).max(f64::MIN_POSITIVE);
            let stragglers = ptycho_telemetry::analysis::z_scores(&wait_shares)
                .into_iter()
                .zip(&ranks)
                .filter(|&(z, _)| z > straggler_z)
                .map(|(_, &rank)| rank)
                .collect();
            jobs.push(JobHealth {
                job: id,
                ranks_reporting: latest.len(),
                latest_iteration,
                compute_share: compute / total,
                wait_share: wait / total,
                comm_share: communication / total,
                straggler_ranks: stragglers,
            });
        }
        HealthSnapshot {
            jobs,
            queue_depth: state.queue.len(),
            active: state.active,
            waiting_for_spare: state.waiting_for_spare,
            free_nodes: state.fleet.free_count(),
            leased_nodes: state.fleet.leased_count(),
            dead_nodes: state.fleet.dead_count(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ServiceState> {
        self.shared.state.lock().expect("service state poisoned")
    }
}

/// Live phase shares and straggler flags for one running job (see
/// [`JobEngine::health_snapshot`]).
#[derive(Clone, Debug)]
pub struct JobHealth {
    /// The running job.
    pub job: JobId,
    /// How many ranks have reported at least one progress event.
    pub ranks_reporting: usize,
    /// The newest iteration any rank has completed.
    pub latest_iteration: u64,
    /// Fraction of the job's summed simulated time spent computing.
    pub compute_share: f64,
    /// Fraction spent blocked on peers (load imbalance).
    pub wait_share: f64,
    /// Fraction charged for moving bytes.
    pub comm_share: f64,
    /// Ranks whose wait share z-scores above the snapshot's threshold,
    /// in rank order.
    pub straggler_ranks: Vec<usize>,
}

/// A point-in-time view of the whole engine while jobs run (see
/// [`JobEngine::health_snapshot`]).
#[derive(Clone, Debug)]
pub struct HealthSnapshot {
    /// Per-job health, in job-id order (running jobs only).
    pub jobs: Vec<JobHealth>,
    /// Jobs waiting in the admission queue.
    pub queue_depth: usize,
    /// Jobs currently running.
    pub active: usize,
    /// Running jobs blocked waiting for a shared-pool spare.
    pub waiting_for_spare: usize,
    /// Nodes currently free (the shared spare pool).
    pub free_nodes: usize,
    /// Nodes leased to running jobs.
    pub leased_nodes: usize,
    /// Nodes retired by failure-detector verdicts.
    pub dead_nodes: usize,
}

/// A client's handle to one submitted job.
pub struct JobHandle {
    id: JobId,
    shared: Arc<Shared>,
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("id", &self.id)
            .field("state", &self.state())
            .finish()
    }
}

impl JobHandle {
    /// The job's id.
    pub fn id(&self) -> JobId {
        self.id
    }

    /// The job's current lifecycle state.
    pub fn state(&self) -> JobState {
        self.record(|record| record.state)
    }

    /// Requests cancellation. A queued job is cancelled immediately; a
    /// running one is asked to stop cooperatively (its ranks observe the
    /// flag at the next iteration boundary). Terminal jobs are unaffected.
    pub fn cancel(&self) {
        let mut state = self.shared.state.lock().expect("service state poisoned");
        let record = state.jobs.get_mut(&self.id).expect("job record missing");
        match record.state {
            JobState::Queued => {
                record.state = JobState::Cancelled;
                record.error = Some(JobError::Cancelled);
                record.finished = Some(Instant::now());
                state.queue.remove(self.id);
                state.metrics.cancelled += 1;
                if let Some(spec) = state.pending.remove(&self.id) {
                    if let Some(telemetry) = &spec.telemetry {
                        telemetry
                            .sink(0)
                            .record(TelemetryEvent::JobCancelled { job: self.id });
                        telemetry.flush_all();
                    }
                }
                // The removed entry may have been the head-of-line blocker.
                try_admit(&mut state, &self.shared);
                self.shared.changed.notify_all();
            }
            JobState::Running => {
                record.cancel.store(true, Ordering::Relaxed);
                // A running job may be parked in the spare_grant condvar
                // loop (waiting for a shared-pool spare); it only re-reads
                // the cancel flag after a wakeup, so signal one instead of
                // leaving cancellation latent until an unrelated event.
                self.shared.changed.notify_all();
            }
            _ => {}
        }
    }

    /// Blocks until the job reaches a terminal state, then returns its
    /// report.
    pub fn wait(&self) -> JobReport {
        let mut state = self.shared.state.lock().expect("service state poisoned");
        loop {
            let record = state.jobs.get(&self.id).expect("job record missing");
            if record.state.is_terminal() {
                return record.report(self.id);
            }
            state = self
                .shared
                .changed
                .wait(state)
                .expect("service state poisoned");
        }
    }

    /// Streams newly acquired scan positions into the job.
    ///
    /// Frames are queued; a running job is preempted at its next iteration
    /// boundary, splices every queued frame into its dataset with
    /// deterministic re-partitioning, and re-runs over the enlarged
    /// dataset. A queued job splices before its first iteration. The final
    /// volume is **bit-identical** to submitting the full dataset up
    /// front — the streamed-ingestion tests pin this. Frames must continue
    /// the scan contiguously ([`ScanFrame`]s from
    /// [`Dataset::frames_after`]). Frames ingested after the job reached a
    /// terminal state are dropped; returns `false` in that case.
    pub fn ingest(&self, frames: Vec<ScanFrame>) -> bool {
        let state = self.shared.state.lock().expect("service state poisoned");
        let record = state.jobs.get(&self.id).expect("job record missing");
        if record.state.is_terminal() {
            return false;
        }
        record
            .ingest
            .lock()
            .expect("ingest queue poisoned")
            .extend(frames);
        // Raise preempt *after* the frames are visible: the runner always
        // lowers the flag before draining the queue, so a raised flag
        // implies the frames it announces are already there.
        record.preempt.store(true, Ordering::Release);
        true
    }

    /// The progress events emitted so far.
    pub fn progress(&self) -> Vec<JobProgress> {
        self.record(|record| record.progress.clone())
    }

    /// The progress events after the first `seen` — the tailing API: keep a
    /// cursor, poll with it, advance by what comes back.
    pub fn progress_since(&self, seen: usize) -> Vec<JobProgress> {
        self.record(|record| record.progress.get(seen..).unwrap_or_default().to_vec())
    }

    fn record<T>(&self, f: impl FnOnce(&JobRecord) -> T) -> T {
        let state = self.shared.state.lock().expect("service state poisoned");
        f(state.jobs.get(&self.id).expect("job record missing"))
    }
}

/// Fails every queued job whose slot count exceeds the live fleet (total
/// minus retired nodes). A dead node never returns to the free pool, so
/// such a job can never be admitted; with strict head-of-line scheduling
/// it would block the entire queue, and `wait_idle` / `JobHandle::wait`
/// would hang with no failure path. Called with the state lock held after
/// every retirement.
fn fail_unservable_queued(state: &mut ServiceState, shared: &Arc<Shared>) {
    let live = state.fleet.total_nodes() - state.fleet.dead_count();
    let doomed: Vec<(JobId, usize)> = state
        .queue
        .entries()
        .iter()
        .filter(|e| e.slots > live)
        .map(|e| (e.job, e.slots))
        .collect();
    if doomed.is_empty() {
        return;
    }
    for (id, slots) in doomed {
        state.queue.remove(id);
        state.pending.remove(&id);
        let record = state.jobs.get_mut(&id).expect("queued job has a record");
        record.state = JobState::Failed;
        record.error = Some(JobError::Rejected {
            reason: format!(
                "retirements shrank the fleet below the job's size: needs \
                 {slots} node(s) but only {live} live node(s) remain"
            ),
        });
        record.finished = Some(Instant::now());
        state.metrics.failed += 1;
    }
    shared.changed.notify_all();
}

/// Admits queued jobs while the head of the queue fits the free pool,
/// spawning one runner thread per admission. Called with the state lock
/// held, everywhere the free pool grows or the head of the queue changes.
fn try_admit(state: &mut ServiceState, shared: &Arc<Shared>) {
    if state.paused {
        return;
    }
    // Pending spare grants outrank new admissions: a healing job blocked in
    // `spare_grant` gets first claim on freed nodes. Admitting here instead
    // would let a steady stream of admissible queue heads starve the waiter
    // — or trip its deadlock heuristic and fail a job that was about to
    // heal. The served waiter re-runs admission for whatever is left over.
    if state.waiting_for_spare > 0 {
        return;
    }
    while let Some(entry) = state.queue.pop_admissible(state.fleet.free_count()) {
        let leased = state
            .fleet
            .lease(entry.job, entry.slots)
            .expect("pop_admissible checked the free pool");
        let spec = state
            .pending
            .remove(&entry.job)
            .expect("queued job has a pending spec");
        let record = state.jobs.get_mut(&entry.job).expect("job record missing");
        record.state = JobState::Running;
        record.started = Some(Instant::now());
        record.node_map = leased;
        state.admissions.push(entry.job);
        state.active += 1;
        state.metrics.admitted += 1;
        let depth = state.queue.len() as u64;
        state.metrics.queue_depth.observe(depth);
        if let Some(telemetry) = &spec.telemetry {
            telemetry.sink(0).record(TelemetryEvent::JobAdmitted {
                job: entry.job,
                queue_depth: depth,
            });
        }
        let shared = Arc::clone(shared);
        std::thread::spawn(move || run_job_thread(shared, entry.job, spec));
    }
}

/// The per-job runner: builds the job's own backend, wires the job-context
/// hooks into the shared state, runs the solver (re-running after every
/// scan-ingestion splice), and completes the job.
fn run_job_thread(shared: Arc<Shared>, id: JobId, mut spec: JobSpec) {
    let (cancel, preempt, ingest) = {
        let state = shared.state.lock().expect("service state poisoned");
        let record = state.jobs.get(&id).expect("job record missing");
        (
            Arc::clone(&record.cancel),
            Arc::clone(&record.preempt),
            Arc::clone(&record.ingest),
        )
    };
    let progress_shared = Arc::clone(&shared);
    let progress = move |event: IterationProgress| {
        let mut state = progress_shared
            .state
            .lock()
            .expect("service state poisoned");
        if let Some(record) = state.jobs.get_mut(&id) {
            record.progress.push(JobProgress { job: id, event });
        }
    };
    let grant_shared = Arc::clone(&shared);
    let grant_cancel = Arc::clone(&cancel);
    let spare_grant = move |dead_local: usize| -> bool {
        let mut guard = grant_shared.state.lock().expect("service state poisoned");
        let dead_global = {
            let state = &mut *guard;
            let Some(record) = state.jobs.get_mut(&id) else {
                return false;
            };
            let Some(&dead_global) = record.node_map.get(dead_local) else {
                return false;
            };
            dead_global
        };
        if guard.fleet.retire(dead_global).is_err() {
            return false;
        }
        // The retirement just shrank the live fleet: queued jobs bigger
        // than what remains can never be admitted, and head-of-line
        // scheduling would let one pin the queue (and `wait_idle`) forever.
        fail_unservable_queued(&mut guard, &grant_shared);
        // The free pool may be transiently empty when every node is leased
        // out to tenants: block until a neighbouring job releases one. The
        // grant can only fail for good when no other active tenant exists —
        // or every one of them is itself blocked here — so nobody will ever
        // free a node (and when the job was cancelled while waiting).
        loop {
            if let Some(replacement) = guard.fleet.draw_spare(id) {
                if let Some(record) = guard.jobs.get_mut(&id) {
                    // Appended in promotion order: the engine numbers the
                    // k-th promoted spare `slots + k`, which indexes this
                    // entry.
                    record.node_map.push(replacement);
                }
                // Grant served: run the admission that `try_admit` deferred
                // while this job was waiting, so leftover free nodes still
                // reach the queue.
                try_admit(&mut guard, &grant_shared);
                return true;
            }
            if grant_cancel.load(Ordering::Relaxed) || guard.waiting_for_spare + 1 >= guard.active {
                return false;
            }
            guard.waiting_for_spare += 1;
            guard = grant_shared
                .changed
                .wait(guard)
                .expect("service state poisoned");
            guard.waiting_for_spare -= 1;
        }
    };
    // The store opens once per job: every splice round and the kill/resume
    // cycle continue the same monotonic epoch sequence.
    let store = match spec.checkpoint_dir.clone() {
        None => Ok(None),
        Some(dir) => CheckpointStore::open(&dir)
            .map(Some)
            .map_err(|error| JobError::Rejected {
                reason: format!("checkpoint store at {}: {error}", dir.display()),
            }),
    };
    let mut resume_epoch: Option<Arc<RecoveredEpoch>> = spec.resume_from.take();
    let outcome: Result<ReconstructionResult, JobError> = match store {
        Err(error) => Err(error),
        Ok(store) => loop {
            // Splice point. Lower the preempt flag *before* draining the
            // queue: any frame queued after the drain was published before
            // its raise, so it either lands in this drain or leaves the
            // flag raised for the engine's next boundary poll — no frame is
            // ever silently stranded.
            preempt.store(false, Ordering::Release);
            let pending: Vec<ScanFrame> =
                std::mem::take(&mut *ingest.lock().expect("ingest queue poisoned"));
            if !pending.is_empty() {
                let added = pending.len() as u64;
                spec.dataset.ingest(pending);
                if let Some(telemetry) = &spec.telemetry {
                    telemetry.sink(0).record(TelemetryEvent::ScanIngested {
                        job: id,
                        positions: added,
                        total: spec.dataset.scan().len() as u64,
                    });
                }
                // The baseline's decomposition constraint was checked at
                // submission against the pre-splice scan; re-check it
                // against the enlarged one instead of panicking mid-run.
                if spec.method == SolverMethod::HaloVoxelExchange {
                    if let Err(error) =
                        HaloVoxelExchangeSolver::new(&spec.dataset, spec.config, spec.grid)
                    {
                        break Err(JobError::Rejected {
                            reason: format!("ingested scan broke the decomposition: {error}"),
                        });
                    }
                }
            }
            let spec_bytes = encode_spec(&spec);
            let durability = store.as_ref().map(|store| DurabilityHook {
                store,
                resume: resume_epoch.as_deref(),
                kill: spec.fault_policy.as_ref().and_then(|p| p.process_kill),
                spec: &spec_bytes,
            });
            let job = JobContext {
                cancel: Some(&cancel),
                preempt: Some(&preempt),
                progress: Some(&progress),
                spare_grant: Some(&spare_grant),
                telemetry: spec.telemetry.as_deref(),
                durability,
            };
            let round = run_spec(&spec, &job);
            let cancelled = cancel.load(Ordering::Relaxed);
            match round {
                Err(failure)
                    if matches!(failure.error, CommError::Preempted { .. }) && !cancelled =>
                {
                    // An ingestion splice interrupted the run: restart from
                    // the initial guess over the (about to be) enlarged
                    // dataset. The final round is a full deterministic run
                    // over the final dataset, so the result is bit-identical
                    // to a batch submission; the on-disk resume state is
                    // from the pre-splice dataset and no longer applies.
                    resume_epoch = None;
                }
                Ok(result) => {
                    if !cancelled && !ingest.lock().expect("ingest queue poisoned").is_empty() {
                        // Frames landed after the run's last boundary poll:
                        // the job is not done with the data it was promised.
                        resume_epoch = None;
                        continue;
                    }
                    break Ok(result);
                }
                Err(failure)
                    if cancelled || matches!(failure.error, CommError::Cancelled { .. }) =>
                {
                    break Err(JobError::Cancelled);
                }
                Err(failure) => break Err(JobError::Failed(failure)),
            }
        },
    };
    let mut state = shared.state.lock().expect("service state poisoned");
    let record = state.jobs.get_mut(&id).expect("job record missing");
    let mut recovery = None;
    match outcome {
        Ok(result) => {
            record.state = JobState::Completed;
            recovery = Some(result.recovery);
            record.result = Some(result);
        }
        Err(JobError::Cancelled) => {
            record.state = JobState::Cancelled;
            record.error = Some(JobError::Cancelled);
        }
        Err(error) => {
            record.state = JobState::Failed;
            record.error = Some(error);
        }
    }
    record.finished = Some(Instant::now());
    let terminal = record.state;
    let metrics = &mut state.metrics;
    match terminal {
        JobState::Completed => metrics.completed += 1,
        JobState::Cancelled => metrics.cancelled += 1,
        _ => metrics.failed += 1,
    }
    // Fold the job's recovery work into the service totals — healed faults
    // used to vanish silently once the job reported success.
    if let Some(recovery) = recovery {
        metrics.iteration_restarts += recovery.iteration_restarts as u64;
        metrics.substitutions += recovery.substitutions as u64;
        metrics.heartbeats_sent += recovery.heartbeats_sent;
        metrics.heartbeats_observed += recovery.heartbeats_observed;
        metrics.retransmits += recovery.reliable.retransmits;
        metrics.recoveries += recovery.reliable.recoveries;
        metrics.acks_sent += recovery.reliable.acks_sent;
        metrics.duplicates_reacked += recovery.reliable.duplicates_reacked;
    }
    if let Some(telemetry) = &spec.telemetry {
        // The engine's rank threads are joined; stamping the lifecycle
        // event on stream 0 and re-flushing cannot race anything.
        match terminal {
            JobState::Completed => {
                telemetry.sink(0).record(TelemetryEvent::JobCompleted {
                    job: id,
                    iterations: spec.config.iterations as u64,
                });
            }
            JobState::Cancelled => {
                telemetry
                    .sink(0)
                    .record(TelemetryEvent::JobCancelled { job: id });
            }
            _ => {}
        }
        telemetry.flush_all();
        // After the final flush the loss counters are settled: fold them
        // into the service totals so an undersized ring is loud in every
        // metrics snapshot, not just in the trace's sequence gaps.
        for (rank, lost) in telemetry.lost_records_by_rank().into_iter().enumerate() {
            if lost > 0 {
                state.metrics.telemetry_lost += lost;
                *state
                    .metrics
                    .telemetry_lost_by_rank
                    .entry(rank as u64)
                    .or_insert(0) += lost;
            }
        }
    }
    state.active -= 1;
    state.fleet.release(id);
    try_admit(&mut state, &shared);
    drop(state);
    shared.changed.notify_all();
}

/// Builds the job's backend and runs its solver. Each arm hands a concrete
/// backend type to the generic runner — `CommBackend` is not object-safe
/// (generic `run`), so dispatch is by enumeration, not by `dyn`.
fn run_spec(spec: &JobSpec, job: &JobContext<'_>) -> Result<ReconstructionResult, RankFailure> {
    let topology = ClusterTopology::summit();
    match (spec.backend, spec.fault_policy.clone()) {
        (ServiceBackend::Lockstep, None) => run_method(spec, &LockstepBackend::new(topology), job),
        (ServiceBackend::Lockstep, Some(policy)) => run_method(
            spec,
            &FaultInjectionBackend::new(LockstepBackend::new(topology), policy),
            job,
        ),
        (ServiceBackend::Threaded { recv_timeout }, None) => run_method(
            spec,
            &Cluster::new(topology).with_recv_timeout(recv_timeout),
            job,
        ),
        (ServiceBackend::Threaded { recv_timeout }, Some(policy)) => run_method(
            spec,
            &FaultInjectionBackend::new(
                Cluster::new(topology).with_recv_timeout(recv_timeout),
                policy,
            ),
            job,
        ),
    }
}

/// Current encoding version of the manifest-embedded job spec.
const SPEC_VERSION: u8 = 1;

fn put_opt_f64(w: &mut ByteWriter, value: Option<f64>) {
    match value {
        None => w.put_u8(0),
        Some(v) => {
            w.put_u8(1);
            w.put_f64(v);
        }
    }
}

/// Encodes everything [`JobEngine::resume`] needs to rebuild the job from
/// the checkpoint directory alone. The dataset is stored as its synthesis
/// recipe plus the current scan length — the synthesized acquisition is
/// deterministic, so the recipe *is* the data. Embedded opaquely in every
/// [`EpochManifest`](crate::durability::EpochManifest).
fn encode_spec(spec: &JobSpec) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u8(SPEC_VERSION);
    let synth = spec.dataset.synthetic_config();
    w.put_u64(synth.object_px as u64);
    w.put_u64(synth.slices as u64);
    w.put_u64(synth.scan_grid.0 as u64);
    w.put_u64(synth.scan_grid.1 as u64);
    w.put_u64(synth.window_px as u64);
    put_opt_f64(&mut w, synth.dose);
    w.put_f64(synth.defocus_pm);
    w.put_u64(synth.seed);
    w.put_u64(spec.dataset.scan().len() as u64);
    let c = &spec.config;
    w.put_u64(c.iterations as u64);
    w.put_f64(c.step_relaxation);
    w.put_u64(c.halo_px as u64);
    match c.pass_frequency {
        PassFrequency::EveryProbe => {
            w.put_u8(0);
            w.put_u64(0);
        }
        PassFrequency::PerIteration(times) => {
            w.put_u8(1);
            w.put_u64(times as u64);
        }
    }
    w.put_u8(c.local_updates as u8);
    w.put_u64(c.hve_extra_probe_rows as u64);
    w.put_u64(c.hve_exchange_period as u64);
    // The absent tags of two retired settings (probe-support pruning, then
    // the detector ROI): the version-1 layout keeps their positions, so
    // stores written before their removal still decode.
    w.put_u8(0);
    w.put_u8(0);
    w.put_u64(spec.grid.0 as u64);
    w.put_u64(spec.grid.1 as u64);
    w.put_u8(match spec.method {
        SolverMethod::GradientDecomposition => 0,
        SolverMethod::HaloVoxelExchange => 1,
    });
    w.put_u64(spec.priority as i64 as u64);
    match spec.recovery {
        RecoveryPolicy::FailFast => {
            w.put_u8(0);
            w.put_u64(0);
            w.put_u64(0);
        }
        RecoveryPolicy::RetransmitThenRestart {
            max_iteration_restarts,
        } => {
            w.put_u8(1);
            w.put_u64(max_iteration_restarts as u64);
            w.put_u64(0);
        }
        RecoveryPolicy::SubstituteSpare {
            spares,
            max_iteration_restarts,
        } => {
            w.put_u8(2);
            w.put_u64(max_iteration_restarts as u64);
            w.put_u64(spares as u64);
        }
    }
    match &spec.fault_policy {
        None => w.put_u8(0),
        Some(policy) => {
            w.put_u8(1);
            w.put_u64(policy.seed);
            w.put_f64(policy.drop_probability);
            w.put_f64(policy.duplicate_probability);
            w.put_f64(policy.delay_probability);
            match policy.only_tag {
                None => w.put_u8(0),
                Some(tag) => {
                    w.put_u8(1);
                    w.put_u64(tag);
                }
            }
            match policy.drop_exact {
                None => w.put_u8(0),
                Some((from, to, tag, seq)) => {
                    w.put_u8(1);
                    w.put_u64(from as u64);
                    w.put_u64(to as u64);
                    w.put_u64(tag);
                    w.put_u64(seq);
                }
            }
            match policy.kill {
                None => w.put_u8(0),
                Some((node, after_sends)) => {
                    w.put_u8(1);
                    w.put_u64(node as u64);
                    w.put_u64(after_sends);
                }
            }
            match policy.process_kill {
                None => w.put_u8(0),
                Some((seq, phase)) => {
                    w.put_u8(1);
                    w.put_u64(seq);
                    w.put_u8(match phase {
                        CrashPhase::BeforeRename => 0,
                        CrashPhase::DuringRename => 1,
                        CrashPhase::AfterRename => 2,
                    });
                }
            }
        }
    }
    match spec.backend {
        ServiceBackend::Lockstep => {
            w.put_u8(0);
            w.put_u64(0);
        }
        ServiceBackend::Threaded { recv_timeout } => {
            w.put_u8(1);
            w.put_u64(recv_timeout.as_nanos() as u64);
        }
    }
    w.into_bytes()
}

/// Decodes a manifest-embedded spec back into a submittable [`JobSpec`]
/// (telemetry, checkpoint directory, and resume state are not part of the
/// encoding; the caller attaches them). `path` labels decode errors.
fn decode_spec(bytes: &[u8], path: &std::path::Path) -> Result<JobSpec, DurabilityError> {
    let corrupt = |detail: String| DurabilityError::Corrupt {
        path: path.to_path_buf(),
        detail,
    };
    let mut r = ByteReader::new(bytes, path);
    let version = r.get_u8()?;
    if version != SPEC_VERSION {
        return Err(corrupt(format!(
            "unsupported spec version {version} (expected {SPEC_VERSION})"
        )));
    }
    let synth = SyntheticConfig {
        object_px: r.get_u64()? as usize,
        slices: r.get_u64()? as usize,
        scan_grid: (r.get_u64()? as usize, r.get_u64()? as usize),
        window_px: r.get_u64()? as usize,
        dose: r.get_opt(ByteReader::get_f64)?,
        defocus_pm: r.get_f64()?,
        seed: r.get_u64()?,
    };
    let scan_len = r.get_u64()? as usize;
    let config = SolverConfig {
        iterations: r.get_u64()? as usize,
        step_relaxation: r.get_f64()?,
        halo_px: r.get_u64()? as usize,
        pass_frequency: match (r.get_u8()?, r.get_u64()?) {
            (0, _) => PassFrequency::EveryProbe,
            (1, times) => PassFrequency::PerIteration(times as usize),
            (tag, _) => return Err(corrupt(format!("unknown pass-frequency tag {tag}"))),
        },
        local_updates: r.get_u8()? != 0,
        hve_extra_probe_rows: r.get_u64()? as usize,
        hve_exchange_period: r.get_u64()? as usize,
    };
    for retired in ["probe-support pruning", "a detector ROI"] {
        if r.get_opt(|_| Ok(()))?.is_some() {
            return Err(corrupt(format!(
                "the spec sets {retired}, which is no longer supported"
            )));
        }
    }
    let grid = (r.get_u64()? as usize, r.get_u64()? as usize);
    let method = match r.get_u8()? {
        0 => SolverMethod::GradientDecomposition,
        1 => SolverMethod::HaloVoxelExchange,
        tag => return Err(corrupt(format!("unknown solver-method tag {tag}"))),
    };
    let priority = r.get_u64()? as i64 as i32;
    let recovery = match (r.get_u8()?, r.get_u64()? as usize, r.get_u64()? as usize) {
        (0, _, _) => RecoveryPolicy::FailFast,
        (1, max_iteration_restarts, _) => RecoveryPolicy::RetransmitThenRestart {
            max_iteration_restarts,
        },
        (2, max_iteration_restarts, spares) => RecoveryPolicy::SubstituteSpare {
            spares,
            max_iteration_restarts,
        },
        (tag, _, _) => return Err(corrupt(format!("unknown recovery-policy tag {tag}"))),
    };
    let fault_policy = r.get_opt(|r| {
        Ok(FaultPolicy {
            seed: r.get_u64()?,
            drop_probability: r.get_f64()?,
            duplicate_probability: r.get_f64()?,
            delay_probability: r.get_f64()?,
            only_tag: r.get_opt(ByteReader::get_u64)?,
            drop_exact: r.get_opt(|r| {
                Ok((
                    r.get_u64()? as usize,
                    r.get_u64()? as usize,
                    r.get_u64()?,
                    r.get_u64()?,
                ))
            })?,
            kill: r.get_opt(|r| Ok((r.get_u64()? as usize, r.get_u64()?)))?,
            process_kill: r.get_opt(|r| {
                let seq = r.get_u64()?;
                let phase = match r.get_u8()? {
                    0 => CrashPhase::BeforeRename,
                    1 => CrashPhase::DuringRename,
                    2 => CrashPhase::AfterRename,
                    tag => return Err(corrupt(format!("unknown crash-phase tag {tag}"))),
                };
                Ok((seq, phase))
            })?,
        })
    })?;
    let backend = match (r.get_u8()?, r.get_u64()?) {
        (0, _) => ServiceBackend::Lockstep,
        (1, nanos) => ServiceBackend::Threaded {
            recv_timeout: Duration::from_nanos(nanos),
        },
        (tag, _) => return Err(corrupt(format!("unknown backend tag {tag}"))),
    };
    if !r.is_exhausted() {
        return Err(corrupt("trailing bytes after the job spec".to_string()));
    }
    // The synthesized acquisition is deterministic: re-running the recipe
    // and trimming to the checkpointed scan length reproduces the exact
    // dataset the killed process was reconstructing (including every
    // ingested splice, because splices come from the same recipe).
    let full = Dataset::synthesize(synth);
    if scan_len > full.scan().len() {
        return Err(corrupt(format!(
            "checkpointed scan length {scan_len} exceeds the {} positions the \
             synthesis recipe produces",
            full.scan().len()
        )));
    }
    let dataset = full.with_scan_prefix(scan_len);
    Ok(JobSpec {
        dataset,
        config,
        grid,
        method,
        priority,
        recovery,
        fault_policy,
        backend,
        telemetry: None,
        checkpoint_dir: None,
        resume_from: None,
    })
}

fn run_method<B: CommBackend>(
    spec: &JobSpec,
    backend: &B,
    job: &JobContext<'_>,
) -> Result<ReconstructionResult, RankFailure> {
    match spec.method {
        SolverMethod::GradientDecomposition => GradientDecompositionSolver::new(
            &spec.dataset,
            spec.config,
            spec.grid,
        )
        .run_job(backend, spec.recovery, job),
        SolverMethod::HaloVoxelExchange => {
            HaloVoxelExchangeSolver::new(&spec.dataset, spec.config, spec.grid)
                .expect("validated at submission")
                .run_job(backend, spec.recovery, job)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    /// Byte offsets in the version-1 layout of a spec whose every optional
    /// field is present ([`full_spec`]).
    const OPTION_TAGS: [(usize, &str); 6] = [
        (41, "dose"),
        (168, "fault_policy"),
        (201, "only_tag"),
        (210, "drop_exact"),
        (243, "kill"),
        (260, "process_kill"),
    ];
    /// Where the retired probe-support and detector-ROI settings sat.
    const RETIRED_TAGS: [(usize, &str); 2] =
        [(124, "probe-support pruning"), (125, "detector ROI")];
    const FULL_SPEC_LEN: usize = 279;

    fn spec(dose: Option<f64>) -> JobSpec {
        let dataset = Dataset::synthesize(SyntheticConfig {
            dose,
            ..SyntheticConfig::tiny()
        });
        let config = SolverConfig {
            iterations: 3,
            halo_px: 20,
            ..SolverConfig::default()
        };
        JobSpec::new(dataset, config, (1, 2))
    }

    fn full_fault_policy(phase: CrashPhase) -> FaultPolicy {
        FaultPolicy {
            only_tag: Some(7),
            drop_exact: Some((0, 1, 7, 3)),
            kill: Some((1, 5)),
            process_kill: Some((2, phase)),
            ..FaultPolicy::reliable(11)
                .drop(0.125)
                .duplicate(0.25)
                .delay(0.0625)
        }
    }

    fn full_spec() -> JobSpec {
        spec(Some(1e4))
            .with_priority(-3)
            .with_fault_policy(full_fault_policy(CrashPhase::DuringRename))
    }

    fn decode(bytes: &[u8]) -> Result<JobSpec, DurabilityError> {
        decode_spec(bytes, Path::new("spec-under-test"))
    }

    /// The `Corrupt` detail of a rejected buffer; any other outcome fails.
    fn corrupt_detail(bytes: &[u8]) -> String {
        match decode(bytes) {
            Err(DurabilityError::Corrupt { detail, .. }) => detail,
            Err(other) => panic!("expected Corrupt, got {other}"),
            Ok(_) => panic!("a damaged spec decoded"),
        }
    }

    fn assert_round_trips(spec: &JobSpec) {
        let bytes = encode_spec(spec);
        let decoded = decode(&bytes).expect("an encoded spec decodes");
        // The dataset recipe has no `PartialEq`; the re-encoding below pins it.
        assert_eq!(decoded.dataset.scan().len(), spec.dataset.scan().len());
        assert_eq!(decoded.config, spec.config);
        assert_eq!(decoded.grid, spec.grid);
        assert_eq!(decoded.method, spec.method);
        assert_eq!(decoded.priority, spec.priority);
        assert_eq!(decoded.recovery, spec.recovery);
        assert_eq!(decoded.fault_policy, spec.fault_policy);
        assert_eq!(decoded.backend, spec.backend);
        assert_eq!(encode_spec(&decoded), bytes);
    }

    #[test]
    fn spec_round_trips_through_every_enum_arm() {
        let base = spec(None);
        assert_round_trips(&base);
        assert_round_trips(&full_spec());
        for pass_frequency in [PassFrequency::EveryProbe, PassFrequency::PerIteration(2)] {
            let mut spec = base.clone();
            spec.config.pass_frequency = pass_frequency;
            spec.config.local_updates = false;
            assert_round_trips(&spec);
        }
        for method in [
            SolverMethod::GradientDecomposition,
            SolverMethod::HaloVoxelExchange,
        ] {
            assert_round_trips(&base.clone().with_method(method));
        }
        for recovery in [
            RecoveryPolicy::FailFast,
            RecoveryPolicy::RetransmitThenRestart {
                max_iteration_restarts: 4,
            },
            RecoveryPolicy::SubstituteSpare {
                spares: 2,
                max_iteration_restarts: 1,
            },
        ] {
            assert_round_trips(&base.clone().with_recovery(recovery));
        }
        for backend in [
            ServiceBackend::Lockstep,
            ServiceBackend::Threaded {
                recv_timeout: Duration::from_millis(250),
            },
        ] {
            assert_round_trips(&base.clone().with_backend(backend));
        }
        assert_round_trips(&base.clone().with_fault_policy(FaultPolicy::reliable(3)));
        for phase in [
            CrashPhase::BeforeRename,
            CrashPhase::DuringRename,
            CrashPhase::AfterRename,
        ] {
            assert_round_trips(&base.clone().with_fault_policy(full_fault_policy(phase)));
        }
    }

    #[test]
    fn the_version_1_layout_keeps_the_retired_positions() {
        let bytes = encode_spec(&full_spec());
        assert_eq!(bytes.len(), FULL_SPEC_LEN);
        assert_eq!(bytes[0], SPEC_VERSION);
        for (offset, name) in OPTION_TAGS {
            assert_eq!(bytes[offset], 1, "{name} tag at {offset}");
        }
        for (offset, name) in RETIRED_TAGS {
            assert_eq!(bytes[offset], 0, "retired {name} tag at {offset}");
        }
    }

    #[test]
    fn only_tag_1_means_present() {
        let bytes = encode_spec(&full_spec());
        for (offset, name) in OPTION_TAGS.into_iter().chain(RETIRED_TAGS) {
            for tag in [2u8, 255] {
                let mut damaged = bytes.clone();
                damaged[offset] = tag;
                assert_eq!(
                    corrupt_detail(&damaged),
                    format!("unknown option tag {tag}"),
                    "{name} tag at {offset}"
                );
            }
        }
    }

    #[test]
    fn a_retired_setting_is_refused_by_name() {
        let bytes = encode_spec(&full_spec());
        for (offset, name) in RETIRED_TAGS {
            let mut damaged = bytes.clone();
            damaged[offset] = 1;
            let detail = corrupt_detail(&damaged);
            assert!(detail.contains(name), "{detail:?} should name {name}");
        }
    }

    #[test]
    fn trailing_bytes_and_every_truncation_are_corrupt() {
        let bytes = encode_spec(&full_spec());
        let mut longer = bytes.clone();
        longer.push(0);
        assert_eq!(corrupt_detail(&longer), "trailing bytes after the job spec");
        for len in 0..bytes.len() {
            assert_eq!(
                corrupt_detail(&bytes[..len]),
                "payload truncated",
                "at {len}"
            );
        }
    }
}
