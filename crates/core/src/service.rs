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
//! * **Observability**: per-iteration [`IterationProgress`] events (rank,
//!   iteration, cost, simulated clock, peak memory) stream into the job's
//!   record, which a client can tail; the final [`JobReport`] carries the
//!   full [`ReconstructionResult`] and [`RecoveryReport`] plus queue/run
//!   timing. Engine metrics are counted from the records, not kept beside
//!   them.
//!
//! [`FleetView`]: ptycho_cluster::FleetView
//! [`JobQueue`]: ptycho_cluster::JobQueue
//! [`JobContext::spare_grant`]: crate::engine::JobContext::spare_grant

mod runner;

use crate::config::SolverConfig;
use crate::durability::{
    decode_exactly, decode_spec, CheckpointStore, DurabilityError, RecoveredEpoch,
};
use crate::engine::{IterationProgress, ReconstructionResult, RecoveryReport};
use crate::gradient_decomp::solver::GradientDecompositionSolver;
use crate::halo_exchange::solver::HaloVoxelExchangeSolver;
use crate::worker::TileVolume;
use ptycho_cluster::{FaultPolicy, FleetView, JobId, JobQueue, NodeId, QueuedJob, RankFailure};
use ptycho_sim::dataset::Dataset;
use ptycho_telemetry::{Histogram, MetricsRegistry, Telemetry, TelemetryEvent};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Which reconstruction method a job runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolverMethod {
    /// The paper's Gradient Decomposition solver.
    GradientDecomposition,
    /// The Halo Voxel Exchange baseline.
    HaloVoxelExchange,
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
    /// Optional fault injection wrapped around the job's backend
    /// (job-local: seeds and rank ids are the job's own).
    pub fault_policy: Option<FaultPolicy>,
    /// Optional flight recorder: comm, iteration, recovery, and job
    /// lifecycle events stream into it (and its durable sink, if any).
    pub telemetry: Option<Arc<Telemetry>>,
    /// When set, every consistency barrier durably checkpoints the job into
    /// a [`CheckpointStore`] rooted at this directory, and
    /// [`JobEngine::resume`] can rebuild the job from the directory alone
    /// after a process kill.
    pub checkpoint_dir: Option<PathBuf>,
    /// A recovered on-disk epoch to resume from (set only by
    /// [`JobEngine::resume`]; the engine prefills rank state, membership,
    /// and recovery counters from it).
    pub(crate) resume_from: Option<Arc<Resumption>>,
}

/// What [`JobEngine::resume`] hands the resumed job: the epoch it recovered,
/// and the store it recovered it from, still open and holding the lock,
/// which the job's runner takes to persist into. The store is opened once
/// per resume, and no other process can take it between the scan and the
/// run.
#[derive(Debug)]
pub(crate) struct Resumption {
    pub(crate) epoch: RecoveredEpoch,
    store: Mutex<Option<CheckpointStore>>,
}

impl Resumption {
    /// The open store, to the first caller (the job's runner); `None` once
    /// taken.
    pub(crate) fn take_store(&self) -> Option<CheckpointStore> {
        self.store
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
    }
}

impl JobSpec {
    /// A Gradient Decomposition job at priority 0. Every job runs on its
    /// own lockstep backend with checkpoint restart and shared-pool
    /// substitution.
    pub fn new(dataset: Dataset, config: SolverConfig, grid: (usize, usize)) -> Self {
        Self {
            dataset,
            config,
            grid,
            method: SolverMethod::GradientDecomposition,
            priority: 0,
            fault_policy: None,
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

    /// Wraps the job's backend in fault injection.
    pub fn with_fault_policy(mut self, policy: FaultPolicy) -> Self {
        self.fault_policy = Some(policy);
        self
    }

    /// Attaches a flight recorder to the job.
    pub fn with_telemetry(mut self, telemetry: Arc<Telemetry>) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Durably checkpoints the job into a [`CheckpointStore`] rooted at
    /// `dir`, making it resumable with [`JobEngine::resume`] after a
    /// process kill. A process-kill fault requires one.
    pub fn with_checkpoint_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.checkpoint_dir = Some(dir.into());
        self
    }

    /// How many fleet nodes the job needs (saturating: a grid that large
    /// is refused at submission as larger than the object).
    pub fn slots(&self) -> usize {
        self.grid.0.saturating_mul(self.grid.1)
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
    /// The spec could never run: refused by [`JobEngine::submit`], or failed
    /// in the queue once retirements shrank the live fleet below its size.
    Rejected {
        /// Human-readable refusal reason.
        reason: String,
    },
    /// The job was cancelled (before admission or cooperatively mid-run).
    Cancelled,
    /// The run failed and recovery could not heal it.
    Failed(RankFailure),
    /// The job's runner panicked; the job was failed and its nodes
    /// released instead of leaving it running forever.
    Panicked {
        /// The panic message.
        message: String,
    },
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Rejected { reason } => write!(f, "job rejected: {reason}"),
            JobError::Cancelled => write!(f, "job cancelled"),
            JobError::Failed(failure) => write!(f, "job failed: {failure}"),
            JobError::Panicked { message } => write!(f, "job panicked: {message}"),
        }
    }
}

impl std::error::Error for JobError {}

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

/// Everything the service tracks about one job — the only per-job state;
/// [`JobEngine::metrics_snapshot`] counts these records.
struct JobRecord {
    state: JobState,
    /// The spec while the job is queued. Admission hands it to the runner;
    /// a cancel or a fleet shrink [`dequeue`]s it to end the job.
    spec: Option<JobSpec>,
    cancel: Arc<AtomicBool>,
    /// Job-local node id → fleet node. Indices `0..slots` are the initial
    /// lease; each drawn spare is appended in promotion order, mirroring the
    /// engine's `slots + k` numbering for the k-th promotion.
    node_map: Vec<NodeId>,
    progress: Vec<IterationProgress>,
    result: Option<ReconstructionResult>,
    error: Option<JobError>,
    /// Flight-recorder records lost, per rank, counted by the final flush
    /// in [`runner::end_job`].
    telemetry_lost: Vec<u64>,
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

struct ServiceState {
    fleet: FleetView,
    queue: JobQueue,
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
    /// Submissions refused before they got a record.
    rejected: u64,
    /// Queue depth sampled at every submission and admission.
    queue_depth: Histogram,
}

struct Shared {
    state: Mutex<ServiceState>,
    changed: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, ServiceState> {
        self.state.lock().expect("service state poisoned")
    }

    /// Releases `guard` until the state next changes.
    fn wait<'a>(&self, guard: MutexGuard<'a, ServiceState>) -> MutexGuard<'a, ServiceState> {
        self.changed.wait(guard).expect("service state poisoned")
    }
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
                    jobs: BTreeMap::new(),
                    admissions: Vec::new(),
                    next_id: 0,
                    active: 0,
                    waiting_for_spare: 0,
                    paused,
                    rejected: 0,
                    queue_depth: Histogram::default(),
                }),
                changed: Condvar::new(),
            }),
        }
    }

    /// Starts admitting queued jobs (no-op unless built with
    /// [`JobEngine::paused`]).
    pub fn start_admitting(&self) {
        let mut state = self.shared.lock();
        state.paused = false;
        try_admit(&mut state, &self.shared);
        self.shared.changed.notify_all();
    }

    /// Resumes a killed job from its checkpoint directory.
    ///
    /// Scans the [`CheckpointStore`] rooted at `dir` for the newest epoch
    /// that verifies end to end (torn or corrupted epochs are skipped with
    /// a typed reason, never trusted), decodes the job spec embedded in its
    /// manifest, rebuilds the dataset from its synthesis recipe, and
    /// submits the job with every rank prefilled from the on-disk state.
    /// The resumed run continues at the checkpointed iteration and finishes
    /// **bit-identical** to the same job never having been killed.
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
        let Some(epoch) = recovery.epoch else {
            let rejected = recovery.rejected;
            return Err(reject(DurabilityError::NoValidEpoch { rejected }));
        };
        let mut spec = decode_spec(&epoch.manifest.spec, &dir).map_err(reject)?();
        spec.checkpoint_dir = Some(dir);
        // The store stays open, lock and all, until the runner takes it (or
        // the job ends without running, dropping it with the spec).
        spec.resume_from = Some(Arc::new(Resumption {
            epoch,
            store: Mutex::new(Some(store)),
        }));
        spec.telemetry = telemetry;
        self.submit(spec)
    }

    /// Submits a job. A spec that can never run is refused here, with a
    /// reason naming the cause, rather than left to rot in the queue or to
    /// panic its runner.
    pub fn submit(&self, spec: JobSpec) -> Result<JobHandle, JobError> {
        let refusal = refusal_reason(&spec);
        let slots = spec.slots();
        let mut state = self.shared.lock();
        // Feasibility is judged against the *live* fleet (total minus
        // retired nodes): a dead node never returns to the free pool, so a
        // job bigger than the live fleet could never be admitted and —
        // under strict head-of-line scheduling — would pin the whole queue
        // forever.
        let live = state.fleet.total_nodes() - state.fleet.dead_count();
        let refusal = refusal.or_else(|| {
            (slots > live).then(|| {
                format!("job needs {slots} node(s) but the fleet only has {live} live node(s)")
            })
        });
        if let Some(reason) = refusal {
            state.rejected += 1;
            return Err(JobError::Rejected { reason });
        }
        let id = state.next_id;
        state.next_id += 1;
        state.queue.push(id, spec.priority, slots);
        let depth = state.queue.len() as u64;
        state.queue_depth.observe(depth);
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
        state.jobs.insert(
            id,
            JobRecord {
                state: JobState::Queued,
                spec: Some(spec),
                cancel: Arc::new(AtomicBool::new(false)),
                node_map: Vec::new(),
                progress: Vec::new(),
                result: None,
                error: None,
                telemetry_lost: Vec::new(),
                submitted: Instant::now(),
                started: None,
                finished: None,
            },
        );
        try_admit(&mut state, &self.shared);
        self.shared.changed.notify_all();
        Ok(JobHandle {
            id,
            shared: Arc::clone(&self.shared),
        })
    }

    /// Blocks until every job is terminal: none is queued, running, or
    /// being ended.
    pub fn wait_idle(&self) {
        let mut state = self.shared.lock();
        while state.jobs.values().any(|r| !r.state.is_terminal()) {
            state = self.shared.wait(state);
        }
    }

    /// The jobs admitted so far, in admission order. With strict
    /// head-of-line scheduling this is always the priority-sorted
    /// submission order — the fairness witness the tests pin.
    pub fn admission_log(&self) -> Vec<JobId> {
        self.shared.lock().admissions.clone()
    }

    /// The fleet epoch (bumped once per lease, release, or retirement).
    pub fn fleet_epoch(&self) -> u64 {
        self.shared.lock().fleet.epoch()
    }

    /// Nodes currently free (the shared spare pool).
    pub fn free_nodes(&self) -> usize {
        self.shared.lock().fleet.free_count()
    }

    /// Nodes retired by failure-detector verdicts.
    pub fn dead_nodes(&self) -> usize {
        self.shared.lock().fleet.dead_count()
    }

    /// Total nodes the fleet was created with.
    pub fn total_nodes(&self) -> usize {
        self.shared.lock().fleet.total_nodes()
    }

    /// The conservation invariant: free + leased + dead covers the whole
    /// fleet.
    pub fn fleet_is_conserved(&self) -> bool {
        self.shared.lock().fleet.is_conserved()
    }

    /// A point-in-time metrics registry, counted from the job records: job
    /// lifecycle counters, the recovery work (restarts, substitutions) of
    /// every completed job's
    /// [`RecoveryReport`] and flight-recorder losses, plus the rejection
    /// count, the queue-depth histogram and the fleet gauges. Render with
    /// [`MetricsRegistry::prometheus_text`].
    pub fn metrics_snapshot(&self) -> MetricsRegistry {
        let state = self.shared.lock();
        let mut registry = MetricsRegistry::new();
        let in_state = |s| state.jobs.values().filter(|r| r.state == s).count() as u64;
        for (name, value) in [
            ("jobs_submitted_total", state.jobs.len() as u64),
            ("jobs_admitted_total", state.admissions.len() as u64),
            ("jobs_completed_total", in_state(JobState::Completed)),
            ("jobs_cancelled_total", in_state(JobState::Cancelled)),
            ("jobs_failed_total", in_state(JobState::Failed)),
            ("jobs_rejected_total", state.rejected),
            ("telemetry_lost_records_total", 0),
        ] {
            registry.inc_counter(name, value);
        }
        // Only completed records hold a result; the default report seeds
        // every recovery counter at zero.
        let completed = state.jobs.values().filter_map(|r| r.result.as_ref());
        for r in std::iter::once(RecoveryReport::default()).chain(completed.map(|r| r.recovery)) {
            for (name, value) in [
                (
                    "engine_iteration_restarts_total",
                    r.iteration_restarts as u64,
                ),
                ("engine_substitutions_total", r.substitutions as u64),
            ] {
                registry.inc_counter(name, value);
            }
        }
        // Per rank, so an undersized ring names the exact stream whose
        // durable trace has sequence gaps; only non-zero ranks get a counter.
        for record in state.jobs.values() {
            for (rank, &lost) in record.telemetry_lost.iter().enumerate() {
                if lost > 0 {
                    registry.inc_counter("telemetry_lost_records_total", lost);
                    registry.inc_counter(&format!("telemetry_lost_records_rank_{rank}"), lost);
                }
            }
        }
        registry.set_histogram("queue_depth", state.queue_depth.clone());
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
        let state = self.shared.lock();
        let mut jobs = Vec::new();
        for (&id, record) in &state.jobs {
            if record.state != JobState::Running {
                continue;
            }
            // Latest progress event per rank: the rank's cumulative clocks.
            let mut latest: BTreeMap<usize, &IterationProgress> = BTreeMap::new();
            let mut latest_iteration = 0u64;
            for event in &record.progress {
                latest.insert(event.rank, event);
                latest_iteration = latest_iteration.max(event.iteration as u64);
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
        let mut state = self.shared.lock();
        let record = state.jobs.get(&self.id).expect("job record missing");
        match record.state {
            // Ended once the guard is dropped; `finish` re-runs admission, as
            // the removed entry may have been the head-of-line blocker. A
            // queued job already dequeued is being ended by a fleet shrink.
            JobState::Queued => {
                if let Some(spec) = dequeue(&mut state, self.id) {
                    drop(state);
                    runner::end_job(&self.shared, self.id, &spec, Err(JobError::Cancelled));
                }
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
        let mut state = self.shared.lock();
        loop {
            let record = state.jobs.get(&self.id).expect("job record missing");
            if record.state.is_terminal() {
                return record.report(self.id);
            }
            state = self.shared.wait(state);
        }
    }

    /// The progress events emitted so far.
    pub fn progress(&self) -> Vec<IterationProgress> {
        self.record(|record| record.progress.clone())
    }

    /// The progress events after the first `seen` — the tailing API: keep a
    /// cursor, poll with it, advance by what comes back.
    pub fn progress_since(&self, seen: usize) -> Vec<IterationProgress> {
        self.record(|record| record.progress.get(seen..).unwrap_or_default().to_vec())
    }

    fn record<T>(&self, f: impl FnOnce(&JobRecord) -> T) -> T {
        let state = self.shared.lock();
        f(state.jobs.get(&self.id).expect("job record missing"))
    }
}

/// Takes queued job `id` out of the queue to end it, handing back its spec;
/// `None` once admission or another caller has taken it. Called with the
/// state lock held; the caller ends the job ([`runner::end_job`]) once the
/// guard is dropped.
fn dequeue(state: &mut ServiceState, id: JobId) -> Option<JobSpec> {
    let spec = state.jobs.get_mut(&id)?.spec.take()?;
    state.queue.remove(id);
    Some(spec)
}

/// Why `spec` can never run, judged from the spec alone; `None` when it
/// can. Every job, resumed ones included, passes it in [`JobEngine::submit`],
/// which adds the live-fleet check under the service lock.
fn refusal_reason(spec: &JobSpec) -> Option<String> {
    let (rows, cols) = spec.grid;
    let (_, object_rows, object_cols) = spec.dataset.object_shape();
    if rows > object_rows || cols > object_cols {
        return Some(format!(
            "the tile grid {rows}x{cols} is larger than the {object_rows}x{object_cols} px object"
        ));
    }
    if spec.slots() == 0 {
        return Some("the tile grid is empty (zero slots)".into());
    }
    // Each rank keeps one `f64` cost per iteration; a history past
    // `isize::MAX` bytes would panic its allocation on a rank thread.
    let iterations = spec.config.iterations;
    let fits = iterations
        .checked_mul(std::mem::size_of::<f64>())
        .is_some_and(|bytes| bytes <= isize::MAX as usize);
    if !fits {
        return Some(format!(
            "{iterations} iterations need a cost history larger than isize::MAX bytes"
        ));
    }
    let process_kill = spec.fault_policy.as_ref().and_then(|p| p.process_kill);
    if process_kill.is_some() && spec.checkpoint_dir.is_none() {
        return Some("a process-kill fault needs a checkpoint dir to strike".into());
    }
    // The baseline's decomposition constraint is knowable now; refuse a spec
    // that would only fail after admission.
    let hve = match spec.method {
        SolverMethod::GradientDecomposition => None,
        SolverMethod::HaloVoxelExchange => {
            match HaloVoxelExchangeSolver::new(&spec.dataset, spec.config, spec.grid) {
                Ok(solver) => Some(solver),
                Err(error) => return Some(error.to_string()),
            }
        }
    };
    if let Some(epoch) = spec.resume_from.as_ref().map(|resume| &resume.epoch) {
        // `CheckpointStore::commit` takes any manifest, so the slot count
        // and the embedded spec can disagree.
        let seq = epoch.manifest.seq;
        if epoch.slots.len() != spec.slots() {
            return Some(format!(
                "checkpoint epoch {seq} holds {} slot(s) but its job spec decomposes \
                 into {} rank(s)",
                epoch.slots.len(),
                spec.slots()
            ));
        }
        // Each slot holds its rank's halo-extended tile volume.
        let grid = match &hve {
            Some(solver) => solver.grid().clone(),
            None => GradientDecompositionSolver::new(&spec.dataset, spec.config, spec.grid)
                .grid()
                .clone(),
        };
        let slices = spec.dataset.object_shape().0;
        for (slot, record) in epoch.slots.iter().enumerate() {
            let label = PathBuf::from(format!("slot {slot} of epoch {seq}"));
            let volume: TileVolume = match decode_exactly(&record.state, &label) {
                Ok(volume) => volume,
                Err(error) => return Some(error.to_string()),
            };
            let extended = grid.tile(slot).extended;
            let tile = (slices, extended.rows(), extended.cols());
            if volume.shape() != tile {
                return Some(format!(
                    "slot {slot} of checkpoint epoch {seq} holds a {:?} tile volume but its \
                     job spec's tile {slot} is {tile:?} (slices, rows, cols)",
                    volume.shape()
                ));
            }
        }
    }
    None
}

/// Ends job `id`: the one place a record enters a terminal state. Called
/// with the state lock held, by [`runner::end_job`] once it has settled the
/// job's trace. Records the outcome and loss counts, gives back the job's
/// lease (a queued job left the queue when it was dequeued), and re-runs
/// admission.
fn finish(
    state: &mut ServiceState,
    shared: &Arc<Shared>,
    id: JobId,
    outcome: Result<ReconstructionResult, JobError>,
    telemetry_lost: Vec<u64>,
) {
    let record = state.jobs.get_mut(&id).expect("job record missing");
    let was_running = record.state == JobState::Running;
    record.state = match &outcome {
        Ok(_) => JobState::Completed,
        Err(JobError::Cancelled) => JobState::Cancelled,
        Err(_) => JobState::Failed,
    };
    match outcome {
        Ok(result) => record.result = Some(result),
        Err(error) => record.error = Some(error),
    }
    record.telemetry_lost = telemetry_lost;
    record.finished = Some(Instant::now());
    if was_running {
        state.active -= 1;
        state.fleet.release(id);
    }
    try_admit(state, shared);
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
        let record = state.jobs.get_mut(&entry.job).expect("job record missing");
        let spec = record.spec.take().expect("a queued job holds its spec");
        let cancel = Arc::clone(&record.cancel);
        record.state = JobState::Running;
        record.started = Some(Instant::now());
        record.node_map = leased;
        state.admissions.push(entry.job);
        state.active += 1;
        let depth = state.queue.len() as u64;
        state.queue_depth.observe(depth);
        if let Some(telemetry) = &spec.telemetry {
            telemetry.sink(0).record(TelemetryEvent::JobAdmitted {
                job: entry.job,
                queue_depth: depth,
            });
        }
        let shared = Arc::clone(shared);
        std::thread::spawn(move || runner::run_job_thread(shared, entry.job, spec, cancel));
    }
}

/// The runner's `JobContext::spare_grant` hook: retires job `id`'s dead
/// local node `dead_local` and leases a replacement from the shared pool,
/// appending it to the job's node map. Returns whether one was granted.
fn grant_spare(shared: &Arc<Shared>, id: JobId, cancel: &AtomicBool, dead_local: usize) -> bool {
    let mut guard = shared.lock();
    let dead_global = guard
        .jobs
        .get(&id)
        .and_then(|r| r.node_map.get(dead_local).copied());
    if dead_global.is_none_or(|node| guard.fleet.retire(node).is_err()) {
        return false;
    }
    // Counted as waiting from here on, the grant outranks new admissions
    // (see `try_admit`), including those that ending doomed queue entries
    // below would otherwise run first.
    guard.waiting_for_spare += 1;
    // The retirement just shrank the live fleet (a dead node never returns
    // to the free pool): a queued job bigger than what remains can never be
    // admitted, and head-of-line scheduling would let it pin the queue (and
    // `wait_idle`, `JobHandle::wait`) forever. Dequeue each such job now and
    // end it as rejected once the guard is dropped.
    let live = guard.fleet.total_nodes() - guard.fleet.dead_count();
    let unservable: Vec<QueuedJob> = guard
        .queue
        .entries()
        .iter()
        .filter(|e| e.slots > live)
        .copied()
        .collect();
    let doomed: Vec<_> = unservable
        .into_iter()
        .filter_map(|entry| Some((entry, dequeue(&mut guard, entry.job)?)))
        .collect();
    drop(guard);
    for (entry, spec) in doomed {
        let reason = format!(
            "retirements shrank the fleet below the job's size: needs {} node(s) \
             but only {live} live node(s) remain",
            entry.slots
        );
        runner::end_job(shared, entry.job, &spec, Err(JobError::Rejected { reason }));
    }
    let mut guard = shared.lock();
    // The free pool may be transiently empty when every node is leased out
    // to tenants: block until a neighbouring job releases one. The grant can
    // only fail for good when no other active tenant exists — or every one
    // of them is itself blocked here — so nobody will ever free a node (and
    // when the job was cancelled while waiting).
    let granted = loop {
        if let Some(replacement) = guard.fleet.draw_spare(id) {
            if let Some(record) = guard.jobs.get_mut(&id) {
                // Appended in promotion order: the engine numbers the k-th
                // promoted spare `slots + k`, which indexes this entry.
                record.node_map.push(replacement);
            }
            break true;
        }
        if cancel.load(Ordering::Relaxed) || guard.waiting_for_spare >= guard.active {
            break false;
        }
        guard = shared.wait(guard);
    };
    guard.waiting_for_spare -= 1;
    // Run the admission that `try_admit` deferred while this job was
    // waiting, so leftover free nodes still reach the queue.
    try_admit(&mut guard, shared);
    granted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durability::{
        encode_spec, ByteWriter, CheckpointPayload, EpochManifest, SlotRecord,
    };
    use ptycho_sim::dataset::SyntheticConfig;
    use std::time::Duration;

    /// Where the recipe's probe window sits (a little-endian `u64`) in a
    /// spec.
    const WINDOW_AT: usize = 33;

    /// A two-iteration GD job on a 2×2 grid (four ranks).
    fn tiny_2x2() -> JobSpec {
        let config = SolverConfig {
            iterations: 2,
            halo_px: 20,
            ..SolverConfig::default()
        };
        JobSpec::new(Dataset::synthesize(SyntheticConfig::tiny()), config, (2, 2))
    }

    /// Each of [`tiny_2x2`]'s four slots' tile volume: its extended tile,
    /// zero-filled, `depth` slices deep (the spec's own depth is 2).
    fn tile_states(depth: usize) -> Vec<Vec<u8>> {
        let spec = tiny_2x2();
        let solver = GradientDecompositionSolver::new(&spec.dataset, spec.config, spec.grid);
        (0..spec.slots())
            .map(|slot| {
                let tile = solver.grid().tile(slot).extended;
                let mut out = ByteWriter::new();
                TileVolume::zeros(depth, tile.rows(), tile.cols()).encode(&mut out);
                out.into_bytes()
            })
            .collect()
    }

    /// [`resume_hand_built_spec`] under [`tiny_2x2`]'s spec.
    fn resume_hand_built_epoch(
        tag: &str,
        states: Vec<Vec<u8>>,
    ) -> (JobEngine, Result<JobReport, JobError>) {
        resume_hand_built_spec(tag, encode_spec(&tiny_2x2()), states)
    }

    /// Commits one epoch with one slot file per entry of `states` (that
    /// slot's tile volume) under the encoded `spec`, then resumes it on a
    /// 4-node engine. Returns the engine and the resumed job's report or
    /// refusal.
    fn resume_hand_built_spec(
        tag: &str,
        spec: Vec<u8>,
        states: Vec<Vec<u8>>,
    ) -> (JobEngine, Result<JobReport, JobError>) {
        let slots = states.len();
        let dir = std::env::temp_dir().join(format!("ptycho-service-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::open(&dir).expect("store opens");
        let seq = store.next_seq();
        for (slot, state) in states.into_iter().enumerate() {
            let record = SlotRecord {
                iteration: 1,
                costs: vec![1.0],
                cursor: None,
                state,
            };
            store.write_slot(seq, slot, &record).expect("slot written");
        }
        let manifest = EpochManifest {
            seq,
            iteration: 1,
            attempt_index: 0,
            restarts: 0,
            substitutions: 0,
            membership: ptycho_cluster::MembershipView::new(slots, 0),
            spec,
        };
        store.commit(&manifest, None).expect("epoch committed");
        drop(store);

        // A resume that wrongly admits the job, or whose runner never ends
        // it, never answers: bound the wait.
        let (tx, rx) = std::sync::mpsc::channel();
        let resume_dir = dir.clone();
        let worker = std::thread::spawn(move || {
            let engine = JobEngine::new(4);
            let outcome = engine.resume(resume_dir).map(|handle| handle.wait());
            tx.send((engine, outcome)).expect("the test is listening");
        });
        let answer = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("resume must answer instead of hanging");
        worker.join().expect("resume thread panicked");
        let _ = std::fs::remove_dir_all(&dir);
        answer
    }

    #[test]
    fn resume_rejects_an_epoch_whose_slot_count_disagrees_with_its_spec() {
        // Two slot files committed under a spec for a 2×2 grid (four ranks).
        match resume_hand_built_epoch("slot-mismatch", tile_states(2)[..2].to_vec()).1 {
            Err(JobError::Rejected { reason }) => assert!(
                reason.contains("2 slot(s)") && reason.contains("4 rank(s)"),
                "the reason must name both counts: {reason}"
            ),
            other => panic!("expected a rejection, got {other:?}"),
        }
    }

    #[test]
    fn resume_rejects_an_epoch_whose_slot_state_does_not_decode() {
        let mut states = tile_states(2);
        states[2].clear();
        let (engine, outcome) = resume_hand_built_epoch("undecodable-state", states);
        match outcome {
            Err(JobError::Rejected { reason }) => assert!(
                reason.contains("slot 2 of epoch") && reason.contains("payload truncated"),
                "the reason must name the slot and the decode error: {reason}"
            ),
            other => panic!("expected a rejection, got {other:?}"),
        }
        assert_eq!(engine.free_nodes(), engine.total_nodes());
    }

    #[test]
    fn resume_rejects_a_slot_state_held_at_the_wrong_precision() {
        // Slot 1 holds its tile as complex f64, the right shape: its first
        // half reads as a complex f32 tile, and the rest is left over.
        let mut states = tile_states(2);
        let tile: TileVolume =
            decode_exactly(&states[1], &PathBuf::new()).expect("the helper's state decodes");
        let mut wide = ByteWriter::new();
        tile.map(|v| v.widen()).encode(&mut wide);
        states[1] = wide.into_bytes();
        let (engine, outcome) = resume_hand_built_epoch("f64-state", states);
        match outcome {
            Err(JobError::Rejected { reason }) => assert!(
                reason.contains("slot 1 of epoch") && reason.contains("trailing bytes"),
                "the reason must name the slot and the leftover bytes: {reason}"
            ),
            other => panic!("expected a rejection, got {other:?}"),
        }
        assert_eq!(engine.free_nodes(), engine.total_nodes());
    }

    #[test]
    fn resume_rejects_a_recipe_synthesis_cannot_run_before_synthesizing_it() {
        let mut spec = encode_spec(&tiny_2x2());
        spec[WINDOW_AT..WINDOW_AT + 8].copy_from_slice(&48u64.to_le_bytes());
        match resume_hand_built_spec("window-48", spec, tile_states(2)).1 {
            Err(JobError::Rejected { reason }) => assert!(
                reason.contains("probe window 48 px is not a power of two"),
                "the reason must name the window: {reason}"
            ),
            other => panic!("expected a rejection, got {other:?}"),
        }
    }

    #[test]
    fn resume_rejects_an_epoch_whose_slot_state_has_the_wrong_shape() {
        // Every slot's state decodes, one slice short of the spec's depth.
        let (engine, outcome) = resume_hand_built_epoch("shallow-state", tile_states(1));
        match outcome {
            Err(JobError::Rejected { reason }) => assert!(
                reason.contains("slot 0 of checkpoint epoch")
                    && reason.contains("(1, 68, 68)")
                    && reason.contains("(2, 68, 68)"),
                "the reason must name the slot, the epoch and both shapes: {reason}"
            ),
            other => panic!("expected a rejection, got {other:?}"),
        }
        assert_eq!(engine.free_nodes(), engine.total_nodes());
    }

    /// A trace writer whose first `write` panics; later writes succeed.
    struct PanicsOnFirstWrite {
        panicked: bool,
    }

    impl std::io::Write for PanicsOnFirstWrite {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if !std::mem::replace(&mut self.panicked, true) {
                panic!("the trace writer panicked");
            }
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_panicking_runner_fails_its_job_and_releases_its_nodes() {
        // A caller-supplied trace writer is code no admission check can
        // refuse: this one panics on its first write, which rank 0 makes
        // when it flushes the recorder after the first consistency barrier.
        let writer = Box::new(PanicsOnFirstWrite { panicked: false });
        let telemetry = Telemetry::with_writer(Default::default(), writer);
        let engine = JobEngine::new(4);
        let report = engine
            .submit(tiny_2x2().with_telemetry(Arc::new(telemetry)))
            .expect("fits the fleet")
            .wait();
        assert_eq!(report.state, JobState::Failed);
        match report.error {
            Some(JobError::Panicked { message }) => {
                assert!(message.contains("rank thread panicked"), "{message}");
                assert!(message.contains("the trace writer panicked"), "{message}");
            }
            other => panic!("expected a panic failure, got {other:?}"),
        }
        assert_eq!(engine.free_nodes(), engine.total_nodes());
        assert!(engine.fleet_is_conserved());
        assert_eq!(
            engine.metrics_snapshot().counter("jobs_failed_total"),
            Some(1)
        );

        // The engine stays live for the next tenant.
        let next = engine.submit(tiny_2x2()).expect("fits the fleet").wait();
        assert_eq!(next.state, JobState::Completed);
    }
}
