//! The shared fault-tolerant iteration engine.
//!
//! Both reconstruction methods — Gradient Decomposition and the Halo Voxel
//! Exchange baseline — drive the same per-rank loop: initialise tile state,
//! run the per-iteration passes/exchanges, collect per-iteration costs, and
//! stitch the core tiles into the full volume. Before this module existed
//! that loop was duplicated in both solvers; now each method implements only
//! the [`SolverKernel`] trait (what *one iteration* does on *one rank*) and
//! [`IterationEngine`] owns everything around it:
//!
//! * the per-rank iteration loop and cost bookkeeping,
//! * gathering [`RankOutcome`]s and stitching the [`ReconstructionResult`],
//! * **recovery**, governed by [`RecoveryPolicy`]:
//!   - [`RecoveryPolicy::FailFast`] reproduces the historical behaviour —
//!     the first communication failure aborts the run (and adds zero
//!     overhead to the fault-free path; no extra barriers, no wrapping);
//!   - [`RecoveryPolicy::RetransmitThenRestart`] wraps every rank's
//!     communicator in [`ReliableComm`] (sequence-numbered ack/retransmit,
//!     healing lost messages in place) and additionally keeps a lightweight
//!     per-iteration checkpoint of each rank's tile state, so that a
//!     [`RankFailure`] that survives retransmission rolls the whole run back
//!     to the last consistent iteration boundary and re-runs it instead of
//!     aborting, up to `max_iteration_restarts` times;
//!   - [`RecoveryPolicy::SubstituteSpare`] escalates one layer further:
//!     retransmission and checkpoint restarts handle *message* loss, but a
//!     **permanently dead rank** defeats both (the node cannot answer any
//!     retransmission, in any attempt). Under this policy the engine keeps a
//!     [`MembershipView`] — an epoch-numbered slot → node assignment table
//!     with a pool of standby spare nodes — plus a per-iteration ring
//!     heartbeat carried on control frames. When an attempt fails because a
//!     node died (the failure-detector verdict), the engine retires the
//!     node, promotes the lowest-numbered spare into its tile slot, bumps
//!     the membership epoch, and re-runs from the last consistency-barrier
//!     checkpoint — which the adopting spare restores exactly as the dead
//!     node would have, so the healed run is bit-identical to a fault-free
//!     one. An empty spare pool surfaces [`CommError::SparesExhausted`].
//!
//! ### Why checkpoints are consistent
//!
//! In recovery mode the engine ends every iteration with a barrier and saves
//! the checkpoint only after the barrier completes. A barrier completes for
//! either every rank or no rank, so whenever an attempt fails, every rank's
//! latest checkpoint refers to the same iteration — the engine verifies this
//! invariant before restarting and escalates the original failure if it ever
//! does not hold. Restart attempts carry an increasing *epoch* into the
//! reliable layer's wire tags, so retransmit streams from different attempts
//! can never alias and seeded fault policies draw fresh decisions. That wire
//! epoch counts *attempts*; the membership epoch counts *promotions* — the
//! two move independently (a restart without a death bumps only the former).
//!
//! [`ReliableComm`]: ptycho_cluster::ReliableComm
//! [`MembershipView`]: ptycho_cluster::MembershipView
//! [`CommError::SparesExhausted`]: ptycho_cluster::CommError::SparesExhausted

use crate::convergence::CostHistory;
use crate::durability::{
    ByteReader, ByteWriter, CheckpointPayload, CheckpointStore, DurabilityError, EpochManifest,
    RecoveredEpoch, SlotRecord,
};
use crate::stitch::stitch_tiles;
use crate::tiling::TileGrid;
use ptycho_array::Rect;
use ptycho_cluster::membership::frames;
use ptycho_cluster::{
    CommBackend, CommError, CrashPhase, MembershipError, MembershipView, MemoryTracker, RankComm,
    RankFailure, RankOutcome, ReliableComm, ReliableConfig, ReliableStats, SharedTile,
    TimeBreakdown,
};
use ptycho_fft::CArray3;
use ptycho_telemetry::{Telemetry, TelemetryEvent};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// The outcome of a parallel reconstruction.
#[derive(Clone, Debug)]
pub struct ReconstructionResult {
    /// The stitched reconstruction volume (halos discarded).
    pub volume: CArray3,
    /// Global cost `F(V)` per iteration, summed over every probe location.
    pub cost_history: CostHistory,
    /// Per-rank time breakdowns.
    pub time: Vec<TimeBreakdown>,
    /// Per-rank memory accounting.
    pub memory: Vec<MemoryTracker>,
    /// The tile decomposition the reconstruction used.
    pub grid: TileGrid,
    /// What the engine's recovery machinery had to do (all zeros under
    /// [`RecoveryPolicy::FailFast`] and on fault-free runs).
    pub recovery: RecoveryReport,
}

impl ReconstructionResult {
    /// Average peak memory per rank in bytes.
    pub fn average_peak_memory_bytes(&self) -> f64 {
        ptycho_cluster::average_peak_bytes(&self.memory)
    }

    /// Worst-case (critical-path) time breakdown across ranks.
    pub fn critical_path(&self) -> TimeBreakdown {
        self.time
            .iter()
            .fold(TimeBreakdown::default(), |acc, t| acc.max_per_component(t))
    }
}

/// How the engine responds to a communication failure.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RecoveryPolicy {
    /// Abort on the first [`RankFailure`] (the historical behaviour, and the
    /// zero-overhead fault-free path).
    #[default]
    FailFast,
    /// Heal lost messages with the reliable-delivery layer; if a failure
    /// still escalates, roll back to the last consistent iteration boundary
    /// and re-run, at most `max_iteration_restarts` times.
    RetransmitThenRestart {
        /// Upper bound on checkpoint restarts before the failure is
        /// surfaced to the caller.
        max_iteration_restarts: usize,
    },
    /// Everything [`RecoveryPolicy::RetransmitThenRestart`] does, plus the
    /// escalation step for **permanently dead ranks**: a pool of `spares`
    /// standby nodes and a rank-membership table. When an attempt fails
    /// because a node died (rather than because messages were lost), a
    /// spare is promoted into the dead node's tile slot, adopts the slot's
    /// last consistency-barrier checkpoint, and the run re-runs under a
    /// bumped membership epoch — bit-identically to a fault-free run. The
    /// restart budget only counts restarts *not* caused by a death;
    /// substitutions are bounded by the spare pool instead.
    SubstituteSpare {
        /// Number of standby spare nodes available for promotion.
        spares: usize,
        /// Upper bound on checkpoint restarts for non-death failures.
        max_iteration_restarts: usize,
    },
}

/// What the recovery machinery did during one reconstruction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Checkpoint restarts the engine performed (excluding substitutions).
    pub iteration_restarts: usize,
    /// Spare-rank promotions: how many permanently dead nodes were replaced
    /// by standby spares ([`RecoveryPolicy::SubstituteSpare`]).
    pub substitutions: usize,
    /// The membership epoch the run finished under (equals `substitutions`:
    /// one bump per promotion; 0 without the membership layer).
    pub membership_epoch: u64,
    /// Ring-liveness heartbeats sent across every rank of the successful
    /// attempt (membership mode only).
    pub heartbeats_sent: u64,
    /// Heartbeats observed from ring predecessors across every rank of the
    /// successful attempt (membership mode only).
    pub heartbeats_observed: u64,
    /// Reliable-delivery counters summed over every rank (of the successful
    /// attempt).
    pub reliable: ReliableStats,
}

impl RecoveryReport {
    /// True when the run needed no recovery work at all (heartbeats are
    /// routine liveness traffic, not recovery work).
    pub fn is_clean(&self) -> bool {
        self.iteration_restarts == 0
            && self.substitutions == 0
            && self.reliable == ReliableStats::default()
    }
}

/// One per-iteration progress event from one rank, emitted through
/// [`JobContext::progress`] right after the rank passes the iteration's
/// consistency barrier (or, under [`RecoveryPolicy::FailFast`], right after
/// the iteration body). Together with the job id (added by the service
/// layer) this is the stream a client tails to watch a reconstruction
/// converge.
#[derive(Clone, Copy, Debug)]
pub struct IterationProgress {
    /// The reporting rank (tile slot).
    pub rank: usize,
    /// The iteration that just completed (0-based).
    pub iteration: usize,
    /// Which recovery attempt the iteration ran under (0 = fault-free path).
    pub attempt: usize,
    /// The rank's share of the iteration cost `F(V)`.
    pub cost: f64,
    /// The rank's simulated time breakdown so far.
    pub time: TimeBreakdown,
    /// The rank's peak memory so far, in bytes.
    pub peak_bytes: usize,
}

/// Hooks tying one engine run to the job engine above it. All fields are
/// optional; [`JobContext::default`] is a plain standalone run — the hooks
/// add no overhead when absent.
///
/// * `cancel` — cooperative cancellation: the engine polls the flag at each
///   iteration boundary and unwinds with [`CommError::Cancelled`] when it is
///   raised. Cancellation is not a fault: the recovery machinery never
///   spends restart budget or spares on it.
/// * `progress` — per-iteration [`IterationProgress`] events. Called from
///   rank worker threads, hence `Sync`.
/// * `spare_grant` — delegates the spare pool to an external owner (the
///   service's shared fleet). Called with the *job-local* dead node id
///   before each promotion; returning `false` means the pool is exhausted
///   and the run fails with [`CommError::SparesExhausted`]. When present,
///   the policy's own `spares` count is ignored — promotions are bounded by
///   the external pool (and the 8-bit attempt-epoch ceiling) instead, while
///   job-local spare numbering (`slots + k` for the k-th promotion) is
///   unchanged, which is what keeps a healed service run bit-identical to
///   the same job healed standalone.
#[derive(Clone, Copy, Default)]
pub struct JobContext<'a> {
    /// Raised by the job's owner to request cooperative cancellation.
    pub cancel: Option<&'a AtomicBool>,
    /// Raised by the job's owner to preempt the run at the next iteration
    /// boundary — same poll points as `cancel`, but surfaced as
    /// [`CommError::Preempted`] so the owner can splice newly ingested scan
    /// positions into the dataset and re-run, instead of tearing the job
    /// down. Like cancellation it is not a fault: the recovery machinery
    /// never spends restart budget or spares on it.
    pub preempt: Option<&'a AtomicBool>,
    /// Sink for per-iteration progress events.
    pub progress: Option<&'a (dyn Fn(IterationProgress) + Sync)>,
    /// External spare-pool arbiter: `grant(dead_local_node) -> granted`.
    pub spare_grant: Option<&'a (dyn Fn(usize) -> bool + Sync)>,
    /// Flight recorder for structured telemetry events. When present the
    /// engine stamps per-iteration and recovery events on each rank's
    /// stream (simulated clock, never wall time) and flushes the durable
    /// sink at every consistency barrier.
    pub telemetry: Option<&'a Telemetry>,
    /// Durable checkpointing: when present, every consistency barrier also
    /// persists each rank's checkpoint to the [`CheckpointStore`] and
    /// commits the epoch with an atomic manifest rename (see
    /// [`DurabilityHook`]). Requires a recovering policy — the barrier the
    /// store piggybacks on does not exist under
    /// [`RecoveryPolicy::FailFast`].
    pub durability: Option<DurabilityHook<'a>>,
}

/// Wires one engine run to an on-disk [`CheckpointStore`].
///
/// Persistence rides the existing consistency barrier: after every rank has
/// passed iteration `i`'s barrier, each rank durably writes its slot file, a
/// second barrier proves all slot files are on disk, rank 0 commits the
/// epoch manifest (the atomic rename that makes the epoch visible), and a
/// third barrier publishes the commit before any rank starts iteration
/// `i + 1`. The extra barriers cost only simulated time — they change no
/// message payloads, so the reconstruction stays bit-identical to a run
/// without the hook.
#[derive(Clone, Copy)]
pub struct DurabilityHook<'a> {
    /// The store epochs are committed to.
    pub store: &'a CheckpointStore,
    /// A previously recovered epoch to resume from: the engine prefills
    /// every rank's checkpoint slot, membership table, and recovery
    /// counters from it before the first attempt, so the resumed run
    /// continues exactly where the killed process left off.
    pub resume: Option<&'a RecoveredEpoch>,
    /// Fault injection: simulate a whole-process kill when committing the
    /// epoch with this store sequence number, at the given phase relative
    /// to the manifest rename. The run surfaces
    /// [`CommError::ProcessKilled`] on every rank.
    pub kill: Option<(u64, CrashPhase)>,
    /// The service-level job spec, already encoded; embedded opaquely in
    /// every manifest so `JobEngine::resume(dir)` can rebuild the job from
    /// the directory alone.
    pub spec: &'a [u8],
}

impl JobContext<'_> {
    /// True once the owner has requested cancellation.
    pub fn cancelled(&self) -> bool {
        self.cancel.is_some_and(|flag| flag.load(Ordering::Relaxed))
    }

    /// True once the owner has requested an iteration-boundary preemption.
    pub fn preempted(&self) -> bool {
        self.preempt
            .is_some_and(|flag| flag.load(Ordering::Relaxed))
    }

    fn emit(&self, event: IterationProgress) {
        if let Some(sink) = self.progress {
            sink(event);
        }
    }
}

impl std::fmt::Debug for JobContext<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobContext")
            .field("cancel", &self.cancel.map(|c| c.load(Ordering::Relaxed)))
            .field("preempt", &self.preempt.map(|c| c.load(Ordering::Relaxed)))
            .field("progress", &self.progress.is_some())
            .field("spare_grant", &self.spare_grant.is_some())
            .field("telemetry", &self.telemetry.is_some())
            .field("durability", &self.durability.is_some())
            .finish()
    }
}

/// What one reconstruction method contributes to the shared engine loop: the
/// per-rank tile state and the body of one iteration. Everything else —
/// iteration driving, cost collection, checkpointing, recovery, stitching —
/// lives in [`IterationEngine`].
pub trait SolverKernel: Sync {
    /// Rank-local state (tile worker, accumulation buffers, …). The lifetime
    /// ties the state to the kernel that created it.
    type State<'k>
    where
        Self: 'k;

    /// A lightweight snapshot of the mutable part of [`Self::State`], taken
    /// at iteration boundaries (for both methods: the tile volume). The
    /// [`CheckpointPayload`] bound is what lets the durability layer write
    /// the snapshot to disk and restore it bit-identically in a resumed
    /// process.
    type Checkpoint: Send + CheckpointPayload;

    /// The tile decomposition (one rank per tile).
    fn grid(&self) -> &TileGrid;

    /// Number of reconstruction iterations.
    fn iterations(&self) -> usize;

    /// Builds rank `ctx.rank()`'s state, registering its memory footprint
    /// with `ctx`'s tracker. Must not communicate.
    fn init<'k, C: RankComm<SharedTile>>(&'k self, ctx: &mut C) -> Self::State<'k>;

    /// Runs one full iteration on this rank, returning the rank's share of
    /// the iteration cost `F(V)`.
    fn run_iteration<C: RankComm<SharedTile>>(
        &self,
        ctx: &mut C,
        state: &mut Self::State<'_>,
        iteration: usize,
    ) -> Result<f64, CommError>;

    /// Snapshots the mutable state at an iteration boundary.
    fn checkpoint(&self, state: &Self::State<'_>) -> Self::Checkpoint;

    /// Restores a snapshot taken by [`Self::checkpoint`], resetting any
    /// intra-iteration scratch (accumulation buffers) to its boundary value.
    fn restore(&self, state: &mut Self::State<'_>, checkpoint: &Self::Checkpoint);

    /// Extracts the rank's core (non-halo) volume for stitching.
    fn core_volume(&self, state: &Self::State<'_>) -> CArray3;

    /// The modeled compute time of one iteration on `rank`, in integer
    /// nanoseconds, used to advance the telemetry stream's simulated clock.
    /// Must be a pure function of the decomposition (deterministic across
    /// runs); the default of zero leaves the stream on communication time
    /// alone.
    fn modeled_compute_ns(&self, rank: usize) -> u64 {
        let _ = rank;
        0
    }
}

/// What one rank hands back to the engine.
struct RankRun {
    core: CArray3,
    costs: Vec<f64>,
    stats: ReliableStats,
    heartbeats_sent: u64,
    heartbeats_observed: u64,
}

/// A rank's saved state at a completed iteration boundary.
struct CheckpointSlot<T> {
    /// Number of completed iterations (the next attempt resumes here).
    iteration: usize,
    /// Per-iteration costs accumulated so far.
    costs: Vec<f64>,
    state: T,
}

/// The shared driver executing a [`SolverKernel`] on a communication
/// backend under a [`RecoveryPolicy`].
pub struct IterationEngine<'k, K> {
    kernel: &'k K,
}

impl<'k, K: SolverKernel> IterationEngine<'k, K> {
    /// Runs `kernel`'s reconstruction on `backend`, one rank per tile, under
    /// `policy` and the job-engine hooks of `job` (cooperative cancellation,
    /// per-iteration progress streaming, an externally owned spare pool — see
    /// [`JobContext`]; the default context has none). Unrecovered
    /// communication failures surface as a [`RankFailure`].
    pub fn run<B: CommBackend>(
        kernel: &'k K,
        policy: RecoveryPolicy,
        backend: &B,
        job: &JobContext<'_>,
    ) -> Result<ReconstructionResult, RankFailure> {
        let engine = Self { kernel };
        match policy {
            RecoveryPolicy::FailFast => engine.run_fail_fast(backend, job),
            RecoveryPolicy::RetransmitThenRestart {
                max_iteration_restarts,
            } => engine.run_recovering(backend, job, max_iteration_restarts, None),
            RecoveryPolicy::SubstituteSpare {
                spares,
                max_iteration_restarts,
            } => engine.run_recovering(backend, job, max_iteration_restarts, Some(spares)),
        }
    }

    fn run_fail_fast<B: CommBackend>(
        &self,
        backend: &B,
        job: &JobContext<'_>,
    ) -> Result<ReconstructionResult, RankFailure> {
        // Durable checkpoints piggyback on the recovering path's consistency
        // barrier; the fail-fast path has no barrier to hang them on, so a
        // silent no-op here would look like durability while providing none.
        assert!(
            job.durability.is_none(),
            "durable checkpoints require a recovering policy \
             (RetransmitThenRestart or SubstituteSpare): the fail-fast path \
             has no consistency barrier to persist at"
        );
        let kernel = self.kernel;
        let iterations = kernel.iterations();
        let outcomes = backend.run::<SharedTile, RankRun, _>(kernel.grid().num_tiles(), |ctx| {
            let rank = ctx.rank();
            let sink = job.telemetry.map(|t| t.sink(rank));
            if let Some(sink) = &sink {
                ctx.instruments().telemetry = Some(sink.clone());
            }
            let mut state = kernel.init(ctx);
            let mut costs = Vec::with_capacity(iterations);
            for iteration in 0..iterations {
                if job.cancelled() {
                    return Err(CommError::Cancelled { rank: ctx.rank() });
                }
                if job.preempted() {
                    return Err(CommError::Preempted { rank: ctx.rank() });
                }
                if let Some(sink) = &sink {
                    sink.record_at_comm_ns(
                        ctx.clock_mut().comm_ns(),
                        TelemetryEvent::IterationBegin {
                            iteration: iteration as u64,
                            attempt: 0,
                        },
                    );
                }
                costs.push(kernel.run_iteration(ctx, &mut state, iteration)?);
                if let Some(sink) = &sink {
                    sink.add_compute_ns(kernel.modeled_compute_ns(rank));
                    sink.set_comm_ns(ctx.clock_mut().comm_ns());
                    let (comm_ns, compute_ns) = sink.sim_parts();
                    sink.record(TelemetryEvent::IterationEnd {
                        iteration: iteration as u64,
                        attempt: 0,
                        cost: costs[iteration],
                        compute_ns,
                        comm_ns,
                    });
                }
                job.emit(IterationProgress {
                    rank: ctx.rank(),
                    iteration,
                    attempt: 0,
                    cost: costs[iteration],
                    time: ctx.clock_mut().breakdown(),
                    peak_bytes: ctx.memory_mut().peak_total(),
                });
            }
            Ok(RankRun {
                core: kernel.core_volume(&state),
                costs,
                stats: ReliableStats::default(),
                heartbeats_sent: 0,
                heartbeats_observed: 0,
            })
        });
        // The rank threads are joined: flushing here cannot race recording.
        if let Some(telemetry) = job.telemetry {
            telemetry.flush_all();
        }
        Ok(assemble(
            outcomes?,
            kernel.grid().clone(),
            iterations,
            RecoveryReport::default(),
        ))
    }

    /// The shared recovery driver behind both recovering policies.
    ///
    /// With `spares: None` this is plain retransmit + checkpoint restart.
    /// With `spares: Some(n)` the engine additionally keeps a
    /// [`MembershipView`] mapping each tile *slot* to the physical *node*
    /// running it, sends a per-iteration ring heartbeat on control frames,
    /// and — when an attempt fails because a node died — promotes a spare
    /// into the dead node's slot before re-running. The **checkpoint store
    /// is keyed by slot**, so the adopting spare restores exactly the state
    /// the dead node saved at the last consistency barrier.
    fn run_recovering<B: CommBackend>(
        &self,
        backend: &B,
        job: &JobContext<'_>,
        max_iteration_restarts: usize,
        spares: Option<usize>,
    ) -> Result<ReconstructionResult, RankFailure> {
        // Recovery acts on communication *errors*; a backend that hangs on a
        // lost message (threaded without a receive timeout) never produces
        // one, so the policy would silently be inert. Refuse loudly instead.
        assert!(
            backend.loss_detection_enabled(),
            "recovering policies require a backend that turns lost messages into errors; \
             enable it with `with_recv_timeout(..)` or `with_loss_detection()`"
        );
        let kernel = self.kernel;
        let iterations = kernel.iterations();
        let ranks = kernel.grid().num_tiles();
        // With an external spare arbiter, the pool bound lives outside the
        // engine: size the local view at the attempt-epoch ceiling (the hard
        // upper bound on promotions anyway) so the arbiter alone decides
        // exhaustion. Promotion numbering is unaffected — the k-th promotion
        // is always local node `ranks + k` whatever the pool size — which is
        // what keeps service-healed runs bit-identical to standalone ones.
        let spares = spares.map(|pool| {
            if job.spare_grant.is_some() {
                frames::MAX_ATTEMPT_EPOCH as usize + 1
            } else {
                pool
            }
        });
        let mut membership = spares.map(|pool| MembershipView::new(ranks, pool));
        let slots: Vec<Mutex<Option<CheckpointSlot<K::Checkpoint>>>> =
            (0..ranks).map(|_| Mutex::new(None)).collect();
        let mut restarts = 0usize;
        let mut substitutions = 0usize;
        let mut attempt_index = 0usize;
        // Resuming from disk: prefill every rank's checkpoint slot, the
        // membership table, and the recovery counters from the recovered
        // epoch, so the existing restore-from-slot path picks the run up
        // exactly where the killed process committed it. Fault cursors are
        // handed to each rank once (first post-resume attempt) so seeded
        // fault decisions that already fired before the kill do not re-fire.
        let resume_seq = job.durability.as_ref().and_then(|hook| {
            let epoch = hook.resume?;
            assert_eq!(
                epoch.slots.len(),
                ranks,
                "recovered epoch has {} slots but the decomposition has {} ranks",
                epoch.slots.len(),
                ranks
            );
            for (slot, record) in epoch.slots.iter().enumerate() {
                let mut reader = ByteReader::new(&record.state, Path::new("recovered slot state"));
                let state = K::Checkpoint::decode(&mut reader)
                    .expect("recovered checkpoint state does not decode for this kernel");
                *slots[slot].lock().expect("checkpoint slot poisoned") = Some(CheckpointSlot {
                    iteration: record.iteration,
                    costs: record.costs.clone(),
                    state,
                });
            }
            if membership.is_some() {
                membership = Some(epoch.manifest.membership.clone());
            }
            restarts = epoch.manifest.restarts;
            substitutions = epoch.manifest.substitutions;
            attempt_index = epoch.manifest.attempt_index as usize;
            Some(epoch.manifest.seq)
        });
        let resume_cursors: Vec<Mutex<Option<ptycho_cluster::FaultCursor>>> = (0..ranks)
            .map(|slot| {
                Mutex::new(
                    job.durability
                        .as_ref()
                        .and_then(|hook| hook.resume)
                        .and_then(|epoch| epoch.slots[slot].cursor.clone()),
                )
            })
            .collect();
        let start_attempt = attempt_index;
        loop {
            // The wire epoch (and the heartbeat tags' attempt field) is 8
            // bits wide; make the ceiling explicit instead of letting the
            // cast wrap tags back onto attempt 0's and silently re-drawing
            // its fault decisions. 256 attempts means a restart budget or a
            // spare pool far beyond what the u8 wire-epoch scheme supports.
            assert!(
                attempt_index as u64 <= frames::MAX_ATTEMPT_EPOCH,
                "recovery exceeded {} attempts: the 8-bit wire-epoch space is exhausted \
                 (restart budget and spare pool must stay below that combined)",
                frames::MAX_ATTEMPT_EPOCH + 1
            );
            let config = ReliableConfig {
                epoch: attempt_index as u8,
                ..ReliableConfig::default()
            };
            // The attempt's frozen membership: slot -> node. `None` outside
            // membership mode, where slot == node throughout.
            let assignment: Option<Vec<usize>> =
                membership.as_ref().map(|view| view.assignment().to_vec());
            let membership_epoch = membership.as_ref().map_or(0, MembershipView::epoch);
            // Nodes whose death was observed this attempt — the failure
            // detector's verdict registry, filled by the dying rank itself
            // (the backend is the runtime: it knows the node's communicator
            // went dead, like an MPI runtime revoking a communicator).
            let dead_nodes: Mutex<Vec<usize>> = Mutex::new(Vec::new());
            let slots_ref = &slots;
            let assignment_ref = &assignment;
            let dead_ref = &dead_nodes;
            let attempt_number = attempt_index;
            // Counters and membership as the manifest must record them: the
            // state a resumed process needs to continue this attempt.
            let restarts_now = restarts;
            let substitutions_now = substitutions;
            let view_snapshot = membership.clone();
            let view_ref = &view_snapshot;
            // Set by rank 0 when a simulated process kill strikes its commit;
            // every rank observes it after the commit barrier and unwinds
            // together, so the "process" dies as a unit.
            let killed = AtomicBool::new(false);
            let killed_ref = &killed;
            let durability = job.durability;
            let resume_cursors_ref = &resume_cursors;
            let attempt = backend.run::<SharedTile, RankRun, _>(ranks, |ctx| {
                let slot = ctx.rank();
                let node = assignment_ref.as_ref().map_or(slot, |a| a[slot]);
                if assignment_ref.is_some() {
                    // Node-keyed faults (rank death) must follow the node:
                    // a spare adopting this slot must not inherit a death
                    // aimed at its predecessor.
                    if let Some(harness) = &mut ctx.instruments().harness {
                        harness.set_node(node);
                    }
                }
                let mut comm = ReliableComm::with_config(ctx, config);
                // Telemetry streams are keyed by *node*: a promoted spare
                // writes its own stream, leaving the dead node's record of
                // its final attempt intact for post-mortems.
                let sink = job.telemetry.map(|t| t.sink(node));
                if let Some(sink) = &sink {
                    comm.instruments().telemetry = Some(sink.clone());
                }
                let mut state = kernel.init(&mut comm);
                let (mut costs, start) = {
                    let slot = slots_ref[slot].lock().expect("checkpoint slot poisoned");
                    match slot.as_ref() {
                        Some(saved) => {
                            kernel.restore(&mut state, &saved.state);
                            (saved.costs.clone(), saved.iteration)
                        }
                        None => (Vec::with_capacity(iterations), 0),
                    }
                };
                // First attempt of a resumed process: hand the rank its
                // persisted fault cursor (so seeded fault decisions continue
                // where the killed process stopped, instead of re-firing)
                // and record the restore. The cell is taken once — later
                // attempts start fresh harnesses exactly as they would in an
                // uninterrupted run.
                if let Some(seq) = resume_seq {
                    if let Some(cursor) = resume_cursors_ref[slot]
                        .lock()
                        .expect("resume cursor poisoned")
                        .take()
                    {
                        if let Some(harness) = &mut comm.instruments().harness {
                            harness.set_cursor(&cursor);
                        }
                    }
                    if attempt_number == start_attempt {
                        if let Some(sink) = &sink {
                            sink.record(TelemetryEvent::CheckpointRestored {
                                iteration: start as u64,
                                seq,
                            });
                        }
                    }
                }
                let heartbeats = assignment_ref.is_some() && ranks > 1;
                let mut heartbeats_sent = 0u64;
                let mut heartbeats_observed = 0u64;
                let result = (|| {
                    for iteration in start..iterations {
                        // The cancellation poll point: before starting new
                        // work, and again at the iteration boundary below.
                        // Every rank polls the same flag, so either all
                        // ranks unwind here together or the stragglers'
                        // barrier fails — both cases are mapped to a
                        // cancelled (not faulted) run by the failure branch.
                        if job.cancelled() {
                            return Err(CommError::Cancelled { rank: slot });
                        }
                        // The ingestion preemption point: like cancellation,
                        // but the owner intends to splice new scan positions
                        // and re-run rather than tear the job down.
                        if job.preempted() {
                            return Err(CommError::Preempted { rank: slot });
                        }
                        if let Some(sink) = &sink {
                            sink.record_at_comm_ns(
                                comm.clock_mut().comm_ns(),
                                TelemetryEvent::IterationBegin {
                                    iteration: iteration as u64,
                                    attempt: attempt_number as u64,
                                },
                            );
                        }
                        costs.push(kernel.run_iteration(&mut comm, &mut state, iteration)?);
                        if let Some(sink) = &sink {
                            sink.add_compute_ns(kernel.modeled_compute_ns(slot));
                            sink.set_comm_ns(comm.clock_mut().comm_ns());
                            let (comm_ns, compute_ns) = sink.sim_parts();
                            sink.record(TelemetryEvent::IterationEnd {
                                iteration: iteration as u64,
                                attempt: attempt_number as u64,
                                cost: costs[iteration],
                                compute_ns,
                                comm_ns,
                            });
                        }
                        if heartbeats {
                            // Ring liveness beat, sent *before* the barrier
                            // so a death here cannot leave this slot's
                            // checkpoint ahead of its peers'. Control
                            // frames bypass the reliable layer's sequence
                            // accounting entirely.
                            let tag = frames::heartbeat_tag(
                                config.epoch,
                                membership_epoch,
                                iteration as u64,
                            );
                            comm.isend_control((slot + 1) % ranks, tag, SharedTile::default());
                            heartbeats_sent += 1;
                            if let Some(sink) = &sink {
                                sink.record_at_comm_ns(
                                    comm.clock_mut().comm_ns(),
                                    TelemetryEvent::HeartbeatSent {
                                        to: ((slot + 1) % ranks) as u64,
                                        iteration: iteration as u64,
                                    },
                                );
                            }
                        }
                        if let Some(sink) = &sink {
                            sink.record_at_comm_ns(
                                comm.clock_mut().comm_ns(),
                                TelemetryEvent::BarrierWait {
                                    iteration: iteration as u64,
                                },
                            );
                            // Publish the durability watermark *before* the
                            // barrier: everything recorded so far is covered
                            // by this generation's post-barrier flush.
                            sink.publish_watermark(iteration as u64);
                        }
                        // The consistency barrier: no rank can proceed past
                        // this iteration until every rank has completed it,
                        // so every stored checkpoint always refers to the
                        // same iteration. It doubles as the quiesce point
                        // after which any of this rank's sends a peer still
                        // needs have been delivered.
                        comm.barrier()?;
                        if slot == 0 {
                            if let Some(telemetry) = job.telemetry {
                                // Every rank published its watermark before
                                // entering the barrier this rank just left,
                                // so the flushed prefix is consistent (and
                                // the generation parity keeps a racing next
                                // iteration from moving it underneath us).
                                telemetry.flush_consistent(iteration as u64);
                            }
                        }
                        if heartbeats {
                            // A completed barrier implies the predecessor's
                            // beat was sent; its absence after the barrier
                            // would mark the predecessor suspect.
                            let tag = frames::heartbeat_tag(
                                config.epoch,
                                membership_epoch,
                                iteration as u64,
                            );
                            let prev = (slot + ranks - 1) % ranks;
                            if comm.try_recv_control(prev, tag).is_some() {
                                heartbeats_observed += 1;
                                if let Some(sink) = &sink {
                                    sink.record_at_comm_ns(
                                        comm.clock_mut().comm_ns(),
                                        TelemetryEvent::HeartbeatObserved {
                                            from: prev as u64,
                                            iteration: iteration as u64,
                                        },
                                    );
                                }
                            } else if let Some(sink) = &sink {
                                let prev_node = assignment_ref.as_ref().map_or(prev, |a| a[prev]);
                                sink.record_at_comm_ns(
                                    comm.clock_mut().comm_ns(),
                                    TelemetryEvent::RankSuspected {
                                        node: prev_node as u64,
                                        iteration: iteration as u64,
                                    },
                                );
                            }
                        }
                        let snapshot = kernel.checkpoint(&state);
                        // Durable persistence rides the barrier just crossed:
                        // every rank's in-flight state for iteration
                        // `iteration` is final, so the slot files written now
                        // form a globally consistent cut. Two more barriers
                        // order (a) all slot files before the manifest commit
                        // and (b) the commit before anyone proceeds — they
                        // carry no payloads, so the reconstruction stays
                        // bit-identical to an undurable run.
                        if let Some(hook) = &durability {
                            let seq = hook.store.next_seq();
                            let mut encoded = ByteWriter::new();
                            snapshot.encode(&mut encoded);
                            let record = SlotRecord {
                                iteration: iteration + 1,
                                costs: costs.clone(),
                                cursor: comm.instruments().harness.as_ref().map(|h| h.cursor()),
                                state: encoded.into_bytes(),
                            };
                            let bytes = hook
                                .store
                                .write_slot(seq, slot, &record)
                                .unwrap_or_else(|e| panic!("checkpoint slot write failed: {e}"));
                            comm.barrier()?;
                            if slot == 0 {
                                let manifest = EpochManifest {
                                    seq,
                                    iteration: iteration + 1,
                                    attempt_index: attempt_number as u8,
                                    restarts: restarts_now,
                                    substitutions: substitutions_now,
                                    membership: view_ref
                                        .clone()
                                        .unwrap_or_else(|| MembershipView::new(ranks, 0)),
                                    spec: hook.spec.to_vec(),
                                };
                                let crash = hook
                                    .kill
                                    .filter(|&(kill_seq, _)| kill_seq == seq)
                                    .map(|(_, phase)| phase);
                                match hook.store.commit(&manifest, crash) {
                                    Ok(()) => {}
                                    Err(DurabilityError::SimulatedCrash { .. }) => {
                                        killed_ref.store(true, Ordering::SeqCst);
                                    }
                                    Err(e) => panic!("checkpoint commit failed: {e}"),
                                }
                            }
                            comm.barrier()?;
                            if killed_ref.load(Ordering::SeqCst) {
                                return Err(CommError::ProcessKilled { rank: slot, seq });
                            }
                            if let Some(sink) = &sink {
                                sink.record_at_comm_ns(
                                    comm.clock_mut().comm_ns(),
                                    TelemetryEvent::CheckpointPersisted {
                                        iteration: (iteration + 1) as u64,
                                        seq,
                                        bytes,
                                    },
                                );
                            }
                        }
                        *slots_ref[slot].lock().expect("checkpoint slot poisoned") =
                            Some(CheckpointSlot {
                                iteration: iteration + 1,
                                costs: costs.clone(),
                                state: snapshot,
                            });
                        if let Some(sink) = &sink {
                            sink.record_at_comm_ns(
                                comm.clock_mut().comm_ns(),
                                TelemetryEvent::Checkpoint {
                                    iteration: iteration as u64,
                                },
                            );
                        }
                        job.emit(IterationProgress {
                            rank: slot,
                            iteration,
                            attempt: attempt_number,
                            cost: costs[iteration],
                            time: comm.clock_mut().breakdown(),
                            peak_bytes: comm.memory_mut().peak_total(),
                        });
                    }
                    Ok(())
                })();
                match result {
                    Ok(()) => Ok(RankRun {
                        core: kernel.core_volume(&state),
                        costs,
                        stats: comm.stats(),
                        heartbeats_sent,
                        heartbeats_observed,
                    }),
                    Err(error) => {
                        if assignment_ref.is_some() {
                            if let CommError::RankDead { .. } = error {
                                // The dying rank registers the verdict for
                                // the engine's substitution step.
                                dead_ref.lock().expect("death registry poisoned").push(node);
                            }
                        }
                        Err(error)
                    }
                }
            });
            // Rank threads are joined at this point: a driver-side flush (or
            // stream write) cannot race rank-side recording.
            let flush_telemetry = || {
                if let Some(telemetry) = job.telemetry {
                    telemetry.flush_all();
                }
            };
            match attempt {
                Ok(outcomes) => {
                    let reliable = outcomes.iter().fold(ReliableStats::default(), |acc, o| {
                        acc.merge(&o.result.stats)
                    });
                    let heartbeats_sent = outcomes.iter().map(|o| o.result.heartbeats_sent).sum();
                    let heartbeats_observed =
                        outcomes.iter().map(|o| o.result.heartbeats_observed).sum();
                    flush_telemetry();
                    return Ok(assemble(
                        outcomes,
                        kernel.grid().clone(),
                        iterations,
                        RecoveryReport {
                            iteration_restarts: restarts,
                            substitutions,
                            membership_epoch,
                            heartbeats_sent,
                            heartbeats_observed,
                            reliable,
                        },
                    ));
                }
                Err(failure) => {
                    // Cancellation is not a fault. Some ranks observe the
                    // flag and unwind with `Cancelled`; ranks already parked
                    // in a receive or barrier fail with a timeout/deadlock
                    // instead. Either way, once the flag is up the run is
                    // over — no restart budget, no substitutions.
                    if job.cancelled() || matches!(failure.error, CommError::Cancelled { .. }) {
                        flush_telemetry();
                        return Err(RankFailure {
                            rank: failure.rank,
                            error: CommError::Cancelled { rank: failure.rank },
                            failed_ranks: failure.failed_ranks,
                        });
                    }
                    // A simulated process kill is terminal by definition:
                    // the "process" is dead, and resuming it is the caller's
                    // job (`JobEngine::resume(dir)`), not this loop's.
                    if let CommError::ProcessKilled { .. } = failure.error {
                        flush_telemetry();
                        return Err(failure);
                    }
                    // Preemption mirrors cancellation: the owner raised the
                    // flag to splice ingested scan positions, so the run is
                    // over here and the owner re-runs it. Ranks that were
                    // already parked in a receive or barrier when the flag
                    // went up fail with a timeout instead — map those back
                    // to the preemption that caused them.
                    if job.preempted() || matches!(failure.error, CommError::Preempted { .. }) {
                        flush_telemetry();
                        return Err(RankFailure {
                            rank: failure.rank,
                            error: CommError::Preempted { rank: failure.rank },
                            failed_ranks: failure.failed_ranks,
                        });
                    }
                    // Restart only from a provably consistent boundary: every
                    // rank's latest checkpoint must agree on the iteration
                    // (None counts as iteration 0).
                    let boundary = |slot: &Mutex<Option<CheckpointSlot<K::Checkpoint>>>| {
                        slot.lock()
                            .expect("checkpoint slot poisoned")
                            .as_ref()
                            .map_or(0, |saved| saved.iteration)
                    };
                    let first = boundary(&slots[0]);
                    if slots.iter().any(|slot| boundary(slot) != first) {
                        flush_telemetry();
                        return Err(failure);
                    }
                    let mut deaths =
                        std::mem::take(&mut *dead_nodes.lock().expect("death registry poisoned"));
                    deaths.sort_unstable();
                    deaths.dedup();
                    if deaths.is_empty() {
                        // A message-loss failure: plain checkpoint restart,
                        // bounded by the restart budget.
                        if restarts >= max_iteration_restarts {
                            flush_telemetry();
                            return Err(failure);
                        }
                        restarts += 1;
                    } else {
                        // The failure-detector verdict names dead nodes:
                        // promote one spare per death. The restart budget is
                        // untouched — substitutions are bounded by the pool.
                        let view = membership
                            .as_mut()
                            .expect("deaths are only registered in membership mode");
                        for node in deaths {
                            // Under an external arbiter, every promotion
                            // must first be granted a node from the shared
                            // pool; a refusal is pool exhaustion.
                            if let Some(grant) = job.spare_grant {
                                if !grant(node) {
                                    flush_telemetry();
                                    return Err(RankFailure {
                                        rank: failure.rank,
                                        error: CommError::SparesExhausted {
                                            rank: failure.rank,
                                            dead_node: node,
                                        },
                                        failed_ranks: failure.failed_ranks,
                                    });
                                }
                            }
                            match view.substitute(node) {
                                Ok((slot, replacement)) => {
                                    substitutions += 1;
                                    if let Some(telemetry) = job.telemetry {
                                        // Recorded on the *new* node's stream
                                        // (the dead node's stream keeps its
                                        // final attempt for post-mortems).
                                        telemetry.sink(replacement).record(
                                            TelemetryEvent::SparePromoted {
                                                slot: slot as u64,
                                                node: replacement as u64,
                                            },
                                        );
                                    }
                                }
                                Err(MembershipError::SparesExhausted { dead_node }) => {
                                    flush_telemetry();
                                    return Err(RankFailure {
                                        rank: failure.rank,
                                        error: CommError::SparesExhausted {
                                            rank: failure.rank,
                                            dead_node,
                                        },
                                        failed_ranks: failure.failed_ranks,
                                    });
                                }
                                Err(MembershipError::NotAssigned { .. }) => {
                                    // A node can only die while assigned;
                                    // anything else is a driver bug.
                                    unreachable!("dead node was not assigned a slot")
                                }
                            }
                        }
                    }
                    attempt_index += 1;
                }
            }
        }
    }
}

/// Gathers per-rank outcomes into a [`ReconstructionResult`] — the single
/// assembly path shared by both solvers.
fn assemble(
    outcomes: Vec<RankOutcome<RankRun>>,
    grid: TileGrid,
    iterations: usize,
    recovery: RecoveryReport,
) -> ReconstructionResult {
    let mut cores: Vec<(Rect, CArray3)> = Vec::with_capacity(outcomes.len());
    let mut cost_per_iteration = vec![0.0; iterations];
    let mut time = Vec::with_capacity(outcomes.len());
    let mut memory = Vec::with_capacity(outcomes.len());
    for outcome in outcomes {
        cores.push((grid.tile(outcome.rank).core, outcome.result.core));
        for (i, c) in outcome.result.costs.iter().enumerate() {
            cost_per_iteration[i] += c;
        }
        time.push(outcome.time);
        memory.push(outcome.memory);
    }
    let volume = stitch_tiles(&grid, &cores);
    ReconstructionResult {
        volume,
        cost_history: CostHistory::from_costs(cost_per_iteration),
        time,
        memory,
        grid,
        recovery,
    }
}
