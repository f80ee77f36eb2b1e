//! The shared fault-tolerant iteration engine.
//!
//! Both reconstruction methods — Gradient Decomposition and the Halo Voxel
//! Exchange baseline — drive the same per-rank loop: initialise tile state,
//! run the per-iteration passes/exchanges, collect per-iteration costs, and
//! stitch the core tiles into the full volume. Each method implements only
//! the crate-private `SolverKernel` trait (what *one iteration* does on *one
//! rank*) and calls the crate-private `engine::run`, which owns everything
//! around it:
//!
//! * the rank's tile: the kernel's `init` hands over the rank's
//!   `TileWorker` (the halo-extended sub-volume — as in the paper, a rank's
//!   whole state between iterations), and the engine checkpoints and
//!   restores its volume and stitches its core,
//! * the per-rank iteration loop (one loop for every policy) and cost
//!   bookkeeping,
//! * gathering [`RankOutcome`]s and stitching the [`ReconstructionResult`],
//! * **recovery**, governed by [`RecoveryPolicy`]:
//!   - [`RecoveryPolicy::FailFast`] reproduces the historical behaviour —
//!     the first communication failure aborts the run (and adds zero
//!     overhead to the fault-free path; no extra barriers);
//!   - [`RecoveryPolicy::Recover`] keeps a lightweight per-iteration
//!     checkpoint of each rank's tile volume. Ranks exchange messages over
//!     the raw transport, exactly as under `FailFast`; a lost message
//!     surfaces as [`CommError::MessageLost`] at the receive that would
//!     have matched it, on either transport, and the resulting
//!     [`RankFailure`] rolls the whole run back to the last consistent
//!     iteration boundary and re-runs it instead of aborting, up to
//!     `max_iteration_restarts` times. A **permanently dead rank** would
//!     die again in every attempt, so the engine also keeps a
//!     [`MembershipView`] — an epoch-numbered slot → node assignment table
//!     with a pool of `spares` standby nodes. When an attempt fails because
//!     a node died (the dying rank's [`CommError::RankDead`] verdict), the
//!     engine retires the node, promotes the lowest-numbered spare into its
//!     tile slot, bumps the membership epoch, and re-runs from the last
//!     consistency-barrier checkpoint — which the adopting spare restores
//!     exactly as the dead node would have, so the healed run is
//!     bit-identical to a fault-free one. An empty spare pool surfaces
//!     [`CommError::SparesExhausted`].
//!
//! ### Why checkpoints are consistent
//!
//! In recovery mode the engine ends every iteration with a barrier and saves
//! the checkpoint only after the barrier completes. A barrier completes for
//! either every rank or no rank, so whenever an attempt fails, every rank's
//! latest checkpoint refers to the same iteration — the engine verifies this
//! invariant before restarting and escalates the original failure if it ever
//! does not hold. The tile volume is the whole checkpoint: a kernel's
//! scratch (Algorithm 1's accumulation buffers) is zero at every iteration
//! boundary, and every attempt builds it afresh. Every attempt also runs on
//! fresh transports, so no message of a failed attempt can reach a later
//! one. Each slot's simulated clock is kept across attempts: a restart starts
//! where the failed attempt stopped, so its time stays booked and telemetry
//! stamps stay monotonic. The attempt number goes to each rank's fault harness
//! ([`FaultHarness::set_attempt`]), so seeded fault policies draw fresh
//! decisions per attempt. It counts *attempts*; the membership epoch counts
//! *promotions* — the two move independently (a restart without a death
//! bumps only the former).
//!
//! [`FaultHarness::set_attempt`]: ptycho_cluster::backend::fault::FaultHarness::set_attempt
//! [`MembershipView`]: ptycho_cluster::MembershipView
//! [`CommError::MessageLost`]: ptycho_cluster::CommError::MessageLost
//! [`CommError::RankDead`]: ptycho_cluster::CommError::RankDead
//! [`CommError::SparesExhausted`]: ptycho_cluster::CommError::SparesExhausted

use crate::convergence::CostHistory;
use crate::durability::{
    decode_exactly, ByteWriter, CheckpointPayload, CheckpointStore, DurabilityError, EpochManifest,
    RecoveredEpoch, SlotRecord,
};
use crate::stitch::stitch_tiles;
use crate::tiling::TileGrid;
use crate::worker::{TileVolume, TileWorker};
use ptycho_array::Rect;
use ptycho_cluster::{
    CommBackend, CommError, CrashPhase, FaultCursor, MembershipError, MembershipView,
    MemoryTracker, RankClock, RankComm, RankFailure, RankOutcome, SharedTile, TimeBreakdown,
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
    /// Per-rank simulated time, from each rank's clock at the end of the
    /// run (under [`RecoveryPolicy::Recover`], across every attempt).
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
    /// Checkpoint every rank's tile at each iteration boundary and heal a
    /// failed attempt by rolling back to it. A failure caused by lost
    /// messages re-runs from the checkpoint, at most
    /// `max_iteration_restarts` times. A failure caused by a **permanently
    /// dead node** promotes one of `spares` standby nodes into the dead
    /// node's tile slot, where it adopts the slot's last checkpoint, and
    /// re-runs under a bumped membership epoch — bit-identically to a
    /// fault-free run; with no spare left the run fails with
    /// [`CommError::SparesExhausted`]. Substitutions are bounded by the
    /// spare pool, not by the restart budget.
    Recover {
        /// Number of standby spare nodes available for promotion.
        spares: usize,
        /// Upper bound on checkpoint restarts for non-death failures.
        max_iteration_restarts: usize,
    },
}

/// Always zero: nothing retransmits. Held only because the benchmark
/// harness (`perf_bench`) reads `recovery.reliable.retransmits`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RetransmitCount {
    /// Messages retransmitted: always 0.
    pub retransmits: u64,
}

/// What the recovery machinery did during one reconstruction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Checkpoint restarts the engine performed (excluding substitutions).
    pub iteration_restarts: usize,
    /// Spare-rank promotions: how many permanently dead nodes were replaced
    /// by standby spares ([`RecoveryPolicy::Recover`]).
    pub substitutions: usize,
    /// Always zero (see [`RetransmitCount`]).
    pub reliable: RetransmitCount,
}

impl RecoveryReport {
    /// True when the run needed no recovery work at all.
    pub fn is_clean(&self) -> bool {
        self.iteration_restarts == 0 && self.substitutions == 0
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
///   the external pool (and the one-byte attempt ceiling) instead, while
///   job-local spare numbering (`slots + k` for the k-th promotion) is
///   unchanged, which is what keeps a healed service run bit-identical to
///   the same job healed standalone.
#[derive(Clone, Copy, Default)]
pub struct JobContext<'a> {
    /// Raised by the job's owner to request cooperative cancellation.
    pub cancel: Option<&'a AtomicBool>,
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
    /// continues exactly where the killed process left off. The run panics
    /// on an epoch whose slot count, or a slot's tile-volume shape, does
    /// not match the decomposition (`JobEngine::resume` refuses those).
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
            .field("progress", &self.progress.is_some())
            .field("spare_grant", &self.spare_grant.is_some())
            .field("telemetry", &self.telemetry.is_some())
            .field("durability", &self.durability.is_some())
            .finish()
    }
}

/// What one reconstruction method contributes to the shared engine loop:
/// the body of one iteration, and the scratch it needs beyond the rank's
/// tile. The tile — the [`TileWorker`] `init` builds — belongs to [`run`],
/// as does everything else: iteration driving, cost collection,
/// checkpointing, recovery, stitching.
pub(crate) trait SolverKernel: Sync {
    /// Rank-local scratch beyond the tile (accumulation buffers, gradient
    /// scratch, payload pools). Nothing in it outlives an iteration: each
    /// attempt builds it afresh and restores only the tile volume.
    type State<'k>
    where
        Self: 'k;

    /// The tile decomposition (one rank per tile).
    fn grid(&self) -> &TileGrid;

    /// Number of object slices: the depth of every tile volume.
    fn slices(&self) -> usize;

    /// Number of reconstruction iterations.
    fn iterations(&self) -> usize;

    /// Builds rank `ctx.rank()`'s tile worker and scratch, registering their
    /// memory footprint with `ctx`'s tracker. Must not communicate.
    fn init<'k, C: RankComm<SharedTile>>(
        &'k self,
        ctx: &mut C,
    ) -> (TileWorker<'k>, Self::State<'k>);

    /// Runs one full iteration on this rank, returning the rank's share of
    /// the iteration cost `F(V)`.
    fn run_iteration<C: RankComm<SharedTile>>(
        &self,
        ctx: &mut C,
        worker: &mut TileWorker<'_>,
        state: &mut Self::State<'_>,
        iteration: usize,
    ) -> Result<f64, CommError>;
}

/// What one rank hands back to the engine.
struct RankRun {
    core: CArray3,
    costs: Vec<f64>,
}

/// A rank's saved state at a completed iteration boundary.
struct CheckpointSlot {
    /// Number of completed iterations (the next attempt resumes here).
    iteration: usize,
    /// Per-iteration costs accumulated so far.
    costs: Vec<f64>,
    /// The rank's halo-extended tile volume.
    volume: TileVolume,
    /// A resumed rank's persisted fault cursor. The first attempt after the
    /// resume takes it, so seeded fault decisions that fired before the
    /// kill do not re-fire; later attempts start fresh harnesses exactly as
    /// they would in an uninterrupted run.
    cursor: Option<FaultCursor>,
}

/// Runs `kernel`'s reconstruction on `backend`, one rank per tile, under
/// `policy` and the job-engine hooks of `job` (cooperative cancellation,
/// per-iteration progress streaming, an externally owned spare pool — see
/// [`JobContext`]; the default context has none). Unrecovered communication
/// failures surface as a [`RankFailure`].
pub(crate) fn run<K: SolverKernel, B: CommBackend>(
    kernel: &K,
    policy: RecoveryPolicy,
    backend: &B,
    job: &JobContext<'_>,
) -> Result<ReconstructionResult, RankFailure> {
    match policy {
        RecoveryPolicy::FailFast => run_fail_fast(kernel, backend, job),
        RecoveryPolicy::Recover {
            spares,
            max_iteration_restarts,
        } => run_recovering(kernel, backend, job, max_iteration_restarts, spares),
    }
}

/// One rank's iterations `start..`: the per-rank loop of Algorithm 1, written
/// once for every policy. Each iteration polls cancellation, stamps
/// `IterationBegin`, runs the kernel's body, stamps `IterationEnd` with the
/// rank clock's split, runs the policy's `boundary` step, and emits the
/// progress event. Events go to the telemetry sink installed in
/// `comm`'s instruments. `boundary` sees the tile and costs after the
/// iteration; an error from it ends the rank like a failed iteration.
#[allow(clippy::too_many_arguments)]
fn run_rank<'k, K, C, F>(
    kernel: &'k K,
    comm: &mut C,
    worker: &mut TileWorker<'k>,
    state: &mut K::State<'k>,
    costs: &mut Vec<f64>,
    start: usize,
    attempt: usize,
    job: &JobContext<'_>,
    mut boundary: F,
) -> Result<(), CommError>
where
    K: SolverKernel,
    C: RankComm<SharedTile>,
    F: FnMut(&mut C, &TileWorker<'k>, &[f64], usize) -> Result<(), CommError>,
{
    let slot = comm.rank();
    for iteration in start..kernel.iterations() {
        // The cancellation poll point: before starting new work. Every rank
        // polls the same flag, so either all ranks unwind here together or
        // the stragglers' next receive or barrier fails — the recovering
        // driver maps both to a cancelled (not faulted) run.
        if job.cancelled() {
            return Err(CommError::Cancelled { rank: slot });
        }
        comm.trace(TelemetryEvent::IterationBegin {
            iteration: iteration as u64,
            attempt: attempt as u64,
        });
        costs.push(kernel.run_iteration(comm, worker, state, iteration)?);
        let clock = *comm.clock_mut();
        comm.trace(TelemetryEvent::IterationEnd {
            iteration: iteration as u64,
            attempt: attempt as u64,
            cost: costs[iteration],
            compute_ns: clock.compute_ns(),
            comm_ns: clock.comm_ns(),
        });
        boundary(comm, worker, costs, iteration)?;
        job.emit(IterationProgress {
            rank: slot,
            iteration,
            attempt,
            cost: costs[iteration],
            time: comm.clock_mut().breakdown(),
            peak_bytes: comm.memory_mut().peak_total(),
        });
    }
    Ok(())
}

fn run_fail_fast<K: SolverKernel, B: CommBackend>(
    kernel: &K,
    backend: &B,
    job: &JobContext<'_>,
) -> Result<ReconstructionResult, RankFailure> {
    // Durable checkpoints piggyback on the recovering path's consistency
    // barrier; the fail-fast path has no barrier to hang them on, so a
    // silent no-op here would look like durability while providing none.
    assert!(
        job.durability.is_none(),
        "durable checkpoints require the recovering policy (Recover): \
         the fail-fast path has no consistency barrier to persist at"
    );
    let iterations = kernel.iterations();
    let outcomes = backend.run::<SharedTile, RankRun, _>(kernel.grid().num_tiles(), |ctx| {
        ctx.instruments().telemetry = job.telemetry.map(|t| t.sink(ctx.rank()));
        let (mut worker, mut state) = kernel.init(ctx);
        let mut costs = Vec::with_capacity(iterations);
        run_rank(
            kernel,
            ctx,
            &mut worker,
            &mut state,
            &mut costs,
            0,
            0,
            job,
            |_, _, _, _| Ok(()),
        )?;
        Ok(RankRun {
            core: worker.core_volume(),
            costs,
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

/// The recovery driver behind [`RecoveryPolicy::Recover`].
///
/// Every attempt runs the ranks from the last consistency-barrier
/// checkpoint. A [`MembershipView`] maps each tile *slot* to the physical
/// *node* running it and — when an attempt fails because a node died — a
/// spare is promoted into the dead node's slot before re-running; any other
/// failure is a plain checkpoint restart. The **checkpoint store is keyed by
/// slot**, so the adopting spare restores exactly the tile volume the dead
/// node saved at the last consistency barrier.
fn run_recovering<K: SolverKernel, B: CommBackend>(
    kernel: &K,
    backend: &B,
    job: &JobContext<'_>,
    max_iteration_restarts: usize,
    spares: usize,
) -> Result<ReconstructionResult, RankFailure> {
    let iterations = kernel.iterations();
    let ranks = kernel.grid().num_tiles();
    // With an external spare arbiter, the pool bound lives outside the
    // engine: size the local view at the attempt ceiling (the hard upper
    // bound on promotions anyway) so the arbiter alone decides exhaustion.
    // Promotion numbering is unaffected — the k-th promotion is always
    // local node `ranks + k` whatever the pool size — which is what keeps
    // service-healed runs bit-identical to standalone ones.
    let spares = if job.spare_grant.is_some() {
        usize::from(u8::MAX) + 1
    } else {
        spares
    };
    let mut membership = MembershipView::new(ranks, spares);
    let slots: Vec<Mutex<Option<CheckpointSlot>>> = (0..ranks).map(|_| Mutex::new(None)).collect();
    // Each slot's simulated clock where its last attempt stopped.
    let clocks: Vec<Mutex<RankClock>> = (0..ranks).map(|_| Mutex::default()).collect();
    let mut restarts = 0usize;
    let mut substitutions = 0usize;
    let mut attempt_index = 0usize;
    // Resuming from disk: prefill every rank's checkpoint slot (fault
    // cursor included), the membership table, and the recovery counters
    // from the recovered epoch, so the existing restore-from-slot path
    // picks the run up exactly where the killed process committed it.
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
            let volume: TileVolume =
                decode_exactly(&record.state, Path::new("recovered slot state"))
                    .expect("recovered slot state does not decode as a tile volume");
            let extended = kernel.grid().tile(slot).extended;
            let tile = (kernel.slices(), extended.rows(), extended.cols());
            assert!(
                volume.shape() == tile,
                "recovered slot {slot} holds a {:?} tile volume but its tile is {tile:?} \
                 (slices, rows, cols)",
                volume.shape()
            );
            *slots[slot].lock().expect("checkpoint slot poisoned") = Some(CheckpointSlot {
                iteration: record.iteration,
                costs: record.costs.clone(),
                volume,
                cursor: record.cursor.clone(),
            });
        }
        membership = epoch.manifest.membership.clone();
        restarts = epoch.manifest.restarts;
        substitutions = epoch.manifest.substitutions;
        attempt_index = epoch.manifest.attempt_index as usize;
        Some(epoch.manifest.seq)
    });
    let start_attempt = attempt_index;
    let outcome = 'attempts: loop {
        // A checkpoint manifest records the attempt in one byte
        // (`EpochManifest::attempt_index`); make that ceiling explicit
        // instead of letting a cast wrap a resumed run back onto attempt 0's
        // fault decisions. 256 attempts means a restart budget or a spare
        // pool far beyond anything a run needs.
        let epoch = u8::try_from(attempt_index).unwrap_or_else(|_| {
            panic!(
                "recovery exceeded {} attempts: a checkpoint manifest records the attempt \
                 in one byte (restart budget and spare pool must stay below that combined)",
                usize::from(u8::MAX) + 1
            )
        });
        // The attempt's frozen membership: slot -> node.
        let assignment = membership.assignment().to_vec();
        // Nodes whose death was observed this attempt — the failure
        // detector's verdict registry, filled by the dying rank itself
        // (the backend is the runtime: it knows the node's communicator
        // went dead, like an MPI runtime revoking a communicator).
        let dead_nodes: Mutex<Vec<usize>> = Mutex::new(Vec::new());
        // Set by rank 0 when a simulated process kill strikes its commit;
        // every rank observes it after the commit barrier and unwinds
        // together, so the "process" dies as a unit.
        let killed = AtomicBool::new(false);
        let attempt = backend.run::<SharedTile, RankRun, _>(ranks, |comm| {
            let slot = comm.rank();
            let node = assignment[slot];
            if let Some(harness) = &mut comm.instruments().harness {
                // Node-keyed faults (rank death) must follow the node: a
                // spare adopting this slot must not inherit a death aimed
                // at its predecessor. Message faults draw afresh per
                // attempt.
                harness.set_node(node);
                harness.set_attempt(attempt_index as u64);
            }
            // Telemetry streams are keyed by *node*: a promoted spare
            // writes its own stream, leaving the dead node's record of
            // its final attempt intact for post-mortems.
            comm.instruments().telemetry = job.telemetry.map(|t| t.sink(node));
            *comm.clock_mut() = *clocks[slot].lock().expect("rank clock poisoned");
            let (mut worker, mut state) = kernel.init(comm);
            let (mut costs, start) = {
                let mut saved = slots[slot].lock().expect("checkpoint slot poisoned");
                match saved.as_mut() {
                    Some(saved) => {
                        *worker.volume_mut() = saved.volume.clone();
                        if let Some(cursor) = saved.cursor.take() {
                            if let Some(harness) = &mut comm.instruments().harness {
                                harness.set_cursor(&cursor);
                            }
                        }
                        (saved.costs.clone(), saved.iteration)
                    }
                    None => (Vec::with_capacity(iterations), 0),
                }
            };
            if let Some(seq) = resume_seq.filter(|_| attempt_index == start_attempt) {
                let iteration = start as u64;
                comm.trace(TelemetryEvent::CheckpointRestored { iteration, seq });
            }
            let result = run_rank(
                kernel,
                comm,
                &mut worker,
                &mut state,
                &mut costs,
                start,
                attempt_index,
                job,
                |comm, worker, costs, iteration| {
                    comm.trace(TelemetryEvent::BarrierWait {
                        iteration: iteration as u64,
                    });
                    if let Some(sink) = &mut comm.instruments().telemetry {
                        // Publish the durability watermark *before* the
                        // barrier: everything recorded so far is covered
                        // by this generation's post-barrier flush.
                        sink.publish_watermark(iteration as u64);
                    }
                    // The consistency barrier: no rank can proceed past
                    // this iteration until every rank has completed it,
                    // so every stored checkpoint always refers to the
                    // same iteration.
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
                    let volume = worker.volume().clone();
                    // Durable persistence rides the barrier just crossed:
                    // every rank's in-flight state for iteration
                    // `iteration` is final, so the slot files written now
                    // form a globally consistent cut. Two more barriers
                    // order (a) all slot files before the manifest commit
                    // and (b) the commit before anyone proceeds — they
                    // carry no payloads, so the reconstruction stays
                    // bit-identical to an undurable run.
                    if let Some(hook) = &job.durability {
                        let seq = hook.store.next_seq();
                        let mut encoded = ByteWriter::new();
                        volume.encode(&mut encoded);
                        let record = SlotRecord {
                            iteration: iteration + 1,
                            costs: costs.to_vec(),
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
                                attempt_index: epoch,
                                restarts,
                                substitutions,
                                membership: membership.clone(),
                                spec: hook.spec.to_vec(),
                            };
                            let crash = hook
                                .kill
                                .filter(|&(kill_seq, _)| kill_seq == seq)
                                .map(|(_, phase)| phase);
                            match hook.store.commit(&manifest, crash) {
                                Ok(()) => {}
                                Err(DurabilityError::SimulatedCrash { .. }) => {
                                    killed.store(true, Ordering::SeqCst);
                                }
                                Err(e) => panic!("checkpoint commit failed: {e}"),
                            }
                        }
                        comm.barrier()?;
                        if killed.load(Ordering::SeqCst) {
                            return Err(CommError::ProcessKilled { rank: slot, seq });
                        }
                        comm.trace(TelemetryEvent::CheckpointPersisted {
                            iteration: (iteration + 1) as u64,
                            seq,
                            bytes,
                        });
                    }
                    *slots[slot].lock().expect("checkpoint slot poisoned") = Some(CheckpointSlot {
                        iteration: iteration + 1,
                        costs: costs.to_vec(),
                        volume,
                        cursor: None,
                    });
                    comm.trace(TelemetryEvent::Checkpoint {
                        iteration: iteration as u64,
                    });
                    Ok(())
                },
            );
            *clocks[slot].lock().expect("rank clock poisoned") = *comm.clock_mut();
            match result {
                Ok(()) => Ok(RankRun {
                    core: worker.core_volume(),
                    costs,
                }),
                Err(error) => {
                    if let CommError::RankDead { .. } = error {
                        // The dying rank registers the verdict for the
                        // engine's substitution step.
                        dead_nodes
                            .lock()
                            .expect("death registry poisoned")
                            .push(node);
                    }
                    Err(error)
                }
            }
        });
        let failure = match attempt {
            Ok(outcomes) => {
                break Ok(assemble(
                    outcomes,
                    kernel.grid().clone(),
                    iterations,
                    RecoveryReport {
                        iteration_restarts: restarts,
                        substitutions,
                        reliable: RetransmitCount::default(),
                    },
                ));
            }
            Err(failure) => failure,
        };
        // Cancellation is not a fault. Some ranks observe the flag and
        // unwind with `Cancelled`; ranks already parked in a receive or
        // barrier fail with `PeerGone` / `BarrierBroken` once a cancelled
        // peer exits. Either way, once the flag is up the run is over — no
        // restart budget, no substitutions.
        if job.cancelled() || matches!(failure.error, CommError::Cancelled { .. }) {
            break Err(RankFailure {
                rank: failure.rank,
                error: CommError::Cancelled { rank: failure.rank },
                failed_ranks: failure.failed_ranks,
            });
        }
        // A simulated process kill is terminal by definition: the
        // "process" is dead, and resuming it is the caller's job
        // (`JobEngine::resume(dir)`), not this loop's.
        if let CommError::ProcessKilled { .. } = failure.error {
            break Err(failure);
        }
        // Restart only from a provably consistent boundary: every rank's
        // latest checkpoint must agree on the iteration (None counts as
        // iteration 0).
        let boundary = |slot: &Mutex<Option<CheckpointSlot>>| {
            slot.lock()
                .expect("checkpoint slot poisoned")
                .as_ref()
                .map_or(0, |saved| saved.iteration)
        };
        let first = boundary(&slots[0]);
        if slots.iter().any(|slot| boundary(slot) != first) {
            break Err(failure);
        }
        let mut deaths = std::mem::take(&mut *dead_nodes.lock().expect("death registry poisoned"));
        deaths.sort_unstable();
        deaths.dedup();
        if deaths.is_empty() {
            // A message-loss failure: plain checkpoint restart, bounded by
            // the restart budget.
            if restarts >= max_iteration_restarts {
                break Err(failure);
            }
            restarts += 1;
        } else {
            // The failure-detector verdict names dead nodes: promote one
            // spare per death. The restart budget is untouched —
            // substitutions are bounded by the pool.
            for node in deaths {
                // Under an external arbiter, every promotion must first be
                // granted a node from the shared pool; a refusal is pool
                // exhaustion.
                let promoted = if job.spare_grant.is_none_or(|grant| grant(node)) {
                    membership.substitute(node)
                } else {
                    Err(MembershipError::SparesExhausted { dead_node: node })
                };
                match promoted {
                    Ok((slot, replacement)) => {
                        substitutions += 1;
                        if let Some(telemetry) = job.telemetry {
                            // Recorded on the *new* node's stream (the
                            // dead node's stream keeps its final attempt
                            // for post-mortems).
                            telemetry
                                .sink(replacement)
                                .record(TelemetryEvent::SparePromoted {
                                    slot: slot as u64,
                                    node: replacement as u64,
                                });
                        }
                    }
                    Err(MembershipError::SparesExhausted { dead_node }) => {
                        break 'attempts Err(RankFailure {
                            rank: failure.rank,
                            error: CommError::SparesExhausted {
                                rank: failure.rank,
                                dead_node,
                            },
                            failed_ranks: failure.failed_ranks,
                        });
                    }
                    Err(MembershipError::NotAssigned { .. }) => {
                        // A node can only die while assigned; anything
                        // else is a driver bug.
                        unreachable!("dead node was not assigned a slot")
                    }
                }
            }
        }
        attempt_index += 1;
    };
    // Rank threads are joined at this point: a driver-side flush (or
    // stream write) cannot race rank-side recording.
    if let Some(telemetry) = job.telemetry {
        telemetry.flush_all();
    }
    outcome
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
