//! Pluggable communication backends.
//!
//! The reconstruction solvers in `ptycho-core` are written against two small
//! traits rather than a concrete runtime:
//!
//! * [`RankComm`] is the per-rank surface — the MPI-flavoured primitives a
//!   rank body actually uses (`isend`/`recv`/`try_recv`/`barrier`, plus the
//!   rank's [`RankClock`] and [`MemoryTracker`]).
//! * [`CommBackend`] is the launcher — it runs a rank body on `n` ranks and
//!   collects one [`RankOutcome`] per rank.
//!
//! Everything a rank observes above the wire — range checks, correlation
//! ids, fault routing, `Delay` flushing, wire-time and wait-time charging,
//! rank death, transport-level telemetry — is written once, in the generic
//! per-rank context [`RankCtx`]. Beneath it a *transport* is five calls
//! (enqueue an envelope, blocking matched take, non-blocking matched take,
//! barrier, rank finished), and the two built-in backends are one transport
//! each; the third wraps either:
//!
//! | Backend | Execution | Use it for |
//! |---|---|---|
//! | [`ThreadedBackend`] | one OS thread per rank, real channels | the default; wall-clock compute/wait measurement |
//! | [`LockstepBackend`] | cooperative scheduler, one rank runs at a time in a fixed order | deterministic replayable runs, deadlock *detection* instead of hangs |
//! | [`FaultInjectionBackend`] | wraps either of the above | dropping / duplicating / delaying messages and killing nodes under a seeded policy |
//!
//! [`ReliableComm`] decorates one rank's communicator with acknowledge /
//! retransmit; it and the fault layer reach the context's fault harness and
//! telemetry sink through the one accessor [`RankComm::instruments`].
//!
//! Communication failures are values, not hangs: [`RankComm::recv`] returns
//! [`CommError`] when a message cannot arrive (receive timeout on the
//! threaded backend, global deadlock detected by the lockstep scheduler), and
//! [`CommBackend::run`] surfaces the first failing rank as a [`RankFailure`].

mod context;
pub mod fault;
pub mod lockstep;
pub mod pool;
pub mod reliable;
pub mod threaded;

use crate::clock::RankClock;
use crate::memory::MemoryTracker;
use ptycho_telemetry::TelemetryEvent;

pub use context::{Instruments, RankCtx};
pub use fault::{CrashPhase, FaultAction, FaultCursor, FaultInjectionBackend, FaultPolicy};
pub use lockstep::LockstepBackend;
pub use pool::TilePayloadPool;
pub use reliable::{ReliableComm, ReliableStats};
pub use threaded::{Cluster, ThreadedBackend};

/// Payloads carried between ranks must report an approximate wire size so the
/// analytic communication model can charge for them, and must be cloneable so
/// the fault-injection layer can duplicate messages.
pub trait Payload: Clone + Send {
    /// Number of bytes this payload would occupy on the wire.
    fn payload_bytes(&self) -> usize;
}

impl Payload for () {
    fn payload_bytes(&self) -> usize {
        0
    }
}

impl Payload for Vec<f64> {
    fn payload_bytes(&self) -> usize {
        self.len() * std::mem::size_of::<f64>()
    }
}

/// A tile-sized wire payload (the flat `re, im`-interleaved f64 buffer the
/// solvers exchange) behind an [`Arc`](std::sync::Arc): sending, duplicating
/// or buffering it for retransmission aliases the one allocation instead of
/// deep-copying volume-sized data.
///
/// The contents are immutable while shared — mutation is only possible
/// through [`SharedTile::unique_values_mut`], which (via `Arc::get_mut`)
/// succeeds only when no alias exists, so every alias always observes the
/// same bytes. That uniqueness gate is what lets [`TilePayloadPool`] recycle
/// a tile's buffer for the next send without copying.
#[derive(Clone, Debug)]
pub struct SharedTile(std::sync::Arc<Vec<f64>>);

impl SharedTile {
    /// Wraps a flat payload buffer (the only allocation in a send path).
    pub fn new(values: Vec<f64>) -> Self {
        Self(std::sync::Arc::new(values))
    }

    /// The payload values.
    pub fn values(&self) -> &[f64] {
        &self.0
    }

    /// Number of `f64` values in the payload.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when the payload holds no values.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Number of live aliases of this payload (the `Arc` strong count).
    /// `1` means this handle is the only owner and the buffer is reusable.
    pub fn ref_count(&self) -> usize {
        std::sync::Arc::strong_count(&self.0)
    }

    /// Mutable access to the underlying buffer, granted only when this
    /// handle is the sole owner (no clone is in a mailbox, a retransmit
    /// outbox or a fault-injection duplicate). Returns `None` otherwise.
    pub fn unique_values_mut(&mut self) -> Option<&mut Vec<f64>> {
        std::sync::Arc::get_mut(&mut self.0)
    }
}

/// The empty tile every [`SharedTile::default`] aliases: acknowledgement
/// frames carry it, and sharing one allocation keeps the ack path
/// allocation-free.
static EMPTY_TILE: std::sync::OnceLock<std::sync::Arc<Vec<f64>>> = std::sync::OnceLock::new();

impl Default for SharedTile {
    fn default() -> Self {
        Self(std::sync::Arc::clone(
            EMPTY_TILE.get_or_init(|| std::sync::Arc::new(Vec::new())),
        ))
    }
}

impl From<Vec<f64>> for SharedTile {
    fn from(values: Vec<f64>) -> Self {
        Self::new(values)
    }
}

impl Payload for SharedTile {
    fn payload_bytes(&self) -> usize {
        self.0.len() * std::mem::size_of::<f64>()
    }
}

/// A communication failure observed by one rank.
///
/// The simulated runtimes turn conditions that would hang an MPI job into
/// values: a receive that cannot be satisfied is reported, not waited on
/// forever.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CommError {
    /// A receive did not match any message within the backend's allowed wait
    /// (see [`ThreadedBackend::with_recv_timeout`]).
    RecvTimeout {
        /// The receiving rank.
        rank: usize,
        /// The sender the receive was posted against.
        from: usize,
        /// The tag the receive was posted against.
        tag: u64,
    },
    /// The lockstep scheduler proved that no rank can make progress: every
    /// unfinished rank is blocked in a receive or a barrier and no matching
    /// message is in flight.
    Deadlock {
        /// The rank reporting the deadlock.
        rank: usize,
        /// Human-readable description of what every blocked rank was waiting
        /// for when the deadlock was detected.
        detail: String,
    },
    /// A barrier did not complete within the backend's allowed wait — some
    /// rank exited (usually with its own error) before arriving.
    BarrierTimeout {
        /// The rank that gave up waiting at the barrier.
        rank: usize,
    },
    /// Every peer terminated while this rank was still waiting for a message.
    PeersGone {
        /// The receiving rank.
        rank: usize,
        /// The sender the receive was posted against.
        from: usize,
        /// The tag the receive was posted against.
        tag: u64,
    },
    /// The reliable-delivery layer ([`ReliableComm`]) retried a failing
    /// blocking operation its full recovery budget — retransmitting
    /// unacknowledged sends each time — and the operation still failed.
    /// Carries the last underlying error so callers can escalate (e.g. to a
    /// checkpoint restart) with the root cause intact.
    RecoveryExhausted {
        /// The rank that gave up.
        rank: usize,
        /// How many recovery rounds were attempted.
        recoveries: usize,
        /// The final underlying failure.
        last: Box<CommError>,
    },
    /// This rank was killed by the fault layer's rank-death fault class
    /// ([`FaultAction::Kill`]): the simulated node died permanently mid-run.
    /// Every subsequent operation on the rank's communicator reports this
    /// error, mirroring a process whose runtime has revoked its communicator.
    /// Unlike message loss this is not recoverable in place — the membership
    /// layer must substitute a spare node for the dead one.
    RankDead {
        /// The rank whose node died.
        rank: usize,
    },
    /// A node died permanently and the spare-rank pool had no standby node
    /// left to adopt its tile, so the run cannot be healed.
    SparesExhausted {
        /// The rank reporting the exhaustion.
        rank: usize,
        /// The dead node that could not be replaced.
        dead_node: usize,
    },
    /// The run was cancelled cooperatively: the job engine raised the job's
    /// cancel flag and the rank observed it at its next per-iteration
    /// barrier. Not a fault — the recovery machinery must not try to heal it.
    Cancelled {
        /// The rank that observed the cancellation.
        rank: usize,
    },
    /// The whole hosting process died (simulated via
    /// [`FaultPolicy::kill_process_at_barrier`](fault::FaultPolicy::kill_process_at_barrier)):
    /// every rank terminates at once at a durable checkpoint commit. Not a
    /// per-rank fault — no restart budget or spare can heal it in-process;
    /// only an out-of-process resume from the on-disk checkpoint can.
    ProcessKilled {
        /// The rank reporting the death.
        rank: usize,
        /// The checkpoint-store epoch sequence number the kill struck at.
        seq: u64,
    },
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::RecvTimeout { rank, from, tag } => write!(
                f,
                "rank {rank}: receive from rank {from} (tag {tag:#x}) timed out — \
                 the message was lost or never sent"
            ),
            CommError::Deadlock { rank, detail } => {
                write!(f, "rank {rank}: communication deadlock detected: {detail}")
            }
            CommError::BarrierTimeout { rank } => write!(
                f,
                "rank {rank}: barrier did not complete within the allowed wait — \
                 a peer exited before arriving"
            ),
            CommError::PeersGone { rank, from, tag } => write!(
                f,
                "rank {rank}: all peers terminated while waiting for a message \
                 from rank {from} (tag {tag:#x})"
            ),
            CommError::RecoveryExhausted {
                rank,
                recoveries,
                last,
            } => write!(
                f,
                "rank {rank}: reliable delivery gave up after {recoveries} \
                 retransmit/retry rounds; last failure: {last}"
            ),
            CommError::RankDead { rank } => write!(
                f,
                "rank {rank}: this rank's node died permanently (simulated rank-death fault); \
                 only a spare-rank substitution can heal the run"
            ),
            CommError::SparesExhausted { rank, dead_node } => write!(
                f,
                "rank {rank}: node {dead_node} died permanently and the spare-rank pool \
                 is exhausted"
            ),
            CommError::Cancelled { rank } => write!(
                f,
                "rank {rank}: the job was cancelled cooperatively at an iteration barrier"
            ),
            CommError::ProcessKilled { rank, seq } => write!(
                f,
                "rank {rank}: the hosting process was killed at durable checkpoint \
                 commit {seq}; resume from the checkpoint directory to continue"
            ),
        }
    }
}

impl std::error::Error for CommError {}

/// The failure of a whole multi-rank run: the lowest-ranked failing rank and
/// its error, plus how many ranks failed in total.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RankFailure {
    /// The lowest failing rank.
    pub rank: usize,
    /// That rank's communication error.
    pub error: CommError,
    /// Total number of ranks that reported an error.
    pub failed_ranks: usize,
}

impl std::fmt::Display for RankFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} rank(s) failed; first failure on rank {}: {}",
            self.failed_ranks, self.rank, self.error
        )
    }
}

impl std::error::Error for RankFailure {}

/// The outcome of one rank's execution.
#[derive(Clone, Debug)]
pub struct RankOutcome<R> {
    /// The rank index.
    pub rank: usize,
    /// Whatever the rank body returned.
    pub result: R,
    /// Time accounting collected by the rank.
    pub time: crate::clock::TimeBreakdown,
    /// Memory accounting collected by the rank.
    pub memory: MemoryTracker,
}

/// The per-rank communication surface the solvers are generic over.
///
/// The primitives mirror MPI: sends are non-blocking and buffered
/// (`MPI_Isend`), receives are matched on `(source, tag)` with per-sender
/// ordering (`MPI_Irecv` + `MPI_Wait`), and barriers synchronise every rank.
/// On top of the wire surface each rank carries its own [`RankClock`] (time
/// accounting) and [`MemoryTracker`] (memory accounting), because the solvers
/// charge simulated compute time and GPU allocations as they go.
pub trait RankComm<M: Payload> {
    /// This rank's index in `0..size`.
    fn rank(&self) -> usize;

    /// Total number of ranks.
    fn size(&self) -> usize;

    /// Non-blocking send of `payload` to `to` with a user-chosen `tag` (the
    /// analogue of `MPI_Isend` into a buffered request). The analytic wire
    /// time for the message is charged to this rank's communication budget.
    ///
    /// # Panics
    /// Panics if `to` is out of range.
    fn isend(&mut self, to: usize, tag: u64, payload: M);

    /// Blocking receive of the next message from `from` with tag `tag` (the
    /// analogue of `MPI_Irecv` + `MPI_Wait`). Time spent blocked is charged
    /// to wait time. Returns a [`CommError`] instead of hanging when the
    /// backend can prove (deadlock) or strongly suspect (timeout) that the
    /// message will never arrive.
    fn recv(&mut self, from: usize, tag: u64) -> Result<M, CommError>;

    /// Non-blocking probe: returns a matching message if one has already
    /// arrived, without waiting.
    fn try_recv(&mut self, from: usize, tag: u64) -> Option<M>;

    /// Synchronises all ranks; blocked time is charged to wait time.
    fn barrier(&mut self) -> Result<(), CommError>;

    /// The rank's time accounting.
    fn clock_mut(&mut self) -> &mut RankClock;

    /// The rank's memory accounting.
    fn memory_mut(&mut self) -> &mut MemoryTracker;

    /// The rank's fault harness and telemetry sink (see [`Instruments`]).
    /// Decorators forward this to the communicator they wrap.
    fn instruments(&mut self) -> &mut Instruments;

    /// Records `event` on the rank's telemetry stream, when one is
    /// installed, stamped at the rank's communication clock.
    fn trace(&mut self, event: TelemetryEvent) {
        let now = self.clock_mut().comm_ns();
        if let Some(sink) = &mut self.instruments().telemetry {
            sink.record_at_comm_ns(now, event);
        }
    }
}

/// A launcher that executes one body per rank and collects the outcomes.
///
/// `M` is the message type exchanged between ranks; `R` is the per-rank
/// result type. The body returns `Result<R, CommError>` so that communication
/// failures propagate out of the rank instead of panicking mid-run; `run`
/// reports the first failing rank as a [`RankFailure`].
pub trait CommBackend {
    /// The concrete [`RankComm`] handed to each rank body.
    type Comm<M: Payload + 'static>: RankComm<M>;

    /// Runs `body` on `num_ranks` ranks and collects every rank's outcome,
    /// ordered by rank.
    fn run<M, R, F>(&self, num_ranks: usize, body: F) -> Result<Vec<RankOutcome<R>>, RankFailure>
    where
        M: Payload + 'static,
        R: Send,
        F: Fn(&mut Self::Comm<M>) -> Result<R, CommError> + Sync;

    /// Returns a version of this backend on which a *lost* message is
    /// guaranteed to surface as a [`CommError`] instead of an indefinite
    /// hang. The lockstep backend already proves deadlocks, so this is a
    /// no-op there; the threaded backend installs a generous receive
    /// timeout unless one was configured explicitly.
    /// [`FaultInjectionBackend`] applies this to whatever it wraps, so a
    /// lossy policy can never hang the suite by construction.
    fn with_loss_detection(self) -> Self
    where
        Self: Sized,
    {
        self
    }

    /// True when a lost message surfaces as a [`CommError`] on this backend
    /// (a proven deadlock, a bounded receive). Recovery layers that act on
    /// such errors ([`ReliableComm`], the iteration engine's
    /// retransmit/restart policy) are inert on a backend without it — they
    /// would hang exactly like the raw backend — so they check this up
    /// front and refuse loudly instead.
    fn loss_detection_enabled(&self) -> bool {
        true
    }
}

/// Splits per-rank `Result` outcomes into a success vector or the first
/// failure.
pub(crate) fn collect_outcomes<R>(
    outcomes: Vec<RankOutcome<Result<R, CommError>>>,
) -> Result<Vec<RankOutcome<R>>, RankFailure> {
    let failed_ranks = outcomes.iter().filter(|o| o.result.is_err()).count();
    let mut collected = Vec::with_capacity(outcomes.len());
    for outcome in outcomes {
        match outcome.result {
            Ok(result) => collected.push(RankOutcome {
                rank: outcome.rank,
                result,
                time: outcome.time,
                memory: outcome.memory,
            }),
            Err(error) => {
                return Err(RankFailure {
                    rank: outcome.rank,
                    error,
                    failed_ranks,
                })
            }
        }
    }
    Ok(collected)
}

#[cfg(test)]
mod payload_tests {
    use super::*;

    #[test]
    fn shared_tile_clone_aliases_the_buffer() {
        let tile = SharedTile::new(vec![1.5; 1024]);
        let copy = tile.clone();
        assert_eq!(
            tile.values().as_ptr(),
            copy.values().as_ptr(),
            "cloning a SharedTile must alias, not deep-copy"
        );
        assert_eq!(tile.payload_bytes(), 1024 * 8);
        assert_eq!(copy.len(), 1024);
        assert!(!copy.is_empty());
        assert!(SharedTile::default().is_empty());
    }

    #[test]
    fn arc_payload_reports_inner_wire_size() {
        let tile: SharedTile = vec![0.0f64; 4].into();
        assert_eq!(tile.payload_bytes(), 32);
    }
}
