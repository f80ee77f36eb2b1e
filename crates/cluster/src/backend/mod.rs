//! Pluggable communication backends.
//!
//! The reconstruction solvers in `ptycho-core` are written against two small
//! traits rather than a concrete runtime:
//!
//! * [`RankComm`] is the per-rank surface — the MPI-flavoured primitives a
//!   rank body actually uses (`isend`/`recv`/`barrier`, plus the
//!   rank's [`RankClock`] and [`MemoryTracker`]).
//! * [`CommBackend`] is the launcher — it runs a rank body on `n` ranks and
//!   collects one [`RankOutcome`] per rank.
//!
//! Everything a rank observes above the wire — range checks, correlation
//! ids, fault routing, the simulated [`RankClock`] (the same on either
//! backend), rank death, transport-level telemetry — is written once, in the generic
//! per-rank context [`RankCtx`]. Beneath it a *transport* is four calls
//! (enqueue an envelope, blocking matched take, barrier, rank finished),
//! and the two built-in backends are one transport
//! each; the third wraps either:
//!
//! | Backend | Execution | Use it for |
//! |---|---|---|
//! | [`ThreadedBackend`] | one OS thread per rank, real channels | the default; ranks run concurrently |
//! | [`LockstepBackend`] | cooperative scheduler, one rank runs at a time in a fixed order | replayable interleavings, deadlock *detection* instead of hangs |
//! | [`FaultInjectionBackend`] | wraps either of the above | dropping messages and killing nodes under a seeded policy |
//!
//! The fault layer and the iteration engine reach the context's fault
//! harness and telemetry sink through the one accessor
//! [`RankComm::instruments`].
//!
//! Communication failures are values, not hangs. Loss and departure are
//! events in the message stream, written once in [`RankCtx`]: a dropped
//! message leaves a tombstone at its place in the sender's stream, which
//! fails the matching receive with [`CommError::MessageLost`], and a rank
//! that exits (returns, fails or panics) leaves an exit notice behind
//! everything it sent, which fails a receive that can no longer be matched
//! with [`CommError::PeerGone`]. A barrier a departed rank can never reach
//! fails with [`CommError::BarrierBroken`]. No backend keeps a timer.
//! [`CommBackend::run`] surfaces the rank whose error caused the others as a
//! [`RankFailure`]. Nothing below the iteration engine heals a lost message:
//! as with plain MPI point-to-point sends, the failure reaches the caller,
//! and the engine's recovering policy rolls every rank back to its last
//! consistency-barrier checkpoint and re-runs. A true deadlock among live
//! ranks is proven by the lockstep scheduler ([`CommError::Deadlock`]); on
//! the threaded backend it hangs, like `MPI_Wait`.

mod context;
pub mod fault;
pub mod lockstep;
pub mod pool;
pub mod threaded;

use crate::clock::RankClock;
use crate::memory::MemoryTracker;
use ptycho_telemetry::TelemetryEvent;

pub use context::{panic_text, Instruments, RankCtx};
pub use fault::{CrashPhase, FaultAction, FaultCursor, FaultInjectionBackend, FaultPolicy};
pub use lockstep::LockstepBackend;
pub use pool::TilePayloadPool;
pub use threaded::{Cluster, ThreadedBackend};

/// Payloads carried between ranks must report an approximate wire size so the
/// analytic communication model can charge for them.
pub trait Payload: Send {
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
/// solvers exchange) behind an [`Arc`](std::sync::Arc): the sender keeps an
/// alias for reuse while the message is in flight, instead of deep-copying
/// volume-sized data.
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
    /// handle is the sole owner (no clone is in a mailbox or still held by
    /// a receiver). Returns `None` otherwise.
    pub fn unique_values_mut(&mut self) -> Option<&mut Vec<f64>> {
        std::sync::Arc::get_mut(&mut self.0)
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
/// values: a receive or barrier that can never complete because a message
/// was lost or a peer has exited is reported, not waited on forever.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CommError {
    /// The message a receive matched was lost in transit: the fault layer
    /// dropped it ([`FaultAction::Drop`]) and left a tombstone at its place
    /// in the sender's stream.
    MessageLost {
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
    /// A barrier can never complete: some rank exited (usually with its own
    /// error) without arriving.
    BarrierBroken {
        /// The rank that was waiting at the barrier.
        rank: usize,
    },
    /// The sender exited (returned, failed, was killed or cancelled, or
    /// panicked) without sending a message this receive could match.
    PeerGone {
        /// The receiving rank.
        rank: usize,
        /// The sender the receive was posted against.
        from: usize,
        /// The tag the receive was posted against.
        tag: u64,
    },
    /// This rank was killed by the fault layer's rank-death fault class
    /// ([`FaultAction::Kill`]): the simulated node died permanently mid-run.
    /// Every subsequent operation on the rank's communicator reports this
    /// error, mirroring a process whose runtime has revoked its communicator.
    /// Unlike message loss a plain restart cannot heal it — the membership
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
            CommError::MessageLost { rank, from, tag } => write!(
                f,
                "rank {rank}: the message from rank {from} (tag {tag:#x}) was lost in transit"
            ),
            CommError::Deadlock { rank, detail } => {
                write!(f, "rank {rank}: communication deadlock detected: {detail}")
            }
            CommError::BarrierBroken { rank } => write!(
                f,
                "rank {rank}: barrier can never complete — a peer exited before arriving"
            ),
            CommError::PeerGone { rank, from, tag } => write!(
                f,
                "rank {rank}: rank {from} exited without sending the message (tag {tag:#x}) \
                 this rank waits for"
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

/// The failure of a whole multi-rank run: the rank whose error caused it
/// and that error, plus how many ranks failed in total.
///
/// The cause is the lowest rank whose error is not a [`CommError::PeerGone`]
/// or [`CommError::BarrierBroken`]: those two only report that *another*
/// rank exited. When every error is one of them, it is the lowest failing
/// rank.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RankFailure {
    /// The rank whose error caused the failure.
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
    /// The rank's simulated clock at exit, in seconds.
    pub time: crate::clock::TimeBreakdown,
    /// Memory accounting collected by the rank.
    pub memory: MemoryTracker,
}

/// The per-rank communication surface the solvers are generic over.
///
/// The primitives mirror MPI: sends are non-blocking and buffered
/// (`MPI_Isend`), receives are matched on `(source, tag)` with per-sender
/// ordering (`MPI_Irecv` + `MPI_Wait`), and barriers synchronise every rank.
/// On top of the wire surface each rank carries its own [`RankClock`] (the
/// simulated time every other layer reads) and [`MemoryTracker`] (memory
/// accounting), because the solvers charge modelled compute time and GPU
/// allocations as they go.
pub trait RankComm<M: Payload> {
    /// This rank's index in `0..size`.
    fn rank(&self) -> usize;

    /// Total number of ranks.
    fn size(&self) -> usize;

    /// Non-blocking send of `payload` to `to` with a user-chosen `tag` (the
    /// analogue of `MPI_Isend` into a buffered request). The analytic wire
    /// time for the message is charged to this rank's clock, and the
    /// message arrives at the clock after that charge.
    ///
    /// # Panics
    /// Panics if `to` is out of range.
    fn isend(&mut self, to: usize, tag: u64, payload: M);

    /// Blocking receive of the next message from `from` with tag `tag` (the
    /// analogue of `MPI_Irecv` + `MPI_Wait`). The clock moves to the
    /// message's arrival if that is later, booking the gap as wait. Returns a [`CommError`] instead of hanging when the
    /// message can never arrive: it was lost ([`CommError::MessageLost`]),
    /// its sender exited first ([`CommError::PeerGone`]), or the lockstep
    /// scheduler proved a deadlock.
    fn recv(&mut self, from: usize, tag: u64) -> Result<M, CommError>;

    /// Synchronises all ranks; every rank's clock moves to the latest
    /// arrival, booking its own gap as wait.
    fn barrier(&mut self) -> Result<(), CommError>;

    /// The rank's simulated clock.
    fn clock_mut(&mut self) -> &mut RankClock;

    /// The rank's memory accounting.
    fn memory_mut(&mut self) -> &mut MemoryTracker;

    /// The rank's fault harness and telemetry sink (see [`Instruments`]).
    /// Decorators forward this to the communicator they wrap.
    fn instruments(&mut self) -> &mut Instruments;

    /// Records `event` on the rank's telemetry stream, when one is
    /// installed, stamped at the rank's simulated clock.
    fn trace(&mut self, event: TelemetryEvent) {
        let now = self.clock_mut().now();
        if let Some(sink) = &mut self.instruments().telemetry {
            sink.record_at(now, event);
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
}

/// Splits per-rank `Result` outcomes into a success vector or the failure
/// that caused the others (see [`RankFailure`]).
pub(crate) fn collect_outcomes<R>(
    outcomes: Vec<RankOutcome<Result<R, CommError>>>,
) -> Result<Vec<RankOutcome<R>>, RankFailure> {
    let mut collected = Vec::with_capacity(outcomes.len());
    let mut errors = Vec::new();
    for outcome in outcomes {
        match outcome.result {
            Ok(result) => collected.push(RankOutcome {
                rank: outcome.rank,
                result,
                time: outcome.time,
                memory: outcome.memory,
            }),
            Err(error) => errors.push((outcome.rank, error)),
        }
    }
    let failed_ranks = errors.len();
    let cause = errors
        .iter()
        .position(|(_, error)| {
            !matches!(
                error,
                CommError::PeerGone { .. } | CommError::BarrierBroken { .. }
            )
        })
        .unwrap_or(0);
    match errors.into_iter().nth(cause) {
        None => Ok(collected),
        Some((rank, error)) => Err(RankFailure {
            rank,
            error,
            failed_ranks,
        }),
    }
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
    }

    #[test]
    fn arc_payload_reports_inner_wire_size() {
        let tile: SharedTile = vec![0.0f64; 4].into();
        assert_eq!(tile.payload_bytes(), 32);
    }
}
