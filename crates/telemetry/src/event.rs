//! The structured event model: everything the cluster can report, as one
//! fixed-size `Copy` enum.
//!
//! Every variant carries only plain integers (plus one `f64` cost), so a
//! [`TelemetryRecord`] can be copied into a preallocated ring buffer without
//! touching the heap — the property the zero-allocation steady-state gate
//! pins. Rank-like fields use `u64` (casts from `usize` are lossless on every
//! supported target).
//!
//! The schema is declared once, in the `telemetry_events!` table below: each
//! variant with its `kind` name and, per field, its type and JSONL key in
//! emit order. The table generates [`TelemetryEvent`], its
//! [`kind`](TelemetryEvent::kind), and the field writer and field reader that
//! [`json`](crate::json) wraps in the record envelope, so adding a kind is one
//! table entry.
//!
//! Field-space conventions:
//!
//! * Comm events (`CommSend`/`CommRecv`/…) name peers in **slot space** — the
//!   job-local rank indices messages are addressed with.
//! * Membership events (`RankDead`/`SparePromoted`) name
//!   **nodes** — physical identities that survive spare substitution.
//! * Job events carry the service-assigned job id.

use crate::json::{get_num, JsonValue, ParseError};
use std::fmt::Write as _;

/// Declares [`TelemetryEvent`] from a table of
/// `Variant = "kind" { field: type as "json_key", … }` entries.
macro_rules! telemetry_events {
    ($(
        $(#[$doc:meta])*
        $variant:ident = $kind:literal {
            $($(#[$field_doc:meta])* $field:ident: $ty:ty as $key:literal,)*
        }
    )*) => {
        /// One observable occurrence inside a run, stamped and stored as a
        /// [`TelemetryRecord`].
        #[derive(Clone, Copy, Debug, PartialEq)]
        pub enum TelemetryEvent {
            $($(#[$doc])* $variant { $($(#[$field_doc])* $field: $ty,)* },)*
        }

        impl TelemetryEvent {
            /// The event's stable schema name (the JSONL `kind` field).
            pub fn kind(&self) -> &'static str {
                match self {
                    $(TelemetryEvent::$variant { .. } => $kind,)*
                }
            }

            /// Appends the event's own fields as `,"key":value` in table
            /// order, each value formatted with `{}`.
            pub(crate) fn write_fields(&self, out: &mut String) {
                match *self {
                    $(TelemetryEvent::$variant { $($field),* } => {
                        $(let _ = write!(out, concat!(",\"", $key, "\":{}"), $field);)*
                    })*
                }
            }

            /// Reads a `kind` event's fields from a parsed line, reporting the
            /// first missing one in table order.
            pub(crate) fn read_fields(
                kind: &str,
                fields: &[(&str, JsonValue<'_>)],
            ) -> Result<Self, ParseError> {
                Ok(match kind {
                    $($kind => TelemetryEvent::$variant {
                        $($field: get_num(fields, $key, kind)?,)*
                    },)*
                    _ => return Err(ParseError::UnknownKind { kind: kind.to_string() }),
                })
            }
        }
    };
}

telemetry_events! {
    /// A rank handed a message to the transport (recorded whether or not a
    /// fault later dropped it; a paired [`TelemetryEvent::CommDrop`] reports
    /// the loss).
    CommSend = "comm_send" {
        /// Destination slot.
        to: u64 as "to",
        /// Message tag as passed to the transport.
        tag: u64 as "tag",
        /// Payload size in bytes.
        bytes: u64 as "bytes",
        /// Span correlation id stamped by the sending backend: the sender's
        /// slot in the high 32 bits, a per-sender transport-send counter in
        /// the low 32. The receive carries its send's id, so the analysis
        /// layer can pair sends with receives even when `(peer, tag)` alone
        /// is ambiguous.
        corr: u64 as "corr",
    }
    /// A rank's blocking or polling receive returned a message.
    CommRecv = "comm_recv" {
        /// Source slot.
        from: u64 as "from",
        /// Message tag as requested from the transport.
        tag: u64 as "tag",
        /// Payload size in bytes.
        bytes: u64 as "bytes",
        /// Correlation id of the send that produced this message (see the
        /// `corr` field of [`TelemetryEvent::CommSend`]).
        corr: u64 as "corr",
    }
    /// The fault harness dropped an outgoing message.
    CommDrop = "comm_drop" {
        /// Intended destination slot.
        to: u64 as "to",
        /// Message tag at the faulted layer.
        tag: u64 as "tag",
        /// Payload size in bytes.
        bytes: u64 as "bytes",
    }
    /// A rank reached the per-iteration consistency barrier.
    BarrierWait = "barrier_wait" {
        /// The iteration whose barrier is being entered.
        iteration: u64 as "iteration",
    }
    /// A rank started an iteration.
    IterationBegin = "iteration_begin" {
        /// Zero-based iteration index.
        iteration: u64 as "iteration",
        /// Recovery attempt the iteration runs under (0 = first attempt).
        attempt: u64 as "attempt",
    }
    /// A rank finished an iteration.
    IterationEnd = "iteration_end" {
        /// Zero-based iteration index.
        iteration: u64 as "iteration",
        /// Recovery attempt the iteration ran under.
        attempt: u64 as "attempt",
        /// The rank's contribution to the iteration cost.
        cost: f64 as "cost",
        /// Cumulative modeled compute nanoseconds on this rank so far.
        compute_ns: u64 as "compute_ns",
        /// Cumulative analytic communication nanoseconds charged to this
        /// rank so far.
        comm_ns: u64 as "comm_ns",
    }
    /// A rank saved its per-iteration checkpoint.
    Checkpoint = "checkpoint" {
        /// Iteration the checkpoint covers.
        iteration: u64 as "iteration",
    }
    /// The fault harness killed a node (it stops sending mid-run).
    RankDead = "rank_dead" {
        /// The node that died.
        node: u64 as "node",
    }
    /// The recovery driver promoted a standby spare into a dead slot.
    SparePromoted = "spare_promoted" {
        /// The slot the spare adopts.
        slot: u64 as "slot",
        /// The node promoted into the slot.
        node: u64 as "node",
    }
    /// The job service accepted a submission into the admission queue.
    JobSubmitted = "job_submitted" {
        /// Service-assigned job id.
        job: u64 as "job_id",
        /// Admission priority.
        priority: i64 as "priority",
        /// Nodes the job needs.
        slots: u64 as "slots",
    }
    /// The job service admitted a job (leased nodes, started the run).
    JobAdmitted = "job_admitted" {
        /// Service-assigned job id.
        job: u64 as "job_id",
        /// Jobs still waiting after this admission.
        queue_depth: u64 as "queue_depth",
    }
    /// The job reached a cancelled terminal state.
    JobCancelled = "job_cancelled" {
        /// Service-assigned job id.
        job: u64 as "job_id",
    }
    /// The job completed successfully.
    JobCompleted = "job_completed" {
        /// Service-assigned job id.
        job: u64 as "job_id",
        /// Iterations the reconstruction ran.
        iterations: u64 as "iterations",
    }
    /// A rank's consistency-barrier checkpoint was made durable on disk and
    /// the epoch's manifest committed (atomic rename).
    CheckpointPersisted = "checkpoint_persisted" {
        /// Iteration the durable checkpoint covers (first not-yet-run).
        iteration: u64 as "iteration",
        /// The checkpoint store's monotonic epoch sequence number.
        seq: u64 as "epoch_seq",
        /// Size of this rank's checkpoint file in bytes.
        bytes: u64 as "bytes",
    }
    /// A rank restored its state from an on-disk checkpoint epoch at process
    /// resume.
    CheckpointRestored = "checkpoint_restored" {
        /// Iteration the restored checkpoint covers.
        iteration: u64 as "iteration",
        /// The checkpoint store epoch the state came from.
        seq: u64 as "epoch_seq",
    }
}

/// One stamped telemetry event: what happened, on which rank's stream, in
/// which order, at which simulated time.
///
/// `sim_ns` is the rank's **simulated** clock — analytic communication
/// nanoseconds plus modeled compute nanoseconds — never wall time, so two
/// identical seeded runs stamp identical times. `seq` is dense per rank and
/// orders events within a stream.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TelemetryRecord {
    /// The stream the event belongs to (slot for comm/iteration events; see
    /// the module docs for the field-space conventions).
    pub rank: u64,
    /// Dense per-rank sequence number (0, 1, 2, …).
    pub seq: u64,
    /// Simulated nanoseconds on the rank's clock when the event was
    /// recorded.
    pub sim_ns: u64,
    /// Job id stamp for multi-job trace files (0 when unset).
    pub job: u64,
    /// The event itself.
    pub event: TelemetryEvent,
}
