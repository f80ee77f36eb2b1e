//! A simulated multi-GPU cluster substrate.
//!
//! The paper evaluates on the Summit supercomputer: up to 693 nodes, 6 NVIDIA
//! V100 GPUs per node, NVLink inside a node and EDR InfiniBand between nodes,
//! with MPI non-blocking point-to-point operations (`MPI_Isend`/`MPI_Irecv`)
//! carrying gradient buffers between GPUs. None of that hardware is available
//! to this reproduction, so this crate substitutes it with two cooperating
//! pieces:
//!
//! 1. **Real message-passing runtimes** ([`backend`]): the reconstruction
//!    solvers in `ptycho-core` are generic over the [`RankComm`] trait
//!    (MPI-like `isend`/`recv`/`barrier` semantics) and run on any
//!    [`CommBackend`]. The [`ThreadedBackend`] executes one OS thread per
//!    rank; the [`LockstepBackend`] runs the same ranks deterministically,
//!    one at a time, and proves deadlocks instead of hanging; the
//!    [`FaultInjectionBackend`] wraps either to drop messages or kill a
//!    node under a seeded policy. The decomposition,
//!    accumulation-pass and pipelining logic is exercised for real on all of
//!    them, exactly as it would be on MPI.
//! 2. **An analytic hardware model** ([`topology`], [`perf_model`]): a
//!    Summit-like description of compute throughput, cache capacity, link
//!    bandwidths and latencies that converts *operation counts* (FFT sizes,
//!    message bytes) into simulated seconds. The scaling experiments
//!    (Tables II/III, Fig. 7) are regenerated by replaying the decomposition
//!    geometry against this model for any GPU count, which is how the
//!    reproduction reaches 4158 "GPUs" on a laptop.
//!
//! Per-rank bookkeeping — simulated clocks ([`clock`]) and memory accounting
//! ([`memory`]) — is shared by both pieces.
//!
//! # Quick start
//!
//! Run four simulated ranks that exchange messages MPI-style; every rank
//! returns a value, and the backend collects outcomes (with per-rank time
//! and memory accounting) ordered by rank. Swapping `Cluster` (the threaded
//! backend) for [`LockstepBackend`] reruns the same body deterministically:
//!
//! ```
//! use ptycho_cluster::{Cluster, ClusterTopology, CommBackend, RankComm};
//!
//! let cluster = Cluster::new(ClusterTopology::summit());
//! let outcomes = cluster
//!     .run::<Vec<f64>, f64, _>(4, |ctx| {
//!         if ctx.rank() == 0 {
//!             // Rank 0 broadcasts a value to every peer.
//!             for peer in 1..ctx.size() {
//!                 ctx.isend(peer, 0, vec![42.0]);
//!             }
//!             Ok(42.0)
//!         } else {
//!             Ok(ctx.recv(0, 0)?[0])
//!         }
//!     })
//!     .expect("no faults injected");
//! assert!(outcomes.iter().all(|o| o.result == 42.0));
//! // The sender was charged analytic wire time for its three messages.
//! assert!(outcomes[0].time.communication > 0.0);
//! ```
//!
//! Fault injection turns lost messages into detectable errors instead of
//! hangs — here a dropped broadcast leaves a tombstone in its place, which
//! fails the receive that would have matched it, on either backend:
//!
//! ```
//! use ptycho_cluster::{
//!     Cluster, ClusterTopology, CommBackend, CommError, FaultInjectionBackend, FaultPolicy,
//!     RankComm,
//! };
//!
//! let policy = FaultPolicy::reliable(1).drop_message(0, 1, 0, 0);
//! let faulty = FaultInjectionBackend::new(Cluster::new(ClusterTopology::summit()), policy);
//! let failure = faulty
//!     .run::<Vec<f64>, f64, _>(2, |ctx| {
//!         if ctx.rank() == 0 {
//!             ctx.isend(1, 0, vec![1.0]);
//!             Ok(0.0)
//!         } else {
//!             Ok(ctx.recv(0, 0)?[0])
//!         }
//!     })
//!     .unwrap_err();
//! assert_eq!(
//!     failure.error,
//!     CommError::MessageLost { rank: 1, from: 0, tag: 0 }
//! );
//! assert_eq!(faulty.fault_count(), 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod backend;
pub mod clock;
pub mod jobs;
pub mod membership;
pub mod memory;
pub mod perf_model;
pub mod topology;

pub use backend::{
    panic_text, Cluster, CommBackend, CommError, CrashPhase, FaultAction, FaultCursor,
    FaultInjectionBackend, FaultPolicy, Instruments, LockstepBackend, Payload, RankComm, RankCtx,
    RankFailure, RankOutcome, SharedTile, ThreadedBackend, TilePayloadPool,
};
pub use clock::{RankClock, TimeBreakdown};
pub use jobs::{FleetError, FleetView, JobId, JobQueue, QueuedJob};
pub use membership::{MembershipError, MembershipView, NodeId};
pub use memory::{average_peak_bytes, MemoryCategory, MemoryTracker};
pub use perf_model::HardwareModel;
pub use topology::{ClusterTopology, LinkKind};
