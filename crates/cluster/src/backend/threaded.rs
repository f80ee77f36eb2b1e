//! The thread-backed, MPI-like message-passing backend.
//!
//! Each simulated GPU rank runs as an OS thread. Ranks exchange typed messages
//! through unbounded channels: sends never block (the semantics of
//! `MPI_Isend` into a buffered request), receives block until a matching
//! message arrives (the semantics of `MPI_Wait` on an `MPI_Irecv`). Tag
//! matching and per-sender ordering follow MPI rules.
//!
//! Time is simulated, not measured: the shared [`RankCtx`] charges each
//! message's analytic wire time (from the [`ClusterTopology`]) and moves a
//! receiver's clock to the message's arrival, because a channel between
//! threads is orders of magnitude faster than InfiniBand and measuring it
//! would tell us nothing about the modelled machine. This file is only the
//! channels and the barrier, which hands every rank the latest simulated
//! arrival.
//!
//! Nothing here keeps time. A receive whose message was dropped, or whose
//! sender has exited, is decided by the tombstone or exit notice in the
//! channel ([`RankCtx`] writes both), and a barrier breaks once a rank has
//! exited. A receive or barrier that waits on live ranks waits, like
//! `MPI_Wait`: a true deadlock among live ranks hangs here, and
//! [`LockstepBackend`](super::LockstepBackend) is the backend that proves it.

use super::context::{launch, take_match, Envelope, RankCtx, Transport};
use super::{CommBackend, CommError, Payload, RankFailure, RankOutcome};
use crate::topology::ClusterTopology;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};

/// A reusable counting barrier that breaks instead of hanging: a wait fails
/// at once when a rank has departed (finished or unwound) and so can never
/// arrive (`std::sync::Barrier` cannot).
struct BreakableBarrier {
    size: usize,
    state: Mutex<BarrierState>,
    changed: Condvar,
}

struct BarrierState {
    arrived: usize,
    generation: u64,
    /// Ranks whose body has exited. Any departure makes every later
    /// generation impossible to complete.
    departed: usize,
    /// The latest simulated arrival in the generation being gathered.
    latest: u64,
    /// The latest arrival of the last generation completed, which each of
    /// its ranks reads before the next generation can complete.
    released_at: u64,
}

impl BreakableBarrier {
    fn new(size: usize) -> Self {
        Self {
            size,
            state: Mutex::new(BarrierState {
                arrived: 0,
                generation: 0,
                departed: 0,
                latest: 0,
                released_at: 0,
            }),
            changed: Condvar::new(),
        }
    }

    /// Waits for all ranks, arriving at simulated time `at`, and returns
    /// the latest arrival; on `Err(())` the arrival is rolled back so the
    /// counters stay valid.
    fn wait(&self, at: u64) -> Result<u64, ()> {
        let mut state = self.state.lock().expect("barrier poisoned");
        let generation = state.generation;
        state.arrived += 1;
        state.latest = state.latest.max(at);
        if state.arrived == self.size {
            state.arrived = 0;
            state.generation += 1;
            state.released_at = std::mem::take(&mut state.latest);
            self.changed.notify_all();
            return Ok(state.released_at);
        }
        while state.generation == generation {
            if state.departed > 0 {
                state.arrived -= 1;
                return Err(());
            }
            state = self.changed.wait(state).expect("barrier poisoned");
        }
        Ok(state.released_at)
    }

    /// Records that a rank exited and wakes every waiter. May run during an
    /// unwind, so a poisoned mutex is accepted rather than panicked on (the
    /// counters are valid at every step).
    fn depart(&self) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.departed += 1;
        self.changed.notify_all();
    }
}

/// One rank's end of the channel mesh.
pub struct ThreadedTransport<M> {
    rank: usize,
    /// One sender per rank, this one's own included.
    senders: Vec<Sender<Envelope<M>>>,
    receiver: Receiver<Envelope<M>>,
    /// Envelopes drawn from the channel, in arrival order, waiting for a
    /// take that matches them.
    stash: Vec<Envelope<M>>,
    barrier: Arc<BreakableBarrier>,
}

impl<M: Payload> Transport for ThreadedTransport<M> {
    type Msg = M;

    fn enqueue(&mut self, to: usize, envelope: Envelope<M>) {
        // Unbounded channel: never blocks, mirroring a buffered Isend. A
        // send to a rank that has already terminated (normally or with an
        // error) is buffered into the void: the peer can never receive it,
        // and panicking here would mask the original failure that made the
        // peer exit early.
        drop(self.senders[to].send(envelope));
    }

    fn take(&mut self, from: usize, tag: u64) -> Result<Envelope<M>, CommError> {
        let rank = self.rank;
        loop {
            if let Some(decided) = take_match(&mut self.stash, rank, from, tag) {
                return decided;
            }
            // A channel keeps each sender's order, so the stash does too.
            // This rank's own sender keeps the channel open: a take nothing
            // can decide waits, like `MPI_Wait`.
            let envelope = self.receiver.recv().expect("a rank's own sender is alive");
            self.stash.push(envelope);
        }
    }

    fn barrier(&mut self, at: u64) -> Result<u64, CommError> {
        self.barrier
            .wait(at)
            .map_err(|()| CommError::BarrierBroken { rank: self.rank })
    }

    fn finish(&mut self) {
        self.barrier.depart();
    }
}

/// The threaded backend: spawns one OS thread per rank and wires up the
/// channels.
#[derive(Clone, Debug, Default)]
pub struct ThreadedBackend {
    topology: ClusterTopology,
}

/// The historical name of the threaded backend, kept as the friendly alias
/// used throughout the examples and tests.
pub type Cluster = ThreadedBackend;

impl ThreadedBackend {
    /// Creates a threaded backend with the given topology.
    pub fn new(topology: ClusterTopology) -> Self {
        Self { topology }
    }

    /// The topology ranks will see.
    pub fn topology(&self) -> &ClusterTopology {
        &self.topology
    }
}

impl CommBackend for ThreadedBackend {
    type Comm<M: Payload + 'static> = RankCtx<ThreadedTransport<M>>;

    fn run<M, R, F>(&self, num_ranks: usize, body: F) -> Result<Vec<RankOutcome<R>>, RankFailure>
    where
        M: Payload + 'static,
        R: Send,
        F: Fn(&mut Self::Comm<M>) -> Result<R, CommError> + Sync,
    {
        let (senders, receivers): (Vec<_>, Vec<_>) =
            (0..num_ranks).map(|_| channel::<Envelope<M>>()).unzip();
        let barrier = Arc::new(BreakableBarrier::new(num_ranks));
        let transports = receivers
            .into_iter()
            .enumerate()
            .map(|(rank, receiver)| ThreadedTransport {
                rank,
                senders: senders.clone(),
                receiver,
                stash: Vec::new(),
                barrier: Arc::clone(&barrier),
            })
            .collect();
        launch(transports, self.topology, body)
    }
}

#[cfg(test)]
mod tests {
    use super::super::context::conformance::transport_conformance_tests;
    use super::*;

    transport_conformance_tests!(Cluster::default());
}
