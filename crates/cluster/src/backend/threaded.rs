//! The thread-backed, MPI-like message-passing backend.
//!
//! Each simulated GPU rank runs as an OS thread. Ranks exchange typed messages
//! through unbounded channels: sends never block (the semantics of
//! `MPI_Isend` into a buffered request), receives block until a matching
//! message arrives (the semantics of `MPI_Wait` on an `MPI_Irecv`). Tag
//! matching and per-sender ordering follow MPI rules.
//!
//! Wall-clock time spent blocked in receives and barriers is measured and
//! charged to *wait* time; the analytic wire time of each message (from the
//! [`ClusterTopology`]) is charged to *communication* time, because a channel
//! between threads is orders of magnitude faster than InfiniBand and measuring
//! it directly would tell us nothing about the modelled machine. Both charges
//! are made by the shared [`RankCtx`]; this file is only the channels and the
//! barrier.

use super::context::{launch, take_match, Envelope, RankCtx, Transport};
use super::{CommBackend, CommError, Payload, RankFailure, RankOutcome};
use crate::topology::ClusterTopology;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// A reusable counting barrier that fails instead of hanging: a wait returns
/// `Err(())` once its optional deadline passes, or at once when a rank has
/// departed (finished or unwound) and so can never arrive
/// (`std::sync::Barrier` can do neither).
struct TimedBarrier {
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
}

impl TimedBarrier {
    fn new(size: usize) -> Self {
        Self {
            size,
            state: Mutex::new(BarrierState {
                arrived: 0,
                generation: 0,
                departed: 0,
            }),
            changed: Condvar::new(),
        }
    }

    /// Waits for all ranks; on `Err(())` the arrival is rolled back so a
    /// retry or a later generation is not corrupted.
    fn wait(&self, timeout: Option<Duration>) -> Result<(), ()> {
        let deadline = timeout.map(|limit| Instant::now() + limit);
        let mut state = self.state.lock().expect("barrier poisoned");
        let generation = state.generation;
        state.arrived += 1;
        if state.arrived == self.size {
            state.arrived = 0;
            state.generation += 1;
            self.changed.notify_all();
            return Ok(());
        }
        while state.generation == generation {
            let remaining = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            if state.departed > 0 || remaining.is_some_and(|r| r.is_zero()) {
                state.arrived -= 1;
                return Err(());
            }
            state = match remaining {
                None => self.changed.wait(state).expect("barrier poisoned"),
                Some(remaining) => {
                    self.changed
                        .wait_timeout(state, remaining)
                        .expect("barrier poisoned")
                        .0
                }
            };
        }
        Ok(())
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
    /// One sender per peer; `None` at this rank's own index, so that a rank
    /// blocked in `take` can observe every peer terminating (channel
    /// disconnection) instead of waiting forever on a channel its own
    /// handle keeps alive. Self-sends go straight to the stash.
    senders: Vec<Option<Sender<Envelope<M>>>>,
    receiver: Receiver<Envelope<M>>,
    /// Out-of-order messages waiting for a matching take.
    stash: Vec<Envelope<M>>,
    barrier: Arc<TimedBarrier>,
    recv_timeout: Option<Duration>,
}

impl<M: Payload> Transport for ThreadedTransport<M> {
    type Msg = M;

    fn enqueue(&mut self, to: usize, envelope: Envelope<M>) {
        match &self.senders[to] {
            None => self.stash.push(envelope),
            // Unbounded channel: never blocks, mirroring a buffered Isend. A
            // send to a rank that has already terminated (normally or with
            // an error) is buffered into the void: the peer can never
            // receive it, and panicking here would mask the original
            // failure that made the peer exit early.
            Some(sender) => drop(sender.send(envelope)),
        }
    }

    fn take(&mut self, from: usize, tag: u64) -> Result<Envelope<M>, CommError> {
        if let Some(envelope) = take_match(&mut self.stash, from, tag) {
            return Ok(envelope);
        }
        let rank = self.rank;
        // One deadline for the whole receive: stashing a non-matching
        // envelope must not restart the clock, or steady background traffic
        // could postpone the timeout indefinitely.
        let deadline = self.recv_timeout.map(|limit| Instant::now() + limit);
        loop {
            let envelope = match deadline {
                None => self
                    .receiver
                    .recv()
                    .map_err(|_| CommError::PeersGone { rank, from, tag }),
                Some(deadline) => self
                    .receiver
                    .recv_timeout(deadline.saturating_duration_since(Instant::now()))
                    .map_err(|e| match e {
                        RecvTimeoutError::Timeout => CommError::RecvTimeout { rank, from, tag },
                        RecvTimeoutError::Disconnected => CommError::PeersGone { rank, from, tag },
                    }),
            }?;
            if envelope.from == from && envelope.tag == tag {
                return Ok(envelope);
            }
            self.stash.push(envelope);
        }
    }

    fn try_take(&mut self, from: usize, tag: u64) -> Option<Envelope<M>> {
        // Drain anything pending into the stash, then search it.
        while let Ok(envelope) = self.receiver.try_recv() {
            self.stash.push(envelope);
        }
        take_match(&mut self.stash, from, tag)
    }

    fn barrier(&mut self) -> Result<(), CommError> {
        self.barrier
            .wait(self.recv_timeout)
            .map_err(|()| CommError::BarrierTimeout { rank: self.rank })
    }

    fn finish(&mut self) {
        self.barrier.depart();
    }
}

/// The receive timeout [`CommBackend::with_loss_detection`] installs when
/// none was configured explicitly.
const DEFAULT_LOSS_TIMEOUT: Duration = Duration::from_secs(30);

/// The threaded backend: spawns one OS thread per rank and wires up the
/// channels.
#[derive(Clone, Debug, Default)]
pub struct ThreadedBackend {
    topology: ClusterTopology,
    recv_timeout: Option<Duration>,
}

/// The historical name of the threaded backend, kept as the friendly alias
/// used throughout the examples and tests.
pub type Cluster = ThreadedBackend;

impl ThreadedBackend {
    /// Creates a threaded backend with the given topology.
    pub fn new(topology: ClusterTopology) -> Self {
        Self {
            topology,
            recv_timeout: None,
        }
    }

    /// The topology ranks will see.
    pub fn topology(&self) -> &ClusterTopology {
        &self.topology
    }

    /// Bounds every blocking receive: a receive that does not complete within
    /// `timeout` returns [`CommError::RecvTimeout`] instead of hanging
    /// forever. Use this whenever messages can be lost (fault injection); the
    /// default is to wait indefinitely, like `MPI_Wait`.
    pub fn with_recv_timeout(mut self, timeout: Duration) -> Self {
        self.recv_timeout = Some(timeout);
        self
    }

    /// The configured receive/barrier timeout, if any.
    pub fn recv_timeout(&self) -> Option<Duration> {
        self.recv_timeout
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
        let barrier = Arc::new(TimedBarrier::new(num_ranks));
        // Each transport clones every peer's sender except its own, then the
        // construction-time senders are dropped: only live ranks keep
        // channels connected, so a rank blocked in `take` errors with
        // `PeersGone` once every peer has finished.
        let transports = receivers
            .into_iter()
            .enumerate()
            .map(|(rank, receiver)| ThreadedTransport {
                rank,
                senders: senders
                    .iter()
                    .enumerate()
                    .map(|(peer, tx)| (peer != rank).then(|| tx.clone()))
                    .collect(),
                receiver,
                stash: Vec::new(),
                barrier: Arc::clone(&barrier),
                recv_timeout: self.recv_timeout,
            })
            .collect();
        drop(senders);
        launch(transports, self.topology, body)
    }

    fn with_loss_detection(mut self) -> Self {
        // Generous enough that no healthy test-scale receive comes close,
        // but bounded, so a dropped message is an error, not a hang. An
        // explicit `with_recv_timeout` always wins.
        self.recv_timeout.get_or_insert(DEFAULT_LOSS_TIMEOUT);
        self
    }

    fn loss_detection_enabled(&self) -> bool {
        // Without a receive timeout a lost message blocks forever (like
        // MPI_Wait), so no error ever reaches a recovery layer.
        self.recv_timeout.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::super::context::conformance::transport_conformance_tests;
    use super::super::RankComm;
    use super::*;

    transport_conformance_tests!(Cluster::default());

    #[test]
    fn loss_detection_installs_a_bounded_timeout() {
        use super::super::{FaultInjectionBackend, FaultPolicy};
        // Default: wait indefinitely, like MPI_Wait.
        assert_eq!(Cluster::default().recv_timeout(), None);
        // Loss detection bounds the wait...
        let detected = Cluster::default().with_loss_detection();
        assert_eq!(detected.recv_timeout(), Some(DEFAULT_LOSS_TIMEOUT));
        // ...but never overrides an explicit choice.
        let explicit = Cluster::default()
            .with_recv_timeout(Duration::from_millis(50))
            .with_loss_detection();
        assert_eq!(explicit.recv_timeout(), Some(Duration::from_millis(50)));
        // Wrapping in the fault layer enforces it automatically, so a lossy
        // policy can never hang the run.
        let faulty = FaultInjectionBackend::new(Cluster::default(), FaultPolicy::reliable(0));
        assert_eq!(faulty.inner().recv_timeout(), Some(DEFAULT_LOSS_TIMEOUT));
    }

    #[test]
    fn barrier_times_out_when_a_peer_never_arrives() {
        let cluster = Cluster::default().with_recv_timeout(Duration::from_millis(50));
        let failure = cluster
            .run::<(), (), _>(3, |ctx| {
                if ctx.rank() == 2 {
                    // Stays alive, away from the barrier, until both peers
                    // have given up on it: the deadline must end their
                    // waits, not this rank's departure.
                    for peer in 0..2 {
                        while ctx.try_recv(peer, 9).is_none() {
                            std::thread::yield_now();
                        }
                    }
                    Ok(())
                } else {
                    let result = ctx.barrier();
                    ctx.isend(2, 9, ());
                    result
                }
            })
            .unwrap_err();
        assert!(matches!(failure.error, CommError::BarrierTimeout { .. }));
        assert_eq!(failure.failed_ranks, 2);
    }

    #[test]
    fn barrier_with_timeout_completes_when_everyone_arrives() {
        let cluster = Cluster::default().with_recv_timeout(Duration::from_secs(5));
        let outcomes = cluster
            .run::<(), usize, _>(4, |ctx| {
                ctx.barrier()?;
                ctx.barrier()?;
                Ok(ctx.rank())
            })
            .unwrap();
        assert_eq!(outcomes.len(), 4);
    }

    #[test]
    fn recv_reports_peers_gone_when_every_peer_finishes() {
        // No timeout configured: the error comes from channel disconnection
        // once every other rank has terminated — not from a hang.
        let cluster = Cluster::default();
        let failure = cluster
            .run::<Vec<f64>, (), _>(3, |ctx| {
                if ctx.rank() == 2 {
                    ctx.recv(0, 9)?;
                }
                Ok(())
            })
            .unwrap_err();
        assert_eq!(failure.rank, 2);
        assert!(matches!(
            failure.error,
            CommError::PeersGone {
                rank: 2,
                from: 0,
                tag: 9
            }
        ));
    }

    #[test]
    fn recv_timeout_surfaces_missing_message_as_error() {
        let cluster = Cluster::default().with_recv_timeout(Duration::from_millis(50));
        let failure = cluster
            .run::<Vec<f64>, (), _>(2, |ctx| {
                if ctx.rank() == 1 {
                    // Rank 0 never sends: this receive must error, not hang.
                    ctx.recv(0, 9)?;
                } else {
                    // Outlive the receiver's timeout so the error is a
                    // timeout, not peer disconnection.
                    std::thread::sleep(Duration::from_millis(150));
                }
                Ok(())
            })
            .unwrap_err();
        assert_eq!(failure.rank, 1);
        assert_eq!(failure.failed_ranks, 1);
        assert!(matches!(
            failure.error,
            CommError::RecvTimeout {
                rank: 1,
                from: 0,
                tag: 9
            }
        ));
    }
}
