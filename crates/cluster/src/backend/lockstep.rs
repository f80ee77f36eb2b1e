//! A deterministic, cooperatively scheduled backend.
//!
//! The threaded backend lets the OS interleave ranks freely, which is
//! realistic but unrepeatable: two runs of the same test can block, stash and
//! wake in different orders. The lockstep backend removes every source of
//! scheduling nondeterminism by running the ranks as coroutine-style steps:
//! **exactly one rank executes at any moment**, and the baton is handed over
//! only at well-defined yield points (an unsatisfiable receive, a barrier,
//! rank completion) to the next runnable rank in fixed round-robin order.
//!
//! Two properties fall out of that design:
//!
//! * **Reproducibility** — message arrival order, mailbox contents and rank
//!   interleaving are identical on every run, which makes multi-rank failures
//!   single-step debuggable.
//! * **Deadlock detection** — the scheduler sees the global state, so the
//!   moment every unfinished rank is blocked it can *prove* a deadlock and
//!   fail every blocked receive with [`CommError::Deadlock`] (listing what
//!   each rank was waiting for) instead of hanging the test suite. A dropped
//!   message therefore surfaces as an error value, not a timeout.
//!
//! Ranks still run on scoped OS threads (stable Rust has no suspendable
//! closures), but the baton guarantees the single-runnable invariant, so the
//! execution is sequential and deterministic regardless of core count.

use super::context::{launch, take_match, Envelope, RankCtx, Transport};
use super::{CommBackend, CommError, Payload, RankFailure, RankOutcome};
use crate::topology::ClusterTopology;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

#[derive(Clone, Debug, PartialEq, Eq)]
enum RankStatus {
    /// Eligible to run when the baton reaches it.
    Runnable,
    /// Blocked in `recv(from, tag)` with no matching message in its mailbox.
    BlockedRecv { from: usize, tag: u64 },
    /// Arrived at the barrier, waiting for the others.
    BlockedBarrier,
    /// The rank body returned.
    Finished,
}

struct SchedState<M> {
    /// The rank currently holding the baton.
    current: usize,
    status: Vec<RankStatus>,
    /// Per-rank mailboxes in arrival order (the stash and the queue are one
    /// structure here; receives scan for the first match).
    mailboxes: Vec<Vec<Envelope<M>>>,
    /// Set once the scheduler has proven a global deadlock; blocked calls
    /// observe it and return an error. Cleared again the moment any rank
    /// makes progress (takes a message, completes a barrier), because a
    /// recovery layer may retransmit and resolve a previously proven
    /// deadlock — the stale proof must not poison later blocking calls.
    deadlock: Option<String>,
    /// Bumped each time a barrier completes, so a rank woken from a barrier
    /// can tell a genuine release apart from a deadlock wake-up even after
    /// earlier deadlocks were proven and recovered.
    barrier_epoch: u64,
}

struct Shared<M> {
    state: Mutex<SchedState<M>>,
    baton: Condvar,
}

impl<M> Shared<M> {
    /// Blocks the calling rank until it holds the baton and is runnable.
    fn wait_for_turn(&self, rank: usize) -> std::sync::MutexGuard<'_, SchedState<M>> {
        let mut state = self.state.lock().expect("lockstep state poisoned");
        while !(state.current == rank && state.status[rank] == RankStatus::Runnable) {
            state = self.baton.wait(state).expect("lockstep state poisoned");
        }
        state
    }

    /// Hands the baton to the next runnable rank (round-robin from `rank`),
    /// or — if nobody can run — proves and records a deadlock, releasing
    /// every blocked rank so its pending call can return an error.
    fn yield_baton(&self, state: &mut SchedState<M>, rank: usize) {
        let n = state.status.len();
        let next = (1..=n)
            .map(|offset| (rank + offset) % n)
            .find(|&r| state.status[r] == RankStatus::Runnable);
        if let Some(next) = next {
            state.current = next;
            self.baton.notify_all();
            return;
        }
        if state
            .status
            .iter()
            .all(|status| *status == RankStatus::Finished)
        {
            // Clean completion; nothing left to schedule.
            return;
        }
        // Nobody is runnable and somebody is blocked: a proven deadlock.
        let detail = state
            .status
            .iter()
            .enumerate()
            .filter_map(|(r, status)| match status {
                RankStatus::BlockedRecv { from, tag } => {
                    Some(format!("rank {r} waits on recv(from={from}, tag={tag:#x})"))
                }
                RankStatus::BlockedBarrier => Some(format!("rank {r} waits at barrier")),
                _ => None,
            })
            .collect::<Vec<_>>()
            .join("; ");
        state.deadlock = Some(detail);
        let blocked: Vec<usize> = state
            .status
            .iter()
            .enumerate()
            .filter(|(_, s)| {
                matches!(
                    s,
                    RankStatus::BlockedRecv { .. } | RankStatus::BlockedBarrier
                )
            })
            .map(|(r, _)| r)
            .collect();
        for r in &blocked {
            state.status[*r] = RankStatus::Runnable;
        }
        if let Some(first) = blocked.first() {
            state.current = *first;
        }
        self.baton.notify_all();
    }
}

impl<M> SchedState<M> {
    /// Takes the first matching entry of `rank`'s mailbox.
    fn take_matching(&mut self, rank: usize, from: usize, tag: u64) -> Option<Envelope<M>> {
        let envelope = take_match(&mut self.mailboxes[rank], from, tag)?;
        // A successful receive is progress: any earlier deadlock proof is
        // stale (a recovery layer retransmitted its way out of it).
        self.deadlock = None;
        Some(envelope)
    }

    /// Releases every rank if all of them are now waiting at the barrier.
    /// Finished ranks can never arrive, so with one present the barrier
    /// stays shut — and once every live rank is waiting at it, the next
    /// yield proves the deadlock.
    fn try_release_barrier(&mut self) -> bool {
        if !self.status.iter().all(|s| *s == RankStatus::BlockedBarrier) {
            return false;
        }
        self.status.fill(RankStatus::Runnable);
        self.barrier_epoch += 1;
        // Completing a barrier is progress; drop any stale proof.
        self.deadlock = None;
        true
    }
}

/// One rank's seat at the scheduler.
pub struct LockstepTransport<M> {
    rank: usize,
    shared: Arc<Shared<M>>,
}

impl<M> LockstepTransport<M> {
    fn lock(&self) -> MutexGuard<'_, SchedState<M>> {
        self.shared.state.lock().expect("lockstep state poisoned")
    }

    /// Parks the calling rank under `status`, hands the baton on, and
    /// returns once the baton comes back.
    fn park<'a>(
        &'a self,
        mut state: MutexGuard<'a, SchedState<M>>,
        status: RankStatus,
    ) -> MutexGuard<'a, SchedState<M>> {
        state.status[self.rank] = status;
        self.shared.yield_baton(&mut state, self.rank);
        drop(state);
        self.shared.wait_for_turn(self.rank)
    }
}

impl<M: Payload> Transport for LockstepTransport<M> {
    type Msg = M;

    /// Sends are non-blocking: the baton is kept.
    fn enqueue(&mut self, to: usize, envelope: Envelope<M>) {
        let mut state = self.lock();
        let waited_for = RankStatus::BlockedRecv {
            from: envelope.from,
            tag: envelope.tag,
        };
        if state.status[to] == waited_for {
            state.status[to] = RankStatus::Runnable;
        }
        state.mailboxes[to].push(envelope);
    }

    fn take(&mut self, from: usize, tag: u64) -> Result<Envelope<M>, CommError> {
        let rank = self.rank;
        let mut state = self.lock();
        if let Some(envelope) = state.take_matching(rank, from, tag) {
            return Ok(envelope);
        }
        loop {
            state = self.park(state, RankStatus::BlockedRecv { from, tag });
            if let Some(envelope) = state.take_matching(rank, from, tag) {
                return Ok(envelope);
            }
            if let Some(detail) = state.deadlock.clone() {
                return Err(CommError::Deadlock { rank, detail });
            }
            // Spurious wake-up: this rank was released by a deadlock proof
            // that another rank has since resolved (a recovery layer made
            // progress and cleared it). Re-arm the wait and yield again.
        }
    }

    /// Cooperative probe: yields one turn to the other runnable ranks so a
    /// poll can observe new messages. Like `MPI_Iprobe` (and like the
    /// threaded backend), a `while try_recv(..).is_none() {}` loop whose
    /// awaited sender never sends is the *caller's* livelock — prefer the
    /// blocking `recv`, whose deadlocks this backend proves.
    fn try_take(&mut self, from: usize, tag: u64) -> Option<Envelope<M>> {
        let rank = self.rank;
        let mut state = self.lock();
        if let Some(envelope) = state.take_matching(rank, from, tag) {
            return Some(envelope);
        }
        let others_can_run = state
            .status
            .iter()
            .enumerate()
            .any(|(r, s)| r != rank && *s == RankStatus::Runnable);
        if !others_can_run {
            return None;
        }
        // Stay runnable: the baton comes back after one round.
        self.park(state, RankStatus::Runnable)
            .take_matching(rank, from, tag)
    }

    fn barrier(&mut self) -> Result<(), CommError> {
        let rank = self.rank;
        let mut state = self.lock();
        let entered_epoch = state.barrier_epoch;
        loop {
            state.status[rank] = RankStatus::BlockedBarrier;
            if state.try_release_barrier() {
                self.shared.baton.notify_all();
                return Ok(());
            }
            state = self.park(state, RankStatus::BlockedBarrier);
            // A bumped epoch means the barrier genuinely completed; only an
            // un-bumped epoch with a standing deadlock proof is a failure.
            if state.barrier_epoch != entered_epoch {
                return Ok(());
            }
            if let Some(detail) = state.deadlock.clone() {
                return Err(CommError::Deadlock { rank, detail });
            }
            // Spurious wake-up (a proven deadlock was resolved by another
            // rank's recovery): re-arm, releasing the barrier ourselves if
            // every live rank is now waiting at it.
        }
    }

    /// Marks the rank finished and schedules a successor. A body that
    /// panics unwinds while *holding* the baton; releasing it here lets the
    /// other ranks error out via deadlock detection and the panic propagate
    /// through `join` instead of hanging the scope forever.
    fn finish(&mut self) {
        // May run during an unwind: accept a poisoned mutex rather than
        // double-panicking.
        let mut state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        state.status[self.rank] = RankStatus::Finished;
        self.shared.yield_baton(&mut state, self.rank);
    }
}

/// The deterministic cooperative backend.
#[derive(Clone, Debug, Default)]
pub struct LockstepBackend {
    topology: ClusterTopology,
}

impl LockstepBackend {
    /// Creates a lockstep backend with the given topology.
    pub fn new(topology: ClusterTopology) -> Self {
        Self { topology }
    }

    /// The topology ranks will see.
    pub fn topology(&self) -> &ClusterTopology {
        &self.topology
    }
}

impl CommBackend for LockstepBackend {
    type Comm<M: Payload + 'static> = RankCtx<LockstepTransport<M>>;

    fn run<M, R, F>(&self, num_ranks: usize, body: F) -> Result<Vec<RankOutcome<R>>, RankFailure>
    where
        M: Payload + 'static,
        R: Send,
        F: Fn(&mut Self::Comm<M>) -> Result<R, CommError> + Sync,
    {
        let shared = Arc::new(Shared {
            state: Mutex::new(SchedState {
                current: 0,
                status: vec![RankStatus::Runnable; num_ranks],
                mailboxes: (0..num_ranks).map(|_| Vec::new()).collect(),
                deadlock: None,
                barrier_epoch: 0,
            }),
            baton: Condvar::new(),
        });
        let transports = (0..num_ranks)
            .map(|rank| LockstepTransport {
                rank,
                shared: Arc::clone(&shared),
            })
            .collect();
        launch(transports, self.topology, |ctx: &mut Self::Comm<M>| {
            // Wait for the baton before executing a single statement of the
            // body: rank 0 starts, everyone else queues.
            let seat = &ctx.transport;
            drop(seat.shared.wait_for_turn(seat.rank));
            body(ctx)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::super::context::conformance::transport_conformance_tests;
    use super::super::RankComm;
    use super::*;

    transport_conformance_tests!(LockstepBackend::default());

    #[test]
    fn try_recv_yields_then_sees_message() {
        let backend = LockstepBackend::default();
        let outcomes = backend
            .run::<Vec<f64>, bool, _>(2, |ctx| {
                if ctx.rank() == 0 {
                    // Polls before rank 1 has run at all: the cooperative
                    // yield inside try_recv lets rank 1 execute its send.
                    Ok(ctx.try_recv(1, 4).is_some())
                } else {
                    ctx.isend(0, 4, vec![1.0]);
                    Ok(true)
                }
            })
            .unwrap();
        assert!(outcomes[0].result, "yielding try_recv must see the message");
    }

    #[test]
    fn deadlock_is_detected_not_hung() {
        // Rank 1 waits for a message nobody sends; rank 0 finishes right
        // away. The scheduler must prove the deadlock and fail the run.
        let backend = LockstepBackend::default();
        let failure = backend
            .run::<Vec<f64>, (), _>(2, |ctx| {
                if ctx.rank() == 1 {
                    ctx.recv(0, 42)?;
                }
                Ok(())
            })
            .unwrap_err();
        assert_eq!(failure.rank, 1);
        match failure.error {
            CommError::Deadlock { rank, detail } => {
                assert_eq!(rank, 1);
                assert!(
                    detail.contains("tag=0x2a"),
                    "diagnostic lists the wait: {detail}"
                );
            }
            other => panic!("expected a deadlock, got {other:?}"),
        }
    }

    #[test]
    fn barrier_with_finished_rank_is_a_deadlock() {
        let backend = LockstepBackend::default();
        let failure = backend
            .run::<(), (), _>(3, |ctx| {
                if ctx.rank() == 0 {
                    Ok(()) // never reaches the barrier
                } else {
                    ctx.barrier()
                }
            })
            .unwrap_err();
        assert!(matches!(failure.error, CommError::Deadlock { .. }));
        assert_eq!(failure.failed_ranks, 2);
    }

    #[test]
    fn execution_is_deterministic_across_runs() {
        // All-to-all chatter whose per-rank receive order is recorded; two
        // runs must observe byte-identical orders.
        let observe = || {
            let backend = LockstepBackend::default();
            backend
                .run::<Vec<f64>, Vec<f64>, _>(4, |ctx| {
                    for peer in 0..ctx.size() {
                        if peer != ctx.rank() {
                            ctx.isend(peer, 1, vec![ctx.rank() as f64]);
                            ctx.isend(peer, 1, vec![ctx.rank() as f64 + 0.5]);
                        }
                    }
                    let mut seen = Vec::new();
                    for peer in 0..ctx.size() {
                        if peer != ctx.rank() {
                            seen.push(ctx.recv(peer, 1)?[0]);
                            seen.push(ctx.recv(peer, 1)?[0]);
                        }
                    }
                    Ok(seen)
                })
                .unwrap()
                .into_iter()
                .map(|o| o.result)
                .collect::<Vec<_>>()
        };
        assert_eq!(observe(), observe());
    }
}
