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
//!   each rank was waiting for) instead of hanging the test suite. A lost
//!   message or an exited peer never gets that far: its tombstone or exit
//!   notice fails the waiting receive at once, exactly as on the threaded
//!   backend, so a proof is only ever needed for a cycle among live ranks.
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
    /// Blocked in `recv(from, tag)` with nothing in its mailbox that decides
    /// the take.
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
    /// makes progress (takes a message, completes a barrier), because a rank
    /// that acts on the error may resolve a previously proven deadlock — the
    /// stale proof must not poison later blocking calls.
    deadlock: Option<String>,
    /// Bumped each time a barrier completes, so a rank woken from a barrier
    /// can tell a genuine release apart from a deadlock wake-up even after
    /// earlier deadlocks were proven and recovered.
    barrier_epoch: u64,
    /// The latest simulated arrival at the barrier being gathered.
    barrier_latest: u64,
    /// The latest arrival at the last barrier released, which every rank
    /// it released reads before the next barrier can release.
    released_at: u64,
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
    /// Decides a take of `(from, tag)` by `rank` from its mailbox, if
    /// anything there decides it.
    fn take_matching(
        &mut self,
        rank: usize,
        from: usize,
        tag: u64,
    ) -> Option<Result<Envelope<M>, CommError>> {
        let decided = take_match(&mut self.mailboxes[rank], rank, from, tag)?;
        // A decided receive is progress: any earlier deadlock proof is
        // stale (a rank acted on the error and resolved it).
        self.deadlock = None;
        Some(decided)
    }

    /// True once a rank has finished: it can never arrive at a barrier.
    fn barrier_broken(&self) -> bool {
        self.status.contains(&RankStatus::Finished)
    }

    /// Releases every rank if all of them are now waiting at the barrier.
    fn try_release_barrier(&mut self) -> bool {
        if !self.status.iter().all(|s| *s == RankStatus::BlockedBarrier) {
            return false;
        }
        self.status.fill(RankStatus::Runnable);
        self.barrier_epoch += 1;
        self.released_at = std::mem::take(&mut self.barrier_latest);
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
    /// The scheduler state. A rank's exit (its notices, then `finish`) may
    /// run during an unwind, so a poisoned mutex is accepted rather than
    /// panicked on: the state is valid at every step.
    fn lock(&self) -> MutexGuard<'_, SchedState<M>> {
        self.shared.state.lock().unwrap_or_else(|e| e.into_inner())
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

    /// Sends are non-blocking: the baton is kept. An envelope that decides
    /// the receiver's pending take makes it runnable.
    fn enqueue(&mut self, to: usize, envelope: Envelope<M>) {
        let mut state = self.lock();
        if let RankStatus::BlockedRecv { from, tag } = state.status[to] {
            if envelope.ends_take(from, tag) {
                state.status[to] = RankStatus::Runnable;
            }
        }
        state.mailboxes[to].push(envelope);
    }

    fn take(&mut self, from: usize, tag: u64) -> Result<Envelope<M>, CommError> {
        let rank = self.rank;
        let mut state = self.lock();
        if let Some(decided) = state.take_matching(rank, from, tag) {
            return decided;
        }
        loop {
            state = self.park(state, RankStatus::BlockedRecv { from, tag });
            if let Some(decided) = state.take_matching(rank, from, tag) {
                return decided;
            }
            if let Some(detail) = state.deadlock.clone() {
                return Err(CommError::Deadlock { rank, detail });
            }
            // Spurious wake-up: this rank was released by a deadlock proof
            // that another rank has since resolved (a recovery layer made
            // progress and cleared it). Re-arm the wait and yield again.
        }
    }

    fn barrier(&mut self, at: u64) -> Result<u64, CommError> {
        let rank = self.rank;
        let mut state = self.lock();
        let entered_epoch = state.barrier_epoch;
        state.barrier_latest = state.barrier_latest.max(at);
        loop {
            if state.barrier_broken() {
                return Err(CommError::BarrierBroken { rank });
            }
            state.status[rank] = RankStatus::BlockedBarrier;
            if state.try_release_barrier() {
                self.shared.baton.notify_all();
                return Ok(state.released_at);
            }
            state = self.park(state, RankStatus::BlockedBarrier);
            // A bumped epoch means the barrier genuinely completed; an
            // un-bumped one with a finished rank or a standing deadlock proof
            // is a failure.
            if state.barrier_epoch != entered_epoch {
                return Ok(state.released_at);
            }
            if state.barrier_broken() {
                return Err(CommError::BarrierBroken { rank });
            }
            if let Some(detail) = state.deadlock.clone() {
                return Err(CommError::Deadlock { rank, detail });
            }
            // Spurious wake-up (a proven deadlock was resolved by another
            // rank's recovery): re-arm, releasing the barrier ourselves if
            // every live rank is now waiting at it.
        }
    }

    /// Marks the rank finished, wakes every rank waiting at the barrier it
    /// can now never reach, and schedules a successor. A body that panics
    /// unwinds while *holding* the baton; releasing it here lets the other
    /// ranks error out and the panic propagate through `join` instead of
    /// hanging the scope forever.
    fn finish(&mut self) {
        let mut state = self.lock();
        state.status[self.rank] = RankStatus::Finished;
        for status in &mut state.status {
            if *status == RankStatus::BlockedBarrier {
                *status = RankStatus::Runnable;
            }
        }
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
                barrier_latest: 0,
                released_at: 0,
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
    fn deadlock_is_detected_not_hung() {
        // Each rank waits on the other, and neither has sent: a true cycle
        // among live ranks, which only the scheduler's global view can
        // prove.
        let backend = LockstepBackend::default();
        let failure = backend
            .run::<Vec<f64>, (), _>(2, |ctx| {
                let peer = 1 - ctx.rank();
                ctx.recv(peer, 42)?;
                ctx.isend(peer, 42, vec![1.0]);
                Ok(())
            })
            .unwrap_err();
        assert_eq!(failure.rank, 0);
        assert_eq!(failure.failed_ranks, 2);
        match failure.error {
            CommError::Deadlock { rank, detail } => {
                assert_eq!(rank, 0);
                assert!(
                    detail.contains("rank 0 waits on recv(from=1, tag=0x2a)")
                        && detail.contains("rank 1 waits on recv(from=0, tag=0x2a)"),
                    "diagnostic lists both waits: {detail}"
                );
            }
            other => panic!("expected a deadlock, got {other:?}"),
        }
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
