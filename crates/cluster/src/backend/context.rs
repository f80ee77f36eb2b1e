//! The one per-rank context every transport shares.
//!
//! A [`Transport`] moves envelopes between ranks and nothing else: enqueue,
//! blocking matched take, non-blocking matched take, barrier, rank finished.
//! Everything a solver observes on top of that — range checks, correlation
//! ids, fault routing, `Delay` flushing, wire-time charging, wait-time
//! measurement, rank death and the transport-level telemetry events — is
//! written once, in [`RankCtx`], so two transports cannot drift apart in any
//! of it. [`launch`] is the matching single launcher: one scoped thread per
//! rank, rank exit (return *or* unwind) reported to the transport, outcomes
//! collected in rank order.

use super::fault::{self, FaultHarness};
use super::{collect_outcomes, CommError, Payload, RankComm, RankFailure, RankOutcome};
use crate::clock::RankClock;
use crate::memory::MemoryTracker;
use crate::topology::ClusterTopology;
use ptycho_telemetry::{RankSink, TelemetryEvent};

/// A message in flight between two ranks.
#[derive(Clone, Debug)]
pub struct Envelope<M> {
    pub(crate) from: usize,
    pub(crate) tag: u64,
    /// Span correlation id: the sender's slot in the high 32 bits, its
    /// per-context send counter in the low 32. Stamped once per logical
    /// `isend`, before fault routing, so every copy of a duplicated or
    /// delayed message carries the same id and telemetry receives can be
    /// paired with their originating send unambiguously.
    pub(crate) corr: u64,
    pub(crate) payload: M,
}

/// MPI matching, shared by every transport's queue: removes and returns the
/// oldest envelope from `from` with tag `tag`, leaving the rest in order.
pub(super) fn take_match<M>(
    queue: &mut Vec<Envelope<M>>,
    from: usize,
    tag: u64,
) -> Option<Envelope<M>> {
    let pos = queue.iter().position(|e| e.from == from && e.tag == tag)?;
    Some(queue.remove(pos))
}

/// What a backend must provide to carry [`RankCtx`] traffic for one rank.
///
/// Matching is MPI's ([`take_match`]): `take`/`try_take` return the oldest
/// envelope from `from` with tag `tag`, leaving everything else queued.
pub trait Transport {
    /// The payload type this transport carries.
    type Msg: Payload;

    /// Queues `envelope` for rank `to` (which may be this rank) without
    /// blocking, like a buffered `MPI_Isend`.
    fn enqueue(&mut self, to: usize, envelope: Envelope<Self::Msg>);

    /// Blocks until a matching envelope arrives, or reports why none can.
    fn take(&mut self, from: usize, tag: u64) -> Result<Envelope<Self::Msg>, CommError>;

    /// Returns a matching envelope if one has already arrived.
    fn try_take(&mut self, from: usize, tag: u64) -> Option<Envelope<Self::Msg>>;

    /// Blocks until every rank has arrived, or reports why they cannot.
    fn barrier(&mut self) -> Result<(), CommError>;

    /// This rank's body returned or unwound: it will never send, receive or
    /// arrive at a barrier again. Runs during unwinding, so must not panic.
    fn finish(&mut self);
}

/// The cross-cutting instruments a rank's communicator carries besides the
/// wire, reached through [`RankComm::instruments`]: decorators
/// ([`FaultInjectionBackend`](super::FaultInjectionBackend),
/// [`ReliableComm`](super::ReliableComm)) and the iteration engine install
/// and read them here instead of through one trait hook each.
#[derive(Default)]
pub struct Instruments {
    /// The fault filter every send is routed through, when one is installed.
    /// Its [`FaultHarness::set_node`] re-keys node-keyed faults after a spare
    /// adopts the slot; [`FaultHarness::cursor`] / [`FaultHarness::set_cursor`]
    /// carry its decision counters across a process resume.
    pub harness: Option<FaultHarness>,
    /// This rank's telemetry stream, when recording is enabled: its one
    /// handle, parked back in the hub when the context drops. Transport
    /// events, `ReliableComm`'s retransmits and acks, and the engine's
    /// events all go through it.
    pub telemetry: Option<RankSink>,
}

/// The per-rank handle of every built-in backend: identity, clocks, memory,
/// instruments and the fault-routing state, over a transport `T`.
pub struct RankCtx<T: Transport> {
    rank: usize,
    size: usize,
    topology: ClusterTopology,
    pub(super) transport: T,
    instruments: Instruments,
    /// Messages held back by a `Delay` fault, with their destination;
    /// released before this rank next blocks and when it finishes.
    delayed: Vec<(usize, Envelope<T::Msg>)>,
    /// Counter feeding the low half of each outgoing correlation id.
    send_corr: u64,
    /// Set by a `Kill` fault: the node is permanently dead — sends are
    /// suppressed and blocking operations report [`CommError::RankDead`].
    dead: bool,
    clock: RankClock,
    memory: MemoryTracker,
}

/// Hands one envelope to the transport, charging its analytic wire time to
/// the sender (once per copy: a duplicate is two transfers).
fn deliver<T: Transport>(
    transport: &mut T,
    clock: &mut RankClock,
    topology: &ClusterTopology,
    to: usize,
    envelope: Envelope<T::Msg>,
) {
    let bytes = envelope.payload.payload_bytes();
    clock.charge_communication(topology.transfer_time(envelope.from, to, bytes));
    transport.enqueue(to, envelope);
}

impl<T: Transport> RankCtx<T> {
    /// Releases every `Delay`-held message. Called on entry to every
    /// blocking operation — unconditionally, before the transport is asked
    /// whether the wanted message already arrived — because the release
    /// charges this rank's analytic clock: gating it on arrival would let
    /// real thread timing decide *when* the charge lands and break trace
    /// determinism. (It also means a delayed message can never deadlock its
    /// own sender's round trip.) A killed node holds nothing: the kill
    /// cleared its queue and suppresses every later send.
    fn flush_delayed(&mut self) {
        for (to, envelope) in self.delayed.drain(..) {
            deliver(
                &mut self.transport,
                &mut self.clock,
                &self.topology,
                to,
                envelope,
            );
        }
    }

    /// Records a completed receive at the API-return point (program order on
    /// the receiver, stamped with the deterministic communication clock) and
    /// unwraps the payload.
    fn received(&mut self, envelope: Envelope<T::Msg>) -> T::Msg {
        self.trace(TelemetryEvent::CommRecv {
            from: envelope.from as u64,
            tag: envelope.tag,
            bytes: envelope.payload.payload_bytes() as u64,
            corr: envelope.corr,
        });
        envelope.payload
    }
}

impl<T: Transport> RankComm<T::Msg> for RankCtx<T> {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn isend(&mut self, to: usize, tag: u64, payload: T::Msg) {
        assert!(
            to < self.size,
            "rank {to} out of range ({} ranks)",
            self.size
        );
        let bytes = payload.payload_bytes();
        // One correlation id per logical send, stamped before fault routing
        // so duplicates and delayed deliveries all carry it.
        let corr = ((self.rank as u64) << 32) | self.send_corr;
        self.send_corr += 1;
        let envelope = Envelope {
            from: self.rank,
            tag,
            corr,
            payload,
        };
        let RankCtx {
            instruments,
            delayed,
            dead,
            transport,
            clock,
            topology,
            ..
        } = self;
        fault::route_send(instruments, delayed, dead, to, envelope, |to, envelope| {
            deliver(transport, clock, topology, to, envelope)
        });
        // A node killed by the fault layer (possibly by this very send) no
        // longer reaches the transport, so its sends are not recorded.
        if !self.dead {
            self.trace(TelemetryEvent::CommSend {
                to: to as u64,
                tag,
                bytes: bytes as u64,
                corr,
            });
        }
    }

    fn recv(&mut self, from: usize, tag: u64) -> Result<T::Msg, CommError> {
        if self.dead {
            return Err(CommError::RankDead { rank: self.rank });
        }
        self.flush_delayed();
        let envelope = self.clock.wait(|| self.transport.take(from, tag))?;
        Ok(self.received(envelope))
    }

    fn try_recv(&mut self, from: usize, tag: u64) -> Option<T::Msg> {
        if self.dead {
            return None;
        }
        let envelope = self.transport.try_take(from, tag)?;
        Some(self.received(envelope))
    }

    fn barrier(&mut self) -> Result<(), CommError> {
        if self.dead {
            return Err(CommError::RankDead { rank: self.rank });
        }
        self.flush_delayed();
        self.clock.wait(|| self.transport.barrier())
    }

    fn clock_mut(&mut self) -> &mut RankClock {
        &mut self.clock
    }

    fn memory_mut(&mut self) -> &mut MemoryTracker {
        &mut self.memory
    }

    fn instruments(&mut self) -> &mut Instruments {
        &mut self.instruments
    }
}

/// Reports rank exit to the transport however the body leaves — return or
/// unwind — so peers blocked on this rank error out instead of hanging and a
/// panic propagates through `join`.
struct ExitGuard<'a, T: Transport>(&'a mut RankCtx<T>);

impl<T: Transport> Drop for ExitGuard<'_, T> {
    fn drop(&mut self) {
        // A delayed message must not be lost just because its sender
        // finished first; a panicking rank's held-back messages die with it
        // (releasing them could panic again mid-unwind).
        if !std::thread::panicking() {
            self.0.flush_delayed();
        }
        self.0.transport.finish();
    }
}

/// Runs `body` once per transport, each on its own scoped thread with a
/// fresh [`RankCtx`], and collects the outcomes in rank order (shared by
/// every built-in backend's `run`).
pub(super) fn launch<T, R, F>(
    transports: Vec<T>,
    topology: ClusterTopology,
    body: F,
) -> Result<Vec<RankOutcome<R>>, RankFailure>
where
    T: Transport + Send,
    R: Send,
    F: Fn(&mut RankCtx<T>) -> Result<R, CommError> + Sync,
{
    let size = transports.len();
    assert!(size > 0, "need at least one rank");
    let body = &body;
    let outcomes = std::thread::scope(|scope| {
        let handles: Vec<_> = transports
            .into_iter()
            .enumerate()
            .map(|(rank, transport)| {
                scope.spawn(move || {
                    let mut ctx = RankCtx {
                        rank,
                        size,
                        topology,
                        transport,
                        instruments: Instruments::default(),
                        delayed: Vec::new(),
                        send_corr: 0,
                        dead: false,
                        clock: RankClock::new(),
                        memory: MemoryTracker::new(),
                    };
                    let result = {
                        let guard = ExitGuard(&mut ctx);
                        body(&mut *guard.0)
                    };
                    RankOutcome {
                        rank,
                        result,
                        time: ctx.clock.breakdown(),
                        memory: ctx.memory,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("rank thread panicked"))
            .collect()
    });
    collect_outcomes(outcomes)
}

/// The transport conformance suite: what every [`Transport`] must deliver
/// once [`RankCtx`] sits on top of it. Each case is one generic body;
/// [`transport_conformance_tests!`](conformance::transport_conformance_tests)
/// instantiates them all inside a backend's own test module.
#[cfg(test)]
pub(super) mod conformance {
    use crate::backend::{CommBackend, CommError, FaultInjectionBackend, FaultPolicy, RankComm};
    use crate::topology::ClusterTopology;
    use ptycho_telemetry::{Telemetry, TelemetryEvent};

    /// Instantiates every conformance case as a `#[test]` on `$backend`.
    macro_rules! transport_conformance_tests {
        ($backend:expr) => {
            $crate::backend::context::conformance::transport_conformance_tests!(@cases $backend;
                ring_pass_accumulates,
                tag_matching_is_respected,
                try_recv_returns_none_when_empty,
                barrier_synchronises_all_ranks,
                communication_time_is_charged_to_sender,
                self_send_is_received_locally,
                outcomes_are_ordered_by_rank,
                barrier_with_finished_peer_errors_without_hanging,
                delayed_messages_are_released_before_blocking_and_at_exit,
                killed_rank_sends_and_delayed_queue_are_suppressed,
                duplicate_copies_share_the_send_correlation_id,
            );
            #[test]
            #[should_panic(expected = "rank thread panicked")]
            fn send_to_invalid_rank_panics() {
                $crate::backend::context::conformance::send_to_invalid_rank_panics(&$backend);
            }
            #[test]
            #[should_panic(expected = "rank thread panicked")]
            fn panicking_rank_propagates_instead_of_hanging() {
                $crate::backend::context::conformance::panicking_rank_propagates_instead_of_hanging(
                    &$backend,
                );
            }
        };
        (@cases $backend:expr; $($case:ident),* $(,)?) => {
            $(
                #[test]
                fn $case() {
                    $crate::backend::context::conformance::$case(&$backend);
                }
            )*
        };
    }

    pub(crate) use transport_conformance_tests;

    pub fn ring_pass_accumulates<B: CommBackend>(backend: &B) {
        // Each rank sends its rank number around a ring; the total arriving
        // back equals the sum of all ranks.
        let n = 6;
        let outcomes = backend
            .run::<Vec<f64>, f64, _>(n, |ctx| {
                let next = (ctx.rank() + 1) % ctx.size();
                let prev = (ctx.rank() + ctx.size() - 1) % ctx.size();
                let mut total = ctx.rank() as f64;
                let mut token = vec![ctx.rank() as f64];
                for _ in 0..ctx.size() - 1 {
                    ctx.isend(next, 7, token);
                    token = ctx.recv(prev, 7)?;
                    total += token[0];
                }
                Ok(total)
            })
            .unwrap();
        let expected: f64 = (0..n).map(|x| x as f64).sum();
        for o in &outcomes {
            assert_eq!(o.result, expected, "rank {} total mismatch", o.rank);
        }
    }

    pub fn tag_matching_is_respected<B: CommBackend>(backend: &B) {
        let outcomes = backend
            .run::<Vec<f64>, (f64, f64), _>(2, |ctx| {
                if ctx.rank() == 0 {
                    // Send tag 2 first, then tag 1; receiver asks for tag 1 first.
                    ctx.isend(1, 2, vec![20.0]);
                    ctx.isend(1, 1, vec![10.0]);
                    Ok((0.0, 0.0))
                } else {
                    let first = ctx.recv(0, 1)?[0];
                    let second = ctx.recv(0, 2)?[0];
                    Ok((first, second))
                }
            })
            .unwrap();
        assert_eq!(outcomes[1].result, (10.0, 20.0));
    }

    pub fn try_recv_returns_none_when_empty<B: CommBackend>(backend: &B) {
        let outcomes = backend
            .run::<Vec<f64>, bool, _>(2, |ctx| {
                if ctx.rank() == 0 {
                    Ok(ctx.try_recv(1, 4).is_none())
                } else {
                    // Never sends anything.
                    Ok(true)
                }
            })
            .unwrap();
        assert!(outcomes[0].result);
    }

    pub fn barrier_synchronises_all_ranks<B: CommBackend>(backend: &B) {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = AtomicUsize::new(0);
        let outcomes = backend
            .run::<Vec<f64>, (usize, f64), _>(4, |ctx| {
                let next = (ctx.rank() + 1) % ctx.size();
                let prev = (ctx.rank() + ctx.size() - 1) % ctx.size();
                counter.fetch_add(1, Ordering::SeqCst);
                ctx.isend(next, 3, vec![ctx.rank() as f64]);
                ctx.barrier()?;
                // After the barrier every rank must observe all increments,
                // and every message sent before it must be deliverable.
                Ok((counter.load(Ordering::SeqCst), ctx.recv(prev, 3)?[0]))
            })
            .unwrap();
        for (rank, o) in outcomes.iter().enumerate() {
            assert_eq!(o.result, (4, ((rank + 3) % 4) as f64));
        }
    }

    pub fn communication_time_is_charged_to_sender<B: CommBackend>(backend: &B) {
        let payload_len = 10_000usize;
        let outcomes = backend
            .run::<Vec<f64>, (), _>(7, |ctx| {
                // Rank 0 sends a large buffer to rank 6 (different node).
                if ctx.rank() == 0 {
                    ctx.isend(6, 1, vec![0.0; payload_len]);
                } else if ctx.rank() == 6 {
                    ctx.recv(0, 1)?;
                }
                Ok(())
            })
            .unwrap();
        let expected = ClusterTopology::summit().transfer_time(0, 6, payload_len * 8);
        assert!((outcomes[0].time.communication - expected).abs() < 1e-12);
        assert_eq!(outcomes[6].time.communication, 0.0);
        // The receiver's blocking time shows up as wait.
        assert!(outcomes[6].time.wait >= 0.0);
    }

    pub fn self_send_is_received_locally<B: CommBackend>(backend: &B) {
        let outcomes = backend
            .run::<Vec<f64>, f64, _>(2, |ctx| {
                let me = ctx.rank();
                ctx.isend(me, 5, vec![me as f64 + 0.5]);
                Ok(ctx.recv(me, 5)?[0])
            })
            .unwrap();
        assert_eq!(outcomes[0].result, 0.5);
        assert_eq!(outcomes[1].result, 1.5);
    }

    pub fn outcomes_are_ordered_by_rank<B: CommBackend>(backend: &B) {
        let outcomes = backend
            .run::<(), usize, _>(5, |ctx| Ok(ctx.rank() * 10))
            .unwrap();
        for (i, o) in outcomes.iter().enumerate() {
            assert_eq!(o.rank, i);
            assert_eq!(o.result, i * 10);
        }
    }

    pub fn send_to_invalid_rank_panics<B: CommBackend>(backend: &B) {
        let _ = backend.run::<(), (), _>(2, |ctx| {
            if ctx.rank() == 0 {
                ctx.isend(5, 0, ());
            }
            Ok(())
        });
    }

    /// Rank 0 panics (out-of-range send) while rank 1 is parked in a
    /// barrier only rank 0 could complete. The exit guard must report the
    /// unwinding rank to the transport so rank 1 errors out and the panic
    /// surfaces through `join` instead of hanging the run.
    pub fn panicking_rank_propagates_instead_of_hanging<B: CommBackend>(backend: &B) {
        let _ = backend.run::<(), (), _>(2, |ctx| {
            if ctx.rank() == 0 {
                ctx.isend(5, 0, ());
            }
            ctx.barrier()
        });
    }

    /// No timeout is configured: the error must come from the transport
    /// knowing the peer is gone, at once, not from a deadline.
    pub fn barrier_with_finished_peer_errors_without_hanging<B: CommBackend>(backend: &B) {
        let failure = backend
            .run::<(), (), _>(3, |ctx| {
                if ctx.rank() == 0 {
                    Ok(()) // exits without reaching the barrier
                } else {
                    ctx.barrier()
                }
            })
            .unwrap_err();
        assert!(matches!(
            failure.error,
            CommError::BarrierTimeout { .. } | CommError::Deadlock { .. }
        ));
        assert_eq!(failure.failed_ranks, 2);
    }

    pub fn delayed_messages_are_released_before_blocking_and_at_exit<B>(backend: &B)
    where
        B: CommBackend + Clone + Sync,
    {
        let faulty =
            FaultInjectionBackend::new(backend.clone(), FaultPolicy::reliable(0).delay(1.0));
        let outcomes = faulty
            .run::<Vec<f64>, f64, _>(2, |ctx| {
                if ctx.rank() == 0 {
                    // Held back, then released on entry to the receive below
                    // — or rank 1 could never produce the reply.
                    ctx.isend(1, 1, vec![1.0]);
                    let reply = ctx.recv(1, 2)?[0];
                    // Held back until this rank finishes.
                    ctx.isend(1, 3, vec![3.0]);
                    Ok(reply)
                } else {
                    let ping = ctx.recv(0, 1)?[0];
                    ctx.isend(0, 2, vec![ping + 1.0]);
                    Ok(ctx.recv(0, 3)?[0])
                }
            })
            .unwrap();
        assert_eq!(outcomes[0].result, 2.0);
        assert_eq!(outcomes[1].result, 3.0);
        assert_eq!(faulty.fault_count(), 3);
    }

    pub fn killed_rank_sends_and_delayed_queue_are_suppressed<B>(backend: &B)
    where
        B: CommBackend + Clone + Sync,
    {
        // Node 0's first send is delayed, its second kills it.
        let policy = FaultPolicy::reliable(0)
            .delay(1.0)
            .on_tag(1)
            .kill_rank(0, 1);
        let faulty = FaultInjectionBackend::new(backend.clone(), policy);
        let outcomes = faulty
            .run::<Vec<f64>, usize, _>(2, |ctx| {
                if ctx.rank() == 0 {
                    ctx.isend(1, 1, vec![1.0]); // held back, then dies with the node
                    ctx.isend(1, 2, vec![2.0]); // the moment of death
                    ctx.isend(1, 3, vec![3.0]); // suppressed: already dead
                    assert_eq!(ctx.recv(1, 9), Err(CommError::RankDead { rank: 0 }));
                    assert_eq!(ctx.barrier(), Err(CommError::RankDead { rank: 0 }));
                    assert_eq!(ctx.try_recv(1, 9), None);
                    Ok(0)
                } else {
                    // None of the three can arrive, before or after rank 0
                    // finishes; each receive is told so instead of hanging.
                    Ok((1..=3).filter(|&tag| ctx.recv(0, tag).is_ok()).count())
                }
            })
            .unwrap();
        assert_eq!(outcomes[1].result, 0);
        // The delay and the kill; the suppressed send never reaches the
        // harness.
        assert_eq!(faulty.fault_count(), 2);
    }

    pub fn duplicate_copies_share_the_send_correlation_id<B>(backend: &B)
    where
        B: CommBackend + Clone + Sync,
    {
        let telemetry = Telemetry::new();
        let faulty =
            FaultInjectionBackend::new(backend.clone(), FaultPolicy::reliable(0).duplicate(1.0));
        faulty
            .run::<Vec<f64>, (), _>(2, |ctx| {
                ctx.instruments().telemetry = Some(telemetry.sink(ctx.rank()));
                if ctx.rank() == 0 {
                    ctx.isend(1, 5, vec![1.0]);
                } else {
                    ctx.recv(0, 5)?;
                    ctx.recv(0, 5)?;
                }
                Ok(())
            })
            .unwrap();
        let sent: Vec<u64> = telemetry
            .records(0)
            .iter()
            .filter_map(|r| match r.event {
                TelemetryEvent::CommSend { corr, .. } => Some(corr),
                _ => None,
            })
            .collect();
        let received: Vec<u64> = telemetry
            .records(1)
            .iter()
            .filter_map(|r| match r.event {
                TelemetryEvent::CommRecv { corr, .. } => Some(corr),
                _ => None,
            })
            .collect();
        assert_eq!(sent.len(), 1, "one logical send, one CommSend");
        assert_eq!(received, [sent[0], sent[0]]);
    }
}
