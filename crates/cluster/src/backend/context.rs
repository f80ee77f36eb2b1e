//! The one per-rank context every transport shares.
//!
//! A [`Transport`] moves envelopes between ranks and nothing else: enqueue,
//! blocking matched take, barrier, rank finished.
//! Everything a solver observes on top of that — range checks, correlation
//! ids, fault routing, wire-time charging, wait-time measurement, rank
//! death, loss and departure, and the transport-level telemetry events —
//! is written once, in [`RankCtx`], so two transports
//! cannot drift apart in any of it. [`launch`] is the matching single
//! launcher: one scoped thread per rank, rank exit (return *or* unwind)
//! announced to every peer and reported to the transport, outcomes
//! collected in rank order.
//!
//! Loss and departure are envelopes too. A message the fault layer drops
//! becomes a payload-less tombstone at its place in the sender's stream, and
//! a rank that exits leaves an exit notice behind everything it sent. A
//! take that meets either fails at once ([`take_match`]), so no transport
//! needs a timer to notice that a message will never come.

use super::fault::{self, FaultHarness};
use super::{collect_outcomes, CommError, Payload, RankComm, RankFailure, RankOutcome};
use crate::clock::RankClock;
use crate::memory::MemoryTracker;
use crate::topology::ClusterTopology;
use ptycho_telemetry::{RankSink, TelemetryEvent};
use std::any::Any;

/// What one rank leaves in another's queue.
#[derive(Debug)]
pub struct Envelope<M> {
    pub(crate) from: usize,
    pub(crate) content: Content<M>,
}

/// The three things a sender's stream can carry.
#[derive(Debug)]
pub(crate) enum Content<M> {
    /// A message.
    Message {
        tag: u64,
        /// Span correlation id: the sender's slot in the high 32 bits, its
        /// per-context send counter in the low 32. Stamped once per `isend`,
        /// so a telemetry receive pairs with its originating send
        /// unambiguously, whatever order the receiver takes its streams in.
        corr: u64,
        payload: M,
    },
    /// The tombstone of a message the fault layer dropped.
    Lost { tag: u64 },
    /// The sender has exited and will send nothing more.
    Exit,
}

impl<M> Envelope<M> {
    /// True when a take of `(from, tag)` stops here: a message or tombstone
    /// of that stream, or `from`'s exit notice.
    pub(super) fn ends_take(&self, from: usize, tag: u64) -> bool {
        self.from == from
            && match self.content {
                Content::Message { tag: sent, .. } | Content::Lost { tag: sent } => sent == tag,
                Content::Exit => true,
            }
    }
}

/// MPI matching, shared by every transport's queue, for a take of
/// `(from, tag)` by `rank`: the oldest envelope that [ends the
/// take](Envelope::ends_take) decides it. A message or tombstone is removed
/// and returned, leaving the rest in order; `from`'s exit notice fails the
/// take with [`CommError::PeerGone`] and stays queued, so every later take
/// from that sender fails too. `None` means nothing in the queue decides it
/// yet.
pub(super) fn take_match<M>(
    queue: &mut Vec<Envelope<M>>,
    rank: usize,
    from: usize,
    tag: u64,
) -> Option<Result<Envelope<M>, CommError>> {
    let pos = queue.iter().position(|e| e.ends_take(from, tag))?;
    Some(match queue[pos].content {
        Content::Exit => Err(CommError::PeerGone { rank, from, tag }),
        _ => Ok(queue.remove(pos)),
    })
}

/// What a backend must provide to carry [`RankCtx`] traffic for one rank.
///
/// Matching is MPI's ([`take_match`]): `take` returns the oldest message or
/// tombstone from `from` with tag `tag`, leaving everything else queued.
pub trait Transport {
    /// The payload type this transport carries.
    type Msg: Payload;

    /// Queues `envelope` for rank `to` (which may be this rank) without
    /// blocking, like a buffered `MPI_Isend`.
    fn enqueue(&mut self, to: usize, envelope: Envelope<Self::Msg>);

    /// Blocks until [`take_match`] decides the take.
    fn take(&mut self, from: usize, tag: u64) -> Result<Envelope<Self::Msg>, CommError>;

    /// Blocks until every rank has arrived, or fails with
    /// [`CommError::BarrierBroken`] once a rank has finished without
    /// arriving.
    fn barrier(&mut self) -> Result<(), CommError>;

    /// This rank's body returned or unwound: it will never send, receive or
    /// arrive at a barrier again. Runs during unwinding, so must not panic.
    fn finish(&mut self);
}

/// The cross-cutting instruments a rank's communicator carries besides the
/// wire, reached through [`RankComm::instruments`]: the
/// [`FaultInjectionBackend`](super::FaultInjectionBackend) and the iteration
/// engine install and read them here instead of through one trait hook each.
#[derive(Default)]
pub struct Instruments {
    /// The fault filter every send is routed through, when one is installed.
    /// Its [`FaultHarness::set_node`] re-keys node-keyed faults after a spare
    /// adopts the slot, [`FaultHarness::set_attempt`] names the restart
    /// attempt, and [`FaultHarness::cursor`] / [`FaultHarness::set_cursor`]
    /// carry its decision counters across a process resume.
    pub harness: Option<FaultHarness>,
    /// This rank's telemetry stream, when recording is enabled: its one
    /// handle, parked back in the hub when the context drops. Transport
    /// events and the engine's events both go through it.
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
    /// Counter feeding the low half of each outgoing correlation id.
    send_corr: u64,
    /// Set by a `Kill` fault: the node is permanently dead — sends are
    /// suppressed and blocking operations report [`CommError::RankDead`].
    dead: bool,
    clock: RankClock,
    memory: MemoryTracker,
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
        let corr = ((self.rank as u64) << 32) | self.send_corr;
        self.send_corr += 1;
        let envelope = Envelope {
            from: self.rank,
            content: Content::Message { tag, corr, payload },
        };
        let routed = fault::route_send(&mut self.instruments, &mut self.dead, to, envelope);
        if let Some(envelope) = routed {
            // A message charges its analytic wire time to the sender; a
            // tombstone crosses no wire.
            if let Content::Message { .. } = envelope.content {
                let wire = self.topology.transfer_time(self.rank, to, bytes);
                self.clock.charge_communication(wire);
            }
            self.transport.enqueue(to, envelope);
        }
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
        let envelope = self.clock.wait(|| self.transport.take(from, tag))?;
        let Content::Message { corr, payload, .. } = envelope.content else {
            return Err(CommError::MessageLost {
                rank: self.rank,
                from,
                tag,
            });
        };
        // Recorded at the API-return point: program order on the receiver,
        // stamped with the deterministic communication clock.
        self.trace(TelemetryEvent::CommRecv {
            from: from as u64,
            tag,
            bytes: payload.payload_bytes() as u64,
            corr,
        });
        Ok(payload)
    }

    fn barrier(&mut self) -> Result<(), CommError> {
        if self.dead {
            return Err(CommError::RankDead { rank: self.rank });
        }
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

/// Announces rank exit however the body leaves — return or unwind — so
/// peers blocked on this rank error out instead of hanging and a panic
/// propagates through `join`.
struct ExitGuard<'a, T: Transport>(&'a mut RankCtx<T>);

impl<T: Transport> Drop for ExitGuard<'_, T> {
    fn drop(&mut self) {
        let ctx = &mut *self.0;
        // One exit notice per peer, behind everything this rank sent: a
        // peer waiting on a message this rank never sent fails at once.
        for peer in (0..ctx.size).filter(|&peer| peer != ctx.rank) {
            ctx.transport.enqueue(
                peer,
                Envelope {
                    from: ctx.rank,
                    content: Content::Exit,
                },
            );
        }
        ctx.transport.finish();
    }
}

/// The text a panic's payload carries: `panic!` with arguments carries a
/// `String`, a bare literal a `&str`; any other payload has none.
pub fn panic_text(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "a panic without a message".into())
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
            .map(|handle| {
                handle.join().unwrap_or_else(|payload| {
                    panic!("rank thread panicked: {}", panic_text(&*payload))
                })
            })
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
                barrier_synchronises_all_ranks,
                communication_time_is_charged_to_sender,
                self_send_is_received_locally,
                outcomes_are_ordered_by_rank,
                barrier_with_finished_peer_errors_without_hanging,
                a_dropped_message_is_reported_lost,
                a_receive_from_an_exited_rank_fails_at_once,
                killed_rank_sends_are_suppressed,
                out_of_order_receives_keep_their_send_correlation_ids,
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

    /// Rank 0 exits without reaching the barrier: the two ranks waiting at
    /// it can never be released, and learn so from the departure itself.
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
        assert_eq!(failure.error, CommError::BarrierBroken { rank: 1 });
        assert_eq!(failure.failed_ranks, 2);
    }

    /// A drop leaves a tombstone at the message's place in its stream: the
    /// receive it would have matched reports the loss, traffic on other
    /// tags and the stream's next message are unaffected, and the tombstone
    /// is charged no wire time.
    pub fn a_dropped_message_is_reported_lost<B>(backend: &B)
    where
        B: CommBackend + Clone + Sync,
    {
        let faulty = FaultInjectionBackend::new(
            backend.clone(),
            FaultPolicy::reliable(0).drop_message(0, 1, 5, 0),
        );
        let outcomes = faulty
            .run::<Vec<f64>, (f64, Option<CommError>, f64), _>(2, |ctx| {
                if ctx.rank() == 0 {
                    ctx.isend(1, 5, vec![1.0]); // dropped
                    ctx.isend(1, 5, vec![2.0]);
                    ctx.isend(1, 6, vec![3.0]);
                    Ok((0.0, None, 0.0))
                } else {
                    let other_tag = ctx.recv(0, 6)?[0];
                    let lost = ctx.recv(0, 5).err();
                    Ok((other_tag, lost, ctx.recv(0, 5)?[0]))
                }
            })
            .unwrap();
        let lost = CommError::MessageLost {
            rank: 1,
            from: 0,
            tag: 5,
        };
        assert_eq!(outcomes[1].result, (3.0, Some(lost), 2.0));
        let two_sends = 2.0 * ClusterTopology::summit().transfer_time(0, 1, 8);
        assert!((outcomes[0].time.communication - two_sends).abs() < 1e-12);
        assert_eq!(faulty.fault_count(), 1);
    }

    /// Rank 0 sends one message and exits while rank 1 stays live: rank 2
    /// still receives that message, and every receive from rank 0 that it
    /// never sent fails at once, because its exit notice stays queued.
    pub fn a_receive_from_an_exited_rank_fails_at_once<B: CommBackend>(backend: &B) {
        let outcomes = backend
            .run::<Vec<f64>, Vec<Result<f64, CommError>>, _>(3, |ctx| match ctx.rank() {
                0 => {
                    ctx.isend(2, 1, vec![1.0]);
                    Ok(Vec::new())
                }
                1 => {
                    // Live, so no channel can disconnect, until rank 2 is done.
                    ctx.recv(2, 9)?;
                    Ok(Vec::new())
                }
                _ => {
                    let seen = [1, 2, 1].map(|tag| ctx.recv(0, tag).map(|m| m[0]));
                    ctx.isend(1, 9, Vec::new());
                    Ok(seen.to_vec())
                }
            })
            .unwrap();
        let gone = |tag| {
            Err(CommError::PeerGone {
                rank: 2,
                from: 0,
                tag,
            })
        };
        assert_eq!(outcomes[2].result, [Ok(1.0), gone(2), gone(1)]);
    }

    pub fn killed_rank_sends_are_suppressed<B>(backend: &B)
    where
        B: CommBackend + Clone + Sync,
    {
        // Node 0's second send kills it.
        let faulty =
            FaultInjectionBackend::new(backend.clone(), FaultPolicy::reliable(0).kill_rank(0, 1));
        let outcomes = faulty
            .run::<Vec<f64>, usize, _>(2, |ctx| {
                if ctx.rank() == 0 {
                    ctx.isend(1, 1, vec![1.0]); // delivered before the death
                    ctx.isend(1, 2, vec![2.0]); // the moment of death
                    ctx.isend(1, 3, vec![3.0]); // suppressed: already dead
                    assert_eq!(ctx.recv(1, 9), Err(CommError::RankDead { rank: 0 }));
                    assert_eq!(ctx.barrier(), Err(CommError::RankDead { rank: 0 }));
                    Ok(0)
                } else {
                    // Only the first can arrive; once rank 0 has exited, each
                    // receive of the other two is told so instead of hanging.
                    Ok((1..=3).filter(|&tag| ctx.recv(0, tag).is_ok()).count())
                }
            })
            .unwrap();
        assert_eq!(outcomes[1].result, 1);
        // The kill alone; the suppressed send never reaches the harness.
        assert_eq!(faulty.fault_count(), 1);
    }

    pub fn out_of_order_receives_keep_their_send_correlation_ids<B: CommBackend>(backend: &B) {
        // Tag 5 is sent first but received last: each receive must still
        // carry the id its own send was stamped with.
        let telemetry = Telemetry::new();
        backend
            .run::<Vec<f64>, (), _>(2, |ctx| {
                ctx.instruments().telemetry = Some(telemetry.sink(ctx.rank()));
                if ctx.rank() == 0 {
                    ctx.isend(1, 5, vec![1.0]);
                    ctx.isend(1, 6, vec![2.0]);
                } else {
                    ctx.recv(0, 6)?;
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
        assert_eq!(sent.len(), 2, "one CommSend per send");
        assert_ne!(sent[0], sent[1]);
        assert_eq!(received, [sent[1], sent[0]]);
    }
}
