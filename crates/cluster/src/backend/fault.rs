//! Fault injection.
//!
//! [`FaultInjectionBackend`] wraps any [`CommBackend`] and filters every
//! message a rank sends through a seeded [`FaultPolicy`]: a message is
//! delivered normally or dropped, or the send kills its node. There is no
//! reordering fault: a receive matches by `(source, tag)` in send order, as
//! MPI's no-overtaking rule has it, so a message held back past later
//! traffic would be invisible to it. Decisions are a pure
//! function of `(seed, from, to, tag, seq, attempt)` — `seq` being the
//! sender's per-`(to, tag)` message counter and `attempt` the iteration
//! engine's restart attempt ([`FaultHarness::set_attempt`]) — so the same
//! policy produces the same faults on every run and on every backend,
//! including the free-running threaded one, while a restarted attempt draws
//! fresh ones. The backend keeps no record of the decisions, only their
//! count ([`FaultInjectionBackend::fault_count`]); what a run did on the
//! wire is in its telemetry.

use super::context::{Content, Envelope, Instruments};
use super::{CommBackend, CommError, Payload, RankComm, RankFailure, RankOutcome};
use ptycho_telemetry::TelemetryEvent;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What the fault layer decided to do with one message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Deliver the message normally.
    Deliver,
    /// Discard the message. A payload-less tombstone takes its place in
    /// the sender's stream, so the receive that would have matched it fails
    /// with [`CommError::MessageLost`].
    Drop,
    /// The sending node dies permanently at this send: the message is lost,
    /// every later send from the node is suppressed, and every later
    /// blocking operation on its communicator reports
    /// [`CommError::RankDead`]. Unlike the message fault above this one is
    /// keyed by *node* identity ([`FaultPolicy::kill_rank`]), so a spare
    /// that adopts the dead node's tile slot does not inherit the death.
    Kill,
}

/// Where, relative to the checkpoint manifest's atomic rename, a simulated
/// whole-process kill strikes (see [`FaultPolicy::kill_process_at_barrier`]).
///
/// The durability layer's commit protocol is write-temp → fsync → rename;
/// each phase leaves a different on-disk state for recovery to handle:
///
/// * `BeforeRename` — the per-rank checkpoint files are durable but the
///   manifest never appears, so the epoch is invisible and resume falls back
///   to the previous barrier.
/// * `DuringRename` — the manifest appears torn (a partial write at the
///   final path, as a non-atomic filesystem would leave it); recovery must
///   reject it via its checksum and fall back, never trust it.
/// * `AfterRename` — the commit completed before the death, so resume
///   continues from exactly this barrier.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashPhase {
    /// Die after the checkpoint files are durable but before the manifest
    /// rename: the epoch never becomes visible.
    BeforeRename,
    /// Die mid-manifest-write, leaving a torn manifest at the final path.
    DuringRename,
    /// Die immediately after the atomic rename: the epoch is committed.
    AfterRename,
}

/// A seeded, deterministic fault model.
///
/// The drop probability is evaluated against a single uniform draw per
/// message. An optional tag filter restricts faults to one message class
/// (e.g. a single directional pass), and [`FaultPolicy::drop_message`] pins
/// a single exact message of the first attempt for surgical tests.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPolicy {
    /// Seed for the per-message decision hash.
    pub seed: u64,
    /// Probability that a message is dropped.
    pub drop_probability: f64,
    /// When set, messages with any *other* tag are always delivered.
    pub only_tag: Option<u64>,
    /// When set, deterministically drops exactly the message identified by
    /// `(from, to, tag, seq)` of attempt 0, in addition to the probabilistic
    /// rules; a restart delivers it.
    pub drop_exact: Option<(usize, usize, u64, u64)>,
    /// When set, permanently kills one node: `(node, after_sends)` makes the
    /// node's `after_sends`-th send decision (0-based, counted across every
    /// stream the node sends on) come out as [`FaultAction::Kill`]. Keyed by
    /// node identity, not rank slot — see [`FaultHarness::set_node`].
    pub kill: Option<(usize, u64)>,
    /// When set, kills the *whole process* at the `barrier`-th durable
    /// checkpoint commit (the store's monotonic epoch sequence number), in
    /// the given [`CrashPhase`] relative to the manifest's atomic rename.
    /// Unlike [`FaultPolicy::kill`] this is not a per-node message fault:
    /// every rank of the job dies at once, exactly as a `kill -9` on the
    /// hosting process would. The fault layer only carries the knob; the
    /// durability layer in `ptycho-core` enacts it at commit time.
    pub process_kill: Option<(u64, CrashPhase)>,
}

impl FaultPolicy {
    /// A policy that never injects faults.
    pub fn reliable(seed: u64) -> Self {
        Self {
            seed,
            drop_probability: 0.0,
            only_tag: None,
            drop_exact: None,
            kill: None,
            process_kill: None,
        }
    }

    /// Sets the drop probability.
    pub fn drop(mut self, probability: f64) -> Self {
        self.drop_probability = probability;
        self
    }

    /// Restricts faults to messages with the given tag.
    pub fn on_tag(mut self, tag: u64) -> Self {
        self.only_tag = Some(tag);
        self
    }

    /// Deterministically drops exactly one message: the `seq`-th message
    /// (0-based, counted per `(from, to, tag)` stream) from rank `from` to
    /// rank `to` with tag `tag`, in attempt 0 only — so one checkpoint
    /// restart heals it.
    pub fn drop_message(mut self, from: usize, to: usize, tag: u64, seq: u64) -> Self {
        self.drop_exact = Some((from, to, tag, seq));
        self
    }

    /// Permanently kills `node` at its `after_sends`-th send decision
    /// (0-based, counted across all of the node's outgoing streams). The
    /// node's communicator goes dead from that point on — see
    /// [`FaultAction::Kill`].
    pub fn kill_rank(mut self, node: usize, after_sends: u64) -> Self {
        self.kill = Some((node, after_sends));
        self
    }

    /// Kills the whole process at the `barrier`-th durable checkpoint commit
    /// (the checkpoint store's epoch sequence number), in the given
    /// [`CrashPhase`] relative to the manifest's atomic rename. Used by the
    /// resume tests and the `load_gen --kill-at-barrier` CI smoke; a run
    /// without a checkpoint store never reaches a commit, so the knob is
    /// inert there.
    pub fn kill_process_at_barrier(mut self, barrier: u64, phase: CrashPhase) -> Self {
        self.process_kill = Some((barrier, phase));
        self
    }

    fn decide(&self, from: usize, to: usize, tag: u64, seq: u64, attempt: u64) -> FaultAction {
        if attempt == 0 && self.drop_exact == Some((from, to, tag, seq)) {
            return FaultAction::Drop;
        }
        if let Some(only) = self.only_tag {
            if tag != only {
                return FaultAction::Deliver;
            }
        }
        let draw = unit_draw(self.seed, from, to, tag, seq, attempt);
        if draw < self.drop_probability {
            FaultAction::Drop
        } else {
            FaultAction::Deliver
        }
    }
}

/// SplitMix64-style finaliser over the message identity — deterministic,
/// backend-independent, and independent of the `rand` stand-in so a seed
/// keeps making the same decisions if the vendored crates are swapped for
/// real ones. The attempt's term is zero at attempt 0, so first-attempt
/// decisions depend on the message identity alone.
fn unit_draw(seed: u64, from: usize, to: usize, tag: u64, seq: u64, attempt: u64) -> f64 {
    let mut x = seed
        ^ (from as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ (to as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9)
        ^ tag.wrapping_mul(0x94d0_49bb_1331_11eb)
        ^ seq.wrapping_mul(0xd6e8_feb8_6659_fd93)
        ^ attempt.wrapping_mul(0xa076_1d64_78bd_642f);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// A snapshot of one rank's fault-decision counters: the total-send clock
/// the rank-death fault fires on plus every per-`(to, tag)` stream sequence
/// number. The durability layer persists this at each consistency barrier and
/// restores it on process resume, so a resumed process's fault decisions
/// continue from where the killed process left off instead of replaying the
/// decision stream from zero.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultCursor {
    /// Total send decisions made, across every stream.
    pub total_sends: u64,
    /// Per-stream counters as `(to, tag, next_seq)`, in canonical
    /// `(to, tag)` order so two snapshots of the same state compare equal.
    pub streams: Vec<(usize, u64, u64)>,
}

/// The per-rank fault filter every send is routed through.
///
/// Created by [`FaultInjectionBackend`] and installed into each rank's
/// [`Instruments`]; a rank without a harness skips the filter entirely.
pub struct FaultHarness {
    rank: usize,
    /// The physical node occupying this rank's slot — equal to `rank` until
    /// the membership layer re-keys it ([`FaultHarness::set_node`]). The
    /// rank-death fault is keyed by this identity.
    node: usize,
    /// Total send decisions this rank has made, across every stream — the
    /// clock the rank-death fault fires on.
    total_sends: u64,
    /// The iteration engine's restart attempt (0 until
    /// [`FaultHarness::set_attempt`]): mixed into every message decision.
    attempt: u64,
    policy: FaultPolicy,
    seq: HashMap<(usize, u64), u64>,
    /// The backend-wide count of non-`Deliver` decisions.
    faults: Arc<AtomicU64>,
}

impl FaultHarness {
    /// Re-keys the harness to the physical node occupying this rank's slot,
    /// so node-keyed faults (rank death) follow the node, not the slot: after
    /// a spare adopts a dead node's tile, the same slot is run by a different
    /// node and must not inherit its predecessor's death. Message faults
    /// stay keyed by the rank slot (the wire identity).
    pub fn set_node(&mut self, node: usize) {
        self.node = node;
    }

    /// Tells the harness which restart attempt of the run it filters, so a
    /// re-run from a checkpoint draws fresh message decisions instead of
    /// replaying the ones that failed it. Attempt 0 is the first run, the
    /// only one [`FaultPolicy::drop_message`] fires in.
    pub fn set_attempt(&mut self, attempt: u64) {
        self.attempt = attempt;
    }

    /// Snapshots the harness's decision counters (see [`FaultCursor`]).
    pub fn cursor(&self) -> FaultCursor {
        let mut streams: Vec<(usize, u64, u64)> = self
            .seq
            .iter()
            .map(|(&(to, tag), &next)| (to, tag, next))
            .collect();
        streams.sort_unstable();
        FaultCursor {
            total_sends: self.total_sends,
            streams,
        }
    }

    /// Restores the harness's decision counters from a persisted snapshot.
    pub fn set_cursor(&mut self, cursor: &FaultCursor) {
        self.total_sends = cursor.total_sends;
        self.seq = cursor
            .streams
            .iter()
            .map(|&(to, tag, next)| ((to, tag), next))
            .collect();
    }

    /// Decides the fate of one outgoing message, counting it when it is a
    /// fault.
    pub fn decide(&mut self, to: usize, tag: u64) -> FaultAction {
        let counter = self.seq.entry((to, tag)).or_insert(0);
        let seq = *counter;
        *counter += 1;
        let sends_so_far = self.total_sends;
        self.total_sends += 1;
        let action = if self.policy.kill == Some((self.node, sends_so_far)) {
            FaultAction::Kill
        } else {
            self.policy.decide(self.rank, to, tag, seq, self.attempt)
        };
        if action != FaultAction::Deliver {
            self.faults.fetch_add(1, Ordering::Relaxed);
        }
        action
    }
}

/// The one fault-dispatch protocol behind `isend`: consult the harness (if
/// any) and return what reaches the transport — the envelope itself, its
/// tombstone in its place (a drop), or nothing when the send kills the
/// sending rank (`dead` is set, this envelope is lost, and all later sends
/// are suppressed). A drop or a death is stamped at the sender's `now`.
pub(super) fn route_send<M: Payload>(
    instruments: &mut Instruments,
    dead: &mut bool,
    now: u64,
    to: usize,
    envelope: Envelope<M>,
) -> Option<Envelope<M>> {
    if *dead {
        return None;
    }
    // Only messages meet the fault layer.
    let Content::Message { tag, payload, .. } = &envelope.content else {
        return Some(envelope);
    };
    let (tag, bytes) = (*tag, payload.payload_bytes() as u64);
    let Instruments { harness, telemetry } = instruments;
    let action = match harness {
        Some(harness) => harness.decide(to, tag),
        None => FaultAction::Deliver,
    };
    match action {
        FaultAction::Deliver => Some(envelope),
        FaultAction::Drop => {
            if let Some(sink) = telemetry {
                let to = to as u64;
                sink.record_at(now, TelemetryEvent::CommDrop { to, tag, bytes });
            }
            // The tombstone keeps the message's place in its stream, so
            // the receive that would have matched it reports the loss.
            Some(Envelope {
                from: envelope.from,
                content: Content::Lost { tag },
            })
        }
        FaultAction::Kill => {
            *dead = true;
            if let Some(sink) = telemetry {
                let node = harness
                    .as_ref()
                    .expect("only a harness can kill a node")
                    .node;
                sink.record_at(now, TelemetryEvent::RankDead { node: node as u64 });
            }
            None
        }
    }
}

/// A backend decorator injecting message faults.
///
/// Wraps any [`CommBackend`]; the wrapped backend's [`RankComm`] is reused
/// unchanged, with a per-rank [`FaultHarness`] installed before the rank body
/// starts.
pub struct FaultInjectionBackend<B> {
    inner: B,
    policy: FaultPolicy,
    faults: Arc<AtomicU64>,
}

impl<B> FaultInjectionBackend<B> {
    /// Wraps `inner`, injecting faults according to `policy`.
    pub fn new(inner: B, policy: FaultPolicy) -> Self {
        Self {
            inner,
            policy,
            faults: Arc::new(AtomicU64::new(0)),
        }
    }

    /// How many send decisions came out as anything but
    /// [`FaultAction::Deliver`], across every `run` since construction.
    pub fn fault_count(&self) -> u64 {
        self.faults.load(Ordering::Relaxed)
    }

    fn harness_for(&self, rank: usize) -> FaultHarness {
        FaultHarness {
            rank,
            node: rank,
            total_sends: 0,
            attempt: 0,
            policy: self.policy.clone(),
            seq: HashMap::new(),
            faults: Arc::clone(&self.faults),
        }
    }
}

impl<B: CommBackend + Sync> CommBackend for FaultInjectionBackend<B> {
    type Comm<M: Payload + 'static> = B::Comm<M>;

    fn run<M, R, F>(&self, num_ranks: usize, body: F) -> Result<Vec<RankOutcome<R>>, RankFailure>
    where
        M: Payload + 'static,
        R: Send,
        F: Fn(&mut Self::Comm<M>) -> Result<R, CommError> + Sync,
    {
        self.inner.run(num_ranks, |ctx: &mut B::Comm<M>| {
            ctx.instruments().harness = Some(self.harness_for(ctx.rank()));
            body(ctx)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_decisions_are_deterministic() {
        let policy = FaultPolicy::reliable(7).drop(0.3);
        for from in 0..4 {
            for seq in 0..20 {
                for attempt in 0..3 {
                    let a = policy.decide(from, 1, 0x10, seq, attempt);
                    let b = policy.decide(from, 1, 0x10, seq, attempt);
                    assert_eq!(a, b);
                }
            }
        }
    }

    /// The draw every first-attempt decision is made from, written out
    /// without the attempt term: the message identity alone.
    fn attempt_free_draw(seed: u64, from: usize, to: usize, tag: u64, seq: u64) -> f64 {
        let mut x = seed
            ^ (from as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ (to as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9)
            ^ tag.wrapping_mul(0x94d0_49bb_1331_11eb)
            ^ seq.wrapping_mul(0xd6e8_feb8_6659_fd93);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^= x >> 31;
        (x >> 11) as f64 / (1u64 << 53) as f64
    }

    #[test]
    fn first_attempt_decisions_depend_on_the_message_identity_alone() {
        let policy = FaultPolicy::reliable(0x5eed).drop(0.3);
        let mut faults = 0;
        for from in 0..4 {
            for to in 0..4 {
                for tag in [0x0, 0x7, 0x11, 0x20, 0xff_ffff] {
                    for seq in 0..16 {
                        let draw = attempt_free_draw(0x5eed, from, to, tag, seq);
                        let expected = if draw < 0.3 {
                            FaultAction::Drop
                        } else {
                            FaultAction::Deliver
                        };
                        let actual = policy.decide(from, to, tag, seq, 0);
                        assert_eq!(actual, expected, "({from}, {to}, {tag:#x}, {seq})");
                        faults += usize::from(actual != FaultAction::Deliver);
                    }
                }
            }
        }
        assert!(faults > 0, "the sampled grid must exercise the faults");
    }

    #[test]
    fn a_later_attempt_redraws_every_decision() {
        let policy = FaultPolicy::reliable(42).drop(0.5);
        let decisions = |attempt| -> Vec<FaultAction> {
            (0..1000)
                .map(|seq| policy.decide(0, 1, 0x7, seq, attempt))
                .collect()
        };
        let first = decisions(0);
        for attempt in 1..4 {
            let later = decisions(attempt);
            let moved = first.iter().zip(&later).filter(|(a, b)| a != b).count();
            assert!(
                (350..650).contains(&moved),
                "attempt {attempt}: ~half of 1000 independent draws must differ, got {moved}"
            );
        }
    }

    #[test]
    fn probabilities_shape_the_action_mix() {
        let policy = FaultPolicy::reliable(99).drop(0.5);
        let drops = (0..1000)
            .filter(|&seq| policy.decide(0, 1, 2, seq, 0) == FaultAction::Drop)
            .count();
        assert!(
            (350..650).contains(&drops),
            "~half the messages should drop, got {drops}/1000"
        );

        let reliable = FaultPolicy::reliable(99);
        assert!((0..1000).all(|seq| reliable.decide(0, 1, 2, seq, 0) == FaultAction::Deliver));
    }

    #[test]
    fn tag_filter_limits_faults() {
        let policy = FaultPolicy::reliable(3).drop(1.0).on_tag(0x11);
        assert_eq!(policy.decide(0, 1, 0x10, 0, 0), FaultAction::Deliver);
        assert_eq!(policy.decide(0, 1, 0x11, 0, 0), FaultAction::Drop);
    }

    #[test]
    fn kill_fires_on_the_nodes_nth_send_decision() {
        use super::super::LockstepBackend;
        // Node 1 dies on its second send decision: the first send lands, the
        // second is lost, and the node's next blocking op reports RankDead.
        let policy = FaultPolicy::reliable(0).kill_rank(1, 1);
        let backend = FaultInjectionBackend::new(LockstepBackend::default(), policy);
        let failure = backend
            .run::<Vec<f64>, f64, _>(2, |ctx| {
                if ctx.rank() == 1 {
                    ctx.isend(0, 0x1, vec![1.0]); // delivered
                    ctx.isend(0, 0x2, vec![2.0]); // the moment of death
                    ctx.isend(0, 0x3, vec![3.0]); // suppressed: already dead
                    ctx.barrier()?; // reports the death
                    Ok(0.0)
                } else {
                    Ok(ctx.recv(1, 0x1)?[0])
                }
            })
            .unwrap_err();
        assert_eq!(failure.rank, 1);
        assert!(matches!(failure.error, CommError::RankDead { rank: 1 }));
        // The kill is the one fault: the post-death send is suppressed
        // before it reaches the harness.
        assert_eq!(backend.fault_count(), 1);
    }

    #[test]
    fn kill_is_keyed_by_node_not_slot() {
        // Re-keying the harness to a different node id must disarm a kill
        // aimed at the original occupant of the slot.
        let policy = FaultPolicy::reliable(0).kill_rank(0, 0);
        let backend = FaultInjectionBackend::new(super::super::LockstepBackend::default(), policy);
        let outcomes = backend
            .run::<Vec<f64>, f64, _>(2, |ctx| {
                if ctx.rank() == 0 {
                    // A spare adopted this slot.
                    ctx.instruments().harness.as_mut().unwrap().set_node(7);
                    ctx.isend(1, 0x1, vec![4.5]);
                    Ok(0.0)
                } else {
                    Ok(ctx.recv(0, 0x1)?[0])
                }
            })
            .expect("the kill is aimed at node 0, which no longer runs slot 0");
        assert_eq!(outcomes[1].result, 4.5);
    }

    #[test]
    fn exact_drop_hits_one_message() {
        let policy = FaultPolicy::reliable(3).drop_message(2, 0, 0x11, 1);
        assert_eq!(policy.decide(2, 0, 0x11, 0, 0), FaultAction::Deliver);
        assert_eq!(policy.decide(2, 0, 0x11, 1, 0), FaultAction::Drop);
        assert_eq!(policy.decide(2, 0, 0x11, 2, 0), FaultAction::Deliver);
        assert_eq!(policy.decide(1, 0, 0x11, 1, 0), FaultAction::Deliver);
    }

    #[test]
    fn exact_drop_fires_in_the_first_attempt_only() {
        let policy = FaultPolicy::reliable(3).drop_message(2, 0, 0x11, 1);
        assert_eq!(policy.decide(2, 0, 0x11, 1, 0), FaultAction::Drop);
        for attempt in 1..8 {
            assert_eq!(
                policy.decide(2, 0, 0x11, 1, attempt),
                FaultAction::Deliver,
                "attempt {attempt} must deliver the message attempt 0 dropped"
            );
        }
    }

    #[test]
    fn the_harness_hands_its_attempt_to_every_decision() {
        use super::super::LockstepBackend;
        // Rank 0's first message is pinned for attempt 0; a harness told it
        // runs attempt 1 delivers it.
        let policy = FaultPolicy::reliable(0).drop_message(0, 1, 0x1, 0);
        let backend = FaultInjectionBackend::new(LockstepBackend::default(), policy);
        let run = |attempt: u64| {
            backend.run::<Vec<f64>, f64, _>(2, |ctx| {
                ctx.instruments()
                    .harness
                    .as_mut()
                    .expect("the backend installs a harness")
                    .set_attempt(attempt);
                if ctx.rank() == 0 {
                    ctx.isend(1, 0x1, vec![2.5]);
                    Ok(0.0)
                } else {
                    Ok(ctx.recv(0, 0x1)?[0])
                }
            })
        };
        let failure = run(0).expect_err("attempt 0 loses the pinned message");
        assert_eq!(
            failure.error,
            CommError::MessageLost {
                rank: 1,
                from: 0,
                tag: 0x1
            }
        );
        assert_eq!(run(1).expect("attempt 1 delivers it")[1].result, 2.5);
        assert_eq!(backend.fault_count(), 1);
    }
}
