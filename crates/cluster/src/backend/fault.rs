//! Fault injection.
//!
//! [`FaultInjectionBackend`] wraps any [`CommBackend`] and filters every
//! message a rank sends through a seeded [`FaultPolicy`]: a message can be
//! delivered normally, dropped, duplicated, or delayed (held back until its
//! sender next blocks, which reorders it past later traffic). Decisions are a
//! pure function of `(seed, from, to, tag, seq)` — `seq` being the sender's
//! per-`(to, tag)` message counter — so the same policy produces the same
//! faults on every run and on every backend, including the free-running
//! threaded one. The backend keeps no record of the decisions, only their
//! count ([`FaultInjectionBackend::fault_count`]); what a run did on the
//! wire is in its telemetry.

use super::context::{Envelope, Instruments};
use super::{CommBackend, CommError, Payload, RankComm, RankFailure, RankOutcome};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What the fault layer decided to do with one message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Deliver the message normally.
    Deliver,
    /// Silently discard the message (the receiver is *not* told).
    Drop,
    /// Deliver the message twice.
    Duplicate,
    /// Hold the message back until the sender next blocks (in a receive, at a
    /// barrier, or at rank completion), letting later traffic overtake it.
    Delay,
    /// The sending node dies permanently at this send: the message (and any
    /// delayed messages it was holding) is lost, every later send from the
    /// node is suppressed, and every later blocking operation on its
    /// communicator reports [`CommError::RankDead`]. Unlike the message
    /// faults above this one is keyed by *node* identity
    /// ([`FaultPolicy::kill_rank`]), so a spare that adopts the dead node's
    /// tile slot does not inherit the death.
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
/// Probabilities are evaluated in the order drop → duplicate → delay against
/// a single uniform draw per message, so their sum must stay ≤ 1. An optional
/// tag filter restricts faults to one message class (e.g. a single
/// directional pass), and [`FaultPolicy::drop_message`] pins a single exact
/// message for surgical tests.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPolicy {
    /// Seed for the per-message decision hash.
    pub seed: u64,
    /// Probability that a message is dropped.
    pub drop_probability: f64,
    /// Probability that a message is duplicated.
    pub duplicate_probability: f64,
    /// Probability that a message is delayed (reordered).
    pub delay_probability: f64,
    /// When set, messages with any *other* tag are always delivered.
    pub only_tag: Option<u64>,
    /// When set, deterministically drops exactly the message identified by
    /// `(from, to, tag, seq)` in addition to the probabilistic rules.
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
            duplicate_probability: 0.0,
            delay_probability: 0.0,
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

    /// Sets the duplicate probability.
    pub fn duplicate(mut self, probability: f64) -> Self {
        self.duplicate_probability = probability;
        self
    }

    /// Sets the delay probability.
    pub fn delay(mut self, probability: f64) -> Self {
        self.delay_probability = probability;
        self
    }

    /// Restricts faults to messages with the given tag.
    pub fn on_tag(mut self, tag: u64) -> Self {
        self.only_tag = Some(tag);
        self
    }

    /// Deterministically drops exactly one message: the `seq`-th message
    /// (0-based, counted per `(from, to, tag)` stream) from rank `from` to
    /// rank `to` with tag `tag`.
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

    fn decide(&self, from: usize, to: usize, tag: u64, seq: u64) -> FaultAction {
        if self.drop_exact == Some((from, to, tag, seq)) {
            return FaultAction::Drop;
        }
        if let Some(only) = self.only_tag {
            if tag != only {
                return FaultAction::Deliver;
            }
        }
        let draw = unit_draw(self.seed, from, to, tag, seq);
        if draw < self.drop_probability {
            FaultAction::Drop
        } else if draw < self.drop_probability + self.duplicate_probability {
            FaultAction::Duplicate
        } else if draw < self.drop_probability + self.duplicate_probability + self.delay_probability
        {
            FaultAction::Delay
        } else {
            FaultAction::Deliver
        }
    }
}

/// SplitMix64-style finaliser over the message identity — deterministic,
/// backend-independent, and independent of the `rand` stand-in so a seed
/// keeps making the same decisions if the vendored crates are swapped for
/// real ones.
fn unit_draw(seed: u64, from: usize, to: usize, tag: u64, seq: u64) -> f64 {
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
            self.policy.decide(self.rank, to, tag, seq)
        };
        if action != FaultAction::Deliver {
            self.faults.fetch_add(1, Ordering::Relaxed);
        }
        action
    }
}

/// The one fault-dispatch protocol behind `isend`: consult the harness (if
/// any), then deliver / drop / duplicate via `deliver`, or park the envelope
/// in `delayed` (released when the sender next blocks or finishes), or kill
/// the sending rank outright (`dead` is set, this envelope and every delayed
/// one is lost, and all later sends are suppressed).
pub(super) fn route_send<M: Payload>(
    instruments: &mut Instruments,
    delayed: &mut Vec<(usize, Envelope<M>)>,
    dead: &mut bool,
    to: usize,
    envelope: Envelope<M>,
    mut deliver: impl FnMut(usize, Envelope<M>),
) {
    if *dead {
        return;
    }
    let Instruments { harness, telemetry } = instruments;
    let action = match harness {
        Some(harness) => harness.decide(to, envelope.tag),
        None => FaultAction::Deliver,
    };
    match action {
        FaultAction::Deliver => deliver(to, envelope),
        FaultAction::Drop => {
            if let Some(sink) = telemetry {
                sink.record(ptycho_telemetry::TelemetryEvent::CommDrop {
                    to: to as u64,
                    tag: envelope.tag,
                    bytes: envelope.payload.payload_bytes() as u64,
                });
            }
        }
        FaultAction::Duplicate => {
            deliver(to, envelope.clone());
            deliver(to, envelope);
        }
        FaultAction::Delay => delayed.push((to, envelope)),
        FaultAction::Kill => {
            *dead = true;
            // A dying node takes its held-back messages with it.
            delayed.clear();
            if let Some(sink) = telemetry {
                let node = harness
                    .as_ref()
                    .expect("only a harness can kill a node")
                    .node;
                sink.record(ptycho_telemetry::TelemetryEvent::RankDead { node: node as u64 });
            }
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

impl<B: CommBackend> FaultInjectionBackend<B> {
    /// Wraps `inner`, injecting faults according to `policy`.
    ///
    /// Loss detection is enforced on the wrapped backend
    /// ([`CommBackend::with_loss_detection`]): a policy that drops messages
    /// can surface errors, never hang the run.
    pub fn new(inner: B, policy: FaultPolicy) -> Self {
        Self {
            inner: inner.with_loss_detection(),
            policy,
            faults: Arc::new(AtomicU64::new(0)),
        }
    }

    /// How many send decisions came out as anything but
    /// [`FaultAction::Deliver`], across every `run` since construction.
    pub fn fault_count(&self) -> u64 {
        self.faults.load(Ordering::Relaxed)
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    fn harness_for(&self, rank: usize) -> FaultHarness {
        FaultHarness {
            rank,
            node: rank,
            total_sends: 0,
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

    fn loss_detection_enabled(&self) -> bool {
        self.inner.loss_detection_enabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_decisions_are_deterministic() {
        let policy = FaultPolicy::reliable(7).drop(0.3).duplicate(0.2).delay(0.1);
        for from in 0..4 {
            for seq in 0..20 {
                let a = policy.decide(from, 1, 0x10, seq);
                let b = policy.decide(from, 1, 0x10, seq);
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn probabilities_shape_the_action_mix() {
        let policy = FaultPolicy::reliable(99).drop(0.5);
        let drops = (0..1000)
            .filter(|&seq| policy.decide(0, 1, 2, seq) == FaultAction::Drop)
            .count();
        assert!(
            (350..650).contains(&drops),
            "~half the messages should drop, got {drops}/1000"
        );

        let reliable = FaultPolicy::reliable(99);
        assert!((0..1000).all(|seq| reliable.decide(0, 1, 2, seq) == FaultAction::Deliver));
    }

    #[test]
    fn tag_filter_limits_faults() {
        let policy = FaultPolicy::reliable(3).drop(1.0).on_tag(0x11);
        assert_eq!(policy.decide(0, 1, 0x10, 0), FaultAction::Deliver);
        assert_eq!(policy.decide(0, 1, 0x11, 0), FaultAction::Drop);
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
        assert_eq!(policy.decide(2, 0, 0x11, 0), FaultAction::Deliver);
        assert_eq!(policy.decide(2, 0, 0x11, 1), FaultAction::Drop);
        assert_eq!(policy.decide(2, 0, 0x11, 2), FaultAction::Deliver);
        assert_eq!(policy.decide(1, 0, 0x11, 1), FaultAction::Deliver);
    }
}
