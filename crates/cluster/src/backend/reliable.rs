//! Reliable delivery over any [`RankComm`]: sequence numbers, acknowledgement
//! and retransmission.
//!
//! The raw backends mirror MPI: a lost message surfaces as a
//! [`CommError::RecvTimeout`] (threaded) or a proven
//! [`CommError::Deadlock`] (lockstep) and the run aborts. [`ReliableComm`]
//! decorates a rank's communicator so that a lossy wire — in this repository,
//! a [`FaultInjectionBackend`] drop policy — is healed transparently:
//!
//! * every logical message carries a per-stream **sequence number** encoded
//!   into the wire tag, so retransmitted duplicates can never be confused
//!   with a later round's traffic (the duplicate hazard documented in PR 2);
//! * the receiver **acknowledges** each delivery on a paired ack tag;
//! * when a blocking operation fails, the rank **retransmits** every send the
//!   peer has not acknowledged and retries, up to
//!   [`ReliableConfig::max_recoveries`] times, then **escalates** with
//!   [`CommError::RecoveryExhausted`] so the caller (the iteration engine in
//!   `ptycho-core`) can fall back to checkpoint/restart.
//!
//! Recovery is *symmetric*: the rank whose receive failed cannot conjure the
//! missing payload, but the failure is global — on the lockstep backend every
//! rank is woken from the proven deadlock, and on the threaded backend the
//! sender's own next blocking call times out too. Each rank retransmits its
//! own unacknowledged sends during its retry, which restores the lost
//! message on the first recovery round in the common case.
//!
//! Wire tags also carry an **epoch** (the restart attempt number), so a
//! seeded fault policy keyed on `(from, to, tag, seq)` draws fresh decisions
//! after a checkpoint restart — the property that makes iteration restart a
//! genuinely stronger recovery layer than retransmission alone.
//!
//! [`FaultInjectionBackend`]: super::FaultInjectionBackend

use super::{CommError, Instruments, Payload, RankComm};
use crate::clock::RankClock;
use crate::memory::MemoryTracker;
use ptycho_telemetry::TelemetryEvent;
use std::collections::HashMap;

/// Bits available for the base (caller-visible) tag.
const BASE_TAG_BITS: u32 = 24;
/// Bits available for the per-stream sequence number.
const SEQ_BITS: u32 = 24;
/// Bit flagging an acknowledgement frame.
const ACK_BIT: u64 = 1 << 63;

/// Encodes a data frame's wire tag: `| ack:1 | epoch:8 | seq:24 | tag:24 |`.
///
/// Public so tests (and fault policies pinning an exact wire message) can
/// compute the tag a reliable stream puts on the wire.
pub fn wire_data_tag(base_tag: u64, seq: u64, epoch: u8) -> u64 {
    assert!(
        base_tag < (1 << BASE_TAG_BITS),
        "base tag {base_tag:#x} exceeds the reliable layer's {BASE_TAG_BITS}-bit tag space"
    );
    assert!(
        seq < (1 << SEQ_BITS),
        "sequence number {seq} exceeds the reliable layer's {SEQ_BITS}-bit space"
    );
    base_tag | (seq << BASE_TAG_BITS) | ((epoch as u64) << (BASE_TAG_BITS + SEQ_BITS))
}

/// Encodes the acknowledgement tag paired with [`wire_data_tag`].
pub fn wire_ack_tag(base_tag: u64, seq: u64, epoch: u8) -> u64 {
    wire_data_tag(base_tag, seq, epoch) | ACK_BIT
}

/// Tuning for [`ReliableComm`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReliableConfig {
    /// How many times a failing blocking operation (receive or barrier) is
    /// retried — each retry retransmits every unacknowledged send — before
    /// the layer escalates with [`CommError::RecoveryExhausted`].
    pub max_recoveries: usize,
    /// Restart-attempt number mixed into every wire tag, so traffic from
    /// different checkpoint-restart attempts never aliases and seeded fault
    /// policies draw fresh decisions per attempt.
    pub epoch: u8,
}

impl Default for ReliableConfig {
    fn default() -> Self {
        Self {
            max_recoveries: 8,
            epoch: 0,
        }
    }
}

/// Counters describing what the reliable layer had to do for one rank.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReliableStats {
    /// Messages retransmitted because a blocking operation failed while they
    /// were still unacknowledged.
    pub retransmits: u64,
    /// Blocking operations that failed once and were retried.
    pub recoveries: u64,
    /// Acknowledgements sent (one per delivered message, plus re-acks).
    pub acks_sent: u64,
    /// Duplicate retransmissions consumed and re-acknowledged.
    pub duplicates_reacked: u64,
}

impl ReliableStats {
    /// Element-wise sum, for aggregating per-rank stats into a run total.
    pub fn merge(&self, other: &ReliableStats) -> ReliableStats {
        ReliableStats {
            retransmits: self.retransmits + other.retransmits,
            recoveries: self.recoveries + other.recoveries,
            acks_sent: self.acks_sent + other.acks_sent,
            duplicates_reacked: self.duplicates_reacked + other.duplicates_reacked,
        }
    }
}

/// One send awaiting acknowledgement.
struct OutboxEntry<M> {
    to: usize,
    base_tag: u64,
    seq: u64,
    payload: M,
}

/// The reliable-delivery decorator: wraps a rank's communicator for the
/// duration of one rank body.
///
/// See the [module docs](self) for the protocol. The wrapped communicator is
/// borrowed mutably, so the decorator adds no constraint on how the backend
/// constructs its comms.
pub struct ReliableComm<'c, C, M> {
    inner: &'c mut C,
    config: ReliableConfig,
    /// Next sequence number per outgoing `(to, base_tag)` stream.
    send_seq: HashMap<(usize, u64), u64>,
    /// Next expected sequence number per incoming `(from, base_tag)` stream.
    recv_seq: HashMap<(usize, u64), u64>,
    /// Sends not yet acknowledged, in send order.
    outbox: Vec<OutboxEntry<M>>,
    stats: ReliableStats,
}

impl<'c, C, M> ReliableComm<'c, C, M>
where
    C: RankComm<M>,
    M: Payload + Default,
{
    /// Wraps `inner` with default tuning.
    pub fn new(inner: &'c mut C) -> Self {
        Self::with_config(inner, ReliableConfig::default())
    }

    /// Wraps `inner` with explicit tuning.
    pub fn with_config(inner: &'c mut C, config: ReliableConfig) -> Self {
        Self {
            inner,
            config,
            send_seq: HashMap::new(),
            recv_seq: HashMap::new(),
            outbox: Vec::new(),
            stats: ReliableStats::default(),
        }
    }

    /// What the layer had to do so far for this rank.
    pub fn stats(&self) -> ReliableStats {
        self.stats
    }

    /// The configured tuning.
    pub fn config(&self) -> ReliableConfig {
        self.config
    }

    /// Sends a **control frame** (heartbeat / membership signalling)
    /// straight through the underlying communicator: no sequence number, no
    /// outbox entry, no acknowledgement, no retransmission. Control frames
    /// must never perturb the data streams' sequence accounting — losing a
    /// heartbeat is information, not an error.
    ///
    /// # Panics
    /// Panics unless `tag` carries the control bit
    /// ([`crate::membership::frames::CONTROL_BIT`]), which keeps control
    /// frames disjoint from every data and ack tag by construction.
    pub fn isend_control(&mut self, to: usize, tag: u64, payload: M) {
        assert!(
            crate::membership::frames::is_control(tag),
            "control frames must carry the control bit (tag {tag:#x})"
        );
        self.inner.isend(to, tag, payload);
    }

    /// Non-blocking receive of a control frame, bypassing the sequence
    /// cursors (see [`ReliableComm::isend_control`]).
    ///
    /// # Panics
    /// Panics unless `tag` carries the control bit.
    pub fn try_recv_control(&mut self, from: usize, tag: u64) -> Option<M> {
        assert!(
            crate::membership::frames::is_control(tag),
            "control frames must carry the control bit (tag {tag:#x})"
        );
        self.inner.try_recv(from, tag)
    }

    /// Records a semantic event (retransmit, ack) on the wrapped
    /// communicator's telemetry stream, which also carries its
    /// transport-level sends and receives.
    fn note(inner: &mut C, event: TelemetryEvent) {
        let at = inner.clock_mut().comm_ns();
        if let Some(sink) = &inner.instruments().telemetry {
            sink.record_at_comm_ns(at, event);
        }
    }

    /// Acknowledges delivery of frame `seq` of the `(from, base_tag)` stream.
    fn ack(&mut self, from: usize, base_tag: u64, seq: u64) {
        let tag = wire_ack_tag(base_tag, seq, self.config.epoch);
        self.inner.isend(from, tag, M::default());
        self.stats.acks_sent += 1;
        Self::note(
            self.inner,
            TelemetryEvent::CommAck {
                peer: from as u64,
                tag: base_tag,
            },
        );
    }

    /// Consumes any acknowledgements that have arrived and prunes the
    /// outbox. Acks are cumulative per stream: seeing the ack for seq `s`
    /// implies every earlier seq of that stream was delivered (the receiver
    /// advances its cursor in order).
    fn drain_acks(&mut self) {
        let epoch = self.config.epoch;
        let mut acked: Vec<(usize, u64, u64)> = Vec::new();
        for entry in &self.outbox {
            if self
                .inner
                .try_recv(entry.to, wire_ack_tag(entry.base_tag, entry.seq, epoch))
                .is_some()
            {
                acked.push((entry.to, entry.base_tag, entry.seq));
            }
        }
        if acked.is_empty() {
            return;
        }
        self.outbox.retain(|entry| {
            !acked
                .iter()
                .any(|&(to, tag, seq)| entry.to == to && entry.base_tag == tag && entry.seq <= seq)
        });
    }

    /// Re-sends every send still awaiting an acknowledgement.
    fn retransmit_outstanding(&mut self) {
        let epoch = self.config.epoch;
        for entry in &self.outbox {
            let bytes = entry.payload.payload_bytes();
            self.inner.isend(
                entry.to,
                wire_data_tag(entry.base_tag, entry.seq, epoch),
                entry.payload.clone(),
            );
            self.stats.retransmits += 1;
            Self::note(
                self.inner,
                TelemetryEvent::CommRetransmit {
                    to: entry.to as u64,
                    tag: entry.base_tag,
                    bytes: bytes as u64,
                },
            );
        }
    }

    /// Consumes duplicate retransmissions of messages this rank already
    /// received (their ack was lost) and re-acknowledges them, so the peer's
    /// outbox can drain instead of retransmitting forever. Scans every
    /// delivered seq of every known stream — this is the cold (failure)
    /// path, and stream lengths are bounded by the run's round count, so
    /// completeness beats a sliding window that could strand old entries.
    fn reack_duplicates(&mut self) {
        let epoch = self.config.epoch;
        let mut streams: Vec<((usize, u64), u64)> = self
            .recv_seq
            .iter()
            .map(|(&key, &expected)| (key, expected))
            .collect();
        // HashMap iteration order varies run to run; the re-ack sends charge
        // wire time and emit telemetry, so fix the order for determinism.
        streams.sort_unstable_by_key(|&(key, _)| key);
        for ((from, base_tag), expected) in streams {
            for seq in 0..expected {
                while self
                    .inner
                    .try_recv(from, wire_data_tag(base_tag, seq, epoch))
                    .is_some()
                {
                    self.stats.duplicates_reacked += 1;
                    self.ack(from, base_tag, seq);
                }
            }
        }
    }

    /// One recovery round: learn what was delivered, re-send what was not,
    /// and service peers' retransmissions.
    fn recover(&mut self) {
        self.stats.recoveries += 1;
        self.drain_acks();
        self.retransmit_outstanding();
        self.reack_duplicates();
    }

    fn escalate(&self, last: CommError) -> CommError {
        CommError::RecoveryExhausted {
            rank: self.inner.rank(),
            recoveries: self.config.max_recoveries,
            last: Box::new(last),
        }
    }
}

impl<C, M> RankComm<M> for ReliableComm<'_, C, M>
where
    C: RankComm<M>,
    M: Payload + Default,
{
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn isend(&mut self, to: usize, tag: u64, payload: M) {
        let seq_slot = self.send_seq.entry((to, tag)).or_insert(0);
        let seq = *seq_slot;
        *seq_slot += 1;
        self.outbox.push(OutboxEntry {
            to,
            base_tag: tag,
            seq,
            payload: payload.clone(),
        });
        self.inner
            .isend(to, wire_data_tag(tag, seq, self.config.epoch), payload);
    }

    fn recv(&mut self, from: usize, tag: u64) -> Result<M, CommError> {
        let epoch = self.config.epoch;
        let expected = *self.recv_seq.entry((from, tag)).or_insert(0);
        let wire = wire_data_tag(tag, expected, epoch);
        let mut attempts = 0;
        loop {
            match self.inner.recv(from, wire) {
                Ok(payload) => {
                    *self.recv_seq.get_mut(&(from, tag)).expect("cursor exists") += 1;
                    self.ack(from, tag, expected);
                    return Ok(payload);
                }
                Err(error) => {
                    // A dead node cannot be healed by retransmission: the
                    // error is final, surface it without burning recovery
                    // rounds so the membership layer can substitute a spare.
                    if matches!(error, CommError::RankDead { .. }) {
                        return Err(error);
                    }
                    if attempts >= self.config.max_recoveries {
                        return Err(self.escalate(error));
                    }
                    attempts += 1;
                    self.recover();
                }
            }
        }
    }

    fn try_recv(&mut self, from: usize, tag: u64) -> Option<M> {
        let epoch = self.config.epoch;
        let expected = *self.recv_seq.entry((from, tag)).or_insert(0);
        let payload = self
            .inner
            .try_recv(from, wire_data_tag(tag, expected, epoch))?;
        *self.recv_seq.get_mut(&(from, tag)).expect("cursor exists") += 1;
        self.ack(from, tag, expected);
        Some(payload)
    }

    fn barrier(&mut self) -> Result<(), CommError> {
        let mut attempts = 0;
        loop {
            match self.inner.barrier() {
                Ok(()) => {
                    // A completed barrier means every pre-barrier send was
                    // received and acknowledged (receives happen before the
                    // barrier in the engine's traffic pattern), so the acks
                    // are sitting in the mailbox: drain them now to keep the
                    // outbox — which clones every payload — from retaining
                    // the whole run's traffic on the fault-free path.
                    self.drain_acks();
                    return Ok(());
                }
                Err(error) => {
                    if matches!(error, CommError::RankDead { .. }) {
                        return Err(error);
                    }
                    if attempts >= self.config.max_recoveries {
                        return Err(self.escalate(error));
                    }
                    attempts += 1;
                    self.recover();
                }
            }
        }
    }

    fn clock_mut(&mut self) -> &mut RankClock {
        self.inner.clock_mut()
    }

    fn memory_mut(&mut self) -> &mut MemoryTracker {
        self.inner.memory_mut()
    }

    fn instruments(&mut self) -> &mut Instruments {
        self.inner.instruments()
    }
}

#[cfg(test)]
mod tests {
    use super::super::{
        CommBackend, FaultInjectionBackend, FaultPolicy, LockstepBackend, ThreadedBackend,
    };
    use super::*;
    use std::time::Duration;

    /// A two-rank ping-pong over `rounds` logical messages per direction.
    ///
    /// Ends with a barrier: a rank must not finish while a peer may still
    /// need one of its unacknowledged sends retransmitted (a finished rank
    /// can no longer recover). The iteration engine in `ptycho-core` ends
    /// every iteration with the same quiesce barrier.
    fn ping_pong<B: CommBackend>(
        backend: &B,
        rounds: usize,
    ) -> Result<Vec<f64>, super::super::RankFailure> {
        let outcomes = backend.run::<Vec<f64>, f64, _>(2, |ctx| {
            let mut rc = ReliableComm::new(ctx);
            let me = rc.rank();
            let peer = 1 - me;
            let mut total = 0.0;
            for round in 0..rounds {
                rc.isend(peer, 0x7, vec![(me * 100 + round) as f64]);
                total += rc.recv(peer, 0x7)?[0];
            }
            rc.barrier()?;
            Ok(total)
        })?;
        Ok(outcomes.into_iter().map(|o| o.result).collect())
    }

    fn expected_totals(rounds: usize) -> Vec<f64> {
        let sum = |base: usize| (0..rounds).map(|r| (base + r) as f64).sum::<f64>();
        vec![sum(100), sum(0)]
    }

    #[test]
    fn tags_round_trip_and_never_alias() {
        let data = wire_data_tag(0x13, 5, 2);
        let ack = wire_ack_tag(0x13, 5, 2);
        assert_ne!(data, ack);
        assert_ne!(data, wire_data_tag(0x13, 6, 2));
        assert_ne!(data, wire_data_tag(0x13, 5, 3));
        assert_ne!(data, wire_data_tag(0x12, 5, 2));
    }

    #[test]
    #[should_panic(expected = "tag space")]
    fn oversized_base_tag_is_rejected() {
        wire_data_tag(1 << BASE_TAG_BITS, 0, 0);
    }

    #[test]
    fn fault_free_ping_pong_is_exact_on_both_backends() {
        let rounds = 4;
        assert_eq!(
            ping_pong(&LockstepBackend::default(), rounds).unwrap(),
            expected_totals(rounds)
        );
        assert_eq!(
            ping_pong(&ThreadedBackend::default(), rounds).unwrap(),
            expected_totals(rounds)
        );
    }

    #[test]
    fn successful_barrier_drains_the_outbox() {
        // The outbox holds a payload clone per unacknowledged send; on the
        // fault-free path the barrier must prune it (the acks are already in
        // the mailbox by then), or a long run would retain every payload it
        // ever sent.
        let backend = LockstepBackend::default();
        let outcomes = backend
            .run::<Vec<f64>, (usize, usize), _>(2, |ctx| {
                let mut rc = ReliableComm::new(ctx);
                let peer = 1 - rc.rank();
                rc.isend(peer, 0x7, vec![1.0; 64]);
                rc.recv(peer, 0x7)?;
                let before = rc.outbox.len();
                rc.barrier()?;
                Ok((before, rc.outbox.len()))
            })
            .unwrap();
        for o in &outcomes {
            let (before, after) = o.result;
            assert_eq!(before, 1, "the send is unacknowledged before the barrier");
            assert_eq!(after, 0, "the barrier must drain the acknowledged send");
        }
    }

    #[test]
    fn dropped_message_is_healed_by_retransmission_on_lockstep() {
        // Drop the first wire frame of rank 0's stream: without the reliable
        // layer this deadlocks (see the fault tests); with it the deadlock
        // wakes both ranks, rank 0 retransmits, and the run completes.
        let policy = FaultPolicy::reliable(0).drop_message(0, 1, wire_data_tag(0x7, 0, 0), 0);
        let backend = FaultInjectionBackend::new(LockstepBackend::default(), policy);
        let rounds = 3;
        assert_eq!(
            ping_pong(&backend, rounds).unwrap(),
            expected_totals(rounds)
        );
        assert_eq!(backend.trace().fault_count(), 1);
    }

    #[test]
    fn dropped_message_is_healed_by_retransmission_on_threaded() {
        let policy = FaultPolicy::reliable(0).drop_message(0, 1, wire_data_tag(0x7, 0, 0), 0);
        let threaded = ThreadedBackend::default().with_recv_timeout(Duration::from_millis(100));
        let backend = FaultInjectionBackend::new(threaded, policy);
        let rounds = 3;
        assert_eq!(
            ping_pong(&backend, rounds).unwrap(),
            expected_totals(rounds)
        );
    }

    #[test]
    fn random_drops_are_healed_on_lockstep() {
        // A 20% drop rate across a longer exchange: every drop (data or ack)
        // must be recovered and the totals must come out exact.
        let policy = FaultPolicy::reliable(42).drop(0.2);
        let backend = FaultInjectionBackend::new(LockstepBackend::default(), policy);
        let rounds = 8;
        assert_eq!(
            ping_pong(&backend, rounds).unwrap(),
            expected_totals(rounds)
        );
        assert!(
            backend.trace().fault_count() > 0,
            "the seeded policy must actually drop something"
        );
    }

    #[test]
    fn persistent_drop_escalates_with_recovery_exhausted() {
        // Every frame of the (0 -> 1, tag 0x7) data stream is dropped,
        // including retransmissions: the receiver must escalate after the
        // configured number of recoveries instead of retrying forever.
        let policy = FaultPolicy::reliable(7)
            .drop(1.0)
            .on_tag(wire_data_tag(0x7, 0, 0));
        let backend = FaultInjectionBackend::new(LockstepBackend::default(), policy);
        let failure = backend
            .run::<Vec<f64>, (), _>(2, |ctx| {
                let mut rc = ReliableComm::with_config(
                    ctx,
                    ReliableConfig {
                        max_recoveries: 2,
                        epoch: 0,
                    },
                );
                if rc.rank() == 0 {
                    rc.isend(1, 0x7, vec![1.0]);
                    Ok(())
                } else {
                    rc.recv(0, 0x7).map(|_| ())
                }
            })
            .unwrap_err();
        assert_eq!(failure.rank, 1);
        match failure.error {
            CommError::RecoveryExhausted {
                rank, recoveries, ..
            } => {
                assert_eq!(rank, 1);
                assert_eq!(recoveries, 2);
            }
            other => panic!("expected RecoveryExhausted, got {other:?}"),
        }
    }

    #[test]
    fn epochs_separate_restart_attempts() {
        // The same logical message gets a different wire tag per epoch, so a
        // policy pinned to the epoch-0 frame does not touch the epoch-1 run.
        let policy = FaultPolicy::reliable(0)
            .drop(1.0)
            .on_tag(wire_data_tag(0x7, 0, 0));
        let backend = FaultInjectionBackend::new(LockstepBackend::default(), policy);
        let outcomes = backend
            .run::<Vec<f64>, f64, _>(2, |ctx| {
                let mut rc = ReliableComm::with_config(
                    ctx,
                    ReliableConfig {
                        max_recoveries: 2,
                        epoch: 1,
                    },
                );
                if rc.rank() == 0 {
                    rc.isend(1, 0x7, vec![9.5]);
                    Ok(0.0)
                } else {
                    Ok(rc.recv(0, 0x7)?[0])
                }
            })
            .unwrap();
        assert_eq!(outcomes[1].result, 9.5);
    }

    #[test]
    fn stats_count_recovery_work() {
        let policy = FaultPolicy::reliable(0).drop_message(0, 1, wire_data_tag(0x7, 0, 0), 0);
        let backend = FaultInjectionBackend::new(LockstepBackend::default(), policy);
        let outcomes = backend
            .run::<Vec<f64>, ReliableStats, _>(2, |ctx| {
                let mut rc = ReliableComm::new(ctx);
                let peer = 1 - rc.rank();
                rc.isend(peer, 0x7, vec![1.0]);
                rc.recv(peer, 0x7)?;
                // Quiesce before finishing so the dropped frame's sender is
                // still alive to retransmit it (see `ping_pong`).
                rc.barrier()?;
                Ok(rc.stats())
            })
            .unwrap();
        let total = outcomes
            .iter()
            .fold(ReliableStats::default(), |acc, o| acc.merge(&o.result));
        assert!(total.retransmits >= 1, "the dropped frame must be re-sent");
        assert!(total.recoveries >= 1);
        assert_eq!(
            total.acks_sent as usize,
            outcomes.len() + total.duplicates_reacked as usize
        );
    }
}
