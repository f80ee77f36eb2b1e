//! Causal trace analysis: span graphs, critical-path attribution, straggler
//! detection, anomaly scanning, and trace diffing.
//!
//! Everything in this module is a pure function of the parsed
//! [`TelemetryRecord`] list, and every collection is built in canonical
//! `(rank, seq)` order — so two identical seeded runs produce span graphs
//! whose `Debug` renderings are byte-identical, on either backend.
//!
//! # Span pairing
//!
//! Message spans pair `comm_send` records with the `comm_recv` records they
//! caused. The pairing key is `(tag, corr)`: the wire tag (which, under the
//! reliable layer, already encodes the stream's epoch and sequence number)
//! plus the correlation id the sending backend stamped into the envelope.
//! The correlation id carries the sender's slot in its high 32 bits and a
//! per-sender transport-send counter in the low 32, so a key identifies one
//! logical transport send globally. Fault-injected duplicates deliver the
//! same envelope twice: both receives carry the same key and both pair to
//! the one send (FIFO ordinal matching, clamped to the last send of the
//! key).
//!
//! # Attribution
//!
//! [`critical_path`] attributes each rank's end-to-end simulated time by
//! classifying every inter-record `sim_ns` delta by the kind of the record
//! that *closes* it: an `iteration_end` delta is split into its modeled
//! compute jump (the cumulative `compute_ns` difference) plus an analytic
//! communication remainder; `comm_retransmit` deltas are recovery overhead;
//! membership/restore events (`spare_promoted`, `checkpoint_restored`,
//! `rank_dead`) are healing; every other delta is communication. The
//! residual between a rank's last stamp and the job's end-to-end time (the
//! maximum over ranks) is barrier wait. Segments are integer nanoseconds
//! carved from the same clock, so they sum *exactly* to the end-to-end time
//! on every rank — an invariant the strict CLI mode re-verifies on every
//! trace.

use crate::event::{TelemetryEvent, TelemetryRecord};
use std::collections::BTreeMap;

/// One paired (or half-open) message span: a transport send and the
/// receive(s) it caused.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MessageSpan {
    /// Sending rank (stream id of the `comm_send` record).
    pub from: u64,
    /// Destination slot named by the send.
    pub to: u64,
    /// Wire tag.
    pub tag: u64,
    /// Correlation id (sender slot << 32 | per-sender counter).
    pub corr: u64,
    /// Payload bytes.
    pub bytes: u64,
    /// Sequence number of the send record on its stream.
    pub send_seq: u64,
    /// Simulated time of the send.
    pub send_sim_ns: u64,
    /// Stream and sequence number of the first paired receive, if any.
    pub recv: Option<(u64, u64)>,
    /// Simulated time of the first paired receive.
    pub recv_sim_ns: Option<u64>,
    /// How many receives paired to this send (>1 under duplicate faults).
    pub deliveries: u64,
}

/// One iteration span on one rank: `iteration_begin` paired with the
/// matching `iteration_end`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IterationSpan {
    /// The rank (stream id).
    pub rank: u64,
    /// Zero-based iteration index.
    pub iteration: u64,
    /// Recovery attempt the iteration ran under.
    pub attempt: u64,
    /// Simulated time at `iteration_begin`.
    pub begin_sim_ns: u64,
    /// Simulated time at `iteration_end` (`u64::MAX` sentinel never occurs;
    /// unmatched begins produce no span).
    pub end_sim_ns: u64,
    /// The rank's contribution to the iteration cost.
    pub cost: f64,
    /// Cumulative modeled compute nanoseconds at the end of the iteration.
    pub compute_ns: u64,
    /// Cumulative analytic communication nanoseconds at the end.
    pub comm_ns: u64,
}

/// A happens-before edge between two records, named `(rank, seq) →
/// (rank, seq)`: the send happens before the receive it caused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CausalEdge {
    /// The earlier record.
    pub from: (u64, u64),
    /// The later record.
    pub to: (u64, u64),
}

/// One consistency barrier: every `barrier_wait` record of one iteration.
/// Everything before any participant's barrier entry happens before
/// everything after every participant's barrier exit, which orders the
/// groups totally by iteration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BarrierGroup {
    /// The iteration whose barrier this is.
    pub iteration: u64,
    /// `(rank, seq)` of each participant's `barrier_wait` record, in rank
    /// order.
    pub participants: Vec<(u64, u64)>,
}

/// The per-job causal graph: message spans, iteration spans, send→recv
/// happens-before edges, and barrier ordering.
///
/// Deterministic by construction: every collection is ordered by
/// `(rank, seq)` (or by iteration for barriers), so identical seeded runs
/// yield graphs whose `Debug` renderings are byte-identical.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SpanGraph {
    /// The job the graph describes.
    pub job: u64,
    /// Message spans in send `(rank, seq)` order.
    pub message_spans: Vec<MessageSpan>,
    /// Iteration spans in `(rank, seq-of-begin)` order.
    pub iteration_spans: Vec<IterationSpan>,
    /// Send→recv happens-before edges, one per paired receive (duplicates
    /// included), in receive `(rank, seq)` order.
    pub happens_before: Vec<CausalEdge>,
    /// Barrier groups in iteration order.
    pub barriers: Vec<BarrierGroup>,
    /// Receives whose `(tag, corr)` key matched no recorded send — nonzero
    /// only when the sender's ring evicted the send before it was flushed.
    pub unpaired_recvs: u64,
}

/// Builds the span graph for `job` from parsed records (any order; the
/// builder canonicalises to `(rank, seq)`).
pub fn span_graph(records: &[TelemetryRecord], job: u64) -> SpanGraph {
    let mut recs: Vec<&TelemetryRecord> = records.iter().filter(|r| r.job == job).collect();
    recs.sort_by_key(|r| (r.rank, r.seq));

    let mut graph = SpanGraph {
        job,
        ..SpanGraph::default()
    };
    // (tag, corr) → indices into message_spans, in send order.
    let mut send_index: BTreeMap<(u64, u64), Vec<usize>> = BTreeMap::new();
    for record in &recs {
        if let TelemetryEvent::CommSend {
            to,
            tag,
            bytes,
            corr,
        } = record.event
        {
            send_index
                .entry((tag, corr))
                .or_default()
                .push(graph.message_spans.len());
            graph.message_spans.push(MessageSpan {
                from: record.rank,
                to,
                tag,
                corr,
                bytes,
                send_seq: record.seq,
                send_sim_ns: record.sim_ns,
                recv: None,
                recv_sim_ns: None,
                deliveries: 0,
            });
        }
    }
    // Pair receives FIFO within each key; duplicates clamp to the last send.
    let mut recv_ordinal: BTreeMap<(u64, u64), usize> = BTreeMap::new();
    for record in &recs {
        if let TelemetryEvent::CommRecv { tag, corr, .. } = record.event {
            let Some(sends) = send_index.get(&(tag, corr)) else {
                graph.unpaired_recvs += 1;
                continue;
            };
            let ordinal = recv_ordinal.entry((tag, corr)).or_insert(0);
            let span_idx = sends[(*ordinal).min(sends.len() - 1)];
            *ordinal += 1;
            let span = &mut graph.message_spans[span_idx];
            span.deliveries += 1;
            if span.recv.is_none() {
                span.recv = Some((record.rank, record.seq));
                span.recv_sim_ns = Some(record.sim_ns);
            }
            graph.happens_before.push(CausalEdge {
                from: (span.from, span.send_seq),
                to: (record.rank, record.seq),
            });
        }
    }
    // Iteration spans: a begin is closed by the next matching end on the
    // same stream.
    let mut open: BTreeMap<(u64, u64, u64), (u64, usize)> = BTreeMap::new();
    for record in &recs {
        match record.event {
            TelemetryEvent::IterationBegin { iteration, attempt } => {
                open.insert(
                    (record.rank, iteration, attempt),
                    (record.sim_ns, graph.iteration_spans.len()),
                );
                graph.iteration_spans.push(IterationSpan {
                    rank: record.rank,
                    iteration,
                    attempt,
                    begin_sim_ns: record.sim_ns,
                    end_sim_ns: record.sim_ns,
                    cost: f64::NAN,
                    compute_ns: 0,
                    comm_ns: 0,
                });
            }
            TelemetryEvent::IterationEnd {
                iteration,
                attempt,
                cost,
                compute_ns,
                comm_ns,
            } => {
                if let Some((_, idx)) = open.remove(&(record.rank, iteration, attempt)) {
                    let span = &mut graph.iteration_spans[idx];
                    span.end_sim_ns = record.sim_ns;
                    span.cost = cost;
                    span.compute_ns = compute_ns;
                    span.comm_ns = comm_ns;
                }
            }
            _ => {}
        }
    }
    // Drop begins that never closed (a killed rank's partial iteration).
    graph.iteration_spans.retain(|s| !s.cost.is_nan());
    // Barrier groups by iteration.
    let mut barriers: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for record in &recs {
        if let TelemetryEvent::BarrierWait { iteration } = record.event {
            barriers
                .entry(iteration)
                .or_default()
                .push((record.rank, record.seq));
        }
    }
    graph.barriers = barriers
        .into_iter()
        .map(|(iteration, participants)| BarrierGroup {
            iteration,
            participants,
        })
        .collect();
    graph
}

/// Where one rank's end-to-end simulated time went.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RankAttribution {
    /// The rank (stream id).
    pub rank: u64,
    /// Modeled compute nanoseconds.
    pub compute_ns: u64,
    /// Analytic communication nanoseconds (sends, acks, halo traffic).
    pub comm_ns: u64,
    /// Time closed by retransmit records: recovery overhead.
    pub retransmit_ns: u64,
    /// Time closed by membership/restore records: healing overhead.
    pub heal_ns: u64,
    /// Residual idle time waiting for the job's busiest rank.
    pub barrier_wait_ns: u64,
}

impl RankAttribution {
    /// The segments' sum — always exactly the job's end-to-end time.
    pub fn total_ns(&self) -> u64 {
        self.compute_ns + self.comm_ns + self.retransmit_ns + self.heal_ns + self.barrier_wait_ns
    }
}

/// The critical-path attribution for one job.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CriticalPath {
    /// The job attributed.
    pub job: u64,
    /// End-to-end simulated time: the maximum final stamp over every rank.
    pub end_to_end_ns: u64,
    /// The rank whose stream reaches `end_to_end_ns` (lowest rank on ties)
    /// — the rank every barrier wait in the job is waiting for.
    pub critical_rank: u64,
    /// Per-rank attribution, in rank order. Each row's segments sum exactly
    /// to `end_to_end_ns`.
    pub ranks: Vec<RankAttribution>,
}

/// Attributes `job`'s end-to-end simulated time per rank (see the module
/// docs for the delta-classification algorithm).
pub fn critical_path(records: &[TelemetryRecord], job: u64) -> CriticalPath {
    let mut recs: Vec<&TelemetryRecord> = records.iter().filter(|r| r.job == job).collect();
    recs.sort_by_key(|r| (r.rank, r.seq));

    let mut rows: Vec<RankAttribution> = Vec::new();
    let mut ends: Vec<u64> = Vec::new();
    let mut i = 0;
    while i < recs.len() {
        let rank = recs[i].rank;
        let mut row = RankAttribution {
            rank,
            ..RankAttribution::default()
        };
        let mut prev_sim = 0u64;
        let mut prev_compute = 0u64;
        while i < recs.len() && recs[i].rank == rank {
            let record = recs[i];
            let delta = record.sim_ns.saturating_sub(prev_sim);
            match record.event {
                TelemetryEvent::IterationEnd { compute_ns, .. } => {
                    // The compute jump lands in one lump just before the
                    // end record; the remainder of the delta is the
                    // iteration's analytic communication.
                    let compute_delta = compute_ns.saturating_sub(prev_compute).min(delta);
                    prev_compute = prev_compute.max(compute_ns);
                    row.compute_ns += compute_delta;
                    row.comm_ns += delta - compute_delta;
                }
                TelemetryEvent::CommRetransmit { .. } => row.retransmit_ns += delta,
                TelemetryEvent::SparePromoted { .. }
                | TelemetryEvent::CheckpointRestored { .. }
                | TelemetryEvent::RankDead { .. } => row.heal_ns += delta,
                _ => row.comm_ns += delta,
            }
            prev_sim = prev_sim.max(record.sim_ns);
            i += 1;
        }
        ends.push(prev_sim);
        rows.push(row);
    }
    let end_to_end = ends.iter().copied().max().unwrap_or(0);
    let critical_rank = ends
        .iter()
        .position(|&e| e == end_to_end)
        .map(|idx| rows[idx].rank)
        .unwrap_or(0);
    for (row, end) in rows.iter_mut().zip(&ends) {
        row.barrier_wait_ns = end_to_end - end;
    }
    CriticalPath {
        job,
        end_to_end_ns: end_to_end,
        critical_rank,
        ranks: rows,
    }
}

/// One flagged rank in a [`StragglerReport`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Straggler {
    /// The flagged rank.
    pub rank: u64,
    /// The rank's barrier-wait share of end-to-end time, in `[0, 1]`.
    pub wait_share: f64,
    /// How many standard deviations the share sits above the job mean.
    pub z_score: f64,
}

/// Ranks whose barrier-wait share is anomalously high: they idle waiting
/// for a straggling peer, so a cluster of flagged ranks points at the
/// (unflagged) critical rank as the job's straggler.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StragglerReport {
    /// The job examined.
    pub job: u64,
    /// The z threshold the report was built with.
    pub z_threshold: f64,
    /// Mean barrier-wait share over the job's ranks.
    pub mean_wait_share: f64,
    /// Population standard deviation of the shares.
    pub std_wait_share: f64,
    /// Ranks whose share's z-score exceeds the threshold, in rank order.
    pub stragglers: Vec<Straggler>,
}

/// Z-scores of `values` against their own mean/population-std. All zeros
/// when the spread is zero (no value can be anomalous then). Shared by the
/// post-hoc report and the live health snapshot.
pub fn z_scores(values: &[f64]) -> Vec<f64> {
    let (mean, std) = mean_and_std(values);
    if std == 0.0 {
        return vec![0.0; values.len()];
    }
    values.iter().map(|v| (v - mean) / std).collect()
}

/// Mean and population standard deviation of `values` (both 0 when empty).
fn mean_and_std(values: &[f64]) -> (f64, f64) {
    let n = values.len().max(1) as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    (mean, var.sqrt())
}

/// Builds the straggler report from a critical-path attribution: flags
/// every rank whose barrier-wait share exceeds `z_threshold` standard
/// deviations above the job mean.
pub fn straggler_report(path: &CriticalPath, z_threshold: f64) -> StragglerReport {
    let total = path.end_to_end_ns.max(1) as f64;
    let shares: Vec<f64> = path
        .ranks
        .iter()
        .map(|r| r.barrier_wait_ns as f64 / total)
        .collect();
    let scores = z_scores(&shares);
    let (mean_wait_share, std_wait_share) = mean_and_std(&shares);
    StragglerReport {
        job: path.job,
        z_threshold,
        mean_wait_share,
        std_wait_share,
        stragglers: path
            .ranks
            .iter()
            .zip(shares.iter().zip(&scores))
            .filter(|&(_, (_, &z))| z > z_threshold)
            .map(|(rank, (&share, &z))| Straggler {
                rank: rank.rank,
                wait_share: share,
                z_score: z,
            })
            .collect(),
    }
}

/// Minimum retransmit count on one rank that [`anomaly_scan`] calls a burst.
const RETRANSMIT_BURST: u64 = 3;

/// What the anomaly scan found for one job.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AnomalyScan {
    /// The job scanned.
    pub job: u64,
    /// `(rank, retransmit_count)` for ranks at or above the burst
    /// threshold, in rank order.
    pub retransmit_bursts: Vec<(u64, u64)>,
}

/// Scans `job` for retransmit bursts.
/// (Records lost to ring overflow are counted by the trace reader, in
/// [`StreamSummary::lost`](crate::StreamSummary::lost).)
pub fn anomaly_scan(records: &[TelemetryRecord], job: u64) -> AnomalyScan {
    let mut retransmits: BTreeMap<u64, u64> = BTreeMap::new();
    for record in records.iter().filter(|r| r.job == job) {
        if let TelemetryEvent::CommRetransmit { .. } = record.event {
            *retransmits.entry(record.rank).or_insert(0) += 1;
        }
    }
    AnomalyScan {
        job,
        retransmit_bursts: retransmits
            .into_iter()
            .filter(|&(_, n)| n >= RETRANSMIT_BURST)
            .collect(),
    }
}

/// Where two runs' traces diverge, span by span.
///
/// Iteration spans are compared structurally — `(iteration, attempt, rank,
/// cost)` with the cost compared bit-exactly — deliberately excluding
/// simulated times and cumulative clocks, which legitimately differ between
/// a resumed run (whose clocks restart at the resume seam) and its
/// uninterrupted twin even though the numerics are bit-identical. Message
/// spans are compared as structural multisets. Two identical seeded runs
/// diff empty; a resumed run against its clean twin diverges exactly at the
/// resume seam, with the whole post-resume suffix matching.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceDiff {
    /// True when both span sets match completely.
    pub identical: bool,
    /// Iteration spans in run A / run B.
    pub iterations_a: usize,
    /// Iteration spans in run B.
    pub iterations_b: usize,
    /// Leading iteration spans (canonical order) identical in both runs.
    pub common_prefix: usize,
    /// Trailing iteration spans identical in both runs.
    pub common_suffix: usize,
    /// Human-readable description of the first diverging span, if any.
    pub first_divergence: Option<String>,
    /// Message spans present only in run A (structural multiset).
    pub messages_only_in_a: usize,
    /// Message spans present only in run B.
    pub messages_only_in_b: usize,
}

/// Structural identity of one iteration span (cost bit-exact, clocks
/// excluded — see [`TraceDiff`]).
fn iteration_key(span: &IterationSpan) -> (u64, u64, u64, u64) {
    (span.iteration, span.attempt, span.rank, span.cost.to_bits())
}

fn describe_key(key: &(u64, u64, u64, u64), side: &str) -> String {
    format!(
        "iteration {} attempt {} rank {} (cost bits {:#x}) present only in {side}",
        key.0, key.1, key.2, key.3
    )
}

/// Diffs `job_a` of run A against `job_b` of run B span-by-span.
pub fn diff_jobs(
    a: &[TelemetryRecord],
    job_a: u64,
    b: &[TelemetryRecord],
    job_b: u64,
) -> TraceDiff {
    let graph_a = span_graph(a, job_a);
    let graph_b = span_graph(b, job_b);

    let mut keys_a: Vec<(u64, u64, u64, u64)> =
        graph_a.iteration_spans.iter().map(iteration_key).collect();
    let mut keys_b: Vec<(u64, u64, u64, u64)> =
        graph_b.iteration_spans.iter().map(iteration_key).collect();
    keys_a.sort_unstable();
    keys_b.sort_unstable();

    let mut prefix = 0;
    while prefix < keys_a.len() && prefix < keys_b.len() && keys_a[prefix] == keys_b[prefix] {
        prefix += 1;
    }
    let mut suffix = 0;
    while suffix < keys_a.len() - prefix
        && suffix < keys_b.len() - prefix
        && keys_a[keys_a.len() - 1 - suffix] == keys_b[keys_b.len() - 1 - suffix]
    {
        suffix += 1;
    }
    let first_divergence = if keys_a.len() == keys_b.len() && prefix == keys_a.len() {
        None
    } else if prefix < keys_a.len() && prefix < keys_b.len() {
        Some(format!(
            "iteration span #{prefix}: A has iteration {} attempt {} rank {}, \
             B has iteration {} attempt {} rank {}",
            keys_a[prefix].0,
            keys_a[prefix].1,
            keys_a[prefix].2,
            keys_b[prefix].0,
            keys_b[prefix].1,
            keys_b[prefix].2,
        ))
    } else if prefix < keys_a.len() {
        Some(describe_key(&keys_a[prefix], "A"))
    } else {
        Some(describe_key(&keys_b[prefix], "B"))
    };

    // Message spans as a structural multiset.
    let message_key = |s: &MessageSpan| (s.from, s.to, s.tag, s.corr, s.bytes, s.recv.is_some());
    let mut counts: BTreeMap<(u64, u64, u64, u64, u64, bool), i64> = BTreeMap::new();
    for span in &graph_a.message_spans {
        *counts.entry(message_key(span)).or_insert(0) += 1;
    }
    for span in &graph_b.message_spans {
        *counts.entry(message_key(span)).or_insert(0) -= 1;
    }
    let messages_only_in_a: i64 = counts.values().filter(|&&n| n > 0).sum();
    let messages_only_in_b: i64 = -counts.values().filter(|&&n| n < 0).sum::<i64>();

    TraceDiff {
        identical: first_divergence.is_none() && messages_only_in_a == 0 && messages_only_in_b == 0,
        iterations_a: keys_a.len(),
        iterations_b: keys_b.len(),
        common_prefix: prefix,
        common_suffix: suffix,
        first_divergence,
        messages_only_in_a: messages_only_in_a as usize,
        messages_only_in_b: messages_only_in_b as usize,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(rank: u64, seq: u64, sim_ns: u64, event: TelemetryEvent) -> TelemetryRecord {
        TelemetryRecord {
            rank,
            seq,
            sim_ns,
            job: 0,
            event,
        }
    }

    fn send(rank: u64, seq: u64, sim_ns: u64, to: u64, tag: u64, corr: u64) -> TelemetryRecord {
        record(
            rank,
            seq,
            sim_ns,
            TelemetryEvent::CommSend {
                to,
                tag,
                bytes: 64,
                corr,
            },
        )
    }

    fn recv(rank: u64, seq: u64, sim_ns: u64, from: u64, tag: u64, corr: u64) -> TelemetryRecord {
        record(
            rank,
            seq,
            sim_ns,
            TelemetryEvent::CommRecv {
                from,
                tag,
                bytes: 64,
                corr,
            },
        )
    }

    fn iter_end(
        rank: u64,
        seq: u64,
        sim_ns: u64,
        iteration: u64,
        compute_ns: u64,
        comm_ns: u64,
    ) -> TelemetryRecord {
        record(
            rank,
            seq,
            sim_ns,
            TelemetryEvent::IterationEnd {
                iteration,
                attempt: 0,
                cost: 1.0,
                compute_ns,
                comm_ns,
            },
        )
    }

    #[test]
    fn sends_pair_with_receives_by_tag_and_corr() {
        let corr = 0u64; // rank 0's first send
        let records = vec![
            send(0, 0, 10, 1, 0x7, corr),
            recv(1, 0, 0, 0, 0x7, corr),
            // A second logical message on the same tag: distinct corr.
            send(0, 1, 20, 1, 0x7, 1),
            recv(1, 1, 0, 0, 0x7, 1),
        ];
        let graph = span_graph(&records, 0);
        assert_eq!(graph.message_spans.len(), 2);
        assert_eq!(graph.message_spans[0].recv, Some((1, 0)));
        assert_eq!(graph.message_spans[1].recv, Some((1, 1)));
        assert_eq!(graph.happens_before.len(), 2);
        assert_eq!(graph.unpaired_recvs, 0);
    }

    #[test]
    fn duplicate_deliveries_clamp_to_the_one_send() {
        let records = vec![
            send(0, 0, 10, 1, 0x7, 0),
            recv(1, 0, 0, 0, 0x7, 0),
            recv(1, 1, 0, 0, 0x7, 0), // fault-injected duplicate
        ];
        let graph = span_graph(&records, 0);
        assert_eq!(graph.message_spans.len(), 1);
        assert_eq!(graph.message_spans[0].deliveries, 2);
        assert_eq!(
            graph.message_spans[0].recv,
            Some((1, 0)),
            "the first delivery is the span's receive"
        );
        assert_eq!(graph.happens_before.len(), 2);
    }

    #[test]
    fn recv_without_a_send_is_counted_not_paired() {
        let records = vec![recv(1, 0, 0, 0, 0x7, 99)];
        let graph = span_graph(&records, 0);
        assert_eq!(graph.message_spans.len(), 0);
        assert_eq!(graph.unpaired_recvs, 1);
    }

    #[test]
    fn attribution_sums_exactly_to_end_to_end_time() {
        let records = vec![
            // Rank 0: send at 100 (comm), retransmit closing at 150,
            // iteration end at 400 with 200 compute.
            send(0, 0, 100, 1, 0x7, 0),
            record(
                0,
                1,
                150,
                TelemetryEvent::CommRetransmit {
                    to: 1,
                    tag: 0x7,
                    bytes: 64,
                },
            ),
            iter_end(0, 2, 400, 0, 200, 200),
            // Rank 1: spare promotion closing at 50, end at 90.
            record(1, 0, 50, TelemetryEvent::SparePromoted { slot: 1, node: 4 }),
            iter_end(1, 1, 90, 0, 30, 60),
        ];
        let path = critical_path(&records, 0);
        assert_eq!(path.end_to_end_ns, 400);
        assert_eq!(path.critical_rank, 0);
        for row in &path.ranks {
            assert_eq!(
                row.total_ns(),
                path.end_to_end_ns,
                "rank {} segments must sum exactly",
                row.rank
            );
        }
        let r0 = &path.ranks[0];
        assert_eq!(r0.comm_ns, 100 + 50);
        assert_eq!(r0.retransmit_ns, 50);
        assert_eq!(r0.compute_ns, 200);
        assert_eq!(r0.barrier_wait_ns, 0);
        let r1 = &path.ranks[1];
        assert_eq!(r1.heal_ns, 50);
        assert_eq!(r1.compute_ns, 30);
        assert_eq!(r1.comm_ns, 10);
        assert_eq!(r1.barrier_wait_ns, 310);
    }

    #[test]
    fn straggler_report_flags_high_wait_shares() {
        let path = CriticalPath {
            job: 0,
            end_to_end_ns: 1000,
            critical_rank: 0,
            ranks: vec![
                RankAttribution {
                    rank: 0,
                    compute_ns: 1000,
                    ..RankAttribution::default()
                },
                RankAttribution {
                    rank: 1,
                    compute_ns: 950,
                    barrier_wait_ns: 50,
                    ..RankAttribution::default()
                },
                RankAttribution {
                    rank: 2,
                    compute_ns: 950,
                    barrier_wait_ns: 50,
                    ..RankAttribution::default()
                },
                RankAttribution {
                    rank: 3,
                    compute_ns: 200,
                    barrier_wait_ns: 800,
                    ..RankAttribution::default()
                },
            ],
        };
        let report = straggler_report(&path, 1.0);
        assert_eq!(report.stragglers.len(), 1);
        assert_eq!(report.stragglers[0].rank, 3);
        assert!(report.stragglers[0].z_score > 1.0);

        // Uniform waits: no spread, nobody flagged.
        let uniform = CriticalPath {
            ranks: path
                .ranks
                .iter()
                .map(|r| RankAttribution {
                    barrier_wait_ns: 100,
                    ..*r
                })
                .collect(),
            ..path
        };
        assert!(straggler_report(&uniform, 1.0).stragglers.is_empty());
    }

    #[test]
    fn anomaly_scan_finds_bursts_clusters_and_gaps() {
        let mut records = Vec::new();
        for seq in 0..3 {
            records.push(record(
                0,
                seq,
                10 * (seq + 1),
                TelemetryEvent::CommRetransmit {
                    to: 1,
                    tag: 0x7,
                    bytes: 64,
                },
            ));
        }
        let scan = anomaly_scan(&records, 0);
        assert_eq!(scan.retransmit_bursts, vec![(0, 3)]);
        assert_eq!(anomaly_scan(&[], 0), AnomalyScan::default());
    }

    #[test]
    fn diff_is_empty_for_identical_records_and_localises_a_seam() {
        // `skip` leading iterations removed and seqs/clocks restarted: the
        // resumed-run shape.
        let run = |skip: u64| -> Vec<TelemetryRecord> {
            let mut records = Vec::new();
            for iteration in skip..4u64 {
                for rank in 0..2u64 {
                    let seq_base = (iteration - skip) * 2;
                    records.push(record(
                        rank,
                        seq_base,
                        100 * (iteration - skip + 1),
                        TelemetryEvent::IterationBegin {
                            iteration,
                            attempt: 0,
                        },
                    ));
                    records.push(iter_end(
                        rank,
                        seq_base + 1,
                        100 * (iteration - skip + 1) + 50,
                        iteration,
                        10,
                        10,
                    ));
                }
            }
            records
        };
        let clean = run(0);
        let same = run(0);
        let diff = diff_jobs(&clean, 0, &same, 0);
        assert!(diff.identical, "identical runs must diff empty: {diff:?}");
        assert_eq!(diff.common_prefix, 8);

        let resumed = run(2);
        let diff = diff_jobs(&clean, 0, &resumed, 0);
        assert!(!diff.identical);
        assert_eq!(diff.iterations_a, 8);
        assert_eq!(diff.iterations_b, 4);
        assert_eq!(
            diff.common_suffix, 4,
            "the whole post-seam suffix must match"
        );
        assert!(diff.first_divergence.is_some());
    }

    #[test]
    fn span_graph_debug_is_deterministic_for_shuffled_input() {
        let ordered = vec![
            send(0, 0, 10, 1, 0x7, 0),
            recv(1, 0, 0, 0, 0x7, 0),
            record(0, 1, 10, TelemetryEvent::BarrierWait { iteration: 0 }),
            record(1, 1, 0, TelemetryEvent::BarrierWait { iteration: 0 }),
        ];
        let mut shuffled = ordered.clone();
        shuffled.reverse();
        assert_eq!(
            format!("{:?}", span_graph(&ordered, 0)),
            format!("{:?}", span_graph(&shuffled, 0)),
            "graph construction must canonicalise record order"
        );
    }
}
