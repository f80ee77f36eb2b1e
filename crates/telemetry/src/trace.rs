//! Post-hoc trace ingestion: the one JSONL trace reader, which validates
//! per-rank stream order, counts lost records and reassembles per-rank
//! stream digests (the causal analyses over the records live in
//! [`analysis`](crate::analysis)).
//!
//! Used by the `trace_dump` binary and the test suite; lives here so the
//! logic is unit-testable without spawning a process.

use crate::event::{TelemetryEvent, TelemetryRecord};
use crate::json::{self, ParseError};
use std::collections::BTreeMap;

/// Per-`(job, rank)` stream digest.
#[derive(Clone, Debug, Default)]
pub struct StreamSummary {
    /// Events in the stream (that made it into the log).
    pub events: u64,
    /// Event counts by kind.
    pub kinds: BTreeMap<&'static str, u64>,
    /// Sequence numbers missing from the stream — records the flight
    /// recorder's ring evicted before they became durable: last `seq` + 1 −
    /// `events`. Zero for a healthy trace.
    pub lost: u64,
    /// Simulated time of the stream's last (and, order being checked,
    /// latest) event, in nanoseconds.
    pub last_sim_ns: u64,
    /// Iterations finished (count of `IterationEnd` events).
    pub iterations: u64,
    /// The rank's share of the final iteration cost.
    pub last_cost: f64,
}

/// A fully ingested trace file.
#[derive(Clone, Debug, Default)]
pub struct TraceSummary {
    /// Every parsed record, in file order.
    pub records: Vec<TelemetryRecord>,
    /// Per-`(job, rank)` digests.
    pub streams: BTreeMap<(u64, u64), StreamSummary>,
    /// Lines that failed to parse (only ever tolerated for the final,
    /// possibly truncated line).
    pub truncated_lines: u64,
}

impl TraceSummary {
    /// Reads a JSONL trace — the one reader of the format. Every non-blank
    /// line must parse, and each `(job, rank)` stream must have strictly
    /// increasing `seq` and non-decreasing `sim_ns`; a gap in `seq` is
    /// counted in [`StreamSummary::lost`], not rejected. A failure on the
    /// last non-blank line is counted as a truncated tail (the expected
    /// shape of a log cut off by a process kill); a failure on any earlier
    /// line is returned as [`ParseError::AtLine`].
    pub fn from_lines<'a>(lines: impl Iterator<Item = &'a str>) -> Result<Self, ParseError> {
        let mut summary = TraceSummary::default();
        let mut pending_error: Option<ParseError> = None;
        for (index, line) in lines.enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            // An earlier line failed and was not the last: real error.
            if let Some(error) = pending_error.take() {
                return Err(error);
            }
            if let Err(error) = json::parse_record(line).and_then(|record| summary.ingest(record)) {
                pending_error = Some(ParseError::AtLine {
                    line: index + 1,
                    error: Box::new(error),
                });
            }
        }
        summary.truncated_lines = u64::from(pending_error.is_some());
        Ok(summary)
    }

    fn ingest(&mut self, record: TelemetryRecord) -> Result<(), ParseError> {
        let stream = self.streams.entry((record.job, record.rank)).or_default();
        if stream.events > 0 {
            let disorder = |detail| {
                Err(ParseError::StreamOrder {
                    rank: record.rank,
                    detail,
                })
            };
            let last_seq = stream.events - 1 + stream.lost;
            if record.seq <= last_seq {
                return disorder(format!("seq {} after seq {last_seq}", record.seq));
            }
            if record.sim_ns < stream.last_sim_ns {
                let last_sim = stream.last_sim_ns;
                return disorder(format!("sim_ns {} after sim_ns {last_sim}", record.sim_ns));
            }
        }
        stream.events += 1;
        // `seq` >= `events` - 1 holds for every strictly increasing stream,
        // so this neither underflows nor, unlike `seq + 1`, overflows.
        stream.lost = record.seq - (stream.events - 1);
        *stream.kinds.entry(record.event.kind()).or_insert(0) += 1;
        stream.last_sim_ns = record.sim_ns;
        if let TelemetryEvent::IterationEnd { cost, .. } = record.event {
            stream.iterations += 1;
            stream.last_cost = cost;
        }
        self.records.push(record);
        Ok(())
    }

    /// Total records ingested.
    pub fn total_events(&self) -> usize {
        self.records.len()
    }

    /// Event count for `kind` across every stream.
    pub fn kind_count(&self, kind: &str) -> u64 {
        self.streams
            .values()
            .filter_map(|s| s.kinds.get(kind))
            .sum()
    }

    /// Job ids present in the trace, ascending.
    pub fn jobs(&self) -> Vec<u64> {
        let mut jobs: Vec<u64> = self.streams.keys().map(|(job, _)| *job).collect();
        jobs.dedup();
        jobs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::record_to_line;

    fn end(rank: u64, seq: u64, compute_ns: u64, comm_ns: u64) -> String {
        record_to_line(&TelemetryRecord {
            rank,
            seq,
            sim_ns: compute_ns + comm_ns,
            job: 0,
            event: TelemetryEvent::IterationEnd {
                iteration: 0,
                attempt: 0,
                cost: 1.0,
                compute_ns,
                comm_ns,
            },
        })
    }

    #[test]
    fn truncated_tail_is_tolerated_mid_file_garbage_is_not() {
        let good = end(0, 0, 1, 1);
        let truncated = format!("{good}{{\"rank\":0,\"seq\":1,\"sim");
        let summary = TraceSummary::from_lines(truncated.lines()).unwrap();
        assert_eq!(summary.total_events(), 1);
        assert_eq!(summary.truncated_lines, 1);

        let garbage_mid = format!("{{\"rank\":0,\"seq\":1,\"sim\n{good}");
        assert!(TraceSummary::from_lines(garbage_mid.lines()).is_err());
    }

    /// Reads `lines` as one trace.
    fn read(lines: &[&str]) -> Result<TraceSummary, ParseError> {
        TraceSummary::from_lines(lines.iter().copied())
    }

    #[test]
    fn validator_rejects_unknown_kinds_and_bad_order() {
        let good = "{\"rank\":0,\"seq\":0,\"sim_ns\":5,\"job\":0,\"kind\":\"barrier_wait\",\"iteration\":0}";
        let stale = "{\"rank\":0,\"seq\":0,\"sim_ns\":7,\"job\":0,\"kind\":\"barrier_wait\",\"iteration\":1}";
        let backwards_time =
            "{\"rank\":0,\"seq\":2,\"sim_ns\":1,\"job\":0,\"kind\":\"barrier_wait\",\"iteration\":2}";
        // Kinds the schema once had and retired are unknown kinds too.
        let unknown_kinds = [
            "mystery",
            "heartbeat_sent",
            "heartbeat_observed",
            "rank_suspected",
        ];
        let unknown = unknown_kinds.map(|kind| {
            format!(
                "{{\"rank\":0,\"seq\":1,\"sim_ns\":6,\"job\":0,\"kind\":\"{kind}\",\"iteration\":0}}"
            )
        });
        // Mid-trace, each bad line is an error naming its 1-based line
        // (blank lines count) and the kind.
        for (bad, kind) in unknown.iter().zip(unknown_kinds) {
            let error = read(&[good, "", bad, good]).unwrap_err();
            assert_eq!(
                error,
                ParseError::AtLine {
                    line: 3,
                    error: Box::new(ParseError::UnknownKind {
                        kind: kind.to_string()
                    }),
                },
                "{bad}"
            );
            assert_eq!(
                error.to_string(),
                format!("line 3: unknown event kind `{kind}`")
            );
        }
        for bad in [stale, backwards_time] {
            assert!(matches!(
                read(&[good, bad, good]),
                Err(ParseError::AtLine { line: 2, ref error })
                    if matches!(**error, ParseError::StreamOrder { rank: 0, .. })
            ));
        }
        // As the last line, any of them is a truncated tail.
        let unknown = unknown.iter().map(String::as_str);
        for bad in [stale, backwards_time].into_iter().chain(unknown) {
            let summary = read(&[good, bad, ""]).expect("a bad final line is tolerated");
            assert_eq!(summary.truncated_lines, 1);
            assert_eq!(summary.total_events(), 1);
        }
    }

    #[test]
    fn validator_counts_sequence_gaps_as_lost_records() {
        let line = |rank: u64, seq: u64, sim: u64| {
            format!(
                "{{\"rank\":{rank},\"seq\":{seq},\"sim_ns\":{sim},\"job\":0,\
                 \"kind\":\"barrier_wait\",\"iteration\":0}}"
            )
        };
        // Rank 0: seqs 0, 3, 4, 9: gaps of 2 (1-2) and 4 (5-8). Rank 1
        // starts at seq 5: its whole head was evicted. Rank 2 has seqs
        // {0, 5}: four records lost to the ring.
        let lines: Vec<String> = [
            (0, 0, 1),
            (0, 3, 2),
            (0, 4, 3),
            (0, 9, 4),
            (1, 5, 0),
            (2, 0, 1),
            (2, 5, 9),
        ]
        .map(|(rank, seq, sim)| line(rank, seq, sim))
        .into();
        let summary = TraceSummary::from_lines(lines.iter().map(String::as_str)).unwrap();
        assert_eq!(summary.truncated_lines, 0);
        let lost: Vec<_> = summary
            .streams
            .iter()
            .map(|(&key, s)| (key, s.lost))
            .collect();
        assert_eq!(lost, vec![((0, 0), 6), ((0, 1), 5), ((0, 2), 4)]);
        assert_eq!(summary.streams[&(0, 0)].events, 4);
    }
}
