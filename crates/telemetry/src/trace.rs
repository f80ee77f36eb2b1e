//! Post-hoc trace ingestion: reassembling per-rank stream digests from a
//! JSONL log (the causal analyses over the records live in
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
    /// Highest simulated time stamped in the stream, in nanoseconds.
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
    /// Ingests a JSONL trace. A parse failure on any line but the last is an
    /// error; a failure on the last line is counted as a truncated tail (the
    /// expected shape of a log cut off by a process kill).
    pub fn from_lines<'a>(lines: impl Iterator<Item = &'a str>) -> Result<Self, ParseError> {
        let mut summary = TraceSummary::default();
        let mut pending_error: Option<ParseError> = None;
        for line in lines {
            if line.trim().is_empty() {
                continue;
            }
            // An earlier line failed to parse and was not the last: real error.
            if let Some(error) = pending_error.take() {
                return Err(error);
            }
            match json::parse_record(line) {
                Ok(record) => summary.ingest(record),
                Err(error) => pending_error = Some(error),
            }
        }
        if pending_error.is_some() {
            summary.truncated_lines = 1;
        }
        Ok(summary)
    }

    fn ingest(&mut self, record: TelemetryRecord) {
        let stream = self.streams.entry((record.job, record.rank)).or_default();
        stream.events += 1;
        *stream.kinds.entry(record.event.kind()).or_insert(0) += 1;
        stream.last_sim_ns = stream.last_sim_ns.max(record.sim_ns);
        if let TelemetryEvent::IterationEnd { cost, .. } = record.event {
            stream.iterations += 1;
            stream.last_cost = cost;
        }
        self.records.push(record);
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
}
