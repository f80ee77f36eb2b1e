//! Property-based tests for the JSONL trace codec and its one reader,
//! [`TraceSummary::from_lines`]:
//!
//! * every record the writer can emit — full-range `u64` fields, any `f64`
//!   cost, every event kind — parses back to the same record and re-emits
//!   to the same bytes,
//! * every truncation of an emitted multi-line trace reads as its intact
//!   lines plus at most one truncated tail,
//! * no single-byte mutation of an emitted trace makes the reader panic.

use proptest::prelude::*;
use ptycho_telemetry::json::record_to_line;
use ptycho_telemetry::{TelemetryEvent, TelemetryRecord, TraceSummary};
use std::collections::BTreeSet;

/// Event kinds [`event`] builds, in declaration order.
const KINDS: usize = 15;

/// Event kind `kind` (`0..KINDS`) with its fields taken from `f`; an
/// `iteration_end` cost is `f64::from_bits(f[0])`, so NaN, infinities and
/// subnormals occur too.
fn event(kind: usize, [a, b, c, d]: [u64; 4]) -> TelemetryEvent {
    use TelemetryEvent::*;
    match kind {
        0 => CommSend {
            to: a,
            tag: b,
            bytes: c,
            corr: d,
        },
        1 => CommRecv {
            from: a,
            tag: b,
            bytes: c,
            corr: d,
        },
        2 => CommDrop {
            to: a,
            tag: b,
            bytes: c,
        },
        3 => BarrierWait { iteration: a },
        4 => IterationBegin {
            iteration: a,
            attempt: b,
        },
        5 => IterationEnd {
            iteration: b,
            attempt: c,
            cost: f64::from_bits(a),
            compute_ns: d,
            comm_ns: a ^ d,
        },
        6 => Checkpoint { iteration: a },
        7 => RankDead { node: a },
        8 => SparePromoted { slot: a, node: b },
        9 => JobSubmitted {
            job: a,
            priority: b as i64,
            slots: c,
        },
        10 => JobAdmitted {
            job: a,
            queue_depth: b,
        },
        11 => JobCancelled { job: a },
        12 => JobCompleted {
            job: a,
            iterations: b,
        },
        13 => CheckpointPersisted {
            iteration: a,
            seq: b,
            bytes: c,
        },
        14 => CheckpointRestored {
            iteration: a,
            seq: b,
        },
        _ => unreachable!("kind {kind} out of range"),
    }
}

/// Every `u64`, uniformly: almost all draws lie far above 2^53.
fn full_u64() -> std::ops::RangeInclusive<u64> {
    0..=u64::MAX
}

/// A valid trace of one record per draw, spread over three ranks with dense
/// per-rank sequence numbers and a non-decreasing simulated clock.
fn trace(draws: &[(usize, u64, u64)]) -> String {
    let mut text = String::new();
    for (i, &(kind, x, y)) in draws.iter().enumerate() {
        let i = i as u64;
        text.push_str(&record_to_line(&TelemetryRecord {
            rank: i % 3,
            seq: i / 3,
            sim_ns: 10 * i,
            job: 0,
            event: event(kind, [x, y, x ^ y, y.rotate_left(7)]),
        }));
    }
    text
}

#[test]
fn event_builds_every_kind() {
    let kinds: BTreeSet<&str> = (0..KINDS).map(|k| event(k, [0; 4]).kind()).collect();
    assert_eq!(kinds.len(), KINDS);
}

proptest! {
    #[test]
    fn full_range_records_round_trip_exactly(
        envelope in (full_u64(), full_u64(), full_u64(), full_u64()),
        fields in (full_u64(), full_u64(), full_u64(), full_u64()),
    ) {
        let (rank, seq, sim_ns, job) = envelope;
        let (a, b, c, d) = fields;
        for kind in 0..KINDS {
            let record = TelemetryRecord {
                rank,
                seq,
                sim_ns,
                job,
                event: event(kind, [a, b, c, d]),
            };
            let line = record_to_line(&record);
            let read = TraceSummary::from_lines(line.lines());
            prop_assert!(read.is_ok(), "{line}: {read:?}");
            let read = read.unwrap();
            // A line that failed to parse would read as a truncated tail.
            prop_assert_eq!(read.truncated_lines, 0, "{}", line);
            prop_assert_eq!(read.records.len(), 1);
            let parsed = &read.records[0];
            // `Debug` equality, so a NaN cost compares equal to itself.
            prop_assert_eq!(format!("{parsed:?}"), format!("{record:?}"));
            prop_assert_eq!(record_to_line(parsed), line);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn every_truncation_reads_its_intact_prefix(
        draws in prop::collection::vec((0..KINDS, full_u64(), full_u64()), 2..8),
    ) {
        let text = trace(&draws);
        for cut in 0..=text.len() {
            let prefix = &text[..cut];
            let summary = TraceSummary::from_lines(prefix.lines());
            // A cut damages at most the final line, which reads as a
            // truncated tail.
            prop_assert!(summary.is_ok(), "cut at {cut}: {summary:?}");
            let summary = summary.unwrap();
            let lines = prefix.lines().filter(|l| !l.trim().is_empty()).count();
            prop_assert!(summary.truncated_lines <= 1);
            prop_assert_eq!(
                summary.total_events() as u64 + summary.truncated_lines,
                lines as u64
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn every_single_byte_mutation_reads_without_panicking(
        draws in prop::collection::vec((0..KINDS, full_u64(), full_u64()), 2..5),
        random in prop::collection::vec(0u8..128, 2usize),
    ) {
        let mut bytes = trace(&draws).into_bytes();
        // Bytes that change a line's structure or number grammar, plus two
        // drawn ones; all ASCII, so every mutation stays UTF-8.
        let replacements: Vec<u8> = b"{}\":,-.9 \n".iter().copied().chain(random).collect();
        for at in 0..bytes.len() {
            let original = bytes[at];
            for &byte in &replacements {
                bytes[at] = byte;
                let text = std::str::from_utf8(&bytes).expect("ASCII stays UTF-8");
                if let Ok(summary) = TraceSummary::from_lines(text.lines()) {
                    prop_assert!(summary.truncated_lines <= 1);
                    prop_assert!(summary.total_events() <= text.lines().count());
                }
            }
            bytes[at] = original;
        }
    }
}
