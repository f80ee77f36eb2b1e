//! JSONL encoding and decoding of telemetry records.
//!
//! The build environment is offline, so this is a deliberately small
//! hand-rolled codec for the one shape we emit: a flat JSON object per line,
//! string values without escapes, integer and floating-point numbers. This
//! module owns the record envelope (`rank`, `seq`, `sim_ns`, `job`, `kind`,
//! written first in that order); the event's own fields, their keys and
//! their order come from the schema table in [`event`](crate::event), which
//! generates both the field writer and the field reader. The fixed order is
//! what makes two identical seeded runs produce byte-identical trace files.
//!
//! Integer fields use their full range — wire tags carry bits 62 and 63 — so
//! the parser reads each number from its token text as the field's own type
//! (`u64`, `i64` or `f64`), never an integer through `f64`, and every emitted
//! line parses back to the record that wrote it. Stream-level checks
//! (per-rank order, lost records, the truncated tail) live in
//! [`TraceSummary`](crate::TraceSummary), the one trace reader.

use crate::event::{TelemetryEvent, TelemetryRecord};
use std::fmt::Write as _;

/// Appends one record as a JSON line (including the trailing newline).
///
/// Costs no allocation beyond growing `out`; flush paths reuse one buffer.
pub fn emit_record(record: &TelemetryRecord, out: &mut String) {
    let _ = write!(
        out,
        "{{\"rank\":{},\"seq\":{},\"sim_ns\":{},\"job\":{},\"kind\":\"{}\"",
        record.rank,
        record.seq,
        record.sim_ns,
        record.job,
        record.event.kind()
    );
    record.event.write_fields(out);
    out.push_str("}\n");
}

/// One record rendered as a standalone JSON line (convenience; flush paths
/// use [`emit_record`] with a reused buffer instead).
pub fn record_to_line(record: &TelemetryRecord) -> String {
    let mut out = String::with_capacity(160);
    emit_record(record, &mut out);
    out
}

/// Why a trace line failed to parse or validate.
#[derive(Clone, Debug, PartialEq)]
pub enum ParseError {
    /// The line is not a flat JSON object of the supported shape.
    Malformed {
        /// Human-readable description of the first problem found.
        detail: String,
    },
    /// A required field is absent or has the wrong type.
    MissingField {
        /// The absent field.
        field: &'static str,
        /// The record kind that requires it (empty for envelope fields).
        kind: String,
    },
    /// A numeric field's text is not a value of the field's type: integer
    /// fields take only in-range decimal integers (no `-` on unsigned
    /// fields, no fraction, exponent, `NaN` or `inf`).
    InvalidNumber {
        /// The offending field.
        field: &'static str,
        /// The field's text as it appears on the line.
        token: String,
    },
    /// The `kind` field names no known event.
    UnknownKind {
        /// The offending kind string.
        kind: String,
    },
    /// Per-rank stream ordering was violated (sequence not increasing, or
    /// simulated time moving backwards).
    StreamOrder {
        /// The rank whose stream is inconsistent.
        rank: u64,
        /// Human-readable description of the violation.
        detail: String,
    },
    /// A line before a trace's last failed: `error` on 1-based line `line`.
    AtLine {
        /// The failing line's 1-based number.
        line: usize,
        /// Why it failed.
        error: Box<ParseError>,
    },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Malformed { detail } => write!(f, "malformed trace line: {detail}"),
            ParseError::MissingField { field, kind } if kind.is_empty() => {
                write!(f, "missing field `{field}`")
            }
            ParseError::MissingField { field, kind } => {
                write!(f, "missing field `{field}` for kind `{kind}`")
            }
            ParseError::InvalidNumber { field, token } => {
                write!(
                    f,
                    "field `{field}` holds `{token}`, not a value of its type"
                )
            }
            ParseError::UnknownKind { kind } => write!(f, "unknown event kind `{kind}`"),
            ParseError::StreamOrder { rank, detail } => {
                write!(f, "rank {rank} stream order violated: {detail}")
            }
            ParseError::AtLine { line, error } => write!(f, "line {line}: {error}"),
        }
    }
}

impl std::error::Error for ParseError {}

/// A scalar JSON value, borrowed from the line.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum JsonValue<'a> {
    /// A number's token text, kept as written: each field parses it with
    /// its own type, so a `u64` tag above 2^53 is read exactly.
    Num(&'a str),
    /// A string without escapes.
    Str(&'a str),
}

fn malformed(detail: impl Into<String>) -> ParseError {
    ParseError::Malformed {
        detail: detail.into(),
    }
}

/// Parses one flat JSON object line into `(key, value)` pairs.
fn parse_object(line: &str) -> Result<Vec<(&str, JsonValue<'_>)>, ParseError> {
    let line = line.trim();
    let inner = line
        .strip_prefix('{')
        .and_then(|rest| rest.strip_suffix('}'))
        .ok_or_else(|| malformed("not a JSON object"))?;
    let mut fields = Vec::new();
    let mut rest = inner.trim_start();
    while !rest.is_empty() {
        // Key.
        rest = rest
            .strip_prefix('"')
            .ok_or_else(|| malformed("expected a quoted key"))?;
        let end = rest
            .find('"')
            .ok_or_else(|| malformed("unterminated key"))?;
        let key = &rest[..end];
        rest = rest[end + 1..]
            .trim_start()
            .strip_prefix(':')
            .ok_or_else(|| malformed("expected `:` after key"))?
            .trim_start();
        // Value: string or number.
        let value = if let Some(after) = rest.strip_prefix('"') {
            let end = after
                .find('"')
                .ok_or_else(|| malformed("unterminated string value"))?;
            if after[..end].contains('\\') {
                return Err(malformed("escape sequences are not supported"));
            }
            let value = JsonValue::Str(&after[..end]);
            rest = after[end + 1..].trim_start();
            value
        } else {
            let end = rest.find([',', '}']).unwrap_or(rest.len());
            let token = rest[..end].trim();
            if token.parse::<f64>().is_err() {
                return Err(malformed(format!("invalid number `{token}`")));
            }
            rest = rest[end..].trim_start();
            JsonValue::Num(token)
        };
        fields.push((key, value));
        if let Some(after) = rest.strip_prefix(',') {
            rest = after.trim_start();
            if rest.is_empty() {
                return Err(malformed("trailing comma"));
            }
        } else if !rest.is_empty() {
            return Err(malformed("expected `,` between fields"));
        }
    }
    Ok(fields)
}

/// Reads numeric `field` as a `T` (`u64`, `i64` or `f64`) from its token
/// text; only `f64` accepts a fraction, an exponent, `NaN` or `inf`.
pub(crate) fn get_num<T: std::str::FromStr>(
    fields: &[(&str, JsonValue<'_>)],
    field: &'static str,
    kind: &str,
) -> Result<T, ParseError> {
    let token = fields
        .iter()
        .find(|(k, _)| *k == field)
        .and_then(|(_, v)| match v {
            JsonValue::Num(token) => Some(*token),
            JsonValue::Str(_) => None,
        })
        .ok_or(ParseError::MissingField {
            field,
            kind: kind.to_string(),
        })?;
    token.parse().map_err(|_| ParseError::InvalidNumber {
        field,
        token: token.to_string(),
    })
}

/// Parses one JSONL line back into a [`TelemetryRecord`]; traces are read
/// through [`TraceSummary::from_lines`](crate::TraceSummary::from_lines).
pub(crate) fn parse_record(line: &str) -> Result<TelemetryRecord, ParseError> {
    let fields = parse_object(line)?;
    let rank = get_num(&fields, "rank", "")?;
    let seq = get_num(&fields, "seq", "")?;
    let sim_ns = get_num(&fields, "sim_ns", "")?;
    let job = get_num(&fields, "job", "")?;
    let kind = fields
        .iter()
        .find(|(k, _)| *k == "kind")
        .and_then(|(_, v)| match v {
            JsonValue::Str(s) => Some(*s),
            JsonValue::Num(_) => None,
        })
        .ok_or(ParseError::MissingField {
            field: "kind",
            kind: String::new(),
        })?;
    let event = TelemetryEvent::read_fields(kind, &fields)?;
    Ok(TelemetryRecord {
        rank,
        seq,
        sim_ns,
        job,
        event,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One event of every kind (`iteration_end` twice), each stamped with
    /// the same envelope.
    fn one_of_each_kind() -> Vec<TelemetryRecord> {
        use TelemetryEvent::*;
        let events = [
            CommSend {
                to: 1,
                tag: 0x20,
                bytes: 4096,
                corr: (3 << 32) | 17,
            },
            CommRecv {
                from: 2,
                tag: 7,
                bytes: 8,
                corr: (2 << 32) | 5,
            },
            CommDrop {
                to: 1,
                tag: 7,
                bytes: 64,
            },
            BarrierWait { iteration: 4 },
            IterationBegin {
                iteration: 4,
                attempt: 1,
            },
            IterationEnd {
                iteration: 4,
                attempt: 1,
                cost: 0.125,
                compute_ns: 10,
                comm_ns: 20,
            },
            IterationEnd {
                iteration: 5,
                attempt: 0,
                cost: 1.0 / 3.0, // exercises shortest-round-trip float formatting
                compute_ns: 0,
                comm_ns: 0,
            },
            Checkpoint { iteration: 4 },
            RankDead { node: 5 },
            SparePromoted { slot: 1, node: 6 },
            JobSubmitted {
                job: 42,
                priority: -2,
                slots: 4,
            },
            JobAdmitted {
                job: 42,
                queue_depth: 3,
            },
            JobCancelled { job: 42 },
            JobCompleted {
                job: 42,
                iterations: 8,
            },
            CheckpointPersisted {
                iteration: 4,
                seq: 9,
                bytes: 4096,
            },
            CheckpointRestored {
                iteration: 4,
                seq: 9,
            },
        ];
        let kinds: std::collections::BTreeSet<_> = events.iter().map(|e| e.kind()).collect();
        assert_eq!(kinds.len(), 15, "one event of every kind");
        events
            .into_iter()
            .map(|event| TelemetryRecord {
                rank: 3,
                seq: 17,
                sim_ns: 123_456,
                job: 9,
                event,
            })
            .collect()
    }

    #[test]
    fn every_event_kind_round_trips() {
        for record in one_of_each_kind() {
            let line = record_to_line(&record);
            let parsed = parse_record(&line).expect("emitted line must parse");
            assert_eq!(parsed, record, "round-trip mismatch for {line}");
        }
    }

    #[test]
    fn every_dropped_field_is_reported_with_its_key_and_kind() {
        let mut dropped = 0;
        for record in one_of_each_kind() {
            let line = record_to_line(&record);
            let kind = record.event.kind();
            let fields = parse_object(&line).expect("emitted line parses");
            // The envelope (`rank`, `seq`, `sim_ns`, `job`, `kind`) comes
            // first; every later key is one of the event's own fields.
            assert!(fields.len() > 5, "{line}");
            for (key, _) in &fields[5..] {
                let start = line.find(&format!(",\"{key}\":")).expect("key present");
                let end = start + 1 + line[start + 1..].find([',', '}']).expect("value ends");
                let without = format!("{}{}", &line[..start], &line[end..]);
                match parse_record(&without) {
                    Err(ParseError::MissingField { field, kind: named }) => {
                        assert_eq!((field, named.as_str()), (*key, kind), "{without}")
                    }
                    other => panic!("dropping `{key}` from {line} gave {other:?}"),
                }
                dropped += 1;
            }
        }
        // Every field of the 16 events (two `iteration_end`s) was dropped.
        assert_eq!(dropped, 41);
    }

    #[test]
    fn full_range_integers_round_trip_exactly() {
        // A tag is any `u64`, far above f64's 2^53 exact-integer range.
        for event in [
            TelemetryEvent::CommRecv {
                from: 1,
                tag: (1 << 63) | 17,
                bytes: 8,
                corr: 0,
            },
            TelemetryEvent::CommSend {
                to: 2,
                tag: (1 << 62) | 5,
                bytes: 64,
                corr: u64::MAX,
            },
            TelemetryEvent::JobSubmitted {
                job: u64::MAX,
                priority: i64::MIN,
                slots: u64::MAX,
            },
        ] {
            let record = TelemetryRecord {
                rank: u64::MAX,
                seq: u64::MAX,
                sim_ns: u64::MAX,
                job: u64::MAX,
                event,
            };
            let line = record_to_line(&record);
            assert_eq!(parse_record(&line), Ok(record), "{line}");
        }
    }

    #[test]
    fn malformed_integers_are_rejected_naming_the_field() {
        // A `spare_promoted` line whose field `bad` holds `token`.
        let line = |bad: &str, token: &str| {
            let num = |field: &str, value: &str| {
                format!("\"{field}\":{}", if field == bad { token } else { value })
            };
            format!(
                "{{{},{},{},{},\"kind\":\"spare_promoted\",{},{}}}",
                num("rank", "0"),
                num("seq", "1"),
                num("sim_ns", "2"),
                num("job", "3"),
                num("slot", "4"),
                num("node", "5")
            )
        };
        assert!(parse_record(&line("", "")).is_ok());
        for token in ["-3", "2.9", "NaN", "inf", "1e3", "18446744073709551616"] {
            for field in ["rank", "seq", "sim_ns", "job", "slot", "node"] {
                assert_eq!(
                    parse_record(&line(field, token)),
                    Err(ParseError::InvalidNumber {
                        field,
                        token: token.into()
                    })
                );
            }
        }
        // `priority` is the one signed field; `cost` the one float.
        let submitted = |priority: &str| {
            format!(
                "{{\"rank\":0,\"seq\":0,\"sim_ns\":0,\"job\":0,\"kind\":\"job_submitted\",\
                 \"job_id\":1,\"priority\":{priority},\"slots\":2}}"
            )
        };
        assert!(parse_record(&submitted("-3")).is_ok());
        for token in ["2.9", "NaN", "inf", "1e3", "9223372036854775808"] {
            assert_eq!(
                parse_record(&submitted(token)),
                Err(ParseError::InvalidNumber {
                    field: "priority",
                    token: token.into()
                })
            );
        }
        let end = "{\"rank\":0,\"seq\":0,\"sim_ns\":0,\"job\":0,\"kind\":\"iteration_end\",\
                   \"iteration\":0,\"attempt\":0,\"cost\":NaN,\"compute_ns\":0,\"comm_ns\":0}";
        assert!(matches!(
            parse_record(end),
            Ok(TelemetryRecord {
                event: TelemetryEvent::IterationEnd { cost, .. },
                ..
            }) if cost.is_nan()
        ));
    }

    #[test]
    fn missing_fields_are_reported() {
        let line = "{\"rank\":0,\"seq\":0,\"sim_ns\":0,\"job\":0,\"kind\":\"comm_send\",\"to\":1}";
        assert_eq!(
            parse_record(line),
            Err(ParseError::MissingField {
                field: "tag",
                kind: "comm_send".into()
            })
        );
    }

    #[test]
    fn truncated_lines_are_malformed_not_panics() {
        for line in [
            "",
            "{",
            "{\"rank\":0",
            "{\"rank\":0,\"seq\":",
            "{\"rank\":0,\"kind\":\"comm_se",
        ] {
            assert!(matches!(
                parse_record(line),
                Err(ParseError::Malformed { .. }) | Err(ParseError::MissingField { .. })
            ));
        }
    }
}
