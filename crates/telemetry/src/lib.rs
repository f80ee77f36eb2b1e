//! Deterministic telemetry for the simulated ptychography cluster.
//!
//! Observability in this workspace has one unusual hard requirement,
//! inherited from the reproduction's bit-identity pins: **two identical
//! seeded runs must emit bit-identical telemetry**. That rules wall clocks
//! out entirely. Every event is stamped with the rank's *simulated* clock —
//! the analytic communication time the performance model charges senders,
//! plus the modeled compute time of the solver kernel — and a dense per-rank
//! sequence number, so a trace is a pure function of the run's inputs.
//!
//! The crate provides five pieces, layered bottom-up:
//!
//! 1. [`TelemetryEvent`]/[`TelemetryRecord`] ([`event`]): the structured
//!    event model, a fixed-size `Copy` enum covering comms (send, recv,
//!    drop), barriers, iterations, checkpoints, membership
//!    (death, spare promotion) and job lifecycle. One table in [`event`]
//!    declares every kind; the enum, its JSONL field writer and its field
//!    reader are all generated from it.
//! 2. [`Telemetry`]/[`RankSink`] ([`recorder`]): the flight recorder —
//!    preallocated per-rank ring buffers, each owned by the one sink that
//!    records into it, so recording takes no lock and allocates nothing
//!    (the workspace's zero-allocation steady-state gate stays green with
//!    recording enabled), and a durable JSONL sink flushed at iteration
//!    consistency barriers, so a killed process leaves a prefix-consistent
//!    log and a failing disk costs trace lines, not the run.
//! 3. [`MetricsRegistry`] ([`metrics`]): counters, gauges, and log2
//!    histograms rendered as Prometheus-style text, assembled on demand
//!    from producer-side counters.
//! 4. [`json`]/[`trace`]: the JSONL codec (the record envelope around the
//!    generated field writer and reader; fixed field order, exact integer
//!    parsing) and [`TraceSummary`], the one trace reader (stream order,
//!    lost records, per-rank digests) behind the `trace_dump` binary.
//! 5. [`analysis`]: causal trace analysis — span graphs paired from
//!    send/recv correlation ids, exact critical-path attribution
//!    (compute / comm / barrier-wait / heal per rank), straggler
//!    z-scoring, and structural trace diffing
//!    for resumed-vs-clean comparisons.
//!
//! # Quick start
//!
//! ```
//! use ptycho_telemetry::{Telemetry, TelemetryConfig, TelemetryEvent};
//!
//! let telemetry = Telemetry::new();
//! let mut sink = telemetry.sink(0);
//! sink.record_at(1_500, TelemetryEvent::IterationBegin { iteration: 0, attempt: 0 });
//! drop(sink); // parks the stream back in the hub, where snapshots read it
//! let records = telemetry.records(0);
//! assert_eq!(records[0].sim_ns, 1_500);
//! assert_eq!(records[0].seq, 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod event;
pub mod json;
pub mod metrics;
pub mod recorder;
pub mod trace;

pub use analysis::{
    critical_path, diff_jobs, span_graph, straggler_report, CriticalPath, RankAttribution,
    SpanGraph, StragglerReport, TraceDiff,
};
pub use event::{TelemetryEvent, TelemetryRecord};
pub use json::ParseError;
pub use metrics::{Histogram, MetricsRegistry};
pub use recorder::{RankSink, Telemetry, TelemetryConfig};
pub use trace::{StreamSummary, TraceSummary};
