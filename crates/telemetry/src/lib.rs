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
//! The crate provides four pieces, layered bottom-up:
//!
//! 1. [`TelemetryEvent`]/[`TelemetryRecord`] ([`event`]): the structured
//!    event model, a fixed-size `Copy` enum covering comms (send, recv,
//!    retransmit, ack, drop), heartbeats, barriers, iterations, checkpoints,
//!    membership (death, suspicion, spare promotion) and job lifecycle.
//! 2. [`Telemetry`]/[`RankSink`] ([`recorder`]): the flight recorder —
//!    preallocated per-rank ring buffers with allocation-free recording
//!    (the workspace's zero-allocation steady-state gate stays green with
//!    recording enabled) and a durable JSONL sink flushed at iteration
//!    consistency barriers, so a killed process leaves a prefix-consistent
//!    log.
//! 3. [`MetricsRegistry`] ([`metrics`]): counters, gauges, and log2
//!    histograms with Prometheus-style text and JSON snapshots, assembled on
//!    demand from producer-side counters.
//! 4. [`json`]/[`trace`]: the JSONL codec (fixed field order, hand-rolled
//!    offline-friendly parser, streaming schema validation) and post-hoc
//!    ingestion (per-rank stream digests) behind the `trace_dump` binary.
//! 5. [`analysis`]: causal trace analysis — span graphs paired from
//!    send/recv correlation ids, exact critical-path attribution
//!    (compute / comm / barrier-wait / retransmit / heal per rank),
//!    straggler z-scoring, anomaly scanning, and structural trace diffing
//!    for resumed-vs-clean comparisons.
//!
//! # Quick start
//!
//! ```
//! use ptycho_telemetry::{Telemetry, TelemetryConfig, TelemetryEvent};
//!
//! let telemetry = Telemetry::new();
//! let sink = telemetry.sink(0);
//! sink.set_comm_ns(1_500);
//! sink.record(TelemetryEvent::IterationBegin { iteration: 0, attempt: 0 });
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
    anomaly_scan, critical_path, diff_jobs, span_graph, straggler_report, AnomalyConfig,
    AnomalyScan, CriticalPath, RankAttribution, SpanGraph, StragglerReport, TraceDiff,
};
pub use event::{TelemetryEvent, TelemetryRecord};
pub use json::{ParseError, SchemaValidator};
pub use metrics::{Histogram, MetricsRegistry};
pub use recorder::{RankSink, Telemetry, TelemetryConfig};
pub use trace::{StreamSummary, TraceSummary};
