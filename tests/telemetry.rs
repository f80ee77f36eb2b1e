//! Integration tests for the deterministic telemetry subsystem.
//!
//! The contracts under test:
//!
//! 1. **Non-interference** — attaching a flight recorder must not change the
//!    reconstruction: telemetry-on and telemetry-off runs are bit-identical.
//! 2. **Determinism** — two identical seeded runs emit **byte-identical**
//!    JSONL event logs, because every record is stamped with the simulated
//!    per-rank clock (analytic communication time + modeled compute time),
//!    never wall time. Pinned on the lockstep backend under seeded drop and
//!    kill faults, and on the free-running threaded backend under duplicate
//!    and delay faults (drops on the threaded backend heal via genuinely
//!    timing-dependent retransmission, so byte-identity is a lockstep-only
//!    claim there).
//! 3. **Content** — the event stream tells the story the run actually had:
//!    dense per-rank sequence numbers, a monotonic simulated clock, one
//!    `iteration_begin`/`iteration_end` pair per iteration, a `rank_dead` /
//!    `spare_promoted` pair when a node dies and a spare heals it, and job
//!    lifecycle events from the multi-tenant engine whose metrics snapshot
//!    agrees with the trace.

use ptycho_cluster::{FaultInjectionBackend, FaultPolicy, HardwareModel};
use ptycho_core::durability::fnv1a64;
use ptycho_core::gradient_decomp::passes::tags;
use ptycho_core::{
    JobContext, JobEngine, JobSpec, JobState, ReconstructionResult, RecoveryPolicy, SolverConfig,
};
use ptycho_sim::dataset::{Dataset, SyntheticConfig, BYTES_PER_COMPLEX};
use ptycho_telemetry::json::record_to_line;
use ptycho_telemetry::{Telemetry, TelemetryConfig, TelemetryEvent, TraceSummary};
use std::io::Write;
use std::sync::{Arc, Mutex};

mod common;
use common::{
    assert_bit_identical, gd_solver, lockstep, restart_policy, small_problem, substitute_policy,
};

/// An in-memory JSONL sink shared between the telemetry handle (which owns a
/// boxed clone) and the test (which reads the bytes back afterwards).
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn contents(&self) -> Vec<u8> {
        self.0.lock().expect("telemetry buffer poisoned").clone()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .expect("telemetry buffer poisoned")
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Runs the standard 2×2 Gradient Decomposition problem with a durable
/// recorder attached, returning the emitted JSONL and the reconstruction.
fn traced_gd_run<B: ptycho_cluster::CommBackend>(
    backend: &B,
    policy: RecoveryPolicy,
) -> (Vec<u8>, ReconstructionResult) {
    let ds = small_problem();
    let solver = gd_solver(&ds);
    let buf = SharedBuf::default();
    let telemetry = Telemetry::with_writer(TelemetryConfig::default(), Box::new(buf.clone()));
    let job = JobContext {
        telemetry: Some(&telemetry),
        ..JobContext::default()
    };
    let result = solver
        .run_job(backend, policy, &job)
        .expect("traced run must complete");
    (buf.contents(), result)
}

/// Every line of `bytes` must be a valid, in-order record that re-emits to
/// exactly its own bytes; returns the summary for content assertions.
fn validate_jsonl(bytes: &[u8]) -> TraceSummary {
    let text = std::str::from_utf8(bytes).expect("trace is UTF-8");
    let summary = TraceSummary::from_lines(text.lines()).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(summary.truncated_lines, 0);
    assert!(summary.total_events() > 0, "trace must not be empty");
    assert_eq!(text.lines().count(), summary.total_events());
    for (line, record) in text.lines().zip(&summary.records) {
        let emitted = record_to_line(record);
        assert_eq!(
            line,
            emitted.trim_end_matches('\n'),
            "line must re-emit exactly"
        );
    }
    summary
}

// ---------------------------------------------------------------------------
// Non-interference: telemetry must not change the reconstruction.
// ---------------------------------------------------------------------------

#[test]
fn telemetry_leaves_reconstruction_bit_identical() {
    let ds = small_problem();
    common::run_both_solvers!(&ds, |solver, label| {
        let bare = solver
            .run_job(
                &lockstep(),
                RecoveryPolicy::FailFast,
                &JobContext::default(),
            )
            .expect("fault-free run completes");
        let telemetry = Telemetry::new();
        let job = JobContext {
            telemetry: Some(&telemetry),
            ..JobContext::default()
        };
        let traced = solver
            .run_job(&lockstep(), RecoveryPolicy::FailFast, &job)
            .expect("traced run completes");
        assert!(
            telemetry.total_recorded() > 0,
            "{label}: the recorder must observe the run"
        );
        assert_bit_identical(&bare, &traced);
    });
}

// ---------------------------------------------------------------------------
// Determinism: identical seeded runs emit byte-identical JSONL.
// ---------------------------------------------------------------------------

/// Drops the first frame of the (0 → 2) vertical-forward stream — the same
/// surgically healable drop the recovery suite uses.
fn gd_drop_policy() -> FaultPolicy {
    FaultPolicy::reliable(0).drop_message(0, 2, tags::VERTICAL_FORWARD, 0)
}

#[test]
fn lockstep_trace_is_deterministic_under_drop_faults() {
    let run = || {
        let backend = FaultInjectionBackend::new(lockstep(), gd_drop_policy());
        traced_gd_run(&backend, restart_policy())
    };
    let (trace_a, result_a) = run();
    let (trace_b, result_b) = run();
    assert!(!trace_a.is_empty());
    assert_eq!(
        trace_a, trace_b,
        "identical seeded runs must emit byte-identical telemetry"
    );
    assert_bit_identical(&result_a, &result_b);

    let summary = validate_jsonl(&trace_a);
    assert!(
        summary.kind_count("comm_drop") >= 1,
        "the injected drop must be visible in the trace"
    );
    assert!(
        summary.kind_count("comm_retransmit") >= 1,
        "the healing retransmission must be visible in the trace"
    );
    assert!(summary.kind_count("barrier_wait") >= 1);
    assert!(summary.kind_count("checkpoint") >= 1);
}

#[test]
fn lockstep_trace_is_deterministic_under_kill_and_substitution() {
    let run = || {
        let policy = FaultPolicy::reliable(5).kill_rank(1, 1);
        let backend = FaultInjectionBackend::new(lockstep(), policy);
        traced_gd_run(&backend, substitute_policy(1))
    };
    let (trace_a, result_a) = run();
    let (trace_b, _) = run();
    assert_eq!(trace_a, trace_b);

    // The healed run matches the fault-free one (the recovery contract), and
    // the trace shows the death and the promotion that healed it.
    let fault_free = gd_solver(&small_problem())
        .run_job(
            &lockstep(),
            RecoveryPolicy::FailFast,
            &JobContext::default(),
        )
        .expect("fault-free run completes");
    assert_bit_identical(&result_a, &fault_free);

    let summary = validate_jsonl(&trace_a);
    assert_eq!(summary.kind_count("rank_dead"), 1);
    assert_eq!(summary.kind_count("spare_promoted"), 1);
    // Ring-liveness heartbeats ride on control frames in membership mode.
    assert!(summary.kind_count("heartbeat_sent") >= 1);
    // The spare writes its own stream: node 4 (the first standby after the
    // four workers) adopts slot 1.
    let streams: Vec<u64> = summary.streams.keys().map(|&(_, rank)| rank).collect();
    assert!(
        streams.contains(&4),
        "the promoted spare (node 4) must own a telemetry stream, got {streams:?}"
    );
}

#[test]
fn threaded_trace_is_deterministic_under_duplicate_and_delay_faults() {
    // Duplicate + delay faults only: both are healed inline by the reliable
    // layer's sequence numbering without ever losing a frame, so no
    // wall-time-dependent retransmission fires and the threaded backend's
    // free-running schedule cannot leak into the per-rank event streams.
    // (A generous receive timeout keeps a descheduled thread from faking a
    // loss on a loaded machine.)
    let run = || {
        let policy = FaultPolicy::reliable(11).duplicate(0.15).delay(0.1);
        let backend = FaultInjectionBackend::new(common::threaded(5_000), policy);
        traced_gd_run(&backend, restart_policy())
    };
    let (trace_a, result_a) = run();
    let (trace_b, result_b) = run();
    assert!(!trace_a.is_empty());
    assert_eq!(
        trace_a, trace_b,
        "threaded runs under duplicate/delay faults must emit byte-identical telemetry"
    );
    assert_bit_identical(&result_a, &result_b);
    validate_jsonl(&trace_a);
}

// ---------------------------------------------------------------------------
// Cross-build pins: the determinism tests above compare two runs of one
// build; these FNV-1a goldens pin the durable JSONL bytes themselves, so a
// refactor of the rank loop cannot reorder or restamp an event unnoticed.
// ---------------------------------------------------------------------------

fn assert_trace_hash(trace: &[u8], expected: u64, label: &str) {
    let actual = fnv1a64(trace);
    assert_eq!(
        actual, expected,
        "{label}: the durable trace moved (new hash {actual:#018x})"
    );
}

#[test]
fn fail_fast_trace_matches_golden_hash() {
    let (trace, _) = traced_gd_run(&lockstep(), RecoveryPolicy::FailFast);
    assert_trace_hash(&trace, 0x9976_df81_cc9f_4a42, "fail-fast");
}

#[test]
fn restart_trace_under_drop_matches_golden_hash() {
    let backend = FaultInjectionBackend::new(lockstep(), gd_drop_policy());
    let (trace, _) = traced_gd_run(&backend, restart_policy());
    assert_trace_hash(&trace, 0x8b9f_cd4d_80a5_c32a, "restart under drop");
}

// ---------------------------------------------------------------------------
// Content: the stream tells the run's story.
// ---------------------------------------------------------------------------

#[test]
fn iteration_events_are_dense_monotonic_and_complete() {
    let ds = small_problem();
    let solver = gd_solver(&ds);
    let telemetry = Telemetry::new();
    let job = JobContext {
        telemetry: Some(&telemetry),
        ..JobContext::default()
    };
    let result = solver
        .run_job(&lockstep(), RecoveryPolicy::FailFast, &job)
        .expect("run completes");
    let iterations = result.cost_history.costs().len() as u64;
    assert_eq!(telemetry.lost_records(), 0, "ring must not overflow");

    let mut total = 0u64;
    for rank in 0..4 {
        let records = telemetry.records(rank);
        assert!(!records.is_empty(), "rank {rank} must have a stream");
        total += records.len() as u64;

        let mut begins = 0u64;
        let mut ends = 0u64;
        let mut last_sim = 0u64;
        let mut last_compute = 0u64;
        for (i, record) in records.iter().enumerate() {
            assert_eq!(record.rank, rank as u64);
            assert_eq!(record.seq, i as u64, "sequence numbers must be dense");
            assert!(
                record.sim_ns >= last_sim,
                "rank {rank}: simulated clock must be monotonic"
            );
            last_sim = record.sim_ns;
            match record.event {
                TelemetryEvent::IterationBegin { .. } => begins += 1,
                TelemetryEvent::IterationEnd {
                    cost,
                    compute_ns,
                    comm_ns,
                    ..
                } => {
                    ends += 1;
                    assert!(cost.is_finite());
                    assert!(
                        compute_ns > last_compute,
                        "modeled compute time must advance each iteration"
                    );
                    last_compute = compute_ns;
                    assert!(comm_ns > 0, "halo traffic must charge communication time");
                }
                _ => {}
            }
        }
        assert_eq!(begins, iterations, "rank {rank}: one begin per iteration");
        assert_eq!(ends, iterations, "rank {rank}: one end per iteration");
    }
    assert_eq!(telemetry.total_recorded(), total);
}

#[test]
fn iteration_end_pins_compute_and_comm_to_the_modeled_clock() {
    // Recompute the kernel's per-rank modeled compute constant from the same
    // public inputs it uses: `compute_ns` must be exactly its cumulative sum
    // and `comm_ns` the remainder of the stamp. This pins the fields to
    // their meanings — both are positive and monotone, so weaker assertions
    // would pass even with the two swapped.
    let ds = small_problem();
    let solver = gd_solver(&ds);
    let telemetry = Telemetry::new();
    let job = JobContext {
        telemetry: Some(&telemetry),
        ..JobContext::default()
    };
    solver
        .run_job(&lockstep(), RecoveryPolicy::FailFast, &job)
        .expect("run completes");

    let (slices, _, _) = ds.object_shape();
    let window = ds.model().window_px();
    for rank in 0..4 {
        let tile = solver.grid().tile(rank);
        let working_set = (tile.extended_area() * slices * BYTES_PER_COMPLEX) as f64;
        let per_probe =
            HardwareModel::summit_v100().probe_gradient_time(window, slices, working_set);
        let per_iteration = (tile.owned_locations.len() as f64 * per_probe * 1e9) as u64;
        assert!(
            per_iteration > 0,
            "rank {rank}: the model must charge compute time"
        );
        let mut ends = 0u64;
        for record in telemetry.records(rank) {
            if let TelemetryEvent::IterationEnd {
                compute_ns,
                comm_ns,
                ..
            } = record.event
            {
                ends += 1;
                assert_eq!(
                    compute_ns,
                    ends * per_iteration,
                    "rank {rank} iteration {ends}: compute_ns must be the \
                     cumulative modeled compute (comm/compute swapped?)"
                );
                assert_eq!(
                    compute_ns + comm_ns,
                    record.sim_ns,
                    "rank {rank}: the split must sum to the record's simulated stamp"
                );
            }
        }
        assert!(ends > 0, "rank {rank} must end at least one iteration");
    }
}

#[test]
fn job_engine_trace_and_metrics_agree() {
    let dataset = Dataset::synthesize(SyntheticConfig::tiny());
    let config = SolverConfig {
        iterations: 2,
        halo_px: 20,
        ..SolverConfig::default()
    };
    let buf = SharedBuf::default();
    let engine = JobEngine::paused(4);
    let mut handles = Vec::new();
    for i in 0..3u64 {
        let mut spec = JobSpec::new(dataset.clone(), config, (2, 1));
        if i == 1 {
            // Job-local node 1 dies early and must be healed from the fleet.
            spec = spec.with_fault_policy(FaultPolicy::reliable(41).kill_rank(1, 1));
        }
        let telemetry = Telemetry::with_writer(
            TelemetryConfig {
                job_id: i,
                ..TelemetryConfig::default()
            },
            Box::new(buf.clone()),
        );
        spec = spec.with_telemetry(Arc::new(telemetry));
        handles.push(engine.submit(spec).expect("submission accepted"));
    }
    engine.start_admitting();
    engine.wait_idle();
    for handle in &handles {
        assert_eq!(handle.wait().state, JobState::Completed);
    }

    // The combined multi-job trace is schema-valid and carries the full job
    // lifecycle plus the death/heal pair from the kill job.
    let summary = validate_jsonl(&buf.contents());
    assert_eq!(summary.kind_count("job_submitted"), 3);
    assert_eq!(summary.kind_count("job_admitted"), 3);
    assert_eq!(summary.kind_count("job_completed"), 3);
    assert_eq!(summary.kind_count("rank_dead"), 1);
    assert_eq!(summary.kind_count("spare_promoted"), 1);
    let mut jobs = summary.jobs();
    jobs.sort_unstable();
    assert_eq!(jobs, vec![0, 1, 2]);

    // The metrics snapshot tells the same story as the trace.
    let registry = engine.metrics_snapshot();
    assert_eq!(registry.counter("jobs_submitted_total"), Some(3));
    assert_eq!(registry.counter("jobs_admitted_total"), Some(3));
    assert_eq!(registry.counter("jobs_completed_total"), Some(3));
    assert_eq!(registry.counter("jobs_cancelled_total"), Some(0));
    assert_eq!(registry.counter("engine_substitutions_total"), Some(1));
    assert!(
        registry
            .counter("engine_heartbeats_sent_total")
            .unwrap_or(0)
            > 0
    );
    let depth = registry.histogram("queue_depth").expect("depth histogram");
    assert_eq!(depth.count(), 6, "one sample at submit and one at admit");
    let text = registry.prometheus_text();
    assert!(text.contains("jobs_completed_total 3"));
    assert!(text.contains("fleet_nodes_total"));
}

/// A queued job that fleet shrinkage fails still reaches its durable trace:
/// it ends through the same terminal transition as a job that ran, and that
/// transition flushes the recorder.
#[test]
fn a_queued_job_failed_by_fleet_shrinkage_keeps_its_trace() {
    let dataset = Dataset::synthesize(SyntheticConfig::tiny());
    let config = SolverConfig {
        iterations: 2,
        halo_px: 20,
        ..SolverConfig::default()
    };
    // The dying job takes the whole 2-node fleet and retires one node; the
    // traced full-width follower can then never be served.
    let engine = JobEngine::paused(2);
    let dying = engine
        .submit(
            JobSpec::new(dataset.clone(), config, (2, 1))
                .with_fault_policy(FaultPolicy::reliable(9).kill_rank(1, 1)),
        )
        .expect("fits the fleet");
    let buf = SharedBuf::default();
    let telemetry = Telemetry::with_writer(TelemetryConfig::default(), Box::new(buf.clone()));
    let doomed = engine
        .submit(JobSpec::new(dataset, config, (2, 1)).with_telemetry(Arc::new(telemetry)))
        .expect("feasible against the live fleet at submission");
    engine.start_admitting();
    engine.wait_idle();
    assert_eq!(dying.wait().state, JobState::Failed);
    assert_eq!(doomed.wait().state, JobState::Failed);

    let summary = validate_jsonl(&buf.contents());
    assert_eq!(summary.kind_count("job_submitted"), 1);
    assert_eq!(summary.total_events(), 1, "the job never ran");
}

#[test]
fn truncated_final_line_is_tolerated_as_prefix_consistency() {
    let backend = FaultInjectionBackend::new(lockstep(), gd_drop_policy());
    let (trace, _) = traced_gd_run(&backend, restart_policy());
    let text = String::from_utf8(trace).expect("trace is UTF-8");
    let whole = TraceSummary::from_lines(text.lines()).expect("trace parses");

    // A run killed mid-flush leaves a half-written final line; the analyzer
    // must keep the consistent prefix and report exactly one truncated line.
    let cut = text.len() - 20;
    let truncated = &text[..cut];
    let summary = TraceSummary::from_lines(truncated.lines()).expect("prefix parses");
    assert_eq!(summary.truncated_lines, 1);
    assert_eq!(summary.total_events(), whole.total_events() - 1);
}
