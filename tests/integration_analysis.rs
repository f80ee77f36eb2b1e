//! Integration tests for causal trace analysis: span graphs, critical-path
//! attribution, straggler detection, and trace diffing on **real traced
//! runs** (the unit tests in `ptycho-telemetry` pin the same algorithms on
//! hand-built records).
//!
//! The contracts under test:
//!
//! 1. **Deterministic span graphs** — two identical seeded runs produce
//!    byte-identical span graphs (the `Debug` rendering is compared as
//!    bytes) on the lockstep backend under a seeded drop, and the
//!    free-running threaded backend healing the same drop builds the
//!    lockstep graph byte for byte.
//! 2. **Exact attribution** — for every rank, the four attribution segments
//!    (compute, comm, heal, barrier wait) sum *exactly* to the
//!    job's end-to-end simulated time. No rounding, no residue.
//! 3. **Straggler detection** — an uneven split skews one rank's
//!    barrier-wait share far enough above the mean that the z-threshold
//!    flags it, and the flagged set is pinned.
//! 4. **Empty diffs** — the structural trace diff of two identical seeded
//!    runs is empty, and a faulted run diffs non-empty against a clean one.

use ptycho_cluster::{FaultInjectionBackend, FaultPolicy};
use ptycho_core::gradient_decomp::passes::tags;
use ptycho_core::{GradientDecompositionSolver, JobContext, ReconstructionResult, RecoveryPolicy};
use ptycho_sim::dataset::{Dataset, SyntheticConfig};
use ptycho_telemetry::{
    analysis, Telemetry, TelemetryConfig, TelemetryEvent, TelemetryRecord, TraceSummary,
};
use std::io::Write;
use std::sync::{Arc, Mutex};

mod common;
use common::{gd_config, gd_solver, lockstep, restart_policy, small_problem, threaded};

/// An in-memory JSONL sink shared between the telemetry handle and the test.
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

/// Runs the standard 2×2 Gradient Decomposition problem with a recorder
/// attached and returns the parsed records (job 0).
fn traced_records<B: ptycho_cluster::CommBackend>(
    backend: &B,
    policy: RecoveryPolicy,
) -> (Vec<TelemetryRecord>, ReconstructionResult) {
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
    let bytes = buf.contents();
    let text = std::str::from_utf8(&bytes).expect("trace is UTF-8");
    let summary = TraceSummary::from_lines(text.lines()).expect("trace parses");
    assert_eq!(summary.truncated_lines, 0);
    (summary.records, result)
}

/// The surgically healable drop the recovery suite uses.
fn gd_drop_policy() -> FaultPolicy {
    FaultPolicy::reliable(0).drop_message(0, 2, tags::VERTICAL_FORWARD, 0)
}

// ---------------------------------------------------------------------------
// Determinism: identical seeded runs yield byte-identical span graphs.
// ---------------------------------------------------------------------------

#[test]
fn span_graph_is_byte_identical_across_seeded_lockstep_runs() {
    let run = || {
        let backend = FaultInjectionBackend::new(lockstep(), gd_drop_policy());
        traced_records(&backend, restart_policy())
    };
    let (records_a, _) = run();
    let (records_b, _) = run();
    let graph_a = format!("{:?}", analysis::span_graph(&records_a, 0));
    let graph_b = format!("{:?}", analysis::span_graph(&records_b, 0));
    assert!(!graph_a.is_empty());
    assert_eq!(
        graph_a.as_bytes(),
        graph_b.as_bytes(),
        "identical seeded lockstep runs must build byte-identical span graphs"
    );

    // The graph carries the run's structure: iteration spans for every
    // rank, mostly-paired message spans, and the injected drop surfacing as
    // an unpaired send (the frame left the sender and never arrived).
    let graph = analysis::span_graph(&records_a, 0);
    assert!(!graph.iteration_spans.is_empty());
    assert!(!graph.message_spans.is_empty());
    let unpaired = graph
        .message_spans
        .iter()
        .filter(|s| s.recv.is_none())
        .count();
    assert!(
        unpaired >= 1,
        "the dropped frame must leave an unpaired send span"
    );
    assert!(
        graph.message_spans.len() - unpaired > unpaired,
        "most sends in a healed run must pair with a receive"
    );
    assert_eq!(graph.unpaired_recvs, 0);
    assert!(!graph.happens_before.is_empty());
}

#[test]
fn span_graph_is_byte_identical_across_seeded_threaded_runs() {
    // No timer decides a threaded failure: the dropped frame fails the same
    // receive as on lockstep and one restart heals it, so every threaded run
    // builds the lockstep run's span graph byte for byte.
    let graph = |records: &[TelemetryRecord]| format!("{:?}", analysis::span_graph(records, 0));
    let lockstep_graph = {
        let backend = FaultInjectionBackend::new(lockstep(), gd_drop_policy());
        graph(&traced_records(&backend, restart_policy()).0)
    };
    for run in 0..2 {
        let backend = FaultInjectionBackend::new(threaded(), gd_drop_policy());
        let (records, _) = traced_records(&backend, restart_policy());
        assert_eq!(
            graph(&records).as_bytes(),
            lockstep_graph.as_bytes(),
            "threaded run {run} must build the lockstep span graph"
        );
    }
}

// ---------------------------------------------------------------------------
// Exact attribution: segments sum to end-to-end time, rank by rank.
// ---------------------------------------------------------------------------

#[test]
fn critical_path_attribution_sums_exactly_on_a_real_trace() {
    let backend = FaultInjectionBackend::new(lockstep(), gd_drop_policy());
    let (records, _) = traced_records(&backend, restart_policy());
    let path = analysis::critical_path(&records, 0);

    let max_stamp = records.iter().map(|r| r.sim_ns).max().unwrap_or(0);
    assert_eq!(
        path.end_to_end_ns, max_stamp,
        "end-to-end time is the latest simulated stamp in the job"
    );
    assert!(path.end_to_end_ns > 0);
    assert!(!path.ranks.is_empty());
    for row in &path.ranks {
        assert_eq!(
            row.total_ns(),
            path.end_to_end_ns,
            "rank {}: compute {} + comm {} + heal {} + wait {} \
             must sum exactly to the end-to-end simulated time",
            row.rank,
            row.compute_ns,
            row.comm_ns,
            row.heal_ns,
            row.barrier_wait_ns
        );
        assert!(row.compute_ns > 0, "rank {} must do compute", row.rank);
    }
    // The injected drop heals by one restart: the re-run iterations'
    // traffic is booked under comm like the first attempt's, and the
    // restart itself is visible in the record stream.
    assert!(
        records
            .iter()
            .any(|r| matches!(r.event, TelemetryEvent::IterationBegin { attempt: 1, .. })),
        "the drop's restart must appear in the trace"
    );
    // The critical rank is the one with zero barrier wait.
    let critical = path
        .ranks
        .iter()
        .find(|r| r.rank == path.critical_rank)
        .expect("critical rank has a row");
    assert_eq!(critical.barrier_wait_ns, 0);
}

// ---------------------------------------------------------------------------
// Straggler detection: an uneven split pins the flagged set.
// ---------------------------------------------------------------------------

#[test]
fn straggler_detection_pins_on_an_uneven_split_run() {
    // A 5-row scan over a 3×1 grid splits its rows unevenly: the middle
    // rank ends up with the lightest tile, finishes early, and sits in the
    // barrier while its peers grind — the exact wait-share signature the
    // detector flags.
    let ds = Dataset::synthesize(SyntheticConfig {
        object_px: 128,
        slices: 2,
        scan_grid: (5, 4),
        window_px: 32,
        dose: None,
        defocus_pm: 12_000.0,
        seed: 21,
    });
    let run = || {
        let solver = GradientDecompositionSolver::new(&ds, gd_config(), (3, 1));
        let buf = SharedBuf::default();
        let telemetry = Telemetry::with_writer(TelemetryConfig::default(), Box::new(buf.clone()));
        let job = JobContext {
            telemetry: Some(&telemetry),
            ..JobContext::default()
        };
        solver
            .run_job(&lockstep(), restart_policy(), &job)
            .expect("fault-free run completes");
        let bytes = buf.contents();
        let text = std::str::from_utf8(&bytes).expect("trace is UTF-8");
        TraceSummary::from_lines(text.lines())
            .expect("trace parses")
            .records
    };

    let path = analysis::critical_path(&run(), 0);
    let report = analysis::straggler_report(&path, 1.0);
    assert_eq!(report.z_threshold, 1.0);
    assert!(
        report.std_wait_share > 0.0,
        "the uneven split must skew the wait shares"
    );
    let flagged: Vec<u64> = report.stragglers.iter().map(|s| s.rank).collect();
    assert_eq!(
        flagged,
        vec![1],
        "the under-loaded rank is the lone wait-share outlier: shares {:?}",
        path.ranks
            .iter()
            .map(|r| (r.rank, r.barrier_wait_ns))
            .collect::<Vec<_>>()
    );
    for straggler in &report.stragglers {
        assert!(straggler.z_score > 1.0);
        assert!(straggler.wait_share > report.mean_wait_share);
    }

    // A repeat of the run renders the identical report byte for byte.
    let repeat = analysis::straggler_report(&analysis::critical_path(&run(), 0), 1.0);
    assert_eq!(format!("{report:?}"), format!("{repeat:?}"));
}

// ---------------------------------------------------------------------------
// Diff: identical runs diff empty; a faulted run diffs non-empty vs clean.
// ---------------------------------------------------------------------------

#[test]
fn diff_is_empty_for_identical_seeded_runs() {
    let run = || {
        let backend = FaultInjectionBackend::new(lockstep(), gd_drop_policy());
        traced_records(&backend, restart_policy())
    };
    let (records_a, _) = run();
    let (records_b, _) = run();
    let diff = analysis::diff_jobs(&records_a, 0, &records_b, 0);
    assert!(diff.identical, "identical seeded runs must diff empty");
    assert_eq!(diff.iterations_a, diff.iterations_b);
    assert_eq!(diff.common_prefix, diff.iterations_a);
    assert!(diff.first_divergence.is_none());
    assert_eq!(diff.messages_only_in_a, 0);
    assert_eq!(diff.messages_only_in_b, 0);
}

#[test]
fn diff_localises_a_faulted_run_against_a_clean_one() {
    let clean = traced_records(&lockstep(), RecoveryPolicy::FailFast).0;
    let faulted = {
        let backend = FaultInjectionBackend::new(lockstep(), gd_drop_policy());
        traced_records(&backend, restart_policy()).0
    };
    let diff = analysis::diff_jobs(&clean, 0, &faulted, 0);
    // The reconstruction is bit-identical (the recovery contract); the
    // failed first attempt leaves its sends, the dropped one unpaired, on
    // the message-span side.
    assert!(
        diff.messages_only_in_a > 0 || diff.messages_only_in_b > 0,
        "the injected drop must leave a structural message-span residue"
    );
    assert!(!diff.identical);
}
