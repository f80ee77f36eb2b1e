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
//!    kill faults, and on the free-running threaded backend by healing the
//!    same faults to the lockstep goldens.
//! 3. **Content** — the event stream tells the story the run actually had:
//!    dense per-rank sequence numbers, a monotonic simulated clock, one
//!    `iteration_begin`/`iteration_end` pair per iteration, a `rank_dead` /
//!    `spare_promoted` pair when a node dies and a spare heals it, and job
//!    lifecycle events from the multi-tenant engine whose metrics snapshot
//!    agrees with the trace.

use ptycho_cluster::{CrashPhase, FaultInjectionBackend, FaultPolicy, HardwareModel, RankFailure};
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

/// Runs `solve` with a durable recorder attached, returning the emitted
/// JSONL and the reconstruction.
fn traced_run(
    solve: impl FnOnce(&JobContext<'_>) -> Result<ReconstructionResult, RankFailure>,
) -> (Vec<u8>, ReconstructionResult) {
    let buf = SharedBuf::default();
    let telemetry = Telemetry::with_writer(TelemetryConfig::default(), Box::new(buf.clone()));
    let job = JobContext {
        telemetry: Some(&telemetry),
        ..JobContext::default()
    };
    let result = solve(&job).expect("traced run must complete");
    (buf.contents(), result)
}

/// Runs the standard 2×2 Gradient Decomposition problem with a durable
/// recorder attached, returning the emitted JSONL and the reconstruction.
fn traced_gd_run<B: ptycho_cluster::CommBackend>(
    backend: &B,
    policy: RecoveryPolicy,
) -> (Vec<u8>, ReconstructionResult) {
    traced_run(|job| gd_solver(&small_problem()).run_job(backend, policy, job))
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
        summary
            .records
            .iter()
            .any(|r| matches!(r.event, TelemetryEvent::IterationBegin { attempt: 1, .. })),
        "the healing restart must be visible in the trace"
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
    // The spare writes its own stream: node 4 (the first standby after the
    // four workers) adopts slot 1.
    let streams: Vec<u64> = summary.streams.keys().map(|&(_, rank)| rank).collect();
    assert!(
        streams.contains(&4),
        "the promoted spare (node 4) must own a telemetry stream, got {streams:?}"
    );
}

// ---------------------------------------------------------------------------
// Cross-build pins: the determinism tests above compare two runs of one
// build; these FNV-1a goldens pin the durable JSONL bytes themselves, so a
// refactor of the rank loop cannot reorder or restamp an event unnoticed.
// The run goldens were re-recorded once, when every per-probe evaluation
// moved to complex f32; only the `cost` fields of those traces changed. They
// were re-recorded again when the acknowledge/retransmit layer was deleted:
// its ack records went, data tags lost their sequence bits, and the stamps,
// correlation ids and slot sizes the acks moved changed with them. They, and
// the data-path goldens, were re-recorded once more when each rank's state
// moved to complex f32: only `iteration_end.cost` and, in the resumed trace,
// `checkpoint_persisted.bytes` (a slot holds 8 bytes a voxel) changed.
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
    assert_trace_hash(&trace, 0xadf7_e0ab_8d59_a2e6, "fail-fast");
}

#[test]
fn restart_trace_under_drop_matches_golden_hash() {
    let backend = FaultInjectionBackend::new(lockstep(), gd_drop_policy());
    let (trace, _) = traced_gd_run(&backend, restart_policy());
    assert_trace_hash(&trace, 0xf608_9ab3_8859_9400, "restart under drop");
}

/// The two runs above emit only some kinds. This pins the line of every
/// kind, with full-range values: tags carrying bit 62 and bit 63,
/// `u64::MAX`, a negative priority, and a non-integral and a NaN cost.
#[test]
fn every_kind_matches_golden_hash() {
    use TelemetryEvent::*;
    const BIT_62: u64 = 1 << 62;
    const BIT_63: u64 = 1 << 63;
    const MAX: u64 = u64::MAX;
    let events = [
        CommSend {
            to: 1,
            tag: BIT_62 | 5,
            bytes: 4096,
            corr: (3 << 32) | 17,
        },
        CommRecv {
            from: 2,
            tag: BIT_63 | 7,
            bytes: MAX,
            corr: MAX,
        },
        CommDrop {
            to: 3,
            tag: BIT_62 | 9,
            bytes: 8,
        },
        BarrierWait { iteration: 4 },
        IterationBegin {
            iteration: 4,
            attempt: 255,
        },
        IterationEnd {
            iteration: 4,
            attempt: 1,
            cost: 1.0 / 3.0,
            compute_ns: MAX,
            comm_ns: 20,
        },
        IterationEnd {
            iteration: 5,
            attempt: 0,
            cost: f64::NAN,
            compute_ns: 0,
            comm_ns: MAX,
        },
        Checkpoint { iteration: 4 },
        RankDead { node: MAX },
        SparePromoted { slot: 1, node: 6 },
        JobSubmitted {
            job: 42,
            priority: -7,
            slots: 4,
        },
        JobAdmitted {
            job: 42,
            queue_depth: 3,
        },
        JobCancelled { job: MAX },
        JobCompleted {
            job: 42,
            iterations: 8,
        },
        CheckpointPersisted {
            iteration: 4,
            seq: MAX,
            bytes: 4096,
        },
        CheckpointRestored {
            iteration: 4,
            seq: 9,
        },
    ];
    let kinds: std::collections::BTreeSet<&str> = events.iter().map(|e| e.kind()).collect();
    assert_eq!(kinds.len(), 15, "one record of every kind");
    let mut trace = String::new();
    for (i, event) in (0u64..).zip(events) {
        trace.push_str(&record_to_line(&ptycho_telemetry::TelemetryRecord {
            rank: if i == 0 { MAX } else { i % 3 },
            seq: i,
            sim_ns: 1_000 * i,
            job: if i == 1 { MAX } else { 7 },
            event,
        }));
    }
    assert_trace_hash(trace.as_bytes(), 0xb10b_5c8f_1b17_a22e, "every kind");
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

/// Recomputes each rank's modeled compute constant from the same public
/// inputs the engine uses — the rank's extended tile and `probes[rank]`, the
/// probes it evaluates per iteration: `compute_ns` must be exactly its
/// cumulative sum and `comm_ns` the remainder of the stamp. This pins the
/// fields to their meanings — both are positive and monotone, so weaker
/// assertions would pass even with the two swapped.
fn assert_iteration_ends_follow_the_modeled_clock(
    ds: &Dataset,
    telemetry: &Telemetry,
    grid: &ptycho_core::TileGrid,
    probes: &[usize],
) {
    let (slices, _, _) = ds.object_shape();
    let window = ds.model().window_px();
    for (rank, &probes) in probes.iter().enumerate() {
        let tile = grid.tile(rank);
        let working_set = (tile.extended_area() * slices * BYTES_PER_COMPLEX) as f64;
        let per_probe =
            HardwareModel::summit_v100().probe_gradient_time(window, slices, working_set);
        let per_iteration = (probes as f64 * per_probe * 1e9) as u64;
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

/// A Gradient Decomposition rank evaluates the probes it owns.
#[test]
fn iteration_end_pins_compute_and_comm_to_the_modeled_clock() {
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
    let owned: Vec<usize> = (0..solver.grid().num_tiles())
        .map(|rank| solver.grid().tile(rank).owned_locations.len())
        .collect();
    assert_iteration_ends_follow_the_modeled_clock(&ds, &telemetry, solver.grid(), &owned);
}

/// A Halo Voxel Exchange rank evaluates its owned probes plus the redundant
/// rings around them, over its wider halo.
#[test]
fn hve_iteration_end_pins_compute_and_comm_to_the_modeled_clock() {
    let ds = small_problem();
    let solver = common::hve_solver(&ds);
    let telemetry = Telemetry::new();
    let job = JobContext {
        telemetry: Some(&telemetry),
        ..JobContext::default()
    };
    solver
        .run_job(&lockstep(), RecoveryPolicy::FailFast, &job)
        .expect("run completes");
    let assigned: Vec<usize> = solver.assigned().iter().map(Vec::len).collect();
    assert_iteration_ends_follow_the_modeled_clock(&ds, &telemetry, solver.grid(), &assigned);
}

/// The lockstep run that loses node 1 and heals it by promoting a spare.
fn substitution_trace() -> Vec<u8> {
    let policy = FaultPolicy::reliable(5).kill_rank(1, 1);
    let backend = FaultInjectionBackend::new(lockstep(), policy);
    traced_gd_run(&backend, substitute_policy(1)).0
}

/// A lockstep run that loses node 1 and heals it by promoting a spare: the
/// trace holds the death, the promotion and every checkpoint, on the dead
/// node's stream and on the spare's.
#[test]
fn substitution_trace_matches_golden_hash() {
    let trace = substitution_trace();
    let summary = validate_jsonl(&trace);
    for kind in ["rank_dead", "spare_promoted", "checkpoint"] {
        assert!(summary.kind_count(kind) >= 1, "the trace must hold {kind}");
    }
    assert_trace_hash(&trace, 0x0511_0ecd_9289_2bf2, "substitution");
}

/// No timer decides a threaded failure: every rank fails at the same receive
/// or barrier as on lockstep, so the healed runs trace byte for byte what
/// their lockstep goldens pin (`restart_trace_under_drop_matches_golden_hash`,
/// `substitution_trace_matches_golden_hash`).
#[test]
fn threaded_heals_trace_their_lockstep_goldens() {
    let backend = FaultInjectionBackend::new(common::threaded(), gd_drop_policy());
    let (trace, _) = traced_gd_run(&backend, restart_policy());
    assert_trace_hash(&trace, 0xf608_9ab3_8859_9400, "threaded restart under drop");
    let policy = FaultPolicy::reliable(5).kill_rank(1, 1);
    let backend = FaultInjectionBackend::new(common::threaded(), policy);
    let (trace, _) = traced_gd_run(&backend, substitute_policy(1));
    assert_trace_hash(&trace, 0x0511_0ecd_9289_2bf2, "threaded substitution");
}

/// A durable job killed by a whole-process crash at its first barrier, then
/// resumed from its store, each with a recorder attached. Returns the
/// killed run's trace and the resumed run's.
fn kill_and_resume_traces() -> [Vec<u8>; 2] {
    // Tests run in parallel: each call gets a store of its own.
    static CALLS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let call = CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "ptycho-telemetry-resume-{}-{call}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let config = SolverConfig {
        iterations: 2,
        halo_px: 20,
        ..SolverConfig::default()
    };
    let spec = JobSpec::new(Dataset::synthesize(SyntheticConfig::tiny()), config, (2, 2))
        .with_checkpoint_dir(&dir)
        .with_fault_policy(
            FaultPolicy::reliable(7).kill_process_at_barrier(0, CrashPhase::AfterRename),
        );
    let recorder = || {
        let buf = SharedBuf::default();
        let telemetry = Telemetry::with_writer(TelemetryConfig::default(), Box::new(buf.clone()));
        (buf, Arc::new(telemetry))
    };
    let engine = JobEngine::new(4);

    let (killed_buf, killed_telemetry) = recorder();
    let killed = engine
        .submit(spec.with_telemetry(killed_telemetry))
        .expect("fits the fleet")
        .wait();
    assert_eq!(killed.state, JobState::Failed);
    let (resumed_buf, resumed_telemetry) = recorder();
    let resumed = engine
        .resume_with_telemetry(&dir, Some(resumed_telemetry))
        .expect("resumable")
        .wait();
    assert_eq!(resumed.state, JobState::Completed);
    let _ = std::fs::remove_dir_all(&dir);

    let resumed_trace = resumed_buf.contents();
    let summary = validate_jsonl(&resumed_trace);
    assert_eq!(summary.kind_count("checkpoint_restored"), 4, "one per slot");
    assert!(summary.kind_count("checkpoint_persisted") >= 1);
    [killed_buf.contents(), resumed_trace]
}

/// The traces hold the persisted epochs and the restore that picks the
/// killed run up.
#[test]
fn kill_and_resume_traces_match_golden_hash() {
    assert_trace_hash(
        &kill_and_resume_traces().concat(),
        0xe287_d669_ef08_e32e,
        "kill and resume",
    );
}

/// The kinds [`data_path_projection`] keeps: every kind a run's data
/// traffic, barriers, iterations, checkpoints, membership changes and job
/// lifecycle emit.
const DATA_PATH_KINDS: [&str; 15] = [
    "comm_send",
    "comm_recv",
    "comm_drop",
    "barrier_wait",
    "iteration_begin",
    "iteration_end",
    "checkpoint",
    "rank_dead",
    "spare_promoted",
    "job_submitted",
    "job_admitted",
    "job_cancelled",
    "job_completed",
    "checkpoint_persisted",
    "checkpoint_restored",
];

/// Hashes traces projected onto their data path, so that a change to
/// control-frame or acknowledgement traffic alone leaves the hash fixed. The
/// projection keeps only records of [`DATA_PATH_KINDS`], drops the transport
/// records of control frames (tags with bit 62 or bit 63 set), masks every
/// data-frame tag to its 24-bit base tag (the bits above it once carried a
/// stream sequence number and a restart attempt), and zeroes every stamp
/// that other frames move: `seq`, `sim_ns`, correlation ids, the cumulative
/// `iteration_end.comm_ns`, and `checkpoint_persisted.bytes` (a slot file
/// holds one fault-cursor entry per wire stream).
fn data_path_projection(traces: &[Vec<u8>]) -> u64 {
    const CONTROL_BITS: u64 = (1 << 62) | (1 << 63);
    const BASE_TAG: u64 = (1 << 24) - 1;
    let summaries: Vec<TraceSummary> = traces.iter().map(|t| validate_jsonl(t)).collect();
    let mut projected = String::new();
    for record in summaries.iter().flat_map(|s| &s.records) {
        if !DATA_PATH_KINDS.contains(&record.event.kind()) {
            continue;
        }
        let mut event = record.event;
        match &mut event {
            TelemetryEvent::CommSend { tag, corr, .. }
            | TelemetryEvent::CommRecv { tag, corr, .. } => {
                if *tag & CONTROL_BITS != 0 {
                    continue;
                }
                *tag &= BASE_TAG;
                *corr = 0;
            }
            TelemetryEvent::CommDrop { tag, .. } => {
                if *tag & CONTROL_BITS != 0 {
                    continue;
                }
                *tag &= BASE_TAG;
            }
            TelemetryEvent::IterationEnd { comm_ns, .. } => *comm_ns = 0,
            TelemetryEvent::CheckpointPersisted { bytes, .. } => *bytes = 0,
            _ => {}
        }
        projected.push_str(&record_to_line(&ptycho_telemetry::TelemetryRecord {
            seq: 0,
            sim_ns: 0,
            event,
            ..*record
        }));
    }
    fnv1a64(projected.as_bytes())
}

/// The substitution run's data path: its messages, clocks' compute half,
/// checkpoints, death and promotion. Node 1 dies at its second send
/// decision: its horizontal-backward send to node 0 in iteration 0.
#[test]
fn substitution_data_path_matches_golden_hash() {
    let actual = data_path_projection(&[substitution_trace()]);
    assert_eq!(
        actual, 0xddee_e219_6f36_642d,
        "substitution data path moved (new hash {actual:#018x})"
    );
}

/// The kill/resume pair's data path, persisted epochs and restores included.
#[test]
fn kill_and_resume_data_path_matches_golden_hash() {
    let actual = data_path_projection(&kill_and_resume_traces());
    assert_eq!(
        actual, 0xb70a_e227_56e6_acbe,
        "kill/resume data path moved (new hash {actual:#018x})"
    );
}

/// Fault-free lockstep runs of both solvers under the recovering policy, the
/// path every service job takes: their messages, barriers, checkpoints and
/// iteration costs.
#[test]
fn fault_free_recovering_data_paths_match_golden_hashes() {
    let (gd, _) = traced_gd_run(&lockstep(), restart_policy());
    let (hve, _) = traced_run(|job| {
        common::hve_solver(&small_problem()).run_job(&lockstep(), restart_policy(), job)
    });
    for (label, trace, expected) in [
        ("gradient-decomposition", gd, 0x963a_2240_6d7e_9d79),
        ("halo-voxel-exchange", hve, 0xc356_e74a_7ab1_0e33),
    ] {
        let actual = data_path_projection(&[trace]);
        assert_eq!(
            actual, expected,
            "{label}: recovering data path moved (new hash {actual:#018x})"
        );
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

/// A disk that fills up: accepts `budget` more bytes, then fails every
/// write with `ENOSPC`.
struct FullDisk {
    budget: usize,
}

impl Write for FullDisk {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.budget == 0 {
            return Err(std::io::Error::from_raw_os_error(28));
        }
        let n = buf.len().min(self.budget);
        self.budget -= n;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A tenant whose trace disk fills mid-run loses trace lines, not its run,
/// and not its neighbour's: the service stays up for later submissions.
#[test]
fn a_full_disk_costs_trace_lines_not_the_service() {
    let dataset = Dataset::synthesize(SyntheticConfig::tiny());
    let config = SolverConfig {
        iterations: 2,
        halo_px: 20,
        ..SolverConfig::default()
    };
    let full_spec = || JobSpec::new(dataset.clone(), config, (2, 1));
    let neighbour_spec = || JobSpec::new(dataset.clone(), config, (1, 2));
    let solo = |spec: JobSpec| {
        JobEngine::new(2)
            .submit(spec)
            .expect("solo submission accepted")
            .wait()
            .result
            .expect("solo run completes")
    };
    let full_solo = solo(full_spec());
    let neighbour_solo = solo(neighbour_spec());

    let full = Arc::new(Telemetry::with_writer(
        TelemetryConfig::default(),
        Box::new(FullDisk { budget: 2_000 }),
    ));
    let buf = SharedBuf::default();
    let neighbour = Arc::new(Telemetry::with_writer(
        TelemetryConfig {
            job_id: 1,
            ..TelemetryConfig::default()
        },
        Box::new(buf.clone()),
    ));
    let engine = JobEngine::paused(4);
    let full_job = engine
        .submit(full_spec().with_telemetry(Arc::clone(&full)))
        .expect("submission accepted");
    let neighbour_job = engine
        .submit(neighbour_spec().with_telemetry(Arc::clone(&neighbour)))
        .expect("submission accepted");
    engine.start_admitting();
    let full_report = full_job.wait();
    let neighbour_report = neighbour_job.wait();
    assert_eq!(full_report.state, JobState::Completed);
    assert_eq!(neighbour_report.state, JobState::Completed);
    assert_bit_identical(&full_solo, &full_report.result.expect("volume"));
    assert_bit_identical(&neighbour_solo, &neighbour_report.result.expect("volume"));

    assert!(full.lost_records() > 0, "the disk must fill mid-run");
    assert!(full.lost_records() < full.total_recorded());
    assert_eq!(neighbour.lost_records(), 0);
    let summary = validate_jsonl(&buf.contents());
    assert_eq!(summary.total_events() as u64, neighbour.total_recorded());
    let registry = engine.metrics_snapshot();
    assert_eq!(
        registry.counter("telemetry_lost_records_total"),
        Some(full.lost_records())
    );
    assert!(engine.fleet_is_conserved());
    let later = engine.submit(full_spec()).expect("the engine still admits");
    assert_eq!(later.wait().state, JobState::Completed);
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
