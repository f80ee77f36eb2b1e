//! The simulated clock is causal and deterministic.
//!
//! Every rank's `TimeBreakdown` is read from its simulated clock: modelled
//! compute per probe, analytic wire time per send, and the waits a receive
//! or a barrier books when a message or a peer arrives later than the rank.
//! None of it is measured, so the breakdowns — and the critical path over
//! them — are the same bits on the lockstep and the threaded backend, and on
//! a repeat of either run.

use ptycho_cluster::{CommBackend, FaultInjectionBackend, FaultPolicy, TimeBreakdown};
use ptycho_core::config::PassFrequency;
use ptycho_core::gradient_decomp::passes::tags;
use ptycho_core::{
    GradientDecompositionSolver, JobContext, ReconstructionResult, RecoveryPolicy, SolverConfig,
};
use ptycho_telemetry::{Telemetry, TelemetryConfig, TraceSummary};
use std::io::Write;
use std::sync::{Arc, Mutex};

mod common;
use common::{
    assert_bit_identical, golden_problem, hve_solver, lockstep, restart_policy, small_problem,
    threaded,
};

/// A breakdown as bits, so equal means equal to the last bit.
fn bits(t: &TimeBreakdown) -> [u64; 3] {
    [t.compute, t.wait, t.communication].map(f64::to_bits)
}

/// Every rank's breakdown, then the critical path, as bits.
fn clock_bits(result: &ReconstructionResult) -> Vec<[u64; 3]> {
    let mut all: Vec<[u64; 3]> = result.time.iter().map(bits).collect();
    all.push(bits(&result.critical_path()));
    all
}

/// `runs` are one solve on lockstep, threaded, lockstep and threaded: every
/// rank's breakdown and the critical path must agree bit for bit across
/// them, as must the reconstructions.
fn assert_one_clock(label: &str, runs: [ReconstructionResult; 4]) {
    let want = clock_bits(&runs[0]);
    for (run, other) in runs.iter().enumerate().skip(1) {
        assert_eq!(clock_bits(other), want, "{label}: run {run} moved a clock");
        assert_bit_identical(&runs[0], other);
    }
    let path = runs[0].critical_path();
    assert!(path.compute > 0.0, "{label}: compute is charged");
    assert!(path.communication > 0.0, "{label}: sends are charged");
}

/// Gradient Decomposition on a 3×3 grid of the golden problem, whose 25
/// locations leave the nine ranks unequal shares, under the recovering
/// policy, so every iteration ends at a barrier the ranks reach at
/// different simulated times.
fn gd_3x3(backend: &impl CommBackend, pass_frequency: PassFrequency) -> ReconstructionResult {
    let config = SolverConfig {
        iterations: 2,
        halo_px: 20,
        pass_frequency,
        ..SolverConfig::default()
    };
    GradientDecompositionSolver::new(&golden_problem(), config, (3, 3))
        .run_job(backend, restart_policy(), &JobContext::default())
        .expect("fault-free run completes")
}

#[test]
fn gd_3x3_clocks_agree_across_backends_and_runs() {
    for frequency in [PassFrequency::EveryProbe, PassFrequency::PerIteration(1)] {
        let runs = [
            gd_3x3(&lockstep(), frequency),
            gd_3x3(&threaded(), frequency),
            gd_3x3(&lockstep(), frequency),
            gd_3x3(&threaded(), frequency),
        ];
        // Unequal shares: a rank with fewer probes waits for its peers.
        assert!(runs[0].critical_path().wait > 0.0, "{frequency:?}");
        assert_one_clock(&format!("GD 3x3 {frequency:?}"), runs);
    }
}

#[test]
fn hve_2x2_clocks_agree_across_backends_and_runs() {
    let ds = small_problem();
    let run = |threaded_run: bool| {
        let job = JobContext::default();
        let solver = hve_solver(&ds);
        if threaded_run {
            solver.run_job(&threaded(), RecoveryPolicy::FailFast, &job)
        } else {
            solver.run_job(&lockstep(), RecoveryPolicy::FailFast, &job)
        }
        .expect("fault-free run completes")
    };
    assert_one_clock("HVE 2x2", [run(false), run(true), run(false), run(true)]);
}

/// An in-memory JSONL sink.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The 2×2 Gradient Decomposition solve with the first (0 → 2)
/// vertical-forward frame dropped, healed by one restart, traced: the
/// result and its JSONL.
fn restarted_after_a_drop(backend: impl CommBackend + Sync) -> (ReconstructionResult, Vec<u8>) {
    let policy = FaultPolicy::reliable(0).drop_message(0, 2, tags::VERTICAL_FORWARD, 0);
    let buf = SharedBuf::default();
    let telemetry = Telemetry::with_writer(TelemetryConfig::default(), Box::new(buf.clone()));
    let job = JobContext {
        telemetry: Some(&telemetry),
        ..JobContext::default()
    };
    let result = common::gd_solver(&small_problem())
        .run_job(
            &FaultInjectionBackend::new(backend, policy),
            restart_policy(),
            &job,
        )
        .expect("one restart heals the drop");
    assert_eq!(result.recovery.iteration_restarts, 1);
    let trace = buf.0.lock().unwrap().clone();
    (result, trace)
}

/// A restarted attempt's clock starts where the failed attempt's stopped:
/// the restart's clocks agree across backends and runs like a fault-free
/// run's, and its stamps stay monotonic, so the trace still parses.
#[test]
fn a_restart_after_a_seeded_drop_keeps_one_clock() {
    let runs = [
        restarted_after_a_drop(lockstep()),
        restarted_after_a_drop(threaded()),
        restarted_after_a_drop(lockstep()),
        restarted_after_a_drop(threaded()),
    ];
    for (run, (_, trace)) in runs.iter().enumerate() {
        let text = std::str::from_utf8(trace).expect("trace is UTF-8");
        let summary = TraceSummary::from_lines(text.lines())
            .unwrap_or_else(|e| panic!("run {run}: the restart's trace must parse: {e}"));
        assert_eq!(summary.truncated_lines, 0);
        assert_eq!(trace, &runs[0].1, "run {run}: the trace moved");
    }
    let [a, b, c, d] = runs.map(|(result, _)| result);
    let fault_free = common::gd_solver(&small_problem())
        .run_job(&lockstep(), restart_policy(), &JobContext::default())
        .expect("fault-free run completes");
    assert!(
        a.critical_path().total() > fault_free.critical_path().total(),
        "the failed attempt's time stays booked"
    );
    assert_one_clock("GD 2x2 restart after a drop", [a, b, c, d]);
}
