//! Backend-parametrized integration tests for the `RankComm` subsystem.
//!
//! The contract under test: both solvers run unchanged on every communication
//! backend; the threaded and lockstep backends produce **bit-identical**
//! reconstructions; and fault injection turns a lost pass message into a
//! detectable error (never a hang or a silently wrong volume).

use ptycho_cluster::{Cluster, ClusterTopology, CommError, FaultInjectionBackend, FaultPolicy};
use ptycho_core::gradient_decomp::passes::tags;
use ptycho_core::{GradientDecompositionSolver, JobContext, RecoveryPolicy, SolverConfig};
use std::time::Duration;

mod common;
use common::{assert_bit_identical, gd_solver, hve_solver, lockstep, small_problem};

#[test]
fn gd_solver_is_bit_identical_across_backends() {
    let ds = small_problem();
    let threaded = gd_solver(&ds)
        .run_job(
            &Cluster::new(ClusterTopology::summit()),
            RecoveryPolicy::FailFast,
            &JobContext::default(),
        )
        .expect("fault-free run completes");
    let lockstep = gd_solver(&ds)
        .run_job(
            &lockstep(),
            RecoveryPolicy::FailFast,
            &JobContext::default(),
        )
        .expect("fault-free run completes");
    assert_bit_identical(&threaded, &lockstep);
    // The analytic communication charges agree too (wire time does not
    // depend on the execution schedule).
    for (a, b) in threaded.time.iter().zip(&lockstep.time) {
        assert!((a.communication - b.communication).abs() < 1e-12);
    }
}

#[test]
fn hve_solver_is_bit_identical_across_backends() {
    let ds = small_problem();
    let solver = hve_solver(&ds);
    let threaded = solver
        .run_job(
            &Cluster::new(ClusterTopology::summit()),
            RecoveryPolicy::FailFast,
            &JobContext::default(),
        )
        .expect("fault-free run completes");
    let lockstep = solver
        .run_job(
            &lockstep(),
            RecoveryPolicy::FailFast,
            &JobContext::default(),
        )
        .expect("fault-free run completes");
    assert_bit_identical(&threaded, &lockstep);
}

#[test]
fn lockstep_reruns_are_bit_identical() {
    let ds = small_problem();
    let backend = lockstep();
    let a = gd_solver(&ds)
        .run_job(&backend, RecoveryPolicy::FailFast, &JobContext::default())
        .expect("fault-free run completes");
    let b = gd_solver(&ds)
        .run_job(&backend, RecoveryPolicy::FailFast, &JobContext::default())
        .expect("fault-free run completes");
    assert_bit_identical(&a, &b);
}

#[test]
fn dropped_pass_message_is_a_detectable_error_on_lockstep() {
    // Drop the first vertical-forward pass message from rank 0 to rank 2 (the
    // tile below it on a 2x2 grid). The receiver can never complete its
    // forward pass, every rank eventually blocks, and the lockstep scheduler
    // must *prove* the deadlock — not hang, not return a wrong volume.
    let ds = small_problem();
    let policy = FaultPolicy::reliable(0).drop_message(0, 2, tags::VERTICAL_FORWARD, 0);
    let faulty = FaultInjectionBackend::new(lockstep(), policy);

    let failure = gd_solver(&ds)
        .run_job(&faulty, RecoveryPolicy::FailFast, &JobContext::default())
        .expect_err("a dropped pass message must fail the run");
    assert!(
        matches!(failure.error, CommError::Deadlock { .. }),
        "expected a proven deadlock, got: {}",
        failure.error
    );
    let message = failure.to_string();
    assert!(
        message.contains("deadlock"),
        "failure must be self-describing: {message}"
    );
    assert_eq!(faulty.fault_count(), 1, "exactly one message was dropped");
}

#[test]
fn dropped_pass_message_times_out_on_threaded() {
    // Same fault on the threaded backend: the bounded receive turns the lost
    // message into a timeout error instead of an infinite hang.
    let ds = small_problem();
    let policy = FaultPolicy::reliable(0).drop_message(0, 2, tags::VERTICAL_FORWARD, 0);
    let threaded =
        Cluster::new(ClusterTopology::summit()).with_recv_timeout(Duration::from_millis(250));
    let faulty = FaultInjectionBackend::new(threaded, policy);

    let failure = gd_solver(&ds)
        .run_job(&faulty, RecoveryPolicy::FailFast, &JobContext::default())
        .expect_err("a dropped pass message must fail the run");
    assert!(
        matches!(
            failure.error,
            CommError::RecvTimeout { .. } | CommError::PeersGone { .. }
        ),
        "expected a timeout-class error, got: {}",
        failure.error
    );
}

#[test]
fn sends_to_an_already_failed_rank_do_not_panic_the_run() {
    // Drop rank 0's first horizontal-forward message to rank 1: rank 1 times
    // out and exits in round 1 while other ranks are still solving, so later
    // rounds post sends to a rank whose channel is gone. Those sends must be
    // buffered into the void and the run must still report the original
    // failure as a value — not panic in the sender's thread.
    let ds = small_problem();
    let config = SolverConfig {
        iterations: 2,
        halo_px: 20,
        ..SolverConfig::default()
    };
    let policy = FaultPolicy::reliable(0).drop_message(0, 1, tags::HORIZONTAL_FORWARD, 0);
    let threaded =
        Cluster::new(ClusterTopology::summit()).with_recv_timeout(Duration::from_millis(250));
    let faulty = FaultInjectionBackend::new(threaded, policy);

    let failure = GradientDecompositionSolver::new(&ds, config, (2, 2))
        .run_job(&faulty, RecoveryPolicy::FailFast, &JobContext::default())
        .expect_err("the dropped message must fail the run");
    assert!(
        matches!(
            failure.error,
            CommError::RecvTimeout { .. } | CommError::PeersGone { .. }
        ),
        "expected a timeout-class error, got: {}",
        failure.error
    );
}

#[test]
fn delayed_messages_do_not_corrupt_the_solve() {
    // A delayed message is released before its sender next blocks, and the
    // pass structure always posts a blocking receive between two sends on the
    // same (from, to, tag) stream — so per-stream order survives and the
    // reconstruction must equal the fault-free one.
    let ds = small_problem();
    let clean = gd_solver(&ds)
        .run_job(
            &lockstep(),
            RecoveryPolicy::FailFast,
            &JobContext::default(),
        )
        .expect("fault-free run completes");

    let policy = FaultPolicy::reliable(77).delay(0.5);
    let faulty = FaultInjectionBackend::new(lockstep(), policy);
    let noisy = gd_solver(&ds)
        .run_job(&faulty, RecoveryPolicy::FailFast, &JobContext::default())
        .expect("delays must not break the solve");
    assert!(faulty.fault_count() > 0, "delays must actually fire");
    assert_bit_identical(&clean, &noisy);
}

#[test]
fn duplicated_messages_are_ignored_by_single_round_traffic() {
    // With one synchronisation round per stream, tag-matched receives consume
    // exactly one copy per posted receive and spare duplicates rot harmlessly
    // in the mailbox. (Across *multiple* rounds a duplicate is a real fault —
    // a stale copy would match a later round's receive first — which is
    // exactly the class of bug the fault layer exists to expose.)
    let ds = small_problem();
    let config = SolverConfig {
        iterations: 1,
        halo_px: 20,
        ..SolverConfig::default()
    };
    let clean = GradientDecompositionSolver::new(&ds, config, (2, 2))
        .run_job(
            &lockstep(),
            RecoveryPolicy::FailFast,
            &JobContext::default(),
        )
        .expect("fault-free run completes");

    let policy = FaultPolicy::reliable(77).duplicate(0.5);
    let faulty = FaultInjectionBackend::new(lockstep(), policy);
    let noisy = GradientDecompositionSolver::new(&ds, config, (2, 2))
        .run_job(&faulty, RecoveryPolicy::FailFast, &JobContext::default())
        .expect("spare duplicates must not break a single-round solve");
    assert!(faulty.fault_count() > 0, "duplicates must actually fire");
    assert_bit_identical(&clean, &noisy);
}
