//! Backend-parametrized integration tests for the `RankComm` subsystem.
//!
//! The contract under test: both solvers run unchanged on every communication
//! backend; the threaded and lockstep backends produce **bit-identical**
//! reconstructions; and fault injection turns a lost pass message into a
//! detectable error (never a hang or a silently wrong volume).

use ptycho_cluster::{
    Cluster, ClusterTopology, CommBackend, CommError, FaultInjectionBackend, FaultPolicy,
    RankFailure,
};
use ptycho_core::gradient_decomp::passes::tags;
use ptycho_core::{GradientDecompositionSolver, JobContext, RecoveryPolicy, SolverConfig};

mod common;
use common::{assert_bit_identical, gd_solver, hve_solver, lockstep, small_problem, threaded};

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

/// Drops the first vertical-forward pass message from rank 0 to rank 2 (the
/// tile below it on a 2x2 grid). Its tombstone fails rank 2's receive of it,
/// the other ranks fail on rank 2's exit, and the run reports the loss
/// itself — the same failure on every backend, not a hang and not a wrong
/// volume.
fn assert_dropped_pass_message_is_reported_lost<B: CommBackend + Sync>(backend: B) {
    let ds = small_problem();
    let policy = FaultPolicy::reliable(0).drop_message(0, 2, tags::VERTICAL_FORWARD, 0);
    let faulty = FaultInjectionBackend::new(backend, policy);
    let failure = gd_solver(&ds)
        .run_job(&faulty, RecoveryPolicy::FailFast, &JobContext::default())
        .expect_err("a dropped pass message must fail the run");
    assert_eq!(
        failure,
        RankFailure {
            rank: 2,
            error: CommError::MessageLost {
                rank: 2,
                from: 0,
                tag: tags::VERTICAL_FORWARD,
            },
            failed_ranks: 4,
        }
    );
    let message = failure.to_string();
    assert!(
        message.contains("lost in transit"),
        "failure must be self-describing: {message}"
    );
    assert_eq!(faulty.fault_count(), 1, "exactly one message was dropped");
}

#[test]
fn dropped_pass_message_is_a_detectable_error_on_lockstep() {
    assert_dropped_pass_message_is_reported_lost(lockstep());
}

#[test]
fn dropped_pass_message_times_out_on_threaded() {
    // The threaded backend keeps no receive timer: the tombstone ends the run
    // at once, with the same failure the lockstep scheduler reports.
    assert_dropped_pass_message_is_reported_lost(threaded());
}

#[test]
fn sends_to_an_already_failed_rank_do_not_panic_the_run() {
    // Drop rank 0's first horizontal-forward message to rank 1: rank 1 meets
    // the tombstone and exits in round 1 while other ranks are still
    // solving, so later rounds post sends to a rank whose channel is gone.
    // Those sends must be buffered into the void and the run must still
    // report the original failure as a value — not panic in the sender's
    // thread.
    let ds = small_problem();
    let config = SolverConfig {
        iterations: 2,
        halo_px: 20,
        ..SolverConfig::default()
    };
    let policy = FaultPolicy::reliable(0).drop_message(0, 1, tags::HORIZONTAL_FORWARD, 0);
    let faulty = FaultInjectionBackend::new(threaded(), policy);

    let failure = GradientDecompositionSolver::new(&ds, config, (2, 2))
        .run_job(&faulty, RecoveryPolicy::FailFast, &JobContext::default())
        .expect_err("the dropped message must fail the run");
    assert_eq!(
        failure.error,
        CommError::MessageLost {
            rank: 1,
            from: 0,
            tag: tags::HORIZONTAL_FORWARD,
        }
    );
}
