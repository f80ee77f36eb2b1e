//! Integration tests for the fault-tolerant iteration engine.
//!
//! The contract under test: a seeded drop policy that makes a plain
//! (`FailFast`) run fail with a [`RankFailure`] is healed by
//! `RetransmitThenRestart` — transparently by acknowledge/retransmit where
//! possible, by checkpoint restart where retransmission is defeated — and
//! the recovered reconstruction is **bit-identical** to the fault-free one,
//! on both solvers and both backends.

use ptycho_cluster::backend::reliable::wire_data_tag;
use ptycho_cluster::{CommError, FaultInjectionBackend, FaultPolicy, RankFailure};
use ptycho_core::gradient_decomp::passes::tags;
use ptycho_core::{JobContext, RecoveryPolicy};

mod common;
use common::{
    assert_bit_identical, gd_solver, hve_solver, lockstep, restart_policy, small_problem,
};

/// The HVE voxel copy-paste tag (`halo_exchange::solver::TAG_VOXEL_PASTE`).
const TAG_VOXEL_PASTE: u64 = 0x20;

// A dropped frame should be detected (and recovered) quickly, not after the
// 30 s loss-detection default.
fn threaded() -> ptycho_cluster::Cluster {
    common::threaded(150)
}

/// Drops the first frame of the (0 → 2) vertical-forward stream. In both
/// fail-fast and recovery mode the first wire frame of that stream carries
/// the raw tag value (sequence number and epoch are zero), so one policy
/// covers both modes; the retransmission occupies the next harness slot and
/// is delivered.
fn gd_drop_policy() -> FaultPolicy {
    FaultPolicy::reliable(0).drop_message(0, 2, tags::VERTICAL_FORWARD, 0)
}

/// Same construction for the baseline: drop the first voxel-paste frame
/// rank 0 sends to rank 1.
fn hve_drop_policy() -> FaultPolicy {
    FaultPolicy::reliable(0).drop_message(0, 1, TAG_VOXEL_PASTE, 0)
}

#[test]
fn gd_fail_fast_still_surfaces_rank_failure() {
    let ds = small_problem();
    let solver = gd_solver(&ds);
    let faulty = FaultInjectionBackend::new(lockstep(), gd_drop_policy());
    let failure = solver
        .run_job(&faulty, RecoveryPolicy::FailFast, &JobContext::default())
        .expect_err("FailFast must not heal a dropped pass message");
    assert!(matches!(failure.error, CommError::Deadlock { .. }));
}

#[test]
fn hve_fail_fast_still_surfaces_rank_failure() {
    let ds = small_problem();
    let solver = hve_solver(&ds);
    let faulty = FaultInjectionBackend::new(lockstep(), hve_drop_policy());
    let failure = solver
        .run_job(&faulty, RecoveryPolicy::FailFast, &JobContext::default())
        .expect_err("FailFast must not heal a dropped voxel paste");
    assert!(matches!(failure.error, CommError::Deadlock { .. }));
}

#[test]
fn gd_retransmit_heals_dropped_pass_message_on_both_backends() {
    let ds = small_problem();
    let solver = gd_solver(&ds);
    let clean = solver
        .run_job(
            &lockstep(),
            RecoveryPolicy::FailFast,
            &JobContext::default(),
        )
        .expect("fault-free run completes");

    for (label, recovered) in [
        (
            "lockstep",
            solver.run_job(
                &FaultInjectionBackend::new(lockstep(), gd_drop_policy()),
                restart_policy(),
                &JobContext::default(),
            ),
        ),
        (
            "threaded",
            solver.run_job(
                &FaultInjectionBackend::new(threaded(), gd_drop_policy()),
                restart_policy(),
                &JobContext::default(),
            ),
        ),
    ] {
        let recovered = recovered
            .unwrap_or_else(|failure| panic!("{label}: recovery must succeed, got {failure}"));
        assert_bit_identical(&clean, &recovered);
        assert_eq!(
            recovered.recovery.iteration_restarts, 0,
            "{label}: retransmission alone must heal a single drop"
        );
        assert!(
            recovered.recovery.reliable.retransmits > 0,
            "{label}: the dropped frame must have been retransmitted"
        );
    }
}

#[test]
fn hve_retransmit_heals_dropped_voxel_paste_on_both_backends() {
    let ds = small_problem();
    let solver = hve_solver(&ds);
    let clean = solver
        .run_job(
            &lockstep(),
            RecoveryPolicy::FailFast,
            &JobContext::default(),
        )
        .expect("fault-free run completes");

    for (label, recovered) in [
        (
            "lockstep",
            solver.run_job(
                &FaultInjectionBackend::new(lockstep(), hve_drop_policy()),
                restart_policy(),
                &JobContext::default(),
            ),
        ),
        (
            "threaded",
            solver.run_job(
                &FaultInjectionBackend::new(threaded(), hve_drop_policy()),
                restart_policy(),
                &JobContext::default(),
            ),
        ),
    ] {
        let recovered = recovered
            .unwrap_or_else(|failure| panic!("{label}: recovery must succeed, got {failure}"));
        assert_bit_identical(&clean, &recovered);
        assert_eq!(recovered.recovery.iteration_restarts, 0, "{label}");
        assert!(recovered.recovery.reliable.retransmits > 0, "{label}");
    }
}

#[test]
fn gd_random_drops_on_pass_traffic_are_healed() {
    // A seeded probabilistic policy across every message class (data frames
    // and acknowledgements alike): whatever it hits must be recovered and
    // the result must stay exact.
    let ds = small_problem();
    let solver = gd_solver(&ds);
    let clean = solver
        .run_job(
            &lockstep(),
            RecoveryPolicy::FailFast,
            &JobContext::default(),
        )
        .expect("fault-free run completes");

    let faulty = FaultInjectionBackend::new(lockstep(), FaultPolicy::reliable(99).drop(0.05));
    let recovered = solver
        .run_job(&faulty, restart_policy(), &JobContext::default())
        .expect("a 5% drop rate must be recoverable");
    assert!(
        faulty.trace().fault_count() > 0,
        "the seeded policy must actually drop something"
    );
    assert_bit_identical(&clean, &recovered);
}

#[test]
fn gd_restart_recovers_when_retransmission_is_defeated() {
    // Drop *every* epoch-0 frame whose wire tag is the first
    // vertical-forward sequence slot — including retransmissions, which
    // reuse the same wire tag. The reliable layer must exhaust its budget,
    // the engine must restart from the last checkpoint (here: from scratch,
    // the failure is in iteration 0), and the epoch-1 attempt's distinct
    // wire tags escape the policy.
    let ds = small_problem();
    let solver = gd_solver(&ds);
    let clean = solver
        .run_job(
            &lockstep(),
            RecoveryPolicy::FailFast,
            &JobContext::default(),
        )
        .expect("fault-free run completes");

    let policy =
        FaultPolicy::reliable(0)
            .drop(1.0)
            .on_tag(wire_data_tag(tags::VERTICAL_FORWARD, 0, 0));
    let faulty = FaultInjectionBackend::new(lockstep(), policy);
    let recovered = solver
        .run_job(&faulty, restart_policy(), &JobContext::default())
        .expect("the epoch-1 attempt must succeed");
    assert_eq!(
        recovered.recovery.iteration_restarts, 1,
        "exactly one checkpoint restart"
    );
    assert_bit_identical(&clean, &recovered);
}

#[test]
fn gd_restart_resumes_from_the_iteration_boundary_checkpoint() {
    // Same construction, but the doomed wire tag is the *second* sequence
    // slot of the vertical-forward stream — one round per iteration, so the
    // failure hits iteration 1 after iteration 0 checkpointed. The restart
    // must resume from the checkpoint (not recompute iteration 0) and still
    // reproduce the fault-free volume bit for bit.
    let ds = small_problem();
    let solver = gd_solver(&ds);
    let clean = solver
        .run_job(
            &lockstep(),
            RecoveryPolicy::FailFast,
            &JobContext::default(),
        )
        .expect("fault-free run completes");

    let policy =
        FaultPolicy::reliable(0)
            .drop(1.0)
            .on_tag(wire_data_tag(tags::VERTICAL_FORWARD, 1, 0));
    let faulty = FaultInjectionBackend::new(lockstep(), policy);
    let recovered = solver
        .run_job(&faulty, restart_policy(), &JobContext::default())
        .expect("the epoch-1 attempt must succeed");
    assert_eq!(recovered.recovery.iteration_restarts, 1);
    assert_bit_identical(&clean, &recovered);
}

#[test]
fn restart_budget_zero_surfaces_the_escalated_failure() {
    // With retransmission defeated and no restart budget, the run must fail
    // with the reliable layer's escalation error — never hang, never return
    // a wrong volume.
    let ds = small_problem();
    let solver = gd_solver(&ds);
    let policy =
        FaultPolicy::reliable(0)
            .drop(1.0)
            .on_tag(wire_data_tag(tags::VERTICAL_FORWARD, 0, 0));
    let faulty = FaultInjectionBackend::new(lockstep(), policy);
    let failure: RankFailure = solver
        .run_job(
            &faulty,
            RecoveryPolicy::RetransmitThenRestart {
                max_iteration_restarts: 0,
            },
            &JobContext::default(),
        )
        .expect_err("no restart budget and a persistent drop must fail");
    assert!(
        matches!(failure.error, CommError::RecoveryExhausted { .. }),
        "expected the escalation error, got: {}",
        failure.error
    );
}

#[test]
fn hve_recovery_mode_is_bit_identical_across_backends_fault_free() {
    // The recovery machinery (reliable wrapping + per-iteration barriers +
    // checkpoints) must not perturb the numerics on either backend.
    let ds = small_problem();
    let solver = hve_solver(&ds);
    let clean = solver
        .run_job(
            &lockstep(),
            RecoveryPolicy::FailFast,
            &JobContext::default(),
        )
        .expect("fault-free run completes");
    let on_lockstep = solver
        .run_job(&lockstep(), restart_policy(), &JobContext::default())
        .expect("fault-free");
    let on_threaded = solver
        .run_job(&threaded(), restart_policy(), &JobContext::default())
        .expect("fault-free");
    assert_bit_identical(&clean, &on_lockstep);
    assert_bit_identical(&clean, &on_threaded);
    assert!(on_lockstep.recovery.reliable.retransmits == 0);
    assert!(on_lockstep.recovery.is_clean() || on_lockstep.recovery.reliable.acks_sent > 0);
}
