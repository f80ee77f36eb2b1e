//! Integration tests for the fault-tolerant iteration engine.
//!
//! The contract under test: a seeded drop policy that makes a plain
//! (`FailFast`) run fail with a [`RankFailure`] is healed by
//! [`RecoveryPolicy::Recover`] — the lost message surfaces as
//! [`CommError::MessageLost`] on either backend, every rank rolls back to its last
//! consistency-barrier checkpoint, and the re-run attempt draws fresh fault
//! decisions — and the recovered reconstruction is **bit-identical** to the
//! fault-free one, on both solvers and both backends.
//!
//! [`RankFailure`]: ptycho_cluster::RankFailure

use ptycho_cluster::{CommError, FaultInjectionBackend, FaultPolicy, RankFailure};
use ptycho_core::gradient_decomp::passes::tags;
use ptycho_core::{JobContext, RecoveryPolicy};
use ptycho_telemetry::{Telemetry, TelemetryEvent};

mod common;
use common::{
    assert_bit_identical, gd_solver, hve_solver, lockstep, restart_policy, small_problem, threaded,
    within_deadline,
};

/// The HVE voxel copy-paste tag (`halo_exchange::solver::TAG_VOXEL_PASTE`).
const TAG_VOXEL_PASTE: u64 = 0x20;

/// Drops the first message of the (0 → 2) vertical-forward stream, in the
/// first attempt only: the restarted attempt delivers it.
fn gd_drop_policy() -> FaultPolicy {
    FaultPolicy::reliable(0).drop_message(0, 2, tags::VERTICAL_FORWARD, 0)
}

/// What [`gd_drop_policy`] fails a run with: rank 2's receive of that
/// message meets its tombstone.
const GD_DROP: CommError = CommError::MessageLost {
    rank: 2,
    from: 0,
    tag: tags::VERTICAL_FORWARD,
};

/// Same construction for the baseline: drop the first voxel-paste message
/// rank 0 sends to rank 1.
fn hve_drop_policy() -> FaultPolicy {
    FaultPolicy::reliable(0).drop_message(0, 1, TAG_VOXEL_PASTE, 0)
}

/// What [`hve_drop_policy`] fails a run with.
const HVE_DROP: CommError = CommError::MessageLost {
    rank: 1,
    from: 0,
    tag: TAG_VOXEL_PASTE,
};

#[test]
fn gd_fail_fast_still_surfaces_rank_failure() {
    let ds = small_problem();
    let solver = gd_solver(&ds);
    let faulty = FaultInjectionBackend::new(lockstep(), gd_drop_policy());
    let failure = solver
        .run_job(&faulty, RecoveryPolicy::FailFast, &JobContext::default())
        .expect_err("FailFast must not heal a dropped pass message");
    assert_eq!(failure.error, GD_DROP);
}

#[test]
fn hve_fail_fast_still_surfaces_rank_failure() {
    let ds = small_problem();
    let solver = hve_solver(&ds);
    let faulty = FaultInjectionBackend::new(lockstep(), hve_drop_policy());
    let failure = solver
        .run_job(&faulty, RecoveryPolicy::FailFast, &JobContext::default())
        .expect_err("FailFast must not heal a dropped voxel paste");
    assert_eq!(failure.error, HVE_DROP);
}

#[test]
fn gd_drop_heals_by_one_restart_on_a_threaded_backend_without_a_timeout() {
    // A plain threaded backend: the drop's tombstone, not a clock, must
    // fail the receiver, so the heal takes milliseconds.
    within_deadline(|| {
        let ds = small_problem();
        let solver = gd_solver(&ds);
        let clean = solver
            .run_job(
                &lockstep(),
                RecoveryPolicy::FailFast,
                &JobContext::default(),
            )
            .expect("fault-free run completes");
        let faulty = FaultInjectionBackend::new(threaded(), gd_drop_policy());
        let recovered = solver
            .run_job(&faulty, restart_policy(), &JobContext::default())
            .expect("one restart heals the drop");
        assert_bit_identical(&clean, &recovered);
        assert_eq!(recovered.recovery.iteration_restarts, 1);
        assert_eq!(recovered.recovery.substitutions, 0);
    });
}

#[test]
fn fail_fast_reports_the_same_drop_on_both_backends() {
    // The same fault is the same failure, whichever transport carried it.
    within_deadline(|| {
        let ds = small_problem();
        let job = JobContext::default();
        let gd = gd_solver(&ds);
        let gd_failures = [
            gd.run_job(
                &FaultInjectionBackend::new(lockstep(), gd_drop_policy()),
                RecoveryPolicy::FailFast,
                &job,
            ),
            gd.run_job(
                &FaultInjectionBackend::new(threaded(), gd_drop_policy()),
                RecoveryPolicy::FailFast,
                &job,
            ),
        ]
        .map(|run| run.expect_err("FailFast must not heal a dropped pass message"));
        assert_eq!(gd_failures[0], gd_failures[1], "GD: lockstep vs threaded");
        assert_eq!(gd_failures[0].error, GD_DROP);
        let hve = hve_solver(&ds);
        let hve_failures = [
            hve.run_job(
                &FaultInjectionBackend::new(lockstep(), hve_drop_policy()),
                RecoveryPolicy::FailFast,
                &job,
            ),
            hve.run_job(
                &FaultInjectionBackend::new(threaded(), hve_drop_policy()),
                RecoveryPolicy::FailFast,
                &job,
            ),
        ]
        .map(|run| run.expect_err("FailFast must not heal a dropped voxel paste"));
        assert_eq!(
            hve_failures[0], hve_failures[1],
            "HVE: lockstep vs threaded"
        );
        assert_eq!(hve_failures[0].error, HVE_DROP);
    });
}

#[test]
fn gd_one_restart_heals_a_dropped_pass_message_on_both_backends() {
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
            recovered.recovery.iteration_restarts, 1,
            "{label}: exactly one checkpoint restart heals a single drop"
        );
        assert_eq!(recovered.recovery.substitutions, 0, "{label}");
    }
}

#[test]
fn gd_restart_recovers_when_retransmission_is_defeated() {
    // No sender re-sends a lost message, so the loss lasts the whole first
    // attempt. It hits iteration 0, before any checkpoint exists: the one
    // restart must start over from scratch and still reproduce the
    // fault-free volume bit for bit.
    let ds = small_problem();
    let solver = gd_solver(&ds);
    let clean = solver
        .run_job(
            &lockstep(),
            RecoveryPolicy::FailFast,
            &JobContext::default(),
        )
        .expect("fault-free run completes");

    let faulty = FaultInjectionBackend::new(lockstep(), gd_drop_policy());
    let telemetry = Telemetry::new();
    let job = JobContext {
        telemetry: Some(&telemetry),
        ..JobContext::default()
    };
    let recovered = solver
        .run_job(&faulty, restart_policy(), &job)
        .expect("the second attempt must succeed");
    assert_eq!(
        recovered.recovery.iteration_restarts, 1,
        "exactly one checkpoint restart"
    );
    assert_bit_identical(&clean, &recovered);
    for rank in 0..4 {
        let begins: Vec<(u64, u64)> = telemetry
            .records(rank)
            .iter()
            .filter_map(|r| match r.event {
                TelemetryEvent::IterationBegin { iteration, attempt } => Some((iteration, attempt)),
                _ => None,
            })
            .collect();
        assert_eq!(
            begins,
            [(0, 0), (0, 1), (1, 1)],
            "rank {rank}: the restart re-runs from iteration 0"
        );
    }
}

#[test]
fn hve_one_restart_heals_a_dropped_voxel_paste_on_both_backends() {
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
        assert_eq!(recovered.recovery.iteration_restarts, 1, "{label}");
    }
}

#[test]
fn gd_random_drops_on_pass_traffic_are_healed() {
    // A seeded probabilistic policy across every message class: whatever
    // it hits must be recovered and the result must stay exact.
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
        faulty.fault_count() > 0,
        "the seeded policy must actually drop something"
    );
    assert_bit_identical(&clean, &recovered);
}

#[test]
fn gd_restart_resumes_from_the_iteration_boundary_checkpoint() {
    // Drop the *second* message of the vertical-forward stream — one round
    // per iteration, so the failure hits iteration 1 after iteration 0
    // checkpointed. The restart must resume from the checkpoint (not
    // recompute iteration 0) and still reproduce the fault-free volume bit
    // for bit.
    let ds = small_problem();
    let solver = gd_solver(&ds);
    let clean = solver
        .run_job(
            &lockstep(),
            RecoveryPolicy::FailFast,
            &JobContext::default(),
        )
        .expect("fault-free run completes");

    let policy = FaultPolicy::reliable(0).drop_message(0, 2, tags::VERTICAL_FORWARD, 1);
    let faulty = FaultInjectionBackend::new(lockstep(), policy);
    let telemetry = Telemetry::new();
    let job = JobContext {
        telemetry: Some(&telemetry),
        ..JobContext::default()
    };
    let recovered = solver
        .run_job(&faulty, restart_policy(), &job)
        .expect("the second attempt must succeed");
    assert_eq!(recovered.recovery.iteration_restarts, 1);
    assert_bit_identical(&clean, &recovered);
    for rank in 0..4 {
        let begins: Vec<(u64, u64)> = telemetry
            .records(rank)
            .iter()
            .filter_map(|r| match r.event {
                TelemetryEvent::IterationBegin { iteration, attempt } => Some((iteration, attempt)),
                _ => None,
            })
            .collect();
        assert_eq!(
            begins,
            [(0, 0), (1, 0), (1, 1)],
            "rank {rank}: the restart re-runs iteration 1 only"
        );
    }
}

#[test]
fn hve_restart_resumes_from_the_iteration_boundary_checkpoint() {
    // One voxel paste per neighbour per iteration: dropping the second
    // (0 → 1) paste fails iteration 1 after iteration 0 checkpointed.
    let ds = small_problem();
    let solver = hve_solver(&ds);
    let clean = solver
        .run_job(
            &lockstep(),
            RecoveryPolicy::FailFast,
            &JobContext::default(),
        )
        .expect("fault-free run completes");

    let policy = FaultPolicy::reliable(0).drop_message(0, 1, TAG_VOXEL_PASTE, 1);
    let faulty = FaultInjectionBackend::new(lockstep(), policy);
    let telemetry = Telemetry::new();
    let job = JobContext {
        telemetry: Some(&telemetry),
        ..JobContext::default()
    };
    let recovered = solver
        .run_job(&faulty, restart_policy(), &job)
        .expect("the second attempt must succeed");
    assert_eq!(recovered.recovery.iteration_restarts, 1);
    assert_bit_identical(&clean, &recovered);
    let restarted = telemetry.records(1).iter().any(|r| {
        matches!(
            r.event,
            TelemetryEvent::IterationBegin {
                iteration: 1,
                attempt: 1
            }
        )
    });
    let recomputed = telemetry.records(1).iter().any(|r| {
        matches!(
            r.event,
            TelemetryEvent::IterationBegin {
                iteration: 0,
                attempt: 1
            }
        )
    });
    assert!(restarted && !recomputed, "only iteration 1 re-runs");
}

#[test]
fn a_persistent_drop_is_reported_lost_on_threaded() {
    // A message dropped in every attempt: each attempt's receive meets its
    // tombstone, and with the budget spent that loss — not its consequence
    // at a peer — surfaces, as it does on lockstep.
    let ds = small_problem();
    let policy = FaultPolicy::reliable(0)
        .drop(1.0)
        .on_tag(tags::VERTICAL_FORWARD);
    let faulty = FaultInjectionBackend::new(threaded(), policy);
    let failure = gd_solver(&ds)
        .run_job(&faulty, restart_policy(), &JobContext::default())
        .expect_err("a persistent drop must fail");
    assert_eq!(failure.error, GD_DROP);
}

#[test]
fn restart_budget_zero_surfaces_the_escalated_failure() {
    // Every vertical-forward message is dropped in every attempt, so no
    // restart can heal the run: with no budget, and with the standard one
    // spent, the transport's own failure must surface — never a hang,
    // never a wrong volume.
    let ds = small_problem();
    let solver = gd_solver(&ds);
    for max_iteration_restarts in [0, 2] {
        let policy = FaultPolicy::reliable(0)
            .drop(1.0)
            .on_tag(tags::VERTICAL_FORWARD);
        let faulty = FaultInjectionBackend::new(lockstep(), policy);
        let failure: RankFailure = solver
            .run_job(
                &faulty,
                RecoveryPolicy::Recover {
                    spares: 0,
                    max_iteration_restarts,
                },
                &JobContext::default(),
            )
            .expect_err("a persistent drop must fail");
        assert_eq!(
            failure.error, GD_DROP,
            "budget {max_iteration_restarts}: the loss itself must surface"
        );
    }
}

#[test]
fn hve_recovery_mode_is_bit_identical_across_backends_fault_free() {
    // The recovery machinery (per-iteration barriers + checkpoints) must not
    // perturb the numerics on either backend.
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
    assert!(on_lockstep.recovery.is_clean());
    assert!(on_threaded.recovery.is_clean());
}
