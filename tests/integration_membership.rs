//! Integration tests for rank membership and spare-rank substitution.
//!
//! The contract under test: a **permanently dead rank** — which defeats a
//! plain checkpoint restart (it dies again every attempt) — is healed by
//! [`RecoveryPolicy::Recover`] with spares: a standby spare node adopts the
//! dead node's tile from its last consistency-barrier checkpoint, the
//! membership epoch is bumped, and the finished reconstruction is
//! **bit-identical** to the fault-free one, on both solvers and both
//! backends. Without spares the run fails with a typed error.

use ptycho_cluster::{CommError, FaultInjectionBackend, FaultPolicy};
use ptycho_core::{JobContext, RecoveryPolicy};
use ptycho_telemetry::{Telemetry, TelemetryEvent};

mod common;
use common::{
    assert_bit_identical, gd_solver, hve_solver, lockstep, small_problem, substitute_policy,
    threaded, within_deadline,
};

/// Kills node 1 early in iteration 0 (its second send decision — well
/// before the first consistency barrier).
fn early_death() -> FaultPolicy {
    FaultPolicy::reliable(0).kill_rank(1, 1)
}

/// Kills node 1 in a later iteration: each iteration costs the rank two
/// send decisions (its two halo sends), so its third falls in iteration 1,
/// after its iteration-0 checkpoint, and the spare must resume from that
/// checkpoint rather than from scratch.
fn late_death() -> FaultPolicy {
    FaultPolicy::reliable(0).kill_rank(1, 2)
}

#[test]
fn gd_spare_substitution_heals_a_dead_rank_on_both_backends() {
    let ds = small_problem();
    let solver = gd_solver(&ds);
    let clean = solver
        .run_job(
            &lockstep(),
            RecoveryPolicy::FailFast,
            &JobContext::default(),
        )
        .expect("fault-free run completes");

    for (label, backend_kind) in [("lockstep", 0), ("threaded", 1)] {
        let healed = if backend_kind == 0 {
            solver.run_job(
                &FaultInjectionBackend::new(lockstep(), early_death()),
                substitute_policy(1),
                &JobContext::default(),
            )
        } else {
            solver.run_job(
                &FaultInjectionBackend::new(threaded(), early_death()),
                substitute_policy(1),
                &JobContext::default(),
            )
        };
        let healed = healed
            .unwrap_or_else(|failure| panic!("{label}: substitution must heal, got {failure}"));
        assert_bit_identical(&clean, &healed);
        assert_eq!(
            healed.recovery.substitutions, 1,
            "{label}: exactly one spare promotion"
        );
        assert_eq!(
            healed.recovery.iteration_restarts, 0,
            "{label}: a death consumes a spare, not the restart budget"
        );
    }
}

#[test]
fn gd_substitution_resumes_from_the_adopted_checkpoint() {
    // The death lands after iteration 0's consistency barrier, so the
    // promoted spare must adopt the dead node's iteration-0 checkpoint and
    // the engine must not recompute iteration 0 — and the volume must still
    // come out bit-identical to the fault-free run.
    let ds = small_problem();
    let solver = gd_solver(&ds);
    let clean = solver
        .run_job(
            &lockstep(),
            RecoveryPolicy::FailFast,
            &JobContext::default(),
        )
        .expect("fault-free run completes");

    let faulty = FaultInjectionBackend::new(lockstep(), late_death());
    let telemetry = Telemetry::new();
    let job = JobContext {
        telemetry: Some(&telemetry),
        ..JobContext::default()
    };
    let healed = solver
        .run_job(&faulty, substitute_policy(1), &job)
        .expect("substitution must heal a late death");
    assert_bit_identical(&clean, &healed);
    assert_eq!(healed.recovery.substitutions, 1);

    // Node 1's own stream: it died after checkpointing iteration 0. A change
    // in which messages count as sends moves the death across the
    // checkpoint here instead of silently.
    let events: Vec<TelemetryEvent> = telemetry.records(1).iter().map(|r| r.event).collect();
    let position = |wanted: TelemetryEvent| {
        events
            .iter()
            .position(|&e| e == wanted)
            .unwrap_or_else(|| panic!("node 1's stream must hold {wanted:?}: {events:?}"))
    };
    assert!(
        position(TelemetryEvent::Checkpoint { iteration: 0 })
            < position(TelemetryEvent::RankDead { node: 1 }),
        "node 1 must die after its iteration-0 checkpoint: {events:?}"
    );
}

#[test]
fn hve_spare_substitution_heals_a_dead_rank_on_both_backends() {
    let ds = small_problem();
    let solver = hve_solver(&ds);
    let clean = solver
        .run_job(
            &lockstep(),
            RecoveryPolicy::FailFast,
            &JobContext::default(),
        )
        .expect("fault-free run completes");

    for (label, backend_kind) in [("lockstep", 0), ("threaded", 1)] {
        let healed = if backend_kind == 0 {
            solver.run_job(
                &FaultInjectionBackend::new(lockstep(), early_death()),
                substitute_policy(1),
                &JobContext::default(),
            )
        } else {
            solver.run_job(
                &FaultInjectionBackend::new(threaded(), early_death()),
                substitute_policy(1),
                &JobContext::default(),
            )
        };
        let healed = healed
            .unwrap_or_else(|failure| panic!("{label}: substitution must heal, got {failure}"));
        assert_bit_identical(&clean, &healed);
        assert_eq!(healed.recovery.substitutions, 1, "{label}");
    }
}

#[test]
fn hve_kill_heals_by_one_substitution_on_a_threaded_backend_without_a_timeout() {
    // A plain threaded backend: the dead rank's exit notices, not a clock,
    // must end its peers' waits, so the heal takes milliseconds.
    within_deadline(|| {
        let ds = small_problem();
        let solver = hve_solver(&ds);
        let clean = solver
            .run_job(
                &lockstep(),
                RecoveryPolicy::FailFast,
                &JobContext::default(),
            )
            .expect("fault-free run completes");
        let faulty = FaultInjectionBackend::new(threaded(), early_death());
        let healed = solver
            .run_job(&faulty, substitute_policy(1), &JobContext::default())
            .expect("one substitution heals the death");
        assert_bit_identical(&clean, &healed);
        assert_eq!(healed.recovery.substitutions, 1);
        assert_eq!(healed.recovery.iteration_restarts, 0);
    });
}

#[test]
fn fault_free_spare_mode_is_bit_identical() {
    // Configuring a spare pool must not perturb the numerics: a fault-free
    // recovering run matches the plain run bit for bit, on both
    // backends.
    let ds = small_problem();
    let solver = gd_solver(&ds);
    let clean = solver
        .run_job(
            &lockstep(),
            RecoveryPolicy::FailFast,
            &JobContext::default(),
        )
        .expect("fault-free run completes");

    let on_lockstep = solver
        .run_job(&lockstep(), substitute_policy(2), &JobContext::default())
        .expect("fault-free");
    let on_threaded = solver
        .run_job(&threaded(), substitute_policy(2), &JobContext::default())
        .expect("fault-free");
    for (label, run) in [("lockstep", &on_lockstep), ("threaded", &on_threaded)] {
        assert_bit_identical(&clean, run);
        assert_eq!(run.recovery.substitutions, 0, "{label}");
    }
}

#[test]
fn rank_death_without_spares_keeps_the_legacy_policies_intact() {
    let ds = small_problem();
    let solver = gd_solver(&ds);

    // FailFast: the first attempt surfaces the failure.
    let failure = solver
        .run_job(
            &FaultInjectionBackend::new(lockstep(), early_death()),
            RecoveryPolicy::FailFast,
            &JobContext::default(),
        )
        .expect_err("FailFast must not heal a dead rank");
    assert_eq!(failure.error, CommError::RankDead { rank: 1 });

    // Recover without spares: a restart would meet the same death (same
    // node, same slot, same send count), so the restart budget is not spent
    // on it and the run reports the empty pool.
    let failure = solver
        .run_job(
            &FaultInjectionBackend::new(lockstep(), early_death()),
            RecoveryPolicy::Recover {
                spares: 0,
                max_iteration_restarts: 2,
            },
            &JobContext::default(),
        )
        .expect_err("restarts cannot heal a permanently dead rank");
    assert!(
        matches!(
            failure.error,
            CommError::SparesExhausted { dead_node: 1, .. }
        ),
        "unexpected error: {}",
        failure.error
    );
}

#[test]
fn a_substitution_does_not_spend_the_restart_budget() {
    // A death is healed by the spare pool alone: no restart budget needed.
    let ds = small_problem();
    let solver = gd_solver(&ds);
    let clean = solver
        .run_job(
            &lockstep(),
            RecoveryPolicy::FailFast,
            &JobContext::default(),
        )
        .expect("fault-free run completes");
    let healed = solver
        .run_job(
            &FaultInjectionBackend::new(lockstep(), late_death()),
            RecoveryPolicy::Recover {
                spares: 1,
                max_iteration_restarts: 0,
            },
            &JobContext::default(),
        )
        .expect("a spare heals the death without a restart budget");
    assert_bit_identical(&clean, &healed);
    assert_eq!(healed.recovery.substitutions, 1);
    assert_eq!(healed.recovery.iteration_restarts, 0);
}

#[test]
fn exhausted_spare_pool_surfaces_a_typed_error() {
    // A death with zero spares configured must fail with the typed
    // SparesExhausted error — not hang, not loop, not return a wrong volume.
    let ds = small_problem();
    let solver = gd_solver(&ds);
    let failure = solver
        .run_job(
            &FaultInjectionBackend::new(lockstep(), early_death()),
            substitute_policy(0),
            &JobContext::default(),
        )
        .expect_err("no spares: the death cannot be healed");
    match failure.error {
        CommError::SparesExhausted { dead_node, .. } => assert_eq!(dead_node, 1),
        other => panic!("expected SparesExhausted, got {other}"),
    }
}
