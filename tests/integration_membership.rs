//! Integration tests for rank membership and spare-rank substitution.
//!
//! The contract under test: a **permanently dead rank** — which defeats both
//! retransmission (the node answers nothing) and checkpoint restarts (it
//! dies again every attempt) — is healed by
//! [`RecoveryPolicy::SubstituteSpare`]: a standby spare node adopts the dead
//! node's tile from its last consistency-barrier checkpoint, the membership
//! epoch is bumped, and the finished reconstruction is **bit-identical** to
//! the fault-free one, on both solvers and both backends. Without spares the
//! legacy policies keep their exact pre-membership behaviour.

use ptycho_cluster::backend::reliable::wire_data_tag;
use ptycho_cluster::membership::frames;
use ptycho_cluster::{
    CommBackend, CommError, FaultInjectionBackend, FaultPolicy, LockstepBackend, RankComm,
    ReliableComm, ReliableStats, SharedTile,
};
use ptycho_core::{JobContext, RecoveryPolicy};

mod common;
use common::{
    assert_bit_identical, gd_solver, hve_solver, lockstep, small_problem, substitute_policy,
};

// A dead rank's silence should be detected (and the substitution triggered)
// quickly, not after the 30 s loss-detection default.
fn threaded() -> ptycho_cluster::Cluster {
    common::threaded(100)
}

/// Kills node 1 early in iteration 0 (its second send decision, counting
/// acknowledgements — well before the first consistency barrier).
fn early_death() -> FaultPolicy {
    FaultPolicy::reliable(0).kill_rank(1, 1)
}

/// Kills node 1 in a later iteration: by its seventh send decision the rank
/// has completed iteration 0 (data sends + acks + heartbeat), so the spare
/// must resume from the iteration-0 checkpoint rather than from scratch.
fn late_death() -> FaultPolicy {
    FaultPolicy::reliable(0).kill_rank(1, 6)
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
            healed.recovery.membership_epoch, 1,
            "{label}: one promotion bumps the membership epoch once"
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
    let healed = solver
        .run_job(&faulty, substitute_policy(1), &JobContext::default())
        .expect("substitution must heal a late death");
    assert_bit_identical(&clean, &healed);
    assert_eq!(healed.recovery.substitutions, 1);
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
fn fault_free_spare_mode_is_bit_identical_and_counts_heartbeats() {
    // Configuring a spare pool must not perturb the numerics: a fault-free
    // SubstituteSpare run matches the plain run bit for bit, on both
    // backends, and the ring heartbeat ledger is complete (every beat sent
    // was observed by its ring successor).
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
        assert_eq!(run.recovery.membership_epoch, 0, "{label}");
        // 4 ranks x 2 iterations, one ring beat each.
        assert_eq!(run.recovery.heartbeats_sent, 8, "{label}");
        assert_eq!(
            run.recovery.heartbeats_observed, 8,
            "{label}: every beat sent before a completed barrier is observable after it"
        );
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
    assert!(
        matches!(
            failure.error,
            CommError::RankDead { .. } | CommError::Deadlock { .. }
        ),
        "unexpected error: {}",
        failure.error
    );

    // RetransmitThenRestart: the node dies again on every attempt (same
    // node, same slot, same send count), so the restart budget runs out and
    // the run fails — exactly the pre-membership behaviour.
    let failure = solver
        .run_job(
            &FaultInjectionBackend::new(lockstep(), early_death()),
            RecoveryPolicy::RetransmitThenRestart {
                max_iteration_restarts: 2,
            },
            &JobContext::default(),
        )
        .expect_err("restarts cannot heal a permanently dead rank");
    assert!(
        matches!(
            failure.error,
            CommError::RankDead { .. } | CommError::RecoveryExhausted { .. }
        ),
        "unexpected error: {}",
        failure.error
    );
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

#[test]
fn heartbeats_never_perturb_reliable_seq_accounting() {
    // Two identical reliable exchanges, one of them interleaving control
    // frames with the data traffic. A surgical drop pinned on an exact
    // *data* wire tag must hit the same logical message in both runs, the
    // retransmission must heal it identically, and the reliable layer's
    // stats (sequence counters, acks, retransmits) must not move by a
    // single unit — control frames are invisible to sequence accounting.
    fn exchange(with_heartbeats: bool) -> Vec<(Vec<f64>, ReliableStats)> {
        let policy = FaultPolicy::reliable(0).drop_message(0, 1, wire_data_tag(0x7, 1, 0), 0);
        let backend = FaultInjectionBackend::new(LockstepBackend::default(), policy);
        let outcomes = backend
            .run::<SharedTile, (Vec<f64>, ReliableStats), _>(2, |ctx| {
                let mut rc = ReliableComm::new(ctx, 0);
                let me = rc.rank();
                let peer = 1 - me;
                let mut got = Vec::new();
                for round in 0..3u64 {
                    if with_heartbeats {
                        rc.isend_control(
                            peer,
                            frames::heartbeat_tag(0, 0, round),
                            SharedTile::default(),
                        );
                    }
                    rc.isend(
                        peer,
                        0x7,
                        SharedTile::new(vec![(me as u64 * 10 + round) as f64]),
                    );
                    got.push(rc.recv(peer, 0x7)?.values()[0]);
                    if with_heartbeats {
                        let _ = rc.try_recv_control(peer, frames::heartbeat_tag(0, 0, round));
                    }
                }
                rc.barrier()?;
                Ok((got, rc.stats()))
            })
            .expect("the dropped frame is healed by retransmission");
        outcomes.into_iter().map(|o| o.result).collect()
    }

    let without = exchange(false);
    let with_heartbeats = exchange(true);
    assert_eq!(
        without, with_heartbeats,
        "control frames must not shift data seqs, acks or retransmit counts"
    );
    assert!(
        without.iter().any(|(_, stats)| stats.retransmits > 0),
        "the pinned drop must actually have been healed"
    );
}

// The assert fires inside the rank body, so it surfaces through the
// backend's thread join.
#[test]
#[should_panic(expected = "rank thread panicked")]
fn control_sends_reject_data_tags() {
    let backend = LockstepBackend::default();
    let _ = backend.run::<SharedTile, (), _>(2, |ctx| {
        let mut rc = ReliableComm::new(ctx, 0);
        if rc.rank() == 0 {
            // Tag 0x7 has no control bit: the reliable layer must refuse to
            // smuggle it around sequence accounting.
            rc.isend_control(1, 0x7, SharedTile::default());
        }
        Ok(())
    });
}
