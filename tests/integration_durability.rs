//! Durability integration tests: process-kill restart.
//!
//! The contract under test extends the recovery suite's bit-identity rule
//! across a **process boundary**: a job whose whole process dies at a
//! durable checkpoint commit, resumed from the on-disk store by a fresh
//! engine via [`JobEngine::resume`], must finish **bit-identical** to the
//! same job never having been killed — at every barrier, in every crash
//! phase, on both solvers and both backends, and through a
//! mid-substitution kill (the adopted spare's checkpoint round-trips
//! through disk).

use ptycho_cluster::{CommError, CrashPhase, FaultPolicy, MembershipView, RankFailure};
use ptycho_core::durability::ByteWriter;
use ptycho_core::{
    CheckpointPayload, CheckpointStore, DurabilityError, DurabilityHook, EpochManifest,
    GradientDecompositionSolver, HaloVoxelExchangeSolver, JobContext, JobEngine, JobError,
    JobReport, JobSpec, JobState, ReconstructionResult, RecoveredEpoch, RecoveryPolicy, SlotRecord,
    SolverConfig, SolverMethod,
};
use ptycho_fft::CArray3;
use ptycho_sim::dataset::{Dataset, SyntheticConfig};
use std::path::PathBuf;

mod common;
use common::assert_bit_identical;

/// A fresh scratch directory for one test's checkpoint store.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ptycho-durable-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn tiny() -> Dataset {
    Dataset::synthesize(SyntheticConfig::tiny())
}

/// A 2-iteration spec for `method` over the tiny dataset — two consistency
/// barriers, so the store commits epochs 0 and 1.
fn spec_for(method: SolverMethod) -> JobSpec {
    let config = match method {
        SolverMethod::GradientDecomposition => SolverConfig {
            iterations: 2,
            halo_px: 20,
            ..SolverConfig::default()
        },
        SolverMethod::HaloVoxelExchange => SolverConfig {
            iterations: 2,
            hve_extra_probe_rows: 1,
            ..SolverConfig::default()
        },
    };
    JobSpec::new(tiny(), config, (2, 2)).with_method(method)
}

/// Runs `spec` to completion on a dedicated engine and returns the result —
/// the uninterrupted baseline every kill/resume cycle must reproduce.
fn uninterrupted(spec: JobSpec) -> ReconstructionResult {
    let report = JobEngine::new(8)
        .submit(spec)
        .expect("fits the fleet")
        .wait();
    assert_eq!(report.state, JobState::Completed);
    report.result.expect("completed")
}

fn assert_process_killed(report: &JobReport, expect_seq: u64) {
    assert_eq!(report.state, JobState::Failed);
    match report.error.as_ref().expect("killed jobs carry an error") {
        JobError::Failed(failure) => match failure.error {
            CommError::ProcessKilled { seq, .. } => {
                assert_eq!(seq, expect_seq, "kill must strike the armed barrier")
            }
            ref other => panic!("expected ProcessKilled, got {other:?}"),
        },
        other => panic!("expected JobError::Failed, got {other}"),
    }
}

/// The tentpole matrix: kill the process at **every** barrier (epoch 0 and
/// epoch 1 of a 2-iteration run), for both solvers on both backends, and
/// pin each resumed run bit-identical to the uninterrupted lockstep service
/// run. The lockstep leg kills and resumes through the service; the
/// threaded leg through the engine directly
/// ([`kill_and_resume_on_threaded`]).
#[test]
fn kill_at_every_barrier_resumes_bit_identical_for_both_solvers_and_backends() {
    for (method_label, method) in [
        ("gd", SolverMethod::GradientDecomposition),
        ("hve", SolverMethod::HaloVoxelExchange),
    ] {
        let baseline = uninterrupted(spec_for(method));
        for kill_seq in 0..2u64 {
            let label = format!("{method_label}-lockstep-seq{kill_seq}");
            let dir = scratch(&label);
            let engine = JobEngine::new(8);
            let killed = engine
                .submit(
                    spec_for(method)
                        .with_checkpoint_dir(&dir)
                        .with_fault_policy(
                            FaultPolicy::reliable(7)
                                .kill_process_at_barrier(kill_seq, CrashPhase::AfterRename),
                        ),
                )
                .expect("fits the fleet")
                .wait();
            assert_process_killed(&killed, kill_seq);

            let resumed = engine.resume(&dir).expect("resumable").wait();
            assert_eq!(resumed.state, JobState::Completed, "{label}");
            assert_bit_identical(&baseline, resumed.result.as_ref().unwrap());
            let _ = std::fs::remove_dir_all(&dir);

            let label = format!("{method_label}-threaded-seq{kill_seq}");
            let resumed = kill_and_resume_on_threaded(&spec_for(method), kill_seq, &label);
            assert_bit_identical(&baseline, &resumed);
        }
    }
}

/// Runs `spec`'s solver on a threaded [`Cluster`](ptycho_cluster::Cluster)
/// through the engine directly, under the service's recovery policy.
fn run_on_threaded(
    spec: &JobSpec,
    durability: DurabilityHook<'_>,
) -> Result<ReconstructionResult, RankFailure> {
    let policy = RecoveryPolicy::Recover {
        spares: 0,
        max_iteration_restarts: 2,
    };
    let job = JobContext {
        durability: Some(durability),
        ..JobContext::default()
    };
    let backend = common::threaded();
    match spec.method {
        SolverMethod::GradientDecomposition => {
            GradientDecompositionSolver::new(&spec.dataset, spec.config, spec.grid)
                .run_job(&backend, policy, &job)
        }
        SolverMethod::HaloVoxelExchange => {
            HaloVoxelExchangeSolver::new(&spec.dataset, spec.config, spec.grid)
                .expect("feasible decomposition")
                .run_job(&backend, policy, &job)
        }
    }
}

/// Kills a threaded engine run of `spec` at barrier `kill_seq`, then, as a
/// fresh process would, reopens its store and resumes from the epoch that
/// survived. Returns the resumed result.
fn kill_and_resume_on_threaded(spec: &JobSpec, kill_seq: u64, label: &str) -> ReconstructionResult {
    let dir = scratch(label);
    let store = CheckpointStore::open(&dir).expect("store opens");
    let killed = run_on_threaded(
        spec,
        DurabilityHook {
            store: &store,
            resume: None,
            kill: Some((kill_seq, CrashPhase::AfterRename)),
            spec: &[],
        },
    );
    match killed {
        Err(RankFailure {
            error: CommError::ProcessKilled { seq, .. },
            ..
        }) => assert_eq!(seq, kill_seq, "{label}: kill must strike the armed barrier"),
        Err(failure) => panic!("{label}: expected ProcessKilled, got {failure}"),
        Ok(_) => panic!("{label}: the armed kill never struck"),
    }
    drop(store);

    let store = CheckpointStore::open(&dir).expect("store reopens");
    let epoch = store
        .recover()
        .expect("scan succeeds")
        .epoch
        .expect("the killed barrier's epoch was committed");
    let resumed = run_on_threaded(
        spec,
        DurabilityHook {
            store: &store,
            resume: Some(&epoch),
            kill: None,
            spec: &[],
        },
    )
    .unwrap_or_else(|failure| panic!("{label}: resume must complete, got {failure}"));
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    resumed
}

/// Each crash phase leaves the documented on-disk state — `BeforeRename`
/// and `DuringRename` fall back to the previous epoch (the torn manifest is
/// rejected by checksum with a typed reason, never trusted), `AfterRename`
/// resumes from the committed one — and every phase's resume is
/// bit-identical to the uninterrupted run.
#[test]
fn every_crash_phase_resumes_bit_identical() {
    let baseline = uninterrupted(spec_for(SolverMethod::GradientDecomposition));
    for (phase, surviving_seq) in [
        (CrashPhase::BeforeRename, 0),
        (CrashPhase::DuringRename, 0),
        (CrashPhase::AfterRename, 1),
    ] {
        let dir = scratch(&format!("phase-{phase:?}"));
        let engine = JobEngine::new(8);
        let killed = engine
            .submit(
                spec_for(SolverMethod::GradientDecomposition)
                    .with_checkpoint_dir(&dir)
                    .with_fault_policy(FaultPolicy::reliable(3).kill_process_at_barrier(1, phase)),
            )
            .expect("fits the fleet")
            .wait();
        assert_process_killed(&killed, 1);

        // The store sees exactly what the phase documents.
        let recovery = CheckpointStore::open(&dir)
            .expect("store reopens")
            .recover()
            .expect("scan succeeds");
        let epoch = recovery.epoch.expect("an epoch survives every phase");
        assert_eq!(epoch.manifest.seq, surviving_seq, "phase {phase:?}");
        match phase {
            CrashPhase::AfterRename => assert!(recovery.rejected.is_empty()),
            CrashPhase::DuringRename => {
                assert_eq!(recovery.rejected.len(), 1);
                assert!(
                    recovery.rejected[0].1.contains("checksum mismatch"),
                    "torn manifests must be rejected by checksum, got: {}",
                    recovery.rejected[0].1
                );
            }
            CrashPhase::BeforeRename => assert_eq!(recovery.rejected.len(), 1),
        }

        let resumed = engine.resume(&dir).expect("resumable").wait();
        assert_eq!(resumed.state, JobState::Completed, "phase {phase:?}");
        assert_bit_identical(&baseline, resumed.result.as_ref().unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Torn-write tolerance at the service level: truncating the newest
/// manifest mid-byte makes resume fall back to the previous epoch (and
/// still finish bit-identical); corrupting the fallback too yields a typed
/// rejection listing every bad epoch — never a panic, never a silent wrong
/// resume.
#[test]
fn torn_newest_checkpoint_falls_back_and_total_corruption_is_a_typed_error() {
    let spec = spec_for(SolverMethod::GradientDecomposition);
    let baseline = uninterrupted(spec.clone());

    let dir = scratch("torn");
    let engine = JobEngine::new(8);
    let clean = engine
        .submit(spec.with_checkpoint_dir(&dir))
        .expect("fits the fleet")
        .wait();
    assert_eq!(clean.state, JobState::Completed);
    assert_bit_identical(&baseline, clean.result.as_ref().unwrap());

    // Tear the newest manifest mid-byte, as a crash mid-write would.
    let newest = dir.join("epoch-0000000001").join("manifest.ckpt");
    let bytes = std::fs::read(&newest).expect("newest manifest exists");
    std::fs::write(&newest, &bytes[..bytes.len() - 3]).expect("truncate");

    let resumed = engine.resume(&dir).expect("falls back to epoch 0").wait();
    assert_eq!(resumed.state, JobState::Completed);
    assert_bit_identical(&baseline, resumed.result.as_ref().unwrap());

    // The resumed run committed epoch 2 and pruned epoch 0, leaving the
    // torn epoch 1 plus the fresh epoch 2. Flip a byte in epoch 2's slot
    // file too: now no epoch verifies, and resume must refuse with every
    // rejection reason — never panic, never trust a bad byte.
    let slot = dir.join("epoch-0000000002").join("slot-0.ckpt");
    let mut bytes = std::fs::read(&slot).expect("newest slot exists");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&slot, &bytes).expect("corrupt");
    match JobEngine::new(8).resume(&dir) {
        Err(JobError::Rejected { reason }) => {
            assert!(
                reason.contains("no valid checkpoint epoch"),
                "got: {reason}"
            );
            assert!(reason.contains("checksum mismatch"), "got: {reason}");
        }
        Ok(_) => panic!("fully corrupted store must not resume"),
        Err(other) => panic!("expected Rejected, got {other}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A mid-substitution kill: rank 1's node dies early (healed by promoting a
/// shared-pool spare), then the whole process is killed at the first barrier
/// the substituted attempt commits. The resumed run must adopt the
/// checkpointed membership — the spare's slot state round-trips through
/// disk — and finish bit-identical to the same job killed never.
#[test]
fn mid_substitution_kill_round_trips_the_adopted_checkpoint() {
    let node_death = FaultPolicy::reliable(5).kill_rank(1, 1);
    let spec = spec_for(SolverMethod::GradientDecomposition).with_fault_policy(node_death.clone());
    let baseline = {
        let report = JobEngine::new(8)
            .submit(spec.clone())
            .expect("fits the fleet")
            .wait();
        assert_eq!(report.state, JobState::Completed);
        let result = report.result.expect("healed");
        assert_eq!(result.recovery.substitutions, 1, "the death must heal");
        result
    };

    let dir = scratch("mid-substitution");
    let engine = JobEngine::new(8);
    let killed = engine
        .submit(
            spec.clone()
                .with_checkpoint_dir(&dir)
                .with_fault_policy(node_death.kill_process_at_barrier(0, CrashPhase::AfterRename)),
        )
        .expect("fits the fleet")
        .wait();
    assert_process_killed(&killed, 0);

    // The surviving epoch was committed by the substituted attempt: its
    // membership has already promoted the spare.
    let epoch = CheckpointStore::open(&dir)
        .expect("store reopens")
        .recover()
        .expect("scan succeeds")
        .epoch
        .expect("epoch 0 committed");
    assert_eq!(epoch.manifest.substitutions, 1);

    let resumed = engine.resume(&dir).expect("resumable").wait();
    assert_eq!(resumed.state, JobState::Completed);
    let resumed = resumed.result.expect("completed");
    assert_eq!(resumed.recovery.substitutions, 1);
    assert_bit_identical(&baseline, &resumed);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Checkpointing is invisible in the numbers: the extra persistence
/// barriers change no message payloads, so a checkpointed run equals the
/// plain one bit for bit (already implied by the kill matrix, pinned
/// directly here for both solvers).
#[test]
fn checkpointing_does_not_perturb_the_reconstruction() {
    for method in [
        SolverMethod::GradientDecomposition,
        SolverMethod::HaloVoxelExchange,
    ] {
        let plain = uninterrupted(spec_for(method));
        let dir = scratch(&format!("invisible-{method:?}"));
        let checkpointed = uninterrupted(spec_for(method).with_checkpoint_dir(&dir));
        assert_bit_identical(&plain, &checkpointed);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Resuming an empty or missing store is a typed refusal, not a panic.
#[test]
fn resuming_an_empty_store_is_rejected() {
    let dir = scratch("empty-resume");
    match JobEngine::new(8).resume(&dir) {
        Err(JobError::Rejected { reason }) => {
            assert!(
                reason.contains("no valid checkpoint epoch"),
                "got: {reason}"
            )
        }
        Ok(_) => panic!("an empty store must not resume"),
        Err(other) => panic!("expected Rejected, got {other}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Lockfile guard: one store owner at a time, stale locks reclaimed.
// ---------------------------------------------------------------------------

/// Two live handles on the same store directory are a concurrency bug the
/// lockfile turns into a typed error instead of silent corruption.
#[test]
fn double_open_of_a_checkpoint_store_is_a_typed_lock_error() {
    let dir = scratch("lock-double");
    let first = CheckpointStore::open(&dir).expect("first open acquires the lock");
    match CheckpointStore::open(&dir) {
        Err(DurabilityError::Locked { owner_pid, path }) => {
            assert_eq!(owner_pid, std::process::id(), "the lock names its owner");
            assert!(path.ends_with("lock"), "got: {}", path.display());
        }
        Ok(_) => panic!("a second open of a live store must be refused"),
        Err(other) => panic!("expected Locked, got {other}"),
    }
    drop(first);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Dropping the store releases the lock, so sequential open → drop → open
/// cycles (the shape of every kill/resume drill) need no manual cleanup.
#[test]
fn dropping_the_store_releases_the_lock() {
    let dir = scratch("lock-drop");
    let store = CheckpointStore::open(&dir).expect("first open");
    let lock_path = store.lock_path().to_path_buf();
    assert!(lock_path.exists(), "the lock file exists while held");
    drop(store);
    assert!(!lock_path.exists(), "drop must remove the lock file");
    CheckpointStore::open(&dir).expect("reopen after drop succeeds");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A lock left behind by a killed process (its PID no longer runs) must be
/// detected as stale and reclaimed — a `kill -9` mid-run cannot brick the
/// store. PIDs near `u32::MAX` are far above any real `pid_max`.
#[test]
fn stale_lock_from_a_dead_process_is_reclaimed() {
    let dir = scratch("lock-stale");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    std::fs::write(dir.join("lock"), format!("{}\n", u32::MAX - 7)).expect("plant stale lock");
    let store = CheckpointStore::open(&dir).expect("a dead owner's lock must be reclaimed");
    let owned = std::fs::read_to_string(store.lock_path()).expect("lock readable");
    assert_eq!(
        owned.trim().parse::<u32>().ok(),
        Some(std::process::id()),
        "the reclaimed lock must name the new owner"
    );
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

/// An unparsable lock file (torn write at kill time) is stale by
/// definition: no live owner can be identified, so open reclaims it.
#[test]
fn torn_lock_file_is_reclaimed() {
    let dir = scratch("lock-torn");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    std::fs::write(dir.join("lock"), b"gar\xFFbage").expect("plant torn lock");
    CheckpointStore::open(&dir).expect("a torn lock must be reclaimed");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The engine surfaces the lock as a typed rejection: resuming a store that
/// another live engine still holds fails loudly instead of corrupting it.
#[test]
fn resume_of_a_held_store_is_rejected() {
    let dir = scratch("lock-resume");
    let engine = JobEngine::new(8);
    let killed = engine
        .submit(
            spec_for(SolverMethod::GradientDecomposition)
                .with_checkpoint_dir(&dir)
                .with_fault_policy(
                    FaultPolicy::reliable(7).kill_process_at_barrier(0, CrashPhase::AfterRename),
                ),
        )
        .expect("fits the fleet")
        .wait();
    assert_process_killed(&killed, 0);
    let guard = CheckpointStore::open(&dir).expect("hold the store");
    match JobEngine::new(8).resume(&dir) {
        Err(JobError::Rejected { reason }) => {
            assert!(reason.contains("locked by live process"), "got: {reason}")
        }
        Ok(_) => panic!("resuming a held store must be refused"),
        Err(other) => panic!("expected Rejected, got {other}"),
    }
    drop(guard);
    JobEngine::new(8)
        .resume(&dir)
        .expect("resume succeeds once the lock is free");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A direct caller can hand the engine an epoch no admission check has
/// seen; a slot state of the wrong shape stops the run before any rank
/// starts, naming the slot and both shapes.
#[test]
#[should_panic(
    expected = "recovered slot 0 holds a (1, 96, 96) tile volume but its tile \
                           is (2, 96, 96)"
)]
fn resuming_a_slot_state_of_the_wrong_shape_panics_naming_both_shapes() {
    let config = SolverConfig {
        iterations: 2,
        halo_px: 20,
        ..SolverConfig::default()
    };
    let dataset = tiny();
    let solver = GradientDecompositionSolver::new(&dataset, config, (1, 1));
    let extended = solver.grid().tile(0).extended;
    let mut state = ByteWriter::new();
    CArray3::zeros(1, extended.rows(), extended.cols()).encode(&mut state);
    let epoch = RecoveredEpoch {
        manifest: EpochManifest {
            seq: 0,
            iteration: 1,
            attempt_index: 0,
            restarts: 0,
            substitutions: 0,
            membership: MembershipView::new(1, 0),
            spec: Vec::new(),
        },
        slots: vec![SlotRecord {
            iteration: 1,
            costs: vec![1.0],
            cursor: None,
            state: state.into_bytes(),
        }],
    };
    let dir = scratch("wrong-shape");
    let store = CheckpointStore::open(&dir).expect("store opens");
    // Nothing after the expected panic runs, and the run never writes to
    // the store: clean up now.
    let _ = std::fs::remove_dir_all(&dir);
    let job = JobContext {
        durability: Some(DurabilityHook {
            store: &store,
            resume: Some(&epoch),
            kill: None,
            spec: &[],
        }),
        ..JobContext::default()
    };
    let _ = solver.run_job(
        &common::lockstep(),
        RecoveryPolicy::Recover {
            spares: 0,
            max_iteration_restarts: 0,
        },
        &job,
    );
}
