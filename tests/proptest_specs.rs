//! Property suite for job admission: a [`JobSpec`] built only from public
//! constructors is either refused at [`JobEngine::submit`] or runs to a
//! report whose error is not a runner panic. No spec panics the caller.
//!
//! Shapes are small (objects of 32–96 px, windows of 8/16/32 px, grids of
//! 0–12 tiles per side, halos of 0–100 px or `usize::MAX`, 0–2 iterations
//! or `usize::MAX`),
//! crossed with both solvers, both pass frequencies, and optional
//! message-drop, rank-kill and process-kill faults with and without a
//! checkpoint directory.

use proptest::prelude::*;
use ptycho_cluster::{CrashPhase, FaultPolicy};
use ptycho_core::config::PassFrequency;
use ptycho_core::{JobEngine, JobError, JobSpec, SolverConfig, SolverMethod};
use ptycho_sim::dataset::{Dataset, SyntheticConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Large enough for a 12×12 grid plus spares, so most specs are admitted.
const FLEET: usize = 160;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn every_constructible_spec_is_refused_or_reported(
        shape in (32usize..=96, 0usize..3, 0usize..=12, 0usize..=12, 0usize..=100, 0usize..4),
        run in (0usize..4, 0usize..2, 0usize..2),
        faults in (0usize..4, 0usize..4, 0usize..4, 0usize..2, 0u64..1000),
    ) {
        let (object_px, window, grid_rows, grid_cols, halo_px, widest_halo) = shape;
        let (iterations, method, pass_frequency) = run;
        let (drop, kill, process_kill, durable, seed) = faults;
        let dataset = Dataset::synthesize(SyntheticConfig {
            object_px,
            window_px: [8, 16, 32][window],
            ..SyntheticConfig::tiny()
        });
        // `usize::MAX` iterations: a cost history no allocator can hold.
        let iterations = [0, 1, 2, usize::MAX][iterations];
        // A quarter of the cases ask for a halo wider than any object.
        let halo_px = if widest_halo == 0 { usize::MAX } else { halo_px };
        let config = SolverConfig {
            iterations,
            halo_px,
            pass_frequency: [PassFrequency::EveryProbe, PassFrequency::PerIteration(1)]
                [pass_frequency],
            ..SolverConfig::default()
        };
        let method = [SolverMethod::GradientDecomposition, SolverMethod::HaloVoxelExchange][method];
        let mut spec = JobSpec::new(dataset, config, (grid_rows, grid_cols)).with_method(method);
        // Each fault is armed in a quarter of the cases.
        if drop * kill * process_kill == 0 {
            let mut policy = FaultPolicy::reliable(seed);
            if drop == 0 {
                policy = policy.drop(0.05);
            }
            if kill == 0 {
                policy = policy.kill_rank(1, 1);
            }
            if process_kill == 0 {
                policy = policy.kill_process_at_barrier(0, CrashPhase::AfterRename);
            }
            spec = spec.with_fault_policy(policy);
        }
        let dir = std::env::temp_dir().join(format!(
            "ptycho-proptest-specs-{}-{seed}-{grid_rows}x{grid_cols}",
            std::process::id()
        ));
        if durable == 1 {
            let _ = std::fs::remove_dir_all(&dir);
            spec = spec.with_checkpoint_dir(&dir);
        }

        let engine = JobEngine::new(FLEET);
        let outcome = catch_unwind(AssertUnwindSafe(|| engine.submit(spec).map(|job| job.wait())));
        let _ = std::fs::remove_dir_all(&dir);
        prop_assert!(outcome.is_ok(), "the submitting thread panicked");
        match outcome.unwrap() {
            Err(error) => prop_assert!(matches!(error, JobError::Rejected { .. }), "{error}"),
            Ok(report) => prop_assert!(
                !matches!(report.error, Some(JobError::Panicked { .. })),
                "{:?}",
                report.error
            ),
        }
        // Every node is back in the pool, or retired by a rank kill.
        prop_assert_eq!(engine.free_nodes() + engine.dead_nodes(), FLEET);
    }
}
