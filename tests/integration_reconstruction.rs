//! End-to-end integration tests: synthetic acquisition → parallel
//! reconstruction → stitched volume, across the full crate stack
//! (`ptycho-sim` physics, `ptycho-cluster` runtime, `ptycho-core` solvers).

use ptycho_array::stats;
use ptycho_cluster::{Cluster, ClusterTopology};
use ptycho_core::config::PassFrequency;
use ptycho_core::stitch::phase_image;
use ptycho_core::{
    GradientDecompositionSolver, HaloVoxelExchangeSolver, JobContext, RecoveryPolicy, SolverConfig,
};
use ptycho_sim::dataset::{Dataset, SyntheticConfig};

fn dataset() -> Dataset {
    Dataset::synthesize(SyntheticConfig {
        object_px: 128,
        slices: 2,
        scan_grid: (5, 5),
        window_px: 32,
        dose: None,
        defocus_pm: 40_000.0,
        seed: 77,
    })
}

fn cluster() -> Cluster {
    Cluster::new(ClusterTopology::summit())
}

#[test]
fn gradient_decomposition_reconstructs_the_specimen() {
    let ds = dataset();
    let config = SolverConfig {
        iterations: 15,
        halo_px: 20,
        step_relaxation: 0.25,
        ..SolverConfig::default()
    };
    let result = GradientDecompositionSolver::new(&ds, config, (2, 2))
        .run_job(&cluster(), RecoveryPolicy::FailFast, &JobContext::default())
        .expect("fault-free run completes");

    // The cost must fall substantially from the flat initial guess.
    assert!(result.cost_history.relative_reduction() > 0.5);
    assert!(result.cost_history.is_monotonically_decreasing());

    // The reconstructed phase must correlate with the ground-truth specimen
    // over the illuminated region (pixels never touched by a probe stay at
    // the initial guess and are excluded from the comparison).
    let illuminated = ds.scan().illuminated_bbox();
    let truth = ds.specimen().phase_slice(0).extract(illuminated);
    let reconstructed = phase_image(&result.volume, 0).extract(illuminated);
    let correlation = stats::normalized_cross_correlation(&truth, &reconstructed);
    assert!(
        correlation > 0.5,
        "reconstruction should resemble the specimen, correlation {correlation}"
    );
}

#[test]
fn halo_voxel_exchange_also_converges_but_needs_more_probe_evaluations() {
    let ds = dataset();
    let config = SolverConfig {
        iterations: 4,
        hve_extra_probe_rows: 1,
        ..SolverConfig::default()
    };
    let solver = HaloVoxelExchangeSolver::new(&ds, config, (2, 2)).expect("feasible");
    assert!(solver.total_assigned() > ds.scan().len());
    let result = solver
        .run_job(&cluster(), RecoveryPolicy::FailFast, &JobContext::default())
        .expect("fault-free run completes");
    assert!(result.cost_history.relative_reduction() > 0.3);
}

#[test]
fn parallel_synchronous_gd_matches_serial_reference_across_grids() {
    // With local updates off and one pass per iteration, the decomposition is
    // exactly synchronous gradient descent: 1, 4 and 6 workers must agree.
    let ds = dataset();
    let config = SolverConfig {
        iterations: 2,
        halo_px: 20,
        local_updates: false,
        pass_frequency: PassFrequency::PerIteration(1),
        ..SolverConfig::default()
    };
    let serial = GradientDecompositionSolver::new(&ds, config, (1, 1))
        .run_job(&cluster(), RecoveryPolicy::FailFast, &JobContext::default())
        .expect("fault-free run completes");
    for dims in [(2, 2), (2, 3)] {
        let parallel = GradientDecompositionSolver::new(&ds, config, dims)
            .run_job(&cluster(), RecoveryPolicy::FailFast, &JobContext::default())
            .expect("fault-free run completes");
        let max_diff = serial
            .volume
            .iter()
            .zip(parallel.volume.iter())
            .map(|(a, b)| (*a - *b).abs())
            .fold(0.0f64, f64::max);
        assert!(
            max_diff < 1e-6,
            "{dims:?} decomposition must match the serial reference, max diff {max_diff}"
        );
    }
}

#[test]
fn both_methods_produce_similar_quality_on_well_posed_data() {
    let ds = dataset();
    let gd = GradientDecompositionSolver::new(
        &ds,
        SolverConfig {
            iterations: 4,
            halo_px: 20,
            ..SolverConfig::default()
        },
        (2, 2),
    )
    .run_job(&cluster(), RecoveryPolicy::FailFast, &JobContext::default())
    .expect("fault-free run completes");
    let hve = HaloVoxelExchangeSolver::new(
        &ds,
        SolverConfig {
            iterations: 4,
            hve_extra_probe_rows: 1,
            ..SolverConfig::default()
        },
        (2, 2),
    )
    .expect("feasible")
    .run_job(&cluster(), RecoveryPolicy::FailFast, &JobContext::default())
    .expect("fault-free run completes");

    let truth = ds.specimen().phase_slice(0);
    let gd_err = stats::rmse(&phase_image(&gd.volume, 0), &truth);
    let hve_err = stats::rmse(&phase_image(&hve.volume, 0), &truth);
    // Neither method should be wildly worse than the other on noiseless data.
    assert!(gd_err < 2.0 * hve_err + 1e-6);
    assert!(hve_err < 2.0 * gd_err + 1e-6);
}

#[test]
fn noisy_data_still_reconstructs() {
    let noisy = Dataset::synthesize(SyntheticConfig {
        dose: Some(500.0),
        seed: 78,
        ..SyntheticConfig::tiny()
    });
    let config = SolverConfig {
        iterations: 4,
        halo_px: 20,
        ..SolverConfig::default()
    };
    let result = GradientDecompositionSolver::new(&noisy, config, (2, 2))
        .run_job(&cluster(), RecoveryPolicy::FailFast, &JobContext::default())
        .expect("fault-free run completes");
    assert!(result.cost_history.relative_reduction() > 0.2);
    assert!(result.cost_history.final_cost().is_finite());
}

#[test]
fn pass_frequency_does_not_break_convergence() {
    let ds = dataset();
    for frequency in [
        PassFrequency::EveryProbe,
        PassFrequency::PerIteration(2),
        PassFrequency::PerIteration(1),
    ] {
        let config = SolverConfig {
            iterations: 3,
            halo_px: 20,
            pass_frequency: frequency,
            ..SolverConfig::default()
        };
        let result = GradientDecompositionSolver::new(&ds, config, (2, 3))
            .run_job(&cluster(), RecoveryPolicy::FailFast, &JobContext::default())
            .expect("fault-free run completes");
        assert!(
            result.cost_history.relative_reduction() > 0.3,
            "{frequency:?} should still converge"
        );
    }
}
