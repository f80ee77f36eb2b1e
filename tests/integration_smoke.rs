//! End-to-end smoke test: the `quickstart` example path on a tiny dataset.
//!
//! Exercises one full reconstruct-and-stitch cycle — synthesise an
//! acquisition, decompose it over a tile grid, run the Gradient Decomposition
//! solver on the threaded cluster, stitch the tiles and measure quality —
//! so that tier-1 (`cargo test -q`) covers the complete user-facing flow and
//! not just unit-level behaviour.

use ptycho_array::stats;
use ptycho_cluster::{Cluster, ClusterTopology};
use ptycho_core::stitch::phase_image;
use ptycho_core::{
    GradientDecompositionSolver, JobContext, RecoveryPolicy, SolverConfig, TileGrid,
};
use ptycho_sim::dataset::{Dataset, SyntheticConfig};

#[test]
fn quickstart_example_geometry_has_high_probe_overlap() {
    // Regression test for the quickstart's "probe overlap ratio: 0%" report:
    // the example's original 5x5/32 px geometry produced probe circles
    // (~7 px radius) that genuinely never overlapped at its 24 px step. The
    // example now runs `SyntheticConfig::quickstart()` (shared with this
    // test, so the two cannot drift apart); its circles must overlap like
    // the paper's datasets do (above the 70% threshold of Sec. II-A), and
    // adjacent probe circles must physically intersect.
    let dataset = Dataset::synthesize(SyntheticConfig::quickstart());
    let ratio = dataset.scan().config().overlap_ratio();
    assert!(
        (0.70..0.80).contains(&ratio),
        "quickstart geometry should sit above the 70% overlap threshold, got {ratio}"
    );
    let locations = dataset.scan().locations();
    assert!(
        locations[0].overlaps(&locations[1]),
        "adjacent probe circles must intersect"
    );
}

#[test]
fn quickstart_path_end_to_end_on_tiny_dataset() {
    // 1. Simulate a tiny acquisition (96 px object, 3x3 scan, 2 slices).
    let dataset = Dataset::synthesize(SyntheticConfig::tiny());

    // 2. Reconstruct on 4 simulated GPU ranks over a few iterations.
    let config = SolverConfig {
        iterations: 3,
        halo_px: 16,
        ..SolverConfig::default()
    };
    let solver = GradientDecompositionSolver::new(&dataset, config, TileGrid::grid_dims_for(4));
    let (grid_rows, grid_cols) = solver.grid().grid_shape();
    assert_eq!(grid_rows * grid_cols, 4, "4 workers -> 4 tiles");

    let cluster = Cluster::new(ClusterTopology::summit());
    let result = solver
        .run_job(&cluster, RecoveryPolicy::FailFast, &JobContext::default())
        .expect("fault-free run completes");

    // 3. The stitched volume has the full object shape.
    assert_eq!(result.volume.shape(), dataset.object_shape());

    // 4. The cost history is complete and decreasing overall.
    assert_eq!(result.cost_history.iterations(), 3);
    assert!(
        result.cost_history.final_cost() < result.cost_history.initial_cost(),
        "cost must decrease: {} -> {}",
        result.cost_history.initial_cost(),
        result.cost_history.final_cost()
    );
    assert!(result.cost_history.costs().iter().all(|c| c.is_finite()));

    // 5. The reconstruction correlates with the ground-truth phase better
    //    than an uninformative (flat) starting guess would.
    let truth = dataset.specimen().phase_slice(0);
    let reconstructed = phase_image(&result.volume, 0);
    let correlation = stats::normalized_cross_correlation(&truth, &reconstructed);
    assert!(
        correlation > 0.1,
        "reconstruction should correlate with ground truth, got {correlation}"
    );

    // 6. Runtime and memory accounting came back populated.
    let critical = result.critical_path();
    assert!(critical.compute > 0.0, "compute time must be charged");
    assert!(
        result.average_peak_memory_bytes() > 0.0,
        "memory tracking must observe allocations"
    );
}
