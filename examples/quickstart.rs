//! Quickstart: simulate a small electron-ptychography acquisition, reconstruct
//! it in parallel with the Gradient Decomposition method, and report the
//! convergence and reconstruction quality.
//!
//! Run with:
//! ```text
//! cargo run --release -p ptycho-bench --example quickstart
//! ```

use ptycho_array::stats;
use ptycho_cluster::{Cluster, ClusterTopology};
use ptycho_core::stitch::phase_image;
use ptycho_core::{
    GradientDecompositionSolver, JobContext, RecoveryPolicy, SolverConfig, TileGrid,
};
use ptycho_sim::dataset::{Dataset, SyntheticConfig};

fn main() {
    // 1. Simulate an acquisition: a synthetic perovskite specimen scanned by a
    //    defocused probe, producing one diffraction pattern per probe location.
    //    The 45 nm defocus spreads each probe into a ~24 px circle and the 6x6
    //    raster steps by ~13 px, giving the high probe overlap (>70%) the
    //    paper's datasets have — the regime where gradients must be exchanged
    //    beyond direct neighbours.
    let dataset = Dataset::synthesize(SyntheticConfig::quickstart());
    println!("dataset: {}", dataset.name());
    println!(
        "probe overlap ratio: {:.0}%",
        dataset.scan().config().overlap_ratio() * 100.0
    );

    // 2. Decompose the reconstruction over a 2x3 tile grid (6 simulated GPUs)
    //    and run the Gradient Decomposition solver.
    // With >70% overlap every voxel accumulates many probe gradients per
    // pass, so relax the step accordingly; the halo covers the probe circle.
    let config = SolverConfig {
        iterations: 8,
        halo_px: 24,
        step_relaxation: 0.1,
        ..SolverConfig::default()
    };
    let solver = GradientDecompositionSolver::new(&dataset, config, TileGrid::grid_dims_for(6));
    println!(
        "tile grid: {:?}, halo: {} px",
        solver.grid().grid_shape(),
        solver.grid().halo_px()
    );

    let cluster = Cluster::new(ClusterTopology::summit());
    let result = solver
        .run_job(&cluster, RecoveryPolicy::FailFast, &JobContext::default())
        .expect("fault-free run completes");

    // 3. Report convergence, runtime accounting and reconstruction quality.
    println!("\niteration   cost F(V)");
    for (i, cost) in result.cost_history.costs().iter().enumerate() {
        println!("{:>9}   {cost:.5}", i + 1);
    }
    println!(
        "\ncost reduced by {:.1}% over {} iterations",
        result.cost_history.relative_reduction() * 100.0,
        result.cost_history.iterations()
    );

    let truth = dataset.specimen().phase_slice(0);
    let reconstructed = phase_image(&result.volume, 0);
    println!(
        "phase correlation with ground truth: {:.3}",
        stats::normalized_cross_correlation(&truth, &reconstructed)
    );
    println!(
        "average peak memory per simulated GPU: {:.2} MB",
        result.average_peak_memory_bytes() / 1e6
    );
    let critical = result.critical_path();
    println!(
        "modelled critical path: {:.3} ms compute, {:.3} ms wait, {:.3} ms communication",
        critical.compute * 1e3,
        critical.wait * 1e3,
        critical.communication * 1e3
    );
}
