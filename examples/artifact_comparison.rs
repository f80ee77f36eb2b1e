//! Seam-artifact comparison (the scenario of Fig. 8): reconstruct the same
//! noisy dataset with the Halo Voxel Exchange baseline and with Gradient
//! Decomposition, then measure the discontinuities at tile borders and render
//! a small ASCII view of the border band.
//!
//! Run with:
//! ```text
//! cargo run --release -p ptycho-bench --example artifact_comparison
//! ```

use ptycho_array::{stats, Array2};
use ptycho_bench::experiments::{fig8, quality_dataset};
use ptycho_cluster::{Cluster, ClusterTopology};
use ptycho_core::stitch::{border_mask, phase_image};
use ptycho_core::{GradientDecompositionSolver, JobContext, RecoveryPolicy, SolverConfig};

/// Renders an image as coarse ASCII (for a quick visual check in a terminal).
fn ascii_view(image: &Array2<f64>, step: usize) -> String {
    let ramp: &[u8] = b" .:-=+*#%@";
    let lo = stats::min(image.as_slice());
    let hi = stats::max(image.as_slice());
    let range = (hi - lo).max(1e-12);
    let mut out = String::new();
    for r in (0..image.rows()).step_by(step) {
        for c in (0..image.cols()).step_by(step) {
            let v = (image[(r, c)] - lo) / range;
            let idx = ((v * (ramp.len() - 1) as f64).round() as usize).min(ramp.len() - 1);
            out.push(ramp[idx] as char);
        }
        out.push('\n');
    }
    out
}

fn main() {
    println!("running the Fig. 8 experiment (this reconstructs the dataset twice)...\n");
    let result = fig8(6);
    println!("seam metric (1.0 = no seams, higher = visible tile borders):");
    println!("  Halo Voxel Exchange:     {:.3}", result.hve_seam);
    println!("  Gradient Decomposition:  {:.3}", result.gd_seam);
    println!("phase RMSE vs ground truth:");
    println!("  Halo Voxel Exchange:     {:.4}", result.hve_rmse);
    println!("  Gradient Decomposition:  {:.4}", result.gd_rmse);

    // Render the Gradient Decomposition reconstruction and its tile borders.
    let dataset = quality_dataset(17);
    let config = SolverConfig {
        iterations: 6,
        halo_px: 32,
        ..SolverConfig::default()
    };
    let gd = GradientDecompositionSolver::new(&dataset, config, (2, 2))
        .run_job(
            &Cluster::new(ClusterTopology::summit()),
            RecoveryPolicy::FailFast,
            &JobContext::default(),
        )
        .expect("fault-free run completes");
    let phase = phase_image(&gd.volume, 0);
    println!("\nGradient Decomposition reconstruction (phase, slice 0):");
    println!("{}", ascii_view(&phase, 3));

    let mask = border_mask(&gd.grid, 1);
    let border_pixels = mask.iter().filter(|&&b| b).count();
    println!(
        "tile-border band: {} pixels out of {} ({} tiles)",
        border_pixels,
        mask.len(),
        gd.grid.num_tiles()
    );
}
