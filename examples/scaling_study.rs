//! Strong-scaling study on real threads plus the paper-scale analytic model.
//!
//! The first part runs the Gradient Decomposition solver on 1, 2, 4 and 6
//! simulated GPU ranks (real threads on this machine) and reports the wall
//! time of each solve next to the largest rank's modelled compute time (the
//! Summit model's per-probe time, from the rank's simulated clock). The
//! second part uses the calibrated
//! performance model to print the paper-scale strong-scaling table of the
//! large Lead Titanate dataset (Table III(a) / Fig. 7a).
//!
//! Run with:
//! ```text
//! cargo run --release -p ptycho-bench --example scaling_study
//! ```

use ptycho_bench::experiments::{fig7a, PaperDataset};
use ptycho_cluster::{Cluster, ClusterTopology};
use ptycho_core::{
    GradientDecompositionSolver, JobContext, RecoveryPolicy, SolverConfig, TileGrid,
};
use ptycho_sim::dataset::{Dataset, SyntheticConfig};
use std::time::Instant;

fn main() {
    // Part 1: real threaded execution at laptop scale.
    let dataset = Dataset::synthesize(SyntheticConfig {
        object_px: 160,
        slices: 2,
        scan_grid: (6, 6),
        window_px: 32,
        dose: None,
        defocus_pm: 12_000.0,
        seed: 9,
    });
    let cluster = Cluster::new(ClusterTopology::summit());
    let config = SolverConfig {
        iterations: 3,
        halo_px: 20,
        ..SolverConfig::default()
    };

    println!(
        "real threaded execution ({} probe locations, 3 iterations):",
        dataset.scan().len()
    );
    println!(
        "{:>6}  {:>12}  {:>16}  {:>14}",
        "ranks", "wall (s)", "max compute (ms)", "final cost"
    );
    let mut baseline_wall = None;
    for ranks in [1usize, 2, 4, 6] {
        let solver =
            GradientDecompositionSolver::new(&dataset, config, TileGrid::grid_dims_for(ranks));
        let start = Instant::now();
        let result = solver
            .run_job(&cluster, RecoveryPolicy::FailFast, &JobContext::default())
            .expect("fault-free run completes");
        let wall = start.elapsed().as_secs_f64();
        let max_compute = 1e3 * result.time.iter().map(|t| t.compute).fold(0.0f64, f64::max);
        baseline_wall.get_or_insert(wall);
        println!(
            "{ranks:>6}  {wall:>12.2}  {max_compute:>16.3}  {:>14.4}",
            result.cost_history.final_cost()
        );
    }
    if let Some(base) = baseline_wall {
        println!("(speedups are limited by the physical cores of this machine; base {base:.2} s)");
    }

    // Part 2: paper-scale model (Fig. 7a / Table III(a)).
    println!("\npaper-scale model, large Lead Titanate dataset (calibrated at 6 GPUs = 5543 min):");
    println!(
        "{:>6}  {:>14}  {:>16}  {:>10}",
        "GPUs", "runtime (min)", "ideal O(1/P) min", "speedup"
    );
    let series = fig7a(PaperDataset::Large);
    let base = series[0].1;
    for (gpus, runtime, ideal) in series {
        println!(
            "{gpus:>6}  {runtime:>14.2}  {ideal:>16.2}  {:>9.0}x",
            base / runtime
        );
    }
}
