//! Convergence vs. communication frequency (the scenario of Fig. 9), plus the
//! delayed-accumulation ablation of Algorithm 1.
//!
//! Run with:
//! ```text
//! cargo run --release -p ptycho-bench --example convergence_study
//! ```

use ptycho_bench::experiments::{fig9, quality_dataset};
use ptycho_cluster::{Cluster, ClusterTopology};
use ptycho_core::config::PassFrequency;
use ptycho_core::{GradientDecompositionSolver, JobContext, RecoveryPolicy, SolverConfig};

fn main() {
    let iterations = 8;
    println!("Fig. 9 experiment: cost F(V) per iteration for three pass frequencies\n");
    let curves = fig9(iterations);
    print!("{:>9}", "iteration");
    for curve in &curves {
        print!("  {:>26}", curve.label);
    }
    println!();
    for i in 0..iterations {
        print!("{:>9}", i + 1);
        for curve in &curves {
            print!("  {:>26.5}", curve.costs[i]);
        }
        println!();
    }

    // Ablation: local per-probe updates (Algorithm 1 as written) vs. pure
    // synchronous accumulation-only updates.
    println!("\nablation: local per-probe updates (step 8) on vs. off, once-per-iteration passes");
    let dataset = quality_dataset(31);
    let cluster = Cluster::new(ClusterTopology::summit());
    for local_updates in [true, false] {
        let config = SolverConfig {
            iterations,
            halo_px: 32,
            pass_frequency: PassFrequency::PerIteration(1),
            local_updates,
            ..SolverConfig::default()
        };
        let result = GradientDecompositionSolver::new(&dataset, config, (2, 3))
            .run_job(&cluster, RecoveryPolicy::FailFast, &JobContext::default())
            .expect("fault-free run completes");
        println!(
            "  local_updates = {:<5}  final cost {:.5}  ({:.1}% reduction)",
            local_updates,
            result.cost_history.final_cost(),
            result.cost_history.relative_reduction() * 100.0
        );
    }
}
