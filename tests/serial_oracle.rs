//! One tile, local updates: Gradient Decomposition is serial per-probe
//! descent, bit for bit.
//!
//! A single tile has no neighbour, so its pass plan sends nothing: every
//! probe's gradient is applied to the volume as it is computed (step 8 of
//! Algorithm 1), and the round's update (step 15) subtracts what the tile
//! already applied from what it accumulated — the same adds, so `+0.0`.
//! What is left is per-probe gradient descent over the scan in owned order,
//! which is what the Halo Voxel Exchange baseline runs on one tile. The
//! equivalence holds at every pass frequency, so it is the serial oracle for
//! the local-update mode, as the synchronous one (local updates off, any
//! grid against one rank) is for the other.

mod common;

use common::{assert_bit_identical, golden_problem, lockstep};
use ptycho_core::config::PassFrequency::{EveryProbe, PerIteration};
use ptycho_core::{
    GradientDecompositionSolver, HaloVoxelExchangeSolver, JobContext, RecoveryPolicy, SolverConfig,
};

#[test]
fn one_tile_gd_with_local_updates_is_one_tile_hve() {
    let dataset = golden_problem();
    let backend = lockstep();
    let run = |config: SolverConfig, gd: bool| {
        let job = JobContext::default();
        if gd {
            GradientDecompositionSolver::new(&dataset, config, (1, 1)).run_job(
                &backend,
                RecoveryPolicy::FailFast,
                &job,
            )
        } else {
            HaloVoxelExchangeSolver::new(&dataset, config, (1, 1))
                .expect("one tile is always feasible")
                .run_job(&backend, RecoveryPolicy::FailFast, &job)
        }
        .expect("fault-free run completes")
    };
    let base = SolverConfig {
        iterations: 3,
        halo_px: 20,
        local_updates: true,
        ..SolverConfig::default()
    };
    let serial = run(base, false);
    assert_eq!(serial.cost_history.costs().len(), 3);
    for pass_frequency in [EveryProbe, PerIteration(1), PerIteration(2)] {
        let gd = run(
            SolverConfig {
                pass_frequency,
                ..base
            },
            true,
        );
        assert_bit_identical(&gd, &serial);
    }
}
