//! Helpers shared by the integration suites.
//!
//! Every suite used to carry its own copy of the same dataset, config and
//! backend fixtures; they live here once now. `mod common;` compiles this
//! file into each test binary separately, so not every binary uses every
//! helper — hence the file-level `dead_code` allowance.

#![allow(dead_code)]

use ptycho_cluster::{Cluster, ClusterTopology, LockstepBackend};
use ptycho_core::{
    GradientDecompositionSolver, HaloVoxelExchangeSolver, ReconstructionResult, RecoveryPolicy,
    SolverConfig,
};
use ptycho_sim::dataset::{Dataset, SyntheticConfig};
use std::time::Duration;

/// The shared small reconstruction problem: a 128 px, 2-slice object under a
/// 4×4 scan — big enough for a 2×2 tile grid with real halo traffic, small
/// enough that a 2-iteration solve takes milliseconds.
pub fn small_problem() -> Dataset {
    Dataset::synthesize(SyntheticConfig {
        object_px: 128,
        slices: 2,
        scan_grid: (4, 4),
        window_px: 32,
        dose: None,
        defocus_pm: 12_000.0,
        seed: 21,
    })
}

/// The problem the whole-solve goldens are recorded on: a 96 px, 2-slice
/// object under a 5×5 scan of 32-px windows. Neighbouring windows overlap by
/// half, so what the passes exchange and when the tile is updated both reach
/// the result, and 25 locations over 9 or 4 tiles leave ranks with unequal
/// shares (empty rounds under `EveryProbe`).
pub fn golden_problem() -> Dataset {
    Dataset::synthesize(SyntheticConfig {
        object_px: 96,
        slices: 2,
        scan_grid: (5, 5),
        window_px: 32,
        dose: None,
        defocus_pm: 12_000.0,
        seed: 16,
    })
}

/// The Gradient Decomposition config matching [`small_problem`].
pub fn gd_config() -> SolverConfig {
    SolverConfig {
        iterations: 2,
        halo_px: 20,
        ..SolverConfig::default()
    }
}

/// The Halo Voxel Exchange config matching [`small_problem`].
pub fn hve_config() -> SolverConfig {
    SolverConfig {
        iterations: 2,
        hve_extra_probe_rows: 1,
        ..SolverConfig::default()
    }
}

/// A Gradient Decomposition solver on the standard 2×2 grid.
pub fn gd_solver(dataset: &Dataset) -> GradientDecompositionSolver<'_> {
    GradientDecompositionSolver::new(dataset, gd_config(), (2, 2))
}

/// A Halo Voxel Exchange solver on the standard 2×2 grid.
pub fn hve_solver(dataset: &Dataset) -> HaloVoxelExchangeSolver<'_> {
    HaloVoxelExchangeSolver::new(dataset, hve_config(), (2, 2)).expect("feasible decomposition")
}

/// The deterministic lockstep backend on the Summit topology.
pub fn lockstep() -> LockstepBackend {
    LockstepBackend::new(ClusterTopology::summit())
}

/// The threaded backend with a bounded receive, so lost messages surface as
/// errors within `timeout_ms` instead of after the 30 s loss-detection
/// default. Suites pick the timeout their fault scenario needs.
pub fn threaded(timeout_ms: u64) -> Cluster {
    Cluster::new(ClusterTopology::summit()).with_recv_timeout(Duration::from_millis(timeout_ms))
}

/// Retransmit + checkpoint-restart recovery with the standard budget.
pub fn restart_policy() -> RecoveryPolicy {
    RecoveryPolicy::RetransmitThenRestart {
        max_iteration_restarts: 2,
    }
}

/// Spare-substitution recovery with a pool of `spares` standby nodes.
pub fn substitute_policy(spares: usize) -> RecoveryPolicy {
    RecoveryPolicy::SubstituteSpare {
        spares,
        max_iteration_restarts: 1,
    }
}

/// Asserts two reconstructions match **bit for bit**: every voxel of the
/// stitched volume and every entry of the cost history. This is the
/// recovery contract — a healed run (retransmit, checkpoint restart, spare
/// substitution) must be indistinguishable from a fault-free one.
pub fn assert_bit_identical(a: &ReconstructionResult, b: &ReconstructionResult) {
    assert_eq!(a.volume.shape(), b.volume.shape());
    for (x, y) in a.volume.iter().zip(b.volume.iter()) {
        assert_eq!(
            x.re.to_bits(),
            y.re.to_bits(),
            "volumes must match bit for bit"
        );
        assert_eq!(
            x.im.to_bits(),
            y.im.to_bits(),
            "volumes must match bit for bit"
        );
    }
    assert_eq!(
        a.cost_history.costs().len(),
        b.cost_history.costs().len(),
        "cost histories must cover the same iterations"
    );
    for (x, y) in a.cost_history.costs().iter().zip(b.cost_history.costs()) {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "cost histories must match bit for bit"
        );
    }
}

/// Runs the same test body once per solver: `$solver` binds a
/// [`GradientDecompositionSolver`] and then a [`HaloVoxelExchangeSolver`]
/// (both on [`small_problem`]'s standard 2×2 fixtures), `$label` names the
/// method for assertion messages. The body is expanded twice, so it only
/// needs the API surface the two solvers share (`run_job`, `grid`).
#[allow(unused_macros)]
macro_rules! run_both_solvers {
    ($dataset:expr, |$solver:ident, $label:ident| $body:block) => {{
        {
            let $label = "gradient-decomposition";
            let $solver = $crate::common::gd_solver($dataset);
            let _ = &$label;
            $body
        }
        {
            let $label = "halo-voxel-exchange";
            let $solver = $crate::common::hve_solver($dataset);
            let _ = &$label;
            $body
        }
    }};
}
#[allow(unused_imports)]
pub(crate) use run_both_solvers;
