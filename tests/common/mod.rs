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
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
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

/// The threaded backend on the Summit topology.
pub fn threaded() -> Cluster {
    Cluster::new(ClusterTopology::summit())
}

/// How long a pinned solve may take before the test fails instead of
/// waiting on it: ample for the small fixtures, so a solve left waiting on a
/// lost message or an exited rank fails the test instead of hanging it.
pub const SOLVE_DEADLINE: Duration = Duration::from_secs(5);

/// Runs `solve` on a helper thread and returns what it returns, failing the
/// test if it has not finished within [`SOLVE_DEADLINE`]. A panic inside
/// `solve` (a failed assertion) propagates unchanged.
pub fn within_deadline<T: Send + 'static>(solve: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        let _ = tx.send(catch_unwind(AssertUnwindSafe(solve)));
    });
    let Ok(outcome) = rx.recv_timeout(SOLVE_DEADLINE) else {
        panic!("the solve did not finish within {SOLVE_DEADLINE:?}");
    };
    worker.join().expect("the solve's panic was caught");
    outcome.unwrap_or_else(|panic| resume_unwind(panic))
}

/// Checkpoint-restart recovery with the standard budget and no spares.
pub fn restart_policy() -> RecoveryPolicy {
    RecoveryPolicy::Recover {
        spares: 0,
        max_iteration_restarts: 2,
    }
}

/// Spare-substitution recovery with a pool of `spares` standby nodes.
pub fn substitute_policy(spares: usize) -> RecoveryPolicy {
    RecoveryPolicy::Recover {
        spares,
        max_iteration_restarts: 1,
    }
}

/// Asserts two reconstructions match **bit for bit**: every voxel of the
/// stitched volume and every entry of the cost history. This is the
/// recovery contract — a healed run (checkpoint restart, spare
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
