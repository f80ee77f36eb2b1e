//! Cross-check between the two notions of Halo Voxel Exchange feasibility:
//! the *threaded solver's* hard constraint (`HaloVoxelExchangeSolver::new`
//! returns an error when tiles cannot fill their neighbours' halos) and the
//! *analytic memory model's* NA marking used by Tables II/III.
//!
//! On small configurations, where both can be evaluated side by side, the
//! contract is:
//!
//! * the solver's verdict must agree exactly with the analytic *hard*
//!   constraint (`hve_hard_feasible`) evaluated on a matching geometry;
//! * the analytic table rule (`hve_feasible`, with its 1.5× practicality
//!   band) must never mark a cell runnable that the solver refuses — i.e.
//!   whenever the solver errors, the table marks NA, and whenever the table
//!   is feasible, the solver constructs.
//!
//! The same file holds the model to the program's voxel charges: each
//! Gradient Decomposition rank charges exactly the tile and halo voxels the
//! model counts for its tile.

mod common;

use ptycho_cluster::MemoryCategory;
use ptycho_core::memory_model::{hve_feasible, hve_hard_feasible, DecompositionGeometry};
use ptycho_core::tiling::TileGrid;
use ptycho_core::{
    GradientDecompositionSolver, HaloVoxelExchangeSolver, JobContext, RecoveryPolicy, SolverConfig,
};
use ptycho_sim::dataset::{Dataset, DatasetSpec, SyntheticConfig};
use ptycho_sim::physics::ImagingGeometry;

const VOXEL_PM: f64 = 50.0;

fn synthetic() -> Dataset {
    Dataset::synthesize(SyntheticConfig {
        object_px: 128,
        slices: 2,
        scan_grid: (6, 6),
        window_px: 16,
        dose: None,
        defocus_pm: 12_000.0,
        seed: 9,
    })
}

/// A `DatasetSpec` describing the same lateral geometry as [`synthetic`], so
/// the analytic model sees the tiling the solver actually builds.
fn matching_spec() -> DatasetSpec {
    DatasetSpec {
        name: "synthetic 128px cross-check".to_string(),
        probe_locations: 36,
        scan_grid: (6, 6),
        detector_px: 16,
        reconstruction: (2, 128, 128),
        voxel_size_pm: (VOXEL_PM, VOXEL_PM, 125.0),
        geometry: ImagingGeometry {
            pixel_size_pm: VOXEL_PM,
            defocus_pm: 12_000.0,
            ..ImagingGeometry::paper()
        },
    }
}

#[test]
fn solver_feasibility_agrees_with_the_memory_model() {
    let ds = synthetic();
    let spec = matching_spec();
    let config = SolverConfig {
        iterations: 1,
        hve_extra_probe_rows: 1,
        ..SolverConfig::default()
    };
    // The halo the solver derives from the scan, expressed in picometres for
    // the analytic model (one object pixel is VOXEL_PM picometres).
    let halo_px = TileGrid::hve_required_halo_px(ds.scan(), config.hve_extra_probe_rows);
    let halo_pm = halo_px as f64 * VOXEL_PM;

    let mut solver_ok_count = 0;
    let mut solver_err_count = 0;
    let mut stricter_band_seen = false;

    for workers in 1..=36usize {
        let solver_ok =
            HaloVoxelExchangeSolver::new(&ds, config, TileGrid::grid_dims_for(workers)).is_ok();
        let analytic_hard = hve_hard_feasible(&spec, workers, halo_pm);
        let analytic_table = hve_feasible(&spec, workers, halo_pm);

        // Exact agreement with the hard constraint.
        assert_eq!(
            solver_ok, analytic_hard,
            "{workers} workers: solver says {solver_ok}, hard model says {analytic_hard} \
             (halo {halo_px} px)"
        );
        // The table rule is a strict subset: feasible cell => solver runs.
        if analytic_table {
            assert!(
                solver_ok,
                "{workers} workers: Table marks the cell runnable but the solver refuses"
            );
        }
        // ...and vice versa: a refusing solver must be an NA cell.
        if !solver_ok {
            assert!(
                !analytic_table,
                "{workers} workers: solver infeasible but Table does not mark NA"
            );
        }
        if solver_ok && !analytic_table {
            stricter_band_seen = true;
        }
        if solver_ok {
            solver_ok_count += 1;
        } else {
            solver_err_count += 1;
        }
    }

    // The sweep must actually exercise both outcomes, and the 1.5x
    // practicality band between the two rules must be visible.
    assert!(solver_ok_count >= 2, "sweep never found a feasible tiling");
    assert!(
        solver_err_count >= 2,
        "sweep never found an infeasible tiling"
    );
    assert!(
        stricter_band_seen,
        "expected at least one configuration where the solver runs but the table says NA"
    );
}

#[test]
fn infeasible_cells_match_the_solver_error_detail() {
    // When both agree a cell is infeasible, the solver's error must carry the
    // same geometry the analytic rule used: a smallest tile below the halo.
    let ds = synthetic();
    let config = SolverConfig {
        iterations: 1,
        hve_extra_probe_rows: 1,
        ..SolverConfig::default()
    };
    let halo_px = TileGrid::hve_required_halo_px(ds.scan(), config.hve_extra_probe_rows);
    let err = match HaloVoxelExchangeSolver::new(&ds, config, TileGrid::grid_dims_for(25)) {
        Err(err) => err,
        Ok(_) => panic!("5x5 tiles of ~25 px cannot fill ~31 px halos"),
    };
    let ptycho_core::halo_exchange::solver::HaloExchangeError::TileSmallerThanHalo {
        required_halo_px,
        smallest_tile_px,
    } = err;
    assert_eq!(required_halo_px, halo_px);
    assert!(smallest_tile_px < halo_px);
}

/// On every rank of the golden problem's 3×3 GD grid — corner, edge and
/// centre tiles, halos on two to four sides — the peak `TileVoxels` and
/// `HaloVoxels` charges equal the model's `tile_voxels` and `halo_voxels`
/// for that rank's tile, at `GPU_VOXEL_BYTES`, to the byte.
#[test]
fn gd_voxel_charges_equal_the_memory_model() {
    let dataset = common::golden_problem();
    let config = SolverConfig {
        iterations: 1,
        ..common::gd_config()
    };
    let solver = GradientDecompositionSolver::new(&dataset, config, (3, 3));
    let result = solver
        .run_job(
            &common::lockstep(),
            RecoveryPolicy::FailFast,
            &JobContext::default(),
        )
        .expect("fault-free run completes");
    let slices = dataset.object_shape().0 as f64;
    assert_eq!(result.memory.len(), 9);
    for (rank, memory) in result.memory.iter().enumerate() {
        let tile = solver.grid().tile(rank);
        let owned = tile.owned_locations.len() as f64;
        let geometry = DecompositionGeometry {
            gpus: 9,
            grid: (3, 3),
            tile_px: (tile.core.rows() as f64, tile.core.cols() as f64),
            halo_px: config.halo_px as f64,
            extended_px: (tile.extended.rows() as f64, tile.extended.cols() as f64),
            avg_owned: owned,
            max_owned: owned,
            avg_assigned: owned,
            max_assigned: owned,
        };
        let charged = (
            memory.peak_of(MemoryCategory::TileVoxels) as f64,
            memory.peak_of(MemoryCategory::HaloVoxels) as f64,
        );
        assert_eq!(charged, geometry.voxel_bytes(slices), "rank {rank}");
    }
}
