//! Integration tests for the decomposition machinery: tile grids, gradient
//! locality, accumulation passes and the memory accounting they imply.

use ptycho_array::Array3;
use ptycho_cluster::{
    Cluster, ClusterTopology, CommBackend, MemoryCategory, RankComm, SharedTile, TilePayloadPool,
};
use ptycho_core::gradient_decomp::passes::run_accumulation_passes;
use ptycho_core::tiling::TileGrid;
use ptycho_core::{
    GradientDecompositionSolver, HaloVoxelExchangeSolver, JobContext, RecoveryPolicy, SolverConfig,
};
use ptycho_fft::{CArray3, Complex64};
use ptycho_sim::dataset::{extract_patch, scatter_patch, Dataset, SyntheticConfig};
use ptycho_sim::probe_gradient;

fn dataset() -> Dataset {
    Dataset::synthesize(SyntheticConfig {
        object_px: 128,
        slices: 2,
        scan_grid: (4, 4),
        window_px: 32,
        dose: None,
        defocus_pm: 12_000.0,
        seed: 3,
    })
}

#[test]
fn tile_grid_partitions_probes_and_image() {
    let ds = dataset();
    let (_, rows, cols) = ds.object_shape();
    for dims in [(2usize, 2usize), (2, 3), (3, 3)] {
        let grid = TileGrid::new(rows, cols, dims.0, dims.1, 16, ds.scan());
        assert!(grid.ownership_partitions_scan(ds.scan()));
        let area: usize = grid.tiles().iter().map(|t| t.core.area()).sum();
        assert_eq!(area, rows * cols);
    }
}

#[test]
fn individual_gradient_is_local_to_the_probe_window() {
    // Eqn. (2)'s key property, end to end: scatter a probe's gradient into a
    // full volume and verify it vanishes outside the probe window.
    let ds = dataset();
    let loc = ds.scan().locations()[5];
    let guess = ds.initial_guess();
    let patch = extract_patch(&guess, &loc.window);
    let result = probe_gradient(ds.model(), &patch, ds.measurement(&loc));

    let (d, r, c) = ds.object_shape();
    let mut scattered = Array3::full(d, r, c, Complex64::ZERO);
    scatter_patch(&mut scattered, &loc.window, &result.gradient);

    let total: f64 = scattered.iter().map(|v| v.abs()).sum();
    let inside: f64 = loc
        .window
        .iter_cells()
        .filter(|&(row, col)| row >= 0 && col >= 0 && (row as usize) < r && (col as usize) < c)
        .map(|(row, col)| {
            (0..d)
                .map(|s| scattered[(s, row as usize, col as usize)].abs())
                .sum::<f64>()
        })
        .sum();
    assert!(total > 0.0);
    assert!(
        inside > 0.99 * total,
        "gradient must vanish outside the probe window ({inside} vs {total})"
    );
}

#[test]
fn accumulation_passes_reproduce_global_gradient_sum() {
    // Scatter per-tile deterministic buffers, run the directional passes on
    // the threaded runtime, and compare every tile against a globally
    // accumulated reference.
    let ds = dataset();
    let (_, rows, cols) = ds.object_shape();
    let slices = 2;
    let grid = TileGrid::new(rows, cols, 3, 3, 12, ds.scan());
    let ranks = grid.num_tiles();

    let buffers: Vec<CArray3> = (0..ranks)
        .map(|rank| {
            let ext = grid.tile(rank).extended;
            Array3::from_fn(slices, ext.rows(), ext.cols(), |s, r, c| {
                Complex64::new(((rank + 1) * (s + 1)) as f64 * 0.01, (r + c) as f64 * 1e-3)
            })
        })
        .collect();

    let mut global = Array3::full(slices, rows, cols, Complex64::ZERO);
    for (rank, buffer) in buffers.iter().enumerate() {
        global.add_region(grid.tile(rank).extended, buffer);
    }

    let cluster = Cluster::new(ClusterTopology::summit());
    let grid_ref = &grid;
    let buffers_ref = &buffers;
    let outcomes = cluster
        .run::<SharedTile, CArray3, _>(ranks, |ctx| {
            let mut buffer = buffers_ref[ctx.rank()].clone();
            let mut pool = TilePayloadPool::new();
            run_accumulation_passes(ctx, grid_ref, &mut buffer, &mut pool)?;
            Ok(buffer)
        })
        .expect("no faults injected");

    for outcome in outcomes {
        let expected =
            global.extract_region_with_fill(grid.tile(outcome.rank).extended, Complex64::ZERO);
        for (a, b) in outcome.result.iter().zip(expected.iter()) {
            assert!((*a - *b).abs() < 1e-9);
        }
    }
}

#[test]
fn gd_memory_is_dominated_by_tile_not_full_volume() {
    let ds = dataset();
    let config = SolverConfig {
        iterations: 1,
        halo_px: 16,
        ..SolverConfig::default()
    };
    let result = GradientDecompositionSolver::new(&ds, config, (3, 3))
        .run_job(
            &Cluster::default(),
            RecoveryPolicy::FailFast,
            &JobContext::default(),
        )
        .expect("fault-free run completes");
    let (d, r, c) = ds.object_shape();
    let full_volume_bytes = d * r * c * 16;
    for memory in &result.memory {
        let voxels =
            memory.peak_of(MemoryCategory::TileVoxels) + memory.peak_of(MemoryCategory::HaloVoxels);
        assert!(
            voxels < full_volume_bytes / 2,
            "a 3x3 tile should hold well under half the volume ({voxels} bytes)"
        );
    }
}

#[test]
fn hve_redundant_assignment_grows_as_tiles_shrink() {
    // The mechanism behind the baseline's poor scalability: smaller tiles
    // mean proportionally more redundant probe locations per tile (or outright
    // infeasibility, which is the paper's "NA" case).
    let ds = dataset();
    let config = SolverConfig {
        iterations: 1,
        hve_extra_probe_rows: 1,
        ..SolverConfig::default()
    };
    let coarse = HaloVoxelExchangeSolver::new(&ds, config, (2, 2)).expect("feasible");
    let redundancy_coarse = coarse.total_assigned() as f64 / ds.scan().len() as f64;
    match HaloVoxelExchangeSolver::new(&ds, config, (3, 3)) {
        Ok(fine) => {
            let redundancy_fine = fine.total_assigned() as f64 / ds.scan().len() as f64;
            assert!(
                redundancy_fine >= redundancy_coarse,
                "finer tiles must be at least as redundant ({redundancy_fine} vs {redundancy_coarse})"
            );
        }
        Err(_) => {
            // Infeasibility at a finer grid is exactly the paper's point.
        }
    }
    assert!(redundancy_coarse > 1.0);
}

#[test]
fn gd_halo_width_trades_memory_for_gradient_coverage() {
    // Ablation of the halo-width design choice called out in DESIGN.md.
    let ds = dataset();
    let mut peaks = Vec::new();
    for halo in [8usize, 28] {
        let config = SolverConfig {
            iterations: 1,
            halo_px: halo,
            ..SolverConfig::default()
        };
        let result = GradientDecompositionSolver::new(&ds, config, (2, 2))
            .run_job(
                &Cluster::default(),
                RecoveryPolicy::FailFast,
                &JobContext::default(),
            )
            .expect("fault-free run completes");
        peaks.push(result.average_peak_memory_bytes());
    }
    assert!(
        peaks[1] > peaks[0],
        "larger halos must cost memory ({} vs {})",
        peaks[1],
        peaks[0]
    );
}
