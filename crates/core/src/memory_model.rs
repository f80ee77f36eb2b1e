//! Analytic per-GPU memory-footprint model (Tables II and III).
//!
//! The experiments behind the paper's memory numbers ran on V100 GPUs holding
//! the real 1024×1024 diffraction patterns and 100-slice tiles; this model
//! reproduces the *accounting* of those allocations for any GPU count so the
//! tables can be regenerated without the hardware. Assumptions (documented in
//! DESIGN.md): reconstruction voxels are stored as single-precision complex
//! (8 bytes), diffraction measurements as half precision (2 bytes), and every
//! rank keeps a fixed workspace (probe, propagator, FFT scratch and framework
//! overhead) independent of the decomposition.
//!
//! How the running program compares (`TileWorker` charges what it holds):
//! the tile volume, the accumulation buffers and the per-probe model
//! workspace are all complex `f32`, 8 bytes per value, [`GPU_VOXEL_BYTES`].
//! The program's workspace is `S + 1` probe-window fields for `S` slices
//! (the incident waves after the probe, the far field and the
//! back-propagation wave), against this model's
//! [`WORKSPACE_DETECTOR_BUFFERS`] detector-sized fields. No per-probe copy
//! of the object and no per-probe gradient volume is held: the model reads
//! each object slice from the tile into a workspace field, and the adjoint
//! hands each slice's gradient on from the workspace. A rank's `TileVoxels` and
//! `HaloVoxels` charges are this model's `tile_voxels` and `halo_voxels`
//! for its tile's geometry, exactly (`tests/integration_feasibility.rs`
//! pins it).
//!
//! The accumulation buffers also differ in extent. This model charges one
//! `AccBuf` over the whole extended tile, as the paper's Algorithm 1 and
//! tables do, and its rows stay that way so they keep reproducing the
//! paper. The running program holds its buffers over one synchronisation
//! round's cells at a time (Algorithm 1 resets them every round): as long
//! as the longest round's cells it visits and exchanges — with local
//! updates only the cells its directional passes exchange, none at all on
//! a single tile — so its measured `AccumulationBuffer` charge is smaller
//! than this model's.

use crate::tiling::TileGrid;
use ptycho_sim::dataset::DatasetSpec;

/// Bytes per reconstruction voxel on the GPU (complex single precision).
pub const GPU_VOXEL_BYTES: f64 = 8.0;
/// Bytes per stored measurement value on the GPU (half precision).
pub const GPU_MEASUREMENT_BYTES: f64 = 2.0;
/// Fixed per-rank framework overhead in bytes (CUDA/MPI context, kernels).
pub const FRAMEWORK_OVERHEAD_BYTES: f64 = 50.0e6;
/// Scratch buffers for the forward model: a few detector-sized complex fields.
pub const WORKSPACE_DETECTOR_BUFFERS: f64 = 3.0;

/// Per-GPU memory broken down by what it stores, in bytes.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MemoryBreakdown {
    /// The tile's own (core) voxels, all slices.
    pub tile_voxels: f64,
    /// The halo-extension voxels.
    pub halo_voxels: f64,
    /// Diffraction measurements assigned to the tile (including any redundant
    /// probe locations for the Halo Voxel Exchange method).
    pub measurements: f64,
    /// Gradient accumulation buffers (Gradient Decomposition only).
    pub buffers: f64,
    /// Probe, propagator, FFT scratch and framework overhead.
    pub workspace: f64,
}

impl MemoryBreakdown {
    /// Total bytes.
    pub fn total_bytes(&self) -> f64 {
        self.tile_voxels + self.halo_voxels + self.measurements + self.buffers + self.workspace
    }

    /// Total in gigabytes (the unit of the paper's tables).
    pub fn gigabytes(&self) -> f64 {
        self.total_bytes() / 1e9
    }
}

/// The decomposition geometry shared by the memory and runtime models:
/// per-GPU tile and halo sizes plus probe-location counts, computed
/// analytically from the dataset geometry for any GPU count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DecompositionGeometry {
    /// Number of GPUs (tiles).
    pub gpus: usize,
    /// Tile grid shape.
    pub grid: (usize, usize),
    /// Average core-tile size in pixels (rows, cols).
    pub tile_px: (f64, f64),
    /// Halo width in pixels.
    pub halo_px: f64,
    /// Average halo-extended tile size in pixels (rows, cols), clamped to the
    /// image.
    pub extended_px: (f64, f64),
    /// Average probe locations owned per tile.
    pub avg_owned: f64,
    /// Maximum probe locations owned by any tile.
    pub max_owned: f64,
    /// Average probe locations *assigned* per tile (equals owned for the
    /// Gradient Decomposition method; larger for Halo Voxel Exchange).
    pub avg_assigned: f64,
    /// Maximum probe locations assigned to any tile.
    pub max_assigned: f64,
}

impl DecompositionGeometry {
    /// Area of the average extended tile in pixels.
    pub fn extended_area(&self) -> f64 {
        self.extended_px.0 * self.extended_px.1
    }

    /// Area of the average core tile in pixels.
    pub fn core_area(&self) -> f64 {
        self.tile_px.0 * self.tile_px.1
    }

    /// Area of the average halo in pixels.
    pub fn halo_area(&self) -> f64 {
        (self.extended_area() - self.core_area()).max(0.0)
    }

    /// Bytes of the average tile's core and halo voxels over `slices`
    /// slices, at [`GPU_VOXEL_BYTES`]: a breakdown's `tile_voxels` and
    /// `halo_voxels`.
    pub fn voxel_bytes(&self, slices: f64) -> (f64, f64) {
        (
            self.core_area() * slices * GPU_VOXEL_BYTES,
            self.halo_area() * slices * GPU_VOXEL_BYTES,
        )
    }
}

/// Counts how many probe centres of a 1D scan axis fall inside `[lo, hi)`.
/// Probe centres sit at `origin + i·step` for `i in 0..count`.
fn probes_in_range(origin: f64, step: f64, count: usize, lo: f64, hi: f64) -> usize {
    (0..count)
        .filter(|&i| {
            let p = origin + i as f64 * step;
            p >= lo && p < hi
        })
        .count()
}

/// Computes the decomposition geometry of a paper-scale dataset for a GPU
/// count, halo width (in picometres) and probe-assignment margin (in probe
/// rows; 0 for Gradient Decomposition, 2 for Halo Voxel Exchange).
pub fn decomposition_geometry(
    spec: &DatasetSpec,
    gpus: usize,
    halo_pm: f64,
    extra_probe_rows: usize,
) -> DecompositionGeometry {
    assert!(gpus > 0, "need at least one GPU");
    let grid = TileGrid::grid_dims_for(gpus);
    let lateral = spec.lateral_px() as f64;
    let tile_rows = lateral / grid.0 as f64;
    let tile_cols = lateral / grid.1 as f64;
    let halo_px = halo_pm / spec.voxel_size_pm.0;

    // Average extension: interior tiles gain the full halo on both sides,
    // border tiles are clamped; averaging over the grid gives the expected
    // extension per axis.
    let avg_ext = |tiles: usize, tile: f64| -> f64 {
        if tiles == 1 {
            tile.min(lateral)
        } else {
            let interior = tiles.saturating_sub(2) as f64;
            let border = 2.0;
            let interior_ext = tile + 2.0 * halo_px;
            let border_ext = tile + halo_px;
            ((interior * interior_ext + border * border_ext) / tiles as f64).min(lateral)
        }
    };
    let extended = (avg_ext(grid.0, tile_rows), avg_ext(grid.1, tile_cols));

    // Probe centres form a regular grid inside the scanned area.
    let (scan_rows, scan_cols) = spec.scan_grid;
    let step = spec.scan_step_px();
    let scan_origin = spec.scan_margin_px();
    let assign_margin = extra_probe_rows as f64 * step;

    let mut owned_counts = Vec::with_capacity(gpus);
    let mut assigned_counts = Vec::with_capacity(gpus);
    for gr in 0..grid.0 {
        let row_lo = gr as f64 * tile_rows;
        let row_hi = (gr + 1) as f64 * tile_rows;
        let owned_rows = probes_in_range(scan_origin, step, scan_rows, row_lo, row_hi);
        let assigned_rows = probes_in_range(
            scan_origin,
            step,
            scan_rows,
            row_lo - assign_margin,
            row_hi + assign_margin,
        );
        for gc in 0..grid.1 {
            let col_lo = gc as f64 * tile_cols;
            let col_hi = (gc + 1) as f64 * tile_cols;
            let owned_cols = probes_in_range(scan_origin, step, scan_cols, col_lo, col_hi);
            let assigned_cols = probes_in_range(
                scan_origin,
                step,
                scan_cols,
                col_lo - assign_margin,
                col_hi + assign_margin,
            );
            owned_counts.push(owned_rows * owned_cols);
            assigned_counts.push(assigned_rows * assigned_cols);
        }
    }
    let avg = |v: &[usize]| v.iter().sum::<usize>() as f64 / v.len() as f64;
    let max = |v: &[usize]| v.iter().copied().max().unwrap_or(0) as f64;

    DecompositionGeometry {
        gpus,
        grid,
        tile_px: (tile_rows, tile_cols),
        halo_px,
        extended_px: extended,
        avg_owned: avg(&owned_counts),
        max_owned: max(&owned_counts),
        avg_assigned: avg(&assigned_counts),
        max_assigned: max(&assigned_counts),
    }
}

/// Per-GPU memory footprint of the Gradient Decomposition method.
pub fn gd_memory_per_gpu(spec: &DatasetSpec, gpus: usize, halo_pm: f64) -> MemoryBreakdown {
    let geometry = decomposition_geometry(spec, gpus, halo_pm, 0);
    memory_from_geometry(spec, &geometry, true)
}

/// Per-GPU memory footprint of the Halo Voxel Exchange baseline.
pub fn hve_memory_per_gpu(
    spec: &DatasetSpec,
    gpus: usize,
    halo_pm: f64,
    extra_probe_rows: usize,
) -> MemoryBreakdown {
    let geometry = decomposition_geometry(spec, gpus, halo_pm, extra_probe_rows);
    memory_from_geometry(spec, &geometry, false)
}

fn memory_from_geometry(
    spec: &DatasetSpec,
    geometry: &DecompositionGeometry,
    with_accumulation_buffer: bool,
) -> MemoryBreakdown {
    let slices = spec.slices() as f64;
    let detector = (spec.detector_px * spec.detector_px) as f64;
    let (tile_voxels, halo_voxels) = geometry.voxel_bytes(slices);
    let measurements = geometry.avg_assigned * detector * GPU_MEASUREMENT_BYTES;
    let buffers = if with_accumulation_buffer {
        geometry.extended_area() * slices * GPU_VOXEL_BYTES
    } else {
        0.0
    };
    let workspace =
        WORKSPACE_DETECTOR_BUFFERS * detector * GPU_VOXEL_BYTES + FRAMEWORK_OVERHEAD_BYTES;
    MemoryBreakdown {
        tile_voxels,
        halo_voxels,
        measurements,
        buffers,
        workspace,
    }
}

/// The Halo Voxel Exchange feasibility rule used for the "NA" entries of the
/// paper's tables: each core tile must comfortably cover the halos it has to
/// fill in its neighbours (we require the smallest tile side to be at least
/// 1.5× the halo width).
///
/// This is deliberately *stricter* than [`hve_hard_feasible`]: the tables
/// mark a cell NA once the method stops being practical, which happens
/// before it becomes geometrically impossible. Every analytically feasible
/// cell is therefore also hard-feasible (the threaded
/// `HaloVoxelExchangeSolver` will construct), but not vice versa.
pub fn hve_feasible(spec: &DatasetSpec, gpus: usize, halo_pm: f64) -> bool {
    let geometry = decomposition_geometry(spec, gpus, halo_pm, 0);
    let min_tile = geometry.tile_px.0.min(geometry.tile_px.1);
    min_tile >= 1.5 * geometry.halo_px
}

/// The *hard* Halo Voxel Exchange constraint — the analytic twin of
/// `TileGrid::hve_feasible`, which is what makes
/// `HaloVoxelExchangeSolver::new` return an error: a tile strictly smaller
/// than the halo it must fill in its neighbours cannot produce consistent
/// tiles at all.
pub fn hve_hard_feasible(spec: &DatasetSpec, gpus: usize, halo_pm: f64) -> bool {
    let geometry = decomposition_geometry(spec, gpus, halo_pm, 0);
    let min_tile = geometry.tile_px.0.min(geometry.tile_px.1);
    min_tile >= geometry.halo_px
}

#[cfg(test)]
mod tests {
    use super::*;

    const GD_HALO_PM: f64 = 600.0;
    const HVE_HALO_PM: f64 = 890.0;

    #[test]
    fn geometry_partitions_probes() {
        let spec = DatasetSpec::lead_titanate_large();
        for gpus in [6, 54, 462, 4158] {
            let g = decomposition_geometry(&spec, gpus, GD_HALO_PM, 0);
            let total_owned = g.avg_owned * gpus as f64;
            assert!(
                (total_owned - spec.probe_locations as f64).abs() < 1e-6,
                "owned probes must partition the scan at {gpus} GPUs: {total_owned}"
            );
            assert!(g.max_owned >= g.avg_owned);
        }
    }

    #[test]
    fn hve_assigns_more_probes_than_gd() {
        let spec = DatasetSpec::lead_titanate_large();
        for gpus in [6, 54, 462] {
            let gd = decomposition_geometry(&spec, gpus, GD_HALO_PM, 0);
            let hve = decomposition_geometry(&spec, gpus, HVE_HALO_PM, 2);
            assert!(
                hve.avg_assigned > gd.avg_owned,
                "HVE must assign redundant probes at {gpus} GPUs"
            );
        }
    }

    #[test]
    fn memory_decreases_with_gpus() {
        let spec = DatasetSpec::lead_titanate_large();
        let counts = [6usize, 54, 198, 462, 924, 4158];
        let footprints: Vec<f64> = counts
            .iter()
            .map(|&g| gd_memory_per_gpu(&spec, g, GD_HALO_PM).gigabytes())
            .collect();
        for pair in footprints.windows(2) {
            assert!(
                pair[1] < pair[0],
                "memory must shrink with more GPUs: {footprints:?}"
            );
        }
    }

    #[test]
    fn memory_matches_paper_scale_large_dataset() {
        // Table III(a): 9.14 GB at 6 GPUs, 0.18 GB at 4158 GPUs. The model
        // should land in the same ballpark (within ~50%) and reproduce a
        // memory-reduction factor of several tens.
        let spec = DatasetSpec::lead_titanate_large();
        let at6 = gd_memory_per_gpu(&spec, 6, GD_HALO_PM).gigabytes();
        let at4158 = gd_memory_per_gpu(&spec, 4158, GD_HALO_PM).gigabytes();
        assert!((4.5..14.0).contains(&at6), "6-GPU footprint {at6} GB");
        assert!(
            (0.08..0.4).contains(&at4158),
            "4158-GPU footprint {at4158} GB"
        );
        let reduction = at6 / at4158;
        assert!(
            reduction > 25.0,
            "memory reduction {reduction} should be tens of x"
        );
    }

    #[test]
    fn gd_beats_hve_memory_at_matching_gpu_counts() {
        let spec = DatasetSpec::lead_titanate_large();
        for gpus in [54, 198, 462] {
            let gd = gd_memory_per_gpu(&spec, gpus, GD_HALO_PM).gigabytes();
            let hve = hve_memory_per_gpu(&spec, gpus, HVE_HALO_PM, 2).gigabytes();
            assert!(
                hve > gd,
                "HVE ({hve} GB) should need more memory than GD ({gd} GB) at {gpus} GPUs"
            );
        }
    }

    #[test]
    fn memory_floor_ratio_between_methods() {
        // Paper: GD reaches 0.18 GB at 4158 GPUs while HVE bottoms out at
        // 0.48 GB at its scalability limit of 462 GPUs (~2.7x more).
        let spec = DatasetSpec::lead_titanate_large();
        let gd_floor = gd_memory_per_gpu(&spec, 4158, GD_HALO_PM).gigabytes();
        let hve_floor = hve_memory_per_gpu(&spec, 462, HVE_HALO_PM, 2).gigabytes();
        let ratio = hve_floor / gd_floor;
        assert!(
            ratio > 1.5,
            "HVE floor ({hve_floor}) should be well above GD floor ({gd_floor}), ratio {ratio}"
        );
    }

    #[test]
    fn analytic_na_is_stricter_than_the_hard_constraint() {
        // If the tables say a cell is runnable, the solver's hard constraint
        // must agree; the converse may not hold (the 1.5x practicality band).
        for spec in [
            DatasetSpec::lead_titanate_small(),
            DatasetSpec::lead_titanate_large(),
        ] {
            for gpus in [6usize, 24, 54, 126, 198, 462, 924, 4158] {
                if hve_feasible(&spec, gpus, HVE_HALO_PM) {
                    assert!(
                        hve_hard_feasible(&spec, gpus, HVE_HALO_PM),
                        "{} at {gpus} GPUs: table cell feasible but hard-infeasible",
                        spec.name
                    );
                }
            }
        }
    }

    #[test]
    fn hve_feasibility_limits_match_paper() {
        // Table II(b): HVE runs up to 54 GPUs on the small dataset, NA beyond.
        let small = DatasetSpec::lead_titanate_small();
        assert!(hve_feasible(&small, 6, HVE_HALO_PM));
        assert!(hve_feasible(&small, 54, HVE_HALO_PM));
        assert!(!hve_feasible(&small, 126, HVE_HALO_PM));
        // Table III(b): up to 462 GPUs on the large dataset.
        let large = DatasetSpec::lead_titanate_large();
        assert!(hve_feasible(&large, 462, HVE_HALO_PM));
        assert!(!hve_feasible(&large, 924, HVE_HALO_PM));
        // GD has no such limit at these scales.
        assert!(hve_feasible(&large, 6, GD_HALO_PM));
    }

    #[test]
    fn breakdown_totals_are_consistent() {
        let spec = DatasetSpec::lead_titanate_small();
        let b = gd_memory_per_gpu(&spec, 24, GD_HALO_PM);
        let sum = b.tile_voxels + b.halo_voxels + b.measurements + b.buffers + b.workspace;
        assert!((b.total_bytes() - sum).abs() < 1.0);
        assert!(b.gigabytes() > 0.0);
        // HVE has no accumulation buffers.
        let hve = hve_memory_per_gpu(&spec, 24, HVE_HALO_PM, 2);
        assert_eq!(hve.buffers, 0.0);
    }
}
