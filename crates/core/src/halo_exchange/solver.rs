//! The Halo Voxel Exchange parallel solver.
//!
//! The iteration driving (and the recovery machinery) lives in the shared
//! [`engine`](crate::engine); this module contributes the kernel describing
//! what one baseline iteration does on one rank: embarrassingly parallel tile reconstruction with
//! redundant probe locations, followed every `hve_exchange_period`
//! iterations by the synchronous voxel copy-paste exchange of Fig. 2(g).
//!
//! The paste is planned once per rank ([`paste_steps`]) and run, one replace
//! round per exchange, by GD's executor ([`run_planned_passes`]).

use crate::config::SolverConfig;
use crate::engine::{JobContext, ReconstructionResult, RecoveryPolicy, SolverKernel};
use crate::gradient_decomp::passes::{run_planned_passes, Op, Step, StripLayout, StripPasses};
use crate::tiling::TileGrid;
use crate::worker::{AccBuffers, TileWorker};
use ptycho_array::Rect;
use ptycho_cluster::{CommBackend, CommError, RankComm, RankFailure, SharedTile, TilePayloadPool};
use ptycho_fft::CArray3;
use ptycho_sim::dataset::Dataset;
use ptycho_sim::scan::ProbeLocation;

/// Message tag used for the voxel copy-paste exchange.
const TAG_VOXEL_PASTE: u64 = 0x20;

/// Payload buffers a rank's pool holds per paste send from the start.
const PASTE_PAYLOAD_COPIES: usize = 2;

/// Errors the baseline can report before running.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HaloExchangeError {
    /// The tiles are smaller than the halos they must fill for their
    /// neighbours, so the method cannot produce consistent tiles — the "NA"
    /// entries of Table II(b).
    TileSmallerThanHalo {
        /// The halo width the method requires, in pixels.
        required_halo_px: usize,
        /// The smallest tile side in the decomposition, in pixels.
        smallest_tile_px: usize,
    },
}

impl std::fmt::Display for HaloExchangeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HaloExchangeError::TileSmallerThanHalo {
                required_halo_px,
                smallest_tile_px,
            } => write!(
                f,
                "Halo Voxel Exchange infeasible: tiles of {smallest_tile_px} px cannot fill \
                 {required_halo_px} px halos in neighbouring tiles"
            ),
        }
    }
}

impl std::error::Error for HaloExchangeError {}

/// The Halo Voxel Exchange baseline solver.
pub struct HaloVoxelExchangeSolver<'a> {
    dataset: &'a Dataset,
    config: SolverConfig,
    grid: TileGrid,
    halo_px: usize,
    assigned: Vec<Vec<ProbeLocation>>,
}

impl<'a> HaloVoxelExchangeSolver<'a> {
    /// Creates the baseline solver on a `grid_dims` tile grid.
    ///
    /// The halo width is derived from the scan geometry so that the extra
    /// probe-location rows are covered (Sec. II-C), and every tile is assigned
    /// its owned probe locations plus `config.hve_extra_probe_rows` rings of
    /// neighbours.
    ///
    /// Returns an error when the decomposition violates the tile-size
    /// constraint that limits the baseline's scalability.
    pub fn new(
        dataset: &'a Dataset,
        config: SolverConfig,
        grid_dims: (usize, usize),
    ) -> Result<Self, HaloExchangeError> {
        let (_, rows, cols) = dataset.object_shape();
        let halo_px = TileGrid::hve_required_halo_px(dataset.scan(), config.hve_extra_probe_rows);
        let grid = TileGrid::new(
            rows,
            cols,
            grid_dims.0,
            grid_dims.1,
            halo_px,
            dataset.scan(),
        );

        let smallest_tile_px = grid
            .tiles()
            .iter()
            .map(|t| t.core.rows().min(t.core.cols()))
            .min()
            .unwrap_or(0);
        if !grid.hve_feasible(halo_px) {
            return Err(HaloExchangeError::TileSmallerThanHalo {
                required_halo_px: halo_px,
                smallest_tile_px,
            });
        }

        let assigned = (0..grid.num_tiles())
            .map(|rank| {
                grid.hve_assigned_locations(rank, dataset.scan(), config.hve_extra_probe_rows)
            })
            .collect();

        Ok(Self {
            dataset,
            config,
            grid,
            halo_px,
            assigned,
        })
    }

    /// The tile decomposition (with the HVE halo width).
    pub fn grid(&self) -> &TileGrid {
        &self.grid
    }

    /// The halo width the baseline needs, in pixels.
    pub fn halo_px(&self) -> usize {
        self.halo_px
    }

    /// Probe locations assigned to each rank (owned plus the extra rings).
    pub fn assigned(&self) -> &[Vec<ProbeLocation>] {
        &self.assigned
    }

    /// Total probe-location evaluations per iteration, counting the redundant
    /// extra assignments (always ≥ the scan length).
    pub fn total_assigned(&self) -> usize {
        self.assigned.iter().map(Vec::len).sum()
    }

    /// Runs the baseline under `policy` and the hooks of `job` (see
    /// [`GradientDecompositionSolver::run_job`]).
    ///
    /// [`GradientDecompositionSolver::run_job`]:
    ///     crate::GradientDecompositionSolver::run_job
    pub fn run_job<B: CommBackend>(
        &self,
        backend: &B,
        policy: RecoveryPolicy,
        job: &JobContext<'_>,
    ) -> Result<ReconstructionResult, RankFailure> {
        let initial = self.dataset.initial_guess();
        let kernel = HveKernel {
            dataset: self.dataset,
            grid: &self.grid,
            config: self.config,
            assigned: &self.assigned,
            initial: &initial,
        };
        crate::engine::run(&kernel, policy, backend, job)
    }
}

/// `rank`'s part in one voxel paste, in running order: sends of its core
/// voxels into every neighbour's halo (`core ∩ peer.extended`), then
/// replaces of its halo from every neighbour's core (`peer.core ∩
/// extended`), each in [`TileGrid::neighbors`] order, tile-local; an empty
/// region is no step. Every send is paired with one replace at the peer
/// (same tag, same image cells); a rank's replaces are disjoint, inside its
/// extended tile and outside its core, so their order moves no bit.
pub fn paste_steps(grid: &TileGrid, rank: usize) -> Vec<Step> {
    let (tile, neighbors) = (grid.tile(rank), grid.neighbors(rank));
    let send = |&p: &usize| (Op::Send, p, tile.core.intersect(&grid.tile(p).extended));
    let replace = |&p: &usize| (Op::Replace, p, grid.tile(p).core.intersect(&tile.extended));
    let steps = neighbors
        .iter()
        .map(send)
        .chain(neighbors.iter().map(replace));
    steps
        .filter(|(.., region)| !region.is_empty())
        .map(|(op, p, region)| Step::new(op, TAG_VOXEL_PASTE, p, region.to_local(&tile.extended)))
        .collect()
}

/// The Halo Voxel Exchange `SolverKernel`, plugged into the shared
/// iteration engine.
struct HveKernel<'a> {
    dataset: &'a Dataset,
    grid: &'a TileGrid,
    config: SolverConfig,
    assigned: &'a [Vec<ProbeLocation>],
    initial: &'a CArray3,
}

/// Rank-local Halo Voxel Exchange scratch.
struct HveState<'a> {
    /// Only the probes owned here, centred in the core, count towards the cost.
    core: Rect,
    probes: &'a [ProbeLocation],
    /// The rank's part in a voxel paste, split over the tile volume.
    paste: StripPasses,
    /// Recycles the voxel-paste payload buffers, so steady-state exchanges
    /// allocate nothing.
    pool: TilePayloadPool,
}

impl SolverKernel for HveKernel<'_> {
    type State<'k>
        = HveState<'k>
    where
        Self: 'k;

    fn grid(&self) -> &TileGrid {
        self.grid
    }

    fn slices(&self) -> usize {
        self.dataset.object_shape().0
    }

    fn iterations(&self) -> usize {
        self.config.iterations
    }

    fn init<'k, C: RankComm<SharedTile>>(&'k self, ctx: &mut C) -> (TileWorker<'k>, HveState<'k>) {
        let rank = ctx.rank();
        let tile = self.grid.tile(rank);
        let probes = self.assigned[rank].as_slice();
        let worker = TileWorker::new(
            self.dataset,
            tile,
            self.initial,
            &self.config,
            probes.len(),
            ctx.memory_mut(),
        );
        let volume = StripLayout::new(&[tile.extended.to_local(&tile.extended)], self.slices());
        let paste = volume.split(&paste_steps(self.grid, rank), &[]);
        // The paste sends all its messages before it receives any, so a
        // rank can be back at its pool before a slower peer has dropped
        // what it sent last time: hold PASTE_PAYLOAD_COPIES of each send up
        // front rather than growing the pool over the first exchanges.
        let pool = TilePayloadPool::with_capacity(&paste.send_lens(), PASTE_PAYLOAD_COPIES);
        let state = HveState {
            core: tile.core,
            probes,
            paste,
            pool,
        };
        (worker, state)
    }

    fn run_iteration<C: RankComm<SharedTile>>(
        &self,
        ctx: &mut C,
        worker: &mut TileWorker<'_>,
        state: &mut HveState<'_>,
        iteration: usize,
    ) -> Result<f64, CommError> {
        let HveState {
            core,
            probes,
            paste,
            pool,
        } = state;

        // Embarrassingly parallel tile reconstruction with the redundant probe
        // locations (Figs. 2(d)-(e)): every assigned probe's gradient is
        // applied locally, immediately — GD's per-probe step over no buffer
        // cells.
        let mut iteration_cost = 0.0;
        for loc in probes.iter() {
            let loss = worker.probe_step(ctx.clock_mut(), loc, &mut AccBuffers::local_only(), &[]);
            // Only count owned probes towards the global cost so that the
            // reported F(V) is comparable with the Gradient Decomposition
            // method (redundant evaluations would double-count).
            if core.contains(
                loc.center_px.0.floor() as i64,
                loc.center_px.1.floor() as i64,
            ) {
                iteration_cost += loss;
            }
        }

        // Voxel copy-paste: send my core voxels into every neighbour's halo,
        // receive their core voxels into mine (synchronous point-to-point
        // exchange, Fig. 2(g)). The baseline reconstructs tiles independently
        // for `hve_exchange_period` iterations between exchanges.
        let exchange_period = self.config.hve_exchange_period.max(1);
        if (iteration + 1).is_multiple_of(exchange_period)
            || iteration + 1 == self.config.iterations
        {
            run_planned_passes(ctx, paste, worker.volume_mut().as_mut_slice(), pool)?;
        }
        Ok(iteration_cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptycho_cluster::{Cluster, ClusterTopology};
    use ptycho_sim::dataset::SyntheticConfig;

    fn dataset() -> Dataset {
        Dataset::synthesize(SyntheticConfig {
            object_px: 128,
            scan_grid: (4, 4),
            ..SyntheticConfig::tiny()
        })
    }

    fn config(iterations: usize) -> SolverConfig {
        SolverConfig {
            iterations,
            hve_extra_probe_rows: 1,
            ..SolverConfig::default()
        }
    }

    #[test]
    fn assigns_redundant_probes() {
        let ds = dataset();
        let solver = HaloVoxelExchangeSolver::new(&ds, config(1), (2, 2)).unwrap();
        assert!(
            solver.total_assigned() > ds.scan().len(),
            "HVE must assign redundant probe locations ({} vs {})",
            solver.total_assigned(),
            ds.scan().len()
        );
    }

    #[test]
    fn reduces_cost_on_2x2_grid() {
        let ds = dataset();
        let solver = HaloVoxelExchangeSolver::new(&ds, config(2), (2, 2)).unwrap();
        let result = solver
            .run_job(
                &Cluster::new(ClusterTopology::summit()),
                RecoveryPolicy::FailFast,
                &JobContext::default(),
            )
            .expect("fault-free run completes");
        assert_eq!(result.volume.shape(), ds.object_shape());
        assert!(result.cost_history.final_cost() < result.cost_history.initial_cost());
    }

    #[test]
    fn infeasible_when_tiles_smaller_than_halo() {
        let ds = dataset();
        // An 8x8 grid on a 128 px object gives 16 px tiles, far below the
        // required halo (>= half the 32 px probe window plus the extra ring).
        let err = match HaloVoxelExchangeSolver::new(&ds, config(1), (8, 8)) {
            Err(e) => e,
            Ok(_) => panic!("an 8x8 grid should be infeasible for HVE"),
        };
        match err {
            HaloExchangeError::TileSmallerThanHalo {
                required_halo_px,
                smallest_tile_px,
            } => {
                assert!(required_halo_px > smallest_tile_px);
            }
        }
    }

    #[test]
    fn uses_larger_halo_than_gradient_decomposition_default() {
        let ds = dataset();
        let solver = HaloVoxelExchangeSolver::new(&ds, config(1), (2, 2)).unwrap();
        assert!(solver.halo_px() > SolverConfig::default().halo_px);
    }

    #[test]
    fn measurement_and_halo_memory_exceed_gradient_decomposition() {
        // The paper's memory argument: HVE needs extra probe-location
        // measurements and larger halos per tile than GD. (At paper scale the
        // measurements dominate the footprint; at this toy scale we compare
        // the two categories directly.)
        use crate::gradient_decomp::solver::GradientDecompositionSolver;
        use ptycho_cluster::MemoryCategory;
        let ds = dataset();
        let cluster = Cluster::new(ClusterTopology::summit());

        let hve = HaloVoxelExchangeSolver::new(&ds, config(1), (2, 2))
            .unwrap()
            .run_job(&cluster, RecoveryPolicy::FailFast, &JobContext::default())
            .expect("fault-free run completes");
        let gd_config = SolverConfig {
            iterations: 1,
            halo_px: 20,
            ..SolverConfig::default()
        };
        let gd = GradientDecompositionSolver::new(&ds, gd_config, (2, 2))
            .run_job(&cluster, RecoveryPolicy::FailFast, &JobContext::default())
            .expect("fault-free run completes");

        let category_total = |result: &ReconstructionResult, cat: MemoryCategory| -> usize {
            result.memory.iter().map(|m| m.peak_of(cat)).sum()
        };
        assert!(
            category_total(&hve, MemoryCategory::Measurements)
                > category_total(&gd, MemoryCategory::Measurements),
            "HVE must store measurements for its redundant probe locations"
        );
        assert!(
            category_total(&hve, MemoryCategory::HaloVoxels)
                > category_total(&gd, MemoryCategory::HaloVoxels),
            "HVE halos must be larger than GD halos"
        );
    }
}
