//! Algorithm 1: Asynchronous Pipelining for Parallel Passes.
//!
//! Every rank owns one halo-extended tile and the probe locations whose
//! centres fall inside its core tile. Per probe location it computes the
//! individual image gradient, adds it to the accumulation buffer (`AccBuf` in
//! the paper), and optionally applies it locally right away (step 8). After
//! every `T` probe locations the directional passes of [`super::passes`]
//! accumulate the buffers across tiles and the tile is updated from the
//! accumulated gradients (steps 9–16). The passes for different tile columns
//! and rows proceed concurrently and communication is non-blocking, which is
//! the Asynchronous Pipelining for Parallel Passes technique of Sec. V.
//!
//! The iteration driving (and the recovery machinery) lives in the shared
//! [`engine`](crate::engine); this module contributes the kernel describing
//! what one Gradient Decomposition iteration does on one rank.
//!
//! Deliberate deviations from the paper's pseudo-code:
//!
//! * When local per-probe updates are enabled, step 15 applies the
//!   accumulated buffer *minus the gradients this tile already applied
//!   locally*, so that no probe's gradient is applied to the same voxels
//!   twice. With local updates disabled (`SolverConfig::local_updates =
//!   false`) the method reduces exactly to synchronous data-parallel gradient
//!   descent, which the integration tests exploit to verify equivalence with
//!   a serial reference.
//! * Steps 10–16 visit only the cells a round can have touched. The scan is
//!   known up front, so [`GradientDecompositionSolver::run_job`] computes a
//!   [`PassPlan`] once: per round and rank, seeded with the bounding box of
//!   the probe windows the rank accumulates in that round, the sub-rectangle
//!   of each overlap strip that travels in each sweep (none at all when it
//!   would carry only zeros) and the disjoint rectangles one fused sweep
//!   updates the tile (steps 14–15) and resets the buffers (step 16) over.
//!   Everything skipped is an exact zero, so the reconstruction is
//!   bit-identical to shipping whole strips and sweeping whole tiles
//!   (`tests/golden_solver.rs`); what changes is the work and message
//!   volume — at `T = 1` by an order of magnitude.
//! * With local updates, `AccBuf` and the record of locally applied
//!   gradients are touched only on the cells a pass sends or receives
//!   ([`RankPasses::shared`]; none on one tile). Every other cell would
//!   take the same adds in both buffers, so step 15 would apply `total −
//!   own = +0.0` there: step 7 and steps 14–16 skip it, and only step 8
//!   writes the volume over the whole window.
//! * The buffers hold one round's cells at a time. Step 16 resets them
//!   every round, so each round lays its own cells out at their front
//!   ([`StripLayout::for_round`]) and they are as long as the longest
//!   round's layout. The paper's buffer spans the extended tile; the
//!   reconstruction is bit-identical.
//! * No gradient volume is held: the adjoint hands each slice's gradient
//!   to steps 8 and 7 as soon as it has computed it
//!   (`TileWorker::probe_step`).
//!
//! [`RankPasses::shared`]: crate::gradient_decomp::passes::RankPasses::shared

use crate::config::SolverConfig;
use crate::engine::{JobContext, ReconstructionResult, RecoveryPolicy, SolverKernel};
use crate::gradient_decomp::passes::{run_planned_passes, PassPlan, StripLayout, StripPasses};
use crate::tiling::TileGrid;
use crate::worker::{AccBuffers, TileWorker};
use ptycho_array::Rect;
use ptycho_cluster::{CommBackend, CommError, RankComm, RankFailure, SharedTile, TilePayloadPool};
use ptycho_fft::CArray3;
use ptycho_sim::dataset::Dataset;
use ptycho_sim::scan::ProbeLocation;

/// The Gradient Decomposition parallel solver (the paper's contribution).
pub struct GradientDecompositionSolver<'a> {
    dataset: &'a Dataset,
    config: SolverConfig,
    grid: TileGrid,
}

impl<'a> GradientDecompositionSolver<'a> {
    /// Creates a solver that decomposes `dataset`'s reconstruction over a
    /// `grid_dims.0 × grid_dims.1` tile grid.
    pub fn new(dataset: &'a Dataset, config: SolverConfig, grid_dims: (usize, usize)) -> Self {
        let (_, rows, cols) = dataset.object_shape();
        let grid = TileGrid::new(
            rows,
            cols,
            grid_dims.0,
            grid_dims.1,
            config.halo_px,
            dataset.scan(),
        );
        Self {
            dataset,
            config,
            grid,
        }
    }

    /// The tile decomposition.
    pub fn grid(&self) -> &TileGrid {
        &self.grid
    }

    /// The solver configuration.
    pub fn config(&self) -> &SolverConfig {
        &self.config
    }

    /// Number of synchronisation rounds per iteration (identical on every
    /// rank, so the collective passes cannot deadlock).
    fn rounds_per_iteration(&self) -> usize {
        let max_owned = self
            .grid
            .tiles()
            .iter()
            .map(|t| t.owned_locations.len())
            .max()
            .unwrap_or(0);
        match self.config.pass_frequency {
            crate::config::PassFrequency::EveryProbe => max_owned.max(1),
            crate::config::PassFrequency::PerIteration(times) => times.clamp(1, max_owned.max(1)),
        }
    }

    /// The static pass plan of a job, one round per synchronisation point of
    /// an iteration: every rank's seed in a round is the bounding box of the
    /// probe windows of its [`round_share`].
    fn pass_plan(&self) -> PassPlan {
        let rounds = self.rounds_per_iteration();
        let seeds: Vec<Rect> = (0..rounds)
            .flat_map(|round| {
                self.grid.tiles().iter().map(move |tile| {
                    round_share(&tile.owned_locations, round, rounds)
                        .iter()
                        .fold(Rect::empty(), |seed, loc| seed.bounding_union(&loc.window))
                })
            })
            .collect();
        PassPlan::new(&self.grid, &seeds)
    }

    /// Runs the reconstruction on `backend`, one rank per tile, under
    /// `policy`: [`RecoveryPolicy::FailFast`] surfaces the first
    /// communication failure, [`RecoveryPolicy::Recover`] rolls a failed
    /// attempt back to the last completed iteration and re-runs it. The [`JobContext`] adds cooperative
    /// cancellation, per-iteration progress streaming, telemetry, durable
    /// checkpoints and an externally owned spare pool;
    /// `JobContext::default()` adds none.
    pub fn run_job<B: CommBackend>(
        &self,
        backend: &B,
        policy: RecoveryPolicy,
        job: &JobContext<'_>,
    ) -> Result<ReconstructionResult, RankFailure> {
        let initial = self.dataset.initial_guess();
        // Per run, not in `new`: the plan depends on the round split,
        // construction on the geometry only.
        let plan = self.pass_plan();
        let kernel = GdKernel {
            dataset: self.dataset,
            grid: &self.grid,
            config: self.config,
            plan: &plan,
            initial: &initial,
        };
        crate::engine::run(&kernel, policy, backend, job)
    }
}

/// The probe locations a rank visits in `round` of `rounds`: its share of
/// the locations it owns — the one definition of the round split, shared by
/// the pass plan and the iteration that follows it.
fn round_share(owned: &[ProbeLocation], round: usize, rounds: usize) -> &[ProbeLocation] {
    &owned[round * owned.len() / rounds..(round + 1) * owned.len() / rounds]
}

/// The Gradient Decomposition `SolverKernel`: Algorithm 1's per-rank,
/// per-iteration body, plugged into the shared iteration engine.
struct GdKernel<'a> {
    dataset: &'a Dataset,
    grid: &'a TileGrid,
    config: SolverConfig,
    /// One round per synchronisation point of an iteration.
    plan: &'a PassPlan,
    initial: &'a CArray3,
}

/// Rank-local Gradient Decomposition scratch. Every buffer is allocated once
/// here and reused across iterations — the steady-state loop is
/// allocation-free (pinned by `tests/alloc_regression.rs`) — and both
/// accumulation buffers are zero at every round boundary.
struct GdState {
    owned: Vec<ProbeLocation>,
    /// This rank's part in every round of the plan, each split over its own
    /// layout, which it runs on at the front of `buffers`.
    rounds: Vec<StripPasses>,
    buffers: AccBuffers,
    /// Recycles the pass-message payload buffers, so steady-state sends
    /// allocate nothing.
    pool: TilePayloadPool,
}

impl SolverKernel for GdKernel<'_> {
    type State<'k>
        = GdState
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

    fn init<'k, C: RankComm<SharedTile>>(&'k self, ctx: &mut C) -> (TileWorker<'k>, GdState) {
        let rank = ctx.rank();
        let tile = self.grid.tile(rank).clone();
        let owned = tile.owned_locations.clone();
        let slices = self.dataset.object_shape().0;

        let worker = TileWorker::new(
            self.dataset,
            &tile,
            self.initial,
            &self.config,
            owned.len(),
            ctx.memory_mut(),
        );
        // A round visits what its passes exchange with local updates
        // (elsewhere `acc` and `own` would take the same adds and the update
        // would apply `+0.0`), its cover without them, which holds every
        // cell the round's windows touch; it is laid out over those cells
        // and its message regions. The accumulation buffer (and, with local
        // updates, the record of what was already applied locally) live on
        // the GPU too, as long as the longest round's layout.
        let rounds: Vec<StripPasses> = (0..self.plan.rounds())
            .map(|round| {
                let passes = self.plan.passes(round, rank);
                let cells = if self.config.local_updates {
                    &passes.shared
                } else {
                    &passes.cover
                };
                StripLayout::for_round(&passes.steps, cells, slices).split(&passes.steps, cells)
            })
            .collect();
        let longest = rounds.iter().map(StripPasses::len).max().unwrap_or(0);
        let buffers = AccBuffers::new(longest, self.config.local_updates, ctx.memory_mut());
        let state = GdState {
            owned,
            rounds,
            buffers,
            pool: TilePayloadPool::new(),
        };
        (worker, state)
    }

    fn run_iteration<C: RankComm<SharedTile>>(
        &self,
        ctx: &mut C,
        worker: &mut TileWorker<'_>,
        state: &mut GdState,
        _iteration: usize,
    ) -> Result<f64, CommError> {
        let GdState {
            owned,
            rounds,
            buffers,
            pool,
        } = state;
        let mut iteration_cost = 0.0;
        for (round, passes) in rounds.iter().enumerate() {
            let cells = passes.cells();
            for loc in round_share(owned, round, rounds.len()) {
                // The gradient, and steps 7 and 8 on each slice of it.
                iteration_cost += worker.probe_step(ctx.clock_mut(), loc, buffers, cells);
            }

            // Steps 10-13: accumulate gradients across tiles, on the front
            // of `acc` this round's layout holds.
            run_planned_passes(ctx, passes, &mut buffers.acc[..passes.len()], pool)?;

            // Steps 14-16: update the tile from the accumulated gradients and
            // reset the buffers in place, in one sweep over the same cells;
            // everywhere else the update is a bitwise identity.
            worker.update_and_reset(buffers, cells);
        }
        Ok(iteration_cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PassFrequency;
    use ptycho_cluster::{Cluster, ClusterTopology, MemoryCategory};
    use ptycho_fft::Complex32;
    use ptycho_sim::dataset::SyntheticConfig;
    use std::mem::size_of;

    fn tiny_dataset() -> Dataset {
        Dataset::synthesize(SyntheticConfig::tiny())
    }

    fn quick_config(iterations: usize) -> SolverConfig {
        SolverConfig {
            iterations,
            halo_px: 20,
            ..SolverConfig::default()
        }
    }

    #[test]
    fn single_rank_reduces_cost() {
        let dataset = tiny_dataset();
        let solver = GradientDecompositionSolver::new(&dataset, quick_config(3), (1, 1));
        let result = solver
            .run_job(
                &Cluster::new(ClusterTopology::summit()),
                RecoveryPolicy::FailFast,
                &JobContext::default(),
            )
            .expect("fault-free run completes");
        assert_eq!(result.volume.shape(), dataset.object_shape());
        assert!(result.cost_history.is_monotonically_decreasing());
        assert!(result.cost_history.final_cost() < result.cost_history.initial_cost());
        assert!(result.recovery.is_clean());
    }

    #[test]
    fn four_ranks_reduce_cost_and_report_memory() {
        let dataset = tiny_dataset();
        let solver = GradientDecompositionSolver::new(&dataset, quick_config(3), (2, 2));
        let result = solver
            .run_job(
                &Cluster::new(ClusterTopology::summit()),
                RecoveryPolicy::FailFast,
                &JobContext::default(),
            )
            .expect("fault-free run completes");
        assert_eq!(result.time.len(), 4);
        assert_eq!(result.memory.len(), 4);
        assert!(result.cost_history.final_cost() < result.cost_history.initial_cost());
        assert!(result.average_peak_memory_bytes() > 0.0);
        // Each rank holds roughly a quarter of the volume plus halo, so its
        // voxel storage (tile + halo) must be well below the full volume's
        // at the same complex `f32`.
        let (d, r, c) = dataset.object_shape();
        let full_volume_bytes = d * r * c * size_of::<Complex32>();
        for m in &result.memory {
            let voxel_bytes = m.peak_of(ptycho_cluster::MemoryCategory::TileVoxels)
                + m.peak_of(ptycho_cluster::MemoryCategory::HaloVoxels);
            assert!(voxel_bytes < full_volume_bytes);
        }
    }

    #[test]
    fn accumulation_buffer_charge_equals_the_bytes_held() {
        // Each round is laid out over the cells it visits (its shared cells
        // with local updates, its cover without them) and its message
        // regions, and both buffers are as long as the longest round's
        // layout: nothing on one tile, part of the overlap band on 2×1. Each
        // value is complex `f32`, charged at its 8 bytes, once per buffer
        // held. On a 192-px object cut 3×3 at `T = 1` over a 6×6 scan (four
        // rounds) with an 8-px halo, every rank's longest round holds fewer
        // cells than the union of its rounds' shared cells (the centre rank
        // 1 536 of 4 096).
        let default = SolverConfig::default().pass_frequency;
        let cases = [
            ((1, 1), true, default, 20),
            ((2, 1), true, default, 20),
            ((2, 1), false, default, 20),
            ((3, 3), true, PassFrequency::EveryProbe, 8),
        ];
        for (grid, local_updates, pass_frequency, halo_px) in cases {
            let dataset = Dataset::synthesize(SyntheticConfig {
                object_px: if grid == (3, 3) { 192 } else { 96 },
                scan_grid: if grid == (3, 3) { (6, 6) } else { (3, 3) },
                ..SyntheticConfig::tiny()
            });
            let initial = dataset.initial_guess();
            let slices = dataset.object_shape().0;
            let config = SolverConfig {
                local_updates,
                pass_frequency,
                halo_px,
                ..quick_config(1)
            };
            let solver = GradientDecompositionSolver::new(&dataset, config, grid);
            let plan = solver.pass_plan();
            let kernel = GdKernel {
                dataset: &dataset,
                grid: solver.grid(),
                config,
                plan: &plan,
                initial: &initial,
            };
            ptycho_cluster::LockstepBackend::new(ClusterTopology::summit())
                .run::<SharedTile, (), _>(grid.0 * grid.1, |ctx| {
                    let rank = ctx.rank();
                    let extended = solver.grid().tile(rank).extended;
                    let tile = extended.to_local(&extended);
                    let cells_in = |rects: &[Rect]| {
                        let tile_cells = (tile.row0..tile.row1)
                            .flat_map(|r| (tile.col0..tile.col1).map(move |c| (r, c)));
                        tile_cells
                            .filter(|&(r, c)| rects.iter().any(|x| x.contains(r, c)))
                            .count()
                    };
                    // Per round, the cells visited and exchanged, counted
                    // cell by cell.
                    let round_cells: Vec<usize> = (0..plan.rounds())
                        .map(|round| {
                            let passes = plan.passes(round, rank);
                            let visited = if local_updates {
                                &passes.shared
                            } else {
                                &passes.cover
                            };
                            let regions = passes.steps.iter().map(|s| s.transfer.region);
                            let rects: Vec<Rect> = visited.iter().copied().chain(regions).collect();
                            cells_in(&rects)
                        })
                        .collect();
                    let longest = round_cells.iter().copied().max().unwrap_or(0);
                    let (_, state) = kernel.init(ctx);
                    let layouts: Vec<usize> = state.rounds.iter().map(StripPasses::len).collect();
                    let want: Vec<usize> = round_cells.iter().map(|n| n * slices).collect();
                    assert_eq!(layouts, want, "rank {rank}");
                    let AccBuffers { acc, own } = &state.buffers;
                    assert_eq!(own.is_some(), local_updates);
                    assert_eq!(acc.len(), longest * slices);
                    assert_eq!(own.as_ref().map_or(acc.len(), Vec::len), acc.len());
                    let held = acc.len() + own.as_ref().map_or(0, Vec::len);
                    assert_eq!(size_of::<Complex32>(), 8);
                    assert_eq!(
                        ctx.memory_mut()
                            .current_of(MemoryCategory::AccumulationBuffer),
                        held * 8
                    );
                    let every_round: Vec<Rect> = (0..plan.rounds())
                        .flat_map(|round| plan.passes(round, rank).shared.iter().copied())
                        .collect();
                    match (grid, local_updates) {
                        ((1, 1), _) => assert_eq!(held, 0),
                        // Inside the 40-row overlap band of a 68 × 96
                        // extended tile.
                        ((2, 1), true) => {
                            assert_eq!(extended.shape(), (68, 96));
                            assert!(0 < longest && longest <= 40 * 96, "{longest}");
                        }
                        // The round's cover and what it sends: at most the
                        // extended tile.
                        ((2, 1), false) => {
                            assert!(0 < longest && longest <= tile.area(), "{longest}")
                        }
                        _ => {
                            let union = cells_in(&every_round);
                            assert!(longest < union, "{longest} of {union} cells held");
                        }
                    }
                    Ok(())
                })
                .expect("no faults injected");
        }
    }

    #[test]
    fn decomposed_matches_serial_when_updates_are_synchronous() {
        // With local updates disabled and one pass per iteration, the parallel
        // method is exactly synchronous full-gradient descent, so any tile
        // grid must give the same answer as a single rank.
        let dataset = tiny_dataset();
        let config = SolverConfig {
            iterations: 2,
            local_updates: false,
            pass_frequency: PassFrequency::PerIteration(1),
            halo_px: 20,
            ..SolverConfig::default()
        };
        let cluster = Cluster::new(ClusterTopology::summit());

        let serial = GradientDecompositionSolver::new(&dataset, config, (1, 1))
            .run_job(&cluster, RecoveryPolicy::FailFast, &JobContext::default())
            .expect("fault-free run completes");
        let parallel = GradientDecompositionSolver::new(&dataset, config, (2, 2))
            .run_job(&cluster, RecoveryPolicy::FailFast, &JobContext::default())
            .expect("fault-free run completes");

        let max_diff = serial
            .volume
            .iter()
            .zip(parallel.volume.iter())
            .map(|(a, b)| (*a - *b).abs())
            .fold(0.0f64, f64::max);
        assert!(
            max_diff < 1e-6,
            "parallel synchronous GD should match serial GD, max diff {max_diff}"
        );
        for (a, b) in serial
            .cost_history
            .costs()
            .iter()
            .zip(parallel.cost_history.costs())
        {
            assert!((a - b).abs() < 1e-6 * a.max(1.0));
        }
    }

    #[test]
    fn pass_frequency_variants_all_converge() {
        let dataset = tiny_dataset();
        let cluster = Cluster::new(ClusterTopology::summit());
        for freq in [
            PassFrequency::EveryProbe,
            PassFrequency::PerIteration(2),
            PassFrequency::PerIteration(1),
        ] {
            let config = SolverConfig {
                iterations: 2,
                pass_frequency: freq,
                halo_px: 20,
                ..SolverConfig::default()
            };
            let result = GradientDecompositionSolver::new(&dataset, config, (2, 2))
                .run_job(&cluster, RecoveryPolicy::FailFast, &JobContext::default())
                .expect("fault-free run completes");
            assert!(
                result.cost_history.final_cost() < result.cost_history.initial_cost(),
                "{freq:?} failed to reduce the cost"
            );
        }
    }

    #[test]
    fn recovery_mode_matches_fail_fast_on_a_clean_run() {
        // The per-iteration barriers and checkpoints must not change the
        // numerics: a fault-free recovery-mode run is
        // bit-identical to the fail-fast run.
        let dataset = tiny_dataset();
        let solver = GradientDecompositionSolver::new(&dataset, quick_config(2), (2, 2));
        let backend = ptycho_cluster::LockstepBackend::new(ClusterTopology::summit());
        let plain = solver
            .run_job(&backend, RecoveryPolicy::FailFast, &JobContext::default())
            .expect("fault-free run cannot fail");
        let recovered = solver
            .run_job(
                &backend,
                RecoveryPolicy::Recover {
                    spares: 0,
                    max_iteration_restarts: 2,
                },
                &JobContext::default(),
            )
            .expect("fault-free run cannot fail");
        assert_eq!(recovered.recovery.iteration_restarts, 0);
        for (a, b) in plain.volume.iter().zip(recovered.volume.iter()) {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
    }
}
