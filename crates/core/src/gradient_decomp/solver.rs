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
//!   ([`RankPasses::shared`]) and allocated only over their bounding box
//!   over all rounds ([`PassPlan::frame`]; empty on one tile). Every other
//!   cell would take the same adds in both buffers, so step 15 would apply
//!   `total − own = +0.0` there: step 7 and steps 14–16 skip it, and only
//!   step 8 writes the volume over the whole window. The paper's buffer
//!   spans the extended tile; the reconstruction is bit-identical.

use crate::config::SolverConfig;
use crate::engine::{JobContext, ReconstructionResult, RecoveryPolicy, SolverKernel};
use crate::gradient_decomp::passes::{run_planned_passes, PassPlan, RankPasses};
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
/// accumulation buffers are zero at every iteration boundary.
struct GdState {
    owned: Vec<ProbeLocation>,
    /// This rank's part in every round of the plan, in the frame of
    /// `buffers`.
    rounds: Vec<RankPasses>,
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
        // The accumulation buffer (and, with local updates, the record of
        // what was already applied locally) live on the GPU too: with local
        // updates over the band the plan ever exchanges, without them over
        // the whole extended tile, whose cover the update sweeps.
        let frame = if self.config.local_updates {
            self.plan.frame(rank)
        } else {
            Rect::of_shape(tile.extended.rows(), tile.extended.cols())
        };
        let buffers = AccBuffers::new(frame, slices, self.config.local_updates, ctx.memory_mut());
        let rounds = (0..self.plan.rounds())
            .map(|round| self.plan.passes(round, rank).in_frame(frame))
            .collect();
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
            // The buffer cells the round reads back: with local updates only
            // what a pass exchanges (elsewhere `acc` and `own` would take the
            // same adds and the update would apply `+0.0`), without them the
            // cover, which holds every cell the round's windows touch.
            let cells = if self.config.local_updates {
                &passes.shared
            } else {
                &passes.cover
            };
            for loc in round_share(owned, round, rounds.len()) {
                let loss = ctx.clock_mut().compute(|| worker.compute_gradient(loc));
                iteration_cost += loss;
                ctx.clock_mut()
                    .compute(|| worker.scatter_gradient(loc, buffers, cells));
            }

            // Steps 10-13: accumulate gradients across tiles.
            run_planned_passes(ctx, passes, &mut buffers.acc, pool)?;

            // Steps 14-16: update the tile from the accumulated gradients and
            // reset the buffers in place, in one sweep over the same cells;
            // everywhere else the update is a bitwise identity.
            ctx.clock_mut()
                .compute(|| worker.update_and_reset(buffers, cells));
        }
        Ok(iteration_cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PassFrequency;
    use ptycho_cluster::{Cluster, ClusterTopology, MemoryCategory};
    use ptycho_sim::dataset::{SyntheticConfig, BYTES_PER_COMPLEX};

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
        // voxel storage (tile + halo) must be well below the full volume's.
        let (d, r, c) = dataset.object_shape();
        let full_volume_bytes = d * r * c * 16;
        for m in &result.memory {
            let voxel_bytes = m.peak_of(ptycho_cluster::MemoryCategory::TileVoxels)
                + m.peak_of(ptycho_cluster::MemoryCategory::HaloVoxels);
            assert!(voxel_bytes < full_volume_bytes);
        }
    }

    #[test]
    fn accumulation_buffer_charge_equals_the_bytes_held() {
        // With local updates both buffers span the rank's frame: nothing on
        // one tile, the overlap band on 2×1. Without them `acc` alone spans
        // the whole extended tile.
        let dataset = tiny_dataset();
        let initial = dataset.initial_guess();
        let slices = dataset.object_shape().0;
        for (grid, local_updates) in [((1, 1), true), ((2, 1), true), ((2, 1), false)] {
            let config = SolverConfig {
                local_updates,
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
                    let extended = solver.grid().tile(ctx.rank()).extended;
                    let (_, state) = kernel.init(ctx);
                    let AccBuffers { frame, acc, own } = &state.buffers;
                    assert_eq!(own.is_some(), local_updates);
                    assert_eq!(acc.shape(), (slices, frame.rows(), frame.cols()));
                    let held = acc.len() + own.as_ref().map_or(0, |b| b.len());
                    assert_eq!(
                        ctx.memory_mut()
                            .current_of(MemoryCategory::AccumulationBuffer),
                        held * BYTES_PER_COMPLEX
                    );
                    match (grid, local_updates) {
                        ((1, 1), _) => assert_eq!(held, 0),
                        // The 40-row overlap band of a 68 × 96 extended tile.
                        (_, true) => {
                            assert_eq!((frame.shape(), extended.shape()), ((40, 96), (68, 96)))
                        }
                        (_, false) => assert_eq!(*frame, extended.to_local(&extended)),
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
