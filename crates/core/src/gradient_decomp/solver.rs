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

use crate::config::SolverConfig;
use crate::engine::{JobContext, ReconstructionResult, RecoveryPolicy, SolverKernel};
use crate::gradient_decomp::passes::{run_planned_passes, PassPlan};
use crate::tiling::TileGrid;
use crate::worker::TileWorker;
use ptycho_array::{Array3, Rect};
use ptycho_cluster::{
    CommBackend, CommError, HardwareModel, MemoryCategory, RankComm, RankFailure, SharedTile,
    TilePayloadPool,
};
use ptycho_fft::{CArray3, Complex64};
use ptycho_sim::dataset::{Dataset, BYTES_PER_COMPLEX};
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
    /// communication failure, the recovering policies heal lost messages by
    /// acknowledge/retransmit and roll surviving failures back to the last
    /// completed iteration. The [`JobContext`] adds cooperative
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

/// Rank-local Gradient Decomposition state. Every buffer is allocated once
/// here and reused across iterations — the steady-state loop is
/// allocation-free (pinned by `tests/alloc_regression.rs`).
struct GdState<'a> {
    worker: TileWorker<'a>,
    owned: Vec<ProbeLocation>,
    acc_buf: CArray3,
    /// With local updates: what this tile has already applied itself.
    own_acc: Option<CArray3>,
    /// Probe-window-shaped gradient scratch, refilled per probe location.
    gradient: CArray3,
    /// Recycles the pass-message payload buffers, so steady-state sends
    /// allocate nothing.
    pool: TilePayloadPool,
}

impl SolverKernel for GdKernel<'_> {
    type State<'k>
        = GdState<'k>
    where
        Self: 'k;
    type Checkpoint = CArray3;

    fn grid(&self) -> &TileGrid {
        self.grid
    }

    fn iterations(&self) -> usize {
        self.config.iterations
    }

    fn init<'k, C: RankComm<SharedTile>>(&'k self, ctx: &mut C) -> GdState<'k> {
        let tile = self.grid.tile(ctx.rank()).clone();
        let owned = tile.owned_locations.clone();
        let slices = self.dataset.object_shape().0;
        let window = self.dataset.model().window_px();

        let worker = TileWorker::new(
            self.dataset,
            &tile,
            self.initial,
            &self.config,
            owned.len(),
            ctx.memory_mut(),
        );
        // The accumulation buffer (and, with local updates, the record of
        // what was already applied locally) live on the GPU too.
        let buffer_bytes = tile.extended.area() * slices * BYTES_PER_COMPLEX;
        ctx.memory_mut()
            .allocate(MemoryCategory::AccumulationBuffer, buffer_bytes);
        let acc_buf = worker.zero_buffer();
        let own_acc = self.config.local_updates.then(|| {
            ctx.memory_mut()
                .allocate(MemoryCategory::AccumulationBuffer, buffer_bytes);
            worker.zero_buffer()
        });
        let gradient = Array3::full(slices, window, window, Complex64::ZERO);
        GdState {
            worker,
            owned,
            acc_buf,
            own_acc,
            gradient,
            pool: TilePayloadPool::new(),
        }
    }

    fn run_iteration<C: RankComm<SharedTile>>(
        &self,
        ctx: &mut C,
        state: &mut GdState<'_>,
        _iteration: usize,
    ) -> Result<f64, CommError> {
        let GdState {
            worker,
            owned,
            acc_buf,
            own_acc,
            gradient,
            pool,
        } = state;
        let mut iteration_cost = 0.0;
        let rounds = self.plan.rounds();
        for round in 0..rounds {
            for loc in round_share(owned, round, rounds) {
                let loss = ctx
                    .clock_mut()
                    .compute(|| worker.compute_gradient_into(loc, gradient));
                iteration_cost += loss;
                ctx.clock_mut().compute(|| {
                    worker.accumulate_patch(acc_buf, loc, gradient);
                    if let Some(own_acc) = own_acc {
                        worker.accumulate_patch(own_acc, loc, gradient);
                        worker.apply_patch(loc, gradient);
                    }
                });
            }

            // Steps 10-13: accumulate gradients across tiles.
            let passes = self.plan.passes(round, ctx.rank());
            run_planned_passes(ctx, passes, acc_buf, pool)?;

            // Steps 14-16: update the tile from the accumulated gradients and
            // reset the buffers in place, in one sweep over the round's cover;
            // everywhere else both buffers are still zero.
            ctx.clock_mut()
                .compute(|| worker.update_and_reset(acc_buf, own_acc.as_mut(), &passes.cover));
        }
        Ok(iteration_cost)
    }

    fn checkpoint(&self, state: &GdState<'_>) -> CArray3 {
        state.worker.volume().clone()
    }

    fn restore(&self, state: &mut GdState<'_>, checkpoint: &CArray3) {
        *state.worker.volume_mut() = checkpoint.clone();
        // The buffers are zero at every iteration boundary; discard whatever
        // the failed attempt left in them (it may have stopped in any round,
        // so no single round's cover holds it).
        state.acc_buf.fill(Complex64::ZERO);
        if let Some(own_acc) = &mut state.own_acc {
            own_acc.fill(Complex64::ZERO);
        }
    }

    fn core_volume(&self, state: &GdState<'_>) -> CArray3 {
        state.worker.core_volume()
    }

    fn modeled_compute_ns(&self, rank: usize) -> u64 {
        // Analytic (deterministic) per-iteration compute time for the
        // telemetry stream's simulated clock: every owned probe location is
        // visited exactly once per iteration, whatever the round split.
        let tile = self.grid.tile(rank);
        let slices = self.dataset.object_shape().0;
        let window = self.dataset.model().window_px();
        let working_set = (tile.extended.area() * slices * BYTES_PER_COMPLEX) as f64;
        let per_probe =
            HardwareModel::summit_v100().probe_gradient_time(window, slices, working_set);
        (tile.owned_locations.len() as f64 * per_probe * 1e9) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PassFrequency;
    use ptycho_cluster::{Cluster, ClusterTopology};
    use ptycho_sim::dataset::SyntheticConfig;

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
        // `own_acc` exists — and is charged — only when local updates use it.
        let dataset = tiny_dataset();
        let initial = dataset.initial_guess();
        for local_updates in [true, false] {
            let config = SolverConfig {
                local_updates,
                ..quick_config(1)
            };
            let solver = GradientDecompositionSolver::new(&dataset, config, (1, 2));
            let plan = solver.pass_plan();
            let kernel = GdKernel {
                dataset: &dataset,
                grid: solver.grid(),
                config,
                plan: &plan,
                initial: &initial,
            };
            ptycho_cluster::LockstepBackend::new(ClusterTopology::summit())
                .run::<SharedTile, (), _>(2, |ctx| {
                    let state = kernel.init(ctx);
                    assert_eq!(state.own_acc.is_some(), local_updates);
                    let held = state.acc_buf.len() + state.own_acc.map_or(0, |b| b.len());
                    assert_eq!(
                        ctx.memory_mut()
                            .current_of(MemoryCategory::AccumulationBuffer),
                        held * BYTES_PER_COMPLEX
                    );
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
        // The reliable layer and the per-iteration checkpoints must not
        // change the numerics: a fault-free recovery-mode run is
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
                RecoveryPolicy::RetransmitThenRestart {
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
