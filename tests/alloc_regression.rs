//! Zero-allocation regression gate for the reconstruction hot path.
//!
//! The steady-state Gradient Decomposition iteration is allocation-free:
//! FFTs run in place, in the field's own storage, the multislice
//! forward/adjoint evaluation reuses a `SimWorkspace` (which also holds each
//! object slice and each slice's gradient: no rank holds a gradient volume),
//! the per-rank accumulation buffers are allocated once at `init`, and the
//! buffer resets happen in place. This binary installs a counting global allocator and
//! pins the property: a run with extra iterations must perform **exactly**
//! the same number of allocations as a shorter run — i.e. a steady-state
//! iteration allocates nothing.
//!
//! The pin covers single-rank GD, **multi-rank** GD and the **HVE** kernel,
//! alone (1×1) and with its voxel paste (2×2): every wire payload comes out
//! of a rank-local [`TilePayloadPool`](ptycho_cluster::TilePayloadPool) that
//! recycles `SharedTile` buffers once their `Arc` strong count returns to 1,
//! so a steady-state lockstep 2×2 iteration of either solver allocates
//! nothing.
//!
//! Attaching a telemetry flight recorder must not break it either. The
//! per-rank ring buffers are preallocated when the rank's sink is created (a
//! per-run setup cost identical between the short and long runs), so
//! recording an event on the steady-state path is a ring write — zero
//! allocations.

use ptycho_alloc::CountingAllocator;
use ptycho_cluster::{ClusterTopology, LockstepBackend, SharedTile};
use ptycho_core::{
    GradientDecompositionSolver, HaloVoxelExchangeSolver, JobContext, RecoveryPolicy, SolverConfig,
};
use ptycho_sim::dataset::{Dataset, SyntheticConfig};
use ptycho_telemetry::Telemetry;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// Allocation events of one full GD reconstruction on a `grid` tile
/// decomposition: everything between `run` and the stitched result (rank
/// spawn, kernel init with its pooled buffers, every iteration, stitching).
/// Dataset synthesis, solver and backend construction happen before the
/// counter snapshot and are not measured.
fn gd_run_allocations(dataset: &Dataset, iterations: usize, grid: (usize, usize)) -> u64 {
    let config = SolverConfig {
        iterations,
        halo_px: 20,
        ..SolverConfig::default()
    };
    // The lockstep backend schedules deterministically (one runnable rank,
    // fixed baton order), so two runs perform identical allocation sequences
    // and the comparison below is exact, not statistical.
    let backend = LockstepBackend::new(ClusterTopology::summit());
    let solver = GradientDecompositionSolver::new(dataset, config, grid);
    let before = ALLOC.allocations();
    let result = solver
        .run_job(&backend, RecoveryPolicy::FailFast, &JobContext::default())
        .expect("fault-free run completes");
    let after = ALLOC.allocations();
    assert!(result.cost_history.final_cost().is_finite());
    after - before
}

/// The multi-rank GD measurement with a telemetry flight recorder attached:
/// every send, receive and iteration event is recorded into the preallocated
/// per-rank rings. Sink creation (the ring allocations) happens inside the
/// measured window but costs the same for the short and the long run, so the
/// `long == short` pin still isolates the steady-state iterations.
fn gd_traced_allocations(dataset: &Dataset, iterations: usize, grid: (usize, usize)) -> u64 {
    let config = SolverConfig {
        iterations,
        halo_px: 20,
        ..SolverConfig::default()
    };
    let backend = LockstepBackend::new(ClusterTopology::summit());
    let solver = GradientDecompositionSolver::new(dataset, config, grid);
    // No durable writer: the in-memory recorder alone must be free. (The
    // JSONL serialisation runs driver-side after the ranks finish and is
    // allowed to allocate; it is exercised by the telemetry suite.)
    let telemetry = Telemetry::new();
    let job = JobContext {
        telemetry: Some(&telemetry),
        ..JobContext::default()
    };
    let before = ALLOC.allocations();
    let result = solver
        .run_job(&backend, RecoveryPolicy::FailFast, &job)
        .expect("traced run completes");
    let after = ALLOC.allocations();
    assert!(result.cost_history.final_cost().is_finite());
    assert!(telemetry.total_recorded() > 0, "the recorder must be live");
    after - before
}

/// The same measurement for the Halo Voxel Exchange baseline kernel.
fn hve_run_allocations(dataset: &Dataset, iterations: usize, grid: (usize, usize)) -> u64 {
    let config = SolverConfig {
        iterations,
        hve_extra_probe_rows: 1,
        ..SolverConfig::default()
    };
    let backend = LockstepBackend::new(ClusterTopology::summit());
    let solver = HaloVoxelExchangeSolver::new(dataset, config, grid).expect("feasible");
    let before = ALLOC.allocations();
    let result = solver
        .run_job(&backend, RecoveryPolicy::FailFast, &JobContext::default())
        .expect("fault-free run completes");
    let after = ALLOC.allocations();
    assert!(result.cost_history.final_cost().is_finite());
    after - before
}

/// Pins `long == short` for a measured pair, i.e. the extra iterations
/// allocated exactly nothing.
fn assert_steady_state(label: &str, short: u64, long: u64) {
    assert!(
        short > 0,
        "{label}: init is expected to allocate the pooled buffers"
    );
    assert_eq!(
        long,
        short,
        "{label}: the extra steady-state iterations performed {} extra allocations \
         (expected zero: every per-iteration buffer and wire payload must be pooled)",
        long as i64 - short as i64
    );
}

// A single #[test] on purpose: the harness runs tests concurrently, and a
// second test allocating in parallel would corrupt the global counters.
#[test]
fn steady_state_iterations_are_allocation_free() {
    let dataset = Dataset::synthesize(SyntheticConfig::tiny());

    // Warm-up runs: lazy runtime initialisation (thread-local storage, stdio
    // locks, ...) must not be charged to the measured runs.
    let _ = gd_run_allocations(&dataset, 1, (1, 1));
    let _ = gd_run_allocations(&dataset, 1, (2, 2));
    let _ = hve_run_allocations(&dataset, 1, (1, 1));
    let _ = gd_traced_allocations(&dataset, 1, (2, 2));

    // Single-rank GD (the ISSUE 4 pin).
    assert_steady_state(
        "GD 1x1",
        gd_run_allocations(&dataset, 2, (1, 1)),
        gd_run_allocations(&dataset, 6, (1, 1)),
    );

    // Multi-rank GD: each iteration sends pass messages in every direction;
    // with the payload pool those sends must reuse released buffers, so a
    // lockstep 2x2 run is steady-state allocation-free too (ISSUE 5).
    assert_steady_state(
        "GD 2x2",
        gd_run_allocations(&dataset, 2, (2, 2)),
        gd_run_allocations(&dataset, 6, (2, 2)),
    );

    // Multi-rank GD with the flight recorder on: recording an event is a
    // write into a preallocated ring, so the steady-state iterations stay
    // allocation-free with telemetry enabled (ISSUE 7).
    assert_steady_state(
        "GD 2x2 + telemetry",
        gd_traced_allocations(&dataset, 2, (2, 2)),
        gd_traced_allocations(&dataset, 6, (2, 2)),
    );

    // The HVE baseline kernel (single rank: pooled gradient scratch and
    // workspace, no exchange traffic).
    assert_steady_state(
        "HVE 1x1",
        hve_run_allocations(&dataset, 2, (1, 1)),
        hve_run_allocations(&dataset, 6, (1, 1)),
    );

    // The HVE voxel paste (2x2, a paste every iteration). The paste sends
    // before it receives, so a rank can acquire from its payload pool again
    // before a slower peer has dropped the last payload it sent: the pool
    // grows over the first exchanges, then stops. Measured at 76b4cb3: 136 /
    // 144 / 152 / 159 allocations at 2 / 3 / 4 / 5 iterations, then 159 at
    // 6, 8, 10, 20 and 40 (1x2 goes 65 -> 67 at 3 iterations, then stays
    // flat). So the pair starts at 6 iterations: it pins the steady state,
    // not the warm-up.
    assert_steady_state(
        "HVE 2x2",
        hve_run_allocations(&dataset, 6, (2, 2)),
        hve_run_allocations(&dataset, 12, (2, 2)),
    );

    // The zero-copy payload pin: cloning a SharedTile — what the payload
    // pool does to every message it retires — must alias the Arc, not copy
    // the buffer.
    let tile = SharedTile::new(vec![0.5; 1 << 16]);
    let before = ALLOC.allocations();
    let copy = tile.clone();
    assert_eq!(
        ALLOC.allocations(),
        before,
        "cloning a SharedTile must not allocate"
    );
    assert_eq!(copy.len(), 1 << 16);
}
