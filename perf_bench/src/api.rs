//! The only module that names a `ptycho::` item.
//!
//! Everything the benchmark does to the library goes through the few
//! functions here, on the smallest public surface that reaches each layer
//! (`Dataset::synthesize`, `run_job`, `JobEngine`, `CheckpointStore`,
//! `run_accumulation_passes`, `probe_gradient_into`, `Fft2Plan`, …), and
//! comes back as plain benchmark-side structs. A run-path or transport
//! refactor in the library is then matched by editing this file, not the
//! workloads or the ladder.

use ptycho::array::Rect;
use ptycho::cluster::{
    Cluster, ClusterTopology, CommBackend, CommError, CrashPhase, FaultPolicy, LockstepBackend,
    MembershipView, RankComm, SharedTile, TilePayloadPool,
};
use ptycho::core::config::PassFrequency;
use ptycho::core::durability::{fnv1a64, ByteWriter, CheckpointPayload};
use ptycho::core::gradient_decomp::passes::run_accumulation_passes;
use ptycho::core::{
    stitch_tiles, CheckpointStore, EpochManifest, GradientDecompositionSolver,
    HaloVoxelExchangeSolver, JobContext, JobEngine, JobError, JobHandle, JobSpec, JobState,
    ReconstructionResult, RecoveryPolicy, SlotRecord, SolverConfig, SolverMethod, TileGrid,
};
use ptycho::fft::fft2d::{Fft2Plan, Fft2Scratch};
use ptycho::fft::{CArray2, CArray3, Complex64, FftPlan};
use ptycho::sim::dataset::{extract_patch, scatter_patch, SyntheticConfig};
use ptycho::sim::scan::ProbeLocation;
use ptycho::sim::{apply_gradient_step, probe_gradient_into, suggested_step, SimWorkspace};
use ptycho::telemetry::{critical_path, Telemetry, TelemetryConfig, TelemetryEvent};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

pub use ptycho::sim::dataset::Dataset;

/// FNV-1a 64 over the volume's checkpoint encoding (its exact bit patterns):
/// the token two runs compare to prove bit-identity, as `load_gen` takes it.
fn volume_hash(volume: &CArray3) -> u64 {
    let mut writer = ByteWriter::new();
    volume.encode(&mut writer);
    fnv1a64(&writer.into_bytes())
}

// --------------------------------------------------------------------------
// Problem description
// --------------------------------------------------------------------------

/// The acquisition geometry of one workload (everything but the seed).
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub object_px: usize,
    pub slices: usize,
    pub scan_grid: (usize, usize),
    pub window_px: usize,
    pub defocus_pm: f64,
}

impl Shape {
    /// The library's `SyntheticConfig::tiny()` geometry.
    pub fn tiny() -> Self {
        let tiny = SyntheticConfig::tiny();
        Self {
            object_px: tiny.object_px,
            slices: tiny.slices,
            scan_grid: tiny.scan_grid,
            window_px: tiny.window_px,
            defocus_pm: tiny.defocus_pm,
        }
    }

    pub fn probes(&self) -> usize {
        self.scan_grid.0 * self.scan_grid.1
    }
}

/// Simulates the acquisition of `shape` with the given seed.
pub fn synthesize(shape: Shape, seed: u64) -> Dataset {
    Dataset::synthesize(SyntheticConfig {
        object_px: shape.object_px,
        slices: shape.slices,
        scan_grid: shape.scan_grid,
        window_px: shape.window_px,
        dose: None,
        defocus_pm: shape.defocus_pm,
        seed,
    })
}

/// Which reconstruction method a job runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    GradientDecomposition,
    HaloVoxelExchange,
}

/// The solver parameters a workload fixes.
#[derive(Clone, Copy, Debug)]
pub struct Solver {
    pub grid: (usize, usize),
    pub iterations: usize,
    pub halo_px: usize,
    pub step_relaxation: f64,
    /// `PassFrequency::EveryProbe` (Fig. 9's T = 1) instead of once per
    /// iteration.
    pub pass_every_probe: bool,
    pub hve_extra_probe_rows: usize,
}

impl Solver {
    pub fn ranks(&self) -> usize {
        self.grid.0 * self.grid.1
    }

    pub fn with_iterations(mut self, iterations: usize) -> Self {
        self.iterations = iterations;
        self
    }

    pub fn with_grid(mut self, grid: (usize, usize)) -> Self {
        self.grid = grid;
        self
    }

    fn config(&self) -> SolverConfig {
        SolverConfig {
            iterations: self.iterations,
            step_relaxation: self.step_relaxation,
            halo_px: self.halo_px,
            pass_frequency: if self.pass_every_probe {
                PassFrequency::EveryProbe
            } else {
                PassFrequency::PerIteration(1)
            },
            hve_extra_probe_rows: self.hve_extra_probe_rows,
            ..SolverConfig::default()
        }
    }
}

/// Builds the tile decomposition the way the solver constructor does and
/// returns the directional-pass rounds one iteration performs.
pub fn pass_rounds_per_iteration(dataset: &Dataset, solver: &Solver) -> usize {
    let gd = GradientDecompositionSolver::new(dataset, solver.config(), solver.grid);
    if solver.pass_every_probe {
        gd.grid()
            .tiles()
            .iter()
            .map(|tile| tile.owned_locations.len())
            .max()
            .unwrap_or(0)
            .max(1)
    } else {
        1
    }
}

// --------------------------------------------------------------------------
// Direct solves (`run_job` on a backend)
// --------------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transport {
    Lockstep,
    Threaded,
}

/// What the benchmark keeps of a finished reconstruction.
#[derive(Clone, Debug)]
pub struct Solved {
    pub costs: Vec<f64>,
    pub volume_hash: u64,
    /// Max over ranks of `MemoryTracker::peak_total()`.
    pub peak_rank_bytes: usize,
    /// `ReconstructionResult::critical_path()` as shares of its total.
    pub compute_share: f64,
    pub wait_share: f64,
    pub comm_share: f64,
    pub retransmits: u64,
    pub iteration_restarts: u64,
    pub substitutions: u64,
}

impl Solved {
    fn from_result(result: &ReconstructionResult) -> Self {
        let path = result.critical_path();
        let total = path.total().max(f64::MIN_POSITIVE);
        Self {
            costs: result.cost_history.costs().to_vec(),
            volume_hash: volume_hash(&result.volume),
            peak_rank_bytes: result
                .memory
                .iter()
                .map(|tracker| tracker.peak_total())
                .max()
                .unwrap_or(0),
            compute_share: path.compute / total,
            wait_share: path.wait / total,
            comm_share: path.communication / total,
            retransmits: result.recovery.reliable.retransmits,
            iteration_restarts: result.recovery.iteration_restarts as u64,
            substitutions: result.recovery.substitutions as u64,
        }
    }
}

/// Runs one fail-fast reconstruction directly on a backend. `on_iteration`
/// fires from rank 0 after each iteration (the `JobContext::progress` hook).
/// Returns what the benchmark keeps of the result and the seconds the
/// library took (solver construction + `run_job`; digesting the result is
/// the benchmark's own work and not in it).
pub fn solve(
    dataset: &Dataset,
    solver: &Solver,
    method: Method,
    transport: Transport,
    recorder: Option<&Recorder>,
    on_iteration: &(dyn Fn() + Sync),
) -> Result<(Solved, f64), String> {
    let start = Instant::now();
    let progress = |event: ptycho::core::IterationProgress| {
        if event.rank == 0 {
            on_iteration();
        }
    };
    let job = JobContext {
        progress: Some(&progress),
        telemetry: recorder.map(|r| r.0.as_ref()),
        ..JobContext::default()
    };
    let policy = RecoveryPolicy::FailFast;
    let topology = ClusterTopology::summit();
    let result = match (method, transport) {
        (Method::GradientDecomposition, Transport::Lockstep) => GradientDecompositionSolver::new(
            dataset,
            solver.config(),
            solver.grid,
        )
        .run_job(&LockstepBackend::new(topology), policy, &job),
        (Method::GradientDecomposition, Transport::Threaded) => GradientDecompositionSolver::new(
            dataset,
            solver.config(),
            solver.grid,
        )
        .run_job(&Cluster::new(topology), policy, &job),
        (Method::HaloVoxelExchange, _) => {
            HaloVoxelExchangeSolver::new(dataset, solver.config(), solver.grid)
                .map_err(|e| e.to_string())?
                .run_job(&LockstepBackend::new(topology), policy, &job)
        }
    };
    let wall_s = start.elapsed().as_secs_f64();
    result
        .map(|r| (Solved::from_result(&r), wall_s))
        .map_err(|failure| failure.to_string())
}

/// `total_assigned()` ÷ probe locations for the Halo Voxel Exchange
/// decomposition: how many gradient evaluations the baseline spends per
/// useful one.
pub fn hve_redundant_probe_ratio(dataset: &Dataset, solver: &Solver) -> Result<f64, String> {
    let hve = HaloVoxelExchangeSolver::new(dataset, solver.config(), solver.grid)
        .map_err(|e| e.to_string())?;
    Ok(hve.total_assigned() as f64 / dataset.scan().len() as f64)
}

// --------------------------------------------------------------------------
// Flight recorder
// --------------------------------------------------------------------------

/// The library's `Telemetry` flight recorder, sized so a short traced run
/// loses nothing.
pub struct Recorder(Arc<Telemetry>);

/// Counts read back from a recorder after a run.
#[derive(Clone, Copy, Debug, Default)]
pub struct RecorderSummary {
    pub records: u64,
    pub lost_records: u64,
    pub sends: u64,
    pub send_bytes: u64,
    /// `analysis::critical_path(..).end_to_end_ns`, in seconds.
    pub sim_critical_path_s: f64,
}

impl Recorder {
    pub fn new() -> Self {
        Self(Arc::new(Telemetry::with_config(TelemetryConfig {
            ring_capacity: 1 << 18,
            job_id: 0,
        })))
    }

    pub fn summary(&self) -> RecorderSummary {
        let mut records = Vec::new();
        for rank in 0..self.0.ranks() {
            records.extend(self.0.records(rank));
        }
        let mut summary = RecorderSummary {
            records: self.0.total_recorded(),
            lost_records: self.0.lost_records(),
            ..RecorderSummary::default()
        };
        for record in &records {
            if let TelemetryEvent::CommSend { bytes, .. } = record.event {
                summary.sends += 1;
                summary.send_bytes += bytes;
            }
        }
        summary.sim_critical_path_s = critical_path(&records, 0).end_to_end_ns as f64 * 1e-9;
        summary
    }
}

// --------------------------------------------------------------------------
// The job service
// --------------------------------------------------------------------------

/// One job submission, in benchmark terms.
#[derive(Clone, Debug)]
pub struct JobDesc {
    pub solver: Solver,
    pub method: Method,
    pub priority: i32,
    /// Seed of a `FaultPolicy::reliable(seed).kill_rank(1, 1)`: job-local
    /// node 1 dies early in iteration 0 and is healed from the shared pool.
    pub kill_rank_seed: Option<u64>,
    /// Durable checkpoints into this directory.
    pub checkpoint_dir: Option<PathBuf>,
    /// Whole-process kill at this store sequence number (after the rename).
    pub kill_at_barrier: Option<u64>,
}

impl JobDesc {
    pub fn new(solver: Solver) -> Self {
        Self {
            solver,
            method: Method::GradientDecomposition,
            priority: 0,
            kill_rank_seed: None,
            checkpoint_dir: None,
            kill_at_barrier: None,
        }
    }
}

/// The final record of one job.
#[derive(Clone, Debug)]
pub struct JobOutcome {
    pub completed: bool,
    /// The job ended with the typed process-kill error it was armed with.
    pub process_killed: bool,
    pub error: Option<String>,
    pub queue_s: f64,
    pub run_s: f64,
    pub solved: Option<Solved>,
    /// When `wait` returned, before the benchmark digested the result.
    pub finished: Instant,
}

pub struct Engine(JobEngine);

pub struct Job(JobHandle);

impl Engine {
    pub fn new(fleet_nodes: usize) -> Self {
        Self(JobEngine::new(fleet_nodes))
    }

    /// Holds every submission in the queue until [`Engine::start_admitting`].
    pub fn paused(fleet_nodes: usize) -> Self {
        Self(JobEngine::paused(fleet_nodes))
    }

    pub fn submit(&self, dataset: &Dataset, desc: &JobDesc) -> Result<Job, String> {
        let mut spec = JobSpec::new(dataset.clone(), desc.solver.config(), desc.solver.grid)
            .with_priority(desc.priority)
            .with_method(match desc.method {
                Method::GradientDecomposition => SolverMethod::GradientDecomposition,
                Method::HaloVoxelExchange => SolverMethod::HaloVoxelExchange,
            });
        let mut faults = desc
            .kill_rank_seed
            .map(|seed| FaultPolicy::reliable(seed).kill_rank(1, 1));
        if let Some(barrier) = desc.kill_at_barrier {
            faults = Some(
                faults
                    .unwrap_or_else(|| FaultPolicy::reliable(0))
                    .kill_process_at_barrier(barrier, CrashPhase::AfterRename),
            );
        }
        if let Some(policy) = faults {
            spec = spec.with_fault_policy(policy);
        }
        if let Some(dir) = &desc.checkpoint_dir {
            spec = spec.with_checkpoint_dir(dir.clone());
        }
        self.0.submit(spec).map(Job).map_err(|e| e.to_string())
    }

    /// Resumes a killed job from its checkpoint directory.
    pub fn resume(&self, dir: &Path) -> Result<Job, String> {
        self.0.resume(dir).map(Job).map_err(|e| e.to_string())
    }

    pub fn start_admitting(&self) {
        self.0.start_admitting();
    }

    pub fn wait_idle(&self) {
        self.0.wait_idle();
    }

    pub fn fleet_is_conserved(&self) -> bool {
        self.0.fleet_is_conserved()
    }

    pub fn dead_nodes(&self) -> usize {
        self.0.dead_nodes()
    }

    /// Takes one `metrics_snapshot` and returns its substitution counter.
    pub fn metrics_snapshot_heals(&self) -> u64 {
        self.0
            .metrics_snapshot()
            .counter("engine_substitutions_total")
            .unwrap_or(0)
    }

    /// Takes one `health_snapshot` and returns its queue depth.
    pub fn health_snapshot_queue_depth(&self) -> usize {
        self.0.health_snapshot(2.0).queue_depth
    }
}

impl Job {
    pub fn wait(&self) -> JobOutcome {
        let report = self.0.wait();
        let finished = Instant::now();
        let process_killed = matches!(
            &report.error,
            Some(JobError::Failed(failure))
                if matches!(failure.error, CommError::ProcessKilled { .. })
        );
        JobOutcome {
            completed: report.state == JobState::Completed && report.result.is_some(),
            process_killed,
            error: report.error.as_ref().map(|e| e.to_string()),
            queue_s: report.queue_seconds,
            run_s: report.run_seconds,
            solved: report.result.as_ref().map(Solved::from_result),
            finished,
        }
    }
}

// --------------------------------------------------------------------------
// Layer fixtures: one public call each, on the workload's own shapes
// --------------------------------------------------------------------------

/// fft and sim kernels at the dataset's window size and slice count.
pub struct Kernels<'a> {
    dataset: &'a Dataset,
    line: Vec<Complex64>,
    plan1d: FftPlan,
    plan2d: Fft2Plan,
    scratch: Fft2Scratch,
    pristine: CArray2,
    field: CArray2,
    object: CArray3,
    /// Probe locations the sim kernels cycle over, with their object
    /// patches, so consecutive calls touch different data as in a solve.
    locations: Vec<ProbeLocation>,
    patches: Vec<CArray3>,
    next: usize,
    workspace: SimWorkspace,
    gradient: CArray3,
    step: f64,
}

impl<'a> Kernels<'a> {
    pub fn new(dataset: &'a Dataset) -> Self {
        let model = dataset.model();
        let n = model.window_px();
        let object = dataset.initial_guess();
        let locations: Vec<ProbeLocation> = dataset
            .scan()
            .locations()
            .iter()
            .copied()
            .take(16)
            .collect();
        let patches = locations
            .iter()
            .map(|location| extract_patch(&object, &location.window))
            .collect();
        let field = CArray2::from_fn(n, n, |r, c| Complex64 {
            re: ((r * 31 + c * 17) % 97) as f64 / 97.0,
            im: ((r * 13 + c * 29) % 89) as f64 / 89.0,
        });
        let plan2d = Fft2Plan::new(n, n);
        Self {
            dataset,
            line: field.as_slice()[..n].to_vec(),
            plan1d: FftPlan::new(n),
            scratch: plan2d.make_scratch(),
            plan2d,
            pristine: field.clone(),
            field,
            object,
            locations,
            patches,
            next: 0,
            workspace: SimWorkspace::for_model(model),
            gradient: CArray3::full(model.slices(), n, n, Complex64::ZERO),
            step: suggested_step(model),
        }
    }

    pub fn window_px(&self) -> usize {
        self.dataset.model().window_px()
    }

    /// 2-D transforms one `probe_gradient_into` evaluates: the forward
    /// pass's `ffts_per_forward()` plus the same count back through the
    /// adjoint.
    pub fn ffts_per_gradient(&self) -> usize {
        2 * self.dataset.model().ffts_per_forward()
    }

    /// One forward and one (normalised) inverse 1-D transform of a window
    /// row, so the data stays bounded however often this is called.
    pub fn fft1d_pair(&mut self) {
        self.plan1d.forward(&mut self.line);
        self.plan1d.inverse(&mut self.line);
    }

    /// The 2-D transforms start from a fresh copy of the same field each
    /// call: repeated unnormalised transforms would run into infinities or
    /// denormals and time the floating-point unit's slow paths instead.
    pub fn fft2_forward(&mut self) {
        self.field
            .as_mut_slice()
            .copy_from_slice(self.pristine.as_slice());
        self.plan2d
            .forward_in_place(&mut self.field, &mut self.scratch);
    }

    pub fn fft2_inverse(&mut self) {
        self.field
            .as_mut_slice()
            .copy_from_slice(self.pristine.as_slice());
        self.plan2d
            .inverse_in_place(&mut self.field, &mut self.scratch);
    }

    fn advance(&mut self) -> usize {
        self.next = (self.next + 1) % self.locations.len();
        self.next
    }

    pub fn forward_with(&mut self) {
        let i = self.advance();
        self.dataset
            .model()
            .forward_with(&self.patches[i], &mut self.workspace);
    }

    pub fn probe_gradient_into(&mut self) -> f64 {
        let i = self.advance();
        probe_gradient_into(
            self.dataset.model(),
            &self.patches[i],
            self.dataset.measurement(&self.locations[i]),
            &mut self.workspace,
            &mut self.gradient,
        )
    }

    /// `extract_patch` + `scatter_patch` of one probe window.
    pub fn patch_io(&mut self) {
        let i = self.advance();
        let window = self.locations[i].window;
        let patch = extract_patch(&self.object, &window);
        scatter_patch(&mut self.object, &window, &patch);
    }

    /// A vanishing step, so the patch stays a valid transmission however
    /// often this is called.
    pub fn apply_step(&mut self) {
        let i = self.advance();
        apply_gradient_step(&mut self.patches[i], &self.gradient, self.step * 1e-9);
    }
}

fn tile_grid(dataset: &Dataset, solver: &Solver) -> TileGrid {
    let (_, rows, cols) = dataset.object_shape();
    TileGrid::new(
        rows,
        cols,
        solver.grid.0,
        solver.grid.1,
        solver.halo_px,
        dataset.scan(),
    )
}

/// One `TileGrid::new` at the workload's object size, grid and halo.
pub fn grid_new(dataset: &Dataset, solver: &Solver) -> usize {
    tile_grid(dataset, solver).num_tiles()
}

/// `stitch_tiles` over the workload's core tiles.
pub struct Stitch {
    grid: TileGrid,
    cores: Vec<(Rect, CArray3)>,
}

impl Stitch {
    pub fn new(dataset: &Dataset, solver: &Solver) -> Self {
        let grid = tile_grid(dataset, solver);
        let slices = dataset.object_shape().0;
        let cores = grid
            .tiles()
            .iter()
            .map(|tile| {
                let (rows, cols) = tile.core.shape();
                (tile.core, CArray3::full(slices, rows, cols, Complex64::ONE))
            })
            .collect();
        Self { grid, cores }
    }

    pub fn run(&self) -> usize {
        stitch_tiles(&self.grid, &self.cores).len()
    }
}

/// Runs `body` on every rank between two barriers and returns rank 0's wall
/// time between them. On the lockstep backend every rank's share of the work
/// runs inside that window, one rank at a time.
fn timed_ranks<B, F>(backend: &B, ranks: usize, body: F) -> Result<f64, String>
where
    B: CommBackend,
    F: Fn(&mut B::Comm<SharedTile>) -> Result<(), CommError> + Sync,
{
    let outcomes = backend
        .run::<SharedTile, f64, _>(ranks, |ctx| {
            ctx.barrier()?;
            let start = Instant::now();
            body(ctx)?;
            ctx.barrier()?;
            Ok(start.elapsed().as_secs_f64())
        })
        .map_err(|failure| failure.to_string())?;
    Ok(outcomes[0].result)
}

fn barriers<C: RankComm<SharedTile>>(ctx: &mut C, count: usize) -> Result<(), CommError> {
    for _ in 0..count {
        ctx.barrier()?;
    }
    Ok(())
}

const PING_PONG_TAG: u64 = 0x77;

fn ping_pong<C: RankComm<SharedTile>>(
    ctx: &mut C,
    strip_values: usize,
    count: usize,
) -> Result<(), CommError> {
    let rank = ctx.rank();
    let peer = rank ^ 1;
    if peer >= ctx.size() {
        return Ok(());
    }
    let mut strip = SharedTile::new(vec![1.0; strip_values]);
    for _ in 0..count {
        if rank % 2 == 0 {
            ctx.isend(peer, PING_PONG_TAG, strip);
            strip = ctx.recv(peer, PING_PONG_TAG)?;
        } else {
            strip = ctx.recv(peer, PING_PONG_TAG)?;
            ctx.isend(peer, PING_PONG_TAG, strip.clone());
        }
    }
    Ok(())
}

/// Seconds per barrier when `ranks` ranks do nothing but `count` barriers.
pub fn barrier_seconds(transport: Transport, ranks: usize, count: usize) -> Result<f64, String> {
    let topology = ClusterTopology::summit();
    let wall = match transport {
        Transport::Lockstep => timed_ranks(&LockstepBackend::new(topology), ranks, |ctx| {
            barriers(ctx, count)
        }),
        Transport::Threaded => {
            timed_ranks(&Cluster::new(topology), ranks, |ctx| barriers(ctx, count))
        }
    }?;
    Ok(wall / count as f64)
}

/// Seconds per round trip when rank pairs (0-1, 2-3, ...) ping-pong a
/// `strip_values`-long `SharedTile` `count` times.
pub fn send_recv_seconds(
    transport: Transport,
    ranks: usize,
    strip_values: usize,
    count: usize,
) -> Result<f64, String> {
    let topology = ClusterTopology::summit();
    let wall = match transport {
        Transport::Lockstep => timed_ranks(&LockstepBackend::new(topology), ranks, |ctx| {
            ping_pong(ctx, strip_values, count)
        }),
        Transport::Threaded => timed_ranks(&Cluster::new(topology), ranks, |ctx| {
            ping_pong(ctx, strip_values, count)
        }),
    }?;
    Ok(wall / count as f64)
}

/// Values in the border strip two neighbouring tiles of the workload's grid
/// exchange (re/im interleaved over every slice); a plain halo-wide strip
/// for a 1×1 grid, which has no neighbour.
pub fn border_strip_values(dataset: &Dataset, solver: &Solver) -> usize {
    let grid = tile_grid(dataset, solver);
    let (slices, rows, _) = dataset.object_shape();
    let area = if grid.num_tiles() > 1 {
        grid.overlap(0, 1).area()
    } else {
        rows * solver.halo_px
    };
    area.max(1) * slices * 2
}

/// Seconds per `run_accumulation_passes` round (all four directional
/// passes, every rank) on the workload's grid and extended-tile buffers.
pub fn passes_seconds(dataset: &Dataset, solver: &Solver, rounds: usize) -> Result<f64, String> {
    let grid = tile_grid(dataset, solver);
    let slices = dataset.object_shape().0;
    timed_ranks(
        &LockstepBackend::new(ClusterTopology::summit()),
        grid.num_tiles(),
        |ctx| {
            let (rows, cols) = grid.tile(ctx.rank()).extended.shape();
            let mut buffer = CArray3::full(slices, rows, cols, Complex64::ONE);
            let mut pool = TilePayloadPool::new();
            for _ in 0..rounds {
                run_accumulation_passes(ctx, &grid, &mut buffer, &mut pool)?;
            }
            Ok(())
        },
    )
    .map(|wall| wall / rounds as f64)
}

/// The public `CheckpointStore` calls on the workload's slot sizes: every
/// rank's extended-tile volume as one slot record per epoch.
pub struct StoreFixture {
    store: CheckpointStore,
    records: Vec<SlotRecord>,
    seq: u64,
}

impl StoreFixture {
    pub fn open(dir: &Path, dataset: &Dataset, solver: &Solver) -> Result<Self, String> {
        let grid = tile_grid(dataset, solver);
        let slices = dataset.object_shape().0;
        let records = grid
            .tiles()
            .iter()
            .map(|tile| {
                let (rows, cols) = tile.extended.shape();
                let mut writer = ByteWriter::new();
                CArray3::full(slices, rows, cols, Complex64::ONE).encode(&mut writer);
                SlotRecord {
                    iteration: 1,
                    costs: vec![1.0],
                    cursor: None,
                    state: writer.into_bytes(),
                }
            })
            .collect();
        let store = CheckpointStore::open(dir).map_err(|e| e.to_string())?;
        let seq = store.next_seq();
        Ok(Self {
            store,
            records,
            seq,
        })
    }

    pub fn slots(&self) -> usize {
        self.records.len()
    }

    /// Durably writes one rank's slot of the open epoch; returns its bytes.
    pub fn write_slot(&self, slot: usize) -> Result<u64, String> {
        self.store
            .write_slot(self.seq, slot, &self.records[slot])
            .map_err(|e| e.to_string())
    }

    /// Commits the open epoch (manifest write + atomic rename + prune).
    pub fn commit(&mut self) -> Result<(), String> {
        let manifest = EpochManifest {
            seq: self.seq,
            iteration: 1,
            attempt_index: 0,
            restarts: 0,
            substitutions: 0,
            membership: MembershipView::new(self.records.len(), 0),
            spec: Vec::new(),
        };
        self.store
            .commit(&manifest, None)
            .map_err(|e| e.to_string())?;
        self.seq = self.store.next_seq();
        Ok(())
    }

    /// Scans for the newest epoch that verifies; returns its slot count.
    pub fn recover(&self) -> Result<usize, String> {
        let recovery = self.store.recover().map_err(|e| e.to_string())?;
        recovery
            .epoch
            .map(|epoch| epoch.slots.len())
            .ok_or_else(|| "no epoch verified".to_string())
    }
}
