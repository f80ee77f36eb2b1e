//! Image Gradient Decomposition for parallel and memory-efficient
//! ptychographic reconstruction.
//!
//! This crate is the reproduction of the paper's primary contribution
//! (Wang et al., SC 2022): a decomposition of the ptychographic Maximum-
//! Likelihood reconstruction across many workers that tessellates *image
//! gradients* — not voxels — into tiles, accumulates the gradients of
//! overlapping probe locations through directional forward/backward passes,
//! and pipelines those passes asynchronously (APPP). The state-of-the-art
//! baseline it is compared against, the Halo Voxel Exchange method, is
//! implemented here too.
//!
//! # Module map
//!
//! | Paper concept | Module |
//! |---|---|
//! | Tile grid, halos, overlap regions (Fig. 2, Fig. 3) | [`tiling`] |
//! | Individual gradients, accumulation buffers, Alg. 1 | [`gradient_decomp`] |
//! | Forward/backward directional passes (Fig. 4) | [`gradient_decomp::passes`] |
//! | Asynchronous pipelining for parallel passes (Fig. 5) | [`gradient_decomp::solver`] |
//! | Halo Voxel Exchange baseline (Sec. II-C) | [`halo_exchange`] |
//! | Stitching and seam-artifact measurement (Fig. 8) | [`stitch`] |
//! | Convergence tracking (Fig. 9) | [`convergence`] |
//! | Runtime breakdowns, strong-scaling efficiency (Fig. 7) | [`metrics`] |
//! | Per-GPU memory footprint model (Tables II/III) | [`memory_model`] |
//! | Full scaling model regenerating Tables II/III and Fig. 7 | [`scaling`] |
//!
//! # Quick start
//!
//! The solvers are generic over the communication backend
//! (`ptycho_cluster::CommBackend`). Here a 4-rank Gradient Decomposition
//! solve runs on the deterministic [`LockstepBackend`]: every run schedules
//! the ranks identically, so the reconstruction is reproducible bit for bit;
//! swapping in `Cluster::new(...)` (the threaded backend) runs the same
//! solve on real OS threads and produces the same volume.
//!
//! [`LockstepBackend`]: ptycho_cluster::LockstepBackend
//!
//! ```
//! use ptycho_core::{GradientDecompositionSolver, SolverConfig, TileGrid};
//! use ptycho_sim::dataset::{Dataset, SyntheticConfig};
//! use ptycho_cluster::{ClusterTopology, LockstepBackend};
//!
//! // Simulate a small acquisition, decompose it over a 2x2 tile grid, and
//! // reconstruct on 4 simulated GPU ranks.
//! let dataset = Dataset::synthesize(SyntheticConfig::tiny());
//! let config = SolverConfig { iterations: 2, ..SolverConfig::default() };
//! let solver = GradientDecompositionSolver::new(&dataset, config, (2, 2));
//! let backend = LockstepBackend::new(ClusterTopology::summit());
//! let result = solver.run(&backend);
//! assert_eq!(result.volume.shape(), dataset.object_shape());
//! assert!(result.cost_history.final_cost() < result.cost_history.initial_cost());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod convergence;
pub mod durability;
pub mod engine;
pub mod gradient_decomp;
pub mod halo_exchange;
pub mod memory_model;
pub mod metrics;
pub mod scaling;
pub mod service;
pub mod stitch;
pub mod tiling;
mod worker;

pub use config::SolverConfig;
pub use convergence::CostHistory;
pub use durability::{
    CheckpointPayload, CheckpointStore, DurabilityError, EpochManifest, RecoveredEpoch, Recovery,
    SlotRecord,
};
pub use engine::{
    DurabilityHook, IterationEngine, IterationProgress, JobContext, ReconstructionResult,
    RecoveryPolicy, RecoveryReport, SolverKernel,
};
pub use gradient_decomp::solver::GradientDecompositionSolver;
pub use halo_exchange::solver::HaloVoxelExchangeSolver;
pub use memory_model::{gd_memory_per_gpu, hve_memory_per_gpu, MemoryBreakdown};
pub use metrics::strong_scaling_efficiency;
pub use scaling::{ScalingPoint, ScalingScenario};
pub use service::{
    JobEngine, JobError, JobHandle, JobProgress, JobReport, JobSpec, JobState, ServiceBackend,
    SolverMethod,
};
pub use stitch::{seam_artifact_metric, stitch_tiles};
pub use tiling::{TileGrid, TileInfo};
