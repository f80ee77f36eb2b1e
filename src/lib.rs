//! Facade crate for the Image Gradient Decomposition ptychography workspace.
//!
//! This repository reproduces Wang et al., *"Image Gradient Decomposition for
//! Parallel and Memory-Efficient Ptychographic Reconstruction"* (SC 2022) as
//! a seven-crate Rust workspace. This crate is a thin umbrella: it re-exports
//! every member so downstream code (and the repository-level integration
//! tests and examples it hosts) can depend on a single package, and its
//! module list doubles as the workspace map:
//!
//! * [`mod@array`] — dense 2D/3D containers and rectangle algebra.
//! * [`fft`] — complex arithmetic and radix-2 FFT kernels.
//! * [`sim`] — electron-optics physics: probes, scans, multi-slice model,
//!   likelihood gradients, synthetic specimens.
//! * [`telemetry`] — deterministic observability: the structured event
//!   model, flight-recorder rings, metrics registry, and trace analysis.
//! * [`cluster`] — the simulated multi-rank cluster the solvers run on.
//! * [`core`] — the paper's contribution: gradient-decomposition
//!   reconstruction and the halo-voxel-exchange baseline.
//! * [`mod@bench`] — experiment harnesses regenerating the paper's figures and
//!   tables.
//!
//! See `README.md` for the reproduction guide and `ARCHITECTURE.md` for how
//! the crates fit together.
//!
//! # Quick start
//!
//! ```
//! use ptycho::cluster::{Cluster, ClusterTopology};
//! use ptycho::core::{GradientDecompositionSolver, SolverConfig};
//! use ptycho::sim::dataset::{Dataset, SyntheticConfig};
//!
//! let dataset = Dataset::synthesize(SyntheticConfig::tiny());
//! let config = SolverConfig { iterations: 1, ..SolverConfig::default() };
//! let solver = GradientDecompositionSolver::new(&dataset, config, (2, 2));
//! let result = solver.run(&Cluster::new(ClusterTopology::summit()));
//! assert_eq!(result.volume.shape(), dataset.object_shape());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use ptycho_array as array;
pub use ptycho_bench as bench;
pub use ptycho_cluster as cluster;
pub use ptycho_core as core;
pub use ptycho_fft as fft;
pub use ptycho_sim as sim;
pub use ptycho_telemetry as telemetry;
