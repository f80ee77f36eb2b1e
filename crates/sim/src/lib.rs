//! Electron ptychography physics for the Gradient Decomposition reproduction.
//!
//! This crate is the data-and-model substrate of the workspace. It implements
//! everything the paper's evaluation *assumes exists*: the electron-optics
//! forward model `G` of Eqn. (1), the probe and scan geometry of Fig. 1, a
//! synthetic Lead-Titanate-like specimen (the paper's PbTiO3 datasets are
//! simulated too, but not published), simulated data acquisition with optional
//! Poisson noise, and the per-probe-location image gradients `∂f_i/∂V` of
//! Eqn. (2) that the Gradient Decomposition method tessellates and accumulates.
//!
//! # Modules
//!
//! * [`physics`] — electron wavelength, interaction constants, unit helpers.
//! * [`probe`] — probe formation (aperture, defocus) in Fourier space.
//! * [`scan`] — raster scan patterns and probe-location bookkeeping (Fig. 1b).
//! * [`specimen`] — synthetic perovskite-lattice multi-slice specimens (Fig. 6).
//! * [`multislice`] — the multi-slice forward model `G` (Sec. II-B, ref. \[14\]).
//! * [`gradient`] — the likelihood cost `f_i(V)` and its adjoint-derived
//!   image gradient, the quantity the paper decomposes.
//! * [`noise`] — Poisson counting noise for simulated acquisition.
//! * [`dataset`] — bundled datasets: simulated acquisition plus the *geometry*
//!   presets of Table I used by the performance model.
//!
//! # Quick start
//!
//! Simulate a tiny noise-free acquisition and verify that the ground-truth
//! object reproduces its own measured diffraction amplitudes:
//!
//! ```
//! use ptycho_sim::dataset::{extract_patch, Dataset, SyntheticConfig};
//! use ptycho_sim::probe_loss;
//!
//! // Specimen, probe, raster scan and measurements, all in one bundle.
//! let dataset = Dataset::synthesize(SyntheticConfig::tiny());
//! let loc = dataset.scan().locations()[0];
//!
//! // The likelihood cost f_i(V) of Eqn. (2) vanishes at the ground truth.
//! let truth = extract_patch(dataset.specimen().transmission(), &loc.window);
//! let loss = probe_loss(dataset.model(), &truth, dataset.measurement(&loc));
//! assert!(loss < 1e-9);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod dataset;
pub mod gradient;
pub mod multislice;
pub mod noise;
pub mod physics;
pub mod probe;
pub mod scan;
pub mod specimen;

pub use dataset::{Dataset, DatasetSpec};
pub use gradient::{
    apply_gradient_step, probe_gradient, probe_gradient_into, probe_loss, suggested_step,
    GradientResult,
};
pub use multislice::{MultisliceModel, PropagationPlan, SimWorkspace};
pub use probe::{Probe, ProbeConfig};
pub use scan::{ProbeLocation, ScanConfig, ScanPattern};
pub use specimen::{Specimen, SpecimenConfig};
