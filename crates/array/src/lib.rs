//! Dense array containers and rectangle algebra for the ptychopath workspace.
//!
//! Ptychographic reconstruction manipulates three kinds of dense data:
//!
//! * 2D complex fields (probes, exit waves, diffraction patterns, image slices),
//! * 3D stacks of 2D slices (the reconstruction volume `V` and its gradient),
//! * axis-aligned rectangular regions of those arrays (tiles, halos, and the
//!   overlap regions in which the Gradient Decomposition method accumulates
//!   image gradients).
//!
//! This crate provides exactly those primitives, with no external dependencies,
//! so that every other crate in the workspace (FFT, physics simulation, cluster
//! substrate and the reconstruction core) shares one representation.
//!
//! # Layout
//!
//! * [`Array2`] — a row-major dense 2D array generic over its element type.
//! * [`Array3`] — a dense stack of equally-shaped 2D slices (`depth × rows × cols`).
//! * [`Rect`] — half-open axis-aligned rectangles with intersection, union,
//!   containment, translation and clamping; the vocabulary used by the tiling
//!   and halo logic in `ptycho-core`.
//! * [`stats`] — reductions and image-comparison metrics (RMSE, PSNR,
//!   normalised cross-correlation) used by tests and the experiment harnesses.
//!
//! # Example
//!
//! ```
//! use ptycho_array::{Array2, Rect};
//!
//! // A 64x64 image with a bright 8x8 block.
//! let mut img = Array2::<f64>::zeros(64, 64);
//! let block = Rect::new(8, 8, 8, 8);
//! img.fill_region(block, 1.0);
//! assert_eq!(img.region_sum(block), 64.0);
//!
//! // Extract it, scale it, and paste it back shifted by (4, 4).
//! let patch = img.extract(block);
//! let shifted = block.translate(4, 4);
//! img.add_region(shifted, &patch);
//! assert!(img[(12, 12)] > 1.5);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod array2;
mod array3;
mod rect;
pub mod stats;

pub use array2::Array2;
pub use array3::Array3;
pub use rect::Rect;

/// Shape of a 2D array as `(rows, cols)`.
pub type Shape2 = (usize, usize);

/// Shape of a 3D array as `(depth, rows, cols)`.
pub type Shape3 = (usize, usize, usize);
