//! Complex arithmetic and fast Fourier transforms for ptychography.
//!
//! The multi-slice forward model `G` of the Maximum-Likelihood reconstruction
//! (Eqn. 1 of the paper) evaluates a Fourier transform and an inverse Fourier
//! transform per object slice per probe location; the paper's implementation
//! uses cuFFT on V100 GPUs. This crate is the CPU substitute: a from-scratch,
//! dependency-free complex FFT library sized for the 2D fields that
//! ptychography manipulates.
//!
//! # Contents
//!
//! * [`Complex`] — a minimal complex number over a [`Real`] type, with
//!   [`Complex64`] (double precision: synthesis, storage, checkpoints) and
//!   [`Complex32`] (single precision: the reconstruction's working
//!   precision) as names.
//! * [`FftPlan`] — a cached-twiddle radix-2 plan for power-of-two 1D
//!   transforms at either precision (`f64` unless named). Its
//!   `forward`/`inverse` methods are *in-place* over `&mut [Complex<R>]` —
//!   they are the zero-allocation entry points.
//! * [`fft2d`] — forward/inverse 2D transforms over [`ptycho_array::Array2`]:
//!   a row pass and a transpose-free column pass, both in place (the
//!   hot-path API needs no workspace), plus `fftshift`/`ifftshift`.
//! * [`simd`] — the butterfly-sweep kernel tiers ([`SimdLevel`]):
//!   scalar everywhere, plus SSE2 and AVX2 `core::arch` kernels on x86_64,
//!   the widest one the CPU offers selected at plan construction by runtime
//!   detection. Every sweep is written once and instantiated at `f64` and
//!   `f32`. At each precision every tier computes the same IEEE operation
//!   sequence, so all are bit-identical and the tier is not part of a
//!   result's identity; that module's docs state the contract and why FMA is
//!   not used.
//! * [`dft`] — a naive O(N²) reference DFT used only by tests and benches.
//!
//! # Conventions
//!
//! The forward transform is unnormalised; the inverse transform divides by the
//! length, so `ifft(fft(x)) == x`. This matches the convention of FFTW/cuFFT
//! (`FFTW_FORWARD` / `FFTW_BACKWARD` with `1/N` applied on the inverse), which
//! is what the reconstruction maths in `ptycho-sim` assumes.
//!
//! # Example
//!
//! ```
//! use ptycho_fft::{Complex64, FftPlan};
//!
//! let plan = FftPlan::new(8);
//! let signal: Vec<Complex64> = (0..8).map(|i| Complex64::new(i as f64, 0.0)).collect();
//! let mut spectrum = signal.clone();
//! plan.forward(&mut spectrum);
//! plan.inverse(&mut spectrum);
//! for (a, b) in signal.iter().zip(&spectrum) {
//!     assert!((*a - *b).abs() < 1e-12);
//! }
//! ```

#![warn(missing_docs)]
// The crate is `forbid(unsafe_code)` on every target but x86_64: there the
// `core::arch` intrinsics of `simd::x86` are the only unsafe code, and the
// `simd` module alone carries the allowance — everything else stays denied.
#![deny(unsafe_code)]
#![cfg_attr(not(target_arch = "x86_64"), forbid(unsafe_code))]

mod complex;
pub mod dft;
mod fft1d;
pub mod fft2d;
pub mod simd;

pub use complex::{Complex, Complex32, Complex64, Real};
pub use fft1d::{fft, ifft, FftPlan};
pub use simd::SimdLevel;

/// Alias used throughout the workspace for complex-valued images.
pub type CArray2 = ptycho_array::Array2<Complex64>;

/// Alias used throughout the workspace for complex-valued volumes.
pub type CArray3 = ptycho_array::Array3<Complex64>;
