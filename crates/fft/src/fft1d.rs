//! Radix-2 decimation-in-time FFT plans for power-of-two lengths.

use crate::complex::{Complex, Real};
use crate::simd::{self, RowPass, SimdLevel, Stage};
use crate::Complex64;
use std::f64::consts::PI;

/// A reusable plan for 1D FFTs of a fixed power-of-two length, over complex
/// values of precision `R` (`f64` unless named).
///
/// The plan caches the bit-reversal permutation and *per-stage* twiddle
/// tables for both directions, so repeated transforms (the common case in the
/// multi-slice model, which transforms every slice of every probe — the
/// hottest loop in the repository) pay only the O(N log N) butterfly work,
/// with no per-butterfly direction branch, strided table walk or conjugation.
/// All methods are in-place over `&mut [Complex<R>]` — this is the
/// zero-allocation entry point. A line is a one-row field to the kernels:
/// the 2-D plan's row pass runs the same code on every row. A lone row
/// always runs at the scalar tier (which every vector tier matches bit for
/// bit), so the plan's SIMD tier ([`FftPlan::simd_level`]) is the tier of
/// the passes a 2-D plan runs through it — the column passes, and the row
/// pass of a 2-D plan's row plan — never of its own 1-D transforms.
#[derive(Clone, Debug)]
pub struct FftPlan<R: Real = f64> {
    len: usize,
    /// Bit-reversed index for every position.
    bit_rev: Vec<u32>,
    /// Forward twiddles `e^{-2πik/N}`, one contiguous table per butterfly
    /// stage (stage `s` holds `2^s` entries), so the innermost loop walks
    /// them sequentially. Computed in `f64` and narrowed once to `R`.
    forward_stages: Vec<Stage<R>>,
    /// The same tables conjugated (exact), for the inverse direction.
    inverse_stages: Vec<Stage<R>>,
    /// The SIMD tier a 2-D plan's passes through this plan dispatch to,
    /// fixed at construction (see [`SimdLevel::detect`]); 1-D transforms
    /// run at the scalar tier.
    level: SimdLevel,
}

/// The bit-reversal permutation of `0..len` (`len` a power of two).
pub(crate) fn bit_reversal(len: usize) -> Vec<u32> {
    let bits = len.trailing_zeros();
    (0..len as u32)
        // For len == 1 the shift would be by 32; the one index is 0.
        .map(|i| i.reverse_bits().checked_shr(32 - bits).unwrap_or(0))
        .collect()
}

impl FftPlan {
    /// Creates an `f64` plan for transforms of length `len`, set to the best
    /// SIMD tier this machine supports. That tier is what a 2-D plan's
    /// passes through this plan run at; the plan's own 1-D transforms run
    /// at the scalar tier. A plan of another precision is
    /// `FftPlan::<R>::with_simd_level(len, SimdLevel::detect())`.
    ///
    /// # Panics
    /// Panics if `len` is zero or not a power of two.
    pub fn new(len: usize) -> Self {
        Self::with_simd_level(len, SimdLevel::detect())
    }
}

impl<R: Real> FftPlan<R> {
    /// Creates a plan pinned to a specific SIMD tier — the bench/test entry
    /// point for comparing tiers on one machine (`Scalar` is the portable
    /// oracle every tier is bit-identical to). The tier applies to the
    /// column passes (and, for a row plan, the row pass) a 2-D plan runs
    /// through this plan; a 1-D transform runs at the scalar tier at every
    /// `level`. Prefer [`FftPlan::new`].
    ///
    /// # Panics
    /// Panics if `len` is invalid or `level` is not available on this
    /// machine (e.g. `Avx2` on a CPU without it).
    pub fn with_simd_level(len: usize, level: SimdLevel) -> Self {
        assert!(
            level.is_available(),
            "SIMD level {level:?} is not available on this machine"
        );
        assert!(len > 0, "FFT length must be non-zero");
        assert!(
            len.is_power_of_two(),
            "FFT length must be a power of two, got {len}"
        );
        // Base table `e^{-2πik/N}` for `k in 0..N/2`; the per-stage tables
        // index into it (stage of size `s` uses stride `N/s`), so the stage
        // entries are bit-identical to the strided lookups they replace.
        // Every entry is computed in `f64` and rounded once to `R`.
        let twiddles: Vec<Complex64> = (0..len / 2)
            .map(|k| Complex64::cis(-2.0 * PI * k as f64 / len as f64))
            .collect();
        let mut forward_stages = Vec::new();
        let mut size = 2usize;
        while size <= len {
            let half = size / 2;
            let stride = len / size;
            forward_stages.push(Stage::new(
                (0..half)
                    .map(|k| Complex::narrow(twiddles[k * stride]))
                    .collect(),
            ));
            size *= 2;
        }
        let inverse_stages = forward_stages.iter().map(Stage::conj).collect();
        Self {
            len,
            bit_rev: bit_reversal(len),
            forward_stages,
            inverse_stages,
            level,
        }
    }

    /// Transform length this plan was built for.
    pub fn len(&self) -> usize {
        self.len
    }

    /// The SIMD tier of the passes a 2-D plan runs through this plan: the
    /// column passes, and the row pass of a 2-D plan's row plan. A 1-D
    /// transform through this plan runs at the scalar tier whatever this
    /// returns.
    pub fn simd_level(&self) -> SimdLevel {
        self.level
    }

    /// True only for the degenerate length-0 plan (which cannot be constructed);
    /// present to satisfy the `len/is_empty` convention.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// In-place forward transform (unnormalised).
    ///
    /// # Panics
    /// Panics if `data.len()` differs from the plan length.
    pub fn forward(&self, data: &mut [Complex<R>]) {
        self.transform(data, true, R::ONE);
    }

    /// In-place inverse transform (normalised by `1/N`).
    ///
    /// # Panics
    /// Panics if `data.len()` differs from the plan length.
    pub fn inverse(&self, data: &mut [Complex<R>]) {
        self.transform(data, false, R::from_f64(1.0 / self.len as f64));
    }

    /// In-place inverse transform *without* the `1/N` normalisation.
    ///
    /// Useful when a forward/inverse pair brackets an elementwise operation and
    /// the caller wants to fold the normalisation into that operation.
    pub fn inverse_unnormalized(&self, data: &mut [Complex<R>]) {
        self.transform(data, false, R::ONE);
    }

    /// The line as a one-row field through the row pass, multiplied by
    /// `scale` as it is written out.
    fn transform(&self, data: &mut [Complex<R>], forward: bool, scale: R) {
        assert_eq!(
            data.len(),
            self.len,
            "FFT plan length {} does not match data length {}",
            self.len,
            data.len()
        );
        let pass = RowPass {
            within: &self.bit_rev,
            order: &[0],
            stages: self.stages(forward),
            scale,
        };
        simd::row_pass(self.level, data, None, &pass);
    }

    /// Runs the butterfly stages down every column of the row-major
    /// `len × cols` field `data` in place (unnormalised in both directions):
    /// the butterflies [`Self::forward`] / [`Self::inverse_unnormalized`]
    /// apply to each column, with whole rows paired so memory is walked along
    /// the contiguous rows. The rows must already be in bit-reversed order —
    /// the 2-D row pass writes them there.
    pub(crate) fn transform_columns(&self, data: &mut [Complex<R>], cols: usize, forward: bool) {
        assert_eq!(
            data.len(),
            self.len * cols,
            "FFT plan length {} does not match a {}-column field of {} values",
            self.len,
            cols,
            data.len()
        );
        let mut pairs = self.stages(forward).chunks_exact(2);
        for pair in &mut pairs {
            simd::column_pass2(self.level, data, cols, &pair[0], &pair[1]);
        }
        if let [stage] = pairs.remainder() {
            simd::column_pass(self.level, data, cols, stage);
        }
    }

    /// The bit-reversal permutation of `0..len`.
    pub(crate) fn bit_rev(&self) -> &[u32] {
        &self.bit_rev
    }

    /// Per-stage twiddle tables for the given direction (stage `s` holds
    /// `2^s` entries).
    pub(crate) fn stages(&self, forward: bool) -> &[Stage<R>] {
        if forward {
            &self.forward_stages
        } else {
            &self.inverse_stages
        }
    }
}

/// Convenience one-shot forward FFT (builds a throwaway plan).
pub fn fft(data: &mut [Complex64]) {
    FftPlan::new(data.len()).forward(data);
}

/// Convenience one-shot inverse FFT (builds a throwaway plan).
pub fn ifft(data: &mut [Complex64]) {
    FftPlan::new(data.len()).inverse(data);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft;

    fn assert_close(a: &[Complex64], b: &[Complex64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (*x - *y).abs() < tol,
                "mismatch at {i}: {x:?} vs {y:?} (tol {tol})"
            );
        }
    }

    #[test]
    fn length_one_is_identity() {
        let plan = FftPlan::new(1);
        let mut data = vec![Complex64::new(3.0, -2.0)];
        plan.forward(&mut data);
        assert_eq!(data[0], Complex64::new(3.0, -2.0));
        plan.inverse(&mut data);
        assert_eq!(data[0], Complex64::new(3.0, -2.0));
    }

    #[test]
    fn impulse_transforms_to_flat_spectrum() {
        let n = 16;
        let plan = FftPlan::new(n);
        let mut data = vec![Complex64::ZERO; n];
        data[0] = Complex64::ONE;
        plan.forward(&mut data);
        for v in &data {
            assert!((*v - Complex64::ONE).abs() < 1e-12);
        }
    }

    #[test]
    fn constant_transforms_to_impulse() {
        let n = 8;
        let plan = FftPlan::new(n);
        let mut data = vec![Complex64::ONE; n];
        plan.forward(&mut data);
        assert!((data[0] - Complex64::from_real(n as f64)).abs() < 1e-12);
        for v in &data[1..] {
            assert!(v.abs() < 1e-12);
        }
    }

    #[test]
    fn single_tone_lands_in_one_bin() {
        let n = 32;
        let k0 = 5;
        let plan = FftPlan::new(n);
        let mut data: Vec<Complex64> = (0..n)
            .map(|i| Complex64::cis(2.0 * PI * k0 as f64 * i as f64 / n as f64))
            .collect();
        plan.forward(&mut data);
        for (k, v) in data.iter().enumerate() {
            if k == k0 {
                assert!((v.abs() - n as f64).abs() < 1e-9);
            } else {
                assert!(v.abs() < 1e-9, "bin {k} should be empty, got {v:?}");
            }
        }
    }

    #[test]
    fn matches_naive_dft() {
        for &n in &[2usize, 4, 8, 16, 64, 128] {
            let plan = FftPlan::new(n);
            let input: Vec<Complex64> = (0..n)
                .map(|i| Complex64::new((i as f64 * 0.37).sin(), (i as f64 * 0.71).cos()))
                .collect();
            let mut fast = input.clone();
            plan.forward(&mut fast);
            let slow = dft::dft(&input);
            assert_close(&fast, &slow, 1e-9 * n as f64);
        }
    }

    #[test]
    fn inverse_matches_naive_idft() {
        let n = 64;
        let plan = FftPlan::new(n);
        let input: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new((i as f64 * 1.3).cos(), (i as f64 * 0.11).sin()))
            .collect();
        let mut fast = input.clone();
        plan.inverse(&mut fast);
        let slow = dft::idft(&input);
        assert_close(&fast, &slow, 1e-9 * n as f64);
    }

    #[test]
    fn roundtrip_recovers_signal() {
        let n = 256;
        let plan = FftPlan::new(n);
        let input: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new((i * i % 97) as f64 / 97.0, (i % 13) as f64 / 13.0))
            .collect();
        let mut data = input.clone();
        plan.forward(&mut data);
        plan.inverse(&mut data);
        assert_close(&data, &input, 1e-10);
    }

    #[test]
    fn parseval_energy_conservation() {
        let n = 128;
        let plan = FftPlan::new(n);
        let input: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new((i as f64).sin(), (i as f64 / 3.0).cos()))
            .collect();
        let time_energy: f64 = input.iter().map(|v| v.norm_sqr()).sum();
        let mut spec = input.clone();
        plan.forward(&mut spec);
        let freq_energy: f64 = spec.iter().map(|v| v.norm_sqr()).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() < 1e-8 * time_energy.max(1.0));
    }

    #[test]
    fn linearity() {
        let n = 64;
        let plan = FftPlan::new(n);
        let a: Vec<Complex64> = (0..n).map(|i| Complex64::new(i as f64, 0.0)).collect();
        let b: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new(0.0, (n - i) as f64))
            .collect();
        let alpha = Complex64::new(2.0, -1.0);

        let mut lhs: Vec<Complex64> = a.iter().zip(&b).map(|(x, y)| *x * alpha + *y).collect();
        plan.forward(&mut lhs);

        let mut fa = a.clone();
        let mut fb = b.clone();
        plan.forward(&mut fa);
        plan.forward(&mut fb);
        let rhs: Vec<Complex64> = fa.iter().zip(&fb).map(|(x, y)| *x * alpha + *y).collect();

        assert_close(&lhs, &rhs, 1e-8);
    }

    #[test]
    fn unnormalized_inverse_differs_by_n() {
        let n = 16;
        let plan = FftPlan::new(n);
        let input: Vec<Complex64> = (0..n).map(|i| Complex64::from_real(i as f64)).collect();
        let mut a = input.clone();
        let mut b = input.clone();
        plan.inverse(&mut a);
        plan.inverse_unnormalized(&mut b);
        for (x, y) in a.iter().zip(&b) {
            assert!((x.scale(n as f64) - *y).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_panics() {
        let _ = FftPlan::new(12);
    }

    #[test]
    #[should_panic(expected = "does not match data length")]
    fn wrong_length_panics() {
        let plan = FftPlan::new(8);
        let mut data = vec![Complex64::ZERO; 4];
        plan.forward(&mut data);
    }

    fn plans_match_scalar<R: Real>() {
        // 2⁰ … 2¹² covers the degenerate plan, odd and even stage counts
        // (the one-stage tail sweep), a line shorter than a vector, the
        // longest row a panel takes (a line, one row, runs at the scalar
        // tier) and a line longer than that.
        for level in SimdLevel::available_levels() {
            for n in (0..=12).map(|e| 1usize << e) {
                let scalar_plan = FftPlan::<R>::with_simd_level(n, SimdLevel::Scalar);
                let tier_plan = FftPlan::<R>::with_simd_level(n, level);
                let input: Vec<Complex<R>> = (0..n)
                    .map(|i| {
                        Complex::narrow(Complex64::new(
                            (i as f64 * 0.83).sin(),
                            (i as f64 * 0.19).cos(),
                        ))
                    })
                    .collect();
                type Transform<R> = fn(&FftPlan<R>, &mut [Complex<R>]);
                let transforms: [Transform<R>; 3] = [
                    FftPlan::forward,
                    FftPlan::inverse,
                    FftPlan::inverse_unnormalized,
                ];
                for (t, transform) in transforms.into_iter().enumerate() {
                    let mut a = input.clone();
                    let mut b = input.clone();
                    transform(&scalar_plan, &mut a);
                    transform(&tier_plan, &mut b);
                    for (x, y) in a.iter().zip(&b) {
                        assert_eq!(
                            (x.re.bit_pattern(), x.im.bit_pattern()),
                            (y.re.bit_pattern(), y.im.bit_pattern()),
                            "n={n} at {level:?}, transform {t}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn every_tier_plan_bit_identical_to_scalar_plan() {
        plans_match_scalar::<f64>();
        plans_match_scalar::<f32>();
    }

    #[test]
    fn f32_twiddles_are_the_f64_twiddles_rounded_once() {
        let (wide, narrow) = (
            FftPlan::new(64),
            FftPlan::<f32>::with_simd_level(64, SimdLevel::Scalar),
        );
        for forward in [true, false] {
            for (w64, w32) in wide.stages(forward).iter().zip(narrow.stages(forward)) {
                let rounded: Vec<Complex<f32>> =
                    w64.w.iter().map(|w| Complex::narrow(*w)).collect();
                assert_eq!(rounded, w32.w);
            }
        }
    }

    #[test]
    fn detected_level_roundtrip_recovers_signal() {
        let n = 512;
        let plan = FftPlan::new(n);
        assert_eq!(plan.simd_level(), SimdLevel::detect());
        let input: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new((i % 37) as f64 / 37.0, (i % 11) as f64 / 11.0))
            .collect();
        let mut data = input.clone();
        plan.forward(&mut data);
        plan.inverse(&mut data);
        assert_close(&data, &input, 1e-10);
    }

    #[test]
    #[should_panic(expected = "not available")]
    fn unavailable_level_panics() {
        if SimdLevel::Avx2.is_available() {
            // Can't demonstrate on this machine; fake the expected panic so
            // the #[should_panic] contract still holds.
            panic!("SIMD level Avx2 is not available on this machine");
        }
        let _ = FftPlan::<f64>::with_simd_level(8, SimdLevel::Avx2);
    }

    #[test]
    fn one_shot_helpers_roundtrip() {
        let input: Vec<Complex64> = (0..32)
            .map(|i| Complex64::new(i as f64, -(i as f64)))
            .collect();
        let mut data = input.clone();
        fft(&mut data);
        ifft(&mut data);
        assert_close(&data, &input, 1e-10);
    }
}
