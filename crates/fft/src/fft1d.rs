//! Radix-2 decimation-in-time FFT plans for power-of-two lengths.

use crate::simd::{self, SimdLevel};
use crate::Complex64;
use std::f64::consts::PI;

/// A reusable plan for 1D FFTs of a fixed power-of-two length.
///
/// The plan caches the bit-reversal permutation and *per-stage* twiddle
/// tables for both directions, so repeated transforms (the common case in the
/// multi-slice model, which transforms every slice of every probe — the
/// hottest loop in the repository) pay only the O(N log N) butterfly work,
/// with no per-butterfly direction branch, strided table walk or conjugation.
/// All methods are in-place over `&mut [Complex64]` — this is the
/// zero-allocation entry point.
#[derive(Clone, Debug)]
pub struct FftPlan {
    len: usize,
    /// Bit-reversed index for every position.
    bit_rev: Vec<u32>,
    /// Forward twiddles `e^{-2πik/N}`, one contiguous table per butterfly
    /// stage (stage `s` holds `2^s` entries), so the innermost loop walks
    /// them sequentially.
    forward_stages: Vec<Vec<Complex64>>,
    /// The same tables conjugated (exact), for the inverse direction.
    inverse_stages: Vec<Vec<Complex64>>,
    /// The SIMD tier the butterfly loop dispatches to, fixed at construction
    /// (see [`SimdLevel::detect`]).
    level: SimdLevel,
}

impl FftPlan {
    /// Creates a plan for transforms of length `len`, dispatching the
    /// butterfly loop at the best SIMD tier this machine supports.
    ///
    /// # Panics
    /// Panics if `len` is zero or not a power of two.
    pub fn new(len: usize) -> Self {
        Self::with_simd_level(len, SimdLevel::detect())
    }

    /// Creates a plan pinned to a specific SIMD tier — the bench/test entry
    /// point for comparing tiers on one machine (`Scalar` is the portable
    /// oracle every tier is bit-identical to). Prefer [`FftPlan::new`].
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
        let bits = len.trailing_zeros();
        let bit_rev = (0..len as u32)
            .map(|i| i.reverse_bits() >> (32 - bits.max(1)))
            .collect::<Vec<_>>();
        // For len == 1 the shift above would be wrong; special-case it.
        let bit_rev = if len == 1 { vec![0] } else { bit_rev };
        // Base table `e^{-2πik/N}` for `k in 0..N/2`; the per-stage tables
        // index into it (stage of size `s` uses stride `N/s`), so the stage
        // entries are bit-identical to the strided lookups they replace.
        let twiddles: Vec<Complex64> = (0..len / 2)
            .map(|k| Complex64::cis(-2.0 * PI * k as f64 / len as f64))
            .collect();
        let mut forward_stages: Vec<Vec<Complex64>> = Vec::new();
        let mut size = 2usize;
        while size <= len {
            let half = size / 2;
            let stride = len / size;
            forward_stages.push((0..half).map(|k| twiddles[k * stride]).collect());
            size *= 2;
        }
        let inverse_stages: Vec<Vec<Complex64>> = forward_stages
            .iter()
            .map(|stage| stage.iter().map(|tw| tw.conj()).collect())
            .collect();
        Self {
            len,
            bit_rev,
            forward_stages,
            inverse_stages,
            level,
        }
    }

    /// Transform length this plan was built for.
    pub fn len(&self) -> usize {
        self.len
    }

    /// The SIMD tier this plan's butterflies run at.
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
    pub fn forward(&self, data: &mut [Complex64]) {
        self.transform(data, true);
    }

    /// In-place inverse transform (normalised by `1/N`).
    ///
    /// # Panics
    /// Panics if `data.len()` differs from the plan length.
    pub fn inverse(&self, data: &mut [Complex64]) {
        self.transform(data, false);
        let scale = 1.0 / self.len as f64;
        for v in data.iter_mut() {
            *v = v.scale(scale);
        }
    }

    /// In-place inverse transform *without* the `1/N` normalisation.
    ///
    /// Useful when a forward/inverse pair brackets an elementwise operation and
    /// the caller wants to fold the normalisation into that operation.
    pub fn inverse_unnormalized(&self, data: &mut [Complex64]) {
        self.transform(data, false);
    }

    fn transform(&self, data: &mut [Complex64], forward: bool) {
        assert_eq!(
            data.len(),
            self.len,
            "FFT plan length {} does not match data length {}",
            self.len,
            data.len()
        );
        self.permute(data);

        // Iterative Cooley-Tukey butterflies, two stages per sweep (see the
        // `simd` module for the sweeps and the one-arithmetic contract).
        let mut pairs = self.stages(forward).chunks_exact(2);
        for pair in &mut pairs {
            let (wa, wb) = (&pair[0], &pair[1]);
            simd::butterfly_pass2(self.level, data, wa, wb);
        }
        if let [last] = pairs.remainder() {
            let (lo, hi) = data.split_at_mut(self.len / 2);
            simd::butterfly_range(self.level, lo, hi, last);
        }
    }

    /// Transforms every column of the row-major `len × cols` field `data` in
    /// place (unnormalised in both directions): the same permutation and the
    /// same butterflies as [`Self::forward`] / [`Self::inverse_unnormalized`]
    /// on each column, but whole rows are swapped and paired, so memory is
    /// walked along the contiguous rows.
    pub(crate) fn transform_columns(&self, data: &mut [Complex64], cols: usize, forward: bool) {
        assert_eq!(
            data.len(),
            self.len * cols,
            "FFT plan length {} does not match a {}-column field of {} values",
            self.len,
            cols,
            data.len()
        );
        for i in 0..self.len {
            let j = self.bit_rev[i] as usize;
            if i < j {
                let (head, tail) = data.split_at_mut(j * cols);
                head[i * cols..(i + 1) * cols].swap_with_slice(&mut tail[..cols]);
            }
        }
        let mut pairs = self.stages(forward).chunks_exact(2);
        for pair in &mut pairs {
            let (wa, wb) = (&pair[0], &pair[1]);
            simd::column_pass2(self.level, data, cols, wa, wb);
        }
        if let [stage] = pairs.remainder() {
            simd::column_pass(self.level, data, cols, stage);
        }
    }

    /// Applies the bit-reversal permutation.
    fn permute(&self, data: &mut [Complex64]) {
        for i in 0..self.len {
            let j = self.bit_rev[i] as usize;
            if i < j {
                data.swap(i, j);
            }
        }
    }

    /// Per-stage twiddle tables for the given direction (stage `s` holds
    /// `2^s` entries).
    fn stages(&self, forward: bool) -> &[Vec<Complex64>] {
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

    #[test]
    fn every_tier_plan_bit_identical_to_scalar_plan() {
        // 2⁰ … 2¹⁰ covers the degenerate plan, odd and even stage counts
        // (the one-stage tail sweep) and AVX2's one-value tail at h = 1.
        for level in SimdLevel::available_levels() {
            for n in (0..=10).map(|e| 1usize << e) {
                let scalar_plan = FftPlan::with_simd_level(n, SimdLevel::Scalar);
                let tier_plan = FftPlan::with_simd_level(n, level);
                let input: Vec<Complex64> = (0..n)
                    .map(|i| Complex64::new((i as f64 * 0.83).sin(), (i as f64 * 0.19).cos()))
                    .collect();
                let transforms: [fn(&FftPlan, &mut [Complex64]); 3] = [
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
                            (x.re.to_bits(), x.im.to_bits()),
                            (y.re.to_bits(), y.im.to_bits()),
                            "n={n} at {level:?}, transform {t}"
                        );
                    }
                }
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
        let _ = FftPlan::with_simd_level(8, SimdLevel::Avx2);
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
