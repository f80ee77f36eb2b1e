//! Property-based tests for the FFT kernels.

use proptest::prelude::*;
use ptycho_array::Array2;
use ptycho_fft::fft2d::{fft2, fftshift, ifft2, ifftshift};
use ptycho_fft::{dft, Complex64, FftPlan, SimdLevel};

fn complex_vec(len: usize) -> impl Strategy<Value = Vec<Complex64>> {
    prop::collection::vec((-100.0f64..100.0, -100.0f64..100.0), len).prop_map(|v| {
        v.into_iter()
            .map(|(re, im)| Complex64::new(re, im))
            .collect()
    })
}

/// The exact bit patterns of a complex run, for bitwise comparison.
fn bits(values: &[Complex64]) -> Vec<(u64, u64)> {
    values
        .iter()
        .map(|v| (v.re.to_bits(), v.im.to_bits()))
        .collect()
}

fn pow2_len() -> impl Strategy<Value = usize> {
    (0u32..8).prop_map(|e| 1usize << e)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fft_roundtrip_is_identity(len in pow2_len()) {
        let data = (0..len)
            .map(|i| Complex64::new((i as f64 * 0.7).sin(), (i as f64 * 1.3).cos()))
            .collect::<Vec<_>>();
        let plan = FftPlan::new(len);
        let mut work = data.clone();
        plan.forward(&mut work);
        plan.inverse(&mut work);
        for (a, b) in work.iter().zip(&data) {
            prop_assert!((*a - *b).abs() < 1e-9);
        }
    }

    #[test]
    fn fft_matches_dft_random_input(exp in 1u32..7, values in complex_vec(64)) {
        let len = 1usize << exp;
        let data: Vec<Complex64> = values.into_iter().cycle().take(len).collect();
        let plan = FftPlan::new(len);
        let mut fast = data.clone();
        plan.forward(&mut fast);
        let slow = dft::dft(&data);
        for (a, b) in fast.iter().zip(&slow) {
            prop_assert!((*a - *b).abs() < 1e-6 * len as f64);
        }
    }

    #[test]
    fn parseval_holds(exp in 1u32..8) {
        let len = 1usize << exp;
        let data: Vec<Complex64> = (0..len)
            .map(|i| Complex64::new((i as f64 * 0.11).sin() * 3.0, (i as f64 * 0.03).cos()))
            .collect();
        let plan = FftPlan::new(len);
        let mut spec = data.clone();
        plan.forward(&mut spec);
        let e_time: f64 = data.iter().map(|v| v.norm_sqr()).sum();
        let e_freq: f64 = spec.iter().map(|v| v.norm_sqr()).sum::<f64>() / len as f64;
        prop_assert!((e_time - e_freq).abs() < 1e-7 * e_time.max(1.0));
    }

    #[test]
    fn fft_is_linear(exp in 1u32..6, alpha_re in -5.0f64..5.0, alpha_im in -5.0f64..5.0) {
        let len = 1usize << exp;
        let alpha = Complex64::new(alpha_re, alpha_im);
        let a: Vec<Complex64> = (0..len).map(|i| Complex64::new(i as f64, 1.0)).collect();
        let b: Vec<Complex64> = (0..len).map(|i| Complex64::new(1.0, -(i as f64))).collect();
        let plan = FftPlan::new(len);

        let mut combined: Vec<Complex64> = a.iter().zip(&b).map(|(x, y)| *x * alpha + *y).collect();
        plan.forward(&mut combined);

        let mut fa = a.clone();
        let mut fb = b.clone();
        plan.forward(&mut fa);
        plan.forward(&mut fb);

        for ((l, x), y) in combined.iter().zip(&fa).zip(&fb) {
            prop_assert!((*l - (*x * alpha + *y)).abs() < 1e-6 * len as f64);
        }
    }

    #[test]
    fn fft2_roundtrip(rexp in 0u32..5, cexp in 0u32..5) {
        let rows = 1usize << rexp;
        let cols = 1usize << cexp;
        let field = Array2::from_fn(rows, cols, |r, c| {
            Complex64::new((r as f64 * 0.9 + c as f64 * 0.3).sin(), (r as f64 - c as f64) * 0.01)
        });
        let back = ifft2(&fft2(&field));
        for (a, b) in back.as_slice().iter().zip(field.as_slice()) {
            prop_assert!((*a - *b).abs() < 1e-9);
        }
    }

    #[test]
    fn shift_roundtrip_any_shape(rows in 1usize..12, cols in 1usize..12) {
        let field: Array2<f64> = Array2::from_fn(rows, cols, |r, c| (r * cols + c) as f64);
        prop_assert_eq!(ifftshift(&fftshift(&field)), field.clone());
        prop_assert_eq!(fftshift(&ifftshift(&field)), field);
    }

    #[test]
    fn every_tier_roundtrip_equals_scalar_bitwise(exp in 0u32..11, values in complex_vec(64)) {
        let len = 1usize << exp;
        let data: Vec<Complex64> = values.into_iter().cycle().take(len).collect();
        let scalar_plan = FftPlan::with_simd_level(len, SimdLevel::Scalar);
        let mut spectrum = data.clone();
        scalar_plan.forward(&mut spectrum);
        let mut back = spectrum.clone();
        scalar_plan.inverse(&mut back);
        for level in SimdLevel::available_levels() {
            let plan = FftPlan::with_simd_level(len, level);
            let mut work = data.clone();
            plan.forward(&mut work);
            prop_assert_eq!(bits(&work), bits(&spectrum), "forward at {:?}", level);
            plan.inverse(&mut work);
            prop_assert_eq!(bits(&work), bits(&back), "inverse at {:?}", level);
        }
    }

    #[test]
    fn complex_field_axioms(are in -50.0f64..50.0, aim in -50.0f64..50.0,
                            bre in -50.0f64..50.0, bim in -50.0f64..50.0,
                            cre in -50.0f64..50.0, cim in -50.0f64..50.0) {
        let a = Complex64::new(are, aim);
        let b = Complex64::new(bre, bim);
        let c = Complex64::new(cre, cim);
        // Commutativity and distributivity (within floating-point tolerance).
        prop_assert!(((a + b) - (b + a)).abs() < 1e-9);
        prop_assert!(((a * b) - (b * a)).abs() < 1e-9);
        prop_assert!(((a * (b + c)) - (a * b + a * c)).abs() < 1e-6);
        // Conjugation is multiplicative.
        prop_assert!(((a * b).conj() - a.conj() * b.conj()).abs() < 1e-9);
        // |ab| = |a||b|.
        prop_assert!(((a * b).abs() - a.abs() * b.abs()).abs() < 1e-6);
    }
}
