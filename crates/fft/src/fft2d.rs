//! 2D fast Fourier transforms over [`Array2<Complex64>`](ptycho_array::Array2).
//!
//! The 2D transform is a row pass followed by a column pass, both in the
//! field's own storage. The row pass runs the 1-D plan over each contiguous
//! row. The column pass does not transpose: it swaps and pairs whole *rows*
//! (row `k` with row `k + h` under one broadcast twiddle), so its inner loop
//! also runs along contiguous memory — see `FftPlan::transform_columns` and
//! the column sweeps of the [`crate::simd`] module. Each column goes through
//! exactly the butterflies the 1-D plan would apply to it.
//!
//! # In-place transforms
//!
//! The hot path of the reconstruction (one FFT pair per slice per probe
//! location) must not allocate. [`Fft2Plan::forward_mut`] /
//! [`Fft2Plan::inverse_mut`] / [`Fft2Plan::inverse_unnormalized_mut`]
//! transform a field in place with no workspace at all. The by-value methods
//! ([`Fft2Plan::forward`] and friends) clone the input first — convenient
//! for cold paths, tests and examples.
//!
//! [`Fft2Scratch`] and the `*_in_place(field, scratch)` methods are shims
//! from before the column pass ran in place: the scratch holds no buffer and
//! is only shape-checked. They stay for the one external caller that still
//! names them.

use crate::simd::SimdLevel;
use crate::{CArray2, FftPlan};
use ptycho_array::Array2;

/// A reusable plan for 2D FFTs of a fixed `(rows, cols)` shape (both powers of
/// two).
#[derive(Clone, Debug)]
pub struct Fft2Plan {
    rows: usize,
    cols: usize,
    row_plan: FftPlan,
    col_plan: FftPlan,
}

/// The workspace argument of the `*_in_place` shims: a plan shape and nothing
/// else (the transforms need no buffer).
#[derive(Clone, Debug)]
pub struct Fft2Scratch {
    rows: usize,
    cols: usize,
}

impl Fft2Scratch {
    /// The `(rows, cols)` plan shape this scratch was sized for.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }
}

impl Fft2Plan {
    /// Creates a plan for `rows x cols` transforms at the best SIMD tier this
    /// machine supports.
    ///
    /// # Panics
    /// Panics if either dimension is zero or not a power of two.
    pub fn new(rows: usize, cols: usize) -> Self {
        Self::with_simd_level(rows, cols, SimdLevel::detect())
    }

    /// Creates a plan pinned to a specific SIMD tier (bench/test entry
    /// point). Prefer [`Fft2Plan::new`].
    ///
    /// # Panics
    /// Panics if a dimension is invalid or `level` is unavailable.
    pub fn with_simd_level(rows: usize, cols: usize, level: SimdLevel) -> Self {
        Self {
            rows,
            cols,
            row_plan: FftPlan::with_simd_level(cols, level),
            col_plan: FftPlan::with_simd_level(rows, level),
        }
    }

    /// `(rows, cols)` shape the plan was built for.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// The SIMD tier this plan's kernels run at.
    pub fn simd_level(&self) -> SimdLevel {
        self.row_plan.simd_level()
    }

    /// Forward 2D transform (unnormalised). By-value wrapper over
    /// [`Self::forward_mut`] (clones the input).
    pub fn forward(&self, field: &CArray2) -> CArray2 {
        let mut out = field.clone();
        self.forward_mut(&mut out);
        out
    }

    /// Inverse 2D transform (normalised by `1/(rows·cols)`). By-value wrapper
    /// over [`Self::inverse_mut`].
    pub fn inverse(&self, field: &CArray2) -> CArray2 {
        let mut out = field.clone();
        self.inverse_mut(&mut out);
        out
    }

    /// In-place forward 2D transform (unnormalised): zero heap allocations,
    /// no workspace.
    ///
    /// # Panics
    /// Panics if the field shape differs from the plan shape.
    pub fn forward_mut(&self, field: &mut CArray2) {
        self.transform(field, true, 1.0);
    }

    /// In-place inverse 2D transform (normalised by `1/(rows·cols)`): zero
    /// heap allocations, no workspace.
    ///
    /// # Panics
    /// Panics if the field shape differs from the plan shape.
    pub fn inverse_mut(&self, field: &mut CArray2) {
        self.transform(field, false, 1.0 / (self.rows * self.cols) as f64);
    }

    /// In-place inverse 2D transform *without* the `1/(rows·cols)`
    /// normalisation, for callers that fold it into an elementwise factor
    /// they apply anyway (the multi-slice model pre-scales its transfer
    /// function).
    ///
    /// # Panics
    /// Panics if the field shape differs from the plan shape.
    pub fn inverse_unnormalized_mut(&self, field: &mut CArray2) {
        self.transform(field, false, 1.0);
    }

    /// [`Self::forward_mut`]; `scratch` is only shape-checked.
    pub fn forward_in_place(&self, field: &mut CArray2, scratch: &mut Fft2Scratch) {
        self.check_scratch(scratch);
        self.forward_mut(field);
    }

    /// [`Self::inverse_mut`]; `scratch` is only shape-checked.
    pub fn inverse_in_place(&self, field: &mut CArray2, scratch: &mut Fft2Scratch) {
        self.check_scratch(scratch);
        self.inverse_mut(field);
    }

    /// A scratch of this plan's shape.
    pub fn make_scratch(&self) -> Fft2Scratch {
        Fft2Scratch {
            rows: self.rows,
            cols: self.cols,
        }
    }

    fn check_scratch(&self, scratch: &Fft2Scratch) {
        assert_eq!(
            scratch.shape(),
            (self.rows, self.cols),
            "Fft2Scratch shape {:?} does not match plan shape {:?}",
            scratch.shape(),
            (self.rows, self.cols)
        );
    }

    /// Row pass then column pass, unnormalised, with every value multiplied
    /// by `scale` (a power of two, so exact) while its row is still hot.
    fn transform(&self, field: &mut CArray2, forward: bool, scale: f64) {
        assert_eq!(
            field.shape(),
            (self.rows, self.cols),
            "Fft2Plan shape {:?} does not match field shape {:?}",
            (self.rows, self.cols),
            field.shape()
        );
        let data = field.as_mut_slice();
        for row in data.chunks_exact_mut(self.cols) {
            if forward {
                self.row_plan.forward(row);
            } else {
                self.row_plan.inverse_unnormalized(row);
            }
            if scale != 1.0 {
                for v in row.iter_mut() {
                    *v = v.scale(scale);
                }
            }
        }
        self.col_plan.transform_columns(data, self.cols, forward);
    }
}

/// One-shot forward 2D FFT (builds a throwaway plan).
pub fn fft2(field: &CArray2) -> CArray2 {
    Fft2Plan::new(field.rows(), field.cols()).forward(field)
}

/// One-shot inverse 2D FFT (builds a throwaway plan).
pub fn ifft2(field: &CArray2) -> CArray2 {
    Fft2Plan::new(field.rows(), field.cols()).inverse(field)
}

/// Circularly shifts the zero-frequency component to the centre of the array.
///
/// For even dimensions `fftshift` and [`ifftshift`] coincide; both are provided
/// for readability at call sites.
pub fn fftshift<T: Clone + Default>(field: &Array2<T>) -> Array2<T> {
    roll(field, (field.rows() / 2) as i64, (field.cols() / 2) as i64)
}

/// Inverse of [`fftshift`].
pub fn ifftshift<T: Clone + Default>(field: &Array2<T>) -> Array2<T> {
    roll(
        field,
        (field.rows() - field.rows() / 2) as i64,
        (field.cols() - field.cols() / 2) as i64,
    )
}

/// Circularly rolls the array contents by `(drow, dcol)` (positive = down/right).
pub fn roll<T: Clone + Default>(field: &Array2<T>, drow: i64, dcol: i64) -> Array2<T> {
    let rows = field.rows() as i64;
    let cols = field.cols() as i64;
    if rows == 0 || cols == 0 {
        return field.clone();
    }
    Array2::from_fn(field.rows(), field.cols(), |r, c| {
        let sr = (r as i64 - drow).rem_euclid(rows) as usize;
        let sc = (c as i64 - dcol).rem_euclid(cols) as usize;
        field[(sr, sc)].clone()
    })
}

/// The squared magnitude of every element (diffraction intensity).
pub fn intensity(field: &CArray2) -> Array2<f64> {
    field.map(|v| v.norm_sqr())
}

/// The magnitude of every element (diffraction amplitude).
pub fn amplitude(field: &CArray2) -> Array2<f64> {
    field.map(|v| v.abs())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{dft, Complex64};

    fn test_field(rows: usize, cols: usize) -> CArray2 {
        Array2::from_fn(rows, cols, |r, c| {
            Complex64::new(
                ((r * 13 + c * 7) as f64 * 0.13).sin(),
                ((r * 5 + c * 3) as f64 * 0.29).cos(),
            )
        })
    }

    /// Reference 2D DFT built from the naive 1D DFT.
    fn dft2_reference(field: &CArray2) -> CArray2 {
        let (rows, cols) = field.shape();
        // Rows first.
        let mut row_passed = Array2::full(rows, cols, Complex64::ZERO);
        for r in 0..rows {
            let spectrum = dft::dft(field.row(r));
            for c in 0..cols {
                row_passed[(r, c)] = spectrum[c];
            }
        }
        // Then columns.
        let mut out = Array2::full(rows, cols, Complex64::ZERO);
        for c in 0..cols {
            let column: Vec<Complex64> = (0..rows).map(|r| row_passed[(r, c)]).collect();
            let spectrum = dft::dft(&column);
            for r in 0..rows {
                out[(r, c)] = spectrum[r];
            }
        }
        out
    }

    fn assert_fields_close(a: &CArray2, b: &CArray2, tol: f64) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((*x - *y).abs() < tol, "{x:?} vs {y:?}");
        }
    }

    #[test]
    fn matches_reference_dft2() {
        let field = test_field(8, 16);
        let fast = fft2(&field);
        let slow = dft2_reference(&field);
        assert_fields_close(&fast, &slow, 1e-9);
    }

    #[test]
    fn roundtrip_identity() {
        let field = test_field(16, 8);
        let back = ifft2(&fft2(&field));
        assert_fields_close(&back, &field, 1e-10);
    }

    #[test]
    fn impulse_gives_flat_spectrum() {
        let mut field = Array2::full(8, 8, Complex64::ZERO);
        field[(0, 0)] = Complex64::ONE;
        let spectrum = fft2(&field);
        for v in spectrum.as_slice() {
            assert!((*v - Complex64::ONE).abs() < 1e-12);
        }
    }

    #[test]
    fn parseval_2d() {
        let field = test_field(16, 16);
        let spectrum = fft2(&field);
        let spatial: f64 = field.as_slice().iter().map(|v| v.norm_sqr()).sum();
        let spectral: f64 = spectrum
            .as_slice()
            .iter()
            .map(|v| v.norm_sqr())
            .sum::<f64>()
            / (16.0 * 16.0);
        assert!((spatial - spectral).abs() < 1e-8 * spatial.max(1.0));
    }

    #[test]
    fn fftshift_moves_dc_to_center() {
        let mut field = Array2::full(8, 8, Complex64::ZERO);
        field[(0, 0)] = Complex64::ONE;
        let shifted = fftshift(&field);
        assert!((shifted[(4, 4)] - Complex64::ONE).abs() < 1e-15);
        assert!(shifted[(0, 0)].abs() < 1e-15);
    }

    #[test]
    fn fftshift_ifftshift_roundtrip_even_and_odd() {
        for &(rows, cols) in &[(8usize, 8usize), (7, 9), (6, 5)] {
            let field: Array2<f64> = Array2::from_fn(rows, cols, |r, c| (r * cols + c) as f64);
            let back = ifftshift(&fftshift(&field));
            assert_eq!(back, field, "roundtrip failed for {rows}x{cols}");
        }
    }

    #[test]
    fn roll_wraps_around() {
        let field: Array2<i32> = Array2::from_fn(3, 3, |r, c| (r * 3 + c) as i32);
        let rolled = roll(&field, 1, 1);
        assert_eq!(rolled[(0, 0)], field[(2, 2)]);
        assert_eq!(rolled[(1, 1)], field[(0, 0)]);
        let back = roll(&rolled, -1, -1);
        assert_eq!(back, field);
    }

    #[test]
    fn intensity_and_amplitude() {
        let field = Array2::full(2, 2, Complex64::new(3.0, 4.0));
        let i = intensity(&field);
        let a = amplitude(&field);
        assert!(i.iter().all(|&v| (v - 25.0).abs() < 1e-12));
        assert!(a.iter().all(|&v| (v - 5.0).abs() < 1e-12));
    }

    #[test]
    #[should_panic(expected = "does not match field shape")]
    fn plan_shape_mismatch_panics() {
        let plan = Fft2Plan::new(8, 8);
        let field = Array2::full(4, 4, Complex64::ZERO);
        let _ = plan.forward(&field);
    }

    #[test]
    fn in_place_is_bit_identical_to_by_value() {
        for &(rows, cols) in &[(8usize, 8usize), (8, 16), (16, 8)] {
            let field = test_field(rows, cols);
            let plan = Fft2Plan::new(rows, cols);

            let by_value = plan.forward(&field);
            let mut in_place = field.clone();
            plan.forward_mut(&mut in_place);
            for (a, b) in by_value.as_slice().iter().zip(in_place.as_slice()) {
                assert_eq!(a.re.to_bits(), b.re.to_bits());
                assert_eq!(a.im.to_bits(), b.im.to_bits());
            }

            plan.inverse_mut(&mut in_place);
            let back = plan.inverse(&by_value);
            for (a, b) in back.as_slice().iter().zip(in_place.as_slice()) {
                assert_eq!(a.re.to_bits(), b.re.to_bits());
                assert_eq!(a.im.to_bits(), b.im.to_bits());
            }
        }
    }

    #[test]
    fn column_pass_is_bit_identical_to_the_1d_plan_on_every_column() {
        // The in-place column pass must run, on each column, exactly the
        // butterflies the 1-D plan runs on a contiguous copy of it — at every
        // tier, single-column fields included.
        for level in SimdLevel::available_levels() {
            for &(rows, cols) in &[
                (2usize, 2usize),
                (4, 4),
                (8, 16),
                (16, 8),
                (1, 64),
                (64, 1),
                (32, 2),
                (128, 4),
            ] {
                let field = test_field(rows, cols);
                let plan = Fft2Plan::with_simd_level(rows, cols, level);
                let row_plan = FftPlan::with_simd_level(cols, level);
                let col_plan = FftPlan::with_simd_level(rows, level);
                for forward in [true, false] {
                    let mut reference = field.clone();
                    for row in reference.as_mut_slice().chunks_exact_mut(cols) {
                        if forward {
                            row_plan.forward(row);
                        } else {
                            row_plan.inverse_unnormalized(row);
                        }
                    }
                    for c in 0..cols {
                        let mut column: Vec<Complex64> =
                            (0..rows).map(|r| reference[(r, c)]).collect();
                        if forward {
                            col_plan.forward(&mut column);
                        } else {
                            col_plan.inverse_unnormalized(&mut column);
                        }
                        for (r, v) in column.into_iter().enumerate() {
                            reference[(r, c)] = v;
                        }
                    }
                    let mut fast = field.clone();
                    if forward {
                        plan.forward_mut(&mut fast);
                    } else {
                        plan.inverse_unnormalized_mut(&mut fast);
                    }
                    for (a, b) in reference.as_slice().iter().zip(fast.as_slice()) {
                        assert_eq!(
                            (a.re.to_bits(), a.im.to_bits()),
                            (b.re.to_bits(), b.im.to_bits()),
                            "{rows}x{cols} at {level:?}, forward={forward}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn unnormalized_inverse_is_the_inverse_times_the_element_count() {
        let plan = Fft2Plan::new(16, 8);
        let field = test_field(16, 8);
        let mut unnormalized = field.clone();
        plan.inverse_unnormalized_mut(&mut unnormalized);
        let normalized = plan.inverse(&field);
        for (a, b) in unnormalized.as_slice().iter().zip(normalized.as_slice()) {
            // Scaling by a power of two is exact.
            assert_eq!(*a, b.scale(128.0));
        }
    }

    #[test]
    fn in_place_scratch_is_reusable_across_transforms() {
        let plan = Fft2Plan::new(16, 16);
        let mut scratch = plan.make_scratch();
        let field = test_field(16, 16);
        let mut data = field.clone();
        for _ in 0..3 {
            plan.forward_in_place(&mut data, &mut scratch);
            plan.inverse_in_place(&mut data, &mut scratch);
        }
        assert_fields_close(&data, &field, 1e-9);
    }

    #[test]
    fn every_tier_2d_plan_bit_identical_to_scalar_2d_plan() {
        // Row pass, column pass (one- and two-stage sweeps, odd stage counts)
        // and the scaling, at every tier; the 1×N / N×1 / N×2 shapes leave
        // AVX2's column sweeps nothing but the one-value tail.
        for level in SimdLevel::available_levels() {
            for &(rows, cols) in &[
                (1usize, 1usize),
                (2, 2),
                (8, 8),
                (16, 32),
                (32, 8),
                (1, 64),
                (64, 1),
                (128, 2),
                (64, 64),
            ] {
                let field = test_field(rows, cols);
                let scalar_plan = Fft2Plan::with_simd_level(rows, cols, SimdLevel::Scalar);
                let tier_plan = Fft2Plan::with_simd_level(rows, cols, level);
                assert_eq!(tier_plan.simd_level(), level);
                let transforms: [fn(&Fft2Plan, &mut CArray2); 3] = [
                    Fft2Plan::forward_mut,
                    Fft2Plan::inverse_mut,
                    Fft2Plan::inverse_unnormalized_mut,
                ];
                for (t, transform) in transforms.into_iter().enumerate() {
                    let mut a = field.clone();
                    let mut b = field.clone();
                    transform(&scalar_plan, &mut a);
                    transform(&tier_plan, &mut b);
                    for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
                        assert_eq!(
                            (x.re.to_bits(), x.im.to_bits()),
                            (y.re.to_bits(), y.im.to_bits()),
                            "{rows}x{cols} at {level:?}, transform {t}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "Fft2Scratch shape")]
    fn mismatched_scratch_panics() {
        let plan = Fft2Plan::new(8, 8);
        let mut scratch = Fft2Plan::new(4, 4).make_scratch();
        let mut field = Array2::full(8, 8, Complex64::ZERO);
        plan.forward_in_place(&mut field, &mut scratch);
    }
}
