//! 2D fast Fourier transforms over [`Array2<Complex<R>>`](ptycho_array::Array2),
//! `R` being `f64` or `f32`.
//!
//! The 2D transform is a row pass followed by a column pass, both in the
//! field's own storage, each sweeping the field once (see the
//! [`crate::simd`] module). The row pass runs every row through every stage
//! of the 1-D plan and writes it out at its bit-reversed row. At the vector
//! tiers it does so a panel of rows at a time — as many rows as a vector
//! has real lanes, each row with its partner `rev(i)` — transposed into
//! split re / im planes on the stack, so every butterfly runs across the
//! panel's rows under one broadcast twiddle. The column pass then runs only
//! its butterfly stages. It does not transpose: it pairs whole *rows* (row
//! `k` with row `k + h` under one broadcast twiddle), so its inner loop also
//! runs along contiguous memory. Each row and each column goes through
//! exactly the butterflies the 1-D plan would apply to it.
//!
//! # Fused products
//!
//! The multi-slice model multiplies a field pointwise before almost every
//! transform. [`Fft2Plan::forward_fused`] and
//! [`Fft2Plan::inverse_unnormalized_fused`] read `x` from a source field
//! distinct from the destination and fold that product into the row pass's
//! load — `x·f` or `x·conj(f)` ([`Factor`]) — so a product and a transform
//! together touch each value once. The result is bit-identical to the
//! separate multiply followed by the plain transform.
//!
//! # In-place transforms
//!
//! The hot path of the reconstruction (one FFT pair per slice per probe
//! location) must not allocate. [`Fft2Plan::forward_mut`] /
//! [`Fft2Plan::inverse_mut`] / [`Fft2Plan::inverse_unnormalized_mut`]
//! transform a field in place with no workspace at all: a row panel's
//! planes live on the stack (at most 128 KiB, for rows of up to 2048
//! values; longer rows run at the scalar tier). The by-value methods
//! ([`Fft2Plan::forward`] and friends) clone the input first — convenient
//! for cold paths, tests and examples.
//!
//! [`Fft2Scratch`] and the `*_in_place(field, scratch)` methods are shims
//! from before the column pass ran in place: the scratch holds no buffer and
//! is only shape-checked. They stay for the one external caller that still
//! names them.

use crate::complex::{Complex, Real};
use crate::simd::{self, RowPass, SimdLevel, Source};
use crate::{CArray2, FftPlan};
use ptycho_array::Array2;
use std::ops::Range;

/// A pointwise factor a fused transform multiplies each input value by as
/// its row pass loads it: one value per element of the field, row-major.
#[derive(Clone, Copy, Debug)]
pub enum Factor<'a, R: Real = f64> {
    /// `x · f`.
    Mul(&'a [Complex<R>]),
    /// `x · conj(f)`.
    MulConj(&'a [Complex<R>]),
}

impl<'a, R: Real> Factor<'a, R> {
    /// The factor values.
    pub(crate) fn values(self) -> &'a [Complex<R>] {
        match self {
            Factor::Mul(f) | Factor::MulConj(f) => f,
        }
    }

    /// The same kind of factor over `range` of the values.
    pub(crate) fn sub(self, range: Range<usize>) -> Self {
        match self {
            Factor::Mul(f) => Factor::Mul(&f[range]),
            Factor::MulConj(f) => Factor::MulConj(&f[range]),
        }
    }
}

/// A reusable plan for 2D FFTs of a fixed `(rows, cols)` shape (both powers of
/// two), over complex values of precision `R` (`f64` unless named).
#[derive(Clone, Debug)]
pub struct Fft2Plan<R: Real = f64> {
    rows: usize,
    cols: usize,
    row_plan: FftPlan<R>,
    col_plan: FftPlan<R>,
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
    /// Creates an `f64` plan for `rows x cols` transforms at the best SIMD
    /// tier this machine supports. A plan of another precision is
    /// `Fft2Plan::<R>::with_simd_level(rows, cols, SimdLevel::detect())`.
    ///
    /// # Panics
    /// Panics if either dimension is zero or not a power of two.
    pub fn new(rows: usize, cols: usize) -> Self {
        Self::with_simd_level(rows, cols, SimdLevel::detect())
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
}

impl<R: Real> Fft2Plan<R> {
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
    pub fn forward(&self, field: &Array2<Complex<R>>) -> Array2<Complex<R>> {
        let mut out = field.clone();
        self.forward_mut(&mut out);
        out
    }

    /// Inverse 2D transform (normalised by `1/(rows·cols)`). By-value wrapper
    /// over [`Self::inverse_mut`].
    pub fn inverse(&self, field: &Array2<Complex<R>>) -> Array2<Complex<R>> {
        let mut out = field.clone();
        self.inverse_mut(&mut out);
        out
    }

    /// In-place forward 2D transform (unnormalised): zero heap allocations,
    /// no workspace.
    ///
    /// # Panics
    /// Panics if the field shape differs from the plan shape.
    pub fn forward_mut(&self, field: &mut Array2<Complex<R>>) {
        self.transform(field, None, true, R::ONE);
    }

    /// In-place inverse 2D transform (normalised by `1/(rows·cols)`): zero
    /// heap allocations, no workspace.
    ///
    /// # Panics
    /// Panics if the field shape differs from the plan shape.
    pub fn inverse_mut(&self, field: &mut Array2<Complex<R>>) {
        let scale = R::from_f64(1.0 / (self.rows * self.cols) as f64);
        self.transform(field, None, false, scale);
    }

    /// In-place inverse 2D transform *without* the `1/(rows·cols)`
    /// normalisation, for callers that fold it into an elementwise factor
    /// they apply anyway (the multi-slice model pre-scales its transfer
    /// function).
    ///
    /// # Panics
    /// Panics if the field shape differs from the plan shape.
    pub fn inverse_unnormalized_mut(&self, field: &mut Array2<Complex<R>>) {
        self.transform(field, None, false, R::ONE);
    }

    /// Forward 2D transform (unnormalised) of `source ⊙ factor` into
    /// `field`, whose old values are never read: the product is taken as
    /// the row pass loads each value, so the pair touches every value once.
    /// Bit-identical to the separate multiply, then [`Self::forward_mut`].
    /// Zero heap allocations.
    ///
    /// # Panics
    /// Panics if the field shape differs from the plan shape, or `source` or
    /// the factor does not hold one value per element of the field.
    pub fn forward_fused(
        &self,
        field: &mut Array2<Complex<R>>,
        source: &[Complex<R>],
        factor: Option<Factor<'_, R>>,
    ) {
        self.transform(
            field,
            Some(Source {
                values: source,
                factor,
            }),
            true,
            R::ONE,
        );
    }

    /// [`Self::forward_fused`] for the unnormalised inverse transform:
    /// bit-identical to the separate multiply, then
    /// [`Self::inverse_unnormalized_mut`].
    ///
    /// # Panics
    /// As [`Self::forward_fused`].
    pub fn inverse_unnormalized_fused(
        &self,
        field: &mut Array2<Complex<R>>,
        source: &[Complex<R>],
        factor: Option<Factor<'_, R>>,
    ) {
        self.transform(
            field,
            Some(Source {
                values: source,
                factor,
            }),
            false,
            R::ONE,
        );
    }

    /// The fused row pass (reading `source` times its factor, or `field`
    /// itself, times `scale` — a power of two, so exact — on write-out, each
    /// row landing at its bit-reversed row), then the column stages.
    fn transform(
        &self,
        field: &mut Array2<Complex<R>>,
        source: Option<Source<'_, R>>,
        forward: bool,
        scale: R,
    ) {
        assert_eq!(
            field.shape(),
            (self.rows, self.cols),
            "Fft2Plan shape {:?} does not match field shape {:?}",
            (self.rows, self.cols),
            field.shape()
        );
        let data = field.as_mut_slice();
        let pass = RowPass {
            within: self.row_plan.bit_rev(),
            order: self.col_plan.bit_rev(),
            stages: self.row_plan.stages(forward),
            scale,
        };
        simd::row_pass(self.simd_level(), data, source, &pass);
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

    /// [`test_field`] rounded to precision `R`.
    fn test_field_in<R: Real>(rows: usize, cols: usize) -> Array2<Complex<R>> {
        test_field(rows, cols).map(|v| Complex::narrow(*v))
    }

    fn bits<R: Real>(field: &Array2<Complex<R>>) -> Vec<(u64, u64)> {
        field
            .as_slice()
            .iter()
            .map(|v| (v.re.bit_pattern(), v.im.bit_pattern()))
            .collect()
    }

    fn plans_2d_match_scalar<R: Real>() {
        // Row pass, column pass (one- and two-stage sweeps, odd stage counts)
        // and the scaling, at every tier; the 1×N / N×1 / N×2 shapes leave
        // the vector column sweeps nothing but the one-value tail.
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
                let field = test_field_in::<R>(rows, cols);
                let scalar_plan = Fft2Plan::<R>::with_simd_level(rows, cols, SimdLevel::Scalar);
                let tier_plan = Fft2Plan::<R>::with_simd_level(rows, cols, level);
                assert_eq!(tier_plan.simd_level(), level);
                type Transform<R> = fn(&Fft2Plan<R>, &mut Array2<Complex<R>>);
                let transforms: [Transform<R>; 3] = [
                    Fft2Plan::forward_mut,
                    Fft2Plan::inverse_mut,
                    Fft2Plan::inverse_unnormalized_mut,
                ];
                for (t, transform) in transforms.into_iter().enumerate() {
                    let mut a = field.clone();
                    let mut b = field.clone();
                    transform(&scalar_plan, &mut a);
                    transform(&tier_plan, &mut b);
                    assert_eq!(
                        bits(&a),
                        bits(&b),
                        "{rows}x{cols} at {level:?}, transform {t}"
                    );
                }
            }
        }
    }

    #[test]
    fn every_tier_2d_plan_bit_identical_to_scalar_2d_plan() {
        plans_2d_match_scalar::<f64>();
        plans_2d_match_scalar::<f32>();
    }

    fn fused_match_separate<R: Real>() {
        // Every row-pass input — a distinct source with no factor, a factor
        // on load or a conjugated factor; the field in place — forward,
        // inverse and scaled inverse, at every tier, against the scalar
        // multiply followed by the plain scalar in-place transform. Sizes run
        // 2⁰ … 2¹¹ in each direction (1×N, N×1, N×2 leave every sweep its
        // degenerate cases and the row pass partial panels, up to the longest
        // row a panel takes) plus square and oblong fields with odd and even
        // stage counts.
        let mut shapes: Vec<(usize, usize)> = (0..=11)
            .map(|e| 1usize << e)
            .flat_map(|n| [(1, n), (n, 1), (n, 2)])
            .collect();
        shapes.extend([(4, 4), (8, 16), (16, 8), (32, 32), (64, 128)]);
        for level in SimdLevel::available_levels() {
            for &(rows, cols) in &shapes {
                let scalar = Fft2Plan::<R>::with_simd_level(rows, cols, SimdLevel::Scalar);
                let plan = Fft2Plan::<R>::with_simd_level(rows, cols, level);
                let input = test_field_in::<R>(rows, cols);
                let f = test_field_in::<R>(rows + 1, cols).as_slice()[cols..].to_vec();
                let inverse_scale = R::from_f64(1.0 / (rows * cols) as f64);
                let directions = [(true, R::ONE), (false, R::ONE), (false, inverse_scale)];
                let factors = [None, Some(Factor::Mul(&f)), Some(Factor::MulConj(&f))];
                for (forward, scale) in directions {
                    for factor in factors {
                        let mut expected = input.clone();
                        for (x, &f) in expected.as_mut_slice().iter_mut().zip(&f) {
                            match factor {
                                None => {}
                                Some(Factor::Mul(_)) => *x *= f,
                                Some(Factor::MulConj(_)) => *x *= f.conj(),
                            }
                        }
                        scalar.transform(&mut expected, None, forward, scale);
                        let nan = Complex::narrow(Complex64::new(f64::NAN, -1.0));
                        let mut fused = Array2::full(rows, cols, nan);
                        let source = Source {
                            values: input.as_slice(),
                            factor,
                        };
                        plan.transform(&mut fused, Some(source), forward, scale);
                        let mut runs = vec![("source", fused)];
                        if factor.is_none() {
                            let mut in_place = input.clone();
                            plan.transform(&mut in_place, None, forward, scale);
                            runs.push(("in place", in_place));
                        }
                        for (input, out) in runs {
                            assert_eq!(
                                bits(&expected),
                                bits(&out),
                                "{rows}x{cols} at {level:?}, forward={forward}, \
                                 scale={scale}, factor={factor:?}, {input}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fused_transforms_match_a_separate_multiply_then_the_transform() {
        fused_match_separate::<f64>();
        fused_match_separate::<f32>();
    }

    #[test]
    fn f32_transforms_stay_within_their_bound_of_the_f64_reference_dft() {
        // The f32 plan (twiddles rounded once from f64, every butterfly in
        // f32) against the naive f64 DFT of the same f32 input, at the
        // window sizes the workloads use, forward and round trip: relative
        // L2 error at most `F32_DFT_BOUND`, about 17 units of f32 rounding
        // (2⁻²⁴). Measured on x86_64: 1.2–1.5e-7 forward and 1.8–2.3e-7
        // round trip over these sizes.
        const F32_DFT_BOUND: f64 = 2e-6;
        for n in [32usize, 64, 128, 256] {
            let input = test_field_in::<f32>(n, n);
            let reference = dft2_reference(&input.map(|v| v.widen()));
            let plan = Fft2Plan::<f32>::with_simd_level(n, n, SimdLevel::detect());
            let spectrum = plan.forward(&input);
            let back = plan.inverse(&spectrum);
            let relative_l2 = |got: &Array2<Complex<f32>>, want: &CArray2| {
                let (mut err, mut norm) = (0.0, 0.0);
                for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
                    err += (g.widen() - *w).norm_sqr();
                    norm += w.norm_sqr();
                }
                (err / norm).sqrt()
            };
            let forward_err = relative_l2(&spectrum, &reference);
            let roundtrip_err = relative_l2(&back, &input.map(|v| v.widen()));
            assert!(
                forward_err <= F32_DFT_BOUND && roundtrip_err <= F32_DFT_BOUND,
                "{n}x{n}: forward {forward_err:.3e}, round trip {roundtrip_err:.3e}"
            );
        }
    }

    #[test]
    fn public_fused_entries_are_the_forward_and_unnormalised_inverse() {
        let plan = Fft2Plan::new(16, 8);
        let field = test_field(16, 8);
        let f = Array2::from_fn(16, 8, |r, c| {
            Complex64::new(1.0 + r as f64 * 0.1, c as f64 * 0.2)
        });
        let mut product = field.clone();
        product.zip_apply(&f, |x, f| *x *= f.conj());
        for (fused, plain) in [
            (
                Fft2Plan::forward_fused as fn(&Fft2Plan, &mut CArray2, _, _),
                Fft2Plan::forward_mut as fn(&Fft2Plan, &mut CArray2),
            ),
            (
                Fft2Plan::inverse_unnormalized_fused,
                Fft2Plan::inverse_unnormalized_mut,
            ),
        ] {
            let mut expected = product.clone();
            plain(&plan, &mut expected);
            let mut out = Array2::full(16, 8, Complex64::ZERO);
            fused(
                &plan,
                &mut out,
                field.as_slice(),
                Some(Factor::MulConj(f.as_slice())),
            );
            assert_eq!(out, expected);
        }
    }

    #[test]
    #[should_panic(expected = "row pass source length")]
    fn mismatched_source_panics() {
        let plan = Fft2Plan::new(8, 8);
        let source = test_field(4, 8);
        let mut field = Array2::full(8, 8, Complex64::ZERO);
        plan.forward_fused(&mut field, source.as_slice(), None);
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
