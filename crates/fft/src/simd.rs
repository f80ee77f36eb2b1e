//! The radix-2 butterfly sweeps, at every dispatch tier.
//!
//! # Sweeps
//!
//! A transform is two passes over a row-major field, each dispatched once at
//! the tier fixed at plan construction (a 1-D plan's line is a one-row
//! field):
//!
//! * **The row pass** (`row_pass`) takes each row pair `(i, rev(i))` of the
//!   column transform's bit reversal and runs both rows through every stage
//!   of the row transform while they sit in L1. When the input comes from
//!   a distinct source field, each row's own bit reversal is a gather fused
//!   into the first radix-2² sweep, and an optional pointwise factor
//!   (`x·f` or `x·conj(f)`) is applied to each value as it is loaded; in
//!   place, the row is permuted in place and no factor is taken. The
//!   remaining stages follow, and the inverse's normalisation is applied as
//!   each row is written out. The row lands at its bit-reversed position, so
//!   the column pass does no permutation of its own. In place, the two rows
//!   of a pair are transformed and then swapped while hot, with no scratch.
//! * **The column pass** (`column_pass2` / `column_pass`) pairs whole
//!   *rows*: all butterflies between two rows share one twiddle, which is
//!   broadcast, and the inner loop runs along the contiguous columns. That
//!   is what lets the 2-D plan transform its columns in place, without
//!   transposing.
//!
//! Both passes run **two radix-2 stages per sweep**: the four values
//! `x[j], x[j+h], x[j+2h], x[j+3h]` of a `4h` block go through the stage of
//! half-size `h` and then the stage of half-size `2h` while they sit in
//! registers. Every butterfly is still `t = b·w; a' = a + t; b' = a − t` with
//! the same operands and the same twiddle-table entries as two separate
//! one-stage sweeps, so the result is bit-identical to them; only half the
//! loads and stores happen. An odd stage count leaves the last stage to a
//! one-stage sweep. The row sweeps read each stage's twiddles pre-split
//! (`Stage`: `w` and its swap `[w.im, w.re]`), so a product needs no
//! twiddle permute. The factor, gather, twiddle split, row placement and
//! scale change where values are read and written, never which operations
//! produce them: a fused transform is bit-identical to a separate multiply
//! followed by the plain transform.
//!
//! # Dispatch tiers
//!
//! A plan resolves its tier once, at construction, to the widest one the CPU
//! offers ([`SimdLevel::detect`]); there is no cargo feature and no switch.
//!
//! * [`SimdLevel::Scalar`] — the portable loops: the only tier on non-x86_64
//!   targets, and on x86_64 the oracle the other two are pinned against
//!   (`with_simd_level(Scalar)`).
//! * [`SimdLevel::Sse2`] — one `Complex64` per `__m128d`. SSE2 is part of the
//!   x86_64 baseline, so this tier needs no runtime check.
//! * [`SimdLevel::Avx2`] — two `Complex64` per `__m256d`, selected when
//!   `is_x86_feature_detected!("avx2")` holds. A lone trailing value (odd run
//!   length, single-column field) goes through the SSE2 lane. The first
//!   radix-2² sweep of a row holds the four values of a block as the lane
//!   pairs `[x0, x2]` / `[x1, x3]`, so its first stage is one vector
//!   butterfly as well.
//!
//! # One arithmetic
//!
//! Every tier computes every butterfly as the *same* IEEE 754 operations in
//! the same order as the scalar `Mul` / `Add` / `Sub` impls: the product
//! `b·w` is two multiplies and one add/subtract per component
//! (`_mm256_mul_pd` ×2 + `_mm256_addsub_pd` on AVX2; SSE2 has no `addsub`
//! and adds the sign-flipped product, which IEEE defines as the same
//! operation), then `a' = a + t`, `b' = a − t`. No accumulation is
//! reordered and nothing is fused, so which tier, which lane and which
//! partition of a run computed a value cannot be seen in its bits: all tiers
//! are **bit-identical**, pinned by `to_bits` tests at every level of the
//! stack (sweeps, 1-D / 2-D plans, the multi-slice gradient, whole
//! solves). The dispatch tier is therefore not part of a result's identity —
//! goldens, traces and checkpoints are the same on every host.
//!
//! FMA is deliberately not used. `vfmaddsub231pd` would fuse the second
//! multiply with the add/subtract and drop one rounding per component, which
//! makes results ULP-close to scalar instead of equal — every golden then
//! needs a column per tier and a checkpoint cannot resume bit-identically on
//! a host of another tier. Measured at commit 9bce48f, with one radix-2
//! stage per sweep and a transposed column pass, on one AVX2 box (pinned
//! CPU, best of 2000, one dense 128² forward transform / `iter_s_p50` of
//! `perf_bench`'s `gd-compute-1r` in calibrated seconds, alternating runs),
//! and not re-measured over the sweeps above:
//!
//! | tier               | 128² forward | `gd-compute-1r` iteration |
//! |--------------------|-------------:|--------------------------:|
//! | scalar             |       190 µs |                   0.300 s |
//! | SSE2               |       155 µs |                           |
//! | AVX2, FMA          |        92 µs |                   0.183 s |
//! | AVX2, mul + addsub |        99 µs |                   0.184 s |
//!
//! — 7 % on the bare transform and 0–3 % end to end (a second sizing an hour
//! later read 0.185 vs 0.194 s, on a box whose own run-to-run spread is
//! 2 %), against a second arithmetic to specify, test and carry through
//! every format.

// The intrinsics in the x86 module below are the one sanctioned use of
// `unsafe` in this crate (the crate root carries `deny(unsafe_code)` on
// x86_64 and `forbid(unsafe_code)` on every other target). Safety rests on
// two invariants, both enforced here: every kernel is only dispatched after
// its CPU feature is statically (SSE2) or dynamically (AVX2) confirmed, and
// every pointer stays inside the bounds of the slices passed in
// (`Complex64` is `#[repr(C)]`, so a `&[Complex64]` is exactly a dense
// `re, im` f64 sequence).
#![cfg_attr(target_arch = "x86_64", allow(unsafe_code))]

use crate::fft2d::Factor;
use crate::Complex64;

/// The instruction-set tier a plan's butterfly kernels run at.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// Portable scalar loop (always available; bit-identity reference).
    Scalar,
    /// SSE2 `f64x2` kernels, one complex value per vector (every x86_64).
    Sse2,
    /// AVX2 `f64x4` kernels, two complex values per vector (x86_64,
    /// runtime-detected).
    Avx2,
}

impl SimdLevel {
    /// The best tier available on this machine: `Scalar` off x86_64, else
    /// `Avx2` when the CPU reports `avx2` at runtime, else `Sse2`.
    pub fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                SimdLevel::Avx2
            } else {
                SimdLevel::Sse2
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        SimdLevel::Scalar
    }

    /// Whether this tier can run on this machine.
    pub fn is_available(self) -> bool {
        self <= Self::detect()
    }

    /// Stable lowercase name, used for bench keys (`fft_simd/{label}_{n}`)
    /// and the `simd tier:` line of the bench binaries.
    pub fn label(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Sse2 => "sse2",
            SimdLevel::Avx2 => "avx2",
        }
    }

    /// Every tier available on this machine, in ascending order (always
    /// starts with `Scalar`).
    pub fn available_levels() -> Vec<SimdLevel> {
        [SimdLevel::Scalar, SimdLevel::Sse2, SimdLevel::Avx2]
            .into_iter()
            .filter(|level| level.is_available())
            .collect()
    }
}

/// Calls the kernel of the given tier with the given arguments.
macro_rules! dispatch {
    ($level:expr, $scalar:ident, $sse2:ident, $avx2:ident, ($($arg:expr),*)) => {
        match $level {
            // SAFETY: the caller established the kernel's length relations;
            // SSE2 is part of the x86_64 baseline.
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Sse2 => unsafe { x86::$sse2($($arg),*) },
            // SAFETY: as above; a plan only holds `Avx2` after `is_available`
            // confirmed `avx2` at runtime.
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2 => unsafe { x86::$avx2($($arg),*) },
            _ => $scalar($($arg),*),
        }
    };
}

// The sweeps. A stage table belongs to a plan: the stage of half-size `h`
// (blocks of `2h`) has `h` entries, so stage `s` of a length-`n` transform
// has `2^s`. The dispatchers check every relation a kernel indexes by without
// a slice's own bounds behind it.

/// One butterfly stage's twiddles `w[k]`, and the same values with their
/// parts swapped, `[w.im, w.re]`. The vector tiers' products read both, so
/// they do no twiddle permute; the swap is exact, so the split moves no bit.
#[derive(Clone, Debug)]
pub(crate) struct Stage {
    w: Vec<Complex64>,
    swapped: Vec<Complex64>,
}

impl Stage {
    pub(crate) fn new(w: Vec<Complex64>) -> Self {
        let swapped = w.iter().map(|w| Complex64::new(w.im, w.re)).collect();
        Self { w, swapped }
    }

    /// The conjugated table (exact), for the inverse direction.
    pub(crate) fn conj(&self) -> Self {
        Self::new(self.w.iter().map(|w| w.conj()).collect())
    }

    fn len(&self) -> usize {
        self.w.len()
    }
}

/// The tables a row pass runs with (see the module docs).
#[derive(Clone, Copy, Debug)]
pub(crate) struct RowPass<'a> {
    /// The bit reversal within a row; its length is the row length.
    pub within: &'a [u32],
    /// The column transform's bit reversal: input row `i` is written to row
    /// `order[i]`. Its length is the row count.
    pub order: &'a [u32],
    /// The row transform's stage tables, stage `s` holding `2^s` entries.
    pub stages: &'a [Stage],
    /// What every output value is multiplied by (`1.0`: nothing).
    pub scale: f64,
}

/// A distinct field a row pass reads its input from, each value times the
/// factor, if any, as it is loaded.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Source<'a> {
    pub values: &'a [Complex64],
    pub factor: Option<Factor<'a>>,
}

/// The row pass over the row-major field `data`: input row `i` — of `source`
/// (times its factor), or of `data` itself when `None` — is transformed,
/// multiplied by `pass.scale` and written to row `pass.order[i]`.
///
/// # Panics
/// Panics if `data` is not `order.len()` rows of `within.len()` values, the
/// source or its factor is not as long as `data`, a bit-reversal table holds
/// an index outside its own length, or the stage tables do not fit the row.
pub(crate) fn row_pass(
    level: SimdLevel,
    data: &mut [Complex64],
    source: Option<Source<'_>>,
    pass: &RowPass<'_>,
) {
    let n = pass.within.len();
    assert_eq!(data.len(), n * pass.order.len(), "row pass field length");
    if let Some(source) = source {
        assert_eq!(source.values.len(), data.len(), "row pass source length");
        if let Some(factor) = source.factor {
            assert_eq!(factor.values().len(), data.len(), "row pass factor length");
        }
    }
    for table in [pass.within, pass.order] {
        assert!(
            table.iter().all(|&r| (r as usize) < table.len()),
            "bit-reversal table"
        );
    }
    assert!(
        1 << pass.stages.len() == n
            && pass
                .stages
                .iter()
                .enumerate()
                .all(|(s, t)| t.len() == 1 << s),
        "row stage tables"
    );
    dispatch!(
        level,
        scalar_rows,
        sse2_rows,
        avx2_rows,
        (data, source, pass)
    )
}

/// One stage down the columns of a row-major field of row length `cols`: every
/// `2h`-block of rows pairs row `k` with row `k + h` under the broadcast
/// twiddle `stage[k]`.
pub(crate) fn column_pass(level: SimdLevel, data: &mut [Complex64], cols: usize, stage: &Stage) {
    dispatch!(
        level,
        scalar_column,
        sse2_column,
        avx2_column,
        (data, cols, stage)
    )
}

/// Two stages down the columns, over every `4h`-block of rows: the stage `wa`
/// (`h` entries), then the stage `wb` (`2h` entries).
///
/// # Panics
/// Panics if `wb` is not twice as long as `wa`.
pub(crate) fn column_pass2(
    level: SimdLevel,
    data: &mut [Complex64],
    cols: usize,
    wa: &Stage,
    wb: &Stage,
) {
    assert_eq!(wb.len(), 2 * wa.len(), "second-stage twiddle table");
    dispatch!(
        level,
        scalar_column2,
        sse2_column2,
        avx2_column2,
        (data, cols, wa, wb)
    )
}

// The portable sweeps. The butterfly is the exact operation sequence
// `t = b·w; a' = a + t; b' = a − t`, and a loaded value is `x · f` or
// `x · conj(f)` exactly as a separate multiply computes it — the bit-identity
// reference for every other tier.

fn scalar_rows(data: &mut [Complex64], source: Option<Source<'_>>, pass: &RowPass<'_>) {
    let n = pass.within.len();
    let row = |r: usize| r * n..(r + 1) * n;
    for (i, &j) in pass.order.iter().enumerate() {
        let j = j as usize;
        if j < i {
            continue;
        }
        match source {
            Some(Source { values, factor }) => {
                let source_row = |r: usize| (&values[row(r)], factor.map(|f| f.sub(row(r))));
                scalar_row_from(&mut data[row(j)], source_row(i), pass);
                if i != j {
                    scalar_row_from(&mut data[row(i)], source_row(j), pass);
                }
            }
            None => {
                scalar_row_in_place(&mut data[row(i)], pass);
                if i != j {
                    scalar_row_in_place(&mut data[row(j)], pass);
                    let (head, tail) = data.split_at_mut(j * n);
                    head[row(i)].swap_with_slice(&mut tail[..n]);
                }
            }
        }
    }
}

/// `values[i]` times the factor at `i`.
fn load(values: &[Complex64], factor: Option<Factor<'_>>, i: usize) -> Complex64 {
    match factor {
        None => values[i],
        Some(Factor::Mul(f)) => values[i] * f[i],
        Some(Factor::MulConj(f)) => values[i] * f[i].conj(),
    }
}

fn scalar_row_from(
    row: &mut [Complex64],
    (source, factor): (&[Complex64], Option<Factor<'_>>),
    pass: &RowPass<'_>,
) {
    for (x, &r) in row.iter_mut().zip(pass.within) {
        *x = load(source, factor, r as usize);
    }
    scalar_stages(row, pass);
}

fn scalar_row_in_place(row: &mut [Complex64], pass: &RowPass<'_>) {
    for (k, &r) in pass.within.iter().enumerate() {
        if k < r as usize {
            row.swap(k, r as usize);
        }
    }
    scalar_stages(row, pass);
}

/// Every stage of the row transform over a permuted row, then the scale.
fn scalar_stages(row: &mut [Complex64], pass: &RowPass<'_>) {
    let mut pairs = pass.stages.chunks_exact(2);
    for pair in &mut pairs {
        scalar_pass2(row, &pair[0].w, &pair[1].w);
    }
    if let [last] = pairs.remainder() {
        let (lo, hi) = row.split_at_mut(row.len() / 2);
        for ((a, b), w) in lo.iter_mut().zip(hi.iter_mut()).zip(&last.w) {
            butterfly(a, b, *w);
        }
    }
    if pass.scale != 1.0 {
        for x in row.iter_mut() {
            *x = x.scale(pass.scale);
        }
    }
}

fn scalar_pass2(data: &mut [Complex64], wa: &[Complex64], wb: &[Complex64]) {
    let h = wa.len();
    let (wb0, wb1) = wb.split_at(h);
    for block in data.chunks_exact_mut(4 * h) {
        let [x0, x1, x2, x3] = quarters(block, h);
        for j in 0..h {
            butterfly2(
                &mut x0[j], &mut x1[j], &mut x2[j], &mut x3[j], wa[j], wb0[j], wb1[j],
            );
        }
    }
}

fn scalar_column(data: &mut [Complex64], cols: usize, stage: &Stage) {
    let h = stage.len();
    for block in data.chunks_exact_mut(2 * h * cols) {
        let (lo, hi) = block.split_at_mut(h * cols);
        for ((lo, hi), w) in lo
            .chunks_exact_mut(cols)
            .zip(hi.chunks_exact_mut(cols))
            .zip(&stage.w)
        {
            for (a, b) in lo.iter_mut().zip(hi) {
                butterfly(a, b, *w);
            }
        }
    }
}

fn scalar_column2(data: &mut [Complex64], cols: usize, wa: &Stage, wb: &Stage) {
    let h = wa.len();
    let (wb0, wb1) = wb.w.split_at(h);
    for block in data.chunks_exact_mut(4 * h * cols) {
        let [q0, q1, q2, q3] = quarters(block, h * cols);
        for j in 0..h {
            let row = j * cols..(j + 1) * cols;
            let (x0, x1) = (&mut q0[row.clone()], &mut q1[row.clone()]);
            let (x2, x3) = (&mut q2[row.clone()], &mut q3[row]);
            let (wa, wb0, wb1) = (wa.w[j], wb0[j], wb1[j]);
            for c in 0..cols {
                butterfly2(&mut x0[c], &mut x1[c], &mut x2[c], &mut x3[c], wa, wb0, wb1);
            }
        }
    }
}

/// Splits a `4·len` block into its four `len`-long quarters.
fn quarters(block: &mut [Complex64], len: usize) -> [&mut [Complex64]; 4] {
    let (lo, hi) = block.split_at_mut(2 * len);
    let (x0, x1) = lo.split_at_mut(len);
    let (x2, x3) = hi.split_at_mut(len);
    [x0, x1, x2, x3]
}

#[inline(always)]
fn butterfly(a: &mut Complex64, b: &mut Complex64, w: Complex64) {
    let t = *b * w;
    let u = *a;
    *a = u + t;
    *b = u - t;
}

/// The stage-`h` butterflies `(x0, x1)`, `(x2, x3)` under `wa`, then the
/// stage-`2h` butterflies `(x0, x2)` under `wb0` and `(x1, x3)` under `wb1`.
#[inline(always)]
fn butterfly2(
    x0: &mut Complex64,
    x1: &mut Complex64,
    x2: &mut Complex64,
    x3: &mut Complex64,
    wa: Complex64,
    wb0: Complex64,
    wb1: Complex64,
) {
    butterfly(x0, x1, wa);
    butterfly(x2, x3, wa);
    butterfly(x0, x2, wb0);
    butterfly(x1, x3, wb1);
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{RowPass, Source, Stage};
    use crate::fft2d::Factor;
    use crate::Complex64;
    use core::arch::x86_64::*;

    /// A vector of `N` complex values and the butterfly arithmetic on it.
    /// The sweeps below are written once over this trait and instantiated per
    /// tier inside a `#[target_feature]` function, so the intrinsics inline.
    ///
    /// # Safety
    /// Every method requires the CPU features of the implementing tier, and
    /// `load` / `store` require `N` valid complex values behind the pointer.
    trait Lanes {
        /// Complex values per vector: 1 or 2, so a run leaves at most one
        /// value to the tail.
        const N: usize;
        type V: Copy;
        /// The one-value tier that finishes a run whose length `N` does not
        /// divide.
        type Tail: Lanes;
        /// The first radix-2² sweep's twiddles, held in registers.
        type Quad: Copy;
        unsafe fn load(p: *const Complex64) -> Self::V;
        unsafe fn store(p: *mut Complex64, v: Self::V);
        unsafe fn splat(w: Complex64) -> Self::V;
        /// `[w.im, w.re]` of every value (exact).
        unsafe fn swap(w: Self::V) -> Self::V;
        /// `conj(w)` of every value: the imaginary sign flipped (exact).
        unsafe fn conj(w: Self::V) -> Self::V;
        /// The complex products `b·w`, lane by lane, given `w` and
        /// `swap(w)`.
        unsafe fn mul(b: Self::V, w: Self::V, w_swapped: Self::V) -> Self::V;
        unsafe fn add(a: Self::V, b: Self::V) -> Self::V;
        unsafe fn sub(a: Self::V, b: Self::V) -> Self::V;
        /// Every part times the real `s`, as `Complex64::scale`.
        unsafe fn scale(v: Self::V, s: f64) -> Self::V;
        /// Loads the first two stages' twiddles (one, then two entries).
        unsafe fn quad_twiddles(wa: &Stage, wb: &Stage) -> Self::Quad;
        /// `super::butterfly2` on the values at `idx` of `src`, each times
        /// its factor as kind `K` asks, under the first two stages'
        /// twiddles; the block is stored at `out[0..4]`. Every value is
        /// loaded before any is stored, so `out` may be the block read.
        unsafe fn quad<const K: u8>(
            src: *const Complex64,
            factor: *const Complex64,
            idx: [usize; 4],
            tw: Self::Quad,
            out: *mut Complex64,
        );
    }

    /// One `Complex64` per `__m128d`.
    struct Sse2;
    /// Two `Complex64` per `__m256d`.
    struct Avx2;

    impl Lanes for Sse2 {
        const N: usize = 1;
        type V = __m128d;
        type Tail = Sse2;
        type Quad = [(__m128d, __m128d); 3];
        #[inline(always)]
        unsafe fn load(p: *const Complex64) -> __m128d {
            _mm_loadu_pd(p as *const f64)
        }
        #[inline(always)]
        unsafe fn store(p: *mut Complex64, v: __m128d) {
            _mm_storeu_pd(p as *mut f64, v)
        }
        #[inline(always)]
        unsafe fn splat(w: Complex64) -> __m128d {
            _mm_set_pd(w.im, w.re)
        }
        #[inline(always)]
        unsafe fn swap(w: __m128d) -> __m128d {
            _mm_shuffle_pd(w, w, 0b01)
        }
        #[inline(always)]
        unsafe fn conj(w: __m128d) -> __m128d {
            _mm_xor_pd(w, _mm_set_pd(-0.0, 0.0))
        }
        /// Replicates the scalar complex multiply
        /// `(b.re·w.re − b.im·w.im, b.re·w.im + b.im·w.re)` with the same two
        /// multiplies and one add/subtract per lane — bit-identical.
        #[inline(always)]
        unsafe fn mul(b: __m128d, w: __m128d, w_swapped: __m128d) -> __m128d {
            let bre = _mm_unpacklo_pd(b, b); // [b.re, b.re]
            let bim = _mm_unpackhi_pd(b, b); // [b.im, b.im]

            // `[-0.0, 0.0]`: XORing flips the sign of lane 0 only, turning
            // the add into `[x0 − y0, x1 + y1]` (IEEE subtraction *is*
            // addition of the negation, so this matches the scalar subtract).
            let prod_im = _mm_xor_pd(_mm_mul_pd(bim, w_swapped), _mm_set_pd(0.0, -0.0));
            _mm_add_pd(_mm_mul_pd(bre, w), prod_im)
        }
        #[inline(always)]
        unsafe fn add(a: __m128d, b: __m128d) -> __m128d {
            _mm_add_pd(a, b)
        }
        #[inline(always)]
        unsafe fn sub(a: __m128d, b: __m128d) -> __m128d {
            _mm_sub_pd(a, b)
        }
        #[inline(always)]
        unsafe fn scale(v: __m128d, s: f64) -> __m128d {
            _mm_mul_pd(v, _mm_set1_pd(s))
        }
        #[inline(always)]
        unsafe fn quad_twiddles(wa: &Stage, wb: &Stage) -> Self::Quad {
            [
                (Self::splat(wa.w[0]), Self::splat(wa.swapped[0])),
                (Self::splat(wb.w[0]), Self::splat(wb.swapped[0])),
                (Self::splat(wb.w[1]), Self::splat(wb.swapped[1])),
            ]
        }
        #[inline(always)]
        unsafe fn quad<const K: u8>(
            src: *const Complex64,
            factor: *const Complex64,
            idx: [usize; 4],
            [wa, wb0, wb1]: Self::Quad,
            out: *mut Complex64,
        ) {
            let x0 = load_times::<Self, K>(src, factor, idx[0]);
            let x1 = load_times::<Self, K>(src, factor, idx[1]);
            let x2 = load_times::<Self, K>(src, factor, idx[2]);
            let x3 = load_times::<Self, K>(src, factor, idx[3]);
            let t = Self::mul(x1, wa.0, wa.1);
            let (y0, y1) = (Self::add(x0, t), Self::sub(x0, t));
            let t = Self::mul(x3, wa.0, wa.1);
            let (y2, y3) = (Self::add(x2, t), Self::sub(x2, t));
            let t = Self::mul(y2, wb0.0, wb0.1);
            Self::store(out, Self::add(y0, t));
            Self::store(out.add(2), Self::sub(y0, t));
            let t = Self::mul(y3, wb1.0, wb1.1);
            Self::store(out.add(1), Self::add(y1, t));
            Self::store(out.add(3), Self::sub(y1, t));
        }
    }

    impl Lanes for Avx2 {
        const N: usize = 2;
        type V = __m256d;
        type Tail = Sse2;
        type Quad = [(__m256d, __m256d); 2];
        #[inline(always)]
        unsafe fn load(p: *const Complex64) -> __m256d {
            _mm256_loadu_pd(p as *const f64)
        }
        #[inline(always)]
        unsafe fn store(p: *mut Complex64, v: __m256d) {
            _mm256_storeu_pd(p as *mut f64, v)
        }
        #[inline(always)]
        unsafe fn splat(w: Complex64) -> __m256d {
            _mm256_set_pd(w.im, w.re, w.im, w.re)
        }
        #[inline(always)]
        unsafe fn swap(w: __m256d) -> __m256d {
            _mm256_permute_pd(w, 0b0101)
        }
        #[inline(always)]
        unsafe fn conj(w: __m256d) -> __m256d {
            _mm256_xor_pd(w, _mm256_set_pd(-0.0, 0.0, -0.0, 0.0))
        }
        /// [`Sse2::mul`] on two values: both products rounded, then
        /// `addsub` — deliberately not `vfmaddsub`, which would drop a
        /// rounding (see the module docs).
        #[inline(always)]
        unsafe fn mul(b: __m256d, w: __m256d, w_swapped: __m256d) -> __m256d {
            let bre = _mm256_movedup_pd(b); // [b0.re, b0.re, b1.re, b1.re]
            let bim = _mm256_permute_pd(b, 0b1111); // [b0.im, b0.im, b1.im, b1.im]

            // even lanes: b.re·w.re − b.im·w.im, odd lanes: b.re·w.im + b.im·w.re
            _mm256_addsub_pd(_mm256_mul_pd(bre, w), _mm256_mul_pd(bim, w_swapped))
        }
        #[inline(always)]
        unsafe fn add(a: __m256d, b: __m256d) -> __m256d {
            _mm256_add_pd(a, b)
        }
        #[inline(always)]
        unsafe fn sub(a: __m256d, b: __m256d) -> __m256d {
            _mm256_sub_pd(a, b)
        }
        #[inline(always)]
        unsafe fn scale(v: __m256d, s: f64) -> __m256d {
            _mm256_mul_pd(v, _mm256_set1_pd(s))
        }
        /// `[wa, wa]` and the stage-2 table `[wb0, wb1]`, each with its swap.
        #[inline(always)]
        unsafe fn quad_twiddles(wa: &Stage, wb: &Stage) -> Self::Quad {
            [
                (Self::splat(wa.w[0]), Self::splat(wa.swapped[0])),
                (Self::load(wb.w.as_ptr()), Self::load(wb.swapped.as_ptr())),
            ]
        }
        /// The block as the lane pairs `[x0, x2]` / `[x1, x3]`: the first
        /// stage's two butterflies are one vector butterfly, and one
        /// 128-bit-lane shuffle pairs its outputs as `[y0, y1]` / `[y2, y3]`
        /// for the second stage's two.
        #[inline(always)]
        unsafe fn quad<const K: u8>(
            src: *const Complex64,
            factor: *const Complex64,
            idx: [usize; 4],
            [wa, wb]: Self::Quad,
            out: *mut Complex64,
        ) {
            let (mut a, mut b) = (pair(src, idx[0], idx[2]), pair(src, idx[1], idx[3]));
            if K != ONE {
                a = times::<Self, K>(a, pair(factor, idx[0], idx[2]));
                b = times::<Self, K>(b, pair(factor, idx[1], idx[3]));
            }
            let t = Self::mul(b, wa.0, wa.1);
            let (y02, y13) = (Self::add(a, t), Self::sub(a, t));
            let lo = _mm256_permute2f128_pd(y02, y13, 0x20); // [y0, y1]
            let hi = _mm256_permute2f128_pd(y02, y13, 0x31); // [y2, y3]
            let t = Self::mul(hi, wb.0, wb.1);
            Self::store(out, Self::add(lo, t));
            Self::store(out.add(2), Self::sub(lo, t));
        }
    }

    /// The values at `lo` and `hi` of `p` as one `[p[lo], p[hi]]` vector.
    ///
    /// # Safety
    /// `p + lo` and `p + hi` must each address a valid value.
    #[inline(always)]
    unsafe fn pair(p: *const Complex64, lo: usize, hi: usize) -> __m256d {
        _mm256_set_m128d(
            _mm_loadu_pd(p.add(hi) as *const f64),
            _mm_loadu_pd(p.add(lo) as *const f64),
        )
    }

    // The factor kinds a row pass is instantiated for.
    const ONE: u8 = 0;
    const MUL: u8 = 1;
    const CONJ: u8 = 2;

    /// `x · f`, or `x · conj(f)` for `CONJ`, value by value.
    ///
    /// # Safety
    /// The CPU must support `L`.
    #[inline(always)]
    unsafe fn times<L: Lanes, const K: u8>(x: L::V, f: L::V) -> L::V {
        let f = if K == CONJ { L::conj(f) } else { f };
        L::mul(x, f, L::swap(f))
    }

    /// The value(s) at `i` of `src`, times the factor at `i` unless `K` is
    /// `ONE` (when `factor` is never read).
    ///
    /// # Safety
    /// `src + i`, and unless `K` is `ONE` `factor + i`, must address `L::N`
    /// valid values.
    #[inline(always)]
    unsafe fn load_times<L: Lanes, const K: u8>(
        src: *const Complex64,
        factor: *const Complex64,
        i: usize,
    ) -> L::V {
        let x = L::load(src.add(i));
        if K == ONE {
            x
        } else {
            times::<L, K>(x, L::load(factor.add(i)))
        }
    }

    /// Where a run's twiddles come from: a stage table (row sweeps) or one
    /// value for the whole run (column sweeps).
    trait Twiddle: Copy {
        /// `(w, swap(w))` for the butterflies at `k`.
        unsafe fn get<L: Lanes>(self, k: usize) -> (L::V, L::V);
    }

    /// A stage table, read from one entry on.
    #[derive(Clone, Copy)]
    struct Table {
        w: *const Complex64,
        swapped: *const Complex64,
    }

    impl Table {
        fn of(stage: &Stage, from: usize) -> Self {
            Self {
                w: stage.w[from..].as_ptr(),
                swapped: stage.swapped[from..].as_ptr(),
            }
        }
    }

    impl Twiddle for Table {
        #[inline(always)]
        unsafe fn get<L: Lanes>(self, k: usize) -> (L::V, L::V) {
            (L::load(self.w.add(k)), L::load(self.swapped.add(k)))
        }
    }

    impl Twiddle for Complex64 {
        #[inline(always)]
        unsafe fn get<L: Lanes>(self, _k: usize) -> (L::V, L::V) {
            (L::splat(self), L::splat(Complex64::new(self.im, self.re)))
        }
    }

    /// # Safety
    /// `a + k` and `b + k` must address `L::N` valid values.
    #[inline(always)]
    unsafe fn butterfly<L: Lanes>(
        a: *mut Complex64,
        b: *mut Complex64,
        k: usize,
        (w, ws): (L::V, L::V),
    ) {
        let t = L::mul(L::load(b.add(k)), w, ws);
        let u = L::load(a.add(k));
        L::store(a.add(k), L::add(u, t));
        L::store(b.add(k), L::sub(u, t));
    }

    /// The two-stage butterfly of `super::butterfly2`, the four values held
    /// in registers between the stages.
    ///
    /// # Safety
    /// Each `x[i] + k` must address `L::N` valid values.
    #[inline(always)]
    unsafe fn butterfly2<L: Lanes>(
        x: [*mut Complex64; 4],
        k: usize,
        wa: (L::V, L::V),
        wb0: (L::V, L::V),
        wb1: (L::V, L::V),
    ) {
        let [x0, x1, x2, x3] = x.map(|p| p.add(k));
        let t = L::mul(L::load(x1), wa.0, wa.1);
        let u = L::load(x0);
        let (y0, y1) = (L::add(u, t), L::sub(u, t));
        let t = L::mul(L::load(x3), wa.0, wa.1);
        let u = L::load(x2);
        let (y2, y3) = (L::add(u, t), L::sub(u, t));
        let t = L::mul(y2, wb0.0, wb0.1);
        L::store(x0, L::add(y0, t));
        L::store(x2, L::sub(y0, t));
        let t = L::mul(y3, wb1.0, wb1.1);
        L::store(x1, L::add(y1, t));
        L::store(x3, L::sub(y1, t));
    }

    /// `n` one-stage butterflies between the runs at `lo` and `hi`.
    ///
    /// # Safety
    /// `lo` and `hi` must address `n` valid values each, and a table twiddle
    /// `n` entries.
    #[inline(always)]
    unsafe fn run1<L: Lanes, W: Twiddle>(lo: *mut Complex64, hi: *mut Complex64, w: W, n: usize) {
        let mut k = 0;
        while k + L::N <= n {
            butterfly::<L>(lo, hi, k, w.get::<L>(k));
            k += L::N;
        }
        if k < n {
            butterfly::<L::Tail>(lo, hi, k, w.get::<L::Tail>(k));
        }
    }

    /// `n` two-stage butterflies between the four runs at `x`.
    ///
    /// # Safety
    /// Every `x[i]` must address `n` valid values, and every table twiddle
    /// `n` entries.
    #[inline(always)]
    unsafe fn run2<L: Lanes, W: Twiddle>(x: [*mut Complex64; 4], wa: W, wb0: W, wb1: W, n: usize) {
        let mut k = 0;
        while k + L::N <= n {
            butterfly2::<L>(x, k, wa.get::<L>(k), wb0.get::<L>(k), wb1.get::<L>(k));
            k += L::N;
        }
        if k < n {
            butterfly2::<L::Tail>(
                x,
                k,
                wa.get::<L::Tail>(k),
                wb0.get::<L::Tail>(k),
                wb1.get::<L::Tail>(k),
            );
        }
    }

    // The sweeps of the parent module, once over `Lanes`. Each relies on what
    // its dispatcher established: the CPU supports `L`; for the row pass the
    // field, source and factor lengths, the bit-reversal tables' ranges and
    // the stage table lengths; for the two-stage column sweep
    // `wb.len() == 2 * wa.len()`. All other indexing stays inside a
    // `chunks_exact_mut` block or a slice's own length.

    #[inline(always)]
    unsafe fn rows<L: Lanes>(
        data: &mut [Complex64],
        source: Option<Source<'_>>,
        pass: &RowPass<'_>,
    ) {
        let Some(Source { values, factor }) = source else {
            return rows_in_place::<L>(data, pass);
        };
        match factor {
            None => rows_from::<L, ONE>(data, values, core::ptr::null(), pass),
            Some(Factor::Mul(f)) => rows_from::<L, MUL>(data, values, f.as_ptr(), pass),
            Some(Factor::MulConj(f)) => rows_from::<L, CONJ>(data, values, f.as_ptr(), pass),
        }
    }

    /// The row pairs `(i, order[i])` of a row pass, each visited once.
    fn row_pairs(order: &[u32]) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..order.len())
            .map(|i| (i, order[i] as usize))
            .filter(|&(i, j)| i <= j)
    }

    /// The first radix-2² sweep's twiddles, for rows long enough to have one.
    #[inline(always)]
    unsafe fn quad_twiddles<L: Lanes>(pass: &RowPass<'_>) -> Option<L::Quad> {
        (pass.within.len() >= 4).then(|| L::quad_twiddles(&pass.stages[0], &pass.stages[1]))
    }

    #[inline(always)]
    unsafe fn rows_from<L: Lanes, const K: u8>(
        data: &mut [Complex64],
        source: &[Complex64],
        factor: *const Complex64,
        pass: &RowPass<'_>,
    ) {
        let n = pass.within.len();
        let quad = quad_twiddles::<L>(pass);
        let (row, src) = (data.as_mut_ptr(), source.as_ptr());
        for (i, j) in row_pairs(pass.order) {
            let (at_i, at_j) = (i * n, j * n);
            row_from::<L, K>(
                row.add(at_j),
                src.add(at_i),
                factor.wrapping_add(at_i),
                quad,
                pass,
            );
            if i != j {
                row_from::<L, K>(
                    row.add(at_i),
                    src.add(at_j),
                    factor.wrapping_add(at_j),
                    quad,
                    pass,
                );
            }
        }
    }

    #[inline(always)]
    unsafe fn rows_in_place<L: Lanes>(data: &mut [Complex64], pass: &RowPass<'_>) {
        let n = pass.within.len();
        let quad = quad_twiddles::<L>(pass);
        let row = data.as_mut_ptr();
        for (i, j) in row_pairs(pass.order) {
            let (row_i, row_j) = (row.add(i * n), row.add(j * n));
            row_in_place::<L>(row_i, quad, pass);
            if i != j {
                row_in_place::<L>(row_j, quad, pass);
                core::ptr::swap_nonoverlapping(row_i, row_j, n);
            }
        }
    }

    /// One row from a distinct source: the gather, times the factor, fused
    /// into the first radix-2² sweep, then the remaining stages and the
    /// scale.
    #[inline(always)]
    unsafe fn row_from<L: Lanes, const K: u8>(
        row: *mut Complex64,
        src: *const Complex64,
        factor: *const Complex64,
        quad: Option<L::Quad>,
        pass: &RowPass<'_>,
    ) {
        let rev = pass.within;
        match quad {
            Some(tw) => {
                for (b, r) in rev.chunks_exact(4).enumerate() {
                    let idx = [r[0], r[1], r[2], r[3]].map(|r| r as usize);
                    L::quad::<K>(src, factor, idx, tw, row.add(4 * b));
                }
                stages::<L>(row, &pass.stages[2..], pass);
            }
            None => {
                for (k, &r) in rev.iter().enumerate() {
                    let x = load_times::<L::Tail, K>(src, factor, r as usize);
                    <L::Tail as Lanes>::store(row.add(k), x);
                }
                stages::<L>(row, pass.stages, pass);
            }
        }
    }

    /// One row in place: permuted in place, then every stage and the scale.
    #[inline(always)]
    unsafe fn row_in_place<L: Lanes>(
        row: *mut Complex64,
        quad: Option<L::Quad>,
        pass: &RowPass<'_>,
    ) {
        for (k, &r) in pass.within.iter().enumerate() {
            let r = r as usize;
            if k < r {
                core::ptr::swap_nonoverlapping(row.add(k), row.add(r), 1);
            }
        }
        match quad {
            Some(tw) => {
                let null = core::ptr::null();
                for k in (0..pass.within.len()).step_by(4) {
                    L::quad::<ONE>(row, null, [k, k + 1, k + 2, k + 3], tw, row.add(k));
                }
                stages::<L>(row, &pass.stages[2..], pass);
            }
            None => stages::<L>(row, pass.stages, pass),
        }
    }

    /// The given stages over a row in bit-reversed order, two per sweep and
    /// an odd last one alone, then the scale.
    #[inline(always)]
    unsafe fn stages<L: Lanes>(row: *mut Complex64, stages: &[Stage], pass: &RowPass<'_>) {
        let n = pass.within.len();
        let mut pairs = stages.chunks_exact(2);
        for pair in &mut pairs {
            let (wa, wb) = (&pair[0], &pair[1]);
            let h = wa.len();
            for start in (0..n).step_by(4 * h) {
                let x0 = row.add(start);
                let x = [x0, x0.add(h), x0.add(2 * h), x0.add(3 * h)];
                run2::<L, _>(x, Table::of(wa, 0), Table::of(wb, 0), Table::of(wb, h), h);
            }
        }
        if let [last] = pairs.remainder() {
            run1::<L, _>(row, row.add(n / 2), Table::of(last, 0), n / 2);
        }
        if pass.scale != 1.0 {
            let mut k = 0;
            while k + L::N <= n {
                L::store(row.add(k), L::scale(L::load(row.add(k)), pass.scale));
                k += L::N;
            }
            if k < n {
                let x = <L::Tail as Lanes>::load(row.add(k));
                <L::Tail as Lanes>::store(row.add(k), <L::Tail as Lanes>::scale(x, pass.scale));
            }
        }
    }

    #[inline(always)]
    unsafe fn column<L: Lanes>(data: &mut [Complex64], cols: usize, stage: &Stage) {
        let h = stage.len();
        for block in data.chunks_exact_mut(2 * h * cols) {
            let lo = block.as_mut_ptr();
            let hi = lo.add(h * cols);
            for (k, w) in stage.w.iter().enumerate() {
                run1::<L, _>(lo.add(k * cols), hi.add(k * cols), *w, cols);
            }
        }
    }

    #[inline(always)]
    unsafe fn column2<L: Lanes>(data: &mut [Complex64], cols: usize, wa: &Stage, wb: &Stage) {
        let h = wa.len();
        for block in data.chunks_exact_mut(4 * h * cols) {
            let x0 = block.as_mut_ptr();
            for j in 0..h {
                let x = [0, 1, 2, 3].map(|q| x0.add((q * h + j) * cols));
                run2::<L, _>(x, wa.w[j], wb.w[j], wb.w[j + h], cols);
            }
        }
    }

    /// Instantiates a sweep for both tiers inside `#[target_feature]`
    /// functions, so the intrinsics inline.
    macro_rules! per_tier {
        ($sse2:ident, $avx2:ident, $sweep:ident($($arg:ident: $ty:ty),*)) => {
            /// # Safety
            /// See the note above the generic sweeps.
            #[target_feature(enable = "sse2")]
            pub(super) unsafe fn $sse2($($arg: $ty),*) {
                $sweep::<Sse2>($($arg),*)
            }

            /// # Safety
            /// See the note above the generic sweeps; the caller must have
            /// confirmed `avx2` at runtime.
            #[target_feature(enable = "avx2")]
            pub(super) unsafe fn $avx2($($arg: $ty),*) {
                $sweep::<Avx2>($($arg),*)
            }
        };
    }

    per_tier!(sse2_rows, avx2_rows, rows(data: &mut [Complex64], source: Option<Source<'_>>, pass: &RowPass<'_>));
    per_tier!(sse2_column, avx2_column, column(data: &mut [Complex64], cols: usize, stage: &Stage));
    per_tier!(sse2_column2, avx2_column2, column2(data: &mut [Complex64], cols: usize, wa: &Stage, wb: &Stage));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft1d::bit_reversal;

    fn test_data(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|i| Complex64::new((i as f64 * 0.61).sin(), (i as f64 * 0.37).cos()))
            .collect()
    }

    fn bits(values: &[Complex64]) -> Vec<(u64, u64)> {
        values
            .iter()
            .map(|v| (v.re.to_bits(), v.im.to_bits()))
            .collect()
    }

    #[test]
    fn scalar_is_always_available() {
        assert!(SimdLevel::Scalar.is_available());
        assert_eq!(SimdLevel::available_levels()[0], SimdLevel::Scalar);
        assert!(SimdLevel::detect().is_available());
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(SimdLevel::Scalar.label(), "scalar");
        assert_eq!(SimdLevel::Sse2.label(), "sse2");
        assert_eq!(SimdLevel::Avx2.label(), "avx2");
    }

    /// Tier-1 must never silently run the scalar loops on the platform the
    /// vector tiers exist for.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn x86_64_detects_at_least_sse2() {
        assert!(SimdLevel::detect() >= SimdLevel::Sse2);
    }

    #[test]
    fn every_tier_sweeps_bit_identical_to_scalar() {
        // The column sweeps at every tier against the scalar loops, on tables
        // that are not twiddles. Half-sizes 1 and 3 and the odd column counts
        // leave AVX2 a one-value tail on every run; `cols == 1` is all tail.
        type Sweep = fn(SimdLevel, &mut [Complex64], &Stage, &Stage, usize);
        let sweeps: [(&str, Sweep); 2] = [
            ("column", |level, data, wa, _, cols| {
                column_pass(level, data, cols, wa)
            }),
            ("column2", |level, data, wa, wb, cols| {
                column_pass2(level, data, cols, wa, wb)
            }),
        ];
        for level in SimdLevel::available_levels() {
            for h in [1usize, 2, 3, 4, 8, 32] {
                for cols in [1usize, 2, 3, 5, 8] {
                    let wa = Stage::new(test_data(h));
                    let wb = Stage::new(test_data(3 * h).split_off(h));
                    for (name, sweep) in &sweeps {
                        let mut scalar = test_data(2 * 4 * h * cols);
                        let mut tier = scalar.clone();
                        sweep(SimdLevel::Scalar, &mut scalar, &wa, &wb, cols);
                        sweep(level, &mut tier, &wa, &wb, cols);
                        assert_eq!(
                            bits(&scalar),
                            bits(&tier),
                            "{name} at {level:?}, h={h}, cols={cols}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn every_tier_row_pass_bit_identical_to_scalar() {
        // Every combination the row pass is instantiated for — in place, or
        // from a source with no factor / `x·f` / `x·conj(f)`; scaled or not
        // — on tables that are not twiddles, so a butterfly fed the wrong
        // entry cannot cancel. Rows of 1 and 2 values never reach the
        // radix-2² sweep; 4, 16 and 64 end on a two-stage sweep, 8 and 32 on
        // a one-stage one.
        for level in SimdLevel::available_levels() {
            for n in [1usize, 2, 4, 8, 16, 32, 64] {
                for rows in [1usize, 2, 4] {
                    let stages: Vec<Stage> = (0..n.trailing_zeros())
                        .map(|s| Stage::new(test_data(3 << s).split_off(2 << s)))
                        .collect();
                    let (within, order) = (bit_reversal(n), bit_reversal(rows));
                    let input = test_data(rows * n);
                    let f = test_data(rows * n + 5).split_off(5);
                    let from = |factor| {
                        Some(Source {
                            values: &input,
                            factor,
                        })
                    };
                    let sources = [
                        None,
                        from(None),
                        from(Some(Factor::Mul(&f))),
                        from(Some(Factor::MulConj(&f))),
                    ];
                    for (source, scale) in sources
                        .into_iter()
                        .flat_map(|s| [1.0, 0.125].map(|scale| (s, scale)))
                    {
                        let pass = RowPass {
                            within: &within,
                            order: &order,
                            stages: &stages,
                            scale,
                        };
                        let run = |level| {
                            let mut data = match source {
                                Some(_) => vec![Complex64::new(f64::NAN, 7.0); rows * n],
                                None => input.clone(),
                            };
                            row_pass(level, &mut data, source, &pass);
                            bits(&data)
                        };
                        assert_eq!(
                            run(SimdLevel::Scalar),
                            run(level),
                            "{rows}x{n} at {level:?}, source={:?}, scale={scale}",
                            source.map(|s| s.factor)
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "row pass factor length")]
    fn short_factor_panics() {
        let within = bit_reversal(4);
        let stages: Vec<Stage> = (0..2).map(|s| Stage::new(test_data(1 << s))).collect();
        let pass = RowPass {
            within: &within,
            order: &[0],
            stages: &stages,
            scale: 1.0,
        };
        let (source, f) = (test_data(4), test_data(3));
        let source = Source {
            values: &source,
            factor: Some(Factor::Mul(&f)),
        };
        row_pass(SimdLevel::detect(), &mut test_data(4), Some(source), &pass);
    }
}
