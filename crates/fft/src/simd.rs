//! The radix-2 butterfly sweeps, at every dispatch tier and both precisions.
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
//! # Dispatch tiers and precisions
//!
//! A plan resolves its tier once, at construction, to the widest one the CPU
//! offers ([`SimdLevel::detect`]); there is no cargo feature and no switch.
//! Every sweep is written once — the portable loops generic over
//! [`Real`], the vector ones over a lane type — and
//! instantiated at both `f64` and `f32`:
//!
//! | tier                  | `f64` lanes              | `f32` lanes              |
//! |-----------------------|--------------------------|--------------------------|
//! | [`SimdLevel::Scalar`] | one value                | one value                |
//! | [`SimdLevel::Sse2`]   | 1 complex per `__m128d`  | 2 complex per `__m128`   |
//! | [`SimdLevel::Avx2`]   | 2 complex per `__m256d`  | 4 complex per `__m256`   |
//!
//! * `Scalar` is the portable tier: the only one on non-x86_64 targets, and
//!   on x86_64 the oracle the other two are pinned against
//!   (`with_simd_level(Scalar)`).
//! * `Sse2` is part of the x86_64 baseline, so it needs no runtime check.
//! * `Avx2` is selected when `is_x86_feature_detected!("avx2")` holds.
//!
//! A run whose length the lane count does not divide (odd run lengths,
//! single-column fields) is finished one complex value at a time by the
//! tier's one-value lane: the SSE2 `f64` lane, or the low half of an
//! `__m128` for `f32`. The first radix-2² sweep of a row holds the four
//! values of a block as the lane pairs `[x0, x2]` / `[x1, x3]` (two
//! `__m256d` for AVX2 `f64`, two `__m128` for `f32` at both vector tiers),
//! so its first stage is one vector butterfly as well.
//!
//! # One arithmetic
//!
//! Every tier computes every butterfly as the *same* IEEE 754 operations in
//! the same order as the scalar `Mul` / `Add` / `Sub` impls, at the
//! precision of the data: the product `b·w` is two multiplies and one
//! add/subtract per component (`mul` ×2 + `addsub` on AVX2 — `_pd` or
//! `_ps`; SSE2 has no `addsub` and adds the sign-flipped product, which IEEE
//! defines as the same operation), then `a' = a + t`, `b' = a − t`. No
//! accumulation is reordered and nothing is fused, so which tier, which lane
//! and which partition of a run computed a value cannot be seen in its bits:
//! at each precision all tiers are **bit-identical**, pinned by `to_bits`
//! tests at every level of the stack (sweeps, 1-D / 2-D plans, the
//! multi-slice gradient, whole solves). The dispatch tier is therefore not
//! part of a result's identity — goldens, traces and checkpoints are the
//! same on every host.
//!
//! FMA is deliberately not used, at either precision. `vfmaddsub231pd` /
//! `vfmaddsub231ps` would fuse the second multiply with the add/subtract and
//! drop one rounding per component, which makes results ULP-close to scalar
//! instead of equal — every golden then needs a column per tier and a
//! checkpoint cannot resume bit-identically on a host of another tier. In
//! `f32` a dropped rounding is 2²⁹ times coarser than in `f64`, so the gap
//! between tiers would be plainly visible in every reconstruction. Measured
//! at commit 9bce48f in `f64`, with one radix-2 stage per sweep and a
//! transposed column pass, on one AVX2 box (pinned CPU, best of 2000, one
//! dense 128² forward transform / `iter_s_p50` of `perf_bench`'s
//! `gd-compute-1r` in calibrated seconds, alternating runs), and not
//! re-measured over the sweeps above:
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
// (`Complex<T>` is `#[repr(C)]`, so a `&[Complex<T>]` is exactly a dense
// `re, im` sequence of `T`).
#![cfg_attr(target_arch = "x86_64", allow(unsafe_code))]

use crate::complex::{Complex, Real};
use crate::fft2d::Factor;

/// The instruction-set tier a plan's butterfly kernels run at.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// Portable scalar loop (always available; bit-identity reference).
    Scalar,
    /// SSE2 kernels: one `f64` or two `f32` complex values per vector
    /// (every x86_64).
    Sse2,
    /// AVX2 kernels: two `f64` or four `f32` complex values per vector
    /// (x86_64, runtime-detected).
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

// The tables and entry points the sweeps are instantiated over. They are
// nominally public inside a private module, so `Sweeps` can be a supertrait
// of the public `Real` without any of it being nameable outside the crate.
mod kernel {
    use super::SimdLevel;
    use crate::complex::{Complex, Real};
    use crate::fft2d::Factor;

    /// One butterfly stage's twiddles `w[k]`, and the same values with their
    /// parts swapped, `[w.im, w.re]`. The vector tiers' products read both,
    /// so they do no twiddle permute; the swap is exact, so the split moves
    /// no bit.
    #[derive(Clone, Debug)]
    pub struct Stage<R: Real> {
        pub(crate) w: Vec<Complex<R>>,
        pub(crate) swapped: Vec<Complex<R>>,
    }

    /// The tables a row pass runs with (see the module docs).
    #[derive(Clone, Copy, Debug)]
    pub struct RowPass<'a, R: Real> {
        /// The bit reversal within a row; its length is the row length.
        pub within: &'a [u32],
        /// The column transform's bit reversal: input row `i` is written to
        /// row `order[i]`. Its length is the row count.
        pub order: &'a [u32],
        /// The row transform's stage tables, stage `s` holding `2^s` entries.
        pub stages: &'a [Stage<R>],
        /// What every output value is multiplied by (`1`: nothing).
        pub scale: R,
    }

    /// A distinct field a row pass reads its input from, each value times
    /// the factor, if any, as it is loaded.
    #[derive(Clone, Copy, Debug)]
    pub struct Source<'a, R: Real> {
        /// The input values, row-major like the field written.
        pub values: &'a [Complex<R>],
        /// What each value is multiplied by as it is loaded.
        pub factor: Option<Factor<'a, R>>,
    }

    /// The sweeps of one precision, dispatched to a tier. Implemented for
    /// `f32` and `f64` only; the checked entry points are `row_pass`,
    /// `column_pass` and `column_pass2` of the parent module.
    pub trait Sweeps: Sized {
        /// The row pass, once its dispatcher checked every length relation.
        fn rows(
            level: SimdLevel,
            data: &mut [Complex<Self>],
            source: Option<Source<'_, Self>>,
            pass: &RowPass<'_, Self>,
        ) where
            Self: Real;
        /// One stage down the columns.
        fn column(level: SimdLevel, data: &mut [Complex<Self>], cols: usize, stage: &Stage<Self>)
        where
            Self: Real;
        /// Two stages down the columns, `wb` twice as long as `wa`.
        fn column2(
            level: SimdLevel,
            data: &mut [Complex<Self>],
            cols: usize,
            wa: &Stage<Self>,
            wb: &Stage<Self>,
        ) where
            Self: Real;
    }
}

pub(crate) use kernel::{RowPass, Source, Stage, Sweeps};

/// Calls the kernel of the given tier, instantiated at `$real`, with the
/// given arguments.
macro_rules! dispatch {
    ($level:expr, $real:ty, $scalar:ident, $sse2:ident, $avx2:ident, ($($arg:expr),*)) => {
        match $level {
            // SAFETY: the caller established the kernel's length relations;
            // SSE2 is part of the x86_64 baseline.
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Sse2 => unsafe { x86::$sse2::<$real>($($arg),*) },
            // SAFETY: as above; a plan only holds `Avx2` after `is_available`
            // confirmed `avx2` at runtime.
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2 => unsafe { x86::$avx2::<$real>($($arg),*) },
            _ => $scalar::<$real>($($arg),*),
        }
    };
}

macro_rules! sweeps {
    ($($real:ty),*) => {$(
        impl Sweeps for $real {
            fn rows(
                level: SimdLevel,
                data: &mut [Complex<$real>],
                source: Option<Source<'_, $real>>,
                pass: &RowPass<'_, $real>,
            ) {
                dispatch!(level, $real, scalar_rows, sse2_rows, avx2_rows, (data, source, pass))
            }

            fn column(
                level: SimdLevel,
                data: &mut [Complex<$real>],
                cols: usize,
                stage: &Stage<$real>,
            ) {
                dispatch!(level, $real, scalar_column, sse2_column, avx2_column, (data, cols, stage))
            }

            fn column2(
                level: SimdLevel,
                data: &mut [Complex<$real>],
                cols: usize,
                wa: &Stage<$real>,
                wb: &Stage<$real>,
            ) {
                dispatch!(
                    level,
                    $real,
                    scalar_column2,
                    sse2_column2,
                    avx2_column2,
                    (data, cols, wa, wb)
                )
            }
        }
    )*};
}

sweeps!(f32, f64);

// The sweeps. A stage table belongs to a plan: the stage of half-size `h`
// (blocks of `2h`) has `h` entries, so stage `s` of a length-`n` transform
// has `2^s`. The dispatchers check every relation a kernel indexes by without
// a slice's own bounds behind it.

impl<R: Real> Stage<R> {
    pub(crate) fn new(w: Vec<Complex<R>>) -> Self {
        let swapped = w.iter().map(|w| Complex::new(w.im, w.re)).collect();
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

/// The row pass over the row-major field `data`: input row `i` — of `source`
/// (times its factor), or of `data` itself when `None` — is transformed,
/// multiplied by `pass.scale` and written to row `pass.order[i]`.
///
/// # Panics
/// Panics if `data` is not `order.len()` rows of `within.len()` values, the
/// source or its factor is not as long as `data`, a bit-reversal table holds
/// an index outside its own length, or the stage tables do not fit the row.
pub(crate) fn row_pass<R: Real>(
    level: SimdLevel,
    data: &mut [Complex<R>],
    source: Option<Source<'_, R>>,
    pass: &RowPass<'_, R>,
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
    R::rows(level, data, source, pass)
}

/// One stage down the columns of a row-major field of row length `cols`: every
/// `2h`-block of rows pairs row `k` with row `k + h` under the broadcast
/// twiddle `stage[k]`.
pub(crate) fn column_pass<R: Real>(
    level: SimdLevel,
    data: &mut [Complex<R>],
    cols: usize,
    stage: &Stage<R>,
) {
    R::column(level, data, cols, stage)
}

/// Two stages down the columns, over every `4h`-block of rows: the stage `wa`
/// (`h` entries), then the stage `wb` (`2h` entries).
///
/// # Panics
/// Panics if `wb` is not twice as long as `wa`.
pub(crate) fn column_pass2<R: Real>(
    level: SimdLevel,
    data: &mut [Complex<R>],
    cols: usize,
    wa: &Stage<R>,
    wb: &Stage<R>,
) {
    assert_eq!(wb.len(), 2 * wa.len(), "second-stage twiddle table");
    R::column2(level, data, cols, wa, wb)
}

// The portable sweeps. The butterfly is the exact operation sequence
// `t = b·w; a' = a + t; b' = a − t`, and a loaded value is `x · f` or
// `x · conj(f)` exactly as a separate multiply computes it — the bit-identity
// reference for every other tier.

fn scalar_rows<R: Real>(
    data: &mut [Complex<R>],
    source: Option<Source<'_, R>>,
    pass: &RowPass<'_, R>,
) {
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
fn load<R: Real>(values: &[Complex<R>], factor: Option<Factor<'_, R>>, i: usize) -> Complex<R> {
    match factor {
        None => values[i],
        Some(Factor::Mul(f)) => values[i] * f[i],
        Some(Factor::MulConj(f)) => values[i] * f[i].conj(),
    }
}

fn scalar_row_from<R: Real>(
    row: &mut [Complex<R>],
    (source, factor): (&[Complex<R>], Option<Factor<'_, R>>),
    pass: &RowPass<'_, R>,
) {
    for (x, &r) in row.iter_mut().zip(pass.within) {
        *x = load(source, factor, r as usize);
    }
    scalar_stages(row, pass);
}

fn scalar_row_in_place<R: Real>(row: &mut [Complex<R>], pass: &RowPass<'_, R>) {
    for (k, &r) in pass.within.iter().enumerate() {
        if k < r as usize {
            row.swap(k, r as usize);
        }
    }
    scalar_stages(row, pass);
}

/// Every stage of the row transform over a permuted row, then the scale.
fn scalar_stages<R: Real>(row: &mut [Complex<R>], pass: &RowPass<'_, R>) {
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
    if pass.scale != R::ONE {
        for x in row.iter_mut() {
            *x = x.scale(pass.scale);
        }
    }
}

fn scalar_pass2<R: Real>(data: &mut [Complex<R>], wa: &[Complex<R>], wb: &[Complex<R>]) {
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

fn scalar_column<R: Real>(data: &mut [Complex<R>], cols: usize, stage: &Stage<R>) {
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

fn scalar_column2<R: Real>(data: &mut [Complex<R>], cols: usize, wa: &Stage<R>, wb: &Stage<R>) {
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
fn quarters<T>(block: &mut [T], len: usize) -> [&mut [T]; 4] {
    let (lo, hi) = block.split_at_mut(2 * len);
    let (x0, x1) = lo.split_at_mut(len);
    let (x2, x3) = hi.split_at_mut(len);
    [x0, x1, x2, x3]
}

#[inline(always)]
fn butterfly<R: Real>(a: &mut Complex<R>, b: &mut Complex<R>, w: Complex<R>) {
    let t = *b * w;
    let u = *a;
    *a = u + t;
    *b = u - t;
}

/// The stage-`h` butterflies `(x0, x1)`, `(x2, x3)` under `wa`, then the
/// stage-`2h` butterflies `(x0, x2)` under `wb0` and `(x1, x3)` under `wb1`.
#[inline(always)]
fn butterfly2<R: Real>(
    x0: &mut Complex<R>,
    x1: &mut Complex<R>,
    x2: &mut Complex<R>,
    x3: &mut Complex<R>,
    wa: Complex<R>,
    wb0: Complex<R>,
    wb1: Complex<R>,
) {
    butterfly(x0, x1, wa);
    butterfly(x2, x3, wa);
    butterfly(x0, x2, wb0);
    butterfly(x1, x3, wb1);
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{RowPass, Source, Stage};
    use crate::complex::{Complex, Real};
    use crate::fft2d::Factor;
    use core::arch::x86_64::*;

    /// A vector of `N` complex values of precision `R` and the butterfly
    /// arithmetic on it. The sweeps below are written once over this trait
    /// and instantiated per tier and precision inside a `#[target_feature]`
    /// function, so the intrinsics inline.
    ///
    /// # Safety
    /// Every method requires the CPU features of the implementing tier, and
    /// `load` / `store` require `N` valid complex values behind the pointer.
    pub(super) trait Lanes {
        type R: Real;
        /// Complex values per vector: 1, 2 or 4.
        const N: usize;
        type V: Copy;
        /// The one-value lane that finishes, value by value, a run whose
        /// length `N` does not divide.
        type One: Lanes<R = Self::R>;
        /// The first radix-2² sweep's twiddles, held in registers.
        type Quad: Copy;
        unsafe fn load(p: *const Complex<Self::R>) -> Self::V;
        unsafe fn store(p: *mut Complex<Self::R>, v: Self::V);
        unsafe fn splat(w: Complex<Self::R>) -> Self::V;
        /// `[w.im, w.re]` of every value (exact).
        unsafe fn swap(w: Self::V) -> Self::V;
        /// `conj(w)` of every value: the imaginary sign flipped (exact).
        unsafe fn conj(w: Self::V) -> Self::V;
        /// The complex products `b·w`, lane by lane, given `w` and
        /// `swap(w)`.
        unsafe fn mul(b: Self::V, w: Self::V, w_swapped: Self::V) -> Self::V;
        unsafe fn add(a: Self::V, b: Self::V) -> Self::V;
        unsafe fn sub(a: Self::V, b: Self::V) -> Self::V;
        /// Every part times the real `s`, as `Complex::scale`.
        unsafe fn scale(v: Self::V, s: Self::R) -> Self::V;
        /// Loads the first two stages' twiddles (one, then two entries).
        unsafe fn quad_twiddles(wa: &Stage<Self::R>, wb: &Stage<Self::R>) -> Self::Quad;
        /// `super::butterfly2` on the values at `idx` of `src`, each times
        /// its factor as kind `K` asks, under the first two stages'
        /// twiddles; the block is stored at `out[0..4]`. Every value is
        /// loaded before any is stored, so `out` may be the block read.
        unsafe fn quad<const K: u8>(
            src: *const Complex<Self::R>,
            factor: *const Complex<Self::R>,
            idx: [usize; 4],
            tw: Self::Quad,
            out: *mut Complex<Self::R>,
        );
    }

    /// The lane types of each tier at one precision.
    pub(super) trait Tiers: Real {
        type Sse2: Lanes<R = Self>;
        type Avx2: Lanes<R = Self>;
    }

    impl Tiers for f64 {
        type Sse2 = Sse2F64;
        type Avx2 = Avx2F64;
    }

    impl Tiers for f32 {
        type Sse2 = Sse2F32;
        type Avx2 = Avx2F32;
    }

    /// One `Complex<f64>` per `__m128d`.
    pub(super) struct Sse2F64;
    /// Two `Complex<f64>` per `__m256d`.
    pub(super) struct Avx2F64;
    /// Two `Complex<f32>` per `__m128`.
    pub(super) struct Sse2F32;
    /// Four `Complex<f32>` per `__m256`.
    pub(super) struct Avx2F32;
    /// One `Complex<f32>` in the low half of an `__m128` (SSE2): the
    /// one-value lane of both `f32` tiers.
    pub(super) struct OneF32;

    impl Lanes for Sse2F64 {
        type R = f64;
        const N: usize = 1;
        type V = __m128d;
        type One = Sse2F64;
        type Quad = [(__m128d, __m128d); 3];
        #[inline(always)]
        unsafe fn load(p: *const Complex<f64>) -> __m128d {
            _mm_loadu_pd(p as *const f64)
        }
        #[inline(always)]
        unsafe fn store(p: *mut Complex<f64>, v: __m128d) {
            _mm_storeu_pd(p as *mut f64, v)
        }
        #[inline(always)]
        unsafe fn splat(w: Complex<f64>) -> __m128d {
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
        unsafe fn quad_twiddles(wa: &Stage<f64>, wb: &Stage<f64>) -> Self::Quad {
            [
                (Self::splat(wa.w[0]), Self::splat(wa.swapped[0])),
                (Self::splat(wb.w[0]), Self::splat(wb.swapped[0])),
                (Self::splat(wb.w[1]), Self::splat(wb.swapped[1])),
            ]
        }
        #[inline(always)]
        unsafe fn quad<const K: u8>(
            src: *const Complex<f64>,
            factor: *const Complex<f64>,
            idx: [usize; 4],
            [wa, wb0, wb1]: Self::Quad,
            out: *mut Complex<f64>,
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

    impl Lanes for Avx2F64 {
        type R = f64;
        const N: usize = 2;
        type V = __m256d;
        type One = Sse2F64;
        type Quad = [(__m256d, __m256d); 2];
        #[inline(always)]
        unsafe fn load(p: *const Complex<f64>) -> __m256d {
            _mm256_loadu_pd(p as *const f64)
        }
        #[inline(always)]
        unsafe fn store(p: *mut Complex<f64>, v: __m256d) {
            _mm256_storeu_pd(p as *mut f64, v)
        }
        #[inline(always)]
        unsafe fn splat(w: Complex<f64>) -> __m256d {
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
        /// [`Sse2F64::mul`] on two values: both products rounded, then
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
        unsafe fn quad_twiddles(wa: &Stage<f64>, wb: &Stage<f64>) -> Self::Quad {
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
            src: *const Complex<f64>,
            factor: *const Complex<f64>,
            idx: [usize; 4],
            [wa, wb]: Self::Quad,
            out: *mut Complex<f64>,
        ) {
            let (mut a, mut b) = (pair_f64(src, idx[0], idx[2]), pair_f64(src, idx[1], idx[3]));
            if K != ONE {
                a = times::<Self, K>(a, pair_f64(factor, idx[0], idx[2]));
                b = times::<Self, K>(b, pair_f64(factor, idx[1], idx[3]));
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

    impl Lanes for Sse2F32 {
        type R = f32;
        const N: usize = 2;
        type V = __m128;
        type One = OneF32;
        type Quad = [(__m128, __m128); 2];
        #[inline(always)]
        unsafe fn load(p: *const Complex<f32>) -> __m128 {
            _mm_loadu_ps(p as *const f32)
        }
        #[inline(always)]
        unsafe fn store(p: *mut Complex<f32>, v: __m128) {
            _mm_storeu_ps(p as *mut f32, v)
        }
        #[inline(always)]
        unsafe fn splat(w: Complex<f32>) -> __m128 {
            _mm_set_ps(w.im, w.re, w.im, w.re)
        }
        #[inline(always)]
        unsafe fn swap(w: __m128) -> __m128 {
            _mm_shuffle_ps::<0b10_11_00_01>(w, w)
        }
        #[inline(always)]
        unsafe fn conj(w: __m128) -> __m128 {
            _mm_xor_ps(w, _mm_set_ps(-0.0, 0.0, -0.0, 0.0))
        }
        /// [`Sse2F64::mul`] on two `f32` values: the same two multiplies
        /// and one add of the sign-flipped product per lane.
        #[inline(always)]
        unsafe fn mul(b: __m128, w: __m128, w_swapped: __m128) -> __m128 {
            let bre = _mm_shuffle_ps::<0b10_10_00_00>(b, b); // [b0.re, b0.re, b1.re, b1.re]
            let bim = _mm_shuffle_ps::<0b11_11_01_01>(b, b); // [b0.im, b0.im, b1.im, b1.im]
            let prod_im = _mm_xor_ps(_mm_mul_ps(bim, w_swapped), _mm_set_ps(0.0, -0.0, 0.0, -0.0));
            _mm_add_ps(_mm_mul_ps(bre, w), prod_im)
        }
        #[inline(always)]
        unsafe fn add(a: __m128, b: __m128) -> __m128 {
            _mm_add_ps(a, b)
        }
        #[inline(always)]
        unsafe fn sub(a: __m128, b: __m128) -> __m128 {
            _mm_sub_ps(a, b)
        }
        #[inline(always)]
        unsafe fn scale(v: __m128, s: f32) -> __m128 {
            _mm_mul_ps(v, _mm_set1_ps(s))
        }
        /// `[wa, wa]` and the stage-2 table `[wb0, wb1]`, each with its swap.
        #[inline(always)]
        unsafe fn quad_twiddles(wa: &Stage<f32>, wb: &Stage<f32>) -> Self::Quad {
            [
                (Self::splat(wa.w[0]), Self::splat(wa.swapped[0])),
                (Self::load(wb.w.as_ptr()), Self::load(wb.swapped.as_ptr())),
            ]
        }
        /// [`Avx2F64::quad`] in an `__m128`: the lane pairs `[x0, x2]` /
        /// `[x1, x3]`, one vector butterfly, then a half swap pairs the
        /// outputs as `[y0, y1]` / `[y2, y3]`.
        #[inline(always)]
        unsafe fn quad<const K: u8>(
            src: *const Complex<f32>,
            factor: *const Complex<f32>,
            idx: [usize; 4],
            [wa, wb]: Self::Quad,
            out: *mut Complex<f32>,
        ) {
            let (mut a, mut b) = (pair_f32(src, idx[0], idx[2]), pair_f32(src, idx[1], idx[3]));
            if K != ONE {
                a = times::<Self, K>(a, pair_f32(factor, idx[0], idx[2]));
                b = times::<Self, K>(b, pair_f32(factor, idx[1], idx[3]));
            }
            let t = Self::mul(b, wa.0, wa.1);
            let (y02, y13) = (Self::add(a, t), Self::sub(a, t));
            let lo = _mm_movelh_ps(y02, y13); // [y0, y1]
            let hi = _mm_movehl_ps(y13, y02); // [y2, y3]
            let t = Self::mul(hi, wb.0, wb.1);
            Self::store(out, Self::add(lo, t));
            Self::store(out.add(2), Self::sub(lo, t));
        }
    }

    impl Lanes for Avx2F32 {
        type R = f32;
        const N: usize = 4;
        type V = __m256;
        type One = OneF32;
        type Quad = <Sse2F32 as Lanes>::Quad;
        #[inline(always)]
        unsafe fn load(p: *const Complex<f32>) -> __m256 {
            _mm256_loadu_ps(p as *const f32)
        }
        #[inline(always)]
        unsafe fn store(p: *mut Complex<f32>, v: __m256) {
            _mm256_storeu_ps(p as *mut f32, v)
        }
        #[inline(always)]
        unsafe fn splat(w: Complex<f32>) -> __m256 {
            _mm256_set_ps(w.im, w.re, w.im, w.re, w.im, w.re, w.im, w.re)
        }
        #[inline(always)]
        unsafe fn swap(w: __m256) -> __m256 {
            _mm256_permute_ps::<0b10_11_00_01>(w)
        }
        #[inline(always)]
        unsafe fn conj(w: __m256) -> __m256 {
            _mm256_xor_ps(w, _mm256_set_ps(-0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0))
        }
        /// [`Avx2F64::mul`] on four `f32` values: both products rounded,
        /// then `addsub`, never `vfmaddsub`.
        #[inline(always)]
        unsafe fn mul(b: __m256, w: __m256, w_swapped: __m256) -> __m256 {
            let bre = _mm256_moveldup_ps(b); // [b0.re, b0.re, b1.re, b1.re, …]
            let bim = _mm256_movehdup_ps(b); // [b0.im, b0.im, b1.im, b1.im, …]
            _mm256_addsub_ps(_mm256_mul_ps(bre, w), _mm256_mul_ps(bim, w_swapped))
        }
        #[inline(always)]
        unsafe fn add(a: __m256, b: __m256) -> __m256 {
            _mm256_add_ps(a, b)
        }
        #[inline(always)]
        unsafe fn sub(a: __m256, b: __m256) -> __m256 {
            _mm256_sub_ps(a, b)
        }
        #[inline(always)]
        unsafe fn scale(v: __m256, s: f32) -> __m256 {
            _mm256_mul_ps(v, _mm256_set1_ps(s))
        }
        /// A block of four is one `__m256`'s worth: the first sweep runs
        /// on the 128-bit lanes of [`Sse2F32::quad`].
        #[inline(always)]
        unsafe fn quad_twiddles(wa: &Stage<f32>, wb: &Stage<f32>) -> Self::Quad {
            Sse2F32::quad_twiddles(wa, wb)
        }
        #[inline(always)]
        unsafe fn quad<const K: u8>(
            src: *const Complex<f32>,
            factor: *const Complex<f32>,
            idx: [usize; 4],
            tw: Self::Quad,
            out: *mut Complex<f32>,
        ) {
            Sse2F32::quad::<K>(src, factor, idx, tw, out)
        }
    }

    /// [`Sse2F32`]'s arithmetic on the low two floats; the high two are
    /// zero on load and never stored.
    impl Lanes for OneF32 {
        type R = f32;
        const N: usize = 1;
        type V = __m128;
        type One = OneF32;
        type Quad = <Sse2F32 as Lanes>::Quad;
        #[inline(always)]
        unsafe fn load(p: *const Complex<f32>) -> __m128 {
            _mm_castsi128_ps(_mm_cvtsi64_si128((p as *const i64).read_unaligned()))
        }
        #[inline(always)]
        unsafe fn store(p: *mut Complex<f32>, v: __m128) {
            (p as *mut i64).write_unaligned(_mm_cvtsi128_si64(_mm_castps_si128(v)))
        }
        #[inline(always)]
        unsafe fn splat(w: Complex<f32>) -> __m128 {
            Sse2F32::splat(w)
        }
        #[inline(always)]
        unsafe fn swap(w: __m128) -> __m128 {
            Sse2F32::swap(w)
        }
        #[inline(always)]
        unsafe fn conj(w: __m128) -> __m128 {
            Sse2F32::conj(w)
        }
        #[inline(always)]
        unsafe fn mul(b: __m128, w: __m128, w_swapped: __m128) -> __m128 {
            Sse2F32::mul(b, w, w_swapped)
        }
        #[inline(always)]
        unsafe fn add(a: __m128, b: __m128) -> __m128 {
            Sse2F32::add(a, b)
        }
        #[inline(always)]
        unsafe fn sub(a: __m128, b: __m128) -> __m128 {
            Sse2F32::sub(a, b)
        }
        #[inline(always)]
        unsafe fn scale(v: __m128, s: f32) -> __m128 {
            Sse2F32::scale(v, s)
        }
        #[inline(always)]
        unsafe fn quad_twiddles(wa: &Stage<f32>, wb: &Stage<f32>) -> Self::Quad {
            Sse2F32::quad_twiddles(wa, wb)
        }
        #[inline(always)]
        unsafe fn quad<const K: u8>(
            src: *const Complex<f32>,
            factor: *const Complex<f32>,
            idx: [usize; 4],
            tw: Self::Quad,
            out: *mut Complex<f32>,
        ) {
            Sse2F32::quad::<K>(src, factor, idx, tw, out)
        }
    }

    /// The values at `lo` and `hi` of `p` as one `[p[lo], p[hi]]` vector.
    ///
    /// # Safety
    /// `p + lo` and `p + hi` must each address a valid value; AVX.
    #[inline(always)]
    unsafe fn pair_f64(p: *const Complex<f64>, lo: usize, hi: usize) -> __m256d {
        _mm256_set_m128d(Sse2F64::load(p.add(hi)), Sse2F64::load(p.add(lo)))
    }

    /// [`pair_f64`] for two `f32` values in an `__m128`.
    ///
    /// # Safety
    /// `p + lo` and `p + hi` must each address a valid value.
    #[inline(always)]
    unsafe fn pair_f32(p: *const Complex<f32>, lo: usize, hi: usize) -> __m128 {
        _mm_movelh_ps(OneF32::load(p.add(lo)), OneF32::load(p.add(hi)))
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
        src: *const Complex<L::R>,
        factor: *const Complex<L::R>,
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
    trait Twiddle<R>: Copy {
        /// `(w, swap(w))` for the butterflies at `k`.
        unsafe fn get<L: Lanes<R = R>>(self, k: usize) -> (L::V, L::V);
    }

    /// A stage table, read from one entry on.
    struct Table<R> {
        w: *const Complex<R>,
        swapped: *const Complex<R>,
    }

    impl<R> Clone for Table<R> {
        fn clone(&self) -> Self {
            *self
        }
    }

    impl<R> Copy for Table<R> {}

    impl<R: Real> Table<R> {
        fn of(stage: &Stage<R>, from: usize) -> Self {
            Self {
                w: stage.w[from..].as_ptr(),
                swapped: stage.swapped[from..].as_ptr(),
            }
        }
    }

    impl<R> Twiddle<R> for Table<R> {
        #[inline(always)]
        unsafe fn get<L: Lanes<R = R>>(self, k: usize) -> (L::V, L::V) {
            (L::load(self.w.add(k)), L::load(self.swapped.add(k)))
        }
    }

    impl<R: Real> Twiddle<R> for Complex<R> {
        #[inline(always)]
        unsafe fn get<L: Lanes<R = R>>(self, _k: usize) -> (L::V, L::V) {
            (L::splat(self), L::splat(Complex::new(self.im, self.re)))
        }
    }

    /// # Safety
    /// `a + k` and `b + k` must address `L::N` valid values.
    #[inline(always)]
    unsafe fn butterfly<L: Lanes>(
        a: *mut Complex<L::R>,
        b: *mut Complex<L::R>,
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
        x: [*mut Complex<L::R>; 4],
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
    unsafe fn run1<L: Lanes, W: Twiddle<L::R>>(
        lo: *mut Complex<L::R>,
        hi: *mut Complex<L::R>,
        w: W,
        n: usize,
    ) {
        let mut k = 0;
        while k + L::N <= n {
            butterfly::<L>(lo, hi, k, w.get::<L>(k));
            k += L::N;
        }
        while k < n {
            butterfly::<L::One>(lo, hi, k, w.get::<L::One>(k));
            k += 1;
        }
    }

    /// `n` two-stage butterflies between the four runs at `x`.
    ///
    /// # Safety
    /// Every `x[i]` must address `n` valid values, and every table twiddle
    /// `n` entries.
    #[inline(always)]
    unsafe fn run2<L: Lanes, W: Twiddle<L::R>>(
        x: [*mut Complex<L::R>; 4],
        wa: W,
        wb0: W,
        wb1: W,
        n: usize,
    ) {
        let mut k = 0;
        while k + L::N <= n {
            butterfly2::<L>(x, k, wa.get::<L>(k), wb0.get::<L>(k), wb1.get::<L>(k));
            k += L::N;
        }
        while k < n {
            butterfly2::<L::One>(
                x,
                k,
                wa.get::<L::One>(k),
                wb0.get::<L::One>(k),
                wb1.get::<L::One>(k),
            );
            k += 1;
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
        data: &mut [Complex<L::R>],
        source: Option<Source<'_, L::R>>,
        pass: &RowPass<'_, L::R>,
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
    unsafe fn quad_twiddles<L: Lanes>(pass: &RowPass<'_, L::R>) -> Option<L::Quad> {
        (pass.within.len() >= 4).then(|| L::quad_twiddles(&pass.stages[0], &pass.stages[1]))
    }

    #[inline(always)]
    unsafe fn rows_from<L: Lanes, const K: u8>(
        data: &mut [Complex<L::R>],
        source: &[Complex<L::R>],
        factor: *const Complex<L::R>,
        pass: &RowPass<'_, L::R>,
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
    unsafe fn rows_in_place<L: Lanes>(data: &mut [Complex<L::R>], pass: &RowPass<'_, L::R>) {
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
        row: *mut Complex<L::R>,
        src: *const Complex<L::R>,
        factor: *const Complex<L::R>,
        quad: Option<L::Quad>,
        pass: &RowPass<'_, L::R>,
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
                    let x = load_times::<L::One, K>(src, factor, r as usize);
                    <L::One as Lanes>::store(row.add(k), x);
                }
                stages::<L>(row, pass.stages, pass);
            }
        }
    }

    /// One row in place: permuted in place, then every stage and the scale.
    #[inline(always)]
    unsafe fn row_in_place<L: Lanes>(
        row: *mut Complex<L::R>,
        quad: Option<L::Quad>,
        pass: &RowPass<'_, L::R>,
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
    unsafe fn stages<L: Lanes>(
        row: *mut Complex<L::R>,
        stages: &[Stage<L::R>],
        pass: &RowPass<'_, L::R>,
    ) {
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
        if pass.scale != <L::R as Real>::ONE {
            let mut k = 0;
            while k + L::N <= n {
                L::store(row.add(k), L::scale(L::load(row.add(k)), pass.scale));
                k += L::N;
            }
            while k < n {
                let x = <L::One as Lanes>::load(row.add(k));
                <L::One as Lanes>::store(row.add(k), <L::One as Lanes>::scale(x, pass.scale));
                k += 1;
            }
        }
    }

    #[inline(always)]
    unsafe fn column<L: Lanes>(data: &mut [Complex<L::R>], cols: usize, stage: &Stage<L::R>) {
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
    unsafe fn column2<L: Lanes>(
        data: &mut [Complex<L::R>],
        cols: usize,
        wa: &Stage<L::R>,
        wb: &Stage<L::R>,
    ) {
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
    /// functions, generic over the precision, so the intrinsics inline.
    macro_rules! per_tier {
        ($sse2:ident, $avx2:ident, $sweep:ident($($arg:ident: $ty:ty),*)) => {
            /// # Safety
            /// See the note above the generic sweeps.
            #[target_feature(enable = "sse2")]
            pub(super) unsafe fn $sse2<R: Tiers>($($arg: $ty),*) {
                $sweep::<R::Sse2>($($arg),*)
            }

            /// # Safety
            /// See the note above the generic sweeps; the caller must have
            /// confirmed `avx2` at runtime.
            #[target_feature(enable = "avx2")]
            pub(super) unsafe fn $avx2<R: Tiers>($($arg: $ty),*) {
                $sweep::<R::Avx2>($($arg),*)
            }
        };
    }

    per_tier!(sse2_rows, avx2_rows, rows(data: &mut [Complex<R>], source: Option<Source<'_, R>>, pass: &RowPass<'_, R>));
    per_tier!(sse2_column, avx2_column, column(data: &mut [Complex<R>], cols: usize, stage: &Stage<R>));
    per_tier!(sse2_column2, avx2_column2, column2(data: &mut [Complex<R>], cols: usize, wa: &Stage<R>, wb: &Stage<R>));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft1d::bit_reversal;
    use crate::Complex64;

    fn test_data<R: Real>(n: usize) -> Vec<Complex<R>> {
        (0..n)
            .map(|i| {
                Complex::narrow(Complex64::new(
                    (i as f64 * 0.61).sin(),
                    (i as f64 * 0.37).cos(),
                ))
            })
            .collect()
    }

    fn bits<R: Real>(values: &[Complex<R>]) -> Vec<(u64, u64)> {
        values
            .iter()
            .map(|v| (v.re.bit_pattern(), v.im.bit_pattern()))
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

    fn column_sweeps_match_scalar<R: Real>() {
        // The column sweeps at every tier against the scalar loops, on tables
        // that are not twiddles. Half-sizes 1 and 3 and the odd column counts
        // leave the vector tiers a tail of one to three values on every run;
        // `cols == 1` is all tail.
        type Sweep<R> = fn(SimdLevel, &mut [Complex<R>], &Stage<R>, &Stage<R>, usize);
        let sweeps: [(&str, Sweep<R>); 2] = [
            ("column", |level, data, wa, _, cols| {
                column_pass(level, data, cols, wa)
            }),
            ("column2", |level, data, wa, wb, cols| {
                column_pass2(level, data, cols, wa, wb)
            }),
        ];
        for level in SimdLevel::available_levels() {
            for h in [1usize, 2, 3, 4, 8, 32] {
                for cols in [1usize, 2, 3, 5, 7, 8, 12] {
                    let wa = Stage::new(test_data(h));
                    let wb = Stage::new(test_data(3 * h).split_off(h));
                    for (name, sweep) in &sweeps {
                        let mut scalar = test_data::<R>(2 * 4 * h * cols);
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
    fn every_tier_sweeps_bit_identical_to_scalar() {
        column_sweeps_match_scalar::<f64>();
        column_sweeps_match_scalar::<f32>();
    }

    fn row_passes_match_scalar<R: Real>() {
        // Every combination the row pass is instantiated for — in place, or
        // from a source with no factor / `x·f` / `x·conj(f)`; scaled or not
        // — on tables that are not twiddles, so a butterfly fed the wrong
        // entry cannot cancel. Rows of 1 and 2 values never reach the
        // radix-2² sweep; 4, 16 and 64 end on a two-stage sweep, 8 and 32 on
        // a one-stage one.
        for level in SimdLevel::available_levels() {
            for n in [1usize, 2, 4, 8, 16, 32, 64] {
                for rows in [1usize, 2, 4] {
                    let stages: Vec<Stage<R>> = (0..n.trailing_zeros())
                        .map(|s| Stage::new(test_data(3 << s).split_off(2 << s)))
                        .collect();
                    let (within, order) = (bit_reversal(n), bit_reversal(rows));
                    let input = test_data::<R>(rows * n);
                    let f = test_data::<R>(rows * n + 5).split_off(5);
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
                    let scales = [R::ONE, R::from_f64(0.125)];
                    for (source, scale) in sources
                        .into_iter()
                        .flat_map(|s| scales.map(|scale| (s, scale)))
                    {
                        let pass = RowPass {
                            within: &within,
                            order: &order,
                            stages: &stages,
                            scale,
                        };
                        let run = |level| {
                            let mut data = match source {
                                Some(_) => {
                                    vec![Complex::narrow(Complex64::new(f64::NAN, 7.0)); rows * n]
                                }
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
    fn every_tier_row_pass_bit_identical_to_scalar() {
        row_passes_match_scalar::<f64>();
        row_passes_match_scalar::<f32>();
    }

    #[test]
    #[should_panic(expected = "row pass factor length")]
    fn short_factor_panics() {
        let within = bit_reversal(4);
        let stages: Vec<Stage<f64>> = (0..2).map(|s| Stage::new(test_data(1 << s))).collect();
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
