//! The radix-2 butterfly sweeps, at every dispatch tier.
//!
//! # Sweeps
//!
//! A plan drives its data through sweeps, dispatched once per sweep at the
//! tier fixed at plan construction. The dense plans run **two radix-2
//! stages per sweep** (`butterfly_pass2` along a contiguous line,
//! `column_pass2` down the columns of a row-major field): the four values
//! `x[j], x[j+h], x[j+2h], x[j+3h]` of a `4h` block go through the stage of
//! half-size `h` and then the stage of half-size `2h` while they sit in
//! registers. Every butterfly is still `t = b·w; a' = a + t; b' = a − t` with
//! the same operands and the same twiddle-table entries as two separate
//! one-stage sweeps, so the result is bit-identical to them; only half the
//! loads and stores happen. An odd stage count leaves the last stage to a
//! one-stage sweep (`butterfly_range` / `column_pass`).
//!
//! The column sweeps pair whole *rows*: all butterflies between two rows share
//! one twiddle, which is broadcast, and the inner loop runs along the
//! contiguous columns. That is what lets the 2-D plan transform its columns
//! in place, without transposing.
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
//!   length, single-column field) goes through the SSE2 lane.
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
//! a host of another tier. Measured on one AVX2 box (pinned CPU, best of
//! 2000, one dense 128² forward transform / `iter_s_p50` of `perf_bench`'s
//! `gd-compute-1r` in calibrated seconds, alternating runs):
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

// The sweeps. Twiddle tables are a plan's per-stage tables: the stage of
// half-size `h` (blocks of `2h`) has `h` entries. Every kernel walks
// `chunks_exact_mut` blocks, which are whole by construction — a ragged tail,
// which no plan produces, would be left untouched, and an empty table panics
// there — so the one relation checked up front is the one the kernels index
// by without a slice's own bounds behind it: a two-stage sweep reads `2h`
// entries of the second table for the `h` of the first.

/// One stage over paired runs — `lo[k]`, `hi[k]` under twiddle `tw[k]`, for
/// every `k` all three runs have: the 1-D plan's odd last stage.
pub(crate) fn butterfly_range(
    level: SimdLevel,
    lo: &mut [Complex64],
    hi: &mut [Complex64],
    tw: &[Complex64],
) {
    debug_assert!(lo.len() == hi.len() && lo.len() == tw.len());
    dispatch!(level, scalar_range, sse2_range, avx2_range, (lo, hi, tw))
}

/// Two stages over every `4h`-block of a contiguous line: the stage `wa` (`h`
/// entries), then the stage `wb` (`2h` entries).
///
/// # Panics
/// Panics if `wb` is not twice as long as `wa`.
pub(crate) fn butterfly_pass2(
    level: SimdLevel,
    data: &mut [Complex64],
    wa: &[Complex64],
    wb: &[Complex64],
) {
    assert_eq!(wb.len(), 2 * wa.len(), "second-stage twiddle table");
    dispatch!(level, scalar_pass2, sse2_pass2, avx2_pass2, (data, wa, wb))
}

/// One stage down the columns of a row-major field of row length `cols`: every
/// `2h`-block of rows pairs row `k` with row `k + h` under the broadcast
/// twiddle `stage[k]`.
pub(crate) fn column_pass(
    level: SimdLevel,
    data: &mut [Complex64],
    cols: usize,
    stage: &[Complex64],
) {
    dispatch!(
        level,
        scalar_column,
        sse2_column,
        avx2_column,
        (data, cols, stage)
    )
}

/// Two stages down the columns, over every `4h`-block of rows.
///
/// # Panics
/// Panics if `wb` is not twice as long as `wa`.
pub(crate) fn column_pass2(
    level: SimdLevel,
    data: &mut [Complex64],
    cols: usize,
    wa: &[Complex64],
    wb: &[Complex64],
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
// `t = b·w; a' = a + t; b' = a − t` — the bit-identity reference for every
// other tier.

fn scalar_range(lo: &mut [Complex64], hi: &mut [Complex64], tw: &[Complex64]) {
    for ((a, b), w) in lo.iter_mut().zip(hi.iter_mut()).zip(tw) {
        butterfly(a, b, *w);
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

fn scalar_column(data: &mut [Complex64], cols: usize, stage: &[Complex64]) {
    let h = stage.len();
    for block in data.chunks_exact_mut(2 * h * cols) {
        let (lo, hi) = block.split_at_mut(h * cols);
        for ((lo, hi), w) in lo
            .chunks_exact_mut(cols)
            .zip(hi.chunks_exact_mut(cols))
            .zip(stage)
        {
            for (a, b) in lo.iter_mut().zip(hi) {
                butterfly(a, b, *w);
            }
        }
    }
}

fn scalar_column2(data: &mut [Complex64], cols: usize, wa: &[Complex64], wb: &[Complex64]) {
    let h = wa.len();
    let (wb0, wb1) = wb.split_at(h);
    for block in data.chunks_exact_mut(4 * h * cols) {
        let [q0, q1, q2, q3] = quarters(block, h * cols);
        for j in 0..h {
            let row = j * cols..(j + 1) * cols;
            let (x0, x1) = (&mut q0[row.clone()], &mut q1[row.clone()]);
            let (x2, x3) = (&mut q2[row.clone()], &mut q3[row]);
            let (wa, wb0, wb1) = (wa[j], wb0[j], wb1[j]);
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
    use super::Complex64;
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
        unsafe fn load(p: *const Complex64) -> Self::V;
        unsafe fn store(p: *mut Complex64, v: Self::V);
        unsafe fn splat(w: Complex64) -> Self::V;
        /// The complex products `b·w`, lane by lane.
        unsafe fn mul(b: Self::V, w: Self::V) -> Self::V;
        unsafe fn add(a: Self::V, b: Self::V) -> Self::V;
        unsafe fn sub(a: Self::V, b: Self::V) -> Self::V;
    }

    /// One `Complex64` per `__m128d`.
    struct Sse2;
    /// Two `Complex64` per `__m256d`.
    struct Avx2;

    impl Lanes for Sse2 {
        const N: usize = 1;
        type V = __m128d;
        type Tail = Sse2;
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
        /// Replicates the scalar complex multiply
        /// `(b.re·w.re − b.im·w.im, b.re·w.im + b.im·w.re)` with the same two
        /// multiplies and one add/subtract per lane — bit-identical.
        #[inline(always)]
        unsafe fn mul(b: __m128d, w: __m128d) -> __m128d {
            let bre = _mm_unpacklo_pd(b, b); // [b.re, b.re]
            let bim = _mm_unpackhi_pd(b, b); // [b.im, b.im]
            let wsw = _mm_shuffle_pd(w, w, 0b01); // [w.im, w.re]

            // `[-0.0, 0.0]`: XORing flips the sign of lane 0 only, turning
            // the add into `[x0 − y0, x1 + y1]` (IEEE subtraction *is*
            // addition of the negation, so this matches the scalar subtract).
            let prod_im = _mm_xor_pd(_mm_mul_pd(bim, wsw), _mm_set_pd(0.0, -0.0));
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
    }

    impl Lanes for Avx2 {
        const N: usize = 2;
        type V = __m256d;
        type Tail = Sse2;
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
        /// [`Sse2::mul`] on two values: both products rounded, then
        /// `addsub` — deliberately not `vfmaddsub`, which would drop a
        /// rounding (see the module docs).
        #[inline(always)]
        unsafe fn mul(b: __m256d, w: __m256d) -> __m256d {
            let bre = _mm256_movedup_pd(b); // [b0.re, b0.re, b1.re, b1.re]
            let bim = _mm256_permute_pd(b, 0b1111); // [b0.im, b0.im, b1.im, b1.im]
            let wsw = _mm256_permute_pd(w, 0b0101); // [w0.im, w0.re, w1.im, w1.re]

            // even lanes: b.re·w.re − b.im·w.im, odd lanes: b.re·w.im + b.im·w.re
            _mm256_addsub_pd(_mm256_mul_pd(bre, w), _mm256_mul_pd(bim, wsw))
        }
        #[inline(always)]
        unsafe fn add(a: __m256d, b: __m256d) -> __m256d {
            _mm256_add_pd(a, b)
        }
        #[inline(always)]
        unsafe fn sub(a: __m256d, b: __m256d) -> __m256d {
            _mm256_sub_pd(a, b)
        }
    }

    /// Where a run's twiddles come from: one table entry per butterfly
    /// (contiguous line) or one value for the whole run (column sweeps).
    trait Twiddle: Copy {
        unsafe fn get<L: Lanes>(self, k: usize) -> L::V;
    }

    impl Twiddle for *const Complex64 {
        #[inline(always)]
        unsafe fn get<L: Lanes>(self, k: usize) -> L::V {
            L::load(self.add(k))
        }
    }

    impl Twiddle for Complex64 {
        #[inline(always)]
        unsafe fn get<L: Lanes>(self, _k: usize) -> L::V {
            L::splat(self)
        }
    }

    /// # Safety
    /// `a + k` and `b + k` must address `L::N` valid values.
    #[inline(always)]
    unsafe fn butterfly<L: Lanes>(a: *mut Complex64, b: *mut Complex64, k: usize, w: L::V) {
        let t = L::mul(L::load(b.add(k)), w);
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
        wa: L::V,
        wb0: L::V,
        wb1: L::V,
    ) {
        let [x0, x1, x2, x3] = x.map(|p| p.add(k));
        let t = L::mul(L::load(x1), wa);
        let u = L::load(x0);
        let (y0, y1) = (L::add(u, t), L::sub(u, t));
        let t = L::mul(L::load(x3), wa);
        let u = L::load(x2);
        let (y2, y3) = (L::add(u, t), L::sub(u, t));
        let t = L::mul(y2, wb0);
        L::store(x0, L::add(y0, t));
        L::store(x2, L::sub(y0, t));
        let t = L::mul(y3, wb1);
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
    // its dispatcher established: the CPU supports `L`, and for the two-stage
    // sweeps `wb.len() == 2 * wa.len()`. All other indexing stays inside a
    // `chunks_exact_mut` block or a slice's own length.

    #[inline(always)]
    unsafe fn range<L: Lanes>(lo: &mut [Complex64], hi: &mut [Complex64], tw: &[Complex64]) {
        // Like the scalar zip: as many butterflies as all three runs have.
        let n = lo.len().min(hi.len()).min(tw.len());
        run1::<L, _>(lo.as_mut_ptr(), hi.as_mut_ptr(), tw.as_ptr(), n);
    }

    #[inline(always)]
    unsafe fn pass2<L: Lanes>(data: &mut [Complex64], wa: &[Complex64], wb: &[Complex64]) {
        let h = wa.len();
        let (wa, wb) = (wa.as_ptr(), wb.as_ptr());
        for block in data.chunks_exact_mut(4 * h) {
            let x0 = block.as_mut_ptr();
            let x = [x0, x0.add(h), x0.add(2 * h), x0.add(3 * h)];
            run2::<L, _>(x, wa, wb, wb.add(h), h);
        }
    }

    #[inline(always)]
    unsafe fn column<L: Lanes>(data: &mut [Complex64], cols: usize, stage: &[Complex64]) {
        let h = stage.len();
        for block in data.chunks_exact_mut(2 * h * cols) {
            let lo = block.as_mut_ptr();
            let hi = lo.add(h * cols);
            for (k, w) in stage.iter().enumerate() {
                run1::<L, _>(lo.add(k * cols), hi.add(k * cols), *w, cols);
            }
        }
    }

    #[inline(always)]
    unsafe fn column2<L: Lanes>(
        data: &mut [Complex64],
        cols: usize,
        wa: &[Complex64],
        wb: &[Complex64],
    ) {
        let h = wa.len();
        for block in data.chunks_exact_mut(4 * h * cols) {
            let x0 = block.as_mut_ptr();
            for j in 0..h {
                let x = [0, 1, 2, 3].map(|q| x0.add((q * h + j) * cols));
                run2::<L, _>(x, wa[j], wb[j], wb[j + h], cols);
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

    per_tier!(sse2_range, avx2_range, range(lo: &mut [Complex64], hi: &mut [Complex64], tw: &[Complex64]));
    per_tier!(sse2_pass2, avx2_pass2, pass2(data: &mut [Complex64], wa: &[Complex64], wb: &[Complex64]));
    per_tier!(sse2_column, avx2_column, column(data: &mut [Complex64], cols: usize, stage: &[Complex64]));
    per_tier!(sse2_column2, avx2_column2, column2(data: &mut [Complex64], cols: usize, wa: &[Complex64], wb: &[Complex64]));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_data(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|i| Complex64::new((i as f64 * 0.61).sin(), (i as f64 * 0.37).cos()))
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
        // All four sweeps at every tier against the scalar loops. Half-sizes
        // 1 and 3 and the odd column counts leave AVX2 a one-value tail on
        // every run; `cols == 1` is all tail.
        type Sweep = fn(SimdLevel, &mut [Complex64], &[Complex64], &[Complex64], usize);
        let sweeps: [(&str, Sweep); 4] = [
            ("pass2", |level, data, wa, wb, _| {
                butterfly_pass2(level, data, wa, wb)
            }),
            ("range", |level, data, wa, _, _| {
                let (lo, hi) = data.split_at_mut(wa.len());
                butterfly_range(level, lo, &mut hi[..wa.len()], wa)
            }),
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
                    let wa = test_data(h);
                    let wb: Vec<Complex64> = test_data(3 * h).split_off(h);
                    for (name, sweep) in &sweeps {
                        let mut scalar = test_data(2 * 4 * h * cols);
                        let mut tier = scalar.clone();
                        sweep(SimdLevel::Scalar, &mut scalar, &wa, &wb, cols);
                        sweep(level, &mut tier, &wa, &wb, cols);
                        for (i, (a, b)) in scalar.iter().zip(&tier).enumerate() {
                            assert_eq!(
                                (a.re.to_bits(), a.im.to_bits()),
                                (b.re.to_bits(), b.im.to_bits()),
                                "{name} at {level:?}, h={h}, cols={cols}, index {i}"
                            );
                        }
                    }
                }
            }
        }
    }
}
