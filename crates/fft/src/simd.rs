//! The radix-2 butterfly sweeps, at every dispatch tier and both precisions.
//!
//! # Sweeps
//!
//! A transform is two passes over a row-major field, each dispatched once at
//! the tier fixed at plan construction (a 1-D plan's line is a one-row
//! field):
//!
//! * **The row pass** (`row_pass`) transforms every row and writes input row
//!   `i` to row `rev(i)` of the column transform's bit reversal, so the
//!   column pass does no permutation of its own. When the input comes from a
//!   distinct source field, an optional pointwise factor (`x·f` or
//!   `x·conj(f)`) is applied to each value as it is loaded, and the
//!   inverse's normalisation is applied as each row is written out.
//! * **The column pass** (`column_pass2` / `column_pass`) pairs whole
//!   *rows*: all butterflies between two rows share one twiddle, which is
//!   broadcast, and the inner loop runs along the contiguous columns. That
//!   is what lets the 2-D plan transform its columns in place, without
//!   transposing.
//!
//! The vector tiers give the row pass the column pass's shape. They take the
//! rows in **panels** of as many rows as a vector has real lanes (`2N` for
//! `N` complex values per vector: 8 rows at AVX2 `f32`, 4 at AVX2 `f64` and
//! SSE2 `f32`, 2 at SSE2 `f64`), with each row `i` of a panel its partner
//! `rev(i)`. A panel's rows are loaded with contiguous full-width loads, the
//! factor is taken at full width, and each `2N × 2N` block of reals is
//! transposed into **split** planes: for each position `k` of the rows, one
//! vector of the real parts and one of the imaginary parts, lane `p` from
//! row `p`, stored at `k`'s bit-reversed position. Every stage then runs as
//! split butterflies under broadcast twiddles — `t.re = b.re·w.re −
//! b.im·w.im`, `t.im = b.re·w.im + b.im·w.re`, then `a ± t` — the scalar
//! `Mul` / `Add` / `Sub` operation for operation, with no shuffle. The
//! scale is applied as the planes are transposed back, and each row is
//! stored at `rev(i)`. A panel reads all its rows before it writes any, so
//! in place it overwrites only rows it has already read. A field of fewer
//! rows than a panel (a field of 3 rows, the last panel of a row count no
//! panel height divides) runs as a partial panel: its spare lanes repeat a
//! row and are never stored. A field of one row (a 1-D plan's line, a
//! `1 × N` field) runs at the scalar tier instead: a panel would compute
//! `2N` copies of it.
//!
//! The split planes of a panel live on the stack, so the transform
//! allocates nothing and no workspace is charged for them. A stack frame is
//! probed page by page on every call, so the planes come in two sizes: for
//! rows of up to `SHORT_PANEL_LEN` (128) values, 8 KiB at AVX2 and 4 KiB at
//! SSE2; for longer rows, up to `MAX_PANEL_LEN` (2048) values, 128 KiB and
//! 64 KiB. (Planes of the longest size for every row cost `service-burst`'s
//! 32-px jobs about 17 % of their latency.) Rows longer than
//! `MAX_PANEL_LEN` run at the scalar tier too.
//!
//! Both passes run **two radix-2 stages per sweep**: the four values
//! `x[j], x[j+h], x[j+2h], x[j+3h]` of a `4h` block go through the stage of
//! half-size `h` and then the stage of half-size `2h` while they sit in
//! registers. Every butterfly is still `t = b·w; a' = a + t; b' = a − t` with
//! the same operands and the same twiddle-table entries as two separate
//! one-stage sweeps, so the result is bit-identical to them; only half the
//! loads and stores happen. An odd stage count leaves the last stage to a
//! one-stage sweep. The factor, transposes, row placement and scale change
//! where values are read and written, never which operations produce them:
//! a fused transform is bit-identical to a separate multiply followed by the
//! plain transform.
//!
//! # Dispatch tiers and precisions
//!
//! A plan resolves its tier once, at construction, to the widest one the CPU
//! offers ([`SimdLevel::detect`]); there is no cargo feature and no switch.
//! Every sweep is written once — the portable loops generic over
//! [`Real`], the vector ones over a lane type — and
//! instantiated at both `f64` and `f32`:
//!
//! | tier                  | `f64` lanes              | `f32` lanes              | rows per panel (`f64` / `f32`) |
//! |-----------------------|--------------------------|--------------------------|--------------------------------|
//! | [`SimdLevel::Scalar`] | one value                | one value                | one row at a time              |
//! | [`SimdLevel::Sse2`]   | 1 complex per `__m128d`  | 2 complex per `__m128`   | 2 / 4                          |
//! | [`SimdLevel::Avx2`]   | 2 complex per `__m256d`  | 4 complex per `__m256`   | 4 / 8                          |
//!
//! * `Scalar` is the portable tier: the only one on non-x86_64 targets, and
//!   on x86_64 the oracle the other two are pinned against
//!   (`with_simd_level(Scalar)`). It keeps its per-row loops.
//! * `Sse2` is part of the x86_64 baseline, so it needs no runtime check.
//! * `Avx2` is selected when `is_x86_feature_detected!("avx2")` holds.
//!
//! A column run whose length the lane count does not divide (odd run
//! lengths, single-column fields) is finished one complex value at a time by
//! the tier's one-value lane: the SSE2 `f64` lane, or the low half of an
//! `__m128` for `f32`. A row shorter than one vector is loaded and stored
//! through a zero-padded copy.
//!
//! # One arithmetic
//!
//! Every tier computes every butterfly as the *same* IEEE 754 operations in
//! the same order as the scalar `Mul` / `Add` / `Sub` impls, at the
//! precision of the data: the product `b·w` is two multiplies and one
//! add/subtract per component — in the row panels (and their factor) on
//! split planes, in the column sweeps on interleaved values: `b` and its
//! pair-swapped copy `[b.im, b.re]` times the splats `[w.re, w.re]` and
//! `[w.im, w.im]`, then `addsub` on AVX2 (`_pd` or `_ps`; SSE2 has no
//! `addsub` and adds the sign-flipped product, which IEEE defines as the
//! same operation). The imaginary lane sums `b.im·w.re + b.re·w.im`, the
//! scalar's two products added the other way round, which IEEE addition
//! does not see. Then `a' = a + t`, `b' = a − t`. No accumulation is
//! reordered and nothing is fused, so which tier, which lane and which
//! partition of a run computed a value cannot be seen in its bits: at each
//! precision all tiers are **bit-identical**, pinned by `to_bits` tests at
//! every level of the stack (sweeps, 1-D / 2-D plans, the multi-slice
//! gradient, whole solves). The
//! dispatch tier is therefore not part of a result's identity — goldens,
//! traces and checkpoints are the same on every host.
//!
//! FMA is deliberately not used, at either precision. `vfmaddsub231pd` /
//! `vfmaddsub231ps` would fuse the second multiply with the add/subtract and
//! drop one rounding per component, which makes results ULP-close to scalar
//! instead of equal — every golden then needs a column per tier and a
//! checkpoint cannot resume bit-identically on a host of another tier. In
//! `f32` a dropped rounding is 2²⁹ times coarser than in `f64`, so the gap
//! between tiers would be plainly visible in every reconstruction.
//!
//! The multi-slice model's amplitude step, [`amplitude_seed`], is under the
//! same rule: its vector tiers compute chunks of values lane-parallel with
//! the scalar loop's operations (the chunk body is the scalar code,
//! compiled at the tier's target features) and add each chunk's `f64`
//! squares to the loss one by one in index order, as the scalar loop does.
//!
//! Measured on a 2-vCPU Xeon (AVX2; AVX-512 present and unused), the process
//! pinned to one CPU, one 128² transform — a fused forward of `x·f` from a
//! source field, and an in-place normalised inverse — best of three runs of
//! 2000, at each tier and precision (the fastest of four invocations; the
//! others read up to 12 % slower on the shared host):
//!
//! | tier   | `f32` fused forward | `f32` inverse | `f64` fused forward | `f64` inverse |
//! |--------|--------------------:|--------------:|--------------------:|--------------:|
//! | scalar |              206 µs |        186 µs |              164 µs |        169 µs |
//! | SSE2   |               59 µs |         54 µs |              105 µs |         96 µs |
//! | AVX2   |               31 µs |         28 µs |               59 µs |         53 µs |
//!
//! Of an AVX2 `f32` transform, the column pass is about 15 µs; the rest is
//! the row panels. On the same host the amplitude step of a 128² `f32`
//! field reads 5.1 ns a value at the scalar tier, 4.6 at SSE2 and 2.6 at
//! AVX2.

// The intrinsics in the x86 module below are the one sanctioned use of
// `unsafe` in this crate (the crate root carries `deny(unsafe_code)` on
// x86_64 and `forbid(unsafe_code)` on every other target). Safety rests on
// two invariants, both enforced here: every kernel is only dispatched after
// its CPU feature is statically (SSE2) or dynamically (AVX2) confirmed, and
// every pointer stays inside the bounds of the slices passed in, or of a
// panel's stack planes (`Complex<T>` is `#[repr(C)]`, so a `&[Complex<T>]`
// is exactly a dense `re, im` sequence of `T`).
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

/// The longest row the vector tiers' row pass takes: a panel's split planes
/// hold `2 · MAX_PANEL_LEN` vectors on the stack. Longer rows run at the
/// scalar tier.
pub(crate) const MAX_PANEL_LEN: usize = 2048;

/// The longest row whose panels run in the small planes, `2 ·
/// SHORT_PANEL_LEN` vectors (see the module docs).
const SHORT_PANEL_LEN: usize = 128;

// The tables and entry points the sweeps are instantiated over. They are
// nominally public inside a private module, so `Sweeps` can be a supertrait
// of the public `Real` without any of it being nameable outside the crate.
mod kernel {
    use super::SimdLevel;
    use crate::complex::{Complex, Real};
    use crate::fft2d::Factor;

    /// One butterfly stage's twiddles `w[k]`.
    #[derive(Clone, Debug)]
    pub struct Stage<R: Real> {
        pub(crate) w: Vec<Complex<R>>,
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
                if pass.within.len() <= SHORT_PANEL_LEN {
                    dispatch!(level, $real, scalar_rows, sse2_rows, avx2_rows, (data, source, pass))
                } else {
                    dispatch!(
                        level,
                        $real,
                        scalar_rows,
                        sse2_long_rows,
                        avx2_long_rows,
                        (data, source, pass)
                    )
                }
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
        Self { w }
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
/// source is not as long as `data`, the factor does not hold as many rows
/// (each at least a row long and at least a row apart), a bit-reversal table is
/// not an involution of its own index range, or the stage tables do not fit
/// the row.
pub(crate) fn row_pass<R: Real>(
    level: SimdLevel,
    data: &mut [Complex<R>],
    source: Option<Source<'_, R>>,
    pass: &RowPass<'_, R>,
) {
    let n = pass.within.len();
    assert_eq!(
        n.checked_mul(pass.order.len()),
        Some(data.len()),
        "row pass field length"
    );
    if let Some(source) = source {
        assert_eq!(source.values.len(), data.len(), "row pass source length");
        if let Some(factor) = source.factor {
            assert!(factor.fits(pass.order.len(), n), "row pass factor length");
        }
    }
    for table in [pass.within, pass.order] {
        assert!(
            table.iter().enumerate().all(|(i, &r)| table
                .get(r as usize)
                .is_some_and(|&back| back as usize == i)),
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
    // A lone row (a 1-D plan) would fill a panel with copies of itself.
    let level = if n > MAX_PANEL_LEN || pass.order.len() == 1 {
        SimdLevel::Scalar
    } else {
        level
    };
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

/// The amplitude loss of a far field and the adjoint's seed from it. For
/// every far-field value `d`, measured amplitude `y` and transfer value
/// `h`: the amplitude `a = |d|`, the residual `r = a − y` (`y` rounded to
/// `R` as it is read), and `seed = d·(r/a)·conj(h)`, or `0` where `a == 0`.
/// Returns `Σ r²`, each residual widened to `f64` and the squares summed in
/// index order.
///
/// The vector tiers run it in chunks of 8 values: every
/// value's amplitude, residual, square and seed lane-parallel (the chunk
/// body is compiled at the tier), then the chunk's squares added to the
/// loss one by one in index order. Each value goes through the same IEEE
/// operations as in the scalar loop, so where no NaN comes out the bits are
/// the scalar loop's. Which NaN an operation on two NaNs returns depends on
/// its operand order, which the compiler may swap, so a chunk that puts out
/// a NaN is redone by the scalar loop itself. (`f32` amplitudes are `f64`
/// squares and root, which vectorise; `f64` ones are libm's `hypot`, one
/// call a value at every tier.)
///
/// # Panics
/// Panics unless the four slices are equally long.
pub fn amplitude_seed<R: Real>(
    level: SimdLevel,
    far_field: &[Complex<R>],
    measured: &[f64],
    transfer: &[Complex<R>],
    seed: &mut [Complex<R>],
) -> f64 {
    let n = far_field.len();
    assert!(
        measured.len() == n && transfer.len() == n && seed.len() == n,
        "amplitude seed lengths"
    );
    match level {
        SimdLevel::Scalar => scalar_amplitude_seed(0.0, far_field, measured, transfer, seed),
        // SAFETY: a plan only holds `Avx2` after `is_available` confirmed
        // `avx2` at runtime.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { x86::avx2_amplitude_seed(far_field, measured, transfer, seed) },
        // SSE2 is the x86_64 baseline: the chunks compile at it as they are.
        _ => amplitude_seed_chunks(far_field, measured, transfer, seed),
    }
}

/// Values per chunk of the vector tiers' amplitude step: one AVX2 vector of
/// `f32`.
const AMPLITUDE_CHUNK: usize = 8;

/// The residual `a − y` of an amplitude `a = |D|` from its measured
/// amplitude `y`, in the working precision: `y` is rounded to it as it is
/// read. The one definition of the residual, so that the loss a forward
/// pass alone reports is bit for bit the one [`amplitude_seed`] returns.
#[inline(always)]
pub fn residual<R: Real>(a: R, y: f64) -> R {
    a - R::from_f64(y)
}

/// The amplitude step of one value: its seed and its residual.
#[inline(always)]
fn amplitude_value<R: Real>(d: Complex<R>, y: f64, h: Complex<R>) -> (Complex<R>, R) {
    let a = d.abs();
    let r = residual(a, y);
    let seed = if a == R::ZERO {
        Complex::ZERO
    } else {
        d.scale(r / a) * h.conj()
    };
    (seed, r)
}

/// The scalar loop, its loss starting from `loss`: one copy of its code,
/// which every tier's NaN chunks and tails run.
#[inline(never)]
fn scalar_amplitude_seed<R: Real>(
    mut loss: f64,
    far_field: &[Complex<R>],
    measured: &[f64],
    transfer: &[Complex<R>],
    seed: &mut [Complex<R>],
) -> f64 {
    for (((b, d), y), h) in seed.iter_mut().zip(far_field).zip(measured).zip(transfer) {
        let (value, r) = amplitude_value(*d, *y, *h);
        let wide = r.to_f64();
        loss += wide * wide;
        *b = value;
    }
    loss
}

/// Whole chunks lane-parallel, the rest by the scalar loop. Inlined into
/// each tier's entry point, so the chunk body compiles at its features.
#[inline(always)]
fn amplitude_seed_chunks<R: Real>(
    far_field: &[Complex<R>],
    measured: &[f64],
    transfer: &[Complex<R>],
    seed: &mut [Complex<R>],
) -> f64 {
    const L: usize = AMPLITUDE_CHUNK;
    let whole = far_field.len() / L * L;
    let mut loss = 0.0;
    let chunks = far_field[..whole]
        .chunks_exact(L)
        .zip(measured.chunks_exact(L))
        .zip(transfer.chunks_exact(L))
        .zip(seed.chunks_exact_mut(L));
    for (((d, y), h), b) in chunks {
        let (mut values, mut squares) = ([Complex::ZERO; L], [0.0; L]);
        for i in 0..L {
            let (value, r) = amplitude_value(d[i], y[i], h[i]);
            let wide = r.to_f64();
            (values[i], squares[i]) = (value, wide * wide);
        }
        let nan = values
            .iter()
            .fold(false, |n, v| n | v.re.is_nan() | v.im.is_nan());
        let nan = squares.iter().fold(nan, |n, s| n | s.is_nan());
        if nan {
            loss = scalar_amplitude_seed(loss, d, y, h, b);
            continue;
        }
        b.copy_from_slice(&values);
        for square in squares {
            loss += square;
        }
    }
    let tail = whole..far_field.len();
    let (d, y, h) = (
        &far_field[tail.clone()],
        &measured[tail.clone()],
        &transfer[tail.clone()],
    );
    scalar_amplitude_seed(loss, d, y, h, &mut seed[tail])
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
                let source_row = |r: usize| (&values[row(r)], factor.map(|f| f.row(r, n)));
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
        Some(f) if f.is_conj() => values[i] * f.values()[i].conj(),
        Some(f) => values[i] * f.values()[i],
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
    use super::{RowPass, Source, Stage, MAX_PANEL_LEN, SHORT_PANEL_LEN};
    use crate::complex::{Complex, Real};
    use core::arch::x86_64::*;
    use core::mem::MaybeUninit;

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
        /// The one-value lane that finishes, value by value, a column run
        /// whose length `N` does not divide.
        type One: Lanes<R = Self::R>;
        unsafe fn load(p: *const Complex<Self::R>) -> Self::V;
        unsafe fn store(p: *mut Complex<Self::R>, v: Self::V);
        unsafe fn splat(w: Complex<Self::R>) -> Self::V;
        /// The complex products `b·w`, lane by lane, given `w.re` and
        /// `w.im` in every lane (`splat(w.re + i·w.re)`, …).
        unsafe fn mul(b: Self::V, w_re: Self::V, w_im: Self::V) -> Self::V;
        /// Lane-wise sum, of complex values or of reals alike.
        unsafe fn add(a: Self::V, b: Self::V) -> Self::V;
        /// Lane-wise difference.
        unsafe fn sub(a: Self::V, b: Self::V) -> Self::V;
    }

    /// A tier's full vector seen as `2N` real lanes, one per row of a row
    /// pass panel (see the module docs).
    ///
    /// # Safety
    /// As [`Lanes`]; `load_split` / `store_split` require values `k..k + N`
    /// of each of the `2N` rows to be valid.
    pub(super) trait Panel: Lanes {
        /// Every lane `x`.
        unsafe fn broadcast(x: Self::R) -> Self::V;
        /// Lane-wise product of reals.
        unsafe fn times(a: Self::V, b: Self::V) -> Self::V;
        /// Every lane's sign flipped, as the scalar `Neg` (exact).
        unsafe fn neg(v: Self::V) -> Self::V;
        /// Values `k..k + N` of the `2N` rows at `rows`, transposed into
        /// split planes (exact): `b[2q]` holds the real parts of value
        /// `k + q` of every row, lane `p` from row `p`, and `b[2q + 1]` the
        /// imaginary parts.
        unsafe fn load_split(rows: &[*const Complex<Self::R>; PANEL_MAX], k: usize)
            -> Planes<Self>;
        /// `load_split` undone: stores the split planes `b` back as values
        /// `k..k + N` of the rows.
        unsafe fn store_split(
            b: &Planes<Self>,
            rows: &[*mut Complex<Self::R>; PANEL_MAX],
            k: usize,
        );
    }

    /// The most rows a panel holds: `2N` at AVX2 `f32`.
    const PANEL_MAX: usize = 8;

    /// The `2N` vectors of a block of split planes, in the first `2N` slots.
    type Planes<L> = [<L as Lanes>::V; PANEL_MAX];

    /// The lane types of each tier at one precision.
    pub(super) trait Tiers: Real {
        type Sse2: Panel<R = Self>;
        type Avx2: Panel<R = Self>;
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
        /// Replicates the scalar complex multiply
        /// `(b.re·w.re − b.im·w.im, b.re·w.im + b.im·w.re)` with the same two
        /// multiplies and one add/subtract per lane — bit-identical. The
        /// imaginary lane sums `b.im·w.re + b.re·w.im`: the same products,
        /// added the other way round, which IEEE addition does not see.
        /// One shuffle per product, of `b`; the splats are the caller's.
        #[inline(always)]
        unsafe fn mul(b: __m128d, w_re: __m128d, w_im: __m128d) -> __m128d {
            let b_swapped = _mm_shuffle_pd::<0b01>(b, b); // [b.im, b.re]

            // `[-0.0, 0.0]`: XORing flips the sign of lane 0 only, turning
            // the add into `[x0 − y0, x1 + y1]` (IEEE subtraction *is*
            // addition of the negation, so this matches the scalar subtract).
            let prod_im = _mm_xor_pd(_mm_mul_pd(b_swapped, w_im), _mm_set_pd(0.0, -0.0));
            _mm_add_pd(_mm_mul_pd(b, w_re), prod_im)
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

    impl Panel for Sse2F64 {
        #[inline(always)]
        unsafe fn broadcast(x: f64) -> __m128d {
            _mm_set1_pd(x)
        }
        #[inline(always)]
        unsafe fn times(a: __m128d, b: __m128d) -> __m128d {
            _mm_mul_pd(a, b)
        }
        #[inline(always)]
        unsafe fn neg(v: __m128d) -> __m128d {
            _mm_xor_pd(v, _mm_set1_pd(-0.0))
        }
        /// Two rows, one value each: one unpack per plane.
        #[inline(always)]
        unsafe fn load_split(rows: &[*const Complex<f64>; PANEL_MAX], k: usize) -> Planes<Self> {
            let (r0, r1) = (Self::load(rows[0].add(k)), Self::load(rows[1].add(k)));
            let mut b = [_mm_setzero_pd(); PANEL_MAX];
            b[0] = _mm_unpacklo_pd(r0, r1);
            b[1] = _mm_unpackhi_pd(r0, r1);
            b
        }
        #[inline(always)]
        unsafe fn store_split(b: &Planes<Self>, rows: &[*mut Complex<f64>; PANEL_MAX], k: usize) {
            Self::store(rows[0].add(k), _mm_unpacklo_pd(b[0], b[1]));
            Self::store(rows[1].add(k), _mm_unpackhi_pd(b[0], b[1]));
        }
    }

    impl Lanes for Avx2F64 {
        type R = f64;
        const N: usize = 2;
        type V = __m256d;
        type One = Sse2F64;
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
        /// [`Sse2F64::mul`] on two values: both products rounded, then
        /// `addsub` — deliberately not `vfmaddsub`, which would drop a
        /// rounding (see the module docs).
        #[inline(always)]
        unsafe fn mul(b: __m256d, w_re: __m256d, w_im: __m256d) -> __m256d {
            let b_swapped = _mm256_permute_pd(b, 0b0101); // [b0.im, b0.re, b1.im, b1.re]

            // even lanes: b.re·w.re − b.im·w.im, odd lanes: b.im·w.re + b.re·w.im
            _mm256_addsub_pd(_mm256_mul_pd(b, w_re), _mm256_mul_pd(b_swapped, w_im))
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

    impl Panel for Avx2F64 {
        #[inline(always)]
        unsafe fn broadcast(x: f64) -> __m256d {
            _mm256_set1_pd(x)
        }
        #[inline(always)]
        unsafe fn times(a: __m256d, b: __m256d) -> __m256d {
            _mm256_mul_pd(a, b)
        }
        #[inline(always)]
        unsafe fn neg(v: __m256d) -> __m256d {
            _mm256_xor_pd(v, _mm256_set1_pd(-0.0))
        }
        /// Each value's 128 bits of rows `p` and `p + 2` loaded into the two
        /// halves of one vector, so one in-lane unpack per plane finishes the
        /// transpose.
        #[inline(always)]
        unsafe fn load_split(rows: &[*const Complex<f64>; PANEL_MAX], k: usize) -> Planes<Self> {
            let mut b = [_mm256_setzero_pd(); PANEL_MAX];
            for q in 0..2 {
                let half = |p: usize| rows[p].add(k + q) as *const f64;
                let x0 = _mm256_loadu2_m128d(half(2), half(0)); // [row 0 | row 2]
                let x1 = _mm256_loadu2_m128d(half(3), half(1)); // [row 1 | row 3]
                b[2 * q] = _mm256_unpacklo_pd(x0, x1);
                b[2 * q + 1] = _mm256_unpackhi_pd(x0, x1);
            }
            b
        }
        #[inline(always)]
        unsafe fn store_split(b: &Planes<Self>, rows: &[*mut Complex<f64>; PANEL_MAX], k: usize) {
            for q in 0..2 {
                let half = |p: usize| rows[p].add(k + q) as *mut f64;
                let x0 = _mm256_unpacklo_pd(b[2 * q], b[2 * q + 1]);
                let x1 = _mm256_unpackhi_pd(b[2 * q], b[2 * q + 1]);
                _mm256_storeu2_m128d(half(2), half(0), x0);
                _mm256_storeu2_m128d(half(3), half(1), x1);
            }
        }
    }

    impl Lanes for Sse2F32 {
        type R = f32;
        const N: usize = 2;
        type V = __m128;
        type One = OneF32;
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
        /// [`Sse2F64::mul`] on two `f32` values: the same two multiplies
        /// and one add of the sign-flipped product per lane.
        #[inline(always)]
        unsafe fn mul(b: __m128, w_re: __m128, w_im: __m128) -> __m128 {
            let b_swapped = _mm_shuffle_ps::<0b10_11_00_01>(b, b); // [b0.im, b0.re, b1.im, b1.re]
            let prod_im = _mm_xor_ps(
                _mm_mul_ps(b_swapped, w_im),
                _mm_set_ps(0.0, -0.0, 0.0, -0.0),
            );
            _mm_add_ps(_mm_mul_ps(b, w_re), prod_im)
        }
        #[inline(always)]
        unsafe fn add(a: __m128, b: __m128) -> __m128 {
            _mm_add_ps(a, b)
        }
        #[inline(always)]
        unsafe fn sub(a: __m128, b: __m128) -> __m128 {
            _mm_sub_ps(a, b)
        }
    }

    /// The 4 × 4 transpose of `x` (exact): lane `p` of `x[e]` to lane `e`
    /// of `x[p]`.
    #[inline(always)]
    unsafe fn transpose4(x: [__m128; 4]) -> [__m128; 4] {
        let t0 = _mm_unpacklo_ps(x[0], x[1]); // [0₀ 0₁ 1₀ 1₁]
        let t1 = _mm_unpackhi_ps(x[0], x[1]); // [2₀ 2₁ 3₀ 3₁]
        let t2 = _mm_unpacklo_ps(x[2], x[3]);
        let t3 = _mm_unpackhi_ps(x[2], x[3]);
        [
            _mm_movelh_ps(t0, t2),
            _mm_movehl_ps(t2, t0),
            _mm_movelh_ps(t1, t3),
            _mm_movehl_ps(t3, t1),
        ]
    }

    /// [`transpose4`] in each 128-bit half.
    #[inline(always)]
    unsafe fn transpose4x2(x: [__m256; 4]) -> [__m256; 4] {
        let t0 = _mm256_unpacklo_ps(x[0], x[1]);
        let t1 = _mm256_unpackhi_ps(x[0], x[1]);
        let t2 = _mm256_unpacklo_ps(x[2], x[3]);
        let t3 = _mm256_unpackhi_ps(x[2], x[3]);
        [
            _mm256_shuffle_ps::<0b01_00_01_00>(t0, t2),
            _mm256_shuffle_ps::<0b11_10_11_10>(t0, t2),
            _mm256_shuffle_ps::<0b01_00_01_00>(t1, t3),
            _mm256_shuffle_ps::<0b11_10_11_10>(t1, t3),
        ]
    }

    impl Panel for Sse2F32 {
        #[inline(always)]
        unsafe fn broadcast(x: f32) -> __m128 {
            _mm_set1_ps(x)
        }
        #[inline(always)]
        unsafe fn times(a: __m128, b: __m128) -> __m128 {
            _mm_mul_ps(a, b)
        }
        #[inline(always)]
        unsafe fn neg(v: __m128) -> __m128 {
            _mm_xor_ps(v, _mm_set1_ps(-0.0))
        }
        #[inline(always)]
        unsafe fn load_split(rows: &[*const Complex<f32>; PANEL_MAX], k: usize) -> Planes<Self> {
            let load = |p: usize| Self::load(rows[p].add(k));
            let x = transpose4([load(0), load(1), load(2), load(3)]);
            let mut b = [_mm_setzero_ps(); PANEL_MAX];
            b[..4].copy_from_slice(&x);
            b
        }
        #[inline(always)]
        unsafe fn store_split(b: &Planes<Self>, rows: &[*mut Complex<f32>; PANEL_MAX], k: usize) {
            let x = transpose4([b[0], b[1], b[2], b[3]]);
            for p in 0..4 {
                Self::store(rows[p].add(k), x[p]);
            }
        }
    }

    impl Lanes for Avx2F32 {
        type R = f32;
        const N: usize = 4;
        type V = __m256;
        type One = OneF32;
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
        /// [`Avx2F64::mul`] on four `f32` values: both products rounded,
        /// then `addsub`, never `vfmaddsub`.
        #[inline(always)]
        unsafe fn mul(b: __m256, w_re: __m256, w_im: __m256) -> __m256 {
            let b_swapped = _mm256_permute_ps::<0b10_11_00_01>(b); // [b0.im, b0.re, …]
            _mm256_addsub_ps(_mm256_mul_ps(b, w_re), _mm256_mul_ps(b_swapped, w_im))
        }
        #[inline(always)]
        unsafe fn add(a: __m256, b: __m256) -> __m256 {
            _mm256_add_ps(a, b)
        }
        #[inline(always)]
        unsafe fn sub(a: __m256, b: __m256) -> __m256 {
            _mm256_sub_ps(a, b)
        }
    }

    impl Panel for Avx2F32 {
        #[inline(always)]
        unsafe fn broadcast(x: f32) -> __m256 {
            _mm256_set1_ps(x)
        }
        #[inline(always)]
        unsafe fn times(a: __m256, b: __m256) -> __m256 {
            _mm256_mul_ps(a, b)
        }
        #[inline(always)]
        unsafe fn neg(v: __m256) -> __m256 {
            _mm256_xor_ps(v, _mm256_set1_ps(-0.0))
        }
        /// Each pair of values of rows `p` and `p + 4` loaded into the two
        /// halves of one vector, so a 4 × 4 transpose within each half
        /// finishes the transpose, with no lane-crossing shuffle.
        #[inline(always)]
        unsafe fn load_split(rows: &[*const Complex<f32>; PANEL_MAX], k: usize) -> Planes<Self> {
            let mut b = [_mm256_setzero_ps(); PANEL_MAX];
            for q in 0..2 {
                let half = |p: usize| rows[p].add(k + 2 * q) as *const f32;
                let x = [
                    _mm256_loadu2_m128(half(4), half(0)),
                    _mm256_loadu2_m128(half(5), half(1)),
                    _mm256_loadu2_m128(half(6), half(2)),
                    _mm256_loadu2_m128(half(7), half(3)),
                ];
                b[4 * q..4 * q + 4].copy_from_slice(&transpose4x2(x));
            }
            b
        }
        #[inline(always)]
        unsafe fn store_split(b: &Planes<Self>, rows: &[*mut Complex<f32>; PANEL_MAX], k: usize) {
            for q in 0..2 {
                let half = |p: usize| rows[p].add(k + 2 * q) as *mut f32;
                let x = transpose4x2([b[4 * q], b[4 * q + 1], b[4 * q + 2], b[4 * q + 3]]);
                for (p, x) in x.into_iter().enumerate() {
                    _mm256_storeu2_m128(half(p + 4), half(p), x);
                }
            }
        }
    }

    /// [`Sse2F32`]'s arithmetic on the low two floats; the high two are
    /// zero on load and never stored.
    impl Lanes for OneF32 {
        type R = f32;
        const N: usize = 1;
        type V = __m128;
        type One = OneF32;
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
        unsafe fn mul(b: __m128, w_re: __m128, w_im: __m128) -> __m128 {
            Sse2F32::mul(b, w_re, w_im)
        }
        #[inline(always)]
        unsafe fn add(a: __m128, b: __m128) -> __m128 {
            Sse2F32::add(a, b)
        }
        #[inline(always)]
        unsafe fn sub(a: __m128, b: __m128) -> __m128 {
            Sse2F32::sub(a, b)
        }
    }

    /// `w.re` and `w.im`, each in every lane: what a product under `w`
    /// reads.
    #[inline(always)]
    unsafe fn splat_pair<L: Lanes>(w: Complex<L::R>) -> (L::V, L::V) {
        (
            L::splat(Complex::new(w.re, w.re)),
            L::splat(Complex::new(w.im, w.im)),
        )
    }

    /// # Safety
    /// `a + k` and `b + k` must address `L::N` valid values.
    #[inline(always)]
    unsafe fn butterfly<L: Lanes>(
        a: *mut Complex<L::R>,
        b: *mut Complex<L::R>,
        k: usize,
        (w_re, w_im): (L::V, L::V),
    ) {
        let t = L::mul(L::load(b.add(k)), w_re, w_im);
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

    /// `n` one-stage butterflies between the runs at `lo` and `hi`, all
    /// under `w`.
    ///
    /// # Safety
    /// `lo` and `hi` must address `n` valid values each.
    #[inline(always)]
    unsafe fn run1<L: Lanes>(
        lo: *mut Complex<L::R>,
        hi: *mut Complex<L::R>,
        w: Complex<L::R>,
        n: usize,
    ) {
        let (wide, one) = (splat_pair::<L>(w), splat_pair::<L::One>(w));
        let mut k = 0;
        while k + L::N <= n {
            butterfly::<L>(lo, hi, k, wide);
            k += L::N;
        }
        while k < n {
            butterfly::<L::One>(lo, hi, k, one);
            k += 1;
        }
    }

    /// `n` two-stage butterflies between the four runs at `x`, all under the
    /// same three twiddles.
    ///
    /// # Safety
    /// Every `x[i]` must address `n` valid values.
    #[inline(always)]
    unsafe fn run2<L: Lanes>(
        x: [*mut Complex<L::R>; 4],
        [wa, wb0, wb1]: [Complex<L::R>; 3],
        n: usize,
    ) {
        let wide = (
            splat_pair::<L>(wa),
            splat_pair::<L>(wb0),
            splat_pair::<L>(wb1),
        );
        let one = (
            splat_pair::<L::One>(wa),
            splat_pair::<L::One>(wb0),
            splat_pair::<L::One>(wb1),
        );
        let mut k = 0;
        while k + L::N <= n {
            butterfly2::<L>(x, k, wide.0, wide.1, wide.2);
            k += L::N;
        }
        while k < n {
            butterfly2::<L::One>(x, k, one.0, one.1, one.2);
            k += 1;
        }
    }

    // The sweeps of the parent module, once over `Lanes`. Each relies on what
    // its dispatcher established: the CPU supports `L`; for the row pass the
    // field, source and factor lengths, the bit-reversal tables being
    // involutions of their index ranges, the stage table lengths and a row
    // length of at most `SHORT_PANEL_LEN` (`rows`) or `MAX_PANEL_LEN`
    // (`long_rows`); for the two-stage column sweep
    // `wb.len() == 2 * wa.len()`. All other indexing stays inside a
    // `chunks_exact_mut` block or a slice's own length.

    // The factor kinds a row pass is instantiated for.
    const ONE: u8 = 0;
    const MUL: u8 = 1;
    const CONJ: u8 = 2;

    #[inline(always)]
    unsafe fn rows<L: Panel>(
        data: &mut [Complex<L::R>],
        source: Option<Source<'_, L::R>>,
        pass: &RowPass<'_, L::R>,
    ) {
        rows_in::<L, SHORT_PANEL_LEN>(data, source, pass)
    }

    #[inline(always)]
    unsafe fn long_rows<L: Panel>(
        data: &mut [Complex<L::R>],
        source: Option<Source<'_, L::R>>,
        pass: &RowPass<'_, L::R>,
    ) {
        rows_in::<L, MAX_PANEL_LEN>(data, source, pass)
    }

    /// The row pass over planes for rows of up to `CAP` values.
    #[inline(always)]
    unsafe fn rows_in<L: Panel, const CAP: usize>(
        data: &mut [Complex<L::R>],
        source: Option<Source<'_, L::R>>,
        pass: &RowPass<'_, L::R>,
    ) {
        let dst = data.as_mut_ptr();
        let none = (core::ptr::null(), 0);
        let Some(Source { values, factor }) = source else {
            return panels::<L, ONE, CAP>(dst, dst, none, pass);
        };
        let src = values.as_ptr();
        let Some(f) = factor else {
            return panels::<L, ONE, CAP>(dst, src, none, pass);
        };
        let f_rows = (f.values().as_ptr(), f.stride(pass.within.len()));
        if f.is_conj() {
            panels::<L, CONJ, CAP>(dst, src, f_rows, pass)
        } else {
            panels::<L, MUL, CAP>(dst, src, f_rows, pass)
        }
    }

    /// Up to `PANEL_MAX` input rows a panel transforms together.
    struct RowPanel {
        rows: [usize; PANEL_MAX],
        len: usize,
    }

    /// The panels of a row pass: its rows, `height` (even) at a time and
    /// fewer in the last panel, each panel holding with row `i` its partner
    /// `order[i]`, so that in place a panel writes only rows it has read.
    /// The rows of the partnered pairs come first, two by two, so no panel
    /// boundary splits a pair; the rows that are their own partner follow.
    fn row_panels(order: &[u32], height: usize) -> impl Iterator<Item = RowPanel> + '_ {
        let partner = move |i: usize| order[i] as usize;
        let pairs = (0..order.len())
            .filter(move |&i| i < partner(i))
            .flat_map(move |i| [i, partner(i)]);
        let alone = (0..order.len()).filter(move |&i| i == partner(i));
        let mut rows = pairs.chain(alone);
        core::iter::from_fn(move || {
            let mut panel = RowPanel {
                rows: [0; PANEL_MAX],
                len: 0,
            };
            for (slot, i) in panel.rows[..height].iter_mut().zip(&mut rows) {
                *slot = i;
                panel.len += 1;
            }
            (panel.len > 0).then_some(panel)
        })
    }

    /// The row pass, a panel of `2N` rows at a time (see the module docs),
    /// for rows of up to `CAP` values. `src` may be `dst` itself; the factor
    /// is its first value and the distance between its rows' starts.
    #[inline(always)]
    unsafe fn panels<L: Panel, const K: u8, const CAP: usize>(
        dst: *mut Complex<L::R>,
        src: *const Complex<L::R>,
        (factor, stride): (*const Complex<L::R>, usize),
        pass: &RowPass<'_, L::R>,
    ) {
        let n = pass.within.len();
        // Position `k`'s real and imaginary parts: the planes interleaved.
        let mut planes = MaybeUninit::<[[L::V; 2]; CAP]>::uninit();
        let planes = planes.as_mut_ptr().cast::<L::V>();
        // A row shorter than a vector leaves the planes past it at zero.
        for v in 0..2 * L::N {
            planes.add(v).write(L::broadcast(<L::R as Real>::ZERO));
        }
        for panel in row_panels(pass.order, 2 * L::N) {
            // A partial panel's spare lanes repeat its last row: they compute
            // its values and store them to its row again.
            let row = |p: usize| panel.rows[p.min(panel.len - 1)];
            let x = core::array::from_fn(|p| src.add(n * row(p)));
            let f = core::array::from_fn(|p| factor.wrapping_add(stride * row(p)));
            let to = core::array::from_fn(|p| dst.add(n * pass.order[row(p)] as usize));
            if n < L::N {
                padded_panel::<L, K>(planes, x, f, to, pass);
            } else {
                panel_of::<L, K>(planes, &x, &f, &to, pass);
            }
        }
    }

    /// One panel: its rows at `x` (times the factor rows at `f`) split into
    /// `planes`, transformed, and stored at `to`.
    ///
    /// # Safety
    /// As [`split`] and [`join`].
    #[inline(always)]
    unsafe fn panel_of<L: Panel, const K: u8>(
        planes: *mut L::V,
        x: &[*const Complex<L::R>; PANEL_MAX],
        f: &[*const Complex<L::R>; PANEL_MAX],
        to: &[*mut Complex<L::R>; PANEL_MAX],
        pass: &RowPass<'_, L::R>,
    ) {
        let n = pass.within.len();
        split::<L, K>(planes, x, f, pass.within);
        split_stages::<L>(planes, n, pass.stages);
        join::<L>(planes, to, n, pass.scale);
    }

    /// [`panel_of`] for rows shorter than a vector, through copies one
    /// vector long whose padding is never stored.
    ///
    /// # Safety
    /// As [`panel_of`], for rows of `within.len() < N` values.
    #[inline(always)]
    unsafe fn padded_panel<L: Panel, const K: u8>(
        planes: *mut L::V,
        x: [*const Complex<L::R>; PANEL_MAX],
        f: [*const Complex<L::R>; PANEL_MAX],
        to: [*mut Complex<L::R>; PANEL_MAX],
        pass: &RowPass<'_, L::R>,
    ) {
        let n = pass.within.len();
        let zero = Complex::new(<L::R as Real>::ZERO, <L::R as Real>::ZERO);
        let [mut xs, mut fs, mut out] = [[[zero; 4]; PANEL_MAX]; 3];
        for p in 0..2 * L::N {
            core::ptr::copy_nonoverlapping(x[p], xs[p].as_mut_ptr(), n);
            if K != ONE {
                core::ptr::copy_nonoverlapping(f[p], fs[p].as_mut_ptr(), n);
            }
        }
        let out_rows = out.each_mut().map(|row| row.as_mut_ptr());
        panel_of::<L, K>(
            planes,
            &xs.each_ref().map(|row| row.as_ptr()),
            &fs.each_ref().map(|row| row.as_ptr()),
            &out_rows,
            pass,
        );
        for p in 0..2 * L::N {
            core::ptr::copy_nonoverlapping(out_rows[p], to[p], n);
        }
    }

    /// Loads the panel rows at `x`, each value times the factor at `f` as
    /// kind `K` asks, and stores them transposed into `planes`: value `k` of
    /// every row at `2·within[k]` (the real parts) and `2·within[k] + 1`
    /// (the imaginary parts).
    ///
    /// # Safety
    /// Every `x[p]`, and unless `K` is `ONE` every `f[p]`, must address
    /// `max(within.len(), N)` valid values; `planes` must hold
    /// `2·within.len()` vectors.
    #[inline(always)]
    unsafe fn split<L: Panel, const K: u8>(
        planes: *mut L::V,
        x: &[*const Complex<L::R>; PANEL_MAX],
        f: &[*const Complex<L::R>; PANEL_MAX],
        within: &[u32],
    ) {
        for k in (0..within.len()).step_by(L::N) {
            let b = L::load_split(x, k);
            let fb = if K == ONE { b } else { L::load_split(f, k) };
            for q in 0..L::N {
                let mut v = (b[2 * q], b[2 * q + 1]);
                if K != ONE {
                    let im = fb[2 * q + 1];
                    v = split_mul::<L>(v, (fb[2 * q], if K == CONJ { L::neg(im) } else { im }));
                }
                if let Some(&r) = within.get(k + q) {
                    put::<L>(planes.add(2 * r as usize), v);
                }
            }
        }
    }

    /// Transposes `planes` back into rows, each value times `scale`, and
    /// stores panel row `p` at `to[p]`.
    ///
    /// # Safety
    /// `planes` must hold `2·max(n, N)` initialised vectors and every
    /// `to[p]` must address `max(n, N)` valid values.
    #[inline(always)]
    unsafe fn join<L: Panel>(
        planes: *const L::V,
        to: &[*mut Complex<L::R>; PANEL_MAX],
        n: usize,
        scale: L::R,
    ) {
        let scale = (scale != <L::R as Real>::ONE).then(|| L::broadcast(scale));
        for k in (0..n).step_by(L::N) {
            let mut b: Planes<L> = [L::broadcast(<L::R as Real>::ZERO); PANEL_MAX];
            for (e, b) in b.iter_mut().enumerate().take(2 * L::N) {
                *b = *planes.add(2 * k + e);
                if let Some(s) = scale {
                    *b = L::times(*b, s);
                }
            }
            L::store_split(&b, to, k);
        }
    }

    /// One value of a split plane per row: its real and imaginary parts.
    type Split<V> = (V, V);

    /// The split value at `p`.
    ///
    /// # Safety
    /// `p` must address two initialised vectors.
    #[inline(always)]
    unsafe fn get<L: Lanes>(p: *const L::V) -> Split<L::V> {
        (*p, *p.add(1))
    }

    /// Stores the split value `v` at `p`.
    ///
    /// # Safety
    /// `p` must address two vectors.
    #[inline(always)]
    unsafe fn put<L: Lanes>(p: *mut L::V, (re, im): Split<L::V>) {
        p.write(re);
        p.add(1).write(im);
    }

    /// `b·w` for every row, as the scalar `Mul`: `(b.re·w.re − b.im·w.im,
    /// b.re·w.im + b.im·w.re)`.
    #[inline(always)]
    unsafe fn split_mul<L: Panel>((re, im): Split<L::V>, (wre, wim): Split<L::V>) -> Split<L::V> {
        (
            L::sub(L::times(re, wre), L::times(im, wim)),
            L::add(L::times(re, wim), L::times(im, wre)),
        )
    }

    /// `(a + t, a − t)` for every row.
    #[inline(always)]
    unsafe fn split_add_sub<L: Lanes>(
        a: Split<L::V>,
        t: Split<L::V>,
    ) -> (Split<L::V>, Split<L::V>) {
        (
            (L::add(a.0, t.0), L::add(a.1, t.1)),
            (L::sub(a.0, t.0), L::sub(a.1, t.1)),
        )
    }

    /// `w` broadcast to every row, split.
    #[inline(always)]
    unsafe fn split_twiddle<L: Panel>(w: Complex<L::R>) -> Split<L::V> {
        (L::broadcast(w.re), L::broadcast(w.im))
    }

    /// Every stage of the row transform over `n` split positions, two stages
    /// per sweep and an odd last one alone; each twiddle is broadcast to the
    /// panel's rows.
    ///
    /// # Safety
    /// `x` must hold `2n` initialised vectors.
    #[inline(always)]
    unsafe fn split_stages<L: Panel>(x: *mut L::V, n: usize, stages: &[Stage<L::R>]) {
        let at = |k: usize| x.add(2 * k);
        let mut pairs = stages.chunks_exact(2);
        for pair in &mut pairs {
            let (wa, wb) = (&pair[0].w, &pair[1].w);
            let h = wa.len();
            for j in 0..h {
                let wa = split_twiddle::<L>(wa[j]);
                let (wb0, wb1) = (split_twiddle::<L>(wb[j]), split_twiddle::<L>(wb[j + h]));
                for k in (j..n).step_by(4 * h) {
                    let t = split_mul::<L>(get::<L>(at(k + h)), wa);
                    let (y0, y1) = split_add_sub::<L>(get::<L>(at(k)), t);
                    let t = split_mul::<L>(get::<L>(at(k + 3 * h)), wa);
                    let (y2, y3) = split_add_sub::<L>(get::<L>(at(k + 2 * h)), t);
                    let (z0, z2) = split_add_sub::<L>(y0, split_mul::<L>(y2, wb0));
                    put::<L>(at(k), z0);
                    put::<L>(at(k + 2 * h), z2);
                    let (z1, z3) = split_add_sub::<L>(y1, split_mul::<L>(y3, wb1));
                    put::<L>(at(k + h), z1);
                    put::<L>(at(k + 3 * h), z3);
                }
            }
        }
        if let [last] = pairs.remainder() {
            let h = n / 2;
            for (j, &w) in last.w.iter().enumerate() {
                let t = split_mul::<L>(get::<L>(at(j + h)), split_twiddle::<L>(w));
                let (lo, hi) = split_add_sub::<L>(get::<L>(at(j)), t);
                put::<L>(at(j), lo);
                put::<L>(at(j + h), hi);
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
                run1::<L>(lo.add(k * cols), hi.add(k * cols), *w, cols);
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
                run2::<L>(x, [wa.w[j], wb.w[j], wb.w[j + h]], cols);
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
    per_tier!(sse2_long_rows, avx2_long_rows, long_rows(data: &mut [Complex<R>], source: Option<Source<'_, R>>, pass: &RowPass<'_, R>));
    per_tier!(sse2_column, avx2_column, column(data: &mut [Complex<R>], cols: usize, stage: &Stage<R>));

    /// `super::amplitude_seed`'s chunks, compiled at AVX2.
    ///
    /// # Safety
    /// The caller must have confirmed `avx2` at runtime.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn avx2_amplitude_seed<R: Real>(
        far_field: &[Complex<R>],
        measured: &[f64],
        transfer: &[Complex<R>],
        seed: &mut [Complex<R>],
    ) -> f64 {
        super::amplitude_seed_chunks(far_field, measured, transfer, seed)
    }
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

    /// The column transform's bit reversal for a power-of-two row count;
    /// for any other count an involution that pairs rows `3t + 1` and
    /// `3t + 2` and leaves the multiples of three alone, so panels mix
    /// partnered pairs and lone rows and the last one is partial.
    fn row_order(rows: usize) -> Vec<u32> {
        if rows.is_power_of_two() {
            return bit_reversal(rows);
        }
        (0..rows)
            .map(|i| match i % 3 {
                1 if i + 1 < rows => i + 1,
                2 => i - 1,
                _ => i,
            } as u32)
            .collect()
    }

    /// Every combination the row pass is instantiated for — in place, or
    /// from a source with no factor / `x·f` / `x·conj(f)`, the last also
    /// with its rows a value apart — forward, inverse
    /// (the conjugated tables) and scaled inverse, at every tier against the
    /// scalar loops, for each row length and row count given. The tables are
    /// not twiddles, so a butterfly fed the wrong entry cannot cancel.
    fn row_passes_match_scalar<R: Real>(lengths: &[usize], row_counts: &[usize]) {
        let levels = SimdLevel::available_levels();
        for &n in lengths {
            let forward: Vec<Stage<R>> = (0..n.trailing_zeros())
                .map(|s| Stage::new(test_data(3 << s).split_off(2 << s)))
                .collect();
            let inverse: Vec<Stage<R>> = forward.iter().map(Stage::conj).collect();
            let within = bit_reversal(n);
            for &rows in row_counts {
                let order = row_order(rows);
                let input = test_data::<R>(rows * n);
                let f = test_data::<R>(rows * n + 5).split_off(5);
                let from = |factor| {
                    Some(Source {
                        values: &input,
                        factor,
                    })
                };
                let wide = test_data::<R>(rows * (n + 1));
                let sources = [
                    None,
                    from(None),
                    from(Some(Factor::mul(&f))),
                    from(Some(Factor::mul_conj(&f))),
                    from(Some(Factor::mul_conj(&wide[1..]).with_stride(n + 1))),
                ];
                let inverse_scale = R::from_f64(1.0 / (rows * n) as f64);
                let directions = [
                    ("forward", &forward, R::ONE),
                    ("inverse", &inverse, R::ONE),
                    ("scaled inverse", &inverse, inverse_scale),
                ];
                for source in sources {
                    for (direction, stages, scale) in directions {
                        let pass = RowPass {
                            within: &within,
                            order: &order,
                            stages,
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
                        let scalar = run(SimdLevel::Scalar);
                        for &level in &levels[1..] {
                            assert!(
                                scalar == run(level),
                                "{rows}x{n} at {level:?}, {direction}, source={:?}",
                                source.map(|s| s.factor)
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn every_tier_row_pass_bit_identical_to_scalar() {
        // Rows of 1 and 2 values are shorter than most vectors; 4, 16 and 64
        // end on a two-stage sweep, 8 and 32 on a one-stage one.
        let lengths = [1, 2, 4, 8, 16, 32, 64];
        row_passes_match_scalar::<f64>(&lengths, &[1, 2, 4]);
        row_passes_match_scalar::<f32>(&lengths, &[1, 2, 4]);
    }

    #[test]
    fn panels_of_every_row_count_and_length_match_scalar() {
        // Row counts no panel height (2, 4 or 8) divides, and whole panels;
        // every power-of-two length up to the longest a panel takes. One row
        // runs at the scalar tier; the odd counts leave a partial panel at
        // every vector tier (9 a one-row panel after a full one).
        let lengths: Vec<usize> = (0..=MAX_PANEL_LEN.trailing_zeros())
            .map(|e| 1 << e)
            .collect();
        let row_counts = [1, 2, 3, 5, 7, 8, 9, 12, 16];
        row_passes_match_scalar::<f64>(&lengths, &row_counts);
        row_passes_match_scalar::<f32>(&lengths, &row_counts);
    }

    #[test]
    fn panel_rows_longer_than_a_panel_takes_run_at_the_scalar_tier() {
        row_passes_match_scalar::<f64>(&[2 * MAX_PANEL_LEN], &[1, 3]);
        row_passes_match_scalar::<f32>(&[2 * MAX_PANEL_LEN], &[1, 3]);
    }

    /// The amplitude step as the multi-slice adjoint ran it inline, one
    /// value at a time: the reference every tier's `amplitude_seed` is held
    /// to.
    fn reference_amplitude_seed<R: Real>(
        far_field: &[Complex<R>],
        measured: &[f64],
        transfer: &[Complex<R>],
        seed: &mut [Complex<R>],
    ) -> f64 {
        let mut loss = 0.0;
        for (((b, d), y), h) in seed.iter_mut().zip(far_field).zip(measured).zip(transfer) {
            let a = d.abs();
            let r = a - R::from_f64(*y);
            let wide = r.to_f64();
            loss += wide * wide;
            *b = if a == R::ZERO {
                Complex::ZERO
            } else {
                d.scale(r / a) * h.conj()
            };
        }
        loss
    }

    /// Far-field values that reach every branch of the amplitude step:
    /// zeros of each sign pattern (`a == 0`), subnormal parts, an infinite
    /// part beside a NaN or a finite part, a NaN beside a finite part, and
    /// ordinary values between them.
    fn amplitude_far_field<R: Real>(len: usize) -> Vec<Complex<R>> {
        let (zero, sub) = (R::from_f64(0.0), R::from_bit_pattern(1));
        let (inf, nan) = (R::from_f64(f64::INFINITY), R::from_f64(f64::NAN));
        let specials = [
            Complex::new(zero, zero),
            Complex::new(-zero, zero),
            Complex::new(zero, -zero),
            Complex::new(-zero, -zero),
            Complex::new(sub, zero),
            Complex::new(-sub, sub),
            Complex::new(zero, -R::from_bit_pattern(0x7)),
            Complex::new(inf, nan),
            Complex::new(nan, -inf),
            Complex::new(-inf, R::from_f64(0.5)),
            Complex::new(nan, R::from_f64(2.0)),
        ];
        let ordinary = test_data::<R>(len);
        (0..len)
            .map(|i| match i % 3 {
                0 => specials[(i / 3) % specials.len()],
                _ => ordinary[i].scale(R::from_f64(1.0 + i as f64 * 0.25)),
            })
            .collect()
    }

    /// Measured amplitudes: values halfway between two neighbouring `f32`
    /// (round-to-even ties, both ways), values just off those ties, zeros of
    /// both signs, a NaN, one past `f32::MAX`, and ordinary ones.
    fn amplitude_measured(len: usize) -> Vec<f64> {
        let ulp = 2f64.powi(-23);
        let specials = [
            1.0 + ulp / 2.0,
            1.0 + 1.5 * ulp,
            0.75 + ulp / 4.0,
            1.0 + ulp / 2.0 + 2f64.powi(-40),
            3.0 - ulp,
            0.0,
            -0.0,
            f64::NAN,
            f64::from(f32::MAX) * 2.0,
            -1.25,
        ];
        (0..len)
            .map(|i| match i % 2 {
                0 => specials[(i / 2) % specials.len()],
                _ => (i as f64 * 0.73).sin().abs() * 3.0,
            })
            .collect()
    }

    fn amplitude_seeds_match_the_reference<R: Real>() {
        // Lengths that no chunk of 4 or 8 values divides, whole chunks, and
        // none.
        let lengths = [0usize, 1, 3, 5, 7, 8, 11, 13, 16, 21, 29, 64, 67, 131];
        for level in SimdLevel::available_levels() {
            for len in lengths {
                let far_field = amplitude_far_field::<R>(len);
                let measured = amplitude_measured(len);
                let mut transfer = test_data::<R>(len + 3).split_off(3);
                if let Some(h) = transfer.get_mut(2) {
                    *h = Complex::new(-R::ZERO, R::ZERO);
                }
                let nan = Complex::new(R::from_f64(f64::NAN), R::ONE);
                let mut want = vec![nan; len];
                let loss = reference_amplitude_seed(&far_field, &measured, &transfer, &mut want);
                let mut got = vec![nan; len];
                let tier_loss = amplitude_seed(level, &far_field, &measured, &transfer, &mut got);
                let case = format!("{len} values at {level:?}");
                assert_eq!(tier_loss.to_bits(), loss.to_bits(), "loss, {case}");
                assert_eq!(bits(&got), bits(&want), "seed, {case}");
                // Without the non-finite values, the loss is finite.
                let finite: Vec<_> = far_field
                    .iter()
                    .map(|d| if d.is_finite() { *d } else { Complex::ONE })
                    .collect();
                let measured: Vec<_> = measured
                    .iter()
                    .map(|y| if y.abs() <= 4.0 { *y } else { 1.0 })
                    .collect();
                let loss = reference_amplitude_seed(&finite, &measured, &transfer, &mut want);
                let tier_loss = amplitude_seed(level, &finite, &measured, &transfer, &mut got);
                assert!(loss.is_finite(), "{case}");
                assert_eq!(tier_loss.to_bits(), loss.to_bits(), "finite loss, {case}");
                assert_eq!(bits(&got), bits(&want), "finite seed, {case}");
            }
        }
    }

    #[test]
    fn amplitude_seed_is_bit_identical_to_the_reference_loop_at_every_tier() {
        amplitude_seeds_match_the_reference::<f64>();
        amplitude_seeds_match_the_reference::<f32>();
    }

    #[test]
    #[should_panic(expected = "amplitude seed lengths")]
    fn amplitude_seed_of_unequal_lengths_panics() {
        let (d, h) = (test_data::<f32>(4), test_data::<f32>(4));
        let mut seed = test_data::<f32>(3);
        amplitude_seed(SimdLevel::detect(), &d, &[1.0; 4], &h, &mut seed);
    }

    #[test]
    fn panel_tier_in_use() {
        // The release identity step runs the panel tests with
        // `--nocapture`, so its log names the vector tier they pinned.
        println!("simd tier: {}", SimdLevel::detect().label());
        assert!(SimdLevel::detect().is_available());
    }

    #[test]
    #[should_panic(expected = "bit-reversal table")]
    fn row_order_that_is_not_an_involution_panics() {
        let within = bit_reversal(4);
        let stages: Vec<Stage<f64>> = (0..2).map(|s| Stage::new(test_data(1 << s))).collect();
        let pass = RowPass {
            within: &within,
            order: &[1, 2, 0],
            stages: &stages,
            scale: 1.0,
        };
        row_pass(SimdLevel::detect(), &mut test_data(12), None, &pass);
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
            factor: Some(Factor::mul(&f)),
        };
        row_pass(SimdLevel::detect(), &mut test_data(4), Some(source), &pass);
    }

    /// A strided factor whose last row is cut short, whose rows overlap, or
    /// whose extent overflows `usize` (it would wrap to a length that fits)
    /// is refused before any kernel reads it.
    #[test]
    fn strided_factors_that_do_not_hold_the_rows_panic() {
        let within = bit_reversal(4);
        let stages: Vec<Stage<f64>> = (0..2).map(|s| Stage::new(test_data(1 << s))).collect();
        let pass = |order| RowPass {
            within: &within,
            order,
            stages: &stages,
            scale: 1.0,
        };
        let (two, four): (&[u32], &[u32]) = (&[1, 0], &[0, 2, 1, 3]);
        let plane = test_data(10);
        let refused = [
            (two, 6, 9),
            (two, 3, 10),
            // `stride + 4` wraps to 2 or 3.
            (two, usize::MAX - 1, 4),
            (two, usize::MAX, 10),
            // `3 · stride` wraps to 2.
            (four, usize::MAX / 3 + 1, 10),
        ];
        for (order, stride, len) in refused {
            let source = test_data(4 * order.len());
            let source = Source {
                values: &source,
                factor: Some(Factor::mul(&plane[..len]).with_stride(stride)),
            };
            let mut data = test_data(4 * order.len());
            let refused = std::panic::catch_unwind(move || {
                row_pass(SimdLevel::detect(), &mut data, Some(source), &pass(order))
            });
            assert!(refused.is_err(), "stride {stride}, {len} values");
        }
        // Rows 6 apart, the last one whole: accepted.
        let source = test_data(8);
        let source = Source {
            values: &source,
            factor: Some(Factor::mul(&plane).with_stride(6)),
        };
        row_pass(
            SimdLevel::detect(),
            &mut test_data(8),
            Some(source),
            &pass(two),
        );
    }
}
