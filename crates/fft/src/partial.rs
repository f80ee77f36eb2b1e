//! Pruned partial FFTs: skip butterflies that provably do nothing.
//!
//! Ptychography wastes most of a full-grid transform: the probe has compact
//! support (everything outside its window is exactly zero) and the detector
//! only reads a region of interest of the far field. A pruned transform
//! executes only the butterflies that touch non-zero inputs or contribute to
//! requested outputs — the classic "FFT pruning" of Markel (1971), revisited
//! for ptychography by Parada et al. (see `PAPERS.md`, 2408.03532).
//!
//! # Why pruning is *exact*, not approximate
//!
//! After the bit-reversal permutation, the radix-2 DIT stage of block size
//! `size` operates on contiguous blocks, and block `j` (at offset `j·size`)
//! holds the DFT of the input subsequence `x[o], x[o+s], x[o+2s], …` with
//! stride `s = n/size` and offset `o = rev_{log2 s}(j)`.
//!
//! * **Input pruning.** If the non-zero input run `[start, start+len)` misses
//!   every index of that subsequence (i.e. `o` is outside the run's residues
//!   mod `s`), the whole block is the DFT of zeros — zero. Skipping its
//!   butterflies leaves the zeros untouched, which is exactly what computing
//!   them would produce. Every *executed* butterfly performs the identical
//!   arithmetic the dense plan would, so pruned output is **bit-identical**
//!   to dense output (provided the zeros outside the declared support are
//!   positive zeros, which is what [`Complex64::ZERO`] padding writes).
//! * **Output pruning.** By induction over stages (each output of stage `s`
//!   depends on the two stage-`s` positions whose index agrees with it modulo
//!   `half`), producing outputs `[start, start+len)` only requires, at the
//!   stage with half-size `half`, the butterflies whose twiddle index lies in
//!   the wrapped interval `[start mod half, start mod half + len)`. All other
//!   butterflies are skipped and the final values outside the run are
//!   **zeroed**, giving a deterministic contract: inside the run the values
//!   are bit-identical to the dense transform, outside they are exactly zero.
//!
//! Cost: a dense transform runs `(n/2)·log2 n` butterflies; with an input run
//! of length `ℓ` the pruned forward runs `≈ (n/2)·(1 + log2 ℓ)` — the savings
//! grow with `log(n/ℓ)`, matching the asymptotic factor quoted in the paper
//! trail. Output pruning saves the same way from the other end, and both
//! compose per stage.
//!
//! # 2D driver
//!
//! [`PartialFft2Plan`] prunes separably: the forward row pass only visits
//! rows inside the input support (pruning each row by the support columns and
//! the ROI columns), and after the transpose the column pass only visits the
//! ROI columns. The inverse direction treats the ROI as the input support.
//! (The dense plan transforms its columns in place; here a column pass that
//! visits only a few columns is cheaper on the transposed copy, where each
//! visited column is one contiguous, individually pruned 1-D transform.)
//! All skipped work relies on the caller honouring the contract that the
//! field is exactly zero outside the declared support — `Probe::support_padded`
//! in `ptycho-sim` establishes it.

use crate::fft2d::Fft2Scratch;
use crate::simd::{self, SimdLevel};
use crate::{CArray2, Complex64, FftPlan};
use ptycho_array::Rect;

/// A contiguous index run `[start, start + len)`, `len >= 1`.
type Run = (usize, usize);

/// A 1D pruned FFT plan: a dense [`FftPlan`] plus per-stage skip tables for a
/// declared non-zero input run and/or a requested output run.
///
/// Without runs declared it behaves bit-identically to the dense plan.
#[derive(Clone, Debug)]
pub struct PartialFftPlan {
    plan: FftPlan,
    input_run: Option<Run>,
    output_run: Option<Run>,
    /// Forward-direction active blocks per stage (byte offsets of surviving
    /// `size`-sized blocks, in memory order); `None` = all blocks active.
    fwd_blocks: Vec<Option<Vec<u32>>>,
    /// Inverse-direction active blocks per stage, derived from `output_run`
    /// (the inverse consumes the pruned spectrum as its input).
    inv_blocks: Vec<Option<Vec<u32>>>,
    /// Needed butterfly (twiddle-index) wrapped run per stage for output
    /// pruning; `None` = all butterflies needed.
    out_ranges: Vec<Option<(u32, u32)>>,
}

impl PartialFftPlan {
    /// Creates an (un-pruned) plan of length `len` at the detected SIMD tier.
    ///
    /// # Panics
    /// Panics if `len` is zero or not a power of two.
    pub fn new(len: usize) -> Self {
        Self::with_simd_level(len, SimdLevel::detect())
    }

    /// Creates an (un-pruned) plan pinned to a specific SIMD tier.
    pub fn with_simd_level(len: usize, level: SimdLevel) -> Self {
        let plan = FftPlan::with_simd_level(len, level);
        let stages = len.trailing_zeros() as usize;
        Self {
            plan,
            input_run: None,
            output_run: None,
            fwd_blocks: vec![None; stages],
            inv_blocks: vec![None; stages],
            out_ranges: vec![None; stages],
        }
    }

    /// Declares that forward-transform inputs are exactly zero outside
    /// `[start, start + len)` and rebuilds the forward skip tables.
    ///
    /// # Panics
    /// Panics if the run is empty or exceeds the transform length.
    pub fn with_input_run(mut self, start: usize, len: usize) -> Self {
        assert_run(self.plan.len(), start, len);
        self.input_run = Some((start, len));
        self.fwd_blocks = stage_blocks(self.plan.len(), (start, len));
        self
    }

    /// Requests only forward-transform outputs in `[start, start + len)`
    /// (outputs outside the run are zeroed) and rebuilds the output-pruning
    /// tables. The inverse transform treats the same run as its non-zero
    /// *input* region.
    ///
    /// # Panics
    /// Panics if the run is empty or exceeds the transform length.
    pub fn with_output_run(mut self, start: usize, len: usize) -> Self {
        assert_run(self.plan.len(), start, len);
        self.output_run = Some((start, len));
        self.inv_blocks = stage_blocks(self.plan.len(), (start, len));
        self.out_ranges = stage_output_ranges(self.plan.len(), (start, len));
        self
    }

    /// Transform length.
    pub fn len(&self) -> usize {
        self.plan.len()
    }

    /// True only for the unconstructible length-0 plan (`len/is_empty`
    /// convention).
    pub fn is_empty(&self) -> bool {
        self.plan.len() == 0
    }

    /// The declared non-zero input run, if any.
    pub fn input_run(&self) -> Option<Run> {
        self.input_run
    }

    /// The requested output run, if any.
    pub fn output_run(&self) -> Option<Run> {
        self.output_run
    }

    /// The SIMD tier the executed butterflies dispatch to.
    pub fn simd_level(&self) -> SimdLevel {
        self.plan.simd_level()
    }

    /// Pruned in-place forward transform (unnormalised).
    ///
    /// Inputs must be exactly zero outside the declared input run; with an
    /// output run declared, outputs outside it are set to zero.
    ///
    /// # Panics
    /// Panics if `data.len()` differs from the plan length.
    pub fn forward(&self, data: &mut [Complex64]) {
        assert_eq!(
            data.len(),
            self.plan.len(),
            "partial plan length {} does not match data length {}",
            self.plan.len(),
            data.len()
        );
        if self.plan.len() > 1 {
            self.plan.permute(data);
            self.run_stages(data, true);
        }
        if let Some((start, len)) = self.output_run {
            for v in &mut data[..start] {
                *v = Complex64::ZERO;
            }
            for v in &mut data[start + len..] {
                *v = Complex64::ZERO;
            }
        }
    }

    /// Pruned in-place inverse transform (normalised by `1/N`), for spectra
    /// that are exactly zero outside the declared *output* run (the shape the
    /// pruned forward produces).
    ///
    /// # Panics
    /// Panics if `data.len()` differs from the plan length.
    pub fn inverse(&self, data: &mut [Complex64]) {
        self.inverse_unnormalized(data);
        // Same scaling pass as the dense inverse; scaling the untouched
        // zeros is exact, so skipped blocks stay bit-identical.
        let scale = 1.0 / self.plan.len() as f64;
        for v in data.iter_mut() {
            *v = v.scale(scale);
        }
    }

    /// [`Self::inverse`] without the `1/N` normalisation.
    ///
    /// # Panics
    /// Panics if `data.len()` differs from the plan length.
    pub(crate) fn inverse_unnormalized(&self, data: &mut [Complex64]) {
        assert_eq!(
            data.len(),
            self.plan.len(),
            "partial plan length {} does not match data length {}",
            self.plan.len(),
            data.len()
        );
        if self.plan.len() > 1 {
            self.plan.permute(data);
            self.run_stages(data, false);
        }
    }

    /// The butterfly stage loop with per-stage block skipping (input pruning)
    /// and, in the forward direction, butterfly-range restriction (output
    /// pruning).
    fn run_stages(&self, data: &mut [Complex64], forward: bool) {
        let level = self.plan.simd_level();
        let stages = self.plan.stages(forward);
        let blocks = if forward {
            &self.fwd_blocks
        } else {
            &self.inv_blocks
        };
        let mut size = 2usize;
        for (si, stage) in stages.iter().enumerate() {
            let range = if forward { self.out_ranges[si] } else { None };
            match &blocks[si] {
                None => {
                    if range.is_none() {
                        // Fully dense stage — same whole-pass kernel as FftPlan.
                        simd::butterfly_pass(level, data, stage);
                    } else {
                        for chunk in data.chunks_exact_mut(size) {
                            apply_block(level, chunk, stage, range);
                        }
                    }
                }
                Some(offsets) => {
                    for &off in offsets {
                        let chunk = &mut data[off as usize..off as usize + size];
                        apply_block(level, chunk, stage, range);
                    }
                }
            }
            size *= 2;
        }
    }
}

/// Butterflies one block, optionally restricted to a wrapped twiddle-index
/// run (`(k0, klen)` with `klen < half`).
fn apply_block(
    level: SimdLevel,
    chunk: &mut [Complex64],
    stage: &[Complex64],
    range: Option<(u32, u32)>,
) {
    let half = chunk.len() / 2;
    let (lo, hi) = chunk.split_at_mut(half);
    match range {
        None => simd::butterfly_range(level, lo, hi, stage),
        Some((k0, klen)) => {
            let (k0, klen) = (k0 as usize, klen as usize);
            // The wrapped run [k0, k0+klen) mod half splits into at most two
            // contiguous segments.
            let first = klen.min(half - k0);
            simd::butterfly_range(
                level,
                &mut lo[k0..k0 + first],
                &mut hi[k0..k0 + first],
                &stage[k0..k0 + first],
            );
            let rest = klen - first;
            if rest > 0 {
                simd::butterfly_range(level, &mut lo[..rest], &mut hi[..rest], &stage[..rest]);
            }
        }
    }
}

fn assert_run(n: usize, start: usize, len: usize) {
    assert!(len >= 1, "pruning run must be non-empty");
    assert!(
        start + len <= n,
        "pruning run [{start}, {}) exceeds transform length {n}",
        start + len
    );
}

/// Per-stage surviving blocks for a non-zero input run.
///
/// At the stage of block size `size` the decimation stride is `s = n/size`;
/// block `j` covers input offsets `o ≡ rev_{log2 s}(j) (mod s)`. The block
/// survives iff `o` falls in the run's residues mod `s`. When the run covers
/// every residue class (`len >= s`) the table entry is `None` (all blocks).
fn stage_blocks(n: usize, run: Run) -> Vec<Option<Vec<u32>>> {
    let (start, len) = run;
    let mut tables = Vec::with_capacity(n.trailing_zeros() as usize);
    let mut size = 2usize;
    while size <= n {
        let stride = n / size;
        if len >= stride {
            tables.push(None);
        } else {
            // stride > len >= 1, so stride >= 2 and the shift below is valid.
            let bits = stride.trailing_zeros();
            let a = start % stride;
            let mut offsets = Vec::new();
            for j in 0..stride as u32 {
                let o = (j.reverse_bits() >> (32 - bits)) as usize;
                if (o + stride - a) % stride < len {
                    offsets.push(j * size as u32);
                }
            }
            tables.push(Some(offsets));
        }
        size *= 2;
    }
    tables
}

/// Per-stage needed butterfly runs for a requested output run.
///
/// Producing outputs `[start, start+len)` at the stage with half-size `half`
/// requires exactly the butterflies whose twiddle index lies in the wrapped
/// interval starting at `start mod half` of length `min(len, half)`; when
/// that covers everything the entry is `None`.
fn stage_output_ranges(n: usize, run: Run) -> Vec<Option<(u32, u32)>> {
    let (start, len) = run;
    let mut ranges = Vec::with_capacity(n.trailing_zeros() as usize);
    let mut size = 2usize;
    while size <= n {
        let half = size / 2;
        if len >= half {
            ranges.push(None);
        } else {
            ranges.push(Some(((start % half) as u32, len as u32)));
        }
        size *= 2;
    }
    ranges
}

/// A 2D pruned FFT plan over `rows × cols` fields: separable row/column
/// pruning from an input support window and/or an output region of interest.
///
/// Built like a dense [`crate::fft2d::Fft2Plan`] but with two optional
/// rectangles:
///
/// * [`with_input_support`](Self::with_input_support) — the field is exactly
///   zero outside this window (the probe's compact support). The forward
///   transform skips the all-zero rows entirely and prunes the early stages
///   of every executed 1D pass. Output is **bit-identical** to the dense
///   transform.
/// * [`with_output_roi`](Self::with_output_roi) — only this window of the
///   spectrum is needed (the detector ROI). Outputs inside the ROI are
///   bit-identical to the dense transform; outputs outside are **zeroed**.
///   The inverse transform treats the ROI as its input support (the shape
///   the pruned forward produces) and writes a dense result.
///
/// Transposes through a caller-owned [`Fft2Scratch`]; all paths stay
/// zero-allocation after construction.
#[derive(Clone, Debug)]
pub struct PartialFft2Plan {
    rows: usize,
    cols: usize,
    /// 1D plan of length `cols`, pruned by the support/ROI column runs.
    row_plan: PartialFftPlan,
    /// 1D plan of length `rows`, pruned by the support/ROI row runs.
    col_plan: PartialFftPlan,
    input_support: Option<Rect>,
    output_roi: Option<Rect>,
    /// Row run of the input support (forward row pass visits only these).
    support_rows: Option<Run>,
    /// Column run of the ROI (forward column pass visits only these).
    roi_cols: Option<Run>,
    /// Row run of the ROI (inverse row pass visits only these).
    roi_rows: Option<Run>,
    level: SimdLevel,
}

impl PartialFft2Plan {
    /// Creates an (un-pruned) plan for `rows × cols` transforms at the
    /// detected SIMD tier. Until a support or ROI is declared it behaves
    /// bit-identically to the dense plan.
    ///
    /// # Panics
    /// Panics if either dimension is zero or not a power of two.
    pub fn new(rows: usize, cols: usize) -> Self {
        Self::with_simd_level(rows, cols, SimdLevel::detect())
    }

    /// Creates an (un-pruned) plan pinned to a specific SIMD tier.
    pub fn with_simd_level(rows: usize, cols: usize, level: SimdLevel) -> Self {
        Self {
            rows,
            cols,
            row_plan: PartialFftPlan::with_simd_level(cols, level),
            col_plan: PartialFftPlan::with_simd_level(rows, level),
            input_support: None,
            output_roi: None,
            support_rows: None,
            roi_cols: None,
            roi_rows: None,
            level,
        }
    }

    /// Declares the window outside which forward-transform inputs are exactly
    /// zero (clamped to the field bounds).
    ///
    /// # Panics
    /// Panics if the clamped window is empty.
    pub fn with_input_support(mut self, support: Rect) -> Self {
        let clamped = support.clamp_to(&Rect::of_shape(self.rows, self.cols));
        assert!(
            !clamped.is_empty(),
            "input support {support:?} does not intersect the {}x{} field",
            self.rows,
            self.cols
        );
        self.input_support = Some(clamped);
        self.rebuild();
        self
    }

    /// Declares the spectrum window actually read by the caller (clamped to
    /// the field bounds); forward outputs outside it are zeroed.
    ///
    /// # Panics
    /// Panics if the clamped window is empty.
    pub fn with_output_roi(mut self, roi: Rect) -> Self {
        let clamped = roi.clamp_to(&Rect::of_shape(self.rows, self.cols));
        assert!(
            !clamped.is_empty(),
            "output ROI {roi:?} does not intersect the {}x{} field",
            self.rows,
            self.cols
        );
        self.output_roi = Some(clamped);
        self.rebuild();
        self
    }

    fn rebuild(&mut self) {
        let mut row_plan = PartialFftPlan::with_simd_level(self.cols, self.level);
        let mut col_plan = PartialFftPlan::with_simd_level(self.rows, self.level);
        self.support_rows = None;
        self.roi_cols = None;
        self.roi_rows = None;
        if let Some(s) = self.input_support {
            let (row_run, col_run) = rect_runs(&s);
            self.support_rows = Some(row_run);
            row_plan = row_plan.with_input_run(col_run.0, col_run.1);
            col_plan = col_plan.with_input_run(row_run.0, row_run.1);
        }
        if let Some(roi) = self.output_roi {
            let (row_run, col_run) = rect_runs(&roi);
            self.roi_rows = Some(row_run);
            self.roi_cols = Some(col_run);
            row_plan = row_plan.with_output_run(col_run.0, col_run.1);
            col_plan = col_plan.with_output_run(row_run.0, row_run.1);
        }
        self.row_plan = row_plan;
        self.col_plan = col_plan;
    }

    /// `(rows, cols)` shape the plan was built for.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// The declared input support window, if any.
    pub fn input_support(&self) -> Option<Rect> {
        self.input_support
    }

    /// The declared output ROI, if any.
    pub fn output_roi(&self) -> Option<Rect> {
        self.output_roi
    }

    /// The SIMD tier the executed kernels dispatch to.
    pub fn simd_level(&self) -> SimdLevel {
        self.level
    }

    /// Allocates a scratch workspace for this plan.
    pub fn make_scratch(&self) -> Fft2Scratch {
        Fft2Scratch::new(self.rows, self.cols)
    }

    /// Pruned in-place forward transform (unnormalised): zero allocations,
    /// the column pass ping-pongs through `scratch`.
    ///
    /// The field must be exactly zero outside the declared input support;
    /// with an ROI declared, outputs outside it are zeroed.
    ///
    /// # Panics
    /// Panics if `field` or `scratch` shapes mismatch the plan.
    pub fn forward_in_place(&self, field: &mut CArray2, scratch: &mut Fft2Scratch) {
        self.check_shapes(field, scratch);
        let (rows, cols) = (self.rows, self.cols);
        // Row pass: only rows that hold non-zero input. Each executed row is
        // input-pruned by the support columns and output-pruned (and zeroed)
        // by the ROI columns.
        {
            let buf = field.as_mut_slice();
            let (r0, rl) = self.support_rows.unwrap_or((0, rows));
            for row in buf[r0 * cols..(r0 + rl) * cols].chunks_mut(cols) {
                self.row_plan.forward(row);
            }
        }
        // Full transpose: rows outside the support and columns outside the
        // ROI are genuinely zero at this point (skipped rows by the support
        // contract, non-ROI columns by the row pass's zeroing), so the
        // transposed scratch is exact everywhere.
        simd::transpose_into(self.level, field.as_slice(), rows, cols, &mut scratch.buf);
        // Column pass over the transposed buffer: with an ROI only its
        // columns are needed — the rest are zero and stay zero. Each executed
        // column is input-pruned by the support rows and output-pruned by the
        // ROI rows.
        {
            let (c0, cl) = self.roi_cols.unwrap_or((0, cols));
            for col in scratch.buf[c0 * rows..(c0 + cl) * rows].chunks_mut(rows) {
                self.col_plan.forward(col);
            }
        }
        simd::transpose_into(self.level, &scratch.buf, cols, rows, field.as_mut_slice());
    }

    /// Pruned in-place inverse transform (normalised by `1/(rows·cols)`), for
    /// spectra that are exactly zero outside the declared ROI — the shape the
    /// pruned forward produces. The result is dense (no output pruning).
    ///
    /// # Panics
    /// Panics if `field` or `scratch` shapes mismatch the plan.
    pub fn inverse_in_place(&self, field: &mut CArray2, scratch: &mut Fft2Scratch) {
        self.inverse_passes(field, scratch, true);
    }

    /// [`Self::inverse_in_place`] without the `1/(rows·cols)` normalisation —
    /// bit-identical to the dense plan's unnormalised inverse on spectra that
    /// are exactly zero outside the ROI.
    ///
    /// # Panics
    /// Panics if `field` or `scratch` shapes mismatch the plan.
    pub fn inverse_unnormalized_in_place(&self, field: &mut CArray2, scratch: &mut Fft2Scratch) {
        self.inverse_passes(field, scratch, false);
    }

    fn inverse_passes(&self, field: &mut CArray2, scratch: &mut Fft2Scratch, normalize: bool) {
        self.check_shapes(field, scratch);
        let (rows, cols) = (self.rows, self.cols);
        let inverse = |plan: &PartialFftPlan, line: &mut [Complex64]| {
            if normalize {
                plan.inverse(line);
            } else {
                plan.inverse_unnormalized(line);
            }
        };
        // Row pass over the ROI rows only: the other rows are all-zero, and
        // the dense inverse would map them to zero (scaling included), so
        // skipping them is exact. Executed rows are input-pruned by the ROI
        // columns.
        {
            let buf = field.as_mut_slice();
            let (r0, rl) = self.roi_rows.unwrap_or((0, rows));
            for row in buf[r0 * cols..(r0 + rl) * cols].chunks_mut(cols) {
                inverse(&self.row_plan, row);
            }
        }
        simd::transpose_into(self.level, field.as_slice(), rows, cols, &mut scratch.buf);
        // Column pass over every column (the inverse output is dense), each
        // input-pruned by the ROI rows. When normalising, the row and column
        // inverses apply 1/cols and 1/rows respectively; a power-of-two
        // scaling is exact wherever it is applied, so this matches the dense
        // plan's single 1/(rows·cols) sweep bit for bit.
        for col in scratch.buf.chunks_mut(rows) {
            inverse(&self.col_plan, col);
        }
        simd::transpose_into(self.level, &scratch.buf, cols, rows, field.as_mut_slice());
    }

    /// By-value pruned forward transform (clones the input, builds throwaway
    /// scratch) — for tests and cold paths.
    pub fn forward(&self, field: &CArray2) -> CArray2 {
        let mut out = field.clone();
        self.forward_in_place(&mut out, &mut self.make_scratch());
        out
    }

    /// By-value pruned inverse transform — for tests and cold paths.
    pub fn inverse(&self, field: &CArray2) -> CArray2 {
        let mut out = field.clone();
        self.inverse_in_place(&mut out, &mut self.make_scratch());
        out
    }

    fn check_shapes(&self, field: &CArray2, scratch: &Fft2Scratch) {
        assert_eq!(
            field.shape(),
            (self.rows, self.cols),
            "PartialFft2Plan shape {:?} does not match field shape {:?}",
            (self.rows, self.cols),
            field.shape()
        );
        assert_eq!(
            scratch.shape(),
            (self.rows, self.cols),
            "Fft2Scratch shape {:?} does not match plan shape {:?}",
            scratch.shape(),
            (self.rows, self.cols)
        );
    }
}

/// `(row run, col run)` of a non-empty in-bounds rectangle.
fn rect_runs(rect: &Rect) -> (Run, Run) {
    (
        (rect.row0 as usize, rect.rows()),
        (rect.col0 as usize, rect.cols()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft2d::Fft2Plan;
    use ptycho_array::Array2;

    fn assert_bits_eq(a: &[Complex64], b: &[Complex64]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(
                (x.re.to_bits(), x.im.to_bits()),
                (y.re.to_bits(), y.im.to_bits()),
                "bit mismatch at {i}: {x:?} vs {y:?}"
            );
        }
    }

    fn supported_signal(n: usize, start: usize, len: usize) -> Vec<Complex64> {
        let mut data = vec![Complex64::ZERO; n];
        for (k, v) in data[start..start + len].iter_mut().enumerate() {
            *v = Complex64::new(
                ((k * 7 + 3) as f64 * 0.37).sin(),
                ((k * 5 + 1) as f64 * 0.83).cos(),
            );
        }
        data
    }

    #[test]
    fn input_pruned_1d_forward_is_bit_identical_to_dense() {
        for &(n, start, len) in &[
            (8usize, 0usize, 2usize),
            (8, 3, 3),
            (64, 10, 7),
            (64, 60, 4),
            (256, 0, 1),
            (256, 97, 32),
            (1024, 500, 24),
        ] {
            let dense = FftPlan::new(n);
            let pruned = PartialFftPlan::new(n).with_input_run(start, len);
            let input = supported_signal(n, start, len);
            let mut a = input.clone();
            let mut b = input.clone();
            dense.forward(&mut a);
            pruned.forward(&mut b);
            assert_bits_eq(&a, &b);
        }
    }

    #[test]
    fn output_pruned_1d_forward_matches_dense_inside_run_and_zeroes_outside() {
        for &(n, start, len) in &[(16usize, 2usize, 5usize), (64, 0, 16), (256, 200, 50)] {
            let dense = FftPlan::new(n);
            let pruned = PartialFftPlan::new(n).with_output_run(start, len);
            let input: Vec<Complex64> = (0..n)
                .map(|i| Complex64::new((i as f64 * 0.21).sin(), (i as f64 * 0.47).cos()))
                .collect();
            let mut a = input.clone();
            let mut b = input.clone();
            dense.forward(&mut a);
            pruned.forward(&mut b);
            assert_bits_eq(&a[start..start + len], &b[start..start + len]);
            for (i, v) in b.iter().enumerate() {
                if !(start..start + len).contains(&i) {
                    assert_eq!(*v, Complex64::ZERO, "output {i} not zeroed");
                }
            }
        }
    }

    #[test]
    fn combined_input_and_output_pruning_compose() {
        let n = 128;
        let (s0, sl) = (40, 9);
        let (r0, rl) = (64, 20);
        let dense = FftPlan::new(n);
        let pruned = PartialFftPlan::new(n)
            .with_input_run(s0, sl)
            .with_output_run(r0, rl);
        let input = supported_signal(n, s0, sl);
        let mut a = input.clone();
        let mut b = input.clone();
        dense.forward(&mut a);
        pruned.forward(&mut b);
        assert_bits_eq(&a[r0..r0 + rl], &b[r0..r0 + rl]);
    }

    #[test]
    fn pruned_1d_inverse_on_roi_spectrum_is_bit_identical_to_dense() {
        for &(n, start, len) in &[(32usize, 5usize, 6usize), (256, 100, 28)] {
            let dense = FftPlan::new(n);
            let pruned = PartialFftPlan::new(n).with_output_run(start, len);
            // A spectrum that is zero outside the ROI — what the pruned
            // forward produces.
            let spectrum = supported_signal(n, start, len);
            let mut a = spectrum.clone();
            let mut b = spectrum.clone();
            dense.inverse(&mut a);
            pruned.inverse(&mut b);
            assert_bits_eq(&a, &b);
        }
    }

    #[test]
    fn degenerate_full_runs_are_bit_identical_to_dense() {
        let n = 64;
        let dense = FftPlan::new(n);
        let pruned = PartialFftPlan::new(n)
            .with_input_run(0, n)
            .with_output_run(0, n);
        let input: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new((i as f64 * 1.3).cos(), (i as f64 * 0.7).sin()))
            .collect();
        let mut a = input.clone();
        let mut b = input.clone();
        dense.forward(&mut a);
        pruned.forward(&mut b);
        assert_bits_eq(&a, &b);
        dense.inverse(&mut a);
        pruned.inverse(&mut b);
        assert_bits_eq(&a, &b);
    }

    fn supported_field(rows: usize, cols: usize, support: &Rect) -> CArray2 {
        Array2::from_fn(rows, cols, |r, c| {
            if support.contains(r as i64, c as i64) {
                Complex64::new(
                    ((r * 13 + c * 7) as f64 * 0.13).sin(),
                    ((r * 5 + c * 3) as f64 * 0.29).cos(),
                )
            } else {
                Complex64::ZERO
            }
        })
    }

    #[test]
    fn support_pruned_2d_forward_is_bit_identical_to_dense() {
        for &(rows, cols, support) in &[
            (32usize, 32usize, Rect::new(8, 8, 8, 8)),
            (64, 64, Rect::new(0, 0, 16, 16)),
            (64, 32, Rect::new(50, 20, 14, 12)),
            (16, 64, Rect::new(3, 17, 1, 5)),
        ] {
            let field = supported_field(rows, cols, &support);
            let dense = Fft2Plan::new(rows, cols);
            let pruned = PartialFft2Plan::new(rows, cols).with_input_support(support);
            let a = dense.forward(&field);
            let b = pruned.forward(&field);
            assert_bits_eq(a.as_slice(), b.as_slice());
        }
    }

    #[test]
    fn roi_pruned_2d_forward_matches_dense_inside_roi_and_zeroes_outside() {
        let (rows, cols) = (32usize, 32usize);
        let roi = Rect::new(4, 6, 12, 10);
        let field = supported_field(rows, cols, &Rect::of_shape(rows, cols));
        let dense = Fft2Plan::new(rows, cols);
        let pruned = PartialFft2Plan::new(rows, cols).with_output_roi(roi);
        let a = dense.forward(&field);
        let b = pruned.forward(&field);
        for r in 0..rows {
            for c in 0..cols {
                if roi.contains(r as i64, c as i64) {
                    let (x, y) = (a[(r, c)], b[(r, c)]);
                    assert_eq!(
                        (x.re.to_bits(), x.im.to_bits()),
                        (y.re.to_bits(), y.im.to_bits())
                    );
                } else {
                    assert_eq!(b[(r, c)], Complex64::ZERO, "({r},{c}) not zeroed");
                }
            }
        }
    }

    #[test]
    fn support_and_roi_pruned_2d_roundtrip_recovers_roi_content() {
        // forward with support+ROI pruning, then pruned inverse: must equal
        // dense forward → zero outside ROI → dense inverse, bitwise.
        let (rows, cols) = (64usize, 64usize);
        let support = Rect::new(16, 16, 16, 16);
        let roi = Rect::new(8, 8, 24, 24);
        let field = supported_field(rows, cols, &support);

        let dense = Fft2Plan::new(rows, cols);
        let pruned = PartialFft2Plan::new(rows, cols)
            .with_input_support(support)
            .with_output_roi(roi);

        let mut reference = dense.forward(&field);
        for r in 0..rows {
            for c in 0..cols {
                if !roi.contains(r as i64, c as i64) {
                    reference[(r, c)] = Complex64::ZERO;
                }
            }
        }
        let pruned_fwd = pruned.forward(&field);
        assert_bits_eq(reference.as_slice(), pruned_fwd.as_slice());

        let dense_back = dense.inverse(&reference);
        let pruned_back = pruned.inverse(&pruned_fwd);
        assert_bits_eq(dense_back.as_slice(), pruned_back.as_slice());

        let mut dense_unnormalized = reference.clone();
        dense.inverse_unnormalized_mut(&mut dense_unnormalized);
        let mut pruned_unnormalized = pruned_fwd.clone();
        pruned.inverse_unnormalized_in_place(&mut pruned_unnormalized, &mut pruned.make_scratch());
        assert_bits_eq(
            dense_unnormalized.as_slice(),
            pruned_unnormalized.as_slice(),
        );
    }

    #[test]
    fn pruned_2d_in_place_shares_scratch_with_dense_plan() {
        let (rows, cols) = (32usize, 32usize);
        let support = Rect::new(4, 4, 8, 8);
        let field = supported_field(rows, cols, &support);
        let dense = Fft2Plan::new(rows, cols);
        let pruned = PartialFft2Plan::new(rows, cols).with_input_support(support);
        let mut scratch = dense.make_scratch();

        let mut a = field.clone();
        dense.forward_in_place(&mut a, &mut scratch);
        let mut b = field.clone();
        pruned.forward_in_place(&mut b, &mut scratch);
        assert_bits_eq(a.as_slice(), b.as_slice());
    }

    #[test]
    fn unpruned_partial_2d_plan_is_bit_identical_to_dense() {
        let (rows, cols) = (16usize, 32usize);
        let field = supported_field(rows, cols, &Rect::of_shape(rows, cols));
        let dense = Fft2Plan::new(rows, cols);
        let pruned = PartialFft2Plan::new(rows, cols);
        assert_bits_eq(
            dense.forward(&field).as_slice(),
            pruned.forward(&field).as_slice(),
        );
        assert_bits_eq(
            dense.inverse(&field).as_slice(),
            pruned.inverse(&field).as_slice(),
        );
    }

    #[test]
    fn pruning_works_at_every_simd_level() {
        let (rows, cols) = (32usize, 32usize);
        let support = Rect::new(10, 12, 6, 9);
        let field = supported_field(rows, cols, &support);
        let reference = PartialFft2Plan::with_simd_level(rows, cols, SimdLevel::Scalar)
            .with_input_support(support)
            .forward(&field);
        for level in SimdLevel::available_levels() {
            let out = PartialFft2Plan::with_simd_level(rows, cols, level)
                .with_input_support(support)
                .forward(&field);
            assert_bits_eq(reference.as_slice(), out.as_slice());
        }
    }

    #[test]
    #[should_panic(expected = "does not intersect")]
    fn empty_support_panics() {
        let _ = PartialFft2Plan::new(16, 16).with_input_support(Rect::new(20, 20, 4, 4));
    }

    #[test]
    #[should_panic(expected = "must be non-empty")]
    fn empty_run_panics() {
        let _ = PartialFftPlan::new(16).with_input_run(3, 0);
    }

    #[test]
    #[should_panic(expected = "exceeds transform length")]
    fn out_of_bounds_run_panics() {
        let _ = PartialFftPlan::new(16).with_output_run(10, 8);
    }
}
