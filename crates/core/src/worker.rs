//! Per-rank tile state shared by both decomposition solvers.

use crate::config::SolverConfig;
use crate::tiling::TileInfo;
use ptycho_array::{Array3, Rect};
use ptycho_cluster::{MemoryCategory, MemoryTracker};
use ptycho_fft::{CArray3, Complex64};
use ptycho_sim::dataset::{Dataset, BYTES_PER_COMPLEX, BYTES_PER_MEASUREMENT};
use ptycho_sim::gradient::{probe_gradient_into, suggested_step};
use ptycho_sim::scan::ProbeLocation;
use ptycho_sim::SimWorkspace;

/// The state one worker (simulated GPU) keeps for its tile: the halo-extended
/// sub-volume it reconstructs, the bound forward model, the gradient step,
/// and the pooled per-probe buffers (model workspace + patch scratch) that
/// make the steady-state gradient evaluation allocation-free.
pub(crate) struct TileWorker<'a> {
    dataset: &'a Dataset,
    tile: TileInfo,
    /// The worker's halo-extended sub-volume, in tile-local coordinates.
    volume: CArray3,
    step: f64,
    slices: usize,
    /// Reusable forward/adjoint model buffers (incident stack, far field,
    /// back-propagation wave).
    workspace: SimWorkspace,
    /// Reusable probe-window object patch, refilled per probe location.
    patch: CArray3,
}

impl<'a> TileWorker<'a> {
    /// Creates a worker for `tile`, initialising its sub-volume from `initial`
    /// (a full-image volume, usually the flat initial guess) and registering
    /// its memory footprint with `memory`.
    pub fn new(
        dataset: &'a Dataset,
        tile: &TileInfo,
        initial: &CArray3,
        config: &SolverConfig,
        assigned_probes: usize,
        memory: &mut MemoryTracker,
    ) -> Self {
        let slices = dataset.object_shape().0;
        let volume = initial.extract_region_with_fill(tile.extended, Complex64::ONE);
        let step = config.step_relaxation * suggested_step(dataset.model());

        // Register what this worker would hold in GPU memory.
        let window = dataset.model().window_px();
        memory.allocate(
            MemoryCategory::TileVoxels,
            tile.core.area() * slices * BYTES_PER_COMPLEX,
        );
        memory.allocate(
            MemoryCategory::HaloVoxels,
            tile.halo_area() * slices * BYTES_PER_COMPLEX,
        );
        memory.allocate(
            MemoryCategory::Measurements,
            assigned_probes * window * window * BYTES_PER_MEASUREMENT,
        );
        memory.allocate(
            MemoryCategory::GradientBuffer,
            window * window * slices * BYTES_PER_COMPLEX,
        );
        // The pooled buffers this worker holds resident for its whole life:
        // the SimWorkspace of the model it evaluates and the probe-window
        // object patch, charged at the bytes they actually hold.
        let workspace = SimWorkspace::for_model(dataset.model());
        let patch = Array3::full(slices, window, window, Complex64::ONE);
        memory.allocate(
            MemoryCategory::ModelWorkspace,
            workspace.bytes() + patch.len() * BYTES_PER_COMPLEX,
        );

        Self {
            dataset,
            tile: tile.clone(),
            volume,
            step,
            slices,
            workspace,
            patch,
        }
    }

    /// The probe window of `loc` expressed in tile-local coordinates.
    pub fn local_window(&self, loc: &ProbeLocation) -> Rect {
        loc.window.to_local(&self.tile.extended)
    }

    /// An all-zero buffer with the shape of the extended tile (used for the
    /// gradient accumulation buffers of Algorithm 1).
    pub fn zero_buffer(&self) -> CArray3 {
        Array3::full(
            self.slices,
            self.tile.extended.rows(),
            self.tile.extended.cols(),
            Complex64::ZERO,
        )
    }

    /// Computes the individual image gradient `∂f_i/∂V_k` for one owned probe
    /// location against the current tile state, writing it into the
    /// caller-owned probe-window-shaped `gradient` buffer. Returns the probe
    /// loss. Allocation-free: the object patch and every model intermediate
    /// live in the worker's pooled buffers.
    pub fn compute_gradient_into(&mut self, loc: &ProbeLocation, gradient: &mut CArray3) -> f64 {
        let local_window = self.local_window(loc);
        self.volume
            .extract_region_into(local_window, Complex64::ONE, &mut self.patch);
        probe_gradient_into(
            self.dataset.model(),
            &self.patch,
            self.dataset.measurement(loc),
            &mut self.workspace,
            gradient,
        )
    }

    /// Applies one gradient patch to the tile volume at the probe window
    /// (step 8 of Algorithm 1): `V_k ← V_k − α·grad`. Allocation-free.
    pub fn apply_patch(&mut self, loc: &ProbeLocation, gradient: &CArray3) {
        let local_window = self.local_window(loc);
        add_region_scaled(&mut self.volume, local_window, gradient, -self.step);
    }

    /// Steps 14–16 of Algorithm 1 in one sweep over the disjoint `cover`:
    /// `V_k ← V_k − α·(total − own)`, `own` being what this tile already
    /// applied locally (`α·total` without it), then `+0.0` into each visited
    /// buffer cell. Where the buffers are zero the update is a bitwise
    /// identity, so `cover` only has to hold their nonzeros.
    pub fn update_and_reset(
        &mut self,
        total: &mut CArray3,
        own: Option<&mut CArray3>,
        cover: &[Rect],
    ) {
        let shape = self.volume.shape();
        assert_eq!(total.shape(), shape, "buffer shape mismatch");
        let mut own = own.map(|own| {
            assert_eq!(own.shape(), shape, "buffer shape mismatch");
            own.as_mut_slice()
        });
        let (volume, total) = (self.volume.as_mut_slice(), total.as_mut_slice());
        for row in cover.iter().flat_map(|&rect| region_rows(shape, rect)) {
            let cells = volume[row.clone()].iter_mut().zip(&mut total[row.clone()]);
            match own.as_deref_mut() {
                Some(own) => {
                    for ((v, t), o) in cells.zip(&mut own[row]) {
                        *v -= (*t - *o).scale(self.step);
                        *t = Complex64::ZERO;
                        *o = Complex64::ZERO;
                    }
                }
                None => {
                    for (v, t) in cells {
                        *v -= t.scale(self.step);
                        *t = Complex64::ZERO;
                    }
                }
            }
        }
    }

    /// Scatters a probe-window-shaped gradient patch into an extended-tile
    /// buffer (step 7: `AccBuf_k += ∂f_i/∂V_k`).
    pub fn accumulate_patch(&self, buffer: &mut CArray3, loc: &ProbeLocation, gradient: &CArray3) {
        let local_window = self.local_window(loc);
        buffer.add_region(local_window, gradient);
    }

    /// A read-only view of the current tile volume (extended, tile-local).
    pub fn volume(&self) -> &CArray3 {
        &self.volume
    }

    /// Mutable access to the tile volume (used by the voxel copy-paste of the
    /// Halo Voxel Exchange baseline).
    pub fn volume_mut(&mut self) -> &mut CArray3 {
        &mut self.volume
    }

    /// Extracts the core (non-halo) part of the tile volume in image
    /// coordinates, ready for stitching.
    pub fn core_volume(&self) -> CArray3 {
        let core_local = self.tile.core.to_local(&self.tile.extended);
        self.volume
            .extract_region_with_fill(core_local, Complex64::ONE)
    }
}

/// The flat index range of every row of `region` (tile-local, clipped to the
/// plane) in every slice of a volume of `shape`.
fn region_rows(
    (depth, rows, cols): (usize, usize, usize),
    region: Rect,
) -> impl Iterator<Item = std::ops::Range<usize>> {
    let clipped = region.intersect(&Rect::of_shape(rows, cols));
    (0..depth).flat_map(move |s| {
        (clipped.row0..clipped.row1).map(move |r| {
            let start = (s * rows + r as usize) * cols;
            start + clipped.col0 as usize..start + clipped.col1 as usize
        })
    })
}

/// Adds `factor · block` into `region` of a complex volume, clipping against
/// the volume bounds — the allocation-free scatter behind the local
/// per-probe update (`block` is probe-window shaped: one sub-plane per slice).
fn add_region_scaled(volume: &mut CArray3, region: Rect, block: &CArray3, factor: f64) {
    let (rows, cols) = region.shape();
    assert_eq!(
        block.shape(),
        (volume.depth(), rows, cols),
        "add_region_scaled: block shape {:?} does not match region {:?} x {} slices",
        block.shape(),
        region,
        volume.depth()
    );
    let bounds = volume.plane_bounds();
    let clipped = region.intersect(&bounds);
    let vol_cols = volume.cols();
    for s in 0..volume.depth() {
        let src = block.slice_data(s);
        let dst = volume.slice_data_mut(s);
        for gr in clipped.row0..clipped.row1 {
            let lr = (gr - region.row0) as usize;
            for gc in clipped.col0..clipped.col1 {
                let lc = (gc - region.col0) as usize;
                dst[gr as usize * vol_cols + gc as usize] += src[lr * cols + lc] * factor;
            }
        }
    }
}

/// Flattens the values of `region` (tile-local coordinates) of a complex
/// volume into an interleaved `re, im` vector, slice-major then row-major —
/// the wire format of every gradient/voxel message. Cells of `region` outside
/// the volume flatten to zero. Allocates the payload; the solvers' hot paths
/// use [`extract_region_flat_into`] over a pooled buffer instead.
#[cfg(test)]
pub(crate) fn extract_region_flat(volume: &CArray3, region: Rect) -> Vec<f64> {
    let (rows, cols) = region.shape();
    let mut out = vec![0.0; volume.depth() * rows * cols * 2];
    extract_region_flat_into(volume, region, &mut out);
    out
}

/// Extracts `region` of `buffer` into a pooled payload and sends it — the
/// one allocation-free send path shared by the directional passes and the
/// HVE voxel paste. The tile retired back into the pool keeps its buffer
/// alive until every comm-layer alias has been dropped, at which point the
/// pool recycles it.
pub(crate) fn send_pooled_region<C: ptycho_cluster::RankComm<ptycho_cluster::SharedTile>>(
    ctx: &mut C,
    pool: &mut ptycho_cluster::TilePayloadPool,
    buffer: &CArray3,
    region: Rect,
    to: usize,
    tag: u64,
) {
    let (rows, cols) = region.shape();
    let mut tile = pool.acquire(buffer.depth() * rows * cols * 2);
    extract_region_flat_into(
        buffer,
        region,
        tile.unique_values_mut()
            .expect("freshly acquired tiles are unaliased"),
    );
    ctx.isend(to, tag, tile.clone());
    pool.retire(tile);
}

/// [`extract_region_flat`] into a caller-owned buffer of exactly
/// `slices * rows * cols * 2` values (a pooled
/// [`ptycho_cluster::SharedTile`] payload), so the steady-state multi-rank
/// send path performs no allocation. The buffer's previous contents are
/// fully overwritten (out-of-volume cells with zero; a region inside the
/// volume — every pass region — needs no zero pre-fill).
pub(crate) fn extract_region_flat_into(volume: &CArray3, region: Rect, out: &mut [f64]) {
    let slices = volume.depth();
    let (rows, cols) = region.shape();
    assert_eq!(
        out.len(),
        slices * rows * cols * 2,
        "payload buffer must match the region's flat size"
    );
    let bounds = volume.plane_bounds();
    let clipped = region.intersect(&bounds);
    if clipped != region {
        out.fill(0.0);
    }
    let vol_cols = volume.cols();
    for s in 0..slices {
        let plane = volume.slice_data(s);
        for gr in clipped.row0..clipped.row1 {
            let lr = (gr - region.row0) as usize;
            for gc in clipped.col0..clipped.col1 {
                let lc = (gc - region.col0) as usize;
                let idx = 2 * ((s * rows + lr) * cols + lc);
                let v = plane[gr as usize * vol_cols + gc as usize];
                out[idx] = v.re;
                out[idx + 1] = v.im;
            }
        }
    }
}

/// Adds interleaved `re, im` values into `region` of a complex volume
/// (the gradient-accumulation receive).
pub(crate) fn add_region_flat(volume: &mut CArray3, region: Rect, data: &[f64]) {
    apply_region_flat(volume, region, data, |dst, src| *dst += src);
}

/// Overwrites `region` of a complex volume with interleaved `re, im` values
/// (the backward-pass replace, and the HVE voxel paste).
pub(crate) fn set_region_flat(volume: &mut CArray3, region: Rect, data: &[f64]) {
    apply_region_flat(volume, region, data, |dst, src| *dst = src);
}

fn apply_region_flat(
    volume: &mut CArray3,
    region: Rect,
    data: &[f64],
    mut op: impl FnMut(&mut Complex64, Complex64),
) {
    let slices = volume.depth();
    let (rows, cols) = region.shape();
    assert_eq!(
        data.len(),
        slices * rows * cols * 2,
        "flat payload length {} does not match region {:?} x {} slices",
        data.len(),
        region,
        slices
    );
    let bounds = volume.plane_bounds();
    let clipped = region.intersect(&bounds);
    let vol_cols = volume.cols();
    for s in 0..slices {
        let plane = volume.slice_data_mut(s);
        for gr in clipped.row0..clipped.row1 {
            let lr = (gr - region.row0) as usize;
            for gc in clipped.col0..clipped.col1 {
                let lc = (gc - region.col0) as usize;
                let idx = 2 * ((s * rows + lr) * cols + lc);
                let value = Complex64::new(data[idx], data[idx + 1]);
                op(&mut plane[gr as usize * vol_cols + gc as usize], value);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tiling::TileGrid;
    use ptycho_array::Array3;
    use ptycho_sim::dataset::SyntheticConfig;

    /// A single-rank worker over the whole of `dataset`'s object.
    fn tiny_worker(dataset: &Dataset) -> TileWorker<'_> {
        let (_, rows, cols) = dataset.object_shape();
        let grid = TileGrid::new(rows, cols, 1, 1, 8, dataset.scan());
        TileWorker::new(
            dataset,
            grid.tile(0),
            &dataset.initial_guess(),
            &SolverConfig::default(),
            0,
            &mut MemoryTracker::new(),
        )
    }

    fn volume_with_pattern() -> CArray3 {
        Array3::from_fn(2, 6, 6, |s, r, c| {
            Complex64::new((s * 36 + r * 6 + c) as f64, -(r as f64))
        })
    }

    #[test]
    fn flat_roundtrip_set() {
        let vol = volume_with_pattern();
        let region = Rect::new(1, 2, 3, 3);
        let flat = extract_region_flat(&vol, region);
        assert_eq!(flat.len(), 2 * 3 * 3 * 2);

        let mut target = Array3::full(2, 6, 6, Complex64::ZERO);
        set_region_flat(&mut target, region, &flat);
        for s in 0..2 {
            for r in 1..4 {
                for c in 2..5 {
                    assert_eq!(target[(s, r, c)], vol[(s, r, c)]);
                }
            }
        }
        // Outside the region stays zero.
        assert_eq!(target[(0, 0, 0)], Complex64::ZERO);
    }

    #[test]
    fn flat_add_accumulates() {
        let vol = volume_with_pattern();
        let region = Rect::new(0, 0, 2, 2);
        let flat = extract_region_flat(&vol, region);
        let mut target = vol.clone();
        add_region_flat(&mut target, region, &flat);
        assert_eq!(target[(0, 0, 0)], vol[(0, 0, 0)] + vol[(0, 0, 0)]);
        assert_eq!(target[(1, 1, 1)], vol[(1, 1, 1)].scale(2.0));
        // Outside region unchanged.
        assert_eq!(target[(0, 5, 5)], vol[(0, 5, 5)]);
    }

    #[test]
    fn flat_handles_out_of_bounds_region() {
        let vol = volume_with_pattern();
        // Region hangs off the edge; extract pads with zeros and apply clips.
        let region = Rect::new(4, 4, 4, 4);
        let flat = extract_region_flat(&vol, region);
        assert_eq!(flat.len(), 2 * 4 * 4 * 2);
        let mut target = Array3::full(2, 6, 6, Complex64::ZERO);
        set_region_flat(&mut target, region, &flat);
        assert_eq!(target[(0, 5, 5)], vol[(0, 5, 5)]);
        assert_eq!(target[(0, 0, 0)], Complex64::ZERO);
    }

    #[test]
    fn add_region_scaled_matches_map_then_add() {
        let vol = volume_with_pattern();
        let region = Rect::new(-1, 3, 4, 4);
        let block = Array3::from_fn(2, 4, 4, |s, r, c| Complex64::new((s + r) as f64, c as f64));

        let mut direct = vol.clone();
        add_region_scaled(&mut direct, region, &block, -0.37);

        let mut reference = vol.clone();
        let scaled = block.map(|g| -*g * 0.37);
        reference.add_region(region, &scaled);

        for (a, b) in direct.iter().zip(reference.iter()) {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
    }

    #[test]
    fn model_workspace_charge_equals_the_bytes_held() {
        let dataset = Dataset::synthesize(SyntheticConfig::tiny());
        let (_, rows, cols) = dataset.object_shape();
        let grid = TileGrid::new(rows, cols, 1, 1, 8, dataset.scan());
        let initial = dataset.initial_guess();
        let mut memory = MemoryTracker::new();
        let config = SolverConfig::default();
        let worker = TileWorker::new(&dataset, grid.tile(0), &initial, &config, 0, &mut memory);
        let held = worker.workspace.bytes() + worker.patch.len() * std::mem::size_of::<Complex64>();
        assert_eq!(memory.current_of(MemoryCategory::ModelWorkspace), held);
    }

    /// The `±0.0` decision the pass plan rests on: skipping the cells where a
    /// message, or an accumulation buffer, holds `+0.0` changes no bit.
    #[test]
    fn skipping_zeros_changes_no_bit_and_buffers_never_hold_negative_zero() {
        let specials = [0.0, -0.0, 1.5, -2.25, f64::MIN_POSITIVE, -f64::MAX];
        let n = specials.len();
        let bits = |v: &CArray3| -> Vec<(u64, u64)> {
            v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
        };
        let row = Rect::of_shape(1, n);
        let values = Array3::from_fn(1, 1, n, |_, _, c| {
            Complex64::new(specials[c], specials[n - 1 - c])
        });
        let zeros = vec![0.0; 2 * n];

        // Forward receive: `x + 0.0` is `x` — except for `x = −0.0`, which
        // becomes `+0.0`. That is the one value a skipped addition would
        // leave different, so accumulation buffers must never hold it …
        let mut added = values.clone();
        add_region_flat(&mut added, row, &zeros);
        let unsigned_zero = |x: f64| if x == 0.0 { 0.0 } else { x };
        let expected = values.map(|c| Complex64::new(unsigned_zero(c.re), unsigned_zero(c.im)));
        assert_eq!(bits(&added), bits(&expected));
        // … and they cannot: a buffer starts at `+0.0` and only ever adds,
        // and neither `+0.0 + −0.0` nor `x + −x` is `−0.0`.
        let mut acc_buf = Array3::full(1, 1, n, Complex64::ZERO);
        acc_buf.add_region(row, &values);
        let accumulated_once = acc_buf.clone();
        acc_buf.add_region(row, &values.map(|c| -*c));
        for c in accumulated_once.iter().chain(acc_buf.iter()) {
            assert!(c.re != 0.0 || c.re.is_sign_positive());
            assert!(c.im != 0.0 || c.im.is_sign_positive());
        }

        // Backward receive: a zero replacing a zero.
        let mut replaced = Array3::full(1, 1, n, Complex64::ZERO);
        set_region_flat(&mut replaced, row, &zeros);
        assert_eq!(
            bits(&replaced),
            bits(&Array3::full(1, 1, n, Complex64::ZERO))
        );

        // Tile update and reset: `v − α·0` and `v − α·(0 − 0)` are `v`,
        // `−0.0` included, and the reset leaves `+0.0` behind.
        let dataset = Dataset::synthesize(SyntheticConfig::tiny());
        let mut worker = tiny_worker(&dataset);
        worker.volume_mut().as_mut_slice()[..n].clone_from_slice(values.as_slice());
        let before = bits(worker.volume());
        let (mut total, mut own) = (worker.zero_buffer(), worker.zero_buffer());
        let whole = [worker.volume().plane_bounds()];
        worker.update_and_reset(&mut total, None, &whole);
        worker.update_and_reset(&mut total, Some(&mut own), &whole);
        assert_eq!(bits(worker.volume()), before);
        assert_eq!(bits(&total), bits(&worker.zero_buffer()));
        assert_eq!(bits(&own), bits(&worker.zero_buffer()));
    }

    #[test]
    fn region_updates_touch_exactly_the_clipped_region() {
        let dataset = Dataset::synthesize(SyntheticConfig::tiny());
        let mut worker = tiny_worker(&dataset);
        let (_, rows, cols) = worker.volume().shape();
        let (rows, cols) = (rows as i64, cols as i64);
        // Hangs over the bottom-left corner; the second rect is disjoint.
        let cover = [Rect::new(rows - 2, -2, 5, 6), Rect::new(0, cols - 3, 2, 3)];
        let (t0, o0) = (Complex64::new(1.0, -2.0), Complex64::new(0.25, 0.5));
        for local_updates in [false, true] {
            let before = worker.volume().clone();
            let mut total = worker.zero_buffer().map(|_| t0);
            let mut own = worker.zero_buffer().map(|_| o0);
            let remote = if local_updates { t0 - o0 } else { t0 };
            let step = worker.step;
            worker.update_and_reset(&mut total, local_updates.then_some(&mut own), &cover);
            for s in 0..before.depth() {
                for r in 0..before.rows() {
                    for c in 0..before.cols() {
                        let i = (s, r, c);
                        let hit = cover.iter().any(|x| x.contains(r as i64, c as i64));
                        let want = if hit {
                            before[i] - remote.scale(step)
                        } else {
                            before[i]
                        };
                        assert_eq!(worker.volume()[i], want);
                        assert_eq!(total[i], if hit { Complex64::ZERO } else { t0 });
                        let reset = hit && local_updates;
                        assert_eq!(own[i], if reset { Complex64::ZERO } else { o0 });
                    }
                }
            }
        }
        assert_eq!(region_rows((2, 6, 6), Rect::empty()).count(), 0);
    }

    #[test]
    #[should_panic(expected = "does not match region")]
    fn wrong_payload_length_panics() {
        let mut vol = volume_with_pattern();
        add_region_flat(&mut vol, Rect::new(0, 0, 2, 2), &[1.0, 2.0]);
    }
}
