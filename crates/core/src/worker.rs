//! Per-rank tile state shared by both decomposition solvers.

use crate::config::SolverConfig;
use crate::gradient_decomp::passes::Piece;
use crate::tiling::TileInfo;
use ptycho_array::{Array3, Rect};
use ptycho_cluster::{HardwareModel, MemoryCategory, MemoryTracker, RankClock};
use ptycho_fft::{CArray3, Complex32, Complex64};
use ptycho_sim::dataset::{Dataset, BYTES_PER_COMPLEX, BYTES_PER_MEASUREMENT};
use ptycho_sim::gradient::{probe_gradient_by_slice, suggested_step, ObjectSlices};
use ptycho_sim::scan::ProbeLocation;
use ptycho_sim::SimWorkspace;
use std::mem::size_of_val;

/// A rank's halo-extended tile volume: complex `f32`, 8 bytes a voxel, as
/// the paper's GPUs hold it.
pub(crate) type TileVolume = Array3<Complex32>;

/// The state one worker (simulated GPU) keeps for its tile: the halo-extended
/// sub-volume it reconstructs, the bound forward model, the gradient step,
/// and the pooled model workspace that makes the steady-state gradient
/// evaluation allocation-free.
///
/// Only the tile holds the object and no gradient volume is held: the model
/// reads each slice of a probe window in place from the tile (a window
/// crossing the tile edge is copied into a workspace field, vacuum
/// outside), and the adjoint hands each slice's gradient to
/// [`Self::probe_step`]'s sink as soon as it is computed, in the model
/// workspace, and the sink applies and accumulates it there.
///
/// Everything a rank holds is complex `f32`: the tile volume, the
/// accumulation buffers, and every per-probe evaluation
/// ([`Dataset::model_f32`]). A slice the model reads is the volume's own
/// rows (or a same-type copy of them), and the gradient is added to the
/// volume or a buffer as it is. Only the flat initial guess (ones, exact in
/// `f32`) and the stitched result ([`Self::core_volume`], widened exactly)
/// are complex `f64`.
pub(crate) struct TileWorker<'a> {
    dataset: &'a Dataset,
    tile: TileInfo,
    /// The worker's halo-extended sub-volume, in tile-local coordinates.
    volume: TileVolume,
    /// The gradient step `α`, rounded to `f32` once.
    step: f32,
    slices: usize,
    /// The Summit model's time for one probe gradient over this tile, in
    /// integer nanoseconds: what [`Self::probe_step`] charges.
    probe_ns: u64,
    /// Reusable forward/adjoint model buffers, which also receive each
    /// slice's gradient and each object slice that is not read in place.
    workspace: SimWorkspace<f32>,
}

impl<'a> TileWorker<'a> {
    /// Creates a worker for `tile` that evaluates `assigned_probes` probe
    /// locations per iteration, initialising its sub-volume from `initial`
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
        // The flat initial guess is ones: exact in `f32`.
        let volume = initial
            .extract_region_with_fill(tile.extended, Complex64::ONE)
            .map(|v| Complex32::narrow(*v));
        let step = (config.step_relaxation * suggested_step(dataset.model())) as f32;

        // Register what this worker holds in GPU memory, at the bytes held:
        // the volume's core columns, and the rest of it, its halo.
        let window = dataset.model().window_px();
        let held = size_of_val(volume.as_slice());
        let core = held / tile.extended.area() * tile.core.area();
        memory.allocate(MemoryCategory::TileVoxels, core);
        memory.allocate(MemoryCategory::HaloVoxels, held - core);
        memory.allocate(
            MemoryCategory::Measurements,
            assigned_probes * window * window * BYTES_PER_MEASUREMENT,
        );
        // The SimWorkspace this worker holds resident for its whole life,
        // charged at the bytes it actually holds.
        let workspace = SimWorkspace::for_model(dataset.model_f32());
        memory.allocate(MemoryCategory::ModelWorkspace, workspace.bytes());
        // The Summit model's working set keeps its own 16 B a voxel: the
        // modeled clock is not re-derived from what the rank holds.
        let working_set = (tile.extended.area() * slices * BYTES_PER_COMPLEX) as f64;
        let per_probe =
            HardwareModel::summit_v100().probe_gradient_time(window, slices, working_set);

        Self {
            dataset,
            tile: tile.clone(),
            volume,
            step,
            slices,
            probe_ns: (per_probe * 1e9) as u64,
            workspace,
        }
    }

    /// The probe window of `loc` expressed in tile-local coordinates.
    pub fn local_window(&self, loc: &ProbeLocation) -> Rect {
        loc.window.to_local(&self.tile.extended)
    }

    /// One probe location, both solvers' per-probe step: evaluates the
    /// individual image gradient `∂f_i/∂V_k` against the current tile state
    /// (each object slice read from the volume as the model needs it,
    /// vacuum (`1`) outside it) and hands it, slice by slice as the adjoint
    /// computes it, to a [`GradientSink`] over `buffers` and `cells`.
    /// Returns the probe loss, and charges the model's per-probe time to
    /// `clock`. Allocation-free: a window inside the tile is read in place,
    /// one crossing its edge is copied into the worker's pooled workspace,
    /// where each slice's gradient and every model intermediate live too.
    ///
    /// GD passes the round's [`RankPasses::shared`] cells with local
    /// updates and its cover without them, which holds every cell of the
    /// round's windows inside the tile; HVE passes
    /// [`AccBuffers::local_only`] and no cells.
    ///
    /// [`RankPasses::shared`]: crate::gradient_decomp::passes::RankPasses::shared
    pub fn probe_step(
        &mut self,
        clock: &mut RankClock,
        loc: &ProbeLocation,
        buffers: &mut AccBuffers,
        cells: &[Piece],
    ) -> f64 {
        let mut sink = GradientSink {
            window: self.local_window(loc),
            volume: &mut self.volume,
            factor: -self.step,
            buffers,
            cells,
        };
        clock.compute(self.probe_ns);
        probe_gradient_by_slice(
            self.dataset.model_f32(),
            &mut sink,
            self.dataset.measurement(loc),
            &mut self.workspace,
        )
    }

    /// Steps 14–16 of Algorithm 1 in one sweep over the disjoint `cells`
    /// (pieces of the round's strips, inside the tile): `V_k ← V_k −
    /// α·(total − own)`, `own` being what this tile already applied locally
    /// (`α·total` without it), then `+0.0` into each visited buffer cell.
    /// Where `total` is zero, or equals `own` bit for bit, the update is a
    /// bitwise identity, so `cells` only has to hold the cells a pass wrote:
    /// the round's [`RankPasses::shared`] cells with local updates, its
    /// cover without them.
    ///
    /// [`RankPasses::shared`]: crate::gradient_decomp::passes::RankPasses::shared
    pub fn update_and_reset(&mut self, buffers: &mut AccBuffers, cells: &[Piece]) {
        let (plane, depth) = (self.volume.plane_bounds(), self.slices);
        let mut own = buffers.own.as_deref_mut();
        let (volume, total) = (self.volume.as_mut_slice(), buffers.acc.as_mut_slice());
        for piece in cells {
            // Panics unless the piece lies inside the tile.
            let rows = plane.flat_rows(depth, 0, piece.cells);
            for (row, buf) in rows.zip(piece.strip.rows(depth, piece.cells)) {
                let pairs = volume[row].iter_mut().zip(&mut total[buf.clone()]);
                match own.as_deref_mut() {
                    Some(own) => {
                        for ((v, t), o) in pairs.zip(&mut own[buf]) {
                            *v -= (*t - *o).scale(self.step);
                            *t = Complex32::ZERO;
                            *o = Complex32::ZERO;
                        }
                    }
                    None => {
                        for (v, t) in pairs {
                            *v -= t.scale(self.step);
                            *t = Complex32::ZERO;
                        }
                    }
                }
            }
        }
    }

    /// A read-only view of the current tile volume (extended, tile-local).
    pub fn volume(&self) -> &TileVolume {
        &self.volume
    }

    /// Mutable access to the tile volume: the buffer the Halo Voxel Exchange
    /// baseline's planned voxel paste runs on (laid out as one strip over the
    /// extended tile), and what the engine restores a checkpoint into.
    pub fn volume_mut(&mut self) -> &mut TileVolume {
        &mut self.volume
    }

    /// Extracts the core (non-halo) part of the tile volume in image
    /// coordinates, widened (exactly) to complex `f64`, ready for stitching.
    pub fn core_volume(&self) -> CArray3 {
        let core_local = self.tile.core.to_local(&self.tile.extended);
        self.volume.extract_region(core_local).map(|v| v.widen())
    }
}

/// The tile as one probe's model sees it, one slice at a time: where each
/// slice of the window is read from, and where its gradient goes — with
/// local updates step 8 of Algorithm 1, `V_k ← V_k − α·∂f_i/∂V_k` over the
/// whole window (clipped to the tile), and step 7, `AccBuf_k += ∂f_i/∂V_k`
/// (with local updates also `own += ∂f_i/∂V_k`), on the window's part
/// inside `cells` (disjoint pieces of the round's strips). The model reads
/// slice `s` before step 8 changes it, so each cell visited gets the
/// operations a pre-step copy of the window and separate scatters of a
/// whole-volume gradient would give it.
struct GradientSink<'s> {
    volume: &'s mut TileVolume,
    /// The probe window, tile-local.
    window: Rect,
    /// `−α`.
    factor: f32,
    buffers: &'s mut AccBuffers,
    cells: &'s [Piece],
}

impl ObjectSlices<f32> for GradientSink<'_> {
    /// Reads slice `s` of the window: in place, rows a tile row apart, when
    /// the tile holds the whole window; else copied into `t`, vacuum (`1`)
    /// outside the tile.
    fn read(&self, s: usize, t: &mut [Complex32]) -> Option<(&[Complex32], usize)> {
        let (plane, window) = (self.volume.plane_bounds(), self.window);
        let (volume, offset) = (self.volume.as_slice(), s * plane.area());
        if plane.contains_rect(&window) {
            let mut rows = plane.flat_rows(1, offset, window);
            let first = rows.next().expect("a probe window has rows");
            let end = rows.last().unwrap_or_else(|| first.clone()).end;
            return Some((&volume[first.start..end], plane.cols()));
        }
        let inside = window.intersect(&plane);
        t.fill(Complex32::ONE);
        let rows = plane
            .flat_rows(1, offset, inside)
            .zip(window.flat_rows(1, 0, inside));
        for (src, dst) in rows {
            t[dst].copy_from_slice(&volume[src]);
        }
        None
    }

    /// Takes slice `s` of the gradient, `g` (window-shaped, row-major).
    fn take(&mut self, s: usize, g: &[Complex32]) {
        let window = self.window;
        let (acc, mut own) = (
            self.buffers.acc.as_mut_slice(),
            self.buffers.own.as_deref_mut(),
        );
        if own.is_some() {
            add_region_scaled(self.volume, s, window, g, self.factor);
        }
        for piece in self.cells {
            let hit = window.intersect(&piece.cells);
            let rows = piece
                .strip
                .slice_rows(s, hit)
                .zip(window.flat_rows(1, 0, hit));
            for (dst, src) in rows {
                match own.as_deref_mut() {
                    Some(own) => {
                        let pairs = acc[dst.clone()].iter_mut().zip(&mut own[dst]);
                        for ((a, o), &g) in pairs.zip(&g[src]) {
                            *a += g;
                            *o += g;
                        }
                    }
                    None => {
                        for (a, &g) in acc[dst].iter_mut().zip(&g[src]) {
                            *a += g;
                        }
                    }
                }
            }
        }
    }
}

/// The accumulation buffers of Algorithm 1 — `AccBuf`, and with local
/// updates `own`, what the tile has already applied itself. Each round of
/// the pass plan lays its own cells out at their front
/// ([`StripLayout::for_round`]), so they are as long as the longest round's
/// layout; every value is `+0.0` at every round boundary.
///
/// [`StripLayout::for_round`]: crate::gradient_decomp::passes::StripLayout::for_round
pub(crate) struct AccBuffers {
    pub acc: Vec<Complex32>,
    pub own: Option<Vec<Complex32>>,
}

impl AccBuffers {
    /// Zeroed buffers of `len` values each (`own` only with local updates),
    /// charged to `memory` at the bytes they hold.
    pub fn new(len: usize, local_updates: bool, memory: &mut MemoryTracker) -> Self {
        let mut zeroed = || {
            let buffer = vec![Complex32::ZERO; len];
            memory.allocate(MemoryCategory::AccumulationBuffer, size_of_val(&buffer[..]));
            buffer
        };
        let acc = zeroed();
        let own = local_updates.then(zeroed);
        Self { acc, own }
    }

    /// Local updates over no buffer cells: the Halo Voxel Exchange
    /// baseline's per-probe update, which applies every gradient to the
    /// volume at once and accumulates nothing. Holds no value.
    pub fn local_only() -> Self {
        Self {
            acc: Vec::new(),
            own: Some(Vec::new()),
        }
    }
}

/// Adds `factor · block` into `region` of slice `s` of the tile volume,
/// clipping against the volume bounds — the allocation-free per-slice
/// update behind HVE's per-probe update and GD's local update (`block` is
/// one `region`-shaped plane).
fn add_region_scaled(
    volume: &mut TileVolume,
    s: usize,
    region: Rect,
    block: &[Complex32],
    factor: f32,
) {
    let plane = volume.plane_bounds();
    assert!(s < volume.depth(), "slice {s} of {}", volume.depth());
    assert_eq!(
        block.len(),
        region.area(),
        "block of {} values does not match region {region:?}",
        block.len(),
    );
    let inside = region.intersect(&plane);
    let rows = plane
        .flat_rows(1, s * plane.area(), inside)
        .zip(region.flat_rows(1, 0, inside));
    let volume = volume.as_mut_slice();
    for (dst, src) in rows {
        for (v, &g) in volume[dst].iter_mut().zip(&block[src]) {
            *v += g * factor;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradient_decomp::passes::StripLayout;
    use crate::tiling::TileGrid;
    use ptycho_array::Array3;
    use ptycho_sim::dataset::SyntheticConfig;
    use ptycho_sim::gradient::probe_gradient_into;

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

    fn volume_with_pattern() -> TileVolume {
        Array3::from_fn(2, 6, 6, |s, r, c| {
            Complex32::new((s * 36 + r * 6 + c) as f32, -(r as f32))
        })
    }

    fn flat_bits(v: &[Complex32]) -> Vec<(u32, u32)> {
        v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
    }

    fn bits(v: &TileVolume) -> Vec<(u32, u32)> {
        flat_bits(v.as_slice())
    }

    /// Inside, hanging over each edge and corner, wider than the plane, and
    /// wholly outside it.
    fn clipped_regions(rows: i64, cols: i64) -> [Rect; 6] {
        [
            Rect::new(1, 2, 3, 3),
            Rect::new(-1, 3, 4, 4),
            Rect::new(rows - 2, -2, 5, 6),
            Rect::new(-3, -3, rows + 6, cols + 6),
            Rect::new(2, cols - 1, 3, 4),
            Rect::new(rows + 1, 0, 2, 2),
        ]
    }

    #[test]
    fn add_region_scaled_matches_map_then_add() {
        let vol = volume_with_pattern();
        for region in clipped_regions(6, 6) {
            let (rows, cols) = region.shape();
            let block = Array3::from_fn(2, rows, cols, |s, r, c| {
                Complex32::new((s + r) as f32 * 0.7, c as f32 - 1.3)
            });

            let mut direct = vol.clone();
            for s in 0..block.depth() {
                add_region_scaled(&mut direct, s, region, block.slice_data(s), -0.37);
            }

            let mut reference = vol.clone();
            let scaled = block.map(|&g| g * -0.37);
            reference.add_region(region, &scaled);

            assert_eq!(bits(&direct), bits(&reference), "region {region:?}");
        }
    }

    /// The values a buffer of `layout` holds of a tile-shaped volume.
    fn gather(layout: &StripLayout, whole: &TileVolume) -> Vec<Complex32> {
        let strips = layout.strips().iter();
        strips
            .flat_map(|strip| whole.extract_region(strip.rect).as_slice().to_vec())
            .collect()
    }

    /// `cells` split into pieces of `layout`'s strips.
    fn pieces(layout: &StripLayout, cells: &[Rect]) -> Vec<Piece> {
        layout.split(&[], cells).cells().to_vec()
    }

    #[test]
    fn fused_scatter_matches_the_three_separate_scatters() {
        // Windows clipped at every tile edge, with and without local
        // updates, over buffers that hold a cell set cutting the windows —
        // none, one strip, two disjoint strips, the whole tile — either as
        // those strips or as their bounding box. A synthetic gradient goes
        // into the per-slice sink one slice at a time, last slice first, as
        // the adjoint hands it over. The references are `acc += g` and `own
        // += g` of the gradient by `Array3::add_region` over each window ∩
        // cell rect of a tile-shaped volume, and `V += g·(−α)` by
        // `Array3::add_region` of the scaled gradient over the whole window.
        let dataset = Dataset::synthesize(SyntheticConfig::tiny());
        let mut worker = tiny_worker(&dataset);
        let (depth, rows, cols) = worker.volume().shape();
        let seeded = |seed: f32| {
            Array3::from_fn(depth, rows, cols, |s, r, c| {
                Complex32::new((s + r * c) as f32 * seed, (r as f32 - c as f32) / seed)
            })
        };
        let (rows, cols) = (rows as i64, cols as i64);
        let cell_sets: [&[Rect]; 4] = [
            &[],
            &[Rect::new(0, 3, rows, 4)],
            &[
                Rect::new(0, 0, 3, cols),
                Rect::new(rows - 4, 1, 2, cols - 2),
            ],
            &[Rect::of_shape(rows as usize, cols as usize)],
        ];
        for window in clipped_regions(rows, cols) {
            let (wr, wc) = window.shape();
            let gradient = Array3::from_fn(depth, wr, wc, |s, r, c| {
                Complex32::new(
                    ((s * 7 + r * 3 + c) as f32 * 0.31).sin(),
                    (r + c) as f32 * 0.05,
                )
            });
            for (local_updates, set, boxed) in [false, true].into_iter().flat_map(|local| {
                cell_sets
                    .iter()
                    .flat_map(move |set| [(local, set, false), (local, set, true)])
            }) {
                let bounding_box = set.iter().fold(Rect::empty(), |f, r| f.bounding_union(r));
                let layout = if boxed {
                    StripLayout::new(&[bounding_box], depth)
                } else {
                    StripLayout::new(set, depth)
                };
                let cells = pieces(&layout, set);
                let (mut acc_ref, mut own_ref) = (seeded(0.5), seeded(1.5));
                let mut buffers = AccBuffers {
                    acc: gather(&layout, &acc_ref),
                    own: local_updates.then(|| gather(&layout, &own_ref)),
                };
                let volume_before = worker.volume().clone();
                for hit in set.iter().map(|rect| window.intersect(rect)) {
                    let g = gradient.extract_region(hit.to_local(&window));
                    acc_ref.add_region(hit, &g);
                    own_ref.add_region(hit, &g);
                }
                let mut volume_ref = volume_before.clone();
                if local_updates {
                    volume_ref.add_region(window, &gradient.map(|&g| g * -worker.step));
                }
                let mut sink = GradientSink {
                    volume: &mut worker.volume,
                    window,
                    factor: -worker.step,
                    buffers: &mut buffers,
                    cells: &cells,
                };
                for s in (0..depth).rev() {
                    sink.take(s, gradient.slice_data(s));
                }
                let case =
                    format!("window {window:?}, cells {set:?}, local {local_updates}, {boxed}");
                let want = |whole: &TileVolume| flat_bits(&gather(&layout, whole));
                assert_eq!(flat_bits(&buffers.acc), want(&acc_ref), "acc, {case}");
                assert_eq!(
                    buffers.own.as_deref().map(flat_bits),
                    local_updates.then(|| want(&own_ref)),
                    "own, {case}"
                );
                assert_eq!(bits(worker.volume()), bits(&volume_ref), "volume, {case}");
                *worker.volume_mut() = volume_before;
            }
        }
    }

    #[test]
    fn probe_step_equals_the_gradient_of_a_patch_copy_applied_by_add_region() {
        // Windows clipped at every tile edge and corner and one inside,
        // windows flush with each edge and one pixel over it, with and
        // without local updates over buffers holding cell sets that cut
        // them, and HVE's local-only buffers. The reference
        // evaluates `probe_gradient_into` on an `extract_region_with_fill`
        // copy of the pre-step volume (vacuum outside the tile), then does
        // `V += g·(−α)` (local updates) over the whole window and `acc += g`,
        // `own += g` over each window ∩ cell rect, all by `Array3::add_region`.
        let dataset = Dataset::synthesize(SyntheticConfig::tiny());
        let model = dataset.model_f32();
        let n = model.window_px() as i64;
        let mut worker = tiny_worker(&dataset);
        let (depth, rows, cols) = worker.volume().shape();
        // A non-flat state, so no slice's gradient is trivial.
        let start = Array3::from_fn(depth, rows, cols, |s, r, c| {
            Complex32::narrow(Complex64::cis(((s + 3 * r + 2 * c) as f64 * 0.17).sin()))
        });
        let seeded = |seed: f32| {
            Array3::from_fn(depth, rows, cols, |s, r, c| {
                Complex32::new((s + r * c) as f32 * seed, (r as f32 - c as f32) / seed)
            })
        };
        let (rows, cols) = (rows as i64, cols as i64);
        let cell_sets: [&[Rect]; 4] = [
            &[],
            &[Rect::new(0, 3, rows, 4)],
            &[
                Rect::new(0, 0, 3, cols),
                Rect::new(rows - 4, 1, 2, cols - 2),
            ],
            &[Rect::of_shape(rows as usize, cols as usize)],
        ];
        let corners = |extent: i64| [-(n / 3), extent / 2 - n / 2, extent - 2 * n / 3];
        // Where a window stops fitting inside the tile: flush with each
        // edge (and two corners), and one pixel over each edge.
        let (mid_row, mid_col) = (rows / 2 - n / 2, cols / 2 - n / 2);
        let edges = [
            (0, mid_col),
            (-1, mid_col),
            (rows - n, mid_col),
            (rows - n + 1, mid_col),
            (mid_row, 0),
            (mid_row, -1),
            (mid_row, cols - n),
            (mid_row, cols - n + 1),
            (0, 0),
            (rows - n, cols - n),
        ];
        let windows = corners(rows)
            .into_iter()
            .flat_map(|r| corners(cols).map(move |c| (r, c)))
            .chain(edges)
            .map(|(r, c)| Rect::new(r, c, n, n));
        let locations = dataset.scan().locations();
        for (k, window) in windows.enumerate() {
            let mut loc = locations[k % locations.len()];
            loc.window = window.to_global(&worker.tile.extended);
            assert_eq!(worker.local_window(&loc), window);
            let measured = dataset.measurement(&loc);
            let patch = start.extract_region_with_fill(window, Complex32::ONE);
            let mut ws = SimWorkspace::for_model(model);
            let mut gradient = Array3::full(depth, n as usize, n as usize, Complex32::ZERO);
            let loss = probe_gradient_into(model, &patch, measured, &mut ws, &mut gradient);
            let mut stepped = start.clone();
            stepped.add_region(window, &gradient.map(|&g| g * -worker.step));

            // HVE: every gradient applied at once, nothing accumulated.
            *worker.volume_mut() = start.clone();
            let hve_loss = worker.probe_step(
                &mut RankClock::default(),
                &loc,
                &mut AccBuffers::local_only(),
                &[],
            );
            assert_eq!(hve_loss.to_bits(), loss.to_bits(), "HVE loss, {window:?}");
            assert_eq!(bits(worker.volume()), bits(&stepped), "HVE, {window:?}");

            for (local_updates, set) in [false, true]
                .into_iter()
                .flat_map(|local| cell_sets.iter().map(move |set| (local, set)))
            {
                let layout = StripLayout::new(set, depth);
                let cells = pieces(&layout, set);
                let (mut acc_ref, mut own_ref) = (seeded(0.5), seeded(1.5));
                let mut buffers = AccBuffers {
                    acc: gather(&layout, &acc_ref),
                    own: local_updates.then(|| gather(&layout, &own_ref)),
                };
                for hit in set.iter().map(|rect| window.intersect(rect)) {
                    let g = gradient.extract_region(hit.to_local(&window));
                    acc_ref.add_region(hit, &g);
                    own_ref.add_region(hit, &g);
                }
                *worker.volume_mut() = start.clone();
                let step_loss =
                    worker.probe_step(&mut RankClock::default(), &loc, &mut buffers, &cells);
                let case = format!("window {window:?}, cells {set:?}, local {local_updates}");
                assert_eq!(step_loss.to_bits(), loss.to_bits(), "loss, {case}");
                let want = |whole: &TileVolume| flat_bits(&gather(&layout, whole));
                assert_eq!(flat_bits(&buffers.acc), want(&acc_ref), "acc, {case}");
                assert_eq!(
                    buffers.own.as_deref().map(flat_bits),
                    local_updates.then(|| want(&own_ref)),
                    "own, {case}"
                );
                let volume_ref = if local_updates { &stepped } else { &start };
                assert_eq!(bits(worker.volume()), bits(volume_ref), "volume, {case}");
            }
        }
    }

    #[test]
    fn model_workspace_charge_equals_the_bytes_held() {
        // The workspace is complex f32: the charge is the element count
        // times the 8 bytes of the element stored — `S + 1` window fields,
        // the incident waves after the probe, the far field and the
        // back-propagation wave. Neither an object patch nor a gradient
        // volume is held or charged: the voxels, measurements and workspace
        // are all a worker charges.
        let dataset = Dataset::synthesize(SyntheticConfig::tiny());
        let (slices, rows, cols) = dataset.object_shape();
        let grid = TileGrid::new(rows, cols, 1, 1, 8, dataset.scan());
        let initial = dataset.initial_guess();
        let mut memory = MemoryTracker::new();
        let config = SolverConfig::default();
        let worker = TileWorker::new(&dataset, grid.tile(0), &initial, &config, 0, &mut memory);
        let element = std::mem::size_of::<Complex32>();
        assert_eq!(element, 8);
        let window = dataset.model_f32().window_px();
        let values = (slices + 1) * window * window;
        assert_eq!(worker.workspace.bytes(), values * element);
        assert_eq!(
            memory.current_of(MemoryCategory::ModelWorkspace),
            values * element
        );
        let charged = [
            MemoryCategory::TileVoxels,
            MemoryCategory::HaloVoxels,
            MemoryCategory::Measurements,
            MemoryCategory::ModelWorkspace,
        ];
        let sum: usize = charged.iter().map(|&c| memory.current_of(c)).sum();
        assert_eq!(memory.current_total(), sum);
    }

    #[test]
    fn single_rank_charge_is_voxels_measurements_and_s_plus_one_window_fields() {
        let dataset = Dataset::synthesize(SyntheticConfig::tiny());
        let (slices, rows, cols) = dataset.object_shape();
        let grid = TileGrid::new(rows, cols, 1, 1, 8, dataset.scan());
        let probes = dataset.scan().len();
        let mut memory = MemoryTracker::new();
        let config = SolverConfig::default();
        let initial = dataset.initial_guess();
        TileWorker::new(
            &dataset,
            grid.tile(0),
            &initial,
            &config,
            probes,
            &mut memory,
        );
        let window = dataset.model_f32().window_px();
        let measurements = memory.current_of(MemoryCategory::Measurements);
        assert_eq!(
            measurements,
            probes * window * window * BYTES_PER_MEASUREMENT
        );
        let total = memory.current_of(MemoryCategory::TileVoxels)
            + memory.current_of(MemoryCategory::HaloVoxels)
            + measurements
            + (slices + 1) * window * window * 8;
        assert_eq!(memory.current_total(), total);
        assert_eq!(memory.peak_total(), total);
    }

    #[test]
    fn tile_charges_equal_the_bytes_held() {
        // Every rank of a 2×2 grid (each tile with a halo on two sides)
        // charges its core and halo voxels, and its accumulation buffers, at
        // the 8 bytes of the complex `f32` each value is held in.
        let dataset = Dataset::synthesize(SyntheticConfig::tiny());
        let (slices, rows, cols) = dataset.object_shape();
        let grid = TileGrid::new(rows, cols, 2, 2, 8, dataset.scan());
        let initial = dataset.initial_guess();
        let config = SolverConfig::default();
        assert_eq!(std::mem::size_of::<Complex32>(), 8);
        for tile in grid.tiles() {
            let mut memory = MemoryTracker::new();
            let worker = TileWorker::new(&dataset, tile, &initial, &config, 0, &mut memory);
            let (tile_voxels, halo_voxels) = (
                memory.current_of(MemoryCategory::TileVoxels),
                memory.current_of(MemoryCategory::HaloVoxels),
            );
            assert!(tile.halo_area() > 0);
            assert_eq!(tile_voxels, tile.core.area() * slices * 8);
            assert_eq!(halo_voxels, tile.halo_area() * slices * 8);
            assert_eq!(
                tile_voxels + halo_voxels,
                size_of_val(worker.volume().as_slice())
            );

            let len = tile.extended.area() * slices;
            let buffers = AccBuffers::new(len, true, &mut memory);
            let held = buffers.acc.len() + buffers.own.as_ref().map_or(0, Vec::len);
            assert_eq!(held, 2 * len);
            assert_eq!(
                memory.current_of(MemoryCategory::AccumulationBuffer),
                held * 8
            );
        }
    }

    /// The `±0.0` decision the pass plan rests on: skipping the cells where a
    /// message, or an accumulation buffer, holds `+0.0` changes no bit.
    #[test]
    fn skipping_zeros_changes_no_bit_and_buffers_never_hold_negative_zero() {
        let specials = [0.0, -0.0, 1.5, -2.25, f32::MIN_POSITIVE, -f32::MAX];
        let n = specials.len();
        let bits = |v: &TileVolume| -> Vec<(u32, u32)> {
            v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
        };
        let row = Rect::of_shape(1, n);
        let values = Array3::from_fn(1, 1, n, |_, _, c| {
            Complex32::new(specials[c], specials[n - 1 - c])
        });
        // A message of zeros, as a receive applies it: `+=` per cell on a
        // forward sweep, `=` on a backward one.
        let zeros = Array3::full(1, 1, n, Complex32::ZERO);

        // Forward receive: `x + 0.0` is `x` — except for `x = −0.0`, which
        // becomes `+0.0`. That is the one value a skipped addition would
        // leave different, so accumulation buffers must never hold it …
        let mut added = values.clone();
        added.add_region(row, &zeros);
        let unsigned_zero = |x: f32| if x == 0.0 { 0.0 } else { x };
        let expected = values.map(|c| Complex32::new(unsigned_zero(c.re), unsigned_zero(c.im)));
        assert_eq!(bits(&added), bits(&expected));
        // … and they cannot: a buffer starts at `+0.0` and only ever adds,
        // and neither `+0.0 + −0.0` nor `x + −x` is `−0.0`.
        let mut acc_buf = Array3::full(1, 1, n, Complex32::ZERO);
        acc_buf.add_region(row, &values);
        let accumulated_once = acc_buf.clone();
        acc_buf.add_region(row, &values.map(|c| -*c));
        for c in accumulated_once.iter().chain(acc_buf.iter()) {
            assert!(c.re != 0.0 || c.re.is_sign_positive());
            assert!(c.im != 0.0 || c.im.is_sign_positive());
        }

        // Backward receive: a zero replacing a zero.
        let mut replaced = Array3::full(1, 1, n, Complex32::ZERO);
        replaced.paste_region(row, &zeros);
        assert_eq!(bits(&replaced), bits(&zeros));

        // Tile update and reset: `v − α·0` and `v − α·(0 − 0)` are `v`,
        // `−0.0` included, and the reset leaves `+0.0` behind.
        let dataset = Dataset::synthesize(SyntheticConfig::tiny());
        let mut worker = tiny_worker(&dataset);
        worker.volume_mut().as_mut_slice()[..n].clone_from_slice(values.as_slice());
        let before = bits(worker.volume());
        let (whole, depth) = (worker.volume().plane_bounds(), worker.volume().depth());
        let layout = StripLayout::new(&[whole], depth);
        let zeroed =
            |local_updates| AccBuffers::new(layout.len(), local_updates, &mut MemoryTracker::new());
        let (mut without, mut with) = (zeroed(false), zeroed(true));
        let cells = pieces(&layout, &[whole]);
        worker.update_and_reset(&mut without, &cells);
        worker.update_and_reset(&mut with, &cells);
        assert_eq!(bits(worker.volume()), before);
        let zeros = flat_bits(&zeroed(false).acc);
        for buffer in [&without.acc, &with.acc, with.own.as_ref().unwrap()] {
            assert_eq!(flat_bits(buffer), zeros);
        }
    }

    #[test]
    fn region_updates_touch_exactly_the_clipped_region() {
        let dataset = Dataset::synthesize(SyntheticConfig::tiny());
        let mut worker = tiny_worker(&dataset);
        let (depth, rows, cols) = worker.volume().shape();
        let (rows, cols) = (rows as i64, cols as i64);
        let (t0, o0) = (Complex32::new(1.0, -2.0), Complex32::new(0.25, 0.5));
        // Buffers over the whole tile, over an inner band of it, and over
        // two disjoint bands.
        let layouts: [&[Rect]; 3] = [
            &[Rect::new(0, 0, rows, cols)],
            &[Rect::new(3, 2, rows - 5, cols - 6)],
            &[Rect::new(1, 0, 4, cols), Rect::new(rows - 6, 3, 5, 7)],
        ];
        for (strips, local_updates) in layouts.into_iter().flat_map(|l| [(l, false), (l, true)]) {
            // Relative to the first strip: one hangs over its bottom-left
            // corner, the other is disjoint; each clipped to the strips.
            let first = strips[0];
            let cells: Vec<Rect> = [
                Rect::new(first.rows() as i64 - 2, -2, 5, 6),
                Rect::new(0, first.cols() as i64 - 3, 2, 3),
            ]
            .iter()
            .flat_map(|rect| {
                strips
                    .iter()
                    .map(|strip| rect.to_global(&first).intersect(strip))
            })
            .filter(|rect| !rect.is_empty())
            .collect();
            let layout = StripLayout::new(strips, depth);
            let mut buffers = AccBuffers {
                acc: vec![t0; layout.len()],
                own: local_updates.then(|| vec![o0; layout.len()]),
            };
            let before = worker.volume().clone();
            let remote = if local_updates { t0 - o0 } else { t0 };
            let step = worker.step;
            worker.update_and_reset(&mut buffers, &pieces(&layout, &cells));
            for s in 0..depth {
                for r in 0..rows {
                    for c in 0..cols {
                        let held = layout
                            .strips()
                            .iter()
                            .find(|strip| strip.rect.contains(r, c));
                        let hit = cells.iter().any(|x| x.contains(r, c));
                        let i = (s, r as usize, c as usize);
                        let want = if hit {
                            before[i] - remote.scale(step)
                        } else {
                            before[i]
                        };
                        assert_eq!(worker.volume()[i], want, "{strips:?} at {i:?}");
                        let Some(strip) = held else { continue };
                        let (rect, offset) = (strip.rect, strip.offset);
                        let f = offset
                            + (s * rect.rows() + (r - rect.row0) as usize) * rect.cols()
                            + (c - rect.col0) as usize;
                        assert_eq!(buffers.acc[f], if hit { Complex32::ZERO } else { t0 });
                        if let Some(own) = &buffers.own {
                            assert_eq!(own[f], if hit { Complex32::ZERO } else { o0 });
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside the strips")]
    fn splitting_a_rect_the_strips_do_not_hold_panics() {
        let layout = StripLayout::new(&[Rect::new(0, 0, 2, 6), Rect::new(3, 0, 2, 6)], 1);
        pieces(&layout, &[Rect::new(1, 1, 3, 2)]);
    }
}
