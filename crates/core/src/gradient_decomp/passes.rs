//! Forward and backward accumulated-gradient passes (Sec. IV, Fig. 4),
//! restricted by a static plan to the cells that can carry gradient, and the
//! one executor and wire format every planned transfer goes through.
//!
//! Direct-neighbour gradient exchange is not enough when the probe overlap
//! ratio is high: a probe circle can overlap tiles that are not adjacent to
//! its owner. The paper's remedy is a pair of directional sweeps per axis:
//!
//! * **forward pass** — each tile *adds* its accumulation buffer into the next
//!   tile's buffer over their overlap region, sweeping top→bottom (vertical)
//!   or left→right (horizontal), so contributions cascade down the chain;
//! * **backward pass** — the last tile's now-complete buffer is swept back,
//!   *replacing* the predecessors' buffers over the overlap regions, so every
//!   tile in the chain ends up with the same accumulated values.
//!
//! Running vertical forward+backward, then horizontal forward+backward makes
//! every tile's buffer equal to the total image gradient over its extended
//! tile, including the diagonal overlaps (corner contributions travel through
//! the intermediate tile). The sweeps for different columns (respectively
//! rows) are independent, which is what the APPP pipelining exploits.
//!
//! # The plan
//!
//! The paper ships each whole overlap strip. Between two synchronisation
//! rounds a tile only accumulates the probe windows of that round, so most
//! of a strip is zeros; and the scan is known up front, so *which* cells can
//! be nonzero is plain [`Rect`] arithmetic. [`PassPlan::new`] starts each
//! rank's *cover* with one seed per round — the bounding box of what the rank
//! itself accumulates, clipped to its extended tile — and walks the four
//! sweeps symbolically in the order they run: a transfer from `a` to `b`
//! carries the bounding box of `overlap(a, b) ∩ cover[a]`, and `cover[b]`
//! gains what arrived. A rank's part in a round is therefore an ordered list
//! of [`Step`]s — per sweep at most one receive (added in on a forward sweep,
//! written over the buffer on a backward one) and then one send; a transfer
//! that would carry only zeros is *no step at all* — and a final cover of
//! disjoint rectangles outside which its buffer is still all zeros when the
//! round ends: the only cells the tile update and reset visit.
//!
//! **Why the backward sweep covers the whole chain.** The forward sweep has
//! already folded every upstream tile's cover into the last tile's (`cover[b]
//! ⊇ overlap(a, b) ∩ cover[a]` at every link), and `cover[a]` does not change
//! between `a`'s forward send and its backward receive. So any cell of
//! `overlap(a, b)` outside the backward message is outside `cover[b]`, hence
//! outside `cover[a]`: both buffers hold zero there, and the "replace" the
//! plan skips would have written a zero over a zero.
//!
//! **Deadlock freedom.** Every rank derives the plan from the same grid and
//! the same seeds, and the builder records the two ends of a transfer
//! together, so every send step has exactly one receive step at its peer,
//! with the same tag and the same image cells, and the reverse — the
//! argument that already lets every rank agree on the number of rounds.
//! Each receive precedes its send, so a chain drains upstream-first. The
//! property suite pins both.
//!
//! **`±0.0`.** Restricting a sweep or the update to the cover is exact:
//! `x + 0.0`, `0.0` replacing `0.0` and `v − α·(0.0 − 0.0)` leave every bit
//! of `x` and `v` (a `−0.0` in `v` included) unchanged. The one value a
//! skipped addition *would* have changed is a `−0.0` in the receiving
//! buffer, and an accumulation buffer never holds one: it starts and is
//! reset at `+0.0`, only ever adds, and `+0.0 + −0.0`, like `x + −x`, is
//! `+0.0`. [`run_accumulation_passes`] takes arbitrary buffers but covers
//! every tile whole, which skips nothing.
//!
//! # Shared cells
//!
//! A rank's *shared* cells in a round are the disjoint union of every region
//! it receives or sends in the four sweeps: the only cells of its buffer any
//! pass reads or writes. With local updates (step 8 of Algorithm 1) that is
//! all the buffers have to hold. Every gradient goes into the volume at once
//! and into both `acc` (`AccBuf`) and `own` (what the tile applied itself),
//! and the update applies `total − own`. Where no pass reaches, `acc` and
//! `own` receive the same adds in the same order, so the two are equal bit
//! for bit, `t − o` is `+0.0` (`x − x` is `+0.0` for every finite `x`) and
//! `v − α·(+0.0)` is `v`, a `−0.0` in `v` included. The adds, the
//! update and the reset to `+0.0` over such a cell are therefore skipped:
//! the solver accumulates into and updates over `shared` only. Without
//! local updates the volume waits for the accumulated total, so the round
//! accumulates into and updates over its cover.
//!
//! # One round's cells
//!
//! Algorithm 1 resets `AccBuf` at every round, so a rank's buffers hold one
//! round's cells at a time. Each round is laid out on its own
//! ([`StripLayout::for_round`]): the disjoint union of the cells it visits
//! and its message regions — its shared cells with local updates, `cover ∪
//! shared` without them — as rectangles laid back to back from the front
//! of one flat buffer each for `acc` and `own`, as long as the longest
//! round's layout. On a 1×1 grid there are none. A round runs on the first
//! values of the buffers, as many as its layout holds. That is exact
//! because both buffers are `+0.0` everywhere at every round boundary:
//! every value a round writes (its scatter into the visited cells, a
//! receive into its cover) is reset by its update, and a cell the round
//! only sends from holds `+0.0` throughout, as it would in a whole-tile
//! buffer. [`StripLayout::split`] cuts each round's visited cells and
//! message regions into pieces along its strips once, so the hot path
//! intersects nothing; a message still carries its whole region, gathered
//! from its pieces.
//!
//! # One transfer path
//!
//! [`run_planned_passes`] runs any step list over any [`StripLayout`]: also
//! the Halo Voxel Exchange paste
//! ([`paste_steps`](crate::halo_exchange::solver::paste_steps)) over the
//! tile volume as one strip. Both run on the rank's complex `f32` state,
//! and the executor takes a buffer of either precision. The wire format
//! (interleaved `re, im` `f64`s, slice-major then row-major) is private to
//! this module: an `f32` is widened onto it and narrowed back off it, both
//! exactly, so a message carries the same values whatever the buffer's
//! precision.

use crate::tiling::TileGrid;
use ptycho_array::Rect;
use ptycho_cluster::{CommError, RankComm, SharedTile, TilePayloadPool};
use ptycho_fft::{CArray3, Complex, Real};
use std::ops::Range;

/// Message tags for the four directional passes; combined with the sending
/// rank they uniquely identify each transfer within one synchronisation round.
pub mod tags {
    /// Vertical forward pass (top tile row → bottom tile row).
    pub const VERTICAL_FORWARD: u64 = 0x10;
    /// Vertical backward pass (bottom tile row → top tile row).
    pub const VERTICAL_BACKWARD: u64 = 0x11;
    /// Horizontal forward pass (leftmost tile column → rightmost).
    pub const HORIZONTAL_FORWARD: u64 = 0x12;
    /// Horizontal backward pass (rightmost tile column → leftmost).
    pub const HORIZONTAL_BACKWARD: u64 = 0x13;
}

/// The four sweeps in the order they run: `(step, receive, tag)`, `step`
/// being the tile-grid offset from a sender to its receiver and `receive`
/// what the receiver does with what arrives.
const SWEEPS: [((isize, isize), Op, u64); 4] = [
    ((1, 0), Op::Add, tags::VERTICAL_FORWARD),
    ((-1, 0), Op::Replace, tags::VERTICAL_BACKWARD),
    ((0, 1), Op::Add, tags::HORIZONTAL_FORWARD),
    ((0, -1), Op::Replace, tags::HORIZONTAL_BACKWARD),
];

/// One planned message: the peer rank and the region it covers, in the
/// tile-local coordinates of the rank holding the plan entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Transfer {
    /// The rank at the other end.
    pub peer: usize,
    /// The region received into / sent from, tile-local and never empty.
    pub region: Rect,
}

/// What a [`Step`] does with its transfer's region of the buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Sends the region to the peer.
    Send,
    /// Receives the region and adds it in (a forward sweep).
    Add,
    /// Receives the region and writes it over (a backward sweep, a paste).
    Replace,
}

/// One end of one planned message, in a rank's running order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Step {
    /// Send, or receive and add / replace.
    pub op: Op,
    /// The message tag; the other end's step carries the same one.
    pub tag: u64,
    /// The peer and the region, tile-local to the rank running the step.
    pub transfer: Transfer,
}

impl Step {
    /// `op` on `region` with `peer`, under `tag`.
    pub fn new(op: Op, tag: u64, peer: usize, region: Rect) -> Self {
        let transfer = Transfer { peer, region };
        Self { op, tag, transfer }
    }
}

/// One rank's part in one synchronisation round.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RankPasses {
    /// The four sweeps' messages, in running order (vertical forward,
    /// vertical backward, horizontal forward, horizontal backward), each
    /// sweep's receive before its send.
    pub steps: Vec<Step>,
    /// Disjoint, non-empty tile-local rectangles holding every cell the
    /// rank's buffer can hold a nonzero in once the round's passes are done
    /// (its seed and all it received); empty if it takes no part. Without
    /// local updates, the cells the tile update visits.
    pub cover: Vec<Rect>,
    /// Disjoint, non-empty tile-local rectangles holding every cell of the
    /// round's send and receive regions; empty if the rank exchanges
    /// nothing. Receives lie inside `cover`; a send is the bounding box of
    /// what it carries, so it may also span zero cells between the cover's
    /// rectangles. With local updates, the only cells the round's scatter
    /// accumulates into and its tile update visits (see
    /// [Shared cells](self#shared-cells)).
    pub shared: Vec<Rect>,
}

/// The static pass plan of a job: for every synchronisation round and rank,
/// which sub-rectangles travel in which sweep (see the [module docs](self)).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PassPlan {
    ranks: usize,
    /// Round-major: `steps[round * ranks + rank]`.
    steps: Vec<RankPasses>,
}

impl PassPlan {
    /// Plans `seeds.len() / grid.num_tiles()` rounds. `seeds` is round-major
    /// (`seeds[round * ranks + rank]`), in image coordinates: the bounding
    /// box of what `rank` accumulates itself before the round's passes. A
    /// seed may be empty or hang over the rank's extended tile; it is clipped.
    ///
    /// # Panics
    /// Panics if `seeds` is not a whole number of rounds.
    pub fn new(grid: &TileGrid, seeds: &[Rect]) -> Self {
        let ranks = grid.num_tiles();
        assert_eq!(seeds.len() % ranks, 0, "one seed per round and rank");
        let mut steps = Vec::with_capacity(seeds.len());
        for round in seeds.chunks(ranks) {
            // A cover overlaps itself until it is cut into disjoint rects below.
            let mut passes: Vec<RankPasses> = (0..ranks)
                .map(|rank| {
                    let extended = grid.tile(rank).extended;
                    RankPasses {
                        steps: Vec::new(),
                        cover: vec![round[rank].intersect(&extended).to_local(&extended)],
                        shared: Vec::new(),
                    }
                })
                .collect();
            for &(step, receive, tag) in &SWEEPS {
                // Rank order is row-major, so ascending order visits every
                // chain upstream-first on a forward sweep, descending order
                // on a backward one: a rank's receive is recorded before its
                // send.
                for i in 0..ranks {
                    let from = if receive == Op::Add { i } else { ranks - 1 - i };
                    let Some(to) = neighbour(grid, from, step) else {
                        continue;
                    };
                    let overlap = local_overlap(grid, from, to);
                    let sent = passes[from].cover.iter().fold(Rect::empty(), |sent, rect| {
                        sent.bounding_union(&overlap.intersect(rect))
                    });
                    if sent.is_empty() {
                        continue;
                    }
                    let arrives = sent
                        .to_global(&grid.tile(from).extended)
                        .to_local(&grid.tile(to).extended);
                    passes[from].steps.push(Step::new(Op::Send, tag, to, sent));
                    passes[to]
                        .steps
                        .push(Step::new(receive, tag, from, arrives));
                    passes[to].cover.push(arrives);
                }
            }
            for rank_passes in &mut passes {
                rank_passes.cover = disjoint_union(&rank_passes.cover);
                let messages: Vec<Rect> = rank_passes
                    .steps
                    .iter()
                    .map(|step| step.transfer.region)
                    .collect();
                rank_passes.shared = disjoint_union(&messages);
            }
            steps.append(&mut passes);
        }
        Self { ranks, steps }
    }

    /// Number of planned rounds.
    pub fn rounds(&self) -> usize {
        self.steps.len() / self.ranks
    }

    /// What `rank` does in `round`.
    pub fn passes(&self, round: usize, rank: usize) -> &RankPasses {
        assert!(rank < self.ranks, "rank {rank} outside the planned grid");
        &self.steps[round * self.ranks + rank]
    }
}

/// One tile-local rectangle of a flat buffer: `depth` `rect`-shaped planes,
/// one per slice, each row-major, stored from `offset` on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Strip {
    /// The cells held (tile-local).
    pub rect: Rect,
    /// Index of the strip's first value in the flat buffer.
    pub offset: usize,
}

impl Strip {
    /// The flat index range of each row of `cells`, slice by slice, in a
    /// buffer of `depth` slices ([`Rect::flat_rows`] over the strip's
    /// planes from its offset); `cells` lies inside `rect`, both tile-local.
    pub(crate) fn rows(self, depth: usize, cells: Rect) -> impl Iterator<Item = Range<usize>> {
        self.rect.flat_rows(depth, self.offset, cells)
    }

    /// The flat index range of each row of `cells` in slice `s` alone.
    pub(crate) fn slice_rows(self, s: usize, cells: Rect) -> impl Iterator<Item = Range<usize>> {
        let plane = self.offset + s * self.rect.area();
        self.rect.flat_rows(1, plane, cells)
    }
}

/// The cells of one rectangle that lie in one [`Strip`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Piece {
    pub strip: Strip,
    /// Inside `strip.rect`.
    pub cells: Rect,
}

/// Where a buffer holds its cells: disjoint tile-local [`Strip`]s laid back
/// to back in one flat buffer. A round of a pass plan is laid out on its own
/// ([`Self::for_round`]), at the front of the rank's accumulation buffers;
/// the Halo Voxel Exchange paste runs on the tile volume as one strip.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StripLayout {
    depth: usize,
    strips: Vec<Strip>,
    len: usize,
}

impl StripLayout {
    /// Lays out the disjoint, tile-local `rects` (empty ones dropped) for a
    /// volume of `depth` slices.
    pub fn new(rects: &[Rect], depth: usize) -> Self {
        let mut len = 0;
        let strips = rects
            .iter()
            .filter(|rect| !rect.is_empty())
            .map(|&rect| {
                let strip = Strip { rect, offset: len };
                len += depth * rect.area();
                strip
            })
            .collect();
        Self { depth, strips, len }
    }

    /// The layout of one round of a rank's passes: the disjoint union of
    /// the `cells` its scatter and update visit and every step's region —
    /// every cell the round writes or reads in the accumulation buffers.
    pub fn for_round(steps: &[Step], cells: &[Rect], depth: usize) -> Self {
        let regions = steps.iter().map(|step| step.transfer.region);
        let rects: Vec<Rect> = cells.iter().copied().chain(regions).collect();
        Self::new(&disjoint_union(&rects), depth)
    }

    /// The strips, in buffer order.
    pub fn strips(&self) -> &[Strip] {
        &self.strips
    }

    /// Values in a buffer of this layout: every strip's cells, once per slice.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the layout holds no cell.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Splits a rank's steps — one round of a pass plan, or a voxel paste —
    /// over this layout, once, so the executor, the scatter and the update
    /// walk row ranges and intersect nothing: every step's region, and the
    /// `cells` the round's scatter and update visit, as pieces, one per
    /// strip each meets.
    ///
    /// # Panics
    /// Panics unless the strips hold every step's region and every cell.
    pub fn split(&self, steps: &[Step], cells: &[Rect]) -> StripPasses {
        let mut pieces = Vec::new();
        let steps = steps
            .iter()
            .map(|&step| (step, self.split_rect(step.transfer.region, &mut pieces)))
            .collect();
        let start = pieces.len();
        for &rect in cells {
            self.split_rect(rect, &mut pieces);
        }
        StripPasses {
            depth: self.depth,
            len: self.len,
            steps,
            cells: start..pieces.len(),
            pieces,
        }
    }

    /// Appends `rect`'s pieces to `pieces`; returns their range.
    fn split_rect(&self, rect: Rect, pieces: &mut Vec<Piece>) -> Range<usize> {
        let start = pieces.len();
        pieces.extend(self.strips.iter().filter_map(|&strip| {
            let cells = rect.intersect(&strip.rect);
            (!cells.is_empty()).then_some(Piece { strip, cells })
        }));
        let held: usize = pieces[start..].iter().map(|piece| piece.cells.area()).sum();
        assert_eq!(held, rect.area(), "{rect:?} outside the strips");
        start..pieces.len()
    }
}

/// A rank's steps split over a [`StripLayout`] by [`StripLayout::split`]:
/// what [`run_planned_passes`] runs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StripPasses {
    depth: usize,
    /// The layout's buffer length.
    len: usize,
    /// In running order, each step with the range of its region's pieces.
    steps: Vec<(Step, Range<usize>)>,
    /// The range of the round's visited cells' pieces in `pieces`.
    cells: Range<usize>,
    pieces: Vec<Piece>,
}

impl StripPasses {
    /// The length of the layout the steps were split over: a round runs on
    /// the first `len` values of its rank's accumulation buffers.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The pieces of the cells the round's scatter and update visit.
    pub(crate) fn cells(&self) -> &[Piece] {
        &self.pieces[self.cells.clone()]
    }

    /// The wire length, in `f64`s, of each message the steps send.
    pub(crate) fn send_lens(&self) -> Vec<usize> {
        let sends = self.steps.iter().filter(|(step, _)| step.op == Op::Send);
        sends
            .map(|(step, _)| wire_len(self.depth, step.transfer.region))
            .collect()
    }
}

/// The length of `region` of a `depth`-slice buffer on the wire, in `f64`s.
fn wire_len(depth: usize, region: Rect) -> usize {
    depth * region.area() * 2
}

/// Runs this rank's steps, in order, on its buffer, `passes` split over the
/// buffer's [`StripLayout`]: a send ships its region, a receive blocks for
/// the peer's and adds it in or writes it over. Each step touches only its
/// own region, and the wire carries each region whole whatever strips hold
/// it. After one round of a [`PassPlan`], an accumulation buffer that was
/// zero outside the rank's seed equals (over the cells it holds) the sum of
/// the buffers of every tile whose extended region overlaps it, and is zero
/// outside [`RankPasses::cover`]; only [`RankPasses::shared`] is visited.
///
/// Every rank of the grid must run the same round of the same plan (or the
/// same paste), otherwise the blocking receives deadlock (on the lockstep
/// backend the deadlock is detected and reported as a [`CommError`]).
///
/// Generic over the buffer's precision and the communication backend: any
/// [`RankComm`] carrying the flat `re, im`-interleaved wire format works.
/// Payloads travel as [`SharedTile`]s, so the transport and the
/// fault-injection layer buffer them by aliasing an `Arc` instead of
/// deep-copying tile-sized buffers — and every payload buffer comes out of
/// the rank's [`TilePayloadPool`], so the steady-state send path allocates
/// nothing.
///
/// # Panics
/// Panics unless `buffer` has the length of the layout `passes` was split
/// over.
pub fn run_planned_passes<R: Real, C: RankComm<SharedTile>>(
    ctx: &mut C,
    passes: &StripPasses,
    buffer: &mut [Complex<R>],
    pool: &mut TilePayloadPool,
) -> Result<(), CommError> {
    assert_eq!(buffer.len(), passes.len, "buffer does not match the layout");
    for (Step { op, tag, transfer }, pieces) in &passes.steps {
        let (peer, tag) = (transfer.peer, *tag);
        let at = FlatRegion {
            region: transfer.region,
            depth: passes.depth,
            pieces: &passes.pieces[pieces.clone()],
        };
        match op {
            Op::Send => send_pooled_region(ctx, pool, buffer, at, peer, tag),
            Op::Add => {
                let payload = ctx.recv(peer, tag)?;
                apply_region_flat(buffer, at, payload.values(), |dst, src| *dst += src);
            }
            Op::Replace => {
                let payload = ctx.recv(peer, tag)?;
                apply_region_flat(buffer, at, payload.values(), |dst, src| *dst = src);
            }
        }
    }
    Ok(())
}

/// Runs all four directional passes on this rank's whole accumulation
/// buffer, whatever it holds: one [`run_planned_passes`] round of a plan
/// whose covers are whole extended tiles, so every whole overlap strip
/// travels. Every rank in the grid must call this the same number of times.
pub fn run_accumulation_passes<C: RankComm<SharedTile>>(
    ctx: &mut C,
    grid: &TileGrid,
    buffer: &mut CArray3,
    pool: &mut TilePayloadPool,
) -> Result<(), CommError> {
    let whole_tiles: Vec<Rect> = grid.tiles().iter().map(|tile| tile.extended).collect();
    let plan = PassPlan::new(grid, &whole_tiles);
    let layout = StripLayout::new(&[buffer.plane_bounds()], buffer.depth());
    let passes = layout.split(&plan.passes(0, ctx.rank()).steps, &[]);
    run_planned_passes(ctx, &passes, buffer.as_mut_slice(), pool)
}

/// A wire-format region and where its cells lie in a flat complex buffer of
/// `depth` slices: the disjoint `pieces` of `region` the buffer holds, one
/// per strip they lie in, together tiling `region` ([`StripLayout::split`]
/// checks it).
#[derive(Clone, Copy, Debug)]
struct FlatRegion<'a> {
    region: Rect,
    depth: usize,
    pieces: &'a [Piece],
}

impl FlatRegion<'_> {
    /// The region's length on the wire, in `f64`s.
    fn flat_len(&self) -> usize {
        wire_len(self.depth, self.region)
    }

    /// The flat range of every row of every piece, slice by slice, paired
    /// with the same cells' range in the wire payload (in `f64`s).
    fn rows(&self) -> impl Iterator<Item = (Range<usize>, Range<usize>)> + '_ {
        self.pieces.iter().flat_map(move |piece| {
            let wire_rows = self.region.flat_rows(self.depth, 0, piece.cells);
            let rows = piece.strip.rows(self.depth, piece.cells);
            rows.zip(wire_rows.map(|row| 2 * row.start..2 * row.end))
        })
    }
}

/// Extracts `at` of `buffer` into a pooled payload and sends it — the one
/// send path, allocation-free in the steady state. The tile retired back
/// into the pool keeps its buffer alive until every comm-layer alias has
/// been dropped, at which point the pool recycles it.
fn send_pooled_region<R: Real, C: RankComm<SharedTile>>(
    ctx: &mut C,
    pool: &mut TilePayloadPool,
    buffer: &[Complex<R>],
    at: FlatRegion<'_>,
    to: usize,
    tag: u64,
) {
    let mut tile = pool.acquire(at.flat_len());
    extract_region_flat_into(
        buffer,
        at,
        tile.unique_values_mut()
            .expect("freshly acquired tiles are unaliased"),
    );
    ctx.isend(to, tag, tile.clone());
    pool.retire(tile);
}

/// Flattens `at` of `buffer` into a caller-owned buffer of exactly its wire
/// length (a pooled [`SharedTile`] payload), row slice by row slice, so the
/// steady-state send path performs no allocation. The pieces tile the
/// region, so every value of `out` is overwritten, widened exactly.
fn extract_region_flat_into<R: Real>(buffer: &[Complex<R>], at: FlatRegion<'_>, out: &mut [f64]) {
    assert_eq!(
        out.len(),
        at.flat_len(),
        "payload buffer must match the region's flat size"
    );
    for (src, dst) in at.rows() {
        for (pair, v) in out[dst].chunks_exact_mut(2).zip(&buffer[src]) {
            pair[0] = v.re.to_f64();
            pair[1] = v.im.to_f64();
        }
    }
}

/// Applies `op(cell, value)` to every cell of `at` in `buffer`, row slice by
/// row slice, `value` read from the interleaved `re, im` payload `data` and
/// rounded to the buffer's precision (exact for what a buffer of that
/// precision sent) — the one receive path.
fn apply_region_flat<R: Real>(
    buffer: &mut [Complex<R>],
    at: FlatRegion<'_>,
    data: &[f64],
    mut op: impl FnMut(&mut Complex<R>, Complex<R>),
) {
    assert_eq!(
        data.len(),
        at.flat_len(),
        "flat payload length {} does not match region {:?} x {} slices",
        data.len(),
        at.region,
        at.depth
    );
    for (dst, src) in at.rows() {
        for (cell, pair) in buffer[dst].iter_mut().zip(data[src].chunks_exact(2)) {
            op(
                cell,
                Complex::new(R::from_f64(pair[0]), R::from_f64(pair[1])),
            );
        }
    }
}

/// The rank `(drow, dcol)` tiles away from this one, if the grid has it.
fn neighbour(grid: &TileGrid, rank: usize, (drow, dcol): (isize, isize)) -> Option<usize> {
    let (gr, gc) = grid.tile(rank).grid_pos;
    let (gr, gc) = (gr.checked_add_signed(drow)?, gc.checked_add_signed(dcol)?);
    let (grid_rows, grid_cols) = grid.grid_shape();
    (gr < grid_rows && gc < grid_cols).then(|| grid.rank_at(gr, gc))
}

/// The overlap between this rank and a peer, in this rank's tile-local
/// coordinates (empty when the extended tiles do not touch).
fn local_overlap(grid: &TileGrid, rank: usize, peer: usize) -> Rect {
    grid.overlap(rank, peer).to_local(&grid.tile(rank).extended)
}

/// The union of `rects` as disjoint non-empty rectangles: bands cut at every
/// top and bottom edge, each band's touching column spans merged, and a
/// span merged into the rectangle that ends right above it with the same
/// columns.
fn disjoint_union(rects: &[Rect]) -> Vec<Rect> {
    let rects: Vec<&Rect> = rects.iter().filter(|rect| !rect.is_empty()).collect();
    let mut edges: Vec<i64> = rects.iter().flat_map(|r| [r.row0, r.row1]).collect();
    edges.sort_unstable();
    edges.dedup();
    let mut union: Vec<Rect> = Vec::new();
    for (&top, &bottom) in edges.iter().zip(edges.iter().skip(1)) {
        let mut spans: Vec<(i64, i64)> = rects
            .iter()
            .filter(|rect| rect.row0 <= top && bottom <= rect.row1)
            .map(|rect| (rect.col0, rect.col1))
            .collect();
        spans.sort_unstable();
        let mut band: Vec<(i64, i64)> = Vec::new();
        for (col0, col1) in spans {
            match band.last_mut() {
                Some(span) if col0 <= span.1 => span.1 = span.1.max(col1),
                _ => band.push((col0, col1)),
            }
        }
        for (col0, col1) in band {
            let above = union
                .iter_mut()
                .find(|r| r.row1 == top && (r.col0, r.col1) == (col0, col1));
            match above {
                Some(r) => r.row1 = bottom,
                None => union.push(Rect::from_corners(top, bottom, col0, col1)),
            }
        }
    }
    union
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptycho_array::{Array3, Rect};
    use ptycho_cluster::{Cluster, ClusterTopology, CommBackend};
    use ptycho_fft::Complex64;
    use ptycho_sim::scan::{ScanConfig, ScanPattern};

    fn scan_for(image: usize) -> ScanPattern {
        ScanPattern::generate(ScanConfig {
            rows: 4,
            cols: 4,
            step_px: (image / 5) as f64,
            origin_px: (8.0, 8.0),
            window_px: 8,
            probe_radius_px: 4.0,
        })
    }

    /// Reference: scatter every tile's buffer into a global image and read the
    /// total back over each tile's extended region.
    fn global_reference(
        grid: &TileGrid,
        locals: &[CArray3],
        slices: usize,
        image: usize,
    ) -> Vec<CArray3> {
        let mut global = Array3::full(slices, image, image, Complex64::ZERO);
        for (rank, local) in locals.iter().enumerate() {
            global.add_region(grid.tile(rank).extended, local);
        }
        (0..grid.num_tiles())
            .map(|rank| global.extract_region_with_fill(grid.tile(rank).extended, Complex64::ZERO))
            .collect()
    }

    fn run_passes_and_compare(grid_rows: usize, grid_cols: usize, halo: usize) {
        let image = 48;
        let slices = 2;
        let scan = scan_for(image);
        let grid = TileGrid::new(image, image, grid_rows, grid_cols, halo, &scan);
        let ranks = grid.num_tiles();

        // Give every rank a deterministic, rank-dependent buffer.
        let initial: Vec<CArray3> = (0..ranks)
            .map(|rank| {
                let ext = grid.tile(rank).extended;
                Array3::from_fn(slices, ext.rows(), ext.cols(), |s, r, c| {
                    Complex64::new(
                        (rank * 1000 + s * 100 + r * 10 + c) as f64 * 0.001,
                        (rank + 1) as f64,
                    )
                })
            })
            .collect();
        let expected = global_reference(&grid, &initial, slices, image);

        let cluster = Cluster::new(ClusterTopology::summit());
        let grid_ref = &grid;
        let initial_ref = &initial;
        let outcomes = cluster
            .run::<SharedTile, CArray3, _>(ranks, |ctx| {
                let mut buffer = initial_ref[ctx.rank()].clone();
                let mut pool = TilePayloadPool::new();
                run_accumulation_passes(ctx, grid_ref, &mut buffer, &mut pool)?;
                Ok(buffer)
            })
            .expect("no faults injected");

        for (rank, outcome) in outcomes.iter().enumerate() {
            let got = &outcome.result;
            let want = &expected[rank];
            assert_eq!(got.shape(), want.shape());
            for (a, b) in got.iter().zip(want.iter()) {
                assert!(
                    (*a - *b).abs() < 1e-9,
                    "rank {rank}: accumulated buffer mismatch ({a:?} vs {b:?})"
                );
            }
        }
    }

    #[test]
    fn passes_match_global_reference_3x3() {
        run_passes_and_compare(3, 3, 6);
    }

    #[test]
    fn passes_match_global_reference_2x4() {
        run_passes_and_compare(2, 4, 4);
    }

    #[test]
    fn passes_match_global_reference_1x1_is_noop() {
        run_passes_and_compare(1, 1, 4);
    }

    #[test]
    fn passes_match_global_reference_single_row() {
        run_passes_and_compare(1, 4, 5);
    }

    #[test]
    fn passes_match_global_reference_single_column() {
        run_passes_and_compare(4, 1, 5);
    }

    #[test]
    fn predecessor_successor_geometry() {
        let image = 48;
        let scan = scan_for(image);
        let grid = TileGrid::new(image, image, 3, 3, 4, &scan);
        let center = grid.rank_at(1, 1);
        assert_eq!(neighbour(&grid, center, (-1, 0)), Some(grid.rank_at(0, 1)));
        assert_eq!(neighbour(&grid, center, (1, 0)), Some(grid.rank_at(2, 1)));
        assert_eq!(neighbour(&grid, center, (0, -1)), Some(grid.rank_at(1, 0)));
        assert_eq!(neighbour(&grid, center, (0, 1)), Some(grid.rank_at(1, 2)));
        assert_eq!(neighbour(&grid, 0, (-1, 0)), None);
        assert_eq!(neighbour(&grid, grid.rank_at(2, 2), (0, 1)), None);
    }

    #[test]
    fn disjoint_union_rasterises_to_the_union() {
        let cases: [&[Rect]; 7] = [
            // Overlapping.
            &[
                Rect::new(0, 0, 4, 4),
                Rect::new(2, 2, 4, 4),
                Rect::new(-1, 3, 2, 5),
            ],
            // Nested, and a repeat.
            &[
                Rect::new(0, 0, 6, 6),
                Rect::new(1, 1, 2, 3),
                Rect::new(0, 0, 6, 6),
            ],
            // Edge-adjacent: side by side, stacked, and touching at a corner.
            &[
                Rect::new(0, 0, 3, 2),
                Rect::new(0, 2, 3, 2),
                Rect::new(3, 0, 2, 4),
            ],
            &[
                Rect::new(0, 0, 2, 2),
                Rect::new(2, 2, 2, 2),
                Rect::new(5, 0, 1, 1),
            ],
            // Stacked with equal columns, around a band of other spans.
            &[
                Rect::new(0, 0, 2, 3),
                Rect::new(2, 0, 2, 3),
                Rect::new(1, 4, 2, 2),
                Rect::new(4, 0, 1, 4),
            ],
            // Empty inputs, alone and among others.
            &[Rect::empty(), Rect::new(3, 3, 0, 5)],
            &[
                Rect::new(1, 1, 0, 0),
                Rect::new(1, 1, 2, 2),
                Rect::from_corners(4, 2, 0, 9),
            ],
        ];
        for rects in cases {
            let union = disjoint_union(rects);
            for (i, a) in union.iter().enumerate() {
                assert!(!a.is_empty(), "{rects:?} → {union:?}");
                for b in &union[i + 1..] {
                    assert!(!a.intersects(b), "{rects:?} → {union:?}");
                }
            }
            for row in -2..8 {
                for col in -2..10 {
                    assert_eq!(
                        union.iter().any(|r| r.contains(row, col)),
                        rects.iter().any(|r| r.contains(row, col)),
                        "{rects:?} → {union:?} at ({row}, {col})"
                    );
                }
            }
        }
        // Touching spans of one band make one rectangle.
        let side_by_side = [Rect::new(0, 2, 2, 3), Rect::new(0, 0, 2, 2)];
        assert_eq!(disjoint_union(&side_by_side), vec![Rect::new(0, 0, 2, 5)]);
        // Stacked rectangles with the same columns make one rectangle, also
        // when a band between them is cut by a neighbour's edge; different
        // columns stay apart.
        let stacked = [
            Rect::new(0, 1, 2, 3),
            Rect::new(2, 1, 3, 3),
            Rect::new(3, 6, 1, 2),
            Rect::new(5, 1, 1, 2),
        ];
        assert_eq!(
            disjoint_union(&stacked),
            vec![
                Rect::new(0, 1, 5, 3),
                Rect::new(3, 6, 1, 2),
                Rect::new(5, 1, 1, 2),
            ]
        );
        assert!(disjoint_union(&[]).is_empty());
    }

    fn volume_with_pattern() -> CArray3 {
        Array3::from_fn(2, 6, 6, |s, r, c| {
            Complex64::new((s * 36 + r * 6 + c) as f64, -(r as f64))
        })
    }

    fn flat_bits(v: &[Complex64]) -> Vec<(u64, u64)> {
        v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
    }

    /// The values a buffer of `layout` holds of a tile-shaped volume.
    fn gather(layout: &StripLayout, whole: &CArray3) -> Vec<Complex64> {
        let strips = layout.strips().iter();
        strips
            .flat_map(|strip| whole.extract_region(strip.rect).as_slice().to_vec())
            .collect()
    }

    /// The one-strip layout of `volume`, as the voxel paste holds it.
    fn whole(volume: &CArray3) -> StripLayout {
        StripLayout::new(&[volume.plane_bounds()], volume.depth())
    }

    /// The wire payload of `region` of `volume` built cell by cell —
    /// slice-major, then row-major, `re, im` interleaved — sharing no code
    /// with the codec.
    fn wire_reference(volume: &CArray3, region: Rect) -> Vec<f64> {
        let mut out = Vec::new();
        for s in 0..volume.depth() {
            for r in region.row0..region.row1 {
                for c in region.col0..region.col1 {
                    let v = volume[(s, r as usize, c as usize)];
                    out.extend([v.re, v.im]);
                }
            }
        }
        out
    }

    /// Extracts `region` of `buffer`, laid out by `layout`, into a payload.
    fn extract(layout: &StripLayout, buffer: &[Complex64], region: Rect) -> Vec<f64> {
        let split = layout.split(&[], &[region]);
        let at = FlatRegion {
            region,
            depth: layout.depth,
            pieces: split.cells(),
        };
        let mut out = vec![f64::NAN; at.flat_len()];
        extract_region_flat_into(buffer, at, &mut out);
        out
    }

    /// Applies `data` to `region` of `buffer`, laid out by `layout`: added
    /// in, or written over it.
    fn apply(
        layout: &StripLayout,
        buffer: &mut [Complex64],
        region: Rect,
        data: &[f64],
        add: bool,
    ) {
        let split = layout.split(&[], &[region]);
        let at = FlatRegion {
            region,
            depth: layout.depth,
            pieces: split.cells(),
        };
        if add {
            apply_region_flat(buffer, at, data, |dst, src| *dst += src);
        } else {
            apply_region_flat(buffer, at, data, |dst, src| *dst = src);
        }
    }

    #[test]
    fn flat_roundtrip_set() {
        let vol = volume_with_pattern();
        let layout = whole(&vol);
        let region = Rect::new(1, 2, 3, 3);
        let flat = extract(&layout, vol.as_slice(), region);
        assert_eq!(flat.len(), 2 * 3 * 3 * 2);
        assert_eq!(flat, wire_reference(&vol, region));

        let mut target = Array3::full(2, 6, 6, Complex64::ZERO);
        apply(&layout, target.as_mut_slice(), region, &flat, false);
        for s in 0..2 {
            for r in 0..6 {
                for c in 0..6 {
                    let inside = region.contains(r as i64, c as i64);
                    let want = if inside {
                        vol[(s, r, c)]
                    } else {
                        Complex64::ZERO
                    };
                    assert_eq!(target[(s, r, c)], want, "({s}, {r}, {c})");
                }
            }
        }
    }

    #[test]
    fn flat_add_accumulates() {
        let vol = volume_with_pattern();
        let layout = whole(&vol);
        let region = Rect::new(0, 0, 2, 2);
        let flat = extract(&layout, vol.as_slice(), region);
        let mut target = vol.clone();
        apply(&layout, target.as_mut_slice(), region, &flat, true);
        assert_eq!(target[(0, 0, 0)], vol[(0, 0, 0)] + vol[(0, 0, 0)]);
        assert_eq!(target[(1, 1, 1)], vol[(1, 1, 1)].scale(2.0));
        // Outside region unchanged.
        assert_eq!(target[(0, 5, 5)], vol[(0, 5, 5)]);
    }

    #[test]
    fn flat_regions_across_strips_match_the_volume_wire_format() {
        // A region held in pieces of several strips travels exactly as the
        // wire format says, cell by cell: the same payload out, the same
        // cells written in.
        let vol = volume_with_pattern();
        let strips = [
            Rect::new(0, 0, 2, 6),
            Rect::new(2, 0, 3, 2),
            Rect::new(2, 2, 3, 4),
            Rect::new(5, 1, 1, 5),
        ];
        let layout = StripLayout::new(&strips, vol.depth());
        for region in [
            Rect::new(1, 1, 4, 4),
            Rect::new(0, 0, 5, 6),
            Rect::new(5, 2, 1, 3),
        ] {
            let want = wire_reference(&vol, region);
            assert_eq!(extract(&layout, &gather(&layout, &vol), region), want);

            let data: Vec<f64> = (0..want.len()).map(|i| i as f64 * 0.5 - 3.0).collect();
            let (rows, cols) = region.shape();
            let block = Array3::from_fn(vol.depth(), rows, cols, |s, r, c| {
                let i = 2 * ((s * rows + r) * cols + c);
                Complex64::new(data[i], data[i + 1])
            });
            let (mut added, mut set) = (vol.clone(), vol.clone());
            added.add_region(region, &block);
            set.paste_region(region, &block);
            for (whole, add) in [(added, true), (set, false)] {
                let mut buffer = gather(&layout, &vol);
                apply(&layout, &mut buffer, region, &data, add);
                assert_eq!(flat_bits(&buffer), flat_bits(&gather(&layout, &whole)));
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not match region")]
    fn wrong_payload_length_panics() {
        let mut vol = volume_with_pattern();
        let layout = whole(&vol);
        apply(
            &layout,
            vol.as_mut_slice(),
            Rect::new(0, 0, 2, 2),
            &[1.0, 2.0],
            true,
        );
    }

    #[test]
    fn local_overlap_is_inside_extended_tile() {
        let image = 48;
        let scan = scan_for(image);
        let grid = TileGrid::new(image, image, 3, 3, 4, &scan);
        let a = grid.rank_at(1, 1);
        let b = grid.rank_at(1, 2);
        let local = local_overlap(&grid, a, b);
        let ext = grid.tile(a).extended;
        let local_bounds = Rect::of_shape(ext.rows(), ext.cols());
        assert!(local_bounds.contains_rect(&local));
        assert!(!local.is_empty());
    }
}
