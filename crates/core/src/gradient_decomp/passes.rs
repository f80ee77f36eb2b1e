//! Forward and backward accumulated-gradient passes (Sec. IV, Fig. 4),
//! restricted by a static plan to the cells that can carry gradient.
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
//! gains what arrived. A rank therefore has one receive and one send
//! rectangle per sweep (an empty one means *no message at all*) and a final
//! cover of disjoint rectangles outside which its buffer is still all zeros
//! when the round ends — the only cells the tile update and reset visit.
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
//! together, so a send is planned iff its receive is — the argument that
//! already lets every rank agree on the number of rounds. The property suite
//! pins it (`send(a→b) == recv(b←a)` in image coordinates).
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
//! the solver accumulates into and updates over `shared` only, and allocates
//! both buffers over [`PassPlan::frame`], the bounding box of the rank's
//! shared cells over every round. On a 1×1 grid that frame is empty. Without
//! local updates the volume waits for the accumulated total, so the buffers
//! keep the whole extended tile and the update its cover.

use crate::tiling::TileGrid;
use crate::worker::{add_region_flat, send_pooled_region, set_region_flat};
use ptycho_array::Rect;
use ptycho_cluster::{CommError, RankComm, SharedTile, TilePayloadPool};
use ptycho_fft::CArray3;

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

/// The four sweeps in the order they run: `(step, forward, tag)`, `step`
/// being the tile-grid offset from a sender to its receiver.
const SWEEPS: [((isize, isize), bool, u64); 4] = [
    ((1, 0), true, tags::VERTICAL_FORWARD),
    ((-1, 0), false, tags::VERTICAL_BACKWARD),
    ((0, 1), true, tags::HORIZONTAL_FORWARD),
    ((0, -1), false, tags::HORIZONTAL_BACKWARD),
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

/// One rank's part in one directional sweep: receive (add on a forward
/// sweep, replace on a backward one), then send on. `None` is no message.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SweepStep {
    /// What arrives from the upstream neighbour.
    pub recv: Option<Transfer>,
    /// What goes to the downstream neighbour.
    pub send: Option<Transfer>,
}

/// One rank's part in one synchronisation round.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RankPasses {
    /// The four sweeps, in running order (vertical forward, vertical
    /// backward, horizontal forward, horizontal backward).
    pub sweeps: [SweepStep; 4],
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

impl RankPasses {
    /// The same entry for buffers that hold only `frame` (tile-local) of the
    /// extended tile: every rectangle moved into `frame`-local coordinates.
    /// Messages and `shared` lie inside [`PassPlan::frame`]; `cover` lies
    /// inside the frame only when that is the whole extended tile.
    pub fn in_frame(&self, frame: Rect) -> Self {
        let moved = |rects: &[Rect]| rects.iter().map(|rect| rect.to_local(&frame)).collect();
        let mut sweeps = self.sweeps;
        let transfers = sweeps.iter_mut().flat_map(|s| [&mut s.recv, &mut s.send]);
        for Transfer { region, .. } in transfers.flatten() {
            *region = region.to_local(&frame);
        }
        Self {
            sweeps,
            cover: moved(&self.cover),
            shared: moved(&self.shared),
        }
    }
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
                        sweeps: [SweepStep::default(); 4],
                        cover: vec![round[rank].intersect(&extended).to_local(&extended)],
                        shared: Vec::new(),
                    }
                })
                .collect();
            for (sweep, &(step, forward, _)) in SWEEPS.iter().enumerate() {
                // Rank order is row-major, so ascending order visits every
                // chain upstream-first on a forward sweep, descending order
                // on a backward one.
                for i in 0..ranks {
                    let from = if forward { i } else { ranks - 1 - i };
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
                    passes[from].sweeps[sweep].send = Some(Transfer {
                        peer: to,
                        region: sent,
                    });
                    passes[to].sweeps[sweep].recv = Some(Transfer {
                        peer: from,
                        region: arrives,
                    });
                    passes[to].cover.push(arrives);
                }
            }
            for rank_passes in &mut passes {
                rank_passes.cover = disjoint_union(&rank_passes.cover);
                let messages: Vec<Rect> = rank_passes
                    .sweeps
                    .iter()
                    .flat_map(|step| [step.recv, step.send])
                    .flatten()
                    .map(|transfer| transfer.region)
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

    /// The tile-local bounding box of `rank`'s [`RankPasses::shared`] cells
    /// over every round: all of the extended tile a local-update run's
    /// accumulation buffers have to hold. Empty if the rank never exchanges.
    pub fn frame(&self, rank: usize) -> Rect {
        (0..self.rounds())
            .flat_map(|round| &self.passes(round, rank).shared)
            .fold(Rect::empty(), |frame, rect| frame.bounding_union(rect))
    }
}

/// Runs this rank's four planned sweeps of one round on its accumulation
/// buffer. Provided the buffer was zero outside the rank's seed, it ends up
/// equal (over its extended tile) to the sum of the accumulation buffers of
/// every tile whose extended region overlaps it, and zero outside
/// [`RankPasses::cover`]. Each sweep reads and writes only its own receive
/// and send regions, so only [`RankPasses::shared`] is ever visited; a
/// buffer that holds part of the extended tile takes the entry
/// [`RankPasses::in_frame`] of its frame.
///
/// Every rank of the grid must run the same round of the same plan, otherwise
/// the blocking receives deadlock (on the lockstep backend the deadlock is
/// detected and reported as a [`CommError`]).
///
/// Generic over the communication backend: any [`RankComm`] carrying the
/// flat `re, im`-interleaved wire format works. Payloads travel as
/// [`SharedTile`]s, so the transport and the fault-injection layer buffer
/// them by aliasing an `Arc` instead of deep-copying tile-sized buffers —
/// and every payload buffer comes out of the rank's
/// [`TilePayloadPool`], so the steady-state send path allocates nothing.
pub fn run_planned_passes<C: RankComm<SharedTile>>(
    ctx: &mut C,
    passes: &RankPasses,
    buffer: &mut CArray3,
    pool: &mut TilePayloadPool,
) -> Result<(), CommError> {
    for (step, &(_, forward, tag)) in passes.sweeps.iter().zip(&SWEEPS) {
        if let Some(Transfer { peer, region }) = step.recv {
            let payload = ctx.recv(peer, tag)?;
            if forward {
                add_region_flat(buffer, region, payload.values());
            } else {
                set_region_flat(buffer, region, payload.values());
            }
        }
        if let Some(Transfer { peer, region }) = step.send {
            send_pooled_region(ctx, pool, buffer, region, peer, tag);
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
    run_planned_passes(ctx, plan.passes(0, ctx.rank()), buffer, pool)
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
/// top and bottom edge, each band's touching column spans merged.
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
        for (col0, col1) in spans {
            match union.last_mut() {
                Some(r) if r.row0 == top && col0 <= r.col1 => r.col1 = r.col1.max(col1),
                _ => union.push(Rect::from_corners(top, bottom, col0, col1)),
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
        let cases: [&[Rect]; 6] = [
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
        assert!(disjoint_union(&[]).is_empty());
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
