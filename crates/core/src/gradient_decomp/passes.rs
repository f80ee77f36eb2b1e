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
//! be nonzero is plain [`Rect`] arithmetic. [`PassPlan::new`] takes one seed
//! rectangle per round and rank — the bounding box of what the rank itself
//! accumulates, clipped to its extended tile — as that rank's *dirty*
//! rectangle, and walks the four sweeps symbolically in the order they run:
//! a transfer from `a` to `b` carries `overlap(a, b) ∩ dirty[a]`, and
//! `dirty[b]` grows to the bounding box of itself and what arrived. A rank
//! therefore has one receive and one send rectangle per sweep (an empty one
//! means *no message at all*) and a final dirty rectangle, outside which its
//! buffer is still all zeros when the round ends — the only part the tile
//! update and the buffer reset have to visit.
//!
//! **Why the backward sweep covers the whole chain.** The forward sweep has
//! already folded every upstream tile's dirty rectangle into the last tile's
//! (`dirty[b] ⊇ overlap(a, b) ∩ dirty[a]` at every link), and `dirty[a]` does
//! not change between `a`'s forward send and its backward receive. So any
//! cell of `overlap(a, b)` outside `dirty[b]` is outside `dirty[a]` too:
//! both buffers hold zero there, and the "replace" the plan skips would have
//! written a zero over a zero.
//!
//! **Deadlock freedom.** Every rank derives the plan from the same grid and
//! the same seeds, and the builder records the two ends of a transfer
//! together, so a send is planned iff its receive is — the argument that
//! already lets every rank agree on the number of rounds. The property suite
//! pins it (`send(a→b) == recv(b←a)` in image coordinates).
//!
//! **`±0.0`.** Restricting a sweep is exact, not approximate: `x + 0.0`,
//! `0.0` replacing `0.0` and `v − α·(0.0 − 0.0)` leave every bit of `x` and
//! `v` (a `−0.0` in `v` included) unchanged. The one value a skipped
//! addition *would* have changed is a `−0.0` in the receiving buffer, and an
//! accumulation buffer never holds one: it starts at `+0.0` and only ever
//! adds, and `+0.0 + −0.0`, like `x + −x`, is `+0.0`. [`run_accumulation_passes`]
//! takes arbitrary buffers but declares every tile fully dirty, which skips
//! nothing.

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

/// The direction of one sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Axis {
    Vertical,
    Horizontal,
}

/// The four sweeps in the order they run: `(axis, forward, tag)`.
const SWEEPS: [(Axis, bool, u64); 4] = [
    (Axis::Vertical, true, tags::VERTICAL_FORWARD),
    (Axis::Vertical, false, tags::VERTICAL_BACKWARD),
    (Axis::Horizontal, true, tags::HORIZONTAL_FORWARD),
    (Axis::Horizontal, false, tags::HORIZONTAL_BACKWARD),
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
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RankPasses {
    /// The four sweeps, in running order (vertical forward, vertical
    /// backward, horizontal forward, horizontal backward).
    pub sweeps: [SweepStep; 4],
    /// The tile-local bounding box of every cell the rank's buffer can hold
    /// a nonzero in once the round's passes are done (its seed and all it
    /// received); possibly empty.
    pub dirty: Rect,
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
            let mut passes: Vec<RankPasses> = (0..ranks)
                .map(|rank| {
                    let extended = grid.tile(rank).extended;
                    RankPasses {
                        sweeps: [SweepStep::default(); 4],
                        dirty: round[rank]
                            .to_local(&extended)
                            .intersect(&Rect::of_shape(extended.rows(), extended.cols())),
                    }
                })
                .collect();
            for (sweep, &(axis, forward, _)) in SWEEPS.iter().enumerate() {
                // Rank order is row-major, so ascending order visits every
                // chain upstream-first on a forward sweep, descending order
                // on a backward one.
                for i in 0..ranks {
                    let from = if forward { i } else { ranks - 1 - i };
                    let to = if forward {
                        successor(grid, from, axis)
                    } else {
                        predecessor(grid, from, axis)
                    };
                    let Some(to) = to else { continue };
                    let sent = local_overlap(grid, from, to).intersect(&passes[from].dirty);
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
                    passes[to].dirty = passes[to].dirty.bounding_union(&arrives);
                }
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

/// Runs this rank's four planned sweeps of one round on its accumulation
/// buffer. Provided the buffer was zero outside the rank's seed, it ends up
/// equal (over its extended tile) to the sum of the accumulation buffers of
/// every tile whose extended region overlaps it, and zero outside
/// [`RankPasses::dirty`].
///
/// Every rank of the grid must run the same round of the same plan, otherwise
/// the blocking receives deadlock (on the lockstep backend the deadlock is
/// detected and reported as a [`CommError`]).
///
/// Generic over the communication backend: any [`RankComm`] carrying the
/// flat `re, im`-interleaved wire format works. Payloads travel as
/// [`SharedTile`]s, so the fault-injection and reliable-delivery layers
/// duplicate/buffer them by aliasing an `Arc` instead of deep-copying
/// tile-sized buffers — and every payload buffer comes out of the rank's
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
/// that declares every extended tile fully dirty, so every whole overlap
/// strip travels. Every rank in the grid must call this the same number of
/// times.
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

/// The neighbour "before" this rank along an axis (above / to the left).
fn predecessor(grid: &TileGrid, rank: usize, axis: Axis) -> Option<usize> {
    let (gr, gc) = grid.tile(rank).grid_pos;
    match axis {
        Axis::Vertical if gr > 0 => Some(grid.rank_at(gr - 1, gc)),
        Axis::Horizontal if gc > 0 => Some(grid.rank_at(gr, gc - 1)),
        _ => None,
    }
}

/// The neighbour "after" this rank along an axis (below / to the right).
fn successor(grid: &TileGrid, rank: usize, axis: Axis) -> Option<usize> {
    let (gr, gc) = grid.tile(rank).grid_pos;
    let (grid_rows, grid_cols) = grid.grid_shape();
    match axis {
        Axis::Vertical if gr + 1 < grid_rows => Some(grid.rank_at(gr + 1, gc)),
        Axis::Horizontal if gc + 1 < grid_cols => Some(grid.rank_at(gr, gc + 1)),
        _ => None,
    }
}

/// The overlap between this rank and a peer, in this rank's tile-local
/// coordinates (empty when the extended tiles do not touch).
fn local_overlap(grid: &TileGrid, rank: usize, peer: usize) -> Rect {
    grid.overlap(rank, peer).to_local(&grid.tile(rank).extended)
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
        assert_eq!(
            predecessor(&grid, center, Axis::Vertical),
            Some(grid.rank_at(0, 1))
        );
        assert_eq!(
            successor(&grid, center, Axis::Vertical),
            Some(grid.rank_at(2, 1))
        );
        assert_eq!(
            predecessor(&grid, center, Axis::Horizontal),
            Some(grid.rank_at(1, 0))
        );
        assert_eq!(
            successor(&grid, center, Axis::Horizontal),
            Some(grid.rank_at(1, 2))
        );
        assert_eq!(predecessor(&grid, 0, Axis::Vertical), None);
        assert_eq!(successor(&grid, grid.rank_at(2, 2), Axis::Horizontal), None);
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
