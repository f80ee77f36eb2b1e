//! Property-based tests for the decomposition geometry, the pass plan,
//! stitching and the analytic memory model.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use ptycho_array::{Array3, Rect};
use ptycho_cluster::{
    ClusterTopology, CommBackend, LockstepBackend, RankComm, SharedTile, TilePayloadPool,
};
use ptycho_core::gradient_decomp::passes::{
    run_accumulation_passes, run_planned_passes, tags, Op, PassPlan, Step, StripLayout,
};
use ptycho_core::halo_exchange::solver::paste_steps;
use ptycho_core::memory_model::{decomposition_geometry, gd_memory_per_gpu};
use ptycho_core::stitch::{border_mask, stitch_tiles};
use ptycho_core::tiling::TileGrid;
use ptycho_fft::{CArray3, Complex64};
use ptycho_sim::dataset::DatasetSpec;
use ptycho_sim::scan::{ScanConfig, ScanPattern};

fn scan_for(image: usize, positions: usize) -> ScanPattern {
    let window = 16.min(image / 2).max(4);
    ScanPattern::generate(ScanConfig::covering(
        image,
        image,
        positions,
        positions,
        window,
        window as f64 / 3.0,
    ))
}

/// Runs one pass round on every rank of `grid`, each starting from its
/// entry of `initial`: the planned sweep of `plan`'s round 0, or the
/// whole-buffer entry when there is no plan.
fn run_passes(grid: &TileGrid, initial: &[CArray3], plan: Option<&PassPlan>) -> Vec<CArray3> {
    LockstepBackend::new(ClusterTopology::summit())
        .run::<SharedTile, CArray3, _>(grid.num_tiles(), |ctx| {
            let mut buffer = initial[ctx.rank()].clone();
            let mut pool = TilePayloadPool::new();
            match plan {
                Some(plan) => {
                    let layout = StripLayout::new(&[buffer.plane_bounds()], buffer.depth());
                    let passes = layout.split(&plan.passes(0, ctx.rank()).steps, &[]);
                    run_planned_passes(ctx, &passes, buffer.as_mut_slice(), &mut pool)?
                }
                None => run_accumulation_passes(ctx, grid, &mut buffer, &mut pool)?,
            }
            Ok(buffer)
        })
        .expect("no faults injected")
        .into_iter()
        .map(|outcome| outcome.result)
        .collect()
}

/// Per rank, the single bounding box a plan would track instead of a cover:
/// the clipped seed, grown by every transfer `overlap(a, b) ∩ box[a]` of
/// the four sweeps in running order (image coordinates).
fn bounding_boxes(grid: &TileGrid, seeds: &[Rect]) -> Vec<Rect> {
    let ranks = grid.num_tiles();
    let (grid_rows, grid_cols) = grid.grid_shape();
    let neighbour = |rank: usize, (dr, dc): (i64, i64)| {
        let (r, c) = grid.tile(rank).grid_pos;
        let (r, c) = (r as i64 + dr, c as i64 + dc);
        ((0..grid_rows as i64).contains(&r) && (0..grid_cols as i64).contains(&c))
            .then(|| grid.rank_at(r as usize, c as usize))
    };
    let mut boxes: Vec<Rect> = (0..ranks)
        .map(|rank| seeds[rank].intersect(&grid.tile(rank).extended))
        .collect();
    for step in [(1, 0), (-1, 0), (0, 1), (0, -1)] {
        let forward = step.0 + step.1 > 0;
        for i in 0..ranks {
            let from = if forward { i } else { ranks - 1 - i };
            if let Some(to) = neighbour(from, step) {
                let sent = grid.overlap(from, to).intersect(&boxes[from]);
                boxes[to] = boxes[to].bounding_union(&sent);
            }
        }
    }
    boxes
}

fn bits_of(v: &Complex64) -> (u64, u64) {
    (v.re.to_bits(), v.im.to_bits())
}

fn bits(buffer: &CArray3) -> Vec<(u64, u64)> {
    buffer.iter().map(bits_of).collect()
}

/// True when `rect` lies inside the union of the disjoint `union`.
fn inside_union(rect: &Rect, union: &[Rect]) -> bool {
    union
        .iter()
        .map(|u| u.intersect(rect).area())
        .sum::<usize>()
        == rect.area()
}

/// Deadlock freedom: every planned send `a→b` is exactly one planned
/// receive at `b` from `a`, with the same tag and the same cells of the
/// image, and every planned receive is exactly one send the same way round.
/// `steps[rank]` is a rank's list, tile-local to `extended(rank)`. Returns
/// the number of sends.
fn check_pairing(
    steps: &[&[Step]],
    extended: impl Fn(usize) -> Rect,
) -> Result<usize, TestCaseError> {
    // A step seen from the other end: (peer, rank, tag, image region).
    let global = |rank: usize, step: &Step| {
        let region = step.transfer.region.to_global(&extended(rank));
        (step.transfer.peer, step.tag, region)
    };
    let mut sends = 0;
    for (rank, list) in steps.iter().enumerate() {
        for step in list.iter() {
            prop_assert!(
                !step.transfer.region.is_empty(),
                "rank {}: {:?}",
                rank,
                step
            );
            let (peer, tag, region) = global(rank, step);
            prop_assert!(
                peer < steps.len() && peer != rank,
                "rank {}: {:?}",
                rank,
                step
            );
            let partners = steps[peer]
                .iter()
                .filter(|other| (other.op == Op::Send) != (step.op == Op::Send))
                .filter(|other| global(peer, other) == (rank, tag, region))
                .count();
            prop_assert_eq!(
                partners,
                1,
                "rank {}: {:?} pairs with {} steps",
                rank,
                step,
                partners
            );
            sends += usize::from(step.op == Op::Send);
        }
    }
    Ok(sends)
}

/// The step both local-update rounds below apply.
const ALPHA: f64 = 0.37;

/// How [`local_update_rounds`] holds a rank's accumulation buffers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Buffers {
    /// Over the extended tile: every window cell accumulates and the
    /// update sweeps the round's cover.
    WholeTile,
    /// Over each round's own shared cells, in buffers made fresh each
    /// round: only the round's shared cells accumulate and are updated.
    Restricted,
    /// Over each round's own shared cells, laid out afresh per round at the
    /// front of one buffer as long as the longest round's layout, which
    /// every round reuses: only the round's shared cells accumulate and are
    /// updated.
    PerRound,
}

/// Runs every round of `plan` with local updates on every rank of `grid`,
/// from deterministic volumes, and returns each rank's volume and how many
/// `acc` / `own` values were not `+0.0` at the end of a round. Per round a
/// rank adds each of its `windows` (image coordinates, clipped to its
/// extended tile) of a deterministic gradient `g` into its volume as `V +=
/// g·(−α)` and into `acc` and `own`, runs the planned passes on `acc`, then
/// updates `V −= α·(acc − own)` and resets both buffers, over the cells
/// `buffers` says.
fn local_update_rounds(
    grid: &TileGrid,
    plan: &PassPlan,
    windows: &[Vec<Rect>],
    slices: usize,
    buffers: Buffers,
) -> Vec<(CArray3, usize)> {
    let ranks = grid.num_tiles();
    LockstepBackend::new(ClusterTopology::summit())
        .run::<SharedTile, (CArray3, usize), _>(ranks, |ctx| {
            let rank = ctx.rank();
            let extended = grid.tile(rank).extended;
            let tile = extended.to_local(&extended);
            let layouts: Vec<StripLayout> = (0..plan.rounds())
                .map(|round| match buffers {
                    Buffers::WholeTile => StripLayout::new(&[tile], slices),
                    Buffers::Restricted | Buffers::PerRound => {
                        StripLayout::new(&plan.passes(round, rank).shared, slices)
                    }
                })
                .collect();
            let longest = layouts.iter().map(StripLayout::len).max().unwrap_or(0);
            let mut volume = Array3::from_fn(slices, tile.rows(), tile.cols(), |s, r, c| {
                match (r + 2 * c + s) % 7 {
                    0 => Complex64::new(-0.0, 0.0),
                    k => Complex64::new(k as f64 * 0.25 - 1.0, (rank + r) as f64 * 0.125),
                }
            });
            let (mut acc, mut own) = (
                vec![Complex64::ZERO; longest],
                vec![Complex64::ZERO; longest],
            );
            let mut pool = TilePayloadPool::new();
            let mut not_reset = 0;
            for (round, layout) in layouts.iter().enumerate() {
                if buffers != Buffers::PerRound {
                    acc = vec![Complex64::ZERO; layout.len()];
                    own = vec![Complex64::ZERO; layout.len()];
                }
                // Where cell `(r, c)` of slice `s` lies in a buffer of `layout`.
                let at = |s: usize, r: i64, c: i64| {
                    let strip = layout
                        .strips()
                        .iter()
                        .find(|strip| strip.rect.contains(r, c));
                    let strip = strip.expect("a visited cell lies in a strip");
                    let (rect, offset) = (strip.rect, strip.offset);
                    offset
                        + (s * rect.rows() + (r - rect.row0) as usize) * rect.cols()
                        + (c - rect.col0) as usize
                };
                let entry = plan.passes(round, rank);
                let cells = if buffers == Buffers::WholeTile {
                    &entry.cover
                } else {
                    &entry.shared
                };
                let passes = layout.split(&entry.steps, cells);
                for (k, window) in windows[round * ranks + rank].iter().enumerate() {
                    let window = window.intersect(&extended).to_local(&extended);
                    for s in 0..slices {
                        for r in window.row0..window.row1 {
                            for c in window.col0..window.col1 {
                                let g = Complex64::new(
                                    ((r * 31 + c * 7 + (s + k) as i64) as f64 * 0.37).sin(),
                                    (rank + round) as f64 - c as f64 * 0.01,
                                );
                                volume[(s, r as usize, c as usize)] += g * -ALPHA;
                                if buffers == Buffers::WholeTile
                                    || cells.iter().any(|x| x.contains(r, c))
                                {
                                    acc[at(s, r, c)] += g;
                                    own[at(s, r, c)] += g;
                                }
                            }
                        }
                    }
                }
                run_planned_passes(ctx, &passes, &mut acc[..layout.len()], &mut pool)?;
                for rect in cells {
                    for s in 0..slices {
                        for r in rect.row0..rect.row1 {
                            for c in rect.col0..rect.col1 {
                                let (t, o) = (acc[at(s, r, c)], own[at(s, r, c)]);
                                volume[(s, r as usize, c as usize)] -= (t - o).scale(ALPHA);
                                acc[at(s, r, c)] = Complex64::ZERO;
                                own[at(s, r, c)] = Complex64::ZERO;
                            }
                        }
                    }
                }
                let zero = bits_of(&Complex64::ZERO);
                not_reset += acc
                    .iter()
                    .chain(&own)
                    .filter(|v| bits_of(v) != zero)
                    .count();
            }
            Ok((volume, not_reset))
        })
        .expect("no faults injected")
        .into_iter()
        .map(|outcome| outcome.result)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn planned_passes_equal_whole_buffer_passes(
        image in 24usize..72,
        grid_rows in 1usize..5,
        grid_cols in 1usize..5,
        // Up to well past the 4–16 px probe window of `scan_for`, so extended
        // tiles of non-adjacent ranks overlap.
        halo in 0usize..40,
        slices in 1usize..3,
        // Per rank: a seed offset from its extended tile's corner (hanging
        // over the edge, or missing the tile altogether) and a size; the
        // selector empties a quarter of them outright.
        seed_specs in proptest::collection::vec(
            (-8i64..64, -8i64..64, 0i64..40, 0i64..40, 0u8..4), 16),
    ) {
        let scan = scan_for(image, 3);
        let grid = TileGrid::new(image, image, grid_rows, grid_cols, halo, &scan);
        let ranks = grid.num_tiles();
        let extended = |rank: usize| grid.tile(rank).extended;
        let seeds: Vec<Rect> = (0..ranks)
            .map(|rank| match seed_specs[rank] {
                (.., 0) => Rect::empty(),
                (dr, dc, rows, cols, _) => {
                    Rect::new(extended(rank).row0 + dr, extended(rank).col0 + dc, rows, cols)
                }
            })
            .collect();
        // Round 0 is the sparse one; round 1 seeds every tile whole.
        let whole_tiles: Vec<Rect> = (0..ranks).map(extended).collect();
        let plan = PassPlan::new(&grid, &[seeds.clone(), whole_tiles.clone()].concat());
        prop_assert_eq!(plan.rounds(), 2);

        // Buffers that are nonzero on their seed only (and hold no `-0.0`).
        let initial: Vec<CArray3> = (0..ranks)
            .map(|rank| {
                let ext = extended(rank);
                let seed = seeds[rank].to_local(&ext);
                Array3::from_fn(slices, ext.rows(), ext.cols(), |s, r, c| {
                    if seed.contains(r as i64, c as i64) {
                        Complex64::new(
                            (rank * 1000 + s * 100 + r * 10 + c) as f64 * 0.001 + 0.5,
                            -((rank + 1) as f64),
                        )
                    } else {
                        Complex64::ZERO
                    }
                })
            })
            .collect();

        // The planned sweep is the whole-buffer sweep, bit for bit, and
        // leaves nothing outside the cover the tile update trusts.
        let planned = run_passes(&grid, &initial, Some(&plan));
        let whole = run_passes(&grid, &initial, None);
        for rank in 0..ranks {
            prop_assert_eq!(bits(&planned[rank]), bits(&whole[rank]), "rank {}", rank);
            let cover = &plan.passes(0, rank).cover;
            let cols = extended(rank).cols();
            for (i, v) in planned[rank].iter().enumerate() {
                let (r, c) = ((i / cols) % extended(rank).rows(), i % cols);
                prop_assert!(
                    cover.iter().any(|rect| rect.contains(r as i64, c as i64))
                        || bits_of(v) == bits_of(&Complex64::ZERO),
                    "rank {} holds {:?} at ({}, {}) outside {:?}", rank, v, r, c, cover
                );
            }
        }

        // A cover is disjoint rects inside the extended tile, within the
        // bounding box a single-rectangle plan would have tracked.
        // Deadlock freedom: every planned send is exactly one planned receive
        // at its peer — same tag, so the same sweep, and the same cells of
        // the image — and vice versa; a rank's steps run sweep by sweep,
        // each receive before its send.
        for (round, round_seeds) in [&seeds, &whole_tiles].into_iter().enumerate() {
            for (rank, bounding_box) in bounding_boxes(&grid, round_seeds).into_iter().enumerate() {
                let passes = plan.passes(round, rank);
                let cover = &passes.cover;
                let local_tile = extended(rank).to_local(&extended(rank));
                let local_box = bounding_box.to_local(&extended(rank));
                for (i, a) in cover.iter().enumerate() {
                    prop_assert!(!a.is_empty() && local_tile.contains_rect(a), "{:?}", cover);
                    prop_assert!(local_box.contains_rect(a), "{:?} outside {:?}", cover, local_box);
                    prop_assert!(cover[i + 1..].iter().all(|b| !a.intersects(b)), "{:?}", cover);
                }
                // A rank's steps run sweep by sweep, each sweep at most one
                // receive (added in forward, written over backward) and then
                // at most one send.
                let sweep = |tag: u64| tag - tags::VERTICAL_FORWARD;
                for pair in passes.steps.windows(2) {
                    let order = |step: &Step| (sweep(step.tag), step.op == Op::Send);
                    prop_assert!(order(&pair[0]) < order(&pair[1]), "{:?}", passes.steps);
                }
                for step in &passes.steps {
                    prop_assert!(sweep(step.tag) < 4, "{:?}", step);
                    let receive = if sweep(step.tag) % 2 == 0 { Op::Add } else { Op::Replace };
                    prop_assert!(step.op == Op::Send || step.op == receive, "{:?}", step);
                }
                // A rank with an empty cover took no part in the round.
                if passes.cover.is_empty() {
                    prop_assert!(passes.steps.is_empty());
                }
                // Shared cells: disjoint rects inside the rank's strips holding
                // every message region. Receives lie inside the cover; a send
                // is the bounding box of what it carries, so it may span
                // cells between the cover's rects, which hold `+0.0` (the
                // planned sweep above leaves nothing outside the cover).
                let shared = &passes.shared;
                let is_send = |step: &&Step| step.op == Op::Send;
                let sent: Vec<Rect> = passes.steps.iter().filter(is_send).map(|s| s.transfer.region).collect();
                for step in &passes.steps {
                    prop_assert!(inside_union(&step.transfer.region, shared), "{:?}", shared);
                    if step.op != Op::Send {
                        prop_assert!(inside_union(&step.transfer.region, cover), "{:?}", step);
                    }
                }
                for (i, a) in shared.iter().enumerate() {
                    prop_assert!(!a.is_empty(), "{:?}", shared);
                    prop_assert!(shared[i + 1..].iter().all(|b| !a.intersects(b)), "{:?}", shared);
                    prop_assert!(local_tile.contains_rect(a), "{:?}", a);
                    for (r, c) in (a.row0..a.row1).flat_map(|r| (a.col0..a.col1).map(move |c| (r, c))) {
                        prop_assert!(
                            cover.iter().chain(&sent).any(|x| x.contains(r, c)),
                            "{:?} at ({}, {}) outside {:?} and {:?}", a, r, c, cover, sent
                        );
                    }
                }
            }
            let steps: Vec<&[Step]> =
                (0..ranks).map(|rank| plan.passes(round, rank).steps.as_slice()).collect();
            let sends = check_pairing(&steps, extended)?;
            let recvs = steps.iter().flat_map(|list| list.iter()).filter(|s| s.op != Op::Send);
            prop_assert_eq!(sends, recvs.count());
        }

        // Whole-tile seeds plan the whole-buffer entry's round and cover each
        // tile whole (disjoint rects inside it, checked above, of its area);
        // with every seed empty nobody sends anything.
        let dense = PassPlan::new(&grid, &whole_tiles);
        let idle = PassPlan::new(&grid, &vec![Rect::empty(); ranks]);
        for rank in 0..ranks {
            prop_assert_eq!(plan.passes(1, rank), dense.passes(0, rank));
            let covered: usize = dense.passes(0, rank).cover.iter().map(Rect::area).sum();
            prop_assert_eq!(covered, extended(rank).area());
            prop_assert!(idle.passes(0, rank).cover.is_empty());
            prop_assert!(idle.passes(0, rank).steps.is_empty());
        }
    }

    #[test]
    fn paste_plans_pair_up_and_tile_each_halo_with_disjoint_replaces(
        image in 24usize..160,
        grid_rows in 1usize..5,
        grid_cols in 1usize..5,
        // The halo as a share of the smallest core side: every grid drawn
        // is feasible for the baseline.
        halo_percent in 0usize..101,
        positions in 2usize..5,
    ) {
        let scan = scan_for(image, positions);
        let cores = TileGrid::new(image, image, grid_rows, grid_cols, 0, &scan);
        let smallest = cores.tiles().iter().map(|t| t.core.rows().min(t.core.cols())).min();
        let halo = smallest.unwrap_or(0) * halo_percent / 100;
        let grid = TileGrid::new(image, image, grid_rows, grid_cols, halo, &scan);
        prop_assert!(grid.hve_feasible(halo));
        let ranks = grid.num_tiles();
        let plans: Vec<Vec<Step>> = (0..ranks).map(|rank| paste_steps(&grid, rank)).collect();
        let steps: Vec<&[Step]> = plans.iter().map(Vec::as_slice).collect();
        let extended = |rank: usize| grid.tile(rank).extended;
        let sends = check_pairing(&steps, extended)?;
        let mut all = plans.iter().flatten();
        prop_assert_eq!(sends, all.clone().filter(|s| s.op == Op::Replace).count());
        let tag = all.next().map(|s| s.tag);
        prop_assert!(all.all(|s| Some(s.tag) == tag), "one tag for the whole paste");

        for (rank, plan) in plans.iter().enumerate() {
            let tile = grid.tile(rank);
            let local_tile = tile.extended.to_local(&tile.extended);
            let local_core = tile.core.to_local(&tile.extended);
            // Every send comes before every replace; nothing adds.
            let first_replace = plan.iter().position(|s| s.op != Op::Send).unwrap_or(plan.len());
            prop_assert!(plan[first_replace..].iter().all(|s| s.op == Op::Replace), "{:?}", plan);
            for send in &plan[..first_replace] {
                prop_assert!(local_core.contains_rect(&send.transfer.region), "{:?}", send);
            }
            // The replaces are disjoint, inside the extended tile and outside
            // the core, so their order moves no bit; and together they are
            // the whole halo: every halo cell takes one neighbour's core.
            let replaces: Vec<Rect> = plan[first_replace..].iter().map(|s| s.transfer.region).collect();
            for (i, a) in replaces.iter().enumerate() {
                prop_assert!(local_tile.contains_rect(a), "{:?} outside {:?}", a, local_tile);
                prop_assert!(!a.intersects(&local_core), "{:?} inside {:?}", a, local_core);
                prop_assert!(replaces[i + 1..].iter().all(|b| !a.intersects(b)), "{:?}", replaces);
            }
            let replaced: usize = replaces.iter().map(Rect::area).sum();
            prop_assert_eq!(replaced, tile.extended.area() - tile.core.area(), "rank {}", rank);
        }
    }

    #[test]
    fn local_updates_on_frame_buffers_equal_whole_tile_buffers(
        image in 24usize..72,
        grid_rows in 1usize..5,
        grid_cols in 1usize..5,
        halo in 0usize..40,
        slices in 1usize..3,
        // Per round, rank and slot: a window offset from the rank's extended
        // tile's corner and a size; the selector drops a third of them.
        window_specs in proptest::collection::vec(
            (-8i64..64, -8i64..64, 1i64..24, 1i64..24, 0u8..3), 64),
    ) {
        let scan = scan_for(image, 3);
        let grid = TileGrid::new(image, image, grid_rows, grid_cols, halo, &scan);
        let ranks = grid.num_tiles();
        let rounds = 2;
        let windows: Vec<Vec<Rect>> = (0..rounds * ranks)
            .map(|entry| {
                let corner = grid.tile(entry % ranks).extended;
                window_specs[2 * entry..2 * entry + 2]
                    .iter()
                    .filter(|spec| spec.4 != 0)
                    .map(|&(dr, dc, rows, cols, _)| {
                        Rect::new(corner.row0 + dr, corner.col0 + dc, rows, cols)
                    })
                    .collect()
            })
            .collect();
        // Seeds as the solver plans them: each entry's windows' bounding box.
        let seeds: Vec<Rect> = windows
            .iter()
            .map(|ws| ws.iter().fold(Rect::empty(), |seed, w| seed.bounding_union(w)))
            .collect();
        let plan = PassPlan::new(&grid, &seeds);
        let whole = local_update_rounds(&grid, &plan, &windows, slices, Buffers::WholeTile);
        // Restricted buffers hold the round's shared cells only; per-round
        // ones also reuse one buffer across rounds whose layouts differ, and
        // every value they hold is `+0.0` at each round boundary.
        for buffers in [Buffers::Restricted, Buffers::PerRound] {
            let held = local_update_rounds(&grid, &plan, &windows, slices, buffers);
            for rank in 0..ranks {
                prop_assert_eq!(
                    bits(&held[rank].0), bits(&whole[rank].0), "rank {}, {:?}", rank, buffers
                );
                prop_assert_eq!(held[rank].1, 0, "rank {}, {:?}", rank, buffers);
                prop_assert_eq!(whole[rank].1, 0, "rank {}", rank);
            }
        }
        for (round, rank) in (0..rounds).flat_map(|round| (0..ranks).map(move |rank| (round, rank))) {
            let extended = grid.tile(rank).extended;
            let shared = &plan.passes(round, rank).shared;
            for (i, a) in shared.iter().enumerate() {
                prop_assert!(!a.is_empty() && extended.to_local(&extended).contains_rect(a));
                prop_assert!(shared[i + 1..].iter().all(|b| !a.intersects(b)), "{:?}", shared);
            }
            if ranks == 1 {
                prop_assert!(shared.is_empty());
            }
        }
    }

    #[test]
    fn tile_cores_partition_any_image(image in 32usize..160,
                                      grid_rows in 1usize..5,
                                      grid_cols in 1usize..5,
                                      halo in 0usize..12,
                                      positions in 2usize..5) {
        let scan = scan_for(image, positions);
        let grid = TileGrid::new(image, image, grid_rows, grid_cols, halo, &scan);

        // Cores partition the image exactly.
        let area: usize = grid.tiles().iter().map(|t| t.core.area()).sum();
        prop_assert_eq!(area, image * image);
        for (i, a) in grid.tiles().iter().enumerate() {
            prop_assert!(grid.image_bounds().contains_rect(&a.extended));
            prop_assert!(a.extended.contains_rect(&a.core));
            for b in grid.tiles().iter().skip(i + 1) {
                prop_assert!(!a.core.intersects(&b.core));
            }
        }

        // Probe ownership partitions the scan.
        prop_assert!(grid.ownership_partitions_scan(&scan));

        // Overlaps are symmetric.
        for a in 0..grid.num_tiles() {
            for b in 0..grid.num_tiles() {
                prop_assert_eq!(grid.overlap(a, b), grid.overlap(b, a));
            }
        }
    }

    #[test]
    fn grid_dims_factorise_exactly(workers in 1usize..600) {
        let (rows, cols) = TileGrid::grid_dims_for(workers);
        prop_assert_eq!(rows * cols, workers);
        prop_assert!(rows <= cols);
    }

    #[test]
    fn stitching_recovers_any_partition(image in 24usize..96,
                                        grid_rows in 1usize..4,
                                        grid_cols in 1usize..4,
                                        slices in 1usize..3) {
        let scan = scan_for(image, 3);
        let grid = TileGrid::new(image, image, grid_rows, grid_cols, 4, &scan);
        // A global volume whose voxel values encode their coordinates.
        let global = Array3::from_fn(slices, image, image, |s, r, c| {
            Complex64::new((s * image * image + r * image + c) as f64, 1.0)
        });
        let cores: Vec<(Rect, _)> = grid
            .tiles()
            .iter()
            .map(|t| (t.core, global.extract_region(t.core)))
            .collect();
        let stitched = stitch_tiles(&grid, &cores);
        prop_assert_eq!(stitched, global);
    }

    #[test]
    fn border_mask_only_marks_interior_bands(image in 32usize..96,
                                             grid_rows in 1usize..4,
                                             grid_cols in 1usize..4) {
        let scan = scan_for(image, 3);
        let grid = TileGrid::new(image, image, grid_rows, grid_cols, 4, &scan);
        let mask = border_mask(&grid, 1);
        let marked = mask.iter().filter(|&&b| b).count();
        if grid_rows == 1 && grid_cols == 1 {
            prop_assert_eq!(marked, 0);
        } else {
            prop_assert!(marked > 0);
            // The border band is a small fraction of the image.
            prop_assert!(marked < image * image / 2);
        }
    }

    #[test]
    fn memory_model_is_positive_and_decreasing(gpus_exp in 1u32..7) {
        let spec = DatasetSpec::lead_titanate_large();
        let gpus = 6usize * (1 << gpus_exp);
        let smaller = gd_memory_per_gpu(&spec, gpus, 600.0);
        let larger = gd_memory_per_gpu(&spec, gpus / 2, 600.0);
        prop_assert!(smaller.total_bytes() > 0.0);
        prop_assert!(larger.total_bytes() > smaller.total_bytes());
    }

    #[test]
    fn decomposition_geometry_conserves_probes(gpus in 1usize..800) {
        let spec = DatasetSpec::lead_titanate_small();
        let geometry = decomposition_geometry(&spec, gpus, 600.0, 0);
        let total = geometry.avg_owned * gpus as f64;
        prop_assert!((total - spec.probe_locations as f64).abs() < 1e-6);
        prop_assert!(geometry.max_owned + 1e-9 >= geometry.avg_owned);
        prop_assert!(geometry.avg_assigned + 1e-9 >= geometry.avg_owned);
    }
}
