//! Property-based tests for the decomposition geometry, the pass plan,
//! stitching and the analytic memory model.

use proptest::prelude::*;
use ptycho_array::{Array3, Rect};
use ptycho_cluster::{
    ClusterTopology, CommBackend, LockstepBackend, RankComm, SharedTile, TilePayloadPool,
};
use ptycho_core::gradient_decomp::passes::{run_accumulation_passes, run_planned_passes, PassPlan};
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
                    run_planned_passes(ctx, plan.passes(0, ctx.rank()), &mut buffer, &mut pool)?
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
        // Deadlock freedom: every planned send is its peer's planned
        // receive — same sweep, same cells of the image — and vice versa.
        for (round, round_seeds) in [&seeds, &whole_tiles].into_iter().enumerate() {
            let (mut sends, mut recvs) = (0, 0);
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
                for (sweep, step) in passes.sweeps.iter().enumerate() {
                    recvs += usize::from(step.recv.is_some());
                    let Some(send) = step.send else { continue };
                    sends += 1;
                    prop_assert!(!send.region.is_empty());
                    let recv = plan.passes(round, send.peer).sweeps[sweep].recv;
                    prop_assert_eq!(recv.map(|t| t.peer), Some(rank));
                    prop_assert_eq!(
                        recv.map(|t| t.region.to_global(&extended(send.peer))),
                        Some(send.region.to_global(&extended(rank)))
                    );
                }
                // A rank with an empty cover took no part in the round.
                if passes.cover.is_empty() {
                    prop_assert!(passes.sweeps.iter().all(|s| s.recv.is_none() && s.send.is_none()));
                }
            }
            prop_assert_eq!(sends, recvs);
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
            prop_assert!(idle.passes(0, rank).sweeps.iter().all(|s| s.send.is_none()));
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
