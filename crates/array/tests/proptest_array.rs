//! Property-based tests for the array and rectangle primitives.

use proptest::prelude::*;
use ptycho_array::{Array2, Array3, Rect};

fn rect_strategy() -> impl Strategy<Value = Rect> {
    (-16i64..32, -16i64..32, 0i64..24, 0i64..24).prop_map(|(r0, c0, h, w)| Rect::new(r0, c0, h, w))
}

proptest! {
    #[test]
    fn extract_region_into_writes_every_cell_once(
        depth in 1usize..4,
        rows in 1usize..12,
        cols in 1usize..12,
        region in rect_strategy(),
    ) {
        // Regions inside, partly outside and wholly outside the plane, into
        // a buffer poisoned with a value neither the volume nor the fill
        // holds: every cell must come out as the allocating extract has it.
        let v = Array3::from_fn(depth, rows, cols, |s, r, c| (s * 1000 + r * 31 + c) as f64);
        let fill = -1.0;
        let mut out = Array3::full(depth, region.rows(), region.cols(), f64::NAN);
        v.extract_region_into(region, fill, &mut out);
        let expected = v.extract_region_with_fill(region, fill);
        prop_assert_eq!(&out, &expected);
        for s in 0..depth {
            for r in 0..region.rows() {
                for c in 0..region.cols() {
                    let (gr, gc) = (region.row0 + r as i64, region.col0 + c as i64);
                    let want = if v.plane_bounds().contains(gr, gc) {
                        v[(s, gr as usize, gc as usize)]
                    } else {
                        fill
                    };
                    prop_assert_eq!(out[(s, r, c)], want);
                }
            }
        }
    }

    #[test]
    fn intersection_is_commutative(a in rect_strategy(), b in rect_strategy()) {
        prop_assert_eq!(a.intersect(&b), b.intersect(&a));
    }

    #[test]
    fn intersection_is_contained_in_both(a in rect_strategy(), b in rect_strategy()) {
        let i = a.intersect(&b);
        if !i.is_empty() {
            prop_assert!(a.contains_rect(&i));
            prop_assert!(b.contains_rect(&i));
        }
    }

    #[test]
    fn intersection_area_never_exceeds_either(a in rect_strategy(), b in rect_strategy()) {
        let i = a.intersect(&b);
        prop_assert!(i.area() <= a.area());
        prop_assert!(i.area() <= b.area());
    }

    #[test]
    fn bounding_union_contains_both(a in rect_strategy(), b in rect_strategy()) {
        let u = a.bounding_union(&b);
        prop_assert!(u.contains_rect(&a));
        prop_assert!(u.contains_rect(&b));
    }

    #[test]
    fn translate_preserves_area(a in rect_strategy(), dr in -10i64..10, dc in -10i64..10) {
        prop_assert_eq!(a.translate(dr, dc).area(), a.area());
    }

    #[test]
    fn local_global_roundtrip(a in rect_strategy(), frame in rect_strategy()) {
        prop_assert_eq!(a.to_local(&frame).to_global(&frame), a);
    }

    #[test]
    fn dilate_then_intersect_recovers_rect(a in rect_strategy(), m in 0i64..8) {
        // Dilating and clamping back to the original never loses cells.
        if !a.is_empty() {
            let d = a.dilate(m);
            prop_assert_eq!(d.intersect(&a), a);
        }
    }

    #[test]
    fn split_extent_partitions(extent in 0usize..200, parts in 1usize..16) {
        let chunks = Rect::split_extent(extent, parts);
        prop_assert_eq!(chunks.len(), parts);
        let total: usize = chunks.iter().map(|&(_, len)| len).sum();
        prop_assert_eq!(total, extent);
        // Chunks are contiguous and ordered.
        let mut cursor = 0usize;
        for &(start, len) in &chunks {
            prop_assert_eq!(start, cursor);
            cursor += len;
        }
        // Sizes differ by at most one.
        let max = chunks.iter().map(|&(_, l)| l).max().unwrap();
        let min = chunks.iter().map(|&(_, l)| l).min().unwrap();
        prop_assert!(max - min <= 1);
    }

    #[test]
    fn grid_tiles_partition_bounds(rows in 1usize..64, cols in 1usize..64,
                                   gr in 1usize..5, gc in 1usize..5) {
        let bounds = Rect::of_shape(rows, cols);
        let tiles = Rect::grid(&bounds, gr, gc);
        let area: usize = tiles.iter().map(Rect::area).sum();
        prop_assert_eq!(area, bounds.area());
        for t in &tiles {
            prop_assert!(bounds.contains_rect(t));
        }
    }

    #[test]
    fn extract_paste_roundtrip(rows in 1usize..16, cols in 1usize..16,
                               r0 in 0usize..8, c0 in 0usize..8,
                               h in 1usize..8, w in 1usize..8) {
        let img = Array2::from_fn(rows, cols, |r, c| (r * 31 + c) as f64);
        let region = Rect::new(r0 as i64, c0 as i64, h as i64, w as i64);
        let patch = img.extract(region);
        prop_assert_eq!(patch.shape(), region.shape());

        // Pasting the extracted patch back must leave the image unchanged inside
        // the in-bounds part of the region.
        let mut copy = img.clone();
        copy.paste_region(region, &patch);
        prop_assert_eq!(copy, img);
    }

    #[test]
    fn add_region_adds_exactly_once(rows in 2usize..12, cols in 2usize..12,
                                    h in 1usize..6, w in 1usize..6) {
        let mut img = Array2::<f64>::zeros(rows, cols);
        let region = Rect::new(0, 0, h as i64, w as i64);
        let block = Array2::full(h, w, 1.0);
        img.add_region(region, &block);
        let expected = region.intersect(&img.bounds()).area() as f64;
        prop_assert!((img.sum() - expected).abs() < 1e-9);
    }

    #[test]
    fn transpose_is_involution(rows in 1usize..12, cols in 1usize..12) {
        let img = Array2::from_fn(rows, cols, |r, c| (r * 17 + c * 3) as i64);
        prop_assert_eq!(img.transposed().transposed(), img);
    }
}
