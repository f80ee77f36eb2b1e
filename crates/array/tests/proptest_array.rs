//! Property-based tests for the array and rectangle primitives.

use proptest::prelude::*;
use proptest::test_runner::TestCaseResult;
use ptycho_array::{Array2, Array3, Rect};
use std::ops::AddAssign;

fn rect_strategy() -> impl Strategy<Value = Rect> {
    (-16i64..32, -16i64..32, 0i64..24, 0i64..24).prop_map(|(r0, c0, h, w)| Rect::new(r0, c0, h, w))
}

/// A region of a plane at most 9×9: origins on both sides of the plane and
/// sizes from zero past the plane, so regions lie inside, hang off every
/// side, cover it whole, miss it entirely or hold no cell.
fn region_strategy() -> impl Strategy<Value = Rect> {
    (-12i64..14, -12i64..14, 0i64..14, 0i64..14).prop_map(|(r0, c0, h, w)| Rect::new(r0, c0, h, w))
}

/// A complex value as the solvers hold one, compared bit for bit: every
/// region op must copy or add each cell exactly as a per-cell loop does.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct Cplx {
    re: f64,
    im: f64,
}

impl AddAssign for Cplx {
    fn add_assign(&mut self, rhs: Self) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

/// Values where a copy, an add and a skipped cell differ in their bits.
const SPECIALS: [f64; 6] = [0.0, -0.0, f64::NAN, f64::MIN_POSITIVE, -3.0e-310, f64::MAX];

/// The `i`-th value of a buffer seeded with `seed`: every third part a
/// special, the rest distinct ordinary values.
fn value(seed: usize, i: usize) -> Cplx {
    let part = |k: usize| {
        if k.is_multiple_of(3) {
            SPECIALS[(k / 3) % SPECIALS.len()]
        } else {
            (k as f64 * 0.37 - 5.0) * if k.is_multiple_of(2) { 1.0 } else { -1.5 }
        }
    };
    Cplx {
        re: part(seed + 2 * i),
        im: part(seed + 2 * i + 1),
    }
}

fn bits(values: &[Cplx]) -> Vec<(u64, u64)> {
    values
        .iter()
        .map(|v| (v.re.to_bits(), v.im.to_bits()))
        .collect()
}

/// The per-cell reference every region op is checked against: calls
/// `op(volume, block)` for each cell of `region`, slice by slice, with the
/// cell's flat index in a `depth × rows × cols` volume (`None` outside the
/// plane) and in a `region`-shaped block of `depth` sub-planes.
fn each_cell(
    (depth, rows, cols): (usize, usize, usize),
    region: Rect,
    mut op: impl FnMut(Option<usize>, usize),
) {
    let plane = Rect::of_shape(rows, cols);
    let (height, width) = region.shape();
    for s in 0..depth {
        for r in 0..height {
            for c in 0..width {
                let (gr, gc) = (region.row0 + r as i64, region.col0 + c as i64);
                let inside = plane.contains(gr, gc);
                let volume = inside.then(|| (s * rows + gr as usize) * cols + gc as usize);
                op(volume, (s * height + r) * width + c);
            }
        }
    }
}

/// Checks `Array2::{extract, paste_region, add_region, fill_region}` on
/// `region` of a `rows × cols` plane against [`each_cell`].
fn check_region_ops_2d(rows: usize, cols: usize, region: Rect, seed: usize) -> TestCaseResult {
    let shape = (1, rows, cols);
    let img = Array2::from_fn(rows, cols, |r, c| value(seed, r * cols + c));
    let (height, width) = region.shape();
    let block = Array2::from_fn(height, width, |r, c| value(seed + 7, r * width + c));

    let mut want = vec![Cplx::default(); region.area()];
    each_cell(shape, region, |v, b| {
        if let Some(v) = v {
            want[b] = img.as_slice()[v];
        }
    });
    prop_assert_eq!(bits(img.extract(region).as_slice()), bits(&want), "extract");

    let mut pasted = img.clone();
    let mut want = img.as_slice().to_vec();
    each_cell(shape, region, |v, b| {
        if let Some(v) = v {
            want[v] = block.as_slice()[b];
        }
    });
    pasted.paste_region(region, &block);
    prop_assert_eq!(bits(pasted.as_slice()), bits(&want), "paste_region");

    let mut added = img.clone();
    let mut want = img.as_slice().to_vec();
    each_cell(shape, region, |v, b| {
        if let Some(v) = v {
            want[v] += block.as_slice()[b];
        }
    });
    added.add_region(region, &block);
    prop_assert_eq!(bits(added.as_slice()), bits(&want), "add_region");

    let mut filled = img.clone();
    let fill = value(seed + 3, 0);
    let mut want = img.as_slice().to_vec();
    each_cell(shape, region, |v, _| {
        if let Some(v) = v {
            want[v] = fill;
        }
    });
    filled.fill_region(region, fill);
    prop_assert_eq!(bits(filled.as_slice()), bits(&want), "fill_region");
    Ok(())
}

/// Checks `Array3`'s region ops — the three extractions with a fill (the
/// two into buffers poisoned with values neither the volume nor the fill
/// holds), the default-filled extract, paste and add — on `region` of a
/// `depth × rows × cols` volume against [`each_cell`].
fn check_region_ops_3d(
    (depth, rows, cols): (usize, usize, usize),
    region: Rect,
    seed: usize,
) -> TestCaseResult {
    let shape = (depth, rows, cols);
    let vol = Array3::from_fn(depth, rows, cols, |s, r, c| {
        value(seed, (s * rows + r) * cols + c)
    });
    let (height, width) = region.shape();
    let block = Array3::from_fn(depth, height, width, |s, r, c| {
        value(seed + 5, (s * height + r) * width + c)
    });
    let fill = Cplx { re: -0.0, im: 1.0 };
    let poison = Cplx {
        re: 7.0e300,
        im: -7.0e300,
    };

    let mut want = vec![fill; depth * region.area()];
    each_cell(shape, region, |v, b| {
        if let Some(v) = v {
            want[b] = vol.as_slice()[v];
        }
    });
    let with_fill = vol.extract_region_with_fill(region, fill);
    prop_assert_eq!(with_fill.shape(), (depth, height, width));
    prop_assert_eq!(
        bits(with_fill.as_slice()),
        bits(&want),
        "extract_region_with_fill"
    );
    let mut into = Array3::full(depth, height, width, poison);
    vol.extract_region_into(region, fill, &mut into);
    prop_assert_eq!(bits(into.as_slice()), bits(&want), "extract_region_into");
    let mut want_default = vec![Cplx::default(); want.len()];
    each_cell(shape, region, |v, b| {
        if let Some(v) = v {
            want_default[b] = vol.as_slice()[v];
        }
    });
    let default = vol.extract_region(region);
    prop_assert_eq!(
        bits(default.as_slice()),
        bits(&want_default),
        "extract_region"
    );

    let mut pasted = vol.clone();
    let mut want = vol.as_slice().to_vec();
    each_cell(shape, region, |v, b| {
        if let Some(v) = v {
            want[v] = block.as_slice()[b];
        }
    });
    pasted.paste_region(region, &block);
    prop_assert_eq!(bits(pasted.as_slice()), bits(&want), "paste_region");

    let mut added = vol.clone();
    let mut want = vol.as_slice().to_vec();
    each_cell(shape, region, |v, b| {
        if let Some(v) = v {
            want[v] += block.as_slice()[b];
        }
    });
    added.add_region(region, &block);
    prop_assert_eq!(bits(added.as_slice()), bits(&want), "add_region");
    Ok(())
}

/// Regions no random draw is sure to produce on a `rows × cols` plane:
/// wholly outside past each side, empty in each way a `Rect` can be, the
/// whole plane, and wider than it on every side.
fn edge_regions(rows: i64, cols: i64) -> Vec<Rect> {
    vec![
        Rect::new(-3, 0, 3, cols),
        Rect::new(rows, 0, 2, cols),
        Rect::new(0, -4, rows, 4),
        Rect::new(0, cols, rows, 1),
        Rect::new(-5, -5, 2, 2),
        Rect::new(rows + 1, cols + 1, 3, 3),
        Rect::empty(),
        Rect::new(2, 1, 0, 4),
        Rect::new(1, 2, 3, 0),
        Rect::from_corners(4, 2, 0, 9),
        Rect::of_shape(rows as usize, cols as usize),
        Rect::new(-2, -3, rows + 5, cols + 6),
    ]
}

#[test]
fn region_ops_on_edge_regions_match_the_per_cell_reference() {
    for (depth, rows, cols) in [(1, 1, 1), (2, 5, 7), (3, 6, 2)] {
        for (seed, region) in edge_regions(rows as i64, cols as i64)
            .into_iter()
            .enumerate()
        {
            let case = format!("{depth}x{rows}x{cols}, {region:?}");
            check_region_ops_2d(rows, cols, region, seed).expect(&case);
            check_region_ops_3d((depth, rows, cols), region, seed).expect(&case);
        }
    }
}

proptest! {
    #[test]
    fn region_ops_2d_match_the_per_cell_reference(
        rows in 1usize..10,
        cols in 1usize..10,
        region in region_strategy(),
        seed in 0usize..64,
    ) {
        check_region_ops_2d(rows, cols, region, seed)?;
    }

    #[test]
    fn region_ops_3d_match_the_per_cell_reference(
        depth in 1usize..4,
        rows in 1usize..10,
        cols in 1usize..10,
        region in region_strategy(),
        seed in 0usize..64,
    ) {
        check_region_ops_3d((depth, rows, cols), region, seed)?;
    }

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
