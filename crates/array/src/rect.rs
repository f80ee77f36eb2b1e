//! Half-open axis-aligned rectangles.
//!
//! `Rect` is the geometric vocabulary of the decomposition logic: image tiles,
//! halo-extended tiles, probe-location bounding boxes and the overlap regions in
//! which image gradients are accumulated are all `Rect`s. Coordinates are signed
//! so that halo extensions near the image border can temporarily leave the image
//! before being clamped back onto it.

use std::fmt;

/// A half-open axis-aligned rectangle `[row0, row1) x [col0, col1)` with signed
/// coordinates.
///
/// The rectangle is *empty* when `row1 <= row0` or `col1 <= col0`. Empty
/// rectangles are normal values: intersecting two disjoint tiles produces one,
/// and all queries on them behave sensibly (`area() == 0`, `contains(..) == false`).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rect {
    /// Inclusive first row.
    pub row0: i64,
    /// Exclusive last row.
    pub row1: i64,
    /// Inclusive first column.
    pub col0: i64,
    /// Exclusive last column.
    pub col1: i64,
}

impl fmt::Debug for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Rect[{}..{}, {}..{}]",
            self.row0, self.row1, self.col0, self.col1
        )
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl Rect {
    /// Creates a rectangle from its top-left corner `(row0, col0)` and its size
    /// `(rows, cols)`.
    pub fn new(row0: i64, col0: i64, rows: i64, cols: i64) -> Self {
        Self {
            row0,
            row1: row0 + rows,
            col0,
            col1: col0 + cols,
        }
    }

    /// Creates a rectangle from corner coordinates `[row0, row1) x [col0, col1)`.
    pub fn from_corners(row0: i64, row1: i64, col0: i64, col1: i64) -> Self {
        Self {
            row0,
            row1,
            col0,
            col1,
        }
    }

    /// The empty rectangle at the origin.
    pub fn empty() -> Self {
        Self {
            row0: 0,
            row1: 0,
            col0: 0,
            col1: 0,
        }
    }

    /// Rectangle covering an entire array of shape `(rows, cols)`.
    pub fn of_shape(rows: usize, cols: usize) -> Self {
        Self::new(0, 0, rows as i64, cols as i64)
    }

    /// Number of rows (zero when empty).
    pub fn rows(&self) -> usize {
        (self.row1 - self.row0).max(0) as usize
    }

    /// Number of columns (zero when empty).
    pub fn cols(&self) -> usize {
        (self.col1 - self.col0).max(0) as usize
    }

    /// `(rows, cols)` size of the rectangle.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows(), self.cols())
    }

    /// Number of cells covered by the rectangle.
    pub fn area(&self) -> usize {
        self.rows() * self.cols()
    }

    /// True when the rectangle covers no cells.
    pub fn is_empty(&self) -> bool {
        self.row1 <= self.row0 || self.col1 <= self.col0
    }

    /// True when `(row, col)` lies inside the rectangle.
    pub fn contains(&self, row: i64, col: i64) -> bool {
        row >= self.row0 && row < self.row1 && col >= self.col0 && col < self.col1
    }

    /// True when `other` lies entirely inside `self` (empty rectangles are
    /// contained in everything).
    pub fn contains_rect(&self, other: &Rect) -> bool {
        if other.is_empty() {
            return true;
        }
        other.row0 >= self.row0
            && other.row1 <= self.row1
            && other.col0 >= self.col0
            && other.col1 <= self.col1
    }

    /// Intersection of two rectangles (possibly empty).
    pub fn intersect(&self, other: &Rect) -> Rect {
        let r = Rect {
            row0: self.row0.max(other.row0),
            row1: self.row1.min(other.row1),
            col0: self.col0.max(other.col0),
            col1: self.col1.min(other.col1),
        };
        if r.is_empty() {
            Rect::empty()
        } else {
            r
        }
    }

    /// True when the two rectangles share at least one cell.
    pub fn intersects(&self, other: &Rect) -> bool {
        !self.intersect(other).is_empty()
    }

    /// Smallest rectangle containing both inputs. The union of an empty
    /// rectangle with `r` is `r`.
    pub fn bounding_union(&self, other: &Rect) -> Rect {
        if self.is_empty() {
            return *other;
        }
        if other.is_empty() {
            return *self;
        }
        Rect {
            row0: self.row0.min(other.row0),
            row1: self.row1.max(other.row1),
            col0: self.col0.min(other.col0),
            col1: self.col1.max(other.col1),
        }
    }

    /// Translates the rectangle by `(drow, dcol)`.
    pub fn translate(&self, drow: i64, dcol: i64) -> Rect {
        Rect {
            row0: self.row0 + drow,
            row1: self.row1 + drow,
            col0: self.col0 + dcol,
            col1: self.col1 + dcol,
        }
    }

    /// Grows the rectangle by `margin` cells on every side (a halo extension).
    /// A negative margin shrinks it; over-shrinking yields an empty rectangle.
    pub fn dilate(&self, margin: i64) -> Rect {
        let r = Rect {
            row0: self.row0 - margin,
            row1: self.row1 + margin,
            col0: self.col0 - margin,
            col1: self.col1 + margin,
        };
        if r.is_empty() {
            Rect::empty()
        } else {
            r
        }
    }

    /// Clamps the rectangle to lie inside `bounds` (equivalent to intersecting).
    pub fn clamp_to(&self, bounds: &Rect) -> Rect {
        self.intersect(bounds)
    }

    /// Expresses this rectangle in the local coordinate frame whose origin is the
    /// top-left corner of `frame`.
    ///
    /// Used to convert a global overlap region into indices of a tile-local
    /// buffer: if `frame` is the halo-extended tile and `self` is the global
    /// overlap region, the result indexes directly into the tile's array.
    pub fn to_local(&self, frame: &Rect) -> Rect {
        self.translate(-frame.row0, -frame.col0)
    }

    /// Inverse of [`Rect::to_local`]: expresses a frame-local rectangle in global
    /// coordinates.
    pub fn to_global(&self, frame: &Rect) -> Rect {
        self.translate(frame.row0, frame.col0)
    }

    /// The centre of the rectangle in floating-point coordinates `(row, col)`.
    pub fn center(&self) -> (f64, f64) {
        (
            (self.row0 + self.row1) as f64 / 2.0,
            (self.col0 + self.col1) as f64 / 2.0,
        )
    }

    /// Iterates over all `(row, col)` cells of the rectangle in row-major order.
    pub fn iter_cells(&self) -> impl Iterator<Item = (i64, i64)> + '_ {
        let cols = (self.col0, self.col1);
        (self.row0..self.row1).flat_map(move |r| (cols.0..cols.1).map(move |c| (r, c)))
    }

    /// Splits the range `[0, extent)` into `parts` contiguous chunks whose sizes
    /// differ by at most one, returning `(start, len)` pairs.
    ///
    /// This is the 1D building block of the tile grid: the image rows are split
    /// into `grid_rows` chunks and the columns into `grid_cols` chunks.
    pub fn split_extent(extent: usize, parts: usize) -> Vec<(usize, usize)> {
        assert!(parts > 0, "cannot split an extent into zero parts");
        let base = extent / parts;
        let remainder = extent % parts;
        let mut out = Vec::with_capacity(parts);
        let mut start = 0usize;
        for p in 0..parts {
            let len = base + usize::from(p < remainder);
            out.push((start, len));
            start += len;
        }
        out
    }

    /// Tessellates `bounds` into a `grid_rows x grid_cols` grid of disjoint
    /// tiles (row-major order) that exactly cover it.
    pub fn grid(bounds: &Rect, grid_rows: usize, grid_cols: usize) -> Vec<Rect> {
        let row_chunks = Self::split_extent(bounds.rows(), grid_rows);
        let col_chunks = Self::split_extent(bounds.cols(), grid_cols);
        let mut tiles = Vec::with_capacity(grid_rows * grid_cols);
        for &(r0, rlen) in &row_chunks {
            for &(c0, clen) in &col_chunks {
                tiles.push(Rect::new(
                    bounds.row0 + r0 as i64,
                    bounds.col0 + c0 as i64,
                    rlen as i64,
                    clen as i64,
                ));
            }
        }
        tiles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_and_shape() {
        let r = Rect::new(2, 3, 4, 5);
        assert_eq!(r.rows(), 4);
        assert_eq!(r.cols(), 5);
        assert_eq!(r.shape(), (4, 5));
        assert_eq!(r.area(), 20);
        assert!(!r.is_empty());
    }

    #[test]
    fn empty_rect_behaviour() {
        let e = Rect::empty();
        assert!(e.is_empty());
        assert_eq!(e.area(), 0);
        assert!(!e.contains(0, 0));
        let r = Rect::new(0, 0, 4, 4);
        assert!(r.contains_rect(&e));
        assert_eq!(e.bounding_union(&r), r);
    }

    #[test]
    fn contains_points_half_open() {
        let r = Rect::new(1, 1, 2, 2);
        assert!(r.contains(1, 1));
        assert!(r.contains(2, 2));
        assert!(!r.contains(3, 1));
        assert!(!r.contains(1, 3));
        assert!(!r.contains(0, 1));
    }

    #[test]
    fn intersect_overlapping() {
        let a = Rect::new(0, 0, 4, 4);
        let b = Rect::new(2, 2, 4, 4);
        let i = a.intersect(&b);
        assert_eq!(i, Rect::new(2, 2, 2, 2));
        assert!(a.intersects(&b));
    }

    #[test]
    fn intersect_disjoint_is_empty() {
        let a = Rect::new(0, 0, 2, 2);
        let b = Rect::new(5, 5, 2, 2);
        assert!(a.intersect(&b).is_empty());
        assert!(!a.intersects(&b));
    }

    #[test]
    fn dilate_and_clamp() {
        let tile = Rect::new(0, 0, 4, 4);
        let halo = tile.dilate(2);
        assert_eq!(halo, Rect::from_corners(-2, 6, -2, 6));
        let bounds = Rect::new(0, 0, 8, 8);
        assert_eq!(halo.clamp_to(&bounds), Rect::new(0, 0, 6, 6));
    }

    #[test]
    fn dilate_negative_can_empty() {
        let r = Rect::new(0, 0, 3, 3);
        assert!(r.dilate(-2).is_empty());
    }

    #[test]
    fn local_global_roundtrip() {
        let frame = Rect::new(10, 20, 8, 8);
        let global = Rect::new(12, 24, 2, 3);
        let local = global.to_local(&frame);
        assert_eq!(local, Rect::new(2, 4, 2, 3));
        assert_eq!(local.to_global(&frame), global);
    }

    #[test]
    fn split_extent_balanced() {
        assert_eq!(Rect::split_extent(10, 3), vec![(0, 4), (4, 3), (7, 3)]);
        assert_eq!(Rect::split_extent(9, 3), vec![(0, 3), (3, 3), (6, 3)]);
        assert_eq!(Rect::split_extent(2, 3), vec![(0, 1), (1, 1), (2, 0)]);
    }

    #[test]
    fn grid_covers_bounds_disjointly() {
        let bounds = Rect::new(0, 0, 100, 90);
        let tiles = Rect::grid(&bounds, 3, 4);
        assert_eq!(tiles.len(), 12);
        let total_area: usize = tiles.iter().map(Rect::area).sum();
        assert_eq!(total_area, bounds.area());
        for (i, a) in tiles.iter().enumerate() {
            assert!(bounds.contains_rect(a));
            for b in tiles.iter().skip(i + 1) {
                assert!(!a.intersects(b), "{a:?} intersects {b:?}");
            }
        }
    }

    #[test]
    fn grid_respects_offset_bounds() {
        let bounds = Rect::new(5, 7, 10, 10);
        let tiles = Rect::grid(&bounds, 2, 2);
        assert_eq!(tiles[0], Rect::new(5, 7, 5, 5));
        assert_eq!(tiles[3], Rect::new(10, 12, 5, 5));
    }

    #[test]
    fn iter_cells_row_major() {
        let r = Rect::new(0, 0, 2, 2);
        let cells: Vec<_> = r.iter_cells().collect();
        assert_eq!(cells, vec![(0, 0), (0, 1), (1, 0), (1, 1)]);
    }

    #[test]
    fn center_of_rect() {
        let r = Rect::new(0, 0, 4, 2);
        assert_eq!(r.center(), (2.0, 1.0));
    }
}
