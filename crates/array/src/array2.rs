//! Row-major dense 2D arrays.

use crate::rect::clipped_rows;
use crate::{Rect, Shape2};
use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Sub};

/// A dense, row-major 2D array.
///
/// `Array2` is deliberately small: it provides exactly the operations the
/// reconstruction pipeline needs — indexing, elementwise arithmetic, mapping,
/// and *region* operations (extract / paste / add a [`Rect`] sub-block). Region
/// operations silently clip against the array bounds, because halo-extended
/// tiles routinely hang over the edge of the reconstruction volume.
#[derive(Clone, PartialEq)]
pub struct Array2<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: fmt::Debug> fmt::Debug for Array2<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Array2<{}x{}> [", self.rows, self.cols)?;
        let max_rows = 8.min(self.rows);
        for r in 0..max_rows {
            let max_cols = 8.min(self.cols);
            write!(f, "  ")?;
            for c in 0..max_cols {
                write!(f, "{:?} ", self.data[r * self.cols + c])?;
            }
            if self.cols > max_cols {
                write!(f, "...")?;
            }
            writeln!(f)?;
        }
        if self.rows > max_rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

impl<T: Clone + Default> Array2<T> {
    /// Creates an array of the given shape filled with `T::default()`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![T::default(); rows * cols],
        }
    }
}

impl<T: Clone> Array2<T> {
    /// Creates an array of the given shape filled with `value`.
    pub fn full(rows: usize, cols: usize, value: T) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Builds an array from a row-major `Vec`.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Array2::from_vec: data length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Builds an array by evaluating `f(row, col)` at every cell.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Writes `block` into the cells covered by `region` (clipped to the array).
    ///
    /// `block` must have shape `region.shape()`.
    pub fn paste_region(&mut self, region: Rect, block: &Array2<T>) {
        assert_eq!(
            block.shape(),
            region.shape(),
            "paste_region: block shape {:?} does not match region shape {:?}",
            block.shape(),
            region.shape()
        );
        for (dst, src) in clipped_rows(self.bounds(), region, 1) {
            self.data[dst].clone_from_slice(&block.data[src]);
        }
    }

    /// Fills every cell of `region` (clipped to the array) with `value`.
    pub fn fill_region(&mut self, region: Rect, value: T) {
        let bounds = self.bounds();
        for row in bounds.flat_rows(1, 0, region.intersect(&bounds)) {
            self.data[row].fill(value.clone());
        }
    }

    /// Overwrites every element with `value` (an allocation-free reset; the
    /// accumulation buffers of Algorithm 1 are cleared this way every round).
    pub fn fill(&mut self, value: T) {
        self.data.fill(value);
    }

    /// Returns a transposed copy of the array.
    pub fn transposed(&self) -> Array2<T> {
        let mut data = Vec::with_capacity(self.data.len());
        for c in 0..self.cols {
            for r in 0..self.rows {
                data.push(self.data[r * self.cols + c].clone());
            }
        }
        Array2 {
            rows: self.cols,
            cols: self.rows,
            data,
        }
    }
}

impl<T> Array2<T> {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` shape.
    pub fn shape(&self) -> Shape2 {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the array holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The rectangle `[0, rows) x [0, cols)` covering the whole array.
    pub fn bounds(&self) -> Rect {
        Rect::of_shape(self.rows, self.cols)
    }

    /// Flat row-major view of the data.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable flat row-major view of the data.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consumes the array and returns its row-major data.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// A single row as a slice.
    pub fn row(&self, r: usize) -> &[T] {
        assert!(
            r < self.rows,
            "row {} out of bounds ({} rows)",
            r,
            self.rows
        );
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Iterates over `(row, col, &value)` in row-major order.
    pub fn indexed_iter(&self) -> impl Iterator<Item = (usize, usize, &T)> + '_ {
        let cols = self.cols;
        self.data
            .iter()
            .enumerate()
            .map(move |(i, v)| (i / cols, i % cols, v))
    }

    /// Iterates over references to the elements in row-major order.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.data.iter()
    }

    /// Iterates over mutable references to the elements in row-major order.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, T> {
        self.data.iter_mut()
    }

    /// Applies `f` to every element, producing a new array.
    pub fn map<U>(&self, f: impl FnMut(&T) -> U) -> Array2<U> {
        Array2 {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(f).collect(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, mut f: impl FnMut(&mut T)) {
        for v in &mut self.data {
            f(v);
        }
    }

    /// Combines `other` into `self` elementwise, in place (the allocation-free
    /// sibling of [`Self::zip_map`]).
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn zip_apply<U>(&mut self, other: &Array2<U>, mut f: impl FnMut(&mut T, &U)) {
        assert_eq!(
            self.shape(),
            other.shape(),
            "zip_apply: shape mismatch {:?} vs {:?}",
            self.shape(),
            other.shape()
        );
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            f(a, b);
        }
    }

    /// Combines two equally-shaped arrays elementwise.
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn zip_map<U, V>(&self, other: &Array2<U>, mut f: impl FnMut(&T, &U) -> V) -> Array2<V> {
        assert_eq!(
            self.shape(),
            other.shape(),
            "zip_map: shape mismatch {:?} vs {:?}",
            self.shape(),
            other.shape()
        );
        Array2 {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(a, b)| f(a, b))
                .collect(),
        }
    }
}

impl<T: Clone + Default> Array2<T> {
    /// Extracts the sub-block covered by `region`; out-of-bounds cells are
    /// `T::default()`.
    pub fn extract(&self, region: Rect) -> Array2<T> {
        let mut out = Array2::zeros(region.rows(), region.cols());
        for (src, dst) in clipped_rows(self.bounds(), region, 1) {
            out.data[dst].clone_from_slice(&self.data[src]);
        }
        out
    }
}

impl<T> Index<(usize, usize)> for Array2<T> {
    type Output = T;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &T {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl<T> IndexMut<(usize, usize)> for Array2<T> {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut T {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

// --- numeric operations -----------------------------------------------------

impl<T> Array2<T>
where
    T: Copy + AddAssign,
{
    /// Adds `block` into the cells covered by `region` (clipped to the array).
    /// `block` must have shape `region.shape()`.
    pub fn add_region(&mut self, region: Rect, block: &Array2<T>) {
        assert_eq!(
            block.shape(),
            region.shape(),
            "add_region: block shape {:?} does not match region shape {:?}",
            block.shape(),
            region.shape()
        );
        for (dst, src) in clipped_rows(self.bounds(), region, 1) {
            for (a, b) in self.data[dst].iter_mut().zip(&block.data[src]) {
                *a += *b;
            }
        }
    }
}

impl<T> Array2<T>
where
    T: Copy + std::iter::Sum<T>,
{
    /// Sum of all elements.
    pub fn sum(&self) -> T {
        self.data.iter().copied().sum()
    }
}

impl<T> Array2<T>
where
    T: Copy + Mul<Output = T>,
{
    /// Multiplies every element by `factor` in place.
    pub fn scale(&mut self, factor: T) {
        for v in &mut self.data {
            *v = *v * factor;
        }
    }
}

impl<'a, T> Add<&'a Array2<T>> for &'a Array2<T>
where
    T: Copy + Add<Output = T>,
{
    type Output = Array2<T>;

    fn add(self, rhs: &'a Array2<T>) -> Array2<T> {
        self.zip_map(rhs, |a, b| *a + *b)
    }
}

impl<'a, T> Sub<&'a Array2<T>> for &'a Array2<T>
where
    T: Copy + Sub<Output = T>,
{
    type Output = Array2<T>;

    fn sub(self, rhs: &'a Array2<T>) -> Array2<T> {
        self.zip_map(rhs, |a, b| *a - *b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_indexing() {
        let mut a = Array2::<f64>::zeros(3, 4);
        assert_eq!(a.shape(), (3, 4));
        assert_eq!(a.len(), 12);
        a[(2, 3)] = 7.0;
        assert_eq!(a[(2, 3)], 7.0);
        assert_eq!(a[(0, 0)], 0.0);
    }

    #[test]
    fn from_fn_row_major() {
        let a = Array2::from_fn(2, 3, |r, c| (r * 10 + c) as i32);
        assert_eq!(a.as_slice(), &[0, 1, 2, 10, 11, 12]);
        assert_eq!(a[(1, 2)], 12);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_shape_mismatch_panics() {
        let _ = Array2::from_vec(2, 2, vec![1, 2, 3]);
    }

    #[test]
    fn extract_inside() {
        let a = Array2::from_fn(4, 4, |r, c| (r * 4 + c) as f64);
        let b = a.extract(Rect::new(1, 1, 2, 2));
        assert_eq!(b.as_slice(), &[5.0, 6.0, 9.0, 10.0]);
    }

    #[test]
    fn extract_clips_and_fills() {
        let a = Array2::from_fn(2, 2, |r, c| (r * 2 + c + 1) as f64);
        // Region hangs over the top-left corner.
        let b = a.extract(Rect::new(-1, -1, 2, 2));
        assert_eq!(b.as_slice(), &[0.0, 0.0, 0.0, 1.0]);
        // Fully outside.
        let c = a.extract(Rect::new(10, 10, 2, 2));
        assert!(c.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn paste_and_add_region_clip() {
        let mut a = Array2::<f64>::zeros(3, 3);
        let block = Array2::full(2, 2, 1.0);
        a.paste_region(Rect::new(2, 2, 2, 2), &block); // only (2,2) in bounds
        assert_eq!(a[(2, 2)], 1.0);
        assert_eq!(a.sum(), 1.0);

        a.add_region(Rect::new(2, 2, 2, 2), &block);
        assert_eq!(a[(2, 2)], 2.0);
    }

    #[test]
    fn add_region_negative_offset() {
        let mut a = Array2::<f64>::zeros(3, 3);
        let block = Array2::full(2, 2, 1.0);
        a.add_region(Rect::new(-1, -1, 2, 2), &block);
        assert_eq!(a[(0, 0)], 1.0);
        assert_eq!(a.sum(), 1.0);
    }

    #[test]
    fn fill_and_region_sum() {
        let mut a = Array2::<f64>::zeros(8, 8);
        a.fill_region(Rect::new(2, 2, 3, 3), 2.0);
        assert_eq!(a.extract(Rect::new(0, 0, 8, 8)).sum(), 18.0);
        assert_eq!(a.extract(Rect::new(2, 2, 1, 1)).sum(), 2.0);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Array2::from_fn(3, 5, |r, c| (r * 5 + c) as i64);
        let t = a.transposed();
        assert_eq!(t.shape(), (5, 3));
        assert_eq!(t[(4, 2)], a[(2, 4)]);
        assert_eq!(t.transposed(), a);
    }

    #[test]
    fn zip_map_and_arithmetic() {
        let a = Array2::from_fn(2, 2, |r, c| (r + c) as f64);
        let b = Array2::full(2, 2, 2.0);
        let sum = &a + &b;
        let diff = &sum - &b;
        assert_eq!(diff, a);
    }

    #[test]
    fn scale_and_negate() {
        let mut a = Array2::full(2, 2, 3.0);
        a.scale(2.0);
        assert_eq!(a.sum(), 24.0);
    }

    #[test]
    fn rows_and_iterators() {
        let a = Array2::from_fn(3, 3, |r, c| r * 3 + c);
        assert_eq!(a.row(1), &[3, 4, 5]);
        let total: usize = a.iter().sum();
        assert_eq!(total, 36);
        let indexed: Vec<_> = a.indexed_iter().filter(|&(r, c, _)| r == c).collect();
        assert_eq!(indexed.len(), 3);
    }

    #[test]
    fn fill_reuses_storage() {
        let mut a = Array2::full(2, 3, 1.0f64);
        a.fill(4.0);
        assert!(a.iter().all(|&v| v == 4.0));
    }

    #[test]
    fn zip_apply_matches_zip_map() {
        let mut a = Array2::from_fn(3, 3, |r, c| (r + c) as f64);
        let b = Array2::full(3, 3, 2.0);
        let expected = a.zip_map(&b, |x, y| *x * *y);
        a.zip_apply(&b, |x, y| *x *= *y);
        assert_eq!(a, expected);
    }
}
