//! Dense stacks of 2D slices.

use crate::rect::clipped_rows;
use crate::{Array2, Rect, Shape3};
use std::ops::{AddAssign, Index, IndexMut};

/// A dense 3D array stored as `depth` contiguous row-major 2D slices.
///
/// The reconstruction volume `V` of the multi-slice model is an `Array3`:
/// `depth` is the number of object slices along the beam direction `z`, and each
/// slice is a `rows x cols` image in the `x-y` plane (Fig. 1(c) of the paper).
#[derive(Clone, Debug, PartialEq)]
pub struct Array3<T> {
    depth: usize,
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Clone + Default> Array3<T> {
    /// Creates a volume of the given shape filled with `T::default()`.
    pub fn zeros(depth: usize, rows: usize, cols: usize) -> Self {
        Self {
            depth,
            rows,
            cols,
            data: vec![T::default(); depth * rows * cols],
        }
    }
}

impl<T: Clone> Array3<T> {
    /// Creates a volume of the given shape filled with `value`.
    pub fn full(depth: usize, rows: usize, cols: usize, value: T) -> Self {
        Self {
            depth,
            rows,
            cols,
            data: vec![value; depth * rows * cols],
        }
    }

    /// Builds a volume by evaluating `f(slice, row, col)` at every voxel.
    pub fn from_fn(
        depth: usize,
        rows: usize,
        cols: usize,
        mut f: impl FnMut(usize, usize, usize) -> T,
    ) -> Self {
        let mut data = Vec::with_capacity(depth * rows * cols);
        for s in 0..depth {
            for r in 0..rows {
                for c in 0..cols {
                    data.push(f(s, r, c));
                }
            }
        }
        Self {
            depth,
            rows,
            cols,
            data,
        }
    }

    /// Builds a volume from a vector of equally-shaped slices.
    ///
    /// # Panics
    /// Panics if the slices have differing shapes or the vector is empty.
    pub fn from_slices(slices: Vec<Array2<T>>) -> Self {
        assert!(!slices.is_empty(), "Array3::from_slices: no slices given");
        let (rows, cols) = slices[0].shape();
        for s in &slices {
            assert_eq!(s.shape(), (rows, cols), "from_slices: inconsistent shapes");
        }
        let depth = slices.len();
        let mut data = Vec::with_capacity(depth * rows * cols);
        for s in slices {
            data.extend(s.into_vec());
        }
        Self {
            depth,
            rows,
            cols,
            data,
        }
    }

    /// Copies slice `s` out as an [`Array2`].
    pub fn slice(&self, s: usize) -> Array2<T> {
        assert!(s < self.depth, "slice {} out of bounds ({})", s, self.depth);
        let n = self.rows * self.cols;
        Array2::from_vec(self.rows, self.cols, self.data[s * n..(s + 1) * n].to_vec())
    }

    /// Extracts the same rectangular `region` from every slice, producing a
    /// smaller volume of shape `(depth, region.rows(), region.cols())`.
    /// Out-of-bounds cells are filled with `fill`.
    pub fn extract_region_with_fill(&self, region: Rect, fill: T) -> Array3<T> {
        let mut out = Array3::full(self.depth, region.rows(), region.cols(), fill);
        for (src, dst) in clipped_rows(self.plane_bounds(), region, self.depth) {
            out.data[dst].clone_from_slice(&self.data[src]);
        }
        out
    }

    /// Writes `block` (one sub-plane per slice) into `region` of every slice,
    /// clipping against the volume bounds.
    pub fn paste_region(&mut self, region: Rect, block: &Array3<T>) {
        self.check_block("paste_region", region, block);
        for (dst, src) in clipped_rows(self.plane_bounds(), region, self.depth) {
            self.data[dst].clone_from_slice(&block.data[src]);
        }
    }
}

impl<T: Clone + Default> Array3<T> {
    /// Extracts `region` from every slice, filling out-of-bounds cells with
    /// `T::default()`.
    pub fn extract_region(&self, region: Rect) -> Array3<T> {
        self.extract_region_with_fill(region, T::default())
    }
}

impl<T> Array3<T> {
    /// Number of slices along the beam direction.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Rows of each slice.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns of each slice.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(depth, rows, cols)` shape.
    pub fn shape(&self) -> Shape3 {
        (self.depth, self.rows, self.cols)
    }

    /// Total number of voxels.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the volume holds no voxels.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The in-plane bounds rectangle `[0, rows) x [0, cols)`.
    pub fn plane_bounds(&self) -> Rect {
        Rect::of_shape(self.rows, self.cols)
    }

    /// Panics unless `block` holds one `region`-shaped sub-plane per slice.
    fn check_block<U>(&self, op: &str, region: Rect, block: &Array3<U>) {
        assert_eq!(
            block.shape(),
            (self.depth, region.rows(), region.cols()),
            "{op}: block shape {:?} does not match (depth, region) {:?}",
            block.shape(),
            (self.depth, region.rows(), region.cols())
        );
    }

    /// Flat view of the data (slice-major, then row-major).
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable flat view of the data.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Borrow slice `s` as a flat row-major sub-slice without copying.
    pub fn slice_data(&self, s: usize) -> &[T] {
        let n = self.rows * self.cols;
        &self.data[s * n..(s + 1) * n]
    }

    /// Mutably borrow slice `s` as a flat row-major sub-slice without copying.
    pub fn slice_data_mut(&mut self, s: usize) -> &mut [T] {
        let n = self.rows * self.cols;
        &mut self.data[s * n..(s + 1) * n]
    }

    /// Iterates over references to all voxels.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.data.iter()
    }

    /// Iterates over mutable references to all voxels.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, T> {
        self.data.iter_mut()
    }

    /// Applies `f` to every voxel, producing a new volume.
    pub fn map<U>(&self, f: impl FnMut(&T) -> U) -> Array3<U> {
        Array3 {
            depth: self.depth,
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(f).collect(),
        }
    }

    /// Applies `f` to every voxel in place.
    pub fn map_inplace(&mut self, mut f: impl FnMut(&mut T)) {
        for v in &mut self.data {
            f(v);
        }
    }

    /// Combines two equally-shaped volumes elementwise.
    pub fn zip_map<U, V>(&self, other: &Array3<U>, mut f: impl FnMut(&T, &U) -> V) -> Array3<V> {
        assert_eq!(
            self.shape(),
            other.shape(),
            "zip_map: shape mismatch {:?} vs {:?}",
            self.shape(),
            other.shape()
        );
        Array3 {
            depth: self.depth,
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

impl<T> Array3<T>
where
    T: Copy + AddAssign,
{
    /// Adds `block` (one sub-plane per slice) into `region` of every slice,
    /// clipping against the volume bounds.
    pub fn add_region(&mut self, region: Rect, block: &Array3<T>) {
        self.check_block("add_region", region, block);
        for (dst, src) in clipped_rows(self.plane_bounds(), region, self.depth) {
            for (a, b) in self.data[dst].iter_mut().zip(&block.data[src]) {
                *a += *b;
            }
        }
    }
}

impl<T> Index<(usize, usize, usize)> for Array3<T> {
    type Output = T;

    #[inline]
    fn index(&self, (s, r, c): (usize, usize, usize)) -> &T {
        debug_assert!(s < self.depth && r < self.rows && c < self.cols);
        &self.data[(s * self.rows + r) * self.cols + c]
    }
}

impl<T> IndexMut<(usize, usize, usize)> for Array3<T> {
    #[inline]
    fn index_mut(&mut self, (s, r, c): (usize, usize, usize)) -> &mut T {
        debug_assert!(s < self.depth && r < self.rows && c < self.cols);
        &mut self.data[(s * self.rows + r) * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape_and_indexing() {
        let mut v = Array3::<f64>::zeros(3, 4, 5);
        assert_eq!(v.shape(), (3, 4, 5));
        assert_eq!(v.len(), 60);
        v[(2, 3, 4)] = 1.5;
        assert_eq!(v[(2, 3, 4)], 1.5);
        assert_eq!(v[(0, 0, 0)], 0.0);
    }

    #[test]
    fn slice_roundtrip() {
        let v = Array3::from_fn(2, 3, 3, |s, r, c| (s * 100 + r * 10 + c) as i32);
        let s1 = v.slice(1);
        assert_eq!(s1[(2, 2)], 122);
        let mut v2 = v.clone();
        v2.slice_data_mut(0).fill(-1);
        assert_eq!(v2[(0, 1, 1)], -1);
        assert_eq!(v2[(1, 1, 1)], 111);
    }

    #[test]
    fn from_slices_matches_from_fn() {
        let slices = vec![
            Array2::from_fn(2, 2, |r, c| (r * 2 + c) as f64),
            Array2::from_fn(2, 2, |r, c| (10 + r * 2 + c) as f64),
        ];
        let v = Array3::from_slices(slices);
        let w = Array3::from_fn(2, 2, 2, |s, r, c| (s * 10 + r * 2 + c) as f64);
        assert_eq!(v, w);
    }

    #[test]
    #[should_panic(expected = "inconsistent shapes")]
    fn from_slices_shape_mismatch_panics() {
        let _ = Array3::from_slices(vec![Array2::<f64>::zeros(2, 2), Array2::zeros(3, 3)]);
    }

    #[test]
    fn extract_and_paste_region() {
        let v = Array3::from_fn(2, 4, 4, |s, r, c| (s * 16 + r * 4 + c) as f64);
        let region = Rect::new(1, 1, 2, 2);
        let sub = v.extract_region(region);
        assert_eq!(sub.shape(), (2, 2, 2));
        assert_eq!(sub[(0, 0, 0)], 5.0);
        assert_eq!(sub[(1, 1, 1)], 26.0);

        let mut w = Array3::<f64>::zeros(2, 4, 4);
        w.paste_region(region, &sub);
        assert_eq!(w[(1, 2, 2)], 26.0);
        assert_eq!(w[(1, 0, 0)], 0.0);
    }

    #[test]
    fn extract_region_clips_outside() {
        let v = Array3::full(1, 2, 2, 3.0f64);
        let sub = v.extract_region(Rect::new(-1, -1, 3, 3));
        assert_eq!(sub.shape(), (1, 3, 3));
        assert_eq!(sub[(0, 0, 0)], 0.0);
        assert_eq!(sub[(0, 1, 1)], 3.0);
    }

    #[test]
    fn add_region_accumulates_and_clips() {
        let mut v = Array3::<f64>::zeros(2, 3, 3);
        let block = Array3::full(2, 2, 2, 1.0);
        v.add_region(Rect::new(2, 2, 2, 2), &block);
        assert_eq!(v[(0, 2, 2)], 1.0);
        assert_eq!(v[(1, 2, 2)], 1.0);
        let total: f64 = v.iter().sum();
        assert_eq!(total, 2.0);
    }

    #[test]
    fn map_and_zip_map() {
        let v = Array3::full(2, 2, 2, 2.0f64);
        let sq = v.map(|x| x * x);
        assert!(sq.iter().all(|&x| x == 4.0));
        let sum = v.zip_map(&sq, |a, b| a + b);
        assert!(sum.iter().all(|&x| x == 6.0));
    }

    #[test]
    fn slice_data_views() {
        let mut v = Array3::from_fn(2, 2, 2, |s, r, c| (s * 4 + r * 2 + c) as u32);
        assert_eq!(v.slice_data(1), &[4, 5, 6, 7]);
        v.slice_data_mut(0)[0] = 99;
        assert_eq!(v[(0, 0, 0)], 99);
    }
}
