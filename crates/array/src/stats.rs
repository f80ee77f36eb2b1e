//! Reductions and image-comparison metrics.
//!
//! These are used throughout the workspace: the solvers report the
//! reconstruction cost, the integration tests compare stitched reconstructions
//! against serial references, and the Fig. 8 harness quantifies seam artifacts
//! with the border-energy metric built on these primitives.

use crate::Array2;

/// Sum of all elements.
pub fn sum(values: &[f64]) -> f64 {
    values.iter().sum()
}

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        sum(values) / values.len() as f64
    }
}

/// Population variance; `0.0` for an empty slice.
pub fn variance(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let m = mean(values);
    values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / values.len() as f64
}

/// Maximum value; `f64::NEG_INFINITY` for an empty slice.
pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Minimum value; `f64::INFINITY` for an empty slice.
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Root-mean-square error between two equally-shaped images.
///
/// # Panics
/// Panics if the shapes differ.
pub fn rmse(a: &Array2<f64>, b: &Array2<f64>) -> f64 {
    assert_eq!(a.shape(), b.shape(), "rmse: shape mismatch");
    if a.is_empty() {
        return 0.0;
    }
    let se: f64 = a
        .as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(x, y)| (x - y) * (x - y))
        .sum();
    (se / a.len() as f64).sqrt()
}

/// Normalised cross-correlation between two equally-shaped images, in `[-1, 1]`.
///
/// Returns `0.0` when either image has zero variance.
pub fn normalized_cross_correlation(a: &Array2<f64>, b: &Array2<f64>) -> f64 {
    assert_eq!(a.shape(), b.shape(), "ncc: shape mismatch");
    let ma = mean(a.as_slice());
    let mb = mean(b.as_slice());
    let mut num = 0.0;
    let mut da = 0.0;
    let mut db = 0.0;
    for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
        let xa = x - ma;
        let yb = y - mb;
        num += xa * yb;
        da += xa * xa;
        db += yb * yb;
    }
    if da == 0.0 || db == 0.0 {
        0.0
    } else {
        num / (da.sqrt() * db.sqrt())
    }
}

/// Discrete gradient-magnitude image (forward differences, clamped at the border).
///
/// Used by the seam-artifact metric: copy-paste seams show up as rows/columns of
/// anomalously high gradient magnitude.
pub fn gradient_magnitude(img: &Array2<f64>) -> Array2<f64> {
    let (rows, cols) = img.shape();
    Array2::from_fn(rows, cols, |r, c| {
        let here = img[(r, c)];
        let down = if r + 1 < rows { img[(r + 1, c)] } else { here };
        let right = if c + 1 < cols { img[(r, c + 1)] } else { here };
        let dr = down - here;
        let dc = right - here;
        (dr * dr + dc * dc).sqrt()
    })
}

/// Relative L2 error `||a - b|| / ||b||`; returns the absolute L2 norm of `a`
/// when `b` is all zeros.
pub fn relative_l2_error(a: &Array2<f64>, b: &Array2<f64>) -> f64 {
    assert_eq!(a.shape(), b.shape(), "relative_l2_error: shape mismatch");
    let mut num = 0.0;
    let mut den = 0.0;
    for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
        num += (x - y) * (x - y);
        den += y * y;
    }
    if den == 0.0 {
        num.sqrt()
    } else {
        (num / den).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_reductions() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(sum(&v), 10.0);
        assert_eq!(mean(&v), 2.5);
        assert!((variance(&v) - 1.25).abs() < 1e-12);
        assert_eq!(max(&v), 4.0);
        assert_eq!(min(&v), 1.0);
    }

    #[test]
    fn empty_slices_are_safe() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[]), 0.0);
        assert_eq!(max(&[]), f64::NEG_INFINITY);
        assert_eq!(min(&[]), f64::INFINITY);
    }

    #[test]
    fn rmse_identical_is_zero() {
        let a = Array2::from_fn(4, 4, |r, c| (r + c) as f64);
        assert_eq!(rmse(&a, &a), 0.0);
    }

    #[test]
    fn rmse_known_value() {
        let a = Array2::full(2, 2, 1.0);
        let b = Array2::full(2, 2, 3.0);
        assert!((rmse(&a, &b) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn ncc_perfect_and_anticorrelated() {
        let a = Array2::from_fn(4, 4, |r, c| (r * 4 + c) as f64);
        let b = a.map(|v| 3.0 * v + 7.0);
        assert!((normalized_cross_correlation(&a, &b) - 1.0).abs() < 1e-12);
        let neg = a.map(|v| -v);
        assert!((normalized_cross_correlation(&a, &neg) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn ncc_zero_variance_is_zero() {
        let a = Array2::full(3, 3, 2.0);
        let b = Array2::from_fn(3, 3, |r, c| (r + c) as f64);
        assert_eq!(normalized_cross_correlation(&a, &b), 0.0);
    }

    #[test]
    fn gradient_magnitude_flat_is_zero() {
        let flat = Array2::full(5, 5, 3.0);
        let g = gradient_magnitude(&flat);
        assert!(g.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn gradient_magnitude_detects_step() {
        // A vertical step edge at column 2.
        let img = Array2::from_fn(4, 4, |_, c| if c < 2 { 0.0 } else { 1.0 });
        let g = gradient_magnitude(&img);
        assert!(g[(1, 1)] > 0.9);
        assert_eq!(g[(1, 0)], 0.0);
        assert_eq!(g[(1, 3)], 0.0);
    }

    #[test]
    fn relative_l2_error_scales() {
        let a = Array2::full(2, 2, 1.1);
        let b = Array2::full(2, 2, 1.0);
        assert!((relative_l2_error(&a, &b) - 0.1).abs() < 1e-9);
        let zeros = Array2::full(2, 2, 0.0);
        assert!((relative_l2_error(&a, &zeros) - 2.2).abs() < 1e-9);
    }
}
