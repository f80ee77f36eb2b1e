//! A minimal double-precision complex number.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A double-precision complex number `re + i·im`.
///
/// This type exists so that the workspace has no external numeric dependencies;
/// it implements exactly the operations the FFT kernels, the multi-slice
/// propagation model and the gradient computations require.
// `repr(C)` guarantees the `re, im` field order in memory, so a
// `&[Complex64]` is exactly a dense `re, im, re, im, …` f64 sequence — the
// layout the SIMD butterfly kernels load two lanes at a time.
#[repr(C)]
#[derive(Clone, Copy, PartialEq, Default)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl fmt::Debug for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

impl fmt::Display for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl Complex64 {
    /// The additive identity `0 + 0i`.
    pub const ZERO: Complex64 = Complex64 { re: 0.0, im: 0.0 };
    /// The multiplicative identity `1 + 0i`.
    pub const ONE: Complex64 = Complex64 { re: 1.0, im: 0.0 };
    /// The imaginary unit `0 + 1i`.
    pub const I: Complex64 = Complex64 { re: 0.0, im: 1.0 };

    /// Creates a complex number from its real and imaginary parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn from_real(re: f64) -> Self {
        Self { re, im: 0.0 }
    }

    /// Creates a complex number from polar coordinates `r·e^{iθ}`.
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Self {
            re: r * theta.cos(),
            im: r * theta.sin(),
        }
    }

    /// `e^{iθ}`: the unit-magnitude phase factor used for propagators and
    /// twiddle factors.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        Self::from_polar(1.0, theta)
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Self {
            re: self.re,
            im: -self.im,
        }
    }

    /// Magnitude (absolute value).
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude `re² + im²` (the measured diffraction intensity).
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Argument (phase angle) in radians.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Complex exponential `e^{z}`.
    #[inline]
    pub fn exp(self) -> Self {
        Self::from_polar(self.re.exp(), self.im)
    }

    /// Reciprocal `1/z`. Returns a non-finite value when `z` is zero, like
    /// scalar division.
    #[inline]
    pub fn recip(self) -> Self {
        let d = self.norm_sqr();
        Self {
            re: self.re / d,
            im: -self.im / d,
        }
    }

    /// Multiplication by a real scalar.
    #[inline]
    pub fn scale(self, s: f64) -> Self {
        Self {
            re: self.re * s,
            im: self.im * s,
        }
    }

    /// True when both parts are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl From<f64> for Complex64 {
    fn from(re: f64) -> Self {
        Self::from_real(re)
    }
}

impl Add for Complex64 {
    type Output = Complex64;
    #[inline]
    fn add(self, rhs: Complex64) -> Complex64 {
        Complex64::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex64 {
    type Output = Complex64;
    #[inline]
    fn sub(self, rhs: Complex64) -> Complex64 {
        Complex64::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: Complex64) -> Complex64 {
        Complex64::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Div for Complex64 {
    type Output = Complex64;
    #[inline]
    // Complex division is multiplication by the reciprocal; not a typo.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, rhs: Complex64) -> Complex64 {
        self * rhs.recip()
    }
}

impl Mul<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: f64) -> Complex64 {
        self.scale(rhs)
    }
}

impl Div<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn div(self, rhs: f64) -> Complex64 {
        self.scale(1.0 / rhs)
    }
}

impl Neg for Complex64 {
    type Output = Complex64;
    #[inline]
    fn neg(self) -> Complex64 {
        Complex64::new(-self.re, -self.im)
    }
}

impl AddAssign for Complex64 {
    #[inline]
    fn add_assign(&mut self, rhs: Complex64) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl SubAssign for Complex64 {
    #[inline]
    fn sub_assign(&mut self, rhs: Complex64) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl MulAssign for Complex64 {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex64) {
        *self = *self * rhs;
    }
}

impl DivAssign for Complex64 {
    #[inline]
    fn div_assign(&mut self, rhs: Complex64) {
        *self = *self / rhs;
    }
}

impl Sum for Complex64 {
    fn sum<I: Iterator<Item = Complex64>>(iter: I) -> Complex64 {
        iter.fold(Complex64::ZERO, |a, b| a + b)
    }
}

impl<'a> Sum<&'a Complex64> for Complex64 {
    fn sum<I: Iterator<Item = &'a Complex64>>(iter: I) -> Complex64 {
        iter.fold(Complex64::ZERO, |a, b| a + *b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    fn close(a: Complex64, b: Complex64) -> bool {
        (a - b).abs() < EPS
    }

    #[test]
    fn construction_and_constants() {
        assert_eq!(Complex64::ZERO, Complex64::new(0.0, 0.0));
        assert_eq!(Complex64::ONE.re, 1.0);
        assert_eq!(Complex64::I.im, 1.0);
        assert_eq!(Complex64::from(2.5), Complex64::new(2.5, 0.0));
    }

    #[test]
    fn arithmetic_identities() {
        let z = Complex64::new(3.0, -4.0);
        assert!(close(z + Complex64::ZERO, z));
        assert!(close(z * Complex64::ONE, z));
        assert!(close(z - z, Complex64::ZERO));
        assert!(close(z + (-z), Complex64::ZERO));
        assert!(close(z / z, Complex64::ONE));
    }

    #[test]
    fn i_squared_is_minus_one() {
        assert!(close(Complex64::I * Complex64::I, -Complex64::ONE));
    }

    #[test]
    fn multiplication_known_value() {
        let a = Complex64::new(1.0, 2.0);
        let b = Complex64::new(3.0, 4.0);
        assert!(close(a * b, Complex64::new(-5.0, 10.0)));
    }

    #[test]
    fn division_inverts_multiplication() {
        let a = Complex64::new(1.5, -2.25);
        let b = Complex64::new(-0.5, 3.0);
        assert!(close((a * b) / b, a));
    }

    #[test]
    fn abs_norm_arg() {
        let z = Complex64::new(3.0, 4.0);
        assert!((z.abs() - 5.0).abs() < EPS);
        assert!((z.norm_sqr() - 25.0).abs() < EPS);
        assert!((Complex64::I.arg() - std::f64::consts::FRAC_PI_2).abs() < EPS);
    }

    #[test]
    fn polar_roundtrip() {
        let z = Complex64::from_polar(2.0, 0.7);
        assert!((z.abs() - 2.0).abs() < EPS);
        assert!((z.arg() - 0.7).abs() < EPS);
    }

    #[test]
    fn cis_is_unit_magnitude() {
        for k in 0..16 {
            let theta = k as f64 * 0.39;
            assert!((Complex64::cis(theta).abs() - 1.0).abs() < EPS);
        }
    }

    #[test]
    fn conjugate_properties() {
        let z = Complex64::new(1.0, 2.0);
        assert!(close(z.conj().conj(), z));
        let prod = z * z.conj();
        assert!((prod.im).abs() < EPS);
        assert!((prod.re - z.norm_sqr()).abs() < EPS);
    }

    #[test]
    fn exp_of_imaginary_is_cis() {
        let theta = 1.234;
        assert!(close(
            Complex64::new(0.0, theta).exp(),
            Complex64::cis(theta)
        ));
    }

    #[test]
    fn assign_operators() {
        let mut z = Complex64::new(1.0, 1.0);
        z += Complex64::new(1.0, 0.0);
        z -= Complex64::new(0.0, 1.0);
        z *= Complex64::new(2.0, 0.0);
        z /= Complex64::new(2.0, 0.0);
        assert!(close(z, Complex64::new(2.0, 0.0)));
    }

    #[test]
    fn sum_iterators() {
        let values = [Complex64::new(1.0, 1.0); 4];
        let owned: Complex64 = values.iter().copied().sum();
        let referenced: Complex64 = values.iter().sum();
        assert!(close(owned, Complex64::new(4.0, 4.0)));
        assert!(close(referenced, owned));
    }

    #[test]
    fn scalar_ops() {
        let z = Complex64::new(2.0, -6.0);
        assert!(close(z * 0.5, Complex64::new(1.0, -3.0)));
        assert!(close(z / 2.0, Complex64::new(1.0, -3.0)));
    }

    #[test]
    fn debug_formatting() {
        assert_eq!(format!("{:?}", Complex64::new(1.0, 2.0)), "1+2i");
        assert_eq!(format!("{:?}", Complex64::new(1.0, -2.0)), "1-2i");
    }
}
