//! Complex numbers over either IEEE binary precision.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A real floating-point type complex values and transforms are built on:
/// `f64`, or `f32` for the reconstruction's working precision.
///
/// Sealed: the FFT kernels exist for exactly these two types.
pub trait Real:
    Copy
    + Default
    + PartialEq
    + PartialOrd
    + fmt::Debug
    + fmt::Display
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + Sum
    + crate::simd::Sweeps
{
    /// `0`.
    const ZERO: Self;
    /// `1`.
    const ONE: Self;
    /// `x` rounded to the nearest value of this type (exact for `f64`).
    fn from_f64(x: f64) -> Self;
    /// This value as an `f64` (exact).
    fn to_f64(self) -> f64;
    /// The IEEE 754 bit pattern, zero-extended: what bit-identity tests and
    /// goldens compare.
    fn bit_pattern(self) -> u64;
    /// The value whose [`Real::bit_pattern`] is `bits` (the high bits past
    /// this type's width are ignored): `bit_pattern`'s exact inverse.
    fn from_bit_pattern(bits: u64) -> Self;
    /// Square root.
    fn sqrt(self) -> Self;
    /// `sqrt(self² + other²)` without undue overflow.
    fn hypot(self, other: Self) -> Self;
    /// Four-quadrant arctangent of `self / other`.
    fn atan2(self, other: Self) -> Self;
    /// Sine.
    fn sin(self) -> Self;
    /// Cosine.
    fn cos(self) -> Self;
    /// `e^self`.
    fn exp(self) -> Self;
    /// Neither infinite nor NaN.
    fn is_finite(self) -> bool;
    /// Not a number.
    fn is_nan(self) -> bool;
}

macro_rules! real {
    ($($t:ty => $hypot:path),*) => {$(
        impl Real for $t {
            const ZERO: $t = 0.0;
            const ONE: $t = 1.0;
            #[inline]
            fn from_f64(x: f64) -> $t {
                x as $t
            }
            #[inline]
            fn to_f64(self) -> f64 {
                self as f64
            }
            #[inline]
            fn bit_pattern(self) -> u64 {
                self.to_bits() as u64
            }
            #[inline]
            fn from_bit_pattern(bits: u64) -> $t {
                <$t>::from_bits(bits as _)
            }
            #[inline]
            fn sqrt(self) -> $t {
                <$t>::sqrt(self)
            }
            #[inline]
            fn hypot(self, other: $t) -> $t {
                $hypot(self, other)
            }
            #[inline]
            fn atan2(self, other: $t) -> $t {
                <$t>::atan2(self, other)
            }
            #[inline]
            fn sin(self) -> $t {
                <$t>::sin(self)
            }
            #[inline]
            fn cos(self) -> $t {
                <$t>::cos(self)
            }
            #[inline]
            fn exp(self) -> $t {
                <$t>::exp(self)
            }
            #[inline]
            fn is_finite(self) -> bool {
                <$t>::is_finite(self)
            }
            #[inline]
            fn is_nan(self) -> bool {
                <$t>::is_nan(self)
            }
        }
    )*};
}

real!(f32 => hypot_f32, f64 => f64::hypot);

/// `hypot` for `f32` without libm: the squares and their sum in `f64`, where
/// the squares are exact and nothing overflows, then the root rounded to
/// `f32`. An infinite part gives `+∞` even beside a NaN, as `hypot` does.
/// glibc's `hypotf` computes the same way, and the two agree bit for bit on
/// finite pairs; but an `f32` magnitude, and so every `f32` loss and
/// gradient, no longer depends on which libm the host links.
fn hypot_f32(x: f32, y: f32) -> f32 {
    if x.is_infinite() || y.is_infinite() {
        return f32::INFINITY;
    }
    let (x, y) = (f64::from(x), f64::from(y));
    (x * x + y * y).sqrt() as f32
}

/// A complex number `re + i·im` over the real type `T`.
///
/// This type exists so that the workspace has no external numeric dependencies;
/// it implements exactly the operations the FFT kernels, the multi-slice
/// propagation model and the gradient computations require. Every operation
/// is the same sequence of IEEE operations at either precision.
// `repr(C)` guarantees the `re, im` field order in memory, so a
// `&[Complex<T>]` is exactly a dense `re, im, re, im, …` sequence of `T` —
// the layout the SIMD butterfly kernels load several lanes at a time.
#[repr(C)]
#[derive(Clone, Copy, PartialEq, Default)]
pub struct Complex<T> {
    /// Real part.
    pub re: T,
    /// Imaginary part.
    pub im: T,
}

/// A double-precision complex number: the precision of everything that is
/// synthesised or persisted.
pub type Complex64 = Complex<f64>;

/// A single-precision complex number: the reconstruction's working precision
/// for every per-probe evaluation.
pub type Complex32 = Complex<f32>;

impl<T: Real> fmt::Debug for Complex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= T::ZERO {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

impl<T: Real> fmt::Display for Complex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl<T: Real> Complex<T> {
    /// The additive identity `0 + 0i`.
    pub const ZERO: Self = Self {
        re: T::ZERO,
        im: T::ZERO,
    };
    /// The multiplicative identity `1 + 0i`.
    pub const ONE: Self = Self {
        re: T::ONE,
        im: T::ZERO,
    };
    /// The imaginary unit `0 + 1i`.
    pub const I: Self = Self {
        re: T::ZERO,
        im: T::ONE,
    };

    /// Creates a complex number from its real and imaginary parts.
    #[inline]
    pub const fn new(re: T, im: T) -> Self {
        Self { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn from_real(re: T) -> Self {
        Self { re, im: T::ZERO }
    }

    /// `z` rounded part by part to this precision (exact for `f64`): how an
    /// `f64` table becomes a working-precision one.
    #[inline]
    pub fn narrow(z: Complex64) -> Self {
        Self::new(T::from_f64(z.re), T::from_f64(z.im))
    }

    /// This value in double precision (exact).
    #[inline]
    pub fn widen(self) -> Complex64 {
        Complex64::new(self.re.to_f64(), self.im.to_f64())
    }

    /// Creates a complex number from polar coordinates `r·e^{iθ}`.
    #[inline]
    pub fn from_polar(r: T, theta: T) -> Self {
        Self {
            re: r * theta.cos(),
            im: r * theta.sin(),
        }
    }

    /// `e^{iθ}`: the unit-magnitude phase factor used for propagators and
    /// twiddle factors.
    #[inline]
    pub fn cis(theta: T) -> Self {
        Self::from_polar(T::ONE, theta)
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
    pub fn abs(self) -> T {
        self.re.hypot(self.im)
    }

    /// Squared magnitude `re² + im²` (the measured diffraction intensity).
    #[inline]
    pub fn norm_sqr(self) -> T {
        self.re * self.re + self.im * self.im
    }

    /// Argument (phase angle) in radians.
    #[inline]
    pub fn arg(self) -> T {
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
    pub fn scale(self, s: T) -> Self {
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

impl<T: Real> From<T> for Complex<T> {
    fn from(re: T) -> Self {
        Self::from_real(re)
    }
}

impl<T: Real> Add for Complex<T> {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl<T: Real> Sub for Complex<T> {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Self::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl<T: Real> Mul for Complex<T> {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Self::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl<T: Real> Div for Complex<T> {
    type Output = Self;
    #[inline]
    // Complex division is multiplication by the reciprocal; not a typo.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, rhs: Self) -> Self {
        self * rhs.recip()
    }
}

impl<T: Real> Mul<T> for Complex<T> {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: T) -> Self {
        self.scale(rhs)
    }
}

impl<T: Real> Div<T> for Complex<T> {
    type Output = Self;
    #[inline]
    fn div(self, rhs: T) -> Self {
        self.scale(T::ONE / rhs)
    }
}

impl<T: Real> Neg for Complex<T> {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        Self::new(-self.re, -self.im)
    }
}

impl<T: Real> AddAssign for Complex<T> {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl<T: Real> SubAssign for Complex<T> {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl<T: Real> MulAssign for Complex<T> {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl<T: Real> DivAssign for Complex<T> {
    #[inline]
    fn div_assign(&mut self, rhs: Self) {
        *self = *self / rhs;
    }
}

impl<T: Real> Sum for Complex<T> {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, |a, b| a + b)
    }
}

impl<'a, T: Real> Sum<&'a Complex<T>> for Complex<T> {
    fn sum<I: Iterator<Item = &'a Complex<T>>>(iter: I) -> Self {
        iter.fold(Self::ZERO, |a, b| a + *b)
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
    fn f32_hypot_keeps_the_non_finite_cases_and_stays_within_an_ulp_of_libm() {
        let h = <f32 as Real>::hypot;
        for (x, y) in [(f32::INFINITY, f32::NAN), (f32::NAN, f32::NEG_INFINITY)] {
            assert_eq!(h(x, y), f32::INFINITY);
        }
        assert_eq!(h(f32::NEG_INFINITY, 3.0), f32::INFINITY);
        assert!(h(f32::NAN, 1.0).is_nan());
        assert_eq!(h(3.0, -4.0), 5.0);
        assert_eq!(h(0.0, -0.0).to_bits(), 0);
        assert_eq!(h(f32::MAX, 1.0), f32::MAX);
        assert_eq!(h(f32::MAX, f32::MAX), f32::INFINITY);
        let tiny = f32::from_bits(1);
        assert_eq!(h(tiny, 0.0), tiny);
        // Pairs spread over 2⁻⁶⁰ … 2⁶⁰, both signs.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..20_000 {
            let mut next = || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let mantissa = (state >> 40) as f32 / (1u64 << 24) as f32 + 0.5;
                let exponent = (state % 121) as i32 - 60;
                let sign = if state & (1 << 20) == 0 { 1.0 } else { -1.0 };
                sign * mantissa * 2f32.powi(exponent)
            };
            let (x, y) = (next(), next());
            let (ours, libm) = (h(x, y), x.hypot(y));
            assert!(
                ours.to_bits().abs_diff(libm.to_bits()) <= 1,
                "hypot({x:e}, {y:e}): {ours:e} vs libm {libm:e}"
            );
        }
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
    fn narrowing_rounds_and_widening_is_exact() {
        let z = Complex64::new(0.1, -1.0 / 3.0);
        let narrow = Complex32::narrow(z);
        assert_eq!((narrow.re, narrow.im), (0.1f32, -1.0f32 / 3.0));
        assert_eq!(
            narrow.widen(),
            Complex64::new(0.1f32 as f64, (-1.0f32 / 3.0) as f64)
        );
        assert_eq!(Complex64::narrow(z), z);
        assert_eq!(z.widen(), z);
        assert_eq!(1.5f32.bit_pattern(), 1.5f32.to_bits() as u64);
    }

    #[test]
    fn debug_formatting() {
        assert_eq!(format!("{:?}", Complex64::new(1.0, 2.0)), "1+2i");
        assert_eq!(format!("{:?}", Complex64::new(1.0, -2.0)), "1-2i");
    }
}
