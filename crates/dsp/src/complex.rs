//! A minimal complex-number type.
//!
//! Only the operations the FFT and the spectral analysis actually need
//! are implemented; keeping the surface small keeps the crate easy to
//! audit (the `smoltcp` philosophy: simplicity over generality).

use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number in Cartesian form, `re + i·im`, backed by `f64`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// The additive identity, `0 + 0i`.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// The multiplicative identity, `1 + 0i`.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };
    /// The imaginary unit, `0 + 1i`.
    pub const I: Complex = Complex { re: 0.0, im: 1.0 };

    /// Creates a complex number from Cartesian parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn real(re: f64) -> Self {
        Complex { re, im: 0.0 }
    }

    /// Creates `e^{iθ}` — the unit phasor with phase `theta` (radians).
    #[inline]
    pub fn cis(theta: f64) -> Self {
        let (sin, cos) = theta.sin_cos();
        Complex { re: cos, im: sin }
    }

    /// Creates a complex number from polar form `r·e^{iθ}`.
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        let (sin, cos) = theta.sin_cos();
        Complex {
            re: r * cos,
            im: r * sin,
        }
    }

    /// The complex conjugate `re − i·im`.
    #[inline]
    pub fn conj(self) -> Self {
        Complex {
            re: self.re,
            im: -self.im,
        }
    }

    /// The modulus `|z| = sqrt(re² + im²)`.
    ///
    /// Uses `hypot` which is robust against intermediate overflow.
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// The squared modulus `|z|²`, cheaper than [`Complex::abs`] when
    /// only relative magnitudes matter (e.g. energy computations).
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// The argument (phase) in `(-π, π]`, matching the paper's
    /// `P = arg X[k]` feature.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplies by a real scalar.
    #[inline]
    pub fn scale(self, s: f64) -> Self {
        Complex {
            re: self.re * s,
            im: self.im * s,
        }
    }

    /// Returns `true` if either component is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        self.re.is_nan() || self.im.is_nan()
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Complex {
    #[inline]
    fn add_assign(&mut self, rhs: Complex) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl SubAssign for Complex {
    #[inline]
    fn sub_assign(&mut self, rhs: Complex) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl MulAssign for Complex {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex) {
        *self = *self * rhs;
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: f64) -> Complex {
        self.scale(rhs)
    }
}

impl Div<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn div(self, rhs: f64) -> Complex {
        Complex::new(self.re / rhs, self.im / rhs)
    }
}

impl Div for Complex {
    type Output = Complex;
    #[inline]
    fn div(self, rhs: Complex) -> Complex {
        let d = rhs.norm_sqr();
        Complex::new(
            (self.re * rhs.re + self.im * rhs.im) / d,
            (self.im * rhs.re - self.re * rhs.im) / d,
        )
    }
}

impl Neg for Complex {
    type Output = Complex;
    #[inline]
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl From<f64> for Complex {
    #[inline]
    fn from(re: f64) -> Self {
        Complex::real(re)
    }
}

impl std::fmt::Display for Complex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    #[test]
    fn add_sub_roundtrip() {
        let a = Complex::new(1.5, -2.5);
        let b = Complex::new(-0.25, 4.0);
        let c = a + b - b;
        assert!((c.re - a.re).abs() < EPS && (c.im - a.im).abs() < EPS);
    }

    #[test]
    fn mul_matches_expansion() {
        let a = Complex::new(3.0, 2.0);
        let b = Complex::new(1.0, -4.0);
        // (3+2i)(1-4i) = 3 -12i + 2i -8i² = 11 - 10i
        let p = a * b;
        assert!((p.re - 11.0).abs() < EPS);
        assert!((p.im + 10.0).abs() < EPS);
    }

    #[test]
    fn division_inverts_multiplication() {
        let a = Complex::new(3.0, 2.0);
        let b = Complex::new(1.0, -4.0);
        let q = (a * b) / b;
        assert!((q.re - a.re).abs() < 1e-10 && (q.im - a.im).abs() < 1e-10);
    }

    #[test]
    fn cis_is_unit_phasor() {
        for k in 0..16 {
            let theta = k as f64 * std::f64::consts::TAU / 16.0;
            let z = Complex::cis(theta);
            assert!((z.abs() - 1.0).abs() < EPS);
        }
    }

    #[test]
    fn polar_roundtrip() {
        let z = Complex::from_polar(2.5, 0.7);
        assert!((z.abs() - 2.5).abs() < EPS);
        assert!((z.arg() - 0.7).abs() < EPS);
    }

    #[test]
    fn conj_negates_phase() {
        let z = Complex::from_polar(1.0, 1.1);
        assert!((z.conj().arg() + 1.1).abs() < EPS);
    }

    #[test]
    fn arg_quadrants() {
        assert!((Complex::new(1.0, 0.0).arg()).abs() < EPS);
        assert!((Complex::new(0.0, 1.0).arg() - std::f64::consts::FRAC_PI_2).abs() < EPS);
        assert!((Complex::new(-1.0, 0.0).arg() - std::f64::consts::PI).abs() < EPS);
        assert!((Complex::new(0.0, -1.0).arg() + std::f64::consts::FRAC_PI_2).abs() < EPS);
    }

    #[test]
    fn norm_sqr_is_abs_squared() {
        let z = Complex::new(-3.0, 4.0);
        assert!((z.norm_sqr() - 25.0).abs() < EPS);
        assert!((z.abs() - 5.0).abs() < EPS);
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(Complex::new(1.0, 2.0).to_string(), "1+2i");
        assert_eq!(Complex::new(1.0, -2.0).to_string(), "1-2i");
    }
}
