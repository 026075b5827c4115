//! Arithmetic in GF(p) for the Mersenne prime p = 2⁶¹ − 1.

/// The field modulus: the Mersenne prime 2⁶¹ − 1.
pub const MODULUS: u64 = (1 << 61) - 1;

/// An element of GF(2⁶¹ − 1).
///
/// All values are kept reduced to `0..MODULUS`. Arithmetic uses `u128`
/// intermediates and Mersenne folding, so no operation can overflow.
///
/// # Example
///
/// ```
/// use bcc_linalg::GfP;
///
/// let a = GfP::new(7);
/// let b = GfP::new(3);
/// assert_eq!((a * b).value(), 21);
/// assert_eq!((a / b) * b, a);
/// assert_eq!(a - a, GfP::ZERO);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct GfP(u64);

impl GfP {
    /// The additive identity.
    pub const ZERO: GfP = GfP(0);
    /// The multiplicative identity.
    pub const ONE: GfP = GfP(1);

    /// Creates an element from any `u64`, reducing mod p.
    pub fn new(value: u64) -> Self {
        GfP(value % MODULUS)
    }

    /// The canonical representative in `0..MODULUS`.
    pub fn value(self) -> u64 {
        self.0
    }

    /// Returns `true` if this is the zero element.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Modular exponentiation.
    pub fn pow(self, mut exp: u64) -> GfP {
        let mut base = self;
        let mut acc = GfP::ONE;
        while exp > 0 {
            if exp & 1 == 1 {
                acc *= base;
            }
            base = base * base;
            exp >>= 1;
        }
        acc
    }

    /// The multiplicative inverse, via Fermat's little theorem.
    ///
    /// # Panics
    ///
    /// Panics if `self` is zero.
    pub fn inverse(self) -> GfP {
        assert!(!self.is_zero(), "zero has no multiplicative inverse");
        self.pow(MODULUS - 2)
    }

    fn reduce128(x: u128) -> u64 {
        // Mersenne folding: x = hi·2^61 + lo ≡ hi + lo (mod 2^61 - 1).
        let lo = (x as u64) & MODULUS;
        let hi = (x >> 61) as u64;
        let mut s = lo + hi;
        if s >= MODULUS {
            s -= MODULUS;
        }
        // One fold suffices for products of reduced elements except the
        // carry case handled above; a second conditional covers hi
        // produced by the addition itself.
        if s >= MODULUS {
            s -= MODULUS;
        }
        s
    }
}

impl std::ops::Add for GfP {
    type Output = GfP;
    fn add(self, rhs: GfP) -> GfP {
        let mut s = self.0 + rhs.0;
        if s >= MODULUS {
            s -= MODULUS;
        }
        GfP(s)
    }
}

impl std::ops::Sub for GfP {
    type Output = GfP;
    fn sub(self, rhs: GfP) -> GfP {
        if self.0 >= rhs.0 {
            GfP(self.0 - rhs.0)
        } else {
            GfP(self.0 + MODULUS - rhs.0)
        }
    }
}

impl std::ops::Neg for GfP {
    type Output = GfP;
    fn neg(self) -> GfP {
        if self.0 == 0 {
            self
        } else {
            GfP(MODULUS - self.0)
        }
    }
}

impl std::ops::Mul for GfP {
    type Output = GfP;
    fn mul(self, rhs: GfP) -> GfP {
        GfP(GfP::reduce128(self.0 as u128 * rhs.0 as u128))
    }
}

impl std::ops::Div for GfP {
    type Output = GfP;
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    // In a prime field a/b is *defined* as a·b⁻¹ — the `Mul` inside a
    // `Div` impl that clippy flags as suspicious is the only correct
    // implementation here (audited; keep the lint scoped to this fn).
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, rhs: GfP) -> GfP {
        self * rhs.inverse()
    }
}

impl std::ops::AddAssign for GfP {
    fn add_assign(&mut self, rhs: GfP) {
        *self = *self + rhs;
    }
}

impl std::ops::SubAssign for GfP {
    fn sub_assign(&mut self, rhs: GfP) {
        *self = *self - rhs;
    }
}

impl std::ops::MulAssign for GfP {
    fn mul_assign(&mut self, rhs: GfP) {
        *self = *self * rhs;
    }
}

impl std::fmt::Display for GfP {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u64> for GfP {
    fn from(v: u64) -> Self {
        GfP::new(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_sub_wraparound() {
        let a = GfP::new(MODULUS - 1);
        assert_eq!((a + GfP::ONE).value(), 0);
        assert_eq!((GfP::ZERO - GfP::ONE).value(), MODULUS - 1);
        assert_eq!(-GfP::ONE, GfP::new(MODULUS - 1));
        assert_eq!(-GfP::ZERO, GfP::ZERO);
    }

    #[test]
    fn mul_large_values() {
        let a = GfP::new(MODULUS - 2);
        let b = GfP::new(MODULUS - 3);
        // (p-2)(p-3) = p^2 - 5p + 6 ≡ 6 (mod p)
        assert_eq!((a * b).value(), 6);
    }

    #[test]
    fn inverse_roundtrip() {
        for v in [1u64, 2, 3, 123456789, MODULUS - 1] {
            let a = GfP::new(v);
            assert_eq!(a * a.inverse(), GfP::ONE, "v={v}");
        }
    }

    #[test]
    #[should_panic(expected = "no multiplicative inverse")]
    fn zero_has_no_inverse() {
        GfP::ZERO.inverse();
    }

    #[test]
    fn pow_agrees_with_repeated_mul() {
        let a = GfP::new(5);
        let mut acc = GfP::ONE;
        for e in 0..20u64 {
            assert_eq!(a.pow(e), acc);
            acc *= a;
        }
    }

    #[test]
    fn fermat() {
        assert_eq!(GfP::new(2).pow(MODULUS - 1), GfP::ONE);
    }

    #[test]
    fn division() {
        let a = GfP::new(21);
        assert_eq!(a / GfP::new(3), GfP::new(7));
    }

    #[test]
    fn assign_ops() {
        let mut a = GfP::new(10);
        a += GfP::new(5);
        assert_eq!(a.value(), 15);
        a -= GfP::new(20);
        assert_eq!(a, -GfP::new(5));
        a *= GfP::ZERO;
        assert!(a.is_zero());
    }
}
