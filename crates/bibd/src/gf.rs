//! Small finite fields `GF(p^m)`.
//!
//! Affine and projective plane constructions need arithmetic over a finite
//! field of the plane's order. Orders here are tiny (the plane order is
//! the parity group size, so ≤ 64 in any realistic server), which lets us
//! build the field eagerly: elements are represented as polynomials over
//! `GF(p)` packed into a `u32` index, and full addition/multiplication
//! tables are materialized at construction time. Irreducible polynomials
//! are found by exhaustive search — instantaneous at these sizes.

/// A finite field `GF(p^m)` with precomputed operation tables.
///
/// Elements are `0..q` where `q = p^m`; element `e` encodes the polynomial
/// `c_0 + c_1·x + …` with `c_i = (e / p^i) % p`. Element `0` is the
/// additive identity and element `1` the multiplicative identity.
#[derive(Debug, Clone)]
pub struct Gf {
    /// Field characteristic (prime).
    p: u32,
    /// Extension degree.
    m: u32,
    /// Field order `q = p^m`.
    q: u32,
    add: Vec<u32>,
    mul: Vec<u32>,
    inv: Vec<u32>,
}

/// Is `n` a prime number?
#[must_use]
pub fn is_prime(n: u32) -> bool {
    if n < 2 {
        return false;
    }
    let mut d = 2u32;
    while d * d <= n {
        if n.is_multiple_of(d) {
            return false;
        }
        d += 1;
    }
    true
}

/// Decomposes `q` as `p^m` with `p` prime, if possible.
#[must_use]
pub fn prime_power(q: u32) -> Option<(u32, u32)> {
    if q < 2 {
        return None;
    }
    let mut p = 2;
    while p * p <= q {
        if q.is_multiple_of(p) {
            let mut n = q;
            let mut m = 0;
            while n.is_multiple_of(p) {
                n /= p;
                m += 1;
            }
            return (n == 1).then_some((p, m));
        }
        p += 1;
    }
    Some((q, 1))
}

impl Gf {
    /// Constructs `GF(q)` for a prime power `q`.
    ///
    /// Returns `None` if `q` is not a prime power or exceeds the supported
    /// bound (4096 — far beyond any plane order a CM server needs).
    #[must_use]
    pub fn new(q: u32) -> Option<Self> {
        if q > 4096 {
            return None;
        }
        let (p, m) = prime_power(q)?;
        let irreducible = find_irreducible(p, m);
        let qs = q as usize;
        let mut add = vec![0u32; qs * qs];
        let mut mul = vec![0u32; qs * qs];
        for a in 0..q {
            for b in 0..q {
                add[(a as usize) * qs + b as usize] = poly_add(a, b, p, m);
                mul[(a as usize) * qs + b as usize] = poly_mul_mod(a, b, p, m, &irreducible);
            }
        }
        let mut inv = vec![0u32; qs];
        for a in 1..q {
            for b in 1..q {
                if mul[(a as usize) * qs + b as usize] == 1 {
                    inv[a as usize] = b;
                    break;
                }
            }
            debug_assert_ne!(inv[a as usize], 0, "every nonzero element must have an inverse");
        }
        Some(Gf { p, m, q, add, mul, inv })
    }

    /// Field order `q`.
    #[must_use]
    pub fn order(&self) -> u32 {
        self.q
    }

    /// Field characteristic `p`.
    #[must_use]
    pub fn characteristic(&self) -> u32 {
        self.p
    }

    /// Extension degree `m` (so `q = p^m`).
    #[must_use]
    pub fn degree(&self) -> u32 {
        self.m
    }

    /// Field addition.
    #[must_use]
    pub fn add(&self, a: u32, b: u32) -> u32 {
        self.add[(a as usize) * self.q as usize + b as usize]
    }

    /// Field multiplication.
    #[must_use]
    pub fn mul(&self, a: u32, b: u32) -> u32 {
        self.mul[(a as usize) * self.q as usize + b as usize]
    }

    /// Additive inverse.
    #[must_use]
    pub fn neg(&self, a: u32) -> u32 {
        // Search-free: -a is the unique b with a + b = 0; for packed
        // base-p digits, negate each digit.
        let mut result = 0;
        let mut pow = 1;
        let mut x = a;
        for _ in 0..self.m {
            let digit = x % self.p;
            let neg = if digit == 0 { 0 } else { self.p - digit };
            result += neg * pow;
            pow *= self.p;
            x /= self.p;
        }
        result
    }

    /// Field subtraction.
    #[must_use]
    pub fn sub(&self, a: u32, b: u32) -> u32 {
        self.add(a, self.neg(b))
    }

    /// Multiplicative inverse of a nonzero element.
    ///
    /// # Panics
    ///
    /// Panics if `a == 0`.
    #[must_use]
    pub fn invert(&self, a: u32) -> u32 {
        assert_ne!(a, 0, "zero has no multiplicative inverse");
        self.inv[a as usize]
    }

    /// `a·x + b` — the affine evaluation used by plane constructions.
    #[must_use]
    pub fn mul_add(&self, a: u32, x: u32, b: u32) -> u32 {
        self.add(self.mul(a, x), b)
    }
}

/// Digit-wise (coefficient-wise) addition of packed polynomials over GF(p).
fn poly_add(a: u32, b: u32, p: u32, m: u32) -> u32 {
    let mut result = 0;
    let mut pow = 1;
    let (mut x, mut y) = (a, b);
    for _ in 0..m {
        result += ((x % p + y % p) % p) * pow;
        pow *= p;
        x /= p;
        y /= p;
    }
    result
}

/// Multiplies packed polynomials and reduces modulo the irreducible
/// polynomial (given as coefficient vector of degree `m`, monic).
fn poly_mul_mod(a: u32, b: u32, p: u32, m: u32, irreducible: &[u32]) -> u32 {
    let deg = m as usize;
    let to_coeffs = |mut e: u32| {
        let mut c = vec![0u32; deg];
        for coeff in c.iter_mut() {
            *coeff = e % p;
            e /= p;
        }
        c
    };
    let ca = to_coeffs(a);
    let cb = to_coeffs(b);
    // Schoolbook product, degree up to 2m−2.
    let mut prod = vec![0u32; 2 * deg];
    for (i, &x) in ca.iter().enumerate() {
        for (j, &y) in cb.iter().enumerate() {
            prod[i + j] = (prod[i + j] + x * y) % p;
        }
    }
    // Reduce: x^m ≡ −(irreducible without leading term).
    for i in (deg..2 * deg).rev() {
        let coeff = prod[i];
        if coeff == 0 {
            continue;
        }
        prod[i] = 0;
        for j in 0..deg {
            let sub = (coeff * irreducible[j]) % p;
            prod[i - deg + j] = (prod[i - deg + j] + p - sub % p) % p;
        }
    }
    let mut result = 0;
    let mut pow = 1;
    for &c in prod.iter().take(deg) {
        result += c * pow;
        pow *= p;
    }
    result
}

/// Finds a monic irreducible polynomial of degree `m` over GF(p), returned
/// as its low coefficients `c_0..c_{m-1}` (the leading coefficient is 1).
fn find_irreducible(p: u32, m: u32) -> Vec<u32> {
    if m == 1 {
        // GF(p) itself: reduction is plain mod p; x ≡ 0 means c_0 = 0.
        return vec![0];
    }
    let deg = m as usize;
    let total: u64 = (u64::from(p)).pow(m);
    for packed in 0..total {
        let mut coeffs = vec![0u32; deg];
        let mut e = packed;
        for c in coeffs.iter_mut() {
            *c = (e % u64::from(p)) as u32;
            e /= u64::from(p);
        }
        if is_irreducible(&coeffs, p) {
            return coeffs;
        }
    }
    unreachable!("irreducible polynomials of every degree exist over every GF(p)")
}

/// Tests whether the monic polynomial `x^m + Σ c_i x^i` is irreducible over
/// GF(p) by exhaustive trial division with all monic polynomials of degree
/// `1..=m/2`.
fn is_irreducible(low_coeffs: &[u32], p: u32) -> bool {
    let m = low_coeffs.len();
    let mut full = low_coeffs.to_vec();
    full.push(1); // monic leading term
    for dd in 1..=(m / 2) {
        let count = (u64::from(p)).pow(dd as u32);
        for packed in 0..count {
            let mut divisor = vec![0u32; dd + 1];
            let mut e = packed;
            for c in divisor.iter_mut().take(dd) {
                *c = (e % u64::from(p)) as u32;
                e /= u64::from(p);
            }
            divisor[dd] = 1; // monic
            if poly_divides(&divisor, &full, p) {
                return false;
            }
        }
    }
    true
}

/// Does `divisor` divide `poly` exactly over GF(p)? Both monic.
fn poly_divides(divisor: &[u32], poly: &[u32], p: u32) -> bool {
    let mut rem = poly.to_vec();
    let dd = divisor.len() - 1;
    while rem.len() > dd {
        let Some(&lead) = rem.last() else { break };
        let shift = rem.len() - 1 - dd;
        if lead != 0 {
            for (i, &c) in divisor.iter().enumerate() {
                let idx = shift + i;
                rem[idx] = (rem[idx] + p - (lead * c) % p) % p;
            }
        }
        rem.pop();
    }
    rem.iter().all(|&c| c == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prime_detection() {
        assert!(is_prime(2));
        assert!(is_prime(3));
        assert!(is_prime(31));
        assert!(!is_prime(1));
        assert!(!is_prime(32));
        assert!(!is_prime(49 * 2));
    }

    #[test]
    fn prime_power_decomposition() {
        assert_eq!(prime_power(8), Some((2, 3)));
        assert_eq!(prime_power(9), Some((3, 2)));
        assert_eq!(prime_power(7), Some((7, 1)));
        assert_eq!(prime_power(32), Some((2, 5)));
        assert_eq!(prime_power(12), None);
        assert_eq!(prime_power(1), None);
    }

    /// Exhaustive field-axiom check for one order.
    fn check_field_axioms(q: u32) {
        let f = Gf::new(q).unwrap_or_else(|| panic!("GF({q}) must exist"));
        assert_eq!(f.order(), q);
        for a in 0..q {
            // identities
            assert_eq!(f.add(a, 0), a);
            assert_eq!(f.mul(a, 1), a);
            assert_eq!(f.mul(a, 0), 0);
            // additive inverse
            assert_eq!(f.add(a, f.neg(a)), 0);
            if a != 0 {
                assert_eq!(f.mul(a, f.invert(a)), 1, "inverse of {a} in GF({q})");
            }
            for b in 0..q {
                // commutativity
                assert_eq!(f.add(a, b), f.add(b, a));
                assert_eq!(f.mul(a, b), f.mul(b, a));
                for c in 0..q {
                    // associativity & distributivity
                    assert_eq!(f.add(f.add(a, b), c), f.add(a, f.add(b, c)));
                    assert_eq!(f.mul(f.mul(a, b), c), f.mul(a, f.mul(b, c)));
                    assert_eq!(f.mul(a, f.add(b, c)), f.add(f.mul(a, b), f.mul(a, c)));
                }
            }
        }
    }

    #[test]
    fn gf2_gf3_gf5_are_fields() {
        check_field_axioms(2);
        check_field_axioms(3);
        check_field_axioms(5);
    }

    #[test]
    fn gf4_gf8_are_fields() {
        check_field_axioms(4);
        check_field_axioms(8);
    }

    #[test]
    fn gf9_is_a_field() {
        check_field_axioms(9);
    }

    #[test]
    fn gf16_has_correct_structure() {
        let f = Gf::new(16).unwrap();
        assert_eq!(f.characteristic(), 2);
        assert_eq!(f.degree(), 4);
        // In characteristic 2, every element is its own additive inverse.
        for a in 0..16 {
            assert_eq!(f.add(a, a), 0);
            assert_eq!(f.neg(a), a);
        }
        // The multiplicative group has order 15: a^15 = 1 for a != 0.
        for a in 1..16 {
            let mut acc = 1;
            for _ in 0..15 {
                acc = f.mul(acc, a);
            }
            assert_eq!(acc, 1, "a = {a}");
        }
    }

    #[test]
    fn non_prime_power_is_rejected() {
        assert!(Gf::new(6).is_none());
        assert!(Gf::new(12).is_none());
        assert!(Gf::new(0).is_none());
        assert!(Gf::new(1).is_none());
    }

    #[test]
    fn sub_is_add_neg() {
        let f = Gf::new(9).unwrap();
        for a in 0..9 {
            for b in 0..9 {
                assert_eq!(f.add(f.sub(a, b), b), a);
            }
        }
    }

    #[test]
    fn mul_add_matches_components() {
        let f = Gf::new(8).unwrap();
        for a in 0..8 {
            for x in 0..8 {
                for b in 0..8 {
                    assert_eq!(f.mul_add(a, x, b), f.add(f.mul(a, x), b));
                }
            }
        }
    }
}
