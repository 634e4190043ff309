//! GF(256) arithmetic for the Reed–Solomon codec.
//!
//! Grown from the table-driven `cms-bibd` field (`crates/bibd/src/gf.rs`),
//! which materializes full q×q operation tables — fine for plane orders
//! ≤ 64, wasteful at q = 256 where the codec multiplies whole stripe
//! units. Here the field is the standard AES-adjacent representation:
//! polynomials over GF(2) modulo `x⁸ + x⁴ + x³ + x² + 1` (0x11d), with
//! log/antilog tables over the generator `x` built at compile time.
//! Addition is XOR. A product of nonzero elements is the antilog of the
//! sum of their logs ([`mul`]: three table reads and one add); the
//! antilog table is doubled so the log sum never needs a `mod 255`. The
//! slice kernel ([`mul_slice_xor`]) reads the coefficient's log once, so
//! each nonzero source byte costs two table reads and one add.

/// The reduction polynomial `x⁸ + x⁴ + x³ + x² + 1`.
pub const POLY: u16 = 0x11d;

/// `(log, exp)` tables over the generator `x` (which is primitive for
/// 0x11d): `exp[i] = x^i` for `i in 0..255`, duplicated to `510` so
/// `exp[log a + log b]` needs no reduction; `log[exp[i]] = i`.
const fn build_tables() -> ([u8; 256], [u8; 512]) {
    let mut log = [0u8; 256];
    let mut exp = [0u8; 512];
    let mut x: u16 = 1;
    let mut i = 0;
    while i < 255 {
        exp[i] = x as u8;
        log[x as usize] = i as u8;
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= POLY;
        }
        i += 1;
    }
    let mut j = 255;
    while j < 510 {
        exp[j] = exp[j - 255];
        j += 1;
    }
    (log, exp)
}

const TABLES: ([u8; 256], [u8; 512]) = build_tables();
/// Discrete log of each nonzero element (`LOG[0]` is unused).
pub const LOG: [u8; 256] = TABLES.0;
/// Antilog (powers of the generator), doubled for reduction-free lookup.
pub const EXP: [u8; 512] = TABLES.1;

/// Field addition (= subtraction): carry-less, so plain XOR.
#[inline]
#[must_use]
pub const fn add(a: u8, b: u8) -> u8 {
    a ^ b
}

/// Field multiplication via log/antilog tables.
#[inline]
#[must_use]
pub fn mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        return 0;
    }
    EXP[LOG[a as usize] as usize + LOG[b as usize] as usize]
}

/// Multiplicative inverse of a nonzero element.
///
/// # Panics
///
/// Panics if `a == 0`.
#[inline]
#[must_use]
pub fn inv(a: u8) -> u8 {
    assert_ne!(a, 0, "zero has no multiplicative inverse");
    EXP[255 - LOG[a as usize] as usize]
}

/// Field division `a / b`.
///
/// # Panics
///
/// Panics if `b == 0`.
#[inline]
#[must_use]
pub fn div(a: u8, b: u8) -> u8 {
    assert_ne!(b, 0, "division by zero");
    if a == 0 {
        return 0;
    }
    EXP[255 + LOG[a as usize] as usize - LOG[b as usize] as usize]
}

/// `dst[i] ^= coeff · src[i]` over GF(256) — the codec's per-stripe-unit
/// kernel. `coeff == 0` is a no-op and `coeff == 1` degenerates to the
/// XOR fold, so the m = 1 code path pays no table lookups.
///
/// # Panics
///
/// Panics when the slices differ in length.
pub fn mul_slice_xor(dst: &mut [u8], src: &[u8], coeff: u8) {
    assert_eq!(dst.len(), src.len(), "GF fold of slices of unequal length");
    match coeff {
        0 => {}
        1 => {
            // lint: hot
            for (d, &s) in dst.iter_mut().zip(src.iter()) {
                *d ^= s;
            }
        }
        _ => {
            let log_c = LOG[coeff as usize] as usize;
            // lint: hot
            for (d, &s) in dst.iter_mut().zip(src.iter()) {
                if s != 0 {
                    *d ^= EXP[log_c + LOG[s as usize] as usize];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_are_consistent() {
        // x is primitive: exp visits every nonzero element exactly once.
        let mut seen = [false; 256];
        for (i, &e) in EXP[..255].iter().enumerate() {
            let e = e as usize;
            assert_ne!(e, 0);
            assert!(!seen[e], "exp[{i}] = {e} repeats");
            seen[e] = true;
        }
        for a in 1..=255u8 {
            assert_eq!(EXP[LOG[a as usize] as usize], a);
        }
        for i in 255..510 {
            assert_eq!(EXP[i], EXP[i - 255]);
        }
    }

    #[test]
    fn mul_matches_carryless_reference() {
        // Shift-and-add reference multiplication modulo POLY.
        fn slow_mul(a: u8, b: u8) -> u8 {
            let mut acc: u16 = 0;
            let mut a = u16::from(a);
            let mut b = u16::from(b);
            while b != 0 {
                if b & 1 != 0 {
                    acc ^= a;
                }
                a <<= 1;
                if a & 0x100 != 0 {
                    a ^= POLY;
                }
                b >>= 1;
            }
            acc as u8
        }
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                assert_eq!(mul(a, b), slow_mul(a, b), "a = {a}, b = {b}");
            }
        }
    }

    #[test]
    fn every_nonzero_element_inverts() {
        for a in 1..=255u8 {
            assert_eq!(mul(a, inv(a)), 1, "a = {a}");
            assert_eq!(div(1, a), inv(a));
            assert_eq!(div(a, a), 1);
        }
    }

    #[test]
    fn mul_slice_xor_matches_mul_for_every_coefficient() {
        // Every byte value as a source, a non-zero destination, and
        // lengths around the 256-byte cycle of the source; the source's
        // zero byte sits at index 255, so the 257th byte is non-zero.
        for len in [0usize, 1, 255, 256, 257] {
            let src: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_add(1)).collect();
            let dst: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_mul(31) | 1).collect();
            for coeff in 0..=255u8 {
                let mut fast = dst.clone();
                mul_slice_xor(&mut fast, &src, coeff);
                let slow: Vec<u8> =
                    dst.iter().zip(&src).map(|(&d, &s)| d ^ mul(coeff, s)).collect();
                assert_eq!(fast, slow, "coeff = {coeff}, len = {len}");
            }
        }
    }
}
