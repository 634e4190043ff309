//! The complete pair design: all `v·(v−1)/2` two-element subsets.
//!
//! This is the `k = 2` BIBD with `λ = 1` and `r = v − 1`; it exists for
//! every `v ≥ 2`. In the declustered-parity layout it corresponds to
//! mirrored blocks whose mirror partners are spread over *every* other
//! disk — exactly the doubly-striped mirroring of Mourad (1995) that the
//! paper's related-work section describes.
//!
//! Sets are emitted in lexicographic order: `{0, 1}, {0, 2}, …, {0, v−1},
//! {1, 2}, …`. The PGT lists a column's sets in set-id order, so column
//! `c` holds its partners in increasing disk order with `c` itself
//! skipped: row `j` of column `c` pairs it with disk `j` for `j < c` and
//! with disk `j + 1` otherwise.

use crate::design::{Design, DesignSource};

/// Builds the complete pair design over `v ≥ 2` objects.
#[must_use]
pub fn complete_pairs(v: u32) -> Design {
    let mut sets = Vec::with_capacity((v as usize * (v as usize - 1)) / 2);
    for a in 0..v {
        for b in (a + 1)..v {
            sets.push(vec![a, b]);
        }
    }
    Design::new(v, 2, sets, DesignSource::CompletePairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairs_is_exact_for_small_v() {
        for v in [2u32, 3, 4, 5, 8, 13, 32] {
            let d = complete_pairs(v);
            assert!(d.is_exact_bibd(1), "v = {v}");
            assert_eq!(d.num_sets() as u32, v * (v - 1) / 2);
            assert_eq!(d.stats().r_min, v - 1);
        }
    }

    /// The ring enumeration (pairs by increasing distance around the
    /// ring), sorted and deduplicated: how the design used to be built.
    fn ring_sorted(v: u32) -> Vec<Vec<u32>> {
        let mut sets = Vec::new();
        for dist in 1..v {
            for a in 0..v {
                let b = (a + dist) % v;
                if a < b {
                    sets.push(vec![a, b]);
                }
            }
        }
        sets.sort();
        sets.dedup();
        sets
    }

    #[test]
    fn emission_is_the_sorted_ring_enumeration() {
        for v in 2..=64u32 {
            assert_eq!(complete_pairs(v).sets, ring_sorted(v), "v = {v}");
        }
    }

    #[test]
    fn pgt_row_j_of_column_c_skips_c() {
        let pgt = crate::Pgt::new(&complete_pairs(9));
        for c in 0..9u32 {
            for j in 0..8u32 {
                let partner = if j < c { j } else { j + 1 };
                let mut want = [c, partner];
                want.sort_unstable();
                assert_eq!(pgt.members(pgt.set_at(j, c)), want, "row {j} of column {c}");
            }
        }
    }

    #[test]
    fn every_pair_appears_exactly_once() {
        let d = complete_pairs(7);
        for a in 0..7 {
            for b in (a + 1)..7 {
                assert_eq!(d.lambda_of(a, b), 1, "pair ({a},{b})");
            }
        }
    }
}
