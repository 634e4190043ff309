//! The [`Design`] type: a family of sets over `v` objects, with exact
//! verification of the BIBD axioms and balance statistics for relaxed
//! designs.

use std::fmt;

/// Which construction produced a design. Recorded so layouts and reports
/// can state whether the declustering is exact (`λ = 1`) or a balanced
/// approximation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DesignSource {
    /// `k = v`: the single set containing every object (plain RAID-5
    /// cluster spanning the array).
    Trivial,
    /// Complete pair design, `k = 2`.
    CompletePairs,
    /// Bose's Steiner-triple construction, `v ≡ 3 (mod 6)`.
    BoseSteiner,
    /// Stinson hill-climbing Steiner triple system, `v ≡ 1, 3 (mod 6)`.
    StinsonSteiner,
    /// Affine plane `AG(2, q)`, `v = q²`, `k = q`.
    AffinePlane,
    /// Projective plane `PG(2, q)`, `v = q² + q + 1`, `k = q + 1`.
    ProjectivePlane,
    /// Greedy balanced-partition fallback (relaxed λ).
    BalancedFallback,
}

impl fmt::Display for DesignSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DesignSource::Trivial => "trivial (k = v)",
            DesignSource::CompletePairs => "complete pairs",
            DesignSource::BoseSteiner => "Bose Steiner triple system",
            DesignSource::StinsonSteiner => "Stinson Steiner triple system",
            DesignSource::AffinePlane => "affine plane",
            DesignSource::ProjectivePlane => "projective plane",
            DesignSource::BalancedFallback => "balanced-partition fallback",
        };
        f.write_str(s)
    }
}

/// Balance statistics of a design: replication counts and pair
/// co-occurrence multiplicities. For an exact BIBD the replication is the
/// same for all objects and `λ_min = λ_max`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DesignStats {
    /// Minimum number of sets any object occurs in.
    pub r_min: u32,
    /// Maximum number of sets any object occurs in.
    pub r_max: u32,
    /// Minimum pair co-occurrence count over all object pairs.
    pub lambda_min: u32,
    /// Maximum pair co-occurrence count over all object pairs.
    pub lambda_max: u32,
}

impl DesignStats {
    /// `true` when every object occurs in the same number of sets — the
    /// precondition for building a parity group table.
    #[must_use]
    pub fn equal_replication(&self) -> bool {
        self.r_min == self.r_max
    }

    /// `true` when the design satisfies the exact BIBD pair axiom with
    /// `λ = lambda_max = lambda_min`.
    #[must_use]
    pub fn exact_lambda(&self) -> bool {
        self.lambda_min == self.lambda_max
    }
}

/// A family of sets (the BIBD's "blocks"; the paper calls them *sets* to
/// avoid clashing with disk blocks, and so do we) over objects
/// `0..v`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Design {
    /// Number of objects (disks) `v`.
    pub v: u32,
    /// Set size `k` (the parity group size `p`).
    pub k: u32,
    /// The sets; each inner vector is sorted and has length `k` (the
    /// fallback construction may produce a few shorter sets when `k ∤ v`,
    /// see [`Design::min_set_len`]).
    pub sets: Vec<Vec<u32>>,
    /// Construction provenance.
    pub source: DesignSource,
}

impl Design {
    /// Builds a design after normalizing (sorting) each set and validating
    /// membership bounds.
    ///
    /// # Panics
    ///
    /// Panics if a set references an object `>= v`, contains duplicates,
    /// has fewer than 2 or more than `k` members, or `v == 0`. These are
    /// programmer errors in a construction, not runtime conditions.
    #[must_use]
    pub fn new(v: u32, k: u32, mut sets: Vec<Vec<u32>>, source: DesignSource) -> Self {
        assert!(v >= 2, "need at least two objects");
        assert!((2..=v).contains(&k), "need 2 <= k <= v");
        for set in &mut sets {
            set.sort_unstable();
            assert!(set.len() >= 2, "sets must have at least 2 members");
            assert!(set.len() <= k as usize, "sets must have at most k members");
            assert!(set.windows(2).all(|w| w[0] < w[1]), "duplicate member in set");
            assert!(set.last().is_some_and(|&m| m < v), "member out of range");
        }
        Design { v, k, sets, source }
    }

    /// Number of sets `s`.
    #[must_use]
    pub fn num_sets(&self) -> usize {
        self.sets.len()
    }

    /// Length of the shortest set (equal to `k` for every exact
    /// construction; possibly smaller for the fallback when `k ∤ v`).
    #[must_use]
    pub fn min_set_len(&self) -> usize {
        self.sets.iter().map(Vec::len).min().unwrap_or(0)
    }

    /// The ideal replication `r = λ(v−1)/(k−1)` for λ = 1, rounded up —
    /// what an exact design would give.
    #[must_use]
    pub fn ideal_replication(v: u32, k: u32) -> u32 {
        (v - 1).div_ceil(k - 1)
    }

    /// Does an exact `λ = 1` BIBD's arithmetic work out for `(v, k)`?
    /// Necessary (not sufficient) conditions: `(k−1) | (v−1)` and
    /// `k(k−1) | v(v−1)`.
    #[must_use]
    pub fn lambda1_admissible(v: u32, k: u32) -> bool {
        let v = u64::from(v);
        let k = u64::from(k);
        (v - 1) % (k - 1) == 0 && (v * (v - 1)) % (k * (k - 1)) == 0
    }

    /// Computes replication and pair-multiplicity statistics.
    #[must_use]
    pub fn stats(&self) -> DesignStats {
        let v = self.v as usize;
        let mut repl = vec![0u32; v];
        let mut pairs = vec![0u32; v * v];
        for set in &self.sets {
            for (a_pos, &a) in set.iter().enumerate() {
                repl[a as usize] += 1;
                for &b in &set[a_pos + 1..] {
                    pairs[a as usize * v + b as usize] += 1;
                }
            }
        }
        // `Design::new` guarantees v >= 2, so neither fallback is taken.
        let (r_min, r_max) =
            (repl.iter().copied().min().unwrap_or(0), repl.iter().copied().max().unwrap_or(0));
        let mut lambda_min = u32::MAX;
        let mut lambda_max = 0;
        for a in 0..v {
            for b in (a + 1)..v {
                let l = pairs[a * v + b];
                lambda_min = lambda_min.min(l);
                lambda_max = lambda_max.max(l);
            }
        }
        DesignStats { r_min, r_max, lambda_min, lambda_max }
    }

    /// Pair co-occurrence count for a specific pair of objects.
    #[must_use]
    pub fn lambda_of(&self, a: u32, b: u32) -> u32 {
        self.sets
            .iter()
            .filter(|s| s.binary_search(&a).is_ok() && s.binary_search(&b).is_ok())
            .count() as u32
    }

    /// Full BIBD verification for given `λ`: every set has exactly `k`
    /// members, every object occurs in exactly `r = λ(v−1)/(k−1)` sets,
    /// every pair occurs in exactly `λ` sets, and `s·k = v·r`.
    #[must_use]
    pub fn is_exact_bibd(&self, lambda: u32) -> bool {
        if self.sets.iter().any(|s| s.len() != self.k as usize) {
            return false;
        }
        if !(self.v - 1).is_multiple_of(self.k - 1) {
            return false;
        }
        let r = lambda * (self.v - 1) / (self.k - 1);
        let stats = self.stats();
        stats.r_min == r
            && stats.r_max == r
            && stats.lambda_min == lambda
            && stats.lambda_max == lambda
            && self.num_sets() as u64 * u64::from(self.k) == u64::from(self.v) * u64::from(r)
    }

    /// The sets containing object `obj`, as indices into [`Design::sets`],
    /// by a scan of every set: one PGT column. [`crate::Pgt::new`] fills
    /// all columns in one pass instead; its tests check it against this.
    #[must_use]
    pub fn sets_containing(&self, obj: u32) -> Vec<usize> {
        self.sets
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.binary_search(&obj).is_ok().then_some(i))
            .collect()
    }
}

impl fmt::Display for Design {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.stats();
        write!(
            f,
            "design v={} k={} s={} r={}..{} λ={}..{} [{}]",
            self.v,
            self.k,
            self.num_sets(),
            st.r_min,
            st.r_max,
            st.lambda_min,
            st.lambda_max,
            self.source
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Example 1: the Fano-plane-like (7, 3, 1) design.
    pub(crate) fn example1() -> Design {
        Design::new(
            7,
            3,
            vec![
                vec![0, 1, 3],
                vec![1, 2, 4],
                vec![2, 3, 5],
                vec![3, 4, 6],
                vec![4, 5, 0],
                vec![5, 6, 1],
                vec![6, 0, 2],
            ],
            DesignSource::ProjectivePlane,
        )
    }

    #[test]
    fn example1_is_exact_7_3_1() {
        let d = example1();
        assert!(d.is_exact_bibd(1));
        let st = d.stats();
        assert_eq!(st.r_min, 3);
        assert_eq!(st.r_max, 3);
        assert_eq!(st.lambda_min, 1);
        assert_eq!(st.lambda_max, 1);
        assert_eq!(d.num_sets(), 7);
    }

    #[test]
    fn example1_counting_identities() {
        // r(k−1) = λ(v−1) → 3·2 = 1·6; s·k = v·r → 7·3 = 7·3.
        let d = example1();
        assert_eq!(3 * (d.k - 1), d.v - 1);
        assert_eq!(d.num_sets() as u32 * d.k, d.v * 3);
    }

    #[test]
    fn lambda_of_specific_pairs() {
        let d = example1();
        assert_eq!(d.lambda_of(0, 1), 1);
        assert_eq!(d.lambda_of(3, 4), 1);
        assert_eq!(d.lambda_of(0, 5), 1);
    }

    #[test]
    fn sets_containing_matches_paper_pgt_columns() {
        let d = example1();
        // Column 0 of the paper's PGT: S0, S4, S6.
        assert_eq!(d.sets_containing(0), vec![0, 4, 6]);
        // Column 3: S0, S2, S3.
        assert_eq!(d.sets_containing(3), vec![0, 2, 3]);
    }

    #[test]
    fn broken_designs_fail_verification() {
        // Drop one set: replication becomes unequal.
        let mut d = example1();
        d.sets.pop();
        assert!(!d.is_exact_bibd(1));
        assert!(!d.stats().equal_replication());
    }

    #[test]
    fn lambda1_admissibility_arithmetic() {
        assert!(Design::lambda1_admissible(7, 3));
        assert!(Design::lambda1_admissible(9, 3));
        assert!(Design::lambda1_admissible(13, 4));
        assert!(Design::lambda1_admissible(16, 4)); // affine plane AG(2,4)
        assert!(!Design::lambda1_admissible(32, 4)); // 31 not divisible by 3
        assert!(!Design::lambda1_admissible(32, 8));
        assert!(!Design::lambda1_admissible(32, 16));
        assert!(Design::lambda1_admissible(32, 2)); // pairs always work
    }

    #[test]
    fn ideal_replication_rounds_up() {
        assert_eq!(Design::ideal_replication(7, 3), 3);
        assert_eq!(Design::ideal_replication(32, 4), 11); // ceil(31/3)
        assert_eq!(Design::ideal_replication(32, 8), 5); // ceil(31/7)
        assert_eq!(Design::ideal_replication(32, 16), 3); // ceil(31/15)
        assert_eq!(Design::ideal_replication(32, 32), 1);
    }

    #[test]
    #[should_panic(expected = "member out of range")]
    fn out_of_range_member_panics() {
        let _ = Design::new(4, 2, vec![vec![0, 7]], DesignSource::CompletePairs);
    }

    #[test]
    #[should_panic(expected = "duplicate member")]
    fn duplicate_member_panics() {
        let _ = Design::new(4, 3, vec![vec![1, 1, 2]], DesignSource::Trivial);
    }

    #[test]
    fn display_summarizes() {
        let s = example1().to_string();
        assert!(s.contains("v=7"), "{s}");
        assert!(s.contains("λ=1..1"), "{s}");
    }
}
