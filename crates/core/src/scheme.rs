//! The taxonomy of fault-tolerance schemes studied by the paper.
//!
//! Two are the paper's contributions (declustered parity with static
//! contingency, and its dynamic-reservation refinement), two are the
//! pre-fetching variants of Section 6, and two are prior-art baselines the
//! evaluation compares against (streaming RAID and the non-clustered
//! scheme). Having the enum in `cms-core` lets layouts, admission
//! controllers, the analytical model and the bench harness all agree on
//! scheme identity without depending on each other.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A fault-tolerance scheme for the CM server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Scheme {
    /// §4: declustered parity (BIBD layout), static per-disk contingency
    /// bandwidth `f`; on failure the whole parity group is fetched.
    DeclusteredParity,
    /// §5: declustered parity with *dynamic* reservation — contingency
    /// follows each active clip across the disks of its parity groups.
    DynamicReservation,
    /// §6.1: pre-fetching with dedicated parity disks (clusters of `p`,
    /// one parity disk each); on failure only the parity block is read.
    PrefetchParityDisks,
    /// §6.2: pre-fetching with uniform, flat parity placement (clusters of
    /// `p−1` data disks, parity rotated over the following disks).
    PrefetchFlat,
    /// §7.3 baseline: streaming RAID (Tobagi et al. 1993) — whole parity
    /// group retrieved every round, cluster acts as one logical disk.
    StreamingRaid,
    /// §7.4 baseline: non-clustered scheme (Berson et al. 1995) — parity
    /// disks like §6.1 but double buffering only; on failure whole groups
    /// are read for the failed cluster, risking playback hiccups.
    NonClustered,
}

impl Scheme {
    /// All six schemes in the order the paper's figures list them.
    pub const ALL: [Scheme; 6] = [
        Scheme::StreamingRaid,
        Scheme::DeclusteredParity,
        Scheme::PrefetchFlat,
        Scheme::PrefetchParityDisks,
        Scheme::NonClustered,
        Scheme::DynamicReservation,
    ];

    /// The five schemes plotted in Figures 5 and 6 (dynamic reservation is
    /// evaluated separately in the paper's companion discussion; we bench
    /// it in the A1 ablation).
    pub const FIGURE_SCHEMES: [Scheme; 5] = [
        Scheme::StreamingRaid,
        Scheme::DeclusteredParity,
        Scheme::PrefetchFlat,
        Scheme::PrefetchParityDisks,
        Scheme::NonClustered,
    ];

    /// The label used in the paper's figure legends.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Scheme::DeclusteredParity => "Declustered parity",
            Scheme::DynamicReservation => "Dynamic reservation",
            Scheme::PrefetchParityDisks => "Pre-fetching with parity disk",
            Scheme::PrefetchFlat => "Pre-fetching without parity disk",
            Scheme::StreamingRaid => "Streaming RAID",
            Scheme::NonClustered => "Non-clustered",
        }
    }

    /// The short, stable, shell-friendly name of the scheme
    /// (`"declustered"`, `"prefetch-flat"`, …) that the CLI takes and the
    /// conformance repro headers record.
    #[must_use]
    pub fn token(self) -> &'static str {
        match self {
            Scheme::DeclusteredParity => "declustered",
            Scheme::DynamicReservation => "dynamic",
            Scheme::PrefetchParityDisks => "prefetch-parity",
            Scheme::PrefetchFlat => "prefetch-flat",
            Scheme::StreamingRaid => "streaming-raid",
            Scheme::NonClustered => "non-clustered",
        }
    }

    /// The scheme whose [`Scheme::token`] is `token`.
    #[must_use]
    pub fn from_token(token: &str) -> Option<Scheme> {
        Scheme::ALL.into_iter().find(|s| s.token() == token)
    }

    /// Does the scheme dedicate whole disks to parity (reducing the number
    /// of data-bearing disks to `d·(p−1)/p`)?
    #[must_use]
    pub fn uses_parity_disks(self) -> bool {
        matches!(
            self,
            Scheme::PrefetchParityDisks | Scheme::StreamingRaid | Scheme::NonClustered
        )
    }

    /// Whether the scheme needs the BIBD-based parity group table.
    #[must_use]
    pub fn needs_pgt(self) -> bool {
        matches!(self, Scheme::DeclusteredParity | Scheme::DynamicReservation)
    }
}

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn all_contains_six_distinct_schemes() {
        let set: BTreeSet<_> = Scheme::ALL.iter().collect();
        assert_eq!(set.len(), 6);
    }

    #[test]
    fn figure_schemes_excludes_dynamic() {
        assert!(!Scheme::FIGURE_SCHEMES.contains(&Scheme::DynamicReservation));
        assert_eq!(Scheme::FIGURE_SCHEMES.len(), 5);
    }

    #[test]
    fn labels_match_paper_legends() {
        assert_eq!(Scheme::StreamingRaid.label(), "Streaming RAID");
        assert_eq!(Scheme::DeclusteredParity.to_string(), "Declustered parity");
        assert_eq!(
            Scheme::PrefetchFlat.label(),
            "Pre-fetching without parity disk"
        );
    }

    #[test]
    fn classification_flags_are_consistent() {
        // Only the declustered family needs a PGT, and it dedicates no
        // disks to parity.
        for s in Scheme::ALL {
            assert!(!(s.needs_pgt() && s.uses_parity_disks()), "{s}");
        }
        assert!(Scheme::DeclusteredParity.needs_pgt());
        assert!(Scheme::DynamicReservation.needs_pgt());
        assert!(!Scheme::StreamingRaid.needs_pgt());
    }

    #[test]
    fn tokens_round_trip() {
        for s in Scheme::ALL {
            assert_eq!(Scheme::from_token(s.token()), Some(s));
        }
        assert_eq!(Scheme::from_token("raid0"), None);
    }

    #[test]
    fn serde_roundtrip() {
        for s in Scheme::ALL {
            let json = serde_json::to_string(&s).unwrap();
            let back: Scheme = serde_json::from_str(&json).unwrap();
            assert_eq!(back, s);
        }
    }
}
