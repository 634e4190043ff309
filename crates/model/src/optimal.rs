//! The paper's Figure 4: `computeOptimal` — choosing the parity group
//! size `p`, block size `b` and contingency `f` that maximize the number
//! of concurrently serviceable clips.

use crate::capacity::{
    capacity, capacity_with_lambda, capacity_with_redundancy, CapacityPoint, ModelInput,
};
use cms_bibd::{best_design, Design, DesignRequest};
use cms_core::{CmsError, Scheme};

/// The storage-driven lower bound on the parity group size: only
/// `(p−1)/p` of the array holds data, so storing `storage_bytes` of clips
/// on `d` disks of capacity `cd` requires
/// `p ≥ d·C_d / (d·C_d − S)` (Section 7).
///
/// Returns `None` when the clips do not fit even without parity.
#[must_use]
pub fn p_min(d: u32, cd: u64, storage_bytes: u64) -> Option<u32> {
    let total = u64::from(d) * cd;
    if storage_bytes >= total {
        return None;
    }
    let free = total - storage_bytes;
    // ceil(total / free), clamped to at least 2 (a parity group needs a
    // data and a parity block).
    Some((total.div_ceil(free) as u32).max(2))
}

/// Figure 4's `computeOptimal`: sweeps `p` from `p_min` to `d` and returns
/// the capacity-maximizing point for `scheme`. `exact_designs_only`
/// reproduces the paper's "if a BIBD exists" guard for the declustered
/// family (skipping `p` values with no exact λ = 1 design); with it off,
/// the balanced fallback makes every `p` admissible.
///
/// # Errors
///
/// Returns [`CmsError::InfeasibleConfig`] when no `p` in range yields a
/// feasible configuration.
pub fn compute_optimal(
    scheme: Scheme,
    input: &ModelInput,
    p_lower: u32,
    exact_designs_only: bool,
) -> Result<CapacityPoint, CmsError> {
    let mut best: Option<CapacityPoint> = None;
    for p in p_lower.max(2)..=input.d {
        if scheme.needs_pgt() && exact_designs_only && !Design::lambda1_admissible(input.d, p) {
            continue;
        }
        let Ok(point) = capacity(scheme, input, p) else {
            continue;
        };
        if best.is_none_or(|b| point.total_clips > b.total_clips) {
            best = Some(point);
        }
    }
    best.ok_or_else(|| CmsError::InfeasibleConfig {
        reason: format!("{scheme}: no feasible p in {}..={}", p_lower.max(2), input.d),
    })
}

/// Solves the capacity point a *simulated/deployed* server should use for
/// `(scheme, p)`: for the declustered family it first constructs the
/// actual design (seeded) and feeds its achieved pair multiplicity
/// `λ_max` into the capacity math, so the chosen `(q, f, b)` are exactly
/// honorable by admission control. Other schemes are unaffected.
///
/// # Errors
///
/// Propagates [`capacity_with_lambda`]'s errors; additionally returns
/// [`CmsError::DesignUnavailable`] when no design exists for `(d, p)`.
pub fn tuned_point(
    scheme: Scheme,
    input: &ModelInput,
    p: u32,
    seed: u64,
) -> Result<CapacityPoint, CmsError> {
    let lambda = if scheme.needs_pgt() {
        best_design(DesignRequest { v: input.d, k: p, allow_fallback: true, seed })
            .ok_or_else(|| CmsError::DesignUnavailable {
                reason: format!("no design for (d = {}, p = {p})", input.d),
            })?
            .stats()
            .lambda_max
    } else {
        1
    };
    capacity_with_lambda(scheme, input, p, lambda)
}

/// [`tuned_point`] with `m` Reed–Solomon redundancy shards per group.
/// `m = 1` defers to [`tuned_point`] exactly; `m >= 2` is defined only
/// for the clustered parity-disk schemes (which have no PGT, so the λ
/// tuning is moot and [`capacity_with_redundancy`] applies directly).
///
/// # Errors
///
/// As for [`tuned_point`] and [`capacity_with_redundancy`].
pub fn tuned_point_with_redundancy(
    scheme: Scheme,
    input: &ModelInput,
    p: u32,
    m: u32,
    seed: u64,
) -> Result<CapacityPoint, CmsError> {
    if m == 1 {
        return tuned_point(scheme, input, p, seed);
    }
    capacity_with_redundancy(scheme, input, p, m)
}

/// `tuned_point` maximized over `p` (the deployable analogue of
/// [`compute_optimal`]); the `m = 1` case of
/// [`tuned_optimal_with_redundancy`].
///
/// # Errors
///
/// Returns [`CmsError::InfeasibleConfig`] when no `p` is feasible.
pub fn tuned_optimal(
    scheme: Scheme,
    input: &ModelInput,
    seed: u64,
) -> Result<CapacityPoint, CmsError> {
    tuned_optimal_with_redundancy(scheme, input, 1, seed)
}

/// [`tuned_point_with_redundancy`] maximized over `p` at `m` redundancy
/// shards per group.
///
/// # Errors
///
/// Returns [`CmsError::InfeasibleConfig`] when no `p` is feasible.
pub fn tuned_optimal_with_redundancy(
    scheme: Scheme,
    input: &ModelInput,
    m: u32,
    seed: u64,
) -> Result<CapacityPoint, CmsError> {
    let mut best: Option<CapacityPoint> = None;
    for p in 2..=input.d {
        let Ok(point) = tuned_point_with_redundancy(scheme, input, p, m, seed) else { continue };
        if best.is_none_or(|b| point.total_clips > b.total_clips) {
            best = Some(point);
        }
    }
    best.ok_or_else(|| {
        let at_m = if m == 1 { String::new() } else { format!(" at m = {m}") };
        CmsError::InfeasibleConfig {
            reason: format!("{scheme}: no feasible p in 2..={}{at_m}", input.d),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cms_core::units::{gib, mib};

    #[test]
    fn p_min_matches_formula() {
        // d·C_d = 64 GB. Storing 32 GB leaves half free → p ≥ 2.
        assert_eq!(p_min(32, gib(2), gib(32)), Some(2));
        // Storing 48 GB leaves a quarter free → p ≥ 4.
        assert_eq!(p_min(32, gib(2), gib(48)), Some(4));
        // Storing 62 GB leaves 2 GB free → p ≥ 32.
        assert_eq!(p_min(32, gib(2), gib(62)), Some(32));
        // Does not fit.
        assert_eq!(p_min(32, gib(2), gib(64)), None);
        assert_eq!(p_min(32, gib(2), gib(65)), None);
        // Tiny library: clamped to 2.
        assert_eq!(p_min(32, gib(2), gib(1)), Some(2));
    }

    #[test]
    fn optimal_beats_or_matches_every_single_point() {
        let input = ModelInput::sigmod96(mib(256));
        for scheme in Scheme::FIGURE_SCHEMES {
            let best = compute_optimal(scheme, &input, 2, false).unwrap();
            for p in [2u32, 4, 8, 16, 32] {
                if let Ok(pt) = capacity(scheme, &input, p) {
                    assert!(
                        best.total_clips >= pt.total_clips,
                        "{scheme}: optimal {} < point p={p} {}",
                        best.total_clips,
                        pt.total_clips
                    );
                }
            }
        }
    }

    #[test]
    fn exact_guard_restricts_declustered_choices() {
        let input = ModelInput::sigmod96(mib(256));
        let exact = compute_optimal(Scheme::DeclusteredParity, &input, 2, true).unwrap();
        // Only p = 2 and p = 32 admit exact designs at d = 32; the guard
        // must pick one of them.
        assert!(
            exact.p == 2 || exact.p == 32,
            "exact-only optimal picked p = {}",
            exact.p
        );
        let relaxed = compute_optimal(Scheme::DeclusteredParity, &input, 2, false).unwrap();
        assert!(relaxed.total_clips >= exact.total_clips);
    }

    #[test]
    fn p_lower_bound_is_respected() {
        let input = ModelInput::sigmod96(gib(2));
        let best = compute_optimal(Scheme::StreamingRaid, &input, 8, false).unwrap();
        assert!(best.p >= 8);
    }

    #[test]
    fn tuned_point_respects_achieved_lambda() {
        let input = ModelInput::sigmod96(mib(256));
        let paper = capacity(Scheme::DeclusteredParity, &input, 8).unwrap();
        let tuned = tuned_point(Scheme::DeclusteredParity, &input, 8, 1).unwrap();
        assert!(tuned.total_clips <= paper.total_clips);
        // λ = 1 exists at p = 2: identical results.
        let a = capacity(Scheme::DeclusteredParity, &input, 2).unwrap();
        let b = tuned_point(Scheme::DeclusteredParity, &input, 2, 1).unwrap();
        assert_eq!(a.total_clips, b.total_clips);
    }

    #[test]
    fn tuned_optimal_picks_best_p() {
        let input = ModelInput::sigmod96(mib(256));
        for scheme in Scheme::ALL {
            let best = tuned_optimal(scheme, &input, 1).unwrap();
            assert!(best.total_clips > 0, "{scheme}");
        }
        // m = 2 is defined only for the clustered parity-disk schemes.
        for scheme in Scheme::ALL {
            let Ok(best) = tuned_optimal_with_redundancy(scheme, &input, 2, 1) else {
                assert!(
                    !matches!(scheme, Scheme::PrefetchParityDisks | Scheme::StreamingRaid),
                    "{scheme}"
                );
                continue;
            };
            assert_eq!(best.m, 2);
            for p in 2..=input.d {
                if let Ok(pt) = tuned_point_with_redundancy(scheme, &input, p, 2, 1) {
                    assert!(best.total_clips >= pt.total_clips, "{scheme}: p = {p}");
                }
            }
        }
    }

    #[test]
    fn infeasible_range_errors() {
        let mut input = ModelInput::sigmod96(mib(256));
        input.buffer_bytes = 1024; // can't buffer anything
        assert!(compute_optimal(Scheme::DeclusteredParity, &input, 2, false).is_err());
    }
}
