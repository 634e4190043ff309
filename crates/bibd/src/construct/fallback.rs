//! Greedy balanced-partition fallback for `(v, k)` pairs with no exact
//! `λ = 1` design — including the paper's own evaluation points
//! `(32, 4)`, `(32, 8)` and `(32, 16)`.
//!
//! The construction produces `r = ⌈(v−1)/(k−1)⌉` *rows*, each row a
//! partition of the objects into groups of size at most `k` (and at least
//! `⌊v/⌈v/k⌉⌋`). Two properties of exact designs are preserved exactly:
//!
//! * every object occurs in exactly `r` sets (one per row) — required for
//!   the parity group table's rectangular shape, and
//! * every set lives entirely within one row — so the declustered
//!   layout's Property 2 (row-following of consecutive blocks) holds.
//!
//! The third property — every pair co-occurring in at most one set — is
//! approximated: rows are built greedily, always grouping objects that
//! have co-occurred least so far, which empirically keeps `λ_max` at 1–2
//! for the configurations of interest. Admission control reads the
//! achieved `λ_max` from [`crate::design::DesignStats`] and budgets for it
//! exactly, so a relaxed design degrades capacity slightly instead of
//! breaking guarantees.

use super::steiner::XorShift64;
use crate::design::{Design, DesignSource};

/// Builds the balanced-partition design.
///
/// # Panics
///
/// Panics if `k < 3` or `k > v` (use the exact pair design for `k = 2`;
/// the dispatcher does).
#[must_use]
pub fn balanced_partitions(v: u32, k: u32, seed: u64) -> Design {
    assert!(k >= 3, "use the exact complete-pairs design for k = 2");
    assert!(k <= v);
    let rows = Design::ideal_replication(v, k);
    // Counting lower bound on λ_max: each object has r(k−1)-ish
    // co-occurrence slots spread over v−1 partners.
    let counting_bound = (rows * (k - 1)).div_ceil(v - 1).max(1);
    // Pigeonhole bound: with g groups per row over r rows there are g^r
    // distinct side-signatures; if fewer than v, two objects share every
    // row and λ_max ≥ r (e.g. (32, 16): 2³ = 8 < 32 ⇒ λ ≥ 3).
    let groups_per_row_u64 = u64::from(v.div_ceil(k));
    let signatures = groups_per_row_u64
        .checked_pow(rows)
        .unwrap_or(u64::MAX);
    let pigeonhole_bound = if signatures < u64::from(v) { rows } else { 1 };
    let lower_bound = counting_bound.max(pigeonhole_bound);

    // Each attempt scores `(λ_max, Σ multiplicity²)`; the first attempt to
    // reach the lower bound wins, otherwise the best of 12.
    let score = |attempt: u64| {
        let d = balanced_partitions_once(v, k, seed.wrapping_add(attempt * 0x9E37_79B9));
        let st = d.stats();
        let sumsq: u64 = {
            let mut acc = 0u64;
            // recompute pair multiplicities for the tie-break metric
            let vs = v as usize;
            let mut pc = vec![0u32; vs * vs];
            for set in &d.sets {
                for (i, &a) in set.iter().enumerate() {
                    for &b in &set[i + 1..] {
                        pc[a as usize * vs + b as usize] += 1;
                    }
                }
            }
            for c in pc {
                acc += u64::from(c) * u64::from(c);
            }
            acc
        };
        (st.lambda_max, sumsq, d)
    };
    let mut best = score(0);
    for n in 1..12u64 {
        if best.0 <= lower_bound {
            break;
        }
        let next = score(n);
        if (next.0, next.1) < (best.0, best.1) {
            best = next;
        }
    }
    best.2
}

fn balanced_partitions_once(v: u32, k: u32, seed: u64) -> Design {
    let rows = Design::ideal_replication(v, k);
    let vs = v as usize;
    let mut rng = XorShift64::new(seed ^ 0xFA11_BACC);
    let mut paircount = vec![0u32; vs * vs];
    let mut row_groups: Vec<Vec<Vec<u32>>> = Vec::with_capacity(rows as usize);

    let groups_per_row = v.div_ceil(k);
    // Spread sizes evenly so no group drops below 2 members.
    let base = v / groups_per_row;
    let extra = v % groups_per_row; // this many groups get base+1
    debug_assert!(base >= 2, "balanced sizing must not create singleton groups");
    debug_assert!(extra == 0 || base < k);

    for _row in 0..rows {
        let mut unassigned: Vec<u32> = (0..v).collect();
        // Shuffle for tie-breaking diversity across rows.
        for i in (1..unassigned.len()).rev() {
            let j = rng.below(i as u32 + 1) as usize;
            unassigned.swap(i, j);
        }
        let mut groups: Vec<Vec<u32>> = Vec::with_capacity(groups_per_row as usize);
        for g in 0..groups_per_row {
            let size = if g < extra { base + 1 } else { base } as usize;
            let mut group: Vec<u32> = Vec::with_capacity(size);
            // Seed the group with the unassigned object that currently has
            // the highest co-occurrence pressure (hardest to place later),
            // then add the objects that co-occur least with the group.
            while group.len() < size {
                let pick = if group.is_empty() {
                    best_seed(&unassigned, &paircount, vs)
                } else {
                    best_addition(&unassigned, &group, &paircount, vs)
                };
                let Some(pos) = pick else { break };
                group.push(unassigned.swap_remove(pos));
            }
            // Commit pair counts.
            for (i, &a) in group.iter().enumerate() {
                for &b in &group[i + 1..] {
                    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                    paircount[lo as usize * vs + hi as usize] += 1;
                }
            }
            groups.push(group);
        }
        debug_assert!(unassigned.is_empty());
        row_groups.push(groups);
    }

    refine_by_swaps(&mut row_groups, &mut paircount, vs);
    let target = (rows * (k - 1)).div_ceil(v - 1).max(1);
    reduce_high_pairs(&mut row_groups, &mut paircount, vs, target, &mut rng);

    let sets = row_groups.into_iter().flatten().collect();
    Design::new(v, k, sets, DesignSource::BalancedFallback)
}

/// Second refinement stage: attack pairs whose multiplicity exceeds the
/// counting lower bound directly. For each over-covered pair, try swapping
/// one of its members against every member of the other groups in one of
/// the rows where they co-occur; accept a swap when it strictly reduces
/// `(number of pairs above target, Σ multiplicity²)` lexicographically.
fn reduce_high_pairs(
    row_groups: &mut [Vec<Vec<u32>>],
    paircount: &mut [u32],
    v: usize,
    target: u32,
    rng: &mut XorShift64,
) {
    let cell = |a: u32, b: u32| -> usize {
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        lo as usize * v + hi as usize
    };
    // Metric deltas of swapping x (in group A) and y (in group B): pairs
    // (x, m) m∈A\{x} and (y, n) n∈B\{y} drop by one; (y, m) and (x, n)
    // rise by one.
    let swap_metrics = |paircount: &[u32], x: u32, y: u32, ga: &[u32], gb: &[u32]| -> (i64, i64) {
        let mut d_high = 0i64;
        let mut d_sq = 0i64;
        let drop = |pc: &[u32], a: u32, b: u32, dh: &mut i64, ds: &mut i64| {
            let c = i64::from(pc[cell(a, b)]);
            if c > i64::from(target) && c - 1 <= i64::from(target) {
                *dh -= 1;
            }
            *ds += (c - 1) * (c - 1) - c * c;
        };
        let raise = |pc: &[u32], a: u32, b: u32, dh: &mut i64, ds: &mut i64| {
            let c = i64::from(pc[cell(a, b)]);
            if c + 1 > i64::from(target) && c <= i64::from(target) {
                *dh += 1;
            }
            *ds += (c + 1) * (c + 1) - c * c;
        };
        for &m in ga {
            if m != x {
                drop(paircount, x, m, &mut d_high, &mut d_sq);
                raise(paircount, y, m, &mut d_high, &mut d_sq);
            }
        }
        for &n in gb {
            if n != y {
                drop(paircount, y, n, &mut d_high, &mut d_sq);
                raise(paircount, x, n, &mut d_high, &mut d_sq);
            }
        }
        (d_high, d_sq)
    };
    let apply_swap = |paircount: &mut [u32], x: u32, y: u32, ga: &[u32], gb: &[u32]| {
        for &m in ga {
            if m != x {
                paircount[cell(x, m)] -= 1;
                paircount[cell(y, m)] += 1;
            }
        }
        for &n in gb {
            if n != y {
                paircount[cell(y, n)] -= 1;
                paircount[cell(x, n)] += 1;
            }
        }
    };

    'outer: for _iter in 0..4000 {
        // Find a pair above target, starting from a random offset so we
        // do not hammer the same pair forever.
        let offset = rng.next_u64() as usize % (v * v);
        let mut high: Option<(u32, u32)> = None;
        for scan in 0..v * v {
            let idx = (offset + scan) % (v * v);
            if paircount[idx] > target {
                high = Some(((idx / v) as u32, (idx % v) as u32));
                break;
            }
        }
        let Some((a, b)) = high else {
            break; // nothing above target: done
        };
        // Pick a random row where a and b share a group, and that group.
        let co_rows: Vec<(usize, usize)> = row_groups
            .iter()
            .enumerate()
            .filter_map(|(row, groups)| {
                groups.iter().position(|g| g.contains(&a) && g.contains(&b)).map(|ga| (row, ga))
            })
            .collect();
        if co_rows.is_empty() {
            continue;
        }
        let (row, ga_idx) = co_rows[rng.below(co_rows.len() as u32) as usize];
        let groups = &mut row_groups[row];
        // Try moving a (or b) into every other group of this row.
        for &victim in &[a, b] {
            let Some(xi) = groups[ga_idx].iter().position(|&m| m == victim) else { continue };
            for gb_idx in 0..groups.len() {
                if gb_idx == ga_idx {
                    continue;
                }
                for yi in 0..groups[gb_idx].len() {
                    let y = groups[gb_idx][yi];
                    let (d_high, d_sq) =
                        swap_metrics(paircount, victim, y, &groups[ga_idx], &groups[gb_idx]);
                    if d_high < 0 || (d_high == 0 && d_sq < 0) {
                        apply_swap(paircount, victim, y, &groups[ga_idx], &groups[gb_idx]);
                        groups[ga_idx][xi] = y;
                        groups[gb_idx][yi] = victim;
                        continue 'outer;
                    }
                }
            }
        }
    }
}

/// Local improvement: repeatedly swap a pair of objects between two groups
/// of the same row when the swap lowers the sum-of-squares of pair
/// multiplicities (which penalizes λ above 1 quadratically). Preserves the
/// partition structure of each row, hence replication stays exact.
fn refine_by_swaps(row_groups: &mut [Vec<Vec<u32>>], paircount: &mut [u32], v: usize) {
    let pc = |paircount: &[u32], a: u32, b: u32| -> i64 {
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        i64::from(paircount[lo as usize * v + hi as usize])
    };
    // Cost delta of removing (x, partner) pairs and adding (y, partner):
    // Σ((c−1)² − c²) + Σ((c'+1)² − c'²) = Σ(1 − 2c) + Σ(2c' + 1).
    let swap_delta = |paircount: &[u32], x: u32, y: u32, ga: &[u32], gb: &[u32]| -> i64 {
        let mut delta = 0i64;
        for &m in ga {
            if m != x {
                delta += 1 - 2 * pc(paircount, x, m); // remove (x, m)
                delta += 2 * pc(paircount, y, m) + 1; // add (y, m)
            }
        }
        for &m in gb {
            if m != y {
                delta += 1 - 2 * pc(paircount, y, m);
                delta += 2 * pc(paircount, x, m) + 1;
            }
        }
        delta
    };
    let apply = |paircount: &mut [u32], x: u32, sign_remove: bool, group: &[u32], skip: u32| {
        for &m in group {
            if m != skip {
                let (lo, hi) = if x < m { (x, m) } else { (m, x) };
                let cell = &mut paircount[lo as usize * v + hi as usize];
                if sign_remove {
                    *cell -= 1;
                } else {
                    *cell += 1;
                }
            }
        }
    };

    for _pass in 0..64 {
        let mut improved = false;
        for groups in row_groups.iter_mut() {
            for ga_idx in 0..groups.len() {
                for gb_idx in (ga_idx + 1)..groups.len() {
                    let mut xi = 0;
                    while xi < groups[ga_idx].len() {
                        let mut yi = 0;
                        let mut swapped = false;
                        while yi < groups[gb_idx].len() {
                            let x = groups[ga_idx][xi];
                            let y = groups[gb_idx][yi];
                            if swap_delta(paircount, x, y, &groups[ga_idx], &groups[gb_idx]) < 0 {
                                // Un-count x's and y's pairs, swap, re-count.
                                apply(paircount, x, true, &groups[ga_idx], x);
                                apply(paircount, y, true, &groups[gb_idx], y);
                                groups[ga_idx][xi] = y;
                                groups[gb_idx][yi] = x;
                                apply(paircount, y, false, &groups[ga_idx], y);
                                apply(paircount, x, false, &groups[gb_idx], x);
                                improved = true;
                                swapped = true;
                                break;
                            }
                            yi += 1;
                        }
                        if !swapped {
                            xi += 1;
                        }
                    }
                }
            }
        }
        if !improved {
            break;
        }
    }
}

/// Index of the unassigned object with the largest accumulated pair count
/// (it constrains future choices most, so place it first); `None` when
/// none is left.
fn best_seed(unassigned: &[u32], paircount: &[u32], v: usize) -> Option<usize> {
    let weight = |x: u32| -> u64 {
        (0..v as u32)
            .map(|y| {
                let (lo, hi) = if x < y { (x, y) } else { (y, x) };
                u64::from(paircount[lo as usize * v + hi as usize])
            })
            .sum()
    };
    unassigned
        .iter()
        .enumerate()
        .max_by_key(|&(_, &x)| weight(x))
        .map(|(i, _)| i)
}

/// Index of the unassigned object with the least co-occurrence with the
/// current group (ties broken by the earlier position, which is already
/// shuffled); `None` when none is left.
fn best_addition(unassigned: &[u32], group: &[u32], paircount: &[u32], v: usize) -> Option<usize> {
    let cost = |x: u32| -> (u32, u32) {
        let mut sum = 0;
        let mut max = 0;
        for &g in group {
            let (lo, hi) = if x < g { (x, g) } else { (g, x) };
            let c = paircount[lo as usize * v + hi as usize];
            sum += c;
            max = max.max(c);
        }
        (max, sum) // minimize the worst pair first, then the total
    };
    unassigned
        .iter()
        .enumerate()
        .min_by_key(|&(_, &x)| cost(x))
        .map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configurations_have_equal_replication() {
        for (v, k) in [(32u32, 4u32), (32, 8), (32, 16)] {
            let d = balanced_partitions(v, k, 1);
            let st = d.stats();
            assert!(st.equal_replication(), "(v={v}, k={k}): {st:?}");
            assert_eq!(st.r_min, Design::ideal_replication(v, k));
        }
    }

    #[test]
    fn rows_partition_the_objects() {
        let (v, k) = (32u32, 8u32);
        let d = balanced_partitions(v, k, 3);
        let groups_per_row = v.div_ceil(k) as usize;
        for row in d.sets.chunks(groups_per_row) {
            let mut seen = vec![false; v as usize];
            for set in row {
                for &x in set {
                    assert!(!seen[x as usize], "row repeats object {x}");
                    seen[x as usize] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "row must cover all objects");
        }
    }

    #[test]
    fn lambda_stays_small_for_paper_configs() {
        // The whole point of declustering: pair multiplicity near 1. The
        // counting lower bound is ceil(r(k−1)/(v−1)); the greedy + swap
        // optimizer is allowed one above it.
        for (v, k) in [(32u32, 4u32), (32, 8), (32, 16)] {
            let d = balanced_partitions(v, k, 1);
            let st = d.stats();
            let r = Design::ideal_replication(v, k);
            let bound = (r * (k - 1)).div_ceil(v - 1).max(1) + 1;
            assert!(
                st.lambda_max <= bound,
                "(v={v}, k={k}) λ_max = {} > {bound}",
                st.lambda_max
            );
        }
    }

    #[test]
    fn group_sizes_are_bounded() {
        let d = balanced_partitions(30, 7, 5); // 7 ∤ 30: uneven sizes
        for set in &d.sets {
            assert!(set.len() >= 2);
            assert!(set.len() <= 7);
        }
        assert!(d.stats().equal_replication());
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(balanced_partitions(32, 8, 9), balanced_partitions(32, 8, 9));
        assert_ne!(balanced_partitions(32, 8, 9), balanced_partitions(32, 8, 10));
    }

    #[test]
    fn works_for_odd_awkward_sizes() {
        for (v, k) in [(10u32, 3u32), (11, 4), (17, 5), (23, 7), (32, 31)] {
            let d = balanced_partitions(v, k, 2);
            assert!(d.stats().equal_replication(), "(v={v},k={k})");
        }
    }

    #[test]
    #[should_panic(expected = "complete-pairs")]
    fn k2_is_rejected() {
        let _ = balanced_partitions(9, 2, 0);
    }
}
