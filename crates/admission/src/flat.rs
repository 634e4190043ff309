//! Admission for pre-fetching with uniform flat parity placement (§6.2).
//!
//! All disks hold data *and* parity, so failure-mode parity reads land on
//! data disks and contingency bandwidth `f` must be reserved on each. The
//! §6.2 conditions:
//!
//! * **(a)** the number of clips fetching from a disk in any round never
//!   exceeds `q − f`;
//! * **(b)** the number of clips on a disk whose current group's parity
//!   block lives on one common disk never exceeds `f` (blocks
//!   `i` and `i + j·(d−(p−1))` of a disk share a parity disk, so these
//!   collisions persist).
//!
//! A clip fetches its whole group — `p−1` blocks on `p−1` consecutive
//! disks — every `p−1` rounds (staggered-group optimization), so loads
//! are windows of width `p−1` sliding rigidly around the ring: admission
//! evaluates both conditions for the candidate's fetch cadence over all
//! disks, using the closed-form Figure 3 parity-disk formula.
//!
//! For configurations where `p−1 ∤ d` (including the paper's own d = 32
//! sweep) group windows wrap the ring and parity classes drift by ±1 row
//! over very long horizons; the simulator's per-round deadline accounting
//! absorbs this (failure reads may be scheduled anywhere inside the
//! buffered `p−1`-round window), so condition (b) at admission time
//! remains the binding check.

use crate::traits::{Admission, AdmitRequest};
use cms_core::{CmsError, DiskId, RequestId};
use std::collections::BTreeMap;

/// One admitted clip's geometry.
#[derive(Debug, Clone, Copy)]
struct Active {
    /// Fetch cadence: `t_adm mod (p−1)`.
    cadence: u32,
    /// Stream index of the clip's first block.
    s0: u64,
    /// Admission round.
    t_adm: u64,
}

/// Admission controller for [`cms_core::Scheme::PrefetchFlat`].
#[derive(Debug, Clone)]
pub struct FlatAdmission {
    d: u32,
    p: u32,
    q: u32,
    f: u32,
    t: u64,
    active: BTreeMap<RequestId, Active>,
    /// Scratch for [`Self::decide`]: for each disk the candidate covers,
    /// the cadence-mates fetching from it and how many of those share
    /// the candidate's parity disk. Sized `p − 1` once, so deciding
    /// allocates nothing.
    tally: Vec<(u32, u32)>,
}

impl FlatAdmission {
    /// Creates a controller for `d` disks, parity group size `p`, round
    /// budget `q` and contingency `f`.
    ///
    /// # Errors
    ///
    /// [`CmsError::InvalidParams`] unless `2 ≤ p ≤ d`, `p − 1 < d`,
    /// `1 ≤ f < q`.
    pub fn new(d: u32, p: u32, q: u32, f: u32) -> Result<Self, CmsError> {
        if p < 2 || p > d {
            return Err(CmsError::invalid_params("need 2 <= p <= d and p−1 < d"));
        }
        if f == 0 || f >= q {
            return Err(CmsError::invalid_params("need 1 <= f < q"));
        }
        let tally = vec![(0, 0); (p - 1) as usize];
        Ok(FlatAdmission { d, p, q, f, t: 0, active: BTreeMap::new(), tally })
    }

    /// Per-disk clip capacity after the reserve (`q − f`).
    #[must_use]
    pub fn per_disk_capacity(&self) -> u32 {
        self.q - self.f
    }

    /// The contingency reservation `f`.
    #[must_use]
    pub fn contingency(&self) -> u32 {
        self.f
    }

    /// The group a clip fetches in its cycle at/after round `t`:
    /// start stream-index of that group.
    fn current_group_start(&self, a: &Active, t: u64) -> u64 {
        let span = u64::from(self.p - 1);
        let cycles = (t - a.t_adm) / span;
        a.s0 + cycles * span
    }

    /// First disk of a group starting at stream index `start`, plus its
    /// parity disk per Figure 3. The group covers the `p−1` consecutive
    /// disks [`Self::covered`] lists.
    fn group_geometry(&self, start: u64) -> (u32, u32) {
        let d = u64::from(self.d);
        let span = u64::from(self.p - 1);
        let last = start + span - 1;
        let last_disk = (last % d) as u32;
        let j = last / d;
        let m = u64::from(self.d - (self.p - 1));
        let parity = ((u64::from(last_disk) + 1 + (j % m)) % d) as u32;
        ((start % d) as u32, parity)
    }

    /// The disks a group whose first disk is `first` covers, in order:
    /// `(first + k) mod d` for `k < p − 1`.
    fn covered(&self, first: u32) -> impl Iterator<Item = u32> {
        let d = u64::from(self.d);
        (0..u64::from(self.p - 1)).map(move |k| ((u64::from(first) + k) % d) as u32)
    }

    /// Does the group whose first disk is `first` cover disk `x`?
    fn covers(&self, first: u32, x: u32) -> bool {
        let d = u64::from(self.d);
        (u64::from(x) + d - u64::from(first)) % d < u64::from(self.p - 1)
    }

    /// Evaluates conditions (a) and (b) for the *candidate's* increments
    /// only: per-disk fetch counts on the disks it covers, and the
    /// (data-disk, parity-disk) pairs it adds. (Checking unrelated
    /// pairs here would let slow parity-class drift of long-running
    /// clips block every admission — the candidate can only be charged
    /// for load it adds.)
    ///
    /// # Errors
    ///
    /// [`CmsError::InvalidParams`] if the candidate does not start on a
    /// group boundary (a multiple of `p − 1`): any other start names a
    /// group the layout does not have. Otherwise
    /// [`CmsError::AdmissionRejected`] naming the binding condition.
    // lint: hot
    fn decide(&self, candidate: &Active, tally: &mut [(u32, u32)]) -> Result<(), CmsError> {
        let span = u64::from(self.p - 1);
        if !candidate.s0.is_multiple_of(span) {
            return Err(CmsError::invalid_params(format!(
                "start index {} is not a multiple of p − 1 = {span}",
                candidate.s0
            )));
        }
        let (first, cand_parity) = {
            let start = self.current_group_start(candidate, self.t);
            self.group_geometry(start)
        };
        tally.fill((0, 0));
        for a in self.active.values() {
            if a.cadence != candidate.cadence {
                continue;
            }
            let start = self.current_group_start(a, self.t.max(a.t_adm));
            let (a_first, parity) = self.group_geometry(start);
            for (x, (load, shared)) in self.covered(first).zip(tally.iter_mut()) {
                if self.covers(a_first, x) {
                    *load += 1;
                    *shared += u32::from(parity == cand_parity);
                }
            }
        }
        let cap = self.per_disk_capacity();
        let tallied = || self.covered(first).zip(tally.iter());
        if let Some((x, &(load, _))) = tallied().find(|&(_, &(load, _))| load >= cap) {
            return Err(CmsError::rejected("disk", x, load + 1, "capacity q − f", cap));
        }
        if let Some((x, &(_, shared))) = tallied().find(|&(_, &(_, shared))| shared >= self.f) {
            let f = self.f;
            return Err(CmsError::rejected("disk", x, shared + 1, "parity-sharing limit f", f));
        }
        Ok(())
    }
}

impl Admission for FlatAdmission {
    fn try_admit(&mut self, req: AdmitRequest) -> Result<(), CmsError> {
        let candidate = Active {
            cadence: (self.t % u64::from(self.p - 1)) as u32,
            s0: req.start_index,
            t_adm: self.t,
        };
        let mut tally = std::mem::take(&mut self.tally);
        let verdict = self.decide(&candidate, &mut tally);
        self.tally = tally;
        verdict?;
        self.active.insert(req.id, candidate);
        Ok(())
    }

    fn remove(&mut self, id: RequestId) {
        self.active.remove(&id);
    }

    fn advance_round(&mut self) {
        self.t += 1;
    }

    fn active(&self) -> usize {
        self.active.len()
    }

    fn worst_case_load(&self, disk: DiskId) -> u32 {
        // Normal fetch load at this round's cadence plus the worst
        // single-failure parity load: max over failed disks x of the
        // number of cadence-mates covering x with parity here.
        let cadence = (self.t % u64::from(self.p - 1)) as u32;
        let mut normal = 0u32;
        let mut parity_from: BTreeMap<u32, u32> = BTreeMap::new();
        for a in self.active.values() {
            if a.cadence != cadence {
                continue;
            }
            let start = self.current_group_start(a, self.t);
            let (first, parity) = self.group_geometry(start);
            if self.covers(first, disk.raw()) {
                normal += 1;
            }
            if parity == disk.raw() {
                for x in self.covered(first) {
                    *parity_from.entry(x).or_insert(0) += 1;
                }
            }
        }
        normal + parity_from.values().copied().max().unwrap_or(0)
    }

    fn nominal_capacity(&self) -> u64 {
        // Condition (a): q − f clips per disk at each of the p−1 fetch
        // cadences, every clip occupying p−1 disks per fetch — the
        // per-disk cap times d over one whole cadence cycle.
        u64::from(self.d) * u64::from(self.per_disk_capacity())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cms_core::RequestId;
    use proptest::prelude::*;

    /// The allocating `decide` the tally replaced, kept as the reference
    /// the equivalence proptest below holds it to: per-disk counts over
    /// the whole array and a list of covered disks per cadence-mate.
    fn reference_decide(c: &FlatAdmission, candidate: &Active) -> Result<(), CmsError> {
        let geometry = |start: u64| {
            let d = u64::from(c.d);
            let span = u64::from(c.p - 1);
            let covered: Vec<u32> = (0..span).map(|k| ((start + k) % d) as u32).collect();
            let last = start + span - 1;
            let last_disk = (last % d) as u32;
            let j = last / d;
            let m = u64::from(c.d - (c.p - 1));
            let parity = ((u64::from(last_disk) + 1 + (j % m)) % d) as u32;
            (covered, parity)
        };
        let span = u64::from(c.p - 1);
        if !candidate.s0.is_multiple_of(span) {
            return Err(CmsError::invalid_params(format!(
                "start index {} is not a multiple of p − 1 = {span}",
                candidate.s0
            )));
        }
        let (cand_covered, cand_parity) = geometry(c.current_group_start(candidate, c.t));
        let mut per_disk = vec![0u32; c.d as usize];
        let mut pair_count = vec![0u32; cand_covered.len()];
        for a in c.active.values() {
            if a.cadence != candidate.cadence {
                continue;
            }
            let (covered, parity) = geometry(c.current_group_start(a, c.t.max(a.t_adm)));
            for &x in &covered {
                per_disk[x as usize] += 1;
                if parity == cand_parity {
                    if let Some(pos) = cand_covered.iter().position(|&c| c == x) {
                        pair_count[pos] += 1;
                    }
                }
            }
        }
        let cap = c.per_disk_capacity();
        if let Some(&x) = cand_covered.iter().find(|&&x| per_disk[x as usize] >= cap) {
            let clips = per_disk[x as usize] + 1;
            return Err(CmsError::rejected("disk", x, clips, "capacity q − f", cap));
        }
        if let Some(pos) = pair_count.iter().position(|&n| n >= c.f) {
            let (disk, clips) = (cand_covered[pos], pair_count[pos] + 1);
            return Err(CmsError::rejected("disk", disk, clips, "parity-sharing limit f", c.f));
        }
        Ok(())
    }

    /// One step of a random admission script.
    #[derive(Debug, Clone)]
    enum Op {
        /// Request a clip starting at group `group` (one block past it
        /// when `misaligned`).
        Admit {
            group: u64,
            misaligned: bool,
        },
        /// Remove the `n`-th admitted clip still active (mod their count).
        Remove(usize),
        Advance,
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            6 => (0u64..96, 0u32..8).prop_map(|(group, m)| Op::Admit { group, misaligned: m == 0 }),
            2 => (0usize..64).prop_map(Op::Remove),
            2 => Just(Op::Advance),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Every decision, admission or refusal, matches the reference
        /// verdict and its `Rejection` reason exactly.
        #[test]
        fn decide_matches_the_allocating_reference(
            d in 3u32..40,
            p in 2u32..12,
            q in 2u32..8,
            f in 1u32..4,
            ops in proptest::collection::vec(op(), 1..160),
        ) {
            prop_assume!(p <= d && f < q);
            let mut c = FlatAdmission::new(d, p, q, f).unwrap();
            let span = u64::from(p - 1);
            let mut live: Vec<RequestId> = Vec::new();
            for (id, op) in ops.into_iter().enumerate() {
                match op {
                    Op::Admit { group, misaligned } => {
                        let s0 = group * span + u64::from(misaligned);
                        let candidate = Active {
                            cadence: (c.t % span) as u32,
                            s0,
                            t_adm: c.t,
                        };
                        let want = reference_decide(&c, &candidate);
                        let mut tally = vec![(7, 7); span as usize];
                        prop_assert_eq!(&c.decide(&candidate, &mut tally), &want);
                        let got = c.try_admit(req(id as u64, s0));
                        prop_assert_eq!(&got, &want);
                        if got.is_ok() {
                            live.push(RequestId(id as u64));
                        }
                    }
                    Op::Remove(n) => {
                        if !live.is_empty() {
                            c.remove(live.remove(n % live.len()));
                        }
                    }
                    Op::Advance => c.advance_round(),
                }
            }
        }
    }

    fn req(id: u64, index: u64) -> AdmitRequest {
        AdmitRequest {
            id: RequestId(id),
            stream: 0,
            start_index: index,
            start_disk: DiskId((index % 9) as u32),
            row: 0,
            len: 50,
        }
    }

    /// Figure 3 geometry: d = 9, p = 4.
    fn controller(q: u32, f: u32) -> FlatAdmission {
        FlatAdmission::new(9, 4, q, f).unwrap()
    }

    #[test]
    fn geometry_matches_figure3() {
        let c = controller(5, 1);
        // Group of D0..D2: disks 0..2, parity on disk 3.
        let (first, parity) = c.group_geometry(0);
        assert!(c.covered(first).eq([0, 1, 2]));
        assert_eq!(parity, 3);
        // Group of D9..D11 (row 1 of cluster 0): parity disk 4.
        let (first, parity) = c.group_geometry(9);
        assert!(c.covered(first).eq([0, 1, 2]));
        assert_eq!(parity, 4);
        // Group of D30..D32 wraps the d = 32 ring: disks 30, 31, 0.
        let wrap = FlatAdmission::new(32, 4, 5, 1).unwrap();
        let (first, _) = wrap.group_geometry(30);
        assert!(wrap.covered(first).eq([30, 31, 0]));
        assert!(wrap.covers(first, 0) && !wrap.covers(first, 1) && !wrap.covers(first, 29));
        // Group of D33..D35: parity disk 3 (the paper's P11).
        let (_, parity) = c.group_geometry(33);
        assert_eq!(parity, 3);
    }

    #[test]
    fn condition_a_caps_per_disk_fetches() {
        let mut c = controller(3, 1); // capacity q − f = 2 per disk
        // Same disks (0..2), different rows → different parity disks, so
        // only condition (a) is in play.
        assert!(c.try_admit(req(1, 0)).is_ok());
        assert!(c.try_admit(req(2, 9)).is_ok());
        // A third clip covering disks 0..2 in the same cadence: rejected.
        assert!(c.try_admit(req(3, 18)).is_err());
        // Disjoint disks (3..5): fine.
        assert!(c.try_admit(req(4, 3)).is_ok());
    }

    #[test]
    fn condition_a_caps_windows_that_straddle() {
        // d = 32, p = 4: p − 1 ∤ d, so aligned windows wrap the ring and
        // overlap in part. Two clips load disks 0..2 from different rows
        // (parity disks 3 and 6), so only condition (a) is in play.
        let mut c = FlatAdmission::new(32, 4, 3, 1).unwrap(); // q − f = 2
        assert!(c.try_admit(req(1, 0)).is_ok());
        assert!(c.try_admit(req(2, 96)).is_ok());
        // Index 30 covers disks 30, 31 and 0: disk 0 is full.
        let err = c.try_admit(req(3, 30)).unwrap_err();
        assert!(err.to_string().contains("disk 0 would serve 3 clips"), "{err}");
        // Index 27 covers disks 27..29: fine.
        assert!(c.try_admit(req(4, 27)).is_ok());
    }

    #[test]
    fn misaligned_starts_are_invalid() {
        // A group starts at a multiple of p − 1 = 3; any other start
        // index names a group that does not exist.
        let mut c = controller(5, 1);
        for index in [1u64, 2, 4, 10] {
            let err = c.try_admit(req(1, index));
            assert!(matches!(err, Err(CmsError::InvalidParams { .. })), "{err:?}");
        }
        assert_eq!(c.active(), 0);
        assert!(c.try_admit(req(1, 3)).is_ok());
    }

    #[test]
    fn condition_b_caps_shared_parity() {
        // q large so only (b) binds; f = 1.
        let mut c = controller(10, 1);
        // Two clips on the same disks with the same parity disk (same
        // group geometry): second must be rejected by (b).
        assert!(c.try_admit(req(1, 0)).is_ok());
        let err = c.try_admit(req(2, 0)).unwrap_err();
        assert!(err.to_string().contains("parity"), "{err}");
        // Same disks but different row → different parity disk: allowed.
        assert!(c.try_admit(req(3, 9)).is_ok());
    }

    #[test]
    fn different_cadences_do_not_collide() {
        let mut c = controller(3, 1);
        c.try_admit(req(1, 0)).unwrap();
        c.try_admit(req(2, 9)).unwrap();
        assert!(c.try_admit(req(3, 18)).is_err());
        // Next round is a different fetch cadence: same disks are free.
        c.advance_round();
        assert!(c.try_admit(req(3, 0)).is_ok());
        assert!(c.try_admit(req(4, 9)).is_ok());
        assert!(c.try_admit(req(5, 18)).is_err());
    }

    #[test]
    fn windows_advance_with_fetch_cycles() {
        let mut c = controller(4, 2); // capacity q − f = 2
        c.try_admit(req(1, 0)).unwrap(); // covers 0..2 this cycle
        // After p−1 = 3 rounds, the clip's group is D3..D5 → disks 3..5
        // (cadence 3 mod 3 = 0, same as admission).
        for _ in 0..3 {
            c.advance_round();
        }
        c.try_admit(req(2, 3)).unwrap(); // also covers 3..5 now
        assert!(
            c.try_admit(req(3, 3)).is_err(),
            "disks 3..5 must now be at capacity"
        );
        // Old window 0..2 is free again.
        assert!(c.try_admit(req(4, 0)).is_ok());
    }

    #[test]
    fn removal_frees_both_conditions() {
        let mut c = controller(3, 1);
        c.try_admit(req(1, 0)).unwrap();
        assert!(c.try_admit(req(2, 0)).is_err()); // (b)
        c.remove(RequestId(1));
        assert!(c.try_admit(req(2, 0)).is_ok());
    }

    #[test]
    fn worst_case_load_within_q() {
        let mut c = controller(4, 2);
        for (id, s0) in [(1u64, 0u64), (2, 9), (3, 3), (4, 12)] {
            c.try_admit(req(id, s0)).unwrap();
        }
        for disk in 0..9 {
            assert!(
                c.worst_case_load(DiskId(disk)) <= c.q,
                "disk {disk}: {} > q",
                c.worst_case_load(DiskId(disk))
            );
        }
    }

    #[test]
    fn constructor_validates() {
        assert!(FlatAdmission::new(9, 1, 5, 1).is_err());
        assert!(FlatAdmission::new(9, 10, 5, 1).is_err());
        assert!(FlatAdmission::new(3, 4, 5, 1).is_err());
        assert!(FlatAdmission::new(9, 4, 5, 0).is_err());
        assert!(FlatAdmission::new(9, 4, 5, 5).is_err());
    }

    #[test]
    fn wraparound_configuration_works() {
        // d = 32, p = 4: the paper's own sweep point where p−1 ∤ d.
        let mut c = FlatAdmission::new(32, 4, 6, 1).unwrap();
        for i in 0..20u64 {
            // Spread starts widely; all should fit under q − f = 5.
            assert!(c.try_admit(req(i, i * 3)).is_ok(), "clip {i}");
        }
        for disk in 0..32 {
            assert!(c.worst_case_load(DiskId(disk)) <= 6);
        }
    }
}
