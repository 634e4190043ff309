//! Static-contingency admission for the declustered parity scheme
//! (Section 4.2).
//!
//! Contingency bandwidth for `f` blocks is reserved on every disk,
//! permanently. Admission then only needs the two conditions of §4.2:
//!
//! * **(a)** the number of clips serviced at a disk never exceeds
//!   `q − λ_max·f` (the paper's `q − f`; `λ_max = 1` for exact designs —
//!   for the balanced-fallback designs the worst-case reconstruction
//!   overlap between two disks is `λ_max` rows, so the reserve scales),
//! * **(b)** the number of clips retrieving blocks mapped to the same PGT
//!   row from one disk never exceeds `f`.
//!
//! Property 1 (any two sets in a PGT column share only that column's
//! disk) then bounds the failure-induced extra load on any disk by
//! `λ_max·f`, and Property 2 (row-following) keeps both conditions
//! invariant as service lists rotate — so checking at admission time
//! suffices.
//!
//! Both conditions are evaluated in O(1) from two count tables keyed by
//! *time-invariant* clip classes. A clip admitted on disk `s` at round
//! `t_adm` occupies ring phase `(s − t_adm) mod d` forever, and its PGT
//! row at round `t` is `(base + ⌊(phase + t)/d⌋) mod r` for the constant
//! `base = (row₀ − ⌊(phase + t_adm)/d⌋) mod r` — rows advance once per
//! ring wrap (Property 2), and `⌊(phase + t)/d⌋` counts exactly the wraps
//! a phase-`phase` clip has seen by round `t`, up to the per-clip constant
//! folded into `base`. So `(phase, base)` classifies clips once at
//! admission, and the per-disk / per-(disk, row) loads of any future round
//! are single table cells.

use crate::traits::{phase_of, Admission, AdmitRequest};
use cms_core::{CmsError, DiskId, RequestId};
use std::collections::BTreeMap;

/// Admission controller for [`cms_core::Scheme::DeclusteredParity`].
#[derive(Debug, Clone)]
pub struct DeclusteredAdmission {
    d: u32,
    r: u32,
    q: u32,
    f: u32,
    lambda_max: u32,
    t: u64,
    /// Active clips per ring phase (condition (a), indexed by `phase`).
    by_phase: Vec<u32>,
    /// Active clips per `(phase, base)` row class (condition (b),
    /// indexed by `phase·r + base`).
    by_phase_base: Vec<u32>,
    /// id → `(phase, base)`, for removal.
    active: BTreeMap<RequestId, (u32, u32)>,
}

impl DeclusteredAdmission {
    /// Creates a controller for a `d`-disk array with `r` PGT rows,
    /// per-round budget `q`, contingency `f`, and the design's pair
    /// multiplicity `λ_max` (1 for exact BIBDs).
    ///
    /// # Errors
    ///
    /// Returns [`CmsError::InvalidParams`] unless
    /// `1 ≤ λ_max·f < q` (there must be room for at least one clip after
    /// the reserve) and `d, r ≥ 1`.
    pub fn new(d: u32, r: u32, q: u32, f: u32, lambda_max: u32) -> Result<Self, CmsError> {
        if d == 0 || r == 0 {
            return Err(CmsError::invalid_params("need d >= 1 and r >= 1"));
        }
        if f == 0 || lambda_max == 0 {
            return Err(CmsError::invalid_params("need f >= 1 and λ_max >= 1"));
        }
        if lambda_max * f >= q {
            return Err(CmsError::invalid_params(format!(
                "reserve λ_max·f = {} leaves no room under q = {q}",
                lambda_max * f
            )));
        }
        Ok(DeclusteredAdmission {
            d,
            r,
            q,
            f,
            lambda_max,
            t: 0,
            by_phase: vec![0; d as usize],
            by_phase_base: vec![0; d as usize * r as usize],
            active: BTreeMap::new(),
        })
    }

    /// Per-disk clip capacity after the contingency reserve
    /// (`q − λ_max·f`).
    #[must_use]
    pub fn per_disk_capacity(&self) -> u32 {
        self.q - self.lambda_max * self.f
    }

    /// The contingency reservation `f`.
    #[must_use]
    pub fn contingency(&self) -> u32 {
        self.f
    }

    /// Time-invariant row class of a clip at `phase` whose PGT row is
    /// `row` at round `t`: rows advance once per ring wrap, so the row at
    /// any round `t'` is `(base + ⌊(phase + t')/d⌋) mod r` for this base.
    fn base_of(&self, phase: u32, row: u32, t: u64) -> u32 {
        let shift = ((u64::from(phase) + t) / u64::from(self.d)) % u64::from(self.r);
        ((u64::from(row) + u64::from(self.r) - shift) % u64::from(self.r)) as u32
    }
}

impl Admission for DeclusteredAdmission {
    fn try_admit(&mut self, req: AdmitRequest) -> Result<(), CmsError> {
        if req.row >= self.r {
            return Err(CmsError::invalid_params(format!(
                "row {} out of range (r = {})",
                req.row, self.r
            )));
        }
        let disk = req.start_disk.raw();
        let phase = phase_of(disk, self.t, self.d);
        let base = self.base_of(phase, req.row, self.t);
        let class = phase as usize * self.r as usize + base as usize;
        let total = self.by_phase[phase as usize];
        if total >= self.per_disk_capacity() {
            let cap = self.per_disk_capacity();
            return Err(CmsError::rejected("disk", disk, total + 1, "capacity q − λf", cap));
        }
        let same_row = self.by_phase_base[class];
        if same_row >= self.f {
            return Err(CmsError::rejected("disk", disk, same_row + 1, "same-row limit f", self.f));
        }
        self.by_phase[phase as usize] += 1;
        self.by_phase_base[class] += 1;
        self.active.insert(req.id, (phase, base));
        Ok(())
    }

    fn remove(&mut self, id: RequestId) {
        if let Some((phase, base)) = self.active.remove(&id) {
            self.by_phase[phase as usize] -= 1;
            self.by_phase_base[phase as usize * self.r as usize + base as usize] -= 1;
        }
    }

    fn advance_round(&mut self) {
        self.t += 1;
    }

    fn active(&self) -> usize {
        self.active.len()
    }

    fn worst_case_load(&self, disk: DiskId) -> u32 {
        // Normal service plus the static reserve the conditions protect:
        // at most f blocks per shared row, at most λ_max shared rows with
        // any failed disk.
        self.by_phase[phase_of(disk.raw(), self.t, self.d) as usize] + self.lambda_max * self.f
    }

    fn nominal_capacity(&self) -> u64 {
        // Per disk, condition (a) caps clips at q − λ_max·f and condition
        // (b) at f per row — whichever binds first.
        let per_disk = self.per_disk_capacity().min(self.r * self.f);
        u64::from(self.d) * u64::from(per_disk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cms_core::RequestId;

    fn req(id: u64, disk: u32, row: u32) -> AdmitRequest {
        AdmitRequest {
            id: RequestId(id),
            stream: 0,
            start_index: 0,
            start_disk: DiskId(disk),
            row,
            len: 50,
        }
    }

    fn controller() -> DeclusteredAdmission {
        // d = 7, r = 3, q = 10, f = 2, λ = 1 → capacity 8 per disk,
        // 2 per (disk, row).
        DeclusteredAdmission::new(7, 3, 10, 2, 1).unwrap()
    }

    #[test]
    fn admits_until_row_limit() {
        let mut c = controller();
        assert!(c.try_admit(req(1, 0, 0)).is_ok());
        assert!(c.try_admit(req(2, 0, 0)).is_ok());
        // Third clip on (disk 0, row 0) exceeds f = 2.
        let err = c.try_admit(req(3, 0, 0)).unwrap_err();
        assert!(matches!(err, CmsError::AdmissionRejected { .. }));
        // ... but another row on the same disk is fine.
        assert!(c.try_admit(req(3, 0, 1)).is_ok());
    }

    #[test]
    fn admits_until_disk_capacity() {
        let mut c = controller();
        // Fill disk 0: rows 0,0,1,1,2,2 = 6 clips, then 2 more must fail
        // row-wise; capacity (8) is not yet the binding constraint.
        for (i, row) in [0u32, 0, 1, 1, 2, 2].iter().enumerate() {
            assert!(c.try_admit(req(i as u64, 0, *row)).is_ok(), "clip {i}");
        }
        assert!(c.try_admit(req(10, 0, 0)).is_err());
        assert_eq!(c.active(), 6);
        // r·f = 6 < q − f: the row constraint binds first, exactly the
        // effect computeOptimal's `r·f ≥ q − f` loop guards against.
    }

    #[test]
    fn rotation_keeps_relative_loads() {
        let mut c = controller();
        c.try_admit(req(1, 0, 0)).unwrap();
        c.try_admit(req(2, 0, 0)).unwrap();
        // After any number of rounds the pair still blocks a same-row
        // arrival on whatever disk they rotated to.
        for _ in 0..10 {
            c.advance_round();
        }
        // They are now on disk (0 + 10) mod 7 = 3; rows advanced by
        // wraps: (0 + 10)/7 = 1 wrap → row 1.
        let err = c.try_admit(req(3, 3, 1)).unwrap_err();
        assert!(matches!(err, CmsError::AdmissionRejected { .. }));
        // Row 0 on disk 3 is free.
        assert!(c.try_admit(req(4, 3, 0)).is_ok());
    }

    #[test]
    fn removal_frees_capacity() {
        let mut c = controller();
        c.try_admit(req(1, 2, 1)).unwrap();
        c.try_admit(req(2, 2, 1)).unwrap();
        assert!(c.try_admit(req(3, 2, 1)).is_err());
        c.remove(RequestId(1));
        assert!(c.try_admit(req(3, 2, 1)).is_ok());
        c.remove(RequestId(99)); // unknown id ignored
        assert_eq!(c.active(), 2);
    }

    #[test]
    fn worst_case_load_bounded_by_q() {
        let mut c = controller();
        for (i, row) in [0u32, 0, 1, 1, 2, 2].iter().enumerate() {
            c.try_admit(req(i as u64, 0, *row)).unwrap();
        }
        for disk in 0..7 {
            assert!(
                c.worst_case_load(DiskId(disk)) <= c.q,
                "disk {disk} worst case exceeds q"
            );
        }
    }

    #[test]
    fn lambda_scaling_shrinks_capacity() {
        let exact = DeclusteredAdmission::new(32, 5, 20, 2, 1).unwrap();
        let relaxed = DeclusteredAdmission::new(32, 5, 20, 2, 3).unwrap();
        assert_eq!(exact.per_disk_capacity(), 18);
        assert_eq!(relaxed.per_disk_capacity(), 14);
    }

    #[test]
    fn constructor_validates() {
        assert!(DeclusteredAdmission::new(0, 3, 10, 1, 1).is_err());
        assert!(DeclusteredAdmission::new(7, 0, 10, 1, 1).is_err());
        assert!(DeclusteredAdmission::new(7, 3, 10, 0, 1).is_err());
        assert!(DeclusteredAdmission::new(7, 3, 10, 10, 1).is_err()); // f >= q
        assert!(DeclusteredAdmission::new(7, 3, 10, 4, 3).is_err()); // λf >= q
    }

    #[test]
    fn different_disks_are_independent() {
        let mut c = controller();
        for disk in 0..7u32 {
            for i in 0..2u64 {
                assert!(c.try_admit(req(u64::from(disk) * 10 + i, disk, 0)).is_ok());
            }
        }
        assert_eq!(c.active(), 14);
    }

    #[test]
    fn row_out_of_range_is_invalid_params() {
        let mut c = controller();
        assert!(matches!(
            c.try_admit(req(1, 0, 5)),
            Err(CmsError::InvalidParams { .. })
        ));
    }
}
