//! Dynamic-reservation admission (Section 5.2).
//!
//! Instead of a fixed per-disk reserve, contingency follows each clip:
//! while a clip of super-clip `SC_l` reads a block from disk `j`,
//! contingency for one block is held on every disk `(j + δ) mod d` for
//! `δ ∈ Δ_l` — the union of column offsets at which row `l`'s sets recur
//! in the PGT. Those are precisely the disks holding the rest of the
//! block's parity group, so if `j` fails, the reads needed to reconstruct
//! are already paid for.
//!
//! Admission condition (§5.2): for every disk `i`,
//!
//! ```text
//! served(i) + max_{j, l} cont_i(j, l) ≤ q
//! ```
//!
//! where `cont_i(j, l)` counts clips of super-clip `l` on disk `j` holding
//! contingency on `i`. The `max` is what makes the scheme *dynamic*: a
//! failure is one disk, so only the worst single `(j, l)` source of
//! reconstruction ever materializes on `i` at once per row — unused
//! contingency overlaps instead of accumulating.

use crate::traits::{disk_at, phase_of, Admission, AdmitRequest};
use cms_core::{CmsError, DiskId, RequestId};
use std::collections::BTreeMap;

/// Admission controller for [`cms_core::Scheme::DynamicReservation`].
#[derive(Debug, Clone)]
pub struct DynamicAdmission {
    d: u32,
    q: u32,
    /// `deltas[l]` = the Δ-offset union for super-clip row `l`
    /// ([`cms_bibd::Pgt::row_deltas`]).
    deltas: Vec<Vec<u32>>,
    t: u64,
    /// `count[l][phase]` = active clips of stream `l` at that phase.
    count: Vec<Vec<u32>>,
    active: BTreeMap<RequestId, (u32, u32)>, // id → (stream, phase)
}

impl DynamicAdmission {
    /// Creates a controller for `d` disks with round budget `q` and the
    /// per-row Δ-offset sets (one entry per PGT row / super-clip).
    ///
    /// # Errors
    ///
    /// Returns [`CmsError::InvalidParams`] for an empty array, empty row
    /// set, zero budget, or offsets outside `1..d`.
    pub fn new(d: u32, q: u32, deltas: Vec<Vec<u32>>) -> Result<Self, CmsError> {
        if d == 0 || q == 0 || deltas.is_empty() {
            return Err(CmsError::invalid_params("need d, q >= 1 and at least one row"));
        }
        for (l, row) in deltas.iter().enumerate() {
            if row.iter().any(|&x| x == 0 || x >= d) {
                return Err(CmsError::invalid_params(format!(
                    "row {l} has a Δ-offset outside 1..{d}"
                )));
            }
        }
        let rows = deltas.len();
        Ok(DynamicAdmission {
            d,
            q,
            deltas,
            t: 0,
            count: vec![vec![0; d as usize]; rows],
            active: BTreeMap::new(),
        })
    }

    /// Number of super-clip rows.
    #[must_use]
    pub fn rows(&self) -> u32 {
        self.deltas.len() as u32
    }

    /// Clips currently served by disk `i` (all streams).
    fn served(&self, disk: u32) -> u32 {
        let phase = (u64::from(disk) + u64::from(self.d) - self.t % u64::from(self.d))
            % u64::from(self.d);
        self.count.iter().map(|per_phase| per_phase[phase as usize]).sum()
    }

    /// The worst contingency that can materialize on disk `i`: the
    /// maximum over possible failed disks `j` of `Σ_l cont_i(j, l)`.
    ///
    /// The paper's §5.2 condition takes `max_{j,l} cont_i(j,l)` — for
    /// λ = 1 designs a failed disk `j` shares a set with `i` in at most
    /// one row, so the single largest `(j, l)` term *is* the failure
    /// load. For the balanced-fallback designs (λ_max > 1) several rows
    /// of the same failed disk can hit `i` at once, so we sum over rows
    /// per candidate failure and maximize over failures — exact for any
    /// λ, and identical to the paper's condition when λ = 1.
    fn max_cont(&self, disk: u32) -> u32 {
        self.max_cont_plus(disk, None)
    }

    /// [`Self::max_cont`] with an optional hypothetical extra clip of
    /// `(stream, phase)` counted in — the admission precondition can then
    /// be evaluated without mutating the count tables.
    fn max_cont_plus(&self, disk: u32, extra: Option<(usize, u32)>) -> u32 {
        let mut worst = 0;
        for j in 0..self.d {
            if j == disk {
                continue;
            }
            let delta = (disk + self.d - j) % self.d;
            let phase = (u64::from(j) + u64::from(self.d) - self.t % u64::from(self.d))
                % u64::from(self.d);
            let mut from_j = 0;
            for (l, offsets) in self.deltas.iter().enumerate() {
                if offsets.binary_search(&delta).is_ok() {
                    from_j += self.count[l][phase as usize]
                        + u32::from(extra == Some((l, phase as u32)));
                }
            }
            worst = worst.max(from_j);
        }
        worst
    }
}

impl Admission for DynamicAdmission {
    fn try_admit(&mut self, req: AdmitRequest) -> Result<(), CmsError> {
        let stream = req.stream as usize;
        if stream >= self.deltas.len() {
            return Err(CmsError::invalid_params(format!(
                "stream {} out of range (rows = {})",
                req.stream,
                self.deltas.len()
            )));
        }
        let phase = phase_of(req.start_disk.raw(), self.t, self.d);
        // Evaluate the global condition on every disk with the candidate
        // counted in, without tentative mutation. O(d·Σ|Δ|); cheaper than
        // special-casing which disks the new clip touches.
        let new_disk = disk_at(phase, self.t, self.d);
        for i in 0..self.d {
            let served = self.served(i) + u32::from(i == new_disk);
            let load = served + self.max_cont_plus(i, Some((stream, phase)));
            if load > self.q {
                return Err(CmsError::rejected("disk", i, load, "q counting contingency", self.q));
            }
        }
        self.count[stream][phase as usize] += 1;
        self.active.insert(req.id, (req.stream, phase));
        Ok(())
    }

    fn remove(&mut self, id: RequestId) {
        if let Some((stream, phase)) = self.active.remove(&id) {
            self.count[stream as usize][phase as usize] -= 1;
        }
    }

    fn advance_round(&mut self) {
        self.t += 1;
    }

    fn active(&self) -> usize {
        self.active.len()
    }

    fn worst_case_load(&self, disk: DiskId) -> u32 {
        self.served(disk.raw()) + self.max_cont(disk.raw())
    }

    fn nominal_capacity(&self) -> u64 {
        // Contingency follows the clips, so once anything is active every
        // disk withholds at least one block for the worst failure source:
        // d × (q − 1) bounds the admissible set from above.
        u64::from(self.d) * u64::from(self.q.saturating_sub(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cms_bibd::{Design, DesignSource, Pgt};
    use cms_core::RequestId;

    /// Δ-offsets from the paper's Example 1 PGT.
    fn paper_deltas() -> Vec<Vec<u32>> {
        let pgt = Pgt::new(&Design::new(
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
        ));
        (0..pgt.rows()).map(|row| pgt.row_deltas(row)).collect()
    }

    fn req(id: u64, stream: u32, disk: u32) -> AdmitRequest {
        AdmitRequest {
            id: RequestId(id),
            stream,
            start_index: 0,
            start_disk: DiskId(disk),
            row: stream,
            len: 50,
        }
    }

    #[test]
    fn admits_within_budget() {
        let mut c = DynamicAdmission::new(7, 5, paper_deltas()).unwrap();
        for i in 0..7u64 {
            assert!(c.try_admit(req(i, 0, (i % 7) as u32)).is_ok(), "clip {i}");
        }
        assert_eq!(c.active(), 7);
        for disk in 0..7 {
            assert!(c.worst_case_load(DiskId(disk)) <= 5);
        }
    }

    #[test]
    fn rejects_when_contingency_would_overflow() {
        // q = 2: one clip per disk is fine; stacking clips on one disk
        // pushes served + cont over budget quickly.
        let mut c = DynamicAdmission::new(7, 2, paper_deltas()).unwrap();
        assert!(c.try_admit(req(1, 0, 0)).is_ok());
        assert!(c.try_admit(req(2, 0, 0)).is_ok());
        // Third clip on the same (stream, disk): served(0) = 3 > q alone.
        assert!(c.try_admit(req(3, 0, 0)).is_err());
    }

    #[test]
    fn contingency_counts_against_other_disks() {
        // With q = 3, pile clips of stream 0 onto disk 0; their
        // contingency lands on the Δ₀ offsets of disk 0, limiting
        // admissions there even though those disks serve nothing yet.
        let deltas = paper_deltas();
        let delta0 = deltas[0][0];
        let mut c = DynamicAdmission::new(7, 3, deltas).unwrap();
        for i in 0..3u64 {
            assert!(c.try_admit(req(i, 0, 0)).is_ok());
        }
        // Disk (0 + δ) now holds cont = 3 = q; serving any clip there
        // would break the failure guarantee.
        let blocked = c.try_admit(req(10, 0, delta0));
        assert!(blocked.is_err(), "disk at Δ-offset must be saturated");
    }

    #[test]
    fn unlike_static_f_unloaded_system_admits_anywhere() {
        // The motivating scenario of §5: with static f, a (disk, row)
        // class can be full while the disk idles. Dynamic reservation has
        // no such class — a lightly loaded system admits everywhere.
        let mut c = DynamicAdmission::new(7, 6, paper_deltas()).unwrap();
        for stream in 0..3u32 {
            for disk in 0..7u32 {
                let id = u64::from(stream) * 100 + u64::from(disk);
                assert!(
                    c.try_admit(req(id, stream, disk)).is_ok(),
                    "stream {stream} disk {disk}"
                );
            }
        }
        assert_eq!(c.active(), 21);
    }

    #[test]
    fn removal_and_rotation() {
        let mut c = DynamicAdmission::new(7, 2, paper_deltas()).unwrap();
        c.try_admit(req(1, 0, 0)).unwrap();
        c.try_admit(req(2, 0, 0)).unwrap();
        assert!(c.try_admit(req(3, 0, 0)).is_err());
        c.advance_round();
        // The pair rotated to disk 1; disk 1 is now saturated, disk 0 has
        // room for exactly... clips whose contingency doesn't collide.
        assert!(c.try_admit(req(3, 0, 1)).is_err());
        c.remove(RequestId(1));
        assert!(c.try_admit(req(3, 0, 1)).is_ok());
    }

    #[test]
    fn constructor_validates() {
        assert!(DynamicAdmission::new(0, 2, paper_deltas()).is_err());
        assert!(DynamicAdmission::new(7, 0, paper_deltas()).is_err());
        assert!(DynamicAdmission::new(7, 2, vec![]).is_err());
        assert!(DynamicAdmission::new(7, 2, vec![vec![0]]).is_err()); // δ = 0
        assert!(DynamicAdmission::new(7, 2, vec![vec![7]]).is_err()); // δ = d
    }

    #[test]
    fn unknown_stream_is_invalid() {
        let mut c = DynamicAdmission::new(7, 2, paper_deltas()).unwrap();
        assert!(matches!(
            c.try_admit(req(1, 9, 0)),
            Err(CmsError::InvalidParams { .. })
        ));
    }
}
