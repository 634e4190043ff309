//! The [`Admission`] trait shared by all six controllers.

use cms_core::{CmsError, DiskId, RequestId};

/// Everything a controller needs to know about a playback request at
/// admission time. Fields irrelevant to a scheme are simply ignored by
/// its controller (e.g. `row` outside the declustered family).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmitRequest {
    /// The playback request id (unique per client request).
    pub id: RequestId,
    /// The stream (super-clip) holding the clip; 0 outside the dynamic
    /// scheme.
    pub stream: u32,
    /// Stream index of the clip's first block.
    pub start_index: u64,
    /// Disk holding the clip's first block — the paper's `disk(C)`.
    pub start_disk: DiskId,
    /// PGT row of the clip's first block — the paper's `row(C)` (the
    /// declustered family; 0 elsewhere).
    pub row: u32,
    /// Clip length in blocks.
    pub len: u64,
}

/// A scheme-specific admission controller.
///
/// Lifecycle: the simulator calls [`Admission::try_admit`] when a request
/// reaches the head of the pending list, [`Admission::advance_round`] once
/// per round, and [`Admission::remove`] when playback completes. The
/// controller's internal clock must match the simulator's round counter.
pub trait Admission {
    /// Attempts to admit a request at the current round.
    ///
    /// # Errors
    ///
    /// Returns [`CmsError::AdmissionRejected`] naming the binding
    /// condition and its numbers; building it allocates nothing, because
    /// the simulator retries the pending queue every round and refusals
    /// dominate under load. Rejection is never permanent — the request
    /// stays in the pending list and is retried as clips complete.
    fn try_admit(&mut self, req: AdmitRequest) -> Result<(), CmsError>;

    /// Removes a completed (or cancelled) request. Unknown ids are
    /// ignored.
    fn remove(&mut self, id: RequestId);

    /// Advances the controller's round clock by one.
    fn advance_round(&mut self);

    /// Number of requests currently admitted.
    fn active(&self) -> usize;

    /// The worst-case number of blocks `disk` may have to retrieve in the
    /// *current* round, maximized over all possible single-disk failures.
    /// The crate's property tests check it never exceeds the round
    /// budget `q`.
    fn worst_case_load(&self, disk: DiskId) -> u32;

    /// Fault-free array-wide stream capacity: the number of concurrently
    /// active clips this controller will admit with every disk healthy
    /// (an upper bound where the exact count depends on request mix).
    /// Degraded-mode admission scales this by the surviving-disk
    /// fraction to cap the active set while the array is down a disk.
    fn nominal_capacity(&self) -> u64;
}

/// Shared phase arithmetic: a clip admitted at round `t_adm` starting on
/// disk `s` of a `d`-disk ring occupies *phase* `(s − t_adm) mod d`; at
/// round `t` it reads from disk `(phase + t) mod d`. Clips with equal
/// phase share a disk in every round — the invariant all the controllers'
/// admission-time checks rest on.
#[must_use]
pub fn phase_of(start_disk: u32, t_adm: u64, d: u32) -> u32 {
    let t = (t_adm % u64::from(d)) as u32;
    (start_disk + d - t) % d
}

/// Disk occupied at round `t` by a clip of `phase` on a `d`-ring.
#[must_use]
pub fn disk_at(phase: u32, t: u64, d: u32) -> u32 {
    ((u64::from(phase) + t) % u64::from(d)) as u32
}

/// Number of ring wraps a clip starting on disk `s` at `t_adm` has
/// completed by round `t` (each wrap advances its PGT row by one).
#[must_use]
pub fn wraps_since(start_disk: u32, t_adm: u64, t: u64, d: u32) -> u64 {
    debug_assert!(t >= t_adm);
    (u64::from(start_disk) + (t - t_adm)) / u64::from(d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_is_invariant_under_rotation() {
        let d = 7;
        // A clip starting on disk 3 at round 10 must be on disk 4 at
        // round 11, disk 5 at 12, ...
        let phase = phase_of(3, 10, d);
        assert_eq!(disk_at(phase, 10, d), 3);
        assert_eq!(disk_at(phase, 11, d), 4);
        assert_eq!(disk_at(phase, 17, d), 3); // full cycle
    }

    #[test]
    fn same_phase_means_same_disk_forever() {
        let d = 5;
        let p1 = phase_of(2, 100, d);
        let p2 = phase_of(4, 102, d); // starts 2 rounds later, 2 disks on
        assert_eq!(p1, p2);
        for t in 102..120 {
            assert_eq!(disk_at(p1, t, d), disk_at(p2, t, d));
        }
    }

    #[test]
    fn wraps_advance_once_per_ring_cycle() {
        let d = 7;
        assert_eq!(wraps_since(3, 10, 10, d), 0);
        assert_eq!(wraps_since(3, 10, 13, d), 0); // on disk 6
        assert_eq!(wraps_since(3, 10, 14, d), 1); // wrapped to disk 0
        assert_eq!(wraps_since(3, 10, 21, d), 2);
    }

    #[test]
    fn phase_handles_large_rounds() {
        let d = 32;
        let phase = phase_of(31, u64::MAX - 5, d);
        assert!(phase < d);
    }
}
