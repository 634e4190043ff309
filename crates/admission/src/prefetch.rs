//! Admission for the three parity-disk schemes: pre-fetching with parity
//! disks (§6.1), streaming RAID (§7.3) and the non-clustered baseline
//! (§7.4). They share the clustered placement; their controllers differ
//! in fetch cadence and in whether failures are pre-paid.

use crate::traits::{Admission, AdmitRequest};
use cms_core::{CmsError, DiskId, RequestId};
use std::collections::BTreeMap;

/// §6.1 controller: clusters of `p` disks with a dedicated parity disk.
///
/// With the staggered-group optimization a clip fetches its whole next
/// group — one block on each of its cluster's `p−1` data disks — every
/// `p−1` rounds, then idles. Clips therefore collide on a disk exactly
/// when they share both the *fetch cadence* (`t mod (p−1)`) and the
/// *cluster class* (cluster occupied at a common reference round), and
/// admission is a single counter per `(cadence, cluster-class)` slot,
/// capped at `q`. Failure reads hit only the cluster's parity disk, whose
/// bandwidth is otherwise idle — no contingency needed, which is the whole
/// selling point of the scheme.
#[derive(Debug, Clone)]
pub struct PrefetchParityDiskAdmission {
    clusters: u32,
    p: u32,
    cadences: u32, // k = p − m data disks per cluster
    q: u32,
    t: u64,
    /// `count[cadence][cluster_class]`.
    count: Vec<Vec<u32>>,
    active: BTreeMap<RequestId, (u32, u32)>,
}

impl PrefetchParityDiskAdmission {
    /// Creates a controller for `d` disks in clusters of `p`, budget `q`,
    /// with the paper's single parity disk per cluster.
    ///
    /// # Errors
    ///
    /// [`CmsError::InvalidParams`] unless `p | d`, `p ≥ 2`, `q ≥ 1`.
    pub fn new(d: u32, p: u32, q: u32) -> Result<Self, CmsError> {
        Self::with_redundancy(d, p, 1, q)
    }

    /// Creates a controller for clusters of `k = p − m` data disks plus
    /// `m` redundancy disks (GF(256) Reed–Solomon for `m ≥ 2`): a clip
    /// fetches its whole next group every `k` rounds, and a cluster keeps
    /// serving while at most `m` of its disks are down.
    ///
    /// # Errors
    ///
    /// [`CmsError::InvalidParams`] unless `p | d`, `p ≥ 2`, `q ≥ 1`,
    /// `1 ≤ m < p`.
    pub fn with_redundancy(d: u32, p: u32, m: u32, q: u32) -> Result<Self, CmsError> {
        validate_clustered(d, p, q)?;
        validate_redundancy(p, m)?;
        let cadences = (p - m).max(1);
        Ok(PrefetchParityDiskAdmission {
            clusters: d / p,
            p,
            cadences,
            q,
            t: 0,
            count: vec![vec![0; (d / p) as usize]; cadences as usize],
            active: BTreeMap::new(),
        })
    }

    fn slot(&self, start_cluster: u32) -> (u32, u32) {
        let cadence = (self.t % u64::from(self.cadences)) as u32;
        // The clip's cluster advances by one per fetch; its class is the
        // cluster it would occupy at round-0 cadence alignment.
        let fetches_so_far = (self.t / u64::from(self.cadences)) % u64::from(self.clusters);
        let class = ((u64::from(start_cluster) + u64::from(self.clusters)
            - fetches_so_far % u64::from(self.clusters))
            % u64::from(self.clusters)) as u32;
        (cadence, class)
    }
}

impl Admission for PrefetchParityDiskAdmission {
    fn try_admit(&mut self, req: AdmitRequest) -> Result<(), CmsError> {
        let start_cluster = req.start_disk.raw() / self.p;
        if start_cluster >= self.clusters {
            return Err(CmsError::invalid_params("start disk out of range"));
        }
        let (cadence, class) = self.slot(start_cluster);
        let count = &mut self.count[cadence as usize][class as usize];
        if *count >= self.q {
            let clips = *count + 1;
            return Err(CmsError::rejected("cluster class", class, clips, "q per cadence", self.q));
        }
        *count += 1;
        self.active.insert(req.id, (cadence, class));
        Ok(())
    }

    fn remove(&mut self, id: RequestId) {
        if let Some((cadence, class)) = self.active.remove(&id) {
            self.count[cadence as usize][class as usize] -= 1;
        }
    }

    fn advance_round(&mut self) {
        self.t += 1;
    }

    fn active(&self) -> usize {
        self.active.len()
    }

    fn worst_case_load(&self, disk: DiskId) -> u32 {
        // A data disk serves the clips fetching from its cluster this
        // round; each redundancy disk serves at most the same count after
        // a failure. Both are the slot count of (current cadence, the
        // class currently sitting on this cluster).
        let cluster = disk.raw() / self.p;
        let (cadence, class) = self.slot(cluster);
        self.count[cadence as usize][class as usize]
    }

    fn nominal_capacity(&self) -> u64 {
        // q clips per (cadence, cluster-class) slot: q·d(p−m)/p total.
        u64::from(self.cadences) * u64::from(self.clusters) * u64::from(self.q)
    }
}

/// §7.3 controller: streaming RAID. A cluster is one logical disk serving
/// at most `q` clips; all clips fetch whole parity groups in lock-step
/// *long rounds* of `p−1` standard rounds. Admission is one counter per
/// cluster class.
#[derive(Debug, Clone)]
pub struct StreamingRaidAdmission {
    clusters: u32,
    p: u32,
    /// Long-round length `k = p − m` in standard rounds.
    span: u32,
    q: u32,
    t: u64,
    count: Vec<u32>,
    active: BTreeMap<RequestId, u32>,
}

impl StreamingRaidAdmission {
    /// Creates a controller for `d` disks in clusters of `p`, with a
    /// per-cluster budget `q` and the paper's single parity disk.
    ///
    /// # Errors
    ///
    /// [`CmsError::InvalidParams`] unless `p | d`, `p ≥ 2`, `q ≥ 1`.
    pub fn new(d: u32, p: u32, q: u32) -> Result<Self, CmsError> {
        Self::with_redundancy(d, p, 1, q)
    }

    /// Creates a controller whose clusters stripe `k = p − m` data blocks
    /// plus `m` redundancy blocks per group; long rounds shrink to `k`
    /// standard rounds, and a cluster keeps its guarantees with up to `m`
    /// of its disks down.
    ///
    /// # Errors
    ///
    /// [`CmsError::InvalidParams`] unless `p | d`, `p ≥ 2`, `q ≥ 1`,
    /// `1 ≤ m < p`.
    pub fn with_redundancy(d: u32, p: u32, m: u32, q: u32) -> Result<Self, CmsError> {
        validate_clustered(d, p, q)?;
        validate_redundancy(p, m)?;
        Ok(StreamingRaidAdmission {
            clusters: d / p,
            p,
            span: (p - m).max(1),
            q,
            t: 0,
            count: vec![0; (d / p) as usize],
            active: BTreeMap::new(),
        })
    }

    /// Class of a clip that will make its *first* group fetch at the next
    /// long-round boundary (admissions mid-long-round start one boundary
    /// later — the paper's response-time quantization for this scheme).
    fn admit_class(&self, start_cluster: u32) -> u32 {
        let span = u64::from(self.span);
        let first_long_round = self.t.div_ceil(span);
        ((u64::from(start_cluster) + u64::from(self.clusters) * (1 + first_long_round)
            - first_long_round)
            % u64::from(self.clusters)) as u32
    }

    /// Class of the clips currently fetching from `cluster` (i.e. during
    /// the long round containing `self.t`).
    fn current_class(&self, cluster: u32) -> u32 {
        let span = u64::from(self.span);
        let long_round = self.t / span;
        ((u64::from(cluster) + u64::from(self.clusters) * (1 + long_round) - long_round)
            % u64::from(self.clusters)) as u32
    }
}

impl Admission for StreamingRaidAdmission {
    fn try_admit(&mut self, req: AdmitRequest) -> Result<(), CmsError> {
        let start_cluster = req.start_disk.raw() / self.p;
        if start_cluster >= self.clusters {
            return Err(CmsError::invalid_params("start disk out of range"));
        }
        let class = self.admit_class(start_cluster);
        let count = &mut self.count[class as usize];
        if *count >= self.q {
            return Err(CmsError::rejected("cluster class", class, *count + 1, "q", self.q));
        }
        *count += 1;
        self.active.insert(req.id, class);
        Ok(())
    }

    fn remove(&mut self, id: RequestId) {
        if let Some(class) = self.active.remove(&id) {
            self.count[class as usize] -= 1;
        }
    }

    fn advance_round(&mut self) {
        self.t += 1;
    }

    fn active(&self) -> usize {
        self.active.len()
    }

    fn worst_case_load(&self, disk: DiskId) -> u32 {
        // Every disk of a cluster serves one block per clip per long
        // round, healthy or degraded (the parity block substitutes for
        // the lost one).
        let cluster = disk.raw() / self.p;
        self.count[self.current_class(cluster) as usize]
    }

    fn nominal_capacity(&self) -> u64 {
        // One class per cluster, q clips per class.
        u64::from(self.clusters) * u64::from(self.q)
    }
}

/// §7.4 controller: the non-clustered baseline. Clustered placement, but
/// double-buffered one-block-per-round retrieval, so clips collide by
/// *data-disk phase* exactly as in the declustered scheme — without any
/// contingency. `q` per phase, `q·d·(p−1)/p` total, best capacity of the
/// parity-disk family... until a disk fails.
#[derive(Debug, Clone)]
pub struct NonClusteredAdmission {
    data_disks: u32,
    q: u32,
    t: u64,
    count: Vec<u32>,
    active: BTreeMap<RequestId, u32>,
}

impl NonClusteredAdmission {
    /// Creates a controller for `d` disks in clusters of `p`, budget `q`.
    ///
    /// # Errors
    ///
    /// [`CmsError::InvalidParams`] unless `p | d`, `p ≥ 2`, `q ≥ 1`.
    pub fn new(d: u32, p: u32, q: u32) -> Result<Self, CmsError> {
        validate_clustered(d, p, q)?;
        let data_disks = d - d / p;
        Ok(NonClusteredAdmission {
            data_disks,
            q,
            t: 0,
            count: vec![0; data_disks as usize],
            active: BTreeMap::new(),
        })
    }

    /// Phase over the *data-disk ring* (parity disks excluded).
    fn phase(&self, data_disk_index: u32) -> u32 {
        let t = (self.t % u64::from(self.data_disks)) as u32;
        (data_disk_index + self.data_disks - t) % self.data_disks
    }
}

impl Admission for NonClusteredAdmission {
    fn try_admit(&mut self, req: AdmitRequest) -> Result<(), CmsError> {
        // `start_index mod data_disks` is the data-disk ring position of
        // the clip's first block under clustered striping.
        let ring = (req.start_index % u64::from(self.data_disks)) as u32;
        let phase = self.phase(ring);
        let count = &mut self.count[phase as usize];
        if *count >= self.q {
            return Err(CmsError::rejected("data-disk phase", phase, *count + 1, "q", self.q));
        }
        *count += 1;
        self.active.insert(req.id, phase);
        Ok(())
    }

    fn remove(&mut self, id: RequestId) {
        if let Some(phase) = self.active.remove(&id) {
            self.count[phase as usize] -= 1;
        }
    }

    fn advance_round(&mut self) {
        self.t += 1;
    }

    fn active(&self) -> usize {
        self.active.len()
    }

    fn worst_case_load(&self, disk: DiskId) -> u32 {
        // Normal load only: the scheme reserves nothing for failures.
        // (After a failure its clusters read whole groups and CAN exceed
        // q — the simulator counts the resulting hiccups, reproducing the
        // §7.4 caveat.)
        let _ = disk;
        self.count.iter().copied().max().unwrap_or(0)
    }

    fn nominal_capacity(&self) -> u64 {
        // q clips per data-disk phase: q·d(p−1)/p total.
        u64::from(self.data_disks) * u64::from(self.q)
    }
}

fn validate_clustered(d: u32, p: u32, q: u32) -> Result<(), CmsError> {
    if p < 2 || p > d {
        return Err(CmsError::invalid_params("need 2 <= p <= d"));
    }
    if !d.is_multiple_of(p) {
        return Err(CmsError::invalid_params("need p | d"));
    }
    if q == 0 {
        return Err(CmsError::invalid_params("need q >= 1"));
    }
    Ok(())
}

fn validate_redundancy(p: u32, m: u32) -> Result<(), CmsError> {
    if m == 0 || m >= p {
        return Err(CmsError::invalid_params("need 1 <= m < p redundancy shards"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cms_core::RequestId;

    fn req(id: u64, disk: u32, index: u64) -> AdmitRequest {
        AdmitRequest {
            id: RequestId(id),
            stream: 0,
            start_index: index,
            start_disk: DiskId(disk),
            row: 0,
            len: 50,
        }
    }

    #[test]
    fn prefetch_fills_slots_up_to_q() {
        // d = 8, p = 4: 2 clusters, 3 cadences, q = 2.
        let mut c = PrefetchParityDiskAdmission::new(8, 4, 2).unwrap();
        assert!(c.try_admit(req(1, 0, 0)).is_ok());
        assert!(c.try_admit(req(2, 0, 0)).is_ok());
        // Same cadence (same round), same cluster: full.
        assert!(c.try_admit(req(3, 0, 0)).is_err());
        // Other cluster, same round: fine.
        assert!(c.try_admit(req(4, 4, 0)).is_ok());
        // Next round = different cadence: room again on cluster 0.
        c.advance_round();
        assert!(c.try_admit(req(5, 0, 0)).is_ok());
        assert_eq!(c.active(), 4);
    }

    #[test]
    fn prefetch_cluster_classes_rotate() {
        let mut c = PrefetchParityDiskAdmission::new(8, 4, 1).unwrap();
        c.try_admit(req(1, 0, 0)).unwrap();
        // After p−1 = 3 rounds the clip moved to cluster 1; admitting on
        // cluster 1 at the same cadence must now collide with it.
        for _ in 0..3 {
            c.advance_round();
        }
        assert!(c.try_admit(req(2, 4, 0)).is_err());
        assert!(c.try_admit(req(3, 0, 0)).is_ok());
    }

    #[test]
    fn prefetch_total_capacity_is_q_times_data_disks() {
        // q = 2, d = 8, p = 4: capacity 2 clusters × 3 cadences × 2 = 12
        // = q·d(p−1)/p.
        let mut c = PrefetchParityDiskAdmission::new(8, 4, 2).unwrap();
        let mut admitted = 0u64;
        for _cadence in 0..3u64 {
            for cluster in 0..2u32 {
                for _ in 0..2 {
                    admitted += 1;
                    assert!(c.try_admit(req(admitted, cluster * 4, 0)).is_ok());
                }
            }
            c.advance_round();
        }
        assert_eq!(c.active(), 12);
        // Any further admission at any cadence must fail.
        assert!(c.try_admit(req(99, 0, 0)).is_err());
        assert!(c.try_admit(req(100, 4, 0)).is_err());
    }

    #[test]
    fn streaming_raid_caps_per_cluster() {
        let mut c = StreamingRaidAdmission::new(8, 4, 3).unwrap();
        for i in 0..3u64 {
            assert!(c.try_admit(req(i, 0, 0)).is_ok());
        }
        assert!(c.try_admit(req(9, 0, 0)).is_err());
        assert!(c.try_admit(req(10, 4, 0)).is_ok());
        assert_eq!(c.worst_case_load(DiskId(0)), 3);
        assert_eq!(c.worst_case_load(DiskId(3)), 3); // parity disk too
    }

    #[test]
    fn streaming_raid_classes_advance_per_long_round() {
        let mut c = StreamingRaidAdmission::new(8, 4, 1).unwrap();
        // Admitted exactly on a boundary: fetches cluster 0 from round 0.
        c.try_admit(req(1, 0, 0)).unwrap();
        // t = 1 (mid long round): a clip starting on cluster 1 would make
        // its first fetch at round 3 — when clip 1 also reaches cluster 1.
        c.advance_round();
        assert!(c.try_admit(req(2, 4, 0)).is_err());
        // ... whereas a cluster-0 start at t = 1 never collides with it.
        assert!(c.try_admit(req(3, 0, 0)).is_ok());
        c.remove(RequestId(3));
        // After the boundary (t = 3) clip 1 fetches cluster 1; the
        // current-load view must say so.
        c.advance_round();
        c.advance_round();
        assert_eq!(c.worst_case_load(DiskId(4)), 1, "cluster 1 busy at t = 3");
        assert_eq!(c.worst_case_load(DiskId(0)), 0, "cluster 0 idle at t = 3");
    }

    #[test]
    fn non_clustered_caps_per_phase() {
        // d = 8, p = 4: 6 data disks.
        let mut c = NonClusteredAdmission::new(8, 4, 2).unwrap();
        assert!(c.try_admit(req(1, 0, 0)).is_ok());
        assert!(c.try_admit(req(2, 0, 0)).is_ok());
        assert!(c.try_admit(req(3, 0, 0)).is_err());
        assert!(c.try_admit(req(4, 1, 1)).is_ok());
        c.remove(RequestId(1));
        assert!(c.try_admit(req(3, 0, 0)).is_ok());
    }

    #[test]
    fn non_clustered_total_capacity() {
        let mut c = NonClusteredAdmission::new(8, 4, 2).unwrap();
        let mut id = 0u64;
        for ring in 0..6u64 {
            for _ in 0..2 {
                id += 1;
                assert!(c.try_admit(req(id, 0, ring)).is_ok());
            }
        }
        assert_eq!(c.active(), 12); // q·d(p−1)/p = 2·6
        assert!(c.try_admit(req(99, 0, 3)).is_err());
    }

    #[test]
    fn constructors_validate() {
        assert!(PrefetchParityDiskAdmission::new(9, 4, 1).is_err());
        assert!(StreamingRaidAdmission::new(8, 3, 1).is_err());
        assert!(NonClusteredAdmission::new(8, 4, 0).is_err());
        assert!(PrefetchParityDiskAdmission::new(8, 1, 1).is_err());
    }

    #[test]
    fn redundancy_shrinks_cadences_and_capacity() {
        // (d = 8, p = 4, m = 2): k = 2 data disks per cluster, so 2
        // cadences and capacity q·d(p−m)/p = 1·8·2/4 = 4.
        let mut c = PrefetchParityDiskAdmission::with_redundancy(8, 4, 2, 1).unwrap();
        assert_eq!(c.nominal_capacity(), 4);
        c.try_admit(req(1, 0, 0)).unwrap();
        // After k = 2 rounds the clip moved on to cluster 1.
        c.advance_round();
        c.advance_round();
        assert!(c.try_admit(req(2, 4, 0)).is_err());
        assert!(c.try_admit(req(3, 0, 0)).is_ok());

        let s = StreamingRaidAdmission::with_redundancy(8, 4, 2, 3).unwrap();
        assert_eq!(s.nominal_capacity(), 6);

        assert!(PrefetchParityDiskAdmission::with_redundancy(8, 4, 0, 2).is_err());
        assert!(PrefetchParityDiskAdmission::with_redundancy(8, 4, 4, 2).is_err());
        assert!(StreamingRaidAdmission::with_redundancy(8, 4, 5, 3).is_err());
    }

    #[test]
    fn mirroring_p2_has_single_cadence() {
        let mut c = PrefetchParityDiskAdmission::new(8, 2, 2).unwrap();
        // 4 clusters of (1 data + 1 parity); every round is a fetch round.
        assert!(c.try_admit(req(1, 0, 0)).is_ok());
        assert!(c.try_admit(req(2, 0, 0)).is_ok());
        assert!(c.try_admit(req(3, 0, 0)).is_err());
        c.advance_round();
        // p−1 = 1 cadence: still the same slot family, now rotated one
        // cluster on.
        assert!(c.try_admit(req(4, 2, 0)).is_err());
    }
}
