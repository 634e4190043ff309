//! [`MaterializedLayout`]: the fully resolved placement all builders
//! produce and everything downstream consumes.

use crate::types::{BlockLocation, GroupId, ParityGroupInfo, Slot, StreamAddr};
use cms_bibd::Pgt;
use cms_core::{CmsError, DiskId, Scheme};

/// A complete, immutable placement of data and parity blocks on a disk
/// array.
#[derive(Debug, Clone)]
pub struct MaterializedLayout {
    scheme: Scheme,
    d: u32,
    p: u32,
    /// `streams[s][i]` = physical location of data block `i` of stream `s`.
    streams: Vec<Vec<BlockLocation>>,
    /// `slots[disk]` = contents of each disk block (dense prefix; blocks
    /// beyond the vector are `Free`).
    slots: Vec<Vec<Slot>>,
    /// Parity groups.
    groups: Vec<ParityGroupInfo>,
    /// `group_of[s][i]` = group of data block `i` of stream `s`.
    group_of: Vec<Vec<GroupId>>,
    /// The PGT, for the declustered family (None otherwise).
    pgt: Option<Pgt>,
}

impl MaterializedLayout {
    /// Assembles a layout from builder output and validates its
    /// invariants. Intended for use by the builder modules; external
    /// callers use `declustered::build` etc.
    ///
    /// # Errors
    ///
    /// Returns [`CmsError::InvalidParams`] when an invariant is violated:
    /// a stream address and slot table disagree, a group has members on
    /// duplicate disks, or a parity block collides with data.
    #[allow(clippy::too_many_arguments)] // internal builder plumbing
    pub(crate) fn assemble(
        scheme: Scheme,
        d: u32,
        p: u32,
        streams: Vec<Vec<BlockLocation>>,
        slots: Vec<Vec<Slot>>,
        groups: Vec<ParityGroupInfo>,
        group_of: Vec<Vec<GroupId>>,
        pgt: Option<Pgt>,
    ) -> Result<Self, CmsError> {
        let layout = MaterializedLayout { scheme, d, p, streams, slots, groups, group_of, pgt };
        layout.check_invariants()?;
        Ok(layout)
    }

    fn check_invariants(&self) -> Result<(), CmsError> {
        // Redundancy is a layout-wide constant: every group carries the
        // same shard count `m` (trailing groups may be short on data, but
        // never on redundancy).
        if let Some(first) = self.groups.first() {
            let m = first.redundancy();
            if self.groups.iter().any(|g| g.redundancy() != m) {
                return Err(CmsError::invalid_params("groups disagree on redundancy m"));
            }
        }
        if self.slots.len() != self.d as usize {
            return Err(CmsError::invalid_params("slot table width != d"));
        }
        if self.streams.len() != self.group_of.len() {
            return Err(CmsError::invalid_params("streams and group_of disagree"));
        }
        // Every stream block's slot must point back at it.
        for (s, stream) in self.streams.iter().enumerate() {
            for (i, loc) in stream.iter().enumerate() {
                let slot = self.slot(loc.disk, loc.block_no);
                let expect = Slot::Data(StreamAddr::new(s as u32, i as u64));
                if slot != expect {
                    return Err(CmsError::invalid_params(format!(
                        "slot {loc} holds {slot:?}, expected {expect:?}"
                    )));
                }
            }
            if self.group_of[s].len() != stream.len() {
                return Err(CmsError::invalid_params("group_of length mismatch"));
            }
        }
        // Groups: members on pairwise distinct disks, every redundancy
        // slot marked.
        let mut disks: Vec<DiskId> = Vec::new();
        for (gid, g) in self.groups.iter().enumerate() {
            disks.clear();
            disks.extend(g.data.iter().map(|&a| self.locate(a).disk));
            disks.extend(g.redundancy_blocks().map(|loc| loc.disk));
            disks.sort_unstable();
            let before = disks.len();
            disks.dedup();
            if disks.len() != before {
                return Err(CmsError::invalid_params(format!(
                    "group {gid} has two members on one disk"
                )));
            }
            for loc in g.redundancy_blocks() {
                match self.slot(loc.disk, loc.block_no) {
                    Slot::Parity(owner) if owner == gid => {}
                    other => {
                        return Err(CmsError::invalid_params(format!(
                            "parity slot of group {gid} holds {other:?}"
                        )));
                    }
                }
            }
            for &a in &g.data {
                if self.group_of[a.stream as usize][a.index as usize] != gid {
                    return Err(CmsError::invalid_params(format!(
                        "group_of({a}) does not point at group {gid}"
                    )));
                }
            }
        }
        Ok(())
    }

    /// The scheme this layout implements.
    #[must_use]
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// Number of disks `d`.
    #[must_use]
    pub fn disks(&self) -> u32 {
        self.d
    }

    /// Parity group size `p`.
    #[must_use]
    pub fn parity_group_size(&self) -> u32 {
        self.p
    }

    /// Number of streams (`r` for the dynamic scheme, 1 otherwise).
    #[must_use]
    pub fn num_streams(&self) -> u32 {
        self.streams.len() as u32
    }

    /// Number of data blocks placed in `stream`.
    #[must_use]
    pub fn stream_len(&self, stream: u32) -> u64 {
        self.streams[stream as usize].len() as u64
    }

    /// Physical location of a data block.
    ///
    /// # Panics
    ///
    /// Panics if the address is out of range.
    #[must_use]
    pub fn locate(&self, addr: StreamAddr) -> BlockLocation {
        self.streams[addr.stream as usize][addr.index as usize]
    }

    /// Contents of a physical disk block (Free beyond the placed region).
    #[must_use]
    pub fn slot(&self, disk: DiskId, block_no: u64) -> Slot {
        self.slots[disk.idx()]
            .get(block_no as usize)
            .copied()
            .unwrap_or(Slot::Free)
    }

    /// The parity group containing a data block.
    ///
    /// # Panics
    ///
    /// Panics if the address is out of range.
    #[must_use]
    pub fn group_id_of(&self, addr: StreamAddr) -> GroupId {
        self.group_of[addr.stream as usize][addr.index as usize]
    }

    /// Group record by id.
    #[must_use]
    pub fn group(&self, gid: GroupId) -> &ParityGroupInfo {
        &self.groups[gid]
    }

    /// Number of parity groups.
    #[must_use]
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Physical locations of the *other* members of `addr`'s parity group
    /// (data blocks first, then the redundancy blocks) — exactly the
    /// blocks a declustered-scheme server must fetch to reconstruct
    /// `addr` after its disk fails. With `m > 1` redundancy shards the
    /// list has more entries than a decode strictly needs (any `k`
    /// suffice); the caller filters to the survivors it can reach.
    #[must_use]
    pub fn reconstruction_reads(&self, addr: StreamAddr) -> Vec<BlockLocation> {
        let mut out = Vec::new();
        self.reconstruction_reads_into(addr, &mut out);
        out
    }

    /// Allocation-free [`Self::reconstruction_reads`]: clears and fills
    /// `out`, reusing its capacity (DESIGN.md §7).
    pub fn reconstruction_reads_into(&self, addr: StreamAddr, out: &mut Vec<BlockLocation>) {
        let g = self.group(self.group_id_of(addr));
        out.clear();
        out.extend(
            g.data
                .iter()
                .filter(|&&a| a != addr)
                .map(|&a| self.locate(a)),
        );
        out.extend(g.redundancy_blocks());
    }

    /// Redundancy shards per group `m` (1 for every single-parity
    /// layout; the clustered family can be built with more).
    #[must_use]
    pub fn redundancy(&self) -> u32 {
        self.groups.first().map_or(1, |g| g.redundancy() as u32)
    }

    /// The PGT, for the declustered family.
    #[must_use]
    pub fn pgt(&self) -> Option<&Pgt> {
        self.pgt.as_ref()
    }

    /// For the declustered family: the PGT row a data block maps to
    /// (`block_no mod r`). `None` for layouts without a PGT.
    #[must_use]
    pub fn row_of(&self, addr: StreamAddr) -> Option<u32> {
        let pgt = self.pgt.as_ref()?;
        let loc = self.locate(addr);
        Some((loc.block_no % u64::from(pgt.rows())) as u32)
    }

    /// Disk holding the parity block of `addr`'s group — the disk a
    /// flat-placement server must charge a contingency read to.
    #[must_use]
    pub fn parity_disk_of(&self, addr: StreamAddr) -> DiskId {
        self.group(self.group_id_of(addr)).parity.disk
    }

    /// Highest used block number per disk (capacity accounting).
    #[must_use]
    pub fn blocks_used(&self, disk: DiskId) -> u64 {
        self.slots[disk.idx()].len() as u64
    }

    /// Total data blocks across all streams.
    #[must_use]
    pub fn total_data_blocks(&self) -> u64 {
        self.streams.iter().map(|s| s.len() as u64).sum()
    }

    /// Storage overhead: parity blocks / data blocks.
    #[must_use]
    pub fn parity_overhead(&self) -> f64 {
        let data = self.total_data_blocks();
        if data == 0 {
            return 0.0;
        }
        self.groups.iter().map(|g| g.redundancy() as u64).sum::<u64>() as f64 / data as f64
    }
}
