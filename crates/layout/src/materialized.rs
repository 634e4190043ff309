//! [`MaterializedLayout`]: the fully resolved placement all builders
//! produce and everything downstream consumes.
//!
//! Every table is a flat vector of 32-bit entries. Data blocks are
//! numbered by their *data index*: the streams laid end to end, so
//! stream `s` owns indices `stream_start[s]..stream_start[s + 1]`. A
//! table with a variable-length slice per owner (a disk's slots, a
//! group's members) is one vector sliced by an offset table with one
//! entry more than it has owners, like the PGT's own set table.

use crate::types::{BlockLocation, GroupId, Slot, StreamAddr};
use cms_core::{CmsError, DiskId, Scheme};

/// Tag bit of a packed slot that holds a parity block; the low 31 bits
/// are its group id. A packed data slot holds `1 + data index`, and a
/// free slot is `0`.
const PARITY_TAG: u32 = 1 << 31;

/// The most data blocks a layout can place: every data index must pack
/// into a slot below [`PARITY_TAG`]. Group ids stay below it too, since
/// every group holds at least one data block.
pub(crate) const MAX_DATA_BLOCKS: u64 = PARITY_TAG as u64 - 1;

/// Checks that `blocks` data blocks fit the layout's 32-bit tables and
/// returns the count as the tables index it.
///
/// # Errors
///
/// [`CmsError::InvalidParams`] above [`MAX_DATA_BLOCKS`].
pub(crate) fn data_blocks(blocks: u64) -> Result<u32, CmsError> {
    match u32::try_from(blocks) {
        Ok(n) if u64::from(n) <= MAX_DATA_BLOCKS => Ok(n),
        _ => Err(CmsError::invalid_params(format!(
            "{blocks} data blocks exceed the layout limit of {MAX_DATA_BLOCKS}"
        ))),
    }
}

fn location((disk, block_no): (u32, u32)) -> BlockLocation {
    BlockLocation::new(disk, u64::from(block_no))
}

/// The contents of every used disk block, packed one `u32` per block:
/// disk `k`'s blocks are `cells[start[k]..start[k + 1]]`, so each disk's
/// slice ends at its highest used block.
#[derive(Debug, Clone)]
pub(crate) struct SlotTable {
    start: Vec<u32>,
    cells: Vec<u32>,
}

impl SlotTable {
    /// A table of free slots, `used[k]` of them on disk `k`.
    ///
    /// # Errors
    ///
    /// [`CmsError::InvalidParams`] if the blocks of all disks together
    /// would not fit a 32-bit offset.
    pub(crate) fn new(used: &[u32]) -> Result<Self, CmsError> {
        let mut start = Vec::with_capacity(used.len() + 1);
        let mut total = 0u32;
        start.push(total);
        for &n in used {
            total = total.checked_add(n).ok_or_else(|| {
                CmsError::invalid_params("the layout's disk blocks exceed 2^32 - 1 in all")
            })?;
            start.push(total);
        }
        Ok(SlotTable { start, cells: vec![0; total as usize] })
    }

    fn used(&self, disk: usize) -> u32 {
        self.start[disk + 1] - self.start[disk]
    }

    /// The packed cell of a disk block; `0` (free) past the disk's slice.
    fn cell(&self, disk: usize, block_no: u64) -> u32 {
        if block_no < u64::from(self.used(disk)) {
            self.cells[self.start[disk] as usize + block_no as usize]
        } else {
            0
        }
    }

    fn set(&mut self, disk: u32, block_no: u32, cell: u32) {
        let at = self.start[disk as usize] as usize + block_no as usize;
        debug_assert!(block_no < self.used(disk as usize), "slot {disk}:{block_no} past its disk");
        debug_assert_eq!(self.cells[at], 0, "slot collision at {disk}:{block_no}");
        self.cells[at] = cell;
    }

    /// Marks a disk block as data block `index`.
    pub(crate) fn set_data(&mut self, disk: u32, block_no: u32, index: u32) {
        debug_assert!(u64::from(index) < MAX_DATA_BLOCKS, "data index {index} overflows a slot");
        self.set(disk, block_no, index + 1);
    }

    /// Marks a disk block as a redundancy block of group `gid`.
    pub(crate) fn set_parity(&mut self, disk: u32, block_no: u32, gid: u32) {
        debug_assert!(gid < PARITY_TAG, "group {gid} overflows a slot");
        self.set(disk, block_no, PARITY_TAG | gid);
    }

    /// The data index a disk block holds, if it holds data.
    pub(crate) fn data_at(&self, disk: u32, block_no: u64) -> Option<u32> {
        match self.cell(disk as usize, block_no) {
            cell if cell == 0 || cell & PARITY_TAG != 0 => None,
            cell => Some(cell - 1),
        }
    }

    fn heap_bytes(&self) -> usize {
        heap_bytes(&self.start) + heap_bytes(&self.cells)
    }
}

fn heap_bytes<T>(table: &Vec<T>) -> usize {
    table.capacity() * std::mem::size_of::<T>()
}

/// A complete, immutable placement of data and parity blocks on a disk
/// array. The builder modules fill the tables directly; see the module
/// docs for the indexing.
#[derive(Debug, Clone)]
pub struct MaterializedLayout {
    pub(crate) scheme: Scheme,
    pub(crate) d: u32,
    pub(crate) p: u32,
    /// Redundancy blocks per group `m`.
    pub(crate) m: u32,
    /// PGT row count `r` for the declustered family, `None` otherwise.
    pub(crate) rows: Option<u32>,
    /// `r + 1` offsets: stream `s` owns data indices
    /// `stream_start[s]..stream_start[s + 1]`.
    pub(crate) stream_start: Vec<u32>,
    /// `(disk, block_no)` of every data block, by data index.
    pub(crate) locs: Vec<(u32, u32)>,
    /// Parity group of every data block, by data index.
    pub(crate) group_of: Vec<u32>,
    /// Contents of every disk block up to each disk's last used one.
    pub(crate) slots: SlotTable,
    /// `groups + 1` offsets: group `g`'s data members are
    /// `members[member_start[g]..member_start[g + 1]]`.
    pub(crate) member_start: Vec<u32>,
    /// Data indices of every group's data members, each group's in
    /// stream order.
    pub(crate) members: Vec<u32>,
    /// `(disk, block_no)` of every group's `m` redundancy blocks, group
    /// `g`'s at `g·m..(g + 1)·m` in shard-index order (`k .. k + m`).
    pub(crate) redundancy: Vec<(u32, u32)>,
}

/// One parity group of a [`MaterializedLayout`], borrowed from its
/// tables: the stream addresses of its data blocks and the physical
/// locations of its redundancy blocks.
#[derive(Debug, Clone, Copy)]
pub struct GroupView<'a> {
    stream_start: &'a [u32],
    members: &'a [u32],
    redundancy: &'a [(u32, u32)],
}

impl<'a> GroupView<'a> {
    /// Data members, in stream order.
    pub fn data(&self) -> impl ExactSizeIterator<Item = StreamAddr> + 'a {
        let stream_start = self.stream_start;
        self.members.iter().map(move |&i| addr_of(stream_start, i))
    }

    /// Number of data members `k′` (tail groups may hold fewer than the
    /// layout's span).
    #[must_use]
    pub fn data_len(&self) -> usize {
        self.members.len()
    }

    /// Where the (first) parity block lives.
    #[must_use]
    pub fn parity(&self) -> BlockLocation {
        location(self.redundancy[0])
    }

    /// All redundancy block locations: the parity block, then the
    /// further Reed–Solomon shards, in shard-index order (`k .. k + m`).
    pub fn redundancy_blocks(&self) -> impl ExactSizeIterator<Item = BlockLocation> + 'a {
        self.redundancy.iter().map(|&block| location(block))
    }

    /// Redundancy shard count `m` (1 for plain XOR parity).
    #[must_use]
    pub fn redundancy(&self) -> usize {
        self.redundancy.len()
    }
}

/// The stream address of data index `i`.
fn addr_of(stream_start: &[u32], i: u32) -> StreamAddr {
    let s = stream_start.partition_point(|&start| start <= i) - 1;
    StreamAddr::new(s as u32, u64::from(i - stream_start[s]))
}

impl MaterializedLayout {
    /// Validates a layout a builder filled. Intended for use by the
    /// builder modules; external callers use `declustered::build` etc.
    ///
    /// # Errors
    ///
    /// Returns [`CmsError::InvalidParams`] when an invariant is violated:
    /// a stream address and slot table disagree, a group has members on
    /// duplicate disks, or a parity block collides with data.
    pub(crate) fn checked(self) -> Result<Self, CmsError> {
        self.check_invariants()?;
        Ok(self)
    }

    /// Assembles a single-stream layout whose group `g` is the run of
    /// data blocks `g·span .. (g + 1)·span` (the last run may be short)
    /// with the `m` redundancy blocks listed for it in `redundancy`.
    /// Every disk's slots end at its highest data or redundancy block.
    ///
    /// # Errors
    ///
    /// [`CmsError::InvalidParams`] if the disks' blocks together would
    /// not fit a 32-bit offset, or an invariant is violated.
    pub(crate) fn striped(
        scheme: Scheme,
        d: u32,
        p: u32,
        m: u32,
        span: u32,
        locs: Vec<(u32, u32)>,
        redundancy: Vec<(u32, u32)>,
    ) -> Result<Self, CmsError> {
        let mut used = vec![0u32; d as usize];
        for &(disk, block_no) in locs.iter().chain(&redundancy) {
            let used = &mut used[disk as usize];
            *used = (*used).max(block_no + 1);
        }
        let mut slots = SlotTable::new(&used)?;
        for (i, &(disk, block_no)) in locs.iter().enumerate() {
            slots.set_data(disk, block_no, i as u32);
        }
        for (gid, blocks) in redundancy.chunks(m as usize).enumerate() {
            for &(disk, block_no) in blocks {
                slots.set_parity(disk, block_no, gid as u32);
            }
        }
        let n = locs.len() as u32;
        let groups = n.div_ceil(span);
        MaterializedLayout {
            scheme,
            d,
            p,
            m,
            rows: None,
            stream_start: vec![0, n],
            locs,
            group_of: (0..n).map(|i| i / span).collect(),
            slots,
            member_start: (0..=groups).map(|g| g.saturating_mul(span).min(n)).collect(),
            members: (0..n).collect(),
            redundancy,
        }
        .checked()
    }

    fn check_invariants(&self) -> Result<(), CmsError> {
        // Redundancy is a layout-wide constant: every group carries the
        // same shard count `m` (trailing groups may be short on data, but
        // never on redundancy).
        if self.redundancy.len() != self.num_groups() * self.m as usize {
            return Err(CmsError::invalid_params("groups disagree on redundancy m"));
        }
        if self.slots.start.len() != self.d as usize + 1 {
            return Err(CmsError::invalid_params("slot table width != d"));
        }
        if self.stream_start.last().map(|&n| n as usize) != Some(self.locs.len())
            || self.member_start.last().map(|&n| n as usize) != Some(self.members.len())
        {
            return Err(CmsError::invalid_params("offset table does not end at its table's end"));
        }
        if self.group_of.len() != self.locs.len() {
            return Err(CmsError::invalid_params("streams and group_of disagree"));
        }
        // Every data block's slot must point back at it.
        for (i, &block) in self.locs.iter().enumerate() {
            if self.slots.data_at(block.0, u64::from(block.1)) != Some(i as u32) {
                let loc = location(block);
                let slot = self.slot(loc.disk, loc.block_no);
                let expect = Slot::Data(addr_of(&self.stream_start, i as u32));
                return Err(CmsError::invalid_params(format!(
                    "slot {loc} holds {slot:?}, expected {expect:?}"
                )));
            }
        }
        // Groups: members on pairwise distinct disks, every redundancy
        // slot marked.
        let mut disks: Vec<u32> = Vec::new();
        for gid in 0..self.num_groups() {
            let g = self.group(gid);
            disks.clear();
            disks.extend(g.members.iter().map(|&i| self.locs[i as usize].0));
            disks.extend(g.redundancy.iter().map(|&(disk, _)| disk));
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
            for &i in g.members {
                if self.group_of[i as usize] as usize != gid {
                    let a = addr_of(&self.stream_start, i);
                    return Err(CmsError::invalid_params(format!(
                        "group_of({a}) does not point at group {gid}"
                    )));
                }
            }
        }
        Ok(())
    }

    /// The data index of `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the address is out of range.
    fn index(&self, addr: StreamAddr) -> usize {
        let s = addr.stream as usize;
        let start = self.stream_start[s];
        let len = self.stream_start[s + 1] - start;
        assert!(addr.index < u64::from(len), "{addr} is past its stream's {len} blocks");
        start as usize + addr.index as usize
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
        (self.stream_start.len() - 1) as u32
    }

    /// Number of data blocks placed in `stream`.
    #[must_use]
    pub fn stream_len(&self, stream: u32) -> u64 {
        let s = stream as usize;
        u64::from(self.stream_start[s + 1] - self.stream_start[s])
    }

    /// Physical location of a data block.
    ///
    /// # Panics
    ///
    /// Panics if the address is out of range.
    #[must_use]
    pub fn locate(&self, addr: StreamAddr) -> BlockLocation {
        location(self.locs[self.index(addr)])
    }

    /// Contents of a physical disk block (Free beyond the placed region).
    #[must_use]
    pub fn slot(&self, disk: DiskId, block_no: u64) -> Slot {
        match self.slots.cell(disk.idx(), block_no) {
            0 => Slot::Free,
            cell if cell & PARITY_TAG != 0 => Slot::Parity((cell & !PARITY_TAG) as GroupId),
            cell => Slot::Data(addr_of(&self.stream_start, cell - 1)),
        }
    }

    /// The parity group containing a data block.
    ///
    /// # Panics
    ///
    /// Panics if the address is out of range.
    #[must_use]
    pub fn group_id_of(&self, addr: StreamAddr) -> GroupId {
        self.group_of[self.index(addr)] as GroupId
    }

    /// Group `gid`, borrowed from the layout's tables.
    ///
    /// # Panics
    ///
    /// Panics if `gid` is out of range.
    #[must_use]
    pub fn group(&self, gid: GroupId) -> GroupView<'_> {
        let m = self.m as usize;
        let (first, end) = (self.member_start[gid] as usize, self.member_start[gid + 1] as usize);
        GroupView {
            stream_start: &self.stream_start,
            members: &self.members[first..end],
            redundancy: &self.redundancy[gid * m..(gid + 1) * m],
        }
    }

    /// Number of parity groups.
    #[must_use]
    pub fn num_groups(&self) -> usize {
        self.member_start.len() - 1
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
        let i = self.index(addr);
        let g = self.group(self.group_of[i] as GroupId);
        out.clear();
        out.extend(
            g.members
                .iter()
                .filter(|&&j| j as usize != i)
                .map(|&j| location(self.locs[j as usize])),
        );
        out.extend(g.redundancy_blocks());
    }

    /// Redundancy shards per group `m` (1 for every single-parity
    /// layout; the clustered family can be built with more).
    #[must_use]
    pub fn redundancy(&self) -> u32 {
        self.m
    }

    /// For the declustered family: the PGT row a data block maps to
    /// (`block_no mod r`). `None` for layouts without a PGT.
    #[must_use]
    pub fn row_of(&self, addr: StreamAddr) -> Option<u32> {
        let rows = self.rows?;
        Some(self.locs[self.index(addr)].1 % rows)
    }

    /// Disk holding the parity block of `addr`'s group — the disk a
    /// flat-placement server must charge a contingency read to.
    #[must_use]
    pub fn parity_disk_of(&self, addr: StreamAddr) -> DiskId {
        self.group(self.group_id_of(addr)).parity().disk
    }

    /// Highest used block number per disk (capacity accounting).
    #[must_use]
    pub fn blocks_used(&self, disk: DiskId) -> u64 {
        u64::from(self.slots.used(disk.idx()))
    }

    /// Total data blocks across all streams.
    #[must_use]
    pub fn total_data_blocks(&self) -> u64 {
        self.locs.len() as u64
    }

    /// Storage overhead: parity blocks / data blocks.
    #[must_use]
    pub fn parity_overhead(&self) -> f64 {
        let data = self.total_data_blocks();
        if data == 0 {
            return 0.0;
        }
        self.redundancy.len() as f64 / data as f64
    }

    /// Heap bytes the layout's tables reserve: capacity × element size,
    /// summed over every table.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        heap_bytes(&self.stream_start)
            + heap_bytes(&self.locs)
            + heap_bytes(&self.group_of)
            + self.slots.heap_bytes()
            + heap_bytes(&self.member_start)
            + heap_bytes(&self.members)
            + heap_bytes(&self.redundancy)
    }
}
