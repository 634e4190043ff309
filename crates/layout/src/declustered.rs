//! Declustered-parity placement (Section 4.1, Figure 2) and its
//! super-clip variant for the dynamic reservation scheme (Section 5.1).
//!
//! The single-stream builder implements Procedure `placement()` verbatim:
//! the `i`-th data block goes on disk `i mod d`, in the lowest-numbered
//! disk block of row `j = ⌊i/d⌋ mod r` (i.e. block number `j + n·r` for
//! minimal `n`) that is not a parity block and not yet allocated.
//!
//! The super-clip builder differs only in pinning stream `k` to row `k`:
//! its `i`-th block goes on disk `i mod d` at block number `k + n·r`.
//!
//! Parity groups: within each *window* of `r` consecutive disk blocks, the
//! blocks mapped to the same PGT set form a group; the parity member
//! rotates through the set's disks across windows (see
//! [`Pgt::parity_disk`]).

use crate::materialized::MaterializedLayout;
use crate::types::{BlockLocation, ParityGroupInfo, Slot, StreamAddr};
use cms_bibd::Pgt;
use cms_core::{CmsError, Scheme};

/// Builds the single-stream declustered layout with `num_data_blocks`
/// blocks placed (Scheme: [`Scheme::DeclusteredParity`]).
///
/// # Errors
///
/// Returns [`CmsError::InvalidParams`] if assembly invariants fail (which
/// would indicate a construction bug, not bad input).
pub fn build(pgt: &Pgt, num_data_blocks: u64) -> Result<MaterializedLayout, CmsError> {
    let d = pgt.disks();
    let r = pgt.rows();
    let mut alloc = Allocator::new(pgt);
    let mut stream = Vec::with_capacity(num_data_blocks as usize);
    for i in 0..num_data_blocks {
        let disk = (i % u64::from(d)) as u32;
        let row = ((i / u64::from(d)) % u64::from(r)) as u32;
        stream.push(alloc.place(disk, row));
    }
    alloc.finish(Scheme::DeclusteredParity, vec![stream])
}

/// Builds the `r`-super-clip layout of the dynamic reservation scheme:
/// stream `k` holds `blocks_per_stream` data blocks, all mapped to PGT
/// row `k` (Scheme: [`Scheme::DynamicReservation`]).
///
/// # Errors
///
/// As for [`build`].
pub fn build_super_clips(
    pgt: &Pgt,
    blocks_per_stream: u64,
) -> Result<MaterializedLayout, CmsError> {
    let d = pgt.disks();
    let r = pgt.rows();
    let mut alloc = Allocator::new(pgt);
    let mut streams = Vec::with_capacity(r as usize);
    for k in 0..r {
        let mut stream = Vec::with_capacity(blocks_per_stream as usize);
        for i in 0..blocks_per_stream {
            let disk = (i % u64::from(d)) as u32;
            stream.push(alloc.place(disk, k));
        }
        streams.push(stream);
    }
    alloc.finish(Scheme::DynamicReservation, streams)
}

/// Shared allocation machinery for both declustered builders.
struct Allocator<'a> {
    pgt: &'a Pgt,
    /// `cursor[disk * r + row]` = next window to try for data placement.
    /// Each (disk, row, window) block is handed out at most once, so data
    /// blocks never collide.
    cursor: Vec<u64>,
}

impl<'a> Allocator<'a> {
    fn new(pgt: &'a Pgt) -> Self {
        let d = pgt.disks() as usize;
        let r = pgt.rows() as usize;
        Allocator { pgt, cursor: vec![0; d * r] }
    }

    /// Is `(disk, row, window)` the parity position of its set?
    fn is_parity_position(&self, disk: u32, row: u32, window: u64) -> bool {
        let set = self.pgt.set_at(row, disk);
        self.pgt.parity_disk(set, window) == disk
    }

    /// The first non-parity, unallocated block of `row` on `disk`
    /// (Figure 2's `n`-search).
    fn place(&mut self, disk: u32, row: u32) -> BlockLocation {
        let r = u64::from(self.pgt.rows());
        let at = (u64::from(disk) * r + u64::from(row)) as usize;
        let n = loop {
            let n = self.cursor[at];
            self.cursor[at] += 1;
            if !self.is_parity_position(disk, row, n) {
                break n;
            }
        };
        BlockLocation::new(disk, u64::from(row) + n * r)
    }

    /// Fills the slot table with the placed data, enumerates parity groups
    /// over it, marks parity slots, and assembles the layout.
    fn finish(
        self,
        scheme: Scheme,
        streams: Vec<Vec<BlockLocation>>,
    ) -> Result<MaterializedLayout, CmsError> {
        let pgt = self.pgt;
        let d = pgt.disks();
        let r = u64::from(pgt.rows());
        let data_end = streams.iter().flatten().map(|loc| loc.block_no + 1).max().unwrap_or(0);
        let windows = data_end.div_ceil(r);

        // Every block of a window-`w` group lies below `(w + 1)·r`, so each
        // disk's slots fit `windows·r` entries, allocated once; the free
        // tail past the disk's last used block is cut off at the end.
        let mut slots = vec![vec![Slot::Free; (windows * r) as usize]; d as usize];
        for (s, stream) in streams.iter().enumerate() {
            for (i, loc) in stream.iter().enumerate() {
                let addr = StreamAddr::new(s as u32, i as u64);
                slots[loc.disk.idx()][loc.block_no as usize] = Slot::Data(addr);
            }
        }
        let data_blocks = streams.iter().map(Vec::len).sum::<usize>();
        let mut groups: Vec<ParityGroupInfo> =
            Vec::with_capacity(data_blocks.min(pgt.num_sets() * windows as usize));
        let mut group_of: Vec<Vec<usize>> =
            streams.iter().map(|s| vec![usize::MAX; s.len()]).collect();

        for set in 0..pgt.num_sets() {
            let (members, rows) = (pgt.members(set), pgt.member_rows(set));
            for window in 0..windows {
                let mut data = Vec::new();
                let ppos = pgt.parity_position(set, window);
                for (pos, (&member, &row)) in members.iter().zip(rows).enumerate() {
                    if pos == ppos {
                        continue;
                    }
                    let block_no = u64::from(row) + window * r;
                    if let Slot::Data(addr) = slots[member as usize][block_no as usize] {
                        data.push(addr);
                    }
                }
                if data.is_empty() {
                    continue;
                }
                data.sort_unstable();
                // Mark the parity slot.
                let parity_disk = members[ppos];
                let pblock = u64::from(rows[ppos]) + window * r;
                let pslot = &mut slots[parity_disk as usize][pblock as usize];
                debug_assert_eq!(*pslot, Slot::Free, "parity slot collision");
                let gid = groups.len();
                *pslot = Slot::Parity(gid);
                for &addr in &data {
                    group_of[addr.stream as usize][addr.index as usize] = gid;
                }
                groups.push(ParityGroupInfo {
                    data,
                    parity: BlockLocation::new(parity_disk, pblock),
                    extra: Vec::new(),
                });
            }
        }

        for disk in &mut slots {
            let used = disk.iter().rposition(|&slot| slot != Slot::Free).map_or(0, |i| i + 1);
            disk.truncate(used);
        }

        MaterializedLayout::assemble(
            scheme,
            d,
            pgt.group_size(),
            streams,
            slots,
            groups,
            group_of,
            Some(pgt.clone()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cms_bibd::{Design, DesignSource, Pgt};
    use cms_core::DiskId;

    /// The paper's Example 1 PGT (d = 7, p = 3).
    fn paper_pgt() -> Pgt {
        Pgt::new(&Design::new(
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
        ))
    }

    /// Expected placement of the paper's worked example: the first 42 data
    /// blocks on the (7 disk × 9 block) table printed in Section 4.1.
    /// `expected[i] = (disk, block_no)` for data block `D_i`.
    fn paper_placement() -> Vec<(u32, u64)> {
        vec![
            (0, 0), // D0
            (1, 0), // D1
            (2, 0), // D2
            (3, 3), // D3  — the example the paper spells out
            (4, 3), // D4
            (5, 3), // D5
            (6, 3), // D6
            (0, 1), // D7
            (1, 1), // D8
            (2, 1), // D9
            (3, 1), // D10
            (4, 1), // D11
            (5, 4), // D12
            (6, 4), // D13
            (0, 2), // D14
            (1, 2), // D15
            (2, 2), // D16
            (3, 2), // D17
            (4, 2), // D18
            (5, 2), // D19
            (6, 5), // D20
            (0, 3), // D21
            (1, 6), // D22
            (2, 6), // D23
            (3, 6), // D24
            (4, 6), // D25
            (5, 6), // D26
            (6, 6), // D27
            (0, 4), // D28
            (1, 4), // D29
            (2, 4), // D30
            (3, 7), // D31
            (4, 7), // D32
            (5, 7), // D33
            (6, 7), // D34
            (0, 5), // D35
            (1, 5), // D36
            (2, 8), // D37
            (3, 5), // D38
            (4, 8), // D39
            (5, 8), // D40
            (6, 8), // D41
        ]
    }

    #[test]
    fn reproduces_paper_placement_table() {
        let layout = build(&paper_pgt(), 42).unwrap();
        for (i, &(disk, block)) in paper_placement().iter().enumerate() {
            let loc = layout.locate(StreamAddr::new(0, i as u64));
            assert_eq!(
                (loc.disk.raw(), loc.block_no),
                (disk, block),
                "data block D{i} must be at disk{disk}:{block}, got {loc}"
            );
        }
    }

    #[test]
    fn paper_parity_examples_hold() {
        // "P0 is the parity block for data blocks D0 and D1" (on disk 3,
        // block 0); "P1 is the parity block for data blocks D8 and D2"
        // (on disk 4, block 0).
        let layout = build(&paper_pgt(), 42).unwrap();
        let g0 = layout.group(layout.group_id_of(StreamAddr::new(0, 0)));
        assert_eq!(g0.data, vec![StreamAddr::new(0, 0), StreamAddr::new(0, 1)]);
        assert_eq!(g0.parity, BlockLocation::new(3, 0));

        let g1 = layout.group(layout.group_id_of(StreamAddr::new(0, 2)));
        assert_eq!(g1.data, vec![StreamAddr::new(0, 2), StreamAddr::new(0, 8)]);
        assert_eq!(g1.parity, BlockLocation::new(4, 0));
    }

    #[test]
    fn group_members_live_on_member_disks() {
        let layout = build(&paper_pgt(), 42).unwrap();
        let pgt = layout.pgt().unwrap();
        for i in 0..42u64 {
            let addr = StreamAddr::new(0, i);
            let loc = layout.locate(addr);
            let set = pgt.set_of_block(loc.disk.raw(), loc.block_no);
            let g = layout.group(layout.group_id_of(addr));
            // Parity disk must be the rotated member for this window.
            let window = pgt.window_of_block(loc.block_no);
            assert_eq!(g.parity.disk.raw(), pgt.parity_disk(set, window));
            // All data members map to the same set and window.
            for &other in &g.data {
                let oloc = layout.locate(other);
                assert_eq!(pgt.set_of_block(oloc.disk.raw(), oloc.block_no), set);
                assert_eq!(pgt.window_of_block(oloc.block_no), window);
            }
        }
    }

    #[test]
    fn consecutive_blocks_on_consecutive_disks() {
        let layout = build(&paper_pgt(), 42).unwrap();
        for i in 0..41u64 {
            let a = layout.locate(StreamAddr::new(0, i));
            let b = layout.locate(StreamAddr::new(0, i + 1));
            assert_eq!(b.disk, a.disk.successor(7), "block {i} → {}", i + 1);
        }
    }

    #[test]
    fn property2_row_follows_to_next_disk() {
        // Section 4.2 Property 2: if two data blocks on a disk map to the
        // same row, their successors (next block of each clip) map to the
        // same row too.
        let layout = build(&paper_pgt(), 280).unwrap();
        for i in 0..279u64 {
            let row_a = layout.row_of(StreamAddr::new(0, i)).unwrap();
            let row_b = layout.row_of(StreamAddr::new(0, i + 1)).unwrap();
            // Following the paper's round-robin: the successor keeps the
            // row unless the disk wraps (then the row advances by one).
            if (i + 1) % 7 == 0 {
                assert_eq!(row_b, (row_a + 1) % 3, "wrap at block {i}");
            } else {
                assert_eq!(row_b, row_a, "no wrap at block {i}");
            }
        }
    }

    #[test]
    fn super_clip_streams_pin_rows() {
        let pgt = paper_pgt();
        let layout = build_super_clips(&pgt, 70).unwrap();
        assert_eq!(layout.num_streams(), 3);
        for k in 0..3u32 {
            for i in 0..70u64 {
                let addr = StreamAddr::new(k, i);
                assert_eq!(
                    layout.row_of(addr),
                    Some(k),
                    "stream {k} block {i} must map to row {k}"
                );
                let loc = layout.locate(addr);
                assert_eq!(loc.disk.raw(), (i % 7) as u32);
            }
        }
    }

    #[test]
    fn super_clip_group_partners_lie_on_set_disks() {
        // A stream-k block on disk j belongs to set PGT[k][j]; its group
        // partners (possibly blocks of *other* super-clips — groups mix
        // streams by design) must lie exactly on that set's other disks.
        let pgt = paper_pgt();
        let layout = build_super_clips(&pgt, 70).unwrap();
        for k in 0..3u32 {
            for i in 0..70u64 {
                let addr = StreamAddr::new(k, i);
                let loc = layout.locate(addr);
                let set = pgt.set_at(k, loc.disk.raw());
                let g = layout.group(layout.group_id_of(addr));
                for &other in &g.data {
                    let od = layout.locate(other).disk.raw();
                    assert!(
                        pgt.members(set).contains(&od),
                        "partner of {addr} on disk {od} outside set {set}"
                    );
                }
                assert!(pgt.members(set).contains(&g.parity.disk.raw()));
            }
        }
    }

    #[test]
    fn reconstruction_reads_exclude_self_and_end_with_parity() {
        let layout = build(&paper_pgt(), 42).unwrap();
        let addr = StreamAddr::new(0, 0);
        let reads = layout.reconstruction_reads(addr);
        // Group of D0: data D0, D1, parity on disk 3 → reads = [D1, P0].
        assert_eq!(reads.len(), 2);
        assert_eq!(reads[0], layout.locate(StreamAddr::new(0, 1)));
        assert_eq!(reads[1], BlockLocation::new(3, 0));
        let self_loc = layout.locate(addr);
        assert!(!reads.contains(&self_loc));
    }

    #[test]
    fn storage_overhead_near_one_over_p_minus_one() {
        // For p = 3, parity overhead ≈ 1/(p−1) = 50% once windows fill.
        let layout = build(&paper_pgt(), 4200).unwrap();
        let overhead = layout.parity_overhead();
        assert!(
            (overhead - 0.5).abs() < 0.05,
            "overhead {overhead} should be near 0.5"
        );
    }

    #[test]
    fn balanced_use_of_disks() {
        let layout = build(&paper_pgt(), 700).unwrap();
        let used: Vec<u64> = (0..7).map(|d| layout.blocks_used(DiskId(d))).collect();
        let (min, max) = (
            *used.iter().min().unwrap(),
            *used.iter().max().unwrap(),
        );
        assert!(max - min <= 3, "disk usage spread too wide: {used:?}");
    }

    #[test]
    fn slot_tables_end_at_each_disks_last_used_block() {
        // `blocks_used` feeds capacity checks and rebuild totals, so each
        // disk's slot table must stop at its own highest used block.
        let pgt = paper_pgt();
        for layout in [build(&pgt, 40).unwrap(), build_super_clips(&pgt, 50).unwrap()] {
            for disk in (0..7).map(DiskId) {
                let used = layout.blocks_used(disk);
                assert!(used > 0, "{disk} holds blocks");
                assert_ne!(layout.slot(disk, used - 1), Slot::Free, "{disk} ends on a used block");
            }
        }
    }

    #[test]
    fn works_with_fallback_designs_for_paper_dimensions() {
        use cms_bibd::{best_design, DesignRequest};
        for p in [4u32, 8, 16] {
            let design = best_design(DesignRequest::new(32, p)).unwrap();
            let pgt = Pgt::new(&design);
            let layout = build(&pgt, 3200).unwrap();
            assert_eq!(layout.total_data_blocks(), 3200);
            // Every data block is in a group whose parity is elsewhere.
            for i in 0..3200u64 {
                let addr = StreamAddr::new(0, i);
                let g = layout.group(layout.group_id_of(addr));
                assert_ne!(g.parity.disk, layout.locate(addr).disk);
            }
        }
    }
}
