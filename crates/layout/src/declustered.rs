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

use crate::materialized::{data_blocks, MaterializedLayout, SlotTable};
use cms_bibd::Pgt;
use cms_core::{CmsError, Scheme};

/// Builds the single-stream declustered layout with `num_data_blocks`
/// blocks placed (Scheme: [`Scheme::DeclusteredParity`]).
///
/// # Errors
///
/// Returns [`CmsError::InvalidParams`] before allocating if the blocks
/// would not fit the layout's 32-bit tables, or if assembly invariants
/// fail (which would indicate a construction bug, not bad input).
pub fn build(pgt: &Pgt, num_data_blocks: u64) -> Result<MaterializedLayout, CmsError> {
    let n = data_blocks(num_data_blocks)?;
    let d = u64::from(pgt.disks());
    let r = u64::from(pgt.rows());
    let mut alloc = Allocator::new(pgt);
    let mut locs = Vec::with_capacity(n as usize);
    for i in 0..u64::from(n) {
        let disk = (i % d) as u32;
        let row = ((i / d) % r) as u32;
        locs.push((disk, alloc.place(disk, row)?));
    }
    alloc.finish(Scheme::DeclusteredParity, vec![0, n], locs)
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
    let d = u64::from(pgt.disks());
    let r = pgt.rows();
    let n = data_blocks(u64::from(r).saturating_mul(blocks_per_stream))?;
    let len = n / r;
    let mut alloc = Allocator::new(pgt);
    let mut locs = Vec::with_capacity(n as usize);
    for k in 0..r {
        for i in 0..u64::from(len) {
            let disk = (i % d) as u32;
            locs.push((disk, alloc.place(disk, k)?));
        }
    }
    let stream_start = (0..=r).map(|k| k * len).collect();
    alloc.finish(Scheme::DynamicReservation, stream_start, locs)
}

/// `block_no` as the layout's tables store it.
///
/// # Errors
///
/// [`CmsError::InvalidParams`] unless it is below `2^32 − 1`, so that
/// the disk's block count fits too.
fn block32(disk: u32, block_no: u64) -> Result<u32, CmsError> {
    u32::try_from(block_no).ok().filter(|&b| b < u32::MAX).ok_or_else(|| {
        CmsError::invalid_params(format!("block {block_no} of disk {disk} exceeds 2^32 - 2"))
    })
}

/// Shared allocation machinery for both declustered builders.
struct Allocator<'a> {
    pgt: &'a Pgt,
    /// `cursor[disk * r + row]` = next window to try for data placement.
    /// Each (disk, row, window) block is handed out at most once, so data
    /// blocks never collide; every window below the cursor holds data
    /// unless it is the parity position of its set.
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

    fn cursor_at(&self, disk: u32, row: u32) -> usize {
        (u64::from(disk) * u64::from(self.pgt.rows()) + u64::from(row)) as usize
    }

    /// The block number of the first non-parity, unallocated block of
    /// `row` on `disk` (Figure 2's `n`-search).
    ///
    /// # Errors
    ///
    /// [`CmsError::InvalidParams`] if the block number would not fit the
    /// layout's 32-bit tables.
    fn place(&mut self, disk: u32, row: u32) -> Result<u32, CmsError> {
        let r = u64::from(self.pgt.rows());
        let at = self.cursor_at(disk, row);
        let n = loop {
            let n = self.cursor[at];
            self.cursor[at] += 1;
            if !self.is_parity_position(disk, row, n) {
                break n;
            }
        };
        block32(disk, u64::from(row) + n * r)
    }

    /// Enumerates the parity groups over the placed data, marks their
    /// parity slots, and assembles the layout. Groups are numbered set by
    /// set, window by window; a group exists when at least one of its
    /// data positions holds a block.
    fn finish(
        self,
        scheme: Scheme,
        stream_start: Vec<u32>,
        locs: Vec<(u32, u32)>,
    ) -> Result<MaterializedLayout, CmsError> {
        let pgt = self.pgt;
        let d = pgt.disks();
        let r = pgt.rows();
        let data_end = locs.iter().map(|&(_, b)| u64::from(b) + 1).max().unwrap_or(0);
        let windows = data_end.div_ceil(u64::from(r));
        let block_no = |row: u32, window: u64| u64::from(row) + window * u64::from(r);

        // Size the tables first: each disk's slots end at its highest
        // data or parity block. A data position of a group holds a block
        // exactly when its window is below the position's cursor (it is
        // not the set's parity position in that window).
        let mut used = vec![0u32; d as usize];
        for &(disk, block_no) in &locs {
            used[disk as usize] = used[disk as usize].max(block_no + 1);
        }
        let mut groups = 0usize;
        for set in 0..pgt.num_sets() {
            let cells = pgt.members(set).iter().zip(pgt.member_rows(set)).enumerate();
            for window in 0..windows {
                let ppos = pgt.parity_position(set, window);
                let placed = cells.clone().any(|(pos, (&disk, &row))| {
                    pos != ppos && window < self.cursor[self.cursor_at(disk, row)]
                });
                if placed {
                    groups += 1;
                    let disk = pgt.members(set)[ppos];
                    let pblock = block32(disk, block_no(pgt.member_rows(set)[ppos], window))?;
                    used[disk as usize] = used[disk as usize].max(pblock + 1);
                }
            }
        }
        drop(self.cursor);

        let mut slots = SlotTable::new(&used)?;
        for (i, &(disk, block_no)) in locs.iter().enumerate() {
            slots.set_data(disk, block_no, i as u32);
        }
        let mut group_of = vec![u32::MAX; locs.len()];
        let mut member_start = Vec::with_capacity(groups + 1);
        let mut members = Vec::with_capacity(locs.len());
        let mut redundancy = Vec::with_capacity(groups);
        member_start.push(0);
        for set in 0..pgt.num_sets() {
            let cells = pgt.members(set).iter().zip(pgt.member_rows(set)).enumerate();
            for window in 0..windows {
                let ppos = pgt.parity_position(set, window);
                let first = members.len();
                for (_, (&disk, &row)) in cells.clone().filter(|&(pos, _)| pos != ppos) {
                    members.extend(slots.data_at(disk, block_no(row, window)));
                }
                if members.len() == first {
                    continue;
                }
                members[first..].sort_unstable();
                // Sized above, so the block number fits.
                let parity_disk = pgt.members(set)[ppos];
                let pblock = block_no(pgt.member_rows(set)[ppos], window) as u32;
                let gid = redundancy.len() as u32;
                slots.set_parity(parity_disk, pblock, gid);
                for &i in &members[first..] {
                    group_of[i as usize] = gid;
                }
                member_start.push(members.len() as u32);
                redundancy.push((parity_disk, pblock));
            }
        }
        debug_assert_eq!(redundancy.len(), groups, "sizing and filling disagree on groups");

        MaterializedLayout {
            scheme,
            d,
            p: pgt.group_size(),
            m: 1,
            rows: Some(r),
            stream_start,
            locs,
            group_of,
            slots,
            member_start,
            members,
            redundancy,
        }
        .checked()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{BlockLocation, Slot, StreamAddr};
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
        assert!(g0.data().eq([StreamAddr::new(0, 0), StreamAddr::new(0, 1)]));
        assert_eq!(g0.parity(), BlockLocation::new(3, 0));

        let g1 = layout.group(layout.group_id_of(StreamAddr::new(0, 2)));
        assert!(g1.data().eq([StreamAddr::new(0, 2), StreamAddr::new(0, 8)]));
        assert_eq!(g1.parity(), BlockLocation::new(4, 0));
    }

    #[test]
    fn group_members_live_on_member_disks() {
        let pgt = paper_pgt();
        let layout = build(&pgt, 42).unwrap();
        for i in 0..42u64 {
            let addr = StreamAddr::new(0, i);
            let loc = layout.locate(addr);
            let set = pgt.set_of_block(loc.disk.raw(), loc.block_no);
            let g = layout.group(layout.group_id_of(addr));
            // Parity disk must be the rotated member for this window.
            let window = pgt.window_of_block(loc.block_no);
            assert_eq!(g.parity().disk.raw(), pgt.parity_disk(set, window));
            // All data members map to the same set and window.
            for other in g.data() {
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
                for other in g.data() {
                    let od = layout.locate(other).disk.raw();
                    assert!(
                        pgt.members(set).contains(&od),
                        "partner of {addr} on disk {od} outside set {set}"
                    );
                }
                assert!(pgt.members(set).contains(&g.parity().disk.raw()));
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
                assert_ne!(g.parity().disk, layout.locate(addr).disk);
            }
        }
    }

    #[test]
    fn block_counts_past_the_tables_are_refused_before_allocating() {
        let pgt = paper_pgt();
        for result in [build(&pgt, 1 << 40), build_super_clips(&pgt, u64::MAX)] {
            assert!(matches!(result, Err(CmsError::InvalidParams { .. })), "{result:?}");
        }
    }
}
