//! Uniform, flat parity placement (Section 6.2, Figure 3).
//!
//! All `d` disks hold data; blocks are striped round-robin over the whole
//! array. Groups are runs of `p−1` consecutive data blocks (clusters of
//! `p−1` disks). The parity block for a group whose last member is the
//! `j`-th data block of its disk is stored on the
//! `(j mod (d−(p−1)))`-th disk *following* the cluster's last disk — so
//! parity rotates uniformly over the disks outside the cluster, which is
//! what lets every disk absorb an equal share of the post-failure parity
//! reads.
//!
//! Physically, data blocks fill the top of every disk and parity blocks
//! are appended below the data region, exactly as Figure 3 draws it.

use crate::materialized::{data_blocks, MaterializedLayout};
use cms_core::{CmsError, Scheme};

/// Builds the flat layout with `num_data_blocks` placed.
///
/// # Errors
///
/// Returns [`CmsError::InvalidParams`] unless `2 <= p <= d` and
/// `p − 1 < d` (there must be at least one disk outside each cluster to
/// hold its parity), or (before allocating) if the blocks would not fit
/// the layout's 32-bit tables.
pub fn build(d: u32, p: u32, num_data_blocks: u64) -> Result<MaterializedLayout, CmsError> {
    if p < 2 || p > d {
        return Err(CmsError::invalid_params(
            "need 2 <= p <= d (the parity disk lives outside the p−1-disk cluster)",
        ));
    }
    let n = data_blocks(num_data_blocks)?;
    let span = p - 1;
    let locs = (0..n).map(|i| (i % d, i / d)).collect();

    // Parity region starts below the data region on every disk.
    let mut parity_cursor = vec![n.div_ceil(d); d as usize];
    let groups = n.div_ceil(span);
    let mut redundancy = Vec::with_capacity(groups as usize);
    for g in 0..groups {
        // Figure 3 rule: last member's disk and its per-disk data row pick
        // the parity disk. A terminal partial group (stream length not a
        // multiple of p−1) uses its *nominal* last index — where the group
        // would end if the stripe continued — so the parity-disk rotation
        // stays on the §6.2 period d−(p−1) and admission's closed-form
        // geometry agrees with the layout for every group, including the
        // clipped one. (Keying it to the actual last member instead would
        // silently shift the tail group's parity class; admission would
        // then under-count shared-parity pairs and a disk could exceed q
        // after a failure.)
        let last_idx = u64::from(g) * u64::from(span) + u64::from(span) - 1;
        let last_disk = last_idx % u64::from(d);
        let j = last_idx / u64::from(d); // row of the last member on its disk
        let offset = j % u64::from(d - span);
        let parity_disk = ((last_disk + 1 + offset) % u64::from(d)) as u32;
        let cursor = &mut parity_cursor[parity_disk as usize];
        redundancy.push((parity_disk, *cursor));
        *cursor += 1;
    }
    MaterializedLayout::striped(Scheme::PrefetchFlat, d, p, 1, span, locs, redundancy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Slot, StreamAddr};
    use cms_core::DiskId;

    /// The paper's Figure 3: d = 9, p = 4 (clusters of 3), 54 data blocks.
    fn figure3() -> MaterializedLayout {
        build(9, 4, 54).unwrap()
    }

    #[test]
    fn figure3_data_fills_six_rows_round_robin() {
        let layout = figure3();
        for i in 0..54u64 {
            let loc = layout.locate(StreamAddr::new(0, i));
            assert_eq!(loc.disk.raw() as u64, i % 9);
            assert_eq!(loc.block_no, i / 9);
        }
    }

    #[test]
    fn figure3_parity_disks_match_the_paper() {
        // From Figure 3 (parity of D_{3i}, D_{3i+1}, D_{3i+2}):
        //   P0→disk3, P1→disk6, P2→disk0, P3→disk4, P4→disk7, P5→disk1,
        //   P6→disk5, P7→disk8, P8→disk2, P9→disk6, P10→disk0, P11→disk3,
        //   P12→disk4, P13→disk5(!), P14→disk4?, ...
        // The figure's columns list, top parity row then bottom:
        //   disk0: P10 P2 | disk1: P13 P5 | disk2: P16 P8 | disk3: P0 P11
        //   disk4: P3 P14 | disk5: P6 P17 | disk6: P9 P1 | disk7: P12 P4
        //   disk8: P15 P7
        let expected = [
            (0u64, 3u32),
            (1, 6),
            (2, 0),
            (3, 4),
            (4, 7),
            (5, 1),
            (6, 5),
            (7, 8),
            (8, 2),
            (9, 6),
            (10, 0),
            (11, 3),
            (12, 7),
            (13, 1),
            (14, 4),
            (15, 8),
            (16, 2),
            (17, 5),
        ];
        let layout = figure3();
        for &(g, disk) in &expected {
            assert_eq!(
                layout.group(g as usize).parity().disk.raw(),
                disk,
                "P{g} must sit on disk {disk}"
            );
        }
    }

    #[test]
    fn figure3_parity_region_below_data() {
        let layout = figure3();
        for gid in 0..layout.num_groups() {
            assert!(
                layout.group(gid).parity().block_no >= 6,
                "parity of group {gid} must be below the 6 data rows"
            );
        }
        // Two parity blocks per disk (18 groups / 9 disks).
        for disk in 0..9 {
            assert_eq!(layout.blocks_used(DiskId(disk)), 8);
        }
    }

    #[test]
    fn parity_never_lands_in_its_own_cluster() {
        let layout = figure3();
        for gid in 0..layout.num_groups() {
            let g = layout.group(gid);
            let member_disks: Vec<u32> = g.data().map(|a| layout.locate(a).disk.raw()).collect();
            assert!(
                !member_disks.contains(&g.parity().disk.raw()),
                "group {gid}: parity on a member disk"
            );
        }
    }

    #[test]
    fn groups_whose_parity_shares_a_disk_repeat_every_d_minus_cluster() {
        // Section 6.2: "parity blocks for the i-th and (i + j·(d−(p−1)))-th
        // data block on a disk are stored on the same disk". With d = 9,
        // p = 4: period 6 data rows.
        let layout = build(9, 4, 9 * 12).unwrap();
        // Group containing the block at disk 2, rows 0 and 6 (i = 2 and
        // i = 2 + 9·6 = 56 → same column, 6 rows apart).
        let g_a = layout.group_id_of(StreamAddr::new(0, 2));
        let g_b = layout.group_id_of(StreamAddr::new(0, 2 + 9 * 6));
        assert_eq!(
            layout.group(g_a).parity().disk,
            layout.group(g_b).parity().disk,
            "parity disks must coincide at period d−(p−1)"
        );
    }

    #[test]
    fn wraparound_clusters_for_indivisible_d() {
        // d = 32, p = 4: clusters of 3 do not divide 32; groups wrap the
        // ring but members stay distinct and parity stays outside.
        let layout = build(32, 4, 3200).unwrap();
        for gid in 0..layout.num_groups() {
            let g = layout.group(gid);
            let mut disks: Vec<u32> = g.data().map(|a| layout.locate(a).disk.raw()).collect();
            disks.push(g.parity().disk.raw());
            disks.sort_unstable();
            let n = disks.len();
            disks.dedup();
            assert_eq!(disks.len(), n, "group {gid} repeats a disk");
        }
    }

    #[test]
    fn parity_load_is_roughly_uniform() {
        let layout = build(32, 8, 32 * 7 * 20).unwrap();
        let counts: Vec<u64> = (0..32)
            .map(|disk| {
                (0..layout.blocks_used(DiskId(disk)))
                    .filter(|&b| matches!(layout.slot(DiskId(disk), b), Slot::Parity(_)))
                    .count() as u64
            })
            .collect();
        let (min, max) = (
            *counts.iter().min().unwrap(),
            *counts.iter().max().unwrap(),
        );
        assert!(
            max - min <= 3,
            "parity blocks should spread evenly, got {counts:?}"
        );
    }

    #[test]
    fn terminal_partial_group_keeps_nominal_parity_rotation() {
        // 736 blocks, span 3: the last group holds only block 735 (disk 3).
        // Its parity disk must come from the nominal window [735, 738) —
        // last index 737 on disk 5, row 122, offset 122 mod 3 = 2 → disk 2
        // — not from the actual last member (disk 3, row 122 → disk 0).
        // The closed-form admission geometry assumes the former; keying the
        // clipped group to its real last member shifts its parity class and
        // lets shared-parity pairs exceed the contingency reserve.
        let layout = build(6, 4, 736).unwrap();
        let gid = layout.group_id_of(StreamAddr::new(0, 735));
        let g = layout.group(gid);
        assert_eq!(g.data_len(), 1, "terminal group holds the single leftover block");
        assert_eq!(g.parity().disk.raw(), 2, "parity keyed to the nominal window");
        // And the §6.2 period still holds against the full group one
        // parity-sharing period earlier: nominal last 737 vs 737 − 6·3.
        let earlier = layout.group_id_of(StreamAddr::new(0, 735 - 6 * 3));
        assert_eq!(
            layout.group(earlier).parity().disk,
            g.parity().disk,
            "clipped group stays in its d−(p−1) parity class"
        );
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(build(4, 5, 10).is_err()); // p > d
        assert!(build(4, 1, 10).is_err());
        assert!(build(3, 4, 10).is_err());
    }

    #[test]
    fn mirroring_p2_rotates_partners() {
        let layout = build(8, 2, 64).unwrap();
        // Groups of one block; mirror disk rotates with the row.
        let p0 = layout.group(layout.group_id_of(StreamAddr::new(0, 0))).parity().disk;
        let p8 = layout.group(layout.group_id_of(StreamAddr::new(0, 8))).parity().disk;
        assert_ne!(p0, p8, "mirror partner must rotate across rows");
    }
}
