//! The layout's tables: what they answer and what they cost.
//!
//! Placement digests fold every accessor's answer for every data block,
//! parity group and used disk block of a layout into one FNV-1a hash per
//! case. The end-to-end goldens see only the blocks a run touches; these
//! cover all of them, so a change to how a layout is stored must
//! reproduce the placement bit for bit. Each scheme is built on two
//! geometries: one whose stream ends in a short tail group, and one with
//! `m = 2` redundancy shards for the clustered family.
//!
//! The footprint cap holds [`MaterializedLayout::heap_bytes`] to 64
//! bytes per data block. The benchmark's peak-RSS gates have several
//! times that much headroom, so this test is what keeps the tables flat.

use cms_bibd::{best_design, DesignRequest, Pgt};
use cms_core::{DiskId, Scheme};
use cms_layout::{clustered, declustered, flat, MaterializedLayout, Slot, StreamAddr};

/// FNV-1a over the little-endian bytes of each folded value.
struct Fnv(u64);

impl Fnv {
    fn add(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

fn digest(layout: &MaterializedLayout) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut reads = Vec::new();
    for b in layout.scheme().to_string().bytes() {
        h.add(b.into());
    }
    h.add(layout.num_streams().into());
    h.add(layout.redundancy().into());
    for s in 0..layout.num_streams() {
        h.add(layout.stream_len(s));
        for i in 0..layout.stream_len(s) {
            let addr = StreamAddr::new(s, i);
            let loc = layout.locate(addr);
            h.add(loc.disk.raw().into());
            h.add(loc.block_no);
            h.add(layout.group_id_of(addr) as u64);
            h.add(layout.row_of(addr).map_or(u64::MAX, u64::from));
            layout.reconstruction_reads_into(addr, &mut reads);
            h.add(reads.len() as u64);
            for read in &reads {
                h.add(read.disk.raw().into());
                h.add(read.block_no);
            }
        }
    }
    h.add(layout.num_groups() as u64);
    for gid in 0..layout.num_groups() {
        let g = layout.group(gid);
        h.add(g.data_len() as u64);
        for a in g.data() {
            h.add(a.stream.into());
            h.add(a.index);
        }
        h.add(g.redundancy() as u64);
        for loc in g.redundancy_blocks() {
            h.add(loc.disk.raw().into());
            h.add(loc.block_no);
        }
    }
    for disk in (0..layout.disks()).map(DiskId) {
        let used = layout.blocks_used(disk);
        h.add(used);
        for block_no in 0..used {
            match layout.slot(disk, block_no) {
                Slot::Free => h.add(0),
                Slot::Data(a) => {
                    h.add(1);
                    h.add(a.stream.into());
                    h.add(a.index);
                }
                Slot::Parity(gid) => {
                    h.add(2);
                    h.add(gid as u64);
                }
            }
        }
    }
    h.0
}

/// Every scheme's layout on `d` disks with group size `p`, `m`
/// redundancy shards for the clustered family, `n` data blocks (the
/// super-clip layout: `n / 8` per stream).
fn layouts(d: u32, p: u32, m: u32, n: u64) -> Vec<(Scheme, MaterializedLayout)> {
    let pgt = Pgt::new(&best_design(DesignRequest::new(d, p)).unwrap());
    let clustered = |scheme| clustered::build_with_redundancy(scheme, d, p, m, n).unwrap();
    vec![
        (Scheme::DeclusteredParity, declustered::build(&pgt, n).unwrap()),
        (Scheme::DynamicReservation, declustered::build_super_clips(&pgt, n / 8).unwrap()),
        (Scheme::PrefetchParityDisks, clustered(Scheme::PrefetchParityDisks)),
        (Scheme::StreamingRaid, clustered(Scheme::StreamingRaid)),
        (Scheme::NonClustered, clustered(Scheme::NonClustered)),
        (Scheme::PrefetchFlat, flat::build(d, p, n).unwrap()),
    ]
}

#[test]
fn every_accessor_reproduces_the_committed_placement() {
    // d = 12, p = 4: 1000 blocks leave a one-block tail group for the
    // clustered and flat spans of 3. d = 16, p = 8, m = 2: RS(6, 2)
    // clusters for the clustered family. Digests in the order of
    // `layouts`, recorded from the nested-vector layout the flat tables
    // replaced.
    let expected: [(u32, u32, u32, u64, [u64; 6]); 2] = [
        (
            12,
            4,
            1,
            1000,
            [
                0xc24f_544f_880a_ce7c,
                0x478c_465e_182f_9f1a,
                0x056b_16b9_ffe1_30fc,
                0xe40d_75d0_359d_60d0,
                0xd1b1_aada_bc1b_36d7,
                0x5ae4_0c26_a84c_40ad,
            ],
        ),
        (
            16,
            8,
            2,
            997,
            [
                0x77b8_453c_6255_5427,
                0x3790_70fd_3fcd_3018,
                0xc0be_e531_e298_3925,
                0xe6af_19a9_5242_8f89,
                0x1d64_994f_a158_b9de,
                0xad32_f2fc_5171_4f8d,
            ],
        ),
    ];
    let mut mismatches = Vec::new();
    for (d, p, m, n, digests) in expected {
        for ((scheme, layout), want) in layouts(d, p, m, n).into_iter().zip(digests) {
            let got = digest(&layout);
            if got != want {
                mismatches.push(format!("d={d} p={p} m={m} {scheme}: 0x{got:016x}"));
            }
        }
    }
    assert!(mismatches.is_empty(), "placement digests moved:\n{}", mismatches.join("\n"));
}

#[test]
fn tables_cost_at_most_64_bytes_per_data_block() {
    let pgt = |d, p| Pgt::new(&best_design(DesignRequest::new(d, p)).unwrap());
    let cases = [
        ("complete pairs, d = 200", declustered::build(&pgt(200, 2), 79_600).unwrap()),
        ("Fig. 6 cell, d = 32, p = 4", declustered::build(&pgt(32, 4), 64_000).unwrap()),
        (
            "RS(6, 2), d = 32",
            clustered::build_with_redundancy(Scheme::PrefetchParityDisks, 32, 8, 2, 48_000)
                .unwrap(),
        ),
    ];
    for (name, layout) in cases {
        let per_block = layout.heap_bytes() as f64 / layout.total_data_blocks() as f64;
        println!("{name}: {} bytes, {per_block:.1} per data block", layout.heap_bytes());
        assert!(per_block <= 64.0, "{name}: {per_block:.1} heap bytes per data block");
    }
}
