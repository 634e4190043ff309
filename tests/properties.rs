//! Cross-crate property-based tests: random dimensions, random failure
//! scenarios, random workloads — the invariants must hold everywhere, not
//! just at the paper's evaluation points.

use cms_bibd::{best_design, DesignRequest, Pgt};
use cms_core::units::mbps;
use cms_core::{ClipId, ContinuityBudget, DiskId, DiskParams, Scheme};
use cms_layout::{clustered, declustered, flat, Slot, StreamAddr};
use cms_server::CmServer;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any (v, k) in range yields a design with equal replication, and
    /// its PGT's reconstruction overlap is bounded by the design's λ_max.
    #[test]
    fn design_and_pgt_invariants(v in 4u32..24, k_off in 0u32..6, seed in 0u64..1000) {
        let k = 3 + k_off % (v - 2).max(1);
        prop_assume!(k >= 3 && k <= v);
        let design = best_design(DesignRequest { v, k, allow_fallback: true, seed })
            .expect("fallback always exists for k >= 3");
        let stats = design.stats();
        prop_assert!(stats.equal_replication());
        let pgt = Pgt::new(&design);
        for i in 0..v {
            for j in 0..v {
                prop_assert!(pgt.reconstruction_overlap(i, j) <= stats.lambda_max);
            }
        }
    }

    /// The declustered layout always produces recoverable blocks: the
    /// reconstruction reads of any block land on pairwise-distinct disks,
    /// none of them the block's own disk.
    #[test]
    fn declustered_blocks_are_recoverable(
        v in 5u32..16,
        k in 3u32..6,
        blocks in 20u64..200,
        seed in 0u64..100,
    ) {
        prop_assume!(k <= v);
        let design = best_design(DesignRequest { v, k, allow_fallback: true, seed }).unwrap();
        let layout = declustered::build(&Pgt::new(&design), blocks).unwrap();
        for i in 0..blocks {
            let addr = StreamAddr::new(0, i);
            let own = layout.locate(addr).disk;
            let reads = layout.reconstruction_reads(addr);
            prop_assert!(!reads.is_empty(), "block {i} must have survivors");
            let mut disks: Vec<_> = reads.iter().map(|l| l.disk).collect();
            prop_assert!(!disks.contains(&own));
            disks.sort();
            let n = disks.len();
            disks.dedup();
            prop_assert_eq!(disks.len(), n, "survivor disks must be distinct");
        }
    }

    /// Clustered and flat layouts keep parity off their groups' data
    /// disks for arbitrary sizes.
    #[test]
    fn parity_placement_never_collides(
        clusters in 2u32..6,
        p in 2u32..6,
        rows in 2u64..20,
    ) {
        let d = clusters * p;
        let n = u64::from(d - clusters) * rows;
        let layout = clustered::build(Scheme::PrefetchParityDisks, d, p, n).unwrap();
        for gid in 0..layout.num_groups() {
            let g = layout.group(gid);
            for a in g.data() {
                prop_assert_ne!(layout.locate(a).disk, g.parity().disk);
            }
        }
        let layout = flat::build(d, p.min(d - 1).max(2), u64::from(d) * rows).unwrap();
        for gid in 0..layout.num_groups() {
            let g = layout.group(gid);
            for a in g.data() {
                prop_assert_ne!(layout.locate(a).disk, g.parity().disk);
            }
        }
    }

    /// Equation 1 is exactly the admission boundary: q admits, q+1 does
    /// not, across arbitrary block sizes.
    #[test]
    fn continuity_budget_is_tight(kb in 24u64..4096) {
        let disk = DiskParams::sigmod96();
        if let Ok(budget) = ContinuityBudget::solve(&disk, kb * 1024, mbps(1.5)) {
            prop_assert!(budget.busy_time(budget.q) <= budget.round + 1e-9);
            prop_assert!(budget.busy_time(budget.q + 1) > budget.round);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The headline guarantee, fuzzed: random scheme, random failure
    /// round, random failed disk, random request pattern — zero hiccups,
    /// zero parity mismatches, all clips complete.
    #[test]
    fn rate_guarantees_hold_under_random_failures(
        scheme_idx in 0usize..5,
        fail_round in 1u64..30,
        disk in 0u32..8,
        request_seed in 0u64..50,
    ) {
        let scheme = [
            Scheme::DeclusteredParity,
            Scheme::DynamicReservation,
            Scheme::PrefetchParityDisks,
            Scheme::PrefetchFlat,
            Scheme::StreamingRaid,
        ][scheme_idx];
        let mut server = CmServer::builder(scheme)
            .disks(8)
            .buffer_bytes(64 << 20)
            .catalog(40, 20)
            .verify_reconstructions()
            .seed(request_seed)
            .build()
            .unwrap();
        for i in 0..14u64 {
            server.request(ClipId((i * 7 + request_seed) % 40)).unwrap();
        }
        server.run_rounds(fail_round);
        server.fail_disk(DiskId(disk)).unwrap();
        server.run_rounds(120);
        let m = server.metrics();
        prop_assert_eq!(m.completed, 14);
        prop_assert_eq!(m.hiccups, 0, "{} failed at round {}", scheme, fail_round);
        prop_assert_eq!(m.parity_mismatches, 0);
    }
}

/// Non-proptest sweep: the layout slot tables and stream maps agree for
/// every scheme at a paper-like size (the MaterializedLayout invariant
/// checker runs inside `build`; this exercises it at scale).
#[test]
fn layouts_build_at_paper_scale() {
    let design = best_design(DesignRequest::new(32, 8)).unwrap();
    let pgt = Pgt::new(&design);
    let layout = declustered::build(&pgt, 50_000).unwrap();
    assert_eq!(layout.total_data_blocks(), 50_000);
    let layout = declustered::build_super_clips(&pgt, 10_000).unwrap();
    assert_eq!(layout.num_streams(), pgt.rows());
    let layout = clustered::build(Scheme::StreamingRaid, 32, 8, 50_000).unwrap();
    assert_eq!(layout.total_data_blocks(), 50_000);
    let layout = flat::build(32, 8, 50_000).unwrap();
    // All 32 disks carry both data and parity in the flat scheme.
    for disk in 0..32 {
        let used = layout.blocks_used(DiskId(disk));
        let has_parity = (0..used)
            .any(|b| matches!(layout.slot(DiskId(disk), b), Slot::Parity(_)));
        assert!(has_parity, "disk {disk} must hold parity");
    }
}
