//! Cross-thread determinism replay: the same seeded configuration must
//! produce bit-identical [`Metrics`] at every disk-service thread count.
//!
//! The parallel round engine computes each disk's service locally and
//! merges per-disk accounting in disk-ID order (DESIGN.md's determinism
//! contract), so thread count is purely a wall-clock knob. These tests
//! replay identical runs at 1, 2 and 8 threads — fault-free, through a
//! mid-run disk failure, and with background rebuild — and compare every
//! metric field, including the per-disk float accumulations that would
//! drift first if merge order ever depended on scheduling.

use cms_core::{DiskId, Scheme};
use cms_model::{tuned_point, ModelInput};
use cms_sim::{Metrics, SimConfig, Simulator, TraceSpec};
use cms_trace::{JsonlSink, SharedBuffer};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn paper_cfg(scheme: Scheme, seed: u64) -> SimConfig {
    let input = ModelInput::sigmod96(256 << 20).with_storage_blocks(75_000);
    let point = tuned_point(scheme, &input, 4, seed).expect("feasible");
    let mut cfg = SimConfig::sigmod96(scheme, &point, 32);
    cfg.rounds = 150;
    cfg.seed = seed;
    cfg
}

fn run(cfg: SimConfig) -> Metrics {
    Simulator::new(cfg).expect("constructs").run()
}

/// Field-for-field comparison with a per-field failure message; the
/// blanket `PartialEq` check alone would not say *which* metric diverged.
fn assert_identical(base: &Metrics, other: &Metrics, label: &str) {
    assert_eq!(base.rounds, other.rounds, "{label}: rounds");
    assert_eq!(base.arrivals, other.arrivals, "{label}: arrivals");
    assert_eq!(base.admitted, other.admitted, "{label}: admitted (clips serviced)");
    assert_eq!(base.completed, other.completed, "{label}: completed");
    assert_eq!(base.still_pending, other.still_pending, "{label}: still_pending");
    assert_eq!(base.wait_rounds_total, other.wait_rounds_total, "{label}: wait_rounds_total");
    assert_eq!(base.wait_rounds_max, other.wait_rounds_max, "{label}: wait_rounds_max");
    assert_eq!(base.blocks_consumed, other.blocks_consumed, "{label}: blocks_consumed");
    assert_eq!(base.blocks_fetched, other.blocks_fetched, "{label}: blocks_fetched");
    assert_eq!(base.recovery_reads, other.recovery_reads, "{label}: recovery_reads");
    assert_eq!(base.reconstructions, other.reconstructions, "{label}: reconstructions");
    assert_eq!(base.parity_mismatches, other.parity_mismatches, "{label}: parity_mismatches");
    assert_eq!(base.hiccups, other.hiccups, "{label}: hiccups");
    assert_eq!(base.late_serves, other.late_serves, "{label}: late_serves");
    assert_eq!(base.service_errors, other.service_errors, "{label}: service_errors");
    assert_eq!(base.peak_disk_queue, other.peak_disk_queue, "{label}: peak_disk_queue");
    assert_eq!(
        base.peak_buffered_blocks, other.peak_buffered_blocks,
        "{label}: peak_buffered_blocks"
    );
    assert_eq!(
        base.peak_utilization.to_bits(),
        other.peak_utilization.to_bits(),
        "{label}: peak_utilization must be bit-identical"
    );
    assert_eq!(base.peak_active, other.peak_active, "{label}: peak_active");
    assert_eq!(base.rebuild_reads, other.rebuild_reads, "{label}: rebuild_reads");
    assert_eq!(base.rebuilt_blocks, other.rebuilt_blocks, "{label}: rebuilt_blocks");
    assert_eq!(
        base.rebuild_completed_round, other.rebuild_completed_round,
        "{label}: rebuild_completed_round"
    );
    assert_eq!(base.lost_streams, other.lost_streams, "{label}: lost_streams");
    assert_eq!(base.degraded_refusals, other.degraded_refusals, "{label}: degraded_refusals");
    assert_eq!(
        base.unrecoverable_blocks, other.unrecoverable_blocks,
        "{label}: unrecoverable_blocks"
    );
    assert_eq!(base.wait_histogram, other.wait_histogram, "{label}: wait_histogram");
    assert_eq!(base.disk_blocks, other.disk_blocks, "{label}: disk_blocks");
    assert_eq!(
        base.disk_recovery_reads, other.disk_recovery_reads,
        "{label}: disk_recovery_reads"
    );
    assert_eq!(base.disk_rebuild_reads, other.disk_rebuild_reads, "{label}: disk_rebuild_reads");
    assert_eq!(base.disk_busy.len(), other.disk_busy.len(), "{label}: disk_busy length");
    for (disk, (a, b)) in base.disk_busy.iter().zip(&other.disk_busy).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{label}: disk {disk} busy time must be bit-identical ({a} vs {b})"
        );
    }
    // Belt and braces: the blanket comparison must agree.
    assert_eq!(base, other, "{label}: full Metrics");
}

#[test]
fn fault_free_replay_is_identical_at_any_thread_count() {
    for scheme in [Scheme::DeclusteredParity, Scheme::PrefetchFlat, Scheme::StreamingRaid] {
        let base = run(paper_cfg(scheme, 0xD0_0DE).with_threads(1));
        assert!(base.admitted > 0, "{scheme}: run must do real work");
        for threads in THREAD_COUNTS {
            let m = run(paper_cfg(scheme, 0xD0_0DE).with_threads(threads));
            assert_identical(&base, &m, &format!("{scheme} fault-free, {threads} threads"));
        }
    }
}

#[test]
fn failure_replay_is_identical_at_any_thread_count() {
    let cfg = |threads| {
        paper_cfg(Scheme::DeclusteredParity, 0xFA_11ED)
            .with_failure(40, DiskId(5))
            .with_verification()
            .with_threads(threads)
    };
    let base = run(cfg(1));
    assert!(base.reconstructions > 0, "failure must force reconstructions");
    for threads in THREAD_COUNTS {
        let m = run(cfg(threads));
        assert_identical(&base, &m, &format!("mid-run failure, {threads} threads"));
    }
}

#[test]
fn rebuild_replay_is_identical_at_any_thread_count() {
    // Background rebuild consumes per-disk slack computed from the same
    // service pass, so it is the metric most sensitive to any accounting
    // reorder.
    let cfg = |threads| {
        let mut c = paper_cfg(Scheme::DeclusteredParity, 0x2EB_111D)
            .with_failure(30, DiskId(2))
            .with_rebuild()
            .with_threads(threads);
        c.catalog_clips = 200; // small library so the rebuild progresses
        c
    };
    let base = run(cfg(1));
    assert!(base.rebuild_reads > 0, "rebuild must issue reads");
    for threads in THREAD_COUNTS {
        let m = run(cfg(threads));
        assert_identical(&base, &m, &format!("background rebuild, {threads} threads"));
    }
}

#[test]
fn fault_schedule_replay_is_identical_at_any_thread_count() {
    // A full multi-event campaign — transient outage, hard failure with
    // background rebuild, slow-disk window, repair — under degraded-mode
    // admission. Every fault path (strand/recovery/rebuild/refusal) must
    // merge deterministically.
    let cfg = |threads| {
        let faults = cms_sim::FaultSchedule::parse(
            "@20 transient 3 rounds=8\n@40 fail 5\n@60 slow 7 factor=3 rounds=12\n@90 repair 5\n",
        )
        .expect("schedule parses");
        let mut c = paper_cfg(Scheme::DeclusteredParity, 0xFA_5C4D)
            .with_faults(faults)
            .with_degraded_admission()
            .with_rebuild()
            .with_verification()
            .with_threads(threads);
        c.catalog_clips = 200;
        c
    };
    let base = run(cfg(1));
    assert!(base.recovery_reads > 0, "the schedule must force recovery");
    for threads in THREAD_COUNTS {
        let m = run(cfg(threads));
        assert_identical(&base, &m, &format!("fault schedule, {threads} threads"));
    }
}

#[test]
fn auto_thread_count_matches_sequential() {
    // threads = 0 resolves to the machine's available parallelism —
    // whatever that is, the result must equal the sequential run.
    let base = run(paper_cfg(Scheme::DynamicReservation, 0xA0_70).with_threads(1));
    let auto = run(paper_cfg(Scheme::DynamicReservation, 0xA0_70).with_threads(0));
    assert_identical(&base, &auto, "auto thread count");
}

#[test]
fn uneven_pool_chunks_with_carried_backlog_replay_identically() {
    // Thirteen disks: the pool's contiguous chunks split the round buffer
    // unevenly (7 + 6 disks at 2 threads, 5 + 5 + 3 at 3, six chunks of
    // 2 and one of 1 at 8). A slow-disk window, recovery reads after a
    // mid-run failure and the background rebuild's lowest-priority reads
    // keep fetches queued across rounds, so every split also splits a
    // carried-over backlog.
    let cfg = |threads| {
        let faults = cms_sim::FaultSchedule::parse("@20 slow 4 factor=3 rounds=40\n@50 fail 7\n")
            .expect("schedule parses");
        SimConfig {
            scheme: Scheme::DeclusteredParity,
            d: 13,
            p: 4,
            m: 1,
            q: 6,
            f: 1,
            block_bytes: 1 << 20,
            catalog_clips: 80,
            clip_len: 30,
            clip_len_spread: 10,
            arrival_rate: 8.0,
            zipf_theta: 0.0,
            rounds: 160,
            failure: None,
            faults: Some(faults),
            degraded_admission: false,
            verify_parity: true,
            content_bytes: 256,
            seed: 0x0DD_D15C,
            admission_scan: 64,
            aging_limit: 200,
            auto_rebuild: true,
            threads,
            trace: TraceSpec::off(),
        }
    };
    let traced = |threads| {
        let buf = SharedBuffer::default();
        let mut sim = Simulator::new(cfg(threads)).expect("constructs");
        sim.set_trace_sink(Box::new(JsonlSink::new(buf.clone())));
        (sim.run(), buf.contents())
    };
    let (base, base_trace) = traced(1);
    assert!(base.peak_disk_queue > 6, "queues must carry fetches past the budget q = 6");
    assert!(base.late_serves > 0, "the slowed disk must serve late");
    assert!(base.reconstructions > 0 && base.rebuild_reads > 0, "the failure must be exercised");
    for threads in [1, 2, 3, 8] {
        let (m, trace) = traced(threads);
        assert_identical(&base, &m, &format!("uneven chunks, {threads} threads"));
        assert!(trace == base_trace, "uneven chunks, {threads} threads: JSONL traces diverge");
    }
}
