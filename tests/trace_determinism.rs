//! Cross-thread trace determinism: the exported event stream — not just
//! the metrics — must be byte-identical at every disk-service thread
//! count.
//!
//! The engine builds per-disk service events from each disk's round
//! summary in disk-ID order on the coordinating thread (DESIGN.md §6),
//! so a JSONL export is a deterministic function of the configuration
//! alone. These tests replay identical runs at 1, 2 and 8 threads —
//! fault-free, through a mid-run failure, and with background rebuild —
//! and compare the raw bytes of the export. A conservation test
//! additionally checks that per-round reports sum to the final metrics,
//! so the per-round and end-of-run views of a run can never drift apart.

use cms_core::{DiskId, Scheme};
use cms_model::{tuned_point, ModelInput};
use cms_sim::{Metrics, SimConfig, Simulator};
use cms_trace::{JsonlSink, SharedBuffer, TraceSummary};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn paper_cfg(scheme: Scheme, seed: u64) -> SimConfig {
    let input = ModelInput::sigmod96(256 << 20).with_storage_blocks(75_000);
    let point = tuned_point(scheme, &input, 4, seed).expect("feasible");
    let mut cfg = SimConfig::sigmod96(scheme, &point, 32);
    cfg.rounds = 120;
    cfg.seed = seed;
    cfg
}

/// Runs `cfg` with a JSONL sink writing into memory and returns the
/// metrics, the trace summary, and the exported bytes.
fn traced_run(cfg: SimConfig) -> (Metrics, TraceSummary, Vec<u8>) {
    let buf = SharedBuffer::default();
    let mut sim = Simulator::new(cfg).expect("constructs");
    sim.set_trace_sink(Box::new(JsonlSink::new(buf.clone())));
    let (metrics, summary) = sim.run_summary();
    (metrics, summary.expect("tracing was enabled"), buf.contents())
}

fn assert_byte_identical(base: &[u8], other: &[u8], label: &str) {
    if base == other {
        return;
    }
    // Locate the first diverging line for a debuggable failure message.
    let a = String::from_utf8_lossy(base);
    let b = String::from_utf8_lossy(other);
    for (i, (la, lb)) in a.lines().zip(b.lines()).enumerate() {
        assert_eq!(la, lb, "{label}: traces diverge at line {i}");
    }
    panic!(
        "{label}: traces are a prefix of each other ({} vs {} bytes)",
        base.len(),
        other.len()
    );
}

#[test]
fn fault_free_trace_is_byte_identical_at_any_thread_count() {
    let (base_m, base_s, base) =
        traced_run(paper_cfg(Scheme::DeclusteredParity, 0x7ACE).with_threads(1));
    assert!(base_m.admitted > 0, "run must do real work");
    assert!(base_s.events > 0 && !base.is_empty());
    for threads in THREAD_COUNTS {
        let (m, s, bytes) =
            traced_run(paper_cfg(Scheme::DeclusteredParity, 0x7ACE).with_threads(threads));
        assert_eq!(base_m, m, "fault-free metrics, {threads} threads");
        assert_eq!(base_s, s, "fault-free summary, {threads} threads");
        assert_byte_identical(&base, &bytes, &format!("fault-free, {threads} threads"));
    }
}

#[test]
fn failure_trace_is_byte_identical_at_any_thread_count() {
    let cfg = |threads| {
        paper_cfg(Scheme::DeclusteredParity, 0xFA_17)
            .with_failure(40, DiskId(5))
            .with_verification()
            .with_threads(threads)
    };
    let (base_m, base_s, base) = traced_run(cfg(1));
    assert!(base_m.reconstructions > 0, "failure must force reconstructions");
    assert_eq!(base_s.failure_round, Some(40));
    assert!(base_s.failure_to_first_recovery().is_some());
    for threads in THREAD_COUNTS {
        let (m, s, bytes) = traced_run(cfg(threads));
        assert_eq!(base_m, m, "failure metrics, {threads} threads");
        assert_eq!(base_s, s, "failure summary, {threads} threads");
        assert_byte_identical(&base, &bytes, &format!("mid-run failure, {threads} threads"));
    }
}

#[test]
fn rebuild_trace_is_byte_identical_and_reports_a_finite_gap() {
    let cfg = |threads| {
        let mut c = paper_cfg(Scheme::DeclusteredParity, 0x2EB_17D)
            .with_failure(30, DiskId(2))
            .with_rebuild()
            .with_threads(threads);
        c.catalog_clips = 200; // small library so the rebuild finishes in-run
        c.rounds = 400;
        c.arrival_rate = 1.0;
        c
    };
    let (base_m, base_s, base) = traced_run(cfg(1));
    assert!(base_m.rebuild_reads > 0, "rebuild must issue reads");
    let gap = base_s
        .failure_to_rebuild_complete()
        .expect("rebuild must complete within the run");
    assert!(gap > 0, "rebuild cannot finish in the failure round");
    assert_eq!(base_s.rebuild_completed_round, base_m.rebuild_completed_round);
    for threads in THREAD_COUNTS {
        let (m, s, bytes) = traced_run(cfg(threads));
        assert_eq!(base_m, m, "rebuild metrics, {threads} threads");
        assert_eq!(base_s, s, "rebuild summary, {threads} threads");
        assert_byte_identical(&base, &bytes, &format!("background rebuild, {threads} threads"));
    }
}

#[test]
fn fault_schedule_trace_is_byte_identical_at_any_thread_count() {
    // The multi-event campaign schedule: transient outage, hard failure
    // with rebuild, slow-disk window, repair — all under degraded-mode
    // admission. The fault events themselves (DiskTransient/DiskSlow/
    // StreamLost/DegradedRefusal) ride the same ordered stream as the
    // service events, so the export must stay byte-identical.
    let cfg = |threads| {
        let faults = cms_sim::FaultSchedule::parse(
            "@20 transient 3 rounds=8\n@40 fail 5\n@60 slow 7 factor=3 rounds=12\n@90 repair 5\n",
        )
        .expect("schedule parses");
        let mut c = paper_cfg(Scheme::DeclusteredParity, 0x005C_4D17)
            .with_faults(faults)
            .with_degraded_admission()
            .with_rebuild()
            .with_verification()
            .with_threads(threads);
        c.catalog_clips = 200;
        c
    };
    let (base_m, base_s, base) = traced_run(cfg(1));
    assert!(base_m.recovery_reads > 0, "the schedule must force recovery");
    assert!(base_s.transient_outages > 0, "summary must count the transient window");
    assert!(base_s.slow_windows > 0, "summary must count the slow window");
    for threads in THREAD_COUNTS {
        let (m, s, bytes) = traced_run(cfg(threads));
        assert_eq!(base_m, m, "fault schedule metrics, {threads} threads");
        assert_eq!(base_s, s, "fault schedule summary, {threads} threads");
        assert_byte_identical(&base, &bytes, &format!("fault schedule, {threads} threads"));
    }
}

#[test]
fn round_reports_conserve_into_final_metrics() {
    // Summing what every round claims happened must reproduce the final
    // metrics — through failure, recovery and rebuild — so dashboards fed
    // per-round and post-mortems fed end-of-run state can never disagree.
    let mut cfg = paper_cfg(Scheme::DeclusteredParity, 0xC0_13)
        .with_failure(40, DiskId(3))
        .with_rebuild()
        .with_degraded_admission();
    cfg.catalog_clips = 200;
    cfg.rounds = 300;
    let rounds = cfg.rounds;
    let mut sim = Simulator::new(cfg).expect("constructs");
    let mut sums = [0u64; 11];
    for _ in 0..rounds {
        let r = sim.step_report();
        sums[0] += r.arrivals;
        sums[1] += r.admissions;
        sums[2] += r.completions;
        sums[3] += r.blocks_served;
        sums[4] += r.recovery_reads;
        sums[5] += r.hiccups;
        sums[6] += r.service_errors;
        sums[7] += r.rebuild_reads;
        sums[8] += r.late_serves;
        sums[9] += r.lost_streams;
        sums[10] += r.degraded_refusals;
    }
    let m = sim.metrics().clone();
    assert_eq!(sums[0], m.arrivals, "arrivals conserve");
    assert_eq!(sums[1], m.admitted, "admissions conserve");
    assert_eq!(sums[2], m.completed, "completions conserve");
    assert_eq!(sums[3], m.blocks_fetched, "blocks served conserve");
    assert_eq!(sums[4], m.recovery_reads, "recovery reads conserve");
    assert_eq!(sums[5], m.hiccups, "hiccups conserve");
    assert_eq!(sums[6], m.service_errors, "service errors conserve");
    assert_eq!(sums[7], m.rebuild_reads, "rebuild reads conserve");
    assert_eq!(sums[8], m.late_serves, "late serves conserve");
    assert_eq!(sums[9], m.lost_streams, "lost streams conserve");
    assert_eq!(sums[10], m.degraded_refusals, "degraded refusals conserve");
    assert!(sums[4] > 0, "the drill must exercise recovery");
    assert!(sums[7] > 0, "the drill must exercise rebuild");
}
