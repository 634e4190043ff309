use super::serve::{bucket_by_disk, edf_key, role, serve_event};
use super::*;
use cms_disk::{BlockRequest, Disk, RoundOutcome, ServiceContext};
use cms_layout::StreamAddr;
use cms_model::{capacity, ModelInput};
use cms_parity::ErasureCodec;
use cms_trace::EventKind;
use proptest::prelude::*;

/// The retained pre-optimization `serve_disk`: one queue per disk,
/// fresh buffers every round, and a stable sort of the whole queue by
/// `needed` before each drain. The equivalence proptest below drives
/// it in lock-step with the bucketed round buffer to prove the
/// `(needed, seq)` slice order, the carried-over backlog and the
/// shared arenas change nothing.
#[allow(clippy::type_complexity)]
fn serve_disk_reference(
    queue: &mut Vec<Fetch>,
    disk: &mut Disk,
    ctx: &ServiceContext,
    budget: usize,
    deadline: f64,
) -> (u32, Vec<Fetch>, Option<RoundOutcome>, u32, Vec<EventKind>) {
    if queue.is_empty() {
        return (0, Vec::new(), None, 0, Vec::new());
    }
    let budget = (budget / disk.slow_factor.max(1) as usize).max(1);
    let queue_len = queue.len() as u32;
    queue.sort_by_key(|f| f.needed);
    let take = queue.len().min(budget);
    let served: Vec<Fetch> = queue.drain(..take).collect();
    let requests: Vec<BlockRequest> = served
        .iter()
        .map(|f| BlockRequest { disk: disk.id, block_no: f.loc.block_no })
        .collect();
    match disk.service_round_with(ctx, &requests, deadline, &mut ServiceScratch::default()) {
        Ok(outcome) => {
            let events = vec![EventKind::DiskServe {
                disk: disk.id.raw(),
                blocks: outcome.blocks,
                busy_us: (outcome.busy * 1e6).round() as u64,
                queue: queue_len,
            }];
            (queue_len, served, Some(outcome), 0, events)
        }
        Err(_) => {
            let dropped = served.len() as u32;
            let events = vec![EventKind::ServiceError { disk: disk.id.raw(), dropped }];
            (queue_len, Vec::new(), None, dropped, events)
        }
    }
}

proptest! {
    #[test]
    fn bucketed_serve_matches_per_disk_reference(
        // Per round: a batch of (disk, needed, block_no, role)
        // fetches plus a drain budget, mostly below the queue depth
        // so fetches carry over. The small `needed` range forces
        // deadline ties, the stable-order hazard. Role 0 serves a
        // block, 1 feeds a reconstruction, 2 is a rebuild read.
        rounds in prop::collection::vec(
            (prop::collection::vec((0u32..5, 0u64..6, 0u64..400, 0u8..3), 0..24), 1usize..6),
            1..8
        ),
        workers in 1usize..4,
    ) {
        const DISKS: u32 = 5;
        // Disk 1 refuses service; disk 3 serves at a third of the
        // budget.
        let mk_array = || {
            let mut array =
                DiskArray::new(DISKS, DiskParams::sigmod96(), 1 << 20).expect("array");
            array.set_down(DiskId(1), true).expect("in range");
            array.set_slow_factor(DiskId(3), 3).expect("in range");
            array
        };
        let mut opt_array = mk_array();
        let mut ref_array = mk_array();
        let mut pool: WorkerPool<DiskChunk, ServeRound> =
            WorkerPool::new(workers, DISKS as usize, serve_chunk);
        let mut work = DiskChunk {
            cscan: vec![ServiceScratch::default(); DISKS as usize],
            rounds: vec![DiskRound::default(); DISKS as usize],
            ..DiskChunk::default()
        };
        let (mut fresh, mut backlog, mut offsets) = (Vec::new(), Vec::new(), Vec::new());
        let mut ref_queues: Vec<Vec<Fetch>> = vec![Vec::new(); DISKS as usize];
        let mut seq = 0u64;
        let deadline = 0.5;
        for (batch, budget) in rounds {
            for (disk, needed, block_no, kind) in batch {
                let fetch = Fetch {
                    client: RequestId(seq),
                    loc: BlockLocation { disk: DiskId(disk), block_no },
                    needed: if kind == 2 { u64::MAX } else { needed },
                    seq,
                    serves: role((kind == 0).then_some(block_no)),
                    recon_for: role((kind == 1).then_some(block_no)),
                    rebuild_for: role((kind == 2).then_some(block_no)),
                    slot: 0,
                };
                seq += 1;
                fresh.push(fetch);
                ref_queues[disk as usize].push(fetch);
            }
            bucket_by_disk(&backlog, &fresh, &mut offsets, &mut work);
            backlog.clear();
            fresh.clear();
            let (ctx, disks) = opt_array.service_parts();
            std::mem::swap(&mut work.disks, disks);
            pool.run(ServeRound { ctx, budget, deadline }, &mut work);
            std::mem::swap(&mut work.disks, disks);
            let (ref_ctx, ref_disks) = ref_array.service_parts();
            for (disk, round, served, carried) in work.disk_slices() {
                backlog.extend_from_slice(carried);
                let d = disk as usize;
                let queue = &mut ref_queues[d];
                let (ref_len, ref_served, ref_outcome, ref_dropped, ref_events) =
                    serve_disk_reference(queue, &mut ref_disks[d], &ref_ctx, budget, deadline);
                prop_assert_eq!(round.queue_len, ref_len);
                prop_assert_eq!(round.dropped, ref_dropped);
                prop_assert_eq!(served, &ref_served[..], "served order diverged");
                prop_assert_eq!(carried, &queue[..], "carried-over order diverged");
                let events: Vec<EventKind> = serve_event(disk, round).into_iter().collect();
                prop_assert_eq!(events, ref_events);
                match (round.outcome, ref_outcome) {
                    (None, None) => {}
                    (Some(a), Some(b)) => {
                        prop_assert_eq!(a.blocks, b.blocks);
                        prop_assert_eq!(a.busy.to_bits(), b.busy.to_bits(), "busy diverged");
                        prop_assert_eq!(a.deadline.to_bits(), b.deadline.to_bits());
                    }
                    (a, b) => prop_assert!(false, "outcome presence diverged: {a:?} vs {b:?}"),
                }
            }
        }
        prop_assert!(
            backlog.is_sorted_by_key(|f| (f.loc.disk, edf_key(f))),
            "the backlog must stay ordered by (disk, needed, seq)"
        );
    }
}

/// A small, fast configuration used by most tests.
fn small_cfg(scheme: Scheme) -> SimConfig {
    SimConfig {
        scheme,
        d: 8,
        p: 4,
        m: 1,
        q: 8,
        f: 2,
        block_bytes: 1 << 20, // generous round so q = 8 fits Eq. 1
        catalog_clips: 40,
        clip_len: 20,
        clip_len_spread: 0,
        arrival_rate: 3.0,
        zipf_theta: 0.0,
        rounds: 120,
        failure: None,
        faults: None,
        degraded_admission: false,
        verify_parity: false,
        content_bytes: 256,
        seed: 7,
        admission_scan: 64,
        aging_limit: 200,
        auto_rebuild: false,
        threads: 1,
        trace: cms_trace::TraceSpec::off(),
    }
}

#[test]
fn fault_free_runs_are_clean_for_all_schemes() {
    for scheme in Scheme::ALL {
        let m = Simulator::new(small_cfg(scheme)).unwrap().run();
        assert!(m.admitted > 0, "{scheme}: nothing admitted");
        assert!(m.completed > 0, "{scheme}: nothing completed");
        assert_eq!(m.hiccups, 0, "{scheme}: fault-free run must not hiccup");
        assert_eq!(m.parity_mismatches, 0);
        assert!(
            m.peak_utilization <= 1.0 + 1e-9,
            "{scheme}: round deadline violated ({})",
            m.peak_utilization
        );
    }
}

#[test]
fn catalogs_larger_than_the_array_are_refused_before_building() {
    // 2^40 clips once aborted allocating the catalog, and two million
    // in building the layout; both exceed the array, so each is refused
    // before either is built, for every scheme.
    for scheme in Scheme::ALL {
        for clips in [1u64 << 40, 2_000_000] {
            let cfg = SimConfig { catalog_clips: clips, ..small_cfg(scheme) };
            let result = Simulator::new(cfg);
            assert!(
                matches!(result, Err(CmsError::InfeasibleConfig { .. })),
                "{scheme} with {clips} clips: {:?}",
                result.err()
            );
        }
    }
}

#[test]
fn consumption_matches_fetches_in_fault_free_runs() {
    let m = Simulator::new(small_cfg(Scheme::DeclusteredParity)).unwrap().run();
    // Every consumed block was fetched; completed clips consumed all
    // their blocks.
    assert!(m.blocks_consumed <= m.blocks_fetched);
    assert!(m.blocks_consumed >= m.completed * 20);
}

#[test]
fn guarantee_schemes_survive_failure_without_hiccups() {
    for scheme in [
        Scheme::DeclusteredParity,
        Scheme::DynamicReservation,
        Scheme::PrefetchParityDisks,
        Scheme::PrefetchFlat,
        Scheme::StreamingRaid,
    ] {
        let cfg = small_cfg(scheme).with_failure(40, DiskId(2)).with_verification();
        let m = Simulator::new(cfg).unwrap().run();
        assert!(m.admitted > 0, "{scheme}");
        assert_eq!(
            m.hiccups, 0,
            "{scheme} must keep rate guarantees through a failure"
        );
        assert_eq!(m.parity_mismatches, 0, "{scheme}: reconstruction corrupt");
        assert!(
            m.reconstructions > 0 || m.recovery_reads == 0,
            "{scheme}: recovery accounting inconsistent"
        );
    }
}

#[test]
fn failure_triggers_reconstructions_with_correct_bytes() {
    let cfg = small_cfg(Scheme::DeclusteredParity)
        .with_failure(30, DiskId(1))
        .with_verification();
    let m = Simulator::new(cfg).unwrap().run();
    assert!(m.reconstructions > 0, "failure must force reconstructions");
    assert_eq!(m.parity_mismatches, 0);
    assert!(m.recovery_reads >= m.reconstructions);
}

#[test]
fn verification_decodes_tail_groups_narrower_than_the_span() {
    // A one-clip catalog whose length is not a multiple of k ends the
    // stream in a tail group with k′ < k data shards. Failing the disk
    // that holds the clip's last block makes every viewer decode both
    // full groups and the tail group, each width through its own
    // cached codec.
    for (scheme, m) in [
        (Scheme::PrefetchParityDisks, 1),
        (Scheme::PrefetchParityDisks, 2),
        (Scheme::DeclusteredParity, 1),
    ] {
        let mut cfg = small_cfg(scheme).with_verification();
        cfg.m = m;
        cfg.catalog_clips = 1;
        cfg.clip_len = 19;
        let mut sim = Simulator::new(cfg).unwrap();
        let clip = sim.catalog.placement(ClipId(0));
        let tail = StreamAddr::new(clip.stream, clip.start_index + clip.len - 1);
        let tail_k = sim.layout.group(sim.layout.group_id_of(tail)).data_len() as u64;
        assert!(tail_k < sim.group_span(), "{scheme} m={m}: no tail group");
        for _ in 0..30 {
            sim.step();
        }
        sim.fail_disk(sim.layout.locate(tail).disk).unwrap();
        for _ in 30..120 {
            sim.step();
        }
        let metrics = sim.metrics();
        assert!(metrics.reconstructions > 0, "{scheme} m={m}: no reconstructions");
        assert_eq!(metrics.parity_mismatches, 0, "{scheme} m={m}: reconstruction corrupt");
        let widths: Vec<usize> =
            sim.scratch.verify.codecs.iter().map(ErasureCodec::data_shards).collect();
        assert!(widths.len() >= 2, "{scheme} m={m}: one group width verified: {widths:?}");
    }
}

#[test]
fn verification_gate_fails_inside_the_call_that_completes_a_reconstruction() {
    // RS(6, 2) prefetch array: two clusters of six data and two
    // parity disks. The one 50-block clip ends in a two-shard tail
    // group.
    let mut cfg = small_cfg(Scheme::PrefetchParityDisks).with_verification();
    cfg.d = 16;
    cfg.p = 8;
    cfg.m = 2;
    cfg.catalog_clips = 1;
    cfg.clip_len = 50;
    cfg.arrival_rate = 0.3;
    cfg.rounds = 300;
    // Data disk 1 goes down through a transient window that outlasts
    // the run (`fail_disk` takes one hard failure at a time); data
    // disk 0 of the same cluster slows down, then fails through the
    // facade. Its backlog holds survivor reads whose siblings have
    // all arrived, so reconstructions complete inside `fail_disk`.
    let spec = "@20 transient 1 rounds=100000\n@20 slow 0 factor=8 rounds=100000\n";
    cfg.faults = Some(cms_fault::FaultSchedule::parse(spec).unwrap());
    let mut sim = Simulator::new(cfg).unwrap();
    sim.scratch.verify.corrupt = true;
    let gate = |sim: &Simulator, call: &str, round: u64| {
        let m = sim.metrics();
        assert_eq!(
            m.parity_mismatches, m.reconstructions,
            "round {round}: {call} returned with unverified reconstructions"
        );
    };
    let mut in_fail_disk = 0;
    for round in 0..300 {
        if round == 40 {
            let before = sim.metrics().reconstructions;
            sim.fail_disk(DiskId(0)).unwrap();
            gate(&sim, "fail_disk", round);
            in_fail_disk = sim.metrics().reconstructions - before;
        }
        sim.step();
        gate(&sim, "step", round);
    }
    assert!(sim.metrics().reconstructions > 0, "no reconstructions");
    assert!(in_fail_disk > 0, "no reconstruction completed inside fail_disk");
    let vs = &sim.scratch.verify;
    assert!(vs.pooled > 0, "no verification was served from the held group");
    let widths: Vec<usize> = vs.codecs.iter().map(ErasureCodec::data_shards).collect();
    assert!(widths.contains(&6) && widths.contains(&2), "group widths verified: {widths:?}");
}

#[test]
fn streaming_raid_reads_parity_even_when_healthy() {
    let m = Simulator::new(small_cfg(Scheme::StreamingRaid)).unwrap().run();
    // Group fetches include the parity block: fetched strictly exceeds
    // consumed even with full completion.
    assert!(m.blocks_fetched > m.blocks_consumed);
}

#[test]
fn non_clustered_hiccups_under_failure_when_saturated() {
    // Saturate a small non-clustered server, then kill a disk: the
    // §7.4 caveat — transition reads exceed budgets and clips glitch.
    let mut cfg = small_cfg(Scheme::NonClustered);
    cfg.arrival_rate = 30.0; // saturate
    cfg.q = 4;
    cfg = cfg.with_failure(40, DiskId(1));
    let m = Simulator::new(cfg).unwrap().run();
    assert!(
        m.hiccups > 0,
        "saturated non-clustered must glitch on failure (got {m:?})"
    );
}

#[test]
fn repair_restores_normal_operation() {
    let mut cfg = small_cfg(Scheme::DeclusteredParity);
    cfg.failure = Some(crate::config::FailureScenario {
        fail_round: 30,
        disk: DiskId(0),
        repair_round: Some(60),
    });
    cfg.rounds = 150;
    let sim = Simulator::new(cfg).unwrap();
    let m = sim.run();
    assert_eq!(m.hiccups, 0);
    assert!(m.reconstructions > 0);
}

#[test]
fn deterministic_under_seed() {
    let a = Simulator::new(small_cfg(Scheme::PrefetchFlat)).unwrap().run();
    let b = Simulator::new(small_cfg(Scheme::PrefetchFlat)).unwrap().run();
    assert_eq!(a, b);
    let mut cfg = small_cfg(Scheme::PrefetchFlat);
    cfg.seed = 8;
    let c = Simulator::new(cfg).unwrap().run();
    assert_ne!(a.arrivals, c.arrivals);
}

#[test]
fn admission_is_fifo_and_starvation_free() {
    let mut cfg = small_cfg(Scheme::DeclusteredParity);
    cfg.arrival_rate = 50.0; // deep queue
    let m = Simulator::new(cfg).unwrap().run();
    // Saturated: many still pending, but throughput continued all run
    // (admissions keep happening as clips complete).
    assert!(m.still_pending > 0);
    assert!(m.admitted > 40, "server must keep admitting under overload");
}

#[test]
fn paper_scale_configuration_runs() {
    // One full Figure 6 cell: d = 32, B = 256 MB, declustered, p = 4.
    let input = ModelInput::sigmod96(cms_core::units::mib(256));
    let point = capacity(Scheme::DeclusteredParity, &input, 4).unwrap();
    let mut cfg = SimConfig::sigmod96(Scheme::DeclusteredParity, &point, 32);
    cfg.rounds = 120; // keep the unit test quick
    let m = Simulator::new(cfg).unwrap().run();
    assert!(m.admitted > 300, "expected saturation-level admissions");
    assert_eq!(m.hiccups, 0);
    assert!(m.peak_utilization <= 1.0 + 1e-9);
}

#[test]
fn round_reports_sum_to_cumulative_metrics() {
    let mut cfg = small_cfg(Scheme::DeclusteredParity);
    cfg = cfg.with_failure(40, DiskId(1));
    let mut sim = Simulator::new(cfg).unwrap();
    let mut arrivals = 0;
    let mut admissions = 0;
    let mut completions = 0;
    let mut blocks = 0;
    let mut recovery = 0;
    let mut service_errors = 0;
    let mut rebuild_reads = 0;
    let mut late_serves = 0;
    for expected_round in 0..100u64 {
        let r = sim.step_report();
        assert_eq!(r.round, expected_round);
        arrivals += r.arrivals;
        admissions += r.admissions;
        completions += r.completions;
        blocks += r.blocks_served;
        recovery += r.recovery_reads;
        service_errors += r.service_errors;
        rebuild_reads += r.rebuild_reads;
        late_serves += r.late_serves;
        assert_eq!(r.active as usize, sim.active_clients());
        assert_eq!(r.pending as usize, sim.pending_requests());
    }
    let m = sim.metrics();
    assert_eq!(arrivals, m.arrivals);
    assert_eq!(admissions, m.admitted);
    assert_eq!(completions, m.completed);
    assert_eq!(blocks, m.blocks_fetched);
    assert_eq!(recovery, m.recovery_reads);
    assert_eq!(service_errors, m.service_errors);
    assert_eq!(rebuild_reads, m.rebuild_reads);
    assert_eq!(late_serves, m.late_serves);
    assert!(recovery > 0, "failure must show up in some round report");
}

#[test]
fn step_api_exposes_progress() {
    let mut sim = Simulator::new(small_cfg(Scheme::DeclusteredParity)).unwrap();
    assert_eq!(sim.now(), 0);
    sim.step();
    assert_eq!(sim.now(), 1);
    assert_eq!(sim.metrics().rounds, 1);
    for _ in 0..30 {
        sim.step();
    }
    assert!(sim.active_clients() > 0);
}

#[test]
fn external_submission_and_manual_failure() {
    let mut cfg = small_cfg(Scheme::DeclusteredParity);
    cfg.arrival_rate = 0.0; // fully externally driven
    cfg.verify_parity = true;
    let mut sim = Simulator::new(cfg).unwrap();
    assert!(sim.submit(ClipId(999)).is_err(), "unknown clip rejected");
    for clip in 0..10u64 {
        sim.submit(ClipId(clip)).unwrap();
    }
    assert_eq!(sim.pending_requests(), 10);
    for _ in 0..5 {
        sim.step();
    }
    assert!(sim.active_clients() > 0);
    // Manual failure mid-run; single-failure model enforced.
    sim.fail_disk(DiskId(3)).unwrap();
    assert_eq!(sim.failed_disk(), Some(DiskId(3)));
    assert!(sim.fail_disk(DiskId(4)).is_err());
    assert!(sim.repair_disk(DiskId(4)).is_err());
    for _ in 0..10 {
        sim.step();
    }
    sim.repair_disk(DiskId(3)).unwrap();
    assert_eq!(sim.failed_disk(), None);
    for _ in 0..40 {
        sim.step();
    }
    let m = sim.metrics();
    assert_eq!(m.hiccups, 0);
    assert_eq!(m.parity_mismatches, 0);
    assert_eq!(m.completed, 10);
}

#[test]
fn background_rebuild_restores_redundancy() {
    let mut cfg = small_cfg(Scheme::DeclusteredParity);
    cfg.auto_rebuild = true;
    cfg.verify_parity = true;
    cfg.rounds = 400;
    cfg.arrival_rate = 1.0; // leave slack for the rebuild
    cfg = cfg.with_failure(30, DiskId(2));
    let m = Simulator::new(cfg).unwrap().run();
    assert_eq!(m.hiccups, 0, "client guarantees hold during rebuild");
    assert!(m.rebuild_reads > 0, "rebuild must issue reads");
    assert!(m.rebuilt_blocks > 0);
    let done = m
        .rebuild_completed_round
        .expect("rebuild must finish within the run");
    assert!(done > 30, "completion after the failure");
    assert_eq!(m.parity_mismatches, 0);
}

#[test]
fn rebuild_has_lowest_priority() {
    // Saturate the server; the rebuild must progress only via slack
    // and never cause a client hiccup.
    let mut cfg = small_cfg(Scheme::DeclusteredParity);
    cfg.auto_rebuild = true;
    cfg.arrival_rate = 20.0; // saturated
    cfg.rounds = 300;
    cfg = cfg.with_failure(50, DiskId(1));
    let m = Simulator::new(cfg).unwrap().run();
    assert_eq!(m.hiccups, 0, "rebuild must never displace client reads");
    assert!(m.rebuilt_blocks > 0, "rebuild still progresses via slack");
}

#[test]
fn manual_repair_cancels_rebuild() {
    let mut cfg = small_cfg(Scheme::DeclusteredParity);
    cfg.auto_rebuild = true;
    cfg.arrival_rate = 0.0;
    let mut sim = Simulator::new(cfg).unwrap();
    sim.fail_disk(DiskId(3)).unwrap();
    assert!(sim.rebuild_progress().is_some());
    sim.step();
    sim.repair_disk(DiskId(3)).unwrap();
    assert!(sim.rebuild_progress().is_none());
    assert_eq!(sim.failed_disk(), None);
}

#[test]
fn pause_releases_bandwidth_and_resume_replays() {
    let mut cfg = small_cfg(Scheme::DeclusteredParity);
    cfg.arrival_rate = 0.0;
    let mut sim = Simulator::new(cfg).unwrap();
    let ids: Vec<RequestId> =
        (0..6u64).map(|c| sim.submit(ClipId(c)).unwrap()).collect();
    for _ in 0..6 {
        sim.step();
    }
    assert_eq!(sim.active_clients(), 6);
    // Pause half of them: slots free immediately.
    for &id in &ids[..3] {
        sim.pause(id).unwrap();
    }
    assert_eq!(sim.active_clients(), 3);
    assert_eq!(sim.paused_sessions(), 3);
    assert!(sim.pause(ids[0]).is_err(), "double pause rejected");
    for _ in 0..5 {
        sim.step();
    }
    // Resume them; all must complete without a glitch.
    for &id in &ids[..3] {
        sim.resume(id).unwrap();
    }
    assert_eq!(sim.paused_sessions(), 0);
    assert!(sim.resume(ids[0]).is_err(), "double resume rejected");
    for _ in 0..60 {
        sim.step();
    }
    let m = sim.metrics();
    assert_eq!(m.completed, 6);
    assert_eq!(m.hiccups, 0);
}

#[test]
fn pause_resume_for_prefetch_aligns_to_groups() {
    let mut cfg = small_cfg(Scheme::PrefetchParityDisks);
    cfg.arrival_rate = 0.0;
    let mut sim = Simulator::new(cfg).unwrap();
    let id = sim.submit(ClipId(0)).unwrap();
    for _ in 0..8 {
        sim.step();
    }
    sim.pause(id).unwrap();
    let resumed = sim.resume(id).unwrap();
    assert_ne!(resumed, id);
    for _ in 0..60 {
        sim.step();
    }
    let m = sim.metrics();
    assert_eq!(m.completed, 1);
    assert_eq!(m.hiccups, 0);
}

#[test]
fn pause_at_clip_end_completes_on_resume() {
    let mut cfg = small_cfg(Scheme::DeclusteredParity);
    cfg.arrival_rate = 0.0;
    let mut sim = Simulator::new(cfg).unwrap();
    let id = sim.submit(ClipId(1)).unwrap();
    // Play to the penultimate round, then pause and resume.
    for _ in 0..20 {
        sim.step();
    }
    if sim.active_clients() == 1 {
        sim.pause(id).unwrap();
        sim.resume(id).unwrap();
        for _ in 0..30 {
            sim.step();
        }
    }
    assert_eq!(sim.metrics().completed, 1);
    assert_eq!(sim.metrics().hiccups, 0);
}

#[test]
fn heterogeneous_clip_lengths_play_cleanly() {
    for scheme in Scheme::ALL {
        let mut cfg = small_cfg(scheme);
        cfg.clip_len_spread = 15; // clips of 20..=35 blocks
        cfg.rounds = 160;
        cfg = cfg.with_failure(60, DiskId(2)).with_verification();
        let m = Simulator::new(cfg).unwrap().run();
        assert!(m.completed > 0, "{scheme}");
        let allowed_hiccups = if scheme == Scheme::NonClustered { u64::MAX } else { 0 };
        assert!(m.hiccups <= allowed_hiccups, "{scheme}");
        assert_eq!(m.parity_mismatches, 0, "{scheme}");
    }
}

#[test]
fn tracing_does_not_change_metrics() {
    let base = Simulator::new(small_cfg(Scheme::DeclusteredParity)).unwrap().run();
    let traced_cfg =
        small_cfg(Scheme::DeclusteredParity).with_trace(cms_trace::TraceSpec::null());
    let (traced, summary) = Simulator::new(traced_cfg).unwrap().run_summary();
    assert_eq!(base, traced, "tracing must be observation-only");
    let s = summary.expect("null trace still summarises");
    assert_eq!(s.arrivals, traced.arrivals);
    assert_eq!(s.admissions, traced.admitted);
    assert_eq!(s.completions, traced.completed);
    assert_eq!(s.recovery_reads, traced.recovery_reads);
    assert_eq!(s.hiccups, traced.hiccups);
    assert_eq!(s.late_serves, traced.late_serves);
    assert_eq!(s.blocks_served, traced.blocks_fetched);
    assert!(s.busy_us.total() > 0, "disk-serve events feed the busy histogram");
    assert!(s.queue_depth.total() > 0);
}

#[test]
fn trace_summary_records_failure_milestones() {
    let cfg = small_cfg(Scheme::DeclusteredParity)
        .with_failure(40, DiskId(2))
        .with_trace(cms_trace::TraceSpec::null());
    let (m, summary) = Simulator::new(cfg).unwrap().run_summary();
    let s = summary.unwrap();
    assert_eq!(s.failure_round, Some(40));
    assert_eq!(s.recovery_reads, m.recovery_reads);
    assert!(s.recovery_reads > 0);
    let gap = s.failure_to_first_recovery().expect("recovery reads after failure");
    assert!(gap <= 2, "recovery starts within a couple of rounds, got {gap}");
    assert!(s.recovery_fanout.total() > 0, "fan-out recorded per lost block");
}

#[test]
fn trace_summary_reports_finite_rebuild_gap() {
    let mut cfg = small_cfg(Scheme::DeclusteredParity);
    cfg.auto_rebuild = true;
    cfg.rounds = 400;
    cfg.arrival_rate = 1.0;
    cfg = cfg.with_failure(30, DiskId(2)).with_trace(cms_trace::TraceSpec::null());
    let (m, summary) = Simulator::new(cfg).unwrap().run_summary();
    let s = summary.unwrap();
    let gap = s.failure_to_rebuild_complete().expect("rebuild must finish in-run");
    assert!(gap > 0, "rebuild cannot complete in the failure round");
    assert_eq!(s.rebuild_completed_round, m.rebuild_completed_round);
}

#[test]
fn ring_sink_keeps_a_bounded_recent_window() {
    let mut sim = Simulator::new(small_cfg(Scheme::DeclusteredParity)).unwrap();
    let ring = cms_trace::RingSink::new(5);
    let handle = ring.handle();
    sim.set_trace_sink(Box::new(ring));
    for _ in 0..50 {
        sim.step();
    }
    let events = handle.events();
    assert!(!events.is_empty());
    assert!(events.iter().all(|e| e.round >= 44), "only the last 5 rounds survive");
    assert!(events.windows(2).all(|w| w[0].round <= w[1].round), "rounds non-decreasing");
    assert_eq!(
        sim.trace_summary().map(|s| s.events > 0),
        Some(true),
        "summary runs alongside the ring"
    );
}

#[test]
fn scheduled_double_failure_declares_streams_lost() {
    // Two hard failures 10 rounds apart: every stream whose due
    // group spans both disks is terminated deterministically. Disks
    // 1 and 3 share parity groups in the seed-7 (8, 4) design; a
    // pair from complementary sets (e.g. 1 and 2) never would, and
    // the array would keep reconstructing around both.
    let faults = cms_fault::FaultSchedule::parse("@30 fail 1\n@40 fail 3\n").unwrap();
    let cfg = small_cfg(Scheme::DeclusteredParity).with_faults(faults);
    let run = || Simulator::new(cfg.clone()).unwrap().run();
    let m = run();
    assert!(m.lost_streams > 0, "overlapping groups must lose streams: {m:?}");
    assert_eq!(m.parity_mismatches, 0);
    assert!(m.completed + m.lost_streams <= m.admitted);
    assert_eq!(m, run(), "loss declaration must be deterministic");
}

#[test]
fn transient_outage_reconstructs_and_recovers() {
    let faults =
        cms_fault::FaultSchedule::parse("@30 transient 2 rounds=10\n").unwrap();
    let cfg = small_cfg(Scheme::DeclusteredParity).with_faults(faults).with_verification();
    let m = Simulator::new(cfg).unwrap().run();
    assert_eq!(m.hiccups, 0, "reconstruction covers the blip: {m:?}");
    assert_eq!(m.lost_streams, 0);
    assert_eq!(m.parity_mismatches, 0);
    assert!(m.recovery_reads > 0, "reads during the window go through recovery");
    assert!(m.completed > 0);
    // The disk served blocks again after the window closed.
    assert!(m.disk_blocks[2] > 0, "disk 2 must return to service");
}

#[test]
fn slow_disk_window_throttles_but_loses_nothing() {
    let faults =
        cms_fault::FaultSchedule::parse("@30 slow 2 factor=4 rounds=20\n").unwrap();
    let mut cfg = small_cfg(Scheme::DeclusteredParity).with_faults(faults);
    cfg.arrival_rate = 1.0;
    let m = Simulator::new(cfg).unwrap().run();
    assert_eq!(m.lost_streams, 0);
    assert_eq!(m.parity_mismatches, 0);
    assert!(m.completed > 0);
}

#[test]
fn late_blocks_stay_buffered_until_their_stream_ends() {
    // A disk slowed 8× serves one fetch a round, so its queue carries
    // reads past their deadlines. A block delivered after its
    // consumption round is never consumed: it stays in the stream's
    // buffer map, and in the buffered count, until the stream ends
    // (a known quirk, DESIGN.md §13).
    let faults =
        cms_fault::FaultSchedule::parse("@10 slow 2 factor=8 rounds=40\n").unwrap();
    let cfg = small_cfg(Scheme::DeclusteredParity).with_faults(faults);
    let mut sim = Simulator::new(cfg).unwrap();
    let mut peak = 0u64;
    // (id, slot, block, round available) of the first late block seen.
    let mut late: Option<(RequestId, u32, u64, u64)> = None;
    let (mut held, mut ended) = (0u32, false);
    let mut before: Vec<(RequestId, u32)> = Vec::new();
    for _ in 0..120 {
        sim.step();
        let table = &sim.table;
        // The count is taken before this round's completions leave
        // the table; their freed slots keep their maps until reuse.
        let mut buffered: u64 = before
            .iter()
            .filter(|&&(id, slot)| !table.live(id, slot))
            .map(|&(_, slot)| table.avail[slot as usize].len() as u64)
            .sum();
        before.clear();
        for &(id, slot) in table.order.iter().filter(|&&(id, slot)| table.live(id, slot)) {
            before.push((id, slot));
            let map = &table.avail[slot as usize];
            buffered += map.len() as u64;
            let consumed = table.consumed[slot as usize];
            let stale = map.as_slice().iter().find(|&&(idx, _)| idx < consumed);
            if let (None, Some(&(idx, at))) = (late, stale) {
                late = Some((id, slot, idx, at));
            }
        }
        peak = peak.max(buffered);
        assert_eq!(sim.metrics().peak_buffered_blocks, peak, "late blocks count as buffered");
        if let Some((id, slot, idx, at)) = late {
            if table.live(id, slot) {
                assert_eq!(table.avail[slot as usize].get(idx), Some(at), "late block dropped");
                held += 1;
            } else {
                ended = true;
            }
        }
    }
    assert!(sim.metrics().late_serves > 0, "the slowed disk must serve late");
    assert!(held > 1, "the late block must stay buffered across rounds");
    assert!(ended, "the stream holding the late block must end within the run");
}

#[test]
fn degraded_admission_caps_active_streams() {
    let mut cfg = small_cfg(Scheme::DeclusteredParity)
        .with_failure(20, DiskId(1))
        .with_degraded_admission();
    cfg.arrival_rate = 20.0; // keep the pending queue deep
    let m = Simulator::new(cfg.clone()).unwrap().run();
    assert!(m.degraded_refusals > 0, "cap must bite under overload: {m:?}");
    // Enforcement off: same workload admits past the cap's refusals.
    let mut open = cfg;
    open.degraded_admission = false;
    let o = Simulator::new(open).unwrap().run();
    assert_eq!(o.degraded_refusals, 0);
    assert!(o.admitted >= m.admitted);
}

#[test]
fn nonclustered_degraded_cap_is_zero() {
    let faults = cms_fault::FaultSchedule::parse("@20 fail 1\n").unwrap();
    let mut cfg = small_cfg(Scheme::NonClustered)
        .with_faults(faults)
        .with_degraded_admission();
    cfg.arrival_rate = 10.0;
    let m = Simulator::new(cfg).unwrap().run();
    assert!(m.degraded_refusals > 0, "no admissions while degraded: {m:?}");
}

#[test]
fn fault_schedule_repair_restores_service() {
    let faults =
        cms_fault::FaultSchedule::parse("@30 fail 2\n@60 repair 2\n").unwrap();
    let mut cfg = small_cfg(Scheme::DeclusteredParity).with_faults(faults);
    cfg.rounds = 150;
    let mut sim = Simulator::new(cfg).unwrap();
    for _ in 0..40 {
        sim.step();
    }
    assert_eq!(sim.failed_disk(), Some(DiskId(2)));
    for _ in 0..30 {
        sim.step();
    }
    assert_eq!(sim.failed_disk(), None, "scheduled repair must clear the failure");
    for _ in 0..80 {
        sim.step();
    }
    let m = sim.metrics();
    assert_eq!(m.hiccups, 0);
    assert_eq!(m.lost_streams, 0);
}

#[test]
fn fault_schedule_runs_are_thread_invariant() {
    let faults = cms_fault::FaultSchedule::parse(
        "@25 transient 0 rounds=6\n@30 fail 1\n@45 slow 4 factor=3 rounds=15\n@70 fail 2\n",
    )
    .unwrap();
    let mut base = small_cfg(Scheme::DeclusteredParity).with_faults(faults);
    base.auto_rebuild = true;
    let seq = Simulator::new(base.clone().with_threads(1)).unwrap().run();
    let par = Simulator::new(base.with_threads(4)).unwrap().run();
    assert_eq!(seq, par, "multi-event fault runs must be bit-identical");
    assert!(seq.lost_streams > 0, "double failure must surface in metrics");
}

#[test]
fn invalid_configuration_is_rejected() {
    let mut cfg = small_cfg(Scheme::DeclusteredParity);
    cfg.block_bytes = 0;
    assert!(Simulator::new(cfg).is_err());
    let mut cfg = small_cfg(Scheme::StreamingRaid);
    cfg.p = 3; // 3 ∤ 8
    assert!(Simulator::new(cfg).is_err());
}

#[test]
fn degraded_cap_scales_nominal_capacity_by_surviving_disks() {
    let mut cfg = small_cfg(Scheme::PrefetchParityDisks).with_failure(20, DiskId(2));
    cfg.degraded_admission = true;
    let mut sim = Simulator::new(cfg).unwrap();
    let nominal = sim.nominal_capacity();
    let mut saw_down = false;
    for _ in 0..60 {
        let r = sim.step_report();
        if r.down_disks == 1 {
            saw_down = true;
            assert_eq!(r.degraded_cap, Some(nominal * 7 / 8));
        } else {
            assert_eq!(r.down_disks, 0);
            assert_eq!(r.degraded_cap, None, "healthy rounds carry no cap");
        }
    }
    assert!(saw_down, "the injected failure never took effect");
}

#[test]
fn non_clustered_outage_caps_admission_at_zero() {
    let mut cfg = small_cfg(Scheme::NonClustered).with_failure(20, DiskId(1));
    cfg.degraded_admission = true;
    let mut sim = Simulator::new(cfg).unwrap();
    let mut down_rounds = 0u64;
    for _ in 0..60 {
        let r = sim.step_report();
        if r.down_disks > 0 {
            down_rounds += 1;
            assert_eq!(
                r.degraded_cap,
                Some(0),
                "no redundancy ⇒ nothing is admissible while down"
            );
            assert_eq!(r.admissions, 0, "round {}: admitted under a zero cap", r.round);
        }
    }
    assert!(down_rounds > 0, "the injected failure never took effect");
}

#[test]
fn second_concurrent_outage_caps_admission_at_zero() {
    // Disks 2 and 6 sit in different clusters, so each failure alone
    // is inside the designed tolerance — only their overlap trips the
    // beyond-tolerance zero cap.
    let faults = cms_fault::FaultSchedule::parse("@20 fail 2\n@24 fail 6\n").unwrap();
    let mut cfg = small_cfg(Scheme::PrefetchParityDisks).with_faults(faults);
    cfg.degraded_admission = true;
    let mut sim = Simulator::new(cfg).unwrap();
    let nominal = sim.nominal_capacity();
    let (mut single, mut double) = (0u64, 0u64);
    for _ in 0..60 {
        let r = sim.step_report();
        match r.down_disks {
            0 => assert_eq!(r.degraded_cap, None),
            1 => {
                single += 1;
                assert_eq!(r.degraded_cap, Some(nominal * 7 / 8));
            }
            _ => {
                double += 1;
                assert_eq!(r.degraded_cap, Some(0), "double outage must refuse all");
                assert_eq!(r.admissions, 0, "round {}: admitted under a zero cap", r.round);
            }
        }
    }
    assert!(single > 0 && double > 0, "fault schedule never reached both states");
}
