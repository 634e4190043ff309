#![forbid(unsafe_code)]
//! The traced run: per-layer metrics measured from outside each layer.
//!
//! * Set-up is repeated as its sub-steps, each a span around one public
//!   call: the model solve, `best_design`, `Pgt::new`, `Catalog::mixed`,
//!   the layout build, then the facade constructor itself.
//! * After the prefix, an untraced half-window gives the reference round
//!   time; a traced half-window (at most [`TRACED_ROUNDS`] rounds) wraps
//!   every `request` / `fail_disk` / `tick_report` / `step` call in a
//!   span and installs a timing wrapper sink, so each
//!   `TraceSink::record` is timed and the engine's own events yield disk
//!   and admission counts. Their round-time ratio is the tracing
//!   overhead.
//! * Layer probes then time N calls of each kernel on the workload's
//!   geometry.

use std::hint::black_box;
use std::time::Instant;

use cms_admission::{Admission, AdmitRequest, DeclusteredAdmission, PrefetchParityDiskAdmission};
use cms_bibd::{best_design, DesignRequest, Pgt};
use cms_cluster::Placement;
use cms_core::units::{mbps, transfer_time};
use cms_core::{ClipId, DiskId, RequestId, Scheme};
use cms_disk::sweep_order_into;
use cms_layout::{clustered, declustered, MaterializedLayout, StreamAddr};
use cms_parity::{parity_into, Block, ErasureCodec, RsCodec};
use cms_sim::{SimConfig, TraceSink};
use cms_trace::{JsonlSink, NullSink};
use cms_workload::{Catalog, ClipChoice, PoissonArrivals};
use serde::Value;

use crate::measure::{self, hist_percentile, median, percentile, Calibrator, Samples};
use crate::run::{self, Ops, Reference, RunResult};
use crate::spans::{SpanLog, SpanName, TimingSink};
use crate::workloads::{cluster_config, Options, Report, System, Tier, Totals, Workload};

/// Most rounds the traced half-window keeps.
pub const TRACED_ROUNDS: usize = 50_000;
/// Call spans kept per workload (beyond it spans are counted as dropped).
const SPAN_CAP: usize = 100_000;
/// Record spans kept per workload.
const RECORD_SPAN_CAP: usize = 50_000;
/// Wall time each layer probe runs for.
const PROBE_SECONDS: f64 = 0.05;
/// Largest exactly-kept pending depth.
const PENDING_HIST: usize = 1 << 17;

/// The layer geometry a workload runs on, rebuilt from its public
/// configuration for the set-up sub-steps and the probes.
struct Geometry {
    cfg: SimConfig,
    pgt: Option<Pgt>,
    layout: MaterializedLayout,
}

/// Times the layer calls set-up makes as spans (`Catalog::mixed`,
/// `best_design`, `Pgt::new`, the layout build) on the workload's
/// geometry, and returns what they built: the server's for a single
/// node, one node's for the cluster.
fn setup_steps(
    w: &Workload,
    opts: &Options,
    plan: Option<&SimConfig>,
    log: &mut SpanLog,
) -> Geometry {
    let cfg = match plan {
        Some(cfg) => cfg.clone(),
        None => {
            let c = cluster_config(w, opts);
            let placement = Placement::new(c.nodes, c.replication, c.catalog_clips, c.seed);
            let mut node = c.node.clone();
            node.catalog_clips = placement.node_clips(cms_core::NodeId(0));
            node
        }
    };
    let declustered = cfg.scheme == Scheme::DeclusteredParity;
    let align = if declustered {
        1
    } else {
        u64::from(cfg.p - cfg.m)
    };
    let catalog = log
        .time(SpanName::Catalog, || {
            Catalog::mixed(
                cfg.catalog_clips,
                cfg.clip_len,
                cfg.clip_len_spread,
                1,
                align,
                u64::from(cfg.d),
                cfg.seed,
            )
        })
        .expect("catalog builds");
    let (pgt, layout) = if declustered {
        let design = log
            .time(SpanName::Design, || {
                best_design(DesignRequest {
                    v: cfg.d,
                    k: cfg.p,
                    allow_fallback: true,
                    seed: cfg.seed,
                })
            })
            .expect("design exists");
        let pgt = log.time(SpanName::Pgt, || Pgt::new(&design));
        let layout = log
            .time(SpanName::Layout, || {
                declustered::build(&pgt, catalog.max_stream_len())
            })
            .expect("layout builds");
        (Some(pgt), layout)
    } else {
        let layout = log
            .time(SpanName::Layout, || {
                clustered::build_with_redundancy(
                    cfg.scheme,
                    cfg.d,
                    cfg.p,
                    cfg.m,
                    catalog.max_stream_len(),
                )
            })
            .expect("layout builds");
        (None, layout)
    };
    Geometry { cfg, pgt, layout }
}

/// Per-round tallies of the traced half-window.
struct Tally {
    rounds: u64,
    active: u64,
    arrivals: u64,
    admissions: u64,
    blocks: u64,
    migrations: u64,
    refusals: u64,
    rebuild_blocks: u64,
    pending: Vec<u64>,
}

impl Tally {
    fn new() -> Tally {
        Tally {
            rounds: 0,
            active: 0,
            arrivals: 0,
            admissions: 0,
            blocks: 0,
            migrations: 0,
            refusals: 0,
            rebuild_blocks: 0,
            pending: vec![0; PENDING_HIST],
        }
    }

    fn add(&mut self, r: &Report) {
        self.rounds += 1;
        let pending = match r {
            Report::Node(r) => {
                self.admissions += r.admissions;
                self.blocks += r.blocks_served;
                r.pending
            }
            Report::Cluster(r) => {
                self.arrivals += r.arrivals;
                self.admissions += r.admissions;
                self.blocks += r.blocks_served;
                self.migrations += r.migrations;
                self.refusals += r.cluster_refusals + r.unroutable;
                self.rebuild_blocks += r.rebuild_blocks;
                r.pending
            }
        };
        self.active += r.active();
        let i = usize::try_from(pending)
            .unwrap_or(PENDING_HIST - 1)
            .min(PENDING_HIST - 1);
        self.pending[i] += 1;
    }

    fn per_round(&self, v: u64) -> f64 {
        v as f64 / self.rounds.max(1) as f64
    }
}

/// Node-side counters the traced half-window's deltas come from.
#[derive(Clone, Copy, Default)]
struct NodeCounters {
    reconstructions: u64,
    recovery_reads: u64,
    requests: u64,
    trace_bytes: u64,
}

fn node_counters(sys: &System) -> NodeCounters {
    match sys {
        System::Node(n) => {
            let m = n.server.metrics();
            NodeCounters {
                reconstructions: m.reconstructions,
                recovery_reads: m.recovery_reads,
                requests: n.requests,
                trace_bytes: n.trace_bytes.as_ref().map_or(0, |w| w.bytes()),
            }
        }
        System::Cluster(_) => NodeCounters::default(),
    }
}

/// Runs `f` repeatedly for [`PROBE_SECONDS`]; returns ns per call.
fn probe(mut f: impl FnMut(u64)) -> f64 {
    let start = Instant::now();
    let mut calls = 0u64;
    while start.elapsed().as_secs_f64() < PROBE_SECONDS {
        for _ in 0..64 {
            f(calls);
            calls += 1;
        }
    }
    start.elapsed().as_nanos() as f64 / calls as f64
}

/// `parity_into` over the `k = p − m` data blocks of one group at the
/// workload's verification size; GB/s of data folded.
fn xor_gbps(g: &Geometry) -> f64 {
    let k = (g.cfg.p - g.cfg.m) as usize;
    let len = g.cfg.content_bytes;
    let blocks: Vec<Block> = (0..k).map(|i| Block::synthetic(1, i as u64, len)).collect();
    let mut out = Block::zeroed(len);
    let ns = probe(|_| {
        parity_into(&mut out, blocks.iter()).expect("equal lengths");
        black_box(&out);
    });
    (k * len) as f64 / ns
}

/// RS(6,2) over 4 KiB shards: encode, and decode with two data shards
/// erased; GB/s of data read.
fn rs_gbps() -> (f64, f64) {
    const LEN: usize = 4096;
    let mut codec = RsCodec::new(6, 2).expect("RS(6,2) is valid");
    let mut shards: Vec<Block> = (0..8).map(|i| Block::synthetic(2, i, LEN)).collect();
    let enc = probe(|_| {
        codec.encode_within(&mut shards).expect("geometry matches");
        black_box(&shards);
    });
    let present: Vec<(usize, &Block)> = (2..8).map(|i| (i, &shards[i])).collect();
    let mut out = Block::zeroed(LEN);
    let mut codec = RsCodec::new(6, 2).expect("RS(6,2) is valid");
    let dec = probe(|c| {
        codec
            .reconstruct_into(&present, (c % 2) as usize, &mut out)
            .expect("six survivors decode");
        black_box(&out);
    });
    ((6 * LEN) as f64 / enc, (6 * LEN) as f64 / dec)
}

/// `try_admit` + `remove` on a controller of the workload's geometry,
/// loaded to the mean active stream count the traced window saw.
fn decide_ns(g: &Geometry, load: u64) -> f64 {
    let cfg = &g.cfg;
    let mut ctl: Box<dyn Admission> = match &g.pgt {
        Some(pgt) => Box::new(
            DeclusteredAdmission::new(cfg.d, pgt.rows(), cfg.q, cfg.f.max(1), pgt.lambda_max())
                .expect("controller builds"),
        ),
        None => Box::new(
            PrefetchParityDiskAdmission::with_redundancy(cfg.d, cfg.p, cfg.m, cfg.q)
                .expect("controller builds"),
        ),
    };
    let rows = g.pgt.as_ref().map_or(1, Pgt::rows);
    let span = u64::from(cfg.p - cfg.m);
    let request = |i: u64| AdmitRequest {
        id: RequestId(i),
        stream: 0,
        start_index: (i % 64) * span,
        start_disk: DiskId((i.wrapping_mul(7) % u64::from(cfg.d)) as u32),
        row: (i % u64::from(rows)) as u32,
        len: cfg.clip_len,
    };
    let mut next = 0u64;
    let mut misses = 0;
    while (ctl.active() as u64) < load && misses < 10_000 {
        if ctl.try_admit(request(next)).is_err() {
            misses += 1;
        }
        next += 1;
    }
    let base = next;
    probe(|c| {
        let req = request(base + c);
        black_box(ctl.try_admit(req).is_ok());
        ctl.remove(req.id);
    })
}

fn cscan_ns(q: u32) -> f64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let cylinders: Vec<u32> = (0..q)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % 3_000) as u32
        })
        .collect();
    let mut out = Vec::with_capacity(q as usize);
    probe(|c| {
        sweep_order_into(&cylinders, (c % 3_000) as u32, &mut out);
        black_box(&out);
    })
}

fn lookup_ns(pgt: &Pgt) -> f64 {
    let d = u64::from(pgt.disks());
    probe(|c| {
        black_box(pgt.set_of_block((c % d) as u32, c.wrapping_mul(2_654_435_761) % 100_000));
    })
}

fn recon_reads_ns(layout: &MaterializedLayout, clip_len: u64) -> f64 {
    let len = layout.stream_len(0).min(clip_len * 64).max(1);
    let mut out = Vec::with_capacity(16);
    probe(|c| {
        layout.reconstruction_reads_into(StreamAddr::new(0, c % len), &mut out);
        black_box(&out);
    })
}

fn gen_ns_per_round(rate: f64, catalog: u64, seed: u64) -> f64 {
    let mut arrivals = PoissonArrivals::new(rate, seed ^ 0xA11);
    let mut choice = ClipChoice::uniform(catalog, seed ^ 0xC11);
    probe(|_| {
        for _ in 0..arrivals.next_round() {
            black_box(choice.next_clip());
        }
    })
}

fn placement_ns(w: &Workload, opts: &Options) -> f64 {
    let c = cluster_config(w, opts);
    let placement = Placement::new(c.nodes, c.replication, c.catalog_clips, c.seed);
    probe(|i| {
        black_box(
            placement
                .replicas(ClipId(i % c.catalog_clips))
                .map(|n| n.raw())
                .sum::<u32>(),
        );
    })
}

fn span_ms(log: &SpanLog, name: SpanName) -> f64 {
    log.named(name).fold(0.0, |ms, s| ms + s.ns() as f64 / 1e6)
}

fn mean_span_ns(log: &SpanLog, name: SpanName) -> f64 {
    let (n, total) = log
        .named(name)
        .fold((0u64, 0u64), |(n, t), s| (n + 1, t + s.ns()));
    if n == 0 {
        0.0
    } else {
        total as f64 / n as f64
    }
}

/// Runs `w` traced and computes every per-layer metric; appends the
/// workload's spans to `spans_out` as JSON lines.
#[must_use]
pub fn run_traced(
    w: &Workload,
    opts: &Options,
    seconds: f64,
    reference: &Reference,
    spans_out: &mut String,
) -> RunResult {
    let started = Instant::now();
    let cal_ref = reference.cal_ref_us;
    let mut cal = Calibrator::default();
    let mut log = SpanLog::with_capacity(started, SPAN_CAP, RECORD_SPAN_CAP);

    let mut p = run::prepare(
        w,
        opts,
        1,
        run::SAMPLE_CAP,
        &mut cal,
        cal_ref,
        Some(&mut log),
    );
    let geo = setup_steps(w, opts, p.plan.as_ref().map(|plan| &plan.cfg), &mut log);

    let before = Ops::of(&p.sys);
    let untraced = run::window(&mut p, seconds / 2.0, &mut cal, cal_ref);
    let untraced_us = untraced.normalized_us();

    let inner: Box<dyn TraceSink + Send> = match &p.sys {
        System::Node(n) => match &n.trace_bytes {
            Some(writer) => Box::new(JsonlSink::new(writer.clone())),
            None => Box::new(NullSink),
        },
        System::Cluster(_) => Box::new(NullSink),
    };
    let (sink, stats) = TimingSink::new(inner, &log, RECORD_SPAN_CAP);
    p.sys.set_trace_sink(Box::new(sink));
    let c0 = node_counters(&p.sys);
    let mut tally = Tally::new();
    let traced = {
        let (sys, ledger, log, tally) = (&mut p.sys, &mut p.ledger, &mut log, &mut tally);
        measure::timed_window(
            seconds / 2.0,
            cal_ref,
            &mut cal,
            Samples::new(TRACED_ROUNDS),
            || {
                let r = sys.round(Some(log));
                ledger.absorb(&r);
                tally.add(&r);
                r.active()
            },
        )
    };
    let c1 = node_counters(&p.sys);
    let after = Ops::of(&p.sys);
    let traced_us = traced.normalized_us();
    let stats = std::mem::take(&mut *stats.lock().expect("wrapper sink never panics"));

    let cfg = &geo.cfg;
    let rounds = tally.rounds.max(1) as f64;
    // Every tick of the traced window, stored as a span or not.
    let ticks = log.rounds;
    let per_tick = |v: u64| v as f64 / ticks.ticks.max(1) as f64;
    let round_us = transfer_time(cfg.block_bytes, mbps(1.5)) * 1e6;
    // Both are 0 where no `DiskServe` event arrives (the cluster's nodes
    // do not trace).
    let queue_p99 = hist_percentile(&stats.queue_hist, 0.99) as f64 / f64::from(cfg.q);
    let util_p99 = hist_percentile(&stats.busy_hist, 0.99) as f64 / round_us;
    let k = u64::from(cfg.p - cfg.m);
    let recon = c1.reconstructions - c0.reconstructions;
    let parity_bytes = if cfg.verify_parity {
        recon * (k + 1) * cfg.content_bytes as u64
    } else {
        0
    };
    let is_cluster = w.tier == Tier::Cluster;
    let on_cluster = |v: f64| if is_cluster { v } else { 0.0 };
    let on_node = |v: f64| if is_cluster { 0.0 } else { v };
    let wait_p99 = match p.sys.totals() {
        Totals::Node(m) => m.wait_percentile(0.99) as f64,
        Totals::Cluster(_) => 0.0,
    };
    let (rs_enc, rs_dec) = rs_gbps();
    let catalog = match w.tier {
        Tier::Node => cfg.catalog_clips,
        Tier::Cluster => cluster_config(w, opts).catalog_clips,
    };
    // Node round reports count no arrivals: the benchmark submits them
    // through the facade between ticks.
    let arrivals = if is_cluster {
        tally.arrivals
    } else {
        c1.requests - c0.requests
    };
    let untraced_p50 = percentile(&untraced_us, 0.50);
    // Mean active streams per engine (the cluster spreads them over its
    // nodes).
    let nodes = if is_cluster {
        u64::from(cluster_config(w, opts).nodes)
    } else {
        1
    };
    let node_load = tally.active / tally.rounds.max(1) / nodes;
    let metrics: Vec<(&'static str, f64)> = vec![
        ("parity.xor_gbps", xor_gbps(&geo)),
        ("parity.rs_encode_gbps", rs_enc),
        ("parity.rs_decode_gbps", rs_dec),
        ("parity.reconstructions_per_round", recon as f64 / rounds),
        ("parity.bytes_per_round", parity_bytes as f64 / rounds),
        ("trace.events_per_round", stats.events as f64 / rounds),
        (
            "trace.bytes_per_round",
            (c1.trace_bytes - c0.trace_bytes) as f64 / rounds,
        ),
        (
            "trace.record_ns",
            stats.record_ns as f64 / stats.events.max(1) as f64,
        ),
        (
            "trace.share",
            ticks.record_ns as f64 / ticks.ns.max(1) as f64,
        ),
        (
            "trace.overhead_ratio",
            percentile(&traced_us, 0.50) / untraced_p50,
        ),
        ("bibd.design_ms", span_ms(&log, SpanName::Design)),
        ("bibd.pgt_ms", span_ms(&log, SpanName::Pgt)),
        ("bibd.lookup_ns", geo.pgt.as_ref().map_or(0.0, lookup_ns)),
        ("layout.build_ms", span_ms(&log, SpanName::Layout)),
        (
            "layout.recon_reads_ns",
            recon_reads_ns(&geo.layout, cfg.clip_len),
        ),
        (
            "layout.recovery_reads_per_round",
            (c1.recovery_reads - c0.recovery_reads) as f64 / rounds,
        ),
        ("disk.cscan_ns", cscan_ns(cfg.q)),
        ("disk.blocks_per_round", tally.per_round(tally.blocks)),
        ("disk.util_p99", util_p99),
        ("disk.queue_p99", queue_p99),
        ("admission.decide_ns", decide_ns(&geo, node_load)),
        (
            "admission.admits_per_round",
            tally.per_round(tally.admissions),
        ),
        (
            "admission.pending_p99",
            hist_percentile(&tally.pending, 0.99) as f64,
        ),
        ("admission.startup_wait_p99_rounds", wait_p99),
        ("sim.allocs_per_round", per_tick(ticks.allocs)),
        ("sim.active_streams", tally.per_round(tally.active)),
        (
            "sim.rebuild_rounds_p50",
            median(
                &p.ledger
                    .recoveries
                    .iter()
                    .map(|&r| r as f64)
                    .collect::<Vec<_>>(),
            ),
        ),
        ("server.round_us_p99", percentile(&untraced_us, 0.99)),
        (
            "server.request_ns",
            on_node(mean_span_ns(&log, SpanName::Request)),
        ),
        (
            "server.tick_self_us",
            per_tick(ticks.ns.saturating_sub(ticks.record_ns)) / 1e3,
        ),
        (
            "workload.gen_ns_per_round",
            gen_ns_per_round(opts.rate(w), catalog, opts.seed),
        ),
        ("workload.arrivals_per_round", arrivals as f64 / rounds),
        ("workload.catalog_ms", span_ms(&log, SpanName::Catalog)),
        (
            "cluster.migrations_per_kround",
            on_cluster(tally.per_round(tally.migrations) * 1e3),
        ),
        (
            "cluster.refusals_per_kround",
            on_cluster(tally.per_round(tally.refusals) * 1e3),
        ),
        (
            "cluster.rebuild_blocks_per_round",
            on_cluster(tally.per_round(tally.rebuild_blocks)),
        ),
        (
            "cluster.placement_ns",
            if is_cluster {
                placement_ns(w, opts)
            } else {
                0.0
            },
        ),
        ("model.solve_ms", span_ms(&log, SpanName::Solve)),
        (
            "host.calib_us",
            (untraced.mean_cal_us() + traced.mean_cal_us()) / 2.0,
        ),
        (
            "host.raw_round_us_p50",
            percentile(&untraced.raw_us(), 0.50),
        ),
    ];

    log.adopt_records(&stats.spans);
    let base = spans_out.lines().count();
    log.write_jsonl(w.name, base, spans_out);

    let ev = run::evidence(
        w,
        opts,
        reference,
        &p,
        vec![untraced.rounds(), traced.rounds()],
    );
    let facts = vec![
        ("seed", Value::U64(opts.seed)),
        ("nproc", Value::U64(run::nproc() as u64)),
        ("cal_ref_us", Value::F64(cal_ref)),
        ("untraced_rounds", Value::U64(untraced.rounds() as u64)),
        ("traced_rounds", Value::U64(traced.rounds() as u64)),
        ("spans", Value::U64(log.spans().len() as u64)),
        ("spans_dropped", Value::U64(log.dropped)),
        ("record_spans_kept", Value::U64(stats.spans.len() as u64)),
        ("digest", Value::String(format!("{:016x}", ev.digest))),
        ("wall_s", Value::F64(started.elapsed().as_secs_f64())),
    ];
    RunResult {
        workload: w.name,
        metrics,
        attempted: after.attempted_since(&before),
        failed: after.failed_since(&before),
        failures: ev.failures(),
        facts,
    }
}
