// lint: allow(H001) this bin hosts the bench-alloc counting global allocator, which requires unsafe GlobalAlloc
//! Engine performance baseline: set-up time and rounds/second for seven
//! fixed scenarios, written as machine-readable JSON (`BENCH_engine.json`).
//!
//! Scenarios (all single-cell, deterministic):
//!
//! * `fig6_steady` — the Figure 6 cell (DeclusteredParity, p = 4, 256 MB)
//!   in healthy steady state;
//! * `failure_drill` — the same cell running degraded after a disk
//!   failure, with reconstruction verification on;
//! * `rebuild` — background rebuild onto a spare under client load (the
//!   A3 experiment's configuration);
//! * `rs-rebuild` — the campaign's `double_disk_failure_rs2` cell
//!   (PrefetchParityDisks under RS(2, 2), both failures landing during
//!   warm-up, background rebuild, byte-level verification on), so the
//!   GF(256) encode/decode hot loops run — and are allocation-counted —
//!   inside the timed window;
//! * `rs-verify` — the repository benchmark's `rs-degraded` array
//!   (PrefetchParityDisks under RS(6, 2), data disks 0 and 1 of one
//!   cluster lost during warm-up, never repaired) verifying 4 KiB shards,
//!   the size at which verification dominates the round;
//! * `cluster-small` — the campaign's 8-node steady-state cluster behind
//!   the gateway (one serve phase per node per round, so `serve_rounds`
//!   is `rounds * 8` for this scenario);
//! * `giant` — the scale stressor: a 1000-disk declustered array
//!   saturated at ~50 000 concurrent streams (p = 2 complete-pairs
//!   design, q = 52, 1 MB blocks). Three orders of magnitude more
//!   streams than a paper cell; capped at 256 measured rounds so the
//!   suite stays CI-sized.
//!
//! Each scenario's constructor (`Simulator::new` / `ClusterSim::new`) runs
//! five times; the median wall time is its `setup_secs`, and the last
//! simulator built is the one measured. The scenario then steps
//! `--warmup` rounds (default 64) to grow the scratch arenas to
//! steady-state size, then times `--rounds` further rounds (default 4096
//! — long enough that the measurement is dominated by steady-state
//! service, not the admission ramp; sub-second windows showed ±40 %
//! run-to-run noise). With `--features bench-alloc` the
//! binary installs a counting global allocator and reports the
//! allocations attributed to the disk-service phase of the timed window —
//! the performance contract (DESIGN.md §7) says that number is zero.
//! Attribution is only valid single-threaded, so `--threads` defaults to
//! 1 here (0 also means 1).
//!
//! Usage:
//! `cargo run --release -p cms-bench --features bench-alloc --bin perf_baseline -- [--out BENCH_engine.json] [--rounds N] [--warmup N] [--seed S] [--threads T] [--only NAME] [--gauge-probe]`

use std::time::Instant;

use cms_bench::campaign::campaign_config;
use cms_bench::{cluster_campaign_config, sim_point, BenchArgs, CLUSTER_SCENARIOS, PAPER_D, SCENARIOS};
use cms_cluster::{ClusterConfig, ClusterSim};
use cms_core::units::mib;
use cms_core::{DiskId, Scheme};
use cms_model::ModelInput;
use cms_server::CmServerBuilder;
use cms_sim::{FaultSchedule, SimConfig, Simulator};
use serde::Serialize;

#[cfg(feature = "bench-alloc")]
mod counting_alloc {
    //! Pass-through global allocator that notes every allocation with the
    //! sim's hot gauge, so serve-phase allocations can be counted.

    use std::alloc::{GlobalAlloc, Layout, System};

    struct Counting;

    // SAFETY: defers entirely to `System`; the bookkeeping is two relaxed
    // atomic operations and never allocates itself.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            cms_sim::hotgauge::note_alloc();
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout);
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            cms_sim::hotgauge::note_alloc();
            System.realloc(ptr, layout, new_size)
        }
    }

    #[global_allocator]
    static ALLOC: Counting = Counting;
}

/// One timed scenario of the report.
#[derive(Debug, Serialize)]
struct Scenario {
    name: &'static str,
    /// Wall time of the scenario's constructor.
    setup_secs: f64,
    rounds: u64,
    elapsed_secs: f64,
    rounds_per_sec: f64,
    /// Allocations inside the disk-service phase of the timed window
    /// (`None` without `--features bench-alloc`).
    serve_allocs: Option<u64>,
    /// Serve phases observed in the timed window.
    serve_rounds: Option<u64>,
    allocs_per_round: Option<f64>,
}

/// The whole `BENCH_engine.json` document.
#[derive(Debug, Serialize)]
struct Report {
    schema: &'static str,
    threads: usize,
    warmup_rounds: u64,
    measured_rounds: u64,
    seed: u64,
    alloc_counting: bool,
    /// Peak resident set (`VmHWM`) in KiB, when `/proc` exposes it.
    peak_rss_kib: Option<u64>,
    scenarios: Vec<Scenario>,
}

/// Constructions timed per scenario; `setup_secs` is their median, so
/// one preempted or page-faulting construction does not set it.
const SETUP_REPS: usize = 5;

/// Runs `build` [`SETUP_REPS`] times, dropping each result before the
/// next run, and returns the last result with the median wall time in
/// seconds.
fn timed_setup<T>(mut build: impl FnMut() -> T) -> (T, f64) {
    let mut secs = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for _ in 0..SETUP_REPS {
        drop(built.take());
        let start = Instant::now();
        built = Some(build());
        secs.push(start.elapsed().as_secs_f64());
    }
    secs.sort_by(f64::total_cmp);
    (built.expect("SETUP_REPS is positive"), secs[SETUP_REPS / 2])
}

fn run_scenario(name: &'static str, cfg: SimConfig, warmup: u64, rounds: u64) -> Scenario {
    let (sim, setup_secs) = timed_setup(|| Simulator::new(cfg.clone()));
    let mut sim = sim.unwrap_or_else(|e| panic!("{name} sim constructs: {e}"));
    time_scenario(name, setup_secs, warmup, rounds, || {
        sim.step();
    })
}

/// Times a cluster scenario. Every node steps inside one cluster round,
/// so the serve-phase gauge observes `nodes` phases per timed round —
/// `serve_rounds` comes back as `rounds * nodes`, with the same
/// zero-allocations-per-phase contract as the single-node scenarios.
fn run_cluster_scenario(
    name: &'static str,
    cfg: ClusterConfig,
    warmup: u64,
    rounds: u64,
) -> Scenario {
    let (sim, setup_secs) = timed_setup(|| ClusterSim::new(cfg.clone()));
    let mut sim = sim.unwrap_or_else(|e| panic!("{name} sim constructs: {e}"));
    time_scenario(name, setup_secs, warmup, rounds, || {
        sim.step();
    })
}

fn time_scenario(
    name: &'static str,
    setup_secs: f64,
    warmup: u64,
    rounds: u64,
    mut step: impl FnMut(),
) -> Scenario {
    for _ in 0..warmup {
        step();
    }
    #[cfg(feature = "bench-alloc")]
    cms_sim::hotgauge::reset();
    let start = Instant::now();
    for _ in 0..rounds {
        step();
    }
    let elapsed_secs = start.elapsed().as_secs_f64();

    let serve_allocs: Option<u64>;
    let serve_rounds: Option<u64>;
    let allocs_per_round: Option<f64>;
    #[cfg(feature = "bench-alloc")]
    {
        let (allocs, phases) = cms_sim::hotgauge::snapshot();
        serve_allocs = Some(allocs);
        serve_rounds = Some(phases);
        allocs_per_round =
            Some(if phases == 0 { 0.0 } else { allocs as f64 / phases as f64 });
    }
    #[cfg(not(feature = "bench-alloc"))]
    {
        serve_allocs = None;
        serve_rounds = None;
        allocs_per_round = None;
    }

    Scenario {
        name,
        setup_secs,
        rounds,
        elapsed_secs,
        rounds_per_sec: rounds as f64 / elapsed_secs,
        serve_allocs,
        serve_rounds,
        allocs_per_round,
    }
}

/// The Figure 6 cell: DeclusteredParity, p = 4, 256 MB buffer, healthy.
fn fig6_cfg(total: u64, seed: u64, threads: usize) -> SimConfig {
    let input = ModelInput::sigmod96(mib(256)).with_storage_blocks(1000 * 50 * 3 / 2);
    let point =
        sim_point(Scheme::DeclusteredParity, &input, 4, seed).expect("fig6 cell constructs");
    let mut cfg =
        SimConfig::sigmod96(Scheme::DeclusteredParity, &point, PAPER_D).with_threads(threads);
    cfg.rounds = total;
    cfg.seed = seed;
    cfg
}

/// The same cell degraded: disk 5 fails mid-warm-up, verification on, so
/// the timed window measures reconstruction-mode service.
fn drill_cfg(total: u64, warmup: u64, seed: u64, threads: usize) -> SimConfig {
    let input = ModelInput::sigmod96(mib(256)).with_storage_blocks(1000 * 50 * 3 / 2);
    let point =
        sim_point(Scheme::DeclusteredParity, &input, 4, seed).expect("drill cell constructs");
    let mut cfg = SimConfig::sigmod96(Scheme::DeclusteredParity, &point, PAPER_D)
        .with_failure(warmup / 2, DiskId(5))
        .with_verification()
        .with_threads(threads);
    cfg.rounds = total;
    cfg.seed = seed;
    cfg
}

/// The A3 rebuild configuration: small library, moderate load, background
/// rebuild onto a spare running through the whole timed window.
fn rebuild_cfg(total: u64, warmup: u64, seed: u64, threads: usize) -> SimConfig {
    let input = ModelInput::sigmod96(mib(256)).with_storage_blocks(24_000);
    let point =
        sim_point(Scheme::DeclusteredParity, &input, 4, seed).expect("rebuild point constructs");
    let mut cfg = SimConfig::sigmod96(Scheme::DeclusteredParity, &point, PAPER_D)
        .with_failure(warmup / 2, DiskId(1))
        .with_threads(threads);
    cfg.catalog_clips = 300;
    cfg.arrival_rate = 5.0;
    cfg.rounds = total;
    cfg.seed = seed;
    cfg.auto_rebuild = true;
    cfg
}

/// The Reed–Solomon drill: the fault campaign's `double_disk_failure_rs2`
/// cell — PrefetchParityDisks with RS(2, 2) groups, disks 1 and 2 (same
/// cluster) failing at rounds 30/40 (inside the default warm-up),
/// background rebuild, and byte-level reconstruction verification on.
/// Every recovery and rebuild decode in the timed window exercises the
/// GF(256) kernels, so the budget gate pins both their throughput and
/// the zero-allocation contract of the `_within` codec paths.
fn rs_rebuild_cfg(total: u64, seed: u64, threads: usize) -> SimConfig {
    let scenario = SCENARIOS
        .iter()
        .find(|s| s.name == "double_disk_failure_rs2")
        .expect("rs2 campaign scenario exists");
    campaign_config(scenario, Scheme::PrefetchParityDisks, total, seed, threads)
}

/// The repository benchmark's `rs-degraded` array at the shard size its
/// verification cost is measured at: PrefetchParityDisks under RS(6, 2)
/// (p = 8, solved by `redundancy(2)`), 480 × 50-block clips, λ = 1.5,
/// data disks 0 and 1 of the first cluster failing at rounds 20/30
/// (inside the default warm-up) and never repaired, and byte-level
/// verification of 4 KiB shards. Every lost block is reconstructed, and
/// its group synthesized, encoded and decoded, in the timed window;
/// `rs-rebuild` verifies 256-byte shards, where that path costs little.
fn rs_verify_cfg(total: u64, seed: u64, threads: usize) -> SimConfig {
    let (_, mut cfg) = CmServerBuilder::new(Scheme::PrefetchParityDisks)
        .redundancy(2)
        .catalog(480, 50)
        .seed(seed)
        .threads(threads)
        .verify_reconstructions()
        .solve()
        .expect("RS(6,2) prefetch array is feasible");
    cfg.arrival_rate = 1.5;
    cfg.content_bytes = 4096;
    cfg.faults = Some(FaultSchedule::parse("@20 fail 0\n@30 fail 1\n").expect("spec parses"));
    cfg.rounds = total;
    cfg
}

/// The scale stressor: 1000 disks, ~50 000 concurrent streams. p = 2
/// resolves to the complete-pairs design (every disk pair is a parity
/// group; r = 999, λ = 1 — the only feasible block design at v = 1000),
/// and q = 52 with f = 2 puts nominal capacity at d·(q−f) = 50 000
/// double-buffered streams. The arrival flood (λ = 800/round) saturates
/// admission within the warm-up; the huge aging limit keeps the backlog
/// queued instead of expiring it.
fn giant_cfg(total: u64, seed: u64, threads: usize) -> SimConfig {
    SimConfig {
        scheme: Scheme::DeclusteredParity,
        d: 1000,
        p: 2,
        m: 1,
        q: 52,
        f: 2,
        block_bytes: mib(1),
        catalog_clips: 1000,
        clip_len: 64,
        clip_len_spread: 0,
        arrival_rate: 800.0,
        zipf_theta: 0.0,
        rounds: total,
        failure: None,
        faults: None,
        degraded_admission: false,
        verify_parity: false,
        content_bytes: 512,
        seed,
        admission_scan: 64,
        aging_limit: 100_000,
        auto_rebuild: false,
        threads,
        trace: cms_sim::TraceSpec::off(),
    }
}

/// The cluster-tier scenario: the campaign's 8-node steady-state cluster
/// (DeclusteredParity, d = 8 per node, replicated catalog, gateway
/// arrivals) stepped single-threaded so allocation attribution stays
/// valid.
fn cluster_cfg(total: u64, seed: u64, threads: usize) -> ClusterConfig {
    let steady = CLUSTER_SCENARIOS
        .iter()
        .find(|s| s.name == "steady")
        .expect("steady scenario exists");
    cluster_campaign_config(steady, total, seed, threads)
}

/// Peak resident set size (`VmHWM`) in KiB from `/proc/self/status`.
fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// `--gauge-probe`: proves the allocation-measurement chain is live.
/// Every real scenario is allocation-free, so a dead gauge (e.g. the
/// binary rebuilt without `bench-alloc`) and a clean hot path report the
/// same zero — this deliberately allocates inside a synthetic serve
/// bracket and demands the count.
#[cfg(feature = "bench-alloc")]
fn gauge_probe() -> ! {
    cms_sim::hotgauge::reset();
    cms_sim::hotgauge::probe_serve(|| {
        let v = vec![0u8; 4096];
        std::hint::black_box(&v);
    });
    let (allocs, phases) = cms_sim::hotgauge::snapshot();
    assert!(
        allocs >= 1 && phases == 1,
        "gauge dead: {allocs} allocs / {phases} phases counted for a probe that allocates once"
    );
    println!("perf_baseline: gauge probe ok ({allocs} alloc(s) attributed to 1 serve phase)");
    std::process::exit(0);
}

#[cfg(not(feature = "bench-alloc"))]
fn gauge_probe() -> ! {
    eprintln!("perf_baseline: --gauge-probe requires --features bench-alloc");
    std::process::exit(2);
}

fn main() {
    let args = BenchArgs::parse();
    if args.flag("--gauge-probe") {
        gauge_probe();
    }
    if args.trace_path().is_some() {
        eprintln!("perf_baseline: --trace ignored (tracing would perturb the timings)");
    }
    let threads = match args.threads() {
        0 => 1, // allocation attribution needs a single service thread
        t => t,
    };
    let warmup = args.u64_value("--warmup").unwrap_or(64);
    let rounds = args.rounds_or(4096);
    let seed = args.seed_or(1);
    let total = warmup + rounds;

    let only = args.value("--only").map(str::to_owned);
    let want = |name: &str| only.as_deref().is_none_or(|o| o == name);

    let mut scenarios = Vec::new();
    if want("fig6_steady") {
        scenarios.push(run_scenario(
            "fig6_steady",
            fig6_cfg(total, seed, threads),
            warmup,
            rounds,
        ));
    }
    if want("failure_drill") {
        scenarios.push(run_scenario(
            "failure_drill",
            drill_cfg(total, warmup, seed, threads),
            warmup,
            rounds,
        ));
    }
    if want("rebuild") {
        scenarios.push(run_scenario(
            "rebuild",
            rebuild_cfg(total, warmup, seed, threads),
            warmup,
            rounds,
        ));
    }
    if want("rs-rebuild") {
        scenarios.push(run_scenario(
            "rs-rebuild",
            rs_rebuild_cfg(total, seed, threads),
            warmup,
            rounds,
        ));
    }
    if want("rs-verify") {
        scenarios.push(run_scenario(
            "rs-verify",
            rs_verify_cfg(total, seed, threads),
            warmup,
            rounds,
        ));
    }
    if want("cluster-small") {
        scenarios.push(run_cluster_scenario(
            "cluster-small",
            cluster_cfg(total, seed, threads),
            warmup,
            rounds,
        ));
    }
    if want("giant") {
        // Each giant round services ~50k streams across 1000 disks, so
        // the measured window is capped to keep the suite CI-sized.
        let giant_rounds = rounds.min(256);
        scenarios.push(run_scenario(
            "giant",
            giant_cfg(warmup + giant_rounds, seed, threads),
            warmup,
            giant_rounds,
        ));
    }
    if scenarios.is_empty() {
        eprintln!("perf_baseline: --only matched no scenario");
        std::process::exit(2);
    }

    let report = Report {
        schema: cms_bench::budget::REPORT_SCHEMA,
        threads,
        warmup_rounds: warmup,
        measured_rounds: rounds,
        seed,
        alloc_counting: cfg!(feature = "bench-alloc"),
        peak_rss_kib: peak_rss_kib(),
        scenarios,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    let out = args.value("--out").unwrap_or("BENCH_engine.json");
    std::fs::write(out, format!("{json}\n")).expect("output file writable");
    println!("{json}");
    eprintln!("perf_baseline: wrote {out}");
}
