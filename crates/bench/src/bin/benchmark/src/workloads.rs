#![forbid(unsafe_code)]
//! The five workloads, defined entirely here: literal configurations,
//! the open-loop request generator, and fault specs generated from the
//! seed. Only public APIs of the server, simulator and cluster crates are
//! used, so the definitions cannot drift with the experiment tables of
//! `cms-bench`.

use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cms_cluster::{ClusterConfig, ClusterMetrics, ClusterRoundReport, ClusterSim};
use cms_core::units::mib;
use cms_core::{DiskId, Scheme};
use cms_fault::FaultSchedule;
use cms_model::CapacityPoint;
use cms_server::{CmServer, CmServerBuilder};
use cms_sim::{Metrics, RoundReport, SimConfig, TraceSink, TraceSpec};
use cms_trace::JsonlSink;
use cms_workload::{ClipChoice, PoissonArrivals};

use crate::spans::{SpanLog, SpanName};

/// Which facade a workload enters through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// One `CmServer`, driven by the benchmark's own open-loop generator.
    Node,
    /// A `ClusterSim` behind its gateway (the gateway generates arrivals).
    Cluster,
}

/// One benchmark workload: what it runs and how.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Stable name (`--workload`, metric prefixes, `BENCHMARK.json`,
    /// which also says why each workload exists).
    pub name: &'static str,
    /// Facade the workload enters through.
    pub tier: Tier,
    /// Disk-service (or node-stepping) worker threads; 0 is the library
    /// default, which resolves to the machine's available parallelism.
    pub threads: usize,
    /// Mean requests per round from the open-loop generator (the
    /// gateway's λ for the cluster).
    pub rate: f64,
    /// Untimed rounds before the timed window. They reach steady state
    /// and are the slice the output digest covers.
    pub prefix_rounds: u64,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Whether a hiccup fails the output check. Where it does not
    /// (`rs-degraded`), hiccups still count as failed operations.
    pub hiccup_free: bool,
}

/// The workload table, in run order.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "steady",
        tier: Tier::Node,
        threads: 1,
        rate: 5.0,
        prefix_rounds: 2_000,
        setup_reps: 21,
        hiccup_free: true,
    },
    Workload {
        name: "rebuild-traced",
        tier: Tier::Node,
        threads: 1,
        rate: 5.0,
        prefix_rounds: 2_000,
        setup_reps: 21,
        hiccup_free: true,
    },
    // Two data disks of one cluster lost. Block deadlines start to be
    // missed near λ = 2.25, and at λ = 4 ~1% of operations fail
    // (`--rate 4` reproduces it). At the rate below none failed in 20
    // seeded runs, so the measured run's operations all succeed.
    Workload {
        name: "rs-degraded",
        tier: Tier::Node,
        threads: 1,
        rate: RS_RATE,
        prefix_rounds: 2_000,
        setup_reps: 21,
        hiccup_free: false,
    },
    // One worker thread and λ = 55. At λ = 550 (~35k streams) the
    // per-round working set makes round time swing with the host's memory
    // contention: the run-to-run spread of the median round time was
    // 12–20% at one thread, 17–18% at the default two, and 4–5% at
    // λ = 150, against 2–5% at λ = 55. `--threads 0` reproduces the
    // library default.
    Workload {
        name: "giant",
        tier: Tier::Node,
        threads: 1,
        rate: 55.0,
        prefix_rounds: 2_000,
        setup_reps: 3,
        hiccup_free: true,
    },
    Workload {
        name: "cluster",
        tier: Tier::Cluster,
        threads: 0,
        rate: 5.0,
        prefix_rounds: 2_000,
        setup_reps: 31,
        hiccup_free: true,
    },
];

/// Looks a workload up by name.
#[must_use]
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Run-time choices that are not part of a workload's definition.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Seed of the request generator and the generated fault specs.
    pub seed: u64,
    /// Overrides the workload's thread setting (findings repro).
    pub threads: Option<usize>,
    /// Overrides the workload's request rate (findings repro).
    pub rate: Option<f64>,
}

impl Options {
    /// Default seed, no overrides.
    pub const DEFAULT: Options = Options {
        seed: 1,
        threads: None,
        rate: None,
    };

    /// Does this run use the committed definition, so its digest is
    /// comparable with the recorded one?
    #[must_use]
    pub fn is_reference(&self) -> bool {
        self.seed == Options::DEFAULT.seed && self.rate.is_none()
    }

    /// The mean requests per round `w` runs at.
    #[must_use]
    pub fn rate(&self, w: &Workload) -> f64 {
        self.rate.unwrap_or(w.rate)
    }
}

/// `rs-degraded`'s request rate.
const RS_RATE: f64 = 1.5;

/// The `rs-degraded` fault spec: data disks 0 and 1 of the first
/// cluster fail inside the prefix and are never repaired.
pub const RS_FAULT_SPEC: &str = "@20 fail 0\n@30 fail 1\n";

/// Round of the first `rebuild-traced` failure (inside the prefix, after
/// the admission ramp).
const REBUILD_FIRST_FAIL: u64 = 100;
/// Rounds `rebuild-traced` waits after a rebuild completes before the
/// next failure. Short, so ~80% of rounds run degraded or rebuilding:
/// with a 50-round gap half the rounds were healthy and the median round
/// time flipped between the two populations from run to run.
const REBUILD_GAP: u64 = 10;

/// The disk `rebuild-traced` fails the `i`-th time: `(5 + 7·(i + seed −
/// 1)) mod 32`, so the default seed starts at disk 5 and visits all 32
/// disks (7 is coprime to 32).
#[must_use]
pub fn rebuild_disk(i: u64, seed: u64) -> u32 {
    ((5 + 7 * (i + seed.wrapping_sub(1) % 32)) % 32) as u32
}

/// Cluster node-failure period and repair delay, in rounds.
const CLUSTER_PERIOD: u64 = 2_000;
const CLUSTER_REPAIR_AFTER: u64 = 300;
const CLUSTER_FIRST_FAIL: u64 = 1_000;
const CLUSTER_NODES: u32 = 8;

/// The cluster's node-scoped fault spec for `rounds` rounds: node
/// `(i + seed) mod 8` fails at `1000 + 2000·i` and is repaired 300
/// rounds later.
#[must_use]
pub fn cluster_fault_spec(seed: u64, rounds: u64) -> String {
    let mut spec = String::new();
    let mut i = 0u64;
    while CLUSTER_FIRST_FAIL + i * CLUSTER_PERIOD < rounds {
        let at = CLUSTER_FIRST_FAIL + i * CLUSTER_PERIOD;
        let node = (i + seed) % u64::from(CLUSTER_NODES);
        spec.push_str(&format!(
            "@{at} fail-node {node}\n@{} repair-node {node}\n",
            at + CLUSTER_REPAIR_AFTER
        ));
        i += 1;
    }
    spec
}

/// Upper bound on the rounds any run steps; sizes the generated cluster
/// schedule (a window is time-bounded, so this is never reached in
/// practice).
const MAX_ROUNDS: u64 = 4_000_000;

/// The server seed (layout jitter, design construction). Fixed, so the
/// system under test is the same for every `--seed`; the seed varies
/// only the inputs.
const SERVER_SEED: u64 = 0xCAFE;

/// A solved single-node configuration, ready for `CmServer::from_parts`.
pub struct NodePlan {
    /// The capacity point handed to the facade.
    pub point: CapacityPoint,
    /// The simulator configuration handed to the facade.
    pub cfg: SimConfig,
}

/// Solves a single-node workload's configuration (the `model` step of
/// set-up, outside the timed `from_parts`).
///
/// # Panics
///
/// Panics if a literal configuration is infeasible — a table bug.
#[must_use]
pub fn node_plan(w: &Workload, opts: &Options) -> NodePlan {
    let threads = opts.threads.unwrap_or(w.threads);
    let (point, mut cfg) = match w.name {
        "steady" | "rebuild-traced" => {
            let mut b = CmServerBuilder::new(Scheme::DeclusteredParity)
                .parity_group(4)
                .seed(SERVER_SEED)
                .threads(threads);
            if w.name == "rebuild-traced" {
                b = b.auto_rebuild().verify_reconstructions();
            }
            b.solve().expect("Fig. 6 cell is feasible")
        }
        "rs-degraded" => CmServerBuilder::new(Scheme::PrefetchParityDisks)
            .redundancy(2)
            .catalog(480, 50)
            .seed(SERVER_SEED)
            .threads(threads)
            .verify_reconstructions()
            .solve()
            .expect("RS(6,2) prefetch array is feasible"),
        "giant" => giant_plan(threads),
        other => panic!("{other} is not a single-node workload"),
    };
    match w.name {
        "rebuild-traced" => cfg.content_bytes = 4096,
        "rs-degraded" => {
            cfg.content_bytes = 4096;
            cfg.faults = Some(FaultSchedule::parse(RS_FAULT_SPEC).expect("fault spec parses"));
        }
        _ => {}
    }
    NodePlan { point, cfg }
}

/// The scale workload as a literal configuration: 1000 disks, p = 2 (the
/// complete-pairs design), q = 52, f = 2, 1 MiB blocks, 1000 × 64-block
/// clips; nominal capacity d·(q − f) = 50 000 streams, of which λ = 55
/// keeps ~3.5k busy.
fn giant_plan(threads: usize) -> (CapacityPoint, SimConfig) {
    let point = CapacityPoint {
        scheme: Scheme::DeclusteredParity,
        p: 2,
        m: 1,
        block_bytes: mib(1),
        q: 52,
        f: 2,
        r: 999,
        total_clips: 50_000,
    };
    let cfg = SimConfig {
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
        arrival_rate: 0.0,
        zipf_theta: 0.0,
        rounds: u64::MAX,
        failure: None,
        faults: None,
        degraded_admission: false,
        verify_parity: false,
        content_bytes: 512,
        seed: SERVER_SEED,
        admission_scan: 64,
        aging_limit: 200,
        auto_rebuild: false,
        threads,
        trace: TraceSpec::off(),
    };
    (point, cfg)
}

/// The cluster workload's configuration: 8 nodes × (DeclusteredParity
/// d = 8, p = 4, q = 8, f = 2, 1 MiB blocks, 20-block clips), 64 clips
/// replicated twice, gateway λ = 5 and 32 rebuild blocks per round. At
/// λ = 12 (the campaign's rate) the gateway sheds ~2% of arrivals even
/// fault-free, and at λ = 6 it still sheds a few while a node rebuilds;
/// λ = 5 keeps every arrival routed, so no operation fails.
///
/// # Panics
///
/// Panics if the generated fault spec fails to parse — a generator bug.
#[must_use]
pub fn cluster_config(w: &Workload, opts: &Options) -> ClusterConfig {
    let node = SimConfig {
        scheme: Scheme::DeclusteredParity,
        d: 8,
        p: 4,
        m: 1,
        q: 8,
        f: 2,
        block_bytes: mib(1),
        catalog_clips: 1,
        clip_len: 20,
        clip_len_spread: 0,
        arrival_rate: 0.0,
        zipf_theta: 0.0,
        rounds: MAX_ROUNDS,
        failure: None,
        faults: None,
        degraded_admission: false,
        verify_parity: false,
        content_bytes: 256,
        seed: SERVER_SEED,
        admission_scan: 64,
        aging_limit: 200,
        auto_rebuild: false,
        threads: 1,
        trace: TraceSpec::off(),
    };
    let spec = cluster_fault_spec(opts.seed, MAX_ROUNDS);
    ClusterConfig {
        nodes: CLUSTER_NODES,
        replication: 2,
        catalog_clips: 64,
        node,
        arrival_rate: opts.rate(w),
        zipf_theta: 0.0,
        rounds: MAX_ROUNDS,
        rebuild_rate: 32,
        rebuild_fanout: 2,
        faults: Some(FaultSchedule::parse(&spec).expect("generated spec parses")),
        seed: opts.seed,
        threads: opts.threads.unwrap_or(w.threads),
        trace: TraceSpec::off(),
    }
}

/// A `Write` that discards bytes and counts them, so the JSONL trace of
/// `rebuild-traced` is rendered in full without touching the disk.
#[derive(Debug, Clone, Default)]
pub struct CountingWriter {
    bytes: Arc<AtomicU64>,
}

impl CountingWriter {
    /// Bytes written so far.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.bytes.fetch_add(buf.len() as u64, Ordering::Relaxed);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// What one round produced.
#[derive(Debug, Clone, Copy)]
pub enum Report {
    /// A single-node round.
    Node(RoundReport),
    /// A cluster round.
    Cluster(ClusterRoundReport),
}

impl Report {
    /// Streams being served at the end of the round.
    #[must_use]
    pub fn active(&self) -> u64 {
        match self {
            Report::Node(r) => r.active,
            Report::Cluster(r) => r.active,
        }
    }
}

/// A built workload, ready to step.
pub enum System {
    /// One server plus its generator and failure injector.
    Node(Box<NodeSystem>),
    /// One cluster.
    Cluster(Box<ClusterSim>),
}

/// A single-node workload in motion.
pub struct NodeSystem {
    /// The server under test.
    pub server: CmServer,
    arrivals: PoissonArrivals,
    choice: ClipChoice,
    /// `rebuild-traced`'s failure injector.
    cycle: Option<RebuildCycle>,
    /// `rebuild-traced`'s trace byte counter.
    pub trace_bytes: Option<CountingWriter>,
    /// Requests submitted so far.
    pub requests: u64,
    /// Requests the facade rejected.
    pub request_errors: u64,
    /// Failure injections the facade rejected.
    pub fault_errors: u64,
}

/// Fails a disk 10 rounds after each rebuild completes.
struct RebuildCycle {
    seed: u64,
    failures: u64,
    /// Round of the next failure; `None` while a rebuild runs.
    next_fail: Option<u64>,
}

impl System {
    /// Builds the system for `w`. Returns it with the wall time of the
    /// set-up step alone (`CmServer::from_parts` / `ClusterSim::new`);
    /// wiring the generator and trace sink is not part of it.
    ///
    /// # Panics
    ///
    /// Panics if the facade rejects a literal configuration.
    #[must_use]
    pub fn build(w: &Workload, opts: &Options, plan: Option<&NodePlan>) -> (System, Duration) {
        match w.tier {
            Tier::Cluster => {
                let cfg = cluster_config(w, opts);
                let start = Instant::now();
                let sim = ClusterSim::new(cfg).expect("cluster constructs");
                let setup = start.elapsed();
                (System::Cluster(Box::new(sim)), setup)
            }
            Tier::Node => {
                let plan = plan.expect("single-node workloads need a plan");
                let cfg = plan.cfg.clone();
                let start = Instant::now();
                let server = CmServer::from_parts(plan.point, cfg).expect("server constructs");
                let setup = start.elapsed();
                let node = NodeSystem::new(w, opts, server, plan.cfg.catalog_clips);
                (System::Node(Box::new(node)), setup)
            }
        }
    }

    /// Steps one round: the generator's requests, any scheduled failure,
    /// then the facade's tick. `spans` records each facade call when the
    /// run is traced.
    pub fn round(&mut self, spans: Option<&mut SpanLog>) -> Report {
        match self {
            System::Node(n) => Report::Node(n.round(spans)),
            System::Cluster(c) => Report::Cluster(match spans {
                None => c.step(),
                Some(log) => {
                    let t = log.open(SpanName::Step);
                    let r = c.step();
                    log.close(t);
                    r
                }
            }),
        }
    }

    /// Installs a trace sink on the facade.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink + Send>) {
        match self {
            System::Node(n) => n.server.set_trace_sink(sink),
            System::Cluster(c) => c.set_trace_sink(sink),
        }
    }
}

impl NodeSystem {
    fn new(w: &Workload, opts: &Options, mut server: CmServer, catalog: u64) -> NodeSystem {
        let mut trace_bytes = None;
        let mut cycle = None;
        if w.name == "rebuild-traced" {
            let writer = CountingWriter::default();
            server.set_trace_sink(Box::new(JsonlSink::new(writer.clone())));
            trace_bytes = Some(writer);
            cycle = Some(RebuildCycle {
                seed: opts.seed,
                failures: 0,
                next_fail: Some(REBUILD_FIRST_FAIL),
            });
        }
        NodeSystem {
            server,
            arrivals: PoissonArrivals::new(opts.rate(w), opts.seed ^ 0xA11),
            choice: ClipChoice::uniform(catalog, opts.seed ^ 0xC11),
            cycle,
            trace_bytes,
            requests: 0,
            request_errors: 0,
            fault_errors: 0,
        }
    }

    fn round(&mut self, mut spans: Option<&mut SpanLog>) -> RoundReport {
        let now = self.server.status().round;
        for _ in 0..self.arrivals.next_round() {
            let clip = self.choice.next_clip();
            self.requests += 1;
            let t = spans.as_deref_mut().map(|s| s.open(SpanName::Request));
            if self.server.request(clip).is_err() {
                self.request_errors += 1;
            }
            close(spans.as_deref_mut(), t);
        }
        if let Some(cycle) = &mut self.cycle {
            if cycle.next_fail == Some(now) {
                let disk = rebuild_disk(cycle.failures, cycle.seed);
                let t = spans.as_deref_mut().map(|s| s.open(SpanName::FailDisk));
                if self.server.fail_disk(DiskId(disk)).is_err() {
                    self.fault_errors += 1;
                }
                close(spans.as_deref_mut(), t);
                cycle.failures += 1;
                cycle.next_fail = None;
            }
        }
        let t = spans.as_deref_mut().map(|s| s.open(SpanName::Tick));
        let report = self.server.tick_report();
        close(spans, t);
        if let Some(cycle) = &mut self.cycle {
            if cycle.next_fail.is_none() && report.down_disks == 0 {
                cycle.next_fail = Some(now + 1 + REBUILD_GAP);
            }
        }
        report
    }
}

fn close(spans: Option<&mut SpanLog>, token: Option<usize>) {
    if let (Some(log), Some(t)) = (spans, token) {
        log.close(t);
    }
}

/// Final cumulative counters of a system.
pub enum Totals<'a> {
    /// A single server's metrics.
    Node(&'a Metrics),
    /// A cluster's roll-up.
    Cluster(&'a ClusterMetrics),
}

impl System {
    /// The facade's cumulative counters.
    #[must_use]
    pub fn totals(&self) -> Totals<'_> {
        match self {
            System::Node(n) => Totals::Node(n.server.metrics()),
            System::Cluster(c) => Totals::Cluster(c.metrics()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_fault_specs_parse_and_are_consistent() {
        for seed in [1u64, 2, 7, 1_000_003] {
            let spec = cluster_fault_spec(seed, 20_000);
            let sched = FaultSchedule::parse(&spec).expect("cluster spec parses");
            assert_eq!(sched.len(), 20, "10 failures and 10 repairs in 20k rounds");
            sched
                .check_consistency_cluster(CLUSTER_NODES)
                .expect("node state machine holds");
            // The rendered schedule round-trips through the parser.
            let text: String = sched.events().iter().map(|e| format!("{e}\n")).collect();
            assert_eq!(FaultSchedule::parse(&text).expect("reparses"), sched);
        }
        let sched = FaultSchedule::parse(RS_FAULT_SPEC).expect("rs spec parses");
        sched.check_consistency(32).expect("both disks fail once");
        assert_eq!(sched.len(), 2);
        // rebuild-traced's failures, rendered in the same grammar.
        let spec: String = (0..64u64)
            .map(|i| format!("@{} fail {}\n", 100 + 60 * i, rebuild_disk(i, 1)))
            .collect();
        assert_eq!(FaultSchedule::parse(&spec).expect("parses").len(), 64);
    }

    #[test]
    fn rebuild_failures_visit_every_disk() {
        for seed in [1u64, 5, 99] {
            let mut seen: Vec<u32> = (0..32).map(|i| rebuild_disk(i, seed)).collect();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), 32, "seed {seed}");
        }
        assert_eq!(rebuild_disk(0, 1), 5, "the default seed starts at disk 5");
    }

    #[test]
    fn workload_lookup_and_reference_options() {
        assert_eq!(workload("cluster").map(|w| w.threads), Some(0));
        assert!(workload("nope").is_none());
        assert!(Options::DEFAULT.is_reference());
        assert!(!Options {
            seed: 2,
            ..Options::DEFAULT
        }
        .is_reference());
        let faster = Options {
            rate: Some(4.0),
            ..Options::DEFAULT
        };
        assert!(!faster.is_reference());
        let rs = workload("rs-degraded").expect("exists");
        assert_eq!((Options::DEFAULT.rate(rs), faster.rate(rs)), (RS_RATE, 4.0));
        assert!(Options {
            threads: Some(2),
            ..Options::DEFAULT
        }
        .is_reference());
    }
}
