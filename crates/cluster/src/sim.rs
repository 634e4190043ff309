//! The cluster simulator: a deterministic gateway over `N` engine nodes.
//!
//! Each round runs five phases, in this order:
//!
//! 1. **Fault drain** (sequential): `fail-node` evacuates the node and
//!    migrates its streams to surviving replicas; `repair-node` starts a
//!    cross-node rebuild sized by the node's stored blocks.
//! 2. **Rebuild transfers** (sequential): rebuilding nodes pull blocks
//!    from up peers; shipped blocks are charged against the sources'
//!    capacity this round.
//! 3. **Gateway arrivals** (sequential): Poisson arrivals over the
//!    cluster catalog, shed against the rolled-up cluster cap, routed to
//!    the least-loaded surviving replica.
//! 4. **Node stepping** (parallel): every non-dark node executes one
//!    engine round. Nodes are the unit of parallelism: on the cluster's
//!    persistent [`WorkerPool`], the calling thread steps the first
//!    chunk of nodes in place and each helper steps a later chunk it
//!    receives as owned values; every node keeps its own round report.
//! 5. **Merge** (sequential, node-ID order): per-node round reports roll
//!    up into one [`ClusterRoundReport`], so metrics and trace bytes are
//!    identical at any worker count. Gateway session entries of finished
//!    streams are then pruned where they outgrew the live sessions.

use std::collections::BTreeMap;

use cms_core::{ClipId, CmsError, NodeId, RequestId};
use cms_fault::FaultEvent;
use cms_sim::pool::WorkerPool;
use cms_sim::{Metrics, RoundReport, Simulator};
use cms_trace::{emit, EventKind, TraceSink, TraceSummary, Tracer};
use cms_workload::{ClipChoice, PoissonArrivals};

use crate::config::ClusterConfig;
use crate::metrics::{ClusterMetrics, ClusterRoundReport};
use crate::placement::Placement;

/// Availability state of one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeState {
    /// Serving and routable.
    Up,
    /// Dark: failed and not yet repaired. Holds no sessions (they were
    /// migrated or lost at failure time) and does not step.
    Down,
    /// Returned from repair but still re-sourcing its blocks from
    /// replica peers; steps (so its clock advances) but is not routable
    /// until the debt reaches zero.
    Rebuilding {
        /// Blocks still to be shipped from peers.
        debt: u64,
    },
}

/// One server node: a complete single-server engine plus the gateway's
/// bookkeeping about it.
struct Node {
    sim: Simulator,
    state: NodeState,
    /// Node-local request id → cluster stream id. Entries for finished
    /// streams go stale and are dropped once they outnumber the live
    /// sessions (see [`SESSION_SLACK`]); the map is read only when the
    /// node is evacuated.
    sessions: BTreeMap<RequestId, u64>,
    /// This round's engine report; `None` while the node is dark.
    last: Option<RoundReport>,
}

/// A node's session map is pruned to its live sessions once it holds
/// more than twice their number plus this many entries, so it stays
/// bounded on a node that never fails.
const SESSION_SLACK: usize = 64;

/// The nodes in node-ID order, boxed although a `Vec` already owns its
/// items on the heap (clippy's `vec_box` advice): the boxes cross
/// threads every round, and the pool's hand-off to its helpers then
/// moves a pointer per node rather than the whole ~2.5 KB engine.
type Nodes = Vec<Box<Node>>;

/// Phase 4, the pool's work function: steps every non-dark node of one
/// chunk.
fn step_chunk(_: &(), nodes: &mut Nodes) {
    for node in nodes {
        node.last = (node.state != NodeState::Down).then(|| node.sim.step_report());
    }
}

/// Everything a finished cluster run reports.
#[derive(Debug, Clone)]
pub struct ClusterRun {
    /// Cluster-level roll-up.
    pub metrics: ClusterMetrics,
    /// Final engine metrics per node, in node-ID order.
    pub node_metrics: Vec<Metrics>,
    /// One merged report per round.
    pub reports: Vec<ClusterRoundReport>,
    /// Trace summary, when tracing was enabled.
    pub summary: Option<TraceSummary>,
}

/// The deterministic multi-node simulator. See the crate docs for the
/// architecture and [`ClusterSim::step`] for the per-round pipeline.
pub struct ClusterSim {
    cfg: ClusterConfig,
    placement: Placement,
    nodes: Nodes,
    arrivals: PoissonArrivals,
    choice: ClipChoice,
    /// Per-round rebuild bandwidth charged to each node, reset in phase 2.
    charges: Vec<u64>,
    /// Reusable scratch for the rebuild-source node set (phase 2), so
    /// steady-state rounds stay allocation-free.
    rebuild_sources: Vec<NodeId>,
    /// Node-stepping workers (`cfg.threads`, clamped to the node count).
    pool: WorkerPool<Nodes, ()>,
    fault_cursor: usize,
    t: u64,
    next_stream: u64,
    metrics: ClusterMetrics,
    tracer: Option<Tracer>,
}

impl ClusterSim {
    /// Builds the cluster: placement map, one engine per node (catalog
    /// sized by the placement, node-derived seed, single-threaded,
    /// trace off), and the gateway workload generators.
    ///
    /// # Errors
    ///
    /// Returns an error when the configuration fails
    /// [`ClusterConfig::validate`] or a node engine rejects its derived
    /// configuration.
    pub fn new(cfg: ClusterConfig) -> Result<Self, CmsError> {
        cfg.validate()?;
        let placement = Placement::new(cfg.nodes, cfg.replication, cfg.catalog_clips, cfg.seed);
        let mut nodes = Vec::with_capacity(cfg.nodes as usize);
        for n in 0..cfg.nodes {
            let mut node_cfg = cfg.node.clone();
            node_cfg.catalog_clips = placement.node_clips(NodeId(n));
            node_cfg.seed =
                cfg.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(u64::from(n) + 1);
            node_cfg.rounds = cfg.rounds;
            node_cfg.threads = 1;
            node_cfg.trace = cms_trace::TraceSpec::off();
            nodes.push(Box::new(Node {
                sim: Simulator::new(node_cfg)?,
                state: NodeState::Up,
                sessions: BTreeMap::new(),
                last: None,
            }));
        }
        let tracer = cfg
            .trace
            .build()
            .map_err(|e| CmsError::invalid_params(format!("cannot open trace output: {e}")))?;
        Ok(ClusterSim {
            arrivals: PoissonArrivals::new(cfg.arrival_rate, cfg.seed ^ 0xA11_000),
            choice: if cfg.zipf_theta > 0.0 {
                ClipChoice::zipf(cfg.catalog_clips, cfg.zipf_theta, cfg.seed ^ 0xC11_000)
            } else {
                ClipChoice::uniform(cfg.catalog_clips, cfg.seed ^ 0xC11_000)
            },
            charges: vec![0; cfg.nodes as usize],
            rebuild_sources: Vec::with_capacity(cfg.nodes as usize),
            pool: WorkerPool::new(cfg.threads, cfg.nodes as usize, step_chunk),
            placement,
            nodes,
            fault_cursor: 0,
            t: 0,
            next_stream: 0,
            metrics: ClusterMetrics::default(),
            tracer,
            cfg,
        })
    }

    /// The placement map the gateway routes by.
    #[must_use]
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// Cluster rounds executed so far.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.t
    }

    /// Running cluster metrics.
    #[must_use]
    pub fn metrics(&self) -> &ClusterMetrics {
        &self.metrics
    }

    /// Availability state of `node` (`None` when out of range).
    #[must_use]
    pub fn node_state(&self, node: NodeId) -> Option<NodeState> {
        self.nodes.get(node.idx()).map(|n| n.state)
    }

    /// Installs a trace sink mid-stream (replacing whatever `cfg.trace`
    /// set up), e.g. a `SharedBuffer`-backed JSONL sink whose handle the
    /// caller keeps.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink + Send>) {
        self.tracer = Some(Tracer::new(sink));
    }

    /// The running trace summary, when tracing is enabled.
    #[must_use]
    pub fn trace_summary(&self) -> Option<&TraceSummary> {
        self.tracer.as_ref().map(Tracer::summary)
    }

    /// Flushes the trace sink without consuming the simulator.
    pub fn flush_trace(&mut self) {
        if let Some(tr) = self.tracer.as_mut() {
            tr.finish();
        }
    }

    /// The cluster admission cap currently in force: the sum over
    /// routable nodes of nominal capacity minus the rebuild bandwidth
    /// they lent *last computed round* (phase 2 refreshes the charges).
    #[must_use]
    pub fn cluster_capacity(&self) -> u64 {
        self.nodes
            .iter()
            .zip(&self.charges)
            .filter(|(n, _)| n.state == NodeState::Up)
            .map(|(n, charge)| n.sim.nominal_capacity().saturating_sub(*charge))
            .sum()
    }

    /// Streams the cluster is currently committed to: active plus queued
    /// sessions on routable nodes.
    #[must_use]
    pub fn committed_streams(&self) -> u64 {
        self.nodes
            .iter()
            .filter(|n| n.state == NodeState::Up)
            .map(|n| (n.sim.active_clients() + n.sim.pending_requests()) as u64)
            .sum()
    }

    /// Runs the configured number of rounds and returns the full report.
    #[must_use]
    pub fn run(mut self) -> ClusterRun {
        let mut reports = Vec::with_capacity(self.cfg.rounds as usize);
        for _ in 0..self.cfg.rounds {
            reports.push(self.step());
        }
        let summary = self.tracer.map(|mut tr| {
            tr.finish();
            tr.summary().clone()
        });
        ClusterRun {
            metrics: self.metrics,
            node_metrics: self.nodes.iter().map(|n| n.sim.metrics().clone()).collect(),
            reports,
            summary,
        }
    }

    /// Executes one cluster round (the five-phase pipeline in the module
    /// docs) and returns the merged report.
    pub fn step(&mut self) -> ClusterRoundReport {
        let mut report = ClusterRoundReport { round: self.t, ..ClusterRoundReport::default() };

        self.drain_fault_events(&mut report);
        self.rebuild_transfers(&mut report);
        self.gateway_arrivals(&mut report);
        self.pool.run((), &mut self.nodes);
        self.merge(&mut report);
        self.forget_finished_sessions();

        self.metrics.absorb(&report);
        self.t += 1;
        report
    }

    /// Phase 1: applies this round's node-scoped fault events.
    fn drain_fault_events(&mut self, report: &mut ClusterRoundReport) {
        while let Some(event) =
            self.cfg.faults.as_ref().and_then(|f| f.next_due(&mut self.fault_cursor, self.t))
        {
            match event {
                FaultEvent::FailNode(node) => self.fail_node(node, report),
                FaultEvent::RepairNode(node) => self.repair_node(node),
                // Disk-scoped events are rejected by validate_cluster.
                _ => {}
            }
        }
    }

    /// Evacuates a failing node and migrates its streams to surviving
    /// replicas (resuming at their group-aligned offsets); streams with
    /// no surviving replica are declared lost.
    fn fail_node(&mut self, node: NodeId, report: &mut ClusterRoundReport) {
        let idx = node.idx();
        if self.nodes[idx].state == NodeState::Down {
            return;
        }
        let exports = self.nodes[idx].sim.export_sessions();
        self.nodes[idx].sim.evacuate();
        let mut sessions = std::mem::take(&mut self.nodes[idx].sessions);
        self.nodes[idx].state = NodeState::Down;
        self.metrics.node_failures += 1;
        emit(&mut self.tracer, self.t, EventKind::NodeFailure { node: node.raw() });

        for export in exports {
            // A session the gateway never recorded would be a routing bug;
            // surface it as a lost stream rather than a panic.
            let stream = sessions.remove(&export.request).unwrap_or(u64::MAX);
            let Some(clip) = self.placement.cluster_clip(node, export.clip) else {
                continue;
            };
            let target = self.route_target(clip, Some(node));
            if let Some(target) = target {
                let local = self
                    .placement
                    .local_id(clip, target)
                    // lint: allow(P001) route_target only returns replica holders
                    .expect("route_target only returns replica holders");
                if let Ok(id) = self.nodes[target.idx()].sim.submit_at(local, export.offset) {
                    self.nodes[target.idx()].sessions.insert(id, stream);
                    report.migrations += 1;
                    emit(
                        &mut self.tracer,
                        self.t,
                        EventKind::StreamMigrated {
                            request: stream,
                            from: node.raw(),
                            to: target.raw(),
                        },
                    );
                    continue;
                }
            }
            report.lost_streams += 1;
            emit(
                &mut self.tracer,
                self.t,
                EventKind::StreamLost { request: stream, block: export.offset },
            );
        }
    }

    /// Marks a repaired node rebuilding, with a debt equal to every block
    /// its layout stores (the node returns blank).
    fn repair_node(&mut self, node: NodeId) {
        let idx = node.idx();
        if self.nodes[idx].state != NodeState::Down {
            return;
        }
        let d = self.nodes[idx].sim.config().d;
        let debt: u64 =
            (0..d).map(|disk| self.nodes[idx].sim.layout_blocks_used(cms_core::DiskId(disk))).sum();
        self.metrics.node_repairs += 1;
        emit(&mut self.tracer, self.t, EventKind::NodeRepair { node: node.raw() });
        if debt == 0 {
            self.nodes[idx].state = NodeState::Up;
            self.finish_rebuild(node);
        } else {
            self.nodes[idx].state = NodeState::Rebuilding { debt };
        }
    }

    fn finish_rebuild(&mut self, node: NodeId) {
        self.metrics.node_rebuilds_completed += 1;
        emit(&mut self.tracer, self.t, EventKind::NodeRebuildComplete { node: node.raw() });
    }

    /// Phase 2: ships rebuild blocks from up peers to rebuilding nodes,
    /// charging the shipment against the sources' capacity this round.
    fn rebuild_transfers(&mut self, report: &mut ClusterRoundReport) {
        self.charges.iter_mut().for_each(|c| *c = 0);
        if !self.nodes.iter().any(|n| matches!(n.state, NodeState::Rebuilding { .. })) {
            return; // steady state: keep the round allocation-free
        }
        self.rebuild_sources.clear();
        self.rebuild_sources.extend(
            self.nodes
                .iter()
                .enumerate()
                .filter(|(_, n)| n.state == NodeState::Up)
                .map(|(i, _)| NodeId(i as u32)),
        );
        let sources = std::mem::take(&mut self.rebuild_sources);
        for idx in 0..self.nodes.len() {
            let NodeState::Rebuilding { debt } = self.nodes[idx].state else { continue };
            if sources.is_empty() {
                continue; // nobody to pull from; the debt waits
            }
            let node = NodeId(idx as u32);
            let ship = u64::from(self.cfg.rebuild_rate).min(debt);
            let fanout = (self.cfg.rebuild_fanout as usize).min(sources.len());
            // Rotate the source set by round so the charge spreads over
            // peers instead of always taxing the lowest node ids.
            let start = (self.t as usize) % sources.len();
            let base = ship / fanout as u64;
            let rem = (ship % fanout as u64) as usize;
            for k in 0..fanout {
                let share = base + u64::from(k < rem);
                if share == 0 {
                    continue;
                }
                let src = sources[(start + k) % sources.len()];
                self.charges[src.idx()] += share;
                report.rebuild_blocks += share;
                emit(
                    &mut self.tracer,
                    self.t,
                    EventKind::CrossNodeRebuildRead {
                        node: node.raw(),
                        source: src.raw(),
                        blocks: share as u32,
                    },
                );
            }
            let left = debt - ship;
            if left == 0 {
                self.nodes[idx].state = NodeState::Up;
                self.finish_rebuild(node);
            } else {
                self.nodes[idx].state = NodeState::Rebuilding { debt: left };
            }
        }
        self.rebuild_sources = sources;
    }

    /// The least-loaded up node holding a replica of `clip`, node id as
    /// tie-break, excluding `not` (the failing node during migration).
    fn route_target(&self, clip: ClipId, not: Option<NodeId>) -> Option<NodeId> {
        let mut best: Option<(usize, NodeId)> = None;
        for candidate in self.placement.replicas(clip) {
            if Some(candidate) == not {
                continue;
            }
            let n = &self.nodes[candidate.idx()];
            if n.state != NodeState::Up {
                continue;
            }
            let load = n.sim.active_clients() + n.sim.pending_requests();
            let better = match best {
                None => true,
                Some((best_load, best_id)) => {
                    load < best_load || (load == best_load && candidate < best_id)
                }
            };
            if better {
                best = Some((load, candidate));
            }
        }
        best.map(|(_, id)| id)
    }

    /// Phase 3: generates this round's arrivals at the gateway, sheds
    /// against the cluster cap, and routes the rest.
    fn gateway_arrivals(&mut self, report: &mut ClusterRoundReport) {
        let cap = self.cluster_capacity();
        report.cluster_cap = cap;
        let mut committed = self.committed_streams();
        let n_arrivals = self.arrivals.next_round();
        for _ in 0..n_arrivals {
            let stream = self.next_stream;
            self.next_stream += 1;
            let clip = self.choice.next_clip();
            report.arrivals += 1;
            emit(
                &mut self.tracer,
                self.t,
                EventKind::Arrival { request: stream, clip: clip.raw() },
            );
            if committed >= cap {
                // Terminal shed: unlike node-level refusals (which keep
                // the request queued), the gateway turns it away.
                report.cluster_refusals += 1;
                emit(
                    &mut self.tracer,
                    self.t,
                    EventKind::DegradedRefusal { request: stream, clip: clip.raw() },
                );
                continue;
            }
            let Some(target) = self.route_target(clip, None) else {
                report.unroutable += 1;
                emit(
                    &mut self.tracer,
                    self.t,
                    EventKind::Rejection { request: stream, clip: clip.raw() },
                );
                continue;
            };
            let local = self
                .placement
                .local_id(clip, target)
                // lint: allow(P001) route_target only returns replica holders
                .expect("route_target only returns replica holders");
            if let Ok(id) = self.nodes[target.idx()].sim.submit(local) {
                self.nodes[target.idx()].sessions.insert(id, stream);
                report.routed += 1;
                committed += 1;
            } else {
                report.unroutable += 1;
                emit(
                    &mut self.tracer,
                    self.t,
                    EventKind::Rejection { request: stream, clip: clip.raw() },
                );
            }
        }
    }

    /// Phase 5: merges per-node reports in node-ID order.
    fn merge(&mut self, report: &mut ClusterRoundReport) {
        for node in &self.nodes {
            match node.state {
                NodeState::Down => report.down_nodes += 1,
                NodeState::Rebuilding { .. } => report.rebuilding_nodes += 1,
                NodeState::Up => {}
            }
            let Some(r) = &node.last else { continue };
            report.admissions += r.admissions;
            report.completions += r.completions;
            report.blocks_served += r.blocks_served;
            report.hiccups += r.hiccups;
            report.active += r.active;
            report.pending += r.pending;
            // Node-internal stream losses (second disk failure inside a
            // node) are impossible here — the template carries no disk
            // faults — but account for them separately if they appear.
            self.metrics.node_lost_streams += r.lost_streams;
        }
    }

    /// Drops session-map entries of finished streams from every node
    /// whose map outgrew its live sessions (see [`SESSION_SLACK`]).
    fn forget_finished_sessions(&mut self) {
        for node in &mut self.nodes {
            let live = node.sim.active_clients() + node.sim.pending_requests();
            if node.sessions.len() <= 2 * live + SESSION_SLACK {
                continue;
            }
            let mut ids: Vec<RequestId> =
                node.sim.export_sessions().iter().map(|s| s.request).collect();
            ids.sort_unstable();
            node.sessions.retain(|id, _| ids.binary_search(id).is_ok());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use cms_core::Scheme;
    use cms_fault::FaultSchedule;
    use cms_sim::SimConfig;
    use cms_trace::TraceSpec;

    fn node_template() -> SimConfig {
        let mut node = SimConfig::sigmod96(
            Scheme::DeclusteredParity,
            &cms_model::CapacityPoint {
                scheme: Scheme::DeclusteredParity,
                p: 4,
                m: 1,
                block_bytes: 1 << 20,
                q: 8,
                f: 2,
                r: 1,
                total_clips: 64,
            },
            8,
        );
        node.arrival_rate = 0.0;
        node.clip_len = 15;
        node
    }

    fn base() -> ClusterConfig {
        ClusterConfig {
            nodes: 4,
            replication: 2,
            catalog_clips: 16,
            node: node_template(),
            arrival_rate: 5.0,
            zipf_theta: 0.0,
            rounds: 60,
            rebuild_rate: 64,
            rebuild_fanout: 2,
            faults: None,
            seed: 42,
            threads: 1,
            trace: TraceSpec::off(),
        }
    }

    #[test]
    fn healthy_cluster_routes_and_conserves() {
        let run = ClusterSim::new(base()).unwrap().run();
        let m = &run.metrics;
        assert_eq!(m.rounds, 60);
        assert!(m.arrivals > 0, "Poisson at 5/round must arrive");
        assert_eq!(m.arrivals, m.routed + m.cluster_refusals + m.unroutable);
        assert_eq!(m.unroutable, 0, "healthy cluster with r=2 routes everything");
        assert_eq!(m.lost_streams + m.node_lost_streams, 0);
        assert_eq!(m.hiccups, 0, "guarantee scheme keeps its rate promises");
        // Conservation: every routed arrival (plus nothing else — no
        // migrations here) arrived at exactly one node.
        let node_arrivals: u64 = run.node_metrics.iter().map(|m| m.arrivals).sum();
        assert_eq!(node_arrivals, m.routed + m.migrations);
        let node_admitted: u64 = run.node_metrics.iter().map(|m| m.admitted).sum();
        assert_eq!(node_admitted, m.admissions);
    }

    #[test]
    fn node_failure_migrates_streams_to_surviving_replicas() {
        let mut cfg = base();
        cfg.rounds = 80;
        cfg.faults = Some(FaultSchedule::parse("@30 fail-node 1\n@50 repair-node 1\n").unwrap());
        let run = ClusterSim::new(cfg).unwrap().run();
        let m = &run.metrics;
        assert_eq!(m.node_failures, 1);
        assert_eq!(m.node_repairs, 1);
        assert!(m.migrations > 0, "node 1 had streams to hand off");
        assert_eq!(m.lost_streams, 0, "r=2: every clip survives one node failure");
        assert_eq!(m.hiccups, 0, "migrated streams resume at group boundaries");
        assert!(m.cross_node_rebuild_blocks > 0, "repair re-sources blocks from peers");
        // The round reports show the outage window and the rebuild.
        assert!(run.reports[30].migrations > 0);
        assert_eq!(run.reports[30].down_nodes, 1);
        assert!(run.reports[50].rebuilding_nodes == 1 || run.reports[50].down_nodes == 0);
        let node_arrivals: u64 = run.node_metrics.iter().map(|m| m.arrivals).sum();
        assert_eq!(node_arrivals, m.routed + m.migrations);
    }

    #[test]
    fn rebuild_charge_depresses_the_cluster_cap() {
        let mut cfg = base();
        cfg.rounds = 80;
        cfg.rebuild_rate = 8; // slow rebuild: visible for many rounds
        cfg.faults = Some(FaultSchedule::parse("@10 fail-node 0\n@20 repair-node 0\n").unwrap());
        let run = ClusterSim::new(cfg).unwrap().run();
        let healthy_cap = run.reports[5].cluster_cap;
        let dark_cap = run.reports[15].cluster_cap;
        let rebuilding_cap = run.reports[21].cluster_cap;
        assert!(dark_cap < healthy_cap, "a dark node removes its capacity");
        assert!(
            rebuilding_cap < healthy_cap,
            "rebuild charge keeps the cap below healthy until completion"
        );
        assert!(run.reports[21].rebuild_blocks > 0);
    }

    #[test]
    fn unreplicated_clips_lose_streams_on_node_failure() {
        let mut cfg = base();
        cfg.replication = 1;
        cfg.arrival_rate = 8.0;
        cfg.rounds = 60;
        cfg.faults = Some(FaultSchedule::parse("@30 fail-node 2\n").unwrap());
        let run = ClusterSim::new(cfg).unwrap().run();
        let m = &run.metrics;
        assert_eq!(m.migrations, 0, "r=1: nowhere to migrate to");
        assert!(m.lost_streams > 0, "node 2 carried streams at round 30");
        assert!(m.unroutable > 0, "node 2's catalog is unroutable afterwards");
    }

    #[test]
    fn completed_rebuild_restores_routability() {
        let mut cfg = base();
        cfg.rounds = 100;
        cfg.rebuild_rate = 1 << 14; // fast: finishes in a few rounds
        cfg.faults = Some(FaultSchedule::parse("@20 fail-node 3\n@30 repair-node 3\n").unwrap());
        let sim = ClusterSim::new(cfg).unwrap();
        let run = sim.run();
        assert_eq!(run.metrics.node_rebuilds_completed, 1);
        let last = run.reports.last().unwrap();
        assert_eq!(last.down_nodes, 0);
        assert_eq!(last.rebuilding_nodes, 0);
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let mut cfg = base();
        cfg.rounds = 50;
        cfg.faults = Some(FaultSchedule::parse("@20 fail-node 1\n@35 repair-node 1\n").unwrap());
        let a = ClusterSim::new(cfg.clone().with_threads(1)).unwrap().run();
        // 3 splits 4 nodes unevenly; 8 asks for more workers than nodes.
        for threads in [3, 0, 8] {
            let b = ClusterSim::new(cfg.clone().with_threads(threads)).unwrap().run();
            assert_eq!(a.metrics, b.metrics, "threads = {threads}");
            assert_eq!(a.reports, b.reports, "threads = {threads}");
            assert_eq!(a.node_metrics, b.node_metrics, "threads = {threads}");
        }
    }

    #[test]
    fn session_maps_stay_bounded_on_nodes_that_never_fail() {
        let mut cfg = base();
        cfg.rounds = 400;
        let mut sim = ClusterSim::new(cfg).unwrap();
        for _ in 0..400 {
            sim.step();
            for node in &sim.nodes {
                let live = node.sim.export_sessions();
                assert!(
                    node.sessions.len() <= 2 * live.len() + SESSION_SLACK,
                    "round {}: {} entries for {} live sessions",
                    sim.now(),
                    node.sessions.len(),
                    live.len()
                );
                assert!(live.iter().all(|s| node.sessions.contains_key(&s.request)));
            }
        }
        // Every node was handed more streams than its bound admits, so an
        // unpruned map (one entry per stream handed over) would break it.
        for node in &sim.nodes {
            let live = node.sim.active_clients() + node.sim.pending_requests();
            assert!(node.sim.metrics().arrivals as usize > 2 * live + SESSION_SLACK);
        }
    }

    #[test]
    fn trace_captures_node_lifecycle() {
        use cms_trace::{JsonlSink, SharedBuffer};
        let mut cfg = base();
        cfg.rounds = 70;
        cfg.rebuild_rate = 1 << 14;
        cfg.faults = Some(FaultSchedule::parse("@20 fail-node 1\n@40 repair-node 1\n").unwrap());
        let mut sim = ClusterSim::new(cfg).unwrap();
        let buf = SharedBuffer::new();
        sim.set_trace_sink(Box::new(JsonlSink::new(buf.clone())));
        let run = sim.run();
        let summary = run.summary.expect("tracing was on");
        assert_eq!(summary.node_failures, 1);
        assert_eq!(summary.node_repairs, 1);
        assert_eq!(summary.stream_migrations, run.metrics.migrations);
        assert!(summary.node_failure_to_rebuild_complete().is_some());
        let text = String::from_utf8(buf.contents()).unwrap();
        assert!(text.contains("\"event\":\"node_failure\""));
        assert!(text.contains("\"event\":\"stream_migrated\""));
        assert!(text.contains("\"event\":\"cross_node_rebuild_read\""));
        assert!(text.contains("\"event\":\"node_rebuild_complete\""));
        // Every line round-trips through the parser.
        for line in text.lines() {
            if let Err(e) = cms_trace::TraceEvent::parse_jsonl(line) {
                panic!("unparseable trace line ({e}): {line}");
            }
        }
    }

    #[test]
    fn gateway_sheds_when_over_cluster_cap() {
        let mut cfg = base();
        cfg.arrival_rate = 500.0; // far beyond 4 small nodes
        cfg.rounds = 30;
        let run = ClusterSim::new(cfg).unwrap().run();
        assert!(run.metrics.cluster_refusals > 0, "overload must shed at the gateway");
        // The cap was honored: committed streams never exceeded it.
        for r in &run.reports {
            assert!(r.active + r.pending <= r.cluster_cap, "round {}: overcommitted", r.round);
        }
    }
}
