//! The simulation engine: see the crate docs for the per-round pipeline.
//!
//! [`Simulator::step_report`] runs one round's phases in order, each in
//! its own module: `faults`, `admit`, `fetch`, `rebuild`, `serve`,
//! `verify` and `consume`.

mod admit;
mod consume;
mod faults;
mod fetch;
mod rebuild;
mod serve;
#[cfg(test)]
mod tests;
mod verify;

use crate::config::SimConfig;
use crate::metrics::Metrics;
use crate::pool::WorkerPool;
use crate::table::StreamTable;
use admit::PendingPlay;
use cms_admission::{
    Admission, DeclusteredAdmission, DynamicAdmission, FlatAdmission, NonClusteredAdmission,
    PendingList, PrefetchParityDiskAdmission, StreamingRaidAdmission,
};
use cms_bibd::{best_design, DesignRequest, Pgt};
use cms_core::units::transfer_time;
use cms_core::{ClipId, CmsError, DiskId, DiskParams, RequestId, Scheme};
use cms_disk::{DiskArray, ServiceScratch};
use cms_layout::{clustered, declustered, flat, BlockLocation, MaterializedLayout};
use cms_trace::{TraceSink, TraceSummary, Tracer};
use cms_workload::{Catalog, ClipChoice, PoissonArrivals};
use rebuild::RebuildState;
use serve::{serve_chunk, DiskChunk, DiskRound, Fetch, ServeRound};
use std::collections::{BTreeMap, BTreeSet};
use verify::VerifyScratch;

/// A paused session, parked outside admission (its bandwidth slot is
/// released; its buffer is dropped).
#[derive(Debug, Clone, Copy)]
struct PausedClient {
    clip: ClipId,
    consumed: u64,
}

/// One live session as exported by [`Simulator::export_sessions`] — the
/// unit the cluster gateway migrates when a whole node fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionExport {
    /// The node-local request id.
    pub request: RequestId,
    /// The clip being played (or queued).
    pub clip: ClipId,
    /// Blocks already consumed (active sessions) or the offset the
    /// request was queued at (pending sessions).
    pub offset: u64,
    /// Was the session actively playing, as opposed to still waiting in
    /// the pending queue?
    pub was_active: bool,
}

/// Engine-level reusable buffers for the per-round pipeline
/// (DESIGN.md §7). Each is `mem::take`n by the phase that needs it and
/// put back afterwards, so `&mut self` calls made while iterating a
/// buffer never alias it.
#[derive(Default)]
struct EngineScratch {
    /// Completed `(id, slot)` pairs collected by `consume_and_complete`.
    done: Vec<(RequestId, u32)>,
    /// Healthy group members in `issue_group_fetch`.
    healthy: Vec<(u64, BlockLocation)>,
    /// Down-disk block indices within one group-fetch window (at most
    /// one under `m = 1`; up to `m` while the group stays decodable).
    lost: Vec<u64>,
    /// Alive redundancy-shard locations of the window's group.
    redundancy: Vec<BlockLocation>,
    /// Reconstruction-read locations (recovery and rebuild paths).
    reads: Vec<BlockLocation>,
    verify: VerifyScratch,
}

/// The simulator: owns the layout, the admission controller, the disk
/// array and all client state. Construct with [`Simulator::new`], then
/// call [`Simulator::run`] (or [`Simulator::step`] for fine control).
pub struct Simulator {
    cfg: SimConfig,
    /// The scheme's fetch discipline.
    policy: FetchPolicy,
    layout: MaterializedLayout,
    catalog: Catalog,
    admission: Box<dyn Admission + Send>,
    pending: PendingList<PendingPlay>,
    paused: BTreeMap<RequestId, PausedClient>,
    arrivals: PoissonArrivals,
    choice: ClipChoice,
    /// Active streams, stored as struct-of-arrays columns indexed by
    /// dense slot id (see the `table` module docs).
    table: StreamTable,
    array: DiskArray,
    /// This round's fetches, in issue order (DESIGN.md §7).
    fresh: Vec<Fetch>,
    /// Fetches left unserved by earlier rounds, ordered by
    /// `(disk, needed, seq)`.
    backlog: Vec<Fetch>,
    /// The disks and the disk-bucketed round buffer, reused every round.
    work: DiskChunk,
    /// The round buffer's `d + 1` slice table.
    offsets: Vec<u32>,
    /// Issue stamp for the next fetch (see [`Fetch::seq`]).
    fetch_seq: u64,
    /// Engine-level reusable buffers.
    scratch: EngineScratch,
    /// Disk-service workers (`cfg.threads`, clamped to the disk count).
    pool: WorkerPool<DiskChunk, ServeRound>,
    round_duration: f64,
    t: u64,
    next_request: u64,
    /// Disks currently hard-failed. More than one entry means some
    /// parity groups may have lost two members; their streams are
    /// declared lost deterministically, never silently mis-served.
    failed: BTreeSet<DiskId>,
    /// Transiently down disks → first round they are back up. Data is
    /// intact (no rebuild); service is refused like a failure.
    transient_until: BTreeMap<DiskId, u64>,
    /// Slowed disks → first round their service factor resets to 1.
    slow_until: BTreeMap<DiskId, u64>,
    /// Next unapplied event in `cfg.faults` (round-sorted, so a cursor).
    fault_cursor: usize,
    /// Failed disks queued behind the single active rebuild slot.
    rebuild_pending: Vec<DiskId>,
    rebuild: Option<RebuildState>,
    metrics: Metrics,
    /// Event tracer, present when `cfg.trace` (or `set_trace_sink`)
    /// enabled tracing. All emission happens on the merge thread, in the
    /// same order the sequential engine would produce.
    tracer: Option<Tracer>,
}

/// The paper's three fetch disciplines, chosen once from the scheme when
/// the simulator is built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FetchPolicy {
    /// One block per round, double-buffered (§4, §5, §7.4): declustered
    /// parity, dynamic reservation, non-clustered.
    PerBlock,
    /// A whole group's data every `k` rounds, staggered by admission
    /// round (§6): prefetch with parity disks, prefetch flat.
    StaggeredGroup,
    /// A whole group plus its redundancy in lock-step long rounds of `k`
    /// rounds, disks serving once per long round (§7.3): streaming RAID.
    LockStepGroup,
}

impl Simulator {
    /// Builds a simulator: catalog → layout → admission controller →
    /// disk array.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation and construction errors from
    /// any of the substrates.
    pub fn new(cfg: SimConfig) -> Result<Self, CmsError> {
        cfg.validate()?;
        // Every data block takes a disk block of its own, so a catalog
        // larger than the whole array fails the layout check in `build`
        // at any jitter: refuse it before allocating anything that size.
        let array = DiskArray::new(cfg.d, DiskParams::sigmod96(), cfg.block_bytes)?;
        let capacity = u64::from(cfg.d) * array.blocks_per_disk();
        let needed = cfg.catalog_clips.saturating_mul(cfg.clip_len);
        if needed > capacity {
            return Err(CmsError::InfeasibleConfig {
                reason: format!(
                    "catalog needs at least {needed} blocks, the array holds {capacity}"
                ),
            });
        }
        // Start-disk jitter reproduces the paper's random disk(C)/row(C);
        // when the catalog barely fits the array, padding is shrunk until
        // the layout fits (halving down to none).
        let mut jitter = u64::from(cfg.d);
        loop {
            match Self::build(&cfg, jitter) {
                Err(CmsError::InfeasibleConfig { reason }) if jitter > 1 => {
                    let _ = reason;
                    jitter /= 2;
                }
                other => return other,
            }
        }
    }

    fn build(cfg: &SimConfig, jitter: u64) -> Result<Self, CmsError> {
        let cfg = cfg.clone();
        // Group span: the k = p − m data blocks fetched per group (p − 1
        // under the paper's single-parity schemes, where m = 1).
        let span = u64::from(cfg.p - cfg.m).max(1);
        let mixed = |streams, align| {
            let (clips, len, spread) = (cfg.catalog_clips, cfg.clip_len, cfg.clip_len_spread);
            Catalog::mixed(clips, len, spread, streams, align, jitter, cfg.seed)
        };
        let clustered_layout = |catalog: &Catalog| {
            let len = catalog.max_stream_len();
            clustered::build_with_redundancy(cfg.scheme, cfg.d, cfg.p, cfg.m, len)
        };
        // Each scheme builds its PGT (if any), catalog, layout and
        // admission controller in that order, so the first step to fail
        // names the error.
        let (catalog, layout, admission): (_, _, Box<dyn Admission + Send>) = match cfg.scheme {
            Scheme::DeclusteredParity => {
                let pgt = build_pgt(cfg.d, cfg.p, cfg.seed)?;
                let catalog = mixed(1, 1)?;
                let layout = declustered::build(&pgt, catalog.max_stream_len())?;
                let (rows, f, lambda) = (pgt.rows(), cfg.f.max(1), pgt.lambda_max());
                // Nothing keeps the PGT past the build. Freeing it before
                // the controller allocates lets the controller reuse its
                // memory rather than grow the heap past it.
                drop(pgt);
                let admission = DeclusteredAdmission::new(cfg.d, rows, cfg.q, f, lambda)?;
                (catalog, layout, Box::new(admission))
            }
            Scheme::DynamicReservation => {
                let pgt = build_pgt(cfg.d, cfg.p, cfg.seed)?;
                let catalog = mixed(pgt.rows(), 1)?;
                let layout = declustered::build_super_clips(&pgt, catalog.max_stream_len())?;
                let deltas = (0..pgt.rows()).map(|r| pgt.row_deltas(r)).collect();
                (catalog, layout, Box::new(DynamicAdmission::new(cfg.d, cfg.q, deltas)?))
            }
            Scheme::PrefetchParityDisks => {
                let catalog = mixed(1, span)?;
                let layout = clustered_layout(&catalog)?;
                let admission =
                    PrefetchParityDiskAdmission::with_redundancy(cfg.d, cfg.p, cfg.m, cfg.q)?;
                (catalog, layout, Box::new(admission))
            }
            Scheme::StreamingRaid => {
                let catalog = mixed(1, span)?;
                let layout = clustered_layout(&catalog)?;
                let admission =
                    StreamingRaidAdmission::with_redundancy(cfg.d, cfg.p, cfg.m, cfg.q)?;
                (catalog, layout, Box::new(admission))
            }
            Scheme::NonClustered => {
                let catalog = mixed(1, 1)?;
                let layout = clustered_layout(&catalog)?;
                (catalog, layout, Box::new(NonClusteredAdmission::new(cfg.d, cfg.p, cfg.q)?))
            }
            Scheme::PrefetchFlat => {
                let catalog = mixed(1, span)?;
                let layout = flat::build(cfg.d, cfg.p, catalog.max_stream_len())?;
                (catalog, layout, Box::new(FlatAdmission::new(cfg.d, cfg.p, cfg.q, cfg.f.max(1))?))
            }
        };
        let policy = match cfg.scheme {
            Scheme::DeclusteredParity | Scheme::DynamicReservation | Scheme::NonClustered => {
                FetchPolicy::PerBlock
            }
            Scheme::PrefetchParityDisks | Scheme::PrefetchFlat => FetchPolicy::StaggeredGroup,
            Scheme::StreamingRaid => FetchPolicy::LockStepGroup,
        };
        let array = DiskArray::new(cfg.d, DiskParams::sigmod96(), cfg.block_bytes)?;
        // The layout must fit the physical disks.
        for disk in 0..cfg.d {
            if layout.blocks_used(DiskId(disk)) > array.blocks_per_disk() {
                return Err(CmsError::InfeasibleConfig {
                    reason: format!(
                        "layout needs {} blocks on disk {disk}, capacity {}",
                        layout.blocks_used(DiskId(disk)),
                        array.blocks_per_disk()
                    ),
                });
            }
        }
        let round_duration = transfer_time(cfg.block_bytes, cms_core::units::mbps(1.5));
        let metrics = Metrics {
            disk_busy: vec![0.0; cfg.d as usize],
            disk_blocks: vec![0; cfg.d as usize],
            disk_recovery_reads: vec![0; cfg.d as usize],
            disk_rebuild_reads: vec![0; cfg.d as usize],
            ..Metrics::default()
        };
        let tracer = cfg.trace.build().map_err(|e| {
            CmsError::invalid_params(format!("cannot open trace output: {e}"))
        })?;
        Ok(Simulator {
            arrivals: PoissonArrivals::new(cfg.arrival_rate, cfg.seed ^ 0xA11),
            choice: if cfg.zipf_theta > 0.0 {
                ClipChoice::zipf(cfg.catalog_clips, cfg.zipf_theta, cfg.seed ^ 0xC11)
            } else {
                ClipChoice::uniform(cfg.catalog_clips, cfg.seed ^ 0xC11)
            },
            fresh: Vec::new(),
            backlog: Vec::new(),
            // Every buffer the serve can grow is pre-grown to the round
            // budget, so even the first serve allocates nothing.
            work: DiskChunk {
                cscan: (0..cfg.d).map(|_| ServiceScratch::with_budget(cfg.q as usize)).collect(),
                rounds: vec![DiskRound::default(); cfg.d as usize],
                requests: Vec::with_capacity(cfg.q as usize),
                ..DiskChunk::default()
            },
            offsets: Vec::with_capacity(cfg.d as usize + 1),
            fetch_seq: 0,
            scratch: EngineScratch::default(),
            pool: WorkerPool::new(cfg.threads, cfg.d as usize, serve_chunk),
            pending: PendingList::new(),
            paused: BTreeMap::new(),
            table: StreamTable::default(),
            policy,
            layout,
            catalog,
            admission,
            array,
            round_duration,
            t: 0,
            next_request: 0,
            failed: BTreeSet::new(),
            transient_until: BTreeMap::new(),
            slow_until: BTreeMap::new(),
            fault_cursor: 0,
            rebuild_pending: Vec::new(),
            rebuild: None,
            metrics,
            tracer,
            cfg,
        })
    }

    /// Runs the configured number of rounds and returns the metrics.
    pub fn run(self) -> Metrics {
        self.run_summary().0
    }

    /// Runs the configured number of rounds and returns the metrics plus
    /// the trace summary (`None` when tracing is off). File sinks are
    /// flushed before this returns.
    pub fn run_summary(mut self) -> (Metrics, Option<TraceSummary>) {
        for _ in 0..self.cfg.rounds {
            self.step();
        }
        self.metrics.still_pending = self.pending.len() as u64;
        let summary = self.tracer.map(|mut tr| {
            tr.finish();
            tr.summary().clone()
        });
        (self.metrics, summary)
    }

    /// Installs a trace sink mid-stream (replacing whatever `cfg.trace`
    /// set up), e.g. a `RingSink` whose handle the caller keeps.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink + Send>) {
        self.tracer = Some(Tracer::new(sink));
    }

    /// The running trace summary, when tracing is enabled.
    #[must_use]
    pub fn trace_summary(&self) -> Option<&TraceSummary> {
        self.tracer.as_ref().map(Tracer::summary)
    }

    /// Flushes the trace sink without consuming the simulator (stepping
    /// callers that never reach [`Simulator::run_summary`]).
    pub fn flush_trace(&mut self) {
        if let Some(tr) = self.tracer.as_mut() {
            tr.finish();
        }
    }

    /// Executes one round of the server pipeline.
    pub fn step(&mut self) {
        let _ = self.step_report();
    }

    /// Executes one round and returns what happened in it — the per-tick
    /// record an operator's dashboard would ingest.
    pub fn step_report(&mut self) -> crate::metrics::RoundReport {
        let before = (
            self.metrics.arrivals,
            self.metrics.admitted,
            self.metrics.completed,
            self.metrics.blocks_fetched,
            self.metrics.recovery_reads,
            self.metrics.hiccups,
            self.metrics.service_errors,
            self.metrics.rebuild_reads,
            self.metrics.late_serves,
            self.metrics.lost_streams,
            self.metrics.degraded_refusals,
        );
        let round = self.t;
        self.metrics.rounds += 1;
        self.apply_faults();
        // Snapshot the outage state *after* this round's fault events:
        // admission runs before anything else can change the down-set, so
        // the cap it enforces is the one the report carries.
        let down_disks = (self.failed.len() + self.transient_until.len()) as u64;
        let degraded_cap = self.degraded_cap(down_disks);
        self.generate_arrivals();
        self.admit_from_head(degraded_cap);
        self.schedule_fetches();
        self.schedule_rebuild();
        self.execute_disks();
        // Reconstructions completed by stranded reads in fault
        // application or by deliveries in the merge.
        self.verify_due();
        self.consume_and_complete();
        self.admission.advance_round();
        self.t += 1;
        crate::metrics::RoundReport {
            round,
            arrivals: self.metrics.arrivals - before.0,
            admissions: self.metrics.admitted - before.1,
            completions: self.metrics.completed - before.2,
            blocks_served: self.metrics.blocks_fetched - before.3,
            recovery_reads: self.metrics.recovery_reads - before.4,
            hiccups: self.metrics.hiccups - before.5,
            service_errors: self.metrics.service_errors - before.6,
            rebuild_reads: self.metrics.rebuild_reads - before.7,
            late_serves: self.metrics.late_serves - before.8,
            lost_streams: self.metrics.lost_streams - before.9,
            degraded_refusals: self.metrics.degraded_refusals - before.10,
            active: self.table.len() as u64,
            pending: self.pending.len() as u64,
            down_disks,
            degraded_cap,
        }
    }

    /// Read-only access to the accumulated metrics.
    #[must_use]
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The resolved configuration this simulator runs (after
    /// construction-time padding adjustments).
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The admission controller's fault-free capacity ceiling — the
    /// engine-side number the conformance harness cross-checks against
    /// the analytical model's clip count.
    #[must_use]
    pub fn nominal_capacity(&self) -> u64 {
        self.admission.nominal_capacity()
    }

    /// Blocks the materialized layout placed on `disk` (data and parity)
    /// — the amount a rebuild of that disk must reconstruct.
    #[must_use]
    pub fn layout_blocks_used(&self, disk: DiskId) -> u64 {
        self.layout.blocks_used(disk)
    }

    /// The current round.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.t
    }

    /// Number of active playback sessions.
    #[must_use]
    pub fn active_clients(&self) -> usize {
        self.table.len()
    }

    /// Number of requests waiting in the pending list.
    #[must_use]
    pub fn pending_requests(&self) -> usize {
        self.pending.len()
    }

    /// The lowest-numbered currently failed disk, if any (the only one,
    /// under the manual single-failure API).
    #[must_use]
    pub fn failed_disk(&self) -> Option<DiskId> {
        self.failed.iter().next().copied()
    }

    /// The group span `k = p − m`: data blocks fetched per group, the
    /// long-round length, and the survivor count every reconstruction
    /// needs (`p − 1` under the paper's single-parity schemes).
    fn group_span(&self) -> u64 {
        u64::from(self.cfg.p - self.cfg.m).max(1)
    }

    /// Aligns a resume or migration offset down to where the fetch
    /// discipline can restart playback: a group boundary under the group
    /// policies, so the viewer may re-watch up to `k−1` blocks.
    fn align_offset(&self, offset: u64) -> u64 {
        match self.policy {
            FetchPolicy::PerBlock => offset,
            FetchPolicy::StaggeredGroup | FetchPolicy::LockStepGroup => {
                let span = self.group_span();
                (offset / span) * span
            }
        }
    }

    /// Submits an external playback request for `clip` (in addition to —
    /// or instead of, when `arrival_rate` is 0 — the generated workload).
    /// The request queues in the FIFO pending list like any arrival.
    ///
    /// # Errors
    ///
    /// Returns [`CmsError::OutOfBounds`] for an unknown clip id.
    pub fn submit(&mut self, clip: ClipId) -> Result<RequestId, CmsError> {
        self.submit_at(clip, 0)
    }

    /// Pauses an active session (VCR pause): its admission slot and
    /// buffer are released; [`Simulator::resume`] re-queues the remainder
    /// through admission control.
    ///
    /// # Errors
    ///
    /// Returns [`CmsError::InvalidParams`] if `id` is not an active
    /// session.
    pub fn pause(&mut self, id: RequestId) -> Result<(), CmsError> {
        let Some(slot) = self.table.slot_of(id) else {
            return Err(CmsError::invalid_params(format!("{id} is not playing")));
        };
        let parked = PausedClient {
            clip: self.table.placement[slot as usize].id,
            consumed: self.table.consumed[slot as usize],
        };
        self.table.remove(id, slot);
        self.admission.remove(id);
        self.paused.insert(id, parked);
        Ok(())
    }

    /// Resumes a paused session: the remainder of the clip re-enters the
    /// pending list (aligned down to the scheme's group boundary, so a
    /// resumed viewer may re-watch up to `k−1` blocks, `k = p − m`).
    /// Returns the new request id tracking the resumed playback.
    ///
    /// # Errors
    ///
    /// Returns [`CmsError::InvalidParams`] if `id` is not paused.
    pub fn resume(&mut self, id: RequestId) -> Result<RequestId, CmsError> {
        let Some(parked) = self.paused.remove(&id) else {
            return Err(CmsError::invalid_params(format!("{id} is not paused")));
        };
        Ok(self.enqueue(parked.clip, self.align_offset(parked.consumed)))
    }

    /// Number of paused sessions.
    #[must_use]
    pub fn paused_sessions(&self) -> usize {
        self.paused.len()
    }

    /// Submits a playback request starting at block `offset` of `clip` —
    /// the migration entry point: a stream re-homed from a failed node
    /// resumes where it left off. The offset is aligned down to the
    /// scheme's group boundary exactly like [`Simulator::resume`], so a
    /// migrated viewer may re-watch up to `k−1` blocks, `k = p − m`.
    ///
    /// # Errors
    ///
    /// Returns [`CmsError::OutOfBounds`] for an unknown clip id.
    pub fn submit_at(&mut self, clip: ClipId, offset: u64) -> Result<RequestId, CmsError> {
        if clip.raw() >= self.cfg.catalog_clips {
            return Err(CmsError::out_of_bounds(format!(
                "{clip} outside catalog of {} clips",
                self.cfg.catalog_clips
            )));
        }
        Ok(self.enqueue_arrival(clip, self.align_offset(offset)))
    }

    /// Snapshot of every live session for the cluster gateway: active
    /// playbacks and requests still waiting in the pending queue, in
    /// deterministic order (active in request-id order, then pending in
    /// queue order). Cold path — only called when this node's whole array
    /// goes dark and its streams must be re-homed.
    #[must_use]
    pub fn export_sessions(&self) -> Vec<SessionExport> {
        let mut out = Vec::with_capacity(self.table.len() + self.pending.len());
        for &(id, slot) in &self.table.order {
            if !self.table.live(id, slot) {
                continue;
            }
            out.push(SessionExport {
                request: id,
                clip: self.table.placement[slot as usize].id,
                offset: self.table.consumed[slot as usize],
                was_active: true,
            });
        }
        for i in 0..self.pending.len() {
            if let Some(p) = self.pending.get(i) {
                out.push(SessionExport {
                    request: p.id,
                    clip: p.payload.clip,
                    offset: p.payload.offset,
                    was_active: false,
                });
            }
        }
        out
    }

    /// Clears every live session — active, pending and paused — and all
    /// in-flight disk work: the node went dark, so nothing it was doing
    /// survives. Admission slots are released so a later repair starts
    /// from an empty server. Returns the number of active + pending
    /// sessions dropped (the streams the gateway must re-home or declare
    /// lost).
    pub fn evacuate(&mut self) -> usize {
        let dropped = self.table.len() + self.pending.len();
        for i in 0..self.table.order.len() {
            let (id, slot) = self.table.order[i];
            if self.table.live(id, slot) {
                self.admission.remove(id);
            }
        }
        self.table.clear();
        while self.pending.pop().is_some() {}
        self.paused.clear();
        self.fresh.clear();
        self.backlog.clear();
        self.rebuild = None;
        self.rebuild_pending.clear();
        dropped
    }

    /// Fails `disk` immediately (single-failure model: a second failure
    /// while one is outstanding is rejected).
    ///
    /// # Errors
    ///
    /// Returns [`CmsError::InvalidParams`] if a disk is already failed or
    /// the id is out of range.
    pub fn fail_disk(&mut self, disk: DiskId) -> Result<(), CmsError> {
        if disk.raw() >= self.cfg.d {
            return Err(CmsError::invalid_params("disk id out of range"));
        }
        if !self.failed.is_empty() {
            return Err(CmsError::invalid_params(
                "single-failure model: repair the failed disk first",
            ));
        }
        self.fail_now(disk);
        self.verify_due();
        Ok(())
    }

    /// Repairs a failed disk.
    ///
    /// # Errors
    ///
    /// Returns [`CmsError::InvalidParams`] if that disk is not failed.
    pub fn repair_disk(&mut self, disk: DiskId) -> Result<(), CmsError> {
        if !self.failed.contains(&disk) {
            return Err(CmsError::invalid_params(format!("{disk} is not failed")));
        }
        self.repair_now(disk);
        Ok(())
    }

    /// Rebuild progress as `(rebuilt, total)` blocks, if a rebuild is
    /// running.
    #[must_use]
    pub fn rebuild_progress(&self) -> Option<(u64, u64)> {
        self.rebuild.as_ref().map(|r| (r.rebuilt, r.total))
    }
}

/// Builds the PGT for a declustered-family configuration.
fn build_pgt(d: u32, p: u32, seed: u64) -> Result<Pgt, CmsError> {
    let design = best_design(DesignRequest { v: d, k: p, allow_fallback: true, seed })
        .ok_or_else(|| CmsError::DesignUnavailable {
            reason: format!("no design for (d = {d}, p = {p})"),
        })?;
    Ok(Pgt::new(&design))
}
