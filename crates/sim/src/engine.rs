//! The simulation engine: see the crate docs for the per-round pipeline.

use crate::config::SimConfig;
use crate::metrics::Metrics;
use crate::table::{sv_get, sv_get_mut, sv_insert, sv_remove, StreamTable};
use cms_admission::{
    Admission, AdmitRequest, DeclusteredAdmission, DynamicAdmission, FlatAdmission,
    NonClusteredAdmission, PendingList, PrefetchParityDiskAdmission, StreamingRaidAdmission,
};
use cms_bibd::{best_design, DesignRequest, Pgt};
use cms_core::units::transfer_time;
use cms_core::{ClipId, CmsError, DiskId, DiskParams, RequestId, Round, Scheme};
use cms_disk::{
    BlockRequest, Disk, DiskArray, RoundOutcome, ServiceContext, ServiceScratch,
};
use cms_fault::FaultEvent;
use cms_layout::{
    clustered, declustered, flat, BlockLocation, GroupId, MaterializedLayout, StreamAddr,
};
use cms_parity::{Block, ErasureCodec, RsCodec};
use cms_trace::{EventKind, TraceSink, TraceSummary, Tracer};
use cms_workload::{Catalog, ClipChoice, PoissonArrivals};
use std::collections::{BTreeMap, BTreeSet};

use crate::pool::{Batch, WorkerPool};

/// The empty value of a [`Fetch`] role field. [`SimConfig::validate`]
/// keeps every clip-block index and every disk's block count below it.
const NO_INDEX: u32 = u32::MAX;

/// One scheduled disk read. Kept to 56 bytes so a round's fetches stay
/// dense in the round buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fetch {
    client: RequestId,
    loc: BlockLocation,
    /// Round the block this read contributes to will be consumed.
    needed: u64,
    /// Globally increasing issue stamp. Each disk's queue is served in
    /// `(needed, seq)` order, which reproduces exactly the order a
    /// per-round *stable* sort on `needed` produces: among equal
    /// deadlines, earlier-issued fetches serve first (DESIGN.md §7).
    seq: u64,
    /// Clip-block index this read delivers directly, or [`NO_INDEX`].
    serves: u32,
    /// Clip-block index whose reconstruction this read contributes to,
    /// or [`NO_INDEX`].
    recon_for: u32,
    /// Failed-disk block number this background-rebuild read helps
    /// rebuild onto the spare, or [`NO_INDEX`].
    rebuild_for: u32,
    /// The issuing stream's [`StreamTable`] slot at issue time
    /// (`u32::MAX` for rebuild reads, which have no stream). Delivery
    /// revalidates it against `client` — a completed stream's slot may
    /// have been reused by the time a stale recovery read lands.
    slot: u32,
}

const _: () = assert!(std::mem::size_of::<Fetch>() <= 56);

/// Packs an optional index into a [`Fetch`] role field. Validation bounds
/// every index below [`NO_INDEX`], so the conversion is exact.
fn role(idx: Option<u64>) -> u32 {
    debug_assert!(idx.is_none_or(|i| i < u64::from(NO_INDEX)), "index {idx:?} out of range");
    idx.map_or(NO_INDEX, |i| i as u32)
}

/// Unpacks a [`Fetch`] role field.
fn index(role: u32) -> Option<u64> {
    (role != NO_INDEX).then_some(u64::from(role))
}

/// The EDF service order within one disk's queue.
fn edf_key(f: &Fetch) -> (u64, u64) {
    (f.needed, f.seq)
}

/// The locally computed summary of serving one disk's slice of the round
/// buffer for one round. `Copy` accounting only: the served fetches stay
/// in place in the buffer.
#[derive(Clone, Copy, Default)]
struct DiskRound {
    /// Queue depth before the EDF drain: the length of the disk's slice
    /// (for `peak_disk_queue`).
    queue_len: u32,
    /// Service-time accounting; `None` when the queue was empty or the
    /// disk refused service.
    outcome: Option<RoundOutcome>,
    /// Fetches dropped because the disk refused service (failed disk or
    /// out-of-range block) — merged into `Metrics::service_errors`.
    dropped: u32,
}

impl DiskRound {
    /// Fetches taken from the head of the disk's slice this round:
    /// served, or dropped by a refusing disk.
    fn taken(&self) -> usize {
        self.outcome.map_or(self.dropped, |o| o.blocks) as usize
    }
}

/// The trace event a disk's round produces: `DiskServe` when it served,
/// `ServiceError` when it refused, none when its queue was empty.
fn serve_event(disk: u32, round: &DiskRound) -> Option<EventKind> {
    match round.outcome {
        Some(outcome) => Some(EventKind::DiskServe {
            disk,
            blocks: outcome.blocks,
            // Microseconds losslessly represent the worst-case timing
            // model at round scale; the f64 is computed per disk, so the
            // value is thread-invariant. Round to nearest: truncation
            // would under-report every round's busy time by up to 1µs.
            busy_us: (outcome.busy * 1e6).round() as u64,
            queue: round.queue_len,
        }),
        None if round.dropped > 0 => Some(EventKind::ServiceError { disk, dropped: round.dropped }),
        None => None,
    }
}

/// The per-round parameters every disk's service shares.
#[derive(Clone, Copy)]
struct ServeRound {
    ctx: ServiceContext,
    budget: usize,
    deadline: f64,
}

/// Phase one's unit of work: a contiguous range of disks with their
/// C-SCAN buffers, their round summaries and their slice of the
/// disk-bucketed round buffer, plus one worker's request batch. The pool
/// splits and re-joins chunks by disk; the request batch stays with its
/// worker (DESIGN.md §7).
#[derive(Default)]
struct DiskChunk {
    disks: Vec<Disk>,
    /// Each disk's C-SCAN cylinder/order buffers, reused inside the disk
    /// crate.
    cscan: Vec<ServiceScratch>,
    /// One summary per disk; each `queue_len` sizes the disk's slice of
    /// `fetches`.
    rounds: Vec<DiskRound>,
    /// The range's fetches, disk by disk, each disk's slice in
    /// `(needed, seq)` order.
    fetches: Vec<Fetch>,
    /// Block requests handed to `Disk::service_round_with`.
    requests: Vec<BlockRequest>,
}

impl Batch for DiskChunk {
    fn len(&self) -> usize {
        self.disks.len()
    }

    fn split_off_into(&mut self, at: usize, tail: &mut Self) {
        let from: usize = self.rounds[..at].iter().map(|r| r.queue_len as usize).sum();
        tail.fetches.extend_from_slice(&self.fetches[from..]);
        self.fetches.truncate(from);
        self.disks.split_off_into(at, &mut tail.disks);
        self.cscan.split_off_into(at, &mut tail.cscan);
        self.rounds.split_off_into(at, &mut tail.rounds);
    }

    fn append_from(&mut self, tail: &mut Self) {
        self.disks.append(&mut tail.disks);
        self.cscan.append(&mut tail.cscan);
        self.rounds.append(&mut tail.rounds);
        self.fetches.append(&mut tail.fetches);
    }
}

impl DiskChunk {
    /// Walks a served round in disk-ID order, yielding each disk's id,
    /// summary, the fetches it served (none when it refused service) and
    /// the unserved tail that carries over to the next round.
    fn disk_slices(&self) -> impl Iterator<Item = (u32, &DiskRound, &[Fetch], &[Fetch])> + '_ {
        let mut start = 0;
        self.rounds.iter().enumerate().map(move |(disk, round)| {
            let (taken, end) = (start + round.taken(), start + round.queue_len as usize);
            let served = if round.outcome.is_some() { &self.fetches[start..taken] } else { &[] };
            start = end;
            (disk as u32, round, served, &self.fetches[taken..end])
        })
    }
}

/// Counting-sorts the carried-over `backlog` (ordered by
/// `(disk, needed, seq)`) and this round's `fresh` fetches (in issue
/// order) by disk into `chunk.fetches`, through the `d + 1` slice table
/// `offsets`, and sets each disk's `queue_len` (the serve fills in the
/// rest of its summary). Each disk's slice holds its backlog first, so it
/// needs sorting only when a fresh fetch sorts before a queued one; in
/// steady state none does.
// lint: hot
fn bucket_by_disk(
    backlog: &[Fetch],
    fresh: &[Fetch],
    offsets: &mut Vec<u32>,
    chunk: &mut DiskChunk,
) {
    let d = chunk.rounds.len();
    offsets.clear();
    offsets.resize(d + 1, 0);
    for run in [backlog, fresh] {
        for f in run {
            offsets[f.loc.disk.idx() + 1] += 1;
        }
    }
    for i in 0..d {
        offsets[i + 1] += offsets[i];
    }
    // Every slot is overwritten below, so the buffer keeps last round's
    // contents and only a growing tail is filled.
    let out = &mut chunk.fetches;
    match backlog.first().or(fresh.first()) {
        Some(&fill) => out.resize(offsets[d] as usize, fill),
        None => out.clear(),
    }
    // Scatter, advancing each disk's start to its end, then shift the
    // ends back into starts.
    for run in [backlog, fresh] {
        for &f in run {
            let at = &mut offsets[f.loc.disk.idx()];
            out[*at as usize] = f;
            *at += 1;
        }
    }
    offsets.copy_within(0..d, 1);
    offsets[0] = 0;
    for (round, w) in chunk.rounds.iter_mut().zip(offsets.windows(2)) {
        let queue = &mut out[w[0] as usize..w[1] as usize];
        if !queue.is_sorted_by_key(edf_key) {
            queue.sort_unstable_by_key(edf_key);
        }
        round.queue_len = w[1] - w[0];
    }
}

/// The pool's work function: serves every disk of one chunk from its
/// slice of the round buffer.
// lint: hot
fn serve_chunk(round: &ServeRound, chunk: &mut DiskChunk) {
    let DiskChunk { disks, cscan, rounds, fetches, requests } = chunk;
    let mut start = 0;
    for ((disk, cscan), result) in disks.iter_mut().zip(cscan).zip(rounds.iter_mut()) {
        let end = start + result.queue_len as usize;
        *result = serve_disk(&fetches[start..end], disk, round, requests, cscan);
        start = end;
    }
}

/// Serves the first `min(len, budget)` fetches of one disk's queue
/// (earliest-deadline-first) in C-SCAN order against that disk's own
/// head/busy state. Pure per-disk work: callable concurrently for
/// distinct disks.
// lint: hot
fn serve_disk(
    queue: &[Fetch],
    disk: &mut Disk,
    round: &ServeRound,
    requests: &mut Vec<BlockRequest>,
    cscan: &mut ServiceScratch,
) -> DiskRound {
    if queue.is_empty() {
        return DiskRound::default();
    }
    debug_assert!(queue.is_sorted_by_key(edf_key), "disk queue must be in (needed, seq) order");
    // A slowed disk serves a proportionally smaller slice of its round
    // budget; its per-block busy time is scaled up by the same factor
    // inside the disk model. Pure per-disk state: thread-invariant.
    let budget = (round.budget / disk.slow_factor.max(1) as usize).max(1);
    let queue_len = queue.len() as u32;
    let take = queue.len().min(budget);
    requests.clear();
    requests.extend(
        queue[..take].iter().map(|f| BlockRequest { disk: disk.id, block_no: f.loc.block_no }),
    );
    match disk.service_round_with(&round.ctx, requests, round.deadline, cscan) {
        Ok(outcome) => DiskRound { queue_len, outcome: Some(outcome), dropped: 0 },
        // The engine never routes fetches to a failed disk, so this arm
        // is unreachable for valid layouts — but a refused round must
        // drop its fetches and be counted, never panic the server loop.
        Err(_) => DiskRound { queue_len, outcome: None, dropped: take as u32 },
    }
}

/// A queued unit of playback: a clip, possibly resumed from an offset
/// (VCR resume re-queues the remainder of the clip for admission).
#[derive(Debug, Clone, Copy)]
struct PendingPlay {
    clip: ClipId,
    /// Blocks already consumed before the (re-)queueing.
    offset: u64,
    /// Disk holding the first block to play. The catalog and layout are
    /// immutable, so the admission probe's placement-derived fields are
    /// the same on every scan — computed once at enqueue time instead of
    /// per candidate per round. Meaningless (zero) when the remainder is
    /// empty; admission completes those without probing.
    start_disk: DiskId,
    /// PGT row of the first block to play (same precomputation).
    row: u32,
}

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

/// Background rebuild of a failed disk onto a hot spare: blocks of the
/// failed disk are reconstructed in order from their surviving group
/// members, using only bandwidth left over after client traffic
/// (rebuild reads sort last in each disk's EDF queue).
#[derive(Debug)]
struct RebuildState {
    disk: DiskId,
    /// Next failed-disk block number to schedule.
    next_block: u64,
    /// Total blocks to rebuild (the disk's used prefix).
    total: u64,
    /// block_no → packed `(expected, pending)` source-read counter
    /// (see [`pack_pending`]) before the block is rebuilt.
    outstanding: BTreeMap<u64, u32>,
    /// Blocks fully rebuilt so far.
    rebuilt: u64,
}

/// Reusable buffers for the parity-verification path. All blocks keep
/// their capacity across verifications.
#[derive(Default)]
struct VerifyScratch {
    /// One lazily built codec per `(k′, m)` group geometry seen so far:
    /// tail groups narrower than the configured span alternate with full
    /// groups without rebuilding a codec on every verification.
    codecs: Vec<RsCodec>,
    /// Contiguous `k′ + m` shard pool (data first, then redundancy) for
    /// the codec's allocation-free `_within` paths.
    shards: Vec<Block>,
    /// The group whose synthesized and encoded shards `shards` holds.
    /// Content is a pure function of address and size, and decoding
    /// never writes the pool, so a held group is never refilled.
    held: Option<GroupId>,
    rebuilt: Block,
    /// Lost blocks whose reconstruction completed since the last
    /// [`Simulator::verify_due`] pass.
    due: Vec<StreamAddr>,
    /// Flips one byte of every rebuilt block before the compare, so a
    /// test can prove the gate fails.
    #[cfg(test)]
    corrupt: bool,
    /// Verifications served from the held group.
    #[cfg(test)]
    pooled: u64,
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
    /// Flattened `(failed block, surviving location)` pairs staged by
    /// `schedule_rebuild` before queue insertion.
    rebuild_batch: Vec<(u64, BlockLocation)>,
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

/// Emits one trace event if tracing is enabled. A free function (not a
/// method) so call sites holding disjoint `&mut` borrows of other
/// simulator fields can still emit.
#[inline]
fn emit(tracer: &mut Option<Tracer>, round: u64, kind: EventKind) {
    if let Some(tr) = tracer.as_mut() {
        tr.emit(round, kind);
    }
}

/// Packs a reconstruction/rebuild progress counter: the high 16 bits
/// hold how many survivor reads are still *expected to arrive* (strands
/// decrement it), the low 16 how many are still *pending* (deliveries
/// and strands both decrement it). A block decodes when pending hits
/// zero; it is lost when expected drops below the decode threshold `k`.
#[inline]
fn pack_pending(expected: u32, pending: u32) -> u32 {
    debug_assert!(expected <= 0xFFFF && pending <= 0xFFFF);
    (expected << 16) | pending
}

/// What stranding one in-flight survivor read does to a decode.
enum Strand {
    /// Fewer than `k` survivors can still arrive: the block is lost.
    Lost,
    /// Every other expected survivor already arrived: the block decodes.
    Decodes,
    /// Still waiting, with the updated packed counter.
    Waiting(u32),
}

/// Strands one survivor read of a decode with packed counter `v` (see
/// [`pack_pending`]) and decode threshold `k`: one fewer read is both
/// expected and pending.
fn strand(v: u32, k: u32) -> Strand {
    let expected = (v >> 16) - 1;
    let pending = (v & 0xFFFF) - 1;
    if expected < k {
        Strand::Lost
    } else if pending == 0 {
        Strand::Decodes
    } else {
        Strand::Waiting(pack_pending(expected, pending))
    }
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
        let (catalog, layout) = match cfg.scheme {
            Scheme::DeclusteredParity => {
                let pgt = build_pgt(cfg.d, cfg.p, cfg.seed)?;
                let catalog = Catalog::mixed(
                    cfg.catalog_clips,
                    cfg.clip_len,
                    cfg.clip_len_spread,
                    1,
                    1,
                    jitter,
                    cfg.seed,
                )?;
                let layout = declustered::build(&pgt, catalog.max_stream_len())?;
                (catalog, layout)
            }
            Scheme::DynamicReservation => {
                let pgt = build_pgt(cfg.d, cfg.p, cfg.seed)?;
                let catalog = Catalog::mixed(
                    cfg.catalog_clips,
                    cfg.clip_len,
                    cfg.clip_len_spread,
                    pgt.rows(),
                    1,
                    jitter,
                    cfg.seed,
                )?;
                let layout = declustered::build_super_clips(&pgt, catalog.max_stream_len())?;
                (catalog, layout)
            }
            Scheme::PrefetchParityDisks | Scheme::StreamingRaid | Scheme::NonClustered => {
                let align = if cfg.scheme == Scheme::NonClustered { 1 } else { span };
                let catalog = Catalog::mixed(
                    cfg.catalog_clips,
                    cfg.clip_len,
                    cfg.clip_len_spread,
                    1,
                    align,
                    jitter,
                    cfg.seed,
                )?;
                let layout = clustered::build_with_redundancy(
                    cfg.scheme,
                    cfg.d,
                    cfg.p,
                    cfg.m,
                    catalog.max_stream_len(),
                )?;
                (catalog, layout)
            }
            Scheme::PrefetchFlat => {
                let catalog = Catalog::mixed(
                    cfg.catalog_clips,
                    cfg.clip_len,
                    cfg.clip_len_spread,
                    1,
                    span,
                    jitter,
                    cfg.seed,
                )?;
                let layout = flat::build(cfg.d, cfg.p, catalog.max_stream_len())?;
                (catalog, layout)
            }
        };
        let admission: Box<dyn Admission + Send> = match cfg.scheme {
            Scheme::DeclusteredParity => {
                let pgt = layout.pgt().ok_or_else(|| CmsError::InfeasibleConfig {
                    reason: "declustered layout produced no parity group table".into(),
                })?;
                Box::new(DeclusteredAdmission::new(
                    cfg.d,
                    pgt.rows(),
                    cfg.q,
                    cfg.f.max(1),
                    pgt.lambda_max(),
                )?)
            }
            Scheme::DynamicReservation => {
                let pgt = layout.pgt().ok_or_else(|| CmsError::InfeasibleConfig {
                    reason: "dynamic-reservation layout produced no parity group table".into(),
                })?;
                let deltas = (0..pgt.rows()).map(|r| pgt.row_deltas(r)).collect();
                Box::new(DynamicAdmission::new(cfg.d, cfg.q, deltas)?)
            }
            Scheme::PrefetchParityDisks => Box::new(
                PrefetchParityDiskAdmission::with_redundancy(cfg.d, cfg.p, cfg.m, cfg.q)?,
            ),
            Scheme::StreamingRaid => {
                Box::new(StreamingRaidAdmission::with_redundancy(cfg.d, cfg.p, cfg.m, cfg.q)?)
            }
            Scheme::NonClustered => Box::new(NonClusteredAdmission::new(cfg.d, cfg.p, cfg.q)?),
            Scheme::PrefetchFlat => {
                Box::new(FlatAdmission::new(cfg.d, cfg.p, cfg.q, cfg.f.max(1))?)
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
        // Snapshot the outage state *after* this round's fault events so
        // the report reflects what admission saw (`admit_from_head` runs
        // before anything else can change the down-set).
        let down_disks = (self.failed.len() + self.transient_until.len()) as u64;
        let degraded_cap = self.degraded_cap();
        self.generate_arrivals();
        self.admit_from_head();
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

    /// All currently failed disks, in id order.
    #[must_use]
    pub fn failed_disks(&self) -> Vec<DiskId> {
        self.failed.iter().copied().collect()
    }

    /// Is `disk` unavailable for service (hard-failed or transiently
    /// down)?
    fn is_down(&self, disk: DiskId) -> bool {
        self.failed.contains(&disk) || self.transient_until.contains_key(&disk)
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

    /// Builds the pending-queue payload for playing `clip` from `offset`,
    /// precomputing the admission probe's layout lookups (see
    /// [`PendingPlay`]).
    fn pending_play(&self, clip: ClipId, offset: u64) -> PendingPlay {
        let placement = self.catalog.placement(clip);
        let offset = offset.min(placement.len);
        if placement.len == offset {
            return PendingPlay { clip, offset, start_disk: DiskId(0), row: 0 };
        }
        let start = StreamAddr::new(placement.stream, placement.start_index + offset);
        PendingPlay {
            clip,
            offset,
            start_disk: self.layout.locate(start).disk,
            row: self.layout.row_of(start).unwrap_or(0),
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
        if clip.raw() >= self.cfg.catalog_clips {
            return Err(CmsError::out_of_bounds(format!(
                "{clip} outside catalog of {} clips",
                self.cfg.catalog_clips
            )));
        }
        let id = RequestId(self.next_request);
        self.next_request += 1;
        self.pending.push(id, Round(self.t), self.pending_play(clip, 0));
        self.metrics.arrivals += 1;
        emit(
            &mut self.tracer,
            self.t,
            EventKind::Arrival { request: id.raw(), clip: clip.raw() },
        );
        Ok(id)
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
        let offset = self.align_offset(parked.consumed);
        let new_id = RequestId(self.next_request);
        self.next_request += 1;
        self.pending
            .push(new_id, Round(self.t), self.pending_play(parked.clip, offset));
        Ok(new_id)
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
        let offset = self.align_offset(offset);
        let id = RequestId(self.next_request);
        self.next_request += 1;
        self.pending.push(id, Round(self.t), self.pending_play(clip, offset));
        self.metrics.arrivals += 1;
        emit(&mut self.tracer, self.t, EventKind::Arrival { request: id.raw(), clip: clip.raw() });
        Ok(id)
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

    /// Feeds the background rebuild: keeps a bounded window of failed-disk
    /// blocks in flight, each rebuilt by reading its surviving group
    /// members at the lowest priority.
    fn schedule_rebuild(&mut self) {
        let Some(rb) = &mut self.rebuild else { return };
        let window = 2 * self.cfg.d as usize;
        let failed = rb.disk;
        // Stage the reads first (borrow juggling: layout is immutable,
        // queues are mutated after) in the flat reusable batch — one
        // `(failed block, surviving location)` pair per read, no nested
        // per-block vectors.
        let mut batch = std::mem::take(&mut self.scratch.rebuild_batch);
        let mut reads = std::mem::take(&mut self.scratch.reads);
        batch.clear();
        while rb.outstanding.len() < window && rb.next_block < rb.total {
            let block_no = rb.next_block;
            rb.next_block += 1;
            reads.clear();
            match self.layout.slot(failed, block_no) {
                cms_layout::Slot::Free => {}
                cms_layout::Slot::Data(addr) => {
                    self.layout.reconstruction_reads_into(addr, &mut reads);
                }
                cms_layout::Slot::Parity(gid) => {
                    let g = self.layout.group(gid);
                    reads.extend(g.data.iter().map(|&a| self.layout.locate(a)));
                    // Sibling redundancy shards double as extra sources
                    // (`m ≥ 2`); the shard being rebuilt is excluded.
                    reads.extend(g.redundancy_blocks().filter(|l| l.disk != failed));
                }
            }
            if reads.is_empty() {
                // Unused slot: nothing to copy.
                rb.rebuilt += 1;
                self.metrics.rebuilt_blocks += 1;
                continue;
            }
            let total = reads.len();
            reads.retain(|l| {
                !self.failed.contains(&l.disk) && !self.transient_until.contains_key(&l.disk)
            });
            if total - reads.len() >= self.cfg.m as usize {
                // Further outages removed more sources than the code's
                // `m − 1` spare-shard slack can stand: the rebuild
                // completes around the hole, which is counted — the
                // affected groups' streams were already declared lost
                // when those disks went down.
                rb.rebuilt += 1;
                self.metrics.unrecoverable_blocks += 1;
                continue;
            }
            let n = reads.len() as u32;
            rb.outstanding.insert(block_no, pack_pending(n, n));
            batch.extend(reads.iter().map(|&loc| (block_no, loc)));
        }
        for &(block_no, loc) in &batch {
            debug_assert!(!self.is_down(loc.disk), "rebuild read routed to a down disk");
            self.metrics.rebuild_reads += 1;
            self.metrics.disk_rebuild_reads[loc.disk.idx()] += 1;
            self.push_fetch(Fetch {
                client: RequestId(u64::MAX),
                loc,
                needed: u64::MAX, // lowest EDF priority: slack only
                seq: 0, // stamped by push_fetch
                serves: NO_INDEX,
                recon_for: NO_INDEX,
                rebuild_for: role(Some(block_no)),
                slot: u32::MAX, // no stream
            });
        }
        self.scratch.rebuild_batch = batch;
        self.scratch.reads = reads;
        if let Some(rb) = &self.rebuild {
            let (rebuilt, total) = (rb.rebuilt, rb.total);
            emit(&mut self.tracer, self.t, EventKind::RebuildProgress { rebuilt, total });
        }
        self.check_rebuild_complete();
    }

    fn check_rebuild_complete(&mut self) {
        let done = self
            .rebuild
            .as_ref()
            .is_some_and(|rb| rb.rebuilt == rb.total && rb.outstanding.is_empty());
        if done {
            let Some(rb) = self.rebuild.take() else { return };
            // The spare now holds the full contents: the array is whole
            // again (modeled as the failed slot returning to service).
            if self.array.set_down(rb.disk, false).is_err() {
                self.metrics.service_errors += 1;
            }
            self.failed.remove(&rb.disk);
            self.metrics.rebuild_completed_round = Some(self.t);
            emit(
                &mut self.tracer,
                self.t,
                EventKind::RebuildComplete { disk: rb.disk.raw() },
            );
            self.start_next_rebuild();
        }
    }

    /// Promotes the next failed disk waiting for the single rebuild slot.
    fn start_next_rebuild(&mut self) {
        while self.rebuild.is_none() && !self.rebuild_pending.is_empty() {
            let disk = self.rebuild_pending.remove(0);
            if !self.failed.contains(&disk) {
                continue; // repaired while waiting
            }
            self.rebuild = Some(RebuildState {
                disk,
                next_block: 0,
                total: self.layout.blocks_used(disk),
                outstanding: BTreeMap::new(),
                rebuilt: 0,
            });
        }
    }

    fn fail_now(&mut self, disk: DiskId) {
        if self.array.set_down(disk, true).is_err() {
            // Out-of-range ids are rejected by fail_disk / config
            // validation before reaching here; count, don't crash.
            self.metrics.service_errors += 1;
            return;
        }
        // A hard failure outranks (and ends) any transient window.
        self.transient_until.remove(&disk);
        if !self.failed.insert(disk) {
            return; // already failed
        }
        emit(&mut self.tracer, self.t, EventKind::DiskFailure { disk: disk.raw() });
        if self.cfg.auto_rebuild {
            // Queue behind the single rebuild slot (empty whenever the
            // slot is free, so an idle slot takes this disk at once).
            self.rebuild_pending.push(disk);
            self.start_next_rebuild();
        }
        self.strand_queue(disk);
    }

    /// Returns `disk` to service: clears its failed state, cancels or
    /// dequeues its rebuild, and promotes the next pending rebuild.
    fn repair_now(&mut self, disk: DiskId) {
        if self.array.set_down(disk, false).is_err() {
            self.metrics.service_errors += 1;
            return;
        }
        if !self.failed.remove(&disk) {
            return;
        }
        if self.rebuild.as_ref().is_some_and(|rb| rb.disk == disk) {
            self.rebuild = None;
        }
        self.rebuild_pending.retain(|&d| d != disk);
        emit(&mut self.tracer, self.t, EventKind::DiskRepair { disk: disk.raw() });
        self.start_next_rebuild();
    }

    /// Re-routes reads already queued on a disk that just went down:
    /// data reads fall back to reconstruction, reads that were
    /// themselves reconstruction inputs mean the stream lost a second
    /// group member, and rebuild source reads leave a counted hole.
    fn strand_queue(&mut self, disk: DiskId) {
        // The disk's run of the backlog, plus the recovery reads an
        // earlier strand in the same fault batch issued to it, strand in
        // the `(needed, seq)` order its queue would have served them.
        let from = self.backlog.partition_point(|f| f.loc.disk < disk);
        let to = self.backlog.partition_point(|f| f.loc.disk <= disk);
        let mut stranded: Vec<Fetch> = self.backlog.drain(from..to).collect();
        stranded.extend(self.fresh.iter().filter(|f| f.loc.disk == disk));
        self.fresh.retain(|f| f.loc.disk != disk);
        stranded.sort_unstable_by_key(edf_key);
        for fetch in stranded {
            if let Some(idx) = index(fetch.recon_for) {
                // This read was reconstructing `idx` from survivors;
                // losing a survivor means one fewer shard will ever
                // arrive. Fatal iff the rest cannot reach the decode
                // threshold (always, under single-parity `m = 1`).
                self.strand_recon(fetch.client, fetch.slot, idx);
                continue;
            }
            if let Some(idx) = index(fetch.serves) {
                self.schedule_recovery(fetch.client, fetch.slot, idx, fetch.needed);
            }
            if let Some(block_no) = index(fetch.rebuild_for) {
                self.abandon_rebuild_block(block_no);
            }
        }
    }

    /// Deterministically terminates a stream whose due block became
    /// unreconstructable (a second failure in its parity group). The
    /// client is removed and counted — never silently mis-served.
    fn lose_stream(&mut self, id: RequestId, slot: u32, block: u64) {
        if self.table.live(id, slot) {
            self.table.remove(id, slot);
            self.admission.remove(id);
            self.metrics.lost_streams += 1;
            emit(
                &mut self.tracer,
                self.t,
                EventKind::StreamLost { request: id.raw(), block },
            );
        }
    }

    /// A queued survivor read reconstructing block `idx` of
    /// `(id, slot)` was stranded by a new outage: one fewer shard will
    /// ever arrive. The decode still completes if the remaining
    /// expected shards reach the threshold `k` (possible only with
    /// `m ≥ 2` spare redundancy); otherwise the stream is lost, exactly
    /// as the single-parity schemes always declared it.
    fn strand_recon(&mut self, id: RequestId, slot: u32, idx: u64) {
        if !self.table.live(id, slot) {
            return;
        }
        let Some(v) = sv_get(&self.table.recon_pending[slot as usize], idx) else {
            self.lose_stream(id, slot, idx);
            return;
        };
        let placement = self.table.placement[slot as usize];
        let addr = StreamAddr::new(placement.stream, placement.start_index + idx);
        match strand(v, self.decode_threshold(addr)) {
            Strand::Lost => self.lose_stream(id, slot, idx),
            // Every non-stranded survivor already arrived and they
            // suffice: the decode completes despite the strand.
            Strand::Decodes => self.complete_reconstruction(id, slot, idx),
            Strand::Waiting(v) => {
                if let Some(slot_v) = sv_get_mut(&mut self.table.recon_pending[slot as usize], idx)
                {
                    *slot_v = v;
                }
            }
        }
    }

    /// The decode threshold of the group holding `addr`: its data-shard
    /// count `k′` (tail groups can be narrower than the configured span).
    fn decode_threshold(&self, addr: StreamAddr) -> u32 {
        self.layout.group(self.layout.group_id_of(addr)).data.len() as u32
    }

    /// Drops a rebuild block whose in-flight source reads were stranded
    /// by a further outage — unless enough expected source reads remain
    /// to decode it (`m ≥ 2` spare redundancy). Unrecoverable holes are
    /// counted, never silently filled.
    fn abandon_rebuild_block(&mut self, block_no: u64) {
        let Some((disk, v)) =
            self.rebuild.as_ref().and_then(|rb| Some((rb.disk, *rb.outstanding.get(&block_no)?)))
        else {
            return;
        };
        let k = match self.layout.slot(disk, block_no) {
            cms_layout::Slot::Free => 0,
            cms_layout::Slot::Data(addr) => self.decode_threshold(addr),
            cms_layout::Slot::Parity(gid) => self.layout.group(gid).data.len() as u32,
        };
        match strand(v, k) {
            Strand::Lost => self.retire_rebuild_block(block_no, false),
            Strand::Decodes => self.retire_rebuild_block(block_no, true),
            Strand::Waiting(v) => {
                if let Some(rb) = &mut self.rebuild {
                    rb.outstanding.insert(block_no, v);
                }
            }
        }
    }

    /// Retires in-flight rebuild block `block_no`: copied onto the spare
    /// when its sources sufficed, otherwise a counted hole.
    fn retire_rebuild_block(&mut self, block_no: u64, recovered: bool) {
        let Some(rb) = &mut self.rebuild else { return };
        rb.outstanding.remove(&block_no);
        rb.rebuilt += 1;
        if recovered {
            self.metrics.rebuilt_blocks += 1;
            self.check_rebuild_complete();
        } else {
            self.metrics.unrecoverable_blocks += 1;
        }
    }

    /// Round-start fault processing on the coordinating thread (so the
    /// whole round observes a settled array): expire transient and slow
    /// windows, apply the legacy single-failure scenario, then drain
    /// every scheduled event due this round, in schedule order.
    fn apply_faults(&mut self) {
        while let Some(disk) = self
            .transient_until
            .iter()
            .find(|&(_, &end)| end <= self.t)
            .map(|(&d, _)| d)
        {
            self.transient_until.remove(&disk);
            if self.array.set_down(disk, false).is_ok() {
                emit(
                    &mut self.tracer,
                    self.t,
                    EventKind::DiskTransientEnd { disk: disk.raw() },
                );
            }
        }
        while let Some(disk) = self
            .slow_until
            .iter()
            .find(|&(_, &end)| end <= self.t)
            .map(|(&d, _)| d)
        {
            self.slow_until.remove(&disk);
            if self.array.set_slow_factor(disk, 1).is_ok() {
                emit(&mut self.tracer, self.t, EventKind::DiskSlowEnd { disk: disk.raw() });
            }
        }
        if let Some(fs) = self.cfg.failure {
            if self.t == fs.fail_round && self.failed.is_empty() {
                self.fail_now(fs.disk);
            }
            if let Some(repair) = fs.repair_round {
                if self.t == repair && self.failed.contains(&fs.disk) {
                    self.repair_now(fs.disk);
                }
            }
        }
        loop {
            let next = self
                .cfg
                .faults
                .as_ref()
                .and_then(|s| s.events().get(self.fault_cursor).copied());
            let Some(e) = next else { break };
            if e.round > self.t {
                break;
            }
            self.fault_cursor += 1;
            self.apply_fault_event(e.event);
        }
    }

    /// Applies one scheduled fault event. Inapplicable events (failing
    /// an already-failed disk, a transient window on a down disk) are
    /// deterministic no-ops, mirroring `FaultSchedule::check_consistency`.
    fn apply_fault_event(&mut self, event: FaultEvent) {
        match event {
            FaultEvent::Fail(disk) => {
                if !self.failed.contains(&disk) {
                    self.fail_now(disk);
                }
            }
            FaultEvent::Repair(disk) => {
                if self.failed.contains(&disk) {
                    self.repair_now(disk);
                }
            }
            FaultEvent::Transient { disk, rounds } => {
                if !self.is_down(disk) && self.array.set_down(disk, true).is_ok() {
                    self.transient_until.insert(disk, self.t.saturating_add(rounds));
                    emit(
                        &mut self.tracer,
                        self.t,
                        EventKind::DiskTransient { disk: disk.raw(), rounds },
                    );
                    self.strand_queue(disk);
                }
            }
            FaultEvent::SlowDisk { disk, factor, rounds } => {
                let factor = factor.max(1);
                if self.array.set_slow_factor(disk, factor).is_ok() {
                    self.slow_until.insert(disk, self.t.saturating_add(rounds));
                    emit(
                        &mut self.tracer,
                        self.t,
                        EventKind::DiskSlow { disk: disk.raw(), factor, rounds },
                    );
                }
            }
            // Node-scoped events never reach a single-server engine:
            // SimConfig::validate rejects them up front, and the cluster
            // gateway consumes them itself. Deterministic no-op either way.
            FaultEvent::FailNode(_) | FaultEvent::RepairNode(_) => {}
        }
    }

    fn generate_arrivals(&mut self) {
        for _ in 0..self.arrivals.next_round() {
            let clip = self.choice.next_clip();
            let id = RequestId(self.next_request);
            self.next_request += 1;
            self.pending.push(id, Round(self.t), self.pending_play(clip, 0));
            self.metrics.arrivals += 1;
            emit(
                &mut self.tracer,
                self.t,
                EventKind::Arrival { request: id.raw(), clip: clip.raw() },
            );
        }
    }

    /// Admission with bounded FIFO bypass (cf. ORS96): requests are
    /// considered in arrival order; a request whose resources are free is
    /// admitted even if earlier ones are blocked — *unless* the head has
    /// aged past [`SimConfig::aging_limit`], in which case nothing may
    /// overtake it. Bypass keeps the disks busy; the aging guard keeps
    /// the policy starvation-free (a head's wait is bounded by the limit
    /// plus one clip duration).
    /// The maximum active-stream count while degraded, when enforcement
    /// is on and any disk is down: the scheme's fault-free capacity
    /// ([`Admission::nominal_capacity`]) scaled by the surviving-disk
    /// fraction — the lost disk's share of the array is withheld so
    /// survivors keep contingency headroom for its recovery reads — and
    /// zero for NonClustered (no redundancy to serve through an outage)
    /// or more concurrent outages than the code's `m` redundancy shards
    /// are designed to tolerate.
    fn degraded_cap(&self) -> Option<u64> {
        if !self.cfg.degraded_admission {
            return None;
        }
        let down = (self.failed.len() + self.transient_until.len()) as u64;
        if down == 0 {
            return None;
        }
        if self.cfg.scheme == Scheme::NonClustered || down > u64::from(self.cfg.m) {
            return Some(0);
        }
        let healthy = u64::from(self.cfg.d).saturating_sub(down);
        Some(self.admission.nominal_capacity() * healthy / u64::from(self.cfg.d))
    }

    fn admit_from_head(&mut self) {
        let degraded_cap = self.degraded_cap();
        let head_aged = self
            .pending
            .head_wait(Round(self.t))
            .is_some_and(|w| w >= self.cfg.aging_limit);
        let scan = if head_aged { 1 } else { self.cfg.admission_scan.max(1) };
        let mut idx = 0usize;
        let mut inspected = 0usize;
        while inspected < scan {
            let Some(cand) = self.pending.get(idx) else { break };
            inspected += 1;
            let cand_id = cand.id;
            let cand_clip = cand.payload.clip;
            let mut placement = self.catalog.placement(cand.payload.clip);
            // A resumed session plays only the remainder of the clip.
            let offset = cand.payload.offset.min(placement.len);
            placement.start_index += offset;
            placement.len -= offset;
            if placement.len == 0 {
                // Paused at the very end: nothing left to play.
                self.pending.remove_at(idx);
                self.metrics.completed += 1;
                emit(
                    &mut self.tracer,
                    self.t,
                    EventKind::Completion { request: cand_id.raw() },
                );
                continue;
            }
            if let Some(cap) = degraded_cap {
                if self.table.len() as u64 >= cap {
                    // Degraded mode: the cap is reached; refuse this
                    // round's remaining candidates (they stay queued)
                    // and count one refusal for the blocked head.
                    self.metrics.degraded_refusals += 1;
                    emit(
                        &mut self.tracer,
                        self.t,
                        EventKind::DegradedRefusal {
                            request: cand_id.raw(),
                            clip: cand_clip.raw(),
                        },
                    );
                    break;
                }
            }
            // `start_disk` and `row` were precomputed when the candidate
            // was enqueued — the layout is immutable, so the probe fields
            // never change between scans.
            let req = AdmitRequest {
                id: cand.id,
                stream: placement.stream,
                start_index: placement.start_index,
                start_disk: cand.payload.start_disk,
                row: cand.payload.row,
                len: placement.len,
            };
            // Allocation-free preview first: a rejection costs one table
            // probe instead of `try_admit`'s error-message formatting.
            // The trace event carries no reason string, so skipping the
            // full call is observationally identical.
            if !self.admission.check(&req) || self.admission.try_admit(req).is_err() {
                emit(
                    &mut self.tracer,
                    self.t,
                    EventKind::Rejection { request: cand_id.raw(), clip: cand_clip.raw() },
                );
                idx += 1;
                continue;
            }
            let Some(cand) = self.pending.remove_at(idx) else {
                // The admitted candidate was at idx an instant ago; an
                // empty slot here means the queue shrank underneath us —
                // stop scanning rather than panic mid-round.
                break;
            };
            // A successful admission may have freed nothing, but it does
            // not invalidate earlier rejections this round; keep scanning
            // from the same position (the next element shifted into it)
            // without charging another inspection for the admit itself.
            inspected -= 1;
            let wait = self.t - cand.arrived.raw();
            self.metrics.admitted += 1;
            self.metrics.wait_rounds_total += wait;
            self.metrics.wait_rounds_max = self.metrics.wait_rounds_max.max(wait);
            self.metrics.record_wait(wait);
            emit(
                &mut self.tracer,
                self.t,
                EventKind::Admission { request: cand.id.raw(), clip: cand_clip.raw(), wait },
            );
            let span = self.group_span();
            self.table.admit(cand.id, placement, self.t, self.t.div_ceil(span) * span);
            self.metrics.peak_active = self.metrics.peak_active.max(self.table.len() as u64);
        }
        // One bulk merge of this round's admissions into iteration order
        // (the scan visits the id-sorted pending queue, so staged ids
        // are ascending; bypass means they may interleave with ids
        // admitted in earlier rounds).
        self.table.flush_staged();
    }

    // lint: hot
    fn schedule_fetches(&mut self) {
        let span = self.group_span();
        let policy = self.policy;
        // Walk the id-sorted order index directly — the same ascending-id
        // visit order the old map snapshot produced, with no snapshot
        // vector. `lose_stream` mid-walk only tombstones entries (never
        // reorders or grows `order`), so positional iteration is stable;
        // the liveness recheck after each issue mirrors the old map
        // re-lookups.
        for at in 0..self.table.order.len() {
            let (id, slot) = self.table.order[at];
            if !self.table.live(id, slot) {
                continue;
            }
            let s = slot as usize;
            let (placement, admitted_at, first_boundary, issued) = (
                self.table.placement[s],
                self.table.admitted_at[s],
                self.table.first_boundary[s],
                self.table.issued[s],
            );
            if issued >= placement.len {
                continue;
            }
            let next = match policy {
                FetchPolicy::PerBlock => {
                    // Double-buffered single-block retrieval: one block per
                    // round, in lock-step with admission's rotation model.
                    if self.t < admitted_at + issued {
                        continue;
                    }
                    let needed = self.table.consume_round(slot, issued, policy, span);
                    self.issue_data_fetch(id, slot, issued, needed);
                    issued + 1
                }
                FetchPolicy::StaggeredGroup | FetchPolicy::LockStepGroup => {
                    // A group every k rounds: staggered from the stream's
                    // admission, or on the array-wide long-round boundaries.
                    let anchor =
                        if policy == FetchPolicy::LockStepGroup { first_boundary } else { admitted_at };
                    if self.t < anchor || !(self.t - anchor).is_multiple_of(span) {
                        continue;
                    }
                    let group_end = (issued + span).min(placement.len);
                    self.issue_group_fetch(id, slot, issued, group_end);
                    group_end
                }
            };
            if self.table.live(id, slot) {
                self.table.issued[s] = next;
            }
        }
    }

    /// Issues the single-block fetch for `idx`, or recovery reads if its
    /// disk is down.
    // lint: hot
    fn issue_data_fetch(&mut self, id: RequestId, slot: u32, idx: u64, needed: u64) {
        if !self.table.live(id, slot) {
            return; // stream already lost or completed
        }
        let placement = self.table.placement[slot as usize];
        let addr = StreamAddr::new(placement.stream, placement.start_index + idx);
        let loc = self.layout.locate(addr);
        if self.is_down(loc.disk) {
            self.schedule_recovery(id, slot, idx, needed);
        } else {
            self.push_fetch(Fetch {
                client: id,
                loc,
                needed,
                seq: 0, // stamped by push_fetch
                serves: role(Some(idx)),
                recon_for: NO_INDEX,
                rebuild_for: NO_INDEX,
                slot,
            });
        }
    }

    /// Issues a whole-group fetch for blocks `start..end` of the clip.
    /// Under the lock-step policy (streaming RAID) it also reads the
    /// group's redundancy blocks. Reads on a failed disk are replaced by
    /// the pre-fetching recovery rule: the alive redundancy shards
    /// substitute, and the sibling reads of the same fetch double as
    /// reconstruction inputs. Up to `m` window blocks may be down at
    /// once; the stream is lost only when the alive survivors drop below
    /// the decode threshold `k`.
    // lint: hot
    fn issue_group_fetch(&mut self, id: RequestId, slot: u32, start: u64, end: u64) {
        if !self.table.live(id, slot) {
            return; // stream already lost or completed
        }
        let placement = self.table.placement[slot as usize];
        let policy = self.policy;
        let span = self.group_span();

        let mut lost = std::mem::take(&mut self.scratch.lost);
        let mut healthy = std::mem::take(&mut self.scratch.healthy);
        let mut redundancy = std::mem::take(&mut self.scratch.redundancy);
        lost.clear();
        healthy.clear();
        redundancy.clear();
        for idx in start..end {
            let addr = StreamAddr::new(placement.stream, placement.start_index + idx);
            let loc = self.layout.locate(addr);
            if self.is_down(loc.disk) {
                lost.push(idx);
            } else {
                healthy.push((idx, loc));
            }
        }
        let first_addr = StreamAddr::new(placement.stream, placement.start_index + start);
        {
            let group = self.layout.group(self.layout.group_id_of(first_addr));
            redundancy.extend(group.redundancy_blocks().filter(|l| !self.is_down(l.disk)));
        }
        if redundancy.len() < lost.len() {
            // More window members down than alive redundancy shards can
            // stand in for (under `m = 1`: two members down, or the lost
            // data block's parity with it): the group cannot decode —
            // declare the stream lost instead of mis-serving a partial
            // reconstruction.
            let first = lost.first().copied().unwrap_or(start);
            self.scratch.lost = lost;
            self.scratch.healthy = healthy;
            self.scratch.redundancy = redundancy;
            self.lose_stream(id, slot, first);
            return;
        }
        // Every survivor must arrive by the earliest lost deadline.
        let lost_needed =
            lost.iter().map(|&idx| self.table.consume_round(slot, idx, policy, span)).min();
        let recon_first = lost.first().copied();
        for &(idx, loc) in &healthy {
            let needed = self.table.consume_round(slot, idx, policy, span);
            self.push_fetch(Fetch {
                client: id,
                loc,
                needed: lost_needed.map_or(needed, |ln| needed.min(ln)),
                seq: 0, // stamped by push_fetch
                serves: role(Some(idx)),
                recon_for: role(recon_first),
                rebuild_for: NO_INDEX,
                slot,
            });
        }
        // Redundancy reads: always under lock-step; on failure for the
        // staggered policy (unless only redundancy disks died, in which
        // case the data is all there and nothing is lost).
        if policy == FetchPolicy::LockStepGroup || !lost.is_empty() {
            let needed =
                lost_needed.unwrap_or_else(|| self.table.consume_round(slot, start, policy, span));
            for &loc in &redundancy {
                self.push_survivor_read(id, slot, loc, needed, recon_first);
            }
        }
        // Reconstruction of the first lost block waits for every
        // surviving group read that carries recon_for: the healthy
        // siblings of this fetch plus the alive redundancy shards.
        // Additional lost blocks (`m ≥ 2` with multiple failures in one
        // cluster) each get their own reconstruction stream: dedicated
        // recovery reads of the same survivors, accounted per block.
        let survivors = (healthy.len() + redundancy.len()) as u32;
        for (nth, &idx) in lost.iter().enumerate() {
            if nth > 0 {
                let needed = self.table.consume_round(slot, idx, policy, span);
                for &loc in healthy.iter().map(|(_, loc)| loc).chain(&redundancy) {
                    self.push_survivor_read(id, slot, loc, needed, Some(idx));
                }
            }
            self.await_reconstruction(id, slot, idx, survivors);
        }
        self.scratch.lost = lost;
        self.scratch.healthy = healthy;
        self.scratch.redundancy = redundancy;
    }

    /// Schedules the declustered/non-clustered recovery reads that rebuild
    /// clip block `idx` after its disk failed.
    fn schedule_recovery(&mut self, id: RequestId, slot: u32, idx: u64, needed: u64) {
        if !self.table.live(id, slot) {
            return; // stream already lost or completed
        }
        let placement = self.table.placement[slot as usize];
        let addr = StreamAddr::new(placement.stream, placement.start_index + idx);
        let mut reads = std::mem::take(&mut self.scratch.reads);
        self.layout.reconstruction_reads_into(addr, &mut reads);
        // The sources are the group's other shards: its data siblings
        // plus all `m` redundancy blocks, so decoding the lost block
        // tolerates at most `m − 1` of them being down as well. More
        // (under `m = 1`: any second down disk, or no sources at all)
        // makes the block unreconstructable: the stream is declared
        // lost, never silently mis-served from a partial decode.
        let total = reads.len();
        reads.retain(|l| !self.is_down(l.disk));
        if reads.is_empty() || total - reads.len() >= self.cfg.m as usize {
            self.scratch.reads = reads;
            self.lose_stream(id, slot, idx);
            return;
        }
        for &loc in &reads {
            self.push_survivor_read(id, slot, loc, needed, Some(idx));
        }
        let survivors = reads.len() as u32;
        self.scratch.reads = reads;
        self.await_reconstruction(id, slot, idx, survivors);
    }

    /// Queues a read of `loc` for stream `(id, slot)` that delivers no
    /// block directly. When it feeds the reconstruction of block
    /// `recon_for` it is a recovery read: counted per disk and traced.
    // lint: hot
    fn push_survivor_read(
        &mut self,
        id: RequestId,
        slot: u32,
        loc: BlockLocation,
        needed: u64,
        recon_for: Option<u64>,
    ) {
        self.push_fetch(Fetch {
            client: id,
            loc,
            needed,
            seq: 0, // stamped by push_fetch
            serves: NO_INDEX,
            recon_for: role(recon_for),
            rebuild_for: NO_INDEX,
            slot,
        });
        if let Some(block) = recon_for {
            self.metrics.recovery_reads += 1;
            self.metrics.disk_recovery_reads[loc.disk.idx()] += 1;
            emit(
                &mut self.tracer,
                self.t,
                EventKind::RecoveryRead { request: id.raw(), disk: loc.disk.raw(), block },
            );
        }
    }

    /// Arms the decode of block `idx` of `(id, slot)`: it completes once
    /// the `survivors` reads issued with `recon_for = idx` have arrived.
    fn await_reconstruction(&mut self, id: RequestId, slot: u32, idx: u64, survivors: u32) {
        debug_assert!(survivors > 0, "undecodable groups are declared lost before arming");
        if let Some(tr) = self.tracer.as_mut() {
            tr.record_recovery_fanout(u64::from(survivors));
        }
        if self.table.live(id, slot) {
            sv_insert(
                &mut self.table.recon_pending[slot as usize],
                idx,
                pack_pending(survivors, survivors),
            );
        }
    }

    /// Appends a fetch to this round's buffer, stamping the issue seq —
    /// monotonically increasing across the whole run — so a fresh fetch
    /// always sorts *after* every queued fetch with the same deadline:
    /// leftovers (earlier stamps) precede new arrivals among equal
    /// deadlines, exactly as a per-round stable sort on `needed` orders
    /// them.
    // lint: hot
    fn push_fetch(&mut self, mut fetch: Fetch) {
        debug_assert!(!self.is_down(fetch.loc.disk), "fetch routed to a down disk");
        fetch.seq = self.fetch_seq;
        self.fetch_seq += 1;
        self.fresh.push(fetch);
    }

    /// Services every disk's queue for this round, then merges the
    /// results and delivers the fetched blocks.
    ///
    /// The backlog and this round's fetches are first bucketed by disk
    /// into one round buffer, each disk's slice in EDF order. The paper's
    /// §3 observation that per-round disk work is independent by
    /// construction is load-bearing here: each disk's EDF drain, C-SCAN
    /// sweep and service-time accounting touch only that disk's slice and
    /// head state, so phase one runs on the simulator's persistent
    /// [`WorkerPool`]. The calling thread services the first chunk of
    /// disks in place; each pool helper receives the disks, summaries and
    /// fetches of one later chunk as owned values and sends them back,
    /// and the chunks re-join in disk-ID order (with `threads = 1` there
    /// are no helpers and this is one inline loop). Phase two walks the
    /// disks **in disk-ID order** on the calling thread — every metric
    /// accumulation, trace event and `deliver` happens in exactly the
    /// sequence the sequential loop used, which is what makes results
    /// bit-identical at any thread count (the determinism contract in
    /// DESIGN.md).
    fn execute_disks(&mut self) {
        // Taken out for the whole round: phase two's `deliver` needs
        // `&mut self` while it walks the served fetches.
        let mut work = std::mem::take(&mut self.work);
        bucket_by_disk(&self.backlog, &self.fresh, &mut self.offsets, &mut work);
        self.backlog.clear();
        self.fresh.clear();
        let span = self.group_span();
        let lock_step = self.policy == FetchPolicy::LockStepGroup;
        // Lock-step disks work in long rounds of `k` rounds; others every
        // round. Off a boundary nothing is served, and the bucketed
        // buffer — ordered by `(disk, needed, seq)` — is the backlog.
        if lock_step && !self.t.is_multiple_of(span) {
            std::mem::swap(&mut self.backlog, &mut work.fetches);
            self.work = work;
            return;
        }
        let deadline = if lock_step {
            self.round_duration * span as f64
        } else {
            self.round_duration
        };
        #[cfg(feature = "bench-alloc")]
        crate::hotgauge::enter_serve();
        // Phase one: per-disk service over disjoint disk ranges.
        {
            let (ctx, disks) = self.array.service_parts();
            let round = ServeRound { ctx, budget: self.cfg.q as usize, deadline };
            std::mem::swap(&mut work.disks, disks);
            self.pool.run(round, &mut work);
            std::mem::swap(&mut work.disks, disks);
        }
        #[cfg(feature = "bench-alloc")]
        crate::hotgauge::exit_serve();
        self.merge_disks(&work);
        self.work = work;
    }

    /// Phase two: the sequential merge in disk-ID order. Each disk's
    /// trace event is emitted from its summary, so the trace stream is
    /// the one the sequential loop would have written — byte-identical
    /// at any thread count, exactly like `disk_busy`. Unserved tails are
    /// appended in disk order, so the backlog stays ordered by
    /// `(disk, needed, seq)` without another sort.
    // lint: hot
    fn merge_disks(&mut self, work: &DiskChunk) {
        for (disk, round, served, carried) in work.disk_slices() {
            self.backlog.extend_from_slice(carried);
            if let Some(tr) = self.tracer.as_mut() {
                if let Some(kind) = serve_event(disk, round) {
                    tr.emit(self.t, kind);
                }
            }
            self.metrics.service_errors += u64::from(round.dropped);
            let Some(outcome) = round.outcome else {
                continue; // empty queue (or refused service) this round
            };
            let d = disk as usize;
            self.metrics.peak_disk_queue = self.metrics.peak_disk_queue.max(round.queue_len);
            self.metrics.peak_utilization =
                self.metrics.peak_utilization.max(outcome.utilization());
            self.metrics.disk_busy[d] += outcome.busy;
            self.metrics.disk_blocks[d] += u64::from(outcome.blocks);
            for &fetch in served {
                self.deliver(fetch);
            }
        }
    }

    // lint: hot
    fn deliver(&mut self, fetch: Fetch) {
        self.metrics.blocks_fetched += 1;
        if let Some(block_no) = index(fetch.rebuild_for) {
            let outstanding = self.rebuild.as_mut().and_then(|rb| rb.outstanding.get_mut(&block_no));
            let done = outstanding.is_some_and(|pending| {
                // Delivery: one fewer pending read; the arrival was
                // expected, so the high half is untouched.
                *pending -= 1;
                *pending & 0xFFFF == 0
            });
            if done {
                self.retire_rebuild_block(block_no, true);
            }
            return;
        }
        if fetch.needed > 0 && self.t + 1 > fetch.needed {
            self.metrics.late_serves += 1;
            emit(
                &mut self.tracer,
                self.t,
                EventKind::LateServe {
                    request: fetch.client.raw(),
                    block: index(fetch.serves).or(index(fetch.recon_for)).unwrap_or(0),
                },
            );
        }
        if !self.table.live(fetch.client, fetch.slot) {
            return; // client already completed (stale recovery read)
        }
        let slot = fetch.slot as usize;
        if let Some(idx) = index(fetch.serves) {
            self.table.avail[slot].or_insert(idx, self.t + 1);
        }
        if let Some(idx) = index(fetch.recon_for) {
            let done = if let Some(pending) = sv_get_mut(&mut self.table.recon_pending[slot], idx)
            {
                // Delivery: one fewer pending read; the arrival was
                // expected, so the high half is untouched.
                *pending -= 1;
                *pending & 0xFFFF == 0
            } else {
                false
            };
            if done {
                self.complete_reconstruction(fetch.client, fetch.slot, idx);
            }
        }
    }

    /// The last pending survivor read for block `idx` of `(id, slot)`
    /// arrived (or was harmlessly stranded): the block decodes. Makes it
    /// available next round and, when byte-level verification is on,
    /// queues the lost block for the next [`Self::verify_due`] pass.
    fn complete_reconstruction(&mut self, id: RequestId, slot: u32, idx: u64) {
        let s = slot as usize;
        sv_remove(&mut self.table.recon_pending[s], idx);
        self.table.avail[s].insert(idx, self.t + 1);
        self.metrics.reconstructions += 1;
        emit(&mut self.tracer, self.t, EventKind::Reconstruction { request: id.raw(), block: idx });
        if self.cfg.verify_parity {
            let placement = self.table.placement[s];
            let lost = StreamAddr::new(placement.stream, placement.start_index + idx);
            self.scratch.verify.due.push(lost);
        }
    }

    /// Verifies every reconstruction queued since the last pass. Runs
    /// before each public call that can complete one returns
    /// ([`Self::step_report`] after its disk-service merge,
    /// [`Self::fail_disk`]), so `parity_mismatches` is current whenever a
    /// caller can observe it. Sorting by group puts the lost shards of
    /// one parity group next to each other, so its shards are synthesized
    /// and encoded once however many of them were lost.
    fn verify_due(&mut self) {
        if self.scratch.verify.due.is_empty() {
            return;
        }
        let mut vs = std::mem::take(&mut self.scratch.verify);
        vs.due.sort_unstable_by_key(|&a| (self.layout.group_id_of(a), a.index));
        for i in 0..vs.due.len() {
            let lost = vs.due[i];
            if !self.verify_reconstruction(&mut vs, lost) {
                self.metrics.parity_mismatches += 1;
            }
        }
        vs.due.clear();
        self.scratch.verify = vs;
    }

    /// Byte-level check: the group's codec — RS(k′, m), which is the
    /// paper's XOR parity at `m = 1` — reproduces the synthetic content of
    /// the lost block from the rest of its group. Unless the group is
    /// already held, its data shards are synthesized and its redundancy
    /// re-encoded into the pooled `k′ + m` shard slice; the lost shard is
    /// then decoded from the others and compared with its pooled
    /// original, which the decode does not read. Every buffer comes from
    /// `scratch` and is refilled in place, and codecs are cached per
    /// geometry, so this allocates nothing once the pools have grown
    /// (DESIGN.md §7).
    fn verify_reconstruction(&self, scratch: &mut VerifyScratch, lost: StreamAddr) -> bool {
        let gid = self.layout.group_id_of(lost);
        let group = self.layout.group(gid);
        let (k, m) = (group.data.len(), group.redundancy());
        let Some(lost_idx) = group.data.iter().position(|&a| a == lost) else {
            return false;
        };
        #[cfg(test)]
        {
            scratch.pooled += u64::from(scratch.held == Some(gid));
        }
        let VerifyScratch { codecs, shards, held, rebuilt, .. } = scratch;
        let at = match codecs.iter().position(|c| c.data_shards() == k && c.parity_shards() == m) {
            Some(at) => at,
            None => {
                let Ok(c) = RsCodec::new(k, m) else { return false };
                codecs.push(c);
                codecs.len() - 1
            }
        };
        let codec = &mut codecs[at];
        if shards.len() < k + m {
            shards.resize_with(k + m, Block::default);
        }
        let all = &mut shards[..k + m];
        if *held != Some(gid) {
            *held = None;
            for (slot, &a) in all.iter_mut().zip(&group.data) {
                slot.fill_synthetic(u64::from(a.stream), a.index, self.cfg.content_bytes);
            }
            if codec.encode_within(all).is_err() {
                return false;
            }
            *held = Some(gid);
        }
        if codec.reconstruct_within(all, lost_idx, rebuilt).is_err() {
            return false;
        }
        #[cfg(test)]
        if scratch.corrupt {
            let mut bytes = rebuilt.bytes().to_vec();
            bytes[0] ^= 1;
            *rebuilt = Block::from_bytes(bytes);
        }
        *rebuilt == all[lost_idx]
    }

    // lint: hot
    fn consume_and_complete(&mut self) {
        let policy = self.policy;
        let span = self.group_span();
        let mut done = std::mem::take(&mut self.scratch.done);
        done.clear();
        let mut buffered = 0u64;
        for at in 0..self.table.order.len() {
            let (id, slot) = self.table.order[at];
            if !self.table.live(id, slot) {
                continue;
            }
            let s = slot as usize;
            let len = self.table.placement[s].len;
            while self.table.consumed[s] < len
                && self.t >= self.table.consume_round(slot, self.table.consumed[s], policy, span)
            {
                let idx = self.table.consumed[s];
                match self.table.avail[s].get(idx) {
                    Some(avail_at) if avail_at <= self.t => {
                        self.table.avail[s].remove(idx);
                        self.metrics.blocks_consumed += 1;
                    }
                    _ => {
                        // Not in the buffer when its round came: the
                        // playback glitch the guarantee schemes must
                        // never produce.
                        self.metrics.hiccups += 1;
                        emit(
                            &mut self.tracer,
                            self.t,
                            EventKind::Hiccup { request: id.raw(), block: idx },
                        );
                    }
                }
                self.table.consumed[s] += 1;
            }
            buffered += self.table.avail[s].len() as u64;
            if self.table.consumed[s] >= len {
                done.push((id, slot));
            }
        }
        self.metrics.peak_buffered_blocks = self.metrics.peak_buffered_blocks.max(buffered);
        for &(id, slot) in &done {
            self.table.remove(id, slot);
            self.admission.remove(id);
            self.metrics.completed += 1;
            emit(&mut self.tracer, self.t, EventKind::Completion { request: id.raw() });
        }
        self.scratch.done = done;
        // Amortized sweep of completion tombstones out of the order
        // index, so long runs never scan a mostly-dead vector.
        self.table.maybe_compact();
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

#[cfg(test)]
mod tests {
    use super::*;
    use cms_core::DiskParams;
    use cms_model::{capacity, ModelInput};
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
            let tail_k = sim.layout.group(sim.layout.group_id_of(tail)).data.len() as u64;
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
}
