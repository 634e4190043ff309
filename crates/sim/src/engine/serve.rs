//! Disk service: the round buffer, the per-disk EDF drain and C-SCAN
//! sweep on the worker pool, and the sequential merge that delivers the
//! fetched blocks (DESIGN.md §5, §7).

use super::fetch::arrive;
use super::{FetchPolicy, Simulator};
use crate::pool::Batch;
use crate::table::sv_get_mut;
use cms_core::RequestId;
use cms_disk::{BlockRequest, Disk, RoundOutcome, ServiceContext, ServiceScratch};
use cms_layout::BlockLocation;
use cms_trace::{emit, EventKind};

/// The empty value of a [`Fetch`] role field.
/// [`SimConfig::validate`](crate::SimConfig::validate) keeps every
/// clip-block index and every disk's block count below it.
pub(super) const NO_INDEX: u32 = u32::MAX;

/// One scheduled disk read. Kept to 56 bytes so a round's fetches stay
/// dense in the round buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct Fetch {
    pub(super) client: RequestId,
    pub(super) loc: BlockLocation,
    /// Round the block this read contributes to will be consumed.
    pub(super) needed: u64,
    /// Globally increasing issue stamp. Each disk's queue is served in
    /// `(needed, seq)` order, which reproduces exactly the order a
    /// per-round *stable* sort on `needed` produces: among equal
    /// deadlines, earlier-issued fetches serve first (DESIGN.md §7).
    pub(super) seq: u64,
    /// Clip-block index this read delivers directly, or [`NO_INDEX`].
    pub(super) serves: u32,
    /// Clip-block index whose reconstruction this read contributes to,
    /// or [`NO_INDEX`].
    pub(super) recon_for: u32,
    /// Failed-disk block number this background-rebuild read helps
    /// rebuild onto the spare, or [`NO_INDEX`].
    pub(super) rebuild_for: u32,
    /// The issuing stream's [`StreamTable`](crate::table::StreamTable)
    /// slot at issue time (`u32::MAX` for rebuild reads, which have no
    /// stream). Delivery revalidates it against `client` — a completed
    /// stream's slot may have been reused by the time a stale recovery
    /// read lands.
    pub(super) slot: u32,
}

const _: () = assert!(std::mem::size_of::<Fetch>() <= 56);

impl Fetch {
    /// A read of `loc` for stream `(client, slot)` whose block is
    /// consumed in round `needed`, with every role empty.
    pub(super) fn new(client: RequestId, slot: u32, loc: BlockLocation, needed: u64) -> Fetch {
        Fetch {
            client,
            loc,
            needed,
            seq: 0, // stamped by push_fetch
            serves: NO_INDEX,
            recon_for: NO_INDEX,
            rebuild_for: NO_INDEX,
            slot,
        }
    }
}

/// Packs an optional index into a [`Fetch`] role field. Validation bounds
/// every index below [`NO_INDEX`], so the conversion is exact.
pub(super) fn role(idx: Option<u64>) -> u32 {
    debug_assert!(idx.is_none_or(|i| i < u64::from(NO_INDEX)), "index {idx:?} out of range");
    idx.map_or(NO_INDEX, |i| i as u32)
}

/// Unpacks a [`Fetch`] role field.
pub(super) fn index(role: u32) -> Option<u64> {
    (role != NO_INDEX).then_some(u64::from(role))
}

/// The EDF service order within one disk's queue.
pub(super) fn edf_key(f: &Fetch) -> (u64, u64) {
    (f.needed, f.seq)
}

/// The locally computed summary of serving one disk's slice of the round
/// buffer for one round. `Copy` accounting only: the served fetches stay
/// in place in the buffer.
#[derive(Clone, Copy, Default)]
pub(super) struct DiskRound {
    /// Queue depth before the EDF drain: the length of the disk's slice
    /// (for `peak_disk_queue`).
    pub(super) queue_len: u32,
    /// Service-time accounting; `None` when the queue was empty or the
    /// disk refused service.
    pub(super) outcome: Option<RoundOutcome>,
    /// Fetches dropped because the disk refused service (failed disk or
    /// out-of-range block) — merged into `Metrics::service_errors`.
    pub(super) dropped: u32,
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
pub(super) fn serve_event(disk: u32, round: &DiskRound) -> Option<EventKind> {
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
pub(super) struct ServeRound {
    pub(super) ctx: ServiceContext,
    pub(super) budget: usize,
    pub(super) deadline: f64,
}

/// Phase one's unit of work: a contiguous range of disks with their
/// C-SCAN buffers, their round summaries and their slice of the
/// disk-bucketed round buffer, plus one worker's request batch. The pool
/// splits and re-joins chunks by disk; the request batch stays with its
/// worker (DESIGN.md §7).
#[derive(Default)]
pub(super) struct DiskChunk {
    pub(super) disks: Vec<Disk>,
    /// Each disk's C-SCAN cylinder/order buffers, reused inside the disk
    /// crate.
    pub(super) cscan: Vec<ServiceScratch>,
    /// One summary per disk; each `queue_len` sizes the disk's slice of
    /// `fetches`.
    pub(super) rounds: Vec<DiskRound>,
    /// The range's fetches, disk by disk, each disk's slice in
    /// `(needed, seq)` order.
    pub(super) fetches: Vec<Fetch>,
    /// Block requests handed to `Disk::service_round_with`.
    pub(super) requests: Vec<BlockRequest>,
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
    pub(super) fn disk_slices(
        &self,
    ) -> impl Iterator<Item = (u32, &DiskRound, &[Fetch], &[Fetch])> + '_ {
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
pub(super) fn bucket_by_disk(
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
pub(super) fn serve_chunk(round: &ServeRound, chunk: &mut DiskChunk) {
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

impl Simulator {
    /// Services every disk's queue for this round, then merges the
    /// results and delivers the fetched blocks.
    ///
    /// The backlog and this round's fetches are first bucketed by disk
    /// into one round buffer, each disk's slice in EDF order. The paper's
    /// §3 observation that per-round disk work is independent by
    /// construction is load-bearing here: each disk's EDF drain, C-SCAN
    /// sweep and service-time accounting touch only that disk's slice and
    /// head state, so phase one runs on the simulator's persistent
    /// [`WorkerPool`](crate::pool::WorkerPool). The calling thread
    /// services the first chunk of disks in place; each pool helper
    /// receives the disks, summaries and fetches of one later chunk as
    /// owned values and sends them back, and the chunks re-join in
    /// disk-ID order (with `threads = 1` there are no helpers and this is
    /// one inline loop). Phase two walks the
    /// disks **in disk-ID order** on the calling thread — every metric
    /// accumulation, trace event and `deliver` happens in exactly the
    /// sequence the sequential loop used, which is what makes results
    /// bit-identical at any thread count (the determinism contract in
    /// DESIGN.md).
    pub(super) fn execute_disks(&mut self) {
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
            if outstanding.is_some_and(arrive) {
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
            if sv_get_mut(&mut self.table.recon_pending[slot], idx).is_some_and(arrive) {
                self.complete_reconstruction(fetch.client, fetch.slot, idx);
            }
        }
    }
}
