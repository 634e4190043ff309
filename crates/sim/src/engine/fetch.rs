//! Fetch scheduling: each active stream's reads for this round under the
//! scheme's fetch policy, with recovery reads standing in for blocks on
//! down disks, and the packed counters that track each decode.

use super::serve::{role, Fetch};
use super::{FetchPolicy, Simulator};
use crate::table::{sv_get, sv_get_mut, sv_insert};
use cms_core::RequestId;
use cms_layout::{BlockLocation, StreamAddr};
use cms_trace::{emit, EventKind};

/// Packs a reconstruction/rebuild progress counter: the high 16 bits
/// hold how many survivor reads are still *expected to arrive* (strands
/// decrement it), the low 16 how many are still *pending* (deliveries
/// and strands both decrement it). A block decodes when pending hits
/// zero; it is lost when expected drops below the decode threshold `k`.
#[inline]
pub(super) fn pack_pending(expected: u32, pending: u32) -> u32 {
    debug_assert!(expected <= 0xFFFF && pending <= 0xFFFF);
    (expected << 16) | pending
}

/// Counts one delivered survivor read against packed counter `v` (see
/// [`pack_pending`]): one fewer read is pending; the arrival was
/// expected, so the high half is untouched. True when it was the last.
#[inline]
pub(super) fn arrive(v: &mut u32) -> bool {
    *v -= 1;
    *v & 0xFFFF == 0
}

/// What stranding one in-flight survivor read does to a decode.
pub(super) enum Strand {
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
pub(super) fn strand(v: u32, k: u32) -> Strand {
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
    // lint: hot
    pub(super) fn schedule_fetches(&mut self) {
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
        let loc = self.layout.locate(self.table.addr(slot, idx));
        if self.is_down(loc.disk) {
            self.schedule_recovery(id, slot, idx, needed);
        } else {
            self.push_fetch(Fetch { serves: role(Some(idx)), ..Fetch::new(id, slot, loc, needed) });
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
        let policy = self.policy;
        let span = self.group_span();

        let mut lost = std::mem::take(&mut self.scratch.lost);
        let mut healthy = std::mem::take(&mut self.scratch.healthy);
        let mut redundancy = std::mem::take(&mut self.scratch.redundancy);
        lost.clear();
        healthy.clear();
        redundancy.clear();
        for idx in start..end {
            let loc = self.layout.locate(self.table.addr(slot, idx));
            if self.is_down(loc.disk) {
                lost.push(idx);
            } else {
                healthy.push((idx, loc));
            }
        }
        {
            let group = self.layout.group(self.layout.group_id_of(self.table.addr(slot, start)));
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
            let needed = lost_needed.map_or(needed, |ln| needed.min(ln));
            self.push_fetch(Fetch {
                serves: role(Some(idx)),
                recon_for: role(recon_first),
                ..Fetch::new(id, slot, loc, needed)
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
    pub(super) fn schedule_recovery(&mut self, id: RequestId, slot: u32, idx: u64, needed: u64) {
        if !self.table.live(id, slot) {
            return; // stream already lost or completed
        }
        let mut reads = std::mem::take(&mut self.scratch.reads);
        self.layout.reconstruction_reads_into(self.table.addr(slot, idx), &mut reads);
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
        self.push_fetch(Fetch { recon_for: role(recon_for), ..Fetch::new(id, slot, loc, needed) });
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
    pub(super) fn push_fetch(&mut self, mut fetch: Fetch) {
        debug_assert!(!self.is_down(fetch.loc.disk), "fetch routed to a down disk");
        fetch.seq = self.fetch_seq;
        self.fetch_seq += 1;
        self.fresh.push(fetch);
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
    pub(super) fn strand_recon(&mut self, id: RequestId, slot: u32, idx: u64) {
        if !self.table.live(id, slot) {
            return;
        }
        let Some(v) = sv_get(&self.table.recon_pending[slot as usize], idx) else {
            self.lose_stream(id, slot, idx);
            return;
        };
        match strand(v, self.decode_threshold(self.table.addr(slot, idx))) {
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
    pub(super) fn decode_threshold(&self, addr: StreamAddr) -> u32 {
        self.layout.group(self.layout.group_id_of(addr)).data_len() as u32
    }
}
