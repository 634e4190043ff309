//! Arrivals and admission: requests queue in the FIFO pending list, and
//! the scheme's controller admits them from the head (§4.2, §5.2, §6).

use super::Simulator;
use cms_admission::AdmitRequest;
use cms_core::{ClipId, DiskId, RequestId, Round, Scheme};
use cms_layout::StreamAddr;
use cms_trace::{emit, EventKind};

/// A queued unit of playback: a clip, possibly resumed from an offset
/// (VCR resume re-queues the remainder of the clip for admission).
#[derive(Debug, Clone, Copy)]
pub(super) struct PendingPlay {
    pub(super) clip: ClipId,
    /// Blocks already consumed before the (re-)queueing.
    pub(super) offset: u64,
    /// Disk holding the first block to play. The catalog and layout are
    /// immutable, so the admission probe's placement-derived fields are
    /// the same on every scan — computed once at enqueue time instead of
    /// per candidate per round. Meaningless (zero) when the remainder is
    /// empty; admission completes those without probing.
    start_disk: DiskId,
    /// PGT row of the first block to play (same precomputation).
    row: u32,
}

impl Simulator {
    /// Queues playback of `clip` from `offset` under a fresh request id,
    /// precomputing the admission probe's layout lookups (see
    /// [`PendingPlay`]).
    pub(super) fn enqueue(&mut self, clip: ClipId, offset: u64) -> RequestId {
        let placement = self.catalog.placement(clip);
        let offset = offset.min(placement.len);
        let play = if placement.len == offset {
            PendingPlay { clip, offset, start_disk: DiskId(0), row: 0 }
        } else {
            let start = StreamAddr::new(placement.stream, placement.start_index + offset);
            PendingPlay {
                clip,
                offset,
                start_disk: self.layout.locate(start).disk,
                row: self.layout.row_of(start).unwrap_or(0),
            }
        };
        let id = RequestId(self.next_request);
        self.next_request += 1;
        self.pending.push(id, Round(self.t), play);
        id
    }

    /// [`Self::enqueue`]s a new request: counted and traced as an
    /// arrival.
    pub(super) fn enqueue_arrival(&mut self, clip: ClipId, offset: u64) -> RequestId {
        let id = self.enqueue(clip, offset);
        self.metrics.arrivals += 1;
        emit(&mut self.tracer, self.t, EventKind::Arrival { request: id.raw(), clip: clip.raw() });
        id
    }

    pub(super) fn generate_arrivals(&mut self) {
        for _ in 0..self.arrivals.next_round() {
            let clip = self.choice.next_clip();
            self.enqueue_arrival(clip, 0);
        }
    }

    /// The maximum active-stream count while `down` disks are down, when
    /// enforcement is on and `down > 0`: the scheme's fault-free capacity
    /// ([`nominal_capacity`](cms_admission::Admission::nominal_capacity))
    /// scaled by the surviving-disk fraction — the lost disk's share of
    /// the array is withheld so survivors keep contingency headroom for
    /// its recovery reads — and zero for NonClustered (no redundancy to
    /// serve through an outage) or more concurrent outages than the
    /// code's `m` redundancy shards are designed to tolerate.
    pub(super) fn degraded_cap(&self, down: u64) -> Option<u64> {
        if !self.cfg.degraded_admission || down == 0 {
            return None;
        }
        if self.cfg.scheme == Scheme::NonClustered || down > u64::from(self.cfg.m) {
            return Some(0);
        }
        let healthy = u64::from(self.cfg.d).saturating_sub(down);
        Some(self.admission.nominal_capacity() * healthy / u64::from(self.cfg.d))
    }

    /// Admission with bounded FIFO bypass (cf. ORS96): requests are
    /// considered in arrival order; a request whose resources are free is
    /// admitted even if earlier ones are blocked — *unless* the head has
    /// aged past [`SimConfig::aging_limit`](crate::SimConfig::aging_limit),
    /// in which case nothing may overtake it. Bypass keeps the disks busy;
    /// the aging guard keeps the policy starvation-free (a head's wait is
    /// bounded by the limit plus one clip duration). While degraded,
    /// nothing is admitted past `degraded_cap` active streams.
    pub(super) fn admit_from_head(&mut self, degraded_cap: Option<u64>) {
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
            if self.admission.try_admit(req).is_err() {
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
}
