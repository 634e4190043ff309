//! Fault handling: the engine's records of failed, transiently down and
//! slowed disks — the only fault state (DESIGN.md §10) — and the
//! re-routing of reads queued on a disk that goes down.

use super::serve::{edf_key, index, Fetch};
use super::Simulator;
use cms_core::DiskId;
use cms_fault::FaultEvent;
use cms_trace::{emit, EventKind};
use std::collections::BTreeMap;

/// The lowest-numbered disk whose fault window in `until` has closed by
/// round `t`.
fn expired(until: &BTreeMap<DiskId, u64>, t: u64) -> Option<DiskId> {
    until.iter().find(|&(_, &end)| end <= t).map(|(&d, _)| d)
}

impl Simulator {
    /// Is `disk` unavailable for service (hard-failed or transiently
    /// down)?
    pub(super) fn is_down(&self, disk: DiskId) -> bool {
        self.failed.contains(&disk) || self.transient_until.contains_key(&disk)
    }

    pub(super) fn fail_now(&mut self, disk: DiskId) {
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
    pub(super) fn repair_now(&mut self, disk: DiskId) {
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

    /// Round-start fault processing on the coordinating thread (so the
    /// whole round observes a settled array): expire transient and slow
    /// windows, apply the legacy single-failure scenario, then drain
    /// every scheduled event due this round, in schedule order.
    pub(super) fn apply_faults(&mut self) {
        while let Some(disk) = expired(&self.transient_until, self.t) {
            self.transient_until.remove(&disk);
            if self.array.set_down(disk, false).is_ok() {
                emit(
                    &mut self.tracer,
                    self.t,
                    EventKind::DiskTransientEnd { disk: disk.raw() },
                );
            }
        }
        while let Some(disk) = expired(&self.slow_until, self.t) {
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
        while let Some(event) =
            self.cfg.faults.as_ref().and_then(|s| s.next_due(&mut self.fault_cursor, self.t))
        {
            self.apply_fault_event(event);
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
}
