//! Background rebuild of a failed disk onto a hot spare, fed from the
//! bandwidth client traffic leaves over.

use super::fetch::{pack_pending, strand, Strand};
use super::serve::{role, Fetch};
use super::Simulator;
use cms_core::{DiskId, RequestId};
use cms_layout::Slot;
use cms_trace::{emit, EventKind};
use std::collections::BTreeMap;

/// Background rebuild of a failed disk onto a hot spare: blocks of the
/// failed disk are reconstructed in order from their surviving group
/// members, using only bandwidth left over after client traffic
/// (rebuild reads sort last in each disk's EDF queue).
#[derive(Debug)]
pub(super) struct RebuildState {
    pub(super) disk: DiskId,
    /// Next failed-disk block number to schedule.
    next_block: u64,
    /// Total blocks to rebuild (the disk's used prefix).
    pub(super) total: u64,
    /// block_no → packed `(expected, pending)` source-read counter
    /// (see [`pack_pending`]) before the block is rebuilt.
    pub(super) outstanding: BTreeMap<u64, u32>,
    /// Blocks fully rebuilt so far.
    pub(super) rebuilt: u64,
}

impl Simulator {
    /// Feeds the background rebuild: keeps a bounded window of failed-disk
    /// blocks in flight, each rebuilt by reading its surviving group
    /// members at the lowest priority.
    pub(super) fn schedule_rebuild(&mut self) {
        // Held outside `self` while the window fills, so the reads can
        // be pushed as they are found.
        let Some(mut rb) = self.rebuild.take() else { return };
        let window = 2 * self.cfg.d as usize;
        let failed = rb.disk;
        let mut reads = std::mem::take(&mut self.scratch.reads);
        while rb.outstanding.len() < window && rb.next_block < rb.total {
            let block_no = rb.next_block;
            rb.next_block += 1;
            reads.clear();
            match self.layout.slot(failed, block_no) {
                Slot::Free => {}
                Slot::Data(addr) => {
                    self.layout.reconstruction_reads_into(addr, &mut reads);
                }
                Slot::Parity(gid) => {
                    let g = self.layout.group(gid);
                    reads.extend(g.data().map(|a| self.layout.locate(a)));
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
            reads.retain(|l| !self.is_down(l.disk));
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
            for &loc in &reads {
                debug_assert!(!self.is_down(loc.disk), "rebuild read routed to a down disk");
                self.metrics.rebuild_reads += 1;
                self.metrics.disk_rebuild_reads[loc.disk.idx()] += 1;
                // No stream, and the lowest EDF priority: slack only.
                let read = Fetch::new(RequestId(u64::MAX), u32::MAX, loc, u64::MAX);
                self.push_fetch(Fetch { rebuild_for: role(Some(block_no)), ..read });
            }
        }
        self.scratch.reads = reads;
        let (rebuilt, total) = (rb.rebuilt, rb.total);
        emit(&mut self.tracer, self.t, EventKind::RebuildProgress { rebuilt, total });
        self.rebuild = Some(rb);
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
    pub(super) fn start_next_rebuild(&mut self) {
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

    /// Drops a rebuild block whose in-flight source reads were stranded
    /// by a further outage — unless enough expected source reads remain
    /// to decode it (`m ≥ 2` spare redundancy). Unrecoverable holes are
    /// counted, never silently filled.
    pub(super) fn abandon_rebuild_block(&mut self, block_no: u64) {
        let Some((disk, v)) =
            self.rebuild.as_ref().and_then(|rb| Some((rb.disk, *rb.outstanding.get(&block_no)?)))
        else {
            return;
        };
        let k = match self.layout.slot(disk, block_no) {
            Slot::Free => 0,
            Slot::Data(addr) => self.decode_threshold(addr),
            Slot::Parity(gid) => self.layout.group(gid).data_len() as u32,
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
    pub(super) fn retire_rebuild_block(&mut self, block_no: u64, recovered: bool) {
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
}
