//! Completed reconstructions and their byte-level check against the
//! synthetic ground truth.

use super::Simulator;
use crate::table::sv_remove;
use cms_core::RequestId;
use cms_layout::{GroupId, StreamAddr};
use cms_parity::{Block, ErasureCodec, RsCodec};
use cms_trace::{emit, EventKind};

/// Reusable buffers for the parity-verification path. All blocks keep
/// their capacity across verifications.
#[derive(Default)]
pub(super) struct VerifyScratch {
    /// One lazily built codec per `(k′, m)` group geometry seen so far:
    /// tail groups narrower than the configured span alternate with full
    /// groups without rebuilding a codec on every verification.
    pub(super) codecs: Vec<RsCodec>,
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
    pub(super) corrupt: bool,
    /// Verifications served from the held group.
    #[cfg(test)]
    pub(super) pooled: u64,
}

impl Simulator {
    /// The last pending survivor read for block `idx` of `(id, slot)`
    /// arrived (or was harmlessly stranded): the block decodes. Makes it
    /// available next round and, when byte-level verification is on,
    /// queues the lost block for the next [`Self::verify_due`] pass.
    pub(super) fn complete_reconstruction(&mut self, id: RequestId, slot: u32, idx: u64) {
        let s = slot as usize;
        sv_remove(&mut self.table.recon_pending[s], idx);
        self.table.avail[s].insert(idx, self.t + 1);
        self.metrics.reconstructions += 1;
        emit(&mut self.tracer, self.t, EventKind::Reconstruction { request: id.raw(), block: idx });
        if self.cfg.verify_parity {
            self.scratch.verify.due.push(self.table.addr(slot, idx));
        }
    }

    /// Verifies every reconstruction queued since the last pass. Runs
    /// before each public call that can complete one returns
    /// ([`Self::step_report`] after its disk-service merge,
    /// [`Self::fail_disk`]), so `parity_mismatches` is current whenever a
    /// caller can observe it. Sorting by group puts the lost shards of
    /// one parity group next to each other, so its shards are synthesized
    /// and encoded once however many of them were lost.
    pub(super) fn verify_due(&mut self) {
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
    /// already held, its data shards are synthesized in one group fill
    /// and its redundancy re-encoded into the pooled `k′ + m` shard
    /// slice; the lost shard is then decoded from the others and compared
    /// with its pooled original, which the decode does not read. Every
    /// buffer comes from `scratch` and is refilled in place, and codecs
    /// are cached per geometry, so this allocates nothing once the pools
    /// have grown (DESIGN.md §7).
    fn verify_reconstruction(&self, scratch: &mut VerifyScratch, lost: StreamAddr) -> bool {
        let gid = self.layout.group_id_of(lost);
        let group = self.layout.group(gid);
        let (k, m) = (group.data_len(), group.redundancy());
        let Some(lost_idx) = group.data().position(|a| a == lost) else {
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
            let ids = group.data().map(|a| (u64::from(a.stream), a.index));
            Block::fill_synthetic_group(&mut all[..k], ids, self.cfg.content_bytes);
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
}
