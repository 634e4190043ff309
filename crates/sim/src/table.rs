//! Struct-of-arrays stream table — the engine's hot client store
//! (DESIGN.md §7).
//!
//! The per-round pipeline touches every active stream several times a
//! round (issue, deliver, consume). A `BTreeMap<RequestId, Client>`
//! pays a pointer-chasing tree walk per touch; at thousands of streams
//! that dominates the round. The table instead keeps one contiguous
//! column per field, indexed by a dense **slot** id, so the round loops
//! are linear scans and every per-stream access is one bounds-checked
//! index.
//!
//! Identity and ordering are reconciled by three small side structures,
//! touched only at admission/completion rate (not per block):
//!
//! - `free` — slot free-list; completed slots are reused, columns never
//!   shrink, so steady-state rounds allocate nothing.
//! - `order` — `(RequestId, slot)` pairs sorted by id. Iterating it
//!   reproduces exactly the ascending-id iteration order of the old
//!   `BTreeMap`, which the determinism contract (trace byte equality)
//!   depends on. Removal does **not** edit `order`: the entry goes
//!   stale (its slot no longer carries its id) and is skipped by the
//!   [`StreamTable::live`] check, then swept out by
//!   [`StreamTable::maybe_compact`]. Request ids are never reused, so
//!   staleness needs no generation counters.
//! - `staged` — admissions made during a round's admission scan, in
//!   ascending-id order. [`StreamTable::flush_staged`] merges them into
//!   `order` in one pass (bulk `O(n + k)` instead of `k` mid-vector
//!   inserts).
//!
//! The buffer map (`avail`) and reconstruction counters
//! (`recon_pending`) that were per-client `BTreeMap`s become small
//! sorted arrays whose capacity is retained across slot reuse. The buffer
//! map, touched for every delivered and consumed block, is a
//! [`BufferMap`] held inline in its column; the reconstruction counters,
//! touched only under failures, are sorted vectors driven by the `sv_*`
//! helpers.

use crate::engine::FetchPolicy;
use cms_core::RequestId;
use cms_layout::StreamAddr;
use cms_workload::ClipPlacement;

/// Sentinel stored in [`StreamTable::request`] for a free slot. Real
/// request ids count up from zero and never reach it.
pub(crate) const FREE: RequestId = RequestId(u64::MAX);

/// The dense stream store. Columns are indexed by slot; all slots with
/// `request[slot] != FREE` are live.
#[derive(Default)]
pub(crate) struct StreamTable {
    /// Owning request per slot (`FREE` when the slot is on the free
    /// list). The staleness oracle for `order` entries and in-flight
    /// fetches alike.
    pub(crate) request: Vec<RequestId>,
    /// Clip placement being played.
    pub(crate) placement: Vec<ClipPlacement>,
    /// Round the stream was admitted.
    pub(crate) admitted_at: Vec<u64>,
    /// For streaming RAID: first long-round fetch boundary.
    pub(crate) first_boundary: Vec<u64>,
    /// Blocks whose fetches have been issued (count, in order).
    pub(crate) issued: Vec<u64>,
    /// Consumption progress (blocks, in order; skipped blocks count).
    pub(crate) consumed: Vec<u64>,
    /// `(idx, round available)` buffer map per slot.
    pub(crate) avail: Vec<BufferMap>,
    /// Sorted `(idx, outstanding reads)` reconstruction counters.
    pub(crate) recon_pending: Vec<Vec<(u64, u32)>>,
    /// Reusable slots of completed/lost streams.
    free: Vec<u32>,
    /// Live iteration order: `(id, slot)` ascending by id, with lazy
    /// tombstones (entries whose slot no longer carries their id).
    pub(crate) order: Vec<(RequestId, u32)>,
    /// This round's admissions, ascending by id, awaiting the merge
    /// into `order`.
    staged: Vec<(RequestId, u32)>,
    /// Live stream count (`order` minus tombstones plus `staged`).
    live: usize,
    /// Tombstones currently in `order`.
    stale: usize,
}

impl StreamTable {
    /// Number of live streams.
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// Is `slot` still owned by `id`? `false` for out-of-range slots
    /// (e.g. the `u32::MAX` carried by rebuild fetches), freed slots,
    /// and slots reused by a later stream.
    #[inline]
    pub(crate) fn live(&self, id: RequestId, slot: u32) -> bool {
        self.request.get(slot as usize) == Some(&id)
    }

    /// Admits a stream: reuses a free slot or grows every column, and
    /// stages the `(id, slot)` pair for [`StreamTable::flush_staged`].
    /// Ids must arrive in ascending order within one staging window
    /// (the admission scan walks the id-sorted pending queue, so they
    /// do).
    pub(crate) fn admit(
        &mut self,
        id: RequestId,
        placement: ClipPlacement,
        admitted_at: u64,
        first_boundary: u64,
    ) -> u32 {
        debug_assert!(id != FREE, "sentinel id admitted");
        debug_assert!(
            self.staged.last().is_none_or(|&(prev, _)| prev < id),
            "staged admissions must arrive in ascending id order"
        );
        let slot = if let Some(slot) = self.free.pop() {
            let i = slot as usize;
            self.request[i] = id;
            self.placement[i] = placement;
            self.admitted_at[i] = admitted_at;
            self.first_boundary[i] = first_boundary;
            self.issued[i] = 0;
            self.consumed[i] = 0;
            self.avail[i].clear();
            self.recon_pending[i].clear();
            slot
        } else {
            let slot = self.request.len() as u32;
            self.request.push(id);
            self.placement.push(placement);
            self.admitted_at.push(admitted_at);
            self.first_boundary.push(first_boundary);
            self.issued.push(0);
            self.consumed.push(0);
            self.avail.push(BufferMap::default());
            self.recon_pending.push(Vec::new());
            slot
        };
        self.staged.push((id, slot));
        self.live += 1;
        slot
    }

    /// Merges this round's staged admissions into `order`, keeping it
    /// sorted by id. Bypass admission means a staged id may be *lower*
    /// than ids admitted in earlier rounds, so the general path is a
    /// true backward two-pointer merge (in-place, no scratch vector).
    // lint: hot
    pub(crate) fn flush_staged(&mut self) {
        if self.staged.is_empty() {
            return;
        }
        if self.order.last().is_none_or(|&(last, _)| last < self.staged[0].0) {
            // Common case: everything staged is newer than everything
            // ordered.
            self.order.extend_from_slice(&self.staged);
        } else {
            let old_len = self.order.len();
            self.order.extend_from_slice(&self.staged);
            // Backward merge: `i` walks the old run, `j` the staged run,
            // `k` the write cursor. `k` stays strictly ahead of `i`
            // while `j ≥ 0`, so the overwrites never clobber unread
            // entries.
            let mut i = old_len as isize - 1;
            let mut j = self.staged.len() as isize - 1;
            let mut k = self.order.len() as isize - 1;
            while j >= 0 {
                if i >= 0 && self.order[i as usize].0 > self.staged[j as usize].0 {
                    self.order[k as usize] = self.order[i as usize];
                    i -= 1;
                } else {
                    self.order[k as usize] = self.staged[j as usize];
                    j -= 1;
                }
                k -= 1;
            }
        }
        self.staged.clear();
        debug_assert!(
            self.order.windows(2).all(|w| w[0].0 < w[1].0),
            "order must stay strictly ascending by id"
        );
    }

    /// Releases a live stream's slot. `order`'s entry for `id` goes
    /// stale and is swept later by [`StreamTable::maybe_compact`].
    // lint: hot
    pub(crate) fn remove(&mut self, id: RequestId, slot: u32) {
        debug_assert!(self.live(id, slot), "removing a slot the id no longer owns");
        self.request[slot as usize] = FREE;
        self.free.push(slot);
        self.live -= 1;
        self.stale += 1;
    }

    /// Slot lookup by id for the cold external paths (pause, resume).
    /// Binary search over `order` — valid because `order` is sorted by
    /// id and ids are unique even across tombstones.
    // lint: hot
    pub(crate) fn slot_of(&self, id: RequestId) -> Option<u32> {
        debug_assert!(self.staged.is_empty(), "lookup during an admission scan");
        let at = self.order.binary_search_by_key(&id, |&(oid, _)| oid).ok()?;
        let slot = self.order[at].1;
        self.live(id, slot).then_some(slot)
    }

    /// Sweeps tombstones out of `order` once they outnumber live
    /// entries (amortized O(1) per removal; in-place, allocation-free,
    /// preserves the ascending-id order of survivors).
    // lint: hot
    pub(crate) fn maybe_compact(&mut self) {
        debug_assert!(self.staged.is_empty(), "compaction during an admission scan");
        if self.stale >= 32 && self.stale * 2 >= self.order.len() {
            let request = &self.request;
            self.order.retain(|&(id, slot)| request.get(slot as usize) == Some(&id));
            self.stale = 0;
        }
    }

    /// Drops every stream and all retained capacity (the evacuation
    /// cold path).
    pub(crate) fn clear(&mut self) {
        self.request.clear();
        self.placement.clear();
        self.admitted_at.clear();
        self.first_boundary.clear();
        self.issued.clear();
        self.consumed.clear();
        self.avail.clear();
        self.recon_pending.clear();
        self.free.clear();
        self.order.clear();
        self.staged.clear();
        self.live = 0;
        self.stale = 0;
    }

    /// The round at which clip-block `idx` of the stream in `slot` is
    /// due for transmission. `span` is the group span `k = p − m` (the
    /// lock-step long-round length).
    #[inline]
    // lint: hot
    pub(crate) fn consume_round(&self, slot: u32, idx: u64, policy: FetchPolicy, span: u64) -> u64 {
        match policy {
            FetchPolicy::LockStepGroup => self.first_boundary[slot as usize] + span + idx,
            FetchPolicy::PerBlock | FetchPolicy::StaggeredGroup => {
                self.admitted_at[slot as usize] + idx + 1
            }
        }
    }

    /// The stream address of clip-block `idx` of the stream in `slot`.
    #[inline]
    pub(crate) fn addr(&self, slot: u32, idx: u64) -> StreamAddr {
        let p = &self.placement[slot as usize];
        StreamAddr::new(p.stream, p.start_index + idx)
    }
}

/// Entries a [`BufferMap`] holds without touching the heap: the PerBlock
/// policy's double buffer.
const INLINE: usize = 2;

/// One stream's buffer map: `(block index, round available)` pairs,
/// ascending by index, with exactly `BTreeMap`'s semantics. Up to
/// [`INLINE`] entries live in the table column itself, so the per-block
/// touches of a round stay inside the stream's own 64 bytes. A map that
/// grows past that (group prefetch buffers up to `2k` blocks) moves every
/// entry to `spill`, and moves back inline once it shrinks to
/// [`INLINE`]; `spill` keeps its capacity across slot reuse.
#[derive(Debug, Clone, Default)]
pub(crate) struct BufferMap {
    /// The entries while `spill` is empty: `inline[..len]`.
    inline: [(u64, u64); INLINE],
    len: usize,
    /// All entries once there are more than [`INLINE`]; empty otherwise.
    spill: Vec<(u64, u64)>,
}

impl BufferMap {
    /// The entries, ascending by block index.
    #[inline]
    pub(crate) fn as_slice(&self) -> &[(u64, u64)] {
        if self.spill.is_empty() {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }

    /// Number of buffered blocks.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// `BTreeMap::get`.
    #[inline]
    // lint: hot
    pub(crate) fn get(&self, key: u64) -> Option<u64> {
        if self.spill.is_empty() {
            self.inline[..self.len].iter().find(|&&(k, _)| k == key).map(|&(_, v)| v)
        } else {
            sv_get(&self.spill, key)
        }
    }

    /// `BTreeMap::insert` (upsert).
    #[inline]
    pub(crate) fn insert(&mut self, key: u64, value: u64) {
        self.put(key, value, true);
    }

    /// `BTreeMap::entry(..).or_insert`: an existing entry is kept.
    #[inline]
    pub(crate) fn or_insert(&mut self, key: u64, value: u64) {
        self.put(key, value, false);
    }

    // lint: hot
    fn put(&mut self, key: u64, value: u64, replace: bool) {
        match self.as_slice().binary_search_by_key(&key, |&(k, _)| k) {
            Ok(at) if replace => {
                if self.spill.is_empty() {
                    self.inline[at].1 = value;
                } else {
                    self.spill[at].1 = value;
                }
            }
            Ok(_) => {}
            Err(at) if !self.spill.is_empty() => self.spill.insert(at, (key, value)),
            Err(at) if self.len < INLINE => {
                for i in (at..self.len).rev() {
                    self.inline[i + 1] = self.inline[i];
                }
                self.inline[at] = (key, value);
                self.len += 1;
            }
            Err(at) => {
                self.spill.extend_from_slice(&self.inline);
                self.spill.insert(at, (key, value));
            }
        }
    }

    /// `BTreeMap::remove`.
    // lint: hot
    pub(crate) fn remove(&mut self, key: u64) -> Option<u64> {
        let at = self.as_slice().binary_search_by_key(&key, |&(k, _)| k).ok()?;
        if self.spill.is_empty() {
            let value = self.inline[at].1;
            for i in at + 1..self.len {
                self.inline[i - 1] = self.inline[i];
            }
            self.len -= 1;
            return Some(value);
        }
        let value = self.spill.remove(at).1;
        if self.spill.len() <= INLINE {
            self.len = self.spill.len();
            self.inline[..self.len].copy_from_slice(&self.spill);
            self.spill.clear();
        }
        Some(value)
    }

    /// Drops every entry, keeping the spill capacity.
    pub(crate) fn clear(&mut self) {
        self.len = 0;
        self.spill.clear();
    }
}

/// `BTreeMap::get` over a sorted `(key, value)` vector.
#[inline]
// lint: hot
pub(crate) fn sv_get<V: Copy>(map: &[(u64, V)], key: u64) -> Option<V> {
    map.binary_search_by_key(&key, |&(k, _)| k).ok().map(|at| map[at].1)
}

/// `BTreeMap::get_mut` over a sorted `(key, value)` vector.
#[inline]
// lint: hot
pub(crate) fn sv_get_mut<V>(map: &mut [(u64, V)], key: u64) -> Option<&mut V> {
    let at = map.binary_search_by_key(&key, |&(k, _)| k).ok()?;
    Some(&mut map[at].1)
}

/// `BTreeMap::insert` (upsert) over a sorted `(key, value)` vector.
#[inline]
// lint: hot
pub(crate) fn sv_insert<V>(map: &mut Vec<(u64, V)>, key: u64, value: V) {
    match map.binary_search_by_key(&key, |&(k, _)| k) {
        Ok(at) => map[at].1 = value,
        Err(at) => map.insert(at, (key, value)),
    }
}

/// `BTreeMap::remove` over a sorted `(key, value)` vector.
#[inline]
// lint: hot
pub(crate) fn sv_remove<V>(map: &mut Vec<(u64, V)>, key: u64) -> Option<V> {
    let at = map.binary_search_by_key(&key, |&(k, _)| k).ok()?;
    Some(map.remove(at).1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cms_core::ClipId;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn placement(seed: u64) -> ClipPlacement {
        ClipPlacement { id: ClipId(seed % 11), stream: (seed % 5) as u32, start_index: seed, len: seed % 40 + 1 }
    }

    /// One scripted mutation against both the table and the reference
    /// `BTreeMap` model.
    #[derive(Debug, Clone)]
    enum Op {
        /// Admit `count` fresh streams in one staging window.
        Admit { count: u8 },
        /// Remove the `nth` live stream (mod live count).
        Remove { nth: u8 },
        /// Mutate the `nth` live stream's per-block maps.
        Touch { nth: u8, idx: u64 },
        /// Buffer `count` consecutive blocks from `from` for the `nth`
        /// live stream, as a group prefetch does: the map grows past its
        /// inline capacity.
        Fill { nth: u8, from: u64, count: u8 },
        /// Consume the `count` lowest buffered blocks of the `nth` live
        /// stream: the map shrinks back inline.
        Drain { nth: u8, count: u8 },
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (1u8..6).prop_map(|count| Op::Admit { count }),
            any::<u8>().prop_map(|nth| Op::Remove { nth }),
            (any::<u8>(), 0u64..50).prop_map(|(nth, idx)| Op::Touch { nth, idx }),
            (any::<u8>(), 0u64..60, 1u8..24)
                .prop_map(|(nth, from, count)| Op::Fill { nth, from, count }),
            (any::<u8>(), 1u8..24).prop_map(|(nth, count)| Op::Drain { nth, count }),
        ]
    }

    /// Per-stream reference state: placement, admission round, and the
    /// avail / recon-pending maps the per-slot sorted vectors replace.
    type ModelClient = (ClipPlacement, u64, BTreeMap<u64, u64>, BTreeMap<u64, u32>);

    /// The model the table must be observationally equal to: the old
    /// engine's `BTreeMap<RequestId, Client>` with the fields the round
    /// pipeline reads.
    #[derive(Debug, Default)]
    struct Model {
        clients: BTreeMap<RequestId, ModelClient>,
    }

    proptest! {
        /// Replays random admission/removal/touch scripts and checks
        /// that iteration order, membership, lookup and the per-slot
        /// sorted-vector maps all match the `BTreeMap` reference the
        /// engine used before the SoA refactor.
        #[test]
        fn table_matches_btreemap_model(ops in prop::collection::vec(op_strategy(), 1..80)) {
            let mut table = StreamTable::default();
            let mut model = Model::default();
            let mut next_id = 0u64;
            let mut round = 0u64;
            for op in ops {
                match op {
                    Op::Admit { count } => {
                        for _ in 0..count {
                            let id = RequestId(next_id);
                            next_id += 1;
                            let pl = placement(next_id);
                            table.admit(id, pl, round, round + 3);
                            model.clients.insert(id, (pl, round, BTreeMap::new(), BTreeMap::new()));
                        }
                        table.flush_staged();
                    }
                    Op::Remove { nth } => {
                        if model.clients.is_empty() {
                            continue;
                        }
                        let nth = nth as usize % model.clients.len();
                        let id = *model.clients.keys().nth(nth).unwrap();
                        model.clients.remove(&id);
                        let slot = table.slot_of(id).expect("model says live");
                        table.remove(id, slot);
                        table.maybe_compact();
                    }
                    Op::Touch { nth, idx } => {
                        if model.clients.is_empty() {
                            continue;
                        }
                        let nth = nth as usize % model.clients.len();
                        let id = *model.clients.keys().nth(nth).unwrap();
                        let (_, _, avail, recon) = model.clients.get_mut(&id).unwrap();
                        let slot = table.slot_of(id).expect("model says live") as usize;
                        // Exercise every map operation the engine uses.
                        table.avail[slot].or_insert(idx, round);
                        avail.entry(idx).or_insert(round);
                        table.avail[slot].insert(idx + 1, round);
                        avail.insert(idx + 1, round);
                        if idx % 3 == 0 {
                            prop_assert_eq!(table.avail[slot].remove(idx), avail.remove(&idx));
                        }
                        sv_insert(&mut table.recon_pending[slot], idx, 2u32);
                        recon.insert(idx, 2u32);
                        if let Some(n) = sv_get_mut(&mut table.recon_pending[slot], idx) {
                            *n -= 1;
                        }
                        if let Some(n) = recon.get_mut(&idx) {
                            *n -= 1;
                        }
                    }
                    Op::Fill { nth, from, count } => {
                        if model.clients.is_empty() {
                            continue;
                        }
                        let nth = nth as usize % model.clients.len();
                        let id = *model.clients.keys().nth(nth).unwrap();
                        let avail = &mut model.clients.get_mut(&id).unwrap().2;
                        let slot = table.slot_of(id).expect("model says live") as usize;
                        // Deliveries keep an existing entry; a completed
                        // reconstruction overwrites it.
                        for idx in from..from + u64::from(count) {
                            if idx % 2 == 0 {
                                table.avail[slot].or_insert(idx, round);
                                avail.entry(idx).or_insert(round);
                            } else {
                                table.avail[slot].insert(idx, round);
                                avail.insert(idx, round);
                            }
                        }
                    }
                    Op::Drain { nth, count } => {
                        if model.clients.is_empty() {
                            continue;
                        }
                        let nth = nth as usize % model.clients.len();
                        let id = *model.clients.keys().nth(nth).unwrap();
                        let avail = &mut model.clients.get_mut(&id).unwrap().2;
                        let slot = table.slot_of(id).expect("model says live") as usize;
                        for _ in 0..count {
                            let Some((&idx, _)) = avail.iter().next() else { break };
                            prop_assert_eq!(table.avail[slot].get(idx), avail.get(&idx).copied());
                            prop_assert_eq!(table.avail[slot].remove(idx), avail.remove(&idx));
                            prop_assert_eq!(table.avail[slot].remove(idx), None);
                        }
                    }
                }
                round += 1;
                // Observational equality after every op.
                prop_assert_eq!(table.len(), model.clients.len());
                let table_iter: Vec<RequestId> = table
                    .order
                    .iter()
                    .filter(|&&(id, slot)| table.live(id, slot))
                    .map(|&(id, _)| id)
                    .collect();
                let model_iter: Vec<RequestId> = model.clients.keys().copied().collect();
                prop_assert_eq!(&table_iter, &model_iter, "iteration order diverged");
                for (&id, (pl, at, avail, recon)) in &model.clients {
                    let slot = table.slot_of(id).expect("live in model") as usize;
                    prop_assert_eq!(table.placement[slot], *pl);
                    prop_assert_eq!(table.admitted_at[slot], *at);
                    let t_avail: Vec<(u64, u64)> =
                        avail.iter().map(|(&k, &v)| (k, v)).collect();
                    prop_assert_eq!(table.avail[slot].as_slice(), &t_avail[..], "avail diverged");
                    prop_assert_eq!(table.avail[slot].len(), avail.len());
                    let t_recon: Vec<(u64, u32)> =
                        recon.iter().map(|(&k, &v)| (k, v)).collect();
                    prop_assert_eq!(&table.recon_pending[slot], &t_recon);
                    for (&k, &v) in avail {
                        prop_assert_eq!(table.avail[slot].get(k), Some(v));
                    }
                }
                prop_assert_eq!(table.slot_of(RequestId(next_id)), None, "future id resolved");
            }
        }
    }

    #[test]
    fn bypass_admissions_merge_below_existing_ids() {
        // Ids 0..10 arrive; 5 and 7 are "bypassed" (admitted later than
        // 8 and 9) — the flush must re-sort them into place.
        let mut table = StreamTable::default();
        for id in [0u64, 1, 2, 8, 9] {
            table.admit(RequestId(id), placement(id), 0, 0);
        }
        table.flush_staged();
        for id in [5u64, 7] {
            table.admit(RequestId(id), placement(id), 1, 2);
        }
        table.flush_staged();
        let ids: Vec<u64> = table.order.iter().map(|&(id, _)| id.raw()).collect();
        assert_eq!(ids, vec![0, 1, 2, 5, 7, 8, 9]);
        assert_eq!(table.len(), 7);
    }

    #[test]
    fn buffer_map_spills_past_its_inline_capacity_and_moves_back() {
        let mut map = BufferMap::default();
        let mut model = BTreeMap::new();
        // A group prefetch of 2k = 12 blocks, delivered out of order.
        for idx in [5u64, 1, 9, 0, 11, 3, 7, 2, 10, 4, 8, 6] {
            map.or_insert(idx, 40 + idx);
            model.insert(idx, 40 + idx);
        }
        assert!(!map.spill.is_empty(), "twelve entries must spill");
        map.or_insert(4, 0);
        map.insert(3, 7);
        model.insert(3, 7);
        let want: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(map.as_slice(), &want[..]);
        let capacity = map.spill.capacity();
        for idx in 0..10u64 {
            assert_eq!(map.remove(idx), model.remove(&idx));
        }
        assert!(map.spill.is_empty(), "two entries fit inline again");
        assert_eq!(map.as_slice(), &[(10, 50), (11, 51)]);
        assert_eq!(map.spill.capacity(), capacity, "the spill keeps its capacity");
        map.clear();
        assert_eq!(map.len(), 0);
        assert_eq!(map.get(10), None);
    }

    #[test]
    fn slots_are_reused_and_stale_entries_skipped() {
        let mut table = StreamTable::default();
        for id in 0..4u64 {
            table.admit(RequestId(id), placement(id), 0, 0);
        }
        table.flush_staged();
        let slot1 = table.slot_of(RequestId(1)).unwrap();
        table.remove(RequestId(1), slot1);
        assert_eq!(table.len(), 3);
        assert_eq!(table.slot_of(RequestId(1)), None);
        // The freed slot is handed to the next admission; the stale
        // order entry for id 1 must not resolve to the newcomer.
        let slot4 = table.admit(RequestId(4), placement(4), 1, 1);
        table.flush_staged();
        assert_eq!(slot4, slot1);
        assert_eq!(table.slot_of(RequestId(1)), None);
        assert_eq!(table.slot_of(RequestId(4)), Some(slot4));
        assert!(!table.live(RequestId(1), slot1));
        assert!(table.live(RequestId(4), slot4));
    }
}
