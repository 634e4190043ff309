//! Consumption: each stream plays its due blocks from its buffer, and
//! finished streams complete.

use super::Simulator;
use cms_trace::{emit, EventKind};

impl Simulator {
    // lint: hot
    pub(super) fn consume_and_complete(&mut self) {
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
