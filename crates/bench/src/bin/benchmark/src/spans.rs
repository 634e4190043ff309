#![forbid(unsafe_code)]
//! Spans for the traced run: name, start, end, parent and workload,
//! recorded by the benchmark around its own calls into each layer's
//! public functions, kept in memory and written out at the end.
//!
//! Storage is reserved up front so recording never allocates inside a
//! timed call; that keeps the counting allocator's per-tick numbers
//! exact. Spans beyond the reservation are counted, not stored, and the
//! per-round totals ([`RoundTotals`]) keep counting them, so metrics
//! built from those totals all cover the same rounds.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use cms_sim::{EventKind, TraceEvent, TraceSink};

/// What a span measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanName {
    /// `CmServerBuilder::solve` (cms-model).
    Solve,
    /// `best_design` (cms-bibd).
    Design,
    /// `Pgt::new` (cms-bibd).
    Pgt,
    /// `Catalog::mixed` (cms-workload).
    Catalog,
    /// `declustered::build` / `clustered::build_with_redundancy`
    /// (cms-layout).
    Layout,
    /// `CmServer::from_parts` / `ClusterSim::new`.
    Setup,
    /// `CmServer::request`.
    Request,
    /// `CmServer::fail_disk`.
    FailDisk,
    /// `CmServer::tick_report`.
    Tick,
    /// `ClusterSim::step`.
    Step,
    /// `TraceSink::record`, through the timing wrapper sink.
    Record,
}

impl SpanName {
    /// The name written to `spans.jsonl`.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            SpanName::Solve => "model.solve",
            SpanName::Design => "bibd.best_design",
            SpanName::Pgt => "bibd.pgt_new",
            SpanName::Catalog => "workload.catalog",
            SpanName::Layout => "layout.build",
            SpanName::Setup => "setup",
            SpanName::Request => "server.request",
            SpanName::FailDisk => "server.fail_disk",
            SpanName::Tick => "server.tick_report",
            SpanName::Step => "cluster.step",
            SpanName::Record => "trace.record",
        }
    }
}

/// One recorded span. Times are nanoseconds since the log's origin.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What was measured.
    pub name: SpanName,
    /// Start, ns since origin.
    pub start: u64,
    /// End, ns since origin.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Allocations made between open and close (ticks only).
    pub allocs: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn ns(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Totals over every `tick_report` / `step` span closed, stored or not.
#[derive(Debug, Default, Clone, Copy)]
pub struct RoundTotals {
    /// Ticks (steps) closed.
    pub ticks: u64,
    /// Nanoseconds inside them.
    pub ns: u64,
    /// Nanoseconds of that spent in a wrapped `TraceSink::record`.
    pub record_ns: u64,
    /// Allocations made inside them.
    pub allocs: u64,
}

/// A span still open: what [`SpanLog::close`] needs to finish it.
#[derive(Debug)]
struct Open {
    /// Index in the store, or [`DROPPED`].
    token: usize,
    name: SpanName,
    start: u64,
    allocs: u64,
    record_ns: u64,
}

/// The token of a span the store had no room for.
const DROPPED: usize = usize::MAX;

/// In-memory span log of one workload.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    /// How many spans [`SpanLog::open`] may store; the rest of the
    /// reservation is kept for [`SpanLog::adopt_records`].
    call_limit: usize,
    spans: Vec<Span>,
    stack: Vec<Open>,
    /// Nanoseconds spent in `record` so far, added to by every
    /// [`TimingSink`] made from [`SpanLog::record_clock`].
    record_clock: Arc<AtomicU64>,
    /// Spans not stored because the reservation was full.
    pub dropped: u64,
    /// Totals over every tick and step, including dropped ones.
    pub rounds: RoundTotals,
}

impl SpanLog {
    /// A log with room for `calls` spans opened around calls plus
    /// `records` adopted record spans.
    #[must_use]
    pub fn with_capacity(origin: Instant, calls: usize, records: usize) -> SpanLog {
        SpanLog {
            origin,
            call_limit: calls,
            spans: Vec::with_capacity(calls + records),
            stack: Vec::with_capacity(16),
            record_clock: Arc::default(),
            dropped: 0,
            rounds: RoundTotals::default(),
        }
    }

    /// The counter a [`TimingSink`] adds its `record` time to, so each
    /// tick can subtract the record time spent inside it.
    #[must_use]
    pub fn record_clock(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.record_clock)
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; returns the token [`SpanLog::close`] takes.
    pub fn open(&mut self, name: SpanName) -> usize {
        // Once the store is full every later span is dropped too, so a
        // stored span never has a dropped parent.
        let parent = self.stack.last().map(|o| o.token as u32);
        let token = if self.spans.len() < self.call_limit {
            self.spans.push(Span {
                name,
                start: 0,
                end: 0,
                parent,
                allocs: 0,
            });
            self.spans.len() - 1
        } else {
            self.dropped += 1;
            DROPPED
        };
        let allocs = bench_alloc::allocations();
        let record_ns = self.record_clock.load(Ordering::Relaxed);
        let start = self.now();
        if let Some(s) = self.spans.get_mut(token) {
            s.start = start;
        }
        self.stack.push(Open {
            token,
            name,
            start,
            allocs,
            record_ns,
        });
        token
    }

    /// Closes the innermost open span (`token` is the one its
    /// [`SpanLog::open`] returned).
    pub fn close(&mut self, token: usize) {
        let end = self.now();
        let allocs = bench_alloc::allocations();
        let Some(open) = self.stack.pop() else {
            return;
        };
        debug_assert_eq!(open.token, token, "spans close innermost first");
        let span_allocs = allocs - open.allocs;
        if matches!(open.name, SpanName::Tick | SpanName::Step) {
            let r = &mut self.rounds;
            r.ticks += 1;
            r.ns += end.saturating_sub(open.start);
            r.record_ns += self.record_clock.load(Ordering::Relaxed) - open.record_ns;
            r.allocs += span_allocs;
        }
        if let Some(s) = self.spans.get_mut(open.token) {
            s.end = end;
            s.allocs = span_allocs;
        }
    }

    /// Times `f` as one span.
    pub fn time<T>(&mut self, name: SpanName, f: impl FnOnce() -> T) -> T {
        let t = self.open(name);
        let out = f();
        self.close(t);
        out
    }

    /// The stored spans.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Stored spans named `name`.
    pub fn named(&self, name: SpanName) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Adopts the wrapper sink's record spans, parenting each to the tick
    /// or step span that contains it (ticks are sequential, so a binary
    /// search over their start times finds it).
    pub fn adopt_records(&mut self, records: &[(u64, u64)]) {
        let parents: Vec<(u64, u64, usize)> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s.name, SpanName::Tick | SpanName::Step))
            .map(|(i, s)| (s.start, s.end, i))
            .collect();
        for &(start, end) in records {
            if self.spans.len() == self.spans.capacity() {
                self.dropped += 1;
                continue;
            }
            let at = parents.partition_point(|p| p.0 <= start);
            let parent = at
                .checked_sub(1)
                .map(|i| parents[i])
                .filter(|p| end <= p.1)
                .map(|p| p.2 as u32);
            self.spans.push(Span {
                name: SpanName::Record,
                start,
                end,
                parent,
                allocs: 0,
            });
        }
    }

    /// Appends this log as JSON lines (ids are global across workloads:
    /// `base` is the number of spans already written).
    pub fn write_jsonl(&self, workload: &str, base: usize, out: &mut String) {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or("null".to_string(), |p| (base + p as usize).to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"workload\":\"{}\"}}",
                base + i,
                s.name.as_str(),
                s.start,
                s.end,
                parent,
                workload
            );
        }
    }
}

/// What the timing wrapper sink saw.
#[derive(Debug, Default)]
pub struct RecordStats {
    /// Events recorded.
    pub events: u64,
    /// Total nanoseconds spent in the inner sink's `record`.
    pub record_ns: u64,
    /// Record spans `(start, end)`, ns since the log origin, up to the
    /// reservation.
    pub spans: Vec<(u64, u64)>,
    /// `DiskServe` queue depth before the drain, one count per value.
    pub queue_hist: Vec<u64>,
    /// `DiskServe` busy time, µs, one count per value (clamped).
    pub busy_hist: Vec<u64>,
}

/// Largest histogram value kept exactly; larger values land in the last
/// bucket.
const HIST_MAX: usize = 1 << 16;

fn bump(hist: &mut [u64], v: u64) {
    let i = usize::try_from(v).unwrap_or(HIST_MAX - 1).min(HIST_MAX - 1);
    hist[i] += 1;
}

/// Wraps a sink, timing each `record` and histogramming the engine's
/// per-disk service events.
pub struct TimingSink {
    inner: Box<dyn TraceSink + Send>,
    origin: Instant,
    clock: Arc<AtomicU64>,
    stats: Arc<Mutex<RecordStats>>,
}

impl TimingSink {
    /// Wraps `inner`, timing against `log`'s origin and adding each
    /// record's time to its record clock; the returned handle reads the
    /// statistics back.
    #[must_use]
    pub fn new(
        inner: Box<dyn TraceSink + Send>,
        log: &SpanLog,
        span_capacity: usize,
    ) -> (TimingSink, Arc<Mutex<RecordStats>>) {
        let stats = Arc::new(Mutex::new(RecordStats {
            spans: Vec::with_capacity(span_capacity),
            queue_hist: vec![0; HIST_MAX],
            busy_hist: vec![0; HIST_MAX],
            ..RecordStats::default()
        }));
        (
            TimingSink {
                inner,
                origin: log.origin,
                clock: log.record_clock(),
                stats: Arc::clone(&stats),
            },
            stats,
        )
    }
}

impl TraceSink for TimingSink {
    fn record(&mut self, event: &TraceEvent) {
        let start = self.origin.elapsed();
        self.inner.record(event);
        let end = self.origin.elapsed();
        let Ok(mut st) = self.stats.lock() else {
            return;
        };
        let (start, end) = (start.as_nanos() as u64, end.as_nanos() as u64);
        self.clock.fetch_add(end - start, Ordering::Relaxed);
        st.events += 1;
        st.record_ns += end - start;
        if st.spans.len() < st.spans.capacity() {
            st.spans.push((start, end));
        }
        if let EventKind::DiskServe { busy_us, queue, .. } = event.kind {
            bump(&mut st.queue_hist, u64::from(queue));
            bump(&mut st.busy_hist, busy_us);
        }
    }

    fn flush(&mut self) {
        self.inner.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_totals_count_ticks_the_store_dropped() {
        let mut log = SpanLog::with_capacity(Instant::now(), 2, 0);
        let clock = log.record_clock();
        for _ in 0..5 {
            let t = log.open(SpanName::Tick);
            clock.fetch_add(100, Ordering::Relaxed);
            log.close(t);
            // Record time outside any tick (a request's events) is not
            // charged to the ticks.
            let r = log.open(SpanName::Request);
            clock.fetch_add(1_000, Ordering::Relaxed);
            log.close(r);
        }
        assert_eq!((log.spans().len(), log.dropped), (2, 8));
        assert_eq!(log.rounds.ticks, 5);
        assert_eq!(log.rounds.record_ns, 500);
        let stored: u64 = log.named(SpanName::Tick).map(Span::ns).sum();
        assert!(log.rounds.ns >= stored);
    }
}
