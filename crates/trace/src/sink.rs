//! Trace sinks: where emitted events go.
//!
//! The engine talks to a single `Box<dyn TraceSink>`; what sits behind it
//! decides the cost. [`NullSink`] is the zero-overhead default (a
//! monomorphic no-op call per event), [`RingSink`] keeps a bounded
//! in-memory window for tests and interactive inspection, and
//! [`JsonlSink`] / [`CsvSink`] stream to any `io::Write` — a file, or a
//! [`SharedBuffer`] when a test wants the exact bytes back.
//!
//! Sinks never panic on I/O trouble: write errors are counted and
//! swallowed so a full disk degrades the trace, not the run.

// lint: allow-file(D005) the ring/shared-buffer mutexes only guard
// observer-side reads of trace output; the engine records events from the
// single-threaded phase-two merge, so lock order never shapes the trace.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

use crate::event::TraceEvent;

/// A destination for trace events.
pub trait TraceSink {
    /// Accepts one event. Must be cheap when the sink discards it.
    fn record(&mut self, event: &TraceEvent);

    /// Flushes buffered output (windowed sinks write their window here).
    fn flush(&mut self) {}
}

/// Discards every event. The default sink: tracing disabled costs one
/// dynamic no-op call per event.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&mut self, _event: &TraceEvent) {}
}

/// Keeps events from the most recent N rounds in a shared in-memory
/// ring. Reads go through the [`RingHandle`] returned by
/// [`RingSink::handle`], so a test can install the sink on a simulator
/// and inspect the window afterwards.
#[derive(Debug)]
pub struct RingSink {
    last_rounds: u64,
    buf: Arc<Mutex<VecDeque<TraceEvent>>>,
}

/// A clonable read handle onto a [`RingSink`]'s window.
#[derive(Debug, Clone)]
pub struct RingHandle {
    buf: Arc<Mutex<VecDeque<TraceEvent>>>,
}

impl RingSink {
    /// A ring keeping events whose round is within `last_rounds` of the
    /// newest event seen (`last_rounds` of 0 keeps only the current
    /// round).
    #[must_use]
    pub fn new(last_rounds: u64) -> Self {
        RingSink { last_rounds, buf: Arc::new(Mutex::new(VecDeque::new())) }
    }

    /// A read handle that stays valid after the sink moves into the
    /// engine.
    #[must_use]
    pub fn handle(&self) -> RingHandle {
        RingHandle { buf: Arc::clone(&self.buf) }
    }
}

impl TraceSink for RingSink {
    fn record(&mut self, event: &TraceEvent) {
        if let Ok(mut buf) = self.buf.lock() {
            let horizon = event.round.saturating_sub(self.last_rounds);
            while buf.front().is_some_and(|e| e.round < horizon) {
                buf.pop_front();
            }
            buf.push_back(*event);
        }
    }
}

impl RingHandle {
    /// The current window, oldest first.
    #[must_use]
    pub fn events(&self) -> Vec<TraceEvent> {
        self.buf.lock().map(|buf| buf.iter().copied().collect()).unwrap_or_default()
    }
}

/// How a windowed text sink holds lines until flush.
#[derive(Debug)]
enum LineBuffer {
    /// Stream every line immediately.
    All,
    /// Hold lines, dropping those that fall out of the last-N-rounds
    /// window; written at flush.
    Window { last_rounds: u64, lines: VecDeque<(u64, String)> },
}

/// Shared line-oriented writer core for [`JsonlSink`] and [`CsvSink`].
#[derive(Debug)]
struct TextSink<W: Write> {
    out: W,
    buffer: LineBuffer,
    /// Reused render buffer for streaming mode: in steady state,
    /// recording an event costs zero allocations (DESIGN.md §7). The
    /// windowed mode still owns one `String` per retained line — it
    /// buffers by construction.
    line: String,
    io_errors: u64,
}

impl<W: Write> TextSink<W> {
    fn new(out: W, last_rounds: Option<u64>) -> Self {
        let buffer = match last_rounds {
            None => LineBuffer::All,
            Some(last_rounds) => LineBuffer::Window { last_rounds, lines: VecDeque::new() },
        };
        TextSink { out, buffer, line: String::new(), io_errors: 0 }
    }

    fn write_line(&mut self, line: &str) {
        if self.out.write_all(line.as_bytes()).is_err() {
            self.io_errors += 1;
        }
    }

    /// Records one line rendered by `fill` (which must append exactly one
    /// newline-terminated line). Streaming mode renders into the reused
    /// buffer and writes immediately; windowed mode renders into a fresh
    /// `String` it retains until flush.
    fn record_with(&mut self, round: u64, fill: impl FnOnce(&mut String)) {
        match &mut self.buffer {
            LineBuffer::All => {
                let mut line = std::mem::take(&mut self.line);
                line.clear();
                fill(&mut line);
                self.write_line(&line);
                self.line = line;
            }
            LineBuffer::Window { last_rounds, lines } => {
                let horizon = round.saturating_sub(*last_rounds);
                while lines.front().is_some_and(|(r, _)| *r < horizon) {
                    lines.pop_front();
                }
                let mut line = String::new();
                fill(&mut line);
                lines.push_back((round, line));
            }
        }
    }

    fn flush(&mut self) {
        if let LineBuffer::Window { lines, .. } = &mut self.buffer {
            let drained: Vec<String> = lines.drain(..).map(|(_, line)| line).collect();
            for line in drained {
                self.write_line(&line);
            }
        }
        if self.out.flush().is_err() {
            self.io_errors += 1;
        }
    }
}

/// Streams events as JSON Lines (one flat object per line).
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    inner: TextSink<W>,
}

impl<W: Write> JsonlSink<W> {
    /// A sink writing every event to `out`.
    pub fn new(out: W) -> Self {
        JsonlSink { inner: TextSink::new(out, None) }
    }

    /// A sink that keeps only events from the most recent `last_rounds`
    /// rounds, written when flushed.
    pub fn windowed(out: W, last_rounds: u64) -> Self {
        JsonlSink { inner: TextSink::new(out, Some(last_rounds)) }
    }

    /// Write errors swallowed so far (0 on a healthy run).
    #[must_use]
    pub fn io_errors(&self) -> u64 {
        self.inner.io_errors
    }
}

impl JsonlSink<BufWriter<File>> {
    /// Opens (creates/truncates) `path` for JSONL output, creating parent
    /// directories as needed.
    ///
    /// # Errors
    /// Propagates filesystem errors from directory or file creation.
    pub fn create(path: &Path) -> io::Result<Self> {
        Ok(JsonlSink::new(create_file(path)?))
    }
}

impl<W: Write> TraceSink for JsonlSink<W> {
    fn record(&mut self, event: &TraceEvent) {
        self.inner.record_with(event.round, |line| event.write_jsonl(line));
    }

    fn flush(&mut self) {
        self.inner.flush();
    }
}

impl<W: Write> Drop for JsonlSink<W> {
    fn drop(&mut self) {
        self.inner.flush();
    }
}

/// Streams events as CSV with the fixed sparse column set
/// [`crate::event::CSV_COLUMNS`]; the header is written before the first
/// event.
#[derive(Debug)]
pub struct CsvSink<W: Write> {
    inner: TextSink<W>,
    header_written: bool,
}

impl<W: Write> CsvSink<W> {
    /// A sink writing every event to `out`.
    pub fn new(out: W) -> Self {
        CsvSink { inner: TextSink::new(out, None), header_written: false }
    }

    /// A sink that keeps only events from the most recent `last_rounds`
    /// rounds, written when flushed.
    pub fn windowed(out: W, last_rounds: u64) -> Self {
        CsvSink { inner: TextSink::new(out, Some(last_rounds)), header_written: false }
    }
}

impl CsvSink<BufWriter<File>> {
    /// Opens (creates/truncates) `path` for CSV output, creating parent
    /// directories as needed.
    ///
    /// # Errors
    /// Propagates filesystem errors from directory or file creation.
    pub fn create(path: &Path) -> io::Result<Self> {
        Ok(CsvSink::new(create_file(path)?))
    }
}

impl<W: Write> TraceSink for CsvSink<W> {
    fn record(&mut self, event: &TraceEvent) {
        if !self.header_written {
            self.header_written = true;
            self.inner.write_line(&TraceEvent::csv_header());
        }
        self.inner.record_with(event.round, |line| event.write_csv(line));
    }

    fn flush(&mut self) {
        self.inner.flush();
    }
}

impl<W: Write> Drop for CsvSink<W> {
    fn drop(&mut self) {
        self.inner.flush();
    }
}

/// Opens (creates/truncates) `path` for writing, creating parent
/// directories as needed.
pub(crate) fn create_file(path: &Path) -> io::Result<BufWriter<File>> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    Ok(BufWriter::new(File::create(path)?))
}

/// An in-memory byte buffer that is `Clone + io::Write`, for tests that
/// need the exact bytes a sink produced (the cross-thread byte-identity
/// suite hands one of these to each simulator).
#[derive(Debug, Clone, Default)]
pub struct SharedBuffer {
    bytes: Arc<Mutex<Vec<u8>>>,
}

impl SharedBuffer {
    /// An empty buffer.
    #[must_use]
    pub fn new() -> Self {
        SharedBuffer::default()
    }

    /// Everything written so far.
    #[must_use]
    pub fn contents(&self) -> Vec<u8> {
        self.bytes.lock().map(|b| b.clone()).unwrap_or_default()
    }
}

impl Write for SharedBuffer {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if let Ok(mut bytes) = self.bytes.lock() {
            bytes.extend_from_slice(buf);
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn ev(round: u64, request: u64) -> TraceEvent {
        TraceEvent { round, kind: EventKind::Completion { request } }
    }

    #[test]
    fn ring_sink_keeps_only_recent_rounds() {
        let mut sink = RingSink::new(2);
        let handle = sink.handle();
        for round in 0..10 {
            sink.record(&ev(round, round));
        }
        let window = handle.events();
        assert_eq!(window.len(), 3, "rounds 7, 8, 9");
        assert!(window.iter().all(|e| e.round >= 7));
    }

    #[test]
    fn jsonl_sink_streams_lines() {
        let buf = SharedBuffer::new();
        let mut sink = JsonlSink::new(buf.clone());
        sink.record(&ev(1, 42));
        sink.flush();
        let text = String::from_utf8(buf.contents()).expect("utf8");
        assert_eq!(text, "{\"round\":1,\"event\":\"completion\",\"request\":42}\n");
        assert_eq!(sink.io_errors(), 0);
    }

    #[test]
    fn windowed_jsonl_drops_old_rounds_at_flush() {
        let buf = SharedBuffer::new();
        let mut sink = JsonlSink::windowed(buf.clone(), 1);
        for round in 0..5 {
            sink.record(&ev(round, round));
        }
        sink.flush();
        let text = String::from_utf8(buf.contents()).expect("utf8");
        let rounds: Vec<&str> = text.lines().collect();
        assert_eq!(rounds.len(), 2, "rounds 3 and 4 survive: {text}");
        assert!(text.contains("\"round\":3") && text.contains("\"round\":4"));
    }

    #[test]
    fn csv_sink_writes_header_once() {
        let buf = SharedBuffer::new();
        let mut sink = CsvSink::new(buf.clone());
        sink.record(&ev(1, 7));
        sink.record(&ev(2, 8));
        sink.flush();
        let text = String::from_utf8(buf.contents()).expect("utf8");
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some(TraceEvent::csv_header().trim_end()));
        assert_eq!(text.lines().count(), 3);
    }

    #[test]
    fn drop_flushes_windowed_sink() {
        let buf = SharedBuffer::new();
        {
            let mut sink = JsonlSink::windowed(buf.clone(), 100);
            sink.record(&ev(1, 1));
        }
        assert!(!buf.contents().is_empty(), "Drop must flush the window");
    }
}
