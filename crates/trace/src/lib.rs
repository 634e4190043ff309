//! Deterministic event tracing for the CM server.
//!
//! The paper's fault-tolerance story is temporal — what happens in the
//! rounds between a disk failure, the switch to recovery reads, and
//! rebuild completion — so this crate gives the round engine a
//! deterministic observability layer:
//!
//! * [`TraceEvent`] / [`EventKind`] — round-stamped records for every
//!   engine transition (arrivals through rebuild completion), each kind
//!   declared once with its tag and typed fields, with hand-rolled
//!   JSONL/CSV rendering and a range-checked JSONL parser whose
//!   [`TraceParseError`] names the cause.
//! * [`Histogram`] — the reusable log₂-bucket histogram that `Metrics`'
//!   wait histogram, per-disk busy time, queue depth, and recovery
//!   fan-out all share.
//! * [`TraceSink`] — where events go: [`NullSink`] (zero-overhead
//!   default), [`RingSink`] (bounded in-memory window),
//!   [`JsonlSink`]/[`CsvSink`] (file export), [`SharedBuffer`] (exact
//!   bytes for tests).
//! * [`Tracer`] / [`TraceSummary`] — the engine-facing emit point
//!   ([`emit`] for an optional tracer) and its roll-up, including the
//!   failure→first-recovery-read and failure→rebuild-complete round gaps.
//! * [`TraceSpec`] / [`TraceOutput`] — the declarative config knob
//!   carried by `SimConfig` and `CmServerBuilder`.
//!
//! Determinism contract: the engine emits per-disk service events from
//! per-disk round summaries merged in disk-ID order (the same discipline
//! as `disk_busy`), so a trace is byte-identical at any thread count. This
//! crate is correspondingly std-only and entropy-free, and is listed in
//! `cms-lint`'s deterministic-crate set.

#![forbid(unsafe_code)]

mod event;
mod hist;
mod sink;
mod spec;
mod tracer;

pub use event::{EventKind, TraceEvent, TraceParseError, CSV_COLUMNS};
pub use hist::Histogram;
pub use sink::{CsvSink, JsonlSink, NullSink, RingHandle, RingSink, SharedBuffer, TraceSink};
pub use spec::{TraceOutput, TraceSpec};
pub use tracer::{emit, TraceSummary, Tracer};
