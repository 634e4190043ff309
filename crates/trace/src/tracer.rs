//! The tracer: one emit point the engine talks to, fanning each event
//! into the configured sink and a running [`TraceSummary`].

use crate::event::{EventKind, TraceEvent};
use crate::hist::Histogram;
use crate::sink::TraceSink;

/// Aggregates every event the tracer saw: per-kind counts, the
/// failure/recovery/rebuild milestone rounds, and the load-shape
/// histograms the paper's §5–§7 discussion cares about.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSummary {
    /// Every event recorded.
    pub events: u64,
    /// `Arrival` events.
    pub arrivals: u64,
    /// `Admission` events.
    pub admissions: u64,
    /// `Rejection` events (admission retries, not final denials).
    pub rejections: u64,
    /// `Completion` events.
    pub completions: u64,
    /// `RecoveryRead` events.
    pub recovery_reads: u64,
    /// `Reconstruction` events.
    pub reconstructions: u64,
    /// `Hiccup` events.
    pub hiccups: u64,
    /// `LateServe` events.
    pub late_serves: u64,
    /// `StreamLost` events (streams terminated by a second failure).
    pub lost_streams: u64,
    /// `DegradedRefusal` events (admissions refused while degraded).
    pub degraded_refusals: u64,
    /// `DiskTransient` events (transient outage windows opened).
    pub transient_outages: u64,
    /// `DiskSlow` events (slow windows opened).
    pub slow_windows: u64,
    /// Fetches dropped across all `ServiceError` events.
    pub service_errors: u64,
    /// Blocks retrieved across all `DiskServe` events.
    pub blocks_served: u64,
    /// Round of the first `DiskFailure`, if any.
    pub failure_round: Option<u64>,
    /// Round of the first `DiskRepair`, if any.
    pub repair_round: Option<u64>,
    /// Round of the first `RecoveryRead`, if any.
    pub first_recovery_read_round: Option<u64>,
    /// Round of the first `RebuildComplete`, if any.
    pub rebuild_completed_round: Option<u64>,
    /// Per-disk per-round busy time in microseconds (one sample per
    /// `DiskServe` event).
    pub busy_us: Histogram,
    /// Per-disk per-round queue depth before the EDF drain (one sample
    /// per `DiskServe` event).
    pub queue_depth: Histogram,
    /// Recovery-read fan-out: surviving disks touched per reconstructed
    /// block (recorded explicitly by the engine at issue time).
    pub recovery_fanout: Histogram,
    /// `NodeFailure` events (whole server nodes going dark).
    pub node_failures: u64,
    /// `NodeRepair` events (nodes returning, blank, to start rebuild).
    pub node_repairs: u64,
    /// `StreamMigrated` events (streams moved to surviving replicas).
    pub stream_migrations: u64,
    /// Blocks shipped across all `CrossNodeRebuildRead` events.
    pub cross_node_rebuild_blocks: u64,
    /// Round of the first `NodeFailure`, if any.
    pub node_failure_round: Option<u64>,
    /// Round of the first `NodeRebuildComplete`, if any.
    pub node_rebuild_completed_round: Option<u64>,
}

impl TraceSummary {
    /// Folds one event into the summary.
    pub fn observe(&mut self, event: &TraceEvent) {
        self.events += 1;
        let first = |slot: &mut Option<u64>, round: u64| {
            if slot.is_none() {
                *slot = Some(round);
            }
        };
        match event.kind {
            EventKind::Arrival { .. } => self.arrivals += 1,
            EventKind::Admission { .. } => self.admissions += 1,
            EventKind::Rejection { .. } => self.rejections += 1,
            EventKind::Completion { .. } => self.completions += 1,
            EventKind::DiskFailure { .. } => first(&mut self.failure_round, event.round),
            EventKind::DiskRepair { .. } => first(&mut self.repair_round, event.round),
            EventKind::RecoveryRead { .. } => {
                self.recovery_reads += 1;
                first(&mut self.first_recovery_read_round, event.round);
            }
            EventKind::Reconstruction { .. } => self.reconstructions += 1,
            EventKind::DiskServe { blocks, busy_us, queue, .. } => {
                self.blocks_served += u64::from(blocks);
                self.busy_us.record(busy_us);
                self.queue_depth.record(u64::from(queue));
            }
            EventKind::ServiceError { dropped, .. } => {
                self.service_errors += u64::from(dropped);
            }
            EventKind::RebuildProgress { .. } => {}
            EventKind::RebuildComplete { .. } => {
                first(&mut self.rebuild_completed_round, event.round);
            }
            EventKind::Hiccup { .. } => self.hiccups += 1,
            EventKind::LateServe { .. } => self.late_serves += 1,
            EventKind::StreamLost { .. } => self.lost_streams += 1,
            EventKind::DegradedRefusal { .. } => self.degraded_refusals += 1,
            EventKind::DiskTransient { .. } => self.transient_outages += 1,
            EventKind::DiskSlow { .. } => self.slow_windows += 1,
            EventKind::DiskTransientEnd { .. } | EventKind::DiskSlowEnd { .. } => {}
            EventKind::NodeFailure { .. } => {
                self.node_failures += 1;
                first(&mut self.node_failure_round, event.round);
            }
            EventKind::NodeRepair { .. } => self.node_repairs += 1,
            EventKind::StreamMigrated { .. } => self.stream_migrations += 1,
            EventKind::CrossNodeRebuildRead { blocks, .. } => {
                self.cross_node_rebuild_blocks += u64::from(blocks);
            }
            EventKind::NodeRebuildComplete { .. } => {
                first(&mut self.node_rebuild_completed_round, event.round);
            }
        }
    }

    /// Rounds from the first node failure to the first cross-node
    /// rebuild completion — the cluster-tier analogue of
    /// [`TraceSummary::failure_to_rebuild_complete`]. `None` until both
    /// milestones exist.
    #[must_use]
    pub fn node_failure_to_rebuild_complete(&self) -> Option<u64> {
        let fail = self.node_failure_round?;
        Some(self.node_rebuild_completed_round?.saturating_sub(fail))
    }

    /// Rounds from the first disk failure to the first recovery read —
    /// how quickly the array switched to degraded-mode service. `None`
    /// until both milestones exist.
    #[must_use]
    pub fn failure_to_first_recovery(&self) -> Option<u64> {
        let fail = self.failure_round?;
        Some(self.first_recovery_read_round?.saturating_sub(fail))
    }

    /// Rounds from the first disk failure to rebuild completion — the
    /// window of reduced redundancy the paper's reliability analysis
    /// integrates over. `None` until both milestones exist.
    #[must_use]
    pub fn failure_to_rebuild_complete(&self) -> Option<u64> {
        let fail = self.failure_round?;
        Some(self.rebuild_completed_round?.saturating_sub(fail))
    }
}

/// Records one event on `tracer` if tracing is enabled. A free function
/// (not a method) so call sites holding disjoint `&mut` borrows of other
/// fields of the engine or gateway can still emit.
#[inline]
pub fn emit(tracer: &mut Option<Tracer>, round: u64, kind: EventKind) {
    if let Some(tr) = tracer.as_mut() {
        tr.emit(round, kind);
    }
}

/// The engine-facing trace front end: stamps events with rounds, feeds
/// the summary, and forwards to the sink.
pub struct Tracer {
    sink: Box<dyn TraceSink + Send>,
    summary: TraceSummary,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer").field("summary", &self.summary).finish_non_exhaustive()
    }
}

impl Tracer {
    /// A tracer feeding `sink`.
    #[must_use]
    pub fn new(sink: Box<dyn TraceSink + Send>) -> Self {
        Tracer { sink, summary: TraceSummary::default() }
    }

    /// Records one event.
    pub fn emit(&mut self, round: u64, kind: EventKind) {
        let event = TraceEvent { round, kind };
        self.summary.observe(&event);
        self.sink.record(&event);
    }

    /// Records the recovery fan-out for one reconstructed block: how many
    /// surviving disks its group read touched.
    pub fn record_recovery_fanout(&mut self, survivors: u64) {
        self.summary.recovery_fanout.record(survivors);
    }

    /// The running summary.
    #[must_use]
    pub fn summary(&self) -> &TraceSummary {
        &self.summary
    }

    /// Flushes the sink (call at end of run).
    pub fn finish(&mut self) {
        self.sink.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::NullSink;

    #[test]
    fn summary_tracks_milestone_gaps() {
        let mut t = Tracer::new(Box::new(NullSink));
        assert_eq!(t.summary().failure_to_first_recovery(), None);
        t.emit(10, EventKind::DiskFailure { disk: 3 });
        t.emit(11, EventKind::RecoveryRead { request: 1, disk: 0, block: 5 });
        t.emit(12, EventKind::RecoveryRead { request: 1, disk: 1, block: 5 });
        t.emit(40, EventKind::RebuildComplete { disk: 3 });
        let s = t.summary();
        assert_eq!(s.failure_to_first_recovery(), Some(1));
        assert_eq!(s.failure_to_rebuild_complete(), Some(30));
        assert_eq!(s.recovery_reads, 2);
        assert_eq!(s.first_recovery_read_round, Some(11));
    }

    #[test]
    fn summary_accumulates_disk_serve_histograms() {
        let mut t = Tracer::new(Box::new(NullSink));
        t.emit(1, EventKind::DiskServe { disk: 0, blocks: 4, busy_us: 900, queue: 4 });
        t.emit(1, EventKind::DiskServe { disk: 1, blocks: 2, busy_us: 450, queue: 2 });
        t.record_recovery_fanout(3);
        let s = t.summary();
        assert_eq!(s.blocks_served, 6);
        assert_eq!(s.busy_us.total(), 2);
        assert_eq!(s.queue_depth.total(), 2);
        assert_eq!(s.recovery_fanout.total(), 1);
        assert_eq!(s.events, 2, "explicit fanout is not an event");
    }

    #[test]
    fn summary_rolls_up_node_events() {
        let mut t = Tracer::new(Box::new(NullSink));
        t.emit(10, EventKind::NodeFailure { node: 2 });
        t.emit(10, EventKind::StreamMigrated { request: 7, from: 2, to: 5 });
        t.emit(10, EventKind::StreamMigrated { request: 9, from: 2, to: 1 });
        t.emit(30, EventKind::NodeRepair { node: 2 });
        t.emit(31, EventKind::CrossNodeRebuildRead { node: 2, source: 5, blocks: 4 });
        t.emit(32, EventKind::CrossNodeRebuildRead { node: 2, source: 1, blocks: 2 });
        t.emit(33, EventKind::NodeRebuildComplete { node: 2 });
        let s = t.summary();
        assert_eq!(s.node_failures, 1);
        assert_eq!(s.node_repairs, 1);
        assert_eq!(s.stream_migrations, 2);
        assert_eq!(s.cross_node_rebuild_blocks, 6);
        assert_eq!(s.node_failure_round, Some(10));
        assert_eq!(s.node_failure_to_rebuild_complete(), Some(23));
    }

    #[test]
    fn service_errors_count_dropped_fetches() {
        let mut t = Tracer::new(Box::new(NullSink));
        t.emit(5, EventKind::ServiceError { disk: 2, dropped: 3 });
        assert_eq!(t.summary().service_errors, 3);
    }
}
