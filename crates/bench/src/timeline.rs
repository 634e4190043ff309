//! ASCII timeline renderer for JSONL traces — the library behind the
//! `timeline` bin, factored out so the golden snapshot test can pin the
//! exact output.
//!
//! Each output line is one round (or a bucket of rounds for long
//! traces): a bar of blocks served, the arrival/admission/recovery
//! counts, and markers for the failure milestones. Cluster traces add a
//! **node lane** above each round's disk lane (`node>` rows carrying
//! `NFAIL`/`NREPAIR`/`NREBUILT` markers plus migration and cross-node
//! rebuild traffic), so a node-failure→migration→rebuild-complete
//! campaign reads top-down: what the node tier did, then what the disks
//! underneath it served.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use cms_sim::TraceSummary;
use cms_trace::{EventKind, TraceEvent, TraceParseError};

/// Everything the renderer needs about one round of the trace.
#[derive(Debug, Default, Clone)]
struct RoundAgg {
    arrivals: u64,
    admissions: u64,
    rejections: u64,
    completions: u64,
    blocks: u64,
    recovery_reads: u64,
    hiccups: u64,
    late_serves: u64,
    service_errors: u64,
    lost_streams: u64,
    degraded_refusals: u64,
    rebuild: Option<(u64, u64)>,
    failed: Vec<u64>,
    repaired: Vec<u64>,
    rebuilt: Vec<u64>,
    transient: Vec<u64>,
    slowed: Vec<u64>,
    // The node lane: whole-node lifecycle events (cluster traces).
    node_failed: Vec<u64>,
    node_repaired: Vec<u64>,
    node_rebuilt: Vec<u64>,
    migrations: u64,
    xnode_blocks: u64,
}

impl RoundAgg {
    fn absorb(&mut self, kind: &EventKind) {
        match *kind {
            EventKind::Arrival { .. } => self.arrivals += 1,
            EventKind::Admission { .. } => self.admissions += 1,
            EventKind::Rejection { .. } => self.rejections += 1,
            EventKind::Completion { .. } => self.completions += 1,
            EventKind::DiskServe { blocks, .. } => self.blocks += u64::from(blocks),
            EventKind::RecoveryRead { .. } => self.recovery_reads += 1,
            EventKind::Reconstruction { .. } => {}
            EventKind::Hiccup { .. } => self.hiccups += 1,
            EventKind::LateServe { .. } => self.late_serves += 1,
            EventKind::ServiceError { dropped, .. } => self.service_errors += u64::from(dropped),
            EventKind::RebuildProgress { rebuilt, total } => self.rebuild = Some((rebuilt, total)),
            EventKind::DiskFailure { disk } => self.failed.push(u64::from(disk)),
            EventKind::DiskRepair { disk } => self.repaired.push(u64::from(disk)),
            EventKind::RebuildComplete { disk } => self.rebuilt.push(u64::from(disk)),
            EventKind::DiskTransient { disk, .. } => self.transient.push(u64::from(disk)),
            EventKind::DiskSlow { disk, .. } => self.slowed.push(u64::from(disk)),
            EventKind::DiskTransientEnd { .. } | EventKind::DiskSlowEnd { .. } => {}
            EventKind::StreamLost { .. } => self.lost_streams += 1,
            EventKind::DegradedRefusal { .. } => self.degraded_refusals += 1,
            EventKind::NodeFailure { node } => self.node_failed.push(u64::from(node)),
            EventKind::NodeRepair { node } => self.node_repaired.push(u64::from(node)),
            EventKind::NodeRebuildComplete { node } => self.node_rebuilt.push(u64::from(node)),
            EventKind::StreamMigrated { .. } => self.migrations += 1,
            EventKind::CrossNodeRebuildRead { blocks, .. } => {
                self.xnode_blocks += u64::from(blocks);
            }
        }
    }

    fn merge(&mut self, other: &RoundAgg) {
        self.arrivals += other.arrivals;
        self.admissions += other.admissions;
        self.rejections += other.rejections;
        self.completions += other.completions;
        self.blocks += other.blocks;
        self.recovery_reads += other.recovery_reads;
        self.hiccups += other.hiccups;
        self.late_serves += other.late_serves;
        self.service_errors += other.service_errors;
        self.lost_streams += other.lost_streams;
        self.degraded_refusals += other.degraded_refusals;
        if other.rebuild.is_some() {
            self.rebuild = other.rebuild;
        }
        self.failed.extend_from_slice(&other.failed);
        self.repaired.extend_from_slice(&other.repaired);
        self.rebuilt.extend_from_slice(&other.rebuilt);
        self.transient.extend_from_slice(&other.transient);
        self.slowed.extend_from_slice(&other.slowed);
        self.node_failed.extend_from_slice(&other.node_failed);
        self.node_repaired.extend_from_slice(&other.node_repaired);
        self.node_rebuilt.extend_from_slice(&other.node_rebuilt);
        self.migrations += other.migrations;
        self.xnode_blocks += other.xnode_blocks;
    }

    /// The node lane: markers for whole-node lifecycle events, rendered
    /// on their own row above the disk lane. Empty when the bucket had
    /// no node-tier activity.
    fn node_lane(&self) -> String {
        let mut out = String::new();
        for n in &self.node_failed {
            let _ = write!(out, "  NFAIL(n{n})");
        }
        for n in &self.node_repaired {
            let _ = write!(out, "  NREPAIR(n{n})");
        }
        for n in &self.node_rebuilt {
            let _ = write!(out, "  NREBUILT(n{n})");
        }
        if self.migrations > 0 {
            let _ = write!(out, "  migrate={}", self.migrations);
        }
        if self.xnode_blocks > 0 {
            let _ = write!(out, "  xrebuild={}", self.xnode_blocks);
        }
        out
    }

    fn markers(&self) -> String {
        let mut out = String::new();
        for d in &self.failed {
            let _ = write!(out, "  FAIL(d{d})");
        }
        for d in &self.repaired {
            let _ = write!(out, "  REPAIR(d{d})");
        }
        for d in &self.rebuilt {
            let _ = write!(out, "  REBUILT(d{d})");
        }
        for d in &self.transient {
            let _ = write!(out, "  BLIP(d{d})");
        }
        for d in &self.slowed {
            let _ = write!(out, "  SLOW(d{d})");
        }
        if self.hiccups > 0 {
            let _ = write!(out, "  !hiccups={}", self.hiccups);
        }
        if self.service_errors > 0 {
            let _ = write!(out, "  !errors={}", self.service_errors);
        }
        if self.lost_streams > 0 {
            let _ = write!(out, "  !lost={}", self.lost_streams);
        }
        if self.degraded_refusals > 0 {
            let _ = write!(out, "  refused={}", self.degraded_refusals);
        }
        out
    }
}

fn render(
    out: &mut String,
    rounds: &BTreeMap<u64, RoundAgg>,
    summary: &TraceSummary,
    width: usize,
    max_lines: u64,
) {
    // Long traces are bucketed so the timeline stays readable.
    let (first, last) = match (rounds.keys().next(), rounds.keys().next_back()) {
        (Some(&a), Some(&b)) => (a, b),
        _ => return,
    };
    let span = last - first + 1;
    let bucket = span.div_ceil(max_lines).max(1);
    let mut buckets: BTreeMap<u64, RoundAgg> = BTreeMap::new();
    for (round, agg) in rounds {
        buckets.entry((round - first) / bucket).or_default().merge(agg);
    }
    // Gateway-level traces (the cluster tier) carry no per-disk serve
    // events; their bars show arrivals instead of blocks.
    let arrival_bars = buckets.values().all(|a| a.blocks == 0) && summary.arrivals > 0;
    let bar_value = |a: &RoundAgg| if arrival_bars { a.arrivals } else { a.blocks };
    let peak_blocks = buckets.values().map(bar_value).max().unwrap_or(0).max(1);
    if bucket > 1 {
        let _ = writeln!(out, "(bucketing {bucket} rounds per line)");
    }
    if arrival_bars {
        let _ = writeln!(out, "(no disk serves in trace; bars show gateway arrivals)");
    }
    let _ = writeln!(
        out,
        "{:>10} {:>7} {:>5} {:>5} {:>6}  activity",
        "round", "blocks", "adm", "rej", "recov"
    );
    for (b, agg) in &buckets {
        let lo = first + b * bucket;
        let label = if bucket == 1 {
            format!("{lo}")
        } else {
            format!("{lo}-{}", (lo + bucket - 1).min(last))
        };
        // The node lane renders above the disk lane: whole-node events
        // first, then the array activity beneath them.
        let node_lane = agg.node_lane();
        if !node_lane.is_empty() {
            let _ = writeln!(out, "{label:>10} node>{node_lane}");
        }
        let filled = (bar_value(agg) * width as u64 / peak_blocks) as usize;
        let rec = if agg.blocks > 0 {
            (agg.recovery_reads * width as u64 / peak_blocks) as usize
        } else {
            0
        };
        // The recovery share of the bar renders as '+', the rest as '#'.
        let mut bar: String = "#".repeat(filled.saturating_sub(rec));
        bar.push_str(&"+".repeat(rec.min(filled)));
        let rebuild = agg
            .rebuild
            .map(|(done, total)| format!("  rebuild {done}/{total}"))
            .unwrap_or_default();
        let _ = writeln!(
            out,
            "{label:>10} {:>7} {:>5} {:>5} {:>6}  |{bar:<width$}|{rebuild}{}",
            agg.blocks,
            agg.admissions,
            agg.rejections,
            agg.recovery_reads,
            agg.markers(),
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "summary: {} events over rounds {first}..={last}; {} arrivals, {} admissions, \
         {} rejections, {} completions",
        summary.events, summary.arrivals, summary.admissions, summary.rejections,
        summary.completions
    );
    let _ = writeln!(
        out,
        "         {} blocks served, {} recovery reads, {} reconstructions, {} hiccups, \
         {} late serves, {} service errors, {} lost streams, {} degraded refusals",
        summary.blocks_served,
        summary.recovery_reads,
        summary.reconstructions,
        summary.hiccups,
        summary.late_serves,
        summary.service_errors,
        summary.lost_streams,
        summary.degraded_refusals
    );
    if summary.node_failures > 0 || summary.node_repairs > 0 || summary.stream_migrations > 0 {
        let _ = writeln!(
            out,
            "         node tier: {} failures, {} repairs, {} migrations, \
             {} cross-node rebuild blocks",
            summary.node_failures,
            summary.node_repairs,
            summary.stream_migrations,
            summary.cross_node_rebuild_blocks
        );
        if let Some(f) = summary.node_failure_round {
            let rebuilt = summary
                .node_failure_to_rebuild_complete()
                .map_or("never".to_string(), |g| format!("+{g} rounds"));
            let _ = writeln!(
                out,
                "         node failed at round {f}; cross-node rebuild complete {rebuilt}"
            );
        }
    }
    match summary.failure_round {
        None => {
            let _ = writeln!(out, "         no disk failure in this trace");
        }
        Some(f) => {
            let first_rec = summary
                .failure_to_first_recovery()
                .map_or("never".to_string(), |g| format!("+{g} rounds"));
            let rebuilt = summary
                .failure_to_rebuild_complete()
                .map_or("never".to_string(), |g| format!("+{g} rounds"));
            let _ = writeln!(
                out,
                "         disk failed at round {f}; first recovery read {first_rec}; \
                 rebuild complete {rebuilt}"
            );
        }
    }
}

/// Renders a JSONL trace as the ASCII timeline. Lines that do not parse
/// are skipped; the first of them is returned with the rendered text, as
/// its 1-based line number and the cause.
///
/// # Errors
///
/// Returns `Err` when no line of `text` parses as a trace event, naming
/// the first bad line and its cause if there is one.
pub fn render_timeline(
    text: &str,
    width: usize,
    max_lines: u64,
) -> Result<(String, Option<(usize, TraceParseError)>), String> {
    let mut rounds: BTreeMap<u64, RoundAgg> = BTreeMap::new();
    let mut summary = TraceSummary::default();
    let mut first_bad = None;
    for (at, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        match TraceEvent::parse_jsonl(line) {
            Ok(ev) => {
                summary.observe(&ev);
                rounds.entry(ev.round).or_default().absorb(&ev.kind);
            }
            Err(e) => {
                first_bad.get_or_insert((at + 1, e));
            }
        }
    }
    if rounds.is_empty() {
        return Err(match first_bad {
            Some((line, e)) => format!("no events in trace (line {line}: {e})"),
            None => "no events in trace".to_string(),
        });
    }
    let mut out = String::new();
    render(&mut out, &rounds, &summary, width, max_lines);
    Ok((out, first_bad))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_trace_is_an_error() {
        assert_eq!(render_timeline("", 40, 60), Err("no events in trace".to_string()));
        assert_eq!(
            render_timeline("\nnot json\n", 40, 60),
            Err("no events in trace (line 2: no \"event\" tag)".to_string())
        );
    }

    #[test]
    fn first_bad_line_is_reported_by_number_and_cause() {
        let text = "\
{\"round\":1,\"event\":\"arrival\",\"request\":0,\"clip\":3}\n\
\n\
{\"round\":2,\"event\":\"disk_serve\",\"disk\":0,\"blocks\":4294967296,\"busy_us\":9,\"queue\":1}\n\
{\"round\":3,\"event\":\"disk_fail\",\"disk\":5}\n\
{\"round\":4,\"event\":\"disk_failure\",\"disk\":5}\n";
        let (out, bad) = render_timeline(text, 40, 60).unwrap();
        let (line, cause) = bad.expect("a line is bad");
        assert_eq!(line, 3);
        assert_eq!(cause, TraceParseError::OutOfRange { key: "blocks", ty: "u32" });
        assert!(out.contains("FAIL(d5)"), "good lines after a bad one still render");
    }

    #[test]
    fn disk_only_trace_renders_without_node_lane() {
        let text = "\
{\"round\":1,\"event\":\"arrival\",\"request\":0,\"clip\":3}\n\
{\"round\":2,\"event\":\"disk_failure\",\"disk\":5}\n";
        let (out, bad) = render_timeline(text, 40, 60).unwrap();
        assert_eq!(bad, None);
        assert!(out.contains("FAIL(d5)"));
        assert!(!out.contains("node>"), "no node lane without node events");
        assert!(!out.contains("node tier:"));
    }

    #[test]
    fn node_lane_renders_above_the_disk_lane() {
        let text = "\
{\"round\":4,\"event\":\"node_failure\",\"node\":3}\n\
{\"round\":4,\"event\":\"stream_migrated\",\"request\":9,\"from\":3,\"to\":1}\n\
{\"round\":4,\"event\":\"disk_serve\",\"disk\":0,\"blocks\":6,\"queue\":6,\"busy_us\":10}\n\
{\"round\":6,\"event\":\"node_repair\",\"node\":3}\n\
{\"round\":6,\"event\":\"cross_node_rebuild_read\",\"node\":3,\"source\":1,\"blocks\":32}\n\
{\"round\":7,\"event\":\"node_rebuild_complete\",\"node\":3}\n";
        let (out, _) = render_timeline(text, 40, 60).unwrap();
        assert!(out.contains("node>  NFAIL(n3)  migrate=1"));
        assert!(out.contains("node>  NREPAIR(n3)  xrebuild=32"));
        assert!(out.contains("node>  NREBUILT(n3)"));
        assert!(out.contains("node tier: 1 failures, 1 repairs, 1 migrations"));
        assert!(out.contains("cross-node rebuild complete +3 rounds"));
        // The node lane for round 4 appears before round 4's bar line.
        let lane = out.find("NFAIL(n3)").unwrap();
        let bar = out.find('|').unwrap();
        assert!(lane < bar, "node lane must render above the disk lane");
    }
}
