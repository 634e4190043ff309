#![forbid(unsafe_code)]
//! Output checks: the per-round ledger (conservation and the FNV-1a
//! digest), the verdict over a finished run, and `--self-test`, which
//! proves every check can fail.

use cms_cluster::{ClusterMetrics, ClusterRoundReport};
use cms_sim::{Metrics, RoundReport};

use crate::workloads::{Report, Totals};

/// A window must keep at least this many timed rounds, so its p99 has
/// ten samples beyond it.
pub const MIN_WINDOW_ROUNDS: usize = 1_000;

/// 64-bit FNV-1a.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` in.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest so far.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Field-by-field sums of every round report, plus the digest of the
/// first `prefix` rounds and the totals at that point.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Rounds absorbed.
    pub rounds: u64,
    node: RoundReport,
    cluster: ClusterRoundReport,
    digest: Fnv,
    /// Digest of the prefix rounds plus the totals after them, once
    /// sealed.
    pub sealed: Option<u64>,
    outage_since: Option<u64>,
    /// Rounds from each failure until the array (or cluster) was whole
    /// again: failed disks rebuilt, failed nodes repaired and rebuilt.
    pub recoveries: Vec<u64>,
}

impl Ledger {
    /// Adds one round. Rounds before [`Ledger::seal`] enter the digest.
    pub fn absorb(&mut self, report: &Report) {
        self.rounds += 1;
        let (round, degraded) = match report {
            Report::Node(r) => (r.round, r.down_disks > 0),
            Report::Cluster(r) => (r.round, r.down_nodes + r.rebuilding_nodes > 0),
        };
        match (self.outage_since, degraded) {
            (None, true) => self.outage_since = Some(round),
            (Some(since), false) => {
                self.recoveries.push(round - since);
                self.outage_since = None;
            }
            _ => {}
        }
        match report {
            Report::Node(r) => {
                if self.sealed.is_none() {
                    self.hash(&serde_json::to_string(r).unwrap_or_default());
                }
                let s = &mut self.node;
                s.arrivals += r.arrivals;
                s.admissions += r.admissions;
                s.completions += r.completions;
                s.blocks_served += r.blocks_served;
                s.recovery_reads += r.recovery_reads;
                s.hiccups += r.hiccups;
                s.service_errors += r.service_errors;
                s.rebuild_reads += r.rebuild_reads;
                s.lost_streams += r.lost_streams;
                s.degraded_refusals += r.degraded_refusals;
                s.late_serves += r.late_serves;
            }
            Report::Cluster(r) => {
                if self.sealed.is_none() {
                    self.hash(&serde_json::to_string(r).unwrap_or_default());
                }
                let s = &mut self.cluster;
                s.arrivals += r.arrivals;
                s.routed += r.routed;
                s.cluster_refusals += r.cluster_refusals;
                s.unroutable += r.unroutable;
                s.migrations += r.migrations;
                s.lost_streams += r.lost_streams;
                s.rebuild_blocks += r.rebuild_blocks;
                s.admissions += r.admissions;
                s.completions += r.completions;
                s.blocks_served += r.blocks_served;
                s.hiccups += r.hiccups;
            }
        }
    }

    fn hash(&mut self, line: &str) {
        self.digest.write(line.as_bytes());
        self.digest.write(b"\n");
    }

    /// Closes the digest with the facade's totals after the prefix.
    pub fn seal(&mut self, totals: &Totals<'_>) {
        let text = match totals {
            Totals::Node(m) => serde_json::to_string(*m).unwrap_or_default(),
            Totals::Cluster(m) => serde_json::to_string(*m).unwrap_or_default(),
        };
        self.hash(&text);
        self.sealed = Some(self.digest.finish());
    }

    /// `(field, Σ reports, facade counter)` for every counter both sides
    /// carry. `submitted` counts requests queued through the facade
    /// between ticks, which the engine's counters include but no round
    /// report does.
    #[must_use]
    pub fn conservation(
        &self,
        totals: &Totals<'_>,
        submitted: u64,
    ) -> Vec<(&'static str, u64, u64)> {
        match totals {
            Totals::Node(m) => node_pairs(&self.node, self.rounds, submitted, m),
            Totals::Cluster(m) => cluster_pairs(&self.cluster, self.rounds, m),
        }
    }
}

fn node_pairs(
    s: &RoundReport,
    rounds: u64,
    submitted: u64,
    m: &Metrics,
) -> Vec<(&'static str, u64, u64)> {
    vec![
        ("rounds", rounds, m.rounds),
        ("arrivals", s.arrivals + submitted, m.arrivals),
        ("admitted", s.admissions, m.admitted),
        ("completed", s.completions, m.completed),
        ("blocks_fetched", s.blocks_served, m.blocks_fetched),
        ("recovery_reads", s.recovery_reads, m.recovery_reads),
        ("hiccups", s.hiccups, m.hiccups),
        ("service_errors", s.service_errors, m.service_errors),
        ("rebuild_reads", s.rebuild_reads, m.rebuild_reads),
        ("lost_streams", s.lost_streams, m.lost_streams),
        (
            "degraded_refusals",
            s.degraded_refusals,
            m.degraded_refusals,
        ),
        ("late_serves", s.late_serves, m.late_serves),
    ]
}

fn cluster_pairs(
    s: &ClusterRoundReport,
    rounds: u64,
    m: &ClusterMetrics,
) -> Vec<(&'static str, u64, u64)> {
    vec![
        ("rounds", rounds, m.rounds),
        ("arrivals", s.arrivals, m.arrivals),
        ("routed", s.routed, m.routed),
        ("cluster_refusals", s.cluster_refusals, m.cluster_refusals),
        ("unroutable", s.unroutable, m.unroutable),
        ("migrations", s.migrations, m.migrations),
        ("lost_streams", s.lost_streams, m.lost_streams),
        (
            "cross_node_rebuild_blocks",
            s.rebuild_blocks,
            m.cross_node_rebuild_blocks,
        ),
        ("admissions", s.admissions, m.admissions),
        ("completions", s.completions, m.completions),
        ("blocks_served", s.blocks_served, m.blocks_served),
        ("hiccups", s.hiccups, m.hiccups),
    ]
}

/// Everything the verdict looks at, gathered from a finished run.
#[derive(Debug, Clone)]
pub struct Evidence {
    /// `(field, Σ reports, facade counter)`.
    pub conservation: Vec<(&'static str, u64, u64)>,
    /// Reconstructions that failed byte verification.
    pub parity_mismatches: u64,
    /// Fetches dropped by refused service rounds.
    pub service_errors: u64,
    /// Playback glitches over the whole run.
    pub hiccups: u64,
    /// Whether any hiccup fails the run (else it only counts as a failed
    /// operation).
    pub hiccup_free: bool,
    /// Requests or failure injections the facade rejected.
    pub call_errors: u64,
    /// Digest of the prefix.
    pub digest: u64,
    /// The recorded digest, when this run is the reference definition.
    pub expected_digest: Option<u64>,
    /// Timed rounds in each window of the run.
    pub windows: Vec<usize>,
}

impl Evidence {
    /// Every failed check, as one line each; empty when the run is
    /// correct.
    #[must_use]
    pub fn failures(&self) -> Vec<String> {
        let mut out = Vec::new();
        for &(field, sum, total) in &self.conservation {
            if sum != total {
                out.push(format!(
                    "conservation: sum of round reports {field} = {sum}, counter = {total}"
                ));
            }
        }
        if self.parity_mismatches > 0 {
            out.push(format!(
                "parity: {} reconstructions failed verification",
                self.parity_mismatches
            ));
        }
        if self.service_errors > 0 {
            out.push(format!(
                "service: {} fetches dropped by refused service rounds",
                self.service_errors
            ));
        }
        if self.hiccup_free && self.hiccups > 0 {
            out.push(format!("hiccups: {} playback glitches", self.hiccups));
        }
        if self.call_errors > 0 {
            out.push(format!("facade: {} calls rejected", self.call_errors));
        }
        if let Some(expected) = self.expected_digest {
            if expected != self.digest {
                out.push(format!(
                    "digest: {:016x}, recorded {expected:016x}",
                    self.digest
                ));
            }
        }
        for &rounds in &self.windows {
            if rounds < MIN_WINDOW_ROUNDS {
                out.push(format!(
                    "window: {rounds} timed rounds, need {MIN_WINDOW_ROUNDS}"
                ));
            }
        }
        out
    }
}

/// A forged fault: what it is, the failure tag that must report it, and
/// the edit that plants it.
type Forgery = (&'static str, &'static str, fn(&mut Evidence));

/// Proves each check can fail: starting from `good` (which must pass),
/// forges a wrong digest, a parity mismatch, a broken conservation sum
/// and a short window, and demands each be rejected. Returns the report
/// lines, or the first way the checker failed to reject.
///
/// # Errors
///
/// Describes the check that accepted forged evidence, or a `good`
/// evidence that did not pass.
pub fn self_test(good: &Evidence) -> Result<Vec<String>, String> {
    let base = good.failures();
    if !base.is_empty() {
        return Err(format!(
            "the unforged run must pass, got: {}",
            base.join("; ")
        ));
    }
    let mut lines = vec!["unforged run passes every check".to_string()];
    let forgeries: [Forgery; 4] = [
        ("wrong digest", "digest:", |e| {
            e.expected_digest = Some(e.digest ^ 1);
        }),
        ("forged parity mismatch", "parity:", |e| {
            e.parity_mismatches = 1
        }),
        ("broken conservation", "conservation:", |e| {
            if let Some(pair) = e.conservation.get_mut(1) {
                pair.1 += 1;
            }
        }),
        ("window under 1,000 rounds", "window:", |e| {
            e.windows.push(MIN_WINDOW_ROUNDS - 1);
        }),
    ];
    for (what, tag, forge) in forgeries {
        let mut e = good.clone();
        forge(&mut e);
        let failures = e.failures();
        if !failures.iter().any(|f| f.starts_with(tag)) {
            return Err(format!("{what} was accepted"));
        }
        lines.push(format!("{what} rejected: {}", failures.join("; ")));
    }
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn good() -> Evidence {
        Evidence {
            conservation: vec![("rounds", 10, 10), ("arrivals", 5, 5)],
            parity_mismatches: 0,
            service_errors: 0,
            hiccups: 0,
            hiccup_free: true,
            call_errors: 0,
            digest: 42,
            expected_digest: Some(42),
            windows: vec![MIN_WINDOW_ROUNDS],
        }
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        let mut h = Fnv::default();
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv::default();
        h.write(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn every_forgery_is_rejected() {
        let lines = self_test(&good()).expect("checker rejects every forgery");
        assert_eq!(lines.len(), 5);
    }

    #[test]
    fn a_failing_base_run_is_reported() {
        let mut e = good();
        e.hiccups = 3;
        assert!(self_test(&e).is_err());
        assert_eq!(e.failures().len(), 1);
        // Where hiccups are counted as failed operations instead, they
        // pass the checks.
        e.hiccup_free = false;
        assert!(e.failures().is_empty());
    }

    #[test]
    fn other_seeds_skip_the_digest() {
        let mut e = good();
        e.expected_digest = None;
        e.digest = 7;
        assert!(e.failures().is_empty());
    }
}
