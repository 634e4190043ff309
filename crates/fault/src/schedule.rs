//! The schedule model: round-stamped fault events, the text spec parser,
//! and the consistency checker the generators and proptests rely on.

use cms_core::{CmsError, DiskId, NodeId};
use std::collections::BTreeMap;
use std::fmt;

/// One fault-injection event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// The disk fails hard: its contents are gone until repaired (or
    /// rebuilt onto a spare). Reads must be served by reconstruction.
    Fail(DiskId),
    /// The failed disk returns to service with its contents intact
    /// (models an external replacement that restored the data).
    Repair(DiskId),
    /// The disk stops serving for `rounds` rounds, then returns on its
    /// own with contents intact — a controller reset or cable blip. No
    /// rebuild is needed; reads during the window go to survivors.
    Transient {
        /// The affected disk.
        disk: DiskId,
        /// Length of the outage window, in rounds (≥ 1).
        rounds: u64,
    },
    /// The disk keeps serving but `factor`× slower for `rounds` rounds:
    /// its per-round service budget shrinks to `max(1, q / factor)` and
    /// its busy time is multiplied by `factor` — the degraded-but-alive
    /// regime between healthy and failed.
    SlowDisk {
        /// The affected disk.
        disk: DiskId,
        /// Slowdown multiplier (≥ 2; 1 would be a no-op).
        factor: u32,
        /// Length of the slow window, in rounds (≥ 1).
        rounds: u64,
    },
    /// A whole server node — one complete d-disk array — goes dark: every
    /// stream it was serving must migrate to a surviving replica. Only
    /// meaningful in cluster schedules (`cms-cluster`); single-server
    /// schedules reject it.
    FailNode(NodeId),
    /// The failed node returns with its disks blank and starts a
    /// cross-node rebuild from its replica peers before it becomes
    /// routable again.
    RepairNode(NodeId),
}

impl FaultEvent {
    /// The disk this event targets, or `None` for node-scoped events.
    #[must_use]
    pub fn disk(&self) -> Option<DiskId> {
        match *self {
            FaultEvent::Fail(d) | FaultEvent::Repair(d) => Some(d),
            FaultEvent::Transient { disk, .. } | FaultEvent::SlowDisk { disk, .. } => Some(disk),
            FaultEvent::FailNode(_) | FaultEvent::RepairNode(_) => None,
        }
    }

    /// The node this event targets, or `None` for disk-scoped events.
    #[must_use]
    pub fn node(&self) -> Option<NodeId> {
        match *self {
            FaultEvent::FailNode(n) | FaultEvent::RepairNode(n) => Some(n),
            _ => None,
        }
    }
}

/// A fault event stamped with the round it takes effect in (applied at
/// the start of that round, before admission).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledEvent {
    /// The round the event fires in.
    pub round: u64,
    /// What happens.
    pub event: FaultEvent,
}

impl fmt::Display for ScheduledEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.event {
            FaultEvent::Fail(d) => write!(f, "@{} fail {}", self.round, d.raw()),
            FaultEvent::Repair(d) => write!(f, "@{} repair {}", self.round, d.raw()),
            FaultEvent::Transient { disk, rounds } => {
                write!(f, "@{} transient {} rounds={rounds}", self.round, disk.raw())
            }
            FaultEvent::SlowDisk { disk, factor, rounds } => {
                write!(
                    f,
                    "@{} slow {} factor={factor} rounds={rounds}",
                    self.round,
                    disk.raw()
                )
            }
            FaultEvent::FailNode(n) => write!(f, "@{} fail-node {}", self.round, n.raw()),
            FaultEvent::RepairNode(n) => write!(f, "@{} repair-node {}", self.round, n.raw()),
        }
    }
}

/// A deterministic, replayable list of fault events, sorted by round.
/// Events sharing a round apply in list order. The empty schedule is the
/// fault-free run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSchedule {
    events: Vec<ScheduledEvent>,
}

impl FaultSchedule {
    /// Builds a schedule from events, stably sorting them by round (the
    /// relative order of same-round events is preserved).
    #[must_use]
    pub fn new(mut events: Vec<ScheduledEvent>) -> Self {
        events.sort_by_key(|e| e.round);
        FaultSchedule { events }
    }

    /// The events, in firing order.
    #[must_use]
    pub fn events(&self) -> &[ScheduledEvent] {
        &self.events
    }

    /// Number of scheduled events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Is the schedule empty (a fault-free run)?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The event at `cursor` if it is due by `round`, advancing `cursor`
    /// past it. Called until `None` at the start of each round, it
    /// yields every due event once, in schedule order, in O(events)
    /// total over a run.
    pub fn next_due(&self, cursor: &mut usize, round: u64) -> Option<FaultEvent> {
        let e = self.events.get(*cursor).filter(|e| e.round <= round)?;
        *cursor += 1;
        Some(e.event)
    }

    /// Convenience constructor for the classic drill: fail one disk, and
    /// optionally repair it later.
    #[must_use]
    pub fn single_failure(fail_round: u64, disk: DiskId, repair_round: Option<u64>) -> Self {
        let mut events = vec![ScheduledEvent { round: fail_round, event: FaultEvent::Fail(disk) }];
        if let Some(r) = repair_round {
            events.push(ScheduledEvent { round: r, event: FaultEvent::Repair(disk) });
        }
        FaultSchedule::new(events)
    }

    /// Parses the line-oriented text spec. One event per line:
    ///
    /// ```text
    /// # comments and blank lines are ignored
    /// @40 fail 5
    /// @90 repair 5
    /// @30 transient 2 rounds=5
    /// @60 slow 3 factor=4 rounds=10
    /// @45 fail-node 2
    /// @95 repair-node 2
    /// ```
    ///
    /// The node-scoped verbs address whole server nodes behind the
    /// cluster gateway; [`FaultSchedule::validate`] (single server) and
    /// [`FaultSchedule::validate_cluster`] (cluster) police which scope a
    /// schedule may use.
    ///
    /// `Display` renders exactly this format back, and
    /// `parse(format(s)) == s` for any schedule (the round-trip property
    /// the proptests pin down).
    ///
    /// # Errors
    ///
    /// Returns [`CmsError::InvalidParams`] naming the line number *and*
    /// the offending token for any malformed event — shrunk conformance
    /// repros are hand-edited, so the diagnostics must point at the exact
    /// word that broke.
    pub fn parse(text: &str) -> Result<Self, CmsError> {
        let mut events = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            // Every diagnostic carries the 1-based line number, what was
            // expected, and the token that failed to parse (or `end of
            // line` when the token is missing outright).
            let bad = |what: &str, token: Option<&str>| {
                let got = match token {
                    Some(t) => format!("`{t}`"),
                    None => "end of line".to_owned(),
                };
                CmsError::invalid_params(format!(
                    "fault schedule line {}: {what}, got {got} in {line:?}",
                    lineno + 1
                ))
            };
            let mut words = line.split_whitespace();
            let first = words.next();
            let round = first
                .and_then(|w| w.strip_prefix('@'))
                .and_then(|w| w.parse::<u64>().ok())
                .ok_or_else(|| bad("expected `@<round>`", first))?;
            let verb = words.next().ok_or_else(|| bad("expected an event verb", None))?;
            let node_scoped = matches!(verb, "fail-node" | "repair-node");
            let id_word = words.next();
            let id = id_word.and_then(|w| w.parse::<u32>().ok()).ok_or_else(|| {
                bad(if node_scoped { "expected a node id" } else { "expected a disk id" }, id_word)
            })?;
            let disk = DiskId(id);
            let mut keys: BTreeMap<&str, u64> = BTreeMap::new();
            for kv in words {
                let (k, v) =
                    kv.split_once('=').ok_or_else(|| bad("expected `key=value`", Some(kv)))?;
                let v = v
                    .parse::<u64>()
                    .map_err(|_| bad(&format!("key `{k}` needs an integer value"), Some(kv)))?;
                keys.insert(k, v);
            }
            let key = |k: &str| {
                keys.get(k).copied().ok_or_else(|| bad(&format!("missing key `{k}`"), Some(verb)))
            };
            let event = match verb {
                "fail" => FaultEvent::Fail(disk),
                "repair" => FaultEvent::Repair(disk),
                "transient" => FaultEvent::Transient { disk, rounds: key("rounds")? },
                "slow" => {
                    let factor = u32::try_from(key("factor")?)
                        .map_err(|_| bad("key `factor` out of range", Some(verb)))?;
                    FaultEvent::SlowDisk { disk, factor, rounds: key("rounds")? }
                }
                "fail-node" => FaultEvent::FailNode(NodeId(id)),
                "repair-node" => FaultEvent::RepairNode(NodeId(id)),
                _ => return Err(bad("unknown event verb", Some(verb))),
            };
            events.push(ScheduledEvent { round, event });
        }
        Ok(FaultSchedule::new(events))
    }

    /// Does the schedule contain any node-scoped (`fail-node` /
    /// `repair-node`) events? Such schedules belong to a cluster run;
    /// [`FaultSchedule::validate`] rejects them for a single server.
    #[must_use]
    pub fn has_node_events(&self) -> bool {
        self.events.iter().any(|e| e.event.node().is_some())
    }

    /// Structural validation against a single server's array of `d`
    /// disks: every disk id in range, every window length ≥ 1, every slow
    /// factor ≥ 2, and **no node-scoped events** — those only make sense
    /// behind the cluster gateway (see
    /// [`FaultSchedule::validate_cluster`]).
    ///
    /// # Errors
    ///
    /// Returns [`CmsError::InvalidParams`] naming the offending event.
    pub fn validate(&self, d: u32) -> Result<(), CmsError> {
        for e in &self.events {
            if e.event.node().is_some() {
                return Err(CmsError::invalid_params(format!(
                    "fault schedule event `{e}` is node-scoped; a single-server schedule \
                     cannot fail whole nodes (use a cluster schedule)"
                )));
            }
            if e.event.disk().is_some_and(|disk| disk.raw() >= d) {
                return Err(CmsError::invalid_params(format!(
                    "fault schedule event `{e}` targets a disk outside the {d}-disk array"
                )));
            }
            match e.event {
                FaultEvent::Transient { rounds: 0, .. } => {
                    return Err(CmsError::invalid_params(format!(
                        "fault schedule event `{e}`: transient window must be >= 1 round"
                    )));
                }
                FaultEvent::SlowDisk { factor, rounds, .. } if factor < 2 || rounds == 0 => {
                    return Err(CmsError::invalid_params(format!(
                        "fault schedule event `{e}`: slow window needs factor >= 2 and rounds >= 1"
                    )));
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Structural validation against a cluster of `n` nodes: every event
    /// node-scoped (the gateway does not forward disk-level faults — a
    /// node *is* the failure unit at this tier) and every node id in
    /// range.
    ///
    /// # Errors
    ///
    /// Returns [`CmsError::InvalidParams`] naming the offending event.
    pub fn validate_cluster(&self, n: u32) -> Result<(), CmsError> {
        for e in &self.events {
            let Some(node) = e.event.node() else {
                return Err(CmsError::invalid_params(format!(
                    "fault schedule event `{e}` is disk-scoped; cluster schedules take \
                     fail-node/repair-node events only"
                )));
            };
            if node.raw() >= n {
                return Err(CmsError::invalid_params(format!(
                    "fault schedule event `{e}` targets a node outside the {n}-node cluster"
                )));
            }
        }
        Ok(())
    }

    /// Full consistency check for a cluster schedule:
    /// [`FaultSchedule::validate_cluster`] plus the node state machine —
    /// a node fails only while up and is repaired only while failed.
    ///
    /// # Errors
    ///
    /// Returns [`CmsError::InvalidParams`] naming the first inconsistent
    /// event.
    pub fn check_consistency_cluster(&self, n: u32) -> Result<(), CmsError> {
        self.validate_cluster(n)?;
        let mut failed: Vec<bool> = vec![false; n as usize];
        for e in &self.events {
            let bad = |what: &str| {
                Err(CmsError::invalid_params(format!("fault schedule event `{e}`: {what}")))
            };
            match e.event {
                FaultEvent::FailNode(node) => {
                    if failed.get(node.idx()).copied().unwrap_or(false) {
                        return bad("fails a node that is already down");
                    }
                    if let Some(slot) = failed.get_mut(node.idx()) {
                        *slot = true;
                    }
                }
                FaultEvent::RepairNode(node) => {
                    if !failed.get(node.idx()).copied().unwrap_or(false) {
                        return bad("repairs a node that is not failed");
                    }
                    if let Some(slot) = failed.get_mut(node.idx()) {
                        *slot = false;
                    }
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Full consistency check: [`FaultSchedule::validate`] plus the
    /// state-machine rules the generators guarantee — a disk fails only
    /// while up, is repaired only while failed, and transient/slow
    /// windows target up disks and never overlap another window on the
    /// same disk. The engine tolerates inconsistent schedules (stray
    /// events degrade to no-ops), but generated schedules must pass this,
    /// and the proptests enforce it.
    ///
    /// # Errors
    ///
    /// Returns [`CmsError::InvalidParams`] naming the first inconsistent
    /// event.
    pub fn check_consistency(&self, d: u32) -> Result<(), CmsError> {
        self.validate(d)?;
        // Per-disk state: failed-set plus window-end rounds (exclusive).
        let mut failed: Vec<bool> = vec![false; d as usize];
        let mut transient_until: BTreeMap<DiskId, u64> = BTreeMap::new();
        let mut slow_until: BTreeMap<DiskId, u64> = BTreeMap::new();
        let bad = |e: &ScheduledEvent, what: &str| {
            Err(CmsError::invalid_params(format!("fault schedule event `{e}`: {what}")))
        };
        for e in &self.events {
            // validate() already rejected node-scoped events.
            let Some(disk) = e.event.disk() else { continue };
            transient_until.retain(|_, end| *end > e.round);
            slow_until.retain(|_, end| *end > e.round);
            let is_failed = failed.get(disk.idx()).copied().unwrap_or(false);
            let in_transient = transient_until.contains_key(&disk);
            match e.event {
                FaultEvent::Fail(_) => {
                    if is_failed || in_transient {
                        return bad(e, "fails a disk that is already down");
                    }
                    if let Some(slot) = failed.get_mut(disk.idx()) {
                        *slot = true;
                    }
                }
                FaultEvent::Repair(_) => {
                    if !is_failed {
                        return bad(e, "repairs a disk that is not failed");
                    }
                    if let Some(slot) = failed.get_mut(disk.idx()) {
                        *slot = false;
                    }
                }
                FaultEvent::Transient { rounds, .. } => {
                    if is_failed || in_transient {
                        return bad(e, "transient on a disk that is already down");
                    }
                    transient_until.insert(disk, e.round.saturating_add(rounds));
                }
                FaultEvent::SlowDisk { rounds, .. } => {
                    if is_failed || in_transient || slow_until.contains_key(&disk) {
                        return bad(e, "slow window on a disk that is down or already slow");
                    }
                    slow_until.insert(disk, e.round.saturating_add(rounds));
                }
                // Skipped above: validate() bans node events here.
                FaultEvent::FailNode(_) | FaultEvent::RepairNode(_) => {}
            }
        }
        Ok(())
    }
}

impl fmt::Display for FaultSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for e in &self.events {
            writeln!(f, "{e}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FaultSchedule {
        FaultSchedule::new(vec![
            ScheduledEvent { round: 60, event: FaultEvent::Repair(DiskId(5)) },
            ScheduledEvent { round: 40, event: FaultEvent::Fail(DiskId(5)) },
            ScheduledEvent {
                round: 10,
                event: FaultEvent::Transient { disk: DiskId(1), rounds: 5 },
            },
            ScheduledEvent {
                round: 70,
                event: FaultEvent::SlowDisk { disk: DiskId(2), factor: 4, rounds: 10 },
            },
        ])
    }

    #[test]
    fn new_sorts_by_round() {
        let s = sample();
        let rounds: Vec<u64> = s.events().iter().map(|e| e.round).collect();
        assert_eq!(rounds, vec![10, 40, 60, 70]);
    }

    #[test]
    fn display_then_parse_round_trips() {
        let s = sample();
        let text = s.to_string();
        assert_eq!(FaultSchedule::parse(&text).unwrap(), s, "{text}");
    }

    #[test]
    fn parse_skips_comments_and_blanks() {
        let s = FaultSchedule::parse("# drill\n\n@40 fail 2\n  # tail\n@90 repair 2\n").unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.events()[0].event, FaultEvent::Fail(DiskId(2)));
        assert_eq!(s.events()[1].event, FaultEvent::Repair(DiskId(2)));
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        for bad in [
            "40 fail 2",           // missing @
            "@x fail 2",           // non-numeric round
            "@40 fail",            // missing disk
            "@40 explode 2",       // unknown verb
            "@40 transient 2",     // missing rounds=
            "@40 slow 2 rounds=3", // missing factor=
            "@40 slow 2 factor=abc rounds=3",
            "@40 fail 2 extra",    // trailing junk that is not key=value
        ] {
            assert!(FaultSchedule::parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    /// Parse diagnostics must name the 1-based line number and the exact
    /// offending token — shrunk conformance repros get hand-edited, and a
    /// whole-line error makes that miserable.
    #[test]
    fn parse_errors_name_line_and_token() {
        let expect = |input: &str, fragments: &[&str]| {
            let msg = FaultSchedule::parse(input).unwrap_err().to_string();
            for frag in fragments {
                assert!(msg.contains(frag), "{input:?}: message {msg:?} must contain {frag:?}");
            }
        };
        // Line numbers count raw lines, comments and blanks included.
        expect("# header\n\n@40 explode 2", &["line 3", "unknown event verb", "`explode`"]);
        expect("40 fail 2", &["line 1", "expected `@<round>`", "`40`"]);
        expect("@x fail 2", &["line 1", "`@x`"]);
        expect("@40 fail", &["line 1", "expected a disk id", "end of line"]);
        expect("@40 fail two", &["line 1", "expected a disk id", "`two`"]);
        expect("@40 transient 2", &["line 1", "missing key `rounds`"]);
        expect("@40 slow 2 rounds=3", &["line 1", "missing key `factor`"]);
        expect(
            "@40 slow 2 factor=abc rounds=3",
            &["line 1", "key `factor` needs an integer value", "`factor=abc`"],
        );
        expect("@40 fail 2 extra", &["line 1", "expected `key=value`", "`extra`"]);
        expect("@10 fail 1\n@40 repair 1 rounds", &["line 2", "`rounds`"]);
    }

    #[test]
    fn validate_checks_ranges() {
        assert!(sample().validate(8).is_ok());
        assert!(sample().validate(5).is_err(), "disk 5 outside a 5-disk array");
        let zero_window = FaultSchedule::new(vec![ScheduledEvent {
            round: 1,
            event: FaultEvent::Transient { disk: DiskId(0), rounds: 0 },
        }]);
        assert!(zero_window.validate(8).is_err());
        let noop_slow = FaultSchedule::new(vec![ScheduledEvent {
            round: 1,
            event: FaultEvent::SlowDisk { disk: DiskId(0), factor: 1, rounds: 5 },
        }]);
        assert!(noop_slow.validate(8).is_err());
    }

    #[test]
    fn consistency_rejects_stray_transitions() {
        let double_fail = FaultSchedule::parse("@10 fail 1\n@20 fail 1\n").unwrap();
        assert!(double_fail.check_consistency(8).is_err());
        let stray_repair = FaultSchedule::parse("@10 repair 1\n").unwrap();
        assert!(stray_repair.check_consistency(8).is_err());
        let fail_in_transient =
            FaultSchedule::parse("@10 transient 1 rounds=10\n@15 fail 1\n").unwrap();
        assert!(fail_in_transient.check_consistency(8).is_err());
        let ok = FaultSchedule::parse(
            "@10 transient 1 rounds=5\n@20 fail 1\n@30 repair 1\n@31 fail 1\n",
        )
        .unwrap();
        assert!(ok.check_consistency(8).is_ok());
        // Two concurrent failures on *different* disks are consistent —
        // that is the whole point of the multi-event model.
        let double = FaultSchedule::parse("@10 fail 1\n@15 fail 2\n").unwrap();
        assert!(double.check_consistency(8).is_ok());
    }

    fn node_sample() -> FaultSchedule {
        FaultSchedule::parse("@45 fail-node 2\n@95 repair-node 2\n@50 fail-node 0\n").unwrap()
    }

    #[test]
    fn node_verbs_round_trip_and_sort() {
        let s = node_sample();
        let rounds: Vec<u64> = s.events().iter().map(|e| e.round).collect();
        assert_eq!(rounds, vec![45, 50, 95]);
        assert_eq!(s.events()[0].event, FaultEvent::FailNode(NodeId(2)));
        assert_eq!(s.events()[0].event.node(), Some(NodeId(2)));
        assert_eq!(s.events()[0].event.disk(), None);
        assert_eq!(FaultSchedule::parse(&s.to_string()).unwrap(), s);
        assert!(s.has_node_events());
        assert!(!sample().has_node_events());
    }

    #[test]
    fn node_events_are_rejected_by_single_server_validate() {
        let s = node_sample();
        let msg = s.validate(8).unwrap_err().to_string();
        assert!(msg.contains("node-scoped"), "{msg}");
        // And the mirror: disk events are rejected by the cluster scope.
        let msg = sample().validate_cluster(8).unwrap_err().to_string();
        assert!(msg.contains("disk-scoped"), "{msg}");
    }

    #[test]
    fn validate_cluster_checks_node_range() {
        let s = node_sample();
        assert!(s.validate_cluster(4).is_ok());
        let msg = s.validate_cluster(2).unwrap_err().to_string();
        assert!(msg.contains("outside the 2-node cluster"), "{msg}");
    }

    #[test]
    fn cluster_consistency_tracks_node_state() {
        assert!(node_sample().check_consistency_cluster(4).is_ok());
        let double = FaultSchedule::parse("@10 fail-node 1\n@20 fail-node 1\n").unwrap();
        assert!(double.check_consistency_cluster(4).is_err());
        let stray = FaultSchedule::parse("@10 repair-node 1\n").unwrap();
        assert!(stray.check_consistency_cluster(4).is_err());
        let cycle =
            FaultSchedule::parse("@10 fail-node 1\n@30 repair-node 1\n@31 fail-node 1\n").unwrap();
        assert!(cycle.check_consistency_cluster(4).is_ok());
    }

    #[test]
    fn node_verb_parse_errors_name_the_token() {
        let msg = FaultSchedule::parse("@40 fail-node").unwrap_err().to_string();
        assert!(msg.contains("expected a node id") && msg.contains("end of line"), "{msg}");
        let msg = FaultSchedule::parse("@40 fail-node two").unwrap_err().to_string();
        assert!(msg.contains("expected a node id") && msg.contains("`two`"), "{msg}");
    }

    #[test]
    fn single_failure_matches_the_legacy_scenario_shape() {
        let s = FaultSchedule::single_failure(40, DiskId(3), Some(90));
        assert_eq!(
            s.events(),
            &[
                ScheduledEvent { round: 40, event: FaultEvent::Fail(DiskId(3)) },
                ScheduledEvent { round: 90, event: FaultEvent::Repair(DiskId(3)) },
            ]
        );
        assert!(s.check_consistency(8).is_ok());
    }
}
