//! Ratcheted performance budgets for the engine baseline.
//!
//! `PERF_BUDGETS.json` (repo root, next to `BENCH_engine.json`) holds one
//! budget per baseline scenario: a rounds/second **floor**, a
//! constructor wall-time **ceiling**, an allocations-per-serve-phase
//! **ceiling** (zero — the DESIGN.md §7 contract), and a global peak-RSS
//! ceiling. Its keys are the scenario list: the report must carry
//! exactly those scenarios. [`check`]
//! validates a `perf_baseline` report (schema tag, one service thread,
//! serve-phase counts) and compares it against the table, returning every
//! violation; the `perf_budget` binary turns that into a blocking CI
//! verdict.
//!
//! The table is a *ratchet*: [`ratchet`] only ever tightens it. Floors
//! move up to `measured / FLOOR_HEADROOM`, never down; set-up ceilings
//! move down to `measured * FLOOR_HEADROOM` and the RSS ceiling to
//! `measured * RSS_HEADROOM`, never up. Loosening a budget is a
//! deliberate act — edit the JSON by hand and justify it in
//! `PERF_BUDGETS.md`.
//!
//! The headroom factors absorb host-to-host variance (CI runners are
//! several times slower and noisier than a warm workstation) without
//! letting an order-of-magnitude regression — say, the SoA stream table
//! silently reverting to per-round map rebuilds — pass unnoticed.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

/// Floors are set this many times below the measured rounds/second, and
/// set-up ceilings this many times above the measured set-up time.
pub const FLOOR_HEADROOM: f64 = 4.0;
/// The RSS ceiling is set this many times above the measured peak.
pub const RSS_HEADROOM: f64 = 4.0;

/// Budget for one baseline scenario.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScenarioBudget {
    /// Minimum acceptable rounds/second (floor, with headroom baked in).
    pub min_rounds_per_sec: f64,
    /// Maximum acceptable wall time of the scenario's constructor in
    /// seconds (ceiling, with headroom baked in).
    pub max_setup_secs: f64,
    /// Maximum acceptable allocations per serve phase. The contract is
    /// zero for every steady scenario; kept in the table so a deliberate
    /// exception would be visible in review.
    pub max_allocs_per_round: f64,
}

/// The committed budget table (`PERF_BUDGETS.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BudgetTable {
    /// Schema tag, bumped on incompatible change.
    pub schema: String,
    /// Peak-RSS ceiling in KiB for the whole baseline run.
    pub max_peak_rss_kib: u64,
    /// Per-scenario budgets, keyed by scenario name (sorted for stable
    /// diffs).
    pub scenarios: BTreeMap<String, ScenarioBudget>,
}

/// Current schema tag (v2 added `max_setup_secs`).
pub const BUDGET_SCHEMA: &str = "cms-perf-budgets/v2";

/// The `perf_baseline` report schema tag the checker understands (v2
/// added each scenario's `setup_secs`).
pub const REPORT_SCHEMA: &str = "cms-perf-baseline/v2";

impl BudgetTable {
    /// An empty table ready to be ratcheted from a first report.
    #[must_use]
    pub fn empty() -> Self {
        BudgetTable {
            schema: BUDGET_SCHEMA.to_owned(),
            max_peak_rss_kib: u64::MAX,
            scenarios: BTreeMap::new(),
        }
    }
}

/// The slice of a `perf_baseline` report the checker consumes.
///
/// Deserialized with `serde(deny_unknown_fields)` *off* so the report can
/// grow fields without breaking the checker.
#[derive(Debug, Clone, Deserialize)]
pub struct PerfReport {
    /// Report schema tag ([`REPORT_SCHEMA`]).
    pub schema: String,
    /// Disk-service worker threads. Allocation attribution to the serve
    /// phase is only valid with one.
    pub threads: usize,
    /// Whether the counting allocator was compiled in.
    pub alloc_counting: bool,
    /// Peak resident set in KiB, when `/proc` exposed it.
    pub peak_rss_kib: Option<u64>,
    /// Measured scenarios.
    pub scenarios: Vec<PerfScenario>,
}

/// One measured scenario of the report.
#[derive(Debug, Clone, Deserialize)]
pub struct PerfScenario {
    /// Scenario name (`fig6_steady`, `giant`, ...).
    pub name: String,
    /// Timed rounds.
    pub rounds: u64,
    /// Measured throughput.
    pub rounds_per_sec: f64,
    /// Wall time of the scenario's constructor (`Simulator::new` /
    /// `ClusterSim::new`) in seconds.
    pub setup_secs: f64,
    /// Serve phases observed in the timed window (`None` without
    /// `bench-alloc`): one per node per round.
    pub serve_rounds: Option<u64>,
    /// Allocations per serve phase (`None` without `bench-alloc`).
    pub allocs_per_round: Option<f64>,
}

/// One budget violation, carrying enough context to be actionable from a
/// CI log alone.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// Throughput fell below the committed floor.
    TooSlow {
        /// Scenario name.
        name: String,
        /// Measured rounds/second.
        measured: f64,
        /// Committed floor.
        floor: f64,
    },
    /// The scenario's constructor took longer than the ceiling.
    SetupTooSlow {
        /// Scenario name.
        name: String,
        /// Measured set-up seconds.
        measured: f64,
        /// Committed ceiling in seconds.
        ceiling: f64,
    },
    /// Serve-phase allocations exceeded the ceiling.
    TooManyAllocs {
        /// Scenario name.
        name: String,
        /// Measured allocations per serve phase.
        measured: f64,
        /// Committed ceiling.
        ceiling: f64,
    },
    /// Peak RSS exceeded the ceiling.
    RssOverCeiling {
        /// Measured peak RSS in KiB.
        measured: u64,
        /// Committed ceiling in KiB.
        ceiling: u64,
    },
    /// A budgeted scenario is absent from the report — a silently dropped
    /// scenario must fail the gate, not dodge it.
    MissingScenario {
        /// Scenario name.
        name: String,
    },
    /// A reported scenario has no budget — a new scenario must enter
    /// `PERF_BUDGETS.json` (via `--update-budgets`) to be gated.
    UnbudgetedScenario {
        /// Scenario name.
        name: String,
    },
    /// The report lacks allocation counts (built without `bench-alloc`),
    /// so the zero-allocation contract cannot be checked.
    NoAllocCounting,
    /// The report carries a schema tag the checker does not understand.
    WrongSchema {
        /// The report's tag.
        found: String,
    },
    /// The report ran more than one service thread, so serve-phase
    /// allocations cannot be attributed.
    MultiThreaded {
        /// Reported thread count.
        threads: usize,
    },
    /// A scenario's serve-phase count is not a positive multiple of its
    /// rounds (each round runs one serve phase per node), so the
    /// allocation gauge did not observe the window it claims to.
    ServeRounds {
        /// Scenario name.
        name: String,
        /// Timed rounds.
        rounds: u64,
        /// Observed serve phases.
        serve_rounds: u64,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::TooSlow { name, measured, floor } => write!(
                f,
                "{name}: {measured:.1} rounds/s is below the committed floor of {floor:.1}"
            ),
            Violation::SetupTooSlow { name, measured, ceiling } => write!(
                f,
                "{name}: set-up took {:.3} ms, over the committed ceiling of {:.3} ms",
                measured * 1e3,
                ceiling * 1e3
            ),
            Violation::TooManyAllocs { name, measured, ceiling } => write!(
                f,
                "{name}: {measured} allocs/serve-phase exceeds the ceiling of {ceiling}"
            ),
            Violation::RssOverCeiling { measured, ceiling } => write!(
                f,
                "peak RSS {measured} KiB exceeds the ceiling of {ceiling} KiB"
            ),
            Violation::MissingScenario { name } => {
                write!(f, "{name}: budgeted scenario missing from the report")
            }
            Violation::UnbudgetedScenario { name } => {
                write!(f, "{name}: reported scenario has no budget in the table")
            }
            Violation::NoAllocCounting => write!(
                f,
                "report built without --features bench-alloc; allocation contract unchecked"
            ),
            Violation::WrongSchema { found } => {
                write!(f, "report schema {found:?} is not {REPORT_SCHEMA:?}")
            }
            Violation::MultiThreaded { threads } => write!(
                f,
                "report ran {threads} service threads; allocation attribution needs exactly 1"
            ),
            Violation::ServeRounds { name, rounds, serve_rounds } => write!(
                f,
                "{name}: {serve_rounds} serve phases is not a positive multiple of {rounds} rounds"
            ),
        }
    }
}

/// Checks a report against the table. Returns every violation (empty ⇒
/// the budget holds).
#[must_use]
pub fn check(report: &PerfReport, budgets: &BudgetTable) -> Vec<Violation> {
    let mut violations = Vec::new();
    if report.schema != REPORT_SCHEMA {
        violations.push(Violation::WrongSchema { found: report.schema.clone() });
    }
    if report.threads != 1 {
        violations.push(Violation::MultiThreaded { threads: report.threads });
    }
    if !report.alloc_counting {
        violations.push(Violation::NoAllocCounting);
    }
    for s in &report.scenarios {
        if !budgets.scenarios.contains_key(&s.name) {
            violations.push(Violation::UnbudgetedScenario { name: s.name.clone() });
        }
        if let Some(serve_rounds) = s.serve_rounds {
            if s.rounds == 0 || serve_rounds == 0 || serve_rounds % s.rounds != 0 {
                violations.push(Violation::ServeRounds {
                    name: s.name.clone(),
                    rounds: s.rounds,
                    serve_rounds,
                });
            }
        }
    }
    for (name, budget) in &budgets.scenarios {
        let Some(s) = report.scenarios.iter().find(|s| &s.name == name) else {
            violations.push(Violation::MissingScenario { name: name.clone() });
            continue;
        };
        if s.rounds_per_sec < budget.min_rounds_per_sec {
            violations.push(Violation::TooSlow {
                name: name.clone(),
                measured: s.rounds_per_sec,
                floor: budget.min_rounds_per_sec,
            });
        }
        if s.setup_secs > budget.max_setup_secs {
            violations.push(Violation::SetupTooSlow {
                name: name.clone(),
                measured: s.setup_secs,
                ceiling: budget.max_setup_secs,
            });
        }
        if let Some(allocs) = s.allocs_per_round {
            if allocs > budget.max_allocs_per_round {
                violations.push(Violation::TooManyAllocs {
                    name: name.clone(),
                    measured: allocs,
                    ceiling: budget.max_allocs_per_round,
                });
            }
        }
    }
    if let Some(rss) = report.peak_rss_kib {
        if rss > budgets.max_peak_rss_kib {
            violations.push(Violation::RssOverCeiling {
                measured: rss,
                ceiling: budgets.max_peak_rss_kib,
            });
        }
    }
    violations
}

/// Tightens `budgets` from a fresh report: floors rise to
/// `measured / FLOOR_HEADROOM` (never fall), set-up ceilings drop to
/// `measured * FLOOR_HEADROOM` and the RSS ceiling to
/// `measured * RSS_HEADROOM` (never rise), allocation ceilings stay at
/// zero for new scenarios. Returns `true` when anything changed.
pub fn ratchet(budgets: &mut BudgetTable, report: &PerfReport) -> bool {
    let before = budgets.clone();
    for s in &report.scenarios {
        let entry = budgets.scenarios.entry(s.name.clone()).or_insert(ScenarioBudget {
            min_rounds_per_sec: 0.0,
            max_setup_secs: f64::INFINITY,
            max_allocs_per_round: 0.0,
        });
        entry.min_rounds_per_sec = entry.min_rounds_per_sec.max(s.rounds_per_sec / FLOOR_HEADROOM);
        entry.max_setup_secs = entry.max_setup_secs.min(s.setup_secs * FLOOR_HEADROOM);
    }
    if let Some(rss) = report.peak_rss_kib {
        // Ceilings only tighten; the ratchet never loosens one.
        let candidate = (rss as f64 * RSS_HEADROOM).ceil() as u64;
        if candidate < budgets.max_peak_rss_kib {
            budgets.max_peak_rss_kib = candidate;
        }
    }
    *budgets != before
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(scenarios: Vec<PerfScenario>) -> PerfReport {
        PerfReport {
            schema: REPORT_SCHEMA.to_owned(),
            threads: 1,
            alloc_counting: true,
            peak_rss_kib: Some(100_000),
            scenarios,
        }
    }

    fn table() -> BudgetTable {
        let mut t = BudgetTable::empty();
        t.max_peak_rss_kib = 200_000;
        t.scenarios.insert(
            "fig6_steady".to_owned(),
            ScenarioBudget {
                min_rounds_per_sec: 1000.0,
                max_setup_secs: 0.1,
                max_allocs_per_round: 0.0,
            },
        );
        t
    }

    fn scenario(name: &str, rps: f64, allocs: f64) -> PerfScenario {
        PerfScenario {
            name: name.to_owned(),
            rounds: 64,
            rounds_per_sec: rps,
            setup_secs: 0.01,
            serve_rounds: Some(64),
            allocs_per_round: Some(allocs),
        }
    }

    #[test]
    fn clean_report_passes() {
        let r = report(vec![scenario("fig6_steady", 5000.0, 0.0)]);
        assert!(check(&r, &table()).is_empty());
    }

    #[test]
    fn slow_scenario_fails() {
        let r = report(vec![scenario("fig6_steady", 10.0, 0.0)]);
        let v = check(&r, &table());
        assert!(matches!(&v[..], [Violation::TooSlow { name, .. }] if name == "fig6_steady"));
    }

    #[test]
    fn slow_setup_fails() {
        let mut slow = scenario("fig6_steady", 5000.0, 0.0);
        slow.setup_secs = 0.25;
        let v = check(&report(vec![slow]), &table());
        assert!(
            matches!(&v[..], [Violation::SetupTooSlow { measured, ceiling, .. }]
                if *measured == 0.25 && *ceiling == 0.1),
            "{v:?}"
        );
    }

    #[test]
    fn allocations_fail() {
        let r = report(vec![scenario("fig6_steady", 5000.0, 0.5)]);
        let v = check(&r, &table());
        assert!(
            matches!(&v[..], [Violation::TooManyAllocs { measured, .. }] if *measured == 0.5)
        );
    }

    #[test]
    fn missing_scenario_and_rss_fail() {
        let mut r = report(vec![]);
        r.peak_rss_kib = Some(300_000);
        let v = check(&r, &table());
        assert!(v.contains(&Violation::MissingScenario { name: "fig6_steady".to_owned() }));
        assert!(v.contains(&Violation::RssOverCeiling { measured: 300_000, ceiling: 200_000 }));
    }

    #[test]
    fn missing_alloc_counting_fails() {
        let mut r = report(vec![scenario("fig6_steady", 5000.0, 0.0)]);
        r.alloc_counting = false;
        assert!(check(&r, &table()).contains(&Violation::NoAllocCounting));
    }

    #[test]
    fn report_shape_violations_fail() {
        let mut extra = scenario("rs-rebuild", 5000.0, 0.0);
        extra.serve_rounds = Some(100);
        let mut r = report(vec![scenario("fig6_steady", 5000.0, 0.0), extra]);
        r.schema = "cms-perf-baseline/v0".to_owned();
        r.threads = 4;
        let v = check(&r, &table());
        assert!(v.contains(&Violation::WrongSchema { found: "cms-perf-baseline/v0".to_owned() }));
        assert!(v.contains(&Violation::MultiThreaded { threads: 4 }));
        assert!(v.contains(&Violation::UnbudgetedScenario { name: "rs-rebuild".to_owned() }));
        assert!(v.contains(&Violation::ServeRounds {
            name: "rs-rebuild".to_owned(),
            rounds: 64,
            serve_rounds: 100
        }));
        assert_eq!(v.len(), 4, "{v:?}");
    }

    #[test]
    fn serve_rounds_may_be_a_per_node_multiple() {
        // The 8-node cluster scenario runs eight serve phases per round.
        let mut cluster = scenario("fig6_steady", 5000.0, 0.0);
        cluster.serve_rounds = Some(8 * 64);
        assert!(check(&report(vec![cluster]), &table()).is_empty());
        let mut idle = scenario("fig6_steady", 5000.0, 0.0);
        idle.serve_rounds = Some(0);
        let v = check(&report(vec![idle]), &table());
        assert!(matches!(&v[..], [Violation::ServeRounds { serve_rounds: 0, .. }]), "{v:?}");
    }

    #[test]
    fn ratchet_only_tightens() {
        let mut t = table();
        // Faster report raises the floor, lowers the set-up ceiling
        // (0.01 s × 4) and leaves the RSS ceiling (100k × 4 == existing).
        let fast = report(vec![scenario("fig6_steady", 8000.0, 0.0)]);
        assert!(ratchet(&mut t, &fast));
        assert_eq!(t.scenarios["fig6_steady"].min_rounds_per_sec, 2000.0);
        assert_eq!(t.scenarios["fig6_steady"].max_setup_secs, 0.04);
        assert_eq!(t.max_peak_rss_kib, 200_000);

        // A slower report must not loosen anything.
        let mut slow = report(vec![scenario("fig6_steady", 100.0, 0.0)]);
        slow.peak_rss_kib = Some(90_000_000);
        slow.scenarios[0].setup_secs = 5.0;
        assert!(!ratchet(&mut t, &slow));
        assert_eq!(t.scenarios["fig6_steady"].min_rounds_per_sec, 2000.0);
        assert_eq!(t.scenarios["fig6_steady"].max_setup_secs, 0.04);
        assert_eq!(t.max_peak_rss_kib, 200_000);

        // New scenarios enter with a zero-alloc ceiling and a set-up
        // ceiling at their measurement × headroom.
        let fresh = report(vec![scenario("giant", 400.0, 0.0)]);
        assert!(ratchet(&mut t, &fresh));
        assert_eq!(t.scenarios["giant"].max_allocs_per_round, 0.0);
        assert_eq!(t.scenarios["giant"].min_rounds_per_sec, 100.0);
        assert_eq!(t.scenarios["giant"].max_setup_secs, 0.04);
    }

    #[test]
    fn table_round_trips_through_json() {
        let t = table();
        let json = serde_json::to_string_pretty(&t).unwrap();
        let back: BudgetTable = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
    }
}
