//! Blocking perf-budget gate: checks a `perf_baseline` report
//! (`BENCH_engine.json`) against the committed ratchet table
//! (`PERF_BUDGETS.json`) and exits non-zero on any violation.
//!
//! Modes:
//!
//! * default — load report + budgets, print a verdict per scenario, exit
//!   1 if any floor/ceiling is violated. This is the CI gate.
//! * `--update-budgets` — tighten the table from the report (floors only
//!   rise, ceilings only fall; see `cms_bench::budget`) and rewrite the
//!   budgets file. Run after landing a real optimisation, then commit the
//!   diff.
//! * `--self-test` — feed the checker synthetic reports that violate each
//!   budget and report-shape class and assert every one is flagged, so CI
//!   proves the gate can actually fail before trusting its green.
//!
//! Usage:
//! `cargo run --release -p cms-bench --bin perf_budget -- [--report BENCH_engine.json] [--budgets PERF_BUDGETS.json] [--update-budgets | --self-test]`

#![forbid(unsafe_code)]

use std::process::ExitCode;

use cms_bench::budget::{
    check, ratchet, BudgetTable, PerfReport, PerfScenario, ScenarioBudget, Violation,
    REPORT_SCHEMA,
};
use cms_bench::BenchArgs;

fn load_report(path: &str) -> PerfReport {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("perf_budget: cannot read report {path}: {e}"));
    serde_json::from_str(&text)
        .unwrap_or_else(|e| panic!("perf_budget: report {path} does not parse: {e}"))
}

fn load_budgets(path: &str) -> BudgetTable {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("perf_budget: cannot read budgets {path}: {e}"));
    serde_json::from_str(&text)
        .unwrap_or_else(|e| panic!("perf_budget: budgets {path} do not parse: {e}"))
}

/// Asserts that the checker flags every violation class and passes a
/// clean report. A gate that cannot fail is decoration; this proves the
/// failure paths before CI trusts the success path.
fn self_test() {
    let mut budgets = BudgetTable::empty();
    budgets.max_peak_rss_kib = 1_000;
    budgets.scenarios.insert(
        "steady".to_owned(),
        ScenarioBudget {
            min_rounds_per_sec: 100.0,
            max_setup_secs: 0.5,
            max_allocs_per_round: 0.0,
        },
    );
    budgets.scenarios.insert(
        "gone".to_owned(),
        ScenarioBudget { min_rounds_per_sec: 1.0, max_setup_secs: 2.0, max_allocs_per_round: 0.0 },
    );

    let bad = PerfReport {
        schema: "cms-perf-baseline/v0".to_owned(),
        threads: 2,
        alloc_counting: false,
        peak_rss_kib: Some(2_000),
        scenarios: vec![
            PerfScenario {
                name: "steady".to_owned(),
                rounds: 64,
                rounds_per_sec: 50.0,
                setup_secs: 0.75,
                serve_rounds: Some(64),
                allocs_per_round: Some(3.0),
            },
            PerfScenario {
                name: "unbudgeted".to_owned(),
                rounds: 64,
                rounds_per_sec: 50.0,
                setup_secs: 0.1,
                serve_rounds: Some(65),
                allocs_per_round: Some(0.0),
            },
        ],
    };
    let violations = check(&bad, &budgets);
    type Flags = fn(&Violation) -> bool;
    let classes: [(&str, Flags); 10] = [
        ("floor", |v| matches!(v, Violation::TooSlow { .. })),
        ("set-up", |v| matches!(v, Violation::SetupTooSlow { .. })),
        ("allocation", |v| matches!(v, Violation::TooManyAllocs { .. })),
        ("RSS", |v| matches!(v, Violation::RssOverCeiling { .. })),
        ("missing scenario", |v| matches!(v, Violation::MissingScenario { .. })),
        ("unbudgeted scenario", |v| matches!(v, Violation::UnbudgetedScenario { .. })),
        ("missing alloc counting", |v| matches!(v, Violation::NoAllocCounting)),
        ("schema", |v| matches!(v, Violation::WrongSchema { .. })),
        ("thread count", |v| matches!(v, Violation::MultiThreaded { .. })),
        ("serve rounds", |v| matches!(v, Violation::ServeRounds { .. })),
    ];
    for (class, flagged) in classes {
        assert!(violations.iter().any(flagged), "{class} violation not flagged");
    }

    let good = PerfReport {
        schema: REPORT_SCHEMA.to_owned(),
        threads: 1,
        alloc_counting: true,
        peak_rss_kib: Some(500),
        scenarios: vec![
            PerfScenario {
                name: "steady".to_owned(),
                rounds: 64,
                rounds_per_sec: 400.0,
                setup_secs: 0.25,
                serve_rounds: Some(64),
                allocs_per_round: Some(0.0),
            },
            PerfScenario {
                name: "gone".to_owned(),
                rounds: 64,
                rounds_per_sec: 4.0,
                setup_secs: 1.5,
                serve_rounds: Some(8 * 64),
                allocs_per_round: Some(0.0),
            },
        ],
    };
    assert!(check(&good, &budgets).is_empty(), "clean report must pass");
    println!(
        "perf_budget: self-test ok (all {} violation classes flagged, clean report passes)",
        classes.len()
    );
}

fn main() -> ExitCode {
    let args = BenchArgs::parse();
    if args.flag("--self-test") {
        self_test();
        return ExitCode::SUCCESS;
    }

    let report_path = args.value("--report").unwrap_or("BENCH_engine.json");
    let budgets_path = args.value("--budgets").unwrap_or("PERF_BUDGETS.json");
    let report = load_report(report_path);

    if args.flag("--update-budgets") {
        let mut budgets = if std::path::Path::new(budgets_path).exists() {
            load_budgets(budgets_path)
        } else {
            BudgetTable::empty()
        };
        let changed = ratchet(&mut budgets, &report);
        let json = serde_json::to_string_pretty(&budgets).expect("budgets serialize");
        std::fs::write(budgets_path, format!("{json}\n")).expect("budgets file writable");
        println!("{json}");
        eprintln!(
            "perf_budget: {} {budgets_path}",
            if changed { "tightened" } else { "no change to" }
        );
        return ExitCode::SUCCESS;
    }

    let budgets = load_budgets(budgets_path);
    let violations = check(&report, &budgets);
    for (name, b) in &budgets.scenarios {
        let Some(s) = report.scenarios.iter().find(|s| &s.name == name) else {
            println!("{name:>14}: MISSING");
            continue;
        };
        println!(
            "{name:>14}: {:>12.1} r/s (floor {:.1}), set-up {:.3} ms (ceiling {:.3})",
            s.rounds_per_sec,
            b.min_rounds_per_sec,
            s.setup_secs * 1e3,
            b.max_setup_secs * 1e3
        );
    }
    if let (Some(rss), ceiling) = (report.peak_rss_kib, budgets.max_peak_rss_kib) {
        println!("{:>14}: {rss:>10} KiB  (ceiling {ceiling} KiB)", "peak RSS");
    }
    if violations.is_empty() {
        println!("perf_budget: OK — every floor and ceiling holds");
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            eprintln!("perf_budget: VIOLATION: {v}");
        }
        eprintln!(
            "perf_budget: {} violation(s); a real regression should be fixed, a deliberate \
             trade-off needs PERF_BUDGETS.json edited by hand and justified in PERF_BUDGETS.md",
            violations.len()
        );
        ExitCode::FAILURE
    }
}
