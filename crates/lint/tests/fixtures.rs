//! The fixture workspace under `fixtures/ws` contains one known-bad
//! snippet per rule; this test locks the analyzer to the exact
//! `file:line:rule` set in `fixtures/expected.txt`.

use std::path::Path;

#[test]
fn fixture_workspace_produces_exactly_the_expected_diagnostics() {
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let report = cms_lint::analyze_workspace(&fixtures.join("ws"));
    assert!(report.unreadable.is_empty(), "unreadable: {:?}", report.unreadable);

    let actual: Vec<String> = report
        .diagnostics
        .iter()
        .map(|d| format!("{}:{}:{}", d.file, d.line, d.rule))
        .collect();
    let expected: Vec<String> = std::fs::read_to_string(fixtures.join("expected.txt"))
        .expect("expected.txt readable")
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect();
    assert_eq!(actual, expected, "full diagnostics: {:#?}", report.diagnostics);

    // The test-class fixture file must contribute nothing, and neither
    // may the file that lib.rs brings in by `#[cfg(test)] mod helpers;`.
    assert!(report.diagnostics.iter().all(|d| !d.file.contains("tests/")));
    assert!(report.diagnostics.iter().all(|d| d.file != "crates/sim/src/helpers.rs"));
    // Every rule of the catalogue except D002-in-bench appears at least
    // once, so the fixtures exercise the whole catalogue.
    for rule in ["D001", "D002", "D003", "P001", "P002", "P003", "H001", "L000", "D004", "D005"] {
        assert!(
            report.diagnostics.iter().any(|d| d.rule == rule),
            "no fixture covers {rule}"
        );
    }

    // The interprocedural findings must carry full source-to-sink
    // provenance. D004: the fixture chain crosses from the deterministic
    // crate into the timing crate, two calls deep.
    let d004 = report
        .diagnostics
        .iter()
        .find(|d| d.rule == "D004")
        .expect("D004 fixture finding");
    assert_eq!(
        d004.chain,
        vec![
            "cms-sim::taint::tainted_entry",
            "cms-bench::clock::wrap_stamp",
            "cms-bench::clock::stamp_now",
        ],
        "D004 chain: {:?}",
        d004.chain
    );
    assert!(d004.message.contains("Instant::now"), "{}", d004.message);
    assert!(
        d004.message.contains("crates/bench/src/clock.rs:5"),
        "sink location in message: {}",
        d004.message
    );
    // P003: hot root -> allocating helper, in one file and across files
    // (a `rebuild.rs` is library code, not a build script).
    let p003 = |file: &str| {
        report
            .diagnostics
            .iter()
            .find(|d| d.rule == "P003" && d.file == file)
            .expect("P003 fixture finding")
    };
    let p003_taint = p003("crates/sim/src/taint.rs");
    assert_eq!(
        p003_taint.chain,
        vec!["cms-sim::taint::hot_entry", "cms-sim::taint::helper_fill"],
        "P003 chain: {:?}",
        p003_taint.chain
    );
    assert!(p003_taint.message.contains("Vec::new"), "{}", p003_taint.message);
    let p003_rebuild = p003("crates/sim/src/rebuild.rs");
    assert_eq!(
        p003_rebuild.chain,
        vec!["cms-sim::round::Engine::deliver", "cms-sim::rebuild::Engine::retire_block"],
        "P003 chain: {:?}",
        p003_rebuild.chain
    );
    // Rendered form carries the chain for grep-ability.
    assert!(
        d004.render().contains("[via cms-sim::taint::tainted_entry -> "),
        "{}",
        d004.render()
    );
}
