//! Byte-diff of the failure-drill trace export against the committed
//! goldens (`crates/bench/goldens/drill_trace.*.jsonl`).
//!
//! The goldens were exported by the pre-SoA, map-based engine
//! (`failure_drill --rounds 90 --threads 1 --trace drill_trace.jsonl
//! --trace-rounds 24`), so this test pins the stream-table refactor — and
//! any future hot-path change — to the exact observable event stream of
//! the original implementation: admission order, EDF drain order,
//! recovery scheduling, reconstruction completions, every round, every
//! scheme. Thread-count invariance of the same export is covered by
//! `trace_determinism` and CI's t1-vs-t8 diff; this test anchors the
//! *content*.

use std::fs;
use std::path::Path;

use cms_bench::failure_drill_traced;
use cms_sim::TraceSpec;

const SCHEMES: [&str; 6] = [
    "DeclusteredParity",
    "DynamicReservation",
    "NonClustered",
    "PrefetchFlat",
    "PrefetchParityDisks",
    "StreamingRaid",
];

#[test]
fn drill_trace_export_matches_committed_goldens() {
    let golden_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("goldens");
    let out_dir = std::env::temp_dir().join(format!("cms-drill-goldens-{}", std::process::id()));
    fs::create_dir_all(&out_dir).expect("temp dir");

    // The exact invocation that produced the goldens.
    let spec = TraceSpec::jsonl(out_dir.join("drill_trace.jsonl")).with_last_rounds(24);
    let rows = failure_drill_traced(90, 0x0DEA_D15C, 1, &spec).expect("every drill constructs");
    assert_eq!(rows.len(), SCHEMES.len(), "every scheme must run");

    for scheme in SCHEMES {
        let name = format!("drill_trace.{scheme}-p4.jsonl");
        let got = fs::read(out_dir.join(&name)).unwrap_or_else(|e| panic!("{name}: {e}"));
        let want = fs::read(golden_dir.join(&name)).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            got == want,
            "{name}: trace diverged from the committed golden ({} vs {} bytes) — \
             the engine's observable behavior changed",
            got.len(),
            want.len()
        );
    }
    let _ = fs::remove_dir_all(&out_dir);
}
