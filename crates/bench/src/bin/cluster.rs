//! Runs the cluster campaign: canned node-failure scenarios (steady
//! state, unrepaired node failure, fail→migrate→rebuild, concurrent
//! double failure, unreplicated failure) on an 8-node cluster, one JSONL
//! verdict per scenario.
//!
//! Usage: `cargo run --release -p cms-bench --bin cluster [-- --out PATH] [--jobs N] [--scenario NAME] [--list] [--rounds N] [--seed S] [--threads T]`
//!
//! `--jobs` is the number of cluster simulations in flight at once (0 =
//! one per task); `--threads` is each cluster's node-stepping worker
//! count. Neither changes a byte of the output — CI regenerates the
//! sweep at `--jobs 1` and `--jobs 8 --threads 4` and diffs both against
//! the committed golden (`crates/bench/goldens/cluster_campaign.jsonl`).
//! Regenerate the golden with:
//!
//! ```text
//! cargo run --release -p cms-bench --bin cluster -- --out crates/bench/goldens/cluster_campaign.jsonl
//! ```

#![forbid(unsafe_code)]

use cms_bench::{cluster_campaign_rows, to_jsonl, BenchArgs, CLUSTER_SCENARIOS};

fn main() {
    let args = BenchArgs::parse();
    if args.flag("--list") {
        for sc in &CLUSTER_SCENARIOS {
            let spec = if sc.spec.is_empty() { "(fault-free)" } else { sc.spec };
            println!("{:<24} r={} {}", sc.name, sc.replication, spec.replace('\n', "; "));
        }
        return;
    }
    let rounds = args.rounds_or(120);
    let seed = args.seed_or(7);
    let jobs = args.u64_value("--jobs").unwrap_or(0) as usize;
    let filter = args.value("--scenario");
    let out = args.value("--out");
    let rows = cluster_campaign_rows(rounds, seed, jobs, args.threads().max(1), filter);
    if let Some(f) = filter.filter(|_| rows.is_empty()) {
        BenchArgs::usage_error(&format!("unknown scenario '{f}' for --scenario; try --list"));
    }
    let jsonl = to_jsonl(&rows);
    match out {
        Some(path) => {
            std::fs::write(path, &jsonl)
                .unwrap_or_else(|e| panic!("cluster: cannot write {path}: {e}"));
            eprintln!("cluster: wrote {} rows to {path}", rows.len());
        }
        None => print!("{jsonl}"),
    }
    // Invariants every sweep must uphold, whatever the flags: surviving
    // streams never glitch, and arrivals are fully accounted for.
    for r in &rows {
        assert_eq!(r.hiccups, 0, "{}: a surviving stream glitched", r.scenario);
        assert_eq!(
            r.arrivals,
            r.routed + r.cluster_refusals + r.unroutable,
            "{}: arrivals not conserved",
            r.scenario
        );
    }
}
