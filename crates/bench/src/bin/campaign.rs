//! Runs the fault-schedule campaign: canned multi-event failure
//! scenarios (hard failures, failure-during-rebuild, transient outages,
//! same-group double failures, slow-disk windows) swept across a
//! declustered, a clustered and the no-redundancy scheme, one JSONL
//! verdict per run.
//!
//! Usage: `cargo run --release -p cms-bench --bin campaign [-- --out PATH] [--jobs N] [--scenario NAME] [--list] [--rounds N] [--seed S] [--threads T]`
//!
//! `--jobs` is the number of simulations in flight at once (0 = one per
//! task); `--threads` is each simulation's disk-service worker count.
//! Neither changes a byte of the output — CI regenerates the sweep at
//! `--jobs 1` and `--jobs 8` and diffs both against the committed
//! golden (`crates/bench/goldens/campaign.jsonl`). Regenerate the
//! golden with:
//!
//! ```text
//! cargo run --release -p cms-bench --bin campaign -- --out crates/bench/goldens/campaign.jsonl
//! ```

#![forbid(unsafe_code)]

use cms_bench::campaign::{campaign_rows, SCENARIOS};
use cms_bench::{to_jsonl, BenchArgs};

fn main() {
    let args = BenchArgs::parse();
    if args.flag("--list") {
        for sc in &SCENARIOS {
            println!("{:<28} {}", sc.name, sc.spec.replace('\n', "; "));
        }
        return;
    }
    let rounds = args.rounds_or(120);
    let seed = args.seed_or(7);
    let jobs = args.u64_value("--jobs").unwrap_or(0) as usize;
    let filter = args.value("--scenario");
    let out = args.value("--out");
    let rows = campaign_rows(rounds, seed, jobs, args.threads().max(1), filter);
    if let Some(f) = filter.filter(|_| rows.is_empty()) {
        BenchArgs::usage_error(&format!("unknown scenario '{f}' for --scenario; try --list"));
    }
    let jsonl = to_jsonl(&rows);
    match out {
        Some(path) => {
            std::fs::write(path, &jsonl)
                .unwrap_or_else(|e| panic!("campaign: cannot write {path}: {e}"));
            eprintln!("campaign: wrote {} rows to {path}", rows.len());
        }
        None => print!("{jsonl}"),
    }
    // Invariants every sweep must uphold, whatever the flags: verified
    // reconstructions never mismatch, and a lost stream is always the
    // result of a multi-failure scenario.
    for r in &rows {
        assert_eq!(r.parity_mismatches, 0, "{}/{}: corrupt reconstruction", r.scenario, r.scheme);
    }
}
