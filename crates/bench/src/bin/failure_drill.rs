//! Regenerates experiment E7: a disk is killed mid-run under the paper's
//! workload with byte-level reconstruction verification on. The five
//! guarantee schemes must report zero hiccups and zero parity mismatches;
//! the non-clustered baseline is allowed (expected, under saturation) to
//! glitch — the §7.4 caveat.
//!
//! Usage: `cargo run --release -p cms-bench --bin failure_drill [-- --json] [--rounds N] [--threads T] [--trace PATH] [--trace-rounds N]`
//!
//! `--threads` sets the disk-service worker count (0 = available
//! parallelism, 1 = sequential); the numbers are identical at any setting.
//! `--trace` exports each scheme's failure→recovery→rebuild event stream
//! (JSONL, or CSV when the path ends in `.csv`) to its own file; feed a
//! JSONL file to the `timeline` binary to render the drill. The exported
//! streams are byte-identical at any `--threads` setting.

#![forbid(unsafe_code)]

use cms_bench::{failure_drill_traced, BenchArgs};
use cms_core::Scheme;

fn main() {
    let args = BenchArgs::parse();
    let rounds = args.rounds_or(300);
    let rows = match failure_drill_traced(rounds, 0x0DEA_D15C, args.threads(), &args.trace_spec()) {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("failure_drill: {e}");
            std::process::exit(1);
        }
    };
    if args.json() {
        println!("{}", serde_json::to_string_pretty(&rows).expect("serializable"));
        return;
    }
    println!("== Failure drill: disk 5 killed at round {}, verification on ==", rounds / 3);
    println!(
        "{:<34} {:>8} {:>8} {:>9} {:>8} {:>8} {:>10}",
        "scheme", "admitted", "recons", "recovery", "hiccups", "parityΔ", "guarantee"
    );
    for r in &rows {
        println!(
            "{:<34} {:>8} {:>8} {:>9} {:>8} {:>8} {:>10}",
            r.scheme.label(),
            r.metrics.admitted,
            r.metrics.reconstructions,
            r.metrics.recovery_reads,
            r.metrics.hiccups,
            r.metrics.parity_mismatches,
            if r.metrics.guarantees_held() { "HELD" } else { "BROKEN" }
        );
        if r.scheme != Scheme::NonClustered {
            assert!(
                r.metrics.guarantees_held(),
                "{}: a guarantee scheme broke its promise",
                r.scheme
            );
        }
        assert_eq!(r.metrics.parity_mismatches, 0, "{}: corrupt reconstruction", r.scheme);
    }
}
