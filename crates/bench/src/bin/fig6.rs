//! Regenerates Figure 6: simulated clips serviced in 600 time units vs
//! parity group size (Poisson λ = 20, 1000 clips × 50 rounds), five
//! schemes, two buffer sizes.
//!
//! Usage: `cargo run --release -p cms-bench --bin fig6 [-- --json] [--rounds N] [--seed S] [--threads T] [--trace PATH] [--trace-rounds N]`
//!
//! `--threads` sets the disk-service worker count (0 = available
//! parallelism, 1 = sequential); the numbers are identical at any setting.
//! `--trace` exports a per-run event stream (JSONL, or CSV when the path
//! ends in `.csv`) with each run's `(buffer, scheme, p)` label inserted
//! into the file name; `--trace-rounds N` keeps only the last N rounds.

#![forbid(unsafe_code)]

use cms_bench::{fig6_rows_traced, BenchArgs, PAPER_PS};
use cms_core::Scheme;

fn main() {
    let args = BenchArgs::parse();
    let rounds = args.rounds_or(600);
    let seed = args.seed_or(0x51_6D0D);
    let rows = match fig6_rows_traced(rounds, seed, args.threads(), &args.trace_spec()) {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("fig6: {e}");
            std::process::exit(1);
        }
    };
    if args.json() {
        println!("{}", serde_json::to_string_pretty(&rows).expect("serializable"));
        return;
    }
    for (label, _) in cms_bench::PAPER_BUFFERS {
        println!("== Figure 6, B = {label} — clips serviced in {rounds} time units (simulated) ==");
        print!("{:<34}", "scheme");
        for p in PAPER_PS {
            print!("{:>8}", format!("p={p}"));
        }
        println!();
        for scheme in Scheme::FIGURE_SCHEMES {
            print!("{:<34}", scheme.label());
            for p in PAPER_PS {
                match rows
                    .iter()
                    .find(|r| r.buffer == label && r.scheme == scheme && r.p == p)
                {
                    Some(r) => {
                        assert_eq!(
                            r.metrics.hiccups, 0,
                            "{scheme} p={p}: fault-free run must not hiccup"
                        );
                        print!("{:>8}", r.metrics.admitted);
                    }
                    None => print!("{:>8}", "-"),
                }
            }
            println!();
        }
        println!();
    }
}
