//! Renders an ASCII failure→recovery→rebuild timeline from a JSONL trace
//! exported by any simulation binary's `--trace` flag.
//!
//! Usage: `cargo run -p cms-bench --bin timeline -- <trace.jsonl> [--width N]`
//!
//! Each output line is one round (or a bucket of rounds for long traces):
//! a bar of blocks served, the arrival/admission/recovery counts, and
//! markers for the failure milestones (`FAIL`, `REPAIR`, `REBUILT`,
//! hiccups). Cluster traces get a node lane above each round's disk lane
//! (`NFAIL`/`NREPAIR`/`NREBUILT`, migrations, cross-node rebuild
//! traffic). The footer reports the [`cms_sim::TraceSummary`] roll-up
//! including the failure→first-recovery-read and failure→rebuild-complete
//! round gaps. The rendering itself lives in [`cms_bench::timeline`] and
//! is pinned by the golden snapshot test.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use cms_bench::{render_timeline, BenchArgs};

fn main() -> ExitCode {
    let args = BenchArgs::parse();
    let width = args.u64_value("--width").unwrap_or(40).clamp(10, 200) as usize;
    let raw: Vec<String> = std::env::args().skip(1).collect();
    // The trace path is the first operand that is neither a flag nor the
    // value of a value-taking flag.
    let mut path = None;
    let mut skip_next = false;
    for a in &raw {
        if skip_next {
            skip_next = false;
            continue;
        }
        if a == "--width" {
            skip_next = true;
            continue;
        }
        if !a.starts_with("--") {
            path = Some(a.clone());
            break;
        }
    }
    let Some(path) = path else {
        eprintln!("usage: timeline <trace.jsonl> [--width N]");
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("timeline: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match render_timeline(&text, width, 60) {
        Ok((rendered, bad)) => {
            if let Some((line, e)) = bad {
                eprintln!("timeline: skipped unparseable lines, the first at {path}:{line}: {e}");
            }
            println!("== trace timeline: {path} ==");
            print!("{rendered}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("timeline: {e} in {path}");
            ExitCode::FAILURE
        }
    }
}
