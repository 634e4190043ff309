//! `cms-lint` CLI.
//!
//! ```text
//! cargo run -p cms-lint                    # lint the workspace, text output
//! cargo run -p cms-lint -- --json          # machine-readable report
//! cargo run -p cms-lint -- --graph dot     # taint-colored call graph (DOT)
//! cargo run -p cms-lint -- --root <dir>
//! ```
//!
//! Exit codes: `0` clean, `1` any diagnostic (every rule is a hard
//! failure), `2` usage or I/O error.

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use cms_lint::rules::RULES;
use cms_lint::{analyze_workspace_full, graph, json_escape, Report};

struct Options {
    root: PathBuf,
    json: bool,
    graph_dot: bool,
}

fn usage() -> String {
    let mut s = String::from(
        "cms-lint: workspace determinism & hygiene analyzer\n\n\
         USAGE: cms-lint [--root DIR] [--json] [--graph dot]\n\n\
         Rules (any occurrence fails the run):\n",
    );
    for r in RULES {
        let _ = writeln!(s, "  {} {}", r.id, r.summary);
    }
    s
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut root: Option<PathBuf> = None;
    let mut json = false;
    let mut graph_dot = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--graph" => {
                let fmt = it.next().ok_or("--graph requires a format argument (dot)")?;
                if fmt != "dot" {
                    return Err(format!("unsupported --graph format `{fmt}` (only `dot`)"));
                }
                graph_dot = true;
            }
            "--root" => {
                root = Some(PathBuf::from(
                    it.next().ok_or("--root requires a directory argument")?,
                ));
            }
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument `{other}`\n\n{}", usage())),
        }
    }
    // Default to the workspace root: two levels above this crate's
    // manifest when running via `cargo run -p cms-lint`, else cwd.
    let root = root.unwrap_or_else(workspace_root_guess);
    Ok(Options { root, json, graph_dot })
}

/// `CARGO_MANIFEST_DIR/../..` if it looks like the workspace (has a
/// `crates/` dir), else the current directory.
fn workspace_root_guess() -> PathBuf {
    let compiled = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    if compiled.join("crates").is_dir() {
        return compiled;
    }
    PathBuf::from(".")
}

fn render_json(report: &Report) -> String {
    let mut s = String::from("{\n  \"diagnostics\": [\n");
    for (i, d) in report.diagnostics.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"",
            json_escape(&d.file),
            d.line,
            json_escape(&d.rule),
            json_escape(&d.message)
        );
        // Interprocedural rules carry their call-chain provenance: the
        // qualified functions from taint source to sink, in order.
        if !d.chain.is_empty() {
            s.push_str(", \"chain\": [");
            for (j, link) in d.chain.iter().enumerate() {
                if j > 0 {
                    s.push_str(", ");
                }
                let _ = write!(s, "\"{}\"", json_escape(link));
            }
            s.push(']');
        }
        s.push('}');
        s.push_str(if i + 1 < report.diagnostics.len() { ",\n" } else { "\n" });
    }
    let _ = write!(
        s,
        "  ],\n  \"files_scanned\": {},\n  \"ok\": {}\n}}\n",
        report.files_scanned,
        report.diagnostics.is_empty()
    );
    s
}

fn run() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse_args(&args)?;

    if !opts.root.join("Cargo.toml").is_file() {
        return Err(format!("no Cargo.toml under --root {}", opts.root.display()));
    }

    let analysis = analyze_workspace_full(&opts.root);
    if opts.graph_dot {
        print!("{}", graph::to_dot(&analysis.graph, &analysis.colors));
        return Ok(ExitCode::SUCCESS);
    }
    let report = analysis.report;
    for (path, err) in &report.unreadable {
        eprintln!("cms-lint: warning: could not read {path}: {err}");
    }
    let ok = report.diagnostics.is_empty();

    if opts.json {
        print!("{}", render_json(&report));
    } else {
        for d in &report.diagnostics {
            println!("{}", d.render());
        }
        let counts = RULES
            .iter()
            .map(|r| {
                let n = report.diagnostics.iter().filter(|d| d.rule == r.id).count();
                format!("{}={n}", r.id)
            })
            .collect::<Vec<_>>()
            .join(" ");
        println!(
            "cms-lint: {} files, {counts}: {}",
            report.files_scanned,
            if ok { "PASS" } else { "FAIL" }
        );
    }

    Ok(if ok { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}
