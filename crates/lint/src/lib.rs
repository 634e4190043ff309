//! `cms-lint` — workspace determinism & hygiene analyzer.
//!
//! A from-scratch static-analysis pass (hand-rolled tokenizer, no `syn`)
//! that enforces the two contracts this workspace lives by:
//!
//! 1. **Bit-identical replay** (DESIGN.md §5): simulation metrics must not
//!    depend on hash iteration order, wall clocks, OS entropy, or thread
//!    interleaving. Rules D001/D002/D003.
//! 2. **No-panic fault paths**: the paper's fault-tolerance claims
//!    (Özden et al., SIGMOD 1996) are void if an injected disk failure
//!    panics the server loop. Rule P001. Rule H001 keeps every crate
//!    `#![forbid(unsafe_code)]`.
//!
//! Every rule is a hard failure. The library half exposes the tokenizer,
//! rule engine, call graph and workspace walker; the binary
//! (`src/main.rs`) wires them into a CLI with text and `--json` output.

#![forbid(unsafe_code)]

pub mod graph;
pub mod rules;
pub mod taint;
pub mod tokenizer;
pub mod workspace;

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::Path;

use rules::Diagnostic;
use tokenizer::{AllowDirective, Lexed};
use workspace::{FileClass, SourceFile};

/// Result of analyzing a whole workspace.
#[derive(Debug, Default)]
pub struct Report {
    /// Every diagnostic, sorted by (file, line, rule).
    pub diagnostics: Vec<Diagnostic>,
    /// Files analyzed.
    pub files_scanned: usize,
    /// Files that could not be read (path, error) — reported, never fatal.
    pub unreadable: Vec<(String, String)>,
}

/// Full analysis: token-level report, the workspace call graph, and
/// per-node taint colors for the DOT export.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Token-level **and** interprocedural diagnostics, merged + sorted.
    pub report: Report,
    /// The resolved call graph.
    pub graph: graph::CallGraph,
    /// Taint color per graph node (same indexing as `graph.fns`).
    pub colors: Vec<graph::NodeColor>,
}

/// Runs every rule over every source file of the workspace at `root`.
#[must_use]
pub fn analyze_workspace(root: &Path) -> Report {
    analyze_workspace_full(root).report
}

/// Runs the full pipeline — token rules, call-graph construction, and
/// the D004/P003 reachability rules — over the workspace at `root`.
#[must_use]
pub fn analyze_workspace_full(root: &Path) -> Analysis {
    analyze_files_full(&workspace::discover(root), &workspace::crate_deps(root))
}

/// Runs every rule over an explicit file list (used by fixture tests).
/// Interprocedural rules see only the listed files; `deps` bounds
/// cross-crate call resolution.
#[must_use]
pub fn analyze_files_full(
    files: &[SourceFile],
    deps: &BTreeMap<String, BTreeSet<String>>,
) -> Analysis {
    let mut analysis = Analysis::default();
    let report = &mut analysis.report;

    // Read + lex each file exactly once; the token rules and the graph
    // builder share the stream.
    let mut lexed_files: Vec<(SourceFile, Lexed)> = Vec::new();
    for file in files {
        match fs::read_to_string(&file.abs_path) {
            Ok(src) => {
                report.files_scanned += 1;
                lexed_files.push((file.clone(), tokenizer::tokenize(&src)));
            }
            Err(e) => report.unreadable.push((file.rel_path.clone(), e.to_string())),
        }
    }
    // A file brought in by `#[cfg(test)] mod name;` is test code, whatever
    // its path says.
    let test_modules: BTreeSet<String> = lexed_files
        .iter()
        .flat_map(|(f, l)| rules::test_module_files(f, &l.tokens))
        .collect();
    for (file, _) in &mut lexed_files {
        if test_modules.contains(&file.rel_path) {
            file.class = FileClass::Test;
        }
    }
    for (file, lexed) in &lexed_files {
        report.diagnostics.extend(rules::analyze_lexed(file, lexed));
    }

    let pairs: Vec<(&SourceFile, &Lexed)> = lexed_files.iter().map(|(f, l)| (f, l)).collect();
    analysis.graph = graph::build(&pairs, deps);
    let allows: BTreeMap<String, Vec<AllowDirective>> = lexed_files
        .iter()
        .map(|(f, l)| (f.rel_path.clone(), l.allows.clone()))
        .collect();
    let taint = taint::analyze(&analysis.graph, &allows);
    report.diagnostics.extend(taint.diagnostics);
    analysis.colors = taint.colors;

    report
        .diagnostics
        .sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    analysis
}

/// Runs every rule over an explicit file list (used by fixture tests).
/// `deps` for the interprocedural rules is each crate seeing every other
/// listed crate — fixture trees don't always carry manifests.
#[must_use]
pub fn analyze_files(files: &[SourceFile]) -> Report {
    let crates: BTreeSet<String> = files.iter().map(|f| f.crate_name.clone()).collect();
    let deps: BTreeMap<String, BTreeSet<String>> =
        crates.iter().map(|c| (c.clone(), crates.clone())).collect();
    analyze_files_full(files, &deps).report
}

/// Escapes a string for inclusion in a JSON document. The output is
/// hand-emitted (the vendored `serde_json` facade is emit-oriented too,
/// and the lint tool must not depend on workspace crates it lints).
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let mut buf = String::new();
                use std::fmt::Write as _;
                let _ = write!(buf, "\\u{:04x}", c as u32);
                out.push_str(&buf);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(json_escape("plain"), "plain");
    }
}
