//! The rule catalogue and per-file analysis pass.
//!
//! Every rule is project-specific: it encodes a clause of the workspace's
//! determinism / no-panic contract (DESIGN.md §5) rather than generic
//! style. The catalogue:
//!
//! | id   | meaning                                                        | scope                              |
//! |------|----------------------------------------------------------------|------------------------------------|
//! | D001 | `HashMap`/`HashSet` (nondeterministic iteration order)         | lib code of the deterministic crates |
//! | D002 | wall-clock / entropy (`Instant::now`, `SystemTime`, `thread_rng`) | lib + bin code outside `cms-bench` |
//! | D003 | unordered parallel float reduction (folding `join()`ed worker results with float `sum`/`fold`/`reduce` in one expression) | lib code everywhere |
//! | P001 | `.unwrap()` / `.expect(…)` / `panic!` in library code          | lib code everywhere                |
//! | P002 | heap allocation (`Vec::new`, `vec![…]`, `.collect()`) inside a function marked `// lint: hot` | lib code of the deterministic crates |
//! | H001 | crate root missing `#![forbid(unsafe_code)]`                   | every crate root                   |
//! | L000 | `lint: allow(…)` directive without a reason                    | anywhere a directive appears       |
//! | D004 | deterministic-crate function *transitively* reaching a D002 sink through the workspace call graph | lib code of the deterministic crates |
//! | P003 | heap allocation in a function *transitively reachable* from a `// lint: hot` function | lib code, closure rooted in deterministic-crate hot functions |
//! | D005 | `Mutex`/`RwLock`/`Atomic*` shared state, a non-SeqCst atomic ordering, or threading outside the worker pool (`thread::spawn`/`scope`/`Builder`, `mpsc`, `Condvar`, `Barrier`) | lib code of the deterministic crates |
//!
//! Every rule is a hard failure: any occurrence the escape hatch below
//! does not cover fails the run.
//!
//! D004 and P003 are interprocedural: they run on the workspace call
//! graph (`graph`/`taint` modules) and carry the source→sink call chain
//! in [`Diagnostic::chain`]. D005 is lexical, like D001.
//!
//! Escape hatch: `// lint: allow(RULE) reason` on the offending line or
//! the line directly above suppresses that rule there;
//! `// lint: allow-file(RULE) reason` suppresses it for the whole file.
//! The reason is mandatory either way (a bare directive suppresses
//! nothing and trips L000). `#[cfg(test)]` items, modules under an
//! inner `#![cfg(test)]`, files brought in by `#[cfg(test)] mod name;`,
//! and `tests/`, `benches/`, `examples/` sources are outside the
//! contract and skipped.
//!
//! Opt-in marker: a bare `// lint: hot` comment directly above (or on the
//! first line of) a function declares it steady-state hot; P002 then holds
//! that function's body to the zero-allocation contract of DESIGN.md §7.

use crate::tokenizer::{tokenize, AllowDirective, Lexed, Tok, TokKind};
use crate::workspace::{FileClass, SourceFile};

/// Crates bound by the bit-identical replay contract: rule D001 applies
/// to their library code. `cms-trace` is included because exported event
/// streams carry the same byte-identical promise as the metrics
/// (DESIGN.md §6).
pub const DETERMINISTIC_CRATES: [&str; 9] = [
    "cms-sim",
    "cms-disk",
    "cms-admission",
    "cms-core",
    "cms-server",
    "cms-trace",
    "cms-fault",
    "cms-conformance",
    "cms-cluster",
];

/// The only crate allowed to read wall clocks or OS entropy (it measures
/// real time by design).
pub const TIMING_CRATE: &str = "cms-bench";

/// Static description of one rule.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable rule id, e.g. `P001`.
    pub id: &'static str,
    /// One-line rationale.
    pub summary: &'static str,
}

/// The full catalogue, in report order.
pub const RULES: [RuleInfo; 10] = [
    RuleInfo {
        id: "D001",
        summary: "HashMap/HashSet iteration order is nondeterministic; use BTreeMap/BTreeSet or sort before iterating",
    },
    RuleInfo {
        id: "D002",
        summary: "wall-clock/entropy source (Instant::now, SystemTime, thread_rng) outside cms-bench breaks replay",
    },
    RuleInfo {
        id: "D003",
        summary: "float reduction folded directly over thread join() results; collect and merge in disk-ID order",
    },
    RuleInfo {
        id: "P001",
        summary: "unwrap/expect/panic! in library code can turn a recoverable disk failure into a crash",
    },
    RuleInfo {
        id: "P002",
        summary: "heap allocation (Vec::new, vec![], .collect()) inside a `// lint: hot` function; reuse a scratch buffer (DESIGN.md §7)",
    },
    RuleInfo {
        id: "H001",
        summary: "crate root missing #![forbid(unsafe_code)]",
    },
    RuleInfo {
        id: "L000",
        summary: "lint: allow(...) directive without a mandatory reason",
    },
    RuleInfo {
        id: "D004",
        summary: "deterministic-crate function transitively reaches a wall-clock/entropy sink through the workspace call graph",
    },
    RuleInfo {
        id: "P003",
        summary: "heap allocation in a function transitively reachable from a `// lint: hot` function (interprocedural closure of P002)",
    },
    RuleInfo {
        id: "D005",
        summary: "Mutex/RwLock/Atomic* shared state, non-SeqCst ordering, or threading outside cms_sim::pool in deterministic-crate lib code risks interleaving-dependent replay",
    },
];

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule id from the catalogue.
    pub rule: String,
    /// Human-readable description of this occurrence.
    pub message: String,
    /// Call-chain provenance for interprocedural rules (D004/P003):
    /// qualified function names from the taint source to the sink.
    /// Empty for token-level rules.
    pub chain: Vec<String>,
}

impl Diagnostic {
    /// A token-level diagnostic (no call-chain provenance).
    #[must_use]
    pub fn new(file: &str, line: u32, rule: &str, message: String) -> Diagnostic {
        Diagnostic {
            file: file.to_string(),
            line,
            rule: rule.to_string(),
            message,
            chain: Vec::new(),
        }
    }

    /// `file:line:rule message` — the grep-able text form. Interprocedural
    /// findings append their call chain as ` [via a -> b -> c]`.
    #[must_use]
    pub fn render(&self) -> String {
        if self.chain.is_empty() {
            format!("{}:{}:{} {}", self.file, self.line, self.rule, self.message)
        } else {
            format!(
                "{}:{}:{} {} [via {}]",
                self.file,
                self.line,
                self.rule,
                self.message,
                self.chain.join(" -> ")
            )
        }
    }
}

/// Token indices covered by `#[cfg(test)]` items (the attribute plus the
/// item it decorates, through its closing brace or semicolon) and by
/// modules under an inner `#![cfg(test)]` (the rest of the module: the
/// whole file for an out-of-line `mod tests;`). Shared with the
/// call-graph extractor, which must not index test functions.
pub(crate) fn test_region_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        let inner = toks.get(i + 1).is_some_and(|t| t.is_punct('!'));
        let open = i + 1 + usize::from(inner);
        if toks[i].is_punct('#') && toks.get(open).is_some_and(|t| t.is_punct('[')) {
            // Find the closing ']' of the attribute and look for
            // cfg(... test ...) inside it.
            let mut depth = 0i32;
            let mut j = open;
            let mut has_cfg = false;
            let mut has_test = false;
            while j < toks.len() {
                let t = &toks[j];
                if t.is_punct('[') {
                    depth += 1;
                } else if t.is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if t.is_ident("cfg") {
                    has_cfg = true;
                } else if t.is_ident("test") {
                    has_test = true;
                }
                j += 1;
            }
            if has_cfg && has_test && j < toks.len() {
                // Mask the attribute and the following item: everything
                // up to the matching '}' of its first brace block, or the
                // first top-level ';' if none opens. An inner attribute
                // covers its module instead: up to the '}' that closes
                // the enclosing block, or the end of the file.
                let mut k = j + 1;
                let mut brace = 0i32;
                let mut entered = inner;
                let close = if inner { -1 } else { 0 };
                while k < toks.len() {
                    let t = &toks[k];
                    if t.is_punct('{') {
                        brace += 1;
                        entered = true;
                    } else if t.is_punct('}') {
                        brace -= 1;
                        if entered && brace == close {
                            break;
                        }
                    } else if t.is_punct(';') && !entered {
                        break;
                    }
                    k += 1;
                }
                for m in mask.iter_mut().take((k + 1).min(toks.len())).skip(i) {
                    *m = true;
                }
                i = k + 1;
                continue;
            }
            i = j + 1;
            continue;
        }
        i += 1;
    }
    mask
}

/// Workspace-relative paths of the files that the `#[cfg(test)] mod
/// name;` items of `file` bring in: `name.rs` and `name/mod.rs` in the
/// declaring module's directory (the file's own directory for `lib.rs`,
/// `main.rs`, `mod.rs` and `src/bin/*.rs`, else the directory named
/// after the file). Only file-level declarations count.
pub(crate) fn test_module_files(file: &SourceFile, toks: &[Tok]) -> Vec<String> {
    let Some((parent, name)) = file.rel_path.rsplit_once('/') else { return Vec::new() };
    let stem = name.trim_end_matches(".rs");
    let dir = if matches!(stem, "lib" | "main" | "mod") || parent.ends_with("src/bin") {
        parent.to_string()
    } else {
        format!("{parent}/{stem}")
    };
    let mask = test_region_mask(toks);
    let mut depth = 0i32;
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
        } else if depth == 0 && mask[i] && t.is_ident("mod") {
            if let [module, semi, ..] = &toks[i + 1..] {
                if module.kind == TokKind::Ident && semi.is_punct(';') {
                    out.push(format!("{dir}/{}.rs", module.text));
                    out.push(format!("{dir}/{}/mod.rs", module.text));
                }
            }
        }
    }
    out
}

/// Token indices covered by functions declared hot with a `// lint: hot`
/// marker. A marker on line `L` claims the function whose `fn` keyword
/// sits on `L` or `L + 1` (same placement contract as `allowed`); the
/// region runs from that keyword through the function body's closing
/// brace. Markers with no adjacent `fn` claim nothing.
fn hot_region_mask(toks: &[Tok], hots: &[u32]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    for &marker in hots {
        let Some(start) = toks.iter().position(|t| {
            t.is_ident("fn") && (t.line == marker || t.line == marker + 1)
        }) else {
            continue;
        };
        let mut brace = 0i32;
        let mut entered = false;
        let mut end = start;
        for (k, t) in toks.iter().enumerate().skip(start) {
            if t.is_punct('{') {
                brace += 1;
                entered = true;
            } else if t.is_punct('}') {
                brace -= 1;
                if entered && brace == 0 {
                    end = k;
                    break;
                }
            } else if t.is_punct(';') && !entered {
                // Signature-only item (trait method): nothing to claim.
                end = start;
                break;
            }
            end = k;
        }
        for m in &mut mask[start..=end] {
            *m = true;
        }
    }
    mask
}

/// Is a diagnostic of `rule_id` on `line` suppressed by a well-formed
/// allow directive (same line or the line above, or a file-scoped
/// `allow-file` anywhere in the file)? Shared with the taint pass.
pub(crate) fn allowed(allows: &[AllowDirective], rule_id: &str, line: u32) -> bool {
    allows.iter().any(|a| {
        a.rule == rule_id
            && a.has_reason
            && (a.file_scope || a.line == line || a.line + 1 == line)
    })
}

/// Analyzes one file's source text against the catalogue.
#[must_use]
pub fn analyze_source(file: &SourceFile, src: &str) -> Vec<Diagnostic> {
    analyze_lexed(file, &tokenize(src))
}

/// Analyzes an already-lexed file (the full-workspace pass lexes each
/// file exactly once and shares the stream with the call-graph builder).
#[must_use]
pub fn analyze_lexed(file: &SourceFile, lexed: &Lexed) -> Vec<Diagnostic> {
    let toks = &lexed.tokens;
    let mask = test_region_mask(toks);
    let hot = hot_region_mask(toks, &lexed.hots);
    let mut out: Vec<Diagnostic> = Vec::new();

    let mut push = |rule_id: &str, line: u32, message: String| {
        if !allowed(&lexed.allows, rule_id, line) {
            out.push(Diagnostic::new(&file.rel_path, line, rule_id, message));
        }
    };

    // L000: malformed escape hatches, independent of any other finding.
    for a in &lexed.allows {
        if !a.has_reason {
            push(
                "L000",
                a.line,
                format!("allow({}) without a reason; the reason is mandatory", a.rule),
            );
        }
    }

    // H001: crate roots must forbid unsafe code.
    if file.is_crate_root() && !has_forbid_unsafe(toks) {
        push("H001", 1, "crate root missing #![forbid(unsafe_code)]".to_string());
    }

    let lib_code = file.class == FileClass::Lib;
    let lintable = lib_code || file.class == FileClass::Bin;

    let deterministic =
        DETERMINISTIC_CRATES.contains(&file.crate_name.as_str()) && lib_code;
    let clock_scoped = file.crate_name != TIMING_CRATE && lintable;

    for (i, t) in toks.iter().enumerate() {
        if mask[i] || t.kind != TokKind::Ident {
            continue;
        }
        let prev_dot = i > 0 && toks[i - 1].is_punct('.');
        let next = toks.get(i + 1);

        // D001 — nondeterministic iteration order.
        if deterministic && (t.text == "HashMap" || t.text == "HashSet") {
            push(
                "D001",
                t.line,
                format!(
                    "{} in deterministic crate {}; use BTree{} or sort before iterating",
                    t.text,
                    file.crate_name,
                    if t.text == "HashMap" { "Map" } else { "Set" }
                ),
            );
        }

        // D005 — replay-hazard shared state: locks, atomics, or a
        // non-SeqCst ordering make an outcome a function of thread
        // interleaving, which the §5 contract forbids in deterministic
        // lib code. Threads and their channels and barriers belong to
        // the worker pool alone (`cms_sim::pool`, whose chunks merge in
        // a fixed order); it and vetted measurement plumbing document
        // themselves via `lint: allow-file(D005) reason`.
        if deterministic {
            let is_lock = t.text == "Mutex" || t.text == "RwLock";
            let is_atomic = t.text.len() > "Atomic".len() && t.text.starts_with("Atomic");
            let after = |path: &str| {
                i >= 3
                    && toks[i - 1].is_punct(':')
                    && toks[i - 2].is_punct(':')
                    && toks[i - 3].is_ident(path)
            };
            let weak_ordering =
                matches!(t.text.as_str(), "Relaxed" | "Acquire" | "Release" | "AcqRel")
                    && after("Ordering");
            let threading = matches!(t.text.as_str(), "mpsc" | "Condvar" | "Barrier")
                || (matches!(t.text.as_str(), "spawn" | "scope" | "Builder") && after("thread"));
            if is_lock || is_atomic || weak_ordering || threading {
                let what = if weak_ordering {
                    format!("Ordering::{}", t.text)
                } else if threading && after("thread") {
                    format!("thread::{}", t.text)
                } else {
                    t.text.clone()
                };
                push(
                    "D005",
                    t.line,
                    format!(
                        "`{what}` in deterministic crate {}: shared mutable state keyed to thread interleaving breaks bit-identical replay",
                        file.crate_name
                    ),
                );
            }
        }

        // D002 — wall clock / entropy.
        if clock_scoped {
            let instant_now = t.text == "Instant"
                && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
                && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
                && toks.get(i + 3).is_some_and(|t| t.is_ident("now"));
            if instant_now || t.text == "SystemTime" || t.text == "thread_rng" {
                push(
                    "D002",
                    t.line,
                    format!(
                        "wall-clock/entropy source `{}` outside {TIMING_CRATE} breaks seeded replay",
                        if instant_now { "Instant::now" } else { t.text.as_str() }
                    ),
                );
            }
        }

        // D003 — unordered parallel float reduction: join() folded with a
        // float sum/fold/reduce inside one statement.
        if lib_code && t.text == "join" && next.is_some_and(|t| t.is_punct('(')) {
            let mut j = i + 1;
            let mut float_seen = false;
            let mut reducer: Option<(&Tok, &'static str)> = None;
            while j < toks.len() && !toks[j].is_punct(';') {
                let u = &toks[j];
                match u.kind {
                    TokKind::Num if u.text.contains('.') || u.text.contains('e') => {
                        float_seen = true;
                    }
                    TokKind::Ident if u.text == "f64" || u.text == "f32" => {
                        float_seen = true;
                    }
                    TokKind::Ident
                        if matches!(u.text.as_str(), "sum" | "fold" | "reduce")
                            && j > 0
                            && toks[j - 1].is_punct('.') =>
                    {
                        let name: &'static str = match u.text.as_str() {
                            "sum" => "sum",
                            "fold" => "fold",
                            _ => "reduce",
                        };
                        reducer = Some((u, name));
                    }
                    _ => {}
                }
                j += 1;
            }
            if float_seen {
                if let Some((at, name)) = reducer {
                    push(
                        "D003",
                        at.line,
                        format!(
                            "float `{name}` folded directly over join() results; collect per-disk values and merge in disk-ID order"
                        ),
                    );
                }
            }
        }

        // P002 — heap allocation on a declared hot path.
        if deterministic && hot[i] {
            let call = next.is_some_and(|t| t.is_punct('('));
            let path = next.is_some_and(|t| t.is_punct(':'))
                && toks.get(i + 2).is_some_and(|t| t.is_punct(':'));
            let vec_new = t.text == "Vec"
                && path
                && toks.get(i + 3).is_some_and(|t| t.is_ident("new"));
            let vec_macro = t.text == "vec" && next.is_some_and(|t| t.is_punct('!'));
            let collect = t.text == "collect" && prev_dot && (call || path);
            if vec_new || vec_macro || collect {
                let what = if vec_new {
                    "Vec::new()"
                } else if vec_macro {
                    "vec![]"
                } else {
                    ".collect()"
                };
                push(
                    "P002",
                    t.line,
                    format!(
                        "{what} inside a `lint: hot` function; reuse a caller-owned scratch buffer"
                    ),
                );
            }
        }

        // P001 — panicking calls in library code.
        if lib_code {
            let call = next.is_some_and(|t| t.is_punct('('));
            if prev_dot && call && (t.text == "unwrap" || t.text == "expect") {
                push("P001", t.line, format!(".{}() in library code", t.text));
            } else if t.text == "panic" && next.is_some_and(|t| t.is_punct('!')) {
                push("P001", t.line, "panic! in library code".to_string());
            }
        }
    }

    out.sort_by(|a, b| (a.line, &a.rule).cmp(&(b.line, &b.rule)));
    out
}

/// Does the token stream contain the inner attribute
/// `#![forbid(unsafe_code)]`?
fn has_forbid_unsafe(toks: &[Tok]) -> bool {
    toks.windows(8).any(|w| {
        w[0].is_punct('#')
            && w[1].is_punct('!')
            && w[2].is_punct('[')
            && w[3].is_ident("forbid")
            && w[4].is_punct('(')
            && w[5].is_ident("unsafe_code")
            && w[6].is_punct(')')
            && w[7].is_punct(']')
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn file(rel: &str, class: FileClass, krate: &str) -> SourceFile {
        SourceFile {
            rel_path: rel.to_string(),
            abs_path: PathBuf::from(rel),
            class,
            crate_name: krate.to_string(),
        }
    }

    fn sim_lib() -> SourceFile {
        file("crates/sim/src/engine.rs", FileClass::Lib, "cms-sim")
    }

    fn rules_of(d: &[Diagnostic]) -> Vec<(String, u32)> {
        d.iter().map(|d| (d.rule.clone(), d.line)).collect()
    }

    #[test]
    fn d001_fires_only_in_deterministic_lib_code() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(rules_of(&analyze_source(&sim_lib(), src)), vec![("D001".into(), 1)]);
        // Same text in a non-deterministic crate: clean.
        let model = file("crates/model/src/lib.rs", FileClass::Lib, "cms-model");
        let d = analyze_source(&model, src);
        assert!(!d.iter().any(|d| d.rule == "D001"), "{d:?}");
        // ... and in test code of the deterministic crate: clean.
        let test_src = "#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n}\n";
        let d = analyze_source(&sim_lib(), test_src);
        assert!(d.iter().all(|d| d.rule != "D001"), "{d:?}");
    }

    #[test]
    fn inner_cfg_test_covers_the_rest_of_its_module() {
        // An out-of-line test module file: nothing in it is library code.
        let file_src = "#![cfg(test)]\nuse super::*;\nfn f() { x.unwrap(); }\nfn g() { y.unwrap(); }\n";
        assert!(analyze_source(&sim_lib(), file_src).is_empty());
        // Inside an inline module the mask ends with the module.
        let inline = "mod t {\n    #![cfg(test)]\n    fn f() { x.unwrap(); }\n}\nfn g() { y.unwrap(); }\n";
        assert_eq!(rules_of(&analyze_source(&sim_lib(), inline)), vec![("P001".into(), 5)]);
    }

    #[test]
    fn cfg_test_mod_declarations_name_their_files() {
        let src = "#[cfg(test)]\nmod tests;\nmod engine;\nmod inline {\n    #[cfg(test)]\n    mod nested;\n}\n";
        let lexed = tokenize(src);
        let root = file("crates/sim/src/lib.rs", FileClass::Lib, "cms-sim");
        assert_eq!(
            test_module_files(&root, &lexed.tokens),
            ["crates/sim/src/tests.rs", "crates/sim/src/tests/mod.rs"]
        );
        assert_eq!(
            test_module_files(&sim_lib(), &lexed.tokens),
            ["crates/sim/src/engine/tests.rs", "crates/sim/src/engine/tests/mod.rs"]
        );
    }

    #[test]
    fn d002_spares_the_bench_crate() {
        let src = "let t = Instant::now();\nlet s = SystemTime::now();\nlet r = thread_rng();\n";
        let d = analyze_source(&sim_lib(), src);
        assert_eq!(
            rules_of(&d),
            vec![("D002".into(), 1), ("D002".into(), 2), ("D002".into(), 3)]
        );
        let bench = file("crates/bench/src/figures.rs", FileClass::Lib, "cms-bench");
        assert!(analyze_source(&bench, src).is_empty());
    }

    #[test]
    fn d003_flags_float_reduction_over_joins() {
        let bad = "let busy: f64 = handles.into_iter().map(|h| h.join().unwrap_or(0.0)).sum();\n";
        let d = analyze_source(&sim_lib(), bad);
        assert!(d.iter().any(|d| d.rule == "D003"), "{d:?}");
        // Collect-then-merge (no reducer in the join statement): clean.
        let good = "let rounds: Vec<_> = handles.into_iter().flat_map(|h| h.join().unwrap_or_default()).collect();\nlet total: f64 = rounds.iter().map(|r| r.busy).sum();\n";
        let d = analyze_source(&sim_lib(), good);
        assert!(d.iter().all(|d| d.rule != "D003"), "{d:?}");
    }

    #[test]
    fn p001_scope_and_escape_hatch() {
        let src = "fn f() {\n    x.unwrap();\n    y.expect(\"msg\");\n    panic!(\"no\");\n}\n";
        let d = analyze_source(&sim_lib(), src);
        assert_eq!(
            rules_of(&d),
            vec![("P001".into(), 2), ("P001".into(), 3), ("P001".into(), 4)]
        );
        // Bins, tests, benches: exempt.
        for class in [FileClass::Bin, FileClass::Test, FileClass::Bench, FileClass::Example] {
            let f = file("crates/bench/src/bin/fig6.rs", class, "cms-bench");
            let d = analyze_source(&f, src);
            assert!(d.iter().all(|d| d.rule != "P001"), "{class:?}: {d:?}");
        }
        // Escape hatch with a reason suppresses; without one it does not
        // and L000 fires.
        let hatched = "// lint: allow(P001) join of a panicked worker is unrecoverable\nx.unwrap();\n";
        assert!(analyze_source(&sim_lib(), hatched).is_empty());
        let bare = "// lint: allow(P001)\nx.unwrap();\n";
        let d = analyze_source(&sim_lib(), bare);
        assert_eq!(rules_of(&d), vec![("L000".into(), 1), ("P001".into(), 2)]);
    }

    #[test]
    fn p002_flags_allocation_only_in_hot_functions() {
        let hot = "// lint: hot\nfn serve() {\n    let a = Vec::new();\n    let b = vec![1, 2];\n    let c: Vec<u32> = xs.iter().collect();\n    let d = xs.iter().collect::<Vec<_>>();\n}\nfn cold() {\n    let e = Vec::new();\n}\n";
        let d = analyze_source(&sim_lib(), hot);
        assert_eq!(
            rules_of(&d),
            vec![
                ("P002".into(), 3),
                ("P002".into(), 4),
                ("P002".into(), 5),
                ("P002".into(), 6)
            ]
        );
    }

    #[test]
    fn p002_scope_and_escape_hatch() {
        let src = "// lint: hot\nfn serve() {\n    let a = Vec::new();\n}\n";
        // Non-deterministic crate: exempt.
        let model = file("crates/model/src/lib.rs", FileClass::Lib, "cms-model");
        assert!(analyze_source(&model, src).iter().all(|d| d.rule != "P002"));
        // Bin code of a deterministic crate: exempt (hot contract covers lib).
        let bin = file("crates/sim/src/bin/tool.rs", FileClass::Bin, "cms-sim");
        assert!(analyze_source(&bin, src).iter().all(|d| d.rule != "P002"));
        // Allow directive with a reason suppresses the finding.
        let hatched = "// lint: hot\nfn serve() {\n    // lint: allow(P002) one-time growth before steady state\n    let a = Vec::new();\n}\n";
        assert!(analyze_source(&sim_lib(), hatched).is_empty());
        // Prose that merely mentions the marker claims nothing.
        let prose = "// this fn is on the lint: hot path for servicing\nfn serve() {\n    let a = Vec::new();\n}\n";
        assert!(analyze_source(&sim_lib(), prose).iter().all(|d| d.rule != "P002"));
    }

    #[test]
    fn p002_region_ends_at_the_function_brace() {
        // Allocation after the hot function's closing brace is clean even
        // on the same nesting path.
        let src = "// lint: hot\nfn serve(out: &mut Vec<u32>) {\n    out.clear();\n    if x { out.push(1); }\n}\nfn other() {\n    let v: Vec<u32> = ys.collect();\n}\n";
        assert!(analyze_source(&sim_lib(), src).is_empty());
    }

    #[test]
    fn d005_flags_shared_state_in_deterministic_lib_code() {
        let src = "use std::sync::Mutex;\nstatic N: AtomicU64 = AtomicU64::new(0);\nfn f() { N.fetch_add(1, Ordering::Relaxed); }\nfn g() { N.store(0, Ordering::SeqCst); }\n";
        let d = analyze_source(&sim_lib(), src);
        assert_eq!(
            rules_of(&d),
            vec![
                ("D005".into(), 1),
                ("D005".into(), 2),
                ("D005".into(), 2),
                ("D005".into(), 3)
            ]
        );
        // SeqCst orderings and cmp::Ordering are not findings.
        assert!(d.iter().all(|d| !d.message.contains("SeqCst")));
        let cmp = "fn f(a: u32, b: u32) -> Ordering { a.cmp(&b) }\nfn g() -> Ordering { Ordering::Less }\n";
        assert!(analyze_source(&sim_lib(), cmp).is_empty());
        // Outside the deterministic crates: clean.
        let model = file("crates/model/src/queueing.rs", FileClass::Lib, "cms-model");
        assert!(analyze_source(&model, src).is_empty());
    }

    #[test]
    fn d005_flags_threading_outside_the_pool() {
        let src = "fn f() {\n    std::thread::spawn(|| {});\n    std::thread::scope(|s| {});\n    let b = thread::Builder::new();\n    let (tx, rx) = std::sync::mpsc::sync_channel::<u8>(1);\n    let c = Condvar::new();\n    let w = Barrier::new(2);\n}\n";
        let d = analyze_source(&sim_lib(), src);
        assert_eq!(
            rules_of(&d),
            (2..=7).map(|line| ("D005".to_string(), line)).collect::<Vec<_>>()
        );
        let named: Vec<&str> = d.iter().map(|d| d.message.split('`').nth(1).unwrap_or("")).collect();
        assert_eq!(
            named,
            ["thread::spawn", "thread::scope", "thread::Builder", "mpsc", "Condvar", "Barrier"]
        );
        // Same-named items off the `thread::` path are not threading.
        let clean = "fn f(s: &Scope) { s.spawn(); let b = Builder::new(); let x = scope(); }\nfn g() { std::thread::available_parallelism(); std::thread::yield_now(); }\n";
        assert!(analyze_source(&sim_lib(), clean).is_empty());
        // Outside the deterministic crates: clean.
        let bench = file("crates/bench/src/campaign.rs", FileClass::Lib, "cms-bench");
        assert!(analyze_source(&bench, src).is_empty());
        // The pool's reasoned file-scoped exemption suppresses every token.
        let pool = format!("// lint: allow-file(D005) each chunk is owned by one thread at a time and merged in a fixed order\n{src}");
        assert!(analyze_source(&sim_lib(), &pool).is_empty());
    }

    #[test]
    fn d005_file_scoped_allow_suppresses_the_whole_file() {
        let src = "// lint: allow-file(D005) gauge counters are only read after workers join\nuse std::sync::Mutex;\nstatic B: AtomicBool = AtomicBool::new(false);\nfn f() { B.load(Ordering::Relaxed); }\n";
        assert!(analyze_source(&sim_lib(), src).is_empty());
        // Without a reason: suppresses nothing and trips L000.
        let bare = "// lint: allow-file(D005)\nuse std::sync::Mutex;\n";
        let d = analyze_source(&sim_lib(), bare);
        assert_eq!(rules_of(&d), vec![("L000".into(), 1), ("D005".into(), 2)]);
    }

    #[test]
    fn h001_checks_crate_roots_only() {
        let root = file("crates/sim/src/lib.rs", FileClass::Lib, "cms-sim");
        let d = analyze_source(&root, "pub mod engine;\n");
        assert_eq!(rules_of(&d), vec![("H001".into(), 1)]);
        let ok = "//! Docs first.\n#![forbid(unsafe_code)]\npub mod engine;\n";
        assert!(analyze_source(&root, ok).is_empty());
        // Non-root lib file: no H001.
        let d = analyze_source(&sim_lib(), "pub fn f() {}\n");
        assert!(d.is_empty());
    }

    #[test]
    fn doc_comment_examples_do_not_count() {
        let src = "/// ```\n/// let x = map.unwrap();\n/// ```\npub fn f() {}\n";
        assert!(analyze_source(&sim_lib(), src).is_empty());
    }
}
