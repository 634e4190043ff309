//! Reachability rules over the workspace call graph.
//!
//! * **D004** — determinism taint: a function in a
//!   [`DETERMINISTIC_CRATES`] lib that transitively reaches a D002
//!   wall-clock/entropy sink through any chain of workspace functions.
//!   Functions containing the sink directly are D002's business and are
//!   not re-reported. A sink whose D002 diagnostic is suppressed by a
//!   reasoned `lint: allow(D002)` is vetted and does not seed taint, and
//!   a `lint: allow(D004)` on a function declares it a determinism
//!   boundary: the taint stops there instead of spreading to every
//!   caller.
//! * **P003** — hot-path allocation taint: an allocation inside a
//!   function transitively reachable from a `// lint: hot` function (the
//!   interprocedural closure of P002). Hot functions' own allocations
//!   are P002's business.
//!
//! Both BFS passes are deterministic: seeds in ascending node order,
//! sorted edge lists, FIFO expansion — so reported chains (always a
//! shortest path) are stable across runs.

use std::collections::{BTreeMap, VecDeque};

use crate::graph::{CallGraph, NodeColor, SinkHit};
use crate::rules::{allowed, Diagnostic, DETERMINISTIC_CRATES};
use crate::tokenizer::AllowDirective;

/// Diagnostics plus per-node taint colors for the DOT export.
#[derive(Debug, Default)]
pub struct TaintOutcome {
    /// D004 / P003 findings, in node order.
    pub diagnostics: Vec<Diagnostic>,
    /// One color per graph node (same indexing as `graph.fns`).
    pub colors: Vec<NodeColor>,
}

const EMPTY_ALLOWS: &[AllowDirective] = &[];

fn allows_for<'a>(
    allows: &'a BTreeMap<String, Vec<AllowDirective>>,
    file: &str,
) -> &'a [AllowDirective] {
    allows.get(file).map_or(EMPTY_ALLOWS, Vec::as_slice)
}

/// Runs the reachability rules. `allows` maps workspace-relative paths to
/// the `lint: allow` directives lexed from that file.
#[must_use]
pub fn analyze(
    graph: &CallGraph,
    allows: &BTreeMap<String, Vec<AllowDirective>>,
) -> TaintOutcome {
    let n = graph.fns.len();
    let mut out = TaintOutcome { diagnostics: Vec::new(), colors: vec![NodeColor::Plain; n] };

    // Reverse adjacency (callee -> callers), callers ascending.
    let mut rev: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (caller, callees) in graph.edges.iter().enumerate() {
        for &callee in callees {
            rev[callee].push(caller);
        }
    }

    // ---- D004: reverse BFS from unsuppressed clock sinks. ----
    // `toward_sink[f]` = the callee one hop closer to the nearest sink.
    let mut toward_sink: Vec<Option<usize>> = vec![None; n];
    let mut seeded = vec![false; n];
    let mut queue: VecDeque<usize> = VecDeque::new();
    for (id, f) in graph.fns.iter().enumerate() {
        let live: Vec<&SinkHit> = f
            .clock_sinks
            .iter()
            .filter(|s| !allowed(allows_for(allows, &f.file), "D002", s.line))
            .collect();
        if !live.is_empty() {
            seeded[id] = true;
            queue.push_back(id);
        }
    }
    let mut clock_reached = seeded.clone();
    while let Some(node) = queue.pop_front() {
        // An allowed fn is a vetted determinism boundary: taint stops.
        let f = &graph.fns[node];
        if !seeded[node] && allowed(allows_for(allows, &f.file), "D004", f.line) {
            continue;
        }
        for &caller in &rev[node] {
            if !clock_reached[caller] {
                clock_reached[caller] = true;
                toward_sink[caller] = Some(node);
                queue.push_back(caller);
            }
        }
    }
    for (id, f) in graph.fns.iter().enumerate() {
        if seeded[id] || !clock_reached[id] {
            continue;
        }
        if !(f.is_lib && DETERMINISTIC_CRATES.contains(&f.crate_name.as_str())) {
            continue;
        }
        if allowed(allows_for(allows, &f.file), "D004", f.line) {
            continue;
        }
        // Walk the chain down to the sink-bearing function.
        let mut chain: Vec<String> = vec![f.display()];
        let mut cur = id;
        while let Some(next) = toward_sink[cur] {
            chain.push(graph.fns[next].display());
            cur = next;
        }
        let sink_fn = &graph.fns[cur];
        let sink = sink_fn
            .clock_sinks
            .iter()
            .find(|s| !allowed(allows_for(allows, &sink_fn.file), "D002", s.line));
        let (what, where_) = sink.map_or_else(
            || ("wall clock".to_string(), sink_fn.file.clone()),
            |s| (s.what.clone(), format!("{}:{}", sink_fn.file, s.line)),
        );
        out.diagnostics.push(Diagnostic {
            file: f.file.clone(),
            line: f.line,
            rule: "D004".to_string(),
            message: format!(
                "fn `{}` in deterministic crate {} transitively reaches wall-clock/entropy sink `{what}` ({where_})",
                f.name, f.crate_name
            ),
            chain,
        });
    }

    // ---- P003: forward BFS from `// lint: hot` roots. ----
    // `toward_root[f]` = the caller one hop closer to the nearest hot fn.
    let mut toward_root: Vec<Option<usize>> = vec![None; n];
    let mut hot_reached = vec![false; n];
    let mut queue: VecDeque<usize> = VecDeque::new();
    for (id, f) in graph.fns.iter().enumerate() {
        if f.is_hot {
            hot_reached[id] = true;
            queue.push_back(id);
        }
    }
    while let Some(node) = queue.pop_front() {
        for &callee in &graph.edges[node] {
            if !hot_reached[callee] {
                hot_reached[callee] = true;
                toward_root[callee] = Some(node);
                queue.push_back(callee);
            }
        }
    }
    for (id, f) in graph.fns.iter().enumerate() {
        if f.is_hot || !hot_reached[id] || !f.is_lib || f.alloc_sinks.is_empty() {
            continue;
        }
        // Chain from the hot root down to this function.
        let mut chain: Vec<String> = vec![f.display()];
        let mut cur = id;
        while let Some(prev) = toward_root[cur] {
            chain.push(graph.fns[prev].display());
            cur = prev;
        }
        chain.reverse();
        let root = &graph.fns[cur];
        for sink in &f.alloc_sinks {
            if allowed(allows_for(allows, &f.file), "P003", sink.line)
                || allowed(allows_for(allows, &f.file), "P002", sink.line)
            {
                continue;
            }
            out.diagnostics.push(Diagnostic {
                file: f.file.clone(),
                line: sink.line,
                rule: "P003".to_string(),
                message: format!(
                    "`{}` in fn `{}`, reachable from hot fn `{}`; the zero-alloc round contract extends to callees",
                    sink.what, f.name, root.name
                ),
                chain: chain.clone(),
            });
        }
    }

    // ---- Node colors for the DOT export. ----
    for id in 0..n {
        let f = &graph.fns[id];
        out.colors[id] = if seeded[id] {
            NodeColor::ClockSink
        } else if clock_reached[id] {
            NodeColor::ClockTainted
        } else if f.is_hot {
            NodeColor::Hot
        } else if hot_reached[id] && !f.alloc_sinks.is_empty() {
            NodeColor::HotAlloc
        } else if hot_reached[id] {
            NodeColor::HotReach
        } else {
            NodeColor::Plain
        };
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::build;
    use crate::tokenizer::tokenize;
    use crate::workspace::{FileClass, SourceFile};
    use std::collections::BTreeSet;
    use std::path::PathBuf;

    fn file(rel: &str, class: FileClass, krate: &str) -> SourceFile {
        SourceFile {
            rel_path: rel.to_string(),
            abs_path: PathBuf::from(rel),
            class,
            crate_name: krate.to_string(),
        }
    }

    fn deps_of(pairs: &[(&str, &[&str])]) -> BTreeMap<String, BTreeSet<String>> {
        pairs
            .iter()
            .map(|(c, ds)| {
                let mut set: BTreeSet<String> = ds.iter().map(|s| (*s).to_string()).collect();
                set.insert((*c).to_string());
                ((*c).to_string(), set)
            })
            .collect()
    }

    /// Builds graph+taint for (path, crate, source) lib files.
    fn run(
        files: &[(&str, &str, &str)],
        deps: &[(&str, &[&str])],
    ) -> (Vec<Diagnostic>, Vec<NodeColor>) {
        let srcs: Vec<(SourceFile, crate::tokenizer::Lexed)> = files
            .iter()
            .map(|(rel, krate, src)| (file(rel, FileClass::Lib, krate), tokenize(src)))
            .collect();
        let pairs: Vec<(&SourceFile, &crate::tokenizer::Lexed)> =
            srcs.iter().map(|(f, l)| (f, l)).collect();
        let g = build(&pairs, &deps_of(deps));
        let mut allows: BTreeMap<String, Vec<AllowDirective>> = BTreeMap::new();
        for (f, l) in &srcs {
            allows.insert(f.rel_path.clone(), l.allows.clone());
        }
        let outcome = analyze(&g, &allows);
        (outcome.diagnostics, outcome.colors)
    }

    #[test]
    fn d004_reports_a_two_hop_cross_crate_chain() {
        let (diags, colors) = run(
            &[
                (
                    "crates/sim/src/engine.rs",
                    "cms-sim",
                    "pub fn tainted_entry() { wrap_stamp(); }\n",
                ),
                (
                    "crates/bench/src/clock.rs",
                    "cms-bench",
                    "pub fn wrap_stamp() { stamp_now(); }\npub fn stamp_now() { let t = Instant::now(); }\n",
                ),
            ],
            &[("cms-sim", &["cms-bench"]), ("cms-bench", &[])],
        );
        assert_eq!(diags.len(), 1, "{diags:?}");
        let d = &diags[0];
        assert_eq!(d.rule, "D004");
        assert_eq!(d.file, "crates/sim/src/engine.rs");
        assert_eq!(
            d.chain,
            vec![
                "cms-sim::engine::tainted_entry",
                "cms-bench::clock::wrap_stamp",
                "cms-bench::clock::stamp_now",
            ]
        );
        assert!(d.message.contains("Instant::now"), "{}", d.message);
        assert!(d.message.contains("crates/bench/src/clock.rs:2"), "{}", d.message);
        // Colors: sink red, intermediate + entry tainted.
        assert_eq!(colors[0], NodeColor::ClockTainted); // tainted_entry
        assert_eq!(colors[1], NodeColor::ClockTainted); // wrap_stamp
        assert_eq!(colors[2], NodeColor::ClockSink); // stamp_now
    }

    #[test]
    fn d004_skips_direct_sinks_and_nondeterministic_crates() {
        let (diags, _) = run(
            &[
                (
                    "crates/bench/src/clock.rs",
                    "cms-bench",
                    "pub fn stamp_now() { let t = Instant::now(); }\npub fn bench_caller() { stamp_now(); }\n",
                ),
            ],
            &[("cms-bench", &[])],
        );
        // stamp_now holds the sink directly (D002 territory, and cms-bench
        // is the timing crate anyway); bench_caller is not a deterministic
        // crate. Nothing to report.
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn d004_allow_is_a_boundary_not_just_a_mute() {
        let (diags, _) = run(
            &[
                (
                    "crates/sim/src/engine.rs",
                    "cms-sim",
                    "pub fn caller() { vetted(); }\n// lint: allow(D004) vetted telemetry wrapper, time never reaches metrics\npub fn vetted() { stamp(); }\npub fn stamp() { let t = Instant::now(); }\n",
                ),
            ],
            &[("cms-sim", &[])],
        );
        // `vetted` is suppressed AND stops propagation to `caller`.
        assert!(
            diags.iter().all(|d| d.rule != "D004"),
            "allow(D004) should cut the taint: {diags:?}"
        );
    }

    #[test]
    fn d004_does_not_seed_from_an_allowed_d002_sink() {
        let (diags, _) = run(
            &[
                (
                    "crates/sim/src/engine.rs",
                    "cms-sim",
                    "pub fn caller() { logstamp(); }\npub fn logstamp() {\n    // lint: allow(D002) log timestamp only, never fed into simulation state\n    let t = Instant::now();\n}\n",
                ),
            ],
            &[("cms-sim", &[])],
        );
        assert!(diags.iter().all(|d| d.rule != "D004"), "{diags:?}");
    }

    #[test]
    fn p003_reports_alloc_in_helper_reachable_from_hot() {
        let (diags, colors) = run(
            &[(
                "crates/sim/src/engine.rs",
                "cms-sim",
                "// lint: hot\npub fn hot_entry() { helper_fill(); }\npub fn helper_fill() { let v = Vec::new(); }\n",
            )],
            &[("cms-sim", &[])],
        );
        assert_eq!(diags.len(), 1, "{diags:?}");
        let d = &diags[0];
        assert_eq!(d.rule, "P003");
        assert_eq!(d.line, 3);
        assert_eq!(
            d.chain,
            vec!["cms-sim::engine::hot_entry", "cms-sim::engine::helper_fill"]
        );
        assert_eq!(colors[0], NodeColor::Hot);
        assert_eq!(colors[1], NodeColor::HotAlloc);
    }

    #[test]
    fn p003_leaves_direct_hot_allocations_to_p002() {
        let (diags, _) = run(
            &[(
                "crates/sim/src/engine.rs",
                "cms-sim",
                "// lint: hot\npub fn hot_entry() { let v = Vec::new(); }\n",
            )],
            &[("cms-sim", &[])],
        );
        assert!(diags.iter().all(|d| d.rule != "P003"), "{diags:?}");
    }

    #[test]
    fn p003_respects_allow_at_the_alloc_site() {
        let (diags, _) = run(
            &[(
                "crates/sim/src/engine.rs",
                "cms-sim",
                "// lint: hot\npub fn hot_entry() { helper(); }\npub fn helper() {\n    // lint: allow(P003) one-time setup, amortized before the round loop\n    let v = Vec::new();\n}\n",
            )],
            &[("cms-sim", &[])],
        );
        assert!(diags.iter().all(|d| d.rule != "P003"), "{diags:?}");
    }
}
