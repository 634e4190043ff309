//! Workspace discovery: which `.rs` files to analyze, how each is
//! classified, and which crate it belongs to.
//!
//! The walker scans the conventional cargo layout only — `src/`, `tests/`,
//! `benches/`, `examples/` at the workspace root and under each
//! `crates/*` member — so vendored facades (`vendor/`), build output
//! (`target/`) and lint fixtures (`fixtures/`) are never linted. Results
//! are sorted by path, making every report deterministic.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

/// How a source file participates in the build — this decides which rules
/// apply to it (see the catalogue in `rules`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Library code: the deterministic replay contract and the no-panic
    /// contract both apply.
    Lib,
    /// Binary target root (`src/main.rs`, `src/bin/*.rs`): crate root
    /// hygiene applies, panics are tolerated (a CLI may die loudly).
    Bin,
    /// Integration / unit-test source under a `tests/` directory.
    Test,
    /// Criterion bench source under `benches/`.
    Bench,
    /// Example under `examples/`.
    Example,
    /// A `build.rs` build script.
    Build,
}

/// One file scheduled for analysis.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Path relative to the workspace root, with `/` separators.
    pub rel_path: String,
    /// Absolute path on disk.
    pub abs_path: PathBuf,
    /// Build-role classification.
    pub class: FileClass,
    /// Cargo package name (e.g. `cms-sim`), used for per-crate rule
    /// scoping.
    pub crate_name: String,
}

impl SourceFile {
    /// Is this file a crate root that must carry
    /// `#![forbid(unsafe_code)]`? Lib roots, `src/main.rs` and
    /// `src/bin/*.rs` are; tests, benches and examples are dev-only
    /// targets and exempt.
    #[must_use]
    pub fn is_crate_root(&self) -> bool {
        self.rel_path.ends_with("src/lib.rs")
            || self.rel_path.ends_with("src/main.rs")
            || self.rel_path.contains("/src/bin/")
            || self.rel_path.starts_with("src/bin/")
    }
}

/// Classifies a workspace-relative path.
#[must_use]
pub fn classify(rel_path: &str) -> FileClass {
    let in_dir = |dir: &str| {
        rel_path.starts_with(&format!("{dir}/")) || rel_path.contains(&format!("/{dir}/"))
    };
    if rel_path == "build.rs" || rel_path.ends_with("/build.rs") {
        FileClass::Build
    } else if in_dir("tests") {
        FileClass::Test
    } else if in_dir("benches") {
        FileClass::Bench
    } else if in_dir("examples") {
        FileClass::Example
    } else if rel_path.ends_with("src/main.rs") || in_dir("bin") {
        FileClass::Bin
    } else {
        FileClass::Lib
    }
}

/// Reads the `name = "..."` of a `Cargo.toml`, if present.
fn package_name(manifest: &Path) -> Option<String> {
    let text = fs::read_to_string(manifest).ok()?;
    for line in text.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("name") {
            let rest = rest.trim_start();
            if let Some(rest) = rest.strip_prefix('=') {
                let v = rest.trim().trim_matches('"');
                if !v.is_empty() {
                    return Some(v.to_string());
                }
            }
        }
    }
    None
}

/// The crate a workspace-relative path belongs to: the member package for
/// `crates/<dir>/…`, the root package otherwise. Falls back to a
/// name derived from the directory when no manifest is readable (keeps
/// fixture trees and synthetic test workspaces working without
/// boilerplate).
fn crate_of(root: &Path, rel_path: &str) -> String {
    if let Some(rest) = rel_path.strip_prefix("crates/") {
        if let Some(dir) = rest.split('/').next() {
            return package_name(&root.join("crates").join(dir).join("Cargo.toml"))
                .unwrap_or_else(|| format!("cms-{dir}"));
        }
    }
    package_name(&root.join("Cargo.toml")).unwrap_or_else(|| "root".to_string())
}

/// Dependency keys of one manifest's `[dependencies]` section (the key
/// is the package name for both `foo.workspace = true` and
/// `foo = { ... }` forms). Dev-dependencies are ignored: test code is
/// outside the lint contract.
fn manifest_deps(manifest: &Path) -> BTreeSet<String> {
    let mut deps = BTreeSet::new();
    let Ok(text) = fs::read_to_string(manifest) else { return deps };
    let mut in_deps = false;
    for line in text.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_deps = line == "[dependencies]";
            continue;
        }
        if !in_deps || line.is_empty() || line.starts_with('#') {
            continue;
        }
        // `name.workspace = true` or `name = ...`: the key runs to the
        // first `.` or `=` (or whitespace before either).
        let key: String = line
            .chars()
            .take_while(|c| !matches!(c, '.' | '=' | ' ' | '\t'))
            .collect();
        if !key.is_empty() {
            deps.insert(key.trim_matches('"').to_string());
        }
    }
    deps
}

/// The transitive intra-workspace dependency closure of every workspace
/// package, **including the package itself**: the name-resolution scope
/// for cross-crate call edges (a call in crate C can only land in a
/// crate C can actually see). Keyed and valued by package name.
#[must_use]
pub fn crate_deps(root: &Path) -> BTreeMap<String, BTreeSet<String>> {
    // Direct dependency edges, restricted to workspace members.
    let mut manifests: Vec<(String, PathBuf)> = Vec::new();
    if let Some(name) = package_name(&root.join("Cargo.toml")) {
        manifests.push((name, root.join("Cargo.toml")));
    }
    if let Ok(entries) = fs::read_dir(root.join("crates")) {
        let mut members: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
        members.sort();
        for member in members.into_iter().filter(|p| p.is_dir()) {
            let manifest = member.join("Cargo.toml");
            if let Some(name) = package_name(&manifest) {
                manifests.push((name, manifest));
            }
        }
    }
    let member_names: BTreeSet<String> = manifests.iter().map(|(n, _)| n.clone()).collect();
    let direct: BTreeMap<String, BTreeSet<String>> = manifests
        .iter()
        .map(|(name, path)| {
            let deps: BTreeSet<String> = manifest_deps(path)
                .into_iter()
                .filter(|d| member_names.contains(d))
                .collect();
            (name.clone(), deps)
        })
        .collect();

    // Transitive closure by fixpoint iteration (the graph is tiny).
    let mut closure = direct.clone();
    loop {
        let mut grew = false;
        for name in &member_names {
            let reach: BTreeSet<String> = closure.get(name).cloned().unwrap_or_default();
            let mut next = reach.clone();
            for dep in &reach {
                if let Some(dd) = closure.get(dep) {
                    next.extend(dd.iter().cloned());
                }
            }
            if next.len() > reach.len() {
                closure.insert(name.clone(), next);
                grew = true;
            }
        }
        if !grew {
            break;
        }
    }
    for name in &member_names {
        closure.entry(name.clone()).or_default().insert(name.clone());
    }
    closure
}

/// Recursively collects `.rs` files under `dir`, skipping `vendor`,
/// `target` and `fixtures` subtrees.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            let skip = path
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| matches!(n, "vendor" | "target" | "fixtures" | ".git"));
            if !skip {
                collect_rs(&path, out);
            }
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(path);
        }
    }
}

/// Discovers every source file of the workspace rooted at `root`,
/// sorted by relative path.
#[must_use]
pub fn discover(root: &Path) -> Vec<SourceFile> {
    let mut dirs: Vec<PathBuf> = Vec::new();
    for top in ["src", "tests", "benches", "examples"] {
        dirs.push(root.join(top));
    }
    if let Ok(entries) = fs::read_dir(root.join("crates")) {
        let mut members: Vec<PathBuf> =
            entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
        members.sort();
        for member in members.into_iter().filter(|p| p.is_dir()) {
            for sub in ["src", "tests", "benches", "examples"] {
                dirs.push(member.join(sub));
            }
            let build = member.join("build.rs");
            if build.is_file() {
                dirs.push(build);
            }
        }
    }
    let build = root.join("build.rs");
    if build.is_file() {
        dirs.push(build);
    }

    let mut files: Vec<PathBuf> = Vec::new();
    for dir in dirs {
        if dir.is_file() {
            files.push(dir);
        } else {
            collect_rs(&dir, &mut files);
        }
    }
    files.sort();

    files
        .into_iter()
        .filter_map(|abs| {
            let rel = abs.strip_prefix(root).ok()?;
            let rel_path = rel
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            let class = classify(&rel_path);
            let crate_name = crate_of(root, &rel_path);
            Some(SourceFile { rel_path, abs_path: abs, class, crate_name })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_covers_the_layout() {
        assert_eq!(classify("crates/sim/src/engine.rs"), FileClass::Lib);
        assert_eq!(classify("crates/sim/tests/prop.rs"), FileClass::Test);
        assert_eq!(classify("tests/determinism.rs"), FileClass::Test);
        assert_eq!(classify("crates/bench/benches/sim_bench.rs"), FileClass::Bench);
        assert_eq!(classify("examples/quickstart.rs"), FileClass::Example);
        assert_eq!(classify("crates/bench/src/bin/fig6.rs"), FileClass::Bin);
        assert_eq!(classify("src/main.rs"), FileClass::Bin);
        assert_eq!(classify("src/lib.rs"), FileClass::Lib);
        assert_eq!(classify("crates/core/build.rs"), FileClass::Build);
        assert_eq!(classify("build.rs"), FileClass::Build);
        // Only a file named exactly `build.rs` is a build script.
        assert_eq!(classify("crates/sim/src/engine/rebuild.rs"), FileClass::Lib);
        assert_eq!(classify("crates/bench/src/bin/rebuild.rs"), FileClass::Bin);
    }

    #[test]
    fn crate_roots_are_lib_main_and_bins() {
        let f = |rel: &str, class: FileClass| SourceFile {
            rel_path: rel.to_string(),
            abs_path: PathBuf::from(rel),
            class,
            crate_name: "x".into(),
        };
        assert!(f("crates/sim/src/lib.rs", FileClass::Lib).is_crate_root());
        assert!(f("src/main.rs", FileClass::Bin).is_crate_root());
        assert!(f("crates/bench/src/bin/fig6.rs", FileClass::Bin).is_crate_root());
        assert!(!f("crates/sim/src/engine.rs", FileClass::Lib).is_crate_root());
        assert!(!f("tests/determinism.rs", FileClass::Test).is_crate_root());
    }

    #[test]
    fn crate_deps_closure_on_this_workspace() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let deps = crate_deps(&root);
        let sim = deps.get("cms-sim").expect("cms-sim present");
        // Direct dependency.
        assert!(sim.contains("cms-disk"), "{sim:?}");
        // Transitive: cms-sim -> cms-layout -> cms-bibd (or similar).
        assert!(sim.contains("cms-core"), "{sim:?}");
        // A crate always sees itself.
        assert!(sim.contains("cms-sim"));
        // No reverse edge: cms-core does not depend on the simulator.
        let core = deps.get("cms-core").expect("cms-core present");
        assert!(!core.contains("cms-sim"), "{core:?}");
    }

    #[test]
    fn discovery_on_this_workspace_finds_the_engine() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let files = discover(&root);
        assert!(files.iter().all(|f| !f.rel_path.contains("vendor/")));
        assert!(files.iter().all(|f| !f.rel_path.contains("fixtures/")));
        let engine = files
            .iter()
            .find(|f| f.rel_path == "crates/sim/src/engine/mod.rs")
            .expect("engine present");
        assert_eq!(engine.crate_name, "cms-sim");
        assert_eq!(engine.class, FileClass::Lib);
    }
}
