//! End-to-end tests of the `cms-lint` binary: exit codes and output on a
//! scratch workspace, and the self-check that this repository lints
//! clean.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_cms-lint")
}

fn run(root: &Path, args: &[&str]) -> Output {
    Command::new(bin())
        .arg("--root")
        .arg(root)
        .args(args)
        .output()
        .expect("cms-lint binary runs")
}

/// A scratch workspace with one clean deterministic crate; removed on
/// drop.
struct Scratch {
    root: PathBuf,
}

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let root = std::env::temp_dir().join(format!("cms-lint-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let src = root.join("crates/sim/src");
        fs::create_dir_all(&src).expect("mkdir scratch");
        fs::write(root.join("Cargo.toml"), "[workspace]\nmembers = [\"crates/*\"]\n")
            .expect("write root manifest");
        fs::write(
            root.join("crates/sim/Cargo.toml"),
            "[package]\nname = \"cms-sim\"\nversion = \"0.0.0\"\nedition = \"2021\"\n",
        )
        .expect("write member manifest");
        fs::write(
            src.join("lib.rs"),
            "#![forbid(unsafe_code)]\npub fn ok() -> u32 { 1 }\n",
        )
        .expect("write lib.rs");
        Scratch { root }
    }

    fn lib_rs(&self) -> PathBuf {
        self.root.join("crates/sim/src/lib.rs")
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

#[test]
fn graph_dot_export_renders_the_scratch_workspace() {
    let ws = Scratch::new("dot");
    fs::write(
        ws.lib_rs(),
        "#![forbid(unsafe_code)]\npub fn leaf() -> u32 { 1 }\npub fn root() -> u32 { leaf() }\n",
    )
    .expect("write lib");
    let out = run(&ws.root, &["--graph", "dot"]);
    assert!(out.status.success());
    let dot = String::from_utf8_lossy(&out.stdout);
    assert!(dot.starts_with("digraph cms_callgraph"), "{dot}");
    assert!(dot.contains("cluster_cms_sim"), "{dot}");
    assert!(dot.contains("crate::leaf"), "{dot}");
    assert!(dot.contains("->"), "edge missing: {dot}");
}

#[test]
fn every_rule_fails_the_run_unless_a_reasoned_allow_covers_it() {
    let ws = Scratch::new("hard");
    for (at, body) in [
        ("lib.rs:2:D001", "pub type T = std::collections::HashMap<u32, u32>;\n"),
        ("lib.rs:2:P001", "pub fn bad(v: Option<u32>) -> u32 { v.unwrap() }\n"),
        ("lib.rs:3:P002", "// lint: hot\npub fn hot() -> Vec<u32> { Vec::new() }\n"),
    ] {
        fs::write(ws.lib_rs(), format!("#![forbid(unsafe_code)]\n{body}"))
            .expect("write violation");
        let out = run(&ws.root, &[]);
        let text = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(1), "{at}: {text}");
        let rule = &at[at.len() - 4..];
        assert!(text.contains(at), "{text}");
        assert!(text.contains(&format!("{rule}=1")) && text.contains("FAIL"), "{text}");
    }
    // A reasoned allow covers its line: the run passes.
    fs::write(
        ws.lib_rs(),
        "#![forbid(unsafe_code)]\n// lint: allow(P001) the caller checked `v` is Some\npub fn ok(v: Option<u32>) -> u32 { v.unwrap() }\n",
    )
    .expect("write allowed occurrence");
    let out = run(&ws.root, &[]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{text}");
    assert!(text.contains("P001=0") && text.contains("PASS"), "{text}");
}

#[test]
fn json_output_is_emitted_and_flags_failure() {
    let ws = Scratch::new("json");
    fs::write(
        ws.lib_rs(),
        "#![forbid(unsafe_code)]\npub fn bad(v: Option<u32>) -> u32 { v.unwrap() }\n",
    )
    .expect("write violation");
    let out = run(&ws.root, &["--json"]);
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"rule\": \"P001\""), "{text}");
    assert!(text.contains("\"ok\": false"), "{text}");
}

/// The repository itself must lint clean — the same invocation CI runs.
#[test]
fn workspace_self_check_passes() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = run(&root, &[]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "workspace lint failed:\n{text}");
    assert!(text.contains("PASS"), "{text}");
    // The interprocedural contract holds workspace-wide: no unannotated
    // determinism taint and no unvetted shared state anywhere.
    assert!(text.contains("D004=0"), "{text}");
    assert!(text.contains("D005=0"), "{text}");
}
