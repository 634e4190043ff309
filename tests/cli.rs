//! The command-line front end rejects malformed input: an unparsable or
//! overflowing flag value, or an unknown command, exits with status 2
//! and a message naming it, instead of running on a default.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cm-ftserver"))
        .args(args)
        .output()
        .expect("the binary starts")
}

fn assert_usage_error(args: &[&str], flag: &str, value: &str) {
    let out = run(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(flag) && stderr.contains(value), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed a result");
}

#[test]
fn unparsable_values_are_usage_errors() {
    assert_usage_error(&["capacity", "--disks", "abc"], "--disks", "abc");
    assert_usage_error(&["simulate", "--scheme", "declustered", "--rate", "x"], "--rate", "x");
    assert_usage_error(&["drill", "--rounds", "-1"], "--rounds", "-1");
}

#[test]
fn overflowing_values_are_usage_errors() {
    // 2^32 + 32 and 2^32 + 4 once wrapped to 32 disks and p = 4.
    assert_usage_error(&["capacity", "--disks", "4294967328"], "--disks", "4294967328");
    assert_usage_error(
        &["tune", "--scheme", "declustered", "--parity-group", "4294967300"],
        "--parity-group",
        "4294967300",
    );
    let max = u64::MAX.to_string();
    assert_usage_error(&["capacity", "--buffer-mb", &max], "--buffer-mb", &max);
}

#[test]
fn valid_values_run() {
    let out = run(&["capacity", "--disks", "16"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("d = 16"));
    let out = run(&["tune", "--scheme", "declustered", "--parity-group", "4"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("parity group  : 4"));
}

#[test]
fn unknown_commands_are_usage_errors() {
    for word in ["nope", "capacty", "--disks"] {
        assert_usage_error(&[word], "unknown command", &format!("'{word}'"));
    }
}

#[test]
fn help_lists_every_scheme_token_in_declaration_order() {
    for args in [&[][..], &["help"], &["--help"], &["-h"]] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains(
                "Scheme names: declustered, dynamic, prefetch-parity, prefetch-flat, \
                 streaming-raid, non-clustered."
            ),
            "{args:?}: {stdout}"
        );
    }
}
