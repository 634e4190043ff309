//! The bench binaries reject malformed flag values: a missing value, an
//! unparsable or overflowing number, or an unknown scenario name exits
//! with status 2 and a message naming the flag and the value, instead of
//! running on a default.

use std::process::{Command, Output};

const DRILL: &str = env!("CARGO_BIN_EXE_failure_drill");

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("the binary starts")
}

fn assert_usage_error(bin: &str, args: &[&str], message: &str) {
    let out = run(bin, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(stderr.contains(message), "{bin} {args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{bin} {args:?} printed a result");
}

#[test]
fn unparsable_values_are_usage_errors() {
    assert_usage_error(DRILL, &["--rounds", "abc"], "invalid value 'abc' for --rounds");
    assert_usage_error(DRILL, &["--threads", "-1"], "invalid value '-1' for --threads");
    assert_usage_error(DRILL, &["--rounds"], "--rounds needs a value");
    let fig6 = env!("CARGO_BIN_EXE_fig6");
    assert_usage_error(fig6, &["--rounds", "12x"], "invalid value '12x' for --rounds");
    let campaign = env!("CARGO_BIN_EXE_campaign");
    assert_usage_error(campaign, &["--jobs", "x"], "invalid value 'x' for --jobs");
    let timeline = env!("CARGO_BIN_EXE_timeline");
    assert_usage_error(timeline, &["--width", "wide"], "invalid value 'wide' for --width");
}

#[test]
fn overflowing_values_are_usage_errors() {
    let big = "18446744073709551616"; // u64::MAX + 1
    let message = format!("invalid value '{big}' for");
    assert_usage_error(env!("CARGO_BIN_EXE_fig6"), &["--seed", big], &message);
    assert_usage_error(DRILL, &["--trace-rounds", big], &message);
    assert_usage_error(env!("CARGO_BIN_EXE_cluster"), &["--jobs", big], &message);
}

#[test]
fn missing_names_and_unknown_scenarios_are_usage_errors() {
    assert_usage_error(DRILL, &["--rounds", "5", "--trace"], "--trace needs a value");
    let campaign = env!("CARGO_BIN_EXE_campaign");
    assert_usage_error(campaign, &["--rounds", "5", "--out"], "--out needs a value");
    let unknown = "unknown scenario 'nope' for --scenario; try --list";
    assert_usage_error(campaign, &["--scenario", "nope"], unknown);
    assert_usage_error(env!("CARGO_BIN_EXE_cluster"), &["--scenario", "nope"], unknown);
}

#[test]
fn valid_values_run() {
    let out = run(DRILL, &["--rounds", "5", "--threads", "1", "--trace-rounds", "3"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("Failure drill"));
}
