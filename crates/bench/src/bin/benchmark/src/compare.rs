#![forbid(unsafe_code)]
//! `--compare A.json... -- B.json...`: the median and quartiles of each
//! metric in two sets of result files, whether the sets agree within the
//! metric's bound, and each set's failed share of operations.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use serde::Value;

use crate::measure::{median, quartiles};
use crate::tables;

/// One result line: metric values plus operation counts.
#[derive(Debug, Default)]
struct Parsed {
    metrics: BTreeMap<String, f64>,
    attempted: u64,
    failed: u64,
}

fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.as_object()?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

/// Parses the last non-empty line of a benchmark's output.
fn parse_result(text: &str) -> Result<Parsed, String> {
    let line = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("empty file")?;
    let doc: Value =
        serde_json::from_str(line).map_err(|e| format!("last line is not JSON: {e}"))?;
    let count = |key: &str| {
        field(&doc, key)
            .and_then(Value::as_u64)
            .ok_or(format!("missing integer `{key}`"))
    };
    let mut out = Parsed {
        attempted: count("attempted")?,
        failed: count("failed")?,
        ..Parsed::default()
    };
    let metrics = field(&doc, "metrics")
        .and_then(Value::as_object)
        .ok_or("missing `metrics`")?;
    for (name, m) in metrics {
        let value = field(m, "value")
            .and_then(Value::as_f64)
            .ok_or(format!("metric {name} has no value"))?;
        out.metrics.insert(name.clone(), value);
    }
    Ok(out)
}

fn load(paths: &[PathBuf]) -> Result<Vec<Parsed>, String> {
    paths
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
            parse_result(&text).map_err(|e| format!("{}: {e}", p.display()))
        })
        .collect()
}

/// `median [q1, q3]` of a set, as printed.
fn summary(values: &[f64]) -> String {
    match quartiles(values) {
        Some([q1, _, q3]) => format!("{:.4} [{q1:.4}, {q3:.4}]", median(values)),
        None => format!("{:.4}", median(values)),
    }
}

/// One metric's verdict: `Some(true)` when the medians agree within the
/// bound, `None` when the metric has no bound.
fn agrees(a: f64, b: f64, bound: Option<f64>) -> Option<bool> {
    let bound = bound?;
    if a == 0.0 {
        return Some(b == 0.0);
    }
    Some(((b - a) / a).abs() <= bound)
}

/// Runs the comparison and prints one row per metric.
pub fn main(a: &[PathBuf], b: &[PathBuf]) -> ExitCode {
    let (sa, sb) = match (load(a), load(b)) {
        (Ok(sa), Ok(sb)) => (sa, sb),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("compare: {e}");
            return ExitCode::from(2);
        }
    };
    let keys: std::collections::BTreeSet<&String> = sa
        .iter()
        .chain(&sb)
        .flat_map(|p| p.metrics.keys())
        .collect();
    let mut disagreements = 0;
    println!(
        "{:40} {:>34} {:>34} {:>8} {:>6} {:>6}  verdict",
        "metric", "A median [q1, q3]", "B median [q1, q3]", "delta", "bound", "better"
    );
    for key in keys {
        let va: Vec<f64> = sa
            .iter()
            .filter_map(|p| p.metrics.get(key).copied())
            .collect();
        let vb: Vec<f64> = sb
            .iter()
            .filter_map(|p| p.metrics.get(key).copied())
            .collect();
        if va.is_empty() || vb.is_empty() {
            println!("{key:40} present in one set only");
            disagreements += 1;
            continue;
        }
        let name = key.rsplit('/').next().unwrap_or(key);
        let metric = tables::metric(name);
        let bound = metric.and_then(|m| m.bound);
        let better = metric.map_or("-", |m| m.better.as_str());
        let (ma, mb) = (median(&va), median(&vb));
        let delta = if ma == 0.0 { 0.0 } else { (mb - ma) / ma };
        let verdict = match agrees(ma, mb, bound) {
            Some(true) => "agree",
            Some(false) => {
                disagreements += 1;
                "DISAGREE"
            }
            None => "-",
        };
        println!(
            "{key:40} {:>34} {:>34} {:>+7.2}% {:>6} {better:>6}  {verdict}",
            summary(&va),
            summary(&vb),
            delta * 100.0,
            bound.map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0)),
        );
    }
    for (label, set) in [("A", &sa), ("B", &sb)] {
        let attempted: u64 = set.iter().map(|p| p.attempted).sum();
        let failed: u64 = set.iter().map(|p| p.failed).sum();
        println!(
            "set {label}: {} runs, ops_failed/ops = {failed}/{attempted} = {:.3e}",
            set.len(),
            failed as f64 / attempted.max(1) as f64
        );
    }
    if disagreements == 0 {
        println!("compare: every bounded metric agrees");
        ExitCode::SUCCESS
    } else {
        println!("compare: {disagreements} metric(s) disagree");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINE: &str = r#"{"correct":true,"attempted":100,"failed":1,"metrics":{"steady/round_us_p50":{"value":20.5,"unit":"us"}}}"#;

    #[test]
    fn reads_the_last_line() {
        let p = parse_result(&format!("info line\n{LINE}\n\n")).expect("parses");
        assert_eq!((p.attempted, p.failed), (100, 1));
        assert_eq!(p.metrics.get("steady/round_us_p50"), Some(&20.5));
        assert!(parse_result("").is_err());
        assert!(parse_result("{\"correct\":true}").is_err());
    }

    #[test]
    fn agreement_uses_the_bound() {
        assert_eq!(agrees(100.0, 109.0, Some(0.10)), Some(true));
        assert_eq!(agrees(100.0, 111.0, Some(0.10)), Some(false));
        assert_eq!(agrees(100.0, 89.0, Some(0.10)), Some(false));
        assert_eq!(agrees(100.0, 300.0, None), None);
    }
}
