#![forbid(unsafe_code)]
//! The repository benchmark: five workloads through the public facades,
//! host-normalized round-time tails, per-layer probes and a traced run.
//! See README.md in this directory for usage and the metric catalogue.

mod checks;
mod compare;
mod layers;
mod measure;
mod run;
mod spans;
mod tables;
mod workloads;

#[global_allocator]
static ALLOC: bench_alloc::Counting = bench_alloc::Counting;

use std::path::PathBuf;
use std::process::ExitCode;

use serde::Value;

use run::{Reference, RunResult};
use workloads::{Options, Workload, WORKLOADS};

const USAGE: &str = "\
usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1|DIR]
                 [--threads N] [--rate LAMBDA]
       benchmark --compare A.json... -- B.json...
       benchmark --self-test | --determinism";

/// Default timed seconds per workload.
const DEFAULT_SECONDS: f64 = 10.0;
/// Where `--trace 1` writes its spans.
const DEFAULT_TRACE_DIR: &str = "bench-trace";

/// A parsed command line.
#[derive(Debug)]
enum Command {
    Run {
        only: Option<&'static Workload>,
        opts: Options,
        seconds: f64,
        trace: Option<PathBuf>,
    },
    Compare {
        a: Vec<PathBuf>,
        b: Vec<PathBuf>,
    },
    SelfTest,
    Determinism,
}

fn parse(args: &[String]) -> Result<Command, String> {
    if args.first().map(String::as_str) == Some("--compare") {
        let rest = &args[1..];
        let split = rest
            .iter()
            .position(|a| a == "--")
            .ok_or("--compare needs `--` between the two sets")?;
        let (a, b) = (&rest[..split], &rest[split + 1..]);
        if a.is_empty() || b.is_empty() {
            return Err("--compare needs at least one file on each side".into());
        }
        return Ok(Command::Compare {
            a: a.iter().map(PathBuf::from).collect(),
            b: b.iter().map(PathBuf::from).collect(),
        });
    }
    match args.first().map(String::as_str) {
        Some("--self-test") if args.len() == 1 => return Ok(Command::SelfTest),
        Some("--determinism") if args.len() == 1 => return Ok(Command::Determinism),
        _ => {}
    }
    let mut only = None;
    let mut opts = Options::DEFAULT;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                only =
                    Some(workloads::workload(value).ok_or(format!("unknown workload `{value}`"))?);
            }
            "--seed" => opts.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err(bad("seconds in (0, 60]"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => None,
                    "1" => Some(PathBuf::from(DEFAULT_TRACE_DIR)),
                    dir => Some(PathBuf::from(dir)),
                };
            }
            "--threads" => opts.threads = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--rate" => {
                let rate: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(rate > 0.0 && rate <= 1e4) {
                    return Err(bad("a rate in (0, 10000]"));
                }
                opts.rate = Some(rate);
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Command::Run {
        only,
        opts,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let command = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match command {
        Command::Compare { a, b } => compare::main(&a, &b),
        Command::SelfTest => self_test(),
        Command::Determinism => determinism(),
        Command::Run {
            only,
            opts,
            seconds,
            trace,
        } => {
            let selected: Vec<&Workload> = match only {
                Some(w) => vec![w],
                None => WORKLOADS.iter().collect(),
            };
            run_all(&selected, &opts, seconds, trace)
        }
    }
}

/// Runs the selected workloads in this process and prints one info line
/// per workload, then the result line. With one workload the result's
/// metric names are bare; with several they are `workload/metric`.
fn run_all(
    selected: &[&Workload],
    opts: &Options,
    seconds: f64,
    trace: Option<PathBuf>,
) -> ExitCode {
    let reference = Reference::committed();
    let mut results: Vec<RunResult> = Vec::new();
    let mut spans = String::new();
    for w in selected {
        let r = match &trace {
            None => run::run_end_to_end(w, opts, seconds, &reference),
            Some(_) => layers::run_traced(w, opts, seconds, &reference, &mut spans),
        };
        let mut info: Vec<(String, Value)> =
            vec![("workload".into(), Value::String(w.name.into()))];
        info.extend(r.facts.iter().map(|(k, v)| ((*k).to_string(), v.clone())));
        info.push((
            "failures".into(),
            Value::Array(
                r.failures
                    .iter()
                    .map(|f| Value::String(f.clone()))
                    .collect(),
            ),
        ));
        println!(
            "{}",
            serde_json::to_string(&Value::Object(info)).unwrap_or_default()
        );
        results.push(r);
    }
    if let Some(dir) = &trace {
        let path = dir.join("spans.jsonl");
        let written = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, &spans));
        if let Err(e) = written {
            eprintln!("benchmark: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("benchmark: wrote {}", path.display());
    }
    let prefixed = results.len() > 1;
    let mut metrics = Vec::new();
    for r in &results {
        for &(name, value) in &r.metrics {
            let unit = tables::metric(name).map_or("", |m| m.unit);
            let key = if prefixed {
                format!("{}/{name}", r.workload)
            } else {
                name.to_string()
            };
            metrics.push((
                key,
                Value::Object(vec![
                    ("value".into(), Value::F64(value)),
                    ("unit".into(), Value::String(unit.into())),
                ]),
            ));
        }
    }
    let correct = results.iter().all(|r| r.failures.is_empty());
    let line = Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        (
            "attempted".into(),
            Value::U64(results.iter().map(|r| r.attempted).sum::<u64>().max(1)),
        ),
        (
            "failed".into(),
            Value::U64(results.iter().map(|r| r.failed).sum()),
        ),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    println!("{}", serde_json::to_string(&line).unwrap_or_default());
    if correct {
        ExitCode::SUCCESS
    } else {
        for r in &results {
            for f in &r.failures {
                eprintln!("benchmark: {}: {f}", r.workload);
            }
        }
        ExitCode::FAILURE
    }
}

/// `--self-test`: runs a short reference `steady` and proves the checker
/// rejects a wrong digest, a forged parity mismatch, broken
/// conservation and a short window.
fn self_test() -> ExitCode {
    let reference = Reference::committed();
    let w = workloads::workload("steady").expect("steady exists");
    let good = run::short_evidence(w, &Options::DEFAULT, &reference);
    match checks::self_test(&good) {
        Ok(lines) => {
            for l in lines {
                println!("self-test: {l}");
            }
            println!("self-test: ok");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("self-test: FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `--determinism`: each workload's prefix digest at one and at two
/// worker threads, against the recorded default-seed digest.
fn determinism() -> ExitCode {
    let reference = Reference::committed();
    let mut ok = true;
    for w in &WORKLOADS {
        let digests: Vec<u64> = [1usize, 2]
            .iter()
            .map(|&t| {
                run::prefix_digest(
                    w,
                    &Options {
                        threads: Some(t),
                        ..Options::DEFAULT
                    },
                )
            })
            .collect();
        let recorded = reference.digests.get(w.name).copied();
        let same = digests[0] == digests[1] && recorded == Some(digests[0]);
        ok &= same;
        println!(
            "{:16} rounds={:5} threads1={:016x} threads2={:016x} recorded={} {}",
            w.name,
            w.prefix_rounds,
            digests[0],
            digests[1],
            recorded.map_or("none".to_string(), |d| format!("{d:016x}")),
            if same { "ok" } else { "MISMATCH" }
        );
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn run_command_line_parses() {
        let c = parse(&args("--workload giant --seed 7 --seconds 10 --trace 1")).expect("parses");
        let Command::Run {
            only,
            opts,
            seconds,
            trace,
        } = c
        else {
            panic!("run expected")
        };
        assert_eq!(only.map(|w| w.name), Some("giant"));
        assert_eq!((opts.seed, seconds), (7, 10.0));
        assert_eq!(trace, Some(PathBuf::from(DEFAULT_TRACE_DIR)));
        let Command::Run { trace, .. } = parse(&args("--trace 0")).expect("parses") else {
            panic!("run expected")
        };
        assert_eq!(trace, None);
    }

    #[test]
    fn bad_input_is_rejected_not_panicked() {
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds 0",
            "--seconds 61",
            "--rate x",
            "--rate 0",
            "--threads",
            "--bogus 1",
            "--compare a.json",
            "--compare -- b.json",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn compare_splits_the_two_sets() {
        let Command::Compare { a, b } = parse(&args("--compare a1 a2 -- b1")).expect("parses")
        else {
            panic!("compare expected")
        };
        assert_eq!((a.len(), b.len()), (2, 1));
    }
}
