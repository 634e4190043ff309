//! `cmfs` — command-line front end for the fault-tolerant CM server
//! reproduction.
//!
//! ```text
//! cmfs capacity  [--disks D] [--buffer-mb MB]         analytic capacity per scheme
//! cmfs tune      --scheme S [--disks D] [--buffer-mb MB]
//! cmfs simulate  --scheme S [--rounds N] [--rate L] [--fail-at R] [--rebuild]
//! cmfs drill     [--rounds N]                          failure drill, all schemes
//! cmfs schemes                                         list schemes
//! ```

#![forbid(unsafe_code)]

use cms_core::units::mib;
use cms_core::{DiskId, Scheme};
use cms_model::{tuned_optimal, tuned_point, ModelInput};
use cms_sim::{SimConfig, Simulator};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    match cmd {
        "capacity" => capacity_cmd(&args),
        "tune" => tune_cmd(&args),
        "simulate" => simulate_cmd(&args),
        "drill" => drill_cmd(&args),
        "reliability" => reliability_cmd(&args),
        "schemes" => schemes_cmd(),
        "help" | "--help" | "-h" => help(),
        other => usage_error(&format!("unknown command '{other}'; see `cmfs help`")),
    }
}

fn help() {
    let tokens: Vec<&str> = schemes_in_declaration_order().map(Scheme::token).collect();
    println!(
        "cmfs — fault-tolerant continuous media server (SIGMOD'96 reproduction)\n\
         \n\
         USAGE:\n\
         \x20 cmfs capacity  [--disks D] [--buffer-mb MB]\n\
         \x20 cmfs tune      --scheme S [--disks D] [--buffer-mb MB] [--parity-group P]\n\
         \x20 cmfs simulate  --scheme S [--rounds N] [--rate L] [--fail-at R] [--rebuild]\n\
         \x20 cmfs drill     [--rounds N]\n\
         \x20 cmfs reliability [--disks D] [--mttf-hours H] [--parity-group P] [--repair-hours T]\n\
         \x20 cmfs schemes\n\
         \n\
         Scheme names: {}.",
        tokens.join(", ")
    );
}

/// Every scheme in declaration order, not the figures' order of `ALL`.
fn schemes_in_declaration_order() -> impl Iterator<Item = Scheme> {
    let mut schemes = Scheme::ALL;
    schemes.sort();
    schemes.into_iter()
}

fn flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// Prints a usage error and exits with status 2.
fn usage_error(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(2);
}

/// The value after flag `name`, parsed as `T`; `None` when the flag is
/// absent. A missing value, or one that does not parse as `T` (including
/// an integer too large for it), is a usage error naming the flag.
fn opt<T: std::str::FromStr>(args: &[String], name: &str) -> Option<T> {
    let i = args.iter().position(|a| a == name)?;
    let Some(value) = args.get(i + 1) else {
        usage_error(&format!("{name} needs a value"))
    };
    match value.parse() {
        Ok(v) => Some(v),
        Err(_) => usage_error(&format!("invalid value '{value}' for {name}")),
    }
}

fn parse_scheme(args: &[String]) -> Scheme {
    let name = args
        .iter()
        .position(|a| a == "--scheme")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| usage_error("missing --scheme; see `cmfs schemes`"));
    Scheme::from_token(&name)
        .unwrap_or_else(|| usage_error(&format!("unknown scheme '{name}'; see `cmfs schemes`")))
}

fn input_from(args: &[String]) -> ModelInput {
    let d = opt(args, "--disks").unwrap_or(32);
    let buffer_mb: u64 = opt(args, "--buffer-mb").unwrap_or(256);
    let buffer = buffer_mb
        .checked_mul(mib(1))
        .unwrap_or_else(|| usage_error(&format!("invalid value '{buffer_mb}' for --buffer-mb")));
    let mut input = ModelInput::sigmod96(buffer);
    input.d = d;
    input.with_storage_blocks(75_000)
}

fn schemes_cmd() {
    println!("available schemes:");
    for scheme in schemes_in_declaration_order() {
        println!("  {:<16} {}", scheme.token(), scheme.label());
    }
}

fn capacity_cmd(args: &[String]) {
    let input = input_from(args);
    println!(
        "analytic capacity, d = {}, B = {} MB:",
        input.d,
        input.buffer_bytes >> 20
    );
    println!(
        "{:<34} {:>4} {:>10} {:>4} {:>3} {:>8}",
        "scheme", "p", "block", "q", "f", "streams"
    );
    for scheme in Scheme::ALL {
        match tuned_optimal(scheme, &input, 1) {
            Ok(pt) => println!(
                "{:<34} {:>4} {:>6} KiB {:>4} {:>3} {:>8}",
                scheme.label(),
                pt.p,
                pt.block_bytes / 1024,
                pt.q,
                pt.f,
                pt.total_clips
            ),
            Err(e) => println!("{:<34} infeasible: {e}", scheme.label()),
        }
    }
}

fn tune_cmd(args: &[String]) {
    let scheme = parse_scheme(args);
    let input = input_from(args);
    let result = match opt(args, "--parity-group") {
        Some(p) => tuned_point(scheme, &input, p, 1),
        None => tuned_optimal(scheme, &input, 1),
    };
    match result {
        Ok(pt) => {
            println!("scheme        : {}", scheme.label());
            println!("parity group  : {}", pt.p);
            println!("block size    : {} KiB", pt.block_bytes / 1024);
            println!("round budget q: {}", pt.q);
            println!("contingency f : {}", pt.f);
            if pt.r > 0 {
                println!("PGT rows r    : {}", pt.r);
            }
            println!("capacity      : {} concurrent streams", pt.total_clips);
        }
        Err(e) => {
            eprintln!("infeasible: {e}");
            std::process::exit(1);
        }
    }
}

fn simulate_cmd(args: &[String]) {
    let scheme = parse_scheme(args);
    let input = input_from(args);
    let point = match opt(args, "--parity-group") {
        Some(p) => tuned_point(scheme, &input, p, 1),
        None => tuned_optimal(scheme, &input, 1),
    }
    .unwrap_or_else(|e| {
        eprintln!("infeasible: {e}");
        std::process::exit(1);
    });
    let mut cfg = SimConfig::sigmod96(scheme, &point, input.d);
    cfg.rounds = opt(args, "--rounds").unwrap_or(600);
    cfg.arrival_rate = opt(args, "--rate").unwrap_or(20.0);
    cfg.auto_rebuild = flag(args, "--rebuild");
    if let Some(r) = opt(args, "--fail-at") {
        cfg = cfg.with_failure(r, DiskId(1)).with_verification();
    }
    let m = Simulator::new(cfg).unwrap_or_else(|e| {
        eprintln!("cannot construct simulator: {e}");
        std::process::exit(1);
    })
    .run();
    println!("{}", serde_json::to_string_pretty(&m).expect("serializable"));
}

fn drill_cmd(args: &[String]) {
    let rounds: u64 = opt(args, "--rounds").unwrap_or(300);
    println!("failure drill ({rounds} rounds, disk 5 dies at {}):", rounds / 3);
    for row in cms_bench_drill(rounds) {
        println!(
            "  {:<34} hiccups {:>6}  parityΔ {:>2}  {}",
            row.0,
            row.1,
            row.2,
            if row.1 == 0 && row.2 == 0 { "HELD" } else { "BROKEN" }
        );
    }
}

fn reliability_cmd(args: &[String]) {
    let d = opt(args, "--disks").unwrap_or(32);
    let mttf = opt(args, "--mttf-hours").unwrap_or(300_000.0);
    let p = opt(args, "--parity-group").unwrap_or(4);
    let repair = opt(args, "--repair-hours").unwrap_or(1.0);
    println!("per-disk MTTF     : {mttf:.0} h");
    println!(
        "array MTTF (d={d}) : {:.0} h (~{:.0} days) — first failure, no protection",
        cms_model::array_mttf_hours(mttf, d),
        cms_model::array_mttf_hours(mttf, d) / 24.0
    );
    match cms_model::mttdl_hours(mttf, d, p, repair) {
        Ok(mttdl) => println!(
            "MTTDL (p={p}, repair {repair} h): {mttdl:.2e} h (~{:.0} years) — with parity",
            mttdl / 8760.0
        ),
        Err(e) => eprintln!("invalid reliability parameters: {e}"),
    }
}

/// Thin local re-implementation of the bench drill (the root binary must
/// not depend on the dev-only bench crate).
fn cms_bench_drill(rounds: u64) -> Vec<(String, u64, u64)> {
    let input = ModelInput::sigmod96(mib(256)).with_storage_blocks(75_000);
    Scheme::ALL
        .into_iter()
        .filter_map(|scheme| {
            let point = tuned_point(scheme, &input, 4, 1).ok()?;
            let mut cfg = SimConfig::sigmod96(scheme, &point, 32)
                .with_failure(rounds / 3, DiskId(5))
                .with_verification();
            cfg.rounds = rounds;
            let m = Simulator::new(cfg).ok()?.run();
            Some((scheme.label().to_string(), m.hiccups, m.parity_mismatches))
        })
        .collect()
}
