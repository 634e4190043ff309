//! Shared command-line parsing for the bench binaries.
//!
//! Every binary in `src/bin/` takes the same small flag set (`--json`,
//! `--rounds`, `--seed`, `--threads`, `--trace`, `--trace-rounds`); this
//! module parses it once so the binaries stop copy-pasting positional
//! scans. A flag given without a value (last, or followed by another
//! `--flag`), or a numeric one whose value does not parse as `u64`, is a
//! usage error: the binary exits with status 2 and a message naming the
//! flag and the value instead of running its default.

use std::path::PathBuf;

use cms_sim::TraceSpec;

/// Parsed command-line arguments shared by all bench binaries.
#[derive(Debug, Clone, Default)]
pub struct BenchArgs {
    args: Vec<String>,
}

impl BenchArgs {
    /// Parses the process arguments (skipping `argv[0]`).
    #[must_use]
    pub fn parse() -> Self {
        Self::from_args(std::env::args().skip(1))
    }

    /// Parses an explicit argument list — the testable entry point.
    pub fn from_args<I, S>(args: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        BenchArgs { args: args.into_iter().map(Into::into).collect() }
    }

    /// Is the bare flag `name` present?
    #[must_use]
    pub fn flag(&self, name: &str) -> bool {
        self.args.iter().any(|a| a == name)
    }

    /// Prints `message` to stderr and exits with status 2, the usage-error
    /// status of every bench binary.
    pub fn usage_error(message: &str) -> ! {
        eprintln!("{message}");
        std::process::exit(2)
    }

    /// The value following `name`; `None` when the flag is absent. A
    /// flag given last, or followed by another `--flag`, has no value:
    /// that is an error naming the flag.
    fn try_value(&self, name: &str) -> Result<Option<&str>, String> {
        let Some(i) = self.args.iter().position(|a| a == name) else { return Ok(None) };
        match self.args.get(i + 1) {
            Some(value) if !value.starts_with("--") => Ok(Some(value)),
            _ => Err(format!("{name} needs a value")),
        }
    }

    /// The value following the flag `name`; `None` when the flag is
    /// absent. A missing value is a usage error ([`Self::usage_error`]).
    #[must_use]
    pub fn value(&self, name: &str) -> Option<&str> {
        self.try_value(name).unwrap_or_else(|message| Self::usage_error(&message))
    }

    /// The value following `name`, parsed as `u64`; `None` when the flag
    /// is absent. A missing value, or one that does not parse as `u64`
    /// (including one too large for it), is an error naming the flag and
    /// the value.
    fn try_u64(&self, name: &str) -> Result<Option<u64>, String> {
        let Some(value) = self.try_value(name)? else { return Ok(None) };
        value.parse().map(Some).map_err(|_| format!("invalid value '{value}' for {name}"))
    }

    /// The value following `name`, parsed as `u64`; `None` when the flag
    /// is absent. A missing or malformed value is a usage error
    /// ([`Self::usage_error`]).
    #[must_use]
    pub fn u64_value(&self, name: &str) -> Option<u64> {
        self.try_u64(name).unwrap_or_else(|message| Self::usage_error(&message))
    }

    /// `--json`: emit machine-readable output instead of tables.
    #[must_use]
    pub fn json(&self) -> bool {
        self.flag("--json")
    }

    /// `--rounds N`, defaulting to `default`.
    #[must_use]
    pub fn rounds_or(&self, default: u64) -> u64 {
        self.u64_value("--rounds").unwrap_or(default)
    }

    /// `--seed S`, defaulting to `default`.
    #[must_use]
    pub fn seed_or(&self, default: u64) -> u64 {
        self.u64_value("--seed").unwrap_or(default)
    }

    /// `--threads T` (0 = available parallelism, 1 = sequential).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.u64_value("--threads").unwrap_or(0) as usize
    }

    /// `--trace PATH`: trace export destination, if requested.
    #[must_use]
    pub fn trace_path(&self) -> Option<PathBuf> {
        self.value("--trace").map(PathBuf::from)
    }

    /// `--trace-rounds N`: keep only the last N rounds of events.
    #[must_use]
    pub fn trace_rounds(&self) -> Option<u64> {
        self.u64_value("--trace-rounds")
    }

    /// Builds the [`TraceSpec`] the flags describe: off without
    /// `--trace`, CSV when the path ends in `.csv`, JSONL otherwise,
    /// windowed by `--trace-rounds` when given. Harnesses running many
    /// simulations derive per-run file names via [`TraceSpec::labeled`].
    #[must_use]
    pub fn trace_spec(&self) -> TraceSpec {
        // Parsed even without `--trace`, so a malformed value never passes.
        let last_rounds = self.trace_rounds();
        let Some(path) = self.trace_path() else {
            return TraceSpec::off();
        };
        let is_csv = path.extension().and_then(|e| e.to_str()) == Some("csv");
        let spec = if is_csv { TraceSpec::csv(path) } else { TraceSpec::jsonl(path) };
        match last_rounds {
            Some(n) => spec.with_last_rounds(n),
            None => spec,
        }
    }

    /// For analytic-only binaries: warns on stderr when `--trace` was
    /// passed but the binary runs no simulation to trace.
    pub fn warn_if_trace_unused(&self, bin: &str) {
        if self.trace_path().is_some() {
            eprintln!("{bin}: --trace ignored (analytic-only binary, no simulation runs)");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cms_sim::TraceOutput;

    #[test]
    fn flags_and_values_parse() {
        let a = BenchArgs::from_args(["--json", "--rounds", "90", "--seed", "7", "--threads", "2"]);
        assert!(a.json());
        assert_eq!(a.rounds_or(600), 90);
        assert_eq!(a.seed_or(1), 7);
        assert_eq!(a.threads(), 2);
        // Defaults apply when absent.
        let b = BenchArgs::from_args(["--json"]);
        assert_eq!(b.rounds_or(600), 600);
        assert_eq!(b.threads(), 0);
        // A malformed, overflowing or missing value is an error naming
        // the flag and the value.
        let c = BenchArgs::from_args(["--rounds", "not-a-number", "--seed", "18446744073709551616"]);
        assert!(!c.json());
        let err = |r: Result<Option<u64>, String>| r.expect_err("must be rejected");
        assert_eq!(err(c.try_u64("--rounds")), "invalid value 'not-a-number' for --rounds");
        assert_eq!(err(c.try_u64("--seed")), "invalid value '18446744073709551616' for --seed");
        let d = BenchArgs::from_args(["--json", "--threads"]);
        assert_eq!(err(d.try_u64("--threads")), "--threads needs a value");
        assert_eq!(d.try_u64("--rounds"), Ok(None));
        // A path or name flag followed by another flag has no value.
        let e = BenchArgs::from_args(["--trace", "--json", "--out", "o.jsonl"]);
        assert_eq!(e.try_value("--trace"), Err("--trace needs a value".to_string()));
        assert_eq!(e.try_value("--out"), Ok(Some("o.jsonl")));
    }

    #[test]
    fn trace_spec_picks_format_by_extension() {
        let off = BenchArgs::from_args(["--json"]);
        assert!(off.trace_spec().is_off());

        let jsonl = BenchArgs::from_args(["--trace", "out/run.jsonl"]);
        assert_eq!(
            jsonl.trace_spec().output,
            TraceOutput::Jsonl(PathBuf::from("out/run.jsonl"))
        );

        let csv = BenchArgs::from_args(["--trace", "out/run.csv", "--trace-rounds", "32"]);
        let spec = csv.trace_spec();
        assert_eq!(spec.output, TraceOutput::Csv(PathBuf::from("out/run.csv")));
        assert_eq!(spec.last_rounds, Some(32));
    }

    #[test]
    fn unknown_extension_defaults_to_jsonl() {
        let a = BenchArgs::from_args(["--trace", "run.log"]);
        assert_eq!(a.trace_spec().output, TraceOutput::Jsonl(PathBuf::from("run.log")));
    }
}
