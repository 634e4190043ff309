//! The committed repro file format.
//!
//! A repro is a valid `cms-fault` spec file with a config header in
//! `#`-comment lines, so the *entire* file round-trips through
//! `FaultSchedule::parse` unchanged and any fault-spec tooling can read
//! it directly:
//!
//! ```text
//! # cms-conformance repro v1
//! # invariant: capacity-bound
//! # detail: peak_active 40 exceeds model bound 32
//! # case: scheme=declustered d=8 p=2 buffer_mib=32 clips=8 clip_len=4 \
//! #       arrival_milli=1000 rounds=16 seed=0 rebuild=0 degraded=0
//! @4 fail 1
//! ```
//!
//! (The header is one physical line; the wrap above is for rustdoc.)

use crate::case::ConformanceCase;
use crate::invariants::InvariantId;
use cms_core::CmsError;
use cms_fault::FaultSchedule;
use std::fmt::Write as _;

/// Magic first line of every repro file.
pub const MAGIC: &str = "# cms-conformance repro v1";

/// A shrunk, committed reproduction: the case plus what it violates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Repro {
    /// The minimal failing case.
    pub case: ConformanceCase,
    /// The invariant family it violates.
    pub invariant: InvariantId,
    /// The violation detail at capture time (informational; replays
    /// recompute it).
    pub detail: String,
}

impl Repro {
    /// Renders the repro file text.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{MAGIC}");
        let _ = writeln!(out, "# invariant: {}", self.invariant.token());
        if !self.detail.is_empty() {
            // Keep the detail single-line so it stays one comment.
            let _ = writeln!(out, "# detail: {}", self.detail.replace('\n', " "));
        }
        let _ = writeln!(out, "# case: {}", self.case.header());
        out.push_str(&self.case.faults.to_string());
        out
    }

    /// Parses a repro file.
    ///
    /// # Errors
    ///
    /// Returns [`CmsError::InvalidParams`] for a missing/unknown header,
    /// or any `cms-fault` spec parse error for the event lines (with
    /// line numbers counting the full file, header included).
    pub fn parse(text: &str) -> Result<Self, CmsError> {
        let mut invariant = None;
        let mut detail = String::new();
        let mut case = None;
        for line in text.lines() {
            let line = line.trim();
            if let Some(token) = line.strip_prefix("# invariant:") {
                let token = token.trim();
                invariant = Some(InvariantId::from_token(token).ok_or_else(|| {
                    CmsError::invalid_params(format!("repro: unknown invariant `{token}`"))
                })?);
            } else if let Some(d) = line.strip_prefix("# detail:") {
                detail = d.trim().to_owned();
            } else if let Some(body) = line.strip_prefix("# case:") {
                case = Some(ConformanceCase::parse_header(body.trim())?);
            }
        }
        let mut case = case.ok_or_else(|| {
            CmsError::invalid_params("repro: missing `# case:` header line")
        })?;
        let invariant = invariant.ok_or_else(|| {
            CmsError::invalid_params("repro: missing `# invariant:` header line")
        })?;
        // The whole file is a fault spec; headers are comments to it.
        case.faults = FaultSchedule::parse(text)?;
        case.faults.validate(case.d)?;
        Ok(Repro { case, invariant, detail })
    }

    /// A stable, descriptive file name for the corpus.
    #[must_use]
    pub fn file_name(&self) -> String {
        format!(
            "{}-{}-d{}-p{}-seed{}.repro",
            self.invariant.token(),
            self.case.scheme.token(),
            self.case.d,
            self.case.p,
            self.case.seed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cms_core::Scheme;

    fn sample() -> Repro {
        Repro {
            case: ConformanceCase {
                scheme: Scheme::StreamingRaid,
                d: 8,
                p: 4,
                m: 1,
                buffer_mib: 64,
                clips: 16,
                clip_len: 8,
                arrival_milli: 1_500,
                rounds: 90,
                seed: 11,
                auto_rebuild: false,
                degraded: true,
                threads: 1,
                faults: FaultSchedule::parse("@12 fail 2\n@40 repair 2\n").unwrap(),
            },
            invariant: InvariantId::DegradedCap,
            detail: "round 13: 5 admissions exceed degraded headroom 0".to_owned(),
        }
    }

    #[test]
    fn text_round_trips() {
        let repro = sample();
        let text = repro.to_text();
        assert_eq!(Repro::parse(&text).unwrap(), repro, "{text}");
    }

    #[test]
    fn whole_file_is_a_valid_fault_spec() {
        let repro = sample();
        let parsed = FaultSchedule::parse(&repro.to_text()).unwrap();
        assert_eq!(parsed, repro.case.faults);
    }

    #[test]
    fn parse_rejects_missing_headers() {
        assert!(Repro::parse("@10 fail 1\n").is_err());
        let msg = Repro::parse("# invariant: gravity\n# case: scheme=dynamic d=4\n")
            .unwrap_err()
            .to_string();
        assert!(msg.contains("`gravity`"), "{msg}");
    }

    #[test]
    fn fault_spec_errors_carry_whole_file_line_numbers() {
        let mut text = sample().to_text();
        text.push_str("@5 explode 1\n");
        let msg = Repro::parse(&text).unwrap_err().to_string();
        // Header (3 lines + case line) + 2 events + the bad line = 7.
        assert!(msg.contains("line 7") && msg.contains("`explode`"), "{msg}");
    }

    #[test]
    fn file_names_are_descriptive() {
        assert_eq!(sample().file_name(), "degraded-cap-streaming-raid-d8-p4-seed11.repro");
    }
}
