//! The workspace-wide error type.
//!
//! Kept deliberately small: configuration errors, infeasible capacity
//! math, admission rejections and layout/design construction failures
//! cover every fallible path in the workspace.

use std::fmt;

/// Errors produced anywhere in the CM-server workspace.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CmsError {
    /// A parameter value is structurally invalid (negative latency, p > d,
    /// zero block size, …).
    InvalidParams {
        /// Human-readable description of the violated requirement.
        reason: String,
    },
    /// The configuration is well-formed but cannot meet its guarantees
    /// (e.g. Equation 1 admits zero streams, or no BIBD-like design
    /// exists).
    InfeasibleConfig {
        /// Human-readable description of why capacity math failed.
        reason: String,
    },
    /// An admission request was rejected; the request stays in the pending
    /// list (the controllers are starvation-free, so this is a *not yet*,
    /// never a *never*).
    AdmissionRejected {
        /// The binding condition and its numbers.
        reason: Rejection,
    },
    /// A block address or id fell outside the configured array/layout.
    OutOfBounds {
        /// Description of the offending access.
        reason: String,
    },
    /// The requested combinatorial design could not be constructed exactly
    /// and no fallback was permitted.
    DesignUnavailable {
        /// Parameters of the missing design.
        reason: String,
    },
}

impl CmsError {
    /// Shorthand for [`CmsError::InvalidParams`].
    #[must_use]
    pub fn invalid_params(reason: impl Into<String>) -> Self {
        CmsError::InvalidParams { reason: reason.into() }
    }

    /// Shorthand for [`CmsError::OutOfBounds`].
    #[must_use]
    pub fn out_of_bounds(reason: impl Into<String>) -> Self {
        CmsError::OutOfBounds { reason: reason.into() }
    }

    /// Shorthand for [`CmsError::AdmissionRejected`]: admitting would
    /// make `on` `index` serve `clips` clips, past `bound` = `limit`.
    #[must_use]
    pub fn rejected(
        on: &'static str,
        index: u32,
        clips: u32,
        bound: &'static str,
        limit: u32,
    ) -> Self {
        CmsError::AdmissionRejected { reason: Rejection { on, index, clips, bound, limit } }
    }
}

/// Why a controller refused a request: the binding admission condition
/// and its numbers. Plain `Copy` data, so a refusal allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rejection {
    /// What the condition counts clips on: `"disk"`, `"cluster class"`, …
    pub on: &'static str,
    /// Which one: a disk id, or a class or phase index.
    pub index: u32,
    /// The clips it would serve with the candidate admitted.
    pub clips: u32,
    /// The bound that count exceeds, e.g. `"capacity q − f"`.
    pub bound: &'static str,
    /// The bound's value.
    pub limit: u32,
}

impl fmt::Display for Rejection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Rejection { on, index, clips, bound, limit } = self;
        write!(f, "{on} {index} would serve {clips} clips, {bound} = {limit}")
    }
}

impl fmt::Display for CmsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CmsError::InvalidParams { reason } => write!(f, "invalid parameters: {reason}"),
            CmsError::InfeasibleConfig { reason } => write!(f, "infeasible configuration: {reason}"),
            CmsError::AdmissionRejected { reason } => write!(f, "admission rejected: {reason}"),
            CmsError::OutOfBounds { reason } => write!(f, "out of bounds: {reason}"),
            CmsError::DesignUnavailable { reason } => write!(f, "design unavailable: {reason}"),
        }
    }
}

impl std::error::Error for CmsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_reason() {
        let e = CmsError::invalid_params("p > d");
        assert_eq!(e.to_string(), "invalid parameters: p > d");
        let e = CmsError::InfeasibleConfig { reason: "q = 0".into() };
        assert!(e.to_string().contains("q = 0"));
    }

    #[test]
    fn errors_are_comparable() {
        let full = CmsError::rejected("disk", 0, 3, "capacity q − f", 2);
        assert_eq!(full, CmsError::rejected("disk", 0, 3, "capacity q − f", 2));
        assert_ne!(full, CmsError::rejected("disk", 1, 3, "capacity q − f", 2));
        assert_eq!(
            full.to_string(),
            "admission rejected: disk 0 would serve 3 clips, capacity q − f = 2"
        );
    }

    #[test]
    fn error_trait_object_works() {
        let e: Box<dyn std::error::Error> = Box::new(CmsError::out_of_bounds("disk 99"));
        assert!(e.to_string().contains("disk 99"));
    }
}
