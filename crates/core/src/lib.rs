//! # cms-core — system model for the fault-tolerant CM server
//!
//! This crate implements Section 3 of *Fault-tolerant Architectures for
//! Continuous Media Servers* (Özden, Rastogi, Shenoy, Silberschatz,
//! SIGMOD 1996): the shared vocabulary of the whole workspace.
//!
//! It provides:
//!
//! * strongly-typed identifiers ([`DiskId`], [`ClipId`], [`Round`], …),
//! * the disk and server parameters of the paper's Figure 1
//!   ([`DiskParams`], [`ServerParams`]),
//! * the *continuity-of-playback* constraint (the paper's Equation 1) and
//!   the derived per-disk, per-round service budget `q` (see
//!   [`continuity`]),
//! * the taxonomy of fault-tolerance schemes studied by the paper
//!   ([`Scheme`]),
//! * the shared error type ([`CmsError`]).
//!
//! Everything downstream — layouts, admission control, the analytical
//! model and the simulator — is expressed in these terms.
//!
//! ```
//! use cms_core::{ContinuityBudget, DiskParams};
//! use cms_core::units::{kib, mbps};
//!
//! // How many MPEG-1 streams can one 1996 disk serve per round with
//! // 256 KiB stripe units? (Equation 1)
//! let disk = DiskParams::sigmod96();
//! let budget = ContinuityBudget::solve(&disk, kib(256), mbps(1.5)).unwrap();
//! assert_eq!(budget.q, 24);
//! assert!(budget.utilization(budget.q) <= 1.0);
//! ```

#![forbid(unsafe_code)]

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod continuity;
pub mod error;
pub mod gss;
pub mod ids;
pub mod params;
pub mod scheme;
pub mod units;

pub use continuity::{max_block_size_for_q, max_clips_per_round, round_duration, ContinuityBudget};
pub use error::{CmsError, Rejection};
pub use gss::GssBudget;
pub use ids::{BlockIndex, ClipId, DiskId, NodeId, RequestId, Round};
pub use params::{DiskParams, ServerParams};
pub use scheme::Scheme;
