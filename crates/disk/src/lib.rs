//! # cms-disk — the Equation-1 disk, C-SCAN scheduling, and the disk array
//!
//! The substrate under every scheme in the paper: a model of mid-1990s
//! disk drives (Section 3 / Figure 1), priced exactly as the admission
//! math prices them:
//!
//! * a **timing model**: Equation 1's per-block cost — a seek linear in
//!   the cylinders travelled, a full rotation, a settle and an
//!   inner-track transfer,
//! * a **C-SCAN scheduler** ([`cscan`]) that orders a round's block
//!   requests into at most two ascending sweeps, matching the paper's
//!   "disk heads travel across the disk at most twice" accounting,
//! * a **disk array** ([`mod@array`]) with one down flag and one
//!   service-time multiplier per disk and per-round service accounting,
//!   used by `cms-sim` to execute rounds and verify that the round
//!   deadline `b / r_p` is never violated for admitted loads.

#![forbid(unsafe_code)]

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod array;
pub mod cscan;
mod timing;

pub use array::{Disk, DiskArray, RoundOutcome, ServiceContext, ServiceScratch};
pub use cscan::{sweep_order_into, BlockRequest};
