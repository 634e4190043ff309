//! # cms-layout — data and parity placement for all six schemes
//!
//! The schemes of the paper differ in *where* data and parity blocks live
//! and *which* blocks form a parity group:
//!
//! | builder | paper | placement |
//! |---|---|---|
//! | [`declustered::build`] | §4.1, Figure 2 | BIBD/PGT declustering, single concatenated stream |
//! | [`declustered::build_super_clips`] | §5.1 | same PGT, `r` super-clips pinned to PGT rows |
//! | [`clustered::build`] | §6.1 (also §7.3, §7.4) | clusters of `p` disks with a dedicated parity disk |
//! | [`flat::build`] | §6.2, Figure 3 | clusters of `p−1` data disks, parity rotated over the following disks |
//!
//! Streaming RAID and the non-clustered baseline share the clustered
//! placement — they differ from pre-fetching only in *retrieval* policy,
//! which lives in `cms-admission`/`cms-sim`.
//!
//! All builders produce a [`MaterializedLayout`]: a fully resolved map
//! from stream addresses to physical block locations, from physical slots
//! back to their contents, and from every data block to its parity group.
//! Materializing makes the subtle placement rules (the Figure 2 `n`-search,
//! parity rotation, the Figure 3 parity offsets) directly testable against
//! the paper's worked examples, and gives the simulator O(1) lookups.
//! The builders write its flat 32-bit tables directly, each allocated
//! once at its final size: a data block costs about 41 bytes on a
//! 1000-disk declustered array ([`MaterializedLayout::heap_bytes`]).
//! [`MaterializedLayout::group`] returns a [`GroupView`] borrowed from
//! those tables.

#![forbid(unsafe_code)]

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod clustered;
pub mod declustered;
pub mod flat;
pub mod materialized;
pub mod types;

pub use materialized::{GroupView, MaterializedLayout};
pub use types::{BlockLocation, GroupId, Slot, StreamAddr};
