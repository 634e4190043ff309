//! # cms-admission — admission control for all six schemes
//!
//! Admission control is the paper's central mechanism: a clip may start
//! playback only if, *for every possible single-disk failure*, every disk
//! can still retrieve all of its blocks within every round. Each scheme
//! gets its own controller because each scheme's failure-mode load lands
//! differently:
//!
//! * [`DeclusteredAdmission`] (§4.2) — static contingency `f` per disk;
//!   conditions (a) ≤ `q − f·λ_max` clips per disk and (b) ≤ `f` clips per
//!   (disk, PGT row).
//! * [`DynamicAdmission`] (§5.2) — per-clip contingency that follows the
//!   clip across the disks of its parity groups (the Δ-offset sets);
//!   condition `served(i) + max cont_i(j, l) ≤ q` for every disk `i`.
//! * [`PrefetchParityDiskAdmission`] (§6.1) — plain ≤ `q` per
//!   (cluster, fetch-cadence) slot; parity disks absorb failure reads.
//! * [`FlatAdmission`] (§6.2) — ≤ `q − f` per disk per fetch round plus
//!   ≤ `f` clips per (data-disk, parity-disk) pair.
//! * [`StreamingRaidAdmission`] (§7.3) — ≤ `q` clips per cluster, fetched
//!   in lock-step long rounds.
//! * [`NonClusteredAdmission`] (§7.4) — ≤ `q` per data-disk phase; no
//!   contingency at all, which is exactly why it can hiccup on failure.
//!
//! All controllers share the *rotation* insight of Section 3: service
//! lists shift to the next disk every round, so the load pattern moves
//! rigidly and admission-time checks remain valid for the clip's entire
//! lifetime (Property 2 of §4.2). Controllers are pure bookkeeping — the
//! simulator owns actual block scheduling — and every controller exposes
//! [`Admission::worst_case_load`], which the property tests hold to the
//! round budget `q`.
//!
//! [`PendingList`] provides the FIFO, head-of-line admission queue that
//! makes every controller starvation-free.

#![forbid(unsafe_code)]

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod declustered;
pub mod dynamic;
pub mod flat;
pub mod pending;
pub mod prefetch;
pub mod traits;

pub use declustered::DeclusteredAdmission;
pub use dynamic::DynamicAdmission;
pub use flat::FlatAdmission;
pub use pending::PendingList;
pub use prefetch::{NonClusteredAdmission, PrefetchParityDiskAdmission, StreamingRaidAdmission};
pub use traits::{Admission, AdmitRequest};
