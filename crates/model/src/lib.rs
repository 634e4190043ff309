//! # cms-model — the analytical capacity model of Section 7
//!
//! For every scheme, the paper derives two coupled constraints:
//!
//! * the **continuity-of-playback** constraint (Equation 1, or its
//!   streaming-RAID variant), which caps the per-disk, per-round retrieval
//!   budget `q` given a block size `b`, and
//! * a **buffer constraint**, which caps `b` given `q` (and the scheme's
//!   per-clip buffer footprint).
//!
//! Substituting the buffer-optimal `b(q)` into the continuity constraint
//! yields the largest feasible `q`; sweeping the contingency reservation
//! `f` (where applicable) and the parity group size `p` then maximizes the
//! number of concurrently serviceable clips. [`optimal::compute_optimal`]
//! is the paper's Figure 4 procedure; [`capacity::capacity`] evaluates a
//! single `(scheme, p)` point — the generator of every curve in Figure 5.
//!
//! ```
//! use cms_core::Scheme;
//! use cms_model::{capacity, compute_optimal, ModelInput};
//!
//! let input = ModelInput::sigmod96(256 << 20); // the paper's 256 MB server
//! let point = capacity(Scheme::DeclusteredParity, &input, 4).unwrap();
//! assert!(point.total_clips > 500);
//!
//! // Figure 4: the capacity-maximizing parity group size.
//! let best = compute_optimal(Scheme::DeclusteredParity, &input, 2, false).unwrap();
//! assert!(best.total_clips >= point.total_clips);
//! ```

#![forbid(unsafe_code)]

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod capacity;
pub mod cluster;
pub mod contract;
pub mod optimal;
pub mod reliability;

pub use capacity::{
    capacity, capacity_with_lambda, capacity_with_redundancy, CapacityPoint, ModelInput,
};
pub use cluster::{
    clip_concurrency_bound, cluster_capacity_bound, cluster_rebuild_rounds,
    degraded_cluster_capacity_bound, max_catalog_clips,
};
pub use contract::{capacity_bound, capacity_tolerance, rebuild_window_rounds};
pub use optimal::{
    compute_optimal, p_min, tuned_optimal, tuned_optimal_with_redundancy, tuned_point,
    tuned_point_with_redundancy,
};
pub use reliability::{array_mttf_hours, mttdl_hours};
