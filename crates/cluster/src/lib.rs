//! # cms-cluster — the cluster-of-servers tier
//!
//! The paper's fault-tolerant schemes (§4–§7) harden **one** d-disk
//! array. A deployment serves millions of streams from **many** such
//! arrays behind a gateway, and that composition is its own
//! fault-tolerance problem: which nodes hold which clips, where a
//! request is admitted, and what happens when a *whole node* — not a
//! disk — goes dark.
//!
//! This crate composes `N` independent [`cms_sim::Simulator`] instances
//! (each a complete engine: scheme + layout + admission + disks) behind
//! a deterministic gateway:
//!
//! * **Placement** ([`Placement`]): every cluster clip is replicated on
//!   `r` of the `N` nodes via a seeded node permutation striped
//!   round-robin — exactly balanced, O(1) to query, and invertible, so
//!   the model crate can check the catalog bound in closed form.
//! * **Routing + cluster admission** ([`ClusterSim`]): arrivals are
//!   generated at the gateway (Poisson × uniform/Zipf over the cluster
//!   catalog) and routed to the least-loaded surviving replica. Per-node
//!   capacities roll up to a cluster cap; while nodes are dark or
//!   lending bandwidth to a rebuild, the cap shrinks and the gateway
//!   load-sheds instead of overcommitting.
//! * **Node failure** (`fail-node` / `repair-node` in the `cms-fault`
//!   grammar): a failing node is evacuated and each of its streams is
//!   migrated to a surviving replica of its clip, resuming at the
//!   group-aligned offset it had reached ([`cms_sim::Simulator::submit_at`]).
//!   Streams with no surviving replica are declared lost, never
//!   silently dropped.
//! * **Cross-node rebuild**: a repaired node returns blank and must
//!   re-source its blocks from replica peers; the shipped blocks are
//!   charged against the sources' streaming bandwidth, so a rebuild
//!   visibly depresses the cluster admission cap until it completes.
//!
//! ## Determinism
//!
//! The node is the unit of parallelism, exactly as the disk is inside
//! the engine: node stepping runs on a persistent
//! [`cms_sim::pool::WorkerPool`] whose helpers are spawned once, when the
//! cluster is built. Each round the calling thread steps the first chunk
//! of nodes in place, each helper steps a later chunk it receives as
//! owned nodes, and every node keeps its own round report; the merge —
//! metrics roll-up and trace emission — then runs sequentially in
//! node-ID order. No locks, no atomics, no wall clock: a 64-node
//! campaign replays bit-identical at any `threads` setting
//! (`tests/cluster_determinism.rs` enforces it).

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod config;
pub mod metrics;
pub mod placement;
pub mod sim;

pub use config::ClusterConfig;
pub use metrics::{ClusterMetrics, ClusterRoundReport};
pub use placement::Placement;
pub use sim::{ClusterRun, ClusterSim, NodeState};
