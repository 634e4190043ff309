//! # cms-bench — the experiment harness
//!
//! One function per paper artifact (Figures 5 and 6, the Equation 1 and
//! `computeOptimal` tables, the failure drill) so binaries, integration
//! tests and EXPERIMENTS.md all regenerate the same rows. Each row is a
//! plain serializable struct; the binaries print aligned tables and can
//! emit JSON.

#![forbid(unsafe_code)]

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod budget;
pub mod campaign;
pub mod cli;
pub mod cluster_campaign;
pub mod figures;
pub mod jobs;
pub mod timeline;

pub use campaign::{campaign_rows, CampaignRow, Scenario, CAMPAIGN_SCHEMES, SCENARIOS};
pub use cluster_campaign::{
    cluster_campaign_config, cluster_campaign_rows, ClusterCampaignRow, ClusterScenario,
    CLUSTER_SCENARIOS, GIANT_CLUSTER_SCENARIO,
};
pub use cli::BenchArgs;
pub use jobs::to_jsonl;
pub use timeline::render_timeline;
pub use figures::{
    failure_drill, failure_drill_traced, fig5_rows, fig6_rows, fig6_rows_traced, optimal_rows,
    q_table_rows, sim_point, DrillRow, Fig5Row, Fig6Row, OptimalRow, QRow, PAPER_BUFFERS,
    PAPER_D, PAPER_PS,
};
