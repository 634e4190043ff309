//! Cluster campaign scenarios: golden sweep, failure-mode differentials,
//! and the timeline's node-lane rendering pinned as an ASCII snapshot.
//!
//! The cluster-tier mirror of `tests/fault_scenarios.rs`:
//!
//! 1. **Golden**: the cluster campaign sweep regenerated here must match
//!    the committed JSONL byte-for-byte, so behavioural drift in the
//!    gateway, migration or cross-node rebuild paths shows up as a
//!    reviewable golden diff.
//! 2. **Differential**: replicated vs unreplicated node failure — with
//!    r = 2 every stream migrates to a surviving replica; with r = 1 the
//!    failed node's catalog is stranded and its streams are lost.
//! 3. **Snapshot**: the `timeline` renderer's node lanes (`NFAIL`,
//!    `NREPAIR`, `NREBUILT`, migrations, cross-node rebuild traffic)
//!    over a fail→migrate→rebuild campaign, pinned as committed ASCII.
//!
//! Regenerate both goldens after an intentional behaviour change:
//!
//! ```text
//! cargo run --release -p cms-bench --bin cluster -- --out crates/bench/goldens/cluster_campaign.jsonl
//! UPDATE_GOLDENS=1 cargo test --test cluster_scenarios
//! ```

use std::sync::OnceLock;

use cms_bench::{
    cluster_campaign_config, cluster_campaign_rows, render_timeline, to_jsonl,
    ClusterCampaignRow, CLUSTER_SCENARIOS,
};
use cms_cluster::ClusterSim;
use cms_trace::{JsonlSink, SharedBuffer};

/// The sweep the golden was generated from: default rounds and seed, one
/// run per scenario. Shared across tests via `OnceLock`.
fn sweep() -> &'static [ClusterCampaignRow] {
    static ROWS: OnceLock<Vec<ClusterCampaignRow>> = OnceLock::new();
    ROWS.get_or_init(|| cluster_campaign_rows(120, 7, 0, 1, None))
}

fn row(scenario: &str) -> &'static ClusterCampaignRow {
    sweep()
        .iter()
        .find(|r| r.scenario == scenario)
        .unwrap_or_else(|| panic!("no cluster campaign row for {scenario}"))
}

#[test]
fn cluster_sweep_matches_committed_golden() {
    let golden = include_str!("../crates/bench/goldens/cluster_campaign.jsonl");
    let regenerated = to_jsonl(sweep());
    for (i, (want, got)) in golden.lines().zip(regenerated.lines()).enumerate() {
        assert_eq!(
            want, got,
            "cluster row {i} drifted from the golden; if intentional, regenerate with \
             `cargo run --release -p cms-bench --bin cluster -- --out crates/bench/goldens/cluster_campaign.jsonl`"
        );
    }
    assert_eq!(golden, regenerated, "golden and regenerated sweeps differ in length");
}

#[test]
fn replication_differential_on_node_failure() {
    // r = 2: the surviving replica absorbs every stream — migrations,
    // no losses, and the catalog stays fully routable.
    let replicated = row("node_failure");
    assert!(replicated.migrations > 0, "replicas must absorb the failed node's streams");
    assert_eq!(replicated.lost_streams, 0, "r = 2 masks a single node failure");
    assert_eq!(replicated.unroutable, 0, "every clip keeps a routable replica");
    // r = 1: the failed node's whole catalog is stranded.
    let bare = row("unreplicated_failure");
    assert!(bare.lost_streams > 0, "r = 1 has no surviving replica to migrate to");
    assert!(bare.unroutable > 0, "stranded clips must refuse new arrivals");
    assert_eq!(bare.migrations, 0, "nowhere to migrate without a replica");
}

#[test]
fn repair_completes_a_cross_node_rebuild() {
    let r = row("fail_migrate_rebuild");
    assert_eq!(r.node_failures, 1);
    assert_eq!(r.node_rebuilds_completed, 1, "the repaired node must finish rebuilding");
    assert!(r.cross_node_rebuild_blocks > 0, "rebuild ships blocks from surviving replicas");
    // The whole sweep upholds the surviving-stream guarantee.
    for r in sweep() {
        assert!(r.guarantees_held, "{}: a surviving stream glitched", r.scenario);
    }
}

/// Renders the fail→migrate→rebuild campaign's trace through the
/// timeline renderer — node lanes above disk lanes — and pins the exact
/// ASCII against the committed snapshot.
#[test]
fn timeline_node_lanes_match_committed_snapshot() {
    let scenario = CLUSTER_SCENARIOS
        .iter()
        .find(|s| s.name == "fail_migrate_rebuild")
        .expect("canned scenario exists");
    let cfg = cluster_campaign_config(scenario, 120, 7, 1);
    let mut sim = ClusterSim::new(cfg).expect("campaign cluster constructs");
    let buf = SharedBuffer::new();
    sim.set_trace_sink(Box::new(JsonlSink::new(buf.clone())));
    let _run = sim.run();
    let text = String::from_utf8(buf.contents()).expect("trace is utf8");

    let (rendered, bad) =
        render_timeline(&text, 40, 60).expect("campaign trace renders");
    assert_eq!(bad, None, "every trace line must parse");
    // The node lane milestones must all be present before pinning bytes.
    for marker in ["NFAIL(n3)", "NREPAIR(n3)", "NREBUILT(n3)", "migrate=", "xrebuild="] {
        assert!(rendered.contains(marker), "timeline missing node-lane marker {marker}");
    }

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/crates/bench/goldens/timeline_cluster.txt");
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::write(path, &rendered).expect("write timeline golden");
        return;
    }
    let golden = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!(
            "cannot read {path}: {e}; regenerate with \
             `UPDATE_GOLDENS=1 cargo test --test cluster_scenarios`"
        )
    });
    assert_eq!(
        golden, rendered,
        "timeline snapshot drifted; if intentional, regenerate with \
         `UPDATE_GOLDENS=1 cargo test --test cluster_scenarios`"
    );
}
