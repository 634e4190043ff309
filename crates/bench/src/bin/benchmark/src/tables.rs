#![forbid(unsafe_code)]
//! The metric tables. `BENCHMARK.json` at the repository root mirrors
//! them; a unit test keeps the two in step.

/// Which direction is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric: name, unit, direction and (end-to-end only) the share of
/// the parent's median by which it may worsen.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Stable metric name.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Better direction.
    pub better: Better,
    /// Regression bound (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, reported on every workload with tracing off.
pub const END_TO_END: [Metric; 4] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("round_us_p50", "us", Lower, 0.10),
    e2e("stream_rounds_per_s", "1/s", Higher, 0.10),
    e2e("peak_rss_mib", "MiB", Lower, 0.05),
];

/// Per-layer metrics, reported on every workload by the traced run
/// (0 where the layer does no work on that workload).
pub const PER_LAYER: [Metric; 40] = [
    layer("parity.xor_gbps", "GB/s", Higher),
    layer("parity.rs_encode_gbps", "GB/s", Higher),
    layer("parity.rs_decode_gbps", "GB/s", Higher),
    layer("parity.reconstructions_per_round", "count", Lower),
    layer("parity.bytes_per_round", "B", Lower),
    layer("trace.events_per_round", "count", Lower),
    layer("trace.bytes_per_round", "B", Lower),
    layer("trace.record_ns", "ns", Lower),
    layer("trace.share", "ratio", Lower),
    layer("trace.overhead_ratio", "ratio", Lower),
    layer("bibd.design_ms", "ms", Lower),
    layer("bibd.pgt_ms", "ms", Lower),
    layer("bibd.lookup_ns", "ns", Lower),
    layer("layout.build_ms", "ms", Lower),
    layer("layout.recon_reads_ns", "ns", Lower),
    layer("layout.recovery_reads_per_round", "count", Lower),
    layer("disk.cscan_ns", "ns", Lower),
    layer("disk.blocks_per_round", "count", Higher),
    layer("disk.util_p99", "ratio", Lower),
    layer("disk.queue_p99", "ratio", Lower),
    layer("admission.decide_ns", "ns", Lower),
    layer("admission.admits_per_round", "count", Higher),
    layer("admission.pending_p99", "count", Lower),
    layer("admission.startup_wait_p99_rounds", "rounds", Lower),
    layer("sim.allocs_per_round", "count", Lower),
    layer("sim.active_streams", "count", Higher),
    layer("sim.rebuild_rounds_p50", "rounds", Lower),
    layer("server.round_us_p99", "us", Lower),
    layer("server.request_ns", "ns", Lower),
    layer("server.tick_self_us", "us", Lower),
    layer("workload.gen_ns_per_round", "ns", Lower),
    layer("workload.arrivals_per_round", "count", Higher),
    layer("workload.catalog_ms", "ms", Lower),
    layer("cluster.migrations_per_kround", "count", Lower),
    layer("cluster.refusals_per_kround", "count", Lower),
    layer("cluster.rebuild_blocks_per_round", "count", Higher),
    layer("cluster.placement_ns", "ns", Lower),
    layer("model.solve_ms", "ms", Lower),
    layer("host.calib_us", "us", Lower),
    layer("host.raw_round_us_p50", "us", Lower),
];

/// Looks a metric up in either table by name.
#[must_use]
pub fn metric(name: &str) -> Option<&'static Metric> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;
    use serde::Value;
    use std::collections::BTreeSet;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn tables_respect_the_benchmark_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut names = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(names.insert(w.name), "duplicate {}", w.name);
        }
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}", m.unit);
            assert!(names.insert(m.name), "duplicate {}", m.name);
        }
        for m in &END_TO_END {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s present");
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        let largest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(largest),
            "setup_s carries the largest bound"
        );
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    }

    fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
        v.as_object()
            .and_then(|o| o.iter().find(|(k, _)| k == key))
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing `{key}`"))
    }

    #[test]
    fn benchmark_json_mirrors_the_tables() {
        let text = include_str!("../../../../../../BENCHMARK.json");
        let doc: Value = serde_json::from_str(text).expect("BENCHMARK.json parses");
        let workloads = field(&doc, "workloads").as_array().expect("array");
        let names: Vec<&str> = workloads
            .iter()
            .map(|w| field(w, "name").as_str().expect("name"))
            .collect();
        let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names, ours);
        for w in workloads {
            let why = field(w, "why").as_str().expect("why is a string");
            assert!(
                !why.is_empty() && why.len() <= 200 && !why.contains('\n'),
                "{why}"
            );
        }
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let rows = field(&doc, key).as_array().expect("array");
            assert_eq!(rows.len(), table.len(), "{key}");
            for (row, m) in rows.iter().zip(table) {
                assert_eq!(field(row, "name").as_str(), Some(m.name));
                assert_eq!(field(row, "unit").as_str(), Some(m.unit));
                assert_eq!(field(row, "better").as_str(), Some(m.better.as_str()));
                if let Some(b) = m.bound {
                    assert_eq!(field(row, "bound").as_f64(), Some(b), "{}", m.name);
                }
            }
        }
    }
}
