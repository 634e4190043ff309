//! Cluster configuration: the gateway's knobs plus a per-node engine
//! template.

use cms_core::CmsError;
use cms_fault::FaultSchedule;
use cms_sim::SimConfig;
use cms_trace::TraceSpec;

/// Full configuration of one cluster run.
///
/// The `node` field is a **template**: every node gets a clone of it
/// with its catalog sized by the placement map, a node-specific seed,
/// one service thread (cluster parallelism happens at the node level)
/// and tracing off (the gateway owns the cluster trace). The template
/// must therefore be *quiet* — no workload of its own, no disk-level
/// fault schedule — and [`ClusterConfig::validate`] enforces exactly
/// that.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of server nodes `N`.
    pub nodes: u32,
    /// Replication degree `r`: each cluster clip is stored on `r`
    /// distinct nodes.
    pub replication: u32,
    /// Cluster catalog size `K` (the gateway routes over these; each
    /// node stores its placement-assigned subset).
    pub catalog_clips: u64,
    /// Per-node engine template (scheme, geometry, budgets). Its
    /// `catalog_clips`, `seed`, `threads`, `rounds` and `trace` fields
    /// are overridden per node.
    pub node: SimConfig,
    /// Mean Poisson arrivals per round at the gateway.
    pub arrival_rate: f64,
    /// Zipf exponent for clip choice; 0 = uniform.
    pub zipf_theta: f64,
    /// Cluster rounds to simulate.
    pub rounds: u64,
    /// Blocks per round shipped to a rebuilding node by its peers.
    pub rebuild_rate: u32,
    /// How many source replicas share one round's rebuild shipment.
    pub rebuild_fanout: u32,
    /// Node-scoped fault schedule (`fail-node` / `repair-node` only).
    pub faults: Option<FaultSchedule>,
    /// RNG seed: placement permutation, gateway arrivals, clip choice
    /// and the per-node engine seeds all derive from it.
    pub seed: u64,
    /// Worker threads for the node-stepping phase. `0` uses available
    /// parallelism; results are bit-identical at any setting.
    pub threads: usize,
    /// Gateway event tracing (node events, migrations, rebuild reads,
    /// cluster arrivals/refusals). Node engines never trace.
    pub trace: TraceSpec,
}

impl ClusterConfig {
    /// Sets the node-stepping worker count (a wall-clock knob only).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Attaches a node-scoped fault schedule.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultSchedule) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Sets the gateway tracing mode.
    #[must_use]
    pub fn with_trace(mut self, trace: TraceSpec) -> Self {
        self.trace = trace;
        self
    }

    /// Validates structural requirements.
    ///
    /// # Errors
    ///
    /// Returns [`CmsError::InvalidParams`] for degenerate cluster
    /// shapes, a noisy node template, or a fault schedule that is not
    /// purely node-scoped.
    pub fn validate(&self) -> Result<(), CmsError> {
        if self.nodes < 2 {
            return Err(CmsError::invalid_params("a cluster needs at least 2 nodes"));
        }
        if self.replication == 0 || self.replication > self.nodes {
            return Err(CmsError::invalid_params("replication must be in 1..=nodes"));
        }
        if self.catalog_clips == 0 {
            return Err(CmsError::invalid_params("cluster catalog must be non-empty"));
        }
        if self.catalog_clips * u64::from(self.replication) < u64::from(self.nodes) {
            return Err(CmsError::invalid_params(
                "catalog_clips * replication must be >= nodes so every node stores a clip",
            ));
        }
        if self.rounds == 0 {
            return Err(CmsError::invalid_params("cluster duration must be >= 1 round"));
        }
        if self.arrival_rate < 0.0 || !self.arrival_rate.is_finite() {
            return Err(CmsError::invalid_params("arrival rate must be finite and >= 0"));
        }
        if self.rebuild_rate == 0 || self.rebuild_fanout == 0 {
            return Err(CmsError::invalid_params("rebuild_rate and rebuild_fanout must be >= 1"));
        }
        // The node template must be quiet: the gateway is the only
        // source of arrivals and faults, and replica consistency needs
        // uniform clip lengths across nodes.
        if self.node.arrival_rate != 0.0 {
            return Err(CmsError::invalid_params(
                "node template must have arrival_rate = 0 (the gateway generates all arrivals)",
            ));
        }
        if self.node.faults.is_some() || self.node.failure.is_some() {
            return Err(CmsError::invalid_params(
                "node template must not carry disk-level faults; use the cluster schedule",
            ));
        }
        if self.node.clip_len_spread != 0 {
            return Err(CmsError::invalid_params(
                "node template needs clip_len_spread = 0 so replicas agree on clip lengths",
            ));
        }
        // Validate the template geometry with a stand-in catalog (the
        // real per-node catalogs come from the placement map).
        let mut probe = self.node.clone();
        probe.catalog_clips = 1;
        probe.rounds = self.rounds;
        probe.validate()?;
        if let Some(faults) = &self.faults {
            faults.validate_cluster(self.nodes)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cms_core::Scheme;
    use cms_fault::FaultSchedule;

    fn node_template() -> SimConfig {
        let mut node = SimConfig::sigmod96(
            Scheme::DeclusteredParity,
            &cms_model::CapacityPoint {
                scheme: Scheme::DeclusteredParity,
                p: 4,
                m: 1,
                block_bytes: 1 << 20,
                q: 8,
                f: 2,
                r: 1,
                total_clips: 64,
            },
            8,
        );
        node.arrival_rate = 0.0;
        node.catalog_clips = 16;
        node.clip_len = 20;
        node
    }

    fn base() -> ClusterConfig {
        ClusterConfig {
            nodes: 4,
            replication: 2,
            catalog_clips: 16,
            node: node_template(),
            arrival_rate: 6.0,
            zipf_theta: 0.0,
            rounds: 40,
            rebuild_rate: 16,
            rebuild_fanout: 2,
            faults: None,
            seed: 42,
            threads: 1,
            trace: TraceSpec::off(),
        }
    }

    #[test]
    fn base_validates() {
        base().validate().unwrap();
    }

    #[test]
    fn rejects_degenerate_shapes() {
        let mut c = base();
        c.nodes = 1;
        assert!(c.validate().is_err());

        let mut c = base();
        c.replication = 5;
        assert!(c.validate().is_err());

        let mut c = base();
        c.catalog_clips = 1;
        assert!(c.validate().is_err(), "1 clip * r=2 < 4 nodes leaves empty nodes");

        let mut c = base();
        c.rebuild_rate = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn rejects_noisy_node_templates() {
        let mut c = base();
        c.node.arrival_rate = 5.0;
        assert!(c.validate().is_err());

        let mut c = base();
        c.node.faults = Some(FaultSchedule::parse("@5 fail 0\n").unwrap());
        assert!(c.validate().is_err());

        let mut c = base();
        c.node.clip_len_spread = 3;
        assert!(c.validate().is_err());
    }

    #[test]
    fn fault_schedule_must_be_node_scoped_and_in_range() {
        let mut c = base();
        c.faults = Some(FaultSchedule::parse("@10 fail-node 2\n@30 repair-node 2\n").unwrap());
        c.validate().unwrap();

        let mut c = base();
        c.faults = Some(FaultSchedule::parse("@10 fail 2\n").unwrap());
        assert!(c.validate().is_err(), "disk-scoped events are rejected");

        let mut c = base();
        c.faults = Some(FaultSchedule::parse("@10 fail-node 9\n").unwrap());
        assert!(c.validate().is_err(), "node 9 outside a 4-node cluster");
    }
}
