//! Simulation configuration.

use cms_core::{CmsError, DiskId, DiskParams, Scheme};
use cms_fault::FaultSchedule;
use cms_model::CapacityPoint;
use cms_trace::TraceSpec;

/// A single-disk failure (and optional repair) to inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailureScenario {
    /// Round at which the disk fails.
    pub fail_round: u64,
    /// The failing disk.
    pub disk: DiskId,
    /// Optional round at which the disk returns to service.
    pub repair_round: Option<u64>,
}

/// Full configuration of one simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The fault-tolerance scheme under test.
    pub scheme: Scheme,
    /// Number of disks `d`.
    pub d: u32,
    /// Parity group size `p`.
    pub p: u32,
    /// Redundancy shards per parity group `m`: 1 is the paper's XOR
    /// parity; `m >= 2` uses the GF(256) Reed–Solomon codec and tolerates
    /// up to `m` concurrent disk losses per group. Only the clustered
    /// parity-disk schemes (pre-fetching with parity disks, streaming
    /// RAID) support `m >= 2`.
    pub m: u32,
    /// Per-disk (per-cluster for streaming RAID) round budget `q`.
    pub q: u32,
    /// Contingency reservation `f` (ignored by schemes without one).
    pub f: u32,
    /// Stripe-unit size `b` in bytes (drives round timing).
    pub block_bytes: u64,
    /// Number of clips in the catalog.
    pub catalog_clips: u64,
    /// Clip length in blocks (= rounds of playback).
    pub clip_len: u64,
    /// Heterogeneous lengths: each clip is `clip_len + h` blocks for a
    /// seeded `h ∈ 0..=clip_len_spread`. 0 (the paper) = uniform lengths.
    pub clip_len_spread: u64,
    /// Mean Poisson arrivals per round.
    pub arrival_rate: f64,
    /// Zipf exponent for clip choice; 0 = uniform (the paper).
    pub zipf_theta: f64,
    /// Rounds to simulate.
    pub rounds: u64,
    /// Failure to inject, if any. The single-event predecessor of
    /// [`SimConfig::faults`]; both may be set and both are applied.
    pub failure: Option<FailureScenario>,
    /// Declarative multi-event fault schedule (hard failures, repairs,
    /// transient outages, slow-disk windows), drained at the start of each
    /// round before admission. See [`cms_fault::FaultSchedule`].
    pub faults: Option<FaultSchedule>,
    /// Enforce degraded-mode admission: while any disk is down, cap the
    /// active stream count at `healthy_disks × (q − f)` (zero for
    /// NonClustered or a second concurrent outage) and refuse admissions
    /// beyond it, counting each refusal instead of risking hiccups.
    pub degraded_admission: bool,
    /// Verify reconstructed blocks byte-for-byte against synthetic
    /// content (slower; used by the failure drills).
    pub verify_parity: bool,
    /// Bytes of synthetic content per block used for verification
    /// (decoupled from the modeled block size `b` so drills stay fast).
    pub content_bytes: usize,
    /// RNG seed (arrivals + clip choice + design construction).
    pub seed: u64,
    /// How many queued requests the admission pass may inspect per round
    /// (FIFO order). 1 = strict head-of-line; larger values let requests
    /// whose resources are free bypass a blocked head (cf. ORS96).
    pub admission_scan: usize,
    /// Once the head has waited this many rounds, bypass is suspended
    /// until it is admitted — the bound that keeps bypass starvation-free.
    pub aging_limit: u64,
    /// Rebuild the failed disk's contents onto a hot spare in the
    /// background, using only slack bandwidth (per-disk budget left after
    /// client and recovery reads). When the last block is rebuilt the
    /// array returns to normal operation.
    pub auto_rebuild: bool,
    /// Worker threads for the per-round disk service loop. `0` (the
    /// default) uses the machine's available parallelism; `1` services
    /// disks sequentially on the calling thread. Results are
    /// bit-identical at any thread count — per-disk accounting is
    /// computed locally and merged in disk-ID order (see DESIGN.md's
    /// determinism contract).
    pub threads: usize,
    /// Event tracing: off by default; see [`TraceSpec`] for summary-only,
    /// JSONL and CSV modes. Traces obey the same determinism contract as
    /// the metrics — byte-identical at any thread count.
    pub trace: TraceSpec,
}

impl SimConfig {
    /// The paper's Section 8.2 experiment for a given scheme and a solved
    /// capacity point: 1000 clips × 50 rounds, Poisson λ = 20, uniform
    /// choice, 600 rounds.
    #[must_use]
    pub fn sigmod96(scheme: Scheme, point: &CapacityPoint, d: u32) -> Self {
        SimConfig {
            scheme,
            d,
            p: point.p,
            m: point.m,
            q: point.q,
            f: point.f,
            block_bytes: point.block_bytes,
            catalog_clips: 1000,
            clip_len: 50,
            clip_len_spread: 0,
            arrival_rate: 20.0,
            zipf_theta: 0.0,
            rounds: 600,
            failure: None,
            faults: None,
            degraded_admission: false,
            verify_parity: false,
            content_bytes: 512,
            seed: 0x51_6D0D,
            admission_scan: 64,
            aging_limit: 200,
            auto_rebuild: false,
            threads: 0,
            trace: TraceSpec::off(),
        }
    }

    /// Sets the disk-service worker thread count (`0` = available
    /// parallelism, `1` = sequential). Purely a wall-clock knob: metrics
    /// are identical at every setting.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Enables background rebuild onto a hot spare.
    #[must_use]
    pub fn with_rebuild(mut self) -> Self {
        self.auto_rebuild = true;
        self
    }

    /// Sets the redundancy shard count `m` (1 = XOR parity, `m >= 2` =
    /// Reed–Solomon; clustered parity-disk schemes only).
    #[must_use]
    pub fn with_redundancy(mut self, m: u32) -> Self {
        self.m = m;
        self
    }

    /// Adds a failure scenario.
    #[must_use]
    pub fn with_failure(mut self, fail_round: u64, disk: DiskId) -> Self {
        self.failure = Some(FailureScenario { fail_round, disk, repair_round: None });
        self
    }

    /// Attaches a declarative multi-event fault schedule.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultSchedule) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Enforces the degraded-mode admission cap while any disk is down.
    #[must_use]
    pub fn with_degraded_admission(mut self) -> Self {
        self.degraded_admission = true;
        self
    }

    /// Enables byte-level verification of every reconstruction.
    #[must_use]
    pub fn with_verification(mut self) -> Self {
        self.verify_parity = true;
        self
    }

    /// Sets the event-tracing mode (see [`TraceSpec`]).
    #[must_use]
    pub fn with_trace(mut self, trace: TraceSpec) -> Self {
        self.trace = trace;
        self
    }

    /// Validates structural requirements.
    ///
    /// # Errors
    ///
    /// Returns [`CmsError::InvalidParams`] for empty catalogs, zero-length
    /// clips, zero budgets or out-of-range failure disks.
    pub fn validate(&self) -> Result<(), CmsError> {
        if self.d < 2 || self.p < 2 || self.p > self.d {
            return Err(CmsError::invalid_params("need d >= 2 and 2 <= p <= d"));
        }
        if self.m == 0 || self.m >= self.p {
            return Err(CmsError::invalid_params("need 1 <= m < p"));
        }
        if self.m > 1
            && !matches!(self.scheme, Scheme::PrefetchParityDisks | Scheme::StreamingRaid)
        {
            return Err(CmsError::invalid_params(format!(
                "{} supports only single-parity groups (m = 1)",
                self.scheme
            )));
        }
        if self.q == 0 || self.catalog_clips == 0 || self.clip_len == 0 || self.rounds == 0 {
            return Err(CmsError::invalid_params(
                "q, catalog size, clip length and duration must be >= 1",
            ));
        }
        if self.block_bytes == 0 {
            return Err(CmsError::invalid_params("block size must be >= 1"));
        }
        // The engine's fetch records hold clip-block indices and disk
        // block numbers in 32 bits, with `u32::MAX` meaning "none".
        if self.clip_len.saturating_add(self.clip_len_spread) >= u64::from(u32::MAX) {
            return Err(CmsError::invalid_params(
                "clip_len + clip_len_spread must be below 2^32 - 1 blocks",
            ));
        }
        if DiskParams::sigmod96().capacity / self.block_bytes >= u64::from(u32::MAX) {
            return Err(CmsError::invalid_params(
                "block size too small: a disk would hold 2^32 - 1 or more blocks",
            ));
        }
        if let Some(fs) = &self.failure {
            if fs.disk.raw() >= self.d {
                return Err(CmsError::invalid_params("failure disk out of range"));
            }
        }
        if let Some(faults) = &self.faults {
            faults.validate(self.d)?;
        }
        if self.arrival_rate < 0.0 || !self.arrival_rate.is_finite() {
            return Err(CmsError::invalid_params("arrival rate must be finite and >= 0"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point() -> CapacityPoint {
        CapacityPoint {
            scheme: Scheme::DeclusteredParity,
            p: 4,
            m: 1,
            block_bytes: 256 * 1024,
            q: 20,
            f: 2,
            r: 11,
            total_clips: 576,
        }
    }

    #[test]
    fn paper_defaults() {
        let c = SimConfig::sigmod96(Scheme::DeclusteredParity, &point(), 32);
        assert_eq!(c.catalog_clips, 1000);
        assert_eq!(c.clip_len, 50);
        assert_eq!(c.arrival_rate, 20.0);
        assert_eq!(c.rounds, 600);
        c.validate().unwrap();
    }

    #[test]
    fn builders_compose() {
        let c = SimConfig::sigmod96(Scheme::DeclusteredParity, &point(), 32)
            .with_failure(100, DiskId(3))
            .with_verification()
            .with_threads(4);
        assert!(c.verify_parity);
        assert_eq!(c.failure.unwrap().fail_round, 100);
        assert_eq!(c.threads, 4);
        c.validate().unwrap();
    }

    #[test]
    fn any_thread_count_validates() {
        // threads is a wall-clock knob, not a semantic one: auto (0),
        // sequential (1) and oversubscribed counts are all legal.
        for threads in [0usize, 1, 2, 64, 1000] {
            let c = SimConfig::sigmod96(Scheme::DeclusteredParity, &point(), 32)
                .with_threads(threads);
            c.validate().unwrap();
        }
    }

    #[test]
    fn validation_rejects_nonsense() {
        let mut c = SimConfig::sigmod96(Scheme::DeclusteredParity, &point(), 32);
        c.p = 64;
        assert!(c.validate().is_err());

        let mut c = SimConfig::sigmod96(Scheme::DeclusteredParity, &point(), 32);
        c.q = 0;
        assert!(c.validate().is_err());

        let c = SimConfig::sigmod96(Scheme::DeclusteredParity, &point(), 32)
            .with_failure(1, DiskId(99));
        assert!(c.validate().is_err());

        let mut c = SimConfig::sigmod96(Scheme::DeclusteredParity, &point(), 32);
        c.arrival_rate = f64::NAN;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_rejects_indices_past_the_fetch_record() {
        let mut c = SimConfig::sigmod96(Scheme::DeclusteredParity, &point(), 32);
        c.clip_len = u64::from(u32::MAX) - 10;
        c.clip_len_spread = 9;
        c.validate().unwrap();
        c.clip_len_spread = 10;
        assert!(matches!(c.validate(), Err(CmsError::InvalidParams { .. })));
        c.clip_len = u64::MAX;
        c.clip_len_spread = u64::MAX;
        assert!(matches!(c.validate(), Err(CmsError::InvalidParams { .. })));
    }

    #[test]
    fn redundancy_is_validated_per_scheme() {
        // m >= 2 only for the clustered parity-disk schemes, and within
        // 1 <= m < p.
        let mut c = SimConfig::sigmod96(Scheme::PrefetchParityDisks, &point(), 32)
            .with_redundancy(2);
        c.validate().unwrap();
        c.m = 0;
        assert!(c.validate().is_err());
        c.m = c.p;
        assert!(c.validate().is_err());

        let c = SimConfig::sigmod96(Scheme::DeclusteredParity, &point(), 32)
            .with_redundancy(2);
        assert!(c.validate().is_err());
        let c = SimConfig::sigmod96(Scheme::PrefetchFlat, &point(), 32).with_redundancy(3);
        assert!(c.validate().is_err());
    }

    #[test]
    fn fault_schedules_are_validated_against_d() {
        use cms_fault::FaultSchedule;
        let sched = FaultSchedule::parse("@10 fail 3\n@40 repair 3\n").unwrap();
        let c = SimConfig::sigmod96(Scheme::DeclusteredParity, &point(), 32)
            .with_faults(sched.clone())
            .with_degraded_admission();
        assert!(c.degraded_admission);
        c.validate().unwrap();

        // A disk id beyond the array is rejected at validate() time.
        let bad = FaultSchedule::parse("@10 fail 40\n").unwrap();
        let c = SimConfig::sigmod96(Scheme::DeclusteredParity, &point(), 32).with_faults(bad);
        assert!(c.validate().is_err());
    }
}
