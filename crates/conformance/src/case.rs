//! The conformance case: one complete `(scheme, geometry, workload,
//! failure schedule)` tuple, convertible to a solved engine
//! configuration and round-trippable through the repro text format.

use cms_core::{CmsError, Scheme};
use cms_fault::FaultSchedule;
use cms_model::CapacityPoint;
use cms_server::CmServerBuilder;
use cms_sim::SimConfig;

/// One generated conformance case. Everything the engine needs beyond
/// these fields (block size, round budget `q`, contingency `f`) is
/// re-derived from the analytical model at replay time, so the committed
/// repro stays small *and* every replay exercises the model path too.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConformanceCase {
    /// The scheme under test.
    pub scheme: Scheme,
    /// Number of disks.
    pub d: u32,
    /// Parity group size (pinned, not auto-tuned, so the case is stable
    /// under model retuning).
    pub p: u32,
    /// Redundancy shards per parity group (1 = XOR parity; `m >= 2` =
    /// GF(256) Reed–Solomon, clustered parity-disk schemes only).
    pub m: u32,
    /// Server RAM buffer, in MiB.
    pub buffer_mib: u64,
    /// Catalog size in clips.
    pub clips: u64,
    /// Clip length in blocks (no spread: deterministic geometry).
    pub clip_len: u64,
    /// Poisson arrival rate in milli-arrivals per round (integer so the
    /// repro header needs no float formatting).
    pub arrival_milli: u64,
    /// Rounds to simulate.
    pub rounds: u64,
    /// Seed for design construction, layout jitter and the workload.
    pub seed: u64,
    /// Rebuild failed disks onto hot spares in the background.
    pub auto_rebuild: bool,
    /// Enforce the degraded-mode admission cap.
    pub degraded: bool,
    /// Disk-service worker threads (results are thread-invariant; the
    /// replay suite pins 1/2/8 to prove it).
    pub threads: usize,
    /// The fault schedule (must pass `check_consistency` for `d`).
    pub faults: FaultSchedule,
}

impl ConformanceCase {
    /// Solves the capacity model for this case and produces the tuned
    /// point plus the ready-to-run simulation config.
    ///
    /// # Errors
    ///
    /// Returns the model's infeasibility/validation errors, or
    /// [`CmsError::InvalidParams`] for an inconsistent fault schedule.
    pub fn to_parts(&self) -> Result<(CapacityPoint, SimConfig), CmsError> {
        self.faults.check_consistency(self.d)?;
        let mut builder = CmServerBuilder::new(self.scheme)
            .disks(self.d)
            .buffer_bytes(self.buffer_mib << 20)
            .catalog(self.clips, self.clip_len)
            .parity_group(self.p)
            .redundancy(self.m)
            .seed(self.seed)
            .verify_reconstructions();
        if self.auto_rebuild {
            builder = builder.auto_rebuild();
        }
        let (point, mut cfg) = builder.solve()?;
        cfg.arrival_rate = self.arrival_milli as f64 / 1000.0;
        cfg.rounds = self.rounds;
        cfg.faults = (!self.faults.is_empty()).then(|| self.faults.clone());
        cfg.degraded_admission = self.degraded;
        cfg.threads = self.threads;
        Ok((point, cfg))
    }

    /// Is the case feasible (the model solves and the schedule is
    /// consistent)? The generator's rejection filter.
    #[must_use]
    pub fn is_feasible(&self) -> bool {
        self.to_parts().is_ok()
    }

    /// The same case with a different thread count — the determinism
    /// replays.
    #[must_use]
    pub fn with_threads(&self, threads: usize) -> Self {
        ConformanceCase { threads, ..self.clone() }
    }

    /// Renders the one-line `key=value` config header body (without the
    /// leading `# `). [`ConformanceCase::parse_header`] inverts it. The
    /// `m=` key is emitted only for `m >= 2`, so every pre-multi-failure
    /// committed repro stays byte-stable.
    #[must_use]
    pub fn header(&self) -> String {
        let m = if self.m == 1 { String::new() } else { format!(" m={}", self.m) };
        format!(
            "scheme={} d={} p={}{m} buffer_mib={} clips={} clip_len={} \
             arrival_milli={} rounds={} seed={} rebuild={} degraded={}",
            self.scheme.token(),
            self.d,
            self.p,
            self.buffer_mib,
            self.clips,
            self.clip_len,
            self.arrival_milli,
            self.rounds,
            self.seed,
            u8::from(self.auto_rebuild),
            u8::from(self.degraded),
        )
    }

    /// Parses a config header body produced by [`ConformanceCase::header`]
    /// (faults start empty; threads default to 1).
    ///
    /// # Errors
    ///
    /// Returns [`CmsError::InvalidParams`] naming any unknown, missing or
    /// non-numeric key.
    pub fn parse_header(body: &str) -> Result<Self, CmsError> {
        let mut scheme = None;
        let mut fields = std::collections::BTreeMap::new();
        for kv in body.split_whitespace() {
            let (k, v) = kv.split_once('=').ok_or_else(|| {
                CmsError::invalid_params(format!("repro header: expected `key=value`, got `{kv}`"))
            })?;
            if k == "scheme" {
                scheme = Some(Scheme::from_token(v).ok_or_else(|| {
                    CmsError::invalid_params(format!("repro header: unknown scheme `{v}`"))
                })?);
            } else {
                let n = v.parse::<u64>().map_err(|_| {
                    CmsError::invalid_params(format!(
                        "repro header: key `{k}` needs an integer value, got `{v}`"
                    ))
                })?;
                fields.insert(k.to_owned(), n);
            }
        }
        // Optional for backward compatibility: headers written before the
        // multi-failure axis carry no `m` key and mean XOR parity.
        let m = match fields.remove("m") {
            None => 1,
            Some(n) => u32::try_from(n)
                .map_err(|_| CmsError::invalid_params("repro header: `m` out of range"))?,
        };
        let mut take = |k: &str| {
            fields.remove(k).ok_or_else(|| {
                CmsError::invalid_params(format!("repro header: missing key `{k}`"))
            })
        };
        let case = ConformanceCase {
            scheme: scheme
                .ok_or_else(|| CmsError::invalid_params("repro header: missing key `scheme`"))?,
            d: u32::try_from(take("d")?)
                .map_err(|_| CmsError::invalid_params("repro header: `d` out of range"))?,
            p: u32::try_from(take("p")?)
                .map_err(|_| CmsError::invalid_params("repro header: `p` out of range"))?,
            m,
            buffer_mib: take("buffer_mib")?,
            clips: take("clips")?,
            clip_len: take("clip_len")?,
            arrival_milli: take("arrival_milli")?,
            rounds: take("rounds")?,
            seed: take("seed")?,
            auto_rebuild: take("rebuild")? != 0,
            degraded: take("degraded")? != 0,
            threads: 1,
            faults: FaultSchedule::default(),
        };
        if let Some(k) = fields.keys().next() {
            return Err(CmsError::invalid_params(format!("repro header: unknown key `{k}`")));
        }
        Ok(case)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ConformanceCase {
        ConformanceCase {
            scheme: Scheme::DeclusteredParity,
            d: 8,
            p: 4,
            m: 1,
            buffer_mib: 64,
            clips: 24,
            clip_len: 12,
            arrival_milli: 2_500,
            rounds: 80,
            seed: 7,
            auto_rebuild: true,
            degraded: false,
            threads: 1,
            faults: FaultSchedule::parse("@20 fail 3").unwrap(),
        }
    }

    #[test]
    fn header_round_trips() {
        let case = sample();
        let mut parsed = ConformanceCase::parse_header(&case.header()).unwrap();
        parsed.faults = case.faults.clone();
        assert_eq!(parsed, case);
    }

    #[test]
    fn header_m_key_is_optional_and_round_trips() {
        // Pre-multi-failure headers carry no `m=` key and mean m = 1; an
        // m = 1 case emits none (so committed repros stay byte-stable),
        // while m >= 2 round-trips through an explicit key.
        let xor = sample();
        assert!(!xor.header().contains("m="), "m = 1 must not emit the key");
        let mut rs = sample();
        rs.scheme = Scheme::PrefetchParityDisks;
        rs.m = 2;
        assert!(rs.header().contains(" m=2 "), "m >= 2 must emit the key");
        let mut parsed = ConformanceCase::parse_header(&rs.header()).unwrap();
        parsed.faults = rs.faults.clone();
        assert_eq!(parsed, rs);
    }

    #[test]
    fn header_parse_names_the_offender() {
        let msg =
            ConformanceCase::parse_header("scheme=declustered d=oops").unwrap_err().to_string();
        assert!(msg.contains("`d`") && msg.contains("`oops`"), "{msg}");
        let msg = ConformanceCase::parse_header("scheme=warp d=8").unwrap_err().to_string();
        assert!(msg.contains("`warp`"), "{msg}");
        let msg = ConformanceCase::parse_header(&format!("{} bogus=1", sample().header()))
            .unwrap_err()
            .to_string();
        assert!(msg.contains("`bogus`"), "{msg}");
    }

    #[test]
    fn to_parts_solves_and_carries_the_schedule() {
        let (point, cfg) = sample().to_parts().unwrap();
        assert_eq!(point.p, 4);
        assert_eq!(cfg.rounds, 80);
        assert!((cfg.arrival_rate - 2.5).abs() < 1e-12);
        assert_eq!(cfg.faults.as_ref().map(cms_fault::FaultSchedule::len), Some(1));
        assert!(cfg.verify_parity);
        assert!(cfg.auto_rebuild);
    }

    #[test]
    fn inconsistent_schedule_is_rejected() {
        let mut case = sample();
        case.faults = FaultSchedule::parse("@10 repair 2").unwrap();
        assert!(case.to_parts().is_err());
        assert!(!case.is_feasible());
    }
}
