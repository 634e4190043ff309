//! The fuzzing driver: draw seeded cases, check them, shrink anything
//! that fails, and account for coverage.

use crate::case::ConformanceCase;
use crate::gen::{CaseStrategy, TEMPLATES};
use crate::invariants::{check_case, CheckOutcome, InvariantId, Overrides};
use crate::repro::Repro;
use crate::shrink::shrink_case;
use proptest::{Strategy, TestRng};
use std::collections::{BTreeMap, BTreeSet};

/// Harness configuration.
#[derive(Debug, Clone, Copy)]
pub struct HarnessConfig {
    /// Base seed; case `i` derives from `base_seed + i`.
    pub base_seed: u64,
    /// Feasible cases to run.
    pub budget: usize,
    /// Engine runs the shrinker may spend per failure.
    pub shrink_checks: usize,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig { base_seed: 0xC0F0, budget: 64, shrink_checks: 160 }
    }
}

/// One failing case, shrunk and packaged.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Seed index that produced the original case.
    pub seed: u64,
    /// The original (pre-shrink) case.
    pub original: ConformanceCase,
    /// The shrunk repro.
    pub repro: Repro,
}

/// What a harness run covered and found.
#[derive(Debug, Clone, Default)]
pub struct HarnessReport {
    /// Feasible cases run.
    pub cases_run: usize,
    /// Sampled cases skipped because the model declared them infeasible.
    pub infeasible_skipped: usize,
    /// How many runs exercised each invariant family.
    pub exercised: BTreeMap<&'static str, usize>,
    /// Scheme tokens covered.
    pub schemes: BTreeSet<&'static str>,
    /// Shrunk failures (empty = fully conforming).
    pub failures: Vec<Failure>,
}

impl HarnessReport {
    /// Were all five invariant families exercised at least once?
    #[must_use]
    pub fn all_families_exercised(&self) -> bool {
        InvariantId::ALL.iter().all(|i| self.exercised.get(i.token()).copied().unwrap_or(0) > 0)
    }
}

/// Runs the harness: `cfg.budget` feasible cases, template rotated with
/// the seed index so all six families appear in any six consecutive
/// draws. Failures are shrunk with the production contract
/// ([`Overrides::default`]) and returned as ready-to-commit repros.
///
/// # Panics
///
/// Panics if the generator cannot produce `cfg.budget` feasible cases
/// within `8 × budget` draws — that is a generator bug, not bad luck.
#[must_use]
pub fn run_harness(cfg: HarnessConfig) -> HarnessReport {
    let mut report = HarnessReport::default();
    let mut draw = 0u64;
    while report.cases_run < cfg.budget {
        assert!(
            (draw as usize) < cfg.budget * 8,
            "generator produced only {} feasible cases in {draw} draws",
            report.cases_run
        );
        let seed = cfg.base_seed.wrapping_add(draw);
        let template = draw % TEMPLATES;
        draw += 1;
        let mut rng = TestRng::seed_from_u64(seed);
        let case = CaseStrategy::template(template).sample(&mut rng);
        let Ok(outcome) = check_case(&case) else {
            report.infeasible_skipped += 1;
            continue;
        };
        report.cases_run += 1;
        report.schemes.insert(case.scheme.token());
        record(&mut report, &outcome);
        for invariant in distinct_failing_families(&outcome) {
            let shrunk =
                shrink_case(&case, invariant, Overrides::default(), cfg.shrink_checks);
            let detail = check_case(&shrunk.case)
                .ok()
                .and_then(|o| {
                    o.violations.into_iter().find(|v| v.invariant == invariant).map(|v| v.detail)
                })
                .unwrap_or_default();
            report.failures.push(Failure {
                seed,
                original: case.clone(),
                repro: Repro { case: shrunk.case, invariant, detail },
            });
        }
    }
    report
}

fn record(report: &mut HarnessReport, outcome: &CheckOutcome) {
    for inv in &outcome.exercised {
        *report.exercised.entry(inv.token()).or_insert(0) += 1;
    }
}

fn distinct_failing_families(outcome: &CheckOutcome) -> Vec<InvariantId> {
    let mut seen = Vec::new();
    for v in &outcome.violations {
        if !seen.contains(&v.invariant) {
            seen.push(v.invariant);
        }
    }
    seen
}

/// The `CMS_CONFORMANCE_CASES` env knob (opt-in longer local runs),
/// falling back to `default` when unset or unparseable.
#[must_use]
pub fn env_budget(default: usize) -> usize {
    std::env::var("CMS_CONFORMANCE_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The `CMS_CONFORMANCE_SEED` env knob (pin a different base seed),
/// falling back to `default` when unset or unparseable.
#[must_use]
pub fn env_seed(default: u64) -> u64 {
    std::env::var("CMS_CONFORMANCE_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}
