//! # cms-conformance — adversarial model-vs-engine conformance fuzzing
//!
//! The paper's claims are analytical; the engine is operational. This
//! crate holds the two to each other continuously: it generates random
//! `(scheme, geometry, workload, failure schedule)` tuples via the
//! vendored proptest, replays each through both `cms-model` and the
//! full engine, and asserts the five-family conformance contract
//! (DESIGN.md §11):
//!
//! 1. **feasible-service** — no hiccups or lost streams while admission
//!    says the load is feasible; reconstructed bytes always verify.
//! 2. **capacity-bound** — measured capacity never exceeds the model
//!    bound, the engine's nominal ceiling equals the model's, and
//!    saturated fault-free runs land within a stated tolerance below it.
//! 3. **rebuild-window** — a light-load single-failure rebuild finishes
//!    inside the model's window.
//! 4. **degraded-cap** — the degraded-mode admission cap follows the
//!    stated formula and is never exceeded.
//! 5. **conservation** — per-round report deltas sum exactly to the
//!    final metrics; stream accounting balances.
//!
//! Failures shrink greedily (the facade has no shrinking) to a minimal
//! case and are written as repro files in the `cms-fault` spec format
//! with a `#`-comment config header — the whole file still parses as a
//! fault spec — then replayed at 1/2/8 disk-service threads to pin the
//! determinism contract. Shrunk repros live in `regressions/` and are
//! replayed by the regression suite on every test run.
//!
//! ```
//! use cms_conformance::{check_case, CaseStrategy};
//! use proptest::{Strategy, TestRng};
//!
//! let mut rng = TestRng::seed_from_u64(1);
//! let case = CaseStrategy::template(0).sample(&mut rng); // saturation family
//! let outcome = check_case(&case).unwrap();
//! assert!(outcome.violations.is_empty());
//! ```

#![forbid(unsafe_code)]

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod case;
pub mod cluster;
pub mod gen;
pub mod harness;
pub mod invariants;
pub mod repro;
pub mod shrink;

pub use case::ConformanceCase;
pub use cluster::{
    check_cluster_case, replay_at_worker_counts, ClusterCase, ClusterCaseStrategy,
};
pub use gen::{CaseStrategy, TEMPLATES};
pub use harness::{env_budget, env_seed, run_harness, Failure, HarnessConfig, HarnessReport};
pub use invariants::{
    check_case, check_case_with, replay_at_thread_counts, CheckOutcome, InvariantId, Overrides,
    ScheduleFacts, Violation, LIGHT_LOAD_MILLI,
};
pub use repro::{Repro, MAGIC};
pub use shrink::{shrink_case, ShrinkResult};
