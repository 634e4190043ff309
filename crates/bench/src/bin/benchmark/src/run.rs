#![forbid(unsafe_code)]
//! One workload run: set-up repetitions, the untimed prefix the digest
//! covers, and the host-normalized timed window the end-to-end metrics
//! come from.

use std::collections::BTreeMap;
use std::time::Instant;

use serde::Value;

use crate::checks::{Evidence, Ledger};
use crate::measure::{self, Calibrator, Samples, Window};
use crate::spans::{SpanLog, SpanName};
use crate::workloads::{node_plan, NodePlan, Options, System, Tier, Totals, Workload};

/// Capacity of a window's sample buffer (8 MiB, ~4× the rounds `steady`
/// times in 10 s). It is written in full before the peak RSS is reset,
/// so the window's length never moves `peak_rss_mib`; a window that
/// fills it stops early.
pub const SAMPLE_CAP: usize = 1 << 21;

/// The committed reference values (`reference.json` in this directory).
#[derive(Debug, Clone)]
pub struct Reference {
    /// Calibration time of the reference host, µs: the unit every
    /// normalized time is expressed in.
    pub cal_ref_us: f64,
    /// Digest of each workload's prefix at the default seed.
    pub digests: BTreeMap<String, u64>,
}

impl Reference {
    /// Parses the committed `reference.json`.
    ///
    /// # Panics
    ///
    /// Panics on a malformed file — it is compiled in, so that is a bug.
    #[must_use]
    pub fn committed() -> Reference {
        Reference::parse(include_str!("../reference.json")).expect("reference.json is valid")
    }

    /// Parses a reference document.
    ///
    /// # Errors
    ///
    /// Describes the first missing or malformed field.
    pub fn parse(text: &str) -> Result<Reference, String> {
        let doc: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let get = |key: &str| {
            doc.as_object()
                .and_then(|o| o.iter().find(|(k, _)| k == key))
                .map(|(_, v)| v)
                .ok_or(format!("missing `{key}`"))
        };
        let cal_ref_us = get("cal_ref_us")?
            .as_f64()
            .ok_or("`cal_ref_us` is not a number")?;
        let mut digests = BTreeMap::new();
        for (name, v) in get("digests")?
            .as_object()
            .ok_or("`digests` is not an object")?
        {
            let hex = v.as_str().ok_or("digest is not a string")?;
            let d = u64::from_str_radix(hex, 16).map_err(|e| format!("digest {name}: {e}"))?;
            digests.insert(name.clone(), d);
        }
        Ok(Reference {
            cal_ref_us,
            digests,
        })
    }
}

/// Operation counters: block deadlines, requests, and the ones that
/// failed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ops {
    /// Block deadlines met or missed (`blocks_consumed + hiccups`; the
    /// cluster counts blocks served).
    pub deadlines: u64,
    /// Requests submitted (gateway arrivals for the cluster).
    pub requests: u64,
    /// Hiccups, refused, unroutable or rejected requests, lost streams.
    pub failed: u64,
}

impl Ops {
    /// The system's counters now.
    #[must_use]
    pub fn of(sys: &System) -> Ops {
        match sys {
            System::Node(n) => {
                let m = n.server.metrics();
                Ops {
                    deadlines: m.blocks_consumed + m.hiccups,
                    requests: n.requests,
                    failed: m.hiccups
                        + n.request_errors
                        + n.fault_errors
                        + m.lost_streams
                        + m.degraded_refusals,
                }
            }
            System::Cluster(c) => {
                let m = c.metrics();
                Ops {
                    deadlines: m.blocks_served + m.hiccups,
                    requests: m.arrivals,
                    failed: m.hiccups
                        + m.cluster_refusals
                        + m.unroutable
                        + m.lost_streams
                        + m.node_lost_streams,
                }
            }
        }
    }

    /// Operations attempted between `before` and `self`.
    #[must_use]
    pub fn attempted_since(&self, before: &Ops) -> u64 {
        (self.deadlines + self.requests) - (before.deadlines + before.requests)
    }

    /// Operations failed between `before` and `self`.
    #[must_use]
    pub fn failed_since(&self, before: &Ops) -> u64 {
        self.failed - before.failed
    }
}

/// A system after its set-up repetitions and prefix.
pub struct Prepared {
    /// The system, at the end of the prefix.
    pub sys: System,
    /// The ledger, digest sealed.
    pub ledger: Ledger,
    /// Host-normalized wall time of each set-up, seconds.
    pub setups: Vec<f64>,
    /// The solved configuration (single-node workloads).
    pub plan: Option<NodePlan>,
    /// The first window's sample buffer, resident before the peak RSS
    /// was reset.
    pub samples: Samples,
}

/// Builds `w` `reps` times (keeping the last), allocates a sample buffer
/// of `sample_cap` rounds, resets the peak RSS before the kept build, and
/// steps the prefix. With a span log, the model solve and each build are
/// recorded as spans.
#[must_use]
pub fn prepare(
    w: &Workload,
    opts: &Options,
    reps: usize,
    sample_cap: usize,
    cal: &mut Calibrator,
    cal_ref_us: f64,
    mut log: Option<&mut SpanLog>,
) -> Prepared {
    let samples = Samples::new(sample_cap);
    let plan = (w.tier == Tier::Node).then(|| match log.as_deref_mut() {
        Some(log) => log.time(SpanName::Solve, || node_plan(w, opts)),
        None => node_plan(w, opts),
    });
    let reps = reps.max(1);
    let mut setups = Vec::with_capacity(reps);
    let mut kept = None;
    for rep in 0..reps {
        let cal_us = cal.run();
        drop(kept.take());
        if rep + 1 == reps {
            measure::reset_peak_rss();
        }
        let span = log.as_deref_mut().map(|log| log.open(SpanName::Setup));
        let (sys, took) = System::build(w, opts, plan.as_ref());
        if let (Some(log), Some(span)) = (log.as_deref_mut(), span) {
            log.close(span);
        }
        setups.push(took.as_secs_f64() * measure::scale(cal_ref_us, cal_us));
        kept = Some(sys);
    }
    let mut sys = kept.expect("at least one set-up ran");
    let mut ledger = Ledger::default();
    for _ in 0..w.prefix_rounds {
        let r = sys.round(None);
        ledger.absorb(&r);
    }
    ledger.seal(&sys.totals());
    Prepared {
        sys,
        ledger,
        setups,
        plan,
        samples,
    }
}

/// Gathers the verdict's evidence from a finished run.
#[must_use]
pub fn evidence(
    w: &Workload,
    opts: &Options,
    reference: &Reference,
    p: &Prepared,
    windows: Vec<usize>,
) -> Evidence {
    let totals = p.sys.totals();
    let (parity_mismatches, service_errors, hiccups) = match totals {
        Totals::Node(m) => (m.parity_mismatches, m.service_errors, m.hiccups),
        Totals::Cluster(m) => (0, 0, m.hiccups),
    };
    let (call_errors, submitted) = match &p.sys {
        System::Node(n) => (
            n.request_errors + n.fault_errors,
            n.requests - n.request_errors,
        ),
        System::Cluster(_) => (0, 0),
    };
    Evidence {
        conservation: p.ledger.conservation(&totals, submitted),
        parity_mismatches,
        service_errors,
        hiccups,
        hiccup_free: w.hiccup_free,
        call_errors,
        digest: p.ledger.sealed.unwrap_or(0),
        expected_digest: if opts.is_reference() {
            Some(reference.digests.get(w.name).copied().unwrap_or(0))
        } else {
            None
        },
        windows,
    }
}

/// The outcome of one workload run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Workload name.
    pub workload: &'static str,
    /// Metric values by name.
    pub metrics: Vec<(&'static str, f64)>,
    /// Operations attempted in the timed window(s).
    pub attempted: u64,
    /// Operations failed in the timed window(s).
    pub failed: u64,
    /// Failed checks; empty when correct.
    pub failures: Vec<String>,
    /// Run facts recorded next to the result (threads, rounds, …).
    pub facts: Vec<(&'static str, Value)>,
}

/// Steps `p` through one untraced timed window, recorded into the sample
/// buffer `prepare` made.
pub fn window(p: &mut Prepared, seconds: f64, cal: &mut Calibrator, cal_ref_us: f64) -> Window {
    let samples = std::mem::take(&mut p.samples);
    let (sys, ledger) = (&mut p.sys, &mut p.ledger);
    measure::timed_window(seconds, cal_ref_us, cal, samples, || {
        let r = sys.round(None);
        ledger.absorb(&r);
        r.active()
    })
}

/// Runs `w` with tracing off and computes every end-to-end metric.
#[must_use]
pub fn run_end_to_end(
    w: &Workload,
    opts: &Options,
    seconds: f64,
    reference: &Reference,
) -> RunResult {
    let mut cal = Calibrator::default();
    let cal_ref = reference.cal_ref_us;
    let started = Instant::now();
    let mut p = prepare(w, opts, w.setup_reps, SAMPLE_CAP, &mut cal, cal_ref, None);
    let before = Ops::of(&p.sys);
    let win = window(&mut p, seconds, &mut cal, cal_ref);
    let peak_rss = measure::peak_rss_mib().unwrap_or(0.0);
    let after = Ops::of(&p.sys);
    let us = win.normalized_us();
    let metrics = vec![
        ("setup_s", measure::median(&p.setups)),
        ("round_us_p50", measure::percentile(&us, 0.50)),
        ("stream_rounds_per_s", win.stream_rounds_per_s()),
        ("peak_rss_mib", peak_rss),
    ];
    let ev = evidence(w, opts, reference, &p, vec![win.rounds()]);
    let facts = run_facts(w, opts, &p, &win, cal_ref, started);
    RunResult {
        workload: w.name,
        metrics,
        attempted: after.attempted_since(&before),
        failed: after.failed_since(&before),
        failures: ev.failures(),
        facts,
    }
}

/// The prefix digest of `w` under `opts` (one set-up, no timed window).
#[must_use]
pub fn prefix_digest(w: &Workload, opts: &Options) -> u64 {
    let mut cal = Calibrator::default();
    prepare(w, opts, 1, 0, &mut cal, 1.0, None)
        .ledger
        .sealed
        .unwrap_or(0)
}

/// Evidence from a short run of `w`: one set-up, the prefix and a
/// minimal window (`--self-test` forges copies of it).
#[must_use]
pub fn short_evidence(w: &Workload, opts: &Options, reference: &Reference) -> Evidence {
    let mut cal = Calibrator::default();
    let mut p = prepare(w, opts, 1, SAMPLE_CAP, &mut cal, reference.cal_ref_us, None);
    let win = window(&mut p, 0.01, &mut cal, reference.cal_ref_us);
    evidence(w, opts, reference, &p, vec![win.rounds()])
}

/// Available parallelism of this machine.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The worker count a thread setting resolves to (0 = available
/// parallelism, clamped to the disks or nodes the workers split).
#[must_use]
pub fn resolved_threads(setting: usize, units: usize) -> usize {
    match setting {
        0 => nproc(),
        n => n,
    }
    .clamp(1, units.max(1))
}

fn run_facts(
    w: &Workload,
    opts: &Options,
    p: &Prepared,
    win: &Window,
    cal_ref_us: f64,
    started: Instant,
) -> Vec<(&'static str, Value)> {
    let setting = opts.threads.unwrap_or(w.threads);
    // Workers split a node's disks, or the cluster's eight nodes.
    let units = p.plan.as_ref().map_or(8, |plan| plan.cfg.d as usize);
    vec![
        ("seed", Value::U64(opts.seed)),
        ("nproc", Value::U64(nproc() as u64)),
        ("threads_setting", Value::U64(setting as u64)),
        (
            "threads_resolved",
            Value::U64(resolved_threads(setting, units) as u64),
        ),
        ("cal_ref_us", Value::F64(cal_ref_us)),
        ("cal_mean_us", Value::F64(win.mean_cal_us())),
        ("prefix_rounds", Value::U64(w.prefix_rounds)),
        ("window_rounds", Value::U64(win.rounds() as u64)),
        ("setup_reps", Value::U64(p.setups.len() as u64)),
        (
            "digest",
            Value::String(format!("{:016x}", p.ledger.sealed.unwrap_or(0))),
        ),
        ("wall_s", Value::F64(started.elapsed().as_secs_f64())),
    ]
}
