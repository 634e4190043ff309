#![forbid(unsafe_code)]
//! Host-normalized timing and the estimators the metrics are made of.
//!
//! A timed window is split into [`SEGMENTS`] equal slices. Before each
//! slice a fixed calibration kernel runs; every round timed in the slice
//! is scaled by `cal_ref_us / calibration time`, so a slice run while a
//! neighbour steals the CPU is scaled back toward the reference speed.
//! On a shared 2-core VM this cut the run-to-run spread of the median
//! round time from up to 60% (raw) to a few percent.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use crate::checks::MIN_WINDOW_ROUNDS;

/// Slices per timed window.
pub const SEGMENTS: usize = 64;

/// Fewest rounds a slice may hold.
pub const MIN_SEGMENT_ROUNDS: usize = MIN_WINDOW_ROUNDS.div_ceil(SEGMENTS);

/// Passes of the calibration kernel (~1 ms on the reference host).
const CAL_PASSES: usize = 40;
/// Keys sorted per pass.
const CAL_KEYS: usize = 256;
/// Entries of the sorted table the keys are searched in (256 KiB).
const CAL_TABLE: u32 = 64 * 1024;

/// The fixed calibration kernel: per pass, sort 256 xorshift keys,
/// binary-search each in a 256 KiB table and churn a small ordered map —
/// the sort, search and ordered-map operations a round is made of, on
/// data that fits the same caches. Host noise on a shared VM slows this
/// mix about as much as it slows a round; a pure ALU or random-walk
/// kernel tracks it far less (see README.md).
#[derive(Debug)]
pub struct Calibrator {
    keys: Vec<u32>,
    table: Vec<u32>,
    map: BTreeMap<u32, u32>,
    state: u64,
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator {
            keys: vec![0; CAL_KEYS],
            table: (0..CAL_TABLE).map(|i| i * 3).collect(),
            map: BTreeMap::new(),
            state: 0x2545_F491_4F6C_DD1D,
        }
    }
}

impl Calibrator {
    fn next(&mut self) -> u64 {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        self.state
    }

    /// Runs the kernel once; returns its wall time in µs.
    pub fn run(&mut self) -> f64 {
        let start = Instant::now();
        let mut acc = 0usize;
        for _ in 0..CAL_PASSES {
            for i in 0..CAL_KEYS {
                self.keys[i] = self.next() as u32;
            }
            self.keys.sort_unstable();
            for &k in &self.keys {
                acc += self
                    .table
                    .binary_search(&(k % (3 * CAL_TABLE)))
                    .unwrap_or_else(|i| i);
            }
            for i in 0..64 {
                let k = (self.next() % 512) as u32;
                if i % 2 == 0 {
                    self.map.insert(k, i);
                } else {
                    self.map.remove(&k);
                }
            }
        }
        black_box(acc);
        start.elapsed().as_secs_f64() * 1e6
    }
}

/// The scale that maps a time measured next to a calibration run of
/// `cal_us` onto the reference host.
#[must_use]
pub fn scale(cal_ref_us: f64, cal_us: f64) -> f64 {
    cal_ref_us / cal_us
}

/// Per-round wall times of one window, in a buffer written in full when
/// it is made, so the window's length does not move peak RSS.
#[derive(Debug, Default)]
pub struct Samples {
    ns: Vec<f32>,
    len: usize,
}

impl Samples {
    /// A buffer for up to `cap` rounds, every page already resident. The
    /// fill value is not zero on purpose: a zeroed vector comes from
    /// `calloc`, whose fresh pages stay unmapped until the window writes
    /// them.
    #[must_use]
    pub fn new(cap: usize) -> Samples {
        Samples {
            ns: vec![1.0; cap],
            len: 0,
        }
    }

    fn push(&mut self, ns: f32) -> bool {
        if let Some(slot) = self.ns.get_mut(self.len) {
            *slot = ns;
            self.len += 1;
        }
        self.len < self.ns.len()
    }
}

/// One slice of a window.
#[derive(Debug, Clone, Copy)]
pub struct Segment {
    /// Calibration time before the slice, µs.
    pub cal_us: f64,
    /// Index of the slice's first round in the window.
    pub first: usize,
    /// One past its last round.
    pub end: usize,
    /// Σ active streams over its rounds.
    pub stream_rounds: u64,
}

/// A measured window: raw per-round times plus the slices that scale
/// them.
#[derive(Debug)]
pub struct Window {
    /// Raw per-round wall times, ns.
    pub raw_ns: Vec<f32>,
    /// The slices, in order.
    pub segments: Vec<Segment>,
    /// The calibration reference the window is normalized to.
    pub cal_ref_us: f64,
}

impl Window {
    /// Timed rounds.
    #[must_use]
    pub fn rounds(&self) -> usize {
        self.raw_ns.len()
    }

    /// Host-normalized per-round times, µs.
    #[must_use]
    pub fn normalized_us(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.raw_ns.len());
        for seg in &self.segments {
            let k = scale(self.cal_ref_us, seg.cal_us) / 1e3;
            out.extend(
                self.raw_ns[seg.first..seg.end]
                    .iter()
                    .map(|&ns| f64::from(ns) * k),
            );
        }
        out
    }

    /// Raw per-round times, µs.
    #[must_use]
    pub fn raw_us(&self) -> Vec<f64> {
        self.raw_ns.iter().map(|&ns| f64::from(ns) / 1e3).collect()
    }

    /// Median over slices of Σ active / normalized slice seconds: stream
    /// rounds served per second of one reference core.
    #[must_use]
    pub fn stream_rounds_per_s(&self) -> f64 {
        let rates: Vec<f64> = self
            .segments
            .iter()
            .filter(|s| s.end > s.first)
            .map(|s| {
                let raw_s: f64 = self.raw_ns[s.first..s.end]
                    .iter()
                    .map(|&ns| f64::from(ns))
                    .sum::<f64>()
                    / 1e9;
                s.stream_rounds as f64 / (raw_s * scale(self.cal_ref_us, s.cal_us))
            })
            .collect();
        median(&rates)
    }

    /// Mean calibration time, µs.
    #[must_use]
    pub fn mean_cal_us(&self) -> f64 {
        self.segments.iter().map(|s| s.cal_us).sum::<f64>() / self.segments.len().max(1) as f64
    }
}

/// Runs `step` for `seconds` of stepping, split into [`SEGMENTS`] slices
/// each preceded by a calibration run. `step` returns the active streams
/// after its round. A slice runs past its time until it holds
/// [`MIN_SEGMENT_ROUNDS`], so every window keeps at least
/// [`MIN_WINDOW_ROUNDS`] rounds; a window stops early only if `samples`
/// fills up.
pub fn timed_window(
    seconds: f64,
    cal_ref_us: f64,
    cal: &mut Calibrator,
    mut samples: Samples,
    mut step: impl FnMut() -> u64,
) -> Window {
    let slice = seconds / SEGMENTS as f64;
    let mut segments = Vec::with_capacity(SEGMENTS);
    let mut room = true;
    for _ in 0..SEGMENTS {
        let cal_us = cal.run();
        let first = samples.len;
        let mut stream_rounds = 0;
        let start = Instant::now();
        while room {
            let t0 = Instant::now();
            stream_rounds += step();
            let t1 = Instant::now();
            room = samples.push((t1 - t0).as_nanos() as f32);
            if (t1 - start).as_secs_f64() >= slice && samples.len - first >= MIN_SEGMENT_ROUNDS {
                break;
            }
        }
        segments.push(Segment {
            cal_us,
            first,
            end: samples.len,
            stream_rounds,
        });
    }
    samples.ns.truncate(samples.len);
    Window {
        raw_ns: samples.ns,
        segments,
        cal_ref_us,
    }
}

/// Nearest-rank percentile (`p` in `0..=1`) of `values`; 0 when empty.
#[must_use]
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median (mean of the two middle values for an even count); 0 when
/// empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` (the
/// default "exclusive" method) gives them; `None` below two values.
#[must_use]
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Percentile of a histogram whose bucket `i` counts value `i`.
#[must_use]
pub fn hist_percentile(hist: &[u64], p: f64) -> u64 {
    let total: u64 = hist.iter().sum();
    if total == 0 {
        return 0;
    }
    let rank = ((p * total as f64).ceil() as u64).max(1);
    let mut seen = 0;
    for (i, &c) in hist.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return i as u64;
        }
    }
    hist.len() as u64 - 1
}

/// Resets the process's peak resident set (`VmHWM`) to its current
/// size. Returns whether the kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set (`VmHWM`) in MiB, when `/proc` exposes it.
#[must_use]
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        // Order of the input does not matter.
        let rev: Vec<f64> = v.iter().rev().copied().collect();
        assert_eq!(percentile(&rev, 0.99), 99.0);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some([1.5, 3.0, 4.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn hist_percentile_counts_values() {
        let mut h = vec![0u64; 10];
        h[2] = 90;
        h[7] = 10;
        assert_eq!(hist_percentile(&h, 0.5), 2);
        assert_eq!(hist_percentile(&h, 0.9), 2);
        assert_eq!(hist_percentile(&h, 0.91), 7);
        assert_eq!(hist_percentile(&[0; 4], 0.99), 0);
    }

    fn synthetic(cal: &[f64], raw_ns: &[f32], active: u64) -> Window {
        let per = raw_ns.len() / cal.len();
        let segments = cal
            .iter()
            .enumerate()
            .map(|(i, &cal_us)| Segment {
                cal_us,
                first: i * per,
                end: (i + 1) * per,
                stream_rounds: active * per as u64,
            })
            .collect();
        Window {
            raw_ns: raw_ns.to_vec(),
            segments,
            cal_ref_us: 500.0,
        }
    }

    #[test]
    fn calibration_scales_a_slowed_slice_back() {
        // Two slices of the same work; the second ran on a host half as
        // fast, so both its rounds and its calibration took twice as long.
        let w = synthetic(
            &[500.0, 1000.0],
            &[20_000.0, 20_000.0, 40_000.0, 40_000.0],
            100,
        );
        let us = w.normalized_us();
        for t in &us {
            assert!((t - 20.0).abs() < 1e-9, "{us:?}");
        }
        // 100 streams per 20 µs round = 5e6 stream-rounds per second in
        // both slices once normalized.
        assert!((w.stream_rounds_per_s() - 5e6).abs() < 1e-3);
        assert!((w.mean_cal_us() - 750.0).abs() < 1e-9);
        // A host twice as fast as the reference reads twice as slow
        // after scaling, because the reference is the unit.
        assert!((scale(500.0, 250.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn segment_median_ignores_one_outlier_slice() {
        let w = synthetic(
            &[500.0, 500.0, 500.0],
            &[10_000.0, 10_000.0, 10_000.0, 10_000.0, 90_000.0, 90_000.0],
            1,
        );
        // Rates per slice: 1e5, 1e5, ~1.1e4 — the median is the typical one.
        assert!((w.stream_rounds_per_s() - 1e5).abs() < 1e-6);
    }

    #[test]
    fn calibration_kernel_takes_measurable_time() {
        let mut c = Calibrator::default();
        let a = c.run();
        assert!(a > 0.0);
    }

    #[test]
    fn samples_stop_when_full() {
        let mut s = Samples::new(2);
        assert!(s.push(1.0));
        assert!(!s.push(2.0));
        assert!(!s.push(3.0));
        assert_eq!(s.len, 2);
    }

    #[test]
    fn filling_the_sample_buffer_does_not_move_peak_rss() {
        const CAP: usize = 8 << 20; // 32 MiB of samples
        let mut s = Samples::new(CAP);
        if !reset_peak_rss() {
            return; // no /proc/self/clear_refs here
        }
        let before = peak_rss_mib().expect("VmHWM readable where clear_refs is");
        while s.push(2.0) {}
        let grew = peak_rss_mib().expect("VmHWM readable") - before;
        // A lazily mapped buffer would grow the peak by its full 32 MiB;
        // other tests running meanwhile allocate far less than 8.
        assert!(grew < 8.0, "peak RSS grew {grew:.1} MiB while filling");
        assert_eq!(s.len, CAP);
    }
}
