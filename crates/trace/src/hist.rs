//! Fixed-bucket log₂ histograms.
//!
//! One reusable [`Histogram`] type replaces the bucket math that used to
//! be reimplemented inline by `Metrics::record_wait` /
//! `Metrics::wait_percentile`: bucket `k` counts values in
//! `[2^k − 1, 2^(k+1) − 1)`, so bucket 0 holds exactly the value 0
//! (an admission that waited no rounds, a round with an empty queue)
//! and bucket widths double from there. The bucket vector grows lazily
//! to the highest bucket touched, which keeps an idle histogram at zero
//! allocation and makes the serialized form exactly the `Vec<u64>` the
//! old `wait_histogram` field used — wire-compatible by construction.

/// A log₂-bucketed histogram of `u64` samples.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub const fn new() -> Self {
        Histogram { counts: Vec::new() }
    }

    /// The bucket a value falls into: `⌊log₂(value + 1)⌋`, saturating at
    /// bucket 63 so `u64::MAX` is representable.
    #[must_use]
    pub fn bucket_of(value: u64) -> usize {
        (u64::BITS - 1 - value.saturating_add(1).leading_zeros()) as usize
    }

    /// Smallest value that lands in `bucket`: `2^k − 1`.
    #[must_use]
    pub fn bucket_lower(bucket: usize) -> u64 {
        if bucket >= 64 {
            u64::MAX
        } else {
            (1u64 << bucket) - 1
        }
    }

    /// Largest value that lands in `bucket`: `2^(k+1) − 2` (saturating at
    /// `u64::MAX` for the top bucket).
    #[must_use]
    pub fn bucket_upper(bucket: usize) -> u64 {
        if bucket >= 63 {
            u64::MAX
        } else {
            (1u64 << (bucket + 1)) - 2
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` identical samples.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let bucket = Self::bucket_of(value);
        if self.counts.len() <= bucket {
            self.counts.resize(bucket + 1, 0);
        }
        self.counts[bucket] += n;
    }

    /// The per-bucket counts (index = bucket number).
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total number of recorded samples.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Has nothing been recorded?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counts.iter().all(|&c| c == 0)
    }

    /// Upper edge of the bucket containing the requested quantile, i.e.
    /// an upper bound on the `pct`-percentile sample. `pct` is clamped to
    /// `0.0..=1.0`; an empty histogram reports 0.
    #[must_use]
    pub fn percentile(&self, pct: f64) -> u64 {
        let total = self.total();
        if total == 0 {
            return 0;
        }
        let rank = (pct.clamp(0.0, 1.0) * total as f64).ceil() as u64;
        let rank = rank.clamp(1, total);
        let mut seen = 0u64;
        for (bucket, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return Self::bucket_upper(bucket);
            }
        }
        // `seen` reaches `total >= rank` on the last bucket, so the loop
        // always returns; this arm exists only to keep the signature total.
        Self::bucket_upper(self.counts.len().saturating_sub(1))
    }

    /// Adds every count of `other` into `self`.
    pub fn merge(&mut self, other: &Histogram) {
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
    }
}

#[cfg(feature = "serde")]
impl serde::Serialize for Histogram {
    /// Serializes as the bare bucket-count array — byte-identical to the
    /// `Vec<u64>` field this type replaced in `Metrics`.
    fn serialize(&self) -> serde::Value {
        serde::Value::Array(self.counts.iter().map(|&c| serde::Value::U64(c)).collect())
    }
}

#[cfg(feature = "serde")]
impl serde::Deserialize for Histogram {
    fn deserialize(value: &serde::Value) -> Result<Self, serde::Error> {
        let items =
            value.as_array().ok_or_else(|| serde::Error::custom("expected array for Histogram"))?;
        let mut counts = Vec::with_capacity(items.len());
        for item in items {
            counts.push(
                item.as_u64()
                    .ok_or_else(|| serde::Error::custom("expected u64 histogram count"))?,
            );
        }
        Ok(Histogram { counts })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_zero_holds_only_zero() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_lower(0), 0);
        assert_eq!(Histogram::bucket_upper(0), 0);
    }

    #[test]
    fn bucket_edges_double() {
        // Bucket 2 covers [3, 6], bucket 3 covers [7, 14].
        assert_eq!(Histogram::bucket_lower(2), 3);
        assert_eq!(Histogram::bucket_upper(2), 6);
        assert_eq!(Histogram::bucket_lower(3), 7);
        assert_eq!(Histogram::bucket_upper(3), 14);
        for v in [3u64, 4, 5, 6] {
            assert_eq!(Histogram::bucket_of(v), 2, "{v}");
        }
    }

    #[test]
    fn extremes_do_not_overflow() {
        assert_eq!(Histogram::bucket_of(u64::MAX), 63);
        assert_eq!(Histogram::bucket_upper(63), u64::MAX);
        let mut h = Histogram::new();
        h.record(u64::MAX);
        assert_eq!(h.percentile(1.0), u64::MAX);
    }

    #[test]
    fn percentile_matches_hand_computation() {
        let mut h = Histogram::new();
        for _ in 0..90 {
            h.record(0);
        }
        for _ in 0..10 {
            h.record(20); // bucket 4: [15, 30]
        }
        assert_eq!(h.percentile(0.5), 0);
        assert_eq!(h.percentile(0.99), 30);
        assert_eq!(h.total(), 100);
        assert_eq!(Histogram::new().percentile(0.9), 0);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Histogram::new();
        a.record(1);
        let mut b = Histogram::new();
        b.record(100);
        b.record_n(1, 2);
        a.merge(&b);
        assert_eq!(a.total(), 4);
        assert_eq!(a.counts()[1], 3);
    }
}
