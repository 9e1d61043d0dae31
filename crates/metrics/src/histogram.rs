//! The log2 bucket layout every histogram shares.
//!
//! Buckets are powers of two: bucket *k* holds samples in
//! `[2^k, 2^(k+1))`, with bucket 0 holding `[0, 2)`. This gives ~5 %
//! relative error at the percentiles the reports quote, with O(1)
//! record and fixed memory. [`HistogramSnapshot`] is the one plain
//! histogram; [`crate::AtomicHistogram`] records lock-free and freezes
//! into one at scrape time.

/// Number of log2 buckets: 2^63 is far beyond any recorded quantity.
pub const BUCKETS: usize = 64;

/// The bucket holding value `v`: bucket *k* covers `[2^k, 2^(k+1))`
/// with bucket 0 covering `[0, 2)`. Shared by
/// [`HistogramSnapshot::record`] and the lock-free
/// [`crate::AtomicHistogram`] so their counts agree bucket-for-bucket.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < 2 {
        0
    } else {
        63 - v.leading_zeros() as usize
    }
}

/// Inclusive upper edge of bucket `k` (`u64::MAX` for the last).
#[inline]
pub fn bucket_upper_edge(k: usize) -> u64 {
    if k >= 63 {
        u64::MAX
    } else {
        (2u64 << k).saturating_sub(1)
    }
}

/// Plain-data image of a histogram at one instant: what travels in a
/// `MetricsSnapshot` wire frame and what quantile queries run against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (bucket *k* covers `[2^k, 2^(k+1))`,
    /// bucket 0 covers `[0, 2)`).
    pub counts: [u64; BUCKETS],
    /// Total samples: always Σ `counts` (constructors enforce it).
    pub total: u64,
    /// Sum of all recorded values (wrapping; meaningful while the true
    /// sum fits a `u64`, which every tracked quantity does).
    pub sum: u64,
    /// Largest recorded value.
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            counts: [0; BUCKETS],
            total: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Build from bucket counts plus the tracked sum/max; `total` is
    /// derived from the buckets.
    pub fn from_parts(counts: [u64; BUCKETS], sum: u64, max: u64) -> Self {
        let total = counts.iter().fold(0u64, |a, &c| a.wrapping_add(c));
        HistogramSnapshot {
            counts,
            total,
            sum,
            max,
        }
    }

    /// Record one sample: the single-threaded twin of
    /// [`AtomicHistogram::record`].
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.total += 1;
        self.sum = self.sum.wrapping_add(v);
        self.max = self.max.max(v);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// True when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Mean recorded value; zero when empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.total).unwrap_or(0)
    }

    /// Approximate quantile (`q` in `[0, 1]`): the upper edge of the
    /// bucket containing the q-th sample, capped at the recorded max.
    /// Zero when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (k, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper_edge(k).min(self.max);
            }
        }
        self.max
    }

    /// Merge another snapshot into this one.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a = a.wrapping_add(*b);
        }
        self.total = self.total.wrapping_add(other.total);
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = HistogramSnapshot::default();
        assert_eq!((h.count(), h.mean(), h.quantile(0.5), h.max), (0, 0, 0, 0));
    }

    #[test]
    fn mean_and_max_exact() {
        let mut h = HistogramSnapshot::default();
        for v in [10_000, 20_000, 30_000] {
            h.record(v);
        }
        assert_eq!((h.count(), h.mean(), h.max), (3, 20_000, 30_000));
    }

    #[test]
    fn quantiles_are_bucket_bounded() {
        let mut h = HistogramSnapshot::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5);
        // True p50 = 500; bucket upper edge for [512,1024) or [256,512).
        assert!((256..=1023).contains(&p50), "p50 {p50}");
        assert_eq!(h.quantile(1.0), 1000, "q=1 capped at the true max");
    }

    #[test]
    fn zero_duration_lands_in_first_bucket() {
        let mut h = HistogramSnapshot::default();
        h.record(0);
        h.record(1);
        assert_eq!((h.count(), h.counts[0]), (2, 2));
        assert_eq!(h.quantile(1.0), 1);
    }

    #[test]
    fn merge_combines() {
        let mut a = HistogramSnapshot::default();
        let mut b = HistogramSnapshot::default();
        a.record(1_000);
        b.record(100_000);
        a.merge(&b);
        assert_eq!((a.count(), a.max, a.mean()), (2, 100_000, 50_500));
    }

    #[test]
    fn quantile_clamps_inputs() {
        let mut h = HistogramSnapshot::default();
        h.record(5_000);
        assert_eq!(h.quantile(-1.0), h.quantile(0.0));
        assert_eq!(h.quantile(2.0), h.quantile(1.0));
    }
}
