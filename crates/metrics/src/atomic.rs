//! Lock-free histogram for hot-path instrumentation of the *live*
//! service; it freezes into the plain [`HistogramSnapshot`] the
//! single-threaded simulation records into directly.
//!
//! [`AtomicHistogram::record`] is two relaxed atomic RMWs — one
//! `fetch_add` on the sample's log2 bucket and one on the running sum —
//! plus a [`raise_max`] that writes only a new maximum, so writers
//! never block each other or the scraper.
//! Reads happen only at scrape time via [`AtomicHistogram::snapshot`],
//! which freezes the buckets into a plain [`HistogramSnapshot`].
//!
//! **Consistency model**: the snapshot's `total` is *derived* as the
//! sum of the bucket counts rather than kept as a fourth counter, so
//! "Σ merged buckets == events recorded" holds exactly even when a
//! snapshot races in-flight records (each record is one bucket
//! increment; there is no window where a sample is counted in a total
//! but missing from a bucket, or vice versa). `sum` and `max` may lag
//! a racing record by one sample — harmless for the mean/max a
//! dashboard quotes, exact at quiescence.
//!
//! Buckets are value-agnostic powers of two (see
//! [`bucket_index`](crate::histogram::bucket_index)): the service
//! records microseconds into its wait histograms, nanoseconds into the
//! latch-hold histogram and plain item counts into the batch-size
//! histogram, all with the same type.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::histogram::{bucket_index, HistogramSnapshot, BUCKETS};

/// Raise the high-water mark `max` to `v`. Loads and compares first:
/// a `fetch_max` is a locked read-modify-write even when the value does
/// not change, and on a mark shared between threads each one takes the
/// cache line away from the others.
#[inline]
pub fn raise_max(max: &AtomicU64, v: u64) {
    if v > max.load(Ordering::Relaxed) {
        max.fetch_max(v, Ordering::Relaxed);
    }
}

/// A log2-bucketed histogram recordable from any number of threads
/// without locks.
#[derive(Debug)]
pub struct AtomicHistogram {
    counts: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomicHistogram {
    /// Create an empty histogram.
    pub fn new() -> Self {
        AtomicHistogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one sample. Lock-free; safe from any thread.
    #[inline]
    pub fn record(&self, v: u64) {
        self.counts[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        raise_max(&self.max, v);
    }

    /// Freeze the current contents into a plain snapshot. `total` is
    /// the sum of the bucket counts read here, so it can never claim a
    /// sample no bucket holds (see the module docs).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: [u64; BUCKETS] =
            std::array::from_fn(|i| self.counts[i].load(Ordering::Relaxed));
        HistogramSnapshot::from_parts(
            counts,
            self.sum.load(Ordering::Relaxed),
            self.max.load(Ordering::Relaxed),
        )
    }

    /// Add the current contents into `acc` (scrape-time merge across
    /// per-shard histograms).
    pub fn merge_into(&self, acc: &mut HistogramSnapshot) {
        acc.merge(&self.snapshot());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_snapshot() {
        let h = AtomicHistogram::new();
        for v in [0, 1, 2, 3, 100, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 6);
        assert_eq!(s.sum, 1106);
        assert_eq!(s.max, 1000);
        assert_eq!(s.mean(), 184);
        // 0 and 1 share bucket 0; 2 and 3 share bucket 1.
        assert_eq!(s.counts[0], 2);
        assert_eq!(s.counts[1], 2);
        assert_eq!(s.quantile(1.0), 1000);
    }

    #[test]
    fn snapshot_total_is_bucket_sum() {
        let h = AtomicHistogram::new();
        for v in 0..1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.total, s.counts.iter().sum::<u64>());
        assert_eq!(s.total, 1000);
    }

    #[test]
    fn quantiles_bucket_bounded() {
        let h = AtomicHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        let p50 = s.quantile(0.5);
        assert!((256..=1023).contains(&p50), "p50 {p50}");
        assert_eq!(s.quantile(0.0), s.quantile(-1.0));
        assert_eq!(s.quantile(1.0), s.quantile(2.0));
    }

    #[test]
    fn merge_accumulates() {
        let a = AtomicHistogram::new();
        let b = AtomicHistogram::new();
        a.record(10);
        b.record(10_000);
        let mut acc = HistogramSnapshot::default();
        a.merge_into(&mut acc);
        b.merge_into(&mut acc);
        assert_eq!(acc.count(), 2);
        assert_eq!(acc.max, 10_000);
        assert_eq!(acc.sum, 10_010);
    }

    #[test]
    fn plain_record_matches_the_atomic_one() {
        let (atomic, mut plain) = (AtomicHistogram::new(), HistogramSnapshot::default());
        for v in [0, 1, 2, 3, 100, 1000, u64::MAX] {
            atomic.record(v);
            plain.record(v);
        }
        assert_eq!(plain, atomic.snapshot());
    }

    #[test]
    fn empty_snapshot() {
        let s = AtomicHistogram::new().snapshot();
        assert!(s.is_empty());
        assert_eq!(s.quantile(0.99), 0);
        assert_eq!(s.mean(), 0);
        assert_eq!(s, HistogramSnapshot::default());
    }
}
