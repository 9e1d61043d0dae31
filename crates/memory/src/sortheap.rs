//! Sort heap model: spill probability as a function of size.
//!
//! A sort whose input fits in the sort heap runs in memory; otherwise
//! it spills to temp storage and pays a large multiplier. The model
//! exposes the expected spill fraction for a distribution of sort
//! sizes, which is the demand signal STMM uses (the paper's Figure 6
//! explicitly calls sort "the least needy consumer" and shrinks it
//! first).

/// Analytic sort heap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SortHeap {
    /// Current size in bytes.
    pub size: u64,
    /// Mean sort input size in bytes (exponential distribution).
    pub mean_sort_bytes: u64,
    /// Concurrent sorts sharing the heap.
    pub concurrent_sorts: u64,
}

impl SortHeap {
    /// Create a sort heap model.
    ///
    /// # Panics
    /// Panics if `mean_sort_bytes == 0` or `concurrent_sorts == 0`.
    pub fn new(size: u64, mean_sort_bytes: u64, concurrent_sorts: u64) -> Self {
        assert!(mean_sort_bytes > 0, "mean sort size must be non-zero");
        assert!(concurrent_sorts > 0, "at least one sort");
        SortHeap {
            size,
            mean_sort_bytes,
            concurrent_sorts,
        }
    }

    /// Memory available per concurrent sort.
    pub fn per_sort_bytes(&self) -> u64 {
        self.size / self.concurrent_sorts
    }

    /// Probability an exponential(mean) sort exceeds its share and
    /// spills: `exp(-share/mean)`.
    pub fn spill_fraction(&self) -> f64 {
        let share = self.per_sort_bytes() as f64;
        (-share / self.mean_sort_bytes as f64).exp()
    }

    /// Bytes at which the spill fraction drops below `target`
    /// (demand signal for STMM).
    pub fn bytes_for_spill_target(&self, target: f64) -> u64 {
        let t = target.clamp(1e-6, 1.0);
        let share = -(self.mean_sort_bytes as f64) * t.ln();
        (share * self.concurrent_sorts as f64).ceil() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spill_fraction_decreases_with_size() {
        let mut prev = 2.0;
        for s in [0u64, 1 << 20, 16 << 20, 256 << 20, 4 << 30] {
            let sh = SortHeap::new(s, 8 << 20, 10);
            let f = sh.spill_fraction();
            assert!(f <= prev);
            assert!((0.0..=1.0).contains(&f));
            prev = f;
        }
    }

    #[test]
    fn zero_size_always_spills() {
        let sh = SortHeap::new(0, 1 << 20, 4);
        assert_eq!(sh.spill_fraction(), 1.0);
    }

    #[test]
    fn demand_inverts_the_model() {
        let sh = SortHeap::new(0, 8 << 20, 10);
        let demand = sh.bytes_for_spill_target(0.05);
        let sized = SortHeap::new(demand, 8 << 20, 10);
        assert!(
            sized.spill_fraction() <= 0.051,
            "got {}",
            sized.spill_fraction()
        );
    }

    #[test]
    fn concurrency_dilutes_the_heap() {
        let solo = SortHeap::new(64 << 20, 8 << 20, 1);
        let crowded = SortHeap::new(64 << 20, 8 << 20, 32);
        assert!(crowded.spill_fraction() > solo.spill_fraction());
    }
}
