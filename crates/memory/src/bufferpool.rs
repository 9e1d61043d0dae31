//! Buffer pool model: hit ratio as a function of size.
//!
//! The figures don't need a page-accurate cache, but the examples and
//! the STMM donor ranking do need a *monotone, diminishing-returns*
//! relationship between bufferpool size and performance — that is what
//! makes giving memory to locks cost something. We use the standard
//! inverse-power-law ("Che-like") approximation: with a working set of
//! `w` bytes accessed with Zipf-ish skew, the miss ratio of a cache of
//! `s` bytes behaves like `(s/w)^(1-θ)` for `s < w`.

/// Analytic buffer pool.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BufferPool {
    /// Current size in bytes.
    pub size: u64,
    /// Working set the workload touches, in bytes.
    pub working_set: u64,
    /// Skew parameter θ in `[0, 1)`: 0 = uniform access (miss ratio
    /// falls linearly), closer to 1 = highly skewed (small caches
    /// already capture most hits).
    pub theta: f64,
}

impl BufferPool {
    /// Create a pool model.
    ///
    /// # Panics
    /// Panics unless `working_set > 0` and `theta ∈ [0, 1)`.
    pub fn new(size: u64, working_set: u64, theta: f64) -> Self {
        assert!(working_set > 0, "working set must be non-zero");
        assert!((0.0..1.0).contains(&theta), "theta must be in [0, 1)");
        BufferPool {
            size,
            working_set,
            theta,
        }
    }

    /// Hit ratio in `[0, 1]` at the current size.
    pub fn hit_ratio(&self) -> f64 {
        self.hit_ratio_at(self.size)
    }

    /// Hit ratio a hypothetical size would achieve (used for benefit
    /// estimation).
    pub fn hit_ratio_at(&self, size: u64) -> f64 {
        if size >= self.working_set {
            return 1.0;
        }
        let frac = size as f64 / self.working_set as f64;
        // Miss ratio ~ (1 - frac)^(1/(1-theta)): steeper early gains
        // with higher skew.
        let exponent = 1.0 / (1.0 - self.theta);
        1.0 - (1.0 - frac).powf(exponent)
    }

    /// Marginal hit-ratio gain per added byte at the current size
    /// (numeric derivative over one 4 KiB page).
    pub fn marginal_benefit(&self) -> f64 {
        let step = 4096u64;
        (self.hit_ratio_at(self.size + step) - self.hit_ratio()) / step as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_ratio_monotone_in_size() {
        let mut prev = -1.0;
        for s in (0..=100).map(|i| i * 10_000_000) {
            let bp = BufferPool::new(s, 1_000_000_000, 0.5);
            let h = bp.hit_ratio();
            assert!(h >= prev, "hit ratio decreased at {s}");
            assert!((0.0..=1.0).contains(&h));
            prev = h;
        }
    }

    #[test]
    fn full_working_set_hits_everything() {
        let bp = BufferPool::new(1 << 30, 1 << 30, 0.5);
        assert_eq!(bp.hit_ratio(), 1.0);
        let bigger = BufferPool::new(2 << 30, 1 << 30, 0.5);
        assert_eq!(bigger.hit_ratio(), 1.0);
    }

    #[test]
    fn zero_size_hits_nothing() {
        let bp = BufferPool::new(0, 1 << 30, 0.5);
        assert_eq!(bp.hit_ratio(), 0.0);
    }

    #[test]
    fn skew_gives_early_gains() {
        // At 10% of the working set, a skewed workload has a much
        // higher hit ratio than a uniform one.
        let uniform = BufferPool::new(100, 1000, 0.0);
        let skewed = BufferPool::new(100, 1000, 0.8);
        assert!(skewed.hit_ratio() > uniform.hit_ratio() + 0.2);
        assert!(
            (uniform.hit_ratio() - 0.1).abs() < 1e-9,
            "theta=0 is linear"
        );
    }

    #[test]
    fn diminishing_marginal_benefit() {
        let small = BufferPool::new(100 << 20, 10 << 30, 0.6);
        let large = BufferPool::new(8 << 30, 10 << 30, 0.6);
        assert!(small.marginal_benefit() > large.marginal_benefit());
        let full = BufferPool::new(10 << 30, 10 << 30, 0.6);
        assert_eq!(full.marginal_benefit(), 0.0);
    }
}
