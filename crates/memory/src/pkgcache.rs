//! Package cache model: statement compilation cache hit ratio.
//!
//! DB2's package cache holds compiled SQL. The model: a workload with
//! `distinct_statements` of `mean_plan_bytes` each gets a hit ratio
//! equal to the cached fraction, with the usual LRU-under-skew bonus.

/// Analytic package (statement) cache.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PackageCache {
    /// Current size in bytes.
    pub size: u64,
    /// Distinct statements in the workload.
    pub distinct_statements: u64,
    /// Mean compiled-plan size in bytes.
    pub mean_plan_bytes: u64,
    /// Fraction of executions hitting the hottest 20% of statements
    /// (0.8 for a typical OLTP workload).
    pub hot_fraction: f64,
}

impl PackageCache {
    /// Create a package cache model.
    ///
    /// # Panics
    /// Panics if `distinct_statements == 0`, `mean_plan_bytes == 0`, or
    /// `hot_fraction` is outside `[0, 1]`.
    pub fn new(
        size: u64,
        distinct_statements: u64,
        mean_plan_bytes: u64,
        hot_fraction: f64,
    ) -> Self {
        assert!(distinct_statements > 0 && mean_plan_bytes > 0);
        assert!((0.0..=1.0).contains(&hot_fraction));
        PackageCache {
            size,
            distinct_statements,
            mean_plan_bytes,
            hot_fraction,
        }
    }

    /// Bytes needed to cache every distinct statement.
    pub fn full_demand(&self) -> u64 {
        self.distinct_statements * self.mean_plan_bytes
    }

    /// Hit ratio in `[0, 1]`: the hot 20% of statements get
    /// `hot_fraction` of executions, cached hot-first.
    pub fn hit_ratio(&self) -> f64 {
        let full = self.full_demand() as f64;
        if self.size as f64 >= full {
            return 1.0;
        }
        let cached_frac = self.size as f64 / full;
        let hot_capacity = 0.2;
        if cached_frac <= hot_capacity {
            // Still filling the hot set.
            (cached_frac / hot_capacity) * self.hot_fraction
        } else {
            let cold_frac = (cached_frac - hot_capacity) / (1.0 - hot_capacity);
            self.hot_fraction + cold_frac * (1.0 - self.hot_fraction)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(size: u64) -> PackageCache {
        PackageCache::new(size, 1000, 10_000, 0.8)
    }

    #[test]
    fn endpoints() {
        assert_eq!(cache(0).hit_ratio(), 0.0);
        assert_eq!(cache(10_000_000).hit_ratio(), 1.0);
        assert_eq!(cache(20_000_000).hit_ratio(), 1.0);
    }

    #[test]
    fn hot_set_captures_most_hits() {
        // 20% of the demand cached -> hot_fraction of executions hit.
        let c = cache(2_000_000);
        assert!((c.hit_ratio() - 0.8).abs() < 1e-9);
        // Half of the hot set -> half of 0.8.
        let half_hot = cache(1_000_000);
        assert!((half_hot.hit_ratio() - 0.4).abs() < 1e-9);
    }

    #[test]
    fn monotone() {
        let mut prev = -1.0;
        for s in (0..=20).map(|i| i * 500_000) {
            let h = cache(s).hit_ratio();
            assert!(h >= prev);
            prev = h;
        }
    }
}
