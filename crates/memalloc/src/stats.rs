//! Pool statistics snapshots.

/// Monotonic operation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolCounters {
    /// Successful slot allocations.
    pub allocations: u64,
    /// Successful slot frees.
    pub frees: u64,
    /// Grow operations (each may add several blocks).
    pub grows: u64,
    /// Successful shrink operations.
    pub shrinks: u64,
    /// Shrink attempts that failed the tail scan.
    pub failed_shrinks: u64,
    /// Allocation attempts that found every block full.
    pub exhaustions: u64,
    /// Total blocks ever added.
    pub blocks_added: u64,
    /// Total blocks ever removed.
    pub blocks_removed: u64,
}

/// The cheap aggregate view the per-request tuning hooks consume.
///
/// Unlike [`PoolStats`] this can be produced without locking a shared
/// pool (it reads the atomic accounting mirrors), which matters
/// because the lock manager fetches it on **every** lock-structure
/// request — the paper's §3.5 per-request cap refresh.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolUsage {
    /// Bytes of lock memory allocated to the pool.
    pub bytes: u64,
    /// Total lock structure slots.
    pub slots_total: u64,
    /// Allocated slots.
    pub slots_used: u64,
}

impl PoolUsage {
    /// Fraction of slots free, `[0, 1]`; 0 for an empty pool.
    pub fn free_fraction(&self) -> f64 {
        if self.slots_total == 0 {
            0.0
        } else {
            (self.slots_total - self.slots_used) as f64 / self.slots_total as f64
        }
    }
}

/// Point-in-time view of the pool, consumed by the tuning layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Live blocks.
    pub blocks: u64,
    /// Bytes of lock memory allocated to the pool.
    pub bytes: u64,
    /// Total lock structure slots.
    pub slots_total: u64,
    /// Allocated slots.
    pub slots_used: u64,
    /// Free slots.
    pub slots_free: u64,
    /// Blocks with zero allocated slots (shrink candidates).
    pub fully_free_blocks: u64,
    /// Operation counters.
    pub counters: PoolCounters,
}

impl PoolStats {
    /// Fraction of slots free, `[0, 1]`; 0 for an empty pool.
    pub fn free_fraction(&self) -> f64 {
        if self.slots_total == 0 {
            0.0
        } else {
            self.slots_free as f64 / self.slots_total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(total: u64, used: u64) -> PoolStats {
        PoolStats {
            blocks: 1,
            bytes: 0,
            slots_total: total,
            slots_used: used,
            slots_free: total - used,
            fully_free_blocks: 0,
            counters: PoolCounters::default(),
        }
    }

    #[test]
    fn fractions() {
        let s = stats(100, 25);
        assert_eq!(s.free_fraction(), 0.75);
    }

    #[test]
    fn empty_pool_fractions_are_zero() {
        let s = stats(0, 0);
        assert_eq!(s.free_fraction(), 0.0);
    }
}
