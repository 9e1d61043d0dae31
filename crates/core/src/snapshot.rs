//! Inputs to the tuner: a point-in-time view of the lock memory and of
//! the database memory around it.

/// State of the database memory outside the lock pool, as the tuner
//  sees it at a tuning point (paper §3.2's `LMOmax` formula inputs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverflowState {
    /// Total shared memory allocated to the database (`databaseMemory`).
    pub database_memory_bytes: u64,
    /// Sum of all configured heap sizes (bufferpools, sort, package
    /// cache, …) **excluding** any lock memory taken from overflow.
    pub sum_heap_bytes: u64,
    /// Lock memory currently allocated out of the overflow area (`LMO`).
    pub lock_memory_from_overflow_bytes: u64,
    /// Overflow bytes currently unclaimed by any consumer.
    pub overflow_free_bytes: u64,
}

impl OverflowState {
    /// `LMOmax = C1 × (databaseMemory − Σ heapsizes + LMO)` — the
    /// maximum lock memory that may live in the overflow area.
    pub fn lmo_max(&self, c1: f64) -> u64 {
        let overflow_incl_lmo = self
            .database_memory_bytes
            .saturating_sub(self.sum_heap_bytes)
            .saturating_add(0) // LMO is already excluded from sum_heap_bytes
            .max(self.lock_memory_from_overflow_bytes);
        (c1 * overflow_incl_lmo as f64) as u64
    }

    /// Additional bytes lock memory may still take from overflow right
    /// now: limited both by `LMOmax` headroom and by what is physically
    /// free.
    pub fn overflow_headroom(&self, c1: f64) -> u64 {
        let lmo_max = self.lmo_max(c1);
        let policy_room = lmo_max.saturating_sub(self.lock_memory_from_overflow_bytes);
        policy_room.min(self.overflow_free_bytes)
    }
}

/// Point-in-time view of the lock memory itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockMemorySnapshot {
    /// Bytes currently allocated to the lock pool (in-memory; may
    /// transiently exceed the on-disk configuration).
    pub allocated_bytes: u64,
    /// Bytes of lock structures in use.
    pub used_bytes: u64,
    /// On-disk configured size (`LMOC`).
    pub lmoc_bytes: u64,
    /// Number of application connections (`num_applications`).
    pub num_applications: u64,
    /// Lock escalations observed since the previous tuning point.
    pub escalations_since_last: u64,
    /// Surrounding memory state.
    pub overflow: OverflowState,
}

impl LockMemorySnapshot {
    /// Free bytes in the pool.
    pub fn free_bytes(&self) -> u64 {
        self.allocated_bytes.saturating_sub(self.used_bytes)
    }

    /// Fraction of the allocation that is free, `[0, 1]`; 0 when the
    /// pool is empty.
    pub fn free_fraction(&self) -> f64 {
        if self.allocated_bytes == 0 {
            0.0
        } else {
            self.free_bytes() as f64 / self.allocated_bytes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn overflow() -> OverflowState {
        OverflowState {
            database_memory_bytes: 1000,
            sum_heap_bytes: 900,
            lock_memory_from_overflow_bytes: 20,
            overflow_free_bytes: 80,
        }
    }

    #[test]
    fn lmo_max_formula() {
        // C1 × (dbMem − Σheaps + LMO); Σheaps here excludes LMO, so the
        // overflow-inclusive pool is 100 and LMOmax = 65.
        let o = overflow();
        assert_eq!(o.lmo_max(0.65), 65);
    }

    #[test]
    fn headroom_respects_both_limits() {
        let o = overflow();
        // Policy room: 65 − 20 = 45; physical room: 80 → 45 wins.
        assert_eq!(o.overflow_headroom(0.65), 45);
        // Tight physical room wins instead.
        let tight = OverflowState {
            overflow_free_bytes: 10,
            ..o
        };
        assert_eq!(tight.overflow_headroom(0.65), 10);
    }

    #[test]
    fn headroom_zero_when_lmo_at_max() {
        let o = OverflowState {
            database_memory_bytes: 1000,
            sum_heap_bytes: 900,
            lock_memory_from_overflow_bytes: 65,
            overflow_free_bytes: 35,
        };
        assert_eq!(o.overflow_headroom(0.65), 0);
    }

    #[test]
    fn lmo_max_saturates_when_heaps_exceed_db_memory() {
        let o = OverflowState {
            database_memory_bytes: 100,
            sum_heap_bytes: 150,
            lock_memory_from_overflow_bytes: 30,
            overflow_free_bytes: 0,
        };
        // Degenerate accounting must not underflow; LMO itself bounds below.
        assert_eq!(o.lmo_max(0.65), (0.65f64 * 30.0) as u64);
        assert_eq!(o.overflow_headroom(0.65), 0);
    }

    #[test]
    fn snapshot_free_accounting() {
        let s = LockMemorySnapshot {
            allocated_bytes: 100,
            used_bytes: 30,
            lmoc_bytes: 100,
            num_applications: 5,
            escalations_since_last: 0,
            overflow: overflow(),
        };
        assert_eq!(s.free_bytes(), 70);
        assert!((s.free_fraction() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn empty_pool_free_fraction_is_zero() {
        let s = LockMemorySnapshot {
            allocated_bytes: 0,
            used_bytes: 0,
            lmoc_bytes: 0,
            num_applications: 0,
            escalations_since_last: 0,
            overflow: overflow(),
        };
        assert_eq!(s.free_fraction(), 0.0);
        assert_eq!(s.free_bytes(), 0);
    }

    #[test]
    fn used_beyond_allocated_saturates() {
        // Defensive: inconsistent inputs must not underflow.
        let s = LockMemorySnapshot {
            allocated_bytes: 10,
            used_bytes: 20,
            lmoc_bytes: 10,
            num_applications: 1,
            escalations_since_last: 0,
            overflow: overflow(),
        };
        assert_eq!(s.free_bytes(), 0);
    }
}
