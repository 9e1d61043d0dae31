//! Pool backend abstraction.
//!
//! The lock manager was written against an owned [`LockMemoryPool`];
//! the concurrent service shards the lock table into N managers that
//! must all draw lock structures from **one** pool so that the STMM
//! tuner governs a single `LOCKLIST` (as in DB2, where the lock list is
//! one database-level heap regardless of how many agents touch it).
//! [`PoolBackend`] is the seam: the manager is generic over it, owned
//! pools implement it by delegation, and
//! [`SharedLockMemoryPool`](crate::SharedLockMemoryPool) implements it
//! over an `Arc<Mutex<..>>` with atomic accounting mirrors.
#![warn(clippy::missing_inline_in_public_items)]

use crate::config::PoolConfig;
use crate::error::PoolError;
use crate::pool::LockMemoryPool;
use crate::stats::{PoolStats, PoolUsage};
use crate::SlotHandle;

/// The slice of the pool API the lock manager consumes.
///
/// Mutating methods take `&mut self` so the owned-pool implementation
/// is zero-cost; a shared backend is free to ignore the exclusivity
/// (its interior mutex provides the actual synchronisation).
pub trait PoolBackend: std::fmt::Debug {
    /// Pool geometry (immutable after construction).
    fn config(&self) -> PoolConfig;

    /// Allocate one lock structure slot.
    fn allocate(&mut self) -> Result<SlotHandle, PoolError>;

    /// Allocate two slots, as [`Self::allocate`] twice would; a second
    /// failure returns the first, so a failed pair takes nothing.
    #[inline]
    fn allocate_pair(&mut self) -> Result<[SlotHandle; 2], PoolError> {
        let first = self.allocate()?;
        let second = self
            .allocate()
            .inspect_err(|_| self.free(first).expect("just allocated"))?;
        Ok([first, second])
    }

    /// Return a slot to the pool.
    fn free(&mut self, handle: SlotHandle) -> Result<(), PoolError>;

    /// Add `n` blocks; returns blocks actually added.
    fn grow_blocks(&mut self, n: u64) -> u64;

    /// Grow or (best-effort) shrink towards `target_blocks`; returns
    /// the resulting block count.
    fn resize_to_blocks(&mut self, target_blocks: u64) -> u64;

    /// Live blocks.
    fn total_blocks(&self) -> u64;

    /// Bytes of lock memory in the pool.
    fn total_bytes(&self) -> u64;

    /// Total lock structure slots.
    fn total_slots(&self) -> u64;

    /// Allocated slots.
    fn used_slots(&self) -> u64;

    /// Free slots.
    fn free_slots(&self) -> u64;

    /// Bytes backing allocated slots.
    fn used_bytes(&self) -> u64;

    /// Fraction of slots free, `[0, 1]`.
    fn free_fraction(&self) -> f64;

    /// Point-in-time statistics snapshot.
    fn stats(&self) -> PoolStats;

    /// The cheap aggregate view the per-request hooks consume. Must
    /// not take locks: shared backends serve it from their atomic
    /// accounting mirrors.
    #[inline]
    fn usage(&self) -> PoolUsage {
        PoolUsage {
            bytes: self.total_bytes(),
            slots_total: self.total_slots(),
            slots_used: self.used_slots(),
        }
    }

    /// Internal invariant check (panics on inconsistency).
    fn validate(&self);

    /// True when other lock managers draw from this pool too. A shard
    /// over a shared backend cannot expect the pool-wide used count to
    /// equal its own charged count.
    #[inline]
    fn is_shared(&self) -> bool {
        false
    }

    /// Return any privately cached free slots to the pool so the
    /// global used count is exact. No-op for owned pools (they have no
    /// cache); shared backends drain their slot cache.
    #[inline]
    fn flush_cache(&mut self) {}
}

impl PoolBackend for LockMemoryPool {
    #[inline]
    fn config(&self) -> PoolConfig {
        *LockMemoryPool::config(self)
    }

    #[inline]
    fn allocate(&mut self) -> Result<SlotHandle, PoolError> {
        LockMemoryPool::allocate(self)
    }

    #[inline]
    fn free(&mut self, handle: SlotHandle) -> Result<(), PoolError> {
        LockMemoryPool::free(self, handle)
    }

    #[inline]
    fn grow_blocks(&mut self, n: u64) -> u64 {
        LockMemoryPool::grow_blocks(self, n)
    }

    #[inline]
    fn resize_to_blocks(&mut self, target_blocks: u64) -> u64 {
        LockMemoryPool::resize_to_blocks(self, target_blocks)
    }

    #[inline]
    fn total_blocks(&self) -> u64 {
        LockMemoryPool::total_blocks(self)
    }

    #[inline]
    fn total_bytes(&self) -> u64 {
        LockMemoryPool::total_bytes(self)
    }

    #[inline]
    fn total_slots(&self) -> u64 {
        LockMemoryPool::total_slots(self)
    }

    #[inline]
    fn used_slots(&self) -> u64 {
        LockMemoryPool::used_slots(self)
    }

    #[inline]
    fn free_slots(&self) -> u64 {
        LockMemoryPool::free_slots(self)
    }

    #[inline]
    fn used_bytes(&self) -> u64 {
        LockMemoryPool::used_bytes(self)
    }

    #[inline]
    fn free_fraction(&self) -> f64 {
        LockMemoryPool::free_fraction(self)
    }

    #[inline]
    fn stats(&self) -> PoolStats {
        LockMemoryPool::stats(self)
    }

    #[inline]
    fn validate(&self) {
        LockMemoryPool::validate(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn backend_roundtrip<P: PoolBackend>(pool: &mut P) {
        let before = pool.used_slots();
        let h = pool.allocate().expect("slot available");
        assert_eq!(pool.used_slots(), before + 1);
        pool.free(h).expect("live handle");
        assert_eq!(pool.used_slots(), before);
    }

    /// An owned pool's pair is two single allocations, placed as they
    /// would be; a pair the pool has one slot for takes nothing.
    #[test]
    fn a_failed_pair_takes_nothing() {
        let mut pool = LockMemoryPool::with_bytes(PoolConfig::new(3 * 64, 64), 2 * 3 * 64);
        let [a, b] = PoolBackend::allocate_pair(&mut pool).unwrap();
        let [c, d] = PoolBackend::allocate_pair(&mut pool).unwrap();
        let blocks = [a, b, c, d].map(|h| h.block_index());
        assert_eq!(
            blocks,
            [0, 0, 0, 1],
            "the second pair straddles blocks 0 and 1"
        );
        let e = pool.allocate().unwrap();
        assert_eq!(
            PoolBackend::allocate_pair(&mut pool),
            Err(PoolError::Exhausted)
        );
        assert_eq!(pool.used_slots(), 5);
        pool.validate();
        for h in [a, b, c, d, e] {
            pool.free(h).unwrap();
        }
        assert_eq!(pool.used_slots(), 0);
    }

    #[test]
    fn owned_pool_is_a_backend() {
        let mut pool = LockMemoryPool::with_bytes(PoolConfig::default(), 128 * 1024);
        backend_roundtrip(&mut pool);
        assert!(!PoolBackend::is_shared(&pool));
        assert_eq!(PoolBackend::config(&pool), PoolConfig::default());
    }
}
