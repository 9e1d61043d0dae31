//! The STMM per-interval controller for lock memory.
//!
//! Glue between the pure tuner (`locktune-core`) and the memory set:
//! at each tuning interval it builds the snapshot, runs the tuner,
//! funds growth by shrinking donors, applies the resize to the real
//! pool through a caller-provided closure (the pool lives inside the
//! lock manager), distributes shrink proceeds, restores the overflow
//! goal and updates the on-disk configuration (`LMOC`).
//!
//! Between intervals it owns the paper's per-request rules, so the
//! simulator and the service make the same decisions:
//! [`recompute_app_percent`](Stmm::recompute_app_percent) on every
//! resize (§3.5), [`on_lock_request`](Stmm::on_lock_request) for the
//! `refreshPeriodForAppPercent` cadence, and
//! [`sync_growth`](Stmm::sync_growth) for growth out of overflow
//! (§3.4).

use locktune_core::{
    LockMemoryBounds, LockMemorySnapshot, LockMemoryTuner, SyncGrant, SyncGrowth, TunerParams,
    TuningDecision,
};
use locktune_memalloc::{PoolStats, PoolUsage};

use crate::database::DatabaseMemory;

/// What one tuning interval did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntervalReport {
    /// The tuner's decision.
    pub decision: TuningDecision,
    /// Pool size after applying the decision.
    pub lock_bytes_after: u64,
    /// Bytes taken from donors/overflow to fund growth.
    pub funded_bytes: u64,
    /// Bytes released back by shrinking.
    pub released_bytes: u64,
    /// The on-disk configured size after the interval.
    pub lmoc: u64,
}

/// The self-tuning memory manager (lock-memory portion).
#[derive(Debug)]
pub struct Stmm {
    tuner: LockMemoryTuner,
    lmoc: u64,
}

impl Stmm {
    /// Create the controller for a pool of `initial_lock_bytes`.
    pub fn new(params: TunerParams, initial_lock_bytes: u64) -> Self {
        Stmm {
            tuner: LockMemoryTuner::new(params),
            lmoc: initial_lock_bytes,
        }
    }

    /// The on-disk configured lock memory (`LMOC`).
    pub fn lmoc(&self) -> u64 {
        self.lmoc
    }

    /// The embedded tuner.
    pub fn tuner(&self) -> &LockMemoryTuner {
        &self.tuner
    }

    /// `x`: the fraction of `maxLockMemory` the pool's structures use.
    fn used_fraction_of_max(&self, mem: &DatabaseMemory, pool: &PoolUsage, num_apps: u64) -> f64 {
        let params = self.tuner.params();
        let bounds = LockMemoryBounds::compute(params, num_apps, mem.total());
        bounds.used_fraction_of_max(pool.slots_used * params.lock_struct_bytes)
    }

    /// Recompute `lockPercentPerApplication` from the pool as it is now
    /// (§3.5: "every time the lock memory is resized"). Restarts the
    /// request count of [`on_lock_request`](Self::on_lock_request).
    pub fn recompute_app_percent(
        &mut self,
        mem: &DatabaseMemory,
        pool: &PoolUsage,
        num_apps: u64,
    ) -> f64 {
        let x = self.used_fraction_of_max(mem, pool, num_apps);
        self.tuner.app_percent_mut().recompute(x)
    }

    /// Count one lock-structure request and return the cap in force,
    /// recomputed on every `refreshPeriodForAppPercent`-th request
    /// since the last recompute.
    pub fn on_lock_request(
        &mut self,
        mem: &DatabaseMemory,
        pool: &PoolUsage,
        num_apps: u64,
    ) -> f64 {
        let x = self.used_fraction_of_max(mem, pool, num_apps);
        self.tuner.app_percent_mut().on_lock_request(x)
    }

    /// Synchronous growth: admit up to `wanted_bytes` more lock memory
    /// straight from overflow for a pool of `pool_bytes`, and book the
    /// grant in `mem`. Returns the bytes granted (whole blocks), or 0
    /// when `maxLockMemory` or `LMOmax` leaves no room; the caller then
    /// escalates.
    pub fn sync_growth(
        &self,
        mem: &mut DatabaseMemory,
        wanted_bytes: u64,
        pool_bytes: u64,
        num_apps: u64,
    ) -> u64 {
        let grant = SyncGrowth::new(self.tuner.params()).request(
            wanted_bytes,
            pool_bytes,
            num_apps,
            &mem.overflow_state(),
        );
        match grant {
            SyncGrant::Granted { bytes } => {
                mem.note_lock_sync_growth(bytes);
                bytes
            }
            SyncGrant::Denied(_) => 0,
        }
    }

    /// Execute one tuning interval.
    ///
    /// `apply_resize(target_bytes) -> actual_bytes` resizes the real
    /// pool (growth is exact; shrink is best-effort because blocks
    /// pinned by live locks cannot be freed).
    pub fn run_interval(
        &mut self,
        mem: &mut DatabaseMemory,
        pool: &PoolStats,
        num_applications: u64,
        escalations_since_last: u64,
        mut apply_resize: impl FnMut(u64) -> u64,
    ) -> IntervalReport {
        let params = *self.tuner.params();
        let current = pool.bytes;
        let snapshot = LockMemorySnapshot {
            allocated_bytes: current,
            used_bytes: pool.slots_used * params.lock_struct_bytes,
            lmoc_bytes: self.lmoc,
            num_applications,
            escalations_since_last,
            overflow: mem.overflow_state(),
        };
        let decision = self.tuner.tick(&snapshot);

        let mut funded = 0;
        let mut released = 0;
        let mut actual = current;

        if decision.target_bytes > current {
            let needed = decision.target_bytes - current;
            let granted = mem.fund_lock_growth(needed);
            // Whole blocks only; refund the unusable remainder.
            let aligned = granted / params.block_bytes * params.block_bytes;
            if aligned < granted {
                mem.refund_lock(granted - aligned);
            }
            funded = aligned;
            if aligned > 0 {
                actual = apply_resize(current + aligned);
            }
            mem.set_lock_memory(actual);
        } else if decision.target_bytes < current {
            actual = apply_resize(decision.target_bytes);
            released = current.saturating_sub(actual);
            if released > 0 {
                mem.note_lock_shrink(released);
            }
            mem.set_lock_memory(actual);
        } else {
            mem.set_lock_memory(current);
        }

        // Restore the overflow goal from donor heaps and fold LMO into
        // the configuration.
        mem.rebalance_overflow();
        self.lmoc = actual;

        IntervalReport {
            decision,
            lock_bytes_after: actual,
            funded_bytes: funded,
            released_bytes: released,
            lmoc: self.lmoc,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::MemoryConfig;
    use crate::heap::{HeapKind, PerfHeap};
    use locktune_memalloc::{LockMemoryPool, PoolConfig};

    const MIB: u64 = 1024 * 1024;
    const BLOCK: u64 = 131_072;

    fn setup(lock_bytes: u64) -> (DatabaseMemory, LockMemoryPool, Stmm) {
        let config = MemoryConfig {
            total_bytes: 5120 * MIB,
            overflow_goal_fraction: 0.10,
        };
        let pool = LockMemoryPool::with_bytes(PoolConfig::default(), lock_bytes);
        let lock_actual = pool.total_bytes();
        let mem = DatabaseMemory::new(
            config,
            vec![
                PerfHeap::new(HeapKind::BufferPool, 3500 * MIB, 500 * MIB, 4000 * MIB),
                PerfHeap::new(HeapKind::SortHeap, 800 * MIB, 50 * MIB, 400 * MIB),
                PerfHeap::new(HeapKind::PackageCache, 100 * MIB, 20 * MIB, 100 * MIB),
            ],
            lock_actual,
        );
        let stmm = Stmm::new(TunerParams::default(), lock_actual);
        (mem, pool, stmm)
    }

    /// Hold `n` slots in the pool.
    fn occupy(pool: &mut LockMemoryPool, n: u64) {
        for _ in 0..n {
            pool.allocate().expect("pool has room");
        }
    }

    #[test]
    fn growth_interval_funds_from_donors() {
        let (mut mem, mut pool, mut stmm) = setup(8 * MIB);
        // Use 90% of the pool: tuner must grow to ~2x used.
        let total = pool.total_slots();
        occupy(&mut pool, total * 9 / 10);
        let stats = pool.stats();
        let report = stmm.run_interval(&mut mem, &stats, 130, 0, |target| {
            let blocks = target / BLOCK;
            pool.resize_to_blocks(blocks);
            pool.total_bytes()
        });
        assert!(report.lock_bytes_after > 8 * MIB, "pool grew");
        assert_eq!(report.lock_bytes_after % BLOCK, 0);
        assert!(report.funded_bytes > 0);
        // Sort heap (over-provisioned: 800 vs demand 400) donated.
        assert!(mem.heap(HeapKind::SortHeap).size < 800 * MIB);
        assert_eq!(mem.lock_memory(), report.lock_bytes_after);
        assert_eq!(stmm.lmoc(), report.lock_bytes_after);
        mem.validate();
    }

    #[test]
    fn shrink_interval_releases_gradually() {
        let (mut mem, mut pool, mut stmm) = setup(100 * MIB);
        // Nearly empty pool: shrink by ~5% per interval.
        occupy(&mut pool, 10);
        let before = pool.total_bytes();
        let stats = pool.stats();
        let report = stmm.run_interval(&mut mem, &stats, 10, 0, |target| {
            pool.resize_to_blocks(target / BLOCK);
            pool.total_bytes()
        });
        let released = before - report.lock_bytes_after;
        assert!(released > 0, "some memory released");
        assert!(
            released <= (0.05 * before as f64) as u64 + BLOCK,
            "gradual release"
        );
        mem.validate();
    }

    #[test]
    fn interval_restores_overflow_goal_and_clears_lmo() {
        let (mut mem, mut pool, mut stmm) = setup(8 * MIB);
        // Simulate mid-interval synchronous growth from overflow.
        let sync = 64 * MIB;
        mem.note_lock_sync_growth(sync);
        pool.grow_blocks(sync / BLOCK);
        let half = pool.total_slots() / 2;
        occupy(&mut pool, half);
        let stats = pool.stats();
        stmm.run_interval(&mut mem, &stats, 130, 0, |target| {
            pool.resize_to_blocks(target / BLOCK);
            pool.total_bytes()
        });
        assert_eq!(mem.lock_from_overflow(), 0, "LMO folded into configuration");
        assert!(
            mem.overflow_free() >= mem.overflow_goal(),
            "overflow restored: {} vs goal {}",
            mem.overflow_free(),
            mem.overflow_goal()
        );
        mem.validate();
    }

    #[test]
    fn in_band_interval_changes_nothing() {
        let (mut mem, mut pool, mut stmm) = setup(100 * MIB);
        // 45% used => 55% free: inside the [50, 60] band.
        let total = pool.total_slots();
        occupy(&mut pool, total * 45 / 100);
        let stats = pool.stats();
        let before = pool.total_bytes();
        let report = stmm.run_interval(&mut mem, &stats, 130, 0, |target| {
            pool.resize_to_blocks(target / BLOCK);
            pool.total_bytes()
        });
        assert_eq!(report.lock_bytes_after, before);
        assert_eq!(report.funded_bytes, 0);
        assert_eq!(report.released_bytes, 0);
        assert_eq!(stmm.tuner().ticks(), 1);
    }

    #[test]
    fn partial_shrink_tracks_actual_size() {
        let (mut mem, mut pool, mut stmm) = setup(100 * MIB);
        // Pin one slot in *every* block so shrinking is impossible.
        let per_block = pool.config().slots_per_block() as u64;
        let blocks = pool.total_blocks();
        let mut held = Vec::new();
        for _ in 0..blocks {
            for i in 0..per_block {
                let h = pool.allocate().unwrap();
                if i > 0 {
                    held.push(h);
                }
            }
        }
        // Free all but one slot per block.
        for h in held {
            pool.free(h).unwrap();
        }
        assert_eq!(pool.freeable_blocks(), 0);
        let stats = pool.stats();
        let before = pool.total_bytes();
        let report = stmm.run_interval(&mut mem, &stats, 10, 0, |target| {
            pool.resize_to_blocks(target / BLOCK);
            pool.total_bytes()
        });
        // Shrink was desired but nothing could be freed.
        assert!(report.decision.target_bytes < before);
        assert_eq!(report.lock_bytes_after, before);
        assert_eq!(report.released_bytes, 0);
        assert_eq!(mem.lock_memory(), before);
        mem.validate();
    }

    /// A usage view of a pool of `bytes` with `slots_used` structures
    /// held (64-byte structures: 2048 per block).
    fn usage(bytes: u64, slots_used: u64) -> PoolUsage {
        PoolUsage {
            bytes,
            slots_total: bytes / 64,
            slots_used,
        }
    }

    #[test]
    fn recompute_app_percent_matches_the_curve_at_x() {
        let (mem, _pool, mut stmm) = setup(8 * MIB);
        let params = TunerParams::default();
        let max = LockMemoryBounds::compute(&params, 130, mem.total()).max_bytes;
        // Half of maxLockMemory in use: x = 0.5.
        let pool = usage(max, max / 2 / params.lock_struct_bytes);
        let pct = stmm.recompute_app_percent(&mem, &pool, 130);
        assert_eq!(
            pct,
            locktune_core::lock_percent_per_application(&params, 0.5)
        );
        assert!((pct - 98.0 * (1.0 - 0.125)).abs() < 1e-9);
        assert_eq!(stmm.tuner().app_percent(), pct);
    }

    #[test]
    fn sync_growth_books_grants_and_leaves_memory_alone_on_denial() {
        let (mut mem, _pool, stmm) = setup(8 * MIB);
        let booked =
            |m: &DatabaseMemory| (m.lock_memory(), m.lock_from_overflow(), m.overflow_free());
        let (lock, _, overflow) = booked(&mem);
        assert_eq!(stmm.sync_growth(&mut mem, 100_000, lock, 130), BLOCK);
        assert_eq!(booked(&mem), (lock + BLOCK, BLOCK, overflow - BLOCK));
        // Denied at maxLockMemory.
        let max = LockMemoryBounds::compute(&TunerParams::default(), 130, mem.total()).max_bytes;
        let before = booked(&mem);
        assert_eq!(stmm.sync_growth(&mut mem, BLOCK, max, 130), 0);
        assert_eq!(booked(&mem), before);
        // Denied once LMOmax is spent.
        let granted = stmm.sync_growth(&mut mem, u64::MAX / 2, lock + BLOCK, 130);
        assert!(granted > 0);
        let spent = booked(&mem);
        assert_eq!(
            stmm.sync_growth(&mut mem, BLOCK, lock + BLOCK + granted, 130),
            0
        );
        assert_eq!(booked(&mem), spent);
        mem.validate();
    }

    #[test]
    fn on_lock_request_recomputes_on_the_0x80th_call_and_resize_resets_the_count() {
        let (mem, _pool, mut stmm) = setup(8 * MIB);
        let params = TunerParams::default();
        let max = LockMemoryBounds::compute(&params, 130, mem.total()).max_bytes;
        let full = usage(max, max / params.lock_struct_bytes);
        let empty = usage(max, 0);
        // 127 requests at x = 1 leave the cap where it started.
        for _ in 0..127 {
            assert_eq!(stmm.on_lock_request(&mem, &full, 130), 98.0);
        }
        // The 128th (0x80) recomputes it.
        assert_eq!(stmm.on_lock_request(&mem, &full, 130), 1.0);
        // A resize part-way through the next period recomputes and
        // restarts the count: 127 more requests change nothing.
        for _ in 0..100 {
            stmm.on_lock_request(&mem, &empty, 130);
        }
        assert_eq!(stmm.recompute_app_percent(&mem, &empty, 130), 98.0);
        for _ in 0..127 {
            assert_eq!(stmm.on_lock_request(&mem, &full, 130), 98.0);
        }
        assert_eq!(stmm.on_lock_request(&mem, &full, 130), 1.0);
    }

    #[test]
    fn escalations_trigger_doubling_interval() {
        let (mut mem, mut pool, mut stmm) = setup(8 * MIB);
        let all = pool.total_slots();
        occupy(&mut pool, all);
        let stats = pool.stats();
        let before = pool.total_bytes();
        let report = stmm.run_interval(&mut mem, &stats, 130, 5, |target| {
            pool.resize_to_blocks(target / BLOCK);
            pool.total_bytes()
        });
        assert!(
            report.lock_bytes_after >= 2 * before,
            "doubled under escalations"
        );
        mem.validate();
    }
}
