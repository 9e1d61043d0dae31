//! Byte-exact accounting of the database shared memory set.

use locktune_core::OverflowState;

use crate::heap::{HeapKind, PerfHeap};

/// Static configuration of the memory set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryConfig {
    /// `databaseMemory`: total shared memory.
    pub total_bytes: u64,
    /// Overflow goal as a fraction of `databaseMemory` (the paper's
    /// worked example uses 10 %).
    pub overflow_goal_fraction: f64,
}

impl Default for MemoryConfig {
    fn default() -> Self {
        // The paper's testbed: 5.11 GB database memory.
        MemoryConfig {
            total_bytes: (5.11 * 1024.0 * 1024.0 * 1024.0) as u64,
            overflow_goal_fraction: 0.10,
        }
    }
}

/// The database shared memory set: three performance heaps, the lock
/// memory, and the overflow area (whatever is not allocated).
#[derive(Debug, Clone)]
pub struct DatabaseMemory {
    config: MemoryConfig,
    heaps: Vec<PerfHeap>,
    lock_memory: u64,
    /// `LMO`: lock memory consumed out of overflow since the last
    /// tuning interval (synchronous growth).
    lock_from_overflow: u64,
}

impl DatabaseMemory {
    /// Create the memory set.
    ///
    /// # Panics
    /// Panics if the initial allocation exceeds `total_bytes` or the
    /// config is inconsistent.
    pub fn new(config: MemoryConfig, heaps: Vec<PerfHeap>, initial_lock_bytes: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&config.overflow_goal_fraction),
            "overflow goal fraction must be in [0, 1)"
        );
        let m = DatabaseMemory {
            config,
            heaps,
            lock_memory: initial_lock_bytes,
            lock_from_overflow: 0,
        };
        assert!(
            m.allocated() <= config.total_bytes,
            "initial allocation {} exceeds databaseMemory {}",
            m.allocated(),
            config.total_bytes
        );
        m
    }

    /// `databaseMemory` in bytes.
    pub fn total(&self) -> u64 {
        self.config.total_bytes
    }

    /// Bytes allocated to heaps + lock memory.
    pub fn allocated(&self) -> u64 {
        self.heaps.iter().map(|h| h.size).sum::<u64>() + self.lock_memory
    }

    /// Unallocated bytes (the overflow area).
    pub fn overflow_free(&self) -> u64 {
        self.total() - self.allocated()
    }

    /// The overflow goal in bytes.
    pub fn overflow_goal(&self) -> u64 {
        (self.config.overflow_goal_fraction * self.total() as f64) as u64
    }

    /// Current lock memory size.
    pub fn lock_memory(&self) -> u64 {
        self.lock_memory
    }

    /// Lock memory consumed from overflow since the last interval
    /// (`LMO`).
    pub fn lock_from_overflow(&self) -> u64 {
        self.lock_from_overflow
    }

    /// The heap of the given kind.
    ///
    /// # Panics
    /// Panics if the heap was not configured.
    pub fn heap(&self, kind: HeapKind) -> &PerfHeap {
        self.heaps
            .iter()
            .find(|h| h.kind == kind)
            .expect("heap configured")
    }

    /// Mutable access (demand updates from the workload).
    pub fn heap_mut(&mut self, kind: HeapKind) -> &mut PerfHeap {
        self.heaps
            .iter_mut()
            .find(|h| h.kind == kind)
            .expect("heap configured")
    }

    /// All heaps.
    pub fn heaps(&self) -> &[PerfHeap] {
        &self.heaps
    }

    /// The `OverflowState` snapshot the core tuner consumes
    /// (`sum_heap_bytes` excludes `LMO`, per §3.2's formula).
    pub fn overflow_state(&self) -> OverflowState {
        OverflowState {
            database_memory_bytes: self.total(),
            sum_heap_bytes: self.heaps.iter().map(|h| h.size).sum::<u64>()
                + (self.lock_memory - self.lock_from_overflow),
            lock_memory_from_overflow_bytes: self.lock_from_overflow,
            overflow_free_bytes: self.overflow_free(),
        }
    }

    // ------------------------------------------------------------------
    // Lock memory flows.
    // ------------------------------------------------------------------

    /// Synchronous growth: lock memory takes `bytes` straight from the
    /// overflow area between tuning intervals.
    ///
    /// # Panics
    /// Panics if `bytes` exceeds the physically free overflow — the
    /// admission control in `locktune-core` must prevent that.
    pub fn note_lock_sync_growth(&mut self, bytes: u64) {
        assert!(
            bytes <= self.overflow_free(),
            "sync growth beyond free overflow"
        );
        self.lock_memory += bytes;
        self.lock_from_overflow += bytes;
    }

    /// Fund asynchronous lock growth of up to `needed` bytes: donor
    /// heaps first (least needy, per Fig. 6's T2 which shrinks sort
    /// without touching overflow), then overflow above its goal, then
    /// the remaining overflow. Returns the bytes actually granted and
    /// adds them to the lock memory.
    pub fn fund_lock_growth(&mut self, needed: u64) -> u64 {
        let mut remaining = needed;
        // 1. Donor heaps, least needy first; at equal neediness the
        //    heap with the biggest surplus over its demand donates
        //    first (Fig. 6's "sort memory, the least needy consumer").
        let mut order: Vec<usize> = (0..self.heaps.len()).collect();
        order.sort_by(|&a, &b| {
            let (ha, hb) = (&self.heaps[a], &self.heaps[b]);
            ha.neediness()
                .partial_cmp(&hb.neediness())
                .expect("neediness is never NaN")
                .then(
                    hb.size
                        .saturating_sub(hb.demand)
                        .cmp(&ha.size.saturating_sub(ha.demand)),
                )
                .then(ha.kind.to_string().cmp(&hb.kind.to_string()))
        });
        for idx in order {
            if remaining == 0 {
                break;
            }
            // Credit each donation to lock memory immediately so the
            // overflow computation below never double-counts it.
            let donated = self.heaps[idx].donate(remaining);
            self.lock_memory += donated;
            remaining -= donated;
        }
        // 2. Overflow (it is one pool; cap at what is physically free).
        if remaining > 0 {
            let take = remaining.min(self.overflow_free());
            self.lock_memory += take;
            remaining -= take;
        }
        let granted = needed - remaining;
        debug_assert!(self.allocated() <= self.total());
        granted
    }

    /// Return `bytes` that could not be used after funding (e.g. the
    /// grant was rounded down to whole blocks).
    pub fn refund_lock(&mut self, bytes: u64) {
        assert!(
            bytes <= self.lock_memory,
            "refunding more than lock memory holds"
        );
        self.lock_memory -= bytes;
    }

    /// Lock memory released `bytes`: credit overflow first up to its
    /// goal, then give the rest to the neediest heaps; any leftover
    /// stays in overflow.
    pub fn note_lock_shrink(&mut self, bytes: u64) {
        assert!(
            bytes <= self.lock_memory,
            "shrinking more than lock memory holds"
        );
        self.lock_memory -= bytes;
        // Overflow-sourced memory is considered returned first.
        self.lock_from_overflow = self.lock_from_overflow.min(self.lock_memory);
        // The freed bytes are now overflow. Give what exceeds the goal
        // to the neediest heaps.
        let mut surplus = self.overflow_free().saturating_sub(self.overflow_goal());
        let mut order: Vec<usize> = (0..self.heaps.len()).collect();
        order.sort_by(|&a, &b| {
            self.heaps[b]
                .neediness()
                .partial_cmp(&self.heaps[a].neediness())
                .expect("neediness is never NaN")
        });
        for idx in order {
            if surplus == 0 {
                break;
            }
            let want = self.heaps[idx].wanted().min(surplus);
            self.heaps[idx].receive(want);
            surplus -= want;
        }
        debug_assert!(self.allocated() <= self.total());
    }

    /// Restore the overflow area towards its goal by shrinking donor
    /// heaps (never lock memory — that is the tuner's job), and fold
    /// the sync-grown lock memory into the configuration (`LMO := 0`).
    pub fn rebalance_overflow(&mut self) {
        let goal = self.overflow_goal();
        let mut deficit = goal.saturating_sub(self.overflow_free());
        let mut order: Vec<usize> = (0..self.heaps.len()).collect();
        order.sort_by(|&a, &b| {
            self.heaps[a]
                .neediness()
                .partial_cmp(&self.heaps[b].neediness())
                .expect("neediness is never NaN")
        });
        for idx in order {
            if deficit == 0 {
                break;
            }
            deficit -= self.heaps[idx].donate(deficit);
        }
        self.lock_from_overflow = 0;
    }

    /// Record the lock pool's actual size after a resize was applied
    /// (shrinks may be partial); the difference flows to/from overflow.
    pub fn set_lock_memory(&mut self, actual_bytes: u64) {
        assert!(
            self.allocated() - self.lock_memory + actual_bytes <= self.total(),
            "lock memory beyond databaseMemory"
        );
        self.lock_memory = actual_bytes;
        self.lock_from_overflow = self.lock_from_overflow.min(actual_bytes);
    }

    /// Internal consistency check.
    ///
    /// # Panics
    /// Panics on violation.
    pub fn validate(&self) {
        assert!(
            self.allocated() <= self.total(),
            "over-allocated memory set"
        );
        assert!(
            self.lock_from_overflow <= self.lock_memory,
            "LMO beyond lock memory"
        );
        for h in &self.heaps {
            assert!(h.size >= h.min, "heap {} below floor", h.kind);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::HeapKind;

    const MIB: u64 = 1024 * 1024;

    fn mem() -> DatabaseMemory {
        let config = MemoryConfig {
            total_bytes: 1000 * MIB,
            overflow_goal_fraction: 0.10,
        };
        DatabaseMemory::new(
            config,
            vec![
                PerfHeap::new(HeapKind::BufferPool, 700 * MIB, 100 * MIB, 800 * MIB),
                PerfHeap::new(HeapKind::SortHeap, 150 * MIB, 10 * MIB, 100 * MIB),
                PerfHeap::new(HeapKind::PackageCache, 40 * MIB, 10 * MIB, 40 * MIB),
            ],
            10 * MIB,
        )
    }

    #[test]
    fn accounting() {
        let m = mem();
        assert_eq!(m.total(), 1000 * MIB);
        assert_eq!(m.allocated(), 900 * MIB);
        assert_eq!(m.overflow_free(), 100 * MIB);
        assert_eq!(m.overflow_goal(), 100 * MIB);
        assert_eq!(m.lock_memory(), 10 * MIB);
        m.validate();
    }

    #[test]
    fn overflow_state_excludes_lmo_from_heap_sum() {
        let mut m = mem();
        m.note_lock_sync_growth(20 * MIB);
        let o = m.overflow_state();
        assert_eq!(o.lock_memory_from_overflow_bytes, 20 * MIB);
        // Heaps (890) + configured lock (10) = 900; LMO excluded.
        assert_eq!(o.sum_heap_bytes, 900 * MIB);
        assert_eq!(o.overflow_free_bytes, 80 * MIB);
        m.validate();
    }

    #[test]
    fn sync_growth_consumes_overflow() {
        let mut m = mem();
        m.note_lock_sync_growth(30 * MIB);
        assert_eq!(m.lock_memory(), 40 * MIB);
        assert_eq!(m.lock_from_overflow(), 30 * MIB);
        assert_eq!(m.overflow_free(), 70 * MIB);
        m.validate();
    }

    #[test]
    #[should_panic(expected = "beyond free overflow")]
    fn sync_growth_cannot_exceed_overflow() {
        mem().note_lock_sync_growth(200 * MIB);
    }

    #[test]
    fn fund_growth_prefers_least_needy_donor() {
        let mut m = mem();
        // Sort is over-provisioned (150 vs demand 100): neediness 0.
        // It donates before the (needy) bufferpool and before overflow.
        let granted = m.fund_lock_growth(50 * MIB);
        assert_eq!(granted, 50 * MIB);
        assert_eq!(m.heap(HeapKind::SortHeap).size, 100 * MIB);
        assert_eq!(m.heap(HeapKind::BufferPool).size, 700 * MIB);
        assert_eq!(
            m.overflow_free(),
            100 * MIB,
            "overflow untouched (Fig. 6 T2)"
        );
        assert_eq!(m.lock_memory(), 60 * MIB);
        m.validate();
    }

    #[test]
    fn fund_growth_spills_into_overflow_when_donors_dry() {
        let mut m = mem();
        // Ask for more than all donatable heap memory.
        let donatable: u64 = m.heaps().iter().map(|h| h.donatable()).sum();
        let granted = m.fund_lock_growth(donatable + 50 * MIB);
        assert_eq!(granted, donatable + 50 * MIB);
        assert_eq!(m.overflow_free(), 50 * MIB);
        m.validate();
    }

    #[test]
    fn fund_growth_is_bounded_by_physical_memory() {
        let mut m = mem();
        let granted = m.fund_lock_growth(10_000 * MIB);
        // Everything donatable + all overflow.
        let expect: u64 = 770 * MIB /* donatable: 600+140+30 */ + 100 * MIB;
        assert_eq!(granted, expect);
        assert_eq!(m.overflow_free(), 0);
        m.validate();
    }

    #[test]
    fn shrink_fills_overflow_goal_then_neediest_heap() {
        let mut m = mem();
        // Drain overflow below goal first.
        m.note_lock_sync_growth(60 * MIB); // overflow 40, lock 70
                                           // Now release 30 MB of lock memory: overflow 40->70 (< goal 100),
                                           // nothing for heaps yet.
        m.note_lock_shrink(30 * MIB);
        assert_eq!(m.lock_memory(), 40 * MIB);
        assert_eq!(m.overflow_free(), 70 * MIB);
        assert_eq!(m.heap(HeapKind::BufferPool).size, 700 * MIB);
        // Release 40 more: overflow reaches goal (100), surplus 10 goes
        // to the neediest heap (bufferpool, demand 800 vs 700).
        m.note_lock_shrink(40 * MIB);
        assert_eq!(m.overflow_free(), 100 * MIB);
        assert_eq!(m.heap(HeapKind::BufferPool).size, 710 * MIB);
        m.validate();
    }

    #[test]
    fn rebalance_restores_goal_and_clears_lmo() {
        let mut m = mem();
        m.note_lock_sync_growth(80 * MIB); // overflow 20
        m.rebalance_overflow();
        assert_eq!(m.overflow_free(), 100 * MIB, "goal restored from donors");
        assert_eq!(m.lock_from_overflow(), 0, "LMO folded into configuration");
        // Sort (least needy) paid first: it had 50 donatable above its
        // demand... all donors shrink by neediness order.
        assert!(m.heap(HeapKind::SortHeap).size < 150 * MIB);
        m.validate();
    }

    #[test]
    fn set_lock_memory_tracks_actual() {
        let mut m = mem();
        m.set_lock_memory(25 * MIB);
        assert_eq!(m.lock_memory(), 25 * MIB);
        m.validate();
    }

    #[test]
    fn refund() {
        let mut m = mem();
        let granted = m.fund_lock_growth(10 * MIB);
        assert_eq!(granted, 10 * MIB);
        m.refund_lock(3 * MIB);
        assert_eq!(m.lock_memory(), 17 * MIB);
        m.validate();
    }
}
