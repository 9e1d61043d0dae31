//! The lock memory pool: a slab of blocks threaded onto two intrusive
//! lists (available chain + full list) exactly as described in §2.2.

use crate::block::{Block, ListId, SlotHandle, SlotRun, NIL};
use crate::config::PoolConfig;
use crate::error::{PoolError, ShrinkError};
use crate::stats::{PoolCounters, PoolStats};

/// Head/tail/len of one intrusive list.
#[derive(Debug, Default, Clone, Copy)]
struct List {
    head: u32,
    tail: u32,
    len: u64,
}

impl List {
    fn new() -> Self {
        List {
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }
}

/// The DB2 lock memory pool.
///
/// All sizes are multiples of [`PoolConfig::block_bytes`]; the
/// self-tuning layer converts byte goals to whole blocks before calling
/// in here.
#[derive(Debug)]
pub struct LockMemoryPool {
    config: PoolConfig,
    /// Slab of blocks; entries listed in `vacant` are recycled ids.
    blocks: Vec<Block>,
    vacant: Vec<u32>,
    /// Blocks with at least one free slot ("the lock structure chain").
    avail: List,
    /// Blocks with no free slots.
    full: List,
    /// Allocated lock structures across all blocks.
    used_slots: u64,
    /// Live (non-vacant) block count.
    live_blocks: u64,
    /// Blocks with zero allocated slots, maintained incrementally
    /// (`freeable_blocks` sits on the per-request statistics path).
    fully_free: u64,
    counters: PoolCounters,
}

impl LockMemoryPool {
    /// Create an empty pool.
    pub fn new(config: PoolConfig) -> Self {
        LockMemoryPool {
            config,
            blocks: Vec::new(),
            vacant: Vec::new(),
            avail: List::new(),
            full: List::new(),
            used_slots: 0,
            live_blocks: 0,
            fully_free: 0,
            counters: PoolCounters::default(),
        }
    }

    /// Create a pool sized to hold at least `bytes` of lock memory
    /// (rounded up to whole blocks).
    pub fn with_bytes(config: PoolConfig, bytes: u64) -> Self {
        let mut pool = Self::new(config);
        pool.grow_blocks(config.blocks_for_bytes(bytes));
        pool
    }

    /// Pool geometry.
    pub fn config(&self) -> &PoolConfig {
        &self.config
    }

    // ------------------------------------------------------------------
    // Intrusive list plumbing.
    // ------------------------------------------------------------------

    fn list_mut(&mut self, id: ListId) -> &mut List {
        match id {
            ListId::Available => &mut self.avail,
            ListId::Full => &mut self.full,
            ListId::Detached => unreachable!("detached blocks are not on a list"),
        }
    }

    fn unlink(&mut self, block_id: u32) {
        let (prev, next, list) = {
            let b = &self.blocks[block_id as usize];
            (b.prev, b.next, b.list)
        };
        if prev != NIL {
            self.blocks[prev as usize].next = next;
        }
        if next != NIL {
            self.blocks[next as usize].prev = prev;
        }
        let l = self.list_mut(list);
        if l.head == block_id {
            l.head = next;
        }
        if l.tail == block_id {
            l.tail = prev;
        }
        l.len -= 1;
        let b = &mut self.blocks[block_id as usize];
        b.prev = NIL;
        b.next = NIL;
        b.list = ListId::Detached;
    }

    fn push_head(&mut self, list: ListId, block_id: u32) {
        let old_head = { *self.list_mut(list) }.head;
        {
            let b = &mut self.blocks[block_id as usize];
            debug_assert_eq!(b.list, ListId::Detached);
            b.prev = NIL;
            b.next = old_head;
            b.list = list;
        }
        if old_head != NIL {
            self.blocks[old_head as usize].prev = block_id;
        }
        let l = self.list_mut(list);
        l.head = block_id;
        if l.tail == NIL {
            l.tail = block_id;
        }
        l.len += 1;
    }

    fn push_tail(&mut self, list: ListId, block_id: u32) {
        let old_tail = { *self.list_mut(list) }.tail;
        {
            let b = &mut self.blocks[block_id as usize];
            debug_assert_eq!(b.list, ListId::Detached);
            b.next = NIL;
            b.prev = old_tail;
            b.list = list;
        }
        if old_tail != NIL {
            self.blocks[old_tail as usize].next = block_id;
        }
        let l = self.list_mut(list);
        l.tail = block_id;
        if l.head == NIL {
            l.head = block_id;
        }
        l.len += 1;
    }

    // ------------------------------------------------------------------
    // Allocation.
    // ------------------------------------------------------------------

    /// Allocate one lock structure from the head of the chain: the
    /// lowest free slot of the head block.
    ///
    /// Fails with [`PoolError::Exhausted`] when every block is full; the
    /// caller then either grows the pool synchronously from overflow
    /// memory or escalates locks.
    pub fn allocate(&mut self) -> Result<SlotHandle, PoolError> {
        self.claim(false).map(|mut run| run.take())
    }

    /// Allocate every free slot of the lowest non-full bitmap word of
    /// the head block, with the same list moves as [`Self::allocate`].
    pub(crate) fn allocate_run(&mut self) -> Result<SlotRun, PoolError> {
        self.claim(true)
    }

    fn claim(&mut self, whole_word: bool) -> Result<SlotRun, PoolError> {
        let block_id = self.avail.head;
        if block_id == NIL {
            self.counters.exhaustions += 1;
            return Err(PoolError::Exhausted);
        }
        let b = &mut self.blocks[block_id as usize];
        let before = b.used();
        let (word, bits) = b.claim(whole_word);
        let (generation, now_full) = (b.generation, b.is_full());
        if before == 0 {
            self.fully_free -= 1;
        }
        let n = u64::from(b.used() - before);
        self.used_slots += n;
        self.counters.allocations += n;
        if now_full {
            // Exhausted block leaves the chain head; the next block
            // becomes the new head (paper §2.2).
            self.unlink(block_id);
            self.push_head(ListId::Full, block_id);
        }
        Ok(SlotRun {
            block: block_id,
            generation,
            word,
            bits,
        })
    }

    /// Return one lock structure to its block.
    ///
    /// If the block was full it rejoins the chain **at the head**, so
    /// the very next allocation reuses it (paper §2.2).
    pub fn free(&mut self, handle: SlotHandle) -> Result<(), PoolError> {
        self.free_run(SlotRun::of(handle))
    }

    /// Return every slot of `run` at once, with the same checks and list
    /// moves as [`Self::free`]; a stale or partly free run changes
    /// nothing. `run.bits` must be non-zero.
    pub(crate) fn free_run(&mut self, run: SlotRun) -> Result<(), PoolError> {
        let b = match self.blocks.get_mut(run.block as usize) {
            Some(b) if b.list != ListId::Detached && b.generation == run.generation => b,
            _ => return Err(PoolError::StaleHandle),
        };
        let (was_full, before) = (b.is_full(), b.used());
        b.release(run.word, run.bits)?;
        if b.is_fully_free() {
            self.fully_free += 1;
        }
        let n = u64::from(before - b.used());
        self.used_slots -= n;
        self.counters.frees += n;
        if was_full {
            self.unlink(run.block);
            self.push_head(ListId::Available, run.block);
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Resizing.
    // ------------------------------------------------------------------

    /// Append `n` fresh blocks to the tail of the chain. Returns the
    /// number of blocks added (always `n`).
    pub fn grow_blocks(&mut self, n: u64) -> u64 {
        for _ in 0..n {
            let capacity = self.config.slots_per_block();
            let id = match self.vacant.pop() {
                Some(id) => {
                    let generation = self.blocks[id as usize].generation.checked_add(1);
                    let generation = generation.unwrap_or(std::num::NonZeroU32::MIN);
                    self.blocks[id as usize] = Block::new(capacity, generation);
                    id
                }
                None => {
                    assert!(self.blocks.len() < NIL as usize, "pool block limit reached");
                    self.blocks
                        .push(Block::new(capacity, std::num::NonZeroU32::MIN));
                    (self.blocks.len() - 1) as u32
                }
            };
            self.push_tail(ListId::Available, id);
            self.live_blocks += 1;
            self.fully_free += 1;
        }
        if n > 0 {
            self.counters.grows += 1;
            self.counters.blocks_added += n;
        }
        n
    }

    /// Release `n` blocks, scanning from the **tail** of the chain for
    /// fully-free blocks.
    ///
    /// All-or-nothing: if fewer than `n` fully-free blocks exist the
    /// call fails and the pool is untouched (paper §2.2: candidates are
    /// "reintegrated into the list and the request fails").
    pub fn try_shrink_blocks(&mut self, n: u64) -> Result<(), ShrinkError> {
        if n == 0 {
            return Ok(());
        }
        // Fast path: not enough fully-free blocks anywhere.
        if self.fully_free < n {
            self.counters.failed_shrinks += 1;
            return Err(ShrinkError {
                requested_blocks: n,
                freeable_blocks: self.fully_free,
            });
        }
        // Phase 1: collect candidates from the tail without mutating.
        let mut candidates = Vec::new();
        let mut cursor = self.avail.tail;
        while cursor != NIL && (candidates.len() as u64) < n {
            let b = &self.blocks[cursor as usize];
            if b.is_fully_free() {
                candidates.push(cursor);
            }
            cursor = b.prev;
        }
        if (candidates.len() as u64) < n {
            self.counters.failed_shrinks += 1;
            return Err(ShrinkError {
                requested_blocks: n,
                freeable_blocks: candidates.len() as u64,
            });
        }
        // Phase 2: commit.
        for id in candidates {
            self.unlink(id);
            // Drop slot bookkeeping; keep generation for staleness checks.
            self.blocks[id as usize].allocated = Vec::new();
            self.vacant.push(id);
            self.live_blocks -= 1;
            self.fully_free -= 1;
        }
        self.counters.shrinks += 1;
        self.counters.blocks_removed += n;
        Ok(())
    }

    /// Fully-free blocks (the maximum a shrink could release right
    /// now). O(1): maintained incrementally because `stats()` is read
    /// on every lock request.
    pub fn freeable_blocks(&self) -> u64 {
        self.fully_free
    }

    /// Resize towards `target_blocks`: grows unconditionally, shrinks
    /// best-effort (a failed shrink frees whatever prefix is possible —
    /// zero blocks — and reports the actual size).
    ///
    /// Returns the live block count after the attempt.
    pub fn resize_to_blocks(&mut self, target_blocks: u64) -> u64 {
        let current = self.live_blocks;
        if target_blocks > current {
            self.grow_blocks(target_blocks - current);
        } else if target_blocks < current {
            let want = current - target_blocks;
            if self.try_shrink_blocks(want).is_err() {
                // Partial shrink: release as many as are actually free.
                let possible = self.freeable_blocks().min(want);
                if possible > 0 {
                    self.try_shrink_blocks(possible)
                        .expect("freeable_blocks said these are releasable");
                }
            }
        }
        self.live_blocks
    }

    // ------------------------------------------------------------------
    // Introspection.
    // ------------------------------------------------------------------

    /// Live blocks.
    pub fn total_blocks(&self) -> u64 {
        self.live_blocks
    }

    /// Bytes of lock memory currently allocated to the pool.
    pub fn total_bytes(&self) -> u64 {
        self.live_blocks * self.config.block_bytes
    }

    /// Total lock structure slots.
    pub fn total_slots(&self) -> u64 {
        self.live_blocks * self.config.slots_per_block() as u64
    }

    /// Allocated lock structures.
    pub fn used_slots(&self) -> u64 {
        self.used_slots
    }

    /// Free lock structures.
    pub fn free_slots(&self) -> u64 {
        self.total_slots() - self.used_slots
    }

    /// Bytes consumed by allocated lock structures.
    pub fn used_bytes(&self) -> u64 {
        self.used_slots * self.config.lock_struct_bytes
    }

    /// Fraction of slots currently free, in `[0, 1]`. An empty pool
    /// reports 0 free (it has nothing to offer).
    pub fn free_fraction(&self) -> f64 {
        let total = self.total_slots();
        if total == 0 {
            0.0
        } else {
            self.free_slots() as f64 / total as f64
        }
    }

    /// Snapshot of sizes and counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            blocks: self.live_blocks,
            bytes: self.total_bytes(),
            slots_total: self.total_slots(),
            slots_used: self.used_slots,
            slots_free: self.free_slots(),
            fully_free_blocks: self.freeable_blocks(),
            counters: self.counters,
        }
    }

    /// Exhaustive invariant check, used by tests and proptest harnesses.
    ///
    /// # Panics
    /// Panics on any broken invariant.
    pub fn validate(&self) {
        let mut seen_avail = 0u64;
        let mut used_total = 0u64;
        // Walk the available chain forwards, checking linkage.
        let mut cursor = self.avail.head;
        let mut prev = NIL;
        let mut fully_free_scan = 0u64;
        while cursor != NIL {
            let b = &self.blocks[cursor as usize];
            assert_eq!(b.list, ListId::Available);
            assert_eq!(b.prev, prev);
            assert!(!b.is_full(), "full block on available chain");
            assert_eq!(
                b.capacity(),
                self.config.slots_per_block(),
                "block capacity drifted"
            );
            assert_eq!(b.used(), b.used_recount(), "cached used count drifted");
            if b.is_fully_free() {
                fully_free_scan += 1;
            }
            used_total += b.used() as u64;
            seen_avail += 1;
            prev = cursor;
            cursor = b.next;
        }
        assert_eq!(prev, self.avail.tail);
        assert_eq!(seen_avail, self.avail.len);

        let mut seen_full = 0u64;
        let mut cursor = self.full.head;
        let mut prev = NIL;
        while cursor != NIL {
            let b = &self.blocks[cursor as usize];
            assert_eq!(b.list, ListId::Full);
            assert_eq!(b.prev, prev);
            assert!(b.is_full(), "non-full block on full list");
            used_total += b.used() as u64;
            seen_full += 1;
            prev = cursor;
            cursor = b.next;
        }
        assert_eq!(prev, self.full.tail);
        assert_eq!(seen_full, self.full.len);

        assert_eq!(seen_avail + seen_full, self.live_blocks);
        assert_eq!(used_total, self.used_slots);
        assert_eq!(
            fully_free_scan, self.fully_free,
            "fully-free counter drifted"
        );
        assert_eq!(
            self.vacant.len() + self.live_blocks as usize,
            self.blocks.len(),
            "every slab entry is live or vacant"
        );
    }
}

#[cfg(test)]
mod tests {
    use std::num::NonZeroU32;

    use super::*;

    fn small_pool(blocks: u64) -> LockMemoryPool {
        // 4 slots per block for easy full/free transitions.
        let cfg = PoolConfig::new(256, 64);
        let mut p = LockMemoryPool::new(cfg);
        p.grow_blocks(blocks);
        p
    }

    #[test]
    fn allocates_from_head_block_first() {
        let mut p = small_pool(3);
        let handles: Vec<_> = (0..4).map(|_| p.allocate().unwrap()).collect();
        // All four from block 0 (the head).
        assert!(handles.iter().all(|h| h.block == 0));
        // Block 0 now full; next allocation comes from block 1.
        let h = p.allocate().unwrap();
        assert_eq!(h.block, 1);
        p.validate();
    }

    #[test]
    fn freed_full_block_returns_to_head() {
        let mut p = small_pool(2);
        let block0: Vec<_> = (0..4).map(|_| p.allocate().unwrap()).collect();
        let _in_block1 = p.allocate().unwrap();
        // Free one slot of the (full) block 0: it must rejoin at the head.
        p.free(block0[0]).unwrap();
        let h = p.allocate().unwrap();
        assert_eq!(h.block, 0, "reopened block is preferred");
        p.validate();
    }

    #[test]
    fn runs_take_a_whole_word_with_the_same_list_moves() {
        let mut p = small_pool(2);
        let h = p.allocate().unwrap();
        let run = p.allocate_run().unwrap();
        // The rest of block 0's only word; block 0 is now full.
        assert_eq!((run.block, run.word, run.bits), (0, 0, 0b1110));
        assert_eq!((p.used_slots(), p.stats().counters.allocations), (4, 4));
        assert_eq!(p.allocate_run().unwrap().block, 1);
        // Returning the run reopens block 0 at the head of the chain.
        p.free_run(run).unwrap();
        assert_eq!(p.free_run(run), Err(PoolError::DoubleFree));
        assert_eq!(p.allocate().unwrap().block, 0);
        p.free(h).unwrap();
        assert_eq!(p.used_slots(), 5);
        p.validate();
    }

    #[test]
    fn half_demand_leaves_tail_blocks_entirely_free() {
        // Paper §2.2: if locking needs only half the memory, blocks at
        // the end of the list stay fully free.
        let mut p = small_pool(4);
        let _held: Vec<_> = (0..8).map(|_| p.allocate().unwrap()).collect();
        assert_eq!(p.freeable_blocks(), 2);
        assert_eq!(p.stats().fully_free_blocks, 2);
        p.validate();
    }

    #[test]
    fn exhaustion_reported() {
        let mut p = small_pool(1);
        for _ in 0..4 {
            p.allocate().unwrap();
        }
        assert_eq!(p.allocate(), Err(PoolError::Exhausted));
        assert_eq!(p.stats().counters.exhaustions, 1);
    }

    #[test]
    fn grow_extends_tail() {
        let mut p = small_pool(1);
        for _ in 0..4 {
            p.allocate().unwrap();
        }
        assert_eq!(p.grow_blocks(2), 2);
        assert_eq!(p.total_blocks(), 3);
        let h = p.allocate().unwrap();
        assert_eq!(h.block, 1, "new blocks appended after existing ones");
        p.validate();
    }

    #[test]
    fn shrink_all_or_nothing() {
        let mut p = small_pool(4);
        let _held: Vec<_> = (0..8).map(|_| p.allocate().unwrap()).collect();
        // Two blocks are fully free; asking for three must fail and change nothing.
        let err = p.try_shrink_blocks(3).unwrap_err();
        assert_eq!(err.requested_blocks, 3);
        assert_eq!(err.freeable_blocks, 2);
        assert_eq!(p.total_blocks(), 4);
        p.validate();
        // Asking for two succeeds.
        p.try_shrink_blocks(2).unwrap();
        assert_eq!(p.total_blocks(), 2);
        assert_eq!(p.free_slots(), 0);
        p.validate();
    }

    #[test]
    fn shrink_zero_is_noop() {
        let mut p = small_pool(2);
        p.try_shrink_blocks(0).unwrap();
        assert_eq!(p.total_blocks(), 2);
    }

    #[test]
    fn resize_to_blocks_grows_and_shrinks() {
        let mut p = small_pool(2);
        assert_eq!(p.resize_to_blocks(5), 5);
        assert_eq!(p.resize_to_blocks(1), 1);
        p.validate();
    }

    #[test]
    fn resize_shrink_is_best_effort_under_pinned_blocks() {
        let mut p = small_pool(4);
        // Pin one slot in block 0 and one in block 2.
        let h0 = p.allocate().unwrap();
        for _ in 0..3 {
            p.allocate().unwrap();
        }
        for _ in 0..4 {
            p.allocate().unwrap(); // fills block 1
        }
        let h2 = p.allocate().unwrap();
        assert_eq!(h2.block, 2);
        // Target 0 blocks: only block 3 is fully free.
        assert_eq!(p.resize_to_blocks(0), 3);
        assert_eq!(p.total_blocks(), 3);
        p.free(h0).unwrap();
        p.validate();
    }

    #[test]
    fn stale_handle_after_shrink_is_rejected() {
        let mut p = small_pool(2);
        let h = p.allocate().unwrap();
        p.free(h).unwrap();
        // Both blocks fully free; shrink both, then grow again (recycles ids).
        p.try_shrink_blocks(2).unwrap();
        p.grow_blocks(2);
        assert_eq!(p.free(h), Err(PoolError::StaleHandle));
        p.validate();
    }

    /// A recycled block id past `u32::MAX` generations starts over at 1,
    /// not 0, and a handle from the incarnation before the wrap is still
    /// stale.
    #[test]
    fn generation_wraps_to_one_and_keeps_old_handles_stale() {
        let mut p = small_pool(1);
        p.blocks[0].generation = NonZeroU32::MAX;
        let h = p.allocate().unwrap();
        p.free(h).unwrap();
        p.try_shrink_blocks(1).unwrap();
        p.grow_blocks(1);
        assert_eq!(p.blocks[0].generation, NonZeroU32::MIN);
        assert_eq!(p.free(h), Err(PoolError::StaleHandle));
        let fresh = p.allocate().unwrap();
        assert_eq!(fresh.generation, NonZeroU32::MIN);
        p.free(fresh).unwrap();
        p.validate();
    }

    #[test]
    fn an_absent_handle_costs_no_space() {
        assert_eq!(std::mem::size_of::<SlotHandle>(), 12);
        assert_eq!(std::mem::size_of::<Option<SlotHandle>>(), 12);
        assert_eq!(std::mem::size_of::<crate::SlotPair>(), 12);
        assert_eq!(std::mem::size_of::<Option<crate::SlotPair>>(), 12);
    }

    #[test]
    fn double_free_is_rejected() {
        let mut p = small_pool(1);
        let h = p.allocate().unwrap();
        p.free(h).unwrap();
        assert_eq!(p.free(h), Err(PoolError::DoubleFree));
    }

    #[test]
    fn free_of_garbage_handle_is_rejected() {
        let mut p = small_pool(1);
        let bogus = SlotHandle {
            block: 42,
            generation: NonZeroU32::MIN,
            slot: 0,
        };
        assert_eq!(p.free(bogus), Err(PoolError::StaleHandle));
    }

    #[test]
    fn byte_accounting_matches_paper_geometry() {
        let mut p = LockMemoryPool::with_bytes(PoolConfig::default(), 400 * 1024);
        // 0.4 MB rounds to 4 blocks = 512 KiB, 8192 lock structures.
        assert_eq!(p.total_blocks(), 4);
        assert_eq!(p.total_bytes(), 4 * 131_072);
        assert_eq!(p.total_slots(), 4 * 2048);
        let h = p.allocate().unwrap();
        assert_eq!(p.used_bytes(), 64);
        p.free(h).unwrap();
        assert_eq!(p.used_bytes(), 0);
    }

    #[test]
    fn free_fraction_bounds() {
        let mut p = small_pool(2);
        assert_eq!(p.free_fraction(), 1.0);
        for _ in 0..8 {
            p.allocate().unwrap();
        }
        assert_eq!(p.free_fraction(), 0.0);
        let empty = LockMemoryPool::new(PoolConfig::default());
        assert_eq!(empty.free_fraction(), 0.0);
    }

    #[test]
    fn counters_accumulate() {
        let mut p = small_pool(1);
        let h = p.allocate().unwrap();
        p.free(h).unwrap();
        p.grow_blocks(1);
        p.try_shrink_blocks(1).unwrap();
        let c = p.stats().counters;
        assert_eq!(c.allocations, 1);
        assert_eq!(c.frees, 1);
        assert!(c.grows >= 2); // initial grow + explicit grow
        assert_eq!(c.shrinks, 1);
    }

    #[test]
    fn interleaved_stress_with_validation() {
        let mut p = small_pool(8);
        let mut held = Vec::new();
        // Deterministic pseudo-random interleaving without an RNG dep.
        let mut x: u64 = 0x1234_5678;
        for i in 0..10_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if !(x >> 33).is_multiple_of(3) || held.is_empty() {
                match p.allocate() {
                    Ok(h) => held.push(h),
                    Err(PoolError::Exhausted) => {
                        p.grow_blocks(1);
                        held.push(p.allocate().unwrap());
                    }
                    Err(e) => panic!("unexpected {e}"),
                }
            } else {
                let idx = ((x >> 17) as usize) % held.len();
                let h = held.swap_remove(idx);
                p.free(h).unwrap();
            }
            if i % 1000 == 0 {
                p.validate();
            }
        }
        p.validate();
        assert_eq!(p.used_slots(), held.len() as u64);
    }
}
