//! A thread-safe handle to one [`LockMemoryPool`] shared by many lock
//! managers.
//!
//! The concurrent service shards the lock table, but the paper's tuner
//! governs a **single** `LOCKLIST`: every shard allocates from the same
//! pool so grow/shrink decisions and the free-fraction band apply to
//! the database-wide lock memory, exactly as in DB2.
//!
//! Structure: the pool itself sits behind a [`std::sync::Mutex`]
//! (allocate/free/resize mutate intrusive block lists and must be
//! serialized), while the hot accounting — used slots, total slots,
//! blocks, bytes — is mirrored into atomics refreshed before the mutex
//! is released. Monitoring reads (`used_slots`, `free_fraction`, the
//! tuner's snapshot path) therefore never contend with allocation.
//! Mirror reads are `Acquire`/`Release`-ordered; a reader may observe a
//! value at most one in-flight operation stale, which is harmless for
//! tuning (the paper's tuner acts on interval-scale aggregates) and
//! exact at quiescence (what the accounting tests check).
//!
//! **Slot cache: one run and one buffer.** Taking the mutex on every
//! allocate/free would turn the pool into exactly the global
//! serialization point sharding is meant to remove. Each handle
//! (clone) therefore keeps, with no synchronisation at all:
//!
//! * a **run** — the free slots of one 64-slot bitmap word, claimed
//!   from the chain-head block in one pool trip. Allocation is a
//!   `trailing_zeros` and a bit clear; a free that falls in the run's
//!   word sets its bit back (a bit already set is a
//!   [`PoolError::DoubleFree`]);
//! * a **buffer** of other frees, kept as words too: a free that falls
//!   in the last buffered word sets its bit there (a bit already set is
//!   a `DoubleFree`), any other starts a new word. Once it holds 64
//!   slots it goes back to the pool in one trip, one release per word,
//!   so a commit that frees a block's slots in order returns them 64 at
//!   a time.
//!
//! The run is refilled when empty, returning the buffer first, or for a
//! pair when down to one slot (see `allocate_pair`). Refills and
//! whole-buffer returns are the only pool trips on the slot path. The
//! pool releases a word all or nothing; a word it refuses (a stale or
//! double free folded in with good ones) is released again slot by
//! slot, so only the bad handle is refused and no good slot leaks.
//!
//! The slots a handle parks are *allocated* as far as the pool is
//! concerned, so `used_slots()` reads as "charged by managers + parked
//! in caches". A run never holds its whole word (the free that would
//! complete it waits in the buffer instead) and the buffer is bounded
//! in slots, not words, and goes back once full, so a handle parks at
//! most 63 + 63 = 126 slots.
//! [`SharedLockMemoryPool::flush_cache`] returns both for exact
//! accounting; dropping a handle flushes automatically. A refill that
//! finds the pool dry has already returned its own buffer, and its own
//! run is empty, so `Exhausted` fires at most `(handles − 1) × 126`
//! slots early — under half a 2 048-slot block at the service's
//! default 8 shards, well inside the one-block granularity of the
//! manager's synchronous-growth response.
//!
//! The slot path — `allocate`, `allocate_pair`, `free` and the mirror
//! reads — is `#[inline]`, so it compiles into the lock manager that
//! calls it; a pool trip (`refill`, `refill_pair`, `return_buffer`) is
//! not.
#![warn(clippy::missing_inline_in_public_items)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use locktune_faults::{FaultInjector, FaultSite};

use crate::backend::PoolBackend;
use crate::block::SlotRun;
use crate::config::PoolConfig;
use crate::error::PoolError;
use crate::pool::LockMemoryPool;
use crate::stats::PoolStats;
use crate::SlotHandle;

/// Frees outside the run (slots, not words) that a handle collects
/// before returning them to the pool in one trip.
const BUFFER: usize = 64;

#[derive(Debug)]
struct SharedInner {
    pool: Mutex<LockMemoryPool>,
    config: PoolConfig,
    total_blocks: AtomicU64,
    total_bytes: AtomicU64,
    total_slots: AtomicU64,
    used_slots: AtomicU64,
    /// Fault injection for the [`FaultSite::AllocFail`] site. Inert
    /// (a constant-false check, folded away) unless the build enables
    /// the `faults` feature *and* the run arms an injector.
    faults: FaultInjector,
}

impl SharedInner {
    /// Run `f` with the pool locked, then refresh the atomic mirrors.
    fn with<R>(&self, f: impl FnOnce(&mut LockMemoryPool) -> R) -> R {
        let mut guard = self.pool.lock().unwrap_or_else(PoisonError::into_inner);
        let r = f(&mut guard);
        self.total_blocks
            .store(guard.total_blocks(), Ordering::Release);
        self.total_bytes
            .store(guard.total_bytes(), Ordering::Release);
        self.total_slots
            .store(guard.total_slots(), Ordering::Release);
        self.used_slots.store(guard.used_slots(), Ordering::Release);
        r
    }
}

/// Free every buffered word into `pool`, reporting the first handle it
/// refused (a caller's stale or double free; the pool is unchanged by
/// it). A refused word goes again one slot at a time, so its good
/// slots are still freed.
fn return_buffer(pool: &mut LockMemoryPool, buffer: &mut Vec<SlotRun>) -> Result<(), PoolError> {
    let mut first = Ok(());
    for mut run in buffer.drain(..) {
        if pool.free_run(run).is_err() {
            while run.bits != 0 {
                first = first.and(pool.free(run.take()));
            }
        }
    }
    first
}

/// Cloneable, thread-safe pool handle implementing [`PoolBackend`].
///
/// Each clone carries its own slot cache (see the module docs); it
/// starts empty and is flushed back on drop.
#[derive(Debug)]
pub struct SharedLockMemoryPool {
    inner: Arc<SharedInner>,
    /// The current run. It keeps naming its word after its last slot
    /// is handed out, so frees of those slots still land in it.
    run: SlotRun,
    /// Frees outside the run, one word each and in the order they
    /// began.
    buffer: Vec<SlotRun>,
    /// Slots in `buffer`, at most [`BUFFER`] − 1 between calls.
    buffered: usize,
}

impl Clone for SharedLockMemoryPool {
    #[inline(never)]
    fn clone(&self) -> Self {
        Self::handle(Arc::clone(&self.inner))
    }
}

impl Drop for SharedLockMemoryPool {
    #[inline(never)]
    fn drop(&mut self) {
        self.flush_cache();
    }
}

impl SharedLockMemoryPool {
    /// Wrap an owned pool.
    #[inline(never)]
    pub fn new(pool: LockMemoryPool) -> Self {
        Self::with_fault_injector(pool, FaultInjector::disabled())
    }

    /// Wrap an owned pool with a fault injector consulted on every
    /// allocation (the [`FaultSite::AllocFail`] site). All clones of
    /// the returned handle share the injector.
    #[inline(never)]
    pub fn with_fault_injector(pool: LockMemoryPool, faults: FaultInjector) -> Self {
        Self::handle(Arc::new(SharedInner {
            config: *pool.config(),
            total_blocks: AtomicU64::new(pool.total_blocks()),
            total_bytes: AtomicU64::new(pool.total_bytes()),
            total_slots: AtomicU64::new(pool.total_slots()),
            used_slots: AtomicU64::new(pool.used_slots()),
            faults,
            pool: Mutex::new(pool),
        }))
    }

    fn handle(inner: Arc<SharedInner>) -> Self {
        SharedLockMemoryPool {
            inner,
            run: SlotRun::EMPTY,
            buffer: Vec::with_capacity(BUFFER),
            buffered: 0,
        }
    }

    /// Create a shared pool of at least `bytes` (rounded up to blocks).
    #[inline(never)]
    pub fn with_bytes(config: PoolConfig, bytes: u64) -> Self {
        Self::new(LockMemoryPool::with_bytes(config, bytes))
    }

    /// Run `f` with the pool locked, then refresh the atomic mirrors.
    ///
    /// This is the only path that touches the pool; every [`PoolBackend`]
    /// method funnels through it.
    #[inline(never)]
    pub fn with<R>(&self, f: impl FnOnce(&mut LockMemoryPool) -> R) -> R {
        self.inner.with(f)
    }

    /// Slots currently parked in this handle's cache (run + buffer).
    #[inline]
    pub fn cached_slots(&self) -> usize {
        self.run.bits.count_ones() as usize + self.buffered
    }

    /// Return the run and the buffer to the pool (exact accounting;
    /// used before quiescence checks and by the tuning thread's
    /// snapshot). Handles the pool refuses are dropped, as on refill.
    #[inline(never)]
    pub fn flush_cache(&mut self) {
        let run = std::mem::replace(&mut self.run, SlotRun::EMPTY);
        if run.bits == 0 && self.buffer.is_empty() {
            return;
        }
        self.buffered = 0;
        let buffer = &mut self.buffer;
        self.inner.with(|p| {
            // This runs in `drop`, so it must not panic; only a caller's
            // stale or double free can make the pool refuse anything.
            if run.bits != 0 {
                let _ = p.free_run(run);
            }
            let _ = return_buffer(p, buffer);
        });
    }

    /// One pool trip: return the buffer, then claim a new run.
    fn refill(&mut self) -> Result<(), PoolError> {
        self.buffered = 0;
        let (run, buffer) = (&mut self.run, &mut self.buffer);
        self.inner.with(|p| {
            // A handle refused here was a caller's bad free, and the
            // allocation it rides along with is not the place to say so.
            let _ = return_buffer(p, buffer);
            *run = p.allocate_run()?;
            Ok(())
        })
    }

    /// One pool trip for a pair: words are claimed until one has two
    /// free, the stray slot and one-slot words met waiting in the buffer
    /// meanwhile; then the buffer goes back.
    fn refill_pair(&mut self) -> Result<(), PoolError> {
        self.buffered = 0;
        let (run, buffer) = (&mut self.run, &mut self.buffer);
        self.inner.with(|p| {
            let mut claimed = Ok(());
            while claimed.is_ok() && run.bits & run.bits.wrapping_sub(1) == 0 {
                let stray = std::mem::replace(run, SlotRun { bits: 0, ..*run });
                buffer.extend(Some(stray).filter(|stray| stray.bits != 0));
                claimed = p.allocate_run().map(|next| *run = next);
            }
            let _ = return_buffer(p, buffer);
            claimed
        })
    }
}

impl PoolBackend for SharedLockMemoryPool {
    #[inline]
    fn config(&self) -> PoolConfig {
        self.inner.config
    }

    #[inline]
    fn allocate(&mut self) -> Result<SlotHandle, PoolError> {
        // Injected OOM: surface `Exhausted` before any state changes,
        // exactly as a genuinely dry pool would. The caller's recovery
        // machinery (sync growth, escalation, shed mode) takes over.
        if self.inner.faults.should(FaultSite::AllocFail) {
            return Err(PoolError::Exhausted);
        }
        if self.run.bits == 0 {
            self.refill()?;
        }
        Ok(self.run.take())
    }

    /// Both slots come from the run's word; a run down to one slot is
    /// refilled first (see `refill_pair`).
    #[inline]
    fn allocate_pair(&mut self) -> Result<[SlotHandle; 2], PoolError> {
        if self.inner.faults.should(FaultSite::AllocFail) {
            return Err(PoolError::Exhausted);
        }
        if self.run.bits & self.run.bits.wrapping_sub(1) == 0 {
            self.refill_pair()?;
        }
        Ok([self.run.take(), self.run.take()])
    }

    #[inline]
    fn free(&mut self, handle: SlotHandle) -> Result<(), PoolError> {
        let run = &mut self.run;
        if let Some(bit) = run.bit_of(handle) {
            if run.bits & bit != 0 {
                return Err(PoolError::DoubleFree);
            }
            if run.bits | bit != u64::MAX {
                run.bits |= bit;
                return Ok(());
            }
        } else if run.bits != 0 && handle.block == run.block && handle.generation != run.generation
        {
            // The run's slots pin its block, so the block's generation
            // is the run's: this handle outlived a shrink.
            return Err(PoolError::StaleHandle);
        }
        let last = self.buffer.last_mut();
        match last.and_then(|last| Some((last.bit_of(handle)?, last))) {
            Some((bit, last)) if last.bits & bit != 0 => return Err(PoolError::DoubleFree),
            Some((bit, last)) => last.bits |= bit,
            None => self.buffer.push(SlotRun::of(handle)),
        }
        self.buffered += 1;
        if self.buffered < BUFFER {
            return Ok(());
        }
        self.buffered = 0;
        let buffer = &mut self.buffer;
        self.inner.with(|p| return_buffer(p, buffer))
    }

    #[inline(never)]
    fn grow_blocks(&mut self, n: u64) -> u64 {
        self.with(|p| p.grow_blocks(n))
    }

    #[inline(never)]
    fn resize_to_blocks(&mut self, target_blocks: u64) -> u64 {
        self.with(|p| p.resize_to_blocks(target_blocks))
    }

    #[inline]
    fn total_blocks(&self) -> u64 {
        self.inner.total_blocks.load(Ordering::Acquire)
    }

    #[inline]
    fn total_bytes(&self) -> u64 {
        self.inner.total_bytes.load(Ordering::Acquire)
    }

    #[inline]
    fn total_slots(&self) -> u64 {
        self.inner.total_slots.load(Ordering::Acquire)
    }

    #[inline]
    fn used_slots(&self) -> u64 {
        self.inner.used_slots.load(Ordering::Acquire)
    }

    #[inline]
    fn free_slots(&self) -> u64 {
        self.total_slots().saturating_sub(self.used_slots())
    }

    #[inline]
    fn used_bytes(&self) -> u64 {
        self.used_slots() * self.inner.config.lock_struct_bytes
    }

    #[inline]
    fn free_fraction(&self) -> f64 {
        let total = self.total_slots();
        if total == 0 {
            0.0
        } else {
            self.free_slots() as f64 / total as f64
        }
    }

    #[inline(never)]
    fn stats(&self) -> PoolStats {
        self.with(|p| p.stats())
    }

    #[inline(never)]
    fn validate(&self) {
        self.with(|p| p.validate())
    }

    #[inline]
    fn is_shared(&self) -> bool {
        true
    }

    #[inline]
    fn flush_cache(&mut self) {
        SharedLockMemoryPool::flush_cache(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn mirrors_track_the_pool() {
        let mut shared = SharedLockMemoryPool::with_bytes(PoolConfig::default(), 128 * 1024);
        assert_eq!(shared.total_blocks(), 1);
        assert_eq!(shared.total_slots(), 2048);
        let h = shared.allocate().unwrap();
        // The handle claimed one word: one slot handed out, the other
        // 63 parked in its run but globally "used".
        assert_eq!(shared.used_slots(), 64);
        assert_eq!(shared.cached_slots(), 63);
        shared.free(h).unwrap();
        shared.flush_cache();
        assert_eq!(shared.used_slots(), 0);
        assert_eq!(shared.cached_slots(), 0);
        shared.grow_blocks(3);
        assert_eq!(shared.total_blocks(), 4);
        assert_eq!(shared.total_bytes(), 4 * 128 * 1024);
        shared.resize_to_blocks(2);
        assert_eq!(shared.total_blocks(), 2);
        assert!(shared.is_shared());
    }

    #[test]
    fn clones_see_one_pool() {
        let shared = SharedLockMemoryPool::with_bytes(PoolConfig::default(), 128 * 1024);
        let mut a = shared.clone();
        let mut b = shared.clone();
        let ha = a.allocate().unwrap();
        let hb = b.allocate().unwrap();
        // Two runs on two words of one block.
        assert_eq!(shared.used_slots(), 128);
        assert_ne!(ha, hb);
        a.free(ha).unwrap();
        b.free(hb).unwrap();
        drop(a); // drop flushes the cache
        drop(b);
        assert_eq!(shared.used_slots(), 0);
    }

    #[test]
    fn cache_spills_and_survives_exhaustion() {
        let mut shared = SharedLockMemoryPool::with_bytes(PoolConfig::default(), 128 * 1024);
        let handles: Vec<_> = (0..1000).map(|_| shared.allocate().unwrap()).collect();
        for h in handles {
            shared.free(h).unwrap();
            assert!(shared.cached_slots() <= 126);
        }
        // Alloc/free pairs on a fresh run never complete its word.
        shared.flush_cache();
        for _ in 0..100 {
            let h = shared.allocate().unwrap();
            shared.free(h).unwrap();
            assert!(shared.run.bits.count_ones() <= 63);
        }
        shared.flush_cache();
        assert_eq!(shared.used_slots(), 0);

        // Exhaustion still surfaces: drain the whole pool through the
        // cache, then one more must fail.
        let all: Vec<_> = (0..2048).map(|_| shared.allocate().unwrap()).collect();
        assert!(matches!(shared.allocate(), Err(PoolError::Exhausted)));
        for h in all {
            shared.free(h).unwrap();
        }
        shared.flush_cache();
        assert_eq!(shared.used_slots(), 0);
        shared.validate();
    }

    #[test]
    fn buffered_frees_coalesce_by_word() {
        let mut shared = SharedLockMemoryPool::with_bytes(PoolConfig::default(), 128 * 1024);
        let handles: Vec<_> = (0..192).map(|_| shared.allocate().unwrap()).collect();
        // The run names word 2 now; frees in words 0 and 1 are buffered.
        for &h in &handles[..63] {
            shared.free(h).unwrap();
        }
        assert_eq!((shared.buffer.len(), shared.cached_slots()), (1, 63));
        assert_eq!(shared.free(handles[5]), Err(PoolError::DoubleFree));
        // A second word; its first slot is the 64th buffered, and both
        // words go back in one trip.
        shared.free(handles[64]).unwrap();
        assert_eq!((shared.buffer.len(), shared.cached_slots()), (0, 0));
        assert_eq!(shared.used_slots(), 192 - 64);
        for &h in handles[63..64].iter().chain(&handles[65..]) {
            shared.free(h).unwrap();
        }
        shared.flush_cache();
        assert_eq!(shared.used_slots(), 0);
        shared.validate();
    }

    #[test]
    fn dry_pool_returns_the_own_buffer_first() {
        let mut shared = SharedLockMemoryPool::with_bytes(PoolConfig::default(), 128 * 1024);
        let mut all: Vec<_> = (0..2048).map(|_| shared.allocate().unwrap()).collect();
        // Frees outside the current run wait in the buffer, so the pool
        // itself is dry; the refill returns them before it may say
        // `Exhausted`.
        for h in all.drain(..10) {
            shared.free(h).unwrap();
        }
        assert_eq!((shared.free_slots(), shared.cached_slots()), (0, 10));
        let again: Vec<_> = (0..10).map(|_| shared.allocate().unwrap()).collect();
        assert!(matches!(shared.allocate(), Err(PoolError::Exhausted)));
        assert_eq!(shared.stats().counters.exhaustions, 1);
        for h in all.into_iter().chain(again) {
            shared.free(h).unwrap();
        }
        shared.flush_cache();
        assert_eq!(shared.used_slots(), 0);
        shared.validate();
    }

    /// A pair comes from one word: a run down to one slot gives it to the
    /// pool, and so does a word with one free slot that a refill meets.
    #[test]
    fn pairs_come_from_one_word() {
        let mut shared = SharedLockMemoryPool::with_bytes(PoolConfig::default(), 128 * 1024);
        let word = |h: SlotHandle| (h.block, h.slot / 64);
        let [a, b] = shared.allocate_pair().unwrap();
        assert_eq!((word(a), word(b)), ((0, 0), (0, 0)));
        let singles: Vec<_> = (0..61).map(|_| shared.allocate().unwrap()).collect();
        assert_eq!(shared.cached_slots(), 1);
        let [c, d] = shared.allocate_pair().unwrap();
        assert_eq!((word(c), word(d)), ((0, 1), (0, 1)));
        // Word 0's last slot went back: 63 handed out there, 64 claimed
        // in word 1.
        assert_eq!((shared.used_slots(), shared.cached_slots()), (127, 62));

        // Another handle meets word 0 with that one slot free, passes it
        // over, and takes its pair from word 2.
        let mut other = shared.clone();
        let [e, f] = other.allocate_pair().unwrap();
        assert_eq!((word(e), word(f)), ((0, 2), (0, 2)));
        let g = other.allocate().unwrap();
        assert_eq!(word(g), (0, 2));
        assert_eq!(shared.used_slots(), 127 + 64);
        drop(other);
        for h in [a, b, c, d, e, f, g].into_iter().chain(singles) {
            shared.free(h).unwrap();
        }
        shared.flush_cache();
        assert_eq!(shared.used_slots(), 0);
        shared.validate();
    }

    /// A pool with one free slot left gives no pair and loses nothing.
    #[test]
    fn a_dry_pair_takes_nothing() {
        let mut shared = SharedLockMemoryPool::with_bytes(PoolConfig::default(), 128 * 1024);
        let all: Vec<_> = (0..2047).map(|_| shared.allocate().unwrap()).collect();
        assert_eq!(shared.allocate_pair(), Err(PoolError::Exhausted));
        assert_eq!((shared.used_slots(), shared.cached_slots()), (2047, 0));
        let last = shared.allocate().unwrap();
        for h in all.into_iter().chain([last]) {
            shared.free(h).unwrap();
        }
        shared.flush_cache();
        assert_eq!(shared.used_slots(), 0);
        shared.validate();
    }

    #[cfg(feature = "faults")]
    #[test]
    fn injected_alloc_faults_surface_as_exhausted() {
        use locktune_faults::FaultPlan;
        // Burst: the first 2 of every 4 checks inject. The pool has
        // plenty of memory, so every Exhausted below is injected.
        let inj = FaultPlan::new(1).burst(FaultSite::AllocFail, 4, 2).build();
        let mut shared = SharedLockMemoryPool::with_fault_injector(
            LockMemoryPool::with_bytes(PoolConfig::default(), 128 * 1024),
            inj.clone(),
        );
        assert!(matches!(shared.allocate(), Err(PoolError::Exhausted)));
        assert!(matches!(shared.allocate(), Err(PoolError::Exhausted)));
        let a = shared.allocate().expect("check 2 of 4 passes");
        let b = shared.allocate().expect("check 3 of 4 passes");
        assert_eq!(inj.injected(FaultSite::AllocFail), 2);
        // A pair is one check, and an injected failure takes nothing.
        assert!(matches!(shared.allocate_pair(), Err(PoolError::Exhausted)));
        assert!(matches!(shared.allocate_pair(), Err(PoolError::Exhausted)));
        let [c, d] = shared.allocate_pair().expect("check 2 of 4 passes");
        assert_eq!(inj.injected(FaultSite::AllocFail), 4);
        // Accounting is untouched by injected failures.
        for h in [a, b, c, d] {
            shared.free(h).unwrap();
        }
        shared.flush_cache();
        assert_eq!(shared.used_slots(), 0);
        shared.validate();
    }

    #[test]
    fn concurrent_allocate_free_is_exact_at_quiescence() {
        let shared = SharedLockMemoryPool::with_bytes(PoolConfig::default(), 4 * 128 * 1024);
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let mut pool = shared.clone();
                thread::spawn(move || {
                    for _ in 0..500 {
                        let h = pool.allocate().expect("pool sized for all threads");
                        pool.free(h).expect("own handle");
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(shared.used_slots(), 0);
        shared.validate();
    }
}
