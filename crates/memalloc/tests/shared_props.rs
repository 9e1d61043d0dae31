//! Property-based tests for the shared pool's per-handle slot cache.
//!
//! Several handles of one pool allocate, free, flush, grow and resize
//! in arbitrary order; after every step the slots they hold and park
//! must add up to exactly what the pool counts as used, the parked
//! slack must stay within its bound, and `Exhausted` must mean the pool
//! itself is dry.

use std::collections::HashSet;

use locktune_memalloc::{
    PoolBackend, PoolConfig, PoolError, SharedLockMemoryPool, SlotHandle, SlotPair,
};
use locktune_sim::check::{self as proptest, prelude::*};

/// Slots one handle may park: 63 in its run, 63 in its buffer.
const SLACK_PER_HANDLE: usize = 126;

#[derive(Debug, Clone)]
enum Op {
    Alloc(usize),
    /// Handle `.0` takes a pair, falling back to two single slots when
    /// the pool has no word with two free, as the lock manager does.
    AllocPair(usize),
    /// Handle `.0` frees the `.1`-th slot it holds (mod its holdings).
    Free(usize, usize),
    /// Handle `.0` frees every slot it holds, in the order it got them
    /// (a commit: its frees coalesce into buffered words).
    FreeAll(usize),
    Flush(usize),
    Grow(u64),
    Resize(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0usize..4).prop_map(Op::Alloc),
        2 => (0usize..4).prop_map(Op::AllocPair),
        5 => (0usize..4, 0usize..256).prop_map(|(h, i)| Op::Free(h, i)),
        1 => (0usize..4).prop_map(Op::FreeAll),
        1 => (0usize..4).prop_map(Op::Flush),
        1 => (1u64..3).prop_map(Op::Grow),
        1 => (0u64..6).prop_map(Op::Resize),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn cached_slots_account_exactly(
        n in 2usize..5,
        slots_per_block in prop_oneof![Just(8u64), Just(100u64)],
        ops in proptest::collection::vec(op_strategy(), 1..400),
    ) {
        let config = PoolConfig::new(slots_per_block * 64, 64);
        let first = SharedLockMemoryPool::with_bytes(config, 2 * config.block_bytes);
        let mut handles: Vec<_> = (1..n).map(|_| first.clone()).collect();
        handles.push(first);
        let mut held: Vec<Vec<SlotHandle>> = vec![Vec::new(); n];
        let mut live: HashSet<SlotHandle> = HashSet::new();

        for op in ops {
            match op {
                Op::Alloc(h) => {
                    let h = h % n;
                    match handles[h].allocate() {
                        Ok(slot) => {
                            prop_assert!(live.insert(slot), "{slot:?} handed out twice");
                            held[h].push(slot);
                        }
                        Err(PoolError::Exhausted) => {
                            prop_assert_eq!(handles[h].free_slots(), 0, "Exhausted with free slots");
                        }
                        Err(e) => return Err(TestCaseError::fail(format!("allocate: {e}"))),
                    }
                }
                Op::AllocPair(h) => {
                    let h = h % n;
                    if let Ok([a, b]) = handles[h].allocate_pair() {
                        let (_, n) = SlotPair::pack(&[a, b]);
                        prop_assert_eq!(n, 2, "{:?} and {:?} straddle blocks", a, b);
                        for slot in [a, b] {
                            prop_assert!(live.insert(slot), "{slot:?} handed out twice");
                            held[h].push(slot);
                        }
                    } else {
                        for _ in 0..2 {
                            let Ok(slot) = handles[h].allocate() else { break };
                            prop_assert!(live.insert(slot), "{slot:?} handed out twice");
                            held[h].push(slot);
                        }
                    }
                }
                Op::Free(h, i) => {
                    let h = h % n;
                    let len = held[h].len();
                    if len > 0 {
                        let slot = held[h].swap_remove(i % len);
                        live.remove(&slot);
                        handles[h].free(slot).map_err(|e| TestCaseError::fail(e.to_string()))?;
                    }
                }
                Op::FreeAll(h) => {
                    let h = h % n;
                    for slot in held[h].drain(..) {
                        live.remove(&slot);
                        handles[h].free(slot).map_err(|e| TestCaseError::fail(e.to_string()))?;
                    }
                }
                Op::Flush(h) => handles[h % n].flush_cache(),
                Op::Grow(blocks) => {
                    handles[0].grow_blocks(blocks);
                }
                Op::Resize(target) => {
                    handles[0].resize_to_blocks(target);
                }
            }
            for h in &handles {
                prop_assert!(h.cached_slots() <= SLACK_PER_HANDLE, "{} slots parked", h.cached_slots());
            }
            let cached: usize = handles.iter().map(|h| h.cached_slots()).sum();
            prop_assert_eq!(handles[0].used_slots(), (live.len() + cached) as u64);
        }

        for h in &mut handles {
            h.flush_cache();
        }
        handles[0].validate();
        prop_assert_eq!(handles[0].used_slots(), live.len() as u64);
        for (h, slots) in held.into_iter().enumerate() {
            for slot in slots {
                handles[h].free(slot).map_err(|e| TestCaseError::fail(e.to_string()))?;
            }
        }
        for h in &mut handles {
            h.flush_cache();
        }
        handles[0].validate();
        prop_assert_eq!(handles[0].used_slots(), 0);
    }
}

#[test]
fn double_frees_and_stale_handles_are_refused() {
    for slots_per_block in [8, 2048] {
        let config = PoolConfig::new(slots_per_block * 64, 64);
        let mut pool = SharedLockMemoryPool::with_bytes(config, 2 * config.block_bytes);
        let (a, b) = (pool.allocate().unwrap(), pool.allocate().unwrap());
        pool.free(a).unwrap();
        assert_eq!(pool.free(a), Err(PoolError::DoubleFree));
        pool.free(b).unwrap();

        // Shrink both blocks away and regrow: the block ids come back
        // with a new generation, and a run is claimed in `a`'s block.
        pool.flush_cache();
        assert_eq!(pool.resize_to_blocks(0), 0);
        pool.grow_blocks(2);
        let fresh = pool.allocate().unwrap();
        assert_eq!(fresh.block_index(), a.block_index());
        assert_eq!(pool.free(a), Err(PoolError::StaleHandle));

        pool.free(fresh).unwrap();
        pool.flush_cache();
        assert_eq!(pool.used_slots(), 0);
        pool.validate();
    }
}

/// Bad frees folded into the buffered words between good ones: a
/// double free of a buffered slot is refused at once, a stale handle
/// when the buffer goes back, and every good slot still returns — the
/// pool's used count ends exact.
#[test]
fn bad_frees_among_buffered_words_are_refused_alone() {
    let config = PoolConfig::new(256 * 64, 64);
    let mut pool = SharedLockMemoryPool::with_bytes(config, 2 * config.block_bytes);
    let stale = pool.allocate().unwrap();
    pool.free(stale).unwrap();
    pool.flush_cache();
    assert_eq!(pool.resize_to_blocks(0), 0);
    pool.grow_blocks(2);
    // Block 0 (the stale handle's, regrown) is all taken, so the run is
    // in block 1 and frees in block 0 are buffered.
    let mut live: Vec<SlotHandle> = (0..320).map(|_| pool.allocate().unwrap()).collect();
    assert_eq!(live[0].block_index(), stale.block_index());
    let good: Vec<SlotHandle> = live.drain(..63).collect();
    for &h in &good[..20] {
        pool.free(h).unwrap();
    }
    assert_eq!(pool.free(good[7]), Err(PoolError::DoubleFree));
    pool.free(stale).unwrap();
    for &h in &good[20..62] {
        pool.free(h).unwrap();
    }
    // 63 slots are buffered; the 64th sends them back, and that trip
    // reports the refusal.
    assert_eq!(pool.cached_slots(), 63);
    assert_eq!(pool.free(good[62]), Err(PoolError::StaleHandle));
    assert_eq!(pool.cached_slots(), 0);
    assert_eq!(pool.used_slots(), live.len() as u64);

    // A double free buried in an earlier word is refused when its word
    // goes back; the good slot folded in beside it is not lost.
    let (a, b, c) = (live[1], live[2], live[100]);
    pool.free(a).unwrap();
    pool.free(c).unwrap();
    pool.free(a).unwrap();
    pool.free(b).unwrap();
    pool.flush_cache();
    assert_eq!(pool.used_slots(), live.len() as u64 - 3);
    for h in live.drain(..).filter(|h| ![a, b, c].contains(h)) {
        pool.free(h).unwrap();
    }
    pool.flush_cache();
    assert_eq!(pool.used_slots(), 0);
    pool.validate();
}

/// Each slot of a pair keeps its own checks: freeing the pair twice is a
/// double free, and once its block is shrunk away and regrown, a stale
/// handle, for each slot.
#[test]
fn pair_frees_are_checked_per_slot() {
    let mut pool = SharedLockMemoryPool::with_bytes(PoolConfig::default(), 128 * 1024);
    let [a, b] = pool.allocate_pair().unwrap();
    let (Some(pair), 2) = SlotPair::pack(&[a, b]) else {
        panic!("{a:?} and {b:?} are no pair");
    };
    for h in pair.handles() {
        pool.free(h).unwrap();
    }
    for h in pair.handles() {
        assert_eq!(pool.free(h), Err(PoolError::DoubleFree));
    }
    pool.flush_cache();
    assert_eq!(pool.resize_to_blocks(0), 0);
    pool.grow_blocks(1);
    let fresh = pool.allocate_pair().unwrap();
    assert_eq!(fresh.map(|h| h.block_index()), [a.block_index(); 2]);
    for h in pair.handles() {
        assert_eq!(pool.free(h), Err(PoolError::StaleHandle));
    }
    for h in fresh {
        pool.free(h).unwrap();
    }
    pool.flush_cache();
    assert_eq!(pool.used_slots(), 0);
    pool.validate();
}
