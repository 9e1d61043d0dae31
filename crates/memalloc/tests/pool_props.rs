//! Property-based tests for the lock memory pool.
//!
//! The pool is the foundation every other crate builds on, so we drive
//! it with arbitrary operation sequences and check the §2.2 invariants
//! after every step.

use locktune_memalloc::{LockMemoryPool, PoolConfig, PoolError, SlotHandle};
use locktune_sim::check::{self as proptest, prelude::*};

#[derive(Debug, Clone)]
enum Op {
    Alloc,
    /// Free the i-th held handle (mod current holdings).
    Free(usize),
    Grow(u64),
    Shrink(u64),
    Resize(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => Just(Op::Alloc),
        4 => (0usize..64).prop_map(Op::Free),
        1 => (1u64..4).prop_map(Op::Grow),
        1 => (1u64..4).prop_map(Op::Shrink),
        1 => (0u64..16).prop_map(Op::Resize),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any operation sequence leaves the pool structurally valid, with
    /// slot accounting consistent with the handles the model holds.
    #[test]
    fn pool_invariants_hold(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        let cfg = PoolConfig::new(512, 64); // 8 slots per block
        let mut pool = LockMemoryPool::new(cfg);
        pool.grow_blocks(2);
        let mut held: Vec<SlotHandle> = Vec::new();

        for op in ops {
            match op {
                Op::Alloc => match pool.allocate() {
                    Ok(h) => held.push(h),
                    Err(PoolError::Exhausted) => {
                        // Exhaustion must mean zero free slots.
                        prop_assert_eq!(pool.free_slots(), 0);
                    }
                    Err(e) => return Err(TestCaseError::fail(format!("unexpected {e}"))),
                },
                Op::Free(i) => {
                    if !held.is_empty() {
                        let h = held.swap_remove(i % held.len());
                        pool.free(h).map_err(|e| TestCaseError::fail(e.to_string()))?;
                    }
                }
                Op::Grow(n) => {
                    let before = pool.total_blocks();
                    pool.grow_blocks(n);
                    prop_assert_eq!(pool.total_blocks(), before + n);
                }
                Op::Shrink(n) => {
                    let before = pool.total_blocks();
                    match pool.try_shrink_blocks(n) {
                        Ok(()) => prop_assert_eq!(pool.total_blocks(), before - n),
                        Err(e) => {
                            // All-or-nothing: failure leaves size unchanged.
                            prop_assert_eq!(pool.total_blocks(), before);
                            prop_assert!(e.freeable_blocks < e.requested_blocks);
                        }
                    }
                }
                Op::Resize(target) => {
                    let after = pool.resize_to_blocks(target);
                    prop_assert_eq!(after, pool.total_blocks());
                    if target >= pool.total_blocks() {
                        // Growth always succeeds exactly.
                        prop_assert!(after >= target);
                    }
                }
            }
            pool.validate();
            prop_assert_eq!(pool.used_slots(), held.len() as u64);
            prop_assert_eq!(
                pool.free_slots() + pool.used_slots(),
                pool.total_slots()
            );
        }

        // Drain: every held handle frees cleanly exactly once.
        for h in held.drain(..) {
            pool.free(h).map_err(|e| TestCaseError::fail(e.to_string()))?;
        }
        pool.validate();
        prop_assert_eq!(pool.used_slots(), 0);
        // With nothing held, every block is freeable.
        prop_assert_eq!(pool.freeable_blocks(), pool.total_blocks());
    }

    /// Allocation order invariant: with a fresh pool, the first
    /// `slots_per_block` allocations all come from the head block.
    #[test]
    fn head_block_is_exhausted_first(blocks in 1u64..8) {
        let cfg = PoolConfig::new(512, 64);
        let mut pool = LockMemoryPool::new(cfg);
        pool.grow_blocks(blocks);
        let per_block = cfg.slots_per_block() as u64;
        let mut prev_block = None;
        for i in 0..(blocks * per_block) {
            let h = pool.allocate().unwrap();
            let expected_block = (i / per_block) as u32;
            prop_assert_eq!(h.block_index(), expected_block);
            if let Some(p) = prev_block {
                prop_assert!(h.block_index() >= p);
            }
            prev_block = Some(h.block_index());
        }
        prop_assert_eq!(pool.allocate(), Err(PoolError::Exhausted));
    }

    /// Shrink can always release exactly the fully-free tail blocks.
    #[test]
    fn freeable_blocks_is_exact(used_blocks in 0u64..6, total in 6u64..10) {
        let cfg = PoolConfig::new(512, 64);
        let mut pool = LockMemoryPool::new(cfg);
        pool.grow_blocks(total);
        let per_block = cfg.slots_per_block() as u64;
        let mut held = Vec::new();
        for _ in 0..(used_blocks * per_block) {
            held.push(pool.allocate().unwrap());
        }
        let freeable = pool.freeable_blocks();
        prop_assert_eq!(freeable, total - used_blocks);
        // Exactly `freeable` can be shrunk; one more must fail.
        prop_assert!(pool.try_shrink_blocks(freeable + 1).is_err());
        pool.try_shrink_blocks(freeable).unwrap();
        prop_assert_eq!(pool.total_blocks(), used_blocks);
        pool.validate();
        for h in held {
            pool.free(h).unwrap();
        }
    }
}
