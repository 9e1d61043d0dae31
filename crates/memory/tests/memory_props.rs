//! Property tests for the database memory set: no flow of memory
//! between heaps, lock memory and overflow may ever create or destroy
//! bytes, exceed `databaseMemory`, or push a heap below its floor.

use locktune_memory::{DatabaseMemory, HeapKind, MemoryConfig, PerfHeap};
use locktune_sim::check::{self as proptest, prelude::*};

const MIB: u64 = 1024 * 1024;

#[derive(Debug, Clone)]
enum Op {
    SyncGrowth(u64),
    FundGrowth(u64),
    Shrink(u64),
    Rebalance,
    SetDemand(u8, u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        2 => (1u64..64).prop_map(|m| Op::SyncGrowth(m * MIB)),
        3 => (1u64..128).prop_map(|m| Op::FundGrowth(m * MIB)),
        3 => (1u64..128).prop_map(|m| Op::Shrink(m * MIB)),
        2 => Just(Op::Rebalance),
        2 => (0u8..3, 0u64..1024).prop_map(|(h, m)| Op::SetDemand(h, m * MIB)),
    ]
}

fn heap_kind(i: u8) -> HeapKind {
    match i % 3 {
        0 => HeapKind::BufferPool,
        1 => HeapKind::SortHeap,
        _ => HeapKind::PackageCache,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn memory_is_conserved(ops in proptest::collection::vec(op_strategy(), 1..100)) {
        let config = MemoryConfig { total_bytes: 1024 * MIB, overflow_goal_fraction: 0.10 };
        let mut mem = DatabaseMemory::new(
            config,
            vec![
                PerfHeap::new(HeapKind::BufferPool, 600 * MIB, 100 * MIB, 700 * MIB),
                PerfHeap::new(HeapKind::SortHeap, 150 * MIB, 10 * MIB, 80 * MIB),
                PerfHeap::new(HeapKind::PackageCache, 50 * MIB, 10 * MIB, 50 * MIB),
            ],
            20 * MIB,
        );
        for op in ops {
            match op {
                Op::SyncGrowth(b) => {
                    let take = b.min(mem.overflow_free());
                    if take > 0 {
                        mem.note_lock_sync_growth(take);
                    }
                }
                Op::FundGrowth(b) => {
                    let granted = mem.fund_lock_growth(b);
                    prop_assert!(granted <= b);
                }
                Op::Shrink(b) => {
                    let release = b.min(mem.lock_memory());
                    if release > 0 {
                        mem.note_lock_shrink(release);
                    }
                }
                Op::Rebalance => {
                    mem.rebalance_overflow();
                    prop_assert_eq!(mem.lock_from_overflow(), 0);
                }
                Op::SetDemand(h, d) => {
                    mem.heap_mut(heap_kind(h)).demand = d;
                }
            }
            // The global invariants, after every single operation:
            mem.validate();
            prop_assert_eq!(
                mem.allocated() + mem.overflow_free(),
                1024 * MIB,
                "bytes created or destroyed"
            );
            prop_assert!(mem.lock_from_overflow() <= mem.lock_memory());
            for h in mem.heaps() {
                prop_assert!(h.size >= h.min);
            }
        }
    }

    /// fund + shrink round-trips: growing by G and releasing G leaves
    /// total allocation unchanged (distribution may shift).
    #[test]
    fn fund_then_shrink_conserves(grow_mib in 1u64..256) {
        let config = MemoryConfig { total_bytes: 1024 * MIB, overflow_goal_fraction: 0.10 };
        let mut mem = DatabaseMemory::new(
            config,
            vec![
                PerfHeap::new(HeapKind::BufferPool, 600 * MIB, 100 * MIB, 700 * MIB),
                PerfHeap::new(HeapKind::SortHeap, 150 * MIB, 10 * MIB, 80 * MIB),
                PerfHeap::new(HeapKind::PackageCache, 50 * MIB, 10 * MIB, 50 * MIB),
            ],
            20 * MIB,
        );
        let total_before = mem.allocated() + mem.overflow_free();
        let granted = mem.fund_lock_growth(grow_mib * MIB);
        mem.note_lock_shrink(granted);
        prop_assert_eq!(mem.allocated() + mem.overflow_free(), total_before);
        mem.validate();
    }
}
