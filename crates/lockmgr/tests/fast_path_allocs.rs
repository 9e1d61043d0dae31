//! Allocation audit for the lock-table fast path: an uncontended grant
//! and its release must not call the heap allocator (they run under
//! the shard latch), and committing a large scan must neither allocate
//! per lock nor copy the held set.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use locktune_lockmgr::{
    AppId, LockManager, LockManagerConfig, LockMode, LockOutcome, NoTuning, ResourceId, RowId,
    TableId,
};
use locktune_memalloc::{LockMemoryPool, PoolConfig};

/// Pass-through [`System`] allocator that counts this thread's
/// allocation events (alloc + realloc) and the bytes they asked for.
/// Per thread, because the test harness runs tests side by side.
/// (Port of the counter in `crates/bench/benches/net_overhead.rs`.)
struct CountingAlloc;

thread_local! {
    static EVENTS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let _ = EVENTS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are plain
// thread-local cells that never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// (events, bytes) allocated by this thread while `f` runs.
fn allocations_during(f: impl FnOnce()) -> (u64, u64) {
    let before = (EVENTS.with(Cell::get), BYTES.with(Cell::get));
    f();
    (
        EVENTS.with(Cell::get) - before.0,
        BYTES.with(Cell::get) - before.1,
    )
}

fn manager(pool_bytes: u64) -> (LockManager, NoTuning) {
    let pool = LockMemoryPool::with_bytes(PoolConfig::default(), pool_bytes);
    (
        LockManager::new(pool, LockManagerConfig::default()),
        NoTuning {
            max_locks_percent: 100.0,
        },
    )
}

/// One OLTP transaction: IX on the table, 20 X locks on rows never
/// locked before, commit.
fn oltp_txn(m: &mut LockManager, hooks: &mut NoTuning, next_row: &mut u64) {
    let (app, table) = (AppId(1), TableId(1));
    let intent = m.lock(app, ResourceId::Table(table), LockMode::IX, hooks);
    assert_eq!(intent, Ok(LockOutcome::Granted));
    for _ in 0..20 {
        let res = ResourceId::Row(table, RowId(*next_row));
        *next_row += 1;
        assert_eq!(
            m.lock(app, res, LockMode::X, hooks),
            Ok(LockOutcome::Granted)
        );
    }
    assert_eq!(m.unlock_all(app, hooks).released_locks, 21);
}

#[test]
fn steady_state_oltp_transactions_do_not_allocate() {
    let (mut m, mut hooks) = manager(4 << 20);
    let mut next_row = 0;
    // Warm-up: the maps and the worklist reach their working capacity.
    for _ in 0..1_000 {
        oltp_txn(&mut m, &mut hooks, &mut next_row);
    }
    let (events, bytes) = allocations_during(|| {
        for _ in 0..10_000 {
            oltp_txn(&mut m, &mut hooks, &mut next_row);
        }
    });
    assert_eq!(
        events, 0,
        "10 000 steady-state transactions allocated {events} times ({bytes} bytes)"
    );
    m.validate();
}

#[test]
fn committing_a_large_scan_neither_allocates_per_lock_nor_copies_the_held_set() {
    const ROWS: u64 = 100_000;
    let (mut m, mut hooks) = manager(64 << 20);
    let (app, table) = (AppId(1), TableId(1));
    m.lock(app, ResourceId::Table(table), LockMode::IS, &mut hooks)
        .unwrap();
    for r in 0..ROWS {
        let res = ResourceId::Row(table, RowId(r));
        assert_eq!(
            m.lock(app, res, LockMode::S, &mut hooks),
            Ok(LockOutcome::Granted)
        );
    }
    let (events, bytes) = allocations_during(|| {
        assert_eq!(m.unlock_all(app, &mut hooks).released_locks, ROWS + 1);
    });
    // O(1) events, and far less memory than one word per released lock.
    assert!(
        events <= 2 && bytes < ROWS,
        "unlock_all of {ROWS} locks allocated {events} times, {bytes} bytes"
    );
    assert_eq!(m.pool().used_slots(), 0);
    m.validate();
}
