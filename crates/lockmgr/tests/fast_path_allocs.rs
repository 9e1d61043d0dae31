//! Allocation audit for the lock table: an uncontended grant and its
//! release must not call the heap allocator (they run under the shard
//! latch), committing a large scan must not either, and once warm
//! neither do hand-offs on a hot set or lock/unlock loops inside one
//! transaction. A large scan's table grows to its size without holding
//! an outgrown copy of itself on the way.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use locktune_lockmgr::{
    AppId, LockManager, LockManagerConfig, LockMode, LockOutcome, NoTuning, ResourceId, RowId,
    TableId,
};
use locktune_memalloc::{LockMemoryPool, PoolConfig};

/// Pass-through [`System`] allocator that counts this thread's
/// allocation events (alloc + realloc) and the bytes they asked for,
/// and tracks its live bytes and their peak.
/// Per thread, because the test harness runs tests side by side.
/// (The same counter guards the wire codec in the perf ledger:
/// `perf/src/alloc_count.rs`, gated as `wire.allocs_per_cycle == 0`.)
struct CountingAlloc;

thread_local! {
    static EVENTS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Count an allocation of `bytes` (none for a free) that frees `freed`
/// (a block freed here may have been allocated by another thread, so
/// live bytes can go negative).
fn count(bytes: usize, freed: usize) {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    if bytes > 0 {
        let _ = EVENTS.try_with(|c| c.set(c.get() + 1));
        let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
    }
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + bytes as i64 - freed as i64);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are plain
// thread-local cells that never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), 0);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Counted as a move: the old and the new block both live.
        count(new_size, 0);
        count(0, layout.size());
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
fn committing_a_large_scan_does_not_allocate() {
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
    assert_eq!(
        events, 0,
        "unlock_all of {ROWS} locks allocated {events} times, {bytes} bytes"
    );
    assert_eq!(m.pool().used_slots(), 0);
    m.validate();
}

/// Four tables × 100 000 rows locked in order, as `dss_surge` locks
/// them: the heap peaks within 2 % of the lock table the scan ends with
/// (one doubling map peaked 50 % above it, holding two generations).
#[test]
fn a_large_scan_peaks_at_its_final_size() {
    const TABLES: u32 = 4;
    const ROWS: u64 = 100_000;
    let (mut m, mut hooks) = manager(128 << 20);
    let app = AppId(1);
    let before = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(before));
    for t in 0..TABLES {
        let table = TableId(t);
        m.lock(app, ResourceId::Table(table), LockMode::IS, &mut hooks)
            .unwrap();
        for r in 0..ROWS {
            let res = ResourceId::Row(table, RowId(r));
            assert_eq!(
                m.lock(app, res, LockMode::S, &mut hooks),
                Ok(LockOutcome::Granted)
            );
        }
    }
    let grown = LIVE.with(Cell::get) - before;
    let peak = PEAK.with(Cell::get) - before;
    assert!(
        peak as f64 <= 1.02 * grown as f64,
        "the scan peaked at {peak} bytes and ended at {grown}"
    );
    let released = m.unlock_all(app, &mut hooks).released_locks;
    assert_eq!(released, u64::from(TABLES) * (ROWS + 1));
    m.validate();
}

/// Two applications pass 16 hot rows back and forth: the next owner
/// queues, the owner unlocks, the grant comes out as a notice. Queue
/// boxes are recycled and the caller's notice buffer is reused, so a
/// warm hand-off allocates nothing — and because every hand-off is an
/// explicit unlock, the release lists are being compacted all along.
#[test]
fn hot_set_hand_offs_do_not_allocate() {
    const HOT_ROWS: u64 = 16;
    let (mut m, mut hooks) = manager(4 << 20);
    let table = TableId(1);
    let apps = [AppId(1), AppId(2)];
    for app in apps {
        let intent = m.lock(app, ResourceId::Table(table), LockMode::IX, &mut hooks);
        assert_eq!(intent, Ok(LockOutcome::Granted));
    }
    let mut owner = [0usize; HOT_ROWS as usize];
    for r in 0..HOT_ROWS {
        let res = ResourceId::Row(table, RowId(r));
        assert_eq!(
            m.lock(apps[0], res, LockMode::X, &mut hooks),
            Ok(LockOutcome::Granted)
        );
    }
    let mut notices = Vec::new();
    let mut hand_offs = |m: &mut LockManager, n: u64| {
        for i in 0..n {
            let r = (i % HOT_ROWS) as usize;
            let res = ResourceId::Row(table, RowId(r as u64));
            let (from, to) = (apps[owner[r]], apps[1 - owner[r]]);
            assert_eq!(
                m.lock(to, res, LockMode::X, &mut hooks),
                Ok(LockOutcome::Queued)
            );
            assert_eq!(m.unlock(from, res, &mut hooks).unwrap().released_locks, 1);
            m.drain_notifications_into(&mut notices);
            assert_eq!(notices.len(), 1, "the waiter is granted");
            assert_eq!((notices[0].app, notices[0].resource), (to, res));
            notices.clear();
            owner[r] = 1 - owner[r];
        }
    };
    hand_offs(&mut m, 1_000);
    let (events, bytes) = allocations_during(|| hand_offs(&mut m, 10_000));
    assert_eq!(
        events, 0,
        "10 000 warm hand-offs allocated {events} times ({bytes} bytes)"
    );
    m.validate();
    let held: usize = apps.map(|a| m.app(a).unwrap().held_count()).iter().sum();
    assert_eq!(held as u64, HOT_ROWS + 2);
}

/// A transaction that is not two-phase: 100 000 unlock/relock cycles on
/// two rows, taken in turn so that one of them is always held. Each
/// cycle starts a release-list run at the first row and extends it by
/// the second, and every such run still covers a held row whenever a
/// compaction looks at it; compaction must merge them to keep the list
/// bounded (it never outgrows its warm capacity, so nothing is
/// allocated) and the commit must release exactly what is still held.
#[test]
fn lock_unlock_cycles_keep_the_release_list_bounded() {
    let (mut m, mut hooks) = manager(4 << 20);
    let (app, table) = (AppId(1), TableId(1));
    let rows = [1, 2].map(|r| ResourceId::Row(table, RowId(r)));
    m.lock(app, ResourceId::Table(table), LockMode::IX, &mut hooks)
        .unwrap();
    for r in 0..3 {
        let res = ResourceId::Row(table, RowId(r));
        m.lock(app, res, LockMode::X, &mut hooks).unwrap();
    }
    let mut cycles = |m: &mut LockManager, n: u64| {
        for _ in 0..n {
            for res in rows {
                assert_eq!(m.unlock(app, res, &mut hooks).unwrap().freed_slots, 2);
                assert_eq!(
                    m.lock(app, res, LockMode::X, &mut hooks),
                    Ok(LockOutcome::Granted)
                );
            }
        }
    };
    cycles(&mut m, 100);
    let (events, bytes) = allocations_during(|| cycles(&mut m, 100_000));
    assert_eq!(
        events, 0,
        "100 000 unlock/relock cycles allocated {events} times ({bytes} bytes)"
    );
    m.validate();
    // Held: the intent and rows 0, 1 and 2.
    assert_eq!(m.app(app).unwrap().held_count(), 4);
    let report = m.unlock_all(app, &mut hooks);
    assert_eq!((report.released_locks, report.freed_slots), (4, 8));
    assert_eq!(m.pool().used_slots(), 0);
    m.validate();
}
