//! Allocation audit for the shared pool's slot cache: once warm,
//! steady-state OLTP transactions (one lock at a time or as
//! `lock_many` batches) and a 100 000-row scan with its commit, all
//! through one `Session` on a 64 MiB pool, must not call the heap
//! allocator. Every refill and every buffer return of the
//! per-shard slot cache runs inside these loops, and the scan's commit
//! holds all of every shard's table, so it releases by one sweep over
//! each table and returns its slots a bitmap word at a time.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

use locktune_lockmgr::{partition, AppId, LockMode, LockOutcome, ResourceId, RowId, TableId};
use locktune_service::{BatchOutcome, LockService, ServiceConfig, Session};

/// Pass-through [`System`] allocator that counts this thread's
/// allocation events (alloc + realloc). Per thread, because the test
/// harness runs tests side by side and the service has background
/// threads (the same counter as `lockmgr/tests/fast_path_allocs.rs`).
struct CountingAlloc;

thread_local! {
    static EVENTS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let _ = EVENTS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a plain
// thread-local cell that never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocation events on this thread while `f` runs.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = EVENTS.with(Cell::get);
    f();
    EVENTS.with(Cell::get) - before
}

/// A 64 MiB pool with the tuner and sweeper parked, so the pool
/// neither shrinks under the test nor grows inside it.
fn service() -> LockService {
    LockService::start(ServiceConfig {
        tuning_interval: Duration::from_secs(3600),
        deadlock_interval: Duration::from_secs(3600),
        initial_lock_bytes: 64 << 20,
        ..ServiceConfig::default()
    })
    .expect("service start")
}

/// IX on the table, 20 X locks on rows never locked before, commit.
fn oltp_txn(s: &Session, next_row: &mut u64) {
    let table = TableId(1);
    assert_eq!(
        s.lock(ResourceId::Table(table), LockMode::IX),
        Ok(LockOutcome::Granted)
    );
    for _ in 0..20 {
        let res = ResourceId::Row(table, RowId(*next_row));
        *next_row += 1;
        assert_eq!(s.lock(res, LockMode::X), Ok(LockOutcome::Granted));
    }
    assert_eq!(s.unlock_all().expect("commit").released_locks, 21);
}

/// IS on the table, S on `rows` rows, commit.
fn scan(s: &Session, rows: u64) {
    let table = TableId(2);
    assert_eq!(
        s.lock(ResourceId::Table(table), LockMode::IS),
        Ok(LockOutcome::Granted)
    );
    for r in 0..rows {
        let res = ResourceId::Row(table, RowId(r));
        assert_eq!(s.lock(res, LockMode::S), Ok(LockOutcome::Granted));
    }
    assert_eq!(s.unlock_all().expect("commit").released_locks, rows + 1);
}

#[test]
fn steady_state_oltp_transactions_do_not_allocate() {
    let service = service();
    let session = service.connect(AppId(1));
    let mut next_row = 0;
    for _ in 0..1_000 {
        oltp_txn(&session, &mut next_row);
    }
    let events = allocations_during(|| {
        for _ in 0..10_000 {
            oltp_txn(&session, &mut next_row);
        }
    });
    assert_eq!(
        events, 0,
        "10 000 OLTP transactions allocated {events} times"
    );
    drop(session);
    service.validate();
    assert_eq!(service.pool_used_slots(), 0);
}

/// `lock_many` drives the session's own batch machine, whose request
/// list, outcome slots and shard groups are reused: a warm session's
/// batches, spread over two shards, allocate nothing.
#[test]
fn warm_lock_many_batches_do_not_allocate() {
    let service = service();
    let session = service.connect(AppId(1));
    let shard = |t| partition::resource_slot(ResourceId::Table(TableId(t)), service.shard_count());
    let other = (2..)
        .find(|&t| shard(t) != shard(1))
        .expect("a second shard");
    let mut reqs = Vec::new();
    let mut out = Vec::new();
    let mut next_row = 0;
    // Per table: IX and 10 X locks on rows never locked before.
    let mut batch = || {
        reqs.clear();
        for t in [1, other] {
            reqs.push((ResourceId::Table(TableId(t)), LockMode::IX));
            for _ in 0..10 {
                reqs.push((ResourceId::Row(TableId(t), RowId(next_row)), LockMode::X));
                next_row += 1;
            }
        }
        session.lock_many_into(&reqs, &mut out);
        assert!(out.iter().all(BatchOutcome::is_granted));
        assert_eq!(session.unlock_all().expect("commit").released_locks, 22);
    };
    for _ in 0..1_000 {
        batch();
    }
    let events = allocations_during(|| {
        for _ in 0..10_000 {
            batch();
        }
    });
    assert_eq!(events, 0, "10 000 warm batches allocated {events} times");
    drop(session);
    service.validate();
    assert_eq!(service.pool_used_slots(), 0);
}

#[test]
fn a_large_scan_and_its_commit_do_not_allocate() {
    const ROWS: u64 = 100_000;
    let service = service();
    let session = service.connect(AppId(1));
    // Warm-up: the lock table and the release list reach the scan's
    // size, so only the slot path is left to allocate.
    scan(&session, ROWS);
    let events = allocations_during(|| scan(&session, ROWS));
    assert_eq!(
        events, 0,
        "a {ROWS}-row scan + commit allocated {events} times"
    );
    assert_eq!(service.stats().escalations, 0);
    drop(session);
    service.validate();
    assert_eq!(service.pool_used_slots(), 0);
}
