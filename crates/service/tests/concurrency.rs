//! Concurrency tests for the sharded lock service: grant delivery,
//! `LOCKTIMEOUT`, cross-shard deadlock resolution, and the shared-pool
//! accounting property.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use locktune_lockmgr::{AppId, LockMode, ResourceId, RowId, TableId};
use locktune_service::{LockService, ServiceConfig, ServiceError};
use proptest::prelude::*;

fn table(t: u32) -> ResourceId {
    ResourceId::Table(TableId(t))
}

fn row(t: u32, r: u64) -> ResourceId {
    ResourceId::Row(TableId(t), RowId(r))
}

#[test]
fn uncontended_locks_across_shards() {
    let service = LockService::start(ServiceConfig::fast(4)).unwrap();
    let s = service.connect(AppId(1));
    for t in 0..16 {
        s.lock(table(t), LockMode::IX).unwrap();
        s.lock(row(t, 0), LockMode::X).unwrap();
    }
    assert!(service.charged_slots() > 0);
    service.validate();
    s.unlock_all().unwrap();
    assert_eq!(service.charged_slots(), 0);
    service.validate();
}

#[test]
fn blocked_request_is_granted_on_release() {
    let service = Arc::new(LockService::start(ServiceConfig::fast(2)).unwrap());
    let holder = service.connect(AppId(1));
    holder.lock(table(3), LockMode::X).unwrap();

    let waiter_started = Arc::new(Barrier::new(2));
    let waiter = {
        let service = Arc::clone(&service);
        let started = Arc::clone(&waiter_started);
        std::thread::spawn(move || {
            let s = service.connect(AppId(2));
            started.wait();
            // Queues behind the X holder, parks, and must wake when the
            // holder commits.
            s.lock(table(3), LockMode::S).map(|_| ())
        })
    };
    waiter_started.wait();
    std::thread::sleep(Duration::from_millis(50));
    holder.unlock_all().unwrap();
    waiter
        .join()
        .unwrap()
        .expect("waiter must be granted after release");
    service.validate();
}

#[test]
fn lock_wait_times_out() {
    let mut config = ServiceConfig::fast(2);
    config.lock_wait_timeout = Some(Duration::from_millis(100));
    let service = Arc::new(LockService::start(config).unwrap());
    let holder = service.connect(AppId(1));
    holder.lock(table(0), LockMode::X).unwrap();

    let s = service.connect(AppId(2));
    let err = s.lock(table(0), LockMode::X).unwrap_err();
    assert_eq!(err, ServiceError::Timeout);

    // The timed-out waiter left the queue; the holder still owns the
    // lock and accounting is intact.
    holder.unlock(table(0)).unwrap();
    service.validate();
}

/// Satellite 5: application A holds a table on one shard and waits for
/// a table on another, B the reverse. No single shard sees a cycle;
/// the sweeper's union of the per-shard wait-for edges must, and the
/// victim (highest AppId) must be aborted so the survivor commits.
#[test]
fn cross_shard_deadlock_is_detected_and_victim_aborted() {
    let service = Arc::new(LockService::start(ServiceConfig::fast(4)).unwrap());
    // Tables 0 and 1 land on different shards of 4 under the service's
    // Fibonacci router (0 → shard 0, 1 → shard 1).
    let ready = Arc::new(Barrier::new(2));
    let outcomes: Vec<_> = [(1u32, 0u32, 1u32), (2, 1, 0)]
        .into_iter()
        .map(|(app, first, second)| {
            let service = Arc::clone(&service);
            let ready = Arc::clone(&ready);
            std::thread::spawn(move || {
                let s = service.connect(AppId(app));
                s.lock(table(first), LockMode::X)
                    .expect("uncontended first lock");
                ready.wait();
                let result = s.lock(table(second), LockMode::X).map(|_| ());
                // The victim's abort was already consumed by the lock
                // call above, so commit succeeds (as a no-op) for both.
                s.unlock_all().unwrap();
                result
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|h| h.join().unwrap())
        .collect();

    // Exactly one transaction dies, and the detector's policy picks the
    // highest AppId — application 2.
    assert_eq!(
        outcomes[0],
        Ok(()),
        "survivor must be granted after the abort"
    );
    assert_eq!(outcomes[1], Err(ServiceError::DeadlockVictim));
    assert_eq!(service.charged_slots(), 0);
    service.validate();
}

/// A second `connect` with a live session's AppId must panic instead of
/// silently cross-wiring the two sessions' grant channels.
#[test]
#[should_panic(expected = "already connected")]
fn duplicate_connect_panics() {
    let service = LockService::start(ServiceConfig::fast(2)).unwrap();
    let _first = service.connect(AppId(7));
    let _second = service.connect(AppId(7));
}

/// `try_connect` reports a duplicate AppId as a typed error (the
/// network server hands out ids from untrusted input and must not
/// panic), while the original session keeps working.
#[test]
fn try_connect_rejects_duplicate_without_panicking() {
    let service = LockService::start(ServiceConfig::fast(2)).unwrap();
    let first = service.try_connect(AppId(7)).unwrap();
    assert_eq!(
        service.try_connect(AppId(7)).err(),
        Some(ServiceError::AlreadyConnected(AppId(7)))
    );
    // The rejected attempt must not have disturbed the live session.
    first.lock(table(0), LockMode::X).unwrap();
    first.unlock_all().unwrap();
    drop(first);
    assert!(service.try_connect(AppId(7)).is_ok());
}

/// The tuning decision log is bounded: only the newest
/// `tuning_log_capacity` reports are retained, while the monotonic
/// counters keep counting every interval.
#[test]
fn tuning_log_is_bounded_and_counters_are_not() {
    let config = ServiceConfig {
        tuning_log_capacity: 4,
        // Park the timer so only the synchronous ticks below run.
        tuning_interval: Duration::from_secs(3600),
        ..ServiceConfig::fast(2)
    };
    let service = LockService::start(config).unwrap();
    for _ in 0..10 {
        service.run_tuning_interval_now();
    }
    assert_eq!(service.tuning_reports().len(), 4);
    let counters = service.tuning_counters();
    assert_eq!(counters.intervals, 10);
    assert!(counters.grow_decisions + counters.shrink_decisions <= counters.intervals);
}

/// Reconnecting after the previous session dropped is fine.
/// Connection churn must not grow the shards: the server hands out
/// ever-increasing application ids, so per-application state that
/// outlived its session would accumulate without bound.
#[test]
fn disconnect_churn_leaves_no_per_app_state_behind() {
    let service = LockService::start(ServiceConfig::fast(4)).unwrap();
    let resident = service.connect(AppId(0));
    resident.lock(table(0), LockMode::IS).unwrap();
    for id in 1..=10_000u32 {
        let s = service.connect(AppId(id));
        // Two tables, so the session leaves state on more than one shard.
        for t in [id % 7, id % 7 + 1] {
            s.lock(table(t), LockMode::IX).unwrap();
            s.lock(row(t, u64::from(id)), LockMode::X).unwrap();
        }
        drop(s);
    }
    assert!(
        service.known_apps() <= service.shard_count(),
        "{} per-shard app entries survive 10 000 disconnects",
        service.known_apps()
    );
    service.validate();
    resident.unlock_all().unwrap();
    assert_eq!(service.charged_slots(), 0);
    service.validate();
}

#[test]
fn reconnect_after_drop_is_allowed() {
    let service = LockService::start(ServiceConfig::fast(2)).unwrap();
    let first = service.connect(AppId(7));
    first.lock(table(0), LockMode::X).unwrap();
    drop(first);
    let second = service.connect(AppId(7));
    second.lock(table(0), LockMode::X).unwrap();
    second.unlock_all().unwrap();
    service.validate();
}

/// One step of the random workload: `app_seat` picks which worker runs
/// it, the rest shape the lock.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// IS/IX on the table then S/X on the row (exclusive flag).
    RowLock {
        table: u32,
        row: u64,
        exclusive: bool,
    },
    /// S or X directly on the table.
    TableLock { table: u32, exclusive: bool },
    /// Commit: release everything the worker holds.
    Commit,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (0u32..12, 0u64..32, any::<bool>())
            .prop_map(|(table, row, exclusive)| Op::RowLock { table, row, exclusive }),
        2 => (0u32..12, any::<bool>())
            .prop_map(|(table, exclusive)| Op::TableLock { table, exclusive }),
        1 => Just(Op::Commit),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Satellite 4: for any interleaving of lock/unlock traffic across
    /// the shards, the shared pool's charged-slot count equals the sum
    /// of the per-shard charges and every shard's internal accounting
    /// validates.
    #[test]
    fn accounting_matches_under_any_interleaving(
        ops in proptest::collection::vec(op_strategy(), 30..120),
        workers in 2usize..5,
    ) {
        let mut config = ServiceConfig::fast(4);
        // Short timeout: contention between workers must resolve
        // (grant, abort, or timeout) without stalling the property.
        config.lock_wait_timeout = Some(Duration::from_millis(200));
        let service = Arc::new(LockService::start(config).unwrap());
        let ops = Arc::new(ops);

        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let service = Arc::clone(&service);
                let ops = Arc::clone(&ops);
                std::thread::spawn(move || {
                    let s = service.connect(AppId(w as u32 + 1));
                    // Each worker walks a different residue class of
                    // the shared script, so workers collide on some
                    // resources and not others.
                    for op in ops.iter().skip(w).step_by(workers) {
                        match *op {
                            Op::RowLock { table: t, row: r, exclusive } => {
                                let (ti, ri) = if exclusive {
                                    (LockMode::IX, LockMode::X)
                                } else {
                                    (LockMode::IS, LockMode::S)
                                };
                                if s.lock(table(t), ti).is_ok() {
                                    let _ = s.lock(row(t, r), ri);
                                }
                            }
                            Op::TableLock { table: t, exclusive } => {
                                let m = if exclusive { LockMode::X } else { LockMode::S };
                                let _ = s.lock(table(t), m);
                            }
                            Op::Commit => {
                                // A pending deadlock abort surfaces
                                // here; the locks are gone either way.
                                let _ = s.unlock_all();
                            }
                        }
                    }
                    // Session drop releases whatever is still held.
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker panicked");
        }

        // Quiescent: validate() drains the shards' slot caches and
        // checks every shard, then every charge must be visible in the
        // shared pool — and since all sessions dropped, everything was
        // returned.
        service.validate();
        prop_assert_eq!(service.charged_slots(), service.pool_used_slots());
        prop_assert_eq!(service.pool_used_slots(), 0);
    }
}

/// The tuning thread runs on its real timer: with a millisecond
/// interval, decisions accumulate while the workload runs.
#[test]
fn tuning_thread_ticks_on_its_own() {
    let mut config = ServiceConfig::fast(2);
    config.tuning_interval = Duration::from_millis(20);
    let service = LockService::start(config).unwrap();
    let s = service.connect(AppId(1));
    s.lock(table(0), LockMode::IX).unwrap();
    for r in 0..64 {
        s.lock(row(0, r), LockMode::X).unwrap();
    }
    std::thread::sleep(Duration::from_millis(120));
    assert!(
        !service.tuning_reports().is_empty(),
        "background tuner must have run at least one interval"
    );
    s.unlock_all().unwrap();
    service.validate();
}

/// Grant notifications keep flowing while the tuner resizes the pool
/// underneath the shards (the three-mutex lock order holds up under
/// fire).
#[test]
fn tuner_and_workload_coexist() {
    let mut config = ServiceConfig::fast(4);
    config.tuning_interval = Duration::from_millis(5);
    config.lock_wait_timeout = Some(Duration::from_millis(500));
    let service = Arc::new(LockService::start(config).unwrap());
    let granted = Arc::new(AtomicU64::new(0));

    let handles: Vec<_> = (0..4u32)
        .map(|w| {
            let service = Arc::clone(&service);
            let granted = Arc::clone(&granted);
            std::thread::spawn(move || {
                let s = service.connect(AppId(w + 1));
                for i in 0..200u64 {
                    let t = (i % 6) as u32;
                    if s.lock(table(t), LockMode::IX).is_ok()
                        && s.lock(row(t, i % 40), LockMode::X).is_ok()
                    {
                        granted.fetch_add(1, Ordering::Relaxed);
                    }
                    if i % 10 == 9 {
                        let _ = s.unlock_all();
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert!(granted.load(Ordering::Relaxed) > 0);
    service.validate();
    assert_eq!(service.pool_used_slots(), 0);
}

/// A hot-row storm: more sessions than this host has cores, all
/// X-locking half of one 16-row hot set. Every lock must be granted
/// (ascending order, so no deadlock; `LOCKTIMEOUT` is a generous 2 s),
/// and with threads outnumbering cores the shard latch's yield and
/// blocking phases run as well as its spin.
#[test]
fn hot_row_storm_grants_every_lock() {
    const SESSIONS: u32 = 4;
    const TXNS: u32 = 2_000;
    const HOT_ROWS: u64 = 16;
    const PICKS: usize = 8;
    let mut config = ServiceConfig::fast(4);
    config.lock_wait_timeout = Some(Duration::from_secs(2));
    let service = Arc::new(LockService::start(config).unwrap());

    // One explicit conflict first: B queues behind A's X lock on a hot
    // row, so the wait counter rises whether or not the storm's
    // sessions ever overlap on this host.
    let a = service.connect(AppId(100));
    a.lock(table(0), LockMode::IX).unwrap();
    a.lock(row(0, 0), LockMode::X).unwrap();
    std::thread::scope(|s| {
        let b = s.spawn(|| {
            let b = service.connect(AppId(101));
            b.lock(table(0), LockMode::IX).unwrap();
            b.lock(row(0, 0), LockMode::X).expect("granted");
            b.unlock_all().unwrap();
        });
        while service.stats().waits == 0 && !b.is_finished() {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(service.stats().waits > 0, "B never queued behind A");
        a.unlock_all().unwrap();
    });

    let start = Arc::new(Barrier::new(SESSIONS as usize));
    let handles: Vec<_> = (1..=SESSIONS)
        .map(|app| {
            let service = Arc::clone(&service);
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                let s = service.connect(AppId(app));
                let mut state = u64::from(app).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                start.wait();
                for _ in 0..TXNS {
                    // Partial Fisher–Yates over the hot set, then sort.
                    let mut rows: [u64; HOT_ROWS as usize] = std::array::from_fn(|i| i as u64);
                    for i in 0..PICKS {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        let j = i + (state % (HOT_ROWS - i as u64)) as usize;
                        rows.swap(i, j);
                    }
                    let picks = &mut rows[..PICKS];
                    picks.sort_unstable();
                    s.lock(table(0), LockMode::IX).expect("IX on the hot table");
                    for &r in picks.iter() {
                        s.lock(row(0, r), LockMode::X).expect("X on a hot row");
                    }
                    let report = s.unlock_all().expect("commit");
                    assert_eq!(report.released_locks, 1 + PICKS as u64);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert!(service.stats().waits > 0, "no wait counted");
    service.validate();
    assert_eq!(service.pool_used_slots(), 0);
}
