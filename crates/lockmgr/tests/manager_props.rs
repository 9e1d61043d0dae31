//! Property-based stress of the lock manager: arbitrary interleavings
//! of lock/unlock/abort across many applications must preserve every
//! cross-structure invariant and never leak lock memory.

use locktune_lockmgr::{
    AppId, DeadlockDetector, LockError, LockManager, LockManagerConfig, LockMode, LockOutcome,
    ResourceId, RowId, TableId, TuningHooks,
};
use locktune_memalloc::{LockMemoryPool, PoolConfig, PoolUsage};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    LockRow {
        app: u32,
        table: u32,
        rowid: u64,
        exclusive: bool,
    },
    Commit {
        app: u32,
    },
    Abort {
        app: u32,
    },
    CancelWait {
        app: u32,
    },
    UnlockRow {
        app: u32,
        table: u32,
        rowid: u64,
    },
    DetectDeadlocks,
}

fn op_strategy(apps: u32, tables: u32, rows: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        8 => (0..apps, 0..tables, 0..rows, any::<bool>()).prop_map(
            |(app, table, rowid, exclusive)| Op::LockRow { app, table, rowid, exclusive }),
        2 => (0..apps).prop_map(|app| Op::Commit { app }),
        1 => (0..apps).prop_map(|app| Op::Abort { app }),
        1 => (0..apps).prop_map(|app| Op::CancelWait { app }),
        1 => (0..apps, 0..tables, 0..rows).prop_map(
            |(app, table, rowid)| Op::UnlockRow { app, table, rowid }),
        1 => Just(Op::DetectDeadlocks),
    ]
}

/// Growth policy with a hard cap, like the real tuner's bounds.
struct CappedGrow {
    max_blocks: u64,
}

impl TuningHooks for CappedGrow {
    fn on_lock_request(&mut self, _: &PoolUsage) -> f64 {
        50.0
    }
    fn sync_growth(&mut self, wanted: u64, pool: &PoolUsage) -> u64 {
        let room = self.max_blocks.saturating_sub(pool.bytes / 512) * 512;
        wanted.min(room)
    }
    fn on_pool_resized(&mut self, _: &PoolUsage) {}
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Six applications over 24 rows put three and more holders on one
    /// head (past the inline holder); `first_holder_slots = 3` puts a
    /// holding past its inline slots; the smaller growth caps (a pool of
    /// 24 slots at the low end) force MAXLOCKS escalation and
    /// reclaim-by-escalation.
    #[test]
    fn random_workload_preserves_invariants(
        first_holder_slots in 2u32..4,
        max_blocks in 3u64..17,
        ops in proptest::collection::vec(op_strategy(6, 3, 8), 1..300),
    ) {
        let pool = LockMemoryPool::with_bytes(PoolConfig::new(512, 64), 2 * 512);
        let config = LockManagerConfig { first_holder_slots, ..LockManagerConfig::default() };
        let mut m = LockManager::new(pool, config);
        let mut hooks = CappedGrow { max_blocks };
        let detector = DeadlockDetector::new();

        for op in ops {
            match op {
                Op::LockRow { app, table, rowid, exclusive } => {
                    let a = AppId(app);
                    // Skip if this app is blocked (a client can only wait once).
                    if m.app(a).map(|s| s.waiting_on().is_some()).unwrap_or(false) {
                        continue;
                    }
                    let t = TableId(table);
                    let (tmode, rmode) = if exclusive {
                        (LockMode::IX, LockMode::X)
                    } else {
                        (LockMode::IS, LockMode::S)
                    };
                    match m.lock(a, ResourceId::Table(t), tmode, &mut hooks) {
                        Ok(LockOutcome::Queued | LockOutcome::QueuedWithEscalation { .. }) => {
                            continue
                        }
                        Ok(_) => {}
                        Err(LockError::OutOfLockMemory) => continue,
                        Err(e) => return Err(TestCaseError::fail(format!("table lock: {e}"))),
                    }
                    match m.lock(a, ResourceId::Row(t, RowId(rowid)), rmode, &mut hooks) {
                        Ok(_) => {}
                        Err(LockError::OutOfLockMemory) => {}
                        // The table intent may have queued above.
                        Err(LockError::MissingIntent(_)) => {}
                        Err(LockError::AlreadyWaiting(_)) => {}
                        Err(e) => return Err(TestCaseError::fail(format!("row lock: {e}"))),
                    }
                }
                Op::Commit { app } => {
                    let a = AppId(app);
                    m.cancel_wait(a);
                    m.unlock_all(a, &mut hooks);
                }
                Op::Abort { app } => {
                    m.abort(AppId(app), &mut hooks);
                }
                Op::CancelWait { app } => {
                    m.cancel_wait(AppId(app));
                }
                Op::UnlockRow { app, table, rowid } => {
                    let res = ResourceId::Row(TableId(table), RowId(rowid));
                    match m.unlock(AppId(app), res, &mut hooks) {
                        Ok(report) => prop_assert_eq!(report.released_locks, 1),
                        Err(e) => prop_assert_eq!(e, LockError::NotHeld(res)),
                    }
                }
                Op::DetectDeadlocks => {
                    for v in detector.find_victims(&m.wait_edges()) {
                        m.abort(v.app, &mut hooks);
                    }
                }
            }
            m.validate();
            let _ = m.take_notifications();
        }

        // Quiesce: resolve any residual deadlocks, then commit everyone.
        for v in detector.find_victims(&m.wait_edges()) {
            m.abort(v.app, &mut hooks);
        }
        for app in 0..6 {
            let a = AppId(app);
            m.cancel_wait(a);
            m.unlock_all(a, &mut hooks);
        }
        m.validate();
        prop_assert_eq!(m.pool().used_slots(), 0, "all lock memory returned");
        prop_assert_eq!(m.locked_resources(), 0, "no stale lock heads");
        for app in 0..6 {
            m.forget_app(AppId(app));
        }
        prop_assert_eq!(m.known_apps(), 0, "no per-application state survives");
    }

    /// Escalation equivalence: locking N rows one-by-one under a tight
    /// cap ends with the app holding exactly one table lock whose mode
    /// covers every row mode it requested.
    #[test]
    fn escalation_collapses_to_covering_table_lock(
        n_rows in 10u64..60,
        any_exclusive in any::<bool>(),
    ) {
        let pool = LockMemoryPool::with_bytes(PoolConfig::new(512, 64), 8 * 512);
        let mut m = LockManager::new(pool, LockManagerConfig::default());
        struct Tight;
        impl TuningHooks for Tight {
            fn on_lock_request(&mut self, _: &PoolUsage) -> f64 { 20.0 }
            fn sync_growth(&mut self, _: u64, _: &PoolUsage) -> u64 { 0 }
            fn on_pool_resized(&mut self, _: &PoolUsage) {}
        }
        let mut hooks = Tight;
        let a = AppId(1);
        let t = TableId(1);
        let (tmode, rmode) = if any_exclusive {
            (LockMode::IX, LockMode::X)
        } else {
            (LockMode::IS, LockMode::S)
        };
        m.lock(a, ResourceId::Table(t), tmode, &mut hooks).unwrap();
        let mut escalated = false;
        for r in 0..n_rows {
            match m.lock(a, ResourceId::Row(t, RowId(r)), rmode, &mut hooks) {
                Ok(LockOutcome::Granted) => {}
                Ok(LockOutcome::GrantedAfterEscalation { exclusive, .. }) => {
                    prop_assert_eq!(exclusive, any_exclusive);
                    escalated = true;
                }
                Ok(LockOutcome::CoveredByTableLock) => {
                    prop_assert!(escalated, "coverage only after escalation");
                }
                other => return Err(TestCaseError::fail(format!("unexpected {other:?}"))),
            }
            m.validate();
        }
        prop_assert!(escalated, "tight cap must escalate within {n_rows} rows");
        let state = m.app(a).unwrap();
        prop_assert_eq!(state.held_count(), 1, "rows collapsed into the table lock");
        let table_mode = state.held(&ResourceId::Table(t)).unwrap().mode;
        prop_assert!(table_mode.covers(rmode.escalation_table_mode()));
        m.unlock_all(a, &mut hooks);
        prop_assert_eq!(m.pool().used_slots(), 0);
    }
}
