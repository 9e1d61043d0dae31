//! Scenario tests for the lock manager: grants, queues, conversions,
//! escalations, memory pressure and deadlocks.

use locktune_lockmgr::{
    AppId, DeadlockDetector, EscalationBias, LockError, LockManager, LockManagerConfig, LockMode,
    LockOutcome, NoTuning, ResourceId, RowId, TableId, TuningHooks,
};
use locktune_memalloc::{LockMemoryPool, PoolConfig, PoolUsage};

fn row(t: u32, r: u64) -> ResourceId {
    ResourceId::Row(TableId(t), RowId(r))
}

fn table(t: u32) -> ResourceId {
    ResourceId::Table(TableId(t))
}

fn app(a: u32) -> AppId {
    AppId(a)
}

/// Manager with `blocks` blocks of 8 slots each (tiny, to force
/// exhaustion quickly in tests).
fn small_manager(blocks: u64) -> LockManager {
    let pool = LockMemoryPool::with_bytes(PoolConfig::new(512, 64), blocks * 512);
    LockManager::new(pool, LockManagerConfig::default())
}

/// Manager with ample memory.
fn big_manager() -> LockManager {
    let pool = LockMemoryPool::with_bytes(PoolConfig::default(), 4 << 20);
    LockManager::new(pool, LockManagerConfig::default())
}

fn hooks() -> NoTuning {
    NoTuning {
        max_locks_percent: 98.0,
    }
}

/// Hooks that always grant synchronous growth.
struct AlwaysGrow {
    granted: u64,
}

impl TuningHooks for AlwaysGrow {
    fn on_lock_request(&mut self, _: &PoolUsage) -> f64 {
        98.0
    }
    fn sync_growth(&mut self, wanted: u64, _: &PoolUsage) -> u64 {
        self.granted += wanted;
        wanted
    }
    fn on_pool_resized(&mut self, _: &PoolUsage) {}
}

#[test]
fn first_holder_charged_two_slots_additional_one() {
    let mut m = big_manager();
    let mut h = hooks();
    m.lock(app(1), table(1), LockMode::IS, &mut h).unwrap();
    assert_eq!(
        m.pool().used_slots(),
        2,
        "first holder: lock object + request"
    );
    m.lock(app(2), table(1), LockMode::IS, &mut h).unwrap();
    assert_eq!(
        m.pool().used_slots(),
        3,
        "second holder: one more request block"
    );
    m.validate();
}

#[test]
fn unlock_all_returns_every_slot() {
    let mut m = big_manager();
    let mut h = hooks();
    m.lock(app(1), table(1), LockMode::IX, &mut h).unwrap();
    for r in 0..100 {
        assert_eq!(
            m.lock(app(1), row(1, r), LockMode::X, &mut h).unwrap(),
            LockOutcome::Granted
        );
    }
    assert_eq!(m.pool().used_slots(), 2 + 200);
    let report = m.unlock_all(app(1), &mut h);
    assert_eq!(report.released_locks, 101);
    assert_eq!(report.freed_slots, 202);
    assert_eq!(m.pool().used_slots(), 0);
    assert_eq!(m.locked_resources(), 0);
    m.validate();
}

#[test]
fn share_locks_coexist_exclusive_waits() {
    let mut m = big_manager();
    let mut h = hooks();
    for a in 1..=3 {
        m.lock(app(a), table(1), LockMode::IS, &mut h).unwrap();
        assert_eq!(
            m.lock(app(a), row(1, 7), LockMode::S, &mut h).unwrap(),
            LockOutcome::Granted
        );
    }
    m.lock(app(4), table(1), LockMode::IX, &mut h).unwrap();
    assert_eq!(
        m.lock(app(4), row(1, 7), LockMode::X, &mut h).unwrap(),
        LockOutcome::Queued
    );
    assert_eq!(m.app(app(4)).unwrap().waiting_on(), Some(row(1, 7)));
    // Readers release one by one; writer granted only after the last.
    m.unlock_all(app(1), &mut h);
    assert!(m.take_notifications().is_empty());
    m.unlock_all(app(2), &mut h);
    assert!(m.take_notifications().is_empty());
    m.unlock_all(app(3), &mut h);
    let n = m.take_notifications();
    assert_eq!(n.len(), 1);
    assert_eq!(n[0].app, app(4));
    assert_eq!(n[0].resource, row(1, 7));
    assert_eq!(m.app(app(4)).unwrap().waiting_on(), None);
    m.validate();
}

#[test]
fn fifo_no_queue_jumping() {
    // Paper §2.3 emphasizes requests are serviced in arrival order (the
    // "post" method), unlike Oracle's wake-and-race. A share request
    // arriving behind a queued X must not jump it.
    let mut m = big_manager();
    let mut h = hooks();
    m.lock(app(1), table(1), LockMode::IS, &mut h).unwrap();
    m.lock(app(1), row(1, 1), LockMode::S, &mut h).unwrap();
    m.lock(app(2), table(1), LockMode::IX, &mut h).unwrap();
    assert_eq!(
        m.lock(app(2), row(1, 1), LockMode::X, &mut h).unwrap(),
        LockOutcome::Queued
    );
    m.lock(app(3), table(1), LockMode::IS, &mut h).unwrap();
    // Compatible with app(1)'s S, but must queue behind app(2)'s X.
    assert_eq!(
        m.lock(app(3), row(1, 1), LockMode::S, &mut h).unwrap(),
        LockOutcome::Queued
    );
    m.unlock_all(app(1), &mut h);
    let n = m.take_notifications();
    assert_eq!(n.len(), 1, "only the X at the front is granted");
    assert_eq!(n[0].app, app(2));
    m.unlock_all(app(2), &mut h);
    let n = m.take_notifications();
    assert_eq!(n.len(), 1);
    assert_eq!(n[0].app, app(3));
    m.validate();
}

#[test]
fn reentrant_and_covering_requests() {
    let mut m = big_manager();
    let mut h = hooks();
    m.lock(app(1), table(1), LockMode::IX, &mut h).unwrap();
    m.lock(app(1), row(1, 1), LockMode::X, &mut h).unwrap();
    // Same mode again: already held.
    assert_eq!(
        m.lock(app(1), row(1, 1), LockMode::X, &mut h).unwrap(),
        LockOutcome::AlreadyHeld
    );
    // Weaker mode: covered by X.
    assert_eq!(
        m.lock(app(1), row(1, 1), LockMode::S, &mut h).unwrap(),
        LockOutcome::AlreadyHeld
    );
    // No extra memory charged.
    assert_eq!(m.pool().used_slots(), 4);
    m.validate();
}

#[test]
fn conversion_in_place_when_compatible() {
    let mut m = big_manager();
    let mut h = hooks();
    m.lock(app(1), table(1), LockMode::IX, &mut h).unwrap();
    m.lock(app(1), row(1, 1), LockMode::S, &mut h).unwrap();
    let before = m.pool().used_slots();
    assert_eq!(
        m.lock(app(1), row(1, 1), LockMode::X, &mut h).unwrap(),
        LockOutcome::Granted
    );
    assert_eq!(m.pool().used_slots(), before, "conversions are free");
    assert_eq!(m.held_mode(app(1), row(1, 1)), Some(LockMode::X));
    assert_eq!(m.stats().conversions, 1);
    m.validate();
}

#[test]
fn conversion_waits_and_beats_new_requests() {
    let mut m = big_manager();
    let mut h = hooks();
    // Two readers.
    for a in [1, 2] {
        m.lock(app(a), table(1), LockMode::IS, &mut h).unwrap();
        m.lock(app(a), row(1, 1), LockMode::S, &mut h).unwrap();
    }
    // App 2 wants X: must wait for app 1 (conversion queued).
    m.lock(app(2), table(1), LockMode::IX, &mut h).unwrap();
    assert_eq!(
        m.lock(app(2), row(1, 1), LockMode::X, &mut h).unwrap(),
        LockOutcome::Queued
    );
    // A third app's new S request queues *behind* the conversion.
    m.lock(app(3), table(1), LockMode::IS, &mut h).unwrap();
    assert_eq!(
        m.lock(app(3), row(1, 1), LockMode::S, &mut h).unwrap(),
        LockOutcome::Queued
    );
    m.unlock_all(app(1), &mut h);
    let n = m.take_notifications();
    assert_eq!(n[0].app, app(2), "conversion granted first");
    assert_eq!(n.len(), 1, "S behind incompatible X stays queued");
    m.validate();
}

#[test]
fn table_x_covers_row_requests() {
    let mut m = big_manager();
    let mut h = hooks();
    m.lock(app(1), table(1), LockMode::X, &mut h).unwrap();
    assert_eq!(
        m.lock(app(1), row(1, 5), LockMode::X, &mut h).unwrap(),
        LockOutcome::CoveredByTableLock
    );
    assert_eq!(
        m.lock(app(1), row(1, 6), LockMode::S, &mut h).unwrap(),
        LockOutcome::CoveredByTableLock
    );
    assert_eq!(m.pool().used_slots(), 2, "no row structures consumed");
    assert_eq!(m.stats().covered_by_table, 2);
    m.validate();
}

#[test]
fn missing_intent_is_rejected() {
    let mut m = big_manager();
    let mut h = hooks();
    assert_eq!(
        m.lock(app(1), row(1, 1), LockMode::S, &mut h),
        Err(LockError::MissingIntent(row(1, 1)))
    );
    // IS does not announce X rows.
    m.lock(app(1), table(1), LockMode::IS, &mut h).unwrap();
    assert_eq!(
        m.lock(app(1), row(1, 1), LockMode::X, &mut h),
        Err(LockError::MissingIntent(row(1, 1)))
    );
    // IX does.
    m.lock(app(1), table(1), LockMode::IX, &mut h).unwrap();
    assert!(m.lock(app(1), row(1, 1), LockMode::X, &mut h).is_ok());
    m.validate();
}

#[test]
fn maxlocks_triggers_escalation_to_exclusive_table_lock() {
    let mut m = big_manager();
    // Tiny cap: roughly 10 slots' worth.
    let total = m.pool().total_slots();
    let cap_percent = 12.0 * 100.0 / total as f64;
    let mut h = NoTuning {
        max_locks_percent: cap_percent,
    };
    m.lock(app(1), table(1), LockMode::IX, &mut h).unwrap();
    let mut escalated = None;
    for r in 0..64 {
        match m.lock(app(1), row(1, r), LockMode::X, &mut h).unwrap() {
            LockOutcome::Granted => {}
            LockOutcome::GrantedAfterEscalation { table, exclusive } => {
                escalated = Some((table, exclusive, r));
                break;
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    let (t, exclusive, at) = escalated.expect("escalation must fire");
    assert_eq!(t, TableId(1));
    assert!(exclusive, "X rows escalate to an X table lock");
    assert!((5..20).contains(&at), "fired near the cap, at row {at}");
    // All row locks gone; only the table lock remains.
    assert_eq!(m.app(app(1)).unwrap().held_count(), 1);
    assert_eq!(m.held_mode(app(1), table(1)), Some(LockMode::X));
    assert_eq!(m.stats().escalations, 1);
    assert_eq!(m.stats().exclusive_escalations, 1);
    // Subsequent row locks are covered — no memory growth.
    let used = m.pool().used_slots();
    for r in 100..200 {
        assert_eq!(
            m.lock(app(1), row(1, r), LockMode::X, &mut h).unwrap(),
            LockOutcome::CoveredByTableLock
        );
    }
    assert_eq!(m.pool().used_slots(), used);
    m.validate();
}

/// A scan's rows sit in one release-list run; escalation takes the run
/// whole, and releases exactly the rows still held — not one the scan
/// unlocked, which another reader holds now.
#[test]
fn escalation_releases_only_the_held_rows_of_a_run() {
    let mut m = big_manager();
    let mut h = hooks();
    m.lock(app(1), table(1), LockMode::IS, &mut h).unwrap();
    for r in 0..10 {
        m.lock(app(1), row(1, r), LockMode::S, &mut h).unwrap();
    }
    m.unlock(app(1), row(1, 3), &mut h).unwrap();
    m.lock(app(2), table(1), LockMode::IS, &mut h).unwrap();
    m.lock(app(2), row(1, 3), LockMode::S, &mut h).unwrap();
    let bias = EscalationBias::PreferEscalation {
        table_row_threshold: 9,
    };
    m.set_escalation_bias(app(1), bias);
    assert_eq!(
        m.lock(app(1), row(1, 10), LockMode::S, &mut h).unwrap(),
        LockOutcome::GrantedAfterEscalation {
            table: TableId(1),
            exclusive: false
        }
    );
    assert_eq!(m.stats().rows_escalated, 9);
    assert_eq!(m.held_mode(app(1), table(1)), Some(LockMode::S));
    assert_eq!(m.app(app(1)).unwrap().held_count(), 1);
    assert_eq!(m.held_mode(app(2), row(1, 3)), Some(LockMode::S));
    assert_eq!(m.locked_resources(), 2, "the table and app 2's row");
    m.validate();
    assert_eq!(m.unlock_all(app(1), &mut h).released_locks, 1);
    m.validate();
}

#[test]
fn share_only_rows_escalate_to_share_table_lock() {
    let mut m = big_manager();
    let total = m.pool().total_slots();
    let mut h = NoTuning {
        max_locks_percent: 12.0 * 100.0 / total as f64,
    };
    m.lock(app(1), table(1), LockMode::IS, &mut h).unwrap();
    let mut saw = None;
    for r in 0..64 {
        if let LockOutcome::GrantedAfterEscalation { exclusive, .. } =
            m.lock(app(1), row(1, r), LockMode::S, &mut h).unwrap()
        {
            saw = Some(exclusive);
            break;
        }
    }
    assert_eq!(saw, Some(false), "S rows escalate to a share table lock");
    assert_eq!(m.stats().exclusive_escalations, 0);
    // Other readers still work against the S table lock.
    m.lock(app(2), table(1), LockMode::IS, &mut h).unwrap();
    assert_eq!(
        m.lock(app(2), row(1, 999), LockMode::S, &mut h).unwrap(),
        LockOutcome::Granted
    );
    m.validate();
}

#[test]
fn pool_exhaustion_with_growth_hooks_grows_instead_of_escalating() {
    let mut m = small_manager(1); // 8 slots
    let mut h = AlwaysGrow { granted: 0 };
    m.lock(app(1), table(1), LockMode::IX, &mut h).unwrap();
    for r in 0..200 {
        assert_eq!(
            m.lock(app(1), row(1, r), LockMode::X, &mut h).unwrap(),
            LockOutcome::Granted
        );
    }
    assert_eq!(m.stats().escalations, 0);
    assert!(m.stats().sync_growth_requests > 0);
    assert!(h.granted > 0);
    assert!(m.pool().total_blocks() > 1, "pool grew synchronously");
    m.validate();
}

#[test]
fn pool_exhaustion_without_growth_escalates_heaviest_app() {
    let mut m = small_manager(4); // 32 slots
    let mut h = hooks(); // denies growth, cap 98%
    m.lock(app(1), table(1), LockMode::IX, &mut h).unwrap();
    m.lock(app(2), table(2), LockMode::IX, &mut h).unwrap();
    // App 1 takes most of the memory.
    let mut r = 0;
    loop {
        match m.lock(app(1), row(1, r), LockMode::X, &mut h) {
            Ok(LockOutcome::Granted) => r += 1,
            Ok(LockOutcome::GrantedAfterEscalation { .. }) => break,
            Ok(other) => panic!("unexpected {other:?}"),
            Err(e) => panic!("unexpected error {e}"),
        }
        assert!(r < 100, "must escalate before 100 rows in a 32-slot pool");
    }
    m.validate();
}

#[test]
fn memory_pressure_escalates_other_heavy_app() {
    let mut m = small_manager(4); // 32 slots
    let mut h = hooks();
    // App 1 hoards rows but stays under its (98%) cap.
    m.lock(app(1), table(1), LockMode::IX, &mut h).unwrap();
    let mut r = 0;
    while m.pool().free_slots() > 3 {
        m.lock(app(1), row(1, r), LockMode::X, &mut h).unwrap();
        r += 1;
    }
    // App 2 arrives; its first row lock exhausts the pool. Growth is
    // denied, so the manager escalates the heaviest app (app 1).
    m.lock(app(2), table(2), LockMode::IX, &mut h).unwrap();
    let out = m.lock(app(2), row(2, 0), LockMode::X, &mut h).unwrap();
    assert_eq!(out, LockOutcome::Granted);
    assert!(m.stats().escalations >= 1);
    // App 1 now holds a table X lock instead of rows.
    assert_eq!(m.held_mode(app(1), table(1)), Some(LockMode::X));
    m.validate();
}

#[test]
fn deferred_escalation_completes_when_table_lock_granted() {
    let mut m = big_manager();
    let total = m.pool().total_slots();
    let mut h = NoTuning {
        max_locks_percent: 12.0 * 100.0 / total as f64,
    };
    // App 2 reads a row in table 1, holding IS.
    m.lock(app(2), table(1), LockMode::IS, &mut h).unwrap();
    m.lock(app(2), row(1, 500), LockMode::S, &mut h).unwrap();
    // App 1 accumulates X rows until MAXLOCKS fires; the X table lock
    // conflicts with app 2's IS, so the escalation must queue.
    m.lock(app(1), table(1), LockMode::IX, &mut h).unwrap();
    let mut queued = false;
    for r in 0..64 {
        match m.lock(app(1), row(1, r), LockMode::X, &mut h).unwrap() {
            LockOutcome::Granted => {}
            LockOutcome::QueuedWithEscalation { table } => {
                assert_eq!(table, TableId(1));
                queued = true;
                break;
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    assert!(queued, "escalation should defer behind app 2's IS");
    assert_eq!(m.stats().escalations, 0, "not escalated yet");
    // App 2 commits: the table conversion is granted, escalation
    // completes, rows collapse.
    m.unlock_all(app(2), &mut h);
    let n = m.take_notifications();
    assert_eq!(n.len(), 1);
    assert_eq!(n[0].app, app(1));
    assert!(n[0].completed_escalation);
    assert_eq!(m.stats().escalations, 1);
    assert_eq!(m.app(app(1)).unwrap().held_count(), 1);
    assert_eq!(m.held_mode(app(1), table(1)), Some(LockMode::X));
    m.validate();
}

#[test]
fn out_of_memory_when_no_remedy() {
    let mut m = small_manager(1); // 8 slots
    let mut h = hooks();
    // Fill the pool with *table* locks (cannot be escalated away).
    for t in 0..4u32 {
        m.lock(app(t), table(t), LockMode::IS, &mut h).unwrap();
    }
    assert_eq!(m.pool().free_slots(), 0);
    assert_eq!(
        m.lock(app(9), table(9), LockMode::IS, &mut h),
        Err(LockError::OutOfLockMemory)
    );
    assert_eq!(m.stats().denials, 1);
    m.validate();
}

/// Hooks that deny the first `denials` sync-growth requests and grant
/// every one after that.
struct GrowSecondTry {
    denials: u32,
}

impl TuningHooks for GrowSecondTry {
    fn on_lock_request(&mut self, _: &PoolUsage) -> f64 {
        98.0
    }
    fn sync_growth(&mut self, wanted: u64, _: &PoolUsage) -> u64 {
        if self.denials > 0 {
            self.denials -= 1;
            0
        } else {
            wanted
        }
    }
    fn on_pool_resized(&mut self, _: &PoolUsage) {}
}

#[test]
fn retry_allocation_after_failed_reclaim_keeps_its_slots() {
    let mut m = small_manager(1); // 8 slots
    let mut h = GrowSecondTry { denials: 1 };
    // Fill the pool with table locks: nothing can be escalated, so the
    // reclaim pass between the two allocation attempts frees nothing.
    for t in 0..4u32 {
        m.lock(app(t), table(t), LockMode::IS, &mut h).unwrap();
    }
    assert_eq!(m.pool().free_slots(), 0);
    // First allocation attempt: pool dry and growth denied. Reclaim
    // finds no victim, but the retry's growth request is granted — the
    // slots it allocates must back the granted lock, never be dropped
    // (dropping them would both deny the request spuriously and leak
    // pool usage).
    let out = m.lock(app(9), table(9), LockMode::IS, &mut h).unwrap();
    assert_eq!(out, LockOutcome::Granted);
    assert_eq!(m.stats().denials, 0);
    for t in 0..4u32 {
        m.unlock_all(app(t), &mut h);
    }
    m.unlock_all(app(9), &mut h);
    assert_eq!(m.pool().used_slots(), 0, "no slots may leak");
    m.validate();
}

/// Reclaim-by-escalation may pick a victim on the very table being
/// requested: the victim's intent becomes a table X, and the requester,
/// found compatible before the reclaim, must now wait instead of being
/// granted beside it.
#[test]
fn reclaim_that_escalates_a_co_holder_queues_the_request() {
    let mut m = small_manager(2); // 16 slots
    let mut h = NoTuning {
        max_locks_percent: 100.0,
    };
    m.lock(app(1), table(1), LockMode::IX, &mut h).unwrap();
    for r in 0..7 {
        m.lock(app(1), row(1, r), LockMode::X, &mut h).unwrap();
    }
    assert_eq!(m.pool().free_slots(), 0);

    // IX beside app 1's IX is compatible, but its one lock structure
    // can only come from escalating app 1 on this table.
    let out = m.lock(app(2), table(1), LockMode::IX, &mut h).unwrap();
    assert_eq!(out, LockOutcome::Queued);
    assert_eq!(m.stats().escalations, 1);
    assert_eq!(m.held_mode(app(1), table(1)), Some(LockMode::X));
    m.validate();

    m.unlock_all(app(1), &mut h);
    let n = m.take_notifications();
    assert_eq!(n.len(), 1);
    assert_eq!((n[0].app, n[0].resource), (app(2), table(1)));
    m.validate();
}

#[test]
fn deadlock_detected_and_victim_aborted() {
    let mut m = big_manager();
    let mut h = hooks();
    // Classic cross wait: 1 holds row A wants row B; 2 holds B wants A.
    for a in [1, 2] {
        m.lock(app(a), table(1), LockMode::IX, &mut h).unwrap();
    }
    m.lock(app(1), row(1, 1), LockMode::X, &mut h).unwrap();
    m.lock(app(2), row(1, 2), LockMode::X, &mut h).unwrap();
    assert_eq!(
        m.lock(app(1), row(1, 2), LockMode::X, &mut h).unwrap(),
        LockOutcome::Queued
    );
    assert_eq!(
        m.lock(app(2), row(1, 1), LockMode::X, &mut h).unwrap(),
        LockOutcome::Queued
    );
    let victims = DeadlockDetector::new().find_victims(&m.wait_edges());
    assert_eq!(victims.len(), 1);
    assert_eq!(victims[0].app, app(2), "youngest (highest id) dies");
    m.abort(app(2), &mut h);
    // App 1's wait for row 2 is now granted.
    let n = m.take_notifications();
    assert_eq!(n.len(), 1);
    assert_eq!(n[0].app, app(1));
    assert_eq!(m.stats().deadlock_aborts, 1);
    m.unlock_all(app(1), &mut h);
    assert_eq!(m.pool().used_slots(), 0);
    m.validate();
}

#[test]
fn cancel_wait_removes_waiter() {
    let mut m = big_manager();
    let mut h = hooks();
    m.lock(app(1), table(1), LockMode::X, &mut h).unwrap();
    m.lock(app(2), table(1), LockMode::S, &mut h).unwrap();
    assert_eq!(m.app(app(2)).unwrap().waiting_on(), Some(table(1)));
    assert!(m.cancel_wait(app(2)));
    assert!(!m.cancel_wait(app(2)));
    assert_eq!(m.app(app(2)).unwrap().waiting_on(), None);
    m.unlock_all(app(1), &mut h);
    assert!(
        m.take_notifications().is_empty(),
        "cancelled waiter is not granted"
    );
    m.validate();
}

#[test]
fn waiting_app_cannot_issue_second_request() {
    let mut m = big_manager();
    let mut h = hooks();
    m.lock(app(1), table(1), LockMode::X, &mut h).unwrap();
    m.lock(app(2), table(1), LockMode::S, &mut h).unwrap();
    assert_eq!(
        m.lock(app(2), table(2), LockMode::S, &mut h),
        Err(LockError::AlreadyWaiting(table(1)))
    );
}

#[test]
fn unlock_not_held_errors() {
    let mut m = big_manager();
    let mut h = hooks();
    assert_eq!(
        m.unlock(app(1), table(1), &mut h),
        Err(LockError::NotHeld(table(1)))
    );
}

#[test]
fn single_unlock_wakes_queue() {
    let mut m = big_manager();
    let mut h = hooks();
    m.lock(app(1), table(1), LockMode::X, &mut h).unwrap();
    m.lock(app(2), table(1), LockMode::X, &mut h).unwrap();
    let r = m.unlock(app(1), table(1), &mut h).unwrap();
    assert_eq!(r.released_locks, 1);
    let n = m.take_notifications();
    assert_eq!(n[0].app, app(2));
    m.validate();
}

#[test]
fn stats_track_activity() {
    let mut m = big_manager();
    let mut h = hooks();
    m.lock(app(1), table(1), LockMode::IX, &mut h).unwrap();
    m.lock(app(1), row(1, 1), LockMode::X, &mut h).unwrap();
    m.lock(app(2), table(1), LockMode::IX, &mut h).unwrap();
    m.lock(app(2), row(1, 1), LockMode::X, &mut h).unwrap(); // queues
    let s = *m.stats();
    assert_eq!(s.grants, 3);
    assert_eq!(s.waits, 1);
    m.unlock_all(app(1), &mut h);
    assert_eq!(m.stats().queue_grants, 1);
}

/// The observable order of a commit: which waiters are granted, and in
/// which order their notices come out. Tables are served before rows,
/// each by descending id — whatever order the release itself walks the
/// held set in: by the release list, or (when the holder also holds 100
/// rows of table 5, most of the lock table) by one sweep over the table.
#[test]
fn commit_grants_waiters_in_a_fixed_order() {
    for scanned in [0, 100] {
        let mut m = big_manager();
        let mut h = hooks();
        // The holder: rows on two tables, and two whole tables.
        m.lock(app(1), table(1), LockMode::IX, &mut h).unwrap();
        for r in [5, 2, 9] {
            m.lock(app(1), row(1, r), LockMode::X, &mut h).unwrap();
        }
        m.lock(app(1), table(4), LockMode::IX, &mut h).unwrap();
        m.lock(app(1), row(4, 1), LockMode::X, &mut h).unwrap();
        m.lock(app(1), table(2), LockMode::X, &mut h).unwrap();
        m.lock(app(1), table(3), LockMode::X, &mut h).unwrap();
        if scanned > 0 {
            m.lock(app(1), table(5), LockMode::IS, &mut h).unwrap();
        }
        for r in 0..scanned {
            m.lock(app(1), row(5, r), LockMode::S, &mut h).unwrap();
        }
        // One waiter per contended resource, parked in an unrelated order.
        let waiters = [
            (2, row(1, 5)),
            (3, row(1, 2)),
            (5, table(2)),
            (4, row(1, 9)),
            (7, row(4, 1)),
            (6, table(3)),
        ];
        for (a, res) in waiters {
            let mode = if let ResourceId::Row(t, _) = res {
                let intent = m.lock(app(a), ResourceId::Table(t), LockMode::IX, &mut h);
                assert_eq!(intent, Ok(LockOutcome::Granted));
                LockMode::X
            } else {
                LockMode::S
            };
            assert_eq!(m.lock(app(a), res, mode, &mut h), Ok(LockOutcome::Queued));
        }

        let report = m.unlock_all(app(1), &mut h);
        let held = 8 + if scanned > 0 { scanned + 1 } else { 0 };
        assert_eq!(report.released_locks, held);
        let order: Vec<(AppId, ResourceId)> = m
            .take_notifications()
            .into_iter()
            .map(|n| (n.app, n.resource))
            .collect();
        assert_eq!(
            order,
            vec![
                (app(6), table(3)),
                (app(5), table(2)),
                (app(7), row(4, 1)),
                (app(4), row(1, 9)),
                (app(2), row(1, 5)),
                (app(3), row(1, 2)),
            ],
            "{scanned} rows scanned"
        );
        m.validate();
    }
}

/// The rows an escalation releases hand over to their waiters in the
/// commit order too (descending row id), not in whatever order the
/// escalating application happened to lock them. Row waiters can only
/// coexist with a table-lock escalation when intents are not enforced.
#[test]
fn escalation_grants_row_waiters_in_a_fixed_order() {
    let pool = LockMemoryPool::with_bytes(PoolConfig::default(), 4 << 20);
    let config = LockManagerConfig {
        enforce_intents: false,
        ..LockManagerConfig::default()
    };
    let mut m = LockManager::new(pool, config);
    let mut h = hooks();
    let locked = [5, 2, 9, 7, 1];
    for r in locked {
        m.lock(app(1), row(1, r), LockMode::X, &mut h).unwrap();
    }
    for (a, r) in [(2, 7), (3, 2), (4, 9), (5, 1)] {
        assert_eq!(
            m.lock(app(a), row(1, r), LockMode::X, &mut h),
            Ok(LockOutcome::Queued)
        );
    }
    m.set_escalation_bias(
        app(1),
        EscalationBias::PreferEscalation {
            table_row_threshold: locked.len() as u64,
        },
    );
    assert_eq!(
        m.lock(app(1), row(1, 3), LockMode::X, &mut h),
        Ok(LockOutcome::GrantedAfterEscalation {
            table: TableId(1),
            exclusive: true
        })
    );
    let order: Vec<(AppId, ResourceId)> = m
        .take_notifications()
        .into_iter()
        .map(|n| (n.app, n.resource))
        .collect();
    assert_eq!(
        order,
        vec![
            (app(4), row(1, 9)),
            (app(2), row(1, 7)),
            (app(3), row(1, 2)),
            (app(5), row(1, 1)),
        ]
    );
    assert_eq!(m.app(app(1)).unwrap().held_count(), 1);
    m.validate();
}

/// More holders than a head keeps inline and more slots than a holding
/// keeps inline: the spilled representations account exactly, in every
/// release order.
#[test]
fn spilled_holders_and_slots_account_exactly() {
    let pool = LockMemoryPool::with_bytes(PoolConfig::default(), 4 << 20);
    let config = LockManagerConfig {
        first_holder_slots: 3,
        ..LockManagerConfig::default()
    };
    let mut m = LockManager::new(pool, config);
    let mut h = hooks();
    for a in 1..=4 {
        m.lock(app(a), table(1), LockMode::IS, &mut h).unwrap();
        m.lock(app(a), row(1, 7), LockMode::S, &mut h).unwrap();
        m.validate();
    }
    // Per head: 3 for the first holder, 1 for each of the other three.
    assert_eq!(m.pool().used_slots(), 2 * (3 + 3));
    // The first holder leaves from the middle of the commit order.
    for (a, slots_left) in [(3, 10), (1, 4), (4, 2), (2, 0)] {
        m.unlock_all(app(a), &mut h);
        m.validate();
        assert_eq!(m.pool().used_slots(), slots_left);
    }
    assert_eq!(m.locked_resources(), 0);
}

/// Three-slot blocks: every other two-slot holding straddles a block
/// boundary and spills its second slot. Accounting stays exact through
/// the grants, an escalation of the table whose rows hold them, and the
/// commit.
#[test]
fn pairs_across_blocks_account_and_escalate_exactly() {
    let pool = LockMemoryPool::with_bytes(PoolConfig::new(3 * 64, 64), 8 * 3 * 64);
    let mut m = LockManager::new(pool, LockManagerConfig::default());
    let mut h = hooks();
    m.lock(app(1), table(1), LockMode::IX, &mut h).unwrap();
    for r in 0..6 {
        m.lock(app(1), row(1, r), LockMode::X, &mut h).unwrap();
        m.validate();
    }
    assert_eq!(m.pool().used_slots(), 2 + 6 * 2);
    m.set_escalation_bias(
        app(1),
        EscalationBias::PreferEscalation {
            table_row_threshold: 6,
        },
    );
    assert_eq!(
        m.lock(app(1), row(1, 6), LockMode::X, &mut h).unwrap(),
        LockOutcome::GrantedAfterEscalation {
            table: TableId(1),
            exclusive: true
        }
    );
    assert_eq!(m.stats().rows_escalated, 6);
    assert_eq!(m.pool().used_slots(), 2, "only the table lock's pair");
    m.validate();
    assert_eq!(m.unlock_all(app(1), &mut h).freed_slots, 2);
    assert_eq!(m.pool().used_slots(), 0);
    m.validate();
}

#[test]
fn forget_app_drops_state_and_bias() {
    let mut m = big_manager();
    let mut h = hooks();
    m.set_escalation_bias(
        app(1),
        EscalationBias::PreferEscalation {
            table_row_threshold: 10,
        },
    );
    m.lock(app(1), table(1), LockMode::IX, &mut h).unwrap();
    m.lock(app(2), table(1), LockMode::IX, &mut h).unwrap();
    assert_eq!(m.known_apps(), 2);
    m.unlock_all(app(1), &mut h);
    assert_eq!(m.known_apps(), 2, "commit keeps the state for reuse");
    m.forget_app(app(1));
    assert_eq!(m.known_apps(), 1);
    assert_eq!(m.escalation_bias(app(1)), EscalationBias::PreferGrowth);
    assert!(m.app(app(1)).is_none());
    m.forget_app(app(9)); // unknown: nothing to forget
    m.validate();
}

#[test]
#[should_panic(expected = "forgotten while holding")]
fn forget_app_refuses_a_holder() {
    let mut m = big_manager();
    let mut h = hooks();
    m.lock(app(1), table(1), LockMode::IX, &mut h).unwrap();
    m.forget_app(app(1));
}
