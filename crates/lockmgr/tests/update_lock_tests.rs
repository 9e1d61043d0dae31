//! Update (`U`) lock protocol tests: the read-with-intent-to-write
//! mode the paper's §2.3 lock-chaining example relies on.

use locktune_lockmgr::{
    AppId, LockManager, LockManagerConfig, LockMode, LockOutcome, NoTuning, ResourceId, RowId,
    TableId,
};
use locktune_memalloc::{LockMemoryPool, PoolConfig};

fn manager() -> LockManager {
    let pool = LockMemoryPool::with_bytes(PoolConfig::default(), 4 << 20);
    LockManager::new(pool, LockManagerConfig::default())
}

fn row(r: u64) -> ResourceId {
    ResourceId::Row(TableId(1), RowId(r))
}

fn hooks() -> NoTuning {
    NoTuning {
        max_locks_percent: 98.0,
    }
}

#[test]
fn u_lock_allows_readers_but_not_another_u() {
    let mut m = manager();
    let mut h = hooks();
    // The updater scans with U; readers continue to share.
    m.lock(
        AppId(1),
        ResourceId::Table(TableId(1)),
        LockMode::IX,
        &mut h,
    )
    .unwrap();
    m.lock(AppId(1), row(7), LockMode::U, &mut h).unwrap();
    m.lock(
        AppId(2),
        ResourceId::Table(TableId(1)),
        LockMode::IS,
        &mut h,
    )
    .unwrap();
    assert_eq!(
        m.lock(AppId(2), row(7), LockMode::S, &mut h).unwrap(),
        LockOutcome::Granted
    );
    // A second updater must wait: U-U conflict prevents the classic
    // S->X conversion deadlock.
    m.lock(
        AppId(3),
        ResourceId::Table(TableId(1)),
        LockMode::IX,
        &mut h,
    )
    .unwrap();
    assert_eq!(
        m.lock(AppId(3), row(7), LockMode::U, &mut h).unwrap(),
        LockOutcome::Queued
    );
    m.validate();
}

#[test]
fn u_converts_to_x_once_readers_drain() {
    let mut m = manager();
    let mut h = hooks();
    m.lock(
        AppId(1),
        ResourceId::Table(TableId(1)),
        LockMode::IX,
        &mut h,
    )
    .unwrap();
    m.lock(AppId(1), row(7), LockMode::U, &mut h).unwrap();
    m.lock(
        AppId(2),
        ResourceId::Table(TableId(1)),
        LockMode::IS,
        &mut h,
    )
    .unwrap();
    m.lock(AppId(2), row(7), LockMode::S, &mut h).unwrap();
    // The updater decides to write: the U->X conversion waits for the
    // reader but is queued at the front (conversion priority).
    assert_eq!(
        m.lock(AppId(1), row(7), LockMode::X, &mut h).unwrap(),
        LockOutcome::Queued
    );
    m.unlock_all(AppId(2), &mut h);
    let n = m.take_notifications();
    assert_eq!(n.len(), 1);
    assert_eq!(n[0].app, AppId(1));
    assert_eq!(m.held_mode(AppId(1), row(7)), Some(LockMode::X));
    // Conversion consumed no extra lock structures.
    m.validate();
}

#[test]
fn u_to_x_conversion_is_immediate_without_readers() {
    let mut m = manager();
    let mut h = hooks();
    m.lock(
        AppId(1),
        ResourceId::Table(TableId(1)),
        LockMode::IX,
        &mut h,
    )
    .unwrap();
    m.lock(AppId(1), row(1), LockMode::U, &mut h).unwrap();
    let used = m.pool().used_slots();
    assert_eq!(
        m.lock(AppId(1), row(1), LockMode::X, &mut h).unwrap(),
        LockOutcome::Granted
    );
    assert_eq!(m.pool().used_slots(), used, "conversions are free");
    assert_eq!(m.stats().conversions, 1);
}

#[test]
fn u_rows_escalate_to_exclusive_table_lock() {
    // U announces write intent, so escalating U rows must produce an X
    // table lock (a share lock would let other updaters sneak in).
    let mut m = manager();
    let total = m.pool().total_slots();
    let mut h = NoTuning {
        max_locks_percent: 12.0 * 100.0 / total as f64,
    };
    m.lock(
        AppId(1),
        ResourceId::Table(TableId(1)),
        LockMode::IX,
        &mut h,
    )
    .unwrap();
    let mut escalated = None;
    for r in 0..64 {
        if let LockOutcome::GrantedAfterEscalation { exclusive, .. } =
            m.lock(AppId(1), row(r), LockMode::U, &mut h).unwrap()
        {
            escalated = Some(exclusive);
            break;
        }
    }
    assert_eq!(escalated, Some(true), "U rows escalate exclusively");
    m.validate();
}

#[test]
fn fifo_post_method_vs_oracle_queue_jumping() {
    // §2.3's four-application example: app1 and app2 share, app3 queues
    // an incompatible request, app4's share request queues *behind*
    // app3 — the "post" method services requesters in order, unlike the
    // Oracle sleep-wake-check race the paper criticizes.
    let mut m = manager();
    let mut h = hooks();
    for a in [1, 2] {
        m.lock(
            AppId(a),
            ResourceId::Table(TableId(1)),
            LockMode::IS,
            &mut h,
        )
        .unwrap();
        assert_eq!(
            m.lock(AppId(a), row(42), LockMode::S, &mut h).unwrap(),
            LockOutcome::Granted
        );
    }
    m.lock(
        AppId(3),
        ResourceId::Table(TableId(1)),
        LockMode::IX,
        &mut h,
    )
    .unwrap();
    assert_eq!(
        m.lock(AppId(3), row(42), LockMode::X, &mut h).unwrap(),
        LockOutcome::Queued
    );
    m.lock(
        AppId(4),
        ResourceId::Table(TableId(1)),
        LockMode::IS,
        &mut h,
    )
    .unwrap();
    assert_eq!(
        m.lock(AppId(4), row(42), LockMode::S, &mut h).unwrap(),
        LockOutcome::Queued
    );

    // app1 and app2 release: app3 (X) is granted first, app4 still waits.
    m.unlock_all(AppId(1), &mut h);
    m.unlock_all(AppId(2), &mut h);
    let n = m.take_notifications();
    assert_eq!(n.len(), 1);
    assert_eq!(
        n[0].app,
        AppId(3),
        "the writer at the front wins; no jumping"
    );
    // app3 releases: app4 finally gets its share lock.
    m.unlock_all(AppId(3), &mut h);
    let n = m.take_notifications();
    assert_eq!(n.len(), 1);
    assert_eq!(n[0].app, AppId(4));
    m.validate();
}
