//! Tests for §6.1 selective escalation (escalation-preference bias).

use locktune_lockmgr::{
    AppId, EscalationBias, LockManager, LockManagerConfig, LockMode, LockOutcome, NoTuning,
    ResourceId, RowId, TableId,
};
use locktune_memalloc::{LockMemoryPool, PoolConfig};

fn manager() -> LockManager {
    let pool = LockMemoryPool::with_bytes(PoolConfig::default(), 4 << 20);
    LockManager::new(pool, LockManagerConfig::default())
}

fn row(t: u32, r: u64) -> ResourceId {
    ResourceId::Row(TableId(t), RowId(r))
}

#[test]
fn default_bias_is_prefer_growth() {
    let m = manager();
    assert_eq!(m.escalation_bias(AppId(1)), EscalationBias::PreferGrowth);
}

#[test]
fn biased_app_escalates_at_its_threshold() {
    let mut m = manager();
    let mut h = NoTuning {
        max_locks_percent: 98.0,
    };
    let app = AppId(1);
    m.set_escalation_bias(
        app,
        EscalationBias::PreferEscalation {
            table_row_threshold: 50,
        },
    );
    m.lock(app, ResourceId::Table(TableId(1)), LockMode::IX, &mut h)
        .unwrap();
    let mut escalated_at = None;
    for r in 0..200 {
        match m.lock(app, row(1, r), LockMode::X, &mut h).unwrap() {
            LockOutcome::Granted => {}
            LockOutcome::GrantedAfterEscalation { table, exclusive } => {
                assert_eq!(table, TableId(1));
                assert!(exclusive);
                escalated_at = Some(r);
                break;
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    assert_eq!(escalated_at, Some(50), "escalates exactly at the threshold");
    assert_eq!(m.stats().voluntary_escalations, 1);
    assert_eq!(m.stats().escalations, 1);
    // Lock memory stays tiny: one table lock instead of 200 rows.
    assert!(m.pool().used_slots() < 10);
    m.validate();
}

#[test]
fn threshold_is_per_table() {
    let mut m = manager();
    let mut h = NoTuning {
        max_locks_percent: 98.0,
    };
    let app = AppId(1);
    m.set_escalation_bias(
        app,
        EscalationBias::PreferEscalation {
            table_row_threshold: 30,
        },
    );
    for t in 1..=2 {
        m.lock(app, ResourceId::Table(TableId(t)), LockMode::IX, &mut h)
            .unwrap();
    }
    // Spread 25 rows on each table: below threshold everywhere.
    for r in 0..25 {
        assert_eq!(
            m.lock(app, row(1, r), LockMode::X, &mut h).unwrap(),
            LockOutcome::Granted
        );
        assert_eq!(
            m.lock(app, row(2, r), LockMode::X, &mut h).unwrap(),
            LockOutcome::Granted
        );
    }
    assert_eq!(m.stats().voluntary_escalations, 0);
    // Push table 1 over the threshold; table 2 keeps its row locks.
    for r in 25..40 {
        let _ = m.lock(app, row(1, r), LockMode::X, &mut h).unwrap();
    }
    assert_eq!(m.stats().voluntary_escalations, 1);
    assert_eq!(
        m.held_mode(app, ResourceId::Table(TableId(1))),
        Some(LockMode::X)
    );
    assert_eq!(m.app(app).unwrap().table_holdings(TableId(2)).rows, 25);
    m.validate();
}

#[test]
fn unbiased_apps_are_unaffected() {
    let mut m = manager();
    let mut h = NoTuning {
        max_locks_percent: 98.0,
    };
    let biased = AppId(1);
    let normal = AppId(2);
    m.set_escalation_bias(
        biased,
        EscalationBias::PreferEscalation {
            table_row_threshold: 10,
        },
    );
    for app in [biased, normal] {
        m.lock(app, ResourceId::Table(TableId(app.0)), LockMode::IX, &mut h)
            .unwrap();
    }
    for r in 0..100 {
        let _ = m.lock(biased, row(1, r), LockMode::X, &mut h).unwrap();
        assert_eq!(
            m.lock(normal, row(2, r), LockMode::X, &mut h).unwrap(),
            LockOutcome::Granted
        );
    }
    assert_eq!(m.stats().voluntary_escalations, 1);
    assert_eq!(m.app(normal).unwrap().table_holdings(TableId(2)).rows, 100);
    m.validate();
}

#[test]
fn share_rows_escalate_to_share_table_lock_under_bias() {
    let mut m = manager();
    let mut h = NoTuning {
        max_locks_percent: 98.0,
    };
    let app = AppId(1);
    m.set_escalation_bias(
        app,
        EscalationBias::PreferEscalation {
            table_row_threshold: 5,
        },
    );
    m.lock(app, ResourceId::Table(TableId(1)), LockMode::IS, &mut h)
        .unwrap();
    for r in 0..10 {
        match m.lock(app, row(1, r), LockMode::S, &mut h).unwrap() {
            LockOutcome::Granted => {}
            LockOutcome::GrantedAfterEscalation { exclusive, .. } => {
                assert!(!exclusive, "S rows escalate to a share table lock");
            }
            LockOutcome::CoveredByTableLock => {}
            other => panic!("unexpected {other:?}"),
        }
    }
    // Other readers continue to work.
    m.lock(
        AppId(2),
        ResourceId::Table(TableId(1)),
        LockMode::IS,
        &mut h,
    )
    .unwrap();
    assert_eq!(
        m.lock(AppId(2), row(1, 999), LockMode::S, &mut h).unwrap(),
        LockOutcome::Granted
    );
    m.validate();
}
