//! Tests for the service's observability surface: the `observe()`
//! scrape, the wait-timing invariant, and the `tuning_reports_since`
//! cursor contract the wire endpoint and `locktune-top` rely on.

use std::sync::{Arc, Barrier};
use std::time::Duration;

use locktune_lockmgr::{AppId, LockMode, ResourceId, RowId, TableId};
use locktune_obs::EventKind;
use locktune_service::{BatchOutcome, LockService, ServiceConfig, ServiceError};

fn table(t: u32) -> ResourceId {
    ResourceId::Table(TableId(t))
}

fn row(t: u32, r: u64) -> ResourceId {
    ResourceId::Row(TableId(t), RowId(r))
}

/// Every lock request that waited is timed: at quiescence the merged
/// lock-wait histogram's count equals `LockStats::waits` exactly. This
/// is the invariant the CI smoke test audits over the wire.
#[test]
fn wait_histogram_count_matches_wait_stat() {
    let service = Arc::new(LockService::start(ServiceConfig::fast(4)).unwrap());
    let holder = service.connect(AppId(1));
    holder.lock(table(0), LockMode::X).unwrap();

    let started = Arc::new(Barrier::new(3));
    let waiters: Vec<_> = (0..2u32)
        .map(|i| {
            let service = Arc::clone(&service);
            let started = Arc::clone(&started);
            std::thread::spawn(move || {
                let s = service.connect(AppId(10 + i));
                started.wait();
                s.lock(table(0), LockMode::S).unwrap();
                s.unlock_all().unwrap();
            })
        })
        .collect();
    started.wait();
    std::thread::sleep(Duration::from_millis(50));
    holder.unlock_all().unwrap();
    for w in waiters {
        w.join().unwrap();
    }

    let snap = service.observe(0, 0);
    assert_eq!(snap.lock_stats.waits, 2);
    assert_eq!(
        snap.lock_wait_micros.count(),
        snap.lock_stats.waits,
        "every wait is timed, nothing else is"
    );
    // Both waiters parked ~50ms; the histogram must have seen it.
    assert!(snap.lock_wait_micros.max >= 10_000, "waits were ~50ms");
    // A fresh session has not earned a spin (and a 50 ms wait would
    // outlive one anyway): both waiters parked on their channel.
    assert_eq!(
        (snap.counters.grant_spin_hits, snap.counters.grant_parks),
        (0, 2),
        "every grant wait ends in exactly one of the two counters"
    );
}

/// Timeouts are counted by obs and also timed as waits.
#[test]
fn timeout_is_counted_and_timed() {
    let mut config = ServiceConfig::fast(2);
    config.lock_wait_timeout = Some(Duration::from_millis(50));
    let service = LockService::start(config).unwrap();
    let holder = service.connect(AppId(1));
    holder.lock(table(0), LockMode::X).unwrap();

    let s = service.connect(AppId(2));
    assert_eq!(s.lock(table(0), LockMode::X), Err(ServiceError::Timeout));
    // The same wait through a blocking `lock_many`: one more
    // timeout, one more wait sample, and the tail skipped.
    let outcomes = s.lock_many(&[(table(0), LockMode::X), (table(1), LockMode::X)]);
    assert_eq!(
        outcomes,
        vec![
            BatchOutcome::Done(Err(ServiceError::Timeout)),
            BatchOutcome::Skipped
        ]
    );

    let snap = service.observe(0, 16);
    assert_eq!(snap.counters.timeouts, 2);
    assert_eq!(snap.lock_stats.waits, 2);
    assert_eq!(snap.lock_wait_micros.count(), snap.lock_stats.waits);
    holder.unlock_all().unwrap();
}

/// Batches are counted and sized; a deadlock victim lands in both the
/// victim counter and the journal; and journal delivery is destructive
/// — a second scrape sees nothing new.
#[test]
fn observe_journal_and_batch_accounting() {
    let service = Arc::new(LockService::start(ServiceConfig::fast(4)).unwrap());
    let s = service.connect(AppId(1));

    let mut reqs = vec![(table(9), LockMode::IX)];
    reqs.extend((0..32).map(|r| (row(9, r), LockMode::X)));
    let outcomes = s.lock_many(&reqs);
    assert_eq!(outcomes.len(), reqs.len());
    s.unlock_all().unwrap();

    // Deterministic deadlock: apps 2 and 3 cross on tables 0 and 1;
    // the sweeper (10ms cadence in `fast`) aborts the highest AppId.
    let ready = Arc::new(Barrier::new(2));
    let handles: Vec<_> = [(2u32, 0u32, 1u32), (3, 1, 0)]
        .into_iter()
        .map(|(app, first, second)| {
            let service = Arc::clone(&service);
            let ready = Arc::clone(&ready);
            std::thread::spawn(move || {
                let sess = service.connect(AppId(app));
                sess.lock(table(first), LockMode::X).unwrap();
                ready.wait();
                let result = sess.lock(table(second), LockMode::X).map(|_| ());
                sess.unlock_all().unwrap();
                result
            })
        })
        .collect();
    let outcomes: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert_eq!(outcomes[1], Err(ServiceError::DeadlockVictim));

    let snap = service.observe(0, 64);
    assert_eq!(snap.counters.batches, 1);
    assert_eq!(snap.counters.batch_items, reqs.len() as u64);
    assert_eq!(snap.batch_size.count(), 1);
    assert_eq!(snap.batch_size.sum, reqs.len() as u64);
    assert_eq!(snap.counters.deadlock_victims, 1);
    assert!(
        snap.events
            .iter()
            .any(|e| matches!(e.kind, EventKind::DeadlockVictim { app } if app == AppId(3))),
        "victim must be journaled: {:?}",
        snap.events
    );
    assert_eq!(snap.next_event_seq, snap.counters.journal_recorded);

    // Destructive drain: the same events are not delivered twice.
    let again = service.observe(snap.next_tick_seq, 64);
    assert!(
        again.events.is_empty(),
        "journal events delivered twice: {:?}",
        again.events
    );
}

/// The tick cursor contract: feeding each scrape's `next_tick_seq`
/// back yields every tuning interval exactly once, in order, with
/// gap-free sequence numbers; a cursor at the tip yields nothing; a
/// stale cursor is clamped to the retained window.
#[test]
fn tuning_tick_cursor_sees_each_interval_once() {
    let mut config = ServiceConfig::fast(2);
    config.tuning_log_capacity = 16;
    // Quiet the background tuner so only the explicit calls tick.
    config.tuning_interval = Duration::from_secs(3600);
    let service = LockService::start(config).unwrap();

    let mut cursor = 0;
    let mut seen = Vec::new();
    for round in 0..3 {
        for _ in 0..4 {
            service.run_tuning_interval_now();
        }
        let snap = service.observe(cursor, 0);
        assert_eq!(
            snap.ticks.len(),
            4,
            "round {round}: each interval delivered exactly once"
        );
        cursor = snap.next_tick_seq;
        seen.extend(snap.ticks);
    }
    assert_eq!(seen.len(), 12);
    for (i, t) in seen.iter().enumerate() {
        assert_eq!(t.seq, i as u64, "tick seqs are gap-free and ordered");
    }
    assert_eq!(seen.last().unwrap().seq + 1, cursor);

    // At the tip: nothing new, cursor unchanged.
    let snap = service.observe(cursor, 0);
    assert!(snap.ticks.is_empty());
    assert_eq!(snap.next_tick_seq, cursor);

    // A cursor beyond the tip is also safe (returns empty, reports the
    // true tip so the poller resynchronizes).
    let snap = service.observe(cursor + 100, 0);
    assert!(snap.ticks.is_empty());
    assert_eq!(snap.next_tick_seq, cursor);

    // Overflow the retained window (capacity 16): a cold poller
    // (cursor 0) gets the window's tail with correct absolute
    // sequences, not a panic.
    for _ in 0..24 {
        service.run_tuning_interval_now();
    }
    let snap = service.observe(0, 0);
    assert_eq!(snap.ticks.len(), 16, "window keeps the newest capacity");
    assert_eq!(
        snap.ticks.last().unwrap().seq + 1,
        snap.next_tick_seq,
        "absolute seqs survive log eviction"
    );
    assert_eq!(
        snap.ticks.first().unwrap().seq,
        snap.next_tick_seq - snap.ticks.len() as u64
    );
}

/// `observe` gauges agree with the individual accessors at quiescence.
#[test]
fn observe_gauges_match_accessors() {
    let service = LockService::start(ServiceConfig::fast(2)).unwrap();
    let s = service.connect(AppId(7));
    s.lock(table(1), LockMode::IX).unwrap();
    s.lock(row(1, 1), LockMode::X).unwrap();

    let snap = service.observe(0, 0);
    assert_eq!(snap.pool_slots_used, service.pool_used_slots());
    assert_eq!(snap.connected_apps, 1);
    assert_eq!(snap.app_percent, service.app_percent());
    let params = service.params();
    assert_eq!(snap.min_free_fraction, params.min_free_fraction);
    assert_eq!(snap.max_free_fraction, params.max_free_fraction);
    assert!(snap.free_fraction > 0.0 && snap.free_fraction <= 1.0);
    s.unlock_all().unwrap();
}
