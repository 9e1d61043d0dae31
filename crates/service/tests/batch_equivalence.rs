//! `Session::lock_many` is a performance path, not a semantic one:
//! shard-grouped batch execution must produce exactly the per-request
//! outcomes, lock-set contents and slot accounting of issuing the same
//! requests as sequential `lock()` calls.

use std::time::Duration;

use locktune_lockmgr::{AppId, LockMode, ResourceId, RowId, TableId};
use locktune_service::{BatchOutcome, LockService, ServiceConfig, ServiceError};
use locktune_sim::check::{self as proptest, prelude::*};

fn table(t: u32) -> ResourceId {
    ResourceId::Table(TableId(t))
}

fn row(t: u32, r: u64) -> ResourceId {
    ResourceId::Row(TableId(t), RowId(r))
}

/// Timers parked (hour-scale intervals) and ample memory: the only
/// actor is the test session, so both executions are deterministic.
fn quiet_service(shards: usize) -> LockService {
    let config = ServiceConfig {
        tuning_interval: Duration::from_secs(3600),
        deadlock_interval: Duration::from_secs(3600),
        lock_wait_timeout: None,
        ..ServiceConfig::fast(shards)
    };
    LockService::start(config).expect("service start")
}

fn mode() -> BoxedStrategy<LockMode> {
    prop_oneof![
        Just(LockMode::IS),
        Just(LockMode::IX),
        Just(LockMode::S),
        Just(LockMode::SIX),
        Just(LockMode::U),
        Just(LockMode::X),
    ]
    .boxed()
}

/// A small resource universe so batches revisit resources (AlreadyHeld,
/// upgrades), skip intents (MissingIntent) and trigger escalation.
fn request() -> BoxedStrategy<(ResourceId, LockMode)> {
    let res = prop_oneof![
        (0u32..4).prop_map(table),
        (0u32..4, 0u64..12).prop_map(|(t, r)| row(t, r)),
    ];
    (res, mode()).boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One batched execution vs the same requests issued sequentially,
    /// each against a fresh service: identical per-request outcomes
    /// (modulo the `Done` wrapper), identical charged slots, identical
    /// commit report.
    #[test]
    fn lock_many_matches_sequential_lock(
        reqs in proptest::collection::vec(request(), 0..60),
        shards in 1usize..5,
    ) {
        let batched_svc = quiet_service(shards);
        let sequential_svc = quiet_service(shards);
        let batched = batched_svc.connect(AppId(1));
        let sequential = sequential_svc.connect(AppId(1));

        let got = batched.lock_many(&reqs);
        prop_assert_eq!(got.len(), reqs.len());
        for (i, (res, mode)) in reqs.iter().enumerate() {
            let want = sequential.lock(*res, *mode);
            // A single uncontended session never hits a session-fatal
            // error, so nothing is ever Skipped: full equivalence.
            prop_assert_eq!(
                &got[i],
                &BatchOutcome::Done(want),
                "request {} = {:?} {:?} diverged",
                i, res, mode
            );
        }

        prop_assert_eq!(batched_svc.charged_slots(), sequential_svc.charged_slots());
        batched_svc.validate();
        sequential_svc.validate();

        let batched_report = batched.unlock_all().unwrap();
        let sequential_report = sequential.unlock_all().unwrap();
        prop_assert_eq!(batched_report, sequential_report);
        prop_assert_eq!(batched_svc.charged_slots(), 0);
    }
}

/// Stop-on-session-fatal semantics: a mid-batch timeout reports the
/// failing request, leaves everything after it `Skipped`, and the
/// session's lock set is exactly the granted prefix.
#[test]
fn session_fatal_error_skips_the_rest_of_the_batch() {
    let config = ServiceConfig {
        lock_wait_timeout: Some(Duration::from_millis(100)),
        ..ServiceConfig::fast(1)
    };
    let service = LockService::start(config).expect("service start");

    let holder = service.connect(AppId(1));
    holder.lock(table(0), LockMode::IX).unwrap();
    holder.lock(row(0, 5), LockMode::X).unwrap();

    let batcher = service.connect(AppId(2));
    let outcomes = batcher.lock_many(&[
        (table(0), LockMode::IX),
        (row(0, 5), LockMode::X), // conflicts with the holder → timeout
        (row(0, 6), LockMode::X), // never attempted
    ]);
    assert_eq!(
        outcomes,
        vec![
            BatchOutcome::Done(Ok(locktune_lockmgr::LockOutcome::Granted)),
            BatchOutcome::Done(Err(ServiceError::Timeout)),
            BatchOutcome::Skipped,
        ]
    );
    assert_eq!(outcomes.iter().filter(|o| o.is_granted()).count(), 1);

    // The granted prefix is all the batch session holds.
    assert_eq!(batcher.unlock_all().unwrap().released_locks, 1);
    holder.unlock_all().unwrap();
    service.validate();
}
