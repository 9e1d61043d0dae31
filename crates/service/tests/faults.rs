//! Self-healing behavior: background-thread health reporting, in-place
//! recovery of panicked background jobs, and shed mode under
//! sustained lock-memory exhaustion. The fault-driven tests need the
//! `faults` feature (`cargo test -p locktune-service --features
//! faults`); the health/shutdown contract test always runs.

use locktune_service::{LockService, ServiceConfig};

#[test]
fn thread_health_reports_live_threads_and_clean_shutdown() {
    let service = LockService::start(ServiceConfig::fast(4)).unwrap();
    let health = service.thread_health();
    assert!(health.alive, "the background thread should be running");
    assert_eq!(health.tuner_restarts, 0);
    assert_eq!(health.sweeper_restarts, 0);
    assert_eq!(service.watchdog_restarts(), 0);

    let report = service.shutdown();
    assert!(report.alive, "no faults, so the loop ran until the stop");
    assert_eq!(report.tuner_restarts, 0);
    assert_eq!(report.sweeper_restarts, 0);
}

#[cfg(feature = "faults")]
mod injected {
    use super::*;
    use locktune_lockmgr::{AppId, LockMode, ResourceId, TableId};
    use locktune_service::{FaultPlan, FaultSite, ServiceError};
    use std::sync::{Arc, Barrier};
    use std::time::{Duration, Instant};

    fn table(t: u32) -> ResourceId {
        ResourceId::Table(TableId(t))
    }

    /// Poll `done` every 5 ms for up to 10 s.
    fn wait_for(what: &str, mut done: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Panicking tuning intervals and deadlock sweeps are caught where
    /// they run: each one is counted once, the one background thread
    /// stays alive, tuning keeps ticking after the last panic and a
    /// deadlock built afterwards is still resolved.
    #[test]
    fn panicked_jobs_recover_in_place() {
        let faults = FaultPlan::new(7)
            .rate(FaultSite::TunerPanic, 1.0)
            .limit(FaultSite::TunerPanic, 2)
            .rate(FaultSite::SweeperPanic, 1.0)
            .limit(FaultSite::SweeperPanic, 1)
            .build();
        let config = ServiceConfig {
            tuning_interval: Duration::from_millis(10),
            deadlock_interval: Duration::from_millis(10),
            ..ServiceConfig::fast(2)
        };
        let service = Arc::new(LockService::start_with_faults(config, faults.clone()).unwrap());

        wait_for("every injected panic to be recovered from", || {
            let h = service.thread_health();
            (h.tuner_restarts, h.sweeper_restarts) == (2, 1)
        });
        assert_eq!(faults.injected(FaultSite::TunerPanic), 2);
        assert_eq!(faults.injected(FaultSite::SweeperPanic), 1);
        let h = service.thread_health();
        assert!(h.alive, "a caught panic must not end the loop: {h:?}");
        // Read from the always-on recovery count, so obs-off too.
        assert_eq!(service.obs_counters().watchdog_restarts, 3);

        let after_panics = service.tuning_counters().intervals;
        wait_for("a tuning interval after the last panic", || {
            service.tuning_counters().intervals > after_panics
        });

        // Apps 1 and 2 each hold one table and request the other's.
        let ready = Arc::new(Barrier::new(2));
        let outcomes: Vec<_> = [(1u32, 1u32, 2u32), (2, 2, 1)]
            .into_iter()
            .map(|(app, first, second)| {
                let (service, ready) = (Arc::clone(&service), Arc::clone(&ready));
                std::thread::spawn(move || {
                    let s = service.connect(AppId(app));
                    s.lock(table(first), LockMode::X).unwrap();
                    ready.wait();
                    let result = s.lock(table(second), LockMode::X).map(|_| ());
                    s.unlock_all().unwrap();
                    result
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|t| t.join().unwrap())
            .collect();
        assert_eq!(outcomes, [Ok(()), Err(ServiceError::DeadlockVictim)]);

        let report = Arc::try_unwrap(service)
            .unwrap_or_else(|_| panic!("service still shared"))
            .shutdown();
        assert!(report.alive, "post-recovery shutdown: {report:?}");
        assert_eq!((report.tuner_restarts, report.sweeper_restarts), (2, 1));
    }

    /// Sustained `OutOfLockMemory` engages shed mode (new requests get
    /// the retryable `Overloaded`), and a pressure-free tuning
    /// interval releases it.
    #[test]
    fn shed_mode_engages_and_releases() {
        let faults = FaultPlan::new(11).rate(FaultSite::AllocFail, 1.0).build();
        let config = ServiceConfig {
            // Manual tuning ticks only: the release decision must not
            // race a background interval mid-assertion.
            tuning_interval: Duration::from_secs(3600),
            shed_oom_threshold: 1,
            ..ServiceConfig::fast(2)
        };
        let service = LockService::start_with_faults(config, faults.clone()).unwrap();
        let session = service.connect(AppId(1));

        let denied = session.lock(table(1), LockMode::X);
        assert!(
            matches!(denied, Err(ServiceError::Lock(_))),
            "first request hits injected exhaustion: {denied:?}"
        );
        // Threshold 1: the surfaced denial engaged shed mode.
        assert_eq!(
            session.lock(table(2), LockMode::X),
            Err(ServiceError::Overloaded { tenant: None })
        );
        let mut batch = Vec::new();
        session.lock_many_into(&[(table(3), LockMode::S)], &mut batch);
        assert_eq!(
            batch[0].done(),
            Some(&Err(ServiceError::Overloaded { tenant: None })),
            "batches are shed too"
        );

        // End the storm so the post-release retry allocates normally.
        faults.disarm();

        // Interval 1 consumes the window that contains the denial;
        // interval 2 sees a quiet window and releases.
        service.run_tuning_interval_now();
        assert_eq!(
            session.lock(table(2), LockMode::X),
            Err(ServiceError::Overloaded { tenant: None }),
            "still engaged: the engaging window was not quiet"
        );
        service.run_tuning_interval_now();
        session.lock(table(2), LockMode::X).unwrap();
        session.unlock_all().unwrap();

        #[cfg(feature = "obs")]
        {
            let c = service.obs_counters();
            assert_eq!(c.shed_engaged, 1);
            assert_eq!(c.shed_released, 1);
            assert!(c.shed_rejected >= 3);
        }
        drop(session);
        service.validate();
        assert!(service.shutdown().alive);
    }

    /// A tenant-scoped service ([`ServiceConfig::tenant_id`]) stamps
    /// its id into every `Overloaded` rejection — both the single-lock
    /// and the batch path — so a client driving several databases
    /// backs off exactly the one that shed. Shedding stays a
    /// per-service decision: a second service sharing the process but
    /// configured as another tenant keeps granting throughout.
    #[test]
    fn shed_rejections_carry_the_tenant_id() {
        let faults = FaultPlan::new(13).rate(FaultSite::AllocFail, 1.0).build();
        let config = ServiceConfig {
            tuning_interval: Duration::from_secs(3600),
            shed_oom_threshold: 1,
            tenant_id: Some(42),
            ..ServiceConfig::fast(2)
        };
        let shedding = LockService::start_with_faults(config, faults.clone()).unwrap();
        let healthy = LockService::start(ServiceConfig {
            tenant_id: Some(7),
            ..ServiceConfig::fast(2)
        })
        .unwrap();

        let session = shedding.connect(AppId(1));
        assert!(
            matches!(
                session.lock(table(1), LockMode::X),
                Err(ServiceError::Lock(_))
            ),
            "first request hits injected exhaustion"
        );
        assert_eq!(
            session.lock(table(2), LockMode::X),
            Err(ServiceError::Overloaded { tenant: Some(42) }),
            "single-lock rejection names the shedding tenant"
        );
        let mut batch = Vec::new();
        session.lock_many_into(&[(table(3), LockMode::S)], &mut batch);
        assert_eq!(
            batch[0].done(),
            Some(&Err(ServiceError::Overloaded { tenant: Some(42) })),
            "batch rejection names the shedding tenant"
        );

        // Independence: tenant 7 shares nothing with tenant 42's shed
        // decision and keeps granting.
        let other = healthy.connect(AppId(1));
        other.lock(table(1), LockMode::X).unwrap();
        other.unlock_all().unwrap();
        faults.disarm();
        drop(session);
        drop(other);
        shedding.validate();
        healthy.validate();
        assert!(shedding.shutdown().alive);
        assert!(healthy.shutdown().alive);
    }
}
