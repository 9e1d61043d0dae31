//! Chaos soak: the full TCP stack under a deterministic fault
//! schedule, checked for *paired recovery* — every injected fault must
//! leave a matching trace of the service healing itself, and the run
//! must end with the same exact accounting a fault-free run ends with.
//!
//! Only built with `--features faults`; the plan's seed fixes the
//! entire fault schedule, so each seed is a reproducible scenario:
//!
//! * injected tuner/sweeper panics → in-place job recoveries (counted,
//!   journaled, the background thread alive at the end);
//! * injected torn frames / stalls / disconnects on the wire →
//!   [`ReconnectingClient`] reconnect cycles with explicit
//!   `Reconnected` transaction aborts, never silent retries;
//! * injected allocation failures → clean per-request
//!   `OutOfLockMemory` aborts (and shed-mode rejections if sustained);
//! * after the storm: pool drains to zero used slots and the shard /
//!   pool accounting audit passes exactly.

#![cfg(feature = "faults")]

use std::sync::Arc;
use std::time::Duration;

use locktune_integration_tests::{assert_drained, eventually};
use locktune_net::{IoModel, ReconnectConfig, ReconnectingClient, Server, ServerConfig};
use locktune_obs::EventKind;
use locktune_service::txn::{self, Tally, TxnOutcome};
use locktune_service::{FaultInjector, FaultPlan, FaultSite, LockService, ServiceConfig};
use locktune_sim::SimRng;
use locktune_workload::Mix;

const WORKERS: u64 = 4;
const TXNS_PER_WORKER: u64 = 60;

/// The storm profile. Rates are calibrated so a run of
/// `WORKERS * TXNS_PER_WORKER` transactions sees every fault site
/// fire at least once while still terminating quickly.
fn plan(seed: u64) -> FaultInjector {
    FaultPlan::new(seed)
        // ~1 in 50 pool allocations fails.
        .rate(FaultSite::AllocFail, 0.02)
        // Periodic wire faults: a stalled write, a torn frame and a
        // hard disconnect, each on its own cadence.
        .burst(FaultSite::WireStall, 97, 1)
        .burst(FaultSite::WireTorn, 151, 1)
        .burst(FaultSite::WireDisconnect, 211, 1)
        .stall(Duration::from_millis(1))
        // Both background jobs panic (twice each) the moment they
        // run; the loop must catch each panic and carry on.
        .rate(FaultSite::TunerPanic, 1.0)
        .limit(FaultSite::TunerPanic, 2)
        .rate(FaultSite::SweeperPanic, 1.0)
        .limit(FaultSite::SweeperPanic, 2)
        .build()
}

/// One worker: small OLTP transactions (an IX intent and 4 X rows on
/// one of 8 tables of 256 rows) through a reconnecting session. Every
/// survivable failure is counted by the shared loop; anything else
/// fails the test. Returns the tally and the reconnect cycles.
fn worker(addr: std::net::SocketAddr, seed: u64) -> (Tally, u64) {
    let policy = ReconnectConfig {
        max_attempts: 50,
        base_delay: Duration::from_millis(2),
        max_delay: Duration::from_millis(100),
        seed,
        ..ReconnectConfig::default()
    };
    let mut rc = ReconnectingClient::connect(addr, policy).expect("worker connect");
    let mix = Mix::new(8, 256, 4).unwrap();
    let mut rng = SimRng::seed_from_u64(seed);
    let mut tally = Tally::default();
    txn::run(&mut rc, &mix, &mut rng, TXNS_PER_WORKER, &mut tally).expect("worker storm");
    (tally, rc.stats().reconnects)
}

fn run_chaos(seed: u64, model: IoModel) {
    let faults = plan(seed);
    assert!(faults.is_armed(), "plan must arm the injector");

    let config = ServiceConfig {
        shed_oom_threshold: 8,
        ..ServiceConfig::fast(4)
    };
    let service =
        Arc::new(LockService::start_with_faults(config, faults.clone()).expect("service start"));
    let server = Server::bind_with_config(
        Arc::clone(&service),
        "127.0.0.1:0",
        ServerConfig {
            reply_queue_capacity: 32,
            max_connections: 16,
            eviction_deadline: Duration::from_secs(2),
            faults: faults.clone(),
            io_model: model,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr();

    let workers: Vec<_> = (0..WORKERS)
        .map(|w| std::thread::spawn(move || worker(addr, seed ^ (w + 1).wrapping_mul(0x9E37))))
        .collect();
    let mut tally = Tally::default();
    let mut reconnect_cycles = 0;
    for w in workers {
        let (t, cycles) = w.join().expect("worker panicked");
        tally.merge(&t);
        reconnect_cycles += cycles;
    }
    let committed = tally.get(TxnOutcome::Committed);
    let reconnected_txns = tally.get(TxnOutcome::Lost);
    // The storm must not have prevented all progress.
    assert!(committed > 0, "no transaction survived the storm");

    // The workload can outrun the background jobs' intervals: let
    // the panic sites exhaust their limits (each job panics twice and
    // is recovered from in between) before stopping the storm, then
    // disarm so the recovery checks race nothing.
    assert!(
        eventually(Duration::from_secs(10), || {
            faults.injected(FaultSite::TunerPanic) == 2
                && faults.injected(FaultSite::SweeperPanic) == 2
        })
        .is_some(),
        "panic sites did not reach their limits: tuner {}, sweeper {}",
        faults.injected(FaultSite::TunerPanic),
        faults.injected(FaultSite::SweeperPanic),
    );
    faults.disarm();

    // Every injected panic must be paired with one recovery, and the
    // background thread must end the run alive.
    let tuner_panics = faults.injected(FaultSite::TunerPanic);
    let sweeper_panics = faults.injected(FaultSite::SweeperPanic);
    assert!(
        eventually(Duration::from_secs(10), || {
            let h = service.thread_health();
            h.alive && h.tuner_restarts == tuner_panics && h.sweeper_restarts == sweeper_panics
        })
        .is_some(),
        "not every injected panic was paired with a recovery: {:?}",
        service.thread_health()
    );

    // Every injected wire fault must be paired with a client-side
    // reconnect cycle (and those cycles must have been surfaced as
    // explicit transaction aborts, not silent retries).
    let kills = faults.injected(FaultSite::WireTorn) + faults.injected(FaultSite::WireDisconnect);
    assert!(kills > 0, "wire-fault sites never fired; storm too weak");
    assert!(
        reconnect_cycles > 0,
        "{kills} injected wire kills but no client reconnected"
    );
    assert!(
        reconnected_txns > 0,
        "reconnects happened but no transaction observed `Reconnected`"
    );

    // Alloc faults fired and were survived (the audit below proves the
    // aborts they caused leaked nothing).
    assert!(
        faults.injected(FaultSite::AllocFail) > 0,
        "alloc-fault site never fired; storm too weak"
    );

    // Drain: all clients are gone; the server tears their sessions
    // down asynchronously and every lock slot must come back.
    assert_drained(std::slice::from_ref(&service));

    // The journal must carry the recovery record: recoveries and the
    // injection events themselves.
    let counters = service.obs_counters();
    assert_eq!(
        counters.watchdog_restarts,
        tuner_panics + sweeper_panics,
        "journaled restarts must match injected panics"
    );
    assert!(
        counters.faults_injected > 0,
        "fault injections must be journaled"
    );
    let snap = service.observe(0, 4096);
    let journaled_restarts = snap
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::WatchdogRestart { .. }))
        .count() as u64;
    assert_eq!(
        journaled_restarts,
        tuner_panics + sweeper_panics,
        "every recovery must appear in the journal"
    );
    assert!(
        snap.events
            .iter()
            .any(|e| matches!(e.kind, EventKind::FaultInjected { .. })),
        "fault injection must appear in the journal"
    );

    server.shutdown();
    let report = Arc::try_unwrap(service)
        .unwrap_or_else(|_| panic!("service still shared after server shutdown"))
        .shutdown();
    assert!(
        report.alive,
        "the background thread must shut down cleanly after the storm: {report:?}"
    );
}

#[test]
fn chaos_soak_seed_7() {
    run_chaos(7, IoModel::Threaded);
}

#[test]
fn chaos_soak_seed_1984() {
    run_chaos(1984, IoModel::Threaded);
}

#[test]
fn chaos_soak_seed_0xdb2() {
    run_chaos(0xDB2, IoModel::Threaded);
}

// The same storms against the evented core: injected wire faults land
// inside the shard loop (the stall blocks its event loop briefly, torn
// frames and disconnects kill the connection mid-reply) and the run
// must still end with zero leaked slots and exact accounting.
#[test]
fn chaos_soak_seed_7_evented() {
    run_chaos(7, IoModel::Evented);
}

#[test]
fn chaos_soak_seed_1984_evented() {
    run_chaos(1984, IoModel::Evented);
}

#[test]
fn chaos_soak_seed_0xdb2_evented() {
    run_chaos(0xDB2, IoModel::Evented);
}

/// Tenant storm: three tenants under one machine budget, allocation
/// faults and background-thread panics injected into every tenant's
/// service, the heaviest tenant driven into shed pressure and then
/// dropped mid-storm. Whatever the storm does to one tenant, the
/// machine ledger must account for every byte — a tenant crash or
/// shed never leaks (or steals) another tenant's budget.
#[test]
fn tenant_storm_never_leaks_budget() {
    use locktune_lockmgr::{AppId, LockMode, ResourceId, RowId, TableId};
    use locktune_tenants::{TenantDirectory, TenantsConfig};

    const MIB: u64 = 1024 * 1024;
    let faults = locktune_service::FaultPlan::new(0xDB2_7E4A)
        .rate(FaultSite::AllocFail, 0.05)
        .rate(FaultSite::TunerPanic, 1.0)
        .limit(FaultSite::TunerPanic, 2)
        .rate(FaultSite::SweeperPanic, 1.0)
        .limit(FaultSite::SweeperPanic, 2)
        .build();
    assert!(faults.is_armed());

    let config = TenantsConfig {
        machine_budget_bytes: 24 * MIB,
        arbiter_interval: Duration::from_millis(20),
        service: ServiceConfig {
            shed_oom_threshold: 8,
            ..ServiceConfig::fast(2)
        },
        ..TenantsConfig::fast(2)
    };
    let floor = config.floor_bytes;
    let dir = Arc::new(TenantDirectory::start_with_faults(config, faults.clone()).unwrap());
    let quiet: Vec<_> = (0..2u32).map(|id| dir.create_tenant(id).unwrap()).collect();
    let heavy = dir.create_tenant(2).unwrap();

    // Two OLTP workers per quiet tenant: an IX intent and 8 X rows on
    // one of 4 tables of 256 rows. Every service-level abort (injected
    // alloc failure, timeout, shed rejection) is counted by the shared
    // loop and the storm carries on.
    let mix = Mix::new(4, 256, 8).unwrap();
    let mut workers = Vec::new();
    for (t, service) in quiet.iter().enumerate() {
        for w in 0..2u64 {
            let service = Arc::clone(service);
            workers.push(std::thread::spawn(move || {
                let mut session = service.connect(AppId(100 * (t as u32 + 1) + w as u32));
                let mut rng = SimRng::seed_from_u64(w ^ 0xC0FFEE);
                let Ok(()) = txn::run(&mut session, &mix, &mut rng, 200, &mut Tally::default());
            }));
        }
    }
    // The heavy tenant floods row locks until its tuner is squeezed —
    // denials, denied sync growth, possibly shed mode.
    let heavy_worker = {
        let service = Arc::clone(&heavy);
        std::thread::spawn(move || {
            let session = service.connect(AppId(999));
            for pass in 0..2u64 {
                'tables: for t in 0..64u32 {
                    let _ = session.lock(ResourceId::Table(TableId(t)), LockMode::IX);
                    for r in 0..2048u64 {
                        if session
                            .lock(
                                ResourceId::Row(TableId(t), RowId(pass * 4096 + r)),
                                LockMode::X,
                            )
                            .is_err()
                            && r > 64
                        {
                            continue 'tables;
                        }
                    }
                }
                let _ = session.unlock_all();
            }
            let _ = session.unlock_all();
        })
    };

    // Mid-storm: drop the heavy tenant while its sessions are still
    // hammering away. The ledger reclaims its entire budget line at
    // once; the orphaned service winds down when its handles drop.
    std::thread::sleep(Duration::from_millis(100));
    let before = dir.rollup();
    let heavy_budget = before
        .tenants
        .iter()
        .find(|t| t.id == 2)
        .expect("heavy tenant in rollup")
        .budget;
    let reclaimed = dir.drop_tenant(2).unwrap();
    assert_eq!(reclaimed, heavy_budget, "drop returns the whole line");
    assert!(reclaimed >= floor);

    heavy_worker.join().unwrap();
    for w in workers {
        w.join().unwrap();
    }
    faults.disarm();

    // The storm was real: alloc faults fired and the heavy tenant was
    // genuinely squeezed before it went away.
    assert!(
        faults.injected(FaultSite::AllocFail) > 0,
        "alloc-fault site never fired; storm too weak"
    );
    let heavy_stats = heavy.stats();
    assert!(
        heavy_stats.denials + heavy_stats.sync_growth_denied + heavy_stats.escalations > 0,
        "heavy tenant was never squeezed: {heavy_stats:?}"
    );

    // The headline invariant: every machine byte is either a surviving
    // tenant's budget or free, floors hold, and the per-tenant pool
    // accounting audits exactly. A shedding or dropped tenant leaked
    // nothing.
    let after = dir.rollup();
    assert_eq!(after.tenants.len(), 2);
    let budgets: u64 = after.tenants.iter().map(|t| t.budget).sum();
    assert_eq!(budgets + after.free_budget, after.machine_budget);
    assert!(after.tenants.iter().all(|t| t.budget >= floor));
    dir.validate();

    drop(heavy);
    drop(quiet);
    Arc::try_unwrap(dir)
        .unwrap_or_else(|_| panic!("directory still shared"))
        .shutdown();
}
