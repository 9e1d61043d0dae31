//! Multi-tenant end-to-end tests: a real [`Server`] fronting a
//! [`TenantDirectory`] on a loopback socket. The headline property is
//! the ISSUE's noisy-neighbor regression — with the arbiter on, an
//! OLTP tenant's p99 lock wait stays within a bounded factor of its
//! solo baseline while a DSS tenant surges — plus the routing rules
//! (HELLO binds, unbound reads see the machine rollup, lock traffic
//! before HELLO is a protocol kill) and the per-tenant shed path
//! (`Overloaded` names the shedding tenant on the wire).

use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::{Duration, Instant};

use locktune_cli::stress;
use locktune_lockmgr::{LockMode, LockOutcome, ResourceId, RowId, TableId};
use locktune_net::wire::Request;
use locktune_net::{Client, ClientError, Reply, Server};
use locktune_service::{ServiceConfig, ServiceError};
use locktune_tenants::{TenantDirectory, TenantsConfig};
use locktune_workload::Mix;

const MIB: u64 = 1024 * 1024;
const KIB: u64 = 1024;

/// A directory + server on a loopback socket. `tenants` are created
/// before the server binds, so every test starts from a known split.
fn tenant_server(config: TenantsConfig, tenants: u32) -> (Server, Arc<TenantDirectory>, String) {
    let directory = Arc::new(TenantDirectory::start(config).expect("directory start"));
    for id in 0..tenants {
        directory.create_tenant(id).expect("create tenant");
    }
    let server = Server::bind_tenants(Arc::clone(&directory), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr().to_string();
    (server, directory, addr)
}

fn fast_config(machine_mib: u64, arbiter: Duration) -> TenantsConfig {
    TenantsConfig {
        machine_budget_bytes: machine_mib * MIB,
        arbiter_interval: arbiter,
        ..TenantsConfig::fast(2)
    }
}

#[test]
fn tenants_are_isolated_lock_spaces() {
    let (server, directory, addr) = tenant_server(fast_config(16, Duration::ZERO), 2);

    // The same resource, exclusively, in both tenants at once: they
    // are separate databases, so there is nothing to conflict with.
    let mut a = Client::connect(&addr).unwrap();
    a.hello(0).unwrap();
    let mut b = Client::connect(&addr).unwrap();
    b.hello(1).unwrap();
    let table = ResourceId::Table(TableId(1));
    assert_eq!(a.lock(table, LockMode::X).unwrap(), LockOutcome::Granted);
    assert_eq!(b.lock(table, LockMode::X).unwrap(), LockOutcome::Granted);

    // An unbound control connection reads the machine rollup: both
    // apps visible, both tenants' slots counted.
    let mut control = Client::connect(&addr).unwrap();
    let stats = control.metrics(u64::MAX, 0).unwrap();
    assert_eq!(stats.connected_apps, 2);
    assert!(stats.pool_slots_used >= 2, "both X locks charged");

    let reply = control.tenant_stats(0).unwrap();
    assert_eq!(reply.rollup.tenants.len(), 2);
    let budgets: u64 = reply.rollup.tenants.iter().map(|t| t.budget).sum();
    assert_eq!(
        budgets + reply.rollup.free_budget,
        reply.rollup.machine_budget
    );

    a.unlock_all().unwrap();
    b.unlock_all().unwrap();
    server.shutdown();
    if let Ok(d) = Arc::try_unwrap(directory) {
        d.shutdown();
    }
}

#[test]
fn hello_refusals() {
    let (server, _directory, addr) = tenant_server(fast_config(16, Duration::ZERO), 2);

    // Unknown tenant: refused with a message, connection stays alive.
    let mut c = Client::connect(&addr).unwrap();
    match c.hello(9) {
        Err(ClientError::Protocol(msg)) => assert!(msg.contains('9'), "got {msg:?}"),
        other => panic!("expected refusal for unknown tenant, got {other:?}"),
    }
    // ...and a correct HELLO still works on the same connection.
    c.hello(1).unwrap();
    // Re-binding is refused (sessions do not migrate between tenants).
    match c.hello(0) {
        Err(ClientError::Protocol(_)) => {}
        other => panic!("expected double-bind refusal, got {other:?}"),
    }
    // The original binding survived the refused re-bind.
    assert_eq!(
        c.lock(ResourceId::Table(TableId(1)), LockMode::IX).unwrap(),
        LockOutcome::Granted
    );
    c.unlock_all().unwrap();
    server.shutdown();
}

#[test]
fn lock_before_hello_is_a_protocol_kill() {
    let (server, _directory, addr) = tenant_server(fast_config(16, Duration::ZERO), 2);

    let mut c = Client::connect(&addr).unwrap();
    let id = c
        .send(&Request::Lock {
            res: ResourceId::Table(TableId(1)),
            mode: LockMode::IX,
        })
        .unwrap();
    // The server kills the connection rather than guessing a tenant:
    // the wait sees either EOF or a reset, never a Lock reply.
    match c.wait(id) {
        Err(ClientError::Io(_)) | Err(ClientError::Protocol(_)) => {}
        Ok(reply) => panic!("unbound lock must not be answered, got {reply:?}"),
        Err(e) => panic!("expected the connection to die, got {e}"),
    }
    server.shutdown();
}

#[test]
fn dropping_a_tenant_evicts_its_connections_and_reclaims_its_budget() {
    let (server, directory, addr) = tenant_server(fast_config(16, Duration::ZERO), 3);

    let mut victim = Client::connect(&addr).unwrap();
    victim.hello(2).unwrap();
    victim
        .lock(ResourceId::Table(TableId(4)), LockMode::IX)
        .unwrap();
    for r in 0..16 {
        victim
            .lock(ResourceId::Row(TableId(4), RowId(r)), LockMode::X)
            .unwrap();
    }
    let mut bystander = Client::connect(&addr).unwrap();
    bystander.hello(0).unwrap();
    bystander
        .lock(ResourceId::Table(TableId(4)), LockMode::IX)
        .unwrap();

    let mut control = Client::connect(&addr).unwrap();
    let before = control.tenant_stats(0).unwrap().rollup;
    let budget_2 = before.tenants.iter().find(|t| t.id == 2).unwrap().budget;

    let reclaimed = control.tenant_drop(2).unwrap();
    assert_eq!(reclaimed, budget_2, "the tenant's whole budget returns");

    // The victim's socket was shut down server-side; its next request
    // errors out rather than touching a dead tenant.
    let died = (|| -> Result<(), ClientError> {
        let id = victim.send(&Request::Ping(vec![1]))?;
        victim.wait(id).map(|_| ())
    })();
    assert!(died.is_err(), "evicted connection must be dead: {died:?}");

    // The bystander on another tenant is untouched.
    assert_eq!(
        bystander
            .lock(ResourceId::Row(TableId(4), RowId(0)), LockMode::X)
            .unwrap(),
        LockOutcome::Granted
    );

    let after = control.tenant_stats(0).unwrap().rollup;
    assert!(after.tenants.iter().all(|t| t.id != 2));
    assert_eq!(after.free_budget, before.free_budget + budget_2);
    let budgets: u64 = after.tenants.iter().map(|t| t.budget).sum();
    assert_eq!(budgets + after.free_budget, after.machine_budget);

    bystander.unlock_all().unwrap();
    // Machine-wide audit still passes after the eviction churn.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let stats = control.metrics(u64::MAX, 0).unwrap();
        if stats.pool_slots_used == 0 {
            break;
        }
        assert!(Instant::now() < deadline, "slots leaked across tenant drop");
        std::thread::sleep(Duration::from_millis(10));
    }
    control.validate().expect("machine audit after drop");
    server.shutdown();
    drop(directory);
}

/// Satellite: a shedding tenant's `Overloaded` reply carries its
/// tenant id on the wire, so a client driving several tenants knows
/// which one to back off from.
#[test]
fn overloaded_reply_names_the_shedding_tenant() {
    // Tenant budgets pinned at a 128 KiB floor (= one pool block):
    // the pool cannot grow, so flooding single-row tables hits real
    // OutOfLockMemory denials, which engage shed mode at the fourth
    // one inside a tuning window.
    let config = TenantsConfig {
        machine_budget_bytes: 2 * MIB,
        floor_bytes: 128 * KIB,
        ceiling_bytes: 128 * KIB,
        initial_grant_bytes: 128 * KIB,
        arbiter_interval: Duration::ZERO,
        service: ServiceConfig {
            shed_oom_threshold: 4,
            ..ServiceConfig::fast(2)
        },
        ..TenantsConfig::fast(2)
    };
    let (server, _directory, addr) = tenant_server(config, 2);

    let mut c = Client::connect(&addr).unwrap();
    c.hello(1).unwrap();

    // One-row tables leave escalation nothing to reclaim, so once the
    // 2048 slots are gone every further lock is an OOM denial.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut table = 0u32;
    let overloaded = 'hunt: loop {
        assert!(Instant::now() < deadline, "shed mode never engaged");
        let mut ids = Vec::with_capacity(128);
        for _ in 0..64 {
            ids.push(
                c.send(&Request::Lock {
                    res: ResourceId::Table(TableId(table)),
                    mode: LockMode::IX,
                })
                .unwrap(),
            );
            ids.push(
                c.send(&Request::Lock {
                    res: ResourceId::Row(TableId(table), RowId(0)),
                    mode: LockMode::X,
                })
                .unwrap(),
            );
            table += 1;
        }
        for id in ids {
            match c.wait(id).unwrap() {
                Reply::Lock(Err(e @ ServiceError::Overloaded { .. })) => break 'hunt e,
                Reply::Lock(_) => {}
                other => panic!("expected a Lock reply, got {other:?}"),
            }
        }
    };
    match overloaded {
        ServiceError::Overloaded { tenant: Some(1) } => {}
        other => panic!("Overloaded must name tenant 1, got {other:?}"),
    }

    // The *other* tenant is not shedding: same request shape succeeds.
    let mut b = Client::connect(&addr).unwrap();
    b.hello(0).unwrap();
    assert_eq!(
        b.lock(ResourceId::Table(TableId(0)), LockMode::IX).unwrap(),
        LockOutcome::Granted
    );
    b.unlock_all().unwrap();
    c.unlock_all().unwrap();
    server.shutdown();
}

/// Two overlapping OLTP workers on `tenant` through the stress
/// driver, 150 transactions each of an IX intent plus 8 X row locks
/// over 4 tables of 64 rows (enough overlap for real waits).
/// Contention aborts (timeout, deadlock victim) are part of the
/// workload, not a harness failure.
fn oltp_burst(addr: &str, tenant: u32) {
    let config = stress::Config {
        addr: addr.into(),
        ..stress::Config::default()
    };
    let (mix, progress) = (Mix::new(4, 64, 8).unwrap(), AtomicU64::new(0));
    let seeds = |w| [0x5EED, 0xBEEF][w];
    stress::cohort(&config, &mix, Some(tenant), 2, &progress, seeds).expect("oltp burst");
}

/// The noisy-neighbor regression: tenant 1 measures its solo OLTP
/// baseline; then tenant 0 surges DSS scans while tenant 2 runs the
/// identical OLTP load (fresh tenant = fresh histograms). The arbiter
/// may move budget toward the surge, but the OLTP tenant's p99 lock
/// wait must stay within a bounded factor of the baseline — budget
/// donation never forces a working tenant below what it is using.
#[test]
fn noisy_neighbor_keeps_oltp_p99_bounded() {
    let config = TenantsConfig {
        machine_budget_bytes: 12 * MIB,
        initial_grant_bytes: 4 * MIB,
        quantum_bytes: MIB,
        arbiter_interval: Duration::from_millis(50),
        ..TenantsConfig::fast(2)
    };
    let sweep_interval = config.service.deadlock_interval;
    let (server, directory, addr) = tenant_server(config, 3);

    // Phase 1 — solo baseline on tenant 1: two overlapping workers so
    // the histogram records real intra-tenant waits.
    oltp_burst(&addr, 1);
    let solo_p99 = stress::tenant_wait(&addr, 1).unwrap().p99_us;

    // Phase 2 — tenant 0 surges contiguous scans (the footprint that
    // outgrows any fixed budget) while tenant 2 runs the identical
    // OLTP load.
    let surge_addr = addr.clone();
    let surge = std::thread::spawn(move || {
        let mut c = Client::connect(&surge_addr).unwrap();
        c.hello(0).unwrap();
        let deadline = Instant::now() + Duration::from_secs(2);
        let mut pass = 0u64;
        let mut entries = Vec::with_capacity(2048);
        while Instant::now() < deadline {
            // 64 tables x 2048 contiguous S locks = an 8 MiB ask
            // against a 4 MiB starting budget: sync growth gets
            // denied, escalation and OOM pressure build, the benefit
            // score rises — exactly the surge the arbiter exists for.
            for t in 0..64u32 {
                let table = TableId(t);
                entries.clear();
                entries.push((ResourceId::Table(table), LockMode::IS));
                for r in 0..2047u64 {
                    entries.push((ResourceId::Row(table, RowId(pass * 4096 + r)), LockMode::S));
                }
                let _ = c.lock_batch(&entries);
            }
            c.unlock_all().unwrap();
            pass += 1;
        }
    });
    oltp_burst(&addr, 2);
    let noisy_p99 = stress::tenant_wait(&addr, 2).unwrap().p99_us;
    surge.join().unwrap();

    // The documented bound (DESIGN.md §12.5): 20x the solo baseline,
    // with an absolute floor of three deadlock-sweep intervals. A
    // deadlocked wait lasts until the next sweep, so a solo phase that
    // happened to see no deadlock must still leave room for a noisy
    // phase that sees one — plus scheduler noise on a busy machine.
    let floor = 3 * sweep_interval.as_micros() as u64;
    let bound = (solo_p99 * 20).max(floor);
    assert!(
        noisy_p99 <= bound,
        "OLTP p99 under surge ({noisy_p99} us) above bound ({bound} us, solo {solo_p99} us)"
    );

    // The surge registered machine-wide: the DSS tenant built real
    // pressure and the budget partition still accounts exactly.
    let mut control = Client::connect(&addr).unwrap();
    let rollup = control.tenant_stats(0).unwrap().rollup;
    let dss = rollup.tenants.iter().find(|t| t.id == 0).unwrap();
    assert!(
        dss.escalations + dss.denials > 0 || rollup.donations > 0,
        "the surge produced neither pressure signals nor donations"
    );
    let budgets: u64 = rollup.tenants.iter().map(|t| t.budget).sum();
    assert_eq!(budgets + rollup.free_budget, rollup.machine_budget);

    control.validate().expect("machine audit after the surge");
    server.shutdown();
    drop(directory);
}
