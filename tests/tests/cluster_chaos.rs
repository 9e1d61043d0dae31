//! Cluster chaos soak: a 3-node partitioned cluster under routed
//! mixed bursts while one node is killed mid-batch and another runs a
//! wire-stall fault schedule (an injected partial partition). Checked
//! cluster-wide for the invariants the single-node chaos soak checks
//! per node:
//!
//! * session loss is always **explicit** — a worker sees
//!   [`ClusterError::SessionLost`] / [`ClusterError::NodeDown`], never
//!   a silently half-applied batch, and the router has already
//!   released the surviving nodes' locks when it surfaces either;
//! * after the storm every node — survivors *and* the killed one,
//!   whose disconnect teardown ran at shutdown — drains to zero used
//!   slots and passes the exact accounting audit;
//! * the whole schedule is seeded, and the soak runs under multiple
//!   seeds.
//!
//! Only built with `--features faults` (the wire-stall site compiles
//! to nothing without it).

#![cfg(feature = "faults")]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use locktune_cluster::{
    BreakerConfig, ClusterConfig, ClusterDetector, ClusterError, RoutingClient,
};
use locktune_lockmgr::{LockError, LockMode, ResourceId, RowId, TableId};
use locktune_net::{ReconnectConfig, Server, ServerConfig};
use locktune_service::{
    BatchOutcome, FaultInjector, FaultPlan, FaultSite, LockService, ServiceConfig, ServiceError,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const NODES: usize = 3;
const WORKERS: u64 = 4;
/// Transactions every worker runs at least; it keeps going until it
/// has seen the kill, for up to [`STORM_LIMIT`].
const TXNS_PER_WORKER: u64 = 40;
const STORM_LIMIT: Duration = Duration::from_secs(10);
/// The node that gets killed mid-storm.
const KILLED: usize = 1;
/// The node running the wire-stall schedule.
const STALLED: usize = 2;

struct WorkerReport {
    committed: u64,
    aborted: u64,
    sessions_lost: u64,
    node_down: u64,
}

fn worker(
    addrs: Vec<String>,
    seed: u64,
    gid: u64,
    connected: Arc<Barrier>,
    progress: Arc<AtomicU64>,
) -> WorkerReport {
    let config = ClusterConfig {
        nodes: addrs,
        reconnect: ReconnectConfig {
            max_attempts: 5,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(20),
            seed,
            // Finite lifetime budget: the killed node must degrade to
            // an explicit NodeDown, not stall every routed batch.
            max_total_attempts: 60,
        },
        gid: Some(gid),
        breaker: BreakerConfig::default(),
    };
    let rc = RoutingClient::connect(&config);
    // No transaction starts, so the kill cannot land, before every
    // worker is connected (or has failed to, which still panics below
    // instead of leaving the others waiting here).
    connected.wait();
    let mut rc = match rc {
        Ok(rc) => rc,
        Err(e) => panic!("worker connect: {e}"),
    };
    let start = Instant::now();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut report = WorkerReport {
        committed: 0,
        aborted: 0,
        sessions_lost: 0,
        node_down: 0,
    };
    let mut txns = 0;
    while txns < TXNS_PER_WORKER
        || (report.sessions_lost + report.node_down == 0 && start.elapsed() < STORM_LIMIT)
    {
        txns += 1;
        progress.fetch_add(1, Ordering::Relaxed);
        // A mixed burst over two random tables — usually spanning two
        // partitions — IX intents plus row X locks on each.
        let mut locks = Vec::new();
        for _ in 0..2 {
            let table = TableId(rng.gen_range_u64(0, 64) as u32);
            locks.push((ResourceId::Table(table), LockMode::IX));
            for _ in 0..2 {
                let row = RowId(rng.gen_range_u64(0, 64));
                locks.push((ResourceId::Row(table, row), LockMode::X));
            }
        }
        let outcomes = match rc.lock_many(&locks) {
            Ok(o) => o,
            Err(e @ (ClusterError::SessionLost { .. } | ClusterError::NodeDown { .. })) => {
                // The router has already released every surviving
                // node's locks; the transaction restarts from an
                // empty state.
                if matches!(e, ClusterError::SessionLost { .. }) {
                    report.sessions_lost += 1;
                } else {
                    report.node_down += 1;
                }
                continue;
            }
            Err(e) => panic!("worker lock_many: {e}"),
        };
        let failed = outcomes.iter().any(|o| {
            matches!(
                o,
                BatchOutcome::Done(Err(ServiceError::Timeout
                    | ServiceError::DeadlockVictim
                    | ServiceError::Overloaded { .. }
                    | ServiceError::Lock(LockError::OutOfLockMemory)))
            )
        });
        match rc.unlock_all() {
            Ok(_) => {
                if failed {
                    report.aborted += 1;
                } else {
                    report.committed += 1;
                }
            }
            Err(ClusterError::Node {
                error: locktune_net::ClientError::Service(_),
                ..
            }) => report.aborted += 1,
            Err(e) => panic!("worker unlock_all: {e}"),
        }
    }
    report
}

fn eventually(deadline: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let end = Instant::now() + deadline;
    loop {
        if cond() {
            return true;
        }
        if Instant::now() >= end {
            return false;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn run_chaos(seed: u64) {
    // The stalled node's wire schedule: every ~23rd wire write stalls
    // 2 ms — a deterministic partial partition.
    let stall_faults = FaultPlan::new(seed)
        .burst(FaultSite::WireStall, 23, 1)
        .stall(Duration::from_millis(2))
        .build();
    assert!(stall_faults.is_armed());

    let mut servers = Vec::new();
    let mut services = Vec::new();
    let mut addrs = Vec::new();
    for node in 0..NODES {
        let service = Arc::new(LockService::start(ServiceConfig::fast(4)).expect("service start"));
        let faults = if node == STALLED {
            stall_faults.clone()
        } else {
            FaultInjector::disabled()
        };
        let server = Server::bind_with_config(
            Arc::clone(&service),
            "127.0.0.1:0",
            ServerConfig {
                faults,
                ..ServerConfig::default()
            },
        )
        .expect("bind loopback");
        addrs.push(server.local_addr().to_string());
        servers.push(Some(server));
        services.push(service);
    }

    // A detector chases edges throughout the storm; killed-node polls
    // degrade to skipped rounds, never errors.
    let detector = ClusterDetector::connect(&ClusterConfig {
        nodes: addrs.clone(),
        reconnect: ReconnectConfig {
            max_attempts: 2,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(10),
            seed,
            max_total_attempts: 50,
        },
        gid: None,
        breaker: BreakerConfig::default(),
    })
    .expect("detector");
    let detector = detector.spawn(Duration::from_millis(10));

    let progress = Arc::new(AtomicU64::new(0));
    let connected = Arc::new(Barrier::new(WORKERS as usize));
    let workers: Vec<_> = (0..WORKERS)
        .map(|w| {
            let addrs = addrs.clone();
            let (connected, progress) = (Arc::clone(&connected), Arc::clone(&progress));
            let seed = seed ^ (w + 1).wrapping_mul(0x9E37);
            std::thread::spawn(move || worker(addrs, seed, w + 1, connected, progress))
        })
        .collect();

    // Kill one node mid-storm — gated on actual progress (a quarter of
    // the transactions started), so the kill always lands while
    // batches are in flight: connections die mid-batch and the node's
    // disconnect teardown releases everything its sessions held.
    let gate = Instant::now();
    while progress.load(Ordering::Relaxed) <= WORKERS * TXNS_PER_WORKER / 4 {
        assert!(
            gate.elapsed() < Duration::from_secs(10),
            "storm never got going"
        );
        std::hint::spin_loop();
    }
    servers[KILLED].take().expect("not yet killed").shutdown();

    let mut committed = 0;
    let mut sessions_lost = 0;
    let mut node_down = 0;
    for w in workers {
        let r = w.join().expect("worker panicked");
        committed += r.committed;
        sessions_lost += r.sessions_lost;
        node_down += r.node_down;
    }
    detector.stop();

    // The storm was felt and survived: the kill surfaced as explicit
    // session-loss / node-down events, the stall schedule fired, and
    // batches avoiding the dead partition kept committing.
    assert!(committed > 0, "no transaction survived the storm");
    assert!(
        sessions_lost + node_down > 0,
        "a node was killed mid-storm but no worker observed it"
    );
    assert!(
        stall_faults.injected(FaultSite::WireStall) > 0,
        "wire-stall site never fired; storm too weak"
    );

    // Every node — the survivors and the killed one, whose server
    // teardown already ran — must drain to zero used slots and pass
    // the exact accounting audit.
    for (node, service) in services.iter().enumerate() {
        assert!(
            eventually(Duration::from_secs(10), || service.pool_used_slots() == 0),
            "node {node}: {} lock slots leaked after the storm",
            service.pool_used_slots()
        );
        service.validate();
    }

    for s in servers.into_iter().flatten() {
        s.shutdown();
    }
}

#[test]
fn cluster_chaos_seed_1() {
    run_chaos(0xC1C1_0FFE);
}

#[test]
fn cluster_chaos_seed_2() {
    run_chaos(0xBADC_0DE5);
}
