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

use locktune_cluster::{BreakerConfig, ClusterConfig, ClusterDetector, RoutingClient};
use locktune_integration_tests::{assert_drained, start_nodes};
use locktune_net::{ReconnectConfig, ServerConfig};
use locktune_service::txn::{self, Tally, TxnOutcome};
use locktune_service::{FaultInjector, FaultPlan, FaultSite, ServiceConfig};
use locktune_sim::SimRng;
use locktune_workload::Mix;

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

/// One worker: routed bursts over two of 64 tables (an IX intent and
/// 2 X rows of 64 on each) through the shared loop, where a lost
/// session or a node down loses the transaction.
fn worker(
    addrs: Vec<String>,
    seed: u64,
    gid: u64,
    connected: Arc<Barrier>,
    progress: Arc<AtomicU64>,
) -> Tally {
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
    let mix = Mix::new(64, 64, 2)
        .and_then(|m| m.with_tables_per_txn(2))
        .unwrap();
    let mut rng = SimRng::seed_from_u64(seed);
    let mut tally = Tally::default();
    let mut set = Vec::new();
    let mut txns = 0;
    while txns < TXNS_PER_WORKER
        || (tally.get(TxnOutcome::Lost) == 0 && start.elapsed() < STORM_LIMIT)
    {
        txns += 1;
        progress.fetch_add(1, Ordering::Relaxed);
        mix.roll(&mut rng, &mut set);
        if let Err(e) = txn::run_txn(&mut rc, &set, &mut tally) {
            panic!("worker transaction: {e}");
        }
    }
    tally
}

fn run_chaos(seed: u64) {
    // The stalled node's wire schedule: every ~23rd wire write stalls
    // 2 ms — a deterministic partial partition.
    let stall_faults = FaultPlan::new(seed)
        .burst(FaultSite::WireStall, 23, 1)
        .stall(Duration::from_millis(2))
        .build();
    assert!(stall_faults.is_armed());

    let (services, servers, addrs) = start_nodes(
        NODES,
        || ServiceConfig::fast(4),
        |node| ServerConfig {
            faults: if node == STALLED {
                stall_faults.clone()
            } else {
                FaultInjector::disabled()
            },
            ..ServerConfig::default()
        },
    );
    let mut servers: Vec<_> = servers.into_iter().map(Some).collect();

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

    let mut tally = Tally::default();
    for w in workers {
        tally.merge(&w.join().expect("worker panicked"));
    }
    detector.stop();

    // The storm was felt and survived: the kill surfaced as explicit
    // session-loss / node-down events (lost transactions), the stall
    // schedule fired, and batches avoiding the dead partition kept
    // committing.
    assert!(
        tally.get(TxnOutcome::Committed) > 0,
        "no transaction survived the storm"
    );
    assert!(
        tally.get(TxnOutcome::Lost) > 0,
        "a node was killed mid-storm but no worker observed it"
    );
    assert!(
        stall_faults.injected(FaultSite::WireStall) > 0,
        "wire-stall site never fired; storm too weak"
    );

    // Every node — the survivors and the killed one, whose server
    // teardown already ran — must drain to zero used slots and pass
    // the exact accounting audit.
    assert_drained(&services);

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
