//! Routed mixed-burst load generator for a partitioned cluster.
//!
//! Connects a [`RoutingClient`] per worker to every node of the
//! cluster, drives seeded mixed bursts (table IX intents + row X
//! locks) routed by the shared partition map, and optionally runs a
//! [`ClusterDetector`] alongside the storm. After the storm it prints
//! a recovery report (commits, session losses, node-down events,
//! per-node health) and audits every *reachable* node: zero used lock
//! slots after drain and an exact accounting validate.
//!
//! Exit status is non-zero when the run is inconsistent with the
//! declared expectation:
//!
//! * no transaction committed, or a surviving node leaked slots or
//!   failed its audit — always fatal;
//! * `--expect-node-loss` set but no worker observed a session loss /
//!   node-down (the kill never landed mid-burst);
//! * `--expect-node-loss` *not* set but losses happened or a node is
//!   unreachable at audit time.
//!
//! ```text
//! locktune-cluster-client --nodes 127.0.0.1:7654,127.0.0.1:7655,127.0.0.1:7656 \
//!     --workers 4 --txns 200 --pace-ms 2 --expect-node-loss
//! ```

use std::process::exit;
use std::time::{Duration, Instant};

use locktune_cluster::{
    BreakerConfig, ClusterConfig, ClusterDetector, ClusterError, ClusterSupervisor, MapHandle,
    RoutedOutcome, RoutingClient, SupervisorConfig,
};
use locktune_lockmgr::{LockError, LockMode, ResourceId, RowId, TableId};
use locktune_net::{ClientError, ReconnectConfig, ReconnectingClient};
use locktune_service::{BatchOutcome, ServiceError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[derive(Clone)]
struct Args {
    nodes: Vec<String>,
    workers: u64,
    txns: u64,
    tables: u32,
    rows: u64,
    oltp_rows: u64,
    seed: u64,
    pace_ms: u64,
    detector_interval_ms: u64,
    expect_node_loss: bool,
    supervise: bool,
    probe_interval_ms: u64,
}

impl Default for Args {
    fn default() -> Args {
        Args {
            nodes: Vec::new(),
            workers: 4,
            txns: 200,
            tables: 64,
            rows: 256,
            oltp_rows: 4,
            seed: 42,
            pace_ms: 0,
            detector_interval_ms: 25,
            expect_node_loss: false,
            supervise: false,
            probe_interval_ms: 50,
        }
    }
}

const USAGE: &str = "usage: locktune-cluster-client --nodes HOST:PORT,HOST:PORT,... [options]
  --nodes A,B,...            node addresses; order defines the partition map (required)
  --workers N                concurrent routed clients (default 4)
  --txns N                   transactions per worker (default 200)
  --tables N                 table id space, spread over partitions by hash (default 64)
  --rows N                   row id space per table (default 256)
  --oltp-rows N              row X locks per table touched (default 4)
  --seed N                   workload seed (default 42)
  --pace-ms N                sleep between transactions, to stretch the storm (default 0)
  --detector-interval-ms N   edge-chasing interval; 0 disables the detector (default 25)
  --expect-node-loss         a node will be killed mid-storm: require explicit
                             session-loss/node-down events and tolerate one
                             unreachable node at audit time
  --supervise                run a failover supervisor: probe every node, fence
                             and reassign dead partitions, route workers by the
                             live epoch map with degraded batches (affected
                             sub-batches retry instead of failing the storm)
  --probe-interval-ms N      supervisor probe interval (default 50)";

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--nodes" => {
                args.nodes = value("--nodes")?
                    .split(',')
                    .map(str::to_string)
                    .filter(|s| !s.is_empty())
                    .collect();
            }
            "--workers" => args.workers = parse_num(&value("--workers")?)?,
            "--txns" => args.txns = parse_num(&value("--txns")?)?,
            "--tables" => args.tables = parse_num(&value("--tables")?)? as u32,
            "--rows" => args.rows = parse_num(&value("--rows")?)?,
            "--oltp-rows" => args.oltp_rows = parse_num(&value("--oltp-rows")?)?,
            "--seed" => args.seed = parse_num(&value("--seed")?)?,
            "--pace-ms" => args.pace_ms = parse_num(&value("--pace-ms")?)?,
            "--detector-interval-ms" => {
                args.detector_interval_ms = parse_num(&value("--detector-interval-ms")?)?
            }
            "--expect-node-loss" => args.expect_node_loss = true,
            "--supervise" => args.supervise = true,
            "--probe-interval-ms" => {
                args.probe_interval_ms = parse_num(&value("--probe-interval-ms")?)?
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.nodes.is_empty() {
        return Err("--nodes is required".into());
    }
    if args.workers == 0 || args.txns == 0 || args.tables == 0 {
        return Err("--workers, --txns and --tables must be positive".into());
    }
    Ok(args)
}

fn parse_num(s: &str) -> Result<u64, String> {
    s.parse().map_err(|_| format!("bad number {s:?}"))
}

#[derive(Default)]
struct WorkerReport {
    committed: u64,
    aborted: u64,
    sessions_lost: u64,
    node_down: u64,
    unavailable: u64,
    stale_epochs: u64,
}

/// The per-worker reconnect policy: few in-cycle attempts, a finite
/// lifetime budget, so a killed node degrades to an explicit
/// `NodeDown` instead of stalling every batch forever.
fn reconnect_policy(seed: u64) -> ReconnectConfig {
    ReconnectConfig {
        max_attempts: 5,
        base_delay: Duration::from_millis(2),
        max_delay: Duration::from_millis(50),
        seed,
        max_total_attempts: 100,
    }
}

fn worker(args: &Args, w: u64, map: Option<MapHandle>) -> WorkerReport {
    let seed = args.seed ^ (w + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let config = ClusterConfig {
        nodes: args.nodes.clone(),
        reconnect: reconnect_policy(seed),
        gid: Some(w + 1),
        breaker: BreakerConfig::default(),
    };
    let connected = match map {
        Some(map) => RoutingClient::connect_with_map(&config, map),
        None => RoutingClient::connect(&config),
    };
    let mut rc = match connected {
        Ok(rc) => rc,
        Err(e) => {
            eprintln!("worker {w}: connect: {e}");
            exit(2);
        }
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut report = WorkerReport::default();
    for _ in 0..args.txns {
        // A mixed burst over two random tables — usually two
        // partitions — IX intents plus row X locks on each.
        let mut locks = Vec::new();
        for _ in 0..2 {
            let table = TableId(rng.gen_range_u64(0, args.tables as u64) as u32);
            locks.push((ResourceId::Table(table), LockMode::IX));
            for _ in 0..args.oltp_rows {
                let row = RowId(rng.gen_range_u64(0, args.rows));
                locks.push((ResourceId::Row(table, row), LockMode::X));
            }
        }
        let failed = if args.supervise {
            // Degraded contract: dead partitions come back retryable,
            // live partitions commit through the failover.
            let outcomes = match rc.lock_many_degraded(&locks) {
                Ok(o) => o,
                Err(ClusterError::StaleEpoch { .. }) => {
                    // The map moved under the transaction; everything
                    // reachable was released. Restart.
                    report.stale_epochs += 1;
                    continue;
                }
                Err(e) => {
                    eprintln!("worker {w}: lock_many_degraded: {e}");
                    exit(2);
                }
            };
            let unavailable = outcomes
                .iter()
                .filter(|o| matches!(o, RoutedOutcome::Unavailable { .. }))
                .count() as u64;
            report.unavailable += unavailable;
            unavailable > 0
                || outcomes.iter().any(|o| {
                    matches!(
                        o,
                        RoutedOutcome::Done(BatchOutcome::Done(Err(ServiceError::Timeout
                            | ServiceError::DeadlockVictim
                            | ServiceError::Overloaded { .. }
                            | ServiceError::Lock(LockError::OutOfLockMemory))))
                    )
                })
        } else {
            let outcomes = match rc.lock_many(&locks) {
                Ok(o) => o,
                Err(ClusterError::SessionLost { .. }) => {
                    // The router already released every surviving node's
                    // locks; restart from an empty state.
                    report.sessions_lost += 1;
                    continue;
                }
                Err(ClusterError::NodeDown { .. }) => {
                    report.node_down += 1;
                    continue;
                }
                Err(e) => {
                    eprintln!("worker {w}: lock_many: {e}");
                    exit(2);
                }
            };
            outcomes.iter().any(|o| {
                matches!(
                    o,
                    BatchOutcome::Done(Err(ServiceError::Timeout
                        | ServiceError::DeadlockVictim
                        | ServiceError::Overloaded { .. }
                        | ServiceError::Lock(LockError::OutOfLockMemory)))
                )
            })
        };
        match rc.unlock_all() {
            Ok(_) => {
                if failed {
                    report.aborted += 1;
                } else {
                    report.committed += 1;
                }
            }
            Err(ClusterError::Node {
                error: ClientError::Service(_),
                ..
            }) => report.aborted += 1,
            Err(e) => {
                eprintln!("worker {w}: unlock_all: {e}");
                exit(2);
            }
        }
        if args.pace_ms > 0 {
            std::thread::sleep(Duration::from_millis(args.pace_ms));
        }
    }
    report
}

/// Audit one node after the storm: drain to zero used slots, then an
/// exact accounting validate. Returns an error string on failure,
/// `Ok(false)` when the node is unreachable (dead).
fn audit_node(node: usize, addr: &str, seed: u64) -> Result<bool, String> {
    let mut c = match ReconnectingClient::connect(
        addr,
        ReconnectConfig {
            max_attempts: 3,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(100),
            seed,
            max_total_attempts: 6,
        },
    ) {
        Ok(c) => c,
        Err(_) => return Ok(false),
    };
    // Slot caches flush asynchronously on tuning intervals; poll.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match c.stats_snapshot() {
            Ok(s) if s.pool_slots_used == 0 => break,
            Ok(s) => {
                if Instant::now() >= deadline {
                    return Err(format!(
                        "node {node}: {} lock slots still in use after drain deadline",
                        s.pool_slots_used
                    ));
                }
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => return Err(format!("node {node}: stats: {e}")),
        }
    }
    match c.validate() {
        Ok(r) if r.charged_slots == 0 && r.pool_used_slots == 0 => {
            println!("node {node} ({addr}): audit clean, 0 slots charged");
            Ok(true)
        }
        Ok(r) => Err(format!(
            "node {node}: audit found {} charged / {} used slots after drain",
            r.charged_slots, r.pool_used_slots
        )),
        Err(e) => Err(format!("node {node}: validate: {e}")),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("locktune-cluster-client: {e}\n{USAGE}");
            exit(2);
        }
    };
    println!(
        "cluster of {} partitions: {}",
        args.nodes.len(),
        args.nodes.join(", ")
    );

    let detector = if args.detector_interval_ms > 0 {
        let d = ClusterDetector::connect(&ClusterConfig {
            nodes: args.nodes.clone(),
            reconnect: reconnect_policy(args.seed ^ 0xD1B5_4A32_D192_ED03),
            gid: None,
            breaker: BreakerConfig::default(),
        });
        match d {
            Ok(d) => Some(d.spawn(Duration::from_millis(args.detector_interval_ms))),
            Err(e) => {
                eprintln!("detector connect: {e}");
                exit(2);
            }
        }
    } else {
        None
    };

    let supervisor = if args.supervise {
        let sup = ClusterSupervisor::spawn(
            args.nodes.clone(),
            SupervisorConfig {
                probe_interval: Duration::from_millis(args.probe_interval_ms.max(1)),
                ..SupervisorConfig::default()
            },
        );
        match sup {
            Ok(s) => Some(s),
            Err(e) => {
                eprintln!("supervisor spawn: {e}");
                exit(2);
            }
        }
    } else {
        None
    };

    let start = Instant::now();
    let workers: Vec<_> = (0..args.workers)
        .map(|w| {
            let args = args.clone();
            let map = supervisor.as_ref().map(|s| s.map());
            std::thread::spawn(move || worker(&args, w, map))
        })
        .collect();
    let mut total = WorkerReport::default();
    for w in workers {
        let r = w.join().expect("worker panicked");
        total.committed += r.committed;
        total.aborted += r.aborted;
        total.sessions_lost += r.sessions_lost;
        total.node_down += r.node_down;
        total.unavailable += r.unavailable;
        total.stale_epochs += r.stale_epochs;
    }
    let elapsed = start.elapsed();
    let detector_victims = detector.map(|d| d.stop().1);

    println!("--- storm report ---");
    println!("committed:        {}", total.committed);
    println!("aborted:          {}", total.aborted);
    println!("sessions lost:    {}", total.sessions_lost);
    println!("node-down events: {}", total.node_down);
    if args.supervise {
        println!("unavailable:      {} sub-batch items", total.unavailable);
        println!("stale epochs:     {}", total.stale_epochs);
    }
    if let Some(v) = detector_victims {
        println!("detector victims: {v}");
    }
    println!(
        "throughput:       {:.0} txn/s over {:.2}s",
        total.committed as f64 / elapsed.as_secs_f64(),
        elapsed.as_secs_f64()
    );

    if let Some(sup) = &supervisor {
        let map = sup.map().snapshot();
        println!("--- failover report ---");
        println!("final epoch:      {}", map.epoch);
        println!("final owners:     {:?}", map.owners());
        for t in sup.transitions() {
            println!(
                "  +{:>6} ms  node {}  -> {:?}  (epoch {})",
                t.at_ms, t.node, t.state, t.epoch
            );
        }
    }

    // Per-node health from one fresh routed session, then the audits.
    let losses =
        total.sessions_lost + total.node_down + u64::from(args.supervise && total.unavailable > 0);
    let mut exit_code = 0;
    let mut dead_nodes = 0;
    println!("--- node audit ---");
    for (node, addr) in args.nodes.iter().enumerate() {
        match audit_node(node, addr, args.seed ^ node as u64) {
            Ok(true) => {}
            Ok(false) => {
                dead_nodes += 1;
                println!("node {node} ({addr}): unreachable");
            }
            Err(e) => {
                eprintln!("AUDIT FAILED: {e}");
                exit_code = 1;
            }
        }
    }

    if total.committed == 0 {
        eprintln!("FAILED: no transaction committed");
        exit_code = 1;
    }
    if args.expect_node_loss {
        if losses == 0 {
            eprintln!("FAILED: --expect-node-loss but no worker observed a loss");
            exit_code = 1;
        }
        if dead_nodes > 1 {
            eprintln!("FAILED: {dead_nodes} nodes unreachable, expected at most 1");
            exit_code = 1;
        }
    } else {
        if losses > 0 {
            eprintln!("FAILED: {losses} session-loss/node-down events in a healthy cluster");
            exit_code = 1;
        }
        if dead_nodes > 0 {
            eprintln!("FAILED: {dead_nodes} nodes unreachable in a healthy cluster");
            exit_code = 1;
        }
    }
    if exit_code == 0 {
        println!("cluster run clean");
    }
    exit(exit_code);
}
