//! Routed mixed-burst load generator for a partitioned cluster.
//!
//! Connects a [`RoutingClient`] per worker to every node of the
//! cluster, drives seeded mixed bursts (IX intents and row X locks on
//! two tables, rolled from one [`Mix`]) through the shared transaction
//! loop, routed by the shared partition map, and optionally runs a
//! [`ClusterDetector`] alongside the storm. After the storm it prints
//! a recovery report (transactions by outcome — a lost session, a
//! node down or a stale epoch loses one) and audits every *reachable*
//! node with the shared drain-then-validate audit.
//!
//! Exit status is non-zero when the run is inconsistent with the
//! declared expectation:
//!
//! * no transaction committed, or a surviving node leaked slots or
//!   failed its audit — always fatal;
//! * `--expect-node-loss` set but no worker lost a transaction to the
//!   kill (the kill never landed mid-burst);
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
    BreakerConfig, ClusterConfig, ClusterDetector, ClusterSupervisor, Degraded, MapHandle,
    RoutingClient, SupervisorConfig,
};
use locktune_net::{drain_and_validate, ReconnectConfig, ReconnectingClient};
use locktune_service::txn::{self, Tally, TxnOutcome};
use locktune_sim::SimRng;
use locktune_workload::Mix;

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

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args::default();
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
            "--tables" => args.tables = parse_num(&value("--tables")?)?,
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
    if args.workers == 0 || args.txns == 0 {
        return Err("--workers and --txns must be positive".into());
    }
    args.mix().map_err(|e| e.to_string())?;
    Ok(args)
}

impl Args {
    /// Two tables per transaction, an IX intent and `oltp_rows` X rows
    /// on each: usually two partitions.
    fn mix(&self) -> Result<Mix, locktune_workload::MixError> {
        Mix::new(self.tables, self.rows, self.oltp_rows)?.with_tables_per_txn(2)
    }
}

/// Parse at the field's own width, so an out-of-range value is a usage
/// error instead of a silent truncation.
fn parse_num<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad number {s:?}"))
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

fn worker(args: &Args, w: u64, map: Option<MapHandle>) -> Tally {
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
    let mix = args.mix().expect("checked by parse_args");
    let mut rng = SimRng::seed_from_u64(seed);
    let mut tally = Tally::default();
    let mut set = Vec::new();
    for _ in 0..args.txns {
        mix.roll(&mut rng, &mut set);
        // Supervised, dead partitions come back unavailable while live
        // partitions commit through the failover.
        let ran = if args.supervise {
            txn::run_txn(&mut Degraded::new(&mut rc), &set, &mut tally)
        } else {
            txn::run_txn(&mut rc, &set, &mut tally)
        };
        if let Err(e) = ran {
            eprintln!("worker {w}: {e}");
            exit(2);
        }
        if args.pace_ms > 0 {
            std::thread::sleep(Duration::from_millis(args.pace_ms));
        }
    }
    tally
}

/// Audit one node after the storm: the shared drain-then-validate
/// audit. Returns an error string on failure, `Ok(false)` when the
/// node is unreachable (dead).
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
    drain_and_validate(&mut c, Duration::from_secs(10)).map_err(|e| format!("node {node}: {e}"))?;
    println!("node {node} ({addr}): audit clean, 0 slots charged");
    Ok(true)
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
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
    let mut total = Tally::default();
    for w in workers {
        total.merge(&w.join().expect("worker panicked"));
    }
    let elapsed = start.elapsed();
    let detector_victims = detector.map(|d| d.stop().1);
    let committed = total.get(TxnOutcome::Committed);

    println!("--- storm report ---");
    print!("{total}");
    if args.supervise {
        println!("unavailable items: {}", total.unavailable_items);
    }
    if let Some(v) = detector_victims {
        println!("detector victims:  {v}");
    }
    println!(
        "throughput:        {:.0} txn/s over {:.2}s",
        committed as f64 / elapsed.as_secs_f64(),
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
    let losses = total.get(TxnOutcome::Lost) + total.get(TxnOutcome::Unavailable);
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

    if committed == 0 {
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
            eprintln!("FAILED: {losses} transactions lost or unavailable in a healthy cluster");
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_empty_key_space_is_a_usage_error() {
        let parsed = |flags: &[&str]| parse_args(flags.iter().map(|f| f.to_string()));
        assert!(parsed(&["--nodes", "a:1", "--rows", "0"]).is_err());
        assert!(parsed(&["--nodes", "a:1", "--tables", "0"]).is_err());
        assert!(parsed(&["--nodes", "a:1", "--tables", "4294967297"]).is_err());
        assert!(parsed(&["--nodes", "a:1"]).is_ok());
    }
}
