//! Failover recovery bench: how fast does the cluster detect a dead
//! node, reassign its partition, and restore full service after the
//! node rejoins?
//!
//! Each trial spins up an in-process cluster (N `locktune-server`
//! instances + a [`ClusterSupervisor`]), drives a light degraded-mode
//! storm through [`RoutingClient::lock_many_degraded`], kills one node
//! mid-burst, and measures three wall-clock intervals by polling the
//! published epoch map at millisecond granularity:
//!
//! * **detect** — kill → the node marked [`NodeState::Suspect`];
//! * **reassign** — kill → the node marked [`NodeState::Down`] *with
//!   its slot already routed to a survivor* (the fence push and the
//!   reassignment are one atomic publish, so this is also
//!   time-to-degraded-service);
//! * **full service** — respawn + re-register → every node
//!   [`NodeState::Up`] with the identity map restored (includes the
//!   two-phase drain).
//!
//! Writes one CSV row per trial to `results/failover_recovery.csv`
//! and a JSON summary (medians per node count) to
//! `BENCH_failover.json`.

use std::process::exit;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use locktune_cluster::{
    BreakerConfig, ClusterConfig, ClusterSupervisor, Degraded, MapHandle, NodeState, RoutingClient,
    SupervisorConfig,
};
use locktune_net::{ReconnectConfig, Server, ServerConfig};
use locktune_service::txn::{self, Tally, TxnOutcome};
use locktune_service::{LockService, ServiceConfig};
use locktune_workload::Mix;
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Args {
    node_counts: Vec<usize>,
    trials: u64,
    probe_interval_ms: u64,
    seed: u64,
    out_csv: String,
    out_json: String,
}

const USAGE: &str = "usage: locktune-failover-bench [options]
  --nodes A,B,...        cluster sizes to bench (default 2,4)
  --trials N             trials per cluster size (default 5)
  --probe-interval-ms N  supervisor probe interval (default 25)
  --seed N               workload seed (default 42)
  --out-csv PATH         per-trial rows (default results/failover_recovery.csv)
  --out-json PATH        median summary (default BENCH_failover.json)";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        node_counts: vec![2, 4],
        trials: 5,
        probe_interval_ms: 25,
        seed: 42,
        out_csv: "results/failover_recovery.csv".into(),
        out_json: "BENCH_failover.json".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--nodes" => {
                args.node_counts = value("--nodes")?
                    .split(',')
                    .map(|s| s.parse().map_err(|_| format!("bad node count {s:?}")))
                    .collect::<Result<_, _>>()?;
            }
            "--trials" => args.trials = parse_num(&value("--trials")?)?,
            "--probe-interval-ms" => {
                args.probe_interval_ms = parse_num(&value("--probe-interval-ms")?)?
            }
            "--seed" => args.seed = parse_num(&value("--seed")?)?,
            "--out-csv" => args.out_csv = value("--out-csv")?,
            "--out-json" => args.out_json = value("--out-json")?,
            "--help" | "-h" => {
                println!("{USAGE}");
                exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.node_counts.iter().any(|&n| n < 2) {
        return Err("--nodes entries must be >= 2 (someone must survive)".into());
    }
    if args.trials == 0 {
        return Err("--trials must be positive".into());
    }
    Ok(args)
}

fn parse_num(s: &str) -> Result<u64, String> {
    s.parse().map_err(|_| format!("bad number {s:?}"))
}

struct Trial {
    nodes: usize,
    trial: u64,
    detect_ms: u64,
    reassign_ms: u64,
    full_service_ms: u64,
    final_epoch: u64,
    committed: u64,
    committed_degraded: u64,
    unavailable_items: u64,
}

/// Poll `cond` every millisecond; return elapsed ms or None at the
/// deadline.
fn time_until(deadline: Duration, mut cond: impl FnMut() -> bool) -> Option<u64> {
    let start = Instant::now();
    loop {
        if cond() {
            return Some(start.elapsed().as_millis() as u64);
        }
        if start.elapsed() >= deadline {
            return None;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// What the storm's workers share: the stop flag, and a live commit
/// count the warm-up waits on.
#[derive(Default)]
struct Storm {
    stop: AtomicBool,
    committed: AtomicU64,
}

/// One storm worker: degraded-mode transactions over two tables, one
/// X row each on a row range private to `gid`, until told to stop.
/// Returns its tally and how many commits happened while the map was
/// degraded; any error it cannot survive fails the trial.
fn worker(
    addrs: Vec<String>,
    map: MapHandle,
    seed: u64,
    gid: u64,
    storm: &Storm,
) -> Result<(Tally, u64), String> {
    let config = ClusterConfig {
        nodes: addrs,
        reconnect: ReconnectConfig {
            max_attempts: 2,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(10),
            seed,
            max_total_attempts: 500,
        },
        gid: Some(gid),
        breaker: BreakerConfig {
            failure_threshold: 2,
            open_base: Duration::from_millis(10),
            open_max: Duration::from_millis(200),
            seed,
        },
    };
    let mix = Mix::new(64, 64, 1)
        .and_then(|m| m.with_tables_per_txn(2))
        .and_then(|m| m.with_row_base(gid * 10_000))
        .map_err(|e| e.to_string())?;
    let mut rc = RoutingClient::connect_with_map(&config, map.clone())
        .map_err(|e| format!("worker {gid}: connect: {e}"))?;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tally = Tally::default();
    let mut committed_degraded = 0;
    let mut set = Vec::new();
    let mut backend = Degraded::new(&mut rc);
    while !storm.stop.load(Ordering::Relaxed) {
        let degraded = map.snapshot().degraded();
        mix.roll(&mut rng, &mut set);
        let outcome = txn::run_txn(&mut backend, &set, &mut tally)
            .map_err(|e| format!("worker {gid}: {e}"))?;
        if outcome == TxnOutcome::Committed {
            storm.committed.fetch_add(1, Ordering::Relaxed);
            committed_degraded += u64::from(degraded);
        }
    }
    rc.stop();
    Ok((tally, committed_degraded))
}

fn run_trial(n: usize, trial: u64, args: &Args) -> Result<Trial, String> {
    let mut servers = Vec::new();
    let mut services = Vec::new();
    let mut addrs = Vec::new();
    for _ in 0..n {
        let service = Arc::new(
            LockService::start(ServiceConfig::fast(4)).map_err(|e| format!("service: {e}"))?,
        );
        let server =
            Server::bind_with_config(Arc::clone(&service), "127.0.0.1:0", ServerConfig::default())
                .map_err(|e| format!("bind: {e}"))?;
        addrs.push(server.local_addr().to_string());
        servers.push(Some(server));
        services.push(service);
    }
    let sup = ClusterSupervisor::spawn(
        addrs.clone(),
        SupervisorConfig {
            probe_interval: Duration::from_millis(args.probe_interval_ms.max(1)),
            suspect_after: 1,
            down_after: 3,
            drain_deadline: Duration::from_secs(2),
        },
    )
    .map_err(|e| format!("supervisor: {e}"))?;
    let map = sup.map();

    let storm = Arc::new(Storm::default());
    let workers: Vec<_> = (0..2u64)
        .map(|w| {
            let addrs = addrs.clone();
            let map = map.clone();
            let storm = Arc::clone(&storm);
            let seed = args.seed ^ (trial << 8) ^ (w + 1).wrapping_mul(0x9E37);
            std::thread::spawn(move || worker(addrs, map, seed, w + 1, &storm))
        })
        .collect();

    // Warm up: a few committed bursts before the kill.
    if time_until(Duration::from_secs(10), || {
        storm.committed.load(Ordering::Relaxed) >= 8
    })
    .is_none()
    {
        return Err("storm never got going".into());
    }

    // Kill and time the recovery arc.
    let victim = n - 1;
    servers[victim].take().expect("not killed yet").shutdown();
    let t_kill = Instant::now();
    let detect_ms = time_until(Duration::from_secs(10), || {
        map.snapshot().states[victim] != NodeState::Up
    })
    .ok_or("node never suspected")?;
    let reassign_ms = time_until(Duration::from_secs(10), || {
        let m = map.snapshot();
        m.states[victim] == NodeState::Down && m.owners()[victim] != victim
    })
    .ok_or("slot never reassigned")?
        + detect_ms;
    let _ = t_kill;

    // Let degraded service run for a few probe intervals.
    std::thread::sleep(Duration::from_millis(args.probe_interval_ms * 4));

    // Respawn at a new address and time back to full service.
    let respawn = Server::bind_with_config(
        Arc::clone(&services[victim]),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .map_err(|e| format!("respawn bind: {e}"))?;
    sup.register_node(victim, respawn.local_addr().to_string());
    servers[victim] = Some(respawn);
    let full_service_ms = time_until(Duration::from_secs(20), || {
        let m = map.snapshot();
        m.states.iter().all(|s| *s == NodeState::Up) && m.owners() == (0..n).collect::<Vec<_>>()
    })
    .ok_or("rejoin never completed")?;

    // A tail of healthy service, then wind down.
    std::thread::sleep(Duration::from_millis(args.probe_interval_ms * 4));
    storm.stop.store(true, Ordering::Relaxed);
    let mut tally = Tally::default();
    let mut committed_degraded = 0;
    for w in workers {
        let (t, degraded) = w.join().map_err(|_| "worker panicked")??;
        tally.merge(&t);
        committed_degraded += degraded;
    }

    // Audit: every node drains to zero used slots and passes the
    // exact accounting check.
    for (node, service) in services.iter().enumerate() {
        if time_until(Duration::from_secs(10), || service.pool_used_slots() == 0).is_none() {
            return Err(format!("node {node} leaked lock slots"));
        }
        service.validate();
    }

    let final_epoch = map.snapshot().epoch;
    sup.stop();
    for s in servers.into_iter().flatten() {
        s.shutdown();
    }
    Ok(Trial {
        nodes: n,
        trial,
        detect_ms,
        reassign_ms,
        full_service_ms,
        final_epoch,
        committed: tally.get(TxnOutcome::Committed),
        committed_degraded,
        unavailable_items: tally.unavailable_items,
    })
}

fn median(xs: &mut [u64]) -> u64 {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("locktune-failover-bench: {e}\n{USAGE}");
            exit(2);
        }
    };

    let mut rows = String::from(
        "nodes,trial,detect_ms,reassign_ms,full_service_ms,final_epoch,\
         committed,committed_degraded,unavailable_items\n",
    );
    let mut summaries = Vec::new();
    for &n in &args.node_counts {
        let mut detect = Vec::new();
        let mut reassign = Vec::new();
        let mut full = Vec::new();
        let mut degraded_total = 0u64;
        for trial in 0..args.trials {
            let t = match run_trial(n, trial, &args) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("FAILED: {n} nodes, trial {trial}: {e}");
                    exit(1);
                }
            };
            println!(
                "{n} nodes, trial {trial}: detect {} ms, reassign {} ms, \
                 full service {} ms, epoch {}, committed {} ({} degraded)",
                t.detect_ms,
                t.reassign_ms,
                t.full_service_ms,
                t.final_epoch,
                t.committed,
                t.committed_degraded,
            );
            rows.push_str(&format!(
                "{},{},{},{},{},{},{},{},{}\n",
                t.nodes,
                t.trial,
                t.detect_ms,
                t.reassign_ms,
                t.full_service_ms,
                t.final_epoch,
                t.committed,
                t.committed_degraded,
                t.unavailable_items
            ));
            degraded_total += t.committed_degraded;
            detect.push(t.detect_ms);
            reassign.push(t.reassign_ms);
            full.push(t.full_service_ms);
        }
        if degraded_total == 0 {
            eprintln!("FAILED: {n} nodes: no degraded-mode commits across any trial");
            exit(1);
        }
        summaries.push(format!(
            "{{\"nodes\":{},\"trials\":{},\"detect_ms_p50\":{},\
             \"reassign_ms_p50\":{},\"full_service_ms_p50\":{},\
             \"degraded_commits\":{}}}",
            n,
            args.trials,
            median(&mut detect),
            median(&mut reassign),
            median(&mut full),
            degraded_total
        ));
    }

    if let Some(dir) = std::path::Path::new(&args.out_csv).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(&args.out_csv, &rows) {
        eprintln!("write {}: {e}", args.out_csv);
        exit(1);
    }
    let json = format!(
        "{{\"bench\":\"failover_recovery\",\"probe_interval_ms\":{},\
         \"suspect_after\":1,\"down_after\":3,\"seed\":{},\"clusters\":[{}]}}\n",
        args.probe_interval_ms,
        args.seed,
        summaries.join(",")
    );
    if let Err(e) = std::fs::write(&args.out_json, &json) {
        eprintln!("write {}: {e}", args.out_json);
        exit(1);
    }
    println!("wrote {} and {}", args.out_csv, args.out_json);
}
