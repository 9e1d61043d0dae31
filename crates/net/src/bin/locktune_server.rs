//! Serve a lock service over TCP.
//!
//! ```text
//! locktune-server [--addr HOST:PORT] [--shards N] [--tuning-ms MS]
//!                 [--deadlock-ms MS] [--timeout-ms MS] [--log-capacity N]
//!                 [--initial-kb KB] [--reply-queue N] [--max-conns N]
//!                 [--shed-threshold N] [--fault-seed SEED]
//!                 [--io-model threaded|evented] [--io-shards N]
//!                 [--write-hwm-kb KB]
//!                 [--tenants N] [--machine-mb MB] [--arbiter-ms MS]
//!                 [--quantum-kb KB] [--floor-kb KB] [--initial-grant-mb MB]
//! ```
//!
//! `--io-model evented` swaps the thread-per-connection core for the
//! epoll I/O shard core (`--io-shards` event-loop threads multiplexing
//! every connection; see `DESIGN.md` §14) — the model for 10k+
//! connection experiments. `--write-hwm-kb` sets the per-connection
//! write-backlog high-water mark that arms the eviction deadline in
//! that model.
//!
//! Defaults mirror `ServiceConfig::fast(8)` — millisecond tuning so a
//! short remote stress burst sees live grow/shrink decisions.
//! `--fault-seed` arms the standard chaos profile (sporadic allocation
//! failures, torn/stalled/dropped reply frames, a couple of
//! background-thread panics) with the given deterministic seed; it
//! requires a binary built with `--features faults`.
//!
//! `--tenants N` (N >= 1) starts the multi-tenant backend instead: N
//! logical databases with ids `0..N`, each its own `LockService` and
//! tuner, under one `--machine-mb` budget split equally at startup
//! (`--initial-grant-mb` overrides the per-tenant grant — set it below
//! the equal split to leave free-pool headroom for tenants created
//! later, e.g. by the client's churn mode).
//! The cross-tenant arbiter wakes every `--arbiter-ms` and moves up to
//! `--quantum-kb` per pass from the lowest-benefit donor to the
//! highest-benefit recipient; `--arbiter-ms 0` disables it, which is
//! the static-equal-split baseline the noisy-neighbor A/B compares
//! against. Clients bind a connection to a tenant with the HELLO
//! frame (`locktune-client --tenant ID`).
//!
//! Exit codes: `1` usage, `2` invalid configuration, `3` thread-spawn
//! failure, `4` bind failure.

use std::sync::Arc;
use std::time::Duration;

use locktune_net::{IoModel, Server, ServerConfig};
use locktune_service::{FaultInjector, FaultPlan, FaultSite, LockService, ServiceConfig};
use locktune_tenants::{TenantDirectory, TenantsConfig};

struct Args {
    addr: String,
    shards: usize,
    tuning_ms: u64,
    deadlock_ms: u64,
    timeout_ms: u64,
    log_capacity: usize,
    initial_kb: u64,
    reply_queue: usize,
    max_conns: usize,
    shed_threshold: u32,
    fault_seed: Option<u64>,
    io_model: IoModel,
    io_shards: usize,
    write_hwm_kb: usize,
    tenants: u32,
    machine_mb: u64,
    arbiter_ms: u64,
    quantum_kb: u64,
    floor_kb: u64,
    initial_grant_mb: u64,
}

/// The standard chaos profile: every fault site armed, panics capped
/// so the run stays a *recovery* exercise rather than a crash loop.
/// Purely a function of the seed — two servers started with the same
/// seed inject identically given the same check sequence.
fn chaos_plan(seed: u64) -> FaultInjector {
    FaultPlan::new(seed)
        .rate(FaultSite::AllocFail, 0.02)
        .burst(FaultSite::WireStall, 97, 1)
        .burst(FaultSite::WireTorn, 251, 1)
        .burst(FaultSite::WireDisconnect, 403, 1)
        .rate(FaultSite::TunerPanic, 1.0)
        .limit(FaultSite::TunerPanic, 2)
        .rate(FaultSite::SweeperPanic, 1.0)
        .limit(FaultSite::SweeperPanic, 2)
        .stall(Duration::from_millis(2))
        .build()
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7474".into(),
        shards: 8,
        tuning_ms: 50,
        deadlock_ms: 10,
        timeout_ms: 2_000,
        log_capacity: 512,
        initial_kb: 2 * 1024,
        reply_queue: ServerConfig::default().reply_queue_capacity,
        max_conns: ServerConfig::default().max_connections,
        shed_threshold: 0,
        fault_seed: None,
        io_model: ServerConfig::default().io_model,
        io_shards: ServerConfig::default().io_shards,
        write_hwm_kb: ServerConfig::default().write_hwm_bytes / 1024,
        tenants: 0,
        machine_mb: 64,
        arbiter_ms: 100,
        quantum_kb: 2 * 1024,
        floor_kb: 2 * 1024,
        initial_grant_mb: 0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--shards" => args.shards = parse(&value("--shards")?, "--shards")?,
            "--tuning-ms" => args.tuning_ms = parse(&value("--tuning-ms")?, "--tuning-ms")?,
            "--deadlock-ms" => args.deadlock_ms = parse(&value("--deadlock-ms")?, "--deadlock-ms")?,
            "--timeout-ms" => args.timeout_ms = parse(&value("--timeout-ms")?, "--timeout-ms")?,
            "--log-capacity" => {
                args.log_capacity = parse(&value("--log-capacity")?, "--log-capacity")?
            }
            "--initial-kb" => args.initial_kb = parse(&value("--initial-kb")?, "--initial-kb")?,
            "--reply-queue" => args.reply_queue = parse(&value("--reply-queue")?, "--reply-queue")?,
            "--max-conns" => args.max_conns = parse(&value("--max-conns")?, "--max-conns")?,
            "--shed-threshold" => {
                args.shed_threshold = parse(&value("--shed-threshold")?, "--shed-threshold")?
            }
            "--fault-seed" => {
                args.fault_seed = Some(parse(&value("--fault-seed")?, "--fault-seed")?)
            }
            "--io-model" => {
                args.io_model = match value("--io-model")?.as_str() {
                    "threaded" => IoModel::Threaded,
                    "evented" => IoModel::Evented,
                    other => {
                        return Err(format!(
                            "bad value {other:?} for --io-model (expected threaded or evented)"
                        ))
                    }
                }
            }
            "--io-shards" => args.io_shards = parse(&value("--io-shards")?, "--io-shards")?,
            "--write-hwm-kb" => {
                args.write_hwm_kb = parse(&value("--write-hwm-kb")?, "--write-hwm-kb")?
            }
            "--tenants" => args.tenants = parse(&value("--tenants")?, "--tenants")?,
            "--machine-mb" => args.machine_mb = parse(&value("--machine-mb")?, "--machine-mb")?,
            "--arbiter-ms" => args.arbiter_ms = parse(&value("--arbiter-ms")?, "--arbiter-ms")?,
            "--quantum-kb" => args.quantum_kb = parse(&value("--quantum-kb")?, "--quantum-kb")?,
            "--floor-kb" => args.floor_kb = parse(&value("--floor-kb")?, "--floor-kb")?,
            "--initial-grant-mb" => {
                args.initial_grant_mb = parse(&value("--initial-grant-mb")?, "--initial-grant-mb")?
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn parse<T: std::str::FromStr>(s: &str, name: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad value {s:?} for {name}"))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("locktune-server: {e}");
            std::process::exit(1);
        }
    };

    let faults = match args.fault_seed {
        Some(seed) => {
            if !locktune_faults::ENABLED {
                eprintln!(
                    "locktune-server: --fault-seed needs a build with --features faults \
                     (this binary compiled the injection sites out)"
                );
                std::process::exit(2);
            }
            chaos_plan(seed)
        }
        None => FaultInjector::disabled(),
    };

    let config = ServiceConfig {
        tuning_interval: Duration::from_millis(args.tuning_ms),
        deadlock_interval: Duration::from_millis(args.deadlock_ms),
        lock_wait_timeout: (args.timeout_ms > 0).then(|| Duration::from_millis(args.timeout_ms)),
        tuning_log_capacity: args.log_capacity,
        // A small starting pool makes the tuner visibly work for its
        // keep: DSS bursts push it past the free target and force
        // growth, quiescence shrinks it back.
        initial_lock_bytes: args.initial_kb * 1024,
        shed_oom_threshold: args.shed_threshold,
        ..ServiceConfig::fast(args.shards)
    };

    let server_config = ServerConfig {
        reply_queue_capacity: args.reply_queue,
        max_connections: args.max_conns,
        faults: faults.clone(),
        io_model: args.io_model,
        io_shards: args.io_shards,
        write_hwm_bytes: args.write_hwm_kb * 1024,
        ..ServerConfig::default()
    };

    if args.tenants > 0 {
        serve_tenants(&args, config, faults, server_config);
    }

    let service = match LockService::start_with_faults(config, faults.clone()) {
        Ok(s) => Arc::new(s),
        Err(e) => {
            eprintln!("locktune-server: service start failed: {e}");
            std::process::exit(e.exit_code());
        }
    };

    let server = match Server::bind_with_config(Arc::clone(&service), &args.addr, server_config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("locktune-server: bind {}: {e}", args.addr);
            std::process::exit(4);
        }
    };
    println!(
        "locktune-server listening on {} ({} shards, tuning every {:?}, LOCKTIMEOUT {:?}, {})",
        server.local_addr(),
        service.shard_count(),
        service.config().tuning_interval,
        service.config().lock_wait_timeout,
        match args.io_model {
            IoModel::Threaded => "threaded io".to_string(),
            IoModel::Evented => format!("evented io x{}", args.io_shards),
        },
    );
    if let Some(seed) = args.fault_seed {
        println!("locktune-server: chaos profile armed (seed {seed})");
    }

    // Serve until killed; the accept thread does all the work.
    loop {
        std::thread::park();
    }
}

/// Start the multi-tenant backend: N tenants under one machine budget,
/// the arbiter rebalancing between them (or parked, for the static
/// baseline). Never returns.
fn serve_tenants(
    args: &Args,
    service_template: ServiceConfig,
    faults: FaultInjector,
    server_config: ServerConfig,
) -> ! {
    const KIB: u64 = 1024;
    const MIB: u64 = 1024 * 1024;
    let machine = args.machine_mb * MIB;
    let config = TenantsConfig {
        machine_budget_bytes: machine,
        floor_bytes: args.floor_kb * KIB,
        // Equal split at startup — the arbiter (if on) moves budget
        // from there as per-tenant pressure diverges. An explicit
        // smaller grant leaves free-pool headroom for churned-in
        // tenants.
        initial_grant_bytes: if args.initial_grant_mb > 0 {
            args.initial_grant_mb * MIB
        } else {
            machine / u64::from(args.tenants)
        },
        quantum_bytes: args.quantum_kb * KIB,
        arbiter_interval: Duration::from_millis(args.arbiter_ms),
        service: service_template,
        ..TenantsConfig::default()
    };
    let directory = match TenantDirectory::start_with_faults(config, faults) {
        Ok(d) => Arc::new(d),
        Err(e) => {
            eprintln!("locktune-server: tenant directory start failed: {e}");
            std::process::exit(e.exit_code());
        }
    };
    for id in 0..args.tenants {
        if let Err(e) = directory.create_tenant(id) {
            eprintln!("locktune-server: create tenant {id}: {e}");
            std::process::exit(e.exit_code());
        }
    }
    let server =
        match Server::bind_tenants_with_config(Arc::clone(&directory), &args.addr, server_config) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("locktune-server: bind {}: {e}", args.addr);
                std::process::exit(4);
            }
        };
    println!(
        "locktune-server listening on {} ({} tenants, {} MiB machine budget, arbiter {})",
        server.local_addr(),
        args.tenants,
        args.machine_mb,
        if args.arbiter_ms == 0 {
            "off (static split)".to_string()
        } else {
            format!("every {} ms", args.arbiter_ms)
        },
    );
    if let Some(seed) = args.fault_seed {
        println!("locktune-server: chaos profile armed (seed {seed})");
    }
    loop {
        std::thread::park();
    }
}
