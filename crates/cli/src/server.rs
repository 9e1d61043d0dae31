//! Start a lock service, or a tenant directory, behind a TCP server:
//! what `locktune-server` runs, and what the loopback tests start on
//! port 0.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use locktune_net::{IoModel, Server, ServerConfig};
use locktune_service::{FaultInjector, FaultPlan, FaultSite, LockService, ServiceConfig};
use locktune_tenants::{TenantDirectory, TenantsConfig};

const KIB: u64 = 1024;
const MIB: u64 = 1024 * KIB;

crate::config! {
    /// Everything `locktune-server` takes on its command line; the
    /// defaults are its defaults.
    Config {
        addr: String = "127.0.0.1:7474".into(), value "--addr";
        shards: usize = 8, value "--shards";
        tuning_ms: u64 = 50, value "--tuning-ms";
        deadlock_ms: u64 = 10, value "--deadlock-ms";
        timeout_ms: u64 = 2_000, value "--timeout-ms";
        log_capacity: usize = 512, value "--log-capacity";
        initial_kb: u64 = 2 * 1024, value "--initial-kb";
        reply_queue: usize = ServerConfig::default().reply_queue_capacity, value "--reply-queue";
        max_conns: usize = ServerConfig::default().max_connections, value "--max-conns";
        shed_threshold: u32 = 0, value "--shed-threshold";
        fault_seed: Option<u64> = None, opt "--fault-seed";
        io_model: IoModel = ServerConfig::default().io_model, choice "--io-model"
            &[("threaded", IoModel::Threaded), ("evented", IoModel::Evented)];
        io_shards: usize = ServerConfig::default().io_shards, value "--io-shards";
        write_hwm_kb: usize = ServerConfig::default().write_hwm_bytes / 1024, value "--write-hwm-kb";
        tenants: u32 = 0, value "--tenants";
        machine_mb: u64 = 64, value "--machine-mb";
        arbiter_ms: u64 = 100, value "--arbiter-ms";
        quantum_kb: u64 = 2 * 1024, value "--quantum-kb";
        floor_kb: u64 = 2 * 1024, value "--floor-kb";
        initial_grant_mb: u64 = 0, value "--initial-grant-mb";
    }
}

impl Config {
    fn service(&self) -> ServiceConfig {
        ServiceConfig {
            tuning_interval: Duration::from_millis(self.tuning_ms),
            deadlock_interval: Duration::from_millis(self.deadlock_ms),
            lock_wait_timeout: (self.timeout_ms > 0)
                .then(|| Duration::from_millis(self.timeout_ms)),
            tuning_log_capacity: self.log_capacity,
            // A small starting pool makes the tuner visibly work for
            // its keep: DSS bursts push it past the free target and
            // force growth, quiescence shrinks it back.
            initial_lock_bytes: self.initial_kb * KIB,
            shed_oom_threshold: self.shed_threshold,
            ..ServiceConfig::fast(self.shards)
        }
    }

    fn tenants(&self) -> TenantsConfig {
        let machine = self.machine_mb * MIB;
        TenantsConfig {
            machine_budget_bytes: machine,
            floor_bytes: self.floor_kb * KIB,
            // Equal split at startup; the arbiter (if on) moves budget
            // from there as per-tenant pressure diverges. An explicit
            // smaller grant leaves free-pool headroom for churned-in
            // tenants.
            initial_grant_bytes: if self.initial_grant_mb > 0 {
                self.initial_grant_mb * MIB
            } else {
                machine / u64::from(self.tenants)
            },
            quantum_bytes: self.quantum_kb * KIB,
            arbiter_interval: Duration::from_millis(self.arbiter_ms),
            service: self.service(),
            ..TenantsConfig::default()
        }
    }
}

/// The standard chaos profile `--fault-seed` arms: every fault site,
/// panics capped so the run stays a *recovery* exercise rather than a
/// crash loop. Purely a function of the seed: two servers started with
/// the same seed inject identically given the same check sequence.
pub fn chaos_plan(seed: u64) -> FaultInjector {
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

/// A started server; `Display` is its `listening on` banner.
pub struct Node {
    pub server: Server,
    config: Config,
}

/// Start what `config` describes, listening on `config.addr`. `Err`
/// carries why and the exit code that says so: `2` invalid
/// configuration, `3` thread-spawn failure, `4` bind failure.
pub fn start(config: &Config) -> Result<Node, (String, i32)> {
    let faults = match config.fault_seed {
        Some(_) if !locktune_faults::ENABLED => {
            let why = "--fault-seed needs a build with --features locktune-net/faults";
            return Err((
                format!("{why} (this binary compiled the injection sites out)"),
                2,
            ));
        }
        Some(seed) => chaos_plan(seed),
        None => FaultInjector::disabled(),
    };
    let server_config = ServerConfig {
        reply_queue_capacity: config.reply_queue,
        max_connections: config.max_conns,
        faults: faults.clone(),
        io_model: config.io_model,
        io_shards: config.io_shards,
        write_hwm_bytes: config.write_hwm_kb * 1024,
        ..ServerConfig::default()
    };
    let addr = &config.addr;
    let bound = if config.tenants > 0 {
        let directory = TenantDirectory::start_with_faults(config.tenants(), faults)
            .map_err(|e| (format!("tenant directory start failed: {e}"), e.exit_code()))?;
        for id in 0..config.tenants {
            directory
                .create_tenant(id)
                .map_err(|e| (format!("create tenant {id}: {e}"), e.exit_code()))?;
        }
        Server::bind_tenants_with_config(Arc::new(directory), addr, server_config)
    } else {
        let service = LockService::start_with_faults(config.service(), faults)
            .map_err(|e| (format!("service start failed: {e}"), e.exit_code()))?;
        Server::bind_with_config(Arc::new(service), addr, server_config)
    };
    let server = bound.map_err(|e| (format!("bind {addr}: {e}"), 4))?;
    let config = config.clone();
    Ok(Node { server, config })
}

impl Node {
    /// The address a client dials.
    pub fn addr(&self) -> String {
        self.server.local_addr().to_string()
    }
}

impl fmt::Display for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = &self.config;
        let io = match c.io_model {
            IoModel::Threaded => "threaded io".to_string(),
            IoModel::Evented => format!("evented io x{}", c.io_shards),
        };
        let (addr, shards, tuning) = (self.server.local_addr(), c.shards, c.tuning_ms);
        write!(
            f,
            "locktune-server listening on {addr} ({shards} shards, {io}, tuning every {tuning} ms"
        )?;
        if c.tenants > 0 {
            let (n, mb, ms) = (c.tenants, c.machine_mb, c.arbiter_ms);
            write!(
                f,
                ", {n} tenants under {mb} MiB, arbiter every {ms} ms (0 = off)"
            )?;
        }
        writeln!(f, ")")?;
        if let Some(seed) = c.fault_seed {
            writeln!(f, "locktune-server: chaos profile armed (seed {seed})")?;
        }
        Ok(())
    }
}
