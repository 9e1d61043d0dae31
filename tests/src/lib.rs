//! Shared helpers for the cross-crate integration tests.

pub mod failover;

use std::sync::Arc;
use std::time::{Duration, Instant};

use locktune_core::TunerParams;
use locktune_engine::{Policy, RunResult, Scenario};
use locktune_net::{Server, ServerConfig};
use locktune_service::{LockService, ServiceConfig};

/// Run a short self-tuned smoke scenario.
pub fn tuned_smoke(seconds: u64, clients: u32, seed: u64) -> RunResult {
    Scenario::smoke(
        Policy::SelfTuning(TunerParams::default()),
        seconds,
        clients,
        seed,
    )
    .run()
}

/// Run a short static-policy smoke scenario with the given LOCKLIST.
pub fn static_smoke(locklist_bytes: u64, seconds: u64, clients: u32, seed: u64) -> RunResult {
    Scenario::smoke(
        Policy::Static(locktune_baselines::StaticPolicy {
            locklist_bytes,
            maxlocks_percent: 10.0,
        }),
        seconds,
        clients,
        seed,
    )
    .run()
}

/// Poll `cond` every millisecond until it holds or `within` elapses:
/// how long it took to hold, or `None`.
pub fn eventually(within: Duration, mut cond: impl FnMut() -> bool) -> Option<Duration> {
    let start = Instant::now();
    loop {
        if cond() {
            return Some(start.elapsed());
        }
        if start.elapsed() >= within {
            return None;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Put `service` behind a new loopback server.
pub fn serve(service: &Arc<LockService>, config: ServerConfig) -> Server {
    Server::bind_with_config(Arc::clone(service), "127.0.0.1:0", config).expect("bind loopback")
}

/// Start `n` nodes, each a service from `service()` behind a loopback
/// server from `server(node)`: the services, servers and addresses.
pub fn start_nodes(
    n: usize,
    service: impl Fn() -> ServiceConfig,
    server: impl Fn(usize) -> ServerConfig,
) -> (Vec<Arc<LockService>>, Vec<Server>, Vec<String>) {
    let services: Vec<_> = (0..n)
        .map(|_| Arc::new(LockService::start(service()).expect("service start")))
        .collect();
    let servers: Vec<_> = (0..n).map(|i| serve(&services[i], server(i))).collect();
    let addrs = servers.iter().map(|s| s.local_addr().to_string()).collect();
    (services, servers, addrs)
}

/// Every service drains to zero used lock slots (dead clients are
/// reaped and slot caches flush asynchronously) and passes the exact
/// accounting audit.
pub fn assert_drained(services: &[Arc<LockService>]) {
    for (node, service) in services.iter().enumerate() {
        assert!(
            eventually(Duration::from_secs(10), || service.pool_used_slots() == 0).is_some(),
            "node {node}: {} lock slots leaked",
            service.pool_used_slots()
        );
        service.validate();
    }
}
