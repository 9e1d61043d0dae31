//! The loopback smokes as tests. Each runs the driver a binary runs
//! (`locktune-server`'s start, `locktune-client`'s stress,
//! `locktune-cluster-client`'s storm), configured by the binary's own
//! flags, over in-process servers bound to port 0, and asserts on the
//! driver's report, never on a printed line. A node is killed after N
//! commits read from the driver's progress counter, so the kill always
//! lands mid-storm.

use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::ScopedJoinHandle;
use std::time::{Duration, Instant};

use locktune_cli::storm::{self, NodeAudit, StormReport};
use locktune_cli::{server, stress, Flags};
use locktune_cluster::{NodeState, Transition};
use locktune_net::{Client, Server};
use locktune_obs::prom;
use locktune_service::txn::TxnOutcome;

/// Read the command line `args` into `flags`.
fn parse(flags: Flags<'_>, args: &str) {
    flags
        .parse(args.split_whitespace().map(String::from))
        .expect(args);
}

/// `locktune-server FLAGS`, on port 0.
fn node(flags: &str) -> server::Node {
    let mut config = server::Config::default();
    parse(config.flags(), &format!("{flags} --addr 127.0.0.1:0"));
    server::start(&config).expect("node start")
}

/// `locktune-client FLAGS` against `node`.
fn client(node: &server::Node, flags: &str) -> stress::Config {
    let mut config = stress::Config::default();
    parse(config.flags(), &format!("{flags} --addr {}", node.addr()));
    config
}

/// Wait until `progress` reaches `n`, or `run` ended short of it.
fn after<T>(progress: &AtomicU64, n: u64, run: &ScopedJoinHandle<'_, T>) {
    let start = Instant::now();
    while progress.load(Ordering::Relaxed) < n && !run.is_finished() {
        assert!(start.elapsed() < Duration::from_secs(30), "stuck");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The value of the Prometheus series `name` on `page`.
fn series(page: &str, name: &str) -> f64 {
    let mut lines = page.lines().map(|line| line.split_whitespace());
    let mut found = lines.find(|f| f.clone().next() == Some(name)).expect(name);
    found.nth(1).and_then(|v| v.parse().ok()).expect(name)
}

/// `locktune-server --initial-kb 256 --io-model MODEL` and
/// `locktune-client --min-intervals 2 --scrape [--batch]`: the burst,
/// the force-killed connection, the drain and the audits, with a
/// Prometheus page rendered from a scrape taken mid-burst.
fn remote_burst(io_model: &str, batch: &str) {
    let node = node(&format!("--initial-kb 256 --io-model {io_model}"));
    let config = client(&node, &format!("--min-intervals 2 --scrape {batch}"));
    // A server that has been up a while: its tuner has run.
    let mut scraper = Client::connect(node.addr()).unwrap();
    while scraper.metrics(u64::MAX, 0).unwrap().tuning_intervals == 0 {
        std::thread::sleep(Duration::from_millis(5));
    }
    let progress = AtomicU64::new(0);
    let (report, page, seen) = std::thread::scope(|s| {
        let run = s.spawn(|| stress::run(&config, &progress));
        after(&progress, 100, &run);
        let mid_burst = prom::render(&scraper.metrics(u64::MAX, 0).unwrap());
        let seen = progress.load(Ordering::Relaxed);
        (run.join().unwrap().expect("burst"), mid_burst, seen)
    });
    let committed = report.tally.get(TxnOutcome::Committed);
    assert!(seen < committed, "scraped after the last commit");
    let live = "lock_memory_bytes grants_total tuning_intervals_total";
    for name in live.split(' ').map(|name| format!("locktune_{name}")) {
        assert!(series(&page, &name) > 0.0, "{name}: {page}");
    }
    assert!(report.audit.is_ok() && report.killed, "{report}");
    let server = report.server.as_ref().unwrap();
    assert!(server.tuning_intervals >= 2, "{report}");
    assert_eq!(server.io_shards.is_empty(), io_model == "threaded");
    assert_eq!(server.pool_slots_used, 0, "{report}");
    let checks = ["tuning intervals", "waits timed", "client covered"];
    for check in checks.into_iter().chain(["pool gauges", "tuner ticking"]) {
        assert!(report.check(check), "{check}: {report}");
    }
    assert_eq!(report.check("batch counters"), config.batch, "{report}");
    assert!(report.passed(), "{report}");
    node.server.shutdown();
}

#[test]
fn remote_burst_threaded() {
    remote_burst("threaded", "");
}

#[test]
fn remote_burst_threaded_batched() {
    remote_burst("threaded", "--batch");
}

#[test]
fn remote_burst_evented() {
    remote_burst("evented", "");
}

#[test]
fn remote_burst_evented_batched() {
    remote_burst("evented", "--batch");
}

/// `locktune-server --tenants 4 --machine-mb 48 --initial-grant-mb 8
/// --arbiter-ms 50` (16 MiB of free-pool headroom for churned-in
/// tenants) under `locktune-client --tenants 4 --workers 2 --dss-rows
/// 800 FLAGS`: a rollup scraped mid-run sees every tenant, and the
/// budget partition and the machine-wide audit are exact at the end.
fn tenant_run(flags: &str) -> stress::StressReport {
    let node = node("--tenants 4 --machine-mb 48 --initial-grant-mb 8 --arbiter-ms 50");
    let flags = format!("--tenants 4 --workers 2 --dss-rows 800 {flags}");
    let config = client(&node, &flags);
    let progress = AtomicU64::new(0);
    let report = std::thread::scope(|s| {
        let run = s.spawn(|| stress::run(&config, &progress));
        after(&progress, 20, &run);
        let mut control = Client::connect(node.addr()).unwrap();
        let tenants = control.tenant_stats(0).unwrap().rollup.tenants;
        assert!(tenants.len() >= 4, "mid-run rollup: {tenants:?}");
        run.join().unwrap().expect("tenant run")
    });
    node.server.shutdown();
    let exact = report.check("budget partition");
    assert!(exact && report.audit.is_ok(), "{report}");
    assert!(report.tally.get(TxnOutcome::Committed) > 0, "{report}");
    assert!(report.passed(), "{report}");
    report
}

/// Noisy: tenant 0 surges scans against an OLTP cohort, and every
/// tenant's own wait tail is read.
#[test]
fn noisy_tenants_keep_the_budget_partition_exact() {
    let report = tenant_run("--tenant-mode noisy --txns 100");
    assert_eq!(report.waits.len(), 4, "{report}");
    assert_eq!(report.rollup.as_ref().unwrap().tenants.len(), 4, "{report}");
}

/// Churn: three transient tenants are created, loaded and dropped while
/// tenant 0 keeps working; after each drop the tenant is gone and the
/// partition is exact, so the drop reclaimed its whole budget.
#[test]
fn churned_tenants_return_their_whole_budget() {
    let report = tenant_run("--tenant-mode churn --txns 60");
    assert_eq!(report.churn.len(), 3, "{report}");
    let churn = &report.churn;
    assert!(
        churn.iter().all(|c| c.granted > 0 && c.reclaimed > 0),
        "{report}"
    );
    let gone = |c: &&stress::Check| c.name == "dropped tenant gone" && c.ok;
    assert_eq!(report.checks.iter().filter(gone).count(), 3, "{report}");
}

/// `locktune-cluster-client --expect-node-loss FLAGS` over `servers`,
/// node 1 shut down once `kill_after` transactions have committed: the
/// kill surfaces as explicit losses and node 1 is unreachable at audit
/// time.
fn storm_with_kill(servers: Vec<Server>, flags: &str, kill_after: u64) -> StormReport {
    let nodes: Vec<_> = servers.iter().map(|s| s.local_addr().to_string()).collect();
    let flags = format!("--nodes {} --expect-node-loss {flags}", nodes.join(","));
    let mut config = storm::Config::default();
    parse(config.flags(), &flags);
    let mut servers: Vec<_> = servers.into_iter().map(Some).collect();
    let progress = AtomicU64::new(0);
    let report = std::thread::scope(|s| {
        let run = s.spawn(|| storm::run(&config, &progress));
        after(&progress, kill_after, &run);
        assert!(!run.is_finished(), "the storm ended before the kill");
        servers[1].take().unwrap().shutdown();
        run.join().unwrap().expect("storm")
    });
    servers.into_iter().flatten().for_each(Server::shutdown);
    let clean = report.failures().is_empty();
    assert!(clean && report.losses() > 0, "{report}");
    assert_eq!(report.audits[1], NodeAudit::Unreachable, "{report}");
    report
}

/// Three `locktune-server --timeout-ms 2000 --deadlock-ms 20` nodes
/// under `--txns 300 FLAGS`, node 1 killed after 100 commits: both
/// survivors drain to zero slots with an exact audit.
fn routed_storm(flags: &str) -> StormReport {
    let node = || node("--timeout-ms 2000 --deadlock-ms 20").server;
    let servers = (0..3).map(|_| node()).collect();
    let report = storm_with_kill(servers, &format!("--txns 300 {flags}"), 100);
    let clean = NodeAudit::Clean { charged: 0 };
    assert_eq!((&report.audits[0], &report.audits[2]), (&clean, &clean));
    report
}

#[test]
fn routed_storm_with_a_node_killed_after_100_commits() {
    routed_storm("");
}

/// Supervised: the kill walks node 1 to Down and reassigns its slot to
/// a survivor.
#[test]
fn supervised_storm_reassigns_a_node_killed_after_100_commits() {
    let report = routed_storm("--pace-ms 2 --supervise --probe-interval-ms 25");
    let down = |t: &Transition| t.node == 1 && t.state == NodeState::Down;
    assert!(report.transitions.iter().any(down), "{report}");
    let owners = report.final_map.as_ref().unwrap().owners();
    assert!(owners == [0, 0, 2] || owners == [0, 2, 2], "{report}");
}

/// `locktune-server --fault-seed 7 --shed-threshold 50 --io-model
/// MODEL` (the shipped chaos profile) and `locktune-client --chaos
/// --min-intervals 2`: injected faults fire and are recovered from, and
/// the audit is as exact as a fault-free run's.
#[cfg(feature = "faults")]
fn chaos_burst(io_model: &str) {
    let node = node(&format!(
        "--fault-seed 7 --shed-threshold 50 --io-model {io_model}"
    ));
    let config = client(&node, "--chaos --min-intervals 2");
    let report = stress::run(&config, &AtomicU64::new(0)).expect("chaos burst");
    let server = report.server.as_ref().unwrap();
    assert!(server.counters.faults_injected > 0, "{report}");
    assert!(server.counters.watchdog_restarts >= 2, "{report}");
    assert!(report.audit.is_ok() && report.passed(), "{report}");
    node.server.shutdown();
}

#[cfg(feature = "faults")]
#[test]
fn chaos_burst_threaded() {
    chaos_burst("threaded");
}

#[cfg(feature = "faults")]
#[test]
fn chaos_burst_evented() {
    chaos_burst("evented");
}

/// Cluster chaos: the routed storm, with a detector chasing edges every
/// 10 ms, over three nodes of which node 2 stalls every ~23rd wire
/// write for 2 ms (a seeded partial partition) and node 1 is killed
/// mid-batch. Every node, the killed one included (its teardown ran at
/// shutdown), drains to zero used slots and audits exactly.
#[cfg(feature = "faults")]
fn cluster_chaos(seed: u64) {
    use locktune_integration_tests::{assert_drained, start_nodes};
    use locktune_net::ServerConfig;
    use locktune_service::{FaultInjector, FaultPlan, FaultSite, ServiceConfig};

    let stall = FaultPlan::new(seed).burst(FaultSite::WireStall, 23, 1);
    let stall = stall.stall(Duration::from_millis(2)).build();
    let faults = |node| {
        if node == 2 {
            stall.clone()
        } else {
            FaultInjector::disabled()
        }
    };
    let server = |node| ServerConfig {
        faults: faults(node),
        ..ServerConfig::default()
    };
    let (services, servers, _) = start_nodes(3, || ServiceConfig::fast(4), server);
    // Two of 64 tables per transaction, an IX intent and 2 X rows of 64
    // on each; the kill lands once a quarter of the minimum committed.
    let flags =
        format!("--txns 40 --rows 64 --oltp-rows 2 --seed {seed} --detector-interval-ms 10");
    let report = storm_with_kill(servers, &flags, 40);
    assert!(report.tally.get(TxnOutcome::Lost) > 0, "{report}");
    assert!(stall.injected(FaultSite::WireStall) > 0, "no stall");
    assert_drained(&services);
}

#[cfg(feature = "faults")]
#[test]
fn cluster_chaos_seed_1() {
    cluster_chaos(0xC1C1_0FFE);
}

#[cfg(feature = "faults")]
#[test]
fn cluster_chaos_seed_2() {
    cluster_chaos(0xBADC_0DE5);
}
