//! Cluster end-to-end: real servers on loopback sockets, a
//! [`RoutingClient`] per transaction, a [`ClusterDetector`] chasing
//! edges across them. The headline property is the ISSUE's
//! cross-node deadlock guarantee — a cycle spanning two partitions,
//! invisible to both local sweepers, is detected and resolved with
//! **exactly one** victim, chosen by the same highest-id policy the
//! local sweeper uses.

use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

use locktune_cluster::{
    BreakerConfig, ClusterConfig, ClusterDetector, ClusterError, RoutingClient,
};
use locktune_integration_tests::{assert_drained, eventually, start_nodes};
use locktune_lockmgr::partition::slot_of;
use locktune_lockmgr::{LockMode, LockOutcome, ResourceId, RowId, TableId};
use locktune_net::wire::{self, Reply, Request};
use locktune_net::{Client, ClientError, IoModel, ReconnectConfig, Server, ServerConfig};
use locktune_service::{BatchOutcome, LockService, ServiceConfig, ServiceError};

/// Start an `n`-node cluster on loopback; each node is its own
/// service + server, exactly what `locktune-server` runs per process.
fn cluster(n: usize, timeout: Duration) -> (Vec<Server>, Vec<Arc<LockService>>, ClusterConfig) {
    cluster_with(n, timeout, ServerConfig::default)
}

/// [`cluster`] with each node's server built from `server_config()`.
fn cluster_with(
    n: usize,
    timeout: Duration,
    server_config: impl Fn() -> ServerConfig,
) -> (Vec<Server>, Vec<Arc<LockService>>, ClusterConfig) {
    let (services, servers, addrs) = start_nodes(
        n,
        || ServiceConfig {
            lock_wait_timeout: Some(timeout),
            ..ServiceConfig::fast(4)
        },
        |_| server_config(),
    );
    let config = ClusterConfig {
        nodes: addrs,
        reconnect: ReconnectConfig::default(),
        gid: None,
        breaker: BreakerConfig::default(),
    };
    (servers, services, config)
}

/// The lowest table id owned by partition `slot` of an `n`-node
/// cluster (the partition map is the shared Fibonacci table hash).
fn table_for_slot(slot: usize, n: usize) -> TableId {
    (0u32..)
        .map(TableId)
        .find(|&t| slot_of(t, n) == slot)
        .expect("every slot owns some table")
}

/// Routed batches come back in request order with each item executed
/// on the node that owns its table, and the per-node accounting agrees
/// exactly with the merged client view.
#[test]
fn routed_batch_merges_in_request_order() {
    let (servers, services, config) = cluster(3, Duration::from_secs(5));
    let mut rc = RoutingClient::connect(&config).expect("routing client");

    // A batch deliberately interleaving all three partitions, rows and
    // tables, so the merge has to reorder across nodes.
    let mut items = Vec::new();
    for i in 0..3 {
        let t = table_for_slot(i, 3);
        items.push((ResourceId::Table(t), LockMode::IX));
        items.push((ResourceId::Row(t, RowId(7 + i as u64)), LockMode::X));
    }
    let outcomes = rc.lock_many(&items).expect("routed batch");
    assert_eq!(outcomes.len(), items.len());
    for (k, o) in outcomes.iter().enumerate() {
        assert!(
            matches!(o, BatchOutcome::Done(Ok(LockOutcome::Granted))),
            "item {k}: {o:?}"
        );
    }

    // Every node holds exactly the two locks routed to it (its table's
    // IX + row X), and the cluster-wide sum equals the client's view.
    // The audit's `charged_slots` counts slots actually charged to
    // held locks (`pool_slots_used` would also count
    // slack parked in slot caches). Identical workload per node ⇒
    // identical charge, and the cluster total is exactly the per-node
    // charge times the partition count — nothing leaked, nothing
    // double-routed.
    let audits = rc.validate().expect("mid-transaction audit");
    assert!(audits[0].charged_slots > 0, "node 0 holds nothing");
    for (i, r) in audits.iter().enumerate() {
        assert_eq!(
            r.charged_slots, audits[0].charged_slots,
            "node {i} charge differs"
        );
    }
    let total: u64 = audits.iter().map(|r| r.charged_slots).sum();
    assert_eq!(total, audits[0].charged_slots * 3);

    let report = rc.unlock_all().expect("unlock_all");
    assert_eq!(report.released_locks, items.len() as u64);

    // Drain (slot caches flush asynchronously), then audit every
    // node.
    assert_drained(&services);
    for r in rc.validate().expect("cluster audit") {
        assert_eq!(r.charged_slots, 0);
    }
    for s in servers {
        s.shutdown();
    }
}

/// `unlock_all` sends to every node before collecting from any, so a
/// dead node in the middle of the node list must neither stop the
/// release on the nodes after it nor spoil the summed report.
#[test]
fn unlock_all_releases_outer_nodes_when_the_middle_node_is_dead() {
    let (mut servers, services, mut config) = cluster(3, Duration::from_secs(5));
    // A dead node must cost a bounded, short reconnect cycle.
    config.reconnect = ReconnectConfig {
        max_attempts: 2,
        base_delay: Duration::from_millis(1),
        max_delay: Duration::from_millis(2),
        ..ReconnectConfig::default()
    };
    let mut rc = RoutingClient::connect(&config).expect("routing client");

    let mut items = Vec::new();
    for slot in 0..3 {
        let t = table_for_slot(slot, 3);
        items.push((ResourceId::Table(t), LockMode::IX));
        for r in 0..=slot as u64 {
            items.push((ResourceId::Row(t, RowId(r)), LockMode::X));
        }
    }
    let outcomes = rc.lock_many(&items).expect("routed batch");
    assert!(outcomes.iter().all(BatchOutcome::is_granted));

    // Node 1 dies holding its share (IX + 2 rows); its teardown
    // releases them server-side.
    servers.remove(1).shutdown();

    // Nodes 0 and 2 hold IX + 1 row and IX + 3 rows.
    let report = rc.unlock_all().expect("a dead node is tolerated");
    assert_eq!(report.released_locks, 2 + 4);
    assert_drained(&services);
    for s in servers {
        s.shutdown();
    }
}

/// `unlock_all` contacts only the nodes the transaction sent lock
/// traffic to: a one-node transaction costs the other node nothing —
/// not even an empty `UnlockAll` — and a following two-node
/// transaction still releases on both. The per-node reply counter is
/// the evented shard's `writev_calls` (one per reply on these strictly
/// request/reply connections), read over a dedicated scrape connection
/// whose own replies are the only other thing it counts.
#[test]
fn unlock_all_contacts_only_the_nodes_the_transaction_touched() {
    let (servers, services, config) = cluster_with(2, Duration::from_secs(5), || ServerConfig {
        io_model: IoModel::Evented,
        io_shards: 1,
        ..ServerConfig::default()
    });
    let mut rc = RoutingClient::connect(&config).expect("routing client");
    let mut scrapers: Vec<Client> = config
        .nodes
        .iter()
        .map(|addr| Client::connect(addr).expect("scrape connection"))
        .collect();
    let mut replies = || -> Vec<u64> {
        scrapers
            .iter_mut()
            .map(|c| c.metrics(0, 0).expect("scrape").io_shards[0].writev_calls)
            .collect()
    };
    let txn = |slots: &[usize]| -> Vec<(ResourceId, LockMode)> {
        slots
            .iter()
            .flat_map(|&slot| {
                let t = table_for_slot(slot, 2);
                [
                    (ResourceId::Table(t), LockMode::IX),
                    (ResourceId::Row(t, RowId(1)), LockMode::X),
                ]
            })
            .collect()
    };

    // One-node transaction: node 0 answers the batch and the release;
    // node 1 answers nothing but the earlier scrape itself.
    let before = replies();
    let items = txn(&[0]);
    assert!(rc
        .lock_many(&items)
        .expect("one-node batch")
        .iter()
        .all(BatchOutcome::is_granted));
    let report = rc.unlock_all().expect("one-node release");
    assert_eq!(report.released_locks, items.len() as u64);
    let after = replies();
    assert_eq!(
        after[0] - before[0],
        1 + 2,
        "node 0: scrape + batch + release"
    );
    assert_eq!(after[1] - before[1], 1, "node 1 was contacted");

    // Two-node transaction right behind it: both nodes release.
    let items = txn(&[0, 1]);
    assert!(rc
        .lock_many(&items)
        .expect("two-node batch")
        .iter()
        .all(BatchOutcome::is_granted));
    let report = rc.unlock_all().expect("two-node release");
    assert_eq!(report.released_locks, items.len() as u64);
    let last = replies();
    for node in 0..2 {
        assert_eq!(last[node] - after[node], 1 + 2, "node {node}");
    }
    // A single routed lock marks its node too.
    let t1 = table_for_slot(1, 2);
    rc.lock(ResourceId::Table(t1), LockMode::S).expect("lock");
    assert_eq!(rc.unlock_all().expect("release").released_locks, 1);

    for r in rc.validate().expect("cluster audit") {
        assert_eq!(r.charged_slots, 0);
    }
    assert_drained(&services);
    for s in servers {
        s.shutdown();
    }
}

/// A node that answers the admission ping and dies before the gid is
/// bound was lost while connecting: no session existed, so `connect`
/// must not report one lost. Node 1 here is a bare listener that
/// answers exactly one `Ping`, then drops the socket and itself.
#[test]
fn a_node_lost_while_binding_the_gid_is_not_a_lost_session() {
    let (servers, _services, mut config) = cluster(1, Duration::from_secs(5));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake node");
    config
        .nodes
        .push(listener.local_addr().unwrap().to_string());
    let fake = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        drop(listener);
        let (id, req) = wire::read_request(&mut stream)
            .expect("read")
            .expect("a request");
        let Request::Ping(echo) = req else {
            panic!("expected the admission ping, got {req:?}")
        };
        wire::write_reply(&mut stream, id, &Reply::Pong(echo)).expect("pong");
    });
    config.gid = Some(7);
    config.reconnect = ReconnectConfig {
        max_attempts: 2,
        base_delay: Duration::from_millis(1),
        max_delay: Duration::from_millis(2),
        ..ReconnectConfig::default()
    };
    match RoutingClient::connect(&config) {
        Err(ClusterError::Node { node: 1, .. }) => {}
        Err(e) => panic!("expected a connect-time node error, got {e:?}"),
        Ok(_) => panic!("node 1 is gone, connect must fail"),
    }
    fake.join().expect("fake node");
    for s in servers {
        s.shutdown();
    }
}

/// The acceptance scenario: transactions A (gid 1) and B (gid 2) each
/// hold an X lock on their own partition and then request the other's
/// — a cycle spanning two nodes. Neither local sweeper can see it.
/// The cluster detector must resolve it with exactly one victim: gid
/// 2, the highest in the cycle, matching the local sweeper's policy.
#[test]
fn cross_node_deadlock_resolved_with_one_victim() {
    let (servers, services, config) = cluster(2, Duration::from_secs(10));
    let t0 = ResourceId::Table(table_for_slot(0, 2));
    let t1 = ResourceId::Table(table_for_slot(1, 2));

    let mut a = RoutingClient::connect(&ClusterConfig {
        gid: Some(1),
        ..config.clone()
    })
    .expect("client a");
    let mut b = RoutingClient::connect(&ClusterConfig {
        gid: Some(2),
        ..config.clone()
    })
    .expect("client b");

    // Phase 1: each grabs its own partition's table exclusively.
    assert!(matches!(
        a.lock_many(&[(t0, LockMode::X)]).expect("a holds t0")[0],
        BatchOutcome::Done(Ok(LockOutcome::Granted))
    ));
    assert!(matches!(
        b.lock_many(&[(t1, LockMode::X)]).expect("b holds t1")[0],
        BatchOutcome::Done(Ok(LockOutcome::Granted))
    ));

    // Phase 2: each requests the other's table — both block.
    let a_thread = std::thread::spawn(move || {
        let out = a.lock_many(&[(t1, LockMode::X)]);
        (a, out)
    });
    let b_thread = std::thread::spawn(move || {
        let out = b.lock_many(&[(t0, LockMode::X)]);
        (b, out)
    });

    // The detector chases edges until the cycle closes and one victim
    // falls. Both waits are chains locally, so the local sweepers (on
    // 10 ms sweeps all along) must not have acted: the proof is that
    // resolution arrives as a *remote* cancel.
    let mut detector = ClusterDetector::connect(&config).expect("detector");
    let mut victims = Vec::new();
    assert!(
        eventually(Duration::from_secs(8), || {
            victims.extend(detector.run_once().victims);
            !victims.is_empty()
        })
        .is_some(),
        "cross-node deadlock never detected"
    );
    assert_eq!(victims.len(), 1, "exactly one victim: {victims:?}");
    assert_eq!(victims[0].gid, 2, "highest gid in the cycle loses");
    assert_eq!(
        victims[0].confirmed.len(),
        1,
        "the victim waits on exactly one node"
    );
    assert_eq!(victims[0].confirmed[0].0, 0, "b waits on node 0 (for t0)");

    // B's blocked item must come back as a deadlock abort; B then
    // releases, unblocking A, whose item must be granted.
    let (mut b, b_out) = b_thread.join().expect("b thread");
    match &b_out.expect("b batch completes")[0] {
        BatchOutcome::Done(Err(ServiceError::DeadlockVictim)) => {}
        other => panic!("b expected DeadlockVictim, got {other:?}"),
    }
    b.unlock_all().expect("b releases");

    let (mut a, a_out) = a_thread.join().expect("a thread");
    match &a_out.expect("a batch completes")[0] {
        BatchOutcome::Done(Ok(_)) => {}
        other => panic!("a expected a grant after b aborted, got {other:?}"),
    }
    a.unlock_all().expect("a releases");

    // The remote cancel is journaled on the victim's waiting node and
    // only there; no local sweeper victimized anyone.
    let n0 = services[0].obs_counters();
    let n1 = services[1].obs_counters();
    assert_eq!(n0.remote_cancels, 1, "victim's wait was on node 0");
    assert_eq!(n1.remote_cancels, 0);
    assert_eq!(n0.deadlock_victims, 0, "local sweeper must not fire");
    assert_eq!(n1.deadlock_victims, 0);

    assert_drained(&services);
    for s in servers {
        s.shutdown();
    }
}

/// A cycle confined to one node is the local sweeper's jurisdiction:
/// the cluster detector polls it, sees all edges from one node, and
/// stands aside; the local sweeper resolves it (and the detector's
/// remote-cancel counter stays zero).
#[test]
fn in_node_cycle_left_to_local_sweeper() {
    let (servers, services, config) = cluster(2, Duration::from_secs(10));
    let t0 = table_for_slot(0, 2);
    let addr0 = &config.nodes[0];

    // Two plain sessions on node 0, classic AB/BA row deadlock under
    // one table (covered by IX intents so the rows conflict directly).
    let mut x = Client::connect(addr0).expect("x");
    let mut y = Client::connect(addr0).expect("y");
    x.lock(ResourceId::Table(t0), LockMode::IX).unwrap();
    y.lock(ResourceId::Table(t0), LockMode::IX).unwrap();
    x.lock(ResourceId::Row(t0, RowId(1)), LockMode::X).unwrap();
    y.lock(ResourceId::Row(t0, RowId(2)), LockMode::X).unwrap();

    // A detector polling throughout must never act on this cycle.
    let detector = ClusterDetector::connect(&config).expect("detector");
    let handle = detector.spawn(Duration::from_millis(5));

    let x_thread = std::thread::spawn(move || {
        let r = x.lock(ResourceId::Row(t0, RowId(2)), LockMode::X);
        (x, r)
    });
    let y_thread = std::thread::spawn(move || {
        let r = y.lock(ResourceId::Row(t0, RowId(1)), LockMode::X);
        (y, r)
    });

    let (mut x, x_res) = x_thread.join().expect("x thread");
    let (mut y, y_res) = y_thread.join().expect("y thread");
    let aborted = [&x_res, &y_res]
        .iter()
        .filter(|r| matches!(r, Err(ClientError::Service(ServiceError::DeadlockVictim))))
        .count();
    assert_eq!(
        aborted, 1,
        "local sweeper picks one victim: {x_res:?} / {y_res:?}"
    );
    let _ = x.unlock_all();
    let _ = y.unlock_all();

    let (_rounds, detector_victims) = handle.stop();
    assert_eq!(
        detector_victims, 0,
        "detector must not act on an in-node cycle"
    );
    assert_eq!(services[0].obs_counters().remote_cancels, 0);
    assert_eq!(services[0].obs_counters().deadlock_victims, 1);

    for s in servers {
        s.shutdown();
    }
}
