//! Cluster failover soak: a 3-node partitioned cluster under routed
//! degraded-mode bursts while one node is killed mid-burst, detected
//! by the supervisor, its slot reassigned to a survivor, and the
//! respawned process rejoined at a new address. Checked end to end:
//!
//! * **graceful degradation** — while the killed node is down, live
//!   partitions keep committing; the dead partition's items come back
//!   retryable [`RoutedOutcome::Unavailable`], never a silently
//!   half-applied batch and never a whole-storm stall;
//! * **detection and reassignment** — the supervisor walks the node
//!   Up → Suspect → Down within its probe budget, and every map that
//!   shows the node non-serving shows its slot already reassigned (the
//!   fence push and the reassignment are one atomic publish);
//! * **rejoin** — after the respawn re-registers, the node walks
//!   Rejoining → Up and the final map owns slots exactly like the
//!   original (identity), at a strictly higher epoch;
//! * **zero double-grants** — a cross-worker claims registry asserts
//!   no two workers ever hold an exclusive row lock at once on a
//!   serving node, across the kill, the reassignment, and the rejoin;
//! * **zero leaks** — every service (survivors, the killed one, the
//!   respawn) drains to zero used slots and passes the exact
//!   accounting audit;
//! * the schedule is seeded and the soak runs under multiple seeds.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use locktune_cluster::{
    BreakerConfig, ClusterConfig, ClusterError, ClusterSupervisor, Degraded, EpochMap, NodeState,
    RoutedOutcome, RoutingClient, SupervisorConfig,
};
use locktune_integration_tests::{assert_drained, eventually, serve, start_nodes};
use locktune_lockmgr::{LockMode, ResourceId};
use locktune_net::{ReconnectConfig, ServerConfig};
use locktune_service::txn::{self, Tally, TxnBackend, TxnOutcome, Verdict};
use locktune_service::{BatchOutcome, ServiceConfig};
use locktune_workload::Mix;
use rand::rngs::StdRng;
use rand::SeedableRng;

const NODES: usize = 3;
const WORKERS: u64 = 4;
/// The node that gets killed and respawned mid-storm.
const KILLED: usize = 1;

/// Exclusive-lock claims registry: resource → (worker, owning node,
/// routing epoch at grant). Two live claims on one resource are a
/// double grant — unless the earlier claim's node stopped serving,
/// which means its locks died with it (the zombie the epoch fence
/// exists to neutralize).
type Claims = Arc<Mutex<HashMap<ResourceId, (u64, usize, u64)>>>;

#[derive(Default)]
struct WorkerReport {
    tally: Tally,
    committed_degraded: u64,
    double_grants: u64,
}

struct Storm {
    stop: AtomicBool,
    progress: AtomicU64,
    /// Workers that finished their initial connect — the kill waits
    /// for everyone, so it always lands mid-burst, never mid-handshake.
    connected: AtomicU64,
}

fn worker(
    addrs: Vec<String>,
    map: locktune_cluster::MapHandle,
    seed: u64,
    gid: u64,
    storm: Arc<Storm>,
    claims: Claims,
) -> WorkerReport {
    let config = ClusterConfig {
        nodes: addrs,
        reconnect: ReconnectConfig {
            max_attempts: 2,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(10),
            seed,
            max_total_attempts: 200,
        },
        gid: Some(gid),
        breaker: BreakerConfig {
            failure_threshold: 2,
            open_base: Duration::from_millis(10),
            open_max: Duration::from_millis(200),
            seed,
        },
    };
    // Initial connect retries: under a loaded test machine the first
    // handshake can hit a transient Busy/reconnect; the storm hasn't
    // started, so retrying is safe and not part of what's under test.
    let mut rc = None;
    for attempt in 0..10 {
        match RoutingClient::connect_with_map(&config, map.clone()) {
            Ok(c) => {
                rc = Some(c);
                break;
            }
            Err(e) if attempt == 9 => panic!("worker connect: {e}"),
            Err(_) => std::thread::sleep(Duration::from_millis(50)),
        }
    }
    let mut rc = rc.expect("connect retries exhausted");
    storm.connected.fetch_add(1, Ordering::Relaxed);
    // Disjoint row spaces per worker keep the oracle's claims honest
    // without serializing the storm: a double grant can then only come
    // from the cluster losing track of a lock, not from two workers
    // racing the same row legitimately.
    let mix = Mix::new(64, 64, 2)
        .and_then(|m| m.with_tables_per_txn(2))
        .and_then(|m| m.with_row_base(gid * 10_000))
        .unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut report = WorkerReport::default();
    let mut set = Vec::new();
    let mut backend = Claiming {
        inner: Degraded::new(&mut rc),
        claims,
        gid,
        snap: map.snapshot(),
        double_grants: 0,
    };
    while !storm.stop.load(Ordering::Relaxed) {
        storm.progress.fetch_add(1, Ordering::Relaxed);
        backend.snap = map.snapshot();
        mix.roll(&mut rng, &mut set);
        let outcome = txn::run_txn(&mut backend, &set, &mut report.tally)
            .unwrap_or_else(|e| panic!("worker transaction: {e}"));
        if outcome == TxnOutcome::Committed && backend.snap.degraded() {
            report.committed_degraded += 1;
        }
    }
    report.double_grants = backend.double_grants;
    rc.stop();
    report
}

/// The degraded back-end with the claims oracle between lock and
/// release: every exclusive grant is claimed as it comes back, and
/// the claims come out *before* the locks are released, so the oracle
/// never shows a lock still held whose claim is gone.
struct Claiming<'a> {
    inner: Degraded<'a>,
    claims: Claims,
    gid: u64,
    /// The routing map at the start of the transaction.
    snap: Arc<EpochMap>,
    double_grants: u64,
}

impl TxnBackend for Claiming<'_> {
    type Error = ClusterError;

    fn lock_set(
        &mut self,
        set: &[(ResourceId, LockMode)],
        verdict: &mut Verdict,
    ) -> Result<(), ClusterError> {
        self.inner.lock_set(set, verdict)?;
        for (k, outcome) in self.inner.outcomes().iter().enumerate() {
            let (res, mode) = set[k];
            if mode == LockMode::X
                && matches!(outcome, RoutedOutcome::Done(BatchOutcome::Done(Ok(_))))
            {
                self.double_grants += register_claim(&self.claims, &self.snap, res, self.gid);
            }
        }
        Ok(())
    }

    fn release(&mut self, verdict: &mut Verdict) -> Result<(), ClusterError> {
        let gid = self.gid;
        self.claims.lock().unwrap().retain(|_, (w, _, _)| *w != gid);
        self.inner.release(verdict)
    }
}

/// Insert a claim for an exclusive grant; 1 if another worker's claim
/// is still live on a serving node (a double grant), else 0.
fn register_claim(claims: &Claims, snap: &EpochMap, res: ResourceId, gid: u64) -> u64 {
    let node = snap.owner_of(res);
    let mut claims = claims.lock().unwrap();
    let mut double_grants = 0;
    if let Some(&(other, other_node, other_epoch)) = claims.get(&res) {
        if other != gid && snap.states[other_node].serving() {
            eprintln!(
                "DOUBLE GRANT on {res:?}: worker {gid} (node {node}, epoch {}) \
                 vs worker {other} (node {other_node}, epoch {other_epoch})",
                snap.epoch
            );
            double_grants = 1;
        }
    }
    claims.insert(res, (gid, node, snap.epoch));
    double_grants
}

fn wait_progress(storm: &Storm, upto: u64) {
    let base = storm.progress.load(Ordering::Relaxed);
    assert!(
        eventually(Duration::from_secs(20), || {
            storm.progress.load(Ordering::Relaxed) >= base + upto
        }),
        "storm stalled"
    );
}

fn run_failover(seed: u64) {
    let (services, servers, addrs) = start_nodes(
        NODES,
        || ServiceConfig::fast(4),
        |_| ServerConfig::default(),
    );
    let mut servers: Vec<_> = servers.into_iter().map(Some).collect();

    let sup = ClusterSupervisor::spawn(
        addrs.clone(),
        SupervisorConfig {
            probe_interval: Duration::from_millis(25),
            suspect_after: 1,
            down_after: 3,
            drain_deadline: Duration::from_secs(1),
        },
    )
    .expect("supervisor spawn");
    let map = sup.map();

    let storm = Arc::new(Storm {
        stop: AtomicBool::new(false),
        progress: AtomicU64::new(0),
        connected: AtomicU64::new(0),
    });
    let claims: Claims = Arc::new(Mutex::new(HashMap::new()));
    let workers: Vec<_> = (0..WORKERS)
        .map(|w| {
            let addrs = addrs.clone();
            let map = map.clone();
            let storm = Arc::clone(&storm);
            let claims = Arc::clone(&claims);
            std::thread::spawn(move || {
                worker(
                    addrs,
                    map,
                    seed ^ (w + 1).wrapping_mul(0x9E37),
                    w + 1,
                    storm,
                    claims,
                )
            })
        })
        .collect();

    // Phase 1 — healthy storm: every worker connected and a few
    // bursts committed before anything goes wrong.
    assert!(
        eventually(Duration::from_secs(20), || {
            storm.connected.load(Ordering::Relaxed) == WORKERS
        }),
        "not every worker connected"
    );
    wait_progress(&storm, WORKERS * 4);

    // Phase 2 — kill mid-burst. The supervisor must walk the node to
    // Down and publish the reassigned map within its probe budget
    // (3 probes × 25 ms, plus connect-refused latency; 5 s is the
    // "this machine is having a day" margin, not the expectation).
    let killed_at = Instant::now();
    servers[KILLED].take().expect("not yet killed").shutdown();
    assert!(
        eventually(Duration::from_secs(5), || {
            map.snapshot().states[KILLED] == NodeState::Down
        }),
        "supervisor never declared the killed node Down"
    );
    let detect_ms = killed_at.elapsed().as_millis();
    // Reassignment is atomic with the Down publish: the same snapshot
    // that shows Down must already route the slot to a survivor.
    let degraded_map = map.snapshot();
    assert!(degraded_map.degraded());
    let owner = degraded_map.owners()[KILLED];
    assert_ne!(owner, KILLED, "dead node still owns its slot");
    assert!(degraded_map.states[owner].serving());

    // Phase 3 — degraded service: the storm keeps committing on live
    // partitions while the node is Down.
    wait_progress(&storm, WORKERS * 4);

    // Phase 4 — respawn at a NEW address (a restarted process rarely
    // gets its old port back), re-register, and watch the two-phase
    // rejoin bring the node back to Up.
    let respawn = serve(&services[KILLED], ServerConfig::default());
    let new_addr = respawn.local_addr().to_string();
    assert_ne!(new_addr, addrs[KILLED], "respawn reused the old port");
    sup.register_node(KILLED, new_addr);
    servers[KILLED] = Some(respawn);
    assert!(
        eventually(Duration::from_secs(10), || {
            map.snapshot().states.iter().all(|s| *s == NodeState::Up)
        }),
        "rejoin never restored the node to Up"
    );

    // Phase 5 — post-rejoin storm, then stop.
    wait_progress(&storm, WORKERS * 4);
    storm.stop.store(true, Ordering::Relaxed);

    let mut total = WorkerReport::default();
    for w in workers {
        let r = w.join().expect("worker panicked");
        total.tally.merge(&r.tally);
        total.committed_degraded += r.committed_degraded;
        total.double_grants += r.double_grants;
    }
    let committed = total.tally.get(TxnOutcome::Committed);

    // The storm was felt and survived on every axis.
    assert_eq!(total.double_grants, 0, "exclusive lock double-granted");
    assert!(committed > 0, "no transaction survived the storm");
    assert!(
        total.committed_degraded > 0,
        "no live-partition service while the node was down"
    );
    assert!(
        total.tally.unavailable_items > 0,
        "a node was down mid-storm but no batch saw an unavailable partition"
    );

    // Rejoin restored the original ownership at a strictly higher
    // epoch, and the timeline has the full Down → Rejoining → Up arc.
    let final_map = map.snapshot();
    assert_eq!(final_map.owners(), (0..NODES).collect::<Vec<_>>());
    assert!(final_map.epoch > degraded_map.epoch);
    let states: Vec<NodeState> = sup
        .transitions()
        .iter()
        .filter(|t| t.node == KILLED)
        .map(|t| t.state)
        .collect();
    let down_at = states
        .iter()
        .position(|s| *s == NodeState::Down)
        .expect("no Down transition recorded");
    assert!(
        states[down_at..].contains(&NodeState::Rejoining),
        "no Rejoining transition after Down: {states:?}"
    );
    assert_eq!(*states.last().unwrap(), NodeState::Up, "{states:?}");
    eprintln!(
        "seed {seed:#x}: detect+reassign {detect_ms} ms, epochs 1→{}, \
         committed {committed} ({} degraded), unavailable items {}, stale epochs {}",
        final_map.epoch,
        total.committed_degraded,
        total.tally.unavailable_items,
        total.tally.get(TxnOutcome::Lost)
    );

    // Every service — survivors, the killed node (its teardown ran at
    // shutdown), and the respawn serving the same LockService — drains
    // to zero used slots and passes the exact accounting audit.
    assert_drained(&services);

    sup.stop();
    for s in servers.into_iter().flatten() {
        s.shutdown();
    }
}

#[test]
fn cluster_failover_seed_1() {
    run_failover(0xC1C1_0FFE);
}

#[test]
fn cluster_failover_seed_2() {
    run_failover(0xBADC_0DE5);
}
