//! The failover drill, written once: a supervised cluster under a
//! degraded-mode storm loses its last node, the supervisor detects it
//! and reassigns its slot, the node respawns at a new port and rejoins,
//! and every service drains. The `cluster_failover` soak asserts on the
//! [`Report`]; `locktune-failover-bench` times the drill over trials.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use locktune_cli::storm;
use locktune_cluster::{
    BreakerConfig, ClusterConfig, ClusterError, ClusterSupervisor, Degraded, EpochMap, MapHandle,
    NodeState, RoutedOutcome, RoutingClient, SupervisorConfig, Transition,
};
use locktune_lockmgr::{LockMode, ResourceId};
use locktune_net::{ReconnectConfig, ServerConfig};
use locktune_service::txn::{Tally, TxnBackend, TxnOutcome, Verdict};
use locktune_service::{BatchOutcome, ServiceConfig, StopSignal};
use locktune_workload::Mix;

use crate::{assert_drained, eventually, serve, start_nodes};

/// Margin for every wait of the drill: a loaded host, not the
/// expectation.
const WITHIN: Duration = Duration::from_secs(20);

/// What one drill measured and saw.
pub struct Report {
    /// Kill → the node marked [`NodeState::Suspect`].
    pub detect: Duration,
    /// Kill → the node marked [`NodeState::Down`], which is one publish
    /// with its slot's reassignment.
    pub reassign: Duration,
    /// Re-registration → every node Up with the identity owner map
    /// (includes the two-phase stale-session drain).
    pub full_service: Duration,
    /// The first map that showed the killed node Down.
    pub degraded_map: Arc<EpochMap>,
    /// The map after the storm stopped.
    pub final_map: Arc<EpochMap>,
    /// The supervisor's timeline.
    pub transitions: Vec<Transition>,
    /// Every worker's outcomes, merged.
    pub tally: Tally,
    /// Commits of transactions that started on a degraded map.
    pub committed_degraded: u64,
    /// Exclusive grants the claims oracle saw held twice at once.
    pub double_grants: u64,
}

/// Run the drill: `nodes` nodes under a supervisor probing every
/// `probe`, and `workers` storm workers seeded from `seed`. The last
/// node is the one killed. Panics if the arc breaks: a worker fails, a
/// wait times out, the Down map does not route the slot to a serving
/// survivor, or a service does not drain.
pub fn drill(nodes: usize, workers: u64, seed: u64, probe: Duration) -> Report {
    let (services, servers, addrs) = start_nodes(
        nodes,
        || ServiceConfig::fast(4),
        |_| ServerConfig::default(),
    );
    let mut servers: Vec<_> = servers.into_iter().map(Some).collect();
    let config = SupervisorConfig {
        probe_interval: probe,
        ..SupervisorConfig::default()
    };
    let sup = ClusterSupervisor::spawn(addrs.clone(), config).expect("supervisor spawn");
    let map = sup.map();
    let storm = Arc::new(Storm::default());
    // Four more transactions per worker.
    let wait_progress = || {
        let base = storm.progress.load(Relaxed);
        eventually(WITHIN, || {
            storm.progress.load(Relaxed) >= base + 4 * workers
        })
        .expect("storm stalled")
    };
    let handles: Vec<_> = (1..=workers)
        .map(|gid| {
            let (addrs, map, storm) = (addrs.clone(), map.clone(), Arc::clone(&storm));
            let seed = seed ^ gid.wrapping_mul(0x9E37);
            std::thread::spawn(move || worker(addrs, map, seed, gid, &storm))
        })
        .collect();

    // The kill lands mid-burst, never mid-handshake.
    eventually(WITHIN, || storm.connected.load(Relaxed) == workers)
        .expect("not every worker connected");
    wait_progress();

    let victim = nodes - 1;
    servers[victim].take().expect("not killed yet").shutdown();
    let detect = eventually(WITHIN, || map.snapshot().states[victim] != NodeState::Up)
        .expect("killed node never suspected");
    let mut degraded_map = map.snapshot();
    let reassign = detect
        + eventually(WITHIN, || {
            degraded_map = map.snapshot();
            degraded_map.states[victim] == NodeState::Down
        })
        .expect("killed node never declared Down");
    let owner = degraded_map.owners()[victim];
    assert!(
        owner != victim && degraded_map.states[owner].serving(),
        "the Down map does not route slot {victim} to a survivor: {degraded_map:?}"
    );

    // Degraded service, then the respawn at a new port rejoins.
    wait_progress();
    let respawn = serve(&services[victim], ServerConfig::default());
    sup.register_node(victim, respawn.local_addr().to_string());
    servers[victim] = Some(respawn);
    let full_service = eventually(WITHIN, || {
        let m = map.snapshot();
        m.states.iter().all(|s| *s == NodeState::Up) && m.owners().into_iter().eq(0..nodes)
    })
    .expect("rejoin never restored full service");

    wait_progress();
    storm.stop.stop();
    let mut tally = Tally::default();
    for h in handles {
        tally.merge(&h.join().expect("worker panicked"));
    }
    // Survivors, the killed node (torn down at shutdown) and the
    // respawn serving the same service all drain and audit exact.
    assert_drained(&services);
    let (final_map, transitions) = (map.snapshot(), sup.transitions());
    sup.stop();
    servers.into_iter().flatten().for_each(|s| s.shutdown());
    Report {
        detect,
        reassign,
        full_service,
        degraded_map,
        final_map,
        transitions,
        tally,
        committed_degraded: storm.committed_degraded.load(Relaxed),
        double_grants: storm.double_grants.load(Relaxed),
    }
}

/// What the storm's workers share with the drill.
#[derive(Default)]
struct Storm {
    stop: StopSignal,
    /// Transactions finished, any outcome.
    progress: AtomicU64,
    /// Workers past their initial connect.
    connected: AtomicU64,
    /// Commits of transactions that started on a degraded map.
    committed_degraded: AtomicU64,
    /// Exclusive-lock claims registry: resource → (worker, owning node,
    /// routing epoch at grant). Two live claims on one resource are a
    /// double grant — unless the earlier claim's node stopped serving,
    /// which means its locks died with it (the zombie the epoch fence
    /// exists to neutralize).
    claims: Mutex<HashMap<ResourceId, (u64, usize, u64)>>,
    double_grants: AtomicU64,
}

/// One storm worker: [`storm::drive`] through [`Claiming`] until told
/// to stop; its tally.
fn worker(addrs: Vec<String>, map: MapHandle, seed: u64, gid: u64, storm: &Storm) -> Tally {
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
    let mut rc = RoutingClient::connect_with_map(&config, map.clone())
        .unwrap_or_else(|e| panic!("worker {gid}: connect: {e}"));
    storm.connected.fetch_add(1, Relaxed);
    // A row range per worker: a double grant can then only come from
    // the cluster losing track of a lock, never from two workers
    // racing one row legitimately.
    let mix = Mix::new(64, 64, 2)
        .and_then(|m| m.with_tables_per_txn(2))
        .and_then(|m| m.with_row_base(gid * 10_000))
        .expect("storm mix");
    let mut backend = Claiming {
        inner: Degraded::new(&mut rc),
        storm,
        gid,
        snap: map.snapshot(),
        map,
    };
    let more = |_: &Tally| !storm.stop.is_stopped();
    let after = |backend: &Claiming, outcome| {
        if outcome == TxnOutcome::Committed && backend.snap.degraded() {
            storm.committed_degraded.fetch_add(1, Relaxed);
        }
        storm.progress.fetch_add(1, Relaxed);
    };
    let tally = storm::drive(&mut backend, &mix, seed, Duration::ZERO, more, after)
        .unwrap_or_else(|e| panic!("worker {gid}: {e}"));
    rc.stop();
    tally
}

/// The degraded back-end with the claims oracle between lock and
/// release: every exclusive grant is claimed as it comes back, and
/// the claims come out *before* the locks are released, so the oracle
/// never shows a lock still held whose claim is gone.
struct Claiming<'a> {
    inner: Degraded<'a>,
    storm: &'a Storm,
    gid: u64,
    /// The routing map at the start of the transaction, taken from `map`.
    snap: Arc<EpochMap>,
    map: MapHandle,
}

impl TxnBackend for Claiming<'_> {
    type Error = ClusterError;

    fn lock_set(
        &mut self,
        set: &[(ResourceId, LockMode)],
        verdict: &mut Verdict,
    ) -> Result<(), ClusterError> {
        // A transaction's first call: the map it starts on.
        self.snap = self.map.snapshot();
        self.inner.lock_set(set, verdict)?;
        for (k, outcome) in self.inner.outcomes().iter().enumerate() {
            let (res, mode) = set[k];
            if mode != LockMode::X
                || !matches!(outcome, RoutedOutcome::Done(BatchOutcome::Done(Ok(_))))
            {
                continue;
            }
            let (snap, gid, node) = (&self.snap, self.gid, self.snap.owner_of(res));
            let mut claims = self.storm.claims.lock().unwrap();
            if let Some(&(other, other_node, other_epoch)) = claims.get(&res) {
                if other != gid && snap.states[other_node].serving() {
                    eprintln!(
                        "DOUBLE GRANT on {res:?}: worker {gid} (node {node}, epoch {}) \
                         vs worker {other} (node {other_node}, epoch {other_epoch})",
                        snap.epoch
                    );
                    self.storm.double_grants.fetch_add(1, Relaxed);
                }
            }
            claims.insert(res, (gid, node, snap.epoch));
        }
        Ok(())
    }

    fn release(&mut self, verdict: &mut Verdict) -> Result<(), ClusterError> {
        let gid = self.gid;
        self.storm
            .claims
            .lock()
            .unwrap()
            .retain(|_, (w, _, _)| *w != gid);
        self.inner.release(verdict)
    }
}
