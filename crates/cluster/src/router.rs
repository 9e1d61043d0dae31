//! The routing client: one logical lock session spread across every
//! node of a partitioned cluster.
//!
//! Routing is deterministic and shared with the single-node service:
//! [`resource_slot`] over `nodes.len()` decides which **home slot**
//! owns a resource, exactly as it decides which shard owns it
//! in-process. Without a supervisor, home slot = node and the map is
//! static. Under a supervisor ([`RoutingClient::connect_with_map`]),
//! the slot→node step goes through the published [`EpochMap`]: a
//! Down node's slot routes to its surviving inheritor, and every
//! batch first syncs to the latest epoch (re-binding each per-node
//! session with `BindEpoch`, swapping in a fresh connection when a
//! node re-registered at a new address).
//!
//! A batch is grouped by owner, sent to every involved node in one
//! fan-out (send+flush first, collect second, so the nodes execute
//! concurrently), and the per-node outcome vectors are merged back
//! into the caller's request order.
//!
//! # Failure semantics
//!
//! Per-node failures are promoted to cluster-level semantics rather
//! than surfaced raw, because a partitioned transaction is only
//! meaningful while *all* its per-node sessions are alive:
//!
//! * a mid-operation reconnect on any node
//!   ([`ClientError::Reconnected`]) means that node's locks are gone —
//!   the router releases the surviving nodes' locks too and returns
//!   [`ClusterError::SessionLost`], so the caller restarts from a
//!   consistently empty lock state;
//! * an exhausted lifetime attempt budget
//!   ([`ClientError::GaveUp`]) becomes [`ClusterError::NodeDown`]: the
//!   node is terminally unreachable, surviving nodes are released, and
//!   the caller decides whether to continue degraded;
//! * a fenced request ([`ClientError::StaleEpoch`]) becomes
//!   [`ClusterError::StaleEpoch`]: the partition map changed under the
//!   transaction, locks acquired under the old epoch must be treated
//!   as lost, and the router releases everything reachable;
//! * service-level refusals (timeout, deadlock victim, lock errors)
//!   pass through inside the merged outcomes or as
//!   [`ClusterError::Node`] — the sessions are intact.
//!
//! # Graceful degradation
//!
//! [`RoutingClient::lock_many_degraded`] trades the all-or-nothing
//! contract for availability: each node's sub-batch succeeds or fails
//! independently, an unreachable node's items come back as
//! [`RoutedOutcome::Unavailable`] (retryable) while live partitions
//! complete, and a per-node **circuit breaker** (closed → open →
//! half-open, seeded-jitter doubling backoff) fails unavailable
//! partitions fast instead of re-paying the reconnect budget on every
//! batch.
//!
//! [`EpochMap`]: crate::epoch::EpochMap

use std::time::{Duration, Instant};

use locktune_lockmgr::partition::resource_slot;
use locktune_lockmgr::{LockMode, LockOutcome, ResourceId, UnlockReport};
use locktune_net::wire::ValidateReport;
use locktune_net::{jittered, BatchOutcome, ClientError, ReconnectConfig, ReconnectingClient};
use locktune_sim::SimRng;

use crate::epoch::MapHandle;

/// Per-node circuit-breaker policy for the degraded routing path.
#[derive(Debug, Clone, Copy)]
pub struct BreakerConfig {
    /// Consecutive sub-batch failures that open the breaker.
    pub failure_threshold: u32,
    /// First open interval; doubles on every re-open.
    pub open_base: Duration,
    /// Ceiling on the open interval (jitter can exceed it by up to
    /// half).
    pub open_max: Duration,
    /// Seed for the jitter generator (decorrelated per node), so a
    /// chaos run's breaker timing is as reproducible as its fault
    /// schedule.
    pub seed: u64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 3,
            open_base: Duration::from_millis(50),
            open_max: Duration::from_secs(2),
            seed: 0,
        }
    }
}

/// How to assemble a [`RoutingClient`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// One address per node. Order defines the partition map: node
    /// `i` owns every table with `slot_of(table, nodes.len()) == i`.
    /// **Every client and the detector must use the same order.**
    pub nodes: Vec<String>,
    /// Reconnect policy applied to each per-node session. The seed is
    /// decorrelated per node so a cluster-wide refusal doesn't make
    /// every session retry in lockstep.
    pub reconnect: ReconnectConfig,
    /// Cluster-global transaction id to bind on every node (and
    /// re-bind on every reconnect). Without one, this client's waits
    /// still feed the detector under a synthesized id, but two
    /// sessions of the same distributed transaction cannot be
    /// recognized as one participant.
    pub gid: Option<u64>,
    /// Circuit-breaker policy for [`RoutingClient::lock_many_degraded`]
    /// (the strict paths never consult the breaker).
    pub breaker: BreakerConfig,
}

/// A cluster-level failure. See the module docs for how per-node
/// errors map here.
#[derive(Debug)]
pub enum ClusterError {
    /// A cluster needs at least one node.
    EmptyCluster,
    /// Node `node`'s session was lost and re-established mid-
    /// operation. Every lock the transaction held — on *any* node —
    /// has been released; restart from the top.
    SessionLost {
        /// Index into [`ClusterConfig::nodes`].
        node: usize,
    },
    /// Node `node` is terminally unreachable (lifetime attempt budget
    /// exhausted). Locks on surviving nodes have been released.
    NodeDown {
        /// Index into [`ClusterConfig::nodes`].
        node: usize,
        /// Connection attempts made before giving up.
        attempts: u64,
    },
    /// Node `node` fenced the transaction for carrying a stale
    /// partition-map epoch: the map changed mid-transaction. Locks
    /// acquired under the old epoch must be treated as lost; the
    /// router has released everything reachable. Sync to the new map
    /// (the next operation does it automatically) and restart.
    StaleEpoch {
        /// Index into [`ClusterConfig::nodes`].
        node: usize,
        /// The node's current fence epoch.
        current: u64,
    },
    /// The partition owning the request is unavailable right now
    /// (breaker open, or its owner unreachable) — retryable without
    /// restarting the transaction; no locks were touched.
    PartitionUnavailable {
        /// Index into [`ClusterConfig::nodes`].
        node: usize,
        /// The routing epoch under which the partition was
        /// unavailable (0 without a supervisor).
        epoch: u64,
    },
    /// A per-node error that does not invalidate the cluster session
    /// (service refusal, protocol violation).
    Node {
        /// Index into [`ClusterConfig::nodes`].
        node: usize,
        /// The underlying client error.
        error: ClientError,
    },
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::EmptyCluster => write!(f, "cluster has no nodes"),
            ClusterError::SessionLost { node } => write!(
                f,
                "session lost on node {node}: all cluster locks released, restart transaction"
            ),
            ClusterError::NodeDown { node, attempts } => {
                write!(f, "node {node} down after {attempts} connection attempts")
            }
            ClusterError::StaleEpoch { node, current } => write!(
                f,
                "fenced by node {node}: partition map moved to epoch {current}, restart transaction"
            ),
            ClusterError::PartitionUnavailable { node, epoch } => {
                write!(f, "partition on node {node} unavailable at epoch {epoch}")
            }
            ClusterError::Node { node, error } => write!(f, "node {node}: {error}"),
        }
    }
}

impl std::error::Error for ClusterError {}

/// Per-node connection health, for a dashboard or a degraded-mode
/// decision.
#[derive(Debug, Clone)]
pub struct NodeHealth {
    /// The node's address as configured.
    pub addr: String,
    /// True while a session is established.
    pub connected: bool,
    /// True once the node's lifetime attempt budget is exhausted.
    pub gave_up: bool,
    /// Total connection attempts (successful or not).
    pub attempts: u64,
    /// Successful mid-operation reconnects.
    pub reconnects: u64,
    /// True while the node's circuit breaker is open (degraded path
    /// fails its items fast).
    pub breaker_open: bool,
}

/// One item's outcome under the degraded routing contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RoutedOutcome {
    /// The owning node executed (or deliberately skipped) the item;
    /// the inner outcome is exactly what a strict batch would carry.
    Done(BatchOutcome),
    /// The owning partition was unavailable — breaker open, session
    /// lost mid-batch, or node terminally down. Nothing was acquired
    /// for this item; retry after the map converges.
    Unavailable {
        /// The node the item routed to.
        node: usize,
        /// The routing epoch at send time (0 without a supervisor).
        epoch: u64,
    },
}

/// Circuit-breaker states for one node (single-threaded: the router
/// owns it mutably, so half-open needs no in-flight token).
enum BreakerState {
    Closed,
    Open { until: Instant },
    HalfOpen,
}

struct Breaker {
    state: BreakerState,
    failures: u32,
    backoff: Duration,
    rng: SimRng,
    config: BreakerConfig,
}

impl Breaker {
    fn new(config: BreakerConfig, node: usize) -> Breaker {
        Breaker {
            state: BreakerState::Closed,
            failures: 0,
            backoff: config.open_base,
            rng: SimRng::seed_from_u64(
                config
                    .seed
                    .wrapping_add((node as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            ),
            config,
        }
    }

    /// May traffic flow to this node right now? An expired open
    /// interval admits exactly one trial (half-open).
    fn allow(&mut self) -> bool {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open { until } => {
                if Instant::now() >= until {
                    self.state = BreakerState::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }

    fn record_success(&mut self) {
        self.state = BreakerState::Closed;
        self.failures = 0;
        self.backoff = self.config.open_base;
    }

    fn record_failure(&mut self) {
        self.failures = self.failures.saturating_add(1);
        let reopen = match self.state {
            // A failed half-open trial re-opens immediately.
            BreakerState::HalfOpen => true,
            BreakerState::Closed => self.failures >= self.config.failure_threshold,
            BreakerState::Open { .. } => false,
        };
        if reopen {
            self.state = BreakerState::Open {
                until: Instant::now() + jittered(self.backoff, &mut self.rng),
            };
            self.backoff = (self.backoff * 2).min(self.config.open_max);
        }
    }

    fn is_open(&self) -> bool {
        matches!(self.state, BreakerState::Open { .. })
    }
}

/// One logical lock client over a partitioned cluster. See the module
/// docs for routing and failure semantics.
pub struct RoutingClient {
    nodes: Vec<ReconnectingClient>,
    addrs: Vec<String>,
    reconnect: ReconnectConfig,
    gid: Option<u64>,
    /// Supervisor-published map; `None` = static identity routing.
    map: Option<MapHandle>,
    /// Epoch currently bound on the per-node sessions (0 = unbound).
    bound_epoch: u64,
    /// slot→node table under `bound_epoch` (identity without a map).
    owners: Vec<usize>,
    breakers: Vec<Breaker>,
    /// Scratch, reused across batches: for each node, the original
    /// indexes of the items routed to it this batch.
    groups: Vec<Vec<usize>>,
    /// Scratch: the per-node sub-batches themselves.
    node_items: Vec<Vec<(ResourceId, LockMode)>>,
    /// Scratch: per node, the request id in flight in a fan-out's
    /// collect phase (`None` = nothing was sent there).
    pending: Vec<Option<u64>>,
    /// Per node: sent lock traffic since the last release. Strict 2PL
    /// commits release on every node the transaction touched — but only
    /// those; a one-node transaction does not wake the others for an
    /// empty `UnlockAll` (the mirror of `Session`'s touched-shard mask).
    touched: Vec<bool>,
}

impl RoutingClient {
    /// Connect to every node and bind the gid (if any) everywhere.
    /// Static routing: the partition map is the identity, forever.
    pub fn connect(config: &ClusterConfig) -> Result<RoutingClient, ClusterError> {
        Self::connect_inner(config, None)
    }

    /// [`RoutingClient::connect`] plus epoch-fenced dynamic routing:
    /// every operation first syncs to the latest supervisor-published
    /// map — binding the new epoch on every serving node, swapping
    /// re-registered addresses in — and routes slots through the
    /// map's owner table.
    pub fn connect_with_map(
        config: &ClusterConfig,
        map: MapHandle,
    ) -> Result<RoutingClient, ClusterError> {
        Self::connect_inner(config, Some(map))
    }

    fn connect_inner(
        config: &ClusterConfig,
        map: Option<MapHandle>,
    ) -> Result<RoutingClient, ClusterError> {
        if config.nodes.is_empty() {
            return Err(ClusterError::EmptyCluster);
        }
        let mut nodes = Vec::with_capacity(config.nodes.len());
        for (i, addr) in config.nodes.iter().enumerate() {
            let client =
                ReconnectingClient::connect(addr.as_str(), node_policy(&config.reconnect, i))
                    .map_err(|e| classify_connect(i, e))?;
            nodes.push(client);
        }
        let n = nodes.len();
        let mut rc = RoutingClient {
            groups: vec![Vec::new(); n],
            node_items: vec![Vec::new(); n],
            pending: Vec::with_capacity(n),
            touched: vec![false; n],
            addrs: config.nodes.clone(),
            reconnect: config.reconnect,
            gid: config.gid,
            map,
            bound_epoch: 0,
            owners: (0..n).collect(),
            breakers: (0..n).map(|i| Breaker::new(config.breaker, i)).collect(),
            nodes,
        };
        // A node lost between the admission ping and the bind had no
        // session yet: connect-time mapping, never `SessionLost`.
        if let Some(gid) = config.gid {
            for (i, node) in rc.nodes.iter_mut().enumerate() {
                node.bind_gid(gid).map_err(|e| classify_connect(i, e))?;
            }
        }
        rc.sync_with_map();
        Ok(rc)
    }

    /// The routing epoch the per-node sessions are currently bound to
    /// (0 = static routing, never fenced).
    pub fn epoch(&self) -> u64 {
        self.bound_epoch
    }

    /// The node that owns `res` under the current map.
    fn partition_of(&self, res: ResourceId) -> usize {
        self.owners[resource_slot(res, self.nodes.len())]
    }

    /// Direct access to one node's session, for per-node operations
    /// (stats scrapes, audits) a harness wants to address explicitly.
    /// The router cannot see what is sent through it, so the node
    /// counts as touched until the next release.
    pub fn node(&mut self, i: usize) -> &mut ReconnectingClient {
        self.touched[i] = true;
        &mut self.nodes[i]
    }

    /// Raise every node session's stop signal: in-progress connect
    /// backoffs return immediately, so a shutdown doesn't wait out a
    /// dead node's retry schedule.
    pub fn stop(&self) {
        for c in &self.nodes {
            c.stop();
        }
    }

    /// Bind `gid` on every node (and re-bind on their reconnects).
    pub fn bind_gid(&mut self, gid: u64) -> Result<(), ClusterError> {
        self.gid = Some(gid);
        for i in 0..self.nodes.len() {
            self.nodes[i].bind_gid(gid).map_err(|e| classify(i, e))?;
        }
        Ok(())
    }

    /// Catch up with the supervisor's latest published map: swap in
    /// fresh connections for re-registered addresses, re-bind the new
    /// epoch on every serving node, refresh the owner table.
    /// Best-effort by design — a node that cannot be bound right now
    /// is a node whose traffic will fail (or be fenced) visibly on
    /// the next batch, which the degraded path already handles.
    fn sync_with_map(&mut self) {
        let Some(handle) = &self.map else { return };
        let snap = handle.snapshot();
        if snap.epoch == self.bound_epoch {
            return;
        }
        for i in 0..self.nodes.len() {
            // A re-registered node: the old client dials a dead
            // address forever, so replace it wholesale.
            if snap.addrs[i] != self.addrs[i] {
                if let Ok(mut fresh) = ReconnectingClient::connect(
                    snap.addrs[i].as_str(),
                    node_policy(&self.reconnect, i),
                ) {
                    let rebound = match self.gid {
                        Some(gid) => fresh.bind_gid(gid).is_ok(),
                        None => true,
                    };
                    if rebound {
                        self.nodes[i].stop();
                        self.nodes[i] = fresh;
                        self.addrs[i] = snap.addrs[i].clone();
                    }
                }
            }
        }
        for i in 0..self.nodes.len() {
            if !snap.states[i].serving() {
                continue; // no traffic routes there; bind on rejoin
            }
            match self.nodes[i].bind_epoch(snap.epoch) {
                Ok(()) => self.breakers[i].record_success(),
                Err(_) => self.breakers[i].record_failure(),
            }
        }
        self.owners = snap.owners();
        self.bound_epoch = snap.epoch;
    }

    /// Group `items` by owning node under the current map into the
    /// scratch buffers.
    fn group_items(&mut self, items: &[(ResourceId, LockMode)]) {
        let n = self.nodes.len();
        for g in &mut self.groups {
            g.clear();
        }
        for b in &mut self.node_items {
            b.clear();
        }
        for (k, &(res, mode)) in items.iter().enumerate() {
            let node = self.owners[resource_slot(res, n)];
            self.groups[node].push(k);
            self.node_items[node].push((res, mode));
        }
    }

    /// Lock a batch across the cluster: group by owning node, fan the
    /// sub-batches out (all involved nodes execute concurrently),
    /// merge the outcomes back into request order. Item `k` of the
    /// result is the outcome of item `k` of `items`, whatever node it
    /// ran on. All-or-nothing: any session-invalidating failure
    /// releases every node's locks and fails the whole batch.
    pub fn lock_many(
        &mut self,
        items: &[(ResourceId, LockMode)],
    ) -> Result<Vec<BatchOutcome>, ClusterError> {
        self.sync_with_map();
        let n = self.nodes.len();
        self.group_items(items);

        // Phase 1 — send+flush to every involved node before
        // collecting anything, so the nodes work in parallel. A send
        // failure stops the fan-out but the collect phase below still
        // drains every node that *was* sent to, keeping those
        // pipelines clean.
        self.pending.clear();
        self.pending.resize(n, None);
        let mut first_err: Option<ClusterError> = None;
        for node in 0..n {
            if self.node_items[node].is_empty() {
                continue;
            }
            self.touched[node] = true;
            match self.nodes[node].send_lock_batch(&self.node_items[node]) {
                Ok(id) => self.pending[node] = Some(id),
                Err(e) => {
                    first_err = Some(classify(node, e));
                    break;
                }
            }
        }

        // Phase 2 — collect, in node order (replies are correlated by
        // request id, so collection order is free).
        let mut merged: Vec<BatchOutcome> =
            (0..items.len()).map(|_| BatchOutcome::Skipped).collect();
        for node in 0..n {
            let Some(id) = self.pending[node] else {
                continue;
            };
            match self.nodes[node].wait_batch_outcomes(id, self.node_items[node].len()) {
                Ok(outcomes) => {
                    for (j, o) in outcomes.into_iter().enumerate() {
                        merged[self.groups[node][j]] = o;
                    }
                }
                Err(e) => {
                    if first_err.is_none() {
                        first_err = Some(classify(node, e));
                    }
                }
            }
        }

        match first_err {
            None => Ok(merged),
            Some(err) => {
                if err.invalidates_session() {
                    self.release_all_best_effort();
                }
                Err(err)
            }
        }
    }

    /// [`RoutingClient::lock_many`] under the degraded contract: each
    /// node's sub-batch succeeds or fails independently. Items whose
    /// owner is unreachable (or breaker-open) come back
    /// [`RoutedOutcome::Unavailable`] — nothing was acquired for
    /// them, locks on live partitions stand — so service continues on
    /// the surviving partitions through a failover instead of the
    /// whole batch dying with [`ClusterError::SessionLost`]. A fenced
    /// node ([`ClientError::StaleEpoch`]) still fails the whole call:
    /// the map moved under the transaction, making *held* locks
    /// unsafe, which no per-item retry can repair.
    pub fn lock_many_degraded(
        &mut self,
        items: &[(ResourceId, LockMode)],
    ) -> Result<Vec<RoutedOutcome>, ClusterError> {
        self.sync_with_map();
        let n = self.nodes.len();
        let epoch = self.bound_epoch;
        self.group_items(items);

        let mut merged: Vec<RoutedOutcome> = (0..items.len())
            .map(|_| RoutedOutcome::Done(BatchOutcome::Skipped))
            .collect();
        let mut stale: Option<ClusterError> = None;

        // Send phase: breaker-open nodes fail fast without a syscall.
        self.pending.clear();
        self.pending.resize(n, None);
        for node in 0..n {
            if self.node_items[node].is_empty() {
                continue;
            }
            if !self.breakers[node].allow() {
                mark_unavailable(&mut merged, &self.groups[node], node, epoch);
                continue;
            }
            self.touched[node] = true;
            match self.nodes[node].send_lock_batch(&self.node_items[node]) {
                Ok(id) => self.pending[node] = Some(id),
                Err(e) => self.fail_subbatch(&mut merged, &mut stale, node, epoch, e),
            }
        }

        // Collect phase.
        for node in 0..n {
            let Some(id) = self.pending[node] else {
                continue;
            };
            match self.nodes[node].wait_batch_outcomes(id, self.node_items[node].len()) {
                Ok(outcomes) => {
                    self.breakers[node].record_success();
                    for (j, o) in outcomes.into_iter().enumerate() {
                        merged[self.groups[node][j]] = RoutedOutcome::Done(o);
                    }
                }
                Err(e) => self.fail_subbatch(&mut merged, &mut stale, node, epoch, e),
            }
        }

        match stale {
            None => Ok(merged),
            Some(err) => {
                self.release_all_best_effort();
                Err(err)
            }
        }
    }

    /// Degrade one node's sub-batch: availability failures become
    /// `Unavailable` outcomes and charge the breaker; a fence
    /// escalates to a whole-call [`ClusterError::StaleEpoch`]; other
    /// errors (protocol violations) degrade too — the items were not
    /// executed as far as we can know.
    fn fail_subbatch(
        &mut self,
        merged: &mut [RoutedOutcome],
        stale: &mut Option<ClusterError>,
        node: usize,
        epoch: u64,
        e: ClientError,
    ) {
        if let ClientError::StaleEpoch { current } = e {
            if stale.is_none() {
                *stale = Some(ClusterError::StaleEpoch { node, current });
            }
            return;
        }
        self.breakers[node].record_failure();
        mark_unavailable(merged, &self.groups[node], node, epoch);
    }

    /// Lock a single resource on its owning node.
    pub fn lock(&mut self, res: ResourceId, mode: LockMode) -> Result<LockOutcome, ClusterError> {
        self.sync_with_map();
        let node = self.partition_of(res);
        self.touched[node] = true;
        self.nodes[node]
            .lock(res, mode)
            .map_err(|e| self.fail(node, e))
    }

    /// Unlock a single resource on its owning node.
    pub fn unlock(&mut self, res: ResourceId) -> Result<UnlockReport, ClusterError> {
        self.sync_with_map();
        let node = self.partition_of(res);
        self.nodes[node].unlock(res).map_err(|e| self.fail(node, e))
    }

    /// Release everything the transaction holds, summing the reports.
    /// Only nodes sent lock traffic since the last release are
    /// contacted — a node's session can hold nothing the router never
    /// asked it for. Session loss and node-down on individual nodes are
    /// tolerated — their locks are already released by the server's
    /// disconnect teardown (or will be, when the dead socket is
    /// noticed) — so a degraded cluster can still be drained. Fenced
    /// sessions are tolerated for the same reason: `UnlockAll` is never
    /// fenced server-side, and a `StaleEpoch` here could only come from
    /// the re-bind handshake, after which the old session's locks are
    /// gone.
    pub fn unlock_all(&mut self) -> Result<UnlockReport, ClusterError> {
        let mut total = UnlockReport::default();
        let mut first_err: Option<ClusterError> = None;
        self.unlock_all_nodes(false, |node, result| match result {
            Ok(r) => {
                total.released_locks += r.released_locks;
                total.freed_slots += r.freed_slots;
            }
            Err(
                ClientError::Reconnected
                | ClientError::GaveUp { .. }
                | ClientError::Io(_)
                | ClientError::Busy
                | ClientError::StaleEpoch { .. },
            ) => {}
            Err(e) => {
                first_err.get_or_insert(classify(node, e));
            }
        });
        first_err.map_or(Ok(total), Err)
    }

    /// Send `UnlockAll` to every touched node (`every_node`: to all of
    /// them, touched or not) before collecting any reply, so the nodes
    /// release in parallel and the call costs one round trip instead of
    /// one per node. A failure on one node — in either phase — never
    /// stops the others: each node's result goes to `on_node`. Clears
    /// the touched flags either way.
    fn unlock_all_nodes(
        &mut self,
        every_node: bool,
        mut on_node: impl FnMut(usize, Result<UnlockReport, ClientError>),
    ) {
        self.pending.clear();
        for (node, c) in self.nodes.iter_mut().enumerate() {
            let touched = std::mem::take(&mut self.touched[node]);
            self.pending.push(if !(touched || every_node) {
                None
            } else {
                match c.send_unlock_all() {
                    Ok(id) => Some(id),
                    Err(e) => {
                        on_node(node, Err(e));
                        None
                    }
                }
            });
        }
        for node in 0..self.nodes.len() {
            if let Some(id) = self.pending[node] {
                on_node(node, self.nodes[node].wait_unlock_all(id));
            }
        }
    }

    /// Run the accounting audit on every node. Strict: any node
    /// failure (including an audit failure, surfaced as a protocol
    /// error) fails the whole call.
    pub fn validate(&mut self) -> Result<Vec<ValidateReport>, ClusterError> {
        (0..self.nodes.len())
            .map(|i| self.nodes[i].validate().map_err(|e| classify(i, e)))
            .collect()
    }

    /// Per-node connection health, in node order.
    pub fn health(&self) -> Vec<NodeHealth> {
        self.nodes
            .iter()
            .zip(&self.addrs)
            .zip(&self.breakers)
            .map(|((c, addr), b)| NodeHealth {
                addr: addr.clone(),
                connected: c.is_connected(),
                gave_up: c.gave_up(),
                attempts: c.attempts(),
                reconnects: c.stats().reconnects,
                breaker_open: b.is_open(),
            })
            .collect()
    }

    /// Promote a per-node error and, if it invalidates the cluster
    /// session, release the surviving nodes' locks first.
    fn fail(&mut self, node: usize, e: ClientError) -> ClusterError {
        let err = classify(node, e);
        if err.invalidates_session() {
            self.release_all_best_effort();
        }
        err
    }

    /// Drop every lock on every reachable node, ignoring failures —
    /// the consistency restore after a partial session loss. Visits
    /// every node, not just the touched ones: this is the path that
    /// runs when the router's own view of the transaction is in doubt.
    fn release_all_best_effort(&mut self) {
        self.unlock_all_nodes(true, |_, _| {});
    }
}

fn mark_unavailable(merged: &mut [RoutedOutcome], group: &[usize], node: usize, epoch: u64) {
    for &k in group {
        merged[k] = RoutedOutcome::Unavailable { node, epoch };
    }
}

/// The per-node reconnect policy: the shared config with a
/// decorrelated jitter seed.
fn node_policy(reconnect: &ReconnectConfig, node: usize) -> ReconnectConfig {
    ReconnectConfig {
        seed: reconnect
            .seed
            .wrapping_add((node as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        ..*reconnect
    }
}

impl ClusterError {
    /// True when the error means the transaction's locks are (partly)
    /// gone and the router has released the rest.
    pub fn invalidates_session(&self) -> bool {
        matches!(
            self,
            ClusterError::SessionLost { .. }
                | ClusterError::NodeDown { .. }
                | ClusterError::StaleEpoch { .. }
        )
    }
}

/// Map a per-node [`ClientError`] from a mid-operation failure to
/// cluster semantics. I/O and Busy surface here only when the node's
/// reconnect cycle *also* failed — the old session is dead either way
/// (its locks released by the server's teardown), so they mean the
/// same thing `Reconnected` does: the cluster session is gone. The
/// node isn't terminally down yet, though — the next call retries.
fn classify(node: usize, e: ClientError) -> ClusterError {
    match e {
        ClientError::Reconnected | ClientError::Io(_) | ClientError::Busy => {
            ClusterError::SessionLost { node }
        }
        ClientError::GaveUp { attempts } => ClusterError::NodeDown { node, attempts },
        ClientError::StaleEpoch { current } => ClusterError::StaleEpoch { node, current },
        error => ClusterError::Node { node, error },
    }
}

/// Map a connect-time failure, where no session existed to lose.
fn classify_connect(node: usize, e: ClientError) -> ClusterError {
    match e {
        ClientError::GaveUp { attempts } => ClusterError::NodeDown { node, attempts },
        error => ClusterError::Node { node, error },
    }
}
