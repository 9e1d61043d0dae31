//! The cluster supervisor: health probing, epoch-fenced failure
//! handling, and two-phase node rejoin.
//!
//! One thread probes every node each [`SupervisorConfig::probe_interval`]
//! with the `Probe` wire op — a single tiny frame that doubles as the
//! epoch/degraded disseminator and returns the node's stale-session
//! count. Consecutive missed probes walk a node's state machine
//! Up → Suspect → Down; a Down node that answers again walks
//! Rejoining → Up.
//!
//! # Fencing order
//!
//! Every map change follows the same discipline: **push the new epoch
//! to every reachable server first, publish the map to clients
//! second.** A server that has seen epoch E rejects lock traffic from
//! connections still bound below E, so by the time any client can act
//! on the new map, every server that could grant under the old map is
//! already fencing it. That ordering — not the probing — is what
//! closes the double-grant window.
//!
//! # Two-phase rejoin
//!
//! A node coming back must not take its slot while survivors still
//! hold locks handed over during the outage:
//!
//! 1. **Phase A (drain)** — mark the node [`NodeState::Rejoining`]:
//!    the epoch bumps but ownership is unchanged, so clients re-bind
//!    at the new epoch while still routing around the returner. The
//!    supervisor then polls the survivors' `stale_sessions` (bound
//!    connections below the fence) until zero or
//!    [`SupervisorConfig::drain_deadline`] expires — locks held under
//!    the old epoch are gone either way once their sessions re-bound
//!    or died.
//! 2. **Phase B (restore)** — mark the node [`NodeState::Up`]: the
//!    epoch bumps again and ownership reverts to the home map. Fences
//!    are pushed to survivors before the rejoined node, then the map
//!    is published.

use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use locktune_net::Client;
use locktune_service::StopSignal;

use crate::epoch::{EpochMap, MapHandle, NodeState};

/// Failure-detector policy for a [`ClusterSupervisor`].
#[derive(Debug, Clone, Copy)]
pub struct SupervisorConfig {
    /// Wall-clock spacing of probe rounds.
    pub probe_interval: Duration,
    /// Consecutive missed probes before a node is Suspect.
    pub suspect_after: u32,
    /// Consecutive missed probes before a node is Down (its slot
    /// reassigned). Must be ≥ `suspect_after`.
    pub down_after: u32,
    /// Upper bound on the Phase-A stale-session drain before a rejoin
    /// proceeds anyway (survivor sessions that never re-bind are
    /// fenced, so waiting longer buys nothing).
    pub drain_deadline: Duration,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            probe_interval: Duration::from_millis(50),
            suspect_after: 1,
            down_after: 3,
            drain_deadline: Duration::from_secs(2),
        }
    }
}

/// What happened to a node, when (ms since supervisor start), and at
/// which epoch — the failover timeline a bench derives
/// time-to-detect / time-to-reassign / time-to-full-service from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transition {
    /// Node index.
    pub node: usize,
    /// The state entered.
    pub state: NodeState,
    /// Epoch of the map published for this transition.
    pub epoch: u64,
    /// Milliseconds since the supervisor thread started.
    pub at_ms: u64,
}

struct Shared {
    map: MapHandle,
    /// Live address overrides ([`SupervisorHandle::register_node`]):
    /// picked up on the next probe round.
    reregistered: Mutex<Vec<Option<String>>>,
    transitions: Mutex<Vec<Transition>>,
    stop: StopSignal,
}

/// Owner's handle on a running supervisor thread.
pub struct SupervisorHandle {
    shared: Arc<Shared>,
    thread: Option<JoinHandle<()>>,
}

impl SupervisorHandle {
    /// The map handle the supervisor publishes to — clone it into
    /// every [`RoutingClient`](crate::RoutingClient).
    pub fn map(&self) -> MapHandle {
        self.shared.map.clone()
    }

    /// Re-register node `node` at `addr` — a respawned process rarely
    /// gets its old port back. The next probe round targets the new
    /// address; rejoin proceeds from there.
    pub fn register_node(&self, node: usize, addr: String) {
        self.shared.reregistered.lock().unwrap()[node] = Some(addr);
    }

    /// The failover timeline so far.
    pub fn transitions(&self) -> Vec<Transition> {
        self.shared.transitions.lock().unwrap().clone()
    }

    /// Stop the probe loop (interrupting any sleep) and join the
    /// thread.
    pub fn stop(mut self) {
        self.shared.stop.stop();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for SupervisorHandle {
    fn drop(&mut self) {
        self.shared.stop.stop();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// The supervisor's per-node probe bookkeeping.
struct NodeProbe {
    /// Cached probe connection; dropped on any probe failure.
    conn: Option<Client>,
    /// Consecutive missed probes.
    missed: u32,
    /// Stale-session count from the last successful probe.
    stale_sessions: u64,
}

/// The health-probing failure detector. Construct with
/// [`ClusterSupervisor::spawn`]; it owns its thread until the handle
/// stops it.
pub struct ClusterSupervisor {
    config: SupervisorConfig,
    shared: Arc<Shared>,
    map: EpochMap,
    probes: Vec<NodeProbe>,
    started: Instant,
}

impl ClusterSupervisor {
    /// Spawn the probe loop over `addrs` (node `i` = `addrs[i]`,
    /// matching the cluster's partition order). The returned handle's
    /// [`SupervisorHandle::map`] starts at epoch 1 with every node Up.
    pub fn spawn(
        addrs: Vec<String>,
        config: SupervisorConfig,
    ) -> std::io::Result<SupervisorHandle> {
        assert!(
            config.down_after >= config.suspect_after.max(1),
            "down_after must be >= suspect_after >= 1"
        );
        let n = addrs.len();
        let map = EpochMap::new(addrs);
        let shared = Arc::new(Shared {
            map: MapHandle::new(map.clone()),
            reregistered: Mutex::new(vec![None; n]),
            transitions: Mutex::new(Vec::new()),
            stop: StopSignal::new(),
        });
        let mut sup = ClusterSupervisor {
            config,
            shared: Arc::clone(&shared),
            map,
            probes: (0..n)
                .map(|_| NodeProbe {
                    conn: None,
                    missed: 0,
                    stale_sessions: 0,
                })
                .collect(),
            started: Instant::now(),
        };
        let thread = std::thread::Builder::new()
            .name("locktune-supervisor".into())
            .spawn(move || sup.run())?;
        Ok(SupervisorHandle {
            shared,
            thread: Some(thread),
        })
    }

    fn run(&mut self) {
        self.started = Instant::now();
        loop {
            if self.shared.stop.is_stopped() {
                return;
            }
            self.absorb_reregistrations();
            self.probe_round();
            self.apply_transitions();
            if self.shared.stop.sleep(self.config.probe_interval) {
                return;
            }
        }
    }

    fn now_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// Pick up [`SupervisorHandle::register_node`] address changes.
    /// An address change alone bumps the epoch (the map is
    /// client-visible state) but moves no ownership.
    fn absorb_reregistrations(&mut self) {
        let pending: Vec<Option<String>> = {
            let mut slot = self.shared.reregistered.lock().unwrap();
            slot.iter_mut().map(Option::take).collect()
        };
        for (node, addr) in pending.into_iter().enumerate() {
            let Some(addr) = addr else { continue };
            if self.map.addrs[node] != addr {
                let next = self.map.with_addr(node, addr);
                self.install(next);
            }
            // Any cached conn targets the old process.
            self.probes[node].conn = None;
        }
    }

    /// Probe every node once with the current epoch + degraded flag.
    fn probe_round(&mut self) {
        let epoch = self.map.epoch;
        let degraded = self.map.degraded();
        for node in 0..self.map.len() {
            match self.probe_one(node, epoch, degraded) {
                Some(stale) => {
                    self.probes[node].missed = 0;
                    self.probes[node].stale_sessions = stale;
                }
                None => {
                    self.probes[node].missed = self.probes[node].missed.saturating_add(1);
                    self.probes[node].conn = None;
                }
            }
        }
    }

    /// One probe: reuse the cached connection or dial a fresh one.
    /// Returns the node's stale-session count, or None on any failure.
    fn probe_one(&mut self, node: usize, epoch: u64, degraded: bool) -> Option<u64> {
        let probe = &mut self.probes[node];
        if probe.conn.is_none() {
            probe.conn = Client::connect(self.map.addrs[node].as_str()).ok();
        }
        let conn = probe.conn.as_mut()?;
        match conn.probe(epoch, degraded) {
            Ok((_fence, stale)) => Some(stale),
            Err(_) => None,
        }
    }

    /// Walk every node's state machine against its missed-probe count
    /// and publish whatever map changes fall out.
    fn apply_transitions(&mut self) {
        for node in 0..self.map.len() {
            let missed = self.probes[node].missed;
            match self.map.states[node] {
                NodeState::Up if missed >= self.config.down_after => {
                    self.transition(node, NodeState::Down);
                }
                NodeState::Up if missed >= self.config.suspect_after => {
                    self.transition(node, NodeState::Suspect);
                }
                NodeState::Suspect if missed >= self.config.down_after => {
                    self.transition(node, NodeState::Down);
                }
                NodeState::Suspect if missed == 0 => {
                    self.transition(node, NodeState::Up);
                }
                NodeState::Down if missed == 0 => {
                    // The node answers again: Phase A, then (after the
                    // survivors drain) Phase B.
                    self.transition(node, NodeState::Rejoining);
                    self.drain_survivors(node);
                    self.transition(node, NodeState::Up);
                }
                _ => {}
            }
        }
    }

    /// Apply one state change: derive the successor map, push its
    /// epoch to every reachable server (fence first!), then publish
    /// to clients and record the transition.
    fn transition(&mut self, node: usize, state: NodeState) {
        let next = self.map.with_state(node, state);
        self.install(next);
        self.shared.transitions.lock().unwrap().push(Transition {
            node,
            state,
            epoch: self.map.epoch,
            at_ms: self.now_ms(),
        });
    }

    /// Fence-push-then-publish for an already-derived map.
    fn install(&mut self, next: EpochMap) {
        let epoch = next.epoch;
        let degraded = next.degraded();
        // Push the fence to the *rejoined/surviving* servers before
        // any client can see the map. Order within the push doesn't
        // matter — a server not reached here catches up on the next
        // probe round, and until then it cannot grant to new-epoch
        // clients anyway (they bind the new epoch, which such a
        // server would only see as "from the future": fetch_max
        // accepts it and fences the old instead).
        self.map = next.clone();
        for node in 0..self.map.len() {
            let _ = self.probe_one(node, epoch, degraded);
        }
        self.shared.map.publish(next);
    }

    /// Phase-A drain: poll the serving nodes until none reports a
    /// session still bound below the current fence, or the deadline
    /// passes.
    fn drain_survivors(&mut self, rejoining: usize) {
        let deadline = Instant::now() + self.config.drain_deadline;
        loop {
            let epoch = self.map.epoch;
            let degraded = self.map.degraded();
            let mut stale_total = 0u64;
            for node in 0..self.map.len() {
                if node == rejoining {
                    continue;
                }
                if let Some(stale) = self.probe_one(node, epoch, degraded) {
                    stale_total += stale;
                }
            }
            if stale_total == 0 || Instant::now() >= deadline {
                return;
            }
            if self.shared.stop.sleep(Duration::from_millis(5)) {
                return;
            }
        }
    }
}
