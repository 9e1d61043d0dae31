//! The routed storm: each worker drives a [`RoutingClient`] over every
//! node through the shared transaction loop, beside an optional
//! cross-node detector and failover supervisor; then every node is
//! drained and audited. It returns a [`StormReport`].

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use locktune_cluster::{
    BreakerConfig, ClusterConfig, ClusterDetector, ClusterSupervisor, Degraded, EpochMap,
    MapHandle, RoutingClient, SupervisorConfig, Transition,
};
use locktune_net::{drain_and_validate, ReconnectConfig, ReconnectingClient};
use locktune_service::txn::{self, Tally, TxnBackend, TxnOutcome};
use locktune_sim::SimRng;
use locktune_workload::{Mix, MixError};

/// How long a storm that expects a node loss keeps running, past its
/// `txns`, for a worker that has not seen one yet.
pub const STORM_LIMIT: Duration = Duration::from_secs(10);

crate::config! {
    /// Everything `locktune-cluster-client` takes on its command line;
    /// the defaults are its defaults.
    Config {
        /// Node addresses; their order defines the partition map.
        nodes: Vec<String> = Vec::new(), list "--nodes";
        workers: u64 = 4, value "--workers";
        txns: u64 = 200, value "--txns";
        tables: u32 = 64, value "--tables";
        rows: u64 = 256, value "--rows";
        oltp_rows: u64 = 4, value "--oltp-rows";
        seed: u64 = 42, value "--seed";
        pace_ms: u64 = 0, value "--pace-ms";
        /// 0 runs no detector.
        detector_interval_ms: u64 = 25, value "--detector-interval-ms";
        /// A node will be lost mid-storm: each worker runs until it has
        /// seen a loss (bounded by [`STORM_LIMIT`]), and one unreachable
        /// node passes the audit.
        expect_node_loss: bool = false, switch "--expect-node-loss";
        supervise: bool = false, switch "--supervise";
        probe_interval_ms: u64 = 50, value "--probe-interval-ms";
    }
}

impl Config {
    /// Two tables per transaction, an IX intent and `oltp_rows` X rows
    /// on each: usually two partitions.
    pub fn mix(&self) -> Result<Mix, MixError> {
        Mix::new(self.tables, self.rows, self.oltp_rows)?.with_tables_per_txn(2)
    }
}

/// One node's drain-then-validate audit after the storm.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeAudit {
    Clean { charged: u64 },
    Unreachable,
    Failed(String),
}

/// Everything a storm saw. [`StormReport::failures`] is the verdict
/// `locktune-cluster-client` exits on.
#[derive(Debug, Clone)]
pub struct StormReport {
    pub tally: Tally,
    pub elapsed: Duration,
    /// Victims the detector cancelled, when one ran.
    pub detector_victims: Option<u64>,
    /// The supervisor's last map, when one ran.
    pub final_map: Option<Arc<EpochMap>>,
    pub transitions: Vec<Transition>,
    /// One audit per node, in node order.
    pub audits: Vec<NodeAudit>,
    config: Config,
}

impl StormReport {
    /// Transactions lost to a dead session or a node down, or left
    /// with items a degraded map could not route.
    pub fn losses(&self) -> u64 {
        self.tally.get(TxnOutcome::Lost) + self.tally.get(TxnOutcome::Unavailable)
    }

    /// Why the run is inconsistent with what it expected; empty when
    /// it is clean.
    pub fn failures(&self) -> Vec<String> {
        let mut failures: Vec<_> = (self.audits.iter().enumerate())
            .filter_map(|(node, audit)| match audit {
                NodeAudit::Failed(e) => Some(format!("node {node} audit: {e}")),
                _ => None,
            })
            .collect();
        let dead = self.audits.iter().filter(|a| **a == NodeAudit::Unreachable);
        let (dead, expected) = (dead.count(), self.config.expect_node_loss);
        let (losses, most) = (self.losses(), usize::from(expected));
        let committed = self.tally.get(TxnOutcome::Committed);
        let verdicts = [
            (committed == 0, "no transaction committed".to_string()),
            (
                expected && losses == 0,
                "a node loss was expected, none was seen".into(),
            ),
            (
                !expected && losses > 0,
                format!("{losses} transactions lost in a healthy cluster"),
            ),
            (
                dead > most,
                format!("{dead} nodes unreachable, expected at most {most}"),
            ),
        ];
        failures.extend(
            verdicts
                .into_iter()
                .filter_map(|(bad, why)| bad.then_some(why)),
        );
        failures
    }
}

/// A routed session over `config`'s nodes: few reconnect attempts and
/// a finite budget, so a killed node degrades to an explicit `NodeDown`.
fn cluster(config: &Config, seed: u64, gid: Option<u64>) -> ClusterConfig {
    let (base_delay, max_delay) = (Duration::from_millis(2), Duration::from_millis(50));
    let reconnect = ReconnectConfig {
        max_attempts: 5,
        base_delay,
        max_delay,
        seed,
        max_total_attempts: 100,
    };
    let (nodes, breaker) = (config.nodes.clone(), BreakerConfig::default());
    ClusterConfig {
        nodes,
        reconnect,
        gid,
        breaker,
    }
}

/// Run the storm `config` describes. Each committed transaction bumps
/// `progress`, so a caller can kill a node mid-storm. `Err` is a storm
/// that could not be carried out: a worker or the detector could not
/// connect, or a worker's session failed outside the loss rules.
pub fn run(config: &Config, progress: &AtomicU64) -> Result<StormReport, String> {
    let mix = config.mix().map_err(|e| e.to_string())?;
    let detector = match config.detector_interval_ms {
        0 => None,
        ms => {
            let seed = config.seed ^ 0xD1B5_4A32_D192_ED03;
            let d = ClusterDetector::connect(&cluster(config, seed, None))
                .map_err(|e| format!("detector connect: {e}"))?;
            Some(d.spawn(Duration::from_millis(ms)))
        }
    };
    let supervisor = if config.supervise {
        let probe = SupervisorConfig {
            probe_interval: Duration::from_millis(config.probe_interval_ms.max(1)),
            ..SupervisorConfig::default()
        };
        let sup = ClusterSupervisor::spawn(config.nodes.clone(), probe);
        Some(sup.map_err(|e| format!("supervisor spawn: {e}"))?)
    } else {
        None
    };

    let start = Instant::now();
    // No transaction starts, so no kill gated on progress lands,
    // before every worker is connected (or has failed to).
    let connected = Barrier::new(config.workers as usize);
    let results: Vec<_> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..config.workers)
            .map(|w| {
                let map = supervisor.as_ref().map(|sup| sup.map());
                let (mix, connected) = (&mix, &connected);
                s.spawn(move || worker(config, mix, w, map, connected, progress))
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("worker panicked"))
            .collect()
    });
    let elapsed = start.elapsed();
    let detector_victims = detector.map(|d| d.stop().1);
    let (final_map, transitions) = match supervisor {
        Some(sup) => {
            let seen = (Some(sup.map().snapshot()), sup.transitions());
            sup.stop();
            seen
        }
        None => (None, Vec::new()),
    };
    let mut tally = Tally::default();
    for result in results {
        tally.merge(&result?);
    }
    let audits = (config.nodes.iter().enumerate())
        .map(|(node, addr)| {
            audit(
                addr,
                cluster(config, config.seed ^ node as u64, None).reconnect,
            )
        })
        .collect();
    Ok(StormReport {
        tally,
        elapsed,
        detector_victims,
        final_map,
        transitions,
        audits,
        config: config.clone(),
    })
}

fn worker(
    config: &Config,
    mix: &Mix,
    w: u64,
    map: Option<MapHandle>,
    connected: &Barrier,
    progress: &AtomicU64,
) -> Result<Tally, String> {
    let seed = config.seed ^ (w + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let routing = cluster(config, seed, Some(w + 1));
    let rc = match map {
        Some(map) => RoutingClient::connect_with_map(&routing, map),
        None => RoutingClient::connect(&routing),
    };
    connected.wait();
    let mut rc = rc.map_err(|e| format!("worker {w}: connect: {e}"))?;
    let start = Instant::now();
    let lost = |t: &Tally| t.get(TxnOutcome::Lost) + t.get(TxnOutcome::Unavailable) > 0;
    let mut txns = 0;
    let more = |tally: &Tally| {
        txns += 1;
        txns <= config.txns
            || (config.expect_node_loss && !lost(tally) && start.elapsed() < STORM_LIMIT)
    };
    let pace = Duration::from_millis(config.pace_ms);
    // Supervised, dead partitions come back unavailable while live
    // partitions commit through the failover.
    let ran = if config.supervise {
        drive(
            &mut Degraded::new(&mut rc),
            mix,
            seed,
            pace,
            more,
            count_commits(progress),
        )
    } else {
        drive(&mut rc, mix, seed, pace, more, count_commits(progress))
    };
    ran.map_err(|e| format!("worker {w}: {e}"))
}

/// An `after` for [`drive`] that bumps `progress` on each commit.
fn count_commits<B>(progress: &AtomicU64) -> impl FnMut(&B, TxnOutcome) + '_ {
    move |_, outcome| {
        if outcome == TxnOutcome::Committed {
            progress.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// One storm worker's loop, shared with the failover drill: while
/// `more` says so, roll a transaction from `mix` (seeded by `seed`), run
/// it through `backend`, tell `after` its outcome, and wait `pace`.
/// Returns the worker's tally, or the error that ended its session.
pub fn drive<B: TxnBackend>(
    backend: &mut B,
    mix: &Mix,
    seed: u64,
    pace: Duration,
    mut more: impl FnMut(&Tally) -> bool,
    mut after: impl FnMut(&B, TxnOutcome),
) -> Result<Tally, B::Error> {
    let mut rng = SimRng::seed_from_u64(seed);
    let (mut tally, mut set) = (Tally::default(), Vec::new());
    while more(&tally) {
        mix.roll(&mut rng, &mut set);
        let outcome = txn::run_txn(backend, &set, &mut tally)?;
        after(backend, outcome);
        if !pace.is_zero() {
            std::thread::sleep(pace);
        }
    }
    Ok(tally)
}

/// Audit one node after the storm with the shared drain-then-validate
/// audit; a node that does not answer is unreachable.
fn audit(addr: &str, policy: ReconnectConfig) -> NodeAudit {
    let Ok(mut c) = ReconnectingClient::connect(addr, policy) else {
        return NodeAudit::Unreachable;
    };
    match drain_and_validate(&mut c, Duration::from_secs(10)) {
        Ok(report) => NodeAudit::Clean {
            charged: report.charged_slots,
        },
        Err(e) => NodeAudit::Failed(e.to_string()),
    }
}

impl fmt::Display for StormReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (nodes, t) = (&self.config.nodes, &self.tally);
        let (n, list) = (nodes.len(), nodes.join(", "));
        writeln!(
            f,
            "cluster of {n} partitions: {list}\n--- storm report ---\n{t}"
        )?;
        writeln!(f, "unavailable items: {}", t.unavailable_items)?;
        if let Some(v) = self.detector_victims {
            writeln!(f, "detector victims:  {v}")?;
        }
        let secs = self.elapsed.as_secs_f64();
        let rate = t.get(TxnOutcome::Committed) as f64 / secs.max(1e-9);
        writeln!(f, "throughput:        {rate:.0} txn/s over {secs:.2}s")?;
        if let Some(map) = &self.final_map {
            let (epoch, owners) = (map.epoch, map.owners());
            writeln!(
                f,
                "--- failover report ---\nepoch {epoch}, owners {owners:?}"
            )?;
            for t in &self.transitions {
                let (at, node, state, epoch) = (t.at_ms, t.node, t.state, t.epoch);
                writeln!(f, "  +{at:>6} ms  node {node} -> {state:?} ({epoch})")?;
            }
        }
        for (node, (addr, audit)) in nodes.iter().zip(&self.audits).enumerate() {
            writeln!(f, "node {node} ({addr}): {audit:?}")?;
        }
        let failures = self.failures();
        for why in &failures {
            writeln!(f, "FAILED: {why}")?;
        }
        if failures.is_empty() {
            writeln!(f, "cluster run clean")?;
        }
        Ok(())
    }
}
