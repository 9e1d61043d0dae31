//! The remote stress driver: workers run the shared transaction loop
//! over one connection each (pipelined, batched, or reconnecting under
//! chaos), a lock-holding connection is force-killed, and the server is
//! drained and audited; or the tenant noisy/churn arcs. It returns a
//! [`StressReport`].

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::sleep;
use std::time::{Duration, Instant};

use locktune_lockmgr::{LockMode, ResourceId, RowId, TableId};
use locktune_net::{
    drain_and_validate, Batched, Client, ClientError, MachineRollup, MetricsSnapshot, Pipelined,
    ReconnectConfig, ReconnectStats, ReconnectingClient, ValidateReport,
};
use locktune_service::txn::{self, Tally, TxnBackend, TxnOutcome};
use locktune_sim::SimRng;
use locktune_workload::{Mix, MixError};

/// How long the pool may take to drain once every client is gone.
const DRAIN: Duration = Duration::from_secs(5);

/// How long the final scrape waits for `min_intervals` to be reached,
/// polling every `TICK`.
const INTERVALS_DEADLINE: Duration = Duration::from_secs(10);
const TICK: Duration = Duration::from_millis(10);

const MIB: u64 = 1024 * 1024;

/// The shape of a `--tenants` run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantMode {
    /// Tenant 0 surges pure DSS scans while tenants `1..N` run pure
    /// OLTP.
    Noisy,
    /// Transient tenants are created, loaded and dropped while tenant
    /// 0 keeps working.
    Churn,
}

crate::config! {
    /// Everything `locktune-client` takes on its command line; the
    /// defaults are its defaults.
    Config {
        addr: String = "127.0.0.1:7474".into(), value "--addr";
        workers: usize = 4, value "--workers";
        txns: u64 = 150, value "--txns";
        tables: u32 = 16, value "--tables";
        rows_per_table: u64 = 2_000, value "--rows";
        oltp_rows: u64 = 8, value "--oltp-rows";
        dss_rows: u64 = 600, value "--dss-rows";
        dss_percent: u32 = 25, value "--dss-percent";
        seed: u64 = 42, value "--seed";
        min_intervals: u64 = 0, value "--min-intervals";
        skip_kill: bool = false, switch "--skip-kill";
        batch: bool = false, switch "--batch";
        scrape: bool = false, switch "--scrape";
        chaos: bool = false, switch "--chaos";
        tenant: Option<u32> = None, opt "--tenant";
        tenants: u32 = 0, value "--tenants";
        tenant_mode: TenantMode = TenantMode::Noisy, choice "--tenant-mode"
            &[("noisy", TenantMode::Noisy), ("churn", TenantMode::Churn)];
        connections: usize = 0, value "--connections";
        duration_ms: u64 = 10_000, value "--duration-ms";
        rate: u64 = 1_000, value "--rate";
        zipf_theta: f64 = 1.0, value "--zipf-theta";
        bench_out: String = "BENCH_net_scaling.json".into(), value "--bench-out";
    }
}

impl Config {
    /// The workload's lock sets, `dss_percent` % of them scans.
    pub fn mix(&self, dss_percent: u32) -> Result<Mix, MixError> {
        Mix::new(self.tables, self.rows_per_table, self.oltp_rows)?
            .with_dss(self.dss_rows, dss_percent)
    }
}

/// One named pass/fail condition of a run.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

fn check(name: &'static str, ok: bool, detail: String) -> Check {
    Check { name, ok, detail }
}

/// One tenant's own lock-wait tail and escalations.
#[derive(Debug, Clone, Copy)]
pub struct TenantWait {
    pub id: u32,
    pub p99_us: u64,
    pub escalations: u64,
}

/// One churn cycle: a transient tenant's grant and reclaim.
#[derive(Debug, Clone, Copy)]
pub struct ChurnCycle {
    pub tenant: u32,
    pub granted: u64,
    pub reclaimed: u64,
}

/// Everything a stress run saw. [`StressReport::passed`] is the
/// verdict `locktune-client` exits on.
#[derive(Debug, Clone)]
pub struct StressReport {
    pub tally: Tally,
    pub elapsed: Duration,
    pub reconnects: ReconnectStats,
    /// The kill phase force-killed a lock-holding connection.
    pub killed: bool,
    /// The last scrape, once the tuner ran `min_intervals` times
    /// (single-database runs).
    pub server: Option<MetricsSnapshot>,
    /// The drain-then-validate audit.
    pub audit: Result<ValidateReport, String>,
    /// The interval bar, the `scrape` metrics audit and the tenant
    /// budget checks.
    pub checks: Vec<Check>,
    /// Noisy tenant runs: every tenant's own wait tail.
    pub waits: Vec<TenantWait>,
    pub churn: Vec<ChurnCycle>,
    /// Tenant runs: the budget partition at the end.
    pub rollup: Option<MachineRollup>,
    chaos: bool,
}

impl StressReport {
    fn new(tally: Tally, elapsed: Duration, audit: Result<ValidateReport, String>) -> Self {
        StressReport {
            tally,
            elapsed,
            reconnects: ReconnectStats::default(),
            killed: false,
            server: None,
            audit,
            checks: Vec::new(),
            waits: Vec::new(),
            churn: Vec::new(),
            rollup: None,
            chaos: false,
        }
    }

    /// The audit passed and so did every check.
    pub fn passed(&self) -> bool {
        self.audit.is_ok() && self.checks.iter().all(|c| c.ok)
    }

    /// Whether the check `name` ran and passed.
    pub fn check(&self, name: &str) -> bool {
        self.checks.iter().any(|c| c.name == name && c.ok)
    }
}

/// Run the stress `config` describes against `config.addr`. Each
/// committed transaction bumps `progress`, so a caller can act
/// mid-burst. `Err` is a run that could not be carried out (a worker's
/// connection failed); a run that finds a fault returns a report that
/// did not pass.
pub fn run(config: &Config, progress: &AtomicU64) -> Result<StressReport, String> {
    if config.tenants > 0 {
        return run_tenants(config, progress);
    }
    let start = Instant::now();
    let mix = config.mix(config.dss_percent).map_err(|e| e.to_string())?;
    let seed = |w| config.seed + w as u64;
    let (tally, reconnects) = cohort(config, &mix, config.tenant, config.workers, progress, seed)?;
    let elapsed = start.elapsed();
    // Chaos mode skips the kill phase: injected disconnects already
    // exercise dead-client teardown continuously, and a fault could
    // kill this plain connection mid-setup.
    let killed = !config.skip_kill && !config.chaos;
    if killed {
        kill_phase(config).map_err(|e| format!("kill phase: {e}"))?;
    }
    // The server reaps dead connections asynchronously: drain, audit,
    // then scrape the quiescent server once the tuner has ticked
    // `min_intervals` times.
    let mut control = connect_control(&config.addr)?;
    let audit = drain_and_validate(&mut control, DRAIN).map_err(|e| e.to_string());
    let server = await_intervals(&mut control, config.min_intervals)?;
    let (ran, min) = (server.tuning_intervals, config.min_intervals);
    let mut checks = vec![check(
        "tuning intervals",
        ran >= min,
        format!("{ran} tuning intervals (need >= {min})"),
    )];
    if config.scrape {
        let snap = await_intervals(&mut control, 0)?;
        checks.extend(metrics_audit(config, &tally, &server, &snap));
    }
    Ok(StressReport {
        reconnects,
        killed,
        server: Some(server),
        checks,
        chaos: config.chaos,
        ..StressReport::new(tally, elapsed, audit)
    })
}

/// One worker: its own connection (bound to `tenant`, if any) running
/// `config.txns` transactions of `mix` through the shared loop,
/// reconnecting under `chaos`, batched under `batch`, pipelined
/// otherwise. Each commit bumps `progress`.
pub fn worker(
    config: &Config,
    mix: &Mix,
    tenant: Option<u32>,
    seed: u64,
    progress: &AtomicU64,
) -> Result<(Tally, ReconnectStats), String> {
    if config.chaos {
        let policy = ReconnectConfig {
            max_attempts: 50,
            base_delay: Duration::from_millis(5),
            max_delay: Duration::from_millis(200),
            seed,
            ..ReconnectConfig::default()
        };
        let mut rc = ReconnectingClient::connect(&config.addr, policy)
            .map_err(|e| format!("connect {}: {e}", config.addr))?;
        let tally = storm(&mut rc, config.txns, mix, seed, progress)?;
        return Ok((tally, rc.stats()));
    }
    let mut client =
        Client::connect(&config.addr).map_err(|e| format!("connect {}: {e}", config.addr))?;
    if let Some(t) = tenant {
        client.hello(t).map_err(|e| format!("hello: {e}"))?;
    }
    let (mut batched, mut pipelined);
    let backend: &mut dyn TxnBackend<Error = ClientError> = if config.batch {
        batched = Batched(&mut client);
        &mut batched
    } else {
        pipelined = Pipelined::new(&mut client);
        &mut pipelined
    };
    let tally = storm(backend, config.txns, mix, seed, progress)?;
    Ok((tally, ReconnectStats::default()))
}

fn storm(
    backend: &mut dyn TxnBackend<Error = ClientError>,
    txns: u64,
    mix: &Mix,
    seed: u64,
    progress: &AtomicU64,
) -> Result<Tally, String> {
    let mut rng = SimRng::seed_from_u64(seed);
    let (mut tally, mut set) = (Tally::default(), Vec::new());
    for _ in 0..txns {
        mix.roll(&mut rng, &mut set);
        if txn::run_txn(backend, &set, &mut tally).map_err(|e| e.to_string())?
            == TxnOutcome::Committed
        {
            progress.fetch_add(1, Ordering::Relaxed);
        }
    }
    Ok(tally)
}

/// Run `count` [`worker`]s of `mix` bound to `tenant` to completion
/// and sum what they report; worker `w` seeds with `seed(w)`. Any
/// failed worker fails the cohort.
pub fn cohort(
    config: &Config,
    mix: &Mix,
    tenant: Option<u32>,
    count: usize,
    progress: &AtomicU64,
    seed: impl Fn(usize) -> u64,
) -> Result<(Tally, ReconnectStats), String> {
    let results: Vec<_> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..count)
            .map(|w| {
                let seed = seed(w);
                s.spawn(move || worker(config, mix, tenant, seed, progress))
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("worker panicked"))
            .collect()
    });
    let (mut tally, mut stats) = (Tally::default(), ReconnectStats::default());
    for (w, result) in results.into_iter().enumerate() {
        let of = tenant
            .map(|t| format!(" of tenant {t}"))
            .unwrap_or_default();
        let (t, s) = result.map_err(|e| format!("worker {w}{of}: {e}"))?;
        tally.merge(&t);
        stats.reconnects += s.reconnects;
        stats.busy_refusals += s.busy_refusals;
        stats.failed_attempts += s.failed_attempts;
    }
    Ok((tally, stats))
}

/// Take 33 locks on a fresh connection and hard-kill it: the server
/// must notice the dead socket and release everything.
fn kill_phase(config: &Config) -> Result<(), ClientError> {
    let mut doomed = Client::connect(&config.addr)?;
    let table = TableId(config.tables); // private table, uncontended
    if let Some(t) = config.tenant {
        doomed.hello(t)?;
    }
    doomed.lock(ResourceId::Table(table), LockMode::IX)?;
    for r in 0..32 {
        doomed.lock(ResourceId::Row(table, RowId(r)), LockMode::X)?;
    }
    doomed.kill();
    Ok(())
}

/// A control connection for the post-run reads; a reconnecting one,
/// so an injected fault on it cannot fail the audit.
pub(crate) fn connect_control(addr: &str) -> Result<ReconnectingClient, String> {
    ReconnectingClient::connect(addr, ReconnectConfig::default())
        .map_err(|e| format!("control connect {addr}: {e}"))
}

/// Scrape `Metrics` (no reports, no events) until the server has run
/// `min` tuning intervals or [`INTERVALS_DEADLINE`] has passed, and
/// return the last scrape. A short run can end inside one interval, and
/// injected tuner panics cost intervals, so the bar is checked against
/// a tuner given time to tick rather than against the run's length. A
/// scrape takes no lock, so one cut short by a reconnect is retried.
fn await_intervals(control: &mut ReconnectingClient, min: u64) -> Result<MetricsSnapshot, String> {
    let deadline = Instant::now() + INTERVALS_DEADLINE;
    loop {
        match control.metrics(u64::MAX, 0) {
            Ok(s) if s.tuning_intervals < min && Instant::now() < deadline => sleep(TICK),
            Ok(snap) => return Ok(snap),
            Err(ClientError::Reconnected) => continue,
            Err(e) => return Err(e.to_string()),
        }
    }
}

/// The server's telemetry against what the workers saw on the wire.
/// Everything is quiescent by now (only the control connection is
/// live), so the invariants are exact.
fn metrics_audit(
    config: &Config,
    tally: &Tally,
    server: &MetricsSnapshot,
    snap: &MetricsSnapshot,
) -> Vec<Check> {
    let (c, s) = (&snap.counters, &snap.lock_stats);
    let mut checks = Vec::new();
    if config.batch && !config.chaos {
        // Every transaction ships its lock set as at least one
        // LockBatch frame, and every batch carries at least one item.
        // (Chaos can lose a transaction before its frame reaches the
        // server.)
        let txns = config.workers as u64 * config.txns;
        let (batches, items) = (c.batches, c.batch_items);
        checks.push(check(
            "batch counters",
            batches >= txns && items >= batches,
            format!("cover the run ({batches} batches >= {txns} txns, {items} items)"),
        ));
    }
    let timed = snap.lock_wait_micros.count();
    let seen = [
        tally.escalations_seen,
        tally.get(TxnOutcome::DeadlockVictim),
        tally.get(TxnOutcome::Timeout),
    ];
    let counted = [s.escalations, c.deadlock_victims, c.timeouts];
    let free = snap.free_fraction;
    checks.extend([
        check(
            "waits timed",
            timed == s.waits,
            format!("every wait timed exactly once ({timed} == {})", s.waits),
        ),
        check(
            "client covered",
            counted
                .iter()
                .zip(seen)
                .all(|(&server, client)| server >= client),
            format!("server escalations/victims/timeouts {counted:?} >= client-observed {seen:?}"),
        ),
        check(
            "pool gauges",
            snap.pool_bytes > 0 && free > 0.0,
            format!("live ({} bytes, {free:.3} free)", snap.pool_bytes),
        ),
        check(
            "tuner ticking",
            snap.tuning_intervals >= server.tuning_intervals,
            format!("still ticking ({} intervals)", snap.tuning_intervals),
        ),
    ]);
    checks
}

/// One tenant's p99 lock wait and escalations, from its own metrics
/// (histograms are per tenant: they only travel on a *bound*
/// connection).
pub fn tenant_wait(addr: &str, tenant: u32) -> Result<TenantWait, String> {
    let snap = (|| {
        let mut c = Client::connect(addr)?;
        c.hello(tenant)?;
        c.metrics(0, 0)
    })()
    .map_err(|e| format!("tenant {tenant} metrics: {e}"))?;
    let p99_us = snap.lock_wait_micros.quantile(0.99);
    let escalations = snap.lock_stats.escalations;
    Ok(TenantWait {
        id: tenant,
        p99_us,
        escalations,
    })
}

/// The ledger invariant the tenant subsystem stands on: every machine
/// byte is either some tenant's budget or free.
fn partition(control: &mut Client) -> Result<(MachineRollup, Check), String> {
    let r = (control.tenant_stats(0))
        .map_err(|e| format!("tenant stats: {e}"))?
        .rollup;
    let sum: u64 = r.tenants.iter().map(|t| t.budget).sum();
    let (free, machine) = (r.free_budget, r.machine_budget);
    let exact = format!("budgets {sum} B + free {free} B == machine {machine} B");
    Ok((r, check("budget partition", sum + free == machine, exact)))
}

/// The multi-tenant stress (`tenants > 0`).
fn run_tenants(config: &Config, progress: &AtomicU64) -> Result<StressReport, String> {
    let start = Instant::now();
    let mut control = Client::connect(&config.addr)
        .map_err(|e| format!("control connect {}: {e}", config.addr))?;
    // Worker `w` of tenant `t` seeds its rolls apart from every other.
    let seeds = |t: u32| move |w: usize| config.seed ^ (u64::from(t) << 32) ^ w as u64;
    let mix = |percent| config.mix(percent).map_err(|e| e.to_string());
    let (scans, oltp) = (mix(100)?, mix(0)?);
    let (mut tally, mut waits, mut churn, mut checks) = (Tally::default(), vec![], vec![], vec![]);
    match config.tenant_mode {
        TenantMode::Noisy => {
            // Tenant 0 is the noisy neighbor: pure contiguous scans,
            // the footprint that blows past any fixed lock budget.
            // Everyone else runs the well-behaved OLTP profile.
            let n = config.workers;
            let cohorts: Vec<_> = std::thread::scope(|s| {
                let cohorts: Vec<_> = (0..config.tenants)
                    .map(|t| {
                        let mix = if t == 0 { &scans } else { &oltp };
                        s.spawn(move || cohort(config, mix, Some(t), n, progress, seeds(t)))
                    })
                    .collect();
                cohorts
                    .into_iter()
                    .map(|h| h.join().expect("cohort"))
                    .collect()
            });
            for result in cohorts {
                tally.merge(&result?.0);
            }
            waits = (0..config.tenants)
                .map(|t| tenant_wait(&config.addr, t))
                .collect::<Result<_, _>>()?;
        }
        TenantMode::Churn => {
            // Tenants come and go under load. Tenant 0 keeps a steady
            // background workload the whole time; transient tenants
            // 900+ are created, hammered and dropped. Every drop must
            // return the tenant's entire budget to the free pool.
            let burst = Config {
                txns: config.txns / 2,
                ..config.clone()
            };
            let mix = mix(config.dss_percent)?;
            let background = std::thread::scope(|s| {
                let bg = s.spawn(|| cohort(config, &oltp, Some(0), 1, progress, seeds(0)));
                for id in 900..903 {
                    let granted = (control.tenant_create(id))
                        .map_err(|e| format!("create tenant {id}: {e}"))?;
                    let workers = config.workers.div_ceil(2);
                    let (churned, _) =
                        cohort(&burst, &mix, Some(id), workers, progress, seeds(id))?;
                    let reclaimed =
                        (control.tenant_drop(id)).map_err(|e| format!("drop tenant {id}: {e}"))?;
                    let tenant = id;
                    churn.push(ChurnCycle {
                        tenant,
                        granted,
                        reclaimed,
                    });
                    tally.merge(&churned);
                    let (rollup, exact) = partition(&mut control)?;
                    let gone = !rollup.tenants.iter().any(|t| t.id == id);
                    checks.extend([
                        exact,
                        check("dropped tenant gone", gone, format!("tenant {id}")),
                    ]);
                }
                bg.join().expect("cohort")
            })?;
            tally.merge(&background.0);
        }
    }
    let (rollup, exact) = partition(&mut control)?;
    checks.push(exact);
    let mut control = connect_control(&config.addr)?;
    let audit = drain_and_validate(&mut control, DRAIN).map_err(|e| e.to_string());
    Ok(StressReport {
        checks,
        waits,
        churn,
        rollup: Some(rollup),
        ..StressReport::new(tally, start.elapsed(), audit)
    })
}

impl fmt::Display for StressReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let t = &self.tally;
        let rate = t.get(TxnOutcome::Committed) as f64 / self.elapsed.as_secs_f64().max(1e-9);
        writeln!(
            f,
            "--- stress report ---\n{t}throughput:        {rate:.0} txn/s"
        )?;
        if self.killed {
            writeln!(f, "kill phase:        33 locks held, connection killed")?;
        }
        if let Some(s) = &self.server {
            let (esc, waits) = (s.lock_stats.escalations, s.lock_stats.waits);
            writeln!(f, "server:            {esc} escalations, {waits} waits")?;
            let (grow, shrink, bytes) = (s.grow_decisions, s.shrink_decisions, s.pool_bytes);
            writeln!(
                f,
                "tuner:             {grow} grow, {shrink} shrink, {bytes} B"
            )?;
            if self.chaos {
                let (r, jobs) = (&self.reconnects, s.counters.watchdog_restarts);
                writeln!(f, "chaos recovery:    {r:?}, {jobs} jobs recovered")?;
            }
        }
        for w in &self.waits {
            let (id, p99, esc) = (w.id, w.p99_us, w.escalations);
            writeln!(
                f,
                "tenant {id:>3}:        p99 wait {p99} us, {esc} escalations"
            )?;
        }
        for c in &self.churn {
            let (id, granted, reclaimed) = (c.tenant, c.granted / MIB, c.reclaimed / MIB);
            writeln!(
                f,
                "churned tenant {id}: {granted} MiB granted, {reclaimed} reclaimed"
            )?;
        }
        if let Some(r) = &self.rollup {
            let (machine, free, moved) = (r.machine_budget, r.free_budget, r.donated_bytes);
            let (machine, free, moved) = (machine / MIB, free / MIB, moved / MIB);
            writeln!(f, "machine budget:    {machine} MiB, {free} MiB free")?;
            writeln!(
                f,
                "arbiter:           {} donations, {moved} MiB",
                r.donations
            )?;
            for t in &r.tenants {
                let (id, budget, pool) = (t.id, t.budget / MIB, t.pool_bytes);
                writeln!(f, "tenant {id:>3} budget: {budget} MiB, pool {pool} B")?;
            }
        }
        for c in &self.checks {
            let failed = if c.ok { "" } else { "FAILED: " };
            writeln!(f, "{:<19}{failed}{}", format!("{}:", c.name), c.detail)?;
        }
        match &self.audit {
            Ok(r) => writeln!(
                f,
                "validate:          zero divergence, {} charged",
                r.charged_slots
            ),
            Err(e) => writeln!(f, "validate:          FAILED: {e}"),
        }
    }
}
