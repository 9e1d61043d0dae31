//! The six closed-loop workloads. Each is a [`Workload`]: a rig
//! (services, servers, connected workers) plus a per-worker
//! transaction the generic driver in `run.rs` repeats. Everything the
//! program under test sees is a request generated here from the seed;
//! the seed itself never crosses into it.
//!
//! Every load is a closed loop with at most `nproc` client threads or
//! connections — see the README for why an open loop cannot be
//! measured on a two-core host.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use locktune_cluster::{BreakerConfig, ClusterConfig, RoutingClient};
use locktune_lockmgr::{partition, AppId, LockMode, ResourceId, RowId, TableId};
use locktune_net::wire::{Reply, Request};
use locktune_net::{Client, IoModel, MetricsSnapshot, ReconnectConfig, Server, ServerConfig};
use locktune_service::{LockService, ServiceConfig, Session};

use crate::spans::{SpanName, Tracer};

/// Lock-table shards of every service under test.
pub const SERVICE_SHARDS: usize = 4;
/// I/O shard threads of every evented server under test.
pub const IO_SHARDS: usize = 2;
/// Row locks per OLTP transaction (plus one table intent lock).
pub const ROWS_PER_TXN: u64 = 20;
/// Lock pool of the OLTP rigs: large enough that the pool never
/// resizes, so only slot recycling runs.
const OLTP_POOL_BYTES: u64 = 64 << 20;

/// What one run is asked to do.
#[derive(Debug, Clone)]
pub struct Params {
    pub seed: u64,
    /// Client threads / connections (`nproc`).
    pub threads: usize,
    /// Length of one timed repetition.
    pub rep: Duration,
    /// Timed repetitions.
    pub reps: usize,
    /// Divisor applied to warm-up transaction counts (`--quick`).
    pub warmup_div: u64,
}

/// Counts one worker accumulates over a repetition.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub txns: u64,
    /// Locks granted.
    pub locks: u64,
    /// Operations attempted: every lock item plus every commit.
    pub attempted: u64,
    /// Operations that did not do what was asked: a lock not granted
    /// (timeout, deadlock victim, out of memory, overload, fenced,
    /// skipped batch item) or a commit that released the wrong count.
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, other: &Tally) {
        self.txns += other.txns;
        self.locks += other.locks;
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Count one lock item; returns 1 when it was granted, for the
    /// caller's tally of what the commit must release.
    fn lock(&mut self, granted: bool) -> u64 {
        self.attempted += 1;
        if granted {
            self.locks += 1;
        } else {
            self.failed += 1;
        }
        u64::from(granted)
    }

    /// A commit is correct only if it released exactly the locks the
    /// transaction was granted.
    fn commit(&mut self, released: Option<u64>, expected: u64) {
        self.attempted += 1;
        if released != Some(expected) {
            self.failed += 1;
        }
    }
}

/// One closed-loop client.
pub trait Worker: Send {
    /// Run one transaction to completion (every reply received).
    fn txn<T: Tracer>(&mut self, tr: &mut T, tally: &mut Tally);
}

/// What is left of a rig once its clients and servers are gone.
pub struct Drained {
    pub services: Vec<Arc<LockService>>,
    /// Failures of audits that had to run before teardown (the wire
    /// `Validate` round trip, the DSS repeatability check).
    pub findings: Vec<String>,
}

pub trait Workload: Sized {
    type Worker: Worker + 'static;

    const NAME: &'static str;
    /// Sample one transaction in this many in the traced run.
    const TRACE_PERIOD: u64 = 64;
    /// Transactions each worker runs, untimed, inside set-up.
    const WARMUP_TXNS: u64;

    /// Start services and servers and connect the workers. No lock
    /// traffic yet.
    fn build(p: &Params) -> Self;
    /// Hand the workers over to the client threads that will run them.
    fn take_workers(&mut self) -> Vec<Self::Worker>;
    fn services(&self) -> &[Arc<LockService>];

    /// One telemetry scrape per service, through the front door the
    /// workload uses (the wire `Metrics` frame when there is a server,
    /// so the I/O shard rows are filled in).
    fn observe(&self) -> Vec<MetricsSnapshot> {
        self.services().iter().map(|s| s.observe(0, 0)).collect()
    }

    /// Highest lock-pool size seen so far, summed over services.
    fn lock_bytes_high(&self) -> u64 {
        self.services().iter().map(|s| s.pool_stats().bytes).sum()
    }

    /// Disconnect `workers` (back from their threads) and stop every
    /// server.
    fn drain(self, workers: Vec<Self::Worker>) -> Drained;
}

// ---------------------------------------------------------------------
// Shared pieces
// ---------------------------------------------------------------------

/// splitmix64: the harness's only random source, so a seed fixes every
/// draw on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` far below 2^32, so the modulo bias is
    /// negligible).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Seeded table ids, `per_slot` for each of `slots` partitions of the
/// program's table hash. Which tables a client touches is random, but
/// how many of them share a shard latch (or a cluster node) is held
/// fixed: otherwise a seed that lands two private tables on one shard
/// measures latch contention and one that does not measures none, and
/// the spread between seeds would swamp any change to the program.
fn seeded_tables(seed: u64, slots: usize, per_slot: usize) -> Vec<Vec<TableId>> {
    let mut buckets = vec![Vec::with_capacity(per_slot); slots];
    let mut id = (Rng::new(seed).next_u64() % 1_000_000) as u32;
    while buckets.iter().any(|b| b.len() < per_slot) {
        let bucket = &mut buckets[partition::slot_of(TableId(id), slots)];
        if bucket.len() < per_slot {
            bucket.push(TableId(id));
        }
        id += 1;
    }
    buckets
}

/// One private table per worker, each on its own service shard (as
/// long as there are shards to go round).
fn private_tables(p: &Params) -> Vec<TableId> {
    let per_slot = p.threads.div_ceil(SERVICE_SHARDS);
    let buckets = seeded_tables(p.seed, SERVICE_SHARDS, per_slot);
    (0..p.threads)
        .map(|t| buckets[t % SERVICE_SHARDS][t / SERVICE_SHARDS])
        .collect()
}

/// Service configuration shared by every rig: four shards, the tuning
/// and deadlock timers parked so the control loop runs only when a
/// workload drives it.
pub fn service_config(
    initial_lock_bytes: u64,
    lock_wait_timeout: Option<Duration>,
) -> ServiceConfig {
    ServiceConfig {
        shards: SERVICE_SHARDS,
        tuning_interval: Duration::from_secs(3600),
        deadlock_interval: Duration::from_secs(3600),
        lock_wait_timeout,
        initial_lock_bytes,
        ..ServiceConfig::default()
    }
}

pub fn start_service(config: ServiceConfig) -> Arc<LockService> {
    Arc::new(LockService::start(config).expect("service start"))
}

pub fn oltp_service() -> Arc<LockService> {
    start_service(service_config(OLTP_POOL_BYTES, None))
}

/// An in-process server on loopback.
pub fn bind_server(service: Arc<LockService>, io_model: IoModel) -> Server {
    let config = ServerConfig {
        io_model,
        io_shards: IO_SHARDS,
        ..ServerConfig::default()
    };
    Server::bind_with_config(service, "127.0.0.1:0", config).expect("bind loopback")
}

pub fn connect(server: &Server) -> Client {
    Client::connect(server.local_addr()).expect("connect loopback")
}

/// Scrape a server's telemetry over a throwaway connection.
fn scrape(server: &Server) -> MetricsSnapshot {
    connect(server).metrics(0, 0).expect("metrics scrape")
}

/// The wire `Validate` audit: the server's cross-shard accounting must
/// pass and report nothing charged.
fn remote_audit(name: &str, client: &mut Client, findings: &mut Vec<String>) {
    match client.validate() {
        Ok(r) if r.charged_slots == 0 && r.pool_used_slots == 0 => {}
        Ok(r) => findings.push(format!(
            "{name}: wire validate left {} charged / {} used slots",
            r.charged_slots, r.pool_used_slots
        )),
        Err(e) => findings.push(format!("{name}: wire validate failed: {e}")),
    }
}

/// Fill `items` with one OLTP lock set: IX on `table`, then X on the
/// next [`ROWS_PER_TXN`] fresh rows.
pub fn oltp_items(items: &mut Vec<(ResourceId, LockMode)>, table: TableId, next_row: &mut u64) {
    items.clear();
    items.push((ResourceId::Table(table), LockMode::IX));
    for _ in 0..ROWS_PER_TXN {
        items.push((ResourceId::Row(table, RowId(*next_row)), LockMode::X));
        *next_row += 1;
    }
}

// ---------------------------------------------------------------------
// inproc_oltp
// ---------------------------------------------------------------------

pub struct InprocOltp {
    services: Vec<Arc<LockService>>,
    workers: Vec<OltpSession>,
}

pub struct OltpSession {
    session: Session,
    table: TableId,
    next_row: u64,
}

impl OltpSession {
    pub fn new(service: &LockService, app: u32, table: TableId, seed: u64) -> OltpSession {
        OltpSession {
            session: service.connect(AppId(app)),
            table,
            next_row: Rng::new(seed ^ u64::from(app)).below(1 << 40),
        }
    }
}

impl Worker for OltpSession {
    fn txn<T: Tracer>(&mut self, tr: &mut T, tally: &mut Tally) {
        let s = &self.session;
        let r = tr.span(SpanName::ServiceLock, || {
            s.lock(ResourceId::Table(self.table), LockMode::IX)
        });
        let mut granted = tally.lock(r.is_ok());
        for _ in 0..ROWS_PER_TXN {
            let res = ResourceId::Row(self.table, RowId(self.next_row));
            self.next_row += 1;
            let r = tr.span(SpanName::ServiceLock, || s.lock(res, LockMode::X));
            granted += tally.lock(r.is_ok());
        }
        let report = tr.span(SpanName::ServiceUnlockAll, || s.unlock_all());
        tally.commit(report.ok().map(|r| r.released_locks), granted);
        tally.txns += 1;
    }
}

impl Workload for InprocOltp {
    type Worker = OltpSession;
    const NAME: &'static str = "inproc_oltp";
    const WARMUP_TXNS: u64 = 20_000;

    fn build(p: &Params) -> Self {
        let service = oltp_service();
        let workers = private_tables(p)
            .into_iter()
            .enumerate()
            .map(|(t, table)| OltpSession::new(&service, t as u32 + 1, table, p.seed))
            .collect();
        InprocOltp {
            services: vec![service],
            workers,
        }
    }

    fn take_workers(&mut self) -> Vec<OltpSession> {
        std::mem::take(&mut self.workers)
    }

    fn services(&self) -> &[Arc<LockService>] {
        &self.services
    }

    fn drain(self, workers: Vec<Self::Worker>) -> Drained {
        drop(workers);
        Drained {
            services: self.services,
            findings: Vec::new(),
        }
    }
}

// ---------------------------------------------------------------------
// inproc_contended
// ---------------------------------------------------------------------

/// Rows in the shared hot set.
const HOT_ROWS: u64 = 16;
/// Hot rows each transaction locks.
const HOT_PICKS: usize = 8;

pub struct InprocContended {
    services: Vec<Arc<LockService>>,
    workers: Vec<HotSession>,
}

pub struct HotSession {
    session: Session,
    table: TableId,
    rng: Rng,
}

impl Worker for HotSession {
    fn txn<T: Tracer>(&mut self, tr: &mut T, tally: &mut Tally) {
        // Draw 8 distinct rows of the 16 (partial Fisher–Yates), then
        // sort: every transaction acquires in ascending row order, so
        // waits form no cycle and no deadlock is possible.
        let mut rows: [u64; HOT_ROWS as usize] = std::array::from_fn(|i| i as u64);
        for i in 0..HOT_PICKS {
            let j = i + self.rng.below(HOT_ROWS - i as u64) as usize;
            rows.swap(i, j);
        }
        let picks = &mut rows[..HOT_PICKS];
        picks.sort_unstable();

        let s = &self.session;
        let r = tr.span(SpanName::ServiceLock, || {
            s.lock(ResourceId::Table(self.table), LockMode::IX)
        });
        let mut granted = tally.lock(r.is_ok());
        for &row in picks.iter() {
            let res = ResourceId::Row(self.table, RowId(row));
            let r = tr.span(SpanName::ServiceLock, || s.lock(res, LockMode::X));
            granted += tally.lock(r.is_ok());
        }
        let report = tr.span(SpanName::ServiceUnlockAll, || s.unlock_all());
        tally.commit(report.ok().map(|r| r.released_locks), granted);
        tally.txns += 1;
    }
}

impl Workload for InprocContended {
    type Worker = HotSession;
    const NAME: &'static str = "inproc_contended";
    const WARMUP_TXNS: u64 = 10_000;

    fn build(p: &Params) -> Self {
        let service = start_service(service_config(
            OLTP_POOL_BYTES,
            Some(Duration::from_secs(2)),
        ));
        let table = seeded_tables(p.seed, 1, 1)[0][0];
        let workers = (0..p.threads)
            .map(|t| HotSession {
                session: service.connect(AppId(t as u32 + 1)),
                table,
                rng: Rng::new(p.seed.wrapping_mul(0x1000_0001).wrapping_add(t as u64)),
            })
            .collect();
        InprocContended {
            services: vec![service],
            workers,
        }
    }

    fn take_workers(&mut self) -> Vec<HotSession> {
        std::mem::take(&mut self.workers)
    }

    fn services(&self) -> &[Arc<LockService>] {
        &self.services
    }

    fn drain(self, workers: Vec<Self::Worker>) -> Drained {
        drop(workers);
        Drained {
            services: self.services,
            findings: Vec::new(),
        }
    }
}

// ---------------------------------------------------------------------
// dss_surge
// ---------------------------------------------------------------------

/// Tables one scan reads.
const DSS_TABLES: usize = 4;
/// S row locks per scan, spread evenly over the tables.
const DSS_ROWS: u64 = 400_000;
/// Locks between two tuning intervals. Ticks are driven by operation
/// count, never by a timer, so the control loop repeats exactly.
const DSS_TICK_EVERY: u64 = 20_000;
/// Tuning intervals run after the release, so δ_reduce shrinks the
/// pool back before the next scan.
const DSS_SHRINK_TICKS: u32 = 40;

pub struct DssSurge {
    services: Vec<Arc<LockService>>,
    workers: Vec<ScanSession>,
    /// Highest pool size the scan has seen at a tick point.
    peak: Arc<AtomicU64>,
}

/// What the control loop did during one scan cycle. Single-threaded
/// and tick-by-count, so every cycle after the cold first one must
/// produce the same record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleRecord {
    pub grow_decisions: u64,
    pub shrink_decisions: u64,
    pub peak_lock_bytes: u64,
}

pub struct ScanSession {
    service: Arc<LockService>,
    session: Session,
    tables: Vec<TableId>,
    cycles: Vec<CycleRecord>,
    peak: Arc<AtomicU64>,
}

impl ScanSession {
    /// Run one tuning interval and return the pool size after it.
    /// Pool size is sampled here, at tick points, never per lock.
    fn tick<T: Tracer>(&self, tr: &mut T) -> u64 {
        tr.span(SpanName::ServiceTuningTick, || {
            self.service.run_tuning_interval_now().lock_bytes_after
        })
    }
}

impl Worker for ScanSession {
    fn txn<T: Tracer>(&mut self, tr: &mut T, tally: &mut Tally) {
        let before = self.service.tuning_counters();
        let mut peak = self.service.pool_stats().bytes;
        let s = &self.session;
        let mut granted = 0;
        for &table in &self.tables {
            let r = s.lock(ResourceId::Table(table), LockMode::IS);
            granted += tally.lock(r.is_ok());
        }
        let rows_per_table = DSS_ROWS / DSS_TABLES as u64;
        let mut since_tick = 0;
        for &table in &self.tables {
            let mut row = 0;
            while row < rows_per_table {
                let chunk = (DSS_TICK_EVERY - since_tick).min(rows_per_table - row);
                tr.span(SpanName::ServiceLockChunk, || {
                    for r in row..row + chunk {
                        let r = s.lock(ResourceId::Row(table, RowId(r)), LockMode::S);
                        granted += tally.lock(r.is_ok());
                    }
                });
                row += chunk;
                since_tick += chunk;
                if since_tick == DSS_TICK_EVERY {
                    since_tick = 0;
                    peak = peak.max(self.tick(tr));
                }
            }
        }
        let report = tr.span(SpanName::ServiceUnlockAll, || s.unlock_all());
        tally.commit(report.ok().map(|r| r.released_locks), granted);
        for _ in 0..DSS_SHRINK_TICKS {
            peak = peak.max(self.tick(tr));
        }
        let after = self.service.tuning_counters();
        self.cycles.push(CycleRecord {
            grow_decisions: after.grow_decisions - before.grow_decisions,
            shrink_decisions: after.shrink_decisions - before.shrink_decisions,
            peak_lock_bytes: peak,
        });
        self.peak.fetch_max(peak, Ordering::Relaxed);
        tally.txns += 1;
    }
}

impl Workload for DssSurge {
    type Worker = ScanSession;
    const NAME: &'static str = "dss_surge";
    /// Every scan is traced: a run holds tens of cycles, not millions.
    const TRACE_PERIOD: u64 = 1;
    /// One cold cycle: the only one that starts from the 2 MiB pool.
    const WARMUP_TXNS: u64 = 1;

    fn build(p: &Params) -> Self {
        // The service defaults are the paper's testbed: a 2 MiB lock
        // pool inside 5.11 GB of database memory.
        let defaults = ServiceConfig::default();
        let service = start_service(service_config(defaults.initial_lock_bytes, None));
        let tables = seeded_tables(p.seed, SERVICE_SHARDS, DSS_TABLES / SERVICE_SHARDS)
            .into_iter()
            .flatten()
            .collect();
        let peak = Arc::new(AtomicU64::new(0));
        let worker = ScanSession {
            session: service.connect(AppId(1)),
            service: Arc::clone(&service),
            tables,
            cycles: Vec::new(),
            peak: Arc::clone(&peak),
        };
        DssSurge {
            services: vec![service],
            workers: vec![worker],
            peak,
        }
    }

    fn take_workers(&mut self) -> Vec<ScanSession> {
        std::mem::take(&mut self.workers)
    }

    fn services(&self) -> &[Arc<LockService>] {
        &self.services
    }

    fn lock_bytes_high(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }

    fn drain(self, workers: Vec<ScanSession>) -> Drained {
        let mut findings = Vec::new();
        // Skip the cold first cycle; every later one must repeat.
        let warm = &workers[0].cycles[1..];
        if let Some(first) = warm.first() {
            if let Some((i, odd)) = warm.iter().enumerate().find(|(_, c)| *c != first) {
                findings.push(format!(
                    "dss_surge: cycle {} differs from cycle 1: {odd:?} vs {first:?}",
                    i + 1
                ));
            }
        }
        drop(workers);
        Drained {
            services: self.services,
            findings,
        }
    }
}

// ---------------------------------------------------------------------
// wire_batch / wire_single
// ---------------------------------------------------------------------

/// A single-node wire rig: one evented server, one connection per
/// worker. `BATCHED` selects the message shape, nothing else.
pub struct Wire<const BATCHED: bool> {
    services: Vec<Arc<LockService>>,
    server: Server,
    workers: Vec<WireConn<BATCHED>>,
}

pub type WireBatch = Wire<true>;
pub type WireSingle = Wire<false>;

pub struct WireConn<const BATCHED: bool> {
    client: Client,
    table: TableId,
    next_row: u64,
    items: Vec<(ResourceId, LockMode)>,
    ids: Vec<u64>,
}

impl<const BATCHED: bool> WireConn<BATCHED> {
    pub fn new(client: Client, table: TableId, seed: u64) -> Self {
        WireConn {
            client,
            table,
            next_row: Rng::new(seed ^ u64::from(table.0)).below(1 << 40),
            items: Vec::with_capacity(ROWS_PER_TXN as usize + 1),
            ids: Vec::with_capacity(ROWS_PER_TXN as usize + 1),
        }
    }
}

/// A transport failure leaves nothing to measure on the connection:
/// the run aborts (non-zero exit, no result line) instead of counting
/// millions of instant failures.
const TRANSPORT: &str = "loopback transport failed";

impl<const BATCHED: bool> Worker for WireConn<BATCHED> {
    fn txn<T: Tracer>(&mut self, tr: &mut T, tally: &mut Tally) {
        oltp_items(&mut self.items, self.table, &mut self.next_row);
        let (c, items, ids) = (&mut self.client, &self.items, &mut self.ids);
        // The whole transaction rides one flush: lock set, then commit.
        let commit_id = tr.span(SpanName::ClientSend, || {
            ids.clear();
            if BATCHED {
                ids.push(c.send_lock_batch(items).expect(TRANSPORT));
            } else {
                for &(res, mode) in items {
                    ids.push(c.send(&Request::Lock { res, mode }).expect(TRANSPORT));
                }
            }
            c.send(&Request::UnlockAll).expect(TRANSPORT)
        });
        tr.span(SpanName::ClientFlush, || c.flush().expect(TRANSPORT));

        let mut granted = 0;
        if BATCHED {
            let reply = tr.span(SpanName::ClientWaitBatch, || {
                c.wait(ids[0]).expect(TRANSPORT)
            });
            tally.attempted += items.len() as u64;
            match reply {
                Reply::BatchOutcomes(outcomes) if outcomes.len() == items.len() => {
                    granted = outcomes.iter().filter(|o| o.is_granted()).count() as u64;
                }
                // Fenced, or a malformed reply: nothing was granted.
                _ => {}
            }
            tally.locks += granted;
            tally.failed += items.len() as u64 - granted;
        } else {
            tr.span(SpanName::ClientWaitLocks, || {
                for &id in ids.iter() {
                    let ok = matches!(c.wait(id).expect(TRANSPORT), Reply::Lock(Ok(_)));
                    granted += tally.lock(ok);
                }
            });
        }
        let commit = tr.span(SpanName::ClientWaitCommit, || {
            c.wait(commit_id).expect(TRANSPORT)
        });
        let released = match commit {
            Reply::UnlockAll(Ok(report)) => Some(report.released_locks),
            _ => None,
        };
        tally.commit(released, granted);
        tally.txns += 1;
    }
}

impl<const BATCHED: bool> Wire<BATCHED> {
    /// The rig over any I/O model and connection count; the workloads
    /// proper use evented and `nproc`, the layer rows vary both.
    pub fn with(p: &Params, io_model: IoModel, connections: usize) -> Self {
        let service = oltp_service();
        let server = bind_server(Arc::clone(&service), io_model);
        let workers = private_tables(p)
            .into_iter()
            .take(connections)
            .map(|table| WireConn::new(connect(&server), table, p.seed))
            .collect();
        Wire {
            services: vec![service],
            server,
            workers,
        }
    }
}

impl<const BATCHED: bool> Workload for Wire<BATCHED> {
    type Worker = WireConn<BATCHED>;
    const NAME: &'static str = if BATCHED { "wire_batch" } else { "wire_single" };
    const WARMUP_TXNS: u64 = 5_000;

    fn build(p: &Params) -> Self {
        Self::with(p, IoModel::Evented, p.threads)
    }

    fn take_workers(&mut self) -> Vec<WireConn<BATCHED>> {
        std::mem::take(&mut self.workers)
    }

    fn services(&self) -> &[Arc<LockService>] {
        &self.services
    }

    fn observe(&self) -> Vec<MetricsSnapshot> {
        vec![scrape(&self.server)]
    }

    fn drain(self, mut workers: Vec<Self::Worker>) -> Drained {
        let mut findings = Vec::new();
        match workers.first_mut() {
            Some(w) => remote_audit(Self::NAME, &mut w.client, &mut findings),
            None => findings.push(format!("{}: no connection to audit through", Self::NAME)),
        }
        drop(workers);
        self.server.shutdown();
        Drained {
            services: self.services,
            findings,
        }
    }
}

// ---------------------------------------------------------------------
// cluster_routed
// ---------------------------------------------------------------------

/// Nodes in the routed cluster.
pub const CLUSTER_NODES: usize = 2;
/// Routed clients. One, not `nproc`: a routed transaction fans out to
/// both nodes at once, so with two clients up to six threads (clients
/// plus four I/O shards) wake each other across two cores and the run
/// falls into scheduler-dependent regimes — the same binary and seed
/// gave 150 k to 315 k locks/s from one repetition to the next, p50
/// 47 to 125 us. With one client the same loop repeats to 2–3 %.
const ROUTED_WORKERS: usize = 1;
/// Tables each worker owns, half on each node.
const ROUTED_TABLES: usize = 16;
/// Tables one transaction touches.
const ROUTED_TABLES_PER_TXN: usize = 2;
/// X row locks under each table's intent lock: 2 × (1 + 4) = 10 items.
const ROUTED_ROWS_PER_TABLE: u64 = 4;
pub const ROUTED_ITEMS: u64 = ROUTED_TABLES_PER_TXN as u64 * (1 + ROUTED_ROWS_PER_TABLE);

pub struct ClusterRouted {
    services: Vec<Arc<LockService>>,
    servers: Vec<Server>,
    workers: Vec<RoutedWorker>,
}

pub struct RoutedWorker {
    router: RoutingClient,
    /// First half on node 0, second half on node 1.
    tables: Vec<TableId>,
    /// Take one table from each half, so every transaction fans out
    /// to both nodes (the layer rows; the workload draws freely).
    pub force_fanout: bool,
    rng: Rng,
    next_row: u64,
    items: Vec<(ResourceId, LockMode)>,
}

/// A static-map router over `servers`.
pub fn connect_router(servers: &[Server], seed: u64) -> RoutingClient {
    let config = ClusterConfig {
        nodes: servers.iter().map(|s| s.local_addr().to_string()).collect(),
        reconnect: ReconnectConfig {
            seed,
            ..ReconnectConfig::default()
        },
        gid: None,
        breaker: BreakerConfig::default(),
    };
    RoutingClient::connect(&config).expect("connect cluster")
}

impl RoutedWorker {
    pub fn new(servers: &[Server], tables: Vec<TableId>, seed: u64) -> RoutedWorker {
        let mut rng = Rng::new(seed);
        RoutedWorker {
            router: connect_router(servers, seed),
            next_row: rng.below(1 << 40),
            rng,
            tables,
            force_fanout: false,
            items: Vec::with_capacity(ROUTED_ITEMS as usize),
        }
    }
}

impl Worker for RoutedWorker {
    fn txn<T: Tracer>(&mut self, tr: &mut T, tally: &mut Tally) {
        // Two distinct tables of this worker's set.
        let n = self.tables.len() as u64;
        let (a, b) = if self.force_fanout {
            (self.rng.below(n / 2), n / 2 + self.rng.below(n / 2))
        } else {
            let a = self.rng.below(n);
            (a, (a + 1 + self.rng.below(n - 1)) % n)
        };
        self.items.clear();
        for pick in [a, b] {
            let table = self.tables[pick as usize];
            self.items.push((ResourceId::Table(table), LockMode::IX));
            for _ in 0..ROUTED_ROWS_PER_TABLE {
                self.items
                    .push((ResourceId::Row(table, RowId(self.next_row)), LockMode::X));
                self.next_row += 1;
            }
        }
        let (router, items) = (&mut self.router, &self.items);
        let outcomes = tr.span(SpanName::ClusterLockMany, || router.lock_many(items));
        tally.attempted += items.len() as u64;
        // A cluster-level error released everything on every node.
        let granted = outcomes.map_or(0, |o| o.iter().filter(|o| o.is_granted()).count() as u64);
        tally.locks += granted;
        tally.failed += items.len() as u64 - granted;
        let report = tr.span(SpanName::ClusterUnlockAll, || router.unlock_all());
        tally.commit(report.ok().map(|r| r.released_locks), granted);
        tally.txns += 1;
    }
}

/// `workers` disjoint table sets, each with the same number of tables
/// on every node (see [`seeded_tables`] for why the split is fixed).
pub fn routed_table_sets(seed: u64, workers: usize) -> Vec<Vec<TableId>> {
    let per_node = ROUTED_TABLES / CLUSTER_NODES;
    let by_node = seeded_tables(seed, CLUSTER_NODES, per_node * workers);
    (0..workers)
        .map(|w| {
            by_node
                .iter()
                .flat_map(|node| node[w * per_node..(w + 1) * per_node].iter().copied())
                .collect()
        })
        .collect()
}

/// `CLUSTER_NODES` evented servers, each over its own service.
pub fn start_cluster() -> (Vec<Arc<LockService>>, Vec<Server>) {
    let services: Vec<_> = (0..CLUSTER_NODES).map(|_| oltp_service()).collect();
    let servers = services
        .iter()
        .map(|s| bind_server(Arc::clone(s), IoModel::Evented))
        .collect();
    (services, servers)
}

impl Workload for ClusterRouted {
    type Worker = RoutedWorker;
    const NAME: &'static str = "cluster_routed";
    const WARMUP_TXNS: u64 = 3_000;

    fn build(p: &Params) -> Self {
        let (services, servers) = start_cluster();
        let workers = routed_table_sets(p.seed, ROUTED_WORKERS)
            .into_iter()
            .enumerate()
            .map(|(w, tables)| {
                RoutedWorker::new(&servers, tables, p.seed.wrapping_add(w as u64 + 1))
            })
            .collect();
        ClusterRouted {
            services,
            servers,
            workers,
        }
    }

    fn take_workers(&mut self) -> Vec<RoutedWorker> {
        std::mem::take(&mut self.workers)
    }

    fn services(&self) -> &[Arc<LockService>] {
        &self.services
    }

    fn observe(&self) -> Vec<MetricsSnapshot> {
        self.servers.iter().map(scrape).collect()
    }

    fn drain(self, mut workers: Vec<RoutedWorker>) -> Drained {
        let mut findings = Vec::new();
        match workers.first_mut().map(|w| w.router.validate()) {
            Some(Ok(reports)) => {
                for (node, r) in reports.iter().enumerate() {
                    if r.charged_slots != 0 || r.pool_used_slots != 0 {
                        findings.push(format!(
                            "cluster_routed: node {node} validate left {} charged / {} used slots",
                            r.charged_slots, r.pool_used_slots
                        ));
                    }
                }
            }
            Some(Err(e)) => findings.push(format!("cluster_routed: validate failed: {e:?}")),
            None => findings.push("cluster_routed: no router to audit through".into()),
        }
        drop(workers);
        for server in self.servers {
            server.shutdown();
        }
        Drained {
            services: self.services,
            findings,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_tables_fill_every_slot_and_repeat() {
        let a = seeded_tables(7, 4, 3);
        assert_eq!(a, seeded_tables(7, 4, 3));
        assert_ne!(a, seeded_tables(8, 4, 3));
        for (slot, bucket) in a.iter().enumerate() {
            assert_eq!(bucket.len(), 3);
            for &t in bucket {
                assert_eq!(partition::slot_of(t, 4), slot);
            }
        }
    }

    #[test]
    fn routed_sets_are_disjoint_and_balanced() {
        let sets = routed_table_sets(3, 2);
        assert_eq!(sets.len(), 2);
        for set in &sets {
            assert_eq!(set.len(), ROUTED_TABLES);
            let on_node0 = set
                .iter()
                .filter(|&&t| partition::slot_of(t, CLUSTER_NODES) == 0)
                .count();
            assert_eq!(on_node0, ROUTED_TABLES / CLUSTER_NODES);
        }
        assert!(sets[0].iter().all(|t| !sets[1].contains(t)));
    }

    #[test]
    fn rng_repeats_per_seed() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        let draws: Vec<u64> = (0..8).map(|_| a.below(16)).collect();
        assert_eq!(draws, (0..8).map(|_| b.below(16)).collect::<Vec<_>>());
        assert!(draws.iter().all(|&d| d < 16));
    }
}
