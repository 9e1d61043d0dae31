//! The tenant directory and its cross-tenant arbiter.
//!
//! A [`TenantDirectory`] hosts N logical databases — each a full
//! [`LockService`] with its own shards, STMM tuner and MAXLOCKS curve
//! — under one machine-wide lock-memory budget. The directory never
//! touches a tenant's memory directly: it moves *budget* (the
//! service's lock-memory ceiling), and each tenant's own tuner grows
//! or shrinks its pool underneath that ceiling. That indirection is
//! what keeps a tenant crash or shed from leaking another tenant's
//! bytes — the ledger partition is the single source of truth, and a
//! dropped tenant's whole line returns to the free pool atomically.
//!
//! The **arbiter** is the paper's greedy benefit/cost rebalance lifted
//! one level up: per interval it turns each tenant's counter deltas
//! (outright denials, denied sync growth, escalations) into a
//! pressure-per-MiB benefit score, then donates one quantum from the
//! lowest-benefit donor to the highest-benefit recipient — free pool
//! first, floors and ceilings always, and only when the benefit gap
//! clears the hysteresis threshold so near-equal tenants don't slosh.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use locktune_faults::FaultInjector;
use locktune_lockmgr::LockStats;
use locktune_obs::ObsCounters;
use locktune_service::{
    ConfigError, Latch, LockService, ServiceConfig, StopSignal, TuningCounters,
};

use crate::config::{TenantsConfig, TenantsConfigError};
use crate::ledger::{BudgetLedger, LedgerError, TenantBudget};

const MIB_F: f64 = (1024 * 1024) as f64;

/// Errors surfaced by directory operations.
#[derive(Debug)]
pub enum TenantsError {
    /// The directory configuration was rejected.
    Config(TenantsConfigError),
    /// The budget ledger refused the operation.
    Ledger(LedgerError),
    /// A tenant's service failed to start (its budget line was rolled
    /// back; the ledger is unchanged).
    Service(ConfigError),
    /// The named tenant does not exist.
    UnknownTenant(u32),
    /// `create_tenant` for an id that is already hosted.
    DuplicateTenant(u32),
}

impl std::fmt::Display for TenantsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TenantsError::Config(e) => write!(f, "config: {e}"),
            TenantsError::Ledger(e) => write!(f, "budget ledger: {e}"),
            TenantsError::Service(e) => write!(f, "tenant service: {e}"),
            TenantsError::UnknownTenant(id) => write!(f, "tenant {id} does not exist"),
            TenantsError::DuplicateTenant(id) => write!(f, "tenant {id} already exists"),
        }
    }
}

impl std::error::Error for TenantsError {}

impl TenantsError {
    /// Suggested process exit code, matching the service convention:
    /// `2` for configuration mistakes and refused operations, `3` for
    /// environment failures (thread spawn).
    pub fn exit_code(&self) -> i32 {
        match self {
            TenantsError::Config(e) => e.exit_code(),
            TenantsError::Service(e) => e.exit_code(),
            _ => 2,
        }
    }
}

impl From<TenantsConfigError> for TenantsError {
    fn from(e: TenantsConfigError) -> Self {
        TenantsError::Config(e)
    }
}

impl From<LedgerError> for TenantsError {
    fn from(e: LedgerError) -> Self {
        TenantsError::Ledger(e)
    }
}

/// One budget movement, journaled for the wire and `locktune-top`'s
/// donation-flow column.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantDonation {
    /// Monotonic donation sequence number (0-based since start).
    pub seq: u64,
    /// Milliseconds since the directory started.
    pub at_ms: u64,
    /// The donor, `None` when the bytes came from the free pool.
    pub from: Option<u32>,
    /// The recipient tenant.
    pub to: u32,
    /// Bytes of budget moved.
    pub bytes: u64,
    /// The donor's benefit score at decision time (`0` for the free
    /// pool).
    pub from_benefit: f64,
    /// The recipient's benefit score at decision time.
    pub to_benefit: f64,
}

/// What one [`TenantDirectory::arbitrate_now`] pass did.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ArbitrationOutcome {
    /// Bytes of budget moved (0 when no donation cleared the bar).
    pub moved_bytes: u64,
    /// Donor tenant, `None` for the free pool (or when nothing moved).
    pub from: Option<u32>,
    /// Recipient tenant, `None` when nothing moved.
    pub to: Option<u32>,
}

/// One tenant's row in a [`MachineRollup`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantRow {
    /// Tenant id.
    pub id: u32,
    /// Current budget (the service's lock-memory ceiling).
    pub budget: u64,
    /// The floor under that budget.
    pub floor: u64,
    /// The tenant pool's actual size.
    pub pool_bytes: u64,
    /// Allocated slots in the tenant pool.
    pub pool_slots_used: u64,
    /// Free fraction of the tenant pool.
    pub free_fraction: f64,
    /// The arbiter's latest benefit score (pressure per MiB of
    /// budget, EWMA-smoothed).
    pub benefit: f64,
    /// Applications connected to this tenant.
    pub connected_apps: u64,
    /// Lifetime lock escalations.
    pub escalations: u64,
    /// Lifetime outright `OutOfLockMemory` denials.
    pub denials: u64,
    /// Whether the tenant is currently shedding load.
    pub shedding: bool,
}

/// Machine-wide snapshot: the budget partition, arbitration totals and
/// one row per tenant. What the wire's `TenantStats` reply carries.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineRollup {
    /// The configured machine budget.
    pub machine_budget: u64,
    /// Budget not granted to any tenant.
    pub free_budget: u64,
    /// Arbitration passes run.
    pub arbitrations: u64,
    /// Donations performed (free-pool grants included).
    pub donations: u64,
    /// Total bytes those donations moved.
    pub donated_bytes: u64,
    /// Per-tenant rows, ascending by id.
    pub tenants: Vec<TenantRow>,
}

/// Counter snapshot the benefit metric differentiates. Monotonic
/// totals only — never the destructive journal, never the report ring
/// — so the arbiter can run at any cadence without racing `--scrape`
/// or `locktune-top` (the satellite-1 aggregation rule).
#[derive(Debug, Clone, Copy, Default)]
struct TenantSignals {
    denials: u64,
    sync_denied: u64,
    escalations: u64,
}

impl TenantSignals {
    fn capture(stats: &LockStats) -> Self {
        TenantSignals {
            denials: stats.denials,
            sync_denied: stats.sync_growth_denied,
            escalations: stats.escalations,
        }
    }

    /// Pressure accumulated since `last`: outright denials hurt most
    /// (work was refused), denied sync growth next (a session stalled
    /// and got nothing), escalations least (concurrency degraded but
    /// work proceeded). The weights shape the *ordering* of tenants,
    /// which is all a greedy arbiter consumes.
    fn pressure_since(&self, last: &TenantSignals) -> u64 {
        8 * (self.denials - last.denials)
            + 4 * (self.sync_denied - last.sync_denied)
            + (self.escalations - last.escalations)
    }
}

struct TenantEntry {
    service: Arc<LockService>,
    /// Signals at the last arbitration (delta base).
    last: TenantSignals,
    /// EWMA-smoothed benefit score.
    benefit: f64,
}

/// Keep-last-N donation journal with a monotonic cursor — the same
/// non-destructive shape as the service's tuning-report log, so any
/// number of pollers can follow the flow without stealing each
/// other's events.
struct DonationLog {
    cap: usize,
    buf: VecDeque<TenantDonation>,
    next_seq: u64,
}

impl DonationLog {
    fn new(cap: usize) -> Self {
        DonationLog {
            cap,
            buf: VecDeque::with_capacity(cap.min(64)),
            next_seq: 0,
        }
    }

    fn push(&mut self, mut d: TenantDonation) -> TenantDonation {
        d.seq = self.next_seq;
        if self.buf.len() == self.cap {
            self.buf.pop_front();
        }
        self.buf.push_back(d);
        self.next_seq += 1;
        d
    }

    fn since(&self, since: u64) -> (u64, Vec<TenantDonation>) {
        let oldest = self.next_seq - self.buf.len() as u64;
        let start = since.clamp(oldest, self.next_seq);
        let skip = (start - oldest) as usize;
        (self.next_seq, self.buf.iter().skip(skip).copied().collect())
    }
}

struct DirState {
    ledger: BudgetLedger,
    tenants: BTreeMap<u32, TenantEntry>,
    donations: DonationLog,
}

struct DirInner {
    config: TenantsConfig,
    state: Latch<DirState>,
    faults: FaultInjector,
    started: Instant,
    arbitrations: AtomicU64,
    donations_total: AtomicU64,
    donated_bytes_total: AtomicU64,
    /// Paces the arbiter; raised once, at shutdown.
    stop: StopSignal,
}

impl DirInner {
    /// One arbitration pass. See the module docs for the algorithm.
    fn arbitrate(&self) -> ArbitrationOutcome {
        let mut state = self.state.lock();
        let state = &mut *state;

        // Phase 1: refresh every tenant's benefit score from its
        // counter deltas. Pool stats ride along for donor eligibility.
        let mut pools: BTreeMap<u32, u64> = BTreeMap::new();
        for (&id, entry) in state.tenants.iter_mut() {
            let stats = entry.service.stats();
            let now = TenantSignals::capture(&stats);
            let pressure = now.pressure_since(&entry.last);
            entry.last = now;
            let budget = state.ledger.get(id).map(|b| b.budget).unwrap_or(1).max(1);
            let raw = pressure as f64 * MIB_F / budget as f64;
            // EWMA so one quiet interval doesn't instantly zero a
            // tenant that was starving a moment ago (and one noisy
            // interval doesn't whipsaw the budget).
            entry.benefit = 0.5 * entry.benefit + 0.5 * raw;
            pools.insert(id, entry.service.pool_stats().bytes);
        }

        self.arbitrations.fetch_add(1, Ordering::Relaxed);

        // Phase 2: pick the recipient — highest benefit with ledger
        // headroom. BTreeMap order makes ties deterministic (lowest
        // id wins).
        let recipient = state
            .tenants
            .iter()
            .filter(|(&id, e)| {
                e.benefit > 0.0
                    && state
                        .ledger
                        .get(id)
                        .is_some_and(|b| b.budget < b.ceiling.min(self.config.machine_budget_bytes))
            })
            .max_by(|(_, a), (_, b)| {
                a.benefit
                    .partial_cmp(&b.benefit)
                    .expect("benefit is never NaN")
            })
            .map(|(&id, e)| (id, e.benefit));
        let Some((to, to_benefit)) = recipient else {
            return ArbitrationOutcome::default();
        };
        let quantum = self.config.quantum_bytes;

        // Phase 3a: the free pool donates first — those bytes help
        // nobody where they are.
        let granted = state
            .ledger
            .grant_free(to, quantum)
            .expect("recipient exists");
        if granted > 0 {
            self.apply_ceiling(state, to);
            self.record_donation(
                state,
                TenantDonation {
                    seq: 0,
                    at_ms: self.started.elapsed().as_millis() as u64,
                    from: None,
                    to,
                    bytes: granted,
                    from_benefit: 0.0,
                    to_benefit,
                },
            );
            return ArbitrationOutcome {
                moved_bytes: granted,
                from: None,
                to: Some(to),
            };
        }

        // Phase 3b: greedy donor — the lowest-benefit tenant that can
        // give without shrinking (its budget exceeds both its floor
        // and its pool's current size). The donor's own tuner shrinks
        // an idle pool over time, which opens more headroom on later
        // passes.
        let donor = state
            .tenants
            .iter()
            .filter(|(&id, _)| id != to)
            .filter_map(|(&id, e)| {
                let line = state.ledger.get(id)?;
                let keep = line.floor.max(*pools.get(&id).unwrap_or(&0));
                let donatable = line.budget.saturating_sub(keep);
                (donatable > 0).then_some((id, e.benefit))
            })
            .min_by(|(_, a), (_, b)| a.partial_cmp(b).expect("benefit is never NaN"));
        let Some((from, from_benefit)) = donor else {
            return ArbitrationOutcome::default();
        };
        if to_benefit - from_benefit <= self.config.hysteresis {
            return ArbitrationOutcome::default();
        }
        let keep = pools.get(&from).copied().unwrap_or(0);
        let moved = state
            .ledger
            .transfer(from, to, quantum, keep)
            .expect("both ends exist");
        if moved == 0 {
            return ArbitrationOutcome::default();
        }
        self.apply_ceiling(state, from);
        self.apply_ceiling(state, to);
        self.record_donation(
            state,
            TenantDonation {
                seq: 0,
                at_ms: self.started.elapsed().as_millis() as u64,
                from: Some(from),
                to,
                bytes: moved,
                from_benefit,
                to_benefit,
            },
        );
        ArbitrationOutcome {
            moved_bytes: moved,
            from: Some(from),
            to: Some(to),
        }
    }

    /// Push the ledger's current budget for `id` down into the
    /// service as its lock-memory ceiling.
    fn apply_ceiling(&self, state: &DirState, id: u32) {
        if let (Some(line), Some(entry)) = (state.ledger.get(id), state.tenants.get(&id)) {
            entry.service.set_lock_memory_ceiling(Some(line.budget));
        }
    }

    fn record_donation(&self, state: &mut DirState, d: TenantDonation) {
        let d = state.donations.push(d);
        self.donations_total.fetch_add(1, Ordering::Relaxed);
        self.donated_bytes_total
            .fetch_add(d.bytes, Ordering::Relaxed);
    }
}

/// The multi-tenant host. See the module docs.
pub struct TenantDirectory {
    inner: Arc<DirInner>,
    arbiter_thread: Option<std::thread::JoinHandle<()>>,
}

impl TenantDirectory {
    /// Validate `config` and start the directory (and, unless
    /// `arbiter_interval` is zero, the arbiter thread). Tenants are
    /// added afterwards with [`TenantDirectory::create_tenant`].
    pub fn start(config: TenantsConfig) -> Result<TenantDirectory, TenantsError> {
        Self::start_with_faults(config, FaultInjector::disabled())
    }

    /// [`TenantDirectory::start`] with an armed fault injector, passed
    /// through to every tenant service (one seed correlates faults
    /// across the whole machine, exactly as the single-service chaos
    /// harness does).
    pub fn start_with_faults(
        config: TenantsConfig,
        faults: FaultInjector,
    ) -> Result<TenantDirectory, TenantsError> {
        config.validate()?;
        let inner = Arc::new(DirInner {
            state: Latch::new(DirState {
                ledger: BudgetLedger::new(config.machine_budget_bytes),
                tenants: BTreeMap::new(),
                donations: DonationLog::new(config.donation_log_capacity),
            }),
            faults,
            started: Instant::now(),
            arbitrations: AtomicU64::new(0),
            donations_total: AtomicU64::new(0),
            donated_bytes_total: AtomicU64::new(0),
            stop: StopSignal::new(),
            config,
        });
        let arbiter_thread = if config.arbiter_interval.is_zero() {
            None
        } else {
            let arb = Arc::clone(&inner);
            let handle = std::thread::Builder::new()
                .name("locktune-arbiter".into())
                .spawn(move || {
                    while !arb.stop.sleep(arb.config.arbiter_interval) {
                        arb.arbitrate();
                    }
                })
                .map_err(|e| {
                    TenantsError::Service(ConfigError::Spawn {
                        thread: "arbiter",
                        message: e.to_string(),
                    })
                })?;
            Some(handle)
        };
        Ok(TenantDirectory {
            inner,
            arbiter_thread,
        })
    }

    /// The directory configuration.
    pub fn config(&self) -> &TenantsConfig {
        &self.inner.config
    }

    /// Create tenant `id`: open its budget line (initial grant per
    /// [`TenantsConfig::initial_grant_bytes`], clamped to the free
    /// pool) and start its service with the ceiling already in force.
    /// On service-start failure the budget line is rolled back — the
    /// ledger never carries a line without a live service.
    pub fn create_tenant(&self, id: u32) -> Result<Arc<LockService>, TenantsError> {
        let config = &self.inner.config;
        let mut state = self.inner.state.lock();
        if state.tenants.contains_key(&id) {
            return Err(TenantsError::DuplicateTenant(id));
        }
        let grant = state.ledger.create(
            id,
            config.floor_bytes,
            config.effective_ceiling(),
            config.initial_grant_bytes,
        )?;
        let service_config = ServiceConfig {
            tenant_id: Some(id),
            initial_lock_bytes: config
                .service
                .initial_lock_bytes
                .min(grant)
                .max(config.service.params.block_bytes),
            ..config.service
        };
        let service =
            match LockService::start_with_faults(service_config, self.inner.faults.clone()) {
                Ok(s) => Arc::new(s),
                Err(e) => {
                    state.ledger.drop_tenant(id).expect("line was just created");
                    return Err(TenantsError::Service(e));
                }
            };
        service.set_lock_memory_ceiling(Some(grant));
        state.tenants.insert(
            id,
            TenantEntry {
                service: Arc::clone(&service),
                last: TenantSignals::default(),
                benefit: 0.0,
            },
        );
        Ok(service)
    }

    /// Drop tenant `id`: close its budget line (every byte — floor,
    /// initial grant and anything donated in — returns to the free
    /// pool) and release the directory's handle on its service. The
    /// service itself winds down when the last outside handle (a
    /// server connection, a test) drops. Returns the reclaimed bytes.
    pub fn drop_tenant(&self, id: u32) -> Result<u64, TenantsError> {
        let mut state = self.inner.state.lock();
        if state.tenants.remove(&id).is_none() {
            return Err(TenantsError::UnknownTenant(id));
        }
        let reclaimed = state.ledger.drop_tenant(id).expect("entry existed");
        Ok(reclaimed)
    }

    /// The named tenant's service, if hosted.
    pub fn tenant(&self, id: u32) -> Option<Arc<LockService>> {
        self.inner
            .state
            .lock()
            .tenants
            .get(&id)
            .map(|e| Arc::clone(&e.service))
    }

    /// The named tenant's budget line, if hosted.
    pub fn budget(&self, id: u32) -> Option<TenantBudget> {
        self.inner.state.lock().ledger.get(id)
    }

    /// Hosted tenant ids, ascending.
    pub fn tenant_ids(&self) -> Vec<u32> {
        self.inner.state.lock().tenants.keys().copied().collect()
    }

    /// Number of hosted tenants.
    pub fn len(&self) -> usize {
        self.inner.state.lock().tenants.len()
    }

    /// True when no tenants are hosted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Budget not granted to any tenant.
    pub fn free_budget(&self) -> u64 {
        self.inner.state.lock().ledger.free()
    }

    /// Run one arbitration pass synchronously (tests and drivers that
    /// cannot wait for the timer).
    pub fn arbitrate_now(&self) -> ArbitrationOutcome {
        self.inner.arbitrate()
    }

    /// Arbitration passes run since start.
    pub fn arbitrations(&self) -> u64 {
        self.inner.arbitrations.load(Ordering::Relaxed)
    }

    /// Donations with sequence ≥ `since` (clamped to the retained
    /// window), oldest first, plus the cursor for the next call —
    /// non-destructive, any number of followers.
    pub fn donations_since(&self, since: u64) -> (u64, Vec<TenantDonation>) {
        self.inner.state.lock().donations.since(since)
    }

    /// Machine-wide tuning totals: every tenant's monotonic
    /// [`TuningCounters`] summed. Cheap (atomic loads per tenant) and
    /// cursor-free — this is the aggregation hook that keeps the
    /// arbiter and `--scrape` off the per-tenant report rings.
    pub fn merged_tuning_counters(&self) -> TuningCounters {
        let state = self.inner.state.lock();
        let mut total = TuningCounters::default();
        for entry in state.tenants.values() {
            total.merge(entry.service.tuning_counters());
        }
        total
    }

    /// Machine-wide lock statistics: every tenant's shard-merged
    /// [`LockStats`] summed.
    pub fn merged_stats(&self) -> LockStats {
        let state = self.inner.state.lock();
        let mut total = LockStats::default();
        for entry in state.tenants.values() {
            total.merge(&entry.service.stats());
        }
        total
    }

    /// Machine-wide observability counters: every tenant's
    /// [`ObsCounters`] summed.
    pub fn merged_obs_counters(&self) -> ObsCounters {
        let state = self.inner.state.lock();
        let mut total = ObsCounters::default();
        for entry in state.tenants.values() {
            total.merge(&entry.service.obs_counters());
        }
        total
    }

    /// The machine-wide snapshot the wire's `TenantStats` reply (and
    /// `locktune-top`'s tenants view) is built from.
    pub fn rollup(&self) -> MachineRollup {
        let state = self.inner.state.lock();
        let tenants = state
            .tenants
            .iter()
            .map(|(&id, entry)| {
                let line = state.ledger.get(id).expect("ledger and tenants in step");
                let pool = entry.service.pool_stats();
                let stats = entry.service.stats();
                TenantRow {
                    id,
                    budget: line.budget,
                    floor: line.floor,
                    pool_bytes: pool.bytes,
                    pool_slots_used: pool.slots_used,
                    free_fraction: pool.free_fraction(),
                    benefit: entry.benefit,
                    connected_apps: entry.service.connected_apps(),
                    escalations: stats.escalations,
                    denials: stats.denials,
                    shedding: entry.service.is_shedding(),
                }
            })
            .collect();
        MachineRollup {
            machine_budget: state.ledger.machine_budget(),
            free_budget: state.ledger.free(),
            arbitrations: self.inner.arbitrations.load(Ordering::Relaxed),
            donations: self.inner.donations_total.load(Ordering::Relaxed),
            donated_bytes: self.inner.donated_bytes_total.load(Ordering::Relaxed),
            tenants,
        }
    }

    /// Machine-wide accounting audit: the ledger partition must be
    /// exact, every tenant's own cross-shard accounting must validate,
    /// and no pool may sit above its tenant's budget by more than the
    /// shrink the next tuning interval still owes. Call at quiescence.
    ///
    /// # Panics
    /// Panics on divergence.
    pub fn validate(&self) {
        let state = self.inner.state.lock();
        state.ledger.audit();
        assert_eq!(
            state.tenants.len(),
            state.ledger.len(),
            "every budget line has a live service and vice versa"
        );
        for (&id, entry) in &state.tenants {
            entry.service.validate();
            let line = state.ledger.get(id).expect("checked above");
            let pool = entry.service.pool_stats().bytes;
            assert!(
                pool <= line.budget || entry.service.pool_used_slots() > 0,
                "tenant {id}: idle pool ({pool} B) above budget ({} B)",
                line.budget
            );
        }
    }

    /// Stop the arbiter and return once it has joined. Tenant
    /// services wind down as their handles drop.
    pub fn shutdown(mut self) {
        self.stop_arbiter();
    }

    fn stop_arbiter(&mut self) {
        self.inner.stop.stop();
        if let Some(t) = self.arbiter_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for TenantDirectory {
    fn drop(&mut self) {
        self.stop_arbiter();
    }
}
