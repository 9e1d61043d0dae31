//! The sharded lock service.
//!
//! N independent [`LockManager`] shards, selected by **table** hash
//! (a row and its covering table intent lock must land on the same
//! shard so multi-granularity checks and escalation stay shard-local),
//! all drawing lock structures from one [`SharedLockMemoryPool`]. One
//! background thread runs the two database-wide jobs the shards cannot
//! do alone, each when its deadline comes due:
//!
//! * the **tuning interval**, every `tuning_interval`, aggregates
//!   shard statistics, runs the paper's STMM tuner over the shared
//!   pool and applies the grow/shrink decision;
//! * the **deadlock sweep**, every `deadlock_interval`, unions the
//!   per-shard wait-for edges (application ids are global, so a
//!   cross-shard cycle appears once the edges are combined), picks
//!   victims and aborts them.
//!
//! A job that panics is caught where it runs; the loop counts the
//! recovery and carries on with the next deadline.
//!
//! Every session has an [`EventSink`]; grants discovered while any
//! thread releases locks, and deadlock aborts, are pushed to the
//! waiter's sink as [`SessionEvent`]s. A blocking session parks on its
//! own sink, with a timeout for `LOCKTIMEOUT`; an evented I/O shard
//! shares one sink among its sessions. Batches run on the one batch
//! engine, [`crate::step::BatchMachine`], whichever way they wait.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use locktune_core::TunerParams;
use locktune_faults::{FaultInjector, FaultSite, SITE_COUNT};
use locktune_lockmgr::{
    partition, AppId, DeadlockDetector, GrantNotice, LockError, LockManager, LockMode, LockOutcome,
    LockStats, ResourceId, UnlockReport,
};
use locktune_memalloc::{LockMemoryPool, PoolBackend, PoolConfig, PoolStats, SharedLockMemoryPool};
use locktune_memory::{DatabaseMemory, HeapKind, IntervalReport, PerfHeap, Stmm};
use locktune_obs::{
    MetricsSnapshot, Obs, ObsCounters, ThreadRole, TuningTick, LATCH_SAMPLE_PERIOD,
};

use crate::config::{ConfigError, ServiceConfig};
use crate::latch::Latch;
use crate::mailbox::Mailbox;
use crate::ring::RingLog;
use crate::spin::SpinPark;
use crate::step::{BatchMachine, WaitState};
use crate::stop::StopSignal;
use crate::tuning::{ServiceHooks, TuningShared};

/// Whether the hot-path recording call sites are live. A `const` so
/// the obs-off build dead-code-eliminates them entirely — the A/B
/// bench in `locktune-bench` holds this gate to its <2 % budget.
pub(crate) const OBS_ENABLED: bool = cfg!(feature = "obs");

/// `spin_loop`s (≈ 0.6 µs) a releaser pauses for after handing locks to
/// waiters. Without it a committer's next transaction runs in lockstep
/// with the waiter it just granted and collides with it again: on
/// `inproc_contended` waits per transaction double and p50 goes ×1.7
/// (DESIGN §8.2).
const HANDOFF_PAUSE: u32 = 32;

/// Fraction of `databaseMemory` configured into performance heaps at
/// start (the rest, minus lock memory, is overflow).
const HEAP_FRACTION: f64 = 0.70;

/// One shard: a lock manager behind its [`Latch`] (spin, yield, then
/// block: holds are sub-microsecond), on cache lines of its own. Shards
/// sit side by side in a `Vec`; unpadded, the last fields of one share
/// a line with the latch word and table counters of the next, so two
/// sessions working on *different* shards invalidate each other's line
/// on every lock. 128 rather than 64: the adjacent-line prefetcher
/// pulls lines in pairs.
#[repr(align(128))]
pub(crate) struct Shard(Latch<LockManager<SharedLockMemoryPool>>);

impl std::ops::Deref for Shard {
    type Target = Latch<LockManager<SharedLockMemoryPool>>;

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

/// Errors surfaced to service clients.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The lock manager rejected the request.
    Lock(LockError),
    /// The wait exceeded `lock_wait_timeout` (`LOCKTIMEOUT`).
    Timeout,
    /// This application was chosen as a deadlock victim; all its locks
    /// are gone and the transaction must restart.
    DeadlockVictim,
    /// The service is shutting down.
    ShuttingDown,
    /// [`LockService::try_connect`] was asked for an [`AppId`] that
    /// already has a live session.
    AlreadyConnected(AppId),
    /// Shed mode is engaged: sustained lock-memory exhaustion crossed
    /// [`ServiceConfig::shed_oom_threshold`] and the service is
    /// rejecting new lock requests until pressure clears. Retryable —
    /// back off and resubmit; locks already held are unaffected.
    ///
    /// `tenant` names the logical database that is shedding
    /// ([`ServiceConfig::tenant_id`]): under a multi-tenant directory
    /// each tenant sheds independently, and a client driving several
    /// databases over one connection pool must back off only the one
    /// that rejected it. `None` means a standalone (single-tenant)
    /// service.
    Overloaded {
        /// The shedding tenant, if the service is tenant-scoped.
        tenant: Option<u32>,
    },
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Lock(e) => write!(f, "lock error: {e}"),
            ServiceError::Timeout => f.write_str("lock wait timed out"),
            ServiceError::DeadlockVictim => f.write_str("aborted as deadlock victim"),
            ServiceError::ShuttingDown => f.write_str("service shutting down"),
            ServiceError::AlreadyConnected(app) => {
                write!(f, "{app} is already connected")
            }
            ServiceError::Overloaded { tenant: None } => {
                f.write_str("service shedding load, retry later")
            }
            ServiceError::Overloaded {
                tenant: Some(tenant),
            } => {
                write!(f, "tenant {tenant} shedding load, retry later")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<LockError> for ServiceError {
    fn from(e: LockError) -> Self {
        ServiceError::Lock(e)
    }
}

/// Per-request slot in a [`Session::lock_many`] result.
///
/// A batch stops at the first **session-fatal** error (timeout,
/// deadlock abort, shutdown): requests the stop prevented from running
/// are reported [`BatchOutcome::Skipped`], so the caller knows exactly
/// which locks it holds (every `Done(Ok(..))` entry) when it aborts.
/// Request-scoped lock errors (missing intent, out of lock memory, …)
/// do **not** stop the batch — the remaining requests still execute,
/// matching what a client pipelining N individual `lock()` calls
/// observes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchOutcome {
    /// The request executed; this is exactly what the equivalent
    /// [`Session::lock`] call would have returned.
    Done(Result<LockOutcome, ServiceError>),
    /// The request never ran because an earlier request in the batch
    /// hit a session-fatal error.
    Skipped,
}

impl BatchOutcome {
    /// The executed result, if the request ran.
    pub fn done(&self) -> Option<&Result<LockOutcome, ServiceError>> {
        match self {
            BatchOutcome::Done(r) => Some(r),
            BatchOutcome::Skipped => None,
        }
    }

    /// True when the request ran and was granted (in any form).
    pub fn is_granted(&self) -> bool {
        matches!(self, BatchOutcome::Done(Ok(_)))
    }
}

/// How a queued lock wait resolved, as delivered to the session's
/// [`EventSink`]. A blocking session parks on its own sink until one
/// arrives; the evented network core resumes a parked
/// [`crate::step::BatchMachine`] with it instead of unparking a thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionEvent {
    /// The queued request was granted.
    Granted,
    /// The application was aborted as a deadlock victim; all its locks
    /// are gone.
    Aborted,
}

/// Where a session's wait events go, tagged with their [`AppId`]. Every
/// session has one: a blocking session's private sink, which it pops
/// and parks on itself (see [`LockService::try_connect`]), or a sink
/// shared by every session an I/O shard owns, built with
/// [`Mailbox::with_wake`] to ring the shard's eventfd (see
/// [`LockService::try_connect_with_sink`]). A push is refused only once
/// the consumer has closed the sink, when its sessions are being torn
/// down, so delivery ignores the result.
pub type EventSink = Arc<Mailbox<(AppId, SessionEvent)>>;

/// Monotonic totals of the tuning thread's work. The decision *log*
/// is a keep-last-N ring (see [`ServiceConfig::tuning_log_capacity`]),
/// so anything that must survive eviction — interval and decision
/// counts a remote stats endpoint reports — lives here instead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TuningCounters {
    /// Tuning intervals run since the service started.
    pub intervals: u64,
    /// Intervals whose decision grew the pool.
    pub grow_decisions: u64,
    /// Intervals whose decision shrank the pool.
    pub shrink_decisions: u64,
}

impl TuningCounters {
    /// Fold `other` into `self`. The aggregation hook for anything
    /// hosting several services (the multi-tenant directory, a
    /// machine-wide `--scrape`): totals are monotonic snapshots, so
    /// summing per-service snapshots is exact and — unlike draining
    /// each service's report *ring* — never advances anyone's cursor.
    pub fn merge(&mut self, other: TuningCounters) {
        self.intervals += other.intervals;
        self.grow_decisions += other.grow_decisions;
        self.shrink_decisions += other.shrink_decisions;
    }
}

/// Liveness of the background thread, plus how many panics each of
/// its two jobs has recovered from. [`LockService::shutdown`] returns
/// the final value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadHealth {
    /// The background thread is running. In the value
    /// [`LockService::shutdown`] returns: it was still running when
    /// the stop came, and exited on it.
    pub alive: bool,
    /// Tuning intervals that panicked and were recovered from.
    pub tuner_restarts: u64,
    /// Deadlock sweeps that panicked and were recovered from.
    pub sweeper_restarts: u64,
}

pub(crate) struct ServiceInner {
    pub(crate) config: ServiceConfig,
    pub(crate) shards: Vec<Shard>,
    pool: SharedLockMemoryPool,
    tuning: TuningShared,
    registry: Latch<HashMap<AppId, EventSink>>,
    reports: Latch<RingLog<IntervalReport>>,
    /// Instrumentation root. Always present; with the `obs` feature
    /// off the recording call sites compile away and everything in
    /// here scrapes empty/zero.
    pub(crate) obs: Obs,
    tuning_intervals: AtomicU64,
    grow_decisions: AtomicU64,
    shrink_decisions: AtomicU64,
    /// Fault-injection plan. Disabled (every check constant-false) in
    /// production; [`LockService::start_with_faults`] arms it.
    faults: FaultInjector,
    tuner_restarts: AtomicU64,
    sweeper_restarts: AtomicU64,
    /// Upper bound on the lock pool's size in bytes, `0` = unlimited.
    /// A multi-tenant arbiter writes each tenant's budget here; the
    /// tuning interval clamps every resize target against it and
    /// shrinks the pool back under a lowered ceiling, and sync growth
    /// never grants past it. Plain store/load — enforcement rides the
    /// existing tuning-mutex paths.
    lock_memory_ceiling: AtomicU64,
    /// Shed mode engaged: reject new lock requests until a tuning
    /// interval passes without an `OutOfLockMemory` denial.
    shed: AtomicBool,
    /// `OutOfLockMemory` denials surfaced to sessions in the current
    /// tuning-interval window (swapped to zero each interval).
    shed_ooms: AtomicU64,
    /// Per-site injected-fault totals already journaled; the tuning
    /// interval journals the delta (same mirror pattern as the
    /// allocator's reclaim counters).
    fault_seen: Latch<[u64; SITE_COUNT]>,
    /// Paces the background loop; raised once, at shutdown.
    stop: StopSignal,
}

impl ServiceInner {
    /// The shard owning `res`: rows hash by their table, so a row and
    /// its table always co-locate.
    pub(crate) fn shard_index(&self, res: ResourceId) -> usize {
        // The shared partition hash: the cluster router uses the same
        // function to pick a node, so client-side routing and
        // server-side sharding can never disagree about a table.
        partition::resource_slot(res, self.shards.len())
    }

    /// Tuning hooks for service-internal paths (no session counter).
    fn hooks(&self) -> ServiceHooks<'_> {
        ServiceHooks {
            shared: &self.tuning,
            obs: &self.obs,
            requests: None,
            lock_ceiling: self.lock_memory_ceiling.load(Ordering::Relaxed),
            block_bytes: self.config.params.block_bytes,
        }
    }

    /// Forward grant notifications to the waiters' sinks, leaving
    /// `notices` empty with its capacity, then pause for
    /// [`HANDOFF_PAUSE`]. Call with no shard latch held.
    pub(crate) fn deliver(&self, notices: &mut Vec<GrantNotice>) {
        if notices.is_empty() {
            return;
        }
        let registry = self.registry.lock();
        for n in notices.drain(..) {
            if let Some(sink) = registry.get(&n.app) {
                let _ = sink.push((n.app, SessionEvent::Granted));
            }
        }
        drop(registry);
        for _ in 0..HANDOFF_PAUSE {
            std::hint::spin_loop();
        }
    }

    /// What one lock-manager call means to the session: `None` if the
    /// request queued (the caller waits), else its result. The one
    /// place a surfaced `OutOfLockMemory` feeds shed mode.
    #[inline]
    pub(crate) fn settle(
        &self,
        result: Result<LockOutcome, LockError>,
    ) -> Option<Result<LockOutcome, ServiceError>> {
        match result {
            Ok(LockOutcome::Queued | LockOutcome::QueuedWithEscalation { .. }) => None,
            Ok(o) => Some(Ok(o)),
            Err(e) => {
                if e == LockError::OutOfLockMemory {
                    self.note_oom_denial();
                }
                Some(Err(ServiceError::Lock(e)))
            }
        }
    }

    /// One deadlock sweep: union all shard wait-for edges, abort
    /// victims on every shard.
    ///
    /// Shards are inspected one at a time (never two latches at once),
    /// so an edge may be stale by the time victims are chosen — a
    /// release can race the sweep and grant a chosen victim's wait.
    /// Each victim is therefore confirmed by cancelling its wait
    /// first: only a victim still queued somewhere is aborted. If no
    /// shard had a wait to cancel, the grant won the race and the
    /// "victim" is a running transaction whose locks must stay put —
    /// aborting it then would release locks out from under a live
    /// critical section. A genuine deadlock can never be missed this
    /// way: deadlocked applications are parked and their waits stay
    /// cancellable until a sweep resolves the cycle.
    fn sweep_deadlocks(&self) {
        let mut edges = Vec::new();
        for shard in &self.shards {
            edges.extend(shard.lock().wait_edges());
        }
        if edges.is_empty() {
            return;
        }
        let victims = DeadlockDetector::new().find_victims(&edges);
        for v in victims {
            self.abort_confirmed_waiter(v.app, false);
        }
    }

    /// Confirm `app` is still parked in some wait queue, and if so
    /// abort it: cancel its wait everywhere, release all its locks and
    /// wake it with `Aborted`. Returns whether the abort happened.
    ///
    /// This is the single victim-abort path — the local sweeper and
    /// the cluster detector's remote `cancel_wait` both land here, so
    /// the grant-race confirmation and the release ordering cannot
    /// diverge between them. `remote` only selects which journal
    /// event records the abort.
    fn abort_confirmed_waiter(&self, app: AppId, remote: bool) -> bool {
        let mut still_waiting = false;
        let mut notices = Vec::new();
        for shard in &self.shards {
            let cancelled = {
                let mut m = shard.lock();
                let cancelled = m.cancel_wait(app);
                m.drain_notifications_into(&mut notices);
                cancelled
            };
            self.deliver(&mut notices);
            still_waiting |= cancelled;
        }
        if !still_waiting {
            // Granted (or timed out / disconnected) between the
            // edge capture and now: not a victim.
            return false;
        }
        if OBS_ENABLED {
            // Confirmed: exactly one counter tick and one journal
            // event per aborted application (the per-shard
            // `deadlock_aborts` stat below counts shards visited).
            if remote {
                self.obs.record_remote_cancel(app);
            } else {
                self.obs.record_victim(app);
            }
        }
        // The victim is out of every wait queue and waiting on its
        // sink; nothing can grant it until the Aborted message
        // below wakes it, so releasing its locks is safe.
        for shard in &self.shards {
            let mut hooks = self.hooks();
            let mut m = shard.lock();
            m.abort(app, &mut hooks);
            m.drain_notifications_into(&mut notices);
        }
        self.deliver(&mut notices);
        if let Some(sink) = self.registry.lock().get(&app) {
            let _ = sink.push((app, SessionEvent::Aborted));
        }
        true
    }

    /// Panic the running job if the fault plan says so. Sits at the
    /// top of the job, so no latch is held when the panic unwinds.
    fn maybe_inject_panic(&self, site: FaultSite) {
        if self.faults.should(site) {
            panic!("injected {site} fault");
        }
    }

    /// Whether lock requests should be rejected right now. The
    /// threshold check keeps the disabled (default) configuration to
    /// one branch on an immediate — no atomic load.
    #[inline]
    pub(crate) fn shed_active(&self) -> bool {
        self.config.shed_oom_threshold != 0 && self.shed.load(Ordering::Relaxed)
    }

    /// Record an `OutOfLockMemory` denial that surfaced to a session;
    /// engage shed mode once the window crosses the threshold.
    pub(crate) fn note_oom_denial(&self) {
        let threshold = self.config.shed_oom_threshold;
        if threshold == 0 {
            return;
        }
        let ooms = self.shed_ooms.fetch_add(1, Ordering::Relaxed) + 1;
        // swap, not store: only the engaging thread journals the event.
        if ooms >= u64::from(threshold) && !self.shed.swap(true, Ordering::Relaxed) && OBS_ENABLED {
            self.obs.record_shed_engaged(ooms);
        }
    }

    /// One STMM tuning interval over the shared pool.
    fn run_tuning_interval(&self) -> IntervalReport {
        let escalations = self.tuning.escalations.swap(0, Ordering::Relaxed);
        let num_apps = self.tuning.num_applications.load(Ordering::Relaxed);
        // Drain the shards' slot caches (one latch at a time) so the
        // tuner sees real demand, not demand plus parked free slots,
        // and so shrink can reclaim blocks the caches were pinning.
        for shard in &self.shards {
            shard.lock().flush_pool_cache();
        }
        let pool_stats = self.pool.stats();
        let block = self.config.params.block_bytes;
        let ceiling = self.lock_memory_ceiling.load(Ordering::Relaxed);
        let mut state = self.tuning.state.lock();
        let crate::tuning::TuningState { stmm, mem } = &mut *state;
        let pool = &self.pool;
        let report = stmm.run_interval(mem, &pool_stats, num_apps, escalations, |target_bytes| {
            // Budget ceiling: the tuner proposes, the arbiter's grant
            // caps. Clamping the *applied* size (not the decision) is
            // safe — `set_lock_memory` reconciles the memory set to
            // whatever the pool actually became, so bytes funded for a
            // clamped grow flow back to overflow, not into a leak.
            let target = if ceiling != 0 {
                target_bytes.min(ceiling)
            } else {
                target_bytes
            };
            pool.with(|p| {
                p.resize_to_blocks(target / block);
                p.total_bytes()
            })
        });
        // A lowered ceiling must bite even on a "no change" interval
        // (the tuner then never calls the resize closure): shrink the
        // pool back under the budget and account the release like any
        // other shrink. Partial when used blocks pin the tail; the
        // next interval retries what remains.
        if ceiling != 0 && pool.total_bytes() > ceiling {
            let before = pool.total_bytes();
            let actual = pool.with(|p| {
                p.resize_to_blocks(ceiling / block);
                p.total_bytes()
            });
            if actual < before {
                state.mem.note_lock_shrink(before - actual);
            }
        }
        drop(state);
        self.tuning.publish_app_percent(report.decision.app_percent);
        self.tuning_intervals.fetch_add(1, Ordering::Relaxed);
        if report.decision.grow_bytes() > 0 {
            self.grow_decisions.fetch_add(1, Ordering::Relaxed);
        } else if report.decision.shrink_bytes() > 0 {
            self.shrink_decisions.fetch_add(1, Ordering::Relaxed);
        }
        if OBS_ENABLED {
            if report.lock_bytes_after != report.decision.current_bytes {
                self.obs
                    .record_tuner_resize(report.decision.current_bytes, report.lock_bytes_after);
            }
            // Interval cadence is the natural place to mirror the fault
            // injector's per-site totals and journal the delta (all
            // zero, and the loop free, when disabled).
            let counts = self.faults.injected_counts();
            let mut seen = self.fault_seen.lock();
            for (site, (&now, last)) in counts.iter().zip(seen.iter_mut()).enumerate() {
                if now > *last {
                    self.obs.note_faults_injected(site as u8, now - *last);
                    *last = now;
                }
            }
        }
        // Shed-mode release: an interval with zero surfaced denials
        // and free memory back in the pool means the resize (or the
        // drained workload) relieved the pressure. Engagement happens
        // inline in `note_oom_denial`; only release rides the
        // interval, so the mode can flap at most once per interval.
        if self.config.shed_oom_threshold != 0 {
            let window = self.shed_ooms.swap(0, Ordering::Relaxed);
            if window == 0
                && self.pool.free_fraction() > 0.0
                && self.shed.swap(false, Ordering::Relaxed)
                && OBS_ENABLED
            {
                self.obs.record_shed_released();
            }
        }
        self.reports.lock().push(report);
        report
    }

    /// Run one background job. A panic is caught here: no latch
    /// outlives it ([`Latch`] ignores poison) and no lock-table state
    /// is touched outside the shard latches, so the next run picks up
    /// where this one stopped. The recovery is counted and journaled.
    fn run_job(&self, role: ThreadRole) {
        let job = || match role {
            ThreadRole::Tuner => {
                self.maybe_inject_panic(FaultSite::TunerPanic);
                self.run_tuning_interval();
            }
            ThreadRole::Sweeper => {
                self.maybe_inject_panic(FaultSite::SweeperPanic);
                self.sweep_deadlocks();
            }
        };
        if catch_unwind(AssertUnwindSafe(job)).is_err() {
            let restarts = match role {
                ThreadRole::Tuner => &self.tuner_restarts,
                ThreadRole::Sweeper => &self.sweeper_restarts,
            };
            restarts.fetch_add(1, Ordering::Relaxed);
            if OBS_ENABLED {
                self.obs.record_watchdog_restart(role);
            }
        }
    }

    /// The background loop: sleep until the earlier of the two jobs'
    /// deadlines, run that job, and set its next deadline one interval
    /// after it finished. Returns once the stop signal is raised.
    fn background_loop(&self) {
        let now = Instant::now();
        let mut next_tune = now + self.config.tuning_interval;
        let mut next_sweep = now + self.config.deadlock_interval;
        loop {
            let (role, due) = if next_tune <= next_sweep {
                (ThreadRole::Tuner, next_tune)
            } else {
                (ThreadRole::Sweeper, next_sweep)
            };
            if self.stop.sleep_until(due) {
                return;
            }
            self.run_job(role);
            let next = Instant::now();
            match role {
                ThreadRole::Tuner => next_tune = next + self.config.tuning_interval,
                ThreadRole::Sweeper => next_sweep = next + self.config.deadlock_interval,
            }
        }
    }
}

/// The concurrent lock service. See the module docs for the design.
pub struct LockService {
    inner: Arc<ServiceInner>,
    /// The background loop; taken when it is joined.
    thread: Option<std::thread::JoinHandle<()>>,
}

impl LockService {
    /// Validate `config`, build the shards and start the background
    /// thread.
    pub fn start(config: ServiceConfig) -> Result<LockService, ConfigError> {
        Self::start_with_faults(config, FaultInjector::disabled())
    }

    /// [`LockService::start`] with an armed fault injector: the pool's
    /// allocator consults it before every slot allocation and the
    /// background jobs consult it each time they start. Pass the same injector (it is a cheap `Arc` clone)
    /// to the network server to correlate wire faults with service
    /// faults under one seed. With the `faults` feature off the
    /// injector is inert and this is identical to `start`.
    pub fn start_with_faults(
        config: ServiceConfig,
        faults: FaultInjector,
    ) -> Result<LockService, ConfigError> {
        config.validate()?;
        let pool_config =
            PoolConfig::new(config.params.block_bytes, config.params.lock_struct_bytes);
        let initial = config.initial_lock_bytes.max(config.params.block_bytes);
        let pool = SharedLockMemoryPool::with_fault_injector(
            LockMemoryPool::with_bytes(pool_config, initial),
            faults.clone(),
        );

        let shards = (0..config.shards)
            .map(|_| Shard(Latch::new(LockManager::new(pool.clone(), config.manager))))
            .collect();

        let mem = Self::build_memory(&config, pool.total_bytes());
        let stmm = Stmm::new(config.params, pool.total_bytes());

        let inner = Arc::new(ServiceInner {
            tuning: TuningShared::new(stmm, mem),
            reports: Latch::new(RingLog::new(config.tuning_log_capacity)),
            obs: Obs::new(config.shards),
            config,
            shards,
            pool,
            registry: Latch::new(HashMap::new()),
            tuning_intervals: AtomicU64::new(0),
            grow_decisions: AtomicU64::new(0),
            shrink_decisions: AtomicU64::new(0),
            faults,
            tuner_restarts: AtomicU64::new(0),
            sweeper_restarts: AtomicU64::new(0),
            lock_memory_ceiling: AtomicU64::new(0),
            shed: AtomicBool::new(false),
            shed_ooms: AtomicU64::new(0),
            fault_seen: Latch::new([0; SITE_COUNT]),
            stop: StopSignal::new(),
        });

        let looped = Arc::clone(&inner);
        let thread = std::thread::Builder::new()
            .name("locktune-background".into())
            .spawn(move || looped.background_loop())
            .map_err(|e| ConfigError::Spawn {
                thread: "background",
                message: e.to_string(),
            })?;
        Ok(LockService {
            inner,
            thread: Some(thread),
        })
    }

    /// The database memory set surrounding the pool: configured heaps
    /// at [`HEAP_FRACTION`] of `databaseMemory`, lock memory as given,
    /// the rest overflow.
    fn build_memory(config: &ServiceConfig, initial_lock_bytes: u64) -> DatabaseMemory {
        let total = config.memory.total_bytes;
        let heap_total = (total as f64 * HEAP_FRACTION) as u64;
        // Same split the simulation engine uses: the bufferpool
        // dominates, sort and package cache share the rest.
        let bp = heap_total / 2;
        let sort = heap_total / 4;
        let pkg = heap_total - bp - sort;
        let heaps = vec![
            PerfHeap::new(HeapKind::BufferPool, bp, bp / 4, bp),
            PerfHeap::new(HeapKind::SortHeap, sort, sort / 4, sort / 2),
            PerfHeap::new(HeapKind::PackageCache, pkg, pkg / 4, pkg / 2),
        ];
        DatabaseMemory::new(config.memory, heaps, initial_lock_bytes)
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.inner.config
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.inner.shards.len()
    }

    /// Register an application and return its session handle, or
    /// [`ServiceError::AlreadyConnected`] if `app` already has a live
    /// session. A silent replacement would cross-wire the two
    /// sessions' sinks (and either drop would release the
    /// other's locks), and panicking is not acceptable when the id
    /// arrives from an untrusted remote peer — the network server
    /// resolves duplicates by allocating fresh ids instead.
    pub fn try_connect(&self, app: AppId) -> Result<Session, ServiceError> {
        self.register(app, Arc::new(Mailbox::new()))
    }

    /// Register an application whose wait events go to a shared
    /// [`EventSink`] instead of a private one. The returned session
    /// must never call a blocking wait path — drive queued requests
    /// through a [`crate::step::BatchMachine`], which returns
    /// [`crate::step::Step::Waiting`] and is resumed by the
    /// [`SessionEvent`]s the sink delivers. Everything else
    /// (`unlock`, `unlock_all`, drop-teardown, stats accounting) is
    /// identical to [`LockService::try_connect`].
    pub fn try_connect_with_sink(
        &self,
        app: AppId,
        sink: &EventSink,
    ) -> Result<Session, ServiceError> {
        self.register(app, sink.clone())
    }

    fn register(&self, app: AppId, sink: EventSink) -> Result<Session, ServiceError> {
        {
            let mut registry = self.inner.registry.lock();
            if registry.contains_key(&app) {
                return Err(ServiceError::AlreadyConnected(app));
            }
            registry.insert(app, sink.clone());
        }
        self.inner
            .tuning
            .num_applications
            .fetch_add(1, Ordering::Relaxed);
        Ok(Session {
            inner: Arc::clone(&self.inner),
            app,
            sink,
            ever_waited: std::cell::Cell::new(false),
            spin: std::cell::Cell::new(SpinPark::new()),
            requests: std::cell::Cell::new(1),
            touched_shards: std::cell::Cell::new(0),
            obs_ticks: std::cell::Cell::new(0),
            notices: std::cell::RefCell::new(Vec::new()),
            machine: std::cell::RefCell::new(None),
        })
    }

    /// Register an application and return its session handle.
    ///
    /// # Panics
    /// Panics if `app` already has a live session; in-process callers
    /// own their id space, so a duplicate is a caller bug. Callers
    /// handling external ids use [`LockService::try_connect`].
    pub fn connect(&self, app: AppId) -> Session {
        match self.try_connect(app) {
            Ok(session) => session,
            Err(e) => panic!("application {app:?} is already connected: {e}"),
        }
    }

    /// Aggregate statistics across all shards
    /// ([`LockStats::merge`]-ed).
    pub fn stats(&self) -> LockStats {
        let mut total = LockStats::default();
        for shard in &self.inner.shards {
            total.merge(shard.lock().stats());
        }
        total
    }

    /// Slots charged by every shard (Σ per-shard `charged_slots`).
    pub fn charged_slots(&self) -> u64 {
        self.inner
            .shards
            .iter()
            .map(|s| s.lock().charged_slots())
            .sum()
    }

    /// Applications the shards keep lock state for (Σ per-shard
    /// `known_apps`). Bounded by connected sessions × shards: a
    /// session's drop makes every shard forget it.
    pub fn known_apps(&self) -> usize {
        self.inner
            .shards
            .iter()
            .map(|s| s.lock().known_apps())
            .sum()
    }

    /// Snapshot of the shared pool.
    pub fn pool_stats(&self) -> PoolStats {
        self.inner.pool.stats()
    }

    /// The shared pool's used slot count (atomic mirror; exact at
    /// quiescence).
    pub fn pool_used_slots(&self) -> u64 {
        self.inner.pool.used_slots()
    }

    /// Current externalized `lockPercentPerApplication`.
    pub fn app_percent(&self) -> f64 {
        self.inner.tuning.app_percent()
    }

    /// The retained tail of the tuning decision log (the most recent
    /// [`ServiceConfig::tuning_log_capacity`] intervals, oldest
    /// first). Use [`LockService::tuning_counters`] for totals that
    /// survive log eviction.
    pub fn tuning_reports(&self) -> Vec<IntervalReport> {
        self.inner.reports.lock().snapshot()
    }

    /// Reports with sequence ≥ `since` (clamped to the retained
    /// window), oldest first, plus the cursor to pass next time. A
    /// poller that feeds each call's returned cursor back in copies
    /// each interval exactly once instead of re-cloning the whole ring
    /// every scrape; the first returned report's sequence is
    /// `cursor - reports.len()`.
    pub fn tuning_reports_since(&self, since: u64) -> (u64, Vec<IntervalReport>) {
        self.inner.reports.lock().since(since)
    }

    /// Cap the lock pool at `ceiling` bytes (`None` lifts the cap).
    /// The budget knob a multi-tenant arbiter turns: the next tuning
    /// interval clamps every resize target against it and shrinks an
    /// over-ceiling pool back under it (partial while used blocks pin
    /// the tail), and synchronous growth stops granting at the
    /// ceiling immediately. Raising it never forces anything — the
    /// tuner simply regains headroom.
    pub fn set_lock_memory_ceiling(&self, ceiling: Option<u64>) {
        // 0 is the "unlimited" sentinel; an explicit zero-byte budget
        // stores 1, which the block-floor arithmetic treats as "no
        // room" everywhere it matters.
        let raw = match ceiling {
            Some(bytes) => bytes.max(1),
            None => 0,
        };
        self.inner.lock_memory_ceiling.store(raw, Ordering::Relaxed);
    }

    /// The lock-memory ceiling currently in force, if any.
    pub fn lock_memory_ceiling(&self) -> Option<u64> {
        match self.inner.lock_memory_ceiling.load(Ordering::Relaxed) {
            0 => None,
            bytes => Some(bytes),
        }
    }

    /// Whether shed mode is currently rejecting lock requests. A
    /// relaxed load — exact enough for dashboards and the tenant
    /// directory's per-tenant rows.
    pub fn is_shedding(&self) -> bool {
        self.inner.shed_active()
    }

    /// Monotonic interval/decision totals since start.
    pub fn tuning_counters(&self) -> TuningCounters {
        TuningCounters {
            intervals: self.inner.tuning_intervals.load(Ordering::Relaxed),
            grow_decisions: self.inner.grow_decisions.load(Ordering::Relaxed),
            shrink_decisions: self.inner.shrink_decisions.load(Ordering::Relaxed),
        }
    }

    /// Applications with a live session.
    pub fn connected_apps(&self) -> u64 {
        self.inner.tuning.num_applications.load(Ordering::Relaxed)
    }

    /// The instrumentation layer's own counters (cheap: a handful of
    /// relaxed atomic loads, no shard latches). `watchdog_restarts`
    /// comes from the always-on [`LockService::watchdog_restarts`], so
    /// it is live even in a build without `obs`.
    pub fn obs_counters(&self) -> ObsCounters {
        ObsCounters {
            watchdog_restarts: self.watchdog_restarts(),
            ..self.inner.obs.counters()
        }
    }

    /// Scrape everything at once: counters, gauges, merged histograms,
    /// up to `max_events` journal events and the tuning ticks since
    /// the `reports_since` cursor (feed back
    /// [`MetricsSnapshot::next_tick_seq`]). This is the in-process
    /// twin of the wire's `Metrics` request.
    ///
    /// Journal delivery is **destructive**: each event goes to exactly
    /// one scraper. Run one scrape pipeline (locktune-top, a metrics
    /// agent, …) per service if you need the journal; the histograms
    /// and counters are shared-safe.
    pub fn observe(&self, reports_since: u64, max_events: usize) -> MetricsSnapshot {
        let inner = &self.inner;
        let (next_tick_seq, reports) = self.tuning_reports_since(reports_since);
        let first_seq = next_tick_seq - reports.len() as u64;
        let ticks = reports
            .iter()
            .enumerate()
            .map(|(i, r)| TuningTick::from_report(first_seq + i as u64, r))
            .collect();
        let mut events = Vec::new();
        inner.obs.journal().drain(&mut events, max_events);
        let params = inner.config.params;
        let tuning = self.tuning_counters();
        MetricsSnapshot {
            uptime_ms: inner.obs.now_ms(),
            lock_stats: self.stats(),
            counters: self.obs_counters(),
            pool_bytes: inner.pool.total_bytes(),
            pool_slots_total: inner.pool.total_slots(),
            pool_slots_used: inner.pool.used_slots(),
            connected_apps: self.connected_apps(),
            app_percent: self.app_percent(),
            min_free_fraction: params.min_free_fraction,
            max_free_fraction: params.max_free_fraction,
            free_fraction: inner.pool.free_fraction(),
            tuning_intervals: tuning.intervals,
            grow_decisions: tuning.grow_decisions,
            shrink_decisions: tuning.shrink_decisions,
            reply_queue_hwm: 0,
            fence_epoch: 0,
            lock_wait_micros: inner.obs.lock_wait_micros(),
            latch_hold_nanos: inner.obs.latch_hold_nanos(),
            batch_size: inner.obs.batch_size(),
            sync_stall_micros: inner.obs.sync_stall_micros(),
            events,
            next_event_seq: inner.obs.journal().recorded(),
            ticks,
            next_tick_seq,
            io_shards: Vec::new(),
        }
    }

    /// Run one tuning interval synchronously (tests and drivers that
    /// cannot wait for the timer).
    pub fn run_tuning_interval_now(&self) -> IntervalReport {
        self.inner.run_tuning_interval()
    }

    /// Run one deadlock sweep synchronously.
    pub fn sweep_deadlocks_now(&self) {
        self.inner.sweep_deadlocks()
    }

    /// The current wait-for edges, unioned across shards — the same
    /// snapshot the deadlock sweeper starts from. A cluster deadlock
    /// detector exports these over the wire (`WaitGraph` frame) and
    /// chases cycles that span nodes, which no single node's sweeper
    /// can see. Edges are captured one shard latch at a time, so they
    /// may be stale by the time a caller acts on them; the remote
    /// cancel path re-confirms every victim exactly as the local
    /// sweeper does.
    pub fn wait_edges(&self) -> Vec<(AppId, AppId)> {
        let mut edges = Vec::new();
        for shard in &self.inner.shards {
            edges.extend(shard.lock().wait_edges());
        }
        edges
    }

    /// Abort `app` if (and only if) it is still parked in a wait
    /// queue: the remote twin of the sweeper's victim abort, exposed
    /// for cross-node deadlock resolution via the wire's `CancelWait`
    /// frame. Returns `true` if the wait was cancelled and the
    /// application aborted (it observes [`ServiceError::DeadlockVictim`]
    /// exactly as a local victim would); `false` if the wait had
    /// already resolved — a grant that raced the remote detector wins,
    /// same as it does against the local sweeper, so a running
    /// transaction's locks are never released out from under it.
    pub fn cancel_waiter(&self, app: AppId) -> bool {
        self.inner.abort_confirmed_waiter(app, true)
    }

    /// Cross-shard invariant check: every shard validates and the sum
    /// of per-shard charges equals the shared pool's used count. Call
    /// at quiescence (no in-flight lock operations).
    ///
    /// # Panics
    /// Panics on inconsistency.
    pub fn validate(&self) {
        let mut charged = 0;
        for shard in &self.inner.shards {
            let mut m = shard.lock();
            m.flush_pool_cache();
            m.validate();
            charged += m.charged_slots();
        }
        let used = self.inner.pool.used_slots();
        assert_eq!(
            charged, used,
            "sum of shard charges ({charged}) must equal shared pool usage ({used})"
        );
    }

    /// The tuner parameters in effect.
    pub fn params(&self) -> TunerParams {
        self.inner.config.params
    }

    /// Liveness of the background thread and its jobs' recovery
    /// totals. Cheap — one `is_finished` probe and two loads — so
    /// health endpoints can poll it.
    pub fn thread_health(&self) -> ThreadHealth {
        let alive = self.thread.as_ref().is_some_and(|t| !t.is_finished());
        self.health(alive)
    }

    fn health(&self, alive: bool) -> ThreadHealth {
        ThreadHealth {
            alive,
            tuner_restarts: self.inner.tuner_restarts.load(Ordering::Relaxed),
            sweeper_restarts: self.inner.sweeper_restarts.load(Ordering::Relaxed),
        }
    }

    /// Total background-job recoveries (tuner + sweeper) since start.
    pub fn watchdog_restarts(&self) -> u64 {
        self.inner.tuner_restarts.load(Ordering::Relaxed)
            + self.inner.sweeper_restarts.load(Ordering::Relaxed)
    }

    /// Record a slow-client eviction in the journal and counters. The
    /// service never evicts anyone itself — the TCP front-end calls
    /// this when it abandons a connection whose reply queue stayed
    /// full past its deadline, so the event lands in the same journal
    /// as the rest of the degraded-mode record. No-op without `obs`.
    pub fn note_client_evicted(&self, app: AppId) {
        if OBS_ENABLED {
            self.inner.obs.record_client_evicted(app);
        }
    }

    /// Record an answered cluster-supervisor health probe. Called by
    /// the TCP front-end on every `Probe` frame, like
    /// [`LockService::note_client_evicted`]. No-op without `obs`.
    pub fn note_failover_probe(&self) {
        if OBS_ENABLED {
            self.inner.obs.record_failover_probe();
        }
    }

    /// Record a fence-epoch advance to `epoch` (counter + journal
    /// event). Called by the TCP front-end when a probe raises its
    /// fence. No-op without `obs`.
    pub fn note_epoch_bump(&self, epoch: u64) {
        if OBS_ENABLED {
            self.inner.obs.record_epoch_bump(epoch);
        }
    }

    /// Record a lock request fenced with `WrongEpoch`; `epoch` is the
    /// stale epoch the request carried. No-op without `obs`.
    pub fn note_request_fenced(&self, epoch: u64) {
        if OBS_ENABLED {
            self.inner.obs.record_request_fenced(epoch);
        }
    }

    /// Record a batch served while this node held slots reassigned
    /// from a dead peer. No-op without `obs`.
    pub fn note_degraded_batch(&self) {
        if OBS_ENABLED {
            self.inner.obs.record_degraded_batch();
        }
    }

    /// Stop the background thread and return once it has joined,
    /// with the final [`ThreadHealth`].
    pub fn shutdown(mut self) -> ThreadHealth {
        self.stop_thread()
    }

    fn stop_thread(&mut self) -> ThreadHealth {
        self.inner.stop.stop();
        let alive = self.thread.take().is_some_and(|t| t.join().is_ok());
        self.health(alive)
    }
}

impl Drop for LockService {
    fn drop(&mut self) {
        let _ = self.stop_thread();
    }
}

/// One application's handle to the service. A lock request that queues
/// parks the calling thread on this session's own sink until it is
/// granted, times out, or is aborted; a batch does the same between
/// the steps of the session's [`BatchMachine`].
pub struct Session {
    pub(crate) inner: Arc<ServiceInner>,
    app: AppId,
    /// This session's own sink, which it pops and parks on, or one an
    /// I/O shard shares and pops (such a session never waits here).
    sink: EventSink,
    /// Whether this session has ever parked on its sink. A session
    /// that never waited can never appear in a wait-for edge, so it can
    /// never be a deadlock victim and the stale-message drain on the
    /// lock fast path can be skipped.
    ever_waited: std::cell::Cell<bool>,
    /// Lock-structure requests issued by this session; drives the
    /// `refreshPeriodForAppPercent` cadence without a shared atomic.
    requests: std::cell::Cell<u64>,
    /// Bitmask of shards this session has sent lock requests to since
    /// the last `unlock_all`. Strict 2PL means commit releases on every
    /// shard the transaction touched — but only those; an OLTP
    /// transaction touching one table pays one shard latch at commit,
    /// not one per shard. All-ones when the service has more than 64
    /// shards (the mask degrades to "visit everything").
    touched_shards: std::cell::Cell<u64>,
    /// Latch operations issued by this session; every
    /// [`LATCH_SAMPLE_PERIOD`]-th one is timed. Session-local so the
    /// sampling tick is two `Cell` accesses, not a shared atomic.
    obs_ticks: std::cell::Cell<u64>,
    /// Grant notices on their way from a shard to their waiters; one
    /// buffer for the session's lifetime, so draining a shard's notices
    /// under its latch does not allocate.
    notices: std::cell::RefCell<Vec<GrantNotice>>,
    /// This session's spin-then-park state for grant waits.
    spin: std::cell::Cell<SpinPark>,
    /// The batch engine [`Session::lock_many_into`] drives, built by
    /// the first batch and reused by every later one. Boxed, so a
    /// session that never batches here (every evented one: its
    /// connection owns the machine) stays small — the evented core
    /// moves its connections in and out of a map on every event.
    machine: std::cell::RefCell<Option<Box<BatchMachine>>>,
}

impl Session {
    /// This session's application id.
    pub fn app(&self) -> AppId {
        self.app
    }

    /// Tuning hooks carrying this session's request counter.
    fn session_hooks(&self) -> ServiceHooks<'_> {
        ServiceHooks {
            shared: &self.inner.tuning,
            requests: Some(&self.requests),
            obs: &self.inner.obs,
            lock_ceiling: self.inner.lock_memory_ceiling.load(Ordering::Relaxed),
            block_bytes: self.inner.config.params.block_bytes,
        }
    }

    /// Start a latch-hold timer if this operation is a sample tick
    /// (1-in-[`LATCH_SAMPLE_PERIOD`]). Call immediately after taking a
    /// shard latch; pair with [`Session::finish_latch`] after dropping
    /// it. Compiles to nothing in the obs-off build.
    #[inline]
    fn latch_timer(&self) -> Option<Instant> {
        if !OBS_ENABLED {
            return None;
        }
        let n = self.obs_ticks.get();
        self.obs_ticks.set(n.wrapping_add(1));
        (n & (LATCH_SAMPLE_PERIOD - 1) == 0).then(Instant::now)
    }

    /// Record a sampled latch hold on shard `idx`.
    #[inline]
    fn finish_latch(&self, idx: usize, t0: Option<Instant>) {
        if let Some(t0) = t0 {
            self.inner
                .obs
                .record_latch(idx, t0.elapsed().as_nanos() as u64);
        }
    }

    /// Run `f` on shard `idx` under its latch (sampling the hold time
    /// when `timed`), then — latch dropped — deliver the grant notices
    /// it produced.
    pub(crate) fn on_shard<R>(
        &self,
        idx: usize,
        timed: bool,
        f: impl FnOnce(&mut LockManager<SharedLockMemoryPool>, &mut ServiceHooks<'_>) -> R,
    ) -> R {
        let mut notices = self.notices.borrow_mut();
        let mut hooks = self.session_hooks();
        let mut m = self.inner.shards[idx].lock();
        let t0 = if timed { self.latch_timer() } else { None };
        let result = f(&mut m, &mut hooks);
        m.drain_notifications_into(&mut notices);
        drop(m);
        self.finish_latch(idx, t0);
        self.inner.deliver(&mut notices);
        result
    }

    /// Drain stale events from the session's own sink; `true` if a
    /// deadlock abort is pending. Only sessions that have waited can
    /// have been aborted, and only they own the sink they pop: a
    /// session on an I/O shard's shared sink never waits here.
    fn pending_abort(&self) -> bool {
        if !self.ever_waited.get() {
            return false;
        }
        let mut aborted = false;
        while let Some((_, event)) = self.sink.try_pop() {
            aborted |= event == SessionEvent::Aborted;
        }
        aborted
    }

    /// The checks every lock request passes before it touches a shard.
    /// `pending_abort` is a deadlock abort that raced a previous wait
    /// (or struck while this session was computing): it must surface
    /// before new locks are taken on an empty slate. Then shed mode
    /// rejects the request outright.
    #[inline]
    pub(crate) fn admit(&self, pending_abort: bool) -> Result<(), ServiceError> {
        if pending_abort {
            return Err(ServiceError::DeadlockVictim);
        }
        if self.inner.shed_active() {
            if OBS_ENABLED {
                self.inner.obs.record_shed_rejected();
            }
            return Err(ServiceError::Overloaded {
                tenant: self.inner.config.tenant_id,
            });
        }
        Ok(())
    }

    /// Request `mode` on `res`, blocking (up to `lock_wait_timeout`)
    /// if the request queues.
    ///
    /// One latch pass, not a one-element batch: the request is not
    /// copied into the session's [`BatchMachine`], so the uncontended
    /// path costs only the lock manager's grant.
    pub fn lock(&self, res: ResourceId, mode: LockMode) -> Result<LockOutcome, ServiceError> {
        self.admit(self.pending_abort())?;
        let idx = self.inner.shard_index(res);
        self.mark_touched(idx);
        let outcome = self.on_shard(idx, true, |m, hooks| m.lock(self.app, res, mode, hooks));
        match self.inner.settle(outcome) {
            Some(result) => result,
            None => self.wait_queued(idx),
        }
    }

    /// The request just queued on shard `idx`: wait for its resolution.
    /// Kept out of line: inlined into `lock`, this loop cost the
    /// contended in-process workload about 7 % of its throughput.
    #[inline(never)]
    fn wait_queued(&self, idx: usize) -> Result<LockOutcome, ServiceError> {
        let mut w = WaitState::begin(self, idx);
        loop {
            if let Some(event) = self.wait(w.shard, w.deadline) {
                return w.resolve(self, event);
            }
            if let Some(e) = w.expire(self) {
                return Err(e);
            }
        }
    }

    /// Acquire a whole lock set with one shard-latch pass per shard
    /// group instead of one per lock. See [`Session::lock_many_into`].
    pub fn lock_many(&self, reqs: &[(ResourceId, LockMode)]) -> Vec<BatchOutcome> {
        let mut out = Vec::new();
        self.lock_many_into(reqs, &mut out);
        out
    }

    /// [`Session::lock_many`] writing into a caller-owned buffer
    /// (cleared first), so a server looping over batches reuses one
    /// allocation. `out` always comes back with exactly `reqs.len()`
    /// entries.
    ///
    /// Semantics: the batch runs on the session's [`BatchMachine`].
    /// Requests are partitioned by owning shard (groups ordered by
    /// first appearance, original order preserved inside a group —
    /// requests against the same table always keep their relative
    /// order because a table's rows and its intent lock hash to the
    /// same shard) and each group executes under **one** shard latch
    /// acquisition instead of one per lock. A request that queues
    /// releases the latch, parks exactly as [`Session::lock`] does, and
    /// the group resumes under a fresh latch pass after the grant.
    /// Per-request outcomes, wait/park behavior, slot-cache
    /// accounting and tuning-hook bookkeeping are identical to issuing
    /// the same requests as sequential `lock()` calls; only the
    /// cross-shard interleaving differs, which a single session cannot
    /// observe. The first session-fatal error (timeout, deadlock
    /// abort, shutdown) stops the batch; see [`BatchOutcome`].
    pub fn lock_many_into(&self, reqs: &[(ResourceId, LockMode)], out: &mut Vec<BatchOutcome>) {
        out.clear();
        // An empty batch runs nothing, so it must not consume a pending
        // abort either.
        if reqs.is_empty() {
            return;
        }
        let mut machine = self.machine.borrow_mut();
        let machine = machine.get_or_insert_with(Box::default);
        machine.start(self, reqs, true, self.pending_abort());
        while let Some(w) = machine.waiting() {
            match self.wait(w.shard, w.deadline) {
                Some(event) => machine.on_event(self, event),
                None => machine.on_timeout(self),
            };
        }
        out.extend_from_slice(machine.outcomes());
    }

    /// Park until this session's own sink delivers the resolution of
    /// the wait queued on `shard`, or until `deadline` passes (`None`).
    /// Lock holds are short, so the sink is first probed through the
    /// shared spin-then-park policy: most grants then arrive inside the
    /// spin and skip the futex park/wake round trip, and a session
    /// whose waits are long stops probing.
    pub(crate) fn wait(&self, shard: usize, deadline: Option<Instant>) -> Option<SessionEvent> {
        self.ever_waited.set(true);
        let mut spin = self.spin.get();
        let polled = spin.spin(deadline, || self.sink.try_pop());
        self.spin.set(spin);
        if OBS_ENABLED {
            self.inner.obs.record_grant_wake(shard, polled.is_some());
        }
        // A private sink is never closed, so `None` is the deadline.
        let (app, event) = match polled {
            Some(msg) => msg,
            None => self.sink.pop_until(deadline)?,
        };
        debug_assert_eq!(app, self.app, "grant routed to wrong session");
        Some(event)
    }

    /// Release one lock.
    pub fn unlock(&self, res: ResourceId) -> Result<UnlockReport, ServiceError> {
        let idx = self.inner.shard_index(res);
        Ok(self.on_shard(idx, true, |m, hooks| m.unlock(self.app, res, hooks))?)
    }

    /// Record that shard `idx` has (or may have) state for this
    /// session. Lossy above 64 shards: the mask saturates to all-ones.
    pub(crate) fn mark_touched(&self, idx: usize) {
        if self.inner.shards.len() > 64 {
            self.touched_shards.set(u64::MAX);
        } else {
            self.touched_shards
                .set(self.touched_shards.get() | 1u64 << idx);
        }
    }

    /// Release everything this application holds (commit under strict
    /// 2PL). Only shards this session actually sent requests to are
    /// visited — the lock manager forbids acquiring locks for another
    /// application, so a shard the session never touched cannot hold
    /// its locks.
    ///
    /// Fails with [`ServiceError::DeadlockVictim`] if a deadlock abort
    /// is pending on the session's sink: the sweeper already released
    /// this session's locks, so reporting a successful release would
    /// let a transaction commit without the locks it believes it held.
    pub fn unlock_all(&self) -> Result<UnlockReport, ServiceError> {
        if self.pending_abort() {
            return Err(ServiceError::DeadlockVictim);
        }
        let mut total = UnlockReport::default();
        let touched = self.touched_shards.replace(0);
        for i in 0..self.inner.shards.len() {
            if touched & (1u64 << (i & 63)) == 0 {
                continue;
            }
            let report = self.on_shard(i, false, |m, hooks| m.unlock_all(self.app, hooks));
            total.released_locks += report.released_locks;
            total.freed_slots += report.freed_slots;
        }
        Ok(total)
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        // Strict 2PL connection teardown: abandon any wait, release all
        // locks, then unregister. Every shard is visited (not just the
        // touched mask) so teardown stays correct even if the mask and
        // reality ever diverge. The shard then forgets the application:
        // ids are never reused by the server, so state left behind here
        // would grow every shard with each connection ever made.
        for i in 0..self.inner.shards.len() {
            self.on_shard(i, false, |m, hooks| {
                m.cancel_wait(self.app);
                m.unlock_all(self.app, hooks);
                m.forget_app(self.app);
            });
        }
        self.inner.registry.lock().remove(&self.app);
        self.inner
            .tuning
            .num_applications
            .fetch_sub(1, Ordering::Relaxed);
    }
}
