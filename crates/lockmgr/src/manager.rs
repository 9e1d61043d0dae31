//! The lock manager proper.
//!
//! All operations are atomic with respect to the simulated clients: the
//! discrete-event engine calls one operation at a time, so compound
//! actions (escalation = upgrade table lock + release row locks +
//! re-process queues) never expose intermediate states. Grants produced
//! as a side effect of releases are delivered through a notification
//! queue ([`LockManager::take_notifications`]) so the engine can wake
//! the blocked clients.

use locktune_memalloc::{LockMemoryPool, PoolBackend, PoolError, SlotHandle};

use crate::app::{AppId, AppLockState};
use crate::error::LockError;
use crate::hash::{FxHashMap, FxHashSet};
use crate::hooks::TuningHooks;
use crate::mode::LockMode;
use crate::resource::{ResourceId, TableId};
use crate::stats::LockStats;
use crate::table::{LockHead, LockTable, Slot, SpareBoxes, Waiter};

/// Structural configuration of the lock manager.
#[derive(Debug, Clone, Copy)]
pub struct LockManagerConfig {
    /// Lock structures charged to the first holder of a resource (DB2
    /// charges roughly double for the first lock: lock object plus
    /// request block).
    pub first_holder_slots: u32,
    /// Lock structures charged to each additional holder.
    pub extra_holder_slots: u32,
    /// Require a covering table intent lock before row locks (on by
    /// default; disable only in focused unit tests).
    pub enforce_intents: bool,
}

impl Default for LockManagerConfig {
    fn default() -> Self {
        LockManagerConfig {
            first_holder_slots: 2,
            extra_holder_slots: 1,
            enforce_intents: true,
        }
    }
}

/// Per-application escalation preference (paper §6.1 future work:
/// "application policies to bias when lock escalations are a preferred
/// strategy over lock memory growth").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EscalationBias {
    /// Default: grow lock memory; escalate only when forced.
    #[default]
    PreferGrowth,
    /// Opt into early escalation once this many row locks are held on
    /// one table, trading concurrency for lock memory that the other
    /// heaps (caching, sorting) can use.
    PreferEscalation {
        /// Row locks held on a single table before escalating.
        table_row_threshold: u64,
    },
}

/// Result of a lock request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockOutcome {
    /// Granted immediately (new holding or in-place conversion).
    Granted,
    /// The application already held a covering lock on this resource.
    AlreadyHeld,
    /// A held table lock covers the requested row lock; no row lock was
    /// taken.
    CoveredByTableLock,
    /// Queued; the engine will be notified on grant.
    Queued,
    /// Granted, but only after escalating this application's row locks
    /// on `table` into a single table lock.
    GrantedAfterEscalation {
        /// Escalated table.
        table: TableId,
        /// Whether the escalated table lock is exclusive.
        exclusive: bool,
    },
    /// Queued on the escalated table lock; the escalation (and the
    /// original request) completes when the table lock is granted.
    QueuedWithEscalation {
        /// Table being escalated.
        table: TableId,
    },
}

/// Notification that a queued request was granted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GrantNotice {
    /// Application whose wait completed.
    pub app: AppId,
    /// Resource granted.
    pub resource: ResourceId,
    /// True when the grant completed a pending escalation.
    pub completed_escalation: bool,
}

/// Summary returned by `unlock_all` / `abort`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UnlockReport {
    /// Holdings released.
    pub released_locks: u64,
    /// Lock structure slots returned to the pool.
    pub freed_slots: u64,
}

/// The DB2-style lock manager.
///
/// Generic over its memory source: the default [`LockMemoryPool`] is an
/// owned pool (single-threaded use, the discrete-event engine), while
/// the concurrent service instantiates shards over
/// [`SharedLockMemoryPool`](locktune_memalloc::SharedLockMemoryPool) so
/// every shard draws from one tuned `LOCKLIST`.
#[derive(Debug)]
pub struct LockManager<P: PoolBackend = LockMemoryPool> {
    config: LockManagerConfig,
    heads: LockTable,
    apps: FxHashMap<AppId, AppLockState>,
    pool: P,
    stats: LockStats,
    notifications: Vec<GrantNotice>,
    biases: FxHashMap<AppId, EscalationBias>,
    /// Scratch for the heads a release leaves with waiters; kept so a
    /// commit does not allocate.
    worklist: Vec<ResourceId>,
    /// Scratch for the tables a commit sweeps; presized, so a first
    /// large commit does not allocate.
    sweeping: Vec<TableId>,
    /// Scratch for the lock structures of the grant in progress.
    slot_scratch: Vec<SlotHandle>,
    /// Boxes emptied by contended heads, reused by the next one.
    spare: SpareBoxes,
    /// The last MAXLOCKS check's inputs and cap (see [`cap_slots`]).
    cap: (u64, u64, u64),
}

impl<P: PoolBackend> LockManager<P> {
    /// Create a lock manager over the given memory pool.
    pub fn new(pool: P, config: LockManagerConfig) -> Self {
        LockManager {
            config,
            heads: LockTable::new(),
            apps: FxHashMap::default(),
            pool,
            stats: LockStats::default(),
            notifications: Vec::new(),
            biases: FxHashMap::default(),
            worklist: Vec::new(),
            sweeping: Vec::with_capacity(8),
            slot_scratch: Vec::new(),
            spare: Vec::new(),
            cap: (0, 0, 0),
        }
    }

    /// Register an application's escalation preference (§6.1). The
    /// default is [`EscalationBias::PreferGrowth`].
    pub fn set_escalation_bias(&mut self, app: AppId, bias: EscalationBias) {
        self.biases.insert(app, bias);
    }

    /// The effective bias for an application.
    pub fn escalation_bias(&self, app: AppId) -> EscalationBias {
        self.biases.get(&app).copied().unwrap_or_default()
    }

    /// The underlying memory pool.
    pub fn pool(&self) -> &P {
        &self.pool
    }

    /// Return any slots parked in the pool backend's private cache so
    /// the global used count is exact (no-op for owned pools).
    pub fn flush_pool_cache(&mut self) {
        self.pool.flush_cache();
    }

    /// Statistics counters.
    pub fn stats(&self) -> &LockStats {
        &self.stats
    }

    /// Per-application state, if the application is known.
    pub fn app(&self, app: AppId) -> Option<&AppLockState> {
        self.apps.get(&app)
    }

    /// Number of applications the manager keeps state for (every
    /// application that ever requested a lock and was not forgotten).
    pub fn known_apps(&self) -> usize {
        self.apps.len()
    }

    /// Drop everything kept for a disconnected application: its lock
    /// state (whose release list keeps its capacity across
    /// transactions) and its escalation bias. Not for commit — a live
    /// session reuses the retained capacity every transaction.
    ///
    /// # Panics
    /// Panics if `app` still holds or awaits a lock; release first.
    pub fn forget_app(&mut self, app: AppId) {
        if let Some(state) = self.apps.remove(&app) {
            assert!(state.is_idle(), "{app} forgotten while holding or waiting");
        }
        self.biases.remove(&app);
    }

    /// Number of resources with live lock heads.
    pub fn locked_resources(&self) -> usize {
        self.heads.iter().count()
    }

    /// The mode in which `app` holds `res`, if it holds it.
    pub fn held_mode(&self, app: AppId, res: ResourceId) -> Option<LockMode> {
        Some(self.heads.get(res)?.holder(app)?.mode)
    }

    /// Move the grant notifications produced since the last drain onto
    /// the end of `out`. Both buffers keep their capacity, so a caller
    /// that reuses `out` drains without allocating.
    pub fn drain_notifications_into(&mut self, out: &mut Vec<GrantNotice>) {
        out.append(&mut self.notifications);
    }

    /// Drain grant notifications produced since the last call.
    pub fn take_notifications(&mut self) -> Vec<GrantNotice> {
        let mut notices = Vec::new();
        self.drain_notifications_into(&mut notices);
        notices
    }

    /// Resize the pool towards `target_bytes` (whole blocks,
    /// best-effort shrink). Returns the resulting pool size in bytes.
    pub fn resize_pool_to_bytes(&mut self, target_bytes: u64, hooks: &mut dyn TuningHooks) -> u64 {
        let blocks = target_bytes / self.pool.config().block_bytes;
        let before = self.pool.total_blocks();
        let after = self.pool.resize_to_blocks(blocks);
        if after != before {
            hooks.on_pool_resized(&self.pool.usage());
        }
        self.pool.total_bytes()
    }

    // ==================================================================
    // Lock acquisition
    // ==================================================================

    /// Request `mode` on `res` for `app`.
    ///
    /// The grant path borrows the application's state and the lock head
    /// once each (disjoint fields of `self`) and allocates while both
    /// are still borrowed; only the cold fallbacks — escalation, memory
    /// pressure — go back through `self` and probe again. The head is
    /// also what says whether the application already holds `res`.
    pub fn lock(
        &mut self,
        app: AppId,
        res: ResourceId,
        mode: LockMode,
        hooks: &mut dyn TuningHooks,
    ) -> Result<LockOutcome, LockError> {
        let Self {
            config,
            heads,
            apps,
            pool,
            stats,
            biases,
            slot_scratch,
            spare,
            cap,
            ..
        } = self;
        let state = apps.entry(app).or_default();
        if let Some(waiting) = state.waiting_on {
            return Err(LockError::AlreadyWaiting(waiting));
        }

        // A held table lock may cover the row request; its record counts it.
        let mut record = None;
        if let ResourceId::Row(table, _) = res {
            record = state.per_table.get_mut(&table);
            match record.as_ref().and_then(|t| t.mode) {
                Some(held) if held.covers(mode.escalation_table_mode()) => {
                    stats.covered_by_table += 1;
                    return Ok(LockOutcome::CoveredByTableLock);
                }
                Some(held)
                    if config.enforce_intents
                    // Intent must announce the row mode (IS for S, IX for X).
                    && !held.covers(mode.intent_for_row_mode()) =>
                {
                    return Err(LockError::MissingIntent(res));
                }
                None if config.enforce_intents => {
                    return Err(LockError::MissingIntent(res));
                }
                _ => {}
            }
        }

        // §3.5: every lock-structure request refreshes the adaptive cap.
        let cap_percent = hooks.on_lock_request(&pool.usage());

        // A resource nobody holds has no head until the grant below
        // inserts one, so the fallbacks leave no empty head behind.
        let mut slot = heads.slot(res);
        let first_holder = match &mut slot {
            Slot::Head(head) => {
                // Existing holding: re-entrant grant or conversion.
                if let Some(held) = head.holder(app).map(|h| h.mode) {
                    if held.covers(mode) {
                        stats.grants += 1;
                        return Ok(LockOutcome::AlreadyHeld);
                    }
                    let target = held.supremum(mode);
                    if head.compatible_for(app, target) {
                        head.holder_mut(app).expect("holder entry").mode = target;
                        state.record_conversion(res, held, target);
                        stats.conversions += 1;
                        stats.grants += 1;
                        return Ok(LockOutcome::Granted);
                    }
                    // Conversions queue at the front: they beat new requests.
                    head.queue_mut(spare).push_front(Waiter {
                        app,
                        mode: target,
                        completes_escalation: false,
                    });
                    return Ok(wait_on(res, state, stats));
                }
                // New request. FIFO: a non-empty queue means we wait
                // behind it.
                if !head.queue().is_empty() || !head.compatible_for(app, mode) {
                    return Ok(enqueue_new_request(
                        head, state, stats, spare, app, res, mode,
                    ));
                }
                !head.is_held()
            }
            Slot::Row(..) | Slot::NoTable => true,
        };
        let slots_needed = if first_holder {
            config.first_holder_slots
        } else {
            config.extra_holder_slots
        };

        if let ResourceId::Row(req_table, _) = res {
            // §6.1 selective escalation: an application that prefers
            // escalation collapses its row locks as soon as its per-table
            // threshold is reached, keeping lock memory small.
            if !biases.is_empty() {
                if let Some(EscalationBias::PreferEscalation {
                    table_row_threshold,
                }) = biases.get(&app)
                {
                    if record.as_ref().map_or(0, |t| t.rows.rows) >= *table_row_threshold {
                        stats.voluntary_escalations += 1;
                        return self.escalate_requester_on(app, Some(req_table), res, mode, hooks);
                    }
                }
            }

            // MAXLOCKS / lockPercentPerApplication check (row locks only).
            let wanted_slots = state.total_slots + slots_needed as u64;
            if wanted_slots > cap_slots(cap, cap_percent, pool.total_slots()) {
                // The tuned system prefers growing the pool over
                // escalating (§3.5).
                if cap_percent > 0.0 {
                    grow_under_cap(pool, stats, wanted_slots, cap_percent, hooks);
                }
                let limit = cap_slots(cap, cap_percent, pool.total_slots());
                if wanted_slots > limit && state.most_locked_table().is_some() {
                    return self.escalate_requester_on(app, None, res, mode, hooks);
                }
                record = state.per_table.get_mut(&req_table);
            }
        }

        // Allocate lock structures; under memory pressure the cold path
        // reclaims by escalation and grants through fresh probes.
        if allocate_slots(pool, stats, slots_needed, slot_scratch, hooks).is_err() {
            return self.lock_under_memory_pressure(app, res, mode, slots_needed, hooks);
        }
        let head = match slot {
            Slot::Head(head) => head,
            Slot::Row(vacant, rows) => {
                *rows += 1;
                vacant.insert(LockHead::Idle)
            }
            Slot::NoTable => heads.head_or_default(res),
        };
        head.add_holder(app, mode, slot_scratch, spare);
        let charged = slot_scratch.len() as u64;
        slot_scratch.clear();
        let record = match record {
            Some(t) => t,
            None => state.per_table.entry(res.table()).or_default(),
        };
        record.count_grant(res, mode, charged);
        state.record_holding(res, charged);
        stats.grants += 1;
        Ok(LockOutcome::Granted)
    }

    /// The pool ran dry and synchronous growth was denied: reclaim by
    /// escalating other applications, then the requester itself.
    #[cold]
    fn lock_under_memory_pressure(
        &mut self,
        app: AppId,
        res: ResourceId,
        mode: LockMode,
        slots_needed: u32,
        hooks: &mut dyn TuningHooks,
    ) -> Result<LockOutcome, LockError> {
        // Escalation may or may not report success, but the retry can
        // also succeed through synchronous growth inside
        // `allocate_slots` — so the retry's own result is the only
        // thing that decides.
        self.reclaim_by_escalation(slots_needed as u64, hooks);
        // The reclaim may have escalated a co-holder of `res` itself (its
        // intent on the requested table is now S or X): the compatibility
        // established before it no longer holds, so the request waits.
        if let Slot::Head(head) = self.heads.slot(res) {
            if !head.compatible_for(app, mode) {
                let state = self.apps.get_mut(&app).expect("known app");
                let (stats, spare) = (&mut self.stats, &mut self.spare);
                return Ok(enqueue_new_request(
                    head, state, stats, spare, app, res, mode,
                ));
            }
        }
        let (pool, stats, scratch) = (&mut self.pool, &mut self.stats, &mut self.slot_scratch);
        if allocate_slots(pool, stats, slots_needed, scratch, hooks).is_err() {
            // No victim could be escalated in place. DB2's last resort
            // is the requester itself: collapse its own row locks into
            // a table lock, waiting on that table lock if it is
            // contended.
            if self.apps[&app].most_locked_table().is_some() {
                return self.escalate_requester_on(app, None, res, mode, hooks);
            }
            self.stats.denials += 1;
            return Err(LockError::OutOfLockMemory);
        }
        let head = self.heads.head_or_default(res);
        let state = self.apps.get_mut(&app).expect("known app");
        grant(head, state, scratch, &mut self.spare, app, res, mode);
        self.stats.grants += 1;
        Ok(LockOutcome::Granted)
    }

    // ==================================================================
    // Escalation
    // ==================================================================

    /// Escalate the requester on `table` (or, for a MAXLOCKS or
    /// memory-pressure escalation, its most-locked table).
    fn escalate_requester_on(
        &mut self,
        app: AppId,
        table: Option<TableId>,
        res: ResourceId,
        mode: LockMode,
        hooks: &mut dyn TuningHooks,
    ) -> Result<LockOutcome, LockError> {
        let table = match table {
            Some(t) => t,
            None => self.apps[&app]
                .most_locked_table()
                .ok_or(LockError::NothingToEscalate)?,
        };
        // The escalated table lock must also cover the pending request
        // when it targets the same table.
        let mut target = self.apps[&app].table_holdings(table).escalation_mode();
        if res.table() == table {
            target = target.supremum(mode.escalation_table_mode());
        }
        let table_res = ResourceId::Table(table);
        let compatible = self
            .heads
            .get(table_res)
            .map(|h| h.compatible_for(app, target))
            .unwrap_or(true);
        if compatible {
            self.perform_escalation(app, table, target, hooks);
            if res.table() == table {
                // The new table lock covers the original row request.
                return Ok(LockOutcome::GrantedAfterEscalation {
                    table,
                    exclusive: target == LockMode::X,
                });
            }
            // Different table: retry the row lock now that memory and
            // the per-app share have been freed.
            return match self.lock(app, res, mode, hooks)? {
                LockOutcome::Granted | LockOutcome::AlreadyHeld => {
                    Ok(LockOutcome::GrantedAfterEscalation {
                        table,
                        exclusive: target == LockMode::X,
                    })
                }
                other => Ok(other),
            };
        }
        // Table lock contended: queue the escalation as a front-of-queue
        // conversion; the row locks are released when it is granted.
        let head = self.heads.head_or_default(table_res);
        head.queue_mut(&mut self.spare).push_front(Waiter {
            app,
            mode: target,
            completes_escalation: true,
        });
        let state = self.apps.get_mut(&app).expect("known app");
        wait_on(table_res, state, &mut self.stats);
        Ok(LockOutcome::QueuedWithEscalation { table })
    }

    /// Memory-pressure escalation: collapse row locks of the heaviest
    /// applications until at least `needed` structures are free or no
    /// candidate is left.
    fn reclaim_by_escalation(&mut self, needed: u64, hooks: &mut dyn TuningHooks) {
        while self.pool.free_slots() < needed {
            // Candidate: the (app, table) with the most row slots whose
            // escalation is immediately grantable.
            let mut best: Option<((u64, AppId, TableId), LockMode)> = None;
            for (&app, state) in &self.apps {
                for (table, holdings) in state.row_holdings() {
                    let target = holdings.escalation_mode();
                    let head = self.heads.get(ResourceId::Table(table));
                    // Escalation must net-free memory: it frees the row
                    // slots (>= 1 row with > 0 slots).
                    let key = (holdings.slots, app, table);
                    if holdings.slots > 0
                        && head.is_none_or(|h| h.compatible_for(app, target))
                        && best.is_none_or(|(best_key, _)| key > best_key)
                    {
                        best = Some((key, target));
                    }
                }
            }
            let Some(((_, app, table), target)) = best else {
                return;
            };
            self.perform_escalation(app, table, target, hooks);
        }
    }

    /// Execute an escalation: upgrade (or create) the table lock and
    /// release every row lock `app` holds on `table`.
    fn perform_escalation(
        &mut self,
        app: AppId,
        table: TableId,
        target: LockMode,
        hooks: &mut dyn TuningHooks,
    ) {
        let table_res = ResourceId::Table(table);
        let state = self.apps.get_mut(&app).expect("known app");
        // Upgrade the existing table holding (the intent lock).
        let head = self.heads.head_or_default(table_res);
        match head.holder_mut(app) {
            Some(h) => {
                let before = h.mode;
                h.mode = before.supremum(target);
                state.record_conversion(table_res, before, h.mode);
            }
            None => {
                // No intent held (enforce_intents off): take the table
                // lock with zero structures — escalation must free
                // memory, never consume it while the pool is dry.
                head.add_holder(app, target, &[], &mut self.spare);
                state.record_grant(table_res, target, 0);
            }
        }

        self.release_escalated_rows(app, table, target, hooks);
        self.process_queues(hooks);
    }

    /// The table lock of an escalation is in place in mode `target`:
    /// drop the row locks it now covers and report the escalation.
    fn release_escalated_rows(
        &mut self,
        app: AppId,
        table: TableId,
        target: LockMode,
        hooks: &mut dyn TuningHooks,
    ) {
        let Self {
            heads,
            apps,
            pool,
            spare,
            worklist,
            ..
        } = self;
        // Rows left with waiters join the worklist in commit order.
        let state = apps.get_mut(&app).expect("known app");
        let appended = worklist.len();
        let rows = state.release_table_rows(table, |res| {
            Self::release_probed(heads, res, app, pool, spare, worklist).is_some()
        });
        worklist[appended..].sort_unstable_by_key(commit_order);
        let exclusive = target == LockMode::X;
        self.stats.escalations += 1;
        self.stats.exclusive_escalations += u64::from(exclusive);
        self.stats.rows_escalated += rows;
        hooks.on_escalation(app, table, exclusive);
    }

    // ==================================================================
    // Release paths
    // ==================================================================

    /// The per-head release step of every release path: drop `app`'s
    /// holder entry from `head` (the head of `res`) and return its lock
    /// structures to the pool. A head left with waiters goes on
    /// `worklist` for [`Self::process_queues`]; any other is trimmed, and
    /// one left [empty](LockHead::is_empty) is the caller's to drop from
    /// the table. Returns the mode released and the slots freed, or
    /// `None` when `app` was not a holder (a head it never held, or a
    /// stale or repeated release-list entry).
    #[inline]
    fn release_holder(
        res: ResourceId,
        head: &mut LockHead,
        app: AppId,
        pool: &mut P,
        spare: &mut SpareBoxes,
        worklist: &mut Vec<ResourceId>,
    ) -> Option<(LockMode, u64)> {
        let released = head.remove_holder(app, |h| {
            pool.free(h).expect("granted slots are live");
        })?;
        if !head.queue().is_empty() {
            worklist.push(res);
        } else {
            head.trim(spare);
        }
        Some(released)
    }

    /// [`Self::release_holder`] on the head of `res`, dropped if the
    /// release empties it.
    #[inline]
    fn release_probed(
        heads: &mut LockTable,
        res: ResourceId,
        app: AppId,
        pool: &mut P,
        spare: &mut SpareBoxes,
        worklist: &mut Vec<ResourceId>,
    ) -> Option<(LockMode, u64)> {
        heads
            .release(res, |head| {
                Self::release_holder(res, head, app, pool, spare, worklist)
            })
            .flatten()
    }

    /// Release one lock explicitly (non-2PL callers and tests).
    pub fn unlock(
        &mut self,
        app: AppId,
        res: ResourceId,
        hooks: &mut dyn TuningHooks,
    ) -> Result<UnlockReport, LockError> {
        let Self {
            heads,
            apps,
            pool,
            spare,
            worklist,
            ..
        } = self;
        let Some((mode, freed)) = Self::release_probed(heads, res, app, pool, spare, worklist)
        else {
            return Err(LockError::NotHeld(res));
        };
        let state = apps.get_mut(&app).expect("a holder is a known app");
        state.record_release(res, mode, freed);
        state.compact_release_list(|r| heads.get(r).is_some_and(|h| h.holder(app).is_some()));
        self.process_queues(hooks);
        Ok(UnlockReport {
            released_locks: 1,
            freed_slots: freed,
        })
    }

    /// Release everything `app` holds (commit under strict 2PL).
    ///
    /// The rows of a table where the commit holds a large share of the
    /// rows (see [`sweeps`]) are released by one walk over that table's
    /// rows; everything else by a probe per release-list entry. Both run
    /// the same per-head step, and neither order is observable: the set
    /// of slots freed is the same, and only heads that have waiters need
    /// further work, which are sorted before their queues are processed.
    pub fn unlock_all(&mut self, app: AppId, hooks: &mut dyn TuningHooks) -> UnlockReport {
        let Self {
            heads,
            apps,
            pool,
            spare,
            worklist,
            sweeping,
            ..
        } = self;
        let Some(state) = apps.get_mut(&app) else {
            return UnlockReport::default();
        };
        let mut report = UnlockReport::default();
        let mut count = |released: Option<(LockMode, u64)>| {
            if let Some((_, freed)) = released {
                report.released_locks += 1;
                report.freed_slots += freed;
            }
        };
        sweeping.clear();
        if state.held_count() >= SWEEP_MIN_HELD {
            for (table, holdings) in state.row_holdings() {
                let (rows, capacity) = heads.rows_and_capacity(table);
                if sweeps(holdings.rows as usize, rows, capacity) {
                    sweeping.push(table);
                }
            }
        }
        // The heads of a swept table say what `app` holds there; its
        // rows' release-list entries are dropped unread.
        for run in state.drain() {
            if run.rows_of().is_some_and(|table| sweeping.contains(&table)) {
                continue;
            }
            for res in run.resources() {
                count(Self::release_probed(heads, res, app, pool, spare, worklist));
            }
        }
        for &table in sweeping.iter() {
            heads.sweep_rows(table, |res, head| {
                count(Self::release_holder(res, head, app, pool, spare, worklist));
            });
        }
        // Deterministic queue processing: tables before rows, each by
        // descending id (the worklist is popped from the back).
        worklist.sort_unstable_by_key(commit_order);
        self.process_queues(hooks);
        report
    }

    /// Remove `app`'s pending wait, if any. Returns true if a wait was
    /// cancelled.
    pub fn cancel_wait(&mut self, app: AppId) -> bool {
        let Some(state) = self.apps.get_mut(&app) else {
            return false;
        };
        let Some(res) = state.waiting_on() else {
            return false;
        };
        state.waiting_on = None;
        let spare = &mut self.spare;
        self.heads.release(res, |head| {
            head.queue_mut(spare).retain(|w| w.app != app);
            head.trim(spare);
        });
        self.stats.cancelled_waits += 1;
        true
    }

    /// Abort `app` (deadlock victim): cancel its wait and release all
    /// its locks.
    pub fn abort(&mut self, app: AppId, hooks: &mut dyn TuningHooks) -> UnlockReport {
        self.cancel_wait(app);
        self.stats.deadlock_aborts += 1;
        self.unlock_all(app, hooks)
    }

    // ==================================================================
    // Queue processing
    // ==================================================================

    /// Grant queued requests (strict FIFO) on every resource in the
    /// worklist, leaving it empty; escalation tickets completing here
    /// extend the worklist with the rows they release that have waiters.
    fn process_queues(&mut self, hooks: &mut dyn TuningHooks) {
        while let Some(res) = self.worklist.pop() {
            // One probe per visit to the head; a completed escalation
            // ticket has to let go of it to release rows, then returns.
            while self.grant_from_queue(res, hooks) {}
        }
    }

    /// Grant waiters from the front of `res`'s queue until the queue is
    /// empty, its front is incompatible or memory runs out, removing the
    /// head if that leaves it empty. Returns true when it stopped early
    /// to complete an escalation ticket and must be called again.
    fn grant_from_queue(&mut self, res: ResourceId, hooks: &mut dyn TuningHooks) -> bool {
        let Slot::Head(head) = self.heads.slot(res) else {
            return false;
        };
        loop {
            let Some(front) = head.queue().front() else {
                if head.trim(&mut self.spare) {
                    // Nothing to release: this drops the emptied head.
                    self.heads.release(res, |_| ());
                }
                return false;
            };
            let (app, completes_escalation) = (front.app, front.completes_escalation);
            // A holder at the front is converting.
            let held = head.holder(app).map(|h| h.mode);
            let target = held.map_or(front.mode, |m| m.supremum(front.mode));
            if !head.compatible_for(app, target) {
                return false;
            }
            // Grant the front waiter.
            if held.is_none() {
                let needs_slots = if head.is_held() {
                    self.config.extra_holder_slots
                } else {
                    self.config.first_holder_slots
                };
                let (pool, stats, scratch) =
                    (&mut self.pool, &mut self.stats, &mut self.slot_scratch);
                // Out of memory: leave the waiter queued; a future
                // release or grow will retry.
                if allocate_slots(pool, stats, needs_slots, scratch, hooks).is_err() {
                    return false;
                }
            }
            head.queue_mut(&mut self.spare).pop_front();
            let state = self.apps.get_mut(&app).expect("known app");
            match held {
                Some(before) => {
                    head.holder_mut(app).expect("holder").mode = target;
                    state.record_conversion(res, before, target);
                    self.stats.conversions += 1;
                }
                None => {
                    let (scratch, spare) = (&mut self.slot_scratch, &mut self.spare);
                    grant(head, state, scratch, spare, app, res, target);
                }
            }
            state.waiting_on = None;
            self.stats.queue_grants += 1;
            self.notifications.push(GrantNotice {
                app,
                resource: res,
                completed_escalation: completes_escalation,
            });
            if completes_escalation {
                self.release_escalated_rows(app, res.table(), target, hooks);
                return true;
            }
        }
    }

    // ==================================================================
    // Introspection for deadlock detection & invariants
    // ==================================================================

    /// Wait-for edges: `(waiter, holder-or-earlier-waiter)` pairs.
    pub fn wait_edges(&self) -> Vec<(AppId, AppId)> {
        let mut edges = Vec::new();
        for (_, head) in self.heads.iter() {
            for (i, w) in head.queue().iter().enumerate() {
                let held = head.holder(w.app).map(|h| h.mode);
                let target = held.map_or(w.mode, |m| m.supremum(w.mode));
                for h in head.holders() {
                    if h.app != w.app && !target.compatible_with(h.mode) {
                        edges.push((w.app, h.app));
                    }
                }
                // FIFO: a waiter also waits for everyone ahead of it.
                for earlier in head.queue().iter().take(i) {
                    if earlier.app != w.app {
                        edges.push((w.app, earlier.app));
                    }
                }
            }
        }
        edges
    }

    /// Total slots charged across applications; must equal the pool's
    /// used count — checked by [`validate`](Self::validate).
    pub fn charged_slots(&self) -> u64 {
        self.apps.values().map(|a| a.total_slots()).sum()
    }

    /// Exhaustive cross-structure invariant check for tests.
    ///
    /// # Panics
    /// Panics on inconsistency.
    pub fn validate(&self) {
        self.pool.validate();
        if self.pool.is_shared() {
            // Other shards charge against the same pool; this shard can
            // only bound the global count from below.
            assert!(
                self.charged_slots() <= self.pool.used_slots(),
                "shard charges {} slots but the shared pool reports only {} used",
                self.charged_slots(),
                self.pool.used_slots()
            );
        } else {
            assert_eq!(
                self.charged_slots(),
                self.pool.used_slots(),
                "app slot accounting must match pool usage"
            );
        }
        // Rebuild every application's accounting from the heads alone;
        // every pair of granted modes on a resource is compatible.
        self.heads.validate();
        let mut rebuilt: FxHashMap<AppId, AppLockState> = FxHashMap::default();
        for (res, head) in self.heads.iter() {
            assert!(
                head.is_held() || !head.queue().is_empty(),
                "empty head left behind on {res}"
            );
            for (i, a) in head.holders().iter().enumerate() {
                rebuilt
                    .entry(a.app)
                    .or_default()
                    .record_grant(res, a.mode, head.slots_of(a.app));
                for b in &head.holders()[i + 1..] {
                    assert_ne!(a.app, b.app, "{} holds {res} twice", a.app);
                    assert!(
                        a.mode.compatible_with(b.mode),
                        "incompatible co-holders {} ({}) and {} ({}) on {res}",
                        a.app,
                        a.mode,
                        b.app,
                        b.mode
                    );
                }
            }
            for w in head.queue() {
                assert_eq!(
                    self.apps.get(&w.app).and_then(|a| a.waiting_on()),
                    Some(res),
                    "waiter {} not marked waiting on {res}",
                    w.app
                );
            }
        }
        // What each application believes it holds is exactly what the
        // heads say, and its release list reaches every holding.
        for (app, state) in &self.apps {
            let mut heads_say = rebuilt.remove(app).unwrap_or_default();
            assert_eq!(state.held_count, heads_say.held_count, "{app} held count");
            assert_eq!(state.total_slots, heads_say.total_slots, "{app} slots");
            assert_eq!(state.per_table, heads_say.per_table, "{app} per-table");
            let runs = state.release_list.iter();
            let listed: FxHashSet<ResourceId> = runs.flat_map(|run| run.resources()).collect();
            for res in heads_say.drain().flat_map(|run| run.resources()) {
                assert!(
                    listed.contains(&res),
                    "{app} holds {res} but its release list does not reach it"
                );
            }
        }
        assert!(
            rebuilt.is_empty(),
            "holders without application state: {:?}",
            rebuilt.keys()
        );
    }
}

/// Fewer holdings than this are never swept.
const SWEEP_MIN_HELD: usize = 64;

/// Whether a commit of `held` row holdings on one table sweeps the
/// table's rows (`len` heads, room for `capacity`) instead of probing
/// once per holding.
///
/// * `held >= 64`: a small commit always probes; its few random probes
///   cost less than any walk over the table.
/// * `2 * held >= len`: the application holds at least half the heads,
///   so most heads the sweep visits are ones it releases.
/// * `8 * held >= capacity`: the sweep visits every bucket, and the
///   table never shrinks — one that a past scan grew would make every
///   later, smaller commit pay for the scan's size.
fn sweeps(held: usize, len: usize, capacity: usize) -> bool {
    held >= SWEEP_MIN_HELD && 2 * held >= len && 8 * held >= capacity
}

/// Sort key for heads whose queues a release must process: popped from
/// the back, so tables come before rows, each by descending id.
fn commit_order(res: &ResourceId) -> (bool, ResourceId) {
    (!res.is_row(), *res)
}

/// Allocate `n` lock structures into `slots` (empty on entry), the first
/// two as a pair if the pool has one, then one at a time, growing
/// synchronously through the hooks when the pool runs dry. On failure
/// every slot already taken is returned (dropping a `SlotHandle` would
/// leak its slot) and `slots` is empty again.
fn allocate_slots<P: PoolBackend>(
    pool: &mut P,
    stats: &mut LockStats,
    n: u32,
    slots: &mut Vec<SlotHandle>,
    hooks: &mut dyn TuningHooks,
) -> Result<(), ()> {
    if n >= 2 {
        if let Ok([first, second]) = pool.allocate_pair() {
            slots.push(first);
            slots.push(second);
        }
    }
    for _ in slots.len() as u32..n {
        loop {
            match pool.allocate() {
                Ok(h) => {
                    slots.push(h);
                    break;
                }
                Err(PoolError::Exhausted) => {
                    stats.sync_growth_requests += 1;
                    let block = pool.config().block_bytes;
                    let granted = hooks.sync_growth(block, &pool.usage());
                    let blocks = granted / block;
                    if blocks == 0 {
                        stats.sync_growth_denied += 1;
                        for h in slots.drain(..) {
                            pool.free(h).expect("just allocated");
                        }
                        return Err(());
                    }
                    pool.grow_blocks(blocks);
                    hooks.on_pool_resized(&pool.usage());
                }
                Err(e) => unreachable!("allocate cannot fail with {e}"),
            }
        }
    }
    Ok(())
}

/// Make `app` a holder of `res` in `mode`, charged the lock structures
/// in `slots` (left empty).
fn grant(
    head: &mut LockHead,
    state: &mut AppLockState,
    slots: &mut Vec<SlotHandle>,
    spare: &mut SpareBoxes,
    app: AppId,
    res: ResourceId,
    mode: LockMode,
) {
    head.add_holder(app, mode, slots, spare);
    state.record_grant(res, mode, slots.len() as u64);
    slots.clear();
}

/// `cap_percent` of `total_slots`, worked out again only when `memo`
/// (`(cap_percent.to_bits(), total_slots, cap)`) says either changed.
fn cap_slots(memo: &mut (u64, u64, u64), cap_percent: f64, total_slots: u64) -> u64 {
    if (memo.0, memo.1) != (cap_percent.to_bits(), total_slots) {
        let cap = (cap_percent / 100.0 * total_slots as f64) as u64;
        *memo = (cap_percent.to_bits(), total_slots, cap);
    }
    memo.2
}

/// An application is about to exceed its `cap_percent` share: ask for
/// enough synchronous growth to bring `wanted_slots` back under the cap.
#[cold]
fn grow_under_cap<P: PoolBackend>(
    pool: &mut P,
    stats: &mut LockStats,
    wanted_slots: u64,
    cap_percent: f64,
    hooks: &mut dyn TuningHooks,
) {
    let needed_total = (wanted_slots as f64 * 100.0 / cap_percent).ceil() as u64;
    let total = pool.total_slots();
    if needed_total > total {
        let block = pool.config().block_bytes;
        let raw = (needed_total - total) * pool.config().lock_struct_bytes;
        let wanted = raw.div_ceil(block) * block;
        stats.sync_growth_requests += 1;
        let granted = hooks.sync_growth(wanted, &pool.usage());
        let blocks = granted / block;
        if blocks > 0 {
            pool.grow_blocks(blocks);
            hooks.on_pool_resized(&pool.usage());
        }
    }
}

/// Queue a new (non-conversion) request at the back of `head`'s queue.
fn enqueue_new_request(
    head: &mut LockHead,
    state: &mut AppLockState,
    stats: &mut LockStats,
    spare: &mut SpareBoxes,
    app: AppId,
    res: ResourceId,
    mode: LockMode,
) -> LockOutcome {
    head.queue_mut(spare).push_back(Waiter {
        app,
        mode,
        completes_escalation: false,
    });
    wait_on(res, state, stats)
}

/// Mark the application of `state` as waiting on `res`, just queued.
fn wait_on(res: ResourceId, state: &mut AppLockState, stats: &mut LockStats) -> LockOutcome {
    state.waiting_on = Some(res);
    stats.waits += 1;
    LockOutcome::Queued
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_a_commit_holding_most_of_a_compact_table_sweeps() {
        // A scan holding nearly every head of its table.
        assert!(sweeps(100_000, 100_040, 114_688));
        // Half the heads is enough; fewer is not.
        assert!(sweeps(500, 1_000, 1_792));
        assert!(!sweeps(499, 1_000, 1_792));
        // Small commits probe, however small the table.
        assert!(!sweeps(63, 63, 112));
        assert!(sweeps(64, 64, 112));
        // An OLTP commit alone in a table a past scan grew to 131 072
        // buckets: it holds every head, and still probes.
        assert!(!sweeps(21, 21, 114_688));
        assert!(!sweeps(64, 64, 114_688));
        assert!(sweeps(14_336, 14_336, 114_688));
    }

    /// The MAXLOCKS check is `wanted > cap_slots(..)`: an application may
    /// hold its cap's worth of slots and not one more.
    #[test]
    fn cap_slots_is_the_maxlocks_check() {
        let mut memo = (0, 0, 0);
        // At 98 %: 97 of 100 slots is fine, 99 is over.
        assert_eq!(cap_slots(&mut memo, 98.0, 100), 98);
        // Throttled to 1 %: 2 of 100 is over, 1 is fine.
        assert_eq!(cap_slots(&mut memo, 1.0, 100), 1);
        // The memo follows the pool's size as well as the percentage.
        assert_eq!(cap_slots(&mut memo, 1.0, 1_000), 10);
        assert_eq!(cap_slots(&mut memo, 1.0, 1_000), 10);
    }

    /// An empty pool caps every application at no slots: asking for
    /// none is fine, one is over.
    #[test]
    fn an_empty_pool_caps_at_zero_slots() {
        assert_eq!(cap_slots(&mut (0, 0, 0), 98.0, 0), 0);
        assert_eq!(cap_slots(&mut (98f64.to_bits(), 100, 98), 98.0, 0), 0);
    }
}
