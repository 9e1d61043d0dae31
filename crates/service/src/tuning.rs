//! Shared tuning state and the per-request hooks of the concurrent
//! service.
//!
//! The lock-manager shards call [`TuningHooks`] callbacks while holding
//! their shard latch, so the hot callback — `on_lock_request`, fired on
//! **every** lock-structure request — must not funnel all shards
//! through one mutex. The paper already provides the amortization
//! lever: `refreshPeriodForAppPercent` (0x80) exists precisely because
//! recomputing `lockPercentPerApplication` per request is too
//! expensive. The service applies the same period to the lock: the
//! externalized percent lives in an atomic (`f64` bits) and only every
//! `refresh_period`-th request takes the tuning mutex to recompute it.
//!
//! The rules themselves (the cap recompute and synchronous growth) are
//! [`Stmm`]'s, shared with the simulator. The hooks add only what is
//! the service's own: the per-session request count, the tenant
//! ceiling clamp, the sync-stall timing, and publishing the recomputed
//! cap, on a refresh tick and after every resize.
//!
//! Lock ordering (deadlock freedom): shard latch → tuning mutex → pool
//! mutex. Hooks run under a shard latch and take the tuning mutex; the
//! tuning thread takes the tuning mutex and then the pool mutex; pool
//! critical sections never call out.

use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use locktune_lockmgr::{AppId, TableId, TuningHooks};
use locktune_memalloc::PoolUsage;
use locktune_memory::{DatabaseMemory, Stmm};
use locktune_obs::Obs;

use crate::latch::Latch;
use crate::service::OBS_ENABLED;

/// Pads a value to its own cache line. The hot-path atomics below are
/// written by different threads at different rates; sharing a line
/// between, say, a per-request counter and the `app_percent` every
/// request reads would invalidate the readers on every write (false
/// sharing) and flatten shard scalability.
#[derive(Debug, Default)]
#[repr(align(64))]
pub(crate) struct CachePadded<T>(pub T);

impl<T> Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

/// State mutated only under the tuning mutex.
#[derive(Debug)]
pub(crate) struct TuningState {
    /// The STMM controller (owns the paper's tuner).
    pub stmm: Stmm,
    /// The database memory set funding growth / absorbing shrink.
    pub mem: DatabaseMemory,
}

/// Tuning state shared between worker threads (via hooks), the tuning
/// thread and the deadlock sweeper.
#[derive(Debug)]
pub(crate) struct TuningShared {
    /// The mutex-protected slow-path state.
    pub state: Latch<TuningState>,
    /// Externalized `lockPercentPerApplication` as `f64::to_bits`.
    pub app_percent_bits: CachePadded<AtomicU64>,
    /// Escalations since the last tuning interval.
    pub escalations: CachePadded<AtomicU64>,
    /// Connected applications.
    pub num_applications: CachePadded<AtomicU64>,
    /// Requests between app-percent recomputes
    /// (`refreshPeriodForAppPercent`).
    pub refresh_period: u64,
    /// `refresh_period - 1` when the period is a power of two (the
    /// paper's default 0x80 is): lets the per-request "is this a
    /// refresh tick?" test be a mask instead of a 64-bit division.
    refresh_mask: Option<u64>,
}

impl TuningShared {
    pub(crate) fn new(stmm: Stmm, mem: DatabaseMemory) -> Self {
        let refresh_period = stmm.tuner().params().app_percent_refresh_period.max(1);
        let initial_percent = stmm.tuner().app_percent();
        TuningShared {
            state: Latch::new(TuningState { stmm, mem }),
            app_percent_bits: CachePadded(AtomicU64::new(initial_percent.to_bits())),
            escalations: CachePadded::default(),
            num_applications: CachePadded::default(),
            refresh_period,
            refresh_mask: refresh_period.is_power_of_two().then(|| refresh_period - 1),
        }
    }

    /// True when request number `n` should recompute the app percent.
    #[inline]
    pub(crate) fn is_refresh_tick(&self, n: u64) -> bool {
        match self.refresh_mask {
            Some(mask) => n & mask == 0,
            None => n.is_multiple_of(self.refresh_period),
        }
    }

    /// The currently externalized per-application cap.
    pub(crate) fn app_percent(&self) -> f64 {
        f64::from_bits(self.app_percent_bits.load(Ordering::Acquire))
    }

    /// Publish a recomputed percent, writing only on change so the
    /// readers' cache line stays shared in the steady state.
    pub(crate) fn publish_app_percent(&self, pct: f64) {
        let bits = pct.to_bits();
        if self.app_percent_bits.load(Ordering::Relaxed) != bits {
            self.app_percent_bits.store(bits, Ordering::Release);
        }
    }

    /// Recompute the cap from `pool` under the tuning mutex and
    /// publish it: a session's refresh tick and every resize.
    fn refresh_app_percent(&self, pool: &PoolUsage) -> f64 {
        let num_apps = self.num_applications.load(Ordering::Relaxed);
        let mut state = self.state.lock();
        let TuningState { stmm, mem } = &mut *state;
        let pct = stmm.recompute_app_percent(mem, pool, num_apps);
        drop(state);
        self.publish_app_percent(pct);
        pct
    }
}

/// Per-operation [`TuningHooks`] adapter. Constructed per lock
/// manager call.
///
/// The request counter driving the refresh cadence belongs to the
/// calling session (DB2 likewise counts per agent), so the hot path
/// pays two plain `Cell` accesses instead of an atomic RMW on a line
/// shared between threads. Service-internal callers (deadlock sweeper,
/// session teardown) have no session counter; they never issue lock
/// *requests*, so `on_lock_request` is unreachable from them — the
/// fallback to the cached percent is belt and braces.
pub(crate) struct ServiceHooks<'a> {
    pub shared: &'a TuningShared,
    /// The calling session's request counter, if any.
    pub requests: Option<&'a std::cell::Cell<u64>>,
    /// The service's instrumentation root (journal + histograms).
    pub obs: &'a Obs,
    /// Lock-memory budget ceiling in bytes, `0` = unlimited (loaded
    /// once at hook construction — the arbiter's write rate is per
    /// arbitration interval, so a stale read lasts one lock call).
    /// Sync growth must never grant past it: the tuning interval would
    /// claw the excess back anyway, and the whole point of a tenant
    /// budget is that a surge cannot borrow another tenant's bytes
    /// even for one interval.
    pub lock_ceiling: u64,
    /// Pool block size — the ceiling clamp floors the remaining room
    /// to whole blocks, since the grant path rounds any nonzero ask
    /// *up* to a block and would otherwise overshoot the budget.
    pub block_bytes: u64,
}

impl TuningHooks for ServiceHooks<'_> {
    fn on_lock_request(&mut self, pool: &PoolUsage) -> f64 {
        let n = match self.requests {
            Some(c) => {
                let n = c.get();
                c.set(n.wrapping_add(1));
                n
            }
            None => return self.shared.app_percent(),
        };
        if self.shared.is_refresh_tick(n) {
            self.shared.refresh_app_percent(pool)
        } else {
            self.shared.app_percent()
        }
    }

    fn sync_growth(&mut self, wanted_bytes: u64, pool: &PoolUsage) -> u64 {
        // Sync growth is the rare stall path: the requesting session is
        // already blocked behind a dry pool, so timing it here costs
        // nothing measurable and captures exactly the latency the paper
        // says synchronous growth is meant to bound.
        let t0 = OBS_ENABLED.then(Instant::now);
        // Budget ceiling: cap the ask at the room left under it. At or
        // above the ceiling the request is denied outright — the
        // session then sees `OutOfLockMemory` (or escalates), exactly
        // as if the machine were out of memory, because for this
        // tenant it is.
        let wanted_bytes = if self.lock_ceiling != 0 {
            let room = self.lock_ceiling.saturating_sub(pool.bytes);
            wanted_bytes.min(room / self.block_bytes * self.block_bytes)
        } else {
            wanted_bytes
        };
        let granted = if wanted_bytes == 0 {
            0
        } else {
            let num_apps = self.shared.num_applications.load(Ordering::Relaxed);
            let mut state = self.shared.state.lock();
            let TuningState { stmm, mem } = &mut *state;
            stmm.sync_growth(mem, wanted_bytes, pool.bytes, num_apps)
        };
        if let Some(t0) = t0 {
            self.obs
                .record_sync_stall(t0.elapsed().as_micros() as u64, granted);
        }
        granted
    }

    fn on_pool_resized(&mut self, pool: &PoolUsage) {
        self.shared.refresh_app_percent(pool);
    }

    fn on_escalation(&mut self, app: AppId, table: TableId, exclusive: bool) {
        self.shared.escalations.fetch_add(1, Ordering::Relaxed);
        if OBS_ENABLED {
            self.obs.record_escalation(app, table, exclusive);
        }
    }
}
