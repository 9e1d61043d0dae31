//! Pluggable lock-memory policies and their hook adapter.

use locktune_baselines::{SqlServerModel, StaticPolicy};
use locktune_core::{LockMemoryBounds, TunerParams};
use locktune_lockmgr::{AppId, TableId, TuningHooks};
use locktune_memalloc::PoolUsage;
use locktune_memory::{DatabaseMemory, Stmm};
use locktune_sim::SimTime;

/// Which policy governs the lock memory.
#[derive(Debug, Clone, Copy)]
pub enum Policy {
    /// The paper's self-tuning algorithm (DB2 9 STMM).
    SelfTuning(TunerParams),
    /// Fixed `LOCKLIST`/`MAXLOCKS` (pre-DB2 9).
    Static(StaticPolicy),
    /// The SQL Server 2005 model.
    SqlServer(SqlServerModel),
}

impl Policy {
    /// Short policy name for traces and tables.
    pub fn name(&self) -> &'static str {
        match self {
            Policy::SelfTuning(_) => "self-tuning",
            Policy::Static(_) => "static",
            Policy::SqlServer(_) => "sqlserver",
        }
    }
}

/// Runtime state of a policy. One instance per engine, so the size
/// spread between variants is irrelevant.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub(crate) enum PolicyRuntime {
    SelfTuning(Stmm),
    Static(StaticPolicy),
    SqlServer(SqlServerModel),
}

impl PolicyRuntime {
    pub(crate) fn new(policy: Policy, initial_lock_bytes: u64) -> Self {
        match policy {
            Policy::SelfTuning(params) => {
                PolicyRuntime::SelfTuning(Stmm::new(params, initial_lock_bytes))
            }
            Policy::Static(p) => PolicyRuntime::Static(p),
            Policy::SqlServer(m) => PolicyRuntime::SqlServer(m),
        }
    }

    /// The initial pool size the policy wants.
    pub(crate) fn initial_lock_bytes(policy: &Policy, database_memory: u64) -> u64 {
        match policy {
            Policy::SelfTuning(params) => {
                // Start at the minimal configuration (Figure 9 begins
                // "with a minimal configuration for lock memory").
                LockMemoryBounds::compute(params, 0, database_memory).min_bytes
            }
            Policy::Static(p) => p.locklist_bytes,
            Policy::SqlServer(m) => m.initial_bytes(),
        }
    }

    /// Currently externalized `lockPercentPerApplication` (for traces).
    pub(crate) fn app_percent(&self, pool: &PoolUsage) -> f64 {
        match self {
            PolicyRuntime::SelfTuning(stmm) => stmm.tuner().app_percent(),
            PolicyRuntime::Static(p) => p.maxlocks_percent,
            PolicyRuntime::SqlServer(m) => m.app_cap_percent(pool.slots_total),
        }
    }

    /// The configured (on-disk) lock memory, where meaningful.
    pub(crate) fn lmoc(&self, pool: &PoolUsage) -> u64 {
        match self {
            PolicyRuntime::SelfTuning(stmm) => stmm.lmoc(),
            PolicyRuntime::Static(p) => p.locklist_bytes,
            PolicyRuntime::SqlServer(_) => pool.bytes,
        }
    }
}

/// Counters the hooks update while the lock manager runs.
#[derive(Debug, Default)]
pub(crate) struct HookCounters {
    /// Escalations since the last tuning interval.
    pub escalations_since_interval: u64,
    /// Escalation event log: (time, exclusive?).
    pub escalation_log: Vec<(SimTime, bool)>,
}

/// Adapter giving the lock manager its policy callbacks. Borrows the
/// policy, the memory set and the counters for the duration of one
/// lock-manager operation.
pub(crate) struct PolicyHooks<'a> {
    pub policy: &'a mut PolicyRuntime,
    pub mem: &'a mut DatabaseMemory,
    pub counters: &'a mut HookCounters,
    pub num_applications: u64,
    pub now: SimTime,
}

impl TuningHooks for PolicyHooks<'_> {
    fn on_lock_request(&mut self, pool: &PoolUsage) -> f64 {
        match self.policy {
            PolicyRuntime::SelfTuning(stmm) => {
                stmm.on_lock_request(self.mem, pool, self.num_applications)
            }
            PolicyRuntime::Static(p) => p.maxlocks_percent,
            PolicyRuntime::SqlServer(m) => {
                if m.memory_pressure_escalation(pool.bytes) {
                    // Above the 40% threshold SQL Server escalates
                    // unconditionally; a zero cap forces it.
                    0.0
                } else {
                    m.app_cap_percent(pool.slots_total)
                }
            }
        }
    }

    fn sync_growth(&mut self, wanted_bytes: u64, pool: &PoolUsage) -> u64 {
        match self.policy {
            PolicyRuntime::SelfTuning(stmm) => {
                stmm.sync_growth(self.mem, wanted_bytes, pool.bytes, self.num_applications)
            }
            PolicyRuntime::Static(_) => 0,
            PolicyRuntime::SqlServer(m) => {
                let block = 128 * 1024;
                let policy_grant = m.sync_growth(wanted_bytes.max(block), pool.bytes);
                let physical = self.mem.overflow_state().overflow_free_bytes;
                let grant = policy_grant.min(physical) / block * block;
                if grant > 0 {
                    self.mem.note_lock_sync_growth(grant);
                }
                grant
            }
        }
    }

    fn on_pool_resized(&mut self, pool: &PoolUsage) {
        if let PolicyRuntime::SelfTuning(stmm) = self.policy {
            stmm.recompute_app_percent(self.mem, pool, self.num_applications);
        }
    }

    fn on_escalation(&mut self, _app: AppId, _table: TableId, exclusive: bool) {
        self.counters.escalations_since_interval += 1;
        self.counters.escalation_log.push((self.now, exclusive));
    }
}

/// Hooks that do nothing: used when applying STMM-decided resizes (the
/// decision was already made; re-entering the policy would recurse).
pub(crate) struct SilentHooks;

impl TuningHooks for SilentHooks {
    fn on_lock_request(&mut self, _pool: &PoolUsage) -> f64 {
        100.0
    }
    fn sync_growth(&mut self, _wanted: u64, _pool: &PoolUsage) -> u64 {
        0
    }
    fn on_pool_resized(&mut self, _pool: &PoolUsage) {}
}
