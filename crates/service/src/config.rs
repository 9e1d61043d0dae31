//! Service configuration.

use std::time::Duration;

use locktune_core::TunerParams;
use locktune_lockmgr::LockManagerConfig;
use locktune_memory::MemoryConfig;

/// Why a [`ServiceConfig`] was rejected or the service failed to come
/// up. Typed (rather than the former `String`) so embedding programs —
/// the server binary in particular — can map each failure class to a
/// distinct exit code.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// `shards == 0`.
    ZeroShards,
    /// `tuning_log_capacity == 0`: the decision log must keep at least
    /// the most recent interval.
    ZeroTuningLogCapacity,
    /// The tuner parameters failed their own validation.
    Params(String),
    /// A background thread could not be spawned (OS resource failure,
    /// not a configuration mistake).
    Spawn {
        /// Which thread (`"background"` for a service, `"arbiter"` for
        /// a tenant directory).
        thread: &'static str,
        /// The OS error, stringified (io::Error is not `Clone`).
        message: String,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroShards => f.write_str("shards must be >= 1"),
            ConfigError::ZeroTuningLogCapacity => f.write_str("tuning_log_capacity must be >= 1"),
            ConfigError::Params(msg) => write!(f, "tuner params: {msg}"),
            ConfigError::Spawn { thread, message } => {
                write!(f, "spawn {thread} thread: {message}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl ConfigError {
    /// Suggested process exit code: `2` for configuration mistakes
    /// (caller can fix the flags), `3` for environment failures
    /// (retrying may help).
    pub fn exit_code(&self) -> i32 {
        match self {
            ConfigError::Spawn { .. } => 3,
            _ => 2,
        }
    }
}

/// Configuration of the concurrent lock service.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Lock table shards. Each shard is an independent [`LockManager`]
    /// behind its own latch; resources are routed by **table** hash so
    /// a row and its covering table intent lock always land on the same
    /// shard (escalation stays shard-local).
    ///
    /// [`LockManager`]: locktune_lockmgr::LockManager
    pub shards: usize,
    /// Period of the STMM tuning interval: the background thread runs
    /// the tuner this long after the previous interval finished. The
    /// paper runs 30 s intervals (DB2 allows 0.5–10 min); tests and the
    /// in-process example use milliseconds so grow/shrink cycles happen
    /// in-process.
    pub tuning_interval: Duration,
    /// Period of the deadlock sweep, which the same background thread
    /// runs this long after the previous sweep finished.
    pub deadlock_interval: Duration,
    /// How long a blocked lock request waits before giving up
    /// (`LOCKTIMEOUT`). `None` waits forever (DB2's default of -1).
    pub lock_wait_timeout: Option<Duration>,
    /// Initial lock memory in bytes (rounded up to whole blocks).
    pub initial_lock_bytes: u64,
    /// How many [`IntervalReport`]s the tuning decision log retains
    /// (keep-last-N ring). A long-running server ticks the tuner
    /// forever; an unbounded log is a slow leak. Monotonic totals
    /// survive eviction in [`TuningCounters`].
    ///
    /// [`IntervalReport`]: locktune_memory::IntervalReport
    /// [`TuningCounters`]: crate::service::TuningCounters
    pub tuning_log_capacity: usize,
    /// The database memory around the lock pool (funds growth, absorbs
    /// shrink proceeds).
    pub memory: MemoryConfig,
    /// Tuner parameters (paper Table 1).
    pub params: TunerParams,
    /// Per-shard lock manager structure.
    pub manager: LockManagerConfig,
    /// Shed mode: once this many `OutOfLockMemory` denials surface to
    /// sessions within one tuning interval, the service stops
    /// accepting new lock requests ([`ServiceError::Overloaded`])
    /// until an interval passes with zero denials and free memory in
    /// the pool. `0` disables shedding (the default — denials then
    /// surface individually, exactly as before).
    ///
    /// Shedding is evaluated **per service**: when many services run
    /// under one multi-tenant directory, each tenant sheds (and
    /// releases) independently, and its `Overloaded` rejections carry
    /// this service's [`ServiceConfig::tenant_id`] so clients back off
    /// the right database instead of the whole machine.
    ///
    /// [`ServiceError::Overloaded`]: crate::service::ServiceError::Overloaded
    pub shed_oom_threshold: u32,
    /// Identity stamped into tenant-scoped errors
    /// ([`ServiceError::Overloaded`]) when this service is one logical
    /// database inside a multi-tenant directory. `None` (the default)
    /// for a standalone service — errors then carry no tenant and mean
    /// "the whole server".
    ///
    /// [`ServiceError::Overloaded`]: crate::service::ServiceError::Overloaded
    pub tenant_id: Option<u32>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            shards: 8,
            tuning_interval: Duration::from_secs(30),
            deadlock_interval: Duration::from_millis(100),
            lock_wait_timeout: None,
            initial_lock_bytes: 2 * 1024 * 1024,
            tuning_log_capacity: 512,
            memory: MemoryConfig::default(),
            params: TunerParams::default(),
            manager: LockManagerConfig::default(),
            shed_oom_threshold: 0,
            tenant_id: None,
        }
    }
}

impl ServiceConfig {
    /// A configuration for tests and the in-process example: small pool,
    /// millisecond tuning so decisions happen within a test run.
    pub fn fast(shards: usize) -> Self {
        ServiceConfig {
            shards,
            tuning_interval: Duration::from_millis(50),
            deadlock_interval: Duration::from_millis(10),
            lock_wait_timeout: Some(Duration::from_secs(2)),
            initial_lock_bytes: 2 * 1024 * 1024,
            ..Default::default()
        }
    }

    /// Validate the configuration.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.shards == 0 {
            return Err(ConfigError::ZeroShards);
        }
        if self.tuning_log_capacity == 0 {
            return Err(ConfigError::ZeroTuningLogCapacity);
        }
        self.params.validate().map_err(ConfigError::Params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        assert!(ServiceConfig::default().validate().is_ok());
        assert!(ServiceConfig::fast(4).validate().is_ok());
    }

    #[test]
    fn zero_shards_rejected() {
        let c = ServiceConfig {
            shards: 0,
            ..Default::default()
        };
        assert_eq!(c.validate(), Err(ConfigError::ZeroShards));
    }

    #[test]
    fn zero_log_capacity_rejected() {
        let c = ServiceConfig {
            tuning_log_capacity: 0,
            ..Default::default()
        };
        assert_eq!(c.validate(), Err(ConfigError::ZeroTuningLogCapacity));
        assert_eq!(c.validate().unwrap_err().exit_code(), 2);
    }
}
