//! Results of one simulated run.

use locktune_lockmgr::LockStats;
use locktune_metrics::{HistogramSnapshot, TimeSeries};
use locktune_sim::SimTime;

/// Everything a figure needs from one run.
#[derive(Debug)]
pub struct RunResult {
    /// Policy that governed the run.
    pub policy_name: &'static str,
    /// Lock memory allocated to the pool (bytes), sampled per second.
    pub lock_bytes: TimeSeries,
    /// Lock structures in use (bytes).
    pub lock_used_bytes: TimeSeries,
    /// On-disk configured lock memory (`LMOC`).
    pub lmoc_bytes: TimeSeries,
    /// Committed transactions per second (windowed).
    pub throughput: TimeSeries,
    /// Cumulative escalations.
    pub escalations: TimeSeries,
    /// Cumulative lock waits.
    pub lock_waits: TimeSeries,
    /// `lockPercentPerApplication` over time.
    pub app_percent: TimeSeries,
    /// Active clients over time.
    pub clients: TimeSeries,
    /// Escalation events: (time, exclusive?).
    pub escalation_events: Vec<(SimTime, bool)>,
    /// Final lock manager counters.
    pub final_stats: LockStats,
    /// Transactions committed.
    pub committed: u64,
    /// Transactions aborted (deadlock victims).
    pub aborted: u64,
    /// Transactions failed outright for lock memory.
    pub oom_failures: u64,
    /// Transactions abandoned because a lock wait exceeded the
    /// configured LOCKTIMEOUT.
    pub lock_timeouts: u64,
    /// Distribution of lock wait durations, in microseconds.
    pub wait_times: HistogramSnapshot,
    /// Distribution of committed transaction durations (first lock to
    /// commit, including waits), in microseconds.
    pub txn_times: HistogramSnapshot,
    /// Simulated run length.
    pub duration: SimTime,
}

impl RunResult {
    /// Peak lock memory allocation during the run.
    pub fn peak_lock_bytes(&self) -> f64 {
        self.lock_bytes.max_value().unwrap_or(0.0)
    }

    /// Lock memory at the end of the run.
    pub fn final_lock_bytes(&self) -> f64 {
        self.lock_bytes.last().map(|(_, v)| v).unwrap_or(0.0)
    }

    /// Mean throughput over the half-open window `[from, to)` seconds.
    pub fn mean_throughput(&self, from: u64, to: u64) -> f64 {
        self.throughput
            .window_mean(SimTime::from_secs(from), SimTime::from_secs(to))
            .unwrap_or(0.0)
    }

    /// Total escalations over the run.
    pub fn total_escalations(&self) -> u64 {
        self.final_stats.escalations
    }

    /// Exclusive escalations over the run.
    pub fn exclusive_escalations(&self) -> u64 {
        self.final_stats.exclusive_escalations
    }
}
