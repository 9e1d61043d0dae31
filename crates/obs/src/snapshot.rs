//! Plain-data scrape results: everything a dashboard or the wire
//! endpoint needs, frozen at one instant.

use locktune_core::TuningReason;
use locktune_lockmgr::LockStats;
use locktune_memory::IntervalReport;
use locktune_metrics::HistogramSnapshot;

use crate::journal::JournalEvent;

/// Monotonic counters maintained by the instrumentation layer itself
/// (quantities the per-shard `LockStats` don't track).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObsCounters {
    /// Lock waits that ended in `LOCKTIMEOUT`.
    pub timeouts: u64,
    /// `lock_many` batches executed.
    pub batches: u64,
    /// Total items across those batches.
    pub batch_items: u64,
    /// Applications aborted by the deadlock sweeper.
    pub deadlock_victims: u64,
    /// Synchronous growth attempts that were granted.
    pub sync_growth_granted: u64,
    /// Synchronous growth attempts that were denied.
    pub sync_growth_denied: u64,
    /// Reserved, always 0: counted the allocator's retired dry-pool
    /// sweep of sibling caches. Kept so the Metrics frame's bytes and
    /// the readers of this field stay unchanged.
    pub depot_reclaim_sweeps: u64,
    /// Reserved, always 0, like `depot_reclaim_sweeps`.
    pub depot_reclaimed_slots: u64,
    /// Events recorded into the journal since start.
    pub journal_recorded: u64,
    /// Events the journal dropped because it was full.
    pub journal_dropped: u64,
    /// Dead tuner/sweeper threads the watchdog respawned.
    pub watchdog_restarts: u64,
    /// Clients evicted for holding their reply queue full past the
    /// eviction deadline.
    pub clients_evicted: u64,
    /// Times shed mode engaged (sustained pool exhaustion).
    pub shed_engaged: u64,
    /// Times shed mode released.
    pub shed_released: u64,
    /// Lock requests rejected while shed mode was engaged.
    pub shed_rejected: u64,
    /// Faults deliberately injected across all sites (`faults`
    /// feature only; zero in production builds).
    pub faults_injected: u64,
    /// Waits cancelled (and applications aborted) on behalf of a
    /// remote cluster deadlock detector — cross-node victims resolved
    /// on this node.
    pub remote_cancels: u64,
    /// Supervisor health probes this node answered.
    pub failover_probes: u64,
    /// Times the node's fence epoch advanced (partition-map changes
    /// disseminated by the cluster supervisor).
    pub epoch_bumps: u64,
    /// Lock requests fenced with `WrongEpoch` for carrying a stale
    /// partition-map epoch.
    pub fenced_requests: u64,
    /// Lock batches served while this node held slots reassigned from
    /// a dead peer (degraded mode).
    pub degraded_batches: u64,
    /// Blocked lock requests whose grant was caught by the session's
    /// spin, without parking on its channel.
    pub grant_spin_hits: u64,
    /// Blocked lock requests that parked on the session channel
    /// (`grant_spin_hits + grant_parks` counts every grant wait).
    pub grant_parks: u64,
}

impl ObsCounters {
    /// Accumulate `other` into `self`, field by field. A multi-tenant
    /// host sums per-service counter snapshots into one machine-wide
    /// rollup with this; every field is a monotonic total, so the sum
    /// is exact. The destructured pattern makes adding a field without
    /// extending the merge a compile error.
    pub fn merge(&mut self, other: &ObsCounters) {
        let ObsCounters {
            timeouts,
            batches,
            batch_items,
            deadlock_victims,
            sync_growth_granted,
            sync_growth_denied,
            depot_reclaim_sweeps,
            depot_reclaimed_slots,
            journal_recorded,
            journal_dropped,
            watchdog_restarts,
            clients_evicted,
            shed_engaged,
            shed_released,
            shed_rejected,
            faults_injected,
            remote_cancels,
            failover_probes,
            epoch_bumps,
            fenced_requests,
            degraded_batches,
            grant_spin_hits,
            grant_parks,
        } = other;
        self.timeouts += timeouts;
        self.batches += batches;
        self.batch_items += batch_items;
        self.deadlock_victims += deadlock_victims;
        self.sync_growth_granted += sync_growth_granted;
        self.sync_growth_denied += sync_growth_denied;
        self.depot_reclaim_sweeps += depot_reclaim_sweeps;
        self.depot_reclaimed_slots += depot_reclaimed_slots;
        self.journal_recorded += journal_recorded;
        self.journal_dropped += journal_dropped;
        self.watchdog_restarts += watchdog_restarts;
        self.clients_evicted += clients_evicted;
        self.shed_engaged += shed_engaged;
        self.shed_released += shed_released;
        self.shed_rejected += shed_rejected;
        self.faults_injected += faults_injected;
        self.remote_cancels += remote_cancels;
        self.failover_probes += failover_probes;
        self.epoch_bumps += epoch_bumps;
        self.fenced_requests += fenced_requests;
        self.degraded_batches += degraded_batches;
        self.grant_spin_hits += grant_spin_hits;
        self.grant_parks += grant_parks;
    }
}

/// One tuning interval, compacted for the wire from the service's
/// [`IntervalReport`] log. `seq` is the interval's position in the
/// monotonic report sequence, so a poller can resume from
/// `next_tick_seq` and never re-copy history.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TuningTick {
    /// Monotonic interval sequence number (0-based since start).
    pub seq: u64,
    /// Why the tuner chose its target.
    pub reason: TuningReason,
    /// The tuner's goal for the pool, in bytes.
    pub target_bytes: u64,
    /// Pool size the decision was computed against.
    pub current_bytes: u64,
    /// Pool size after applying the decision.
    pub lock_bytes_after: u64,
    /// Bytes taken from donors/overflow to fund growth.
    pub funded_bytes: u64,
    /// Bytes released back by shrinking.
    pub released_bytes: u64,
    /// `lockPercentPerApplication` recomputed at this tuning point.
    pub app_percent: f64,
}

impl TuningTick {
    /// Compact `report` (interval number `seq`) for the wire.
    pub fn from_report(seq: u64, report: &IntervalReport) -> Self {
        TuningTick {
            seq,
            reason: report.decision.reason,
            target_bytes: report.decision.target_bytes,
            current_bytes: report.decision.current_bytes,
            lock_bytes_after: report.lock_bytes_after,
            funded_bytes: report.funded_bytes,
            released_bytes: report.released_bytes,
            app_percent: report.decision.app_percent,
        }
    }
}

/// One evented I/O shard's counters, as surfaced in the Metrics frame
/// and `locktune-top`. Empty for in-process scrapes and the threaded
/// server (which has no I/O shards); the evented TCP server patches a
/// row per shard into [`MetricsSnapshot::io_shards`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoShardStats {
    /// Shard index (0-based).
    pub shard: u32,
    /// Connections this shard currently owns.
    pub connections: u64,
    /// eventfd doorbell wakeups delivered (grant/abort crossings from
    /// service threads plus new-connection handoffs).
    pub wakeups: u64,
    /// `writev` syscalls issued.
    pub writev_calls: u64,
    /// Reply frames those calls carried — `writev_frames /
    /// writev_calls` is the coalescing ratio.
    pub writev_frames: u64,
    /// High-water mark of any one connection's write-buffer backlog,
    /// in bytes (the slow-client eviction trigger).
    pub write_buf_hwm: u64,
    /// Waits for socket readiness resolved by the shard's spin (a
    /// zero-timeout poll found work), without blocking in `epoll_wait`.
    pub spin_hits: u64,
    /// Waits that blocked in `epoll_wait`. An idle or slowly-paced
    /// shard shows `parks` ≈ requests and `spin_hits` ≈ 0.
    pub parks: u64,
}

/// Everything `LockService::observe` returns and opcode `0x88`
/// carries: counters, gauges, merged histograms, the drained journal
/// tail and the new tuning ticks since the caller's cursor.
///
/// Histogram units: `lock_wait_micros` and `sync_stall_micros` are
/// microseconds, `latch_hold_nanos` is nanoseconds (shard latch holds
/// are far sub-microsecond), `batch_size` is items per batch.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Milliseconds since the service started.
    pub uptime_ms: u64,
    /// Aggregated lock-manager counters across all shards.
    pub lock_stats: LockStats,
    /// Instrumentation-layer counters.
    pub counters: ObsCounters,
    /// Lock pool size in bytes.
    pub pool_bytes: u64,
    /// Total lock-structure slots in the pool.
    pub pool_slots_total: u64,
    /// Allocated slots (atomic mirror; exact at quiescence).
    pub pool_slots_used: u64,
    /// Applications with a live session.
    pub connected_apps: u64,
    /// Current externalized `lockPercentPerApplication`
    /// (`P·(1−(x/100)³)`).
    pub app_percent: f64,
    /// Lower edge of the tuner's free-fraction target band
    /// (`minFreeLockMemory`).
    pub min_free_fraction: f64,
    /// Upper edge of the band (`maxFreeLockMemory`).
    pub max_free_fraction: f64,
    /// Current free fraction of the pool.
    pub free_fraction: f64,
    /// Tuning intervals run since start.
    pub tuning_intervals: u64,
    /// Intervals whose decision grew the pool.
    pub grow_decisions: u64,
    /// Intervals whose decision shrank the pool.
    pub shrink_decisions: u64,
    /// High-water mark of the server's reply queues, in frames (zero
    /// for in-process scrapes; filled in by the TCP server).
    pub reply_queue_hwm: u64,
    /// The node's current partition-map fence epoch (zero for
    /// in-process scrapes and servers not under a cluster supervisor;
    /// filled in by the TCP server like `reply_queue_hwm`).
    pub fence_epoch: u64,
    /// Time from queueing to resolution of blocked lock requests (µs).
    pub lock_wait_micros: HistogramSnapshot,
    /// Shard latch hold times, sampled 1-in-64 (ns).
    pub latch_hold_nanos: HistogramSnapshot,
    /// Items per `lock_many` batch.
    pub batch_size: HistogramSnapshot,
    /// Stall time of requests that triggered synchronous growth (µs).
    pub sync_stall_micros: HistogramSnapshot,
    /// Journal events drained by this scrape (destructive: each event
    /// is delivered to exactly one scraper).
    pub events: Vec<JournalEvent>,
    /// Sequence the next journal event will carry; `events` plus
    /// `counters.journal_dropped` account for every lower sequence.
    pub next_event_seq: u64,
    /// Tuning intervals since the caller's `reports_since` cursor
    /// (bounded by the service's report-log capacity).
    pub ticks: Vec<TuningTick>,
    /// Cursor to pass as `reports_since` on the next scrape.
    pub next_tick_seq: u64,
    /// Per-I/O-shard counters (evented TCP server only; empty
    /// elsewhere, exactly like `reply_queue_hwm` is zero).
    pub io_shards: Vec<IoShardStats>,
}

impl MetricsSnapshot {
    /// The paper's MAXLOCKS attenuation input `x`: lock memory used as
    /// a percentage of the pool.
    pub fn used_percent(&self) -> f64 {
        if self.pool_slots_total == 0 {
            0.0
        } else {
            100.0 * self.pool_slots_used as f64 / self.pool_slots_total as f64
        }
    }

    /// True when the free fraction sits inside the tuner's target band.
    pub fn in_free_band(&self) -> bool {
        self.free_fraction >= self.min_free_fraction && self.free_fraction <= self.max_free_fraction
    }
}
