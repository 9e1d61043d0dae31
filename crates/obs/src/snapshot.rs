//! Plain-data scrape results: everything a dashboard or the wire
//! endpoint needs, frozen at one instant, and the counter tables
//! (`counters!`) that declare each counter once.

use std::sync::atomic::{AtomicU64, Ordering};

use locktune_core::TuningReason;
use locktune_lockmgr::LockStats;
use locktune_memory::IntervalReport;
use locktune_metrics::HistogramSnapshot;

use crate::journal::JournalEvent;

/// How one counter shows on the Prometheus page ([`crate::prom`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Export {
    /// Its own counter family, by full name.
    Total(&'static str),
    /// The `site="…"` sample of a shared counter family: `(family,
    /// site)`. The family's `# HELP` is its first member's help.
    Site(&'static str, &'static str),
    /// Not on the page: reserved fields, and counts the page already
    /// shows from `LockStats`.
    Off,
}

/// Declares a counter table, one line per counter in wire order:
/// `field: "help", export;` with `export` one of `total` (family
/// `locktune_<field>_total`), `total(name)` (`locktune_<name>_total`),
/// `site(family, site)` (a sample of `locktune_<family>_total`) or
/// `off`. It generates the struct of `pub u64` fields with `COUNT`,
/// `EXPORT`, `merge`, a `(name, help, value)` iterator and `values_mut`,
/// and its atomic twin, which live code records into and whose `load`
/// freezes the struct. A key, `Name(key: Type, "help")`, is a plain
/// first field of the struct, passed to `load` and not counted.
macro_rules! counters {
    (@export $f:ident total) => {
        Export::Total(concat!("locktune_", stringify!($f), "_total"))
    };
    (@export $f:ident total($name:ident)) => {
        Export::Total(concat!("locktune_", stringify!($name), "_total"))
    };
    (@export $f:ident site($family:ident, $site:ident)) => {
        Export::Site(concat!("locktune_", stringify!($family), "_total"), stringify!($site))
    };
    (@export $f:ident off) => {
        Export::Off
    };
    (
        $(#[$meta:meta])* $name:ident $(($key:ident: $key_ty:ty, $key_help:literal))?,
        $(#[$twin_meta:meta])* $twin_vis:vis $twin:ident {
            $($f:ident: $help:literal, $export:ident $(($($arg:ident),+))?;)+
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct $name {
            $(#[doc = $key_help] pub $key: $key_ty,)?
            $(#[doc = $help] pub $f: u64,)+
        }

        impl $name {
            /// Counters in the table (the key field is not one).
            pub const COUNT: usize = [$(stringify!($f)),+].len();
            /// How each counter shows on the Prometheus page, in table
            /// order.
            pub const EXPORT: [Export; Self::COUNT] =
                [$(counters!(@export $f $export $(($($arg),+))?)),+];

            /// Accumulate `other` into `self`, counter by counter.
            pub fn merge(&mut self, other: &Self) {
                $(self.$f += other.$f;)+
            }

            /// `(name, help, value)` of every counter, in table order.
            pub fn iter(&self) -> impl Iterator<Item = (&'static str, &'static str, u64)> {
                [$((stringify!($f), $help, self.$f)),+].into_iter()
            }

            /// Every counter, writable, in table order.
            pub fn values_mut(&mut self) -> [&mut u64; Self::COUNT] {
                [$(&mut self.$f),+]
            }
        }

        $(#[$twin_meta])*
        #[derive(Debug, Default)]
        $twin_vis struct $twin {
            $(#[doc = $help] pub $f: AtomicU64,)+
        }

        impl $twin {
            #[doc = concat!("Freeze a [`", stringify!($name), "`] (relaxed loads).")]
            pub fn load(&self $(, $key: $key_ty)?) -> $name {
                $name { $($key,)? $($f: self.$f.load(Ordering::Relaxed),)+ }
            }
        }
    };
}

counters! {
    /// Monotonic counters kept by the instrumentation layer itself
    /// (quantities the per-shard `LockStats` don't track). A
    /// multi-tenant host or a cluster view sums snapshots with `merge`;
    /// every field is a monotonic total, so the sum is exact.
    ObsCounters,
    /// The atomics [`crate::Obs`] records into; the per-shard grant
    /// wake counts and the journal's totals are filled in at scrape.
    pub(crate) AtomicObsCounters {
        timeouts: "Lock waits that ended in LOCKTIMEOUT.", total;
        batches: "lock_many batches.", total;
        batch_items: "Items across all batches.", total;
        deadlock_victims: "Applications aborted by the deadlock sweeper.", total;
        sync_growth_granted: "Synchronous growth attempts granted.", total;
        sync_growth_denied: "Synchronous growth attempts denied (paged from LockStats).", off;
        depot_reclaim_sweeps: "Reserved, always 0: the allocator's retired sibling-cache sweep.", off;
        depot_reclaimed_slots: "Reserved, always 0, like depot_reclaim_sweeps.", off;
        journal_recorded: "Events recorded into the journal.", total(journal_events);
        journal_dropped: "Events dropped because the journal was full.", total;
        watchdog_restarts: "Panicked tuner/sweeper jobs recovered in place.", total;
        clients_evicted: "Clients evicted for a reply queue stuck at capacity.", total;
        shed_engaged: "Times shed mode engaged under sustained pool exhaustion.", total;
        shed_released: "Times shed mode released.", total;
        shed_rejected: "Lock requests rejected while shed mode was engaged.", total;
        faults_injected: "Deliberately injected faults (faults feature only).", total;
        remote_cancels: "Waits cancelled for a remote cluster deadlock detector.", total;
        failover_probes: "Cluster-supervisor health probes answered.", total;
        epoch_bumps: "Fence-epoch advances (partition-map changes applied).", total;
        fenced_requests: "Lock requests fenced with WrongEpoch for a stale epoch.", total;
        degraded_batches: "Batches served while holding slots reassigned from a dead peer.", total;
        grant_spin_hits: "Waits resolved by a spin probe, without parking the thread.", site(wake_spin_hits, grant);
        grant_parks: "Waits that parked in their blocking call.", site(wake_parks, grant);
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

counters! {
    /// One evented I/O shard's counters, as surfaced in the Metrics
    /// frame and `locktune-top`; the evented TCP server patches a row
    /// per shard into [`MetricsSnapshot::io_shards`]. `merge` sums
    /// `write_buf_hwm` too, which then bounds the largest backlog.
    IoShardStats(shard: u32, "Shard index (0-based)."),
    /// The atomics one evented I/O shard records into, on cache lines of
    /// their own: the shards' sets sit side by side and each writes its
    /// own on every loop and reply frame. 128 rather than 64: the
    /// adjacent-line prefetcher pulls lines in pairs.
    #[repr(align(128))]
    pub AtomicIoShardStats {
        connections: "Connections this shard currently owns.", off;
        wakeups: "eventfd doorbell wakeups (grant/abort crossings and new-connection handoffs).", off;
        writev_calls: "writev syscalls issued.", off;
        writev_frames: "Reply frames those calls carried (per call: the coalescing ratio).", off;
        write_buf_hwm: "High-water mark of one connection's write backlog, in bytes.", off;
        spin_hits: "Readiness waits the shard's spin resolved, without epoll_wait.", site(wake_spin_hits, io_shard);
        parks: "Readiness waits that blocked in epoll_wait.", site(wake_parks, io_shard);
    }
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
