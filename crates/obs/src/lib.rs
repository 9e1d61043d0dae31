#![warn(missing_docs)]

//! `locktune-obs` — always-on telemetry for the live lock service.
//!
//! The simulation harness records into `locktune-metrics` offline; the
//! *live* service needs the same quantities without perturbing the hot
//! path. This crate provides the three pieces the service threads
//! through itself:
//!
//! * [`Obs`] — per-shard, cache-padded [`AtomicHistogram`] blocks plus
//!   the atomic twin of [`ObsCounters`], all lock-free on record and
//!   merged only at scrape time;
//! * [`EventJournal`] — a fixed-capacity lock-free MPSC ring of typed
//!   [`EventKind`]s (escalations, deadlock victims, sync growth, tuner
//!   resizes, …) drainable without stopping the world;
//! * [`MetricsSnapshot`] — the plain-data scrape result, with a
//!   [`prom::render`] Prometheus-style text exposition.
//!
//! Each counter is declared once, in a `counters!` table in
//! [`snapshot`]: its field name, help text and [`Export`] (how the page
//! shows it). The table generates [`ObsCounters`] (and
//! [`IoShardStats`]) with `merge` and a `(name, help, value)` iterator,
//! and the atomic twin the live code records into. Adding a counter is
//! one table line and one `fetch_add` at the site that counts it; the
//! Metrics frame's `record!` line for the struct then needs the field
//! too (DESIGN.md §10.1).
//!
//! Overhead discipline (methodology in DESIGN.md §10): counters that
//! `LockStats` already tracks are *not* double-counted here — they are
//! read from the shards at scrape time. The only hot-path additions
//! are (a) wait-path timing, which rides a path that already parks,
//! and (b) shard-latch hold timing, sampled one op in
//! [`LATCH_SAMPLE_PERIOD`] so the two `Instant::now()` calls amortize
//! to well under a nanosecond per lock op.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use locktune_metrics::{AtomicHistogram, HistogramSnapshot};

pub mod journal;
pub mod prom;
pub mod snapshot;

pub use journal::{EventJournal, EventKind, JournalEvent, ThreadRole, DEFAULT_JOURNAL_CAPACITY};
pub use snapshot::{
    AtomicIoShardStats, Export, IoShardStats, MetricsSnapshot, ObsCounters, TuningTick,
};

use locktune_lockmgr::{AppId, TableId};
use snapshot::AtomicObsCounters;

/// Shard-latch holds are timed once every this many lock operations
/// per session (a power of two so the tick test is a mask).
pub const LATCH_SAMPLE_PERIOD: u64 = 64;

/// One more in `counter`: every hot-path record is this relaxed add.
#[inline]
fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

/// Pads a value to its own cache line so one shard's histogram writes
/// never invalidate a neighbour shard's line.
#[derive(Debug, Default)]
#[repr(align(64))]
struct CachePadded<T>(T);

/// Per-shard instrumentation block. Written only by threads operating
/// on that shard; merged across shards at scrape time.
#[derive(Debug, Default)]
struct ShardObs {
    /// Queue-to-resolution time of blocked lock requests (µs).
    lock_wait: AtomicHistogram,
    /// Sampled shard-latch hold times (ns).
    latch_hold: AtomicHistogram,
    /// Grant waits resolved by the spin, without parking.
    grant_spin_hits: AtomicU64,
    /// Grant waits that parked on the session's sink.
    grant_parks: AtomicU64,
}

/// The service's instrumentation root: one per [`LockService`]
/// (`LockService` owns it; sessions and background threads record into
/// it through shared references).
///
/// [`LockService`]: https://docs.rs/locktune-service
#[derive(Debug)]
pub struct Obs {
    start: Instant,
    shards: Box<[CachePadded<ShardObs>]>,
    journal: EventJournal,
    batch_size: AtomicHistogram,
    sync_stall: AtomicHistogram,
    counters: AtomicObsCounters,
}

impl Obs {
    /// Instrumentation for a service with `shards` lock-manager shards
    /// and the default journal capacity.
    pub fn new(shards: usize) -> Self {
        Self::with_journal_capacity(shards, DEFAULT_JOURNAL_CAPACITY)
    }

    /// [`Obs::new`] with an explicit journal capacity.
    pub fn with_journal_capacity(shards: usize, journal_capacity: usize) -> Self {
        Obs {
            start: Instant::now(),
            shards: (0..shards.max(1).next_power_of_two())
                .map(|_| CachePadded::default())
                .collect(),
            journal: EventJournal::with_capacity(journal_capacity),
            batch_size: AtomicHistogram::new(),
            sync_stall: AtomicHistogram::new(),
            counters: AtomicObsCounters::default(),
        }
    }

    /// Milliseconds since this `Obs` (i.e. the service) started.
    pub fn now_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }

    /// The service-start instant (timestamp epoch for wait timing).
    pub fn start(&self) -> Instant {
        self.start
    }

    // -- hot-path recording ----------------------------------------------

    /// `shard`'s instrumentation block (index masked: `Obs` holds the
    /// service's shard count rounded up to a power of two, so every
    /// shard has a block of its own).
    #[inline]
    fn shard(&self, shard: usize) -> &ShardObs {
        &self.shards[shard & (self.shards.len() - 1)].0
    }

    /// A blocked lock request on `shard` resolved after `micros` µs.
    #[inline]
    pub fn record_wait(&self, shard: usize, micros: u64) {
        self.shard(shard).lock_wait.record(micros);
    }

    /// A sampled shard-latch section on `shard` lasted `nanos` ns.
    #[inline]
    pub fn record_latch(&self, shard: usize, nanos: u64) {
        self.shard(shard).latch_hold.record(nanos);
    }

    /// A grant wait on `shard` left the spin-then-park policy: `spun`
    /// when a probe caught the grant, otherwise the session parked.
    /// Kept in the shard's block, which the wait path already writes.
    #[inline]
    pub fn record_grant_wake(&self, shard: usize, spun: bool) {
        let block = self.shard(shard);
        bump(if spun {
            &block.grant_spin_hits
        } else {
            &block.grant_parks
        });
    }

    /// A lock wait ended in `LOCKTIMEOUT`.
    #[inline]
    pub fn record_timeout(&self) {
        bump(&self.counters.timeouts);
    }

    /// A `lock_many` batch of `items` requests started executing.
    #[inline]
    pub fn record_batch(&self, items: u64) {
        let c = &self.counters;
        bump(&c.batches);
        c.batch_items.fetch_add(items, Ordering::Relaxed);
        self.batch_size.record(items);
    }

    // -- rare-event recording --------------------------------------------

    /// Count one event in `counter` and journal it as `kind`.
    fn note(&self, counter: &AtomicU64, kind: EventKind) {
        bump(counter);
        self.journal.record(self.now_ms(), kind);
    }

    /// A lock escalation ran (journaled; the counter lives in
    /// `LockStats::escalations`).
    pub fn record_escalation(&self, app: AppId, table: TableId, exclusive: bool) {
        self.journal.record(
            self.now_ms(),
            EventKind::Escalation {
                app,
                table,
                exclusive,
            },
        );
    }

    /// The deadlock sweeper aborted `app`.
    pub fn record_victim(&self, app: AppId) {
        self.note(
            &self.counters.deadlock_victims,
            EventKind::DeadlockVictim { app },
        );
    }

    /// A remote cluster deadlock detector cancelled `app`'s wait and
    /// it was aborted (the cross-node twin of [`Obs::record_victim`]).
    pub fn record_remote_cancel(&self, app: AppId) {
        self.note(
            &self.counters.remote_cancels,
            EventKind::RemoteCancel { app },
        );
    }

    /// A synchronous-growth attempt stalled its request for `micros`
    /// µs and was granted `granted_bytes` (0 = denied).
    pub fn record_sync_stall(&self, micros: u64, granted_bytes: u64) {
        self.sync_stall.record(micros);
        if granted_bytes > 0 {
            self.note(
                &self.counters.sync_growth_granted,
                EventKind::SyncGrowth { granted_bytes },
            );
        } else {
            bump(&self.counters.sync_growth_denied);
        }
    }

    /// The tuning thread resized the pool.
    pub fn record_tuner_resize(&self, from_bytes: u64, to_bytes: u64) {
        self.journal.record(
            self.now_ms(),
            EventKind::TunerResize {
                from_bytes,
                to_bytes,
            },
        );
    }

    /// A panicked background job was recovered from in place.
    pub fn record_watchdog_restart(&self, thread: journal::ThreadRole) {
        self.note(
            &self.counters.watchdog_restarts,
            EventKind::WatchdogRestart { thread },
        );
    }

    /// The server evicted `app` for a reply queue stuck at capacity.
    pub fn record_client_evicted(&self, app: AppId) {
        self.note(
            &self.counters.clients_evicted,
            EventKind::ClientEvicted { app },
        );
    }

    /// Shed mode engaged after `ooms` exhaustion errors in one window.
    pub fn record_shed_engaged(&self, ooms: u64) {
        self.note(&self.counters.shed_engaged, EventKind::ShedEngaged { ooms });
    }

    /// Shed mode released.
    pub fn record_shed_released(&self) {
        self.note(&self.counters.shed_released, EventKind::ShedReleased);
    }

    /// A lock request was rejected because shed mode is engaged.
    #[inline]
    pub fn record_shed_rejected(&self) {
        bump(&self.counters.shed_rejected);
    }

    /// Count `delta` new injections at fault site `site`
    /// (`FaultSite::index()`) and journal them as one
    /// [`EventKind::FaultInjected`]. The service calls this from the
    /// tuning interval with the delta since its previous mirror of the
    /// injector's counters; a zero delta records nothing.
    pub fn note_faults_injected(&self, site: u8, delta: u64) {
        if delta == 0 {
            return;
        }
        let injected = &self.counters.faults_injected;
        injected.fetch_add(delta, Ordering::Relaxed);
        let kind = EventKind::FaultInjected { site, count: delta };
        self.journal.record(self.now_ms(), kind);
    }

    /// A cluster-supervisor health probe was answered.
    #[inline]
    pub fn record_failover_probe(&self) {
        bump(&self.counters.failover_probes);
    }

    /// The supervisor advanced this node's fence epoch to `epoch`.
    pub fn record_epoch_bump(&self, epoch: u64) {
        self.note(&self.counters.epoch_bumps, EventKind::EpochBump { epoch });
    }

    /// A lock request carrying stale `epoch` was fenced with
    /// `WrongEpoch` instead of granted.
    pub fn record_request_fenced(&self, epoch: u64) {
        self.note(
            &self.counters.fenced_requests,
            EventKind::RequestFenced { epoch },
        );
    }

    /// A lock batch was served while this node held reassigned slots.
    #[inline]
    pub fn record_degraded_batch(&self) {
        bump(&self.counters.degraded_batches);
    }

    // -- scrape-time reads -----------------------------------------------

    /// The event journal (drain with [`EventJournal::drain`]).
    pub fn journal(&self) -> &EventJournal {
        &self.journal
    }

    /// Freeze the instrumentation counters.
    pub fn counters(&self) -> ObsCounters {
        let mut c = self.counters.load();
        c.journal_recorded = self.journal.recorded();
        c.journal_dropped = self.journal.dropped();
        for s in self.shards.iter() {
            c.grant_spin_hits += s.0.grant_spin_hits.load(Ordering::Relaxed);
            c.grant_parks += s.0.grant_parks.load(Ordering::Relaxed);
        }
        c
    }

    /// Merge the per-shard lock-wait histograms.
    pub fn lock_wait_micros(&self) -> HistogramSnapshot {
        let mut acc = HistogramSnapshot::default();
        for s in self.shards.iter() {
            s.0.lock_wait.merge_into(&mut acc);
        }
        acc
    }

    /// Merge the per-shard latch-hold histograms (sampled, see
    /// [`LATCH_SAMPLE_PERIOD`]).
    pub fn latch_hold_nanos(&self) -> HistogramSnapshot {
        let mut acc = HistogramSnapshot::default();
        for s in self.shards.iter() {
            s.0.latch_hold.merge_into(&mut acc);
        }
        acc
    }

    /// Snapshot the batch-size histogram.
    pub fn batch_size(&self) -> HistogramSnapshot {
        self.batch_size.snapshot()
    }

    /// Snapshot the sync-growth stall histogram.
    pub fn sync_stall_micros(&self) -> HistogramSnapshot {
        self.sync_stall.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_shard_histograms_merge() {
        let obs = Obs::new(4);
        obs.record_wait(0, 10);
        obs.record_wait(3, 1000);
        obs.record_latch(1, 200);
        let waits = obs.lock_wait_micros();
        assert_eq!(waits.count(), 2);
        assert_eq!(waits.max, 1000);
        assert_eq!(obs.latch_hold_nanos().count(), 1);
    }

    #[test]
    fn shard_index_is_masked() {
        // Out-of-range shard indices must not panic (belt and braces:
        // Obs is sized to the service's shard count).
        let obs = Obs::new(2);
        obs.record_wait(7, 1);
        assert_eq!(obs.lock_wait_micros().count(), 1);
    }

    #[test]
    fn each_of_three_shards_has_its_own_block() {
        let obs = Obs::new(3);
        for i in 0..3 {
            assert!(std::ptr::eq(obs.shard(i), &obs.shards[i].0));
        }
    }

    #[test]
    fn counters_and_events_flow() {
        let obs = Obs::new(1);
        obs.record_timeout();
        obs.record_batch(20);
        obs.record_victim(AppId(3));
        obs.record_sync_stall(50, 4096);
        obs.record_sync_stall(80, 0);
        obs.record_escalation(AppId(1), TableId(2), true);
        obs.record_tuner_resize(100, 200);
        obs.record_watchdog_restart(ThreadRole::Sweeper);
        obs.record_client_evicted(AppId(9));
        obs.record_shed_engaged(17);
        obs.record_shed_rejected();
        obs.record_shed_rejected();
        obs.record_shed_released();
        obs.note_faults_injected(0, 3);
        obs.note_faults_injected(2, 0); // zero delta → no event
        obs.record_remote_cancel(AppId(7));
        obs.record_failover_probe();
        obs.record_epoch_bump(2);
        obs.record_request_fenced(1);
        obs.record_degraded_batch();
        obs.record_grant_wake(0, true);
        obs.record_grant_wake(0, false);
        obs.record_grant_wake(0, false);

        // Every counter in the table was recorded once, except these.
        // victim + sync growth + escalation + resize + restart
        // + eviction + shed engage/release + fault + remote cancel
        // + epoch bump + request fenced = 12 journal events.
        #[rustfmt::skip]
        let expect = [
            ("batch_items", 20), ("depot_reclaim_sweeps", 0), ("depot_reclaimed_slots", 0),
            ("journal_recorded", 12), ("journal_dropped", 0), ("shed_rejected", 2),
            ("faults_injected", 3), ("grant_parks", 2),
        ];
        for (name, _, v) in obs.counters().iter() {
            let want = expect.iter().find(|e| e.0 == name).map_or(1, |e| e.1);
            assert_eq!(v, want, "{name}");
        }

        let mut events = Vec::new();
        obs.journal().drain(&mut events, 100);
        assert_eq!(events.len(), 12);
        assert!(matches!(
            events[4].kind,
            EventKind::WatchdogRestart {
                thread: ThreadRole::Sweeper
            }
        ));
        assert!(matches!(
            events[8].kind,
            EventKind::FaultInjected { site: 0, count: 3 }
        ));
        assert!(matches!(
            events[9].kind,
            EventKind::RemoteCancel { app: AppId(7) }
        ));
        assert!(matches!(events[10].kind, EventKind::EpochBump { epoch: 2 }));
        assert!(matches!(
            events[11].kind,
            EventKind::RequestFenced { epoch: 1 }
        ));
        assert_eq!(obs.batch_size().quantile(1.0), 20);
        assert_eq!(obs.sync_stall_micros().count(), 2);
    }
}
