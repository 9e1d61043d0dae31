//! Fixed-capacity lock-free MPSC ring of typed service events.
//!
//! Writers are the service's worker/background threads; the single
//! consumer is whoever scrapes (`LockService::observe`, and through it
//! the wire endpoint). Recording is wait-free for writers in the
//! common case: claim a slot with one `fetch_add` CAS loop, store the
//! packed event, publish it by writing the slot's sequence tag. When
//! the ring is full the event is **dropped** (and counted) rather than
//! overwriting — an overwriting broadcast ring would let a lapped
//! writer tear a slot a reader is decoding, and losing the *newest*
//! event under scrape starvation is a better failure mode for a
//! diagnostic journal than corrupting delivered ones. Sequence numbers
//! are gap-free over *recorded* events, so a consumer sees strictly
//! increasing `seq` and can detect nothing except drops (exposed via
//! [`EventJournal::dropped`]).
//!
//! Draining is destructive and single-consumer (serialized by an
//! internal mutex): each published event is delivered exactly once.
//!
//! The journal takes timestamps as a parameter (milliseconds since
//! some caller-chosen epoch) so it stays clock-free and deterministic
//! under test.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use locktune_lockmgr::{AppId, TableId};

/// Default journal capacity (events). Power of two; plenty for a
/// scraper polling at dashboard cadence — resizes and escalations are
/// interval-scale, not per-request.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 1024;

/// What happened. Everything the paper's figures annotate: escalation
/// points, deadlock victims, synchronous growth, tuner resizes, plus
/// the degraded-mode and cluster events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A lock escalation ran (row locks collapsed to a table lock).
    Escalation {
        /// Application whose locks escalated.
        app: AppId,
        /// Table that received the table lock.
        table: TableId,
        /// Whether the resulting table lock was exclusive.
        exclusive: bool,
    },
    /// The deadlock sweeper chose and aborted this victim.
    DeadlockVictim {
        /// The aborted application.
        app: AppId,
    },
    /// A dry pool grew synchronously mid-request.
    SyncGrowth {
        /// Bytes granted.
        granted_bytes: u64,
    },
    /// The tuning thread resized the pool.
    TunerResize {
        /// Pool bytes before the interval.
        from_bytes: u64,
        /// Pool bytes after applying the decision.
        to_bytes: u64,
    },
    /// Reserved, never recorded: the allocator's retired dry-pool sweep
    /// of sibling caches. Kept so wire tag 4 keeps its meaning.
    DepotReclaim {
        /// Slots the sweep reclaimed.
        slots: u64,
    },
    /// A background job (tuning interval or deadlock sweep) panicked,
    /// and the service's background loop recovered in place.
    WatchdogRestart {
        /// Which thread was restarted.
        thread: ThreadRole,
    },
    /// The server evicted a client whose reply queue stayed full past
    /// the eviction deadline.
    ClientEvicted {
        /// The evicted application.
        app: AppId,
    },
    /// Sustained pool exhaustion engaged shed mode: new lock requests
    /// are rejected with a retryable error until pressure clears.
    ShedEngaged {
        /// `OutOfLockMemory` errors observed in the window that
        /// tripped the threshold.
        ooms: u64,
    },
    /// Shed mode released: an interval passed with no exhaustion and
    /// the pool has free memory again.
    ShedReleased,
    /// Faults deliberately injected at one site since the previous
    /// `FaultInjected` event for that site (only under the `faults`
    /// feature with an armed injector).
    FaultInjected {
        /// `locktune_faults::FaultSite::index()` of the site.
        site: u8,
        /// Injections since the last event for this site.
        count: u64,
    },
    /// A cluster deadlock detector cancelled this application's wait
    /// remotely (cross-node cycle victim) and it was aborted.
    RemoteCancel {
        /// The aborted application.
        app: AppId,
    },
    /// The cluster supervisor advanced this node's fence epoch (the
    /// partition map changed: a peer died, or a rejoin completed).
    EpochBump {
        /// The fence epoch after the bump.
        epoch: u64,
    },
    /// A lock request carrying a stale partition-map epoch was fenced
    /// with `WrongEpoch` instead of granted.
    RequestFenced {
        /// The stale epoch the request carried.
        epoch: u64,
    },
}

/// Background job named by a [`EventKind::WatchdogRestart`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadRole {
    /// The STMM tuning interval.
    Tuner,
    /// The deadlock sweep.
    Sweeper,
}

/// One drained journal entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalEvent {
    /// Gap-free sequence number (0-based over recorded events).
    pub seq: u64,
    /// Milliseconds since the journal owner's epoch (service start).
    pub at_ms: u64,
    /// The event.
    pub kind: EventKind,
}

// Packed slot layout: words[0] = tag, words[1] = at_ms,
// words[2..4] = kind-specific payload.
const TAG_ESCALATION: u64 = 0;
const TAG_DEADLOCK_VICTIM: u64 = 1;
const TAG_SYNC_GROWTH: u64 = 2;
const TAG_TUNER_RESIZE: u64 = 3;
const TAG_DEPOT_RECLAIM: u64 = 4;
const TAG_WATCHDOG_RESTART: u64 = 5;
const TAG_CLIENT_EVICTED: u64 = 6;
const TAG_SHED_ENGAGED: u64 = 7;
const TAG_SHED_RELEASED: u64 = 8;
const TAG_FAULT_INJECTED: u64 = 9;
const TAG_REMOTE_CANCEL: u64 = 10;
const TAG_EPOCH_BUMP: u64 = 11;
const TAG_REQUEST_FENCED: u64 = 12;

fn pack(kind: EventKind) -> (u64, u64, u64) {
    match kind {
        EventKind::Escalation {
            app,
            table,
            exclusive,
        } => (
            TAG_ESCALATION,
            ((app.0 as u64) << 32) | table.0 as u64,
            exclusive as u64,
        ),
        EventKind::DeadlockVictim { app } => (TAG_DEADLOCK_VICTIM, app.0 as u64, 0),
        EventKind::SyncGrowth { granted_bytes } => (TAG_SYNC_GROWTH, granted_bytes, 0),
        EventKind::TunerResize {
            from_bytes,
            to_bytes,
        } => (TAG_TUNER_RESIZE, from_bytes, to_bytes),
        EventKind::DepotReclaim { slots } => (TAG_DEPOT_RECLAIM, slots, 0),
        EventKind::WatchdogRestart { thread } => (
            TAG_WATCHDOG_RESTART,
            match thread {
                ThreadRole::Tuner => 0,
                ThreadRole::Sweeper => 1,
            },
            0,
        ),
        EventKind::ClientEvicted { app } => (TAG_CLIENT_EVICTED, app.0 as u64, 0),
        EventKind::ShedEngaged { ooms } => (TAG_SHED_ENGAGED, ooms, 0),
        EventKind::ShedReleased => (TAG_SHED_RELEASED, 0, 0),
        EventKind::FaultInjected { site, count } => (TAG_FAULT_INJECTED, site as u64, count),
        EventKind::RemoteCancel { app } => (TAG_REMOTE_CANCEL, app.0 as u64, 0),
        EventKind::EpochBump { epoch } => (TAG_EPOCH_BUMP, epoch, 0),
        EventKind::RequestFenced { epoch } => (TAG_REQUEST_FENCED, epoch, 0),
    }
}

fn unpack(tag: u64, w2: u64, w3: u64) -> EventKind {
    match tag {
        TAG_ESCALATION => EventKind::Escalation {
            app: AppId((w2 >> 32) as u32),
            table: TableId(w2 as u32),
            exclusive: w3 != 0,
        },
        TAG_DEADLOCK_VICTIM => EventKind::DeadlockVictim {
            app: AppId(w2 as u32),
        },
        TAG_SYNC_GROWTH => EventKind::SyncGrowth { granted_bytes: w2 },
        TAG_TUNER_RESIZE => EventKind::TunerResize {
            from_bytes: w2,
            to_bytes: w3,
        },
        TAG_WATCHDOG_RESTART => EventKind::WatchdogRestart {
            thread: if w2 == 0 {
                ThreadRole::Tuner
            } else {
                ThreadRole::Sweeper
            },
        },
        TAG_CLIENT_EVICTED => EventKind::ClientEvicted {
            app: AppId(w2 as u32),
        },
        TAG_SHED_ENGAGED => EventKind::ShedEngaged { ooms: w2 },
        TAG_SHED_RELEASED => EventKind::ShedReleased,
        TAG_FAULT_INJECTED => EventKind::FaultInjected {
            site: w2 as u8,
            count: w3,
        },
        TAG_REMOTE_CANCEL => EventKind::RemoteCancel {
            app: AppId(w2 as u32),
        },
        TAG_EPOCH_BUMP => EventKind::EpochBump { epoch: w2 },
        TAG_REQUEST_FENCED => EventKind::RequestFenced { epoch: w2 },
        // Tags only ever come from `pack`, so anything else is
        // unreachable; map it to the least information-bearing kind
        // rather than panicking on a diagnostics path.
        _ => EventKind::DepotReclaim { slots: w2 },
    }
}

/// One ring slot. `published` holds `claim_seq + 1` once the payload
/// words are valid (0 means "never written"), giving writers a
/// per-slot release/acquire handshake with the consumer.
#[derive(Debug)]
struct Slot {
    published: AtomicU64,
    words: [AtomicU64; 4],
}

impl Slot {
    fn new() -> Self {
        Slot {
            published: AtomicU64::new(0),
            words: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// The MPSC event ring. See the module docs for the protocol.
#[derive(Debug)]
pub struct EventJournal {
    slots: Box<[Slot]>,
    mask: u64,
    /// Next sequence to claim; also the count of events recorded.
    head: AtomicU64,
    /// Next sequence to consume; slots below it are reusable.
    tail: AtomicU64,
    /// Events rejected because the ring was full.
    dropped: AtomicU64,
    /// Serializes drains: the slot protocol supports one consumer.
    consumer: Mutex<()>,
}

impl Default for EventJournal {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_JOURNAL_CAPACITY)
    }
}

impl EventJournal {
    /// Create a journal holding up to `capacity` undelivered events
    /// (rounded up to a power of two, minimum 2).
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.next_power_of_two().max(2);
        EventJournal {
            slots: (0..cap).map(|_| Slot::new()).collect(),
            mask: cap as u64 - 1,
            head: AtomicU64::new(0),
            tail: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            consumer: Mutex::new(()),
        }
    }

    /// Slots in the ring.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Record an event stamped `at_ms`. Returns `false` (and counts a
    /// drop) when the ring is full of undelivered events.
    pub fn record(&self, at_ms: u64, kind: EventKind) -> bool {
        let cap = self.slots.len() as u64;
        let mut seq = self.head.load(Ordering::Relaxed);
        loop {
            // `tail` only moves forward, so a passing check stays valid
            // after the CAS claims `seq`: the previous occupant of the
            // slot (seq - cap) has been consumed.
            if seq.wrapping_sub(self.tail.load(Ordering::Acquire)) >= cap {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                return false;
            }
            match self.head.compare_exchange_weak(
                seq,
                seq + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(cur) => seq = cur,
            }
        }
        let slot = &self.slots[(seq & self.mask) as usize];
        let (tag, w2, w3) = pack(kind);
        slot.words[0].store(tag, Ordering::Relaxed);
        slot.words[1].store(at_ms, Ordering::Relaxed);
        slot.words[2].store(w2, Ordering::Relaxed);
        slot.words[3].store(w3, Ordering::Relaxed);
        // Publish: the consumer's Acquire load of `published` makes the
        // word stores above visible before it decodes them.
        slot.published.store(seq + 1, Ordering::Release);
        true
    }

    /// Drain up to `max` published events into `out` (appended),
    /// returning how many were delivered. Stops early at the first
    /// slot a slow writer has claimed but not yet published — events
    /// are delivered strictly in sequence order, exactly once.
    pub fn drain(&self, out: &mut Vec<JournalEvent>, max: usize) -> usize {
        let _guard = self.consumer.lock().unwrap_or_else(|e| e.into_inner());
        let mut seq = self.tail.load(Ordering::Relaxed);
        let mut delivered = 0;
        while delivered < max {
            let slot = &self.slots[(seq & self.mask) as usize];
            if slot.published.load(Ordering::Acquire) != seq + 1 {
                break;
            }
            let tag = slot.words[0].load(Ordering::Relaxed);
            let at_ms = slot.words[1].load(Ordering::Relaxed);
            let w2 = slot.words[2].load(Ordering::Relaxed);
            let w3 = slot.words[3].load(Ordering::Relaxed);
            out.push(JournalEvent {
                seq,
                at_ms,
                kind: unpack(tag, w2, w3),
            });
            seq += 1;
            delivered += 1;
            // Advance after the payload reads: the Release store keeps
            // them ordered before the slot becomes writable again.
            self.tail.store(seq, Ordering::Release);
        }
        delivered
    }

    /// Events recorded since creation (excludes drops); also the next
    /// sequence number a new event will claim.
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Events rejected because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Published-but-undrained events (approximate under concurrency).
    pub fn len(&self) -> u64 {
        self.head
            .load(Ordering::Relaxed)
            .saturating_sub(self.tail.load(Ordering::Relaxed))
    }

    /// True when nothing is waiting to be drained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_roundtrip() {
        let kinds = [
            EventKind::Escalation {
                app: AppId(7),
                table: TableId(u32::MAX),
                exclusive: true,
            },
            EventKind::Escalation {
                app: AppId(u32::MAX),
                table: TableId(0),
                exclusive: false,
            },
            EventKind::DeadlockVictim { app: AppId(42) },
            EventKind::SyncGrowth {
                granted_bytes: u64::MAX,
            },
            EventKind::TunerResize {
                from_bytes: 1,
                to_bytes: 2,
            },
            EventKind::DepotReclaim { slots: 99 },
            EventKind::WatchdogRestart {
                thread: ThreadRole::Tuner,
            },
            EventKind::WatchdogRestart {
                thread: ThreadRole::Sweeper,
            },
            EventKind::ClientEvicted { app: AppId(3) },
            EventKind::ShedEngaged { ooms: 17 },
            EventKind::ShedReleased,
            EventKind::FaultInjected { site: 4, count: 2 },
            EventKind::RemoteCancel { app: AppId(77) },
            EventKind::EpochBump { epoch: u64::MAX },
            EventKind::RequestFenced { epoch: 5 },
        ];
        for kind in kinds {
            let (tag, w2, w3) = pack(kind);
            assert_eq!(unpack(tag, w2, w3), kind);
        }
    }

    #[test]
    fn record_drain_fifo() {
        let j = EventJournal::with_capacity(8);
        for i in 0..5u64 {
            assert!(j.record(i, EventKind::SyncGrowth { granted_bytes: i }));
        }
        let mut out = Vec::new();
        assert_eq!(j.drain(&mut out, 100), 5);
        for (i, e) in out.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
            assert_eq!(e.at_ms, i as u64);
            assert_eq!(
                e.kind,
                EventKind::SyncGrowth {
                    granted_bytes: i as u64
                }
            );
        }
        assert!(j.is_empty());
        assert_eq!(j.dropped(), 0);
    }

    #[test]
    fn full_ring_drops_newest() {
        let j = EventJournal::with_capacity(4);
        for i in 0..6u64 {
            j.record(0, EventKind::SyncGrowth { granted_bytes: i });
        }
        assert_eq!(j.recorded(), 4);
        assert_eq!(j.dropped(), 2);
        let mut out = Vec::new();
        assert_eq!(j.drain(&mut out, 100), 4);
        // The *oldest* events survived.
        assert_eq!(
            out[0].kind,
            EventKind::SyncGrowth { granted_bytes: 0 },
            "drop-on-full keeps delivered history intact"
        );
        // Space freed: recording works again and seqs continue gap-free
        // over recorded events.
        assert!(j.record(9, EventKind::DeadlockVictim { app: AppId(1) }));
        out.clear();
        j.drain(&mut out, 100);
        assert_eq!(out[0].seq, 4);
    }

    #[test]
    fn drain_respects_max() {
        let j = EventJournal::with_capacity(8);
        for _ in 0..6 {
            j.record(0, EventKind::DepotReclaim { slots: 1 });
        }
        let mut out = Vec::new();
        assert_eq!(j.drain(&mut out, 2), 2);
        assert_eq!(j.len(), 4);
        assert_eq!(j.drain(&mut out, 100), 4);
        assert_eq!(out.len(), 6);
    }
}
