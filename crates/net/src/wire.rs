//! The locktune binary wire protocol.
//!
//! Compact length-prefixed frames, little-endian integers throughout:
//!
//! ```text
//! +----------------+---------------------------------------------+
//! | u32 len        | payload (len bytes)                         |
//! +----------------+---------------------------------------------+
//!                    +--------+----------------+-----------------+
//!                    | u8 op  | u64 request id | body (op-specific)
//!                    +--------+----------------+-----------------+
//! ```
//!
//! Requests carry a client-chosen `request id`; the matching reply
//! echoes it. Ids are opaque to the server — they only need to be
//! unique among a connection's in-flight requests — which lets a
//! client **pipeline**: send many requests before reading any reply
//! and correlate by id as replies arrive. The server executes one
//! connection's requests strictly in arrival order (locks are
//! stateful; reordering would change what the transaction holds), so
//! replies are written in completion order, which for a single
//! connection equals arrival order.
//!
//! Every variable-length field is explicitly length-prefixed and every
//! decoder consumes its payload exactly: a truncated or oversized
//! frame, an unknown tag, or trailing garbage is a protocol error and
//! the peer drops the connection (the server then releases the
//! connection's locks, see the server docs).
//!
//! A transaction that knows its lock set up front should ship it as
//! one [`Request::LockBatch`] (up to [`MAX_BATCH`] resource/mode
//! pairs, one request id) and get back one [`Reply::BatchOutcomes`]
//! frame: one frame, one syscall and one reader→writer handoff per
//! *transaction* instead of per lock. Every `encode_*` function has an
//! `encode_*_into` twin writing into a caller-reused buffer — combined
//! with [`read_payload_into`] and [`decode_lock_batch_into`], the
//! steady-state encode/decode path performs **zero** heap allocation.

use locktune_core::TuningReason;
use locktune_lockmgr::{AppId, LockError, LockMode, LockOutcome, ResourceId, RowId, TableId};
use locktune_lockmgr::{LockStats, UnlockReport};
use locktune_metrics::{HistogramSnapshot, BUCKETS};
use locktune_obs::{
    EventKind, IoShardStats, JournalEvent, MetricsSnapshot, ObsCounters, ThreadRole, TuningTick,
};
use locktune_service::{BatchOutcome, ServiceError};
use locktune_tenants::{MachineRollup, TenantDonation, TenantRow};

/// Upper bound on a frame's payload (opcode + id + body). Large enough
/// for any fixed-layout message and a generous ping echo; small enough
/// that a hostile length prefix cannot balloon server memory.
pub const MAX_PAYLOAD: usize = 64 * 1024;

/// Bytes of payload before the body: opcode (1) + request id (8).
pub const HEADER_LEN: usize = 9;

/// Largest number of items in a [`Request::LockBatch`]. Chosen so the
/// **worst-case reply** still fits one frame: a `BatchOutcomes` item is
/// at most 16 bytes (tag + `ServiceError::Lock(NotHeld(Row(..)))`), so
/// `HEADER_LEN + 4 + 4095 × 16 = 65 533 ≤ MAX_PAYLOAD`. The request
/// side is smaller (≤ 14 bytes/item). One more item could overflow the
/// reply, so the decoder rejects larger counts outright.
pub const MAX_BATCH: usize = 4095;

/// Largest number of journal events a [`Reply::Metrics`] frame may
/// carry. With [`MAX_WIRE_TICKS`], the four sparse histograms and the
/// fixed gauge/counter block, the worst-case frame stays well inside
/// [`MAX_PAYLOAD`] (events are ≤ 26 bytes each).
pub const MAX_WIRE_EVENTS: usize = 1024;

/// Largest number of tuning ticks a [`Reply::Metrics`] frame may carry
/// (ticks are 57 bytes each; see [`MAX_WIRE_EVENTS`]).
pub const MAX_WIRE_TICKS: usize = 256;

/// Largest number of per-tenant rows a [`Reply::TenantStats`] frame
/// may carry (rows are 77 bytes each; with [`MAX_WIRE_DONATIONS`] the
/// worst-case frame stays inside [`MAX_PAYLOAD`]).
pub const MAX_WIRE_TENANTS: usize = 256;

/// Largest number of donation records a [`Reply::TenantStats`] frame
/// may carry (records are 49 bytes each; see [`MAX_WIRE_TENANTS`]).
pub const MAX_WIRE_DONATIONS: usize = 512;

/// Largest number of wait-for edges a [`Reply::WaitGraph`] frame may
/// carry (edges are 8 bytes each; with [`MAX_WIRE_GIDS`] the
/// worst-case frame is `9 + 4 + 4096×8 + 4 + 2048×12 + 8 = 57 361`
/// bytes, inside [`MAX_PAYLOAD`]). The cluster detector treats a
/// truncated export as a partial view — it simply finds the cycle on
/// a later pull.
pub const MAX_WIRE_EDGES: usize = 4096;

/// Largest number of app→gid bindings a [`Reply::WaitGraph`] frame
/// may carry (12 bytes each; see [`MAX_WIRE_EDGES`]).
pub const MAX_WIRE_GIDS: usize = 2048;

/// Largest number of per-I/O-shard counter rows a [`Reply::Metrics`]
/// frame may carry (rows are 44 bytes each — worst case 2 820 bytes on
/// top of the event/tick budget, still inside [`MAX_PAYLOAD`]; see the
/// `max_metrics_reply_fits_one_frame` test). Far above any sane shard
/// count — shards are I/O threads, sized to cores.
pub const MAX_WIRE_IO_SHARDS: usize = 64;

/// Reserved top bit of a cluster-global transaction id. Clients must
/// bind gids with this bit clear; the cluster detector synthesizes
/// ids in the reserved space for apps that never bound one, so the
/// two can never collide.
pub const GID_RESERVED: u64 = 1 << 63;

// Request opcodes.
const OP_LOCK: u8 = 0x01;
const OP_UNLOCK: u8 = 0x02;
const OP_UNLOCK_ALL: u8 = 0x03;
const OP_STATS: u8 = 0x04;
const OP_PING: u8 = 0x05;
const OP_VALIDATE: u8 = 0x06;
const OP_LOCK_BATCH: u8 = 0x07;
const OP_METRICS: u8 = 0x08;
const OP_HELLO: u8 = 0x09;
const OP_TENANT_STATS: u8 = 0x0A;
const OP_TENANT_CTL: u8 = 0x0B;
const OP_WAIT_GRAPH: u8 = 0x0C;
const OP_BIND_GID: u8 = 0x0D;
const OP_CANCEL_WAIT: u8 = 0x0E;
const OP_PROBE: u8 = 0x0F;
// 0x10 is unusable as a request opcode: its reply alias 0x10 | 0x80 =
// 0x90 collides with OP_BUSY, so the request space skips to 0x11.
const OP_BIND_EPOCH: u8 = 0x11;

// Reply opcodes (request opcode | 0x80).
const OP_LOCK_REPLY: u8 = 0x81;
const OP_UNLOCK_REPLY: u8 = 0x82;
const OP_UNLOCK_ALL_REPLY: u8 = 0x83;
const OP_STATS_REPLY: u8 = 0x84;
const OP_PONG: u8 = 0x85;
const OP_VALIDATE_REPLY: u8 = 0x86;
const OP_LOCK_BATCH_REPLY: u8 = 0x87;
const OP_METRICS_REPLY: u8 = 0x88;
const OP_HELLO_REPLY: u8 = 0x89;
const OP_TENANT_STATS_REPLY: u8 = 0x8A;
const OP_TENANT_CTL_REPLY: u8 = 0x8B;
const OP_WAIT_GRAPH_REPLY: u8 = 0x8C;
const OP_BIND_GID_REPLY: u8 = 0x8D;
const OP_CANCEL_WAIT_REPLY: u8 = 0x8E;
const OP_PROBE_ACK: u8 = 0x8F;
// Server-initiated (no matching request opcode; sent with id 0 when
// the connection is refused at admission).
const OP_BUSY: u8 = 0x90;
const OP_BIND_EPOCH_REPLY: u8 = 0x91;
// Fencing reply: answers a Lock/LockBatch/BindEpoch whose connection
// carries an epoch older than the server's fence (correlated by the
// request id, like any other reply).
const OP_WRONG_EPOCH: u8 = 0x92;

/// A decoded client→server message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Acquire `mode` on `res` (may block server-side until granted,
    /// timed out, or aborted).
    Lock {
        /// Resource to lock.
        res: ResourceId,
        /// Requested mode.
        mode: LockMode,
    },
    /// Release one lock.
    Unlock {
        /// Resource to release.
        res: ResourceId,
    },
    /// Release everything this connection holds (commit under strict
    /// 2PL).
    UnlockAll,
    /// Snapshot server statistics.
    Stats,
    /// Liveness probe; the echo bytes come back verbatim in the Pong.
    Ping(Vec<u8>),
    /// Run the server's cross-shard accounting audit.
    Validate,
    /// Acquire a whole lock set in one frame (at most [`MAX_BATCH`]
    /// items). The server executes it via `Session::lock_many` —
    /// shard-grouped, stop on the first session-fatal error — and
    /// answers with one [`Reply::BatchOutcomes`] carrying a per-item
    /// outcome in request order.
    LockBatch(Vec<(ResourceId, LockMode)>),
    /// Scrape the server's full telemetry: counters, gauges, merged
    /// histograms, up to `max_events` journal events (capped at
    /// [`MAX_WIRE_EVENTS`]) and the tuning ticks since `reports_since`
    /// (feed back the reply's `next_tick_seq` to copy each interval
    /// exactly once).
    Metrics {
        /// Tuning-tick cursor: only intervals with sequence ≥ this are
        /// returned. 0 means "everything retained".
        reports_since: u64,
        /// Upper bound on journal events in the reply; 0 leaves the
        /// journal untouched (its delivery is destructive).
        max_events: u32,
    },
    /// Bind this connection to tenant `tenant` on a multi-tenant
    /// server. Must precede any lock traffic there (a single-tenant
    /// server accepts `Hello { tenant: 0 }` as a no-op, so clients can
    /// send it unconditionally). Re-binding an already-bound
    /// connection or naming an unknown tenant is refused.
    Hello {
        /// The tenant this connection's locks belong to.
        tenant: u32,
    },
    /// Snapshot the machine-wide budget partition: one row per tenant
    /// plus the donation records since `donations_since` (feed back the
    /// reply's `next_donation_seq` to follow the flow without gaps).
    TenantStats {
        /// Donation cursor: only records with sequence ≥ this are
        /// returned. 0 means "everything retained".
        donations_since: u64,
    },
    /// Administrative tenant churn: create or drop a tenant mid-run.
    TenantCtl(TenantCtl),
    /// Export this node's local wait-for graph for a cluster deadlock
    /// detector: every (waiter, holder) edge across the shards plus
    /// the app→gid bindings the detector needs to translate local app
    /// ids into cluster-global transaction ids.
    WaitGraph,
    /// Bind this connection's application to cluster-global
    /// transaction id `gid`. A routed client binds the same gid on
    /// every node it talks to, which is what lets the cluster
    /// detector recognize one transaction waiting on node A and
    /// holding on node B. The top bit is reserved for
    /// detector-synthesized ids and must be clear.
    BindGid {
        /// Cluster-global transaction id (top bit must be 0).
        gid: u64,
    },
    /// Cancel application `app`'s in-flight wait and abort it — the
    /// cluster detector's victim kill. Goes through the same
    /// confirm-then-abort path as the local sweeper, so a victim that
    /// was granted in the meantime is left alone (the reply carries
    /// `false`).
    CancelWait {
        /// The server-local application id to cancel (from the
        /// [`Reply::WaitGraph`] gid table).
        app: u32,
    },
    /// Supervisor health probe doubling as epoch dissemination: the
    /// supervisor's current partition-map epoch and this node's
    /// degraded flag ride along, so every probe round both checks
    /// liveness and advances the server's fence. The server raises its
    /// fence to `epoch` (never lowers it) and answers with a
    /// [`Reply::ProbeAck`].
    Probe {
        /// The supervisor's current partition-map epoch.
        epoch: u64,
        /// True while this node serves slots reassigned from a dead
        /// peer (drives the degraded-batch counter).
        degraded: bool,
    },
    /// Bind this connection to partition-map epoch `epoch`. A routed
    /// client binds its map's epoch on every node connection; when the
    /// supervisor bumps the map, lock traffic still carrying the old
    /// epoch is fenced with [`Reply::WrongEpoch`] instead of granted.
    /// Connections that never bind are unfenced (single-node clients
    /// predate epochs). Binding an epoch older than the server's fence
    /// is refused with [`Reply::WrongEpoch`].
    BindEpoch {
        /// The partition-map epoch this connection routes by.
        epoch: u64,
    },
}

/// The action carried by a [`Request::TenantCtl`] frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantCtl {
    /// Create the tenant: open its budget line from the free pool and
    /// start its service. The reply's payload is the granted budget.
    Create {
        /// The tenant to create.
        tenant: u32,
    },
    /// Drop the tenant: evict its connections, release its locks and
    /// return its whole budget to the free pool. The reply's payload
    /// is the reclaimed bytes.
    Drop {
        /// The tenant to drop.
        tenant: u32,
    },
}

/// A decoded server→client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Outcome of a [`Request::Lock`].
    Lock(Result<LockOutcome, ServiceError>),
    /// Outcome of a [`Request::Unlock`].
    Unlock(Result<UnlockReport, ServiceError>),
    /// Outcome of a [`Request::UnlockAll`].
    UnlockAll(Result<UnlockReport, ServiceError>),
    /// Server statistics snapshot.
    Stats(StatsSnapshot),
    /// Echo of a [`Request::Ping`].
    Pong(Vec<u8>),
    /// Outcome of a [`Request::Validate`]: the audited slot counts, or
    /// the accounting-divergence message if the audit failed.
    Validate(Result<ValidateReport, String>),
    /// Outcome of a [`Request::LockBatch`]: one entry per requested
    /// item, in request order. Entries after the first session-fatal
    /// error are [`BatchOutcome::Skipped`] — the granted prefix is
    /// exactly the set of `Done(Ok(..))` entries.
    BatchOutcomes(Vec<BatchOutcome>),
    /// Outcome of a [`Request::Metrics`]: the server's full telemetry
    /// snapshot (boxed — it is two orders of magnitude larger than
    /// every other reply).
    Metrics(Box<MetricsSnapshot>),
    /// Outcome of a [`Request::Hello`]: `Ok` binds the connection,
    /// `Err` carries the refusal (unknown tenant, double bind, or a
    /// single-tenant server asked for a tenant other than 0).
    Hello(Result<(), String>),
    /// Outcome of a [`Request::TenantStats`]: the machine-wide budget
    /// rollup and recent donation flow (boxed — it carries a row per
    /// tenant).
    TenantStats(Box<TenantStatsReply>),
    /// Outcome of a [`Request::TenantCtl`]: the granted budget
    /// (create) or reclaimed bytes (drop), or the refusal message.
    TenantCtl(Result<u64, String>),
    /// Outcome of a [`Request::WaitGraph`]: this node's local
    /// wait-for edges and app→gid table.
    WaitGraph(WaitGraphReply),
    /// Outcome of a [`Request::BindGid`]: `Ok` binds, `Err` carries
    /// the refusal (reserved bit set, or no session to bind — a
    /// multi-tenant connection must say Hello first). Re-binding is
    /// allowed: a reconnecting client binds the same gid on its fresh
    /// connection while the old one may still be tearing down.
    BindGid(Result<(), String>),
    /// Outcome of a [`Request::CancelWait`]: `true` if the app was
    /// still waiting and has been aborted, `false` if there was
    /// nothing to cancel (already granted, gone, or unknown).
    CancelWait(bool),
    /// The server refused the connection at admission: its
    /// `max_connections` cap is reached. Sent with request id 0 (the
    /// refusal precedes any request) and immediately followed by a
    /// shutdown of the socket. Retryable after a backoff.
    Busy,
    /// Outcome of a [`Request::Probe`]: the server's fence epoch after
    /// applying the probe's, plus how many of its epoch-bound
    /// connections still carry an older epoch (the supervisor drains
    /// this to zero before handing slots back on rejoin).
    ProbeAck {
        /// The server's fence epoch (≥ the probe's epoch).
        epoch: u64,
        /// Epoch-bound connections whose epoch is below the fence.
        stale_sessions: u64,
    },
    /// Outcome of a [`Request::BindEpoch`]: the connection now routes
    /// by the bound epoch. A stale bind gets [`Reply::WrongEpoch`]
    /// instead.
    BindEpoch,
    /// Fencing refusal for a [`Request::Lock`], [`Request::LockBatch`]
    /// or [`Request::BindEpoch`] carrying an epoch older than the
    /// server's fence. Never a grant: the client must refresh its map,
    /// release everything and restart the transaction.
    WrongEpoch {
        /// The server's current fence epoch.
        current: u64,
    },
}

/// Body of a [`Reply::WaitGraph`] frame: one node's slice of the
/// cluster wait-for graph, frozen at export time.
///
/// The export is advisory — edges may be stale by the time the
/// detector acts, which is why victim kills go through the
/// confirm-then-abort [`Request::CancelWait`] path rather than
/// trusting the snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WaitGraphReply {
    /// Local wait-for edges as (waiter app, holder app) pairs, the
    /// union across shards (at most [`MAX_WIRE_EDGES`]; the server
    /// truncates beyond that and the detector catches the rest on a
    /// later pull).
    pub edges: Vec<(u32, u32)>,
    /// App→gid bindings for every connection that sent
    /// [`Request::BindGid`] (at most [`MAX_WIRE_GIDS`]). Apps absent
    /// here are local-only transactions; the detector synthesizes
    /// per-node ids for them.
    pub gids: Vec<(u32, u64)>,
}

/// Body of a [`Reply::TenantStats`] frame.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantStatsReply {
    /// The machine-wide snapshot (budget partition, arbitration totals
    /// and one row per tenant, ascending by id). At most
    /// [`MAX_WIRE_TENANTS`] rows travel; the server truncates beyond
    /// that.
    pub rollup: MachineRollup,
    /// Donation records with sequence ≥ the request's cursor, oldest
    /// first (at most [`MAX_WIRE_DONATIONS`]).
    pub donations: Vec<TenantDonation>,
    /// Cursor to feed back as the next request's `donations_since`.
    pub next_donation_seq: u64,
}

/// Server state snapshot carried by [`Reply::Stats`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StatsSnapshot {
    /// Aggregated lock-manager counters across all shards.
    pub stats: LockStats,
    /// Lock pool size in bytes.
    pub pool_bytes: u64,
    /// Total lock-structure slots in the pool.
    pub pool_slots_total: u64,
    /// Allocated slots (atomic mirror; exact at quiescence).
    pub pool_slots_used: u64,
    /// Applications with a live session (network + in-process).
    pub connected_apps: u64,
    /// Tuning intervals run since the server started.
    pub tuning_intervals: u64,
    /// Intervals that grew the pool.
    pub grow_decisions: u64,
    /// Intervals that shrank the pool.
    pub shrink_decisions: u64,
    /// `lock_many` batches executed (network `LockBatch` frames and
    /// in-process batches alike).
    pub batches: u64,
    /// Total items across those batches.
    pub batch_items: u64,
    /// High-water mark of the server's per-connection reply queues, in
    /// frames. A value near `reply_queue_capacity` means some client
    /// stopped draining replies and backpressured its reader.
    pub reply_queue_hwm: u64,
    /// Current externalized `lockPercentPerApplication`.
    pub app_percent: f64,
    /// Background threads (tuner + sweeper) respawned by the service
    /// watchdog since start. Non-zero means a thread panicked and was
    /// recovered.
    pub watchdog_restarts: u64,
}

/// Audit result carried by [`Reply::Validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ValidateReport {
    /// Sum of per-shard charged slots.
    pub charged_slots: u64,
    /// The shared pool's used-slot count (equals `charged_slots` when
    /// the audit passes).
    pub pool_used_slots: u64,
}

/// Why a frame failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before the message did.
    Truncated,
    /// A frame's length prefix exceeds [`MAX_PAYLOAD`] (or is shorter
    /// than a header).
    BadLength(usize),
    /// An unknown discriminant.
    BadTag {
        /// Which field carried it.
        what: &'static str,
        /// The offending byte.
        tag: u8,
    },
    /// Bytes were left over after the message was fully decoded.
    TrailingBytes(usize),
    /// A lock batch declared more than [`MAX_BATCH`] items.
    BatchTooLarge(usize),
    /// A counted collection declared more items than its wire bound
    /// ([`MAX_WIRE_EVENTS`], [`MAX_WIRE_TICKS`], or a histogram's
    /// bucket count).
    TooMany {
        /// Which collection carried it.
        what: &'static str,
        /// The declared count.
        n: usize,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => f.write_str("frame truncated"),
            WireError::BadLength(n) => write!(f, "bad frame length {n}"),
            WireError::BadTag { what, tag } => write!(f, "bad {what} tag {tag:#04x}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after frame"),
            WireError::BatchTooLarge(n) => {
                write!(f, "lock batch of {n} items exceeds {MAX_BATCH}")
            }
            WireError::TooMany { what, n } => {
                write!(f, "{what} count {n} exceeds the wire bound")
            }
        }
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------------
// Primitive encode/decode
// ---------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

/// Bounds-checked reader over a payload slice.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn bytes(&mut self) -> Result<Vec<u8>, WireError> {
        let len = self.u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    /// Every decoder must end on this: leftover bytes mean the peer
    /// and we disagree about the message layout.
    fn finish(self) -> Result<(), WireError> {
        let rest = self.buf.len() - self.pos;
        if rest == 0 {
            Ok(())
        } else {
            Err(WireError::TrailingBytes(rest))
        }
    }
}

// ---------------------------------------------------------------------
// Domain-type encodings
// ---------------------------------------------------------------------

fn put_resource(out: &mut Vec<u8>, res: ResourceId) {
    match res {
        ResourceId::Table(t) => {
            out.push(0);
            put_u32(out, t.0);
        }
        ResourceId::Row(t, r) => {
            out.push(1);
            put_u32(out, t.0);
            put_u64(out, r.0);
        }
    }
}

fn get_resource(r: &mut Reader<'_>) -> Result<ResourceId, WireError> {
    match r.u8()? {
        0 => Ok(ResourceId::Table(TableId(r.u32()?))),
        1 => Ok(ResourceId::Row(TableId(r.u32()?), RowId(r.u64()?))),
        tag => Err(WireError::BadTag {
            what: "resource",
            tag,
        }),
    }
}

fn mode_tag(mode: LockMode) -> u8 {
    match mode {
        LockMode::IS => 0,
        LockMode::IX => 1,
        LockMode::S => 2,
        LockMode::SIX => 3,
        LockMode::U => 4,
        LockMode::X => 5,
    }
}

fn get_mode(r: &mut Reader<'_>) -> Result<LockMode, WireError> {
    match r.u8()? {
        0 => Ok(LockMode::IS),
        1 => Ok(LockMode::IX),
        2 => Ok(LockMode::S),
        3 => Ok(LockMode::SIX),
        4 => Ok(LockMode::U),
        5 => Ok(LockMode::X),
        tag => Err(WireError::BadTag { what: "mode", tag }),
    }
}

fn put_outcome(out: &mut Vec<u8>, outcome: LockOutcome) {
    match outcome {
        LockOutcome::Granted => out.push(0),
        LockOutcome::AlreadyHeld => out.push(1),
        LockOutcome::CoveredByTableLock => out.push(2),
        LockOutcome::Queued => out.push(3),
        LockOutcome::GrantedAfterEscalation { table, exclusive } => {
            out.push(4);
            put_u32(out, table.0);
            out.push(exclusive as u8);
        }
        LockOutcome::QueuedWithEscalation { table } => {
            out.push(5);
            put_u32(out, table.0);
        }
    }
}

fn get_outcome(r: &mut Reader<'_>) -> Result<LockOutcome, WireError> {
    match r.u8()? {
        0 => Ok(LockOutcome::Granted),
        1 => Ok(LockOutcome::AlreadyHeld),
        2 => Ok(LockOutcome::CoveredByTableLock),
        3 => Ok(LockOutcome::Queued),
        4 => Ok(LockOutcome::GrantedAfterEscalation {
            table: TableId(r.u32()?),
            exclusive: get_bool(r)?,
        }),
        5 => Ok(LockOutcome::QueuedWithEscalation {
            table: TableId(r.u32()?),
        }),
        tag => Err(WireError::BadTag {
            what: "outcome",
            tag,
        }),
    }
}

fn get_bool(r: &mut Reader<'_>) -> Result<bool, WireError> {
    match r.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        tag => Err(WireError::BadTag { what: "bool", tag }),
    }
}

fn put_lock_error(out: &mut Vec<u8>, e: &LockError) {
    match e {
        LockError::NotHeld(res) => {
            out.push(0);
            put_resource(out, *res);
        }
        LockError::NothingToEscalate => out.push(1),
        LockError::OutOfLockMemory => out.push(2),
        LockError::MissingIntent(res) => {
            out.push(3);
            put_resource(out, *res);
        }
        LockError::AlreadyWaiting(res) => {
            out.push(4);
            put_resource(out, *res);
        }
    }
}

fn get_lock_error(r: &mut Reader<'_>) -> Result<LockError, WireError> {
    match r.u8()? {
        0 => Ok(LockError::NotHeld(get_resource(r)?)),
        1 => Ok(LockError::NothingToEscalate),
        2 => Ok(LockError::OutOfLockMemory),
        3 => Ok(LockError::MissingIntent(get_resource(r)?)),
        4 => Ok(LockError::AlreadyWaiting(get_resource(r)?)),
        tag => Err(WireError::BadTag {
            what: "lock error",
            tag,
        }),
    }
}

fn put_service_error(out: &mut Vec<u8>, e: &ServiceError) {
    match e {
        ServiceError::Lock(le) => {
            out.push(0);
            put_lock_error(out, le);
        }
        ServiceError::Timeout => out.push(1),
        ServiceError::DeadlockVictim => out.push(2),
        ServiceError::ShuttingDown => out.push(3),
        ServiceError::AlreadyConnected(app) => {
            out.push(4);
            put_u32(out, app.0);
        }
        // Tag 5 + option<u32>: presence byte then the shedding
        // tenant's id, so a multi-database client backs off exactly
        // the tenant that rejected it.
        ServiceError::Overloaded { tenant } => {
            out.push(5);
            match tenant {
                Some(id) => {
                    out.push(1);
                    put_u32(out, *id);
                }
                None => out.push(0),
            }
        }
    }
}

fn get_service_error(r: &mut Reader<'_>) -> Result<ServiceError, WireError> {
    match r.u8()? {
        0 => Ok(ServiceError::Lock(get_lock_error(r)?)),
        1 => Ok(ServiceError::Timeout),
        2 => Ok(ServiceError::DeadlockVictim),
        3 => Ok(ServiceError::ShuttingDown),
        4 => Ok(ServiceError::AlreadyConnected(AppId(r.u32()?))),
        5 => {
            let tenant = match r.u8()? {
                0 => None,
                1 => Some(r.u32()?),
                tag => {
                    return Err(WireError::BadTag {
                        what: "overloaded tenant",
                        tag,
                    })
                }
            };
            Ok(ServiceError::Overloaded { tenant })
        }
        tag => Err(WireError::BadTag {
            what: "service error",
            tag,
        }),
    }
}

fn put_result<T>(
    out: &mut Vec<u8>,
    result: &Result<T, ServiceError>,
    put_ok: impl FnOnce(&mut Vec<u8>, &T),
) {
    match result {
        Ok(v) => {
            out.push(0);
            put_ok(out, v);
        }
        Err(e) => {
            out.push(1);
            put_service_error(out, e);
        }
    }
}

fn get_result<T>(
    r: &mut Reader<'_>,
    get_ok: impl FnOnce(&mut Reader<'_>) -> Result<T, WireError>,
) -> Result<Result<T, ServiceError>, WireError> {
    match r.u8()? {
        0 => Ok(Ok(get_ok(r)?)),
        1 => Ok(Err(get_service_error(r)?)),
        tag => Err(WireError::BadTag {
            what: "result",
            tag,
        }),
    }
}

fn put_batch_outcome(out: &mut Vec<u8>, item: &BatchOutcome) {
    match item {
        BatchOutcome::Done(Ok(o)) => {
            out.push(0);
            put_outcome(out, *o);
        }
        BatchOutcome::Done(Err(e)) => {
            out.push(1);
            put_service_error(out, e);
        }
        BatchOutcome::Skipped => out.push(2),
    }
}

fn get_batch_outcome(r: &mut Reader<'_>) -> Result<BatchOutcome, WireError> {
    match r.u8()? {
        0 => Ok(BatchOutcome::Done(Ok(get_outcome(r)?))),
        1 => Ok(BatchOutcome::Done(Err(get_service_error(r)?))),
        2 => Ok(BatchOutcome::Skipped),
        tag => Err(WireError::BadTag {
            what: "batch outcome",
            tag,
        }),
    }
}

/// Read and bounds-check a batch count prefix.
fn get_batch_len(r: &mut Reader<'_>) -> Result<usize, WireError> {
    let n = r.u32()? as usize;
    if n > MAX_BATCH {
        return Err(WireError::BatchTooLarge(n));
    }
    Ok(n)
}

fn put_unlock_report(out: &mut Vec<u8>, rep: &UnlockReport) {
    put_u64(out, rep.released_locks);
    put_u64(out, rep.freed_slots);
}

fn get_unlock_report(r: &mut Reader<'_>) -> Result<UnlockReport, WireError> {
    Ok(UnlockReport {
        released_locks: r.u64()?,
        freed_slots: r.u64()?,
    })
}

fn put_lock_stats(out: &mut Vec<u8>, s: &LockStats) {
    for v in [
        s.grants,
        s.waits,
        s.conversions,
        s.covered_by_table,
        s.escalations,
        s.exclusive_escalations,
        s.rows_escalated,
        s.voluntary_escalations,
        s.sync_growth_requests,
        s.sync_growth_denied,
        s.denials,
        s.queue_grants,
        s.cancelled_waits,
        s.deadlock_aborts,
    ] {
        put_u64(out, v);
    }
}

fn get_lock_stats(r: &mut Reader<'_>) -> Result<LockStats, WireError> {
    Ok(LockStats {
        grants: r.u64()?,
        waits: r.u64()?,
        conversions: r.u64()?,
        covered_by_table: r.u64()?,
        escalations: r.u64()?,
        exclusive_escalations: r.u64()?,
        rows_escalated: r.u64()?,
        voluntary_escalations: r.u64()?,
        sync_growth_requests: r.u64()?,
        sync_growth_denied: r.u64()?,
        denials: r.u64()?,
        queue_grants: r.u64()?,
        cancelled_waits: r.u64()?,
        deadlock_aborts: r.u64()?,
    })
}

fn put_snapshot(out: &mut Vec<u8>, s: &StatsSnapshot) {
    put_lock_stats(out, &s.stats);
    put_u64(out, s.pool_bytes);
    put_u64(out, s.pool_slots_total);
    put_u64(out, s.pool_slots_used);
    put_u64(out, s.connected_apps);
    put_u64(out, s.tuning_intervals);
    put_u64(out, s.grow_decisions);
    put_u64(out, s.shrink_decisions);
    put_u64(out, s.batches);
    put_u64(out, s.batch_items);
    put_u64(out, s.reply_queue_hwm);
    put_u64(out, s.app_percent.to_bits());
    put_u64(out, s.watchdog_restarts);
}

fn get_snapshot(r: &mut Reader<'_>) -> Result<StatsSnapshot, WireError> {
    Ok(StatsSnapshot {
        stats: get_lock_stats(r)?,
        pool_bytes: r.u64()?,
        pool_slots_total: r.u64()?,
        pool_slots_used: r.u64()?,
        connected_apps: r.u64()?,
        tuning_intervals: r.u64()?,
        grow_decisions: r.u64()?,
        shrink_decisions: r.u64()?,
        batches: r.u64()?,
        batch_items: r.u64()?,
        reply_queue_hwm: r.u64()?,
        app_percent: f64::from_bits(r.u64()?),
        watchdog_restarts: r.u64()?,
    })
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

fn get_f64(r: &mut Reader<'_>) -> Result<f64, WireError> {
    Ok(f64::from_bits(r.u64()?))
}

/// Sparse histogram encoding: `u8` non-zero bucket count, then
/// `(u8 bucket index, u64 count)` pairs in strictly ascending index
/// order, then `u64` sum and `u64` max. The snapshot's `total` never
/// travels — the decoder re-derives it from the buckets
/// ([`HistogramSnapshot::from_parts`]), so a frame cannot claim samples
/// its buckets don't hold.
fn put_histogram(out: &mut Vec<u8>, h: &HistogramSnapshot) {
    let nonzero = h.counts.iter().filter(|&&c| c != 0).count() as u8;
    out.push(nonzero);
    for (k, &c) in h.counts.iter().enumerate() {
        if c != 0 {
            out.push(k as u8);
            put_u64(out, c);
        }
    }
    put_u64(out, h.sum);
    put_u64(out, h.max);
}

fn get_histogram(r: &mut Reader<'_>) -> Result<HistogramSnapshot, WireError> {
    let nonzero = r.u8()? as usize;
    if nonzero > BUCKETS {
        return Err(WireError::TooMany {
            what: "histogram buckets",
            n: nonzero,
        });
    }
    let mut counts = [0u64; BUCKETS];
    let mut last: Option<usize> = None;
    for _ in 0..nonzero {
        let k = r.u8()? as usize;
        // Strictly ascending, in range and non-zero: exactly one legal
        // encoding per snapshot, so decode(encode(h)) == h and a forged
        // duplicate index cannot double-count a bucket.
        let c = r.u64()?;
        if k >= BUCKETS || last.is_some_and(|p| k <= p) || c == 0 {
            return Err(WireError::BadTag {
                what: "histogram bucket",
                tag: k as u8,
            });
        }
        counts[k] = c;
        last = Some(k);
    }
    let sum = r.u64()?;
    let max = r.u64()?;
    Ok(HistogramSnapshot::from_parts(counts, sum, max))
}

fn put_event(out: &mut Vec<u8>, e: &JournalEvent) {
    put_u64(out, e.seq);
    put_u64(out, e.at_ms);
    match e.kind {
        EventKind::Escalation {
            app,
            table,
            exclusive,
        } => {
            out.push(0);
            put_u32(out, app.0);
            put_u32(out, table.0);
            out.push(exclusive as u8);
        }
        EventKind::DeadlockVictim { app } => {
            out.push(1);
            put_u32(out, app.0);
        }
        EventKind::SyncGrowth { granted_bytes } => {
            out.push(2);
            put_u64(out, granted_bytes);
        }
        EventKind::TunerResize {
            from_bytes,
            to_bytes,
        } => {
            out.push(3);
            put_u64(out, from_bytes);
            put_u64(out, to_bytes);
        }
        EventKind::DepotReclaim { slots } => {
            out.push(4);
            put_u64(out, slots);
        }
        // Tags 5–9 match the journal's own packing order.
        EventKind::WatchdogRestart { thread } => {
            out.push(5);
            out.push(match thread {
                ThreadRole::Tuner => 0,
                ThreadRole::Sweeper => 1,
            });
        }
        EventKind::ClientEvicted { app } => {
            out.push(6);
            put_u32(out, app.0);
        }
        EventKind::ShedEngaged { ooms } => {
            out.push(7);
            put_u64(out, ooms);
        }
        EventKind::ShedReleased => out.push(8),
        EventKind::FaultInjected { site, count } => {
            out.push(9);
            out.push(site);
            put_u64(out, count);
        }
        EventKind::RemoteCancel { app } => {
            out.push(10);
            put_u32(out, app.0);
        }
        EventKind::EpochBump { epoch } => {
            out.push(11);
            put_u64(out, epoch);
        }
        EventKind::RequestFenced { epoch } => {
            out.push(12);
            put_u64(out, epoch);
        }
    }
}

fn get_event(r: &mut Reader<'_>) -> Result<JournalEvent, WireError> {
    let seq = r.u64()?;
    let at_ms = r.u64()?;
    let kind = match r.u8()? {
        0 => EventKind::Escalation {
            app: AppId(r.u32()?),
            table: TableId(r.u32()?),
            exclusive: get_bool(r)?,
        },
        1 => EventKind::DeadlockVictim {
            app: AppId(r.u32()?),
        },
        2 => EventKind::SyncGrowth {
            granted_bytes: r.u64()?,
        },
        3 => EventKind::TunerResize {
            from_bytes: r.u64()?,
            to_bytes: r.u64()?,
        },
        4 => EventKind::DepotReclaim { slots: r.u64()? },
        5 => EventKind::WatchdogRestart {
            thread: match r.u8()? {
                0 => ThreadRole::Tuner,
                1 => ThreadRole::Sweeper,
                tag => {
                    return Err(WireError::BadTag {
                        what: "thread role",
                        tag,
                    })
                }
            },
        },
        6 => EventKind::ClientEvicted {
            app: AppId(r.u32()?),
        },
        7 => EventKind::ShedEngaged { ooms: r.u64()? },
        8 => EventKind::ShedReleased,
        9 => EventKind::FaultInjected {
            site: r.u8()?,
            count: r.u64()?,
        },
        10 => EventKind::RemoteCancel {
            app: AppId(r.u32()?),
        },
        11 => EventKind::EpochBump { epoch: r.u64()? },
        12 => EventKind::RequestFenced { epoch: r.u64()? },
        tag => return Err(WireError::BadTag { what: "event", tag }),
    };
    Ok(JournalEvent { seq, at_ms, kind })
}

fn reason_tag(reason: TuningReason) -> u8 {
    match reason {
        TuningReason::GrowForFreeTarget => 0,
        TuningReason::WithinBand => 1,
        TuningReason::ShrinkDeltaReduce => 2,
        TuningReason::EscalationDoubling => 3,
        TuningReason::ClampedToMin => 4,
        TuningReason::ClampedToMax => 5,
    }
}

fn get_reason(r: &mut Reader<'_>) -> Result<TuningReason, WireError> {
    match r.u8()? {
        0 => Ok(TuningReason::GrowForFreeTarget),
        1 => Ok(TuningReason::WithinBand),
        2 => Ok(TuningReason::ShrinkDeltaReduce),
        3 => Ok(TuningReason::EscalationDoubling),
        4 => Ok(TuningReason::ClampedToMin),
        5 => Ok(TuningReason::ClampedToMax),
        tag => Err(WireError::BadTag {
            what: "tuning reason",
            tag,
        }),
    }
}

fn put_tick(out: &mut Vec<u8>, t: &TuningTick) {
    put_u64(out, t.seq);
    out.push(reason_tag(t.reason));
    put_u64(out, t.target_bytes);
    put_u64(out, t.current_bytes);
    put_u64(out, t.lock_bytes_after);
    put_u64(out, t.funded_bytes);
    put_u64(out, t.released_bytes);
    put_f64(out, t.app_percent);
}

fn get_tick(r: &mut Reader<'_>) -> Result<TuningTick, WireError> {
    Ok(TuningTick {
        seq: r.u64()?,
        reason: get_reason(r)?,
        target_bytes: r.u64()?,
        current_bytes: r.u64()?,
        lock_bytes_after: r.u64()?,
        funded_bytes: r.u64()?,
        released_bytes: r.u64()?,
        app_percent: get_f64(r)?,
    })
}

fn put_obs_counters(out: &mut Vec<u8>, c: &ObsCounters) {
    for v in [
        c.timeouts,
        c.batches,
        c.batch_items,
        c.deadlock_victims,
        c.sync_growth_granted,
        c.sync_growth_denied,
        c.depot_reclaim_sweeps,
        c.depot_reclaimed_slots,
        c.journal_recorded,
        c.journal_dropped,
        c.watchdog_restarts,
        c.clients_evicted,
        c.shed_engaged,
        c.shed_released,
        c.shed_rejected,
        c.faults_injected,
        c.remote_cancels,
        c.failover_probes,
        c.epoch_bumps,
        c.fenced_requests,
        c.degraded_batches,
        c.grant_spin_hits,
        c.grant_parks,
    ] {
        put_u64(out, v);
    }
}

fn get_obs_counters(r: &mut Reader<'_>) -> Result<ObsCounters, WireError> {
    Ok(ObsCounters {
        timeouts: r.u64()?,
        batches: r.u64()?,
        batch_items: r.u64()?,
        deadlock_victims: r.u64()?,
        sync_growth_granted: r.u64()?,
        sync_growth_denied: r.u64()?,
        depot_reclaim_sweeps: r.u64()?,
        depot_reclaimed_slots: r.u64()?,
        journal_recorded: r.u64()?,
        journal_dropped: r.u64()?,
        watchdog_restarts: r.u64()?,
        clients_evicted: r.u64()?,
        shed_engaged: r.u64()?,
        shed_released: r.u64()?,
        shed_rejected: r.u64()?,
        faults_injected: r.u64()?,
        remote_cancels: r.u64()?,
        failover_probes: r.u64()?,
        epoch_bumps: r.u64()?,
        fenced_requests: r.u64()?,
        degraded_batches: r.u64()?,
        grant_spin_hits: r.u64()?,
        grant_parks: r.u64()?,
    })
}

fn put_metrics(out: &mut Vec<u8>, m: &MetricsSnapshot) {
    debug_assert!(
        m.events.len() <= MAX_WIRE_EVENTS,
        "events exceed wire bound"
    );
    debug_assert!(m.ticks.len() <= MAX_WIRE_TICKS, "ticks exceed wire bound");
    put_u64(out, m.uptime_ms);
    put_lock_stats(out, &m.lock_stats);
    put_obs_counters(out, &m.counters);
    put_u64(out, m.pool_bytes);
    put_u64(out, m.pool_slots_total);
    put_u64(out, m.pool_slots_used);
    put_u64(out, m.connected_apps);
    put_f64(out, m.app_percent);
    put_f64(out, m.min_free_fraction);
    put_f64(out, m.max_free_fraction);
    put_f64(out, m.free_fraction);
    put_u64(out, m.tuning_intervals);
    put_u64(out, m.grow_decisions);
    put_u64(out, m.shrink_decisions);
    put_u64(out, m.reply_queue_hwm);
    put_u64(out, m.fence_epoch);
    put_histogram(out, &m.lock_wait_micros);
    put_histogram(out, &m.latch_hold_nanos);
    put_histogram(out, &m.batch_size);
    put_histogram(out, &m.sync_stall_micros);
    put_u32(out, m.events.len() as u32);
    for e in &m.events {
        put_event(out, e);
    }
    put_u64(out, m.next_event_seq);
    put_u32(out, m.ticks.len() as u32);
    for t in &m.ticks {
        put_tick(out, t);
    }
    put_u64(out, m.next_tick_seq);
    debug_assert!(
        m.io_shards.len() <= MAX_WIRE_IO_SHARDS,
        "io shards exceed wire bound"
    );
    put_u32(out, m.io_shards.len() as u32);
    for s in &m.io_shards {
        put_u32(out, s.shard);
        put_u64(out, s.connections);
        put_u64(out, s.wakeups);
        put_u64(out, s.writev_calls);
        put_u64(out, s.writev_frames);
        put_u64(out, s.write_buf_hwm);
        put_u64(out, s.spin_hits);
        put_u64(out, s.parks);
    }
}

fn get_metrics(r: &mut Reader<'_>) -> Result<MetricsSnapshot, WireError> {
    let uptime_ms = r.u64()?;
    let lock_stats = get_lock_stats(r)?;
    let counters = get_obs_counters(r)?;
    let pool_bytes = r.u64()?;
    let pool_slots_total = r.u64()?;
    let pool_slots_used = r.u64()?;
    let connected_apps = r.u64()?;
    let app_percent = get_f64(r)?;
    let min_free_fraction = get_f64(r)?;
    let max_free_fraction = get_f64(r)?;
    let free_fraction = get_f64(r)?;
    let tuning_intervals = r.u64()?;
    let grow_decisions = r.u64()?;
    let shrink_decisions = r.u64()?;
    let reply_queue_hwm = r.u64()?;
    let fence_epoch = r.u64()?;
    let lock_wait_micros = get_histogram(r)?;
    let latch_hold_nanos = get_histogram(r)?;
    let batch_size = get_histogram(r)?;
    let sync_stall_micros = get_histogram(r)?;
    let n_events = r.u32()? as usize;
    if n_events > MAX_WIRE_EVENTS {
        return Err(WireError::TooMany {
            what: "journal events",
            n: n_events,
        });
    }
    let mut events = Vec::with_capacity(n_events);
    for _ in 0..n_events {
        events.push(get_event(r)?);
    }
    let next_event_seq = r.u64()?;
    let n_ticks = r.u32()? as usize;
    if n_ticks > MAX_WIRE_TICKS {
        return Err(WireError::TooMany {
            what: "tuning ticks",
            n: n_ticks,
        });
    }
    let mut ticks = Vec::with_capacity(n_ticks);
    for _ in 0..n_ticks {
        ticks.push(get_tick(r)?);
    }
    let next_tick_seq = r.u64()?;
    let n_shards = r.u32()? as usize;
    if n_shards > MAX_WIRE_IO_SHARDS {
        return Err(WireError::TooMany {
            what: "io shards",
            n: n_shards,
        });
    }
    let mut io_shards = Vec::with_capacity(n_shards);
    for _ in 0..n_shards {
        io_shards.push(IoShardStats {
            shard: r.u32()?,
            connections: r.u64()?,
            wakeups: r.u64()?,
            writev_calls: r.u64()?,
            writev_frames: r.u64()?,
            write_buf_hwm: r.u64()?,
            spin_hits: r.u64()?,
            parks: r.u64()?,
        });
    }
    Ok(MetricsSnapshot {
        uptime_ms,
        lock_stats,
        counters,
        pool_bytes,
        pool_slots_total,
        pool_slots_used,
        connected_apps,
        app_percent,
        min_free_fraction,
        max_free_fraction,
        free_fraction,
        tuning_intervals,
        grow_decisions,
        shrink_decisions,
        reply_queue_hwm,
        fence_epoch,
        lock_wait_micros,
        latch_hold_nanos,
        batch_size,
        sync_stall_micros,
        events,
        next_event_seq,
        ticks,
        next_tick_seq,
        io_shards,
    })
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

fn get_string(r: &mut Reader<'_>) -> Result<String, WireError> {
    Ok(String::from_utf8_lossy(&r.bytes()?).into_owned())
}

fn put_tenant_row(out: &mut Vec<u8>, row: &TenantRow) {
    put_u32(out, row.id);
    put_u64(out, row.budget);
    put_u64(out, row.floor);
    put_u64(out, row.pool_bytes);
    put_u64(out, row.pool_slots_used);
    put_f64(out, row.free_fraction);
    put_f64(out, row.benefit);
    put_u64(out, row.connected_apps);
    put_u64(out, row.escalations);
    put_u64(out, row.denials);
    out.push(row.shedding as u8);
}

fn get_tenant_row(r: &mut Reader<'_>) -> Result<TenantRow, WireError> {
    Ok(TenantRow {
        id: r.u32()?,
        budget: r.u64()?,
        floor: r.u64()?,
        pool_bytes: r.u64()?,
        pool_slots_used: r.u64()?,
        free_fraction: get_f64(r)?,
        benefit: get_f64(r)?,
        connected_apps: r.u64()?,
        escalations: r.u64()?,
        denials: r.u64()?,
        shedding: get_bool(r)?,
    })
}

fn put_donation(out: &mut Vec<u8>, d: &TenantDonation) {
    put_u64(out, d.seq);
    put_u64(out, d.at_ms);
    match d.from {
        Some(id) => {
            out.push(1);
            put_u32(out, id);
        }
        None => out.push(0),
    }
    put_u32(out, d.to);
    put_u64(out, d.bytes);
    put_f64(out, d.from_benefit);
    put_f64(out, d.to_benefit);
}

fn get_donation(r: &mut Reader<'_>) -> Result<TenantDonation, WireError> {
    let seq = r.u64()?;
    let at_ms = r.u64()?;
    let from = match r.u8()? {
        0 => None,
        1 => Some(r.u32()?),
        tag => {
            return Err(WireError::BadTag {
                what: "donation donor",
                tag,
            })
        }
    };
    Ok(TenantDonation {
        seq,
        at_ms,
        from,
        to: r.u32()?,
        bytes: r.u64()?,
        from_benefit: get_f64(r)?,
        to_benefit: get_f64(r)?,
    })
}

fn put_tenant_stats(out: &mut Vec<u8>, t: &TenantStatsReply) {
    debug_assert!(
        t.rollup.tenants.len() <= MAX_WIRE_TENANTS,
        "tenant rows exceed wire bound"
    );
    debug_assert!(
        t.donations.len() <= MAX_WIRE_DONATIONS,
        "donations exceed wire bound"
    );
    put_u64(out, t.rollup.machine_budget);
    put_u64(out, t.rollup.free_budget);
    put_u64(out, t.rollup.arbitrations);
    put_u64(out, t.rollup.donations);
    put_u64(out, t.rollup.donated_bytes);
    put_u32(out, t.rollup.tenants.len() as u32);
    for row in &t.rollup.tenants {
        put_tenant_row(out, row);
    }
    put_u32(out, t.donations.len() as u32);
    for d in &t.donations {
        put_donation(out, d);
    }
    put_u64(out, t.next_donation_seq);
}

fn get_tenant_stats(r: &mut Reader<'_>) -> Result<TenantStatsReply, WireError> {
    let machine_budget = r.u64()?;
    let free_budget = r.u64()?;
    let arbitrations = r.u64()?;
    let donations_total = r.u64()?;
    let donated_bytes = r.u64()?;
    let n_rows = r.u32()? as usize;
    if n_rows > MAX_WIRE_TENANTS {
        return Err(WireError::TooMany {
            what: "tenant rows",
            n: n_rows,
        });
    }
    let mut tenants = Vec::with_capacity(n_rows);
    for _ in 0..n_rows {
        tenants.push(get_tenant_row(r)?);
    }
    let n_donations = r.u32()? as usize;
    if n_donations > MAX_WIRE_DONATIONS {
        return Err(WireError::TooMany {
            what: "donations",
            n: n_donations,
        });
    }
    let mut donations = Vec::with_capacity(n_donations);
    for _ in 0..n_donations {
        donations.push(get_donation(r)?);
    }
    let next_donation_seq = r.u64()?;
    Ok(TenantStatsReply {
        rollup: MachineRollup {
            machine_budget,
            free_budget,
            arbitrations,
            donations: donations_total,
            donated_bytes,
            tenants,
        },
        donations,
        next_donation_seq,
    })
}

fn put_wait_graph(out: &mut Vec<u8>, g: &WaitGraphReply) {
    debug_assert!(g.edges.len() <= MAX_WIRE_EDGES, "edges exceed wire bound");
    debug_assert!(g.gids.len() <= MAX_WIRE_GIDS, "gids exceed wire bound");
    put_u32(out, g.edges.len() as u32);
    for &(waiter, holder) in &g.edges {
        put_u32(out, waiter);
        put_u32(out, holder);
    }
    put_u32(out, g.gids.len() as u32);
    for &(app, gid) in &g.gids {
        put_u32(out, app);
        put_u64(out, gid);
    }
}

fn get_wait_graph(r: &mut Reader<'_>) -> Result<WaitGraphReply, WireError> {
    let n_edges = r.u32()? as usize;
    if n_edges > MAX_WIRE_EDGES {
        return Err(WireError::TooMany {
            what: "wait edges",
            n: n_edges,
        });
    }
    let mut edges = Vec::with_capacity(n_edges);
    for _ in 0..n_edges {
        let waiter = r.u32()?;
        let holder = r.u32()?;
        edges.push((waiter, holder));
    }
    let n_gids = r.u32()? as usize;
    if n_gids > MAX_WIRE_GIDS {
        return Err(WireError::TooMany {
            what: "gid bindings",
            n: n_gids,
        });
    }
    let mut gids = Vec::with_capacity(n_gids);
    for _ in 0..n_gids {
        let app = r.u32()?;
        let gid = r.u64()?;
        gids.push((app, gid));
    }
    Ok(WaitGraphReply { edges, gids })
}

/// String-error result: `0` + nothing, or `1` + length-prefixed
/// message (Hello binds, TenantCtl refusals).
fn put_string_result<T>(
    out: &mut Vec<u8>,
    result: &Result<T, String>,
    put_ok: impl FnOnce(&mut Vec<u8>, &T),
) {
    match result {
        Ok(v) => {
            out.push(0);
            put_ok(out, v);
        }
        Err(msg) => {
            out.push(1);
            put_string(out, msg);
        }
    }
}

fn get_string_result<T>(
    r: &mut Reader<'_>,
    get_ok: impl FnOnce(&mut Reader<'_>) -> Result<T, WireError>,
) -> Result<Result<T, String>, WireError> {
    match r.u8()? {
        0 => Ok(Ok(get_ok(r)?)),
        1 => Ok(Err(get_string(r)?)),
        tag => Err(WireError::BadTag {
            what: "string result",
            tag,
        }),
    }
}

// ---------------------------------------------------------------------
// Frame encode/decode
// ---------------------------------------------------------------------

/// Write one frame (length prefix, header, body) into `out`, which is
/// cleared first. The hot-path entry point: a caller reusing `out`
/// across frames encodes with **zero** steady-state heap allocation
/// (the buffer keeps its capacity; everything is `extend_from_slice`).
fn frame_into(out: &mut Vec<u8>, opcode: u8, id: u64, body: impl FnOnce(&mut Vec<u8>)) {
    out.clear();
    // Length placeholder, patched below.
    put_u32(out, 0);
    out.push(opcode);
    put_u64(out, id);
    body(out);
    let len = (out.len() - 4) as u32;
    out[..4].copy_from_slice(&len.to_le_bytes());
    // MAX_PAYLOAD is enforced where it protects someone: in
    // `read_payload`, on the receiving side. An oversize frame (only
    // possible via a huge Ping echo) is rejected by the peer.
}

/// Encode `req` as a complete frame into `out` (cleared first; length
/// prefix included). Reuse `out` across calls for allocation-free
/// steady-state encoding.
pub fn encode_request_into(out: &mut Vec<u8>, id: u64, req: &Request) {
    match req {
        Request::Lock { res, mode } => frame_into(out, OP_LOCK, id, |out| {
            put_resource(out, *res);
            out.push(mode_tag(*mode));
        }),
        Request::Unlock { res } => frame_into(out, OP_UNLOCK, id, |out| put_resource(out, *res)),
        Request::UnlockAll => frame_into(out, OP_UNLOCK_ALL, id, |_| {}),
        Request::Stats => frame_into(out, OP_STATS, id, |_| {}),
        Request::Ping(echo) => frame_into(out, OP_PING, id, |out| put_bytes(out, echo)),
        Request::Validate => frame_into(out, OP_VALIDATE, id, |_| {}),
        Request::LockBatch(items) => encode_lock_batch_into(out, id, items),
        Request::Metrics {
            reports_since,
            max_events,
        } => frame_into(out, OP_METRICS, id, |out| {
            put_u64(out, *reports_since);
            put_u32(out, *max_events);
        }),
        Request::Hello { tenant } => frame_into(out, OP_HELLO, id, |out| put_u32(out, *tenant)),
        Request::TenantStats { donations_since } => frame_into(out, OP_TENANT_STATS, id, |out| {
            put_u64(out, *donations_since)
        }),
        Request::TenantCtl(action) => frame_into(out, OP_TENANT_CTL, id, |out| match action {
            TenantCtl::Create { tenant } => {
                out.push(0);
                put_u32(out, *tenant);
            }
            TenantCtl::Drop { tenant } => {
                out.push(1);
                put_u32(out, *tenant);
            }
        }),
        Request::WaitGraph => frame_into(out, OP_WAIT_GRAPH, id, |_| {}),
        Request::BindGid { gid } => frame_into(out, OP_BIND_GID, id, |out| put_u64(out, *gid)),
        Request::CancelWait { app } => {
            frame_into(out, OP_CANCEL_WAIT, id, |out| put_u32(out, *app))
        }
        Request::Probe { epoch, degraded } => frame_into(out, OP_PROBE, id, |out| {
            put_u64(out, *epoch);
            out.push(*degraded as u8);
        }),
        Request::BindEpoch { epoch } => {
            frame_into(out, OP_BIND_EPOCH, id, |out| put_u64(out, *epoch))
        }
    }
}

/// Encode a [`Request::LockBatch`] frame straight from a slice, so
/// callers batching from their own buffers need not build (and heap-
/// allocate) a `Request` first. `items.len()` must be ≤ [`MAX_BATCH`]
/// (debug-asserted here, enforced by the peer's decoder).
pub fn encode_lock_batch_into(out: &mut Vec<u8>, id: u64, items: &[(ResourceId, LockMode)]) {
    debug_assert!(items.len() <= MAX_BATCH, "batch exceeds MAX_BATCH");
    frame_into(out, OP_LOCK_BATCH, id, |out| {
        put_u32(out, items.len() as u32);
        for (res, mode) in items {
            put_resource(out, *res);
            out.push(mode_tag(*mode));
        }
    });
}

/// Encode a [`Reply::BatchOutcomes`] frame straight from a slice (the
/// server reuses one outcome buffer across batches).
pub fn encode_batch_outcomes_into(out: &mut Vec<u8>, id: u64, items: &[BatchOutcome]) {
    frame_into(out, OP_LOCK_BATCH_REPLY, id, |out| {
        put_u32(out, items.len() as u32);
        for item in items {
            put_batch_outcome(out, item);
        }
    });
}

/// Encode `req` as a complete frame (length prefix included).
/// Allocating convenience wrapper over [`encode_request_into`].
pub fn encode_request(id: u64, req: &Request) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    encode_request_into(&mut out, id, req);
    out
}

/// Decode a request payload (frame minus the length prefix).
pub fn decode_request(payload: &[u8]) -> Result<(u64, Request), WireError> {
    let mut r = Reader::new(payload);
    let opcode = r.u8()?;
    let id = r.u64()?;
    let req = match opcode {
        OP_LOCK => Request::Lock {
            res: get_resource(&mut r)?,
            mode: get_mode(&mut r)?,
        },
        OP_UNLOCK => Request::Unlock {
            res: get_resource(&mut r)?,
        },
        OP_UNLOCK_ALL => Request::UnlockAll,
        OP_STATS => Request::Stats,
        OP_PING => Request::Ping(r.bytes()?),
        OP_VALIDATE => Request::Validate,
        OP_LOCK_BATCH => {
            let n = get_batch_len(&mut r)?;
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                let res = get_resource(&mut r)?;
                let mode = get_mode(&mut r)?;
                items.push((res, mode));
            }
            Request::LockBatch(items)
        }
        OP_METRICS => Request::Metrics {
            reports_since: r.u64()?,
            max_events: r.u32()?,
        },
        OP_HELLO => Request::Hello { tenant: r.u32()? },
        OP_TENANT_STATS => Request::TenantStats {
            donations_since: r.u64()?,
        },
        OP_TENANT_CTL => Request::TenantCtl(match r.u8()? {
            0 => TenantCtl::Create { tenant: r.u32()? },
            1 => TenantCtl::Drop { tenant: r.u32()? },
            tag => {
                return Err(WireError::BadTag {
                    what: "tenant ctl",
                    tag,
                })
            }
        }),
        OP_WAIT_GRAPH => Request::WaitGraph,
        OP_BIND_GID => Request::BindGid { gid: r.u64()? },
        OP_CANCEL_WAIT => Request::CancelWait { app: r.u32()? },
        OP_PROBE => Request::Probe {
            epoch: r.u64()?,
            degraded: get_bool(&mut r)?,
        },
        OP_BIND_EPOCH => Request::BindEpoch { epoch: r.u64()? },
        tag => {
            return Err(WireError::BadTag {
                what: "request opcode",
                tag,
            })
        }
    };
    r.finish()?;
    Ok((id, req))
}

/// If `payload` is a [`Request::LockBatch`] frame, decode its items
/// into `items` (cleared first) and return `Some(request id)`; any
/// other opcode returns `None` untouched so the caller falls back to
/// [`decode_request`]. A server reusing `items` across frames decodes
/// its hot path with zero steady-state heap allocation.
pub fn decode_lock_batch_into(
    payload: &[u8],
    items: &mut Vec<(ResourceId, LockMode)>,
) -> Result<Option<u64>, WireError> {
    let mut r = Reader::new(payload);
    if r.u8()? != OP_LOCK_BATCH {
        return Ok(None);
    }
    let id = r.u64()?;
    let n = get_batch_len(&mut r)?;
    items.clear();
    items.reserve(n);
    for _ in 0..n {
        let res = get_resource(&mut r)?;
        let mode = get_mode(&mut r)?;
        items.push((res, mode));
    }
    r.finish()?;
    Ok(Some(id))
}

/// Encode `reply` as a complete frame into `out` (cleared first;
/// length prefix included). Reuse `out` across calls for
/// allocation-free steady-state encoding.
pub fn encode_reply_into(out: &mut Vec<u8>, id: u64, reply: &Reply) {
    match reply {
        Reply::Lock(res) => frame_into(out, OP_LOCK_REPLY, id, |out| {
            put_result(out, res, |out, o| put_outcome(out, *o))
        }),
        Reply::Unlock(res) => frame_into(out, OP_UNLOCK_REPLY, id, |out| {
            put_result(out, res, put_unlock_report)
        }),
        Reply::UnlockAll(res) => frame_into(out, OP_UNLOCK_ALL_REPLY, id, |out| {
            put_result(out, res, put_unlock_report)
        }),
        Reply::Stats(snap) => frame_into(out, OP_STATS_REPLY, id, |out| put_snapshot(out, snap)),
        Reply::Pong(echo) => frame_into(out, OP_PONG, id, |out| put_bytes(out, echo)),
        Reply::Validate(res) => frame_into(out, OP_VALIDATE_REPLY, id, |out| match res {
            Ok(rep) => {
                out.push(0);
                put_u64(out, rep.charged_slots);
                put_u64(out, rep.pool_used_slots);
            }
            Err(msg) => {
                out.push(1);
                put_bytes(out, msg.as_bytes());
            }
        }),
        Reply::BatchOutcomes(items) => encode_batch_outcomes_into(out, id, items),
        Reply::Metrics(snap) => frame_into(out, OP_METRICS_REPLY, id, |out| put_metrics(out, snap)),
        Reply::Hello(res) => frame_into(out, OP_HELLO_REPLY, id, |out| {
            put_string_result(out, res, |_, ()| {})
        }),
        Reply::TenantStats(t) => frame_into(out, OP_TENANT_STATS_REPLY, id, |out| {
            put_tenant_stats(out, t)
        }),
        Reply::TenantCtl(res) => frame_into(out, OP_TENANT_CTL_REPLY, id, |out| {
            put_string_result(out, res, |out, bytes| put_u64(out, *bytes))
        }),
        Reply::WaitGraph(g) => {
            frame_into(out, OP_WAIT_GRAPH_REPLY, id, |out| put_wait_graph(out, g))
        }
        Reply::BindGid(res) => frame_into(out, OP_BIND_GID_REPLY, id, |out| {
            put_string_result(out, res, |_, ()| {})
        }),
        Reply::CancelWait(cancelled) => frame_into(out, OP_CANCEL_WAIT_REPLY, id, |out| {
            out.push(*cancelled as u8)
        }),
        Reply::Busy => frame_into(out, OP_BUSY, id, |_| {}),
        Reply::ProbeAck {
            epoch,
            stale_sessions,
        } => frame_into(out, OP_PROBE_ACK, id, |out| {
            put_u64(out, *epoch);
            put_u64(out, *stale_sessions);
        }),
        Reply::BindEpoch => frame_into(out, OP_BIND_EPOCH_REPLY, id, |_| {}),
        Reply::WrongEpoch { current } => {
            frame_into(out, OP_WRONG_EPOCH, id, |out| put_u64(out, *current))
        }
    }
}

/// Encode `reply` as a complete frame (length prefix included).
/// Allocating convenience wrapper over [`encode_reply_into`].
pub fn encode_reply(id: u64, reply: &Reply) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    encode_reply_into(&mut out, id, reply);
    out
}

/// Decode a reply payload (frame minus the length prefix).
pub fn decode_reply(payload: &[u8]) -> Result<(u64, Reply), WireError> {
    let mut r = Reader::new(payload);
    let opcode = r.u8()?;
    let id = r.u64()?;
    let reply = match opcode {
        OP_LOCK_REPLY => Reply::Lock(get_result(&mut r, get_outcome)?),
        OP_UNLOCK_REPLY => Reply::Unlock(get_result(&mut r, get_unlock_report)?),
        OP_UNLOCK_ALL_REPLY => Reply::UnlockAll(get_result(&mut r, get_unlock_report)?),
        OP_STATS_REPLY => Reply::Stats(get_snapshot(&mut r)?),
        OP_PONG => Reply::Pong(r.bytes()?),
        OP_VALIDATE_REPLY => Reply::Validate(match r.u8()? {
            0 => Ok(ValidateReport {
                charged_slots: r.u64()?,
                pool_used_slots: r.u64()?,
            }),
            1 => Err(String::from_utf8_lossy(&r.bytes()?).into_owned()),
            tag => {
                return Err(WireError::BadTag {
                    what: "validate result",
                    tag,
                })
            }
        }),
        OP_LOCK_BATCH_REPLY => {
            let n = get_batch_len(&mut r)?;
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                items.push(get_batch_outcome(&mut r)?);
            }
            Reply::BatchOutcomes(items)
        }
        OP_METRICS_REPLY => Reply::Metrics(Box::new(get_metrics(&mut r)?)),
        OP_HELLO_REPLY => Reply::Hello(get_string_result(&mut r, |_| Ok(()))?),
        OP_TENANT_STATS_REPLY => Reply::TenantStats(Box::new(get_tenant_stats(&mut r)?)),
        OP_TENANT_CTL_REPLY => Reply::TenantCtl(get_string_result(&mut r, |r| r.u64())?),
        OP_WAIT_GRAPH_REPLY => Reply::WaitGraph(get_wait_graph(&mut r)?),
        OP_BIND_GID_REPLY => Reply::BindGid(get_string_result(&mut r, |_| Ok(()))?),
        OP_CANCEL_WAIT_REPLY => Reply::CancelWait(get_bool(&mut r)?),
        OP_BUSY => Reply::Busy,
        OP_PROBE_ACK => Reply::ProbeAck {
            epoch: r.u64()?,
            stale_sessions: r.u64()?,
        },
        OP_BIND_EPOCH_REPLY => Reply::BindEpoch,
        OP_WRONG_EPOCH => Reply::WrongEpoch { current: r.u64()? },
        tag => {
            return Err(WireError::BadTag {
                what: "reply opcode",
                tag,
            })
        }
    };
    r.finish()?;
    Ok((id, reply))
}

// ---------------------------------------------------------------------
// Blocking framed I/O
// ---------------------------------------------------------------------

fn wire_to_io(e: WireError) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, e)
}

/// Read one length-prefixed payload into `buf`, which is resized to
/// exactly the payload length (its capacity is reused across frames,
/// so a caller looping with one buffer reads with zero steady-state
/// heap allocation). `Ok(false)` on clean EOF at a frame boundary;
/// mid-frame EOF is `UnexpectedEof`.
pub fn read_payload_into(r: &mut impl std::io::Read, buf: &mut Vec<u8>) -> std::io::Result<bool> {
    let mut len_buf = [0u8; 4];
    // Hand-rolled first read so EOF-before-any-byte is clean EOF while
    // EOF mid-prefix is an error.
    let mut filled = 0;
    while filled < len_buf.len() {
        match r.read(&mut len_buf[filled..])? {
            0 if filled == 0 => return Ok(false),
            0 => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "EOF inside frame length prefix",
                ))
            }
            n => filled += n,
        }
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if !(HEADER_LEN..=MAX_PAYLOAD).contains(&len) {
        return Err(wire_to_io(WireError::BadLength(len)));
    }
    buf.resize(len, 0);
    r.read_exact(buf)?;
    Ok(true)
}

/// Read one length-prefixed payload. `Ok(None)` on clean EOF at a
/// frame boundary; mid-frame EOF is `UnexpectedEof`.
fn read_payload(r: &mut impl std::io::Read) -> std::io::Result<Option<Vec<u8>>> {
    let mut payload = Vec::new();
    Ok(read_payload_into(r, &mut payload)?.then_some(payload))
}

// ---------------------------------------------------------------------
// Nonblocking framed input
// ---------------------------------------------------------------------

/// Incremental frame accumulator for nonblocking sockets: the evented
/// server's per-connection read buffer. Bytes arrive in arbitrary
/// slices ([`FrameAccum::extend`]); complete payloads come out one at
/// a time ([`FrameAccum::next_payload`]) with the same validation the
/// blocking [`read_payload_into`] applies — a length prefix outside
/// `HEADER_LEN..=MAX_PAYLOAD` is rejected before any of the payload
/// is buffered, so a hostile prefix cannot balloon memory.
///
/// Consumed bytes compact lazily: the buffer shifts only when the
/// unread tail is small or the buffer has grown past its high-water
/// mark, so a burst of pipelined frames parses with no per-frame
/// `memmove`.
#[derive(Debug, Default)]
pub struct FrameAccum {
    buf: Vec<u8>,
    /// Start of unconsumed bytes in `buf`.
    start: usize,
}

impl FrameAccum {
    /// An empty accumulator.
    pub fn new() -> FrameAccum {
        FrameAccum::default()
    }

    /// Append bytes read from the socket.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.compact_if_worthwhile();
        self.buf.extend_from_slice(bytes);
    }

    /// Buffered bytes not yet consumed by [`FrameAccum::next_payload`].
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    /// The next complete payload (opcode + id + body, prefix already
    /// stripped and validated), or `Ok(None)` if more bytes are
    /// needed. Errors on a corrupt length prefix, matching
    /// [`read_payload_into`]'s `InvalidData`.
    pub fn next_payload(&mut self) -> std::io::Result<Option<&[u8]>> {
        let avail = &self.buf[self.start..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(avail[..4].try_into().expect("4 bytes checked")) as usize;
        if !(HEADER_LEN..=MAX_PAYLOAD).contains(&len) {
            return Err(wire_to_io(WireError::BadLength(len)));
        }
        if avail.len() < 4 + len {
            return Ok(None);
        }
        let frame_start = self.start + 4;
        self.start += 4 + len;
        Ok(Some(&self.buf[frame_start..frame_start + len]))
    }

    /// Shift consumed bytes out when the copy is cheap (small tail) or
    /// overdue (buffer past 4× the max frame).
    fn compact_if_worthwhile(&mut self) {
        if self.start == 0 {
            return;
        }
        let tail = self.pending();
        if tail == 0 {
            self.buf.clear();
            self.start = 0;
        } else if self.start >= 4 * MAX_PAYLOAD || tail <= 4096 {
            self.buf.copy_within(self.start.., 0);
            self.buf.truncate(tail);
            self.start = 0;
        }
    }
}

/// Write one encoded request frame (no flush; callers batch-flush to
/// pipeline).
pub fn write_request(w: &mut impl std::io::Write, id: u64, req: &Request) -> std::io::Result<()> {
    w.write_all(&encode_request(id, req))
}

/// Read one request frame. `Ok(None)` on clean EOF.
pub fn read_request(r: &mut impl std::io::Read) -> std::io::Result<Option<(u64, Request)>> {
    match read_payload(r)? {
        None => Ok(None),
        Some(p) => decode_request(&p).map(Some).map_err(wire_to_io),
    }
}

/// Write one encoded reply frame (no flush).
pub fn write_reply(w: &mut impl std::io::Write, id: u64, reply: &Reply) -> std::io::Result<()> {
    w.write_all(&encode_reply(id, reply))
}

/// Read one reply frame. `Ok(None)` on clean EOF.
pub fn read_reply(r: &mut impl std::io::Read) -> std::io::Result<Option<(u64, Reply)>> {
    match read_payload(r)? {
        None => Ok(None),
        Some(p) => decode_reply(&p).map(Some).map_err(wire_to_io),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip_basics() {
        let reqs = [
            Request::Lock {
                res: ResourceId::Row(TableId(7), RowId(u64::MAX)),
                mode: LockMode::SIX,
            },
            Request::Unlock {
                res: ResourceId::Table(TableId(0)),
            },
            Request::UnlockAll,
            Request::Stats,
            Request::Ping(vec![1, 2, 3]),
            Request::Validate,
        ];
        for (i, req) in reqs.iter().enumerate() {
            let f = encode_request(i as u64, req);
            let (id, back) = decode_request(&f[4..]).unwrap();
            assert_eq!(id, i as u64);
            assert_eq!(&back, req);
        }
    }

    #[test]
    fn max_length_ping_roundtrips_and_oversize_is_rejected() {
        // Largest legal echo: payload = header + u32 len + bytes.
        let max_echo = MAX_PAYLOAD - HEADER_LEN - 4;
        let echo: Vec<u8> = (0..max_echo).map(|i| i as u8).collect();
        let f = encode_request(99, &Request::Ping(echo.clone()));
        assert_eq!(f.len() - 4, MAX_PAYLOAD);
        let (_, back) = decode_request(&f[4..]).unwrap();
        assert_eq!(back, Request::Ping(echo));

        // One byte more must be refused by the framed reader.
        let over = encode_request(99, &Request::Ping(vec![0; max_echo + 1]));
        let err = read_request(&mut &over[..]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn failover_ops_roundtrip() {
        let reqs = [
            Request::Probe {
                epoch: 7,
                degraded: true,
            },
            Request::Probe {
                epoch: 0,
                degraded: false,
            },
            Request::BindEpoch { epoch: u64::MAX },
        ];
        for (i, req) in reqs.iter().enumerate() {
            let f = encode_request(i as u64, req);
            let (id, back) = decode_request(&f[4..]).unwrap();
            assert_eq!(id, i as u64);
            assert_eq!(&back, req);
        }
        let replies = [
            Reply::ProbeAck {
                epoch: 3,
                stale_sessions: 2,
            },
            Reply::BindEpoch,
            Reply::WrongEpoch { current: 4 },
        ];
        for (i, reply) in replies.iter().enumerate() {
            let f = encode_reply(i as u64, reply);
            let (id, back) = decode_reply(&f[4..]).unwrap();
            assert_eq!(id, i as u64);
            assert_eq!(&back, reply);
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut f = encode_request(1, &Request::UnlockAll);
        f.push(0xAA);
        // Patch the length so the framed layer accepts it; the decoder
        // must still notice the extra byte.
        let len = (f.len() - 4) as u32;
        f[..4].copy_from_slice(&len.to_le_bytes());
        assert_eq!(decode_request(&f[4..]), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn clean_eof_is_none_and_partial_prefix_is_error() {
        assert!(read_request(&mut std::io::empty()).unwrap().is_none());
        let half_prefix = [3u8, 0];
        let err = read_request(&mut &half_prefix[..]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }
}
