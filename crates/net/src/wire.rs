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
// The codec: every layout declared once
// ---------------------------------------------------------------------
//
// Each type on the wire has one `Wire` impl, and each impl comes from
// a single declaration that both directions are derived from: a
// primitive below, a `record!` (fields in wire order), a `tagged!`
// union (a tag byte, then the variant's fields), or one of the two
// frame tables (the same union shape, with the opcode as the tag and
// the request id between it and the fields). Encoder and decoder
// cannot disagree about an order they never spell out separately;
// `tests/wire_golden.rs` pins the resulting bytes.

/// One type's wire encoding, both directions. Every codec function
/// here is `#[inline]`: they are leaf-sized, and a frame decoder that
/// cannot see through them runs the `wire.decode_*` rows 1.5–5× slower.
trait Wire: Sized {
    /// Append the encoding of `self` to `out`.
    fn put(&self, out: &mut Vec<u8>);
    /// Decode one value, consuming exactly its encoding.
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError>;
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

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// A `u32` length, then that many bytes.
    #[inline]
    fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = u32::get(self)? as usize;
        self.take(len)
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

// -- primitives ---------------------------------------------------------

/// Integers travel little-endian at their full width.
macro_rules! le_int {
    ($($t:ty),+) => {$(
        impl Wire for $t {
            #[inline]
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }

            #[inline]
            fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
                let bytes = r.take(std::mem::size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(bytes.try_into().expect("take returns the width asked")))
            }
        }
    )+};
}

le_int!(u8, u32, u64);

/// The id newtypes travel as the integer they wrap.
macro_rules! newtype {
    ($($t:ident),+) => {$(
        impl Wire for $t {
            #[inline]
            fn put(&self, out: &mut Vec<u8>) {
                self.0.put(out);
            }

            #[inline]
            fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
                Ok($t(Wire::get(r)?))
            }
        }
    )+};
}

newtype!(AppId, TableId, RowId);

/// An `f64` travels as its IEEE-754 bits.
impl Wire for f64 {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        self.to_bits().put(out);
    }

    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(f64::from_bits(u64::get(r)?))
    }
}

/// One byte, strictly `0` or `1`: exactly one legal encoding.
impl Wire for bool {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }

    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::get(r)? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::BadTag { what: "bool", tag }),
        }
    }
}

/// Nothing at all: the `Ok` arm of a bare acknowledgement.
impl Wire for () {
    #[inline]
    fn put(&self, _: &mut Vec<u8>) {}

    #[inline]
    fn get(_: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(())
    }
}

#[inline]
fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    (bytes.len() as u32).put(out);
    out.extend_from_slice(bytes);
}

/// Opaque bytes (a ping echo): `u32` length, then the bytes.
impl Wire for Vec<u8> {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        put_bytes(out, self);
    }

    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(r.bytes()?.to_vec())
    }
}

/// A message: length-prefixed UTF-8, decoded lossily (it is only ever
/// displayed).
impl Wire for String {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        put_bytes(out, self.as_bytes());
    }

    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(String::from_utf8_lossy(r.bytes()?).into_owned())
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }

    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

impl<T: Wire> Wire for Box<T> {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        (**self).put(out);
    }

    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Box::new(T::get(r)?))
    }
}

// -- counted collections -----------------------------------------------

/// A counted collection: `u32` count, then the items.
#[inline]
fn put_items<T: Wire>(out: &mut Vec<u8>, items: &[T]) {
    (items.len() as u32).put(out);
    for item in items {
        item.put(out);
    }
}

/// Read a collection's count, refusing one above `max` with
/// `too_many(n)` before anything is allocated for it.
#[inline]
fn get_count(
    r: &mut Reader<'_>,
    max: usize,
    too_many: impl FnOnce(usize) -> WireError,
) -> Result<usize, WireError> {
    let n = u32::get(r)? as usize;
    if n > max {
        return Err(too_many(n));
    }
    Ok(n)
}

/// Decode `n` items into `items`, cleared first (its capacity is
/// reused, so a caller looping with one buffer allocates nothing).
#[inline]
fn get_items_into<T: Wire>(
    r: &mut Reader<'_>,
    n: usize,
    items: &mut Vec<T>,
) -> Result<(), WireError> {
    items.clear();
    items.reserve(n);
    for _ in 0..n {
        items.push(T::get(r)?);
    }
    Ok(())
}

/// A bounded collection inside a record: at most `max` items, a larger
/// count is [`WireError::TooMany`] naming `what`.
#[inline]
fn get_counted<T: Wire>(
    r: &mut Reader<'_>,
    max: usize,
    what: &'static str,
) -> Result<Vec<T>, WireError> {
    let n = get_count(r, max, |n| WireError::TooMany { what, n })?;
    let mut items = Vec::new();
    get_items_into(r, n, &mut items)?;
    Ok(items)
}

/// A lock batch's item count: at most [`MAX_BATCH`], a larger one is
/// [`WireError::BatchTooLarge`].
#[inline]
fn get_batch_len(r: &mut Reader<'_>) -> Result<usize, WireError> {
    get_count(r, MAX_BATCH, WireError::BatchTooLarge)
}

/// Items of the two lock-batch collections ([`Request::LockBatch`] and
/// [`Reply::BatchOutcomes`]).
trait BatchItem: Wire {}

impl BatchItem for (ResourceId, LockMode) {}
impl BatchItem for BatchOutcome {}

impl<T: BatchItem> Wire for Vec<T> {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        put_items(out, self);
    }

    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = get_batch_len(r)?;
        let mut items = Vec::new();
        get_items_into(r, n, &mut items)?;
        Ok(items)
    }
}

// -- records -----------------------------------------------------------

/// `Name { field, field, … }`: the fields in declared order, each in
/// its own encoding. A counted collection carries its bound and error
/// label: `field [MAX, "what"]` (debug-asserted when encoding — the
/// server truncates first — and refused before allocating when
/// decoding). The decoder builds the struct literal, so a field the
/// declaration forgets is a compile error.
macro_rules! record {
    (@put $out:ident, $v:expr) => {
        $v.put($out)
    };
    (@put $out:ident, $v:expr, $max:expr, $what:literal) => {{
        debug_assert!($v.len() <= $max, concat!($what, " exceed the wire bound"));
        put_items($out, &$v)
    }};
    (@get $r:ident) => {
        Wire::get($r)?
    };
    (@get $r:ident, $max:expr, $what:literal) => {
        get_counted($r, $max, $what)?
    };
    ($($name:ident { $($f:ident $([$max:expr, $what:literal])?),+ $(,)? })+) => {$(
        impl Wire for $name {
            #[inline]
            fn put(&self, out: &mut Vec<u8>) {
                $(record!(@put out, self.$f $(, $max, $what)?);)+
            }

            #[inline]
            fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
                Ok($name { $($f: record!(@get r $(, $max, $what)?),)+ })
            }
        }
    )+};
}

record! {
    UnlockReport { released_locks, freed_slots }
    LockStats {
        grants, waits, conversions, covered_by_table, escalations, exclusive_escalations,
        rows_escalated, voluntary_escalations, sync_growth_requests, sync_growth_denied, denials,
        queue_grants, cancelled_waits, deadlock_aborts,
    }
    ValidateReport { charged_slots, pool_used_slots }
    ObsCounters {
        timeouts, batches, batch_items, deadlock_victims, sync_growth_granted, sync_growth_denied,
        depot_reclaim_sweeps, depot_reclaimed_slots, journal_recorded, journal_dropped,
        watchdog_restarts, clients_evicted, shed_engaged, shed_released, shed_rejected,
        faults_injected, remote_cancels, failover_probes, epoch_bumps, fenced_requests,
        degraded_batches, grant_spin_hits, grant_parks,
    }
    JournalEvent { seq, at_ms, kind }
    TuningTick {
        seq, reason, target_bytes, current_bytes, lock_bytes_after, funded_bytes, released_bytes,
        app_percent,
    }
    IoShardStats {
        shard, connections, wakeups, writev_calls, writev_frames, write_buf_hwm, spin_hits, parks,
    }
    MetricsSnapshot {
        uptime_ms, lock_stats, counters, pool_bytes, pool_slots_total, pool_slots_used,
        connected_apps, app_percent, min_free_fraction, max_free_fraction, free_fraction,
        tuning_intervals, grow_decisions, shrink_decisions, reply_queue_hwm, fence_epoch,
        lock_wait_micros, latch_hold_nanos, batch_size, sync_stall_micros,
        events [MAX_WIRE_EVENTS, "journal events"], next_event_seq,
        ticks [MAX_WIRE_TICKS, "tuning ticks"], next_tick_seq,
        io_shards [MAX_WIRE_IO_SHARDS, "io shards"],
    }
    TenantRow {
        id, budget, floor, pool_bytes, pool_slots_used, free_fraction, benefit, connected_apps,
        escalations, denials, shedding,
    }
    TenantDonation { seq, at_ms, from, to, bytes, from_benefit, to_benefit }
    MachineRollup {
        machine_budget, free_budget, arbitrations, donations, donated_bytes,
        tenants [MAX_WIRE_TENANTS, "tenant rows"],
    }
    TenantStatsReply {
        rollup, donations [MAX_WIRE_DONATIONS, "donations"], next_donation_seq,
    }
    WaitGraphReply {
        edges [MAX_WIRE_EDGES, "wait edges"], gids [MAX_WIRE_GIDS, "gid bindings"],
    }
}

/// Sparse histogram encoding: `u8` non-zero bucket count, then
/// `(u8 bucket index, u64 count)` pairs in strictly ascending index
/// order, then `u64` sum and `u64` max. The snapshot's `total` never
/// travels — the decoder re-derives it from the buckets
/// ([`HistogramSnapshot::from_parts`]), so a frame cannot claim samples
/// its buckets don't hold.
impl Wire for HistogramSnapshot {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        let nonzero = self.counts.iter().filter(|&&c| c != 0).count() as u8;
        nonzero.put(out);
        for (k, &c) in self.counts.iter().enumerate() {
            if c != 0 {
                (k as u8).put(out);
                c.put(out);
            }
        }
        self.sum.put(out);
        self.max.put(out);
    }

    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let nonzero = u8::get(r)? as usize;
        if nonzero > BUCKETS {
            return Err(WireError::TooMany {
                what: "histogram buckets",
                n: nonzero,
            });
        }
        let mut counts = [0u64; BUCKETS];
        let mut last: Option<usize> = None;
        for _ in 0..nonzero {
            let k = u8::get(r)? as usize;
            // Strictly ascending, in range and non-zero: exactly one
            // legal encoding per snapshot, so decode(encode(h)) == h and
            // a forged duplicate index cannot double-count a bucket.
            let c = u64::get(r)?;
            if k >= BUCKETS || last.is_some_and(|p| k <= p) || c == 0 {
                return Err(WireError::BadTag {
                    what: "histogram bucket",
                    tag: k as u8,
                });
            }
            counts[k] = c;
            last = Some(k);
        }
        let sum = u64::get(r)?;
        let max = u64::get(r)?;
        Ok(HistogramSnapshot::from_parts(counts, sum, max))
    }
}

// -- tagged unions -----------------------------------------------------

/// A tag byte, then the fields of the variant it names.
trait Tagged: Sized {
    /// Write the tag, then `between` (a frame's request id; nothing
    /// anywhere else), then the variant's fields.
    fn put_tagged(&self, out: &mut Vec<u8>, between: impl FnOnce(&mut Vec<u8>));
    /// Decode the fields of the variant `tag` names.
    fn get_fields(tag: u8, r: &mut Reader<'_>) -> Result<Self, WireError>;
}

/// A `Tagged` type on its own (not as a frame): nothing between the
/// tag and the fields.
macro_rules! tagged_wire {
    ($name:ident $(<$($g:ident),+>)?) => {
        impl $(<$($g: Wire),+>)? Wire for $name $(<$($g),+>)? {
            #[inline]
            fn put(&self, out: &mut Vec<u8>) {
                self.put_tagged(out, |_| {});
            }

            #[inline]
            fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
                let tag = u8::get(r)?;
                Self::get_fields(tag, r)
            }
        }
    };
}

/// `Name "what" { tag Variant, tag Variant(a, b), tag Variant { x, y }, … }`:
/// each variant's tag and its fields in declared order; an unknown tag
/// is [`WireError::BadTag`] naming `what`. `… as OP_NAME` also names
/// the tag as a constant for the hand-written batch paths.
macro_rules! tagged {
    ($(
        $name:ident $(<$($g:ident),+>)? $what:literal {
            $($tag:literal $v:ident $(($($t:ident),+))? $({ $($f:ident),+ })? $(as $op:ident)?),+
            $(,)?
        }
    )+) => {$(
        $($(const $op: u8 = $tag;)?)+
        tagged_wire!($name $(<$($g),+>)?);

        impl $(<$($g: Wire),+>)? Tagged for $name $(<$($g),+>)? {
            #[inline]
            fn put_tagged(&self, out: &mut Vec<u8>, between: impl FnOnce(&mut Vec<u8>)) {
                match self {$(
                    $name::$v $(($($t),+))? $({ $($f),+ })? => {
                        out.push($tag);
                        between(out);
                        $($($t.put(out);)+)?
                        $($($f.put(out);)+)?
                    }
                )+}
            }

            #[allow(unused_variables)] // `r`, by unions without fields
            #[inline]
            fn get_fields(tag: u8, r: &mut Reader<'_>) -> Result<Self, WireError> {
                Ok(match tag {
                    $($tag => {
                        $($(let $t = Wire::get(r)?;)+)?
                        $($(let $f = Wire::get(r)?;)+)?
                        $name::$v $(($($t),+))? $({ $($f),+ })?
                    })+
                    tag => return Err(WireError::BadTag { what: $what, tag }),
                })
            }
        }
    )+};
}

tagged! {
    Option<T> "option" { 0 None, 1 Some(v) }
    Result<T, E> "result" { 0 Ok(v), 1 Err(e) }
    LockMode "mode" { 0 IS, 1 IX, 2 S, 3 SIX, 4 U, 5 X }
    ResourceId "resource" { 0 Table(t), 1 Row(t, row) }
    LockOutcome "outcome" {
        0 Granted, 1 AlreadyHeld, 2 CoveredByTableLock, 3 Queued,
        4 GrantedAfterEscalation { table, exclusive },
        5 QueuedWithEscalation { table },
    }
    LockError "lock error" {
        0 NotHeld(res), 1 NothingToEscalate, 2 OutOfLockMemory, 3 MissingIntent(res),
        4 AlreadyWaiting(res),
    }
    ServiceError "service error" {
        0 Lock(e), 1 Timeout, 2 DeadlockVictim, 3 ShuttingDown, 4 AlreadyConnected(app),
        // The shedding tenant's id, so a multi-database client backs
        // off exactly the tenant that rejected it.
        5 Overloaded { tenant },
    }
    EventKind "event" {
        0 Escalation { app, table, exclusive }, 1 DeadlockVictim { app },
        2 SyncGrowth { granted_bytes }, 3 TunerResize { from_bytes, to_bytes },
        4 DepotReclaim { slots },
        // Tags 5–9 match the journal's own packing order.
        5 WatchdogRestart { thread }, 6 ClientEvicted { app }, 7 ShedEngaged { ooms },
        8 ShedReleased, 9 FaultInjected { site, count }, 10 RemoteCancel { app },
        11 EpochBump { epoch }, 12 RequestFenced { epoch },
    }
    ThreadRole "thread role" { 0 Tuner, 1 Sweeper }
    TuningReason "tuning reason" {
        0 GrowForFreeTarget, 1 WithinBand, 2 ShrinkDeltaReduce, 3 EscalationDoubling,
        4 ClampedToMin, 5 ClampedToMax,
    }
    TenantCtl "tenant ctl" { 0 Create { tenant }, 1 Drop { tenant } }
}

/// `Skipped`'s tag: `Done(result)` travels as the result itself
/// (tags 0 and 1), so a batch item is one tag byte either way.
const SKIPPED: u8 = 2;

tagged_wire!(BatchOutcome);

impl Tagged for BatchOutcome {
    #[inline]
    fn put_tagged(&self, out: &mut Vec<u8>, between: impl FnOnce(&mut Vec<u8>)) {
        match self {
            BatchOutcome::Done(result) => result.put_tagged(out, between),
            BatchOutcome::Skipped => {
                out.push(SKIPPED);
                between(out);
            }
        }
    }

    #[inline]
    fn get_fields(tag: u8, r: &mut Reader<'_>) -> Result<Self, WireError> {
        match tag {
            SKIPPED => Ok(BatchOutcome::Skipped),
            tag => Ok(BatchOutcome::Done(Tagged::get_fields(tag, r)?)),
        }
    }
}

// ---------------------------------------------------------------------
// Frame tables: the one list of opcodes
// ---------------------------------------------------------------------

tagged! {
    Request "request opcode" {
        0x01 Lock { res, mode },
        0x02 Unlock { res },
        0x03 UnlockAll,
        // 0x04 (and its reply 0x84) carried the retired Stats
        // snapshot, now a subset of Metrics. Never reuse it: an old
        // client's Stats frame must fail to decode, not mean something
        // else.
        0x05 Ping(echo),
        0x06 Validate,
        0x07 LockBatch(items) as OP_LOCK_BATCH,
        0x08 Metrics { reports_since, max_events },
        0x09 Hello { tenant },
        0x0A TenantStats { donations_since },
        0x0B TenantCtl(action),
        0x0C WaitGraph,
        0x0D BindGid { gid },
        0x0E CancelWait { app },
        0x0F Probe { epoch, degraded },
        // 0x10 is unusable as a request opcode: its reply alias
        // 0x10 | 0x80 = 0x90 collides with Busy, so the request space
        // skips to 0x11.
        0x11 BindEpoch { epoch },
    }

    // Reply opcodes are the request opcode | 0x80.
    Reply "reply opcode" {
        0x81 Lock(result),
        0x82 Unlock(result),
        0x83 UnlockAll(result),
        // 0x84: retired with 0x04 (see above).
        0x85 Pong(echo),
        0x86 Validate(result),
        0x87 BatchOutcomes(items) as OP_BATCH_OUTCOMES,
        0x88 Metrics(snapshot),
        0x89 Hello(result),
        0x8A TenantStats(stats),
        0x8B TenantCtl(result),
        0x8C WaitGraph(graph),
        0x8D BindGid(result),
        0x8E CancelWait(cancelled),
        0x8F ProbeAck { epoch, stale_sessions },
        // Server-initiated (no matching request opcode; sent with id 0
        // when the connection is refused at admission).
        0x90 Busy,
        0x91 BindEpoch,
        // Fencing reply: answers a Lock/LockBatch/BindEpoch whose
        // connection carries an epoch older than the server's fence
        // (correlated by the request id, like any other reply).
        0x92 WrongEpoch { current },
    }
}

// ---------------------------------------------------------------------
// Frame encode/decode
// ---------------------------------------------------------------------

/// Write one frame into `out`, which is cleared first: a `u32` length
/// prefix, patched once `payload` has written opcode, id and body. The
/// hot-path entry point: a caller reusing `out` across frames encodes
/// with **zero** steady-state heap allocation (the buffer keeps its
/// capacity; everything is `extend_from_slice`).
fn frame_into(out: &mut Vec<u8>, payload: impl FnOnce(&mut Vec<u8>)) {
    out.clear();
    out.extend_from_slice(&[0; 4]);
    payload(out);
    let len = (out.len() - 4) as u32;
    out[..4].copy_from_slice(&len.to_le_bytes());
    // MAX_PAYLOAD is enforced where it protects someone: on the
    // receiving side (`check_len`), and by `Client` before it writes.
}

/// Decode a payload (frame minus the length prefix) of either table.
fn decode_frame<T: Tagged>(payload: &[u8]) -> Result<(u64, T), WireError> {
    let mut r = Reader::new(payload);
    let opcode = u8::get(&mut r)?;
    let id = u64::get(&mut r)?;
    let msg = T::get_fields(opcode, &mut r)?;
    r.finish()?;
    Ok((id, msg))
}

/// Encode `req` as a complete frame into `out` (cleared first; length
/// prefix included). Reuse `out` across calls for allocation-free
/// steady-state encoding.
pub fn encode_request_into(out: &mut Vec<u8>, id: u64, req: &Request) {
    frame_into(out, |out| req.put_tagged(out, |out| id.put(out)));
}

/// Encode a [`Request::LockBatch`] frame straight from a slice, so
/// callers batching from their own buffers need not build (and heap-
/// allocate) a `Request` first. `items.len()` must be ≤ [`MAX_BATCH`]
/// (checked by [`crate::Client`] before it writes, enforced by the
/// peer's decoder).
pub fn encode_lock_batch_into(out: &mut Vec<u8>, id: u64, items: &[(ResourceId, LockMode)]) {
    frame_into(out, |out| {
        out.push(OP_LOCK_BATCH);
        id.put(out);
        put_items(out, items);
    });
}

/// Encode a [`Reply::BatchOutcomes`] frame straight from a slice (the
/// server reuses one outcome buffer across batches).
pub fn encode_batch_outcomes_into(out: &mut Vec<u8>, id: u64, items: &[BatchOutcome]) {
    frame_into(out, |out| {
        out.push(OP_BATCH_OUTCOMES);
        id.put(out);
        put_items(out, items);
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
    decode_frame(payload)
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
    if u8::get(&mut r)? != OP_LOCK_BATCH {
        return Ok(None);
    }
    let id = u64::get(&mut r)?;
    let n = get_batch_len(&mut r)?;
    get_items_into(&mut r, n, items)?;
    r.finish()?;
    Ok(Some(id))
}

/// The checks a peer applies to a request frame before its body: the
/// payload length, and a lock batch's item count. The client runs them
/// on each encoded frame before writing it — a frame the server must
/// refuse would cost the connection and every lock its session holds.
pub(crate) fn check_request_frame(frame: &[u8]) -> Result<(), WireError> {
    check_len(frame.len() - 4)?;
    let mut r = Reader::new(&frame[4..]);
    if u8::get(&mut r)? == OP_LOCK_BATCH {
        u64::get(&mut r)?;
        get_batch_len(&mut r)?;
    }
    Ok(())
}

/// Encode `reply` as a complete frame into `out` (cleared first;
/// length prefix included). Reuse `out` across calls for
/// allocation-free steady-state encoding.
pub fn encode_reply_into(out: &mut Vec<u8>, id: u64, reply: &Reply) {
    frame_into(out, |out| reply.put_tagged(out, |out| id.put(out)));
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
    decode_frame(payload)
}

// ---------------------------------------------------------------------
// Blocking framed I/O
// ---------------------------------------------------------------------

fn wire_to_io(e: WireError) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, e)
}

/// A payload must hold at least a header and at most [`MAX_PAYLOAD`]
/// bytes — checked before any of it is buffered, so a hostile length
/// prefix cannot balloon memory.
fn check_len(len: usize) -> Result<(), WireError> {
    if (HEADER_LEN..=MAX_PAYLOAD).contains(&len) {
        Ok(())
    } else {
        Err(WireError::BadLength(len))
    }
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
    check_len(len).map_err(wire_to_io)?;
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
        check_len(len).map_err(wire_to_io)?;
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
