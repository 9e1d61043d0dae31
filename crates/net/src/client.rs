//! Synchronous client library for the locktune wire protocol.
//!
//! [`Client`] owns one TCP connection. The simple API
//! ([`Client::lock`], [`Client::unlock_all`], …) is one round trip per
//! call; the pipelining API ([`Client::send`], [`Client::flush`],
//! [`Client::wait`]) separates submission from completion so a batch
//! of requests rides one socket flush and replies are collected by
//! request id afterwards. Replies arriving while waiting for a
//! different id are stashed, so completions can be consumed in any
//! order. [`Client::lock_batch`] goes one further: the whole lock set
//! travels as a single `LockBatch` frame answered by a single
//! `BatchOutcomes` frame — one codec pass and one syscall per
//! direction per transaction. Encode and receive buffers are reused
//! across calls, so steady-state requests allocate nothing.

use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;

use locktune_lockmgr::{LockMode, LockOutcome, ResourceId, UnlockReport};
use locktune_obs::MetricsSnapshot;
use locktune_service::{BatchOutcome, ServiceError, SpinPark, SpinStats};

use crate::poll;
use crate::wire::{
    self, Reply, Request, TenantCtl, TenantStatsReply, ValidateReport, WaitGraphReply,
};

/// A client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// The socket failed (including the server closing mid-reply).
    Io(std::io::Error),
    /// The server executed the request and reported a service error
    /// (timeout, deadlock victim, lock error, …).
    Service(ServiceError),
    /// The server broke protocol (wrong reply type for the request, or
    /// an accounting-validation failure message).
    Protocol(String),
    /// The server refused the connection at admission
    /// ([`Reply::Busy`]: its `max_connections` cap is reached). The
    /// connection is dead; retry with backoff.
    Busy,
    /// A [`ReconnectingClient`] lost its connection mid-operation and
    /// established a **new session**. Every lock held by the old
    /// session is gone (the server released them on disconnect) and
    /// whether the in-flight request took effect is unknowable — the
    /// caller must restart its transaction from the top. Issued
    /// instead of silently retrying precisely because lock requests
    /// are not idempotent.
    ///
    /// [`ReconnectingClient`]: crate::ReconnectingClient
    Reconnected,
    /// A [`ReconnectingClient`] exhausted its lifetime connection
    /// budget ([`ReconnectConfig::max_total_attempts`]) and is
    /// terminally dead: this and every future call fails immediately
    /// with the same error. A cluster router treats the node as down
    /// rather than blocking its whole batch on one unreachable
    /// partition.
    ///
    /// [`ReconnectingClient`]: crate::ReconnectingClient
    /// [`ReconnectConfig::max_total_attempts`]: crate::ReconnectConfig::max_total_attempts
    GaveUp {
        /// Total connection attempts made over the client's lifetime.
        attempts: u64,
    },
    /// The server fenced the request: this connection is bound to a
    /// partition-map epoch older than the server's fence
    /// ([`Reply::WrongEpoch`]). The cluster map changed under the
    /// caller — locks acquired under the stale epoch must be treated
    /// as lost. Refresh the map, re-bind at `current` (or later), and
    /// restart the transaction.
    StaleEpoch {
        /// The server's current fence epoch.
        current: u64,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Service(e) => write!(f, "service: {e}"),
            ClientError::Protocol(msg) => write!(f, "protocol: {msg}"),
            ClientError::Busy => f.write_str("server busy: connection refused at admission"),
            ClientError::Reconnected => {
                f.write_str("reconnected with a new session; previous locks are gone")
            }
            ClientError::GaveUp { attempts } => {
                write!(f, "gave up after {attempts} connection attempts")
            }
            ClientError::StaleEpoch { current } => {
                write!(f, "request fenced: stale epoch (server is at {current})")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// One connection to a locktune server.
pub struct Client {
    writer: BufWriter<TcpStream>,
    reader: BufReader<TcpStream>,
    next_id: u64,
    /// Replies that arrived while waiting for a different id.
    stash: HashMap<u64, Reply>,
    /// Frames queued since the last flush. Lets [`Client::wait`] skip
    /// the flush entirely when nothing is pending (e.g. draining a
    /// pipelined batch's replies one id at a time).
    dirty: bool,
    /// Reusable encode buffer: steady-state sends allocate nothing.
    encode_buf: Vec<u8>,
    /// Reusable receive buffer for frame payloads.
    read_buf: Vec<u8>,
    /// Spin-then-park state for reply waits.
    spin: SpinPark,
}

impl Client {
    /// Connect to `addr`.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let read_half = stream.try_clone()?;
        Ok(Client {
            writer: BufWriter::new(stream),
            reader: BufReader::new(read_half),
            next_id: 1,
            stash: HashMap::new(),
            dirty: false,
            encode_buf: Vec::new(),
            read_buf: Vec::new(),
            spin: SpinPark::new(),
        })
    }

    // -- pipelining API --------------------------------------------------

    /// Queue the frame in `encode_buf`. A frame the server must refuse
    /// (an oversized ping, a batch over `MAX_BATCH` items) is refused
    /// here instead, before a byte is written: the server would drop
    /// the connection, and with it every lock this session holds.
    fn push_frame(&mut self) -> Result<u64, ClientError> {
        wire::check_request_frame(&self.encode_buf)
            .map_err(|e| ClientError::Protocol(format!("refusing to send: {e}")))?;
        let id = self.next_id;
        self.next_id += 1;
        self.writer.write_all(&self.encode_buf)?;
        self.dirty = true;
        Ok(id)
    }

    /// Queue `req` without waiting (or even flushing); returns the
    /// request id to [`Client::wait`] on.
    pub fn send(&mut self, req: &Request) -> Result<u64, ClientError> {
        wire::encode_request_into(&mut self.encode_buf, self.next_id, req);
        self.push_frame()
    }

    /// Queue one `LockBatch` frame for `items` without building a
    /// [`Request`] (no allocation); returns the request id whose
    /// [`Reply::BatchOutcomes`] to [`Client::wait`] on.
    pub fn send_lock_batch(
        &mut self,
        items: &[(ResourceId, LockMode)],
    ) -> Result<u64, ClientError> {
        wire::encode_lock_batch_into(&mut self.encode_buf, self.next_id, items);
        self.push_frame()
    }

    /// Push queued requests onto the wire (no-op when nothing is
    /// queued).
    pub fn flush(&mut self) -> Result<(), ClientError> {
        if self.dirty {
            self.writer.flush()?;
            self.dirty = false;
        }
        Ok(())
    }

    /// Block until the reply for `id` arrives. The out-of-order stash
    /// is checked first; only a miss flushes (so a forgotten flush
    /// cannot deadlock the caller against its own buffer, and a hit
    /// touches no socket state at all). Replies for other ids are
    /// stashed for their own waits.
    pub fn wait(&mut self, id: u64) -> Result<Reply, ClientError> {
        if let Some(reply) = self.stash.remove(&id) {
            return Ok(reply);
        }
        self.flush()?;
        loop {
            // Nothing buffered: the read below would park in the
            // kernel until the server answers. Probe the socket first
            // (the shared spin-then-park policy) — once replies have
            // been seen to arrive inside the spin, the wake-up is never
            // paid; until then, and whenever the server turns slow, the
            // policy goes straight to the read.
            if self.reader.buffer().is_empty() {
                let fd = self.reader.get_ref().as_raw_fd();
                self.spin
                    .spin(None, || poll::readable_now(fd).then_some(()));
            }
            if !wire::read_payload_into(&mut self.reader, &mut self.read_buf)? {
                return Err(ClientError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                )));
            }
            let (got, reply) = wire::decode_reply(&self.read_buf).map_err(|e| {
                ClientError::Io(std::io::Error::new(std::io::ErrorKind::InvalidData, e))
            })?;
            // Busy is server-initiated (id 0, sent at admission before
            // any request was read) and terminal for the connection —
            // surface it no matter which id the caller waits on.
            if matches!(reply, Reply::Busy) {
                return Err(ClientError::Busy);
            }
            if got == id {
                return Ok(reply);
            }
            self.stash.insert(got, reply);
        }
    }

    /// How this connection's reply waits have gone: resolved by the
    /// spin in front of the blocking read, or parked in it.
    pub fn reply_wait_stats(&self) -> SpinStats {
        self.spin.stats()
    }

    fn call(&mut self, req: &Request) -> Result<Reply, ClientError> {
        let id = self.send(req)?;
        self.wait(id)
    }

    // -- one-round-trip API ----------------------------------------------

    /// Acquire `mode` on `res`; blocks until the server resolves the
    /// request (grant, timeout, deadlock abort, or error).
    pub fn lock(&mut self, res: ResourceId, mode: LockMode) -> Result<LockOutcome, ClientError> {
        match self.call(&Request::Lock { res, mode })? {
            Reply::Lock(Ok(outcome)) => Ok(outcome),
            Reply::Lock(Err(e)) => Err(ClientError::Service(e)),
            Reply::WrongEpoch { current } => Err(ClientError::StaleEpoch { current }),
            other => Err(unexpected("Lock", &other)),
        }
    }

    /// Acquire a whole lock set in one frame and one round trip (at
    /// most [`wire::MAX_BATCH`] items). Returns one [`BatchOutcome`]
    /// per item, in request order: the server stops at the first
    /// session-fatal error (timeout, deadlock abort, shutdown) and
    /// reports everything it never attempted as
    /// [`BatchOutcome::Skipped`], so the granted prefix is exactly the
    /// `Done(Ok(..))` entries. Rides the pipelining machinery — mix
    /// freely with [`Client::send`]/[`Client::wait`].
    pub fn lock_batch(
        &mut self,
        items: &[(ResourceId, LockMode)],
    ) -> Result<Vec<BatchOutcome>, ClientError> {
        let id = self.send_lock_batch(items)?;
        self.wait_batch_outcomes(id, items.len())
    }

    /// Collect the [`Reply::BatchOutcomes`] for a previously queued
    /// [`Client::send_lock_batch`] id, validating the outcome count
    /// against `expected`. The split the cluster router uses: queue a
    /// sub-batch on every node, then collect — the nodes execute in
    /// parallel while the client is still fanning out.
    pub fn wait_batch_outcomes(
        &mut self,
        id: u64,
        expected: usize,
    ) -> Result<Vec<BatchOutcome>, ClientError> {
        match self.wait(id)? {
            Reply::BatchOutcomes(outcomes) if outcomes.len() == expected => Ok(outcomes),
            Reply::BatchOutcomes(outcomes) => Err(ClientError::Protocol(format!(
                "batch of {expected} items answered with {} outcomes",
                outcomes.len()
            ))),
            Reply::WrongEpoch { current } => Err(ClientError::StaleEpoch { current }),
            other => Err(unexpected("BatchOutcomes", &other)),
        }
    }

    /// Release one lock.
    pub fn unlock(&mut self, res: ResourceId) -> Result<UnlockReport, ClientError> {
        match self.call(&Request::Unlock { res })? {
            Reply::Unlock(Ok(report)) => Ok(report),
            Reply::Unlock(Err(e)) => Err(ClientError::Service(e)),
            other => Err(unexpected("Unlock", &other)),
        }
    }

    /// Release everything this connection holds (commit).
    pub fn unlock_all(&mut self) -> Result<UnlockReport, ClientError> {
        let id = self.send(&Request::UnlockAll)?;
        self.wait_unlock_all(id)
    }

    /// Collect the [`Reply::UnlockAll`] for a previously queued
    /// `UnlockAll` id — the collect half of the router's all-node
    /// release, like [`Client::wait_batch_outcomes`] for batches.
    pub fn wait_unlock_all(&mut self, id: u64) -> Result<UnlockReport, ClientError> {
        match self.wait(id)? {
            Reply::UnlockAll(Ok(report)) => Ok(report),
            Reply::UnlockAll(Err(e)) => Err(ClientError::Service(e)),
            other => Err(unexpected("UnlockAll", &other)),
        }
    }

    /// Scrape the server's full telemetry: counters, gauges, merged
    /// histograms, up to `max_events` journal events (server-capped at
    /// [`wire::MAX_WIRE_EVENTS`]) and the tuning ticks since the
    /// `reports_since` cursor — feed back the returned snapshot's
    /// `next_tick_seq` to copy each interval exactly once. Journal
    /// delivery is destructive server-side: pass `max_events: 0` to
    /// leave the journal for another scraper.
    pub fn metrics(
        &mut self,
        reports_since: u64,
        max_events: u32,
    ) -> Result<MetricsSnapshot, ClientError> {
        match self.call(&Request::Metrics {
            reports_since,
            max_events,
        })? {
            Reply::Metrics(snap) => Ok(*snap),
            other => Err(unexpected("Metrics", &other)),
        }
    }

    /// Round-trip `echo` through the server.
    pub fn ping(&mut self, echo: Vec<u8>) -> Result<Vec<u8>, ClientError> {
        let sent = echo.clone();
        match self.call(&Request::Ping(echo))? {
            Reply::Pong(back) if back == sent => Ok(back),
            Reply::Pong(_) => Err(ClientError::Protocol("pong echo mismatch".into())),
            other => Err(unexpected("Ping", &other)),
        }
    }

    /// Bind this connection to `tenant` on a multi-tenant server. Must
    /// precede any lock traffic there; single-tenant servers accept
    /// `hello(0)` as a no-op, so it is safe to send unconditionally. A
    /// refusal (unknown tenant, double bind) surfaces as
    /// [`ClientError::Protocol`] with the server's message.
    pub fn hello(&mut self, tenant: u32) -> Result<(), ClientError> {
        match self.call(&Request::Hello { tenant })? {
            Reply::Hello(Ok(())) => Ok(()),
            Reply::Hello(Err(msg)) => Err(ClientError::Protocol(msg)),
            other => Err(unexpected("Hello", &other)),
        }
    }

    /// Snapshot the machine-wide budget partition: one row per tenant
    /// plus the donation records since `donations_since` (feed back
    /// the reply's `next_donation_seq` to follow the flow without
    /// gaps). On a single-tenant server the tenant table comes back
    /// empty.
    pub fn tenant_stats(&mut self, donations_since: u64) -> Result<TenantStatsReply, ClientError> {
        match self.call(&Request::TenantStats { donations_since })? {
            Reply::TenantStats(reply) => Ok(*reply),
            other => Err(unexpected("TenantStats", &other)),
        }
    }

    /// Create tenant `tenant` on a multi-tenant server; returns the
    /// granted budget in bytes.
    pub fn tenant_create(&mut self, tenant: u32) -> Result<u64, ClientError> {
        self.tenant_ctl(TenantCtl::Create { tenant })
    }

    /// Drop tenant `tenant` (evicting its connections); returns the
    /// reclaimed budget in bytes.
    pub fn tenant_drop(&mut self, tenant: u32) -> Result<u64, ClientError> {
        self.tenant_ctl(TenantCtl::Drop { tenant })
    }

    fn tenant_ctl(&mut self, action: TenantCtl) -> Result<u64, ClientError> {
        match self.call(&Request::TenantCtl(action))? {
            Reply::TenantCtl(Ok(bytes)) => Ok(bytes),
            Reply::TenantCtl(Err(msg)) => Err(ClientError::Protocol(msg)),
            other => Err(unexpected("TenantCtl", &other)),
        }
    }

    /// Export the server's local wait-for graph: (waiter, holder)
    /// edges plus the app→gid table a cluster deadlock detector needs
    /// to stitch per-node graphs together.
    pub fn wait_graph(&mut self) -> Result<WaitGraphReply, ClientError> {
        match self.call(&Request::WaitGraph)? {
            Reply::WaitGraph(graph) => Ok(graph),
            other => Err(unexpected("WaitGraph", &other)),
        }
    }

    /// Bind this connection's application to cluster-global
    /// transaction id `gid` (top bit must be clear — it is reserved
    /// for detector-synthesized ids). A refusal surfaces as
    /// [`ClientError::Protocol`] with the server's message.
    pub fn bind_gid(&mut self, gid: u64) -> Result<(), ClientError> {
        match self.call(&Request::BindGid { gid })? {
            Reply::BindGid(Ok(())) => Ok(()),
            Reply::BindGid(Err(msg)) => Err(ClientError::Protocol(msg)),
            other => Err(unexpected("BindGid", &other)),
        }
    }

    /// Cancel application `app`'s in-flight lock wait and abort it —
    /// the cluster detector's victim kill. Returns whether the app
    /// was still waiting (the server re-confirms under its latches;
    /// a victim granted in the meantime is left alone and `false`
    /// comes back).
    pub fn cancel_wait(&mut self, app: u32) -> Result<bool, ClientError> {
        match self.call(&Request::CancelWait { app })? {
            Reply::CancelWait(cancelled) => Ok(cancelled),
            other => Err(unexpected("CancelWait", &other)),
        }
    }

    /// Supervisor health probe: disseminate `epoch` (the server's
    /// fence only ever rises) and the cluster's degraded flag, and
    /// collect the server's current fence plus how many of its
    /// connections are still bound to an older epoch (the rejoin
    /// drain signal). Never fenced itself, so it works on any
    /// connection regardless of epoch.
    pub fn probe(&mut self, epoch: u64, degraded: bool) -> Result<(u64, u64), ClientError> {
        match self.call(&Request::Probe { epoch, degraded })? {
            Reply::ProbeAck {
                epoch,
                stale_sessions,
            } => Ok((epoch, stale_sessions)),
            other => Err(unexpected("ProbeAck", &other)),
        }
    }

    /// Bind this connection to partition-map `epoch`. Lock traffic on
    /// a bound connection is fenced once the server's epoch advances
    /// past the binding ([`ClientError::StaleEpoch`]); unbound
    /// connections are never fenced. Binding below the server's
    /// current fence is itself refused with `StaleEpoch`.
    pub fn bind_epoch(&mut self, epoch: u64) -> Result<(), ClientError> {
        match self.call(&Request::BindEpoch { epoch })? {
            Reply::BindEpoch => Ok(()),
            Reply::WrongEpoch { current } => Err(ClientError::StaleEpoch { current }),
            other => Err(unexpected("BindEpoch", &other)),
        }
    }

    /// Run the server's cross-shard accounting audit.
    pub fn validate(&mut self) -> Result<ValidateReport, ClientError> {
        match self.call(&Request::Validate)? {
            Reply::Validate(Ok(report)) => Ok(report),
            Reply::Validate(Err(msg)) => Err(ClientError::Protocol(msg)),
            other => Err(unexpected("Validate", &other)),
        }
    }

    /// Hard-kill the connection without releasing anything — both
    /// directions are shut down at the socket level, simulating a
    /// killed client process. The server must clean up our locks.
    pub fn kill(self) {
        let _ = self.writer.get_ref().shutdown(Shutdown::Both);
        // Drop without flushing: a real SIGKILL doesn't flush either.
    }
}

fn unexpected(wanted: &str, got: &Reply) -> ClientError {
    ClientError::Protocol(format!("expected {wanted} reply, got {got:?}"))
}
