//! Threaded TCP front-end for a [`LockService`].
//!
//! One accept thread; per accepted connection a **reader thread** and a
//! **writer thread**:
//!
//! * the reader owns the connection's [`Session`] (`AppId` allocated
//!   server-side from an atomic counter — client ids are never
//!   trusted), decodes requests and executes them in arrival order.
//!   Lock requests block right there on the session's event sink, so
//!   grant waiting reuses the service's spin-then-park machinery
//!   unchanged; replies are handed to the writer as they complete
//!   (completion order == arrival order for a single connection, and
//!   ids correlate regardless);
//! * the writer drains a **bounded** mailbox of pre-encoded reply
//!   frames onto the socket, flushing whenever the mailbox runs
//!   empty — consecutive replies to a pipelining client coalesce into
//!   one TCP segment, and a client that stops reading backpressures
//!   its own reader instead of growing server memory (see
//!   [`ServerConfig::reply_queue_capacity`]). Spent frames return to
//!   the reader over a freelist, so the whole
//!   read → decode → execute → encode → write cycle runs without heap
//!   allocation at steady state; `LockBatch` frames dispatch through
//!   `Session::lock_many` (one shard-latch pass per shard group) and
//!   answer with one coalesced `BatchOutcomes` frame.
//!
//! **Disconnect semantics**: whatever ends the reader loop — clean
//! EOF, a mid-frame kill, a protocol error, an I/O error — the reader
//! thread drops the `Session` on its way out, and `Session::drop`
//! cancels any wait and releases every lock the connection held. A
//! killed client can never strand locks.

use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use locktune_faults::{FaultInjector, FaultSite};
use locktune_lockmgr::{AppId, LockMode, ResourceId};
use locktune_metrics::raise_max;
use locktune_obs::MetricsSnapshot;
use locktune_service::{BatchOutcome, CloseOnDrop, EventSink, LockService, Mailbox, Session};
use locktune_tenants::{MachineRollup, TenantDirectory};

use crate::wire::{self, Reply, Request, TenantCtl, TenantStatsReply, ValidateReport};

/// Which I/O architecture serves connections. Same wire protocol,
/// same semantics (disconnect teardown, Busy admission, eviction,
/// tenant binding, fault sites) either way — the A/B comparison in
/// EXPERIMENTS.md's `net_scaling` holds everything else fixed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IoModel {
    /// One reader + one writer thread per connection, blocking I/O.
    /// Simple and fast at small connection counts; two threads per
    /// connection is fatal at thousands.
    #[default]
    Threaded,
    /// N I/O shard threads (see [`ServerConfig::io_shards`]), each
    /// multiplexing many nonblocking connections via epoll with
    /// run-to-completion dispatch, vectored writes and eventfd grant
    /// wakeups. Scales to 10k+ connections.
    Evented,
}

/// Tunables for the TCP front-end (the lock service itself is
/// configured separately via `ServiceConfig`).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Capacity of each connection's reader→writer reply queue, in
    /// encoded frames. The queue is **bounded**: when a client stops
    /// reading its replies, the writer blocks on the socket, the
    /// queue fills, and the connection's reader blocks on the push —
    /// so the misbehaving client backpressures *itself* (its own
    /// unread requests pile up in kernel socket buffers) instead of
    /// growing server memory without bound.
    pub reply_queue_capacity: usize,
    /// Maximum concurrently served connections. Each connection costs
    /// two threads plus a bounded reply queue, so the cap bounds
    /// server-side resource use under a connection storm. A connection
    /// arriving at the cap is refused *politely*: the server writes a
    /// single [`Reply::Busy`] frame (id 0) and closes the socket, so
    /// the client can distinguish "overloaded, retry after backoff"
    /// from a crash.
    pub max_connections: usize,
    /// The slow-client **eviction deadline** — one contract, enforced
    /// per io model at the point where an unread reply first blocks
    /// server resources. Threaded: how long a connection's reader
    /// waits on the **full** reply queue before evicting the client
    /// (socket shutdown, locks released via session drop). Evented:
    /// how long a connection may stay above
    /// [`ServerConfig::write_hwm_bytes`] of buffered unsent replies
    /// before the same eviction fires. Ordinary backpressure stalls
    /// are far shorter than this; pressure sustained past the deadline
    /// means the client stopped reading entirely while server memory
    /// (and, threaded, two threads) sits pinned on it. Both paths
    /// journal the identical `ClientEvicted` event.
    pub eviction_deadline: Duration,
    /// Which I/O architecture serves connections.
    pub io_model: IoModel,
    /// Number of I/O shard threads in the evented model (ignored when
    /// threaded). Each shard owns its connections exclusively — no
    /// cross-shard locking on the data path — so this is the evented
    /// server's parallelism knob; size it to cores, not connections.
    /// Clamped to `1..=`[`wire::MAX_WIRE_IO_SHARDS`].
    pub io_shards: usize,
    /// Evented model only: per-connection write-buffer high-water
    /// mark, in bytes. Above it the shard stops reading from the
    /// connection (backpressure) and starts the
    /// [`ServerConfig::eviction_deadline`] clock; draining below it
    /// clears both. The threaded twin of this bound is the reply
    /// queue's `reply_queue_capacity` (frames, not bytes).
    pub write_hwm_bytes: usize,
    /// Wire-level fault injection (torn frames, stalls, disconnects on
    /// the writer path). Inert by default and compiled to nothing
    /// without the `faults` feature; chaos harnesses pass an armed
    /// injector here, usually a clone of the one driving the service.
    pub faults: FaultInjector,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            // Deep enough that a pipelining client never stalls its
            // reader in normal operation (a whole MAX_BATCH
            // transaction is one frame), shallow enough to cap
            // per-connection memory.
            reply_queue_capacity: 128,
            max_connections: 1024,
            eviction_deadline: Duration::from_secs(5),
            io_model: IoModel::Threaded,
            // Two shards: enough to prove cross-shard ownership even
            // on small machines; servers pin this to core count.
            io_shards: 2,
            // A few max-size frames of backlog: far above any
            // well-behaved client's in-flight window, small enough to
            // cap per-connection memory.
            write_hwm_bytes: 256 * 1024,
            faults: FaultInjector::disabled(),
        }
    }
}

/// What the front-end serves: one database, or a whole tenant
/// directory with per-connection routing.
pub(crate) enum Backend {
    /// Classic single-database server: every connection gets a session
    /// at admission, `Hello { tenant: 0 }` is an accepted no-op.
    Single(Arc<LockService>),
    /// Multi-tenant server: connections arrive **unbound** and must
    /// send [`Request::Hello`] before any lock traffic. Unbound
    /// Metrics/Validate report the machine-wide rollup.
    Tenants(Arc<TenantDirectory>),
}

pub(crate) struct Shared {
    pub(crate) backend: Backend,
    pub(crate) config: ServerConfig,
    pub(crate) shutdown: AtomicBool,
    /// Next server-allocated application id. Network sessions never
    /// reuse a live id because the counter only moves forward; if an
    /// in-process session happens to own the next id, allocation skips
    /// past it.
    pub(crate) next_app: AtomicU32,
    pub(crate) next_conn: AtomicU64,
    /// Connections currently admitted (incremented at admission,
    /// decremented when the reader exits). Gate for
    /// [`ServerConfig::max_connections`].
    pub(crate) conn_count: AtomicUsize,
    pub(crate) conns: Mutex<ConnTable>,
    /// High-water mark across all connections' reply queues, in
    /// frames. Threaded: sampled by each reader after queueing a reply.
    /// Evented: sampled at write-queue enqueue. Either way a value near
    /// the queue bound means some client stopped draining.
    pub(crate) reply_hwm: AtomicU64,
    /// The node's partition-map fence epoch, advanced monotonically by
    /// supervisor [`Request::Probe`] frames. Lock traffic on a
    /// connection bound (via [`Request::BindEpoch`]) to an older epoch
    /// is answered with [`Reply::WrongEpoch`] instead of a grant —
    /// never-bound connections are unfenced (single-node clients
    /// predate epochs). Zero until the first probe.
    pub(crate) fence_epoch: AtomicU64,
    /// True while the supervisor says this node serves slots
    /// reassigned from a dead peer (drives the degraded-batch
    /// counter; no behavioral effect).
    pub(crate) degraded: AtomicBool,
}

#[derive(Default)]
pub(crate) struct ConnTable {
    /// Read-half clones, kept so shutdown can unblock parked readers.
    pub(crate) streams: HashMap<u64, TcpStream>,
    /// Which tenant each connection is bound to (multi-tenant mode;
    /// populated by `Hello`). Dropping a tenant shuts down exactly
    /// these connections' sockets.
    pub(crate) bindings: HashMap<u64, u32>,
    /// Cluster-global transaction id each connection bound via
    /// [`Request::BindGid`], as (app, gid). Exported wholesale in
    /// `WaitGraph` replies so the cluster detector can translate
    /// local app ids; removed with the rest of the connection's state
    /// when its reader exits.
    pub(crate) gids: HashMap<u64, (u32, u64)>,
    /// Partition-map epoch each connection bound via
    /// [`Request::BindEpoch`]. The supervisor's probe reply counts the
    /// entries below the fence (`stale_sessions`) to know when
    /// survivors have drained handed-over traffic before a rejoin
    /// handback.
    pub(crate) epochs: HashMap<u64, u64>,
    /// Reader-thread handles (each joins its own writer before
    /// exiting). Finished entries join instantly. Unused by the
    /// evented model, whose shard threads are joined by the accept
    /// thread.
    pub(crate) handles: Vec<JoinHandle<()>>,
}

/// The TCP server. Dropping (or [`Server::shutdown`]) stops the accept
/// loop, disconnects every connection and joins all threads; the
/// [`LockService`] itself stays up — it belongs to the caller.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (port 0 picks a free port; see
    /// [`Server::local_addr`]) and start accepting connections for
    /// `service`, with default [`ServerConfig`].
    pub fn bind(service: Arc<LockService>, addr: impl ToSocketAddrs) -> std::io::Result<Server> {
        Self::bind_with_config(service, addr, ServerConfig::default())
    }

    /// [`Server::bind`] with explicit front-end tunables.
    pub fn bind_with_config(
        service: Arc<LockService>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        Self::bind_backend(Backend::Single(service), addr, config)
    }

    /// Bind a **multi-tenant** front-end for `directory`. Connections
    /// arrive unbound and route to their tenant's service after a
    /// [`Request::Hello`]; unbound Metrics/Validate report the
    /// machine-wide rollup, and [`Request::TenantCtl`] churns tenants
    /// mid-run (dropping a tenant evicts its connections).
    pub fn bind_tenants(
        directory: Arc<TenantDirectory>,
        addr: impl ToSocketAddrs,
    ) -> std::io::Result<Server> {
        Self::bind_tenants_with_config(directory, addr, ServerConfig::default())
    }

    /// [`Server::bind_tenants`] with explicit front-end tunables.
    pub fn bind_tenants_with_config(
        directory: Arc<TenantDirectory>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        Self::bind_backend(Backend::Tenants(directory), addr, config)
    }

    fn bind_backend(
        backend: Backend,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            backend,
            config: ServerConfig {
                reply_queue_capacity: config.reply_queue_capacity.max(1),
                max_connections: config.max_connections.max(1),
                io_shards: config.io_shards.clamp(1, wire::MAX_WIRE_IO_SHARDS),
                write_hwm_bytes: config.write_hwm_bytes.max(wire::MAX_PAYLOAD),
                ..config
            },
            shutdown: AtomicBool::new(false),
            next_app: AtomicU32::new(1),
            next_conn: AtomicU64::new(1),
            conn_count: AtomicUsize::new(0),
            conns: Mutex::new(ConnTable::default()),
            reply_hwm: AtomicU64::new(0),
            fence_epoch: AtomicU64::new(0),
            degraded: AtomicBool::new(false),
        });
        let io_model = shared.config.io_model;
        let accept_thread = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("locktune-accept".into())
                .spawn(move || match io_model {
                    IoModel::Threaded => accept_loop(&shared, listener),
                    IoModel::Evented => crate::evented::accept_loop(&shared, listener),
                })?
        };
        Ok(Server {
            shared,
            addr,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, disconnect every client and join all threads.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        // Unblock the accept loop with a throwaway connection; it
        // checks the flag before servicing anything.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        // Kick every connection: readers parked in a socket read see
        // EOF and tear their session down (releasing its locks).
        // Readers blocked in a lock wait finish that wait first — the
        // holders' teardown feeds them grants — then observe the dead
        // socket.
        let handles = {
            let mut conns = self.shared.conns.lock().unwrap();
            for stream in conns.streams.values() {
                let _ = stream.shutdown(Shutdown::Both);
            }
            std::mem::take(&mut conns.handles)
        };
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: TcpListener) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            // Transient accept errors (EMFILE, aborted handshake)
            // must not kill the server.
            Err(_) => continue,
        };
        spawn_connection(shared, stream);
    }
}

/// Allocate an unused AppId on `service`. The counter is normally
/// enough; the loop covers collision with an in-process session
/// connected directly to the same service. The counter is shared
/// across tenants, so an app id is unique machine-wide. An evented
/// session passes its I/O shard's `sink`, which its grants and aborts
/// go to instead of a private one: nothing ever parks on it.
pub(crate) fn allocate_session(
    shared: &Shared,
    service: &Arc<LockService>,
    sink: Option<&EventSink>,
) -> Option<Session> {
    for _ in 0..u16::MAX {
        let app = AppId(shared.next_app.fetch_add(1, Ordering::Relaxed));
        let session = match sink {
            Some(sink) => service.try_connect_with_sink(app, sink),
            None => service.try_connect(app),
        };
        if let Ok(session) = session {
            return Some(session);
        }
    }
    None
}

/// Join connection threads that have already exited, so a long-lived
/// server under reconnect churn doesn't accumulate one handle per
/// connection ever served.
fn reap_finished(shared: &Shared) {
    let done: Vec<JoinHandle<()>> = {
        let mut conns = shared.conns.lock().unwrap();
        let (done, live) = std::mem::take(&mut conns.handles)
            .into_iter()
            .partition(|h| h.is_finished());
        conns.handles = live;
        done
    };
    for h in done {
        let _ = h.join();
    }
}

fn spawn_connection(shared: &Arc<Shared>, stream: TcpStream) {
    reap_finished(shared);
    // Admission: over the cap the client gets an explicit Busy frame
    // (retryable, id 0) instead of a silent close. The count is
    // reserved optimistically and released on every refusal path; the
    // reader thread releases it when the connection ends.
    let admitted = shared.conn_count.fetch_add(1, Ordering::AcqRel);
    if admitted >= shared.config.max_connections {
        shared.conn_count.fetch_sub(1, Ordering::AcqRel);
        let _ = wire::write_reply(&mut (&stream), 0, &Reply::Busy);
        let _ = stream.shutdown(Shutdown::Both);
        return;
    }
    // Single mode binds the session right here; multi-tenant
    // connections start unbound and bind at their Hello frame.
    let conn = match &shared.backend {
        Backend::Single(service) => {
            let Some(session) = allocate_session(shared, service, None) else {
                // Id space exhausted (pathological); refuse the
                // connection.
                shared.conn_count.fetch_sub(1, Ordering::AcqRel);
                let _ = stream.shutdown(Shutdown::Both);
                return;
            };
            ConnCtx {
                session: Some(session),
                service: Some(Arc::clone(service)),
                tenant: None,
                conn_id: 0,
                epoch: None,
            }
        }
        Backend::Tenants(_) => ConnCtx {
            session: None,
            service: None,
            tenant: None,
            conn_id: 0,
            epoch: None,
        },
    };
    stream.set_nodelay(true).ok();
    let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
    let conn = ConnCtx { conn_id, ..conn };
    let (Ok(read_stream), Ok(registered)) = (stream.try_clone(), stream.try_clone()) else {
        shared.conn_count.fetch_sub(1, Ordering::AcqRel);
        return;
    };
    // Registered here, on the accept thread, not by the reader: a
    // shutdown joins this thread before its sweep, so the sweep sees
    // every admitted socket and no reader is left blocked in `recv`.
    shared
        .conns
        .lock()
        .unwrap()
        .streams
        .insert(conn_id, registered);
    let reader = {
        let shared = Arc::clone(shared);
        std::thread::Builder::new()
            .name(format!("locktune-conn-{conn_id}"))
            .spawn(move || {
                serve_connection(&shared, conn, read_stream, stream);
                let mut conns = shared.conns.lock().unwrap();
                conns.streams.remove(&conn_id);
                conns.bindings.remove(&conn_id);
                conns.gids.remove(&conn_id);
                conns.epochs.remove(&conn_id);
                drop(conns);
                shared.conn_count.fetch_sub(1, Ordering::AcqRel);
            })
    };
    match reader {
        Ok(handle) => shared.conns.lock().unwrap().handles.push(handle),
        // Spawn failed: the closure (and the session in it) was
        // dropped without running, so the slot and the registration
        // must be released here.
        Err(_) => {
            shared.conns.lock().unwrap().streams.remove(&conn_id);
            shared.conn_count.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

/// Per-connection routing state. In single mode the session and
/// service are fixed at admission; in multi-tenant mode both appear
/// when the connection's `Hello` binds it to a tenant.
pub(crate) struct ConnCtx {
    pub(crate) session: Option<Session>,
    pub(crate) service: Option<Arc<LockService>>,
    pub(crate) tenant: Option<u32>,
    pub(crate) conn_id: u64,
    /// Partition-map epoch bound via [`Request::BindEpoch`]; `None`
    /// means the connection never bound one and is unfenced.
    pub(crate) epoch: Option<u64>,
}

/// Spent reply frames the writer hands back to the reader for reuse.
/// Bounded in count and in retained capacity so a burst of huge Pong
/// frames cannot pin memory.
type Freelist = Arc<Mutex<Vec<Vec<u8>>>>;

/// Largest frame capacity worth keeping on the freelist. Lock and
/// batch replies are far below this; only oversized Pong echoes ever
/// exceed it.
pub(crate) const RECYCLE_MAX_BYTES: usize = 16 * 1024;

/// The reader loop: decode → execute on the blocking session → queue
/// the encoded reply for the writer. Returns when the connection dies
/// for any reason; the session (and with it every lock) is released on
/// return.
///
/// The reply queue is **bounded** (see
/// [`ServerConfig::reply_queue_capacity`]): a client that stops
/// reading eventually blocks this thread on the push, which stops it
/// reading further requests — backpressure, not unbounded buffering.
/// Both ends close the queue on exit, panics included: the writer then
/// drains it and exits, and the reader's next push is refused.
///
/// Allocation discipline: the frame payload, the decoded batch items
/// and the batch outcomes all live in buffers reused across requests,
/// and encoded reply frames come back from the writer via a freelist —
/// steady state, a lock/batch request is served without touching the
/// heap.
fn serve_connection(
    shared: &Arc<Shared>,
    mut conn: ConnCtx,
    read_stream: TcpStream,
    write_stream: TcpStream,
) {
    let replies = Arc::new(Mailbox::new());
    let cap = shared.config.reply_queue_capacity;
    let freelist: Freelist = Arc::new(Mutex::new(Vec::new()));
    let retain = cap + 2;
    let writer = {
        let replies = Arc::clone(&replies);
        let freelist = Arc::clone(&freelist);
        let faults = shared.config.faults.clone();
        std::thread::Builder::new()
            .name("locktune-conn-writer".into())
            .spawn(move || writer_loop(&replies, write_stream, &freelist, retain, &faults))
    };
    let writer = match writer {
        Ok(w) => w,
        Err(_) => return,
    };
    let closer = CloseOnDrop(&replies);

    let mut r = BufReader::new(read_stream);
    let mut payload: Vec<u8> = Vec::new();
    let mut batch_items: Vec<(ResourceId, LockMode)> = Vec::new();
    let mut outcomes: Vec<BatchOutcome> = Vec::new();
    loop {
        match wire::read_payload_into(&mut r, &mut payload) {
            // Clean EOF, mid-frame kill, protocol error, I/O error:
            // identical teardown either way — drop the session,
            // release the locks.
            Ok(false) | Err(_) => break,
            Ok(true) => {}
        }
        let mut frame = freelist
            .lock()
            .unwrap()
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(64));
        // Batches bypass the owning `Request` entirely: decode into
        // the reused item buffer, execute shard-grouped, encode the
        // coalesced reply from the reused outcome buffer. A batch on a
        // connection with no session yet (multi-tenant, no Hello) is a
        // protocol error, same as any lock traffic before the bind.
        let encoded = match wire::decode_lock_batch_into(&payload, &mut batch_items) {
            Ok(Some(id)) => match conn.session.as_ref() {
                Some(session) => {
                    if let Some(fenced) = fence_stale(shared, &conn) {
                        wire::encode_reply_into(&mut frame, id, &fenced);
                    } else {
                        note_degraded_batch(shared, &conn);
                        session.lock_many_into(&batch_items, &mut outcomes);
                        wire::encode_batch_outcomes_into(&mut frame, id, &outcomes);
                    }
                    true
                }
                None => false,
            },
            Ok(None) => match wire::decode_request(&payload) {
                Ok((id, req)) => match execute(shared, &mut conn, req) {
                    Some(reply) => {
                        wire::encode_reply_into(&mut frame, id, &reply);
                        true
                    }
                    None => false,
                },
                Err(_) => false,
            },
            Err(_) => false,
        };
        if !encoded {
            break; // protocol error
        }
        let deadline = Instant::now() + shared.config.eviction_deadline;
        if replies.push_until(frame, cap, deadline).is_err() {
            if replies.is_closed() {
                break; // writer died (client gone)
            }
            // Queue full for the whole deadline: the client stopped
            // draining replies. Ordinary backpressure already stalled
            // this reader; past the deadline the connection is evicted
            // so its two threads (and its locks, via session drop)
            // stop being pinned by a dead-but-connected peer.
            if let (Some(service), Some(session)) = (&conn.service, &conn.session) {
                service.note_client_evicted(session.app());
            }
            let _ = r.get_ref().shutdown(Shutdown::Both);
            break;
        }
        // Post-push queue depth is the frames the writer hasn't drained
        // yet — the congestion signal the Metrics reply exposes.
        raise_max(&shared.reply_hwm, replies.len() as u64);
    }
    drop(closer);
    let _ = writer.join();
    // `session` drops here: cancel_wait + unlock_all on every shard.
}

/// Return a spent reply frame for reuse (subject to the freelist's
/// size and count bounds).
fn recycle(freelist: &Freelist, retain: usize, mut frame: Vec<u8>) {
    if frame.capacity() <= RECYCLE_MAX_BYTES {
        let mut fl = freelist.lock().unwrap();
        if fl.len() < retain {
            frame.clear();
            fl.push(frame);
        }
    }
}

/// Write one frame, consulting the fault injector first. Returns
/// `false` when the connection must die (write error or an injected
/// torn-frame / disconnect fault). With faults compiled out the three
/// `should` checks are constant `false` and this is just `write_all`.
fn write_frame(w: &mut BufWriter<TcpStream>, frame: &[u8], faults: &FaultInjector) -> bool {
    if faults.should(FaultSite::WireStall) {
        std::thread::sleep(faults.stall());
    }
    if faults.should(FaultSite::WireTorn) {
        // Half a frame, then kill the socket: the client observes a
        // length prefix whose payload never completes.
        let _ = w.write_all(&frame[..frame.len() / 2]);
        let _ = w.flush();
        let _ = w.get_ref().shutdown(Shutdown::Both);
        return false;
    }
    if faults.should(FaultSite::WireDisconnect) {
        let _ = w.get_ref().shutdown(Shutdown::Both);
        return false;
    }
    w.write_all(frame).is_ok()
}

/// Write queued replies until the reader closes the queue and it runs
/// dry, or the socket fails; either way the queue is closed on return.
fn writer_loop(
    replies: &Mailbox<Vec<u8>>,
    stream: TcpStream,
    freelist: &Freelist,
    retain: usize,
    faults: &FaultInjector,
) {
    let _closer = CloseOnDrop(replies);
    let mut w = BufWriter::new(stream);
    while let Some(frame) = replies.pop_until(None) {
        if !write_frame(&mut w, &frame, faults) {
            return;
        }
        recycle(freelist, retain, frame);
        // Coalesce: only flush once no further reply is ready.
        while let Some(next) = replies.try_pop() {
            if !write_frame(&mut w, &next, faults) {
                return;
            }
            recycle(freelist, retain, next);
        }
        if w.flush().is_err() {
            return;
        }
    }
}

/// Execute one decoded request. `None` is a protocol violation the
/// reader answers by dropping the connection — the only such case is
/// lock traffic on a multi-tenant connection that never said Hello.
///
/// Shared by both io models; the evented dispatcher intercepts the
/// requests that would block (`Lock`, `LockBatch` — routed through
/// `BatchMachine`) and `Hello` (session allocation needs the shard's
/// sink) before falling through to this.
pub(crate) fn execute(shared: &Arc<Shared>, conn: &mut ConnCtx, req: Request) -> Option<Reply> {
    Some(match req {
        Request::Lock { res, mode } => match fence_stale(shared, conn) {
            Some(fenced) => fenced,
            None => Reply::Lock(conn.session.as_ref()?.lock(res, mode)),
        },
        Request::Unlock { res } => Reply::Unlock(conn.session.as_ref()?.unlock(res)),
        Request::UnlockAll => Reply::UnlockAll(conn.session.as_ref()?.unlock_all()),
        // Decoded generically only when the zero-alloc path in
        // `serve_connection` was bypassed (tests feeding frames
        // through `decode_request`).
        Request::LockBatch(items) => match fence_stale(shared, conn) {
            Some(fenced) => fenced,
            None => {
                note_degraded_batch(shared, conn);
                Reply::BatchOutcomes(conn.session.as_ref()?.lock_many(&items))
            }
        },
        Request::Ping(echo) => Reply::Pong(echo),
        Request::Validate => Reply::Validate(validate(shared, conn)),
        Request::Metrics {
            reports_since,
            max_events,
        } => Reply::Metrics(Box::new(metrics(shared, conn, reports_since, max_events))),
        Request::Hello { tenant } => Reply::Hello(hello(shared, conn, tenant)),
        Request::TenantStats { donations_since } => {
            Reply::TenantStats(Box::new(tenant_stats(shared, donations_since)))
        }
        Request::TenantCtl(action) => Reply::TenantCtl(tenant_ctl(shared, action)),
        Request::WaitGraph => Reply::WaitGraph(wait_graph(shared, conn)),
        Request::BindGid { gid } => Reply::BindGid(bind_gid(shared, conn, gid)),
        Request::CancelWait { app } => Reply::CancelWait(cancel_wait(shared, conn, app)),
        Request::Probe { epoch, degraded } => probe(shared, conn, epoch, degraded),
        Request::BindEpoch { epoch } => bind_epoch(shared, conn, epoch),
    })
}

/// The service whose instrumentation failover events land in: the
/// connection's own, or the single backend for an unbound connection.
/// Multi-tenant servers have no machine-wide journal, so unbound
/// failover traffic there records nothing (the cluster runs
/// single-tenant nodes).
fn obs_service<'a>(shared: &'a Shared, conn: &'a ConnCtx) -> Option<&'a Arc<LockService>> {
    conn.service.as_ref().or(match &shared.backend {
        Backend::Single(service) => Some(service),
        Backend::Tenants(_) => None,
    })
}

/// Fence check applied at every Lock/LockBatch entry point (threaded
/// inline + generic paths, and the evented dispatcher's two): a
/// connection bound to an epoch older than the node's fence gets
/// [`Reply::WrongEpoch`] — never a grant — so a client routing by a
/// stale partition map cannot double-grant a slot that moved.
/// Releases, stats and validation are deliberately unfenced: survivors
/// must be able to drain stale sessions' locks during handback.
pub(crate) fn fence_stale(shared: &Shared, conn: &ConnCtx) -> Option<Reply> {
    let bound = conn.epoch?;
    let fence = shared.fence_epoch.load(Ordering::Acquire);
    if bound >= fence {
        return None;
    }
    if let Some(service) = obs_service(shared, conn) {
        service.note_request_fenced(bound);
    }
    Some(Reply::WrongEpoch { current: fence })
}

/// Count a batch served while the supervisor flagged this node
/// degraded (holding slots reassigned from a dead peer).
pub(crate) fn note_degraded_batch(shared: &Shared, conn: &ConnCtx) {
    if shared.degraded.load(Ordering::Relaxed) {
        if let Some(service) = obs_service(shared, conn) {
            service.note_degraded_batch();
        }
    }
}

/// Answer a supervisor health probe: raise the fence to the probe's
/// epoch (monotonic — a stale supervisor frame can never lower it),
/// adopt the degraded flag, and report the fence plus how many
/// epoch-bound connections still carry an older epoch.
fn probe(shared: &Arc<Shared>, conn: &ConnCtx, epoch: u64, degraded: bool) -> Reply {
    let prev = shared.fence_epoch.fetch_max(epoch, Ordering::AcqRel);
    shared.degraded.store(degraded, Ordering::Relaxed);
    if let Some(service) = obs_service(shared, conn) {
        service.note_failover_probe();
        if epoch > prev {
            service.note_epoch_bump(epoch);
        }
    }
    let fence = shared.fence_epoch.load(Ordering::Acquire);
    let stale_sessions = shared
        .conns
        .lock()
        .unwrap()
        .epochs
        .values()
        .filter(|&&e| e < fence)
        .count() as u64;
    Reply::ProbeAck {
        epoch: fence,
        stale_sessions,
    }
}

/// Bind the connection to a partition-map epoch. A stale bind is
/// refused with [`Reply::WrongEpoch`] so a client holding an old map
/// learns the current epoch before it can send any fenced traffic.
/// Re-binding (a client that refreshed its map mid-connection) just
/// overwrites, like `bind_gid`.
fn bind_epoch(shared: &Arc<Shared>, conn: &mut ConnCtx, epoch: u64) -> Reply {
    let fence = shared.fence_epoch.load(Ordering::Acquire);
    if epoch < fence {
        return Reply::WrongEpoch { current: fence };
    }
    conn.epoch = Some(epoch);
    shared
        .conns
        .lock()
        .unwrap()
        .epochs
        .insert(conn.conn_id, epoch);
    Reply::BindEpoch
}

/// Bind the connection's application to a cluster-global transaction
/// id. Re-binding (same or different gid) just overwrites: a
/// reconnecting client binds its gid on the fresh connection while
/// the old connection may still be blocked in a lock wait on its way
/// out, and refusing the duplicate would strand the client.
fn bind_gid(shared: &Arc<Shared>, conn: &ConnCtx, gid: u64) -> Result<(), String> {
    if gid & wire::GID_RESERVED != 0 {
        return Err("gid has the reserved detector bit set".into());
    }
    let Some(session) = conn.session.as_ref() else {
        return Err("no session: bind a tenant before a gid".into());
    };
    shared
        .conns
        .lock()
        .unwrap()
        .gids
        .insert(conn.conn_id, (session.app().0, gid));
    Ok(())
}

/// Export this node's wait-for edges and app→gid table. Edges come
/// from the connection's own service (machine-wide union for an
/// unbound multi-tenant scrape — app ids are unique machine-wide, so
/// the union is coherent); the gid table is always machine-wide.
/// Both are truncated at their wire bounds — the detector treats the
/// export as a partial snapshot regardless, since edges go stale the
/// moment the latch drops.
fn wait_graph(shared: &Arc<Shared>, conn: &ConnCtx) -> wire::WaitGraphReply {
    let raw = match (&conn.service, &shared.backend) {
        (Some(service), _) => service.wait_edges(),
        (None, Backend::Single(service)) => service.wait_edges(),
        (None, Backend::Tenants(dir)) => {
            let mut all = Vec::new();
            for id in dir.tenant_ids() {
                if let Some(service) = dir.tenant(id) {
                    all.extend(service.wait_edges());
                }
            }
            all
        }
    };
    let mut edges: Vec<(u32, u32)> = raw.into_iter().map(|(w, h)| (w.0, h.0)).collect();
    edges.truncate(wire::MAX_WIRE_EDGES);
    let mut gids: Vec<(u32, u64)> = shared
        .conns
        .lock()
        .unwrap()
        .gids
        .values()
        .copied()
        .collect();
    gids.sort_unstable();
    gids.truncate(wire::MAX_WIRE_GIDS);
    wire::WaitGraphReply { edges, gids }
}

/// Cancel `app`'s wait on behalf of the cluster detector, routed
/// through the same confirm-then-abort path as the local sweeper. An
/// unbound multi-tenant connection probes every tenant (app ids are
/// unique machine-wide, so at most one can confirm).
fn cancel_wait(shared: &Arc<Shared>, conn: &ConnCtx, app: u32) -> bool {
    match (&conn.service, &shared.backend) {
        (Some(service), _) => service.cancel_waiter(AppId(app)),
        (None, Backend::Single(service)) => service.cancel_waiter(AppId(app)),
        (None, Backend::Tenants(dir)) => dir
            .tenant_ids()
            .into_iter()
            .filter_map(|id| dir.tenant(id))
            .any(|service| service.cancel_waiter(AppId(app))),
    }
}

/// Bind the connection to `tenant`. Single-tenant servers accept only
/// the conventional `tenant 0` no-op, so a client can say Hello
/// unconditionally.
fn hello(shared: &Arc<Shared>, conn: &mut ConnCtx, tenant: u32) -> Result<(), String> {
    hello_with(shared, conn, tenant, &|sh, svc| {
        allocate_session(sh, svc, None)
    })
}

/// [`hello`] with the session allocator abstracted out, so the evented
/// dispatcher binds tenants through [`allocate_session`] with its sink
/// while sharing every other rule (single-tenant no-op, double-bind
/// rejection, binding registration).
pub(crate) fn hello_with(
    shared: &Arc<Shared>,
    conn: &mut ConnCtx,
    tenant: u32,
    alloc: &dyn Fn(&Shared, &Arc<LockService>) -> Option<Session>,
) -> Result<(), String> {
    match &shared.backend {
        Backend::Single(_) => {
            if tenant == 0 {
                Ok(())
            } else {
                Err(format!(
                    "single-tenant server: tenant {tenant} does not exist"
                ))
            }
        }
        Backend::Tenants(dir) => {
            if let Some(bound) = conn.tenant {
                return Err(format!("connection already bound to tenant {bound}"));
            }
            let Some(service) = dir.tenant(tenant) else {
                return Err(format!("tenant {tenant} does not exist"));
            };
            let Some(session) = alloc(shared, &service) else {
                return Err("application id space exhausted".into());
            };
            conn.session = Some(session);
            conn.service = Some(service);
            conn.tenant = Some(tenant);
            shared
                .conns
                .lock()
                .unwrap()
                .bindings
                .insert(conn.conn_id, tenant);
            Ok(())
        }
    }
}

/// Machine rollup plus donation flow. On a single-tenant server the
/// tenant table is empty (there is no budget partition to report) —
/// the frame still answers, so `locktune-top` can probe either kind.
fn tenant_stats(shared: &Arc<Shared>, donations_since: u64) -> TenantStatsReply {
    match &shared.backend {
        Backend::Single(_) => TenantStatsReply {
            rollup: MachineRollup {
                machine_budget: 0,
                free_budget: 0,
                arbitrations: 0,
                donations: 0,
                donated_bytes: 0,
                tenants: Vec::new(),
            },
            donations: Vec::new(),
            next_donation_seq: 0,
        },
        Backend::Tenants(dir) => {
            let mut rollup = dir.rollup();
            rollup.tenants.truncate(wire::MAX_WIRE_TENANTS);
            let (next_donation_seq, mut donations) = dir.donations_since(donations_since);
            // Keep the newest records if the window outgrew a frame;
            // the cursor still moves past everything.
            if donations.len() > wire::MAX_WIRE_DONATIONS {
                let excess = donations.len() - wire::MAX_WIRE_DONATIONS;
                donations.drain(..excess);
            }
            TenantStatsReply {
                rollup,
                donations,
                next_donation_seq,
            }
        }
    }
}

/// Create or drop a tenant. Dropping first shuts down the sockets of
/// every connection bound to that tenant — their readers tear down
/// their sessions (releasing the tenant's locks), and the tenant's
/// service winds down once those handles are gone. The ledger
/// reclaims the budget immediately either way.
fn tenant_ctl(shared: &Arc<Shared>, action: TenantCtl) -> Result<u64, String> {
    let Backend::Tenants(dir) = &shared.backend else {
        return Err("single-tenant server: no tenant control".into());
    };
    match action {
        TenantCtl::Create { tenant } => {
            dir.create_tenant(tenant).map_err(|e| e.to_string())?;
            Ok(dir.budget(tenant).map(|b| b.budget).unwrap_or(0))
        }
        TenantCtl::Drop { tenant } => {
            let evict: Vec<TcpStream> = {
                let mut conns = shared.conns.lock().unwrap();
                let ids: Vec<u64> = conns
                    .bindings
                    .iter()
                    .filter(|&(_, &t)| t == tenant)
                    .map(|(&id, _)| id)
                    .collect();
                ids.iter()
                    .filter_map(|id| {
                        conns.bindings.remove(id);
                        conns.streams.get(id).and_then(|s| s.try_clone().ok())
                    })
                    .collect()
            };
            for stream in evict {
                let _ = stream.shutdown(Shutdown::Both);
            }
            dir.drop_tenant(tenant).map_err(|e| e.to_string())
        }
    }
}

fn metrics(
    shared: &Arc<Shared>,
    conn: &ConnCtx,
    reports_since: u64,
    max_events: u32,
) -> MetricsSnapshot {
    let mut snap = match (&conn.service, &shared.backend) {
        // Bound (or single mode): this connection's database.
        (Some(service), _) | (None, Backend::Single(service)) => {
            let max = (max_events as usize).min(wire::MAX_WIRE_EVENTS);
            let mut snap = service.observe(reports_since, max);
            // Keep the newest ticks if the retained window outgrows a
            // frame; `next_tick_seq` still cursors past everything.
            if snap.ticks.len() > wire::MAX_WIRE_TICKS {
                let excess = snap.ticks.len() - wire::MAX_WIRE_TICKS;
                snap.ticks.drain(..excess);
            }
            snap
        }
        // Unbound on a multi-tenant server: the machine-wide view.
        (None, Backend::Tenants(dir)) => machine_metrics(dir),
    };
    snap.reply_queue_hwm = shared.reply_hwm.load(Ordering::Relaxed);
    snap.fence_epoch = shared.fence_epoch.load(Ordering::Relaxed);
    snap
}

/// Every tenant summed: monotonic counters merge exactly; point-in-
/// time gauges (pool sizes, connected apps) sum across the tenant
/// pools. `app_percent` and the free-fraction band are per-database
/// and have no machine-wide meaning, so they stay 0; histograms,
/// journal and ticks are per-tenant (bind to scrape them), so they
/// stay empty.
fn machine_metrics(dir: &TenantDirectory) -> MetricsSnapshot {
    let tuning = dir.merged_tuning_counters();
    let mut snap = MetricsSnapshot {
        lock_stats: dir.merged_stats(),
        counters: dir.merged_obs_counters(),
        tuning_intervals: tuning.intervals,
        grow_decisions: tuning.grow_decisions,
        shrink_decisions: tuning.shrink_decisions,
        ..MetricsSnapshot::default()
    };
    for id in dir.tenant_ids() {
        if let Some(service) = dir.tenant(id) {
            let pool = service.pool_stats();
            snap.pool_bytes += pool.bytes;
            snap.pool_slots_total += pool.slots_total;
            snap.pool_slots_used += service.pool_used_slots();
            snap.connected_apps += service.connected_apps();
        }
    }
    snap
}

fn validate(shared: &Arc<Shared>, conn: &ConnCtx) -> Result<ValidateReport, String> {
    match (&conn.service, &shared.backend) {
        (Some(service), _) => validate_service(service),
        (None, Backend::Tenants(dir)) => validate_directory(dir),
        (None, Backend::Single(service)) => validate_service(service),
    }
}

/// Run the cross-shard audit, converting its panic (the audit's only
/// failure signal) into a wire-safe error message.
fn validate_service(service: &LockService) -> Result<ValidateReport, String> {
    let service = std::panic::AssertUnwindSafe(service);
    std::panic::catch_unwind(|| {
        service.validate();
        ValidateReport {
            charged_slots: service.charged_slots(),
            pool_used_slots: service.pool_used_slots(),
        }
    })
    .map_err(panic_message)
}

/// Machine-wide audit: the ledger partition, every tenant's own
/// cross-shard accounting, and the summed slot counts.
fn validate_directory(dir: &Arc<TenantDirectory>) -> Result<ValidateReport, String> {
    let dir = std::panic::AssertUnwindSafe(dir);
    std::panic::catch_unwind(|| {
        dir.validate();
        let mut report = ValidateReport::default();
        for id in dir.tenant_ids() {
            if let Some(service) = dir.tenant(id) {
                report.charged_slots += service.charged_slots();
                report.pool_used_slots += service.pool_used_slots();
            }
        }
        report
    })
    .map_err(panic_message)
}

fn panic_message(panic: Box<dyn std::any::Any + Send>) -> String {
    panic
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| panic.downcast_ref::<&str>().copied())
        .unwrap_or("accounting validation failed")
        .to_string()
}
