//! Evented (epoll) I/O core: N shard threads, each multiplexing many
//! nonblocking connections.
//!
//! Selected with [`ServerConfig::io_model`](crate::ServerConfig) =
//! [`IoModel::Evented`](crate::IoModel). The threaded model spends two
//! threads per connection; this core spends
//! [`io_shards`](crate::ServerConfig::io_shards) threads total, so 10k
//! connections cost 10k registered fds instead of 20k stacks.
//!
//! **Ownership.** The accept thread admits a connection (same Busy cap
//! as threaded), makes it nonblocking, and hands it to one shard
//! round-robin. From then on exactly one thread ever touches that
//! connection's read buffer, write queue and lock state — there is no
//! lock on the data path, and the thread-per-connection invariants
//! (in-order execution, teardown-releases-locks) carry over verbatim
//! because a shard is just a thread serving many connections one event
//! at a time.
//!
//! **Run-to-completion dispatch.** A decoded frame executes
//! immediately — straight into the shard-grouped lock path — with no
//! queue between decode and execute. A lock request that would park
//! instead suspends the connection's [`BatchMachine`]: the shard drops
//! the connection's `EPOLLIN` interest (level-triggered epoll would
//! otherwise re-report the unread bytes every tick) and moves on to
//! other connections. The grant or deadlock abort arrives from a
//! service thread as a [`SessionEvent`] in the shard's [`EventSink`],
//! whose mailbox rings the shard's eventfd; the shard resumes the machine,
//! encodes the reply, and continues with any frames already buffered —
//! a pipelining client still sees strict arrival-order execution.
//!
//! **Write path.** Replies accumulate in a per-connection queue and
//! leave via `writev` (`write_vectored`), up to [`MAX_IOVECS`] frames
//! per syscall — a pipelining client's replies coalesce into one
//! segment, the same effect as the threaded writer's flush batching. A
//! partial write parks the tail under `EPOLLOUT`. A connection whose
//! backlog crosses [`write_hwm_bytes`](crate::ServerConfig) stops
//! being read (the client backpressures itself) and starts the
//! [`eviction_deadline`](crate::ServerConfig) clock; still over the
//! mark when the clock fires means the client stopped reading, and it
//! is evicted with the same `ClientEvicted` journal event the threaded
//! path emits.
//!
//! **Disconnect semantics** are identical to threaded: whatever ends
//! the connection — EOF, `EPOLLHUP`, protocol error, an injected wire
//! fault, eviction, server shutdown — teardown drops the `Session`,
//! which cancels any wait and releases every lock. Frames fully
//! received before a clean EOF still execute (the threaded reader only
//! notices EOF at the next frame boundary), and replies already queued
//! when the connection winds down are drained best-effort, bounded by
//! the eviction deadline.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use locktune_faults::FaultSite;
use locktune_lockmgr::hash::FxHashMap;
use locktune_lockmgr::{AppId, LockMode, ResourceId};
use locktune_metrics::raise_max;
use locktune_obs::AtomicIoShardStats;
use locktune_service::{
    BatchMachine, BatchOutcome, EventSink, Mailbox, ServiceError, SessionEvent, SpinPark, Step,
};

use crate::poll::{PollEvent, Poller, WakeFd, EPOLLIN, EPOLLOUT};
use crate::server::{self, Backend, ConnCtx, Shared};
use crate::wire::{self, FrameAccum, Reply, Request};

/// Poller token reserved for the shard's wake eventfd; connection
/// tokens are conn ids, which start at 1 and count up.
const WAKE_TOKEN: u64 = u64::MAX;

/// Socket read chunk. Big enough that a burst of small frames drains
/// in one syscall, small enough to live on the shard as one reused
/// buffer.
const READ_CHUNK: usize = 16 * 1024;

/// Max frames per `writev` call (well under any IOV_MAX).
const MAX_IOVECS: usize = 64;

/// Cap on how many bytes a single `fill` buffers beyond complete
/// frames before yielding to other connections; level-triggered epoll
/// re-reports the remainder next tick.
const FILL_BUDGET: usize = 4 * wire::MAX_PAYLOAD;

/// Spent reply frames kept per shard for reuse.
const FREELIST_RETAIN: usize = 64;

const KIND_WAIT: u8 = 0;
const KIND_PRESSURE: u8 = 1;

/// A new admitted connection crossing from the accept thread to its
/// owning shard.
struct NewConn {
    stream: TcpStream,
    ctx: ConnCtx,
}

/// The accept thread's handle on one shard.
struct ShardHandle {
    inbox: Arc<Mailbox<NewConn>>,
    sink: EventSink,
    thread: JoinHandle<()>,
}

/// Evented accept loop: admission (Busy cap, session allocation bound
/// to the owning shard's sink), then round-robin handoff. Owns the
/// shard threads; joins them after the listener stops, so
/// `Server::shutdown`'s accept-thread join transitively waits for
/// every connection's teardown.
pub(crate) fn accept_loop(shared: &Arc<Shared>, listener: TcpListener) {
    // The shards' counters, side by side; `AtomicIoShardStats` keeps
    // each set on cache lines of its own.
    let stats: Arc<Vec<AtomicIoShardStats>> = Arc::new(
        (0..shared.config.io_shards)
            .map(|_| AtomicIoShardStats::default())
            .collect(),
    );
    let mut shards: Vec<ShardHandle> = Vec::new();
    for index in 0..shared.config.io_shards {
        match spawn_shard(shared, index, &stats) {
            Ok(h) => shards.push(h),
            Err(_) => break, // degraded: serve with fewer shards
        }
    }
    if shards.is_empty() {
        return;
    }
    let mut next = 0usize;
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // Admission: identical to the threaded path — over the cap the
        // client gets an explicit retryable Busy frame, written while
        // the socket is still blocking.
        let admitted = shared.conn_count.fetch_add(1, Ordering::AcqRel);
        if admitted >= shared.config.max_connections {
            shared.conn_count.fetch_sub(1, Ordering::AcqRel);
            let _ = wire::write_reply(&mut (&stream), 0, &Reply::Busy);
            let _ = stream.shutdown(Shutdown::Both);
            continue;
        }
        let shard = &shards[next % shards.len()];
        next = next.wrapping_add(1);
        // Single mode binds the session here, against the owning
        // shard's event sink; multi-tenant connections bind at Hello.
        let ctx = match &shared.backend {
            Backend::Single(service) => {
                let Some(session) = server::allocate_session(shared, service, Some(&shard.sink))
                else {
                    shared.conn_count.fetch_sub(1, Ordering::AcqRel);
                    let _ = stream.shutdown(Shutdown::Both);
                    continue;
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
        let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
        let ctx = ConnCtx { conn_id, ..ctx };
        stream.set_nodelay(true).ok();
        if stream.set_nonblocking(true).is_err() {
            shared.conn_count.fetch_sub(1, Ordering::AcqRel);
            continue;
        }
        // Register the stream so shutdown and tenant-drop eviction can
        // kick this connection from outside its shard.
        if let Ok(clone) = stream.try_clone() {
            shared.conns.lock().unwrap().streams.insert(conn_id, clone);
        }
        if shard.inbox.push(NewConn { stream, ctx }).is_err() {
            // Shard thread died (pathological); release the slot.
            shared.conns.lock().unwrap().streams.remove(&conn_id);
            shared.conn_count.fetch_sub(1, Ordering::AcqRel);
        }
    }
    for s in &shards {
        s.inbox.close(); // rings the shard, which sees the shutdown flag
    }
    for s in shards {
        let _ = s.thread.join();
    }
}

fn spawn_shard(
    shared: &Arc<Shared>,
    index: usize,
    stats: &Arc<Vec<AtomicIoShardStats>>,
) -> std::io::Result<ShardHandle> {
    let poller = Poller::new()?;
    let wake = Arc::new(WakeFd::new()?);
    poller.add(wake.raw_fd(), EPOLLIN, WAKE_TOKEN)?;
    let (ring_inbox, ring_sink) = (Arc::clone(&wake), Arc::clone(&wake));
    let inbox = Arc::new(Mailbox::with_wake(move || ring_inbox.wake()));
    let sink = Arc::new(Mailbox::with_wake(move || ring_sink.wake()));
    let shard = Shard {
        shared: Arc::clone(shared),
        index,
        poller,
        wake,
        inbox: Arc::clone(&inbox),
        sink: sink.clone(),
        stats: Arc::clone(stats),
        conns: FxHashMap::default(),
        by_app: FxHashMap::default(),
        timers: BinaryHeap::new(),
        spin: SpinPark::new(),
        freelist: Vec::new(),
        read_buf: vec![0u8; READ_CHUNK],
        payload: Vec::new(),
        batch_items: Vec::new(),
    };
    let thread = std::thread::Builder::new()
        .name(format!("locktune-io-{index}"))
        .spawn(move || shard.run())?;
    Ok(ShardHandle {
        inbox,
        sink,
        thread,
    })
}

/// What the shard is waiting to answer on a connection whose machine
/// parked: the request id, and whether it came from a single `Lock`
/// frame (reply shape `Reply::Lock`) or a `LockBatch`
/// (`BatchOutcomes`).
struct Inflight {
    id: u64,
    single: bool,
}

/// Per-connection reply backlog: encoded frames not yet fully written,
/// with a byte offset into the head frame (partial `writev`).
#[derive(Default)]
struct WriteQueue {
    frames: VecDeque<Vec<u8>>,
    head_off: usize,
    /// Unsent bytes across all frames (the eviction pressure signal).
    backlog: usize,
}

impl WriteQueue {
    fn push(&mut self, frame: Vec<u8>) {
        self.backlog += frame.len();
        self.frames.push_back(frame);
    }

    /// Account `n` bytes written; fully-drained frames go back to the
    /// freelist.
    fn consume(&mut self, mut n: usize, freelist: &mut Vec<Vec<u8>>) {
        self.backlog -= n;
        while n > 0 {
            let rem = self.frames[0].len() - self.head_off;
            if n >= rem {
                n -= rem;
                self.head_off = 0;
                let spent = self.frames.pop_front().expect("frame accounted");
                give_frame(freelist, spent);
            } else {
                self.head_off += n;
                n = 0;
            }
        }
    }

    fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }
}

fn give_frame(freelist: &mut Vec<Vec<u8>>, mut frame: Vec<u8>) {
    if frame.capacity() <= server::RECYCLE_MAX_BYTES && freelist.len() < FREELIST_RETAIN {
        frame.clear();
        freelist.push(frame);
    }
}

/// One connection's full state, owned exclusively by its shard.
///
/// Wind-down is a three-state affair mirroring the threaded teardown
/// exactly:
/// * `eof` — the client half-closed. No more reads, but frames fully
///   received before the EOF still execute (threaded only notices EOF
///   at the next frame-boundary read), and their replies drain.
/// * `closing` — no further execution (protocol error, or an `eof`
///   connection that ran dry); queued replies drain best-effort
///   (threaded: the reader breaks, the writer drains what's queued),
///   bounded by the eviction deadline, then teardown.
/// * `dead` — teardown now, nothing drains (write failure, injected
///   disconnect, `EPOLLHUP`, eviction; threaded: the writer dies
///   mid-stream).
struct Conn {
    stream: TcpStream,
    ctx: ConnCtx,
    accum: FrameAccum,
    wq: WriteQueue,
    machine: BatchMachine,
    inflight: Option<Inflight>,
    /// Mirror of the machine's current wait deadline, used to validate
    /// lazily-invalidated timer-heap entries.
    wait_deadline: Option<Instant>,
    /// Deadline for eviction pressure (over the write high-water mark)
    /// or the closing-drain linger; `None` when neither applies.
    pressure_deadline: Option<Instant>,
    /// A deadlock abort arrived while no request was in flight; the
    /// next lock/unlock-all surfaces `DeadlockVictim`, exactly like
    /// a pending abort in the threaded session's own sink.
    aborted: bool,
    eof: bool,
    closing: bool,
    dead: bool,
    /// Interest mask currently registered with the poller.
    interest: u32,
}

struct Shard {
    shared: Arc<Shared>,
    index: usize,
    poller: Poller,
    wake: Arc<WakeFd>,
    /// Newly admitted connections from the accept thread.
    inbox: Arc<Mailbox<NewConn>>,
    /// Grant and abort events for every session this shard owns.
    sink: EventSink,
    stats: Arc<Vec<AtomicIoShardStats>>,
    conns: FxHashMap<u64, Conn>,
    /// App → connection token, for routing grant/abort events.
    by_app: FxHashMap<AppId, u64>,
    /// Lazily-invalidated deadline heap (lock-wait timeouts, eviction
    /// pressure); stale entries fire and validate against the conn.
    timers: BinaryHeap<Reverse<(Instant, u64, u8)>>,
    /// Spin-then-park state for the readiness wait in [`Shard::run`].
    spin: SpinPark,
    freelist: Vec<Vec<u8>>,
    read_buf: Vec<u8>,
    /// Current frame payload, copied out of the accumulator so the
    /// borrow doesn't pin the connection during dispatch.
    payload: Vec<u8>,
    batch_items: Vec<(ResourceId, LockMode)>,
}

/// A shard that stops, by shutdown or a panic, closes its mailboxes: the
/// accept thread's next hand-off to it fails, and events stop queueing.
impl Drop for Shard {
    fn drop(&mut self) {
        self.inbox.close();
        self.sink.close();
    }
}

impl Shard {
    fn run(mut self) {
        let mut events: Vec<PollEvent> = Vec::new();
        loop {
            if self.wait_ready(&mut events).is_err() {
                break;
            }
            if self.shared.shutdown.load(Ordering::Acquire) {
                break;
            }
            for ev in events.drain(..) {
                if ev.token == WAKE_TOKEN {
                    self.stat().wakeups.fetch_add(1, Ordering::Relaxed);
                    self.wake.drain();
                } else {
                    self.on_io(ev);
                }
            }
            // Mailboxes are drained every tick regardless of which fd
            // woke us: the wake is drained *before* the mailboxes (the
            // order that cannot lose a message), and a conn event may
            // have arrived while we were busy with sockets.
            self.drain_ctrl();
            self.drain_events();
            self.fire_timers();
        }
        // Shutdown: drop every connection. Session drops cancel waits
        // and release locks; nothing here can block.
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            if let Some(conn) = self.conns.remove(&token) {
                self.retire(conn);
            }
        }
    }

    fn stat(&self) -> &AtomicIoShardStats {
        &self.stats[self.index]
    }

    /// Fill `events` with ready fds, blocking until there are some or
    /// the earliest timer is due. Zero-timeout polls come first (the
    /// shared spin-then-park policy): a request that follows the last
    /// reply within microseconds is picked up without this thread — and
    /// the vCPU under it — having gone to sleep in between. The spin
    /// never runs past the earliest timer, and it has to be earned: an
    /// idle or slowly-paced shard, or one on a saturated host, blocks
    /// at once.
    fn wait_ready(&mut self, events: &mut Vec<PollEvent>) -> std::io::Result<()> {
        let next_timer = self.timers.peek().map(|&Reverse((t, _, _))| t);
        let polled = self.spin.spin(next_timer, || {
            match self.poller.wait(events, Some(Duration::ZERO)) {
                Ok(()) if events.is_empty() => None,
                result => Some(result),
            }
        });
        let stats = self.spin.stats();
        self.stat()
            .spin_hits
            .store(stats.spin_hits, Ordering::Relaxed);
        self.stat().parks.store(stats.parks, Ordering::Relaxed);
        match polled {
            Some(result) => result,
            None => {
                let timeout = next_timer.map(|t| t.saturating_duration_since(Instant::now()));
                self.poller.wait(events, timeout)
            }
        }
    }

    // ---- connection lifecycle ----------------------------------------

    fn drain_ctrl(&mut self) {
        while let Some(NewConn { stream, ctx }) = self.inbox.try_pop() {
            let token = ctx.conn_id;
            let fd = stream.as_raw_fd();
            let conn = Conn {
                stream,
                ctx,
                accum: FrameAccum::new(),
                wq: WriteQueue::default(),
                machine: BatchMachine::new(),
                inflight: None,
                wait_deadline: None,
                pressure_deadline: None,
                aborted: false,
                eof: false,
                closing: false,
                dead: false,
                interest: EPOLLIN,
            };
            self.stat().connections.fetch_add(1, Ordering::Relaxed);
            if let Some(session) = conn.ctx.session.as_ref() {
                self.by_app.insert(session.app(), token);
            }
            if self.poller.add(fd, EPOLLIN, token).is_err() {
                self.retire(conn);
                continue;
            }
            self.conns.insert(token, conn);
        }
    }

    /// Final teardown: deregister, drop the session (cancels any wait,
    /// releases every lock), release the admission slot.
    fn retire(&mut self, conn: Conn) {
        let _ = self.poller.delete(conn.stream.as_raw_fd());
        let _ = conn.stream.shutdown(Shutdown::Both);
        if let Some(session) = conn.ctx.session.as_ref() {
            self.by_app.remove(&session.app());
        }
        {
            let mut conns = self.shared.conns.lock().unwrap();
            conns.streams.remove(&conn.ctx.conn_id);
            conns.bindings.remove(&conn.ctx.conn_id);
            conns.gids.remove(&conn.ctx.conn_id);
            conns.epochs.remove(&conn.ctx.conn_id);
        }
        self.shared.conn_count.fetch_sub(1, Ordering::AcqRel);
        self.stat().connections.fetch_sub(1, Ordering::Relaxed);
        // `conn` (and its Session) drops here.
    }

    /// Post-processing after any activity on a connection: flush the
    /// write queue, advance the wind-down state machine, re-evaluate
    /// eviction pressure, update epoll interest, and either re-insert
    /// the connection or retire it.
    fn finish(&mut self, token: u64, mut conn: Conn) {
        if !conn.dead {
            self.flush(&mut conn);
            // A flush that clears write pressure may unblock frames
            // already sitting in the accumulator; no further socket
            // event would re-trigger execution, so run them now (pump
            // no-ops when parked, winding down, or still over the
            // mark).
            if conn.inflight.is_none() && !conn.closing && !conn.dead {
                self.pump(&mut conn);
                if !conn.dead {
                    self.flush(&mut conn);
                }
            }
        }
        // An `eof` connection with nothing in flight has executed
        // everything it ever will (pump ran it dry; leftover partial
        // bytes are a torn frame, dropped as threaded drops them).
        if conn.eof && conn.inflight.is_none() {
            conn.closing = true;
        }
        if conn.dead || (conn.closing && conn.wq.is_empty()) {
            self.retire(conn);
            return;
        }
        if conn.closing {
            // Draining final replies to a departing client: bound the
            // linger with the same deadline eviction uses.
            if conn.pressure_deadline.is_none() {
                let d = Instant::now() + self.shared.config.eviction_deadline;
                conn.pressure_deadline = Some(d);
                self.timers.push(Reverse((d, token, KIND_PRESSURE)));
            }
        } else if conn.wq.backlog > self.shared.config.write_hwm_bytes {
            if conn.pressure_deadline.is_none() {
                let d = Instant::now() + self.shared.config.eviction_deadline;
                conn.pressure_deadline = Some(d);
                self.timers.push(Reverse((d, token, KIND_PRESSURE)));
            }
        } else {
            // Drained below the mark: pressure clears, the stale timer
            // entry fires harmlessly.
            conn.pressure_deadline = None;
        }
        let mut want = 0u32;
        if !conn.closing && !conn.eof && conn.inflight.is_none() && conn.pressure_deadline.is_none()
        {
            want |= EPOLLIN;
        }
        if !conn.wq.is_empty() {
            want |= EPOLLOUT;
        }
        if want != conn.interest
            && self
                .poller
                .modify(conn.stream.as_raw_fd(), want, token)
                .is_ok()
        {
            conn.interest = want;
        }
        self.conns.insert(token, conn);
    }

    // ---- I/O ---------------------------------------------------------

    fn on_io(&mut self, ev: PollEvent) {
        let token = ev.token;
        let Some(mut conn) = self.conns.remove(&token) else {
            return;
        };
        if ev.closed() {
            // Reset or full hangup: teardown now, even mid-wait (the
            // session drop cancels the wait). A plain half-close FIN
            // reports as readable EOF instead and drains first.
            self.retire(conn);
            return;
        }
        if ev.writable() {
            self.flush(&mut conn);
        }
        if ev.readable()
            && !conn.dead
            && !conn.closing
            && !conn.eof
            && conn.inflight.is_none()
            && conn.pressure_deadline.is_none()
        {
            self.fill(&mut conn);
            self.pump(&mut conn);
        }
        self.finish(token, conn);
    }

    /// Read whatever the socket has (bounded per tick), into the frame
    /// accumulator.
    fn fill(&mut self, conn: &mut Conn) {
        loop {
            match conn.stream.read(&mut self.read_buf) {
                Ok(0) => {
                    conn.eof = true;
                    return;
                }
                Ok(n) => {
                    conn.accum.extend(&self.read_buf[..n]);
                    if n < self.read_buf.len() || conn.accum.pending() >= FILL_BUDGET {
                        return;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.dead = true;
                    return;
                }
            }
        }
    }

    /// Execute buffered frames in arrival order until the accumulator
    /// runs dry, the machine parks, pressure engages, or the
    /// connection winds down. An `eof` connection ignores pressure —
    /// its remaining input is already bounded and no more can arrive.
    fn pump(&mut self, conn: &mut Conn) {
        loop {
            if conn.dead
                || conn.closing
                || conn.inflight.is_some()
                || (!conn.eof && conn.wq.backlog > self.shared.config.write_hwm_bytes)
            {
                return;
            }
            match conn.accum.next_payload() {
                Ok(Some(p)) => {
                    self.payload.clear();
                    self.payload.extend_from_slice(p);
                }
                Ok(None) => return,
                Err(_) => {
                    conn.closing = true; // oversized/garbled length prefix
                    return;
                }
            }
            self.dispatch(conn);
        }
    }

    // ---- dispatch ----------------------------------------------------

    /// Execute the frame in `self.payload`. Protocol violations set
    /// `closing`, the same way the threaded reader breaks its loop
    /// (already-queued replies still drain).
    fn dispatch(&mut self, conn: &mut Conn) {
        match wire::decode_lock_batch_into(&self.payload, &mut self.batch_items) {
            Ok(Some(id)) => {
                if conn.ctx.session.is_none() {
                    conn.closing = true; // lock traffic before Hello
                    return;
                }
                // Fence check mirrors the threaded zero-copy batch path.
                if let Some(fenced) = server::fence_stale(&self.shared, &conn.ctx) {
                    self.send_reply(conn, id, &fenced);
                    return;
                }
                server::note_degraded_batch(&self.shared, &conn.ctx);
                let session = conn.ctx.session.as_ref().expect("checked above");
                let pending = std::mem::take(&mut conn.aborted);
                let step = conn
                    .machine
                    .start(session, &self.batch_items, true, pending);
                self.settle(conn, id, false, step);
            }
            Ok(None) => match wire::decode_request(&self.payload) {
                Ok((id, req)) => self.dispatch_request(conn, id, req),
                Err(_) => conn.closing = true,
            },
            Err(_) => conn.closing = true,
        }
    }

    fn dispatch_request(&mut self, conn: &mut Conn, id: u64, req: Request) {
        match req {
            // The two requests that can park route through the
            // resumable machine instead of the blocking session call.
            Request::Lock { res, mode } => {
                if conn.ctx.session.is_none() {
                    conn.closing = true;
                    return;
                }
                if let Some(fenced) = server::fence_stale(&self.shared, &conn.ctx) {
                    self.send_reply(conn, id, &fenced);
                    return;
                }
                let session = conn.ctx.session.as_ref().expect("checked above");
                let pending = std::mem::take(&mut conn.aborted);
                let step = conn.machine.start(session, &[(res, mode)], false, pending);
                self.settle(conn, id, true, step);
            }
            Request::LockBatch(items) => {
                // Defensive: LOCK_BATCH frames normally take the
                // zero-copy path in `dispatch`; route the generic
                // decode through the machine too — the blocking
                // `lock_many` must never run on an evented session.
                if conn.ctx.session.is_none() {
                    conn.closing = true;
                    return;
                }
                if let Some(fenced) = server::fence_stale(&self.shared, &conn.ctx) {
                    self.send_reply(conn, id, &fenced);
                    return;
                }
                server::note_degraded_batch(&self.shared, &conn.ctx);
                let session = conn.ctx.session.as_ref().expect("checked above");
                let pending = std::mem::take(&mut conn.aborted);
                let step = conn.machine.start(session, &items, true, pending);
                self.settle(conn, id, false, step);
            }
            // The threaded session surfaces a pending deadlock abort
            // from its own sink at the next unlock_all; the evented
            // equivalent lives on the conn.
            Request::UnlockAll if conn.aborted => {
                conn.aborted = false;
                if conn.ctx.session.is_none() {
                    conn.closing = true;
                    return;
                }
                self.send_reply(
                    conn,
                    id,
                    &Reply::UnlockAll(Err(ServiceError::DeadlockVictim)),
                );
            }
            // Session allocation must bind grants to this shard's
            // sink; everything else about Hello is shared.
            Request::Hello { tenant } => {
                let sink = self.sink.clone();
                let result = server::hello_with(&self.shared, &mut conn.ctx, tenant, &|sh, svc| {
                    server::allocate_session(sh, svc, Some(&sink))
                });
                if result.is_ok() {
                    if let Some(session) = conn.ctx.session.as_ref() {
                        self.by_app.insert(session.app(), conn.ctx.conn_id);
                    }
                }
                self.send_reply(conn, id, &Reply::Hello(result));
            }
            // Everything else is non-blocking and shared verbatim with
            // the threaded path.
            req => match server::execute(&self.shared, &mut conn.ctx, req) {
                Some(mut reply) => {
                    if let Reply::Metrics(m) = &mut reply {
                        m.io_shards = (self.stats.iter().enumerate())
                            .map(|(i, s)| s.load(i as u32))
                            .collect();
                    }
                    self.send_reply(conn, id, &reply);
                }
                None => conn.closing = true,
            },
        }
    }

    /// Act on a machine step: enqueue the finished reply, or park the
    /// connection (reads off, wait-timeout timer armed).
    fn settle(&mut self, conn: &mut Conn, id: u64, single: bool, step: Step) {
        match step {
            Step::Done => {
                conn.wait_deadline = None;
                self.reply_from_machine(conn, id, single);
            }
            Step::Waiting { deadline } => {
                conn.inflight = Some(Inflight { id, single });
                conn.wait_deadline = deadline;
                if let Some(d) = deadline {
                    self.timers.push(Reverse((d, conn.ctx.conn_id, KIND_WAIT)));
                }
            }
        }
    }

    /// Resume a parked machine with a step result; on completion,
    /// continue executing frames that buffered behind the wait.
    fn resolve(&mut self, conn: &mut Conn, step: Step) {
        match step {
            Step::Done => {
                let Some(Inflight { id, single }) = conn.inflight.take() else {
                    return;
                };
                conn.wait_deadline = None;
                self.reply_from_machine(conn, id, single);
                self.pump(conn);
            }
            Step::Waiting { deadline } => {
                // Either a later request in the batch parked in turn
                // (fresh deadline) or a timeout raced its grant (wait
                // stays open, no deadline).
                conn.wait_deadline = deadline;
                if let Some(d) = deadline {
                    self.timers.push(Reverse((d, conn.ctx.conn_id, KIND_WAIT)));
                }
            }
        }
    }

    fn reply_from_machine(&mut self, conn: &mut Conn, id: u64, single: bool) {
        let mut frame = self.take_frame();
        if single {
            match conn.machine.outcomes().first() {
                Some(BatchOutcome::Done(r)) => {
                    wire::encode_reply_into(&mut frame, id, &Reply::Lock(r.clone()));
                }
                _ => {
                    give_frame(&mut self.freelist, frame);
                    conn.closing = true;
                    return;
                }
            }
        } else {
            wire::encode_batch_outcomes_into(&mut frame, id, conn.machine.outcomes());
        }
        self.enqueue(conn, frame);
    }

    fn send_reply(&mut self, conn: &mut Conn, id: u64, reply: &Reply) {
        let mut frame = self.take_frame();
        wire::encode_reply_into(&mut frame, id, reply);
        self.enqueue(conn, frame);
    }

    fn take_frame(&mut self) -> Vec<u8> {
        self.freelist
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(64))
    }

    // ---- write path --------------------------------------------------

    /// Queue an encoded reply, consulting the fault injector first —
    /// the same three wire fault sites as the threaded writer, applied
    /// at the same per-frame granularity.
    fn enqueue(&mut self, conn: &mut Conn, frame: Vec<u8>) {
        let faults = &self.shared.config.faults;
        if faults.should(FaultSite::WireStall) {
            std::thread::sleep(faults.stall());
        }
        if faults.should(FaultSite::WireTorn) {
            // Half a frame, then kill the socket: the client observes
            // a length prefix whose payload never completes.
            let _ = (&conn.stream).write(&frame[..frame.len() / 2]);
            give_frame(&mut self.freelist, frame);
            conn.dead = true;
            return;
        }
        if faults.should(FaultSite::WireDisconnect) {
            give_frame(&mut self.freelist, frame);
            conn.dead = true;
            return;
        }
        conn.wq.push(frame);
        raise_max(&self.shared.reply_hwm, conn.wq.frames.len() as u64);
        raise_max(&self.stat().write_buf_hwm, conn.wq.backlog as u64);
    }

    /// Drain the write queue with vectored writes until empty or the
    /// socket pushes back (`EPOLLOUT` picks up the tail).
    fn flush(&mut self, conn: &mut Conn) {
        loop {
            if conn.wq.is_empty() {
                return;
            }
            let nslices;
            let written = {
                let mut slices = [IoSlice::new(&[]); MAX_IOVECS];
                let mut n = 0;
                for (slice, f) in slices.iter_mut().zip(&conn.wq.frames) {
                    let b = if n == 0 {
                        &f[conn.wq.head_off..]
                    } else {
                        &f[..]
                    };
                    *slice = IoSlice::new(b);
                    n += 1;
                }
                nslices = n as u64;
                match (&conn.stream).write_vectored(&slices[..n]) {
                    Ok(0) => {
                        conn.dead = true;
                        return;
                    }
                    Ok(n) => n,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        conn.dead = true;
                        return;
                    }
                }
            };
            self.stat().writev_calls.fetch_add(1, Ordering::Relaxed);
            self.stat()
                .writev_frames
                .fetch_add(nslices, Ordering::Relaxed);
            conn.wq.consume(written, &mut self.freelist);
        }
    }

    // ---- events and timers -------------------------------------------

    fn drain_events(&mut self) {
        while let Some((app, event)) = self.sink.try_pop() {
            let Some(&token) = self.by_app.get(&app) else {
                continue; // connection already torn down
            };
            let Some(mut conn) = self.conns.remove(&token) else {
                continue;
            };
            if conn.inflight.is_some() && conn.machine.is_waiting() {
                let step = {
                    let session = conn.ctx.session.as_ref().expect("waiting implies session");
                    conn.machine.on_event(session, event)
                };
                self.resolve(&mut conn, step);
            } else if event == SessionEvent::Aborted {
                // Abort landed between requests (the sweeper confirmed
                // the wait just as it resolved): pend it, same as the
                // threaded session's own sink.
                conn.aborted = true;
            }
            self.finish(token, conn);
        }
    }

    fn fire_timers(&mut self) {
        let now = Instant::now();
        while let Some(&Reverse((t, token, kind))) = self.timers.peek() {
            if t > now {
                break;
            }
            self.timers.pop();
            let Some(mut conn) = self.conns.remove(&token) else {
                continue; // stale entry for a dead connection
            };
            match kind {
                KIND_WAIT => {
                    // Validate: still parked, and on *this* deadline
                    // (a resume + re-park would have pushed a fresh
                    // entry).
                    if conn.wait_deadline == Some(t) && conn.inflight.is_some() {
                        let step = {
                            let session =
                                conn.ctx.session.as_ref().expect("waiting implies session");
                            conn.machine.on_timeout(session)
                        };
                        self.resolve(&mut conn, step);
                    }
                    self.finish(token, conn);
                }
                _ => {
                    if conn.pressure_deadline != Some(t) {
                        self.finish(token, conn); // stale entry
                    } else if conn.closing {
                        // Linger expired with replies still queued:
                        // give up on the drain.
                        self.retire(conn);
                    } else if conn.wq.backlog > self.shared.config.write_hwm_bytes {
                        // Still over the high-water mark after the
                        // whole deadline: the client stopped reading.
                        // Evict it and free its locks — the same
                        // journaled event as threaded eviction.
                        if let (Some(service), Some(session)) =
                            (&conn.ctx.service, &conn.ctx.session)
                        {
                            service.note_client_evicted(session.app());
                        }
                        self.retire(conn);
                    } else {
                        self.finish(token, conn);
                    }
                }
            }
        }
    }
}
