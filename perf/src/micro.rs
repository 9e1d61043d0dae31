//! Per-layer rows: every layer timed **from outside**, single-threaded
//! unless the row says otherwise, by calling its public functions in a
//! loop. None of these depend on which workload is being traced; they
//! are what the attribution sums are built from.
//!
//! The rows that exist only so ROADMAP item 2 can delete the threaded
//! I/O core with a number ([`threaded_gate`]) live together at the
//! bottom, to be retired in one place.

use std::hint::black_box;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use locktune_core::{LockMemorySnapshot, LockMemoryTuner, OverflowState, TunerParams};
use locktune_lockmgr::{
    AppId, EscalationBias, LockManager, LockManagerConfig, LockMode, LockOutcome, NoTuning,
    ResourceId, RowId, TableId,
};
use locktune_memalloc::{LockMemoryPool, PoolBackend, PoolConfig, SharedLockMemoryPool};
use locktune_net::wire::{self, FrameAccum, Reply, Request};
use locktune_net::{BatchOutcome, Client, IoModel, Server};
use locktune_service::{LockService, ServiceConfig};

use crate::alloc_count;
use crate::run::{Crew, Limit, Metric, Rep, Running};
use crate::spans::{self, SpanName, Tracer};
use crate::stats;
use crate::workloads::{
    self, bind_server, connect, oltp_service, start_cluster, InprocOltp, Params, RoutedWorker,
    Tally, WireBatch, Worker, Workload, ROWS_PER_TXN,
};

/// Locks in one OLTP transaction: the table intent plus its rows.
const TXN_LOCKS: u64 = ROWS_PER_TXN + 1;

/// How much work the rows do.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Calls per nanosecond-scale row (10^6 in a full pass).
    pub calls: u64,
    /// Calls per microsecond-scale row: blocks, ticks, round trips
    /// (10^4 in a full pass, never fewer than 10^3 there).
    pub slow_calls: u64,
    /// Length of the load repetitions the attribution sums and the
    /// threaded gate run.
    pub rep: Duration,
}

fn ns_per(elapsed: Duration, calls: u64) -> f64 {
    elapsed.as_nanos() as f64 / calls as f64
}

fn row(out: &mut Vec<Metric>, name: &'static str, unit: &'static str, value: f64) {
    out.push(Metric::single(name, unit, value));
}

// ---------------------------------------------------------------------
// memalloc
// ---------------------------------------------------------------------

fn memalloc(b: &Budget, out: &mut Vec<Metric>) {
    let config = PoolConfig::default();

    // Handle allocate + free on the hot tier: a bare Vec pop/push.
    let mut shared = SharedLockMemoryPool::with_bytes(config, 1 << 20);
    let warm = shared.allocate().expect("slot");
    shared.free(warm).expect("free");
    let t0 = Instant::now();
    for _ in 0..b.calls {
        let h = shared.allocate().expect("slot");
        shared.free(black_box(h)).expect("free");
    }
    row(
        out,
        "memalloc.alloc_free_ns",
        "ns",
        ns_per(t0.elapsed(), b.calls),
    );

    // The same pair on an owned pool (what a bare LockManager uses),
    // so the lockmgr rows can be stripped of their allocation share.
    let mut owned = LockMemoryPool::with_bytes(config, 1 << 20);
    let t0 = Instant::now();
    for _ in 0..b.calls {
        let h = owned.allocate().expect("slot");
        owned.free(black_box(h)).expect("free");
    }
    row(
        out,
        "memalloc.owned_alloc_free_ns",
        "ns",
        ns_per(t0.elapsed(), b.calls),
    );

    // 4096 allocations then 4096 frees: hot tier → depot → pool mutex.
    const BURST: usize = 4096;
    let rounds = (b.calls as usize / BURST).max(1);
    let mut held = Vec::with_capacity(BURST);
    let t0 = Instant::now();
    for _ in 0..rounds {
        for _ in 0..BURST {
            held.push(shared.allocate().expect("slot"));
        }
        for h in held.drain(..) {
            shared.free(h).expect("free");
        }
    }
    row(
        out,
        "memalloc.burst_ns_per_slot",
        "ns",
        ns_per(t0.elapsed(), (rounds * BURST) as u64),
    );

    // Block grow and shrink through the shared handle, 64 at a time.
    const STEP: u64 = 64;
    let rounds = (b.slow_calls / STEP).max(1);
    let base = shared.total_blocks();
    let (mut grow, mut shrink) = (Duration::ZERO, Duration::ZERO);
    for _ in 0..rounds {
        let t0 = Instant::now();
        shared.grow_blocks(STEP);
        grow += t0.elapsed();
        let t0 = Instant::now();
        let after = shared.resize_to_blocks(base);
        shrink += t0.elapsed();
        assert_eq!(after, base, "free blocks shrink back");
    }
    row(
        out,
        "memalloc.grow_block_us",
        "us",
        ns_per(grow, rounds * STEP) / 1e3,
    );
    row(
        out,
        "memalloc.shrink_block_us",
        "us",
        ns_per(shrink, rounds * STEP) / 1e3,
    );
}

// ---------------------------------------------------------------------
// lockmgr
// ---------------------------------------------------------------------

fn bare_manager() -> (LockManager, NoTuning) {
    let pool = LockMemoryPool::with_bytes(PoolConfig::default(), 64 << 20);
    (
        LockManager::new(pool, LockManagerConfig::default()),
        NoTuning {
            max_locks_percent: 100.0,
        },
    )
}

fn lockmgr(b: &Budget, out: &mut Vec<Metric>) {
    let table = TableId(1);
    let app = AppId(1);

    // Grant and release in OLTP-transaction-sized groups, so the lock
    // table is as small and as warm as it is under `inproc_oltp`.
    let (mut m, mut hooks) = bare_manager();
    let txns = (b.calls / ROWS_PER_TXN).max(1);
    let (mut grant, mut unlock) = (Duration::ZERO, Duration::ZERO);
    let mut next_row = 0;
    for _ in 0..txns {
        m.lock(app, ResourceId::Table(table), LockMode::IX, &mut hooks)
            .expect("intent");
        let t0 = Instant::now();
        for _ in 0..ROWS_PER_TXN {
            let res = ResourceId::Row(table, RowId(next_row));
            next_row += 1;
            black_box(m.lock(app, res, LockMode::X, &mut hooks)).expect("grant");
        }
        grant += t0.elapsed();
        let t0 = Instant::now();
        let report = m.unlock_all(app, &mut hooks);
        unlock += t0.elapsed();
        assert_eq!(report.released_locks, TXN_LOCKS);
    }
    row(
        out,
        "lockmgr.grant_ns",
        "ns",
        ns_per(grant, txns * ROWS_PER_TXN),
    );
    row(
        out,
        "lockmgr.unlock_all_ns_per_lock",
        "ns",
        ns_per(unlock, txns * TXN_LOCKS),
    );

    // Re-request of a lock already held in a covering mode.
    let res = ResourceId::Row(table, RowId(0));
    m.lock(app, ResourceId::Table(table), LockMode::IX, &mut hooks)
        .expect("intent");
    m.lock(app, res, LockMode::X, &mut hooks).expect("grant");
    let t0 = Instant::now();
    for _ in 0..b.calls {
        let o = m.lock(app, black_box(res), LockMode::X, &mut hooks);
        debug_assert_eq!(o, Ok(LockOutcome::AlreadyHeld));
        black_box(o).expect("regrant");
    }
    row(
        out,
        "lockmgr.regrant_ns",
        "ns",
        ns_per(t0.elapsed(), b.calls),
    );
    m.unlock_all(app, &mut hooks);

    // Conflict handoff: the waiter queues, the holder unlocks, the
    // grant comes out of take_notifications — then the roles swap.
    let (mut holder, mut waiter) = (AppId(1), AppId(2));
    for a in [holder, waiter] {
        m.lock(a, ResourceId::Table(table), LockMode::IX, &mut hooks)
            .expect("intent");
    }
    m.lock(holder, res, LockMode::X, &mut hooks).expect("grant");
    let handoffs = (b.calls / 4).max(1);
    let t0 = Instant::now();
    for _ in 0..handoffs {
        let o = m.lock(waiter, res, LockMode::X, &mut hooks);
        debug_assert_eq!(o, Ok(LockOutcome::Queued));
        black_box(o).expect("queue");
        m.unlock(holder, res, &mut hooks).expect("unlock");
        let notices = m.take_notifications();
        assert_eq!(notices.len(), 1, "the waiter is granted");
        std::mem::swap(&mut holder, &mut waiter);
    }
    row(
        out,
        "lockmgr.queue_handoff_ns",
        "ns",
        ns_per(t0.elapsed(), handoffs),
    );
    m.unlock_all(holder, &mut hooks);
    m.unlock_all(waiter, &mut hooks);

    // Escalation of 1000 row locks into one table lock, triggered by
    // the application's own bias on the 1001st request.
    const ESC_ROWS: u64 = 1000;
    let (mut m, mut hooks) = bare_manager();
    m.set_escalation_bias(
        app,
        EscalationBias::PreferEscalation {
            table_row_threshold: ESC_ROWS,
        },
    );
    let rounds = (b.slow_calls / 10).max(1);
    let mut escalate = Duration::ZERO;
    for _ in 0..rounds {
        m.lock(app, ResourceId::Table(table), LockMode::IX, &mut hooks)
            .expect("intent");
        for r in 0..ESC_ROWS {
            m.lock(
                app,
                ResourceId::Row(table, RowId(r)),
                LockMode::X,
                &mut hooks,
            )
            .expect("grant");
        }
        let t0 = Instant::now();
        let o = m.lock(
            app,
            ResourceId::Row(table, RowId(ESC_ROWS)),
            LockMode::X,
            &mut hooks,
        );
        escalate += t0.elapsed();
        assert!(
            matches!(o, Ok(LockOutcome::GrantedAfterEscalation { .. })),
            "expected an escalation, got {o:?}"
        );
        m.unlock_all(app, &mut hooks);
    }
    row(
        out,
        "lockmgr.escalate_us",
        "us",
        ns_per(escalate, rounds) / 1e3,
    );
}

// ---------------------------------------------------------------------
// core
// ---------------------------------------------------------------------

fn core(b: &Budget, out: &mut Vec<Metric>) {
    let params = TunerParams::default();
    let database = ServiceConfig::default().memory.total_bytes;
    let snapshot = |allocated: u64, used: u64| LockMemorySnapshot {
        allocated_bytes: allocated,
        used_bytes: used,
        lmoc_bytes: allocated,
        num_applications: 2,
        escalations_since_last: 0,
        overflow: OverflowState {
            database_memory_bytes: database,
            sum_heap_bytes: database / 10 * 7,
            lock_memory_from_overflow_bytes: 0,
            overflow_free_bytes: database / 10 * 2,
        },
    };
    // A grow, a shrink and a within-band tick, round robin.
    let snaps = [
        snapshot(8 << 20, 6 << 20),
        snapshot(64 << 20, 4 << 20),
        snapshot(16 << 20, 7 << 20),
    ];
    let mut tuner = LockMemoryTuner::new(params);
    let t0 = Instant::now();
    for i in 0..b.calls {
        black_box(tuner.tick(black_box(&snaps[(i % 3) as usize])));
    }
    row(out, "core.tick_ns", "ns", ns_per(t0.elapsed(), b.calls));

    let t0 = Instant::now();
    for i in 0..b.calls {
        black_box(tuner.request_sync_growth(128 << 10, black_box(&snaps[(i % 3) as usize])));
    }
    row(
        out,
        "core.sync_growth_ns",
        "ns",
        ns_per(t0.elapsed(), b.calls),
    );

    let controller = tuner.app_percent_mut();
    let t0 = Instant::now();
    for i in 0..b.calls {
        black_box(controller.on_lock_request(black_box((i % 100) as f64 / 100.0)));
    }
    row(
        out,
        "core.app_percent_ns",
        "ns",
        ns_per(t0.elapsed(), b.calls),
    );
}

// ---------------------------------------------------------------------
// service
// ---------------------------------------------------------------------

/// One OLTP lock set on `table`, rows 0..20.
fn oltp_item_buf(table: TableId) -> Vec<(ResourceId, LockMode)> {
    let mut items = Vec::new();
    workloads::oltp_items(&mut items, table, &mut 0);
    items
}

fn service(b: &Budget, out: &mut Vec<Metric>) {
    let table = TableId(1);
    let svc = oltp_service();
    let session = svc.connect(AppId(1));

    // Session::lock / unlock_all in OLTP-transaction-sized groups.
    let txns = (b.calls / ROWS_PER_TXN).max(1);
    let (mut lock, mut unlock) = (Duration::ZERO, Duration::ZERO);
    let mut next_row = 0;
    for _ in 0..txns {
        session
            .lock(ResourceId::Table(table), LockMode::IX)
            .expect("intent");
        let t0 = Instant::now();
        for _ in 0..ROWS_PER_TXN {
            let res = ResourceId::Row(table, RowId(next_row));
            next_row += 1;
            black_box(session.lock(res, LockMode::X)).expect("grant");
        }
        lock += t0.elapsed();
        let t0 = Instant::now();
        let report = session.unlock_all().expect("commit");
        unlock += t0.elapsed();
        assert_eq!(report.released_locks, TXN_LOCKS);
    }
    let lock_ns = ns_per(lock, txns * ROWS_PER_TXN);
    row(out, "service.lock_ns", "ns", lock_ns);
    row(
        out,
        "service.unlock_all_ns_per_lock",
        "ns",
        ns_per(unlock, txns * TXN_LOCKS),
    );

    // The same lock set as one lock_many batch.
    let items = oltp_item_buf(table);
    let mut outcomes = Vec::new();
    let mut many = Duration::ZERO;
    for _ in 0..txns {
        let t0 = Instant::now();
        session.lock_many_into(black_box(&items), &mut outcomes);
        many += t0.elapsed();
        assert!(outcomes.iter().all(BatchOutcome::is_granted));
        session.unlock_all().expect("commit");
    }
    row(
        out,
        "service.lock_many_ns_per_item",
        "ns",
        ns_per(many, txns * TXN_LOCKS),
    );
    drop(session);

    // The control loop on an idle default (2 MiB) service.
    let idle = workloads::start_service(workloads::service_config(
        ServiceConfig::default().initial_lock_bytes,
        None,
    ));
    let t0 = Instant::now();
    for _ in 0..b.slow_calls {
        black_box(idle.run_tuning_interval_now());
    }
    row(
        out,
        "service.tuning_tick_us",
        "us",
        ns_per(t0.elapsed(), b.slow_calls) / 1e3,
    );
    let t0 = Instant::now();
    for _ in 0..b.slow_calls {
        black_box(idle.observe(0, 0));
    }
    row(
        out,
        "service.observe_us",
        "us",
        ns_per(t0.elapsed(), b.slow_calls) / 1e3,
    );

    row(
        out,
        "service.wait_handoff_us",
        "us",
        wait_handoff(&svc, (b.slow_calls / 2).max(1)),
    );
}

/// Two threads and one row: from the holder entering `unlock_all` to
/// the waiter's `lock()` returning. The holder releases as soon as it
/// sees the waiter queued, so this is the handoff a short critical
/// section produces (the waiter is usually still in its grant spin),
/// the case `inproc_contended` lives in.
fn wait_handoff(svc: &Arc<LockService>, rounds: u64) -> f64 {
    let table = TableId(2);
    let res = ResourceId::Row(table, RowId(0));
    let (go_tx, go_rx) = mpsc::channel::<()>();
    let (done_tx, done_rx) = mpsc::channel::<Instant>();
    let mut samples = Vec::with_capacity(rounds as usize);
    std::thread::scope(|scope| {
        scope.spawn(move || {
            let waiter = svc.connect(AppId(12));
            while go_rx.recv().is_ok() {
                waiter
                    .lock(ResourceId::Table(table), LockMode::IX)
                    .expect("intent");
                waiter.lock(res, LockMode::X).expect("handoff grant");
                let returned = Instant::now();
                waiter.unlock_all().expect("commit");
                done_tx.send(returned).expect("holder listens");
            }
        });
        let holder = svc.connect(AppId(11));
        for _ in 0..rounds {
            holder
                .lock(ResourceId::Table(table), LockMode::IX)
                .expect("intent");
            holder.lock(res, LockMode::X).expect("grant");
            let queued_before = svc.stats().waits;
            go_tx.send(()).expect("waiter listens");
            while svc.stats().waits == queued_before {
                std::hint::spin_loop();
            }
            let released = Instant::now();
            holder.unlock_all().expect("commit");
            let returned = done_rx.recv().expect("waiter reports");
            samples.push(returned.saturating_duration_since(released).as_nanos() as u64);
        }
        // Hanging up ends the waiter's loop.
        drop(go_tx);
    });
    stats::median_us(&samples)
}

// ---------------------------------------------------------------------
// net: wire codec
// ---------------------------------------------------------------------

/// The codec rows and the allocation audit. Returns a finding when
/// the steady-state codec path allocated.
fn codec(b: &Budget, out: &mut Vec<Metric>) -> Option<String> {
    let items = oltp_item_buf(TableId(1));
    let n = items.len() as u64;
    let granted: Vec<BatchOutcome> = items
        .iter()
        .map(|_| BatchOutcome::Done(Ok(LockOutcome::Granted)))
        .collect();
    let lock_req = Request::Lock {
        res: ResourceId::Row(TableId(1), RowId(0)),
        mode: LockMode::X,
    };
    let lock_reply = Reply::Lock(Ok(LockOutcome::Granted));
    let rounds = (b.calls / n).max(1);

    let mut batch_frame = Vec::new();
    let t0 = Instant::now();
    for i in 0..rounds {
        wire::encode_lock_batch_into(&mut batch_frame, i, black_box(&items));
    }
    row(
        out,
        "wire.encode_batch_ns_per_item",
        "ns",
        ns_per(t0.elapsed(), rounds * n),
    );

    let mut decoded = Vec::new();
    let t0 = Instant::now();
    for _ in 0..rounds {
        let id = wire::decode_lock_batch_into(black_box(&batch_frame[4..]), &mut decoded);
        black_box(id).expect("decodes").expect("is a batch");
    }
    row(
        out,
        "wire.decode_batch_ns_per_item",
        "ns",
        ns_per(t0.elapsed(), rounds * n),
    );
    assert_eq!(decoded, items);

    let mut outcomes_frame = Vec::new();
    let t0 = Instant::now();
    for i in 0..rounds {
        wire::encode_batch_outcomes_into(&mut outcomes_frame, i, black_box(&granted));
    }
    row(
        out,
        "wire.encode_outcomes_ns_per_item",
        "ns",
        ns_per(t0.elapsed(), rounds * n),
    );

    let t0 = Instant::now();
    for _ in 0..rounds {
        black_box(wire::decode_reply(black_box(&outcomes_frame[4..]))).expect("decodes");
    }
    row(
        out,
        "wire.decode_outcomes_ns_per_item",
        "ns",
        ns_per(t0.elapsed(), rounds * n),
    );

    let mut req_frame = Vec::new();
    let t0 = Instant::now();
    for i in 0..b.calls {
        wire::encode_request_into(&mut req_frame, i, black_box(&lock_req));
    }
    row(
        out,
        "wire.encode_request_ns",
        "ns",
        ns_per(t0.elapsed(), b.calls),
    );
    let t0 = Instant::now();
    for _ in 0..b.calls {
        black_box(wire::decode_request(black_box(&req_frame[4..]))).expect("decodes");
    }
    row(
        out,
        "wire.decode_request_ns",
        "ns",
        ns_per(t0.elapsed(), b.calls),
    );

    let mut reply_frame = Vec::new();
    let t0 = Instant::now();
    for i in 0..b.calls {
        wire::encode_reply_into(&mut reply_frame, i, black_box(&lock_reply));
    }
    row(
        out,
        "wire.encode_reply_ns",
        "ns",
        ns_per(t0.elapsed(), b.calls),
    );
    let t0 = Instant::now();
    for _ in 0..b.calls {
        black_box(wire::decode_reply(black_box(&reply_frame[4..]))).expect("decodes");
    }
    row(
        out,
        "wire.decode_reply_ns",
        "ns",
        ns_per(t0.elapsed(), b.calls),
    );

    // FrameAccum over one `wire_single` flush: 21 lock frames and the
    // commit arrive in one read and come out one payload at a time.
    let mut flush = Vec::new();
    let mut commit_frame = Vec::new();
    for (i, &(res, mode)) in items.iter().enumerate() {
        wire::encode_request_into(&mut req_frame, i as u64, &Request::Lock { res, mode });
        flush.extend_from_slice(&req_frame);
    }
    wire::encode_request_into(&mut commit_frame, n, &Request::UnlockAll);
    flush.extend_from_slice(&commit_frame);
    let mut accum = FrameAccum::new();
    let t0 = Instant::now();
    for _ in 0..rounds {
        accum.extend(black_box(&flush));
        let mut frames = 0;
        while let Some(payload) = accum.next_payload().expect("well-formed") {
            black_box(payload);
            frames += 1;
        }
        debug_assert_eq!(frames, n + 1);
    }
    row(
        out,
        "wire.accum_ns_per_frame",
        "ns",
        ns_per(t0.elapsed(), rounds * (n + 1)),
    );

    // Bytes on the wire per lock of a `wire_batch` transaction, both
    // directions, commit included. Exact.
    let mut commit_reply = Vec::new();
    wire::encode_reply_into(
        &mut commit_reply,
        0,
        &Reply::UnlockAll(Ok(locktune_lockmgr::UnlockReport {
            released_locks: n,
            freed_slots: 2 * n,
        })),
    );
    let bytes = batch_frame.len() + commit_frame.len() + outcomes_frame.len() + commit_reply.len();
    row(out, "wire.bytes_per_lock", "bytes", bytes as f64 / n as f64);

    // Allocation audit: the encode/decode cycle a server connection
    // performs per transaction must not touch the heap once its
    // scratch buffers are warm.
    let cycles = b.calls.clamp(1, 100_000);
    let mut cycle = || {
        wire::encode_lock_batch_into(&mut batch_frame, 7, &items);
        let id = wire::decode_lock_batch_into(&batch_frame[4..], &mut decoded)
            .expect("decodes")
            .expect("is a batch");
        wire::encode_batch_outcomes_into(&mut outcomes_frame, id, &granted);
        wire::encode_request_into(&mut req_frame, 8, &lock_req);
        wire::encode_reply_into(&mut reply_frame, 8, &lock_reply);
    };
    cycle();
    let before = alloc_count::thread_events();
    for _ in 0..cycles {
        cycle();
    }
    let events = alloc_count::thread_events() - before;
    row(
        out,
        "wire.allocs_per_cycle",
        "count",
        events as f64 / cycles as f64,
    );
    (events != 0).then(|| {
        format!("wire codec: {events} allocation events over {cycles} warm encode/decode cycles")
    })
}

// ---------------------------------------------------------------------
// net: I/O
// ---------------------------------------------------------------------

/// A connection that pings: socket, shard wake and codec, no lock work.
struct PingConn(Client);

impl Worker for PingConn {
    fn txn<T: Tracer>(&mut self, _tr: &mut T, tally: &mut Tally) {
        self.0.ping(Vec::new()).expect("ping");
        tally.txns += 1;
    }
}

/// Median transaction latency of `workers` run as one warmed crew.
fn crew_p50_us<W: Worker + 'static>(workers: Vec<W>, txns: u64) -> f64 {
    let mut crew = Crew::start(workers);
    let rep = warmed(&mut crew, txns);
    drop(crew.finish());
    p50_us(&rep)
}

/// `txns` transactions on every seat after a tenth as many to warm
/// up (first round trips pay socket and cache set-up).
fn warmed<W: Worker + 'static>(crew: &mut Crew<W>, txns: u64) -> Rep {
    crew.run(Limit::Txns((txns / 10).max(1)));
    crew.run(Limit::Txns(txns))
}

fn p50_us(rep: &Rep) -> f64 {
    rep.latency.p50_us()
}

/// Median round trip of `rounds` empty pings on each of `connections`
/// concurrent closed loops.
fn ping_rtt_us(server: &Server, connections: usize, rounds: u64) -> f64 {
    let conns = (0..connections)
        .map(|_| PingConn(connect(server)))
        .collect();
    crew_p50_us(conns, rounds)
}

fn net_io(p: &Params, b: &Budget, out: &mut Vec<Metric>) -> f64 {
    let server = bind_server(oltp_service(), IoModel::Evented);
    row(
        out,
        "net.ping_rtt_us",
        "us",
        ping_rtt_us(&server, 1, b.slow_calls),
    );
    let loaded = ping_rtt_us(&server, p.threads, b.slow_calls);
    row(out, "net.ping_rtt_loaded_us", "us", loaded);

    // Connect, first round trip, disconnect.
    let rounds = (b.slow_calls / 10).max(1);
    let mut samples = Vec::with_capacity(rounds as usize);
    for _ in 0..rounds {
        let t0 = Instant::now();
        let mut c = connect(&server);
        c.ping(Vec::new()).expect("ping");
        samples.push(t0.elapsed().as_nanos() as u64);
    }
    row(out, "net.connect_us", "us", stats::median_us(&samples));
    server.shutdown();

    // The `wire_batch` transaction on one connection: the shard
    // sleeps between transactions, so this is wake-latency bound.
    let mut one = Running::seat(WireBatch::with(p, IoModel::Evented, 1));
    let rep = warmed(&mut one.crew, b.slow_calls);
    row(out, "net.batch_txn_1c_us", "us", p50_us(&rep));
    drop(one.drain());
    loaded
}

// ---------------------------------------------------------------------
// cluster
// ---------------------------------------------------------------------

/// The routed transaction sent through a bare [`Client`]: one
/// `lock_batch` round trip, one `unlock_all` round trip — what the
/// router does on one node, minus the router.
struct BareRouted {
    client: Client,
    items: Vec<(ResourceId, LockMode)>,
    next_row: u64,
}

impl Worker for BareRouted {
    fn txn<T: Tracer>(&mut self, _tr: &mut T, tally: &mut Tally) {
        for (res, _) in &mut self.items {
            if let ResourceId::Row(table, _) = *res {
                *res = ResourceId::Row(table, RowId(self.next_row));
                self.next_row += 1;
            }
        }
        let outcomes = self.client.lock_batch(&self.items).expect("lock_batch");
        assert!(outcomes.iter().all(BatchOutcome::is_granted));
        self.client.unlock_all().expect("unlock_all");
        tally.txns += 1;
    }
}

fn cluster(p: &Params, b: &Budget, out: &mut Vec<Metric>) {
    let txns = b.slow_calls;

    // One node: the router's own cost over a bare client.
    let server = bind_server(oltp_service(), IoModel::Evented);
    let one_node = std::slice::from_ref(&server);
    let tables = workloads::routed_table_sets(p.seed, 1).remove(0);
    let routed = crew_p50_us(
        vec![RoutedWorker::new(one_node, tables.clone(), p.seed)],
        txns,
    );
    let mut bare_items = Vec::new();
    for &table in &tables[..2] {
        bare_items.push((ResourceId::Table(table), LockMode::IX));
        for _ in 0..workloads::ROUTED_ITEMS / 2 - 1 {
            bare_items.push((ResourceId::Row(table, RowId(0)), LockMode::X));
        }
    }
    let bare = crew_p50_us(
        vec![BareRouted {
            client: connect(&server),
            items: bare_items,
            next_row: 0,
        }],
        txns,
    );
    row(out, "cluster.route_1node_txn_us", "us", routed);
    row(out, "cluster.route_overhead_us", "us", routed - bare);
    server.shutdown();

    // Two nodes, every transaction forced onto both.
    let (_services, servers) = start_cluster();
    let mut worker = RoutedWorker::new(&servers, tables, p.seed);
    worker.force_fanout = true;
    let mut crew = Crew::start(vec![worker]);
    crew.run(Limit::Txns((txns / 10).max(1)));
    // Every transaction traced: the unlock_all fan-out is read from
    // its span. Three spans per transaction keeps 10^4 of them well
    // inside the recorder's capacity.
    let (rep, recorders) = crew.run_traced(Limit::Txns(txns), 1);
    let by_name = spans::by_name(&recorders);
    row(out, "cluster.fanout_2node_txn_us", "us", p50_us(&rep));
    row(
        out,
        "cluster.unlock_all_fanout_us",
        "us",
        stats::median_us(&by_name[SpanName::ClusterUnlockAll as usize].durations_ns),
    );
    drop(crew.finish());
    for s in servers {
        s.shutdown();
    }
}

// ---------------------------------------------------------------------
// attribution: the layers must add up
// ---------------------------------------------------------------------

fn value(rows: &[Metric], name: &str) -> f64 {
    rows.iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("row {name} is measured before it is used"))
        .summary
        .median
}

/// A half-length repetition to settle, then one that counts: untraced
/// when `period` is `None`.
fn short_rep<W: Workload>(
    running: &mut Running<W>,
    rep: Duration,
    period: Option<u64>,
) -> (Rep, Vec<spans::Recorder>) {
    running.crew.run(Limit::For(rep / 2));
    match period {
        None => (running.crew.run(Limit::For(rep)), Vec::new()),
        Some(period) => running.crew.run_traced(Limit::For(rep), period),
    }
}

/// `inproc_oltp` on one thread, per lock: the micro rows against the
/// same loop in situ. The residual is what the rows do not explain
/// (loop and clock overhead, the intent lock costing other than a row
/// lock, cache effects of the real interleaving).
fn attribute_inproc(p: &Params, b: &Budget, out: &mut Vec<Metric>) {
    let one = Params {
        threads: 1,
        ..p.clone()
    };
    let mut rig = Running::<InprocOltp>::build(&one);
    let (rep, _) = short_rep(&mut rig, b.rep, None);
    drop(rig.drain());

    // Two lock structures per first holder of a resource.
    let slots = f64::from(LockManagerConfig::default().first_holder_slots);
    let total = rep.ns_per_lock();
    let in_service = value(out, "service.lock_ns") + value(out, "service.unlock_all_ns_per_lock");
    let lockmgr = value(out, "lockmgr.grant_ns") + value(out, "lockmgr.unlock_all_ns_per_lock")
        - slots * value(out, "memalloc.owned_alloc_free_ns");
    let memalloc = slots * value(out, "memalloc.alloc_free_ns");
    row(out, "attrib.inproc_oltp.total_ns", "ns", total);
    row(out, "attrib.inproc_oltp.lockmgr_ns", "ns", lockmgr);
    row(out, "attrib.inproc_oltp.memalloc_ns", "ns", memalloc);
    row(
        out,
        "attrib.inproc_oltp.dispatch_ns",
        "ns",
        in_service - lockmgr - memalloc,
    );
    row(
        out,
        "attrib.inproc_oltp.residual_ns",
        "ns",
        total - in_service,
    );
}

/// `wire_batch` at `nproc` connections, per transaction.
fn attribute_wire(p: &Params, b: &Budget, ping_loaded_us: f64, out: &mut Vec<Metric>) {
    let mut rig = Running::<WireBatch>::build(p);
    let (rep, recorders) = short_rep(&mut rig, b.rep, Some(WireBatch::TRACE_PERIOD));
    drop(rig.drain());

    let by_name = spans::by_name(&recorders);
    let span_p50_us = |name: SpanName| stats::median_us(&by_name[name as usize].durations_ns);
    row(
        out,
        "net.client_send_us",
        "us",
        span_p50_us(SpanName::ClientSend) + span_p50_us(SpanName::ClientFlush),
    );
    row(
        out,
        "net.client_wait_us",
        "us",
        span_p50_us(SpanName::ClientWaitBatch) + span_p50_us(SpanName::ClientWaitCommit),
    );

    let n = TXN_LOCKS as f64;
    let total = p50_us(&rep);
    let service = n
        * (value(out, "service.lock_many_ns_per_item")
            + value(out, "service.unlock_all_ns_per_lock"))
        / 1e3;
    // One small request and one small reply: the commit in a
    // transaction, the whole exchange in a ping.
    let small_frames = value(out, "wire.encode_request_ns")
        + value(out, "wire.decode_request_ns")
        + value(out, "wire.encode_reply_ns")
        + value(out, "wire.decode_reply_ns");
    let codec = (n
        * (value(out, "wire.encode_batch_ns_per_item")
            + value(out, "wire.decode_batch_ns_per_item")
            + value(out, "wire.encode_outcomes_ns_per_item")
            + value(out, "wire.decode_outcomes_ns_per_item"))
        + small_frames
        + 2.0 * value(out, "wire.accum_ns_per_frame"))
        / 1e3;
    // An empty ping under the same number of busy connections is the
    // round trip with no lock work; its own codec share comes off.
    let io = ping_loaded_us - small_frames / 1e3;
    row(out, "attrib.wire_batch.total_us", "us", total);
    row(out, "attrib.wire_batch.service_us", "us", service);
    row(out, "attrib.wire_batch.codec_us", "us", codec);
    row(out, "attrib.wire_batch.io_us", "us", io);
    row(
        out,
        "attrib.wire_batch.residual_us",
        "us",
        total - service - codec - io,
    );
}

// ---------------------------------------------------------------------
// ROADMAP item 2 gate: the threaded I/O core
// ---------------------------------------------------------------------

/// The `wire_batch` load for one repetition against
/// [`IoModel::Threaded`]. These rows move no end-to-end metric; they
/// exist so the threaded core can be deleted with a number beside it,
/// and go when it does.
fn threaded_gate(p: &Params, b: &Budget, out: &mut Vec<Metric>) {
    let mut running = Running::seat(WireBatch::with(p, IoModel::Threaded, p.threads));
    let (rep, _) = short_rep(&mut running, b.rep, None);
    row(
        out,
        "net.threaded_locks_per_s",
        "locks/s",
        rep.locks_per_s(),
    );
    row(out, "net.threaded_txn_p50_us", "us", p50_us(&rep));
    drop(running.drain());
    let server = bind_server(oltp_service(), IoModel::Threaded);
    row(
        out,
        "net.threaded_ping_rtt_us",
        "us",
        ping_rtt_us(&server, 1, b.slow_calls),
    );
    server.shutdown();
}

/// The two attribution sums spelled out, residual and all, so a reader
/// sees at a glance that the layers add up to the end-to-end figure
/// (they do by construction: the residual is the difference).
pub fn attribution_notes(rows: &[Metric]) -> Vec<String> {
    let v = |name: &str| value(rows, name);
    vec![
        format!(
            "attrib.inproc_oltp: lockmgr {:.1} + memalloc {:.1} + dispatch {:.1} + residual {:.1} = {:.1} ns/lock (1-thread repetition of this pass)",
            v("attrib.inproc_oltp.lockmgr_ns"),
            v("attrib.inproc_oltp.memalloc_ns"),
            v("attrib.inproc_oltp.dispatch_ns"),
            v("attrib.inproc_oltp.residual_ns"),
            v("attrib.inproc_oltp.total_ns"),
        ),
        format!(
            "attrib.wire_batch: service {:.2} + codec {:.2} + io {:.2} + residual {:.2} = {:.2} us/txn (txn_p50_us of this pass's wire_batch repetition)",
            v("attrib.wire_batch.service_us"),
            v("attrib.wire_batch.codec_us"),
            v("attrib.wire_batch.io_us"),
            v("attrib.wire_batch.residual_us"),
            v("attrib.wire_batch.total_us"),
        ),
    ]
}

/// Every workload-independent layer row, plus any audit finding.
pub fn all(p: &Params, b: &Budget) -> (Vec<Metric>, Vec<String>) {
    let mut out = Vec::new();
    memalloc(b, &mut out);
    lockmgr(b, &mut out);
    core(b, &mut out);
    service(b, &mut out);
    let service_lock = value(&out, "service.lock_ns");
    let grant = value(&out, "lockmgr.grant_ns");
    row(&mut out, "service.dispatch_ns", "ns", service_lock - grant);
    let findings: Vec<String> = codec(b, &mut out).into_iter().collect();
    let ping_loaded_us = net_io(p, b, &mut out);
    cluster(p, b, &mut out);
    attribute_inproc(p, b, &mut out);
    attribute_wire(p, b, ping_loaded_us, &mut out);
    threaded_gate(p, b, &mut out);
    (out, findings)
}
