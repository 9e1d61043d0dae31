//! End-to-end tests: a real [`Server`] on a loopback socket, real
//! [`Client`] connections, real threads. The headline property is the
//! ISSUE's disconnect guarantee — a client force-killed mid-transaction
//! must not strand a single lock.
//!
//! Every test runs under BOTH I/O models (threaded and evented): the
//! bodies take an [`IoModel`] parameter and the `io_model_matrix!`
//! macro at the bottom expands one `#[test]` per model per body, so
//! the two server cores are held to identical observable semantics.

use std::sync::Arc;
use std::time::{Duration, Instant};

use locktune_lockmgr::{LockError, LockMode, LockOutcome, ResourceId, RowId, TableId};
use locktune_net::wire::{self, Request};
use locktune_net::{
    drain_and_validate, BatchOutcome, Client, ClientError, IoModel, ReconnectConfig,
    ReconnectingClient, Reply, Server, ServerConfig,
};
use locktune_obs::EventKind;
use locktune_service::{LockService, ServiceConfig, ServiceError};

/// Base server config for the model under test.
fn net_config(model: IoModel) -> ServerConfig {
    ServerConfig {
        io_model: model,
        ..ServerConfig::default()
    }
}

fn server(model: IoModel, timeout: Option<Duration>) -> (Server, String) {
    let config = ServiceConfig {
        lock_wait_timeout: timeout,
        ..ServiceConfig::fast(4)
    };
    let service = Arc::new(LockService::start(config).expect("service start"));
    let server =
        Server::bind_with_config(service, "127.0.0.1:0", net_config(model)).expect("bind loopback");
    let addr = server.local_addr().to_string();
    (server, addr)
}

/// Poll the server's gauges until every pool slot is free (disconnect
/// cleanup runs on the server's I/O threads, asynchronously to us).
fn wait_for_drain(control: &mut Client) {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let stats = control.metrics(u64::MAX, 0).expect("metrics");
        if stats.pool_slots_used == 0 {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "{} slots still held after disconnect",
            stats.pool_slots_used
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn basic_lock_unlock_over_the_wire(model: IoModel) {
    let (server, addr) = server(model, None);
    let mut client = Client::connect(&addr).unwrap();

    let table = ResourceId::Table(TableId(1));
    assert_eq!(
        client.lock(table, LockMode::IX).unwrap(),
        LockOutcome::Granted
    );
    assert_eq!(
        client
            .lock(ResourceId::Row(TableId(1), RowId(9)), LockMode::X)
            .unwrap(),
        LockOutcome::Granted
    );
    // Re-request: no new slot.
    assert_eq!(
        client.lock(table, LockMode::IX).unwrap(),
        LockOutcome::AlreadyHeld
    );
    // Row lock without an intent on a *different* table is refused.
    match client.lock(ResourceId::Row(TableId(2), RowId(0)), LockMode::X) {
        Err(ClientError::Service(ServiceError::Lock(_))) => {}
        other => panic!("expected MissingIntent over the wire, got {other:?}"),
    }

    let report = client.unlock_all().unwrap();
    assert_eq!(report.released_locks, 2);

    // The shards' slot caches may pin freed slots until the next
    // tuning interval flushes them, so poll rather than assert once.
    wait_for_drain(&mut client);
    assert_eq!(client.metrics(u64::MAX, 0).unwrap().connected_apps, 1);

    let audit = client.validate().expect("audit passes at quiescence");
    assert_eq!(audit.charged_slots, 0);
    server.shutdown();
}

fn killed_client_releases_its_locks(model: IoModel) {
    // A generous timeout: if the kill cleanup did NOT run, client B
    // would time out and the assertion below would catch it.
    let (server, addr) = server(model, Some(Duration::from_secs(3)));

    let table = TableId(7);
    let mut victim = Client::connect(&addr).unwrap();
    victim.lock(ResourceId::Table(table), LockMode::IX).unwrap();
    for r in 0..16 {
        victim
            .lock(ResourceId::Row(table, RowId(r)), LockMode::X)
            .unwrap();
    }

    // Socket hard-shutdown mid-transaction — no UnlockAll was sent.
    victim.kill();

    // A second client wants an exclusive table lock that conflicts
    // with *everything* the victim held. It must be granted once the
    // server notices the dead socket, well before the lock timeout.
    let mut survivor = Client::connect(&addr).unwrap();
    let start = Instant::now();
    let outcome = survivor
        .lock(ResourceId::Table(table), LockMode::X)
        .expect("victim's locks must be released by the server");
    assert!(matches!(
        outcome,
        LockOutcome::Granted | LockOutcome::Queued
    ));
    assert!(
        start.elapsed() < Duration::from_secs(3),
        "grant only came via timeout, not via disconnect cleanup"
    );
    survivor.unlock_all().unwrap();

    wait_for_drain(&mut survivor);
    survivor
        .validate()
        .expect("audit passes after kill cleanup");
    server.shutdown();
}

fn clean_disconnect_releases_locks_too(model: IoModel) {
    let (server, addr) = server(model, None);
    {
        let mut client = Client::connect(&addr).unwrap();
        client
            .lock(ResourceId::Table(TableId(3)), LockMode::S)
            .unwrap();
        // Dropped here: the socket closes (clean EOF), no UnlockAll.
    }
    let mut control = Client::connect(&addr).unwrap();
    wait_for_drain(&mut control);
    server.shutdown();
}

fn pipelined_batch_correlates_by_id_and_executes_in_order(model: IoModel) {
    let (server, addr) = server(model, None);
    let mut client = Client::connect(&addr).unwrap();

    // Intent + 32 rows in one flush. In-order server execution means
    // the intent is granted before the first row request runs.
    let table = TableId(5);
    let mut ids = vec![client
        .send(&Request::Lock {
            res: ResourceId::Table(table),
            mode: LockMode::IX,
        })
        .unwrap()];
    for r in 0..32 {
        ids.push(
            client
                .send(&Request::Lock {
                    res: ResourceId::Row(table, RowId(r)),
                    mode: LockMode::X,
                })
                .unwrap(),
        );
    }
    // Collect completions in REVERSE id order to exercise the stash.
    for id in ids.iter().rev() {
        match client.wait(*id).unwrap() {
            Reply::Lock(Ok(_)) => {}
            other => panic!("pipelined lock {id} failed: {other:?}"),
        }
    }
    assert_eq!(client.unlock_all().unwrap().released_locks, 33);
    server.shutdown();
}

/// The scaling bench's hot path: a `LockBatch` and an `UnlockAll`
/// pipelined in ONE socket write, so both frames sit in the server's
/// accumulator together before either executes. The batch must run
/// (and reply) before the release — a dispatcher that skips or defers
/// the first buffered frame would answer the release with zero locks.
fn pipelined_lock_batch_and_unlock_all_in_one_flush(model: IoModel) {
    use std::io::Write;
    let (server, addr) = server(model, None);

    let mut stream = std::net::TcpStream::connect(&addr).unwrap();
    let table = TableId(3);
    let mut items = vec![(ResourceId::Table(table), LockMode::IX)];
    for r in 0..8 {
        items.push((ResourceId::Row(table, RowId(r)), LockMode::X));
    }
    let mut burst = Vec::new();
    let mut frame = Vec::new();
    wire::encode_lock_batch_into(&mut frame, 1, &items);
    burst.extend_from_slice(&frame);
    wire::encode_request_into(&mut frame, 2, &Request::UnlockAll);
    burst.extend_from_slice(&frame);
    stream.write_all(&burst).unwrap();

    let (id, reply) = wire::read_reply(&mut stream).unwrap().expect("batch reply");
    assert_eq!(id, 1, "batch reply comes back first");
    match reply {
        Reply::BatchOutcomes(outcomes) => {
            assert_eq!(outcomes.len(), items.len());
            assert!(
                outcomes
                    .iter()
                    .all(|o| matches!(o, BatchOutcome::Done(Ok(LockOutcome::Granted)))),
                "every batch item granted: {outcomes:?}"
            );
        }
        other => panic!("expected BatchOutcomes first, got {other:?}"),
    }
    let (id, reply) = wire::read_reply(&mut stream)
        .unwrap()
        .expect("unlock reply");
    assert_eq!(id, 2, "release reply comes back second");
    match reply {
        Reply::UnlockAll(Ok(report)) => {
            assert_eq!(report.released_locks, items.len() as u64);
        }
        other => panic!("expected UnlockAll second, got {other:?}"),
    }

    drop(stream);
    let mut control = Client::connect(&addr).unwrap();
    wait_for_drain(&mut control);
    server.shutdown();
}

fn lock_batch_round_trip_with_request_scoped_error(model: IoModel) {
    let (server, addr) = server(model, None);
    let mut client = Client::connect(&addr).unwrap();

    // One frame carries intent + rows; the third item asks for a row
    // on a table with no intent — a request-scoped LockError, which
    // must NOT stop the batch (only session-fatal errors do).
    let t = TableId(1);
    let items = vec![
        (ResourceId::Table(t), LockMode::IX),
        (ResourceId::Row(t, RowId(0)), LockMode::X),
        (ResourceId::Row(TableId(2), RowId(0)), LockMode::X),
        (ResourceId::Row(t, RowId(1)), LockMode::X),
    ];
    let outcomes = client.lock_batch(&items).unwrap();
    assert_eq!(outcomes.len(), 4);
    assert_eq!(outcomes[0], BatchOutcome::Done(Ok(LockOutcome::Granted)));
    assert_eq!(outcomes[1], BatchOutcome::Done(Ok(LockOutcome::Granted)));
    assert!(
        matches!(
            outcomes[2],
            BatchOutcome::Done(Err(ServiceError::Lock(LockError::MissingIntent(_))))
        ),
        "expected MissingIntent mid-batch, got {:?}",
        outcomes[2]
    );
    assert_eq!(
        outcomes[3],
        BatchOutcome::Done(Ok(LockOutcome::Granted)),
        "item after a request-scoped error must still execute"
    );

    // Only the granted prefix counts toward the session's lock set.
    assert_eq!(client.unlock_all().unwrap().released_locks, 3);

    // Empty batches are legal and answered with an empty outcome list.
    assert!(client.lock_batch(&[]).unwrap().is_empty());

    wait_for_drain(&mut client);
    client.validate().expect("audit after batch");
    server.shutdown();
}

fn client_killed_mid_batch_releases_granted_prefix(model: IoModel) {
    let (server, addr) = server(model, Some(Duration::from_secs(3)));
    let table = TableId(4);

    // A holder pins row 5 so the victim's batch blocks mid-way with a
    // granted prefix (intent + rows 0..5) already on the books.
    let mut holder = Client::connect(&addr).unwrap();
    holder.lock(ResourceId::Table(table), LockMode::IX).unwrap();
    holder
        .lock(ResourceId::Row(table, RowId(5)), LockMode::X)
        .unwrap();

    let mut items = vec![(ResourceId::Table(table), LockMode::IX)];
    for r in 0..10 {
        items.push((ResourceId::Row(table, RowId(r)), LockMode::X));
    }
    let mut victim = Client::connect(&addr).unwrap();
    victim.send_lock_batch(&items).unwrap();
    victim.flush().unwrap();
    // Give the server time to execute into the blocking row, then
    // hard-kill the socket while the batch is parked on row 5.
    std::thread::sleep(Duration::from_millis(150));
    victim.kill();

    // Unblock the batch; the server then discovers the dead socket and
    // must release everything the victim was granted.
    holder.unlock_all().unwrap();

    let mut survivor = Client::connect(&addr).unwrap();
    let start = Instant::now();
    survivor
        .lock(ResourceId::Table(table), LockMode::X)
        .expect("granted batch prefix must be released after the kill");
    assert!(
        start.elapsed() < Duration::from_secs(3),
        "grant only came via timeout, not via disconnect cleanup"
    );
    survivor.unlock_all().unwrap();

    wait_for_drain(&mut survivor);
    survivor
        .validate()
        .expect("audit passes after mid-batch kill cleanup");
    server.shutdown();
}

fn stalled_reader_backpressures_itself_not_the_server(model: IoModel) {
    // A deliberately tiny reply budget: with an unbounded queue a
    // client that stops reading lets replies pile up in server memory.
    // Threaded: the writer blocks on the socket, the two-slot queue
    // fills, and that connection's reader stops consuming requests.
    // Evented: the write backlog crosses the high-water mark and the
    // shard parks EPOLLIN for that connection until the backlog drains.
    let config = ServiceConfig::fast(4);
    let service = Arc::new(LockService::start(config).expect("service start"));
    let server = Server::bind_with_config(
        service,
        "127.0.0.1:0",
        ServerConfig {
            reply_queue_capacity: 2,
            ..net_config(model)
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr().to_string();

    // The storm client pipelines a pile of sizeable pings and stalls
    // (no reads) before draining. Sized so the *request* direction
    // always fits client+kernel buffering — the test must not rely on
    // kernel buffer sizes for progress, only the reply direction backs
    // up.
    const PINGS: usize = 24;
    const ECHO: usize = 1024;
    let addr2 = addr.clone();
    let storm = std::thread::spawn(move || {
        let mut c = Client::connect(&addr2).unwrap();
        let mut ids = Vec::new();
        for i in 0..PINGS {
            let echo: Vec<u8> = (0..ECHO).map(|b| ((b + i) % 251) as u8).collect();
            ids.push((c.send(&Request::Ping(echo.clone())).unwrap(), echo));
        }
        c.flush().unwrap();
        // Stall: replies are in flight but nobody reads them.
        std::thread::sleep(Duration::from_millis(600));
        for (id, sent) in ids {
            match c.wait(id).unwrap() {
                Reply::Pong(back) => assert_eq!(back, sent, "echo corrupted under backpressure"),
                other => panic!("expected Pong, got {other:?}"),
            }
        }
    });

    // While the storm client is stalled, an unrelated connection must
    // stay fully responsive — backpressure is per-connection.
    let mut bystander = Client::connect(&addr).unwrap();
    let deadline = Instant::now() + Duration::from_millis(500);
    let mut probes = 0u32;
    while Instant::now() < deadline {
        let start = Instant::now();
        bystander.ping(vec![7; 64]).unwrap();
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "bystander ping stalled behind another connection's backlog"
        );
        probes += 1;
    }
    assert!(probes > 0);

    // The stalled client eventually drains every reply intact.
    storm.join().expect("storm client failed");
    server.shutdown();
}

fn connection_cap_refuses_with_busy_then_recovers(model: IoModel) {
    let service = Arc::new(LockService::start(ServiceConfig::fast(2)).expect("service start"));
    let server = Server::bind_with_config(
        service,
        "127.0.0.1:0",
        ServerConfig {
            max_connections: 1,
            ..net_config(model)
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr().to_string();

    let mut first = Client::connect(&addr).unwrap();
    first.ping(vec![1]).unwrap(); // fully admitted

    // At the cap the server answers with an explicit Busy frame and
    // closes — not a silent RST the client can't tell from a crash.
    let mut second = Client::connect(&addr).unwrap();
    match second.ping(vec![2]) {
        Err(ClientError::Busy) => {}
        other => panic!("expected Busy at the connection cap, got {other:?}"),
    }

    // Capacity frees once the first client leaves (its I/O thread
    // releases the slot asynchronously, so poll).
    drop(first);
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let mut retry = Client::connect(&addr).unwrap();
        match retry.ping(vec![3]) {
            Ok(_) => break,
            Err(ClientError::Busy) => {
                assert!(
                    Instant::now() < deadline,
                    "slot never freed after the first client left"
                );
                std::thread::sleep(Duration::from_millis(10));
            }
            other => panic!("expected Busy or success, got {other:?}"),
        }
    }
    server.shutdown();
}

fn reconnecting_client_backs_off_through_busy_refusals(model: IoModel) {
    let service = Arc::new(LockService::start(ServiceConfig::fast(2)).expect("service start"));
    let server = Server::bind_with_config(
        service,
        "127.0.0.1:0",
        ServerConfig {
            max_connections: 1,
            ..net_config(model)
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr().to_string();

    let mut hog = Client::connect(&addr).unwrap();
    hog.ping(vec![1]).unwrap();

    // Free the slot while the reconnecting client is mid-backoff.
    let release = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(150));
        drop(hog);
    });

    let mut rc = ReconnectingClient::connect(
        &addr,
        ReconnectConfig {
            max_attempts: 50,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(50),
            seed: 42,
            ..ReconnectConfig::default()
        },
    )
    .expect("reconnecting client admitted once the slot frees");
    release.join().unwrap();

    assert!(
        rc.stats().busy_refusals >= 1,
        "the first attempts should have been refused Busy: {:?}",
        rc.stats()
    );
    rc.lock(ResourceId::Table(TableId(1)), LockMode::X).unwrap();
    rc.unlock_all().unwrap();
    server.shutdown();
}

fn slow_client_is_evicted_and_its_locks_freed(model: IoModel) {
    let config = ServiceConfig {
        // Long enough that the survivor's grant can only come from the
        // eviction teardown, not from a lock timeout.
        lock_wait_timeout: Some(Duration::from_secs(20)),
        ..ServiceConfig::fast(2)
    };
    let service = Arc::new(LockService::start(config).expect("service start"));
    let server = Server::bind_with_config(
        Arc::clone(&service),
        "127.0.0.1:0",
        ServerConfig {
            reply_queue_capacity: 2,
            eviction_deadline: Duration::from_millis(300),
            write_hwm_bytes: 64 * 1024,
            ..net_config(model)
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr().to_string();

    let table = ResourceId::Table(TableId(9));
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let (locked_tx, locked_rx) = std::sync::mpsc::channel();

    // The zombie takes a lock, then floods pings without ever reading
    // a reply. Big echoes fill the reply-direction TCP buffers; in the
    // threaded model the writer blocks, the two-slot queue fills, and
    // the reader sits in its deadline send; in the evented model the
    // write backlog crosses the high-water mark and the pressure timer
    // arms. Crucially the socket stays open the whole time — only the
    // server's eviction may end this connection.
    let zombie = {
        let addr = addr.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut c = Client::connect(&addr).unwrap();
            c.lock(table, LockMode::X).unwrap();
            locked_tx.send(()).unwrap();
            let echo = vec![0xABu8; 60 * 1024];
            for _ in 0..512 {
                // The server may reset us mid-flood (that's the point);
                // keep the socket open regardless.
                if c.send(&Request::Ping(echo.clone())).is_err() {
                    break;
                }
            }
            let _ = c.flush();
            while !stop.load(std::sync::atomic::Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(20));
            }
        })
    };
    locked_rx
        .recv_timeout(Duration::from_secs(5))
        .expect("zombie must take its lock first");

    // The survivor's conflicting lock is granted only when the
    // server evicts the zombie and tears its session down.
    let mut survivor = Client::connect(&addr).unwrap();
    let start = Instant::now();
    survivor
        .lock(table, LockMode::X)
        .expect("zombie's lock must be freed by eviction");
    assert!(
        start.elapsed() < Duration::from_secs(15),
        "grant came from lock timeout, not eviction"
    );
    survivor.unlock_all().unwrap();
    assert!(
        service.obs_counters().clients_evicted >= 1,
        "eviction must be journaled"
    );

    stop.store(true, std::sync::atomic::Ordering::Release);
    zombie.join().unwrap();
    wait_for_drain(&mut survivor);
    survivor.validate().expect("audit after eviction");
    server.shutdown();
}

fn two_clients_contend_and_block_until_release(model: IoModel) {
    let (server, addr) = server(model, None);
    let res = ResourceId::Table(TableId(11));

    let mut holder = Client::connect(&addr).unwrap();
    holder.lock(res, LockMode::X).unwrap();

    let addr2 = addr.clone();
    let waiter = std::thread::spawn(move || {
        let mut c = Client::connect(&addr2).unwrap();
        let started = Instant::now();
        c.lock(res, LockMode::X).unwrap();
        let waited = started.elapsed();
        c.unlock_all().unwrap();
        waited
    });

    // Let the waiter actually enqueue behind us.
    std::thread::sleep(Duration::from_millis(150));
    holder.unlock_all().unwrap();

    let waited = waiter.join().unwrap();
    assert!(
        waited >= Duration::from_millis(100),
        "waiter should have blocked on the held lock, waited {waited:?}"
    );
    server.shutdown();
}

fn ping_and_stats_round_trip(model: IoModel) {
    let (server, addr) = server(model, None);
    let mut client = Client::connect(&addr).unwrap();
    let echo: Vec<u8> = (0u16..2048).map(|i| (i % 256) as u8).collect();
    assert_eq!(client.ping(echo.clone()).unwrap(), echo);

    let stats = client.metrics(u64::MAX, 0).unwrap();
    assert_eq!(stats.connected_apps, 1);
    assert!(stats.pool_bytes > 0);
    server.shutdown();
}

fn server_shutdown_disconnects_clients(model: IoModel) {
    let (server, addr) = server(model, None);
    let mut client = Client::connect(&addr).unwrap();
    client
        .lock(ResourceId::Table(TableId(2)), LockMode::S)
        .unwrap();
    server.shutdown();
    // The next call must fail — not hang.
    match client.metrics(u64::MAX, 0) {
        Err(ClientError::Io(_)) => {}
        other => panic!("expected I/O error after server shutdown, got {other:?}"),
    }
}

/// A connection admitted just before shutdown is kicked like any
/// other: shutdown never joins a reader left blocked in `recv`.
fn shutdown_right_after_connect_returns(model: IoModel) {
    let service = Arc::new(LockService::start(ServiceConfig::fast(4)).expect("service start"));
    for round in 0..200 {
        let server =
            Server::bind_with_config(Arc::clone(&service), "127.0.0.1:0", net_config(model))
                .expect("bind loopback");
        let _client = std::net::TcpStream::connect(server.local_addr()).unwrap();
        let (done, returned) = std::sync::mpsc::channel();
        let shutdown = std::thread::spawn(move || {
            server.shutdown();
            done.send(())
        });
        assert!(
            returned.recv_timeout(Duration::from_secs(5)).is_ok(),
            "round {round}: shutdown hung"
        );
        shutdown.join().expect("shutdown panicked").unwrap();
    }
}

/// The METRICS endpoint over a real socket: histogram/stat invariants
/// hold end-to-end, the tick cursor advances, and the frame carries the
/// batch counters and a live reply-queue high-water mark.
fn metrics_scrape_over_the_wire(model: IoModel) {
    let (server, addr) = server(model, None);
    let mut worker = Client::connect(&addr).unwrap();
    let mut scraper = Client::connect(&addr).unwrap();

    // Generate traffic: a batch, then a genuine cross-client wait.
    let rows: Vec<_> = (0..16)
        .map(|r| (ResourceId::Row(TableId(3), RowId(r)), LockMode::X))
        .collect();
    let mut batch = vec![(ResourceId::Table(TableId(3)), LockMode::IX)];
    batch.extend(rows);
    for o in worker.lock_batch(&batch).unwrap() {
        assert!(matches!(o, BatchOutcome::Done(Ok(_))));
    }

    let table = ResourceId::Table(TableId(7));
    worker.lock(table, LockMode::X).unwrap();
    let blocked = std::thread::spawn({
        let addr = addr.clone();
        move || {
            let mut c = Client::connect(&addr).unwrap();
            c.lock(table, LockMode::S).unwrap();
            c.unlock_all().unwrap();
        }
    });
    std::thread::sleep(Duration::from_millis(100));
    worker.unlock_all().unwrap();
    blocked.join().unwrap();

    let snap = scraper.metrics(0, 64).unwrap();
    assert!(snap.uptime_ms > 0);
    assert_eq!(
        snap.lock_wait_micros.count(),
        snap.lock_stats.waits,
        "every wait timed exactly once, over the wire too"
    );
    assert!(snap.lock_stats.waits >= 1);
    assert!(snap.lock_wait_micros.max >= 10_000, "the wait was ~100ms");
    assert_eq!(snap.counters.batches, 1);
    assert_eq!(snap.counters.batch_items, batch.len() as u64);
    assert!(snap.reply_queue_hwm >= 1, "replies were sent");
    assert!(snap.pool_bytes > 0);
    assert!(snap.free_fraction > 0.0);

    // The evented core reports per-shard I/O counters in the Metrics
    // frame; the threaded core reports none.
    match model {
        IoModel::Threaded => assert!(snap.io_shards.is_empty()),
        IoModel::Evented => {
            assert!(!snap.io_shards.is_empty(), "evented metrics carry shards");
            let owned: u64 = snap.io_shards.iter().map(|s| s.connections).sum();
            assert!(owned >= 2, "worker + scraper are owned by shards: {owned}");
            let frames: u64 = snap.io_shards.iter().map(|s| s.writev_frames).sum();
            assert!(frames >= 1, "replies went out via writev");
        }
    }

    // Cursor: feeding next_tick_seq back yields only new ticks, and
    // the fast tuner (50ms) keeps producing them.
    std::thread::sleep(Duration::from_millis(120));
    let again = scraper.metrics(snap.next_tick_seq, 0).unwrap();
    assert!(
        again.next_tick_seq > snap.next_tick_seq,
        "tuner kept ticking"
    );
    if let Some(first) = again.ticks.first() {
        assert!(first.seq >= snap.next_tick_seq, "no tick delivered twice");
    }
    server.shutdown();
}

/// The drain-then-validate audit polls with no journal budget, so an
/// event recorded before it is still there for the real scraper.
fn drain_and_validate_leaves_the_journal_to_the_scraper(model: IoModel) {
    let (server, addr) = server(model, None);
    let mut scraper = Client::connect(&addr).unwrap();
    // A probe that raises the fence journals an epoch bump.
    scraper.probe(1, false).unwrap();
    let mut control = ReconnectingClient::connect(&addr, ReconnectConfig::default()).unwrap();
    drain_and_validate(&mut control, Duration::from_secs(5)).expect("drained and clean");

    let snap = scraper.metrics(0, 64).unwrap();
    assert!(
        snap.events
            .iter()
            .any(|e| e.kind == EventKind::EpochBump { epoch: 1 }),
        "the drain took the scraper's event: {:?}",
        snap.events
    );
    server.shutdown();
}

/// A frame the server would have to refuse (a lock batch over
/// `MAX_BATCH`, a ping over `MAX_PAYLOAD`) is refused by the client
/// before a byte is written: the connection, and the lock its session
/// holds, survive an oversized `send`.
fn oversized_send_is_refused_before_the_wire(model: IoModel) {
    let (server, addr) = server(model, None);
    let mut client = Client::connect(&addr).unwrap();
    let table = ResourceId::Table(TableId(4));
    client.lock(table, LockMode::X).unwrap();

    let batch = vec![(table, LockMode::X); wire::MAX_BATCH + 1];
    let ping = vec![0u8; wire::MAX_PAYLOAD];
    for req in [Request::LockBatch(batch), Request::Ping(ping)] {
        match client.send(&req) {
            Err(ClientError::Protocol(_)) => {}
            other => panic!("oversized frame must be refused locally, got {other:?}"),
        }
    }

    // Same connection, same session: the lock is still held.
    assert_eq!(
        client.lock(table, LockMode::X).unwrap(),
        LockOutcome::AlreadyHeld
    );
    assert_eq!(client.metrics(u64::MAX, 0).unwrap().connected_apps, 1);
    server.shutdown();
}

/// Expand every body once per I/O model. One list, two `#[test]`
/// matrices — the models cannot drift apart without a test noticing.
macro_rules! io_model_matrix {
    ($($name:ident),* $(,)?) => {
        mod threaded {
            $(#[test]
            fn $name() {
                super::super::$name(locktune_net::IoModel::Threaded);
            })*
        }
        mod evented {
            $(#[test]
            fn $name() {
                super::super::$name(locktune_net::IoModel::Evented);
            })*
        }
    };
}

mod matrix {
    io_model_matrix!(
        basic_lock_unlock_over_the_wire,
        killed_client_releases_its_locks,
        clean_disconnect_releases_locks_too,
        pipelined_batch_correlates_by_id_and_executes_in_order,
        pipelined_lock_batch_and_unlock_all_in_one_flush,
        lock_batch_round_trip_with_request_scoped_error,
        client_killed_mid_batch_releases_granted_prefix,
        stalled_reader_backpressures_itself_not_the_server,
        connection_cap_refuses_with_busy_then_recovers,
        reconnecting_client_backs_off_through_busy_refusals,
        slow_client_is_evicted_and_its_locks_freed,
        two_clients_contend_and_block_until_release,
        ping_and_stats_round_trip,
        server_shutdown_disconnects_clients,
        shutdown_right_after_connect_returns,
        metrics_scrape_over_the_wire,
        drain_and_validate_leaves_the_journal_to_the_scraper,
        oversized_send_is_refused_before_the_wire,
    );
}
