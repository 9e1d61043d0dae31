//! The open-loop scaling bench (`locktune-client --connections N`):
//! one event-loop thread holds N nonblocking connections and fires
//! transaction bursts at a fixed global rate, each on a Zipf-ranked
//! connection, then drains and audits the server and writes a JSON
//! summary.

use std::io::{ErrorKind, Read, Write};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use locktune_lockmgr::{LockMode, ResourceId, RowId, TableId};
use locktune_metrics::percentile;
use locktune_net::poll::{PollEvent, Poller, EPOLLIN, EPOLLOUT};
use locktune_net::wire::{self, Request};
use locktune_net::{drain_and_validate, BatchOutcome, Reply};
use locktune_sim::dist::Zipf;
use locktune_sim::SimRng;

use crate::stress::Config;

/// One open-loop connection: a nonblocking socket plus the read
/// accumulator and pending-write buffer that make partial reads and
/// writes at arbitrary byte boundaries safe (the client-side mirror of
/// the server's evented buffer state machines).
struct OpenConn {
    stream: std::net::TcpStream,
    accum: wire::FrameAccum,
    out: Vec<u8>,
    out_off: usize,
    /// Replies outstanding for the current burst (2: batch + unlock).
    inflight: u8,
    burst_start: Instant,
    next_id: u64,
    /// True when EPOLLOUT is armed because the last flush hit
    /// `WouldBlock` with bytes still queued.
    want_out: bool,
    table: TableId,
    row_base: u64,
}

impl OpenConn {
    /// Write queued bytes until drained or the socket pushes back.
    fn flush(&mut self) -> std::io::Result<()> {
        while self.out_off < self.out.len() {
            match (&self.stream).write(&self.out[self.out_off..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => self.out_off += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        self.out.clear();
        self.out_off = 0;
        Ok(())
    }
}

/// Aggregate results of the open-loop run.
#[derive(Default)]
struct BenchTally {
    bursts: u64,
    skipped_busy: u64,
    lock_failures: u64,
    latencies_us: Vec<u64>,
}

/// Run the bench, print its report and write the JSON summary to
/// `config.bench_out`. `Err` when a connection fails, a burst goes
/// unanswered, the audit fails or no burst completed.
///
/// Bursts fire on a global pacer (`rate`), land on a Zipf-ranked
/// connection, and travel as one pipelined `LockBatch` + `UnlockAll`
/// flush. Lock footprints are connection-private (distinct row ranges,
/// tables reused only across intent-compatible IX holders), so the
/// bench measures the network core, not lock contention.
pub fn run(config: &Config) -> Result<(), String> {
    let n = config.connections;
    let rows = config.oltp_rows.max(1);
    println!(
        "locktune-client: open loop — {n} connections, {} bursts/s target, zipf theta {}, {} ms",
        config.rate, config.zipf_theta, config.duration_ms,
    );

    let poller = Poller::new().map_err(|e| format!("epoll create: {e}"))?;
    let mut conns = Vec::with_capacity(n);
    for i in 0..n {
        let stream = std::net::TcpStream::connect(&config.addr).map_err(|e| {
            format!(
                "connect {} ({i} of {n} open): {e} (raise ulimit -n / server --max-conns?)",
                config.addr
            )
        })?;
        stream.set_nodelay(true).ok();
        stream.set_nonblocking(true).expect("set_nonblocking");
        poller
            .add(stream.as_raw_fd(), EPOLLIN, i as u64)
            .expect("epoll add connection");
        conns.push(OpenConn {
            stream,
            accum: wire::FrameAccum::new(),
            out: Vec::new(),
            out_off: 0,
            inflight: 0,
            burst_start: Instant::now(),
            next_id: 1,
            want_out: false,
            // 997 tables keep intent holders spread out; the row range
            // is globally private to this connection.
            table: TableId((i % 997) as u32),
            row_base: i as u64 * 4096,
        });
    }
    println!("locktune-client: {n} connections established");

    let zipf = Zipf::new(n, config.zipf_theta);
    let mut rng = SimRng::seed_from_u64(config.seed);
    let mut tally = BenchTally::default();
    let mut items: Vec<(ResourceId, LockMode)> = Vec::with_capacity(rows as usize + 1);
    // The encode helpers clear their output buffer, so each frame is
    // built here and appended — two frames must coexist in `c.out` for
    // the pipelined flush.
    let mut scratch: Vec<u8> = Vec::with_capacity(512);
    let mut events: Vec<PollEvent> = Vec::new();

    let interval = Duration::from_nanos(1_000_000_000 / config.rate);
    let start = Instant::now();
    let end = start + Duration::from_millis(config.duration_ms);
    let mut next_fire = start;
    // After `end`, keep polling until every in-flight burst resolves
    // (bounded by a grace period) so the tally only counts completed
    // round trips.
    let grace = end + Duration::from_secs(10);

    loop {
        let now = Instant::now();

        // Fire due bursts (open loop: the pacer does not wait for
        // completions; a fully-busy target set counts a skip instead).
        while now >= next_fire && now < end {
            let rank = zipf.sample_rank(&mut rng);
            // The sampled session may still be mid-burst; probe forward
            // so the arrival lands on the next idle session of nearby
            // rank rather than silently vanishing.
            let pick = (0..n.min(64))
                .map(|off| (rank + off) % n)
                .find(|&i| conns[i].inflight == 0 && !conns[i].want_out);
            match pick {
                Some(i) => {
                    let c = &mut conns[i];
                    items.clear();
                    items.push((ResourceId::Table(c.table), LockMode::IX));
                    for r in 0..rows {
                        items.push((ResourceId::Row(c.table, RowId(c.row_base + r)), LockMode::X));
                    }
                    let id = c.next_id;
                    c.next_id += 2;
                    wire::encode_lock_batch_into(&mut scratch, id, &items);
                    c.out.extend_from_slice(&scratch);
                    wire::encode_request_into(&mut scratch, id + 1, &Request::UnlockAll);
                    c.out.extend_from_slice(&scratch);
                    c.inflight = 2;
                    c.burst_start = Instant::now();
                    c.flush().map_err(|e| format!("conn {i} write: {e}"))?;
                    if !c.out.is_empty() && !c.want_out {
                        c.want_out = true;
                        poller
                            .modify(c.stream.as_raw_fd(), EPOLLIN | EPOLLOUT, i as u64)
                            .expect("epoll modify");
                    }
                }
                None => tally.skipped_busy += 1,
            }
            next_fire += interval;
        }

        let inflight_total: usize = conns.iter().filter(|c| c.inflight > 0).count();
        if now >= end && inflight_total == 0 {
            break;
        }
        if now >= grace {
            return Err(format!(
                "{inflight_total} bursts still unresolved after grace"
            ));
        }

        let timeout = if now < end {
            next_fire.saturating_duration_since(now)
        } else {
            Duration::from_millis(50)
        };
        poller
            .wait(&mut events, Some(timeout.min(Duration::from_millis(100))))
            .expect("epoll wait");

        for ev in &events {
            let i = ev.token as usize;
            let c = &mut conns[i];
            if ev.closed() {
                return Err(format!("conn {i} closed by server mid-run"));
            }
            if ev.writable() && c.want_out {
                c.flush().map_err(|e| format!("conn {i} write: {e}"))?;
                if c.out.is_empty() {
                    c.want_out = false;
                    poller
                        .modify(c.stream.as_raw_fd(), EPOLLIN, i as u64)
                        .expect("epoll modify");
                }
            }
            if !ev.readable() {
                continue;
            }
            // Drain the socket into the accumulator, then consume
            // every complete reply frame it now holds.
            let mut buf = [0u8; 16 * 1024];
            loop {
                match (&c.stream).read(&mut buf) {
                    Ok(0) => return Err(format!("conn {i} EOF mid-run")),
                    Ok(got) => {
                        c.accum.extend(&buf[..got]);
                        if got < buf.len() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(e) => return Err(format!("conn {i} read: {e}")),
                }
            }
            while let Some(payload) = c
                .accum
                .next_payload()
                .map_err(|e| format!("conn {i} corrupt stream: {e}"))?
            {
                let (_, reply) = wire::decode_reply(payload)
                    .map_err(|e| format!("conn {i} bad reply frame: {e}"))?;
                match reply {
                    Reply::BatchOutcomes(outcomes) => {
                        if outcomes
                            .iter()
                            .any(|o| !matches!(o, BatchOutcome::Done(Ok(_))))
                        {
                            tally.lock_failures += 1;
                        }
                        c.inflight = c.inflight.saturating_sub(1);
                    }
                    Reply::UnlockAll(_) => {
                        c.inflight = c.inflight.saturating_sub(1);
                        if c.inflight == 0 {
                            tally.bursts += 1;
                            tally
                                .latencies_us
                                .push(c.burst_start.elapsed().as_micros() as u64);
                        }
                    }
                    Reply::Busy => {
                        return Err(format!(
                            "server refused conn {i} (Busy) — raise server --max-conns above {n}"
                        ))
                    }
                    other => return Err(format!("conn {i} unexpected reply: {other:?}")),
                }
            }
        }
    }
    let wall = start.elapsed().as_secs_f64();

    // Teardown: close every bench socket, then audit the server from a
    // fresh control connection — the drain poll is the leak check (the
    // server must reap all N sessions).
    drop(conns);
    let mut control = crate::stress::connect_control(&config.addr)?;
    let audit = drain_and_validate(&mut control, Duration::from_secs(5));
    match &audit {
        Ok(report) => println!(
            "validate:          zero divergence machine-wide ({} slots charged)",
            report.charged_slots
        ),
        Err(e) => eprintln!("validate:          FAILED: {e}"),
    }
    let snap = control
        .metrics(0, 0)
        .map_err(|e| format!("metrics scrape: {e}"))?;
    let io_model = if snap.io_shards.is_empty() {
        "threaded"
    } else {
        "evented"
    };

    tally.latencies_us.sort_unstable();
    let p = |q| percentile(&tally.latencies_us, q).unwrap_or(0);
    let (p50, p90, p99) = (p(0.50), p(0.90), p(0.99));
    let max_us = tally.latencies_us.last().copied().unwrap_or(0);
    let throughput = if wall > 0.0 {
        tally.bursts as f64 / wall
    } else {
        0.0
    };

    println!("--- net_scaling report ---");
    println!("io model:          {io_model}");
    println!("connections:       {n}");
    println!(
        "bursts:            {} completed, {} skipped (all probed conns busy), {} with lock failures",
        tally.bursts, tally.skipped_busy, tally.lock_failures,
    );
    println!(
        "throughput:        {throughput:.0} bursts/s ({:.0} locks/s)",
        throughput * (rows + 1) as f64,
    );
    println!("burst latency:     p50 {p50} us, p90 {p90} us, p99 {p99} us, max {max_us} us");
    // Each shard's counters, printed and in the machine-readable
    // summary for EXPERIMENTS.md and CI.
    let mut shards_json = Vec::new();
    for s in &snap.io_shards {
        let (shard, conns, wakeups) = (s.shard, s.connections, s.wakeups);
        let (calls, frames, hwm) = (s.writev_calls, s.writev_frames, s.write_buf_hwm);
        println!(
            "io shard {shard:>2}:       {conns} conns, {wakeups} wakeups, \
             {calls} writev ({frames} frames), write hwm {hwm} B"
        );
        shards_json.push(format!(
            "{{\"shard\":{shard},\"connections\":{conns},\"wakeups\":{wakeups},\
             \"writev_calls\":{calls},\"writev_frames\":{frames},\"write_buf_hwm\":{hwm}}}"
        ));
    }
    let json = format!(
        "{{\"bench\":\"net_scaling\",\"io_model\":\"{io_model}\",\"connections\":{n},\
         \"rate_target\":{},\"duration_ms\":{},\"locks_per_burst\":{},\
         \"bursts_completed\":{},\"bursts_skipped_busy\":{},\"lock_failures\":{},\
         \"throughput_bursts_per_s\":{throughput:.1},\
         \"latency_us\":{{\"p50\":{p50},\"p90\":{p90},\"p99\":{p99},\"max\":{max_us}}},\
         \"io_shards\":[{}]}}",
        config.rate,
        config.duration_ms,
        rows + 1,
        tally.bursts,
        tally.skipped_busy,
        tally.lock_failures,
        shards_json.join(","),
    );
    std::fs::write(&config.bench_out, format!("{json}\n"))
        .map_err(|e| format!("write {}: {e}", config.bench_out))?;
    println!("bench summary:     {}", config.bench_out);

    audit.map_err(|e| format!("audit: {e}"))?;
    if tally.bursts == 0 {
        return Err("no burst completed — bench is vacuous".into());
    }
    Ok(())
}
