//! Remote load generator: drive the mixed OLTP/DSS stress workload
//! against a `locktune-server` over real sockets.
//!
//! ```text
//! locktune-client [--addr HOST:PORT] [--workers N] [--txns N]
//!                 [--tables N] [--rows N] [--oltp-rows N] [--dss-rows N]
//!                 [--dss-percent P] [--seed S] [--min-intervals N]
//!                 [--skip-kill] [--batch] [--scrape] [--chaos]
//!                 [--tenant ID] [--tenants N --tenant-mode MODE]
//!                 [--connections N [--duration-ms MS] [--rate R]
//!                  [--zipf-theta T] [--bench-out PATH]]
//! ```
//!
//! `--connections N` switches to the **open-loop scaling bench**: one
//! event-loop thread (built on the same epoll wrapper the server's
//! evented core uses) holds N nonblocking connections and fires
//! transaction bursts at a fixed global `--rate` (bursts/second),
//! assigning each burst to a connection by a Zipf(`--zipf-theta`) draw
//! over connection rank — a few hot sessions and a long idle-ish tail,
//! the 10k-connection shape the evented server core exists for. Each
//! burst is one pipelined `LockBatch` (intent + `--oltp-rows` rows on
//! a connection-private range) plus `UnlockAll` in a single flush;
//! burst latency is send-to-last-reply. The run ends with the usual
//! drain poll and accounting audit, then writes a machine-readable
//! summary (throughput, latency percentiles, per-shard I/O counters
//! scraped from the server) to `--bench-out` (default
//! `BENCH_net_scaling.json`). Offered load is independent of N, so
//! threaded-at-64 and evented-at-4096 runs are directly comparable.
//!
//! Each worker thread owns one TCP connection and runs the shared
//! transaction loop ([`locktune_service::txn`]) over lock sets
//! rolled from one [`Mix`]: OLTP (IX on a table, a handful of X row
//! locks, commit) and DSS scans (IS on a table, a large pipelined
//! batch of S row locks, commit). With `--batch` each transaction's
//! lock set travels as a single `LockBatch` frame answered by a single
//! `BatchOutcomes` frame instead of N pipelined LOCK frames. After the
//! timed phase one extra connection takes locks and is **killed**
//! (socket hard-shutdown, no unlock) to prove the server releases a
//! dead client's locks; the run then drains and audits
//! ([`drain_and_validate`]).
//!
//! Exits nonzero if the audit fails, locks outlive the clients, or
//! fewer than `--min-intervals` tuning intervals ran server-side; the
//! final scrape waits up to 10 s for the tuner to get there. A key
//! space with no tables or rows is a usage error.
//!
//! `--scrape` additionally audits the METRICS endpoint against this
//! client's own observations: the wait histogram must have timed every
//! wait, the server's escalation/victim/timeout counters must cover
//! (at least) what the client saw on the wire, under `--batch` the
//! batch counters must cover every transaction, and a second scrape
//! must show the tuner still ticking.
//!
//! `--tenant ID` binds every connection to one tenant of a
//! `locktune-server --tenants N` and runs the standard stress against
//! it (the report and drain polls read the machine-wide rollup). `--tenants
//! N` instead drives a whole multi-tenant stress from one process;
//! `--tenant-mode` picks the shape:
//!
//! * `noisy` (default) — tenant 0 surges pure DSS scans while tenants
//!   `1..N` run pure OLTP: the noisy-neighbor experiment. The report
//!   prints each tenant's budget share, p99 lock wait and escalations,
//!   plus the donation flow the arbiter produced.
//! * `churn` — tenants are created, loaded and dropped mid-run while a
//!   background tenant keeps working; after every drop the machine
//!   rollup must account for every byte (`free + Σ budgets ==
//!   machine`), i.e. churn reclaims 100% of a dropped tenant's budget.
//!
//! All tenant modes end with the machine-wide drain poll and
//! accounting audit.
//!
//! `--chaos` drives the same workload through self-healing
//! [`ReconnectingClient`] sessions against a server running with
//! `--fault-seed`: injected disconnects, torn frames and stalls
//! surface as [`ClientError::Reconnected`] (the transaction is lost
//! and the next one starts clean — never silently retried), shed-mode
//! rejections as retryable `Overloaded` aborts, and admission
//! refusals as backed-off `Busy` retries. All are counted and
//! reported; the run still ends with the same drain poll and
//! accounting audit — chaos must not leak a single lock slot. The
//! lock phase always travels as one `LockBatch` frame in this mode,
//! and the kill phase is skipped — injected disconnects already
//! exercise dead-client teardown continuously.

use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use locktune_lockmgr::{LockMode, ResourceId, RowId, TableId};
use locktune_metrics::percentile;
use locktune_net::wire::{self, Request};
use locktune_net::{
    drain_and_validate, BatchOutcome, Batched, Client, ClientError, MetricsSnapshot, Pipelined,
    ReconnectConfig, ReconnectStats, ReconnectingClient, Reply, ValidateReport,
};
use locktune_service::txn::{self, Tally, TxnOutcome};
use locktune_sim::dist::Zipf;
use locktune_sim::SimRng;
use locktune_workload::{Mix, MixError};

/// How long the pool may take to drain once every client is gone.
const DRAIN: Duration = Duration::from_secs(5);

/// How long the final scrape waits for `--min-intervals` to be reached.
const INTERVALS_DEADLINE: Duration = Duration::from_secs(10);

#[derive(Debug, Clone)]
struct Args {
    addr: String,
    workers: usize,
    txns: u64,
    tables: u32,
    rows_per_table: u64,
    oltp_rows: u64,
    dss_rows: u64,
    dss_percent: u32,
    seed: u64,
    min_intervals: u64,
    skip_kill: bool,
    batch: bool,
    scrape: bool,
    chaos: bool,
    tenant: Option<u32>,
    tenants: u32,
    tenant_mode: String,
    connections: usize,
    duration_ms: u64,
    rate: u64,
    zipf_theta: f64,
    bench_out: String,
}

impl Args {
    /// The workload's lock sets, `dss_percent` % of them scans.
    fn mix(&self, dss_percent: u32) -> Result<Mix, MixError> {
        Mix::new(self.tables, self.rows_per_table, self.oltp_rows)?
            .with_dss(self.dss_rows, dss_percent)
    }
}

fn parse_args() -> Result<Args, String> {
    parse_args_from(std::env::args().skip(1))
}

fn parse_args_from(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7474".into(),
        workers: 4,
        txns: 150,
        tables: 16,
        rows_per_table: 2_000,
        oltp_rows: 8,
        dss_rows: 600,
        dss_percent: 25,
        seed: 42,
        min_intervals: 0,
        skip_kill: false,
        batch: false,
        scrape: false,
        chaos: false,
        tenant: None,
        tenants: 0,
        tenant_mode: "noisy".into(),
        connections: 0,
        duration_ms: 10_000,
        rate: 1_000,
        zipf_theta: 1.0,
        bench_out: "BENCH_net_scaling.json".into(),
    };
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--workers" => args.workers = parse(&value("--workers")?, "--workers")?,
            "--txns" => args.txns = parse(&value("--txns")?, "--txns")?,
            "--tables" => args.tables = parse(&value("--tables")?, "--tables")?,
            "--rows" => args.rows_per_table = parse(&value("--rows")?, "--rows")?,
            "--oltp-rows" => args.oltp_rows = parse(&value("--oltp-rows")?, "--oltp-rows")?,
            "--dss-rows" => args.dss_rows = parse(&value("--dss-rows")?, "--dss-rows")?,
            "--dss-percent" => args.dss_percent = parse(&value("--dss-percent")?, "--dss-percent")?,
            "--seed" => args.seed = parse(&value("--seed")?, "--seed")?,
            "--min-intervals" => {
                args.min_intervals = parse(&value("--min-intervals")?, "--min-intervals")?
            }
            "--skip-kill" => args.skip_kill = true,
            "--batch" => args.batch = true,
            "--scrape" => args.scrape = true,
            "--chaos" => args.chaos = true,
            "--tenant" => args.tenant = Some(parse(&value("--tenant")?, "--tenant")?),
            "--tenants" => args.tenants = parse(&value("--tenants")?, "--tenants")?,
            "--tenant-mode" => args.tenant_mode = value("--tenant-mode")?,
            "--connections" => args.connections = parse(&value("--connections")?, "--connections")?,
            "--duration-ms" => args.duration_ms = parse(&value("--duration-ms")?, "--duration-ms")?,
            "--rate" => args.rate = parse(&value("--rate")?, "--rate")?,
            "--zipf-theta" => args.zipf_theta = parse(&value("--zipf-theta")?, "--zipf-theta")?,
            "--bench-out" => args.bench_out = value("--bench-out")?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    args.mix(args.dss_percent).map_err(|e| e.to_string())?;
    if (args.tenant.is_some() || args.tenants > 0) && args.chaos {
        return Err(
            "--tenant/--tenants cannot combine with --chaos (reconnects lose the tenant \
                    binding; use the server-side chaos soak instead)"
                .into(),
        );
    }
    if args.tenant.is_some() && args.scrape {
        return Err(
            "--tenant cannot combine with --scrape (the unbound control connection \
                    scrapes a machine rollup with empty histograms)"
                .into(),
        );
    }
    if args.tenants > 0 && !matches!(args.tenant_mode.as_str(), "noisy" | "churn") {
        return Err(format!(
            "unknown --tenant-mode {:?} (expected noisy or churn)",
            args.tenant_mode
        ));
    }
    if args.tenants == 1 && args.tenant_mode == "noisy" {
        return Err("--tenant-mode noisy needs --tenants >= 2 (a neighbor to be noisy at)".into());
    }
    if args.connections > 0 {
        if args.chaos || args.tenant.is_some() || args.tenants > 0 {
            return Err("--connections cannot combine with --chaos/--tenant/--tenants".into());
        }
        if args.rate == 0 {
            return Err("--rate must be >= 1 bursts/second".into());
        }
        if !(args.zipf_theta.is_finite() && args.zipf_theta >= 0.0) {
            return Err(format!(
                "--zipf-theta must be a finite number >= 0, got {}",
                args.zipf_theta
            ));
        }
    }
    Ok(args)
}

fn parse<T: std::str::FromStr>(s: &str, name: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad value {s:?} for {name}"))
}

/// What a worker hands back: its transactions and its reconnects.
type WorkerResult = Result<(Tally, ReconnectStats), String>;

/// One worker: its own connection (bound to `tenant`, if any) running
/// `args.txns` transactions of `mix` through the shared loop —
/// reconnecting under `--chaos`, batched under `--batch`, pipelined
/// otherwise.
fn worker(args: &Args, mix: &Mix, tenant: Option<u32>, w: usize, seed: u64) -> WorkerResult {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut tally = Tally::default();
    if args.chaos {
        let policy = ReconnectConfig {
            max_attempts: 50,
            base_delay: Duration::from_millis(5),
            max_delay: Duration::from_millis(200),
            seed: args.seed ^ (w as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ..ReconnectConfig::default()
        };
        let mut rc = ReconnectingClient::connect(&args.addr, policy)
            .map_err(|e| format!("connect {}: {e}", args.addr))?;
        txn::run(&mut rc, mix, &mut rng, args.txns, &mut tally).map_err(|e| e.to_string())?;
        return Ok((tally, rc.stats()));
    }
    let mut client =
        Client::connect(&args.addr).map_err(|e| format!("connect {}: {e}", args.addr))?;
    if let Some(t) = tenant {
        client.hello(t).map_err(|e| format!("hello: {e}"))?;
    }
    let ran = if args.batch {
        txn::run(
            &mut Batched(&mut client),
            mix,
            &mut rng,
            args.txns,
            &mut tally,
        )
    } else {
        let mut pipelined = Pipelined::new(&mut client);
        txn::run(&mut pipelined, mix, &mut rng, args.txns, &mut tally)
    };
    ran.map_err(|e| e.to_string())?;
    Ok((tally, ReconnectStats::default()))
}

/// Spawn `count` workers of `mix` bound to `tenant`; worker `w` seeds
/// its rolls with `seed(w)`.
fn spawn_workers(
    args: &Args,
    mix: Mix,
    tenant: Option<u32>,
    count: usize,
    seed: impl Fn(usize) -> u64,
) -> Vec<JoinHandle<WorkerResult>> {
    (0..count)
        .map(|w| {
            let args = args.clone();
            let seed = seed(w);
            std::thread::spawn(move || {
                worker(&args, &mix, tenant, w, seed).map_err(|e| match tenant {
                    Some(t) => format!("tenant {t} worker {w}: {e}"),
                    None => format!("worker {w}: {e}"),
                })
            })
        })
        .collect()
}

/// Join `workers` and sum what they report; any failed worker fails
/// the run.
fn join_workers(workers: Vec<JoinHandle<WorkerResult>>) -> (Tally, ReconnectStats) {
    let mut tally = Tally::default();
    let mut reconnects = ReconnectStats::default();
    let mut failed = false;
    for w in workers {
        match w.join().expect("worker panicked") {
            Ok((t, s)) => {
                tally.merge(&t);
                reconnects.reconnects += s.reconnects;
                reconnects.busy_refusals += s.busy_refusals;
                reconnects.failed_attempts += s.failed_attempts;
            }
            Err(e) => {
                eprintln!("locktune-client: {e}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
    (tally, reconnects)
}

/// A control connection for the post-run reads; a reconnecting one,
/// so an injected fault on it cannot fail the audit.
fn connect_control(addr: &str) -> ReconnectingClient {
    ReconnectingClient::connect(addr, ReconnectConfig::default()).unwrap_or_else(|e| {
        eprintln!("locktune-client: control connect {addr}: {e}");
        std::process::exit(1);
    })
}

/// Report the shared drain-then-validate audit machine-wide.
fn report_machine_audit(audit: Result<ValidateReport, ClientError>, exit: &mut i32) {
    match audit {
        Ok(report) => println!(
            "validate:          zero divergence machine-wide ({} slots charged)",
            report.charged_slots
        ),
        Err(e) => {
            eprintln!("validate:          FAILED: {e}");
            *exit = 1;
        }
    }
}

/// Retry an idempotent *read* across [`ClientError::Reconnected`]
/// signals (safe precisely because validate/metrics take no
/// locks — the non-idempotency argument does not apply to them).
fn read_retry<T>(
    rc: &mut ReconnectingClient,
    mut op: impl FnMut(&mut ReconnectingClient) -> Result<T, ClientError>,
) -> Result<T, ClientError> {
    loop {
        match op(rc) {
            Err(ClientError::Reconnected) => continue,
            other => return other,
        }
    }
}

/// Scrape `Metrics` (no reports, no events) until the server has run
/// `min` tuning intervals or [`INTERVALS_DEADLINE`] has passed, and
/// return the last scrape. A short run can end inside one interval, and
/// injected tuner panics cost intervals, so the bar is checked against
/// a tuner given time to tick rather than against the run's length.
fn await_intervals(control: &mut ReconnectingClient, min: u64) -> MetricsSnapshot {
    let deadline = Instant::now() + INTERVALS_DEADLINE;
    loop {
        let snap = read_retry(control, |c| c.metrics(u64::MAX, 0)).unwrap_or_else(|e| {
            eprintln!("locktune-client: metrics: {e}");
            std::process::exit(1);
        });
        if snap.tuning_intervals >= min || Instant::now() >= deadline {
            return snap;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Print the budget partition and check the ledger invariant the whole
/// subsystem stands on: every machine byte is either some tenant's
/// budget or free — churn, donations and sheds never leak any.
fn audit_rollup(control: &mut Client, exit: &mut i32) -> locktune_net::TenantStatsReply {
    let reply = control.tenant_stats(0).unwrap_or_else(|e| {
        eprintln!("locktune-client: tenant stats: {e}");
        std::process::exit(1);
    });
    let r = &reply.rollup;
    println!("--- machine budget partition ---");
    println!(
        "machine {} MiB, free {} MiB, {} arbitrations, {} donations ({} MiB moved)",
        r.machine_budget / MIB,
        r.free_budget / MIB,
        r.arbitrations,
        r.donations,
        r.donated_bytes / MIB,
    );
    for t in &r.tenants {
        println!(
            "tenant {:>3}: budget {:>4} MiB ({:>4.1}% share)  pool {:>8} B  benefit {:>8.2}  \
             esc {:>4}  denials {:>4}{}",
            t.id,
            t.budget / MIB,
            100.0 * t.budget as f64 / r.machine_budget as f64,
            t.pool_bytes,
            t.benefit,
            t.escalations,
            t.denials,
            if t.shedding { "  SHEDDING" } else { "" },
        );
    }
    let sum: u64 = r.tenants.iter().map(|t| t.budget).sum();
    if sum + r.free_budget == r.machine_budget {
        println!(
            "accounting:        exact (sum of budgets {} MiB + free {} MiB == machine {} MiB)",
            sum / MIB,
            r.free_budget / MIB,
            r.machine_budget / MIB,
        );
    } else {
        eprintln!(
            "accounting:        FAILED: budgets {} + free {} != machine {}",
            sum, r.free_budget, r.machine_budget,
        );
        *exit = 1;
    }
    reply
}

/// Scrape one tenant's own metrics (histograms are per-tenant: they
/// only travel on a *bound* connection).
fn tenant_p99_and_escalations(addr: &str, tenant: u32) -> (u64, u64) {
    let mut c = Client::connect(addr).unwrap_or_else(|e| {
        eprintln!("locktune-client: tenant {tenant} scrape connect: {e}");
        std::process::exit(1);
    });
    c.hello(tenant).unwrap_or_else(|e| {
        eprintln!("locktune-client: tenant {tenant} scrape hello: {e}");
        std::process::exit(1);
    });
    let snap = c.metrics(0, 0).unwrap_or_else(|e| {
        eprintln!("locktune-client: tenant {tenant} metrics: {e}");
        std::process::exit(1);
    });
    (
        snap.lock_wait_micros.quantile(0.99),
        snap.lock_stats.escalations,
    )
}

const MIB: u64 = 1024 * 1024;

/// `committed, oom, timeouts` for a tenant cohort's report line.
fn cohort(tally: &Tally) -> String {
    format!(
        "{} committed, {} oom, {} timeouts",
        tally.get(TxnOutcome::Committed),
        tally.get(TxnOutcome::OutOfLockMemory),
        tally.get(TxnOutcome::Timeout),
    )
}

/// The multi-tenant stress driver (`--tenants N`). Never returns.
fn run_tenant_stress(args: &Args) -> ! {
    let mut control = Client::connect(&args.addr).unwrap_or_else(|e| {
        eprintln!("locktune-client: control connect {}: {e}", args.addr);
        std::process::exit(1);
    });
    let n = args.tenants;
    let mut exit = 0;
    // Worker `w` of tenant `t` seeds its rolls apart from every other.
    let seeds = |t: u32| move |w: usize| args.seed ^ (u64::from(t) << 32) ^ w as u64;
    let scans = args.mix(100).expect("checked by parse_args");
    let oltp = args.mix(0).expect("checked by parse_args");

    match args.tenant_mode.as_str() {
        "noisy" => {
            // Tenant 0 is the noisy neighbor: pure contiguous scans,
            // the footprint that blows past any fixed lock budget.
            // Everyone else runs the well-behaved OLTP profile.
            println!(
                "locktune-client: noisy neighbor — tenant 0 scans ({} workers), tenants 1..{} \
                 OLTP ({} workers each)",
                args.workers, n, args.workers,
            );
            let dss = spawn_workers(args, scans, Some(0), args.workers, seeds(0));
            let neighbors: Vec<_> = (1..n)
                .flat_map(|t| spawn_workers(args, oltp, Some(t), args.workers, seeds(t)))
                .collect();
            let (dss, _) = join_workers(dss);
            let (neighbors, _) = join_workers(neighbors);
            println!("dss tenant:        {}", cohort(&dss));
            println!("oltp cohort:       {}", cohort(&neighbors));
            for t in 0..n {
                let (p99, esc) = tenant_p99_and_escalations(&args.addr, t);
                println!(
                    "tenant {t:>3}: p99 lock wait {p99:>8} us, {esc:>5} escalations{}",
                    if t == 0 { "  <- noisy" } else { "" },
                );
            }
        }
        "churn" => {
            // Tenants come and go under load. Tenant 0 keeps a steady
            // background workload the whole time; transient tenants
            // 900+ are created, hammered and dropped. Every drop must
            // return the tenant's entire budget to the free pool.
            let bg = spawn_workers(args, oltp, Some(0), 1, seeds(0));
            let burst = Args {
                txns: args.txns / 2,
                ..args.clone()
            };
            let mix = args.mix(args.dss_percent).expect("checked by parse_args");
            for cycle in 0..3u32 {
                let id = 900 + cycle;
                let granted = control.tenant_create(id).unwrap_or_else(|e| {
                    eprintln!("locktune-client: create tenant {id}: {e}");
                    std::process::exit(1);
                });
                let (churned, _) = join_workers(spawn_workers(
                    &burst,
                    mix,
                    Some(id),
                    args.workers.div_ceil(2),
                    seeds(id),
                ));
                let reclaimed = control.tenant_drop(id).unwrap_or_else(|e| {
                    eprintln!("locktune-client: drop tenant {id}: {e}");
                    std::process::exit(1);
                });
                println!(
                    "churn cycle {cycle}: tenant {id} granted {} MiB, committed {}, dropped — \
                     reclaimed {} MiB",
                    granted / MIB,
                    churned.get(TxnOutcome::Committed),
                    reclaimed / MIB,
                );
                let reply = audit_rollup(&mut control, &mut exit);
                if reply.rollup.tenants.iter().any(|t| t.id == id) {
                    eprintln!("locktune-client: dropped tenant {id} still in the rollup");
                    exit = 1;
                }
            }
            let (bg, _) = join_workers(bg);
            println!(
                "background:        {} committed on tenant 0 across all churn cycles",
                bg.get(TxnOutcome::Committed),
            );
        }
        other => unreachable!("validated in parse_args: {other}"),
    }

    audit_rollup(&mut control, &mut exit);
    let audit = drain_and_validate(&mut connect_control(&args.addr), DRAIN);
    report_machine_audit(audit, &mut exit);
    std::process::exit(exit);
}

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
        use std::io::Write;
        while self.out_off < self.out.len() {
            match (&self.stream).write(&self.out[self.out_off..]) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "socket closed mid-frame",
                    ))
                }
                Ok(n) => self.out_off += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
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

/// The open-loop scaling bench (`--connections N`). Never returns.
///
/// A single thread owns every connection via the shared epoll wrapper:
/// bursts fire on a global pacer (`--rate`), land on a Zipf-ranked
/// connection, and travel as one pipelined `LockBatch` + `UnlockAll`
/// flush. Lock footprints are connection-private (distinct row ranges,
/// tables reused only across intent-compatible IX holders), so the
/// bench measures the network core, not lock contention.
fn run_open_loop(args: &Args) -> ! {
    use locktune_net::poll::{PollEvent, Poller, EPOLLIN, EPOLLOUT};
    use std::os::fd::AsRawFd;

    let n = args.connections;
    let rows = args.oltp_rows.max(1);
    println!(
        "locktune-client: open loop — {n} connections, {} bursts/s target, zipf theta {}, {} ms",
        args.rate, args.zipf_theta, args.duration_ms,
    );

    let poller = Poller::new().unwrap_or_else(|e| {
        eprintln!("locktune-client: epoll create: {e}");
        std::process::exit(1);
    });
    let mut conns = Vec::with_capacity(n);
    for i in 0..n {
        let stream = match std::net::TcpStream::connect(&args.addr) {
            Ok(s) => s,
            Err(e) => {
                eprintln!(
                    "locktune-client: connect {} ({} of {n} open): {e} \
                     (raise ulimit -n / server --max-conns?)",
                    args.addr, i,
                );
                std::process::exit(1);
            }
        };
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

    let zipf = Zipf::new(n, args.zipf_theta);
    let mut rng = SimRng::seed_from_u64(args.seed);
    let mut tally = BenchTally::default();
    let mut items: Vec<(ResourceId, LockMode)> = Vec::with_capacity(rows as usize + 1);
    // The encode helpers clear their output buffer, so each frame is
    // built here and appended — two frames must coexist in `c.out` for
    // the pipelined flush.
    let mut scratch: Vec<u8> = Vec::with_capacity(512);
    let mut events: Vec<PollEvent> = Vec::new();

    let interval = Duration::from_nanos(1_000_000_000 / args.rate);
    let start = Instant::now();
    let end = start + Duration::from_millis(args.duration_ms);
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
                    if let Err(e) = c.flush() {
                        eprintln!("locktune-client: conn {i} write: {e}");
                        std::process::exit(1);
                    }
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
            eprintln!("locktune-client: {inflight_total} bursts still unresolved after grace");
            std::process::exit(1);
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
                eprintln!("locktune-client: conn {i} closed by server mid-run");
                std::process::exit(1);
            }
            if ev.writable() && c.want_out {
                if let Err(e) = c.flush() {
                    eprintln!("locktune-client: conn {i} write: {e}");
                    std::process::exit(1);
                }
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
                use std::io::Read;
                match (&c.stream).read(&mut buf) {
                    Ok(0) => {
                        eprintln!("locktune-client: conn {i} EOF mid-run");
                        std::process::exit(1);
                    }
                    Ok(got) => {
                        c.accum.extend(&buf[..got]);
                        if got < buf.len() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(e) => {
                        eprintln!("locktune-client: conn {i} read: {e}");
                        std::process::exit(1);
                    }
                }
            }
            loop {
                let reply = match c.accum.next_payload() {
                    Ok(None) => break,
                    Ok(Some(payload)) => match wire::decode_reply(payload) {
                        Ok((_, reply)) => reply,
                        Err(e) => {
                            eprintln!("locktune-client: conn {i} bad reply frame: {e}");
                            std::process::exit(1);
                        }
                    },
                    Err(e) => {
                        eprintln!("locktune-client: conn {i} corrupt stream: {e}");
                        std::process::exit(1);
                    }
                };
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
                        eprintln!(
                            "locktune-client: server refused conn {i} (Busy) — \
                             raise server --max-conns above {n}"
                        );
                        std::process::exit(1);
                    }
                    other => {
                        eprintln!("locktune-client: conn {i} unexpected reply: {other:?}");
                        std::process::exit(1);
                    }
                }
            }
        }
    }
    let wall = start.elapsed().as_secs_f64();

    // Teardown: close every bench socket, then audit the server from a
    // fresh control connection — the drain poll is the leak check (the
    // server must reap all N sessions).
    drop(conns);
    let mut control = connect_control(&args.addr);
    let mut exit = 0;
    report_machine_audit(drain_and_validate(&mut control, DRAIN), &mut exit);
    let snap = read_retry(&mut control, |c| c.metrics(0, 0)).unwrap_or_else(|e| {
        eprintln!("locktune-client: metrics scrape: {e}");
        std::process::exit(1);
    });
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
    for s in &snap.io_shards {
        println!(
            "io shard {:>2}:       {} conns, {} wakeups, {} writev ({} frames), write hwm {} B",
            s.shard, s.connections, s.wakeups, s.writev_calls, s.writev_frames, s.write_buf_hwm,
        );
    }

    // Machine-readable summary for EXPERIMENTS.md and CI.
    let shards_json: Vec<String> = snap
        .io_shards
        .iter()
        .map(|s| {
            format!(
                "{{\"shard\":{},\"connections\":{},\"wakeups\":{},\"writev_calls\":{},\
                 \"writev_frames\":{},\"write_buf_hwm\":{}}}",
                s.shard, s.connections, s.wakeups, s.writev_calls, s.writev_frames, s.write_buf_hwm
            )
        })
        .collect();
    let json = format!(
        "{{\"bench\":\"net_scaling\",\"io_model\":\"{io_model}\",\"connections\":{n},\
         \"rate_target\":{},\"duration_ms\":{},\"locks_per_burst\":{},\
         \"bursts_completed\":{},\"bursts_skipped_busy\":{},\"lock_failures\":{},\
         \"throughput_bursts_per_s\":{throughput:.1},\
         \"latency_us\":{{\"p50\":{p50},\"p90\":{p90},\"p99\":{p99},\"max\":{max_us}}},\
         \"io_shards\":[{}]}}",
        args.rate,
        args.duration_ms,
        rows + 1,
        tally.bursts,
        tally.skipped_busy,
        tally.lock_failures,
        shards_json.join(","),
    );
    if let Err(e) = std::fs::write(&args.bench_out, format!("{json}\n")) {
        eprintln!("locktune-client: write {}: {e}", args.bench_out);
        exit = 1;
    } else {
        println!("bench summary:     {}", args.bench_out);
    }

    if tally.bursts == 0 {
        eprintln!("locktune-client: no burst completed — bench is vacuous");
        exit = 1;
    }
    std::process::exit(exit);
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("locktune-client: {e}");
            std::process::exit(1);
        }
    };

    if args.tenants > 0 {
        run_tenant_stress(&args);
    }
    if args.connections > 0 {
        run_open_loop(&args);
    }

    println!(
        "locktune-client: {} workers x {} txns against {}{}",
        args.workers,
        args.txns,
        args.addr,
        if args.chaos { " (chaos mode)" } else { "" }
    );

    let start = Instant::now();
    let mix = args.mix(args.dss_percent).expect("checked by parse_args");
    let workers = spawn_workers(&args, mix, args.tenant, args.workers, |w| {
        args.seed + w as u64
    });
    let (tally, reconnect_stats) = join_workers(workers);
    let mixed_secs = start.elapsed().as_secs_f64();

    // Kill phase: take locks on a fresh connection and hard-kill it.
    // The server must notice the dead socket and release everything.
    // Chaos mode skips it: injected disconnects already exercise
    // dead-client teardown continuously, and a fault could kill this
    // plain (non-reconnecting) connection mid-setup.
    if !args.skip_kill && !args.chaos {
        let mut doomed = match Client::connect(&args.addr) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("locktune-client: kill-phase connect: {e}");
                std::process::exit(1);
            }
        };
        let table = TableId(args.tables); // private table, uncontended
        let held = (|| -> Result<(), ClientError> {
            if let Some(t) = args.tenant {
                doomed.hello(t)?;
            }
            doomed.lock(ResourceId::Table(table), LockMode::IX)?;
            for r in 0..32 {
                doomed.lock(ResourceId::Row(table, RowId(r)), LockMode::X)?;
            }
            Ok(())
        })();
        if let Err(e) = held {
            eprintln!("locktune-client: kill-phase locks: {e}");
            std::process::exit(1);
        }
        doomed.kill();
        println!("kill phase: connection holding 33 locks force-killed");
    }

    // The server reaps dead connections asynchronously: drain, audit,
    // then scrape the quiescent server (no journal events) once the
    // tuner has ticked `--min-intervals` times.
    let mut control = connect_control(&args.addr);
    let audit = drain_and_validate(&mut control, DRAIN);
    let server = await_intervals(&mut control, args.min_intervals);

    let committed = tally.get(TxnOutcome::Committed);
    println!("--- remote stress report ---");
    print!("{tally}");
    println!(
        "throughput:        {:.0} txn/s over the wire",
        if mixed_secs > 0.0 {
            committed as f64 / mixed_secs
        } else {
            0.0
        }
    );
    println!("server escalations:{}", server.lock_stats.escalations);
    println!("server waits:      {}", server.lock_stats.waits);
    println!("tuning intervals:  {}", server.tuning_intervals);
    println!("grow decisions:    {}", server.grow_decisions);
    println!("shrink decisions:  {}", server.shrink_decisions);
    println!("pool bytes:        {}", server.pool_bytes);
    println!("pool slots used:   {}", server.pool_slots_used);
    if args.chaos {
        println!(
            "chaos recovery:    {} txns lost to reconnects ({} cycles, {} busy refusals, {} failed attempts)",
            tally.get(TxnOutcome::Lost),
            reconnect_stats.reconnects,
            reconnect_stats.busy_refusals,
            reconnect_stats.failed_attempts,
        );
        println!(
            "chaos recovery:    {} shed rejections, {} background-job recoveries server-side",
            tally.get(TxnOutcome::Overloaded),
            server.counters.watchdog_restarts,
        );
    }

    let mut exit = 0;
    match audit {
        Ok(report) => {
            println!(
                "accounting:        zero divergence (validate passed, {} slots charged)",
                report.charged_slots
            );
        }
        Err(e) => {
            eprintln!("accounting:        FAILED: {e}");
            exit = 1;
        }
    }

    // Metrics audit: the server's telemetry against what this client
    // saw on the wire. Everything is quiescent by now (only the
    // control connection is live), so the invariants are exact.
    if args.scrape {
        let snap = read_retry(&mut control, |c| c.metrics(0, 0)).unwrap_or_else(|e| {
            eprintln!("locktune-client: metrics scrape: {e}");
            std::process::exit(1);
        });
        let mut check = |ok: bool, msg: String| {
            if ok {
                println!("metrics audit:     {msg}");
            } else {
                eprintln!("metrics audit:     FAILED: {msg}");
                exit = 1;
            }
        };
        if args.batch && !args.chaos {
            // Every transaction ships its lock set as at least one
            // LockBatch frame, and every batch carries at least one
            // item. (Chaos can lose a transaction before its frame
            // reaches the server.)
            let txns = args.workers as u64 * args.txns;
            let c = &snap.counters;
            check(
                c.batches >= txns && c.batch_items >= c.batches,
                format!(
                    "batch counters cover the run ({} batches >= {txns} txns, {} items)",
                    c.batches, c.batch_items
                ),
            );
        }
        check(
            snap.lock_wait_micros.count() == snap.lock_stats.waits,
            format!(
                "every wait timed exactly once ({} == {})",
                snap.lock_wait_micros.count(),
                snap.lock_stats.waits
            ),
        );
        check(
            snap.lock_stats.escalations >= tally.escalations_seen,
            format!(
                "server escalations ({}) cover client-observed ({})",
                snap.lock_stats.escalations, tally.escalations_seen
            ),
        );
        let victims = tally.get(TxnOutcome::DeadlockVictim);
        check(
            snap.counters.deadlock_victims >= victims,
            format!(
                "server victim aborts ({}) cover client-observed ({victims})",
                snap.counters.deadlock_victims
            ),
        );
        let timeouts = tally.get(TxnOutcome::Timeout);
        check(
            snap.counters.timeouts >= timeouts,
            format!(
                "server timeouts ({}) cover client-observed ({timeouts})",
                snap.counters.timeouts
            ),
        );
        check(
            snap.pool_bytes > 0 && snap.free_fraction > 0.0,
            format!(
                "pool gauges live ({} bytes, {:.3} free)",
                snap.pool_bytes, snap.free_fraction
            ),
        );
        check(
            snap.tuning_intervals >= server.tuning_intervals,
            format!("tuner still ticking ({} intervals)", snap.tuning_intervals),
        );
    }

    if server.tuning_intervals < args.min_intervals {
        eprintln!(
            "locktune-client: only {} tuning intervals (need >= {})",
            server.tuning_intervals, args.min_intervals
        );
        exit = 1;
    }
    std::process::exit(exit);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(flags: &[&str]) -> Result<Args, String> {
        parse_args_from(flags.iter().map(|f| f.to_string()))
    }

    #[test]
    fn empty_key_spaces_are_usage_errors() {
        assert!(parsed(&["--rows", "0"]).unwrap_err().contains("row"));
        assert!(parsed(&["--tables", "0"]).unwrap_err().contains("table"));
        assert!(parsed(&["--dss-percent", "101"]).is_err());
        assert!(parsed(&[]).is_ok());
    }

    #[test]
    fn a_zipf_theta_the_sampler_cannot_take_is_a_usage_error() {
        for theta in ["nan", "inf", "-1"] {
            let err = parsed(&["--connections", "4", "--zipf-theta", theta]).unwrap_err();
            assert!(err.contains("--zipf-theta"), "{theta}: {err}");
        }
        assert!(parsed(&["--connections", "4", "--zipf-theta", "0"]).is_ok());
    }

    #[test]
    fn flash_is_not_a_tenant_mode() {
        assert!(parsed(&["--tenants", "2", "--tenant-mode", "flash"]).is_err());
        assert!(parsed(&["--tenants", "2", "--tenant-mode", "churn"]).is_ok());
        assert!(parsed(&["--tenants", "4294967297"]).is_err());
    }
}
