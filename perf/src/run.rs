//! The run shape every workload shares: timed set-up, one discarded
//! repetition, timed repetitions, drain, audit.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use locktune_net::MetricsSnapshot;
use locktune_service::LockService;

use crate::procstat;
use crate::spans::{self, Off, Recorder, SpanName, Tracer};
use crate::stats::{self, LatSamples, Latency, Summary};
use crate::workloads::{Drained, Params, Tally, Worker, Workload};

/// Times set-up runs in one invocation; `setup_s` is the median. The
/// first rig built is the one measured, the others are built after it
/// has been drained, timed, and torn down.
pub const SETUPS: usize = 5;

/// How long a closed loop keeps going.
#[derive(Debug, Clone, Copy)]
pub enum Limit {
    For(Duration),
    Txns(u64),
}

/// One repetition, all workers together.
#[derive(Debug, Clone, Copy)]
pub struct Rep {
    pub tally: Tally,
    /// First worker's start to last worker's finish.
    pub wall: Duration,
    /// Process user + system CPU over the repetition (clients and
    /// servers share the process).
    pub cpu: Duration,
    /// CPU time the hypervisor withheld from the guest meanwhile.
    pub stolen: Duration,
    pub latency: Latency,
}

impl Rep {
    pub fn locks_per_s(&self) -> f64 {
        self.tally.locks as f64 / self.wall.as_secs_f64()
    }

    pub fn ns_per_lock(&self) -> f64 {
        self.wall.as_nanos() as f64 / self.tally.locks as f64
    }
}

/// Whether a repetition records spans, and how.
#[derive(Debug, Clone, Copy)]
enum Tracing {
    Off,
    /// One transaction in `period`, timestamps relative to `epoch`.
    Sampled {
        epoch: Instant,
        period: u64,
    },
}

struct Order {
    limit: Limit,
    tracing: Tracing,
    /// The latency buffer travels with the order and comes back with
    /// the report, so it is allocated once per seat.
    lat: LatSamples,
}

struct Report {
    started: Instant,
    ended: Instant,
    tally: Tally,
    lat: LatSamples,
    recorder: Option<Recorder>,
}

struct Seat<W> {
    orders: mpsc::Sender<Order>,
    reports: mpsc::Receiver<Report>,
    thread: JoinHandle<W>,
    /// `None` only while the buffer is out with an order.
    lat: Option<LatSamples>,
}

/// The client threads of one rig: one long-lived thread per worker,
/// reused by every repetition from warm-up to the last timed one.
///
/// Long-lived on purpose. A thread spawned per repetition gets
/// whichever malloc arena is free, and when two client threads end up
/// freeing into each other's arenas every lock structure's heap chunk
/// crosses cores: the same binary then runs `inproc_oltp` at 4.5 M or
/// 6.4 M locks/s, flipping at random between repetitions. A database
/// agent is a long-lived thread; so is each client here.
pub struct Crew<W> {
    seats: Vec<Seat<W>>,
    barrier: Arc<Barrier>,
}

/// One worker's closed loop: transactions back to back until `limit`,
/// each timed from its first call to its last reply.
fn closed_loop<W: Worker, T: Tracer>(
    worker: &mut W,
    tracer: &mut T,
    lat: &mut LatSamples,
    limit: Limit,
    barrier: &Barrier,
) -> (Instant, Instant, Tally) {
    lat.clear();
    let mut tally = Tally::default();
    barrier.wait();
    let t0 = Instant::now();
    let mut start = t0;
    loop {
        tracer.txn_begin();
        worker.txn(tracer, &mut tally);
        tracer.txn_end();
        let end = Instant::now();
        lat.record((end - start).as_nanos().min(u128::from(u32::MAX)) as u32);
        let done = match limit {
            Limit::For(d) => end - t0 >= d,
            Limit::Txns(n) => tally.txns >= n,
        };
        if done {
            return (t0, end, tally);
        }
        start = end;
    }
}

impl<W: Worker + 'static> Crew<W> {
    /// Seat each worker on a thread of its own.
    pub fn start(workers: Vec<W>) -> Crew<W> {
        let barrier = Arc::new(Barrier::new(workers.len() + 1));
        let seats = workers
            .into_iter()
            .map(|mut worker| {
                let (orders, inbox) = mpsc::channel::<Order>();
                let (outbox, reports) = mpsc::channel::<Report>();
                let barrier = Arc::clone(&barrier);
                let thread = std::thread::spawn(move || {
                    // Runs until the crew hangs up, then hands the
                    // worker back through the join handle.
                    while let Ok(Order {
                        limit,
                        tracing,
                        mut lat,
                    }) = inbox.recv()
                    {
                        let (ends, recorder) = match tracing {
                            Tracing::Off => (
                                closed_loop(&mut worker, &mut Off, &mut lat, limit, &barrier),
                                None,
                            ),
                            Tracing::Sampled { epoch, period } => {
                                let mut rec = Recorder::new(epoch, period);
                                let ends =
                                    closed_loop(&mut worker, &mut rec, &mut lat, limit, &barrier);
                                (ends, Some(rec))
                            }
                        };
                        let report = Report {
                            started: ends.0,
                            ended: ends.1,
                            tally: ends.2,
                            lat,
                            recorder,
                        };
                        if outbox.send(report).is_err() {
                            break;
                        }
                    }
                    worker
                });
                Seat {
                    orders,
                    reports,
                    thread,
                    lat: Some(LatSamples::new()),
                }
            })
            .collect();
        Crew { seats, barrier }
    }

    pub fn clients(&self) -> usize {
        self.seats.len()
    }

    fn repetition(&mut self, limit: Limit, tracing: Tracing) -> (Rep, Vec<Recorder>) {
        for seat in &mut self.seats {
            let order = Order {
                limit,
                tracing,
                lat: seat.lat.take().expect("buffer is back between repetitions"),
            };
            seat.orders.send(order).expect("client thread is alive");
        }
        let stolen_before = procstat::stolen_cpu();
        let cpu_before = procstat::process_cpu();
        // Every client is parked on the barrier (or about to be):
        // release them together.
        self.barrier.wait();
        let reports: Vec<Report> = self
            .seats
            .iter()
            .map(|seat| seat.reports.recv().expect("client thread panicked"))
            .collect();
        let cpu = procstat::process_cpu() - cpu_before;
        let stolen = procstat::stolen_cpu() - stolen_before;

        let first = reports.iter().map(|r| r.started).min().expect("a worker");
        let last = reports.iter().map(|r| r.ended).max().expect("a worker");
        let mut tally = Tally::default();
        let mut merged = Vec::with_capacity(reports.iter().map(|r| r.lat.samples().len()).sum());
        let mut recorders = Vec::new();
        for (seat, report) in self.seats.iter_mut().zip(reports) {
            tally.add(&report.tally);
            merged.extend_from_slice(report.lat.samples());
            seat.lat = Some(report.lat);
            recorders.extend(report.recorder);
        }
        let rep = Rep {
            tally,
            wall: last - first,
            cpu,
            stolen,
            latency: stats::latency(&mut merged),
        };
        (rep, recorders)
    }

    /// One untraced repetition.
    pub fn run(&mut self, limit: Limit) -> Rep {
        self.repetition(limit, Tracing::Off).0
    }

    /// One repetition sampling one transaction in `period`; the
    /// recorders come back in seat order.
    pub fn run_traced(&mut self, limit: Limit, period: u64) -> (Rep, Vec<Recorder>) {
        let epoch = Instant::now();
        self.repetition(limit, Tracing::Sampled { epoch, period })
    }

    /// Send the clients home and take the workers back, in seat order.
    pub fn finish(self) -> Vec<W> {
        self.seats
            .into_iter()
            .map(|seat| {
                drop(seat.orders);
                seat.thread.join().expect("client thread panicked")
            })
            .collect()
    }
}

/// A rig with its clients seated.
pub struct Running<W: Workload> {
    pub rig: W,
    pub crew: Crew<W::Worker>,
}

impl<W: Workload> Running<W> {
    /// Build the rig and seat its workers; no lock traffic yet.
    pub fn build(p: &Params) -> Running<W> {
        Running::seat(W::build(p))
    }

    /// Seat the workers of an already built rig.
    pub fn seat(mut rig: W) -> Running<W> {
        let crew = Crew::start(rig.take_workers());
        Running { rig, crew }
    }

    /// Disconnect the clients, stop the servers.
    pub fn drain(self) -> Drained {
        let workers = self.crew.finish();
        self.rig.drain(workers)
    }
}

/// Build a rig and warm it: everything a user waits for before the
/// first transaction that counts.
fn set_up<W: Workload>(p: &Params) -> (Running<W>, Rep) {
    let mut running = Running::<W>::build(p);
    let warmup = (W::WARMUP_TXNS / p.warmup_div).max(1);
    let warm = running.crew.run(Limit::Txns(warmup));
    (running, warm)
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub summary: Summary,
}

impl Metric {
    pub fn single(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name,
            unit,
            summary: Summary {
                median: value,
                q1: value,
                q3: value,
                n: 1,
            },
        }
    }

    fn over(name: &'static str, unit: &'static str, values: &[f64]) -> Metric {
        Metric {
            name,
            unit,
            summary: Summary::of(values),
        }
    }
}

/// Everything one invocation reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub workload: &'static str,
    pub correct: bool,
    pub findings: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
}

/// The audit every workload ends with, on what [`Workload::drain`]
/// left: each service's cross-shard accounting validates, nothing is
/// left charged to the pool, and no lock was ever escalated.
fn audit(name: &str, drained: Drained) -> (Vec<String>, u64) {
    let mut findings = drained.findings;
    let mut escalations = 0;
    for (i, service) in drained.services.iter().enumerate() {
        // validate() flushes the shard magazines first, so the used
        // count read after it is exact.
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| service.validate())) {
            let msg = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "validate panicked".into());
            findings.push(format!("{name}: service {i} validate failed: {msg}"));
        }
        let used = service.pool_used_slots();
        if used != 0 {
            findings.push(format!("{name}: service {i} leaked {used} pool slots"));
        }
        escalations += service.stats().escalations;
    }
    if escalations != 0 {
        findings.push(format!("{name}: {escalations} lock escalations"));
    }
    (findings, escalations)
}

/// The untraced pass: every end-to-end metric, each the median over
/// the timed repetitions.
pub fn measure<W: Workload>(p: &Params) -> Outcome {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let t0 = Instant::now();
    let Running { rig, mut crew } = set_up::<W>(p).0;
    setup_s.push(t0.elapsed().as_secs_f64());
    let n = crew.clients();

    // One full-length repetition thrown away: the first one after
    // set-up runs measurably differently from those that follow
    // (README, "Run shape").
    crew.run(Limit::For(p.rep));

    let mut total = Tally::default();
    let mut peak_lock_bytes = rig.lock_bytes_high();
    let (mut rate, mut p50, mut tail, mut cpu) = (vec![], vec![], vec![], vec![]);
    let mut stolen = vec![];
    let mut tail_q = 0.99f64;
    let mut samples = 0;
    for _ in 0..p.reps {
        let rep = crew.run(Limit::For(p.rep));
        total.add(&rep.tally);
        rate.push(rep.locks_per_s());
        p50.push(rep.latency.p50_us());
        tail.push(rep.latency.tail_us());
        cpu.push(rep.cpu.as_secs_f64() * 1e6 / rep.tally.locks.max(1) as f64);
        stolen.push(rep.stolen.as_secs_f64() / rep.wall.as_secs_f64());
        tail_q = tail_q.min(rep.latency.tail_q);
        samples += rep.latency.n;
        peak_lock_bytes = peak_lock_bytes.max(rig.lock_bytes_high());
    }

    let (findings, escalations) = audit(W::NAME, Running { rig, crew }.drain());
    // Read before the extra set-ups below: the peak is the measured
    // rig's, not that of rigs built only to be timed.
    let peak_rss_mib = procstat::peak_rss_mib();
    while setup_s.len() < SETUPS {
        let t0 = Instant::now();
        let extra = set_up::<W>(p).0;
        setup_s.push(t0.elapsed().as_secs_f64());
        drop(extra.drain());
    }
    let failed_share = total.failed as f64 / total.attempted.max(1) as f64;
    let mut notes = vec![format!(
        "{} client threads, {} repetitions x {:.2} s, {} transactions timed",
        n,
        p.reps,
        p.rep.as_secs_f64(),
        samples
    )];
    notes.push(format!(
        "locks_per_s by repetition: {}",
        rate.iter()
            .map(|r| format!("{r:.0}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    notes.push(format!(
        "stolen CPU share by repetition: {}",
        stolen
            .iter()
            .map(|r| format!("{r:.2}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    if tail_q < 0.99 {
        notes.push(format!(
            "txn_p99_us is p{:.1}: fewer than {} samples lie beyond p99 in a repetition",
            tail_q * 100.0,
            stats::MIN_BEYOND
        ));
    }
    Outcome {
        workload: W::NAME,
        correct: findings.is_empty() && total.failed == 0,
        findings,
        attempted: total.attempted,
        failed: total.failed,
        metrics: vec![
            Metric::over("locks_per_s", "locks/s", &rate),
            Metric::over("txn_p50_us", "us", &p50),
            Metric::over("txn_p99_us", "us", &tail),
            Metric::single("peak_lock_bytes", "bytes", peak_lock_bytes as f64),
            Metric::over("cpu_us_per_lock", "us", &cpu),
            Metric::single("peak_rss_mb", "MiB", peak_rss_mib),
            Metric::over("setup_s", "s", &setup_s),
            Metric::single("failed_share", "ratio", failed_share),
            Metric::single("escalations", "count", escalations as f64),
        ],
        notes,
    }
}

/// Work and wall time summed over several repetitions.
#[derive(Default)]
struct Stretch {
    tally: Tally,
    wall: Duration,
}

impl Stretch {
    fn add(&mut self, rep: &Rep) {
        self.tally.add(&rep.tally);
        self.wall += rep.wall;
    }

    fn locks_per_s(&self) -> f64 {
        self.tally.locks as f64 / self.wall.as_secs_f64()
    }
}

/// The traced pass over workload `W`: untraced repetitions for
/// reference, traced ones beside them, then the program's own counters. The layer
/// rows that do not depend on the workload come from `micro.rs`.
pub fn trace<W: Workload>(p: &Params, out_dir: &std::path::Path) -> Outcome {
    let (Running { rig, mut crew }, warm) = set_up::<W>(p);
    let discarded = crew.run(Limit::For(p.rep / 2));
    // Untraced and traced halves alternate, so a slow drift of the
    // host lands on both sides of the overhead figure.
    let half = Limit::For(p.rep / 2);
    let (mut plain, mut traced) = (Stretch::default(), Stretch::default());
    let mut recorders = Vec::new();
    let mut plain_tails = Vec::new();
    for _ in 0..2 {
        let rep = crew.run(half);
        plain_tails.push(rep.latency.tail_us());
        plain.add(&rep);
        let (rep, recs) = crew.run_traced(half, W::TRACE_PERIOD);
        traced.add(&rep);
        recorders.extend(recs);
    }

    let snapshots = rig.observe();
    let services: Vec<Arc<LockService>> = rig.services().to_vec();
    // The program's counters run from server start, so ratios per
    // transaction divide by every transaction the rig ever ran.
    let lifetime_txns =
        warm.tally.txns + discarded.tally.txns + plain.tally.txns + traced.tally.txns;
    let mut metrics = program_counters(&snapshots, &services, lifetime_txns);

    let span_stats = spans::by_name(&recorders);
    let root = &span_stats[SpanName::Txn as usize];
    let overhead = 100.0 * (plain.locks_per_s() - traced.locks_per_s()) / plain.locks_per_s();
    metrics.extend([
        Metric::over("txn_p99_us", "us", &plain_tails),
        Metric::single("trace.overhead_pct", "%", overhead),
        Metric::single("trace.txn_us", "us", stats::median_us(&root.durations_ns)),
        Metric::single("trace.txn_self_us", "us", stats::median_us(&root.self_ns)),
        Metric::single(
            "trace.sampled_txns",
            "count",
            root.durations_ns.len() as f64,
        ),
    ]);

    let mut notes = vec![format!(
        "untraced {:.0} locks/s, traced {:.0} locks/s (1 txn in {} sampled)",
        plain.locks_per_s(),
        traced.locks_per_s(),
        W::TRACE_PERIOD
    )];
    for (name, stats) in SpanName::ALL.iter().zip(&span_stats) {
        if !stats.durations_ns.is_empty() {
            notes.push(format!(
                "span {:<20} n {:>7}  p50 {:>10.3} us  self p50 {:>10.3} us",
                name.as_str(),
                stats.durations_ns.len(),
                stats::median_us(&stats.durations_ns),
                stats::median_us(&stats.self_ns),
            ));
        }
    }
    let dropped: u64 = recorders.iter().map(|r| r.dropped_txns).sum();
    if dropped > 0 {
        notes.push(format!(
            "{dropped} sampled transactions dropped: span buffer full"
        ));
    }
    let path = out_dir.join(format!("trace_{}.jsonl", W::NAME));
    match std::fs::create_dir_all(out_dir)
        .and_then(|()| spans::write_jsonl(&path, &recorders, crew.clients()))
    {
        Ok(()) => notes.push(format!("spans written to {}", path.display())),
        Err(e) => notes.push(format!("could not write {}: {e}", path.display())),
    }

    let mut total = plain.tally;
    total.add(&traced.tally);
    let (findings, _) = audit(W::NAME, Running { rig, crew }.drain());
    Outcome {
        workload: W::NAME,
        correct: findings.is_empty() && total.failed == 0,
        findings,
        attempted: total.attempted,
        failed: total.failed,
        metrics,
        notes,
    }
}

/// Counter and histogram rows the program already exports, read once
/// at the end of the workload. Counts are summed over services; the
/// histograms of several services are merged.
fn program_counters(
    snapshots: &[MetricsSnapshot],
    services: &[Arc<LockService>],
    txns: u64,
) -> Vec<Metric> {
    let mut sum = MetricsSnapshot::default();
    let (mut wakeups, mut writev_calls, mut writev_frames) = (0, 0, 0);
    for s in snapshots {
        sum.lock_stats.merge(&s.lock_stats);
        sum.counters.merge(&s.counters);
        sum.grow_decisions += s.grow_decisions;
        sum.shrink_decisions += s.shrink_decisions;
        sum.reply_queue_hwm = sum.reply_queue_hwm.max(s.reply_queue_hwm);
        sum.latch_hold_nanos.merge(&s.latch_hold_nanos);
        sum.lock_wait_micros.merge(&s.lock_wait_micros);
        sum.sync_stall_micros.merge(&s.sync_stall_micros);
        for io in &s.io_shards {
            wakeups += io.wakeups;
            writev_calls += io.writev_calls;
            writev_frames += io.writev_frames;
        }
    }
    let exhaustions: u64 = services
        .iter()
        .map(|s| s.pool_stats().counters.exhaustions)
        .sum();
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let c = &sum.counters;
    let l = &sum.lock_stats;
    [
        (
            "memalloc.reclaim_sweeps",
            "count",
            c.depot_reclaim_sweeps as f64,
        ),
        (
            "memalloc.reclaimed_slots",
            "count",
            c.depot_reclaimed_slots as f64,
        ),
        ("memalloc.exhaustions", "count", exhaustions as f64),
        ("lockmgr.waits", "count", l.waits as f64),
        ("lockmgr.escalations", "count", l.escalations as f64),
        ("lockmgr.deadlocks", "count", c.deadlock_victims as f64),
        (
            "service.latch_hold_p50_ns",
            "ns",
            sum.latch_hold_nanos.quantile(0.5) as f64,
        ),
        (
            "service.latch_hold_p99_ns",
            "ns",
            sum.latch_hold_nanos.quantile(0.99) as f64,
        ),
        (
            "service.lock_wait_p50_us",
            "us",
            sum.lock_wait_micros.quantile(0.5) as f64,
        ),
        (
            "service.lock_wait_p99_us",
            "us",
            sum.lock_wait_micros.quantile(0.99) as f64,
        ),
        (
            "service.sync_stall_p50_us",
            "us",
            sum.sync_stall_micros.quantile(0.5) as f64,
        ),
        (
            "service.sync_stall_p99_us",
            "us",
            sum.sync_stall_micros.quantile(0.99) as f64,
        ),
        ("service.grow_decisions", "count", sum.grow_decisions as f64),
        (
            "service.shrink_decisions",
            "count",
            sum.shrink_decisions as f64,
        ),
        (
            "service.sync_growth_granted",
            "count",
            c.sync_growth_granted as f64,
        ),
        (
            "net.writev_frames_per_call",
            "ratio",
            ratio(writev_frames, writev_calls),
        ),
        ("net.wakeups_per_txn", "ratio", ratio(wakeups, txns)),
        ("net.reply_queue_hwm", "count", sum.reply_queue_hwm as f64),
    ]
    .into_iter()
    .map(|(name, unit, value)| Metric::single(name, unit, value))
    .collect()
}
