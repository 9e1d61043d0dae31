//! Live terminal dashboard for a locktune server.
//!
//! ```text
//! locktune-top [--addr HOST:PORT] [--interval-ms MS] [--frames N]
//!              [--max-events N] [--once] [--tenants]
//!              [--cluster HOST:PORT,HOST:PORT,...]
//! ```
//!
//! Polls the server's METRICS endpoint every `--interval-ms` (default
//! 500) and redraws a one-screen summary: the lock pool against the
//! tuner's free band, the MAXLOCKS attenuation curve's current output,
//! grant/wait/escalation rates computed from counter deltas, lock-wait
//! latency quantiles and the tail of the event journal. `--frames N`
//! stops after N redraws (0 = run until killed); `--once` prints a
//! single Prometheus text page instead of the dashboard — the form a
//! metrics agent or the CI smoke test consumes.
//!
//! `--tenants` switches to the multi-tenant view of a `locktune-server
//! --tenants N`: a machine partition bar (each cell one tenant's slice
//! of the budget), a per-tenant row with its own used-vs-budget bar,
//! budget share, benefit score and escalation/denial totals, and the
//! live donation flow (who funded whom, at what benefit gap). The
//! donation cursor is fed back on every poll, so each donation prints
//! exactly once.
//!
//! `--cluster` takes a comma-separated node list and renders one row
//! per partition: pool usage, apps, wait/grant totals and the node's
//! remote-cancel count (cross-node deadlock victims it resolved),
//! plus a cluster totals line. A node that stops answering is shown
//! as DOWN and re-probed every frame instead of killing the
//! dashboard — that is the panel you watch during a node kill.
//!
//! The tuning-tick cursor is fed back on every poll, so each interval
//! crosses the wire exactly once no matter how long the dashboard
//! runs. Exit codes: `1` usage, `2` connect/scrape failure.

use std::collections::VecDeque;
use std::time::Duration;

use locktune_net::{Client, MetricsSnapshot, TenantDonation, TenantStatsReply};
use locktune_obs::{prom, EventKind, JournalEvent, ObsCounters};

struct Args {
    addr: String,
    interval_ms: u64,
    frames: u64,
    max_events: u32,
    once: bool,
    tenants: bool,
    cluster: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7474".into(),
        interval_ms: 500,
        frames: 0,
        max_events: 64,
        once: false,
        tenants: false,
        cluster: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--interval-ms" => args.interval_ms = parse(&value("--interval-ms")?, "--interval-ms")?,
            "--frames" => args.frames = parse(&value("--frames")?, "--frames")?,
            "--max-events" => args.max_events = parse(&value("--max-events")?, "--max-events")?,
            "--once" => args.once = true,
            "--tenants" => args.tenants = true,
            "--cluster" => {
                args.cluster = value("--cluster")?
                    .split(',')
                    .map(str::to_string)
                    .filter(|s| !s.is_empty())
                    .collect();
                if args.cluster.is_empty() {
                    return Err("--cluster needs at least one HOST:PORT".into());
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn parse<T: std::str::FromStr>(s: &str, name: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad value {s:?} for {name}"))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("locktune-top: {e}");
            std::process::exit(1);
        }
    };
    if !args.cluster.is_empty() {
        cluster_view(&args);
    }
    let mut client = match Client::connect(&args.addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("locktune-top: connect {}: {e}", args.addr);
            std::process::exit(2);
        }
    };

    if args.tenants {
        tenants_view(&args, &mut client);
    }

    let mut cursor = 0u64;
    let mut prev: Option<MetricsSnapshot> = None;
    let mut frame = 0u64;
    loop {
        let snap = match client.metrics(cursor, args.max_events) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("locktune-top: scrape failed: {e}");
                std::process::exit(2);
            }
        };
        cursor = snap.next_tick_seq;
        if args.once {
            print!("{}", prom::render(&snap));
            return;
        }
        frame += 1;
        draw(&args.addr, &snap, prev.as_ref());
        prev = Some(snap);
        if args.frames != 0 && frame >= args.frames {
            return;
        }
        std::thread::sleep(Duration::from_millis(args.interval_ms.max(1)));
    }
}

/// The `--cluster` loop: poll every node's METRICS each frame and
/// redraw the per-partition panel. A node that fails a scrape is
/// drawn DOWN and re-dialed next frame — kills and partitions are
/// exactly what this panel exists to watch. Never returns.
fn cluster_view(args: &Args) -> ! {
    let n = args.cluster.len();
    let mut clients: Vec<Option<Client>> = (0..n).map(|_| None).collect();
    let mut frame = 0u64;
    loop {
        let snaps: Vec<Option<MetricsSnapshot>> = (0..n)
            .map(|i| {
                if clients[i].is_none() {
                    clients[i] = Client::connect(&args.cluster[i]).ok();
                }
                let snap = clients[i].as_mut().and_then(|c| c.metrics(0, 0).ok());
                if snap.is_none() {
                    clients[i] = None; // re-dial next frame
                }
                snap
            })
            .collect();
        frame += 1;
        draw_cluster(&args.cluster, &snaps, !args.once);
        if args.once || (args.frames != 0 && frame >= args.frames) {
            std::process::exit(0);
        }
        std::thread::sleep(Duration::from_millis(args.interval_ms.max(1)));
    }
}

fn draw_cluster(addrs: &[String], snaps: &[Option<MetricsSnapshot>], clear: bool) {
    if clear {
        print!("\x1b[2J\x1b[H");
    }
    let up = snaps.iter().flatten().count();
    println!(
        "locktune-top — cluster of {} partitions ({} up)",
        addrs.len(),
        up
    );
    println!(
        "\n{:>4}  {:<21} {:>5} {:>13} {:>10} {:>10} {:>8} {:>8} {:>8}",
        "node", "addr", "apps", "slots", "grants", "waits", "victims", "remote", "esc"
    );
    let row = |node: &str, addr: &str, s: &MetricsSnapshot| {
        println!(
            "{node:>4}  {addr:<21} {:>5} {:>6}/{:<6} {:>10} {:>10} {:>8} {:>8} {:>8}",
            s.connected_apps,
            s.pool_slots_used,
            s.pool_slots_total,
            s.lock_stats.grants,
            s.lock_stats.waits,
            s.counters.deadlock_victims,
            s.counters.remote_cancels,
            s.lock_stats.escalations,
        )
    };
    let mut total = MetricsSnapshot::default();
    for (i, (addr, snap)) in addrs.iter().zip(snaps).enumerate() {
        match snap {
            Some(s) => {
                row(&i.to_string(), addr, s);
                total.connected_apps += s.connected_apps;
                total.pool_slots_used += s.pool_slots_used;
                total.pool_slots_total += s.pool_slots_total;
                total.lock_stats.merge(&s.lock_stats);
                total.counters.merge(&s.counters);
            }
            None => println!("{i:>4}  {addr:<21} DOWN"),
        }
    }
    row("sum", "", &total);
    use std::io::Write;
    let _ = std::io::stdout().flush();
}

/// The `--tenants` loop: poll TENANT_STATS, feed the donation cursor
/// back, redraw the budget-partition dashboard. Never returns.
fn tenants_view(args: &Args, client: &mut Client) -> ! {
    let mut cursor = 0u64;
    let mut recent: VecDeque<TenantDonation> = VecDeque::new();
    let mut frame = 0u64;
    loop {
        let reply = match client.tenant_stats(cursor) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("locktune-top: tenant stats scrape failed: {e}");
                std::process::exit(2);
            }
        };
        cursor = reply.next_donation_seq;
        for d in &reply.donations {
            recent.push_back(*d);
        }
        while recent.len() > 8 {
            recent.pop_front();
        }
        frame += 1;
        draw_tenants(&args.addr, &reply, &recent, !args.once);
        if args.once || (args.frames != 0 && frame >= args.frames) {
            std::process::exit(0);
        }
        std::thread::sleep(Duration::from_millis(args.interval_ms.max(1)));
    }
}

/// One 60-cell bar partitioning the machine budget: each tenant's
/// slice is drawn with the last digit of its id, free budget as `.`.
fn partition_bar(reply: &TenantStatsReply) -> String {
    const W: usize = 60;
    let machine = reply.rollup.machine_budget.max(1);
    let mut bar = String::with_capacity(W);
    for t in &reply.rollup.tenants {
        let cells = ((t.budget as f64 / machine as f64) * W as f64).round() as usize;
        let digit = char::from_digit(t.id % 10, 10).unwrap_or('?');
        bar.extend(std::iter::repeat_n(digit, cells.max(1)));
    }
    while bar.len() < W {
        bar.push('.');
    }
    bar.truncate(W);
    bar
}

fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

fn draw_tenants(
    addr: &str,
    reply: &TenantStatsReply,
    recent: &VecDeque<TenantDonation>,
    clear: bool,
) {
    let r = &reply.rollup;
    if clear {
        print!("\x1b[2J\x1b[H");
    }
    println!(
        "locktune-top — {addr}   {} tenants   machine {:.0} MiB   free {:.0} MiB",
        r.tenants.len(),
        mib(r.machine_budget),
        mib(r.free_budget),
    );
    println!(
        "arbiter      {} passes, {} donations, {:.0} MiB moved",
        r.arbitrations,
        r.donations,
        mib(r.donated_bytes),
    );
    println!("\nbudget  [{}]", partition_bar(reply));
    println!();
    for t in &r.tenants {
        // Per-tenant band bar: this tenant's pool usage against its
        // own budget ceiling (the arbiter moves the ceiling, the
        // tenant's tuner moves the `#`s underneath it).
        const W: usize = 30;
        let used = if t.budget == 0 {
            0
        } else {
            (((t.pool_bytes as f64 / t.budget as f64) * W as f64).round() as usize).min(W)
        };
        let bar: String = (0..W).map(|i| if i < used { '#' } else { '.' }).collect();
        println!(
            "tenant {:>3} [{bar}] {:>6.0} MiB ({:>4.1}%)  benefit {:>8.2}  apps {:>3}  \
             esc {:>5}  denials {:>5}{}",
            t.id,
            mib(t.budget),
            100.0 * t.budget as f64 / r.machine_budget.max(1) as f64,
            t.benefit,
            t.connected_apps,
            t.escalations,
            t.denials,
            if t.shedding { "  SHEDDING" } else { "" },
        );
    }
    if !recent.is_empty() {
        println!("\ndonation flow (newest last)");
        for d in recent {
            let from = match d.from {
                Some(id) => format!("tenant {id}"),
                None => "free pool".into(),
            };
            println!(
                "  #{:<5} {:>8.3}s  {from} -> tenant {}  {:.0} MiB  (benefit {:.2} -> {:.2})",
                d.seq,
                d.at_ms as f64 / 1000.0,
                d.to,
                mib(d.bytes),
                d.from_benefit,
                d.to_benefit,
            );
        }
    }
    use std::io::Write;
    let _ = std::io::stdout().flush();
}

/// Counter delta per second between two polls, from the server's own
/// uptime clock (immune to client-side scheduling jitter).
fn rate(now: u64, before: u64, dt_ms: u64) -> f64 {
    if dt_ms == 0 {
        return 0.0;
    }
    now.saturating_sub(before) as f64 * 1000.0 / dt_ms as f64
}

fn kib(bytes: u64) -> f64 {
    bytes as f64 / 1024.0
}

/// A 40-cell bar of the pool's used fraction, with the tuner's free
/// band marked: `#` used, `.` free, `|` at the band edges (the tuner
/// steers the boundary between `#` and `.` to sit between the `|`s).
fn band_bar(snap: &MetricsSnapshot) -> String {
    const W: usize = 40;
    let used = ((snap.used_percent() / 100.0) * W as f64).round() as usize;
    // Free fraction is measured from the right edge.
    let lo = W - ((snap.max_free_fraction * W as f64).round() as usize).min(W);
    let hi = W - ((snap.min_free_fraction * W as f64).round() as usize).min(W);
    let mut bar = String::with_capacity(W + 2);
    for i in 0..W {
        if i == lo || i == hi {
            bar.push('|');
        } else if i < used {
            bar.push('#');
        } else {
            bar.push('.');
        }
    }
    bar
}

fn fmt_event(e: &JournalEvent) -> String {
    let at = format!("{:>8.3}s", e.at_ms as f64 / 1000.0);
    match e.kind {
        EventKind::Escalation {
            app,
            table,
            exclusive,
        } => format!(
            "{at}  escalation      app {} table {}{}",
            app.0,
            table.0,
            if exclusive { " (exclusive)" } else { "" }
        ),
        EventKind::DeadlockVictim { app } => {
            format!("{at}  deadlock victim app {}", app.0)
        }
        EventKind::SyncGrowth { granted_bytes } => {
            format!("{at}  sync growth     +{:.0} KiB", kib(granted_bytes))
        }
        EventKind::TunerResize {
            from_bytes,
            to_bytes,
        } => format!(
            "{at}  tuner resize    {:.0} -> {:.0} KiB",
            kib(from_bytes),
            kib(to_bytes)
        ),
        EventKind::DepotReclaim { slots } => {
            format!("{at}  depot reclaim   {slots} slots")
        }
        EventKind::WatchdogRestart { thread } => {
            format!("{at}  job recovered   {thread:?} panic caught in place")
        }
        EventKind::ClientEvicted { app } => {
            format!("{at}  client evicted  app {} (reply queue stuck)", app.0)
        }
        EventKind::ShedEngaged { ooms } => {
            format!("{at}  shed engaged    {ooms} OOM denials in window")
        }
        EventKind::ShedReleased => {
            format!("{at}  shed released   pressure cleared")
        }
        EventKind::FaultInjected { site, count } => {
            format!("{at}  fault injected  site {site} x{count}")
        }
        EventKind::RemoteCancel { app } => {
            format!(
                "{at}  remote cancel   app {} (cluster deadlock victim)",
                app.0
            )
        }
        EventKind::EpochBump { epoch } => {
            format!("{at}  epoch bump      fence raised to {epoch}")
        }
        EventKind::RequestFenced { epoch } => {
            format!("{at}  request fenced  stale epoch {epoch}")
        }
    }
}

/// The counters `first..=last` in table order as `name value` pairs:
/// a counter declared inside the span shows up with no edit here.
fn counter_span(c: &ObsCounters, first: &str, last: &str) -> String {
    let rows: Vec<_> = c.iter().collect();
    let at = |name| {
        rows.iter()
            .position(|r| r.0 == name)
            .expect("a table counter")
    };
    let span = &rows[at(first)..=at(last)];
    span.iter()
        .map(|(name, _, v)| format!("  {name} {v}"))
        .collect()
}

fn draw(addr: &str, snap: &MetricsSnapshot, prev: Option<&MetricsSnapshot>) {
    let s = &snap.lock_stats;
    let c = &snap.counters;
    let dt_ms = prev.map_or(0, |p| snap.uptime_ms.saturating_sub(p.uptime_ms));
    let (grants_s, waits_s, esc_s, victims_s) = match prev {
        Some(p) => (
            rate(s.grants, p.lock_stats.grants, dt_ms),
            rate(s.waits, p.lock_stats.waits, dt_ms),
            rate(s.escalations, p.lock_stats.escalations, dt_ms),
            rate(c.deadlock_victims, p.counters.deadlock_victims, dt_ms),
        ),
        None => (0.0, 0.0, 0.0, 0.0),
    };
    let wait = &snap.lock_wait_micros;
    let latch = &snap.latch_hold_nanos;

    // ANSI clear + home; plain prints below so the page also reads
    // fine when piped to a file.
    print!("\x1b[2J\x1b[H");
    println!(
        "locktune-top — {addr}   up {:.1}s   apps {}   scrape Δ {}ms",
        snap.uptime_ms as f64 / 1000.0,
        snap.connected_apps,
        dt_ms
    );
    println!(
        "\nlock memory  {:>10.0} KiB   slots {}/{}   free {:.3} (band {:.2}–{:.2}{})",
        kib(snap.pool_bytes),
        snap.pool_slots_used,
        snap.pool_slots_total,
        snap.free_fraction,
        snap.min_free_fraction,
        snap.max_free_fraction,
        if snap.in_free_band() { ", in band" } else { "" },
    );
    println!("  [{}]", band_bar(snap));
    println!(
        "MAXLOCKS     app_percent {:>6.2}%  (P·(1−(x/100)³) at x = {:.1}% used)",
        snap.app_percent,
        snap.used_percent()
    );
    println!(
        "tuning       {} intervals ({} grow, {} shrink)   sync growth {} granted / {} denied",
        snap.tuning_intervals,
        snap.grow_decisions,
        snap.shrink_decisions,
        c.sync_growth_granted,
        c.sync_growth_denied,
    );
    println!(
        "\nrates        grants {grants_s:>9.1}/s   waits {waits_s:>7.1}/s   escalations {esc_s:>6.1}/s   victims {victims_s:>5.1}/s"
    );
    println!(
        "totals       grants {:>9}   waits {:>7}   escalations {:>6}   timeouts {}   victims {}",
        s.grants, s.waits, s.escalations, c.timeouts, c.deadlock_victims,
    );
    println!(
        "lock wait    p50 {:>6}µs   p99 {:>6}µs   max {:>6}µs   ({} waits timed)",
        wait.quantile(0.5),
        wait.quantile(0.99),
        wait.max,
        wait.count(),
    );
    println!(
        "latch hold   p50 {:>6}ns   p99 {:>6}ns   max {:>6}ns   (1-in-{} sampled)",
        latch.quantile(0.5),
        latch.quantile(0.99),
        latch.max,
        locktune_obs::LATCH_SAMPLE_PERIOD,
    );
    println!(
        "batches      {} batches, {} items (mean {} items/batch)   reply-queue hwm {}",
        c.batches,
        c.batch_items,
        snap.batch_size.mean(),
        snap.reply_queue_hwm,
    );
    println!(
        "resilience {}",
        counter_span(c, "watchdog_restarts", "faults_injected")
    );
    println!(
        "failover     epoch {} {}",
        snap.fence_epoch,
        counter_span(c, "failover_probes", "degraded_batches")
    );

    // Present only when the server runs the evented I/O core: one row
    // per epoll shard thread.
    if !snap.io_shards.is_empty() {
        println!("\nio shards    ({} event loops)", snap.io_shards.len());
        for sh in &snap.io_shards {
            let coalesce = if sh.writev_calls == 0 {
                0.0
            } else {
                sh.writev_frames as f64 / sh.writev_calls as f64
            };
            // Share of readiness waits the spin caught before the
            // shard blocked in epoll_wait; ~0 % on an idle server.
            let waits = sh.spin_hits + sh.parks;
            let spun = if waits == 0 {
                0.0
            } else {
                100.0 * sh.spin_hits as f64 / waits as f64
            };
            println!(
                "  shard {:>2}   conns {:>6}   wakeups {:>9}   writev {:>9} ({:.2} frames/call)   write hwm {:>8} B   waits {:>9} ({:.0}% spun)",
                sh.shard, sh.connections, sh.wakeups, sh.writev_calls, coalesce, sh.write_buf_hwm, waits, spun,
            );
        }
    }

    if !snap.ticks.is_empty() {
        println!("\nrecent tuning ticks");
        for t in snap.ticks.iter().rev().take(4) {
            println!(
                "  #{:<5} {:?}: {:.0} -> {:.0} KiB (target {:.0}, +{:.0}/-{:.0})",
                t.seq,
                t.reason,
                kib(t.current_bytes),
                kib(t.lock_bytes_after),
                kib(t.target_bytes),
                kib(t.funded_bytes),
                kib(t.released_bytes),
            );
        }
    }
    if !snap.events.is_empty() {
        println!(
            "\nevents (journal: {} recorded, {} dropped)",
            c.journal_recorded, c.journal_dropped
        );
        for e in snap.events.iter().rev().take(8) {
            println!("  {}", fmt_event(e));
        }
    }
    use std::io::Write;
    let _ = std::io::stdout().flush();
}
