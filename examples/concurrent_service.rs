//! Concurrent service: the paper's §5 workload — short OLTP
//! transactions with DSS scans injected on top — run by worker threads
//! against the sharded lock service while the STMM tuning thread
//! resizes the pool live, then both tuner directions forced
//! deterministically, then the accounting audit.
//!
//! 1. **Mixed storm.** Four workers each run 300 transactions rolled
//!    from one [`Mix`] (OLTP: IX + 8 X rows; a quarter are DSS scans:
//!    IS + 600 contiguous S rows) through the shared transaction loop.
//!    The tuner ticks every 25 ms and the pool starts at 256 KiB, so
//!    the scans make it grow.
//! 2. **Held pressure.** One session on a private table holds slots
//!    until the used fraction is 10 % past `1 - minFreeLockMemory`;
//!    the next tuning interval must grow (or keep) the pool.
//! 3. **Quiescence.** Four intervals over the idle pool, whose free
//!    fraction is above `maxFreeLockMemory`: δ_reduce shrinks.
//! 4. **Audit.** `validate()` checks every shard against the pool.
//!
//! Exits non-zero if the held-pressure interval shrinks the pool or
//! the accounting diverges.
//!
//! ```text
//! cargo run --release -p locktune-examples --bin concurrent_service
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use locktune_lockmgr::{AppId, LockMode, ResourceId, RowId, TableId};
use locktune_memory::IntervalReport;
use locktune_service::{txn, LockService, ServiceConfig, Tally};
use locktune_sim::SimRng;
use locktune_workload::Mix;

const WORKERS: u32 = 4;
const TXNS_PER_WORKER: u64 = 300;
const SEED: u64 = 42;

fn decision(r: &IntervalReport) -> String {
    let d = &r.decision;
    if d.grow_bytes() > 0 {
        format!("grow +{} bytes", d.grow_bytes())
    } else if d.shrink_bytes() > 0 {
        format!("shrink -{} bytes", d.shrink_bytes())
    } else {
        "no change".to_string()
    }
}

fn main() {
    let mut config = ServiceConfig::fast(4);
    config.tuning_interval = Duration::from_millis(25);
    config.initial_lock_bytes = 256 * 1024;
    let service = Arc::new(LockService::start(config).unwrap_or_else(|e| {
        eprintln!("service start failed: {e}");
        std::process::exit(e.exit_code());
    }));
    println!(
        "service up: {} shards, tuning every {:?}, pool {} bytes",
        service.shard_count(),
        service.config().tuning_interval,
        service.pool_stats().bytes
    );

    // Phase 1: the mixed storm.
    let mix = Mix::new(16, 2_000, 8)
        .and_then(|m| m.with_dss(600, 25))
        .expect("a valid mix");
    let start = Instant::now();
    let workers: Vec<_> = (0..WORKERS)
        .map(|w| {
            let service = Arc::clone(&service);
            std::thread::spawn(move || {
                let mut session = service.connect(AppId(w + 1));
                let mut rng = SimRng::seed_from_u64(SEED + u64::from(w));
                let mut tally = Tally::default();
                let Ok(()) = txn::run(&mut session, &mix, &mut rng, TXNS_PER_WORKER, &mut tally);
                tally
            })
        })
        .collect();
    let mut tally = Tally::default();
    for w in workers {
        tally.merge(&w.join().expect("worker panicked"));
    }
    let secs = start.elapsed().as_secs_f64();
    let stats = service.stats();
    println!("--- mixed storm: {WORKERS} workers x {TXNS_PER_WORKER} txns ---");
    print!("{tally}");
    println!(
        "throughput:        {:.0} txn/s",
        tally.get(txn::TxnOutcome::Committed) as f64 / secs
    );
    println!("escalations:       {}", stats.escalations);
    println!("queue waits:       {}", stats.waits);

    // Phase 2: hold more than (1 - minFree) of the pool's slots, so
    // the next interval sees the free target breached.
    let holder = service.connect(AppId(10_000));
    let total = service.pool_stats().slots_total;
    let want_used = ((1.0 - service.params().min_free_fraction) * total as f64) as u64 + total / 10;
    let table = TableId(u32::MAX);
    holder
        .lock(ResourceId::Table(table), LockMode::IX)
        .expect("private table");
    let mut row = 0u64;
    while service.pool_used_slots() < want_used {
        holder
            .lock(ResourceId::Row(table, RowId(row)), LockMode::X)
            .expect("the pool grows synchronously");
        row += 1;
    }
    let held = service.run_tuning_interval_now();
    println!("held pressure:     {row} rows held, {}", decision(&held));
    if held.decision.shrink_bytes() > 0 {
        eprintln!("FAILED: a pool under free-target pressure shrank");
        std::process::exit(1);
    }
    holder
        .unlock_all()
        .expect("an uncontended holder never waits, so it cannot be a victim");

    // Phase 3: a quiescent pool gives memory back by δ_reduce.
    for i in 1..=4 {
        let r = service.run_tuning_interval_now();
        println!("quiescent {i}:       {}", decision(&r));
    }

    let counters = service.tuning_counters();
    let peak = service
        .tuning_reports()
        .iter()
        .map(|r| r.lock_bytes_after)
        .max()
        .unwrap_or(0);
    println!(
        "tuning:            {} grows, {} shrinks, peak pool {peak} bytes, final {} bytes",
        counters.grow_decisions,
        counters.shrink_decisions,
        service.pool_stats().bytes
    );

    // Phase 4: zero divergence per shard and across shards (panics,
    // exiting non-zero, otherwise).
    service.validate();
    println!(
        "accounting: zero divergence across {} shards",
        service.shard_count()
    );
}
