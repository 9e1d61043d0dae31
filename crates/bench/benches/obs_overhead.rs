//! A/B cost of the always-on telemetry layer (`locktune-obs`).
//!
//! Runs a disjoint OLTP workload — the pure fast path, where
//! instrumentation overhead has nowhere to hide behind contention —
//! twice:
//!
//! ```text
//! cargo bench -p locktune-bench --bench obs_overhead                # obs ON
//! cargo bench -p locktune-bench --bench obs_overhead \
//!     --no-default-features                                         # obs OFF
//! ```
//!
//! Each case prints the median of ten runs, each on a fresh service
//! whose start-up is not timed, under a name that encodes which build
//! ran (`…_obs` / `…_noobs`), so the two invocations' lines compare as
//! a plain read-off. The acceptance bar (EXPERIMENTS.md) is the
//! instrumented build within 2% of the obs-off build.
//!
//! What the instrumented hot path adds per lock op: a sampled
//! (1-in-64) shard-latch timing pair, batch-size recording on
//! `lock_many`, and wait timing that only runs on requests that
//! queue — the disjoint workload never queues, so this measures the
//! pure bookkeeping floor: the sampling counter tick plus the
//! feature-gated branches.

use locktune_lockmgr::{AppId, LockMode, ResourceId, RowId, TableId};
use locktune_service::{LockService, ServiceConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TXNS_PER_THREAD: u64 = 400;
const ROWS_PER_TXN: u64 = 20;
const SAMPLES: usize = 10;

/// Background timers parked past the measurement so the A/B isolates
/// the lock path.
fn service() -> Arc<LockService> {
    let config = ServiceConfig {
        shards: 4,
        tuning_interval: Duration::from_secs(3600),
        deadlock_interval: Duration::from_secs(3600),
        lock_wait_timeout: None,
        initial_lock_bytes: 64 << 20,
        ..ServiceConfig::default()
    };
    Arc::new(LockService::start(config).expect("service start"))
}

fn run_disjoint(svc: &Arc<LockService>, threads: u32) {
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let svc = Arc::clone(svc);
            std::thread::spawn(move || {
                let session = svc.connect(AppId(t + 1));
                let table = TableId(t);
                for txn in 0..TXNS_PER_THREAD {
                    session
                        .lock(ResourceId::Table(table), LockMode::IX)
                        .unwrap();
                    for r in 0..ROWS_PER_TXN {
                        let row = RowId(txn * ROWS_PER_TXN + r);
                        session
                            .lock(ResourceId::Row(table, row), LockMode::X)
                            .unwrap();
                    }
                    session.unlock_all().unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}

/// The batched variant exercises `lock_many`'s batch-size recording.
fn run_disjoint_batched(svc: &Arc<LockService>, threads: u32) {
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let svc = Arc::clone(svc);
            std::thread::spawn(move || {
                let session = svc.connect(AppId(t + 1));
                let table = TableId(t);
                let mut reqs = Vec::with_capacity(ROWS_PER_TXN as usize + 1);
                let mut out = Vec::new();
                for txn in 0..TXNS_PER_THREAD {
                    reqs.clear();
                    reqs.push((ResourceId::Table(table), LockMode::IX));
                    for r in 0..ROWS_PER_TXN {
                        let row = RowId(txn * ROWS_PER_TXN + r);
                        reqs.push((ResourceId::Row(table, row), LockMode::X));
                    }
                    session.lock_many_into(&reqs, &mut out);
                    for o in &out {
                        assert!(matches!(o, locktune_service::BatchOutcome::Done(Ok(_))));
                    }
                    session.unlock_all().unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}

/// Median wall time of [`SAMPLES`] runs of `run`, each on a fresh
/// service; starting and stopping the service is not timed.
fn median_time(run: impl Fn(&Arc<LockService>)) -> Duration {
    let mut samples: Vec<Duration> = (0..SAMPLES)
        .map(|_| {
            let svc = service();
            let start = Instant::now();
            run(&svc);
            start.elapsed()
        })
        .collect();
    samples.sort();
    samples[SAMPLES / 2]
}

fn main() {
    let variant = if cfg!(feature = "obs") {
        "obs"
    } else {
        "noobs"
    };
    println!("== obs_overhead: median of {SAMPLES} runs per case ==");
    for threads in [1u32, 4] {
        let locks = threads as u64 * TXNS_PER_THREAD * (ROWS_PER_TXN + 1);
        for case in ["disjoint", "batched"] {
            let run = if case == "disjoint" {
                run_disjoint
            } else {
                run_disjoint_batched
            };
            let median = median_time(|svc| run(svc, threads));
            println!(
                "  {:<28} {:>9.2} ms  {:>6.2} Mlocks/s",
                format!("{case}_{threads}_threads_{variant}"),
                median.as_secs_f64() * 1e3,
                locks as f64 / median.as_secs_f64() / 1e6,
            );
        }
    }
}
