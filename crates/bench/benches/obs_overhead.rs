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
//! The benchmark *names* encode which build ran (`…_obs` /
//! `…_noobs`), so criterion keeps both result sets side by side under
//! `target/criterion/obs_overhead/` and the comparison is a plain
//! read-off. The acceptance bar (EXPERIMENTS.md) is the instrumented
//! build within 2% of the obs-off build.
//!
//! What the instrumented hot path adds per lock op: a sampled
//! (1-in-64) shard-latch timing pair, batch-size recording on
//! `lock_many`, and wait timing that only runs on requests that
//! queue — the disjoint workload never queues, so this measures the
//! pure bookkeeping floor: the sampling counter tick plus the
//! feature-gated branches.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};

use locktune_lockmgr::{AppId, LockMode, ResourceId, RowId, TableId};
use locktune_service::{LockService, ServiceConfig};
use std::sync::Arc;
use std::time::Duration;

const TXNS_PER_THREAD: u64 = 400;
const ROWS_PER_TXN: u64 = 20;

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

fn bench_obs_overhead(c: &mut Criterion) {
    let variant = if cfg!(feature = "obs") {
        "obs"
    } else {
        "noobs"
    };
    let mut g = c.benchmark_group("obs_overhead");
    for threads in [1u32, 4] {
        let locks = threads as u64 * TXNS_PER_THREAD * (ROWS_PER_TXN + 1);
        g.throughput(Throughput::Elements(locks));
        g.bench_function(format!("disjoint_{threads}_threads_{variant}"), |b| {
            b.iter_batched(
                service,
                |svc| {
                    run_disjoint(&svc, threads);
                    svc
                },
                BatchSize::LargeInput,
            )
        });
        g.bench_function(format!("batched_{threads}_threads_{variant}"), |b| {
            b.iter_batched(
                service,
                |svc| {
                    run_disjoint_batched(&svc, threads);
                    svc
                },
                BatchSize::LargeInput,
            )
        });
    }
    g.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_obs_overhead
);
criterion_main!(benches);
