//! The Prometheus page, family by family, against `prom_golden.txt`: a
//! page captured before the renderer became a loop over the counter
//! table. A family is its `# HELP`, `# TYPE` and sample lines. Family
//! order may change; nothing else may, except the families listed in
//! `ADDED`. If this fails, the page a scraper sees changed: fix the
//! renderer, never the corpus.

use std::collections::BTreeMap;

use locktune_lockmgr::LockStats;
use locktune_metrics::{AtomicHistogram, HistogramSnapshot};
use locktune_obs::{prom, IoShardStats, MetricsSnapshot, ObsCounters};

const GOLDEN: &str = include_str!("prom_golden.txt");

/// The family added since the corpus was captured (it had been in the
/// Metrics frame all along but never reached the page).
const ADDED: &str = "locktune_sync_growth_granted_total";

/// Split a page into families keyed by name; a name seen twice fails.
fn families(page: &str) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    let mut current = String::new();
    for line in page.lines() {
        if let Some(help) = line.strip_prefix("# HELP ") {
            current = help.split(' ').next().unwrap().to_string();
            assert!(
                out.insert(current.clone(), String::new()).is_none(),
                "family {current} appears twice"
            );
        }
        let family = out.get_mut(&current).expect("a sample before any # HELP");
        family.push_str(line);
        family.push('\n');
    }
    out
}

fn histogram(samples: &[u64]) -> HistogramSnapshot {
    let h = AtomicHistogram::new();
    for &s in samples {
        h.record(s);
    }
    h.snapshot()
}

/// A snapshot with a distinct value in every field.
fn snapshot() -> MetricsSnapshot {
    let mut n = 100;
    let mut v = || {
        n += 1;
        n
    };
    #[rustfmt::skip]
    let lock_stats = LockStats {
        grants: v(), waits: v(), conversions: v(), covered_by_table: v(), escalations: v(),
        exclusive_escalations: v(), rows_escalated: v(), voluntary_escalations: v(),
        sync_growth_requests: v(), sync_growth_denied: v(), denials: v(), queue_grants: v(),
        cancelled_waits: v(), deadlock_aborts: v(),
    };
    #[rustfmt::skip]
    let counters = ObsCounters {
        timeouts: v(), batches: v(), batch_items: v(), deadlock_victims: v(),
        sync_growth_granted: v(), sync_growth_denied: v(), depot_reclaim_sweeps: v(),
        depot_reclaimed_slots: v(), journal_recorded: v(), journal_dropped: v(),
        watchdog_restarts: v(), clients_evicted: v(), shed_engaged: v(), shed_released: v(),
        shed_rejected: v(), faults_injected: v(), remote_cancels: v(), failover_probes: v(),
        epoch_bumps: v(), fenced_requests: v(), degraded_batches: v(), grant_spin_hits: v(),
        grant_parks: v(),
    };
    #[rustfmt::skip]
    let mut io_shard = |shard| IoShardStats {
        shard, connections: v(), wakeups: v(), writev_calls: v(), writev_frames: v(),
        write_buf_hwm: v(), spin_hits: v(), parks: v(),
    };
    let io_shards = vec![io_shard(0), io_shard(1)];
    MetricsSnapshot {
        uptime_ms: 12_345,
        lock_stats,
        counters,
        pool_bytes: 1 << 20,
        pool_slots_total: 16_384,
        pool_slots_used: 4_097,
        connected_apps: 9,
        app_percent: 57.5,
        min_free_fraction: 0.25,
        max_free_fraction: 0.5,
        free_fraction: 0.375,
        tuning_intervals: 31,
        grow_decisions: 7,
        shrink_decisions: 5,
        reply_queue_hwm: 13,
        fence_epoch: 3,
        lock_wait_micros: histogram(&[3, 40, 500, 6_000]),
        latch_hold_nanos: histogram(&[70, 90, 1_200]),
        batch_size: histogram(&[1, 8, 64]),
        sync_stall_micros: histogram(&[250, 9_000]),
        events: Vec::new(),
        next_event_seq: 17,
        ticks: Vec::new(),
        next_tick_seq: 19,
        io_shards,
    }
}

#[test]
fn page_matches_the_captured_families() {
    let snap = snapshot();
    let mut page = families(&prom::render(&snap));
    let name = ADDED;
    let added = format!(
        "# HELP {name} Synchronous growth attempts granted.\n\
         # TYPE {name} counter\n{name} {}\n",
        snap.counters.sync_growth_granted
    );
    assert_eq!(page.remove(ADDED), Some(added));
    assert_eq!(page, families(GOLDEN));
}
