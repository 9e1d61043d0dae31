//! Prometheus-style text exposition of a [`MetricsSnapshot`].
//!
//! One flat page of `locktune_*` series in the classic text format:
//! `# HELP`/`# TYPE` headers, counters suffixed `_total`, histograms
//! exposed as pre-computed `{quantile="…"}` summaries plus `_sum` and
//! `_count` (log2 buckets don't map onto Prometheus' cumulative `le`
//! buckets without lying about edges, and the dashboard consumes
//! quantiles anyway).
//!
//! The gauges, the lock manager's and tuner's counters and the
//! summaries are three tables here; the instrumentation counters come
//! from their own tables ([`ObsCounters::EXPORT`],
//! [`IoShardStats::EXPORT`]), so a counter added there reaches the page
//! with no edit to this file.

use std::fmt::Write;

use crate::snapshot::{Export, IoShardStats, MetricsSnapshot, ObsCounters};

fn header(out: &mut String, name: &str, help: &str, kind: &str) {
    let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} {kind}");
}

/// Render `snap` as a Prometheus text page.
pub fn render(snap: &MetricsSnapshot) -> String {
    let mut out = String::with_capacity(4096);
    let s = &snap.lock_stats;
    #[rustfmt::skip]
    let gauges = [
        ("locktune_uptime_seconds", "Seconds since the service started.", snap.uptime_ms as f64 / 1000.0),
        ("locktune_lock_memory_bytes", "Lock pool size (the tuned LOCKLIST).", snap.pool_bytes as f64),
        ("locktune_lock_slots_total", "Lock-structure slots in the pool.", snap.pool_slots_total as f64),
        ("locktune_lock_slots_used", "Allocated lock-structure slots.", snap.pool_slots_used as f64),
        ("locktune_free_fraction", "Free fraction of the pool (tuner steers this into the band).", snap.free_fraction),
        ("locktune_free_fraction_min", "Lower edge of the tuner's free-fraction target band.", snap.min_free_fraction),
        ("locktune_free_fraction_max", "Upper edge of the tuner's free-fraction target band.", snap.max_free_fraction),
        ("locktune_app_percent", "Externalized lockPercentPerApplication (MAXLOCKS curve).", snap.app_percent),
        ("locktune_connected_apps", "Applications with a live session.", snap.connected_apps as f64),
        ("locktune_reply_queue_hwm", "High-water mark of the server reply queues, in frames.", snap.reply_queue_hwm as f64),
        ("locktune_fence_epoch", "Current partition-map fence epoch (0 = not under a supervisor).", snap.fence_epoch as f64),
    ];
    #[rustfmt::skip]
    let counters = [
        ("locktune_grants_total", "Immediate grants.", s.grants),
        ("locktune_waits_total", "Requests that queued.", s.waits),
        ("locktune_queue_grants_total", "Waiters granted from queues.", s.queue_grants),
        ("locktune_escalations_total", "Lock escalations.", s.escalations),
        ("locktune_exclusive_escalations_total", "Escalations whose table lock was exclusive.", s.exclusive_escalations),
        ("locktune_rows_escalated_total", "Row locks released by escalations.", s.rows_escalated),
        ("locktune_sync_growth_requests_total", "Dry-pool synchronous growth attempts.", s.sync_growth_requests),
        ("locktune_sync_growth_denied_total", "Synchronous growth attempts denied.", s.sync_growth_denied),
        ("locktune_denials_total", "Requests denied outright (out of lock memory).", s.denials),
        ("locktune_deadlock_aborts_total", "Per-shard abort operations for deadlock victims.", s.deadlock_aborts),
        ("locktune_tuning_intervals_total", "Tuning intervals run.", snap.tuning_intervals),
        ("locktune_grow_decisions_total", "Intervals that grew the pool.", snap.grow_decisions),
        ("locktune_shrink_decisions_total", "Intervals that shrank the pool.", snap.shrink_decisions),
    ];
    #[rustfmt::skip]
    let summaries = [
        ("locktune_lock_wait_micros", "Queue-to-resolution time of blocked lock requests (µs).", &snap.lock_wait_micros),
        ("locktune_latch_hold_nanos", "Sampled shard-latch hold times (ns).", &snap.latch_hold_nanos),
        ("locktune_batch_size", "Items per lock_many batch.", &snap.batch_size),
        ("locktune_sync_stall_micros", "Stall time of requests that triggered synchronous growth (µs).", &snap.sync_stall_micros),
    ];

    for (name, help, v) in gauges {
        header(&mut out, name, help, "gauge");
        let _ = writeln!(out, "{name} {v}");
    }
    for (name, help, v) in counters {
        header(&mut out, name, help, "counter");
        let _ = writeln!(out, "{name} {v}");
    }
    // The counter tables: the service's own, then the I/O shards'
    // summed (all zero on a server without the evented core). A
    // site-labelled family gathers its samples and is written after.
    let mut io = IoShardStats::default();
    for row in &snap.io_shards {
        io.merge(row);
    }
    let table =
        (snap.counters.iter().zip(ObsCounters::EXPORT)).chain(io.iter().zip(IoShardStats::EXPORT));
    let mut sited: Vec<(&str, &str, String)> = Vec::new();
    for ((_, help, v), export) in table {
        match export {
            Export::Total(name) => {
                header(&mut out, name, help, "counter");
                let _ = writeln!(out, "{name} {v}");
            }
            Export::Site(name, site) => {
                let sample = format!("{name}{{site=\"{site}\"}} {v}\n");
                match sited.iter_mut().find(|f| f.0 == name) {
                    Some(family) => family.2.push_str(&sample),
                    None => sited.push((name, help, sample)),
                }
            }
            Export::Off => {}
        }
    }
    for (name, help, samples) in sited {
        header(&mut out, name, help, "counter");
        out.push_str(&samples);
    }
    for (name, help, h) in summaries {
        header(&mut out, name, help, "summary");
        for q in [0.5, 0.9, 0.99] {
            let _ = writeln!(out, "{name}{{quantile=\"{q}\"}} {}", h.quantile(q));
        }
        let _ = writeln!(out, "{name}_sum {}", h.sum);
        let _ = writeln!(out, "{name}_count {}", h.count());
        let _ = writeln!(out, "{name}_max {}", h.max);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_key_series() {
        let mut snap = MetricsSnapshot::default();
        snap.lock_stats.grants = 42;
        snap.counters.grant_parks = 7;
        snap.io_shards = vec![IoShardStats::default(); 2];
        snap.io_shards[0].spin_hits = 5;
        snap.io_shards[1].spin_hits = 5;
        let page = render(&snap);
        assert!(page.contains("\nlocktune_grants_total 42\n"));
        assert!(page.contains("locktune_wake_parks_total{site=\"grant\"} 7"));
        assert!(page.contains("locktune_wake_spin_hits_total{site=\"io_shard\"} 10"));
        // Every exported counter is on the page; reserved ones are not.
        assert!(!page.contains("depot_reclaim"));
        for export in ObsCounters::EXPORT {
            if let Export::Total(name) | Export::Site(name, _) = export {
                assert!(page.contains(&format!("\n{name}")), "missing {name}");
            }
        }
    }
}
