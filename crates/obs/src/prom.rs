//! Prometheus-style text exposition of a [`MetricsSnapshot`].
//!
//! One flat page of `locktune_*` series in the classic text format:
//! `# HELP`/`# TYPE` headers, counters suffixed `_total`, histograms
//! exposed as pre-computed `{quantile="…"}` summaries plus `_sum` and
//! `_count` (log2 buckets don't map onto Prometheus' cumulative `le`
//! buckets without lying about edges, and the dashboard consumes
//! quantiles anyway).

use std::fmt::Write;

use crate::snapshot::MetricsSnapshot;

fn gauge(out: &mut String, name: &str, help: &str, v: f64) {
    let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {v}");
}

fn counter(out: &mut String, name: &str, help: &str, v: u64) {
    let _ = writeln!(
        out,
        "# HELP {name} {help}\n# TYPE {name} counter\n{name} {v}"
    );
}

/// One counter family with a `site` label per park site.
fn counter_by_site(out: &mut String, name: &str, help: &str, sites: &[(&str, u64)]) {
    let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} counter");
    for (site, v) in sites {
        let _ = writeln!(out, "{name}{{site=\"{site}\"}} {v}");
    }
}

fn summary(out: &mut String, name: &str, help: &str, h: &locktune_metrics::HistogramSnapshot) {
    let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} summary");
    for q in [0.5, 0.9, 0.99] {
        let _ = writeln!(out, "{name}{{quantile=\"{q}\"}} {}", h.quantile(q));
    }
    let _ = writeln!(out, "{name}_sum {}", h.sum);
    let _ = writeln!(out, "{name}_count {}", h.count());
    let _ = writeln!(out, "{name}_max {}", h.max);
}

/// Render `snap` as a Prometheus text page.
pub fn render(snap: &MetricsSnapshot) -> String {
    let mut out = String::with_capacity(4096);
    let s = &snap.lock_stats;
    let c = &snap.counters;

    gauge(
        &mut out,
        "locktune_uptime_seconds",
        "Seconds since the service started.",
        snap.uptime_ms as f64 / 1000.0,
    );
    gauge(
        &mut out,
        "locktune_lock_memory_bytes",
        "Lock pool size (the tuned LOCKLIST).",
        snap.pool_bytes as f64,
    );
    gauge(
        &mut out,
        "locktune_lock_slots_total",
        "Lock-structure slots in the pool.",
        snap.pool_slots_total as f64,
    );
    gauge(
        &mut out,
        "locktune_lock_slots_used",
        "Allocated lock-structure slots.",
        snap.pool_slots_used as f64,
    );
    gauge(
        &mut out,
        "locktune_free_fraction",
        "Free fraction of the pool (tuner steers this into the band).",
        snap.free_fraction,
    );
    gauge(
        &mut out,
        "locktune_free_fraction_min",
        "Lower edge of the tuner's free-fraction target band.",
        snap.min_free_fraction,
    );
    gauge(
        &mut out,
        "locktune_free_fraction_max",
        "Upper edge of the tuner's free-fraction target band.",
        snap.max_free_fraction,
    );
    gauge(
        &mut out,
        "locktune_app_percent",
        "Externalized lockPercentPerApplication (MAXLOCKS curve).",
        snap.app_percent,
    );
    gauge(
        &mut out,
        "locktune_connected_apps",
        "Applications with a live session.",
        snap.connected_apps as f64,
    );
    gauge(
        &mut out,
        "locktune_reply_queue_hwm",
        "High-water mark of the server reply queues, in frames.",
        snap.reply_queue_hwm as f64,
    );
    gauge(
        &mut out,
        "locktune_fence_epoch",
        "Current partition-map fence epoch (0 = not under a supervisor).",
        snap.fence_epoch as f64,
    );

    counter(
        &mut out,
        "locktune_grants_total",
        "Immediate grants.",
        s.grants,
    );
    counter(
        &mut out,
        "locktune_waits_total",
        "Requests that queued.",
        s.waits,
    );
    counter(
        &mut out,
        "locktune_queue_grants_total",
        "Waiters granted from queues.",
        s.queue_grants,
    );
    counter(
        &mut out,
        "locktune_escalations_total",
        "Lock escalations.",
        s.escalations,
    );
    counter(
        &mut out,
        "locktune_exclusive_escalations_total",
        "Escalations whose table lock was exclusive.",
        s.exclusive_escalations,
    );
    counter(
        &mut out,
        "locktune_rows_escalated_total",
        "Row locks released by escalations.",
        s.rows_escalated,
    );
    counter(
        &mut out,
        "locktune_sync_growth_requests_total",
        "Dry-pool synchronous growth attempts.",
        s.sync_growth_requests,
    );
    counter(
        &mut out,
        "locktune_sync_growth_denied_total",
        "Synchronous growth attempts denied.",
        s.sync_growth_denied,
    );
    counter(
        &mut out,
        "locktune_denials_total",
        "Requests denied outright (out of lock memory).",
        s.denials,
    );
    counter(
        &mut out,
        "locktune_deadlock_aborts_total",
        "Per-shard abort operations for deadlock victims.",
        s.deadlock_aborts,
    );
    counter(
        &mut out,
        "locktune_deadlock_victims_total",
        "Applications aborted by the deadlock sweeper.",
        c.deadlock_victims,
    );
    counter(
        &mut out,
        "locktune_timeouts_total",
        "Lock waits that ended in LOCKTIMEOUT.",
        c.timeouts,
    );
    counter(
        &mut out,
        "locktune_batches_total",
        "lock_many batches.",
        c.batches,
    );
    counter(
        &mut out,
        "locktune_batch_items_total",
        "Items across all batches.",
        c.batch_items,
    );
    counter(
        &mut out,
        "locktune_tuning_intervals_total",
        "Tuning intervals run.",
        snap.tuning_intervals,
    );
    counter(
        &mut out,
        "locktune_grow_decisions_total",
        "Intervals that grew the pool.",
        snap.grow_decisions,
    );
    counter(
        &mut out,
        "locktune_shrink_decisions_total",
        "Intervals that shrank the pool.",
        snap.shrink_decisions,
    );
    counter(
        &mut out,
        "locktune_watchdog_restarts_total",
        "Dead tuner/sweeper threads respawned by the watchdog.",
        c.watchdog_restarts,
    );
    counter(
        &mut out,
        "locktune_clients_evicted_total",
        "Clients evicted for a reply queue stuck at capacity.",
        c.clients_evicted,
    );
    counter(
        &mut out,
        "locktune_shed_engaged_total",
        "Times shed mode engaged under sustained pool exhaustion.",
        c.shed_engaged,
    );
    counter(
        &mut out,
        "locktune_shed_released_total",
        "Times shed mode released.",
        c.shed_released,
    );
    counter(
        &mut out,
        "locktune_shed_rejected_total",
        "Lock requests rejected while shed mode was engaged.",
        c.shed_rejected,
    );
    counter(
        &mut out,
        "locktune_faults_injected_total",
        "Deliberately injected faults (faults feature only).",
        c.faults_injected,
    );
    counter(
        &mut out,
        "locktune_remote_cancels_total",
        "Waits cancelled for a remote cluster deadlock detector.",
        c.remote_cancels,
    );
    counter(
        &mut out,
        "locktune_failover_probes_total",
        "Cluster-supervisor health probes answered.",
        c.failover_probes,
    );
    counter(
        &mut out,
        "locktune_epoch_bumps_total",
        "Fence-epoch advances (partition-map changes applied).",
        c.epoch_bumps,
    );
    counter(
        &mut out,
        "locktune_fenced_requests_total",
        "Lock requests fenced with WrongEpoch for a stale epoch.",
        c.fenced_requests,
    );
    counter(
        &mut out,
        "locktune_degraded_batches_total",
        "Batches served while holding slots reassigned from a dead peer.",
        c.degraded_batches,
    );
    // The spin-then-park policy, per park site: grant waits from the
    // service's own counters, readiness waits summed over the I/O
    // shards (absent — zero — on a server without the evented core).
    let io_spin_hits = snap.io_shards.iter().map(|s| s.spin_hits).sum();
    let io_parks = snap.io_shards.iter().map(|s| s.parks).sum();
    counter_by_site(
        &mut out,
        "locktune_wake_spin_hits_total",
        "Waits resolved by a spin probe, without parking the thread.",
        &[("grant", c.grant_spin_hits), ("io_shard", io_spin_hits)],
    );
    counter_by_site(
        &mut out,
        "locktune_wake_parks_total",
        "Waits that parked in their blocking call.",
        &[("grant", c.grant_parks), ("io_shard", io_parks)],
    );
    counter(
        &mut out,
        "locktune_journal_events_total",
        "Events recorded into the journal.",
        c.journal_recorded,
    );
    counter(
        &mut out,
        "locktune_journal_dropped_total",
        "Events dropped because the journal was full.",
        c.journal_dropped,
    );

    summary(
        &mut out,
        "locktune_lock_wait_micros",
        "Queue-to-resolution time of blocked lock requests (µs).",
        &snap.lock_wait_micros,
    );
    summary(
        &mut out,
        "locktune_latch_hold_nanos",
        "Sampled shard-latch hold times (ns).",
        &snap.latch_hold_nanos,
    );
    summary(
        &mut out,
        "locktune_batch_size",
        "Items per lock_many batch.",
        &snap.batch_size,
    );
    summary(
        &mut out,
        "locktune_sync_stall_micros",
        "Stall time of requests that triggered synchronous growth (µs).",
        &snap.sync_stall_micros,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_key_series() {
        let mut snap = MetricsSnapshot {
            uptime_ms: 1500,
            pool_bytes: 1 << 20,
            app_percent: 57.5,
            ..Default::default()
        };
        snap.lock_stats.grants = 42;
        snap.counters.grant_parks = 7;
        snap.io_shards = vec![
            crate::IoShardStats {
                spin_hits: 5,
                ..Default::default()
            };
            2
        ];
        snap.lock_wait_micros = {
            let h = locktune_metrics::AtomicHistogram::new();
            h.record(100);
            h.snapshot()
        };
        let page = render(&snap);
        assert!(page.contains("locktune_uptime_seconds 1.5"));
        assert!(page.contains("locktune_lock_memory_bytes 1048576"));
        assert!(page.contains("locktune_app_percent 57.5"));
        assert!(page.contains("locktune_grants_total 42"));
        assert!(page.contains("locktune_lock_wait_micros{quantile=\"0.99\"}"));
        assert!(page.contains("locktune_lock_wait_micros_count 1"));
        assert!(page.contains("locktune_wake_parks_total{site=\"grant\"} 7"));
        assert!(page.contains("locktune_wake_spin_hits_total{site=\"io_shard\"} 10"));
        // Every series the CI smoke greps for must exist.
        for name in [
            "locktune_escalations_total",
            "locktune_deadlock_victims_total",
            "locktune_free_fraction",
            "locktune_tuning_intervals_total",
            "locktune_watchdog_restarts_total",
            "locktune_clients_evicted_total",
            "locktune_shed_engaged_total",
            "locktune_shed_released_total",
            "locktune_shed_rejected_total",
            "locktune_faults_injected_total",
            "locktune_remote_cancels_total",
            "locktune_fence_epoch",
            "locktune_failover_probes_total",
            "locktune_epoch_bumps_total",
            "locktune_fenced_requests_total",
            "locktune_degraded_batches_total",
        ] {
            assert!(page.contains(name), "missing {name}");
        }
    }
}
