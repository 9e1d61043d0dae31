//! Names, units, directions and bounds: the one table every output,
//! `compare`, and the `BENCHMARK.json` cross-check test read.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the other side's median by which the metric may get
    /// worse before `compare` calls it a regression.
    pub bound: f64,
}

/// The gated end-to-end metrics, reported for every workload. Bounds
/// were fixed from repeated full sets on unchanged code (README,
/// "How the bounds were fixed").
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "locks_per_s",
        unit: "locks/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "txn_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_lock_bytes",
        unit: "bytes",
        better: Better::Lower,
        bound: 0.01,
    },
    EndToEnd {
        name: "cpu_us_per_lock",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// The end-to-end tail latency: printed by every run, reported by the
/// traced pass as a per-layer row, never gated. Its run-to-run spread
/// on the reference host (0.18–0.29 on `inproc_oltp` and `wire_*`,
/// about 1.0 on `cluster_routed`) exceeds the widest bound a gated
/// metric may carry, and the gated lists cannot differ by workload.
pub const UNGATED_TAIL: (&str, &str) = ("txn_p99_us", "us");

/// End-to-end metrics that must be exactly zero on every workload.
/// They cannot sit in `BENCHMARK.json`'s gated list (a bound is a
/// share of the median, and the median is 0), so every run prints
/// them, the audit fails the run when either is non-zero, and
/// `compare` treats any increase as a regression.
pub const EXACT_ZERO: [(&str, &str); 2] = [("failed_share", "ratio"), ("escalations", "count")];

#[derive(Debug, Clone, Copy)]
pub struct WorkloadInfo {
    pub name: &'static str,
    pub why: &'static str,
}

/// Workload names are permanent; later issues cite them.
pub const WORKLOADS: [WorkloadInfo; 6] = [
    WorkloadInfo {
        name: "inproc_oltp",
        why: "The ceiling: private tables, so only service dispatch, the lockmgr grant fast path and memalloc slot recycling run; net, wire and cluster do nothing.",
    },
    WorkloadInfo {
        name: "inproc_contended",
        why: "Same three layers on the slow path: a 16-row hot set forces queue, grant-notice and spin-then-park handoff instead of the grant fast path.",
    },
    WorkloadInfo {
        name: "dss_surge",
        why: "The paper's Fig. 11 injection on the live service: the only workload where core decisions, synchronous growth and memalloc block grow/shrink run.",
    },
    WorkloadInfo {
        name: "wire_batch",
        why: "The production wire path: batch codec, evented I/O shard and service lock_many; lock work is about a third of the transaction.",
    },
    WorkloadInfo {
        name: "wire_single",
        why: "Same net and wire layers with the smallest messages: per-frame codec, per-frame dispatch through Session::lock, writev coalescing.",
    },
    WorkloadInfo {
        name: "cluster_routed",
        why: "Only workload where cluster group/fan-out/merge, the ReconnectingClient wrapper and the all-node unlock_all fan-out run (one routed client over two nodes).",
    },
];

/// Every per-layer metric a `--trace 1` run reports, with its unit.
/// Grouped by layer (crate); see the README for what each row times
/// and which end-to-end metric it should move.
pub const PER_LAYER: &[(&str, &str)] = &[
    // memalloc
    ("memalloc.alloc_free_ns", "ns"),
    ("memalloc.owned_alloc_free_ns", "ns"),
    ("memalloc.burst_ns_per_slot", "ns"),
    ("memalloc.grow_block_us", "us"),
    ("memalloc.shrink_block_us", "us"),
    ("memalloc.reclaim_sweeps", "count"),
    ("memalloc.reclaimed_slots", "count"),
    ("memalloc.exhaustions", "count"),
    // lockmgr
    ("lockmgr.grant_ns", "ns"),
    ("lockmgr.regrant_ns", "ns"),
    ("lockmgr.unlock_all_ns_per_lock", "ns"),
    ("lockmgr.queue_handoff_ns", "ns"),
    ("lockmgr.escalate_us", "us"),
    ("lockmgr.waits", "count"),
    ("lockmgr.escalations", "count"),
    ("lockmgr.deadlocks", "count"),
    // core
    ("core.tick_ns", "ns"),
    ("core.sync_growth_ns", "ns"),
    ("core.app_percent_ns", "ns"),
    // service
    ("service.lock_ns", "ns"),
    ("service.lock_many_ns_per_item", "ns"),
    ("service.unlock_all_ns_per_lock", "ns"),
    ("service.dispatch_ns", "ns"),
    ("service.wait_handoff_us", "us"),
    ("service.tuning_tick_us", "us"),
    ("service.observe_us", "us"),
    ("service.latch_hold_p50_ns", "ns"),
    ("service.latch_hold_p99_ns", "ns"),
    ("service.lock_wait_p50_us", "us"),
    ("service.lock_wait_p99_us", "us"),
    ("service.sync_stall_p50_us", "us"),
    ("service.sync_stall_p99_us", "us"),
    ("service.grow_decisions", "count"),
    ("service.shrink_decisions", "count"),
    ("service.sync_growth_granted", "count"),
    // net: wire codec
    ("wire.encode_batch_ns_per_item", "ns"),
    ("wire.decode_batch_ns_per_item", "ns"),
    ("wire.encode_outcomes_ns_per_item", "ns"),
    ("wire.decode_outcomes_ns_per_item", "ns"),
    ("wire.encode_request_ns", "ns"),
    ("wire.decode_request_ns", "ns"),
    ("wire.encode_reply_ns", "ns"),
    ("wire.decode_reply_ns", "ns"),
    ("wire.accum_ns_per_frame", "ns"),
    ("wire.bytes_per_lock", "bytes"),
    ("wire.allocs_per_cycle", "count"),
    // net: I/O
    ("net.ping_rtt_us", "us"),
    ("net.ping_rtt_loaded_us", "us"),
    ("net.connect_us", "us"),
    ("net.batch_txn_1c_us", "us"),
    ("net.client_send_us", "us"),
    ("net.client_wait_us", "us"),
    ("net.writev_frames_per_call", "ratio"),
    ("net.wakeups_per_txn", "ratio"),
    ("net.reply_queue_hwm", "count"),
    ("net.threaded_locks_per_s", "locks/s"),
    ("net.threaded_txn_p50_us", "us"),
    ("net.threaded_ping_rtt_us", "us"),
    // cluster
    ("cluster.route_1node_txn_us", "us"),
    ("cluster.route_overhead_us", "us"),
    ("cluster.fanout_2node_txn_us", "us"),
    ("cluster.unlock_all_fanout_us", "us"),
    // attribution: the layers must add up
    ("attrib.inproc_oltp.total_ns", "ns"),
    ("attrib.inproc_oltp.lockmgr_ns", "ns"),
    ("attrib.inproc_oltp.memalloc_ns", "ns"),
    ("attrib.inproc_oltp.dispatch_ns", "ns"),
    ("attrib.inproc_oltp.residual_ns", "ns"),
    ("attrib.wire_batch.total_us", "us"),
    ("attrib.wire_batch.service_us", "us"),
    ("attrib.wire_batch.codec_us", "us"),
    ("attrib.wire_batch.io_us", "us"),
    ("attrib.wire_batch.residual_us", "us"),
    // the traced workload itself: its ungated tail latency (from the
    // pass's untraced stretches), then what tracing cost and saw
    ("txn_p99_us", "us"),
    ("trace.overhead_pct", "%"),
    ("trace.txn_us", "us"),
    ("trace.txn_self_us", "us"),
    ("trace.sampled_txns", "count"),
];

/// Which way a per-layer row is better. Costs and counts of slow-path
/// events are better lower; only rates and coalescing ratios are
/// better higher. (Per-layer rows have no bound; the direction is for
/// the reader.)
pub fn layer_better(name: &str) -> Better {
    match name {
        "net.threaded_locks_per_s" | "net.writev_frames_per_call" | "trace.sampled_txns" => {
            Better::Higher
        }
        _ => Better::Lower,
    }
}

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 12;

/// The program and arguments `BENCHMARK.json` names; the driver
/// appends `--workload W --seed N --seconds S --trace 0|1`.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "perf/Cargo.toml",
    "--",
];

/// The text of `BENCHMARK.json`, generated from the tables above
/// (`locktune-perf benchmark-json > BENCHMARK.json`).
pub fn benchmark_json() -> String {
    use crate::json::{number, obj, Value};
    let s = |text: &str| Value::Str(text.into());
    let lines = |items: Vec<Value>| {
        let body: Vec<String> = items
            .iter()
            .map(|v| format!("    {}", v.render()))
            .collect();
        format!("[\n{}\n  ]", body.join(",\n"))
    };
    let workloads = WORKLOADS
        .iter()
        .map(|w| obj([("name", s(w.name)), ("why", s(w.why))]))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            obj([
                ("name", s(m.name)),
                ("unit", s(m.unit)),
                ("better", s(m.better.as_str())),
                ("bound", Value::Num(m.bound)),
            ])
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            obj([
                ("name", s(name)),
                ("unit", s(unit)),
                ("better", s(layer_better(name).as_str())),
            ])
        })
        .collect();
    format!(
        "{{\n  \"command\": {},\n  \"paths\": [\"perf\"],\n  \"run_seconds\": {},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        Value::Arr(COMMAND.iter().map(|c| s(c)).collect()).render(),
        number(f64::from(RUN_SECONDS)),
        lines(workloads),
        lines(end_to_end),
        lines(per_layer),
    )
}

/// Letters, digits, `_`, `.` and `-`; starts with a letter or digit; at
/// most 64 characters.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// At most 16 letters, digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use std::collections::HashSet;

    #[test]
    fn every_name_and_unit_is_well_formed_and_unique() {
        let mut seen = HashSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| (w.name, "count"))
            .chain(END_TO_END.iter().map(|m| (m.name, m.unit)))
            .chain(EXACT_ZERO)
            .chain(PER_LAYER.iter().copied());
        for (name, unit) in names {
            assert!(valid_name(name), "bad name {name:?}");
            assert!(valid_unit(unit), "bad unit {unit:?} on {name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(!valid_name(".hidden") && !valid_name("a b") && !valid_name(""));
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    /// `BENCHMARK.json` is generated, never edited: this pins the
    /// committed file to the tables the program reports from.
    #[test]
    fn benchmark_json_is_the_generated_text() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, benchmark_json());
        let doc = json::parse(&committed).expect("valid JSON");
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert!(committed.len() <= 64 * 1024);
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    }
}
