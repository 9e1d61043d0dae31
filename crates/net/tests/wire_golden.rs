//! Golden corpus for the wire protocol: the exact bytes of one frame
//! per request opcode, per reply opcode and per enum tag, captured
//! from the hand-written codec before it became a declaration table.
//! Every numeric field carries a distinct value ([`Vals`]), so a
//! transposed, dropped or re-widened field changes the bytes. Each
//! entry checks both directions: `encode(value) == hex` and
//! `decode(hex) == value`.
//!
//! This file is the layout referee. It is deliberately *not* derived
//! from the codec's tables — a test derived from a table agrees with
//! the table's own mistakes. Never regenerate it to make a change
//! pass: a diff here is a wire-format change every deployed peer sees.

use locktune_core::TuningReason;
use locktune_lockmgr::{
    AppId, LockError, LockMode, LockOutcome, LockStats, ResourceId, RowId, TableId, UnlockReport,
};
use locktune_metrics::{HistogramSnapshot, BUCKETS};
use locktune_net::wire::{
    decode_reply, decode_request, encode_reply, encode_request, Reply, Request, TenantCtl,
    TenantStatsReply, ValidateReport, WaitGraphReply, WireError,
};
use locktune_net::{MachineRollup, TenantDonation, TenantRow};
use locktune_obs::{
    EventKind, IoShardStats, JournalEvent, MetricsSnapshot, ObsCounters, ThreadRole, TuningTick,
};
use locktune_service::{BatchOutcome, ServiceError};

/// A source of distinct field values. Multiplying a counter by an odd
/// constant is a bijection modulo 2^n, so no two values repeat, and
/// every byte of each value is (almost always) non-zero — a field
/// read at the wrong width or offset cannot decode to itself.
struct Vals(u64);

impl Vals {
    fn new() -> Vals {
        Vals(0)
    }

    fn u64(&mut self) -> u64 {
        self.0 += 1;
        self.0.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    fn u32(&mut self) -> u32 {
        self.0 += 1;
        (self.0 as u32).wrapping_mul(0x9E37_79B9)
    }

    fn f64(&mut self) -> f64 {
        self.0 += 1;
        self.0 as f64 * 1.5 + 0.125
    }
}

fn unhex(s: &str) -> Vec<u8> {
    assert!(s.len().is_multiple_of(2), "odd hex length");
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex digit"))
        .collect()
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn request(name: &str, id: u64, req: Request, golden: &str) {
    let got = encode_request(id, &req);
    assert_eq!(hex(&got), golden, "{name}: request bytes drifted");
    let want = unhex(golden);
    assert_eq!(decode_request(&want[4..]), Ok((id, req)), "{name}: decode");
}

fn reply(name: &str, id: u64, rep: Reply, golden: &str) {
    let got = encode_reply(id, &rep);
    assert_eq!(hex(&got), golden, "{name}: reply bytes drifted");
    let want = unhex(golden);
    assert_eq!(decode_reply(&want[4..]), Ok((id, rep)), "{name}: decode");
}

/// The payload of a frame whose opcode is retired: opcode and id, no
/// body. The decoder must refuse the opcode itself.
fn retired_frame(op: u8, id: u64) -> Vec<u8> {
    let mut payload = vec![op];
    payload.extend_from_slice(&id.to_le_bytes());
    payload
}

fn row(v: &mut Vals) -> ResourceId {
    ResourceId::Row(TableId(v.u32()), RowId(v.u64()))
}

fn table(v: &mut Vals) -> ResourceId {
    ResourceId::Table(TableId(v.u32()))
}

/// Every `LockOutcome` tag, 0–5.
fn outcomes(v: &mut Vals) -> Vec<LockOutcome> {
    vec![
        LockOutcome::Granted,
        LockOutcome::AlreadyHeld,
        LockOutcome::CoveredByTableLock,
        LockOutcome::Queued,
        LockOutcome::GrantedAfterEscalation {
            table: TableId(v.u32()),
            exclusive: true,
        },
        LockOutcome::GrantedAfterEscalation {
            table: TableId(v.u32()),
            exclusive: false,
        },
        LockOutcome::QueuedWithEscalation {
            table: TableId(v.u32()),
        },
    ]
}

/// Every `ServiceError` tag 0–5 (both `Overloaded` arms), and through
/// `Lock` every `LockError` tag 0–4.
fn service_errors(v: &mut Vals) -> Vec<ServiceError> {
    vec![
        ServiceError::Lock(LockError::NotHeld(row(v))),
        ServiceError::Lock(LockError::NothingToEscalate),
        ServiceError::Lock(LockError::OutOfLockMemory),
        ServiceError::Lock(LockError::MissingIntent(table(v))),
        ServiceError::Lock(LockError::AlreadyWaiting(row(v))),
        ServiceError::Timeout,
        ServiceError::DeadlockVictim,
        ServiceError::ShuttingDown,
        ServiceError::AlreadyConnected(AppId(v.u32())),
        ServiceError::Overloaded {
            tenant: Some(v.u32()),
        },
        ServiceError::Overloaded { tenant: None },
    ]
}

fn lock_stats(v: &mut Vals) -> LockStats {
    LockStats {
        grants: v.u64(),
        waits: v.u64(),
        conversions: v.u64(),
        covered_by_table: v.u64(),
        escalations: v.u64(),
        exclusive_escalations: v.u64(),
        rows_escalated: v.u64(),
        voluntary_escalations: v.u64(),
        sync_growth_requests: v.u64(),
        sync_growth_denied: v.u64(),
        denials: v.u64(),
        queue_grants: v.u64(),
        cancelled_waits: v.u64(),
        deadlock_aborts: v.u64(),
    }
}

fn obs_counters(v: &mut Vals) -> ObsCounters {
    ObsCounters {
        timeouts: v.u64(),
        batches: v.u64(),
        batch_items: v.u64(),
        deadlock_victims: v.u64(),
        sync_growth_granted: v.u64(),
        sync_growth_denied: v.u64(),
        depot_reclaim_sweeps: v.u64(),
        depot_reclaimed_slots: v.u64(),
        journal_recorded: v.u64(),
        journal_dropped: v.u64(),
        watchdog_restarts: v.u64(),
        clients_evicted: v.u64(),
        shed_engaged: v.u64(),
        shed_released: v.u64(),
        shed_rejected: v.u64(),
        faults_injected: v.u64(),
        remote_cancels: v.u64(),
        failover_probes: v.u64(),
        epoch_bumps: v.u64(),
        fenced_requests: v.u64(),
        degraded_batches: v.u64(),
        grant_spin_hits: v.u64(),
        grant_parks: v.u64(),
    }
}

/// A histogram with non-zero counts in exactly the buckets `ks`.
fn histogram(v: &mut Vals, ks: impl IntoIterator<Item = usize>) -> HistogramSnapshot {
    let mut counts = [0u64; BUCKETS];
    for k in ks {
        counts[k] = v.u64();
    }
    HistogramSnapshot::from_parts(counts, v.u64(), v.u64())
}

/// Every `EventKind` tag, 0–12.
fn events(v: &mut Vals) -> Vec<JournalEvent> {
    let kinds = vec![
        EventKind::Escalation {
            app: AppId(v.u32()),
            table: TableId(v.u32()),
            exclusive: true,
        },
        EventKind::DeadlockVictim {
            app: AppId(v.u32()),
        },
        EventKind::SyncGrowth {
            granted_bytes: v.u64(),
        },
        EventKind::TunerResize {
            from_bytes: v.u64(),
            to_bytes: v.u64(),
        },
        EventKind::DepotReclaim { slots: v.u64() },
        EventKind::WatchdogRestart {
            thread: ThreadRole::Tuner,
        },
        EventKind::WatchdogRestart {
            thread: ThreadRole::Sweeper,
        },
        EventKind::ClientEvicted {
            app: AppId(v.u32()),
        },
        EventKind::ShedEngaged { ooms: v.u64() },
        EventKind::ShedReleased,
        EventKind::FaultInjected {
            site: v.u32() as u8,
            count: v.u64(),
        },
        EventKind::RemoteCancel {
            app: AppId(v.u32()),
        },
        EventKind::EpochBump { epoch: v.u64() },
        EventKind::RequestFenced { epoch: v.u64() },
    ];
    kinds
        .into_iter()
        .map(|kind| JournalEvent {
            seq: v.u64(),
            at_ms: v.u64(),
            kind,
        })
        .collect()
}

/// Every `TuningReason` tag, 0–5.
fn ticks(v: &mut Vals) -> Vec<TuningTick> {
    [
        TuningReason::GrowForFreeTarget,
        TuningReason::WithinBand,
        TuningReason::ShrinkDeltaReduce,
        TuningReason::EscalationDoubling,
        TuningReason::ClampedToMin,
        TuningReason::ClampedToMax,
    ]
    .into_iter()
    .map(|reason| TuningTick {
        seq: v.u64(),
        reason,
        target_bytes: v.u64(),
        current_bytes: v.u64(),
        lock_bytes_after: v.u64(),
        funded_bytes: v.u64(),
        released_bytes: v.u64(),
        app_percent: v.f64(),
    })
    .collect()
}

fn io_shard(v: &mut Vals) -> IoShardStats {
    IoShardStats {
        shard: v.u32(),
        connections: v.u64(),
        wakeups: v.u64(),
        writev_calls: v.u64(),
        writev_frames: v.u64(),
        write_buf_hwm: v.u64(),
        spin_hits: v.u64(),
        parks: v.u64(),
    }
}

fn tenant_row(v: &mut Vals, shedding: bool) -> TenantRow {
    TenantRow {
        id: v.u32(),
        budget: v.u64(),
        floor: v.u64(),
        pool_bytes: v.u64(),
        pool_slots_used: v.u64(),
        free_fraction: v.f64(),
        benefit: v.f64(),
        connected_apps: v.u64(),
        escalations: v.u64(),
        denials: v.u64(),
        shedding,
    }
}

fn donation(v: &mut Vals, from: Option<u32>) -> TenantDonation {
    TenantDonation {
        seq: v.u64(),
        at_ms: v.u64(),
        from,
        to: v.u32(),
        bytes: v.u64(),
        from_benefit: v.f64(),
        to_benefit: v.f64(),
    }
}

#[test]
fn every_request_opcode() {
    let mut v = Vals::new();
    let v = &mut v;
    let res = row(v);
    request(
        "lock",
        v.u64(),
        Request::Lock {
            res,
            mode: LockMode::SIX,
        },
        "17000000013f74df7d2c6da6da01b979379e2af894fe72f36e3c03",
    );
    let res = table(v);
    request(
        "unlock",
        v.u64(),
        Request::Unlock { res },
        "0e00000002696c747c9f60151700e4e6dd78",
    );
    request(
        "unlock_all",
        v.u64(),
        Request::UnlockAll,
        "09000000037ee8befb58da4cb5",
    );
    // 0x04 carried the retired Stats request. Its id draw stays, so
    // every later value, and with it every later hex string, is as
    // captured.
    assert_eq!(
        decode_request(&retired_frame(0x04, v.u64())),
        Err(WireError::BadTag {
            what: "request opcode",
            tag: 0x04
        })
    );
    request(
        "ping",
        v.u64(),
        Request::Ping(vec![0xDE, 0xAD, 0xBE, 0xEF, 0x00]),
        "1200000005a8e053facbcdbbf105000000deadbeef00",
    );
    request(
        "ping_empty",
        v.u64(),
        Request::Ping(Vec::new()),
        "0d00000005bd5c9e798547f38f00000000",
    );
    request(
        "validate",
        v.u64(),
        Request::Validate,
        "0900000006d2d8e8f83ec12a2e",
    );
    // Every LockMode tag 0–5, over both ResourceId tags.
    let items = [
        LockMode::IS,
        LockMode::IX,
        LockMode::S,
        LockMode::SIX,
        LockMode::U,
        LockMode::X,
    ]
    .into_iter()
    .enumerate()
    .map(|(i, mode)| (if i % 2 == 0 { table(v) } else { row(v) }, mode))
    .collect();
    request(
        "lock_batch",
        v.u64(),
        Request::LockBatch(items),
        "4900000007a4b1d1f17d82555c0600000000f33a62cc0001acb4996a114dc876\
        6b2ed10801001ea808a70201d721404550c1a7f4979b77e303004915af810401\
        028fe61f8f358772c4081ebe05",
    );
    request(
        "lock_batch_empty",
        v.u64(),
        Request::LockBatch(Vec::new()),
        "0d00000007b92d1c7137fc8cfa00000000",
    );
    let (reports_since, max_events) = (v.u64(), v.u32());
    request(
        "metrics",
        v.u64(),
        Request::Metrics {
            reports_since,
            max_events,
        },
        "1500000008f8a1fbee636933d5cea966f0f075c4989feffb36",
    );
    let tenant = v.u32();
    request(
        "hello",
        v.u64(),
        Request::Hello { tenant },
        "0d00000009229a90edd65ca21111e36a73",
    );
    let donations_since = v.u64();
    request(
        "tenant_stats",
        v.u64(),
        Request::TenantStats { donations_since },
        "110000000a4c9225ec4950114e3716db6c90d6d9af",
    );
    let tenant = v.u32();
    request(
        "tenant_ctl_create",
        v.u64(),
        Request::TenantCtl(TenantCtl::Create { tenant }),
        "0e0000000b768abaeabc43808a00f5c948ec",
    );
    let tenant = v.u32();
    request(
        "tenant_ctl_drop",
        v.u64(),
        Request::TenantCtl(TenantCtl::Drop { tenant }),
        "0e0000000ba0824fe92f37efc60167bdb728",
    );
    request(
        "wait_graph",
        v.u64(),
        Request::WaitGraph,
        "090000000cb5fe9968e9b02665",
    );
    let gid = v.u64();
    request(
        "bind_gid",
        v.u64(),
        Request::BindGid { gid },
        "110000000ddff62e675ca495a1ca7ae4e7a22a5e03",
    );
    let app = v.u32();
    request(
        "cancel_wait",
        v.u64(),
        Request::CancelWait { app },
        "0d0000000e09efc365cf9704de041ecd3f",
    );
    let epoch = v.u64();
    request(
        "probe_degraded",
        v.u64(),
        Request::Probe {
            epoch,
            degraded: true,
        },
        "120000000f33e75864428b731a1e6b0ee588113c7c01",
    );
    let epoch = v.u64();
    request(
        "probe_healthy",
        v.u64(),
        Request::Probe {
            epoch,
            degraded: false,
        },
        "120000000f5ddfed62b57ee2564863a3e3fb04abb800",
    );
    let epoch = v.u64();
    request(
        "bind_epoch",
        v.u64(),
        Request::BindEpoch { epoch },
        "110000001187d7826128725193725b38e26ef819f5",
    );
}

#[test]
fn lock_replies_both_result_arms() {
    let mut v = Vals::new();
    let v = &mut v;
    let table = TableId(v.u32());
    let ok = LockOutcome::GrantedAfterEscalation {
        table,
        exclusive: true,
    };
    reply(
        "lock_ok",
        v.u64(),
        Reply::Lock(Ok(ok)),
        "10000000812af894fe72f36e3c0004b979379e01",
    );
    reply(
        "lock_err",
        v.u64(),
        Reply::Lock(Err(ServiceError::Timeout)),
        "0b000000813f74df7d2c6da6da0101",
    );
    let report = UnlockReport {
        released_locks: v.u64(),
        freed_slots: v.u64(),
    };
    reply(
        "unlock_ok",
        v.u64(),
        Reply::Unlock(Ok(report)),
        "1a000000827ee8befb58da4cb50054f029fde5e6dd78696c747c9f601517",
    );
    let err = ServiceError::Lock(LockError::NotHeld(row(v)));
    reply(
        "unlock_err",
        v.u64(),
        Reply::Unlock(Err(err)),
        "1900000082bd5c9e798547f38f010000010f548453a8e053facbcdbbf1",
    );
    let report = UnlockReport {
        released_locks: v.u64(),
        freed_slots: v.u64(),
    };
    reply(
        "unlock_all_ok",
        v.u64(),
        Reply::UnlockAll(Ok(report)),
        "1a00000083fcd07df7b1b4996a00d2d8e8f83ec12a2ee7543378f83a62cc",
    );
    let err = ServiceError::Overloaded {
        tenant: Some(v.u32()),
    };
    reply(
        "unlock_all_err",
        v.u64(),
        Reply::UnlockAll(Err(err)),
        "100000008326c912f624a808a7010501652ed108",
    );
}

#[test]
fn batch_outcomes_cover_every_outcome_and_error_tag() {
    let mut v = Vals::new();
    let v = &mut v;
    let mut items: Vec<BatchOutcome> = outcomes(v)
        .into_iter()
        .map(|o| BatchOutcome::Done(Ok(o)))
        .collect();
    items.extend(
        service_errors(v)
            .into_iter()
            .map(|e| BatchOutcome::Done(Err(e))),
    );
    items.push(BatchOutcome::Skipped);
    reply(
        "batch_outcomes",
        v.u64(),
        Reply::BatchOutcomes(items),
        "6e00000087e7543378f83a62cc1300000000000001000200030004b979379e01\
        000472f36e3c0000052b6da6da01000001e4e6dd78696c747c9f601517010001\
        0100020100030056da4cb5010004010f548453a8e053facbcdbbf10101010201\
        0301048147f38f0105013ac12a2e01050002",
    );
    reply(
        "batch_outcomes_empty",
        v.u64(),
        Reply::BatchOutcomes(Vec::new()),
        "0d00000087fcd07df7b1b4996a00000000",
    );
}

#[test]
fn fixed_layout_replies() {
    let mut v = Vals::new();
    let v = &mut v;
    // 0x84 carried the retired Stats reply: a LockStats, twelve more
    // values and the id. Its draws stay, as for 0x04.
    lock_stats(v);
    for _ in 0..12 {
        v.u64();
    }
    assert_eq!(
        decode_reply(&retired_frame(0x84, v.u64())),
        Err(WireError::BadTag {
            what: "reply opcode",
            tag: 0x84
        })
    );
    reply(
        "pong",
        v.u64(),
        Reply::Pong(vec![0x01, 0x23, 0x45]),
        "10000000854c9225ec4950114e03000000012345",
    );
    let report = ValidateReport {
        charged_slots: v.u64(),
        pool_used_slots: v.u64(),
    };
    reply(
        "validate_ok",
        v.u64(),
        Reply::Validate(Ok(report)),
        "1a000000868b06056a76bdb72800610e706b03ca48ec768abaeabc43808a",
    );
    let msg = "slots diverged".to_string();
    reply(
        "validate_err",
        v.u64(),
        Reply::Validate(Err(msg)),
        "1c00000086a0824fe92f37efc6010e000000736c6f7473206469766572676564",
    );
    reply(
        "hello_ok",
        v.u64(),
        Reply::Hello(Ok(())),
        "0a00000089b5fe9968e9b0266500",
    );
    let msg = "unknown tenant".to_string();
    reply(
        "hello_err",
        v.u64(),
        Reply::Hello(Err(msg)),
        "1c00000089ca7ae4e7a22a5e03010e000000756e6b6e6f776e2074656e616e74",
    );
    let bytes = v.u64();
    reply(
        "tenant_ctl_ok",
        v.u64(),
        Reply::TenantCtl(Ok(bytes)),
        "120000008bf47279e6151ecd3f00dff62e675ca495a1",
    );
    let msg = "no such tenant".to_string();
    reply(
        "tenant_ctl_err",
        v.u64(),
        Reply::TenantCtl(Err(msg)),
        "1c0000008b09efc365cf9704de010e0000006e6f20737563682074656e616e74",
    );
    reply(
        "bind_gid_ok",
        v.u64(),
        Reply::BindGid(Ok(())),
        "0a0000008d1e6b0ee588113c7c00",
    );
    let msg = "reserved bit".to_string();
    reply(
        "bind_gid_err",
        v.u64(),
        Reply::BindGid(Err(msg)),
        "1a0000008d33e75864428b731a010c000000726573657276656420626974",
    );
    reply(
        "cancel_wait_true",
        v.u64(),
        Reply::CancelWait(true),
        "0a0000008e4863a3e3fb04abb801",
    );
    reply(
        "cancel_wait_false",
        v.u64(),
        Reply::CancelWait(false),
        "0a0000008e5ddfed62b57ee25600",
    );
    reply("busy", 0, Reply::Busy, "09000000900000000000000000");
    let (epoch, stale_sessions) = (v.u64(), v.u64());
    reply(
        "probe_ack",
        v.u64(),
        Reply::ProbeAck {
            epoch,
            stale_sessions,
        },
        "190000008f9c53cde0e1eb8831725b38e26ef819f587d7826128725193",
    );
    reply(
        "bind_epoch",
        v.u64(),
        Reply::BindEpoch,
        "0900000091b1cf17609b65c0cf",
    );
    let current = v.u64();
    reply(
        "wrong_epoch",
        v.u64(),
        Reply::WrongEpoch { current },
        "1100000092dbc7ac5e0e592f0cc64b62df54dff76d",
    );
}

#[test]
fn metrics_reply_every_field_event_tag_and_histogram_shape() {
    let mut v = Vals::new();
    let v = &mut v;
    let snap = MetricsSnapshot {
        uptime_ms: v.u64(),
        lock_stats: lock_stats(v),
        counters: obs_counters(v),
        pool_bytes: v.u64(),
        pool_slots_total: v.u64(),
        pool_slots_used: v.u64(),
        connected_apps: v.u64(),
        app_percent: v.f64(),
        min_free_fraction: v.f64(),
        max_free_fraction: v.f64(),
        free_fraction: v.f64(),
        tuning_intervals: v.u64(),
        grow_decisions: v.u64(),
        shrink_decisions: v.u64(),
        reply_queue_hwm: v.u64(),
        fence_epoch: v.u64(),
        // 0, 1, all 64 and a sparse pair of non-zero buckets.
        lock_wait_micros: histogram(v, []),
        latch_hold_nanos: histogram(v, [BUCKETS - 1]),
        batch_size: histogram(v, 0..BUCKETS),
        sync_stall_micros: histogram(v, [0, 17]),
        events: events(v),
        next_event_seq: v.u64(),
        ticks: ticks(v),
        next_tick_seq: v.u64(),
        io_shards: vec![io_shard(v), io_shard(v)],
    };
    reply(
        "metrics",
        v.u64(),
        Reply::Metrics(Box::new(snap)),
        "7007000088c9fea0ddeee29f87157c4a7fb979379e2af894fe72f36e3c3f74df\
        7d2c6da6da54f029fde5e6dd78696c747c9f6015177ee8befb58da4cb5936409\
        7b12548453a8e053facbcdbbf1bd5c9e798547f38fd2d8e8f83ec12a2ee75433\
        78f83a62ccfcd07df7b1b4996a114dc8766b2ed10826c912f624a808a73b455d\
        75de21404550c1a7f4979b77e3653df2735115af817ab93cf30a8fe61f8f3587\
        72c4081ebea4b1d1f17d82555cb92d1c7137fc8cfacea966f0f075c498e325b1\
        6faaeffb36f8a1fbee636933d50d1e466e1de36a73229a90edd65ca2113716db\
        6c90d6d9af4c9225ec4950114e610e706b03ca48ec768abaeabc43808a8b0605\
        6a76bdb728a0824fe92f37efc6b5fe9968e9b02665ca7ae4e7a22a5e03dff62e\
        675ca495a1f47279e6151ecd3f09efc365cf9704de1e6b0ee588113c7c33e758\
        64428b731a4863a3e3fb04abb85ddfed62b57ee256725b38e26ef819f5000000\
        000028504000000000008850400000000000e850400000000000485140dbc7ac\
        5e0e592f0cf043f7ddc7d266aa05c0415d814c9e481a3c8cdc3ac6d5e62fb8d6\
        5bf43f0d8500443421dbadb9442359b06b5a67337cc1013f6e2cb6d920adb35f\
        83a80059da26ebfd98244bd893a0229c4000ada095574d1a5a3a01c21ce0d606\
        9491d802d7982a56c00dc97603ec1475d579870015040191bf54330138b30516\
        0d0ad4ec7a6f51062b895453a6f4a6ef0740059fd25f6ede8d085581e95119e8\
        152c096afd33d1d2614dca0a7f797e508cdb84680b94f5c8cf4555bc060ca971\
        134fffcef3a40dbeed5dceb8482b430ed369a84d72c262e10fe8e5f2cc2b3c9a\
        7f10fd613d4ce5b5d11d1112de87cb9e2f09bc12275ad24a58a9405a133cd61c\
        ca112378f81451526749cb9caf961566ceb1c88416e734167b4afc473e901ed3\
        1790c646c7f709567118a5429146b1838d0f19babedbc56afdc4ad1acf3a2645\
        2477fc4b1be4b670c4ddf033ea1cf932bb43976a6b881d0eaf05c350e4a2261e\
        232b50420a5edac41f38a79ac1c3d71163204d23e5407d51490121629f2fc036\
        cb809f22771b7a3ff044b83d238c97c4bea9beefdb24a1130f3e6338277a25b6\
        8f59bd1cb25e1826cb0ba43cd62b96b627e087eebb8fa5cd5428f503393b491f\
        05f3290a8083ba02993c912a1ffccd39bc12742f2b347818b9758cabcd2c49f4\
        62382f06e36b2d5e70adb7e87f1a0a2e73ecf736a2f951a82f886842b65b7389\
        46309de48c3515edc0e431b260d7b4ce66f88232c7dc213488e02f2133dc586c\
        b3415a67bf34f1d4b632fbd39e5d35065101b2b44dd6fb361bcd4b316ec70d9a\
        37304996b0274145383845c5e02fe1ba7cd6395a412baf9a34b4743a6fbd752e\
        54aeeb123b8439c0ad0d2823b13c99b50a2dc7a15a4f3dae3155ac801b92ed3e\
        c3ad9f2b3a95c98b3fd829eaaaf30e012aeda5342aad8838c802227fa9660270\
        660200179ec928207ca704112c1a14a8d9f5dea241965e27936f16415612a9a6\
        4ce94ddf0e0000009157061c2b0b8e24a6d3509be484c5c200c762857d80dcbc\
        1b01bb4f9b1a9efefc60d0cbe599577834ff013956f4b9e547301911f26b9dfa\
        c37a98ca6ba33b02aa02d3a332d02b580f40c51784e5dad924bc0f973d5f1278\
        03bf7e1d23ec4963f6d4fa67a2a5c39a9439385a16f7d849164eb4a495b05281\
        b404e976b2215f3dd2326330ef146accb85278ac39942346f0f005008d288413\
        ddbf278fa2a4ce9296395f2d0501b720191250b396cbcc9c6391092dce6906d6\
        b609d1e118ae10c3a60508f694f88f7c203da607136f4720d230416f0b11430f\
        369a7444208d8d8eef13ace2083509d80da98de3804a85228d62071b1f09483d\
        67dc1e4524b0ab5f016d0c1c8152bd747db78bd5fa895b0aba9de74989f9010b\
        8f74c1f99e754c8a48eef8970b675f711db8171fe8b3f1960902683036c86de1\
        88bbe167d40c7cdbbb9c71915686dde92b08755b9f7206000000f26576872ed5\
        d6100007e2c006e84e0eaf1c5e0b86a1c8454d31da55055b427deb4656a08414\
        bcb4895bd2ea03ce35ec27000000000082704085ca7f0241295b64019a46ca81\
        faa29202afc21401b41ccaa0c43e5f806d96013fd9baa9ff261039ddee36f47e\
        e089707b00000000002a7140182f897d537ddfb7022dabd3fc0cf7165642271e\
        7cc6704ef457a368fb7fea85926c1fb37a3964bd30819bfdf9f2ddf4ce000000\
        0000d27140ab9392f865d1630b03c00fdd771f4b9ba9d58b27f7d8c4d247ea07\
        7276923e0ae6ff83bcf54bb84184140007750532792200000000007a72403ef8\
        9b737825e85e045374e6f2319f1ffd68f03072eb18579b7d6c7bf1a4928e3992\
        e8c5705e0cc6d7a76410f01786fd750000000000227340d15ca5ee8a796cb205\
        e6d8ef6d44f3a350fb543aedfd6cdbee10d1846cb7e6128d254dcfeb70604a2b\
        3ac9196b2ada81c90000000000ca734064c1ae699dcdf00502000000ed4628a4\
        8eb9436810c15f42a3358ee7c93a97e0b8b1d86683b4ce7ecd2d23e63c2e061d\
        e2a96d65f6a73dbbf725b8e4af2175590ca20264699bacf7b514e495369a9762\
        dc8e1b344b16e2e1950853d260922c614f828a70750e77e008fcc10e8a8ac15f\
        c275f9ac9f060cdf7bef304bb482565e356968e9",
    );
}

#[test]
fn tenant_stats_and_wait_graph_replies() {
    let mut v = Vals::new();
    let v = &mut v;
    let tenants = vec![tenant_row(v, true), tenant_row(v, false)];
    let rollup = MachineRollup {
        machine_budget: v.u64(),
        free_budget: v.u64(),
        arbitrations: v.u64(),
        donations: v.u64(),
        donated_bytes: v.u64(),
        tenants,
    };
    let from = Some(v.u32());
    let donations = vec![donation(v, from), donation(v, None)];
    let t = TenantStatsReply {
        rollup,
        donations,
        next_donation_seq: v.u64(),
    };
    reply(
        "tenant_stats",
        v.u64(),
        Reply::TenantStats(Box::new(t)),
        "390100008a4863a3e3fb04abb8b92d1c7137fc8cfacea966f0f075c498e325b1\
        6faaeffb36f8a1fbee636933d50d1e466e1de36a7302000000b979379e2af894\
        fe72f36e3c3f74df7d2c6da6da54f029fde5e6dd78696c747c9f601517000000\
        00004022400000000000402540a8e053facbcdbbf1bd5c9e798547f38fd2d8e8\
        f83ec12a2e01f33a62ccfcd07df7b1b4996a114dc8766b2ed10826c912f624a8\
        08a73b455d75de21404500000000002038400000000000a039407ab93cf30a8f\
        e61f8f358772c4081ebea4b1d1f17d82555c00020000003716db6c90d6d9af4c\
        9225ec4950114e01ca5ca211f5c948ec768abaeabc43808a0000000000504740\
        0000000000104840b5fe9968e9b02665ca7ae4e7a22a5e03004ba495a1f47279\
        e6151ecd3f0000000000d04b400000000000904c4033e75864428b731a",
    );
    let g = WaitGraphReply {
        edges: vec![(v.u32(), v.u32()), (v.u32(), v.u32())],
        gids: vec![(v.u32(), v.u64()), (v.u32(), v.u64())],
    };
    reply(
        "wait_graph",
        v.u64(),
        Reply::WaitGraph(g),
        "390000008c05c0415d814c9e4802000000a17ee2565af819f513725193cceb88\
        31020000008565c0cfc64b62df54dff76df7582f0cf043f7ddc7d266aa",
    );
    let empty = WaitGraphReply::default();
    reply(
        "wait_graph_empty",
        v.u64(),
        Reply::WaitGraph(empty),
        "110000008c1a3c8cdc3ac6d5e60000000000000000",
    );
}
