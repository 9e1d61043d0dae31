//! Property tests for the wire protocol: encode→decode is the
//! identity over every frame type, and no truncation of a valid frame
//! decodes (every variable-length field is length-prefixed and every
//! decoder consumes its payload exactly, so a cut anywhere is caught).

use locktune_core::TuningReason;
use locktune_lockmgr::{
    AppId, LockError, LockMode, LockOutcome, LockStats, ResourceId, RowId, TableId, UnlockReport,
};
use locktune_metrics::{HistogramSnapshot, BUCKETS};
use locktune_net::wire::{
    decode_lock_batch_into, decode_reply, decode_request, encode_lock_batch_into, encode_reply,
    encode_request, Reply, Request, TenantCtl, TenantStatsReply, ValidateReport, WaitGraphReply,
    WireError, GID_RESERVED, HEADER_LEN, MAX_BATCH, MAX_PAYLOAD, MAX_WIRE_DONATIONS,
    MAX_WIRE_EDGES, MAX_WIRE_EVENTS, MAX_WIRE_GIDS, MAX_WIRE_IO_SHARDS, MAX_WIRE_TENANTS,
    MAX_WIRE_TICKS,
};
use locktune_net::{MachineRollup, TenantDonation, TenantRow};
use locktune_obs::{
    EventKind, IoShardStats, JournalEvent, MetricsSnapshot, ObsCounters, ThreadRole, TuningTick,
};
use locktune_service::{BatchOutcome, ServiceError};
use proptest::prelude::*;

fn resource() -> BoxedStrategy<ResourceId> {
    prop_oneof![
        any::<u32>().prop_map(|t| ResourceId::Table(TableId(t))),
        (any::<u32>(), any::<u64>()).prop_map(|(t, r)| ResourceId::Row(TableId(t), RowId(r))),
    ]
    .boxed()
}

fn mode() -> BoxedStrategy<LockMode> {
    prop_oneof![
        Just(LockMode::IS),
        Just(LockMode::IX),
        Just(LockMode::S),
        Just(LockMode::SIX),
        Just(LockMode::U),
        Just(LockMode::X),
    ]
    .boxed()
}

fn outcome() -> BoxedStrategy<LockOutcome> {
    prop_oneof![
        Just(LockOutcome::Granted),
        Just(LockOutcome::AlreadyHeld),
        Just(LockOutcome::CoveredByTableLock),
        Just(LockOutcome::Queued),
        (any::<u32>(), any::<bool>()).prop_map(|(t, exclusive)| {
            LockOutcome::GrantedAfterEscalation {
                table: TableId(t),
                exclusive,
            }
        }),
        any::<u32>().prop_map(|t| LockOutcome::QueuedWithEscalation { table: TableId(t) }),
    ]
    .boxed()
}

fn service_error() -> BoxedStrategy<ServiceError> {
    let lock_error = prop_oneof![
        resource().prop_map(LockError::NotHeld),
        Just(LockError::NothingToEscalate),
        Just(LockError::OutOfLockMemory),
        resource().prop_map(LockError::MissingIntent),
        resource().prop_map(LockError::AlreadyWaiting),
    ];
    prop_oneof![
        lock_error.prop_map(ServiceError::Lock),
        Just(ServiceError::Timeout),
        Just(ServiceError::DeadlockVictim),
        Just(ServiceError::ShuttingDown),
        any::<u32>().prop_map(|a| ServiceError::AlreadyConnected(AppId(a))),
        Just(ServiceError::Overloaded { tenant: None }),
        Just(ServiceError::Overloaded { tenant: Some(7) }),
    ]
    .boxed()
}

fn request() -> BoxedStrategy<Request> {
    prop_oneof![
        (resource(), mode()).prop_map(|(res, mode)| Request::Lock { res, mode }),
        resource().prop_map(|res| Request::Unlock { res }),
        Just(Request::UnlockAll),
        proptest::collection::vec(any::<u8>(), 0..512).prop_map(Request::Ping),
        Just(Request::Validate),
        proptest::collection::vec((resource(), mode()), 0..40).prop_map(Request::LockBatch),
        (any::<u64>(), any::<u32>()).prop_map(|(reports_since, max_events)| Request::Metrics {
            reports_since,
            max_events,
        }),
        any::<u32>().prop_map(|tenant| Request::Hello { tenant }),
        any::<u64>().prop_map(|donations_since| Request::TenantStats { donations_since }),
        any::<u32>().prop_map(|tenant| Request::TenantCtl(TenantCtl::Create { tenant })),
        any::<u32>().prop_map(|tenant| Request::TenantCtl(TenantCtl::Drop { tenant })),
        Just(Request::WaitGraph),
        any::<u64>().prop_map(|gid| Request::BindGid { gid }),
        any::<u32>().prop_map(|app| Request::CancelWait { app }),
        (any::<u64>(), any::<bool>())
            .prop_map(|(epoch, degraded)| Request::Probe { epoch, degraded }),
        any::<u64>().prop_map(|epoch| Request::BindEpoch { epoch }),
    ]
    .boxed()
}

fn wait_graph_reply() -> BoxedStrategy<WaitGraphReply> {
    (
        proptest::collection::vec((any::<u32>(), any::<u32>()), 0..12),
        proptest::collection::vec((any::<u32>(), any::<u64>()), 0..12),
    )
        .prop_map(|(edges, gids)| WaitGraphReply { edges, gids })
        .boxed()
}

fn tenant_row() -> BoxedStrategy<TenantRow> {
    (
        (any::<u32>(), any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<u64>(), 0.0f64..1.0, 0.0f64..1e6),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<bool>()),
    )
        .prop_map(|(a, b, c)| TenantRow {
            id: a.0,
            budget: a.1,
            floor: a.2,
            pool_bytes: a.3,
            pool_slots_used: b.0,
            free_fraction: b.1,
            benefit: b.2,
            connected_apps: c.0,
            escalations: c.1,
            denials: c.2,
            shedding: c.3,
        })
        .boxed()
}

fn donation() -> BoxedStrategy<TenantDonation> {
    (
        (
            any::<u64>(),
            any::<u64>(),
            prop_oneof![Just(None), any::<u32>().prop_map(Some)],
        ),
        (any::<u32>(), any::<u64>(), 0.0f64..1e6, 0.0f64..1e6),
    )
        .prop_map(|(a, b)| TenantDonation {
            seq: a.0,
            at_ms: a.1,
            from: a.2,
            to: b.0,
            bytes: b.1,
            from_benefit: b.2,
            to_benefit: b.3,
        })
        .boxed()
}

fn tenant_stats_reply() -> BoxedStrategy<TenantStatsReply> {
    (
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        any::<u64>(),
        proptest::collection::vec(tenant_row(), 0..8),
        proptest::collection::vec(donation(), 0..8),
        any::<u64>(),
    )
        .prop_map(|(a, donated, tenants, donations, next)| TenantStatsReply {
            rollup: MachineRollup {
                machine_budget: a.0,
                free_budget: a.1,
                arbitrations: a.2,
                donations: a.3,
                donated_bytes: donated,
                tenants,
            },
            donations,
            next_donation_seq: next,
        })
        .boxed()
}

fn batch_outcome() -> BoxedStrategy<BatchOutcome> {
    prop_oneof![
        outcome().prop_map(|o| BatchOutcome::Done(Ok(o))),
        service_error().prop_map(|e| BatchOutcome::Done(Err(e))),
        Just(BatchOutcome::Skipped),
    ]
    .boxed()
}

fn unlock_report() -> BoxedStrategy<UnlockReport> {
    (any::<u64>(), any::<u64>())
        .prop_map(|(released_locks, freed_slots)| UnlockReport {
            released_locks,
            freed_slots,
        })
        .boxed()
}

fn lock_result<T: std::fmt::Debug + Clone + 'static>(
    ok: BoxedStrategy<T>,
) -> BoxedStrategy<Result<T, ServiceError>> {
    prop_oneof![ok.prop_map(Ok), service_error().prop_map(Err)].boxed()
}

/// Every field drawn independently, so a codec that swapped two of
/// them fails the round trip.
fn lock_stats() -> BoxedStrategy<LockStats> {
    proptest::collection::vec(any::<u64>(), 14..15)
        .prop_map(|v| LockStats {
            grants: v[0],
            waits: v[1],
            conversions: v[2],
            covered_by_table: v[3],
            escalations: v[4],
            exclusive_escalations: v[5],
            rows_escalated: v[6],
            voluntary_escalations: v[7],
            sync_growth_requests: v[8],
            sync_growth_denied: v[9],
            denials: v[10],
            queue_grants: v[11],
            cancelled_waits: v[12],
            deadlock_aborts: v[13],
        })
        .boxed()
}

/// Every field drawn independently, so a codec that swapped two of
/// them fails the round trip.
fn obs_counters() -> BoxedStrategy<ObsCounters> {
    proptest::collection::vec(any::<u64>(), ObsCounters::COUNT..ObsCounters::COUNT + 1)
        .prop_map(|v| {
            let mut c = ObsCounters::default();
            for (field, x) in c.values_mut().into_iter().zip(v) {
                *field = x;
            }
            c
        })
        .boxed()
}

/// A histogram as the wire actually produces them: `total` derived
/// from the buckets (`HistogramSnapshot::from_parts`), `max` no
/// smaller than naturally possible given the buckets.
fn histogram() -> BoxedStrategy<HistogramSnapshot> {
    (
        proptest::collection::vec((0..BUCKETS, 1u64..u64::MAX / (BUCKETS as u64)), 0..8usize),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(|(nonzero, sum, max)| {
            let mut counts = [0u64; BUCKETS];
            for (k, c) in nonzero {
                counts[k] = c; // duplicates collapse: last write wins
            }
            HistogramSnapshot::from_parts(counts, sum, max)
        })
        .boxed()
}

fn event() -> BoxedStrategy<JournalEvent> {
    let kind = prop_oneof![
        (any::<u32>(), any::<u32>(), any::<bool>()).prop_map(|(a, t, exclusive)| {
            EventKind::Escalation {
                app: AppId(a),
                table: TableId(t),
                exclusive,
            }
        }),
        any::<u32>().prop_map(|a| EventKind::DeadlockVictim { app: AppId(a) }),
        any::<u64>().prop_map(|granted_bytes| EventKind::SyncGrowth { granted_bytes }),
        (any::<u64>(), any::<u64>()).prop_map(|(from_bytes, to_bytes)| EventKind::TunerResize {
            from_bytes,
            to_bytes,
        }),
        any::<u64>().prop_map(|slots| EventKind::DepotReclaim { slots }),
        prop_oneof![Just(ThreadRole::Tuner), Just(ThreadRole::Sweeper)]
            .prop_map(|thread| EventKind::WatchdogRestart { thread }),
        any::<u32>().prop_map(|a| EventKind::ClientEvicted { app: AppId(a) }),
        any::<u64>().prop_map(|ooms| EventKind::ShedEngaged { ooms }),
        Just(EventKind::ShedReleased),
        (0u8..6, any::<u64>()).prop_map(|(site, count)| EventKind::FaultInjected { site, count }),
        any::<u32>().prop_map(|a| EventKind::RemoteCancel { app: AppId(a) }),
        any::<u64>().prop_map(|epoch| EventKind::EpochBump { epoch }),
        any::<u64>().prop_map(|epoch| EventKind::RequestFenced { epoch }),
    ];
    (any::<u64>(), any::<u64>(), kind)
        .prop_map(|(seq, at_ms, kind)| JournalEvent { seq, at_ms, kind })
        .boxed()
}

fn tick() -> BoxedStrategy<TuningTick> {
    let reason = prop_oneof![
        Just(TuningReason::GrowForFreeTarget),
        Just(TuningReason::WithinBand),
        Just(TuningReason::ShrinkDeltaReduce),
        Just(TuningReason::EscalationDoubling),
        Just(TuningReason::ClampedToMin),
        Just(TuningReason::ClampedToMax),
    ];
    (
        (any::<u64>(), reason, any::<u64>(), any::<u64>()),
        (any::<u64>(), any::<u64>(), any::<u64>(), 0.0f64..100.0),
    )
        .prop_map(|(a, b)| TuningTick {
            seq: a.0,
            reason: a.1,
            target_bytes: a.2,
            current_bytes: a.3,
            lock_bytes_after: b.0,
            funded_bytes: b.1,
            released_bytes: b.2,
            app_percent: b.3,
        })
        .boxed()
}

fn shard_row() -> BoxedStrategy<IoShardStats> {
    let values = IoShardStats::COUNT..IoShardStats::COUNT + 1;
    (
        any::<u32>(),
        proptest::collection::vec(any::<u64>(), values),
    )
        .prop_map(|(shard, v)| {
            let mut row = IoShardStats {
                shard,
                ..Default::default()
            };
            for (field, x) in row.values_mut().into_iter().zip(v) {
                *field = x;
            }
            row
        })
        .boxed()
}

fn metrics() -> BoxedStrategy<MetricsSnapshot> {
    (
        (
            any::<u64>(),
            (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
            (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
            (0.0f64..100.0, 0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
            (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
            lock_stats(),
            obs_counters(),
        ),
        (histogram(), histogram(), histogram(), histogram()),
        proptest::collection::vec(event(), 0..12),
        any::<u64>(),
        proptest::collection::vec(tick(), 0..6),
        any::<u64>(),
        proptest::collection::vec(shard_row(), 0..4),
    )
        .prop_map(
            |(fixed, hists, events, next_event_seq, ticks, next_tick_seq, io_shards)| {
                let (uptime_ms, s, pool, fracs, t, ls, oc) = fixed;
                MetricsSnapshot {
                    uptime_ms,
                    lock_stats: LockStats {
                        grants: s.0,
                        waits: s.1,
                        escalations: s.2,
                        deadlock_aborts: s.3,
                        ..ls
                    },
                    counters: oc,
                    pool_bytes: pool.0,
                    pool_slots_total: pool.1,
                    pool_slots_used: pool.2,
                    connected_apps: pool.3,
                    app_percent: fracs.0,
                    min_free_fraction: fracs.1,
                    max_free_fraction: fracs.2,
                    free_fraction: fracs.3,
                    tuning_intervals: t.0,
                    grow_decisions: t.1,
                    shrink_decisions: t.2,
                    reply_queue_hwm: t.3,
                    fence_epoch: t.0 ^ t.3,
                    lock_wait_micros: hists.0,
                    latch_hold_nanos: hists.1,
                    batch_size: hists.2,
                    sync_stall_micros: hists.3,
                    events,
                    next_event_seq,
                    ticks,
                    next_tick_seq,
                    io_shards,
                }
            },
        )
        .boxed()
}

fn reply() -> BoxedStrategy<Reply> {
    prop_oneof![
        lock_result(outcome()).prop_map(Reply::Lock),
        lock_result(unlock_report()).prop_map(Reply::Unlock),
        lock_result(unlock_report()).prop_map(Reply::UnlockAll),
        proptest::collection::vec(any::<u8>(), 0..512).prop_map(Reply::Pong),
        (any::<u64>(), any::<u64>()).prop_map(|(charged_slots, pool_used_slots)| {
            Reply::Validate(Ok(ValidateReport {
                charged_slots,
                pool_used_slots,
            }))
        }),
        proptest::collection::vec(97u8..123, 1..64)
            .prop_map(|msg| { Reply::Validate(Err(String::from_utf8(msg).unwrap())) }),
        proptest::collection::vec(batch_outcome(), 0..40).prop_map(Reply::BatchOutcomes),
        metrics().prop_map(|m| Reply::Metrics(Box::new(m))),
        Just(Reply::Hello(Ok(()))),
        proptest::collection::vec(97u8..123, 1..64)
            .prop_map(|msg| Reply::Hello(Err(String::from_utf8(msg).unwrap()))),
        tenant_stats_reply().prop_map(|t| Reply::TenantStats(Box::new(t))),
        any::<u64>().prop_map(|bytes| Reply::TenantCtl(Ok(bytes))),
        proptest::collection::vec(97u8..123, 1..64)
            .prop_map(|msg| Reply::TenantCtl(Err(String::from_utf8(msg).unwrap()))),
        Just(Reply::Busy),
        wait_graph_reply().prop_map(Reply::WaitGraph),
        Just(Reply::BindGid(Ok(()))),
        proptest::collection::vec(97u8..123, 1..64)
            .prop_map(|msg| Reply::BindGid(Err(String::from_utf8(msg).unwrap()))),
        any::<bool>().prop_map(Reply::CancelWait),
        (any::<u64>(), any::<u64>()).prop_map(|(epoch, stale_sessions)| Reply::ProbeAck {
            epoch,
            stale_sessions
        }),
        Just(Reply::BindEpoch),
        any::<u64>().prop_map(|current| Reply::WrongEpoch { current }),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// encode→decode is the identity for requests, and every strict
    /// prefix of the payload is rejected (never mis-decodes, never
    /// panics).
    #[test]
    fn request_roundtrip_and_truncation(id in any::<u64>(), req in request()) {
        let frame = encode_request(id, &req);
        let payload = &frame[4..];
        prop_assert!(payload.len() <= MAX_PAYLOAD);
        prop_assert_eq!(decode_request(payload), Ok((id, req)));
        for cut in 0..payload.len() {
            prop_assert!(decode_request(&payload[..cut]).is_err());
        }
    }

    /// The server's allocation-free batch fast path
    /// (`decode_lock_batch_into`) agrees with the generic decoder and
    /// reuses (clears) its output buffer.
    #[test]
    fn lock_batch_fast_path_matches_generic_decode(
        id in any::<u64>(),
        items in proptest::collection::vec((resource(), mode()), 0..40),
    ) {
        let frame = encode_request(id, &Request::LockBatch(items.clone()));
        let payload = &frame[4..];

        // Pre-poison the buffer: decode must clear it, not append.
        let mut fast = vec![(ResourceId::Table(TableId(u32::MAX)), LockMode::X); 3];
        prop_assert_eq!(decode_lock_batch_into(payload, &mut fast), Ok(Some(id)));
        prop_assert_eq!(&fast, &items);
        prop_assert_eq!(decode_request(payload), Ok((id, Request::LockBatch(items))));

        // A non-batch frame is declined (Ok(None)), not an error, and
        // leaves the buffer untouched for the generic fallback path.
        let other = encode_request(id, &Request::UnlockAll);
        prop_assert_eq!(decode_lock_batch_into(&other[4..], &mut fast), Ok(None));
    }

    /// Torn I/O: the evented decoder (`FrameAccum`) fed a stream of
    /// frames sliced at arbitrary byte boundaries — the worst case a
    /// nonblocking socket can produce — yields exactly the payload
    /// sequence the blocking reader (`read_payload_into`) sees, with
    /// each frame surfacing only once its last byte arrives.
    #[test]
    fn frame_accum_survives_arbitrary_read_boundaries(
        frames in proptest::collection::vec((any::<u64>(), request()), 1..8),
        cut_seed in any::<u64>(),
    ) {
        let mut stream = Vec::new();
        let mut expected: Vec<Vec<u8>> = Vec::new();
        for (id, req) in &frames {
            let frame = encode_request(*id, req);
            expected.push(frame[4..].to_vec());
            stream.extend_from_slice(&frame);
        }

        let mut accum = locktune_net::wire::FrameAccum::new();
        let mut got: Vec<Vec<u8>> = Vec::new();
        let mut pos = 0usize;
        let mut seed = cut_seed;
        while pos < stream.len() {
            // Deterministic pseudo-random chunk length in 1..=17.
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let n = (1 + (seed >> 33) % 17) as usize;
            let end = (pos + n).min(stream.len());
            accum.extend(&stream[pos..end]);
            pos = end;
            while let Some(p) = accum.next_payload().unwrap() {
                got.push(p.to_vec());
            }
            // Anything already complete must have surfaced: at most a
            // partial frame's bytes stay pending.
            prop_assert!(accum.pending() < 4 + MAX_PAYLOAD);
        }
        prop_assert_eq!(&got, &expected);
        // And each payload decodes to the original request.
        for (payload, (id, req)) in got.iter().zip(&frames) {
            prop_assert_eq!(decode_request(payload), Ok((*id, req.clone())));
        }
    }

    /// Same for replies.
    #[test]
    fn reply_roundtrip_and_truncation(id in any::<u64>(), reply in reply()) {
        let frame = encode_reply(id, &reply);
        let payload = &frame[4..];
        prop_assert!(payload.len() <= MAX_PAYLOAD);
        prop_assert_eq!(decode_reply(payload), Ok((id, reply)));
        for cut in 0..payload.len() {
            prop_assert!(decode_reply(&payload[..cut]).is_err());
        }
    }

    /// Random corruption (one flipped bit anywhere in a valid request
    /// payload) never panics a decoder, and whatever still decodes is a
    /// self-consistent value: re-encoding it yields a frame that
    /// decodes back to the same value. There is no checksum, so a flip
    /// in a data field legitimately decodes to a different value — the
    /// guarantee is structural sanity, not integrity.
    #[test]
    fn bit_flipped_request_never_panics_or_misdecodes(
        id in any::<u64>(),
        req in request(),
        pos_seed in any::<u64>(),
        bit in 0u8..8,
    ) {
        let frame = encode_request(id, &req);
        let mut mutated = frame[4..].to_vec();
        let pos = (pos_seed as usize) % mutated.len();
        mutated[pos] ^= 1 << bit;
        // Both decode paths must survive arbitrary corruption.
        let mut items = Vec::new();
        let _ = decode_lock_batch_into(&mutated, &mut items);
        if let Ok((got_id, got)) = decode_request(&mutated) {
            let re = encode_request(got_id, &got);
            prop_assert_eq!(decode_request(&re[4..]), Ok((got_id, got)));
        }
    }

    /// Same for replies (the client's exposure to a corrupted or
    /// hostile server).
    #[test]
    fn bit_flipped_reply_never_panics_or_misdecodes(
        id in any::<u64>(),
        reply in reply(),
        pos_seed in any::<u64>(),
        bit in 0u8..8,
    ) {
        let frame = encode_reply(id, &reply);
        let mut mutated = frame[4..].to_vec();
        let pos = (pos_seed as usize) % mutated.len();
        mutated[pos] ^= 1 << bit;
        if let Ok((got_id, got)) = decode_reply(&mutated) {
            let re = encode_reply(got_id, &got);
            prop_assert_eq!(decode_reply(&re[4..]), Ok((got_id, got)));
        }
    }
}

/// The largest legal ping round-trips through the framed reader and
/// writer (not just the in-memory codec).
#[test]
fn max_length_frame_through_framed_io() {
    let echo: Vec<u8> = (0..MAX_PAYLOAD - HEADER_LEN - 4)
        .map(|i| (i % 251) as u8)
        .collect();
    let req = Request::Ping(echo);
    let mut buf = Vec::new();
    locktune_net::wire::write_request(&mut buf, 7, &req).unwrap();
    let (id, back) = locktune_net::wire::read_request(&mut &buf[..])
        .unwrap()
        .expect("one frame");
    assert_eq!(id, 7);
    assert_eq!(back, req);
    // Nothing left behind.
    assert!(buf.len() == 4 + MAX_PAYLOAD);
}

/// Empty batches are legal frames in both directions (a zero-item
/// `LockBatch` is answered by a zero-item `BatchOutcomes`).
#[test]
fn empty_batch_roundtrips() {
    let frame = encode_request(9, &Request::LockBatch(Vec::new()));
    assert_eq!(
        decode_request(&frame[4..]),
        Ok((9, Request::LockBatch(Vec::new())))
    );

    let frame = encode_reply(9, &Reply::BatchOutcomes(Vec::new()));
    assert_eq!(
        decode_reply(&frame[4..]),
        Ok((9, Reply::BatchOutcomes(Vec::new())))
    );
}

/// A `MAX_BATCH`-item batch — worst-case item encodings on both the
/// request and the reply side — still fits one frame, which is the
/// whole point of the `MAX_BATCH` derivation.
#[test]
fn max_batch_worst_case_fits_one_frame() {
    // Request side: Row resources are the widest item encoding.
    let items: Vec<(ResourceId, LockMode)> = (0..MAX_BATCH)
        .map(|i| {
            (
                ResourceId::Row(TableId(i as u32), RowId(u64::MAX - i as u64)),
                LockMode::X,
            )
        })
        .collect();
    let mut frame = Vec::new();
    encode_lock_batch_into(&mut frame, 3, &items);
    assert!(
        frame.len() - 4 <= MAX_PAYLOAD,
        "request payload {}",
        frame.len() - 4
    );
    assert_eq!(
        decode_request(&frame[4..]),
        Ok((3, Request::LockBatch(items)))
    );

    // Reply side: Done(Err(Lock(NotHeld(Row)))) is the widest outcome.
    let outcomes: Vec<BatchOutcome> = (0..MAX_BATCH)
        .map(|i| {
            BatchOutcome::Done(Err(ServiceError::Lock(LockError::NotHeld(
                ResourceId::Row(TableId(i as u32), RowId(i as u64)),
            ))))
        })
        .collect();
    let frame = encode_reply(3, &Reply::BatchOutcomes(outcomes.clone()));
    assert!(
        frame.len() - 4 <= MAX_PAYLOAD,
        "reply payload {}",
        frame.len() - 4
    );
    assert_eq!(
        decode_reply(&frame[4..]),
        Ok((3, Reply::BatchOutcomes(outcomes)))
    );
}

/// A hand-crafted frame claiming more than `MAX_BATCH` items is
/// rejected from the count alone — before the decoder tries to
/// allocate or read the items.
#[test]
fn oversized_batch_count_rejected() {
    let mut frame = Vec::new();
    encode_lock_batch_into(&mut frame, 1, &[]);
    let count_at = 4 + HEADER_LEN; // length prefix + opcode + id
    frame[count_at..count_at + 4].copy_from_slice(&((MAX_BATCH as u32) + 1).to_le_bytes());

    let over = MAX_BATCH + 1;
    assert_eq!(
        decode_request(&frame[4..]),
        Err(WireError::BatchTooLarge(over))
    );
    let mut items = Vec::new();
    assert_eq!(
        decode_lock_batch_into(&frame[4..], &mut items),
        Err(WireError::BatchTooLarge(over))
    );

    // Same guard on the reply side.
    let mut frame = Vec::new();
    locktune_net::wire::encode_batch_outcomes_into(&mut frame, 1, &[]);
    frame[count_at..count_at + 4].copy_from_slice(&((MAX_BATCH as u32) + 1).to_le_bytes());
    assert_eq!(
        decode_reply(&frame[4..]),
        Err(WireError::BatchTooLarge(over))
    );
}

/// The worst-case Metrics reply — all four histograms with every
/// bucket populated, the event and tick lists at their wire bounds
/// with the widest item encodings — still fits one frame. This is the
/// derivation behind `MAX_WIRE_EVENTS`/`MAX_WIRE_TICKS`.
#[test]
fn max_metrics_reply_fits_one_frame() {
    let full_hist = HistogramSnapshot::from_parts([u64::MAX / 64; BUCKETS], u64::MAX, u64::MAX);
    let snap = MetricsSnapshot {
        lock_wait_micros: full_hist.clone(),
        latch_hold_nanos: full_hist.clone(),
        batch_size: full_hist.clone(),
        sync_stall_micros: full_hist,
        // Escalation is the widest event encoding (26 bytes).
        events: (0..MAX_WIRE_EVENTS as u64)
            .map(|i| JournalEvent {
                seq: i,
                at_ms: i,
                kind: EventKind::Escalation {
                    app: AppId(u32::MAX),
                    table: TableId(u32::MAX),
                    exclusive: true,
                },
            })
            .collect(),
        ticks: (0..MAX_WIRE_TICKS as u64)
            .map(|i| TuningTick {
                seq: i,
                reason: TuningReason::EscalationDoubling,
                target_bytes: u64::MAX,
                current_bytes: u64::MAX,
                lock_bytes_after: u64::MAX,
                funded_bytes: u64::MAX,
                released_bytes: u64::MAX,
                app_percent: 100.0,
            })
            .collect(),
        io_shards: (0..MAX_WIRE_IO_SHARDS as u32)
            .map(|i| IoShardStats {
                shard: i,
                connections: u64::MAX,
                wakeups: u64::MAX,
                writev_calls: u64::MAX,
                writev_frames: u64::MAX,
                write_buf_hwm: u64::MAX,
                spin_hits: u64::MAX,
                parks: u64::MAX,
            })
            .collect(),
        ..MetricsSnapshot::default()
    };
    let frame = encode_reply(5, &Reply::Metrics(Box::new(snap.clone())));
    assert!(
        frame.len() - 4 <= MAX_PAYLOAD,
        "metrics payload {}",
        frame.len() - 4
    );
    assert_eq!(
        decode_reply(&frame[4..]),
        Ok((5, Reply::Metrics(Box::new(snap))))
    );
}

/// The worst-case TenantStats reply — full tenant table, full donation
/// window, every field at its widest encoding — fits one frame.
#[test]
fn max_tenant_stats_reply_fits_one_frame() {
    let reply = TenantStatsReply {
        rollup: MachineRollup {
            machine_budget: u64::MAX,
            free_budget: u64::MAX,
            arbitrations: u64::MAX,
            donations: u64::MAX,
            donated_bytes: u64::MAX,
            tenants: (0..MAX_WIRE_TENANTS as u32)
                .map(|id| TenantRow {
                    id,
                    budget: u64::MAX,
                    floor: u64::MAX,
                    pool_bytes: u64::MAX,
                    pool_slots_used: u64::MAX,
                    free_fraction: 1.0,
                    benefit: 1e300,
                    connected_apps: u64::MAX,
                    escalations: u64::MAX,
                    denials: u64::MAX,
                    shedding: true,
                })
                .collect(),
        },
        donations: (0..MAX_WIRE_DONATIONS as u64)
            .map(|seq| TenantDonation {
                seq,
                at_ms: u64::MAX,
                from: Some(u32::MAX),
                to: u32::MAX,
                bytes: u64::MAX,
                from_benefit: 1e300,
                to_benefit: 1e300,
            })
            .collect(),
        next_donation_seq: u64::MAX,
    };
    let frame = encode_reply(6, &Reply::TenantStats(Box::new(reply.clone())));
    assert!(
        frame.len() - 4 <= MAX_PAYLOAD,
        "tenant stats payload {}",
        frame.len() - 4
    );
    assert_eq!(
        decode_reply(&frame[4..]),
        Ok((6, Reply::TenantStats(Box::new(reply))))
    );
}

/// A forged tenant-row or donation count past the wire bound is
/// rejected before any allocation happens.
#[test]
fn forged_tenant_stats_counts_rejected() {
    let empty = TenantStatsReply {
        rollup: MachineRollup {
            machine_budget: 0,
            free_budget: 0,
            arbitrations: 0,
            donations: 0,
            donated_bytes: 0,
            tenants: Vec::new(),
        },
        donations: Vec::new(),
        next_donation_seq: 0,
    };
    let frame = encode_reply(1, &Reply::TenantStats(Box::new(empty)));
    // Payload layout: header (9) + five u64 totals (40) + u32 row
    // count at offset 49.
    let mut forged = frame.clone();
    forged[4 + 49..4 + 53].copy_from_slice(&(MAX_WIRE_TENANTS as u32 + 1).to_le_bytes());
    let len = (forged.len() - 4) as u32;
    forged[..4].copy_from_slice(&len.to_le_bytes());
    assert_eq!(
        decode_reply(&forged[4..]),
        Err(WireError::TooMany {
            what: "tenant rows",
            n: MAX_WIRE_TENANTS + 1,
        })
    );
    // Donation count sits right after the (empty) row table.
    let mut forged = frame;
    forged[4 + 53..4 + 57].copy_from_slice(&(MAX_WIRE_DONATIONS as u32 + 1).to_le_bytes());
    assert_eq!(
        decode_reply(&forged[4..]),
        Err(WireError::TooMany {
            what: "donations",
            n: MAX_WIRE_DONATIONS + 1,
        })
    );
}

/// The worst-case WaitGraph reply — edge list and gid table both at
/// their wire bounds, every field at its widest — fits one frame.
/// This is the derivation behind `MAX_WIRE_EDGES`/`MAX_WIRE_GIDS`.
#[test]
fn max_wait_graph_reply_fits_one_frame() {
    let reply = WaitGraphReply {
        edges: (0..MAX_WIRE_EDGES as u32)
            .map(|i| (i, u32::MAX - i))
            .collect(),
        gids: (0..MAX_WIRE_GIDS as u32)
            .map(|i| (i, GID_RESERVED | u64::from(i)))
            .collect(),
    };
    let frame = encode_reply(8, &Reply::WaitGraph(reply.clone()));
    assert!(
        frame.len() - 4 <= MAX_PAYLOAD,
        "wait graph payload {}",
        frame.len() - 4
    );
    assert_eq!(decode_reply(&frame[4..]), Ok((8, Reply::WaitGraph(reply))));
}

/// A forged edge or gid count past the wire bound is rejected before
/// any allocation happens.
#[test]
fn forged_wait_graph_counts_rejected() {
    let frame = encode_reply(2, &Reply::WaitGraph(WaitGraphReply::default()));
    // Payload layout: header (9) + u32 edge count + (empty) edges +
    // u32 gid count.
    let edges_at = 4 + HEADER_LEN;
    let mut forged = frame.clone();
    forged[edges_at..edges_at + 4].copy_from_slice(&(MAX_WIRE_EDGES as u32 + 1).to_le_bytes());
    assert_eq!(
        decode_reply(&forged[4..]),
        Err(WireError::TooMany {
            what: "wait edges",
            n: MAX_WIRE_EDGES + 1,
        })
    );
    let gids_at = edges_at + 4;
    let mut forged = frame;
    forged[gids_at..gids_at + 4].copy_from_slice(&(MAX_WIRE_GIDS as u32 + 1).to_le_bytes());
    assert_eq!(
        decode_reply(&forged[4..]),
        Err(WireError::TooMany {
            what: "gid bindings",
            n: MAX_WIRE_GIDS + 1,
        })
    );
}

/// Forged Metrics frames are rejected structurally: an event or
/// I/O-shard count above the wire bound, and a histogram with a
/// duplicate (or non-ascending) bucket index, all fail before any
/// allocation proportional to the forged count.
#[test]
fn forged_metrics_counts_rejected() {
    let base = encode_reply(1, &Reply::Metrics(Box::default()));
    let payload = &base[4..];

    // The default snapshot encodes its four empty histograms as
    // (0 nonzero, sum, max) = 17 bytes each; the event count sits
    // right after the fixed block of the header, 51 u64-width fields
    // (uptime + 14 lock stats + the obs counter table + 4 pool gauges
    // + 4 f64s + 4 tuning counters + fence epoch) and the 4 histograms.
    let fixed = 1 + 14 + ObsCounters::COUNT + 4 + 4 + 4 + 1;
    assert_eq!(fixed, 51, "the Metrics header's width changed");
    let events_at = HEADER_LEN + fixed * 8 + 4 * 17;
    assert_eq!(
        &payload[events_at..events_at + 4],
        &0u32.to_le_bytes(),
        "event-count offset drifted; update this test"
    );
    let mut forged = payload.to_vec();
    forged[events_at..events_at + 4].copy_from_slice(&((MAX_WIRE_EVENTS as u32) + 1).to_le_bytes());
    assert_eq!(
        decode_reply(&forged),
        Err(WireError::TooMany {
            what: "journal events",
            n: MAX_WIRE_EVENTS + 1,
        })
    );

    // The I/O-shard row count closes the frame, behind the (empty)
    // event list, its cursor, the (empty) tick list and its cursor.
    let shards_at = events_at + 4 + 8 + 4 + 8;
    assert_eq!(shards_at + 4, payload.len(), "shard-count offset drifted");
    let mut forged = payload.to_vec();
    forged[shards_at..].copy_from_slice(&((MAX_WIRE_IO_SHARDS as u32) + 1).to_le_bytes());
    assert_eq!(
        decode_reply(&forged),
        Err(WireError::TooMany {
            what: "io shards",
            n: MAX_WIRE_IO_SHARDS + 1,
        })
    );

    // Duplicate bucket index: claim 2 nonzero buckets, both index 0.
    let hist_at = HEADER_LEN + fixed * 8;
    let mut forged = Vec::new();
    forged.extend_from_slice(&payload[..hist_at]);
    forged.push(2); // n_nonzero
    for _ in 0..2 {
        forged.push(0); // bucket index 0, twice
        forged.extend_from_slice(&7u64.to_le_bytes());
    }
    forged.extend_from_slice(&payload[hist_at + 17..]);
    assert_eq!(
        decode_reply(&forged),
        Err(WireError::BadTag {
            what: "histogram bucket",
            tag: 0,
        })
    );
}
