//! Property-based tests for the tuning algorithm's global invariants.

use locktune_core::{
    lock_percent_per_application, LockMemoryBounds, LockMemorySnapshot, LockMemoryTuner,
    OverflowState, TunerParams, TuningReason,
};
use locktune_sim::check::prelude::*;

const MIB: u64 = 1024 * 1024;
const BLOCK: u64 = 131_072;

fn snapshot_strategy() -> impl Strategy<Value = LockMemorySnapshot> {
    (
        0u64..4096,   // allocated blocks
        0u64..4096,   // used blocks (clamped below)
        1u64..1000,   // applications
        0u64..5,      // escalations
        512u64..8192, // database memory in MiB
        0u64..2048,   // overflow free MiB
    )
        .prop_map(|(alloc_b, used_b, apps, escs, db_mib, ovf_mib)| {
            let allocated = alloc_b * BLOCK;
            let used = (used_b * BLOCK).min(allocated);
            LockMemorySnapshot {
                allocated_bytes: allocated,
                used_bytes: used,
                lmoc_bytes: allocated,
                num_applications: apps,
                escalations_since_last: escs,
                overflow: OverflowState {
                    database_memory_bytes: db_mib * MIB,
                    sum_heap_bytes: (db_mib * MIB).saturating_sub(ovf_mib * MIB),
                    lock_memory_from_overflow_bytes: 0,
                    overflow_free_bytes: ovf_mib * MIB,
                },
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every decision is block-aligned and inside [min, max].
    #[test]
    fn decisions_respect_bounds(s in snapshot_strategy()) {
        let params = TunerParams::default();
        let mut t = LockMemoryTuner::new(params);
        let d = t.tick(&s);
        prop_assert_eq!(d.target_bytes % BLOCK, 0);
        let bounds = LockMemoryBounds::compute(
            &params, s.num_applications, s.overflow.database_memory_bytes);
        prop_assert!(d.target_bytes >= bounds.min_bytes,
            "target {} below min {}", d.target_bytes, bounds.min_bytes);
        prop_assert!(d.target_bytes <= bounds.max_bytes,
            "target {} above max {}", d.target_bytes, bounds.max_bytes);
        prop_assert!((1.0..=98.0).contains(&d.app_percent));
    }

    /// Without escalations, a shrink step never releases more than
    /// delta_reduce of the current size (plus one block of rounding).
    #[test]
    fn shrink_rate_is_bounded(s in snapshot_strategy()) {
        let mut s = s;
        s.escalations_since_last = 0;
        let params = TunerParams::default();
        let mut t = LockMemoryTuner::new(params);
        let d = t.tick(&s);
        if d.reason == TuningReason::ShrinkDeltaReduce {
            let max_step = (params.delta_reduce * s.allocated_bytes as f64) as u64 + BLOCK;
            prop_assert!(d.shrink_bytes() <= max_step,
                "shrank {} of {}", d.shrink_bytes(), s.allocated_bytes);
        }
    }

    /// Growth always provides at least the minFree objective or hits a
    /// clamp: after an (applied) grow decision, the free fraction is at
    /// least minFree unless the max bound intervened.
    #[test]
    fn grow_restores_free_target(s in snapshot_strategy()) {
        let mut s = s;
        s.escalations_since_last = 0;
        let params = TunerParams::default();
        let mut t = LockMemoryTuner::new(params);
        let d = t.tick(&s);
        if d.reason == TuningReason::GrowForFreeTarget {
            let free = d.target_bytes - s.used_bytes;
            let frac = free as f64 / d.target_bytes as f64;
            prop_assert!(frac >= params.min_free_fraction - 1e-9,
                "free fraction {frac} after grow to {}", d.target_bytes);
        }
    }

    /// The closed loop converges for any constant demand: repeatedly
    /// applying decisions reaches a fixed point within 200 ticks.
    #[test]
    fn closed_loop_reaches_fixed_point(
        used_blocks in 0u64..2000,
        start_blocks in 0u64..3000,
        apps in 1u64..500,
    ) {
        let params = TunerParams::default();
        let mut t = LockMemoryTuner::new(params);
        let db = 8192 * MIB;
        let used = used_blocks * BLOCK;
        let mut alloc = start_blocks * BLOCK;
        let mut last = None;
        let mut stable = 0;
        for _ in 0..200 {
            let s = LockMemorySnapshot {
                allocated_bytes: alloc,
                used_bytes: used.min(alloc),
                lmoc_bytes: alloc,
                num_applications: apps,
                escalations_since_last: 0,
                overflow: OverflowState {
                    database_memory_bytes: db,
                    sum_heap_bytes: db - 2048 * MIB,
                    lock_memory_from_overflow_bytes: 0,
                    overflow_free_bytes: 2048 * MIB,
                },
            };
            let d = t.tick(&s);
            if last == Some(d.target_bytes) {
                stable += 1;
                if stable >= 3 {
                    return Ok(());
                }
            } else {
                stable = 0;
            }
            last = Some(d.target_bytes);
            alloc = d.target_bytes;
        }
        prop_assert!(false, "no fixed point: ended at {alloc} for used {used}");
    }

    /// The app-percent curve is monotone non-increasing and bounded.
    #[test]
    fn curve_monotone(x1 in 0.0f64..1.0, x2 in 0.0f64..1.0) {
        let params = TunerParams::default();
        let (lo, hi) = if x1 <= x2 { (x1, x2) } else { (x2, x1) };
        let v_lo = lock_percent_per_application(&params, lo);
        let v_hi = lock_percent_per_application(&params, hi);
        prop_assert!(v_lo >= v_hi - 1e-12);
        prop_assert!((1.0..=98.0).contains(&v_lo));
        prop_assert!((1.0..=98.0).contains(&v_hi));
    }

    /// Escalation-doubling at least doubles (until clamped).
    #[test]
    fn doubling_doubles_until_clamped(s in snapshot_strategy()) {
        let mut s = s;
        s.escalations_since_last = 1;
        let params = TunerParams::default();
        let mut t = LockMemoryTuner::new(params);
        let d = t.tick(&s);
        let bounds = LockMemoryBounds::compute(
            &params, s.num_applications, s.overflow.database_memory_bytes);
        match d.reason {
            TuningReason::EscalationDoubling => {
                prop_assert!(d.target_bytes >= 2 * s.allocated_bytes.max(BLOCK));
            }
            TuningReason::ClampedToMax => {
                prop_assert_eq!(d.target_bytes, bounds.max_bytes);
            }
            TuningReason::ClampedToMin => {
                prop_assert_eq!(d.target_bytes, bounds.min_bytes);
            }
            other => prop_assert!(false, "unexpected reason {other:?}"),
        }
    }
}
