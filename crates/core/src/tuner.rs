//! The asynchronous (per-interval) tuning state machine (paper §3.3,
//! §3.4), combined with the controls the lock manager consults between
//! intervals.
//!
//! Sizing policy per tick, in priority order:
//!
//! 1. **Escalation-doubling** — escalations since the last tick mean
//!    the synchronous path could not grow (overflow constrained or at
//!    max): target `2 × current`, clamped.
//! 2. **Grow** — free fraction below `minFreeLockMemory`: target the
//!    size at which exactly `minFreeLockMemory` is free
//!    (`used / (1 − minFree)`, i.e. 2 × used at the default 50 %).
//! 3. **Shrink** — free fraction above `maxFreeLockMemory`: release
//!    `δ_reduce` (5 %) of the current size, rounded to the nearest
//!    block, but never past the size at which `maxFreeLockMemory` would
//!    be free (`used / (1 − maxFree)` = 2.5 × used by default).
//! 4. **Hysteresis** — free fraction inside the band: keep the previous
//!    target ("no change will be made", §3.3).
//!
//! The result is clamped to `[minLockMemory, maxLockMemory]` and
//! block-aligned. Interpretation note: the paper's `x` ("% of
//! maxLockMemory that is currently used") is read as the lock memory
//! *in use* relative to the max. Using the allocated size instead
//! creates a pathological loop: an allocation pinned at `maxLockMemory`
//! collapses the cap to 1 % and every transaction escalates even after
//! demand subsides — with 50 % kept free, allocation reaches the max
//! long before usage does.

use crate::app_percent::AppPercentController;
use crate::bounds::LockMemoryBounds;
use crate::decision::{TuningDecision, TuningReason};
use crate::params::TunerParams;
use crate::snapshot::LockMemorySnapshot;
use crate::sync_growth::{SyncGrant, SyncGrowth};

/// The adaptive lock memory tuner.
///
/// One instance per database; feed it a [`LockMemorySnapshot`] at every
/// STMM tuning interval via [`tick`](Self::tick) and route the lock
/// manager's per-request and synchronous-growth queries through it.
#[derive(Debug, Clone)]
pub struct LockMemoryTuner {
    params: TunerParams,
    app_percent: AppPercentController,
    /// Target from the previous tick (hysteresis anchor).
    prev_target: Option<u64>,
    /// Ticks processed.
    ticks: u64,
}

impl LockMemoryTuner {
    /// Create a tuner.
    ///
    /// # Panics
    /// Panics if `params` fail validation — a tuner with inconsistent
    /// constants would mis-size every database it controls.
    pub fn new(params: TunerParams) -> Self {
        if let Err(e) = params.validate() {
            panic!("invalid tuner parameters: {e}");
        }
        LockMemoryTuner {
            app_percent: AppPercentController::new(params),
            params,
            prev_target: None,
            ticks: 0,
        }
    }

    /// The parameter set in force.
    pub fn params(&self) -> &TunerParams {
        &self.params
    }

    /// Ticks processed so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Current in-memory `lockPercentPerApplication`.
    pub fn app_percent(&self) -> f64 {
        self.app_percent.current()
    }

    /// Mutable access to the per-application controller (the STMM
    /// controller recomputes the cap through this between ticks).
    pub fn app_percent_mut(&mut self) -> &mut AppPercentController {
        &mut self.app_percent
    }

    /// Synchronous growth admission (used by the lock manager when the
    /// pool is exhausted mid-interval).
    pub fn request_sync_growth(
        &self,
        wanted_bytes: u64,
        snapshot: &LockMemorySnapshot,
    ) -> SyncGrant {
        SyncGrowth::new(&self.params).request(
            wanted_bytes,
            snapshot.allocated_bytes,
            snapshot.num_applications,
            &snapshot.overflow,
        )
    }

    /// One asynchronous tuning step.
    pub fn tick(&mut self, snap: &LockMemorySnapshot) -> TuningDecision {
        self.ticks += 1;
        let bounds = LockMemoryBounds::compute(
            &self.params,
            snap.num_applications,
            snap.overflow.database_memory_bytes,
        );
        let current = snap.allocated_bytes;

        let (raw_target, mut reason) = if snap.escalations_since_last > 0 {
            let doubled = (current.max(self.params.block_bytes) as f64
                * self.params.escalation_growth_factor) as u64;
            (
                self.params.round_up_to_block(doubled),
                TuningReason::EscalationDoubling,
            )
        } else {
            let free = snap.free_fraction();
            if free < self.params.min_free_fraction {
                // Size at which exactly minFree of the allocation is free.
                let target = grow_target(&self.params, snap.used_bytes);
                (target, TuningReason::GrowForFreeTarget)
            } else if free > self.params.max_free_fraction {
                let step = self
                    .params
                    .round_to_nearest_block((self.params.delta_reduce * current as f64) as u64);
                let floor = shrink_floor(&self.params, snap.used_bytes);
                let target = current.saturating_sub(step).max(floor);
                (
                    self.params.round_up_to_block(target),
                    TuningReason::ShrinkDeltaReduce,
                )
            } else {
                // Within the band: keep the previous target (§3.3).
                (
                    self.prev_target.unwrap_or(current),
                    TuningReason::WithinBand,
                )
            }
        };

        let clamped = bounds.clamp(raw_target);
        if clamped > raw_target {
            reason = TuningReason::ClampedToMin;
        } else if clamped < raw_target {
            reason = TuningReason::ClampedToMax;
        }
        let target = self
            .params
            .round_up_to_block(clamped)
            .min(bounds.max_bytes.max(bounds.min_bytes));
        self.prev_target = Some(target);

        // §3.5: recompute on resize; externalize at the tuning point.
        let x = bounds.used_fraction_of_max(snap.used_bytes);
        let app_percent = self.app_percent.recompute(x);
        self.app_percent.externalize();

        TuningDecision {
            target_bytes: target,
            current_bytes: current,
            reason,
            app_percent,
        }
    }
}

/// Size at which exactly `minFree` of the allocation is free for the
/// given usage, block-aligned upward.
fn grow_target(params: &TunerParams, used_bytes: u64) -> u64 {
    let denom = 1.0 - params.min_free_fraction;
    params.round_up_to_block((used_bytes as f64 / denom).ceil() as u64)
}

/// Smallest size the shrink path may reach: the size at which
/// `maxFree` of the allocation would be free.
fn shrink_floor(params: &TunerParams, used_bytes: u64) -> u64 {
    let denom = 1.0 - params.max_free_fraction;
    params.round_up_to_block((used_bytes as f64 / denom).ceil() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::MIB;
    use crate::snapshot::OverflowState;

    const BLOCK: u64 = 131_072;

    fn overflow() -> OverflowState {
        OverflowState {
            database_memory_bytes: 5120 * MIB,
            sum_heap_bytes: 4600 * MIB,
            lock_memory_from_overflow_bytes: 0,
            overflow_free_bytes: 520 * MIB,
        }
    }

    fn snap(allocated: u64, used: u64) -> LockMemorySnapshot {
        LockMemorySnapshot {
            allocated_bytes: allocated,
            used_bytes: used,
            lmoc_bytes: allocated,
            num_applications: 130,
            escalations_since_last: 0,
            overflow: overflow(),
        }
    }

    fn tuner() -> LockMemoryTuner {
        LockMemoryTuner::new(TunerParams::default())
    }

    #[test]
    fn grows_to_double_used_when_constrained() {
        let mut t = tuner();
        // 100 MB allocated, 80 MB used -> 20% free < 50% -> target 160 MB.
        let d = t.tick(&snap(100 * MIB, 80 * MIB));
        assert_eq!(d.reason, TuningReason::GrowForFreeTarget);
        assert_eq!(d.target_bytes, 160 * MIB);
        assert_eq!(d.grow_bytes(), 60 * MIB);
    }

    #[test]
    fn band_keeps_previous_target() {
        let mut t = tuner();
        // Free fraction 55%: inside [50, 60] band.
        let d = t.tick(&snap(200 * MIB, 90 * MIB));
        assert_eq!(d.reason, TuningReason::WithinBand);
        assert!(d.is_no_change());
        // Subsequent tick with the same state: still anchored.
        let d2 = t.tick(&snap(200 * MIB, 90 * MIB));
        assert_eq!(d2.target_bytes, d.target_bytes);
    }

    #[test]
    fn band_anchors_to_previous_target_after_failed_apply() {
        let mut t = tuner();
        // First tick: grow to 160 MB.
        let d1 = t.tick(&snap(100 * MIB, 80 * MIB));
        assert_eq!(d1.target_bytes, 160 * MIB);
        // Apply partially (say the controller only found 150 MB) and the
        // workload drops so the pool is now in-band: the tuner keeps
        // pushing towards its previous target rather than freezing at 150.
        let d2 = t.tick(&snap(150 * MIB, 70 * MIB)); // free = 53%
        assert_eq!(d2.reason, TuningReason::WithinBand);
        assert_eq!(d2.target_bytes, 160 * MIB);
    }

    #[test]
    fn shrinks_five_percent_per_tick() {
        let mut t = tuner();
        // 200 MB allocated, 10 MB used -> 95% free > 60%.
        let d = t.tick(&snap(200 * MIB, 10 * MIB));
        assert_eq!(d.reason, TuningReason::ShrinkDeltaReduce);
        let step = TunerParams::default().round_to_nearest_block(10 * MIB); // 5% of 200 MB
        assert_eq!(d.target_bytes, 200 * MIB - step);
    }

    #[test]
    fn shrink_stops_at_max_free_floor() {
        let mut t = tuner();
        // 26 blocks allocated, 10 blocks used -> floor = 10/(0.4) = 25 blocks.
        // 5% of 26 blocks = 1.3 blocks -> rounds to 1 block step.
        // (10 applications so minLockMemory = 2 MB = 16 blocks stays below.)
        let mut s = snap(26 * BLOCK, 10 * BLOCK);
        s.num_applications = 10;
        let d = t.tick(&s);
        assert_eq!(d.reason, TuningReason::ShrinkDeltaReduce);
        assert_eq!(d.target_bytes, 25 * BLOCK);
        // At 25 blocks the free fraction is exactly 60%: in band, stop.
        let mut s2 = snap(25 * BLOCK, 10 * BLOCK);
        s2.num_applications = 10;
        let d2 = t.tick(&s2);
        assert_eq!(d2.reason, TuningReason::WithinBand);
        assert_eq!(d2.target_bytes, 25 * BLOCK);
    }

    #[test]
    fn gradual_decay_reaches_steady_state_in_about_ten_ticks() {
        // Figure 12's shape: demand drops ~77%, the allocation decays
        // ~5% per interval and settles near half its earlier level
        // (bounded below by the shrink floor).
        let mut t = tuner();
        let used = 16 * BLOCK; // post-drop usage
        let mut alloc = 80 * BLOCK; // pre-drop allocation (20% used)
        let mut ticks = 0;
        loop {
            let d = t.tick(&snap(alloc, used));
            if d.is_no_change() && d.reason == TuningReason::WithinBand {
                break;
            }
            assert_eq!(d.reason, TuningReason::ShrinkDeltaReduce);
            assert!(d.target_bytes < alloc);
            // Per-tick release is ~5% of current (one-block granularity).
            assert!(d.shrink_bytes() <= (0.05 * alloc as f64) as u64 + BLOCK);
            alloc = d.target_bytes;
            ticks += 1;
            assert!(ticks < 50, "decay must terminate");
        }
        // Floor: used/(1-0.6) = 40 blocks.
        assert_eq!(alloc, 40 * BLOCK);
        assert!(ticks >= 10, "decay is gradual, got {ticks} ticks");
    }

    #[test]
    fn escalation_doubles() {
        let mut t = tuner();
        let mut s = snap(10 * MIB, 10 * MIB);
        s.escalations_since_last = 3;
        let d = t.tick(&s);
        assert_eq!(d.reason, TuningReason::EscalationDoubling);
        assert_eq!(d.target_bytes, 20 * MIB);
        // Continuing escalations keep doubling.
        let mut s2 = snap(20 * MIB, 20 * MIB);
        s2.escalations_since_last = 1;
        let d2 = t.tick(&s2);
        assert_eq!(d2.target_bytes, 40 * MIB);
        // Escalations stop: so does the doubling.
        let d3 = t.tick(&snap(40 * MIB, 20 * MIB));
        assert_ne!(d3.reason, TuningReason::EscalationDoubling);
    }

    #[test]
    fn doubling_is_clamped_to_max() {
        let mut t = tuner();
        let max = (0.20 * (5120 * MIB) as f64) as u64;
        let near_max = TunerParams::default().round_up_to_block(max) - BLOCK;
        let mut s = snap(near_max, near_max);
        s.escalations_since_last = 1;
        let d = t.tick(&s);
        assert_eq!(d.reason, TuningReason::ClampedToMax);
        assert!(d.target_bytes <= TunerParams::default().round_up_to_block(max));
    }

    #[test]
    fn minimum_enforced_for_small_demand() {
        let mut t = tuner();
        // Nearly empty usage: shrink path would go to ~0, min bound holds.
        let mut alloc = 100 * MIB;
        for _ in 0..200 {
            let d = t.tick(&snap(alloc, 0));
            alloc = d.target_bytes;
        }
        // min for 130 apps = 500*64*130 rounded up.
        let expect_min = TunerParams::default().round_up_to_block(500 * 64 * 130);
        assert_eq!(alloc, expect_min);
    }

    #[test]
    fn empty_pool_with_demand_grows() {
        let mut t = tuner();
        let d = t.tick(&snap(0, 0));
        // Nothing allocated: clamp to minimum.
        assert_eq!(d.reason, TuningReason::ClampedToMin);
        let expect_min = TunerParams::default().round_up_to_block(500 * 64 * 130);
        assert_eq!(d.target_bytes, expect_min);
    }

    #[test]
    fn targets_are_block_aligned() {
        let mut t = tuner();
        for (a, u) in [
            (100 * MIB + 7, 99 * MIB),
            (3 * MIB, MIB / 3),
            (55 * MIB, 54 * MIB),
        ] {
            let d = t.tick(&snap(a, u));
            assert_eq!(d.target_bytes % BLOCK, 0, "target for ({a},{u})");
        }
    }

    #[test]
    fn app_percent_follows_growth_towards_max() {
        let mut t = tuner();
        let d_small = t.tick(&snap(10 * MIB, 8 * MIB));
        assert!(d_small.app_percent > 90.0, "ample memory keeps cap high");
        let max = (0.20 * (5120 * MIB) as f64) as u64;
        let d_big = t.tick(&snap(max - BLOCK, max - 2 * BLOCK));
        assert!(
            d_big.app_percent < 10.0,
            "cap collapses near max, got {}",
            d_big.app_percent
        );
    }

    #[test]
    fn closed_loop_converges_for_constant_demand() {
        // Apply each decision fully and feed the result back: the size
        // must converge to ~2x used and stay inside the band forever.
        let mut t = tuner();
        let used = 37 * BLOCK;
        let mut alloc = 4 * BLOCK;
        for _ in 0..100 {
            let mut s = snap(alloc, used.min(alloc));
            s.escalations_since_last = 0;
            let d = t.tick(&s);
            alloc = d.target_bytes;
        }
        let free_frac = (alloc - used) as f64 / alloc as f64;
        assert!(
            (0.5..=0.6).contains(&free_frac),
            "converged free fraction {free_frac} with alloc {} blocks",
            alloc / BLOCK
        );
        // And it is a fixed point.
        let d = t.tick(&snap(alloc, used));
        assert!(d.is_no_change());
    }

    #[test]
    fn sync_growth_delegates() {
        let t = tuner();
        let s = snap(8 * MIB, 8 * MIB);
        match t.request_sync_growth(BLOCK, &s) {
            SyncGrant::Granted { bytes } => assert_eq!(bytes, BLOCK),
            other => panic!("expected grant, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "invalid tuner parameters")]
    fn rejects_bad_params() {
        LockMemoryTuner::new(TunerParams {
            delta_reduce: 2.0,
            ..Default::default()
        });
    }

    #[test]
    fn surge_absorbed_without_sync_growth_within_band_design() {
        // §3.3's design claim: holding >=50% free absorbs a 100% growth
        // in lock structures within one interval. Simulate: converge at
        // used U, then double the demand; the doubled usage must still
        // fit in the allocation chosen by the tuner.
        let mut t = tuner();
        let used = 20 * BLOCK;
        let mut alloc = 4 * BLOCK;
        for _ in 0..50 {
            let d = t.tick(&snap(alloc, used.min(alloc)));
            alloc = d.target_bytes;
        }
        assert!(alloc >= 2 * used, "steady state holds >= 50% free");
        // 100% surge fits with no synchronous allocation needed.
        assert!(2 * used <= alloc);
    }
}
