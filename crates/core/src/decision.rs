//! Tuner outputs.

/// Why the tuner chose its target size (one reason per tuning point;
/// recorded into experiment traces so figures can annotate resizes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TuningReason {
    /// Free fraction fell below `minFreeLockMemory`: grow to restore it.
    GrowForFreeTarget,
    /// Free fraction within the `[minFree, maxFree]` band: hysteresis,
    /// keep the previous target.
    WithinBand,
    /// Free fraction above `maxFreeLockMemory`: shrink by `δ_reduce`.
    ShrinkDeltaReduce,
    /// Escalations occurred while overflow was constrained: double.
    EscalationDoubling,
    /// The computed target was clamped up to `minLockMemory`.
    ClampedToMin,
    /// The computed target was clamped down to `maxLockMemory`.
    ClampedToMax,
}

/// One asynchronous tuning decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TuningDecision {
    /// The new goal for the lock memory allocation, in whole blocks'
    /// worth of bytes. Also becomes the new on-disk configuration
    /// (`LMOC`).
    pub target_bytes: u64,
    /// Allocation size the decision was computed against.
    pub current_bytes: u64,
    /// Why.
    pub reason: TuningReason,
    /// `lockPercentPerApplication` recomputed at this tuning point.
    pub app_percent: f64,
}

impl TuningDecision {
    /// Bytes to add (zero if shrinking or unchanged).
    pub fn grow_bytes(&self) -> u64 {
        self.target_bytes.saturating_sub(self.current_bytes)
    }

    /// Bytes to release (zero if growing or unchanged).
    pub fn shrink_bytes(&self) -> u64 {
        self.current_bytes.saturating_sub(self.target_bytes)
    }

    /// True when the decision leaves the size untouched.
    pub fn is_no_change(&self) -> bool {
        self.target_bytes == self.current_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grow_and_shrink_views() {
        let d = TuningDecision {
            target_bytes: 300,
            current_bytes: 100,
            reason: TuningReason::GrowForFreeTarget,
            app_percent: 98.0,
        };
        assert_eq!(d.grow_bytes(), 200);
        assert_eq!(d.shrink_bytes(), 0);
        assert!(!d.is_no_change());

        let s = TuningDecision {
            target_bytes: 100,
            current_bytes: 300,
            ..d
        };
        assert_eq!(s.grow_bytes(), 0);
        assert_eq!(s.shrink_bytes(), 200);

        let n = TuningDecision {
            target_bytes: 100,
            current_bytes: 100,
            ..d
        };
        assert!(n.is_no_change());
    }
}
