//! Learned optimizer feedback (§6.1 future work).
//!
//! The paper's first future-work item: "learning in query optimization
//! to better estimate locking decisions that are made at query
//! optimization time." The stable `sqlCompilerLockMem` view (§3.6)
//! fixes *how much* lock memory the optimizer may assume; this module
//! learns *how good the optimizer's row-count estimates are* by
//! comparing compile-time lock estimates with runtime actuals and
//! maintaining an exponentially weighted correction ratio.
//!
//! The corrected estimate feeds [`choose_locking`]: a statement
//! expected to overrun the compiler's lock budget is compiled with
//! table-level locking up front, instead of being left to escalate at
//! runtime.

use crate::optimizer_view::OptimizerView;
use crate::params::TunerParams;

/// Locking strategy chosen at compile time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockingStrategy {
    /// Row-level locking: the estimate fits the compiler's lock budget.
    RowLocking,
    /// Table-level locking: the (corrected) estimate exceeds the
    /// budget; escalation would be unavoidable at runtime.
    TableLocking,
}

/// EWMA-based estimate correction.
#[derive(Debug, Clone)]
pub struct OptimizerFeedback {
    /// Smoothing factor in `(0, 1]`; higher adapts faster.
    alpha: f64,
    /// Current multiplicative correction (actual / estimated).
    ratio: f64,
    /// Observations recorded.
    observations: u64,
    /// Bounds keeping one pathological statement from destabilizing
    /// every future plan.
    min_ratio: f64,
    max_ratio: f64,
}

impl Default for OptimizerFeedback {
    fn default() -> Self {
        Self::new(0.2)
    }
}

impl OptimizerFeedback {
    /// Create with the given smoothing factor.
    ///
    /// # Panics
    /// Panics unless `alpha` is in `(0, 1]`.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        OptimizerFeedback {
            alpha,
            ratio: 1.0,
            observations: 0,
            min_ratio: 0.1,
            max_ratio: 10.0,
        }
    }

    /// Current correction ratio (1.0 = estimates are trusted as-is).
    pub fn ratio(&self) -> f64 {
        self.ratio
    }

    /// Observations recorded so far.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Record one statement's compile-time estimate and runtime actual
    /// row-lock count. Zero estimates are ignored (no signal).
    pub fn record(&mut self, estimated_locks: u64, actual_locks: u64) {
        if estimated_locks == 0 {
            return;
        }
        let observed = actual_locks as f64 / estimated_locks as f64;
        let clamped = observed.clamp(self.min_ratio, self.max_ratio);
        self.ratio = (1.0 - self.alpha) * self.ratio + self.alpha * clamped;
        self.observations += 1;
    }

    /// Apply the learned correction to a compile-time estimate.
    pub fn corrected_estimate(&self, estimated_locks: u64) -> u64 {
        (estimated_locks as f64 * self.ratio).ceil() as u64
    }
}

/// Compile-time locking choice against the *stable* optimizer view
/// (§3.6): independent of the tuner's instantaneous state, optionally
/// sharpened by learned feedback.
pub fn choose_locking(
    params: &TunerParams,
    database_memory_bytes: u64,
    estimated_row_locks: u64,
    feedback: Option<&OptimizerFeedback>,
) -> LockingStrategy {
    let view = OptimizerView::compute(params, database_memory_bytes);
    let corrected = match feedback {
        Some(f) => f.corrected_estimate(estimated_row_locks),
        None => estimated_row_locks,
    };
    if corrected <= view.plannable_row_locks(params) {
        LockingStrategy::RowLocking
    } else {
        LockingStrategy::TableLocking
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::MIB;

    #[test]
    fn starts_neutral() {
        let f = OptimizerFeedback::default();
        assert_eq!(f.ratio(), 1.0);
        assert_eq!(f.corrected_estimate(100), 100);
    }

    #[test]
    fn learns_underestimation() {
        let mut f = OptimizerFeedback::new(0.5);
        // The optimizer consistently estimates 100 but statements lock 300.
        for _ in 0..20 {
            f.record(100, 300);
        }
        assert!(f.ratio() > 2.5, "ratio {}", f.ratio());
        assert!(f.corrected_estimate(100) >= 280);
    }

    #[test]
    fn learns_overestimation() {
        let mut f = OptimizerFeedback::new(0.5);
        for _ in 0..20 {
            f.record(1000, 100);
        }
        assert!(f.ratio() < 0.2, "ratio {}", f.ratio());
    }

    #[test]
    fn outliers_are_clamped() {
        let mut f = OptimizerFeedback::new(1.0); // no smoothing: worst case
        f.record(1, 1_000_000);
        assert!(f.ratio() <= 10.0, "one outlier cannot exceed the bound");
        f.record(1_000_000, 1);
        assert!(f.ratio() >= 0.1);
    }

    #[test]
    fn zero_estimate_is_no_signal() {
        let mut f = OptimizerFeedback::default();
        f.record(0, 500);
        assert_eq!(f.observations(), 0);
        assert_eq!(f.ratio(), 1.0);
    }

    #[test]
    fn choice_uses_stable_view() {
        let params = TunerParams::default();
        let db = 5120 * MIB;
        // Budget: 10% of db × 98% / 64 B ≈ 8.0 M row locks.
        assert_eq!(
            choose_locking(&params, db, 1_000_000, None),
            LockingStrategy::RowLocking
        );
        assert_eq!(
            choose_locking(&params, db, 20_000_000, None),
            LockingStrategy::TableLocking
        );
    }

    #[test]
    fn choice_is_independent_of_runtime_state() {
        // §3.6's whole point: two compilations at different tuner states
        // see the same budget. The API admits no tuner state at all, so
        // assert the same inputs give the same answer (stability by
        // construction).
        let params = TunerParams::default();
        let a = choose_locking(&params, 1024 * MIB, 500_000, None);
        let b = choose_locking(&params, 1024 * MIB, 500_000, None);
        assert_eq!(a, b);
    }

    #[test]
    fn learned_feedback_flips_the_choice() {
        let params = TunerParams::default();
        let db = 1024 * MIB;
        let view = OptimizerView::compute(&params, db);
        let budget = view.plannable_row_locks(&params);
        // Estimate just under budget: row locking without feedback.
        let est = budget - 10;
        assert_eq!(
            choose_locking(&params, db, est, None),
            LockingStrategy::RowLocking
        );
        // But history shows 3x underestimation: table locking chosen.
        let mut f = OptimizerFeedback::new(0.5);
        for _ in 0..20 {
            f.record(100, 300);
        }
        assert_eq!(
            choose_locking(&params, db, est, Some(&f)),
            LockingStrategy::TableLocking
        );
    }

    #[test]
    fn clone_preserves_feedback_state() {
        // The feedback state is plain data; a clone carries all of it.
        let mut f = OptimizerFeedback::default();
        f.record(10, 30);
        let back = f.clone();
        assert!((back.ratio() - f.ratio()).abs() < 1e-12);
        assert_eq!(back.observations(), 1);
    }
}
