//! Runtime controller for `lockPercentPerApplication` (paper §3.5).
//!
//! The in-memory value changes rapidly: it is recomputed whenever lock
//! memory is resized **and** every `refreshPeriodForAppPercent = 0x80`
//! lock-structure requests — roughly the cadence at which a 128 KiB
//! block's worth of structures can be consumed. The value exposed in
//! the on-disk configuration is only refreshed at STMM tuning intervals;
//! both views are available here.

use crate::curve::lock_percent_per_application;
use crate::params::TunerParams;

/// Tracks and refreshes the adaptive per-application cap.
#[derive(Debug, Clone)]
pub struct AppPercentController {
    params: TunerParams,
    /// Current in-memory value (percent, `[min, P]`).
    current: f64,
    /// Value externalized to the configuration at the last tuning point.
    externalized: f64,
    /// Lock-structure requests since the last recompute.
    requests_since_refresh: u64,
    /// Total recomputes performed (diagnostics / tests).
    recomputes: u64,
}

impl AppPercentController {
    /// Create the controller with the cap at its unconstrained maximum.
    pub fn new(params: TunerParams) -> Self {
        AppPercentController {
            current: params.app_percent_max,
            externalized: params.app_percent_max,
            params,
            requests_since_refresh: 0,
            recomputes: 0,
        }
    }

    /// Current in-memory `lockPercentPerApplication`.
    pub fn current(&self) -> f64 {
        self.current
    }

    /// The value as externalized in the configuration (updated only at
    /// tuning intervals).
    pub fn externalized(&self) -> f64 {
        self.externalized
    }

    /// Number of recomputes so far.
    pub fn recomputes(&self) -> u64 {
        self.recomputes
    }

    /// Unconditionally recompute from the used fraction of
    /// `maxLockMemory` (call on every lock-memory resize).
    pub fn recompute(&mut self, used_fraction_of_max: f64) -> f64 {
        self.current = lock_percent_per_application(&self.params, used_fraction_of_max);
        self.requests_since_refresh = 0;
        self.recomputes += 1;
        self.current
    }

    /// Record one lock-structure request; recomputes when the refresh
    /// period elapses. Returns the (possibly refreshed) current value.
    pub fn on_lock_request(&mut self, used_fraction_of_max: f64) -> f64 {
        self.requests_since_refresh += 1;
        if self.requests_since_refresh >= self.params.app_percent_refresh_period {
            self.recompute(used_fraction_of_max);
        }
        self.current
    }

    /// Externalize the current value (call at each STMM tuning point).
    pub fn externalize(&mut self) -> f64 {
        self.externalized = self.current;
        self.externalized
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctl() -> AppPercentController {
        AppPercentController::new(TunerParams::default())
    }

    #[test]
    fn starts_unconstrained() {
        let c = ctl();
        assert_eq!(c.current(), 98.0);
        assert_eq!(c.externalized(), 98.0);
    }

    #[test]
    fn recompute_tracks_curve() {
        let mut c = ctl();
        let v = c.recompute(0.5);
        assert!((v - 98.0 * (1.0 - 0.125)).abs() < 1e-9);
        assert_eq!(c.recomputes(), 1);
    }

    #[test]
    fn refresh_period_is_0x80_requests() {
        let mut c = ctl();
        // 127 requests: no recompute yet.
        for _ in 0..127 {
            c.on_lock_request(1.0);
        }
        assert_eq!(c.current(), 98.0);
        assert_eq!(c.recomputes(), 0);
        // 128th request triggers the refresh.
        let v = c.on_lock_request(1.0);
        assert_eq!(v, 1.0);
        assert_eq!(c.recomputes(), 1);
        // Counter reset: another 127 requests stay quiet.
        for _ in 0..127 {
            c.on_lock_request(0.0);
        }
        assert_eq!(c.recomputes(), 1);
        c.on_lock_request(0.0);
        assert_eq!(c.recomputes(), 2);
        assert_eq!(c.current(), 98.0);
    }

    #[test]
    fn resize_recompute_resets_request_counter() {
        let mut c = ctl();
        for _ in 0..100 {
            c.on_lock_request(0.9);
        }
        c.recompute(0.9); // resize happened
        for _ in 0..127 {
            c.on_lock_request(0.9);
        }
        assert_eq!(
            c.recomputes(),
            1,
            "period restarts after explicit recompute"
        );
    }

    #[test]
    fn externalization_is_explicit() {
        let mut c = ctl();
        c.recompute(1.0);
        assert_eq!(c.current(), 1.0);
        assert_eq!(
            c.externalized(),
            98.0,
            "config value lags until externalize()"
        );
        c.externalize();
        assert_eq!(c.externalized(), 1.0);
    }

    #[test]
    fn single_heavy_consumer_allowed_while_memory_far_from_max() {
        // §5.3's key property: one DSS query may take nearly all lock
        // memory as long as total usage is far from maxLockMemory.
        let mut c = ctl();
        c.recompute(0.10); // only 10% of max used
        assert!(c.current() > 97.0, "DSS query may dominate the pool");
        // But near the max, two heavy consumers get throttled.
        c.recompute(0.95);
        assert!(c.current() < 15.0);
    }
}
