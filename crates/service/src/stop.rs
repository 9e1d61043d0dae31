//! The one interruptible sleep: every loop that paces itself — the
//! service's background loop, the tenant arbiter, the cluster
//! supervisor and detector, and the reconnect backoff — sleeps on a
//! [`StopSignal`], and whoever owns the loop raises it to stop.
//!
//! A sleep ends only when its deadline has passed or the signal is
//! raised: a spurious condvar wakeup goes back to sleep, so a periodic
//! job never runs early. Built on [`Latch`], so a panic elsewhere that
//! poisoned the flag's mutex cannot stop a shutdown.

use std::sync::{Arc, Condvar, PoisonError};
use std::time::{Duration, Instant};

use crate::latch::Latch;

/// A cooperative stop flag with an interruptible sleep. Clones share
/// one flag.
#[derive(Clone)]
pub struct StopSignal {
    inner: Arc<(Latch<bool>, Condvar)>,
}

impl Default for StopSignal {
    fn default() -> Self {
        StopSignal::new()
    }
}

impl StopSignal {
    /// A fresh, un-raised signal.
    pub fn new() -> StopSignal {
        StopSignal {
            inner: Arc::new((Latch::new(false), Condvar::new())),
        }
    }

    /// Raise the flag and wake every sleeper at once. Safe to call
    /// from any thread, any number of times.
    pub fn stop(&self) {
        let (flag, cv) = &*self.inner;
        *flag.lock() = true;
        cv.notify_all();
    }

    /// True once [`StopSignal::stop`] has been called.
    pub fn is_stopped(&self) -> bool {
        *self.inner.0.lock()
    }

    /// Sleep for `dur` or until the signal is raised; true if it was
    /// raised.
    pub fn sleep(&self, dur: Duration) -> bool {
        self.sleep_until(Instant::now() + dur)
    }

    /// Sleep until `deadline` or until the signal is raised; true if
    /// it was raised. A raised signal returns at once, even when the
    /// deadline has already passed.
    pub fn sleep_until(&self, deadline: Instant) -> bool {
        let (flag, cv) = &*self.inner;
        let mut stopped = flag.lock();
        while !*stopped {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            stopped = cv
                .wait_timeout(stopped, deadline - now)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A condvar wakeup with the flag still down — what a spurious
    /// wakeup looks like — sends the sleeper back to sleep until its
    /// deadline.
    #[test]
    fn a_wakeup_without_a_stop_sleeps_on_to_the_deadline() {
        let stop = StopSignal::new();
        let waker = stop.clone();
        let t = std::thread::spawn(move || {
            for _ in 0..5 {
                std::thread::sleep(Duration::from_millis(5));
                waker.inner.1.notify_all();
            }
        });
        let start = Instant::now();
        assert!(!stop.sleep(Duration::from_millis(60)));
        assert!(start.elapsed() >= Duration::from_millis(60));
        t.join().unwrap();
    }

    #[test]
    fn a_raised_signal_wins_over_a_passed_deadline() {
        let stop = StopSignal::new();
        stop.stop();
        assert!(stop.is_stopped());
        assert!(stop.sleep_until(Instant::now() - Duration::from_millis(1)));
        assert!(stop.sleep(Duration::ZERO));
    }

    #[test]
    fn a_poisoned_flag_still_stops() {
        let stop = StopSignal::new();
        let poisoner = stop.clone();
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.inner.0.lock();
            panic!("poison the flag's mutex");
        })
        .join();
        stop.stop();
        assert!(stop.sleep(Duration::from_secs(60)));
    }
}
