//! The service's mutex: a `std::sync::Mutex` that spins before it
//! sleeps.
//!
//! Every lock-table shard sits behind one of these, and so does each of
//! the service's other short critical sections. A shard latch is held
//! for a few hundred nanoseconds (255–511 ns p50, 1–2 µs p99 on the
//! contended in-process workload: `service.latch_hold_*`), far below
//! what a sleep and a wake-up cost. std's futex mutex spins only
//! briefly (100 `spin_loop`s, ≈ 2 µs) and only while no thread sleeps:
//! once a contender has slept, the word stays "locked with sleepers",
//! the next contender sleeps without spinning and every release pays a
//! `futex_wake`. One slow hold thus turns a hot shard into a sleep/wake
//! convoy that never clears while the contention lasts.
//!
//! [`Latch::lock`] takes one `try_lock` (the uncontended path: one
//! CAS), and on failure runs three bounded phases:
//!
//! 1. **Spin** on `try_lock` with exponential backoff — 1, 2, 4 … 64
//!    `spin_loop`s between attempts, `SPIN_ROUNDS` attempts, ≈ 7 µs:
//!    several times the p99 hold, so a contender never sleeps behind a
//!    holder that is still running.
//! 2. **Yield** between attempts, `YIELD_ROUNDS` times, a few tens
//!    of µs in all: on a host with more runnable threads than cores the
//!    holder may have been preempted, and the yield hands it the core.
//! 3. **Block** in std's `lock()`.
//!
//! A contender that wins in phase 1 or 2 leaves the word "locked"
//! rather than "locked with sleepers", so its release wakes no one.
//!
//! This is not [`SpinPark`](crate::SpinPark), the hand-off wake
//! policy: that one starts out parking, must earn its spin, yields on
//! every probe and is sized for waits of tens of µs. A critical section
//! needs the opposite — spin at once, with no yield while the holder
//! runs (one `yield_now` costs about a whole hold). DESIGN §8.4 has the
//! measurements.
//!
//! Poisoning is ignored (`PoisonError::into_inner`): every critical
//! section here leaves its data valid at each step, so a panic under
//! the latch (an injected fault, a failed assertion) must not take the
//! service down with it. [`Latch::lock`] returns std's
//! [`MutexGuard`], so std's `Condvar` pairs with a latch directly.

use std::hint::spin_loop;
use std::sync::{Mutex, MutexGuard, PoisonError, TryLockError};

/// `try_lock` attempts in the backoff phase. The pauses between them
/// double from 1 to [`MAX_BACKOFF`] and then stay there: 10 rounds are
/// 383 `spin_loop`s, ≈ 7 µs at the 16–20 ns one PAUSE measures on the
/// reference host — several times the hot shard's 1–2 µs p99 hold.
const SPIN_ROUNDS: u32 = 10;

/// Longest pause between two attempts, in `spin_loop`s (≈ 1.1 µs).
const MAX_BACKOFF: u32 = 64;

/// `try_lock` attempts in the yield phase, each after [`MAX_BACKOFF`]
/// `spin_loop`s and one `yield_now` (0.25–0.33 µs when no other thread
/// wants the core): ≈ 70 µs in all, enough for a preempted holder to
/// be rescheduled and finish, after which sleeping is cheaper.
const YIELD_ROUNDS: u32 = 50;

/// A mutual-exclusion latch for short critical sections. See the
/// module docs.
#[derive(Debug)]
pub struct Latch<T: ?Sized> {
    inner: Mutex<T>,
}

impl<T> Latch<T> {
    /// A new, unlocked latch around `value`.
    pub const fn new(value: T) -> Self {
        Latch {
            inner: Mutex::new(value),
        }
    }
}

impl<T: ?Sized> Latch<T> {
    /// Acquire the latch: one `try_lock`, then spin, yield and block in
    /// turn until it is free.
    #[inline]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        match self.try_lock() {
            Some(guard) => guard,
            None => self.lock_contended(),
        }
    }

    #[inline]
    fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(guard) => Some(guard),
            Err(TryLockError::Poisoned(p)) => Some(p.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    #[cold]
    #[inline(never)]
    fn lock_contended(&self) -> MutexGuard<'_, T> {
        let mut backoff = 1;
        for _ in 0..SPIN_ROUNDS {
            for _ in 0..backoff {
                spin_loop();
            }
            if let Some(guard) = self.try_lock() {
                return guard;
            }
            backoff = (backoff * 2).min(MAX_BACKOFF);
        }
        for _ in 0..YIELD_ROUNDS {
            for _ in 0..MAX_BACKOFF {
                spin_loop();
            }
            std::thread::yield_now();
            if let Some(guard) = self.try_lock() {
                return guard;
            }
        }
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Barrier};
    use std::time::{Duration, Instant};

    #[test]
    fn four_threads_of_increments_come_out_exact() {
        const THREADS: u64 = 4;
        const INCREMENTS: u64 = 100_000;
        let latch = Latch::new(0u64);
        let start = Barrier::new(THREADS as usize);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    start.wait();
                    for _ in 0..INCREMENTS {
                        *latch.lock() += 1;
                    }
                });
            }
        });
        assert_eq!(*latch.lock(), THREADS * INCREMENTS);
    }

    #[test]
    fn a_long_hold_falls_through_to_the_blocking_lock() {
        const HOLD: Duration = Duration::from_millis(20);
        let latch = Arc::new(Latch::new(()));
        let held = Arc::new(Barrier::new(2));
        let holder = {
            let (latch, held) = (Arc::clone(&latch), Arc::clone(&held));
            std::thread::spawn(move || {
                let guard = latch.lock();
                let t0 = Instant::now();
                held.wait();
                std::thread::sleep(HOLD);
                drop(guard);
                t0
            })
        };
        held.wait();
        drop(latch.lock());
        let acquired = Instant::now();
        let t0 = holder.join().expect("holder thread");
        assert!(
            acquired - t0 >= HOLD,
            "acquired {:?} into a {HOLD:?} hold",
            acquired - t0
        );
    }

    #[test]
    fn a_panic_under_the_latch_does_not_poison_it() {
        let latch = Arc::new(Latch::new(vec![1]));
        let panicker = {
            let latch = Arc::clone(&latch);
            std::thread::spawn(move || {
                let mut v = latch.lock();
                v.push(2);
                panic!("injected panic under the latch");
            })
        };
        assert!(panicker.join().is_err());
        assert_eq!(*latch.lock(), vec![1, 2]);
    }
}
