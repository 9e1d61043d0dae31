//! Spin-then-park: the one wake policy shared by every thread that
//! waits for another thread (or a peer process) to hand it work.
//!
//! Three sites park in this system — a session waiting for a lock
//! grant (in its [`Mailbox`](crate::Mailbox)), an evented
//! I/O shard waiting for socket readiness (`epoll_wait`), and a client
//! waiting for its reply (`read`). Parking is the right thing when the
//! wait is long, but waking a parked thread costs a futex or socket
//! wake-up plus, on an idle core, bringing a halted vCPU back — tens of
//! microseconds against waits that are often shorter than that (a
//! routed transaction's reply, a hot row's hand-off). So a site may
//! first *probe* for its wake condition a few times, yielding the core
//! between probes, and only then make its blocking call.
//!
//! This is the spin-then-sleep result of Nikolaev's latch and mutex
//! measurements (PAPERS.md): a short bounded spin before sleeping wins
//! when holds are short, and any *fixed* spin is wrong for some
//! workload. The policy here is therefore bounded, has to be earned,
//! turns itself off, and deliberately has no knob:
//!
//! * [`SPIN_CEILING`] bounds one spin. 50 µs is just above the idle
//!   wake-up it replaces (an empty ping to a parked I/O shard is
//!   ~44 µs); spinning longer than the wake costs cannot pay. On the
//!   routed workload 50, 100 and 200 µs measure alike (29–31 µs per
//!   transaction), 40 µs gives 34 and 20 µs 43 (EXPERIMENTS.md "Wake
//!   path"): the value is not delicate, as long as it is not short.
//! * Every probe is followed by `yield_now`, so on an oversubscribed
//!   host the spinner hands its core to whoever is runnable — usually
//!   the very thread it is waiting for — instead of stealing it.
//! * A site **starts out parking** and spins on one wait in
//!   [`REPROBE_PERIOD`]. Spinning turns on only when such a spin hits
//!   *and every yield in it came straight back* (within
//!   [`YIELD_HANDOFF`]): the answer arrives inside the budget, and
//!   nobody else wanted the core, so going to sleep would have halted
//!   it. A hit after a yield that lost the core proves neither — the
//!   host has more runnable threads than cores, and there a sleeper's
//!   wake-up is a cheap run-queue insert, not a halted vCPU's exit — so
//!   it leaves the site's state alone. This is what keeps a saturated
//!   host parking: threads that rotate through `yield_now` never sleep,
//!   the kernel never re-places them at a wake-up and always sees them
//!   cache-hot, and four of them stayed stacked on one vCPU with the
//!   other idle for half a second when the policy started out spinning.
//!   It also means a connection that lives for a handful of requests
//!   never spins at all.
//! * Once on, every wait spins. [`MISS_LIMIT`] spins in a row without
//!   a hit turn it off again: a peer that went idle or slow costs eight
//!   wasted spins (≤ 400 µs of CPU in total), then nothing. Eight is
//!   small enough that the learning cost is invisible and large enough
//!   that one slow reply in a fast stream does not turn spinning off.
//! * While off, the one-in-64 spin costs under 1 µs per wait, and an
//!   idle site — one that is not waiting at all — costs nothing.
//!
//! The caller supplies the probe (a `try_pop`, a zero-timeout
//! `epoll_wait`, a non-consuming `recv`) and keeps its own blocking
//! call; this module only decides *whether and how long to probe
//! first*, and counts what happened.

use std::time::{Duration, Instant};

/// Longest one spin may last before the caller parks.
pub const SPIN_CEILING: Duration = Duration::from_micros(50);

/// A `yield_now` slower than this handed the core to another thread.
/// An uncontended `sched_yield` returns in ~0.3 µs (p99 0.4 µs on the
/// reference host); two context switches alone cost more than 2 µs.
pub const YIELD_HANDOFF: Duration = Duration::from_micros(2);

/// Spins in a row without a hit after which a site parks directly.
pub const MISS_LIMIT: u32 = 8;

/// While parking directly, one wait in this many spins anyway.
pub const REPROBE_PERIOD: u32 = 64;

/// What one park site has done so far: every wait ends in exactly one
/// of the two counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpinStats {
    /// Waits resolved by a probe, without parking.
    pub spin_hits: u64,
    /// Waits that fell through to the caller's blocking call (after a
    /// missed spin, or directly because spinning is off).
    pub parks: u64,
}

/// Per-site spin-then-park state. One per waiting thread (the state is
/// plain data: a site is only ever driven by the thread that waits
/// there).
#[derive(Debug, Clone, Copy)]
pub struct SpinPark {
    /// Spins in a row that ended without a hit, saturating at
    /// [`MISS_LIMIT`] — where spinning is off.
    misses: u32,
    /// Waits parked directly since the last spin (only advances while
    /// spinning is off).
    skipped: u32,
    stats: SpinStats,
}

impl Default for SpinPark {
    fn default() -> Self {
        Self::new()
    }
}

impl SpinPark {
    /// A site that has not waited yet: spinning off, to be earned.
    pub const fn new() -> Self {
        SpinPark {
            misses: MISS_LIMIT,
            skipped: 0,
            stats: SpinStats {
                spin_hits: 0,
                parks: 0,
            },
        }
    }

    /// Probe for the wake condition before parking. Returns the probe's
    /// value if it fires within the budget; `None` means "park now" —
    /// the caller makes its blocking call. The spin ends at
    /// [`SPIN_CEILING`] or `deadline`, whichever is sooner, and the
    /// first probe runs before any clock read, so a wait whose
    /// condition already holds costs one probe.
    pub fn spin<T>(
        &mut self,
        deadline: Option<Instant>,
        probe: impl FnMut() -> Option<T>,
    ) -> Option<T> {
        self.spin_yielding(deadline, probe, std::thread::yield_now)
    }

    /// [`SpinPark::spin`] with the yield injectable, so a test can play
    /// a host that takes the core away.
    fn spin_yielding<T>(
        &mut self,
        deadline: Option<Instant>,
        mut probe: impl FnMut() -> Option<T>,
        mut yield_now: impl FnMut(),
    ) -> Option<T> {
        if self.misses >= MISS_LIMIT {
            self.skipped += 1;
            if self.skipped < REPROBE_PERIOD {
                self.stats.parks += 1;
                return None;
            }
            self.skipped = 0;
        }
        let mut found = probe();
        let mut kept_core = true;
        if found.is_none() {
            let mut now = Instant::now();
            let mut end = now + SPIN_CEILING;
            if let Some(d) = deadline {
                end = end.min(d);
            }
            while found.is_none() && now < end {
                yield_now();
                kept_core &= now.elapsed() <= YIELD_HANDOFF;
                found = probe();
                now = Instant::now();
            }
        }
        match found {
            Some(_) => {
                self.stats.spin_hits += 1;
                if kept_core {
                    self.misses = 0;
                }
            }
            None => {
                self.stats.parks += 1;
                self.misses = (self.misses + 1).min(MISS_LIMIT);
            }
        }
        found
    }

    /// Hits and parks so far.
    pub fn stats(&self) -> SpinStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive one wait whose probe fires on its `hit_on`-th call (never
    /// when `None`); returns (resolved by the spin, probe calls made).
    /// Hits are asked for on the first probe throughout: one that needs
    /// a yield only counts if the host left us the core, which a test
    /// on a shared machine cannot promise.
    fn wait(sp: &mut SpinPark, hit_on: Option<u32>) -> (bool, u32) {
        let mut calls = 0;
        let hit = sp
            .spin(None, || {
                calls += 1;
                (Some(calls) == hit_on).then_some(())
            })
            .is_some();
        (hit, calls)
    }

    /// A fresh site with spinning already earned.
    fn spinning() -> SpinPark {
        let mut sp = SpinPark::new();
        for _ in 0..(REPROBE_PERIOD - 1) {
            assert_eq!(wait(&mut sp, Some(1)), (false, 0));
        }
        assert_eq!(wait(&mut sp, Some(1)), (true, 1));
        sp
    }

    #[test]
    fn a_site_starts_parked_and_the_64th_wait_probes() {
        let mut sp = SpinPark::new();
        // Parked directly: the probe is not even called.
        for _ in 0..(REPROBE_PERIOD - 1) {
            assert_eq!(wait(&mut sp, Some(1)), (false, 0));
        }
        // The 64th wait spins; a miss there buys 63 more direct parks.
        assert!(wait(&mut sp, None).1 >= 1);
        for _ in 0..(REPROBE_PERIOD - 1) {
            assert_eq!(wait(&mut sp, Some(1)), (false, 0));
        }
        // A hit on the re-probe turns spinning on outright.
        assert_eq!(wait(&mut sp, Some(1)), (true, 1));
        assert_eq!(wait(&mut sp, Some(1)), (true, 1));
        assert_eq!(
            sp.stats(),
            SpinStats {
                spin_hits: 2,
                parks: u64::from(2 * (REPROBE_PERIOD - 1) + 1),
            }
        );
    }

    #[test]
    fn a_hit_keeps_the_budget_and_eight_misses_spend_it() {
        let mut sp = spinning();
        for _ in 0..(MISS_LIMIT - 1) {
            let (hit, calls) = wait(&mut sp, None);
            assert!(!hit && calls >= 1);
        }
        // One hit clears the miss run: it takes a full MISS_LIMIT
        // misses again to stop.
        assert_eq!(wait(&mut sp, Some(1)), (true, 1));
        for _ in 0..MISS_LIMIT {
            let (hit, calls) = wait(&mut sp, None);
            assert!(!hit);
            assert!(calls >= 1, "still spinning while under the limit");
        }
        assert_eq!(wait(&mut sp, Some(1)), (false, 0), "now parks directly");
    }

    #[test]
    fn the_spin_is_bounded_by_the_ceiling_and_by_a_deadline() {
        // No deadline: a never-ready probe gives up at the ceiling
        // (generous upper bound — the host may deschedule us).
        let mut sp = spinning();
        let t0 = Instant::now();
        assert!(sp.spin(None, || None::<()>).is_none());
        let spent = t0.elapsed();
        assert!(spent >= SPIN_CEILING, "gave up early: {spent:?}");
        assert!(spent < Duration::from_millis(50), "overran: {spent:?}");

        // A deadline already reached: exactly the first probe runs.
        let mut calls = 0;
        let past = Instant::now();
        assert!(sp
            .spin(Some(past), || {
                calls += 1;
                None::<()>
            })
            .is_none());
        assert_eq!(calls, 1);
    }

    /// On a host with more runnable threads than cores every yield
    /// hands the core over: the probes still hit (right after the
    /// yield), but that is no evidence that sleeping would have cost a
    /// wake-up, so spinning is not turned on — and a site that was
    /// spinning is not kept on by such hits once real misses come.
    #[test]
    fn hits_after_losing_the_core_do_not_earn_spinning() {
        // A yield that takes the core away for well over YIELD_HANDOFF.
        let lose_core = || std::thread::sleep(10 * YIELD_HANDOFF);
        let mut sp = SpinPark::new();
        let mut spins = 0;
        for _ in 0..(4 * REPROBE_PERIOD) {
            let mut calls = 0;
            let hit = sp.spin_yielding(
                None,
                || {
                    calls += 1;
                    (calls == 2).then_some(())
                },
                lose_core,
            );
            if calls > 0 {
                spins += 1;
                assert!(hit.is_some(), "the probe hits right after the yield");
            }
        }
        assert_eq!(spins, 4, "only the one-in-64 waits spun");
        assert_eq!(sp.stats().spin_hits, 4);

        // Already spinning: such hits do not reset the miss run.
        let mut sp = spinning();
        for miss in 1..=MISS_LIMIT {
            assert!(wait(&mut sp, None).1 >= 1);
            if miss < MISS_LIMIT {
                let mut calls = 0;
                let hit = sp.spin_yielding(
                    None,
                    || {
                        calls += 1;
                        (calls == 2).then_some(())
                    },
                    lose_core,
                );
                assert!(hit.is_some());
            }
        }
        assert_eq!(wait(&mut sp, Some(1)), (false, 0), "parks directly");
    }
}
