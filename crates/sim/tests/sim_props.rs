//! Property tests for the simulation kernel.

use locktune_sim::check::{self as proptest, prelude::*};
use locktune_sim::dist::{Distribution, Exponential, LogNormal, Uniform, Zipf};
use locktune_sim::{SimDuration, SimRng, SimTime, Simulator};

proptest! {
    /// Events always pop in chronological order with FIFO tie-breaks,
    /// regardless of insertion order.
    #[test]
    fn events_pop_chronologically(times in proptest::collection::vec(0u64..10_000, 1..200)) {
        let mut sim = Simulator::new();
        for (i, &t) in times.iter().enumerate() {
            sim.schedule_at(SimTime::from_micros(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        let mut popped = 0;
        while let Some(ev) = sim.next() {
            popped += 1;
            if let Some((lt, li)) = last {
                prop_assert!(ev.at >= lt, "time went backwards");
                if ev.at == lt {
                    // FIFO on ties: the payload index (scheduling order)
                    // must increase.
                    prop_assert!(ev.event > li, "tie broke FIFO");
                }
            }
            prop_assert_eq!(sim.now(), ev.at);
            last = Some((ev.at, ev.event));
        }
        prop_assert_eq!(popped, times.len());
    }

    /// The clock never runs backwards even when events are scheduled
    /// interleaved with popping.
    #[test]
    fn interleaved_scheduling_preserves_order(
        ops in proptest::collection::vec((0u64..1000, any::<bool>()), 1..200)
    ) {
        let mut sim = Simulator::new();
        let mut prev = SimTime::ZERO;
        for (delay, pop) in ops {
            sim.schedule_in(SimDuration::from_micros(delay), ());
            if pop {
                if let Some(ev) = sim.next() {
                    prop_assert!(ev.at >= prev);
                    prev = ev.at;
                }
            }
        }
        while let Some(ev) = sim.next() {
            prop_assert!(ev.at >= prev);
            prev = ev.at;
        }
    }

    /// Forked RNG streams never depend on how much the parent is used
    /// afterwards.
    #[test]
    fn rng_forks_are_stable(seed in any::<u64>(), stream in 0u64..1000, drain in 0usize..100) {
        let mut p1 = SimRng::seed_from_u64(seed);
        let mut p2 = SimRng::seed_from_u64(seed);
        let mut c1 = p1.fork(stream);
        for _ in 0..drain {
            p1.next_u64();
        }
        let mut c2 = p2.fork(stream);
        for _ in 0..32 {
            prop_assert_eq!(c1.next_u64(), c2.next_u64());
        }
    }

    /// Every distribution produces finite, in-range samples for any
    /// valid parameters.
    #[test]
    fn distributions_produce_sane_samples(
        seed in any::<u64>(),
        mean in 0.001f64..1000.0,
        lo in -100.0f64..100.0,
        span in 0.001f64..100.0,
        n in 1usize..500,
        s in 0.0f64..2.0,
    ) {
        let mut rng = SimRng::seed_from_u64(seed);
        let e = Exponential::new(mean);
        let u = Uniform::new(lo, lo + span);
        let ln = LogNormal::with_mean(mean, 0.5);
        let z = Zipf::new(n, s);
        for _ in 0..64 {
            let x = e.sample(&mut rng);
            prop_assert!(x.is_finite() && x >= 0.0);
            let x = u.sample(&mut rng);
            prop_assert!(x >= lo && x < lo + span);
            let x = ln.sample(&mut rng);
            prop_assert!(x.is_finite() && x > 0.0);
            let r = z.sample_rank(&mut rng);
            prop_assert!(r < n);
        }
    }

    /// next_below is unbiased enough that every residue class appears
    /// for small bounds, and never out of range for any bound.
    #[test]
    fn next_below_in_range(seed in any::<u64>(), bound in 1u64..u64::MAX) {
        let mut rng = SimRng::seed_from_u64(seed);
        for _ in 0..32 {
            prop_assert!(rng.next_below(bound) < bound);
        }
    }

    /// Duration arithmetic is consistent: (a + b) - b == a.
    #[test]
    fn duration_arithmetic_roundtrips(a in 0u64..1_000_000_000, b in 0u64..1_000_000_000) {
        let da = SimDuration::from_micros(a);
        let db = SimDuration::from_micros(b);
        prop_assert_eq!((da + db) - db, da);
        let t = SimTime::from_micros(a);
        prop_assert_eq!((t + db) - t, db);
    }
}
