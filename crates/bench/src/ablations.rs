//! Ablations: the design choices DESIGN.md §5 calls out, each varied
//! in isolation on a fixed input.
//!
//! * free-band width (the 50–60 % hysteresis spread),
//! * δ_reduce (5 % vs 20 % vs 100 % shrink),
//! * adaptive `lockPercentPerApplication` vs a fixed 10 % cap,
//! * escalation-doubling on/off.
//!
//! The tuner-only ablations tick a bare [`LockMemoryTuner`] once per
//! 30 s interval and apply each decision exactly; their series are the
//! pool size per interval. The cap ablation runs the engine's DSS
//! injection twice; its series are the cumulative escalations.

use locktune_core::{LockMemorySnapshot, LockMemoryTuner, OverflowState, TunerParams};
use locktune_engine::{Policy, Scenario};
use locktune_metrics::TimeSeries;
use locktune_sim::SimTime;

use crate::report::Report;

const MIB: u64 = 1024 * 1024;
const INTERVAL_S: u64 = 30;

/// Tick a tuner for `intervals` intervals from an `alloc`-byte pool.
/// `demand(i, alloc)` gives interval `i`'s used bytes and escalations.
/// Returns the pool size after every interval, starting at `alloc`.
fn trajectory(
    name: &str,
    params: TunerParams,
    mut alloc: u64,
    intervals: u64,
    demand: impl Fn(u64, u64) -> (u64, u64),
) -> TimeSeries {
    let mut tuner = LockMemoryTuner::new(params);
    let mut series = TimeSeries::new(name);
    series.push(SimTime::ZERO, alloc as f64);
    for i in 0..intervals {
        let (used_bytes, escalations_since_last) = demand(i, alloc);
        alloc = tuner
            .tick(&LockMemorySnapshot {
                allocated_bytes: alloc,
                used_bytes,
                lmoc_bytes: alloc,
                num_applications: 100,
                escalations_since_last,
                overflow: OverflowState {
                    database_memory_bytes: 5120 * MIB,
                    sum_heap_bytes: 4600 * MIB,
                    lock_memory_from_overflow_bytes: 0,
                    overflow_free_bytes: 520 * MIB,
                },
            })
            .target_bytes;
        series.push(SimTime::from_secs((i + 1) * INTERVAL_S), alloc as f64);
    }
    series
}

/// Pool sizes of a trajectory, one per interval boundary.
fn sizes(series: &TimeSeries) -> Vec<f64> {
    series.iter().map(|(_, v)| v).collect()
}

/// Intervals in `sizes` over which the pool moved as `moved` says.
fn moves(sizes: &[f64], moved: impl Fn(f64, f64) -> bool) -> usize {
    sizes.windows(2).filter(|w| moved(w[0], w[1])).count()
}

/// Run every ablation.
pub fn run() -> Report {
    let mut r = Report::new(
        "ablations",
        "ablations of the tuner's design choices (DESIGN §5)",
    );
    let paper = TunerParams::default();

    // Free band: demand oscillates ±8 % around 16 MiB used. Inside a
    // 50–60 % band this is absorbed; with no band every wiggle resizes.
    let noise = |i: u64, _| {
        let used = 16.0 * MIB as f64 * (1.0 + 0.08 * (i as f64 * 0.7).sin());
        (used as u64, 0)
    };
    let bands = [(0.50, 0.60), (0.50, 0.50), (0.40, 0.70)].map(|(min_free, max_free)| {
        let name = format!(
            "lock_bytes_band_{:.0}_{:.0}",
            min_free * 100.0,
            max_free * 100.0
        );
        let params = TunerParams {
            min_free_fraction: min_free,
            max_free_fraction: max_free,
            ..paper
        };
        trajectory(&name, params, 40 * MIB, 200, noise)
    });
    let resizes = bands.each_ref().map(|s| moves(&sizes(s), |a, b| a != b));
    r.check(
        "the 50-60% free band absorbs +-8% demand noise that a zero-width band resizes on",
        format!("resizes over 200 intervals, bands 50-60/50-50/40-70%: {resizes:?}"),
        resizes[0] * 10 < resizes[1],
    );

    // δ_reduce: 40 intervals of low demand (the pool shrinks), then the
    // peak returns; count the growth the shrink made necessary.
    let peak = |i: u64, alloc: u64| {
        (
            if i < 40 {
                8 * MIB
            } else {
                (90 * MIB).min(alloc)
            },
            0,
        )
    };
    let shrinks = [0.05, 0.20, 1.0].map(|delta_reduce| {
        let name = format!("lock_bytes_delta_reduce_{:.0}", delta_reduce * 100.0);
        trajectory(
            &name,
            TunerParams {
                delta_reduce,
                ..paper
            },
            200 * MIB,
            50,
            peak,
        )
    });
    let shrunk = shrinks
        .each_ref()
        .map(|s| moves(&sizes(s)[..=40], |a, b| b < a));
    let regrown = shrinks
        .each_ref()
        .map(|s| moves(&sizes(s)[40..], |a, b| b > a));
    r.check(
        "a 5% delta_reduce releases memory gradually and re-grows least when the peak returns",
        format!(
            "delta_reduce 5/20/100%: shrink intervals {shrunk:?}, re-growths at the peak's return {regrown:?}"
        ),
        shrunk[0] > shrunk[1] && shrunk[1] > shrunk[2] && regrown[0] <= regrown[1].min(regrown[2]),
    );

    // Adaptive cap vs the pre-DB2 9 fixed 10 % MAXLOCKS: the same
    // self-tuning memory, with the curve pinned at P = 10.
    let fixed = TunerParams {
        app_percent_max: 10.0,
        app_percent_min: 10.0,
        app_percent_exponent: 1.0,
        ..paper
    };
    let runs = [paper, fixed].map(|p| Scenario::cmp_policy(Policy::SelfTuning(p), 301).run());
    let escalations = runs.each_ref().map(|run| run.total_escalations());
    let committed = runs.each_ref().map(|run| run.committed);
    r.check(
        "the adaptive MAXLOCKS curve lets the DSS query run unescalated; a fixed 10% cap escalates it",
        format!("adaptive/fixed 10%: escalations {escalations:?}, committed {committed:?}"),
        escalations[0] == 0 && escalations[1] > 0,
    );

    // Escalation-doubling: a saturated 4 MiB pool that escalates every
    // interval (overflow constrained, so no synchronous growth).
    let doubling = [("doubling", 2.0), ("no_doubling", 1.0)].map(|(name, factor)| {
        let params = TunerParams {
            escalation_growth_factor: factor,
            ..paper
        };
        trajectory(
            &format!("lock_bytes_{name}"),
            params,
            4 * MIB,
            10,
            |_, alloc| (alloc, 1),
        )
    });
    let to_64_mib = doubling
        .each_ref()
        .map(|s| sizes(s).iter().position(|&b| b >= (64 * MIB) as f64));
    r.check(
        "escalation-doubling recovers a constrained pool within a few intervals; without it the pool never grows",
        format!("intervals to reach 64 MiB, doubling on/off: {to_64_mib:?}"),
        to_64_mib[0].is_some_and(|i| i <= 5) && to_64_mib[1].is_none(),
    );

    r.series = bands.into_iter().chain(shrinks).chain(doubling).collect();
    for (run, cap) in runs.iter().zip(["adaptive", "fixed_10"]) {
        let mut series = TimeSeries::new(format!("escalations_{cap}_cap"));
        run.escalations
            .iter()
            .for_each(|(at, v)| series.push(at, v));
        r.series.push(series);
    }
    r
}
