//! One function per paper artifact. Each runs the scenario, checks the
//! paper's claims about the *shape* of the result, and returns a
//! [`Report`] with the underlying series.

use locktune_baselines::{OracleItl, StaticPolicy};
use locktune_core::{curve, lock_percent_per_application, TunerParams};
use locktune_engine::{Policy, RunResult, Scenario};
use locktune_metrics::TimeSeries;
use locktune_sim::SimTime;

use crate::report::Report;
use crate::{ablations, fig6};

const MIB: f64 = 1024.0 * 1024.0;

/// Table 1: every modelling parameter, asserted against the paper.
pub fn table1() -> Report {
    let mut r = Report::new("table1", "key parameters (Table 1)");
    let p = TunerParams::default();
    r.check(
        "minLockMemory = MAX(2MB, 500 * locksize * num_applications)",
        format!(
            "floor {} MiB, {} locks/app, locksize {} B",
            p.min_lock_memory_floor_bytes / (1 << 20),
            p.min_locks_per_application,
            p.lock_struct_bytes
        ),
        p.min_lock_memory_floor_bytes == 2 << 20 && p.min_locks_per_application == 500,
    );
    r.check(
        "maxLockMemory = 0.20 * databaseMemory",
        format!("{}", p.max_lock_memory_fraction),
        p.max_lock_memory_fraction == 0.20,
    );
    r.check(
        "sqlCompilerLockMem = 0.10 * databaseMemory",
        format!("{}", p.sql_compiler_fraction),
        p.sql_compiler_fraction == 0.10,
    );
    r.check(
        "LMOmax = 65% of database overflow memory",
        format!("{}", p.overflow_consumption_fraction),
        p.overflow_consumption_fraction == 0.65,
    );
    r.check(
        "maxFreeLockMemory = 60%",
        format!("{}", p.max_free_fraction),
        p.max_free_fraction == 0.60,
    );
    r.check(
        "minFreeLockMemory = 50%",
        format!("{}", p.min_free_fraction),
        p.min_free_fraction == 0.50,
    );
    r.check(
        "lockPercentPerApplication = 98(1 - (x/100)^3)",
        format!(
            "P={}, exponent={}",
            p.app_percent_max, p.app_percent_exponent
        ),
        p.app_percent_max == 98.0 && p.app_percent_exponent == 3.0,
    );
    r.check(
        "refreshPeriodForAppPercent = 0x80",
        format!("0x{:x}", p.app_percent_refresh_period),
        p.app_percent_refresh_period == 0x80,
    );
    r.check(
        "delta_reduce = 5% per tuning interval",
        format!("{}", p.delta_reduce),
        p.delta_reduce == 0.05,
    );
    r.check(
        "128 KB blocks holding ~2000 lock structures",
        format!(
            "{} KiB blocks, {} structures",
            p.block_bytes / 1024,
            p.slots_per_block()
        ),
        p.block_bytes == 128 * 1024 && (1900..2100).contains(&(p.slots_per_block() as i64)),
    );
    r
}

/// §3.5 curve: lockPercentPerApplication as a function of used
/// fraction.
pub fn curve_experiment() -> Report {
    let mut r = Report::new(
        "curve",
        "lockPercentPerApplication attenuation curve (§3.5)",
    );
    let p = TunerParams::default();
    let mut series = TimeSeries::new("lock_percent_per_application");
    for (pct, v) in curve::curve_table(&p) {
        // Abuse the time axis as the percentage axis for the CSV.
        series.push(SimTime::from_secs(pct as u64), v);
    }
    for (x, expected) in [(0.0, 98.0), (0.5, 85.75), (0.75, 56.66), (1.0, 1.0)] {
        let got = lock_percent_per_application(&p, x);
        r.check(
            format!("P({:.0}%) = {expected:.2}", x * 100.0),
            format!("{got:.2}"),
            (got - expected).abs() < 0.1,
        );
    }
    let drop_late = lock_percent_per_application(&p, 0.75) - lock_percent_per_application(&p, 1.0);
    let drop_early = lock_percent_per_application(&p, 0.0) - lock_percent_per_application(&p, 0.75);
    r.check(
        "aggressive attenuation when more than 75% used",
        format!("drop 0-75%: {drop_early:.1}, drop 75-100%: {drop_late:.1}"),
        drop_late > drop_early,
    );
    r.series = vec![series];
    r
}

/// Figure 6 worked example.
pub fn fig6() -> Report {
    fig6::run()
}

fn standard_series(run: &RunResult) -> Vec<TimeSeries> {
    vec![
        run.lock_bytes.clone(),
        run.lock_used_bytes.clone(),
        run.lmoc_bytes.clone(),
        run.throughput.clone(),
        run.escalations.clone(),
        run.lock_waits.clone(),
        run.app_percent.clone(),
        run.clients.clone(),
    ]
}

/// Figure 7: a static under-configured LOCKLIST escalates, reducing
/// the lock memory requirements.
pub fn fig7() -> Report {
    let mut r = Report::new(
        "fig7",
        "lock escalation under a static 0.4 MB LOCKLIST (§5.1)",
    );
    let run = Scenario::fig7_static_escalation().run();
    let esc = run.total_escalations();
    let first_at = run
        .escalation_events
        .first()
        .map(|e| e.0.to_string())
        .unwrap_or_else(|| "never".into());
    r.check(
        "ramp-up drives lock requests into escalation",
        format!("{esc} escalations, first at t={first_at}"),
        esc > 0,
    );
    // Escalation reduces memory requirements: right after an
    // escalation event, thousands of row locks collapse into one table
    // lock, so the used-bytes series drops sharply.
    let mut biggest_drop_frac: f64 = 0.0;
    for &(te, _) in &run.escalation_events {
        let before = run.lock_used_bytes.value_at(te).unwrap_or(0.0);
        if before <= 0.0 {
            continue;
        }
        for dt in 1..=5u64 {
            let t_after = SimTime::from_micros(te.as_micros() + dt * 1_000_000);
            let after = run.lock_used_bytes.value_at(t_after).unwrap_or(before);
            biggest_drop_frac = biggest_drop_frac.max((before - after) / before);
        }
    }
    r.check(
        "escalation reduces lock memory requirements (Fig. 7's drop)",
        format!(
            "largest post-escalation drop in held lock memory: {:.0}%",
            biggest_drop_frac * 100.0
        ),
        biggest_drop_frac > 0.15,
    );
    // The static pool never grows.
    r.check(
        "LOCKLIST stays at its configured 0.4 MB",
        format!("peak alloc {:.2} MB", run.peak_lock_bytes() / MIB),
        run.peak_lock_bytes() <= 0.5 * MIB + 131_072.0,
    );
    r.series = standard_series(&run);
    r
}

/// Figure 8: the same run's throughput collapse.
pub fn fig8() -> Report {
    let mut r = Report::new("fig8", "throughput collapse after escalation (§5.1)");
    let run = Scenario::fig7_static_escalation().run();
    // The identical workload under self-tuning is the healthy baseline
    // the static system would have reached without escalation.
    let tuned = Scenario::fig8_tuned_reference().run();
    let collapsed = run.mean_throughput(60, 180);
    let healthy = tuned.mean_throughput(60, 180);
    r.check(
        "following escalation only a few clients make progress; throughput ~ zero",
        format!(
            "static {collapsed:.2} tps vs self-tuned {healthy:.2} tps on the identical workload \
             ({} committed vs {})",
            run.committed, tuned.committed
        ),
        run.total_escalations() > 0 && collapsed < healthy * 0.1,
    );
    r.check(
        "exclusive escalations serialize the workload",
        format!(
            "{} exclusive of {} total escalations, {} lock waits",
            run.exclusive_escalations(),
            run.total_escalations(),
            run.final_stats.waits
        ),
        run.exclusive_escalations() > 0 && run.final_stats.waits > 0,
    );
    r.series = standard_series(&run);
    r
}

/// Figure 9: self-tuning adapts to a 1 → 130 client ramp.
pub fn fig9() -> Report {
    let mut r = Report::new("fig9", "rapid adaptation to steady-state OLTP load (§5.2)");
    let run = Scenario::fig9_rampup().run();
    let start = run.lock_bytes.first().map(|(_, v)| v).unwrap_or(0.0);
    let steady = run
        .lock_bytes
        .window_mean(SimTime::from_secs(400), SimTime::from_secs(600))
        .unwrap_or(0.0);
    let factor = steady / start.max(1.0);
    r.check(
        "lock memory grows ~10.5x from the minimal configuration",
        format!(
            "{:.1} MB -> {:.1} MB ({factor:.1}x)",
            start / MIB,
            steady / MIB
        ),
        factor > 5.0 && factor < 20.0,
    );
    r.check(
        "no lock escalations despite the 0 -> 130 client ramp",
        format!("{} escalations", run.total_escalations()),
        run.total_escalations() == 0,
    );
    let early_tps = run.mean_throughput(30, 90);
    let late_tps = run.mean_throughput(400, 600);
    r.check(
        "throughput rises with client pressure",
        format!("{early_tps:.2} tps early vs {late_tps:.2} tps at steady state"),
        late_tps > early_tps * 3.0,
    );
    r.check(
        "transactions fail neither for memory nor deadlock storms",
        format!(
            "{} committed, {} oom, {} aborted",
            run.committed, run.oom_failures, run.aborted
        ),
        run.oom_failures == 0 && run.committed > 1000,
    );
    r.series = standard_series(&run);
    r
}

/// Figure 10: 2.6× client surge at steady state.
pub fn fig10() -> Report {
    let mut r = Report::new("fig10", "lock memory with a 2.6x workload surge (§5.2)");
    let run = Scenario::fig10_surge().run();
    let before = run
        .lock_bytes
        .window_mean(SimTime::from_secs(200), SimTime::from_secs(300))
        .unwrap_or(0.0);
    let after = run
        .lock_bytes
        .window_mean(SimTime::from_secs(450), SimTime::from_secs(600))
        .unwrap_or(0.0);
    r.check(
        "lock memory roughly doubles after the 50 -> 130 surge",
        format!(
            "{:.1} MB -> {:.1} MB ({:.2}x)",
            before / MIB,
            after / MIB,
            after / before.max(1.0)
        ),
        after / before.max(1.0) > 1.7 && after / before.max(1.0) < 3.5,
    );
    // "practically instantaneous": within ~2 tuning intervals of the
    // surge the memory has covered most of the gap.
    let at_90s = run
        .lock_bytes
        .value_at(SimTime::from_secs(390))
        .unwrap_or(0.0);
    r.check(
        "the increase is practically instantaneous",
        format!(
            "within 90 s of the surge: {:.1} MB of the eventual {:.1} MB",
            at_90s / MIB,
            after / MIB
        ),
        at_90s > before + 0.6 * (after - before),
    );
    r.check(
        "no escalations during the surge",
        format!("{} escalations", run.total_escalations()),
        run.total_escalations() == 0,
    );
    r.series = standard_series(&run);
    r
}

/// Figure 11: DSS reporting query injected into steady OLTP.
pub fn fig11() -> Report {
    let mut r = Report::new("fig11", "OLTP + sudden DSS injection (§5.3)");
    let run = Scenario::fig11_dss_injection().run();
    let steady = run
        .lock_bytes
        .window_mean(SimTime::from_secs(200), SimTime::from_secs(330))
        .unwrap_or(0.0);
    r.check(
        "steady OLTP tunes to a small lock memory (paper: 8 MB, 0.15% of memory)",
        format!("{:.1} MB", steady / MIB),
        steady > 2.0 * MIB && steady < 40.0 * MIB,
    );
    let peak = run.peak_lock_bytes();
    let growth = peak / steady.max(1.0);
    let db = 5.11 * 1024.0 * MIB;
    r.check(
        "the reporting query grows lock memory ~60x, to ~10% of database memory",
        format!(
            "peak {:.0} MB = {growth:.0}x steady = {:.1}% of databaseMemory",
            peak / MIB,
            peak / db * 100.0
        ),
        growth > 20.0 && peak / db > 0.02,
    );
    // Growth speed: most of the climb within ~40 s of injection.
    let at_40s = run
        .lock_bytes
        .value_at(SimTime::from_secs(370))
        .unwrap_or(0.0);
    r.check(
        "lock memory grows within tens of seconds of the injection",
        format!("{:.0} MB reached 40 s after injection", at_40s / MIB),
        at_40s > steady * 10.0,
    );
    r.check(
        "no exclusive lock escalations throughout",
        format!(
            "{} exclusive escalations ({} total)",
            run.exclusive_escalations(),
            run.total_escalations()
        ),
        run.exclusive_escalations() == 0,
    );
    let min_app_pct = run.app_percent.min_value().unwrap_or(0.0);
    r.check(
        "lockPercentPerApplication stays high (single heavy consumer allowed)",
        format!("minimum {min_app_pct:.1}%"),
        min_app_pct > 50.0,
    );
    r.series = standard_series(&run);
    r
}

/// Figure 12: gradual reduction after a 77 % load drop.
pub fn fig12() -> Report {
    let mut r = Report::new("fig12", "gradual lock memory reduction (§5.4)");
    let run = Scenario::fig12_reduction().run();
    let before = run
        .lock_bytes
        .window_mean(SimTime::from_secs(200), SimTime::from_secs(300))
        .unwrap_or(0.0);
    let final_alloc = run
        .lock_bytes
        .window_mean(SimTime::from_secs(1100), SimTime::from_secs(1200))
        .unwrap_or(0.0);
    r.check(
        "the allocation settles at a fraction of its earlier steady state",
        format!(
            "{:.1} MB -> {:.1} MB ({:.2}x)",
            before / MIB,
            final_alloc / MIB,
            final_alloc / before.max(1.0)
        ),
        final_alloc < before * 0.7 && final_alloc > before * 0.1,
    );
    // Gradual: per-sample drop never exceeds ~5% of current + a block.
    let mut max_step_frac: f64 = 0.0;
    let mut prev: Option<f64> = None;
    let mut decay_intervals = 0;
    for (t, v) in run.lock_bytes.iter() {
        if t >= SimTime::from_secs(300) {
            if let Some(p) = prev {
                if v < p {
                    let frac = (p - v) / p;
                    max_step_frac = max_step_frac.max(frac);
                    decay_intervals += 1;
                }
            }
            prev = Some(v);
        }
    }
    r.check(
        "reduction proceeds at ~5% per tuning interval (delta_reduce)",
        format!(
            "largest single drop {:.1}%, {} shrink steps",
            max_step_frac * 100.0,
            decay_intervals
        ),
        max_step_frac < 0.10 && decay_intervals >= 5,
    );
    r.check(
        "no escalations during or after the reduction",
        format!("{} escalations", run.total_escalations()),
        run.total_escalations() == 0,
    );
    r.series = standard_series(&run);
    r
}

/// §3.3's constrained-overflow case: escalations under a starved
/// overflow area, recovered by escalation-doubling.
pub fn constrained() -> Report {
    let mut r = Report::new(
        "constrained",
        "constrained overflow: escalate, then double each interval (§3.3)",
    );
    let run = Scenario::constrained_overflow().run();
    r.check(
        "with overflow constrained, synchronous growth is denied and locks escalate",
        format!(
            "{} sync-growth denials, {} escalations",
            run.final_stats.sync_growth_denied,
            run.total_escalations()
        ),
        run.final_stats.sync_growth_denied > 0 && run.total_escalations() > 0,
    );
    // Doubling: across some tuning interval the allocation at least
    // ~doubles while escalations are continuing.
    let mut best_ratio: f64 = 0.0;
    let mut prev: Option<f64> = None;
    for t in (0..=300).step_by(30) {
        if let Some(v) = run.lock_bytes.value_at(SimTime::from_secs(t)) {
            if let Some(p) = prev {
                if p > 0.0 {
                    best_ratio = best_ratio.max(v / p);
                }
            }
            prev = Some(v);
        }
    }
    r.check(
        "lock memory doubles each tuning interval while escalations continue",
        format!("largest interval-to-interval growth: {best_ratio:.2}x"),
        best_ratio > 1.8,
    );
    // Trending to a well-tuned allocation: escalations cease.
    let last_third_escalations = run.escalations.last().map(|(_, v)| v).unwrap_or(0.0)
        - run
            .escalations
            .value_at(SimTime::from_secs(200))
            .unwrap_or(0.0);
    r.check(
        "the system trends towards a well-tuned allocation despite temporary escalations",
        format!(
            "{last_third_escalations:.0} escalations after t=200s (of {} total)",
            run.total_escalations()
        ),
        last_third_escalations == 0.0,
    );
    r.series = standard_series(&run);
    r
}

/// §5.3's counterfactual: two simultaneous heavy lock consumers.
pub fn two_dss() -> Report {
    let mut r = Report::new(
        "twodss",
        "two-plus heavy lock consumers: adaptive cap attenuates (§5.3)",
    );
    let run = Scenario::two_dss_injection().run();
    let min_cap = run.app_percent.min_value().unwrap_or(100.0);
    r.check(
        "as global lock memory approaches maxLockMemory the cap attenuates",
        format!("lockPercentPerApplication fell to {min_cap:.1}% (vs >95% with one consumer)"),
        min_cap < 60.0,
    );
    r.check(
        "the heavy consumers are throttled by share escalations, not exclusive ones",
        format!(
            "{} share escalations, {} exclusive",
            run.final_stats.share_escalations(),
            run.exclusive_escalations()
        ),
        run.final_stats.share_escalations() >= 1 && run.exclusive_escalations() == 0,
    );
    let max_alloc = run.peak_lock_bytes();
    let max_allowed = 0.20 * 5.11 * 1024.0 * MIB;
    r.check(
        "lock memory never exceeds maxLockMemory",
        format!(
            "peak {:.0} MB of {:.0} MB allowed",
            max_alloc / MIB,
            max_allowed / MIB
        ),
        max_alloc <= max_allowed + 131_072.0,
    );
    r.check(
        "the OLTP workload keeps committing throughout",
        format!(
            "{} commits, {} oom failures",
            run.committed, run.oom_failures
        ),
        run.committed > 1000 && run.oom_failures == 0,
    );
    r.series = standard_series(&run);
    r
}

/// Policy comparison on the DSS-injection workload (§2.3 narrative).
pub fn cmp() -> Report {
    let mut r = Report::new("cmp", "policy comparison under DSS injection (§2.3)");
    let tuned = Scenario::cmp_policy(Policy::SelfTuning(TunerParams::default()), 201).run();
    let stat = Scenario::cmp_policy(
        Policy::Static(StaticPolicy {
            locklist_bytes: 8 << 20,
            maxlocks_percent: 10.0,
        }),
        201,
    )
    .run();
    let sql = Scenario::cmp_policy(Scenario::sqlserver_policy(), 201).run();

    let row = |run: &RunResult| {
        format!(
            "esc {} (excl {}), peak {:.0} MB, committed {}, oom {}",
            run.total_escalations(),
            run.exclusive_escalations(),
            run.peak_lock_bytes() / MIB,
            run.committed,
            run.oom_failures
        )
    };
    r.check(
        "DB2 9 self-tuning: no escalations, memory follows demand",
        row(&tuned),
        tuned.total_escalations() == 0,
    );
    r.check(
        "static LOCKLIST + MAXLOCKS 10: the DSS query escalates",
        row(&stat),
        stat.total_escalations() > 0,
    );
    r.check(
        "SQL Server model: 5000-lock statement cap escalates the reporting query",
        row(&sql),
        sql.total_escalations() > 0,
    );
    r.check(
        "self-tuning sustains the highest committed throughput",
        format!(
            "tuned {} vs static {} vs sqlserver {}",
            tuned.committed, stat.committed, sql.committed
        ),
        tuned.committed >= stat.committed && tuned.committed >= sql.committed,
    );
    // Oracle: no lock memory at all; the analytic ITL model shows the
    // cost surface instead.
    let itl = OracleItl::default();
    let hot = itl.expected_itl_wait_fraction(130, 50, 0);
    let overhead = itl.table_overhead_bytes(1_000_000, 24);
    r.check(
        "Oracle ITL model: page-level blocking under hot-page concurrency, permanent page overhead",
        format!(
            "ITL-wait fraction {hot:.2} on 50 hot pages; {} MB permanent overhead across 1M pages",
            overhead / (1 << 20)
        ),
        hot > 0.5,
    );
    r.series = standard_series(&tuned);
    r
}

/// An experiment's command-line id and the function that runs it.
pub type Experiment = (&'static str, fn() -> Report);

/// Every experiment by its command-line id, in paper order and then
/// the design ablations: the one list of experiments.
pub const EXPERIMENTS: [Experiment; 13] = [
    ("table1", table1),
    ("curve", curve_experiment),
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", fig9),
    ("fig10", fig10),
    ("fig11", fig11),
    ("fig12", fig12),
    ("constrained", constrained),
    ("twodss", two_dss),
    ("cmp", cmp),
    ("ablations", ablations::run),
];

/// All experiments, in paper order.
pub fn all() -> Vec<Report> {
    EXPERIMENTS.iter().map(|(_, run)| run()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    // The simulation-backed figures are exercised by the experiments
    // binary (they take seconds to minutes); the closed-form artifacts
    // are cheap enough to pin in `cargo test`.

    #[test]
    fn table1_matches_paper() {
        let r = table1();
        assert!(r.all_pass(), "\n{}", r.render());
    }

    #[test]
    fn curve_matches_paper() {
        let r = curve_experiment();
        assert!(r.all_pass(), "\n{}", r.render());
        assert_eq!(r.series.len(), 1);
        assert_eq!(r.series[0].len(), 101);
    }
}
