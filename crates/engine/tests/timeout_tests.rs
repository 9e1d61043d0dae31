//! LOCKTIMEOUT behaviour: waits longer than the configured timeout
//! abandon the transaction instead of blocking forever.

use locktune_core::TunerParams;
use locktune_engine::{Policy, Scenario};
use locktune_sim::SimDuration;
use locktune_workload::{OltpSpec, TxnProfile};

/// A deliberately pathological workload: 4 clients hammer a single row
/// exclusively and hold it for a long time.
fn contended_scenario(timeout: Option<SimDuration>) -> Scenario {
    let oltp = OltpSpec {
        tables: 1,
        rows_per_table: 1, // everyone wants the same row
        zipf_exponent: 0.0,
        profiles: vec![TxnProfile {
            name: "hot-row",
            weight: 1.0,
            mean_row_locks: 1.0,
            lock_sigma: 0.0,
            write_fraction: 1.0,
            tables_touched: 1,
            mean_think: SimDuration::from_millis(100),
            step_gap: SimDuration::from_millis(1),
            mean_hold: SimDuration::from_secs(20), // hog the row
        }],
    };
    let mut s = Scenario::smoke(Policy::SelfTuning(TunerParams::default()), 120, 4, 77);
    s.config.oltp = oltp;
    s.config.lock_timeout = timeout;
    s
}

#[test]
fn waits_time_out_and_clients_retry() {
    let r = contended_scenario(Some(SimDuration::from_secs(3))).run();
    assert!(r.lock_timeouts > 0, "contended waits must time out");
    assert!(r.committed > 0, "the lock holder keeps committing");
    // Wait durations are bounded by the timeout (plus one event tick).
    let p_max = r.wait_times.max;
    assert!(
        p_max <= SimDuration::from_secs(4).as_micros(),
        "longest observed completed wait {p_max} us exceeds the timeout"
    );
}

#[test]
fn without_timeout_waits_run_long() {
    let r = contended_scenario(None).run();
    assert_eq!(r.lock_timeouts, 0);
    // Some waits last on the order of the 20 s hold time.
    assert!(
        r.wait_times.max >= SimDuration::from_secs(5).as_micros(),
        "expected long waits, saw max {} us",
        r.wait_times.max
    );
}

#[test]
fn timeout_does_not_perturb_uncontended_runs() {
    let with = Scenario::smoke(Policy::SelfTuning(TunerParams::default()), 45, 10, 9);
    let mut with = with;
    with.config.lock_timeout = Some(SimDuration::from_secs(30));
    let with = with.run();
    let without = Scenario::smoke(Policy::SelfTuning(TunerParams::default()), 45, 10, 9).run();
    assert_eq!(with.lock_timeouts, 0, "no 30s waits in a smoke run");
    assert_eq!(
        with.committed, without.committed,
        "timeout must be inert here"
    );
}
