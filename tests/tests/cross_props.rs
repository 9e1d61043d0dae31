//! Property tests across the whole stack: any smoke-scale scenario
//! must terminate with consistent accounting and paper-invariant
//! behaviour.

use locktune_core::TunerParams;
use locktune_engine::{Policy, Scenario};
use locktune_sim::check::prelude::*;

proptest! {
    // Full-engine runs are comparatively expensive; keep the case count
    // modest but the input space broad.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn tuned_engine_never_escalates_and_conserves_memory(
        clients in 1u32..40,
        seconds in 20u64..60,
        seed in 0u64..1000,
    ) {
        let r = Scenario::smoke(
            Policy::SelfTuning(TunerParams::default()), seconds, clients, seed).run();
        // The central claim: with ample database memory the tuned
        // system never escalates and never fails for memory.
        prop_assert_eq!(r.total_escalations(), 0);
        prop_assert_eq!(r.oom_failures, 0);
        // used <= allocated at every sample; allocation block-aligned.
        for ((_, alloc), (_, used)) in r.lock_bytes.iter().zip(r.lock_used_bytes.iter()) {
            prop_assert!(used <= alloc + 1e-9);
            prop_assert_eq!((alloc as u64) % 131_072, 0);
        }
        // Monotone counters.
        let mut prev = -1.0;
        for (_, v) in r.escalations.iter() {
            prop_assert!(v >= prev);
            prev = v;
        }
    }

    #[test]
    fn any_policy_terminates_consistently(
        policy_pick in 0u8..3,
        clients in 1u32..30,
        seed in 0u64..1000,
    ) {
        let policy = match policy_pick {
            0 => Policy::SelfTuning(TunerParams::default()),
            1 => Policy::Static(locktune_baselines::StaticPolicy {
                locklist_bytes: 256 * 1024,
                maxlocks_percent: 10.0,
            }),
            _ => Scenario::sqlserver_policy(),
        };
        let r = Scenario::smoke(policy, 30, clients, seed).run();
        // Whatever the policy, the engine's internal validation passed
        // (run() validates before reporting) and some work completed.
        prop_assert!(r.committed > 0);
        prop_assert!(r.duration.as_secs() == 30);
    }
}
