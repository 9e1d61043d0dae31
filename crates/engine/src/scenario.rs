//! Scenario builders: one per experiment in the paper's §5.
//!
//! Magnitude calibration. The paper's testbed holds locks for seconds
//! at a time over a combined TPC-C/TPC-H schema; the scenarios here use
//! a "heavy" transaction profile (hundreds of row locks held for
//! seconds) calibrated so the simulated lock-memory magnitudes land in
//! the paper's range: ~2 MB minimal configuration, ~20 MB for a
//! 130-client steady state (Fig. 9's ~10× growth), ~8 MB for the light
//! Fig. 11 OLTP steady state with a DSS spike towards 10 % of
//! `databaseMemory`.

use locktune_baselines::{SqlServerModel, StaticPolicy};
use locktune_core::TunerParams;
use locktune_sim::{SimDuration, SimTime};
use locktune_workload::{DssSpec, OltpSpec, PhaseChange, Schedule, TxnProfile};

use crate::engine::{default_heaps, Engine, EngineConfig};
use crate::policy::Policy;
use crate::result::RunResult;

/// A named, runnable experiment.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario id (figure name).
    pub name: &'static str,
    /// Engine configuration.
    pub config: EngineConfig,
    /// Load schedule.
    pub schedule: Schedule,
}

impl Scenario {
    /// Run the scenario to completion.
    pub fn run(self) -> RunResult {
        Engine::new(self.config, self.schedule).run()
    }

    // ------------------------------------------------------------------
    // Workload specs
    // ------------------------------------------------------------------

    /// Heavy OLTP profile (Figs. 7–10, 12): long transactions holding
    /// ~1050 row locks for ~13 s. At 130 clients this sustains ~160k
    /// held lock structures ≈ 10 MB used ≈ 20 MB tuned allocation
    /// (Fig. 9's ~10x growth over the 2 MB minimal configuration).
    fn heavy_oltp() -> OltpSpec {
        OltpSpec {
            tables: 9,
            rows_per_table: 4_000_000,
            zipf_exponent: 0.0,
            profiles: vec![TxnProfile {
                name: "batch-update",
                weight: 1.0,
                mean_row_locks: 1050.0,
                lock_sigma: 0.3,
                write_fraction: 0.05,
                tables_touched: 3,
                mean_think: SimDuration::from_secs(1),
                step_gap: SimDuration::from_millis(12),
                mean_hold: SimDuration::from_secs(1),
            }],
        }
    }

    /// Light OLTP profile (Fig. 11): ~300 row locks held ~4 s; at 130
    /// clients the tuned steady state sits near the paper's 8 MB.
    fn light_oltp() -> OltpSpec {
        OltpSpec {
            tables: 9,
            rows_per_table: 2_000_000,
            zipf_exponent: 0.0,
            profiles: vec![TxnProfile {
                name: "oltp",
                weight: 1.0,
                mean_row_locks: 300.0,
                lock_sigma: 0.3,
                write_fraction: 0.2,
                tables_touched: 3,
                mean_think: SimDuration::from_secs(1),
                step_gap: SimDuration::from_millis(10),
                mean_hold: SimDuration::from_millis(500),
            }],
        }
    }

    /// The §5.3 reporting query: 2.5 M share row locks at 100 k
    /// locks/s (≈25 s of scanning) over a dedicated reporting table
    /// (the TPC-H side of the paper's combined schema), driving lock
    /// memory towards 10 % of `databaseMemory`.
    pub fn reporting_query() -> DssSpec {
        DssSpec {
            row_locks: 2_500_000,
            table: 10, // outside the OLTP tables' 0..9 range
            table_rows: 8_000_000,
            locks_per_second: 100_000.0,
            exclusive: false,
        }
    }

    fn base_config(policy: Policy, oltp: OltpSpec, max_clients: u32, seed: u64) -> EngineConfig {
        let memory = locktune_memory::MemoryConfig::default();
        EngineConfig {
            heaps: default_heaps(memory.total_bytes),
            memory,
            policy,
            oltp,
            max_clients,
            seed,
            ..EngineConfig::default()
        }
    }

    // ------------------------------------------------------------------
    // Figures
    // ------------------------------------------------------------------

    /// Figures 7 & 8: static 0.4 MB `LOCKLIST`, `MAXLOCKS` 10, 130
    /// clients — escalation and throughput collapse.
    pub fn fig7_static_escalation() -> Scenario {
        Scenario {
            name: "fig7-static-escalation",
            config: Self::base_config(
                Policy::Static(StaticPolicy::figure7()),
                Self::heavy_oltp(),
                130,
                71,
            ),
            schedule: Schedule::steady(130, SimTime::from_secs(180)),
        }
    }

    /// The healthy reference for Figure 8: the identical 130-client
    /// heavy workload, but self-tuned (same seed as Fig. 7).
    pub fn fig8_tuned_reference() -> Scenario {
        Scenario {
            name: "fig8-tuned-reference",
            config: Self::base_config(
                Policy::SelfTuning(TunerParams::default()),
                Self::heavy_oltp(),
                130,
                71,
            ),
            schedule: Schedule::steady(130, SimTime::from_secs(180)),
        }
    }

    /// Figure 9: ramp 1 → 130 clients under self-tuning; the lock
    /// memory adapts ~10× with zero escalations.
    pub fn fig9_rampup() -> Scenario {
        Scenario {
            name: "fig9-rampup",
            config: Self::base_config(
                Policy::SelfTuning(TunerParams::default()),
                Self::heavy_oltp(),
                130,
                91,
            ),
            schedule: Schedule::ramp(
                1,
                130,
                SimTime::ZERO,
                SimTime::from_secs(240),
                16,
                SimTime::from_secs(600),
            ),
        }
    }

    /// Figure 10: 50 clients in steady state, then a 2.6× surge to 130.
    pub fn fig10_surge() -> Scenario {
        Scenario {
            name: "fig10-surge",
            config: Self::base_config(
                Policy::SelfTuning(TunerParams::default()),
                Self::heavy_oltp(),
                130,
                101,
            ),
            schedule: Schedule::new(
                vec![
                    (SimTime::ZERO, PhaseChange::SetClients(50)),
                    (SimTime::from_secs(300), PhaseChange::SetClients(130)),
                ],
                SimTime::from_secs(600),
            ),
        }
    }

    /// Figure 11: steady light OLTP, then a DSS reporting query at
    /// 5.5 minutes.
    pub fn fig11_dss_injection() -> Scenario {
        Scenario {
            name: "fig11-dss-injection",
            config: Self::base_config(
                Policy::SelfTuning(TunerParams::default()),
                Self::light_oltp(),
                130,
                111,
            ),
            schedule: Schedule::new(
                vec![
                    (SimTime::ZERO, PhaseChange::SetClients(130)),
                    (
                        SimTime::from_secs(330),
                        PhaseChange::InjectDss(Self::reporting_query()),
                    ),
                ],
                SimTime::from_secs(600),
            ),
        }
    }

    /// Figure 12: 130 clients, then a 77 % drop to 30 — gradual 5 %/
    /// interval shrink to a new steady state.
    pub fn fig12_reduction() -> Scenario {
        Scenario {
            name: "fig12-reduction",
            config: Self::base_config(
                Policy::SelfTuning(TunerParams::default()),
                Self::heavy_oltp(),
                130,
                121,
            ),
            schedule: Schedule::new(
                vec![
                    (SimTime::ZERO, PhaseChange::SetClients(130)),
                    (SimTime::from_secs(300), PhaseChange::SetClients(30)),
                ],
                SimTime::from_secs(1200),
            ),
        }
    }

    /// §5.3's counterfactual: two heavy lock consumers at once. Each
    /// reporting query is sized so the pair drives usage towards
    /// `maxLockMemory`; the adaptive `lockPercentPerApplication`
    /// attenuates and throttles them with *share* escalations while the
    /// OLTP workload continues untouched.
    pub fn two_dss_injection() -> Scenario {
        // Three consumers at ~33% share each: the cap crosses their
        // share (98(1-x^3) < 33% at x ~ 0.87) while all are mid-scan.
        // Slower scans than Fig. 11's: several tuning intervals elapse
        // mid-flight, so the allocation pre-grows to maxLockMemory and
        // the adaptive cap — not the overflow bound — throttles the
        // consumers.
        let big_query = |table: u32| DssSpec {
            row_locks: 3_500_000,
            table,
            table_rows: 8_000_000,
            locks_per_second: 50_000.0,
            exclusive: false,
        };
        let mut config = Self::base_config(
            Policy::SelfTuning(TunerParams::default()),
            Self::light_oltp(),
            130,
            141,
        );
        config.dss_slots = 3;
        Scenario {
            name: "two-dss-injection",
            config,
            schedule: Schedule::new(
                vec![
                    (SimTime::ZERO, PhaseChange::SetClients(130)),
                    (
                        SimTime::from_secs(120),
                        PhaseChange::InjectDss(big_query(10)),
                    ),
                    (
                        SimTime::from_secs(125),
                        PhaseChange::InjectDss(big_query(11)),
                    ),
                    (
                        SimTime::from_secs(130),
                        PhaseChange::InjectDss(big_query(12)),
                    ),
                ],
                SimTime::from_secs(330),
            ),
        }
    }

    /// The §3.3 "rare but real" case: database overflow memory so
    /// constrained that synchronous growth is denied, locks escalate,
    /// and the tuner recovers by doubling the lock memory each interval
    /// (funded from donor heaps) until escalations stop.
    pub fn constrained_overflow() -> Scenario {
        use locktune_memory::{HeapKind, MemoryConfig, PerfHeap};
        const MIB: u64 = 1024 * 1024;
        let memory = MemoryConfig {
            total_bytes: 64 * MIB,
            overflow_goal_fraction: 0.03,
        };
        // Heaps leave only ~2 MB of overflow, but hold donatable slack
        // the interval-doubling path can reclaim.
        let heaps = vec![
            PerfHeap::new(HeapKind::BufferPool, 40 * MIB, 8 * MIB, 60 * MIB),
            PerfHeap::new(HeapKind::SortHeap, 16 * MIB, 2 * MIB, 8 * MIB),
            PerfHeap::new(HeapKind::PackageCache, 4 * MIB, MIB, 4 * MIB),
        ];
        let oltp = OltpSpec {
            tables: 6,
            rows_per_table: 2_000_000,
            zipf_exponent: 0.0,
            profiles: vec![TxnProfile {
                name: "constrained-batch",
                weight: 1.0,
                mean_row_locks: 1400.0,
                lock_sigma: 0.3,
                write_fraction: 0.05,
                tables_touched: 3,
                mean_think: SimDuration::from_millis(500),
                step_gap: SimDuration::from_millis(3),
                mean_hold: SimDuration::from_millis(500),
            }],
        };
        let config = EngineConfig {
            memory,
            heaps,
            policy: Policy::SelfTuning(TunerParams::default()),
            oltp,
            max_clients: 60,
            seed: 131,
            ..EngineConfig::default()
        };
        Scenario {
            name: "constrained-overflow",
            config,
            schedule: Schedule::steady(60, SimTime::from_secs(300)),
        }
    }

    /// Policy comparison (§2.3 narrative): the Fig. 11 workload under a
    /// given policy.
    pub fn cmp_policy(policy: Policy, seed: u64) -> Scenario {
        Scenario {
            name: "cmp-policy",
            config: Self::base_config(policy, Self::light_oltp(), 130, seed),
            schedule: Schedule::new(
                vec![
                    (SimTime::ZERO, PhaseChange::SetClients(130)),
                    (
                        SimTime::from_secs(120),
                        PhaseChange::InjectDss(Self::reporting_query()),
                    ),
                ],
                SimTime::from_secs(300),
            ),
        }
    }

    /// The SQL Server comparison policy sized for the default database
    /// memory.
    pub fn sqlserver_policy() -> Policy {
        Policy::SqlServer(SqlServerModel::new(
            locktune_memory::MemoryConfig::default().total_bytes,
        ))
    }

    /// A small, fast scenario for tests: a handful of clients and a
    /// short clock.
    pub fn smoke(policy: Policy, seconds: u64, clients: u32, seed: u64) -> Scenario {
        let oltp = OltpSpec {
            tables: 4,
            rows_per_table: 50_000,
            zipf_exponent: 0.0,
            profiles: vec![TxnProfile {
                name: "smoke",
                weight: 1.0,
                mean_row_locks: 40.0,
                lock_sigma: 0.3,
                write_fraction: 0.3,
                tables_touched: 2,
                mean_think: SimDuration::from_millis(200),
                step_gap: SimDuration::from_millis(2),
                mean_hold: SimDuration::from_millis(100),
            }],
        };
        Scenario {
            name: "smoke",
            config: Self::base_config(policy, oltp, clients, seed),
            schedule: Schedule::steady(clients, SimTime::from_secs(seconds)),
        }
    }
}
