//! Property tests for the budget ledger: across *arbitrary* sequences
//! of tenant churn, donations, free-pool grants and withdrawals, the
//! machine budget is conserved exactly — every byte is either free or
//! exactly one tenant's budget — and no tenant ever sits below its
//! floor or above its ceiling. This is the invariant that makes the
//! tenants subsystem safe to compose with chaos: whatever the arbiter
//! or the churn path does, budget cannot leak.

use locktune_sim::check::{self as proptest, prelude::*};
use locktune_tenants::{BudgetLedger, LedgerError};

const MIB: u64 = 1024 * 1024;

/// One step of an arbitrary ledger workload. Ids are drawn from a
/// small space so sequences hit duplicate-create, unknown-drop and
/// self-transfer edges often.
#[derive(Debug, Clone)]
enum Step {
    Create {
        id: u32,
        floor: u64,
        want: u64,
    },
    Drop {
        id: u32,
    },
    Transfer {
        from: u32,
        to: u32,
        bytes: u64,
        keep: u64,
    },
    GrantFree {
        to: u32,
        bytes: u64,
    },
    Withdraw {
        from: u32,
        bytes: u64,
        keep: u64,
    },
}

fn step() -> BoxedStrategy<Step> {
    let id = 0u32..8;
    let bytes = 0u64..(32 * MIB);
    prop_oneof![
        (id.clone(), (1u64..4), 0u64..(16 * MIB)).prop_map(|(id, floor_mib, want)| Step::Create {
            id,
            floor: floor_mib * MIB,
            want
        }),
        id.clone().prop_map(|id| Step::Drop { id }),
        (id.clone(), id.clone(), bytes.clone(), bytes.clone()).prop_map(
            |(from, to, bytes, keep)| Step::Transfer {
                from,
                to,
                bytes,
                keep
            }
        ),
        (id.clone(), bytes.clone()).prop_map(|(to, bytes)| Step::GrantFree { to, bytes }),
        (id, bytes.clone(), bytes).prop_map(|(from, bytes, keep)| Step::Withdraw {
            from,
            bytes,
            keep
        }),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The conservation invariant survives any workload: after every
    /// single step, `free + Σ budgets == machine budget`, every tenant
    /// is within `[floor, ceiling]`, and refused operations change
    /// nothing.
    #[test]
    fn budget_is_conserved_across_arbitrary_sequences(
        machine_mib in 8u64..128,
        ceiling_mib in 4u64..64,
        steps in proptest::collection::vec(step(), 1..120),
    ) {
        let machine = machine_mib * MIB;
        let ceiling = ceiling_mib * MIB;
        let mut ledger = BudgetLedger::new(machine);
        for s in steps {
            let before = ledger.clone();
            let refused = match s {
                Step::Create { id, floor, want } => {
                    ledger.create(id, floor, ceiling, want).is_err()
                }
                Step::Drop { id } => ledger.drop_tenant(id).is_err(),
                Step::Transfer { from, to, bytes, keep } => {
                    ledger.transfer(from, to, bytes, keep).is_err()
                }
                Step::GrantFree { to, bytes } => ledger.grant_free(to, bytes).is_err(),
                Step::Withdraw { from, bytes, keep } => {
                    ledger.withdraw(from, bytes, keep).is_err()
                }
            };
            // A refusal must be a no-op.
            if refused {
                prop_assert_eq!(ledger.free(), before.free());
                prop_assert_eq!(ledger.len(), before.len());
            }
            // The partition is exact after *every* step, not just at
            // the end.
            prop_assert!(ledger.check().is_ok(), "{:?}", ledger.check());
        }
        // Drain: dropping every tenant returns the ledger to all-free.
        let ids: Vec<u32> = ledger.iter().map(|(id, _)| id).collect();
        for id in ids {
            ledger.drop_tenant(id).unwrap();
        }
        prop_assert_eq!(ledger.free(), machine);
        prop_assert_eq!(ledger.len(), 0);
    }

    /// Transfers honour the donor's `min_keep` exactly: whatever was
    /// asked, the donor retains at least `max(floor, keep)` and the
    /// recipient never passes its ceiling.
    #[test]
    fn transfer_never_breaks_floor_or_ceiling(
        donor_budget in 2u64..64,
        ask in 0u64..(128 * MIB),
        keep_mib in 0u64..64,
    ) {
        let machine = 256 * MIB;
        let mut ledger = BudgetLedger::new(machine);
        ledger.create(1, MIB, 128 * MIB, donor_budget * MIB).unwrap();
        ledger.create(2, MIB, 8 * MIB, MIB).unwrap();
        let keep = keep_mib * MIB;
        let moved = ledger.transfer(1, 2, ask, keep).unwrap();
        let donor = ledger.get(1).unwrap();
        let recipient = ledger.get(2).unwrap();
        prop_assert!(donor.budget >= donor.floor.max(keep.min(donor_budget * MIB)));
        prop_assert!(recipient.budget <= recipient.ceiling);
        prop_assert!(moved <= ask);
        prop_assert!(ledger.check().is_ok());
    }

    /// Self-transfers are always refused, whatever the state.
    #[test]
    fn self_transfer_is_always_refused(id in 0u32..4, bytes in 0u64..(8 * MIB)) {
        let mut ledger = BudgetLedger::new(64 * MIB);
        ledger.create(id, MIB, 0, 4 * MIB).unwrap();
        prop_assert_eq!(
            ledger.transfer(id, id, bytes, 0),
            Err(LedgerError::SelfTransfer(id))
        );
    }
}
