//! One transaction loop for every load generator.
//!
//! The paper's evaluation is one workload: short OLTP transactions
//! with a DSS scan injected on top (§5). Every load generator here
//! runs it — the in-process example, `locktune-client` over the wire,
//! `locktune-cluster-client` and the failover bench through the
//! router, and the chaos and failover soaks — and they differ only in
//! the back-end, so the transaction itself is written once:
//!
//! 1. roll a lock set from a [`Mix`];
//! 2. lock it through a [`TxnBackend`], which feeds every item's
//!    result to a [`Verdict`]: the first failure counts, and the
//!    cascade behind it (a `MissingIntent` after a timed-out intent,
//!    `Skipped` batch items, a repeated victim abort) is ignored;
//! 3. release everything on every path (strict 2PL); a service error
//!    at commit makes the transaction an abort, not a commit;
//! 4. count its [`TxnOutcome`] in a [`Tally`].
//!
//! [`Session`] is the in-process back-end. `locktune-net` adapts
//! `Client` (pipelined or batched) and `ReconnectingClient`, and
//! `locktune-cluster` adapts `RoutingClient` (plain or degraded).

use std::fmt;

use locktune_lockmgr::{LockError, LockMode, LockOutcome, ResourceId};
use locktune_sim::SimRng;
use locktune_workload::Mix;

use crate::service::{BatchOutcome, ServiceError, Session};

/// What became of one transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnOutcome {
    /// Every lock was granted and the release succeeded.
    Committed,
    /// A lock wait hit `LOCKTIMEOUT`.
    Timeout,
    /// The deadlock sweeper chose this transaction as a victim.
    DeadlockVictim,
    /// Lock memory was exhausted.
    OutOfLockMemory,
    /// Shed mode turned a request away.
    Overloaded,
    /// A degraded cluster could not route some items.
    Unavailable,
    /// The session went away mid-transaction and its locks with it: a
    /// reconnect, a lost cluster session, a node down or a stale
    /// routing epoch. Not an abort: nothing in the service refused it.
    Lost,
}

impl TxnOutcome {
    /// Every class with its report label, in [`Tally`] order.
    pub(crate) const ALL: [(TxnOutcome, &'static str); 7] = [
        (TxnOutcome::Committed, "committed"),
        (TxnOutcome::Timeout, "timeouts"),
        (TxnOutcome::DeadlockVictim, "deadlock victims"),
        (TxnOutcome::OutOfLockMemory, "lock memory OOM"),
        (TxnOutcome::Overloaded, "shed rejections"),
        (TxnOutcome::Unavailable, "unavailable"),
        (TxnOutcome::Lost, "lost"),
    ];
}

/// One transaction's results, fed item by item by a [`TxnBackend`].
#[derive(Debug, Default)]
pub struct Verdict {
    failure: Option<TxnOutcome>,
    escalations: u64,
    unavailable: u64,
}

impl Verdict {
    /// One executed request (or a commit-time release error).
    pub fn item(&mut self, result: &Result<LockOutcome, ServiceError>) {
        match result {
            Ok(LockOutcome::GrantedAfterEscalation { .. }) => self.escalations += 1,
            Ok(_) => {}
            Err(_) if self.failure.is_some() => {}
            Err(e) => self.failure = Some(classify(e)),
        }
    }

    /// One batch item; a `Skipped` one never ran.
    pub fn batch(&mut self, outcome: &BatchOutcome) {
        if let BatchOutcome::Done(result) = outcome {
            self.item(result);
        }
    }

    /// One item a degraded cluster could not route.
    pub fn unavailable(&mut self) {
        self.unavailable += 1;
        self.failure.get_or_insert(TxnOutcome::Unavailable);
    }

    /// The session, and the transaction's locks, went away.
    pub fn lost(&mut self) {
        self.failure.get_or_insert(TxnOutcome::Lost);
    }

    /// The transaction's class so far.
    pub fn outcome(&self) -> TxnOutcome {
        self.failure.unwrap_or(TxnOutcome::Committed)
    }
}

/// The abort class of a service error.
///
/// # Panics
/// On an error no well-formed lock set can cause (a shutdown, a
/// duplicate connect, a lock error other than lock-memory exhaustion):
/// that is a bug in the load generator or the service.
fn classify(e: &ServiceError) -> TxnOutcome {
    match e {
        ServiceError::Timeout => TxnOutcome::Timeout,
        ServiceError::DeadlockVictim => TxnOutcome::DeadlockVictim,
        ServiceError::Lock(LockError::OutOfLockMemory) => TxnOutcome::OutOfLockMemory,
        ServiceError::Overloaded { .. } => TxnOutcome::Overloaded,
        other => panic!("unexpected service error in a transaction: {other}"),
    }
}

/// Transaction counts by [`TxnOutcome`], plus two per-item counts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tally {
    txns: [u64; TxnOutcome::ALL.len()],
    /// `GrantedAfterEscalation` grants seen: a lower bound on the
    /// service's escalations, since one that happens while a request
    /// queues resolves to a plain grant.
    pub escalations_seen: u64,
    /// Items a degraded cluster could not route.
    pub unavailable_items: u64,
}

impl Tally {
    /// Transactions of class `outcome`.
    pub fn get(&self, outcome: TxnOutcome) -> u64 {
        self.txns[outcome as usize]
    }

    /// Count one finished transaction.
    pub(crate) fn record(&mut self, verdict: &Verdict) -> TxnOutcome {
        let outcome = verdict.outcome();
        self.txns[outcome as usize] += 1;
        self.escalations_seen += verdict.escalations;
        self.unavailable_items += verdict.unavailable;
        outcome
    }

    /// Add another worker's counts.
    pub fn merge(&mut self, other: &Tally) {
        for (mine, theirs) in self.txns.iter_mut().zip(other.txns) {
            *mine += theirs;
        }
        self.escalations_seen += other.escalations_seen;
        self.unavailable_items += other.unavailable_items;
    }
}

/// One `label: count` line per class.
impl fmt::Display for Tally {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (outcome, name) in TxnOutcome::ALL {
            writeln!(f, "{:<19}{}", format!("{name}:"), self.get(outcome))?;
        }
        Ok(())
    }
}

/// A session a load generator runs transactions through.
pub trait TxnBackend {
    /// What ends the run: a dead connection, a protocol violation.
    type Error;

    /// Request every lock of `set`, in order, feeding each result to
    /// `verdict`.
    fn lock_set(
        &mut self,
        set: &[(ResourceId, LockMode)],
        verdict: &mut Verdict,
    ) -> Result<(), Self::Error>;

    /// Release everything the transaction holds, feeding a release
    /// error the service reports to `verdict`.
    fn release(&mut self, verdict: &mut Verdict) -> Result<(), Self::Error>;
}

/// Run one transaction over `set`: lock, release on every path, count.
pub fn run_txn<B: TxnBackend + ?Sized>(
    backend: &mut B,
    set: &[(ResourceId, LockMode)],
    tally: &mut Tally,
) -> Result<TxnOutcome, B::Error> {
    let mut verdict = Verdict::default();
    let locked = backend.lock_set(set, &mut verdict);
    let released = backend.release(&mut verdict);
    locked?;
    released?;
    Ok(tally.record(&verdict))
}

/// Run `txns` transactions rolled from `mix`.
pub fn run<B: TxnBackend + ?Sized>(
    backend: &mut B,
    mix: &Mix,
    rng: &mut SimRng,
    txns: u64,
    tally: &mut Tally,
) -> Result<(), B::Error> {
    let mut set = Vec::new();
    for _ in 0..txns {
        mix.roll(rng, &mut set);
        run_txn(backend, &set, tally)?;
    }
    Ok(())
}

/// Sequential [`Session::lock`] calls, stopping at the first failure.
impl TxnBackend for Session {
    type Error = std::convert::Infallible;

    fn lock_set(
        &mut self,
        set: &[(ResourceId, LockMode)],
        verdict: &mut Verdict,
    ) -> Result<(), Self::Error> {
        for &(res, mode) in set {
            let result = self.lock(res, mode);
            verdict.item(&result);
            if result.is_err() {
                break;
            }
        }
        Ok(())
    }

    fn release(&mut self, verdict: &mut Verdict) -> Result<(), Self::Error> {
        if let Err(e) = self.unlock_all() {
            verdict.item(&Err(e));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locktune_lockmgr::TableId;

    /// A back-end replaying scripted results; counts its releases.
    #[derive(Default)]
    struct Fake {
        items: Vec<Result<LockOutcome, ServiceError>>,
        lost: bool,
        broken: bool,
        commit: Option<ServiceError>,
        releases: u32,
    }

    impl TxnBackend for Fake {
        type Error = ();

        fn lock_set(&mut self, _: &[(ResourceId, LockMode)], v: &mut Verdict) -> Result<(), ()> {
            if self.lost {
                v.lost();
            }
            self.items.iter().for_each(|r| v.item(r));
            if self.broken {
                Err(())
            } else {
                Ok(())
            }
        }

        fn release(&mut self, v: &mut Verdict) -> Result<(), ()> {
            self.releases += 1;
            if let Some(e) = self.commit.take() {
                v.item(&Err(e));
            }
            Ok(())
        }
    }

    /// Run `fake` for one transaction: its result, tally and releases.
    fn one(mut fake: Fake) -> (Result<TxnOutcome, ()>, Tally, u32) {
        let mut tally = Tally::default();
        let result = run_txn(&mut fake, &[], &mut tally);
        (result, tally, fake.releases)
    }

    #[test]
    fn the_first_failure_is_tallied_once() {
        let missing = ServiceError::Lock(LockError::MissingIntent(ResourceId::Table(TableId(1))));
        let (result, tally, _) = one(Fake {
            items: vec![
                Ok(LockOutcome::Granted),
                Err(ServiceError::Timeout),
                Err(missing),
                Err(ServiceError::DeadlockVictim),
            ],
            commit: Some(ServiceError::DeadlockVictim),
            ..Fake::default()
        });
        assert_eq!(result, Ok(TxnOutcome::Timeout));
        let counts = TxnOutcome::ALL.map(|(o, _)| tally.get(o));
        assert_eq!(counts, [0, 1, 0, 0, 0, 0, 0], "one timeout, nothing else");
    }

    #[test]
    fn unlock_all_runs_on_every_path() {
        let overloaded = vec![Err(ServiceError::Overloaded { tenant: None })];
        for fake in [
            Fake::default(),
            Fake {
                items: overloaded,
                ..Fake::default()
            },
            Fake {
                lost: true,
                ..Fake::default()
            },
            Fake {
                commit: Some(ServiceError::DeadlockVictim),
                ..Fake::default()
            },
            Fake {
                broken: true,
                ..Fake::default()
            },
        ] {
            let broken = fake.broken;
            let (result, _, releases) = one(fake);
            assert_eq!((result.is_err(), releases), (broken, 1));
        }
    }

    #[test]
    fn a_commit_time_deadlock_victim_is_an_abort() {
        let (result, tally, _) = one(Fake {
            items: vec![Ok(LockOutcome::Granted)],
            commit: Some(ServiceError::DeadlockVictim),
            ..Fake::default()
        });
        assert_eq!(result, Ok(TxnOutcome::DeadlockVictim));
        assert_eq!(tally.get(TxnOutcome::Committed), 0);
    }

    #[test]
    fn a_lost_session_is_not_an_abort() {
        let (result, tally, _) = one(Fake {
            lost: true,
            items: vec![Err(ServiceError::Timeout)],
            ..Fake::default()
        });
        assert_eq!(result, Ok(TxnOutcome::Lost));
        assert_eq!(tally.get(TxnOutcome::Timeout), 0);
    }

    #[test]
    fn per_item_counts_merge_and_print() {
        let mut verdict = Verdict::default();
        verdict.item(&Ok(LockOutcome::GrantedAfterEscalation {
            table: TableId(1),
            exclusive: false,
        }));
        verdict.batch(&BatchOutcome::Skipped);
        verdict.unavailable();
        let mut tally = Tally::default();
        assert_eq!(tally.record(&verdict), TxnOutcome::Unavailable);
        tally.merge(&tally.clone());
        assert_eq!((tally.escalations_seen, tally.unavailable_items), (2, 2));
        assert!(tally.to_string().contains("unavailable:       2\n"));
    }

    #[test]
    #[should_panic(expected = "unexpected service error in a transaction")]
    fn a_service_error_no_lock_set_can_cause_is_a_bug() {
        Verdict::default().item(&Err(ServiceError::ShuttingDown));
    }
}
