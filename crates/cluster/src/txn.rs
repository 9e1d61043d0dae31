//! The routed back-ends of the shared transaction loop
//! ([`locktune_service::txn`]).
//!
//! * [`RoutingClient`] — the strict contract: one routed `lock_many`
//!   per set; a session-invalidating error (a lost session, a node
//!   down, a stale epoch) loses the transaction, whose surviving locks
//!   the router has already released.
//! * [`Degraded`] — the failover contract: `lock_many_degraded`, so a
//!   dead partition's items come back unavailable while live
//!   partitions keep granting.
//!
//! Both release through [`RoutingClient::unlock_all`], which tolerates
//! per-node session loss; a release the service refused is an abort.

use locktune_lockmgr::{LockMode, ResourceId};
use locktune_net::ClientError;
use locktune_service::{TxnBackend, Verdict};

use crate::router::{ClusterError, RoutedOutcome, RoutingClient};

impl TxnBackend for RoutingClient {
    type Error = ClusterError;

    fn lock_set(
        &mut self,
        set: &[(ResourceId, LockMode)],
        v: &mut Verdict,
    ) -> Result<(), ClusterError> {
        settle(self.lock_many(set), v, |outcomes, v| {
            outcomes.iter().for_each(|o| v.batch(o))
        })
    }

    fn release(&mut self, v: &mut Verdict) -> Result<(), ClusterError> {
        settle(self.unlock_all(), v, |_, _| {})
    }
}

/// A [`RoutingClient`] under the degraded contract. Keeps the last
/// set's outcomes for a caller that checks grants item by item.
pub struct Degraded<'a> {
    client: &'a mut RoutingClient,
    outcomes: Vec<RoutedOutcome>,
}

impl<'a> Degraded<'a> {
    /// Drive transactions through `client`.
    pub fn new(client: &'a mut RoutingClient) -> Degraded<'a> {
        Degraded {
            client,
            outcomes: Vec::new(),
        }
    }

    /// The last set's per-item outcomes, in request order; empty if
    /// the transaction was lost.
    pub fn outcomes(&self) -> &[RoutedOutcome] {
        &self.outcomes
    }
}

impl TxnBackend for Degraded<'_> {
    type Error = ClusterError;

    fn lock_set(
        &mut self,
        set: &[(ResourceId, LockMode)],
        v: &mut Verdict,
    ) -> Result<(), ClusterError> {
        self.outcomes.clear();
        let kept = &mut self.outcomes;
        settle(self.client.lock_many_degraded(set), v, |outcomes, v| {
            for o in &outcomes {
                match o {
                    RoutedOutcome::Done(o) => v.batch(o),
                    RoutedOutcome::Unavailable { .. } => v.unavailable(),
                }
            }
            *kept = outcomes;
        })
    }

    fn release(&mut self, v: &mut Verdict) -> Result<(), ClusterError> {
        settle(self.client.unlock_all(), v, |_, _| {})
    }
}

/// Feed one routed call's result to `v`: a node's service refusal
/// aborts the transaction; `SessionLost`, `NodeDown` and `StaleEpoch`
/// lose it (the router has released what was reachable); any other
/// error ends the run.
fn settle<T>(
    result: Result<T, ClusterError>,
    v: &mut Verdict,
    done: impl FnOnce(T, &mut Verdict),
) -> Result<(), ClusterError> {
    match result {
        Ok(value) => done(value, v),
        Err(ClusterError::Node {
            error: ClientError::Service(e),
            ..
        }) => v.item(&Err(e)),
        Err(e) if e.invalidates_session() => v.lost(),
        Err(e) => return Err(e),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use locktune_service::{ServiceError, TxnOutcome};

    fn settled(e: ClusterError) -> Result<TxnOutcome, ClusterError> {
        let mut v = Verdict::default();
        settle::<()>(Err(e), &mut v, |_, _| {})?;
        Ok(v.outcome())
    }

    #[test]
    fn session_lost_node_down_and_stale_epoch_lose_the_transaction() {
        for e in [
            ClusterError::SessionLost { node: 1 },
            ClusterError::NodeDown {
                node: 1,
                attempts: 5,
            },
            ClusterError::StaleEpoch {
                node: 0,
                current: 3,
            },
        ] {
            assert_eq!(settled(e).ok(), Some(TxnOutcome::Lost));
        }
    }

    #[test]
    fn a_refusal_aborts_and_other_errors_end_the_run() {
        let refused = |error| ClusterError::Node { node: 2, error };
        let victim = refused(ClientError::Service(ServiceError::DeadlockVictim));
        assert_eq!(settled(victim).ok(), Some(TxnOutcome::DeadlockVictim));
        assert!(settled(refused(ClientError::Protocol("torn".into()))).is_err());
        assert!(settled(ClusterError::PartitionUnavailable { node: 0, epoch: 1 }).is_err());
    }
}
