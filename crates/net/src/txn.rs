//! The wire back-ends of the shared transaction loop
//! ([`locktune_service::txn`]) and the audit a remote run ends with.
//!
//! A plain [`Client`] drives transactions [`Pipelined`] or
//! [`Batched`]; a [`ReconnectingClient`] drives them directly, and a
//! [`ClientError::Reconnected`] loses the transaction.

use std::time::{Duration, Instant};

use locktune_lockmgr::{LockMode, ResourceId};
use locktune_service::{BatchOutcome, TxnBackend, Verdict};

use crate::wire::{Reply, Request, ValidateReport};
use crate::{Client, ClientError, ReconnectingClient};

/// A [`Client`] whose lock sets travel as pipelined `Lock` frames in
/// one flush. The server runs them in order, so each intent is granted
/// before its first row request runs.
pub struct Pipelined<'a> {
    client: &'a mut Client,
    ids: Vec<u64>,
}

impl<'a> Pipelined<'a> {
    /// Drive transactions through `client`.
    pub fn new(client: &'a mut Client) -> Pipelined<'a> {
        Pipelined {
            client,
            ids: Vec::new(),
        }
    }
}

impl TxnBackend for Pipelined<'_> {
    type Error = ClientError;

    fn lock_set(
        &mut self,
        set: &[(ResourceId, LockMode)],
        v: &mut Verdict,
    ) -> Result<(), ClientError> {
        self.ids.clear();
        for &(res, mode) in set {
            self.ids
                .push(self.client.send(&Request::Lock { res, mode })?);
        }
        for &id in &self.ids {
            match self.client.wait(id)? {
                Reply::Lock(result) => v.item(&result),
                other => {
                    return Err(ClientError::Protocol(format!(
                        "expected Lock, got {other:?}"
                    )))
                }
            }
        }
        Ok(())
    }

    fn release(&mut self, v: &mut Verdict) -> Result<(), ClientError> {
        settle(self.client.unlock_all(), v, |_, _| {})
    }
}

/// A [`Client`] whose lock sets travel as one `LockBatch` frame.
pub struct Batched<'a>(pub &'a mut Client);

impl TxnBackend for Batched<'_> {
    type Error = ClientError;

    fn lock_set(
        &mut self,
        set: &[(ResourceId, LockMode)],
        v: &mut Verdict,
    ) -> Result<(), ClientError> {
        settle(self.0.lock_batch(set), v, batch)
    }

    fn release(&mut self, v: &mut Verdict) -> Result<(), ClientError> {
        settle(self.0.unlock_all(), v, |_, _| {})
    }
}

/// One `LockBatch` frame per set: the wrapper has no pipelining,
/// because a half-sent pipeline cannot be replayed.
impl TxnBackend for ReconnectingClient {
    type Error = ClientError;

    fn lock_set(
        &mut self,
        set: &[(ResourceId, LockMode)],
        v: &mut Verdict,
    ) -> Result<(), ClientError> {
        settle(self.lock_batch(set), v, batch)
    }

    fn release(&mut self, v: &mut Verdict) -> Result<(), ClientError> {
        settle(self.unlock_all(), v, |_, _| {})
    }
}

fn batch(outcomes: Vec<BatchOutcome>, v: &mut Verdict) {
    outcomes.iter().for_each(|o| v.batch(o));
}

/// Feed one call's result to `v`: a service refusal (a victim abort
/// that struck after the last grant, say) aborts the transaction, and
/// a `Reconnected` loses it — a fresh session exists and the server
/// released the old one's locks; it is never retried in place, because
/// a lock request is not idempotent. Any other error ends the run.
fn settle<T>(
    result: Result<T, ClientError>,
    v: &mut Verdict,
    done: impl FnOnce(T, &mut Verdict),
) -> Result<(), ClientError> {
    match result {
        Ok(value) => done(value, v),
        Err(ClientError::Service(e)) => v.item(&Err(e)),
        Err(ClientError::Reconnected) => v.lost(),
        Err(e) => return Err(e),
    }
    Ok(())
}

/// Wait until the server's pool has no used lock slot left, then run
/// its accounting audit, which must find nothing charged either. Call
/// it once every client is gone: a dead connection's locks are
/// released when the server notices it, and slot caches flush on
/// tuning intervals, so the drain is polled for up to `within`. Reads
/// are idempotent, so a `Reconnected` is retried. The polls ask for no
/// ticks and no journal events, so the drain never takes an event
/// another scraper is owed.
pub fn drain_and_validate(
    control: &mut ReconnectingClient,
    within: Duration,
) -> Result<ValidateReport, ClientError> {
    let deadline = Instant::now() + within;
    loop {
        match control.metrics(u64::MAX, 0) {
            Ok(s) if s.pool_slots_used == 0 => break,
            Ok(s) if Instant::now() >= deadline => {
                return Err(ClientError::Protocol(format!(
                    "{} lock slots still in use after the drain deadline",
                    s.pool_slots_used
                )))
            }
            Ok(_) => std::thread::sleep(Duration::from_millis(20)),
            Err(ClientError::Reconnected) if Instant::now() < deadline => {}
            Err(e) => return Err(e),
        }
    }
    let report = loop {
        match control.validate() {
            Err(ClientError::Reconnected) => continue,
            other => break other?,
        }
    };
    if report.charged_slots != 0 || report.pool_used_slots != 0 {
        return Err(ClientError::Protocol(format!(
            "audit found {} charged / {} used slots after the drain",
            report.charged_slots, report.pool_used_slots
        )));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use locktune_service::{ServiceError, TxnOutcome};

    fn settled(e: ClientError) -> Result<TxnOutcome, ClientError> {
        let mut v = Verdict::default();
        settle::<()>(Err(e), &mut v, |_, _| {})?;
        Ok(v.outcome())
    }

    #[test]
    fn a_reconnect_loses_the_transaction_and_a_refusal_aborts_it() {
        assert_eq!(
            settled(ClientError::Reconnected).ok(),
            Some(TxnOutcome::Lost)
        );
        let refused = ClientError::Service(ServiceError::DeadlockVictim);
        assert_eq!(settled(refused).ok(), Some(TxnOutcome::DeadlockVictim));
        assert!(settled(ClientError::Busy).is_err());
        assert!(settled(ClientError::Protocol("torn".into())).is_err());
    }
}
