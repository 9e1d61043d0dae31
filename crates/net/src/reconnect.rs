//! A self-healing wrapper around [`Client`]: automatic reconnect with
//! exponential backoff and jitter, plus **explicit session-lost
//! semantics**.
//!
//! Lock requests are not idempotent — when a connection dies mid-call
//! there is no way to know whether the server executed the request,
//! and every lock the old session held is released by the server's
//! disconnect teardown. A wrapper that silently retried would
//! therefore re-acquire *some* locks while the caller still believes
//! it holds its whole set. [`ReconnectingClient`] refuses to guess:
//! when an operation hits an I/O failure it re-establishes a fresh
//! session (backoff + jitter, honoring the server's [`Reply::Busy`]
//! admission refusals) and then fails the operation with
//! [`ClientError::Reconnected`], telling the caller to restart its
//! transaction from the top. Subsequent calls run normally on the new
//! session.
//!
//! [`Reply::Busy`]: crate::wire::Reply::Busy

use std::net::{SocketAddr, ToSocketAddrs};
use std::time::Duration;

use locktune_lockmgr::{LockMode, LockOutcome, ResourceId, UnlockReport};
use locktune_obs::MetricsSnapshot;
use locktune_service::{BatchOutcome, SpinStats, StopSignal};
use locktune_sim::SimRng;

use crate::client::{Client, ClientError};
use crate::wire::Request;

/// `delay` plus up to +50 % jitter drawn from `rng`, so a fleet of
/// clients (or breakers) that failed together does not retry in
/// lockstep. A zero delay draws nothing, so seeded runs replay.
pub fn jittered(delay: Duration, rng: &mut SimRng) -> Duration {
    let nanos = delay.as_nanos().min(u128::from(u64::MAX)) as u64;
    if nanos == 0 {
        return delay;
    }
    delay + Duration::from_nanos(rng.next_below(nanos / 2 + 1))
}

/// Reconnect policy for a [`ReconnectingClient`].
#[derive(Debug, Clone, Copy)]
pub struct ReconnectConfig {
    /// Connection attempts per (re)connect cycle before giving up and
    /// surfacing the last error.
    pub max_attempts: u32,
    /// Delay before the second attempt; doubles each further attempt.
    /// (The first attempt of a cycle is immediate.)
    pub base_delay: Duration,
    /// Ceiling on the exponential delay (jitter can exceed it by up to
    /// half).
    pub max_delay: Duration,
    /// Seed for the jitter generator, so a chaos run's retry timing is
    /// as reproducible as its fault schedule.
    pub seed: u64,
    /// Lifetime cap on connection attempts across **all** cycles.
    /// Reaching it makes the client terminally dead: the failing call
    /// and every call after it returns [`ClientError::GaveUp`]. The
    /// default (`u64::MAX`) keeps the classic retry-forever behavior;
    /// a cluster router sets a finite cap so one unreachable node
    /// degrades to an explicit node-down state instead of stalling
    /// every batch that routes through it.
    pub max_total_attempts: u64,
}

impl Default for ReconnectConfig {
    fn default() -> Self {
        ReconnectConfig {
            max_attempts: 8,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_secs(1),
            seed: 0,
            max_total_attempts: u64::MAX,
        }
    }
}

/// Counters a harness reads after a run to pair every disconnect with
/// its recovery.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReconnectStats {
    /// Successful mid-operation reconnects (each one also surfaced a
    /// [`ClientError::Reconnected`] to the caller).
    pub reconnects: u64,
    /// Attempts refused with [`ClientError::Busy`] (admission cap).
    pub busy_refusals: u64,
    /// Individual failed connection attempts, across all cycles.
    pub failed_attempts: u64,
    /// Every connection attempt made, successful or not — what
    /// [`ReconnectConfig::max_total_attempts`] is charged against,
    /// and the per-node health number a cluster router exposes.
    pub attempts: u64,
}

/// A [`Client`] that re-establishes its connection instead of staying
/// dead. See the module docs for the (deliberate) failure semantics.
pub struct ReconnectingClient {
    addr: SocketAddr,
    config: ReconnectConfig,
    client: Option<Client>,
    rng: SimRng,
    stats: ReconnectStats,
    /// Cluster-global transaction id to re-bind on every fresh
    /// session (set by [`ReconnectingClient::bind_gid`]).
    gid: Option<u64>,
    /// Partition-map epoch to re-bind on every fresh session (set by
    /// [`ReconnectingClient::bind_epoch`]).
    epoch: Option<u64>,
    /// Set when the lifetime attempt budget ran out; terminal.
    gave_up: bool,
    /// Cuts backoff sleeps short when raised.
    stop: StopSignal,
}

impl ReconnectingClient {
    /// Resolve `addr` and establish the first session (with the same
    /// backoff policy reconnects use).
    pub fn connect(
        addr: impl ToSocketAddrs,
        config: ReconnectConfig,
    ) -> Result<ReconnectingClient, ClientError> {
        Self::connect_with_stop(addr, config, StopSignal::new())
    }

    /// [`ReconnectingClient::connect`] with a caller-supplied
    /// [`StopSignal`], so even the *initial* connect cycle (which can
    /// spend the whole attempt budget backing off against a dead
    /// node) can be interrupted from another thread.
    fn connect_with_stop(
        addr: impl ToSocketAddrs,
        config: ReconnectConfig,
        stop: StopSignal,
    ) -> Result<ReconnectingClient, ClientError> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| ClientError::Io(std::io::Error::other("address resolved to nothing")))?;
        let mut c = ReconnectingClient {
            addr,
            config,
            client: None,
            rng: SimRng::seed_from_u64(config.seed),
            stats: ReconnectStats::default(),
            gid: None,
            epoch: None,
            gave_up: false,
            stop,
        };
        c.establish()?;
        Ok(c)
    }

    /// Raise the stop signal: any in-progress backoff sleep returns
    /// immediately and the interrupted cycle fails with an
    /// [`ErrorKind::Interrupted`](std::io::ErrorKind::Interrupted)
    /// I/O error.
    pub fn stop(&self) {
        self.stop.stop();
    }

    /// Recovery counters so far.
    pub fn stats(&self) -> ReconnectStats {
        self.stats
    }

    /// The live session's reply-wait counters
    /// ([`Client::reply_wait_stats`]); zero while disconnected, and
    /// starting over with every fresh session.
    pub fn reply_wait_stats(&self) -> SpinStats {
        self.client
            .as_ref()
            .map(Client::reply_wait_stats)
            .unwrap_or_default()
    }

    /// True while a session is established.
    pub fn is_connected(&self) -> bool {
        self.client.is_some()
    }

    /// Total connection attempts over the client's lifetime.
    pub fn attempts(&self) -> u64 {
        self.stats.attempts
    }

    /// True once the lifetime attempt budget is exhausted — every
    /// further call fails with [`ClientError::GaveUp`].
    pub fn gave_up(&self) -> bool {
        self.gave_up
    }

    /// Exponential delay for attempt `n` of a cycle, [`jittered`].
    fn backoff(&mut self, attempt: u32) -> Duration {
        let exp = self
            .config
            .base_delay
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.config.max_delay);
        jittered(exp, &mut self.rng)
    }

    /// One connect cycle: up to `max_attempts` tries with backoff. A
    /// TCP connect that succeeds is probed with a ping so a Busy
    /// refusal (accepted, then turned away at admission) counts as a
    /// failed attempt rather than a live session; a session with a
    /// bound gid re-binds it before the session counts as live, so no
    /// caller ever runs on a gid-less reconnected session.
    fn establish(&mut self) -> Result<(), ClientError> {
        if self.gave_up {
            return Err(ClientError::GaveUp {
                attempts: self.stats.attempts,
            });
        }
        self.client = None;
        let mut last = ClientError::Io(std::io::Error::other("no connection attempts made"));
        for attempt in 0..self.config.max_attempts.max(1) {
            if self.stats.attempts >= self.config.max_total_attempts {
                self.gave_up = true;
                return Err(ClientError::GaveUp {
                    attempts: self.stats.attempts,
                });
            }
            if attempt > 0 {
                let delay = self.backoff(attempt - 1);
                if self.stop.sleep(delay) {
                    return Err(stop_error());
                }
            } else if self.stop.is_stopped() {
                return Err(stop_error());
            }
            self.stats.attempts += 1;
            match Client::connect(self.addr) {
                Ok(mut client) => match self.probe(&mut client) {
                    Ok(()) => {
                        self.client = Some(client);
                        return Ok(());
                    }
                    Err(e) => {
                        if matches!(e, ClientError::Busy) {
                            self.stats.busy_refusals += 1;
                        }
                        last = e;
                    }
                },
                Err(e) => last = ClientError::Io(e),
            }
            self.stats.failed_attempts += 1;
        }
        Err(last)
    }

    /// Admission probe for a fresh connection: ping, then re-bind the
    /// remembered gid and epoch (if any), so no caller ever runs on a
    /// reconnected session that lost either binding.
    fn probe(&mut self, client: &mut Client) -> Result<(), ClientError> {
        client.ping(Vec::new())?;
        if let Some(gid) = self.gid {
            client.bind_gid(gid)?;
        }
        if let Some(epoch) = self.epoch {
            client.bind_epoch(epoch)?;
        }
        Ok(())
    }

    /// Run `op` on the live session. An I/O death (or a stray Busy —
    /// either way the connection is unusable) triggers a reconnect
    /// cycle; success of that cycle surfaces as
    /// [`ClientError::Reconnected`], its failure as the reconnect
    /// error. Service and protocol errors pass straight through — the
    /// connection is still good.
    fn run<T>(
        &mut self,
        op: impl FnOnce(&mut Client) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        if self.client.is_none() {
            // A previous cycle failed outright; this call starts on a
            // fresh session, so no Reconnected signal is needed.
            self.establish()?;
        }
        let client = self.client.as_mut().expect("established above");
        match op(client) {
            Ok(v) => Ok(v),
            Err(e @ (ClientError::Io(_) | ClientError::Busy)) => {
                self.client = None;
                match self.establish() {
                    Ok(()) => {
                        self.stats.reconnects += 1;
                        Err(ClientError::Reconnected)
                    }
                    // Terminal give-up outranks the triggering error:
                    // the caller must learn the client is dead, not
                    // just that one operation hit an I/O failure.
                    Err(gave_up @ ClientError::GaveUp { .. }) => Err(gave_up),
                    Err(_) => Err(e),
                }
            }
            Err(e) => Err(e),
        }
    }

    /// [`Client::lock`] with reconnect semantics.
    pub fn lock(&mut self, res: ResourceId, mode: LockMode) -> Result<LockOutcome, ClientError> {
        self.run(|c| c.lock(res, mode))
    }

    /// [`Client::lock_batch`] with reconnect semantics.
    pub fn lock_batch(
        &mut self,
        items: &[(ResourceId, LockMode)],
    ) -> Result<Vec<BatchOutcome>, ClientError> {
        self.run(|c| c.lock_batch(items))
    }

    /// [`Client::unlock`] with reconnect semantics.
    pub fn unlock(&mut self, res: ResourceId) -> Result<UnlockReport, ClientError> {
        self.run(|c| c.unlock(res))
    }

    /// [`Client::unlock_all`] with reconnect semantics.
    pub fn unlock_all(&mut self) -> Result<UnlockReport, ClientError> {
        self.run(|c| c.unlock_all())
    }

    /// [`Client::ping`] with reconnect semantics.
    pub fn ping(&mut self, echo: Vec<u8>) -> Result<Vec<u8>, ClientError> {
        self.run(|c| c.ping(echo))
    }

    /// [`Client::metrics`] with reconnect semantics.
    pub fn metrics(
        &mut self,
        reports_since: u64,
        max_events: u32,
    ) -> Result<MetricsSnapshot, ClientError> {
        self.run(|c| c.metrics(reports_since, max_events))
    }

    /// [`Client::validate`] with reconnect semantics.
    pub fn validate(&mut self) -> Result<crate::wire::ValidateReport, ClientError> {
        self.run(|c| c.validate())
    }

    /// Bind `gid` as this client's cluster-global transaction id, now
    /// and automatically on every future reconnect (a fresh session
    /// re-binds before any operation runs on it).
    pub fn bind_gid(&mut self, gid: u64) -> Result<(), ClientError> {
        self.gid = Some(gid);
        self.run(|c| c.bind_gid(gid))
    }

    /// Bind `epoch` as this client's partition-map epoch, now and
    /// automatically on every future reconnect — a session that dies
    /// and comes back can never silently run unfenced.
    pub fn bind_epoch(&mut self, epoch: u64) -> Result<(), ClientError> {
        self.epoch = Some(epoch);
        self.run(|c| c.bind_epoch(epoch))
    }

    /// [`Client::wait_graph`] with reconnect semantics.
    pub fn wait_graph(&mut self) -> Result<crate::wire::WaitGraphReply, ClientError> {
        self.run(|c| c.wait_graph())
    }

    /// [`Client::cancel_wait`] with reconnect semantics.
    pub fn cancel_wait(&mut self, app: u32) -> Result<bool, ClientError> {
        self.run(|c| c.cancel_wait(app))
    }

    /// Queue one `LockBatch` frame and flush it, without collecting
    /// the reply — the router's fan-out send phase. Collect with
    /// [`ReconnectingClient::wait_batch_outcomes`]. Reconnect
    /// semantics match every other operation.
    pub fn send_lock_batch(
        &mut self,
        items: &[(ResourceId, LockMode)],
    ) -> Result<u64, ClientError> {
        self.run(|c| {
            let id = c.send_lock_batch(items)?;
            c.flush()?;
            Ok(id)
        })
    }

    /// Collect a previously queued batch's outcomes by request id.
    pub fn wait_batch_outcomes(
        &mut self,
        id: u64,
        expected: usize,
    ) -> Result<Vec<BatchOutcome>, ClientError> {
        self.run(|c| c.wait_batch_outcomes(id, expected))
    }

    /// Queue one `UnlockAll` frame and flush it, without collecting
    /// the reply — the send phase of the router's all-node release.
    /// Collect with [`ReconnectingClient::wait_unlock_all`].
    pub fn send_unlock_all(&mut self) -> Result<u64, ClientError> {
        self.run(|c| {
            let id = c.send(&Request::UnlockAll)?;
            c.flush()?;
            Ok(id)
        })
    }

    /// Collect a previously queued `UnlockAll`'s report by request id.
    pub fn wait_unlock_all(&mut self, id: u64) -> Result<UnlockReport, ClientError> {
        self.run(|c| c.wait_unlock_all(id))
    }
}

fn stop_error() -> ClientError {
    ClientError::Io(std::io::Error::new(
        std::io::ErrorKind::Interrupted,
        "stop requested during connect backoff",
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    /// A stop raised mid-backoff interrupts the sleep immediately:
    /// against a dead address whose cycle would otherwise back off
    /// for many seconds, the connect call returns within a fraction
    /// of that.
    #[test]
    fn stop_interrupts_connect_backoff() {
        // Grab a port nothing listens on (bind, read the addr, drop):
        // connects fail fast with ECONNREFUSED, so the cycle's elapsed
        // time is all backoff sleep.
        let addr = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap()
        };
        let config = ReconnectConfig {
            max_attempts: 6,
            base_delay: Duration::from_secs(2),
            max_delay: Duration::from_secs(2),
            ..ReconnectConfig::default()
        };
        let stop = StopSignal::new();
        let stopper = stop.clone();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            stopper.stop();
        });
        let start = Instant::now();
        let err = match ReconnectingClient::connect_with_stop(addr, config, stop) {
            Err(e) => e,
            Ok(_) => panic!("connect to a dead port succeeded"),
        };
        t.join().unwrap();
        assert!(
            matches!(&err, ClientError::Io(e) if e.kind() == std::io::ErrorKind::Interrupted),
            "expected interrupted stop error, got {err}"
        );
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "stop did not interrupt the backoff sleep: took {:?}",
            start.elapsed()
        );
    }

    /// The jitter adds at most half the delay, and a zero delay draws
    /// nothing from the stream, so seeded runs replay.
    #[test]
    fn jitter_is_bounded_and_zero_draws_nothing() {
        let mut rng = SimRng::seed_from_u64(7);
        let d = Duration::from_millis(10);
        for _ in 0..1000 {
            let j = jittered(d, &mut rng);
            assert!(d <= j && j <= d + d / 2, "{j:?}");
        }
        let mut fresh = SimRng::seed_from_u64(7);
        let mut twin = fresh.clone();
        assert_eq!(jittered(Duration::ZERO, &mut fresh), Duration::ZERO);
        assert_eq!(fresh, twin);
        let expect = d + Duration::from_nanos(twin.next_below(5_000_001));
        assert_eq!(jittered(d, &mut fresh), expect);
    }

    /// A signal raised before the cycle starts fails fast without a
    /// single connection attempt.
    #[test]
    fn pre_raised_stop_fails_fast() {
        let addr = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap()
        };
        let stop = StopSignal::new();
        stop.stop();
        assert!(stop.is_stopped());
        let err =
            match ReconnectingClient::connect_with_stop(addr, ReconnectConfig::default(), stop) {
                Err(e) => e,
                Ok(_) => panic!("connect with a raised stop signal succeeded"),
            };
        assert!(
            matches!(&err, ClientError::Io(e) if e.kind() == std::io::ErrorKind::Interrupted),
            "expected interrupted stop error, got {err}"
        );
    }
}
