//! The batch engine: resumable, non-parking batch lock acquisition.
//!
//! [`BatchMachine`] runs a batch of lock requests as an explicit state
//! machine. [`BatchMachine::start`] groups the requests by owning shard
//! and runs until the batch completes or a request queues; then,
//! instead of parking, it returns [`Step::Waiting`]. The wait's
//! resolution arrives as a [`SessionEvent`] on the session's
//! [`EventSink`], and the caller resumes the machine with
//! [`BatchMachine::on_event`] — or, if the wait's deadline passes
//! first, [`BatchMachine::on_timeout`].
//!
//! This is the only batch algorithm; its callers differ only in how
//! they wait. An evented I/O shard multiplexes thousands of parked
//! machines on one thread and resumes each when its event arrives (see
//! [`LockService::try_connect_with_sink`]). A blocking
//! [`Session::lock_many_into`] drives the session's own machine and
//! parks on the session's own sink between steps.
//!
//! Either way the obs accounting is the same: every queued request
//! records exactly one `lock_wait` sample when it resolves, a
//! `LOCKTIMEOUT` ticks the timeout counter, and `record_batch` fires
//! once per batch. A single `lock()` frame from the wire is a
//! one-element batch with batch recording suppressed.
//!
//! [`LockService::try_connect_with_sink`]: crate::service::LockService::try_connect_with_sink
//! [`EventSink`]: crate::service::EventSink

use std::time::Instant;

use locktune_lockmgr::{LockMode, LockOutcome, ResourceId};

use crate::service::{BatchOutcome, ServiceError, Session, SessionEvent, OBS_ENABLED};

/// What a [`BatchMachine`] call left the batch in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// The batch is complete; read the results with
    /// [`BatchMachine::outcomes`].
    Done,
    /// A request queued. The machine is parked until the service
    /// delivers a [`SessionEvent`] for this session (resume with
    /// [`BatchMachine::on_event`]) or `deadline` passes (resume with
    /// [`BatchMachine::on_timeout`]). `None` means no `LOCKTIMEOUT` is
    /// configured — wait indefinitely.
    Waiting {
        /// When the wait times out, if a timeout is configured.
        deadline: Option<Instant>,
    },
}

/// One queued request's wait, from the moment it queued until its
/// resolution. Every wait — a blocking `lock()`, either caller of a
/// batch — goes through `begin`, then `resolve` or `expire`, which are
/// the one home of the wait's obs accounting.
pub(crate) struct WaitState {
    /// The shard the request queued on (where a timeout cancels it).
    pub(crate) shard: usize,
    /// When the wait began — the `lock_wait_micros` sample start.
    since: Instant,
    /// The `LOCKTIMEOUT` deadline, if configured.
    pub(crate) deadline: Option<Instant>,
}

impl WaitState {
    /// A request on `shard` has just queued.
    pub(crate) fn begin(session: &Session, shard: usize) -> WaitState {
        let since = Instant::now();
        WaitState {
            shard,
            since,
            deadline: session.inner.config.lock_wait_timeout.map(|t| since + t),
        }
    }

    /// The wait resolved with `event`: the queued request's result.
    pub(crate) fn resolve(
        &self,
        session: &Session,
        event: SessionEvent,
    ) -> Result<LockOutcome, ServiceError> {
        self.record(session);
        match event {
            SessionEvent::Granted => Ok(LockOutcome::Granted),
            SessionEvent::Aborted => Err(ServiceError::DeadlockVictim),
        }
    }

    /// The deadline passed: withdraw the request from its queue and
    /// return the timeout. A grant (or abort) may race the withdrawal;
    /// the cancel then finds nothing queued and the event is already on
    /// its way to the sink, so this returns `None` and the wait goes on
    /// with no deadline until the event lands.
    pub(crate) fn expire(&mut self, session: &Session) -> Option<ServiceError> {
        if !session.on_shard(self.shard, false, |m, _| m.cancel_wait(session.app())) {
            self.deadline = None;
            return None;
        }
        self.record(session);
        if OBS_ENABLED {
            session.inner.obs.record_timeout();
        }
        Some(ServiceError::Timeout)
    }

    fn record(&self, session: &Session) {
        if OBS_ENABLED {
            session
                .inner
                .obs
                .record_wait(self.shard, self.since.elapsed().as_micros() as u64);
        }
    }
}

/// The batch engine; see the module docs.
///
/// One machine serves one session for its lifetime: `start` resets
/// all state and the internal buffers (request list, outcome slots,
/// shard groups) are reused across batches, so a warm machine
/// allocates nothing.
#[derive(Default)]
pub struct BatchMachine {
    reqs: Vec<(ResourceId, LockMode)>,
    out: Vec<BatchOutcome>,
    /// Request indices grouped by owning shard.
    groups: Vec<Vec<usize>>,
    /// Shard visit order (first appearance in the batch).
    order: Vec<usize>,
    /// Position in `order` of the group being executed.
    group_pos: usize,
    /// Position inside the current group.
    pos: usize,
    /// The parked request: its index in the batch, and its wait.
    waiting: Option<(usize, WaitState)>,
}

impl BatchMachine {
    /// An idle machine.
    pub fn new() -> BatchMachine {
        BatchMachine::default()
    }

    /// Begin a new batch, discarding any previous state. Runs until
    /// the batch completes or a request queues.
    ///
    /// Requests are partitioned by owning shard: groups run in order of
    /// first appearance, requests keep their order inside a group, and
    /// each group executes under one shard latch acquisition per run of
    /// requests that do not queue.
    ///
    /// `record_batch` selects whether this counts as a batch in the
    /// obs layer (`false` for a single `Lock` frame driven through a
    /// one-element machine). `pending_abort` is the caller's stale
    /// deadlock-abort flag — an evented session's events are drained by
    /// its I/O shard, so the caller passes the verdict in rather than
    /// the machine draining a sink it does not own.
    pub fn start(
        &mut self,
        session: &Session,
        reqs: &[(ResourceId, LockMode)],
        record_batch: bool,
        pending_abort: bool,
    ) -> Step {
        self.reqs.clear();
        self.reqs.extend_from_slice(reqs);
        self.out.clear();
        self.out.resize(reqs.len(), BatchOutcome::Skipped);
        self.order.clear();
        self.group_pos = 0;
        self.pos = 0;
        self.waiting = None;
        if reqs.is_empty() {
            return Step::Done;
        }
        if record_batch && OBS_ENABLED {
            session.inner.obs.record_batch(reqs.len() as u64);
        }
        // Rejected up front: the same shape a session-fatal error on
        // the first request produces, so callers already handle it.
        if let Err(e) = session.admit(pending_abort) {
            self.out[0] = BatchOutcome::Done(Err(e));
            return Step::Done;
        }

        let nshards = session.inner.shards.len();
        self.groups.resize(nshards, Vec::new());
        for g in &mut self.groups {
            g.clear();
        }
        for (i, (res, _)) in self.reqs.iter().enumerate() {
            let idx = session.inner.shard_index(*res);
            if self.groups[idx].is_empty() {
                self.order.push(idx);
            }
            self.groups[idx].push(i);
        }
        self.advance(session)
    }

    /// Resume a parked machine with the wait's resolution. Call only
    /// while the machine is [`Step::Waiting`] (the service only
    /// delivers events for a session that is actually queued, so a
    /// correctly-routed event always finds the machine parked).
    pub fn on_event(&mut self, session: &Session, event: SessionEvent) -> Step {
        let Some((i, w)) = self.waiting.take() else {
            // Defensive: an event with nothing parked (cannot happen —
            // grants and aborts are only sent to queued waiters) is
            // dropped rather than corrupting batch state.
            return Step::Done;
        };
        match w.resolve(session, event) {
            Ok(o) => {
                self.out[i] = BatchOutcome::Done(Ok(o));
                self.advance(session)
            }
            Err(e) => self.finish_fatal(i, e),
        }
    }

    /// The wait's deadline passed: withdraw from the queue. If a grant
    /// (or abort) raced the withdrawal, its event is already in flight
    /// to the sink and the machine stays `Waiting`, with no further
    /// deadline, until it arrives.
    pub fn on_timeout(&mut self, session: &Session) -> Step {
        let Some((i, w)) = self.waiting.as_mut() else {
            return Step::Done;
        };
        match w.expire(session) {
            None => Step::Waiting { deadline: None },
            Some(e) => {
                let i = *i;
                self.finish_fatal(i, e)
            }
        }
    }

    /// The completed batch's per-request results (valid after any call
    /// returns [`Step::Done`]; exactly as many entries as requests).
    pub fn outcomes(&self) -> &[BatchOutcome] {
        &self.out
    }

    /// Whether the machine is parked on a queued request.
    pub fn is_waiting(&self) -> bool {
        self.waiting.is_some()
    }

    /// The parked request's wait, if any.
    pub(crate) fn waiting(&self) -> Option<&WaitState> {
        self.waiting.as_ref().map(|(_, w)| w)
    }

    /// Run latch passes until the batch completes or a request queues.
    fn advance(&mut self, session: &Session) -> Step {
        while self.group_pos < self.order.len() {
            let shard_idx = self.order[self.group_pos];
            // Idempotent, so re-marking on every resume is harmless.
            session.mark_touched(shard_idx);
            let group_len = self.groups[shard_idx].len();
            while self.pos < group_len {
                // One latch pass: run requests until one queues (or
                // the group ends); the grant notices they produce are
                // delivered after the latch drops.
                let mut queued = None;
                session.on_shard(shard_idx, true, |m, hooks| {
                    while self.pos < group_len {
                        let i = self.groups[shard_idx][self.pos];
                        let (res, mode) = self.reqs[i];
                        self.pos += 1;
                        // Request-scoped errors are recorded and the
                        // batch goes on, like a pipelining client.
                        let result = m.lock(session.app(), res, mode, hooks);
                        match session.inner.settle(result) {
                            Some(result) => self.out[i] = BatchOutcome::Done(result),
                            None => {
                                queued = Some(i);
                                break;
                            }
                        }
                    }
                });
                if let Some(i) = queued {
                    let w = WaitState::begin(session, shard_idx);
                    let deadline = w.deadline;
                    self.waiting = Some((i, w));
                    return Step::Waiting { deadline };
                }
            }
            self.pos = 0;
            self.group_pos += 1;
        }
        Step::Done
    }

    /// Request `i` hit a session-fatal error: the batch ends, and
    /// everything not yet attempted stays `Skipped`.
    fn finish_fatal(&mut self, i: usize, e: ServiceError) -> Step {
        self.out[i] = BatchOutcome::Done(Err(e));
        self.waiting = None;
        self.group_pos = self.order.len();
        Step::Done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServiceConfig;
    use crate::service::EventSink;
    use crate::service::LockService;
    use locktune_lockmgr::{AppId, RowId, TableId};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    fn table(t: u32) -> ResourceId {
        ResourceId::Table(TableId(t))
    }

    fn row(t: u32, r: u64) -> ResourceId {
        ResourceId::Row(TableId(t), RowId(r))
    }

    /// A shared sink, as an I/O shard makes one, counting its wakes.
    fn sink() -> (EventSink, Arc<AtomicU64>) {
        let wakes = Arc::new(AtomicU64::new(0));
        let w = Arc::clone(&wakes);
        let sink = Arc::new(crate::Mailbox::with_wake(move || {
            w.fetch_add(1, Ordering::Relaxed);
        }));
        (sink, wakes)
    }

    /// The next event on `sink`, waiting up to two seconds for it.
    fn recv(sink: &EventSink) -> (AppId, SessionEvent) {
        sink.pop_until(Some(Instant::now() + Duration::from_secs(2)))
            .expect("an event within 2 s")
    }

    #[test]
    fn machine_matches_blocking_path_without_contention() {
        let svc = LockService::start(ServiceConfig::default()).unwrap();
        let (sink, _wakes) = sink();
        let s = svc.try_connect_with_sink(AppId(1), &sink).unwrap();
        let reqs = vec![
            (table(1), LockMode::IX),
            (row(1, 10), LockMode::X),
            (table(2), LockMode::IS),
            (row(2, 20), LockMode::S),
        ];
        let mut m = BatchMachine::new();
        assert_eq!(m.start(&s, &reqs, true, false), Step::Done);
        assert!(m.outcomes().iter().all(|o| o.is_granted()));
        let released = s.unlock_all().unwrap();
        assert_eq!(released.released_locks, 4);
        drop(s);
        svc.shutdown();
    }

    #[test]
    fn machine_parks_and_resumes_on_grant() {
        let svc = LockService::start(ServiceConfig::default()).unwrap();
        let holder = svc.connect(AppId(1));
        holder.lock(table(7), LockMode::X).unwrap();

        let (sink, wakes) = sink();
        let s = svc.try_connect_with_sink(AppId(2), &sink).unwrap();
        let mut m = BatchMachine::new();
        let step = m.start(&s, &[(table(7), LockMode::S)], true, false);
        assert!(matches!(step, Step::Waiting { .. }));
        assert!(m.is_waiting());

        holder.unlock_all().unwrap();
        let (app, event) = recv(&sink);
        assert_eq!(app, AppId(2));
        assert_eq!(event, SessionEvent::Granted);
        assert!(wakes.load(Ordering::Relaxed) >= 1);
        assert_eq!(m.on_event(&s, event), Step::Done);
        assert!(m.outcomes()[0].is_granted());
        s.unlock_all().unwrap();
        drop(s);
        drop(holder);
        svc.shutdown();
    }

    #[test]
    fn machine_timeout_cancels_the_wait_and_skips_the_tail() {
        let svc = LockService::start(ServiceConfig::default()).unwrap();
        let holder = svc.connect(AppId(1));
        holder.lock(table(3), LockMode::X).unwrap();

        let (sink, _wakes) = sink();
        let s = svc.try_connect_with_sink(AppId(2), &sink).unwrap();
        let mut m = BatchMachine::new();
        let reqs = vec![(table(3), LockMode::S), (table(4), LockMode::S)];
        assert!(matches!(
            m.start(&s, &reqs, true, false),
            Step::Waiting { .. }
        ));
        // The wait is still queued, so the cancel succeeds and the
        // batch ends with the tail skipped.
        assert_eq!(m.on_timeout(&s), Step::Done);
        assert_eq!(
            m.outcomes()[0],
            BatchOutcome::Done(Err(ServiceError::Timeout))
        );
        assert_eq!(m.outcomes()[1], BatchOutcome::Skipped);
        assert!(sink.try_pop().is_none(), "no event after a clean cancel");
        drop(s);
        drop(holder);
        svc.shutdown();
    }

    /// The deadline passes just after a grant: the cancel finds nothing
    /// queued, so the machine keeps waiting with no deadline and the
    /// grant already in the sink finishes the batch. Not a timeout, and
    /// still exactly one wait sample.
    #[test]
    fn machine_timeout_that_races_a_grant_waits_for_the_grant() {
        let svc = LockService::start(ServiceConfig::default()).unwrap();
        let holder = svc.connect(AppId(1));
        holder.lock(table(6), LockMode::X).unwrap();

        let (sink, _wakes) = sink();
        let s = svc.try_connect_with_sink(AppId(2), &sink).unwrap();
        let mut m = BatchMachine::new();
        assert!(matches!(
            m.start(&s, &[(table(6), LockMode::S)], true, false),
            Step::Waiting { .. }
        ));
        holder.unlock_all().unwrap();
        assert_eq!(m.on_timeout(&s), Step::Waiting { deadline: None });
        assert!(m.is_waiting());

        let (_, event) = recv(&sink);
        assert_eq!(event, SessionEvent::Granted);
        assert_eq!(m.on_event(&s, event), Step::Done);
        assert_eq!(
            m.outcomes()[0],
            BatchOutcome::Done(Ok(LockOutcome::Granted))
        );
        let snap = svc.observe(0, 0);
        assert_eq!(svc.obs_counters().timeouts, 0);
        if OBS_ENABLED {
            assert_eq!(snap.lock_stats.waits, 1);
            assert_eq!(snap.lock_wait_micros.count(), snap.lock_stats.waits);
        }
        drop(s);
        drop(holder);
        svc.shutdown();
    }

    #[test]
    fn machine_aborted_mid_wait_reports_victim() {
        let svc = LockService::start(ServiceConfig::default()).unwrap();
        let holder = svc.connect(AppId(1));
        holder.lock(table(5), LockMode::X).unwrap();

        let (sink, _wakes) = sink();
        let s = svc.try_connect_with_sink(AppId(2), &sink).unwrap();
        let mut m = BatchMachine::new();
        assert!(matches!(
            m.start(&s, &[(table(5), LockMode::S)], true, false),
            Step::Waiting { .. }
        ));
        assert!(svc.cancel_waiter(AppId(2)));
        let (_, event) = recv(&sink);
        assert_eq!(event, SessionEvent::Aborted);
        assert_eq!(m.on_event(&s, event), Step::Done);
        assert_eq!(
            m.outcomes()[0],
            BatchOutcome::Done(Err(ServiceError::DeadlockVictim))
        );
        drop(s);
        drop(holder);
        svc.shutdown();
    }
}
