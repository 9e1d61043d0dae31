//! Resumable, non-parking batch lock acquisition.
//!
//! [`Session::lock_many_into`] parks the calling thread whenever a
//! request queues — correct for the threaded server (one reader thread
//! per connection has nothing better to do), fatal for an event loop
//! that multiplexes thousands of connections on one thread. The
//! [`BatchMachine`] here is the same algorithm unrolled into an
//! explicit state machine: [`BatchMachine::start`] runs the batch until
//! it completes or a request queues, and instead of parking it returns
//! [`Step::Waiting`]. The service then delivers the wait's resolution
//! as a [`SessionEvent`] through the session's [`EventSink`] (see
//! [`LockService::try_connect_with_sink`]), and the owning I/O shard
//! resumes the machine with [`BatchMachine::on_event`] — or, if the
//! wait's deadline passes first, [`BatchMachine::on_timeout`].
//!
//! Semantics are bit-for-bit those of `lock_many_into`: same shard
//! grouping, same latch passes, same per-request outcomes, same
//! session-fatal stop-and-skip behavior, same obs accounting (every
//! queued request records exactly one `lock_wait` sample when it
//! resolves, timeouts tick the timeout counter, `record_batch` fires
//! once per batch). A single `lock()` frame is a one-element batch
//! with batch recording suppressed.
//!
//! [`LockService::try_connect_with_sink`]: crate::service::LockService::try_connect_with_sink
//! [`EventSink`]: crate::service::EventSink

use std::time::Instant;

use locktune_lockmgr::{LockError, LockMode, LockOutcome, ResourceId};

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

/// The parked request the machine is blocked on.
struct WaitState {
    /// Index into the batch of the queued request.
    req_index: usize,
    /// The resource it queued on (its shard is where a timeout
    /// cancels the wait).
    res: ResourceId,
    /// When the wait began — the `lock_wait_micros` sample start.
    since: Instant,
    /// The `LOCKTIMEOUT` deadline, if configured.
    deadline: Option<Instant>,
}

/// Resumable twin of [`Session::lock_many_into`]; see the module docs.
///
/// One machine serves one connection for its lifetime: `start` resets
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
    waiting: Option<WaitState>,
}

impl BatchMachine {
    /// An idle machine.
    pub fn new() -> BatchMachine {
        BatchMachine::default()
    }

    /// Begin a new batch, discarding any previous state. Runs until
    /// the batch completes or a request queues.
    ///
    /// `record_batch` selects whether this counts as a batch in the
    /// obs layer (`false` for a single `Lock` frame driven through a
    /// one-element machine). `pending_abort` is the caller's stale
    /// deadlock-abort flag — an evented session's channel drain
    /// happens in the I/O shard, so the shard passes the verdict in
    /// rather than the machine draining a channel it does not own.
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
        if pending_abort {
            self.out[0] = BatchOutcome::Done(Err(ServiceError::DeadlockVictim));
            return Step::Done;
        }
        if session.inner.shed_active() {
            if OBS_ENABLED {
                session.inner.obs.record_shed_rejected();
            }
            self.out[0] = BatchOutcome::Done(Err(ServiceError::Overloaded {
                tenant: session.inner.config.tenant_id,
            }));
            return Step::Done;
        }

        // Partition by shard, groups in first-appearance order —
        // identical to `lock_many_into`.
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
        let Some(w) = self.waiting.take() else {
            // Defensive: an event with nothing parked (cannot happen —
            // grants and aborts are only sent to queued waiters) is
            // dropped rather than corrupting batch state.
            return Step::Done;
        };
        if OBS_ENABLED {
            session.inner.obs.record_wait(
                session.inner.shard_index(w.res),
                w.since.elapsed().as_micros() as u64,
            );
        }
        match event {
            SessionEvent::Granted => {
                self.out[w.req_index] = BatchOutcome::Done(Ok(LockOutcome::Granted));
                self.advance(session)
            }
            SessionEvent::Aborted => {
                self.out[w.req_index] = BatchOutcome::Done(Err(ServiceError::DeadlockVictim));
                self.finish_fatal()
            }
        }
    }

    /// The wait's deadline passed: withdraw from the queue, exactly as
    /// the threaded path's `recv_timeout` expiry does. A grant (or
    /// abort) may race the withdrawal — the cancel then finds nothing
    /// queued and the event is already in flight to the sink, so the
    /// machine stays `Waiting` (with no further deadline) until it
    /// arrives.
    pub fn on_timeout(&mut self, session: &Session) -> Step {
        let Some(w) = self.waiting.as_mut() else {
            return Step::Done;
        };
        let idx = session.inner.shard_index(w.res);
        if !session.on_shard(idx, false, |m, _| m.cancel_wait(session.app())) {
            w.deadline = None;
            return Step::Waiting { deadline: None };
        }
        let w = self.waiting.take().expect("checked above");
        if OBS_ENABLED {
            session.inner.obs.record_wait(
                session.inner.shard_index(w.res),
                w.since.elapsed().as_micros() as u64,
            );
            session.inner.obs.record_timeout();
        }
        self.out[w.req_index] = BatchOutcome::Done(Err(ServiceError::Timeout));
        self.finish_fatal()
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

    /// Run latch passes until the batch completes or a request queues.
    fn advance(&mut self, session: &Session) -> Step {
        while self.group_pos < self.order.len() {
            let shard_idx = self.order[self.group_pos];
            // Idempotent, so re-marking on every resume is harmless.
            session.mark_touched(shard_idx);
            let group_len = self.groups[shard_idx].len();
            while self.pos < group_len {
                // One latch pass: run requests until one queues (or
                // the group ends), delivering grant notices after the
                // latch drops — same as `lock_many_into`.
                let mut queued: Option<(usize, ResourceId)> = None;
                session.on_shard(shard_idx, true, |m, hooks| {
                    while self.pos < group_len {
                        let i = self.groups[shard_idx][self.pos];
                        let (res, mode) = self.reqs[i];
                        self.pos += 1;
                        match m.lock(session.app(), res, mode, hooks) {
                            Ok(LockOutcome::Queued | LockOutcome::QueuedWithEscalation { .. }) => {
                                queued = Some((i, res));
                                break;
                            }
                            Ok(o) => self.out[i] = BatchOutcome::Done(Ok(o)),
                            Err(e) => {
                                if e == LockError::OutOfLockMemory {
                                    session.inner.note_oom_denial();
                                }
                                self.out[i] = BatchOutcome::Done(Err(ServiceError::Lock(e)));
                            }
                        }
                    }
                });
                if let Some((i, res)) = queued {
                    let deadline = session
                        .inner
                        .config
                        .lock_wait_timeout
                        .map(|t| Instant::now() + t);
                    self.waiting = Some(WaitState {
                        req_index: i,
                        res,
                        since: Instant::now(),
                        deadline,
                    });
                    return Step::Waiting { deadline };
                }
            }
            self.pos = 0;
            self.group_pos += 1;
        }
        Step::Done
    }

    /// A session-fatal error ended the batch: everything not yet
    /// attempted stays `Skipped`.
    fn finish_fatal(&mut self) -> Step {
        self.waiting = None;
        self.group_pos = self.order.len();
        Step::Done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServiceConfig;
    use crate::service::LockService;
    use crossbeam::channel;
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

    fn sink() -> (
        crate::service::EventSink,
        channel::Receiver<(AppId, SessionEvent)>,
        Arc<AtomicU64>,
    ) {
        let (tx, rx) = channel::unbounded();
        let wakes = Arc::new(AtomicU64::new(0));
        let w = Arc::clone(&wakes);
        let sink = crate::service::EventSink::new(
            tx,
            Arc::new(move || {
                w.fetch_add(1, Ordering::Relaxed);
            }),
        );
        (sink, rx, wakes)
    }

    #[test]
    fn machine_matches_blocking_path_without_contention() {
        let svc = LockService::start(ServiceConfig::default()).unwrap();
        let (sink, _rx, _wakes) = sink();
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

        let (sink, rx, wakes) = sink();
        let s = svc.try_connect_with_sink(AppId(2), &sink).unwrap();
        let mut m = BatchMachine::new();
        let step = m.start(&s, &[(table(7), LockMode::S)], true, false);
        assert!(matches!(step, Step::Waiting { .. }));
        assert!(m.is_waiting());

        holder.unlock_all().unwrap();
        let (app, event) = rx.recv_timeout(Duration::from_secs(2)).unwrap();
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

        let (sink, rx, _wakes) = sink();
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
        assert!(rx.try_recv().is_err(), "no event after a clean cancel");
        drop(s);
        drop(holder);
        svc.shutdown();
    }

    #[test]
    fn machine_aborted_mid_wait_reports_victim() {
        let svc = LockService::start(ServiceConfig::default()).unwrap();
        let holder = svc.connect(AppId(1));
        holder.lock(table(5), LockMode::X).unwrap();

        let (sink, rx, _wakes) = sink();
        let s = svc.try_connect_with_sink(AppId(2), &sink).unwrap();
        let mut m = BatchMachine::new();
        assert!(matches!(
            m.start(&s, &[(table(5), LockMode::S)], true, false),
            Step::Waiting { .. }
        ));
        assert!(svc.cancel_waiter(AppId(2)));
        let (_, event) = rx.recv_timeout(Duration::from_secs(2)).unwrap();
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
