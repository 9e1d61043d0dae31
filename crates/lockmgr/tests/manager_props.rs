//! Property-based stress of the lock manager: arbitrary interleavings
//! of lock/unlock/abort across many applications must preserve every
//! cross-structure invariant and never leak lock memory, over an owned
//! pool and over the shared pool the service runs.

use std::collections::BTreeMap;

use locktune_lockmgr::{
    AppId, DeadlockDetector, GrantNotice, LockError, LockManager, LockManagerConfig, LockMode,
    LockOutcome, ResourceId, RowId, TableId, TuningHooks,
};
use locktune_memalloc::{
    LockMemoryPool, PoolBackend, PoolConfig, PoolError, PoolUsage, SharedLockMemoryPool, SlotHandle,
};
use locktune_sim::check::{self as proptest, prelude::*};

#[derive(Debug, Clone)]
enum Op {
    LockRow {
        app: u32,
        table: u32,
        rowid: u64,
        exclusive: bool,
    },
    /// Lock rows `from..from + len` in order, as far as they are granted.
    Scan {
        app: u32,
        table: u32,
        from: u64,
        len: u64,
        exclusive: bool,
    },
    Commit {
        app: u32,
    },
    Abort {
        app: u32,
    },
    CancelWait {
        app: u32,
    },
    UnlockRow {
        app: u32,
        table: u32,
        rowid: u64,
    },
    DetectDeadlocks,
}

fn op_strategy(apps: u32, tables: u32, rows: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        8 => (0..apps, 0..tables, 0..rows, any::<bool>()).prop_map(
            |(app, table, rowid, exclusive)| Op::LockRow { app, table, rowid, exclusive }),
        1 => (0..apps, 0..tables, 0..SCAN_FROM, 64u64..160, any::<bool>()).prop_map(
            |(app, table, from, len, exclusive)| Op::Scan { app, table, from, len, exclusive }),
        2 => (0..apps).prop_map(|app| Op::Commit { app }),
        1 => (0..apps).prop_map(|app| Op::Abort { app }),
        1 => (0..apps).prop_map(|app| Op::CancelWait { app }),
        1 => (0..apps, 0..tables, 0..rows).prop_map(
            |(app, table, rowid)| Op::UnlockRow { app, table, rowid }),
        1 => Just(Op::DetectDeadlocks),
    ]
}

/// Growth policy with a hard cap, like the real tuner's bounds. Keeps
/// the escalations it is told about for the reference model.
struct CappedGrow {
    max_blocks: u64,
    escalations: Vec<(AppId, TableId, bool)>,
}

impl TuningHooks for CappedGrow {
    fn on_lock_request(&mut self, _: &PoolUsage) -> f64 {
        50.0
    }
    fn sync_growth(&mut self, wanted: u64, pool: &PoolUsage) -> u64 {
        let room = self.max_blocks.saturating_sub(pool.bytes / 512) * 512;
        wanted.min(room)
    }
    fn on_pool_resized(&mut self, _: &PoolUsage) {}
    fn on_escalation(&mut self, app: AppId, table: TableId, exclusive: bool) {
        self.escalations.push((app, table, exclusive));
    }
}

const APPS: u32 = 6;
const TABLES: u32 = 3;
const ROWS: u64 = 8;
/// Scans start below this row, so their ranges overlap each other and
/// the rows single locks take: a commit of 64 or more locks, which
/// sweeps the lock table, meets co-holders, waiters, conversions and
/// escalation tickets.
const SCAN_FROM: u64 = 48;

/// What the lock manager must be holding, worked out from nothing but
/// what it told its caller: request outcomes, grant notices and the
/// escalation hook. Value: granted mode and lock structures charged.
#[derive(Default)]
struct Model {
    held: BTreeMap<(AppId, ResourceId), (LockMode, u64)>,
    /// Queued request per blocked application: resource and the mode
    /// it will hold once granted (`None` for an escalation ticket,
    /// whose grant the escalation hook describes).
    pending: BTreeMap<AppId, (ResourceId, Option<LockMode>)>,
    first_holder_slots: u64,
}

impl Model {
    fn mode(&self, app: AppId, res: ResourceId) -> Option<LockMode> {
        self.held.get(&(app, res)).map(|&(mode, _)| mode)
    }

    /// Lock structures a new holder of `res` is charged right now.
    fn charge(&self, res: ResourceId) -> u64 {
        let nobody_holds = !self.held.keys().any(|&(_, r)| r == res);
        if nobody_holds {
            self.first_holder_slots
        } else {
            1
        }
    }

    /// `app` becomes a holder of `res` charged `charge` structures, or
    /// converts the holding it has.
    fn grant(&mut self, app: AppId, res: ResourceId, mode: LockMode, charge: u64) {
        let entry = self.held.entry((app, res)).or_insert((mode, charge));
        entry.0 = entry.0.supremum(mode);
    }

    fn queue(&mut self, app: AppId, res: ResourceId, mode: LockMode) {
        // A queued conversion waits for the supremum.
        let target = self.mode(app, res).map_or(mode, |held| held.supremum(mode));
        self.pending.insert(app, (res, Some(target)));
    }

    fn release_all(&mut self, app: AppId) {
        self.held.retain(|&(a, _), _| a != app);
        self.pending.remove(&app);
    }

    /// `app`'s rows on `table` collapsed into its table lock.
    fn escalate(&mut self, app: AppId, table: TableId, exclusive: bool) {
        self.held
            .retain(|&(a, r), _| !(a == app && r.is_row() && r.table() == table));
        let target = if exclusive { LockMode::X } else { LockMode::S };
        let entry = self.held.get_mut(&(app, ResourceId::Table(table)));
        let entry = entry.expect("intents are enforced, so the table lock exists");
        entry.0 = entry.0.supremum(target);
    }

    /// Fold in what one operation reported besides its own outcome.
    /// Escalations go first: they only release rows, and a waiter is
    /// granted only once every incompatible holder is gone, so no
    /// notice of the same operation can depend on a row they drop —
    /// except a row granted to the escalated application itself on the
    /// escalated table, where the two orders differ and only the
    /// manager knows which happened.
    fn absorb<P: PoolBackend>(
        &mut self,
        m: &LockManager<P>,
        hooks: &mut CappedGrow,
        notices: Vec<GrantNotice>,
    ) {
        let escalations = std::mem::take(&mut hooks.escalations);
        for &(app, table, exclusive) in &escalations {
            self.escalate(app, table, exclusive);
        }
        for n in notices {
            let (res, mode) = self
                .pending
                .remove(&n.app)
                .expect("a notice answers a queued request");
            assert_eq!(res, n.resource);
            assert_eq!(mode.is_none(), n.completed_escalation);
            let Some(mode) = mode else { continue };
            let escalated_since = escalations
                .iter()
                .any(|&(a, t, _)| (a, t) == (n.app, res.table()));
            if res.is_row() && escalated_since && m.held_mode(n.app, res).is_none() {
                continue;
            }
            self.grant(n.app, res, mode, self.charge(res));
        }
    }

    /// The manager holds exactly what the model says, and every
    /// per-application counter is the matching sum over the model.
    fn check<P: PoolBackend>(&self, m: &LockManager<P>) -> Result<(), TestCaseError> {
        for app in (0..APPS).map(AppId) {
            let mine = || self.held.iter().filter(move |(&(a, _), _)| a == app);
            for t in (0..TABLES).map(TableId) {
                let rows = (0..ROWS).map(|r| ResourceId::Row(t, RowId(r)));
                for res in rows.chain([ResourceId::Table(t)]) {
                    prop_assert_eq!(
                        m.held_mode(app, res),
                        self.mode(app, res),
                        "{} on {}",
                        app,
                        res
                    );
                }
                let on_table = || mine().filter(move |(&(_, r), _)| r.is_row() && r.table() == t);
                let holdings = m.app(app).map(|s| s.table_holdings(t)).unwrap_or_default();
                prop_assert_eq!(holdings.rows, on_table().count() as u64);
                prop_assert_eq!(
                    holdings.slots,
                    on_table().map(|(_, &(_, slots))| slots).sum::<u64>()
                );
                let writes = on_table()
                    .filter(|(_, &(mode, _))| mode == LockMode::X)
                    .count();
                prop_assert_eq!(holdings.write_rows, writes as u64);
            }
            let (held, slots) = m
                .app(app)
                .map_or((0, 0), |s| (s.held_count(), s.total_slots()));
            prop_assert_eq!(held, mine().count(), "{} held count", app);
            prop_assert_eq!(
                slots,
                mine().map(|(_, &(_, slots))| slots).sum::<u64>(),
                "{} slots",
                app
            );
        }
        Ok(())
    }
}

/// Drive `ops` through a manager over `pool`, checking it against the
/// reference model after every operation (and `after_op`, which sees the
/// manager then), then quiesce it: every application committed and
/// forgotten. Returns the manager for the caller's pool checks.
fn run_workload<P: PoolBackend>(
    pool: P,
    first_holder_slots: u32,
    max_blocks: u64,
    ops: Vec<Op>,
    mut after_op: impl FnMut(&LockManager<P>) -> Result<(), TestCaseError>,
) -> Result<LockManager<P>, TestCaseError> {
    let config = LockManagerConfig {
        first_holder_slots,
        ..LockManagerConfig::default()
    };
    let mut m = LockManager::new(pool, config);
    let mut hooks = CappedGrow {
        max_blocks,
        escalations: Vec::new(),
    };
    let detector = DeadlockDetector::new();
    let mut model = Model {
        first_holder_slots: first_holder_slots.into(),
        ..Model::default()
    };
    // One request: the manager's answer, folded into the model.
    let request = |m: &mut LockManager<P>,
                   hooks: &mut CappedGrow,
                   model: &mut Model,
                   app: AppId,
                   res: ResourceId,
                   mode: LockMode| {
        // The charge is settled by who holds `res` on arrival, even
        // if reclaiming memory for this request escalates them away.
        let charge = model.charge(res);
        let outcome = m.lock(app, res, mode, hooks);
        let notices = m.take_notifications();
        model.absorb(m, hooks, notices);
        match outcome {
            Ok(LockOutcome::Granted) => model.grant(app, res, mode, charge),
            Ok(LockOutcome::GrantedAfterEscalation { table, .. }) if table != res.table() => {
                model.grant(app, res, mode, charge)
            }
            Ok(LockOutcome::Queued) => model.queue(app, res, mode),
            Ok(LockOutcome::QueuedWithEscalation { table }) => {
                model.pending.insert(app, (ResourceId::Table(table), None));
            }
            _ => {}
        }
        outcome
    };

    for op in ops {
        match op {
            Op::LockRow {
                app,
                table,
                rowid,
                exclusive,
            } => {
                let a = AppId(app);
                // Skip if this app is blocked (a client can only wait once).
                if m.app(a).map(|s| s.waiting_on().is_some()).unwrap_or(false) {
                    continue;
                }
                let t = TableId(table);
                let (tmode, rmode) = if exclusive {
                    (LockMode::IX, LockMode::X)
                } else {
                    (LockMode::IS, LockMode::S)
                };
                match request(
                    &mut m,
                    &mut hooks,
                    &mut model,
                    a,
                    ResourceId::Table(t),
                    tmode,
                ) {
                    Ok(LockOutcome::Queued | LockOutcome::QueuedWithEscalation { .. }) => continue,
                    Ok(_) => {}
                    Err(LockError::OutOfLockMemory) => continue,
                    Err(e) => return Err(TestCaseError::fail(format!("table lock: {e}"))),
                }
                let row = ResourceId::Row(t, RowId(rowid));
                match request(&mut m, &mut hooks, &mut model, a, row, rmode) {
                    Ok(_) => {}
                    Err(LockError::OutOfLockMemory) => {}
                    // The table intent may have queued above.
                    Err(LockError::MissingIntent(_)) => {}
                    Err(LockError::AlreadyWaiting(_)) => {}
                    Err(e) => return Err(TestCaseError::fail(format!("row lock: {e}"))),
                }
            }
            Op::Scan {
                app,
                table,
                from,
                len,
                exclusive,
            } => {
                let a = AppId(app);
                if m.app(a).map(|s| s.waiting_on().is_some()).unwrap_or(false) {
                    continue;
                }
                let t = TableId(table);
                let (tmode, rmode) = if exclusive {
                    (LockMode::IX, LockMode::X)
                } else {
                    (LockMode::IS, LockMode::S)
                };
                match request(
                    &mut m,
                    &mut hooks,
                    &mut model,
                    a,
                    ResourceId::Table(t),
                    tmode,
                ) {
                    Ok(LockOutcome::Queued | LockOutcome::QueuedWithEscalation { .. }) => continue,
                    Ok(_) => {}
                    Err(LockError::OutOfLockMemory) => continue,
                    Err(e) => return Err(TestCaseError::fail(format!("table lock: {e}"))),
                }
                for rowid in from..from + len {
                    let row = ResourceId::Row(t, RowId(rowid));
                    match request(&mut m, &mut hooks, &mut model, a, row, rmode) {
                        Ok(LockOutcome::Queued | LockOutcome::QueuedWithEscalation { .. }) => break,
                        Ok(_) => {}
                        Err(LockError::OutOfLockMemory) => break,
                        Err(e) => return Err(TestCaseError::fail(format!("scan: {e}"))),
                    }
                }
            }
            Op::Commit { app } => {
                let a = AppId(app);
                m.cancel_wait(a);
                m.unlock_all(a, &mut hooks);
                model.release_all(a);
            }
            Op::Abort { app } => {
                m.abort(AppId(app), &mut hooks);
                model.release_all(AppId(app));
            }
            Op::CancelWait { app } => {
                m.cancel_wait(AppId(app));
                model.pending.remove(&AppId(app));
            }
            Op::UnlockRow { app, table, rowid } => {
                let res = ResourceId::Row(TableId(table), RowId(rowid));
                let held = model.held.remove(&(AppId(app), res));
                match m.unlock(AppId(app), res, &mut hooks) {
                    Ok(report) => {
                        prop_assert_eq!(report.released_locks, 1);
                        prop_assert_eq!(Some(report.freed_slots), held.map(|(_, slots)| slots));
                    }
                    Err(e) => {
                        prop_assert_eq!(e, LockError::NotHeld(res));
                        prop_assert_eq!(held, None);
                    }
                }
            }
            Op::DetectDeadlocks => {
                for v in detector.find_victims(&m.wait_edges()) {
                    m.abort(v.app, &mut hooks);
                    model.release_all(v.app);
                    let notices = m.take_notifications();
                    model.absorb(&m, &mut hooks, notices);
                }
            }
        }
        m.validate();
        let notices = m.take_notifications();
        model.absorb(&m, &mut hooks, notices);
        model.check(&m)?;
        after_op(&m)?;
    }

    // Quiesce: resolve any residual deadlocks, then commit everyone.
    for v in detector.find_victims(&m.wait_edges()) {
        m.abort(v.app, &mut hooks);
    }
    for app in 0..6 {
        let a = AppId(app);
        m.cancel_wait(a);
        m.unlock_all(a, &mut hooks);
    }
    m.validate();
    prop_assert_eq!(m.charged_slots(), 0, "every holding released");
    prop_assert_eq!(m.locked_resources(), 0, "no stale lock heads");
    for app in 0..6 {
        m.forget_app(AppId(app));
    }
    prop_assert_eq!(m.known_apps(), 0, "no per-application state survives");
    Ok(m)
}

/// A second handle on the manager's shared pool, as another shard is:
/// between operations it takes a slot or gives its oldest back, so the
/// manager's runs and frees meet words this handle holds part of.
struct Neighbour {
    pool: SharedLockMemoryPool,
    held: Vec<SlotHandle>,
}

impl Neighbour {
    fn step(&mut self, take: bool) {
        if take && self.held.len() < 4 {
            match self.pool.allocate() {
                Ok(h) => self.held.push(h),
                Err(e) => assert_eq!(e, PoolError::Exhausted),
            }
        } else if !self.held.is_empty() {
            let h = self.held.remove(0);
            self.pool.free(h).expect("the neighbour's own slot");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Six applications over 24 rows put three and more holders on one
    /// head (past the inline holder); `first_holder_slots` 3 and 4 put
    /// a holding past its inline slots; the smaller growth caps (a pool of
    /// 24 slots at the low end) force MAXLOCKS escalation and
    /// reclaim-by-escalation, while the larger ones let a scan hold the
    /// 64 and more locks that make its commit sweep.
    #[test]
    fn random_workload_preserves_invariants(
        first_holder_slots in 2u32..5,
        max_blocks in prop_oneof![3u64..17, 64u64..160],
        ops in proptest::collection::vec(op_strategy(APPS, TABLES, ROWS), 1..300),
    ) {
        let pool = LockMemoryPool::with_bytes(PoolConfig::new(512, 64), 2 * 512);
        let m = run_workload(pool, first_holder_slots, max_blocks, ops, |_| Ok(()))?;
        prop_assert_eq!(m.pool().used_slots(), 0, "all lock memory returned");
    }

    /// The same workload over the shared pool the service instantiates,
    /// with a second handle taking and returning slots in between: the
    /// manager's frees land in its run, in its buffer and in whole-buffer
    /// pool trips, and its pairs meet words with one free slot. Slots are
    /// accounted exactly throughout — charged, parked in either cache, or
    /// held by the neighbour — and all come back at the end.
    #[test]
    fn random_workload_preserves_invariants_on_a_shared_pool(
        first_holder_slots in 2u32..5,
        max_blocks in prop_oneof![3u64..17, 64u64..160],
        ops in proptest::collection::vec(op_strategy(APPS, TABLES, ROWS), 1..300),
        takes in proptest::collection::vec(any::<bool>(), 1..64),
    ) {
        let pool = SharedLockMemoryPool::with_bytes(PoolConfig::new(512, 64), 2 * 512);
        let neighbour = std::cell::RefCell::new(Neighbour { pool: pool.clone(), held: Vec::new() });
        let mut step = 0;
        let m = run_workload(pool, first_holder_slots, max_blocks, ops, |m| {
            let mut n = neighbour.borrow_mut();
            n.step(takes[step % takes.len()]);
            step += 1;
            let parked = m.pool().cached_slots() + n.pool.cached_slots();
            let accounted = m.charged_slots() + (parked + n.held.len()) as u64;
            prop_assert_eq!(m.pool().used_slots(), accounted, "shared slot accounting");
            Ok(())
        })?;
        let mut n = neighbour.into_inner();
        for h in n.held.drain(..) {
            n.pool.free(h).expect("the neighbour's own slot");
        }
        drop(n);
        let mut m = m;
        m.flush_pool_cache();
        prop_assert_eq!(m.pool().used_slots(), 0, "all lock memory returned");
        m.validate();
    }

    /// Escalation equivalence: locking N rows one-by-one under a tight
    /// cap ends with the app holding exactly one table lock whose mode
    /// covers every row mode it requested.
    #[test]
    fn escalation_collapses_to_covering_table_lock(
        n_rows in 10u64..60,
        any_exclusive in any::<bool>(),
    ) {
        let pool = LockMemoryPool::with_bytes(PoolConfig::new(512, 64), 8 * 512);
        let mut m = LockManager::new(pool, LockManagerConfig::default());
        struct Tight;
        impl TuningHooks for Tight {
            fn on_lock_request(&mut self, _: &PoolUsage) -> f64 { 20.0 }
            fn sync_growth(&mut self, _: u64, _: &PoolUsage) -> u64 { 0 }
            fn on_pool_resized(&mut self, _: &PoolUsage) {}
        }
        let mut hooks = Tight;
        let a = AppId(1);
        let t = TableId(1);
        let (tmode, rmode) = if any_exclusive {
            (LockMode::IX, LockMode::X)
        } else {
            (LockMode::IS, LockMode::S)
        };
        m.lock(a, ResourceId::Table(t), tmode, &mut hooks).unwrap();
        let mut escalated = false;
        for r in 0..n_rows {
            match m.lock(a, ResourceId::Row(t, RowId(r)), rmode, &mut hooks) {
                Ok(LockOutcome::Granted) => {}
                Ok(LockOutcome::GrantedAfterEscalation { exclusive, .. }) => {
                    prop_assert_eq!(exclusive, any_exclusive);
                    escalated = true;
                }
                Ok(LockOutcome::CoveredByTableLock) => {
                    prop_assert!(escalated, "coverage only after escalation");
                }
                other => return Err(TestCaseError::fail(format!("unexpected {other:?}"))),
            }
            m.validate();
        }
        prop_assert!(escalated, "tight cap must escalate within {n_rows} rows");
        prop_assert_eq!(m.app(a).unwrap().held_count(), 1, "rows collapsed into the table lock");
        let table_mode = m.held_mode(a, ResourceId::Table(t)).unwrap();
        prop_assert!(table_mode.covers(rmode.escalation_table_mode()));
        m.unlock_all(a, &mut hooks);
        prop_assert_eq!(m.pool().used_slots(), 0);
    }
}
