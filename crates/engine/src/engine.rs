//! The discrete-event run loop.

use locktune_lockmgr::{
    AppId, DeadlockDetector, LockError, LockManager, LockManagerConfig, LockMode, LockOutcome,
    ResourceId, RowId, TableId,
};
use locktune_memalloc::{LockMemoryPool, PoolBackend, PoolConfig};
use locktune_memory::{DatabaseMemory, HeapKind, MemoryConfig, PerfHeap};
use locktune_metrics::{HistogramSnapshot, ThroughputWindow, TimeSeries};
use locktune_sim::{SimDuration, SimRng, SimTime, Simulator};
use locktune_workload::{ClientGenerator, DssSpec, OltpSpec, PhaseChange, Schedule};

use crate::client::{Client, ClientState};
use crate::policy::{HookCounters, Policy, PolicyHooks, PolicyRuntime, SilentHooks};
use crate::result::RunResult;

/// The policy callbacks for one lock-manager call. A macro, not a
/// method, so it borrows only the policy, memory and counter fields and
/// leaves `manager` free for the call.
macro_rules! hooks {
    ($engine:ident) => {
        PolicyHooks {
            policy: &mut $engine.policy,
            mem: &mut $engine.mem,
            counters: &mut $engine.counters,
            num_applications: $engine.num_apps,
            now: $engine.sim.now(),
        }
    };
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Database memory geometry.
    pub memory: MemoryConfig,
    /// Initial PMC heap sizes.
    pub heaps: Vec<PerfHeap>,
    /// Lock memory policy.
    pub policy: Policy,
    /// OLTP workload.
    pub oltp: OltpSpec,
    /// Maximum OLTP clients the run can activate.
    pub max_clients: u32,
    /// DSS (reporting query) client slots; each InjectDss phase change
    /// occupies a free slot, so several heavy consumers can run at once
    /// (the §5.3 "two or more heavy lock consumers" case).
    pub dss_slots: u32,
    /// STMM tuning interval (30 s in every paper experiment).
    pub tuning_interval: SimDuration,
    /// Deadlock detector period.
    pub deadlock_interval: SimDuration,
    /// Metrics sampling period.
    pub sample_interval: SimDuration,
    /// Throughput window width.
    pub throughput_window: SimDuration,
    /// Lock acquisitions per client step event (event batching; the
    /// average rate is preserved by stretching the inter-step delay).
    pub lock_batch: usize,
    /// Lock wait timeout (DB2's LOCKTIMEOUT): a client waiting longer
    /// abandons its transaction and retries. `None` waits forever
    /// (deadlocks are still broken by the detector).
    pub lock_timeout: Option<SimDuration>,
    /// Workload seed.
    pub seed: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            memory: MemoryConfig::default(),
            heaps: default_heaps(MemoryConfig::default().total_bytes),
            policy: Policy::SelfTuning(locktune_core::TunerParams::default()),
            oltp: OltpSpec::tpcc_like(),
            max_clients: 130,
            dss_slots: 2,
            tuning_interval: SimDuration::from_secs(30),
            deadlock_interval: SimDuration::from_secs(5),
            sample_interval: SimDuration::from_secs(1),
            throughput_window: SimDuration::from_secs(10),
            lock_batch: 32,
            lock_timeout: None,
            seed: 0xDB2,
        }
    }
}

/// A default PMC layout: most memory in the bufferpool, a generous
/// sort heap (the classic first donor), a small package cache.
pub fn default_heaps(total: u64) -> Vec<PerfHeap> {
    let bp = total * 70 / 100;
    let sort = total * 12 / 100;
    let pkg = total * 2 / 100;
    vec![
        PerfHeap::new(HeapKind::BufferPool, bp, total / 10, bp + total / 10),
        PerfHeap::new(HeapKind::SortHeap, sort, total / 100, sort / 2),
        PerfHeap::new(HeapKind::PackageCache, pkg, total / 200, pkg),
    ]
}

#[derive(Debug, Clone, Copy)]
enum Event {
    Wake {
        idx: usize,
        epoch: u64,
    },
    Step {
        idx: usize,
        epoch: u64,
    },
    Commit {
        idx: usize,
        epoch: u64,
    },
    WaitTimeout {
        idx: usize,
        epoch: u64,
        wait_seq: u64,
    },
    Tuning,
    DeadlockCheck,
    Sample,
    Phase(usize),
}

/// The simulator.
pub struct Engine {
    config: EngineConfig,
    schedule: Schedule,
    sim: Simulator<Event>,
    manager: LockManager,
    mem: DatabaseMemory,
    policy: PolicyRuntime,
    counters: HookCounters,
    clients: Vec<Client>,
    /// First DSS slot index; DSS slots occupy `dss_start..clients.len()`.
    dss_start: usize,
    num_apps: u64,
    rng: SimRng,
    detector: DeadlockDetector,
    // accumulators
    committed: u64,
    aborted: u64,
    oom_failures: u64,
    lock_timeouts: u64,
    // series
    lock_bytes: TimeSeries,
    lock_used_bytes: TimeSeries,
    lmoc_bytes: TimeSeries,
    escalations: TimeSeries,
    lock_waits: TimeSeries,
    app_percent: TimeSeries,
    clients_series: TimeSeries,
    throughput: Option<ThroughputWindow>,
    wait_times: HistogramSnapshot,
    txn_times: HistogramSnapshot,
}

impl Engine {
    /// Build an engine for a scenario.
    pub fn new(config: EngineConfig, schedule: Schedule) -> Self {
        config.oltp.validate().expect("valid OLTP spec");
        let initial_lock =
            PolicyRuntime::initial_lock_bytes(&config.policy, config.memory.total_bytes);
        let pool = LockMemoryPool::with_bytes(PoolConfig::default(), initial_lock);
        let actual_lock = pool.total_bytes();
        let manager = LockManager::new(pool, LockManagerConfig::default());
        let mem = DatabaseMemory::new(config.memory, config.heaps.clone(), actual_lock);
        let policy = PolicyRuntime::new(config.policy, actual_lock);

        let mut rng = SimRng::seed_from_u64(config.seed);
        let mut clients = Vec::with_capacity(config.max_clients as usize + 1);
        for i in 0..config.max_clients {
            let gen = ClientGenerator::new(config.oltp.clone(), rng.fork(i as u64));
            clients.push(Client::oltp(AppId(i), gen));
        }
        let dss_start = clients.len();
        for d in 0..config.dss_slots.max(1) {
            clients.push(Client::dss(AppId(config.max_clients + d)));
        }

        let mut sim = Simulator::new();
        // Static schedule events.
        for (i, &(t, _)) in schedule.changes().iter().enumerate() {
            sim.schedule_at(t, Event::Phase(i));
        }
        sim.schedule_in(config.tuning_interval, Event::Tuning);
        sim.schedule_in(config.deadlock_interval, Event::DeadlockCheck);
        sim.schedule_in(config.sample_interval, Event::Sample);

        let throughput = ThroughputWindow::new("throughput_tps", config.throughput_window);

        Engine {
            schedule,
            sim,
            manager,
            mem,
            policy,
            counters: HookCounters::default(),
            clients,
            dss_start,
            num_apps: 0,
            rng,
            detector: DeadlockDetector::new(),
            committed: 0,
            aborted: 0,
            oom_failures: 0,
            lock_timeouts: 0,
            lock_bytes: TimeSeries::new("lock_bytes"),
            lock_used_bytes: TimeSeries::new("lock_used_bytes"),
            lmoc_bytes: TimeSeries::new("lmoc_bytes"),
            escalations: TimeSeries::new("escalations_total"),
            lock_waits: TimeSeries::new("lock_waits_total"),
            app_percent: TimeSeries::new("lock_percent_per_application"),
            clients_series: TimeSeries::new("active_clients"),
            throughput: Some(throughput),
            wait_times: HistogramSnapshot::default(),
            txn_times: HistogramSnapshot::default(),
            config,
        }
    }

    /// Run to the schedule's end and collect results.
    pub fn run(mut self) -> RunResult {
        let end = self.schedule.end();
        self.sample(); // t = 0
        while let Some(ev) = self.sim.next() {
            if ev.at > end {
                break;
            }
            match ev.event {
                Event::Wake { idx, epoch } => self.handle_wake(idx, epoch),
                Event::Step { idx, epoch } => self.handle_step(idx, epoch),
                Event::Commit { idx, epoch } => self.handle_commit(idx, epoch),
                Event::WaitTimeout {
                    idx,
                    epoch,
                    wait_seq,
                } => self.handle_wait_timeout(idx, epoch, wait_seq),
                Event::Tuning => self.handle_tuning(),
                Event::DeadlockCheck => self.handle_deadlock_check(),
                Event::Sample => {
                    self.sample();
                    if self.sim.now() + self.config.sample_interval <= end {
                        self.sim
                            .schedule_in(self.config.sample_interval, Event::Sample);
                    }
                }
                Event::Phase(i) => self.handle_phase(i),
            }
        }
        self.finish(end)
    }

    // ------------------------------------------------------------------
    // Client lifecycle
    // ------------------------------------------------------------------

    fn handle_wake(&mut self, idx: usize, epoch: u64) {
        let c = &mut self.clients[idx];
        if c.epoch != epoch || !c.active || c.is_dss {
            return;
        }
        let plan = c.generator.as_mut().expect("oltp client").next_txn();
        let think = plan.think_before;
        c.plan = Some(plan);
        c.state = ClientState::Thinking;
        let e = c.epoch;
        self.sim.schedule_in(think, Event::Step { idx, epoch: e });
    }

    fn handle_step(&mut self, idx: usize, epoch: u64) {
        {
            let c = &self.clients[idx];
            if c.epoch != epoch || c.plan.is_none() {
                return;
            }
        }
        let mut step = match self.clients[idx].state {
            ClientState::Thinking => {
                self.clients[idx].txn_start = Some(self.sim.now());
                0
            }
            ClientState::Executing { step } | ClientState::Waiting { step } => step,
            ClientState::Dormant => return,
        };
        self.clients[idx].state = ClientState::Executing { step };
        let app = self.clients[idx].app;
        let (len, gap, hold) = {
            let p = self.clients[idx].plan.as_ref().expect("plan checked");
            (p.steps.len(), p.step_gap, p.hold_after_last)
        };

        #[derive(PartialEq)]
        enum Exit {
            Committing,
            Waiting,
            Oom,
            BatchDone,
        }
        let mut acquired = 0usize;
        let exit;
        {
            let mut hooks = hooks!(self);
            loop {
                if step >= len {
                    exit = Exit::Committing;
                    break;
                }
                // Copy the step out so the plan borrow does not outlive
                // this iteration.
                let s = self.clients[idx].plan.as_ref().expect("plan").steps[step];
                let table_res = ResourceId::Table(TableId(s.table));
                let intent = if s.exclusive {
                    LockMode::IX
                } else {
                    LockMode::IS
                };
                match self.manager.lock(app, table_res, intent, &mut hooks) {
                    Ok(LockOutcome::Queued | LockOutcome::QueuedWithEscalation { .. }) => {
                        exit = Exit::Waiting;
                        break;
                    }
                    Ok(_) => {}
                    Err(LockError::OutOfLockMemory) => {
                        exit = Exit::Oom;
                        break;
                    }
                    Err(e) => unreachable!("intent lock failed: {e}"),
                }
                let row_res = ResourceId::Row(TableId(s.table), RowId(s.row));
                let mode = if s.exclusive {
                    LockMode::X
                } else {
                    LockMode::S
                };
                match self.manager.lock(app, row_res, mode, &mut hooks) {
                    Ok(LockOutcome::Queued | LockOutcome::QueuedWithEscalation { .. }) => {
                        exit = Exit::Waiting;
                        break;
                    }
                    Ok(_) => {
                        step += 1;
                        acquired += 1;
                        if acquired >= self.config.lock_batch {
                            exit = if step >= len {
                                Exit::Committing
                            } else {
                                Exit::BatchDone
                            };
                            break;
                        }
                    }
                    Err(LockError::OutOfLockMemory) => {
                        exit = Exit::Oom;
                        break;
                    }
                    Err(e) => unreachable!("row lock failed: {e}"),
                }
            }
        }

        let e = self.clients[idx].epoch;
        match exit {
            Exit::Committing => {
                self.clients[idx].state = ClientState::Executing { step };
                let delay = gap * acquired as u64 + hold;
                self.sim.schedule_in(delay, Event::Commit { idx, epoch: e });
            }
            Exit::BatchDone => {
                self.clients[idx].state = ClientState::Executing { step };
                self.sim
                    .schedule_in(gap * acquired as u64, Event::Step { idx, epoch: e });
            }
            Exit::Waiting => {
                let c = &mut self.clients[idx];
                c.state = ClientState::Waiting { step };
                c.waiting_since = Some(self.sim.now());
                c.wait_seq += 1;
                let (e, ws) = (c.epoch, c.wait_seq);
                if let Some(timeout) = self.config.lock_timeout {
                    self.sim.schedule_in(
                        timeout,
                        Event::WaitTimeout {
                            idx,
                            epoch: e,
                            wait_seq: ws,
                        },
                    );
                }
            }
            Exit::Oom => {
                self.fail_txn_oom(idx);
            }
        }
        self.dispatch_notifications();
    }

    fn handle_commit(&mut self, idx: usize, epoch: u64) {
        if self.clients[idx].epoch != epoch {
            return;
        }
        let app = self.clients[idx].app;
        self.manager.unlock_all(app, &mut hooks!(self));
        self.committed += 1;
        let now = self.sim.now();
        if let Some(w) = self.throughput.as_mut() {
            w.record(now);
        }
        let c = &mut self.clients[idx];
        if let Some(start) = c.txn_start.take() {
            self.txn_times
                .record(now.saturating_since(start).as_micros());
        }
        c.plan = None;
        if c.is_dss {
            c.reset();
            self.num_apps = self.num_apps.saturating_sub(1);
        } else if c.active {
            c.state = ClientState::Thinking;
            let e = c.epoch;
            self.sim
                .schedule_in(SimDuration::ZERO, Event::Wake { idx, epoch: e });
        } else {
            c.reset();
        }
        self.dispatch_notifications();
    }

    /// A lock wait exceeded LOCKTIMEOUT: abandon the transaction and
    /// retry after a backoff.
    fn handle_wait_timeout(&mut self, idx: usize, epoch: u64, wait_seq: u64) {
        let c = &self.clients[idx];
        if c.epoch != epoch || c.wait_seq != wait_seq {
            return; // that wait already ended
        }
        if !matches!(c.state, ClientState::Waiting { .. }) {
            return;
        }
        let app = c.app;
        self.manager.cancel_wait(app);
        self.manager.unlock_all(app, &mut hooks!(self));
        self.lock_timeouts += 1;
        let c = &mut self.clients[idx];
        let was_active = c.active && !c.is_dss;
        let was_dss = c.is_dss && c.plan.is_some();
        c.reset();
        if was_active {
            c.active = true;
            c.state = ClientState::Thinking;
            let e = c.epoch;
            self.sim
                .schedule_in(SimDuration::from_secs(1), Event::Wake { idx, epoch: e });
        } else if was_dss {
            self.num_apps = self.num_apps.saturating_sub(1);
        }
        self.dispatch_notifications();
    }

    /// A transaction died for lock memory: release and retry later.
    fn fail_txn_oom(&mut self, idx: usize) {
        let app = self.clients[idx].app;
        self.manager.unlock_all(app, &mut hooks!(self));
        self.oom_failures += 1;
        let c = &mut self.clients[idx];
        let was_active = c.active && !c.is_dss;
        c.reset();
        if was_active {
            c.active = true;
            c.state = ClientState::Thinking;
            let e = c.epoch;
            self.sim
                .schedule_in(SimDuration::from_secs(1), Event::Wake { idx, epoch: e });
        }
        self.dispatch_notifications();
    }

    /// Wake clients whose queued locks were granted.
    fn dispatch_notifications(&mut self) {
        let notices = self.manager.take_notifications();
        for n in notices {
            let idx = n.app.0 as usize;
            if idx >= self.clients.len() {
                continue;
            }
            let c = &mut self.clients[idx];
            if let ClientState::Waiting { step } = c.state {
                c.state = ClientState::Executing { step };
                if let Some(since) = c.waiting_since.take() {
                    self.wait_times
                        .record(self.sim.now().saturating_since(since).as_micros());
                }
                let e = c.epoch;
                self.sim
                    .schedule_in(SimDuration::ZERO, Event::Step { idx, epoch: e });
            }
        }
    }

    // ------------------------------------------------------------------
    // Periodic machinery
    // ------------------------------------------------------------------

    fn handle_tuning(&mut self) {
        let escalations = std::mem::take(&mut self.counters.escalations_since_interval);
        if let PolicyRuntime::SelfTuning(stmm) = &mut self.policy {
            let stats = self.manager.pool().stats();
            let manager = &mut self.manager;
            stmm.run_interval(
                &mut self.mem,
                &stats,
                self.num_apps,
                escalations,
                |target| manager.resize_pool_to_bytes(target, &mut SilentHooks),
            );
        }
        self.sim
            .schedule_in(self.config.tuning_interval, Event::Tuning);
    }

    fn handle_deadlock_check(&mut self) {
        let victims = self.detector.find_victims(&self.manager.wait_edges());
        for v in victims {
            let idx = v.app.0 as usize;
            self.manager.abort(v.app, &mut hooks!(self));
            self.aborted += 1;
            if idx < self.clients.len() {
                let c = &mut self.clients[idx];
                let was_active = c.active && !c.is_dss;
                let was_dss = c.is_dss && c.plan.is_some();
                c.reset();
                if was_active {
                    c.active = true;
                    c.state = ClientState::Thinking;
                    let e = c.epoch;
                    self.sim
                        .schedule_in(SimDuration::from_secs(1), Event::Wake { idx, epoch: e });
                } else if was_dss {
                    self.num_apps = self.num_apps.saturating_sub(1);
                }
            }
            self.dispatch_notifications();
        }
        self.sim
            .schedule_in(self.config.deadlock_interval, Event::DeadlockCheck);
    }

    fn handle_phase(&mut self, i: usize) {
        let (_, change) = self.schedule.changes()[i];
        match change {
            PhaseChange::SetClients(n) => self.set_clients(n),
            PhaseChange::InjectDss(spec) => self.inject_dss(spec),
        }
    }

    fn set_clients(&mut self, n: u32) {
        let n = n.min(self.config.max_clients) as usize;
        let mut active = 0u64;
        for idx in 0..self.dss_start {
            let should_be_active = idx < n;
            let c = &mut self.clients[idx];
            if should_be_active {
                active += 1;
                if !c.active {
                    c.active = true;
                    if !c.in_txn() {
                        c.reset();
                        c.active = true;
                        c.state = ClientState::Thinking;
                        let e = c.epoch;
                        self.sim
                            .schedule_in(SimDuration::ZERO, Event::Wake { idx, epoch: e });
                    }
                }
            } else if c.active {
                c.active = false;
                if !c.in_txn() {
                    c.reset();
                }
                // Mid-transaction clients finish and then go dormant.
            }
        }
        // Running DSS clients stay counted separately.
        let dss_running = self.clients[self.dss_start..]
            .iter()
            .filter(|c| c.plan.is_some())
            .count() as u64;
        self.num_apps = active + dss_running;
    }

    fn inject_dss(&mut self, spec: DssSpec) {
        let Some(idx) =
            (self.dss_start..self.clients.len()).find(|&i| self.clients[i].plan.is_none())
        else {
            // Every DSS slot busy: the injection is dropped (configure
            // more `dss_slots` for scenarios needing more).
            return;
        };
        let plan = spec.plan(&mut self.rng);
        let c = &mut self.clients[idx];
        c.reset();
        c.active = true;
        c.plan = Some(plan.txn);
        c.state = ClientState::Executing { step: 0 };
        let e = c.epoch;
        self.num_apps += 1;
        self.sim
            .schedule_in(SimDuration::ZERO, Event::Step { idx, epoch: e });
    }

    fn sample(&mut self) {
        let now = self.sim.now();
        let pool = self.manager.pool().usage();
        let used_bytes = pool.slots_used * self.manager.pool().config().lock_struct_bytes;
        self.lock_bytes.push(now, pool.bytes as f64);
        self.lock_used_bytes.push(now, used_bytes as f64);
        self.lmoc_bytes.push(now, self.policy.lmoc(&pool) as f64);
        let stats = self.manager.stats();
        self.escalations.push(now, stats.escalations as f64);
        self.lock_waits.push(now, stats.waits as f64);
        self.app_percent.push(now, self.policy.app_percent(&pool));
        self.clients_series.push(now, self.num_apps as f64);
        if let Some(w) = self.throughput.as_mut() {
            w.roll_to(now);
        }
    }

    fn finish(mut self, end: SimTime) -> RunResult {
        self.validate();
        self.sample();
        let throughput = self.throughput.take().expect("window present").finish(end);
        RunResult {
            policy_name: match self.policy {
                PolicyRuntime::SelfTuning(_) => "self-tuning",
                PolicyRuntime::Static(_) => "static",
                PolicyRuntime::SqlServer(_) => "sqlserver",
            },
            lock_bytes: self.lock_bytes,
            lock_used_bytes: self.lock_used_bytes,
            lmoc_bytes: self.lmoc_bytes,
            throughput,
            escalations: self.escalations,
            lock_waits: self.lock_waits,
            app_percent: self.app_percent,
            clients: self.clients_series,
            escalation_events: self.counters.escalation_log,
            final_stats: *self.manager.stats(),
            committed: self.committed,
            aborted: self.aborted,
            oom_failures: self.oom_failures,
            lock_timeouts: self.lock_timeouts,
            wait_times: self.wait_times,
            txn_times: self.txn_times,
            duration: end,
        }
    }

    /// Validate every cross-structure invariant (tests).
    pub fn validate(&self) {
        self.manager.validate();
        self.mem.validate();
    }
}
