#![warn(missing_docs)]

//! `locktune-service` — a sharded, multi-threaded lock service with a
//! live STMM tuning thread (the paper's architecture made concurrent).
//!
//! Everything below `crates/service` in this workspace is
//! deterministic and single-threaded: the lock manager, the memory
//! pool and the tuner are driven by a discrete-event engine. This
//! crate assembles the same components into the shape the paper
//! actually describes — a database server where many agents hit the
//! lock subsystem at once while STMM tunes `locklist` from a
//! background thread:
//!
//! * [`LockService`] — N [`LockManager`] shards selected by **table**
//!   hash, each behind its own [`Latch`] (spin, yield, then block —
//!   see [`latch`]), all charging one
//!   [`SharedLockMemoryPool`];
//! * one **background thread** that runs two periodic jobs: the
//!   paper's tuner every `tuning_interval` (50 % free target, δ_reduce
//!   shrink, hysteresis, escalation-driven doubling) over the shared
//!   pool, and the deadlock sweep every `deadlock_interval`, unioning
//!   per-shard wait-for edges into the global graph;
//! * blocking [`Session`] handles that park on their own event sink
//!   until a grant or abort arrives, with `LOCKTIMEOUT` support,
//!   waiting through the shared spin-then-park policy in [`spin`];
//! * one single-consumer [`Mailbox`] for every hand-off between threads
//!   (session and I/O-shard events, the network server's queues), and
//!   one [`StopSignal`] for every loop that paces itself;
//! * one batch engine, [`step::BatchMachine`], which blocking sessions
//!   and the evented network core both drive;
//! * one transaction loop, [`txn`], that every load generator (in
//!   process, over the wire, routed) runs its OLTP + DSS mix through.
//!
//! [`LockManager`]: locktune_lockmgr::LockManager
//! [`SharedLockMemoryPool`]: locktune_memalloc::SharedLockMemoryPool

pub mod config;
pub mod latch;
pub mod mailbox;
pub mod service;
pub mod spin;
pub mod step;
pub mod stop;
mod tuning;
pub mod txn;

pub use config::{ConfigError, ServiceConfig};
pub use latch::Latch;
pub use locktune_faults::{FaultInjector, FaultPlan, FaultSite};
pub use mailbox::{CloseOnDrop, Mailbox};
pub use service::{
    BatchOutcome, EventSink, LockService, ServiceError, Session, SessionEvent, ThreadHealth,
    TuningCounters,
};
pub use spin::{SpinPark, SpinStats};
pub use step::{BatchMachine, Step};
pub use stop::StopSignal;
pub use txn::{run, run_txn, Tally, TxnBackend, TxnOutcome, Verdict};
