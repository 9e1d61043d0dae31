#![warn(missing_docs)]

//! `locktune-lockmgr` — a multi-granularity database lock manager in
//! the style of DB2's (paper §2.2–2.3).
//!
//! Features reproduced:
//!
//! * **Modes & granularity**: `IS/IX/S/SIX/U/X` over tables and rows,
//!   with the standard compatibility matrix and conversion lattice.
//! * **Memory-resident lock objects**: every granted lock consumes lock
//!   structures from the [`locktune_memalloc::LockMemoryPool`] — two
//!   structures for the first holder of a resource (lock object +
//!   request block), one per additional holder, zero for conversions.
//! * **FIFO queuing ("post" method)**: incompatible requests queue in
//!   arrival order and are granted from the front when holders release;
//!   nobody jumps the queue (contrast the Oracle sleep-wake-check model
//!   the paper criticizes in §2.3).
//! * **Lock escalation**: triggered when an application exceeds its
//!   `lockPercentPerApplication` share of the pool, or when the pool is
//!   exhausted and synchronous growth is denied. Escalation replaces an
//!   application's row locks on its most-locked table with a single
//!   table lock.
//! * **Deadlock detection**: wait-for graph cycle search with
//!   youngest-victim selection.
//!
//! The manager is deterministic and single-threaded by design — the
//! discrete-event engine drives it, and the concurrent service puts
//! one behind each shard latch.

pub mod app;
pub mod deadlock;
pub mod error;
pub mod hash;
pub mod hooks;
pub mod manager;
pub mod mode;
pub mod partition;
pub mod resource;
pub mod stats;
pub mod table;

pub use app::{AppId, AppLockState};
pub use deadlock::{find_victims_in, DeadlockDetector, Victim};
pub use error::LockError;
pub use hooks::{NoTuning, TuningHooks};
pub use manager::{
    EscalationBias, GrantNotice, LockManager, LockManagerConfig, LockOutcome, UnlockReport,
};
pub use mode::LockMode;
pub use resource::{ResourceId, RowId, TableId};
pub use stats::LockStats;
