#![warn(missing_docs)]

//! `locktune-memory` — the database shared memory set and the STMM
//! controller loop (paper §2.1, §3.3).
//!
//! DB2 9 partitions `databaseMemory` among heaps (bufferpools, sort,
//! package cache, lock memory) plus an *overflow* reserve that any heap
//! may consume on demand. The Self-Tuning Memory Manager (STMM)
//! rebalances the heaps at each tuning interval; this crate models:
//!
//! * [`DatabaseMemory`] — byte-exact accounting of heaps, lock memory,
//!   the overflow area and its goal, including the `LMO` (lock memory
//!   taken from overflow between intervals) that §3.2's `LMOmax`
//!   constrains;
//! * [`PerfHeap`] — a performance heap's size and demand, by which
//!   STMM ranks donors and recipients ("least needy" donates,
//!   "neediest" receives);
//! * [`Stmm`] — the per-interval controller that runs the
//!   `locktune-core` tuner, funds growth by shrinking donor heaps,
//!   distributes shrink proceeds, and restores the overflow goal; and,
//!   between intervals, the one copy of the paper's per-request rules
//!   (the `lockPercentPerApplication` recompute and synchronous growth)
//!   that the simulator and the service both call.

pub mod database;
pub mod heap;
pub mod stmm;

pub use database::{DatabaseMemory, MemoryConfig};
pub use heap::{HeapKind, PerfHeap};
pub use stmm::{IntervalReport, Stmm};
