#![warn(missing_docs)]

//! Discrete-event simulation kernel for the `locktune` workspace.
//!
//! The experiments in the ICDE 2007 paper run for tens of simulated
//! minutes with a 30-second STMM tuning interval. Re-running them in
//! wall-clock time would be hopeless on a laptop, so every component in
//! this workspace is driven by a *simulated* clock. This crate provides
//! the three primitives everything else builds on:
//!
//! * [`SimTime`] / [`SimDuration`] — microsecond-resolution simulated
//!   timestamps with checked arithmetic,
//! * [`EventQueue`] and [`Simulator`] — a priority queue of timestamped
//!   events with FIFO tie-breaking, and a clock that advances to the
//!   next event,
//! * [`rng::SimRng`] and [`dist`] — a small, fully deterministic
//!   xoshiro256** PRNG plus the distributions the workload generators
//!   need (exponential think times, Zipf row access, etc.).
//!
//! Determinism is a hard requirement: a scenario run twice with the same
//! seed must produce byte-identical traces so experiments are
//! reproducible and property tests can shrink failures.

pub mod check;
pub mod clock;
pub mod dist;
pub mod event;
pub mod rng;

pub use clock::{SimDuration, SimTime};
pub use event::{EventQueue, ScheduledEvent, Simulator};
pub use rng::SimRng;
