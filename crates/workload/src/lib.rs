#![warn(missing_docs)]

//! `locktune-workload` — synthetic OLTP and DSS workload generation.
//!
//! The paper's experiments run a combined TPC-C + TPC-H database: OLTP
//! clients issuing short transactions that lock tens of rows, plus a
//! reporting (DSS) query that locks hundreds of thousands. This crate
//! generates equivalent lock-request streams:
//!
//! * [`OltpSpec`] / [`ClientGenerator`] — a weighted transaction mix
//!   with exponential think times, log-normal lock footprints and
//!   Zipf-skewed row selection (hot rows create the contention that
//!   makes escalation catastrophic in Fig. 8);
//! * [`DssSpec`] — the §5.3 reporting query: a long scan acquiring row
//!   locks at a steady rate;
//! * [`Schedule`] — phase changes over simulated time (client ramps,
//!   step changes, DSS injection) used to script each figure;
//! * [`Mix`] — the same OLTP and DSS footprints as lock sets for the
//!   load generators of the live service, in-process, over the wire
//!   and routed.
//!
//! The simulator's plans use plain integer table/row ids and
//! durations, which `locktune-engine` maps onto the lock manager; a
//! [`Mix`] rolls lock-manager `(ResourceId, LockMode)` pairs directly.

pub mod client;
pub mod dss;
pub mod mix;
pub mod phase;
pub mod spec;
pub mod txn;

pub use client::ClientGenerator;
pub use dss::{DssPlan, DssSpec};
pub use mix::{Mix, MixError};
pub use phase::{PhaseChange, Schedule};
pub use spec::{OltpSpec, TxnProfile};
pub use txn::{LockStep, TxnPlan};
