//! `locktune-perf` — the perf ledger: six closed-loop workloads, the
//! end-to-end metrics a client of the lock service would see, and
//! per-layer rows timed from outside. See `perf/README.md`.
//!
//! The library holds everything but argument parsing, so the
//! package's own integration test can read result files with the same
//! code that writes them.

pub mod alloc_count;
pub mod compare;
pub mod json;
pub mod micro;
pub mod procstat;
pub mod report;
pub mod run;
pub mod schema;
pub mod spans;
pub mod stats;
pub mod workloads;
