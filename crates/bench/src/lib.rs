//! `locktune-bench` — the experiment harness.
//!
//! [`experiments`] regenerates every table and figure from the paper's
//! evaluation (§4 worked example, §5.1–5.4 figures, Table 1) and the
//! design [`ablations`], and prints paper-vs-measured rows; the
//! `experiments` binary runs it and writes the CSVs.

pub mod ablations;
pub mod experiments;
pub mod fig6;
pub mod report;

pub use report::{Check, Report};
