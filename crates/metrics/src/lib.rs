#![warn(missing_docs)]

//! `locktune-metrics` — time-series recording keyed by simulated time.
//!
//! The experiment harness samples the engine once per simulated second
//! (or per tuning interval) into [`TimeSeries`]; the figure printers
//! and CSV emitters in `locktune-bench` consume them. Everything is
//! plain data — no clocks, no I/O besides the explicit CSV writer — so
//! recording never perturbs the simulation.

pub mod atomic;
pub mod csv;
pub mod histogram;
pub mod series;
pub mod summary;
pub mod window;

pub use atomic::{raise_max, AtomicHistogram};
pub use csv::write_csv;
pub use histogram::{bucket_index, bucket_upper_edge, HistogramSnapshot, BUCKETS};
pub use series::TimeSeries;
pub use summary::{percentile, Summary};
pub use window::ThroughputWindow;
