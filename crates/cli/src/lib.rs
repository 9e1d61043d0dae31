//! The locktune binaries' shared parts: one flag parser ([`Flags`],
//! [`config!`]) and one driver per loopback arc, each returning a typed
//! report: [`server`] (`locktune-server`), [`stress`] and [`open_loop`]
//! (`locktune-client`) and [`storm`] (`locktune-cluster-client`). The
//! binaries are flag parsing plus `Display` of a report; the loopback
//! tests run the same drivers over in-process servers bound to port 0
//! and assert on the reports' fields.

mod flags;
pub mod open_loop;
pub mod server;
pub mod storm;
pub mod stress;

pub use flags::{fail, Flags};
