#![warn(missing_docs)]

//! `locktune-net` — a network boundary for the concurrent lock
//! service.
//!
//! PR 1 made the paper's STMM-tuned lock subsystem a concurrent
//! in-process service; this crate puts it behind a socket, the shape
//! DB2 itself has (agents acting on behalf of remote connections).
//! Three layers, all `std::net` + threads — no async runtime, matching
//! the service crate's design:
//!
//! * [`wire`] — compact length-prefixed binary frames, one opcode per
//!   [`Request`] and [`Reply`] variant (the frame tables in `wire.rs`
//!   are the one opcode list: locks and batches, metrics,
//!   tenants, the cluster's wait graph, probes and epoch fencing),
//!   with explicit request-id correlation so clients can pipeline,
//!   and `encode_*_into`/`read_payload_into` twins so the hot path
//!   encodes and decodes without heap allocation;
//! * [`server`] — a TCP server owning a
//!   [`LockService`](locktune_service::LockService), with two I/O
//!   models behind [`ServerConfig::io_model`]: the **threaded** model
//!   gives each accepted connection a reader/writer thread pair over a
//!   blocking [`Session`](locktune_service::Session); the **evented**
//!   model ([`evented`], built on the hand-rolled epoll bindings in
//!   [`poll`]) multiplexes thousands of nonblocking connections onto N
//!   I/O shard threads with run-to-completion dispatch, vectored
//!   writes and eventfd grant wakeups. Either way, disconnect (EOF,
//!   protocol error, or a killed client) always releases the
//!   connection's locks;
//! * [`client`] — a synchronous client library with an explicit
//!   pipelining API, used by the `locktune-client` remote load
//!   generator and `locktune-top` dashboard binaries;
//! * [`reconnect`] — a self-healing client wrapper (exponential
//!   backoff with jitter, `Busy`-aware) with explicit
//!   session-lost semantics: a mid-operation disconnect surfaces as
//!   [`ClientError::Reconnected`] rather than a silent retry, because
//!   lock requests are not idempotent;
//! * [`txn`] — the wire back-ends of the shared transaction loop
//!   ([`locktune_service::txn`]) and the drain-then-validate audit
//!   every remote run ends with.
//!
//! The METRICS/0x08 request scrapes the service's `locktune-obs`
//! telemetry (histograms, journal events, tuning ticks) in one frame;
//! `locktune-top` renders it live and [`locktune_obs::prom::render`]
//! turns it into a Prometheus text page.

pub mod client;
pub mod evented;
pub mod poll;
pub mod reconnect;
pub mod server;
pub mod txn;
pub mod wire;

pub use client::{Client, ClientError};
pub use locktune_obs::MetricsSnapshot;
pub use locktune_service::BatchOutcome;
pub use locktune_tenants::{MachineRollup, TenantDonation, TenantRow};
pub use reconnect::{ReconnectConfig, ReconnectStats, ReconnectingClient};
pub use server::{IoModel, Server, ServerConfig};
pub use txn::{drain_and_validate, Batched, Pipelined};
pub use wire::{
    Reply, Request, TenantCtl, TenantStatsReply, ValidateReport, WaitGraphReply, WireError,
    GID_RESERVED, MAX_BATCH, MAX_WIRE_DONATIONS, MAX_WIRE_EDGES, MAX_WIRE_EVENTS, MAX_WIRE_GIDS,
    MAX_WIRE_IO_SHARDS, MAX_WIRE_TENANTS, MAX_WIRE_TICKS,
};
