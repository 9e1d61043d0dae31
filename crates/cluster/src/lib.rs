#![warn(missing_docs)]

//! `locktune-cluster` — one lock service partitioned across M
//! `locktune-server` processes, with a routing client and cross-node
//! deadlock detection.
//!
//! DB2's lock list is a per-member resource: in a multi-member setup
//! every member owns its own lock memory and a data-sharing layer
//! stitches the members into one logical lock space. This crate is
//! that layer for locktune, built from pieces the repo already has:
//!
//! * **Static partitioning** — the table-hash space is sliced across
//!   nodes by [`locktune_lockmgr::partition::slot_of`], the *same*
//!   Fibonacci hash the in-process service uses to pick a shard. A
//!   row lock always routes to the node that owns its table, so the
//!   intent-lock protocol (IX on the table before X on the row) never
//!   spans nodes.
//! * **[`RoutingClient`]** ([`router`]) — fans a `lock_many` batch out
//!   by partition over per-node
//!   [`ReconnectingClient`](locktune_net::ReconnectingClient)s (all
//!   nodes execute in parallel), merges the per-node
//!   `BatchOutcomes` back into request order, and maps per-node
//!   session loss to explicit **cluster**-session-lost semantics:
//!   when any node's session dies, the locks on that node are already
//!   gone, so the router releases the survivors too and the caller
//!   restarts its transaction against a consistently empty state.
//!   [`txn`] runs the shared transaction loop through it, strict
//!   or under the degraded failover contract ([`Degraded`]).
//! * **[`ClusterDetector`]** ([`detector`]) — distributed
//!   edge-chasing. Each node exports its local wait-for edges plus
//!   its app→gid bindings over the `WaitGraph` wire frame; the
//!   detector unions them in gid space, finds cycles that span ≥ 2
//!   nodes (in-node cycles are the local sweeper's jurisdiction),
//!   picks the **highest gid** in each cycle — the identical policy
//!   [`find_victims_in`](locktune_lockmgr::find_victims_in) gives the
//!   single-node sweeper — and cancels the victim's waits through the
//!   server's confirm-then-abort `CancelWait` path, which is safe
//!   against grant races and stale snapshots by construction.
//!
//! Identity across nodes is the client-chosen **gid** (bound per
//! connection with `BindGid`, re-bound automatically on reconnect).
//! Apps that never bound one get a synthesized gid with the reserved
//! top bit ([`locktune_net::GID_RESERVED`]) so they still participate
//! in detection without colliding with client-chosen ids.

pub mod detector;
pub mod epoch;
pub mod router;
pub mod supervisor;
pub mod txn;

pub use detector::{
    plan_cancels, CancelPlan, ClusterDetector, DetectionReport, DetectorHandle, NodeGraph,
    VictimReport,
};
pub use epoch::{EpochMap, MapHandle, NodeState};
pub use router::{
    BreakerConfig, ClusterConfig, ClusterError, NodeHealth, RoutedOutcome, RoutingClient,
};
pub use supervisor::{ClusterSupervisor, SupervisorConfig, SupervisorHandle, Transition};
pub use txn::Degraded;
