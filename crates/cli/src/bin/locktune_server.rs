//! Serve a lock service over TCP.
//!
//! ```text
//! locktune-server [--addr HOST:PORT] [--shards N] [--tuning-ms MS]
//!                 [--deadlock-ms MS] [--timeout-ms MS] [--log-capacity N]
//!                 [--initial-kb KB] [--reply-queue N] [--max-conns N]
//!                 [--shed-threshold N] [--fault-seed SEED]
//!                 [--io-model threaded|evented] [--io-shards N]
//!                 [--write-hwm-kb KB]
//!                 [--tenants N] [--machine-mb MB] [--arbiter-ms MS]
//!                 [--quantum-kb KB] [--floor-kb KB] [--initial-grant-mb MB]
//! ```
//!
//! The default I/O core is the epoll shard core (`--io-shards`
//! event-loop threads multiplexing every connection; see `DESIGN.md`
//! §14), the one the perf ledger measures. `--io-model threaded` swaps
//! in the thread-per-connection core. `--write-hwm-kb` sets the
//! per-connection write-backlog high-water mark that arms the eviction
//! deadline in the evented core.
//!
//! Defaults mirror `ServiceConfig::fast(8)` — millisecond tuning so a
//! short remote stress burst sees live grow/shrink decisions.
//! `--fault-seed` arms the standard chaos profile (sporadic allocation
//! failures, torn/stalled/dropped reply frames, a couple of
//! background-thread panics) with the given deterministic seed; it
//! requires a binary built with `--features locktune-net/faults`.
//!
//! `--tenants N` (N >= 1) starts the multi-tenant backend instead: N
//! logical databases with ids `0..N`, each its own `LockService` and
//! tuner, under one `--machine-mb` budget split equally at startup
//! (`--initial-grant-mb` overrides the per-tenant grant — set it below
//! the equal split to leave free-pool headroom for tenants created
//! later, e.g. by the client's churn mode).
//! The cross-tenant arbiter wakes every `--arbiter-ms` and moves up to
//! `--quantum-kb` per pass from the lowest-benefit donor to the
//! highest-benefit recipient; `--arbiter-ms 0` disables it, which is
//! the static-equal-split baseline the noisy-neighbor A/B compares
//! against. Clients bind a connection to a tenant with the HELLO
//! frame (`locktune-client --tenant ID`).
//!
//! Exit codes: `1` usage, `2` invalid configuration, `3` thread-spawn
//! failure, `4` bind failure.

use locktune_cli::{fail, server};

fn main() {
    let mut config = server::Config::default();
    let parsed = config.flags().parse(std::env::args().skip(1));
    parsed.unwrap_or_else(|e| fail("locktune-server", e, 1));
    let node = server::start(&config).unwrap_or_else(|(e, code)| fail("locktune-server", e, code));
    print!("{node}");
    // Serve until killed; the server's threads do all the work.
    loop {
        std::thread::park();
    }
}
