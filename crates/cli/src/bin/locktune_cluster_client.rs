//! Routed mixed-burst load generator for a partitioned cluster: the
//! storm of `locktune_cli::storm` (one routing client per worker, an
//! optional cross-node detector and failover supervisor), then a
//! drain-then-validate audit of every node. Exits nonzero when no
//! transaction committed, a reachable node fails its audit, or the
//! losses and unreachable nodes do not match `--expect-node-loss`
//! (under it each worker keeps going past `--txns` until it has seen
//! a loss, for up to 10 s, so a kill that lands late still counts).
//!
//! ```text
//! locktune-cluster-client --nodes 127.0.0.1:7654,127.0.0.1:7655,127.0.0.1:7656 \
//!     --workers 4 --txns 200 --pace-ms 2 --expect-node-loss
//! ```

use std::sync::atomic::AtomicU64;

use locktune_cli::fail;
use locktune_cli::storm::{self, Config};

const USAGE: &str = "usage: locktune-cluster-client --nodes HOST:PORT,HOST:PORT,... [options]
  --nodes A,B,...            node addresses; order defines the partition map (required)
  --workers N                concurrent routed clients (default 4)
  --txns N                   transactions per worker (default 200)
  --tables N                 table id space, spread over partitions by hash (default 64)
  --rows N                   row id space per table (default 256)
  --oltp-rows N              row X locks per table touched (default 4)
  --seed N                   workload seed (default 42)
  --pace-ms N                sleep between transactions, to stretch the storm (default 0)
  --detector-interval-ms N   edge-chasing interval; 0 disables the detector (default 25)
  --expect-node-loss         a node will be killed mid-storm: require explicit
                             session-loss/node-down events and tolerate one
                             unreachable node at audit time
  --supervise                run a failover supervisor: probe every node, fence
                             and reassign dead partitions, route workers by the
                             live epoch map with degraded batches (affected
                             sub-batches retry instead of failing the storm)
  --probe-interval-ms N      supervisor probe interval (default 50)";

fn parse(args: impl IntoIterator<Item = String>) -> Result<Config, String> {
    let mut c = Config::default();
    c.flags().help(USAGE).parse(args)?;
    if c.nodes.is_empty() {
        return Err("--nodes is required".into());
    }
    if c.workers == 0 || c.txns == 0 {
        return Err("--workers and --txns must be positive".into());
    }
    c.mix().map_err(|e| e.to_string())?;
    Ok(c)
}

fn main() {
    let config = parse(std::env::args().skip(1))
        .unwrap_or_else(|e| fail("locktune-cluster-client", format!("{e}\n{USAGE}"), 2));
    let report = storm::run(&config, &AtomicU64::new(0))
        .unwrap_or_else(|e| fail("locktune-cluster-client", e, 2));
    print!("{report}");
    std::process::exit(if report.failures().is_empty() { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_empty_key_space_is_a_usage_error() {
        let parsed = |flags: &[&str]| parse(flags.iter().map(|f| f.to_string()));
        assert!(parsed(&["--nodes", "a:1", "--rows", "0"]).is_err());
        assert!(parsed(&["--nodes", "a:1", "--tables", "0"]).is_err());
        assert!(parsed(&["--nodes", "a:1", "--tables", "4294967297"]).is_err());
        assert!(parsed(&["--nodes", "a:1"]).is_ok());
    }
}
