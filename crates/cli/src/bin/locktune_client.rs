//! Remote load generator: drive the mixed OLTP/DSS stress workload
//! against a `locktune-server` over real sockets.
//!
//! ```text
//! locktune-client [--addr HOST:PORT] [--workers N] [--txns N]
//!                 [--tables N] [--rows N] [--oltp-rows N] [--dss-rows N]
//!                 [--dss-percent P] [--seed S] [--min-intervals N]
//!                 [--skip-kill] [--batch] [--scrape] [--chaos]
//!                 [--tenant ID] [--tenants N --tenant-mode MODE]
//!                 [--connections N [--duration-ms MS] [--rate R]
//!                  [--zipf-theta T] [--bench-out PATH]]
//! ```
//!
//! Each worker owns one connection and runs the shared transaction
//! loop over one `Mix` of OLTP transactions and DSS scans: pipelined,
//! or one `LockBatch` frame per transaction with `--batch`. A
//! lock-holding connection is then force-killed, and the server must
//! drain to zero slots and pass its accounting audit. `--scrape` also
//! audits the METRICS endpoint against what the workers saw. `--chaos`
//! runs reconnecting sessions against a `--fault-seed` server (no kill
//! phase; injected disconnects do that job). `--tenant ID` binds every
//! connection to one tenant; `--tenants N` runs the `noisy` (tenant 0
//! scans, the rest run OLTP) or `churn` (tenants created, loaded and
//! dropped mid-run) arc and checks the machine budget partition. The
//! driver is `locktune_cli::stress`; this binary prints its report and
//! exits nonzero unless it passed (or fewer than `--min-intervals`
//! tuning intervals ran, waiting up to 10 s for them).
//!
//! `--connections N` runs the open-loop scaling bench instead
//! (`locktune_cli::open_loop`): N nonblocking connections on one epoll
//! thread, bursts at a global `--rate` on Zipf(`--zipf-theta`)-ranked
//! connections, a drain and audit, and a JSON summary in
//! `--bench-out` (default `BENCH_net_scaling.json`). Offered load is
//! independent of N, so threaded-at-64 and evented-at-4096 runs are
//! directly comparable.

use std::sync::atomic::AtomicU64;

use locktune_cli::stress::{self, Config, TenantMode};
use locktune_cli::{fail, open_loop};

fn parse(args: impl IntoIterator<Item = String>) -> Result<Config, String> {
    let mut c = Config::default();
    c.flags().parse(args)?;
    c.mix(c.dss_percent).map_err(|e| e.to_string())?;
    if (c.tenant.is_some() || c.tenants > 0) && c.chaos {
        return Err(
            "--tenant/--tenants cannot combine with --chaos (reconnects lose the tenant \
                    binding; use the server-side chaos soak instead)"
                .into(),
        );
    }
    if c.tenant.is_some() && c.scrape {
        return Err(
            "--tenant cannot combine with --scrape (the unbound control connection \
                    scrapes a machine rollup with empty histograms)"
                .into(),
        );
    }
    if c.tenants == 1 && c.tenant_mode == TenantMode::Noisy {
        return Err("--tenant-mode noisy needs --tenants >= 2 (a neighbor to be noisy at)".into());
    }
    if c.connections > 0 {
        if c.chaos || c.tenant.is_some() || c.tenants > 0 {
            return Err("--connections cannot combine with --chaos/--tenant/--tenants".into());
        }
        if c.rate == 0 {
            return Err("--rate must be >= 1 bursts/second".into());
        }
        if !(c.zipf_theta.is_finite() && c.zipf_theta >= 0.0) {
            let theta = c.zipf_theta;
            return Err(format!(
                "--zipf-theta must be a finite number >= 0, got {theta}"
            ));
        }
    }
    Ok(c)
}

fn main() {
    let config = parse(std::env::args().skip(1)).unwrap_or_else(|e| fail("locktune-client", e, 1));
    if config.connections > 0 {
        if let Err(e) = open_loop::run(&config) {
            fail("locktune-client", e, 1);
        }
        return;
    }
    println!(
        "locktune-client: {} workers x {} txns against {}{}",
        config.workers,
        config.txns,
        config.addr,
        if config.chaos { " (chaos mode)" } else { "" }
    );
    let report =
        stress::run(&config, &AtomicU64::new(0)).unwrap_or_else(|e| fail("locktune-client", e, 1));
    print!("{report}");
    std::process::exit(if report.passed() { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(flags: &[&str]) -> Result<Config, String> {
        parse(flags.iter().map(|f| f.to_string()))
    }

    #[test]
    fn empty_key_spaces_are_usage_errors() {
        assert!(parsed(&["--rows", "0"]).unwrap_err().contains("row"));
        assert!(parsed(&["--tables", "0"]).unwrap_err().contains("table"));
        assert!(parsed(&["--dss-percent", "101"]).is_err());
        assert!(parsed(&[]).is_ok());
    }

    #[test]
    fn a_zipf_theta_the_sampler_cannot_take_is_a_usage_error() {
        for theta in ["nan", "inf", "-1"] {
            let err = parsed(&["--connections", "4", "--zipf-theta", theta]).unwrap_err();
            assert!(err.contains("--zipf-theta"), "{theta}: {err}");
        }
        assert!(parsed(&["--connections", "4", "--zipf-theta", "0"]).is_ok());
    }

    #[test]
    fn flash_is_not_a_tenant_mode() {
        assert!(parsed(&["--tenants", "2", "--tenant-mode", "flash"]).is_err());
        assert!(parsed(&["--tenants", "2", "--tenant-mode", "churn"]).is_ok());
        assert!(parsed(&["--tenants", "4294967297"]).is_err());
    }
}
