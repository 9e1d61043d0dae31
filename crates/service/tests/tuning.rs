//! The paper's rules between tuning intervals, seen from outside the
//! service.

use std::time::Duration;

use locktune_lockmgr::{AppId, LockMode, ResourceId, RowId, TableId};
use locktune_service::{LockService, ServiceConfig};

const MIB: u64 = 1024 * 1024;

/// §3.5: `lockPercentPerApplication` is recomputed "every time the lock
/// memory is resized", so a synchronous growth must move the cap the
/// sessions read, without waiting for a refresh tick or an interval.
#[test]
fn synchronous_growth_publishes_the_recomputed_cap() {
    let mut config = ServiceConfig {
        shards: 1,
        // Parked: no interval runs during the test.
        tuning_interval: Duration::from_secs(3600),
        ..ServiceConfig::default()
    };
    // maxLockMemory = 8 MiB, so a 2 MiB pool is a quarter of the way
    // up the MAXLOCKS curve.
    config.memory.total_bytes = 40 * MIB;
    // Only a resize recomputes: the session's first request is its one
    // refresh tick.
    config.params.app_percent_refresh_period = 1 << 40;
    let service = LockService::start(config).unwrap();
    let session = service.connect(AppId(1));
    session
        .lock(ResourceId::Table(TableId(0)), LockMode::IX)
        .unwrap();

    let start_bytes = service.pool_stats().bytes;
    let mut row = 0;
    while service.pool_stats().bytes == start_bytes {
        session
            .lock(ResourceId::Row(TableId(0), RowId(row)), LockMode::X)
            .unwrap();
        row += 1;
        assert!(row < 1_000_000, "the pool never grew");
    }
    let pct = service.app_percent();
    assert!(
        pct < 98.0,
        "the pool grew {start_bytes} -> {} bytes after {row} rows, yet the cap still reads {pct}",
        service.pool_stats().bytes
    );
    session.unlock_all().unwrap();
}
