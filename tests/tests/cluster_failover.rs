//! Cluster failover soak: the shared [`failover::drill`] under two
//! seeds and at the recovery bench's shape. The drill itself checks
//! that the first map showing the killed node Down routes its slot to
//! a serving survivor, and that every service drains and audits exact.
//! On top of that: live partitions keep committing while the node is
//! down and the dead one's items come back retryable `Unavailable`;
//! the respawn rejoins at a new port through Rejoining → Up to the
//! identity owners at a higher epoch; and the claims oracle sees no
//! exclusive row lock granted twice at once on serving nodes.

use std::time::Duration;

use locktune_cluster::NodeState;
use locktune_integration_tests::failover;
use locktune_service::txn::TxnOutcome;

fn run_failover(nodes: usize, workers: u64, seed: u64) {
    let r = failover::drill(nodes, workers, seed, Duration::from_millis(25));
    let killed = nodes - 1;
    let committed = r.tally.get(TxnOutcome::Committed);

    // The storm was felt and survived on every axis. 5 s to Down and 10 s
    // to rejoin are "this machine is having a day" margins over 25 ms probes.
    assert_eq!(r.double_grants, 0, "exclusive lock double-granted");
    assert!(committed > 0, "no transaction survived the storm");
    assert!(r.committed_degraded > 0, "no degraded-mode commits");
    assert!(r.tally.unavailable_items > 0, "no item unavailable");
    let (down, up) = (r.reassign, r.full_service);
    assert!(down.as_secs() < 5, "Down after {down:?}");
    assert!(up.as_secs() < 10, "rejoin after {up:?}");

    assert_ne!(
        r.final_map.addrs[killed], r.degraded_map.addrs[killed],
        "respawn reused the old port"
    );
    assert_eq!(r.final_map.owners(), (0..nodes).collect::<Vec<_>>());
    assert!(r.final_map.epoch > r.degraded_map.epoch);
    let arc: Vec<NodeState> = r
        .transitions
        .iter()
        .filter(|t| t.node == killed)
        .map(|t| t.state)
        .skip_while(|s| *s != NodeState::Down)
        .collect();
    assert!(
        arc.contains(&NodeState::Rejoining) && arc.last() == Some(&NodeState::Up),
        "no Down → Rejoining → Up arc: {arc:?}"
    );
}

#[test]
fn cluster_failover_seed_1() {
    run_failover(3, 4, 0xC1C1_0FFE);
}

#[test]
fn cluster_failover_seed_2() {
    run_failover(3, 4, 0xBADC_0DE5);
}

/// The shape `locktune-failover-bench` times.
#[test]
fn cluster_failover_bench_shape() {
    run_failover(4, 2, 42);
}
