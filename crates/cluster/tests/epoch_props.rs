//! Property tests for the epoch-versioned partition map.
//!
//! The failover safety argument leans on three map invariants — every
//! slot always has exactly one *serving* owner, a failure moves only
//! the failed node's slots, and ownership is a pure function of the
//! membership states (so rejoin restores the original map
//! bit-for-bit). Each is checked here over arbitrary cluster sizes
//! and arbitrary failure/rejoin histories.

use locktune_cluster::{EpochMap, NodeState};
use locktune_sim::check::{self as proptest, prelude::*};

/// An arbitrary membership state, biased toward Up so most generated
/// clusters have a quorum of survivors.
fn any_state() -> impl Strategy<Value = NodeState> {
    prop_oneof![
        3 => Just(NodeState::Up),
        1 => Just(NodeState::Suspect),
        1 => Just(NodeState::Down),
        1 => Just(NodeState::Rejoining),
    ]
}

fn addrs(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("127.0.0.1:{}", 9000 + i)).collect()
}

/// Build a map with the given states by walking transitions from the
/// all-Up initial map (the only constructor the production code has).
fn map_with_states(states: &[NodeState]) -> EpochMap {
    let mut map = EpochMap::new(addrs(states.len()));
    for (node, &state) in states.iter().enumerate() {
        if state != NodeState::Up {
            map = map.with_state(node, state);
        }
    }
    map
}

proptest! {
    /// Every slot is owned by exactly one node, and that node is
    /// serving — no orphaned slots, no slots parked on a Down or
    /// Rejoining node, at any reachable membership configuration.
    #[test]
    fn every_slot_owned_by_exactly_one_serving_node(
        states in proptest::collection::vec(any_state(), 1..12)
    ) {
        prop_assume!(states.iter().any(|s| s.serving()));
        let map = map_with_states(&states);
        let owners = map.owners();
        prop_assert_eq!(owners.len(), states.len());
        for (slot, &owner) in owners.iter().enumerate() {
            prop_assert!(owner < states.len(), "slot {} owner out of range", slot);
            prop_assert!(
                map.states[owner].serving(),
                "slot {} owned by non-serving node {}",
                slot,
                owner
            );
            // owner_of_slot is a function: asking twice agrees.
            prop_assert_eq!(map.owner_of_slot(slot), owner);
        }
    }

    /// Declaring one node Down moves that node's slot (to a serving
    /// survivor) and no other — survivors keep their home slots.
    #[test]
    fn reassignment_moves_only_the_dead_nodes_slots(
        n in 2usize..12,
        dead in 0usize..12,
    ) {
        let dead = dead % n;
        let before = EpochMap::new(addrs(n));
        let after = before.with_state(dead, NodeState::Down);
        prop_assert_eq!(after.epoch, before.epoch + 1);
        let owners = after.owners();
        for (slot, &owner) in owners.iter().enumerate() {
            if slot == dead {
                prop_assert!(owner != dead, "dead node still owns its slot");
                prop_assert!(after.states[owner].serving());
            } else {
                prop_assert_eq!(owner, slot, "survivor slot {} moved", slot);
            }
        }
    }

    /// Ownership is history-independent: after an arbitrary walk of
    /// failures, suspicions, and rejoins, returning every node to Up
    /// restores the identity map bit-for-bit — same owners, same
    /// states, only the epoch remembers the journey.
    #[test]
    fn rejoin_restores_the_map_bit_for_bit(
        n in 1usize..10,
        walk in proptest::collection::vec((0usize..10, any_state()), 0..24)
    ) {
        let initial = EpochMap::new(addrs(n));
        let mut map = initial.clone();
        let mut steps = 0u64;
        for (node, state) in walk {
            map = map.with_state(node % n, state);
            steps += 1;
        }
        // Bring everyone home.
        for node in 0..n {
            if map.states[node] != NodeState::Up {
                map = map.with_state(node, NodeState::Up);
                steps += 1;
            }
        }
        prop_assert_eq!(map.epoch, initial.epoch + steps, "every derivation bumps by one");
        prop_assert_eq!(&map.states, &initial.states);
        prop_assert_eq!(map.owners(), initial.owners());
        prop_assert_eq!(&map.addrs, &initial.addrs);
    }

    /// Two maps with identical states agree on every owner even when
    /// they got there by different histories (the pure-function claim
    /// stated directly).
    #[test]
    fn ownership_is_pure_in_the_states(
        states in proptest::collection::vec(any_state(), 1..10),
        shuffle_seed in any::<u64>(),
    ) {
        prop_assume!(states.iter().any(|s| s.serving()));
        let a = map_with_states(&states);
        // Apply the same final states in a different (rotated) order,
        // with a detour through Down for one node, then back.
        let n = states.len();
        let rot = (shuffle_seed as usize) % n;
        let mut b = EpochMap::new(addrs(n));
        let detour = states
            .iter()
            .position(|s| s.serving())
            .expect("assumed a serving node");
        b = b.with_state(detour, NodeState::Down);
        for k in 0..n {
            let node = (k + rot) % n;
            b = b.with_state(node, states[node]);
        }
        if b.states[detour] != states[detour] {
            b = b.with_state(detour, states[detour]);
        }
        prop_assert_eq!(a.owners(), b.owners());
    }
}
