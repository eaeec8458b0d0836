//! Edge cases of the Chord simulator: tiny rings, boundary keys,
//! degenerate configurations.

use chord::{Chord, ChordConfig};
use dht_core::Overlay;
use rand::rngs::SmallRng;
use rand::SeedableRng;

#[test]
fn two_node_ring_routes_both_ways() {
    let net = Chord::build(2, ChordConfig::default());
    let [a, b] = [net.nodes_by_id().at(0), net.nodes_by_id().at(1)];
    let ida = net.id_of(a).unwrap();
    let idb = net.id_of(b).unwrap();
    // each node owns the arc ending at itself
    assert_eq!(net.owner_of(ida).unwrap(), a);
    assert_eq!(net.owner_of(idb).unwrap(), b);
    assert_eq!(net.owner_of(ida.wrapping_add(1)).unwrap(), b);
    assert_eq!(net.owner_of(idb.wrapping_add(1)).unwrap(), a);
    // and routing agrees from both origins
    for from in [a, b] {
        for key in [ida, idb, ida.wrapping_add(1), idb.wrapping_add(1)] {
            let r = net.route(from, key).unwrap();
            assert!(r.exact);
            assert!(r.hops() <= 1, "a 2-ring resolves in at most one hop");
        }
    }
}

#[test]
fn two_node_ring_neighbors_point_at_each_other() {
    let net = Chord::build(2, ChordConfig::default());
    let [a, b] = [net.nodes_by_id().at(0), net.nodes_by_id().at(1)];
    assert_eq!(net.next_clockwise(a).unwrap(), b);
    assert_eq!(net.next_clockwise(b).unwrap(), a);
    assert_eq!(net.node(a).unwrap().predecessor(), Some(b));
    assert_eq!(net.node(b).unwrap().predecessor(), Some(a));
}

#[test]
fn boundary_keys_route_correctly() {
    let net = Chord::build(64, ChordConfig::default());
    let mut rng = SmallRng::seed_from_u64(1);
    for key in [0u64, 1, u64::MAX, u64::MAX - 1, u64::MAX / 2] {
        let from = net.random_node(&mut rng).unwrap();
        let r = net.route(from, key).unwrap();
        assert!(r.exact, "boundary key {key}");
    }
    // a node's own id and the id just after are owned by it and its
    // successor respectively
    for idx in net.nodes_by_id().iter().take(5) {
        let id = net.id_of(idx).unwrap();
        assert_eq!(net.owner_of(id).unwrap(), idx);
    }
}

#[test]
fn successor_list_lengths_follow_config() {
    for r in [1usize, 3, 7] {
        let net = Chord::build(32, ChordConfig { succ_list_len: r, seed: 9 });
        for idx in net.nodes_by_id().iter().take(8) {
            assert_eq!(net.node(idx).unwrap().successor_list().len(), r.min(31));
        }
    }
}

#[test]
fn succ_list_longer_than_ring_is_capped() {
    let net = Chord::build(3, ChordConfig { succ_list_len: 10, seed: 2 });
    for idx in net.nodes_by_id() {
        let sl = net.node(idx).unwrap().successor_list().len();
        assert!(sl <= 2, "successor list {sl} exceeds other-node count");
    }
}

#[test]
fn leave_of_last_but_one_keeps_singleton_sane() {
    let mut net = Chord::build(2, ChordConfig::default());
    let victim = net.nodes_by_id().at(0);
    net.leave(victim).unwrap();
    assert_eq!(net.len(), 1);
    let survivor = net.live_nodes().at(0);
    let r = net.route(survivor, 12345).unwrap();
    assert_eq!(r.terminal, survivor);
    assert_eq!(net.owner_of(0).unwrap(), survivor);
}

#[test]
fn stabilize_on_singleton_is_harmless() {
    let mut net = Chord::build(1, ChordConfig::default());
    let only = net.nodes_by_id().at(0);
    net.stabilize_all();
    assert!(net.node(only).unwrap().is_alive());
    assert_eq!(net.len(), 1);
}

#[test]
fn route_with_key_equal_to_origin_id() {
    let net = Chord::build(128, ChordConfig::default());
    for idx in net.nodes_by_id().iter().take(10) {
        let id = net.id_of(idx).unwrap();
        let r = net.route(idx, id).unwrap();
        assert_eq!(r.terminal, idx);
        assert_eq!(r.hops(), 0);
    }
}

#[test]
fn outlinks_count_excludes_self_and_dead() {
    let mut net = Chord::build(16, ChordConfig::default());
    let idx = net.nodes_by_id().at(3);
    let before = net.outlinks(idx).unwrap();
    // kill a neighbor: the distinct-live count can only stay or drop
    let succ = net.next_clockwise(idx).unwrap();
    net.fail(succ).unwrap();
    let after = net.outlinks(idx).unwrap();
    assert!(after < before, "dead neighbors must not be counted: {before} -> {after}");
}

#[test]
fn fingers_in_tiny_ring_all_point_at_the_other_node() {
    let net = Chord::build(2, ChordConfig::default());
    let a = net.nodes_by_id().at(0);
    let b = net.nodes_by_id().at(1);
    let fingers = net.node(a).unwrap().fingers();
    assert!(fingers.iter().all(|&f| f == a || f == b));
    assert_eq!(net.outlinks(a).unwrap(), 1);
}

#[test]
fn reserved_tombstones_grow_arena_but_not_ring() {
    let mut net = Chord::build(8, ChordConfig::default());
    let arena_before = net.arena_len();
    let t = net.reserve_tombstone();
    assert_eq!(net.arena_len(), arena_before + 1);
    assert_eq!(net.len(), 8, "ring population unchanged");
    assert!(!net.node(t).unwrap().is_alive());
    // routing still works and never lands on the tombstone
    let mut rng = SmallRng::seed_from_u64(0x70);
    for _ in 0..50 {
        let from = net.random_node(&mut rng).unwrap();
        let r = net.route(from, rand::Rng::gen(&mut rng)).unwrap();
        assert_ne!(r.terminal, t);
        assert!(r.exact);
    }
}

#[test]
fn successor_list_exhaustion_recovers_via_finger_fallback() {
    // Regression for the abrupt-failure path: kill every entry of one
    // node's successor list at once (the worst case a ChurnKind::Fail
    // burst can produce) and check stabilization falls back to the
    // finger table instead of erroring or re-bootstrapping.
    let mut net = Chord::build(128, ChordConfig::default());
    let idx = net.nodes_by_id().at(0);
    let succs = net.node(idx).unwrap().successor_list().to_vec();
    assert_eq!(succs.len(), 4, "default successor-list length");
    for &s in &succs {
        net.fail(s).unwrap();
    }
    // node-local view: the whole list is dead
    assert!(net.next_clockwise(idx).is_err(), "exhausted list must be visible");
    // one stabilization round adopts a live finger as the new successor
    net.stabilize(idx).unwrap();
    let repaired = net.next_clockwise(idx).unwrap();
    assert!(!succs.contains(&repaired), "repaired successor must be alive");
    // full maintenance rounds then restore exact routing from the
    // survivor. One round is not enough after four simultaneous deaths:
    // successor-list repair propagates one hop per round, so a burst of
    // length r takes ~r rounds to fully heal, as in the real protocol.
    for _ in 0..3 {
        net.stabilize_all();
    }
    let mut rng = SmallRng::seed_from_u64(0x5E);
    for _ in 0..40 {
        let r = net.route(idx, rand::Rng::gen(&mut rng)).unwrap();
        assert!(r.exact);
        assert!(!succs.contains(&r.terminal), "routed onto a failed node");
    }
}
