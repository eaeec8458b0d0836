//! Protocol-level integration tests: grow and shrink a Chord ring using
//! only the join/leave/stabilize protocol (no ground-truth bulk
//! construction) and check that routing invariants hold throughout.

use chord::{Chord, ChordConfig};
use dht_core::{Overlay, Summary};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn assert_all_lookups_exact(net: &Chord, rng: &mut SmallRng, lookups: usize) {
    for _ in 0..lookups {
        let from = net.random_node(rng).expect("live node");
        let key: u64 = rng.gen();
        let r = net.route(from, key).expect("route completes");
        assert!(r.exact, "lookup landed off the true owner");
    }
}

#[test]
fn ring_order_is_consistent_after_incremental_growth() {
    let mut net = Chord::build(1, ChordConfig::default());
    let boot = net.nodes_by_id().at(0);
    for _ in 0..60 {
        net.join(boot).unwrap();
    }
    net.stabilize_all();
    // following successors visits every node exactly once, in id order
    let ids = net.nodes_by_id().to_vec();
    let mut cur = ids[0];
    for expect in ids.iter().skip(1).chain(ids.iter().take(1)) {
        cur = net.next_clockwise(cur).unwrap();
        assert_eq!(cur, *expect);
    }
}

#[test]
fn alternating_join_leave_cycles_stay_consistent() {
    let mut net = Chord::build(20, ChordConfig::default());
    let mut rng = SmallRng::seed_from_u64(0x902);
    for round in 0..15 {
        let boot = net.random_node(&mut rng).unwrap();
        let joined = net.join(boot).unwrap();
        // leave someone who is not the one who just joined
        let victim = loop {
            let v = net.random_node(&mut rng).unwrap();
            if v != joined {
                break v;
            }
        };
        net.leave(victim).unwrap();
        net.stabilize_all();
        assert_eq!(net.len(), 20, "round {round}");
        assert_all_lookups_exact(&net, &mut rng, 40);
    }
}

#[test]
fn hop_count_stays_logarithmic_through_protocol_growth() {
    let mut net = Chord::build(1, ChordConfig::default());
    let boot = net.nodes_by_id().at(0);
    for i in 0..255 {
        net.join(boot).unwrap();
        if i % 16 == 15 {
            net.stabilize_all();
        }
    }
    net.stabilize_all();
    let mut rng = SmallRng::seed_from_u64(0x903);
    let mut s = Summary::new();
    for _ in 0..400 {
        let from = net.random_node(&mut rng).unwrap();
        let key: u64 = rng.gen();
        s.record(net.route(from, key).unwrap().hops() as f64);
    }
    // 256 nodes: expect ~4 hops, certainly below 8
    assert!(s.mean() < 8.0, "avg hops {}", s.mean());
}

#[test]
fn shrink_to_single_node_and_back() {
    let mut net = Chord::build(8, ChordConfig::default());
    let mut rng = SmallRng::seed_from_u64(0x904);
    while net.len() > 1 {
        let v = net.random_node(&mut rng).unwrap();
        net.leave(v).unwrap();
    }
    let survivor = net.live_nodes().at(0);
    let r = net.route(survivor, 42).unwrap();
    assert_eq!(r.terminal, survivor);
    // regrow
    for _ in 0..10 {
        net.join(survivor).unwrap();
    }
    net.stabilize_all();
    assert_eq!(net.len(), 11);
    assert_all_lookups_exact(&net, &mut rng, 50);
}

#[test]
fn abrupt_mass_failure_then_repair_restores_exactness() {
    let mut net = Chord::build(150, ChordConfig::default());
    let mut rng = SmallRng::seed_from_u64(0x905);
    for _ in 0..45 {
        // 30% abrupt loss
        let v = net.random_node(&mut rng).unwrap();
        let _ = net.fail(v);
    }
    // several protocol stabilization rounds
    for _ in 0..3 {
        net.stabilize_all();
    }
    assert_eq!(net.len(), 105);
    assert_all_lookups_exact(&net, &mut rng, 200);
}
