//! Trace validation: every hop in a routed path must traverse an actual
//! link of the previous node. This pins down the "routing uses only
//! node-local state" claim — a regression here would mean the simulator
//! teleported a message.

use lorm_repro::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

#[test]
fn chord_paths_follow_links() {
    let net = chord::Chord::build(512, chord::ChordConfig::default());
    let mut rng = SmallRng::seed_from_u64(0xED6E);
    for _ in 0..300 {
        let from = net.random_node(&mut rng).unwrap();
        let key: u64 = rng.gen();
        let route = net.route(from, key).unwrap();
        let mut cur = from;
        for &hop in &route.path {
            let node = net.node(cur).unwrap();
            let is_link = node.fingers().contains(&hop)
                || node.successor_list().contains(&hop)
                || node.predecessor() == Some(hop);
            assert!(is_link, "hop {cur} -> {hop} is not a link of {cur}");
            cur = hop;
        }
        assert_eq!(cur, route.terminal);
    }
}

#[test]
fn cycloid_paths_follow_links() {
    let net = Cycloid::build(2048, CycloidConfig::default());
    let mut rng = SmallRng::seed_from_u64(0xED6F);
    for _ in 0..300 {
        let from = net.random_node(&mut rng).unwrap();
        let key = CycloidId::new(rng.gen_range(0..8), rng.gen_range(0..256), 8);
        let route = net.route(from, key).unwrap();
        let mut cur = from;
        for &hop in &route.path {
            let node = net.node(cur).unwrap();
            let (op, os) = node.outside_leaf();
            let is_link = node.inside_pred() == Some(hop)
                || node.inside_succ() == Some(hop)
                || op == Some(hop)
                || os == Some(hop)
                || node.cubical_neighbor() == Some(hop)
                || node.cyclic_neighbors().contains(&Some(hop))
                || node.primary() == Some(hop);
            assert!(
                is_link,
                "hop {} -> {} is not a link",
                net.id_of(cur).unwrap(),
                net.id_of(hop).unwrap()
            );
            cur = hop;
        }
        assert_eq!(cur, route.terminal);
    }
}

#[test]
fn sparse_cycloid_paths_follow_links_too() {
    let net = Cycloid::build(300, CycloidConfig { dimension: 8, seed: 0x51 });
    let mut rng = SmallRng::seed_from_u64(0xED70);
    for _ in 0..300 {
        let from = net.random_node(&mut rng).unwrap();
        let key = CycloidId::new(rng.gen_range(0..8), rng.gen_range(0..256), 8);
        let route = net.route(from, key).unwrap();
        let mut cur = from;
        for &hop in &route.path {
            let node = net.node(cur).unwrap();
            let (op, os) = node.outside_leaf();
            let is_link = node.inside_pred() == Some(hop)
                || node.inside_succ() == Some(hop)
                || op == Some(hop)
                || os == Some(hop)
                || node.cubical_neighbor() == Some(hop)
                || node.cyclic_neighbors().contains(&Some(hop))
                || node.primary() == Some(hop);
            assert!(is_link, "sparse: non-link hop");
            cur = hop;
        }
    }
}

/// `route`, `route_stats` and each attempt of `route_with_retry` are one
/// `route_with` loop under three sinks. Under an inert plan all three —
/// and the bare [`FaultSink`] the inert check normally skips — must agree on `(hops, terminal, exact)` for every
/// `(live node, key)` pair, and the traced path must end at the terminal.
fn fronts_agree<O: Overlay>(net: &O, keys: &[O::Key]) {
    use dht_core::RouteStats;
    use dht_core::{route_with_retry, FaultAccount, FaultPlan, FaultSink, HopCount, MsgId};
    let plan = FaultPlan::new(0xFA57, 0.0, 0.0).unwrap();
    for &from in net.live_nodes() {
        for (i, &key) in keys.iter().enumerate() {
            let ctx = format!("{from} -> {key:?}");
            let traced = net.route(from, key).unwrap();
            let fast = net.route_stats(from, key).unwrap();
            let msg = MsgId::first(i as u64);
            let mut hops = HopCount::default();
            let (terminal, exact) =
                net.route_with(from, key, &mut FaultSink::new(&mut hops, &plan, msg)).unwrap();
            assert_eq!(
                RouteStats { hops: traced.hops(), terminal: traced.terminal, exact: traced.exact },
                fast,
                "{ctx}"
            );
            let retried =
                route_with_retry(net, from, key, &plan, msg.id, &mut FaultAccount::default());
            assert_eq!(retried.unwrap(), fast, "{ctx}");
            assert_eq!(RouteStats { hops: hops.get(), terminal, exact }, fast, "{ctx}");
            assert_eq!(traced.path.last().copied().unwrap_or(from), fast.terminal, "{ctx}");
            assert!(fast.hops <= net.route_budget(), "{ctx}");
        }
    }
}

#[test]
fn routing_fronts_agree_from_every_live_node_of_a_sparse_overlay() {
    let mut rng = SmallRng::seed_from_u64(0xED71);
    let ring = chord::Chord::build(150, chord::ChordConfig::default());
    let keys: Vec<u64> = (0..12).map(|_| rng.gen()).collect();
    fronts_agree(&ring, &keys);
    // 120 of 6·2^6 = 384 slots: most clusters are partly or wholly empty.
    let sparse = Cycloid::build(120, CycloidConfig { dimension: 6, seed: 0x52 });
    let keys: Vec<CycloidId> =
        (0..12).map(|_| CycloidId::new(rng.gen_range(0..6), rng.gen_range(0..64), 6)).collect();
    fronts_agree(&sparse, &keys);
}
