//! Edge cases of the Cycloid simulator: minimal dimensions, degenerate
//! clusters, capacity boundaries.

use cycloid::{Cycloid, CycloidConfig, CycloidId};
use dht_core::{DhtError, Overlay};
use rand::rngs::SmallRng;
use rand::SeedableRng;

#[test]
fn dimension_one_works() {
    // d = 1: two clusters of one slot each.
    let net = Cycloid::build(2, CycloidConfig { dimension: 1, seed: 1 });
    assert_eq!(net.capacity(), 2);
    assert_eq!(net.len(), 2);
    for cub in 0..2u32 {
        for cyc in 0..1u8 {
            let key = CycloidId::new(cyc, cub, 1);
            let owner = net.owner_of(key).unwrap();
            for idx in net.live_nodes() {
                let r = net.route(idx, key).unwrap();
                assert_eq!(r.terminal, owner);
            }
        }
    }
}

#[test]
fn dimension_two_full_population() {
    // d = 2: 4 clusters × 2 slots = 8 nodes.
    let net = Cycloid::build(8, CycloidConfig { dimension: 2, seed: 2 });
    let mut rng = SmallRng::seed_from_u64(3);
    for _ in 0..100 {
        let key = CycloidId::new(
            rand::Rng::gen_range(&mut rng, 0..2),
            rand::Rng::gen_range(&mut rng, 0..4),
            2,
        );
        let from = net.random_node(&mut rng).unwrap();
        assert!(net.route(from, key).unwrap().exact);
    }
}

#[test]
fn single_member_clusters_have_no_inside_ring() {
    let mut net = Cycloid::new(CycloidConfig { dimension: 5, seed: 4 });
    let a = net.join_with_id(CycloidId::new(2, 7, 5)).unwrap();
    let _b = net.join_with_id(CycloidId::new(0, 20, 5)).unwrap();
    assert!(net.cluster_successor(a).unwrap().is_none());
    assert!(net.node(a).unwrap().inside_pred().is_none());
    // but outside leafs connect the two clusters
    let (op, os) = net.node(a).unwrap().outside_leaf();
    assert!(op.is_some() && os.is_some());
}

#[test]
fn two_member_cluster_ring_is_mutual() {
    let mut net = Cycloid::new(CycloidConfig { dimension: 6, seed: 5 });
    let a = net.join_with_id(CycloidId::new(1, 9, 6)).unwrap();
    let b = net.join_with_id(CycloidId::new(4, 9, 6)).unwrap();
    assert_eq!(net.cluster_successor(a).unwrap(), Some(b));
    assert_eq!(net.cluster_successor(b).unwrap(), Some(a));
    assert_eq!(net.node(a).unwrap().inside_pred(), Some(b));
    assert_eq!(net.primary_of(9), Some(b), "cyclic 4 > cyclic 1");
}

#[test]
fn join_all_slots_then_one_more_fails() {
    let d = 3u8;
    let mut net = Cycloid::new(CycloidConfig { dimension: d, seed: 6 });
    for slot in 0..net.capacity() {
        net.join_with_id(CycloidId::from_slot(slot, d)).unwrap();
    }
    assert_eq!(net.len(), net.capacity());
    assert_eq!(net.join_random().unwrap_err(), DhtError::IdSpaceExhausted);
}

#[test]
fn out_of_range_ids_are_rejected() {
    let mut net = Cycloid::new(CycloidConfig { dimension: 4, seed: 7 });
    // cyclic index beyond d
    assert!(matches!(
        net.join_with_id(CycloidId { cyclic: 4, cubical: 0 }),
        Err(DhtError::InvalidParameter { .. })
    ));
    // cubical index beyond 2^d
    assert!(matches!(
        net.join_with_id(CycloidId { cyclic: 0, cubical: 16 }),
        Err(DhtError::InvalidParameter { .. })
    ));
}

#[test]
fn empty_overlay_has_no_owner() {
    let net = Cycloid::new(CycloidConfig { dimension: 4, seed: 8 });
    assert!(net.is_empty());
    assert!(net.owner_of(CycloidId::new(0, 0, 4)).is_err());
    assert!(net.occupied_clusters().is_empty());
}

#[test]
fn route_between_the_only_two_nodes() {
    let mut net = Cycloid::new(CycloidConfig { dimension: 8, seed: 9 });
    let a = net.join_with_id(CycloidId::new(0, 0, 8)).unwrap();
    let b = net.join_with_id(CycloidId::new(7, 255, 8)).unwrap();
    // every key resolves to one of the two, and routing agrees
    let mut rng = SmallRng::seed_from_u64(10);
    for _ in 0..60 {
        let key = CycloidId::new(
            rand::Rng::gen_range(&mut rng, 0..8),
            rand::Rng::gen_range(&mut rng, 0..256),
            8,
        );
        let owner = net.owner_of(key).unwrap();
        assert!(owner == a || owner == b);
        assert_eq!(net.route(a, key).unwrap().terminal, owner);
        assert_eq!(net.route(b, key).unwrap().terminal, owner);
    }
}

#[test]
fn leave_until_one_node_remains() {
    let mut net = Cycloid::build(40, CycloidConfig { dimension: 5, seed: 11 });
    let mut rng = SmallRng::seed_from_u64(12);
    while net.len() > 1 {
        let v = net.random_node(&mut rng).unwrap();
        net.leave(v).unwrap();
    }
    let survivor = net.live_nodes().at(0);
    let key = CycloidId::new(3, 17, 5);
    assert_eq!(net.owner_of(key).unwrap(), survivor);
    assert_eq!(net.route(survivor, key).unwrap().hops(), 0);
    // and the survivor has no dangling links
    assert_eq!(net.outlinks(survivor).unwrap(), 0);
}

#[test]
fn arena_len_grows_monotonically_and_survives_tombstones() {
    let mut net = Cycloid::build(10, CycloidConfig { dimension: 4, seed: 13 });
    let before = net.arena_len();
    let v = net.live_nodes().at(0);
    net.leave(v).unwrap();
    assert_eq!(net.arena_len(), before, "tombstoned slots are kept");
    let _ = net.join_random().unwrap();
    assert_eq!(net.arena_len(), before + 1, "new joins append");
}

#[test]
fn cluster_collapse_to_single_live_member_stays_routable() {
    // Regression for the abrupt-failure path: a ChurnKind::Fail burst
    // collapses one cluster down to a single live member. The inside
    // ring must vanish cleanly and every key of the cluster must still
    // resolve to the survivor from anywhere in the network.
    let d = 8u8;
    let mut net = Cycloid::build(2048, CycloidConfig { dimension: d, seed: 0xC0 });
    let cub = 7u32;
    let members = net.cluster_members(cub).to_vec();
    assert!(members.len() > 1, "need a populated cluster to collapse");
    let survivor = *members.last().unwrap();
    for &m in &members[..members.len() - 1] {
        net.fail(m).unwrap();
    }
    net.rebuild_all_links();
    // collapsed: no inside ring left around the survivor
    assert!(net.cluster_successor(survivor).unwrap().is_none());
    assert!(net.node(survivor).unwrap().inside_pred().is_none());
    assert_eq!(net.cluster_members(cub).to_vec(), [survivor]);
    // every key of the collapsed cluster resolves to the survivor
    let mut rng = SmallRng::seed_from_u64(0xC1);
    for cyc in 0..d {
        let key = CycloidId::new(cyc, cub, d);
        assert_eq!(net.owner_of(key).unwrap(), survivor, "cyc {cyc}");
        let from = net.random_node(&mut rng).unwrap();
        let r = net.route(from, key).unwrap();
        assert_eq!(r.terminal, survivor, "cyc {cyc}");
    }
}
