//! Protocol-level integration tests for Cycloid: grow networks one join
//! at a time, churn them, and check the structural invariants the LORM
//! layer depends on (cluster rings, primaries, constant degree, exact
//! routing).

use cycloid::{Cycloid, CycloidConfig, CycloidId};
use dht_core::{Overlay, Summary};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn random_key(rng: &mut SmallRng, d: u8) -> CycloidId {
    CycloidId::new(rng.gen_range(0..d), rng.gen_range(0..(1u32 << d)), d)
}

fn assert_structural_invariants(net: &Cycloid) {
    let d = net.dimension();
    for &cub in net.occupied_clusters() {
        let members = net.cluster_members(cub).to_vec();
        assert!(!members.is_empty() && members.len() <= d as usize);
        // sorted by cyclic, unique
        for w in members.windows(2) {
            assert!(
                net.id_of(w[0]).unwrap().cyclic < net.id_of(w[1]).unwrap().cyclic,
                "cluster {cub} unsorted"
            );
        }
        // primary cache agrees with membership
        let primary = net.primary_of(cub).unwrap();
        for &m in &members {
            assert_eq!(net.node(m).unwrap().primary(), Some(primary));
            assert!(net.outlinks(m).unwrap() <= 8, "degree bound violated");
        }
        // inside ring is circular over exactly the members
        if members.len() > 1 {
            let mut cur = members[0];
            for _ in 0..members.len() {
                cur = net.cluster_successor(cur).unwrap().unwrap();
            }
            assert_eq!(cur, members[0], "inside ring of cluster {cub} is not circular");
        }
    }
}

#[test]
fn network_grown_purely_by_joins_routes_exactly() {
    let d = 6u8;
    let mut net = Cycloid::new(CycloidConfig { dimension: d, seed: 0xA1 });
    let mut rng = SmallRng::seed_from_u64(0xA2);
    // join 150 of 384 slots one at a time (local repair only)
    for _ in 0..150 {
        let slot = net.random_free_slot(&mut rng).unwrap();
        net.join_with_id(slot).unwrap();
    }
    assert_eq!(net.len(), 150);
    assert_structural_invariants(&net);
    // joins repair their neighborhood; distant jump links may be stale,
    // so run one maintenance round before demanding exactness
    net.rebuild_all_links();
    for _ in 0..400 {
        let from = net.random_node(&mut rng).unwrap();
        let key = random_key(&mut rng, d);
        assert!(net.route(from, key).unwrap().exact);
    }
}

#[test]
fn join_only_growth_keeps_queries_routable_without_global_repair() {
    let d = 6u8;
    let mut net = Cycloid::new(CycloidConfig { dimension: d, seed: 0xB1 });
    let mut rng = SmallRng::seed_from_u64(0xB2);
    let mut exact = 0usize;
    let mut total = 0usize;
    for i in 0..120 {
        let slot = net.random_free_slot(&mut rng).unwrap();
        net.join_with_id(slot).unwrap();
        if i >= 5 {
            let from = net.random_node(&mut rng).unwrap();
            let key = random_key(&mut rng, d);
            if let Ok(r) = net.route(from, key) {
                total += 1;
                exact += usize::from(r.exact);
            }
        }
    }
    // local-only repair: the overwhelming majority still routes exactly
    assert!(total >= 110, "completed {total}");
    assert!(exact * 10 >= total * 9, "exact {exact}/{total}");
}

#[test]
fn churn_cycles_preserve_invariants_and_exactness() {
    let d = 7u8;
    let mut net = Cycloid::build(500, CycloidConfig { dimension: d, seed: 0xC1 });
    let mut rng = SmallRng::seed_from_u64(0xC2);
    for round in 0..10 {
        for _ in 0..15 {
            if rng.gen_bool(0.5) {
                if let Some(slot) = net.random_free_slot(&mut rng) {
                    net.join_with_id(slot).unwrap();
                }
            } else if net.len() > 2 {
                let v = net.random_node(&mut rng).unwrap();
                net.leave(v).unwrap();
            }
        }
        assert_structural_invariants(&net);
        net.rebuild_all_links();
        for _ in 0..50 {
            let from = net.random_node(&mut rng).unwrap();
            let key = random_key(&mut rng, d);
            assert!(net.route(from, key).unwrap().exact, "round {round}");
        }
    }
}

#[test]
fn hops_stay_linear_in_d_through_protocol_growth() {
    let d = 7u8;
    let mut net = Cycloid::new(CycloidConfig { dimension: d, seed: 0xD1 });
    let mut rng = SmallRng::seed_from_u64(0xD2);
    for _ in 0..net.capacity() {
        let slot = net.random_free_slot(&mut rng).unwrap();
        net.join_with_id(slot).unwrap();
    }
    assert_eq!(net.len(), net.capacity());
    net.rebuild_all_links();
    let mut s = Summary::new();
    for _ in 0..500 {
        let from = net.random_node(&mut rng).unwrap();
        let key = random_key(&mut rng, d);
        s.record(net.route(from, key).unwrap().hops() as f64);
    }
    assert!(s.mean() < 1.8 * d as f64, "avg hops {} for d={d}", s.mean());
}

#[test]
fn cluster_drain_and_refill() {
    // Empty an entire cluster, verify keys fall to the nearest cluster,
    // then refill and verify they return.
    let d = 6u8;
    let mut net = Cycloid::build(net_cap(d), CycloidConfig { dimension: d, seed: 0xE1 });
    let cub = 17u32;
    let members = net.cluster_members(cub).to_vec();
    for m in members {
        net.leave(m).unwrap();
    }
    assert!(net.cluster_members(cub).is_empty());
    let key = CycloidId::new(2, cub, d);
    let owner = net.owner_of(key).unwrap();
    assert_ne!(net.id_of(owner).unwrap().cubical, cub);
    // routing agrees with ownership even for the emptied cluster
    let mut rng = SmallRng::seed_from_u64(0xE2);
    let from = net.random_node(&mut rng).unwrap();
    assert_eq!(net.route(from, key).unwrap().terminal, owner);
    // refill one slot; the key comes home
    let idx = net.join_with_id(CycloidId::new(3, cub, d)).unwrap();
    assert_eq!(net.owner_of(key).unwrap(), idx);
}

fn net_cap(d: u8) -> usize {
    d as usize * (1usize << d)
}
