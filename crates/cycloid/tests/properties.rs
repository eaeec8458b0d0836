//! Property-based tests of the Cycloid simulator.

use cycloid::{Cycloid, CycloidConfig, CycloidId};
use dht_core::Overlay;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Routing lands on the consistent-hashing owner for any population
    /// density and any key.
    #[test]
    fn lookups_are_exact(d in 3u8..9, frac in 0.02f64..1.0, seed: u64,
                         cyc: u8, cub: u32) {
        let cap = d as usize * (1usize << d);
        let n = ((cap as f64 * frac) as usize).clamp(1, cap);
        let net = Cycloid::build(n, CycloidConfig { dimension: d, seed });
        let key = CycloidId::new(cyc % d, cub % (1u32 << d), d);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xCC);
        let from = net.random_node(&mut rng).unwrap();
        let r = net.route(from, key).unwrap();
        prop_assert!(r.exact);
    }

    /// The owner of a key is never farther (cluster-wise) than any other
    /// live node — `owner_of` really is the nearest-cluster assignment.
    #[test]
    fn owner_is_nearest_cluster(d in 3u8..8, frac in 0.05f64..1.0, seed: u64, cub: u32) {
        let cap = d as usize * (1usize << d);
        let n = ((cap as f64 * frac) as usize).clamp(1, cap);
        let net = Cycloid::build(n, CycloidConfig { dimension: d, seed });
        let b = cub % (1u32 << d);
        let key = CycloidId::new(0, b, d);
        let owner = net.owner_of(key).unwrap();
        let oc = net.id_of(owner).unwrap().cubical;
        let od = CycloidId::cluster_dist(oc, b, d);
        for idx in net.live_nodes().iter().take(40) {
            let c = net.id_of(idx).unwrap().cubical;
            prop_assert!(CycloidId::cluster_dist(c, b, d) >= od);
        }
    }

    /// Degree never exceeds the constant bound, at any density.
    #[test]
    fn constant_degree(d in 3u8..10, frac in 0.02f64..1.0, seed: u64) {
        let cap = d as usize * (1usize << d);
        let n = ((cap as f64 * frac) as usize).clamp(1, cap);
        let net = Cycloid::build(n, CycloidConfig { dimension: d, seed });
        for idx in net.live_nodes().iter().take(30) {
            prop_assert!(net.outlinks(idx).unwrap() <= 8);
        }
    }

    /// Hop counts respect the routing budget with room to spare: paths are
    /// O(d), not O(n).
    #[test]
    fn path_length_linear_in_d(d in 4u8..9, seed: u64, cyc: u8, cub: u32) {
        let cap = d as usize * (1usize << d);
        let net = Cycloid::build(cap, CycloidConfig { dimension: d, seed });
        let key = CycloidId::new(cyc % d, cub % (1u32 << d), d);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xCD);
        let from = net.random_node(&mut rng).unwrap();
        let r = net.route(from, key).unwrap();
        prop_assert!(r.hops() <= 3 * d as usize + 4, "hops {} for d={}", r.hops(), d);
    }

    /// Slot round trips: every live node is found where its id says.
    #[test]
    fn slots_agree_with_ids(d in 3u8..8, frac in 0.1f64..1.0, seed: u64) {
        let cap = d as usize * (1usize << d);
        let n = ((cap as f64 * frac) as usize).clamp(1, cap);
        let net = Cycloid::build(n, CycloidConfig { dimension: d, seed });
        for idx in net.live_nodes().iter().take(50) {
            let id = net.id_of(idx).unwrap();
            prop_assert!(net.cluster_members(id.cubical).iter().any(|m| m == idx));
            prop_assert_eq!(net.owner_of(id).unwrap(), idx);
        }
    }

    /// The zero-allocation fast path is observationally identical to the
    /// traced route in every network state: freshly built, after
    /// unrepaired churn (leaves and abrupt failures), and after repair.
    #[test]
    fn route_stats_equals_traced_route(d in 4u8..8, frac in 0.3f64..1.0, seed: u64,
                                       leaves in 0usize..6, fails in 0usize..6) {
        let cap = d as usize * (1usize << d);
        let n = ((cap as f64 * frac) as usize).clamp(8, cap);
        let mut net = Cycloid::build(n, CycloidConfig { dimension: d, seed });
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xCF);
        let check = |net: &Cycloid, rng: &mut SmallRng| -> Result<(), TestCaseError> {
            for _ in 0..12 {
                let from = net.random_node(rng).unwrap();
                let key = CycloidId::new(
                    rand::Rng::gen_range(rng, 0..d),
                    rand::Rng::gen_range(rng, 0..(1u32 << d)),
                    d,
                );
                match (net.route(from, key), net.route_stats(from, key)) {
                    (Ok(t), Ok(s)) => {
                        prop_assert_eq!(t.hops(), s.hops);
                        prop_assert_eq!(t.terminal, s.terminal);
                        prop_assert_eq!(t.exact, s.exact);
                    }
                    (Err(a), Err(b)) => prop_assert_eq!(a, b),
                    (t, s) => prop_assert!(false, "diverged: traced {t:?} vs stats {s:?}"),
                }
            }
            Ok(())
        };
        check(&net, &mut rng)?; // freshly built
        for _ in 0..leaves.min(net.len() / 4) {
            let v = net.random_node(&mut rng).unwrap();
            net.leave(v).unwrap();
        }
        for _ in 0..fails.min(net.len() / 4) {
            let v = net.random_node(&mut rng).unwrap();
            net.fail(v).unwrap();
        }
        check(&net, &mut rng)?; // post-churn, unrepaired
        net.rebuild_all_links();
        check(&net, &mut rng)?; // post-repair
    }

    /// Leaving any subset keeps the structure sound.
    #[test]
    fn leaves_preserve_structure(d in 4u8..7, seed: u64, leaves in 1usize..20) {
        let cap = d as usize * (1usize << d);
        let mut net = Cycloid::build(cap / 2, CycloidConfig { dimension: d, seed });
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xCE);
        for _ in 0..leaves.min(net.len() - 1) {
            let v = net.random_node(&mut rng).unwrap();
            net.leave(v).unwrap();
        }
        // every remaining cluster's primary cache is coherent
        for &cub in net.occupied_clusters() {
            let primary = net.primary_of(cub).unwrap();
            for m in net.cluster_members(cub).iter() {
                prop_assert_eq!(net.node(m).unwrap().primary(), Some(primary));
            }
        }
        // and routing still lands on owners
        let key = CycloidId::new(0, 1, d);
        let from = net.random_node(&mut rng).unwrap();
        prop_assert!(net.route(from, key).unwrap().exact);
    }

    /// Every successful mutating op strictly increases the epoch — the
    /// invariant the route cache's staleness check rests on (a cache
    /// entry stamped before a join / leave / fail / repair can never hit
    /// after it).
    #[test]
    fn mutating_op_sequences_strictly_increase_epoch(
        d in 4u8..7,
        seed: u64,
        ops in prop::collection::vec(0u8..4, 1..24),
    ) {
        let cap = d as usize * (1usize << d);
        let mut net = Cycloid::build(cap / 2, CycloidConfig { dimension: d, seed });
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xEA);
        for kind in ops {
            let before = net.epoch();
            let mutated = match kind {
                0 => net.join_random().is_ok(),
                1 if net.len() > 2 => {
                    let v = net.random_node(&mut rng).unwrap();
                    net.leave(v).is_ok()
                }
                2 if net.len() > 2 => {
                    let v = net.random_node(&mut rng).unwrap();
                    net.fail(v).is_ok()
                }
                3 => {
                    net.rebuild_all_links();
                    true
                }
                _ => false,
            };
            if mutated {
                prop_assert!(
                    net.epoch() > before,
                    "op {kind} left epoch at {before}"
                );
            }
        }
    }
}
