//! Cross-crate integration: the four discovery systems must return the
//! *same answers* to the same queries on the same workload — they differ
//! in cost, never in result. Each is also checked against a brute-force
//! scan of the raw reports.
//!
//! One level down, every system answers through one query body under one
//! driver; `every_mode_agrees_with_the_direct_path_on_every_system` holds
//! the modes of that driver in agreement.

use lorm_repro::baselines::{CompositeConfig, CompositeFlat};
use lorm_repro::dht_core::{FaultPlan, RouteCache};
use lorm_repro::grid_resource::{FaultyOutcome, QueryMode, QueryPlan};
use lorm_repro::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn brute_force(w: &Workload, q: &Query) -> Vec<usize> {
    let per_sub: Vec<Vec<usize>> = q
        .subs
        .iter()
        .map(|s| {
            w.reports
                .iter()
                .filter(|r| r.attr == s.attr && s.target.matches(r.value))
                .map(|r| r.owner)
                .collect()
        })
        .collect();
    grid_resource::discovery::join_owners(per_sub)
}

fn bed() -> TestBed {
    let cfg = SimConfig { nodes: 896, dimension: 7, attrs: 40, values: 80, ..SimConfig::default() };
    TestBed::new(cfg)
}

#[test]
fn all_systems_agree_on_point_queries() {
    let bed = bed();
    let mut rng = SmallRng::seed_from_u64(0x11);
    for _ in 0..150 {
        let arity = rng.gen_range(1..=5);
        let q = bed.workload.random_query(arity, QueryMix::NonRange, &mut rng);
        let origin = rng.gen_range(0..bed.cfg.nodes);
        let expected = brute_force(&bed.workload, &q);
        for s in System::ALL {
            let mut got = bed.system(s).query_from(origin, &q).unwrap().owners;
            got.sort_unstable();
            assert_eq!(got, expected, "{} disagrees on {q:?}", s.name());
        }
    }
}

#[test]
fn all_systems_agree_on_range_queries() {
    let bed = bed();
    let mut rng = SmallRng::seed_from_u64(0x12);
    for _ in 0..100 {
        let arity = rng.gen_range(1..=4);
        let q = bed.workload.random_query(arity, QueryMix::Range, &mut rng);
        let origin = rng.gen_range(0..bed.cfg.nodes);
        let expected = brute_force(&bed.workload, &q);
        for s in System::ALL {
            let mut got = bed.system(s).query_from(origin, &q).unwrap().owners;
            got.sort_unstable();
            assert_eq!(got, expected, "{} disagrees on {q:?}", s.name());
        }
    }
}

#[test]
fn all_systems_agree_on_full_domain_ranges() {
    // The adversarial Theorem-4.10 query: the whole value domain.
    let bed = bed();
    let (dmin, dmax) = bed.workload.space.domain();
    for attr in bed.workload.space.ids().take(10) {
        let q = Query::new(vec![SubQuery {
            attr,
            target: ValueTarget::Range { low: dmin, high: dmax },
        }])
        .unwrap();
        let expected = brute_force(&bed.workload, &q);
        for s in System::ALL {
            let mut got = bed.system(s).query_from(5, &q).unwrap().owners;
            got.sort_unstable();
            assert_eq!(got, expected, "{} incomplete on full-domain {attr}", s.name());
        }
    }
}

#[test]
fn empty_results_are_consistent() {
    // Multi-attribute conjunctions that no single owner satisfies must be
    // empty everywhere (not an error).
    let bed = bed();
    let mut rng = SmallRng::seed_from_u64(0x13);
    let mut found_empty = 0;
    for _ in 0..60 {
        let q = bed.workload.random_query(6, QueryMix::NonRange, &mut rng);
        let expected = brute_force(&bed.workload, &q);
        if !expected.is_empty() {
            continue;
        }
        found_empty += 1;
        for s in System::ALL {
            let out = bed.system(s).query_from(0, &q).unwrap();
            assert!(out.owners.is_empty(), "{} fabricated owners", s.name());
        }
    }
    assert!(found_empty > 10, "6-attribute conjunctions should mostly be empty");
}

#[test]
fn costs_differ_but_match_the_papers_ordering() {
    let bed = bed();
    let mut rng = SmallRng::seed_from_u64(0x14);
    let mut hops = std::collections::HashMap::new();
    let mut visited = std::collections::HashMap::new();
    for _ in 0..100 {
        let qp = bed.workload.random_query(3, QueryMix::NonRange, &mut rng);
        let qr = bed.workload.random_query(3, QueryMix::Range, &mut rng);
        let origin = rng.gen_range(0..bed.cfg.nodes);
        for s in System::ALL {
            let sys = bed.system(s);
            *hops.entry(s.name()).or_insert(0usize) +=
                sys.query_from(origin, &qp).unwrap().tally.hops;
            *visited.entry(s.name()).or_insert(0usize) +=
                sys.query_from(origin, &qr).unwrap().tally.visited;
        }
    }
    // Theorems 4.7/4.8: MAAN > LORM > Mercury ≈ SWORD on hops.
    assert!(hops["MAAN"] > hops["LORM"]);
    assert!(hops["LORM"] > hops["Mercury"]);
    // Theorem 4.9: Mercury/MAAN >> LORM > SWORD on range probes.
    assert!(visited["Mercury"] > 10 * visited["LORM"]);
    assert!(visited["MAAN"] > 10 * visited["LORM"]);
    assert!(visited["LORM"] > visited["SWORD"]);
}

/// LORM, Mercury, SWORD, MAAN and the flat composite-key ablation system,
/// all mounted on one small workload.
fn five_systems() -> (Workload, Vec<Box<dyn ResourceDiscovery + Send + Sync>>) {
    let cfg = SimConfig { nodes: 256, dimension: 6, attrs: 12, values: 60, ..SimConfig::default() };
    let workload = TestBed::workload_of(&cfg).0;
    let mut systems: Vec<Box<dyn ResourceDiscovery + Send + Sync>> =
        System::ALL.iter().map(|&s| build_system(s, &workload, &cfg)).collect();
    let mut flat = CompositeFlat::new(cfg.nodes, &workload.space, CompositeConfig::default());
    flat.place_all(&workload.reports);
    systems.push(Box::new(flat));
    (workload, systems)
}

#[test]
fn every_mode_agrees_with_the_direct_path_on_every_system() {
    let (workload, mut systems) = five_systems();
    // Origins stay clear of physical node 7, which departs below.
    let mut rng = SmallRng::seed_from_u64(0x15);
    let queries: Vec<(usize, Query)> = [QueryMix::NonRange, QueryMix::Range]
        .into_iter()
        .flat_map(|mix| (1..=24).map(move |i| (mix, 1 + i % 3)))
        .map(|(mix, arity)| (rng.gen_range(8..256), workload.random_query(arity, mix, &mut rng)))
        .collect();
    let lossy = FaultPlan::new(0xFA11, 0.2, 0.05).unwrap();
    for sys in &mut systems {
        let name = sys.name();
        let mut cache = RouteCache::new();
        let cached_equals_direct =
            |sys: &dyn ResourceDiscovery, cache: &mut RouteCache, ctx: &str| {
                for (i, (origin, q)) in queries.iter().enumerate() {
                    for plan in QueryPlan::ALL {
                        let direct = sys.query(*origin, q, QueryMode::Direct(plan)).unwrap();
                        let cached = sys.query(*origin, q, QueryMode::Cached(plan, cache)).unwrap();
                        // The whole outcome: tally, owners and probed.
                        assert_eq!(cached, direct, "{name} {plan:?} {ctx} query {i}");
                        assert!(direct.is_complete(), "{name} {plan:?} {ctx} query {i}");
                        assert_eq!(
                            sys.query_planned(*origin, q, plan).unwrap(),
                            direct.outcome,
                            "{name} {plan:?} {ctx} query {i}"
                        );
                    }
                    assert_eq!(
                        sys.query_from_cached(*origin, q, cache).unwrap(),
                        sys.query_from(*origin, q).unwrap(),
                        "{name} {ctx} query {i}"
                    );
                }
            };
        // The second pass over the same stream replays its range walks
        // from memory and must still match the direct path exactly. SWORD
        // resolves a range at one root and never walks; for every other
        // system an equivalence that never saw a hit would be vacuous.
        cached_equals_direct(sys.as_ref(), &mut cache, "cold cache");
        let cold_hits = cache.walk_hits();
        cached_equals_direct(sys.as_ref(), &mut cache, "warm cache");
        assert!(
            cache.walk_hits() > cold_hits || name == "SWORD",
            "{name}: repeated range walks must hit"
        );

        let mut degraded = 0;
        for (i, (origin, q)) in queries.iter().enumerate() {
            // A plan under which no fault can fire is the direct path,
            // wrapped: every sub-query resolved, nothing retried or lost.
            let direct = FaultyOutcome::complete(sys.query_from(*origin, q).unwrap(), q.arity());
            for inert in [FaultPlan::none(), FaultPlan::new(0x51EE7, 0.0, 0.0).unwrap()] {
                let f = sys.query(*origin, q, QueryMode::Faulty(&inert, 1000 + i as u64)).unwrap();
                assert_eq!(f, direct, "{name} inert plan, query {i}");
            }
            // A lossy plan is a pure function of (plan seed, msg_seed),
            // and its sub-query accounting is monotone.
            let a = sys.query(*origin, q, QueryMode::Faulty(&lossy, i as u64)).unwrap();
            let b = sys.query(*origin, q, QueryMode::Faulty(&lossy, i as u64)).unwrap();
            assert_eq!(a, b, "{name} lossy plan, query {i}");
            assert!(a.subs_resolved <= a.subs_answered, "{name} query {i}");
            assert!(a.subs_answered <= a.subs_total, "{name} query {i}");
            assert_eq!(a.subs_total, q.arity(), "{name} query {i}");
            degraded += usize::from(!a.is_complete());
        }
        assert!(degraded > 0, "{name}: 20% loss should degrade some queries");

        // Churn bumps the epoch: every stale entry of the *same* cache
        // misses, and the cached path keeps matching the direct path on
        // the mutated, repaired overlay.
        sys.leave_physical(7).unwrap();
        sys.stabilize();
        sys.place_all(&workload.reports);
        cached_equals_direct(sys.as_ref(), &mut cache, "after churn");
    }
}
