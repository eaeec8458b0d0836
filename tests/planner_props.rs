//! Property tests on the selectivity-driven query planner:
//!
//! * every plan (parallel, sequential, adaptive) returns the same
//!   strictly ascending owner list on every system — the plans trade
//!   traffic, never answers;
//! * `resolve_in_order`'s linear-time probe de-duplication equals the
//!   quadratic `contains` loop it replaced, on arbitrary step streams
//!   and on all four systems under both sequential plans;
//! * sequential tallies count shipped pieces and short-circuit on every
//!   system;
//! * adaptive ordering never ships more result pieces than the *worst*
//!   sub-query ordering would, even on skewed (Bounded Pareto) values;
//! * the plan choice composes with the sharded executor: report JSON is
//!   byte-identical at shards 1 vs 3 for every plan;
//! * the equi-width histograms behind the adaptive plan track exact
//!   match counts within the interpolation tolerance band.

use lorm_repro::dht_core::{LookupTally, NodeIdx};
use lorm_repro::grid_resource::planner::{intersect_sorted, plan_order, resolve_in_order};
use lorm_repro::grid_resource::{QueryPlan, SelectivityEstimator};
use lorm_repro::prelude::*;
use lorm_repro::sim::experiments::{run_batch_planned_sharded, Metric};
use lorm_repro::sim::Report;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn tiny_cfg(seed: u64) -> SimConfig {
    SimConfig {
        nodes: 160,
        dimension: 5,
        attrs: 8,
        values: 20,
        seed,
        value_dist: ValueDist::Uniform,
    }
}

/// The order-preserving de-duplication `resolve_in_order` used before it
/// marked arena slots: a linear scan per probed node. Kept as the
/// reference the linear-time filter must reproduce entry for entry.
fn dedup_by_contains(steps: &[Vec<NodeIdx>]) -> Vec<NodeIdx> {
    let mut all: Vec<NodeIdx> = Vec::new();
    for &p in steps.iter().flatten() {
        if !all.contains(&p) {
            all.push(p);
        }
    }
    all
}

fn range_sub(attr: u32) -> SubQuery {
    SubQuery { attr: AttrId(attr), target: ValueTarget::Range { low: 0.0, high: 1.0 } }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn probe_dedup_equals_reference_contains_loop(
        steps in prop::collection::vec(
            (
                // dense slots (within- and cross-step repeats), a
                // mid-size arena, and sparse slots far past it
                prop::collection::vec(
                    prop_oneof![
                        3 => 0usize..12,
                        2 => 0usize..2048,
                        1 => (0usize..40).prop_map(|i| 100_000 + i * 40_009)
                    ],
                    0..40,
                ),
                // small owner lists: some intersections come up empty
                // and end the query before the stream does
                prop::collection::vec(0usize..4, 0..5),
            ),
            1..7,
        ),
    ) {
        let q = Query { subs: (0..steps.len() as u32).map(range_sub).collect() };
        let order: Vec<usize> = (0..steps.len()).collect();
        let mut asked: Vec<Vec<NodeIdx>> = Vec::new();
        let out = resolve_in_order(&q, &order, &mut |single| {
            let (probed, owners) = &steps[single.subs[0].attr.0 as usize];
            let probed: Vec<NodeIdx> = probed.iter().map(|&i| NodeIdx(i)).collect();
            asked.push(probed.clone());
            let tally =
                LookupTally { hops: 1, lookups: 1, visited: probed.len(), matches: owners.len() };
            Ok(QueryOutcome { tally, owners: owners.clone(), probed })
        })
        .unwrap();
        prop_assert_eq!(out.probed, dedup_by_contains(&asked));
        prop_assert_eq!(out.tally.lookups, asked.len());
        prop_assert_eq!(out.tally.visited, asked.iter().map(Vec::len).sum::<usize>());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn all_plans_agree_on_owner_sets_on_every_system(seed in 0u64..1_000, arity in 1usize..=4) {
        let bed = TestBed::new(tiny_cfg(0x9000 + seed));
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x51);
        for _ in 0..10 {
            let q = bed.workload.random_query(arity, QueryMix::Range, &mut rng);
            let origin = rng.gen_range(0..bed.cfg.nodes);
            for sys in &bed.systems {
                let mut expect: Option<Vec<usize>> = None;
                for plan in QueryPlan::ALL {
                    let owners = sys.query_planned(origin, &q, plan).unwrap().owners;
                    // the `QueryOutcome::owners` contract: callers may
                    // binary-search it without sorting first
                    prop_assert!(
                        owners.windows(2).all(|w| w[0] < w[1]),
                        "{} under the {} plan: owners not strictly ascending",
                        sys.name(), plan.name()
                    );
                    match &expect {
                        None => expect = Some(owners),
                        Some(e) => prop_assert_eq!(
                            &owners, e,
                            "{} under the {} plan changed the answer", sys.name(), plan.name()
                        ),
                    }
                }
            }
        }
    }
}

#[test]
fn sequential_probes_are_the_deduplicated_single_sub_probes_on_every_system() {
    let bed = TestBed::new(tiny_cfg(0x9D21));
    let mut rng = SmallRng::seed_from_u64(0x51A);
    for _ in 0..40 {
        let q = bed.workload.random_query(rng.gen_range(1..=4), QueryMix::Range, &mut rng);
        let origin = rng.gen_range(0..bed.cfg.nodes);
        for sys in &bed.systems {
            for plan in [QueryPlan::Sequential, QueryPlan::Adaptive] {
                // Replay the plan by hand: one single-sub `query_from`
                // per step, in `plan_order`, until the candidates run out.
                let mut steps: Vec<Vec<NodeIdx>> = Vec::new();
                let mut survivors: Option<Vec<usize>> = None;
                for idx in plan_order(&q, plan, sys.selectivity()) {
                    if survivors.as_ref().is_some_and(Vec::is_empty) {
                        break;
                    }
                    let single = Query { subs: vec![q.subs[idx]] };
                    let step = sys.query_from(origin, &single).unwrap();
                    steps.push(step.probed);
                    match &mut survivors {
                        None => survivors = Some(step.owners),
                        Some(s) => intersect_sorted(s, &step.owners),
                    }
                }
                let out = sys.query_planned(origin, &q, plan).unwrap();
                let what = format!("{} under the {} plan", sys.name(), plan.name());
                // equal to the reference, hence also duplicate-free
                assert_eq!(out.probed, dedup_by_contains(&steps), "{what}: probe list");
                assert_eq!(out.owners, survivors.unwrap(), "{what}: owners");
            }
        }
    }
}

#[test]
fn sequential_tallies_count_shipped_pieces_and_short_circuit_on_every_system() {
    let bed = TestBed::new(tiny_cfg(0x9E05));
    let mut rng = SmallRng::seed_from_u64(0x51B);
    for sys in &bed.systems {
        // Arity 1: every plan ships exactly the sub-query's match list,
        // so the whole tally agrees with the parallel one.
        for _ in 0..30 {
            let q = bed.workload.random_query(1, QueryMix::Range, &mut rng);
            let origin = rng.gen_range(0..bed.cfg.nodes);
            let par = sys.query_planned(origin, &q, QueryPlan::Parallel).unwrap();
            for plan in [QueryPlan::Sequential, QueryPlan::Adaptive] {
                let out = sys.query_planned(origin, &q, plan).unwrap();
                assert_eq!(out.tally, par.tally, "{} arity-1 {}", sys.name(), plan.name());
            }
        }
        // Arity 4: threading the candidates ships far fewer pieces, and
        // never fewer than the final answer.
        let (mut par, mut seq) = (0usize, 0usize);
        for _ in 0..60 {
            let q = bed.workload.random_query(4, QueryMix::Range, &mut rng);
            let origin = rng.gen_range(0..bed.cfg.nodes);
            par += sys.query_planned(origin, &q, QueryPlan::Parallel).unwrap().tally.matches;
            let out = sys.query_planned(origin, &q, QueryPlan::Sequential).unwrap();
            assert!(out.tally.matches >= out.owners.len(), "{}: undercounted", sys.name());
            seq += out.tally.matches;
        }
        assert!(seq * 2 < par, "{}: parallel {par} vs sequential {seq} pieces", sys.name());
        // Point conjunctions are almost always empty: the remaining
        // lookups must then never happen.
        let skipped = (0..60).any(|_| {
            let q = bed.workload.random_query(6, QueryMix::NonRange, &mut rng);
            let origin = rng.gen_range(0..bed.cfg.nodes);
            let par = sys.query_planned(origin, &q, QueryPlan::Parallel).unwrap();
            let out = sys.query_planned(origin, &q, QueryPlan::Sequential).unwrap();
            out.owners.is_empty() && out.tally.lookups < par.tally.lookups
        });
        assert!(skipped, "{}: empty conjunctions should short-circuit", sys.name());
    }
}

#[test]
fn adaptive_never_ships_more_than_worst_sequential_ordering() {
    // Skewed values (the paper's stated Bounded Pareto generator) make
    // sub-query selectivities genuinely unequal, so ordering matters.
    let cfg = SimConfig {
        nodes: 160,
        dimension: 5,
        attrs: 10,
        values: 30,
        seed: 0x9A77,
        value_dist: ValueDist::BoundedPareto { alpha: 1.2 },
    };
    let bed = TestBed::new(cfg);
    let mut rng = SmallRng::seed_from_u64(0x517);
    const PERMS: [[usize; 3]; 6] =
        [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]];
    for _ in 0..12 {
        let q = bed.workload.random_query(3, QueryMix::Range, &mut rng);
        let origin = rng.gen_range(0..cfg.nodes);
        for sys in &bed.systems {
            // worst document-order sequential over every sub-query
            // permutation (the adaptive order is one of the six, so the
            // bound is also a sanity check that adaptive == sequential
            // on the reordered query)
            let worst = PERMS
                .iter()
                .map(|p| {
                    let permuted = Query::new(p.iter().map(|&i| q.subs[i]).collect()).unwrap();
                    let out = sys.query_planned(origin, &permuted, QueryPlan::Sequential).unwrap();
                    out.tally.matches
                })
                .max()
                .unwrap();
            let ada = sys.query_planned(origin, &q, QueryPlan::Adaptive).unwrap().tally.matches;
            assert!(
                ada <= worst,
                "{}: adaptive shipped {ada} pieces, worst sequential ordering {worst}",
                sys.name()
            );
        }
    }
}

#[test]
fn plan_choice_keeps_report_json_identical_across_shards() {
    let bed = TestBed::new(tiny_cfg(0x9B33));
    let mut rng = SmallRng::seed_from_u64(0x518);
    // > MICRO_CHUNK queries so shards=3 actually splits the batch
    let batch: Vec<(usize, Query)> = (0..96)
        .map(|_| {
            let origin = rng.gen_range(0..bed.cfg.nodes);
            (origin, bed.workload.random_query(3, QueryMix::Range, &mut rng))
        })
        .collect();
    for plan in QueryPlan::ALL {
        let report_at = |shards: usize| {
            let mut rep = Report::new();
            for sys in &bed.systems {
                let s =
                    run_batch_planned_sharded(sys.as_ref(), &batch, Metric::Matches, plan, shards);
                rep.summary(sys.name(), s);
            }
            rep.to_json()
        };
        assert_eq!(report_at(1), report_at(3), "plan {} drifted across shard counts", plan.name());
    }
}

#[test]
fn selectivity_estimates_track_exact_match_counts() {
    // The §V synthetic workload at quick scale. The estimator is exact
    // on full-domain ranges and interpolates inside buckets, so the
    // error of a range estimate is confined to the two partial buckets
    // at the range ends: |est - exact| <= 2·(max bucket count) plus the
    // grid-snapping slack. With near-uniform per-bucket counts of
    // total/buckets, a band of 4·total/buckets + 4 holds with margin.
    let cfg = SimConfig {
        nodes: 896,
        dimension: 7,
        attrs: 20,
        values: 100,
        seed: 0x9C11,
        value_dist: ValueDist::Uniform,
    };
    let (workload, _) = TestBed::workload_of(&cfg);
    let sys = build_system(System::Lorm, &workload, &cfg);
    let sel: &SelectivityEstimator = sys.selectivity().expect("place_all trains the estimator");
    assert!(sel.is_trained());
    let mut rng = SmallRng::seed_from_u64(0x519);
    for _ in 0..200 {
        let q = workload.random_query(1, QueryMix::Range, &mut rng);
        let sub = &q.subs[0];
        let exact = workload
            .reports
            .iter()
            .filter(|r| r.attr == sub.attr && sub.target.matches(r.value))
            .count() as f64;
        let est = sel.estimate(sub);
        let total = sel.total(sub.attr) as f64;
        assert!(est >= 0.0 && est <= total, "estimate {est} outside [0, {total}]");
        let band = 4.0 * total / sel.buckets() as f64 + 4.0;
        assert!(
            (est - exact).abs() <= band,
            "estimate {est} vs exact {exact} exceeds tolerance {band} for {sub:?}"
        );
    }
}
