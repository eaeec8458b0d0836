//! Ablation kernels: LPH vs hashed placement (range-probe cost), the
//! Cycloid dimension trade-off (lookup cost at constant degree), and the
//! host cost of each query plan on each system (the wall-clock column
//! beside the plan ablation's pieces-shipped table in EXPERIMENTS.md;
//! informational — CI gates `repro perf` and `lormbench`, not this).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use grid_resource::{QueryMix, QueryPlan, ResourceDiscovery, Workload};
use lorm::{Lorm, LormConfig, Placement};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sim::{SimConfig, TestBed};
use std::hint::black_box;

fn bench_placement(c: &mut Criterion) {
    let cfg = SimConfig::quick();
    let mut wl_rng = SmallRng::seed_from_u64(0xAB);
    let workload = Workload::generate(cfg.workload_config(), &mut wl_rng).unwrap();
    let mut group = c.benchmark_group("ablate_placement_range_query");
    for (label, placement) in [("lph", Placement::Lph), ("hashed", Placement::Hashed)] {
        let mut sys = Lorm::new(
            cfg.nodes,
            &workload.space,
            LormConfig { dimension: cfg.dimension, seed: cfg.seed, placement },
        );
        sys.place_all(&workload.reports);
        group.bench_function(label, |b| {
            let mut rng = SmallRng::seed_from_u64(0xAC);
            b.iter(|| {
                let q = workload.random_query(1, QueryMix::Range, &mut rng);
                let origin = rng.gen_range(0..cfg.nodes);
                black_box(sys.query_from(origin, &q).unwrap().tally.visited)
            });
        });
    }
    group.finish();
}

fn bench_dimension(c: &mut Criterion) {
    use cycloid::{Cycloid, CycloidConfig, CycloidId};
    use dht_core::Overlay;
    let mut group = c.benchmark_group("ablate_dimension_lookup");
    for d in [6u8, 8, 10] {
        let n = d as usize * (1usize << d);
        let net = Cycloid::build(n, CycloidConfig { dimension: d, seed: 5 });
        group.bench_with_input(BenchmarkId::from_parameter(d), &d, |b, &d| {
            let mut rng = SmallRng::seed_from_u64(6);
            b.iter(|| {
                let from = net.random_node(&mut rng).unwrap();
                let key = CycloidId::new(rng.gen_range(0..d), rng.gen_range(0..(1u32 << d)), d);
                black_box(net.route_stats(from, key).unwrap().hops)
            });
        });
    }
    group.finish();
}

fn bench_query_plans(c: &mut Criterion) {
    let bed = TestBed::new(SimConfig::quick());
    let mut rng = SmallRng::seed_from_u64(0xAD);
    // One fixed batch for every (system, plan) cell.
    let batch: Vec<(usize, grid_resource::Query)> = (0..256)
        .map(|_| {
            let origin = rng.gen_range(0..bed.cfg.nodes);
            (origin, bed.workload.random_query(4, QueryMix::Range, &mut rng))
        })
        .collect();
    let mut group = c.benchmark_group("ablate_query_plan_arity4");
    for sys in &bed.systems {
        for plan in QueryPlan::ALL {
            group.bench_function(format!("{}/{}", sys.name(), plan.name()), |b| {
                let mut i = 0usize;
                b.iter(|| {
                    let (origin, q) = &batch[i % batch.len()];
                    i += 1;
                    black_box(sys.query_planned(*origin, q, plan).unwrap().tally.matches)
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_placement, bench_dimension, bench_query_plans);
criterion_main!(benches);
