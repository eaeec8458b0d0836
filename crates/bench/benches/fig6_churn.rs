//! Figure 6 kernel: a short churn run (Poisson joins/leaves interleaved
//! with queries and periodic maintenance) per system.

use analysis::System;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use grid_resource::{ChurnSchedule, Workload};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sim::experiments::fig6::{run_churn_one, ChurnSetup};
use sim::experiments::Metric;
use sim::{build_system, SimConfig};
use std::hint::black_box;

fn bench_churn_run(c: &mut Criterion) {
    let cfg = SimConfig::quick();
    let mut wl_rng = SmallRng::seed_from_u64(0xF6);
    let workload = Workload::generate(cfg.workload_config(), &mut wl_rng).unwrap();
    let setup = ChurnSetup { requests: 100, rates: vec![0.4], ..ChurnSetup::quick() };
    let mut sched_rng = SmallRng::seed_from_u64(0xF7);
    let schedule = ChurnSchedule::generate(0.4, 10.0, &mut sched_rng);
    let mut group = c.benchmark_group("fig6_churn_run_100req");
    group.sample_size(10);
    for s in System::ALL {
        group.bench_with_input(BenchmarkId::from_parameter(s.name()), &s, |b, &s| {
            b.iter(|| {
                let mut sys = build_system(s, &workload, &cfg);
                let (sys, metric) = (sys.as_mut(), Metric::Hops);
                black_box(run_churn_one(sys, &workload, &schedule, &setup, metric, 1, false).avg)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_churn_run);
criterion_main!(benches);
