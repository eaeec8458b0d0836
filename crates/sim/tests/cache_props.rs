//! Property tests for the walk cache: for any batch shape and any churn
//! interleaving, the cache-on and cache-off runs must render
//! byte-identical Report JSON at shard counts 1 and 3. The cache
//! is supposed to be semantically invisible — these tests make "invisible"
//! mean *every byte of the export*, not just the headline means.

use analysis::System;
use dht_core::RouteCache;
use grid_resource::{QueryMix, QueryPlan};
use proptest::prelude::*;
use sim::experiments::{query_batch, run_batch, BatchMode, Metric};
use sim::report::Report;
use sim::setup::{SimConfig, TestBed};

fn cfg() -> SimConfig {
    SimConfig { nodes: 384, dimension: 6, attrs: 10, values: 30, ..SimConfig::default() }
}

proptest! {
    // Each case builds a fresh two-system bed and runs twelve batches
    // through it; a handful of cases already sweeps batch shape and churn
    // interleavings.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Cache-on vs cache-off Report JSON is byte-identical across a
    /// churn interleaving, at shards 1 and 3, with the cached run
    /// keeping ONE persistent cache per system across the whole
    /// interleaving (epoch invalidation, not cache clearing, carries it
    /// over the churn boundary).
    #[test]
    fn report_json_is_byte_identical_cache_on_vs_off(
        origins in 1usize..8,
        per_origin in 1usize..4,
        arity in 1usize..4,
        seed in any::<u32>(),
        churn in prop::collection::vec((0usize..384, 0u8..3), 1..5),
    ) {
        let cfg = cfg();
        let mut bed = TestBed::with_systems(cfg, &[System::Lorm, System::Mercury]);
        let batch = query_batch(
            &bed.workload,
            cfg.nodes,
            origins,
            per_origin,
            arity,
            QueryMix::Range,
            seed as u64,
        );
        let mut plain_rep = Report::new();
        let mut cached_rep = Report::new();
        let mut caches: Vec<RouteCache> =
            bed.systems.iter().map(|_| RouteCache::new()).collect();
        for phase in 0..2 {
            if phase == 1 {
                // the churn interleaving: mutate between the two batch
                // rounds, then repair and re-place reports
                for sys in bed.systems.iter_mut() {
                    for &(pick, kind) in &churn {
                        let phys = pick % cfg.nodes;
                        match kind {
                            0 => {
                                let _ = sys.leave_physical(phys);
                            }
                            1 => {
                                let _ = sys.fail_physical(phys);
                            }
                            _ => sys.stabilize(),
                        }
                    }
                    sys.stabilize();
                    sys.place_all(&bed.workload.reports);
                }
            }
            for (sys, cache) in bed.systems.iter().zip(caches.iter_mut()) {
                // Three cached passes per phase: two-touch admission stamps
                // a walk on the first and records it on the second, so only
                // the third replays from memory — and an equivalence that
                // never saw a hit would be vacuous.
                for (pass, shards) in [1usize, 3, 1].into_iter().enumerate() {
                    let label = format!("{} phase{phase} pass{pass} shards{shards}", sys.name());
                    let hits = cache.walk_hits();
                    let run =
                        |mode| run_batch(sys.as_ref(), &batch, Metric::Visited, mode, shards);
                    plain_rep.summary(label.clone(), run(BatchMode::Direct(QueryPlan::Parallel)));
                    cached_rep.summary(label, run(BatchMode::Cached(QueryPlan::Parallel, cache)));
                    if pass == 2 {
                        prop_assert!(cache.walk_hits() > hits, "{} phase{}", sys.name(), phase);
                    }
                }
            }
        }
        prop_assert_eq!(plain_rep.to_json(), cached_rep.to_json());
    }
}
