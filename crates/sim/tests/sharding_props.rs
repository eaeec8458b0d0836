//! Property tests for sharded batch execution (observation equivalence
//! with the sequential path for *any* shard count) and for the
//! `Summary::merge` reduction it relies on (associativity, identity,
//! failure accounting), plus the end-to-end form of the same contract:
//! the exported `Report` JSON of a real figure pipeline is a pure
//! function of the experiment seed, whatever shard count it is handed.

use dht_core::Summary;
use grid_resource::QueryPlan;
use proptest::prelude::*;
use sim::experiments::chaos::{chaos, ChaosSetup};
use sim::experiments::{fig4::fig4, fig5::fig5, run_batch, BatchMode, Exec, Metric};
use sim::setup::{SimConfig, TestBed};
use std::sync::OnceLock;

/// One shared small bed: building the four systems dominates the test
/// budget, and the properties only vary the batch and shard count.
fn bed() -> &'static TestBed {
    static BED: OnceLock<TestBed> = OnceLock::new();
    BED.get_or_init(|| {
        TestBed::new(SimConfig {
            nodes: 384,
            dimension: 6,
            attrs: 10,
            values: 30,
            ..SimConfig::default()
        })
    })
}

#[test]
fn figure_reports_are_bit_identical_across_runs_and_shard_counts() {
    let bed = bed();
    // ~200 queries per batch: four micro-chunks, so up to four workers.
    let setup = ChaosSetup { origins: 70, ..ChaosSetup::quick() };
    // Each pipeline's report JSON at a given shard count (0: one per core).
    let reports = |shards: usize| {
        let exec = Exec { shards, ..Exec::default() };
        [
            fig4(bed, [1, 3], 40, 5, exec).report().to_json(),
            fig5(bed, [1, 3], 200, exec).report().to_json(),
            chaos(bed, setup.clone(), shards).report().to_json(),
        ]
    };
    let once = reports(1);
    assert_eq!(once, reports(1), "same seed, same shard count must give identical JSON");
    for shards in [2, 3, 7, 0] {
        assert_eq!(
            once,
            reports(shards),
            "shards={shards}: the shard count is an execution detail and must not leak into results"
        );
    }
}

/// Build a Summary from observations plus a failure count.
fn summarize(obs: &[f64], failures: u64) -> Summary {
    let mut s = Summary::new();
    for &x in obs {
        s.record(x);
    }
    for _ in 0..failures {
        s.record_failure();
    }
    s
}

/// The stats the sharding contract promises bit-identical: count, total,
/// mean, min, max, and the failure count.
fn exact_stats(s: &Summary) -> (u64, u64, u64, u64, u64, u64) {
    (
        s.count(),
        s.failures(),
        s.total().to_bits(),
        s.mean().to_bits(),
        s.min().to_bits(),
        s.max().to_bits(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For any batch shape and any shard count, the sharded run observes
    /// exactly what the sequential run observes, on every system.
    fn sharded_run_batch_equals_sequential(
        origins in 1usize..10,
        per_origin in 1usize..4,
        arity in 1usize..4,
        shards in 1usize..48,
        seed in any::<u32>(),
    ) {
        let bed = bed();
        let batch = sim::experiments::query_batch(
            &bed.workload,
            bed.cfg.nodes,
            origins,
            per_origin,
            arity,
            grid_resource::QueryMix::Range,
            seed as u64,
        );
        for sys in &bed.systems {
            let run = |shards| {
                let mode = BatchMode::Direct(QueryPlan::Parallel);
                run_batch(sys.as_ref(), &batch, Metric::Visited, mode, shards)
            };
            let (seq, par) = (run(1), run(shards));
            prop_assert_eq!(
                exact_stats(&par),
                exact_stats(&seq),
                "{} diverged at {} shards over {} queries",
                sys.name(),
                shards,
                batch.len()
            );
        }
    }

    /// Summary::merge is associative on the exact stats: reducing shard
    /// summaries in any grouping gives the same result. Query metrics are
    /// integer-valued (hops, visited counts), where f64 partial sums are
    /// exact — truncate the generated observations to match.
    fn summary_merge_is_associative(
        a in prop::collection::vec(0.0f64..1000.0, 0..20),
        b in prop::collection::vec(0.0f64..1000.0, 0..20),
        c in prop::collection::vec(0.0f64..1000.0, 0..20),
        fa in 0u64..3,
        fb in 0u64..3,
        fc in 0u64..3,
    ) {
        let trunc = |v: Vec<f64>| v.into_iter().map(f64::trunc).collect::<Vec<_>>();
        let (a, b, c) = (trunc(a), trunc(b), trunc(c));
        let (sa, sb, sc) = (summarize(&a, fa), summarize(&b, fb), summarize(&c, fc));
        // (a ⊕ b) ⊕ c
        let mut left = sa.clone();
        left.merge(&sb);
        left.merge(&sc);
        // a ⊕ (b ⊕ c)
        let mut bc = sb.clone();
        bc.merge(&sc);
        let mut right = sa.clone();
        right.merge(&bc);
        prop_assert_eq!(exact_stats(&left), exact_stats(&right));
        // variance is merged with a parallel-Welford update: not exactly
        // associative in floating point, but it must agree closely
        if left.count() >= 2 {
            let (l, r) = (left.std_dev(), right.std_dev());
            prop_assert!((l - r).abs() <= 1e-9 * (1.0 + l.abs()), "std {l} vs {r}");
        }
    }

    /// Splitting any observation sequence into contiguous shards and
    /// merging in order reconstructs the unsharded summary exactly —
    /// the scalar model of `run_batch`.
    fn contiguous_shard_merge_reconstructs_summary(
        obs in prop::collection::vec(0.0f64..4096.0, 1..60),
        chunk in 1usize..20,
        failures in 0u64..4,
    ) {
        // map observations to integers, as query metrics are
        let obs: Vec<f64> = obs.into_iter().map(f64::trunc).collect();
        let mut whole = summarize(&obs, 0);
        for _ in 0..failures {
            whole.record_failure();
        }
        let mut merged = Summary::new();
        for shard in obs.chunks(chunk) {
            merged.merge(&summarize(shard, 0));
        }
        for _ in 0..failures {
            merged.record_failure();
        }
        prop_assert_eq!(exact_stats(&merged), exact_stats(&whole));
    }

    /// The empty summary is a two-sided identity for merge, and failures
    /// survive merging with empty summaries in either direction.
    fn empty_summary_is_merge_identity(
        obs in prop::collection::vec(0.0f64..100.0, 0..20),
        failures in 0u64..3,
    ) {
        let s = summarize(&obs, failures);
        let mut left = Summary::new();
        left.merge(&s);
        let mut right = s.clone();
        right.merge(&Summary::new());
        prop_assert_eq!(exact_stats(&left), exact_stats(&s));
        prop_assert_eq!(exact_stats(&right), exact_stats(&s));
    }
}
