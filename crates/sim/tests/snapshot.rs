//! Property tests for bed snapshots, which are plain deep clones of
//! `bed.systems`: after arbitrary seeded churn, putting the clone back
//! must rewind every system to a state *observationally identical* to a
//! bed that was never churned — same live population, same stored
//! pieces, same query results. This
//! is the contract that lets the `BedCache` hand one stabilized build
//! to many consumers — whose own side of the contract (a cached bed or
//! prototype yields byte-identical Report JSON to a fresh build) is
//! checked on real figure pipelines at the end of this file.

use grid_resource::{QueryMix, QueryPlan};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sim::experiments::{query_batch, run_batch, BatchMode, Metric};
use sim::setup::{SimConfig, TestBed};
use std::sync::OnceLock;

fn cfg() -> SimConfig {
    SimConfig { nodes: 256, dimension: 6, attrs: 8, values: 20, ..SimConfig::default() }
}

/// One shared pristine bed: construction dominates the test budget, and
/// every case starts from a fresh deep clone of it.
fn pristine() -> &'static TestBed {
    static BED: OnceLock<TestBed> = OnceLock::new();
    BED.get_or_init(|| TestBed::new(cfg()))
}

/// Everything observable about a bed that churn can perturb: per-system
/// live population, stored piece count, and the exact query summaries of
/// a fixed batch.
fn observe(bed: &TestBed) -> Vec<(usize, usize, dht_core::Summary)> {
    let c = bed.cfg;
    let batch = query_batch(&bed.workload, c.nodes, 12, 2, 2, QueryMix::Range, c.seed ^ 0x5AFE);
    bed.systems
        .iter()
        .map(|s| {
            let mode = BatchMode::Direct(QueryPlan::Parallel);
            let visited = run_batch(s.as_ref(), &batch, Metric::Visited, mode, 0);
            (s.num_physical(), s.total_pieces(), visited)
        })
        .collect()
}

/// Drive every system through `steps` random join/leave/fail events.
fn churn(bed: &mut TestBed, seed: u64, steps: usize) {
    let mut rng = SmallRng::seed_from_u64(seed);
    for sys in &mut bed.systems {
        for _ in 0..steps {
            match rng.gen_range(0..3u8) {
                0 => {
                    let _ = sys.join_physical(&mut rng);
                }
                kind => {
                    let p = rng.gen_range(0..sys.num_physical());
                    if sys.is_live(p) && sys.num_physical() > 2 {
                        let _ =
                            if kind == 1 { sys.leave_physical(p) } else { sys.fail_physical(p) };
                    }
                }
            }
        }
        sys.stabilize();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// clone → churn → put the clone back is a no-op: the restored bed observes
    /// exactly what a never-churned bed observes, for any churn seed and
    /// length.
    #[test]
    fn snapshot_restore_erases_arbitrary_churn(seed in any::<u64>(), steps in 1usize..10) {
        let baseline = observe(pristine());
        let mut bed = pristine().clone();
        let snap = bed.systems.clone();
        churn(&mut bed, seed, steps);
        bed.systems = snap;
        prop_assert_eq!(observe(&bed), baseline);
    }

    /// The churned clone never leaks into the pristine original: deep
    /// clones share no mutable state.
    #[test]
    fn churned_clone_leaves_original_untouched(seed in any::<u64>(), steps in 1usize..10) {
        let baseline = observe(pristine());
        let mut clone = pristine().clone();
        churn(&mut clone, seed, steps);
        prop_assert_eq!(observe(pristine()), baseline);
    }
}

#[test]
fn churn_actually_perturbs_observations() {
    // Guard against the properties passing vacuously: a churned bed must
    // observe *differently* before restore (joins alone change the live
    // population).
    let baseline = observe(pristine());
    let mut bed = pristine().clone();
    let snap = bed.systems.clone();
    churn(&mut bed, 0xC0FFEE, 8);
    assert_ne!(observe(&bed), baseline, "churn must be visible before restore");
    bed.systems = snap;
    assert_eq!(observe(&bed), baseline);
}

#[test]
fn cached_bed_fig4_is_byte_identical_to_fresh_build() {
    // A report produced from a cached (shared) bed must be byte-for-byte
    // the report a freshly built bed produces — at every shard count.
    use sim::experiments::{fig4::fig4, Exec};
    use sim::BedCache;
    let cfg = SimConfig { nodes: 256, attrs: 12, values: 50, dimension: 6, ..SimConfig::default() };
    for shards in [1usize, 3] {
        let json = |bed: &TestBed| {
            fig4(bed, [1, 3], 16, 4, Exec { shards, ..Exec::default() }).report().to_json()
        };
        let cache = BedCache::new();
        let cached_json = json(&cache.bed(cfg));
        assert_eq!(cached_json, json(&TestBed::new(cfg)), "cached vs fresh at shards={shards}");
        assert_eq!(cached_json, json(&cache.bed(cfg)), "second cache hit at shards={shards}");
        assert_eq!(cache.builds(), 1, "one build serves every consumer");
    }
}

#[test]
fn cached_churn_prototypes_leave_fig6_byte_identical() {
    // fig6 clones cached prototypes instead of rebuilding per churn
    // rate; the clones must behave exactly like fresh builds, and a
    // second run off the same cache must reproduce the first.
    use sim::experiments::fig6::{fig6, ChurnSetup};
    use sim::BedCache;
    let cfg = SimConfig { nodes: 256, attrs: 12, values: 50, dimension: 6, ..SimConfig::default() };
    let setup = ChurnSetup { requests: 150, rates: vec![0.2, 0.5], ..ChurnSetup::quick() };
    let json = |cache: &BedCache| fig6(&cfg, &setup, Metric::Hops, cache).report().to_json();
    let fresh = json(&BedCache::new());
    let cache = BedCache::new();
    let (cached, again) = (json(&cache), json(&cache));
    assert_eq!(fresh, cached, "a warm cache's prototypes vs a cold cache's builds");
    assert_eq!(cached, again, "prototype clones are reusable");
}
