//! Bed snapshot cache — build each stabilized bed once, reuse everywhere.
//!
//! After the routing fast path (PR 3), the dominant wall-clock cost of
//! every `repro` pipeline is *bed construction*: overlay join +
//! stabilization + report placement, repeated at every sweep point even
//! when the configuration is identical. The paper's metrics are pure
//! functions of a stabilized bed plus a workload, so a bed built once can
//! be shared (read-only experiments) or deep-cloned (churn experiments)
//! wherever seeds and config match.
//!
//! Two kinds of entry:
//!
//! * **Shared beds** ([`BedCache::bed`]): an `Arc<TestBed>` per distinct
//!   [`SimConfig`] fingerprint. Safe to share because every static
//!   experiment takes `&TestBed` and [`dht_core::SeedSpawner`] hands out
//!   streams without interior mutability — a shared bed is
//!   indistinguishable from a fresh one.
//! * **Churn prototypes** ([`BedCache::churn_proto`]): per `(config,
//!   workload-seed, system)` master copies that hand out deep clones via
//!   [`ResourceDiscovery::clone_box`]. A clone carries *all* state
//!   including RNGs, so driving it through a churn schedule is
//!   byte-identical to driving a freshly built system.
//!
//! Determinism contract (enforced by `crates/sim/tests/snapshot.rs`): cache hits must produce **byte-identical**
//! Report JSON to cache misses. This holds because construction is a pure
//! function of `(System, Workload, SimConfig)` and clones are deep.

use crate::setup::{build_system, SimConfig, TestBed};
use analysis::System;
use dht_core::hashing::splitmix64;
use grid_resource::{ResourceDiscovery, Workload};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Collision-resistant fingerprint of every field that influences bed
/// construction. Two configs with equal fingerprints build byte-identical
/// beds; floats enter by bit pattern so `-0.0` vs `0.0` (different bits)
/// are conservatively treated as distinct.
pub fn fingerprint(cfg: &SimConfig) -> u64 {
    let mut h = 0xBED0_5EED_u64;
    let mut mix = |v: u64| h = splitmix64(h ^ v);
    mix(cfg.nodes as u64);
    mix(cfg.attrs as u64);
    mix(cfg.values as u64);
    mix(cfg.dimension as u64);
    mix(cfg.seed);
    match cfg.value_dist {
        grid_resource::ValueDist::Uniform => mix(1),
        grid_resource::ValueDist::BoundedPareto { alpha } => {
            mix(2);
            mix(alpha.to_bits());
        }
    }
    h
}

type BoxedSystem = Box<dyn ResourceDiscovery + Send + Sync>;

/// Build-once cache of stabilized beds and churn prototypes.
///
/// Interior-mutable and `Sync`: one cache instance serves a whole `repro`
/// invocation, including the `systems × shards` thread fan-out. Misses
/// build *outside* the map lock so concurrent first builds of different
/// entries still run in parallel; a lost insert race simply discards one
/// of two identical builds (construction is deterministic).
#[derive(Default)]
pub struct BedCache {
    beds: Mutex<BTreeMap<u64, Arc<TestBed>>>,
    workloads: Mutex<BTreeMap<(u64, u64), Arc<Workload>>>,
    protos: Mutex<BTreeMap<(u64, u64, usize), Arc<BoxedSystem>>>,
    builds: AtomicUsize,
}

impl BedCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Full beds and churn prototypes constructed so far (cache misses).
    /// Tests assert hit/miss behaviour through this counter.
    pub fn builds(&self) -> usize {
        self.builds.load(Ordering::Relaxed)
    }

    /// The shared stabilized bed for `cfg`, building it on first use.
    pub fn bed(&self, cfg: SimConfig) -> Arc<TestBed> {
        let key = fingerprint(&cfg);
        if let Some(bed) = self.beds.lock().ok().and_then(|m| m.get(&key).cloned()) {
            return bed;
        }
        let built = Arc::new(TestBed::new(cfg));
        self.builds.fetch_add(1, Ordering::Relaxed);
        match self.beds.lock() {
            Ok(mut m) => m.entry(key).or_insert(built).clone(),
            // A poisoned map only means another thread panicked mid-insert;
            // the freshly built bed is still valid to hand out.
            Err(_) => built,
        }
    }

    /// Insert an externally assembled bed as the shared entry for its
    /// configuration, returning the shared handle. The perf harness uses
    /// this after timing each `build_system` call individually, so the
    /// pipeline kernels reuse the very beds whose construction was
    /// measured. If an entry already exists it wins (builds are
    /// deterministic, so both are identical).
    pub fn prime(&self, bed: TestBed) -> Arc<TestBed> {
        let key = fingerprint(&bed.cfg);
        let built = Arc::new(bed);
        match self.beds.lock() {
            Ok(mut m) => m.entry(key).or_insert(built).clone(),
            Err(_) => built,
        }
    }

    /// The workload generated from `SmallRng::seed_from_u64(wl_seed)` over
    /// `cfg`'s attribute space — the churn experiments draw their workload
    /// from their own seed rather than the bed's labelled stream, so it is
    /// cached under its provenance, not under the bed.
    pub fn churn_workload(&self, cfg: &SimConfig, wl_seed: u64) -> Arc<Workload> {
        let key = (fingerprint(cfg), wl_seed);
        if let Some(w) = self.workloads.lock().ok().and_then(|m| m.get(&key).cloned()) {
            return w;
        }
        let mut rng = SmallRng::seed_from_u64(wl_seed);
        let built = Arc::new(
            // lint:allow(panic-hygiene): every SimConfig constructible
            // here yields a valid workload config (positive counts).
            Workload::generate(cfg.workload_config(), &mut rng).expect("valid workload config"),
        );
        match self.workloads.lock() {
            Ok(mut m) => m.entry(key).or_insert(built).clone(),
            Err(_) => built,
        }
    }

    /// A deep clone of the stabilized `(system, cfg, workload-seed)`
    /// prototype, building the master copy on first use. The clone is the
    /// caller's to mutate (churn, faults); the master is never touched
    /// after construction.
    pub fn churn_proto(&self, system: System, cfg: &SimConfig, wl_seed: u64) -> BoxedSystem {
        let key = (fingerprint(cfg), wl_seed, system as usize);
        if let Some(p) = self.protos.lock().ok().and_then(|m| m.get(&key).cloned()) {
            return p.clone_box();
        }
        let workload = self.churn_workload(cfg, wl_seed);
        let built: Arc<BoxedSystem> = Arc::new(build_system(system, &workload, cfg));
        self.builds.fetch_add(1, Ordering::Relaxed);
        match self.protos.lock() {
            Ok(mut m) => m.entry(key).or_insert(built).clone_box(),
            Err(_) => built.clone_box(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{query_batch, run_batch, Metric, PARALLEL};
    use dht_core::Summary;
    use grid_resource::{Query, QueryMix};

    fn run_plain(
        sys: &(dyn ResourceDiscovery + Send + Sync),
        batch: &[(usize, Query)],
        metric: Metric,
    ) -> Summary {
        run_batch(sys, batch, metric, PARALLEL, 0)
    }

    fn tiny() -> SimConfig {
        SimConfig { nodes: 64, attrs: 4, values: 8, dimension: 5, ..SimConfig::default() }
    }

    #[test]
    fn fingerprint_separates_configs() {
        // Pinned values: the fingerprint is a pure function of the config,
        // so a change to the mixer must leave them alone.
        assert_eq!(fingerprint(&SimConfig::default()), 0x2eb9_8271_bc3a_8861);
        assert_eq!(fingerprint(&SimConfig::quick()), 0xfa23_a15f_b477_bfe9);
        let a = tiny();
        let fields: Vec<SimConfig> = vec![
            SimConfig { nodes: 65, ..a },
            SimConfig { attrs: 5, ..a },
            SimConfig { values: 9, ..a },
            SimConfig { dimension: 6, ..a },
            SimConfig { seed: a.seed ^ 1, ..a },
            SimConfig { value_dist: grid_resource::ValueDist::BoundedPareto { alpha: 1.5 }, ..a },
        ];
        let base = fingerprint(&a);
        for (i, c) in fields.iter().enumerate() {
            assert_ne!(base, fingerprint(c), "field {i} must perturb the fingerprint");
        }
        assert_eq!(base, fingerprint(&tiny()), "fingerprint is a pure function");
    }

    #[test]
    fn bed_is_built_once_and_shared() {
        let cache = BedCache::new();
        let a = cache.bed(tiny());
        let b = cache.bed(tiny());
        assert!(Arc::ptr_eq(&a, &b), "second request must hit the cache");
        assert_eq!(cache.builds(), 1);
        let other = cache.bed(SimConfig { seed: 7, ..tiny() });
        assert!(!Arc::ptr_eq(&a, &other));
        assert_eq!(cache.builds(), 2);
    }

    #[test]
    fn cached_bed_queries_match_fresh_bed() {
        let cfg = tiny();
        let cache = BedCache::new();
        let cached = cache.bed(cfg);
        let fresh = TestBed::new(cfg);
        let batch = query_batch(
            &fresh.workload,
            cfg.nodes,
            8,
            2,
            2,
            QueryMix::Range,
            fresh.seeds.seed() ^ 0xBED,
        );
        for (c, f) in cached.systems.iter().zip(&fresh.systems) {
            let sc = run_plain(c.as_ref(), &batch, Metric::Hops);
            let sf = run_plain(f.as_ref(), &batch, Metric::Hops);
            assert_eq!(sc, sf, "{}", f.name());
        }
    }

    #[test]
    fn churn_proto_clones_are_independent_and_identical() {
        let cfg = tiny();
        let cache = BedCache::new();
        let wl_seed = cfg.seed ^ 0xF6;
        let mut a = cache.churn_proto(System::Sword, &cfg, wl_seed);
        let b = cache.churn_proto(System::Sword, &cfg, wl_seed);
        assert_eq!(cache.builds(), 1, "one master build serves every clone");
        assert_eq!(a.total_pieces(), b.total_pieces());
        // Mutating one clone must not leak into the other or the master.
        let mut rng = SmallRng::seed_from_u64(3);
        let _ = a.join_physical(&mut rng);
        assert_eq!(a.num_physical(), b.num_physical() + 1);
        let c = cache.churn_proto(System::Sword, &cfg, wl_seed);
        assert_eq!(c.num_physical(), b.num_physical(), "master stays pristine");
    }

    #[test]
    fn churn_proto_matches_fresh_build() {
        let cfg = tiny();
        let cache = BedCache::new();
        let wl_seed = cfg.seed ^ 0xF6;
        let proto = cache.churn_proto(System::Maan, &cfg, wl_seed);
        let mut rng = SmallRng::seed_from_u64(wl_seed);
        let workload = Workload::generate(cfg.workload_config(), &mut rng).unwrap();
        let fresh = build_system(System::Maan, &workload, &cfg);
        let batch = query_batch(&workload, cfg.nodes, 8, 2, 2, QueryMix::Range, cfg.seed ^ 0xBED);
        assert_eq!(
            run_plain(proto.as_ref(), &batch, Metric::Visited),
            run_plain(fresh.as_ref(), &batch, Metric::Visited),
        );
    }
}
