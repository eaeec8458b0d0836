//! Ablations of the design choices DESIGN.md calls out.
//!
//! 1. **Locality-preserving vs hashed value placement** in LORM
//!    (`ablate_placement`): hashing values uniformly balances load exactly
//!    as well, but destroys Proposition 3.1 — every range query must probe
//!    the whole cluster.
//! 2. **Value-distribution skew** (`ablate_value_skew`): the paper
//!    generates values with a Bounded Pareto; this ablation shows how the
//!    LPH load balance of LORM (and Mercury/MAAN) degrades as the skew
//!    grows, which is why the default workload is the uniform grid (see
//!    DESIGN.md's substitution table).
//! 3. **Chord successor-list length** (`ablate_succ_list`): lookup
//!    exactness under abrupt failures as a function of `r`.
//! 4. **Cycloid dimension** (`ablate_dimension`): LORM's hop count and
//!    range-probe count grow with `d` while per-node state stays constant
//!    — the trade the paper's `d = 8` sits on.

use super::maintenance::probe_load;
use super::{answered, map_batch, observe, run_batch, BatchMode, Metric, PARALLEL};
use crate::report::Report;
use crate::setup::{build_system, SimConfig};
use crate::table::Table;
use analysis::System;
use baselines::{CompositeConfig, CompositeFlat};
use chord::{Chord, ChordConfig};
use cycloid::{Cycloid, CycloidConfig, CycloidId};
use dht_core::{Overlay, SeedSpawner, Summary};
use grid_resource::{
    AttrPopularity, Query, QueryMix, QueryPlan, ResourceDiscovery, SubQuery, ValueDist,
    ValueTarget, Workload, WorkloadConfig,
};
use lorm::{Lorm, LormConfig, Placement};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Result row shared by the ablation tables.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationRow {
    /// The swept setting, rendered.
    pub setting: String,
    /// Metric values, matching the table's columns.
    pub values: Vec<f64>,
}

/// A generic ablation result.
#[derive(Debug, Clone)]
pub struct Ablation {
    /// Table title.
    pub title: String,
    /// Column names after the setting column.
    pub columns: Vec<&'static str>,
    /// The rows.
    pub rows: Vec<AblationRow>,
    /// Queries that failed, counted as [`observe`] classifies them: they
    /// enter no row's observations, and the report says how many.
    pub failed: u64,
}

impl Ablation {
    /// Build the structured report.
    pub fn report(&self) -> Report {
        let mut header = vec!["setting"];
        header.extend(self.columns.iter());
        let mut t = Table::new(self.title.clone(), &header);
        for r in &self.rows {
            let mut cells = vec![r.setting.clone()];
            cells.extend(r.values.iter().map(|&v| Table::fmt_f(v)));
            t.row(cells);
        }
        let mut rep = Report::new();
        rep.table(t);
        if self.failed > 0 {
            rep.note(format!(
                "({} queries failed; they count as failures, not observations)",
                self.failed
            ));
        }
        rep
    }
}

/// `queries` random range queries of `arity` attributes, each followed by
/// the draw of its origin — the draw order every ablation batch shares.
fn range_batch(
    workload: &Workload,
    nodes: usize,
    queries: usize,
    arity: usize,
    rng: &mut SmallRng,
) -> Vec<(usize, Query)> {
    (0..queries)
        .map(|_| {
            let q = workload.random_query(arity, QueryMix::Range, rng);
            (rng.gen_range(0..nodes), q)
        })
        .collect()
}

/// Ablation 1: LPH vs hashed placement — range-probe counts and balance.
pub fn ablate_placement(cfg: &SimConfig, queries: usize, shards: usize) -> Ablation {
    let seeds = SeedSpawner::new(cfg.seed ^ 0xAB1);
    let workload =
        Workload::generate(cfg.workload_config(), &mut seeds.labelled(1)).expect("valid config");
    let batch = range_batch(&workload, cfg.nodes, queries, 1, &mut seeds.labelled(2));
    let mut rows = Vec::new();
    let mut failed = 0;
    for (label, placement) in
        [("LPH (paper)", Placement::Lph), ("hashed (ablation)", Placement::Hashed)]
    {
        let mut sys = Lorm::new(
            cfg.nodes,
            &workload.space,
            LormConfig { dimension: cfg.dimension, seed: cfg.seed, placement },
        );
        sys.place_all(&workload.reports);
        let mut visited = Summary::new();
        let mut complete = 0usize;
        let resolved = map_batch(&sys, &batch, PARALLEL, shards, |r| r);
        for ((_, q), r) in batch.iter().zip(&resolved) {
            observe(&mut visited, r, |o| o.tally.visited as f64);
            let Some(out) = answered(r) else { continue };
            let sub = q.subs[0];
            let mut expected: Vec<usize> = workload
                .reports
                .iter()
                .filter(|r| r.attr == sub.attr && sub.target.matches(r.value))
                .map(|r| r.owner)
                .collect();
            expected.sort_unstable();
            expected.dedup();
            let mut got = out.owners.clone();
            got.sort_unstable();
            if got == expected {
                complete += 1;
            }
        }
        failed += visited.failures();
        let loads = sys.directory_loads();
        rows.push(AblationRow {
            setting: label.into(),
            values: vec![
                visited.mean(),
                complete as f64 / queries as f64 * 100.0,
                loads.p99(),
                loads.cv(),
            ],
        });
    }
    Ablation {
        title: "Ablation: locality-preserving vs hashed value placement (LORM range queries)"
            .into(),
        columns: vec!["avg probes", "complete %", "dir p99", "dir cv"],
        rows,
        failed,
    }
}

/// Ablation 2: value-distribution skew vs LORM directory balance.
pub fn ablate_value_skew(cfg: &SimConfig) -> Ablation {
    let dists = [
        ("uniform", ValueDist::Uniform),
        ("pareto a=0.25", ValueDist::BoundedPareto { alpha: 0.25 }),
        ("pareto a=0.5", ValueDist::BoundedPareto { alpha: 0.5 }),
        ("pareto a=1.0", ValueDist::BoundedPareto { alpha: 1.0 }),
    ];
    let mut rows = Vec::new();
    for (label, dist) in dists {
        let wl_cfg = WorkloadConfig { value_dist: dist, ..cfg.workload_config() };
        let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0xAB2);
        let workload = Workload::generate(wl_cfg, &mut rng).expect("valid config");
        let mut sys = Lorm::new(
            cfg.nodes,
            &workload.space,
            LormConfig { dimension: cfg.dimension, seed: cfg.seed, ..LormConfig::default() },
        );
        sys.place_all(&workload.reports);
        let loads = sys.directory_loads();
        rows.push(AblationRow {
            setting: label.into(),
            values: vec![loads.mean(), loads.p99(), loads.max(), loads.cv()],
        });
    }
    Ablation {
        title: "Ablation: value-distribution skew vs LORM directory balance".into(),
        columns: vec!["avg", "p99", "max", "cv"],
        rows,
        failed: 0,
    }
}

/// Ablation 3: Chord successor-list length vs lookup exactness under
/// abrupt, unrepaired failures.
pub fn ablate_succ_list(n: usize, fail_fraction: f64, lookups: usize, seed: u64) -> Ablation {
    let mut rows = Vec::new();
    for r in [1usize, 2, 4, 8] {
        let mut net = Chord::build(n, ChordConfig { succ_list_len: r, seed });
        let mut rng = SmallRng::seed_from_u64(seed ^ r as u64);
        let kill = ((n as f64) * fail_fraction) as usize;
        for _ in 0..kill {
            if let Some(v) = net.random_node(&mut rng) {
                let _ = net.fail(v);
            }
        }
        let mut exact = 0usize;
        let mut completed = 0usize;
        let mut hops = Summary::new();
        for _ in 0..lookups {
            let from = net.random_node(&mut rng).expect("live node");
            let key: u64 = rng.gen();
            if let Ok(route) = net.route_stats(from, key) {
                completed += 1;
                hops.record(route.hops as f64);
                if route.exact {
                    exact += 1;
                }
            }
        }
        rows.push(AblationRow {
            setting: format!("r = {r}"),
            values: vec![
                completed as f64 / lookups as f64 * 100.0,
                exact as f64 / lookups as f64 * 100.0,
                hops.mean(),
            ],
        });
    }
    Ablation {
        title: format!(
            "Ablation: Chord successor-list length under {:.0}% abrupt failures (n = {n})",
            fail_fraction * 100.0
        ),
        columns: vec!["completed %", "exact %", "avg hops"],
        rows,
        failed: 0,
    }
}

/// Ablation 4: Cycloid dimension — hops, probes and state per node.
pub fn ablate_dimension(dims: &[u8], lookups: usize, seed: u64) -> Ablation {
    let mut rows = Vec::new();
    for &d in dims {
        let n = d as usize * (1usize << d);
        let net = Cycloid::build(n, CycloidConfig { dimension: d, seed });
        let mut rng = SmallRng::seed_from_u64(seed ^ d as u64);
        let mut hops = Summary::new();
        for _ in 0..lookups {
            let from = net.random_node(&mut rng).expect("live");
            let key = CycloidId::new(rng.gen_range(0..d), rng.gen_range(0..(1u32 << d)), d);
            if let Ok(route) = net.route_stats(from, key) {
                hops.record(route.hops as f64);
            }
        }
        let links: usize = net.live_nodes().iter().map(|i| net.outlinks(i).unwrap_or(0)).sum();
        rows.push(AblationRow {
            setting: format!("d = {d} (n = {n})"),
            values: vec![
                hops.mean(),
                1.0 + d as f64 / 4.0, // expected range probes (T4.9)
                links as f64 / n as f64,
            ],
        });
    }
    Ablation {
        title: "Ablation: Cycloid dimension vs lookup cost and node state".into(),
        columns: vec!["avg hops", "range probes (1+d/4)", "outlinks/node"],
        rows,
        failed: 0,
    }
}

/// Ablation 6: multi-attribute query planning across all four systems —
/// parallel (§III) vs sequential document-order vs adaptive
/// selective-first resolution. Same answers on every system; the plans
/// trade result-transfer volume (matches shipped to the requester) and
/// lookup traffic against serialized latency. One shared query batch
/// drives every (system, plan) cell so the columns are comparable.
pub fn ablate_query_plan(cfg: &SimConfig, queries: usize, arity: usize, shards: usize) -> Ablation {
    let seeds = SeedSpawner::new(cfg.seed ^ 0xAB6);
    let workload =
        Workload::generate(cfg.workload_config(), &mut seeds.labelled(1)).expect("valid config");
    let batch = range_batch(&workload, cfg.nodes, queries, arity, &mut seeds.labelled(2));
    let mut rows = Vec::new();
    let mut failed = 0;
    for &system in System::ALL.iter() {
        let sys = build_system(system, &workload, cfg);
        for plan in QueryPlan::ALL {
            let cells =
                [Metric::Matches, Metric::Lookups, Metric::Visited, Metric::Hops].map(|metric| {
                    run_batch(sys.as_ref(), &batch, metric, BatchMode::Direct(plan), shards)
                });
            failed += cells[0].failures();
            rows.push(AblationRow {
                setting: format!("{}/{}", system.name(), plan.name()),
                values: cells.iter().map(Summary::mean).collect(),
            });
        }
    }
    Ablation {
        title: format!(
            "Ablation: query plan x system, {arity}-attribute range queries (transfer vs latency)"
        ),
        columns: vec!["pieces shipped", "lookups", "probes", "hops"],
        rows,
        failed,
    }
}

/// Ablation 7: does LORM need Cycloid's hierarchy? Compare LORM against
/// [`CompositeFlat`] — the same two-level index (attribute prefix +
/// locality-preserved value suffix) emulated on a *flat* Chord — on the
/// three axes where the hierarchy could matter: maintenance state, average
/// range probing, and the worst-case (full-domain) probe count, where only
/// the real cluster gives a hard `d` cap.
pub fn ablate_flat_lorm(cfg: &SimConfig, queries: usize, shards: usize) -> Ablation {
    let seeds = SeedSpawner::new(cfg.seed ^ 0xAB7);
    let workload =
        Workload::generate(cfg.workload_config(), &mut seeds.labelled(1)).expect("valid config");
    let mut lorm = Lorm::new(
        cfg.nodes,
        &workload.space,
        LormConfig { dimension: cfg.dimension, seed: cfg.seed, ..LormConfig::default() },
    );
    lorm.place_all(&workload.reports);
    // prefix bits so that segment population ~= cluster size d
    let prefix_bits = (cfg.nodes as f64 / cfg.dimension as f64).log2().round() as u8;
    let mut flat = CompositeFlat::new(
        cfg.nodes,
        &workload.space,
        CompositeConfig { seed: cfg.seed, prefix_bits: prefix_bits.clamp(1, 20) },
    );
    flat.place_all(&workload.reports);

    let batch = range_batch(&workload, cfg.nodes, queries, 1, &mut seeds.labelled(2));
    // worst case: full-domain ranges over every attribute, from node 0
    let (dmin, dmax) = workload.space.domain();
    let worst_batch: Vec<(usize, Query)> = workload
        .space
        .ids()
        .map(|attr| {
            let sub = SubQuery { attr, target: ValueTarget::Range { low: dmin, high: dmax } };
            (0, Query::new(vec![sub]).expect("valid range"))
        })
        .collect();
    let mut failed = 0;
    let mut measure = |sys: &(dyn ResourceDiscovery + Send + Sync), label: &str| {
        let probes = run_batch(sys, &batch, Metric::Visited, PARALLEL, shards);
        let worst = run_batch(sys, &worst_batch, Metric::Visited, PARALLEL, shards);
        failed += probes.failures() + worst.failures();
        AblationRow {
            setting: label.into(),
            values: vec![
                sys.outlinks_per_node().mean(),
                sys.directory_loads().p99(),
                probes.mean(),
                // 0 rather than NaN when every worst-case query failed
                worst.max().max(0.0),
            ],
        }
    };
    let rows = vec![
        measure(&lorm, "LORM (Cycloid)"),
        measure(&flat, &format!("flat composite (Chord, P={prefix_bits})")),
    ];
    Ablation {
        title: "Ablation: Cycloid hierarchy vs flat composite keys".into(),
        columns: vec!["outlinks", "dir p99", "avg range probes", "worst-case probes"],
        rows,
        failed,
    }
}

/// Ablation 5: attribute popularity — real grids query a few hot
/// attributes far more than others. Zipf-skewed attribute selection
/// concentrates query load on the hot attributes' directory nodes; this
/// measures the per-node probe hotspot (max probes on one node) for each
/// system as the skew grows.
pub fn ablate_attr_popularity(cfg: &SimConfig, queries: usize, shards: usize) -> Ablation {
    let mut rows = Vec::new();
    let mut failed = 0;
    for (label, pop) in [
        ("uniform", AttrPopularity::Uniform),
        ("zipf s=0.8", AttrPopularity::Zipf { exponent: 0.8 }),
        ("zipf s=1.5", AttrPopularity::Zipf { exponent: 1.5 }),
    ] {
        let wl_cfg = WorkloadConfig { attr_popularity: pop, ..cfg.workload_config() };
        let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0xAB5);
        let workload = Workload::generate(wl_cfg, &mut rng).expect("valid config");
        // one batch per popularity level, shared by every system
        let batch = range_batch(&workload, cfg.nodes, queries, 1, &mut rng);
        let mut maxima = Vec::with_capacity(System::ALL.len());
        for s in System::ALL {
            let sys = build_system(s, &workload, cfg);
            let (counts, probes) = probe_load(sys.as_ref(), &batch, shards);
            maxima.push(counts.iter().copied().max().unwrap_or(0) as f64);
            failed += probes.failures();
        }
        rows.push(AblationRow { setting: label.into(), values: maxima });
    }
    Ablation {
        title: "Ablation: attribute popularity (Zipf) vs per-node probe hotspot (max probes)"
            .into(),
        columns: vec!["LORM", "Mercury", "SWORD", "MAAN"],
        rows,
        failed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> SimConfig {
        // full population so clusters have all d members
        SimConfig { nodes: 2048, attrs: 20, values: 60, dimension: 8, ..SimConfig::default() }
    }

    #[test]
    fn placement_ablation_shows_lph_wins_probes() {
        let ab = ablate_placement(&small_cfg(), 120, 1);
        assert_eq!(ab.rows.len(), 2);
        let lph = &ab.rows[0];
        let hashed = &ab.rows[1];
        // both stay complete...
        assert_eq!(lph.values[1], 100.0, "LPH completeness");
        assert_eq!(hashed.values[1], 100.0, "hashed completeness");
        // ...but hashing probes more nodes per range query
        assert!(
            hashed.values[0] > lph.values[0] * 1.2,
            "hashed probes {} vs lph {}",
            hashed.values[0],
            lph.values[0]
        );
    }

    #[test]
    fn skew_ablation_degrades_balance() {
        let ab = ablate_value_skew(&small_cfg());
        assert_eq!(ab.rows.len(), 4);
        let uniform_max = ab.rows[0].values[2];
        let pareto1_max = ab.rows[3].values[2];
        assert!(
            pareto1_max > 2.0 * uniform_max,
            "skew must pile load onto few nodes: max {uniform_max} -> {pareto1_max}"
        );
        let uniform_cv = ab.rows[0].values[3];
        let pareto1_cv = ab.rows[3].values[3];
        assert!(pareto1_cv > 1.2 * uniform_cv, "cv {uniform_cv} -> {pareto1_cv}");
        // averages stay equal — skew moves the tail, not the mean
        assert!((ab.rows[0].values[0] - ab.rows[3].values[0]).abs() < 1.0);
    }

    #[test]
    fn succ_list_ablation_improves_with_r() {
        let ab = ablate_succ_list(300, 0.15, 300, 0x5CC);
        let exact_r1 = ab.rows[0].values[1];
        let exact_r8 = ab.rows[3].values[1];
        assert!(exact_r8 >= exact_r1, "longer lists cannot hurt: {exact_r1} -> {exact_r8}");
        assert!(exact_r8 > 90.0, "r=8 should make nearly all lookups exact: {exact_r8}");
    }

    #[test]
    fn dimension_ablation_hops_grow_with_d() {
        let ab = ablate_dimension(&[5, 7], 400, 0xD1);
        assert!(ab.rows[1].values[0] > ab.rows[0].values[0]);
        // constant state
        assert!((ab.rows[1].values[2] - ab.rows[0].values[2]).abs() < 2.0);
        // renders
        assert!(ab.report().to_string().contains("d = 5"));
    }

    #[test]
    fn attr_popularity_skew_hits_sword_hardest() {
        let cfg =
            SimConfig { nodes: 384, dimension: 6, attrs: 15, values: 40, ..SimConfig::default() };
        let ab = ablate_attr_popularity(&cfg, 150, 1);
        assert_eq!(ab.rows.len(), 3);
        // SWORD's hotspot (column index 2) grows sharply under zipf 1.5
        let uniform_sword = ab.rows[0].values[2];
        let zipf_sword = ab.rows[2].values[2];
        assert!(
            zipf_sword > 1.5 * uniform_sword,
            "SWORD hotspot should grow with popularity skew: {uniform_sword} -> {zipf_sword}"
        );
        // Mercury's hotspot stays comparatively flat
        let uniform_merc = ab.rows[0].values[1];
        let zipf_merc = ab.rows[2].values[1];
        assert!(zipf_merc < 2.0 * uniform_merc.max(1.0));
    }

    #[test]
    fn query_plan_ablation_shows_transfer_savings() {
        let cfg =
            SimConfig { nodes: 384, dimension: 6, attrs: 15, values: 40, ..SimConfig::default() };
        let ab = ablate_query_plan(&cfg, 100, 4, 1);
        // 4 systems x 3 plans, in System::ALL x QueryPlan::ALL order
        assert_eq!(ab.rows.len(), 12);
        for (s, system) in System::ALL.iter().enumerate() {
            let parallel = &ab.rows[3 * s];
            let sequential = &ab.rows[3 * s + 1];
            let adaptive = &ab.rows[3 * s + 2];
            assert!(parallel.setting.starts_with(system.name()));
            assert!(adaptive.setting.ends_with("adaptive"));
            // the ISSUE acceptance bar: adaptive ships <= 0.5x parallel's
            // transfer volume on every system at arity 4
            assert!(
                adaptive.values[0] * 2.0 <= parallel.values[0],
                "{}: adaptive transfer {} vs parallel {}",
                system.name(),
                adaptive.values[0],
                parallel.values[0]
            );
            // adaptive never ships more than document-order sequential
            assert!(adaptive.values[0] <= sequential.values[0] + 1e-9);
            // probes can only be fewer (short-circuits), never more
            assert!(adaptive.values[2] <= parallel.values[2] + 1e-9);
        }
    }

    #[test]
    fn failed_queries_are_counted_and_noted() {
        // A query from a failed origin errors: the probe count skips it and
        // counts it, and the ablation's report says so.
        let cfg =
            SimConfig { nodes: 384, dimension: 6, attrs: 15, values: 40, ..SimConfig::default() };
        let mut rng = SmallRng::seed_from_u64(0xFA1);
        let workload = Workload::generate(cfg.workload_config(), &mut rng).unwrap();
        let mut sys = build_system(System::Lorm, &workload, &cfg);
        sys.fail_physical(7).unwrap();
        let mut batch = range_batch(&workload, cfg.nodes, 30, 1, &mut rng);
        batch.retain(|&(phys, _)| phys != 7);
        let (clean, none) = probe_load(sys.as_ref(), &batch, 1);
        assert_eq!(none.failures(), 0);
        let q = batch[0].1.clone();
        batch.push((7, q));
        let (counts, probes) = probe_load(sys.as_ref(), &batch, 3);
        assert_eq!((counts, probes.failures(), probes.count()), (clean, 1, none.count()));
        let failed = probes.failures();
        let ab = Ablation { title: "t".into(), columns: vec!["LORM"], rows: vec![], failed };
        assert_eq!(
            ab.report().notes(),
            ["(1 queries failed; they count as failures, not observations)"]
        );
        assert!(Ablation { failed: 0, ..ab }.report().notes().is_empty());
    }

    #[test]
    fn flat_lorm_ablation_shows_what_hierarchy_buys() {
        let cfg =
            SimConfig { nodes: 896, dimension: 7, attrs: 25, values: 60, ..SimConfig::default() };
        let ab = ablate_flat_lorm(&cfg, 150, 1);
        let lorm = &ab.rows[0].values;
        let flat = &ab.rows[1].values;
        // constant degree vs log n state
        assert!(lorm[0] < flat[0], "LORM outlinks {} < flat {}", lorm[0], flat[0]);
        // average range probes comparable (both segment-scale) ...
        assert!(flat[2] < 20.0, "flat avg probes {}", flat[2]);
        // ... but only the real cluster caps the worst case at d
        assert!(lorm[3] <= cfg.dimension as f64 + 1.0, "LORM worst {}", lorm[3]);
        assert!(flat[3] > lorm[3], "flat worst {} should exceed LORM {}", flat[3], lorm[3]);
    }
}
