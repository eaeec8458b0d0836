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

use super::{run_batch, BatchMode, Metric};
use crate::report::Report;
use crate::setup::{build_system, SimConfig};
use crate::table::Table;
use analysis::System;
use baselines::{CompositeConfig, CompositeFlat};
use chord::{Chord, ChordConfig};
use cycloid::{Cycloid, CycloidConfig, CycloidId};
use dht_core::{Overlay, SeedSpawner, Summary};
use grid_resource::ValueTarget;
use grid_resource::{
    AttrPopularity, Query, QueryMix, QueryPlan, ResourceDiscovery, ValueDist, Workload,
    WorkloadConfig,
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
        rep
    }
}

/// Ablation 1: LPH vs hashed placement — range-probe counts and balance.
pub fn ablate_placement(cfg: &SimConfig, queries: usize) -> Ablation {
    let seeds = SeedSpawner::new(cfg.seed ^ 0xAB1);
    let workload =
        Workload::generate(cfg.workload_config(), &mut seeds.labelled(1)).expect("valid config");
    let mut rows = Vec::new();
    for (label, placement) in
        [("LPH (paper)", Placement::Lph), ("hashed (ablation)", Placement::Hashed)]
    {
        let mut sys = Lorm::new(
            cfg.nodes,
            &workload.space,
            LormConfig { dimension: cfg.dimension, seed: cfg.seed, placement },
        );
        sys.place_all(&workload.reports);
        let mut rng = seeds.labelled(2);
        let mut visited = Summary::new();
        let mut complete = 0usize;
        for _ in 0..queries {
            let q = workload.random_query(1, QueryMix::Range, &mut rng);
            let sub = q.subs[0];
            if let Ok(out) = sys.query_from(rng.gen_range(0..cfg.nodes), &q) {
                visited.record(out.tally.visited as f64);
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
        }
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
        let links: usize = net.live_nodes().iter().map(|&i| net.outlinks(i).unwrap_or(0)).sum();
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
    }
}

/// Ablation 6: multi-attribute query planning across all four systems —
/// parallel (§III) vs sequential document-order vs adaptive
/// selective-first resolution. Same answers on every system; the plans
/// trade result-transfer volume (matches shipped to the requester) and
/// lookup traffic against serialized latency. One shared query batch
/// drives every (system, plan) cell so the columns are comparable.
pub fn ablate_query_plan(cfg: &SimConfig, queries: usize, arity: usize) -> Ablation {
    let seeds = SeedSpawner::new(cfg.seed ^ 0xAB6);
    let workload =
        Workload::generate(cfg.workload_config(), &mut seeds.labelled(1)).expect("valid config");
    let mut rng = seeds.labelled(2);
    let batch: Vec<(usize, Query)> = (0..queries)
        .map(|_| {
            let q = workload.random_query(arity, QueryMix::Range, &mut rng);
            (rng.gen_range(0..cfg.nodes), q)
        })
        .collect();
    let mut rows = Vec::new();
    for &system in System::ALL.iter() {
        let sys = build_system(system, &workload, cfg);
        for plan in QueryPlan::ALL {
            let cell = |metric| run_batch(sys.as_ref(), &batch, metric, BatchMode::Direct(plan), 1);
            rows.push(AblationRow {
                setting: format!("{}/{}", system.name(), plan.name()),
                values: vec![
                    cell(Metric::Matches).mean(),
                    cell(Metric::Lookups).mean(),
                    cell(Metric::Visited).mean(),
                    cell(Metric::Hops).mean(),
                ],
            });
        }
    }
    Ablation {
        title: format!(
            "Ablation: query plan x system, {arity}-attribute range queries (transfer vs latency)"
        ),
        columns: vec!["pieces shipped", "lookups", "probes", "hops"],
        rows,
    }
}

/// Ablation 7: does LORM need Cycloid's hierarchy? Compare LORM against
/// [`CompositeFlat`] — the same two-level index (attribute prefix +
/// locality-preserved value suffix) emulated on a *flat* Chord — on the
/// three axes where the hierarchy could matter: maintenance state, average
/// range probing, and the worst-case (full-domain) probe count, where only
/// the real cluster gives a hard `d` cap.
pub fn ablate_flat_lorm(cfg: &SimConfig, queries: usize) -> Ablation {
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

    let measure = |sys: &dyn ResourceDiscovery, label: &str| {
        let mut rng = seeds.labelled(2);
        let mut probes = Summary::new();
        for _ in 0..queries {
            let q = workload.random_query(1, QueryMix::Range, &mut rng);
            if let Ok(out) = sys.query_from(rng.gen_range(0..cfg.nodes), &q) {
                probes.record(out.tally.visited as f64);
            }
        }
        // worst case: full-domain ranges over every attribute
        let (dmin, dmax) = workload.space.domain();
        let mut worst = 0usize;
        for attr in workload.space.ids() {
            let q = grid_resource::Query::new(vec![grid_resource::SubQuery {
                attr,
                target: ValueTarget::Range { low: dmin, high: dmax },
            }])
            .expect("valid range");
            if let Ok(out) = sys.query_from(0, &q) {
                worst = worst.max(out.tally.visited);
            }
        }
        AblationRow {
            setting: label.into(),
            values: vec![
                sys.outlinks_per_node().mean(),
                sys.directory_loads().p99(),
                probes.mean(),
                worst as f64,
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
    }
}

/// Ablation 5: attribute popularity — real grids query a few hot
/// attributes far more than others. Zipf-skewed attribute selection
/// concentrates query load on the hot attributes' directory nodes; this
/// measures the per-node probe hotspot (max probes on one node) for each
/// system as the skew grows.
pub fn ablate_attr_popularity(cfg: &SimConfig, queries: usize) -> Ablation {
    use analysis::System;
    let mut rows = Vec::new();
    for (label, pop) in [
        ("uniform", AttrPopularity::Uniform),
        ("zipf s=0.8", AttrPopularity::Zipf { exponent: 0.8 }),
        ("zipf s=1.5", AttrPopularity::Zipf { exponent: 1.5 }),
    ] {
        let wl_cfg = WorkloadConfig { attr_popularity: pop, ..cfg.workload_config() };
        let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0xAB5);
        let workload = Workload::generate(wl_cfg, &mut rng).expect("valid config");
        let mut maxima = Vec::with_capacity(System::ALL.len());
        for s in System::ALL {
            let sys = crate::setup::build_system(s, &workload, cfg);
            let mut counts: Vec<usize> = vec![0; cfg.nodes];
            for _ in 0..queries {
                let q = workload.random_query(1, QueryMix::Range, &mut rng);
                let origin = rng.gen_range(0..cfg.nodes);
                if let Ok(out) = sys.query_from(origin, &q) {
                    for n in out.probed {
                        if counts.len() <= n.0 {
                            counts.resize(n.0 + 1, 0);
                        }
                        counts[n.0] += 1;
                    }
                }
            }
            maxima.push(counts.iter().copied().max().unwrap_or(0) as f64);
        }
        rows.push(AblationRow { setting: label.into(), values: maxima });
    }
    Ablation {
        title: "Ablation: attribute popularity (Zipf) vs per-node probe hotspot (max probes)"
            .into(),
        columns: vec!["LORM", "Mercury", "SWORD", "MAAN"],
        rows,
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
        let ab = ablate_placement(&small_cfg(), 120);
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
        let ab = ablate_attr_popularity(&cfg, 150);
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
        let ab = ablate_query_plan(&cfg, 100, 4);
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
    fn flat_lorm_ablation_shows_what_hierarchy_buys() {
        let cfg =
            SimConfig { nodes: 896, dimension: 7, attrs: 25, values: 60, ..SimConfig::default() };
        let ab = ablate_flat_lorm(&cfg, 150);
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
