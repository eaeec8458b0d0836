//! Resource-information maintenance cost — the second overhead the paper
//! analyzes (§IV.A text around Theorems 4.2–4.4): every node reports its
//! available resources periodically through routed `Insert(rescID,
//! rescInfo)` calls. This experiment delivers one full reporting round
//! through the routed path and accounts its cost per system:
//!
//! * LORM, SWORD, Mercury — one lookup per report;
//! * MAAN — **two** lookups per report (attribute and value registration),
//!   which is Theorem 4.2's 2× in routed-message form;
//! * hop costs follow the substrate (`d` for Cycloid, `log₂n/2` per lookup
//!   for Chord).
//!
//! It also measures the *query-processing load balance*: how evenly the
//! directory probes of a query batch spread over nodes (the "avoid
//! bottlenecks" claim around Theorem 4.6).

use crate::experiments::{answered, map_batch, observe, query_batch, PARALLEL};
use crate::report::Report;
use crate::setup::{build_system, SimConfig, TestBed};
use crate::table::Table;
use analysis::System;
use dht_core::{LoadDist, Summary};
use grid_resource::{Query, QueryMix, ResourceDiscovery, Workload};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Per-system routed registration cost.
#[derive(Debug, Clone, PartialEq)]
pub struct RegistrationRow {
    /// System name.
    pub system: &'static str,
    /// Reports delivered.
    pub reports: usize,
    /// Average routing hops per report.
    pub avg_hops: f64,
    /// Average DHT lookups per report (2 for MAAN, 1 elsewhere).
    pub avg_lookups: f64,
    /// Total messages (hops) for the full reporting round.
    pub total_hops: f64,
}

/// The registration-cost experiment result.
#[derive(Debug, Clone)]
pub struct Registration {
    /// One row per system.
    pub rows: Vec<RegistrationRow>,
    /// Per-system routing-hop summaries (`System::ALL` order) — full
    /// precision, including the count of reports that failed to deliver.
    pub summaries: Vec<(&'static str, Summary)>,
}

/// Deliver every report of a fresh workload through the routed insert
/// path, per system.
pub fn registration_cost(cfg: &SimConfig) -> Registration {
    let mut wl_rng = SmallRng::seed_from_u64(cfg.seed ^ 0x4E6);
    let workload = Workload::generate(cfg.workload_config(), &mut wl_rng).expect("valid config");
    let mut rows = Vec::new();
    let mut summaries = Vec::new();
    for s in System::ALL {
        let mut sys = build_system(s, &workload, cfg);
        // build_system pre-places; start the measured round from scratch
        sys.place_all(&[]);
        let mut hops = Summary::new();
        let mut lookups = Summary::new();
        for &r in &workload.reports {
            match sys.register(r) {
                Ok(t) => {
                    hops.record(t.hops as f64);
                    lookups.record(t.lookups as f64);
                }
                Err(_) => hops.record_failure(),
            }
        }
        rows.push(RegistrationRow {
            system: s.name(),
            reports: workload.reports.len(),
            avg_hops: hops.mean(),
            avg_lookups: lookups.mean(),
            total_hops: hops.total(),
        });
        summaries.push((s.name(), hops));
    }
    Registration { rows, summaries }
}

impl Registration {
    /// Build the structured report.
    pub fn report(&self) -> Report {
        let mut t = Table::new(
            "Maintenance: routed cost of one full reporting round (Insert per rescInfo)",
            &["system", "reports", "avg hops", "avg lookups", "total hops"],
        );
        for r in &self.rows {
            t.row(vec![
                r.system.to_string(),
                r.reports.to_string(),
                Table::fmt_f(r.avg_hops),
                Table::fmt_f(r.avg_lookups),
                Table::fmt_f(r.total_hops),
            ]);
        }
        let mut rep = Report::new();
        rep.table(t);
        for (name, s) in &self.summaries {
            rep.summary(*name, s.clone());
        }
        rep
    }
}

/// Per-system query-processing load distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryLoadRow {
    /// System name.
    pub system: &'static str,
    /// Mean probes handled per live node over the batch.
    pub mean: f64,
    /// 99th percentile of per-node probes.
    pub p99: f64,
    /// Maximum probes on one node.
    pub max: f64,
    /// Coefficient of variation (imbalance measure).
    pub cv: f64,
}

/// The query-load-balance experiment result.
#[derive(Debug, Clone)]
pub struct QueryLoad {
    /// One row per system.
    pub rows: Vec<QueryLoadRow>,
    /// Per-system probes-per-query summaries (`System::ALL` order) —
    /// full precision, including the count of queries that errored.
    pub summaries: Vec<(&'static str, Summary)>,
    /// Queries in the batch.
    pub queries: usize,
}

/// Issue a mixed query batch on `shards` workers (as
/// [`fold_batch`](super::fold_batch) reads them) and count, per node, how
/// many directory probes it handled.
pub fn query_load_balance(bed: &TestBed, queries: usize, arity: usize, shards: usize) -> QueryLoad {
    let batch = query_batch(
        &bed.workload,
        bed.cfg.nodes,
        queries,
        1,
        arity,
        QueryMix::Range,
        bed.cfg.seed ^ 0x10AD,
    );
    let mut rows = Vec::new();
    let mut summaries = Vec::new();
    for s in System::ALL {
        let (mut counts, sum) = probe_load(bed.system(s), &batch, shards);
        counts.resize(counts.len().max(bed.cfg.nodes), 0);
        let dist = LoadDist::from_counts(&counts);
        rows.push(QueryLoadRow {
            system: s.name(),
            mean: dist.mean(),
            p99: dist.p99(),
            max: dist.max(),
            cv: dist.cv(),
        });
        summaries.push((s.name(), sum));
    }
    QueryLoad { rows, summaries, queries: batch.len() }
}

/// Directory probes handled per node over `batch` (indexed by overlay
/// arena slot, trailing idle nodes left out), and the summary of probes
/// per query.
pub(crate) fn probe_load(
    sys: &(dyn ResourceDiscovery + Send + Sync),
    batch: &[(usize, Query)],
    shards: usize,
) -> (Vec<usize>, Summary) {
    let mut counts: Vec<usize> = Vec::new();
    let mut sum = Summary::new();
    for r in map_batch(sys, batch, PARALLEL, shards, |r| r) {
        observe(&mut sum, &r, |o| o.probed.len() as f64);
        for n in answered(&r).map_or(&[][..], |o| &o.probed) {
            if counts.len() <= n.0 {
                counts.resize(n.0 + 1, 0);
            }
            counts[n.0] += 1;
        }
    }
    (counts, sum)
}

impl QueryLoad {
    /// Build the structured report.
    pub fn report(&self) -> Report {
        let mut t = Table::new(
            format!(
                "Query-processing load per node over {} range queries (Theorem 4.6's balance claim)",
                self.queries
            ),
            &["system", "mean", "p99", "max", "cv"],
        );
        for r in &self.rows {
            t.row(vec![
                r.system.to_string(),
                Table::fmt_f(r.mean),
                Table::fmt_f(r.p99),
                Table::fmt_f(r.max),
                Table::fmt_f(r.cv),
            ]);
        }
        let mut rep = Report::new();
        rep.table(t);
        for (name, s) in &self.summaries {
            rep.summary(*name, s.clone());
        }
        rep
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SimConfig {
        SimConfig { nodes: 896, dimension: 7, attrs: 25, values: 60, ..SimConfig::default() }
    }

    #[test]
    fn maan_registration_doubles_lookups() {
        let reg = registration_cost(&cfg());
        let get = |n: &str| reg.rows.iter().find(|r| r.system == n).expect("row");
        assert_eq!(get("MAAN").avg_lookups, 2.0);
        for s in ["LORM", "Mercury", "SWORD"] {
            assert_eq!(get(s).avg_lookups, 1.0, "{s}");
        }
        // MAAN's total maintenance messages ~2x Mercury/SWORD's
        let ratio = get("MAAN").total_hops / get("Mercury").total_hops;
        assert!((1.6..2.4).contains(&ratio), "MAAN/Mercury maintenance ratio {ratio}");
        // LORM's per-report hops sit between Chord's and MAAN's
        assert!(get("LORM").avg_hops > get("Mercury").avg_hops);
        assert!(get("LORM").avg_hops < get("MAAN").avg_hops);
    }

    #[test]
    fn sword_concentrates_query_load_lorm_spreads_it() {
        // few attributes + many queries: per-attribute hotspots emerge
        let bed = TestBed::new(SimConfig { attrs: 8, ..cfg() });
        let load = query_load_balance(&bed, 400, 1, 1);
        let get = |n: &str| load.rows.iter().find(|r| r.system == n).expect("row");
        // SWORD funnels every probe of an attribute to one node: its max
        // per-node load dwarfs LORM's (which spreads over the cluster).
        assert!(
            get("SWORD").max > 1.5 * get("LORM").max,
            "SWORD max {} vs LORM max {}",
            get("SWORD").max,
            get("LORM").max
        );
        // Mercury's system-wide walks spread the most evenly (lowest cv).
        assert!(get("Mercury").cv < get("SWORD").cv);
        assert!(get("Mercury").cv < get("MAAN").cv);
    }
}
