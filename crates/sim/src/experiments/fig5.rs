//! Figure 5 — visited nodes of range queries.
//!
//! The paper issues 1000 range queries per arity and reports the total
//! number of *visited nodes* (nodes that receive the query and check
//! their directory) per system, next to the Theorem 4.9 closed forms:
//! `m(1 + n/4)` Mercury, `m(2 + n/4)` MAAN, `m(1 + d/4)` LORM, `m` SWORD
//! (513m / 514m / 3m / m for the paper's parameters).

use crate::experiments::{query_batch, run_batch_all, summary_of, Exec, Metric};
use crate::report::Report;
use crate::setup::TestBed;
use crate::table::Table;
use analysis::{self as th, System};
use dht_core::Summary;
use grid_resource::QueryMix;

/// One arity's measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Row {
    /// Attributes per query.
    pub arity: usize,
    /// Total visited nodes over the batch: LORM, Mercury, SWORD, MAAN.
    pub total: [f64; 4],
    /// Average visited nodes per query, same order.
    pub avg: [f64; 4],
    /// Theorem 4.9 closed-form totals for the batch, same order.
    pub analysis_total: [f64; 4],
    /// Queries in the batch.
    pub queries: usize,
}

/// The Figure 5 series (5(a) plots the system-wide methods on a log axis,
/// 5(b) zooms into SWORD vs LORM; both come from this measurement).
#[derive(Debug, Clone)]
pub struct Fig5 {
    /// One row per arity.
    pub rows: Vec<Fig5Row>,
    /// Per-system visited-node summaries merged over every arity batch
    /// (`System::ALL` order) — full precision for the JSON export.
    pub summaries: Vec<(&'static str, Summary)>,
}

/// Run the Figure 5 experiment. How many workers `exec` shards over
/// never shows in the figure. The parallel plan reproduces the paper's
/// figure exactly; the adaptive plan visits at most as many nodes (empty
/// intermediate candidate sets short-circuit the remaining sub-query
/// walks).
pub fn fig5(
    bed: &TestBed,
    arities: impl IntoIterator<Item = usize>,
    queries: usize,
    exec: Exec,
) -> Fig5 {
    let p = bed.cfg.params();
    let mut rows = Vec::new();
    let mut summaries: Vec<(&'static str, Summary)> =
        System::ALL.map(|s| (s.name(), Summary::new())).to_vec();
    for arity in arities {
        let batch = query_batch(
            &bed.workload,
            bed.cfg.nodes,
            queries,
            1,
            arity,
            QueryMix::Range,
            bed.seeds.seed() ^ 0xF500 ^ arity as u64,
        );
        let measured = run_batch_all(&bed.systems, &batch, Metric::Visited, exec);
        for (i, s) in System::ALL.iter().enumerate() {
            summaries[i].1.merge(summary_of(&measured, *s));
        }
        let total = System::ALL.map(|s| summary_of(&measured, s).total());
        let avg = System::ALL.map(|s| summary_of(&measured, s).mean());
        let analysis_total =
            System::ALL.map(|s| th::range_visited(&p, arity, s) * batch.len() as f64);
        rows.push(Fig5Row { arity, total, avg, analysis_total, queries: batch.len() });
    }
    Fig5 { rows, summaries }
}

impl Fig5 {
    /// Build the structured report (both sub-figure tables plus the
    /// full-precision per-system summaries).
    pub fn report(&self) -> Report {
        let mut a = Table::new(
            "Figure 5(a): total visited nodes, range queries (system-wide methods)",
            &["attrs", "queries", "Mercury", "MAAN", "Analysis-Mercury", "Analysis-MAAN"],
        );
        for r in &self.rows {
            a.row(vec![
                r.arity.to_string(),
                r.queries.to_string(),
                Table::fmt_f(r.total[1]),
                Table::fmt_f(r.total[3]),
                Table::fmt_f(r.analysis_total[1]),
                Table::fmt_f(r.analysis_total[3]),
            ]);
        }
        let mut b = Table::new(
            "Figure 5(b): total visited nodes, range queries (SWORD vs LORM)",
            &["attrs", "queries", "SWORD", "LORM", "Analysis-SWORD", "Analysis-LORM"],
        );
        for r in &self.rows {
            b.row(vec![
                r.arity.to_string(),
                r.queries.to_string(),
                Table::fmt_f(r.total[2]),
                Table::fmt_f(r.total[0]),
                Table::fmt_f(r.analysis_total[2]),
                Table::fmt_f(r.analysis_total[0]),
            ]);
        }
        let mut rep = Report::new();
        rep.table(a).table(b);
        for (name, s) in &self.summaries {
            rep.summary(*name, s.clone());
        }
        rep
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::SimConfig;

    #[test]
    fn fig5_reproduces_visited_ordering() {
        let cfg =
            SimConfig { nodes: 896, attrs: 30, values: 60, dimension: 7, ..SimConfig::default() };
        let bed = TestBed::new(cfg);
        let fig = fig5(&bed, [1, 4], 60, Exec::default());
        for r in &fig.rows {
            let [lorm, mercury, sword, maan] = r.avg;
            // Theorem 4.9 ordering: MAAN ≈ Mercury (the paper plots them
            // overlapped; MAAN's +1/attr is below walk-length noise),
            // both >> LORM > SWORD.
            assert!(maan > mercury * 0.9, "MAAN {maan} ~ Mercury {mercury}");
            assert!(mercury > 10.0 * lorm, "Mercury {mercury} >> LORM {lorm}");
            assert!(lorm > sword, "LORM {lorm} > SWORD {sword}");
            // SWORD visits exactly one node per attribute.
            assert!((sword - r.arity as f64).abs() < 1e-9);
            // LORM ≈ 1 + d/4 per attribute (d = 7 here -> 2.75/attr).
            let per_attr = lorm / r.arity as f64;
            assert!((1.8..3.8).contains(&per_attr), "LORM visits/attr {per_attr}");
            // Mercury ≈ 1 + n/4 per attribute within a factor ~2.
            let merc_expect = 1.0 + 896.0 / 4.0;
            assert!(
                (mercury / r.arity as f64) > merc_expect * 0.5
                    && (mercury / r.arity as f64) < merc_expect * 1.6,
                "Mercury visits/attr {}",
                mercury / r.arity as f64
            );
        }
    }

    #[test]
    fn analysis_totals_are_closed_form_times_batch_size() {
        let cfg =
            SimConfig { nodes: 384, dimension: 6, attrs: 8, values: 20, ..SimConfig::default() };
        let bed = TestBed::new(cfg);
        let fig = fig5(&bed, [2], 25, Exec::default());
        let r = &fig.rows[0];
        let p = cfg.params();
        for (i, s) in System::ALL.iter().enumerate() {
            let expect = th::range_visited(&p, 2, *s) * r.queries as f64;
            assert!((r.analysis_total[i] - expect).abs() < 1e-9, "{}", s.name());
        }
        assert!(fig.report().to_string().contains("Figure 5(b)"));
    }
}
