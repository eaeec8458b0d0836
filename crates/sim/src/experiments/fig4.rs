//! Figure 4 — logical hops of non-range multi-attribute queries.
//!
//! The paper varies the number of attributes per query from 1 to 10,
//! issues 10 queries from each of 100 random nodes, and reports the
//! average (4(a)) and total (4(b)) logical hops per system, next to the
//! analysis curves "Analysis-LORM" (= MAAN ÷ log n/d, Theorem 4.7) and
//! "Analysis-SWORD/Mercury" (= MAAN ÷ 2, Theorem 4.8) derived from the
//! measured MAAN.
//!
//! The paper reports only the means. Behind the arity-1 row the figure
//! also prints the hop distribution of the very queries it averages, which
//! explains *why* the means sit where they do: Chord lookups concentrate
//! around `log₂n/2` with a binomial-like spread, Cycloid's phase routing is
//! wider and shifted to ~`d`, and MAAN's two lookups per attribute
//! convolve the Chord distribution with itself.

use crate::experiments::{
    answered, fan_out, fold_batch, observe, query_batch, BatchMode, Exec, Metric,
};
use crate::report::Report;
use crate::setup::TestBed;
use crate::table::Table;
use analysis::{self as th, System};
use dht_core::{Histogram, Summary};
use grid_resource::{Query, QueryMix, ResourceDiscovery};

/// One arity's measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4Row {
    /// Attributes per query (1–10 in the paper).
    pub arity: usize,
    /// Average hops per query: LORM, Mercury, SWORD, MAAN.
    pub avg: [f64; 4],
    /// Total hops over the whole batch, same order.
    pub total: [f64; 4],
    /// "Analysis-LORM": measured MAAN average ÷ (log2 n / d).
    pub analysis_lorm: f64,
    /// "Analysis-SWORD/Mercury": measured MAAN average ÷ 2.
    pub analysis_single: f64,
    /// Queries in the batch.
    pub queries: usize,
}

/// The Figure 4 series (both sub-figures share the measurement).
#[derive(Debug, Clone)]
pub struct Fig4 {
    /// One row per arity.
    pub rows: Vec<Fig4Row>,
    /// Per-system hop summaries merged over every arity batch
    /// (`System::ALL` order) — full precision for the JSON export.
    pub summaries: Vec<(&'static str, Summary)>,
    /// Per-system hop histograms of the arity-1 batch's answered queries
    /// (`System::ALL` order; empty when arity 1 was not run).
    pub hops: Vec<(&'static str, Histogram)>,
}

/// One system's hop summary over `batch`, merged per micro-chunk as
/// [`run_batch`](super::run_batch) merges it, and the histogram of its
/// answered queries' hops, `max_hops` buckets wide.
fn measure(
    sys: &(dyn ResourceDiscovery + Send + Sync),
    batch: &[(usize, Query)],
    exec: Exec,
    max_hops: usize,
) -> (Summary, Histogram) {
    let (mut sum, mut hist) = (Summary::new(), Histogram::new(max_hops));
    let fold = |(s, hops): &mut (Summary, Vec<usize>), r| {
        observe(s, &r, |o| Metric::Hops.of(&o.tally));
        hops.extend(answered(&r).map(|o| o.tally.hops));
    };
    fold_batch(sys, batch, BatchMode::Direct(exec.plan), exec.shards, fold, |(s, hops)| {
        sum.merge(&s);
        hops.into_iter().for_each(|h| hist.record(h));
    });
    (sum, hist)
}

/// Run the Figure 4 experiment on a mounted test bed. How many workers
/// `exec` shards over never shows in the figure. The parallel plan
/// reproduces the paper's figure exactly; sequential/adaptive plans keep
/// the answer sets but change hop counts (each sub-query after the first
/// still pays its lookup walk, so the curve shifts, not the ordering).
pub fn fig4(
    bed: &TestBed,
    arities: impl IntoIterator<Item = usize>,
    origins: usize,
    per_origin: usize,
    exec: Exec,
) -> Fig4 {
    let p = bed.cfg.params();
    let max_hops = 4 * bed.cfg.dimension as usize + 8;
    let mut rows = Vec::new();
    let mut summaries: Vec<(&'static str, Summary)> =
        System::ALL.map(|s| (s.name(), Summary::new())).to_vec();
    let mut hops = Vec::new();
    for arity in arities {
        let batch = query_batch(
            &bed.workload,
            bed.cfg.nodes,
            origins,
            per_origin,
            arity,
            QueryMix::NonRange,
            bed.seeds.seed() ^ 0xF400 ^ arity as u64,
        );
        // One thread per system, each sharding its batch further.
        let measured = fan_out(System::ALL, |s| measure(bed.system(s), &batch, exec, max_hops));
        for (i, (s, _)) in measured.iter().enumerate() {
            summaries[i].1.merge(s);
        }
        let avg = [0, 1, 2, 3].map(|i| measured[i].0.mean());
        let total = [0, 1, 2, 3].map(|i| measured[i].0.total());
        let maan_avg = avg[3];
        rows.push(Fig4Row {
            arity,
            avg,
            total,
            analysis_lorm: maan_avg / th::t47_maan_over_lorm_hops(&p),
            analysis_single: maan_avg / th::t48_maan_over_single_lookup(),
            queries: batch.len(),
        });
        if arity == 1 {
            hops = System::ALL.iter().zip(measured).map(|(s, (_, h))| (s.name(), h)).collect();
        }
    }
    Fig4 { rows, summaries, hops }
}

impl Fig4 {
    /// The arity-1 hop distribution: a quantile table and a per-hop
    /// frequency table over the `queries` of that batch.
    fn hop_tables(&self, queries: usize) -> (Table, Table) {
        let mut t = Table::new(
            format!("Figure 4, extension: hop distribution at 1 attribute ({queries} queries)"),
            &["system", "mode", "p50", "p90", "p99", "max seen"],
        );
        let dash = || "-".to_string();
        let max_seen = |h: &Histogram| h.entries().filter_map(|(x, _)| x).max();
        for (name, h) in &self.hops {
            let fmt_q = |q: f64| h.quantile(q).map_or_else(dash, |x| x.to_string());
            t.row(vec![
                name.to_string(),
                h.mode().map_or_else(dash, |x| x.to_string()),
                fmt_q(0.5),
                fmt_q(0.9),
                fmt_q(0.99),
                max_seen(h).map_or_else(dash, |x| x.to_string()),
            ]);
        }
        let mut d = Table::new(
            "hop-count frequencies (% of queries)",
            &["hops", "LORM", "Mercury", "SWORD", "MAAN"],
        );
        let upper = self.hops.iter().filter_map(|(_, h)| max_seen(h)).max().unwrap_or(0);
        for hop in 0..=upper {
            let mut row = vec![hop.to_string()];
            row.extend(self.hops.iter().map(|(_, h)| match h.bucket(hop).unwrap_or(0) {
                0 => "·".to_string(),
                c => format!("{:.1}", 100.0 * c as f64 / h.count() as f64),
            }));
            d.row(row);
        }
        (t, d)
    }

    /// Build the structured report (both sub-figure tables plus the
    /// full-precision per-system summaries).
    pub fn report(&self) -> Report {
        let mut a = Table::new(
            "Figure 4(a): average logical hops per non-range query",
            &["attrs", "LORM", "Mercury", "SWORD", "MAAN", "Analysis-LORM", "Analysis-S/M"],
        );
        for r in &self.rows {
            a.row(vec![
                r.arity.to_string(),
                Table::fmt_f(r.avg[0]),
                Table::fmt_f(r.avg[1]),
                Table::fmt_f(r.avg[2]),
                Table::fmt_f(r.avg[3]),
                Table::fmt_f(r.analysis_lorm),
                Table::fmt_f(r.analysis_single),
            ]);
        }
        let mut b = Table::new(
            "Figure 4(b): total logical hops over the query batch",
            &["attrs", "queries", "LORM", "Mercury", "SWORD", "MAAN"],
        );
        for r in &self.rows {
            b.row(vec![
                r.arity.to_string(),
                r.queries.to_string(),
                Table::fmt_f(r.total[0]),
                Table::fmt_f(r.total[1]),
                Table::fmt_f(r.total[2]),
                Table::fmt_f(r.total[3]),
            ]);
        }
        let mut rep = Report::new();
        rep.table(a).table(b);
        if let Some(r) = self.rows.iter().find(|r| r.arity == 1) {
            let (quantiles, frequencies) = self.hop_tables(r.queries);
            rep.table(quantiles).table(frequencies);
        }
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
    fn fig4_reproduces_hop_ordering() {
        // Scaled-down bed (full clusters: n = d·2^d with d = 7).
        let cfg =
            SimConfig { nodes: 896, attrs: 30, values: 60, dimension: 7, ..SimConfig::default() };
        let bed = TestBed::new(cfg);
        let fig = fig4(&bed, [1, 5], 30, 5, Exec::default());
        assert_eq!(fig.rows.len(), 2);
        for r in &fig.rows {
            let [lorm, mercury, sword, maan] = r.avg;
            // Theorem 4.7/4.8 ordering: MAAN > LORM > Mercury ≈ SWORD.
            assert!(maan > lorm, "MAAN {maan} must exceed LORM {lorm}");
            assert!(lorm > mercury, "LORM {lorm} must exceed Mercury {mercury}");
            assert!((mercury - sword).abs() < 1.5, "Mercury {mercury} ≈ SWORD {sword}");
            // MAAN needs two lookups: ~2x the single-lookup systems.
            assert!((maan / mercury - 2.0).abs() < 0.4, "MAAN/Mercury = {}", maan / mercury);
            // analysis overlays sit between
            assert!(r.analysis_lorm < maan && r.analysis_lorm > mercury);
        }
        // hops grow with arity
        assert!(fig.rows[1].avg[0] > fig.rows[0].avg[0] * 3.0);
        // totals = avg × count
        let r = &fig.rows[0];
        assert!((r.total[3] - r.avg[3] * r.queries as f64).abs() < 1e-6);
    }

    #[test]
    fn arity_one_hop_distribution_has_the_expected_centers() {
        let cfg =
            SimConfig { nodes: 896, dimension: 7, attrs: 20, values: 50, ..SimConfig::default() };
        let bed = TestBed::new(cfg);
        let fig = fig4(&bed, [1, 2], 80, 5, Exec::default());
        let get = |n: &str| &fig.hops.iter().find(|(name, _)| *name == n).expect("hist").1;
        // Chord median ~ log2(896)/2 ≈ 5
        let sword_p50 = get("SWORD").quantile(0.5).unwrap();
        assert!((4..=7).contains(&sword_p50), "SWORD p50 {sword_p50}");
        // MAAN median ~ 2x Chord's
        let maan_p50 = get("MAAN").quantile(0.5).unwrap();
        assert!(maan_p50 >= 2 * sword_p50 - 3, "MAAN p50 {maan_p50}");
        // LORM median near d..1.5d
        let lorm_p50 = get("LORM").quantile(0.5).unwrap();
        assert!((6..=12).contains(&lorm_p50), "LORM p50 {lorm_p50}");
        // the histograms hold the arity-1 batch the figure averages: no
        // query silently dropped, and a static bed fails none
        let r = &fig.rows[0];
        for (i, (name, h)) in fig.hops.iter().enumerate() {
            assert_eq!(h.count() as usize, r.queries, "{name} lost observations");
            let hops: usize = h.entries().map(|(x, c)| x.expect("in range") * c as usize).sum();
            assert_eq!(hops as f64, r.total[i], "{name}: histogram and total disagree");
        }
        for (name, sum) in &fig.summaries {
            assert_eq!(sum.failures(), 0, "{name} queries failed");
        }
        let s = fig.report().to_string();
        assert!(s.contains("hop distribution at 1 attribute (400 queries)"), "{s}");
        assert!(s.contains("hop-count frequencies"));
    }

    #[test]
    fn analysis_columns_are_derived_from_measured_maan() {
        let cfg =
            SimConfig { nodes: 384, dimension: 6, attrs: 10, values: 30, ..SimConfig::default() };
        let bed = TestBed::new(cfg);
        let fig = fig4(&bed, [2], 10, 3, Exec::default());
        let r = &fig.rows[0];
        let p = cfg.params();
        let maan = r.avg[3];
        assert!((r.analysis_lorm - maan / analysis::t47_maan_over_lorm_hops(&p)).abs() < 1e-9);
        assert!((r.analysis_single - maan / 2.0).abs() < 1e-9);
        // and the table renders both sub-figures
        let s = fig.report().to_string();
        assert!(s.contains("Figure 4(a)") && s.contains("Figure 4(b)"));
    }
}
