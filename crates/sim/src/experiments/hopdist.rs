//! Hop-count distributions — an extension behind Figure 4's averages.
//!
//! The paper reports only the mean logical hops per query. The full
//! distribution explains *why* the means sit where they do: Chord lookups
//! concentrate around `log₂n/2` with a binomial-like spread, Cycloid's
//! phase routing is wider and shifted to ~`d`, and MAAN's two lookups per
//! attribute convolve the Chord distribution with itself.

use crate::experiments::query_batch;
use crate::report::Report;
use crate::setup::TestBed;
use crate::table::Table;
use analysis::System;
use dht_core::{Histogram, Summary};
use grid_resource::QueryMix;

/// Per-system hop histograms for single-attribute non-range lookups.
#[derive(Debug, Clone)]
pub struct HopDist {
    /// One histogram per system, `System::ALL` order.
    pub hists: Vec<(&'static str, Histogram)>,
    /// Per-system hop summaries (same order) — full precision, including
    /// the count of queries that failed to resolve.
    pub summaries: Vec<(&'static str, Summary)>,
    /// Queries measured.
    pub queries: usize,
}

/// Measure single-attribute lookup hop distributions.
pub fn hop_distribution(bed: &TestBed, queries: usize) -> HopDist {
    let batch = query_batch(
        &bed.workload,
        bed.cfg.nodes,
        queries,
        1,
        1,
        QueryMix::NonRange,
        bed.cfg.seed ^ 0x40D,
    );
    let max_bucket = 4 * bed.cfg.dimension as usize + 8;
    let mut hists = Vec::new();
    let mut summaries = Vec::new();
    for s in System::ALL {
        let sys = bed.system(s);
        let mut h = Histogram::new(max_bucket);
        let mut sum = Summary::new();
        for (phys, q) in &batch {
            match sys.query_from(*phys, q) {
                Ok(out) => {
                    h.record(out.tally.hops);
                    sum.record(out.tally.hops as f64);
                }
                Err(_) => sum.record_failure(),
            }
        }
        hists.push((s.name(), h));
        summaries.push((s.name(), sum));
    }
    HopDist { hists, summaries, queries: batch.len() }
}

impl HopDist {
    /// Build the structured report (quantile table, per-hop frequency
    /// table, and the full-precision per-system summaries).
    pub fn report(&self) -> Report {
        let mut t = Table::new(
            format!(
                "Extension: hop distribution of single-attribute lookups ({} queries)",
                self.queries
            ),
            &["system", "mode", "p50", "p90", "p99", "max seen"],
        );
        for (name, h) in &self.hists {
            let fmt_q = |q: f64| h.quantile(q).map_or("-".to_string(), |x| x.to_string());
            let max_seen =
                h.entries().filter_map(|(x, _)| x).max().map_or("-".to_string(), |x| x.to_string());
            t.row(vec![
                name.to_string(),
                h.mode().map_or("-".to_string(), |x| x.to_string()),
                fmt_q(0.5),
                fmt_q(0.9),
                fmt_q(0.99),
                max_seen,
            ]);
        }
        // compact per-hop rows for the two substrates' shapes
        let mut d = Table::new(
            "hop-count frequencies (% of queries)",
            &["hops", "LORM", "Mercury", "SWORD", "MAAN"],
        );
        let upper = self
            .hists
            .iter()
            .flat_map(|(_, h)| h.entries().filter_map(|(x, _)| x))
            .max()
            .unwrap_or(0);
        for hop in 0..=upper {
            let cells: Vec<String> = self
                .hists
                .iter()
                .map(|(_, h)| {
                    let c = h.bucket(hop).unwrap_or(0);
                    if c == 0 {
                        "·".to_string()
                    } else {
                        format!("{:.1}", 100.0 * c as f64 / h.count() as f64)
                    }
                })
                .collect();
            let mut row = vec![hop.to_string()];
            row.extend(cells);
            d.row(row);
        }
        let mut rep = Report::new();
        rep.table(t).table(d);
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
    fn distributions_have_the_expected_centers() {
        let cfg =
            SimConfig { nodes: 896, dimension: 7, attrs: 20, values: 50, ..SimConfig::default() };
        let bed = TestBed::new(cfg);
        let dist = hop_distribution(&bed, 400);
        let get = |n: &str| &dist.hists.iter().find(|(name, _)| *name == n).expect("hist").1;
        // Chord median ~ log2(896)/2 ≈ 5
        let sword_p50 = get("SWORD").quantile(0.5).unwrap();
        assert!((4..=7).contains(&sword_p50), "SWORD p50 {sword_p50}");
        // MAAN median ~ 2x Chord's
        let maan_p50 = get("MAAN").quantile(0.5).unwrap();
        assert!(maan_p50 >= 2 * sword_p50 - 3, "MAAN p50 {maan_p50}");
        // LORM median near d..1.5d
        let lorm_p50 = get("LORM").quantile(0.5).unwrap();
        assert!((6..=12).contains(&lorm_p50), "LORM p50 {lorm_p50}");
        // rendering works and includes the frequency block
        let s = dist.report().to_string();
        assert!(s.contains("hop-count frequencies"));
        // no query silently dropped: every query is either an observation
        // or a counted failure, and a static bed fails none
        for (name, sum) in &dist.summaries {
            assert_eq!(sum.failures(), 0, "{name} queries failed");
            assert_eq!(sum.count() as usize, dist.queries, "{name} lost observations");
        }
    }
}
