//! Theorem 4.10 — worst-case contacted nodes for a range query.
//!
//! The theorem's adversarial case is a range covering the whole value
//! domain: the system-wide methods (Mercury, MAAN) must then probe every
//! node of the ring, contacting `m(log n + n)` resp. `m(2·log n + n)`
//! nodes, while LORM never leaves the attribute's cluster (`m·d`). This
//! experiment issues exactly that query and compares the measured
//! contacted-node counts (routing hops + probed directories) against the
//! closed forms.

use crate::experiments::{map_batch, observe, PARALLEL};
use crate::report::Report;
use crate::setup::TestBed;
use crate::table::Table;
use analysis::{self as th, System};
use dht_core::Summary;
use grid_resource::{Query, SubQuery, ValueTarget};

/// Measured vs analytical worst case, one row per system.
#[derive(Debug, Clone, PartialEq)]
pub struct WorstCaseRow {
    /// System name.
    pub system: &'static str,
    /// Measured contacted nodes (hops + visited) for the full-domain
    /// range query.
    pub measured: f64,
    /// Theorem 4.10's closed form.
    pub analysis: f64,
    /// Queries that returned an error (excluded from `measured`).
    pub failures: u64,
}

/// The Theorem 4.10 experiment result.
#[derive(Debug, Clone)]
pub struct WorstCase {
    /// One row per system.
    pub rows: Vec<WorstCaseRow>,
    /// Per-system contacted-node summaries (`System::ALL` order) — full
    /// precision for the JSON export.
    pub summaries: Vec<(&'static str, Summary)>,
    /// Attributes per query used.
    pub arity: usize,
}

/// Issue `queries` full-domain range queries of the given arity on
/// `shards` workers (as [`fold_batch`](super::fold_batch) reads them) and
/// average the contacted-node counts.
pub fn worstcase(bed: &TestBed, arity: usize, queries: usize, shards: usize) -> WorstCase {
    let p = bed.cfg.params();
    let (dmin, dmax) = bed.workload.space.domain();
    let m = bed.workload.space.len();
    let batch: Vec<(usize, Query)> = (0..queries)
        .map(|i| {
            // distinct attributes, rotating so different clusters are hit
            let subs = (0..arity)
                .map(|j| SubQuery {
                    attr: grid_resource::AttrId(((i * arity + j) % m) as u32),
                    target: ValueTarget::Range { low: dmin, high: dmax },
                })
                .collect();
            (i % bed.cfg.nodes, Query::new(subs).expect("valid range"))
        })
        .collect();
    let mut rows = Vec::new();
    let mut summaries = Vec::new();
    for &s in &System::ALL {
        let mut sum = Summary::new();
        for r in &map_batch(bed.system(s), &batch, PARALLEL, shards, |r| r) {
            observe(&mut sum, r, |o| (o.tally.hops + o.tally.visited) as f64);
        }
        rows.push(WorstCaseRow {
            system: s.name(),
            measured: sum.mean(),
            analysis: th::worstcase_range_contacted(&p, arity, s),
            failures: sum.failures(),
        });
        summaries.push((s.name(), sum));
    }
    WorstCase { rows, summaries, arity }
}

impl WorstCase {
    /// Build the structured report.
    pub fn report(&self) -> Report {
        let mut t = Table::new(
            format!(
                "Theorem 4.10: worst-case contacted nodes, full-domain range query (arity {})",
                self.arity
            ),
            &["system", "measured", "analysis (T4.10)", "failed"],
        );
        for r in &self.rows {
            t.row(vec![
                r.system.to_string(),
                Table::fmt_f(r.measured),
                Table::fmt_f(r.analysis),
                r.failures.to_string(),
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
    use crate::setup::SimConfig;

    #[test]
    fn worst_case_matches_theorem_shape() {
        let cfg =
            SimConfig { nodes: 896, attrs: 20, values: 50, dimension: 7, ..SimConfig::default() };
        let bed = TestBed::new(cfg);
        let wc = worstcase(&bed, 1, 10, 1);
        for r in &wc.rows {
            assert_eq!(r.failures, 0, "{} failed queries on a stable network", r.system);
        }
        let get = |name: &str| wc.rows.iter().find(|r| r.system == name).expect("row");
        let lorm = get("LORM");
        let mercury = get("Mercury");
        let maan = get("MAAN");
        let sword = get("SWORD");
        // LORM stays inside one cluster: contacted ≈ hops + d, far below n.
        assert!(lorm.measured < 30.0, "LORM contacted {}", lorm.measured);
        // Mercury and MAAN touch essentially the whole ring.
        assert!(mercury.measured > 800.0, "Mercury contacted {}", mercury.measured);
        assert!(maan.measured > mercury.measured, "MAAN pays an extra lookup");
        // SWORD stays at a handful of hops + 1 directory.
        assert!(sword.measured < 15.0);
        // Theorem 4.10's saving: Mercury - LORM >= n (arity 1).
        assert!(mercury.measured - lorm.measured >= 896.0 * 0.9);
    }
}
