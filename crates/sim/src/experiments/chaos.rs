//! Chaos sweep — success rate and hop inflation under injected faults.
//!
//! Not a paper figure: a robustness experiment over the same four
//! systems. A fixed range-query batch is replayed under every
//! combination of message-loss rate × ungraceful-failure fraction from a
//! seeded [`FaultPlan`], and each cell summarizes the degraded outcomes
//! (successes, partial results, outright failures, retries, dropped
//! messages, hop inflation versus the fault-free baseline).
//!
//! [`Chaos::violations`] checks the sweep's invariants, and `repro chaos`
//! exits 1 on any breach:
//!
//! * every cell accounts for every query of the batch;
//! * the zero-fault cell is **bit-identical** to the fault-free baseline
//!   run, for every shard count;
//! * success rates degrade **monotonically** in the loss rate at fixed
//!   failure fraction (guaranteed by the fault-coin construction, see
//!   `dht_core::fault`).

use crate::experiments::{query_batch, run_batch, BatchMode, Metric};
use crate::report::Report;
use crate::setup::TestBed;
use crate::table::Table;
use dht_core::{FaultPlan, Summary};
use grid_resource::{QueryMix, QueryPlan};

/// Seed of every [`FaultPlan`] in the sweep (the batch itself draws from
/// the test bed's seed).
pub const FAULT_SEED: u64 = 0xC4A0_5EED;

/// Sweep configuration for the chaos experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosSetup {
    /// Message-loss rates to sweep (must include `0.0` for the parity
    /// cell to exist).
    pub loss_rates: Vec<f64>,
    /// Ungraceful node-failure fractions to sweep.
    pub fail_fracs: Vec<f64>,
    /// Requester nodes in the query batch.
    pub origins: usize,
    /// Queries per requester.
    pub per_origin: usize,
    /// Attributes per query.
    pub arity: usize,
}

impl Default for ChaosSetup {
    fn default() -> Self {
        Self {
            loss_rates: vec![0.0, 0.05, 0.1, 0.2],
            fail_fracs: vec![0.0, 0.1],
            origins: 100,
            per_origin: 4,
            arity: 3,
        }
    }
}

impl ChaosSetup {
    /// A scaled-down sweep for quick runs and CI.
    pub fn quick() -> Self {
        Self { loss_rates: vec![0.0, 0.05, 0.2], origins: 40, per_origin: 3, ..Self::default() }
    }
}

/// One (loss, failure-fraction) cell of one system's sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosCell {
    /// Message-loss rate of this cell's fault plan.
    pub loss: f64,
    /// Ungraceful-failure fraction of this cell's fault plan.
    pub fail_frac: f64,
    /// Degraded hop summary of the replayed batch.
    pub summary: Summary,
}

impl ChaosCell {
    /// Queries issued in this cell (successes + partial + failures).
    pub fn total_queries(&self) -> u64 {
        self.summary.count() + self.summary.failures()
    }

    /// Fraction of queries that fully resolved.
    pub fn success_rate(&self) -> f64 {
        let total = self.total_queries();
        if total == 0 {
            return f64::NAN;
        }
        self.summary.successes() as f64 / total as f64
    }

    /// Mean hops of this cell over the fault-free baseline's mean hops.
    pub fn hop_inflation(&self, baseline: &Summary) -> f64 {
        self.summary.mean() / baseline.mean()
    }
}

/// One system's sweep: the fault-free baseline plus every cell.
#[derive(Debug, Clone)]
pub struct ChaosSystem {
    /// System name ("LORM", "Mercury", "SWORD", "MAAN").
    pub name: &'static str,
    /// The fault-free run of the same batch (the parity reference).
    pub baseline: Summary,
    /// Cells in sweep order: failure fractions outer, loss rates inner.
    pub cells: Vec<ChaosCell>,
}

/// The full chaos sweep over all mounted systems.
#[derive(Debug, Clone)]
pub struct Chaos {
    /// The sweep configuration.
    pub setup: ChaosSetup,
    /// Queries in the replayed batch.
    pub queries: usize,
    /// One sweep per mounted system, in mount order.
    pub systems: Vec<ChaosSystem>,
}

/// Run the chaos sweep on a mounted test bed.
///
/// Every cell replays the *same* batch under a [`FaultPlan`] seeded with
/// [`FAULT_SEED`], so cells differ only in the configured rates —
/// which is what makes the per-query monotonicity argument (and hence
/// monotone success-rate curves) hold exactly, not just in expectation.
/// `shards` is [`run_batch`]'s worker count; it never shows in a cell.
pub fn chaos(bed: &TestBed, setup: ChaosSetup, shards: usize) -> Chaos {
    let batch = query_batch(
        &bed.workload,
        bed.cfg.nodes,
        setup.origins,
        setup.per_origin,
        setup.arity,
        QueryMix::Range,
        bed.seeds.seed() ^ 0xC4A0,
    );
    let mut systems = Vec::with_capacity(bed.systems.len());
    for sys in &bed.systems {
        let hops =
            |mode: BatchMode<'_>| run_batch(sys.as_ref(), &batch, Metric::Hops, mode, shards);
        let baseline = hops(BatchMode::Direct(QueryPlan::Parallel));
        let mut cells = Vec::with_capacity(setup.fail_fracs.len() * setup.loss_rates.len());
        for &fail_frac in &setup.fail_fracs {
            for &loss in &setup.loss_rates {
                // Sweep rates come from the setup literal; an out-of-range
                // rate is a harness bug.
                let plan = FaultPlan::new(FAULT_SEED, loss, fail_frac)
                    .expect("sweep rates must be probabilities");
                let summary = hops(BatchMode::Faulty(&plan));
                cells.push(ChaosCell { loss, fail_frac, summary });
            }
        }
        systems.push(ChaosSystem { name: sys.name(), baseline, cells });
    }
    Chaos { setup, queries: batch.len(), systems }
}

impl Chaos {
    /// Breaches of the sweep's contract, one human-readable line each;
    /// empty means it held everywhere. For every system:
    ///
    /// * every cell accounts for every query of the batch (successes +
    ///   partial + failures);
    /// * the zero-fault cell exists and equals the fault-free baseline,
    ///   so its success rate and hop inflation are exactly 1;
    /// * at each failure fraction, the success rate is non-increasing in
    ///   the loss rate (exact: the fault-coin firing sets are nested).
    pub fn violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        for sys in &self.systems {
            let name = sys.name;
            for c in &sys.cells {
                if c.total_queries() != self.queries as u64 {
                    out.push(format!(
                        "{name} @ loss {} fail {}: {} of {} queries accounted for",
                        c.loss,
                        c.fail_frac,
                        c.total_queries(),
                        self.queries
                    ));
                }
            }
            match sys.cells.iter().find(|c| c.loss == 0.0 && c.fail_frac == 0.0) {
                None => out.push(format!("{name}: the sweep has no zero-fault cell")),
                Some(c)
                    if c.summary != sys.baseline
                        || c.success_rate() != 1.0
                        || c.hop_inflation(&sys.baseline) != 1.0 =>
                {
                    out.push(format!("{name}: the zero-fault cell differs from the baseline"));
                }
                Some(_) => {}
            }
            for &ff in &self.setup.fail_fracs {
                let mut by_loss: Vec<&ChaosCell> =
                    sys.cells.iter().filter(|c| c.fail_frac == ff).collect();
                by_loss.sort_by(|a, b| a.loss.total_cmp(&b.loss));
                for w in by_loss.windows(2) {
                    if w[1].success_rate() > w[0].success_rate() {
                        out.push(format!(
                            "{name} @ fail {ff}: success rate {} at loss {} > {} at loss {}",
                            w[1].success_rate(),
                            w[1].loss,
                            w[0].success_rate(),
                            w[0].loss
                        ));
                    }
                }
            }
        }
        out
    }

    /// Build the structured report: one success-rate table and one
    /// hop-inflation table per failure fraction.
    pub fn report(&self) -> Report {
        let mut rep = Report::new();
        let names: Vec<&str> = self.systems.iter().map(|s| s.name).collect();
        for &fail_frac in &self.setup.fail_fracs {
            let mut cols = vec!["loss".to_string()];
            cols.extend(names.iter().map(|n| n.to_string()));
            let cols: Vec<&str> = cols.iter().map(String::as_str).collect();
            let mut succ = Table::new(
                format!("Chaos: query success rate (failure fraction {fail_frac})"),
                &cols,
            );
            let mut infl = Table::new(
                format!("Chaos: hop inflation vs fault-free (failure fraction {fail_frac})"),
                &cols,
            );
            for &loss in &self.setup.loss_rates {
                let mut srow = vec![format!("{loss}")];
                let mut irow = vec![format!("{loss}")];
                for sys in &self.systems {
                    let cell = sys
                        .cells
                        .iter()
                        .find(|c| c.loss == loss && c.fail_frac == fail_frac)
                        .expect("swept cell");
                    srow.push(format!("{:.3}", cell.success_rate()));
                    irow.push(format!("{:.3}", cell.hop_inflation(&sys.baseline)));
                }
                succ.row(srow);
                infl.row(irow);
            }
            rep.table(succ).table(infl);
        }
        for sys in &self.systems {
            rep.summary(format!("{} baseline", sys.name), sys.baseline.clone());
        }
        rep.note(format!(
            "({} range queries per cell, arity {}, fault seed {:#x})",
            self.queries, self.setup.arity, FAULT_SEED
        ));
        rep
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::SimConfig;

    fn tiny_setup() -> ChaosSetup {
        ChaosSetup {
            loss_rates: vec![0.0, 0.2],
            fail_fracs: vec![0.0],
            origins: 10,
            per_origin: 3,
            arity: 2,
        }
    }

    #[test]
    fn zero_fault_cell_is_bit_identical_to_baseline() {
        let cfg =
            SimConfig { nodes: 384, dimension: 6, attrs: 10, values: 30, ..SimConfig::default() };
        let bed = TestBed::new(cfg);
        let c = chaos(&bed, tiny_setup(), 0);
        assert_eq!(c.queries, 30);
        for sys in &c.systems {
            let zero = &sys.cells[0];
            assert_eq!(zero.loss, 0.0);
            assert_eq!(zero.summary.count(), sys.baseline.count(), "{}", sys.name);
            assert_eq!(zero.summary.failures(), sys.baseline.failures(), "{}", sys.name);
            assert_eq!(
                zero.summary.total().to_bits(),
                sys.baseline.total().to_bits(),
                "{}",
                sys.name
            );
            assert_eq!(
                zero.summary.mean().to_bits(),
                sys.baseline.mean().to_bits(),
                "{}",
                sys.name
            );
            assert_eq!(zero.summary.partial(), 0, "{}", sys.name);
            assert_eq!(zero.summary.retries(), 0, "{}", sys.name);
            assert_eq!(zero.summary.dropped_msgs(), 0, "{}", sys.name);
            assert_eq!(zero.success_rate(), 1.0, "{}", sys.name);
            assert_eq!(zero.hop_inflation(&sys.baseline), 1.0, "{}", sys.name);
        }
    }

    #[test]
    fn lossy_cell_degrades_and_accounts_every_query() {
        let cfg =
            SimConfig { nodes: 384, dimension: 6, attrs: 10, values: 30, ..SimConfig::default() };
        let bed = TestBed::new(cfg);
        let c = chaos(&bed, tiny_setup(), 0);
        for sys in &c.systems {
            let lossy = &sys.cells[1];
            assert_eq!(lossy.loss, 0.2);
            assert_eq!(lossy.total_queries(), 30, "{}", sys.name);
            assert!(lossy.success_rate() <= 1.0, "{}", sys.name);
            assert!(lossy.summary.dropped_msgs() > 0, "{}", sys.name);
        }
        assert!(c.violations().is_empty(), "{:?}", c.violations());
        // A lost query, a perturbed parity cell and a success rate that
        // rises with loss are each reported.
        let mut lost = c.clone();
        lost.queries += 1;
        assert_eq!(lost.violations().len(), 2 * c.systems.len(), "{:?}", lost.violations());
        let mut parity = c.clone();
        parity.systems[0].cells[0].summary = parity.systems[0].cells[1].summary.clone();
        assert!(parity.violations()[0].contains("zero-fault"), "{:?}", parity.violations());
        let mut rising = c.clone();
        let mut all_failed = Summary::new();
        all_failed.record_failure();
        rising.systems[0].cells[0].summary = all_failed;
        rising.systems[0].cells[1].summary = c.systems[0].baseline.clone();
        assert!(
            rising.violations().iter().any(|v| v.contains("success rate")),
            "{:?}",
            rising.violations()
        );
        // the report renders both tables and the note
        let s = c.report().to_string();
        assert!(s.contains("success rate"), "{s}");
        assert!(s.contains("hop inflation"), "{s}");
        assert!(s.contains("30 range queries"), "{s}");
    }

    #[test]
    fn quick_setup_includes_the_parity_cell() {
        let q = ChaosSetup::quick();
        assert!(q.loss_rates.contains(&0.0));
        assert!(q.fail_fracs.contains(&0.0));
        assert!(q.origins * q.per_origin <= 200, "quick sweep must stay small");
    }
}
