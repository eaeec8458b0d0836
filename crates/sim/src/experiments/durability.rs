//! Durability under churn — data-loss probability and repair traffic vs
//! churn rate × replication degree, across all four systems.
//!
//! Unlike the Figure 6 churn runs, maintenance here repairs links and
//! replicas but never re-places the workload from the ground-truth report
//! list (`place_all` would resurrect every lost piece and measure
//! nothing). A piece survives only if some live node still holds a copy —
//! in its directory or in a replica store — so the sweep measures exactly
//! what the replication subsystem buys: the probability that an
//! (attribute, value, owner) identity registered before the churn window
//! is still discoverable after it.
//!
//! On top of the sweep, [`churn_theory_checks`] validates the simulator
//! against the closed-form predictions of Krishnamurthy et al.'s
//! master-equation analysis of Chord under Poisson churn ("A statistical
//! theory of Chord under churn", IPTPS'05): with failures arriving at
//! aggregate rate `λ` on `n` live nodes and periodic repair every `T`
//! seconds, a node alive at the start of a window is dead at its end with
//! probability `p = 1 − exp(−λT/n)`, so just before repair
//!
//! * the fraction of live nodes whose *first* successor is dead ≈ `p`;
//! * the fraction of dead entries over all successor lists ≈ `p`;
//! * the fraction whose *entire* length-`s` list is dead ≈ `p^s`;
//! * the fraction of lookups whose key owner (snapshotted at window
//!   start) has died ≈ `p`.
//!
//! The checks run both as unit tests (`tests/churn_theory.rs`) and inside
//! the `repro durability` sweep, where a violation makes the binary exit
//! non-zero — the same pattern as `repro scale`'s growth checks.

use crate::cache::BedCache;
use crate::experiments::{
    fan_out, run_batch, BatchMode, ChurnCursor, Metric, MAINTENANCE_PERIOD, TICKS_PER_SECOND,
};
use crate::report::Report;
use crate::setup::SimConfig;
use crate::table::Table;
use analysis::System;
use chord::{Chord, ChordConfig};
use dht_core::{hashing::splitmix64, Overlay, Summary};
use grid_resource::{
    canonicalize_pieces, count_surviving, ChurnKind, ChurnSchedule, PieceKey, QueryMix, QueryPlan,
    ResourceDiscovery, Workload,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Durability sweep parameters.
#[derive(Debug, Clone)]
pub struct DurabilitySetup {
    /// Poisson churn rates `R` to sweep (as in Figure 6: one join *and*
    /// one departure every `1/R` seconds on average).
    pub rates: Vec<f64>,
    /// Replication degrees `k` to sweep. `k = 1` is the unreplicated
    /// baseline (a strict no-op on every system).
    pub degrees: Vec<usize>,
    /// Simulated seconds of churn per cell, on the [`TICKS_PER_SECOND`]
    /// clock with a maintenance round every [`MAINTENANCE_PERIOD`].
    pub duration: f64,
    /// Fraction of departures handled gracefully (with handoff); the
    /// rest are abrupt failures. Durability is about the abrupt ones.
    pub graceful_ratio: f64,
    /// Post-churn availability probe: live origins sampled.
    pub probe_origins: usize,
    /// Range queries issued per probe origin.
    pub probe_per_origin: usize,
    /// Attributes per probe query.
    pub arity: usize,
    /// Worker count for the probe batch, as [`run_batch`] reads it (`0`:
    /// one per available core; any value produces bit-identical summaries).
    pub shards: usize,
}

impl Default for DurabilitySetup {
    fn default() -> Self {
        Self {
            rates: vec![0.1, 0.2, 0.3, 0.4, 0.5],
            degrees: vec![1, 2, 3, 4],
            duration: 400.0,
            graceful_ratio: 0.5,
            probe_origins: 50,
            probe_per_origin: 4,
            arity: 3,
            shards: 0,
        }
    }
}

impl DurabilitySetup {
    /// A scaled-down sweep for tests and the CI smoke job.
    pub fn quick() -> Self {
        Self {
            rates: vec![0.1, 0.4],
            degrees: vec![1, 2, 4],
            duration: 150.0,
            probe_origins: 20,
            probe_per_origin: 3,
            ..Self::default()
        }
    }
}

/// Result of one (system, rate, degree) durability run.
#[derive(Debug, Clone, PartialEq)]
pub struct DurabilityCell {
    /// Distinct piece identities registered before the churn window.
    pub initial: usize,
    /// Of those, identities still held by some live node afterwards.
    pub surviving: usize,
    /// Data-loss probability: `1 − surviving/initial`.
    pub loss: f64,
    /// Churn events applied.
    pub events: usize,
    /// Maintenance rounds that ran replica repair.
    pub repair_rounds: u64,
    /// Replica copies pushed by repair (re-replication bandwidth, in
    /// pieces).
    pub repair_copies: u64,
    /// Replicas promoted to primaries after their holder died.
    pub repair_promotions: u64,
    /// Replicas dropped because their range had been handed off.
    pub repair_dropped: u64,
    /// Post-churn range-query probe (visited-nodes summary; failures are
    /// routing failures from dead origins' stale links).
    pub probe: Summary,
}

impl DurabilityCell {
    /// Total pieces moved by repair (copies + promotions).
    pub fn repair_transfers(&self) -> u64 {
        self.repair_copies + self.repair_promotions
    }
}

/// One (rate, degree) row across the four systems.
#[derive(Debug, Clone)]
pub struct DurabilityRow {
    /// The Poisson churn rate `R`.
    pub rate: f64,
    /// The replication degree `k`.
    pub k: usize,
    /// Cells for LORM, Mercury, SWORD, MAAN (the [`System::ALL`] order).
    pub cells: [DurabilityCell; 4],
}

/// A completed durability sweep.
#[derive(Debug, Clone)]
pub struct Durability {
    /// The sweep parameters.
    pub setup: DurabilitySetup,
    /// One row per (rate, degree), rates outer, degrees inner.
    pub rows: Vec<DurabilityRow>,
    /// The Krishnamurthy closed-form checks run alongside the sweep.
    pub checks: Vec<TheoryCheck>,
}

/// Drive one system through one durability run.
///
/// The event loop is the Figure 6 churn loop (the same `ChurnCursor` on
/// the same tick clock) with two deliberate differences: no queries are
/// issued during the run, and maintenance
/// never calls `place_all` — only `stabilize`, so losses are permanent
/// unless replication saves them.
///
/// None of the RNG draws depend on `k`, so every degree sees the same
/// churn sample path; with nested replica-target sets (both placement
/// rules are prefix rules in `k`) piece survival is pathwise monotone in
/// the degree.
pub fn run_durability_one(
    sys: &mut (dyn ResourceDiscovery + Send + Sync),
    workload: &Workload,
    schedule: &ChurnSchedule,
    setup: &DurabilitySetup,
    k: usize,
    seed: u64,
) -> DurabilityCell {
    sys.set_replication(k);
    // Census before churn: replication adds copies, not identities, so
    // the canonical set is the same at every degree.
    let mut initial: Vec<PieceKey> = Vec::new();
    sys.surviving_pieces_into(&mut initial);
    canonicalize_pieces(&mut initial);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut churn = ChurnCursor::new(schedule, sys);
    let mut next_maintenance = MAINTENANCE_PERIOD;
    let ticks = (setup.duration * TICKS_PER_SECOND).round() as usize;
    for i in 0..ticks {
        let now = (i + 1) as f64 / TICKS_PER_SECOND;
        churn.apply_due(sys, now, true, &mut rng);
        // Maintenance repairs links and replicas — never the workload.
        if now >= next_maintenance {
            sys.stabilize();
            next_maintenance += MAINTENANCE_PERIOD;
        }
    }
    let mut now_pieces: Vec<PieceKey> = Vec::new();
    sys.surviving_pieces_into(&mut now_pieces);
    canonicalize_pieces(&mut now_pieces);
    let surviving = count_surviving(&initial, &now_pieces);
    let loss = if initial.is_empty() { 0.0 } else { 1.0 - surviving as f64 / initial.len() as f64 };
    // Post-churn availability probe from live origins.
    let mut batch = Vec::with_capacity(setup.probe_origins * setup.probe_per_origin);
    for _ in 0..setup.probe_origins {
        if let Some(origin) = churn.pick_live(sys, &mut rng) {
            for _ in 0..setup.probe_per_origin {
                batch.push((origin, workload.random_query(setup.arity, QueryMix::Range, &mut rng)));
            }
        }
    }
    let probe = run_batch(
        sys,
        &batch,
        Metric::Visited,
        BatchMode::Direct(QueryPlan::Parallel),
        setup.shards,
    );
    let rs = sys.repair_stats();
    DurabilityCell {
        initial: initial.len(),
        surviving,
        loss,
        events: churn.applied,
        repair_rounds: rs.rounds(),
        repair_copies: rs.copies(),
        repair_promotions: rs.promotions(),
        repair_dropped: rs.dropped(),
        probe,
    }
}

/// Run the full durability sweep. Every cell starts from a deep clone of
/// one prototype per system held in `cache`, and the schedule for a rate
/// is generated once and shared by every (system, degree) cell — a degree
/// must never perturb the churn sample path.
pub fn durability(cfg: &SimConfig, setup: &DurabilitySetup, cache: &BedCache) -> Durability {
    let wl_seed = cfg.seed ^ 0xD7;
    let workload = cache.churn_workload(cfg, wl_seed);
    let mut rows = Vec::new();
    for &rate in &setup.rates {
        let mut sched_rng = SmallRng::seed_from_u64(cfg.seed ^ 0xDB ^ (rate * 1000.0) as u64);
        let schedule = ChurnSchedule::generate_with_failures(
            rate,
            setup.duration,
            setup.graceful_ratio,
            &mut sched_rng,
        );
        for &k in &setup.degrees {
            let cells = fan_out(System::ALL, |s| {
                let mut sys = cache.churn_proto(s, cfg, wl_seed);
                let seed = cfg.seed ^ 0xD6 ^ (rate * 100.0) as u64;
                run_durability_one(sys.as_mut(), &workload, &schedule, setup, k, seed)
            });
            // lint:allow(panic-hygiene): fan_out returns one cell per
            // System::ALL member, in that order.
            let cells = cells.try_into().expect("one cell per system");
            rows.push(DurabilityRow { rate, k, cells });
        }
    }
    Durability { setup: setup.clone(), rows, checks: churn_theory_checks(cfg.seed ^ 0x7E0) }
}

impl Durability {
    /// k-monotonicity violations: for every (rate, system), the number of
    /// *surviving* pieces must be non-decreasing in the replication
    /// degree (pathwise — every degree replays the identical churn
    /// sample, and both placement rules are prefix rules in `k`).
    /// Returns one human-readable line per violation; empty means the
    /// invariant held everywhere.
    pub fn k_monotonicity_violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        for &rate in &self.setup.rates {
            let mut by_k: Vec<&DurabilityRow> =
                self.rows.iter().filter(|r| r.rate == rate).collect();
            by_k.sort_by_key(|r| r.k);
            for w in by_k.windows(2) {
                for (i, s) in System::ALL.iter().enumerate() {
                    let (lo, hi) = (&w[0].cells[i], &w[1].cells[i]);
                    if hi.surviving < lo.surviving {
                        out.push(format!(
                            "{} @ R={rate}: surviving {} at k={} < {} at k={}",
                            s.name(),
                            hi.surviving,
                            w[1].k,
                            lo.surviving,
                            w[0].k,
                        ));
                    }
                }
            }
        }
        out
    }

    /// Everything that fails the sweep, one line each: every
    /// k-monotonicity violation, then every Krishnamurthy closed-form
    /// check outside its tolerance band. Empty means `repro durability`
    /// exits 0.
    pub fn violations(&self) -> Vec<String> {
        let mut out = self.k_monotonicity_violations();
        out.extend(self.checks.iter().filter(|c| !c.ok).map(|c| {
            format!(
                "{} @ R={}: simulated {} outside predicted {} ± ({}% + {})",
                c.name,
                c.rate,
                c.simulated,
                c.predicted,
                c.tol_rel * 100.0,
                c.tol_abs
            )
        }));
        out
    }

    /// Build the structured report: the loss table, the repair-traffic
    /// table, the theory-check table, and per-system probe summaries.
    pub fn report(&self) -> Report {
        let mut loss = Table::new(
            "Durability: data-loss probability vs churn rate x replication degree",
            &["R", "k", "LORM", "Mercury", "SWORD", "MAAN", "pieces", "events"],
        );
        for r in &self.rows {
            loss.row(vec![
                format!("{:.1}", r.rate),
                r.k.to_string(),
                Table::fmt_f(r.cells[0].loss),
                Table::fmt_f(r.cells[1].loss),
                Table::fmt_f(r.cells[2].loss),
                Table::fmt_f(r.cells[3].loss),
                r.cells[0].initial.to_string(),
                r.cells[0].events.to_string(),
            ]);
        }
        let mut traffic = Table::new(
            "Durability: repair transfers (replica copies + promotions) per run",
            &["R", "k", "LORM", "Mercury", "SWORD", "MAAN"],
        );
        for r in &self.rows {
            traffic.row(vec![
                format!("{:.1}", r.rate),
                r.k.to_string(),
                r.cells[0].repair_transfers().to_string(),
                r.cells[1].repair_transfers().to_string(),
                r.cells[2].repair_transfers().to_string(),
                r.cells[3].repair_transfers().to_string(),
            ]);
        }
        let mut theory = Table::new(
            "Churn theory checks (Krishnamurthy closed forms, p = 1 - exp(-lambda T / n))",
            &["check", "R", "simulated", "predicted", "tolerance", "status"],
        );
        for c in &self.checks {
            theory.row(vec![
                c.name.clone(),
                format!("{:.1}", c.rate),
                Table::fmt_f(c.simulated),
                Table::fmt_f(c.predicted),
                format!("{:.0}% + {}", c.tol_rel * 100.0, c.tol_abs),
                if c.ok { "ok".into() } else { "FAILED".into() },
            ]);
        }
        let mut rep = Report::new();
        rep.table(loss).table(traffic).table(theory);
        rep.note(
            "(loss = fraction of pre-churn piece identities no live node still holds; \
             maintenance repairs links and replicas but never re-places the workload)",
        );
        let violations = self.k_monotonicity_violations();
        if violations.is_empty() {
            rep.note("(k-monotonicity: surviving pieces non-decreasing in k at every rate)");
        } else {
            for v in violations {
                rep.note(format!("(k-monotonicity VIOLATION: {v})"));
            }
        }
        let mut summaries: Vec<(&'static str, Summary)> =
            System::ALL.map(|s| (s.name(), Summary::new())).to_vec();
        for r in &self.rows {
            for (i, c) in r.cells.iter().enumerate() {
                summaries[i].1.merge(&c.probe);
            }
        }
        for (name, s) in summaries {
            rep.summary(name, s);
        }
        rep
    }
}

// ---------------------------------------------------------------------
// Krishnamurthy closed-form validation
// ---------------------------------------------------------------------

// The theory-validation run: a bare Chord ring under windowed Poisson
// churn with full repair at each window boundary. The samples are large
// enough that every estimator's Monte-Carlo noise sits well inside the
// tolerance bands, and the run stays cheap (a bare 256-node ring).

/// Ring size at build time (joins and failures balance in expectation,
/// so the live count hovers here).
const THEORY_NODES: usize = 256;
/// Successor-list length `s`. Kept short so the exhaustion probability
/// `p^s` is large enough to measure in a bounded run.
const THEORY_SUCC_LIST_LEN: usize = 2;
/// Repair windows sampled per rate.
const THEORY_WINDOWS: usize = 24;
/// Seconds per window (the repair period `T`).
const THEORY_PERIOD: f64 = 50.0;
/// Churn rates `R` to validate. Failures arrive at rate `R` (the
/// schedule's graceful ratio is 0 — graceful departures hand off and are
/// invisible to the staleness estimators).
const THEORY_RATES: [f64; 2] = [0.4, 1.2];
/// Keys whose owner liveness is tracked per window.
const THEORY_OWNER_SAMPLES: usize = 64;

/// One closed-form check: a simulated fraction vs its prediction, with
/// the tolerance band that decides `ok`.
///
/// Tolerance bands are generous by design — the closed forms assume
/// independent deaths at a fixed `n` while the simulator draws from a
/// drifting live set — but tight enough to catch a broken estimator: a
/// staleness fraction off by 2x, or an exhaustion probability that
/// scales like `p` instead of `p^s`, fails them.
#[derive(Debug, Clone)]
pub struct TheoryCheck {
    /// Which estimator (stable, machine-readable).
    pub name: String,
    /// The churn rate validated.
    pub rate: f64,
    /// The simulated fraction (integer counts accumulated over every
    /// window, divided once at the end).
    pub simulated: f64,
    /// The closed-form prediction, sample-size weighted over windows.
    pub predicted: f64,
    /// Relative tolerance on the prediction.
    pub tol_rel: f64,
    /// Absolute tolerance floor (covers predictions near zero).
    pub tol_abs: f64,
    /// `|simulated − predicted| <= predicted·tol_rel + tol_abs`.
    pub ok: bool,
}

fn check(
    name: String,
    rate: f64,
    simulated: f64,
    predicted: f64,
    tol_rel: f64,
    tol_abs: f64,
) -> TheoryCheck {
    let ok = (simulated - predicted).abs() <= predicted * tol_rel + tol_abs;
    TheoryCheck { name, rate, simulated, predicted, tol_rel, tol_abs, ok }
}

/// Run the closed-form validation from `seed`: for each rate, drive a
/// bare Chord ring through the theory windows. Each window starts fully
/// repaired ([`Chord::rebuild_all_state`] — ground truth, every counter
/// zero), applies one window of Poisson churn (joins at rate `R`,
/// abrupt failures at rate `R`), samples [`Chord::successor_staleness`]
/// and the owner-death fraction *just before* repair, then repairs and
/// moves on.
pub fn churn_theory_checks(seed: u64) -> Vec<TheoryCheck> {
    let mut out = Vec::new();
    let s = THEORY_SUCC_LIST_LEN;
    for rate in THEORY_RATES {
        let cfg = ChordConfig { succ_list_len: s, seed };
        // lint:allow(bed-rebuild): the theory net is a bare few-hundred
        // node ring (microseconds to build), and each rate must start
        // from a fresh, fully-repaired ring by construction.
        let mut net = Chord::build(THEORY_NODES, cfg);
        let mut rng = SmallRng::seed_from_u64(seed ^ (rate * 1000.0) as u64);
        // Integer accumulators; divide once at the end.
        let mut stale_first = 0usize;
        let mut exhausted = 0usize;
        let mut live_total = 0usize;
        let mut dead_entries = 0usize;
        let mut entries_total = 0usize;
        let mut owner_dead = 0usize;
        let mut owner_total = 0usize;
        // Prediction accumulators, weighted by the same sample counts.
        let (mut pred_stale, mut pred_exh, mut pred_dead, mut pred_owner) = (0.0, 0.0, 0.0, 0.0);
        for _ in 0..THEORY_WINDOWS {
            let n_start = net.len();
            let p = 1.0 - (-rate * THEORY_PERIOD / n_start as f64).exp();
            // Snapshot the owners of a fixed key sample; liveness is
            // checked against these *nodes* at window end, so later
            // joins cannot mask a death.
            let owners: Vec<_> = (0..THEORY_OWNER_SAMPLES)
                .filter_map(|j| net.owner_of(splitmix64(seed ^ j as u64)).ok())
                .collect();
            let schedule =
                ChurnSchedule::generate_with_failures(rate, THEORY_PERIOD, 0.0, &mut rng);
            for e in schedule.events() {
                match e.kind {
                    ChurnKind::Join => {
                        if let Some(b) = net.random_node(&mut rng) {
                            let _ = net.join(b);
                        }
                    }
                    ChurnKind::Leave | ChurnKind::Fail => {
                        if net.len() > s + 4 {
                            if let Some(v) = net.random_node(&mut rng) {
                                let _ = net.fail(v);
                            }
                        }
                    }
                }
            }
            // Sample just before repair.
            let st = net.successor_staleness();
            stale_first += st.stale_first;
            exhausted += st.exhausted;
            live_total += st.live;
            dead_entries += st.dead_entries;
            entries_total += st.entries;
            let dead_now =
                owners.iter().filter(|&&o| !net.node(o).map(|x| x.is_alive()).unwrap_or(false));
            owner_dead += dead_now.count();
            owner_total += owners.len();
            pred_stale += p * st.live as f64;
            pred_exh += p.powi(s as i32) * st.live as f64;
            pred_dead += p * st.entries as f64;
            pred_owner += p * owners.len() as f64;
            // Full repair: next window starts from ground truth.
            net.rebuild_all_state();
        }
        let frac = |num: usize, den: usize| if den == 0 { 0.0 } else { num as f64 / den as f64 };
        let pred = |sum: f64, den: usize| if den == 0 { 0.0 } else { sum / den as f64 };
        out.push(check(
            "stale_first_successor".into(),
            rate,
            frac(stale_first, live_total),
            pred(pred_stale, live_total),
            0.35,
            0.01,
        ));
        out.push(check(
            "dead_successor_entries".into(),
            rate,
            frac(dead_entries, entries_total),
            pred(pred_dead, entries_total),
            0.35,
            0.01,
        ));
        out.push(check(
            "successor_list_exhausted".into(),
            rate,
            frac(exhausted, live_total),
            pred(pred_exh, live_total),
            0.5,
            0.015,
        ));
        out.push(check(
            "owner_lookup_failure".into(),
            rate,
            frac(owner_dead, owner_total),
            pred(pred_owner, owner_total),
            0.35,
            0.015,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::build_system;

    fn small_cfg() -> SimConfig {
        SimConfig { nodes: 384, attrs: 20, values: 50, dimension: 7, ..SimConfig::default() }
    }

    fn tiny_setup() -> DurabilitySetup {
        DurabilitySetup {
            rates: vec![0.4],
            degrees: vec![1, 2],
            duration: 100.0,
            probe_origins: 8,
            probe_per_origin: 2,
            ..DurabilitySetup::quick()
        }
    }

    #[test]
    fn replication_reduces_loss_on_one_cell() {
        let cfg = small_cfg();
        let mut wl_rng = SmallRng::seed_from_u64(21);
        let workload = Workload::generate(cfg.workload_config(), &mut wl_rng).unwrap();
        let setup = tiny_setup();
        let mut sched_rng = SmallRng::seed_from_u64(22);
        let schedule =
            ChurnSchedule::generate_with_failures(0.5, setup.duration, 0.0, &mut sched_rng);
        let mut unrepl = build_system(System::Sword, &workload, &cfg);
        let c1 = run_durability_one(unrepl.as_mut(), &workload, &schedule, &setup, 1, 23);
        let mut repl = build_system(System::Sword, &workload, &cfg);
        let c3 = run_durability_one(repl.as_mut(), &workload, &schedule, &setup, 3, 23);
        assert_eq!(c1.initial, c3.initial, "replication must not add identities");
        assert!(c1.events > 0, "schedule produced no events");
        assert!(
            c3.surviving >= c1.surviving,
            "k=3 survived {} < k=1's {}",
            c3.surviving,
            c1.surviving
        );
        assert!(c1.loss > 0.0, "abrupt-failure churn lost nothing at k=1");
        assert!(c3.loss < c1.loss, "k=3 loss {} !< k=1 loss {}", c3.loss, c1.loss);
        assert_eq!(c1.repair_transfers(), 0, "k=1 repair must be a no-op");
        assert!(c3.repair_transfers() > 0, "k=3 repair moved nothing");
        assert!(c3.repair_rounds > 0);
    }

    #[test]
    fn sweep_is_monotone_and_reports() {
        let cfg = small_cfg();
        let setup = tiny_setup();
        let d = durability(&cfg, &setup, &BedCache::new());
        assert_eq!(d.rows.len(), setup.rates.len() * setup.degrees.len());
        assert!(d.violations().is_empty(), "{:?}", d.violations());
        // One check forced outside its band fails the sweep, by name.
        let mut bad = d.clone();
        let c = &d.checks[1];
        bad.checks[1] =
            check(c.name.clone(), c.rate, c.predicted + 1.0, c.predicted, c.tol_rel, c.tol_abs);
        let violations = bad.violations();
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].starts_with(&format!("{} @ R={}", c.name, c.rate)), "{violations:?}");
        let rep = d.report();
        let text = rep.to_string();
        assert!(text.contains("data-loss probability"), "{text}");
        assert!(text.contains("Churn theory checks"), "{text}");
        assert!(text.contains("k-monotonicity: surviving pieces non-decreasing"), "{text}");
        let j = rep.to_json();
        assert!(j.starts_with("{\"tables\":["), "{j}");
    }

    #[test]
    fn theory_checks_pass_at_default_setting() {
        let checks = churn_theory_checks(0x1C99);
        assert_eq!(checks.len(), 8, "4 estimators x 2 rates");
        for c in &checks {
            assert!(
                c.ok,
                "{} @ R={}: simulated {} vs predicted {} (tol {}% + {})",
                c.name,
                c.rate,
                c.simulated,
                c.predicted,
                c.tol_rel * 100.0,
                c.tol_abs
            );
        }
        // The heavy-churn exhaustion estimator must actually observe
        // exhaustion — a zero simulated fraction would pass the band
        // trivially while measuring nothing.
        let exh = checks
            .iter()
            .find(|c| c.name == "successor_list_exhausted" && c.rate > 1.0)
            .expect("heavy-churn exhaustion check");
        assert!(exh.simulated > 0.0, "exhaustion never observed");
        assert!(exh.predicted > 0.01, "setup too mild to validate p^s");
    }

    #[test]
    fn theory_checks_catch_a_wrong_prediction() {
        // Same machinery, deliberately broken closed form: the band must
        // reject a prediction that is off by 3x.
        let c = check("synthetic".into(), 1.0, 0.3, 0.1, 0.35, 0.01);
        assert!(!c.ok);
        let c = check("synthetic".into(), 1.0, 0.102, 0.1, 0.35, 0.01);
        assert!(c.ok);
    }
}
