//! State-machine property test of the store path, written once over
//! `Box<dyn ResourceDiscovery>`: random sequences of join / leave / fail /
//! stabilize / register / place_all / query drive all five systems (LORM,
//! Mercury, SWORD, MAAN, CompositeFlat) side by side, and every query is
//! checked under all three plans against a linear scan of the reports the
//! model says are registered.
//!
//! The model tracks three facts about a system and asserts what follows
//! from them:
//!
//! * **exact** — links are repaired (`stabilize` ran since the last
//!   membership change) and no stored piece can be missing or misplaced:
//!   every query must succeed and return exactly the linear-scan owners.
//!   `place_all` restores this from any state; graceful departures keep it
//!   *without* a refresh (the handoff re-stores every piece under the key
//!   it was registered under — MAAN's dual keys, Mercury's per-hub rings);
//! * **stale** — a join moved ownership without moving pieces, a failure
//!   dropped some, or a routed insert ran over unrepaired links: a query
//!   that succeeds returns a subset of the linear-scan owners;
//! * **lossless** — no piece can have left the system: the live nodes
//!   still reach every registered piece. At degree k ≥ 2 a repair window
//!   (the ops between two `stabilize` calls) with a single departure in it
//!   stays lossless, provided the replicas were repaired since the last
//!   placement.
//!
//! After every step the system's own `check_invariants()` must hold too
//! (the same check every mutating op `debug_assert!`s).
//!
//! Runs in tier-1 (`cargo test -q`, facade package), a few seconds in a
//! debug build.

use lorm_repro::baselines::{CompositeConfig, CompositeFlat};
use lorm_repro::grid_resource::{
    canonicalize_pieces, count_surviving, PieceKey, QueryMode, QueryPlan,
};
use lorm_repro::prelude::*;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

type Sys = Box<dyn ResourceDiscovery + Send + Sync>;

const ATTRS: usize = 6;
const VALUES: usize = 12;

#[derive(Debug, Clone, Copy)]
enum Op {
    Join,
    Leave(usize),
    Fail(usize),
    Stabilize,
    Register { attr: u32, value: u32, owner: usize },
    PlaceAll,
    Query { origin: usize, seed: u64 },
}

/// Weighted op mix, in the order of the `Op` variants.
fn ops(weights: [u32; 7], len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Op>> {
    let [join, leave, fail, stabilize, register, place_all, query] = weights;
    prop::collection::vec(
        prop_oneof![
            join => Just(Op::Join),
            leave => (0usize..1 << 16).prop_map(Op::Leave),
            fail => (0usize..1 << 16).prop_map(Op::Fail),
            stabilize => Just(Op::Stabilize),
            register => (0..ATTRS as u32, 1..=VALUES as u32, 0usize..1 << 16)
                .prop_map(|(attr, value, owner)| Op::Register { attr, value, owner }),
            place_all => Just(Op::PlaceAll),
            query => (0usize..1 << 16, 0u64..1 << 32)
                .prop_map(|(origin, seed)| Op::Query { origin, seed }),
        ],
        len,
    )
}

fn cfg(nodes: usize, dimension: u8, seed: u64) -> SimConfig {
    SimConfig { nodes, dimension, attrs: ATTRS, values: VALUES, seed, ..SimConfig::default() }
}

fn five_systems(cfg: &SimConfig, w: &Workload) -> Vec<Sys> {
    let mut all: Vec<Sys> = System::ALL.iter().map(|&s| build_system(s, w, cfg)).collect();
    let composite = CompositeConfig { seed: cfg.seed, ..CompositeConfig::default() };
    let mut flat = CompositeFlat::new(cfg.nodes, &w.space, composite);
    flat.place_all(&w.reports);
    all.push(Box::new(flat));
    all
}

/// Owners a linear scan of `reports` finds for `q`, strictly ascending.
fn scan(reports: &[ResourceInfo], q: &Query) -> Vec<usize> {
    let mut subs = q.subs.iter().map(|s| {
        let mut owners: Vec<usize> = reports
            .iter()
            .filter(|r| r.attr == s.attr && s.target.matches(r.value))
            .map(|r| r.owner)
            .collect();
        owners.sort_unstable();
        owners.dedup();
        owners
    });
    let first = subs.next().unwrap_or_default();
    subs.fold(first, |acc, set| acc.into_iter().filter(|o| set.binary_search(o).is_ok()).collect())
}

/// What the model knows about one system (see the module doc).
struct Model {
    reports: Vec<ResourceInfo>,
    max_phys: usize,
    /// Departures and failures stop at this many live nodes.
    min_live: usize,
    repl: usize,
    unstable: bool,
    stale: bool,
    lossy: bool,
    replicas_fresh: bool,
    window_departures: usize,
    window_failed: bool,
}

impl Model {
    fn pick_live(&self, sys: &Sys, pick: usize) -> usize {
        (0..self.max_phys)
            .map(|i| (pick + i) % self.max_phys)
            .find(|&p| sys.is_live(p))
            .expect("a live node")
    }

    fn exact(&self) -> bool {
        !self.unstable && !self.stale
    }

    fn apply(&mut self, sys: &mut Sys, w: &Workload, op: Op) -> Result<(), TestCaseError> {
        let name = sys.name();
        match op {
            Op::Join => {
                // A full Cycloid refuses the join; nothing changed then.
                if let Ok(id) = sys.join_physical(&mut SmallRng::seed_from_u64(id_seed(self))) {
                    prop_assert_eq!(id, self.max_phys, "{}: join ids are dense", name);
                    self.max_phys += 1;
                    self.unstable = true;
                    self.stale = true;
                }
            }
            Op::Leave(pick) | Op::Fail(pick) if sys.num_physical() > self.min_live => {
                let p = self.pick_live(sys, pick);
                if matches!(op, Op::Leave(_)) {
                    prop_assert!(sys.leave_physical(p).is_ok(), "{}: leave {}", name, p);
                    // The departing node's replica store goes with it: a
                    // piece whose primary failed earlier in this window
                    // may have had its last copy there.
                    self.lossy |= self.window_failed;
                } else {
                    prop_assert!(sys.fail_physical(p).is_ok(), "{}: fail {}", name, p);
                    let covered =
                        self.repl >= 2 && self.replicas_fresh && self.window_departures == 0;
                    self.lossy |= !covered;
                    self.window_failed = true;
                }
                prop_assert!(!sys.is_live(p));
                self.stale |= self.lossy;
                self.window_departures += 1;
                self.unstable = true;
            }
            Op::Leave(_) | Op::Fail(_) => {}
            Op::Stabilize => {
                sys.stabilize();
                self.unstable = false;
                self.replicas_fresh = true;
                self.window_departures = 0;
                self.window_failed = false;
            }
            Op::Register { attr, value, owner } => {
                let owner = self.pick_live(sys, owner);
                let info = ResourceInfo { attr: AttrId(attr), value: f64::from(value), owner };
                let stored = sys.register(info);
                prop_assert!(stored.is_ok() || self.unstable, "{}: register {:?}", name, stored);
                self.reports.push(info);
                // Over unrepaired links the insert may land off its owner
                // (or, in MAAN, under one of its two keys only).
                self.stale |= self.unstable;
                self.lossy |= stored.is_err();
                self.replicas_fresh = false;
            }
            Op::PlaceAll => {
                sys.place_all(&self.reports);
                self.stale = false;
                self.lossy = false;
                self.replicas_fresh = false;
            }
            Op::Query { origin, seed } => {
                let mut rng = SmallRng::seed_from_u64(seed);
                let arity = 1 + (seed % 3) as usize;
                let mix = if seed % 2 == 0 { QueryMix::Range } else { QueryMix::NonRange };
                let q = w.random_query(arity, mix, &mut rng);
                self.check_query(sys, self.pick_live(sys, origin), &q)?;
            }
        }
        Ok(())
    }

    fn check_query(&self, sys: &Sys, origin: usize, q: &Query) -> Result<(), TestCaseError> {
        let want = scan(&self.reports, q);
        for plan in QueryPlan::ALL {
            let got = sys.query(origin, q, QueryMode::Direct(plan)).map(|f| f.outcome.owners);
            match got {
                Ok(owners) if self.exact() => {
                    prop_assert_eq!(owners, want.clone(), "{} {:?} {:?}", sys.name(), plan, q)
                }
                Ok(owners) => prop_assert!(
                    owners.iter().all(|o| want.binary_search(o).is_ok()),
                    "{} {:?} fabricated owners: {:?} not within {:?}",
                    sys.name(),
                    plan,
                    owners,
                    want
                ),
                Err(e) => prop_assert!(!self.exact(), "{} {:?}: {}", sys.name(), plan, e),
            }
        }
        Ok(())
    }

    /// Every grid point of every attribute (a point lookup reaches one
    /// root only, so a piece handed off under the wrong key is missed),
    /// each attribute's whole domain (the longest walk), and a few joins.
    fn sweep(&self, sys: &Sys, w: &Workload) -> Result<(), TestCaseError> {
        let (low, high) = w.space.domain();
        for attr in w.space.ids() {
            let points = (1..=VALUES).map(|v| ValueTarget::Point(v as f64));
            for target in points.chain([ValueTarget::Range { low, high }]) {
                let q = Query { subs: vec![SubQuery { attr, target }] };
                self.check_query(sys, self.pick_live(sys, attr.0 as usize * 31), &q)?;
            }
        }
        let mut rng = SmallRng::seed_from_u64(self.reports.len() as u64);
        for origin in 0..4 {
            let q = w.random_query(2, QueryMix::Range, &mut rng);
            self.check_query(sys, self.pick_live(sys, origin * 17), &q)?;
        }
        Ok(())
    }

    /// Every registered piece is still reachable on a live node.
    fn check_census(&self, sys: &Sys) -> Result<(), TestCaseError> {
        let mut want: Vec<PieceKey> = self.reports.iter().map(PieceKey::of).collect();
        canonicalize_pieces(&mut want);
        let mut have = Vec::new();
        sys.surviving_pieces_into(&mut have);
        canonicalize_pieces(&mut have);
        prop_assert_eq!(count_surviving(&want, &have), want.len(), "{} lost pieces", sys.name());
        Ok(())
    }
}

/// Joins draw their Cycloid slot from an RNG; seed it from the model so
/// the five systems see independent but reproducible draws.
fn id_seed(m: &Model) -> u64 {
    0x10_1D ^ ((m.max_phys as u64) << 8) ^ m.reports.len() as u64
}

/// Drive all five systems through `ops` at replication degree `repl`,
/// then repair, refresh and demand exact answers once more.
fn run(cfg: &SimConfig, repl: usize, min_live: usize, ops: &[Op]) -> Result<(), TestCaseError> {
    let w = Workload::generate(cfg.workload_config(), &mut SmallRng::seed_from_u64(cfg.seed))
        .expect("valid workload");
    for mut sys in five_systems(cfg, &w) {
        sys.set_replication(repl);
        let mut m = Model {
            reports: w.reports.clone(),
            max_phys: cfg.nodes,
            min_live,
            repl,
            unstable: false,
            stale: false,
            lossy: false,
            replicas_fresh: true,
            window_departures: 0,
            window_failed: false,
        };
        for &op in ops {
            m.apply(&mut sys, &w, op)?;
            prop_assert_eq!(sys.check_invariants(), Ok(()), "{} after {:?}", sys.name(), op);
            if !m.lossy {
                m.check_census(&sys)?;
            }
        }
        // Repair only: whatever the model still calls exact must answer
        // exactly with no refresh papering over the handoffs. Then refresh:
        // every state answers exactly again.
        m.apply(&mut sys, &w, Op::Stabilize)?;
        m.sweep(&sys, &w)?;
        m.apply(&mut sys, &w, Op::PlaceAll)?;
        m.sweep(&sys, &w)?;
        m.check_census(&sys)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The full op mix on an unreplicated, partly occupied bed (96 of the
    /// 160 Cycloid slots, so joins find room).
    #[test]
    fn random_churn_keeps_answers_exact_or_classified(
        seed in 0u64..1 << 20,
        ops in ops([3, 3, 2, 3, 3, 2, 6], 1..36),
    ) {
        run(&cfg(96, 5, seed), 1, 8, &ops)?;
    }

    /// Graceful departures only, never a refresh: after `stabilize` every
    /// answer is still exact — the handoff alone kept each piece under the
    /// key(s) it is looked up by.
    #[test]
    fn graceful_departures_need_no_refresh(
        seed in 0u64..1 << 20,
        ops in ops([0, 6, 0, 3, 2, 0, 6], 1..36),
    ) {
        run(&cfg(96, 5, seed), 1, 8, &ops)?;
    }

    /// Degree k ≥ 2 on a full Cycloid (every cluster has all d members, so
    /// every root has a leaf-set replica target; at most three departures
    /// keep two members per cluster): a repair window with one failure in
    /// it loses nothing, and answers stay exact without a refresh.
    #[test]
    fn one_failure_per_repair_window_loses_nothing_at_k2(
        seed in 0u64..1 << 20,
        k in 2usize..4,
        ops in ops([0, 2, 4, 5, 0, 0, 5], 1..20),
    ) {
        run(&cfg(160, 5, seed), k, 157, &ops)?;
    }
}
