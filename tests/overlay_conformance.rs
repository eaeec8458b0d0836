//! One conformance harness for both overlays. Every figure and Theorem 4.7
//! assume that Cycloid (under LORM) and Chord (under Mercury, SWORD and
//! MAAN) route each lookup to its key's true owner; this file checks that
//! once, generic over [`Overlay`], instead of once per overlay.
//!
//! A [`Testable`] impl supplies what `Overlay` does not: membership ops,
//! the protocol's own stabilization, ground-truth repair, the keys worth
//! checking, the link relation, the overlay's outlink and hop bounds, and a
//! definitional owner oracle that reads only the ids of `live_nodes()`,
//! never the overlay's tables.
//!
//! [`replay`] drives a seeded op sequence (join, join at a chosen id,
//! leave, fail, stabilize, rebuild). After every op the overlay's
//! `check_invariants()` must hold and the epoch rule with it: the epoch
//! never falls, and a completed op raises it. A departed node must refuse
//! to originate a lookup. On the built overlay and after every
//! ground-truth rebuild, every link must be the ground-truth one, and
//! [`check_routes`] routes every checked key from every live node (sampled
//! origins above [`ALL_ORIGINS`] nodes) and asserts for each route:
//!
//! * the terminal is `owner_of`, which is the oracle's owner;
//! * `route` ≡ `route_stats` ≡ `route_with` under an inert [`FaultSink`] ≡
//!   `route_with_retry`, and the traced path ends at the terminal;
//! * hops ≤ `route_budget()`, and routes over the overlay's own hop
//!   bound are counted;
//! * every hop follows a link of the node it leaves, and a node finds its
//!   own id without a hop;
//! * for the first [`FAULT_KEYS`] keys: under a plan that drops every
//!   message, or fails every node, a multi-hop lookup dies on its first
//!   forwarding, and a faulty plan replays identically;
//!
//! and for each origin, outlinks ≤ the overlay's bound.
//!
//! **Stabilization's precondition.** Protocol stabilization promises
//! exactness only between repairs that keep every successor list partly
//! alive and every join spliced at its true successor (Krishnamurthy et
//! al., "A Statistical Theory of Chord under Churn", PAPERS.md). The model
//! tracks both per repair window; after a `Stabilize` op that met the
//! overlay's [`Testable::stabilize_promised`] the full route check runs, and
//! otherwise every check but exactness does, the inexact routes counted.
//!
//! **Three properties fail at this commit; each is pinned by count, not
//! skipped.** A fix that moves a count re-records it here.
//! * Cycloid revisits nodes on sparse beds: [`CYCLOID_REVISITS`].
//! * Cycloid's sparse hop bound `4d + 4` does not hold at d = 8 and 73 %
//!   fill: the last column of [`CYCLOID_REVISITS`].
//! * Chord's stabilization leaves an orphaned joiner when a join follows an
//!   unrepaired failure: [`chord_stabilize_orphans_a_join_that_follows_a_failure`].

use lorm_repro::chord::{Chord, ChordConfig};
use lorm_repro::dht_core::{
    route_with_retry, DhtError, FaultAccount, FaultPlan, FaultSink, HopCount, MsgId, RouteResult,
    RouteStats,
};
use lorm_repro::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Route from every live node up to this population, from a sample above.
const ALL_ORIGINS: usize = 256;
/// Origins sampled on larger overlays.
const SAMPLED_ORIGINS: usize = 32;
/// Keys per origin also routed under the fault plans.
const FAULT_KEYS: usize = 4;

/// What the harness needs from an overlay beyond [`Overlay`].
trait Testable: Overlay {
    /// Join a node with an id of the overlay's own choosing; `x` picks the
    /// bootstrap where there is one.
    fn join_any(&mut self, x: u64) -> Result<NodeIdx, DhtError>;
    /// Join a node at an id derived from `x` (next to an existing id on
    /// Chord, the slot `x mod d·2^d` on Cycloid).
    fn join_at(&mut self, x: u64) -> Result<NodeIdx, DhtError>;
    fn depart(&mut self, v: NodeIdx, graceful: bool) -> Result<(), DhtError>;
    /// The protocol's own maintenance, run for as many rounds as its
    /// precondition ([`Testable::stabilize_promised`]) needs.
    fn stabilize(&mut self);
    /// Ground-truth repair of every node's links.
    fn rebuild(&mut self);
    fn invariants(&self) -> Result<(), String>;
    /// Every live node's links are what ground-truth repair derives, read
    /// through the public node view and `owner_of`.
    fn ground_truth(&self) -> Result<(), String>;
    /// Whether protocol stabilization can promise exact lookups after the
    /// repair window `w`.
    fn stabilize_promised(&self, w: &Window) -> bool;
    /// The keys to check: the overlay's boundary keys, some live ids and
    /// random keys.
    fn keys(&self, rng: &mut SmallRng) -> Vec<Self::Key>;
    fn is_link(&self, from: NodeIdx, to: NodeIdx) -> bool;
    fn outlink_bound(&self) -> usize;
    fn hop_bound(&self) -> usize;
    /// The definitional owner of `key`, from the ids of `live_nodes()` only.
    fn oracle(&self, key: Self::Key) -> Option<NodeIdx>;
    fn id(&self, v: NodeIdx) -> Self::Key;
}

/// Membership and repair since the last ground-truth rebuild.
#[derive(Debug, Default, Clone, Copy)]
struct Window {
    /// Leaves and failures.
    departed: usize,
    failed: usize,
    joined_after_failure: bool,
    /// The fewest live nodes the overlay held.
    smallest: usize,
}

/// What a replay saw besides its assertions.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Tally {
    routes: usize,
    /// Routes whose path (origin included) visits some node twice.
    revisits: usize,
    /// Routes off their owner after a `Stabilize` outside its precondition.
    inexact: usize,
    /// Exact routes longer than the overlay's own hop bound.
    over_bound: usize,
}

impl std::ops::AddAssign for Tally {
    fn add_assign(&mut self, o: Self) {
        self.routes += o.routes;
        self.revisits += o.revisits;
        self.inexact += o.inexact;
        self.over_bound += o.over_bound;
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Join(u64),
    JoinAt(u64),
    Leave(u64),
    Fail(u64),
    Stabilize,
    Rebuild,
}

/// `len` ops from `seed`, mostly membership, now and then a repair, and a
/// closing rebuild so every replay checks routes on ground truth.
fn ops(seed: u64, len: usize) -> Vec<Op> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            let x: u64 = rng.gen();
            match rng.gen_range(0..12) {
                0..=2 => Op::Join(x),
                3 => Op::JoinAt(x),
                4..=6 => Op::Leave(x),
                7..=8 => Op::Fail(x),
                9..=10 => Op::Stabilize,
                _ => Op::Rebuild,
            }
        })
        .chain([Op::Rebuild])
        .collect()
}

/// Replay `ops` on `net`, checking after every op as the module doc says.
/// Returns the tally and the repair window the ops leave open.
fn replay<D: Testable>(net: &mut D, ops: &[Op], seed: u64, what: &str) -> (Tally, Window) {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xC0F0);
    assert_eq!(net.ground_truth(), Ok(()), "{what} built");
    let mut tally = check_routes(net, &mut rng, true, &format!("{what} built"));
    let fresh = |net: &D| Window { smallest: net.len(), ..Window::default() };
    let mut window = fresh(net);
    for (i, &op) in ops.iter().enumerate() {
        let ctx = format!("{what} op {i} {op:?}");
        let before = net.epoch();
        let done = match op {
            Op::Join(x) => net.join_any(x).is_ok(),
            Op::JoinAt(x) => net.join_at(x).is_ok(),
            Op::Leave(x) | Op::Fail(x) if net.len() > 1 => {
                let v = net.live_nodes().at((x % net.len() as u64) as usize);
                let graceful = matches!(op, Op::Leave(_));
                net.depart(v, graceful).unwrap_or_else(|e| panic!("{ctx}: {e}"));
                let key = net.keys(&mut rng)[0];
                assert_eq!(net.route(v, key).err(), Some(dead(v)), "{ctx}");
                assert_eq!(net.route_stats(v, key).err(), Some(dead(v)), "{ctx}");
                window.departed += 1;
                window.failed += usize::from(!graceful);
                window.smallest = window.smallest.min(net.len());
                true
            }
            Op::Leave(_) | Op::Fail(_) => false,
            Op::Stabilize => {
                net.stabilize();
                true
            }
            Op::Rebuild => {
                net.rebuild();
                true
            }
        };
        if done && matches!(op, Op::Join(_) | Op::JoinAt(_)) && window.failed > 0 {
            window.joined_after_failure = true;
        }
        assert_eq!(net.invariants(), Ok(()), "{ctx}");
        assert!(net.epoch() >= before, "{ctx}: epoch fell");
        assert!(!done || net.epoch() > before, "{ctx}: epoch stayed at {before}");
        match op {
            Op::Stabilize => {
                let promised = net.stabilize_promised(&window);
                tally += check_routes(net, &mut rng, promised, &ctx);
            }
            Op::Rebuild => {
                assert_eq!(net.ground_truth(), Ok(()), "{ctx}");
                tally += check_routes(net, &mut rng, true, &ctx);
                window = fresh(net);
            }
            _ => {}
        }
    }
    (tally, window)
}

fn dead(v: NodeIdx) -> DhtError {
    DhtError::NodeNotFound { index: v.0 }
}

/// Route every checked key from every origin and assert the module doc's
/// list. With `exact` false the terminal may miss its owner: such routes
/// are counted instead.
fn check_routes<D: Testable>(net: &D, rng: &mut SmallRng, exact: bool, what: &str) -> Tally {
    let live = net.live_nodes();
    let origins: Vec<NodeIdx> = if live.len() <= ALL_ORIGINS {
        live.to_vec()
    } else {
        (0..SAMPLED_ORIGINS).map(|_| live.at(rng.gen_range(0..live.len()))).collect()
    };
    let keys = net.keys(rng);
    let owners: Vec<NodeIdx> = keys
        .iter()
        .map(|&key| {
            let owner = net.owner_of(key).unwrap();
            assert_eq!(Some(owner), net.oracle(key), "{what}: owner of {key:?}");
            owner
        })
        .collect();
    let inert = FaultPlan::new(0xFA57, 0.0, 0.0).unwrap();
    let faulty = FaultPlan::new(5, 0.15, 0.1).unwrap();
    let killers = [FaultPlan::new(1, 1.0, 0.0).unwrap(), FaultPlan::new(2, 0.0, 1.0).unwrap()];
    let (budget, bound) = (net.route_budget(), net.hop_bound());
    let mut tally = Tally::default();
    for &from in &origins {
        let links = net.outlinks(from).unwrap();
        assert!(links <= net.outlink_bound(), "{what}: {from} has {links} outlinks");
        let own = net.route_stats(from, net.id(from)).map(|r| (r.hops, r.terminal));
        assert!(!exact || own == Ok((0, from)), "{what}: {from} looked up its own id: {own:?}");
        for (k, (&key, &owner)) in keys.iter().zip(&owners).enumerate() {
            let ctx = || format!("{what}: {from} -> {key:?}");
            let msg = tally.routes as u64;
            tally.routes += 1;
            let fast = net.route_stats(from, key);
            let traced = net.route(from, key);
            let stats = |t: &RouteResult| RouteStats {
                hops: t.hops(),
                terminal: t.terminal,
                exact: t.exact,
            };
            assert_eq!(traced.as_ref().map(stats).map_err(Clone::clone), fast, "{}: traced", ctx());
            let mut hops = HopCount::default();
            let with = net.route_with(
                from,
                key,
                &mut FaultSink::new(&mut hops, &inert, MsgId::first(msg)),
            );
            let with =
                with.map(|(terminal, exact)| RouteStats { hops: hops.get(), terminal, exact });
            assert_eq!(with, fast, "{}: inert sink", ctx());
            let acct = &mut FaultAccount::default();
            assert_eq!(
                route_with_retry(net, from, key, &inert, msg, acct),
                fast,
                "{}: retry",
                ctx()
            );
            let (Ok(fast), Ok(traced)) = (fast.clone(), traced) else {
                assert!(!exact, "{}: {fast:?}", ctx());
                tally.inexact += 1;
                continue;
            };
            assert_eq!(fast.exact, fast.terminal == owner, "{}", ctx());
            assert!(fast.hops <= budget, "{}: {} hops", ctx(), fast.hops);
            let mut cur = from;
            for &hop in &traced.path {
                assert!(net.is_link(cur, hop), "{}: hop {cur} -> {hop} follows no link", ctx());
                cur = hop;
            }
            assert_eq!(cur, fast.terminal, "{}: path ends off the terminal", ctx());
            let mut seen = traced.path.clone();
            seen.push(from);
            seen.sort_unstable();
            seen.dedup();
            tally.revisits += usize::from(seen.len() <= traced.path.len());
            if !exact {
                tally.inexact += usize::from(!fast.exact);
                continue;
            }
            assert_eq!(fast.terminal, owner, "{}: missed the owner", ctx());
            tally.over_bound += usize::from(fast.hops > bound);
            if k >= FAULT_KEYS {
                continue;
            }
            for plan in &killers {
                match route_with_retry(net, from, key, plan, msg, acct) {
                    Ok(r) => assert_eq!(r.hops, 0, "{}: a forwarding survived {plan:?}", ctx()),
                    Err(DhtError::MessageDropped { hops: 0 } | DhtError::DeadHop { hops: 0 }) => {
                        assert!(fast.hops > 0, "{}: a local lookup failed under {plan:?}", ctx())
                    }
                    Err(e) => panic!("{}: {e} under {plan:?}", ctx()),
                }
            }
            let again =
                |acct: &mut FaultAccount| route_with_retry(net, from, key, &faulty, msg, acct);
            assert_eq!(again(acct), again(&mut FaultAccount::default()), "{}: replay", ctx());
        }
    }
    tally
}

// ---------------------------------------------------------------------------
// Chord
// ---------------------------------------------------------------------------

impl Testable for Chord {
    fn join_any(&mut self, x: u64) -> Result<NodeIdx, DhtError> {
        let boot = self.nodes_by_id().at((x % self.len() as u64) as usize);
        self.join(boot)
    }

    fn join_at(&mut self, x: u64) -> Result<NodeIdx, DhtError> {
        // gaps of 1..=16 after an existing id, wrapping past u64::MAX
        let boot = self.nodes_by_id().at((x % self.len() as u64) as usize);
        self.join_with_id(boot, self.id_of(boot)?.wrapping_add(1 + (x >> 60)))
    }

    fn depart(&mut self, v: NodeIdx, graceful: bool) -> Result<(), DhtError> {
        if graceful {
            self.leave(v)
        } else {
            self.fail(v)
        }
    }

    /// Three rounds: enough for every successor list to refill after
    /// fewer departures than it holds.
    fn stabilize(&mut self) {
        (0..3).for_each(|_| self.stabilize_all());
    }

    fn rebuild(&mut self) {
        self.rebuild_all_state();
    }

    fn invariants(&self) -> Result<(), String> {
        self.check_invariants()
    }

    /// Successor lists hold the next `min(r, n − 1)` live ids, the
    /// predecessor is the previous one, and finger `i` is the owner of
    /// `id + 2^i`.
    fn ground_truth(&self) -> Result<(), String> {
        let ring = self.nodes_by_id();
        let at = |k: usize| ring.at(k % ring.len());
        let r = self.config().succ_list_len.min(ring.len() - 1).max(1);
        for (pos, i) in ring.iter().enumerate() {
            let node = self.node(i).unwrap();
            let succs: Vec<NodeIdx> = (1..=r).map(|k| at(pos + k)).collect();
            if node.successor_list() != succs
                || node.predecessor() != Some(at(pos + ring.len() - 1))
            {
                return Err(format!("{i}: successors {:?}, want {succs:?}", node.successor_list()));
            }
            let mut fingers = node.fingers().into_iter().enumerate();
            if let Some((l, f)) =
                fingers.find(|&(l, f)| self.owner_of(node.id().wrapping_add(1 << l)) != Ok(f))
            {
                return Err(format!("{i}: finger {l} is {f}"));
            }
        }
        Ok(())
    }

    /// No departure, or fewer than the shortest successor list held, so
    /// none was emptied; and no join routed over a failure's stale links.
    fn stabilize_promised(&self, w: &Window) -> bool {
        let shortest = self.config().succ_list_len.min(w.smallest.saturating_sub(1));
        w.departed < shortest.max(1) && !w.joined_after_failure
    }

    fn keys(&self, rng: &mut SmallRng) -> Vec<u64> {
        let mut keys = vec![0, 1, u64::MAX / 2, u64::MAX - 1, u64::MAX];
        for _ in 0..2 {
            let id = self.id(self.random_node(rng).unwrap());
            keys.extend([id, id.wrapping_add(1), id.wrapping_sub(1)]);
        }
        keys.extend((0..4).map(|_| rng.gen::<u64>()));
        keys
    }

    fn is_link(&self, from: NodeIdx, to: NodeIdx) -> bool {
        let node = self.node(from).unwrap();
        node.fingers().contains(&to)
            || node.successor_list().contains(&to)
            || node.predecessor() == Some(to)
    }

    fn outlink_bound(&self) -> usize {
        2 * (self.len().max(2) as f64).log2().ceil() as usize + 6
    }

    fn hop_bound(&self) -> usize {
        2 * (self.len().max(2) as f64).log2().ceil() as usize + 2
    }

    /// The least live id ≥ `key`, wrapping to the least live id.
    fn oracle(&self, key: u64) -> Option<NodeIdx> {
        let ids = self.live_nodes().iter().map(|i| (self.id(i), i));
        ids.clone().filter(|&(id, _)| id >= key).min().or_else(|| ids.min()).map(|(_, i)| i)
    }

    fn id(&self, v: NodeIdx) -> u64 {
        self.id_of(v).unwrap()
    }
}

fn chord(n: usize, seed: u64) -> Chord {
    Chord::build(n, ChordConfig { seed, ..ChordConfig::default() })
}

#[test]
fn chord_conforms_at_every_size() {
    let mut tally = Tally::default();
    for (n, seeds) in [(1usize, 0..4u64), (2, 0..4), (3, 0..4), (24, 0..10), (300, 0..1)] {
        for seed in seeds {
            let what = format!("chord n={n} seed={seed}");
            tally += replay(&mut chord(n, seed), &ops(seed ^ n as u64, 24), seed, &what).0;
        }
    }
    assert_eq!((tally.revisits, tally.over_bound), (0, 0), "{tally:?}");
    // routes off their owner after a `Stabilize` outside its precondition;
    // see `chord_stabilize_orphans_a_join_that_follows_a_failure`
    assert_eq!(tally.inexact, 160, "{tally:?}");
}

/// `(arena slot, ring positions to its first live successor)` of every
/// live node whose successor is not the next live id; 0 positions means it
/// knows no live successor at all.
fn wrong_successors(net: &Chord) -> Vec<(usize, usize)> {
    let ring = net.nodes_by_id();
    let at = |i: NodeIdx| ring.iter().position(|x| x == i).unwrap();
    (0..ring.len())
        .filter_map(|pos| {
            let off = net
                .next_clockwise(ring.at(pos))
                .map_or(0, |s| (at(s) + ring.len() - pos) % ring.len());
            (off != 1).then_some((ring.at(pos).0, off))
        })
        .collect()
}

/// Chord's protocol stabilization cannot repair two states that churn
/// produces, so [`Testable::stabilize_promised`] excludes both.
///
/// * **An orphaned joiner.** `join_with_id` splices the joiner at the
///   terminal of its bootstrap lookup unconditionally: `preds[succ] = new`,
///   and the joiner goes to the front of the old predecessor's list. After
///   an unrepaired failure, stale fingers can end that lookup past the true
///   successor; `stabilize` then walks the joiner's successor back one
///   predecessor per round, so exactness returns only after about twice as
///   many rounds as the splice was off.
/// * **An emptied successor list.** Leaves shorten the lists they splice and
///   failures kill entries; a node whose whole list and every finger died
///   never finds a live successor again.
///
/// Fig 6, durability and `churn_mix` run `Chord::join` but repair with
/// `rebuild_all_state`, never `stabilize_all`, so no figure depends on this.
/// Each case: `(n, seed, routes off their owner after 32 rounds, wrong
/// successors, rounds until every route is exact)`, recorded on the commit
/// that added this harness. A fix re-records them.
#[test]
fn chord_stabilize_orphans_a_join_that_follows_a_failure() {
    type Case = (usize, u64, usize, &'static [(usize, usize)], Option<usize>);
    let cases: [Case; 2] =
        [(64, 114, 8, &[(65, 2), (64, 33)], Some(65)), (32, 74, 101, &[(20, 0)], None)];
    for (n, seed, inexact, wrong, healed) in cases {
        let what = format!("chord n={n} seed={seed}");
        let mut net = chord(n, seed);
        let churn: Vec<Op> = ops(seed, 24)
            .into_iter()
            .filter(|op| !matches!(op, Op::Stabilize | Op::Rebuild))
            .collect();
        let (_, window) = replay(&mut net, &churn, seed, &what);
        assert!(!net.stabilize_promised(&window), "{what}: {window:?}");
        (0..32).for_each(|_| net.stabilize_all());
        let mut rng = SmallRng::seed_from_u64(seed);
        let got = (check_routes(&net, &mut rng, false, &what).inexact, wrong_successors(&net));
        let exact = |net: &Chord| {
            let ids: Vec<u64> = net.live_nodes().iter().map(|i| net.id_of(i).unwrap()).collect();
            net.live_nodes()
                .iter()
                .all(|from| ids.iter().all(|&k| net.route_stats(from, k).is_ok_and(|r| r.exact)))
        };
        let rounds = (33..=96).find(|_| {
            net.stabilize_all();
            exact(&net)
        });
        assert_eq!(got, (inexact, wrong.to_vec()), "{what}");
        assert_eq!(rounds, healed, "{what}: rounds until exact");
    }
}

// ---------------------------------------------------------------------------
// Cycloid
// ---------------------------------------------------------------------------

impl Testable for Cycloid {
    fn join_any(&mut self, _: u64) -> Result<NodeIdx, DhtError> {
        self.join_random()
    }

    fn join_at(&mut self, x: u64) -> Result<NodeIdx, DhtError> {
        let slot = (x % self.capacity() as u64) as usize;
        self.join_with_id(CycloidId::from_slot(slot, self.dimension()))
    }

    fn depart(&mut self, v: NodeIdx, graceful: bool) -> Result<(), DhtError> {
        if graceful {
            self.leave(v)
        } else {
            self.fail(v)
        }
    }

    /// Cycloid's maintenance is each node re-resolving its links: one
    /// round is ground truth.
    fn stabilize(&mut self) {
        self.rebuild_all_links();
    }

    fn rebuild(&mut self) {
        self.rebuild_all_links();
    }

    fn invariants(&self) -> Result<(), String> {
        self.check_invariants()
    }

    /// The inside leaf set is the cluster's cyclic ring, the primary its
    /// last member, the outside leaf set the primaries of the adjacent
    /// occupied clusters, and the cubical and cyclic neighbours the owners
    /// of their ideal ids one level down.
    fn ground_truth(&self) -> Result<(), String> {
        let (d, occ) = (self.dimension(), self.occupied_clusters());
        for i in self.live_nodes() {
            let (n, id) = (self.node(i).unwrap(), self.id_of(i).unwrap());
            let members = self.cluster_members(id.cubical).to_vec();
            let p = members.iter().position(|&m| m == i).unwrap();
            let ring = |k: usize| (members.len() > 1).then(|| members[(p + k) % members.len()]);
            let c = occ.binary_search(&id.cubical).unwrap() + occ.len();
            let leaf =
                |k: usize| (occ.len() > 1).then(|| self.primary_of(occ[k % occ.len()])).flatten();
            let down = (id.cyclic + d - 1) % d;
            let jump = 1u32 << id.cyclic;
            let mask = (1u32 << d) - 1;
            let resolve = |cub: u32| {
                self.owner_of(CycloidId::new(down, cub & mask, d)).ok().filter(|&x| x != i)
            };
            let links = [
                (n.inside_succ(), ring(1)),
                (n.inside_pred(), ring(members.len() - 1)),
                (n.primary(), members.last().copied()),
                (n.outside_leaf().0, leaf(c - 1)),
                (n.outside_leaf().1, leaf(c + 1)),
                (n.cubical_neighbor(), resolve(id.cubical ^ jump)),
                (n.cyclic_neighbors()[0], resolve(id.cubical.wrapping_sub(jump))),
                (n.cyclic_neighbors()[1], resolve(id.cubical.wrapping_add(jump))),
            ];
            if let Some(k) = links.iter().position(|(got, want)| got != want) {
                return Err(format!(
                    "{i} ({id:?}): link {k} is {:?}, want {:?}",
                    links[k].0, links[k].1
                ));
            }
        }
        Ok(())
    }

    fn stabilize_promised(&self, _: &Window) -> bool {
        true
    }

    /// The corners of the id space, some live ids and random keys.
    fn keys(&self, rng: &mut SmallRng) -> Vec<CycloidId> {
        let d = self.dimension();
        let top = (1u32 << d) - 1;
        let mut keys = vec![
            CycloidId::new(0, 0, d),
            CycloidId::new(d - 1, 0, d),
            CycloidId::new(0, top, d),
            CycloidId::new(d - 1, top, d),
        ];
        keys.extend((0..2).map(|_| self.id(self.random_node(rng).unwrap())));
        keys.extend((0..5).map(|_| CycloidId::new(rng.gen_range(0..d), rng.gen_range(0..=top), d)));
        keys
    }

    fn is_link(&self, from: NodeIdx, to: NodeIdx) -> bool {
        let n = self.node(from).unwrap();
        let (op, os) = n.outside_leaf();
        [n.inside_pred(), n.inside_succ(), op, os, n.cubical_neighbor(), n.primary()]
            .into_iter()
            .chain(n.cyclic_neighbors())
            .any(|l| l == Some(to))
    }

    fn outlink_bound(&self) -> usize {
        8
    }

    /// `3d + 4` on full clusters; sparse beds take the climb-and-descend
    /// detours [`CYCLOID_REVISITS`] counts, which cost up to `d` more —
    /// all but one route of the d = 8, 73 % cell, which the table pins.
    fn hop_bound(&self) -> usize {
        let d = self.dimension() as usize;
        if self.len() == self.capacity() {
            3 * d + 4
        } else {
            4 * d + 4
        }
    }

    /// The live node whose cluster is nearest the key's on the large
    /// cycle, then whose cyclic index is nearest the key's, the clockwise
    /// side winning each tie. Distances use plain `%`, so the oracle shares
    /// no arithmetic with `owner_of`.
    fn oracle(&self, key: CycloidId) -> Option<NodeIdx> {
        let d = u32::from(self.dimension());
        let rank = |from: u32, to: u32, m: u32| {
            let (cw, ccw) = ((to + m - from) % m, (from + m - to) % m);
            if ccw < cw {
                2 * ccw + 1
            } else {
                2 * cw
            }
        };
        self.live_nodes().iter().min_by_key(|&i| {
            let id = self.id(i);
            (
                rank(key.cubical, id.cubical, 1 << d),
                rank(u32::from(key.cyclic), u32::from(id.cyclic), d),
            )
        })
    }

    fn id(&self, v: NodeIdx) -> CycloidId {
        self.id_of(v).unwrap()
    }
}

/// Revisiting routes, then routes over [`Testable::hop_bound`], per
/// `(d, fill)` cell of the Cycloid conformance tests, recorded on the
/// commit that added the cell. Full clusters never revisit; sparse beds
/// do. When the node at the jump level `j` is absent, routing climbs to the
/// cluster primary (Rule 5) and then descends one member at a time
/// (Rule 2), back through the node it climbed from. A routing change that
/// removes the climb re-records these.
const CYCLOID_REVISITS: [(u8, &str, usize, usize); 20] = [
    (3, "1 node", 2, 0),
    (3, "25%", 0, 0),
    (3, "50%", 20, 0),
    (3, "100%", 0, 0),
    (4, "1 node", 24, 0),
    (4, "25%", 64, 0),
    (4, "50%", 145, 0),
    (4, "100%", 0, 0),
    (5, "1 node", 0, 0),
    (5, "25%", 136, 0),
    (5, "50%", 79, 0),
    (5, "100%", 0, 0),
    (6, "1 node", 0, 0),
    (6, "25%", 1073, 0),
    (6, "50%", 0, 0),
    (6, "100%", 0, 0),
    (8, "2%", 0, 0),
    (8, "15%", 192, 0),
    (8, "73%", 0, 1),
    (8, "100%", 0, 0),
];

/// Replay the [`CYCLOID_REVISITS`] cells whose fill `full` selects and
/// compare their revisit and over-bound counts with the table's.
fn cycloid_cells(full: bool) {
    let cells: Vec<_> =
        CYCLOID_REVISITS.iter().copied().filter(|c| (c.1 == "100%") == full).collect();
    let mut seen = Vec::new();
    for &(d, fill, ..) in &cells {
        let cap = d as usize * (1 << d);
        let n = match fill.strip_suffix('%') {
            Some(pct) => cap * pct.parse::<usize>().unwrap() / 100,
            None => 1,
        };
        let seed = u64::from(d) << 16 | n as u64;
        let mut net = Cycloid::build(n, CycloidConfig { dimension: d, seed });
        let what = format!("cycloid d={d} {fill}");
        let (tally, _) = replay(&mut net, &ops(seed, 16), seed, &what);
        assert_eq!(tally.inexact, 0, "{what}");
        seen.push((d, fill, tally.revisits, tally.over_bound));
    }
    assert_eq!(seen, cells);
}

#[test]
fn cycloid_conforms_on_full_beds() {
    cycloid_cells(true);
}

#[test]
fn cycloid_conforms_on_sparse_beds() {
    cycloid_cells(false);
}
