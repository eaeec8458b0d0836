//! Three-phase Cycloid routing, generic over the hop observer.
//!
//! From a node `(k, a)` towards a key `(l, b)`, let `D` be the minimal
//! large-cycle distance from `a` to `b` and `j = msb(D)`:
//!
//! 1. **Ascend** — when `k < j` the node's jumps (length `2^k`) are too
//!    short; forward to the cached cluster primary, which holds the
//!    longest jumps in the cluster.
//! 2. **Descend** — when `k > j` the jump would overshoot; step down one
//!    cyclic level through the inside leaf set (`(k, a) → (k-1, a)`, the
//!    cube-connected-cycles descent). When `k == j` take the cyclic
//!    neighbor in the direction of `b` (`a ± 2^k`), halving `D`. The
//!    cubical neighbor (`a XOR 2^k`) and outside leaf set participate as
//!    greedy shortcuts; in sparse networks, where links resolve to the
//!    nearest existing node, the greedy fallback keeps making progress.
//! 3. **Traverse** — inside the destination cluster, walk the inside leaf
//!    set to the node supervising cyclic position `l`.
//!
//! Termination is by local minimum with a single deterministic clockwise
//! tie-break matching the ownership rule, so routing stops exactly at the
//! key's root when links are fresh, and at the nearest reachable node
//! otherwise.
//!
//! As in `chord::routing`, this is the one routing loop
//! ([`Overlay::route_with`]); the traced [`Overlay::route`], the
//! zero-allocation [`Overlay::route_stats`] and each attempt of
//! `dht_core`'s fault-injecting `route_with_retry` drive it under three
//! sinks.

use crate::id::CycloidId;
use crate::network::Cycloid;
use dht_core::fault::check_forward;
use dht_core::{DhtError, Link, NodeIdx, Overlay, RouteSink};

/// A routing decision: forward normally, or forward while committing to
/// the final intra-cluster traverse (no further cluster-level moves).
enum Hop {
    Forward(NodeIdx),
    Stuck(NodeIdx),
}

impl Cycloid {
    /// The routing loop: every forwarding hop is reported to `sink`; the
    /// returned pair is `(terminal, exact)`.
    pub(crate) fn route_inner<S: RouteSink>(
        &self,
        from: NodeIdx,
        key: CycloidId,
        sink: &mut S,
    ) -> Result<(NodeIdx, bool), DhtError> {
        self.live_node(from)?;
        let budget = self.route_budget();
        let mut cur = from;
        // Allow the "stuck, retry from the primary" ascent at most once per
        // cluster-distance value, so ascend/traverse cannot ping-pong.
        let mut last_ascend_cd: Option<u32> = None;
        // Once cluster-level progress stops (sparse network: the key's
        // cluster is unoccupied and we sit in the nearest one), commit to
        // the intra-cluster traverse so descent cannot re-trigger.
        let mut traverse_only = false;
        loop {
            if sink.hops() > budget {
                return Err(DhtError::RoutingLoop { hops: sink.hops() });
            }
            let step = if traverse_only {
                self.traverse_step(cur, key.cyclic).map(Hop::Forward)
            } else {
                self.next_hop(cur, key, &mut last_ascend_cd)
            };
            match step {
                Some(Hop::Forward(n)) => {
                    check_forward(sink, n)?;
                    sink.visit(n);
                    cur = n;
                }
                Some(Hop::Stuck(n)) => {
                    check_forward(sink, n)?;
                    traverse_only = true;
                    sink.visit(n);
                    cur = n;
                }
                None => break,
            }
        }
        let exact = self.owner_of(key)? == cur;
        Ok((cur, exact))
    }

    /// Decide the next hop from `cur` towards `key` using only `cur`'s
    /// local state. `None` means `cur` keeps the message (it is the local
    /// minimum, i.e. the root when links are fresh).
    fn next_hop(
        &self,
        cur: NodeIdx,
        key: CycloidId,
        last_ascend_cd: &mut Option<u32>,
    ) -> Option<Hop> {
        let d = self.dimension();
        let n = &self.nodes[cur.0];
        let my_cd = CycloidId::cluster_dist(n.id.cubical, key.cubical, d);
        if my_cd == 0 {
            return self.traverse_step(cur, key.cyclic).map(Hop::Forward);
        }

        // One fused pass over the (constant-degree, <= 8) link set computes
        // each link's cluster distance exactly once and extracts both
        // extrema rules 1 and 4 need. Strict `<` comparisons reproduce the
        // first-minimum tie-break of `Iterator::min_by_key` over the same
        // link order, so decisions are bit-identical to the two-scan form.
        let mut best_zero: Option<(u8, NodeIdx)> = None; // rule 1: cd == 0
        let mut best_lt: Option<(u32, NodeIdx)> = None; // rule 4: cd < my_cd
        for x in n.all_links() {
            let xn = &self.nodes[x.0];
            if !xn.alive || x == cur {
                continue;
            }
            let cd = CycloidId::cluster_dist(xn.id.cubical, key.cubical, d);
            if cd == 0 {
                let cyc = CycloidId::cyclic_dist(xn.id.cyclic, key.cyclic, d);
                if best_zero.is_none_or(|(bc, _)| cyc < bc) {
                    best_zero = Some((cyc, x));
                }
            } else if cd < my_cd && best_lt.is_none_or(|(bc, _)| cd < bc) {
                best_lt = Some((cd, x));
            }
        }

        // Rule 1: any link landing in the target cluster wins outright;
        // among several, pick the one closest to the key's cyclic position
        // to shorten the final traverse.
        if let Some((_, hit)) = best_zero {
            return Some(Hop::Forward(hit));
        }

        let alive = |x: &NodeIdx| self.nodes[x.0].alive && *x != cur;
        let k = n.id.cyclic;
        let cw = CycloidId::cw_cluster_dist(n.id.cubical, key.cubical, d);
        let ccw = CycloidId::cw_cluster_dist(key.cubical, n.id.cubical, d);
        let j = 31 - my_cd.leading_zeros() as u8; // msb of D >= 1

        // Rule 2: jump level too high — CCC descent through the inside
        // leaf set (same cluster, lower cyclic index, same distance).
        if k > j {
            if let Some(p) = n.inside_pred.get().filter(alive) {
                let pn = &self.nodes[p.0];
                if pn.id.cyclic < k {
                    return Some(Hop::Forward(p));
                }
            }
        }

        // Rule 3: aligned jump — the cyclic neighbor in the direction of
        // the key (a ± 2^k), provided it actually gets closer (in sparse
        // networks the link points to the nearest existing node).
        if k <= j {
            let dir_link = if cw <= ccw { n.cyclic_nbrs[1] } else { n.cyclic_nbrs[0] };
            if let Some(x) = dir_link.get().filter(alive) {
                let cd = CycloidId::cluster_dist(self.nodes[x.0].id.cubical, key.cubical, d);
                if cd < my_cd {
                    return Some(Hop::Forward(x));
                }
            }
        }

        // Rule 4: greedy — the link with the smallest resulting distance
        // (already extracted by the fused scan above).
        if let Some((_, x)) = best_lt {
            return Some(Hop::Forward(x));
        }

        // Rule 5: stuck — retry once from the cluster primary, whose jumps
        // are the longest available here.
        if *last_ascend_cd != Some(my_cd) {
            if let Some(p) = n.primary.get().filter(alive) {
                *last_ascend_cd = Some(my_cd);
                return Some(Hop::Forward(p));
            }
        }

        // Rule 6: clockwise tie-break. If we sit counter-clockwise of the
        // key and the equidistant clockwise-side cluster is our outside
        // successor, ownership prefers it.
        if cw == my_cd {
            if let Some(os) = n.outside_succ.get().filter(alive) {
                let os_cub = self.nodes[os.0].id.cubical;
                let os_cd = CycloidId::cluster_dist(os_cub, key.cubical, d);
                if os_cd == my_cd && CycloidId::cw_cluster_dist(key.cubical, os_cub, d) == os_cd {
                    // entering the preferred cluster: commit to traverse
                    return Some(Hop::Stuck(os));
                }
            }
        }

        // Rule 7: local minimum at cluster level — this is the nearest
        // reachable cluster; finish with the intra-cluster traverse.
        self.traverse_step(cur, key.cyclic).map(Hop::Stuck)
    }

    /// One step of the intra-cluster traverse towards cyclic position `l`:
    /// the inside-leaf neighbor strictly closer to `l`, or the clockwise
    /// tie-break neighbor, or `None` when `cur` supervises `l`.
    fn traverse_step(&self, cur: NodeIdx, l: u8) -> Option<NodeIdx> {
        let d = self.dimension();
        let n = &self.nodes[cur.0];
        let my = CycloidId::cyclic_dist(n.id.cyclic, l, d);
        let mut best: Option<(u8, NodeIdx)> = None;
        for cand in [n.inside_pred, n.inside_succ].into_iter().filter_map(Link::get) {
            if cand == cur || !self.nodes[cand.0].alive {
                continue;
            }
            let k = self.nodes[cand.0].id.cyclic;
            let dist = CycloidId::cyclic_dist(k, l, d);
            if dist < my && best.is_none_or(|(bd, _)| dist < bd) {
                best = Some((dist, cand));
            } else if dist == my
                && my > 0
                && CycloidId::cw_cyclic_dist(l, k, d) == dist
                && CycloidId::cw_cyclic_dist(l, n.id.cyclic, d) != my
                && best.is_none()
            {
                // equidistant, but the candidate is the clockwise-side node
                // that ownership prefers
                best = Some((dist, cand));
            }
        }
        best.map(|(_, idx)| idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::CycloidConfig;
    use dht_core::Summary;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn net(n: usize, d: u8) -> Cycloid {
        Cycloid::build(n, CycloidConfig { dimension: d, seed: 11 })
    }

    fn random_key<R: Rng>(rng: &mut R, d: u8) -> CycloidId {
        CycloidId::new(rng.gen_range(0..d), rng.gen_range(0..(1u32 << d)), d)
    }

    #[test]
    fn average_hops_near_dimension() {
        // Theorem 4.7 of the paper uses "d hops in Cycloid" as the average
        // lookup cost. Accept a band around d for the full 2048-node net.
        let c = net(2048, 8);
        let mut rng = SmallRng::seed_from_u64(77);
        let mut s = Summary::new();
        for _ in 0..3000 {
            let from = c.random_node(&mut rng).unwrap();
            let key = random_key(&mut rng, 8);
            s.record(c.route(from, key).unwrap().hops() as f64);
        }
        let mean = s.mean();
        assert!((6.0..11.5).contains(&mean), "Cycloid avg hops {mean} outside [6, 11.5]");
    }

    #[test]
    fn hops_scale_linearly_with_dimension_not_size() {
        let mut rng = SmallRng::seed_from_u64(5);
        let mean_hops = |d: u8, rng: &mut SmallRng| {
            let n = d as usize * (1usize << d);
            let c = net(n, d);
            let mut s = Summary::new();
            for _ in 0..800 {
                let from = c.random_node(rng).unwrap();
                let key = random_key(rng, d);
                s.record(c.route(from, key).unwrap().hops() as f64);
            }
            s.mean()
        };
        let h6 = mean_hops(6, &mut rng); // n = 384
        let h9 = mean_hops(9, &mut rng); // n = 4608 (12x larger)
        assert!(h9 > h6, "{h6} -> {h9}");
        assert!(h9 - h6 < 6.0, "constant-degree scaling: {h6} -> {h9}");
    }

    #[test]
    fn routes_survive_failures_without_repair() {
        let mut c = net(2048, 8);
        let mut rng = SmallRng::seed_from_u64(21);
        for _ in 0..100 {
            let v = c.random_node(&mut rng).unwrap();
            c.fail(v).unwrap();
        }
        let mut done = 0;
        let mut exact = 0;
        for _ in 0..400 {
            let from = c.random_node(&mut rng).unwrap();
            let key = random_key(&mut rng, 8);
            if let Ok(r) = c.route(from, key) {
                done += 1;
                if r.exact {
                    exact += 1;
                }
            }
        }
        assert!(done >= 390, "completed {done}/400 under 5% failures");
        assert!(exact * 10 >= done * 7, "exact {exact}/{done}");
    }
}
