//! Greedy iterative Chord routing, generic over the hop observer.
//!
//! This is the one routing loop ([`Overlay::route_with`]); the traced
//! [`Overlay::route`], the zero-allocation [`Overlay::route_stats`] and
//! each attempt of `dht_core`'s fault-injecting `route_with_retry`
//! drive it under three sinks.

use crate::network::Chord;
use dht_core::fault::check_forward;
use dht_core::{in_interval_oc, in_interval_oo, DhtError, NodeIdx, Overlay, RouteSink};

impl Chord {
    /// The routing loop. Dead next-hops are skipped via the successor
    /// list, mirroring the protocol's failure handling. Every forwarding
    /// hop is reported to `sink`; the returned pair is `(terminal, exact)`.
    pub(crate) fn route_inner<S: RouteSink>(
        &self,
        from: NodeIdx,
        key: u64,
        sink: &mut S,
    ) -> Result<(NodeIdx, bool), DhtError> {
        let origin = self.node(from)?;
        if !origin.is_alive() {
            return Err(DhtError::NodeNotFound { index: from.0 });
        }
        if self.len() == 1 {
            return Ok((from, true));
        }
        let budget = self.route_budget();
        let mut cur = from;
        loop {
            let cur_id = self.id_at(cur.0);
            // Does `cur` itself own the key? (pred, cur] ∋ key
            if let Some(pred) = self.pred_at(cur.0) {
                if self.alive_at(pred.0) && in_interval_oc(self.id_at(pred.0), cur_id, key) {
                    break;
                }
            }
            // First alive successor; if the whole successor list is dead
            // (massive correlated failure), fall back to the nearest alive
            // clockwise finger as acting successor, as the protocol does.
            let succ = self
                .succs_of(cur.0)
                .find(|s| self.alive_at(s.0))
                .or_else(|| {
                    self.raw_fingers(cur.0)
                        .iter()
                        .filter_map(|f| f.get())
                        .filter(|&f| self.alive_at(f.0) && f != cur)
                        .min_by_key(|f| dht_core::clockwise_dist(cur_id, self.id_at(f.0)))
                })
                .ok_or(DhtError::EmptyOverlay)?;
            // Key in (cur, succ] -> succ is the root.
            if in_interval_oc(cur_id, self.id_at(succ.0), key) {
                check_forward(sink, succ)?;
                sink.visit(succ);
                cur = succ;
                break;
            }
            // Closest preceding live node among fingers + successor list.
            let next = self.closest_preceding(cur, key).unwrap_or(succ);
            let next = if next == cur { succ } else { next };
            check_forward(sink, next)?;
            sink.visit(next);
            cur = next;
            if sink.hops() > budget {
                return Err(DhtError::RoutingLoop { hops: sink.hops() });
            }
        }
        let exact = self.owner_of(key)? == cur;
        Ok((cur, exact))
    }

    /// Chord's `closest_preceding_node`: a live neighbor in the open
    /// interval `(cur, key)` maximizing clockwise progress.
    ///
    /// Fingers are scanned from the top down and the scan stops at the
    /// first in-interval candidate: `fingers[i]` targets
    /// `successor(id + 2^i)`, so in a stabilized table clockwise distance
    /// is non-decreasing in `i` and the first hit from the top *is* the
    /// maximum-progress finger — no need to score the remaining entries
    /// every hop. The scan covers the stored window; the levels below it
    /// repeat its first entry, already tested last. Only when no finger
    /// precedes the key does the (short) successor list get scored the
    /// exhaustive way.
    fn closest_preceding(&self, cur: NodeIdx, key: u64) -> Option<NodeIdx> {
        let cur_id = self.id_at(cur.0);
        for cand in self.raw_fingers(cur.0).iter().rev().filter_map(|f| f.get()) {
            if self.alive_at(cand.0)
                && cand != cur
                && in_interval_oo(cur_id, key, self.id_at(cand.0))
            {
                return Some(cand);
            }
        }
        let mut best: Option<(u64, NodeIdx)> = None;
        for cand in self.succs_of(cur.0) {
            if !self.alive_at(cand.0) || cand == cur {
                continue;
            }
            let cid = self.id_at(cand.0);
            if in_interval_oo(cur_id, key, cid) {
                let progress = dht_core::clockwise_dist(cur_id, cid);
                if best.is_none_or(|(p, _)| progress > p) {
                    best = Some((progress, cand));
                }
            }
        }
        best.map(|(_, idx)| idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::ChordConfig;
    use dht_core::{route_with_retry, FaultAccount, FaultPlan, RouteStats, Summary};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn net(n: usize) -> Chord {
        Chord::build(n, ChordConfig::default())
    }

    #[test]
    fn route_terminates_at_true_owner() {
        let c = net(256);
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..500 {
            let from = c.random_node(&mut rng).unwrap();
            let key: u64 = rng.gen();
            let r = c.route(from, key).unwrap();
            assert!(r.exact, "lookup must be exact in a stabilized network");
            assert_eq!(r.terminal, c.owner_of(key).unwrap());
        }
    }

    #[test]
    fn route_to_own_key_is_local() {
        let c = net(64);
        for idx in c.nodes_by_id().iter().take(10) {
            let id = c.id_of(idx).unwrap();
            let r = c.route(idx, id).unwrap();
            assert_eq!(r.hops(), 0, "a node owns its own identifier");
            assert_eq!(r.terminal, idx);
        }
    }

    #[test]
    fn single_node_routes_locally() {
        let c = net(1);
        let only = c.nodes_by_id().at(0);
        let r = c.route(only, 12345).unwrap();
        assert_eq!(r.hops(), 0);
        assert_eq!(r.terminal, only);
        let s = c.route_stats(only, 12345).unwrap();
        assert_eq!(s, RouteStats::local(only));
    }

    #[test]
    fn route_stats_matches_traced_route_under_failures() {
        let mut c = net(300);
        let mut rng = SmallRng::seed_from_u64(42);
        for _ in 0..30 {
            if let Some(v) = c.random_node(&mut rng) {
                let _ = c.fail(v);
            }
        }
        for _ in 0..400 {
            let from = c.random_node(&mut rng).unwrap();
            let key: u64 = rng.gen();
            let traced = c.route(from, key);
            let fast = c.route_stats(from, key);
            match (traced, fast) {
                (Ok(t), Ok(f)) => {
                    assert_eq!((f.hops, f.terminal, f.exact), (t.hops(), t.terminal, t.exact));
                }
                (Err(a), Err(b)) => assert_eq!(a, b),
                (t, f) => panic!("variants diverged: {t:?} vs {f:?}"),
            }
        }
    }

    #[test]
    fn average_hops_is_half_log_n() {
        // The Chord paper: expected lookup path length is (1/2) log2 n.
        // For n = 2048 that is 5.5; the paper under reproduction uses
        // exactly this value in Theorem 4.7. Allow a generous band.
        let c = net(2048);
        let mut rng = SmallRng::seed_from_u64(99);
        let mut s = Summary::new();
        for _ in 0..2000 {
            let from = c.random_node(&mut rng).unwrap();
            let key: u64 = rng.gen();
            s.record(c.route(from, key).unwrap().hops() as f64);
        }
        let mean = s.mean();
        assert!((4.5..7.0).contains(&mean), "Chord avg hops {mean} outside [4.5, 7.0]");
    }

    #[test]
    fn hops_grow_logarithmically() {
        let mut rng = SmallRng::seed_from_u64(4);
        let mean_hops = |n: usize, rng: &mut SmallRng| {
            let c = net(n);
            let mut s = Summary::new();
            for _ in 0..500 {
                let from = c.random_node(rng).unwrap();
                let key: u64 = rng.gen();
                s.record(c.route(from, key).unwrap().hops() as f64);
            }
            s.mean()
        };
        let h256 = mean_hops(256, &mut rng);
        let h4096 = mean_hops(4096, &mut rng);
        // quadrupling the exponent (2^8 -> 2^12) adds ~2 hops, not 16x
        assert!(h4096 > h256, "{h256} -> {h4096}");
        assert!(h4096 < h256 + 4.0, "{h256} -> {h4096}");
    }

    #[test]
    fn routing_survives_abrupt_failures_via_successor_list() {
        let mut c = net(200);
        let mut rng = SmallRng::seed_from_u64(13);
        // Fail 10% of nodes abruptly, no repair at all.
        let victims: Vec<_> = (0..20).filter_map(|_| c.random_node(&mut rng)).collect();
        for v in victims {
            let _ = c.fail(v);
        }
        let mut exact = 0;
        let mut total = 0;
        for _ in 0..300 {
            let from = c.random_node(&mut rng).unwrap();
            let key: u64 = rng.gen();
            if let Ok(r) = c.route(from, key) {
                total += 1;
                if r.exact {
                    exact += 1;
                }
            }
        }
        // With r=4 successor lists and 10% failures the overwhelming
        // majority of lookups still converge to the true root.
        assert!(total >= 295, "routes completed: {total}");
        assert!(exact as f64 / total as f64 > 0.9, "exact {exact}/{total}");
    }

    #[test]
    fn routing_after_stabilize_is_exact_again() {
        let mut c = net(200);
        let mut rng = SmallRng::seed_from_u64(23);
        for _ in 0..20 {
            if let Some(v) = c.random_node(&mut rng) {
                let _ = c.fail(v);
            }
        }
        c.stabilize_all();
        for _ in 0..300 {
            let from = c.random_node(&mut rng).unwrap();
            let key: u64 = rng.gen();
            let r = c.route(from, key).unwrap();
            assert!(r.exact, "post-repair lookups must be exact");
        }
    }

    #[test]
    fn routing_from_a_dead_node_errors() {
        let mut c = net(10);
        let v = c.nodes_by_id().at(2);
        c.fail(v).unwrap();
        assert!(c.route(v, 7).is_err());
        assert!(c.route_stats(v, 7).is_err());
    }

    #[test]
    fn full_drop_rate_kills_every_multi_hop_lookup() {
        let c = net(256);
        let plan = FaultPlan::new(1, 1.0, 0.0).unwrap();
        let mut rng = SmallRng::seed_from_u64(18);
        let mut dropped = 0;
        for i in 0..200u64 {
            let from = c.random_node(&mut rng).unwrap();
            let key: u64 = rng.gen();
            match route_with_retry(&c, from, key, &plan, i, &mut FaultAccount::default()) {
                Ok(r) => assert_eq!(r.hops, 0, "only 0-hop local lookups can survive"),
                Err(DhtError::MessageDropped { hops }) => {
                    assert_eq!(hops, 0, "the very first forwarding must drop");
                    dropped += 1;
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(dropped > 150, "most lookups are multi-hop: {dropped}");
    }

    #[test]
    fn dead_hop_reported_when_plan_fails_every_node() {
        let c = net(64);
        // drop nothing, fail everything: the first forwarding dies on the
        // (plan-)dead target.
        let plan = FaultPlan::new(2, 0.0, 1.0).unwrap();
        let mut rng = SmallRng::seed_from_u64(19);
        let mut dead = 0;
        for i in 0..100u64 {
            let from = c.random_node(&mut rng).unwrap();
            let key: u64 = rng.gen();
            match route_with_retry(&c, from, key, &plan, i, &mut FaultAccount::default()) {
                Ok(r) => assert_eq!(r.hops, 0),
                Err(DhtError::DeadHop { hops }) => {
                    assert_eq!(hops, 0);
                    dead += 1;
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(dead > 70, "most lookups hit the dead first hop: {dead}");
    }

    #[test]
    fn faulty_routing_is_deterministic() {
        let c = net(300);
        let plan = FaultPlan::new(5, 0.15, 0.1).unwrap();
        let mut rng = SmallRng::seed_from_u64(20);
        let probes: Vec<(NodeIdx, u64)> =
            (0..200).map(|_| (c.random_node(&mut rng).unwrap(), rng.gen())).collect();
        for (i, &(from, key)) in probes.iter().enumerate() {
            let a = route_with_retry(&c, from, key, &plan, i as u64, &mut FaultAccount::default());
            let b = route_with_retry(&c, from, key, &plan, i as u64, &mut FaultAccount::default());
            assert_eq!(a, b, "same plan + message identity must replay identically");
        }
    }

    #[test]
    fn path_contains_no_duplicates() {
        let c = net(512);
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..200 {
            let from = c.random_node(&mut rng).unwrap();
            let key: u64 = rng.gen();
            let r = c.route(from, key).unwrap();
            let mut p = r.path.clone();
            p.sort_unstable();
            p.dedup();
            assert_eq!(p.len(), r.path.len(), "routing revisited a node");
        }
    }
}
