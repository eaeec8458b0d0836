//! Property-based tests of the Chord simulator, plus the hand-placed
//! rings that pin the same finger ground truth at its edges (one and two
//! nodes, adjacent ids, the id-space wrap, gaps around 2^63).

use chord::{Chord, ChordConfig};
use dht_core::Overlay;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// `(ring position, level)` of every finger that is not the ground-truth
/// owner of its target `id + 2^level`, over all live nodes × all 64 levels.
fn wrong_fingers(net: &Chord) -> Vec<(usize, usize)> {
    let mut wrong = Vec::new();
    for (pos, idx) in net.nodes_by_id().iter().enumerate() {
        let node = net.node(idx).unwrap();
        let fingers = node.fingers();
        assert_eq!(fingers.len(), 64, "unset finger at ring position {pos}");
        for (i, &f) in fingers.iter().enumerate() {
            if f != net.owner_of(node.id().wrapping_add(1u64 << i)).unwrap() {
                wrong.push((pos, i));
            }
        }
    }
    wrong
}

/// A stabilized ring holding exactly `ids`.
fn ring_of(ids: &[u64]) -> Chord {
    let mut net = Chord::build(1, ChordConfig::default());
    let seed_node = net.nodes_by_id().at(0);
    for &id in ids {
        net.join_with_id(seed_node, id).unwrap();
    }
    net.fail(seed_node).unwrap();
    net.rebuild_all_state();
    net
}

#[test]
fn fingers_are_ground_truth_on_a_2048_node_build() {
    let net = Chord::build(2048, ChordConfig::default());
    assert_eq!(wrong_fingers(&net), vec![]);
}

#[test]
fn fingers_are_ground_truth_on_one_and_two_node_rings() {
    for n in [1, 2] {
        let net = Chord::build(n, ChordConfig::default());
        assert_eq!(wrong_fingers(&net), vec![], "n = {n}");
    }
}

#[test]
fn fingers_are_ground_truth_on_adversarial_id_placements() {
    const HALF: u64 = 1 << 63;
    let rings: [&[u64]; 6] = [
        // the two ends of the id space: every distance wraps
        &[0, u64::MAX],
        // adjacent ids: a gap of 1 one way, 2^64 − 1 the other — past
        // 2^63, so all 64 levels of that node point at its successor
        &[7, 8],
        // level 63 lands exactly on the other node …
        &[0, HALF],
        // … and one short of it, so it wraps the whole ring back to self
        &[0, HALF + 1],
        // a dense cluster next to the wrap, and a lone node opposite
        &[u64::MAX - 1, u64::MAX, 0, 1, 2, HALF],
        &[3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20],
    ];
    for ids in rings {
        let net = ring_of(ids);
        assert_eq!(net.len(), ids.len());
        assert_eq!(wrong_fingers(&net), vec![], "ring {ids:?}");
    }
    // and the same gap-of-1 placement made by a join into a built ring
    let mut net = Chord::build(64, ChordConfig::default());
    let boot = net.nodes_by_id().at(17);
    net.join_with_id(boot, net.id_of(boot).unwrap().wrapping_add(1)).unwrap();
    net.rebuild_all_state();
    assert_eq!(wrong_fingers(&net), vec![]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The successor relation forms one cycle covering every live node.
    #[test]
    fn ring_is_a_single_cycle(n in 1usize..200, seed: u64) {
        let net = Chord::build(n, ChordConfig { seed, ..Default::default() });
        let start = net.nodes_by_id().at(0);
        let mut cur = start;
        let mut count = 0usize;
        loop {
            cur = net.next_clockwise(cur).unwrap();
            count += 1;
            prop_assert!(count <= n, "cycle longer than the population");
            if cur == start {
                break;
            }
        }
        prop_assert_eq!(count, n.max(1));
    }

    /// Perfect repair is ground truth at every node and every level: on a
    /// fresh build and after any unrepaired join / leave / fail history,
    /// `rebuild_all_state` leaves `fingers()[i] == owner_of(id + 2^i)` for
    /// all 64 levels of every live node.
    #[test]
    fn every_finger_of_every_node_is_ground_truth_after_rebuild(
        n in 1usize..300,
        seed: u64,
        ops in prop::collection::vec((0u8..5, any::<u64>()), 0..24),
    ) {
        let mut net = Chord::build(n, ChordConfig { seed, ..Default::default() });
        prop_assert_eq!(wrong_fingers(&net), vec![]);
        for (kind, x) in ops {
            let pick = net.nodes_by_id().at((x % net.len() as u64) as usize);
            // Joins may hit a taken id and departures stop at one node;
            // either way the op is skipped, not an error.
            let _ = match kind {
                0 => net.join(pick).map(drop),
                1 => net.join_with_id(pick, x).map(drop),
                // a few ids directly after an existing one: gaps of 1..=16
                2 => net.join_with_id(pick, net.id_of(pick).unwrap().wrapping_add(1 + (x >> 60))).map(drop),
                3 if net.len() > 1 => net.leave(pick),
                4 if net.len() > 1 => net.fail(pick),
                _ => Ok(()),
            };
        }
        net.rebuild_all_state();
        prop_assert_eq!(wrong_fingers(&net), vec![]);
    }

    /// Graceful departures never orphan keys: after any leave sequence the
    /// remaining ring still resolves every key exactly.
    #[test]
    fn leaves_preserve_exactness(n in 5usize..80, seed: u64, leaves in 1usize..4) {
        let mut net = Chord::build(n, ChordConfig { seed, ..Default::default() });
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xF01);
        for _ in 0..leaves.min(n - 1) {
            let v = net.random_node(&mut rng).unwrap();
            net.leave(v).unwrap();
        }
        for _ in 0..10 {
            let from = net.random_node(&mut rng).unwrap();
            let key: u64 = rand::Rng::gen(&mut rng);
            let r = net.route(from, key).unwrap();
            prop_assert!(r.exact);
        }
    }

    /// Distinct outlinks stay O(log n): never more than 2·log2(n) + r + 1.
    #[test]
    fn outlink_bound(n in 2usize..500, seed: u64) {
        let net = Chord::build(n, ChordConfig { seed, ..Default::default() });
        let bound = 2 * (n as f64).log2().ceil() as usize + 6;
        for idx in net.nodes_by_id().iter().take(20) {
            prop_assert!(net.outlinks(idx).unwrap() <= bound);
        }
    }

}
