//! Golden pin of the link state `Chord::rebuild_all_state` derives.
//!
//! The two digests below were recorded on the commit *before* the finger
//! fill became a monotone sweep (there it was one binary search per
//! finger); a rewrite of that function must leave them unchanged. They
//! cover every live node's fingers, successor list and predecessor as
//! seen through the public [`chord::ChordNode`] view, on a fresh bulk
//! build and on the same ring after a scripted 64-op churn followed by a
//! rebuild.
//!
//! Reached by tier-1 (`cargo test -q`): `crates/chord` is a default
//! workspace member.

use chord::{Chord, ChordConfig};
use dht_core::{NodeIdx, Overlay};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const SEED: u64 = 7321;
const FRESH_DIGEST: u64 = 0x641c_f482_8fee_988f;
const CHURNED_DIGEST: u64 = 0xc738_1059_1947_3a9e;

struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Length-prefixed, so adjacent lists cannot alias.
    fn links(&mut self, links: &[NodeIdx]) {
        self.word(links.len() as u64);
        for l in links {
            self.word(l.0 as u64);
        }
    }
}

fn link_digest(net: &Chord) -> u64 {
    let mut h = Fnv1a::new();
    for idx in net.nodes_by_id() {
        let node = net.node(idx).unwrap();
        h.word(idx.0 as u64);
        h.word(node.id());
        h.links(&node.fingers());
        h.links(&node.successor_list());
        h.links(node.predecessor().as_slice());
    }
    h.0
}

/// 64 membership ops drawn from a fixed stream: random-id joins,
/// explicit-id joins (one directly after an existing id, so a gap of 1
/// is on the ring), graceful leaves and abrupt failures.
fn scripted_churn(net: &mut Chord) {
    let mut rng = SmallRng::seed_from_u64(SEED ^ 0xC4);
    for op in 0..64u32 {
        let pick = net.random_node(&mut rng).unwrap();
        match op % 4 {
            0 => drop(net.join(pick).unwrap()),
            1 => {
                let id = if op == 1 { net.id_of(pick).unwrap().wrapping_add(1) } else { rng.gen() };
                net.join_with_id(pick, id).unwrap();
            }
            2 => net.leave(pick).unwrap(),
            _ => net.fail(pick).unwrap(),
        }
    }
}

#[test]
fn rebuilt_link_state_matches_the_recorded_digests() {
    let mut net = Chord::build(2048, ChordConfig { seed: SEED, ..Default::default() });
    assert_eq!(link_digest(&net), FRESH_DIGEST, "fresh build(2048, seed {SEED})");
    scripted_churn(&mut net);
    assert_eq!(net.len(), 2048);
    net.rebuild_all_state();
    assert_eq!(link_digest(&net), CHURNED_DIGEST, "after scripted churn + rebuild");
}
