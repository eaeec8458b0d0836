//! Ground-truth ownership against a definitional oracle. Tier-1 reaches
//! this suite (`cycloid` is a default member).
//!
//! `owner_of` reads the cluster tables. The oracle here reads only the ids
//! of `live_nodes()`: the owner of key `(l, b)` is the live node whose
//! cluster is nearest `b` on the large cycle, the clockwise side winning a
//! tie, and within that cluster the node whose cyclic index is nearest
//! `l`, again clockwise first. Distances are recomputed here with plain
//! `%`, so the oracle shares no arithmetic with the code under test.

use cycloid::{Cycloid, CycloidConfig, CycloidId};
use dht_core::{NodeIdx, Overlay};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// `2·distance + 1 if reached counter-clockwise` from `from` to `to` on a
/// ring of `m` positions: smaller is nearer, and the clockwise side wins a
/// tie. Equal ranks mean equal positions.
fn ring_rank(from: u32, to: u32, m: u32) -> u32 {
    let cw = (to + m - from) % m;
    let ccw = (from + m - to) % m;
    if ccw < cw {
        2 * ccw + 1
    } else {
        2 * cw
    }
}

/// `(node, cubical, cyclic)` of every live node, read from its id.
fn live_ids(net: &Cycloid) -> Vec<(NodeIdx, u32, u32)> {
    net.live_nodes()
        .iter()
        .map(|i| {
            let id = net.id_of(i).unwrap();
            (i, id.cubical, u32::from(id.cyclic))
        })
        .collect()
}

/// The definitional owner of `key`, `None` on an empty overlay: the
/// nearest cluster first, then its member nearest the cyclic index.
fn oracle(ids: &[(NodeIdx, u32, u32)], key: CycloidId, d: u8) -> Option<NodeIdx> {
    let (clusters, cycle) = (1u32 << d, u32::from(d));
    let mut best: Option<((u32, u32), NodeIdx)> = None;
    for &(i, cub, cyc) in ids {
        let cluster = ring_rank(key.cubical, cub, clusters);
        // A farther cluster never wins: skip its cyclic rank.
        if best.is_some_and(|((c, _), _)| cluster > c) {
            continue;
        }
        let rank = (cluster, ring_rank(u32::from(key.cyclic), cyc, cycle));
        if best.is_none_or(|(r, _)| rank < r) {
            best = Some((rank, i));
        }
    }
    best.map(|(_, i)| i)
}

fn check_key(net: &Cycloid, ids: &[(NodeIdx, u32, u32)], key: CycloidId, what: &str) {
    let want = oracle(ids, key, net.dimension());
    assert_eq!(net.owner_of(key).ok(), want, "{what}: owner of key {key}");
}

/// Every key of the identifier space, then the table invariants.
fn check_every_key(net: &Cycloid, what: &str) {
    let d = net.dimension();
    let ids = live_ids(net);
    for cub in 0..1u32 << d {
        for cyc in 0..d {
            check_key(net, &ids, CycloidId::new(cyc, cub, d), what);
        }
    }
    assert_eq!(net.check_invariants(), Ok(()), "{what}");
}

#[test]
fn owner_of_matches_the_oracle_at_every_fill_and_through_churn() {
    for d in 3u8..=6 {
        let cap = d as usize * (1usize << d);
        for (fill, n) in [
            ("1 node", 1),
            ("2 nodes", 2),
            ("10%", cap / 10),
            ("25%", cap / 4),
            ("50%", cap / 2),
            ("75%", cap * 3 / 4),
            ("100%", cap),
        ] {
            let seed = 0x0A11 ^ (u64::from(d) << 8) ^ n as u64;
            let mut net = Cycloid::build(n, CycloidConfig { dimension: d, seed });
            check_every_key(&net, &format!("d={d} {fill} built"));
            let mut rng = SmallRng::seed_from_u64(seed);
            for step in 0..9 {
                let op = match step % 3 {
                    0 => net.random_node(&mut rng).map(|v| net.fail(v).unwrap()).map(|()| "fail"),
                    1 => net.random_node(&mut rng).map(|v| net.leave(v).unwrap()).map(|()| "leave"),
                    _ => (net.len() < cap).then(|| net.join_random().unwrap()).map(|_| "join"),
                };
                let what = format!("d={d} {fill} step {step} ({})", op.unwrap_or("no-op"));
                check_every_key(&net, &what);
            }
        }
    }
}

#[test]
fn owner_of_matches_the_oracle_on_sampled_keys_at_paper_and_scale_sizes() {
    // d = 8 full is the paper's bed; d = 13 with 50 000 nodes (47 % of
    // 106 496 slots) is the sparse scale bed.
    for (d, n) in [(8u8, 2048usize), (13, 50_000)] {
        let net = Cycloid::build(n, CycloidConfig { dimension: d, seed: 0x5A3 });
        let ids = live_ids(&net);
        let mut rng = SmallRng::seed_from_u64(u64::from(d));
        for _ in 0..2_000 {
            let key = CycloidId::new(rng.gen_range(0..d), rng.gen_range(0..1u32 << d), d);
            check_key(&net, &ids, key, &format!("d={d} n={n}"));
        }
    }
}
