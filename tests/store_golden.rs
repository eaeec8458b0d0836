//! Golden digests of the store path (placement, routed registration,
//! handoff, replication, promotion, repair) on all five systems.
//!
//! Each system is built at n = 256 (Cycloid d = 6; 8 attributes × 40
//! values), placed once, replicated at degree k ∈ {1, 3}, and driven
//! through 60 scripted operations from a fixed-seed RNG — joins, graceful
//! departures, abrupt failures, routed registrations, a `stabilize` every
//! tenth operation and no second `place_all`, so handoff, promotion and
//! re-replication stay visible in the final state. The FNV-1a digest
//! covers every arena slot's directory (pieces in stored order) and
//! replica store (entries in store order), `total_pieces`, the
//! `RepairStats` counters, every `register` tally and every id
//! `join_physical` returned.
//!
//! The constants were recorded on the commit *before* the store path was
//! rewritten onto one `Host<O>` (PR 17) and must not change: a refactor of
//! the store path that moves one piece, one replica entry or one counter
//! fails here. Runs in tier-1 (`cargo test -q`, facade package).

use lorm_repro::baselines::{ChordSystem, CompositeConfig, CompositeFlat, KeyScheme};
use lorm_repro::grid_resource::Host;
use lorm_repro::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const NODES: usize = 256;
const OPS: usize = 60;

/// FNV-1a over little-endian 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn piece(&mut self, r: &ResourceInfo) {
        self.word(u64::from(r.attr.0));
        self.word(r.value.to_bits());
        self.word(r.owner as u64);
    }
}

/// Fold one host into the digest; `key_bits` is how the parent stored a
/// replica's routing key as a `u64` (Chord: the key itself; LORM:
/// `(cubical << 8) | cyclic`).
fn dump<O: Overlay>(h: &Host<O>, key_bits: impl Fn(O::Key) -> u64, f: &mut Fnv) {
    let arena = h.net().arena_len();
    f.word(arena as u64);
    for slot in (0..arena).map(NodeIdx) {
        f.word(h.directory(slot).len() as u64);
        h.directory(slot).iter().for_each(|r| f.piece(r));
        let entries = h.replicas_of(slot).map_or(&[][..], |s| s.entries());
        f.word(entries.len() as u64);
        for e in entries {
            f.word(e.primary.0 as u64);
            f.word(key_bits(e.key));
            f.piece(&e.info);
        }
    }
}

/// A system whose stored state can be folded into a digest.
trait Golden: ResourceDiscovery {
    fn dump(&self, f: &mut Fnv);
}

impl Golden for Lorm {
    fn dump(&self, f: &mut Fnv) {
        dump(self.host(), |id| (u64::from(id.cubical) << 8) | u64::from(id.cyclic), f);
    }
}

impl<S: KeyScheme> Golden for ChordSystem<S> {
    fn dump(&self, f: &mut Fnv) {
        for hub in 0..self.num_hubs() {
            dump(self.hub(AttrId(hub as u32)), |key| key, f);
        }
    }
}

fn workload() -> Workload {
    let cfg = WorkloadConfig {
        num_attrs: 8,
        values_per_attr: 40,
        num_nodes: NODES,
        ..WorkloadConfig::default()
    };
    Workload::generate(cfg, &mut SmallRng::seed_from_u64(0x60_1D)).unwrap()
}

fn pick_live(sys: &impl Golden, max_phys: usize, rng: &mut SmallRng) -> usize {
    loop {
        let p = rng.gen_range(0..max_phys);
        if sys.is_live(p) {
            return p;
        }
    }
}

/// Place, replicate at `k`, run the script, digest the final state.
fn digest(mut sys: impl Golden, w: &Workload, k: usize) -> u64 {
    let mut f = Fnv::new();
    sys.place_all(&w.reports);
    sys.set_replication(k);
    let mut rng = SmallRng::seed_from_u64(4 + k as u64);
    let mut max_phys = NODES;
    for op in 1..=OPS {
        if op % 10 == 0 {
            sys.stabilize();
            continue;
        }
        match rng.gen_range(0..4) {
            0 => match sys.join_physical(&mut rng) {
                Ok(id) => {
                    max_phys = max_phys.max(id + 1);
                    f.word(id as u64);
                }
                Err(_) => f.word(u64::MAX),
            },
            1 => {
                let p = pick_live(&sys, max_phys, &mut rng);
                f.word(u64::from(sys.leave_physical(p).is_ok()));
            }
            2 => {
                let p = pick_live(&sys, max_phys, &mut rng);
                f.word(u64::from(sys.fail_physical(p).is_ok()));
            }
            _ => {
                let info = ResourceInfo {
                    attr: AttrId(rng.gen_range(0..8)),
                    value: f64::from(rng.gen_range(1..=40u32)),
                    owner: pick_live(&sys, max_phys, &mut rng),
                };
                match sys.register(info) {
                    Ok(t) => {
                        for x in [t.hops, t.lookups, t.visited, t.matches] {
                            f.word(x as u64);
                        }
                    }
                    Err(_) => f.word(u64::MAX),
                }
            }
        }
    }
    sys.dump(&mut f);
    f.word(sys.total_pieces() as u64);
    f.word(sys.num_physical() as u64);
    let rs = sys.repair_stats();
    for x in [rs.rounds(), rs.copies(), rs.promotions(), rs.dropped()] {
        f.word(x);
    }
    f.0
}

#[test]
fn store_path_digests_match_the_recorded_parent() {
    let w = workload();
    let lorm = || Lorm::new(NODES, &w.space, LormConfig { dimension: 6, ..Default::default() });
    let got: Vec<(&str, usize, u64)> = [1usize, 3]
        .into_iter()
        .flat_map(|k| {
            [
                ("LORM", k, digest(lorm(), &w, k)),
                (
                    "Mercury",
                    k,
                    digest(Mercury::new(NODES, &w.space, MercuryConfig::default()), &w, k),
                ),
                ("SWORD", k, digest(Sword::new(NODES, &w.space, SwordConfig::default()), &w, k)),
                ("MAAN", k, digest(Maan::new(NODES, &w.space, MaanConfig::default()), &w, k)),
                (
                    "Composite",
                    k,
                    digest(CompositeFlat::new(NODES, &w.space, CompositeConfig::default()), &w, k),
                ),
            ]
        })
        .collect();
    let want: [(&str, usize, u64); 10] = [
        ("LORM", 1, 0xf54e_f23a_43f9_dba2),
        ("Mercury", 1, 0x5611_c166_bbb2_a429),
        ("SWORD", 1, 0x1229_2bba_481c_c322),
        ("MAAN", 1, 0x9ca6_7029_bac4_5e8e),
        ("Composite", 1, 0x5d75_2964_620c_0079),
        ("LORM", 3, 0xb40a_1055_0762_0522),
        ("Mercury", 3, 0x896a_7657_e95e_6cd5),
        ("SWORD", 3, 0xe1cc_7549_a88e_cc26),
        ("MAAN", 3, 0x3bf0_c2fc_63c2_f001),
        ("Composite", 3, 0x52c8_c653_507a_0396),
    ];
    let hex = |v: &[(&str, usize, u64)]| -> Vec<String> {
        v.iter().map(|(s, k, d)| format!("(\"{s}\", {k}, {d:#018x})")).collect()
    };
    assert_eq!(hex(&got), hex(&want));
}
