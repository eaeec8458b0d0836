//! Golden digests of the store path (placement, routed registration,
//! handoff, replication, promotion, repair) on all five systems.
//!
//! Each system is built at n = 256 (Cycloid d = 6; 8 attributes × 40
//! values), placed once, replicated at degree k ∈ {1, 3}, and driven
//! through 60 scripted operations from a fixed-seed RNG — joins, graceful
//! departures, abrupt failures, routed registrations, a `stabilize` every
//! tenth operation and no second `place_all`, so handoff, promotion and
//! re-replication stay visible in the final state. Two FNV-1a digests
//! cover every arena slot's directory and replica store, `total_pieces`,
//! the `RepairStats` counters, every `register` tally and every id
//! `join_physical` returned:
//!
//! * **canonical form** — each slot's pieces sorted by `(attr, value
//!   bits, owner)` and each replica store's entries by `(attr, value bits,
//!   owner, key, primary)` before folding: *what* is stored *where*,
//!   independent of layout. Recorded on the parent of PR 24 (insertion-
//!   ordered buckets) and unchanged by it: a change to the store path that
//!   moves one piece, one replica entry or one counter between nodes fails
//!   here.
//! * **stored order** — pieces as `Directory::iter` yields them, entries
//!   in store order. First recorded on the commit before PR 17 rewrote the
//!   store path onto one `Host<O>`; re-recorded by PR 24, which orders a
//!   bucket by `(value, owner)` instead of by arrival (at k = 1 on this
//!   all-positive workload the two forms now coincide; at k = 3 they
//!   differ only in how a replica store's entries are ordered). A change
//!   that alters the observable order of a directory fails here and must
//!   say why.
//!
//! Runs in tier-1 (`cargo test -q`, facade package).

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

    /// One replica entry: `(primary slot, routing key, piece)`.
    fn entry(&mut self, &(primary, key, info): &(u64, u64, ResourceInfo)) {
        self.word(primary);
        self.word(key);
        self.piece(&info);
    }
}

/// The two digests of one final state: `stored` folds every directory
/// and replica store in the order it is kept, `canonical` after sorting
/// each by value identity — what is stored where, whatever the layout.
struct Digests {
    stored: Fnv,
    canonical: Fnv,
}

impl Digests {
    /// Fold a word both forms share (ids, tallies, counters, lengths).
    fn word(&mut self, w: u64) {
        self.stored.word(w);
        self.canonical.word(w);
    }
}

/// Fold one host into both digests; `key_bits` is how the parent stored a
/// replica's routing key as a `u64` (Chord: the key itself; LORM:
/// `(cubical << 8) | cyclic`).
fn dump<O: Overlay>(h: &Host<O>, key_bits: impl Fn(O::Key) -> u64, f: &mut Digests) {
    let arena = h.net().arena_len();
    f.word(arena as u64);
    for slot in (0..arena).map(NodeIdx) {
        f.word(h.directory(slot).len() as u64);
        let mut pieces: Vec<ResourceInfo> = h.directory(slot).iter().copied().collect();
        pieces.iter().for_each(|r| f.stored.piece(r));
        pieces.sort_by_key(|r| (r.attr.0, r.value.to_bits(), r.owner));
        pieces.iter().for_each(|r| f.canonical.piece(r));

        let entries = h.replicas_of(slot).map_or(&[][..], |s| s.entries());
        f.word(entries.len() as u64);
        let mut entries: Vec<(u64, u64, ResourceInfo)> =
            entries.iter().map(|e| (e.primary.0 as u64, key_bits(e.key), e.info)).collect();
        entries.iter().for_each(|e| f.stored.entry(e));
        entries
            .sort_by_key(|&(primary, key, r)| (r.attr.0, r.value.to_bits(), r.owner, key, primary));
        entries.iter().for_each(|e| f.canonical.entry(e));
    }
}

/// A system whose stored state can be folded into a digest.
trait Golden: ResourceDiscovery {
    fn dump(&self, f: &mut Digests);
}

impl Golden for Lorm {
    fn dump(&self, f: &mut Digests) {
        dump(self.host(), |id| (u64::from(id.cubical) << 8) | u64::from(id.cyclic), f);
    }
}

impl<S: KeyScheme> Golden for ChordSystem<S> {
    fn dump(&self, f: &mut Digests) {
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

/// Place, replicate at `k`, run the script, digest the final state:
/// `(stored-order, canonical-form)`.
fn digest(mut sys: impl Golden, w: &Workload, k: usize) -> (u64, u64) {
    let mut f = Digests { stored: Fnv::new(), canonical: Fnv::new() };
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
    (f.stored.0, f.canonical.0)
}

#[test]
fn store_path_digests_match_the_recorded_parent() {
    let w = workload();
    let lorm = || Lorm::new(NODES, &w.space, LormConfig { dimension: 6, ..Default::default() });
    let got: Vec<(&str, usize, (u64, u64))> = [1usize, 3]
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
    // (system, k, (stored-order, canonical-form))
    let want: [(&str, usize, (u64, u64)); 10] = [
        ("LORM", 1, (0xd837_9135_fd79_3a06, 0xd837_9135_fd79_3a06)),
        ("Mercury", 1, (0xf39b_08ba_9787_1259, 0xf39b_08ba_9787_1259)),
        ("SWORD", 1, (0x9fdb_0adc_87df_e862, 0x9fdb_0adc_87df_e862)),
        ("MAAN", 1, (0x5dce_e575_d7b6_2062, 0x5dce_e575_d7b6_2062)),
        ("Composite", 1, (0xa98b_cd2b_7fdf_4f0d, 0xa98b_cd2b_7fdf_4f0d)),
        ("LORM", 3, (0x50e3_3416_f1bf_98f6, 0xd46a_1fd2_9a76_9e6e)),
        ("Mercury", 3, (0xb105_eee0_3035_45d1, 0xb105_eee0_3035_45d1)),
        ("SWORD", 3, (0x2148_9e17_b267_d126, 0x55f4_45be_707a_432e)),
        ("MAAN", 3, (0x5b27_b994_b5fa_00cd, 0x8870_5a73_4dc6_8561)),
        ("Composite", 3, (0x6b2c_6639_1de5_7cc2, 0xbf0f_83dc_4c9c_e9f6)),
    ];
    let hex = |v: &[(&str, usize, (u64, u64))]| -> Vec<String> {
        v.iter()
            .map(|(s, k, (st, ca))| format!("(\"{s}\", {k}, ({st:#018x}, {ca:#018x}))"))
            .collect()
    };
    assert_eq!(hex(&got), hex(&want));
}
