//! Pins the allocation budget of the hot paths: the untraced routing fast
//! path and the planner's sorted-merge intersection make none, and a
//! traced route makes exactly one (its trace `Vec`). Pins the heap a built
//! Chord ring, a built Cycloid and a built Mercury keep, to the byte, how
//! far one join grows a cloned one, and a directory's bucket table.
//!
//! A counting `#[global_allocator]` wraps the system allocator and counts
//! per thread, so each test reads only its own window and the tests run
//! concurrently in this one binary. The counters are `const`-initialised
//! `thread_local!`s (no lazy initialisation, so bumping them never
//! allocates) read through `try_with` (a thread being torn down has no
//! window to pollute).

use baselines::{Mercury, MercuryConfig};
use chord::{Chord, ChordConfig};
use cycloid::{Cycloid, CycloidConfig, CycloidId};
use dht_core::{NodeIdx, Overlay};
use grid_resource::{
    intersect_sorted, AttrId, AttributeSpace, Directory, ResourceDiscovery, ResourceInfo,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated minus bytes freed by this thread.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

fn count_bytes(delta: i64) {
    let _ = LIVE.try_with(|b| b.set(b.get() + delta));
}

struct CountingAlloc;

// SAFETY: delegates verbatim to `System`; the thread-local counter bump
// neither allocates nor touches the block, so it cannot violate any
// allocator invariant.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        count_bytes(layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_bytes(-(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        count_bytes(new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Heap allocations the calling thread makes while running `f`.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// Heap bytes the calling thread still holds from what `f` built.
fn live_bytes_of<T>(f: impl FnOnce() -> T) -> (T, i64) {
    let before = LIVE.with(Cell::get);
    let built = f();
    (built, LIVE.with(Cell::get) - before)
}

const LOOKUPS: usize = 1000;

/// Stabilized Chord and Cycloid networks with `LOOKUPS` pre-drawn
/// `(from, key)` pairs each: everything that allocates happens here,
/// before any measured window.
struct Overlays {
    chord: Chord,
    cycloid: Cycloid,
    chord_plan: Vec<(NodeIdx, u64)>,
    cycloid_plan: Vec<(NodeIdx, CycloidId)>,
}

fn overlays(seed: u64) -> Overlays {
    let chord = Chord::build(512, ChordConfig::default());
    let d = 7u8;
    let cycloid = Cycloid::build(d as usize * (1 << d), CycloidConfig { dimension: d, seed: 1 });
    let mut rng = SmallRng::seed_from_u64(seed);
    let chord_plan = (0..LOOKUPS)
        .map(|_| (chord.random_node(&mut rng).expect("live node"), rng.gen()))
        .collect();
    let cycloid_plan = (0..LOOKUPS)
        .map(|_| {
            let from = cycloid.random_node(&mut rng).expect("live node");
            let key = CycloidId::new(rng.gen_range(0..d), rng.gen_range(0..(1u32 << d)), d);
            (from, key)
        })
        .collect();
    Overlays { chord, cycloid, chord_plan, cycloid_plan }
}

#[test]
fn route_stats_makes_zero_heap_allocations() {
    let o = overlays(0xA110C);
    // Warm-up: any lazily-initialized one-time allocation lands here.
    black_box(o.chord.route_stats(o.chord_plan[0].0, o.chord_plan[0].1).expect("lookup").hops);
    black_box(
        o.cycloid.route_stats(o.cycloid_plan[0].0, o.cycloid_plan[0].1).expect("lookup").hops,
    );

    let allocs = allocs_during(|| {
        for &(from, key) in &o.chord_plan {
            black_box(o.chord.route_stats(from, key).expect("lookup").hops);
        }
        for &(from, key) in &o.cycloid_plan {
            black_box(o.cycloid.route_stats(from, key).expect("lookup").hops);
        }
    });
    assert_eq!(
        allocs,
        0,
        "route_stats must be allocation-free: {allocs} allocations over {} lookups",
        2 * LOOKUPS
    );
}

#[test]
fn traced_routes_make_exactly_one_allocation_each() {
    // `route` returns the hop-by-hop trace in a `Vec`, so one allocation
    // is the floor — and the pre-sized trace buffers (worst-case path
    // bound capacity on both overlays) make it the ceiling too: any
    // regrowth would show up as a second allocation.
    let o = overlays(0xA110C1);
    black_box(o.chord.route(o.chord_plan[0].0, o.chord_plan[0].1).expect("lookup").hops());
    black_box(o.cycloid.route(o.cycloid_plan[0].0, o.cycloid_plan[0].1).expect("lookup").hops());

    let chord_allocs = allocs_during(|| {
        for &(from, key) in &o.chord_plan {
            black_box(o.chord.route(from, key).expect("lookup").hops());
        }
    });
    assert_eq!(
        chord_allocs, LOOKUPS as u64,
        "chord traced routes must allocate exactly once per lookup (the trace Vec): \
         {chord_allocs} allocations over {LOOKUPS} lookups"
    );
    let cycloid_allocs = allocs_during(|| {
        for &(from, key) in &o.cycloid_plan {
            black_box(o.cycloid.route(from, key).expect("lookup").hops());
        }
    });
    assert_eq!(
        cycloid_allocs, LOOKUPS as u64,
        "cycloid traced routes must allocate exactly once per lookup (the trace Vec): \
         {cycloid_allocs} allocations over {LOOKUPS} lookups"
    );
}

fn sorted_set(rng: &mut SmallRng, len: usize, max: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (0..len).map(|_| rng.gen_range(0..max)).collect();
    v.sort_unstable();
    v.dedup();
    v
}

#[test]
fn intersect_sorted_makes_zero_heap_allocations() {
    const ROUNDS: usize = 1000;
    // Everything that allocates happens before the measured window: the
    // candidate sets and the accumulator, sized for the largest refill.
    let mut rng = SmallRng::seed_from_u64(0xA110C2);
    // balanced merge, gallop over `other`, gallop over the accumulator
    let pairs: [(Vec<usize>, Vec<usize>); 3] = [
        (sorted_set(&mut rng, 2048, 1 << 14), sorted_set(&mut rng, 2048, 1 << 14)),
        (sorted_set(&mut rng, 4096, 1 << 16), sorted_set(&mut rng, 64, 1 << 16)),
        (sorted_set(&mut rng, 64, 1 << 16), sorted_set(&mut rng, 4096, 1 << 16)),
    ];
    let cap = pairs.iter().map(|(a, _)| a.len()).max().expect("nonempty");
    let mut acc: Vec<usize> = Vec::with_capacity(cap);

    // Warm-up: any lazily-initialized one-time allocation lands here.
    acc.extend_from_slice(&pairs[0].0);
    intersect_sorted(&mut acc, &pairs[0].1);
    black_box(acc.len());

    let allocs = allocs_during(|| {
        for round in 0..ROUNDS {
            let (a, b) = &pairs[round % pairs.len()];
            acc.clear();
            acc.extend_from_slice(a);
            intersect_sorted(&mut acc, b);
            black_box(acc.len());
        }
    });
    assert_eq!(
        allocs, 0,
        "intersect_sorted must be allocation-free: {allocs} allocations over {ROUNDS} rounds"
    );
}

#[test]
fn built_rings_hold_a_pinned_heap_per_node() {
    // Exact, seed-only figures: a layout change that moves them (the
    // finger window, a new per-node array) must re-record them here.
    // Chord keeps 8 B id, 1 B liveness, 4 B predecessor, 16 B successors,
    // 1 B list length and 4 B ring slot per node, plus 4 B per level of
    // its finger window: 34 + 4 · 28 = 146 B at n = 2048, seed 7321.
    let n = 2048;
    let (chord, bytes) = live_bytes_of(chord_2048);
    black_box(chord.len());
    assert_eq!(bytes, 299_008, "Chord::build({n}, seed 7321): {} B/node", bytes / n as i64);
    // Mercury at the quick configuration: 896 nodes, one ring for each of
    // 50 attributes. Every ring keeps Chord's 34 B per node and a 16 B
    // empty directory, 50 · 50 = 2 500 B per node; the 50 finger windows
    // hold 1 037 levels between them, 4 · 1 037 = 4 148 B per node. The
    // remaining 57 536 B (64.2 B per node) are system-wide: the physical
    // map at 16 B per node, the hub table and the estimator.
    let cfg = sim::SimConfig::quick();
    let (mercury, bytes) = live_bytes_of(quick_mercury);
    black_box(mercury.num_hubs());
    assert_eq!(bytes, 6_014_144, "quick Mercury: {} B/node", bytes as f64 / cfg.nodes as f64);
}

#[test]
fn built_cycloids_hold_a_pinned_heap() {
    // Exact, seed-only figures at d = 8 (2 048 slots): a full bed and a
    // sparse one. A layout change that moves them must re-record them here.
    // Per node: a 44 B `CycloidNode` and a 4 B live-list entry. Per slot:
    // one 4 B link in `slots`, which is also every cluster's member list.
    // The `occupied` list takes 4 B per cluster (grown by doubling, so 256
    // entries on both beds): 48 · 2 048 + 4 · 2 048 + 1 024 = 107 520 B.
    for (n, pinned) in [(2048, 107_520), (500, 33_216)] {
        let cfg = CycloidConfig { dimension: 8, seed: 7321 };
        let (net, bytes) = live_bytes_of(|| Cycloid::build(n, cfg));
        black_box(net.len());
        assert_eq!(bytes, pinned, "Cycloid::build({n}, d 8): {} B/node", bytes as f64 / n as f64);
    }
}

fn chord_2048() -> Chord {
    Chord::build(2048, ChordConfig { seed: 7321, ..ChordConfig::default() })
}

fn quick_mercury() -> Mercury {
    let cfg = sim::SimConfig::quick();
    let space = AttributeSpace::synthetic(cfg.attrs, 1.0, 100.0).expect("valid space");
    Mercury::new(cfg.nodes, &space, MercuryConfig { seed: cfg.seed })
}

/// The most one join may add to a built arena of `n` nodes holding
/// `bytes` in `rings` rings: an eighth of its slots (rounded up) at their
/// mean size, plus one full 64-level finger row per ring. `Vec`'s
/// doubling would add about `bytes`.
fn join_growth_bound(n: usize, bytes: i64, rings: usize) -> i64 {
    let row = (64 * size_of::<u32>()) as i64;
    n.div_ceil(8) as i64 * bytes / n as i64 + rings as i64 * row
}

#[test]
fn one_join_grows_a_cloned_bed_by_at_most_an_eighth() {
    // A clone's capacities equal its lengths, so its first join is the
    // growth step every churned bed takes.
    let (chord, bytes) = live_bytes_of(chord_2048);
    let mut clone = chord.clone();
    let boot = clone.nodes_by_id().at(0);
    let (_, grew) = live_bytes_of(|| clone.join(boot).expect("join"));
    let bound = join_growth_bound(chord.len(), bytes, 1);
    assert!(grew <= bound, "Chord clone + join grew {grew} B, bound {bound} B");

    let cfg = sim::SimConfig::quick();
    let (mercury, bytes) = live_bytes_of(quick_mercury);
    let mut clone = mercury.clone();
    let mut rng = SmallRng::seed_from_u64(7321);
    let (_, grew) = live_bytes_of(|| clone.join_physical(&mut rng).expect("join"));
    let bound = join_growth_bound(cfg.nodes, bytes, mercury.num_hubs());
    assert!(grew <= bound, "Mercury clone + join_physical grew {grew} B, bound {bound} B");
}

#[test]
fn directories_hold_exactly_their_buckets() {
    assert_eq!(size_of::<Directory>(), 16, "a boxed bucket table: pointer and length");
    // A bucket is its attribute, its tail length and its pieces `Vec`.
    let bucket = 2 * size_of::<u32>() + size_of::<Vec<ResourceInfo>>();
    let piece = |owner| ResourceInfo { attr: AttrId(3), value: owner as f64, owner };
    let (dir, bytes) = live_bytes_of(|| {
        let mut d = Directory::new();
        d.bulk_load((0..4).map(piece).collect());
        d
    });
    assert_eq!(dir.len(), 4);
    assert_eq!(
        bytes as usize,
        bucket + 4 * size_of::<ResourceInfo>(),
        "one attribute: a one-bucket table and its four pieces"
    );
    // Merging three new attributes grows the table once (one call), then
    // allocates each new bucket's pieces (three calls).
    let mut dir = dir;
    let batch: Vec<ResourceInfo> =
        [5, 1, 9].map(|attr| ResourceInfo { attr: AttrId(attr), value: 1.0, owner: 0 }).to_vec();
    let allocs = allocs_during(|| dir.bulk_load(batch));
    assert_eq!(allocs, 4, "one table growth and three piece runs");
    assert_eq!(dir.len(), 7);
}
