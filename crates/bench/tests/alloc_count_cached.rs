//! Proves the cached routing path is allocation-free in steady state.
//!
//! After one warm pass over the lookup plan, every further pass through
//! `Via::Cached` routing — hits *and* collision-evicted misses — must
//! leave the allocation counter untouched: the cache is flat arena
//! storage, the miss path routes with the allocation-free `route_stats`,
//! and walk recording recycles one scratch buffer. Same
//! counting-allocator scheme as `alloc_count.rs`; one test per binary
//! because the counter is process-global.

use chord::{Chord, ChordConfig};
use cycloid::{Cycloid, CycloidConfig, CycloidId};
use dht_core::{NodeIdx, RouteCache, Via};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates verbatim to `System`; the counter bump cannot violate
// any allocator invariant.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn cached_route_lookups_make_zero_heap_allocations() {
    const LOOKUPS: usize = 1000;
    let chord = Chord::build(512, ChordConfig::default());
    let d = 7u8;
    let cycloid = Cycloid::build(d as usize * (1 << d), CycloidConfig { dimension: d, seed: 1 });
    let mut rng = SmallRng::seed_from_u64(0xA110C2);
    let chord_plan: Vec<(NodeIdx, u64)> = (0..LOOKUPS)
        .map(|_| (chord.random_node(&mut rng).expect("live node"), rng.gen()))
        .collect();
    let cycloid_plan: Vec<(NodeIdx, CycloidId)> = (0..LOOKUPS)
        .map(|_| {
            let from = cycloid.random_node(&mut rng).expect("live node");
            let key = CycloidId::new(rng.gen_range(0..d), rng.gen_range(0..(1u32 << d)), d);
            (from, key)
        })
        .collect();

    // Warm pass: populates the cache slots (RouteCache::new itself
    // allocates its flat tables; that lands outside the window too).
    let mut chord_cache = RouteCache::new();
    let mut cycloid_cache = RouteCache::new();
    for &(from, key) in &chord_plan {
        let r = Via::Cached(&mut chord_cache).route_stats(&chord, from, key, 0, 0);
        black_box(r.expect("lookup").hops);
    }
    for &(from, key) in &cycloid_plan {
        let r = Via::Cached(&mut cycloid_cache).route_stats(&cycloid, from, key, 0, 0);
        black_box(r.expect("lookup").hops);
    }

    let before = ALLOCS.load(Ordering::Relaxed);
    for &(from, key) in &chord_plan {
        let r = Via::Cached(&mut chord_cache).route_stats(&chord, from, key, 0, 0);
        black_box(r.expect("lookup").hops);
    }
    for &(from, key) in &cycloid_plan {
        let r = Via::Cached(&mut cycloid_cache).route_stats(&cycloid, from, key, 0, 0);
        black_box(r.expect("lookup").hops);
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(
        allocs,
        0,
        "cached routing must be allocation-free after the warm pass: \
         {allocs} allocations over {} lookups",
        2 * LOOKUPS
    );
    assert!(chord_cache.hits() > 0, "warm chord plan must serve hits");
    assert!(cycloid_cache.hits() > 0, "warm cycloid plan must serve hits");
}
