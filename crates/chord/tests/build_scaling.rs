//! Regression guard for the bulk-build bugfix: initial bed construction
//! must stay subquadratic in n.
//!
//! The retired path performed one ordered insert per join (O(n) shifts
//! each, O(n²) aggregate); `Chord::build` now assembles the ring from a
//! single sorted id vector (the id draw and that sort are its only
//! O(n log n) terms) and derives all link state in one linear sweep
//! around it. Quadrupling n must therefore cost ~4–5x, not ~16x.
//! The threshold sits halfway between those regimes with generous slack
//! for scheduler noise on a loaded 1-CPU runner; timings are best-of-3
//! so a single stall cannot fake a regression.

use chord::{Chord, ChordConfig};
use dht_core::Overlay;
use std::time::Instant;

fn best_build_secs(n: usize) -> f64 {
    (0..3)
        .map(|_| {
            let started = Instant::now();
            let net = Chord::build(n, ChordConfig::default());
            let secs = started.elapsed().as_secs_f64();
            assert_eq!(net.len(), n);
            secs
        })
        .fold(f64::INFINITY, f64::min)
}

#[test]
fn bulk_build_time_grows_subquadratically() {
    // Warm up allocator/page-cache state so the first measured build
    // isn't charged for faulting in the heap.
    drop(Chord::build(4_096, ChordConfig::default()));
    let small = best_build_secs(16_384);
    let large = best_build_secs(65_536);
    // Floor the denominator: on a fast machine the small build is
    // sub-millisecond and the ratio would be all noise.
    let ratio = large / small.max(1e-3);
    assert!(
        ratio < 10.0,
        "4x nodes cost {ratio:.1}x build time ({small:.3}s -> {large:.3}s); \
         sort + linear sweep predicts ~4–4.6x, quadratic predicts ~16x"
    );
}
